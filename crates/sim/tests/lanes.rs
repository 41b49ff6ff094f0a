//! The lane suite: flow tables larger than one lane
//! (`mbac_traffic::batch::LANE` flows), at `3·LANE + 17` flows — three
//! full lanes and a short fourth — on each of the three kernels (RCBR,
//! AR(1) and the boxed `DynBatch`), RCBR over a Gaussian and over the
//! on–off source's two-point marginal.
//!
//! * **Worker-count invariance.** Rates, moment bits and the RNG end
//!   state are identical for 1, 2 and 4 workers, through admissions and
//!   departures that move flows across lane edges and grow the table
//!   into a lane it never had; and a session whose replications fan
//!   lanes out from inside pool participants equals its 1-worker run.
//! * **Boxed ≡ batched** above one lane: the unbatched table, whose
//!   `DynBatch` cuts thinning runs at lane edges, equals the kernels.
//! * **Law.** The renegotiation share, the new-rate mean and variance,
//!   the AR(1) lag-1 autocorrelation and the on–off on-share are within
//!   4.5σ of theory, and the aggregates of different lanes are
//!   uncorrelated (within 4.5σ of 0) — each lane draws its own stream.
//!
//! Run on its own with `cargo test --release -p mbac-sim --test lanes`.

use mbac_num::parallel::with_workers;
use mbac_num::{RateMoments, RunningStats};
use mbac_sim::{ConfigError, Engine, MetricsSink, RepContext, Scenario, SessionBuilder};
use mbac_traffic::batch::{fold_lanes, LANE};
use mbac_traffic::{Ar1Config, Ar1Model, RcbrConfig, RcbrModel, SourceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Three full lanes and a short fourth.
const N: usize = 3 * LANE + 17;

/// `got` within `Z = 4.5` standard deviations `sd` of `want`.
fn assert_near(at: &str, what: &str, got: f64, want: f64, sd: f64) {
    const Z: f64 = 4.5;
    assert!(
        (got - want).abs() <= Z * sd,
        "{at}: {what} {got}, want {want} ± {}",
        Z * sd
    );
}

/// Untruncated, so a renegotiation always changes the rate; `T_c ≠ 1`.
fn rcbr() -> RcbrModel {
    RcbrModel::new(RcbrConfig {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 2.0,
        truncate_at_zero: false,
    })
}

/// Unclamped, so rates are the Gaussian AR(1) state itself.
fn ar1(tick: f64) -> Ar1Model {
    Ar1Model::new(Ar1Config {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 1.0,
        tick,
        clamp_at_zero: false,
    })
}

/// On–off, the two-state Markov fluid: peak 2, mean on 1, mean off 1 —
/// on-share ½, `λ + μ = 2`.
fn on_off() -> RcbrModel {
    RcbrModel::on_off(2.0, 1.0, 1.0)
}

fn models() -> Vec<(&'static str, Box<dyn SourceModel>)> {
    vec![
        ("rcbr", Box::new(rcbr())),
        ("ar1", Box::new(ar1(0.25))),
        ("on-off", Box::new(on_off())),
    ]
}

/// Everything a run of [`churn`] can be compared on.
#[derive(Debug, PartialEq)]
struct Trace {
    /// Every tick's moments, as bits (pivot, count, sum, variance).
    moments: Vec<(u64, usize, u64, u64)>,
    rates: Vec<f64>,
    rng: StdRng,
}

/// `N` flows of `model` on `engine`, then ticks that depart a few flows
/// from every lane (the holes refill from the last lane) and admit more
/// than depart, until the table reaches a fifth lane.
fn churn(model: &dyn SourceModel, engine: Engine, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = engine.table();
    for i in 0..N {
        let hold = if i % 97 == 0 {
            0.6 + (i % 5) as f64
        } else {
            f64::INFINITY
        };
        table.admit(model, hold, &mut rng);
    }
    let (mut moments, mut snap) = (Vec::new(), Vec::new());
    let mut t = 0.0;
    for tick in 0..12 {
        t += 0.5;
        let mom = table
            .advance_depart_measure(t, &mut rng, 1.0 + 0.01 * tick as f64)
            .reduce();
        moments.push((
            mom.pivot().to_bits(),
            mom.count(),
            mom.sum().to_bits(),
            mom.variance_around(mom.mean()).to_bits(),
        ));
        for _ in 0..(LANE / 8) {
            table.admit(model, f64::INFINITY, &mut rng);
        }
    }
    assert!(table.len() > 4 * LANE, "the table never grew a fifth lane");
    assert!(table.departed_total() > 0, "no departure exercised");
    table.snapshot_into(&mut snap);
    Trace {
        moments,
        rates: snap,
        rng,
    }
}

#[test]
fn bits_are_invariant_under_worker_count_and_engine() {
    for (name, model) in models() {
        let reference = with_workers(1, || churn(model.as_ref(), Engine::Batched, 7));
        for engine in [Engine::Batched, Engine::Boxed] {
            for workers in [1, 2, 4] {
                let got = with_workers(workers, || churn(model.as_ref(), engine, 7));
                assert!(
                    got == reference,
                    "{name}: {engine:?} on {workers} workers diverged from batched on 1"
                );
            }
        }
    }
}

/// The fold alone, at a size the pool takes: lane partials merged in
/// lane order, the same bits on any worker count, close to the flat
/// fold.
#[test]
fn lane_fold_is_invariant_under_worker_count() {
    let mut rng = StdRng::seed_from_u64(3);
    let rates: Vec<f64> = (0..12 * LANE + 5)
        .map(|_| mbac_num::rng::normal(&mut rng, 1.0, 0.3))
        .collect();
    let fold = |workers| {
        with_workers(workers, || {
            let mut mom = RateMoments::new(0.99);
            fold_lanes(&mut mom, &rates);
            mom
        })
    };
    let one = fold(1);
    for workers in [2, 4] {
        assert_eq!(fold(workers), one, "{workers} workers");
    }
    let mut flat = RateMoments::new(0.99);
    flat.add_slice(&rates);
    assert_eq!(one.count(), rates.len());
    assert!((one.reduce().mean() / flat.reduce().mean() - 1.0).abs() < 1e-12);
    let small = &rates[..LANE];
    let mut lanes = RateMoments::new(0.99);
    fold_lanes(&mut lanes, small);
    let mut flat = RateMoments::new(0.99);
    flat.add_slice(small);
    assert_eq!(lanes, flat, "one lane folds flat");
}

/// Two replications whose tables exceed one lane, run by a session on
/// two workers: each publishes its lane jobs from inside a pool
/// participant. The run must finish, and equal the 1-worker run.
#[test]
fn nested_fan_out_matches_one_worker() {
    struct Tables;
    impl Scenario for Tables {
        type Rep = Vec<u64>;
        type Report = Vec<Vec<u64>>;
        fn validate(&self) -> Result<(), ConfigError> {
            Ok(())
        }
        fn replications(&self) -> usize {
            2
        }
        fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> Vec<u64> {
            let model = ar1(0.25);
            let (mut rng, mut table) = (ctx.rng(), ctx.table());
            for _ in 0..N {
                table.admit(&model, f64::INFINITY, &mut rng);
            }
            (1..=6)
                .map(|k| {
                    let t = 0.25 * k as f64;
                    table
                        .advance_depart_measure(t, &mut rng, 1.0)
                        .sum()
                        .to_bits()
                })
                .collect()
        }
        fn fold(&self, reps: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
            reps
        }
    }
    let run = |workers| {
        SessionBuilder::new()
            .seed(11)
            .workers(workers)
            .run(&Tables)
            .unwrap()
    };
    let one = run(1);
    assert_ne!(one[0], one[1], "replications share a stream");
    assert_eq!(run(2), one);
    assert_eq!(run(4), one);
}

/// The rates of `model`'s flows before and after each of `steps`
/// advances by `dt` of one batched (or boxed) table of `N` flows.
fn paths(
    model: &dyn SourceModel,
    engine: Engine,
    dt: f64,
    steps: usize,
    seed: u64,
) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = engine.table();
    for _ in 0..N {
        table.admit(model, f64::INFINITY, &mut rng);
    }
    let mut snap = Vec::new();
    table.snapshot_into(&mut snap);
    let mut out = vec![snap.clone()];
    for k in 1..=steps {
        table.advance_to(dt * k as f64, &mut rng);
        table.snapshot_into(&mut snap);
        out.push(snap.clone());
    }
    out
}

/// RCBR above one lane, batched and boxed: the share of flows that
/// renegotiate is `1 − e^{−dt/T_c}`, and the new rates are marginal
/// draws.
#[test]
fn rcbr_lanes_keep_the_renegotiation_law() {
    let model = rcbr();
    for (e, engine) in [Engine::Batched, Engine::Boxed].into_iter().enumerate() {
        for (d, dt_over_tc) in [0.05f64, 0.5, 3.0].into_iter().enumerate() {
            let dt = dt_over_tc * 2.0;
            let p = -(-dt_over_tc).exp_m1();
            let rates = paths(&model, engine, dt, 3, 100 + 10 * e as u64 + d as u64);
            let (mut changed, mut new_rates) = (0usize, RunningStats::new());
            for w in rates.windows(2) {
                for (&r0, &r) in w[0].iter().zip(&w[1]) {
                    if r != r0 {
                        changed += 1;
                        new_rates.push(r);
                    }
                }
            }
            let at = format!("{engine:?} at dt = {dt_over_tc} T_c");
            let trials = (3 * N) as f64;
            let share = changed as f64 / trials;
            assert_near(
                &at,
                "renegotiation share",
                share,
                p,
                (p * (1.0 - p) / trials).sqrt(),
            );
            let (k, var) = (changed as f64, 0.09);
            assert_near(
                &at,
                "new-rate mean",
                new_rates.mean(),
                1.0,
                (var / k).sqrt(),
            );
            assert_near(
                &at,
                "new-rate variance",
                new_rates.variance(),
                var,
                var * (2.0 / k).sqrt(),
            );
        }
    }
}

/// Sample correlation of paired observations.
fn correlation(pairs: impl Iterator<Item = (f64, f64)>) -> (f64, usize) {
    let (mut n, mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0usize, 0.0, 0.0, 0.0, 0.0, 0.0);
    for (x, y) in pairs {
        n += 1;
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
    }
    let m = n as f64;
    let cov = sxy / m - (sx / m) * (sy / m);
    let vx = sxx / m - (sx / m).powi(2);
    let vy = syy / m - (sy / m).powi(2);
    (cov / (vx * vy).sqrt(), n)
}

/// AR(1) above one lane, batched and boxed: after one tick every flow's
/// state correlates with its last by `a = e^{−Δ/T_c}`, and the rates
/// keep the stationary mean and variance.
#[test]
fn ar1_lanes_keep_the_lag_one_autocorrelation() {
    let tick: f64 = 0.25;
    let a = (-tick).exp();
    for engine in [Engine::Batched, Engine::Boxed] {
        let rates = paths(&ar1(tick), engine, tick, 4, 200);
        let at = format!("{engine:?}");
        // One pair per flow: flows are independent, so the pairs are.
        let (rho, n) = correlation(rates[3].iter().copied().zip(rates[4].iter().copied()));
        // Var of a sample correlation near ρ is (1 − ρ²)²/n.
        assert_near(
            &at,
            "lag-1 autocorrelation",
            rho,
            a,
            (1.0 - a * a) / (n as f64).sqrt(),
        );
        let mut last = RunningStats::new();
        rates[4].iter().for_each(|&r| last.push(r));
        let k = N as f64;
        assert_near(&at, "mean", last.mean(), 1.0, (0.09 / k).sqrt());
        assert_near(
            &at,
            "variance",
            last.variance(),
            0.09,
            0.09 * (2.0 / k).sqrt(),
        );
    }
}

/// On–off above one lane: the on-share is the stationary ½, and
/// the lag-1 autocorrelation of the rate is `e^{−(λ+μ)dt}`.
#[test]
fn markov_lanes_keep_the_stationary_law() {
    let dt: f64 = 0.3;
    let rho_want = (-2.0 * dt).exp();
    for engine in [Engine::Batched, Engine::Boxed] {
        let rates = paths(&on_off(), engine, dt, 4, 300);
        let at = format!("{engine:?}");
        let on = rates[4].iter().filter(|&&r| r > 0.0).count() as f64 / N as f64;
        assert_near(&at, "on-share", on, 0.5, (0.25 / N as f64).sqrt());
        let (rho, n) = correlation(rates[3].iter().copied().zip(rates[4].iter().copied()));
        assert_near(
            &at,
            "lag-1 autocorrelation",
            rho,
            rho_want,
            (1.0 - rho_want * rho_want) / (n as f64).sqrt(),
        );
    }
}

/// The aggregates of lanes 0, 1 and 2, observed over advances long
/// enough that successive observations are nearly independent, are
/// uncorrelated on every kernel: no lane replays another's stream.
#[test]
fn lane_aggregates_are_uncorrelated() {
    const STEPS: usize = 120;
    let cases: [(&str, Box<dyn SourceModel>, Engine, f64); 4] = [
        ("rcbr", Box::new(rcbr()), Engine::Batched, 10.0),
        // One draw per flow a tick, three ticks an advance: a³ = e^{−3}.
        ("ar1", Box::new(ar1(1.0)), Engine::Batched, 3.0),
        ("on-off", Box::new(on_off()), Engine::Batched, 2.0),
        ("boxed rcbr", Box::new(rcbr()), Engine::Boxed, 10.0),
    ];
    for (c, (name, model, engine, dt)) in cases.into_iter().enumerate() {
        let rates = paths(model.as_ref(), engine, dt, STEPS, 400 + c as u64);
        let lane_sum = |snap: &[f64], k: usize| snap[k * LANE..(k + 1) * LANE].iter().sum::<f64>();
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            let pairs = rates[1..].iter().map(|s| (lane_sum(s, i), lane_sum(s, j)));
            let (rho, n) = correlation(pairs);
            assert_near(
                &format!("{name}, lanes {i} and {j}"),
                "aggregate correlation",
                rho,
                0.0,
                1.0 / (n as f64).sqrt(),
            );
        }
    }
}
