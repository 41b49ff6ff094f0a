//! Burst-path equivalence proptests.
//!
//! [`ImpulsiveLoad`] used to spawn its candidate burst as one
//! `Box<dyn RateProcess>` per flow and admit the kept prefix through
//! `FlowTable::admit_process`; it now spawns the burst straight into
//! the model's batched kernel ([`FlowTable::spawn_burst`]). The old
//! sequence is kept here as the reference, and these properties hold
//! the new one to it **bit for bit** — rates, the grouped
//! `aggregate_rate` fold, ids, departures, `M₀`, the folded report and
//! the RNG end state — over both engines, bursts that admit fewer
//! flows than measured, exactly as many, and more (`M₀ > n`: the extras
//! form a second group), finite and infinite holding times, several
//! observation times, and a model with no batched kernel at all.

use mbac_core::admission::{AdmissionPolicy, CertaintyEquivalent};
use mbac_core::estimators::snapshot_stats;
use mbac_num::rng::exponential;
use mbac_sim::session::rep_seed;
use mbac_sim::{Engine, FlowTable, ImpulsiveConfig, ImpulsiveLoad, RepContext, SessionBuilder};
use mbac_traffic::ar1::{Ar1Config, Ar1Model};
use mbac_traffic::marginal::Marginal;
use mbac_traffic::process::{RateProcess, SourceModel};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// An RCBR model with its batched kernel hidden: the same flows, but
/// every table has to keep them boxed.
struct NoKernel(RcbrModel);

impl SourceModel for NoKernel {
    fn spawn(&self, rng: &mut dyn RngCore) -> Box<dyn RateProcess> {
        self.0.spawn(rng)
    }
    fn mean(&self) -> f64 {
        self.0.mean()
    }
    fn variance(&self) -> f64 {
        self.0.variance()
    }
}

fn model(which: u8) -> Box<dyn SourceModel> {
    let rcbr = RcbrModel::new(RcbrConfig::paper_default(1.0));
    match which {
        0 => Box::new(rcbr),
        1 => Box::new(Ar1Model::new(Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick: 0.05,
            clamp_at_zero: true,
        })),
        2 => Box::new(RcbrModel::with_marginal(
            Marginal::two_point_with_moments(1.0, 0.3),
            1.0,
        )),
        _ => Box::new(NoKernel(rcbr)),
    }
}

fn holding(rng: &mut StdRng, mean_holding: Option<f64>) -> f64 {
    match mean_holding {
        Some(th) => exponential(rng, th),
        None => f64::INFINITY,
    }
}

/// The admission sequence `ImpulsiveLoad::run_rep` made before the
/// burst path, verbatim: boxed candidates, their rates copied out, the
/// kept prefix through `admit_process`, extras through `admit`, one
/// holding draw ahead of each. Returns `M₀`.
fn reference_admit(
    table: &mut FlowTable,
    model: &dyn SourceModel,
    n: usize,
    m0_of: impl FnOnce(&[f64]) -> f64,
    mean_holding: Option<f64>,
    rng: &mut StdRng,
) -> f64 {
    let candidates: Vec<Box<dyn RateProcess>> = (0..n).map(|_| model.spawn(rng)).collect();
    let rates: Vec<f64> = candidates.iter().map(|c| c.rate()).collect();
    let m0 = m0_of(&rates);
    let mut candidates = candidates.into_iter();
    for _ in 0..m0.floor().max(0.0) as usize {
        let departs_at = holding(rng, mean_holding);
        match candidates.next() {
            Some(process) => table.admit_process(process, departs_at),
            None => table.admit(model, departs_at, rng),
        };
    }
    m0
}

/// The same admission through the burst path — the table calls
/// `ImpulsiveLoad::run_rep` makes now.
fn burst_admit(
    table: &mut FlowTable,
    model: &dyn SourceModel,
    n: usize,
    m0_of: impl FnOnce(&[f64]) -> f64,
    mean_holding: Option<f64>,
    rng: &mut StdRng,
) -> f64 {
    let burst = table.spawn_burst(model, n, rng);
    let m0 = m0_of(burst.rates());
    let admit = m0.floor().max(0.0) as usize;
    burst.keep(admit, || holding(rng, mean_holding));
    for _ in n..admit {
        let departs_at = holding(rng, mean_holding);
        table.admit(model, departs_at, rng);
    }
    m0
}

fn observe(table: &mut FlowTable, t: f64, rng: &mut StdRng) -> (f64, usize) {
    table.advance_to(t, rng);
    table.depart_until(t);
    (table.aggregate_rate(), table.len())
}

/// Strictly increasing observation times from positive gaps.
fn times(gaps: &[f64]) -> Vec<f64> {
    gaps.iter()
        .scan(0.0, |t, gap| {
            *t += gap;
            Some(*t)
        })
        .collect()
}

proptest! {
    /// Table level: whatever count is admitted, the two tables stay
    /// bit-identical through the observations and leave the RNG in the
    /// same state.
    #[test]
    fn burst_table_matches_boxed_reference(
        seed in 0u64..1_000_000,
        which in 0u8..4,
        batched in 0u8..2,
        n in 2usize..40,
        admit in 0usize..60,
        finite_holding in 0u8..2,
        gaps in collection::vec(0.05f64..30.0, 1..5),
    ) {
        let model = model(which);
        let engine = if batched == 1 { Engine::Batched } else { Engine::Boxed };
        let mean_holding = (finite_holding == 1).then_some(8.0);
        let (mut burst, mut reference) = (engine.table(), engine.table());
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        // `M₀` is dictated, so `M₀ > n` is as common as `M₀ < n`; both
        // sides still have to measure the same candidate rates.
        let mut measured = Vec::new();
        burst_admit(
            &mut burst,
            model.as_ref(),
            n,
            |rates| {
                measured = rates.to_vec();
                admit as f64
            },
            mean_holding,
            &mut rng_a,
        );
        reference_admit(
            &mut reference,
            model.as_ref(),
            n,
            |rates| {
                prop_assert_eq!(rates, &measured[..], "candidate rates");
                admit as f64
            },
            mean_holding,
            &mut rng_b,
        );
        let (mut snap_a, mut snap_b) = (Vec::new(), Vec::new());
        let mut check = |burst: &FlowTable, reference: &FlowTable, at: f64| {
            burst.snapshot_into(&mut snap_a);
            reference.snapshot_into(&mut snap_b);
            prop_assert_eq!(&snap_a, &snap_b, "snapshot at t = {}", at);
            prop_assert_eq!(burst.ids(), reference.ids(), "ids at t = {}", at);
            prop_assert_eq!(burst.next_departure(), reference.next_departure());
            prop_assert_eq!(burst.admitted_total(), reference.admitted_total());
            prop_assert_eq!(burst.departed_total(), reference.departed_total());
        };
        prop_assert_eq!(burst.len(), admit);
        check(&burst, &reference, 0.0);
        for t in times(&gaps) {
            let (load_a, flows_a) = observe(&mut burst, t, &mut rng_a);
            let (load_b, flows_b) = observe(&mut reference, t, &mut rng_b);
            prop_assert_eq!(load_a.to_bits(), load_b.to_bits(), "load at t = {}", t);
            prop_assert_eq!(flows_a, flows_b);
            check(&burst, &reference, t);
        }
        prop_assert_eq!(rng_a, rng_b, "RNG end state");
    }

    /// Scenario level: a one-replication `ImpulsiveLoad` report carries
    /// that replication's `M₀`, loads and flow counts unfolded, so it
    /// must equal the reference sequence run on the same derived stream.
    /// The capacity sweeps `c / (n μ)` across 1, so the policy's `M₀`
    /// lands on both sides of `n`.
    #[test]
    fn impulsive_report_matches_boxed_reference(
        seed in 0u64..1_000_000,
        which in 0u8..4,
        batched in 0u8..2,
        n in 2usize..60,
        fill in 0.5f64..1.6,
        finite_holding in 0u8..2,
        gaps in collection::vec(0.05f64..30.0, 0..4),
    ) {
        let model = model(which);
        let policy = CertaintyEquivalent::from_probability(0.05);
        let engine = if batched == 1 { Engine::Batched } else { Engine::Boxed };
        let cfg = ImpulsiveConfig {
            capacity: fill * n as f64,
            estimation_flows: n,
            mean_holding: (finite_holding == 1).then_some(8.0),
            observe_times: times(&gaps),
            replications: 1,
            seed,
        };
        let report = SessionBuilder::new()
            .engine(engine)
            .run(&ImpulsiveLoad::new(&cfg, model.as_ref(), &policy))
            .unwrap();

        let ctx = RepContext { rep: 0, seed: rep_seed(seed, 0), engine };
        let (mut rng, mut table) = (ctx.rng(), ctx.table());
        let m0 = reference_admit(
            &mut table,
            model.as_ref(),
            n,
            |rates| policy.admissible_count(snapshot_stats(rates).unwrap(), cfg.capacity),
            cfg.mean_holding,
            &mut rng,
        );
        prop_assert_eq!(report.m0.count(), 1);
        // `==` on the report side: a one-sample `RunningStats` mean is
        // the sample, except that it turns an empty table's −0 load
        // into +0.
        prop_assert_eq!(report.m0.mean(), m0, "M0");
        prop_assert_eq!(report.observations.len(), cfg.observe_times.len());
        for (obs, &t) in report.observations.iter().zip(&cfg.observe_times) {
            let (load, flows) = observe(&mut table, t, &mut rng);
            prop_assert_eq!(obs.t, t);
            prop_assert_eq!(obs.load.mean(), load, "load at t = {}", t);
            prop_assert_eq!(obs.mean_flows, flows as f64);
            prop_assert_eq!(obs.overflows, (load > cfg.capacity) as u64);
        }
    }
}
