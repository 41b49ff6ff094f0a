//! Statistical regression harness: measured overflow probabilities vs
//! the paper's closed-form predictions, with binomial confidence bands.
//!
//! Three scenarios anchor the suite — one per analytical regime:
//!
//! * **Prop. 3.3** (impulsive, infinite holding): the memoryless
//!   certainty-equivalent MBAC realizes `p_f ≈ Q(α_q/√2)`, the √2
//!   penalty.
//! * **Eqn (21)** (impulsive, finite holding): the full overflow-vs-time
//!   curve `p_f(t) = Q([(μ/σ)t/T̃_h + α_q]/√(2(1−ρ(t))))`.
//! * **Eqn (38)** (continuous load, filtered estimator): the separated
//!   closed form bounds the realized `p_f` from above, within a
//!   documented conservatism factor.
//!
//! Every assertion is a *theory-derived binomial CI*: with `N` trials at
//! true probability `p`, the measured proportion lies within
//! `±z·√(p(1−p)/N)` of `p` at the CI's confidence level. Each check
//! inflates that half-width by a documented factor covering the model
//! error the paper itself acknowledges (the theory is a Gaussian
//! `n → ∞` limit; at `n = 400` the discreteness and truncation biases
//! are visible). The inflation factors were calibrated against the
//! full-budget runs in `results/` (`prop33.csv`, `finite_holding.csv`,
//! `fig5.csv`) — tightening them below those biases would make the test
//! assert noise, not regressions.
//!
//! The suite also pins the determinism contract of the telemetry layer:
//! a model on its batched kernel and the same model unbatched must
//! produce **identical** merged metric snapshots for the same seed, at
//! any worker count.
//!
//! Heavier, tighter-band variants of each scenario are `#[ignore]`d and
//! run by the nightly CI job (`cargo test --release -- --ignored`).

use mbac::core::admission::CertaintyEquivalent;
use mbac::core::estimators::FilteredEstimator;
use mbac::core::params::{FlowStats, QosTarget};
use mbac::core::theory::continuous::ContinuousModel;
use mbac::core::theory::finite_holding::pf_at_time;
use mbac::num::ci::{wilson_ci, z_critical};
use mbac::num::{inv_q, q};
use mbac::sim::{
    ContinuousConfig, ContinuousLoad, ImpulsiveConfig, ImpulsiveLoad, MbacController, MetricsMode,
    SessionBuilder,
};
use mbac::traffic::process::{SourceModel, Unbatched};
use mbac::traffic::rcbr::{RcbrConfig, RcbrModel};

/// Asserts the measured proportion sits inside the binomial CI implied
/// by the theoretical probability, with the half-width inflated by
/// `inflate` (model-error allowance, documented per call site) plus one
/// trial of resolution.
fn assert_within_theory_ci(name: &str, p_theory: f64, overflows: u64, trials: u64, inflate: f64) {
    assert!(trials > 0);
    let n = trials as f64;
    let measured = overflows as f64 / n;
    let half = inflate * z_critical(0.95) * (p_theory * (1.0 - p_theory) / n).sqrt() + 1.0 / n;
    assert!(
        (measured - p_theory).abs() <= half,
        "{name}: measured p_f = {measured:.5} ({overflows}/{trials}) outside \
         theory-derived CI {p_theory:.5} ± {half:.5}"
    );
}

fn rcbr() -> RcbrModel {
    RcbrModel::new(RcbrConfig::paper_default(1.0))
}

// ---------------------------------------------------------------------
// Scenario 1 — Prop. 3.3: the √2 penalty of certainty equivalence.
// ---------------------------------------------------------------------

fn prop33_check(replications: usize, inflate: f64) {
    let p_q = 0.02;
    let cfg = ImpulsiveConfig {
        capacity: 400.0,
        estimation_flows: 400,
        mean_holding: None,
        observe_times: vec![50.0], // ≫ T_c: the measurement has decorrelated
        replications,
        seed: 0x5CA7E57,
    };
    let ce = CertaintyEquivalent::from_probability(p_q);
    let model = rcbr();
    let rep = SessionBuilder::new()
        .workers(4)
        .run(&ImpulsiveLoad::new(&cfg, &model, &ce))
        .unwrap();
    let predicted = q(inv_q(p_q) / std::f64::consts::SQRT_2);
    let overflows = rep.observations[0].overflows;
    // Sanity first: the penalty itself must be visible — p_f well above
    // the nominal target — before we test its magnitude.
    assert!(
        overflows as f64 / replications as f64 > 1.5 * p_q,
        "√2 penalty invisible: {overflows}/{replications} vs target {p_q}"
    );
    assert_within_theory_ci("prop33", predicted, overflows, replications as u64, inflate);
}

/// Inflation ×4: at `n = 400` the finite-n bias pulls the simulated
/// value ~20–30% below the Gaussian-limit prediction (see
/// `results/prop33.csv`), several binomial half-widths at this budget.
#[test]
fn prop33_sqrt2_penalty_within_binomial_ci() {
    prop33_check(3000, 4.0);
}

/// Nightly variant: 6× the replications, same inflation — the band
/// tightens with √N, so this run would catch a regression half the size.
#[test]
#[ignore = "heavy statistical run for the nightly job"]
fn prop33_sqrt2_penalty_heavy() {
    prop33_check(20_000, 4.0);
}

// ---------------------------------------------------------------------
// Scenario 2 — eqn (21): overflow dynamics with finite holding times.
// ---------------------------------------------------------------------

fn eqn21_check(replications: usize, times: &[f64], inflate: f64) {
    // n = 400, T_c = 1, T_h = 200 ⇒ T̃_h = 10 — the setup of
    // the `finite_holding` experiment, where the full-budget run shows theory and
    // simulation agreeing to well under one binomial half-width at this
    // budget (see results/finite_holding.csv).
    let n = 400usize;
    let t_c = 1.0;
    let t_h = 200.0;
    let t_h_tilde = t_h / (n as f64).sqrt();
    let p = 0.01;
    let flow = FlowStats::from_mean_sd(1.0, 0.3);
    let qos = QosTarget::new(p);
    let rho = |t: f64| (-t / t_c).exp();

    let cfg = ImpulsiveConfig {
        capacity: n as f64,
        estimation_flows: n,
        mean_holding: Some(t_h),
        observe_times: times.to_vec(),
        replications,
        seed: 0xE21CA1,
    };
    let ce = CertaintyEquivalent::new(qos);
    let model = rcbr();
    let rep = SessionBuilder::new()
        .workers(4)
        .run(&ImpulsiveLoad::new(&cfg, &model, &ce))
        .unwrap();
    for (i, &t) in times.iter().enumerate() {
        let pf_th = pf_at_time(t, flow, qos, t_h_tilde, rho);
        assert_within_theory_ci(
            &format!("eqn21 t={t}"),
            pf_th,
            rep.observations[i].overflows,
            replications as u64,
            inflate,
        );
    }
}

/// The observation times bracket the correlation/repair crossover where
/// `p_f(t)` peaks (the quantitative content of the paper's Fig. 2);
/// smaller times have `p_f` below this budget's resolution.
/// Inflation ×2.5 covers the truncated-Gaussian model error visible in
/// the full-budget run.
#[test]
fn eqn21_finite_holding_curve_within_binomial_cis() {
    eqn21_check(6000, &[0.5, 1.0, 2.0, 4.0], 2.5);
}

/// Nightly variant: the whole curve including the deep tails on both
/// sides of the peak, at 40k replications. The t = 8 decay tail needs
/// the wider ×6 allowance: repeated 40k-rep runs on independent seed
/// streams measure p_f(8) ≈ 7e-4 against the eqn (21) prediction of
/// 2.1e-4, a ~3× truncated-Gaussian model error that the tighter band
/// only cleared by seed luck before the per-replication streams moved
/// to the SplitMix64 derivation.
#[test]
#[ignore = "heavy statistical run for the nightly job"]
fn eqn21_finite_holding_curve_heavy() {
    eqn21_check(40_000, &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0], 6.0);
}

// ---------------------------------------------------------------------
// Scenario 3 — eqn (38): continuous load with a filtered estimator.
// ---------------------------------------------------------------------

fn eqn38_check(n: f64, t_h: f64, p_ce: f64, max_samples: u64, seed: u64, conservatism: f64) {
    // Run at the robust design point T_m = T̃_h, where eqn (38) and the
    // eqn (37) integral agree and the paper's window rule operates.
    let t_c = 1.0;
    let t_h_tilde = t_h / n.sqrt();
    let t_m = t_h_tilde;
    let model = rcbr();
    let mut ctl = MbacController::new(
        Box::new(FilteredEstimator::new(t_m)),
        Box::new(CertaintyEquivalent::from_probability(p_ce)),
    );
    let cfg = ContinuousConfig {
        capacity: n,
        mean_holding: t_h,
        tick: 0.25,
        warmup: 10.0 * t_h_tilde,
        sample_spacing: ContinuousConfig::paper_spacing(t_h_tilde, t_m, t_c),
        target: p_ce,
        max_samples,
        seed,
    };
    let rep = SessionBuilder::new()
        .run_local(&ContinuousLoad::new(&cfg, &model, &mut ctl))
        .unwrap();

    let pf_38 = ContinuousModel::new(0.3, t_h_tilde, t_c)
        .pf_with_memory_separated(QosTarget::new(p_ce).alpha(), t_m);
    let ci = wilson_ci(rep.pf.overflows, rep.pf.samples, 0.95);
    // Eqn (38) is explicitly conservative (it drops the flow-count
    // discreteness that works in the system's favor — §5.2 discusses
    // the offset; results/fig5.csv shows ~2–6× at the design point).
    // The theory-derived band is therefore one-sided-plus-floor:
    //   (a) the prediction must not be *anti*-conservative — it sits at
    //       or above the lower edge of the measurement's binomial CI;
    //   (b) the conservatism is bounded — the prediction stays within
    //       `conservatism`× the upper edge of that CI.
    assert!(
        pf_38 >= ci.lo,
        "eqn38 anti-conservative: prediction {pf_38:.5} below measured CI \
         [{:.5}, {:.5}] ({}/{} overflows)",
        ci.lo,
        ci.hi,
        rep.pf.overflows,
        rep.pf.samples
    );
    assert!(
        pf_38 <= conservatism * ci.hi,
        "eqn38 conservatism blown: prediction {pf_38:.5} more than \
         {conservatism}× the measured CI hi {:.5} ({}/{} overflows)",
        ci.hi,
        rep.pf.overflows,
        rep.pf.samples
    );
}

/// A small system (`n = 100`, `T̃_h = 10`) with a large target so the
/// overflow event is cheap to resolve; conservatism bound ×8 calibrated
/// against the fig-5 full-budget run.
#[test]
fn eqn38_continuous_design_point_within_conservative_band() {
    eqn38_check(100.0, 100.0, 0.05, 1200, 0x38E9, 8.0);
}

/// Nightly variant: the fig-5 system itself (`n = 1000`, `T̃_h = 31.6`,
/// `p_ce = 1e-3`) at a 3000-sample budget — the committed
/// `results/fig5.csv` design-point row sits at ~4× conservatism.
#[test]
#[ignore = "heavy statistical run for the nightly job"]
fn eqn38_continuous_design_point_heavy() {
    eqn38_check(1000.0, 1000.0, 1e-3, 3000, 0x38EA, 10.0);
}

// ---------------------------------------------------------------------
// Determinism contract of the telemetry layer.
// ---------------------------------------------------------------------

fn continuous_cfg(seed: u64) -> ContinuousConfig {
    ContinuousConfig {
        capacity: 60.0,
        mean_holding: 30.0,
        tick: 0.25,
        warmup: 20.0,
        sample_spacing: 8.0,
        target: 1e-2,
        max_samples: 150,
        seed,
    }
}

fn controller() -> MbacController {
    MbacController::new(
        Box::new(FilteredEstimator::new(5.0)),
        Box::new(CertaintyEquivalent::from_probability(1e-2)),
    )
}

#[test]
fn engines_produce_identical_merged_metric_snapshots() {
    let model = rcbr();
    let run_on = |model: &dyn SourceModel| {
        let mut ctl = controller();
        SessionBuilder::new()
            .metrics(MetricsMode::Enabled)
            .run_local_metered(&ContinuousLoad::new(&continuous_cfg(71), model, &mut ctl))
            .unwrap()
    };
    let (a, snap_a) = run_on(&model);
    let (b, snap_b) = run_on(&Unbatched(&model));
    assert_eq!(a.pf.value, b.pf.value);
    assert!(!snap_a.is_empty());
    assert_eq!(snap_a, snap_b, "batched vs boxed telemetry diverged");
    // The JSON serialization is part of the contract too.
    assert_eq!(snap_a.to_json(), snap_b.to_json());
    // And the meter state exported under sim.pf.* matches the report.
    let json = snap_a.to_json();
    assert!(json.contains("\"sim.pf.samples\""));
    assert!(json.contains("\"sim.pf.overflows\""));
    assert!(json.contains("\"schema\": \"mbac-metrics/v1\""));
}

#[test]
fn impulsive_merged_snapshot_identical_for_any_worker_count() {
    let cfg = ImpulsiveConfig {
        capacity: 60.0,
        estimation_flows: 60,
        mean_holding: Some(20.0),
        observe_times: vec![1.0, 5.0, 25.0],
        replications: 64,
        seed: 0xBEE,
    };
    let ce = CertaintyEquivalent::from_probability(0.05);
    let model = rcbr();
    let scenario = ImpulsiveLoad::new(&cfg, &model, &ce);
    let run_with = |workers: usize| {
        SessionBuilder::new()
            .workers(workers)
            .metrics(MetricsMode::Enabled)
            .run_metered(&scenario)
            .unwrap()
    };
    let (reference_rep, reference_snap) = run_with(1);
    assert!(!reference_snap.is_empty());
    for workers in [2, 3, 4, 8] {
        let (rep, snap) = run_with(workers);
        assert_eq!(rep.m0.mean(), reference_rep.m0.mean());
        assert_eq!(
            snap, reference_snap,
            "telemetry diverged at {workers} workers"
        );
        assert_eq!(snap.to_json(), reference_snap.to_json());
    }
    // Structural consistency of the merged bundle: one tick per
    // (replication × observation time), departures bounded by
    // admissions.
    let json = reference_snap.to_json();
    let expect_ticks = format!(
        "\"sim.ticks\": {{\"type\": \"counter\", \"count\": {}}}",
        64 * 3
    );
    assert!(json.contains(&expect_ticks), "{json}");
}

#[test]
fn disabled_sink_yields_empty_snapshot_and_same_results() {
    let model = rcbr();
    let run_with = |mode: MetricsMode| {
        let mut ctl = controller();
        SessionBuilder::new()
            .metrics(mode)
            .run_local_metered(&ContinuousLoad::new(&continuous_cfg(97), &model, &mut ctl))
            .unwrap()
    };
    let (a, snap_off) = run_with(MetricsMode::Disabled);
    let (b, snap_on) = run_with(MetricsMode::Enabled);
    assert!(snap_off.is_empty());
    assert!(!snap_on.is_empty());
    // Metering must never perturb the science.
    assert_eq!(a.pf.value, b.pf.value);
    assert_eq!(a.admitted, b.admitted);
    assert_eq!(a.mean_utilization, b.mean_utilization);
}

/// Bench guard for the zero-cost claim: the disabled-sink path must not
/// silently grow instrumentation work. Wall-clock is noisy in CI, so
/// the bound is deliberately loose (the real measurement is
/// `benchmark/`'s `probe.stream_over_disabled`); what this catches is a
/// record site accidentally doing histogram work in disabled mode,
/// which shows up as a ≥2× swing on this workload.
#[test]
#[ignore = "timing-sensitive; nightly job runs it in --release"]
fn bench_guard_disabled_sink_not_slower_than_enabled() {
    let model = rcbr();
    let cfg = ContinuousConfig {
        max_samples: 600,
        ..continuous_cfg(123)
    };
    let time_run = |enabled: bool| {
        let mode = if enabled {
            MetricsMode::Enabled
        } else {
            MetricsMode::Disabled
        };
        let started = std::time::Instant::now();
        for _ in 0..3 {
            let mut ctl = controller();
            SessionBuilder::new()
                .metrics(mode)
                .run_local(&ContinuousLoad::new(&cfg, &model, &mut ctl))
                .unwrap();
        }
        started.elapsed().as_secs_f64()
    };
    time_run(false); // warm caches
    let disabled = time_run(false);
    let enabled = time_run(true);
    assert!(
        disabled <= enabled * 1.5 + 0.05,
        "disabled-sink run ({disabled:.3}s) should not be slower than the \
         instrumented run ({enabled:.3}s): the zero-cost mode has regressed"
    );
}
