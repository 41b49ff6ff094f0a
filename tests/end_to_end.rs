//! Cross-crate integration tests: theory (mbac-core) vs. simulation
//! (mbac-sim) on traffic from mbac-traffic, end to end.
//!
//! Sized for debug-mode CI: small systems, generous tolerances. The
//! statistically sharp versions of these comparisons live in the
//! `mbac-experiments` runner's table.

use mbac_core::admission::{AdmissionPolicy, CertaintyEquivalent, PerfectKnowledge};
use mbac_core::estimators::{Estimate, FilteredEstimator, MemorylessEstimator};
use mbac_core::params::{FlowStats, QosTarget};
use mbac_core::theory::impulsive;
use mbac_sim::{
    ContinuousConfig, ContinuousLoad, ImpulsiveConfig, ImpulsiveLoad, MbacController,
    SessionBuilder,
};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};

fn rcbr(t_c: f64) -> RcbrModel {
    RcbrModel::new(RcbrConfig::paper_default(t_c))
}

#[test]
fn prop33_sqrt2_penalty_end_to_end() {
    // The paper's headline: impulsive-load CE-MBAC realizes
    // Q(α_q/√2), not p_q. Direct Monte Carlo with n = 200.
    let p_q = 0.02;
    let ce = CertaintyEquivalent::from_probability(p_q);
    let cfg = ImpulsiveConfig {
        capacity: 200.0,
        estimation_flows: 200,
        mean_holding: None,
        observe_times: vec![30.0],
        replications: 2500,
        seed: 101,
    };
    let rep = SessionBuilder::new()
        .run(&ImpulsiveLoad::new(&cfg, &rcbr(1.0), &ce))
        .unwrap();
    let pf = rep.pf_at(0);
    let predicted = impulsive::pf_certainty_equivalent(p_q);
    assert!(
        (pf - predicted).abs() < 0.025,
        "pf {pf} should be near the √2 prediction {predicted}, not the target {p_q}"
    );
    assert!(pf > 1.5 * p_q, "penalty must be visible");
}

#[test]
fn eqn15_adjustment_restores_target_end_to_end() {
    let p_q = 0.02;
    let adjusted = CertaintyEquivalent::from_probability(impulsive::pce_for_target(p_q));
    let cfg = ImpulsiveConfig {
        capacity: 200.0,
        estimation_flows: 200,
        mean_holding: None,
        observe_times: vec![30.0],
        replications: 2500,
        seed: 103,
    };
    let rep = SessionBuilder::new()
        .run(&ImpulsiveLoad::new(&cfg, &rcbr(1.0), &adjusted))
        .unwrap();
    let pf = rep.pf_at(0);
    assert!(
        (pf - p_q).abs() < 0.012,
        "adjusted target should restore pf ≈ {p_q}, got {pf}"
    );
}

#[test]
fn perfect_knowledge_is_the_gold_standard() {
    let p_q = 0.05;
    let flow = FlowStats::from_mean_sd(1.0, 0.3);
    let pk = PerfectKnowledge::new(flow, QosTarget::new(p_q));
    let ce = CertaintyEquivalent::from_probability(p_q);
    let cfg = ImpulsiveConfig {
        capacity: 200.0,
        estimation_flows: 200,
        mean_holding: None,
        observe_times: vec![30.0],
        replications: 2000,
        seed: 107,
    };
    let pf_pk = SessionBuilder::new()
        .run(&ImpulsiveLoad::new(&cfg, &rcbr(1.0), &pk))
        .unwrap()
        .pf_at(0);
    let pf_ce = SessionBuilder::new()
        .run(&ImpulsiveLoad::new(&cfg, &rcbr(1.0), &ce))
        .unwrap()
        .pf_at(0);
    assert!(
        (pf_pk - p_q).abs() < 0.02,
        "perfect knowledge holds the target: {pf_pk}"
    );
    assert!(pf_ce > pf_pk, "measurement uncertainty must cost something");
}

#[test]
fn m0_fluctuation_law_prop31() {
    // Prop 3.1: (M₀ − n)/√n → N(−(σ/μ)α_q, (σ/μ)²).
    let n = 400.0;
    let p_q = 1e-2;
    let ce = CertaintyEquivalent::from_probability(p_q);
    let cfg = ImpulsiveConfig {
        capacity: n,
        estimation_flows: 400,
        mean_holding: None,
        observe_times: vec![],
        replications: 3000,
        seed: 109,
    };
    let rep = SessionBuilder::new()
        .run(&ImpulsiveLoad::new(&cfg, &rcbr(1.0), &ce))
        .unwrap();
    let (want_mean, want_sd) =
        impulsive::m0_distribution(n, FlowStats::from_mean_sd(1.0, 0.3), QosTarget::new(p_q));
    assert!(
        (rep.m0.mean() - want_mean).abs() < 2.0,
        "M0 mean {} vs predicted {want_mean}",
        rep.m0.mean()
    );
    assert!(
        (rep.m0.std_dev() - want_sd).abs() < 0.8,
        "M0 sd {} vs predicted {want_sd}",
        rep.m0.std_dev()
    );
}

#[test]
fn continuous_load_memory_beats_memoryless() {
    // §4.3 end to end at debug-friendly scale.
    let run = |t_m: f64| {
        let mut ctl = MbacController::new(
            Box::new(FilteredEstimator::new(t_m)),
            Box::new(CertaintyEquivalent::from_probability(2e-2)),
        );
        let cfg = ContinuousConfig {
            capacity: 100.0,
            mean_holding: 100.0,
            tick: 0.25,
            warmup: 200.0,
            sample_spacing: 20.0,
            target: 2e-2,
            max_samples: 600,
            seed: 113,
        };
        SessionBuilder::new()
            .run_local(&ContinuousLoad::new(&cfg, &rcbr(1.0), &mut ctl))
            .unwrap()
    };
    let memoryless = run(0.0);
    let robust = run(10.0); // T̃_h = 100/√100 = 10
    assert!(
        robust.pf.value < memoryless.pf.value,
        "memory must help: {} vs {}",
        robust.pf.value,
        memoryless.pf.value
    );
    // Both keep the link busy — memory must not destroy utilization.
    assert!(robust.mean_utilization > 0.85);
}

#[test]
fn theory_formula_tracks_simulation_shape() {
    // Fig. 5 in miniature: simulated pf decreases with T_m, and the
    // eqn (37) curve stays on the conservative side at every point.
    let n = 100.0f64;
    let t_h = 100.0;
    let t_c = 1.0;
    let p_ce = 2e-2;
    let theory = mbac_core::theory::continuous::ContinuousModel::new(0.3, t_h / n.sqrt(), t_c);
    let alpha = QosTarget::new(p_ce).alpha();
    let mut last_sim = f64::INFINITY;
    for &t_m in &[0.0, 2.0, 10.0] {
        let mut ctl = MbacController::new(
            Box::new(FilteredEstimator::new(t_m)),
            Box::new(CertaintyEquivalent::from_probability(p_ce)),
        );
        let cfg = ContinuousConfig {
            capacity: n,
            mean_holding: t_h,
            tick: 0.25,
            warmup: 150.0,
            sample_spacing: 20.0,
            target: p_ce,
            max_samples: 800,
            seed: 127 + t_m as u64,
        };
        let rep = SessionBuilder::new()
            .run_local(&ContinuousLoad::new(&cfg, &rcbr(t_c), &mut ctl))
            .unwrap();
        let th = theory.pf_with_memory(alpha, t_m);
        assert!(
            rep.pf.value <= th * 2.0,
            "T_m={t_m}: sim {} should not exceed conservative theory {th} by 2x",
            rep.pf.value
        );
        assert!(
            rep.pf.value <= last_sim * 1.5,
            "T_m={t_m}: pf should broadly decrease with memory"
        );
        last_sim = rep.pf.value.max(1e-6);
    }
}

#[test]
fn admission_policies_agree_on_perfect_estimates() {
    // When the CE controller happens to measure the truth, it admits
    // exactly what the perfect-knowledge controller admits.
    let flow = FlowStats::from_mean_sd(1.0, 0.3);
    let qos = QosTarget::new(1e-3);
    let pk = PerfectKnowledge::new(flow, qos);
    let ce = CertaintyEquivalent::new(qos);
    let truth = Estimate::from(flow);
    for &c in &[50.0, 100.0, 1000.0] {
        let a = pk.admissible_count(truth, c);
        let b = ce.admissible_count(truth, c);
        assert!((a - b).abs() < 1e-9, "capacity {c}: {a} vs {b}");
    }
}

#[test]
fn memoryless_estimator_equals_filtered_with_zero_memory() {
    use mbac_core::estimators::Estimator;
    let mut a = MemorylessEstimator::new();
    let mut b = FilteredEstimator::new(0.0);
    let snaps: [&[f64]; 3] = [&[1.0, 2.0], &[0.5, 1.5, 2.5], &[3.0, 3.0]];
    for (k, snap) in snaps.iter().enumerate() {
        a.observe(k as f64, snap);
        b.observe(k as f64, snap);
        let ea = a.estimate().unwrap();
        let eb = b.estimate().unwrap();
        assert!((ea.mean - eb.mean).abs() < 1e-12);
        assert!((ea.variance - eb.variance).abs() < 1e-12);
    }
}
