//! Integration tests for the extension surfaces: §6 baselines, §7
//! aggregate-only measurement and utility metric, the generalized
//! marginals, and the pluggable AdmissionEngine.

use mbac_core::admission::{CertaintyEquivalent, MeasuredSum};
use mbac_core::estimators::{AggregateOnlyEstimator, FilteredEstimator, PriorSmoothedEstimator};
use mbac_core::params::FlowStats;
use mbac_core::utility::{admissible_flows_utility, UtilityFunction};
use mbac_sim::{
    ContinuousConfig, ContinuousLoad, MbacController, MeasuredSumController, SessionBuilder,
    UtilityMeter,
};
use mbac_traffic::marginal::Marginal;
use mbac_traffic::process::SourceModel;
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};

fn cfg(seed: u64) -> ContinuousConfig {
    ContinuousConfig {
        capacity: 100.0,
        mean_holding: 100.0,
        tick: 0.25,
        warmup: 150.0,
        sample_spacing: 20.0,
        target: 1e-2,
        max_samples: 400,
        seed,
    }
}

#[test]
fn measured_sum_engine_runs_and_respects_target_utilization() {
    let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let mut ctl = MeasuredSumController::new(MeasuredSum::new(0.85, 10.0, 1.0, 1.0));
    let rep = SessionBuilder::new()
        .run_local(&ContinuousLoad::new(&cfg(41), &model, &mut ctl))
        .unwrap();
    // The max-based envelope keeps utilization below (and near) u.
    assert!(
        rep.mean_utilization < 0.92,
        "utilization {} should respect u = 0.85 + noise",
        rep.mean_utilization
    );
    assert!(
        rep.mean_utilization > 0.6,
        "but the link is not idle: {}",
        rep.mean_utilization
    );
    assert!(rep.admitted > 0);
}

#[test]
fn measured_sum_lower_target_is_safer() {
    let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let mut aggressive = MeasuredSumController::new(MeasuredSum::new(0.99, 10.0, 1.0, 1.0));
    let mut cautious = MeasuredSumController::new(MeasuredSum::new(0.80, 10.0, 1.0, 1.0));
    let rep_a = SessionBuilder::new()
        .run_local(&ContinuousLoad::new(&cfg(43), &model, &mut aggressive))
        .unwrap();
    let rep_c = SessionBuilder::new()
        .run_local(&ContinuousLoad::new(&cfg(43), &model, &mut cautious))
        .unwrap();
    assert!(
        rep_c.pf.value <= rep_a.pf.value,
        "cautious u: pf {} vs aggressive {}",
        rep_c.pf.value,
        rep_a.pf.value
    );
}

#[test]
fn prior_smoothing_tames_memoryless_fluctuations() {
    let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let truth = FlowStats::from_mean_sd(1.0, 0.3);
    let mut raw = MbacController::new(
        Box::new(mbac_core::estimators::MemorylessEstimator::new()),
        Box::new(CertaintyEquivalent::from_probability(1e-2)),
    );
    let mut smoothed = MbacController::new(
        Box::new(PriorSmoothedEstimator::new(truth, 300.0)),
        Box::new(CertaintyEquivalent::from_probability(1e-2)),
    );
    let rep_raw = SessionBuilder::new()
        .run_local(&ContinuousLoad::new(&cfg(47), &model, &mut raw))
        .unwrap();
    let rep_smooth = SessionBuilder::new()
        .run_local(&ContinuousLoad::new(&cfg(47), &model, &mut smoothed))
        .unwrap();
    assert!(
        rep_smooth.pf.value < rep_raw.pf.value,
        "correct prior should help: {} vs {}",
        rep_smooth.pf.value,
        rep_raw.pf.value
    );
}

#[test]
fn aggregate_only_engine_tracks_per_flow_engine() {
    let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let mut per_flow = MbacController::new(
        Box::new(FilteredEstimator::new(10.0)),
        Box::new(CertaintyEquivalent::from_probability(1e-2)),
    );
    let mut agg_only = MbacController::new(
        Box::new(AggregateOnlyEstimator::new(10.0)),
        Box::new(CertaintyEquivalent::from_probability(1e-2)),
    );
    let rep_pf = SessionBuilder::new()
        .run_local(&ContinuousLoad::new(&cfg(53), &model, &mut per_flow))
        .unwrap();
    let rep_ag = SessionBuilder::new()
        .run_local(&ContinuousLoad::new(&cfg(53), &model, &mut agg_only))
        .unwrap();
    // Mean estimation is identical in expectation, so the carried load
    // must be close; §7 only predicts degraded *variance* accuracy.
    assert!(
        (rep_ag.mean_flows - rep_pf.mean_flows).abs() < 0.05 * rep_pf.mean_flows,
        "aggregate {} vs per-flow {} flows",
        rep_ag.mean_flows,
        rep_pf.mean_flows
    );
}

#[test]
fn general_marginals_preserve_the_gaussian_framework() {
    // Same (μ, σ, T_c), three shapes: the continuous-load simulator
    // should produce comparable overflow for all of them (CLT at
    // n = 100 flows).
    let shapes = [
        Marginal::Gaussian { mean: 1.0, sd: 0.3 },
        Marginal::uniform_with_moments(1.0, 0.3),
        Marginal::two_point_with_moments(1.0, 0.3),
    ];
    let mut pfs = Vec::new();
    for (i, &m) in shapes.iter().enumerate() {
        let model = RcbrModel::with_marginal(m, 1.0);
        assert!((model.mean() - 1.0).abs() < 1e-12);
        assert!((model.variance() - 0.09).abs() < 1e-12);
        let mut ctl = MbacController::new(
            Box::new(FilteredEstimator::new(5.0)),
            Box::new(CertaintyEquivalent::from_probability(2e-2)),
        );
        let rep = SessionBuilder::new()
            .run_local(&ContinuousLoad::new(&cfg(59 + i as u64), &model, &mut ctl))
            .unwrap();
        pfs.push(rep.pf.value.max(1e-4));
    }
    let (lo, hi) = (
        pfs.iter().cloned().fold(f64::INFINITY, f64::min),
        pfs.iter().cloned().fold(0.0, f64::max),
    );
    assert!(
        hi / lo < 30.0,
        "marginal shape should be second-order: pfs {pfs:?}"
    );
}

#[test]
fn utility_sizing_orders_by_adaptivity() {
    let flow = FlowStats::from_mean_sd(1.0, 0.3);
    let eps = 1e-2;
    let m_hard = admissible_flows_utility(flow, 200.0, eps, UtilityFunction::Hard);
    let m_adaptive = admissible_flows_utility(
        flow,
        200.0,
        eps,
        UtilityFunction::Adaptive { min_share: 0.8 },
    );
    let m_elastic =
        admissible_flows_utility(flow, 200.0, eps, UtilityFunction::Elastic { exponent: 0.5 });
    assert!(
        m_hard < m_adaptive && m_adaptive < m_elastic,
        "ordering: {m_hard} < {m_adaptive} < {m_elastic}"
    );
}

#[test]
fn utility_meter_agrees_with_static_formula() {
    // Gaussian aggregate synthesized directly; meter vs closed
    // integration must agree.
    use mbac_core::utility::expected_utility_loss;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let (mean, sd, cap) = (95.0, 5.0, 100.0);
    let u = UtilityFunction::Elastic { exponent: 0.5 };
    let mut meter = UtilityMeter::new(cap, u);
    let mut rng = StdRng::seed_from_u64(61);
    for _ in 0..200_000 {
        meter.record(mbac_num::rng::normal(&mut rng, mean, sd));
    }
    let theory = expected_utility_loss(mean, sd, cap, u);
    assert!(
        (meter.mean_loss() / theory - 1.0).abs() < 0.05,
        "meter {} vs theory {theory}",
        meter.mean_loss()
    );
}
