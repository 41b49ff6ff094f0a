//! The experiments with no golden-pinned table: the paper's impulsive
//! and finite-holding results (Prop. 3.3, eqn (21)), its utilization
//! cost (eqn (40)), §5.4's heterogeneous flows, §6's baselines and the
//! extensions of §2 and §7. Each function is one [`crate::runner`]
//! entry's computation, at the budget it is given.

use crate::runner::{pf_methods, Outcome};
use crate::{paper, parallel_map, Budget, Table};
use mbac_core::admission::{
    gaussian_admissible_count, AdmissionPolicy, AggregateGaussian, CertaintyEquivalent,
    MeasuredSum, PerfectKnowledge,
};
use mbac_core::estimators::heterogeneous::{
    naive_variance_bias, AggregateEstimate, ClassifiedEstimator,
};
use mbac_core::estimators::{
    snapshot_stats, AggregateOnlyEstimator, Estimate, Estimator, FilteredEstimator,
    MemorylessEstimator, PriorSmoothedEstimator, WindowEstimator,
};
use mbac_core::params::{FlowStats, QosTarget};
use mbac_core::theory::continuous::ContinuousModel;
use mbac_core::theory::finite_holding::pf_at_time;
use mbac_core::theory::impulsive;
use mbac_core::theory::invert::{invert_pce, InvertMethod};
use mbac_core::theory::utilization::{mean_utilization, utilization_loss};
use mbac_core::utility::{admissible_flows_utility, expected_utility_loss, UtilityFunction};
use mbac_num::RunningStats;
use mbac_sim::{
    AdmissionEngine, ContinuousConfig, ContinuousLoad, ContinuousReport, ImpulsiveConfig,
    ImpulsiveLoad, MbacController, MeasuredSumController, PhasedLoad, SessionBuilder, UtilityMeter,
};
use mbac_traffic::marginal::Marginal;
use mbac_traffic::process::{RateProcess, SourceModel};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scenarios::ContinuousScenario;

/// The eqn (38)-inverted target that makes `T_m = T̃_h` meet `p_q`.
fn robust_pce(cov: f64, t_h_tilde: f64, t_c: f64, p_q: f64) -> f64 {
    let theory = ContinuousModel::new(cov, t_h_tilde, t_c);
    invert_pce(&theory, t_h_tilde, p_q, InvertMethod::Separated)
        .map(|a| a.p_ce)
        .unwrap_or(p_q)
        .max(1e-300)
}

/// RCBR flows of `mean` and `std_dev` at `T_c = 1`, truncated at zero.
fn rcbr(mean: f64, std_dev: f64) -> RcbrModel {
    RcbrModel::new(RcbrConfig {
        mean,
        std_dev,
        t_c: 1.0,
        truncate_at_zero: true,
    })
}

/// A continuous-load run of RCBR sources at `T_c = 1` on `n = 400`,
/// `T_h = 1000` (`T̃_h = 50`), sampled for `T_m` against a target of
/// `1e-2`, under `engine`.
fn run_n400(
    engine: &mut dyn AdmissionEngine,
    t_m: f64,
    max_samples: u64,
    seed: u64,
) -> ContinuousReport {
    let t_h_tilde = 50.0;
    let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let cfg = ContinuousConfig {
        capacity: 400.0,
        mean_holding: 1000.0,
        tick: 0.25,
        warmup: 12.0 * f64::max(t_h_tilde, t_m),
        sample_spacing: ContinuousConfig::paper_spacing(t_h_tilde, t_m, 1.0),
        target: 1e-2,
        max_samples,
        seed,
    };
    SessionBuilder::new()
        .run_local(&ContinuousLoad::new(&cfg, &model, engine))
        .expect("valid continuous config")
}

/// Prop. 3.3: the memoryless CE controller's `p_f` against the √2
/// prediction, over sizes and marginals, with eqn (15)'s fix and the
/// perfect-knowledge baseline.
pub(crate) fn prop33(b: &Budget) -> Outcome {
    let reps = b.pick(60_000, 4_000) as usize;
    let p_q = 0.01;
    // One RCBR model with the marginal swapped at the same (μ, σ, T_c),
    // three sizes, and the adjusted-target rows; the on–off flow's
    // two-point marginal is not at σ/μ = 0.3, and need not be.
    let gaussian = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let shape = |marginal| RcbrModel::with_marginal(marginal, 1.0);
    let uniform = shape(Marginal::uniform_with_moments(1.0, 0.3));
    let two_point = shape(Marginal::two_point_with_moments(1.0, 0.3));
    let lognormal = shape(Marginal::lognormal_with_moments(1.0, 0.3));
    let on_off = RcbrModel::on_off(2.0, 3.0, 1.0);
    let cases = vec![
        ("rcbr-gaussian", 100, gaussian, false),
        ("rcbr-gaussian", 400, gaussian, false),
        ("rcbr-gaussian", 1600, gaussian, false),
        ("rcbr-uniform", 400, uniform, false),
        ("rcbr-two-point", 400, two_point, false),
        ("rcbr-lognormal", 400, lognormal, false),
        ("onoff-two-point", 400, on_off, false),
        ("rcbr-gaussian", 400, gaussian, true),
        ("onoff-two-point", 400, on_off, true),
    ];
    let rows = parallel_map(cases, |&(label, n, model, adjusted)| {
        let flow = FlowStats::new(model.mean(), model.variance());
        let target = match adjusted {
            true => QosTarget::new(impulsive::pce_for_target(p_q)),
            false => QosTarget::new(p_q),
        };
        let cfg = ImpulsiveConfig {
            capacity: n as f64 * flow.mean,
            estimation_flows: n,
            mean_holding: None,
            observe_times: vec![50.0], // ≫ T_c: steady state
            replications: reps,
            seed: 0xA110C + n as u64 + adjusted as u64,
        };
        let run = |policy: &dyn AdmissionPolicy| {
            SessionBuilder::new()
                .run(&ImpulsiveLoad::new(&cfg, &model, policy))
                .expect("valid prop33 config")
        };
        let ce = run(&CertaintyEquivalent::new(target));
        let pk = run(&PerfectKnowledge::new(flow, QosTarget::new(p_q)));
        // Prop. 3.1: the sd of M₀ is (σ/μ)√n.
        let m0_sd_pred = flow.cov() * (n as f64).sqrt();
        (
            label,
            n,
            adjusted,
            ce.pf_at(0),
            pk.pf_at(0),
            ce.m0.std_dev(),
            m0_sd_pred,
        )
    });
    let mut table = Table::labelled(
        "distribution",
        vec![
            "n",
            "adjusted",
            "pf_ce_sim",
            "pf_ce_theory",
            "pf_pk_sim",
            "pf_target",
            "m0_sd_sim",
            "m0_sd_theory",
        ],
    );
    for (label, n, adjusted, pf_ce, pf_pk, m0_sd, m0_sd_pred) in rows {
        // The adjusted target should restore pf = p_q.
        let theory = match adjusted {
            true => p_q,
            false => impulsive::pf_certainty_equivalent(p_q),
        };
        let row = vec![n as f64, adjusted as u8 as f64, pf_ce, theory, pf_pk];
        table.push_labelled(label, [row, vec![p_q, m0_sd, m0_sd_pred]].concat());
    }
    let note = format!(
        "Prop. 3.3 predicts p_f = Q(a_q/sqrt2) = {:.4} at p_q = {p_q}; eqn (15)'s p_ce = {:.3e}",
        impulsive::pf_certainty_equivalent(p_q),
        impulsive::pce_for_target(p_q),
    );
    Outcome::new(vec![("prop33", table)], vec![note])
}

/// eqn (21): `p_f(t)` after an impulsive admission with exponential
/// holding times, theory against simulation.
pub(crate) fn finite_holding(b: &Budget) -> Outcome {
    // n = 400, T_c = 1, T_h = 200 ⇒ T̃_h = 10; p_ce = p_q = 0.01 (large
    // enough to resolve the peak by direct simulation).
    let (n, t_c, t_h, p) = (400usize, 1.0, 200.0, 0.01);
    let t_h_tilde = t_h / (n as f64).sqrt();
    let flow = FlowStats::from_mean_sd(1.0, 0.3);
    let qos = QosTarget::new(p);
    let times = vec![0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
    let model = RcbrModel::new(RcbrConfig::paper_default(t_c));
    let cfg = ImpulsiveConfig {
        capacity: n as f64,
        estimation_flows: n,
        mean_holding: Some(t_h),
        observe_times: times.clone(),
        replications: b.pick(120_000, 5_000) as usize,
        seed: 0xF1217E,
    };
    let rep = SessionBuilder::new()
        .run(&ImpulsiveLoad::new(
            &cfg,
            &model,
            &CertaintyEquivalent::new(qos),
        ))
        .expect("valid finite-holding config");
    let mut table = Table::new(vec!["t", "pf_theory", "pf_sim", "mean_flows"]);
    for (i, &t) in times.iter().enumerate() {
        let pf_th = pf_at_time(t, flow, qos, t_h_tilde, |t| (-t / t_c).exp());
        table.push(vec![t, pf_th, rep.pf_at(i), rep.observations[i].mean_flows]);
    }
    Outcome::new(vec![("finite_holding", table)], vec![])
}

/// eqn (40): the measured utilization cost of a tighter `p_ce`, pair by
/// pair, against the formula.
pub(crate) fn utilization(b: &Budget) -> Outcome {
    let (n, t_h, t_c) = (400.0, 1000.0, 1.0);
    let t_m = t_h / f64::sqrt(n); // robust window
    let flow = FlowStats::from_mean_sd(paper::MEAN, paper::COV);
    let max_samples = b.pick(4_000, 300);
    let rows = parallel_map(vec![1e-1, 1e-2, 1e-3, 1e-5, 1e-8], |&p_ce| {
        let sc = ContinuousScenario {
            n,
            t_h,
            t_c,
            t_m,
            p_ce,
            p_q: f64::max(p_ce, 1e-3),
            max_samples,
            seed: 0x0E40 + (p_ce.log10().abs() * 10.0) as u64,
        };
        (p_ce, sc.run())
    });
    let headers = vec!["p_ce", "util_sim", "util_theory", "flows_sim", "pf_sim"];
    let mut table = Table::new(headers);
    for (p_ce, rep) in &rows {
        let util_th = mean_utilization(n, flow, mbac_num::inv_q(*p_ce));
        let (util, flows) = (rep.mean_utilization, rep.mean_flows);
        table.push(vec![*p_ce, util, util_th, flows, rep.pf.value]);
    }
    let mut delta = Table::new(vec!["p_ce", "p_ce_prime", "du_sim", "du_eqn40"]);
    for w in rows.windows(2) {
        let ((p_hi, hi), (p_lo, lo)) = (&w[0], &w[1]);
        let du_sim = (hi.mean_utilization - lo.mean_utilization) * n; // in bandwidth
        delta.push(vec![
            *p_lo,
            *p_hi,
            du_sim,
            utilization_loss(n, flow, *p_lo, *p_hi),
        ]);
    }
    // §3.1's special case and the peak-rate baseline, for context.
    let alpha_q = mbac_num::inv_q(1e-3);
    let sqrt2_loss = impulsive::utilization_loss_sqrt2(n, flow, QosTarget::new(1e-3));
    let peak_util = paper::MEAN / (paper::MEAN * (1.0 + 4.0 * paper::COV));
    let last = rows.last().map_or(0.0, |(_, rep)| rep.mean_utilization);
    let notes = vec![
        format!("√2-adjustment loss (p_q = 1e-3) = {sqrt2_loss:.1} units (α_q = {alpha_q:.2})"),
        format!("peak-rate utilization = {peak_util:.3} (vs ≥ {last:.3} on every Gaussian row)"),
    ];
    Outcome::new(
        vec![("utilization", table), ("utilization_delta", delta)],
        notes,
    )
}

/// §5.4: the naive variance estimator's between-class bias on two flow
/// classes, and the admission count it costs.
pub(crate) fn heterogeneous(b: &Budget) -> Outcome {
    // Class 0 audio-like (mean 1, sd 0.3), class 1 video-like (mean 4,
    // sd 1.2), equal populations.
    let (c0, c1) = (rcbr(1.0, 0.3), rcbr(4.0, 1.2));
    let (per_class, p_q, capacity) = (200usize, 1e-3, 600.0);
    let snapshots = b.pick(20_000, 2_000);
    let mut rng = StdRng::seed_from_u64(0x0E54);
    let mut flows: Vec<(usize, Box<dyn RateProcess>)> = Vec::new();
    for _ in 0..per_class {
        flows.push((0, c0.spawn(&mut rng)));
        flows.push((1, c1.spawn(&mut rng)));
    }
    let (mut naive_var, mut naive_mean) = (RunningStats::new(), RunningStats::new());
    let mut classified = ClassifiedEstimator::new(2, 0.0);
    let mut class_var = [RunningStats::new(), RunningStats::new()];
    let dt = 0.5;
    for k in 0..snapshots {
        for (_, f) in &mut flows {
            f.advance(dt, &mut rng);
        }
        let rates: Vec<f64> = flows.iter().map(|(_, f)| f.rate()).collect();
        let snap = snapshot_stats(&rates).expect("400 flows have a snapshot");
        naive_var.push(snap.variance);
        naive_mean.push(snap.mean);
        let labeled: Vec<(usize, f64)> = flows.iter().map(|(c, f)| (*c, f.rate())).collect();
        classified.observe(k as f64 * dt, &labeled);
        for (cls, cv) in class_var.iter_mut().enumerate() {
            cv.push(
                classified
                    .estimate_class(cls)
                    .expect("a class of 200")
                    .variance,
            );
        }
    }
    let within = 0.5 * (c0.variance() + c1.variance());
    let bias = naive_variance_bias(&[c0.mean(), c1.mean()], &[0.5, 0.5]);
    // Admission under each estimator: the naive count, and the
    // aggregate Gaussian test filled with alternating classes.
    let alpha = QosTarget::new(p_q).alpha();
    let (mean, sd) = (naive_mean.mean(), naive_var.mean().sqrt());
    let m_naive = gaussian_admissible_count(mean, sd, alpha, capacity);
    let ctl = AggregateGaussian::new(QosTarget::new(p_q));
    let (mut m_classified, mut virt) = (0usize, AggregateEstimate::default());
    loop {
        let cls: &dyn SourceModel = if m_classified.is_multiple_of(2) {
            &c0
        } else {
            &c1
        };
        let cand = FlowStats::new(cls.mean(), cls.variance());
        if !ctl.admit(virt, cand, capacity) {
            break;
        }
        virt.mean += cand.mean;
        virt.variance += cand.variance;
        virt.flows += 1;
        m_classified += 1;
    }
    let mut table = Table::new(vec![
        "within_var",
        "bias_pred",
        "naive_var_pred",
        "naive_var_meas",
        "m_naive",
        "m_classified",
    ]);
    let pred = within + bias;
    table.push(vec![
        within,
        bias,
        pred,
        naive_var.mean(),
        m_naive,
        m_classified as f64,
    ]);
    let agg = classified.aggregate();
    let notes = vec![
        format!(
            "measured per-class variances: {:.4} / {:.4} (true {:.4} / {:.4})",
            class_var[0].mean(),
            class_var[1].mean(),
            c0.variance(),
            c1.variance()
        ),
        format!(
            "aggregate measured mean / variance: {:.1} / {:.1}",
            agg.mean, agg.variance
        ),
    ];
    Outcome::new(vec![("heterogeneous", table)], notes)
}

/// §6: five controllers on one continuous-load workload, with the
/// peak-rate floor worked out analytically.
pub(crate) fn baselines(b: &Budget) -> Outcome {
    let (n, t_h_tilde) = (400.0, 50.0);
    let p_q = paper::P_Q * 10.0; // 1e-2: resolvable within the budget
    let max_samples = b.pick(12_000, 400);
    let true_flow = FlowStats::from_mean_sd(1.0, 0.3);
    let p_ce_robust = robust_pce(true_flow.cov(), t_h_tilde, 1.0, p_q);
    let ce = |p: f64| Box::new(CertaintyEquivalent::from_probability(p));
    // Engines are stateful boxed trait objects: each worker builds its
    // own from the case's index.
    let engine = |case: usize| -> Box<dyn AdmissionEngine + Send> {
        let prior = |flow| Box::new(PriorSmoothedEstimator::new(flow, 2.0 * n));
        match case {
            0 => Box::new(MbacController::new(
                Box::new(MemorylessEstimator::new()),
                ce(p_q),
            )),
            1 => Box::new(MbacController::new(
                Box::new(FilteredEstimator::new(t_h_tilde)),
                ce(p_ce_robust),
            )),
            2 => Box::new(MbacController::new(prior(true_flow), ce(p_q))),
            // Traffic 25 % burstier than the prior believes.
            3 => Box::new(MbacController::new(
                prior(FlowStats::from_mean_sd(0.96, 0.24)),
                ce(p_q),
            )),
            _ => Box::new(MeasuredSumController::new(MeasuredSum::new(
                (1.0 - true_flow.cov() * QosTarget::new(p_ce_robust).alpha() / f64::sqrt(n))
                    .clamp(0.5, 1.0),
                t_h_tilde,
                1.0,
                true_flow.mean,
            ))),
        }
    };
    let labels = [
        "memoryless-ce",
        "robust-ce",
        "bayes-correct-prior",
        "bayes-stale-prior",
        "measured-sum",
    ];
    let reports = parallel_map((0..labels.len()).collect(), |&case| {
        run_n400(engine(case).as_mut(), t_h_tilde, max_samples, 0xBA5E)
    });
    let table = controller_table("controller", &labels, &reports, p_q);
    let peak = true_flow.mean + 4.0 * true_flow.std_dev();
    let flows = (n / peak).floor();
    let notes = vec![
        format!("robust p_ce = {p_ce_robust:.2e}"),
        pf_methods(reports.iter().map(|r| &r.pf)),
        format!(
            "peak-rate (analytic): pf_sim 0, target {p_q:.1e}, util {:.3}, mean_flows {flows:.1}",
            flows * true_flow.mean / n
        ),
    ];
    Outcome::new(vec![("baselines", table)], notes)
}

/// The table of one continuous-load run per labelled controller.
fn controller_table(label: &str, labels: &[&str], reports: &[ContinuousReport], p_q: f64) -> Table {
    let headers = vec!["pf_sim", "target", "util", "mean_flows"];
    let mut table = Table::labelled(label, headers);
    for (label, rep) in labels.iter().zip(reports) {
        let row = vec![rep.pf.value, p_q, rep.mean_utilization, rep.mean_flows];
        table.push_labelled(label, row);
    }
    table
}

/// The exponential kernel at `T_m` against the rectangular window at
/// `2·T_m` (equal mean sample age).
pub(crate) fn kernel_ablation(b: &Budget) -> Outcome {
    let p_ce = 1e-2;
    let t_ms = [1.0, 4.0, 12.0, 25.0, 50.0];
    let max_samples = b.pick(10_000, 300);
    let points: Vec<(f64, bool)> = t_ms.iter().flat_map(|&t| [(t, false), (t, true)]).collect();
    let results = parallel_map(points, |&(t_m, rectangular)| {
        let estimator: Box<dyn Estimator + Send> = match rectangular {
            true => Box::new(WindowEstimator::new(2.0 * t_m)), // mean age T_m
            false => Box::new(FilteredEstimator::new(t_m)),
        };
        let policy = Box::new(CertaintyEquivalent::from_probability(p_ce));
        let mut ctl = MbacController::new(estimator, policy);
        run_n400(&mut ctl, t_m, max_samples, 0xAB1A + (t_m * 8.0) as u64)
    });
    let mut table = Table::new(vec!["t_m", "pf_exponential", "pf_rectangular"]);
    for (&t_m, pair) in t_ms.iter().zip(results.chunks(2)) {
        table.push(vec![t_m, pair[0].pf.value, pair[1].pf.value]);
    }
    Outcome::new(vec![("kernel_ablation", table)], vec![])
}

/// §7: the robust controller fed per-flow snapshots, fed `(count, sum)`
/// only, and fed `(count, sum)` through too short a window.
pub(crate) fn aggregate(b: &Budget) -> Outcome {
    let (t_h_tilde, p_q) = (50.0, 1e-2);
    let max_samples = b.pick(12_000, 400);
    let p_ce = robust_pce(paper::COV, t_h_tilde, 1.0, p_q);
    let cases = vec![
        // (label, estimator window, aggregate-only?)
        ("per-flow T_m = T̃_h", t_h_tilde, false),
        ("aggregate T_m = T̃_h", t_h_tilde, true),
        ("aggregate T_m = T̃_h/8", t_h_tilde / 8.0, true),
    ];
    let labels: Vec<&str> = cases.iter().map(|c| c.0).collect();
    let reports = parallel_map(cases, |&(_, t_m, aggregate_only)| {
        let estimator: Box<dyn Estimator + Send> = match aggregate_only {
            true => Box::new(AggregateOnlyEstimator::new(t_m)),
            false => Box::new(FilteredEstimator::new(t_m)),
        };
        let policy = Box::new(CertaintyEquivalent::from_probability(p_ce));
        let mut ctl = MbacController::new(estimator, policy);
        run_n400(&mut ctl, t_m, max_samples, 0xA99)
    });
    let table = controller_table("measurement", &labels, &reports, p_q);
    let notes = vec![
        format!("p_ce = {p_ce:.2e}"),
        pf_methods(reports.iter().map(|r| &r.pf)),
    ];
    Outcome::new(vec![("aggregate_measurement", table)], notes)
}

/// §2: a population shift mid-run (σ 0.3 → 0.5) against three memory
/// settings, each phase averaged over six replications.
pub(crate) fn nonstationary(b: &Budget) -> Outcome {
    let (n, t_h, t_c, p_q) = (400.0, 1000.0, 1.0, 1e-2);
    let t_h_tilde = t_h / f64::sqrt(n);
    // Spaced samples per replication: the quick floor is high, since
    // the transition phase needs real samples.
    let samples_per_run = b.pick(1_500, 250);
    let (calm, wild) = (rcbr(1.0, 0.3), rcbr(1.0, 0.5));
    // The target is designed from the phase-1 statistics, before the
    // shift: that is the point.
    let p_ce = robust_pce(0.3, t_h_tilde, t_c, p_q);
    let cases = vec![
        ("memoryless", 0.0),
        ("T_m = T̃_h (rule)", t_h_tilde),
        ("T_m = 20·T̃_h", 20.0 * t_h_tilde),
    ];
    let replications = 6u64;
    let reports = parallel_map(cases, |&(label, t_m)| {
        // Per-phase results summed over seed replications: the
        // transition window is short, so one run is too noisy there.
        let mut acc: Vec<(f64, f64, u64)> = vec![(0.0, 0.0, 0); 3];
        // The warm-up exceeds both the estimator's memory and the
        // occupancy relaxation (several T̃_h), or the controller is
        // judged on its cold start rather than on the shift.
        let warmup = f64::max(30.0 * t_h_tilde, 3.0 * t_m);
        let switch_at = warmup + 30.0 * t_h_tilde;
        for r in 0..replications {
            let mut ctl = MbacController::new(
                Box::new(FilteredEstimator::new(t_m)),
                Box::new(CertaintyEquivalent::from_probability(p_ce)),
            );
            let cfg = ContinuousConfig {
                capacity: n,
                mean_holding: t_h,
                tick: 0.25,
                warmup,
                // Dense sampling: the phases of one run are compared, so
                // sample correlation biases them all alike.
                sample_spacing: t_h_tilde / 2.0,
                target: p_q,
                max_samples: samples_per_run,
                seed: 0x2A0A + r,
            };
            // Calm, the transition right after the shift (where a
            // sluggish estimator hurts most), and the new steady state.
            let phases: Vec<(f64, &dyn SourceModel)> = vec![
                (0.0, &calm),
                (switch_at, &wild),
                (switch_at + 10.0 * t_h_tilde, &wild),
            ];
            let reports = SessionBuilder::new()
                .run_local(&PhasedLoad::new(&cfg, &phases, &mut ctl))
                .expect("valid phased config");
            for p in reports {
                let slot = &mut acc[p.phase];
                slot.0 += p.pf.value;
                slot.1 += p.mean_utilization;
                slot.2 += p.pf.samples;
            }
        }
        (label, acc)
    });
    let headers = vec!["pf_sim", "target", "util", "samples"];
    let mut table = Table::labelled("controller / phase", headers);
    for (label, phases) in &reports {
        for (phase, &(pf, util, samples)) in ["calm", "transit", "steady"].iter().zip(phases) {
            let (pf, util) = (pf / replications as f64, util / replications as f64);
            let row = vec![pf, p_q, util, samples as f64];
            table.push_labelled(&format!("{label} / {phase}"), row);
        }
    }
    let note = format!("design p_ce = {p_ce:.2e}");
    Outcome::new(vec![("nonstationary", table)], vec![note])
}

/// A policy that admits a fixed number of flows (the theory sizing).
struct FixedCount(f64);

impl AdmissionPolicy for FixedCount {
    fn admissible_count(&self, _est: Estimate, _capacity: f64) -> f64 {
        self.0
    }
}

/// §7: the link sized for four utilities at one expected-loss budget ε,
/// each sizing held fixed and metered, then the elastic sizing with
/// flows churning under the MBAC.
pub(crate) fn utility(b: &Budget) -> Outcome {
    let (capacity, eps, t_c) = (400.0, 1e-2, 1.0);
    let flow = FlowStats::from_mean_sd(1.0, 0.3);
    let samples = b.pick(6_000, 400);
    let elastic = UtilityFunction::Elastic { exponent: 0.5 };
    let utilities = vec![
        ("hard (overflow)", UtilityFunction::Hard),
        (
            "adaptive floor 0.9",
            UtilityFunction::Adaptive { min_share: 0.9 },
        ),
        (
            "adaptive floor 0.5",
            UtilityFunction::Adaptive { min_share: 0.5 },
        ),
        ("elastic sqrt", elastic),
    ];
    let model = RcbrModel::new(RcbrConfig::paper_default(t_c));
    let rows = parallel_map(utilities, |&(label, u)| {
        // The largest m with expected loss ≤ ε ...
        let m = admissible_flows_utility(flow, capacity, eps, u);
        let predicted =
            expected_utility_loss(m * flow.mean, (m * flow.variance).sqrt(), capacity, u);
        // ... held at exactly ⌊m⌋ flows, its realized utility metered.
        let mut rng = StdRng::seed_from_u64(0x07EC + m as u64);
        let mut flows: Vec<Box<dyn RateProcess>> = (0..m.floor() as usize)
            .map(|_| model.spawn(&mut rng))
            .collect();
        let mut meter = UtilityMeter::new(capacity, u);
        for _ in 0..samples {
            for f in &mut flows {
                f.advance(2.0 * t_c, &mut rng);
            }
            meter.record(flows.iter().map(|f| f.rate()).sum());
        }
        (label, m, predicted, meter.mean_loss())
    });
    let headers = vec!["flows", "loss_theory", "loss_sim", "utilization"];
    let mut table = Table::labelled("utility", headers);
    for &(label, m, predicted, simulated) in &rows {
        table.push_labelled(
            label,
            vec![m, predicted, simulated, m * flow.mean / capacity],
        );
    }
    let (base, best) = (rows[0].1, rows[rows.len() - 1].1);
    // The dynamic path: flows churn, and the MBAC holds the elastic
    // sizing.
    let m_elastic = admissible_flows_utility(flow, capacity, eps, elastic);
    let mut ctl = MbacController::new(
        Box::new(FilteredEstimator::new(10.0)),
        Box::new(FixedCount(m_elastic)),
    );
    let cfg = ContinuousConfig {
        capacity,
        mean_holding: 200.0,
        tick: 0.25,
        warmup: 100.0,
        sample_spacing: 20.0,
        target: eps,
        max_samples: samples.min(2_000),
        seed: 0x07ED,
    };
    let rep = SessionBuilder::new()
        .run_local(&ContinuousLoad::new(&cfg, &model, &mut ctl))
        .expect("valid utility config");
    let notes = vec![
        format!(
            "adaptivity dividend: {:.1} extra flows ({:.1}%) at ε = {eps} when the application \
             absorbs partial bandwidth (elastic vs hard)",
            best - base,
            100.0 * (best - base) / base
        ),
        format!(
            "dynamic check (flows churn, MBAC holds N ≈ {m_elastic:.0}): mean flows {:.1}, \
             overflow p_f = {:.2e} (would MISS a hard ε = {eps:.0e} target, by design)",
            rep.mean_flows, rep.pf.value
        ),
    ];
    Outcome::new(vec![("utility", table)], notes)
}
