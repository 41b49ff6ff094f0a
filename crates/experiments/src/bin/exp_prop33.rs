//! Experiment `prop-3.3` — the certainty-equivalence √2 penalty.
//!
//! Reproduces the headline analytical result of §3.1 (Prop. 3.3, the
//! quantitative content behind Fig. 1): in the impulsive-load model the
//! memoryless certainty-equivalent MBAC realizes
//!
//! `p_f = Q(Q⁻¹(p_q)/√2)`   —   NOT `p_q`,
//!
//! universally in the flow distribution and the system size, while the
//! perfect-knowledge controller realizes exactly `p_q`. Also verifies
//! the eqn (15) fix (`p_ce = Q(√2 α_q)` restores `p_f = p_q`) and the
//! Prop. 3.1 fluctuation law for `M₀`.
//!
//! Paper-expected shape: simulated `p_f` for the CE controller tracks
//! the √2 curve across sizes and distributions; for `p_q = 1e-5` the
//! penalty is two orders of magnitude.

use mbac_core::admission::{CertaintyEquivalent, PerfectKnowledge};
use mbac_core::params::{FlowStats, QosTarget};
use mbac_core::theory::impulsive;
use mbac_experiments::{budget, parallel_map, write_csv, Table};
use mbac_sim::{ImpulsiveConfig, ImpulsiveLoad, SessionBuilder};
use mbac_traffic::marginal::Marginal;
use mbac_traffic::process::SourceModel;
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};

struct Case {
    label: &'static str,
    n: usize,
    model: RcbrModel,
    /// Run with the √2-adjusted target instead of the raw one.
    adjusted: bool,
}

fn main() {
    let reps = budget(60_000, 4_000) as usize;
    let p_q = 0.01; // large enough to resolve by direct simulation

    // Universality sweep: one RCBR model with the marginal swapped at
    // the same (μ, σ, T_c), three system sizes, plus the adjusted-target
    // checks. The on–off flow's two-point marginal is not at σ/μ = 0.3,
    // but the universality claim is that the marginal does not matter
    // at all.
    let gaussian = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let uniform = Marginal::uniform_with_moments(1.0, 0.3);
    let two_point = Marginal::two_point_with_moments(1.0, 0.3);
    let lognormal = Marginal::lognormal_with_moments(1.0, 0.3);
    let shape = |marginal| RcbrModel::with_marginal(marginal, 1.0);
    let on_off = RcbrModel::on_off(2.0, 3.0, 1.0);
    let case = |label, n, model, adjusted| Case {
        label,
        n,
        model,
        adjusted,
    };
    let cases = vec![
        case("rcbr-gaussian", 100, gaussian, false),
        case("rcbr-gaussian", 400, gaussian, false),
        case("rcbr-gaussian", 1600, gaussian, false),
        case("rcbr-uniform", 400, shape(uniform), false),
        case("rcbr-two-point", 400, shape(two_point), false),
        case("rcbr-lognormal", 400, shape(lognormal), false),
        case("onoff-two-point", 400, on_off, false),
        case("rcbr-gaussian", 400, gaussian, true),
        case("onoff-two-point", 400, on_off, true),
    ];

    println!("== prop-3.3: certainty-equivalence penalty (impulsive load) ==\n");
    println!(
        "target p_q = {p_q}; Prop 3.3 prediction p_f = Q(a_q/sqrt2) = {:.4}; eqn (15) p_ce = {:.3e}\n",
        impulsive::pf_certainty_equivalent(p_q),
        impulsive::pce_for_target(p_q),
    );

    let rows = parallel_map(cases, |case| {
        let flow = FlowStats::new(case.model.mean(), case.model.variance());
        let target = if case.adjusted {
            QosTarget::new(impulsive::pce_for_target(p_q))
        } else {
            QosTarget::new(p_q)
        };
        let ce = CertaintyEquivalent::new(target);
        let cfg = ImpulsiveConfig {
            capacity: case.n as f64 * flow.mean,
            estimation_flows: case.n,
            mean_holding: None,
            observe_times: vec![50.0], // ≫ T_c: steady state
            replications: reps,
            seed: 0xA110C + case.n as u64 + case.adjusted as u64,
        };
        let rep = SessionBuilder::new()
            .run(&ImpulsiveLoad::new(&cfg, &case.model, &ce))
            .expect("valid prop33 config");
        let pf_ce = rep.pf_at(0);
        // Perfect-knowledge baseline on the same workload.
        let pk = PerfectKnowledge::new(flow, QosTarget::new(p_q));
        let rep_pk = SessionBuilder::new()
            .run(&ImpulsiveLoad::new(&cfg, &case.model, &pk))
            .expect("valid prop33 config");
        let pf_pk = rep_pk.pf_at(0);
        // M0 fluctuation check (Prop 3.1): sd ≈ (σ/μ)√n.
        let m0_sd_pred = flow.cov() * (case.n as f64).sqrt();
        (
            case.label,
            case.n,
            case.adjusted,
            pf_ce,
            pf_pk,
            rep.m0.std_dev(),
            m0_sd_pred,
        )
    });

    let mut table = Table::new(vec![
        "n",
        "adjusted",
        "pf_ce_sim",
        "pf_ce_theory",
        "pf_pk_sim",
        "pf_target",
        "m0_sd_sim",
        "m0_sd_theory",
    ]);
    println!(
        "{:<16} {:>6} {:>9} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "distribution",
        "n",
        "adjusted",
        "pf_ce_sim",
        "pf_theory",
        "pf_pk_sim",
        "target",
        "m0_sd",
        "m0_sd_th"
    );
    for (label, n, adjusted, pf_ce, pf_pk, m0_sd, m0_sd_pred) in rows {
        let theory = if adjusted {
            p_q // adjusted target should restore pf = p_q
        } else {
            impulsive::pf_certainty_equivalent(p_q)
        };
        println!(
            "{:<16} {:>6} {:>9} {:>10.5} {:>10.5} {:>10.5} {:>10.5} {:>9.2} {:>9.2}",
            label, n, adjusted, pf_ce, theory, pf_pk, p_q, m0_sd, m0_sd_pred
        );
        table.push(vec![
            n as f64,
            adjusted as u8 as f64,
            pf_ce,
            theory,
            pf_pk,
            p_q,
            m0_sd,
            m0_sd_pred,
        ]);
    }
    let path = write_csv("prop33", &table).expect("write CSV");
    println!("\nwrote {}", path.display());
    println!(
        "\nExpected shape: pf_ce_sim ≈ pf_theory ≫ target for unadjusted rows (independent of n\n\
         and distribution); pf_ce_sim ≈ target for adjusted rows; pf_pk_sim ≈ target throughout."
    );
}
