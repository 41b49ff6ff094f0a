//! `mbacctl design` — the §5.3 robust design procedure as a calculator.

use super::{require_positive, require_stats};
use crate::args::{ArgError, Args};
use mbac_core::params::{FlowStats, QosTarget};
use mbac_core::robust::{DesignInputs, RobustDesign};
use mbac_core::theory::utilization::mean_utilization;

/// Usage text.
pub const USAGE: &str = "\
mbacctl design --capacity <c> --mean <mu> --sd <sigma> --holding <T_h> --p-q <p>
               [--tc-min <x> --tc-max <y>]

Computes the robust MBAC configuration for a bufferless link:
the memory window T_m = T_h/sqrt(n) and the adjusted certainty-
equivalent target p_ce, worst-cased over correlation time-scales
in [tc-min, tc-max] (default [0.1, 10]).";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "capacity", "mean", "sd", "holding", "p-q", "tc-min", "tc-max",
    ])?;
    let capacity = args.f64_required("capacity")?;
    let mean = args.f64_or("mean", 1.0)?;
    let sd = args.f64_required("sd")?;
    let holding = args.f64_required("holding")?;
    let p_q = args.prob_or("p-q", 1e-3)?;
    let tc_min = args.f64_or("tc-min", 0.1)?;
    let tc_max = args.f64_or("tc-max", 10.0)?;
    require_stats(
        &[
            ("capacity", capacity),
            ("mean", mean),
            ("holding", holding),
            ("tc-min", tc_min),
            ("tc-max", tc_max),
        ],
        ("sd", sd),
    )?;
    if tc_max < tc_min {
        return Err(ArgError("need 0 < tc-min <= tc-max".into()));
    }
    // The worst case is taken over a grid stepping by powers of the
    // ratio.
    require_positive("tc-max/tc-min", tc_max / tc_min)?;

    let flow = FlowStats::from_mean_sd(mean, sd);
    let n = capacity / mean;
    let qos = QosTarget::new(p_q);
    let inputs = DesignInputs {
        n,
        flow,
        holding_time: holding,
        qos,
        t_c_range: (tc_min, tc_max),
    };
    // What the overflow formulas take, derived: both must be positive
    // and finite, which the flags alone do not make them.
    require_positive("sigma/mu", flow.cov())?;
    require_positive("T~h = holding/sqrt(capacity/mean)", inputs.t_h_tilde())?;
    // Even a clairvoyant controller admits no flow when μ + α_q·σ > c:
    // there is nothing to design, and the utilization would print
    // negative.
    let one_flow = 1.0 + qos.alpha() * flow.cov();
    if one_flow > n {
        return Err(ArgError(format!(
            "the link carries no flow at the target: 1 + alpha_q*sigma/mu = {one_flow:.4e} \
             exceeds capacity/mean = {n:.4e}"
        )));
    }
    let design = RobustDesign::design(&inputs);

    println!("robust MBAC design");
    println!("  system size n           : {n:.1} mean-rate flows");
    println!("  critical time-scale T~h : {:.3}", design.t_h_tilde);
    println!(
        "  memory window T_m       : {:.3}  (rule: T_m = T~h)",
        design.t_m
    );
    println!(
        "  adjusted target p_ce    : {:.4e}  (alpha_ce = {:.3})",
        design.p_ce, design.alpha_ce
    );
    println!("  worst-case T_c          : {:.3}", design.worst_t_c);
    println!(
        "  predicted overflow p_f  : {:.3e}  (target {p_q:.1e})",
        design.predicted_pf
    );
    println!(
        "  expected utilization    : {:.2}%  (clairvoyant bound {:.2}%)",
        100.0 * mean_utilization(n, flow, design.alpha_ce),
        100.0 * mean_utilization(n, flow, qos.alpha())
    );
    Ok(())
}
