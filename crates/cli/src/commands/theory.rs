//! `mbacctl theory` — evaluate the paper's overflow formulas directly.

use super::require_stats;
use crate::args::{ArgError, Args};
use mbac_core::params::QosTarget;
use mbac_core::theory::continuous::ContinuousModel;
use mbac_core::theory::impulsive;
use mbac_core::theory::invert::{invert_pce, InvertMethod};

/// Usage text.
pub const USAGE: &str = "\
mbacctl theory --cov <sigma/mu> --th-tilde <T~h> --t-c <T_c>
               [--t-m <T_m>] [--p-ce <p>] [--p-q <p>]

Evaluates the continuous-load overflow formulas for one parameter
point: eqn (37) (numeric), eqn (38) (closed form), the memoryless
limit, the impulsive-load sqrt(2) penalty for reference, and — when
--p-q is given — the adjusted p_ce by inversion.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["cov", "th-tilde", "t-c", "t-m", "p-ce", "p-q"])?;
    let cov = args.f64_required("cov")?;
    let th_tilde = args.f64_required("th-tilde")?;
    let t_c = args.f64_required("t-c")?;
    let t_m = args.f64_or("t-m", 0.0)?;
    let p_ce = args.prob_or("p-ce", 1e-3)?;
    require_stats(
        &[("cov", cov), ("th-tilde", th_tilde), ("t-c", t_c)],
        ("t-m", t_m),
    )?;

    let model = ContinuousModel::new(cov, th_tilde, t_c);
    let alpha = QosTarget::new(p_ce).alpha();
    println!("model: sigma/mu = {cov}, T~h = {th_tilde}, T_c = {t_c}");
    println!("  beta (repair drift)      : {:.4}", model.beta());
    println!("  gamma (scale separation) : {:.4}", model.gamma());
    println!("controller: p_ce = {p_ce:.3e} (alpha = {alpha:.3}), T_m = {t_m}");
    println!(
        "  p_f  eqn(37) numeric     : {:.4e}",
        model.pf_with_memory(alpha, t_m)
    );
    println!(
        "  p_f  eqn(38) closed form : {:.4e}",
        model.pf_with_memory_separated(alpha, t_m)
    );
    println!(
        "  p_f  memoryless (T_m=0)  : {:.4e}",
        model.pf_memoryless(alpha)
    );
    println!(
        "  impulsive sqrt2 penalty  : {:.4e}",
        impulsive::pf_certainty_equivalent(p_ce)
    );
    println!(
        "  masking-regime approx    : {:.4e}",
        model.pf_masking_regime(alpha)
    );
    println!(
        "  repair-regime approx     : {:.4e}",
        model.pf_repair_regime(alpha)
    );

    if args.get("p-q").is_some() {
        let p_q = args.prob_or("p-q", 1e-3)?;
        match invert_pce(&model, t_m, p_q, InvertMethod::General) {
            Ok(adj) => println!(
                "inversion: to realize p_f = {p_q:.1e} at T_m = {t_m}, run at p_ce = {:.4e} (ln p_ce = {:.2})",
                adj.p_ce, adj.ln_pce
            ),
            Err(_) => println!(
                "inversion: repair effect already guarantees p_f <= {p_q:.1e} for any target"
            ),
        }
    }
    Ok(())
}
