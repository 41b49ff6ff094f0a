//! The robust MBAC design procedure (paper §5.3).
//!
//! Two engineering rules fall out of the framework:
//!
//! 1. **Memory window**: set `T_m = T̃_h = T_h/√n`. In the *masking
//!    regime* (`T_c ≪ T̃_h`) this smooths estimation error enough that
//!    the (unknown!) traffic correlation structure is irrelevant; in the
//!    *repair regime* (`T_c ≫ T̃_h`) departures fix admission mistakes
//!    before they bite. Either way the QoS holds without knowing `T_c`.
//! 2. **Adjusted target**: run the certainty-equivalent criterion at the
//!    `p_ce` obtained by inverting the overflow formula (worst-cased
//!    over a range of plausible `T_c`), not at the raw `p_q`.
//!
//! [`RobustDesign`] packages both rules into a ready-to-run
//! configuration.

use crate::params::{FlowStats, QosTarget};
use crate::theory::continuous::ContinuousModel;
use crate::theory::invert::{invert_pce, InvertMethod};
use mbac_num::q;

/// Inputs to the design procedure.
#[derive(Debug, Clone, Copy)]
pub struct DesignInputs {
    /// Link size `n = c/μ`.
    pub n: f64,
    /// Per-flow statistics (only `σ/μ` matters for the design).
    pub flow: FlowStats,
    /// Mean flow holding time `T_h` (easy to estimate in practice, §5.3).
    pub holding_time: f64,
    /// QoS target `p_q`.
    pub qos: QosTarget,
    /// Range of traffic correlation time-scales to be robust against;
    /// the design worst-cases `p_ce` over `[t_c_min, t_c_max]`.
    pub t_c_range: (f64, f64),
}

impl DesignInputs {
    /// The critical time-scale `T̃_h = T_h/√n` the design is built on.
    pub fn t_h_tilde(&self) -> f64 {
        self.holding_time / self.n.sqrt()
    }
}

/// A complete robust-MBAC configuration.
#[derive(Debug, Clone, Copy)]
pub struct RobustDesign {
    /// Memory window to configure the estimator with (`= T̃_h`).
    pub t_m: f64,
    /// The critical time-scale `T̃_h = T_h/√n`.
    pub t_h_tilde: f64,
    /// Adjusted certainty-equivalent safety factor `α_ce`.
    pub alpha_ce: f64,
    /// Adjusted certainty-equivalent target `p_ce = Q(α_ce)`.
    pub p_ce: f64,
    /// The correlation time-scale at which the worst case was attained.
    pub worst_t_c: f64,
    /// Predicted overflow probability at the design point (≤ `p_q` by
    /// construction, up to formula accuracy).
    pub predicted_pf: f64,
}

impl RobustDesign {
    /// Runs the §5.3 procedure: `T_m = T̃_h`, then `p_ce` by inverting
    /// eqn (37) and worst-casing over a log-grid of `T_c` values.
    ///
    /// # Panics
    /// Panics on nonsensical inputs (non-positive sizes or times, empty
    /// `T_c` range).
    pub fn design(inp: &DesignInputs) -> RobustDesign {
        assert!(inp.n > 0.0 && inp.holding_time > 0.0);
        let (lo, hi) = inp.t_c_range;
        assert!(lo > 0.0 && hi >= lo, "invalid T_c range");
        let t_h_tilde = inp.t_h_tilde();
        let t_m = t_h_tilde;
        let cov = inp.flow.cov();
        // Worst-case α_ce over a log grid of T_c.
        let grid = 25usize;
        let mut worst_alpha = inp.qos.alpha(); // never less conservative than p_q
        let mut worst_t_c = lo;
        for k in 0..=grid {
            let t_c = if hi == lo {
                lo
            } else {
                lo * (hi / lo).powf(k as f64 / grid as f64)
            };
            let model = ContinuousModel::new(cov, t_h_tilde, t_c);
            match invert_pce(&model, t_m, inp.qos.p, InvertMethod::General) {
                Ok(adj) => {
                    if adj.alpha_ce > worst_alpha {
                        worst_alpha = adj.alpha_ce;
                        worst_t_c = t_c;
                    }
                }
                Err(_) => {
                    // Repair-dominated at this T_c: no adjustment needed.
                }
            }
        }
        // Predicted p_f at the worst-case T_c with the chosen α_ce.
        let predicted =
            ContinuousModel::new(cov, t_h_tilde, worst_t_c).pf_with_memory(worst_alpha, t_m);
        RobustDesign {
            t_m,
            t_h_tilde,
            alpha_ce: worst_alpha,
            p_ce: q(worst_alpha),
            worst_t_c,
            predicted_pf: predicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> DesignInputs {
        DesignInputs {
            n: 1000.0,
            flow: FlowStats::from_mean_sd(1.0, 0.3),
            holding_time: 1000.0,
            qos: QosTarget::new(1e-3),
            t_c_range: (0.1, 10.0),
        }
    }

    #[test]
    fn window_rule_is_critical_timescale() {
        let d = RobustDesign::design(&inputs());
        assert!((d.t_m - 1000.0 / 1000.0f64.sqrt()).abs() < 1e-9);
        assert_eq!(d.t_m, d.t_h_tilde);
    }

    #[test]
    fn design_is_conservative() {
        let d = RobustDesign::design(&inputs());
        assert!(d.p_ce <= 1e-3, "p_ce {} must not exceed p_q", d.p_ce);
        assert!(d.alpha_ce >= QosTarget::new(1e-3).alpha());
    }

    #[test]
    fn predicted_pf_meets_target_across_tc_range() {
        let inp = inputs();
        let d = RobustDesign::design(&inp);
        // Validate the design against the *general* formula on a finer
        // grid than the designer used.
        for k in 0..=60 {
            let t_c = 0.1 * (100.0f64).powf(k as f64 / 60.0);
            let model = ContinuousModel::new(inp.flow.cov(), d.t_h_tilde, t_c);
            let pf = model.pf_with_memory(d.alpha_ce, d.t_m);
            assert!(
                pf <= 1.05 * inp.qos.p,
                "T_c = {t_c}: pf {pf} exceeds target {}",
                inp.qos.p
            );
        }
    }

    #[test]
    fn larger_system_needs_shorter_window() {
        let mut big = inputs();
        big.n = 100_000.0;
        let d_small = RobustDesign::design(&inputs());
        let d_big = RobustDesign::design(&big);
        assert!(d_big.t_m < d_small.t_m);
    }

    #[test]
    fn tighter_qos_means_larger_alpha() {
        let mut strict = inputs();
        strict.qos = QosTarget::new(1e-5);
        let d_lax = RobustDesign::design(&inputs());
        let d_strict = RobustDesign::design(&strict);
        assert!(d_strict.alpha_ce > d_lax.alpha_ce);
    }

    #[test]
    fn degenerate_tc_range_works() {
        let mut one_point = inputs();
        one_point.t_c_range = (1.0, 1.0);
        let d = RobustDesign::design(&one_point);
        assert!(d.worst_t_c == 1.0);
        assert!(d.predicted_pf <= 1.05e-3);
    }
}
