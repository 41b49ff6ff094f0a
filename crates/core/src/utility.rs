//! Utility-based QoS (the paper's §7 first future-work item,
//! implemented).
//!
//! §7: "The QoS metric used here — the probability that a flow cannot
//! get at least its target bandwidth — is extreme in the sense that it
//! does not account for the fact that getting part of that target
//! bandwidth is still useful to an adaptive application. We are
//! therefore working on a generalization of the QoS metric based on
//! utility functions, inspired by Shenker's work."
//!
//! This module supplies that generalization. During overload the link
//! shares capacity proportionally, so each flow receives the *share*
//! `min(1, c/S_t)` of its demand; a [`UtilityFunction`] maps the share
//! to perceived quality in `[0, 1]`, and the QoS metric becomes the
//! **expected utility loss** `ε = 1 − E[U(share)]`. The classical
//! overflow probability is recovered exactly by [`UtilityFunction::Hard`]
//! (`ε = p_f`), and for adaptive applications the same link can carry
//! visibly more flows at equal perceived quality — quantified by
//! [`admissible_flows_utility`] and the `utility` experiment.

use crate::params::FlowStats;
use mbac_num::{integrate_to_inf, norm_cdf, phi, q};

/// A perceived-quality function of the received bandwidth share
/// (`share = received/requested ∈ [0, 1]`), normalized to `U(1) = 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UtilityFunction {
    /// Inelastic: all-or-nothing. `U = 1{share ≥ 1}` — recovers the
    /// paper's overflow probability.
    Hard,
    /// Elastic (Shenker's concave class): `U = share^exponent` with
    /// `0 < exponent ≤ 1`.
    Elastic {
        /// Concavity: 1 = linear, → 0 = nearly indifferent to loss.
        exponent: f64,
    },
    /// Adaptive with a quality floor: useless below `min_share`, linear
    /// from `(min_share, 0)` to `(1, 1)` — e.g. layered video that
    /// needs its base layer.
    Adaptive {
        /// Share below which the application gets zero utility.
        min_share: f64,
    },
}

impl UtilityFunction {
    /// Evaluates the utility of a bandwidth share (clamped to [0, 1]).
    pub fn eval(&self, share: f64) -> f64 {
        let s = share.clamp(0.0, 1.0);
        match *self {
            UtilityFunction::Hard => {
                if s >= 1.0 {
                    1.0
                } else {
                    0.0
                }
            }
            UtilityFunction::Elastic { exponent } => {
                debug_assert!(exponent > 0.0 && exponent <= 1.0);
                s.powf(exponent)
            }
            UtilityFunction::Adaptive { min_share } => {
                debug_assert!((0.0..1.0).contains(&min_share));
                if s <= min_share {
                    0.0
                } else {
                    (s - min_share) / (1.0 - min_share)
                }
            }
        }
    }
}

/// Expected utility `E[U(min(1, c/S))]` when the aggregate demand is
/// Gaussian `S ~ N(mean, sd²)` on a link of the given capacity.
///
/// Evaluated as `Φ((c−m)/sd)·1 + ∫_c^∞ U(c/s) φ((s−m)/sd)/sd ds`
/// with the crate's adaptive quadrature.
pub fn expected_utility(mean: f64, sd: f64, capacity: f64, u: UtilityFunction) -> f64 {
    assert!(capacity > 0.0 && sd >= 0.0);
    if sd == 0.0 {
        return u.eval((capacity / mean).min(1.0));
    }
    let no_overload = norm_cdf((capacity - mean) / sd);
    let overload_part = integrate_to_inf(
        |s: f64| u.eval(capacity / s) * phi((s - mean) / sd) / sd,
        capacity,
        1e-12,
    )
    .value;
    (no_overload + overload_part).clamp(0.0, 1.0)
}

/// Expected utility **loss** `ε = 1 − E[U]` — the generalized QoS
/// metric. For [`UtilityFunction::Hard`] this equals the overflow
/// probability `Q((c−m)/sd)` exactly.
pub fn expected_utility_loss(mean: f64, sd: f64, capacity: f64, u: UtilityFunction) -> f64 {
    1.0 - expected_utility(mean, sd, capacity, u)
}

/// The largest number of flows `m` such that the expected utility loss
/// stays at or below `epsilon`, with i.i.d. flows of the given
/// statistics on the given capacity (aggregate `N(mμ, mσ²)` as in the
/// heavy-traffic framework). The utility-metric analogue of the
/// paper's eqn (4) admissible count.
///
/// # Panics
/// Panics unless `epsilon ∈ (0, 1)` and capacity is positive.
pub fn admissible_flows_utility(
    flow: FlowStats,
    capacity: f64,
    epsilon: f64,
    u: UtilityFunction,
) -> f64 {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
    assert!(capacity > 0.0);
    let loss =
        |m: f64| expected_utility_loss(m * flow.mean, (m * flow.variance).sqrt(), capacity, u);
    // Loss is increasing in m; bracket between 0 and a point that
    // certainly violates (twice the fluid limit).
    let hi = 2.0 * capacity / flow.mean + 2.0;
    if loss(hi) <= epsilon {
        return hi; // pathological: even gross overload satisfies ε
    }
    mbac_num::brent(|m| loss(m.max(1e-9)) - epsilon, 1e-9, hi, 1e-9, 300)
        .map(|r| r.x)
        .unwrap_or(0.0)
}

/// Closed-form check value: with the hard utility the loss is the
/// Gaussian tail. Exposed for tests/benches.
pub fn hard_loss_reference(mean: f64, sd: f64, capacity: f64) -> f64 {
    if sd == 0.0 {
        return if mean > capacity { 1.0 } else { 0.0 };
    }
    q((capacity - mean) / sd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilities_are_normalized_and_monotone() {
        for u in [
            UtilityFunction::Hard,
            UtilityFunction::Elastic { exponent: 0.5 },
            UtilityFunction::Adaptive { min_share: 0.6 },
        ] {
            assert_eq!(u.eval(1.0), 1.0, "{u:?}");
            assert_eq!(u.eval(0.0), 0.0, "{u:?}");
            let mut last = -1.0;
            for k in 0..=20 {
                let v = u.eval(k as f64 / 20.0);
                assert!(v >= last - 1e-12, "{u:?} not monotone at {k}");
                last = v;
            }
        }
    }

    #[test]
    fn hard_utility_recovers_overflow_probability() {
        for &(m, sd, c) in &[(90.0, 5.0, 100.0), (98.0, 4.0, 100.0), (50.0, 10.0, 100.0)] {
            let loss = expected_utility_loss(m, sd, c, UtilityFunction::Hard);
            let pf = hard_loss_reference(m, sd, c);
            assert!(
                (loss - pf).abs() < 1e-9,
                "loss {loss} vs pf {pf} at ({m},{sd},{c})"
            );
        }
    }

    #[test]
    fn adaptive_apps_lose_less_than_inelastic() {
        let (m, sd, c) = (98.0, 4.0, 100.0);
        let hard = expected_utility_loss(m, sd, c, UtilityFunction::Hard);
        let elastic = expected_utility_loss(m, sd, c, UtilityFunction::Elastic { exponent: 0.5 });
        let adaptive =
            expected_utility_loss(m, sd, c, UtilityFunction::Adaptive { min_share: 0.5 });
        assert!(elastic < hard, "elastic {elastic} vs hard {hard}");
        assert!(adaptive < hard, "adaptive {adaptive} vs hard {hard}");
    }

    #[test]
    fn utility_loss_increases_with_load() {
        let u = UtilityFunction::Elastic { exponent: 0.7 };
        let mut last = 0.0;
        for &m in &[80.0, 90.0, 95.0, 100.0, 110.0] {
            let loss = expected_utility_loss(m, 5.0, 100.0, u);
            assert!(loss > last, "loss must grow with load: {loss} at m={m}");
            last = loss;
        }
    }

    #[test]
    fn deterministic_demand_edge_cases() {
        let u = UtilityFunction::Elastic { exponent: 1.0 };
        // Exactly fits: no loss.
        assert_eq!(expected_utility_loss(100.0, 0.0, 100.0, u), 0.0);
        // 25% overload, linear utility: share 0.8 → loss 0.2.
        let loss = expected_utility_loss(125.0, 0.0, 100.0, u);
        assert!((loss - 0.2).abs() < 1e-12);
    }

    #[test]
    fn admissible_count_solves_the_loss_equation() {
        let flow = FlowStats::from_mean_sd(1.0, 0.3);
        let u = UtilityFunction::Elastic { exponent: 0.5 };
        let eps = 1e-3;
        let m = admissible_flows_utility(flow, 100.0, eps, u);
        let realized = expected_utility_loss(m * flow.mean, (m * flow.variance).sqrt(), 100.0, u);
        assert!(
            (realized / eps - 1.0).abs() < 1e-4,
            "m={m}, realized {realized}"
        );
    }

    #[test]
    fn adaptive_apps_admit_more_flows_at_equal_loss() {
        // The §7 question, answered: at the same ε, elastic utilities
        // admit more flows than the hard (overflow-probability) metric.
        let flow = FlowStats::from_mean_sd(1.0, 0.3);
        let eps = 1e-3;
        let m_hard = admissible_flows_utility(flow, 100.0, eps, UtilityFunction::Hard);
        let m_elastic =
            admissible_flows_utility(flow, 100.0, eps, UtilityFunction::Elastic { exponent: 0.5 });
        // Hard metric must agree with the eqn (4) Gaussian count.
        let gauss =
            crate::admission::gaussian_admissible_count(1.0, 0.3, mbac_num::inv_q(eps), 100.0);
        assert!(
            (m_hard - gauss).abs() < 0.5,
            "m_hard {m_hard} vs gaussian {gauss}"
        );
        assert!(
            m_elastic > m_hard + 1.0,
            "elastic {m_elastic} should beat hard {m_hard}"
        );
    }

    #[test]
    fn floor_utility_between_hard_and_elastic() {
        let flow = FlowStats::from_mean_sd(1.0, 0.3);
        let eps = 1e-3;
        let m_hard = admissible_flows_utility(flow, 100.0, eps, UtilityFunction::Hard);
        let m_floor = admissible_flows_utility(
            flow,
            100.0,
            eps,
            UtilityFunction::Adaptive { min_share: 0.9 },
        );
        let m_elastic =
            admissible_flows_utility(flow, 100.0, eps, UtilityFunction::Elastic { exponent: 0.5 });
        assert!(
            m_hard <= m_floor + 0.5 && m_floor <= m_elastic + 0.5,
            "ordering: hard {m_hard} ≤ floor {m_floor} ≤ elastic {m_elastic}"
        );
    }
}
