//! Shared parameter types: per-flow statistics and QoS targets, used by
//! admission criteria and theory formulas.

use mbac_num::inv_q;

/// First- and second-order statistics of a single flow's stationary
/// bandwidth process: mean `μ` and variance `σ²`.
///
/// The paper's basic model (§2) assumes flows are i.i.d. with these two
/// moments; everything the admission controller needs — whether known a
/// priori or measured — is carried by this pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowStats {
    /// Mean bandwidth `μ` of one flow.
    pub mean: f64,
    /// Variance `σ²` of one flow's bandwidth.
    pub variance: f64,
}

impl FlowStats {
    /// Creates flow statistics from mean and variance.
    ///
    /// # Panics
    /// Panics unless `mean > 0` and `variance >= 0`.
    pub fn new(mean: f64, variance: f64) -> Self {
        assert!(mean > 0.0, "flow mean must be positive, got {mean}");
        assert!(
            variance >= 0.0,
            "flow variance must be non-negative, got {variance}"
        );
        FlowStats { mean, variance }
    }

    /// Creates flow statistics from mean and *standard deviation*.
    pub fn from_mean_sd(mean: f64, sd: f64) -> Self {
        assert!(sd >= 0.0);
        Self::new(mean, sd * sd)
    }

    /// Standard deviation `σ`.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Coefficient of variation `σ/μ` (the paper's simulations use 0.3).
    #[inline]
    pub fn cov(&self) -> f64 {
        self.std_dev() / self.mean
    }
}

/// A quality-of-service target expressed as an overflow probability
/// `p_q`, together with its Gaussian safety factor `α_q = Q⁻¹(p_q)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosTarget {
    /// Target overflow probability `p_q ∈ (0, 1)`.
    pub p: f64,
    /// Cached `α_q = Q⁻¹(p_q)`.
    alpha: f64,
}

impl QosTarget {
    /// Creates a target from an overflow probability.
    ///
    /// # Panics
    /// Panics unless `p ∈ (0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "QoS target must be in (0,1), got {p}");
        QosTarget { p, alpha: inv_q(p) }
    }

    /// The safety factor `α_q = Q⁻¹(p_q)`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbac_num::q;

    #[test]
    fn flow_stats_derived_quantities() {
        let f = FlowStats::from_mean_sd(1.0, 0.3);
        assert!((f.variance - 0.09).abs() < 1e-15);
        assert!((f.std_dev() - 0.3).abs() < 1e-15);
        assert!((f.cov() - 0.3).abs() < 1e-15);
    }

    #[test]
    fn qos_alpha_roundtrip() {
        let t = QosTarget::new(1e-3);
        assert!((q(t.alpha()) - 1e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_mean() {
        FlowStats::new(0.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_qos() {
        QosTarget::new(0.0);
    }
}
