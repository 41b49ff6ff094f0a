//! Prior-smoothed estimation — the Gibbens–Kelly–Key mechanism (§6).
//!
//! Gibbens, Kelly & Key (JSAC '95) stabilize memoryless measurement-
//! based admission by weighting observations against a **fixed Bayesian
//! prior** on the flow statistics: the decision statistic is a convex
//! combination of the prior belief and the current measurement,
//!
//! `μ̂_post = (w·μ₀ + n·μ̂_obs) / (w + n)`
//!
//! (conjugate-normal posterior mean with prior pseudo-count `w`, and
//! analogously for the variance). Grossglauser & Tse's §6 comparison:
//! this smooths estimate fluctuations like their memory `T_m` does, but
//! requires a trustworthy prior; when the prior is wrong the controller
//! is persistently biased, whereas the memory window is prior-free.
//! This estimator exists so the benches can stage exactly that
//! comparison.

use super::{moment_stats, Estimate, Estimator};
use crate::params::FlowStats;
use mbac_num::SnapshotMoments;

/// Memoryless estimator shrunk toward a fixed prior with pseudo-count
/// weight `w`.
#[derive(Debug, Clone)]
pub struct PriorSmoothedEstimator {
    prior: FlowStats,
    weight: f64,
    last: Option<(Estimate, usize)>,
    dropped: u64,
}

impl PriorSmoothedEstimator {
    /// Creates the estimator with a prior belief and its pseudo-count
    /// weight (how many observed flows the prior is worth).
    ///
    /// # Panics
    /// Panics if `weight` is negative or non-finite.
    pub fn new(prior: FlowStats, weight: f64) -> Self {
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "prior weight must be finite and >= 0"
        );
        PriorSmoothedEstimator {
            prior,
            weight,
            last: None,
            dropped: 0,
        }
    }

    /// The prior belief.
    pub fn prior(&self) -> FlowStats {
        self.prior
    }

    /// The prior pseudo-count.
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

impl Estimator for PriorSmoothedEstimator {
    fn observe_moments(&mut self, _t: f64, moments: &SnapshotMoments) {
        // A non-finite snapshot keeps the last estimate.
        if !moments.is_finite() {
            self.dropped += 1;
            return;
        }
        if let Some(e) = moment_stats(moments) {
            self.last = Some((e, moments.count()));
        }
    }

    fn estimate(&self) -> Option<Estimate> {
        let (obs, n) = self.last?;
        let n = n as f64;
        let denom = self.weight + n;
        if denom == 0.0 {
            return Some(obs);
        }
        Some(Estimate::new(
            (self.weight * self.prior.mean + n * obs.mean) / denom,
            (self.weight * self.prior.variance + n * obs.variance) / denom,
        ))
    }

    fn reset(&mut self) {
        self.last = None;
        self.dropped = 0;
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn memory_timescale(&self) -> f64 {
        // The prior acts like extra (timeless) samples, not a time
        // window; report 0 so the sampling-spacing arithmetic treats it
        // as memoryless, which is how §6 characterizes it.
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prior() -> FlowStats {
        FlowStats::from_mean_sd(1.0, 0.3)
    }

    #[test]
    fn zero_weight_is_pure_measurement() {
        let mut e = PriorSmoothedEstimator::new(prior(), 0.0);
        e.observe(0.0, &[2.0, 2.0]);
        assert!((e.estimate().unwrap().mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn huge_weight_is_pure_prior() {
        let mut e = PriorSmoothedEstimator::new(prior(), 1e12);
        e.observe(0.0, &[5.0, 5.0, 5.0]);
        let est = e.estimate().unwrap();
        assert!((est.mean - 1.0).abs() < 1e-6);
        assert!((est.variance - 0.09).abs() < 1e-6);
    }

    #[test]
    fn posterior_interpolates_by_counts() {
        // Prior worth 2 flows, observe 2 flows: midpoint.
        let mut e = PriorSmoothedEstimator::new(prior(), 2.0);
        e.observe(0.0, &[3.0, 3.0]);
        let est = e.estimate().unwrap();
        assert!((est.mean - 2.0).abs() < 1e-12, "mean {}", est.mean);
    }

    #[test]
    fn smoothing_reduces_estimate_variance() {
        // Alternating snapshots: the smoothed estimate swings less.
        let swing = |w: f64| {
            let mut e = PriorSmoothedEstimator::new(prior(), w);
            let mut values = Vec::new();
            for k in 0..100 {
                let v = if k % 2 == 0 { 0.5 } else { 1.5 };
                e.observe(k as f64, &[v, v]);
                values.push(e.estimate().unwrap().mean);
            }
            mbac_num::variance(&values)
        };
        assert!(swing(20.0) < swing(0.0) / 10.0);
    }

    #[test]
    fn wrong_prior_biases_persistently() {
        // The §6 caveat: a prior that understates the mean keeps the
        // posterior below the truth no matter how long we observe
        // (the snapshot size, not time, bounds the data weight).
        let wrong = FlowStats::from_mean_sd(0.5, 0.1);
        let mut e = PriorSmoothedEstimator::new(wrong, 50.0);
        for k in 0..1000 {
            e.observe(k as f64, &[2.0, 2.0, 2.0, 2.0]); // truth: mean 2
        }
        let est = e.estimate().unwrap();
        assert!(
            est.mean < 1.9,
            "posterior mean {} stays biased toward the prior",
            est.mean
        );
    }

    #[test]
    fn cold_start_is_none_then_reset_works() {
        let mut e = PriorSmoothedEstimator::new(prior(), 5.0);
        assert!(e.estimate().is_none());
        e.observe(0.0, &[1.0]);
        assert!(e.estimate().is_some());
        e.reset();
        assert!(e.estimate().is_none());
    }
}
