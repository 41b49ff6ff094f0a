//! Heterogeneous-flow estimation (paper §5.4).
//!
//! With flows of different mean rates, the homogeneous variance
//! estimator of eqn (7) — which measures spread around the *common*
//! sample mean — is biased upward by the between-class spread of the
//! means. The paper notes the resulting MBAC is conservative but robust.
//! If flow classification is available, a per-class estimator removes
//! the bias. Both are implemented here, together with an aggregate view
//! suitable for an aggregate Gaussian admission test.

use super::{fold_snapshot, moment_stats, Estimate};

/// Aggregate (whole-link) statistics: total mean load and total variance
/// of the instantaneous aggregate bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AggregateEstimate {
    /// Estimated mean of the aggregate bandwidth.
    pub mean: f64,
    /// Estimated variance of the aggregate bandwidth.
    pub variance: f64,
    /// Number of flows contributing.
    pub flows: usize,
}

/// Per-class estimator: maintains an exponentially-filtered mean and
/// variance for each traffic class separately.
///
/// `estimate_class` gives per-flow statistics for one class;
/// `aggregate` sums them into whole-link statistics (independent flows:
/// means and variances add).
#[derive(Debug, Clone)]
pub struct ClassifiedEstimator {
    t_m: f64,
    classes: Vec<ClassState>,
    last_t: Option<f64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct ClassState {
    mean: f64,
    variance: f64,
    count: usize,
    initialized: bool,
}

impl ClassifiedEstimator {
    /// Creates a per-class estimator for `num_classes` classes with
    /// exponential memory `t_m` (0 = memoryless).
    pub fn new(num_classes: usize, t_m: f64) -> Self {
        assert!(num_classes > 0, "need at least one class");
        assert!(t_m >= 0.0 && t_m.is_finite());
        ClassifiedEstimator {
            t_m,
            classes: vec![ClassState::default(); num_classes],
            last_t: None,
        }
    }

    /// Consumes a classified snapshot: `(class index, instantaneous
    /// rate)` for every flow in the system. A class with a non-finite
    /// rate in it is skipped.
    ///
    /// # Panics
    /// Panics if a class index is out of range.
    pub fn observe(&mut self, t: f64, flows: &[(usize, f64)]) {
        let gain = match self.last_t {
            None => 1.0,
            Some(lt) => {
                debug_assert!(t >= lt);
                if self.t_m == 0.0 {
                    1.0
                } else {
                    1.0 - (-(t - lt) / self.t_m).exp()
                }
            }
        };
        self.last_t = Some(t);
        let num_classes = self.classes.len();
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); num_classes];
        for &(k, rate) in flows {
            assert!(
                k < num_classes,
                "class index {k} out of range (< {num_classes})"
            );
            buckets[k].push(rate);
        }
        for (k, rates) in buckets.iter().enumerate() {
            let state = &mut self.classes[k];
            let moments = fold_snapshot(rates, state.initialized.then_some(state.mean));
            // A NaN or ±∞ rate would poison the class's filter for the
            // rest of the run: the class keeps its state and its count.
            if !moments.is_finite() {
                continue;
            }
            state.count = rates.len();
            let Some(snap) = moment_stats(&moments) else {
                continue;
            };
            if !state.initialized {
                state.mean = snap.mean;
                state.variance = snap.variance;
                state.initialized = true;
            } else {
                state.mean += gain * (snap.mean - state.mean);
                // Spread around the filtered per-class mean.
                let v = moments.variance_around(state.mean);
                state.variance += gain * (v - state.variance);
            }
        }
    }

    /// Per-flow estimate for one class, or `None` if that class has
    /// never been observed.
    pub fn estimate_class(&self, class: usize) -> Option<Estimate> {
        let s = self.classes.get(class)?;
        if s.initialized {
            Some(Estimate::new(s.mean, s.variance))
        } else {
            None
        }
    }

    /// Current number of flows counted in a class.
    pub fn class_count(&self, class: usize) -> usize {
        self.classes.get(class).map_or(0, |s| s.count)
    }

    /// Whole-link aggregate: sums per-class `count·mean` and
    /// `count·variance` (independence across flows).
    pub fn aggregate(&self) -> AggregateEstimate {
        let mut agg = AggregateEstimate::default();
        for s in &self.classes {
            if s.initialized {
                agg.mean += s.count as f64 * s.mean;
                agg.variance += s.count as f64 * s.variance;
                agg.flows += s.count;
            }
        }
        agg
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        for s in &mut self.classes {
            *s = ClassState::default();
        }
        self.last_t = None;
    }
}

/// Expected upward bias of the naive (unclassified) per-flow variance
/// estimator when flow means differ: the between-class variance of the
/// means,
///
/// `bias = Σ_k w_k (μ_k − μ̄)²`,   `μ̄ = Σ_k w_k μ_k`,
///
/// where `w_k` is the fraction of flows in class `k`. The paper (§5.4)
/// concludes the naive estimator "is always biased … and over-estimates
/// the variance"; this function quantifies by how much.
pub fn naive_variance_bias(class_means: &[f64], class_fractions: &[f64]) -> f64 {
    assert_eq!(class_means.len(), class_fractions.len());
    let wsum: f64 = class_fractions.iter().sum();
    assert!(wsum > 0.0);
    let mbar: f64 = class_means
        .iter()
        .zip(class_fractions)
        .map(|(&m, &w)| m * w)
        .sum::<f64>()
        / wsum;
    class_means
        .iter()
        .zip(class_fractions)
        .map(|(&m, &w)| w / wsum * (m - mbar) * (m - mbar))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::snapshot_stats;

    #[test]
    fn per_class_estimates_are_unbiased() {
        let mut est = ClassifiedEstimator::new(2, 0.0);
        // Class 0: rates around 1; class 1: rates around 10.
        est.observe(0.0, &[(0, 0.9), (0, 1.1), (1, 9.5), (1, 10.5)]);
        let c0 = est.estimate_class(0).unwrap();
        let c1 = est.estimate_class(1).unwrap();
        assert!((c0.mean - 1.0).abs() < 1e-12);
        assert!((c1.mean - 10.0).abs() < 1e-12);
        // Within-class variances are small (0.02, 0.5), nothing like the
        // between-class spread.
        assert!(c0.variance < 0.1);
        assert!(c1.variance < 1.0);
    }

    #[test]
    fn naive_estimator_overestimates_variance() {
        // The same snapshot, pooled: the sample variance is dominated by
        // the between-class mean gap.
        let rates = [0.9, 1.1, 9.5, 10.5];
        let pooled = snapshot_stats(&rates).unwrap();
        assert!(
            pooled.variance > 20.0,
            "pooled variance {} should reflect the 9-unit mean gap",
            pooled.variance
        );
        let bias = naive_variance_bias(&[1.0, 10.0], &[0.5, 0.5]);
        assert!((bias - 20.25).abs() < 1e-12, "bias = {bias}");
    }

    #[test]
    fn bias_vanishes_for_equal_means() {
        assert!(naive_variance_bias(&[5.0, 5.0, 5.0], &[0.2, 0.3, 0.5]).abs() < 1e-15);
    }

    #[test]
    fn aggregate_sums_classes() {
        let mut est = ClassifiedEstimator::new(2, 0.0);
        est.observe(0.0, &[(0, 1.0), (0, 1.0), (0, 1.0), (1, 10.0), (1, 10.0)]);
        let agg = est.aggregate();
        assert_eq!(agg.flows, 5);
        assert!((agg.mean - 23.0).abs() < 1e-12);
    }

    #[test]
    fn unobserved_class_is_none() {
        let mut est = ClassifiedEstimator::new(3, 0.0);
        est.observe(0.0, &[(0, 1.0)]);
        assert!(est.estimate_class(1).is_none());
        assert!(est.estimate_class(2).is_none());
        assert_eq!(est.class_count(0), 1);
    }

    #[test]
    fn filtering_smooths_class_means() {
        let mut est = ClassifiedEstimator::new(1, 10.0);
        est.observe(0.0, &[(0, 0.0), (0, 0.0)]);
        est.observe(1.0, &[(0, 10.0), (0, 10.0)]);
        let m = est.estimate_class(0).unwrap().mean;
        // Gain = 1 - e^{-0.1} ≈ 0.095: far from the new value.
        assert!(m > 0.5 && m < 2.0, "m = {m}");
    }

    /// A NaN or ±∞ rate in one class leaves that class's estimate and
    /// count as they were; the other class still moves.
    #[test]
    fn a_non_finite_rate_skips_only_its_class() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut est = ClassifiedEstimator::new(2, 1.0);
            est.observe(0.0, &[(0, 1.0), (0, 3.0), (1, 10.0)]);
            let class0 = est.estimate_class(0).unwrap();
            est.observe(1.0, &[(0, 2.0), (0, bad), (0, 5.0), (1, 20.0)]);
            assert_eq!(est.estimate_class(0), Some(class0), "{bad}");
            assert_eq!(est.class_count(0), 2, "{bad}");
            assert!(est.estimate_class(1).unwrap().mean > 10.0, "{bad}");
            est.observe(2.0, &[(0, 2.0), (1, 20.0)]);
            let class0 = est.estimate_class(0).unwrap();
            assert!(
                class0.mean.is_finite() && class0.variance.is_finite(),
                "{bad}"
            );
            assert_eq!(est.class_count(0), 1, "{bad}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_class() {
        let mut est = ClassifiedEstimator::new(1, 0.0);
        est.observe(0.0, &[(1, 1.0)]);
    }
}
