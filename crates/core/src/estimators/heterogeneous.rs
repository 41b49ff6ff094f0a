//! Heterogeneous-flow estimation (paper §5.4).
//!
//! With flows of different mean rates, the homogeneous variance
//! estimator of eqn (7) — which measures spread around the *common*
//! sample mean — is biased upward by the between-class spread of the
//! means. The paper notes the resulting MBAC is conservative but robust.
//! If flow classification is available, a per-class estimator removes
//! the bias. Both are implemented here, together with an aggregate view
//! suitable for an aggregate Gaussian admission test.

use super::{fold_snapshot, Estimate, Estimator, FilteredEstimator};

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

/// Per-class estimator: one §4.3 [`FilteredEstimator`] per traffic
/// class, each fed the class's own slice of the snapshot, plus the
/// class's flow count.
///
/// `estimate_class` gives per-flow statistics for one class;
/// `aggregate` sums them into whole-link statistics (independent flows:
/// means and variances add).
#[derive(Debug, Clone)]
pub struct ClassifiedEstimator {
    classes: Vec<FilteredEstimator>,
    counts: Vec<usize>,
    dropped: u64,
}

impl ClassifiedEstimator {
    /// Creates a per-class estimator for `num_classes` classes with
    /// exponential memory `t_m` (0 = memoryless).
    pub fn new(num_classes: usize, t_m: f64) -> Self {
        assert!(num_classes > 0, "need at least one class");
        ClassifiedEstimator {
            classes: vec![FilteredEstimator::new(t_m); num_classes],
            counts: vec![0; num_classes],
            dropped: 0,
        }
    }

    /// Consumes a classified snapshot: `(class index, instantaneous
    /// rate)` for every flow in the system. A class with a non-finite
    /// rate in it keeps its state and its count, and is counted
    /// ([`ClassifiedEstimator::dropped`]). A class absent from the
    /// snapshot keeps its state, so its next gain spans the time since
    /// it was last present.
    ///
    /// # Panics
    /// Panics if a class index is out of range.
    pub fn observe(&mut self, t: f64, flows: &[(usize, f64)]) {
        let num_classes = self.classes.len();
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); num_classes];
        for &(k, rate) in flows {
            assert!(
                k < num_classes,
                "class index {k} out of range (< {num_classes})"
            );
            buckets[k].push(rate);
        }
        for ((class, count), rates) in self.classes.iter_mut().zip(&mut self.counts).zip(&buckets) {
            // The fold the filter's own slice `observe` makes, checked
            // here so that a class holding a NaN or ±∞ rate keeps its
            // count as well as its state.
            let moments = fold_snapshot(rates, class.estimate().map(|e| e.mean));
            if moments.is_finite() {
                *count = rates.len();
                class.observe_moments(t, &moments);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// How many class observations have been dropped for a non-finite
    /// rate since the estimator was made or last reset: one a class a
    /// snapshot.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-flow estimate for one class, or `None` if that class has
    /// never been observed.
    pub fn estimate_class(&self, class: usize) -> Option<Estimate> {
        self.classes.get(class)?.estimate()
    }

    /// Whole-link aggregate: sums per-class `count·mean` and
    /// `count·variance` (independence across flows).
    pub fn aggregate(&self) -> AggregateEstimate {
        let mut agg = AggregateEstimate::default();
        for (class, &count) in self.classes.iter().zip(&self.counts) {
            if let Some(e) = class.estimate() {
                agg.mean += count as f64 * e.mean;
                agg.variance += count as f64 * e.variance;
                agg.flows += count;
            }
        }
        agg
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.classes.iter_mut().for_each(Estimator::reset);
        self.counts.fill(0);
        self.dropped = 0;
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
        assert_eq!(est.aggregate().flows, 1);
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
    /// count as they were, and is counted dropped; the other class still
    /// moves.
    #[test]
    fn a_non_finite_rate_skips_only_its_class() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut est = ClassifiedEstimator::new(2, 1.0);
            est.observe(0.0, &[(0, 1.0), (0, 3.0), (1, 10.0)]);
            let class0 = est.estimate_class(0).unwrap();
            est.observe(1.0, &[(0, 2.0), (0, bad), (0, 5.0), (1, 20.0)]);
            assert_eq!(est.estimate_class(0), Some(class0), "{bad}");
            assert_eq!(est.dropped(), 1, "{bad}");
            // Class 0 keeps its 2 flows; class 1 holds 1.
            assert_eq!(est.aggregate().flows, 3, "{bad}");
            assert!(est.estimate_class(1).unwrap().mean > 10.0, "{bad}");
            est.observe(2.0, &[(0, 2.0), (1, 20.0)]);
            let class0 = est.estimate_class(0).unwrap();
            assert!(
                class0.mean.is_finite() && class0.variance.is_finite(),
                "{bad}"
            );
            assert_eq!(est.aggregate().flows, 2, "{bad}");
        }
    }

    /// A class missing from a snapshot keeps its filter untouched: its
    /// next gain spans the time since it was last present.
    #[test]
    fn an_absent_class_filters_over_the_time_since_it_was_seen() {
        let mut est = ClassifiedEstimator::new(2, 1.0);
        est.observe(0.0, &[(0, 0.0), (1, 0.0)]);
        est.observe(1.0, &[(1, 5.0)]);
        assert_eq!(est.estimate_class(0).unwrap().mean, 0.0);
        est.observe(2.0, &[(0, 10.0), (1, 5.0)]);
        let want = 10.0 * (1.0 - (-2.0f64).exp());
        assert!((est.estimate_class(0).unwrap().mean - want).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_class() {
        let mut est = ClassifiedEstimator::new(1, 0.0);
        est.observe(0.0, &[(1, 1.0)]);
    }
}
