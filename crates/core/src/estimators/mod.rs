//! On-line estimators of per-flow traffic statistics.
//!
//! The measurement half of an MBAC: each estimator consumes *snapshots*
//! of the instantaneous bandwidths of the flows currently in the system
//! and maintains an estimate of the per-flow mean `μ̂` and variance
//! `σ̂²`. The admission criteria in [`crate::admission`] consume these
//! estimates in a certainty-equivalent fashion.
//!
//! Implemented estimators:
//! * [`MemorylessEstimator`] — the paper's eqn (7)/(23): use only the
//!   current snapshot;
//! * [`FilteredEstimator`] — the paper's §4.3 exponentially-weighted
//!   (first-order auto-regressive) filter with memory time-scale `T_m`;
//! * [`WindowEstimator`] — rectangular sliding window, an alternative
//!   memory kernel used for ablation;
//! * [`heterogeneous`] — per-class estimation for non-homogeneous flows
//!   (paper §5.4).

mod aggregate_only;
mod filtered;
pub mod heterogeneous;
mod memoryless;
mod prior;
mod window;

pub use aggregate_only::AggregateOnlyEstimator;
pub use filtered::FilteredEstimator;
pub use memoryless::MemorylessEstimator;
pub use prior::PriorSmoothedEstimator;
pub use window::WindowEstimator;

use crate::params::FlowStats;
use mbac_num::{RateMoments, SnapshotMoments};

/// An estimate of per-flow statistics. Unlike [`FlowStats`] this carries
/// no positivity invariants, because a measured mean can legitimately be
/// zero (e.g. all sampled flows momentarily silent).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Estimate {
    /// Estimated per-flow mean bandwidth `μ̂`.
    pub mean: f64,
    /// Estimated per-flow bandwidth variance `σ̂²`.
    pub variance: f64,
}

impl Estimate {
    /// Creates an estimate.
    pub fn new(mean: f64, variance: f64) -> Self {
        Estimate { mean, variance }
    }

    /// Estimated standard deviation `σ̂` (clamped at zero).
    pub fn std_dev(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

impl From<FlowStats> for Estimate {
    fn from(f: FlowStats) -> Self {
        Estimate {
            mean: f.mean,
            variance: f.variance,
        }
    }
}

/// A statistics estimator fed with per-flow bandwidth snapshots.
///
/// A snapshot reaches an estimator as its sufficient statistics, a
/// [`SnapshotMoments`] (`n`, `Σx`, pivoted `Σ(x−c)` / `Σ(x−c)²`):
/// eqn (7), eqn (23) and the §4.3 filter read nothing else of it.
/// Whoever holds the rates folds them — the simulator's tick kernel,
/// a serve measurement where it is generated, or
/// [`Estimator::observe`] for a caller that holds a rate slice.
pub trait Estimator {
    /// Consumes one observation at time `t` as the fold of its rates —
    /// O(1) in the number of flows. Observation times must be
    /// non-decreasing across calls. An empty observation carries
    /// nothing, and a non-finite one (a NaN or ±∞ rate) is dropped and
    /// counted ([`Estimator::dropped`]): either keeps the estimate as it
    /// was.
    fn observe_moments(&mut self, t: f64, moments: &SnapshotMoments);

    /// How many non-finite observations this estimator has dropped
    /// since it was made or last reset. An empty one is not counted: it
    /// carries nothing, and a link with no flows measures one.
    fn dropped(&self) -> u64 {
        0
    }

    /// Current estimate, or `None` before enough data has been seen.
    fn estimate(&self) -> Option<Estimate>;

    /// Clears all state, the [`Estimator::dropped`] count included.
    fn reset(&mut self);

    /// The memory time-scale `T_m` of this estimator (0 for memoryless).
    fn memory_timescale(&self) -> f64;

    /// Consumes a snapshot held as rates: at time `t`, the flows in the
    /// system have the instantaneous bandwidths in `rates`. One fold
    /// around the current mean estimate (the first rate on a cold
    /// start; [`fold_snapshot`]), then [`Estimator::observe_moments`].
    fn observe(&mut self, t: f64, rates: &[f64]) {
        let pivot = self.estimate().map(|e| e.mean);
        self.observe_moments(t, &fold_snapshot(rates, pivot));
    }

    /// The pivot the tick kernels should center the second moment on:
    /// the current mean estimate when one exists (best conditioning),
    /// else 0. Any finite value is correct.
    fn moment_pivot(&self) -> f64 {
        self.estimate().map(|e| e.mean).unwrap_or(0.0)
    }
}

/// Cross-sectional sample statistics of one snapshot: the paper's
/// memoryless estimators of eqn (7),
/// `μ̂ = (1/n)Σ Xᵢ`, `σ̂² = (1/(n−1))Σ (Xᵢ − μ̂)²`.
///
/// Returns `None` for an empty snapshot; the variance is 0 for a
/// single-flow snapshot. One pass: the snapshot folded around its first
/// rate.
pub fn snapshot_stats(rates: &[f64]) -> Option<Estimate> {
    moment_stats(&fold_snapshot(rates, None))
}

/// The one pass a slice observation makes: `rates` folded into
/// [`RateMoments`] around `pivot`, or around the first rate when there
/// is no estimate to center on yet, and reduced. `pivot: None` is also
/// the rule of a producer that cannot know the consumer's estimate — a
/// serve measurement, folded where it is generated.
pub fn fold_snapshot(rates: &[f64], pivot: Option<f64>) -> SnapshotMoments {
    let pivot = pivot.or(rates.first().copied()).unwrap_or(0.0);
    RateMoments::of(pivot, rates).reduce()
}

/// The eqn (7) statistics of folded moments: the mean, and the unbiased
/// variance around it (`None` when empty).
pub(crate) fn moment_stats(moments: &SnapshotMoments) -> Option<Estimate> {
    (moments.count() > 0).then(|| {
        let mean = moments.mean();
        Estimate {
            mean,
            variance: moments.variance_around(mean),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_stats_basic() {
        let e = snapshot_stats(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((e.mean - 2.5).abs() < 1e-12);
        // Sample variance with n-1: ((1.5²+0.5²)*2)/3 = 5/3
        assert!((e.variance - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_stats_edge_cases() {
        assert!(snapshot_stats(&[]).is_none());
        let one = snapshot_stats(&[7.0]).unwrap();
        assert_eq!(one.mean, 7.0);
        assert_eq!(one.variance, 0.0);
    }

    #[test]
    fn estimate_flow_stats_conversion() {
        let e = Estimate::from(FlowStats::new(1.0, 0.5));
        assert_eq!((e.mean, e.variance), (1.0, 0.5));
        let e = Estimate::new(2.0, 0.25);
        assert!((e.std_dev() - 0.5).abs() < 1e-15);
    }
}
