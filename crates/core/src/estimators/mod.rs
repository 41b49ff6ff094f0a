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
use mbac_num::RateMoments;

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

    /// Converts to validated [`FlowStats`] when the estimate is physical.
    pub fn to_flow_stats(&self) -> Option<FlowStats> {
        if self.mean > 0.0 && self.variance >= 0.0 {
            Some(FlowStats::new(self.mean, self.variance))
        } else {
            None
        }
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
pub trait Estimator {
    /// Consumes a snapshot: at time `t`, the flows in the system have
    /// the instantaneous bandwidths in `rates`. Snapshot times must be
    /// non-decreasing across calls.
    fn observe(&mut self, t: f64, rates: &[f64]);

    /// Current estimate, or `None` before enough data has been seen.
    fn estimate(&self) -> Option<Estimate>;

    /// Clears all state.
    fn reset(&mut self);

    /// The memory time-scale `T_m` of this estimator (0 for memoryless).
    fn memory_timescale(&self) -> f64;

    /// Whether this estimator can consume a pre-reduced
    /// [`RateMoments`] observation instead of the raw rate slice. The
    /// fused tick kernels gate on this once per run; `false` keeps the
    /// slice path.
    fn supports_moments(&self) -> bool {
        false
    }

    /// Consumes one observation as sufficient statistics (`n`, `Σx`,
    /// pivoted `Σ(x−c)` / `Σ(x−c)²`) reduced inside the tick kernel —
    /// O(1) in the number of flows. Must be equivalent to
    /// [`Estimator::observe`] on the same snapshot: the mean path is
    /// bit-identical by construction (a slice `observe` folds its
    /// snapshot into [`RateMoments`] too, and `Σx` does not depend on
    /// the pivot), the variance agrees to ~1e-15 relative
    /// (property-tested at 1e-12).
    ///
    /// # Panics
    /// The default panics; only call when [`Estimator::supports_moments`]
    /// returns `true`.
    fn observe_moments(&mut self, t: f64, moments: &RateMoments) {
        let _ = (t, moments);
        panic!("estimator does not support moment observations");
    }

    /// The pivot the fused kernels should center the second moment on:
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
/// is no estimate to center on yet.
pub(crate) fn fold_snapshot(rates: &[f64], pivot: Option<f64>) -> RateMoments {
    let pivot = pivot.or(rates.first().copied()).unwrap_or(0.0);
    RateMoments::of(pivot, rates)
}

/// The eqn (7) statistics of folded moments: the mean, and the unbiased
/// variance around it (`None` when empty).
pub(crate) fn moment_stats(moments: &RateMoments) -> Option<Estimate> {
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
        assert!(Estimate::new(1.0, 0.5).to_flow_stats().is_some());
        assert!(Estimate::new(0.0, 0.5).to_flow_stats().is_none());
        assert!(Estimate::new(1.0, -0.1).to_flow_stats().is_none());
        let e = Estimate::new(2.0, 0.25);
        assert!((e.std_dev() - 0.5).abs() < 1e-15);
    }
}
