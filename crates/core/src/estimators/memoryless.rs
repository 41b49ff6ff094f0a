//! The memoryless estimator of eqns (7) and (23): admission decisions
//! are based solely on the *current* bandwidths of the flows in the
//! system. This is the scheme whose fragility §4.1–4.2 of the paper
//! quantifies.

use super::{moment_stats, Estimate, Estimator};
use mbac_num::SnapshotMoments;

/// Memoryless cross-flow estimator: `estimate()` returns the sample mean
/// and variance of the most recent snapshot only.
#[derive(Debug, Clone, Default)]
pub struct MemorylessEstimator {
    last: Option<Estimate>,
    last_t: f64,
    dropped: u64,
}

impl MemorylessEstimator {
    /// Creates an empty memoryless estimator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Estimator for MemorylessEstimator {
    fn estimate(&self) -> Option<Estimate> {
        self.last
    }

    fn reset(&mut self) {
        *self = Self::default();
    }

    fn memory_timescale(&self) -> f64 {
        0.0
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn observe_moments(&mut self, t: f64, moments: &SnapshotMoments) {
        debug_assert!(
            t >= self.last_t || self.last.is_none(),
            "snapshot times must be non-decreasing"
        );
        self.last_t = t;
        // A non-finite snapshot keeps the last estimate: NaN or ±∞ would
        // otherwise turn the admissible count into NaN.
        if !moments.is_finite() {
            self.dropped += 1;
            return;
        }
        // `snapshot_stats`' arithmetic: an empty snapshot keeps the last
        // estimate too.
        if let Some(e) = moment_stats(moments) {
            self.last = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_only_latest_snapshot() {
        let mut e = MemorylessEstimator::new();
        assert!(e.estimate().is_none());
        e.observe(0.0, &[1.0, 1.0, 1.0]);
        assert_eq!(e.estimate().unwrap().mean, 1.0);
        e.observe(1.0, &[5.0, 5.0, 5.0]);
        // No memory: the earlier snapshot is gone.
        assert_eq!(e.estimate().unwrap().mean, 5.0);
        assert_eq!(e.estimate().unwrap().variance, 0.0);
    }

    #[test]
    fn empty_snapshot_keeps_previous_estimate() {
        let mut e = MemorylessEstimator::new();
        e.observe(0.0, &[2.0, 4.0]);
        e.observe(1.0, &[]);
        assert_eq!(e.estimate().unwrap().mean, 3.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut e = MemorylessEstimator::new();
        e.observe(0.0, &[1.0]);
        e.reset();
        assert!(e.estimate().is_none());
    }

    #[test]
    fn memory_timescale_is_zero() {
        assert_eq!(MemorylessEstimator::new().memory_timescale(), 0.0);
    }
}
