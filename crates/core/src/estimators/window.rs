//! Rectangular sliding-window estimator.
//!
//! An alternative memory kernel to the exponential filter of §4.3: the
//! estimate is the unweighted average of the cross-flow snapshot
//! statistics over the trailing window `[t − T_w, t]`. Jamin et al.'s
//! measurement window (discussed in the paper's §6) has this shape; we
//! include it for ablation benches comparing kernel shapes at equal
//! memory time-scale.

use super::{moment_stats, Estimate, Estimator};
use mbac_num::SnapshotMoments;
use std::collections::VecDeque;

/// Sliding-window estimator with window length `T_w`.
#[derive(Debug, Clone)]
pub struct WindowEstimator {
    t_w: f64,
    samples: VecDeque<(f64, Estimate)>,
    dropped: u64,
}

impl WindowEstimator {
    /// Creates a window estimator with window length `t_w > 0`.
    ///
    /// # Panics
    /// Panics unless `t_w` is positive and finite.
    pub fn new(t_w: f64) -> Self {
        assert!(
            t_w > 0.0 && t_w.is_finite(),
            "window length must be positive and finite"
        );
        WindowEstimator {
            t_w,
            samples: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The configured window length.
    pub fn t_w(&self) -> f64 {
        self.t_w
    }

    /// Number of snapshots currently inside the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window currently holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn evict(&mut self, now: f64) {
        while let Some(&(t, _)) = self.samples.front() {
            if now - t > self.t_w {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }
}

impl Estimator for WindowEstimator {
    fn observe_moments(&mut self, t: f64, moments: &SnapshotMoments) {
        // A non-finite snapshot is ignored: it would turn every estimate
        // the window gives into NaN until it is evicted.
        if !moments.is_finite() {
            self.dropped += 1;
            return;
        }
        if let Some(e) = moment_stats(moments) {
            debug_assert!(
                self.samples.back().is_none_or(|&(lt, _)| t >= lt),
                "snapshot times must be non-decreasing"
            );
            self.samples.push_back((t, e));
        }
        self.evict(t);
    }

    fn estimate(&self) -> Option<Estimate> {
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len() as f64;
        let mean = self.samples.iter().map(|(_, e)| e.mean).sum::<f64>() / n;
        // Average the within-snapshot variances and add the between-
        // snapshot spread of the means, so the estimate reflects the
        // total per-flow variability seen over the window.
        let within = self.samples.iter().map(|(_, e)| e.variance).sum::<f64>() / n;
        let between = self
            .samples
            .iter()
            .map(|(_, e)| (e.mean - mean) * (e.mean - mean))
            .sum::<f64>()
            / n;
        Some(Estimate::new(mean, within + between))
    }

    fn reset(&mut self) {
        self.samples.clear();
        self.dropped = 0;
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn memory_timescale(&self) -> f64 {
        // The rectangular kernel of length T_w has mean age T_w/2 — the
        // same mean age as an exponential kernel with T_m = T_w/2.
        self.t_w / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_over_the_window() {
        let mut w = WindowEstimator::new(10.0);
        w.observe(0.0, &[2.0, 2.0]);
        w.observe(1.0, &[4.0, 4.0]);
        w.observe(2.0, &[6.0, 6.0]);
        let e = w.estimate().unwrap();
        assert!((e.mean - 4.0).abs() < 1e-12);
    }

    #[test]
    fn evicts_old_samples() {
        let mut w = WindowEstimator::new(5.0);
        w.observe(0.0, &[100.0, 100.0]);
        w.observe(10.0, &[2.0, 2.0]);
        // The t = 0 sample is outside [5, 10] and must be gone.
        assert_eq!(w.len(), 1);
        assert!((w.estimate().unwrap().mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn boundary_sample_is_kept() {
        let mut w = WindowEstimator::new(5.0);
        w.observe(0.0, &[1.0]);
        w.observe(5.0, &[3.0]);
        assert_eq!(w.len(), 2, "sample exactly T_w old stays in the window");
    }

    #[test]
    fn variance_includes_between_snapshot_spread() {
        let mut w = WindowEstimator::new(100.0);
        // Two snapshots with zero within-variance but different means.
        w.observe(0.0, &[0.0, 0.0]);
        w.observe(1.0, &[10.0, 10.0]);
        let e = w.estimate().unwrap();
        assert!((e.mean - 5.0).abs() < 1e-12);
        assert!((e.variance - 25.0).abs() < 1e-12, "var = {}", e.variance);
    }

    #[test]
    fn empty_window_gives_none() {
        let w = WindowEstimator::new(1.0);
        assert!(w.estimate().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn memory_timescale_is_half_window() {
        assert_eq!(WindowEstimator::new(8.0).memory_timescale(), 4.0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_window() {
        WindowEstimator::new(0.0);
    }
}
