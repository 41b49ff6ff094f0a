//! Exponentially-filtered estimator — the paper's §4.3 "MBAC with
//! memory".
//!
//! The continuous-time definition convolves the cross-flow sample mean
//! and variance with the first-order auto-regressive kernel
//! `h(t) = (1/T_m) e^{−t/T_m} u(t)`. Our simulator samples at discrete
//! (possibly irregular) times, so the filter is discretized exactly for
//! each inter-sample gap `Δ`:
//!
//! `ŷ(t) = ŷ(t−Δ) + a (x(t) − ŷ(t−Δ))`,  with  `a = 1 − e^{−Δ/T_m}`,
//!
//! which is the zero-order-hold solution of `T_m ŷ' = x − ŷ`. As
//! `T_m → 0` the gain `a → 1` and the estimator degenerates to the
//! memoryless one, exactly as in the paper.
//!
//! Per the paper's definition, the variance snapshot is taken around the
//! *filtered* mean `μ̂_m(t)`, not around the snapshot mean.

use super::{fold_snapshot, Estimate, Estimator};
use mbac_num::RateMoments;

/// First-order exponentially-weighted estimator with memory `T_m`.
#[derive(Debug, Clone)]
pub struct FilteredEstimator {
    t_m: f64,
    state: Option<FilterState>,
}

#[derive(Debug, Clone, Copy)]
struct FilterState {
    mean: f64,
    variance: f64,
    last_t: f64,
}

impl FilteredEstimator {
    /// Creates a filtered estimator with memory time-scale `t_m ≥ 0`.
    /// `t_m == 0` gives memoryless behaviour.
    ///
    /// # Panics
    /// Panics if `t_m` is negative or non-finite.
    pub fn new(t_m: f64) -> Self {
        assert!(
            t_m >= 0.0 && t_m.is_finite(),
            "memory time-scale must be finite and >= 0"
        );
        FilteredEstimator { t_m, state: None }
    }

    /// The configured memory time-scale.
    pub fn t_m(&self) -> f64 {
        self.t_m
    }

    /// The discrete filter gain for an inter-sample gap `dt`:
    /// `a = 1 − e^{−Δ/T_m}` (1 when memoryless).
    pub fn gain(&self, dt: f64) -> f64 {
        if self.t_m == 0.0 {
            1.0
        } else {
            1.0 - (-dt / self.t_m).exp()
        }
    }
}

impl Estimator for FilteredEstimator {
    fn observe(&mut self, t: f64, rates: &[f64]) {
        // One pass, around the filtered mean the variance snapshot is
        // taken about (the first rate on a cold start).
        let pivot = self.state.map(|s| s.mean);
        self.observe_moments(t, &fold_snapshot(rates, pivot));
    }

    fn estimate(&self) -> Option<Estimate> {
        self.state.map(|s| Estimate::new(s.mean, s.variance))
    }

    fn reset(&mut self) {
        self.state = None;
    }

    fn memory_timescale(&self) -> f64 {
        self.t_m
    }

    fn supports_moments(&self) -> bool {
        true
    }

    fn observe_moments(&mut self, t: f64, moments: &RateMoments) {
        // An empty snapshot carries nothing, and a non-finite one would
        // poison the filter for the rest of the run: the mean would stay
        // NaN, and so would every admissible count after it.
        if moments.count() == 0 || !moments.is_finite() {
            return;
        }
        // The variance snapshot is centered on the snapshot mean on the
        // first observation, on the *filtered* mean afterwards.
        let snap_mean = moments.mean();
        let t_m = self.t_m;
        match &mut self.state {
            None => {
                self.state = Some(FilterState {
                    mean: snap_mean,
                    variance: moments.variance_around(snap_mean),
                    last_t: t,
                });
            }
            Some(s) => {
                debug_assert!(t >= s.last_t, "snapshot times must be non-decreasing");
                let dt = (t - s.last_t).max(0.0);
                let a = if t_m == 0.0 {
                    1.0
                } else {
                    1.0 - (-dt / t_m).exp()
                };
                s.mean += a * (snap_mean - s.mean);
                let v_snap = moments.variance_around(s.mean);
                s.variance += a * (v_snap - s.variance);
                s.last_t = t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_memory_is_memoryless() {
        let mut f = FilteredEstimator::new(0.0);
        f.observe(0.0, &[1.0, 1.0]);
        f.observe(1.0, &[9.0, 9.0]);
        assert!((f.estimate().unwrap().mean - 9.0).abs() < 1e-12);
    }

    #[test]
    fn first_snapshot_initializes_exactly() {
        let mut f = FilteredEstimator::new(10.0);
        f.observe(0.0, &[2.0, 4.0, 6.0]);
        let e = f.estimate().unwrap();
        assert!((e.mean - 4.0).abs() < 1e-12);
        assert!((e.variance - 4.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_convergence_to_step_input() {
        // Feed a constant snapshot mean of 10 after initializing at 0;
        // the mean must approach 10 like 1 - e^{-t/T_m}.
        let t_m = 5.0;
        let mut f = FilteredEstimator::new(t_m);
        f.observe(0.0, &[0.0, 0.0]);
        let dt = 0.01;
        let steps = 1000; // total time 10 = 2 T_m
        for k in 1..=steps {
            f.observe(k as f64 * dt, &[10.0, 10.0]);
        }
        let expect = 10.0 * (1.0 - (-(steps as f64 * dt) / t_m).exp());
        let got = f.estimate().unwrap().mean;
        assert!((got - expect).abs() < 0.05, "got {got}, expect {expect}");
    }

    #[test]
    fn irregular_sampling_matches_continuous_decay() {
        // One big gap of Δ must weight the old state by e^{-Δ/T_m}
        // regardless of how the interval is subdivided.
        let t_m = 3.0;
        let mut coarse = FilteredEstimator::new(t_m);
        coarse.observe(0.0, &[1.0, 1.0]);
        coarse.observe(6.0, &[0.0, 0.0]);
        let mut fine = FilteredEstimator::new(t_m);
        fine.observe(0.0, &[1.0, 1.0]);
        // For a zero-order-hold input held at 0 over (0, 6], subdividing
        // must not change the endpoint value.
        for k in 1..=600 {
            fine.observe(k as f64 * 0.01, &[0.0, 0.0]);
        }
        let want = (-6.0f64 / t_m).exp();
        assert!((coarse.estimate().unwrap().mean - want).abs() < 1e-12);
        assert!((fine.estimate().unwrap().mean - want).abs() < 1e-12);
    }

    #[test]
    fn longer_memory_smooths_more() {
        // Alternate snapshots between 0 and 10 and compare the variance
        // of the *estimates* for short vs long memory.
        let run = |t_m: f64| -> f64 {
            let mut f = FilteredEstimator::new(t_m);
            let mut ests = Vec::new();
            for k in 0..200 {
                let v = if k % 2 == 0 { 0.0 } else { 10.0 };
                f.observe(k as f64, &[v, v]);
                ests.push(f.estimate().unwrap().mean);
            }
            mbac_num::variance(&ests[100..])
        };
        let short = run(0.5);
        let long = run(20.0);
        assert!(
            long < short / 10.0,
            "long-memory estimate should fluctuate far less: {long} vs {short}"
        );
    }

    #[test]
    fn variance_estimate_tracks_true_variance() {
        // Deterministic two-point snapshots with per-flow variance 4
        // (values mean±2 with n−1 normalization → var = 8? compute:
        // rates [m-2, m+2]: sample var = ((−2)²+2²)/1 = 8).
        let mut f = FilteredEstimator::new(2.0);
        for k in 0..500 {
            f.observe(k as f64 * 0.1, &[3.0, 7.0]);
        }
        let e = f.estimate().unwrap();
        assert!((e.mean - 5.0).abs() < 1e-9);
        assert!((e.variance - 8.0).abs() < 1e-6, "var = {}", e.variance);
    }

    #[test]
    fn empty_snapshots_are_ignored() {
        let mut f = FilteredEstimator::new(1.0);
        f.observe(0.0, &[4.0, 4.0]);
        f.observe(5.0, &[]);
        assert_eq!(f.estimate().unwrap().mean, 4.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_memory() {
        FilteredEstimator::new(-1.0);
    }
}
