//! Property tests for the estimator layer.
//!
//! Pins the fused-kernel contract: feeding an estimator pre-reduced
//! [`RateMoments`] (as the simulator's fused tick does) must be
//! equivalent to feeding it the raw rate slices — bit-identical means,
//! variances within 1e-12 relative — across arbitrary snapshot
//! sequences, estimator memory time-scales, empty snapshots, and a
//! mid-sequence `reset()`. A slice observation is itself one fold
//! through `RateMoments`, so both paths are also held to a test-local
//! two-pass oracle at 1e-12; and a snapshot with a NaN or ±∞ rate
//! anywhere must leave the estimate as it was.

use mbac_core::estimators::{Estimate, Estimator, FilteredEstimator, MemorylessEstimator};
use mbac_num::RateMoments;
use proptest::prelude::*;

/// The estimators' arithmetic before their slice path became one pass:
/// a flat flow-order sum for the snapshot mean, then a second pass for
/// the variance around the mean being estimated. `t_m: None` is the
/// memoryless estimator, `Some(t_m)` the §4.3 filter.
struct TwoPass {
    t_m: Option<f64>,
    /// `(mean, variance, last_t)`.
    state: Option<(f64, f64, f64)>,
}

impl TwoPass {
    fn observe(&mut self, t: f64, rates: &[f64]) {
        if rates.is_empty() {
            return;
        }
        let n = rates.len() as f64;
        let snap_mean = rates.iter().sum::<f64>() / n;
        let spread = |m: f64| {
            if rates.len() < 2 {
                0.0
            } else {
                rates.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (n - 1.0)
            }
        };
        self.state = Some(match (self.t_m, self.state) {
            (Some(t_m), Some((mean, variance, last_t))) => {
                let a = if t_m == 0.0 {
                    1.0
                } else {
                    1.0 - (-(t - last_t).max(0.0) / t_m).exp()
                };
                let mean = mean + a * (snap_mean - mean);
                (mean, variance + a * (spread(mean) - variance), t)
            }
            _ => (snap_mean, spread(snap_mean), t),
        });
    }

    fn estimate(&self) -> Option<Estimate> {
        self.state.map(|(m, v, _)| Estimate::new(m, v))
    }
}

fn assert_close(what: &str, i: usize, a: f64, b: f64) {
    let tol = 1e-12 * (1.0 + a.abs().max(b.abs()));
    assert!(
        (a - b).abs() <= tol,
        "{what} diverged at snapshot {i}: {a} vs {b}"
    );
}

/// Drives `slice_path` with raw snapshots and `moment_path` with the
/// same snapshots reduced to pivoted sufficient statistics (the pivot
/// chosen exactly as the fused tick chooses it: the moment path's own
/// `moment_pivot()`), asserting after every observation that the two
/// estimates are equivalent and that both agree with the two-pass
/// oracle.
fn assert_moment_equivalence(
    slice_path: &mut dyn Estimator,
    moment_path: &mut dyn Estimator,
    oracle: &mut TwoPass,
    snapshots: &[Vec<f64>],
    dts: &[f64],
    reset_at: usize,
) {
    assert!(slice_path.supports_moments() && moment_path.supports_moments());
    let mut t = 0.0;
    for (i, (rates, dt)) in snapshots.iter().zip(dts).enumerate() {
        if i == reset_at {
            slice_path.reset();
            moment_path.reset();
            oracle.state = None;
        }
        t += dt;
        let mom = RateMoments::of(moment_path.moment_pivot(), rates);
        slice_path.observe(t, rates);
        moment_path.observe_moments(t, &mom);
        oracle.observe(t, rates);

        let (a, b, want) = match (
            slice_path.estimate(),
            moment_path.estimate(),
            oracle.estimate(),
        ) {
            (None, None, None) => continue,
            (Some(a), Some(b), Some(want)) => (a, b, want),
            (a, b, want) => {
                panic!("estimate presence diverged at snapshot {i}: {a:?} vs {b:?} vs {want:?}")
            }
        };
        // Both paths fold through `RateMoments`, whose sum does not
        // depend on the pivot, and only means feed back into means:
        // exact.
        assert_eq!(
            a.mean.to_bits(),
            b.mean.to_bits(),
            "mean diverged at snapshot {i}: {} vs {}",
            a.mean,
            b.mean
        );
        // The variance goes through the pivoted reconstruction around
        // different pivots on a cold start.
        assert_close("variance", i, a.variance, b.variance);
        for (path, e) in [("slice", a), ("moment", b)] {
            assert_close(&format!("{path} mean vs two-pass"), i, e.mean, want.mean);
            assert_close(
                &format!("{path} variance vs two-pass"),
                i,
                e.variance,
                want.variance,
            );
        }
    }
}

/// Feeds `good` snapshots, then one whose rate at `at` is `bad`, through
/// both entry points: the estimate must be bit-equal to the one before,
/// and a good snapshot after it must still produce a finite estimate.
fn assert_non_finite_is_ignored(
    make: &dyn Fn() -> Box<dyn Estimator>,
    good: &[Vec<f64>],
    poisoned: &[f64],
    at: usize,
    bad: f64,
) {
    let mut rates = poisoned.to_vec();
    let at = at % rates.len();
    rates[at] = bad;
    let bits = |e: Option<Estimate>| e.map(|e| (e.mean.to_bits(), e.variance.to_bits()));
    for by_moments in [false, true] {
        let mut est = make();
        let mut t = 0.0;
        let mut feed = |est: &mut Box<dyn Estimator>, rates: &[f64]| {
            t += 0.5;
            if by_moments {
                let mom = RateMoments::of(est.moment_pivot(), rates);
                est.observe_moments(t, &mom);
            } else {
                est.observe(t, rates);
            }
        };
        for g in good {
            feed(&mut est, g);
        }
        let before = bits(est.estimate());
        feed(&mut est, &rates);
        assert_eq!(
            bits(est.estimate()),
            before,
            "{bad} at {at} (moments: {by_moments}) moved the estimate"
        );
        feed(&mut est, poisoned);
        let after = est.estimate().expect("a good snapshot gives an estimate");
        assert!(
            after.mean.is_finite() && after.variance.is_finite(),
            "{bad} at {at} (moments: {by_moments}) poisoned the estimator: {after:?}"
        );
    }
}

proptest! {
    /// Memoryless estimator: slice and moment observations agree, and
    /// match the two-pass oracle.
    #[test]
    fn memoryless_moments_match_slices(
        snapshots in collection::vec(collection::vec(0.0f64..5.0, 0..12), 1..24),
        dts in collection::vec(0.01f64..2.0, 24),
        reset_frac in 0.0f64..1.0,
    ) {
        let reset_at = (reset_frac * snapshots.len() as f64) as usize;
        let mut a = MemorylessEstimator::new();
        let mut b = MemorylessEstimator::new();
        let mut oracle = TwoPass { t_m: None, state: None };
        assert_moment_equivalence(&mut a, &mut b, &mut oracle, &snapshots, &dts, reset_at);
    }

    /// Exponential-filter estimator across memory time-scales
    /// (including `t_m = 0`, the memoryless degeneration): slice and
    /// moment observations agree, and match the two-pass oracle.
    #[test]
    fn filtered_moments_match_slices(
        snapshots in collection::vec(collection::vec(0.0f64..5.0, 0..12), 1..24),
        dts in collection::vec(0.01f64..2.0, 24),
        t_m_raw in 0.1f64..20.0,
        memoryless in 0u64..4,
        reset_frac in 0.0f64..1.0,
    ) {
        // One case in four runs the t_m = 0 degeneration exactly.
        let t_m = if memoryless == 0 { 0.0 } else { t_m_raw };
        let reset_at = (reset_frac * snapshots.len() as f64) as usize;
        let mut a = FilteredEstimator::new(t_m);
        let mut b = FilteredEstimator::new(t_m);
        let mut oracle = TwoPass { t_m: Some(t_m), state: None };
        assert_moment_equivalence(&mut a, &mut b, &mut oracle, &snapshots, &dts, reset_at);
    }

    /// NaN or ±∞ anywhere in a snapshot leaves the estimate bit-equal to
    /// before, cold or warm, on both estimators and both entry points.
    #[test]
    fn a_non_finite_rate_leaves_the_estimate_unchanged(
        good in collection::vec(collection::vec(0.0f64..5.0, 1..12), 0..6),
        poisoned in collection::vec(0.0f64..5.0, 1..40),
        at in 0usize..40,
        which in 0usize..3,
        t_m in 0.0f64..20.0,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        assert_non_finite_is_ignored(
            &|| Box::new(MemorylessEstimator::new()),
            &good,
            &poisoned,
            at,
            bad,
        );
        assert_non_finite_is_ignored(
            &|| Box::new(FilteredEstimator::new(t_m)),
            &good,
            &poisoned,
            at,
            bad,
        );
    }
}
