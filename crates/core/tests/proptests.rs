//! Property tests for the estimator layer.
//!
//! Pins the measurement contract: an estimator fed pre-reduced
//! [`SnapshotMoments`] (as the simulator's tick kernel folds them) must
//! be equivalent to one fed the raw rate slices through
//! [`Estimator::observe`] — bit-identical means, variances within 1e-12
//! relative — and both must match a test-local two-pass oracle at
//! 1e-12 — across arbitrary
//! snapshot sequences, estimator memory time-scales, empty snapshots,
//! and a mid-sequence `reset()` — and so must the serve plane's rule,
//! which folds a measurement around its first rate where it is
//! generated; and a snapshot with a NaN or ±∞ rate anywhere must leave
//! every estimator's estimate as it was, on both entry points.

use mbac_core::admission::MeasuredSum;
use mbac_core::estimators::heterogeneous::ClassifiedEstimator;
use mbac_core::estimators::{
    fold_snapshot, AggregateOnlyEstimator, Estimate, Estimator, FilteredEstimator,
    MemorylessEstimator, PriorSmoothedEstimator, WindowEstimator,
};
use mbac_core::params::FlowStats;
use mbac_num::{RateMoments, SnapshotMoments};
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
/// chosen exactly as the tick kernel chooses it: the moment path's own
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
    let mut t = 0.0;
    for (i, (rates, dt)) in snapshots.iter().zip(dts).enumerate() {
        if i == reset_at {
            slice_path.reset();
            moment_path.reset();
            oracle.state = None;
        }
        t += dt;
        let mom = RateMoments::of(moment_path.moment_pivot(), rates).reduce();
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

/// Something that consumes rate snapshots, fed as rates or as their
/// fold, and read back as the numbers its decisions rest on, and (for
/// the estimators) the count of snapshots it dropped.
trait Consumer {
    fn feed(&mut self, t: f64, rates: &[f64], by_moments: bool);
    fn read(&self) -> Vec<f64>;
    fn dropped(&self) -> Option<u64> {
        None
    }
}

impl Consumer for Box<dyn Estimator> {
    fn feed(&mut self, t: f64, rates: &[f64], by_moments: bool) {
        if by_moments {
            let mom = RateMoments::of(self.moment_pivot(), rates).reduce();
            self.observe_moments(t, &mom);
        } else {
            self.observe(t, rates);
        }
    }

    fn read(&self) -> Vec<f64> {
        self.estimate()
            .map_or(vec![], |e: Estimate| vec![e.mean, e.variance])
    }

    fn dropped(&self) -> Option<u64> {
        Some(Estimator::dropped(self.as_ref()))
    }
}

/// The measured-sum policy as `MeasuredSumController` feeds it: the
/// fold's aggregate (whose bits do not depend on the pivot).
struct Sum(MeasuredSum);

impl Consumer for Sum {
    fn feed(&mut self, t: f64, rates: &[f64], _: bool) {
        self.0
            .observe_aggregate(t, fold_snapshot(rates, None).sum());
    }

    fn read(&self) -> Vec<f64> {
        let headroom = self.0.headroom_flows(100.0);
        self.0.load_estimate().into_iter().chain(headroom).collect()
    }
}

/// The per-class estimator with every flow in its one class.
struct OneClass(ClassifiedEstimator);

impl Consumer for OneClass {
    fn feed(&mut self, t: f64, rates: &[f64], _: bool) {
        let labeled: Vec<(usize, f64)> = rates.iter().map(|&x| (0, x)).collect();
        self.0.observe(t, &labeled);
    }

    fn read(&self) -> Vec<f64> {
        let agg = self.0.aggregate();
        let class = self.0.estimate_class(0);
        let class = class.map_or(vec![], |e| vec![e.mean, e.variance]);
        [agg.mean, agg.variance, agg.flows as f64]
            .into_iter()
            .chain(class)
            .collect()
    }

    fn dropped(&self) -> Option<u64> {
        Some(self.0.dropped())
    }
}

/// Feeds `good` snapshots, then one whose rate at `at` is `bad`, through
/// both entry points: what the consumer reads must be bit-equal to what
/// it read before, and a good snapshot after it must still read finite.
/// An estimator counts the bad snapshot, and no good one, as dropped.
fn assert_non_finite_is_ignored<C: Consumer>(
    make: &dyn Fn() -> C,
    good: &[Vec<f64>],
    poisoned: &[f64],
    at: usize,
    bad: f64,
) {
    let mut rates = poisoned.to_vec();
    let at = at % rates.len();
    rates[at] = bad;
    let bits = |read: Vec<f64>| read.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    for by_moments in [false, true] {
        let mut consumer = make();
        let mut t = 0.0;
        let mut feed = |consumer: &mut C, rates: &[f64]| {
            t += 0.5;
            consumer.feed(t, rates, by_moments);
        };
        for g in good {
            feed(&mut consumer, g);
        }
        assert!(matches!(consumer.dropped(), None | Some(0)));
        let before = bits(consumer.read());
        feed(&mut consumer, &rates);
        assert_eq!(
            bits(consumer.read()),
            before,
            "{bad} at {at} (moments: {by_moments}) moved the estimate"
        );
        feed(&mut consumer, poisoned);
        assert!(
            matches!(consumer.dropped(), None | Some(1)),
            "{bad} at {at} (moments: {by_moments}): {:?} dropped",
            consumer.dropped()
        );
        let after = consumer.read();
        assert!(
            !after.is_empty() && after.iter().all(|x| x.is_finite()),
            "{bad} at {at} (moments: {by_moments}) poisoned the estimator: {after:?}"
        );
    }
}

proptest! {
    /// Memoryless estimator: moment observations match slice
    /// observations and the two-pass oracle.
    #[test]
    fn memoryless_moments_match_slices(
        snapshots in collection::vec(collection::vec(0.0f64..5.0, 0..12), 1..24),
        dts in collection::vec(0.01f64..2.0, 24),
        reset_frac in 0.0f64..1.0,
    ) {
        let reset_at = (reset_frac * snapshots.len() as f64) as usize;
        let mut slice_path = MemorylessEstimator::new();
        let mut moment_path = MemorylessEstimator::new();
        let mut oracle = TwoPass { t_m: None, state: None };
        assert_moment_equivalence(
            &mut slice_path, &mut moment_path, &mut oracle, &snapshots, &dts, reset_at,
        );
    }

    /// Exponential-filter estimator across memory time-scales
    /// (including `t_m = 0`, the memoryless degeneration): moment
    /// observations match slice observations and the two-pass oracle.
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
        let mut slice_path = FilteredEstimator::new(t_m);
        let mut moment_path = FilteredEstimator::new(t_m);
        let mut oracle = TwoPass { t_m: Some(t_m), state: None };
        assert_moment_equivalence(
            &mut slice_path, &mut moment_path, &mut oracle, &snapshots, &dts, reset_at,
        );
    }

    /// NaN or ±∞ anywhere in a snapshot leaves the estimate bit-equal to
    /// before, cold or warm, on all five estimators (both entry points),
    /// the measured-sum policy and the per-class estimator, and every
    /// estimator counts it dropped.
    #[test]
    fn a_non_finite_rate_leaves_the_estimate_unchanged(
        good in collection::vec(collection::vec(0.0f64..5.0, 1..12), 0..6),
        poisoned in collection::vec(0.0f64..5.0, 1..40),
        at in 0usize..40,
        which in 0usize..3,
        t_m in 0.0f64..20.0,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        let estimators: [&dyn Fn() -> Box<dyn Estimator>; 5] = [
            &|| Box::new(MemorylessEstimator::new()),
            &|| Box::new(FilteredEstimator::new(t_m)),
            &|| Box::new(WindowEstimator::new(t_m + 0.1)),
            &|| Box::new(PriorSmoothedEstimator::new(FlowStats::from_mean_sd(1.0, 0.3), t_m)),
            &|| Box::new(AggregateOnlyEstimator::new(t_m + 0.1)),
        ];
        for make in estimators {
            assert_non_finite_is_ignored(make, &good, &poisoned, at, bad);
        }
        let sum = || Sum(MeasuredSum::new(0.9, t_m + 1.0, 1.0, 1.0));
        assert_non_finite_is_ignored(&sum, &good, &poisoned, at, bad);
        let classes = || OneClass(ClassifiedEstimator::new(1, t_m));
        assert_non_finite_is_ignored(&classes, &good, &poisoned, at, bad);
    }

    /// The serve plane's rule — a measurement folded around its first
    /// rate, where it is generated, then observed as moments — matches
    /// the two-pass oracle at 1e-12 on the memoryless and filtered estimators, also when
    /// that first rate lies far out of the rest of the snapshot.
    #[test]
    fn the_serve_pivot_rule_matches_two_pass(
        snapshots in collection::vec(collection::vec(0.0f64..5.0, 1..40), 1..24),
        kinds in collection::vec(0u64..3, 24),
        fars in collection::vec(1.0f64..1e3, 24),
        dts in collection::vec(0.01f64..2.0, 24),
        t_m in 0.0f64..20.0,
    ) {
        let estimators: [(Box<dyn Estimator>, TwoPass); 2] = [
            (Box::new(MemorylessEstimator::new()), TwoPass { t_m: None, state: None }),
            (Box::new(FilteredEstimator::new(t_m)), TwoPass { t_m: Some(t_m), state: None }),
        ];
        for (mut est, mut oracle) in estimators {
            let mut t = 0.0;
            let outliers = kinds.iter().zip(&fars);
            for (i, ((rates, (&kind, &far)), dt)) in
                snapshots.iter().zip(outliers).zip(&dts).enumerate()
            {
                let mut rates = rates.clone();
                // One snapshot in three leads with an outlier.
                if kind == 0 {
                    rates[0] = far;
                }
                t += dt;
                let moments: SnapshotMoments = fold_snapshot(&rates, None);
                prop_assert_eq!(moments.pivot().to_bits(), rates[0].to_bits());
                est.observe_moments(t, &moments);
                oracle.observe(t, &rates);
                let (got, want) = (est.estimate().unwrap(), oracle.estimate().unwrap());
                assert_close("mean vs two-pass", i, got.mean, want.mean);
                let tol = 1e-12 * want.variance.max(1e-300) + 1e-15;
                prop_assert!(
                    (got.variance - want.variance).abs() <= tol,
                    "variance at snapshot {}: {} vs {}", i, got.variance, want.variance
                );
            }
        }
    }
}
