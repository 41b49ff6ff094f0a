//! Aggregate-only measurement (the paper's §7 second future-work item).
//!
//! "Aggregate measurements can be expected to be easier to implement,
//! because no per-flow information has to be maintained. While using
//! only aggregate measurement does not affect the mean estimator, the
//! accuracy of the variance estimator is hampered without per-flow
//! information."
//!
//! This estimator sees only `(flow count n, aggregate bandwidth S)` per
//! snapshot. The per-flow mean is `S/n`, exactly as before. The
//! per-flow variance must instead be inferred from the *temporal*
//! fluctuation of the aggregate: with i.i.d. flows,
//! `Var(S) = n·σ²`, so an exponentially-filtered estimate of the
//! aggregate's variance around its filtered mean, divided by `n`,
//! estimates `σ²`. The catch — which the aggregate-measurement
//! experiment quantifies — is that the temporal variance estimator
//! (a) converges on the traffic correlation time-scale instead of
//! instantly across flows, and (b) is *contaminated by the flow-count
//! dynamics*: admissions and departures move `S` too, inflating the
//! variance estimate. We partially compensate (b) by working with
//! `S − n·μ̂` increments, as the theory's heavy-traffic decomposition
//! suggests.

use super::{Estimate, Estimator};
use mbac_num::RateMoments;

/// Estimator fed only the aggregate bandwidth and flow count.
#[derive(Debug, Clone)]
pub struct AggregateOnlyEstimator {
    t_m: f64,
    state: Option<State>,
}

#[derive(Debug, Clone, Copy)]
struct State {
    /// Filtered per-flow mean μ̂.
    mean: f64,
    /// Filtered variance of the *centered* aggregate, ≈ n σ².
    agg_var: f64,
    last_t: f64,
    last_n: f64,
}

impl AggregateOnlyEstimator {
    /// Creates the estimator with exponential memory `t_m` (must be
    /// positive: with no per-flow snapshot there is no instantaneous
    /// variance estimate, so a memoryless variant cannot exist — this
    /// restriction *is* the §7 observation in type form).
    ///
    /// # Panics
    /// Panics unless `t_m > 0` and finite.
    pub fn new(t_m: f64) -> Self {
        assert!(
            t_m > 0.0 && t_m.is_finite(),
            "aggregate-only estimation requires a positive memory window"
        );
        AggregateOnlyEstimator { t_m, state: None }
    }

    /// Feeds one snapshot of `(flow count, aggregate bandwidth)`.
    pub fn observe_aggregate(&mut self, t: f64, flows: usize, aggregate: f64) {
        if flows == 0 {
            return;
        }
        let n = flows as f64;
        let snap_mean = aggregate / n;
        match &mut self.state {
            None => {
                self.state = Some(State {
                    mean: snap_mean,
                    // No variance information in a single aggregate
                    // sample: start at zero and let the filter learn.
                    agg_var: 0.0,
                    last_t: t,
                    last_n: n,
                });
            }
            Some(s) => {
                debug_assert!(t >= s.last_t);
                let a = 1.0 - (-(t - s.last_t) / self.t_m).exp();
                // Deviation against the *pre-update* mean: updating
                // first would attenuate the innovation by (1−a) and
                // correlate it with the mean error, biasing the
                // variance down. Centering on n·μ̂ (not on the previous
                // aggregate) keeps admissions/departures from
                // registering as rate variance to first order.
                let dev = aggregate - n * s.mean;
                s.agg_var += a * (dev * dev - s.agg_var);
                s.mean += a * (snap_mean - s.mean);
                s.last_t = t;
                s.last_n = n;
            }
        }
    }

    /// Number of flows at the last snapshot.
    pub fn last_flow_count(&self) -> Option<usize> {
        self.state.map(|s| s.last_n as usize)
    }
}

impl Estimator for AggregateOnlyEstimator {
    fn observe(&mut self, t: f64, rates: &[f64]) {
        // Adapter: when wired into the standard snapshot plumbing, use
        // only what an aggregate meter would see.
        self.observe_aggregate(t, rates.len(), RateMoments::of(0.0, rates).sum());
    }

    fn estimate(&self) -> Option<Estimate> {
        self.state
            .map(|s| Estimate::new(s.mean, (s.agg_var / s.last_n.max(1.0)).max(0.0)))
    }

    fn reset(&mut self) {
        self.state = None;
    }

    fn memory_timescale(&self) -> f64 {
        self.t_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbac_num::rng::standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_estimation_unaffected() {
        // §7: "using only aggregate measurement does not affect the
        // mean estimator".
        let mut agg = AggregateOnlyEstimator::new(5.0);
        for k in 0..2000 {
            agg.observe_aggregate(k as f64 * 0.1, 100, 100.0 * 2.5);
        }
        assert!((agg.estimate().unwrap().mean - 2.5).abs() < 1e-9);
    }

    #[test]
    fn variance_learned_from_temporal_fluctuation() {
        // 100 i.i.d. N(1, 0.09) flows re-drawn each snapshot: the
        // aggregate fluctuates with Var = 100·0.09 = 9; the estimator
        // must recover σ² ≈ 0.09 from the aggregate alone. The
        // instantaneous filtered estimate is *noisy* (its steady-state
        // sd is ≈ √(a/(2−a))·√2·nσ²/n ≈ 0.03 here — the very
        // "hampered accuracy" §7 predicts), so we check its *time
        // average* for unbiasedness and its spread separately.
        let mut rng = StdRng::seed_from_u64(1);
        let mut agg = AggregateOnlyEstimator::new(10.0);
        let n = 100usize;
        let mut var_track = mbac_num::RunningStats::new();
        for k in 0..40_000 {
            let total: f64 = (0..n).map(|_| 1.0 + 0.3 * standard_normal(&mut rng)).sum();
            agg.observe_aggregate(k as f64, n, total);
            if k > 2000 {
                var_track.push(agg.estimate().unwrap().variance);
            }
        }
        let est = agg.estimate().unwrap();
        assert!((est.mean - 1.0).abs() < 0.02, "mean {}", est.mean);
        // Unbiased: the long-run average of σ̂² hits the truth
        // (the innovation term E[(ξ−ε)²] adds ≈ a/(2−a) ≈ 5%).
        assert!(
            (var_track.mean() - 0.09).abs() < 0.015,
            "mean variance estimate {} should approach 0.09",
            var_track.mean()
        );
        // Noisy: the instantaneous estimate really does wander — the
        // §7 cost of forgoing per-flow measurement.
        assert!(
            var_track.std_dev() > 0.01,
            "aggregate-only σ̂² should be visibly noisy, sd = {}",
            var_track.std_dev()
        );
    }

    #[test]
    fn slower_than_per_flow_estimation() {
        // The §7 "hampered" claim, in convergence-speed form: after a
        // *single* snapshot the per-flow estimator already knows σ²,
        // while the aggregate-only one knows nothing.
        let mut rng = StdRng::seed_from_u64(2);
        let rates: Vec<f64> = (0..200)
            .map(|_| 1.0 + 0.3 * standard_normal(&mut rng))
            .collect();
        let mut per_flow = super::super::MemorylessEstimator::new();
        per_flow.observe(0.0, &rates);
        let mut agg = AggregateOnlyEstimator::new(5.0);
        agg.observe(0.0, &rates);
        let v_pf = per_flow.estimate().unwrap().variance;
        let v_agg = agg.estimate().unwrap().variance;
        assert!(
            (v_pf - 0.09).abs() < 0.03,
            "per-flow sees variance instantly: {v_pf}"
        );
        assert_eq!(v_agg, 0.0, "aggregate-only has no variance info yet");
    }

    #[test]
    fn flow_count_changes_do_not_explode_variance() {
        // Constant per-flow rate 1.0 but the population ramps up and
        // down: the centered-deviation trick must keep σ̂² near zero.
        let mut agg = AggregateOnlyEstimator::new(5.0);
        for k in 0..5000 {
            let n = 100 + ((k / 50) % 20) as usize; // staircase 100..119
            agg.observe_aggregate(k as f64 * 0.1, n, n as f64 * 1.0);
        }
        let est = agg.estimate().unwrap();
        assert!(
            est.variance < 0.02,
            "population churn leaked into σ̂²: {}",
            est.variance
        );
    }

    #[test]
    fn empty_snapshots_ignored_and_reset_works() {
        let mut agg = AggregateOnlyEstimator::new(1.0);
        agg.observe_aggregate(0.0, 0, 0.0);
        assert!(agg.estimate().is_none());
        agg.observe_aggregate(1.0, 10, 10.0);
        assert!(agg.estimate().is_some());
        assert_eq!(agg.last_flow_count(), Some(10));
        agg.reset();
        assert!(agg.estimate().is_none());
    }

    #[test]
    #[should_panic]
    fn memoryless_variant_is_a_type_error() {
        AggregateOnlyEstimator::new(0.0);
    }
}
