//! Glue between estimators and admission policies: the deployable MBAC.
//!
//! The simulator drives anything implementing [`AdmissionEngine`] — the
//! minimal measure-then-decide interface. [`MbacController`] is the
//! paper's engine (a statistics estimator feeding a Gaussian criterion);
//! the related-work baselines of §6 (`mbac_core::admission::MeasuredSum`
//! wrapped by [`MeasuredSumController`]) implement the same trait with a
//! completely different internal logic.

use mbac_core::admission::{AdmissionPolicy, MeasuredSum};
use mbac_core::estimators::{Estimate, Estimator};
use mbac_num::{RateMoments, SnapshotMoments};
use std::cell::Cell;

/// The measure-then-decide interface the simulator drives.
pub trait AdmissionEngine {
    /// Feeds one measurement at time `t` as the fold of its per-flow
    /// instantaneous rates (the aggregate is their sum) — O(1) in the
    /// number of flows. The tick kernels fold around
    /// [`AdmissionEngine::moment_pivot`].
    fn observe_moments(&mut self, t: f64, moments: &RateMoments);

    /// The number of flows the engine currently allows in the system
    /// (`None` before any measurement exists — cold start).
    fn admissible_count(&self, capacity: f64, current_flows: usize) -> Option<f64>;

    /// Clears all measurement state.
    fn reset(&mut self);

    /// The engine's current `(μ̂, σ̂)` per-flow estimate, for telemetry
    /// (estimator-innovation tracking). Engines without a per-flow
    /// statistics estimate keep the default `None`.
    fn estimate_stats(&self) -> Option<(f64, f64)> {
        None
    }

    /// Feeds one measurement held as rates: one fold around the current
    /// mean estimate (the first rate on a cold start, or without a
    /// per-flow estimate), then [`AdmissionEngine::observe_moments`].
    fn observe(&mut self, t: f64, rates: &[f64]) {
        let pivot = self.estimate_stats().map(|(mean, _)| mean);
        let pivot = pivot.or(rates.first().copied()).unwrap_or(0.0);
        self.observe_moments(t, &RateMoments::of(pivot, rates));
    }

    /// The pivot a measurement tick should center second moments on.
    fn moment_pivot(&self) -> f64 {
        0.0
    }

    // Inert shim: every engine observes moments. The frozen
    // `benchmark/` still asks; the next `benchmark` PR deletes this.
    #[doc(hidden)]
    fn supports_moments(&self) -> bool {
        true
    }
}

/// An estimator plus an admission policy — the complete
/// measurement-based admission controller the simulator drives.
pub struct MbacController {
    estimator: Box<dyn Estimator + Send>,
    policy: Box<dyn AdmissionPolicy + Send>,
    /// Memo for the eqn (42) inversion: the last
    /// `(μ̂, σ̂², capacity) → admissible count` evaluation, keyed by bit
    /// pattern so a hit returns the *identical* f64. The continuous-load
    /// fill loop re-asks after every admission while the estimate only
    /// changes at measurement ticks, so this makes the steady-state
    /// admission decision O(1) lookups instead of repeated quadratics.
    decision_memo: Cell<Option<(DecisionKey, f64)>>,
}

/// Bit patterns of `(μ̂, σ̂², capacity)` keying one memoized admissible-
/// count evaluation: bit equality guarantees the memoized f64 is the
/// identical value the quadratic would return.
type DecisionKey = (u64, u64, u64);

impl MbacController {
    /// Bundles an estimator with a policy.
    pub fn new(
        estimator: Box<dyn Estimator + Send>,
        policy: Box<dyn AdmissionPolicy + Send>,
    ) -> Self {
        MbacController {
            estimator,
            policy,
            decision_memo: Cell::new(None),
        }
    }

    /// Feeds a measurement already folded into its moments: how the
    /// serve plane observes, whichever core folded it.
    pub fn observe_snapshot(&mut self, t: f64, moments: &SnapshotMoments) {
        self.estimator.observe_moments(t, moments);
    }

    /// The current statistics estimate, if any.
    pub fn estimate(&self) -> Option<Estimate> {
        self.estimator.estimate()
    }

    /// The estimated admissible number of flows for the given capacity,
    /// or `None` before any measurement exists.
    pub fn admissible_count(&self, capacity: f64) -> Option<f64> {
        self.estimator.estimate().map(|e| {
            let key = (e.mean.to_bits(), e.variance.to_bits(), capacity.to_bits());
            if let Some((k, m)) = self.decision_memo.get() {
                if k == key {
                    return m;
                }
            }
            let m = self.policy.admissible_count(e, capacity);
            self.decision_memo.set(Some((key, m)));
            m
        })
    }

    /// The estimator's memory time-scale `T_m`.
    pub fn memory_timescale(&self) -> f64 {
        self.estimator.memory_timescale()
    }

    /// Clears estimator state (for reuse across replications).
    pub fn reset(&mut self) {
        self.estimator.reset();
    }
}

impl AdmissionEngine for MbacController {
    fn admissible_count(&self, capacity: f64, _current_flows: usize) -> Option<f64> {
        MbacController::admissible_count(self, capacity)
    }

    fn reset(&mut self) {
        MbacController::reset(self);
    }

    fn estimate_stats(&self) -> Option<(f64, f64)> {
        self.estimate().map(|e| (e.mean, e.variance.sqrt()))
    }

    fn observe_moments(&mut self, t: f64, moments: &RateMoments) {
        self.observe_snapshot(t, &moments.reduce());
    }

    fn moment_pivot(&self) -> f64 {
        self.estimator.moment_pivot()
    }
}

/// Adapter running the Jamin-style measured-sum algorithm (§6 related
/// work) as an [`AdmissionEngine`]: the admissible count is the current
/// occupancy plus however many declared-rate flows fit under the
/// utilization-scaled capacity, given the windowed load measurement.
pub struct MeasuredSumController {
    policy: MeasuredSum,
}

impl MeasuredSumController {
    /// Wraps a measured-sum policy.
    pub fn new(policy: MeasuredSum) -> Self {
        MeasuredSumController { policy }
    }

    /// Access to the wrapped policy (e.g. to inspect its estimate).
    pub fn policy(&self) -> &MeasuredSum {
        &self.policy
    }
}

impl AdmissionEngine for MeasuredSumController {
    fn admissible_count(&self, capacity: f64, current_flows: usize) -> Option<f64> {
        self.policy
            .headroom_flows(capacity)
            .map(|extra| current_flows as f64 + extra)
    }

    fn reset(&mut self) {
        self.policy.reset();
    }

    fn observe_moments(&mut self, t: f64, moments: &RateMoments) {
        // Measured-sum only needs the aggregate.
        self.policy.observe_aggregate(t, moments.sum());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbac_core::admission::CertaintyEquivalent;
    use mbac_core::estimators::MemorylessEstimator;

    fn controller() -> MbacController {
        MbacController::new(
            Box::new(MemorylessEstimator::new()),
            Box::new(CertaintyEquivalent::from_probability(1e-3)),
        )
    }

    #[test]
    fn no_admission_before_measurement() {
        let ctl = controller();
        assert!(ctl.admissible_count(100.0).is_none());
    }

    #[test]
    fn admissible_count_follows_measurements() {
        let mut ctl = controller();
        ctl.observe(0.0, &[1.0, 1.0, 1.0, 1.0]);
        let m = ctl.admissible_count(100.0).unwrap();
        // σ̂ = 0 ⇒ fluid limit c/μ̂ = 100.
        assert!((m - 100.0).abs() < 1e-9);
        ctl.observe(1.0, &[0.5, 1.5, 0.5, 1.5]);
        let m2 = ctl.admissible_count(100.0).unwrap();
        assert!(m2 < m, "measured burstiness must reduce admissions");
    }

    /// A NaN or ±∞ aggregate leaves the measured-sum headroom as it
    /// was, and a finite one after it still moves it.
    #[test]
    fn a_non_finite_aggregate_leaves_the_headroom_unchanged() {
        let mut ctl = MeasuredSumController::new(MeasuredSum::new(0.9, 10.0, 1.0, 1.0));
        let fold = |rates: &[f64]| RateMoments::of(rates[0], rates);
        ctl.observe_moments(0.0, &fold(&[10.0, 20.0]));
        let before = ctl.admissible_count(100.0, 2);
        assert_eq!(before, Some(62.0));
        for (k, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            ctl.observe_moments(0.25 * (k + 1) as f64, &fold(&[10.0, bad]));
            assert_eq!(ctl.admissible_count(100.0, 2), before, "{bad}");
        }
        ctl.observe_moments(1.0, &fold(&[40.0, 40.0]));
        assert_eq!(ctl.admissible_count(100.0, 2), Some(12.0));
    }

    #[test]
    fn reset_clears_estimate() {
        let mut ctl = controller();
        ctl.observe(0.0, &[1.0, 2.0]);
        assert!(ctl.estimate().is_some());
        ctl.reset();
        assert!(ctl.estimate().is_none());
    }
}
