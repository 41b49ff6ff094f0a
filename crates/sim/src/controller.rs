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
use mbac_num::RateMoments;
use std::cell::Cell;

/// The measure-then-decide interface the simulator drives.
pub trait AdmissionEngine {
    /// Feeds one measurement snapshot (per-flow instantaneous rates at
    /// time `t`; the aggregate is their sum).
    fn observe(&mut self, t: f64, rates: &[f64]);

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

    /// Whether [`AdmissionEngine::observe_moments`] may be used in place
    /// of [`AdmissionEngine::observe`]. The tick loops gate once per run.
    fn supports_moments(&self) -> bool {
        false
    }

    /// Feeds one measurement as pre-reduced sufficient statistics —
    /// O(1) in the number of flows. Only valid when
    /// [`AdmissionEngine::supports_moments`] is `true`.
    fn observe_moments(&mut self, t: f64, moments: &RateMoments) {
        let _ = (t, moments);
        panic!("engine does not support moment observations");
    }

    /// The pivot a measurement tick should center second moments on.
    fn moment_pivot(&self) -> f64 {
        0.0
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

    /// Feeds a measurement snapshot (per-flow instantaneous rates).
    pub fn observe(&mut self, t: f64, rates: &[f64]) {
        self.estimator.observe(t, rates);
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
    fn observe(&mut self, t: f64, rates: &[f64]) {
        MbacController::observe(self, t, rates);
    }

    fn admissible_count(&self, capacity: f64, _current_flows: usize) -> Option<f64> {
        MbacController::admissible_count(self, capacity)
    }

    fn reset(&mut self) {
        MbacController::reset(self);
    }

    fn estimate_stats(&self) -> Option<(f64, f64)> {
        self.estimate().map(|e| (e.mean, e.variance.sqrt()))
    }

    fn supports_moments(&self) -> bool {
        self.estimator.supports_moments()
    }

    fn observe_moments(&mut self, t: f64, moments: &RateMoments) {
        self.estimator.observe_moments(t, moments);
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
    fn observe(&mut self, t: f64, rates: &[f64]) {
        self.policy.observe_aggregate(t, rates.iter().sum());
    }

    fn admissible_count(&self, capacity: f64, current_flows: usize) -> Option<f64> {
        self.policy
            .headroom_flows(capacity)
            .map(|extra| current_flows as f64 + extra)
    }

    fn reset(&mut self) {
        self.policy.reset();
    }

    fn supports_moments(&self) -> bool {
        true
    }

    fn observe_moments(&mut self, t: f64, moments: &RateMoments) {
        // Measured-sum only needs the aggregate; the moment sum is the
        // identical flow-order fold of the rate slice.
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

    #[test]
    fn reset_clears_estimate() {
        let mut ctl = controller();
        ctl.observe(0.0, &[1.0, 2.0]);
        assert!(ctl.estimate().is_some());
        ctl.reset();
        assert!(ctl.estimate().is_none());
    }
}
