//! Glue between estimators and admission policies: the deployable MBAC.
//!
//! The simulator drives anything implementing [`AdmissionEngine`] — the
//! minimal measure-then-decide interface. [`MbacController`] is the
//! paper's engine (a statistics estimator feeding a Gaussian criterion);
//! the related-work baselines of §6 (`mbac_core::admission::MeasuredSum`
//! wrapped by [`MeasuredSumController`]) implement the same trait with a
//! completely different internal logic. [`LinkAdmission`] is one link
//! run by an [`MbacController`]: the one place the link rule is written.

use mbac_core::admission::{AdmissionPolicy, MeasuredSum};
use mbac_core::estimators::{Estimate, Estimator};
use mbac_num::{RateMoments, SnapshotMoments};

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
}

/// An estimator plus an admission policy — the complete
/// measurement-based admission controller the simulator drives.
pub struct MbacController {
    estimator: Box<dyn Estimator + Send>,
    policy: Box<dyn AdmissionPolicy + Send>,
}

impl MbacController {
    /// Bundles an estimator with a policy.
    pub fn new(
        estimator: Box<dyn Estimator + Send>,
        policy: Box<dyn AdmissionPolicy + Send>,
    ) -> Self {
        MbacController { estimator, policy }
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
        self.estimator
            .estimate()
            .map(|e| self.policy.admissible_count(e, capacity))
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

/// One link's admission state: its controller, its capacity, the
/// admissible count its last measurement set, and its occupancy. The
/// link rule lives here and nowhere else. The estimate changes only
/// when a measurement arrives, so the count is set at measure time and
/// a request reads it: the link accepts one more flow iff
/// `occupancy + 1 ≤ m̂`, and `None` (no measurement yet, a cold start)
/// fails safe to reject. Occupancy is resynchronized to the measured
/// count on every measurement and moves between them only on admit.
pub struct LinkAdmission {
    ctl: MbacController,
    capacity: f64,
    admissible: Option<f64>,
    occupancy: u32,
}

impl LinkAdmission {
    /// A cold link of `capacity` run by `ctl`.
    pub fn new(ctl: MbacController, capacity: f64) -> Self {
        LinkAdmission {
            ctl,
            capacity,
            admissible: None,
            occupancy: 0,
        }
    }

    /// Applies one measurement: the controller observes it, the
    /// admissible count is set from the new estimate, and occupancy is
    /// resynchronized to the measured flow count.
    pub fn measure(&mut self, t: f64, moments: &SnapshotMoments) {
        self.ctl.observe_snapshot(t, moments);
        self.admissible = self.ctl.admissible_count(self.capacity);
        self.occupancy = moments.count() as u32;
    }

    /// Whether the link would accept one more flow. Writes nothing: a
    /// vote that is not followed by an admit leaves no trace.
    #[inline]
    pub fn votes(&self) -> bool {
        self.admissible
            .is_some_and(|m| f64::from(self.occupancy + 1) <= m)
    }

    /// Settles a decision: occupancy moves only on admit.
    #[inline]
    pub fn settle(&mut self, admit: bool) {
        self.occupancy += u32::from(admit);
    }

    /// The admissible count the last measurement set (`None` before
    /// any).
    #[inline]
    pub fn admissible(&self) -> Option<f64> {
        self.admissible
    }

    /// The link's occupancy: the last measured count plus the admits
    /// since.
    #[inline]
    pub fn occupancy(&self) -> u32 {
        self.occupancy
    }

    /// The pivot the link's next measurement should be folded around
    /// (see [`AdmissionEngine::moment_pivot`]).
    pub(crate) fn moment_pivot(&self) -> f64 {
        self.ctl.moment_pivot()
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

    /// Constant rates of 1.0: σ̂ = 0, so the count is the fluid limit
    /// `capacity / μ̂`.
    fn constant(flows: usize) -> SnapshotMoments {
        RateMoments::of(1.0, &vec![1.0; flows]).reduce()
    }

    #[test]
    fn votes_match_the_single_link_rule() {
        let mut link = LinkAdmission::new(controller(), 5.5);
        assert!(!link.votes(), "cold start fails safe");
        link.measure(0.0, &constant(4));
        assert_eq!(link.occupancy(), 4);
        assert!(link.votes());
        link.settle(true);
        assert_eq!(link.occupancy(), 5);
        assert!(!link.votes(), "6 flows do not fit under 5.5");
        link.measure(1.0, &constant(3));
        assert_eq!(link.occupancy(), 3, "a measurement resyncs occupancy");
        assert!(link.votes());
    }

    /// The count a request reads is the one the policy gives for the
    /// estimate the last measurement left, to the bit.
    #[test]
    fn the_cached_count_is_the_policy_count_of_the_last_measurement() {
        let mut link = LinkAdmission::new(controller(), 50.0);
        let mut twin = controller();
        for step in 0..40 {
            let t = f64::from(step) * 0.25;
            let rates: Vec<f64> = (0..40)
                .map(|k| 1.0 + 0.3 * f64::from((k * 7 + step) % 11 - 5) / 5.0)
                .collect();
            let moments = RateMoments::of(rates[0], &rates).reduce();
            link.measure(t, &moments);
            twin.observe_snapshot(t, &moments);
            let want = twin.admissible_count(50.0).map(f64::to_bits);
            assert_eq!(link.admissible().map(f64::to_bits), want, "step {step}");
            assert_eq!(link.occupancy(), 40);
        }
    }

    #[test]
    fn a_cold_link_rejects() {
        let mut link = LinkAdmission::new(controller(), 100.0);
        assert_eq!(link.admissible(), None);
        assert!(!link.votes());
        link.settle(false);
        assert_eq!(link.occupancy(), 0);
    }

    /// A vote writes nothing: however often a link is asked, its count
    /// and occupancy are what they were, and so is its next vote.
    #[test]
    fn a_vote_changes_nothing() {
        let mut link = LinkAdmission::new(controller(), 10.0);
        link.measure(0.0, &constant(9));
        let before = (link.admissible().map(f64::to_bits), link.occupancy());
        for _ in 0..3 {
            assert!(link.votes());
        }
        assert_eq!(
            (link.admissible().map(f64::to_bits), link.occupancy()),
            before
        );
        link.settle(false);
        assert_eq!(link.occupancy(), 9, "a reject settles nothing");
    }

    /// A measurement with a NaN or ±∞ rate leaves the estimate, so the
    /// count, as it was; the occupancy still resyncs.
    #[test]
    fn a_non_finite_measurement_keeps_the_previous_count() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut link = LinkAdmission::new(controller(), 10.0);
            link.measure(0.0, &constant(4));
            let before = link.admissible().map(f64::to_bits);
            let rates = [1.0, bad, 1.0, 1.0, 1.0];
            link.measure(1.0, &RateMoments::of(1.0, &rates).reduce());
            assert_eq!(link.admissible().map(f64::to_bits), before, "{bad}");
            assert_eq!(link.occupancy(), 5);
        }
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
