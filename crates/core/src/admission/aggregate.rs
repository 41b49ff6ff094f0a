//! Aggregate Gaussian admission test for heterogeneous flows (§5.4).
//!
//! Instead of counting interchangeable flows, this form asks directly:
//! with aggregate load `N(m, v)` and a candidate flow adding
//! `(μ_new, σ²_new)`, is `Q[(c − m − μ_new)/√(v + σ²_new)] ≤ p_ce`?
//! It reduces to the homogeneous criterion when all flows are identical.

use crate::estimators::heterogeneous::AggregateEstimate;
use crate::params::{FlowStats, QosTarget};
use mbac_num::q;

/// Aggregate-form certainty-equivalent admission.
#[derive(Debug, Clone, Copy)]
pub struct AggregateGaussian {
    target: QosTarget,
}

impl AggregateGaussian {
    /// Creates the aggregate test with certainty-equivalent target.
    pub fn new(target: QosTarget) -> Self {
        AggregateGaussian { target }
    }

    /// The overflow probability the link would have *after* admitting a
    /// candidate with the given per-flow statistics.
    pub fn post_admission_overflow(
        &self,
        agg: AggregateEstimate,
        candidate: FlowStats,
        capacity: f64,
    ) -> f64 {
        let mean = agg.mean + candidate.mean;
        let var = (agg.variance + candidate.variance).max(0.0);
        if var == 0.0 {
            return if mean > capacity { 1.0 } else { 0.0 };
        }
        q((capacity - mean) / var.sqrt())
    }

    /// Whether the candidate flow may be admitted: iff the overflow
    /// probability after admitting it stays within the target.
    pub fn admit(&self, agg: AggregateEstimate, candidate: FlowStats, capacity: f64) -> bool {
        self.post_admission_overflow(agg, candidate, capacity) <= self.target.p
    }

    /// The configured target.
    pub fn target(&self) -> QosTarget {
        self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionPolicy, CertaintyEquivalent};
    use crate::estimators::Estimate;

    fn agg(mean: f64, variance: f64, flows: usize) -> AggregateEstimate {
        AggregateEstimate {
            mean,
            variance,
            flows,
        }
    }

    #[test]
    fn admits_when_room_rejects_when_full() {
        let ctl = AggregateGaussian::new(QosTarget::new(1e-3));
        let cand = FlowStats::from_mean_sd(1.0, 0.3);
        assert!(ctl.admit(agg(50.0, 4.5, 50), cand, 100.0));
        assert!(!ctl.admit(agg(99.0, 9.0, 99), cand, 100.0));
    }

    #[test]
    fn reduces_to_homogeneous_criterion() {
        // With m identical flows the aggregate test flips from admit to
        // reject exactly at the homogeneous M of eqn (42).
        let flow = FlowStats::from_mean_sd(1.0, 0.3);
        let target = QosTarget::new(1e-3);
        let c = 100.0;
        let hom = CertaintyEquivalent::new(target);
        let m = hom.admissible_count(Estimate::from(flow), c).floor() as usize;
        let ctl = AggregateGaussian::new(target);
        // m-1 flows in the system: admitting the m-th must pass.
        let below = agg(
            (m - 1) as f64 * flow.mean,
            (m - 1) as f64 * flow.variance,
            m - 1,
        );
        assert!(ctl.admit(below, flow, c), "should admit flow #{m}");
        // m flows in the system: admitting one more must fail.
        let at = agg(m as f64 * flow.mean, m as f64 * flow.variance, m);
        assert!(!ctl.admit(at, flow, c), "should reject flow #{}", m + 1);
    }

    #[test]
    fn deterministic_aggregate_edge() {
        let ctl = AggregateGaussian::new(QosTarget::new(1e-3));
        let cbr = FlowStats::new(10.0, 0.0);
        // Zero variance everywhere: pure fluid check.
        assert!(ctl.admit(agg(80.0, 0.0, 8), cbr, 100.0));
        assert!(!ctl.admit(agg(95.0, 0.0, 9), cbr, 100.0));
    }

    /// Within its band of 1e-9·(1 + |α|) around `α = Q⁻¹(p)`, `admit`
    /// evaluates the tail; outside, it compares `x` with `α`. On either
    /// side of the band's edge, and in the zero-variance fluid check, it
    /// must give the verdict of `post_admission_overflow(..) ≤ p`.
    #[test]
    fn the_threshold_band_decides_as_the_tail_does() {
        // Aggregate variance 1 and a constant-rate candidate: the
        // normalized headroom is x = capacity − 51.
        let (state, flow) = (agg(50.0, 1.0, 50), FlowStats::new(1.0, 0.0));
        for p in [1e-2, 1e-3, 1e-6] {
            let ctl = AggregateGaussian::new(QosTarget::new(p));
            let alpha = ctl.target().alpha();
            let edge = 1e-9 * (1.0 + alpha.abs());
            for dx in [0.0, 1e-12, 0.99 * edge, 1.01 * edge, 1e-6] {
                for x in [alpha - dx, alpha + dx] {
                    let capacity = 51.0 + x;
                    let tail = ctl.post_admission_overflow(state, flow, capacity) <= p;
                    assert_eq!(
                        ctl.admit(state, flow, capacity),
                        tail,
                        "p = {p}, x = α + {:e}",
                        x - alpha
                    );
                }
            }
        }
        let ctl = AggregateGaussian::new(QosTarget::new(1e-3));
        let cbr = FlowStats::new(10.0, 0.0);
        for capacity in [89.0, 90.0, 91.0] {
            let tail = ctl.post_admission_overflow(agg(80.0, 0.0, 8), cbr, capacity) <= 1e-3;
            assert_eq!(
                ctl.admit(agg(80.0, 0.0, 8), cbr, capacity),
                tail,
                "c = {capacity}"
            );
        }
    }

    #[test]
    fn big_flows_rejected_before_small_ones() {
        let ctl = AggregateGaussian::new(QosTarget::new(1e-3));
        let state = agg(90.0, 9.0, 90);
        let small = FlowStats::from_mean_sd(0.5, 0.1);
        let big = FlowStats::from_mean_sd(8.0, 2.0);
        assert!(ctl.admit(state, small, 100.0));
        assert!(!ctl.admit(state, big, 100.0));
    }
}
