//! Decision sinks: where a link logic puts each decision the moment
//! it makes it.
//!
//! The replay driver ([`crate::replay`]) does not accumulate
//! decisions, and holds none between the logic and its sink: a shard's
//! logic hands every decision it resolves straight to the sink its
//! caller passed in — the serial step's sink for the window, or on the
//! threaded step the sink of the consumer that drains the shard (one
//! sink per shard, merged when the run ends).
//!
//! A decision reaches its sink as a **verdict** — a [`DecisionEntry`]:
//! admit or reject, hop 0's admissible count and occupancy after the
//! decision, and the latency, the entry the shard's tap folds — plus a
//! builder of its full record (a [`crate::Decision`] or a
//! [`crate::RouteDecision`]). The aggregates are kept for every
//! decision; the record is built only for a sink that keeps records,
//! which calls the builder. Two sinks exist, and both steps serve both:
//!
//! * `Collect` builds and keeps every record, grouped by link or route
//!   in decision order — the [`crate::ReplayOutcome::sequences`] the
//!   invariance suites compare byte for byte;
//! * `Tally` counts from the verdict alone and never builds a record:
//!   decisions, admits and the stamped latencies themselves. A bench
//!   run stamps at most [`crate::bench::LATENCY_SAMPLES`] requests, so
//!   the samples stay small whatever the run's length, and the report
//!   computes p50 / p99 / mean on them exactly — no binned
//!   approximation (`mbac_metrics::Histogram`'s log bins move a
//!   quantile by up to 4.4 %) stands between a sample and its figure.
//!
//! A `Vec` is a sink too, the one a caller outside the crate holds:
//! [`crate::ShardOf::apply`] and [`crate::ShardOf::pump`] append every
//! record to one, in decision order.

use crate::plane::Decision;
use crate::routed::RouteDecision;
use mbac_metrics::MetricsSnapshot;
use std::time::Duration;

/// What the sinks and a [`crate::ReplayOutcome`] read off a decision,
/// whichever link logic made it.
pub trait Decided {
    /// Index of the link (single-hop logic) or route (two-phase logic)
    /// whose decision sequence this decision belongs to.
    fn group(&self) -> usize;
    /// Admit (`true`) or reject.
    fn admit(&self) -> bool;
    /// Ingest-to-decision latency, when the request was stamped.
    fn latency_ns(&self) -> Option<u64>;
    /// Appends the decision's canonical byte encoding (latency
    /// excluded: it is a machine fact, not a decision).
    fn encode_into(&self, out: &mut Vec<u8>);
}

impl Decided for Decision {
    fn group(&self) -> usize {
        self.link.index()
    }
    fn admit(&self) -> bool {
        self.admit
    }
    fn latency_ns(&self) -> Option<u64> {
        self.latency_ns
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        Decision::encode_into(self, out);
    }
}

impl Decided for RouteDecision {
    fn group(&self) -> usize {
        self.route.index()
    }
    fn admit(&self) -> bool {
        self.admit
    }
    fn latency_ns(&self) -> Option<u64> {
        self.latency_ns
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        RouteDecision::encode_into(self, out);
    }
}

/// Keeps [`DecisionSink`] to the sinks this crate names: its own, and
/// `Vec`.
pub(crate) mod sealed {
    /// Implemented by those sinks only.
    pub trait Sealed {}
}

/// One decision's verdict: what a sink that keeps no records reads,
/// and the entry the shard's tap folds into its counters and offers to
/// its stream. On a route, hop 0's view, which mirrors a single-link
/// [`Decision`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct DecisionEntry {
    pub(crate) admit: bool,
    /// Hop 0's occupancy after the decision.
    pub(crate) occupancy: u32,
    /// Hop 0's admissible count at decision time.
    pub(crate) admissible: Option<f64>,
    pub(crate) latency_ns: Option<u64>,
}

/// A consumer of decisions: what [`crate::LinkLogic::apply`] and
/// [`crate::LinkLogic::pump`] hand each decision to. A link's (or
/// route's) decisions all reach the same sink, in decision order;
/// `merge` joins sinks that saw disjoint sets of links (or routes).
/// Sealed: a caller outside the crate passes a `Vec`.
pub trait DecisionSink<D>: sealed::Sealed + Send {
    /// Takes one decision: its verdict, and a builder of its record,
    /// which only a sink that keeps records calls.
    fn record(&mut self, verdict: &DecisionEntry, build: impl FnOnce() -> D);

    /// Folds in a sink filled by another consumer.
    fn merge(&mut self, other: Self);
}

impl<D> sealed::Sealed for Vec<D> {}

/// The sink of a caller outside the crate: every decision, appended in
/// decision order.
impl<D: Send> DecisionSink<D> for Vec<D> {
    #[inline]
    fn record(&mut self, _: &DecisionEntry, build: impl FnOnce() -> D) {
        self.push(build());
    }

    fn merge(&mut self, other: Self) {
        self.extend(other);
    }
}

/// What a replay driver hands back: the filled sink, the replay's wall
/// time and the plane's metrics bundle.
pub(crate) struct Replayed<S> {
    pub(crate) sink: S,
    pub(crate) elapsed: Duration,
    pub(crate) snapshot: MetricsSnapshot,
}

/// The collecting sink: every decision, grouped by link or route.
pub(crate) struct Collect<D> {
    groups: Vec<Vec<D>>,
}

impl<D: Decided> Collect<D> {
    /// An empty sink for a workload of `groups` links (or routes).
    pub(crate) fn new(groups: usize) -> Self {
        Collect {
            groups: (0..groups).map(|_| Vec::new()).collect(),
        }
    }

    /// The per-group sequences with the decision and admit totals.
    pub(crate) fn finish(self) -> (Vec<Vec<D>>, u64, u64) {
        let decided = self.groups.iter().flatten();
        let (decisions, admitted) = decided.fold((0, 0), |(n, a), d| (n + 1, a + d.admit() as u64));
        (self.groups, decisions, admitted)
    }
}

impl<D> sealed::Sealed for Collect<D> {}

impl<D: Decided + Send> DecisionSink<D> for Collect<D> {
    #[inline]
    fn record(&mut self, _: &DecisionEntry, build: impl FnOnce() -> D) {
        let d = build();
        self.groups[d.group()].push(d);
    }

    fn merge(&mut self, other: Self) {
        for (mine, theirs) in self.groups.iter_mut().zip(other.groups) {
            mine.extend(theirs);
        }
    }
}

/// The tally sink: the totals and stamped latencies a bench report is
/// made from, counted from each verdict; it builds no record.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) decisions: u64,
    pub(crate) admitted: u64,
    /// Every stamped decision's latency, in nanoseconds.
    pub(crate) latencies: Vec<u64>,
}

impl sealed::Sealed for Tally {}

impl<D> DecisionSink<D> for Tally {
    #[inline]
    fn record(&mut self, verdict: &DecisionEntry, _: impl FnOnce() -> D) {
        self.decisions += 1;
        self.admitted += verdict.admit as u64;
        if let Some(ns) = verdict.latency_ns {
            self.latencies.push(ns);
        }
    }

    fn merge(&mut self, other: Self) {
        self.decisions += other.decisions;
        self.admitted += other.admitted;
        self.latencies.extend(other.latencies);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbac_core::topology::LinkId;

    #[test]
    fn collect_merges_disjoint_groups_in_order() {
        let d = |link: u32, occupancy: u32| Decision {
            link: LinkId(link),
            admit: occupancy.is_multiple_of(2),
            admissible: None,
            occupancy,
            latency_ns: None,
        };
        let keep = |sink: &mut Collect<Decision>, d: Decision| {
            let verdict = DecisionEntry {
                admit: d.admit,
                occupancy: d.occupancy,
                admissible: d.admissible,
                latency_ns: d.latency_ns,
            };
            sink.record(&verdict, || d);
        };
        let mut a = Collect::new(3);
        let mut b = Collect::new(3);
        keep(&mut a, d(0, 1));
        keep(&mut b, d(2, 2));
        keep(&mut a, d(0, 3));
        keep(&mut b, d(2, 4));
        a.merge(b);
        let (groups, decisions, admitted) = a.finish();
        assert_eq!((decisions, admitted), (4, 2));
        assert_eq!(groups[0], [d(0, 1), d(0, 3)]);
        assert!(groups[1].is_empty());
        assert_eq!(groups[2], [d(2, 2), d(2, 4)]);
    }
}
