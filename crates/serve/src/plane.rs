//! The sharded decision plane: per-link controller state behind a
//! lock-free ingest ring, with a batched drain-then-decide API.
//!
//! # Architecture
//!
//! Links are hashed to shards (`splitmix64(link) % shards`); each shard
//! owns *all* state for its links — one [`LinkAdmission`] per link: its
//! controller, the admissible count its last measurement set, and its
//! occupancy — plus one [`IngestRing`] of pending
//! [`ShardEvent`]s. Producers push measurement snapshots and admission
//! requests through an [`IngestHandle`]; the shard's consumer drains the
//! ring in order and applies events to per-link state. No state is
//! shared across shards, so shards need no synchronization beyond their
//! own ring.
//!
//! A measurement reaches a link as its [`SnapshotMoments`]: `n`, the
//! pivot and three sums, folded where the rates were, by the generator
//! or the routed workload's node that measured them. So applying one is
//! an estimator update, one admissible-count evaluation and an occupancy
//! resync, O(1) whatever the link's flow count, and every path into the
//! plane decides the same bytes. A request reads the count the last
//! measurement set and calls no controller.
//!
//! Everything around the per-link rule is written once, generic over a
//! [`LinkLogic`]: the shard shell [`ShardOf`] (ring, instruments,
//! stream, drain, snapshot), the [`Plane`] that builds and hands out
//! shards, and the producers' [`IngestHandle`]. Two logics exist:
//! [`SingleHop`] below decides a request on its one link at once;
//! [`crate::routed::TwoPhase`] joins the votes of a route's hops. The
//! familiar names are aliases — [`Shard`], [`DecisionPlane`],
//! [`crate::routed::RoutedShard`], [`crate::routed::RoutedPlane`].
//!
//! # The invariance argument
//!
//! The admit/reject sequence a link observes is a pure function of the
//! order in which *that link's* events are applied:
//!
//! 1. a link's events are pushed by a single producer, and the ring is
//!    per-producer FIFO (see [`mbac_metrics::ring`]), so they reach the shard
//!    in per-link order;
//! 2. a link's state lives on exactly one shard, so its events are
//!    applied sequentially by one consumer in that arrival order;
//! 3. decisions for link *a* never read link *b*'s state.
//!
//! Therefore the per-link decision sequence is invariant to the shard
//! count, the producer count, and the cross-link interleaving — it
//! equals the single-threaded serial reference. `tests/invariance.rs`
//! proves this property over randomized workloads, shard counts 1..=8,
//! and models on their kernel or not, comparing byte-encoded decisions.

use crate::sink::Decided;
use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::FilteredEstimator;
use mbac_core::topology::LinkId;
use mbac_metrics::{
    splitmix64, Aggregated, Counter, FieldBuf, Histogram, IngestRing, MetricValue, MetricsSnapshot,
    StreamCursor, StreamHandle,
};
use mbac_num::SnapshotMoments;
use mbac_sim::{LinkAdmission, MbacController, MetricsMode};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A rejected decision-plane configuration (the CLI renders these as
/// friendly messages with exit code 1, like `mbac_sim::ConfigError`).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Zero shards requested.
    ZeroShards,
    /// Zero producer threads requested.
    ZeroProducers,
    /// Zero ring capacity requested.
    ZeroRingCapacity,
    /// More shards than [`MAX_SHARDS`] requested.
    TooManyShards {
        /// The rejected shard count.
        got: usize,
        /// The limit, [`MAX_SHARDS`].
        max: usize,
    },
    /// More producer threads than [`MAX_PRODUCERS`] requested.
    TooManyProducers {
        /// The rejected producer count.
        got: usize,
        /// The limit, [`MAX_PRODUCERS`].
        max: usize,
    },
    /// A larger ingest ring than [`MAX_RING_CAPACITY`] requested.
    RingTooLarge {
        /// The rejected ring capacity.
        got: usize,
        /// The limit, [`MAX_RING_CAPACITY`].
        max: usize,
    },
    /// A field that must be strictly positive was zero, negative or NaN.
    NonPositive {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A field that must be finite was infinite.
    NotFinite {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ZeroShards => write!(f, "shards must be at least 1"),
            ServeError::ZeroProducers => write!(f, "producers must be at least 1"),
            ServeError::ZeroRingCapacity => write!(f, "ring capacity must be at least 1"),
            ServeError::TooManyShards { got, max } => {
                write!(f, "shards must be at most {max}, got {got}")
            }
            ServeError::TooManyProducers { got, max } => {
                write!(f, "producers must be at most {max}, got {got}")
            }
            ServeError::RingTooLarge { got, max } => {
                write!(f, "ring capacity must be at most {max}, got {got}")
            }
            ServeError::NonPositive { field, value } => {
                write!(f, "{field} must be positive, got {value}")
            }
            ServeError::NotFinite { field, value } => {
                write!(f, "{field} must be finite, got {value}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// The most shards a plane may have. Every shard owns an ingest ring,
/// allocated up front, and the threaded drivers give it a consumer
/// thread: a larger count exhausts the host's memory or thread limit
/// long before it spreads the links any thinner.
pub const MAX_SHARDS: usize = 1024;

/// The most producer threads a threaded replay may start (one OS thread
/// each, like [`MAX_SHARDS`]).
pub const MAX_PRODUCERS: usize = 1024;

/// The largest ingest ring a shard may have. Every ring is allocated up
/// front, one slot per event of the outstanding window: a larger request
/// aborts on the allocation (or, past `usize::MAX / 2`, cannot be
/// rounded up to a power of two at all) long before the window it buys
/// could fill.
pub const MAX_RING_CAPACITY: usize = 1 << 20;

/// `shards` is in `1..=MAX_SHARDS`.
pub(crate) fn check_shards(shards: usize) -> Result<(), ServeError> {
    match shards {
        0 => Err(ServeError::ZeroShards),
        got if got > MAX_SHARDS => Err(ServeError::TooManyShards {
            got,
            max: MAX_SHARDS,
        }),
        _ => Ok(()),
    }
}

/// `producers` is in `1..=MAX_PRODUCERS`.
pub(crate) fn check_producers(producers: usize) -> Result<(), ServeError> {
    match producers {
        0 => Err(ServeError::ZeroProducers),
        got if got > MAX_PRODUCERS => Err(ServeError::TooManyProducers {
            got,
            max: MAX_PRODUCERS,
        }),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Link hashing
// ---------------------------------------------------------------------

/// The shard owning `link` in a plane of `shards` shards. The SplitMix64
/// finalizer is bijective on `u64`, so link ids with low-bit structure
/// still spread across shards.
#[inline]
pub fn shard_of(link: LinkId, shards: usize) -> usize {
    (splitmix64(link.as_u64()) % shards as u64) as usize
}

/// Hasher of the per-shard link maps: the SplitMix64 finalizer over the
/// `u32` link id, in place of SipHash on every event. The halves are
/// swapped because the low bits of `splitmix64(link)` are what
/// [`shard_of`] already spent: with a power-of-two shard count every
/// link of a shard would otherwise share them, and the map takes its
/// bucket from exactly those bits. Link ids come from the operator's
/// topology, not from request payloads, so the map gives up nothing by
/// losing SipHash's keyed collision resistance.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LinkHasher(u64);

impl Hasher for LinkHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u32(u32::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.0 = splitmix64(self.0 ^ u64::from(id)).rotate_left(32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-link state keyed by link id. Link ids are caller-chosen, so the
/// state stays in a map: an id must never size an allocation.
pub(crate) type LinkMap<V> = HashMap<LinkId, V, BuildHasherDefault<LinkHasher>>;

// ---------------------------------------------------------------------
// Events and decisions
// ---------------------------------------------------------------------

/// One unit of ingest: what producers push into a shard's ring.
#[derive(Debug)]
pub enum ShardEvent {
    /// A measurement of `link` at time `t`, folded into its moments. The
    /// count is the link's measured occupancy, which resynchronizes the
    /// plane's occupancy view.
    Measure {
        /// The link the measurement belongs to.
        link: LinkId,
        /// Measurement time.
        t: f64,
        /// The per-flow rates, folded. (The field keeps the name it had
        /// when a measurement carried every rate.)
        rates: SnapshotMoments,
    },
    /// An admission request for `link`.
    Request {
        /// The link asking to admit one more flow.
        link: LinkId,
        /// Enqueue timestamp; when present, the decision records the
        /// queue+decide latency (machine-dependent — bench mode only).
        enqueued: Option<Instant>,
    },
}

/// One admission decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The link the request addressed.
    pub link: LinkId,
    /// Admit (`true`) or reject (`false`).
    pub admit: bool,
    /// The controller's admissible count at decision time (`None` on a
    /// cold start — no measurement yet — which fails safe to reject).
    pub admissible: Option<f64>,
    /// The link's occupancy *after* this decision.
    pub occupancy: u32,
    /// Ingest-to-decision latency, when the request carried a stamp.
    pub latency_ns: Option<u64>,
}

impl Decision {
    /// Appends the decision's canonical byte encoding: flags byte
    /// (bit 0 = admit, bit 1 = admissible present), admissible-count
    /// f64 bits (little-endian, zero when absent), occupancy
    /// (little-endian). Latency is deliberately excluded — it is a
    /// machine fact, not a decision. Bit-level equality of encodings is
    /// what the invariance suite compares.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut flags = self.admit as u8;
        if self.admissible.is_some() {
            flags |= 2;
        }
        out.push(flags);
        out.extend_from_slice(&self.admissible.map_or(0, f64::to_bits).to_le_bytes());
        out.extend_from_slice(&self.occupancy.to_le_bytes());
    }
}

// ---------------------------------------------------------------------
// Controller factory
// ---------------------------------------------------------------------

/// Builds one per-link controller; shared by every shard so all links
/// run the identical policy.
pub type ControllerFactory = Arc<dyn Fn() -> MbacController + Send + Sync>;

/// The paper's controller as a factory: a [`FilteredEstimator`] with
/// memory time-scale `t_m` feeding a [`CertaintyEquivalent`] criterion
/// at target probability `p_ce`. One policy allocation is shared across
/// every controller the factory builds (`Arc<P>` is itself an
/// `AdmissionPolicy` — the controller-sharing impl in `mbac-core`).
pub fn certainty_equivalent_factory(p_ce: f64, t_m: f64) -> ControllerFactory {
    let policy = Arc::new(CertaintyEquivalent::from_probability(p_ce));
    Arc::new(move || {
        MbacController::new(
            Box::new(FilteredEstimator::new(t_m)),
            Box::new(Arc::clone(&policy)),
        )
    })
}

// ---------------------------------------------------------------------
// Per-shard metrics
// ---------------------------------------------------------------------

/// Instrument bundle one shard records into. Counters are deterministic
/// for a fixed workload and shard count; the decision-latency histogram
/// is machine-dependent and therefore **timing-gated**, mirroring the
/// `pool.*` convention.
#[derive(Debug, Clone, Default)]
struct ShardMetrics {
    measures: Counter,
    requests: Counter,
    admitted: Counter,
    rejected: Counter,
    batches: Counter,
    decision_ns: Histogram,
    timing: bool,
}

impl ShardMetrics {
    fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        out.insert("measures", MetricValue::Counter(self.measures.snapshot()));
        out.insert("requests", MetricValue::Counter(self.requests.snapshot()));
        out.insert("admitted", MetricValue::Counter(self.admitted.snapshot()));
        out.insert("rejected", MetricValue::Counter(self.rejected.snapshot()));
        out.insert("batches", MetricValue::Counter(self.batches.snapshot()));
        if self.timing {
            out.insert(
                "decision_ns",
                MetricValue::Histogram(self.decision_ns.snapshot()),
            );
        }
        out
    }

    /// Folds one decision's unit-of-work record. Counter updates are
    /// identical to the per-instrument calls this replaces; the latency
    /// histogram stays timing-gated.
    fn fold_decision(&mut self, e: &DecisionEntry) {
        self.requests.inc();
        if e.admit {
            self.admitted.inc();
        } else {
            self.rejected.inc();
        }
        if let (true, Some(ns)) = (self.timing, e.latency_ns) {
            self.decision_ns.record(ns as f64);
        }
    }
}

/// One admission decision's unit-of-work record: accumulated on the
/// stack while the decision is made, folded into the shard's
/// instruments once, and (in streaming mode) offered to the sampler.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecisionEntry {
    pub(crate) admit: bool,
    pub(crate) occupancy: u32,
    pub(crate) admissible: Option<f64>,
    pub(crate) latency_ns: Option<u64>,
}

impl DecisionEntry {
    /// The entry's fields as a sample payload.
    fn fields(&self) -> FieldBuf {
        let mut f = FieldBuf::new();
        f.push("admit", if self.admit { 1.0 } else { 0.0 });
        f.push("occupancy", f64::from(self.occupancy));
        if let Some(m) = self.admissible {
            f.push("admissible", m);
        }
        if let Some(ns) = self.latency_ns {
            f.push("latency_ns", ns as f64);
        }
        f
    }
}

// ---------------------------------------------------------------------
// The shard shell
// ---------------------------------------------------------------------

/// The per-link decision rule a shard runs: what an event does to the
/// links the shard owns. Everything else a shard is — ring, instruments,
/// stream, drain, snapshot — is [`ShardOf`], written once for every
/// logic.
pub trait LinkLogic: Send {
    /// What producers push into the shard's ring.
    type Event: Send;
    /// What a decided request appends to the caller's `out`.
    type Decision: Decided + Send;

    /// The link `event` belongs to, which picks the owning shard.
    fn link_of(event: &Self::Event) -> LinkId;

    /// Applies one event. A measurement is counted into `tap`; a
    /// decision made is folded into `tap` and appended to `out`.
    fn apply(&mut self, event: Self::Event, tap: &mut Instruments, out: &mut Vec<Self::Decision>);

    /// Resumes links that were waiting on another shard's verdict;
    /// returns how many did (0 = nothing more to do for now).
    fn pump(&mut self, _tap: &mut Instruments, _out: &mut Vec<Self::Decision>) -> usize {
        0
    }

    /// Whether any link is waiting on another shard's verdict.
    fn has_parked(&self) -> bool {
        false
    }

    /// One unprefixed counter bundle per owned link, by link index:
    /// published as `net.link<j>.*` beside the shard's own bundle.
    fn link_bundles(&self) -> Vec<(usize, MetricsSnapshot)> {
        Vec::new()
    }
}

/// What a shard records into: its counter bundle (absent when
/// collection is disabled) and its stream (absent unless one is
/// attached). A [`LinkLogic`] reports measurements and decisions here.
pub struct Instruments {
    index: usize,
    metrics: Option<Box<ShardMetrics>>,
    /// The shard index is the producer stream and its decision count the
    /// sequence. Each link's decisions reach exactly one shard in
    /// per-link order, so the (stream, seq) pairs — and therefore the
    /// sampler's keep set — are deterministic for a fixed workload and
    /// shard count.
    stream: Option<Box<StreamCursor>>,
}

impl Instruments {
    /// Counts one ingested measurement.
    pub(crate) fn measure(&mut self) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.measures.inc();
        }
    }

    /// Counts one non-empty batch of events.
    fn batch(&mut self) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.batches.inc();
        }
    }

    /// Folds one decision into the counters and advances the stream:
    /// sample emission, plus a cumulative interval flush when one is
    /// due. `logic` is the state the decision left behind — an interval
    /// carries its link bundles as of this decision.
    pub(crate) fn decision<L: LinkLogic>(&mut self, e: &DecisionEntry, logic: &L) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.fold_decision(e);
        }
        // The decision plane has no simulation clock: its records carry
        // `t = NaN` and are ordered by `seq` alone.
        let stream = self.stream.as_deref_mut();
        if stream.is_some_and(|s| s.advance(f64::NAN, || e.fields())) {
            self.emit_interval(logic);
        }
    }

    /// Emits one cumulative interval on the stream, if one is attached.
    fn emit_interval<L: LinkLogic>(&self, logic: &L) {
        if let Some(s) = self.stream.as_deref() {
            let mut snap = MetricsSnapshot::new();
            self.snapshot_into(logic, &mut snap);
            s.emit_interval(snap);
        }
    }

    /// Merges this shard's metrics under their plane-wide names —
    /// `serve.shard<i>.*` plus `net.link<j>.*` for each link `logic`
    /// reports — into `out` (nothing when collection is disabled). Each
    /// link lives on exactly one shard, so the link namespaces of
    /// different shards never collide.
    fn snapshot_into<L: LinkLogic>(&self, logic: &L, out: &mut MetricsSnapshot) {
        let Some(m) = self.metrics.as_deref() else {
            return;
        };
        out.merge_prefixed(&format!("serve.shard{}", self.index), &m.snapshot());
        for (link, bundle) in logic.link_bundles() {
            out.merge_prefixed(&format!("net.link{link}"), &bundle);
        }
    }
}

/// One shard: the ingest ring, the instruments, and the [`LinkLogic`]
/// holding the state of the links the shard owns.
pub struct ShardOf<L: LinkLogic> {
    ring: Arc<IngestRing<L::Event>>,
    tap: Instruments,
    logic: L,
}

impl<L: LinkLogic> ShardOf<L> {
    /// This shard's index within the plane.
    pub fn index(&self) -> usize {
        self.tap.index
    }

    /// Applies one event to the link it belongs to, appending any
    /// decision it resolves to `out`.
    pub fn apply(&mut self, event: L::Event, out: &mut Vec<L::Decision>) {
        self.logic.apply(event, &mut self.tap, out);
    }

    /// One sweep over the links waiting on another shard (see
    /// [`LinkLogic::pump`]) — loop until 0 to settle.
    pub fn pump(&mut self, out: &mut Vec<L::Decision>) -> usize {
        self.logic.pump(&mut self.tap, out)
    }

    /// Whether any of this shard's links awaits a cross-shard verdict.
    pub fn has_parked(&self) -> bool {
        self.logic.has_parked()
    }

    /// The link logic, for a driver that readies it between events.
    pub(crate) fn logic_mut(&mut self) -> &mut L {
        &mut self.logic
    }

    /// Drains the events in the ring, in ring order — at most one ring's
    /// capacity of them, so `out` holds at most that many decisions
    /// however fast the producers refill it — then runs one
    /// [`pump`](Self::pump) sweep. Returns events processed plus links
    /// resumed (0 = no progress).
    pub fn drain_into(&mut self, out: &mut Vec<L::Decision>) -> usize {
        let mut n = 0;
        while n < self.ring.capacity() {
            let Some(ev) = self.ring.try_pop() else {
                break;
            };
            self.apply(ev, out);
            n += 1;
        }
        if n > 0 {
            self.tap.batch();
        }
        n + self.pump(out)
    }
}

impl<L: LinkLogic> Drop for ShardOf<L> {
    /// Emits the final cumulative interval so every shard's totals are
    /// recoverable from the stream even with `flush_interval: 0`.
    fn drop(&mut self) {
        self.tap.emit_interval(&self.logic);
    }
}

// ---------------------------------------------------------------------
// Plane
// ---------------------------------------------------------------------

/// A sharded plane: construction, handle vending, and the merged
/// metrics view. Consumers take the shards out with
/// [`Plane::into_shards`] to run them on their own threads.
pub struct Plane<L: LinkLogic> {
    shards: Vec<ShardOf<L>>,
}

impl<L: LinkLogic> Plane<L> {
    /// Builds `shards` empty shards, each around one `logic()`, with a
    /// ring of `ring_capacity` slots. The one place rings are sized, so
    /// the one place their size is checked.
    pub(crate) fn build(
        shards: usize,
        ring_capacity: usize,
        metrics: MetricsMode,
        stream: Option<&StreamHandle>,
        mut logic: impl FnMut() -> L,
    ) -> Result<Self, ServeError> {
        check_shards(shards)?;
        match ring_capacity {
            0 => return Err(ServeError::ZeroRingCapacity),
            got if got > MAX_RING_CAPACITY => {
                return Err(ServeError::RingTooLarge {
                    got,
                    max: MAX_RING_CAPACITY,
                })
            }
            _ => {}
        }
        let bundle = (metrics != MetricsMode::Disabled).then(|| {
            Box::new(ShardMetrics {
                timing: metrics == MetricsMode::EnabledWithTiming,
                ..ShardMetrics::default()
            })
        });
        let shards = (0..shards)
            .map(|index| ShardOf {
                ring: Arc::new(IngestRing::with_capacity(ring_capacity)),
                tap: Instruments {
                    index,
                    metrics: bundle.clone(),
                    stream: stream.map(|h| Box::new(StreamCursor::new(h.clone(), index as u64))),
                },
                logic: logic(),
            })
            .collect();
        Ok(Plane { shards })
    }

    /// The shard owning `link`.
    pub fn shard_of(&self, link: LinkId) -> usize {
        shard_of(link, self.shards.len())
    }

    /// A producer-side handle routing events to the owning shard's ring.
    pub fn handle(&self) -> IngestHandle<L> {
        IngestHandle {
            rings: self.shards.iter().map(|s| Arc::clone(&s.ring)).collect(),
        }
    }

    /// Mutable access to the shards (single-threaded driving).
    pub fn shards_mut(&mut self) -> &mut [ShardOf<L>] {
        &mut self.shards
    }

    /// Takes the shards out, one per consumer thread. The
    /// [`IngestHandle`]s stay valid — they share the rings.
    pub fn into_shards(self) -> Vec<ShardOf<L>> {
        self.shards
    }

    /// The plane-wide metrics snapshot (see [`plane_snapshot`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        plane_snapshot(&self.shards)
    }
}

/// Merges every shard's bundle into `serve.shard<i>.*` and its per-link
/// counters into `net.link<j>.*` (empty when collection is disabled);
/// also for drivers that have taken the shards out of the plane.
pub fn plane_snapshot<L: LinkLogic>(shards: &[ShardOf<L>]) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::new();
    for shard in shards {
        shard.tap.snapshot_into(&shard.logic, &mut out);
    }
    out
}

/// Producer-side handle: routes each event to the ring of the shard
/// owning its link. Producer threads share it by reference.
pub struct IngestHandle<L: LinkLogic> {
    rings: Vec<Arc<IngestRing<L::Event>>>,
}

impl<L: LinkLogic> IngestHandle<L> {
    /// The shard owning `link`.
    pub fn shard_of(&self, link: LinkId) -> usize {
        shard_of(link, self.rings.len())
    }

    /// Enqueues `event` on the owning shard's ring, or returns it when
    /// that ring is full (backpressure).
    pub fn try_send(&self, event: L::Event) -> Result<(), L::Event> {
        self.rings[self.shard_of(L::link_of(&event))].try_push(event)
    }
}

// ---------------------------------------------------------------------
// The single-hop logic
// ---------------------------------------------------------------------

/// The one-link rule: a request is decided where it lands, by its
/// link's [`LinkAdmission`], the moment it is applied.
pub struct SingleHop {
    capacity: f64,
    links: LinkMap<LinkAdmission>,
    make: ControllerFactory,
}

impl SingleHop {
    fn link_mut(&mut self, link: LinkId) -> &mut LinkAdmission {
        self.links
            .entry(link)
            .or_insert_with(|| LinkAdmission::new((self.make)(), self.capacity))
    }
}

impl LinkLogic for SingleHop {
    type Event = ShardEvent;
    type Decision = Decision;

    fn link_of(event: &ShardEvent) -> LinkId {
        match event {
            ShardEvent::Measure { link, .. } | ShardEvent::Request { link, .. } => *link,
        }
    }

    /// A measurement feeds the link's estimator and resynchronizes
    /// occupancy; a request decides admit/reject and appends the
    /// decision.
    fn apply(&mut self, event: ShardEvent, tap: &mut Instruments, out: &mut Vec<Decision>) {
        match event {
            ShardEvent::Measure { link, t, rates } => {
                self.link_mut(link).measure(t, &rates);
                tap.measure();
            }
            ShardEvent::Request { link, enqueued } => {
                let state = self.link_mut(link);
                let admit = state.votes();
                state.settle(admit);
                let (admissible, occupancy) = (state.admissible(), state.occupancy());
                let latency_ns =
                    enqueued.map(|at| u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX));
                let entry = DecisionEntry {
                    admit,
                    occupancy,
                    admissible,
                    latency_ns,
                };
                tap.decision(&entry, self);
                out.push(Decision {
                    link,
                    admit,
                    admissible,
                    occupancy,
                    latency_ns,
                });
            }
        }
    }
}

/// One shard of the single-link plane.
pub type Shard = ShardOf<SingleHop>;

/// Decision-plane configuration.
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// Number of shards (link state partitions).
    pub shards: usize,
    /// Per-link capacity `c` the controllers decide against.
    pub capacity: f64,
    /// Ingest-ring capacity per shard (rounded up to a power of two, at
    /// most [`MAX_RING_CAPACITY`]).
    pub ring_capacity: usize,
    /// Metrics collection mode; `EnabledWithTiming` additionally
    /// records the machine-dependent `serve.shard<i>.decision_ns`
    /// histogram.
    pub metrics: MetricsMode,
    /// Streaming-emission handle. When set, each shard samples raw
    /// decision records (stream = shard index, seq = decision count)
    /// and flushes cumulative interval snapshots through it; aggregates
    /// are unaffected.
    pub stream: Option<StreamHandle>,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            shards: 1,
            capacity: 100.0,
            ring_capacity: 1024,
            metrics: MetricsMode::Disabled,
            stream: None,
        }
    }
}

/// The single-link decision plane.
pub type DecisionPlane = Plane<SingleHop>;

impl DecisionPlane {
    /// Builds a plane with `cfg.shards` empty shards, each creating
    /// per-link controllers from `make` on first contact with a link.
    pub fn new(cfg: &PlaneConfig, make: ControllerFactory) -> Result<Self, ServeError> {
        let capacity = cfg.capacity;
        if capacity <= 0.0 || capacity.is_nan() {
            return Err(ServeError::NonPositive {
                field: "capacity",
                value: capacity,
            });
        }
        if capacity.is_infinite() {
            return Err(ServeError::NotFinite {
                field: "capacity",
                value: capacity,
            });
        }
        let logic = || SingleHop {
            capacity,
            links: LinkMap::default(),
            make: Arc::clone(&make),
        };
        Plane::build(
            cfg.shards,
            cfg.ring_capacity,
            cfg.metrics,
            cfg.stream.as_ref(),
            logic,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbac_core::estimators::fold_snapshot;
    use mbac_metrics::MetricValue;

    fn plane(shards: usize) -> DecisionPlane {
        DecisionPlane::new(
            &PlaneConfig {
                shards,
                capacity: 10.0,
                ring_capacity: 64,
                metrics: MetricsMode::Enabled,
                stream: None,
            },
            certainty_equivalent_factory(1e-2, 0.0),
        )
        .unwrap()
    }

    /// Decides one direct request per entry of `links`, in order.
    fn request(shard: &mut Shard, links: &[LinkId], out: &mut Vec<Decision>) {
        for &link in links {
            shard.apply(
                ShardEvent::Request {
                    link,
                    enqueued: None,
                },
                out,
            );
        }
    }

    #[test]
    fn config_errors_are_typed() {
        let make = certainty_equivalent_factory(1e-2, 0.0);
        let bad = PlaneConfig {
            shards: 0,
            ..PlaneConfig::default()
        };
        assert_eq!(
            DecisionPlane::new(&bad, Arc::clone(&make)).err(),
            Some(ServeError::ZeroShards)
        );
        let bad = PlaneConfig {
            shards: MAX_SHARDS + 1,
            ..PlaneConfig::default()
        };
        assert_eq!(
            DecisionPlane::new(&bad, Arc::clone(&make)).err(),
            Some(ServeError::TooManyShards {
                got: MAX_SHARDS + 1,
                max: MAX_SHARDS
            })
        );
        let bad = PlaneConfig {
            capacity: -1.0,
            ..PlaneConfig::default()
        };
        assert!(matches!(
            DecisionPlane::new(&bad, Arc::clone(&make)).err(),
            Some(ServeError::NonPositive {
                field: "capacity",
                ..
            })
        ));
        let bad = PlaneConfig {
            capacity: f64::INFINITY,
            ..PlaneConfig::default()
        };
        assert!(matches!(
            DecisionPlane::new(&bad, Arc::clone(&make)).err(),
            Some(ServeError::NotFinite {
                field: "capacity",
                ..
            })
        ));
        let bad = PlaneConfig {
            ring_capacity: 0,
            ..PlaneConfig::default()
        };
        assert_eq!(
            DecisionPlane::new(&bad, Arc::clone(&make)).err(),
            Some(ServeError::ZeroRingCapacity)
        );
        // Neither the allocation that would abort nor the size with no
        // power of two above it is attempted.
        for got in [MAX_RING_CAPACITY + 1, usize::MAX] {
            let bad = PlaneConfig {
                ring_capacity: got,
                ..PlaneConfig::default()
            };
            assert_eq!(
                DecisionPlane::new(&bad, Arc::clone(&make)).err(),
                Some(ServeError::RingTooLarge {
                    got,
                    max: MAX_RING_CAPACITY
                })
            );
        }
    }

    #[test]
    fn link_placement_is_total_and_stable() {
        let plane = plane(4);
        for link in (0..1000u32).map(LinkId) {
            let s = plane.shard_of(link);
            assert!(s < 4);
            assert_eq!(s, plane.shard_of(link), "placement must be stable");
            assert_eq!(s, plane.handle().shard_of(link));
        }
    }

    /// With a power-of-two shard count the links of one shard agree in
    /// the low bits of `splitmix64`; the map's hash must not.
    #[test]
    fn link_hasher_spreads_the_links_of_one_shard() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<LinkHasher>::default();
        let mut low_bits = [false; 8];
        for link in (0..64u32).map(LinkId).filter(|&l| shard_of(l, 8) == 0) {
            low_bits[(build.hash_one(link) % 8) as usize] = true;
        }
        assert!(low_bits.iter().filter(|&&seen| seen).count() >= 4);
    }

    #[test]
    fn cold_start_rejects_and_measurement_enables() {
        let mut plane = plane(1);
        let mut out = Vec::new();
        let shard = &mut plane.shards_mut()[0];
        request(shard, &[LinkId(7)], &mut out);
        assert_eq!(out.len(), 1);
        assert!(!out[0].admit, "cold start must fail safe");
        assert_eq!(out[0].admissible, None);

        // Constant rates 1.0: σ̂ = 0 ⇒ fluid limit c/μ̂ = 10 flows.
        shard.apply(
            ShardEvent::Measure {
                link: LinkId(7),
                t: 0.0,
                rates: fold_snapshot(&[1.0; 4], None),
            },
            &mut out,
        );
        out.clear();
        request(shard, &[LinkId(7); 7], &mut out);
        let admitted = out.iter().filter(|d| d.admit).count();
        // Occupancy resynced to 4; fluid limit 10 ⇒ 6 more fit.
        assert_eq!(admitted, 6);
        assert!(!out[6].admit, "the 7th must push past the fluid limit");
        assert_eq!(out[5].occupancy, 10);
    }

    /// One measurement with a NaN or ±∞ rate must not block the link
    /// for the rest of the run: the filter keeps its estimate, and the
    /// link admits up to its fluid limit again.
    #[test]
    fn a_non_finite_measurement_does_not_block_the_link() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut plane = DecisionPlane::new(
                &PlaneConfig {
                    capacity: 10.0,
                    ..PlaneConfig::default()
                },
                certainty_equivalent_factory(1e-2, 5.0),
            )
            .unwrap();
            let shard = &mut plane.shards_mut()[0];
            let mut out = Vec::new();
            for (t, rates) in [
                (0.0, [1.0; 4]),
                (1.0, [1.0, bad, 1.0, 1.0]),
                (2.0, [1.0; 4]),
            ] {
                let rates = fold_snapshot(&rates, None);
                shard.apply(
                    ShardEvent::Measure {
                        link: LinkId(3),
                        t,
                        rates,
                    },
                    &mut out,
                );
            }
            request(shard, &[LinkId(3); 7], &mut out);
            assert_eq!(out.iter().filter(|d| d.admit).count(), 6, "after {bad}");
            assert_eq!(out[6].admissible, Some(10.0), "after {bad}");
        }
    }

    #[test]
    fn drain_applies_ring_events_in_order() {
        let mut plane = plane(1);
        let handle = plane.handle();
        handle
            .try_send(ShardEvent::Measure {
                link: LinkId(1),
                t: 0.0,
                rates: fold_snapshot(&[1.0; 2], None),
            })
            .unwrap();
        handle
            .try_send(ShardEvent::Request {
                link: LinkId(1),
                enqueued: None,
            })
            .unwrap();
        let mut out = Vec::new();
        let n = plane.shards_mut()[0].drain_into(&mut out);
        assert_eq!(n, 2);
        assert_eq!(out.len(), 1);
        assert!(out[0].admit, "measurement must precede the decision");
    }

    #[test]
    fn metrics_namespace_and_counts() {
        let mut plane = plane(2);
        let mut out = Vec::new();
        // Each link decided on its owning shard.
        let link_a = (0..).map(LinkId).find(|&l| plane.shard_of(l) == 0).unwrap();
        let link_b = (0..).map(LinkId).find(|&l| plane.shard_of(l) == 1).unwrap();
        let (a, b) = (plane.shard_of(link_a), plane.shard_of(link_b));
        request(&mut plane.shards_mut()[a], &[link_a], &mut out);
        request(&mut plane.shards_mut()[b], &[link_b, link_b], &mut out);
        let snap = plane.snapshot();
        match snap.get("serve.shard0.requests") {
            Some(MetricValue::Counter(c)) => assert_eq!(c.count, 1),
            other => panic!("{other:?}"),
        }
        match snap.get("serve.shard1.rejected") {
            Some(MetricValue::Counter(c)) => assert_eq!(c.count, 2),
            other => panic!("{other:?}"),
        }
        // Timing-gated histogram absent without EnabledWithTiming.
        assert!(snap.get("serve.shard0.decision_ns").is_none());
    }

    #[test]
    fn decision_encoding_is_injective_on_the_fields() {
        let base = Decision {
            link: LinkId(3),
            admit: true,
            admissible: Some(7.5),
            occupancy: 4,
            latency_ns: None,
        };
        let mut a = Vec::new();
        base.encode_into(&mut a);
        // Latency is excluded from the encoding.
        let mut b = Vec::new();
        Decision {
            latency_ns: Some(99),
            ..base
        }
        .encode_into(&mut b);
        assert_eq!(a, b);
        // Every decision field changes the bytes.
        for other in [
            Decision {
                admit: false,
                ..base
            },
            Decision {
                admissible: Some(7.5000001),
                ..base
            },
            Decision {
                admissible: None,
                ..base
            },
            Decision {
                occupancy: 5,
                ..base
            },
        ] {
            let mut c = Vec::new();
            other.encode_into(&mut c);
            assert_ne!(a, c, "{other:?}");
        }
    }
}
