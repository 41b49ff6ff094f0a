//! The sharded decision plane: per-link controller state behind a
//! lock-free ingest ring, with a batched drain-then-decide API.
//!
//! # Architecture
//!
//! Links are hashed to shards (`splitmix64(link) % shards`); each shard
//! owns *all* state for its links — one [`MbacController`] (with its
//! decision memo) per link — plus one [`IngestRing`] of pending
//! [`ShardEvent`]s. Producers push measurement snapshots and admission
//! requests through an [`IngestHandle`]; the shard's consumer drains the
//! ring in order and applies events to per-link state. No state is
//! shared across shards, so shards need no synchronization beyond their
//! own ring.
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
//! and both flow engines, comparing byte-encoded decisions.

use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::FilteredEstimator;
use mbac_core::topology::LinkId;
use mbac_metrics::{
    splitmix64, Aggregated, Counter, FieldBuf, Histogram, IngestRing, MetricValue, MetricsSnapshot,
    Sampler, StreamHandle, StreamItem,
};
use mbac_sim::{MbacController, MetricsMode};
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
    /// A field that must be strictly positive was zero, negative or NaN.
    NonPositive {
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
            ServeError::NonPositive { field, value } => {
                write!(f, "{field} must be positive, got {value}")
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
    /// A measurement snapshot for `link`: per-flow instantaneous rates
    /// at time `t`. The snapshot length is the link's measured
    /// occupancy, which resynchronizes the plane's occupancy view.
    Measure {
        /// The link the measurement belongs to.
        link: LinkId,
        /// Measurement time.
        t: f64,
        /// Per-flow rates.
        rates: Box<[f64]>,
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

impl ShardEvent {
    /// The link this event belongs to.
    pub fn link(&self) -> LinkId {
        match self {
            ShardEvent::Measure { link, .. } | ShardEvent::Request { link, .. } => *link,
        }
    }
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
#[derive(Debug, Clone)]
pub(crate) struct ShardMetrics {
    pub(crate) measures: Counter,
    pub(crate) requests: Counter,
    pub(crate) admitted: Counter,
    pub(crate) rejected: Counter,
    pub(crate) batches: Counter,
    pub(crate) decision_ns: Histogram,
    pub(crate) timing: bool,
}

impl ShardMetrics {
    pub(crate) fn new(timing: bool) -> Self {
        ShardMetrics {
            measures: Counter::new(),
            requests: Counter::new(),
            admitted: Counter::new(),
            rejected: Counter::new(),
            batches: Counter::new(),
            decision_ns: Histogram::new(),
            timing,
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
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
    pub(crate) fn fold_decision(&mut self, e: &DecisionEntry) {
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
    pub(crate) fn fields(&self) -> FieldBuf {
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

/// Streaming-emission state of one shard: the shard index is the
/// producer stream, the per-shard decision count is the sequence.
/// Each link's decisions reach exactly one shard in per-link order, so
/// the (stream, seq) pairs — and therefore the sampler's keep set — are
/// deterministic for a fixed workload and shard count.
pub(crate) struct ShardStream {
    handle: StreamHandle,
    stream: u64,
    sampler: Sampler,
    flush_interval: u64,
    seq: u64,
}

impl ShardStream {
    pub(crate) fn new(handle: StreamHandle, stream: u64) -> Self {
        let sampler = handle.sampler_for(stream);
        let flush_interval = handle.flush_interval();
        ShardStream {
            handle,
            stream,
            sampler,
            flush_interval,
            seq: 0,
        }
    }

    /// Advances the stream by one folded decision, emitting a sampled
    /// raw record when the sampler keeps it. Returns `true` when a
    /// cumulative interval flush is due.
    pub(crate) fn advance(&mut self, e: &DecisionEntry) -> bool {
        self.seq += 1;
        if self.sampler.keep(self.seq) {
            self.handle.emit(StreamItem::Sample {
                stream: self.stream,
                seq: self.seq,
                // The decision plane has no simulation clock; samples
                // are ordered by `seq` alone.
                t: f64::NAN,
                fields: e.fields(),
            });
        }
        self.flush_interval > 0 && self.seq.is_multiple_of(self.flush_interval)
    }

    /// Emits one cumulative interval carrying `metrics`.
    pub(crate) fn emit_interval(&self, metrics: MetricsSnapshot) {
        self.handle.emit(StreamItem::Interval {
            stream: self.stream,
            seq: self.seq,
            t: f64::NAN,
            metrics,
        });
    }
}

// ---------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------

/// All per-link admission state for one link. `flows` is the plane's
/// occupancy view: resynchronized to the measured snapshot length on
/// every measurement, incremented provisionally on each admit between
/// measurements.
struct LinkState {
    ctl: MbacController,
    flows: u32,
}

/// One shard: the links it owns, their controllers, and its ingest ring.
pub struct Shard {
    index: usize,
    capacity: f64,
    ring: Arc<IngestRing<ShardEvent>>,
    links: LinkMap<LinkState>,
    make: ControllerFactory,
    metrics: Option<Box<ShardMetrics>>,
    stream: Option<Box<ShardStream>>,
}

impl Shard {
    /// This shard's index within the plane.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of links with materialized state on this shard.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Whether this shard's ring has no pending events (approximate
    /// while producers are running, exact once they have stopped).
    pub fn ring_is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    fn link_mut(&mut self, link: LinkId) -> &mut LinkState {
        self.links.entry(link).or_insert_with(|| LinkState {
            ctl: (self.make)(),
            flows: 0,
        })
    }

    /// Applies one event: a measurement feeds the link's estimator and
    /// resynchronizes occupancy; a request decides admit/reject and
    /// appends the decision.
    pub fn apply(&mut self, event: ShardEvent, out: &mut Vec<Decision>) {
        match event {
            ShardEvent::Measure { link, t, rates } => {
                let state = self.link_mut(link);
                state.ctl.observe(t, &rates);
                state.flows = rates.len() as u32;
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.measures.inc();
                }
            }
            ShardEvent::Request { link, enqueued } => {
                let capacity = self.capacity;
                let state = self.link_mut(link);
                let admissible = state.ctl.admissible_count(capacity);
                // Cold start (no measurement yet) fails safe: reject.
                let admit = admissible.is_some_and(|m| f64::from(state.flows + 1) <= m);
                if admit {
                    state.flows += 1;
                }
                let occupancy = state.flows;
                let latency_ns =
                    enqueued.map(|at| u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX));
                let entry = DecisionEntry {
                    admit,
                    occupancy,
                    admissible,
                    latency_ns,
                };
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.fold_decision(&entry);
                }
                self.stream_decision(&entry);
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

    /// Drains every event currently in the ring, in ring order,
    /// appending request decisions to `out`. Returns how many events
    /// were processed.
    pub fn drain_into(&mut self, out: &mut Vec<Decision>) -> usize {
        let mut n = 0;
        while let Some(ev) = self.ring.try_pop() {
            self.apply(ev, out);
            n += 1;
        }
        if n > 0 {
            if let Some(m) = self.metrics.as_deref_mut() {
                m.batches.inc();
            }
        }
        n
    }

    /// The batched admit/reject API: drains all pending measurement
    /// updates (and in-ring requests) first, then decides each direct
    /// request in order. This is the freshness contract — a decision
    /// never ignores a measurement that was already ingested.
    pub fn decide_batch(&mut self, requests: &[LinkId], out: &mut Vec<Decision>) {
        self.drain_into(out);
        for &link in requests {
            self.apply(
                ShardEvent::Request {
                    link,
                    enqueued: None,
                },
                out,
            );
        }
        if !requests.is_empty() {
            if let Some(m) = self.metrics.as_deref_mut() {
                m.batches.inc();
            }
        }
    }

    /// This shard's metrics bundle (empty when collection is disabled).
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics
            .as_deref()
            .map(ShardMetrics::snapshot)
            .unwrap_or_default()
    }

    /// This shard's metrics under its plane-wide `serve.shard{i}.*`
    /// namespace — the shape interval records carry so a stream reader
    /// sees the same names as the merged plane snapshot.
    fn prefixed_snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        out.merge_prefixed(
            &format!("serve.shard{}", self.index),
            &self.metrics_snapshot(),
        );
        out
    }

    /// Advances the streaming state by one decision: sample emission,
    /// plus a cumulative interval flush when one is due.
    fn stream_decision(&mut self, e: &DecisionEntry) {
        let Some(s) = self.stream.as_deref_mut() else {
            return;
        };
        if s.advance(e) {
            let snap = self.prefixed_snapshot();
            if let Some(s) = self.stream.as_deref() {
                s.emit_interval(snap);
            }
        }
    }
}

impl Drop for Shard {
    /// Emits the final cumulative interval so every shard's totals are
    /// recoverable from the stream even with `flush_interval: 0`.
    fn drop(&mut self) {
        if let Some(s) = self.stream.take() {
            s.emit_interval(self.prefixed_snapshot());
        }
    }
}

// ---------------------------------------------------------------------
// Plane
// ---------------------------------------------------------------------

/// Decision-plane configuration.
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// Number of shards (link state partitions).
    pub shards: usize,
    /// Per-link capacity `c` the controllers decide against.
    pub capacity: f64,
    /// Ingest-ring capacity per shard (rounded up to a power of two).
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

/// The sharded decision plane: construction, handle vending, and the
/// merged metrics view. Consumers take the shards out with
/// [`DecisionPlane::into_shards`] to run them on their own threads.
pub struct DecisionPlane {
    shards: Vec<Shard>,
}

impl DecisionPlane {
    /// Builds a plane with `cfg.shards` empty shards, each creating
    /// per-link controllers from `make` on first contact with a link.
    pub fn new(cfg: &PlaneConfig, make: ControllerFactory) -> Result<Self, ServeError> {
        check_shards(cfg.shards)?;
        if cfg.ring_capacity == 0 {
            return Err(ServeError::ZeroRingCapacity);
        }
        if cfg.capacity <= 0.0 || cfg.capacity.is_nan() {
            return Err(ServeError::NonPositive {
                field: "capacity",
                value: cfg.capacity,
            });
        }
        let timing = cfg.metrics == MetricsMode::EnabledWithTiming;
        let shards = (0..cfg.shards)
            .map(|index| Shard {
                index,
                capacity: cfg.capacity,
                ring: Arc::new(IngestRing::with_capacity(cfg.ring_capacity)),
                links: LinkMap::default(),
                make: Arc::clone(&make),
                metrics: (cfg.metrics != MetricsMode::Disabled)
                    .then(|| Box::new(ShardMetrics::new(timing))),
                stream: cfg
                    .stream
                    .as_ref()
                    .map(|h| Box::new(ShardStream::new(h.clone(), index as u64))),
            })
            .collect();
        Ok(DecisionPlane { shards })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `link`.
    pub fn shard_of(&self, link: LinkId) -> usize {
        shard_of(link, self.shards.len())
    }

    /// A producer-side handle routing events to the owning shard's ring.
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            rings: self.shards.iter().map(|s| Arc::clone(&s.ring)).collect(),
        }
    }

    /// Mutable access to the shards (single-threaded batch driving).
    pub fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Takes the shards out, one per consumer thread. The
    /// [`IngestHandle`]s stay valid — they share the rings.
    pub fn into_shards(self) -> Vec<Shard> {
        self.shards
    }

    /// The plane-wide metrics snapshot: every shard's bundle namespaced
    /// as `serve.shard<i>.*` (empty when collection is disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        plane_snapshot(&self.shards)
    }
}

/// Merges per-shard bundles into the `serve.shard<i>.*` namespace; also
/// used by drivers that have taken the shards out of the plane.
pub fn plane_snapshot(shards: &[Shard]) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::new();
    for shard in shards {
        out.merge_prefixed(
            &format!("serve.shard{}", shard.index),
            &shard.metrics_snapshot(),
        );
    }
    out
}

/// Producer-side handle: routes each event to the ring of the shard
/// owning its link. Cheap to clone; one per producer thread.
#[derive(Clone)]
pub struct IngestHandle {
    rings: Vec<Arc<IngestRing<ShardEvent>>>,
}

impl IngestHandle {
    /// The shard owning `link`.
    pub fn shard_of(&self, link: LinkId) -> usize {
        shard_of(link, self.rings.len())
    }

    /// Enqueues `event` on the owning shard's ring, or returns it when
    /// that ring is full (backpressure).
    pub fn try_send(&self, event: ShardEvent) -> Result<(), ShardEvent> {
        self.rings[self.shard_of(event.link())].try_push(event)
    }

    /// Enqueues `event`, spinning under backpressure until space frees.
    pub fn send_spin(&self, event: ShardEvent) {
        self.rings[self.shard_of(event.link())].push_spin(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            ring_capacity: 0,
            ..PlaneConfig::default()
        };
        assert_eq!(
            DecisionPlane::new(&bad, make).err(),
            Some(ServeError::ZeroRingCapacity)
        );
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
        shard.decide_batch(&[LinkId(7)], &mut out);
        assert_eq!(out.len(), 1);
        assert!(!out[0].admit, "cold start must fail safe");
        assert_eq!(out[0].admissible, None);

        // Constant rates 1.0: σ̂ = 0 ⇒ fluid limit c/μ̂ = 10 flows.
        shard.apply(
            ShardEvent::Measure {
                link: LinkId(7),
                t: 0.0,
                rates: vec![1.0; 4].into_boxed_slice(),
            },
            &mut out,
        );
        out.clear();
        shard.decide_batch(&[LinkId(7); 7], &mut out);
        let admitted = out.iter().filter(|d| d.admit).count();
        // Occupancy resynced to 4; fluid limit 10 ⇒ 6 more fit.
        assert_eq!(admitted, 6);
        assert!(!out[6].admit, "the 7th must push past the fluid limit");
        assert_eq!(out[5].occupancy, 10);
    }

    #[test]
    fn drain_applies_ring_events_in_order() {
        let mut plane = plane(1);
        let handle = plane.handle();
        handle
            .try_send(ShardEvent::Measure {
                link: LinkId(1),
                t: 0.0,
                rates: vec![1.0; 2].into_boxed_slice(),
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
        plane.shards_mut()[a].decide_batch(&[link_a], &mut out);
        plane.shards_mut()[b].decide_batch(&[link_b, link_b], &mut out);
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
