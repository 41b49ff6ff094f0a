//! Multi-hop admission over the sharded plane: deterministic two-phase
//! reserve/commit across shards.
//!
//! # The problem
//!
//! A routed request must be admitted at *every* hop of its route or at
//! none of them — and the hops' links may be owned by different shards.
//! A naive protocol (admit hop-by-hop, undo on a later rejection) leaks
//! provisional occupancy into early hops and makes the decision stream
//! depend on cross-shard timing, destroying the serial-equivalence
//! guarantee the single-link plane proves in [`crate::plane`].
//!
//! # The protocol
//!
//! A request on an `h`-hop route appears as `h`
//! [`RoutedShardEvent::Reserve`] occurrences
//! — one in each hop link's event stream — all sharing one global
//! `seq`. The workload generator guarantees each link's stream carries
//! strictly increasing seqs. Each shard, on reaching a link's Reserve:
//!
//! 1. **votes** immediately — computes the hop's admissible count from
//!    its controller and compares against the current occupancy
//!    ([`mbac_core::hop_admits`]), publishing the vote to the shared
//!    [`RouteTable`] — but does **not** touch occupancy;
//! 2. the **last** voter (detected by an `AcqRel` countdown) resolves
//!    the request: admit iff every hop voted yes, published with
//!    `Release`;
//! 3. every hop **commits on resolution**: occupancy increments only on
//!    a resolved admit. A rejection commits nothing anywhere — rollback
//!    is the absence of a write, so a rejected request is
//!    indistinguishable from one never made (the bit-stability the
//!    rollback test suite asserts).
//!
//! Until its vote resolves, a link is **parked**: subsequent events for
//! that link buffer in arrival order while the shard keeps draining its
//! other links. Parking — never blocking — is what makes the protocol
//! deadlock-free: since every link's stream is seq-sorted, the globally
//! minimal unresolved seq has a castable vote at the head of each of
//! its hop links' queues, so it resolves; induction does the rest.
//!
//! # Determinism
//!
//! A hop's vote depends only on its link's state, which evolves only
//! through that link's events, applied in per-link stream order
//! (parking preserves it). So every hop's vote — and therefore every
//! resolution — is independent of shard count, producer count, and
//! cross-link interleaving. Decisions are emitted by the owner of each
//! route's *first* hop in that link's processing order, so the
//! per-route decision sequence is seq-ordered and identical to the
//! serial reference, byte for byte. `tests/routed.rs` proves it
//! property-based; on a single-hop topology the protocol degenerates to
//! exactly the legacy [`crate::plane::Shard`] sequence, reproducing its
//! decision bytes bit for bit.

use crate::plane::{
    check_producers, check_shards, ControllerFactory, DecisionEntry, LinkMap, ServeError,
    ShardMetrics, ShardStream,
};
use crate::sink::{Collect, DecisionSink, Replayed};
use mbac_core::topology::{hop_admits, hop_u8, LinkId, RouteId, Topology};
use mbac_metrics::{Aggregated, Counter, IngestRing, MetricValue, MetricsSnapshot, StreamHandle};
use mbac_sim::{MbacController, MetricsMode, RoutedEvent, RoutedWorkload};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// One unit of routed ingest.
#[derive(Debug)]
pub enum RoutedShardEvent {
    /// A measurement snapshot for `link` (same semantics as
    /// [`crate::plane::ShardEvent::Measure`]).
    Measure {
        /// The link the measurement belongs to.
        link: LinkId,
        /// Measurement time.
        t: f64,
        /// Per-flow rates as measured at this link's node.
        rates: Box<[f64]>,
    },
    /// One hop's share of a routed admission request.
    Reserve {
        /// The hop link.
        link: LinkId,
        /// Global request sequence number (strictly increasing within
        /// each link's stream).
        seq: u64,
        /// This link's position on the request's route (hop 0 emits the
        /// decision).
        hop: u8,
        /// Enqueue timestamp; hop 0's stamp becomes the decision's
        /// ingest-to-decision latency.
        enqueued: Option<Instant>,
    },
}

impl RoutedShardEvent {
    /// The link this event belongs to.
    pub fn link(&self) -> LinkId {
        match self {
            RoutedShardEvent::Measure { link, .. } | RoutedShardEvent::Reserve { link, .. } => {
                *link
            }
        }
    }
}

// ---------------------------------------------------------------------
// Decisions
// ---------------------------------------------------------------------

/// One hop's contribution to a routed decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopDecision {
    /// The hop link.
    pub link: LinkId,
    /// This hop's vote (`true` = would admit).
    pub vote: bool,
    /// The hop controller's admissible count at vote time (`None` on a
    /// cold start, which fails safe to a no vote).
    pub admissible: Option<f64>,
    /// The hop link's occupancy *after* the resolved decision.
    pub occupancy: u32,
}

/// One resolved routed admission decision.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteDecision {
    /// The route the request addressed.
    pub route: RouteId,
    /// The request's global sequence number.
    pub seq: u64,
    /// Admit (`true`, every hop voted yes) or reject.
    pub admit: bool,
    /// The first hop that voted no, when rejected.
    pub reject_hop: Option<u8>,
    /// Per-hop votes, in route order.
    pub hops: Vec<HopDecision>,
    /// Hop 0's ingest-to-decision latency, when stamped.
    pub latency_ns: Option<u64>,
}

impl RouteDecision {
    /// Appends the decision's canonical byte encoding. Hop 0 is encoded
    /// exactly as [`crate::plane::Decision::encode_into`] — flags byte
    /// (bit 0 = route admit, bit 1 = admissible present), admissible
    /// f64 bits (LE), occupancy (LE) — so a single-hop route reproduces
    /// the legacy bytes bit for bit. Routes with more hops append a
    /// reject-hop byte (`0xFF` = admitted) and one record per further
    /// hop (flags bit 0 = that hop's vote). Latency is excluded — it is
    /// a machine fact, not a decision.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let h0 = &self.hops[0];
        let mut flags = self.admit as u8;
        if h0.admissible.is_some() {
            flags |= 2;
        }
        out.push(flags);
        out.extend_from_slice(&h0.admissible.map_or(0, f64::to_bits).to_le_bytes());
        out.extend_from_slice(&h0.occupancy.to_le_bytes());
        if self.hops.len() > 1 {
            out.push(self.reject_hop.map_or(0xFF, |h| h));
            for h in &self.hops[1..] {
                let mut f = h.vote as u8;
                if h.admissible.is_some() {
                    f |= 2;
                }
                out.push(f);
                out.extend_from_slice(&h.admissible.map_or(0, f64::to_bits).to_le_bytes());
                out.extend_from_slice(&h.occupancy.to_le_bytes());
            }
        }
    }
}

// ---------------------------------------------------------------------
// The shared route table
// ---------------------------------------------------------------------

const PENDING: u8 = 0;
const ADMIT: u8 = 1;
const REJECT: u8 = 2;

/// One hop's published vote. `meta` packs the vote bit (bit 0), the
/// admissible-present bit (bit 1), and the occupancy before the
/// decision (bits 32..); `bits` holds the admissible count's f64 bits.
/// Plain stores/loads — the `remaining` countdown's `AcqRel` chain and
/// the `Release`/`Acquire` resolution publish order them.
#[derive(Debug)]
struct HopVote {
    meta: AtomicU64,
    bits: AtomicU64,
}

/// The shared vote/resolution table, one slot per request seq. Sized up
/// front from the workload's seq → route map, so no allocation or
/// locking happens on the decide path.
#[derive(Debug)]
pub struct RouteTable {
    routes: Vec<RouteId>,
    offsets: Vec<u32>,
    hop_counts: Vec<u8>,
    votes: Vec<HopVote>,
    remaining: Vec<AtomicU32>,
    resolution: Vec<AtomicU8>,
}

impl RouteTable {
    /// Builds the table for a workload's request sequence.
    pub fn for_requests(topology: &Topology, request_routes: &[RouteId]) -> Self {
        let mut offsets = Vec::with_capacity(request_routes.len());
        let mut hop_counts = Vec::with_capacity(request_routes.len());
        let mut remaining = Vec::with_capacity(request_routes.len());
        let mut total = 0u32;
        for &route in request_routes {
            let hops = topology.route(route).len();
            offsets.push(total);
            hop_counts.push(hop_u8(hops));
            remaining.push(AtomicU32::new(hops as u32));
            total += hops as u32;
        }
        RouteTable {
            routes: request_routes.to_vec(),
            offsets,
            hop_counts,
            votes: (0..total)
                .map(|_| HopVote {
                    meta: AtomicU64::new(0),
                    bits: AtomicU64::new(0),
                })
                .collect(),
            remaining,
            resolution: request_routes
                .iter()
                .map(|_| AtomicU8::new(PENDING))
                .collect(),
        }
    }

    /// Number of request slots.
    pub fn requests(&self) -> usize {
        self.routes.len()
    }

    /// Publishes one hop's vote. When this was the last outstanding
    /// vote, resolves the request (admit iff every hop voted yes) and
    /// returns the verdict; otherwise returns `None` and the caller
    /// parks until [`RouteTable::resolution`] reports one.
    fn vote(
        &self,
        seq: u64,
        hop: u8,
        vote: bool,
        admissible: Option<f64>,
        occ: u32,
    ) -> Option<bool> {
        let s = seq as usize;
        let off = self.offsets[s] as usize + hop as usize;
        let mut meta = u64::from(vote) | (u64::from(occ) << 32);
        if admissible.is_some() {
            meta |= 2;
        }
        self.votes[off]
            .bits
            .store(admissible.map_or(0, f64::to_bits), Ordering::Relaxed);
        self.votes[off].meta.store(meta, Ordering::Relaxed);
        if self.remaining[s].fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last voter: the AcqRel chain makes every hop's stores
            // visible here. Resolve and publish.
            let base = self.offsets[s] as usize;
            let all_yes = (0..self.hop_counts[s] as usize)
                .all(|h| self.votes[base + h].meta.load(Ordering::Relaxed) & 1 != 0);
            let verdict = if all_yes { ADMIT } else { REJECT };
            self.resolution[s].store(verdict, Ordering::Release);
            Some(all_yes)
        } else {
            None
        }
    }

    /// The request's resolution, if published.
    pub fn resolution(&self, seq: u64) -> Option<bool> {
        match self.resolution[seq as usize].load(Ordering::Acquire) {
            PENDING => None,
            v => Some(v == ADMIT),
        }
    }

    /// Builds the full decision record for a resolved request. Must only
    /// be called after [`RouteTable::resolution`] returned `Some` (the
    /// `Acquire` there orders the vote reads here).
    fn decision(&self, topology: &Topology, seq: u64, latency_ns: Option<u64>) -> RouteDecision {
        let s = seq as usize;
        let route = self.routes[s];
        let admit = self.resolution[s].load(Ordering::Acquire) == ADMIT;
        let base = self.offsets[s] as usize;
        let path = topology.route(route);
        let mut reject_hop = None;
        let hops = (0..self.hop_counts[s] as usize)
            .map(|h| {
                let meta = self.votes[base + h].meta.load(Ordering::Relaxed);
                let vote = meta & 1 != 0;
                if !vote && reject_hop.is_none() {
                    reject_hop = Some(hop_u8(h));
                }
                let admissible = (meta & 2 != 0)
                    .then(|| f64::from_bits(self.votes[base + h].bits.load(Ordering::Relaxed)));
                HopDecision {
                    link: path[h],
                    vote,
                    admissible,
                    occupancy: ((meta >> 32) as u32) + admit as u32,
                }
            })
            .collect();
        RouteDecision {
            route,
            seq,
            admit,
            reject_hop,
            hops,
            latency_ns,
        }
    }
}

// ---------------------------------------------------------------------
// Routed shard
// ---------------------------------------------------------------------

/// A vote cast but not yet resolved: the hop context needed to commit
/// when the verdict lands.
#[derive(Debug, Clone, Copy)]
struct ParkedReserve {
    seq: u64,
    hop: u8,
    enqueued: Option<Instant>,
}

/// Per-link state plus the parking machinery.
struct RoutedLinkState {
    ctl: MbacController,
    flows: u32,
    parked: Option<ParkedReserve>,
    /// Events that arrived while parked, in arrival order.
    pending: VecDeque<RoutedShardEvent>,
    measures: u64,
    reserves: u64,
    commits: u64,
    aborts: u64,
}

/// One shard of the routed plane: the links it owns, their controllers
/// and parking queues, and its ingest ring.
pub struct RoutedShard {
    index: usize,
    topology: Arc<Topology>,
    table: Arc<RouteTable>,
    ring: Arc<IngestRing<RoutedShardEvent>>,
    links: LinkMap<RoutedLinkState>,
    /// Links currently parked (each appears once).
    parked_links: Vec<LinkId>,
    make: ControllerFactory,
    metrics: Option<Box<ShardMetrics>>,
    stream: Option<Box<ShardStream>>,
}

impl RoutedShard {
    /// This shard's index within the plane.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether any of this shard's links awaits a cross-shard verdict.
    pub fn has_parked(&self) -> bool {
        !self.parked_links.is_empty()
    }

    /// Whether this shard's ring has no pending events (approximate
    /// while producers are running, exact once they have stopped).
    pub fn ring_is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    fn link_mut(&mut self, link: LinkId) -> &mut RoutedLinkState {
        self.links.entry(link).or_insert_with(|| RoutedLinkState {
            ctl: (self.make)(),
            flows: 0,
            parked: None,
            pending: VecDeque::new(),
            measures: 0,
            reserves: 0,
            commits: 0,
            aborts: 0,
        })
    }

    /// Applies one event, buffering it when the link is parked.
    pub fn apply(&mut self, event: RoutedShardEvent, out: &mut Vec<RouteDecision>) {
        let link = event.link();
        let state = self.link_mut(link);
        if state.parked.is_some() {
            state.pending.push_back(event);
        } else {
            self.process(event, out);
        }
    }

    /// Processes one event on an unparked link.
    fn process(&mut self, event: RoutedShardEvent, out: &mut Vec<RouteDecision>) {
        match event {
            RoutedShardEvent::Measure { link, t, rates } => {
                let state = self.link_mut(link);
                state.ctl.observe(t, &rates);
                state.flows = rates.len() as u32;
                state.measures += 1;
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.measures.inc();
                }
            }
            RoutedShardEvent::Reserve {
                link,
                seq,
                hop,
                enqueued,
            } => {
                let capacity = self.topology.capacity(link);
                let state = self.link_mut(link);
                let admissible = state.ctl.admissible_count(capacity);
                let vote = hop_admits(admissible, state.flows);
                let occ = state.flows;
                state.reserves += 1;
                let verdict = self.table.vote(seq, hop, vote, admissible, occ);
                match verdict {
                    Some(admit) => self.commit(link, seq, hop, admit, enqueued, out),
                    None => {
                        self.link_mut(link).parked = Some(ParkedReserve { seq, hop, enqueued });
                        self.parked_links.push(link);
                    }
                }
            }
        }
    }

    /// Commits a resolved hop: occupancy moves only here, and only on
    /// admit — a rejected request writes nothing, so rollback is a
    /// no-op by construction. Hop 0's owner emits the decision.
    fn commit(
        &mut self,
        link: LinkId,
        seq: u64,
        hop: u8,
        admit: bool,
        enqueued: Option<Instant>,
        out: &mut Vec<RouteDecision>,
    ) {
        let state = self.link_mut(link);
        if admit {
            state.flows += 1;
            state.commits += 1;
        } else {
            state.aborts += 1;
        }
        if hop == 0 {
            let latency_ns =
                enqueued.map(|at| u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let d = self.table.decision(&self.topology, seq, latency_ns);
            // Hop 0's view mirrors the single-link plane's Decision:
            // first-hop admissible and post-decision occupancy.
            let entry = DecisionEntry {
                admit,
                occupancy: d.hops[0].occupancy,
                admissible: d.hops[0].admissible,
                latency_ns,
            };
            if let Some(m) = self.metrics.as_deref_mut() {
                m.fold_decision(&entry);
            }
            self.stream_decision(&entry);
            out.push(d);
        }
    }

    /// One parking sweep: commits every parked link whose verdict has
    /// been published, then replays its buffered events (which may park
    /// it again). Returns how many parked reserves were committed —
    /// loop until 0 to settle.
    pub fn pump(&mut self, out: &mut Vec<RouteDecision>) -> usize {
        let mut progressed = 0;
        let mut i = 0;
        while i < self.parked_links.len() {
            let link = self.parked_links[i];
            let parked = self.links[&link].parked.expect("parked link has a reserve");
            let Some(admit) = self.table.resolution(parked.seq) else {
                i += 1;
                continue;
            };
            // Unlist before replaying: a re-park inside `process` pushes
            // the link back, so leaving it listed would duplicate it.
            self.parked_links.swap_remove(i);
            self.link_mut(link).parked = None;
            self.commit(link, parked.seq, parked.hop, admit, parked.enqueued, out);
            progressed += 1;
            // Replay the buffer until it drains or the link re-parks.
            loop {
                let state = self.link_mut(link);
                if state.parked.is_some() {
                    break;
                }
                let Some(ev) = state.pending.pop_front() else {
                    break;
                };
                self.process(ev, out);
            }
        }
        progressed
    }

    /// Drains every event currently in the ring, in ring order, then
    /// runs one parking sweep. Returns events processed plus parked
    /// commits applied (0 = no progress).
    pub fn drain_into(&mut self, out: &mut Vec<RouteDecision>) -> usize {
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
        n + self.pump(out)
    }

    /// This shard's `serve.shard<i>.*` bundle plus one unprefixed
    /// counter bundle per owned link (empty when collection is
    /// disabled).
    fn metrics_snapshot(&self) -> (MetricsSnapshot, Vec<(usize, MetricsSnapshot)>) {
        let shard = self
            .metrics
            .as_deref()
            .map(ShardMetrics::snapshot)
            .unwrap_or_default();
        let mut links = Vec::new();
        if self.metrics.is_some() {
            for (link, state) in &self.links {
                let mut bundle = MetricsSnapshot::new();
                for (name, v) in [
                    ("measures", state.measures),
                    ("reserves", state.reserves),
                    ("commits", state.commits),
                    ("aborts", state.aborts),
                ] {
                    let mut c = Counter::new();
                    c.add(v);
                    bundle.insert(name, MetricValue::Counter(c.snapshot()));
                }
                links.push((link.index(), bundle));
            }
        }
        (shard, links)
    }

    /// This shard's metrics under plane-wide names — `serve.shard{i}.*`
    /// plus `net.link{j}.*` for each owned link — the shape interval
    /// records carry so a stream reader sees the same names as the
    /// merged plane snapshot.
    fn prefixed_snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        let (shard_bundle, link_bundles) = self.metrics_snapshot();
        out.merge_prefixed(&format!("serve.shard{}", self.index), &shard_bundle);
        for (link, bundle) in link_bundles {
            out.merge_prefixed(&format!("net.link{link}"), &bundle);
        }
        out
    }

    /// Advances the streaming state by one hop-0 decision: sample
    /// emission, plus a cumulative interval flush when one is due.
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

impl Drop for RoutedShard {
    /// Emits the final cumulative interval so every shard's totals are
    /// recoverable from the stream even with `flush_interval: 0`.
    fn drop(&mut self) {
        if let Some(s) = self.stream.take() {
            s.emit_interval(self.prefixed_snapshot());
        }
    }
}

// ---------------------------------------------------------------------
// Routed plane
// ---------------------------------------------------------------------

/// Routed decision-plane configuration. Capacities come from the
/// workload's topology, not from here.
#[derive(Debug, Clone)]
pub struct RoutedPlaneConfig {
    /// Number of shards (link-state partitions).
    pub shards: usize,
    /// Ingest-ring capacity per shard.
    pub ring_capacity: usize,
    /// Metrics collection mode.
    pub metrics: MetricsMode,
    /// Streaming-emission handle. When set, each shard samples raw
    /// hop-0 decision records (stream = shard index, seq = decision
    /// count) and flushes cumulative interval snapshots through it;
    /// aggregates are unaffected.
    pub stream: Option<StreamHandle>,
}

impl Default for RoutedPlaneConfig {
    fn default() -> Self {
        RoutedPlaneConfig {
            shards: 1,
            ring_capacity: 1024,
            metrics: MetricsMode::Disabled,
            stream: None,
        }
    }
}

/// The routed decision plane: shards plus the shared route table.
pub struct RoutedPlane {
    shards: Vec<RoutedShard>,
}

impl RoutedPlane {
    /// Builds a plane sized for `workload`: the route table is
    /// pre-allocated from the workload's seq → route map, and each
    /// shard learns the topology's capacities.
    pub fn for_workload(
        cfg: &RoutedPlaneConfig,
        workload: &RoutedWorkload,
        make: ControllerFactory,
    ) -> Result<Self, ServeError> {
        check_shards(cfg.shards)?;
        if cfg.ring_capacity == 0 {
            return Err(ServeError::ZeroRingCapacity);
        }
        let topology = Arc::clone(workload.topology());
        let table = Arc::new(RouteTable::for_requests(
            &topology,
            workload.request_routes(),
        ));
        let timing = cfg.metrics == MetricsMode::EnabledWithTiming;
        let shards = (0..cfg.shards)
            .map(|index| RoutedShard {
                index,
                topology: Arc::clone(&topology),
                table: Arc::clone(&table),
                ring: Arc::new(IngestRing::with_capacity(cfg.ring_capacity)),
                links: LinkMap::default(),
                parked_links: Vec::new(),
                make: Arc::clone(&make),
                metrics: (cfg.metrics != MetricsMode::Disabled)
                    .then(|| Box::new(ShardMetrics::new(timing))),
                stream: cfg
                    .stream
                    .as_ref()
                    .map(|h| Box::new(ShardStream::new(h.clone(), index as u64))),
            })
            .collect();
        Ok(RoutedPlane { shards })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A producer-side handle routing events to the owning shard's ring.
    pub fn handle(&self) -> RoutedIngestHandle {
        RoutedIngestHandle {
            rings: self.shards.iter().map(|s| Arc::clone(&s.ring)).collect(),
        }
    }

    /// Mutable access to the shards (single-threaded driving).
    pub fn shards_mut(&mut self) -> &mut [RoutedShard] {
        &mut self.shards
    }

    /// Takes the shards out, one per consumer thread.
    pub fn into_shards(self) -> Vec<RoutedShard> {
        self.shards
    }
}

/// Merges per-shard bundles into `serve.shard<i>.*` and per-link
/// counters into `net.link<j>.*` (each link lives on exactly one shard,
/// so the link namespaces never collide).
pub fn routed_plane_snapshot(shards: &[RoutedShard]) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::new();
    for shard in shards {
        let (shard_bundle, link_bundles) = shard.metrics_snapshot();
        out.merge_prefixed(&format!("serve.shard{}", shard.index), &shard_bundle);
        for (link, bundle) in link_bundles {
            out.merge_prefixed(&format!("net.link{link}"), &bundle);
        }
    }
    out
}

/// Producer-side handle: routes each event to the ring of the shard
/// owning its link (same link hash as the single-link plane).
#[derive(Clone)]
pub struct RoutedIngestHandle {
    rings: Vec<Arc<IngestRing<RoutedShardEvent>>>,
}

impl RoutedIngestHandle {
    /// The shard owning `link`.
    pub fn shard_of(&self, link: LinkId) -> usize {
        crate::plane::shard_of(link, self.rings.len())
    }

    /// Enqueues `event` on the owning shard's ring, or returns it when
    /// that ring is full (backpressure).
    pub fn try_send(&self, event: RoutedShardEvent) -> Result<(), RoutedShardEvent> {
        self.rings[self.shard_of(event.link())].try_push(event)
    }
}

// ---------------------------------------------------------------------
// Replay drivers
// ---------------------------------------------------------------------

/// Routed replay configuration.
#[derive(Debug, Clone)]
pub struct RoutedReplayConfig {
    /// Plane shape (shards, ring capacity, metrics mode).
    pub plane: RoutedPlaneConfig,
    /// Producer threads (threaded replay only); links are partitioned
    /// `link.index() % producers` so per-link order is preserved.
    pub producers: usize,
    /// Stamp each reserve at enqueue time so hop-0 decisions carry
    /// ingest-to-decision latency.
    pub stamp_latency: bool,
}

impl Default for RoutedReplayConfig {
    fn default() -> Self {
        RoutedReplayConfig {
            plane: RoutedPlaneConfig::default(),
            producers: 1,
            stamp_latency: false,
        }
    }
}

/// What a routed replay produced.
#[derive(Debug)]
pub struct RoutedReplayOutcome {
    /// Decision sequence per route, indexed by route id, in seq order.
    pub per_route: Vec<Vec<RouteDecision>>,
    /// Total decisions made (one per request, not per hop).
    pub decisions: u64,
    /// Total admits.
    pub admitted: u64,
    /// End-to-end wall time.
    pub elapsed: Duration,
    /// The merged `serve.shard<i>.*` / `net.link<j>.*` metrics bundle.
    pub snapshot: MetricsSnapshot,
}

impl RoutedReplayOutcome {
    /// Total rejects.
    pub fn rejected(&self) -> u64 {
        self.decisions - self.admitted
    }

    /// The canonical byte encoding of one route's decision sequence
    /// (what the routed invariance suite compares).
    pub fn encode_route(&self, route: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for d in &self.per_route[route] {
            d.encode_into(&mut out);
        }
        out
    }
}

fn to_routed_event(
    topology: &Topology,
    link: LinkId,
    ev: &RoutedEvent,
    stamp: bool,
) -> RoutedShardEvent {
    match ev {
        RoutedEvent::Measure { t, rates } => RoutedShardEvent::Measure {
            link,
            t: *t,
            rates: rates.clone(),
        },
        RoutedEvent::Request { route, seq, .. } => RoutedShardEvent::Reserve {
            link,
            seq: *seq,
            hop: hop_u8(
                topology
                    .hop_index(*route, link)
                    .expect("request events only appear on their route's hop links"),
            ),
            enqueued: stamp.then(Instant::now),
        },
    }
}

impl From<Replayed<Collect<RouteDecision>>> for RoutedReplayOutcome {
    fn from(replayed: Replayed<Collect<RouteDecision>>) -> Self {
        let (per_route, decisions, admitted) = replayed.sink.finish();
        RoutedReplayOutcome {
            per_route,
            decisions,
            admitted,
            elapsed: replayed.elapsed,
            snapshot: replayed.snapshot,
        }
    }
}

/// The single-threaded serial reference: one shard, events applied in
/// the workload's canonical order, the plane settled after every event.
/// Defines the decision stream every sharded run must reproduce.
pub fn routed_replay_serial(
    cfg: &RoutedReplayConfig,
    make: ControllerFactory,
    workload: &RoutedWorkload,
) -> Result<RoutedReplayOutcome, ServeError> {
    let sink = Collect::new(workload.topology().routes());
    routed_replay_serial_into(cfg, make, workload, sink).map(Into::into)
}

/// [`routed_replay_serial`] into any sink: the scratch vector `apply`
/// and `pump` append to is emptied into it after every event.
pub(crate) fn routed_replay_serial_into<S: DecisionSink<RouteDecision>>(
    cfg: &RoutedReplayConfig,
    make: ControllerFactory,
    workload: &RoutedWorkload,
    mut sink: S,
) -> Result<Replayed<S>, ServeError> {
    let plane_cfg = RoutedPlaneConfig {
        shards: 1,
        ..cfg.plane.clone()
    };
    let mut plane = RoutedPlane::for_workload(&plane_cfg, workload, make)?;
    let topology = Arc::clone(workload.topology());
    let mut out = Vec::new();
    let start = Instant::now();
    {
        let shard = &mut plane.shards_mut()[0];
        for (link, ev) in workload.canonical_events() {
            shard.apply(
                to_routed_event(&topology, link, ev, cfg.stamp_latency),
                &mut out,
            );
            while shard.pump(&mut out) > 0 {}
            sink.record_all(&mut out);
        }
        assert!(
            !shard.has_parked(),
            "a complete workload leaves no dangling reserves"
        );
    }
    let elapsed = start.elapsed();
    let snapshot = routed_plane_snapshot(plane.shards_mut());
    Ok(Replayed {
        sink,
        elapsed,
        snapshot,
    })
}

/// The sharded routed replay: `cfg.producers` producer threads push
/// per-link streams through the rings, one consumer per shard drains,
/// votes, parks, and commits. Per-route decision sequences match
/// [`routed_replay_serial`] byte for byte — see the module docs.
pub fn routed_replay_threaded(
    cfg: &RoutedReplayConfig,
    make: ControllerFactory,
    workload: &RoutedWorkload,
) -> Result<RoutedReplayOutcome, ServeError> {
    let new_sink = || Collect::new(workload.topology().routes());
    routed_replay_threaded_into(cfg, make, workload, new_sink).map(Into::into)
}

/// [`routed_replay_threaded`] into one sink per consumer, merged in
/// shard order once the consumers have joined.
pub(crate) fn routed_replay_threaded_into<S: DecisionSink<RouteDecision>>(
    cfg: &RoutedReplayConfig,
    make: ControllerFactory,
    workload: &RoutedWorkload,
    new_sink: impl Fn() -> S + Sync,
) -> Result<Replayed<S>, ServeError> {
    check_producers(cfg.producers)?;
    let plane = RoutedPlane::for_workload(&cfg.plane, workload, make)?;
    let handle = plane.handle();
    let shards = plane.into_shards();
    let topology = Arc::clone(workload.topology());
    let producers = cfg.producers;
    let stamp = cfg.stamp_latency;
    let done = std::sync::atomic::AtomicUsize::new(0);

    let start = Instant::now();
    let (shards, sink) = std::thread::scope(|s| {
        let consumers: Vec<_> = shards
            .into_iter()
            .map(|mut shard| {
                let (done, new_sink) = (&done, &new_sink);
                s.spawn(move || {
                    let mut sink = new_sink();
                    let mut out = Vec::new();
                    let mut drain = |shard: &mut RoutedShard| {
                        let n = shard.drain_into(&mut out);
                        sink.record_all(&mut out);
                        n
                    };
                    loop {
                        if drain(&mut shard) > 0 {
                            continue;
                        }
                        if done.load(Ordering::Acquire) == producers {
                            // All enqueues happen-before the final
                            // counter increment, so an empty drain with
                            // nothing parked proves completion. A parked
                            // link waits for another shard's vote — keep
                            // pumping until the verdict lands.
                            if drain(&mut shard) == 0 && !shard.has_parked() {
                                break;
                            }
                        }
                        std::thread::yield_now();
                    }
                    (shard, sink)
                })
            })
            .collect();
        for p in 0..producers {
            let handle = handle.clone();
            let done = &done;
            let topology = &topology;
            s.spawn(move || {
                for (link, ev) in workload.canonical_events() {
                    if link.index() % producers != p {
                        continue;
                    }
                    let mut event = to_routed_event(topology, link, ev, stamp);
                    while let Err(back) = handle.try_send(event) {
                        event = back;
                        std::thread::yield_now();
                    }
                }
                done.fetch_add(1, Ordering::Release);
            });
        }
        let mut shards_back = Vec::with_capacity(consumers.len());
        let mut merged = new_sink();
        for c in consumers {
            let (shard, sink) = c.join().expect("routed consumer thread panicked");
            shards_back.push(shard);
            merged.merge(sink);
        }
        (shards_back, merged)
    });
    let elapsed = start.elapsed();
    let snapshot = routed_plane_snapshot(&shards);
    Ok(Replayed {
        sink,
        elapsed,
        snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::{certainty_equivalent_factory, MAX_SHARDS};
    use crate::sink::Tally;
    use mbac_core::topology::MAX_ROUTE_HOPS;
    use mbac_sim::{RoutedLoad, RoutedLoadConfig, SessionBuilder};
    use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};

    fn workload(topology: Topology, noise_sd: f64) -> RoutedWorkload {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let load = RoutedLoad {
            model: &model,
            cfg: RoutedLoadConfig {
                topology: Arc::new(topology),
                flows_per_route: 5,
                ticks: 20,
                tick: 0.4,
                requests_per_tick: 2,
                mean_holding: 4.0,
                noise_sd,
                seed: 11,
            },
        };
        SessionBuilder::new().run(&load).unwrap()
    }

    #[test]
    fn serial_replay_decides_every_request() {
        let w = workload(Topology::parking_lot(3, 14.0), 0.05);
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let out = routed_replay_serial(&RoutedReplayConfig::default(), make, &w).unwrap();
        assert_eq!(out.decisions as usize, w.total_requests());
        assert!(out.admitted > 0, "some requests must be admitted");
        assert!(out.rejected() > 0, "capacity 10 must reject some");
        for route in 0..w.topology().routes() {
            assert_eq!(out.per_route[route].len(), 20 * 2);
            // Per-route decisions arrive in seq order.
            for pair in out.per_route[route].windows(2) {
                assert!(pair[0].seq < pair[1].seq);
            }
        }
    }

    #[test]
    fn rejection_records_the_offending_hop() {
        // Route 0 crosses every link of the parking lot; a rejection on
        // it must name a hop, and every per-hop record must be present.
        let w = workload(Topology::parking_lot(3, 6.0), 0.0);
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let out = routed_replay_serial(&RoutedReplayConfig::default(), make, &w).unwrap();
        let long = &out.per_route[0];
        assert!(long.iter().any(|d| !d.admit), "tight capacity must reject");
        for d in long {
            assert_eq!(d.hops.len(), 3);
            if d.admit {
                assert_eq!(d.reject_hop, None);
                assert!(d.hops.iter().all(|h| h.vote));
            } else {
                let r = d.reject_hop.expect("rejects name a hop") as usize;
                assert!(!d.hops[r].vote);
                assert!(d.hops[..r].iter().all(|h| h.vote));
            }
        }
    }

    /// On the longest legal route the last voter must still count every
    /// vote: a rejecting *last* hop rejects the request (a hop count
    /// narrowed modulo 256 would resolve on fewer votes).
    #[test]
    fn longest_route_counts_every_vote() {
        let topo = Topology::parking_lot(MAX_ROUTE_HOPS, 10.0);
        let table = RouteTable::for_requests(&topo, &[RouteId(0)]);
        let last = hop_u8(MAX_ROUTE_HOPS - 1);
        for hop in 0..last {
            assert_eq!(table.vote(0, hop, true, Some(10.0), 0), None);
        }
        assert_eq!(table.vote(0, last, false, Some(0.5), 0), Some(false));
        let d = table.decision(&topo, 0, None);
        assert!(!d.admit);
        assert_eq!(d.reject_hop, Some(last));
        assert_eq!(d.hops.len(), MAX_ROUTE_HOPS);
    }

    #[test]
    fn threaded_replay_matches_serial_per_route() {
        let w = workload(Topology::star(4, 10.0), 0.05);
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let reference =
            routed_replay_serial(&RoutedReplayConfig::default(), Arc::clone(&make), &w).unwrap();
        let cfg = RoutedReplayConfig {
            plane: RoutedPlaneConfig {
                shards: 3,
                ring_capacity: 16, // small: exercises backpressure
                metrics: MetricsMode::Enabled,
                stream: None,
            },
            producers: 2,
            stamp_latency: false,
        };
        let sharded = routed_replay_threaded(&cfg, make, &w).unwrap();
        assert_eq!(sharded.decisions, reference.decisions);
        for route in 0..w.topology().routes() {
            assert_eq!(
                sharded.encode_route(route),
                reference.encode_route(route),
                "route {route} diverged"
            );
        }
    }

    #[test]
    fn snapshot_namespaces_shards_and_links() {
        let w = workload(Topology::parking_lot(2, 10.0), 0.0);
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let cfg = RoutedReplayConfig {
            plane: RoutedPlaneConfig {
                metrics: MetricsMode::Enabled,
                ..RoutedPlaneConfig::default()
            },
            ..RoutedReplayConfig::default()
        };
        let out = routed_replay_serial(&cfg, make, &w).unwrap();
        match out.snapshot.get("serve.shard0.requests") {
            Some(MetricValue::Counter(c)) => assert_eq!(c.count, out.decisions),
            other => panic!("{other:?}"),
        }
        // Every reserve either committed or aborted, per link.
        for link in 0..2 {
            let get = |name: &str| match out.snapshot.get(&format!("net.link{link}.{name}")) {
                Some(MetricValue::Counter(c)) => c.count,
                other => panic!("net.link{link}.{name}: {other:?}"),
            };
            assert!(get("reserves") > 0);
            assert_eq!(get("commits") + get("aborts"), get("reserves"));
            assert!(get("measures") > 0);
        }
    }

    /// The tally sink counts what the collecting sink keeps, on both
    /// drivers, and with stamping on every decision carries a latency.
    #[test]
    fn tally_sink_agrees_with_collecting_sink() {
        let w = workload(Topology::star(4, 10.0), 0.05);
        let make = certainty_equivalent_factory(1e-2, 2.0);
        for shards in [1, 3] {
            let cfg = RoutedReplayConfig {
                plane: RoutedPlaneConfig {
                    shards,
                    ring_capacity: 16,
                    ..RoutedPlaneConfig::default()
                },
                producers: shards.min(2),
                stamp_latency: true,
            };
            let (collected, tallied) = if shards == 1 {
                (
                    routed_replay_serial(&cfg, Arc::clone(&make), &w).unwrap(),
                    routed_replay_serial_into(&cfg, Arc::clone(&make), &w, Tally::default())
                        .unwrap(),
                )
            } else {
                (
                    routed_replay_threaded(&cfg, Arc::clone(&make), &w).unwrap(),
                    routed_replay_threaded_into(&cfg, Arc::clone(&make), &w, Tally::default)
                        .unwrap(),
                )
            };
            let tally = tallied.sink;
            let stamped = collected.per_route.iter().flatten();
            let stamped = stamped.filter(|d| d.latency_ns.is_some()).count() as u64;
            assert_eq!(tally.decisions, collected.decisions, "{shards} shards");
            assert_eq!(tally.admitted, collected.admitted, "{shards} shards");
            assert_eq!(tally.latency.len(), stamped, "{shards} shards");
            assert_eq!(tally.latency.len(), tally.decisions, "{shards} shards");
        }
    }

    #[test]
    fn plane_bounds_the_shard_count() {
        let w = workload(Topology::parking_lot(2, 10.0), 0.0);
        let cfg = RoutedPlaneConfig {
            shards: MAX_SHARDS + 1,
            ..RoutedPlaneConfig::default()
        };
        let make = certainty_equivalent_factory(1e-2, 2.0);
        assert_eq!(
            RoutedPlane::for_workload(&cfg, &w, make).err(),
            Some(ServeError::TooManyShards {
                got: MAX_SHARDS + 1,
                max: MAX_SHARDS
            })
        );
    }
}
