//! Multi-hop admission over the sharded plane: deterministic two-phase
//! reserve/commit across shards.
//!
//! The protocol is a [`LinkLogic`] — [`TwoPhase`] — not a second plane:
//! shards, rings, handles, snapshots and the replay drivers are the
//! ones of [`crate::plane`] and [`crate::replay`], and [`RoutedShard`],
//! [`RoutedPlane`] and the other `Routed*` names are aliases of them.
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
//! 1. **votes** immediately — the hop's [`LinkAdmission`] compares the
//!    admissible count its last measurement set against the current
//!    occupancy, and the vote is published to the shared [`RouteTable`]
//!    — but does **not** touch occupancy;
//! 2. the **last** voter (detected by an `AcqRel` countdown) resolves
//!    the request: admit iff every hop voted yes, published with
//!    `Release`;
//! 3. every hop **settles on resolution**: occupancy increments only on
//!    a resolved admit. A rejection writes nothing anywhere, so a
//!    rejected request is indistinguishable from one never made.
//!
//! A one-hop request is always its own last voter, so it resolves
//! where it lands: its hop commits and emits at once, and the route
//! table holds no vote slot for it. Only multi-hop requests vote,
//! count down and publish a resolution.
//!
//! The route table has a slot per request of one window, on both bench
//! shapes. It is laid out once, from the run's first window: every tick
//! asks the same routes in the same order, and no later window is
//! longer, so each — a short last one included — asks a prefix of that
//! layout. Between windows, while no shard runs, the driver re-bases
//! the table onto the next window's requests; since every hop of a
//! request lies in its tick's window, no request of the last window is
//! still waiting on it. So the table is one window long, whatever the
//! run's length, and never longer than the run.
//!
//! Until its vote resolves, a link is **parked**: subsequent events for
//! that link buffer in arrival order while the shard keeps draining its
//! other links. Parking — never blocking — is what makes the protocol
//! deadlock-free: since every link's stream is seq-sorted, the globally
//! minimal unresolved seq has a castable vote at the head of each of
//! its hop links' queues, so it resolves; induction does the rest. The
//! argument holds within each window, and a threaded window ends only
//! once no link is parked, so a link buffers at most its events of one
//! window. A window is ingested request by request — a tick's
//! measurements, then each request's reserves back to back — so on the
//! serial shape a request resolves at its last hop, before any other
//! event reaches a link it parked, and nothing is ever buffered.
//!
//! # Decisions
//!
//! Hop 0's owner emits each decision the way every link logic does,
//! through its shard's tap: a verdict — admit, hop 0's admissible count
//! and its occupancy after the decision, the latency — and a builder of
//! the [`RouteDecision`] record (see [`crate::sink`]). A multi-hop
//! request's verdict is read off hop 0's link as it commits: the link
//! was parked from its vote to its commit, so no event moved its count
//! or occupancy in between. The record — the route, and every hop's
//! vote, count and occupancy read back from the route table — is built
//! only for a sink that keeps records; the bench's tally counts
//! verdicts and builds none.
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
//! property-based; on one-hop routes the rule is the single-link
//! plane's ([`crate::plane::SingleHop`]), and reproduces its decision
//! bytes bit for bit.

use crate::plane::{
    latency_ns, ControllerFactory, IngestHandle, Instruments, LinkLogic, Plane, ServeError, ShardOf,
};
use crate::replay::{Ingest, Replay, ReplayConfig, ReplayOutcome, Stamps};
use crate::sink::{DecisionEntry, DecisionSink};
use mbac_core::topology::{hop_u8, LinkId, RouteId, Topology};
use mbac_metrics::{Aggregated, Counter, MetricValue, MetricsSnapshot, StreamHandle};
use mbac_num::SnapshotMoments;
use mbac_sim::{LinkAdmission, MetricsMode, RoutedWindow};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// One unit of routed ingest.
#[derive(Debug)]
pub enum RoutedShardEvent {
    /// A measurement of `link`: the rates as measured at this link's
    /// node, folded where they were generated (same semantics as
    /// [`crate::plane::ShardEvent::Measure`]).
    Measure {
        /// The link the measurement belongs to.
        link: LinkId,
        /// Measurement time.
        t: f64,
        /// The measurement's moments (the name is the one the field had
        /// when it carried every rate).
        rates: SnapshotMoments,
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
        /// Enqueue timestamp. Hop 0's stamp becomes the decision's
        /// ingest-to-decision latency; no other hop's is ever read, and
        /// [`Ingest::ingest`] leaves theirs `None`.
        enqueued: Option<Instant>,
    },
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

/// Most hops a [`Hops`] holds without allocating: every route of the
/// reference topologies (`parking-lot:3`'s long route has three).
const INLINE_HOPS: usize = 4;

/// What an unused inline slot of a [`Hops`] holds.
const NO_HOP: HopDecision = HopDecision {
    link: LinkId(0),
    vote: false,
    admissible: None,
    occupancy: 0,
};

/// A routed decision's per-hop records, in route order. Up to four hops
/// live inline, so a decision on a short route allocates nothing;
/// longer routes spill to the heap. Reads as a `[HopDecision]`.
#[derive(Clone)]
pub struct Hops(HopsRepr);

#[derive(Clone)]
enum HopsRepr {
    Inline(u8, [HopDecision; INLINE_HOPS]),
    Heap(Vec<HopDecision>),
}

impl FromIterator<HopDecision> for Hops {
    fn from_iter<I: IntoIterator<Item = HopDecision>>(iter: I) -> Self {
        let (mut len, mut inline) = (0, [NO_HOP; INLINE_HOPS]);
        let mut iter = iter.into_iter();
        for hop in iter.by_ref() {
            if len == INLINE_HOPS {
                let mut heap = inline.to_vec();
                heap.push(hop);
                heap.extend(iter);
                return Hops(HopsRepr::Heap(heap));
            }
            inline[len] = hop;
            len += 1;
        }
        Hops(HopsRepr::Inline(len as u8, inline))
    }
}

impl std::ops::Deref for Hops {
    type Target = [HopDecision];

    fn deref(&self) -> &[HopDecision] {
        match &self.0 {
            HopsRepr::Inline(len, hops) => &hops[..usize::from(*len)],
            HopsRepr::Heap(hops) => hops,
        }
    }
}

impl PartialEq for Hops {
    fn eq(&self, other: &Hops) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Hops {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
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
    pub hops: Hops,
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
#[derive(Debug, Default)]
struct HopVote {
    meta: AtomicU64,
    bits: AtomicU64,
}

/// The shared vote/resolution table: one slot per request of a run of
/// consecutive seqs, from `base` on. Sized up front from those
/// requests' routes, so no allocation or locking happens on the decide
/// path. A run replayed in windows holds one window's requests at a
/// time, re-based as each window starts. Only multi-hop requests get
/// vote slots: a one-hop request resolves where it lands and is never
/// voted, resolved or read back here.
#[derive(Debug, Default)]
pub struct RouteTable {
    /// The seq of the first request held. Stored only between windows,
    /// while no shard runs: the spawn of a window's threads orders the
    /// store before their loads, so both are `Relaxed`.
    base: AtomicU64,
    routes: Vec<RouteId>,
    offsets: Vec<u32>,
    hop_counts: Vec<u8>,
    votes: Vec<HopVote>,
    remaining: Vec<AtomicU32>,
    resolution: Vec<AtomicU8>,
}

impl RouteTable {
    /// Makes the table hold the requests from seq `base` on, the route
    /// of each in `routes`, in seq order, over whatever it held before.
    /// It keeps its buffers, so a table re-based to requests no more
    /// numerous than before allocates nothing.
    pub(crate) fn hold(
        &mut self,
        topology: &Topology,
        base: u64,
        routes: impl IntoIterator<Item = RouteId>,
    ) {
        *self.base.get_mut() = base;
        self.routes.clear();
        self.offsets.clear();
        self.hop_counts.clear();
        self.remaining.clear();
        self.resolution.clear();
        let mut total = 0u32;
        for route in routes {
            let hops = topology.route(route).len();
            self.routes.push(route);
            self.offsets.push(total);
            self.hop_counts.push(hop_u8(hops));
            self.remaining.push(AtomicU32::new(hops as u32));
            self.resolution.push(AtomicU8::new(PENDING));
            if hops > 1 {
                total += hops as u32;
            }
        }
        // A vote is stored before it is read, so a slot needs no reset.
        self.votes.resize_with(total as usize, HopVote::default);
    }

    /// Makes the table hold `requests` requests from seq `base` on, the
    /// first of those it was laid out for: the base moves, and their
    /// countdowns and resolutions start over. Called while no shard
    /// runs, as `base` is stored.
    fn rebase(&self, base: u64, requests: usize) {
        assert!(
            requests <= self.requests(),
            "a window the table was not laid out for"
        );
        self.base.store(base, Ordering::Relaxed);
        for (left, &hops) in self.remaining[..requests].iter().zip(&self.hop_counts) {
            left.store(u32::from(hops), Ordering::Relaxed);
        }
        for verdict in &self.resolution[..requests] {
            verdict.store(PENDING, Ordering::Relaxed);
        }
    }

    /// Number of request slots.
    pub fn requests(&self) -> usize {
        self.routes.len()
    }

    /// The slot of request `seq`, which the table must hold.
    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq - self.base.load(Ordering::Relaxed)) as usize
    }

    /// Whether request `seq`'s route has one hop: that hop is its own
    /// last voter.
    fn one_hop(&self, seq: u64) -> bool {
        self.hop_counts[self.slot(seq)] == 1
    }

    /// Publishes one hop's vote of a multi-hop request. When this was
    /// the last outstanding vote, resolves the request (admit iff every
    /// hop voted yes) and returns the verdict; otherwise returns `None`
    /// and the caller parks until [`RouteTable::resolution`] reports
    /// one.
    fn vote(
        &self,
        seq: u64,
        hop: u8,
        vote: bool,
        admissible: Option<f64>,
        occ: u32,
    ) -> Option<bool> {
        let s = self.slot(seq);
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

    /// The multi-hop request's resolution, if published (never, for a
    /// one-hop request).
    pub fn resolution(&self, seq: u64) -> Option<bool> {
        match self.resolution[self.slot(seq)].load(Ordering::Acquire) {
            PENDING => None,
            v => Some(v == ADMIT),
        }
    }

    /// Builds the full decision record for a resolved request. Must only
    /// be called after [`RouteTable::resolution`] returned `Some` (the
    /// `Acquire` there orders the vote reads here).
    fn decision(&self, topology: &Topology, seq: u64, latency_ns: Option<u64>) -> RouteDecision {
        let s = self.slot(seq);
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
// The two-phase logic
// ---------------------------------------------------------------------

/// A vote cast: the hop context needed to commit it once the verdict is
/// known — at once for the last voter, after parking for the others.
#[derive(Debug, Clone, Copy)]
struct HopReserve {
    seq: u64,
    hop: u8,
    enqueued: Option<Instant>,
}

/// Per-link state plus the parking machinery.
struct RoutedLinkState {
    link: LinkId,
    admission: LinkAdmission,
    parked: Option<HopReserve>,
    /// Events that arrived while parked, in arrival order: at most the
    /// link's events of one window.
    pending: VecDeque<RoutedShardEvent>,
    /// The most events `pending` has held, which the tests bound.
    #[cfg(test)]
    pending_peak: usize,
    measures: u64,
    commits: u64,
    aborts: u64,
}

impl RoutedLinkState {
    /// Settles a resolved hop and counts it: occupancy moves only on
    /// admit, so a rejected request writes nothing.
    fn settle(&mut self, admit: bool) {
        self.admission.settle(admit);
        if admit {
            self.commits += 1;
        } else {
            self.aborts += 1;
        }
    }
}

/// A topology link this shard holds no state for.
const NO_SLOT: u32 = u32::MAX;

/// The multi-hop rule as a [`LinkLogic`]: each hop votes where it
/// lands, the last voter resolves, every hop commits on resolution (see
/// the module docs). Holds the links one shard owns, their controllers
/// and parking queues, and the route table all shards share.
pub struct TwoPhase {
    topology: Arc<Topology>,
    table: Arc<RouteTable>,
    /// Each topology link's index into `links`, [`NO_SLOT`] until the
    /// link's first event reaches this shard. Link ids are the
    /// topology's, validated and dense, so this is sized once from it.
    slots: Vec<u32>,
    /// The state of the links this shard has seen: the ones it owns.
    links: Vec<RoutedLinkState>,
    /// Slots of the links currently parked (each appears once).
    parked: Vec<u32>,
    make: ControllerFactory,
}

impl TwoPhase {
    /// The slot of `link`'s state, made on the link's first event. A
    /// link outside the plane's topology panics.
    fn slot(&mut self, link: LinkId) -> usize {
        let slot = &mut self.slots[link.index()];
        if *slot == NO_SLOT {
            *slot = self.links.len() as u32;
            self.links.push(RoutedLinkState {
                link,
                admission: LinkAdmission::new((self.make)(), self.topology.capacity(link)),
                parked: None,
                pending: VecDeque::new(),
                #[cfg(test)]
                pending_peak: 0,
                measures: 0,
                commits: 0,
                aborts: 0,
            });
        }
        *slot as usize
    }

    /// Processes one event on the unparked link in `slot`.
    fn process<S: DecisionSink<RouteDecision>>(
        &mut self,
        slot: usize,
        event: RoutedShardEvent,
        tap: &mut Instruments,
        sink: &mut S,
    ) {
        let state = &mut self.links[slot];
        match event {
            RoutedShardEvent::Measure { t, rates, .. } => {
                state.admission.measure(t, &rates);
                state.measures += 1;
                tap.measure();
            }
            RoutedShardEvent::Reserve {
                seq, hop, enqueued, ..
            } => {
                let admissible = state.admission.admissible();
                let vote = state.admission.votes();
                let occ = state.admission.occupancy();
                if self.table.one_hop(seq) {
                    // Its own last voter: the vote is the verdict.
                    state.settle(vote);
                    let (link, table) = (state.link, &self.table);
                    let verdict = DecisionEntry {
                        admit: vote,
                        occupancy: state.admission.occupancy(),
                        admissible,
                        latency_ns: latency_ns(enqueued),
                    };
                    tap.emit(self, sink, verdict, || RouteDecision {
                        route: table.routes[table.slot(seq)],
                        seq,
                        admit: vote,
                        reject_hop: (!vote).then_some(0),
                        hops: std::iter::once(HopDecision {
                            link,
                            vote,
                            admissible,
                            occupancy: verdict.occupancy,
                        })
                        .collect(),
                        latency_ns: verdict.latency_ns,
                    });
                    return;
                }
                let reserve = HopReserve { seq, hop, enqueued };
                match self.table.vote(seq, hop, vote, admissible, occ) {
                    Some(admit) => self.commit(slot, reserve, admit, tap, sink),
                    None => {
                        state.parked = Some(reserve);
                        self.parked.push(slot as u32);
                    }
                }
            }
        }
    }

    /// Commits a resolved hop of a multi-hop request. Hop 0's owner
    /// emits the decision: its verdict from hop 0's link, which no
    /// event has touched since its vote, and its record, if a sink
    /// keeps records, from the route table's votes.
    fn commit<S: DecisionSink<RouteDecision>>(
        &mut self,
        slot: usize,
        reserve: HopReserve,
        admit: bool,
        tap: &mut Instruments,
        sink: &mut S,
    ) {
        let state = &mut self.links[slot];
        state.settle(admit);
        if reserve.hop == 0 {
            let verdict = DecisionEntry {
                admit,
                occupancy: state.admission.occupancy(),
                admissible: state.admission.admissible(),
                latency_ns: latency_ns(reserve.enqueued),
            };
            let (table, topology) = (&self.table, &self.topology);
            tap.emit(self, sink, verdict, || {
                table.decision(topology, reserve.seq, verdict.latency_ns)
            });
        }
    }
}

impl LinkLogic for TwoPhase {
    type Event = RoutedShardEvent;
    type Decision = RouteDecision;

    fn link_of(event: &RoutedShardEvent) -> LinkId {
        match event {
            RoutedShardEvent::Measure { link, .. } | RoutedShardEvent::Reserve { link, .. } => {
                *link
            }
        }
    }

    /// Applies one event, buffering it when the link is parked.
    fn apply<S: DecisionSink<RouteDecision>>(
        &mut self,
        event: RoutedShardEvent,
        tap: &mut Instruments,
        sink: &mut S,
    ) {
        let slot = self.slot(Self::link_of(&event));
        let state = &mut self.links[slot];
        if state.parked.is_some() {
            state.pending.push_back(event);
            #[cfg(test)]
            {
                state.pending_peak = state.pending_peak.max(state.pending.len());
            }
        } else {
            self.process(slot, event, tap, sink);
        }
    }

    /// One parking sweep: commits every parked link whose verdict has
    /// been published, then replays its buffered events (which may park
    /// it again). Returns how many parked reserves were committed.
    fn pump<S: DecisionSink<RouteDecision>>(
        &mut self,
        tap: &mut Instruments,
        sink: &mut S,
    ) -> usize {
        let mut progressed = 0;
        let mut i = 0;
        while i < self.parked.len() {
            let slot = self.parked[i] as usize;
            let parked = self.links[slot].parked.expect("parked link has a reserve");
            let Some(admit) = self.table.resolution(parked.seq) else {
                i += 1;
                continue;
            };
            // Unlist before replaying: a re-park inside `process` pushes
            // the link back, so leaving it listed would duplicate it.
            self.parked.swap_remove(i);
            self.links[slot].parked = None;
            self.commit(slot, parked, admit, tap, sink);
            progressed += 1;
            // Replay the buffer until it drains or the link re-parks.
            loop {
                let state = &mut self.links[slot];
                if state.parked.is_some() {
                    break;
                }
                let Some(ev) = state.pending.pop_front() else {
                    break;
                };
                self.process(slot, ev, tap, sink);
            }
        }
        progressed
    }

    fn has_parked(&self) -> bool {
        !self.parked.is_empty()
    }

    fn link_bundles(&self) -> Vec<(usize, MetricsSnapshot)> {
        let bundle = |state: &RoutedLinkState| {
            let mut bundle = MetricsSnapshot::new();
            // A parked link buffers its events, so at most one of its
            // reserves is unsettled: the one it is parked on.
            let reserves = state.commits + state.aborts + u64::from(state.parked.is_some());
            for (name, v) in [
                ("measures", state.measures),
                ("reserves", reserves),
                ("commits", state.commits),
                ("aborts", state.aborts),
                ("dropped", state.admission.dropped()),
            ] {
                let mut c = Counter::new();
                c.add(v);
                bundle.insert(name, MetricValue::Counter(c.snapshot()));
            }
            (state.link.index(), bundle)
        };
        self.links.iter().map(bundle).collect()
    }
}

// ---------------------------------------------------------------------
// The routed plane's names
// ---------------------------------------------------------------------

/// One shard of the routed plane.
pub type RoutedShard = ShardOf<TwoPhase>;
/// The routed decision plane: shards sharing one route table.
pub type RoutedPlane = Plane<TwoPhase>;
/// Producer-side handle of the routed plane.
pub type RoutedIngestHandle = IngestHandle<TwoPhase>;
/// Routed replay configuration.
pub type RoutedReplayConfig = ReplayConfig<RoutedPlaneConfig>;
/// What a routed replay produced: one sequence per route, in seq order.
pub type RoutedReplayOutcome = ReplayOutcome<RouteDecision>;

/// Routed decision-plane configuration. Capacities come from the
/// workload's topology, not from here.
#[derive(Debug, Clone)]
pub struct RoutedPlaneConfig {
    /// Number of shards (link-state partitions).
    pub shards: usize,
    /// Ingest-ring capacity per shard (at most
    /// [`crate::plane::MAX_RING_CAPACITY`]).
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

impl RoutedPlane {
    /// Builds a plane whose shards share `table` and learn `topology`'s
    /// capacities.
    pub(crate) fn with_table(
        cfg: &RoutedPlaneConfig,
        topology: &Arc<Topology>,
        table: RouteTable,
        make: ControllerFactory,
    ) -> Result<Self, ServeError> {
        let table = Arc::new(table);
        let logic = || TwoPhase {
            topology: Arc::clone(topology),
            table: Arc::clone(&table),
            slots: vec![NO_SLOT; topology.links()],
            links: Vec::new(),
            parked: Vec::new(),
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

/// A window is replayed on a plane whose route table is laid out for its
/// requests, and re-based onto each later window's (see the module docs).
impl Replay for RoutedWindow {
    type PlaneConfig = RoutedPlaneConfig;

    fn one_shard(cfg: &RoutedPlaneConfig) -> RoutedPlaneConfig {
        RoutedPlaneConfig {
            shards: 1,
            ..cfg.clone()
        }
    }

    fn plane(
        &self,
        cfg: &RoutedPlaneConfig,
        make: ControllerFactory,
    ) -> Result<RoutedPlane, ServeError> {
        let mut table = RouteTable::default();
        table.hold(self.topology(), self.first_seq(), self.request_routes());
        RoutedPlane::with_table(cfg, self.topology(), table, make)
    }

    fn groups(&self) -> usize {
        self.topology().routes()
    }
}

/// A window is replayed tick by tick and, within a tick, request by
/// request: every link's snapshot, in link order, then each request of
/// the tick in `seq` order (routes in id order, each asking
/// `requests_per_tick` times), its reserves back to back from hop 0.
/// Each link still sees its snapshot and then its requests in `seq`
/// order, so every decision is the one a link-by-link order makes; but
/// a multi-hop request votes, resolves and commits before the next
/// begins, and parks no link another request is waiting on.
impl Ingest for RoutedWindow {
    type Logic = TwoPhase;

    fn events(&self) -> u64 {
        let topo = self.topology();
        let hops: usize = topo.route_ids().map(|r| topo.route(r).len()).sum();
        let window = self.snapshots();
        (window.ticks() * (topo.links() + hops * window.requests_per_tick())) as u64
    }

    /// Re-bases the route table onto this window's requests.
    fn prepare(&self, logic: &TwoPhase) {
        let window = self.snapshots();
        let requests = window.ticks() * self.topology().routes() * window.requests_per_tick();
        logic.table.rebase(self.first_seq(), requests);
    }

    fn ingest(
        &self,
        stamps: &mut Stamps,
        keep: impl Fn(LinkId) -> bool,
    ) -> impl Iterator<Item = RoutedShardEvent> {
        let topo = self.topology();
        let asks = self.snapshots().requests_per_tick();
        // A tick's reserves in order: each one's link, hop and seq past
        // the tick's first.
        let hops: usize = topo.route_ids().map(|r| topo.route(r).len()).sum();
        let mut plan = Vec::with_capacity(hops * asks);
        for route in topo.route_ids() {
            for k in 0..asks {
                let seq = (route.index() * asks + k) as u64;
                let hops = topo.route(route).iter().enumerate();
                plan.extend(hops.map(|(hop, &link)| (link, hop_u8(hop), seq)));
            }
        }
        let mut measures = self.snapshots().measurements();
        // The tick's snapshots still to come, its first seq, and the
        // next of its reserves to issue: past the plan's end until the
        // tick's snapshots are out.
        let (mut left, mut first, mut next) = (0, 0, plan.len());
        std::iter::from_fn(move || loop {
            if let Some(&(link, hop, seq)) = plan.get(next) {
                next += 1;
                if keep(link) {
                    let enqueued = (hop == 0 && stamps.take()).then(Instant::now);
                    return Some(RoutedShardEvent::Reserve {
                        link,
                        seq: first + seq,
                        hop,
                        enqueued,
                    });
                }
                continue;
            }
            if left == 0 {
                left = topo.links();
            }
            let (link, step, t, moments) = measures.next()?;
            left -= 1;
            if left == 0 {
                (first, next) = (self.seq(step, RouteId(0), 0), 0);
            }
            if keep(link) {
                return Some(RoutedShardEvent::Measure {
                    link,
                    t,
                    rates: moments,
                });
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{
        closed_loop_with_parallelism, routed_closed_loop_with_parallelism, window_ticks,
        BenchConfig, RoutedBenchConfig, THREADED_WINDOW_SNAPSHOTS, WINDOW_EVENTS, WINDOW_SNAPSHOTS,
    };
    use crate::plane::{certainty_equivalent_factory, PlaneConfig, MAX_RING_CAPACITY, MAX_SHARDS};
    use crate::replay::tests::{
        a_tally_builds_no_record, decides_every_request, sampled_stamps_leave_decisions_alone,
        tally_agrees, threaded_matches_serial, vec_adapter_decides_as_the_sink_path, whole_run,
        window_estimator_factory, windowed_matches_materialised, Hashes,
    };
    use crate::replay::{drive_run, replay_serial, Driver, Step};
    use crate::sink::Tally;
    use mbac_core::topology::MAX_ROUTE_HOPS;
    use mbac_num::RateMoments;
    use mbac_sim::{
        RequestLoad, RequestLoadConfig, RoutedEvent, RoutedLoad, RoutedLoadConfig, RoutedWorkload,
        SessionBuilder, Windows,
    };
    use mbac_traffic::process::{SourceModel, Unbatched};
    use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};

    fn load_config(topology: Topology, noise_sd: f64) -> RoutedLoadConfig {
        RoutedLoadConfig {
            topology: Arc::new(topology),
            flows_per_route: 5,
            ticks: 20,
            tick: 0.4,
            requests_per_tick: 2,
            mean_holding: 4.0,
            noise_sd,
            seed: 11,
        }
    }

    fn workload(topology: Topology, noise_sd: f64) -> RoutedWorkload {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let load = RoutedLoad {
            model: &model,
            cfg: load_config(topology, noise_sd),
        };
        SessionBuilder::new().run(&load).unwrap()
    }

    /// [`workload`]'s run as one window.
    fn window(topology: Topology, noise_sd: f64) -> RoutedWindow {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let load = RoutedLoad {
            model: &model,
            cfg: load_config(topology, noise_sd),
        };
        whole_run(load.windows().unwrap())
    }

    /// On the star the hub carries three requests to a spoke's one, so
    /// a window's round-robin order is not the run's: the decisions
    /// still are.
    #[test]
    fn a_run_replayed_in_windows_decides_as_the_materialised_one() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let hidden = Unbatched(&model);
        let shapes = [
            (Topology::one_hop_links(1, 7.0), 0.0),
            (Topology::parking_lot(3, 14.0), 0.05),
            (Topology::star(3, 12.0), 0.05),
        ];
        for (topology, noise_sd) in shapes {
            for model in [&model as &dyn SourceModel, &hidden] {
                let load = RoutedLoad {
                    model,
                    cfg: load_config(topology.clone(), noise_sd),
                };
                let whole = SessionBuilder::new().run(&load).unwrap();
                windowed_matches_materialised(
                    &whole,
                    |shards| sharded(shards, 1).plane,
                    certainty_equivalent_factory(1e-2, 2.0),
                    || load.windows().unwrap(),
                    20,
                    &[(1, Step::Serial)],
                );
            }
        }
    }

    /// A window of `ticks` ticks of `cfg`'s run, the second one: its
    /// seqs do not start at 0.
    fn second_window(model: &RcbrModel, cfg: RoutedLoadConfig, ticks: usize) -> RoutedWindow {
        let load = RoutedLoad { model, cfg };
        let mut windows = load.windows().unwrap();
        let mut window = windows.new_window();
        for _ in 0..2 {
            assert!(windows.next_window(ticks, &mut window));
        }
        window
    }

    /// A window yields each tick's snapshots, every link's in link
    /// order, before any request of the tick; then the tick's requests
    /// in `seq` order, each one's reserves back to back from hop 0 in
    /// route order; so each link's seqs increase. It yields `events()`
    /// events, also when no request is made.
    #[test]
    fn a_window_yields_each_tick_s_snapshots_then_its_requests_hop_by_hop() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        for topology in [Topology::parking_lot(3, 14.0), Topology::star(3, 12.0)] {
            for requests_per_tick in [0, 2] {
                let cfg = RoutedLoadConfig {
                    requests_per_tick,
                    ..load_config(topology.clone(), 0.05)
                };
                let run = cfg.request_routes().unwrap();
                let window = second_window(&model, cfg, 7);
                let first = window.first_seq();
                let routes: Vec<RouteId> = window.request_routes().collect();
                let asked = topology.routes() * requests_per_tick;
                assert_eq!(first, 7 * asked as u64);
                assert_eq!(routes, run[first as usize..][..7 * asked]);

                let mut stamps = Stamps::NONE;
                let events: Vec<_> = window.ingest(&mut stamps, |_| true).collect();
                assert_eq!(events.len() as u64, window.events());
                let mut events = events.into_iter();
                let (mut seq, mut last) = (first, vec![None; topology.links()]);
                for step in 8..=14 {
                    for link in topology.link_ids() {
                        match events.next() {
                            Some(RoutedShardEvent::Measure { link: l, t, .. }) => {
                                assert_eq!((l, t), (link, step as f64 * 0.4));
                            }
                            other => panic!("step {step}, {link:?}: {other:?}"),
                        }
                    }
                    for _ in 0..asked {
                        let route = topology.route(routes[(seq - first) as usize]);
                        for (h, &link) in route.iter().enumerate() {
                            match events.next() {
                                Some(RoutedShardEvent::Reserve {
                                    link: l,
                                    seq: s,
                                    hop,
                                    ..
                                }) => {
                                    assert_eq!((l, s, usize::from(hop)), (link, seq, h));
                                    assert!(last[l.index()] < Some(s), "{l:?} at seq {s}");
                                    last[l.index()] = Some(s);
                                }
                                other => panic!("seq {seq}, hop {h}: {other:?}"),
                            }
                        }
                        seq += 1;
                    }
                }
                assert!(events.next().is_none());
                assert_eq!(seq, first + routes.len() as u64);
            }
        }
    }

    /// The requests and base of the route table `driver`'s plane holds.
    fn table<S>(driver: &mut Driver<TwoPhase, S>) -> (usize, u64) {
        let table = &driver.plane.shards_mut()[0].logic().table;
        (table.requests(), table.base.load(Ordering::Relaxed))
    }

    /// A plane built from a first window of 7 ticks lays its route table
    /// out once, for 7 ticks of requests, and each window — the short
    /// last one too — re-bases it onto its own first request: a table
    /// one window long, whatever the run's length, on either step.
    #[test]
    fn a_run_in_windows_holds_one_window_of_requests() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let load = RoutedLoad {
            model: &model,
            cfg: load_config(Topology::parking_lot(3, 14.0), 0.05),
        };
        let make = certainty_equivalent_factory(1e-2, 2.0);
        for (shards, step) in [(1, Step::Serial), (2, Step::Threaded { producers: 1 })] {
            let mut windows = load.windows().unwrap();
            let mut window = windows.new_window();
            assert!(windows.next_window(7, &mut window));
            let cfg = sharded(shards, 1).plane;
            let plane = window.plane(&cfg, Arc::clone(&make)).unwrap();
            let mut driver = Driver::new(plane, step, Stamps::NONE, || Hashes::new(4));
            assert_eq!(table(&mut driver), (7 * 4 * 2, 0));
            let (mut ticks, mut requests) = (0, 0);
            loop {
                driver.drive(&window);
                assert_eq!(table(&mut driver), (7 * 4 * 2, window.first_seq()));
                ticks += window.snapshots().ticks();
                requests += window.snapshots().ticks() * 4 * 2;
                if !windows.next_window(7, &mut window) {
                    break;
                }
            }
            assert_eq!((ticks, requests), (20, 20 * 4 * 2));
        }
    }

    /// A short run, as the bench lays it out on either step: a window
    /// holds at most [`WINDOW_EVENTS`] events, one tick at least, and
    /// the route table at most the run's requests. Parking-lot:3 asking
    /// 10⁵ times a route a tick for 2 ticks lays out one tick's 4 · 10⁵
    /// requests; asking twice a tick, the whole run's 16, where the
    /// snapshot bounds alone would make a window of hundreds of ticks.
    #[test]
    fn a_short_run_lays_out_at_most_its_requests() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        for (asks, window) in [(100_000, 1), (2, 2)] {
            let load = RoutedLoad {
                model: &model,
                cfg: RoutedLoadConfig {
                    ticks: 2,
                    requests_per_tick: asks,
                    ..load_config(Topology::parking_lot(3, 14.0), 0.0)
                },
            };
            for (shards, step) in [(1, Step::Serial), (2, Step::Threaded { producers: 1 })] {
                let windows = load.windows().unwrap();
                let ticks = window_ticks(step, &windows).unwrap();
                assert_eq!(ticks.min(2), window, "{step:?}");
                let events = windows.tick_events();
                assert!(ticks * events <= WINDOW_EVENTS, "{step:?}");
                let (cfg, none) = (sharded(shards, 1).plane, Stamps::NONE);
                let make = certainty_equivalent_factory(1e-2, 2.0);
                let (mut driver, _, replayed) =
                    drive_run(windows, ticks, &cfg, make, step, none, Tally::default).unwrap();
                let last = ((2 - window) * 4 * asks) as u64;
                assert_eq!(table(&mut driver), (window * 4 * asks, last), "{step:?}");
                assert_eq!(replayed, 2 * (3 + 6 * asks) as u64);
                assert_eq!(driver.finish().sink.decisions, (2 * 4 * asks) as u64);
            }
        }
    }

    /// A threaded run of parking-lot:3 through measurement noise, on two
    /// shards fed by one producer, over three of the bench's threaded
    /// windows and a short fourth: a link parked on the other shard's
    /// vote buffers the events behind it, and never more than its events
    /// of one window, whatever the run's length.
    #[test]
    fn a_threaded_link_buffers_at_most_one_window_of_its_events() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let cfg = load_config(Topology::parking_lot(3, 14.0), 0.05);
        let step = Step::Threaded { producers: 1 };
        let load = RoutedLoad { model: &model, cfg };
        let ticks = window_ticks(step, &load.windows().unwrap()).unwrap();
        assert_eq!(ticks, THREADED_WINDOW_SNAPSHOTS / 3);
        let load = RoutedLoad {
            cfg: RoutedLoadConfig {
                ticks: 3 * ticks + ticks / 3,
                ..load.cfg
            },
            ..load
        };
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let plane = &sharded(2, 1).plane;
        let windows = load.windows().unwrap();
        let (mut driver, ..) = drive_run(
            windows,
            ticks,
            plane,
            make,
            step,
            Stamps::NONE,
            Tally::default,
        )
        .unwrap();
        let topology = &load.cfg.topology;
        for shard in driver.plane.shards_mut() {
            for state in &shard.logic().links {
                // A snapshot a tick, and a reserve for each request of a
                // route through the link.
                let through = topology
                    .route_ids()
                    .filter(|&r| topology.route(r).contains(&state.link));
                let in_window = ticks * (1 + through.count() * 2);
                let (link, peak) = (state.link, state.pending_peak);
                assert!(peak <= in_window, "{link:?}: {peak} of {in_window}");
            }
        }
    }

    #[test]
    fn serial_replay_decides_every_request() {
        let w = workload(Topology::parking_lot(3, 14.0), 0.05);
        let window = window(Topology::parking_lot(3, 14.0), 0.05);
        let cfg = RoutedReplayConfig::default();
        let out = decides_every_request(&w, &window, &cfg, w.total_requests(), 20 * 2);
        // Per-route decisions arrive in seq order.
        for route in &out.sequences {
            for pair in route.windows(2) {
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
        let out = replay_serial(&RoutedReplayConfig::default(), make, &w).unwrap();
        let long = &out.sequences[0];
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
        let mut table = RouteTable::default();
        table.hold(&topo, 0, [RouteId(0)]);
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

    /// Up to four hops live inline and more spill to the heap; either
    /// way a `Hops` reads as the records it was collected from.
    #[test]
    fn hops_read_as_their_records_inline_and_spilled() {
        for n in 0..=2 * INLINE_HOPS as u32 {
            let records: Vec<HopDecision> = (0..n)
                .map(|i| HopDecision {
                    link: LinkId(i),
                    vote: i % 2 == 0,
                    admissible: Some(f64::from(i)),
                    occupancy: i,
                })
                .collect();
            let hops: Hops = records.iter().copied().collect();
            assert_eq!(&hops[..], &records[..]);
            assert_eq!(hops.clone(), hops);
        }
    }

    /// On parking-lot:3 the long route's hops 0 and 1 park until hop 2
    /// resolves the request, and a pump sweep commits both: the `Vec`
    /// adapter reaches the decisions through the sweep, as the sink path
    /// does, on a window whose seqs do not start at 0.
    #[test]
    fn the_vec_adapter_decides_as_the_sink_path() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let cfg = load_config(Topology::parking_lot(3, 14.0), 0.05);
        let asks = cfg.requests_per_tick;
        let window = second_window(&model, cfg, 7);
        let resumed = vec_adapter_decides_as_the_sink_path(&window, &RoutedReplayConfig::default());
        // Hops 0 and 1 of each of the long route's requests.
        assert_eq!(resumed, 2 * 7 * asks);
    }

    #[test]
    fn threaded_replay_matches_serial_per_route() {
        let w = workload(Topology::star(4, 10.0), 0.05);
        let sharded = RoutedReplayConfig {
            plane: RoutedPlaneConfig {
                shards: 3,
                ring_capacity: 16, // small: exercises backpressure
                metrics: MetricsMode::Enabled,
                stream: None,
            },
            producers: 2,
            stamp_latency: false,
        };
        let window = window(Topology::star(4, 10.0), 0.05);
        threaded_matches_serial(&w, &window, &RoutedReplayConfig::default(), &sharded);
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
        let out = replay_serial(&cfg, make, &w).unwrap();
        match out.snapshot.get("serve.shard0.requests") {
            Some(MetricValue::Counter(c)) => assert_eq!(c.count, out.decisions),
            other => panic!("{other:?}"),
        }
        // A link counts a reserve for each request occurrence the run
        // put on it.
        for link in 0..2 {
            let get = |name: &str| match out.snapshot.get(&format!("net.link{link}.{name}")) {
                Some(MetricValue::Counter(c)) => c.count,
                other => panic!("net.link{link}.{name}: {other:?}"),
            };
            let events = w.events(LinkId(link));
            let applied = events
                .iter()
                .filter(|e| matches!(e, RoutedEvent::Request { .. }));
            assert!(get("reserves") > 0);
            assert_eq!(get("reserves"), applied.count() as u64);
            assert!(get("measures") > 0);
        }
    }

    /// A measurement with a NaN in it reaches the link's estimator,
    /// which drops it and counts it: the admissible count stays as the
    /// last good measurement set it, and `net.link<j>.dropped` reads 1.
    #[test]
    fn a_non_finite_measurement_is_counted_and_moves_no_count() {
        let topology = Arc::new(Topology::one_hop_links(1, 20.0));
        let cfg = RoutedPlaneConfig {
            metrics: MetricsMode::Enabled,
            ..RoutedPlaneConfig::default()
        };
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let table = RouteTable::default();
        let mut plane = RoutedPlane::with_table(&cfg, &topology, table, make).unwrap();
        let measure = |t, rates: &[f64]| RoutedShardEvent::Measure {
            link: LinkId(0),
            t,
            rates: RateMoments::of(rates[0], rates).reduce(),
        };
        let shard = &mut plane.shards_mut()[0];
        let mut out = Vec::new();
        shard.apply(measure(0.0, &[1.0, 1.5, 0.5]), &mut out);
        let admissible = shard.logic().links[0].admission.admissible();
        assert!(admissible.is_some());
        shard.apply(measure(0.5, &[1.0, f64::NAN, 0.5]), &mut out);
        assert_eq!(shard.logic().links[0].admission.admissible(), admissible);
        assert!(out.is_empty());
        let snapshot = plane.snapshot();
        for (name, count) in [("measures", 2), ("dropped", 1)] {
            match snapshot.get(&format!("net.link0.{name}")) {
                Some(MetricValue::Counter(c)) => assert_eq!(c.count, count, "{name}"),
                other => panic!("{name}: {other:?}"),
            }
        }
    }

    #[test]
    fn tally_sink_agrees_with_collecting_sink() {
        let w = workload(Topology::star(4, 10.0), 0.05);
        let window = window(Topology::star(4, 10.0), 0.05);
        tally_agrees(&w, &window, |shards, producers| RoutedReplayConfig {
            plane: RoutedPlaneConfig {
                shards,
                ring_capacity: 16,
                ..RoutedPlaneConfig::default()
            },
            producers,
            stamp_latency: false,
        });
    }

    /// The long route's hops 0 and 1 park until hop 2 resolves each
    /// of its requests, and hop 0 emits from the sweep that resumes it:
    /// a sink that keeps no records still has none built.
    #[test]
    fn the_tally_builds_no_route_record() {
        let window = window(Topology::parking_lot(3, 14.0), 0.05);
        a_tally_builds_no_record(&window, |shards| sharded(shards, 1).plane);
    }

    fn sharded(shards: usize, producers: usize) -> RoutedReplayConfig {
        RoutedReplayConfig {
            plane: RoutedPlaneConfig {
                shards,
                ring_capacity: 16,
                ..RoutedPlaneConfig::default()
            },
            producers,
            stamp_latency: false,
        }
    }

    /// Only hop 0's stamp is ever read, so only hop 0 is stamped —
    /// also when every request is — and the decision keeps its latency.
    #[test]
    fn only_the_first_hop_of_a_request_is_stamped() {
        let w = workload(Topology::parking_lot(3, 14.0), 0.0);
        let mut later_hops = 0;
        let mut all = Stamps::ALL;
        for event in w.ingest(&mut all, |_| true) {
            if let RoutedShardEvent::Reserve { hop, enqueued, .. } = event {
                assert_eq!(enqueued.is_some(), hop == 0, "hop {hop}");
                later_hops += usize::from(hop > 0);
            }
        }
        assert_eq!(later_hops, 20 * 2 * 2, "the long route's hops 1 and 2");
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let cfg = RoutedReplayConfig {
            stamp_latency: true,
            ..sharded(1, 1)
        };
        let out = replay_serial(&cfg, make, &w).unwrap();
        assert_eq!(out.latencies_ns().len() as u64, out.decisions);
    }

    #[test]
    fn sampled_stamps_leave_the_decisions_alone() {
        let w = workload(Topology::parking_lot(3, 14.0), 0.05);
        let window = window(Topology::parking_lot(3, 14.0), 0.05);
        sampled_stamps_leave_decisions_alone(&w, &window, sharded, 4 * 20 * 2);
    }

    /// The plane takes any controller: with a window estimator's, a run
    /// replayed in windows still decides as the materialised one.
    #[test]
    fn a_window_estimator_decides_a_windowed_run_as_the_materialised_one() {
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let load = RoutedLoad {
            model: &model,
            cfg: load_config(Topology::parking_lot(3, 14.0), 0.05),
        };
        let whole = SessionBuilder::new().run(&load).unwrap();
        windowed_matches_materialised(
            &whole,
            |shards| sharded(shards, 1).plane,
            window_estimator_factory(),
            || load.windows().unwrap(),
            20,
            &[(1, Step::Serial)],
        );
    }

    /// `serve_links`' shape — 32 links × 50 flows × 1000 ticks × 32
    /// requests — on the single-link plane, and the same run as 32
    /// disjoint one-hop routes on the routed plane.
    fn serve_links_shape() -> (BenchConfig, RoutedBenchConfig) {
        let links = BenchConfig {
            links: 32,
            flows_per_link: 50,
            ticks: 1000,
            requests_per_tick: 32,
            ..BenchConfig::default()
        };
        let routes = RoutedBenchConfig {
            topology: Arc::new(Topology::one_hop_links(32, links.capacity)),
            flows_per_route: links.flows_per_link,
            ticks: links.ticks,
            tick: links.tick,
            requests_per_tick: links.requests_per_tick,
            mean_holding: links.mean_holding,
            noise_sd: 0.0,
            seed: links.seed,
            ring_capacity: links.ring_capacity,
            p_ce: links.p_ce,
            t_m: links.t_m,
            ..RoutedBenchConfig::default()
        };
        (links, routes)
    }

    /// The bytes contract of `single_link_routed_decisions_reproduce_legacy_bytes`
    /// at the benchmark's scale, through the driver's serial step, as the
    /// bench runs it: every link's decision bytes are the same on both
    /// planes. Run in release: `cargo test --release -p mbac-serve --lib
    /// one_hop_routes -- --ignored`.
    #[test]
    #[ignore = "benchmark scale; run in release"]
    fn one_hop_routes_reproduce_single_link_bytes_at_bench_scale() {
        let (links, _) = serve_links_shape();
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let make = certainty_equivalent_factory(links.p_ce, links.t_m);
        let ticks = WINDOW_SNAPSHOTS / links.links;
        let sink = || Hashes::new(links.links);
        let (serial, none) = (Step::Serial, Stamps::NONE);

        let load = RequestLoad {
            model: &model,
            cfg: RequestLoadConfig {
                links: links.links,
                flows_per_link: links.flows_per_link,
                ticks: links.ticks,
                tick: links.tick,
                requests_per_tick: links.requests_per_tick,
                mean_holding: links.mean_holding,
                seed: links.seed,
            },
        };
        let plane_cfg = PlaneConfig {
            capacity: links.capacity,
            ..PlaneConfig::default()
        };
        let windows = load.windows().unwrap();
        let make_single = Arc::clone(&make);
        let (driver, ..) =
            drive_run(windows, ticks, &plane_cfg, make_single, serial, none, sink).unwrap();
        let single = driver.finish().sink.groups;

        let load = RoutedLoad {
            model: &model,
            cfg: RoutedLoadConfig::one_hop_links(links.capacity, &load.cfg),
        };
        let windows = load.windows().unwrap();
        let plane_cfg = RoutedPlaneConfig::default();
        let (driver, ..) = drive_run(windows, ticks, &plane_cfg, make, serial, none, sink).unwrap();
        let routed = driver.finish().sink.groups;
        for (link, (a, b)) in single.iter().zip(&routed).enumerate() {
            assert_eq!(a, b, "link {link}");
        }
    }

    /// The paired replay-time probe: the one-hop routes of
    /// [`serve_links_shape`] over the single-link plane, replay time
    /// against replay time, in alternating pairs (ABBA, so drift within
    /// a pair cancels). Prints every ratio and their median. Run in
    /// release: `cargo test --release -p mbac-serve --lib one_hop_replay
    /// -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing probe; run in release"]
    fn one_hop_replay_time_over_single_hop() {
        let (links, routes) = serve_links_shape();
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let mut ratios = Vec::new();
        for pair in 0..10 {
            let single = || closed_loop_with_parallelism(&links, &model, 1).unwrap();
            let routed = || routed_closed_loop_with_parallelism(&routes, &model, 1).unwrap();
            let (a, b) = if pair % 2 == 0 {
                let a = single();
                (a, routed())
            } else {
                let b = routed();
                (single(), b)
            };
            assert_eq!((a.decisions, a.admitted), (b.decisions, b.admitted));
            ratios.push(b.elapsed_secs / a.elapsed_secs);
        }
        ratios.sort_by(f64::total_cmp);
        let shown: Vec<String> = ratios.iter().map(|r| format!("{r:.2}")).collect();
        eprintln!(
            "one-hop routes / SingleHop replay time: median {:.2} (sorted: {})",
            (ratios[4] + ratios[5]) / 2.0,
            shown.join(" ")
        );
    }

    /// `serve_routed`'s shape: parking-lot:3 at capacity 213, 100 flows
    /// a route, 20 000 ticks, 2 requests a route a tick, noise 0.05.
    fn serve_routed_shape() -> RoutedBenchConfig {
        RoutedBenchConfig {
            topology: Arc::new(Topology::parking_lot(3, 213.0)),
            flows_per_route: 100,
            ticks: 20_000,
            requests_per_tick: 2,
            noise_sd: 0.05,
            ..RoutedBenchConfig::default()
        }
    }

    /// The bytes contract of the window order at the benchmark's scale:
    /// [`serve_routed_shape`]'s run, generated and replayed in windows
    /// through the driver's serial step, as the bench runs it, decides
    /// every route's bytes as [`replay_serial`] decides the run
    /// materialised. Run in release: `cargo test --release -p mbac-serve
    /// --lib routed_windows -- --ignored`.
    #[test]
    #[ignore = "benchmark scale; run in release"]
    fn routed_windows_reproduce_materialised_bytes_at_bench_scale() {
        let shape = serve_routed_shape();
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let make = certainty_equivalent_factory(shape.p_ce, shape.t_m);
        let load = RoutedLoad {
            model: &model,
            cfg: RoutedLoadConfig {
                topology: Arc::clone(&shape.topology),
                flows_per_route: shape.flows_per_route,
                ticks: shape.ticks,
                tick: shape.tick,
                requests_per_tick: shape.requests_per_tick,
                mean_holding: shape.mean_holding,
                noise_sd: shape.noise_sd,
                seed: shape.seed,
            },
        };
        let routes = shape.topology.routes();
        let cfg = RoutedReplayConfig::default();
        let whole = SessionBuilder::new().run(&load).unwrap();
        let out = replay_serial(&cfg, Arc::clone(&make), &whole).unwrap();
        assert!(0 < out.admitted && out.admitted < out.decisions);
        let mut materialised = Hashes::new(routes);
        for d in out.sequences.into_iter().flatten() {
            materialised.hash(&d);
        }

        let windows = load.windows().unwrap();
        let ticks = window_ticks(Step::Serial, &windows).unwrap();
        let sink = || Hashes::new(routes);
        let (driver, ..) = drive_run(
            windows,
            ticks,
            &cfg.plane,
            make,
            Step::Serial,
            Stamps::NONE,
            sink,
        )
        .unwrap();
        let windowed = driver.finish().sink.groups;
        for (route, (a, b)) in materialised.groups.iter().zip(&windowed).enumerate() {
            assert_eq!(a, b, "route {route}");
        }
    }

    /// The paired routed-replay probe: [`serve_routed_shape`] against
    /// its three one-hop routes alone (the same flows and requests a
    /// route, at half the capacity a link, since a link carries one
    /// route's flows where the parking lot's carry two), in alternating
    /// pairs (ABBA, so drift within a pair cancels). Prints each side's
    /// replay ns a tick and the multi-hop premium, the difference: what
    /// the long route's requests cost. Run in release: `cargo test
    /// --release -p mbac-serve --lib routed_replay_pace -- --ignored
    /// --nocapture`.
    #[test]
    #[ignore = "timing probe; run in release"]
    fn routed_replay_pace() {
        let parking_lot = serve_routed_shape();
        let one_hop = RoutedBenchConfig {
            topology: Arc::new(Topology::one_hop_links(3, 213.0 / 2.0)),
            ..serve_routed_shape()
        };
        let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
        let ns_a_tick = |cfg: &RoutedBenchConfig| {
            let report = routed_closed_loop_with_parallelism(cfg, &model, 1).unwrap();
            report.elapsed_secs * 1e9 / cfg.ticks as f64
        };
        let (mut long, mut short, mut premium) = (Vec::new(), Vec::new(), Vec::new());
        for pair in 0..10 {
            let (a, b) = if pair % 2 == 0 {
                let a = ns_a_tick(&parking_lot);
                (a, ns_a_tick(&one_hop))
            } else {
                let b = ns_a_tick(&one_hop);
                (ns_a_tick(&parking_lot), b)
            };
            long.push(a);
            short.push(b);
            premium.push(a - b);
        }
        let median = |mut ns: Vec<f64>| {
            ns.sort_by(f64::total_cmp);
            (ns[4] + ns[5]) / 2.0
        };
        let shown: Vec<String> = premium.iter().map(|ns| format!("{ns:.0}")).collect();
        eprintln!(
            "replay ns a tick, medians of 10 pairs: parking-lot:3 {:.0}, its one-hop routes \
             alone {:.0}; premium {:.0} (pairs: {})",
            median(long),
            median(short),
            median(premium),
            shown.join(" ")
        );
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
            RoutedPlane::for_workload(&cfg, &w, Arc::clone(&make)).err(),
            Some(ServeError::TooManyShards {
                got: MAX_SHARDS + 1,
                max: MAX_SHARDS
            })
        );
        // The rings are sized by the same `Plane::build`.
        let cfg = RoutedPlaneConfig {
            ring_capacity: MAX_RING_CAPACITY + 1,
            ..RoutedPlaneConfig::default()
        };
        assert_eq!(
            RoutedPlane::for_workload(&cfg, &w, make).err(),
            Some(ServeError::RingTooLarge {
                got: MAX_RING_CAPACITY + 1,
                max: MAX_RING_CAPACITY
            })
        );
    }
}
