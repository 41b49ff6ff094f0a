//! Scenario-as-request-stream adapter: replays the simulator's traffic
//! models as a *decision-plane workload*.
//!
//! The serve crate needs realistic admission traffic — links whose
//! measured load evolves like the paper's RCBR/AR(1)/trace sources,
//! interleaved with admission requests. [`RequestLoad`] produces exactly
//! that by running one [`FlowTable`] per link
//! through the [`Scenario`] pipeline: each replication *is* one link,
//! evolving `flows_per_link` flows with exponential holding-time churn
//! and emitting, per measurement tick, one [`LinkEvent::Measure`]
//! snapshot followed by `requests_per_tick` [`LinkEvent::Request`]s.
//!
//! [`RoutedLoad`] generalizes this to a [`Topology`]: one replication
//! per *route*, each evolving its own flow population, folded into
//! per-link event streams where a link's measurement is the
//! concatenation of every crossing route's flow snapshot (shared flows
//! ⇒ correlated load) perturbed by per-node measurement noise, and an
//! admission request on an `h`-hop route appears as one
//! [`RoutedEvent::Request`] occurrence on *each* hop link, all carrying
//! the same global sequence number for the plane's two-phase commit.
//!
//! Because generation rides the Session pipeline, a workload is
//! **bit-identical for any worker count and either flow engine** (the
//! `rep_seed` determinism contract), so the serve invariance tests can
//! generate their streams in parallel without weakening the comparison.
//!
//! # Windows
//!
//! A run need not exist in memory at once. [`RequestLoad::windows`] and
//! [`RoutedLoad::windows`] generate it a window of ticks at a time
//! ([`Windows::next_window`]) into a window the caller owns, written
//! over whatever window of the run that buffer held before — the last
//! one, when the caller hands the same buffer back, or an earlier one
//! when it rotates several: times and `seq` run on across windows,
//! every population and noise stream carries on where the last window
//! left it, and a link's windows, laid end to end, are its stream in
//! the materialised workload, bit for bit. The `Scenario`s are written
//! on the same per-tick generator — one window as long as the run *is*
//! the materialised workload — so the two cannot drift.
//!
//! # Ordering contract
//!
//! The scientific content of a workload is **per-link order**: each
//! link's interleaving of measurements and requests is what the
//! controller's decision sequence depends on. Cross-link order is
//! deliberately unspecified — the decision plane is free to interleave
//! links arbitrarily (that is the whole point of sharding), and
//! [`ServeWorkload::canonical_events`] provides one fixed round-robin
//! merge as the serial-reference order. That merge is **per window**:
//! where links carry unequal numbers of events a tick (a star's hub
//! against its spokes), a run replayed in windows visits the links in
//! another cross-link order than the same run materialised — and
//! decides the same, because no decision reads anything but per-link
//! order. Routed workloads add one more guarantee the two-phase commit
//! relies on: each link's `Request` occurrences are strictly increasing
//! in `seq`, and every hop's occurrence of one request lies in the same
//! tick, hence the same window — no reserve is left waiting at a
//! window's end.

use crate::flows::FlowTable;
use crate::session::{
    rep_seed, require_finite, require_non_negative, require_positive, require_step, ConfigError,
    Engine, RepContext, Scenario,
};
use crate::telemetry::MetricsSink;
use mbac_core::topology::{LinkId, RouteId, Topology};
use mbac_num::rng::{exponential, NormalSampler};
use mbac_traffic::process::SourceModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One event in a link's serve workload, in per-link order.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkEvent {
    /// A measurement snapshot: the per-flow instantaneous rates on the
    /// link at time `t` (the estimator input of eqn (23)).
    Measure {
        /// Absolute measurement time.
        t: f64,
        /// Per-flow rates; the length is the link's occupancy.
        rates: Box<[f64]>,
    },
    /// An admission request arriving at time `t`.
    Request {
        /// Absolute arrival time.
        t: f64,
    },
}

/// Configuration of the request-stream workload.
#[derive(Debug, Clone)]
pub struct RequestLoadConfig {
    /// Number of links (one replication — one RNG stream — per link).
    pub links: usize,
    /// Steady-state flow population per link (churned, then topped up,
    /// every tick).
    pub flows_per_link: usize,
    /// Measurement ticks per link.
    pub ticks: usize,
    /// Measurement period `τ` (absolute times are `step · τ`).
    pub tick: f64,
    /// Admission requests emitted after each measurement.
    pub requests_per_tick: usize,
    /// Mean exponential holding time of the churned flows.
    pub mean_holding: f64,
    /// Base seed (the builder may override it).
    pub seed: u64,
}

/// The generated workload: per-link event streams, link `l` at index
/// `l` (link ids are replication indices).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeWorkload {
    per_link: Vec<Vec<LinkEvent>>,
}

impl ServeWorkload {
    /// Number of links.
    pub fn links(&self) -> usize {
        self.per_link.len()
    }

    /// All link ids, in index order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.per_link.len()).map(|l| LinkId(l as u32))
    }

    /// Link `link`'s event stream, in per-link order.
    pub fn events(&self, link: LinkId) -> &[LinkEvent] {
        &self.per_link[link.index()]
    }

    /// Total admission requests across all links.
    pub fn total_requests(&self) -> usize {
        self.per_link
            .iter()
            .map(|evs| {
                evs.iter()
                    .filter(|e| matches!(e, LinkEvent::Request { .. }))
                    .count()
            })
            .sum()
    }

    /// Total events across all links.
    pub fn total_events(&self) -> usize {
        self.per_link.iter().map(Vec::len).sum()
    }

    /// The canonical serial-reference order: a round-robin merge by
    /// event index (`link 0 event 0, link 1 event 0, …, link 0 event 1,
    /// …`). Any order that preserves each link's own sequence yields the
    /// same per-link decisions (the serve invariance suite proves this);
    /// this one is the fixed reference the sharded plane is compared
    /// against.
    pub fn canonical_events(&self) -> impl Iterator<Item = (LinkId, &LinkEvent)> {
        let longest = self.per_link.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest).flat_map(move |i| {
            self.per_link
                .iter()
                .enumerate()
                .filter_map(move |(link, evs)| evs.get(i).map(|e| (LinkId(link as u32), e)))
        })
    }
}

/// The most events, and the most per-flow rate samples, a generated
/// workload may hold. Both stay in memory from generation to the end of
/// the replay at 8–32 bytes apiece, and both are sized up front from
/// the configuration: past this bound (some gigabytes) the generator's
/// allocations abort the process, or the size does not fit a `usize` at
/// all, where a configuration error is owed. The largest shape in the
/// tree, the benchmark's `serve_routed`, holds 1.2 · 10⁷ rate samples.
/// A run generated in [`Windows`] holds one window at a time, so it is
/// held to this bound one tick at a time (a window is at least one
/// tick) and to [`MAX_RUN_ITEMS`] over the run.
/// `PoissonLoad` bounds the arrivals it expects by the same number:
/// each is an event and an advance of the flow table.
pub const MAX_WORKLOAD_ITEMS: u64 = 1 << 28;

/// The most events, and the most per-flow rate samples, a run generated
/// in [`Windows`] may pass through. Nothing of the run but one window is
/// in memory, so this bounds its length, not its size: a rate sample
/// costs ~4 ns to draw and a memo-hot decision ~25 ns, so 2⁴⁰ of either
/// take hours, and a mistyped `--ticks 99999999999` is an error, not a
/// process that runs for days.
pub const MAX_RUN_ITEMS: u64 = 1 << 40;

/// The product of `factors` — how many `what` the workload would hold,
/// or pass through — if it neither overflows nor exceeds `max`.
fn workload_count(what: &'static str, factors: [usize; 3], max: u64) -> Result<u64, ConfigError> {
    factors
        .iter()
        .try_fold(1u64, |n, &factor| n.checked_mul(factor as u64))
        .filter(|&n| n <= max)
        .ok_or(ConfigError::WorkloadTooLarge { what, max })
}

/// One churned flow population — a link's in [`RequestLoad`], a
/// route's in [`RoutedLoad`] — taken from tick to tick. The exact
/// sequence of table/RNG operations is the compatibility contract: a
/// single-link routed workload must consume the identical random stream
/// and therefore produce bit-identical rate snapshots, and a run
/// generated in windows the bits of the materialised one.
struct Population<'a> {
    model: &'a dyn SourceModel,
    flows: usize,
    mean_holding: f64,
    rng: StdRng,
    table: FlowTable,
}

impl<'a> Population<'a> {
    /// `flows` flows with exponential residual holding times, on
    /// `ctx`'s stream and engine.
    fn new(model: &'a dyn SourceModel, flows: usize, mean_holding: f64, ctx: &RepContext) -> Self {
        let mut rng = ctx.rng();
        let mut table = ctx.table();
        for _ in 0..flows {
            let hold = exponential(&mut rng, mean_holding);
            table.admit(model, hold, &mut rng);
        }
        Population {
            model,
            flows,
            mean_holding,
            rng,
            table,
        }
    }

    /// Takes the population to the tick at `now` and writes its
    /// per-flow rates there to `rates` (cleared first).
    fn step_to(&mut self, now: f64, rates: &mut Vec<f64>) {
        self.table.advance_to(now, &mut self.rng);
        self.table.depart_until(now);
        // Churn: top the population back up, so the measured link
        // carries fresh flows but a stable occupancy.
        while self.table.len() < self.flows {
            let hold = exponential(&mut self.rng, self.mean_holding);
            self.table.admit(self.model, now + hold, &mut self.rng);
        }
        self.table.snapshot_into(rates);
    }
}

/// The context the Session pipeline hands replication `rep` of a
/// scenario seeded `seed`: what the window generators, which step every
/// population on the calling thread, build each one from.
fn rep_context(seed: u64, rep: usize, engine: Engine) -> RepContext {
    RepContext {
        rep: rep as u64,
        seed: rep_seed(seed, rep as u64),
        engine,
    }
}

/// What both event types have in common: the measurement, whose `rates`
/// buffer one window hands on to the next.
trait WindowEvent: Sized {
    /// A measurement event.
    fn measure(t: f64, rates: Box<[f64]>) -> Self;
    /// A measurement's buffer, taken out of it; `None` of a request.
    fn take_rates(&mut self) -> Option<Box<[f64]>>;
}

impl WindowEvent for LinkEvent {
    fn measure(t: f64, rates: Box<[f64]>) -> Self {
        LinkEvent::Measure { t, rates }
    }
    fn take_rates(&mut self) -> Option<Box<[f64]>> {
        match self {
            LinkEvent::Measure { rates, .. } => Some(std::mem::take(rates)),
            LinkEvent::Request { .. } => None,
        }
    }
}

impl WindowEvent for RoutedEvent {
    fn measure(t: f64, rates: Box<[f64]>) -> Self {
        RoutedEvent::Measure { t, rates }
    }
    fn take_rates(&mut self) -> Option<Box<[f64]>> {
        match self {
            RoutedEvent::Measure { rates, .. } => Some(std::mem::take(rates)),
            RoutedEvent::Request { .. } => None,
        }
    }
}

/// One link's event stream being written: from the front, over whatever
/// the vector held (the previous window), which is cut off behind the
/// last event written when the writer drops. On an empty vector that is
/// a plain sequence of pushes — the materialised workload.
struct Refill<'w, E> {
    events: &'w mut Vec<E>,
    at: usize,
}

impl<'w, E: WindowEvent> Refill<'w, E> {
    fn new(events: &'w mut Vec<E>) -> Self {
        Refill { events, at: 0 }
    }

    fn put(&mut self, event: E) {
        match self.events.get_mut(self.at) {
            Some(slot) => *slot = event,
            None => self.events.push(event),
        }
        self.at += 1;
    }

    /// Writes a measurement at `t` of the rates `fill` appends to the
    /// empty vector it is handed: the buffer of the measurement
    /// overwritten, if it is one. Windows of one shape have their
    /// measurements in the same places and of the same lengths, so once
    /// a buffer has held one window it allocates nothing for rates.
    fn put_measure(&mut self, t: f64, fill: impl FnOnce(&mut Vec<f64>)) {
        let recycled = self.events.get_mut(self.at).and_then(E::take_rates);
        let mut rates = recycled.map_or_else(Vec::new, Vec::from);
        rates.clear();
        fill(&mut rates);
        // No reallocation when `fill` reserved exactly what it appended
        // (and none at all on a recycled buffer of that length).
        self.put(E::measure(t, rates.into_boxed_slice()));
    }
}

impl<E> Drop for Refill<'_, E> {
    fn drop(&mut self) {
        self.events.truncate(self.at);
    }
}

/// A run generated a window of ticks at a time (see the module docs),
/// into window buffers the caller owns: one it hands back each time, or
/// several it rotates.
pub trait Windows {
    /// What a window is: the workload of its ticks.
    type Workload;

    /// Rate samples the links' measurements hold per tick, or the events
    /// the links carry per tick where those are more — what a caller
    /// sizes its windows by.
    fn items_per_tick(&self) -> usize;

    /// The run's admission requests, each counted once.
    fn requests(&self) -> u64;

    /// An empty window of this run's links, for
    /// [`Windows::next_window`] to write into.
    fn new_window(&self) -> Self::Workload;

    /// Writes the next `ticks` ticks (fewer at the end of the run) into
    /// `window`, over whatever it holds, and returns `true`; once the
    /// run is complete, returns `false` and leaves `window` alone. Each
    /// measurement written over one of an earlier window of this run
    /// reuses its rate buffer.
    fn next_window(&mut self, ticks: usize, window: &mut Self::Workload) -> bool;
}

/// The request-stream scenario: replication `r` generates link `r`'s
/// event stream from the source model's traffic.
pub struct RequestLoad<'a> {
    /// The per-flow traffic model (RCBR, AR(1), trace, …).
    pub model: &'a dyn SourceModel,
    /// Workload shape.
    pub cfg: RequestLoadConfig,
}

impl Scenario for RequestLoad<'_> {
    type Rep = Vec<LinkEvent>;
    type Report = ServeWorkload;

    fn validate(&self) -> Result<(), ConfigError> {
        self.check_fields()?;
        self.require_ticks_fit(self.cfg.ticks, MAX_WORKLOAD_ITEMS)
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn replications(&self) -> usize {
        self.cfg.links
    }

    fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> Vec<LinkEvent> {
        let cfg = &self.cfg;
        let mut events = Vec::with_capacity(cfg.ticks * (1 + cfg.requests_per_tick));
        self.link_ticks(&mut self.population(ctx), 1..=cfg.ticks, &mut events);
        events
    }

    fn fold(&self, reps: Vec<Vec<LinkEvent>>) -> ServeWorkload {
        ServeWorkload { per_link: reps }
    }
}

impl<'a> RequestLoad<'a> {
    /// Every check but the workload's size.
    fn check_fields(&self) -> Result<(), ConfigError> {
        if self.cfg.links == 0 {
            // One replication per link: zero links is zero replications.
            return Err(ConfigError::ZeroReplications);
        }
        if self.cfg.flows_per_link < 2 {
            return Err(ConfigError::TooFewFlows {
                got: self.cfg.flows_per_link,
            });
        }
        require_positive("ticks", self.cfg.ticks as f64)?;
        require_step("tick", self.cfg.tick)?;
        require_positive("mean holding time", self.cfg.mean_holding)
    }

    /// Checks that `ticks` ticks of the run hold at most `max` events
    /// and at most `max` rate samples.
    fn require_ticks_fit(&self, ticks: usize, max: u64) -> Result<(), ConfigError> {
        let cfg = &self.cfg;
        let per_tick = cfg.requests_per_tick.saturating_add(1);
        workload_count("events", [cfg.links, ticks, per_tick], max)?;
        workload_count("rate samples", [cfg.links, ticks, cfg.flows_per_link], max)?;
        Ok(())
    }

    fn population(&self, ctx: &RepContext) -> Population<'a> {
        let cfg = &self.cfg;
        Population::new(self.model, cfg.flows_per_link, cfg.mean_holding, ctx)
    }

    /// Writes one link's ticks `steps` (1-based, run-global) to
    /// `events`: per tick, the measurement of `link`'s population there,
    /// then the tick's requests.
    fn link_ticks(
        &self,
        link: &mut Population,
        steps: std::ops::RangeInclusive<usize>,
        events: &mut Vec<LinkEvent>,
    ) {
        let mut out = Refill::new(events);
        for step in steps {
            let now = step as f64 * self.cfg.tick;
            out.put_measure(now, |rates| link.step_to(now, rates));
            for _ in 0..self.cfg.requests_per_tick {
                out.put(LinkEvent::Request { t: now });
            }
        }
    }

    /// The run as successive windows, generated on `engine`: checks the
    /// configuration as a session would, except that the run is held to
    /// [`MAX_WORKLOAD_ITEMS`] one tick at a time and to
    /// [`MAX_RUN_ITEMS`] as a whole, and seeds every link's population
    /// on the stream a session gives its replication.
    pub fn windows(&self, engine: Engine) -> Result<RequestWindows<'_>, ConfigError> {
        let cfg = &self.cfg;
        self.check_fields()?;
        self.require_ticks_fit(1, MAX_WORKLOAD_ITEMS)?;
        self.require_ticks_fit(cfg.ticks, MAX_RUN_ITEMS)?;
        let requests = [cfg.links, cfg.ticks, cfg.requests_per_tick];
        let requests = workload_count("requests", requests, MAX_RUN_ITEMS)?;
        Ok(RequestWindows {
            load: self,
            links: (0..cfg.links)
                .map(|link| self.population(&rep_context(cfg.seed, link, engine)))
                .collect(),
            requests,
            done: 0,
        })
    }
}

/// [`RequestLoad`]'s run, a window at a time.
pub struct RequestWindows<'a> {
    load: &'a RequestLoad<'a>,
    links: Vec<Population<'a>>,
    requests: u64,
    /// Ticks generated so far.
    done: usize,
}

impl Windows for RequestWindows<'_> {
    type Workload = ServeWorkload;

    fn items_per_tick(&self) -> usize {
        let cfg = &self.load.cfg;
        cfg.links * cfg.flows_per_link.max(cfg.requests_per_tick + 1)
    }

    fn requests(&self) -> u64 {
        self.requests
    }

    fn new_window(&self) -> ServeWorkload {
        ServeWorkload {
            per_link: self.links.iter().map(|_| Vec::new()).collect(),
        }
    }

    fn next_window(&mut self, ticks: usize, window: &mut ServeWorkload) -> bool {
        assert_eq!(window.links(), self.links.len(), "a window of another run");
        let ticks = ticks.min(self.load.cfg.ticks - self.done);
        if ticks == 0 {
            return false;
        }
        let steps = self.done + 1..=self.done + ticks;
        // Links share nothing, so each takes its whole window in turn.
        for (link, events) in self.links.iter_mut().zip(&mut window.per_link) {
            self.load.link_ticks(link, steps.clone(), events);
        }
        self.done += ticks;
        true
    }
}

// ---------------------------------------------------------------------
// Routed workloads
// ---------------------------------------------------------------------

/// One event in a *routed* workload's per-link stream.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutedEvent {
    /// A measurement snapshot of the link: the concatenation of every
    /// crossing route's per-flow rates (route order), perturbed by this
    /// node's measurement noise. The length is the link's occupancy.
    Measure {
        /// Absolute measurement time.
        t: f64,
        /// Per-flow rates as measured at this node.
        rates: Box<[f64]>,
    },
    /// One hop's view of an admission request on `route`. A request on
    /// an `h`-hop route appears as `h` occurrences — one per hop link —
    /// all sharing the same `seq`; the decision plane joins them with
    /// its two-phase reserve/commit.
    Request {
        /// Absolute arrival time.
        t: f64,
        /// The route asking to admit one more flow.
        route: RouteId,
        /// Global request sequence number (strictly increasing within
        /// each link's stream — the deadlock-freedom invariant of the
        /// two-phase commit).
        seq: u64,
    },
}

/// Configuration of the routed request-stream workload.
#[derive(Debug, Clone)]
pub struct RoutedLoadConfig {
    /// The network: links with capacities, routes as hop lists. One
    /// replication — one RNG stream — per route.
    pub topology: Arc<Topology>,
    /// Steady-state flow population per route (churned, then topped
    /// up, every tick).
    pub flows_per_route: usize,
    /// Measurement ticks.
    pub ticks: usize,
    /// Measurement period `τ` (absolute times are `step · τ`).
    pub tick: f64,
    /// Admission requests emitted per route after each measurement.
    pub requests_per_tick: usize,
    /// Mean exponential holding time of the churned flows.
    pub mean_holding: f64,
    /// Standard deviation of the per-node measurement noise added to
    /// every rate sample independently at each link (0 disables noise
    /// — and consumes no random numbers, preserving single-link
    /// bit-compatibility with [`RequestLoad`]).
    pub noise_sd: f64,
    /// Base seed (the builder may override it).
    pub seed: u64,
}

impl RoutedLoadConfig {
    /// The one-link convenience: wraps a [`RequestLoadConfig`]-shaped
    /// workload (one link, one single-hop route, no measurement noise)
    /// in a [`Topology::single_link`]. The generated event stream is
    /// bit-identical to [`RequestLoad`]'s.
    pub fn single_link(capacity: f64, cfg: &RequestLoadConfig) -> Self {
        RoutedLoadConfig {
            topology: Arc::new(Topology::single_link(capacity)),
            flows_per_route: cfg.flows_per_link,
            ticks: cfg.ticks,
            tick: cfg.tick,
            requests_per_tick: cfg.requests_per_tick,
            mean_holding: cfg.mean_holding,
            noise_sd: 0.0,
            seed: cfg.seed,
        }
    }

    /// The route of every request of the run, indexed by `seq`: each
    /// tick, each route in turn asks `requests_per_tick` times. What a
    /// decision plane's route table is sized from when the run itself
    /// is generated in windows.
    pub fn request_routes(&self) -> Vec<RouteId> {
        let per_tick = self.topology.routes() * self.requests_per_tick;
        let mut routes = Vec::with_capacity(self.ticks * per_tick);
        for _ in 0..self.ticks {
            routes.extend(self.tick_requests());
        }
        routes
    }

    /// The routes of one tick's requests, in `seq` order.
    fn tick_requests(&self) -> impl Iterator<Item = RouteId> + '_ {
        let asks = |route| std::iter::repeat_n(route, self.requests_per_tick);
        self.topology.route_ids().flat_map(asks)
    }

    /// Hop occurrences over all routes: how many (route, link) pairs
    /// contribute a route's flows to a link's measurement.
    fn hops(&self) -> usize {
        let topo = &self.topology;
        topo.route_ids().map(|r| topo.route(r).len()).sum()
    }
}

/// The generated routed workload: per-link event streams over a shared
/// [`Topology`], plus the seq → route map the decision plane's route
/// table is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedWorkload {
    topology: Arc<Topology>,
    per_link: Vec<Vec<RoutedEvent>>,
    request_routes: Vec<RouteId>,
}

impl RoutedWorkload {
    /// The topology the workload was generated over.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// Number of links.
    pub fn links(&self) -> usize {
        self.per_link.len()
    }

    /// Link `link`'s event stream, in per-link order.
    pub fn events(&self, link: LinkId) -> &[RoutedEvent] {
        &self.per_link[link.index()]
    }

    /// The route of each request, indexed by `seq` — the total number
    /// of admission requests is this slice's length. A window's slice
    /// starts at the window's first `seq`; the run's map is the
    /// windows' slices end to end, which
    /// [`RoutedLoadConfig::request_routes`] gives without generating.
    pub fn request_routes(&self) -> &[RouteId] {
        &self.request_routes
    }

    /// Total admission requests (each counted once, not per hop).
    pub fn total_requests(&self) -> usize {
        self.request_routes.len()
    }

    /// Total per-link events (a multi-hop request counts once per hop).
    pub fn total_events(&self) -> usize {
        self.per_link.iter().map(Vec::len).sum()
    }

    /// The canonical serial-reference order: the same round-robin merge
    /// by event index as [`ServeWorkload::canonical_events`]. Each
    /// link's subsequence equals its own stream, which is all the
    /// routed plane's determinism argument needs.
    pub fn canonical_events(&self) -> impl Iterator<Item = (LinkId, &RoutedEvent)> {
        let longest = self.per_link.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest).flat_map(move |i| {
            self.per_link
                .iter()
                .enumerate()
                .filter_map(move |(link, evs)| evs.get(i).map(|e| (LinkId(link as u32), e)))
        })
    }
}

/// A node's measurement error: independent `N(0, sd²)` noise on every
/// rate sample, clamped at zero. `sd = 0` leaves the rates alone and
/// draws nothing.
pub(crate) fn add_measurement_noise(rates: &mut [f64], sd: f64, rng: &mut StdRng) {
    if sd > 0.0 {
        let gaussian = NormalSampler::get();
        for r in rates {
            // `normal(rng, 0.0, sd)` bit for bit, its table resolved
            // once a slice instead of once a draw.
            *r = (*r + (0.0 + sd * gaussian.sample(rng))).max(0.0);
        }
    }
}

/// Salt deriving the per-node noise streams from the workload seed
/// (disjoint from the per-route replication streams, which use the
/// session's `rep_seed` derivation).
const NOISE_STREAM_SALT: u64 = 0x6E65_745F_6C69_6E6B; // "net_link"

/// The routed request-stream scenario: replication `r` evolves route
/// `r`'s flow population; the fold assembles per-link streams with
/// correlated load and per-node noise.
pub struct RoutedLoad<'a> {
    /// The per-flow traffic model (RCBR, AR(1), trace, …).
    pub model: &'a dyn SourceModel,
    /// Workload shape.
    pub cfg: RoutedLoadConfig,
}

impl Scenario for RoutedLoad<'_> {
    type Rep = Vec<Box<[f64]>>;
    type Report = RoutedWorkload;

    fn validate(&self) -> Result<(), ConfigError> {
        self.cfg.topology.validate()?;
        if self.cfg.flows_per_route < 2 {
            return Err(ConfigError::TooFewFlows {
                got: self.cfg.flows_per_route,
            });
        }
        require_positive("ticks", self.cfg.ticks as f64)?;
        require_step("tick", self.cfg.tick)?;
        require_positive("mean holding time", self.cfg.mean_holding)?;
        require_non_negative("noise standard deviation", self.cfg.noise_sd)?;
        require_finite("noise standard deviation", self.cfg.noise_sd)?;
        // A link holds one measurement a tick and one request occurrence
        // per request of each route crossing it; its measurement, the
        // flows of each of those routes.
        let cfg = &self.cfg;
        let (topo, hops) = (&cfg.topology, cfg.hops());
        let (per_tick, max) = (cfg.requests_per_tick.saturating_add(1), MAX_WORKLOAD_ITEMS);
        workload_count("events", [hops.max(topo.links()), cfg.ticks, per_tick], max)?;
        workload_count("rate samples", [hops, cfg.ticks, cfg.flows_per_route], max)?;
        Ok(())
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn replications(&self) -> usize {
        self.cfg.topology.routes()
    }

    fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> Vec<Box<[f64]>> {
        let mut route = self.population(ctx);
        (1..=self.cfg.ticks)
            .map(|step| {
                let mut rates = Vec::new();
                route.step_to(step as f64 * self.cfg.tick, &mut rates);
                rates.into_boxed_slice()
            })
            .collect()
    }

    fn fold(&self, reps: Vec<Vec<Box<[f64]>>>) -> RoutedWorkload {
        let cfg = &self.cfg;
        let topo = &cfg.topology;
        let mut workload = RoutedWorkload {
            topology: Arc::clone(topo),
            per_link: (0..topo.links())
                .map(|_| Vec::with_capacity(cfg.ticks * (1 + cfg.requests_per_tick)))
                .collect(),
            request_routes: Vec::with_capacity(cfg.ticks * cfg.requests_per_tick * topo.routes()),
        };
        let mut assembly = LinkAssembly::new(cfg);
        let mut links: Vec<_> = workload.per_link.iter_mut().map(Refill::new).collect();
        for step in 1..=cfg.ticks {
            assembly.tick(
                cfg,
                step as f64 * cfg.tick,
                |route| &reps[route.index()][step - 1],
                &mut links,
                &mut workload.request_routes,
            );
        }
        drop(links);
        workload
    }
}

/// The running state of the per-link assembly: each link's noise
/// stream, and the `seq` of the next request.
struct LinkAssembly {
    noise: Vec<StdRng>,
    seq: u64,
}

impl LinkAssembly {
    /// One independent noise stream per link: the same flow measured at
    /// two nodes sees different noise (per-node measurement error),
    /// deterministically derived from the workload seed.
    fn new(cfg: &RoutedLoadConfig) -> Self {
        let noise = |link: LinkId| {
            StdRng::seed_from_u64(rep_seed(cfg.seed ^ NOISE_STREAM_SALT, link.as_u64()))
        };
        LinkAssembly {
            noise: cfg.topology.link_ids().map(noise).collect(),
            seq: 0,
        }
    }

    /// Writes the tick at `now` to every link's stream, from the rates
    /// `rates_of` each route's population has there, and its requests'
    /// routes to `request_routes`.
    fn tick<'r>(
        &mut self,
        cfg: &RoutedLoadConfig,
        now: f64,
        rates_of: impl Fn(RouteId) -> &'r [f64],
        links: &mut [Refill<RoutedEvent>],
        request_routes: &mut Vec<RouteId>,
    ) {
        let topo = &cfg.topology;
        // Measurements: each link sees the union of its crossing
        // routes' flows (correlated load), through its own noise.
        for link in topo.link_ids() {
            let crossing = || topo.routes_crossing(link).map(&rates_of);
            let noise = &mut self.noise[link.index()];
            links[link.index()].put_measure(now, |rates| {
                rates.reserve_exact(crossing().map(<[f64]>::len).sum());
                for route_rates in crossing() {
                    rates.extend_from_slice(route_rates);
                }
                add_measurement_noise(rates, cfg.noise_sd, noise);
            });
        }
        // Requests: one occurrence per hop, shared seq, emitted in
        // seq order on every link (the two-phase commit's
        // monotonicity invariant).
        for route in cfg.tick_requests() {
            let seq = self.seq;
            for &hop in topo.route(route) {
                links[hop.index()].put(RoutedEvent::Request { t: now, route, seq });
            }
            request_routes.push(route);
            self.seq += 1;
        }
    }
}

impl<'a> RoutedLoad<'a> {
    fn population(&self, ctx: &RepContext) -> Population<'a> {
        let cfg = &self.cfg;
        Population::new(self.model, cfg.flows_per_route, cfg.mean_holding, ctx)
    }

    /// The run as successive windows, generated on `engine`: validates
    /// the configuration as a session would — the whole-run bound
    /// included, since the plane's route table holds a slot per request
    /// of the run — seeds every route's population on the stream a
    /// session gives its replication and every link's noise on the
    /// stream the fold gives it.
    pub fn windows(&self, engine: Engine) -> Result<RoutedWindows<'_>, ConfigError> {
        self.validate()?;
        let cfg = &self.cfg;
        let topo = &cfg.topology;
        let requests = [topo.routes(), cfg.ticks, cfg.requests_per_tick];
        let requests = workload_count("requests", requests, MAX_WORKLOAD_ITEMS)?;
        Ok(RoutedWindows {
            load: self,
            routes: (0..topo.routes())
                .map(|route| self.population(&rep_context(cfg.seed, route, engine)))
                .collect(),
            rates: vec![Vec::new(); topo.routes()],
            assembly: LinkAssembly::new(cfg),
            requests,
            done: 0,
        })
    }
}

/// [`RoutedLoad`]'s run, a window at a time: `seq` and the noise
/// streams run on from window to window.
pub struct RoutedWindows<'a> {
    load: &'a RoutedLoad<'a>,
    routes: Vec<Population<'a>>,
    /// Each route's rates at the tick being assembled.
    rates: Vec<Vec<f64>>,
    assembly: LinkAssembly,
    requests: u64,
    /// Ticks generated so far.
    done: usize,
}

impl Windows for RoutedWindows<'_> {
    type Workload = RoutedWorkload;

    fn items_per_tick(&self) -> usize {
        let cfg = &self.load.cfg;
        let events = cfg.topology.links() + cfg.hops() * cfg.requests_per_tick;
        events.max(cfg.hops() * cfg.flows_per_route)
    }

    fn requests(&self) -> u64 {
        self.requests
    }

    fn new_window(&self) -> RoutedWorkload {
        let topo = &self.load.cfg.topology;
        RoutedWorkload {
            topology: Arc::clone(topo),
            per_link: (0..topo.links()).map(|_| Vec::new()).collect(),
            request_routes: Vec::new(),
        }
    }

    fn next_window(&mut self, ticks: usize, window: &mut RoutedWorkload) -> bool {
        let cfg = &self.load.cfg;
        assert_eq!(
            window.links(),
            cfg.topology.links(),
            "a window of another run"
        );
        let ticks = ticks.min(cfg.ticks - self.done);
        if ticks == 0 {
            return false;
        }
        window.request_routes.clear();
        let mut links: Vec<_> = window.per_link.iter_mut().map(Refill::new).collect();
        // A link's measurement joins its routes' rates at one tick, so
        // the routes go from tick to tick together.
        for step in self.done + 1..=self.done + ticks {
            let now = step as f64 * cfg.tick;
            for (route, rates) in self.routes.iter_mut().zip(&mut self.rates) {
                route.step_to(now, rates);
            }
            let rates = &self.rates;
            self.assembly.tick(
                cfg,
                now,
                |route| &rates[route.index()],
                &mut links,
                &mut window.request_routes,
            );
        }
        drop(links);
        self.done += ticks;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
    use proptest::prelude::*;

    fn config() -> RequestLoadConfig {
        RequestLoadConfig {
            links: 3,
            flows_per_link: 8,
            ticks: 20,
            tick: 0.5,
            requests_per_tick: 2,
            mean_holding: 5.0,
            seed: 11,
        }
    }

    fn model() -> RcbrModel {
        RcbrModel::new(RcbrConfig::paper_default(1.0))
    }

    #[test]
    fn workload_has_expected_shape() {
        let m = model();
        let load = RequestLoad {
            model: &m,
            cfg: config(),
        };
        let w = SessionBuilder::new().run(&load).unwrap();
        assert_eq!(w.links(), 3);
        assert_eq!(w.total_requests(), 3 * 20 * 2);
        assert_eq!(w.total_events(), 3 * 20 * 3);
        for link in w.link_ids() {
            let evs = w.events(link);
            // Per-link pattern: Measure, then requests_per_tick Requests.
            for (i, e) in evs.iter().enumerate() {
                match i % 3 {
                    0 => assert!(matches!(e, LinkEvent::Measure { .. })),
                    _ => assert!(matches!(e, LinkEvent::Request { .. })),
                }
            }
            // Occupancy is topped up to the target every tick.
            for e in evs {
                if let LinkEvent::Measure { rates, .. } = e {
                    assert_eq!(rates.len(), 8);
                }
            }
        }
    }

    #[test]
    fn workload_is_worker_and_engine_invariant() {
        let m = model();
        let load = RequestLoad {
            model: &m,
            cfg: config(),
        };
        let reference = SessionBuilder::new().workers(1).run(&load).unwrap();
        for workers in [2, 4] {
            let w = SessionBuilder::new().workers(workers).run(&load).unwrap();
            assert_eq!(w, reference, "diverged at {workers} workers");
        }
        let boxed = SessionBuilder::new()
            .engine(crate::session::Engine::Boxed)
            .run(&load)
            .unwrap();
        assert_eq!(boxed, reference, "boxed engine diverged");
    }

    #[test]
    fn canonical_order_is_round_robin_and_complete() {
        let m = model();
        let load = RequestLoad {
            model: &m,
            cfg: config(),
        };
        let w = SessionBuilder::new().run(&load).unwrap();
        let merged: Vec<(LinkId, &LinkEvent)> = w.canonical_events().collect();
        assert_eq!(merged.len(), w.total_events());
        // Per-link subsequence of the merge equals the link's own stream.
        for link in w.link_ids() {
            let sub: Vec<&LinkEvent> = merged
                .iter()
                .filter(|&&(l, _)| l == link)
                .map(|&(_, e)| e)
                .collect();
            let own: Vec<&LinkEvent> = w.events(link).iter().collect();
            assert_eq!(sub, own);
        }
        assert_eq!(merged[0].0, LinkId(0));
        assert_eq!(merged[1].0, LinkId(1));
        assert_eq!(merged[2].0, LinkId(2));
    }

    #[test]
    fn bad_configs_are_rejected() {
        let m = model();
        let mut cfg = config();
        cfg.links = 0;
        let err = RequestLoad {
            model: &m,
            cfg: cfg.clone(),
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroReplications);

        let mut cfg = config();
        cfg.flows_per_link = 1;
        assert!(matches!(
            RequestLoad {
                model: &m,
                cfg: cfg.clone()
            }
            .validate(),
            Err(ConfigError::TooFewFlows { got: 1 })
        ));

        let mut cfg = config();
        cfg.tick = 0.0;
        assert!(matches!(
            RequestLoad { model: &m, cfg }.validate(),
            Err(ConfigError::NonPositive { field: "tick", .. })
        ));
    }

    /// The error a shape too large to generate gets, naming `what`.
    fn too_large(what: &'static str) -> Result<(), ConfigError> {
        Err(ConfigError::WorkloadTooLarge {
            what,
            max: MAX_WORKLOAD_ITEMS,
        })
    }

    /// A workload is sized from its configuration before anything is
    /// allocated: a shape past the bound, or past `usize`, is an error.
    #[test]
    fn oversized_workloads_are_rejected() {
        let m = model();
        let huge = 99_999_999_999;
        let validate = |edit: &dyn Fn(&mut RequestLoadConfig)| {
            let mut cfg = config();
            edit(&mut cfg);
            RequestLoad { model: &m, cfg }.validate()
        };
        assert_eq!(validate(&|c| c.ticks = huge), too_large("events"));
        assert_eq!(validate(&|c| c.links = huge), too_large("events"));
        assert_eq!(
            validate(&|c| c.requests_per_tick = huge),
            too_large("events")
        );
        assert_eq!(
            validate(&|c| c.requests_per_tick = usize::MAX),
            too_large("events")
        );
        assert_eq!(validate(&|c| c.ticks = usize::MAX), too_large("events"));
        assert_eq!(
            validate(&|c| c.flows_per_link = huge),
            too_large("rate samples")
        );
        // The bound itself is a legal size: 2^14 links x 2^12 ticks x
        // (1 + 3) events.
        let at_the_bound = |c: &mut RequestLoadConfig| {
            (c.links, c.ticks, c.requests_per_tick) = (1 << 14, 1 << 12, 3);
            c.flows_per_link = 2;
        };
        assert_eq!(validate(&at_the_bound), Ok(()));
        assert_eq!(
            validate(&|c| {
                at_the_bound(c);
                c.requests_per_tick = 4;
            }),
            too_large("events")
        );
    }

    /// A run generated in windows holds one window, so it is held to the
    /// bound one tick at a time: `serve-bench --links 32
    /// --requests-per-tick 32 --ticks 300000` is more events than a
    /// materialised run may hold, and streams. A tick past the bound and
    /// a run past `MAX_RUN_ITEMS` (or past `u64`) do not.
    #[test]
    fn windows_hold_the_bound_a_tick_at_a_time() {
        let m = model();
        let load = |edit: &dyn Fn(&mut RequestLoadConfig)| {
            let mut cfg = config();
            edit(&mut cfg);
            RequestLoad { model: &m, cfg }
        };
        let long = load(&|c| {
            (c.links, c.flows_per_link) = (32, 50);
            (c.ticks, c.requests_per_tick) = (300_000, 32);
        });
        assert_eq!(long.validate(), too_large("events"));
        let mut windows = long.windows(Engine::Batched).unwrap();
        assert_eq!(windows.requests(), 32 * 300_000 * 32);
        assert_eq!(windows.items_per_tick(), 32 * 50);
        let mut window = windows.new_window();
        assert!(windows.next_window(2, &mut window));
        assert_eq!(window.total_events(), 32 * 2 * 33);

        let windows =
            |edit: &dyn Fn(&mut RequestLoadConfig)| load(edit).windows(Engine::Batched).err();
        let past_the_run = |what| {
            Some(ConfigError::WorkloadTooLarge {
                what,
                max: MAX_RUN_ITEMS,
            })
        };
        let one_tick = |c: &mut RequestLoadConfig| {
            (c.links, c.flows_per_link, c.ticks) = (64, 5_000_000, 1);
        };
        assert_eq!(windows(&one_tick), too_large("rate samples").err());
        let wide = |c: &mut RequestLoadConfig| (c.links, c.requests_per_tick) = (4, 99_999_999_999);
        assert_eq!(windows(&wide), too_large("events").err());
        let ticks = |ticks| move |c: &mut RequestLoadConfig| c.ticks = ticks;
        assert_eq!(windows(&ticks(999_999_999_999)), past_the_run("events"));
        assert_eq!(windows(&ticks(usize::MAX)), past_the_run("events"));
        assert_eq!(
            windows(&|c| c.links = 0),
            Some(ConfigError::ZeroReplications)
        );
    }

    // -- routed workloads ------------------------------------------------

    fn routed_config(topology: Topology) -> RoutedLoadConfig {
        RoutedLoadConfig {
            topology: Arc::new(topology),
            flows_per_route: 6,
            ticks: 12,
            tick: 0.5,
            requests_per_tick: 2,
            mean_holding: 5.0,
            noise_sd: 0.05,
            seed: 11,
        }
    }

    #[test]
    fn routed_workload_has_expected_shape() {
        let m = model();
        let topo = Topology::parking_lot(3, 8.0);
        let load = RoutedLoad {
            model: &m,
            cfg: routed_config(topo.clone()),
        };
        let w = SessionBuilder::new().run(&load).unwrap();
        assert_eq!(w.links(), 3);
        // 4 routes × 12 ticks × 2 requests.
        assert_eq!(w.total_requests(), 4 * 12 * 2);
        for link in topo.link_ids() {
            let evs = w.events(link);
            // Each link carries the long route + its own cross traffic.
            let measures = evs
                .iter()
                .filter(|e| matches!(e, RoutedEvent::Measure { .. }))
                .count();
            assert_eq!(measures, 12);
            for e in evs {
                if let RoutedEvent::Measure { rates, .. } = e {
                    assert_eq!(rates.len(), 2 * 6, "two crossing routes of 6 flows");
                }
            }
            // Seq monotonicity: the two-phase commit's invariant.
            let seqs: Vec<u64> = evs
                .iter()
                .filter_map(|e| match e {
                    RoutedEvent::Request { seq, .. } => Some(*seq),
                    _ => None,
                })
                .collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq must increase");
        }
        // Every multi-hop request appears once per hop.
        let occurrences: usize = w.total_events()
            - topo.links() * 12 // measures
            ;
        let expected: usize = w
            .request_routes()
            .iter()
            .map(|&r| topo.route(r).len())
            .sum();
        assert_eq!(occurrences, expected);
    }

    #[test]
    fn routed_workload_is_worker_and_engine_invariant() {
        let m = model();
        let load = RoutedLoad {
            model: &m,
            cfg: routed_config(Topology::star(4, 8.0)),
        };
        let reference = SessionBuilder::new().workers(1).run(&load).unwrap();
        for workers in [2, 4] {
            let w = SessionBuilder::new().workers(workers).run(&load).unwrap();
            assert_eq!(w, reference, "diverged at {workers} workers");
        }
        let boxed = SessionBuilder::new()
            .engine(crate::session::Engine::Boxed)
            .run(&load)
            .unwrap();
        assert_eq!(boxed, reference, "boxed engine diverged");
    }

    /// The compatibility contract satellite-tested end-to-end in the
    /// serve crate: a single-link routed workload reproduces
    /// [`RequestLoad`]'s measurement bits exactly.
    #[test]
    fn single_link_routed_matches_request_load_bits() {
        let m = model();
        let mut legacy_cfg = config();
        legacy_cfg.links = 1;
        let legacy = SessionBuilder::new()
            .run(&RequestLoad {
                model: &m,
                cfg: legacy_cfg.clone(),
            })
            .unwrap();
        let routed = SessionBuilder::new()
            .run(&RoutedLoad {
                model: &m,
                cfg: RoutedLoadConfig::single_link(8.0, &legacy_cfg),
            })
            .unwrap();
        let legacy_evs = legacy.events(LinkId(0));
        let routed_evs = routed.events(LinkId(0));
        assert_eq!(legacy_evs.len(), routed_evs.len());
        for (l, r) in legacy_evs.iter().zip(routed_evs) {
            match (l, r) {
                (
                    LinkEvent::Measure { t: lt, rates: lr },
                    RoutedEvent::Measure { t: rt, rates: rr },
                ) => {
                    assert_eq!(lt.to_bits(), rt.to_bits());
                    assert_eq!(lr.len(), rr.len());
                    for (a, b) in lr.iter().zip(rr.iter()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "rate bits diverged");
                    }
                }
                (LinkEvent::Request { t: lt }, RoutedEvent::Request { t: rt, route, .. }) => {
                    assert_eq!(lt.to_bits(), rt.to_bits());
                    assert_eq!(*route, RouteId(0));
                }
                other => panic!("event kind mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn routed_bad_configs_are_rejected() {
        let m = model();
        let mut cfg = routed_config(Topology::single_link(8.0));
        cfg.noise_sd = -0.1;
        assert!(matches!(
            RoutedLoad { model: &m, cfg }.validate(),
            Err(ConfigError::Negative { .. })
        ));
        let mut cfg = routed_config(Topology::single_link(8.0));
        cfg.flows_per_route = 1;
        assert!(matches!(
            RoutedLoad { model: &m, cfg }.validate(),
            Err(ConfigError::TooFewFlows { got: 1 })
        ));
    }

    #[test]
    fn oversized_routed_workloads_are_rejected() {
        let m = model();
        let huge = 99_999_999_999;
        let validate = |edit: &dyn Fn(&mut RoutedLoadConfig)| {
            let mut cfg = routed_config(Topology::parking_lot(3, 8.0));
            edit(&mut cfg);
            RoutedLoad { model: &m, cfg }.validate()
        };
        assert_eq!(validate(&|c| c.ticks = huge), too_large("events"));
        assert_eq!(validate(&|c| c.ticks = usize::MAX), too_large("events"));
        assert_eq!(
            validate(&|c| c.requests_per_tick = huge),
            too_large("events")
        );
        assert_eq!(
            validate(&|c| c.flows_per_route = huge),
            too_large("rate samples")
        );
        // Sized by hop occurrences, not links: the parking lot's three
        // links carry six (one three-hop route, three one-hop routes).
        let ticks = (MAX_WORKLOAD_ITEMS / (6 * 4)) as usize;
        let sized = |ticks| {
            move |c: &mut RoutedLoadConfig| {
                (c.ticks, c.requests_per_tick, c.flows_per_route) = (ticks, 3, 2);
            }
        };
        assert_eq!(validate(&sized(ticks)), Ok(()));
        assert_eq!(validate(&sized(ticks + 1)), too_large("events"));
    }

    // -- windows ---------------------------------------------------------

    /// Every link's events over a run generated `window` ticks at a
    /// time, end to end, with how many windows that took.
    fn end_to_end<G: Windows, E: Clone>(
        mut windows: G,
        window: usize,
        links: usize,
        events: impl Fn(&G::Workload, LinkId) -> &[E],
        mut each: impl FnMut(&G::Workload),
    ) -> (Vec<Vec<E>>, usize) {
        let mut per_link = vec![Vec::new(); links];
        let mut count = 0;
        let mut w = windows.new_window();
        while windows.next_window(window, &mut w) {
            for (link, all) in per_link.iter_mut().enumerate() {
                all.extend_from_slice(events(&w, LinkId(link as u32)));
            }
            each(&w);
            count += 1;
        }
        (per_link, count)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A link's windows, end to end, are its stream in the
        /// materialised workload — every rate bit, `t`, `route` and
        /// `seq` — and the windows' request routes the run's, for
        /// windows of one tick, of a few, of the whole run and longer
        /// than it, on both engines. The star's hub carries three
        /// requests to a spoke's one, so there a window's round-robin
        /// order is not the run's.
        #[test]
        fn windows_end_to_end_are_the_materialised_workload(
            seed in 0u64..1_000_000,
            ticks in 1usize..20,
            flows in 2usize..8,
            requests_per_tick in 0usize..4,
        ) {
            let m = model();
            for engine in [Engine::Batched, Engine::Boxed] {
                let cfg = RequestLoadConfig {
                    links: 3,
                    flows_per_link: flows,
                    ticks,
                    requests_per_tick,
                    seed,
                    ..config()
                };
                let load = RequestLoad { model: &m, cfg };
                let whole = SessionBuilder::new().engine(engine).run(&load).unwrap();
                for window in [1, 7, ticks, ticks + 5] {
                    let windows = load.windows(engine).unwrap();
                    let items = 3 * flows.max(requests_per_tick + 1);
                    prop_assert_eq!(windows.items_per_tick(), items);
                    let (per_link, count) =
                        end_to_end(windows, window, 3, ServeWorkload::events, |_| {});
                    prop_assert_eq!(count, ticks.div_ceil(window));
                    for link in whole.link_ids() {
                        prop_assert_eq!(&per_link[link.index()][..], whole.events(link));
                    }
                }
                let shapes = [
                    Topology::single_link(8.0),
                    Topology::parking_lot(3, 8.0),
                    Topology::star(3, 8.0),
                ];
                for topology in shapes {
                    for noise_sd in [0.0, 0.05] {
                        let cfg = RoutedLoadConfig {
                            flows_per_route: flows,
                            ticks,
                            requests_per_tick,
                            noise_sd,
                            seed,
                            ..routed_config(topology.clone())
                        };
                        let load = RoutedLoad { model: &m, cfg };
                        let whole = SessionBuilder::new().engine(engine).run(&load).unwrap();
                        prop_assert_eq!(&load.cfg.request_routes()[..], whole.request_routes());
                        for window in [1, 7, ticks, ticks + 5] {
                            let windows = load.windows(engine).unwrap();
                            let mut routes = Vec::new();
                            let (per_link, _) = end_to_end(
                                windows,
                                window,
                                topology.links(),
                                RoutedWorkload::events,
                                |w| routes.extend_from_slice(w.request_routes()),
                            );
                            for link in topology.link_ids() {
                                prop_assert_eq!(&per_link[link.index()][..], whole.events(link));
                            }
                            prop_assert_eq!(&routes[..], whole.request_routes());
                        }
                    }
                }
            }
        }
    }

    /// From the second window on nothing is allocated for rates: every
    /// measurement is written into the buffer of the measurement in its
    /// place a window earlier — also in a last, shorter window.
    #[test]
    fn a_second_window_reuses_the_first_ones_rate_buffers() {
        fn buffers<'w, E: 'w>(
            streams: impl Iterator<Item = &'w [E]>,
            rates: impl Fn(&E) -> Option<&[f64]>,
        ) -> Vec<Vec<*const f64>> {
            let of_measure = |e: &E| rates(e).map(<[f64]>::as_ptr);
            streams
                .map(|events| events.iter().filter_map(of_measure).collect())
                .collect()
        }
        fn reused(per_window: &[Vec<Vec<*const f64>>], lens: [usize; 3]) {
            let [first, second, last] = per_window else {
                panic!("{} windows", per_window.len());
            };
            assert_eq!(first, second);
            for (link, (first, last)) in first.iter().zip(last).enumerate() {
                assert_eq!(first.len(), lens[0], "link {link}");
                assert_eq!(last[..], first[..lens[2]], "link {link}");
            }
        }
        let m = model();
        let load = RequestLoad {
            model: &m,
            cfg: config(),
        };
        let mut windows = load.windows(Engine::Batched).unwrap();
        let (mut per_window, mut w) = (Vec::new(), windows.new_window());
        while windows.next_window(8, &mut w) {
            let streams = w.link_ids().map(|link| w.events(link));
            per_window.push(buffers(streams, |e| match e {
                LinkEvent::Measure { rates, .. } => Some(rates),
                LinkEvent::Request { .. } => None,
            }));
        }
        reused(&per_window, [8, 8, 4]);

        let topo = Topology::star(3, 8.0);
        let load = RoutedLoad {
            model: &m,
            cfg: RoutedLoadConfig {
                ticks: 20,
                ..routed_config(topo.clone())
            },
        };
        let mut windows = load.windows(Engine::Batched).unwrap();
        let (mut per_window, mut w) = (Vec::new(), windows.new_window());
        while windows.next_window(8, &mut w) {
            let streams = topo.link_ids().map(|link| w.events(link));
            per_window.push(buffers(streams, |e| match e {
                RoutedEvent::Measure { rates, .. } => Some(rates),
                RoutedEvent::Request { .. } => None,
            }));
        }
        reused(&per_window, [8, 8, 4]);
    }

    /// Per-node noise decorrelates the measurements two links take of
    /// the same shared flow.
    #[test]
    fn per_node_noise_differs_across_links() {
        let m = model();
        let topo = Topology::new(vec![8.0, 8.0], vec![vec![LinkId(0), LinkId(1)]]).unwrap();
        let mut cfg = routed_config(topo);
        cfg.noise_sd = 0.1;
        let w = SessionBuilder::new()
            .run(&RoutedLoad { model: &m, cfg })
            .unwrap();
        // Same route crosses both links: identical underlying rates,
        // different measured values.
        let (a, b) = (w.events(LinkId(0)), w.events(LinkId(1)));
        let mut any_diff = false;
        for (ea, eb) in a.iter().zip(b) {
            if let (
                RoutedEvent::Measure { rates: ra, .. },
                RoutedEvent::Measure { rates: rb, .. },
            ) = (ea, eb)
            {
                assert_eq!(ra.len(), rb.len());
                if ra.iter().zip(rb.iter()).any(|(x, y)| x != y) {
                    any_diff = true;
                }
            }
        }
        assert!(any_diff, "independent per-node noise must decorrelate");
    }
}
