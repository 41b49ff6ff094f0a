//! Scenario-as-request-stream adapter: replays the simulator's traffic
//! models as a *decision-plane workload*.
//!
//! The serve crate needs realistic admission traffic — links whose
//! measured load evolves like the paper's RCBR/AR(1)/trace sources,
//! interleaved with admission requests. One generator makes it:
//! [`RoutedLoad`] runs one replication per *route* of a [`Topology`],
//! each a [`FlowTable`] of `flows_per_route` flows with exponential
//! holding-time churn, and measures a link as the fold of every crossing
//! route's flows (shared flows ⇒ correlated load) as its node sees them,
//! through its own noise ([`RoutedLoadConfig::noise_sd`]). An admission
//! request on an `h`-hop route appears as one [`RoutedEvent::Request`]
//! occurrence on *each* hop link, all carrying the same global sequence
//! number for the plane's two-phase commit.
//!
//! [`RequestLoad`] is the paper's single link, `links` times over: the
//! same generator on `links` disjoint one-hop routes without noise
//! ([`RoutedLoadConfig::one_hop_links`]). Materialised, it emits per
//! tick one [`LinkEvent::Measure`] carrying the link's rates, then
//! `requests_per_tick` [`LinkEvent::Request`]s.
//!
//! Because generation rides the Session pipeline, a workload is
//! **bit-identical for any worker count and either flow engine** (the
//! `rep_seed` determinism contract), so the serve invariance tests can
//! generate their streams in parallel without weakening the comparison.
//!
//! # Windows
//!
//! A run need not exist in memory at once. [`RoutedLoad::windows`], and
//! [`RequestLoad::windows`] over its one-hop routes, generate it a window
//! of ticks at a time ([`Windows::next_window`]) into a window the
//! caller owns, written over whatever window of the run that buffer held
//! before. A window is **compact**: it holds one [`SnapshotMoments`] per
//! (tick, link) — the link's measurement folded where it is generated,
//! while its rates are still in cache, around its first rate
//! ([`fold_noisy`] with no pivot: the producer cannot know the
//! consumer's estimate) — and the step of its first tick. It holds no
//! request: a request's `t`, `route` and `seq` are functions of its
//! tick, the topology and `requests_per_tick` ([`RoutedWindow::seq`]),
//! so the replay synthesises them, and a decision plane sizes its route
//! table to the window's slice of the run's seq → route map
//! ([`RoutedWindow::first_seq`], [`RoutedWindow::request_routes`]), not
//! to the run. Times and `seq` run on across
//! windows, every population and noise stream carries on where the last
//! window left it, and a link's snapshots, window after window, are
//! those of its `Measure`s in the materialised workload, bit for bit
//! (tested): both are written on the same per-tick steps
//! (`Population::step_to`, `LinkAssembly::measure`) — a single-link
//! `Measure` carries the rates the window folds, a routed one the fold
//! itself. Five numbers a link a tick cross from the core that
//! generates a window to the one that replays it.
//!
//! # Ordering contract
//!
//! The scientific content of a workload is **per-link order**: each
//! link's interleaving of measurements and requests is what the
//! controller's decision sequence depends on. Cross-link order is
//! deliberately unspecified — the decision plane is free to interleave
//! links arbitrarily (that is the whole point of sharding), and
//! [`ServeWorkload::canonical_events`] provides one fixed round-robin
//! merge as the serial-reference order. A window is replayed in another
//! order: tick by tick and, within a tick, request by request — every
//! link's measurement, then the tick's requests in `seq` order, each
//! one's hop occurrences back to back from hop 0. Each link still sees
//! its measurement and then its requests of the tick in `seq` order. So
//! a run replayed in windows visits the links in another cross-link
//! order than the same run materialised — and decides the same, because
//! no decision reads anything but per-link order. Routed workloads add
//! one more guarantee the two-phase commit relies on: each link's
//! `Request` occurrences are strictly increasing in `seq`, and every
//! hop's occurrence of one request lies in the same tick, hence the
//! same window — no reserve is left waiting at a window's end, and a
//! window's route table need hold no request of another window.

use crate::flows::FlowTable;
use crate::session::{
    rep_seed, require_finite, require_non_negative, require_positive, require_step, ConfigError,
    Engine, RepContext, Scenario,
};
use crate::telemetry::MetricsSink;
use mbac_core::topology::{LinkId, RouteId, Topology};
use mbac_num::rng::exponential;
use mbac_num::{fold_noisy, SnapshotMoments};
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
        let events = self.per_link.iter().flatten();
        events
            .filter(|e| matches!(e, LinkEvent::Request { .. }))
            .count()
    }

    /// Total events across all links.
    pub fn total_events(&self) -> usize {
        self.per_link.iter().map(Vec::len).sum()
    }

    /// The canonical serial-reference order: the links' streams merged
    /// round-robin by event index. Any order that preserves each link's own sequence yields the
    /// same per-link decisions (the serve invariance suite proves this);
    /// this one is the fixed reference the sharded plane is compared
    /// against.
    pub fn canonical_events(&self) -> impl Iterator<Item = (LinkId, &LinkEvent)> {
        round_robin(&self.per_link)
    }
}

/// `per_link`'s events merged round-robin by event index: `link 0
/// event 0, link 1 event 0, …, link 0 event 1, …`.
fn round_robin<E>(per_link: &[Vec<E>]) -> impl Iterator<Item = (LinkId, &E)> {
    let longest = per_link.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(move |i| {
        let links = per_link.iter().enumerate();
        links.filter_map(move |(link, evs)| evs.get(i).map(|e| (LinkId(link as u32), e)))
    })
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
/// costs ~4 ns to draw and a decision ~35 ns, so 2⁴⁰ of either
/// take hours, and a mistyped `--ticks 99999999999` is an error, not a
/// process that runs for days.
pub const MAX_RUN_ITEMS: u64 = 1 << 40;

/// The product of `factors` — how many `what` the workload would hold,
/// or pass through — if it neither overflows nor exceeds `max`.
pub(crate) fn workload_count<const N: usize>(
    what: &'static str,
    factors: [usize; N],
    max: u64,
) -> Result<u64, ConfigError> {
    factors
        .iter()
        .try_fold(1u64, |n, &factor| n.checked_mul(factor as u64))
        .filter(|&n| n <= max)
        .ok_or(ConfigError::WorkloadTooLarge { what, max })
}

/// One route's churned flow population, taken from tick to tick. The
/// exact sequence of table/RNG operations is the compatibility
/// contract: a run generated in windows must consume the identical
/// random streams as the materialised one, and so produce its bits.
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
        table.admit_run(model, flows, &mut rng, |rng| exponential(rng, mean_holding));
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
        let mean_holding = self.mean_holding;
        self.table.admit_run(
            self.model,
            self.flows.saturating_sub(self.table.len()),
            &mut self.rng,
            |rng| now + exponential(rng, mean_holding),
        );
        self.table.snapshot_into(rates);
    }

    /// The population's rates at each of the run's `ticks` ticks of
    /// `tick`: one replication of either scenario.
    fn run(mut self, ticks: usize, tick: f64) -> Vec<Box<[f64]>> {
        (1..=ticks)
            .map(|step| {
                let mut rates = Vec::new();
                self.step_to(step as f64 * tick, &mut rates);
                rates.into_boxed_slice()
            })
            .collect()
    }
}

/// A run generated a window of ticks at a time (see the module docs),
/// into window buffers the caller owns: one it hands back each time, or
/// several it rotates.
pub trait Windows {
    /// What a window is: the snapshots of its ticks.
    type Workload;

    /// The links a tick measures: a window holds a snapshot of each per
    /// tick, which is what a caller sizes its windows by.
    fn links(&self) -> usize;

    /// The run's admission requests, each counted once.
    fn requests(&self) -> u64;

    /// An empty window of this run, for [`Windows::next_window`] to
    /// write into.
    fn new_window(&self) -> Self::Workload;

    /// Writes the next `ticks` ticks (fewer at the end of the run) into
    /// `window`, over whatever it holds, and returns `true`; once the
    /// run is complete, returns `false` and leaves `window` alone.
    fn next_window(&mut self, ticks: usize, window: &mut Self::Workload) -> bool;
}

/// A window of a run generated in [`Windows`]: every link's measurement
/// at each of the window's ticks, folded where it was generated (see
/// the module docs), and what the replay needs to synthesise the
/// requests around them.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotWindow {
    /// Run-global step of the window's first tick: steps count from 1,
    /// and step `s` is measured at `s · tick`.
    first: usize,
    tick: f64,
    requests_per_tick: usize,
    links: usize,
    /// Tick-major: the window's `k`-th tick's link `l` is at
    /// `k · links + l`.
    snapshots: Vec<SnapshotMoments>,
}

impl SnapshotWindow {
    fn new(links: usize, tick: f64, requests_per_tick: usize) -> Self {
        SnapshotWindow {
            first: 1,
            tick,
            requests_per_tick,
            links,
            snapshots: Vec::new(),
        }
    }

    /// Makes this the window of `ticks` ticks from step `first`, every
    /// snapshot still to be written.
    fn reset(&mut self, first: usize, ticks: usize) {
        self.first = first;
        self.snapshots.clear();
        let empty = SnapshotMoments::default();
        self.snapshots.resize(ticks * self.links, empty);
    }

    /// Link `link`'s snapshot at the window's `k`-th tick.
    fn at(&mut self, k: usize, link: usize) -> &mut SnapshotMoments {
        &mut self.snapshots[k * self.links + link]
    }

    /// Number of links.
    pub fn links(&self) -> usize {
        self.links
    }

    /// Number of ticks the window holds.
    pub fn ticks(&self) -> usize {
        self.snapshots.len() / self.links
    }

    /// Admission requests a tick asks: of each link, or of each route of
    /// a routed run.
    pub fn requests_per_tick(&self) -> usize {
        self.requests_per_tick
    }

    /// The window's measurements tick by tick and, within a tick, in
    /// link order: each one's link, run-global step, time (bit for bit
    /// the materialised workload's) and snapshot.
    pub fn measurements(&self) -> impl Iterator<Item = (LinkId, usize, f64, SnapshotMoments)> + '_ {
        let ticks = self.snapshots.chunks_exact(self.links).enumerate();
        ticks.flat_map(move |(k, tick)| {
            let step = self.first + k;
            let t = step as f64 * self.tick;
            let link = move |(l, &moments)| (LinkId(l as u32), step, t, moments);
            tick.iter().enumerate().map(link)
        })
    }
}

/// A window of a routed run: its [`SnapshotWindow`] and the network the
/// snapshots were measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedWindow {
    topology: Arc<Topology>,
    snapshots: SnapshotWindow,
}

impl RoutedWindow {
    /// The network the run is generated over.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The links' snapshots.
    pub fn snapshots(&self) -> &SnapshotWindow {
        &self.snapshots
    }

    /// The `seq` of `route`'s `k`-th request of tick `step`: each tick,
    /// each route in turn asks `requests_per_tick` times — the map
    /// [`RoutedLoadConfig::request_routes`] spells out.
    pub fn seq(&self, step: usize, route: RouteId, k: usize) -> u64 {
        let routes = self.topology.routes();
        (((step - 1) * routes + route.index()) * self.snapshots.requests_per_tick + k) as u64
    }

    /// The `seq` of the window's first request.
    pub fn first_seq(&self) -> u64 {
        self.seq(self.snapshots.first, RouteId(0), 0)
    }

    /// The route of each of the window's requests, in `seq` order from
    /// [`RoutedWindow::first_seq`]: the window's slice of the run's map.
    pub fn request_routes(&self) -> impl Iterator<Item = RouteId> + '_ {
        let asks = self.snapshots.requests_per_tick;
        let routes = self.topology.routes() as u32;
        let tick = move |_| (0..routes).flat_map(move |r| std::iter::repeat_n(RouteId(r), asks));
        (0..self.snapshots.ticks()).flat_map(tick)
    }
}

/// The request-stream scenario: `cfg.links` disjoint one-hop routes of
/// a [`RoutedLoad`] without noise, replication `r` generating link
/// `r`'s event stream from the source model's traffic.
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
        self.routed(self.cfg.ticks, MAX_WORKLOAD_ITEMS)?.validate()
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn replications(&self) -> usize {
        self.cfg.links
    }

    /// Route `ctx.rep`'s replication of [`RoutedLoad`], each tick's
    /// rates a `Measure` followed by the tick's requests.
    fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> Vec<LinkEvent> {
        let cfg = &self.cfg;
        let link = Population::new(self.model, cfg.flows_per_link, cfg.mean_holding, ctx);
        let mut events = Vec::with_capacity(cfg.ticks * (1 + cfg.requests_per_tick));
        for (step, rates) in (1..).zip(link.run(cfg.ticks, cfg.tick)) {
            let t = step as f64 * cfg.tick;
            events.push(LinkEvent::Measure { t, rates });
            let request = LinkEvent::Request { t };
            events.extend(std::iter::repeat_n(request, cfg.requests_per_tick));
        }
        events
    }

    fn fold(&self, reps: Vec<Vec<LinkEvent>>) -> ServeWorkload {
        ServeWorkload { per_link: reps }
    }
}

impl<'a> RequestLoad<'a> {
    /// The run as [`RoutedLoad`] generates it. Its topology is a route
    /// per link, so the links are held to what sizes the run before a
    /// topology that long is built: at least two flows each, and
    /// `ticks` ticks (one at least) within `max` events and `max` rate
    /// samples.
    fn routed(&self, ticks: usize, max: u64) -> Result<RoutedLoad<'a>, ConfigError> {
        let cfg = &self.cfg;
        if cfg.links == 0 {
            return Err(ConfigError::ZeroReplications);
        }
        if cfg.flows_per_link < 2 {
            return Err(ConfigError::TooFewFlows {
                got: cfg.flows_per_link,
            });
        }
        let (ticks, per_tick) = (ticks.max(1), cfg.requests_per_tick.saturating_add(1));
        workload_count("events", [cfg.links, ticks, per_tick], max)?;
        workload_count("rate samples", [cfg.links, ticks, cfg.flows_per_link], max)?;
        // A link's capacity plays no part in generating its traffic.
        let cfg = RoutedLoadConfig::one_hop_links(1.0, cfg);
        Ok(RoutedLoad {
            model: self.model,
            cfg,
        })
    }

    /// The run as successive windows, generated on `engine`: checks the
    /// configuration as [`RoutedLoad::windows`] does.
    pub fn windows(&self, engine: Engine) -> Result<RequestWindows<'a>, ConfigError> {
        let routed = self.routed(1, MAX_WORKLOAD_ITEMS)?;
        Ok(RequestWindows(routed.windows(engine)?))
    }
}

/// [`RequestLoad`]'s run, a window at a time: the windows of its
/// one-hop routes, without the topology.
pub struct RequestWindows<'a>(RoutedWindows<'a>);

impl Windows for RequestWindows<'_> {
    type Workload = SnapshotWindow;

    fn links(&self) -> usize {
        self.0.links()
    }

    fn requests(&self) -> u64 {
        self.0.requests()
    }

    fn new_window(&self) -> SnapshotWindow {
        self.0.new_window().snapshots
    }

    fn next_window(&mut self, ticks: usize, window: &mut SnapshotWindow) -> bool {
        self.0.fill(ticks, window)
    }
}

// ---------------------------------------------------------------------
// Routed workloads
// ---------------------------------------------------------------------

/// One event in a *routed* workload's per-link stream.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutedEvent {
    /// A measurement of the link: every crossing route's per-flow rates
    /// (route order) as this node measures them, folded around the
    /// first ([`fold_noisy`] with no pivot). The count is the link's
    /// occupancy.
    Measure {
        /// Absolute measurement time.
        t: f64,
        /// The measurement's moments. (The field keeps the name it had
        /// when a measurement carried every rate.)
        rates: SnapshotMoments,
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
    /// Standard deviation of the per-node measurement noise: each link
    /// measures every rate through its own `N(0, sd²)` error, clamped
    /// at zero. A link draws that noise as its effect on the fold
    /// ([`fold_noisy`]): its pivot flow and every flow below 13 σ — the
    /// only ones the clamp can reach, since the normal sampler never
    /// draws past 12.23 σ — draw their own, the rest two Gaussians and a
    /// χ² between them (every flow its own on a link with fewer than
    /// four others). 0 disables noise — and consumes no random numbers,
    /// preserving single-link bit-compatibility with [`RequestLoad`].
    pub noise_sd: f64,
    /// Base seed (the builder may override it).
    pub seed: u64,
}

impl RoutedLoadConfig {
    /// A [`RequestLoadConfig`]'s workload as [`RequestLoad`] generates
    /// it: [`Topology::one_hop_links`] of `capacity`, without noise.
    /// Panics if `cfg.links` is zero or `capacity` is not positive.
    pub fn one_hop_links(capacity: f64, cfg: &RequestLoadConfig) -> Self {
        RoutedLoadConfig {
            topology: Arc::new(Topology::one_hop_links(cfg.links, capacity)),
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
    /// tick, each route in turn asks `requests_per_tick` times. As long
    /// as the run, so it is held to [`MAX_WORKLOAD_ITEMS`] requests
    /// before it is allocated; a run generated in windows never needs
    /// it whole ([`RoutedWindow::request_routes`] is a window's slice).
    pub fn request_routes(&self) -> Result<Vec<RouteId>, ConfigError> {
        let requests = [self.topology.routes(), self.ticks, self.requests_per_tick];
        let requests = workload_count("requests", requests, MAX_WORKLOAD_ITEMS)?;
        let mut routes = Vec::with_capacity(requests as usize);
        for _ in 0..self.ticks {
            routes.extend(self.tick_requests());
        }
        Ok(routes)
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
        round_robin(&self.per_link)
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
        self.check_fields()?;
        self.require_ticks_fit(self.cfg.ticks, MAX_WORKLOAD_ITEMS)
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn replications(&self) -> usize {
        self.cfg.topology.routes()
    }

    fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> Vec<Box<[f64]>> {
        self.population(ctx).run(self.cfg.ticks, self.cfg.tick)
    }

    fn fold(&self, reps: Vec<Vec<Box<[f64]>>>) -> RoutedWorkload {
        let cfg = &self.cfg;
        let topo = &cfg.topology;
        let mut per_link: Vec<Vec<RoutedEvent>> = (0..topo.links())
            .map(|_| Vec::with_capacity(cfg.ticks * (1 + cfg.requests_per_tick)))
            .collect();
        let mut assembly = LinkAssembly::new(cfg);
        // Each route's snapshots in tick order, each dropped once its
        // tick is measured.
        let mut reps: Vec<_> = reps.into_iter().map(Vec::into_iter).collect();
        let mut seq = 0;
        for step in 1..=cfg.ticks {
            let now = step as f64 * cfg.tick;
            let tick: Vec<Box<[f64]>> = reps
                .iter_mut()
                .map(|rep| rep.next().expect("a snapshot a tick"))
                .collect();
            assembly.measure(
                cfg,
                topo.link_ids(),
                |route| &tick[route.index()],
                |link, rates| {
                    per_link[link.index()].push(RoutedEvent::Measure { t: now, rates });
                },
            );
            // Requests: one occurrence per hop, shared seq, emitted in
            // seq order on every link (the two-phase commit's
            // monotonicity invariant).
            for route in cfg.tick_requests() {
                for &hop in topo.route(route) {
                    per_link[hop.index()].push(RoutedEvent::Request { t: now, route, seq });
                }
                seq += 1;
            }
        }
        RoutedWorkload {
            topology: Arc::clone(topo),
            per_link,
            // Validated: a run holds more events than requests.
            request_routes: cfg.request_routes().expect("a validated run"),
        }
    }
}

/// Each link's noise stream, and the buffer a link's measurement is
/// assembled in.
struct LinkAssembly {
    noise: Vec<StdRng>,
    rates: Vec<f64>,
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
            rates: Vec::new(),
        }
    }

    /// Measures `links` at one tick, in their order, from the rates
    /// `rates_of` each route's population has there, and hands each
    /// measurement's fold to `each`: the link sees the union of its
    /// crossing routes' flows (correlated load, route order), through its
    /// own noise, folded around the first as it measures it.
    fn measure<'r>(
        &mut self,
        cfg: &RoutedLoadConfig,
        links: impl IntoIterator<Item = LinkId>,
        rates_of: impl Fn(RouteId) -> &'r [f64],
        mut each: impl FnMut(LinkId, SnapshotMoments),
    ) {
        let topo = &cfg.topology;
        for link in links {
            let noise = &mut self.noise[link.index()];
            let rates = match topo.crossings(link) {
                // One route's flows are measured where they lie.
                &[(route, _)] => rates_of(route),
                crossing => {
                    self.rates.clear();
                    for &(route, _) in crossing {
                        self.rates.extend_from_slice(rates_of(route));
                    }
                    &self.rates
                }
            };
            each(link, fold_noisy(rates, None, cfg.noise_sd, noise));
        }
    }
}

impl<'a> RoutedLoad<'a> {
    fn population(&self, ctx: &RepContext) -> Population<'a> {
        let cfg = &self.cfg;
        Population::new(self.model, cfg.flows_per_route, cfg.mean_holding, ctx)
    }

    /// Every check but the workload's size.
    fn check_fields(&self) -> Result<(), ConfigError> {
        let cfg = &self.cfg;
        cfg.topology.validate()?;
        if cfg.flows_per_route < 2 {
            return Err(ConfigError::TooFewFlows {
                got: cfg.flows_per_route,
            });
        }
        require_positive("ticks", cfg.ticks as f64)?;
        require_step("tick", cfg.tick)?;
        require_finite("run length (ticks × tick)", cfg.ticks as f64 * cfg.tick)?;
        require_positive("mean holding time", cfg.mean_holding)?;
        require_non_negative("noise standard deviation", cfg.noise_sd)?;
        require_finite("noise standard deviation", cfg.noise_sd)
    }

    /// Checks that `ticks` ticks of the run hold at most `max` events
    /// and at most `max` rate samples. A link holds one measurement a
    /// tick and one request occurrence per request of each route
    /// crossing it; its measurement, the flows of each of those routes.
    fn require_ticks_fit(&self, ticks: usize, max: u64) -> Result<(), ConfigError> {
        let cfg = &self.cfg;
        let (topo, hops) = (&cfg.topology, cfg.hops());
        let per_tick = cfg.requests_per_tick.saturating_add(1);
        workload_count("events", [hops.max(topo.links()), ticks, per_tick], max)?;
        workload_count("rate samples", [hops, ticks, cfg.flows_per_route], max)?;
        Ok(())
    }

    /// The run as successive windows, generated on `engine`: checks the
    /// configuration as a session would, except that the run is held to
    /// [`MAX_WORKLOAD_ITEMS`] one tick at a time and to
    /// [`MAX_RUN_ITEMS`] as a whole, and seeds every route's population
    /// on the stream a session gives its replication and every link's
    /// noise on the stream the fold gives it.
    pub fn windows(&self, engine: Engine) -> Result<RoutedWindows<'a>, ConfigError> {
        self.check_fields()?;
        self.require_ticks_fit(1, MAX_WORKLOAD_ITEMS)?;
        self.require_ticks_fit(self.cfg.ticks, MAX_RUN_ITEMS)?;
        let cfg = &self.cfg;
        let routes = cfg.topology.routes();
        let requests = [routes, cfg.ticks, cfg.requests_per_tick];
        let requests = workload_count("requests", requests, MAX_RUN_ITEMS)?;
        Ok(RoutedWindows {
            cfg: cfg.clone(),
            groups: independent_groups(&cfg.topology),
            routes: (0..routes)
                .map(|route| self.population(&RepContext::new(cfg.seed, route as u64, engine)))
                .collect(),
            rates: vec![Vec::new(); routes],
            assembly: LinkAssembly::new(cfg),
            requests,
            done: 0,
        })
    }
}

/// `topo`'s routes and links in groups that share no link (a link no
/// route crosses is a group of its own). Every route and link draws on
/// its own stream, so groups may be generated in any order, bit for bit.
fn independent_groups(topo: &Topology) -> Vec<(Vec<RouteId>, Vec<LinkId>)> {
    let mut grouped = vec![false; topo.links()];
    let mut route_seen = vec![false; topo.routes()];
    let mut groups = Vec::new();
    for first in topo.link_ids() {
        if grouped[first.index()] {
            continue;
        }
        grouped[first.index()] = true;
        let (mut routes, mut links) = (Vec::new(), vec![first]);
        let mut next = 0;
        while let Some(&link) = links.get(next) {
            next += 1;
            for &(route, _) in topo.crossings(link) {
                if std::mem::replace(&mut route_seen[route.index()], true) {
                    continue;
                }
                routes.push(route);
                for &hop in topo.route(route) {
                    if !std::mem::replace(&mut grouped[hop.index()], true) {
                        links.push(hop);
                    }
                }
            }
        }
        groups.push((routes, links));
    }
    groups
}

/// [`RoutedLoad`]'s run, a window at a time: the noise streams run on
/// from window to window.
pub struct RoutedWindows<'a> {
    cfg: RoutedLoadConfig,
    /// The routes and links in groups that share no link.
    groups: Vec<(Vec<RouteId>, Vec<LinkId>)>,
    routes: Vec<Population<'a>>,
    /// Each route's rates at the tick being assembled.
    rates: Vec<Vec<f64>>,
    assembly: LinkAssembly,
    requests: u64,
    /// Ticks generated so far.
    done: usize,
}

impl RoutedWindows<'_> {
    /// Writes the next `ticks` ticks (fewer at the end of the run) into
    /// `window`, as [`Windows::next_window`] does.
    fn fill(&mut self, ticks: usize, window: &mut SnapshotWindow) -> bool {
        let cfg = &self.cfg;
        assert_eq!(
            window.links(),
            cfg.topology.links(),
            "a window of another run"
        );
        let ticks = ticks.min(cfg.ticks - self.done);
        if ticks == 0 {
            return false;
        }
        window.reset(self.done + 1, ticks);
        // A link's measurement joins its routes' rates at one tick, so a
        // group's routes go from tick to tick together; groups share
        // nothing, so each takes its whole window in turn.
        for (routes, links) in &self.groups {
            for k in 0..ticks {
                let now = (self.done + 1 + k) as f64 * cfg.tick;
                for route in routes {
                    let r = route.index();
                    self.routes[r].step_to(now, &mut self.rates[r]);
                }
                let rates = &self.rates;
                self.assembly.measure(
                    cfg,
                    links.iter().copied(),
                    |route| &rates[route.index()],
                    |link, moments| *window.at(k, link.index()) = moments,
                );
            }
        }
        self.done += ticks;
        true
    }
}

impl Windows for RoutedWindows<'_> {
    type Workload = RoutedWindow;

    fn links(&self) -> usize {
        self.cfg.topology.links()
    }

    fn requests(&self) -> u64 {
        self.requests
    }

    fn new_window(&self) -> RoutedWindow {
        let cfg = &self.cfg;
        let links = cfg.topology.links();
        RoutedWindow {
            topology: Arc::clone(&cfg.topology),
            snapshots: SnapshotWindow::new(links, cfg.tick, cfg.requests_per_tick),
        }
    }

    fn next_window(&mut self, ticks: usize, window: &mut RoutedWindow) -> bool {
        self.fill(ticks, &mut window.snapshots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use mbac_core::estimators::fold_snapshot;
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
        // Links past the bound are refused before a topology that long
        // is built: one tick of 5·10⁷ links of 50 flows, and 2²⁸ links
        // with no requests, hold too many rate samples; links of one
        // flow are refused whatever their number.
        let many_links = |c: &mut RequestLoadConfig| {
            (c.links, c.flows_per_link, c.ticks, c.requests_per_tick) = (50_000_000, 50, 1, 4);
        };
        assert_eq!(validate(&many_links), too_large("rate samples"));
        assert_eq!(
            validate(
                &|c| (c.links, c.flows_per_link, c.ticks, c.requests_per_tick) = (1 << 28, 2, 1, 0)
            ),
            too_large("rate samples")
        );
        assert_eq!(
            validate(&|c| (c.links, c.flows_per_link, c.requests_per_tick) = (1 << 28, 1, 0)),
            Err(ConfigError::TooFewFlows { got: 1 })
        );
        assert_eq!(
            validate(&|c| (c.links, c.ticks) = (huge, 0)),
            too_large("events")
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
        assert_eq!(windows.links(), 32);
        let mut window = windows.new_window();
        assert!(windows.next_window(2, &mut window));
        assert_eq!((window.links(), window.ticks()), (32, 2));

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
        // `serve-bench --links 50000000` at 50 flows and 4 requests a
        // link: a tick's rate samples are past the bound, refused before
        // the links' topology is built, as are 2²⁸ links with no requests.
        let many_links = |c: &mut RequestLoadConfig| {
            (c.links, c.flows_per_link, c.requests_per_tick) = (50_000_000, 50, 4);
        };
        assert_eq!(windows(&many_links), too_large("rate samples").err());
        let idle_links = |c: &mut RequestLoadConfig| (c.links, c.requests_per_tick) = (1 << 28, 0);
        assert_eq!(windows(&idle_links), too_large("rate samples").err());
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
                    assert_eq!(rates.count(), 2 * 6, "two crossing routes of 6 flows");
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
    /// serve crate: a routed workload over one-hop links measures the
    /// folds of [`RequestLoad`]'s rates, bit for bit, and asks the same
    /// requests.
    #[test]
    fn single_link_routed_matches_request_load_bits() {
        let m = model();
        let legacy_cfg = config();
        let legacy = SessionBuilder::new()
            .run(&RequestLoad {
                model: &m,
                cfg: legacy_cfg.clone(),
            })
            .unwrap();
        let routed = SessionBuilder::new()
            .run(&RoutedLoad {
                model: &m,
                cfg: RoutedLoadConfig::one_hop_links(8.0, &legacy_cfg),
            })
            .unwrap();
        assert_eq!(routed.links(), legacy.links());
        for link in legacy.link_ids() {
            let (legacy_evs, routed_evs) = (legacy.events(link), routed.events(link));
            assert_eq!(legacy_evs.len(), routed_evs.len());
            for (l, r) in legacy_evs.iter().zip(routed_evs) {
                match (l, r) {
                    (
                        LinkEvent::Measure { t: lt, rates: lr },
                        RoutedEvent::Measure { t: rt, rates: rr },
                    ) => {
                        assert_eq!(lt.to_bits(), rt.to_bits());
                        let legacy = fold_snapshot(lr, None);
                        assert_eq!(format!("{legacy:?}"), format!("{rr:?}"), "bits diverged");
                    }
                    (LinkEvent::Request { t: lt }, RoutedEvent::Request { t: rt, route, .. }) => {
                        assert_eq!(lt.to_bits(), rt.to_bits());
                        assert_eq!(route.0, link.0);
                    }
                    other => panic!("event kind mismatch: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn routed_bad_configs_are_rejected() {
        let m = model();
        let mut cfg = routed_config(Topology::one_hop_links(1, 8.0));
        cfg.noise_sd = -0.1;
        assert!(matches!(
            RoutedLoad { model: &m, cfg }.validate(),
            Err(ConfigError::Negative { .. })
        ));
        let mut cfg = routed_config(Topology::one_hop_links(1, 8.0));
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

    /// A routed run generated in windows is held to the bound a tick at
    /// a time as well, and to `MAX_RUN_ITEMS` over the run; the map of
    /// its requests, as long as the run, is held to the bound as a
    /// whole before it is allocated.
    #[test]
    fn routed_windows_hold_the_bound_a_tick_at_a_time() {
        let m = model();
        let load = |ticks| RoutedLoad {
            model: &m,
            cfg: RoutedLoadConfig {
                ticks,
                requests_per_tick: 1,
                flows_per_route: 2,
                ..routed_config(Topology::parking_lot(3, 8.0))
            },
        };
        // Four routes ask once a tick: one request past the bound.
        let long = load((MAX_WORKLOAD_ITEMS / 4) as usize + 1);
        assert_eq!(long.validate(), too_large("events"));
        assert_eq!(long.cfg.request_routes().err(), too_large("requests").err());
        let mut windows = long.windows(Engine::Batched).unwrap();
        assert_eq!(windows.requests(), MAX_WORKLOAD_ITEMS + 4);
        let mut window = windows.new_window();
        assert!(windows.next_window(2, &mut window));
        assert_eq!(window.snapshots().ticks(), 2);
        let past_the_run = Some(ConfigError::WorkloadTooLarge {
            what: "events",
            max: MAX_RUN_ITEMS,
        });
        assert_eq!(
            load(usize::MAX).windows(Engine::Batched).err(),
            past_the_run
        );
    }

    // -- windows ---------------------------------------------------------

    /// Links 0 and 1 shared by routes 0 and 1, links 2 and 3 by route
    /// 2 alone, and link 4 crossed by none.
    fn two_groups_and_a_stray_link() -> Topology {
        let hops = |links: &[u32]| links.iter().map(|&l| LinkId(l)).collect();
        let routes = vec![hops(&[0, 1]), hops(&[1]), hops(&[3, 2])];
        Topology::new(vec![8.0; 5], routes).unwrap()
    }

    /// A group holds every route crossing any of its links, and every
    /// link those routes cross.
    #[test]
    fn groups_share_no_link() {
        let ids = |ids: &[u32]| ids.to_vec();
        let groups = |topo: &Topology| -> Vec<(Vec<u32>, Vec<u32>)> {
            let raw = |(routes, links): (Vec<RouteId>, Vec<LinkId>)| {
                let routes = routes.iter().map(|r| r.0).collect();
                (routes, links.iter().map(|l| l.0).collect())
            };
            independent_groups(topo).into_iter().map(raw).collect()
        };
        assert_eq!(
            groups(&Topology::one_hop_links(3, 8.0)),
            [
                (ids(&[0]), ids(&[0])),
                (ids(&[1]), ids(&[1])),
                (ids(&[2]), ids(&[2]))
            ]
        );
        assert_eq!(
            groups(&Topology::parking_lot(3, 8.0)),
            [(ids(&[0, 1, 2, 3]), ids(&[0, 1, 2]))]
        );
        assert_eq!(
            groups(&Topology::star(2, 8.0)),
            [(ids(&[0, 1]), ids(&[0, 1, 2]))]
        );
        assert_eq!(
            groups(&two_groups_and_a_stray_link()),
            [
                (ids(&[0, 1]), ids(&[0, 1])),
                (ids(&[2]), ids(&[2, 3])),
                (ids(&[]), ids(&[4]))
            ]
        );
    }

    /// A link's `(t bits, snapshot)` per tick.
    type Snapshots = Vec<Vec<(u64, SnapshotMoments)>>;

    /// Every link's snapshots over a run generated `window` ticks at a
    /// time, end to end, with how many windows that took; `each` sees
    /// every window.
    fn end_to_end<G: Windows>(
        mut windows: G,
        window: usize,
        snapshots: impl Fn(&G::Workload) -> &SnapshotWindow,
        mut each: impl FnMut(&G::Workload),
    ) -> (Snapshots, usize) {
        let mut per_link = vec![Vec::new(); windows.links()];
        let mut count = 0;
        let mut w = windows.new_window();
        while windows.next_window(window, &mut w) {
            for (link, _, t, moments) in snapshots(&w).measurements() {
                per_link[link.index()].push((t.to_bits(), moments));
            }
            each(&w);
            count += 1;
        }
        (per_link, count)
    }

    /// What a window of `events` must hold: each `Measure`'s `t` and its
    /// rates folded by the generator's rule.
    fn folded(events: &[LinkEvent]) -> Vec<(u64, SnapshotMoments)> {
        let fold = |e: &LinkEvent| match e {
            LinkEvent::Measure { t, rates } => Some((t.to_bits(), fold_snapshot(rates, None))),
            LinkEvent::Request { .. } => None,
        };
        events.iter().filter_map(fold).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A link's snapshots, window after window, are its `Measure`s
        /// in the materialised workload — the rates folded around their
        /// first rate, or a routed link's fold itself — every bit, at
        /// the materialised `t`, for windows of one tick, of a few, of
        /// the whole run and longer than it, on both engines, three
        /// topologies and with and without noise; and a routed window's
        /// `seq` names the run's requests in order.
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
                let measures: Snapshots =
                    whole.link_ids().map(|link| folded(whole.events(link))).collect();
                for window in [1, 7, ticks, ticks + 5] {
                    let windows = load.windows(engine).unwrap();
                    prop_assert_eq!(windows.links(), 3);
                    let (per_link, count) = end_to_end(windows, window, |w| w, |_| {});
                    prop_assert_eq!(count, ticks.div_ceil(window));
                    prop_assert_eq!(&per_link, &measures);
                }
                let shapes = [
                    Topology::one_hop_links(1, 8.0),
                    Topology::parking_lot(3, 8.0),
                    Topology::star(3, 8.0),
                    two_groups_and_a_stray_link(),
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
                        prop_assert_eq!(&load.cfg.request_routes().unwrap()[..], whole.request_routes());
                        let measures: Snapshots = topology
                            .link_ids()
                            .map(|link| {
                                let measure = |e: &RoutedEvent| match e {
                                    RoutedEvent::Measure { t, rates } => Some((t.to_bits(), *rates)),
                                    RoutedEvent::Request { .. } => None,
                                };
                                whole.events(link).iter().filter_map(measure).collect()
                            })
                            .collect();
                        let run: Vec<(u64, RouteId)> =
                            (0u64..).zip(whole.request_routes().iter().copied()).collect();
                        for window in [1, 7, ticks, ticks + 5] {
                            let windows = load.windows(engine).unwrap();
                            let mut requests = Vec::new();
                            let (per_link, _) = end_to_end(
                                windows,
                                window,
                                RoutedWindow::snapshots,
                                |w| {
                                    let first = w.snapshots().measurements().next();
                                    let first = first.map_or(0, |(_, step, ..)| step);
                                    for step in first..first + w.snapshots().ticks() {
                                        for route in topology.route_ids() {
                                            for k in 0..requests_per_tick {
                                                requests.push((w.seq(step, route, k), route));
                                            }
                                        }
                                    }
                                },
                            );
                            prop_assert_eq!(&per_link, &measures);
                            prop_assert_eq!(&requests, &run);
                        }
                    }
                }
            }
        }
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
                assert_eq!(ra.count(), rb.count());
                any_diff |= ra.sum() != rb.sum();
            }
        }
        assert!(any_diff, "independent per-node noise must decorrelate");
    }
}
