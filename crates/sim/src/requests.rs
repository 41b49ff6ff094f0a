//! Scenario-as-request-stream adapter: replays the simulator's traffic
//! models as a *decision-plane workload*.
//!
//! The serve crate needs realistic admission traffic — links whose
//! measured load evolves like the paper's RCBR/AR(1)/trace sources,
//! interleaved with admission requests. One generator makes it:
//! [`RoutedLoad`] runs one population per *route* of a [`Topology`],
//! each exactly `flows_per_route` flows held for exponential times and
//! replaced as they leave, and measures a link as the fold of every
//! crossing route's flows (shared flows ⇒ correlated load) as its node
//! sees them, through its own noise ([`RoutedLoadConfig::noise_sd`]).
//! An admission request on an `h`-hop route is one hop occurrence on
//! *each* hop link, all carrying the same global sequence number for the
//! plane's two-phase commit.
//!
//! [`RequestLoad`] is the paper's single link, `links` times over: the
//! same generator on `links` disjoint one-hop routes without noise
//! ([`RoutedLoadConfig::one_hop_links`]).
//!
//! A run is **bit-identical for any worker count**, kernel or boxed:
//! every route draws on the stream a session would give its
//! replication (`rep_seed`), and every link's noise on its own.
//!
//! # Windows
//!
//! A run is generated a window of ticks at a time
//! ([`RoutedLoad::windows`], and [`RequestLoad::windows`] over its
//! one-hop routes; [`Windows::next_window`]) into a window the caller
//! owns. A window is **compact**: one [`SnapshotMoments`] per
//! (tick, link) — the link's measurement folded where it is generated,
//! while its rates are still in cache, around its first rate
//! ([`fold_noisy`] with no pivot: the producer cannot know the
//! consumer's estimate) — and the step of its first tick. It holds no
//! request: a request's `t`, `route` and `seq` are functions of its
//! tick, the topology and `requests_per_tick` ([`RoutedWindow::seq`]),
//! so the replay synthesises them, and a decision plane sizes its route
//! table to the window's slice of the run's seq → route map
//! ([`RoutedWindow::request_routes`]). Times, `seq`, every population
//! and every noise stream run on across windows, so any cut of a run
//! into windows makes the same bits — a whole run as one window too,
//! which is how a caller holds it. A run's materialised form, per-link
//! event streams, lives in [`crate::compat`] for the benchmark and the
//! tests: its windows laid end to end.
//!
//! # Ordering contract
//!
//! The scientific content of a run is **per-link order**: each link's
//! interleaving of measurements and requests is what the controller's
//! decision sequence depends on. Cross-link order is deliberately
//! unspecified — the decision plane is free to interleave links (that
//! is the point of sharding). A window is replayed tick by tick and,
//! within a tick, request by request: every link's measurement, then the
//! tick's requests in `seq` order, each one's hop occurrences back to
//! back from hop 0. Each link sees its measurement and then its requests
//! in `seq` order, whatever the order across links. Routed runs add the
//! guarantee the two-phase commit relies on: each link's hop
//! occurrences are strictly increasing in `seq`, and every hop's
//! occurrence of one request lies in the same tick, hence the same
//! window — no reserve waits past a window's end, and a window's route
//! table holds no request of another window.

#[doc(hidden)]
pub use crate::compat::{LinkEvent, RoutedEvent, RoutedWorkload, ServeWorkload};
use crate::session::{
    rep_seed, require_finite, require_non_negative, require_positive, require_step, ConfigError,
    RepContext,
};
use mbac_core::topology::{LinkId, RouteId, Topology};
use mbac_num::rng::ExpSampler;
use mbac_num::{fold_noisy, SnapshotMoments};
use mbac_traffic::batch::{DynBatch, FlowBatch};
use mbac_traffic::process::SourceModel;
use mbac_traffic::rcbr::thin;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

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

/// The most items a workload may hold at once: events, snapshots or
/// route-table requests, and the rate samples of one tick. Each is
/// sized up front from the configuration: past this bound the items
/// take gigabytes and their allocation aborts the process, or the size
/// does not fit a `usize` at all, where a configuration error is owed.
/// A run generated in [`Windows`] holds one window at a time, so it is
/// held to this bound one tick at a time (a window is at least one
/// tick) and to [`MAX_RUN_ITEMS`] over the run; a caller that holds a
/// whole run as one window holds what it keeps of it to this bound.
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
pub fn workload_count<const N: usize>(
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

/// One route's flow population, taken from tick to tick: exactly
/// `flows` flows, each held for an exponential time and replaced by a
/// fresh one when it leaves. A hold is memoryless, so no flow keeps a
/// departure time: in each tick every flow leaves independently with
/// probability `1 − e^{−dt/T_h}`, whatever its rate and history, which
/// is one [`thin`] walk over the slots. The exact sequence of batch/RNG
/// operations is the compatibility contract: a run must consume the
/// identical random streams however its windows are cut, and so produce
/// its bits.
struct Population<'a> {
    model: &'a dyn SourceModel,
    mean_holding: f64,
    rng: StdRng,
    /// The model's kernel, or a [`DynBatch`] of its boxed flows when it
    /// has none.
    batch: Box<dyn FlowBatch>,
    /// Whether `batch` is the [`DynBatch`], whose flows are spawned boxed.
    boxed: bool,
    /// The slots leaving at the tick being taken, ascending.
    leaving: Vec<usize>,
}

impl<'a> Population<'a> {
    /// `flows` fresh flows on `ctx`'s stream.
    fn new(model: &'a dyn SourceModel, flows: usize, mean_holding: f64, ctx: &RepContext) -> Self {
        let (batch, boxed) = match model.new_batch() {
            Some(batch) => (batch, false),
            None => (Box::new(DynBatch::new()) as Box<dyn FlowBatch>, true),
        };
        let mut population = Population {
            model,
            mean_holding,
            rng: ctx.rng(),
            batch,
            boxed,
            leaving: Vec::new(),
        };
        population.spawn(flows);
        population
    }

    /// Spawns `n` fresh flows at the end of the batch, drawing what `n`
    /// calls of [`SourceModel::spawn`] draw.
    fn spawn(&mut self, n: usize) {
        if self.boxed {
            for _ in 0..n {
                let flow = self.model.spawn(&mut self.rng);
                let pushed = self.batch.try_push_boxed(flow);
                pushed.ok().expect("a DynBatch adopts boxed flows");
            }
        } else {
            self.batch.spawn(n, &mut self.rng);
        }
    }

    /// Takes the population a tick of `dt` on: advances every flow, then
    /// the flows whose holds end within the tick leave, each by
    /// `swap_remove`, and as many fresh ones are spawned. Returns how
    /// many left.
    fn step(&mut self, dt: f64) -> usize {
        self.batch.advance_all(dt, &mut self.rng);
        let leaving = &mut self.leaving;
        let (len, exp) = (self.batch.len(), ExpSampler::get());
        // On a copy of the stream, as the kernels walk (`thin`'s docs).
        let rng = self.rng.clone();
        self.rng = thin(len, dt, self.mean_holding, exp, rng, |i, _| leaving.push(i));
        // From the last slot down: each swap brings in a flow that stays.
        for &i in self.leaving.iter().rev() {
            self.batch.swap_remove(i);
        }
        let left = self.leaving.len();
        self.leaving.clear();
        self.spawn(left);
        left
    }

    /// The flows' rates, in slot order.
    fn rates(&self) -> &[f64] {
        self.batch.rates()
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

    /// The events a tick of the run holds: each link's measurement, and
    /// each request's occurrence on every hop of its route.
    fn tick_events(&self) -> usize;

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
    /// link order: each one's link, run-global step, time and snapshot.
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
    /// each route in turn asks `requests_per_tick` times.
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
        (0..self.snapshots.ticks()).flat_map(move |_| tick_routes(&self.topology, asks))
    }
}

/// The routes of one tick's requests, in `seq` order: each route in
/// turn asks `asks` times.
pub(crate) fn tick_routes(topology: &Topology, asks: usize) -> impl Iterator<Item = RouteId> + '_ {
    topology
        .route_ids()
        .flat_map(move |route| std::iter::repeat_n(route, asks))
}

/// The single-link request stream: `cfg.links` disjoint one-hop routes
/// of a [`RoutedLoad`] without noise, route `r` generating link `r`'s
/// measurements from the source model's traffic.
pub struct RequestLoad<'a> {
    /// The per-flow traffic model (RCBR, AR(1), trace, …).
    pub model: &'a dyn SourceModel,
    /// Workload shape.
    pub cfg: RequestLoadConfig,
}

impl<'a> RequestLoad<'a> {
    /// The run as [`RoutedLoad`] generates it. Its topology is a route
    /// per link, so the links are held to what sizes the run before a
    /// topology that long is built: at least two flows each, and
    /// `ticks` ticks (one at least) within `max` events and `max` rate
    /// samples.
    pub(crate) fn routed(&self, ticks: usize, max: u64) -> Result<RoutedLoad<'a>, ConfigError> {
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

    /// The run as successive windows: checks the configuration as
    /// [`RoutedLoad::windows`] does.
    pub fn windows(&self) -> Result<RequestWindows<'a>, ConfigError> {
        let routed = self.routed(1, MAX_WORKLOAD_ITEMS)?;
        Ok(RequestWindows(routed.windows()?))
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

    fn tick_events(&self) -> usize {
        self.0.tick_events()
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

    /// Hop occurrences over all routes: how many (route, link) pairs
    /// contribute a route's flows to a link's measurement.
    fn hops(&self) -> usize {
        let topo = &self.topology;
        topo.route_ids().map(|r| topo.route(r).len()).sum()
    }
}

/// Salt deriving the per-node noise streams from the workload seed
/// (disjoint from the per-route replication streams, which use the
/// session's `rep_seed` derivation).
const NOISE_STREAM_SALT: u64 = 0x6E65_745F_6C69_6E6B; // "net_link"

/// The routed request stream: route `r`'s flow population on the
/// stream a session gives replication `r`, every link measuring its
/// routes' flows (correlated load) through its own noise, generated a
/// window at a time ([`RoutedLoad::windows`]).
pub struct RoutedLoad<'a> {
    /// The per-flow traffic model (RCBR, AR(1), trace, …).
    pub model: &'a dyn SourceModel,
    /// Workload shape.
    pub cfg: RoutedLoadConfig,
}

/// Each link's noise stream, and the room a link's crossing routes'
/// rates are gathered in.
struct LinkAssembly {
    noise: Vec<StdRng>,
    /// Empty between measurements: a link's parts live for one tick.
    parts: Vec<&'static [f64]>,
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
            parts: Vec::new(),
        }
    }

    /// Measures `links` at one tick, in their order, from each route's
    /// population there (`routes[r]`), and hands each measurement's fold
    /// to `each`: the link sees the union of its crossing routes' flows
    /// (correlated load, route order), through its own noise, folded
    /// around the first as it measures it, each route's rates where
    /// they lie.
    fn measure(
        &mut self,
        cfg: &RoutedLoadConfig,
        links: &[LinkId],
        routes: &[Population],
        mut each: impl FnMut(LinkId, SnapshotMoments),
    ) {
        let mut parts = recycle(std::mem::take(&mut self.parts));
        for &link in links {
            let crossing = cfg.topology.crossings(link);
            parts.extend(
                crossing
                    .iter()
                    .map(|&(route, _)| routes[route.index()].rates()),
            );
            let noise = &mut self.noise[link.index()];
            each(link, fold_noisy(&parts, None, cfg.noise_sd, noise));
            parts.clear();
        }
        self.parts = recycle(parts);
    }
}

/// `parts`' room, emptied, for slices of another lifetime: collecting
/// an empty vector's iterator into one of a type of the same layout
/// keeps its allocation, so a tick gathers its links' parts without
/// allocating.
fn recycle<'a>(mut parts: Vec<&[f64]>) -> Vec<&'a [f64]> {
    parts.clear();
    parts.into_iter().map(|_| unreachable!()).collect()
}

impl<'a> RoutedLoad<'a> {
    /// The run's generator: route `r`'s population seeded on `routes`'
    /// `r`-th context, every link's noise on its own stream.
    pub(crate) fn generator(
        &self,
        routes: impl IntoIterator<Item = RepContext>,
    ) -> RoutedWindows<'a> {
        let cfg = &self.cfg;
        let population =
            |ctx| Population::new(self.model, cfg.flows_per_route, cfg.mean_holding, &ctx);
        RoutedWindows {
            cfg: cfg.clone(),
            groups: independent_groups(&cfg.topology),
            routes: routes.into_iter().map(population).collect(),
            assembly: LinkAssembly::new(cfg),
            done: 0,
        }
    }

    /// Every check but the workload's size.
    pub(crate) fn check_fields(&self) -> Result<(), ConfigError> {
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
    pub(crate) fn require_ticks_fit(&self, ticks: usize, max: u64) -> Result<(), ConfigError> {
        let cfg = &self.cfg;
        let (topo, hops) = (&cfg.topology, cfg.hops());
        let per_tick = cfg.requests_per_tick.saturating_add(1);
        workload_count("events", [hops.max(topo.links()), ticks, per_tick], max)?;
        workload_count("rate samples", [hops, ticks, cfg.flows_per_route], max)?;
        Ok(())
    }

    /// The run as successive windows: checks every field, holds the
    /// run to [`MAX_WORKLOAD_ITEMS`] one tick at a time and to
    /// [`MAX_RUN_ITEMS`] as a whole, and seeds every route's population
    /// on the stream a session would give its replication.
    pub fn windows(&self) -> Result<RoutedWindows<'a>, ConfigError> {
        self.check_fields()?;
        self.require_ticks_fit(1, MAX_WORKLOAD_ITEMS)?;
        self.require_ticks_fit(self.cfg.ticks, MAX_RUN_ITEMS)?;
        let cfg = &self.cfg;
        let routes = cfg.topology.routes();
        workload_count(
            "requests",
            [routes, cfg.ticks, cfg.requests_per_tick],
            MAX_RUN_ITEMS,
        )?;
        let contexts = (0..routes as u64).map(|route| RepContext::new(cfg.seed, route));
        Ok(self.generator(contexts))
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
    assembly: LinkAssembly,
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
                for route in routes {
                    self.routes[route.index()].step(cfg.tick);
                }
                self.assembly
                    .measure(cfg, links, &self.routes, |link, moments| {
                        *window.at(k, link.index()) = moments
                    });
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
        // Held to MAX_RUN_ITEMS where the generator is built.
        let cfg = &self.cfg;
        (cfg.topology.routes() * cfg.ticks * cfg.requests_per_tick) as u64
    }

    fn tick_events(&self) -> usize {
        let cfg = &self.cfg;
        cfg.topology.links() + cfg.hops() * cfg.requests_per_tick
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
    use crate::session::{Scenario, SessionBuilder};
    use mbac_traffic::process::Unbatched;
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
        // Stored: a measurement per link and tick, a request per tick.
        assert_eq!((w.measures.len(), w.requests.len()), (3 * 20, 20));
        for link in w.link_ids() {
            assert_eq!(w.events(link).count(), 20 * 3);
            // Per-link pattern: Measure, then requests_per_tick Requests.
            for (i, e) in w.events(link).enumerate() {
                match i % 3 {
                    0 => assert!(matches!(e, LinkEvent::Measure { .. })),
                    _ => assert!(matches!(e, LinkEvent::Request { .. })),
                }
            }
            // Occupancy is topped up to the target every tick.
            for e in w.events(link) {
                if let LinkEvent::Measure { rates, .. } = e {
                    assert_eq!(rates.count(), 8);
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
        let hidden = Unbatched(&m);
        let boxed = SessionBuilder::new()
            .run(&RequestLoad {
                model: &hidden,
                cfg: config(),
            })
            .unwrap();
        assert_eq!(boxed, reference, "the boxed path diverged");
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
            let own: Vec<&LinkEvent> = w.events(link).collect();
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
        let mut windows = long.windows().unwrap();
        assert_eq!(windows.requests(), 32 * 300_000 * 32);
        assert_eq!(windows.links(), 32);
        let mut window = windows.new_window();
        assert!(windows.next_window(2, &mut window));
        assert_eq!((window.links(), window.ticks()), (32, 2));

        let windows = |edit: &dyn Fn(&mut RequestLoadConfig)| load(edit).windows().err();
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
        let hidden = Unbatched(&m);
        let boxed = SessionBuilder::new()
            .run(&RoutedLoad {
                model: &hidden,
                cfg: routed_config(Topology::star(4, 8.0)),
            })
            .unwrap();
        assert_eq!(boxed, reference, "the boxed path diverged");
    }

    /// Folds `w`'s bytes into the FNV-1a hash `h`.
    fn word(h: &mut u64, w: u64) {
        for byte in w.to_le_bytes() {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a measurement's moments into `h`: Debug prints each f64
    /// shortest-round-trip, so its bytes are the moments' bits.
    fn moments_word(h: &mut u64, moments: &SnapshotMoments) {
        for byte in format!("{moments:?}").bytes() {
            word(h, u64::from(byte));
        }
    }

    /// The materialised single-link workload, every bit: its event and
    /// request totals, then in canonical order each event's link, each
    /// measurement's time and moments and each request's time, hashed
    /// (FNV-1a) at two shapes, each model on its kernel and not. A change
    /// to how a single-link run is generated or stored must pass it
    /// unchanged; the decisions that read it are pinned in `mbac-serve`.
    #[test]
    fn request_workload_bits_are_pinned() {
        let m = model();
        let hidden = Unbatched(&m);
        let long = RequestLoadConfig {
            links: 6,
            ticks: 400,
            requests_per_tick: 8,
            ..config()
        };
        let cases = [
            (config(), 0x6cf8_846e_ec66_45fd_u64),
            (long, 0xd18c_05cf_383d_128a),
        ];
        for (cfg, pinned) in cases {
            for m in [&m as &dyn SourceModel, &hidden] {
                let load = RequestLoad {
                    model: m,
                    cfg: cfg.clone(),
                };
                let w = SessionBuilder::new().run(&load).unwrap();
                let mut h = 0xcbf2_9ce4_8422_2325;
                word(&mut h, w.total_events() as u64);
                word(&mut h, w.total_requests() as u64);
                for (link, event) in w.canonical_events() {
                    word(&mut h, link.as_u64());
                    match event {
                        LinkEvent::Measure { t, rates } => {
                            word(&mut h, t.to_bits());
                            moments_word(&mut h, rates);
                        }
                        LinkEvent::Request { t } => word(&mut h, t.to_bits()),
                    }
                }
                assert_eq!(h, pinned, "{} links: {h:#018x}", cfg.links);
            }
        }
    }

    /// The materialised routed workload, every bit: each link's
    /// measurement times and moments, each request occurrence's route and
    /// `seq`, in canonical order, and the seq → route map, hashed (FNV-1a)
    /// on a parking lot and a star, with and without per-node noise. A
    /// change to how a routed run is generated must pass it unchanged;
    /// the decisions that read it are pinned in `mbac-serve`.
    #[test]
    fn routed_workload_bits_are_pinned() {
        let m = model();
        let cases = [
            ("parking-lot:3", 0.0, 0x8b25_a09c_e063_fea4_u64),
            ("parking-lot:3", 0.05, 0x0ddb_4c86_60fb_ff07),
            ("star:3", 0.0, 0xf181_f8b1_2794_24b3),
            ("star:3", 0.05, 0xf5c5_8685_3e48_2745),
        ];
        for (shape, noise_sd, pinned) in cases {
            let topology = match shape {
                "parking-lot:3" => Topology::parking_lot(3, 8.0),
                _ => Topology::star(3, 8.0),
            };
            let cfg = RoutedLoadConfig {
                ticks: 40,
                noise_sd,
                ..routed_config(topology)
            };
            let w = SessionBuilder::new()
                .run(&RoutedLoad { model: &m, cfg })
                .unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325;
            for (link, event) in w.canonical_events() {
                word(&mut h, link.as_u64());
                match event {
                    RoutedEvent::Measure { t, rates } => {
                        word(&mut h, t.to_bits());
                        moments_word(&mut h, rates);
                    }
                    RoutedEvent::Request { t, route, seq } => {
                        word(&mut h, t.to_bits());
                        word(&mut h, route.index() as u64);
                        word(&mut h, *seq);
                    }
                }
            }
            for route in w.request_routes() {
                word(&mut h, route.index() as u64);
            }
            assert_eq!(h, pinned, "{shape}, noise {noise_sd}: {h:#018x}");
        }
    }

    /// The compatibility contract satellite-tested end-to-end in the
    /// serve crate: a routed workload over one-hop links measures
    /// [`RequestLoad`]'s moments, bit for bit, and asks the same
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
            let routed_evs = routed.events(link);
            assert_eq!(legacy.events(link).count(), routed_evs.len());
            for (l, r) in legacy.events(link).zip(routed_evs) {
                match (l, r) {
                    (
                        LinkEvent::Measure { t: lt, rates: lr },
                        RoutedEvent::Measure { t: rt, rates: rr },
                    ) => {
                        assert_eq!(lt.to_bits(), rt.to_bits());
                        assert_eq!(format!("{lr:?}"), format!("{rr:?}"), "bits diverged");
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
        let mut windows = long.windows().unwrap();
        assert_eq!(windows.requests(), MAX_WORKLOAD_ITEMS + 4);
        let mut window = windows.new_window();
        assert!(windows.next_window(2, &mut window));
        assert_eq!(window.snapshots().ticks(), 2);
        let past_the_run = Some(ConfigError::WorkloadTooLarge {
            what: "events",
            max: MAX_RUN_ITEMS,
        });
        assert_eq!(load(usize::MAX).windows().err(), past_the_run);
    }

    /// A route holds exactly its flows at every tick, kernel or boxed,
    /// and a tick replaces `flows · (1 − e^{−dt/T_h})` of them on
    /// average, whether thinning walks the gaps (`dt/T_h = 0.1`) or
    /// decides coins (`1`, inside its band).
    #[test]
    fn a_population_replaces_its_leavers_at_the_holding_rate() {
        let m = model();
        let hidden = Unbatched(&m);
        let (flows, hold, ticks) = (50, 5.0, 4_000);
        for dt in [0.5, 5.0] {
            for model in [&m as &dyn SourceModel, &hidden] {
                let mut population = Population::new(model, flows, hold, &RepContext::new(3, 0));
                let mut replaced = 0;
                for _ in 0..ticks {
                    replaced += population.step(dt);
                    assert_eq!(population.rates().len(), flows);
                }
                let p = -(-dt / hold).exp_m1();
                let (mean, var) = (flows as f64 * p, flows as f64 * p * (1.0 - p));
                let per_tick = replaced as f64 / ticks as f64;
                let se = (var / ticks as f64).sqrt();
                assert!(
                    (per_tick - mean).abs() <= 4.0 * se,
                    "dt {dt}: {per_tick} replaced a tick, expected {mean} (se {se})"
                );
            }
        }
    }

    /// A route above one lane advances lane by lane, on the pool when
    /// that pays, and thins its leavers over the whole batch: its run is
    /// the same bits at any worker count, kernel or boxed.
    #[test]
    fn a_population_above_one_lane_is_worker_invariant() {
        let m = model();
        let hidden = Unbatched(&m);
        let cfg = RoutedLoadConfig {
            flows_per_route: 3 * mbac_traffic::batch::LANE + 17,
            ticks: 3,
            ..routed_config(Topology::parking_lot(2, 8.0))
        };
        let run = |model: &dyn SourceModel, workers| {
            let load = RoutedLoad {
                model,
                cfg: cfg.clone(),
            };
            SessionBuilder::new().workers(workers).run(&load).unwrap()
        };
        let reference = run(&m, 1);
        for workers in [2, 4] {
            assert_eq!(run(&m, workers), reference, "{workers} workers");
        }
        assert_eq!(run(&hidden, 2), reference, "the boxed path diverged");
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
    /// moments.
    fn measured<'e>(events: impl Iterator<Item = &'e LinkEvent>) -> Vec<(u64, SnapshotMoments)> {
        let measure = |e: &LinkEvent| match e {
            LinkEvent::Measure { t, rates } => Some((t.to_bits(), *rates)),
            LinkEvent::Request { .. } => None,
        };
        events.filter_map(measure).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A link's snapshots, window after window, are its `Measure`s
        /// in the materialised workload, every bit, at
        /// the materialised `t`, for windows of one tick, of a few, of
        /// the whole run and longer than it, kernel or boxed, three
        /// topologies and with and without noise; a routed window's
        /// `seq` names the run's requests in order; and a tick holds the
        /// run's events over its ticks.
        #[test]
        fn windows_end_to_end_are_the_materialised_workload(
            seed in 0u64..1_000_000,
            ticks in 1usize..20,
            flows in 2usize..8,
            requests_per_tick in 0usize..4,
        ) {
            let m = model();
            let hidden = Unbatched(&m);
            for m in [&m as &dyn SourceModel, &hidden] {
                let cfg = RequestLoadConfig {
                    links: 3,
                    flows_per_link: flows,
                    ticks,
                    requests_per_tick,
                    seed,
                    ..config()
                };
                let load = RequestLoad { model: m, cfg };
                let whole = SessionBuilder::new().run(&load).unwrap();
                let measures: Snapshots =
                    whole.link_ids().map(|link| measured(whole.events(link))).collect();
                let tick_events = load.windows().unwrap().tick_events();
                prop_assert_eq!(tick_events * ticks, whole.total_events());
                for window in [1, 7, ticks, ticks + 5] {
                    let windows = load.windows().unwrap();
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
                        let load = RoutedLoad { model: m, cfg };
                        let whole = SessionBuilder::new().run(&load).unwrap();
                        prop_assert_eq!(&load.cfg.request_routes().unwrap()[..], whole.request_routes());
                        let tick_events = load.windows().unwrap().tick_events();
                        prop_assert_eq!(tick_events * ticks, whole.total_events());
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
                            let windows = load.windows().unwrap();
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
