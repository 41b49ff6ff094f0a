//! Adapters kept for the names the frozen `benchmark/` binds; nothing
//! else calls them.
//!
//! The engine knob selects nothing: the boxed path is a property of the
//! model ([`mbac_traffic::process::Unbatched`]), so `Engine::table` is
//! [`FlowTable::new`] for either variant and [`SessionBuilder::engine`]
//! returns the builder unchanged; every engine observes moments, so
//! `supports_moments` is `true`. The next `benchmark` change deletes
//! them with `probe.boxed_over_batched`, which now times a batched table
//! against itself.
//!
//! The materialised serve workloads, [`ServeWorkload`] and
//! [`RoutedWorkload`], are a session's run of [`RequestLoad`] or
//! [`RoutedLoad`]: the generator's windows laid end to end, stored as
//! per-link events ([`LinkEvent`], [`RoutedEvent`]) and merged
//! round-robin by `canonical_events`, with the run's seq → route map
//! ([`RoutedLoadConfig::request_routes`]). `mbac-serve` replays a run as
//! windows; the benchmark's replicas, and the tests that hold the
//! windows to a second, independent order, replay these.

use crate::controller::AdmissionEngine;
use crate::flows::FlowTable;
use crate::requests::{
    workload_count, RequestLoad, RoutedLoad, RoutedLoadConfig, RoutedWindows, Windows,
    MAX_WORKLOAD_ITEMS,
};
use crate::session::{ConfigError, RepContext, Scenario, SessionBuilder};
use crate::telemetry::MetricsSink;
use mbac_core::topology::{LinkId, RouteId, Topology};
use mbac_num::SnapshotMoments;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
pub enum Engine {
    Batched,
    Boxed,
}

impl Engine {
    pub fn table(self) -> FlowTable {
        FlowTable::new()
    }
}

impl SessionBuilder {
    #[doc(hidden)]
    pub fn engine(self, _: Engine) -> Self {
        self
    }
}

impl RepContext {
    #[doc(hidden)]
    pub fn scratch_rates(&self) -> Vec<f64> {
        Vec::new()
    }
}

impl dyn AdmissionEngine + '_ {
    #[doc(hidden)]
    pub fn supports_moments(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// Materialised serve workloads
// ---------------------------------------------------------------------

/// One event in a link's serve workload, in per-link order.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkEvent {
    /// A measurement of the link at time `t`: its per-flow rates (the
    /// estimator input of eqn (23)) folded around the first. The count
    /// is the link's occupancy.
    Measure {
        /// Absolute measurement time.
        t: f64,
        /// The measurement's moments. (The field keeps the name it had
        /// when a measurement carried every rate.)
        rates: SnapshotMoments,
    },
    /// An admission request arriving at time `t`.
    Request {
        /// Absolute arrival time.
        t: f64,
    },
}

/// The generated workload: link `l`'s event stream is, at each tick,
/// its measurement and then `requests_per_tick` requests (link ids are
/// replication indices). A request is a function of its tick, so each
/// tick's is stored once, whatever the number of links and asks.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeWorkload {
    links: usize,
    requests_per_tick: usize,
    /// Tick-major: tick `k`'s measurement of link `l` is at
    /// `k · links + l`.
    pub(crate) measures: Vec<LinkEvent>,
    /// Tick `k`'s request.
    pub(crate) requests: Vec<LinkEvent>,
}

impl ServeWorkload {
    /// Number of links.
    pub fn links(&self) -> usize {
        self.links
    }

    /// All link ids, in index order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links).map(|l| LinkId(l as u32))
    }

    /// Link `link`'s event stream, in per-link order.
    pub fn events(&self, link: LinkId) -> impl Iterator<Item = &LinkEvent> + '_ {
        let own = move |&(l, _): &(LinkId, _)| l == link;
        self.canonical_events().filter(own).map(|(_, event)| event)
    }

    /// Total admission requests across all links.
    pub fn total_requests(&self) -> usize {
        self.measures.len() * self.requests_per_tick
    }

    /// Total events across all links.
    pub fn total_events(&self) -> usize {
        self.measures.len() * (1 + self.requests_per_tick)
    }

    /// The canonical serial-reference order: the links' streams merged
    /// round-robin by event index — each tick, every link's measurement,
    /// then `requests_per_tick` rounds of every link's request. Any
    /// order that preserves each link's own sequence yields the same
    /// per-link decisions (the serve invariance suite proves this);
    /// this one is the fixed reference the sharded plane is compared
    /// against.
    pub fn canonical_events(&self) -> impl Iterator<Item = (LinkId, &LinkEvent)> {
        let ticks = self.measures.chunks_exact(self.links).zip(&self.requests);
        ticks.flat_map(move |(measures, request)| {
            let requests = (0..self.requests_per_tick)
                .flat_map(move |_| (0..self.links).map(move |l| (LinkId(l as u32), request)));
            let measures = measures.iter().enumerate();
            measures.map(|(l, m)| (LinkId(l as u32), m)).chain(requests)
        })
    }
}

impl Scenario for RequestLoad<'_> {
    type Rep = RepContext;
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

    /// Seeds link `ctx.rep`: its population is admitted on this stream
    /// when the fold generates the run.
    fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> RepContext {
        *ctx
    }

    /// The run's windows laid end to end, as [`RoutedLoad`]'s fold lays
    /// its one-hop routes': each tick, every link's measurement and the
    /// tick's one request.
    fn fold(&self, reps: Vec<RepContext>) -> ServeWorkload {
        let cfg = &self.cfg;
        let routed = self.routed(cfg.ticks, MAX_WORKLOAD_ITEMS);
        let mut measures = Vec::with_capacity(cfg.links * cfg.ticks);
        let mut requests = Vec::with_capacity(cfg.ticks);
        let generator = routed.expect("a validated run").generator(reps);
        generator.each_tick(|t, snapshots| {
            for &rates in snapshots {
                measures.push(LinkEvent::Measure { t, rates });
            }
            requests.push(LinkEvent::Request { t });
        });
        ServeWorkload {
            links: cfg.links,
            requests_per_tick: cfg.requests_per_tick,
            measures,
            requests,
        }
    }
}

/// One event in a *routed* workload's per-link stream.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutedEvent {
    /// A measurement of the link: every crossing route's per-flow rates
    /// (route order) as this node measures them, folded around the
    /// first ([`mbac_num::fold_noisy`] with no pivot). The count is the
    /// link's occupancy.
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

impl RoutedLoadConfig {
    /// The route of every request of the run, indexed by `seq`: each
    /// tick, each route in turn asks `requests_per_tick` times. As long
    /// as the run, so it is held to [`MAX_WORKLOAD_ITEMS`] requests
    /// before it is allocated; a run generated in windows never needs
    /// it whole ([`crate::RoutedWindow::request_routes`] is a window's slice).
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
    /// by event index as [`ServeWorkload::canonical_events`] (`link 0
    /// event 0, link 1 event 0, …, link 0 event 1, …`). Each link's
    /// subsequence equals its own stream, which is all the routed
    /// plane's determinism argument needs.
    pub fn canonical_events(&self) -> impl Iterator<Item = (LinkId, &RoutedEvent)> {
        let longest = self.per_link.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest).flat_map(move |i| {
            let links = self.per_link.iter().enumerate();
            links.filter_map(move |(link, evs)| evs.get(i).map(|e| (LinkId(link as u32), e)))
        })
    }
}

impl Scenario for RoutedLoad<'_> {
    type Rep = RepContext;
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

    /// Seeds route `ctx.rep`: its population is admitted on this stream
    /// when the fold generates the run.
    fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> RepContext {
        *ctx
    }

    /// The run's windows laid end to end: the generator of
    /// [`RoutedLoad::windows`] writes a window of ticks at a time, and
    /// each tick's measurements and requests are appended to the
    /// per-link streams.
    fn fold(&self, reps: Vec<RepContext>) -> RoutedWorkload {
        let cfg = &self.cfg;
        let topo = &cfg.topology;
        // Validated: a run holds more events than requests.
        let request_routes = cfg.request_routes().expect("a validated run");
        let mut per_link: Vec<Vec<RoutedEvent>> = (0..topo.links())
            .map(|_| Vec::with_capacity(cfg.ticks * (1 + cfg.requests_per_tick)))
            .collect();
        let mut seq = 0;
        self.generator(reps).each_tick(|t, snapshots| {
            for (events, &rates) in per_link.iter_mut().zip(snapshots) {
                events.push(RoutedEvent::Measure { t, rates });
            }
            // The tick's requests: one occurrence per hop, shared seq,
            // emitted in seq order on every link (the two-phase
            // commit's monotonicity invariant).
            for route in cfg.tick_requests() {
                for &hop in topo.route(route) {
                    per_link[hop.index()].push(RoutedEvent::Request { t, route, seq });
                }
                seq += 1;
            }
        });
        RoutedWorkload {
            topology: Arc::clone(topo),
            per_link,
            request_routes,
        }
    }
}

impl RoutedWindows<'_> {
    /// Generates the rest of the run a window at a time and hands each
    /// tick's time and every link's measurement there, in link order, to
    /// `each`: a materialised run is its windows laid end to end.
    fn each_tick(mut self, mut each: impl FnMut(f64, &[SnapshotMoments])) {
        // Any window length makes the same bits; 32 ticks stay in cache.
        const WINDOW_TICKS: usize = 32;
        let links = self.links();
        let mut window = self.new_window();
        let mut tick = Vec::with_capacity(links);
        while self.next_window(WINDOW_TICKS, &mut window) {
            for (_, _, t, moments) in window.snapshots().measurements() {
                tick.push(moments);
                if tick.len() == links {
                    each(t, &tick);
                    tick.clear();
                }
            }
        }
    }
}
