//! Scenario-as-request-stream adapter: replays the simulator's traffic
//! models as a *decision-plane workload*.
//!
//! The serve crate needs realistic admission traffic — links whose
//! measured load evolves like the paper's RCBR/AR(1)/trace sources,
//! interleaved with admission requests. [`RequestLoad`] produces exactly
//! that by running one [`FlowTable`](crate::flows::FlowTable) per link
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
//! # Ordering contract
//!
//! The scientific content of a workload is **per-link order**: each
//! link's interleaving of measurements and requests is what the
//! controller's decision sequence depends on. Cross-link order is
//! deliberately unspecified — the decision plane is free to interleave
//! links arbitrarily (that is the whole point of sharding), and
//! [`ServeWorkload::canonical_events`] provides one fixed round-robin
//! merge as the serial-reference order. Routed workloads add one more
//! guarantee the two-phase commit relies on: each link's `Request`
//! occurrences are strictly increasing in `seq`.

use crate::session::{
    require_finite, require_non_negative, require_positive, require_step, ConfigError, RepContext,
    Scenario,
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
pub const MAX_WORKLOAD_ITEMS: u64 = 1 << 28;

/// Checks that the product of `factors` — how many `what` the workload
/// would hold — neither overflows nor exceeds [`MAX_WORKLOAD_ITEMS`].
fn require_workload_fits(what: &'static str, factors: [usize; 3]) -> Result<(), ConfigError> {
    factors
        .iter()
        .try_fold(1u64, |n, &factor| n.checked_mul(factor as u64))
        .filter(|&n| n <= MAX_WORKLOAD_ITEMS)
        .map(|_| ())
        .ok_or(ConfigError::WorkloadTooLarge {
            what,
            max: MAX_WORKLOAD_ITEMS,
        })
}

/// One per-tick churn step shared by [`RequestLoad`] and
/// [`RoutedLoad`]: the exact sequence of table/RNG operations is the
/// compatibility contract — a single-link routed workload must consume
/// the identical random stream and therefore produce bit-identical
/// rate snapshots.
fn evolve_rate_snapshots(
    model: &dyn SourceModel,
    flows: usize,
    ticks: usize,
    tick: f64,
    mean_holding: f64,
    ctx: &RepContext,
) -> Vec<Box<[f64]>> {
    let mut rng = ctx.rng();
    let mut table = ctx.table();
    let mut snap = ctx.scratch_rates();
    // Seed population with exponential residual holding times.
    for _ in 0..flows {
        let hold = exponential(&mut rng, mean_holding);
        table.admit(model, hold, &mut rng);
    }
    let mut out = Vec::with_capacity(ticks);
    for step in 1..=ticks {
        let now = step as f64 * tick;
        table.advance_to(now, &mut rng);
        table.depart_until(now);
        // Churn: top the population back up, so the measured link
        // carries fresh flows but a stable occupancy.
        while table.len() < flows {
            let hold = exponential(&mut rng, mean_holding);
            table.admit(model, now + hold, &mut rng);
        }
        table.snapshot_into(&mut snap);
        out.push(snap.as_slice().into());
    }
    out
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
        require_positive("mean holding time", self.cfg.mean_holding)?;
        let cfg = &self.cfg;
        let per_tick = cfg.requests_per_tick.saturating_add(1);
        require_workload_fits("events", [cfg.links, cfg.ticks, per_tick])?;
        require_workload_fits("rate samples", [cfg.links, cfg.ticks, cfg.flows_per_link])?;
        Ok(())
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn replications(&self) -> usize {
        self.cfg.links
    }

    fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> Vec<LinkEvent> {
        let cfg = &self.cfg;
        let snapshots = evolve_rate_snapshots(
            self.model,
            cfg.flows_per_link,
            cfg.ticks,
            cfg.tick,
            cfg.mean_holding,
            ctx,
        );
        let mut events = Vec::with_capacity(cfg.ticks * (1 + cfg.requests_per_tick));
        for (step, rates) in snapshots.into_iter().enumerate() {
            let now = (step + 1) as f64 * cfg.tick;
            events.push(LinkEvent::Measure { t: now, rates });
            for _ in 0..cfg.requests_per_tick {
                events.push(LinkEvent::Request { t: now });
            }
        }
        events
    }

    fn fold(&self, reps: Vec<Vec<LinkEvent>>) -> ServeWorkload {
        ServeWorkload { per_link: reps }
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
    /// of admission requests is this slice's length.
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
        let topo = &cfg.topology;
        let hops: usize = topo.route_ids().map(|r| topo.route(r).len()).sum();
        let per_tick = cfg.requests_per_tick.saturating_add(1);
        require_workload_fits("events", [hops.max(topo.links()), cfg.ticks, per_tick])?;
        require_workload_fits("rate samples", [hops, cfg.ticks, cfg.flows_per_route])?;
        Ok(())
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn replications(&self) -> usize {
        self.cfg.topology.routes()
    }

    fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> Vec<Box<[f64]>> {
        let cfg = &self.cfg;
        evolve_rate_snapshots(
            self.model,
            cfg.flows_per_route,
            cfg.ticks,
            cfg.tick,
            cfg.mean_holding,
            ctx,
        )
    }

    fn fold(&self, reps: Vec<Vec<Box<[f64]>>>) -> RoutedWorkload {
        let cfg = &self.cfg;
        let topo = &cfg.topology;
        // One independent noise stream per link: the same flow measured
        // at two nodes sees different noise (per-node measurement
        // error), deterministically derived from the workload seed.
        let mut noise: Vec<StdRng> = topo
            .link_ids()
            .map(|l| {
                StdRng::seed_from_u64(crate::session::rep_seed(
                    cfg.seed ^ NOISE_STREAM_SALT,
                    l.as_u64(),
                ))
            })
            .collect();
        let mut per_link: Vec<Vec<RoutedEvent>> = (0..topo.links())
            .map(|_| Vec::with_capacity(cfg.ticks * (1 + cfg.requests_per_tick)))
            .collect();
        let mut request_routes =
            Vec::with_capacity(cfg.ticks * cfg.requests_per_tick * topo.routes());
        let mut seq = 0u64;
        for step in 1..=cfg.ticks {
            let now = step as f64 * cfg.tick;
            // Measurements: each link sees the union of its crossing
            // routes' flows (correlated load), through its own noise.
            for link in topo.link_ids() {
                let crossing = || {
                    topo.routes_crossing(link)
                        .map(|route| &reps[route.index()][step - 1])
                };
                // Exact length: `rates.into()` below then keeps the
                // allocation instead of shrinking it.
                let mut rates: Vec<f64> = Vec::with_capacity(crossing().map(|r| r.len()).sum());
                for route_rates in crossing() {
                    rates.extend_from_slice(route_rates);
                }
                add_measurement_noise(&mut rates, cfg.noise_sd, &mut noise[link.index()]);
                per_link[link.index()].push(RoutedEvent::Measure {
                    t: now,
                    rates: rates.into(),
                });
            }
            // Requests: one occurrence per hop, shared seq, emitted in
            // seq order on every link (the two-phase commit's
            // monotonicity invariant).
            for route in topo.route_ids() {
                for _ in 0..cfg.requests_per_tick {
                    for &hop in topo.route(route) {
                        per_link[hop.index()].push(RoutedEvent::Request { t: now, route, seq });
                    }
                    request_routes.push(route);
                    seq += 1;
                }
            }
        }
        RoutedWorkload {
            topology: Arc::clone(topo),
            per_link,
            request_routes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};

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
