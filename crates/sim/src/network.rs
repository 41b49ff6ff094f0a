//! The closed-loop routed network simulator: MBAC over a
//! [`Topology`], with admission feedback.
//!
//! Where [`crate::requests::RoutedLoad`] generates an *open-loop*
//! workload (occupancy scripted, decisions not fed back),
//! [`RoutedNetworkLoad`] closes the loop: each link is a
//! [`LinkAdmission`] run by its own [`MbacController`] (a
//! [`FilteredEstimator`] with memory `T_m` feeding a
//! certainty-equivalent criterion), each route holds a flow population
//! with exponential holding times, and a new flow enters only when
//! every hop accepts it ([`admit_on_route`]). Admitted flows load every
//! link on their route — the multi-hop composition the paper's
//! single-link design rule `T_m = T̃_h` is tested against in the
//! topology experiment.
//!
//! One replication is one realization of the whole network (the links
//! are correlated through shared flows, so they cannot be independent
//! replications); the Session pipeline runs replications in parallel
//! with the usual bit-determinism for any worker count, kernel or
//! boxed.

use crate::controller::{LinkAdmission, MbacController};
use crate::flows::FlowTable;
use crate::requests::{workload_count, MAX_RUN_ITEMS, MAX_WORKLOAD_ITEMS};
use crate::session::{
    require_finite, require_non_negative, require_positive, require_step, ConfigError, RepContext,
    Scenario,
};
use crate::telemetry::MetricsSink;
use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::FilteredEstimator;
use mbac_core::topology::{LinkId, Topology};
use mbac_metrics::{Aggregated, Gauge, MetricValue, MetricsSnapshot};
use mbac_num::fold_noisy;
use mbac_num::rng::exponential;
use mbac_traffic::process::SourceModel;
use rand::rngs::StdRng;
use std::sync::Arc;

/// Configuration of the closed-loop routed network simulation.
#[derive(Debug, Clone)]
pub struct RoutedNetworkConfig {
    /// The network: links with capacities, routes as hop lists.
    pub topology: Arc<Topology>,
    /// Measurement ticks per replication.
    pub ticks: usize,
    /// Measurement period `τ`.
    pub tick: f64,
    /// Ticks excluded from the overflow/utilization statistics while
    /// estimators and populations warm up.
    pub warmup_ticks: usize,
    /// Initial flows seeded on each route (warm estimator start; at
    /// least 2 so a variance exists).
    pub initial_flows_per_route: usize,
    /// Mean exponential holding time of admitted flows.
    pub mean_holding: f64,
    /// Admission attempts per route per tick; attempts stop at the
    /// first rejection (continuous pressure up to the acceptance
    /// boundary).
    pub attempts_per_tick: usize,
    /// Per-node measurement noise standard deviation (0 disables): each
    /// link measures through its own noise, drawn as its effect on the
    /// fold, by the rule of
    /// [`crate::requests::RoutedLoadConfig::noise_sd`].
    pub noise_sd: f64,
    /// Estimator memory time-scale `T_m` (0 = memoryless).
    pub t_m: f64,
    /// Certainty-equivalent target overflow probability.
    pub p_ce: f64,
    /// Independent network replications.
    pub replications: usize,
    /// Base seed (the builder may override it).
    pub seed: u64,
}

/// Per-link outcome statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkStats {
    /// Fraction of post-warmup ticks where the offered load exceeded
    /// capacity (the bufferless overflow probability `P_f`).
    pub pf: f64,
    /// Mean carried utilization `min(load, c) / c` over post-warmup
    /// ticks.
    pub utilization: f64,
    /// Mean measured occupancy over post-warmup ticks.
    pub occupancy: f64,
}

/// Per-route admission counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteStats {
    /// Requests admitted (at every hop).
    pub admitted: u64,
    /// Requests rejected (at some hop).
    pub blocked: u64,
}

/// The folded report of a routed network run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedNetworkReport {
    /// Per-link statistics, averaged over replications.
    pub per_link: Vec<LinkStats>,
    /// Per-route admission counts, summed over replications.
    pub per_route: Vec<RouteStats>,
    /// Replications folded in.
    pub replications: usize,
}

impl RoutedNetworkReport {
    /// The worst per-link overflow probability — the network-level
    /// QoS violation measure.
    pub fn max_pf(&self) -> f64 {
        self.per_link.iter().map(|l| l.pf).fold(0.0, f64::max)
    }

    /// The report as a `net.link<i>.*` / `net.route<i>.*` metrics
    /// bundle (gauges for the per-link statistics, counters for the
    /// admission totals), built with `merge_prefixed` so it composes
    /// with the other instrument namespaces.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for (i, l) in self.per_link.iter().enumerate() {
            let mut bundle = MetricsSnapshot::new();
            for (name, v) in [
                ("pf", l.pf),
                ("utilization", l.utilization),
                ("occupancy", l.occupancy),
            ] {
                let mut g = Gauge::new();
                g.set(v);
                bundle.insert(name, MetricValue::Gauge(g.snapshot()));
            }
            out.merge_prefixed(&format!("net.link{i}"), &bundle);
        }
        for (i, r) in self.per_route.iter().enumerate() {
            let mut bundle = MetricsSnapshot::new();
            let mut admitted = mbac_metrics::Counter::new();
            admitted.add(r.admitted);
            let mut blocked = mbac_metrics::Counter::new();
            blocked.add(r.blocked);
            bundle.insert("admitted", MetricValue::Counter(admitted.snapshot()));
            bundle.insert("blocked", MetricValue::Counter(blocked.snapshot()));
            out.merge_prefixed(&format!("net.route{i}"), &bundle);
        }
        out
    }
}

/// One replication's raw tallies (summed exactly in the fold, so the
/// report is bit-deterministic for any worker count).
#[derive(Debug, Clone)]
pub struct NetworkRep {
    overflow_ticks: Vec<u64>,
    util_sum: Vec<f64>,
    occupancy_sum: Vec<u64>,
    measured_ticks: u64,
    admitted: Vec<u64>,
    blocked: Vec<u64>,
}

/// The route rule: a route admits iff every hop votes, asked in route
/// order up to the first no; then every hop settles. A vote writes
/// nothing and [`Topology::validate`] rejects a route that repeats a
/// link, so a rejected request leaves every link as it found it.
pub fn admit_on_route(links: &mut [LinkAdmission], hops: &[LinkId]) -> bool {
    let admit = hops.iter().all(|hop| links[hop.index()].votes());
    for hop in hops {
        links[hop.index()].settle(admit);
    }
    admit
}

/// The closed-loop routed network scenario.
pub struct RoutedNetworkLoad<'a> {
    /// The per-flow traffic model (RCBR, AR(1), trace, …).
    pub model: &'a dyn SourceModel,
    /// Simulation shape.
    pub cfg: RoutedNetworkConfig,
}

impl Scenario for RoutedNetworkLoad<'_> {
    type Rep = NetworkRep;
    type Report = RoutedNetworkReport;

    fn validate(&self) -> Result<(), ConfigError> {
        let cfg = &self.cfg;
        cfg.topology.validate()?;
        if cfg.replications == 0 {
            return Err(ConfigError::ZeroReplications);
        }
        if cfg.initial_flows_per_route < 2 {
            return Err(ConfigError::TooFewFlows {
                got: cfg.initial_flows_per_route,
            });
        }
        require_positive("ticks", cfg.ticks as f64)?;
        require_step("tick", cfg.tick)?;
        require_finite("run length (ticks × tick)", cfg.ticks as f64 * cfg.tick)?;
        require_positive("mean holding time", cfg.mean_holding)?;
        require_positive("target overflow probability", cfg.p_ce)?;
        require_non_negative("memory time-scale", cfg.t_m)?;
        require_non_negative("noise standard deviation", cfg.noise_sd)?;
        require_finite("noise standard deviation", cfg.noise_sd)?;
        if cfg.warmup_ticks >= cfg.ticks {
            return Err(ConfigError::NonPositive {
                field: "post-warmup ticks",
                value: cfg.ticks as f64 - cfg.warmup_ticks as f64,
            });
        }
        // The replications' tallies and each route's seeded flows are
        // held at once, and every replication steps every route's flows
        // every tick: each count is held to what a workload may hold,
        // and the run they make to what one may pass through.
        for (what, count) in [
            ("replications", cfg.replications),
            ("initial flows per route", cfg.initial_flows_per_route),
            ("ticks", cfg.ticks),
        ] {
            workload_count(what, [count], MAX_WORKLOAD_ITEMS)?;
        }
        let run = [
            cfg.replications,
            cfg.topology.routes(),
            cfg.initial_flows_per_route,
            cfg.ticks,
        ];
        workload_count("initial flow-ticks over the run", run, MAX_RUN_ITEMS)?;
        // Admission fills each link to about `capacity / mean` flows,
        // held at once and advanced every tick, and asks at most
        // `attempts_per_tick` times a route each tick.
        let topo = &cfg.topology;
        let flows: f64 = topo
            .link_ids()
            .map(|link| topo.capacity(link) / self.model.mean())
            .sum();
        let too_large = |what, max| Err(ConfigError::WorkloadTooLarge { what, max });
        if flows > MAX_WORKLOAD_ITEMS as f64 {
            return too_large("admitted flows (capacity / mean rate)", MAX_WORKLOAD_ITEMS);
        }
        if flows * (cfg.ticks * cfg.replications) as f64 > MAX_RUN_ITEMS as f64 {
            return too_large("admitted flow-ticks over the run", MAX_RUN_ITEMS);
        }
        let attempts = [
            cfg.replications,
            topo.routes(),
            cfg.attempts_per_tick,
            cfg.ticks,
        ];
        workload_count("admission attempts over the run", attempts, MAX_RUN_ITEMS)?;
        Ok(())
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn replications(&self) -> usize {
        self.cfg.replications
    }

    fn run_rep(&self, ctx: &RepContext, sink: &mut MetricsSink) -> NetworkRep {
        let cfg = &self.cfg;
        let topo = &cfg.topology;
        let (links, routes) = (topo.links(), topo.routes());
        let mut rng = ctx.rng();
        let mut tables: Vec<FlowTable> = (0..routes).map(|_| ctx.table()).collect();
        let mut admission: Vec<LinkAdmission> = topo
            .link_ids()
            .map(|link| {
                let ctl = MbacController::new(
                    Box::new(FilteredEstimator::new(cfg.t_m)),
                    Box::new(CertaintyEquivalent::from_probability(cfg.p_ce)),
                );
                LinkAdmission::new(ctl, topo.capacity(link))
            })
            .collect();
        let mut rep = NetworkRep {
            overflow_ticks: vec![0; links],
            util_sum: vec![0.0; links],
            occupancy_sum: vec![0; links],
            measured_ticks: 0,
            admitted: vec![0; routes],
            blocked: vec![0; routes],
        };
        // Seed each route's population (route order keeps the RNG
        // stream deterministic).
        let hold = |rng: &mut StdRng| exponential(rng, cfg.mean_holding);
        for table in &mut tables {
            table.admit_run(self.model, cfg.initial_flows_per_route, &mut rng, hold);
        }
        let metrics_on = sink.is_enabled();
        if metrics_on {
            let mut e = sink.entry(0.0);
            e.admitted = (routes * cfg.initial_flows_per_route) as u64;
            e.exp_draws = (routes * cfg.initial_flows_per_route) as u64;
        }
        let mut route_snaps: Vec<Vec<f64>> = vec![Vec::new(); routes];
        let mut link_rates: Vec<f64> = Vec::new();
        let record = |step: usize| step > cfg.warmup_ticks;
        for step in 1..=cfg.ticks {
            let now = step as f64 * cfg.tick;
            // The tick's network-wide unit-of-work tallies (folded into
            // one entry at the bottom of the tick when metrics are on).
            let mut tick_departed = 0u64;
            let mut tick_load = 0.0f64;
            let mut tick_occ = 0u64;
            let mut tick_admitted = 0u64;
            let mut tick_blocked = 0u64;
            // Advance populations; each link's measurement below resyncs
            // its occupancy to the flows left.
            for (table, snap) in tables.iter_mut().zip(&mut route_snaps) {
                table.advance_to(now, &mut rng);
                tick_departed += table.depart_until(now) as u64;
                table.snapshot_into(snap);
            }
            // Measure each link: union of crossing routes' flows, seen
            // through this node's noise and folded once into the moments
            // that feed its estimator and give its load; resync
            // occupancy, tally overflow/utilization. (A link's load is
            // the measured fold's, not any one table's aggregate.)
            for link in topo.link_ids() {
                link_rates.clear();
                for &(route, _) in topo.crossings(link) {
                    link_rates.extend_from_slice(&route_snaps[route.index()]);
                }
                let l = link.index();
                let pivot = Some(admission[l].moment_pivot());
                let mom = fold_noisy(&link_rates, pivot, cfg.noise_sd, &mut rng);
                admission[l].measure(now, &mom);
                if record(step) {
                    let load = mom.sum();
                    let c = topo.capacity(link);
                    if load > c {
                        rep.overflow_ticks[l] += 1;
                    }
                    rep.util_sum[l] += load.min(c) / c;
                    rep.occupancy_sum[l] += link_rates.len() as u64;
                    tick_load += load;
                    tick_occ += link_rates.len() as u64;
                }
            }
            if record(step) {
                rep.measured_ticks += 1;
            }
            // Admission: continuous pressure per route up to the
            // acceptance boundary. A decision draws nothing, so the
            // route's admitted attempts join one run, drawing what they
            // would have drawn one by one.
            for route in topo.route_ids() {
                let r = route.index();
                let admitted = (0..cfg.attempts_per_tick)
                    .take_while(|_| admit_on_route(&mut admission, topo.route(route)))
                    .count();
                if admitted < cfg.attempts_per_tick {
                    rep.blocked[r] += 1;
                    tick_blocked += 1;
                }
                rep.admitted[r] += admitted as u64;
                tick_admitted += admitted as u64;
                tables[r].admit_run(self.model, admitted, &mut rng, |rng| now + hold(rng));
            }
            if metrics_on {
                // Network-aggregate entry: one per tick, summed across
                // links (load/occupancy are post-warmup only, matching
                // the report's measurement window).
                let mut e = sink.entry(now);
                e.ticks = 1;
                if record(step) {
                    e.load = tick_load;
                    e.occupancy = tick_occ as f64;
                }
                e.admitted = tick_admitted;
                e.denied = tick_blocked;
                e.exp_draws = tick_admitted;
                e.departed = tick_departed;
            }
        }
        rep
    }

    fn fold(&self, reps: Vec<NetworkRep>) -> RoutedNetworkReport {
        let topo = &self.cfg.topology;
        let (links, routes) = (topo.links(), topo.routes());
        let mut overflow = vec![0u64; links];
        let mut util = vec![0.0f64; links];
        let mut occupancy = vec![0u64; links];
        let mut measured = 0u64;
        let mut admitted = vec![0u64; routes];
        let mut blocked = vec![0u64; routes];
        for rep in &reps {
            for l in 0..links {
                overflow[l] += rep.overflow_ticks[l];
                util[l] += rep.util_sum[l];
                occupancy[l] += rep.occupancy_sum[l];
            }
            measured += rep.measured_ticks;
            for r in 0..routes {
                admitted[r] += rep.admitted[r];
                blocked[r] += rep.blocked[r];
            }
        }
        let denom = measured.max(1) as f64;
        RoutedNetworkReport {
            per_link: (0..links)
                .map(|l| LinkStats {
                    pf: overflow[l] as f64 / denom,
                    utilization: util[l] / denom,
                    occupancy: occupancy[l] as f64 / denom,
                })
                .collect(),
            per_route: (0..routes)
                .map(|r| RouteStats {
                    admitted: admitted[r],
                    blocked: blocked[r],
                })
                .collect(),
            replications: reps.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use mbac_core::estimators::MemorylessEstimator;
    use mbac_core::topology::RouteId;
    use mbac_num::RateMoments;
    use mbac_traffic::process::Unbatched;
    use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};

    fn model() -> RcbrModel {
        RcbrModel::new(RcbrConfig::paper_default(1.0))
    }

    fn config(topology: Topology) -> RoutedNetworkConfig {
        RoutedNetworkConfig {
            topology: Arc::new(topology),
            ticks: 60,
            tick: 0.5,
            warmup_ticks: 10,
            initial_flows_per_route: 4,
            mean_holding: 20.0,
            attempts_per_tick: 2,
            noise_sd: 0.0,
            t_m: 2.0,
            p_ce: 1e-2,
            replications: 4,
            seed: 17,
        }
    }

    /// A link of `capacity`, measured once at `flows` flows of rate 1.0
    /// (σ̂ = 0, so it admits up to `capacity` flows), or left cold.
    fn link(capacity: f64, flows: Option<usize>) -> LinkAdmission {
        let ctl = MbacController::new(
            Box::new(MemorylessEstimator::new()),
            Box::new(CertaintyEquivalent::from_probability(1e-2)),
        );
        let mut link = LinkAdmission::new(ctl, capacity);
        if let Some(n) = flows {
            link.measure(0.0, &RateMoments::of(1.0, &vec![1.0; n]).reduce());
        }
        link
    }

    fn occupancies(links: &[LinkAdmission]) -> Vec<u32> {
        links.iter().map(LinkAdmission::occupancy).collect()
    }

    /// A three-hop route where every hop accepts: all three occupancies
    /// move together.
    #[test]
    fn decide_commits_every_hop_on_admit() {
        let topo =
            Topology::new(vec![10.5; 3], vec![vec![LinkId(0), LinkId(1), LinkId(2)]]).unwrap();
        let mut links: Vec<_> = (0..3).map(|_| link(10.5, Some(1))).collect();
        assert!(admit_on_route(&mut links, topo.route(RouteId(0))));
        assert_eq!(occupancies(&links), [2, 2, 2]);
    }

    /// A cold hop (no measurement) fails safe, whatever the hops after
    /// it would say, and the rejected request moves no occupancy.
    #[test]
    fn cold_hop_short_circuits() {
        let topo = Topology::parking_lot(3, 10.5);
        let mut links = vec![link(10.5, None), link(10.5, Some(4)), link(10.5, Some(4))];
        assert!(!admit_on_route(&mut links, topo.route(RouteId(0))));
        assert_eq!(occupancies(&links), [0, 4, 4]);
        // The warm hops still admit their own cross traffic.
        assert!(admit_on_route(&mut links, topo.route(RouteId(2))));
        assert_eq!(occupancies(&links), [0, 5, 4]);
    }

    #[test]
    fn closed_loop_fills_links_toward_capacity() {
        let m = model();
        let load = RoutedNetworkLoad {
            model: &m,
            cfg: config(Topology::parking_lot(3, 12.0)),
        };
        let report = SessionBuilder::new().run(&load).unwrap();
        assert_eq!(report.per_link.len(), 3);
        assert_eq!(report.per_route.len(), 4);
        let admitted: u64 = report.per_route.iter().map(|r| r.admitted).sum();
        let blocked: u64 = report.per_route.iter().map(|r| r.blocked).sum();
        assert!(admitted > 0, "admission must let some flows in");
        assert!(blocked > 0, "MBAC must eventually push back");
        for l in &report.per_link {
            assert!(l.utilization > 0.2, "links must carry load: {l:?}");
            assert!(l.utilization <= 1.0);
            assert!(l.pf < 0.5, "MBAC must keep overflow bounded: {l:?}");
        }
    }

    #[test]
    fn report_is_worker_and_engine_invariant() {
        let m = model();
        let load = RoutedNetworkLoad {
            model: &m,
            cfg: config(Topology::star(3, 10.0)),
        };
        let reference = SessionBuilder::new().workers(1).run(&load).unwrap();
        for workers in [2, 4] {
            let r = SessionBuilder::new().workers(workers).run(&load).unwrap();
            assert_eq!(r, reference, "diverged at {workers} workers");
        }
        let hidden = Unbatched(&m);
        let boxed = SessionBuilder::new()
            .run(&RoutedNetworkLoad {
                model: &hidden,
                cfg: config(Topology::star(3, 10.0)),
            })
            .unwrap();
        assert_eq!(boxed, reference, "the boxed path diverged");
    }

    #[test]
    fn metrics_snapshot_namespaces_per_link_and_route() {
        let m = model();
        let load = RoutedNetworkLoad {
            model: &m,
            cfg: config(Topology::parking_lot(2, 10.0)),
        };
        let report = SessionBuilder::new().run(&load).unwrap();
        let snap = report.metrics_snapshot();
        for l in 0..2 {
            for name in ["pf", "utilization", "occupancy"] {
                assert!(
                    matches!(
                        snap.get(&format!("net.link{l}.{name}")),
                        Some(MetricValue::Gauge(_))
                    ),
                    "missing net.link{l}.{name}"
                );
            }
        }
        match snap.get("net.route0.admitted") {
            Some(MetricValue::Counter(c)) => {
                assert_eq!(c.count, report.per_route[0].admitted);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let m = model();
        let mut cfg = config(Topology::one_hop_links(1, 10.0));
        cfg.warmup_ticks = cfg.ticks;
        assert!(RoutedNetworkLoad { model: &m, cfg }.validate().is_err());
        let mut cfg = config(Topology::one_hop_links(1, 10.0));
        cfg.replications = 0;
        assert_eq!(
            RoutedNetworkLoad { model: &m, cfg }.validate().unwrap_err(),
            ConfigError::ZeroReplications
        );
    }

    /// A run is sized from its configuration before anything is
    /// allocated: `--reps 2⁶⁴ − 1` used to die on "capacity overflow",
    /// `--flows-per-route 10¹¹` on memory, and `--ticks 10¹¹` ran for
    /// days.
    #[test]
    fn oversized_runs_are_rejected() {
        let m = model();
        let validate = |edit: &dyn Fn(&mut RoutedNetworkConfig)| {
            let mut cfg = config(Topology::parking_lot(3, 12.0));
            edit(&mut cfg);
            RoutedNetworkLoad { model: &m, cfg }.validate()
        };
        let too_large = |what, max| Err(ConfigError::WorkloadTooLarge { what, max });
        let held = |what| too_large(what, MAX_WORKLOAD_ITEMS);
        assert_eq!(
            validate(&|c| c.replications = usize::MAX),
            held("replications")
        );
        assert_eq!(
            validate(&|c| c.initial_flows_per_route = 100_000_000_000),
            held("initial flows per route")
        );
        assert_eq!(validate(&|c| c.ticks = 100_000_000_000), held("ticks"));
        // Each count within its bound, the run past its own: 2²⁰ ticks
        // of 2¹⁰ flows on four routes, 2¹⁰ times over.
        let long = |reps| {
            move |c: &mut RoutedNetworkConfig| {
                (c.replications, c.initial_flows_per_route, c.ticks) = (reps, 1 << 10, 1 << 20);
            }
        };
        let run = "initial flow-ticks over the run";
        assert_eq!(validate(&long(1 << 10)), too_large(run, MAX_RUN_ITEMS));
        assert_eq!(validate(&long(1 << 8)), Ok(()));
        // A network that can admit without bound: every link would fill
        // to ~10¹⁵ flows (`--capacity 1e15` aborted on the flow table's
        // allocation), or the links are small but the run long.
        let flows = "admitted flows (capacity / mean rate)";
        for capacity in [1e15, 1e308] {
            let cfg = config(Topology::parking_lot(3, capacity));
            let load = RoutedNetworkLoad { model: &m, cfg };
            assert_eq!(load.validate(), held(flows));
        }
        let cfg = RoutedNetworkConfig {
            ticks: 1 << 27,
            replications: 1 << 6,
            ..config(Topology::parking_lot(3, 1e3))
        };
        let load = RoutedNetworkLoad { model: &m, cfg };
        let flow_ticks = "admitted flow-ticks over the run";
        assert_eq!(load.validate(), too_large(flow_ticks, MAX_RUN_ITEMS));
        let attempts = "admission attempts over the run";
        assert_eq!(
            validate(&|c| c.attempts_per_tick = 99_999_999_999),
            too_large(attempts, MAX_RUN_ITEMS)
        );
    }

    /// The topology experiment's grid (`exp topology`: capacity 16 on
    /// every link of `parking-lot:3` and `star:4`, 3 initial flows a
    /// route, 2 attempts a tick, 4 replications, 8000 ticks on its full
    /// budget; 10⁴ here) and the CLI's defaults (`parking-lot:3`, 2
    /// flows a route, 2 attempts, 8 replications, 2000 ticks, at the
    /// capacity 100 its tests use) are far inside every bound.
    #[test]
    fn the_topology_experiment_is_far_below_the_bounds() {
        let m = model();
        let experiment = [Topology::parking_lot(3, 16.0), Topology::star(4, 16.0)].map(|t| {
            RoutedNetworkConfig {
                ticks: 10_000,
                initial_flows_per_route: 3,
                ..config(t)
            }
        });
        let cli = RoutedNetworkConfig {
            ticks: 2000,
            initial_flows_per_route: 2,
            replications: 8,
            ..config(Topology::parking_lot(3, 100.0))
        };
        for cfg in experiment.into_iter().chain([cli]) {
            let topo = &cfg.topology;
            let product = |factors: &[usize]| factors.iter().map(|&n| n as u64).product::<u64>();
            let (reps, routes) = (cfg.replications, topo.routes());
            let seeded = product(&[reps, routes, cfg.initial_flows_per_route, cfg.ticks]);
            let attempts = product(&[reps, routes, cfg.attempts_per_tick, cfg.ticks]);
            let flows: f64 = topo.link_ids().map(|l| topo.capacity(l) / m.mean()).sum();
            let flow_ticks = flows * (cfg.ticks * reps) as f64;
            assert!(
                seeded.max(attempts) < MAX_RUN_ITEMS >> 20,
                "{seeded} {attempts}"
            );
            assert!(flows < (MAX_WORKLOAD_ITEMS >> 16) as f64, "{flows}");
            assert!(flow_ticks < (MAX_RUN_ITEMS >> 10) as f64, "{flow_ticks}");
            assert_eq!(RoutedNetworkLoad { model: &m, cfg }.validate(), Ok(()));
        }
    }
}
