//! The decision-plane workloads. `serve_links` is read-heavy: 32
//! requests per measurement, so memo-hot decisions dominate.
//! `serve_routed` is write-heavy: two requests per measurement on a
//! multi-hop topology, so measurement ingestion and the two-phase
//! reserve/pump dominate. A round is one closed-loop replay, workload
//! generation included, exactly as `mbacctl serve-bench` runs it.

use super::continuous::memo_probes;
use super::{sub_seed, Check, Probe, RingStats, Round, Workload};
use crate::digest::Digest;
use crate::fingerprint::nproc;
use crate::json::Json;
use crate::spans::{Layer, Recorder};
use mbac_core::topology::Topology;
use mbac_metrics::IngestRing;
use mbac_num::quantile;
use mbac_serve::{
    certainty_equivalent_factory, closed_loop_with_parallelism, replay_threaded,
    routed_closed_loop_with_parallelism, BenchConfig, BenchReport, Decision, DecisionPlane,
    PlaneConfig, ReplayConfig, RouteDecision, RoutedBenchConfig, RoutedPlane, RoutedPlaneConfig,
    RoutedShardEvent, ShardEvent,
};
use mbac_sim::{
    LinkEvent, MetricsMode, RequestLoad, RequestLoadConfig, RoutedEvent, RoutedLoad,
    RoutedLoadConfig, SessionBuilder,
};
use mbac_traffic::{RcbrConfig, RcbrModel};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn model() -> RcbrModel {
    RcbrModel::new(RcbrConfig::paper_default(1.0))
}

/// The fields of a closed-loop report both paths produce.
struct Outcome {
    decisions: u64,
    admitted: u64,
    events: u64,
    replay_secs: f64,
    p50_ns: f64,
    p99_ns: f64,
}

impl Outcome {
    fn of(report: &BenchReport) -> Outcome {
        Outcome {
            decisions: report.decisions,
            admitted: report.admitted,
            events: report.events,
            replay_secs: report.elapsed_secs,
            p50_ns: report.p50_ns,
            p99_ns: report.p99_ns,
        }
    }

    /// `requests` is how many the generated workload must contain.
    fn round(&self, requests: u64, admit_band: (f64, f64)) -> Round {
        let mut d = Digest::new();
        d.u64(self.decisions).u64(self.admitted).u64(self.events);
        Round {
            digest: d.finish(),
            units: Some(self.decisions),
            rate: Some(self.decisions as f64 / self.replay_secs),
            requests,
            decided: self.decisions,
            decision_p50_ns: Some(self.p50_ns),
            decision_p99_ns: Some(self.p99_ns),
            checks: vec![
                Check::equal("decisions_eq_requests", self.decisions, requests),
                Check::band(
                    "admit_share",
                    self.admitted as f64 / self.decisions.max(1) as f64,
                    admit_band.0,
                    admit_band.1,
                ),
            ],
            ..Round::default()
        }
    }
}

/// What the outcome fold needs from a link or a route decision.
trait Decided {
    /// Index of the link or route the decision belongs to.
    fn group(&self) -> usize;
    fn admitted(&self) -> bool;
    fn latency(&self) -> Option<u64>;
    fn encode(&self, out: &mut Vec<u8>);
}

impl Decided for Decision {
    fn group(&self) -> usize {
        self.link.index()
    }
    fn admitted(&self) -> bool {
        self.admit
    }
    fn latency(&self) -> Option<u64> {
        self.latency_ns
    }
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }
}

impl Decided for RouteDecision {
    fn group(&self) -> usize {
        self.route.index()
    }
    fn admitted(&self) -> bool {
        self.admit
    }
    fn latency(&self) -> Option<u64> {
        self.latency_ns
    }
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }
}

/// What `closed_loop_*` do after the replay loop: group the decisions
/// by link or route, count, and take the latency quantiles in group
/// order. Also hashes each group's decision bytes (`detail_digest`).
fn fold_outcome<D: Decided>(
    out: &[D],
    groups: usize,
    events: u64,
    replay_secs: f64,
) -> (Outcome, u64) {
    let mut grouped: Vec<Vec<&D>> = vec![Vec::new(); groups];
    let mut admitted = 0u64;
    for d in out {
        admitted += u64::from(d.admitted());
        grouped[d.group()].push(d);
    }
    let (p50_ns, p99_ns) = latency_quantiles(grouped.iter().flatten().filter_map(|d| d.latency()));
    let mut detail = Digest::new();
    let mut bytes = Vec::new();
    for group in &grouped {
        bytes.clear();
        for d in group {
            d.encode(&mut bytes);
        }
        detail.bytes(&bytes);
    }
    let outcome = Outcome {
        decisions: out.len() as u64,
        admitted,
        events,
        replay_secs,
        p50_ns,
        p99_ns,
    };
    (outcome, detail.finish())
}

/// p50 / p99 of the stamped latencies, as `closed_loop_*` derive them.
fn latency_quantiles(latencies: impl Iterator<Item = u64>) -> (f64, f64) {
    let latencies: Vec<f64> = latencies.map(|ns| ns as f64).collect();
    if latencies.is_empty() {
        (0.0, 0.0)
    } else {
        (quantile(&latencies, 0.5), quantile(&latencies, 0.99))
    }
}

// ---------------------------------------------------------------------
// serve_links
// ---------------------------------------------------------------------

pub struct Links {
    seed: u64,
    cfg: BenchConfig,
    model: RcbrModel,
}

impl Links {
    pub fn new(seed: u64) -> Self {
        Links {
            seed,
            cfg: BenchConfig {
                links: 32,
                flows_per_link: 50,
                ticks: 1000,
                requests_per_tick: 32,
                seed: sub_seed(seed, 0x11),
                ..BenchConfig::default()
            },
            model: model(),
        }
    }

    fn requests(&self) -> u64 {
        (self.cfg.links * self.cfg.ticks * self.cfg.requests_per_tick) as u64
    }

    fn load(&self) -> RequestLoad<'_> {
        RequestLoad {
            model: &self.model,
            cfg: RequestLoadConfig {
                links: self.cfg.links,
                flows_per_link: self.cfg.flows_per_link,
                ticks: self.cfg.ticks,
                tick: self.cfg.tick,
                requests_per_tick: self.cfg.requests_per_tick,
                mean_holding: self.cfg.mean_holding,
                seed: self.cfg.seed,
            },
        }
    }

    fn plane_config(&self) -> PlaneConfig {
        PlaneConfig {
            shards: 1,
            capacity: self.cfg.capacity,
            ring_capacity: self.cfg.ring_capacity,
            metrics: MetricsMode::Disabled,
            stream: None,
        }
    }

    /// Each measurement resets a link's occupancy to 50 flows and the
    /// estimate admits a handful more: most of the 32 requests that
    /// follow are rejected, but never all and never none.
    const ADMIT_BAND: (f64, f64) = (0.02, 0.5);
}

impl Workload for Links {
    fn params(&self) -> Json {
        Json::obj([
            ("model", Json::str("rcbr")),
            ("links", Json::UInt(self.cfg.links as u64)),
            ("flows_per_link", Json::UInt(self.cfg.flows_per_link as u64)),
            ("ticks", Json::UInt(self.cfg.ticks as u64)),
            ("tick", Json::Num(self.cfg.tick)),
            (
                "requests_per_tick",
                Json::UInt(self.cfg.requests_per_tick as u64),
            ),
            ("mean_holding", Json::Num(self.cfg.mean_holding)),
            ("capacity", Json::Num(self.cfg.capacity)),
            ("p_ce", Json::Num(self.cfg.p_ce)),
            ("t_m", Json::Num(self.cfg.t_m)),
            ("shape", Json::str("serial, 1 shard")),
            ("seed", Json::UInt(self.cfg.seed)),
        ])
    }

    fn unit(&self) -> &'static str {
        "decisions"
    }

    fn production(&mut self) -> Round {
        let report =
            closed_loop_with_parallelism(&self.cfg, &self.model, 1).expect("valid serve config");
        Outcome::of(&report).round(self.requests(), Self::ADMIT_BAND)
    }

    /// `closed_loop_with_parallelism` → `replay_serial`, span by span.
    fn replica(&mut self, rec: &mut Recorder) -> Round {
        let mut unit = 0u64;
        let mut next_unit = || {
            unit += 1;
            unit - 1
        };
        let workload = rec.unit(next_unit(), Layer::SimGenerate, || {
            SessionBuilder::new()
                .engine(self.cfg.engine)
                .run(&self.load())
                .expect("valid serve config")
        });
        let mut plane = rec.unit(next_unit(), Layer::ServeReport, || {
            let make = certainty_equivalent_factory(self.cfg.p_ce, self.cfg.t_m);
            DecisionPlane::new(&self.plane_config(), make).expect("valid plane config")
        });
        let mut out: Vec<Decision> = Vec::new();
        let start = Instant::now();
        {
            let shard = &mut plane.shards_mut()[0];
            for (link, ev) in workload.canonical_events() {
                match ev {
                    LinkEvent::Measure { t, rates } => {
                        rec.unit(next_unit(), Layer::PlaneMeasure, || {
                            let event = ShardEvent::Measure {
                                link,
                                t: *t,
                                rates: rates.clone(),
                            };
                            shard.apply(event, &mut out)
                        })
                    }
                    LinkEvent::Request { .. } => rec.unit(next_unit(), Layer::PlaneRequest, || {
                        let event = ShardEvent::Request {
                            link,
                            enqueued: Some(Instant::now()),
                        };
                        shard.apply(event, &mut out)
                    }),
                }
            }
        }
        let replay_secs = start.elapsed().as_secs_f64();
        let (outcome, detail) = rec.unit(next_unit(), Layer::ServeReport, || {
            let events = workload.total_events() as u64;
            fold_outcome(&out, workload.links(), events, replay_secs)
        });
        rec.unit(next_unit(), Layer::ServeReport, || {
            drop((out, plane, workload))
        });
        let mut round = outcome.round(self.requests(), Self::ADMIT_BAND);
        round.detail_digest = detail;
        round
    }

    fn probes(&mut self) -> Vec<Probe> {
        memo_probes(self.cfg.flows_per_link, sub_seed(self.seed, 0x70_72_6f_62))
    }

    fn ring_stats(&mut self) -> Option<RingStats> {
        const SLOTS: usize = 1024;
        const LAPS: usize = 2000;
        let ring: IngestRing<u64> = IngestRing::with_capacity(SLOTS);
        let (mut push, mut pop) = (Duration::ZERO, Duration::ZERO);
        for lap in 0..LAPS {
            let start = Instant::now();
            for i in 0..SLOTS {
                black_box(ring.try_push((lap * SLOTS + i) as u64).is_ok());
            }
            push += start.elapsed();
            let start = Instant::now();
            for _ in 0..SLOTS {
                black_box(ring.try_pop());
            }
            pop += start.elapsed();
        }
        let per_op = |d: Duration| d.as_nanos() as f64 / (SLOTS * LAPS) as f64;
        let mut stats = RingStats {
            push_ns: per_op(push),
            pop_ns: per_op(pop),
            threaded_per_s: 0.0,
        };
        if nproc() < 2 {
            // Producer and shard would time-share one core.
            return Some(stats);
        }
        let workload = SessionBuilder::new()
            .engine(self.cfg.engine)
            .run(&self.load())
            .expect("valid serve config");
        let cfg = ReplayConfig {
            plane: self.plane_config(),
            producers: 1,
            stamp_latency: true,
        };
        let make = certainty_equivalent_factory(self.cfg.p_ce, self.cfg.t_m);
        let outcome = replay_threaded(&cfg, make, &workload).expect("valid replay config");
        stats.threaded_per_s = outcome.decisions as f64 / outcome.elapsed.as_secs_f64();
        Some(stats)
    }
}

// ---------------------------------------------------------------------
// serve_routed
// ---------------------------------------------------------------------

pub struct Routed {
    cfg: RoutedBenchConfig,
    model: RcbrModel,
    link_capacity: f64,
}

impl Routed {
    pub fn new(seed: u64) -> Self {
        // Every link of parking-lot:3 carries two routes of 100 flows;
        // at 213 the estimate hovers around the 201st flow, so about
        // half of the requests are admitted.
        let link_capacity = 213.0;
        Routed {
            cfg: RoutedBenchConfig {
                topology: Arc::new(Topology::parking_lot(3, link_capacity)),
                flows_per_route: 100,
                ticks: 20_000,
                requests_per_tick: 2,
                noise_sd: 0.05,
                seed: sub_seed(seed, 0x22),
                ..RoutedBenchConfig::default()
            },
            model: model(),
            link_capacity,
        }
    }

    fn requests(&self) -> u64 {
        (self.cfg.topology.routes() * self.cfg.ticks * self.cfg.requests_per_tick) as u64
    }

    const ADMIT_BAND: (f64, f64) = (0.2, 0.8);
}

impl Workload for Routed {
    fn params(&self) -> Json {
        Json::obj([
            ("model", Json::str("rcbr")),
            ("topology", Json::str("parking-lot:3")),
            ("link_capacity", Json::Num(self.link_capacity)),
            (
                "flows_per_route",
                Json::UInt(self.cfg.flows_per_route as u64),
            ),
            ("ticks", Json::UInt(self.cfg.ticks as u64)),
            ("tick", Json::Num(self.cfg.tick)),
            (
                "requests_per_tick",
                Json::UInt(self.cfg.requests_per_tick as u64),
            ),
            ("mean_holding", Json::Num(self.cfg.mean_holding)),
            ("noise_sd", Json::Num(self.cfg.noise_sd)),
            ("p_ce", Json::Num(self.cfg.p_ce)),
            ("t_m", Json::Num(self.cfg.t_m)),
            ("shape", Json::str("serial, 1 shard")),
            ("seed", Json::UInt(self.cfg.seed)),
        ])
    }

    fn unit(&self) -> &'static str {
        "decisions"
    }

    fn production(&mut self) -> Round {
        let report = routed_closed_loop_with_parallelism(&self.cfg, &self.model, 1)
            .expect("valid serve config");
        Outcome::of(&report).round(self.requests(), Self::ADMIT_BAND)
    }

    /// `routed_closed_loop_with_parallelism` → `routed_replay_serial`,
    /// span by span. A pump that finds nothing to do still costs its
    /// call, so every pump is a unit of its own.
    fn replica(&mut self, rec: &mut Recorder) -> Round {
        let mut unit = 0u64;
        let mut next_unit = || {
            unit += 1;
            unit - 1
        };
        let workload = rec.unit(next_unit(), Layer::SimGenerate, || {
            let load = RoutedLoad {
                model: &self.model,
                cfg: RoutedLoadConfig {
                    topology: Arc::clone(&self.cfg.topology),
                    flows_per_route: self.cfg.flows_per_route,
                    ticks: self.cfg.ticks,
                    tick: self.cfg.tick,
                    requests_per_tick: self.cfg.requests_per_tick,
                    mean_holding: self.cfg.mean_holding,
                    noise_sd: self.cfg.noise_sd,
                    seed: self.cfg.seed,
                },
            };
            SessionBuilder::new()
                .engine(self.cfg.engine)
                .run(&load)
                .expect("valid serve config")
        });
        let plane_cfg = RoutedPlaneConfig {
            shards: 1,
            ring_capacity: self.cfg.ring_capacity,
            metrics: MetricsMode::Disabled,
            stream: None,
        };
        let mut plane = rec.unit(next_unit(), Layer::ServeReport, || {
            let make = certainty_equivalent_factory(self.cfg.p_ce, self.cfg.t_m);
            RoutedPlane::for_workload(&plane_cfg, &workload, make).expect("valid plane config")
        });
        let topology = Arc::clone(workload.topology());
        let mut out: Vec<RouteDecision> = Vec::new();
        let start = Instant::now();
        {
            let shard = &mut plane.shards_mut()[0];
            for (link, ev) in workload.canonical_events() {
                match ev {
                    RoutedEvent::Measure { t, rates } => {
                        rec.unit(next_unit(), Layer::RoutedMeasure, || {
                            let event = RoutedShardEvent::Measure {
                                link,
                                t: *t,
                                rates: rates.clone(),
                            };
                            shard.apply(event, &mut out)
                        })
                    }
                    RoutedEvent::Request { route, seq, .. } => {
                        rec.unit(next_unit(), Layer::RoutedReserve, || {
                            let event = RoutedShardEvent::Reserve {
                                link,
                                seq: *seq,
                                hop: topology
                                    .hop_index(*route, link)
                                    .expect("request events only appear on their route's hop links")
                                    as u8,
                                enqueued: Some(Instant::now()),
                            };
                            shard.apply(event, &mut out)
                        })
                    }
                }
                while rec.unit(next_unit(), Layer::RoutedPump, || shard.pump(&mut out)) > 0 {}
            }
            while rec.unit(next_unit(), Layer::RoutedPump, || shard.pump(&mut out)) > 0 {}
            assert!(
                !shard.has_parked(),
                "a complete workload leaves no dangling reserves"
            );
        }
        let replay_secs = start.elapsed().as_secs_f64();
        let (outcome, detail) = rec.unit(next_unit(), Layer::ServeReport, || {
            let events = workload.total_events() as u64;
            fold_outcome(&out, topology.routes(), events, replay_secs)
        });
        rec.unit(next_unit(), Layer::ServeReport, || {
            drop((out, plane, workload))
        });
        let mut round = outcome.round(self.requests(), Self::ADMIT_BAND);
        round.detail_digest = detail;
        round
    }
}
