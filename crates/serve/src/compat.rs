//! The materialised workloads' replay, kept for the names the frozen
//! `benchmark/` binds and for the tests; production replays windows.
//!
//! A run materialised by a session ([`ServeWorkload`],
//! [`RoutedWorkload`]) is replayed in its canonical order: the links'
//! streams merged round-robin by event index. That is a second order
//! beside a window's — a tick's snapshots, then its requests — with the
//! same per-link order, so the invariance suites hold the windows to it.
//! A routed run's route table is laid out from the whole run's
//! seq → route map ([`RoutedPlane::for_workload`]).

use crate::plane::{
    ControllerFactory, DecisionPlane, PlaneConfig, ServeError, ShardEvent, SingleHop,
};
use crate::replay::{Ingest, Replay, Stamps};
use crate::routed::{RouteTable, RoutedPlane, RoutedPlaneConfig, RoutedShardEvent, TwoPhase};
use mbac_core::topology::{hop_u8, LinkId};
use mbac_sim::{LinkEvent, RoutedEvent, RoutedWorkload, ServeWorkload};
use std::time::Instant;

impl Replay for ServeWorkload {
    type PlaneConfig = PlaneConfig;

    fn one_shard(cfg: &PlaneConfig) -> PlaneConfig {
        PlaneConfig {
            shards: 1,
            ..cfg.clone()
        }
    }

    fn plane(
        &self,
        cfg: &PlaneConfig,
        make: ControllerFactory,
    ) -> Result<DecisionPlane, ServeError> {
        DecisionPlane::new(cfg, make)
    }

    fn groups(&self) -> usize {
        self.links()
    }
}

/// A materialised run is replayed in its canonical order
/// ([`ServeWorkload::canonical_events`]).
impl Ingest for ServeWorkload {
    type Logic = SingleHop;

    fn events(&self) -> u64 {
        self.total_events() as u64
    }

    fn ingest(
        &self,
        stamps: &mut Stamps,
        keep: impl Fn(LinkId) -> bool,
    ) -> impl Iterator<Item = ShardEvent> {
        self.canonical_events()
            .filter(move |&(link, _)| keep(link))
            .map(move |(link, ev)| match *ev {
                LinkEvent::Measure { t, rates } => ShardEvent::Measure { link, t, rates },
                LinkEvent::Request { .. } => ShardEvent::Request {
                    link,
                    enqueued: stamps.take().then(Instant::now),
                },
            })
    }
}

impl RoutedPlane {
    /// Builds a plane sized for `workload`, a whole run: its route table
    /// is laid out from the run's seq → route map, and each shard learns
    /// the topology's capacities.
    pub fn for_workload(
        cfg: &RoutedPlaneConfig,
        workload: &RoutedWorkload,
        make: ControllerFactory,
    ) -> Result<Self, ServeError> {
        let topology = workload.topology();
        let mut table = RouteTable::default();
        table.hold(topology, 0, workload.request_routes().iter().copied());
        Self::with_table(cfg, topology, table, make)
    }
}

impl Replay for RoutedWorkload {
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
        RoutedPlane::for_workload(cfg, self, make)
    }

    fn groups(&self) -> usize {
        self.topology().routes()
    }
}

impl Ingest for RoutedWorkload {
    type Logic = TwoPhase;

    fn events(&self) -> u64 {
        self.total_events() as u64
    }

    fn ingest(
        &self,
        stamps: &mut Stamps,
        keep: impl Fn(LinkId) -> bool,
    ) -> impl Iterator<Item = RoutedShardEvent> {
        self.canonical_events()
            .filter(move |&(link, _)| keep(link))
            .map(move |(link, ev)| match ev {
                RoutedEvent::Measure { t, rates } => RoutedShardEvent::Measure {
                    link,
                    t: *t,
                    rates: *rates,
                },
                RoutedEvent::Request { route, seq, .. } => {
                    let hop = hop_u8(
                        self.topology()
                            .hop_index(*route, link)
                            .expect("request events only appear on their route's hop links"),
                    );
                    RoutedShardEvent::Reserve {
                        link,
                        seq: *seq,
                        hop,
                        enqueued: (hop == 0 && stamps.take()).then(Instant::now),
                    }
                }
            })
    }
}
