//! The headline correctness property of the decision plane: **shard
//! invariance**. For any shard count, any producer count, and either
//! flow engine, the sharded plane's per-link admit/reject sequence —
//! including the admissible counts, compared bit for bit through the
//! canonical byte encoding — equals the single-threaded single-shard
//! serial reference. Sharding and threading are performance knobs,
//! never semantic ones (the serve-side extension of the worker-
//! invariance contract in `crates/sim/tests/session.rs`).

use mbac_metrics::MetricValue;
use mbac_serve::{
    certainty_equivalent_factory, replay_serial, replay_threaded, PlaneConfig, ReplayConfig,
};
use mbac_sim::{
    Engine, MetricsMode, RequestLoad, RequestLoadConfig, ServeWorkload, SessionBuilder,
};
use mbac_traffic::ar1::{Ar1Config, Ar1Model};
use mbac_traffic::process::SourceModel;
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use proptest::prelude::*;
use std::sync::Arc;

fn model(ar1: bool) -> Box<dyn SourceModel> {
    if ar1 {
        Box::new(Ar1Model::new(Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick: 0.05,
            clamp_at_zero: true,
        }))
    } else {
        Box::new(RcbrModel::new(RcbrConfig::paper_default(1.0)))
    }
}

fn workload(
    seed: u64,
    links: usize,
    ticks: usize,
    requests_per_tick: usize,
    engine: Engine,
    ar1: bool,
) -> ServeWorkload {
    let m = model(ar1);
    let load = RequestLoad {
        model: m.as_ref(),
        cfg: RequestLoadConfig {
            links,
            flows_per_link: 6,
            ticks,
            tick: 0.3,
            requests_per_tick,
            mean_holding: 4.0,
            seed,
        },
    };
    SessionBuilder::new().engine(engine).run(&load).unwrap()
}

fn replay_cfg(shards: usize, producers: usize, ring_capacity: usize) -> ReplayConfig {
    ReplayConfig {
        plane: PlaneConfig {
            shards,
            capacity: 8.0,
            ring_capacity,
            metrics: MetricsMode::Enabled,
            stream: None,
        },
        producers,
        stamp_latency: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any `(shards, producers, engine, model, workload shape)`: the
    /// per-link decision bytes equal the serial reference's. The tiny
    /// ring capacity keeps the backpressure path on the hot side of the
    /// property.
    #[test]
    fn sharded_decisions_match_serial_reference(
        seed in 0u64..1_000_000,
        links in 1usize..6,
        shards in 1usize..=8,
        producers in 1usize..4,
        ring_pow in 3u32..7,
        ticks in 4usize..14,
        requests_per_tick in 0usize..4,
        ar1 in 0u8..2,
        boxed in 0u8..2,
        memoryless in 0u8..2,
    ) {
        let engine = if boxed == 1 { Engine::Boxed } else { Engine::Batched };
        let w = workload(seed, links, ticks, requests_per_tick, engine, ar1 == 1);
        let t_m = if memoryless == 1 { 0.0 } else { 2.0 };
        let make = certainty_equivalent_factory(1e-2, t_m);

        // The reference is always the batched-engine workload: engine
        // choice must not leak into the workload either.
        let w_ref = workload(seed, links, ticks, requests_per_tick, Engine::Batched, ar1 == 1);
        let reference = replay_serial(&replay_cfg(1, 1, 64), Arc::clone(&make), &w_ref).unwrap();
        let sharded = replay_threaded(&replay_cfg(shards, producers, 1 << ring_pow), make, &w).unwrap();

        prop_assert_eq!(sharded.decisions, reference.decisions);
        for link in 0..w.links() {
            prop_assert_eq!(
                sharded.encode(link),
                reference.encode(link),
                "link {} diverged at shards={}, producers={}, engine={:?}",
                link, shards, producers, engine
            );
        }
    }
}

/// The acceptance sweep, deterministically: every shard count 1..=8
/// (threaded, 2 producers) reproduces the serial reference byte-for-
/// byte on a fixed workload.
#[test]
fn every_shard_count_matches_serial_reference() {
    let w = workload(42, 5, 20, 3, Engine::Batched, false);
    let make = certainty_equivalent_factory(1e-2, 2.0);
    let reference = replay_serial(&replay_cfg(1, 1, 64), Arc::clone(&make), &w).unwrap();
    assert!(reference.admitted > 0 && reference.rejected() > 0);
    for shards in 1..=8 {
        let sharded = replay_threaded(&replay_cfg(shards, 2, 32), Arc::clone(&make), &w).unwrap();
        assert_eq!(sharded.decisions, reference.decisions);
        for link in 0..w.links() {
            assert_eq!(
                sharded.encode(link),
                reference.encode(link),
                "link {link} diverged at {shards} shards"
            );
        }
    }
}

/// The per-shard `serve.*` counters account for every decision exactly
/// once, for any shard count: the shard partition is total and
/// disjoint.
#[test]
fn shard_counters_partition_the_decisions() {
    let w = workload(7, 4, 15, 2, Engine::Batched, false);
    let make = certainty_equivalent_factory(1e-2, 2.0);
    for shards in [1, 3, 8] {
        let out = replay_threaded(&replay_cfg(shards, 2, 32), Arc::clone(&make), &w).unwrap();
        let counter = |name: &str| -> u64 {
            (0..shards)
                .map(
                    |s| match out.snapshot.get(&format!("serve.shard{s}.{name}")) {
                        Some(MetricValue::Counter(c)) => c.count,
                        None => 0,
                        other => panic!("{other:?}"),
                    },
                )
                .sum()
        };
        assert_eq!(counter("requests"), out.decisions, "{shards} shards");
        assert_eq!(counter("admitted"), out.admitted);
        assert_eq!(counter("rejected"), out.rejected());
        assert_eq!(
            counter("measures") as usize,
            w.total_events() - w.total_requests()
        );
        // Timing-gated histogram must be absent in plain Enabled mode.
        assert!(out.snapshot.get("serve.shard0.decision_ns").is_none());
    }
}
