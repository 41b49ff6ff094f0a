//! Shard invariance, extended to routed workloads: for any shard count
//! 1..=8, any producer count, a model on its kernel or unbatched, and
//! any of the
//! reference topologies (single-link, parking-lot, star), the sharded
//! routed plane's per-route decision sequence — votes, admissible
//! counts, occupancies, bit for bit through the canonical encoding —
//! equals the single-threaded serial reference. And on a single-link
//! topology the routed protocol must reproduce the *legacy* plane's
//! decision bytes exactly: the multi-hop machinery is a strict
//! generalization, not a re-bless.

use mbac_metrics::MetricValue;
use mbac_serve::{
    certainty_equivalent_factory, replay_serial, replay_threaded, PlaneConfig, ReplayConfig,
    RoutedPlaneConfig, RoutedReplayConfig,
};
use mbac_sim::{
    MetricsMode, RequestLoad, RequestLoadConfig, RoutedLoad, RoutedLoadConfig, RoutedWorkload,
    SessionBuilder, Topology,
};
use mbac_traffic::ar1::{Ar1Config, Ar1Model};
use mbac_traffic::process::{SourceModel, Unbatched};
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

/// The acceptance topologies: single-link (the degenerate case that
/// must match the legacy plane), the 3-hop parking lot, the 4-leg star.
fn topology(kind: usize) -> Topology {
    match kind {
        0 => Topology::one_hop_links(1, 8.0),
        1 => Topology::parking_lot(3, 14.0),
        // The hub aggregates all four legs' routes (20 steady flows),
        // so its capacity sits just past the acceptance boundary.
        _ => Topology::star(4, 26.0),
    }
}

fn workload(
    seed: u64,
    topo: Topology,
    ticks: usize,
    requests_per_tick: usize,
    noise_sd: f64,
    boxed: bool,
    ar1: bool,
) -> RoutedWorkload {
    let m = model(ar1);
    let hidden = Unbatched(m.as_ref());
    let load = RoutedLoad {
        model: if boxed { &hidden } else { m.as_ref() },
        cfg: RoutedLoadConfig {
            topology: Arc::new(topo),
            flows_per_route: 5,
            ticks,
            tick: 0.3,
            requests_per_tick,
            mean_holding: 4.0,
            noise_sd,
            seed,
        },
    };
    SessionBuilder::new().run(&load).unwrap()
}

fn replay_cfg(shards: usize, producers: usize, ring_capacity: usize) -> RoutedReplayConfig {
    RoutedReplayConfig {
        plane: RoutedPlaneConfig {
            shards,
            ring_capacity,
            metrics: MetricsMode::Enabled,
            stream: None,
        },
        producers,
        stamp_latency: false,
    }
}

fn assert_routes_match(
    sharded: &mbac_serve::RoutedReplayOutcome,
    reference: &mbac_serve::RoutedReplayOutcome,
    routes: usize,
    label: &str,
) {
    assert_eq!(sharded.decisions, reference.decisions, "{label}");
    for route in 0..routes {
        assert_eq!(
            sharded.encode(route),
            reference.encode(route),
            "route {route} diverged: {label}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any `(topology, shards, producers, path, model, noise)`: the
    /// per-route decision bytes equal the serial reference's. The tiny
    /// ring capacity keeps backpressure — and therefore parking — on
    /// the hot side of the property.
    #[test]
    fn sharded_routed_decisions_match_serial_reference(
        seed in 0u64..1_000_000,
        topo_kind in 0usize..3,
        shards in 1usize..=8,
        producers in 1usize..4,
        ring_pow in 3u32..7,
        ticks in 4usize..14,
        requests_per_tick in 0usize..4,
        noisy in 0u8..2,
        ar1 in 0u8..2,
        boxed in 0u8..2,
        memoryless in 0u8..2,
    ) {
        let noise_sd = if noisy == 1 { 0.05 } else { 0.0 };
        let w = workload(seed, topology(topo_kind), ticks, requests_per_tick, noise_sd, boxed == 1, ar1 == 1);
        let t_m = if memoryless == 1 { 0.0 } else { 2.0 };
        let make = certainty_equivalent_factory(1e-2, t_m);

        // The reference is always the workload generated on the
        // kernels: the boxed path must not leak into the workload either.
        let w_ref = workload(seed, topology(topo_kind), ticks, requests_per_tick, noise_sd, false, ar1 == 1);
        let reference = replay_serial(&replay_cfg(1, 1, 64), Arc::clone(&make), &w_ref).unwrap();
        let sharded = replay_threaded(&replay_cfg(shards, producers, 1 << ring_pow), make, &w).unwrap();

        prop_assert_eq!(sharded.decisions, reference.decisions);
        for route in 0..w.topology().routes() {
            prop_assert_eq!(
                sharded.encode(route),
                reference.encode(route),
                "route {} diverged at topo={}, shards={}, producers={}",
                route, topo_kind, shards, producers
            );
        }
    }
}

/// The acceptance sweep, deterministically: every shard count 1..=8
/// (threaded, 2 producers) reproduces the serial reference byte for
/// byte, on every reference topology.
#[test]
fn every_shard_count_matches_serial_reference_on_every_topology() {
    for topo_kind in 0..3 {
        let w = workload(42, topology(topo_kind), 20, 3, 0.05, false, false);
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let reference = replay_serial(&replay_cfg(1, 1, 64), Arc::clone(&make), &w).unwrap();
        assert!(
            reference.admitted > 0 && reference.rejected() > 0,
            "topology {topo_kind} must exercise both outcomes"
        );
        for shards in 1..=8 {
            let sharded =
                replay_threaded(&replay_cfg(shards, 2, 32), Arc::clone(&make), &w).unwrap();
            assert_routes_match(
                &sharded,
                &reference,
                w.topology().routes(),
                &format!("topology {topo_kind}, {shards} shards"),
            );
        }
    }
}

/// `links` disjoint links on the single-hop plane against the same
/// links as one-hop routes (`routed_cfg`) on the two-phase plane: every
/// link's decision bytes must be equal, serially and for each sharded
/// shape in `shards` (2 producers).
fn assert_one_hop_routes_reproduce_legacy_bytes(
    legacy_cfg: &RequestLoadConfig,
    routed_cfg: RoutedLoadConfig,
    shards: &[usize],
) {
    let m = model(false);
    let legacy_load = RequestLoad {
        model: m.as_ref(),
        cfg: legacy_cfg.clone(),
    };
    let legacy_w = SessionBuilder::new().run(&legacy_load).unwrap();
    let legacy = replay_serial(
        &ReplayConfig {
            plane: PlaneConfig {
                shards: 1,
                capacity: 8.0,
                ring_capacity: 64,
                metrics: MetricsMode::Disabled,
                stream: None,
            },
            producers: 1,
            stamp_latency: false,
        },
        certainty_equivalent_factory(1e-2, 2.0),
        &legacy_w,
    )
    .unwrap();
    assert!(legacy.admitted > 0 && legacy.rejected() > 0);

    let routed_load = RoutedLoad {
        model: m.as_ref(),
        cfg: routed_cfg,
    };
    let routed_w = SessionBuilder::new().run(&routed_load).unwrap();
    let make = certainty_equivalent_factory(1e-2, 2.0);
    let serial = replay_serial(&replay_cfg(1, 1, 64), Arc::clone(&make), &routed_w).unwrap();
    assert_eq!(serial.decisions, legacy.decisions);
    for link in 0..legacy_cfg.links {
        assert_eq!(serial.encode(link), legacy.encode(link), "link {link}");
    }
    // And through the sharded path (per-link hashing may place a link
    // on any shard).
    for &shards in shards {
        let sharded =
            replay_threaded(&replay_cfg(shards, 2, 32), Arc::clone(&make), &routed_w).unwrap();
        for link in 0..legacy_cfg.links {
            assert_eq!(
                sharded.encode(link),
                legacy.encode(link),
                "link {link}, {shards} shards"
            );
        }
    }
}

fn legacy_cfg(links: usize) -> RequestLoadConfig {
    RequestLoadConfig {
        links,
        flows_per_link: 6,
        ticks: 20,
        tick: 0.3,
        requests_per_tick: 3,
        mean_holding: 4.0,
        seed: 44,
    }
}

/// The degenerate case is not allowed to drift: on a single-link
/// topology, the routed protocol must reproduce the **legacy** plane's
/// decision bytes exactly — same workload bits, same decision bits —
/// without re-blessing anything. Hop 0's encoding *is* the legacy
/// encoding.
#[test]
fn single_link_routed_decisions_reproduce_legacy_bytes() {
    let legacy_cfg = legacy_cfg(1);
    let routed_cfg = RoutedLoadConfig::one_hop_links(8.0, &legacy_cfg);
    assert_one_hop_routes_reproduce_legacy_bytes(&legacy_cfg, routed_cfg, &[2, 5, 8]);
}

/// The same identity for several disjoint links — the shape of the
/// harness's `serve_links` workload: route `r` is the one hop over link
/// `r`, so the two-phase plane must decide every link exactly as the
/// single-hop plane does.
#[test]
fn disjoint_links_routed_decisions_reproduce_legacy_bytes() {
    let legacy_cfg = legacy_cfg(5);
    let routed_cfg = RoutedLoadConfig::one_hop_links(8.0, &legacy_cfg);
    assert_one_hop_routes_reproduce_legacy_bytes(&legacy_cfg, routed_cfg, &[3, 8]);
}

/// The deterministic sweep above runs RCBR sources; this pins the same
/// serial ≡ sharded identity for AR(1) flows (the batched tick kernel)
/// with measurement noise on a multi-hop topology.
#[test]
fn routed_ar1_decisions_match_serial_reference() {
    let w = workload(7, topology(1), 15, 2, 0.05, false, true);
    let make = certainty_equivalent_factory(1e-2, 2.0);
    let serial = replay_serial(&replay_cfg(1, 1, 64), Arc::clone(&make), &w).unwrap();
    let sharded = replay_threaded(&replay_cfg(4, 2, 32), make, &w).unwrap();
    assert_routes_match(&sharded, &serial, w.topology().routes(), "ar1, 4 shards");
}

/// The routed counters account for everything exactly once, for any
/// shard count: decisions partition across shards, and every per-link
/// reserve either committed or aborted.
#[test]
fn routed_counters_partition_the_decisions() {
    let topo = topology(1); // parking-lot(3): 3 links, 4 routes
    let w = workload(7, topo, 15, 2, 0.0, false, false);
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
        // Per-link: every reserve resolves to a commit or an abort, and
        // the reserve total counts each request once per hop.
        let net_counter = |link: usize, name: &str| -> u64 {
            match out.snapshot.get(&format!("net.link{link}.{name}")) {
                Some(MetricValue::Counter(c)) => c.count,
                other => panic!("net.link{link}.{name}: {other:?}"),
            }
        };
        let mut reserves = 0;
        for link in 0..3 {
            assert_eq!(
                net_counter(link, "commits") + net_counter(link, "aborts"),
                net_counter(link, "reserves"),
                "link {link} at {shards} shards"
            );
            reserves += net_counter(link, "reserves");
        }
        // parking-lot(3): route 0 reserves 3 hops, each cross route 1.
        let per_request_hops: u64 = out
            .sequences
            .iter()
            .enumerate()
            .map(|(r, ds)| ds.len() as u64 * if r == 0 { 3 } else { 1 })
            .sum();
        assert_eq!(reserves, per_request_hops, "{shards} shards");
    }
}

/// FNV-1a over every route's decision bytes, each led by its length.
fn decision_hash(out: &mbac_serve::RoutedReplayOutcome, routes: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for route in 0..routes {
        let bytes = out.encode(route);
        for &byte in (bytes.len() as u64).to_le_bytes().iter().chain(&bytes) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The suites above compare the plane with itself, and the legacy-bytes
/// tests cover one-hop topologies only. These constants pin the serial
/// decision bytes of the multi-hop shapes, where one-hop and multi-hop
/// routes share links: a change to how either resolves that moves every
/// shard count alike fails here.
#[test]
fn mixed_topology_decision_bytes_are_pinned() {
    let cases = [
        (1, 0.0, 0x32c4_bb22_3d49_144c_u64),
        (1, 0.05, 0xff82_b72e_b0bf_aa7b),
        (2, 0.0, 0xcb84_88b3_2ecc_7ad0),
        (2, 0.05, 0x9a02_b9aa_1290_92c6),
    ];
    let make = certainty_equivalent_factory(1e-2, 2.0);
    for (topo_kind, noise_sd, pinned) in cases {
        let w = workload(29, topology(topo_kind), 30, 3, noise_sd, false, false);
        let out = replay_serial(&replay_cfg(1, 1, 64), Arc::clone(&make), &w).unwrap();
        assert!(
            out.admitted > 0 && out.rejected() > 0,
            "topology {topo_kind}"
        );
        assert_eq!(
            decision_hash(&out, w.topology().routes()),
            pinned,
            "topology {topo_kind}, noise {noise_sd}: {:#018x}",
            decision_hash(&out, w.topology().routes())
        );
    }
}
