//! Streaming-emission contract on the decision plane: attaching a
//! stream handle never changes what the plane computes, and the
//! cumulative interval records it emits re-fold to the plane's own
//! merged snapshot exactly — for any shard count, producer count, and
//! flush interval. A routed decision's sample is hop 0's view of its
//! record.

use mbac_metrics::{refold_intervals, StreamConfig, StreamItem, StreamSink};
use mbac_serve::{
    certainty_equivalent_factory, replay_serial, replay_threaded, PlaneConfig, ReplayConfig,
    RoutedPlaneConfig, RoutedReplayConfig,
};
use mbac_sim::{
    MetricsMode, RequestLoad, RequestLoadConfig, RoutedLoad, RoutedLoadConfig, ServeWorkload,
    SessionBuilder, Topology, Windows,
};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use proptest::prelude::*;
use std::sync::Arc;

fn workload(seed: u64, links: usize) -> ServeWorkload {
    let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let load = RequestLoad {
        model: &model,
        cfg: RequestLoadConfig {
            links,
            flows_per_link: 6,
            ticks: 20,
            tick: 0.1,
            requests_per_tick: 3,
            mean_holding: 5.0,
            seed,
        },
    };
    SessionBuilder::new().run(&load).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// With sampling at 1.0 every decision emits exactly one sample,
    /// and the final intervals (one per shard, cumulative) re-fold to
    /// the plane's merged `serve.shard<i>.*` snapshot byte-for-byte.
    #[test]
    fn serve_stream_refolds_to_plane_snapshot(
        seed in 0u64..100_000,
        shards in 1usize..5,
        producers in 1usize..4,
        flush_interval in 0u64..20,
    ) {
        let w = workload(seed, 8);
        let (sink, collected) = StreamSink::collecting(StreamConfig {
            ring_capacity: 1 << 14,
            sample_fraction: 1.0,
            flush_interval,
            ..StreamConfig::default()
        });
        let cfg = ReplayConfig {
            plane: PlaneConfig {
                shards,
                capacity: 8.0,
                ring_capacity: 64,
                metrics: MetricsMode::Streaming,
                stream: Some(sink.handle()),
            },
            producers,
            stamp_latency: false,
        };
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let out = if shards > 1 || producers > 1 {
            replay_threaded(&cfg, make, &w).unwrap()
        } else {
            replay_serial(&cfg, make, &w).unwrap()
        };
        let stats = sink.finish().unwrap();
        prop_assert_eq!(stats.dropped, 0, "oversized ring must not drop");
        prop_assert_eq!(stats.samples, out.decisions, "one sample per decision");

        let items = collected.lock().unwrap();
        let sampled = items
            .iter()
            .filter(|i| matches!(i, StreamItem::Sample { .. }))
            .count() as u64;
        prop_assert_eq!(sampled, out.decisions);
        let refolded = refold_intervals(&items);
        prop_assert_eq!(
            out.snapshot.to_json(),
            refolded.to_json(),
            "re-folded serve intervals diverged (shards={}, producers={})",
            shards,
            producers
        );
    }
}

/// On parking-lot:3 through measurement noise, sampled at 1.0, the
/// serial replay of a window emits one sample a decision, in request
/// order, and each carries its record's verdict and hop 0's admissible
/// count and occupancy after the decision — the multi-hop commits,
/// whose hop 0 parks until hop 2 resolves the request, as much as the
/// one-hop ones.
#[test]
fn routed_samples_are_hop_zero_of_their_records() {
    let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let load = RoutedLoad {
        model: &model,
        cfg: RoutedLoadConfig {
            topology: Arc::new(Topology::parking_lot(3, 14.0)),
            flows_per_route: 5,
            ticks: 40,
            tick: 0.3,
            requests_per_tick: 2,
            mean_holding: 4.0,
            noise_sd: 0.05,
            seed: 17,
        },
    };
    // The run as one window, replayed request by request: each decision
    // is emitted before the next request's first hop arrives.
    let mut windows = load.windows().unwrap();
    let mut w = windows.new_window();
    assert!(windows.next_window(usize::MAX, &mut w));
    let (sink, collected) = StreamSink::collecting(StreamConfig {
        ring_capacity: 1 << 14,
        sample_fraction: 1.0,
        ..StreamConfig::default()
    });
    let cfg = RoutedReplayConfig {
        plane: RoutedPlaneConfig {
            metrics: MetricsMode::Streaming,
            stream: Some(sink.handle()),
            ..RoutedPlaneConfig::default()
        },
        ..RoutedReplayConfig::default()
    };
    let out = replay_serial(&cfg, certainty_equivalent_factory(1e-2, 2.0), &w).unwrap();
    assert_eq!(sink.finish().unwrap().dropped, 0);
    let mut records: Vec<_> = out.sequences.iter().flatten().collect();
    records.sort_by_key(|d| d.seq);
    let items = collected.lock().unwrap();
    let mut samples: Vec<_> = items
        .iter()
        .filter_map(|item| match item {
            StreamItem::Sample { seq, fields, .. } => Some((*seq, fields)),
            StreamItem::Interval { .. } => None,
        })
        .collect();
    samples.sort_by_key(|&(seq, _)| seq);
    assert_eq!(samples.len(), records.len());
    let multi_hop = records.iter().filter(|d| d.hops.len() > 1).count();
    assert!(multi_hop > 0 && multi_hop < records.len());
    for (&(_, fields), d) in samples.iter().zip(&records) {
        let hop0 = &d.hops[0];
        let mut expected = vec![
            ("admit", f64::from(u8::from(d.admit))),
            ("occupancy", f64::from(hop0.occupancy)),
        ];
        expected.extend(hop0.admissible.map(|m| ("admissible", m)));
        let got: Vec<_> = fields.iter().collect();
        assert_eq!(got, expected, "request {}", d.seq);
    }
}
