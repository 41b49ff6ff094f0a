//! Report pins of the closed-loop routed network simulator.
//!
//! [`RoutedNetworkLoad`] composes per-link admission into a route rule:
//! a route admits iff every hop accepts, and only an admit moves
//! occupancy. These constants hash the whole report — every link's
//! `pf`, `utilization` and `occupancy` bits, every route's admitted and
//! blocked counts — of small runs on a parking lot and a star, with and
//! without per-node measurement noise, into one FNV-1a value each. A
//! refactor of the route rule, the link rule or the measurement path
//! must pass them unchanged; the bits must not depend on the target CPU
//! either (CI repeats this file for baseline x86-64).

use mbac_sim::{
    RoutedNetworkConfig, RoutedNetworkLoad, RoutedNetworkReport, SessionBuilder, Topology,
};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use std::sync::Arc;

/// FNV-1a over 64-bit words, byte by byte.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn report_hash(report: &RoutedNetworkReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(report.replications as u64);
    for link in &report.per_link {
        for v in [link.pf, link.utilization, link.occupancy] {
            h.word(v.to_bits());
        }
    }
    for route in &report.per_route {
        h.word(route.admitted);
        h.word(route.blocked);
    }
    h.0
}

fn run(topology: Topology, noise_sd: f64) -> RoutedNetworkReport {
    let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let load = RoutedNetworkLoad {
        model: &model,
        cfg: RoutedNetworkConfig {
            topology: Arc::new(topology),
            ticks: 300,
            tick: 0.25,
            warmup_ticks: 75,
            initial_flows_per_route: 3,
            mean_holding: 10.0,
            attempts_per_tick: 2,
            noise_sd,
            t_m: 5.0,
            p_ce: 1e-2,
            replications: 2,
            seed: 0x7070,
        },
    };
    SessionBuilder::new().run(&load).unwrap()
}

#[test]
fn routed_network_reports_are_pinned() {
    let cases = [
        ("parking-lot:3", 0.0, 0x5f07_2074_3a9f_b820_u64),
        ("parking-lot:3", 0.05, 0xc707_a950_b464_2776),
        ("star:4", 0.0, 0xb978_ba8f_f2b9_13bf),
        ("star:4", 0.05, 0xbdd4_7a5e_acc8_18f9),
    ];
    for (shape, noise_sd, pinned) in cases {
        let topology = match shape {
            "parking-lot:3" => Topology::parking_lot(3, 16.0),
            _ => Topology::star(4, 16.0),
        };
        let report = run(topology, noise_sd);
        // Both outcomes occur, so the pin covers the admit and the
        // block path alike.
        let admitted: u64 = report.per_route.iter().map(|r| r.admitted).sum();
        let blocked: u64 = report.per_route.iter().map(|r| r.blocked).sum();
        assert!(
            admitted > 0 && blocked > 0,
            "{shape}: {:?}",
            report.per_route
        );
        let got = report_hash(&report);
        assert_eq!(got, pinned, "{shape}, noise {noise_sd}: {got:#018x}");
    }
}
