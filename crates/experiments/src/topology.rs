//! The multi-hop topology experiment: does the robust memory rule
//! `T_m = T̃_h` survive path composition?
//!
//! The paper's analysis is single-link: one estimator, one capacity,
//! one admission decision. On a routed network each link runs its own
//! measurement-based controller and a flow is admitted only when
//! *every* hop on its route accepts — shared links see correlated load
//! from routes they have in common, and a multi-hop flow couples the
//! occupancy of links whose estimators never exchange a byte. The sweep
//! asks whether the single-link sizing rule, applied hop by hop, still
//! pins the *worst link's* overflow probability near the target, on the
//! two canonical shapes:
//!
//! * **parking-lot(3)** — one 3-hop route crossing three links, plus
//!   single-hop cross traffic on each link (the classic fairness/
//!   composition stress shape);
//! * **star(4)** — four 2-hop routes, each crossing its own access leg
//!   and the shared hub (the aggregation stress shape: the hub carries
//!   every route).
//!
//! Each grid point is a closed-loop [`RoutedNetworkLoad`] run: per-link
//! certainty-equivalent controllers at memory `T_m = ratio · T̃_h`,
//! continuous admission pressure on every route, overflow counted per
//! link. The headline comparison is `max_pf` vs `ratio` — the paper's
//! fig-5 shape (steep improvement up to the knee at the critical
//! time-scale, flat beyond) should reappear per *network*, not just per
//! link, if the rule composes.

use crate::output::Table;
use crate::runner::Outcome;
use crate::{paper, parallel_map, Budget};
use mbac_sim::{
    RouteStats, RoutedNetworkConfig, RoutedNetworkLoad, RoutedNetworkReport, SessionBuilder,
    Topology,
};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use std::sync::Arc;

/// The `T_m / T̃_h` grid of the sweep (0 = memoryless).
pub const TOPOLOGY_RATIOS: [f64; 6] = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0];

/// Per-link capacity, in mean-rate units (`n` per link).
pub const TOPOLOGY_N: f64 = 16.0;

/// Mean flow holding time `T_h`.
pub const TOPOLOGY_T_H: f64 = 10.0;

/// Certainty-equivalent target used per hop (kept loose enough for the
/// smoke-budget runs to resolve).
pub const TOPOLOGY_P_CE: f64 = 1e-2;

/// The two swept shapes, by row id.
pub fn topology_shape(topo_id: usize) -> (&'static str, Topology) {
    match topo_id {
        0 => ("parking-lot:3", Topology::parking_lot(3, TOPOLOGY_N)),
        _ => ("star:4", Topology::star(4, TOPOLOGY_N)),
    }
}

/// One grid point of the topology sweep.
pub struct TopologyRow {
    /// Shape id (0 = parking-lot(3), 1 = star(4)).
    pub topo_id: usize,
    /// `T_m` as a fraction of the critical time-scale `T̃_h`.
    pub t_m_ratio: f64,
    /// The memory window itself.
    pub t_m: f64,
    /// The folded network report.
    pub report: RoutedNetworkReport,
}

impl TopologyRow {
    /// Mean utilization across links.
    pub fn mean_utilization(&self) -> f64 {
        let links = self.report.per_link.len() as f64;
        self.report
            .per_link
            .iter()
            .map(|l| l.utilization)
            .sum::<f64>()
            / links
    }

    /// Blocked fraction of route 0 — the multi-hop route (the long
    /// parking-lot route; a leg-plus-hub route on the star).
    pub fn long_route_block(&self) -> f64 {
        blocked_share(&self.report.per_route[0])
    }

    /// Mean blocked fraction over the remaining routes.
    pub fn other_routes_block(&self) -> f64 {
        let rest = &self.report.per_route[1..];
        if rest.is_empty() {
            return 0.0;
        }
        rest.iter().map(blocked_share).sum::<f64>() / rest.len() as f64
    }
}

/// The share of `route`'s attempts it blocked (0 with none).
fn blocked_share(route: &RouteStats) -> f64 {
    let total = route.admitted + route.blocked;
    if total > 0 {
        route.blocked as f64 / total as f64
    } else {
        0.0
    }
}

/// The sweep: `{parking-lot(3), star(4)} × TOPOLOGY_RATIOS`, each point
/// an independent closed-loop routed network run of `ticks` measurement
/// ticks (the Monte Carlo budget knob).
pub fn topology_rows(ticks: u64) -> Vec<TopologyRow> {
    let t_h_tilde = TOPOLOGY_T_H / TOPOLOGY_N.sqrt();
    let mut points = Vec::new();
    for topo_id in 0..2 {
        for &ratio in &TOPOLOGY_RATIOS {
            points.push((topo_id, ratio));
        }
    }
    parallel_map(points, move |&(topo_id, ratio)| {
        let (_, topology) = topology_shape(topo_id);
        let model = RcbrModel::new(RcbrConfig {
            mean: paper::MEAN,
            std_dev: paper::COV * paper::MEAN,
            t_c: 1.0,
            truncate_at_zero: true,
        });
        let t_m = ratio * t_h_tilde;
        let ticks = ticks as usize;
        let cfg = RoutedNetworkConfig {
            topology: Arc::new(topology),
            ticks,
            tick: 0.25,
            warmup_ticks: ticks / 4,
            // A warm start well under capacity: the closed loop fills
            // the rest through admissions (the hub of the star sums
            // every route's seed, so keep it low).
            initial_flows_per_route: 3,
            mean_holding: TOPOLOGY_T_H,
            attempts_per_tick: 2,
            noise_sd: 0.0,
            t_m,
            p_ce: TOPOLOGY_P_CE,
            replications: 4,
            seed: 0x7070 + topo_id as u64 * 1000 + (ratio * 100.0) as u64,
        };
        let load = RoutedNetworkLoad { model: &model, cfg };
        let report = SessionBuilder::new()
            .run(&load)
            .expect("valid sweep config");
        TopologyRow {
            topo_id,
            t_m_ratio: ratio,
            t_m,
            report,
        }
    })
}

/// The `results/topology.csv` layout.
pub fn topology_table(rows: &[TopologyRow]) -> Table {
    let mut table = Table::new(vec![
        "topo_id",
        "tm_over_thtilde",
        "t_m",
        "max_pf",
        "target",
        "mean_util",
        "long_route_block",
        "other_routes_block",
    ]);
    for r in rows {
        table.push(vec![
            r.topo_id as f64,
            r.t_m_ratio,
            r.t_m,
            r.report.max_pf(),
            TOPOLOGY_P_CE,
            r.mean_utilization(),
            r.long_route_block(),
            r.other_routes_block(),
        ]);
    }
    table
}

/// The `topology` entry, with the shapes' ids and the budget.
pub(crate) fn topology(b: &Budget) -> Outcome {
    let ticks = b.pick(8000, 400);
    let rows = topology_rows(ticks);
    let shapes = (0..2).map(|id| format!("{id} = {}", topology_shape(id).0));
    let note = format!(
        "topo_id {}; {ticks} ticks x 4 replications a point",
        shapes.collect::<Vec<_>>().join(", ")
    );
    Outcome::new(vec![("topology", topology_table(&rows))], vec![note])
}
