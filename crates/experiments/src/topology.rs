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
use mbac_sim::{RouteStats, RoutedNetworkConfig, RoutedNetworkLoad, SessionBuilder, Topology};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use std::sync::Arc;

/// Per-link capacity, in mean-rate units (`n` per link).
const N: f64 = 16.0;

/// Mean flow holding time `T_h`.
const T_H: f64 = 10.0;

/// Certainty-equivalent target used per hop (kept loose enough for the
/// quick-budget runs to resolve).
const P_CE: f64 = 1e-2;

/// The two swept shapes, by row id.
fn shape(topo_id: usize) -> (&'static str, Topology) {
    match topo_id {
        0 => ("parking-lot:3", Topology::parking_lot(3, N)),
        _ => ("star:4", Topology::star(4, N)),
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

/// The `topology` entry: `{parking-lot(3), star(4)} × T_m/T̃_h`, each
/// point an independent closed-loop routed network run of the budget's
/// measurement ticks, with the shapes' ids and the budget as a note.
pub(crate) fn topology(b: &Budget) -> Outcome {
    let ticks = b.pick(8000, 300);
    let t_h_tilde = T_H / N.sqrt();
    // 0 = memoryless.
    let points: Vec<(usize, f64)> = (0..2)
        .flat_map(|id| [0.0, 0.25, 0.5, 1.0, 2.0, 4.0].map(|ratio| (id, ratio)))
        .collect();
    let rows = parallel_map(points, |&(topo_id, ratio)| {
        let model = RcbrModel::new(RcbrConfig {
            mean: paper::MEAN,
            std_dev: paper::COV * paper::MEAN,
            t_c: 1.0,
            truncate_at_zero: true,
        });
        let t_m = ratio * t_h_tilde;
        let ticks = ticks as usize;
        let cfg = RoutedNetworkConfig {
            topology: Arc::new(shape(topo_id).1),
            ticks,
            tick: 0.25,
            warmup_ticks: ticks / 4,
            // A warm start well under capacity: the closed loop fills
            // the rest through admissions (the hub of the star sums
            // every route's seed, so keep it low).
            initial_flows_per_route: 3,
            mean_holding: T_H,
            attempts_per_tick: 2,
            noise_sd: 0.0,
            t_m,
            p_ce: P_CE,
            replications: 4,
            seed: 0x7070 + topo_id as u64 * 1000 + (ratio * 100.0) as u64,
        };
        let load = RoutedNetworkLoad { model: &model, cfg };
        let report = SessionBuilder::new()
            .run(&load)
            .expect("valid sweep config");
        let links = &report.per_link;
        let mean_util = links.iter().map(|l| l.utilization).sum::<f64>() / links.len() as f64;
        // Route 0 is the multi-hop one: the long parking-lot route, a
        // leg-plus-hub route on the star.
        let rest = &report.per_route[1..];
        let other_block = if rest.is_empty() {
            0.0
        } else {
            rest.iter().map(blocked_share).sum::<f64>() / rest.len() as f64
        };
        vec![
            topo_id as f64,
            ratio,
            t_m,
            report.max_pf(),
            P_CE,
            mean_util,
            blocked_share(&report.per_route[0]),
            other_block,
        ]
    });
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
    for row in rows {
        table.push(row);
    }
    let shapes = (0..2).map(|id| format!("{id} = {}", shape(id).0));
    let note = format!(
        "topo_id {}; {ticks} ticks x 4 replications a point",
        shapes.collect::<Vec<_>>().join(", ")
    );
    Outcome::new(vec![("topology", table)], vec![note])
}
