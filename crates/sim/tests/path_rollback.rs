//! Occupancy accounting of the route rule: a request on a multi-hop
//! route admits iff every hop votes, and only an admit moves occupancy.
//! A flow voted for at hops `1..k` and rejected at hop `k+1` must leave
//! every hop's occupancy as it was — the serve plane's byte-invariance
//! contract leans on this, since a leaked provisional increment would
//! make decision bytes depend on how many rejected attempts happened to
//! precede a request.

use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::{fold_snapshot, FilteredEstimator};
use mbac_sim::network::admit_on_route;
use mbac_sim::{FlowTable, LinkAdmission, MbacController, RouteId, Topology};
use mbac_traffic::ar1::{Ar1Config, Ar1Model};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model() -> Ar1Model {
    Ar1Model::new(Ar1Config {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 1.0,
        tick: 0.05,
        clamp_at_zero: true,
    })
}

/// One link per topology link, each measured for `ticks` ticks of its
/// own 40-flow AR(1) population — deterministic in `seed`.
fn measured_links(topology: &Topology, seed: u64, ticks: usize) -> Vec<LinkAdmission> {
    let m = model();
    topology
        .link_ids()
        .map(|link| {
            let mut rng = StdRng::seed_from_u64(seed ^ link.as_u64());
            let mut table = FlowTable::new();
            for _ in 0..40 {
                table.admit(&m, f64::INFINITY, &mut rng);
            }
            let ctl = MbacController::new(
                Box::new(FilteredEstimator::new(2.0)),
                Box::new(CertaintyEquivalent::from_probability(1e-2)),
            );
            let mut admission = LinkAdmission::new(ctl, topology.capacity(link));
            let mut snap = Vec::new();
            for step in 1..=ticks {
                let t = step as f64 * 0.1;
                table.advance_to(t, &mut rng);
                table.snapshot_into(&mut snap);
                admission.measure(t, &fold_snapshot(&snap, None));
            }
            admission
        })
        .collect()
}

/// Interleaved admits and rejects on a parking lot: after every rejected
/// attempt the occupancy vector equals its pre-ask value, after every
/// admit it grows by exactly one on the route's hops and nowhere else —
/// and the tight capacity forces both outcomes to occur.
#[test]
fn interleaved_attempts_account_occupancy_exactly() {
    let topology = Topology::parking_lot(3, 45.0);
    let mut links = measured_links(&topology, 5, 80);
    let mut admits = 0usize;
    let mut rejects = 0usize;
    for attempt in 0..40 {
        let route = RouteId((attempt % topology.routes()) as u32);
        let before: Vec<u32> = links.iter().map(LinkAdmission::occupancy).collect();
        let admit = admit_on_route(&mut links, topology.route(route));
        for link in topology.link_ids() {
            let expected = if admit && topology.hop_index(route, link).is_some() {
                before[link.index()] + 1
            } else {
                before[link.index()]
            };
            assert_eq!(
                links[link.index()].occupancy(),
                expected,
                "attempt {attempt} on {route}: {link} occupancy drifted"
            );
        }
        if admit {
            admits += 1;
        } else {
            rejects += 1;
        }
    }
    assert!(admits > 0, "capacity 45 against 40 flows must admit some");
    assert!(rejects > 0, "the filling lot must eventually reject");
}
