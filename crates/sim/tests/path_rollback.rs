//! Rollback edge cases for multi-hop path admission: a flow reserved at
//! hops `1..k` and rejected at hop `k+1` must leave every hop's
//! occupancy *and* every hop controller's decision memo bit-identical
//! to never having asked. The serve plane's byte-invariance contract
//! leans on this — a rollback that perturbed the memo (or leaked a
//! provisional occupancy increment) would make decision bytes depend on
//! how many rejected attempts happened to precede a request. Mirrors
//! `decision_memo.rs`: memo-cold, memo-hot, and evicted variants.

use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::FilteredEstimator;
use mbac_core::topology::{LinkId, PathAdmission, RouteId, Topology};
use mbac_sim::{AdmissionEngine, FlowTable, MbacController};
use mbac_traffic::ar1::{Ar1Config, Ar1Model};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn controller() -> MbacController {
    MbacController::new(
        Box::new(FilteredEstimator::new(2.0)),
        Box::new(CertaintyEquivalent::from_probability(1e-2)),
    )
}

fn model() -> Ar1Model {
    Ar1Model::new(Ar1Config {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 1.0,
        tick: 0.05,
        clamp_at_zero: true,
    })
}

/// Two wide hops feeding a bottleneck: hops 0 and 1 accept (capacity 50
/// against ~40 flows), hop 2 rejects every time (capacity 2 against the
/// same population), so `decide` always reserves twice and rolls back.
fn bottleneck() -> Topology {
    Topology::new(
        vec![50.0, 50.0, 2.0],
        vec![vec![LinkId(0), LinkId(1), LinkId(2)]],
    )
    .unwrap()
}

/// One observed controller per link plus the measured occupancies —
/// deterministic in `seed`, so calling it twice yields bit-identical
/// twins (one set to path-ask, one set to leave alone).
fn observed_controllers(
    topology: &Topology,
    seed: u64,
    ticks: usize,
) -> (Vec<MbacController>, Vec<u32>) {
    let m = model();
    let mut ctls = Vec::new();
    let mut occupancies = Vec::new();
    for link in topology.link_ids() {
        let mut rng = StdRng::seed_from_u64(seed ^ link.as_u64());
        let mut table = FlowTable::new();
        for _ in 0..40 {
            table.admit(&m, f64::INFINITY, &mut rng);
        }
        let mut ctl = controller();
        let mut snap = Vec::new();
        for step in 1..=ticks {
            let t = step as f64 * 0.1;
            table.advance_to(t, &mut rng);
            table.snapshot_into(&mut snap);
            AdmissionEngine::observe(&mut ctl, t, &snap);
        }
        occupancies.push(table.len() as u32);
        ctls.push(ctl);
    }
    (ctls, occupancies)
}

/// The admissible-count bit patterns of every hop at its own capacity.
fn memo_bits(topology: &Topology, ctls: &[MbacController]) -> Vec<Option<u64>> {
    topology
        .link_ids()
        .map(|link| {
            MbacController::admissible_count(&ctls[link.index()], topology.capacity(link))
                .map(f64::to_bits)
        })
        .collect()
}

/// Runs one rejected path attempt and asserts it left no trace: the
/// shared skeleton of the memo-cold/hot/evicted variants. `prepare` is
/// applied identically to the asked set and the never-asked twins
/// before the attempt, setting up the desired memo state.
fn assert_rejection_leaves_no_trace(prepare: impl Fn(&Topology, &[MbacController])) {
    let topology = bottleneck();
    let (ctls, measured) = observed_controllers(&topology, 17, 80);
    let (twins, twin_measured) = observed_controllers(&topology, 17, 80);
    assert_eq!(measured, twin_measured, "twin populations diverged");

    prepare(&topology, &ctls);
    prepare(&topology, &twins);

    let mut path = PathAdmission::for_topology(&topology);
    for link in topology.link_ids() {
        path.sync(link, measured[link.index()]);
    }
    let before: Vec<u32> = topology.link_ids().map(|l| path.occupancy(l)).collect();

    let decision = path.decide(&topology, RouteId(0), &mut |link: LinkId, c: f64| {
        MbacController::admissible_count(&ctls[link.index()], c)
    });

    // Hops 0 and 1 were reserved, hop 2 rejected, everything rolled back.
    assert!(!decision.admit);
    assert_eq!(decision.reject_hop, Some(2));
    for (k, report) in decision.hops.iter().enumerate() {
        assert_eq!(
            report.occupancy, before[k],
            "hop {k} report must show the restored (pre-ask) occupancy"
        );
    }
    for link in topology.link_ids() {
        assert_eq!(
            path.occupancy(link),
            before[link.index()],
            "{link} occupancy changed across a rejected attempt"
        );
    }
    // The asked controllers answer with the exact bits of twins that
    // were never path-asked — the memo carries no trace of the attempt.
    assert_eq!(
        memo_bits(&topology, &ctls),
        memo_bits(&topology, &twins),
        "a rejected path attempt perturbed the decision memo"
    );
}

/// Memo-cold: the attempt is the first admissible-count query after the
/// last observation, so `decide` itself populates the memo. The
/// post-rollback bits must equal a never-asked twin's first query.
#[test]
fn rejected_path_leaves_cold_memo_bit_identical() {
    assert_rejection_leaves_no_trace(|_, _| {});
}

/// Memo-hot: every hop's memo is pre-warmed at its own capacity, so
/// `decide` hits the memo at each hop. The hit must not dirty it.
#[test]
fn rejected_path_leaves_hot_memo_bit_identical() {
    assert_rejection_leaves_no_trace(|topology, ctls| {
        for link in topology.link_ids() {
            let _ = MbacController::admissible_count(&ctls[link.index()], topology.capacity(link));
        }
    });
}

/// Evicted: the memo holds one entry; warming at the hop capacity and
/// then querying a different one evicts it, so `decide` recomputes the
/// quadratic at each hop. The recompute-after-rollback must still land
/// on the twin's bits.
#[test]
fn rejected_path_recomputes_evicted_memo_bit_identically() {
    assert_rejection_leaves_no_trace(|topology, ctls| {
        for link in topology.link_ids() {
            let c = topology.capacity(link);
            let _ = MbacController::admissible_count(&ctls[link.index()], c);
            let _ = MbacController::admissible_count(&ctls[link.index()], c + 7.0);
        }
    });
}

/// Interleaved admits and rejects on a parking lot: after every rejected
/// attempt the occupancy vector equals its pre-ask value, after every
/// admit it grows by exactly one on the route's hops and nowhere else —
/// and the tight capacity forces both outcomes to occur.
#[test]
fn interleaved_attempts_account_occupancy_exactly() {
    let topology = Topology::parking_lot(3, 45.0);
    let (ctls, measured) = observed_controllers(&topology, 5, 80);
    let mut path = PathAdmission::for_topology(&topology);
    for link in topology.link_ids() {
        path.sync(link, measured[link.index()]);
    }
    let mut admits = 0usize;
    let mut rejects = 0usize;
    for attempt in 0..40 {
        let route = RouteId((attempt % topology.routes()) as u32);
        let before: Vec<u32> = topology.link_ids().map(|l| path.occupancy(l)).collect();
        let decision = path.decide(&topology, route, &mut |link: LinkId, c: f64| {
            MbacController::admissible_count(&ctls[link.index()], c)
        });
        for link in topology.link_ids() {
            let expected = if decision.admit && topology.hop_index(route, link).is_some() {
                before[link.index()] + 1
            } else {
                before[link.index()]
            };
            assert_eq!(
                path.occupancy(link),
                expected,
                "attempt {attempt} on {route}: {link} occupancy drifted"
            );
        }
        if decision.admit {
            admits += 1;
        } else {
            rejects += 1;
        }
    }
    assert!(admits > 0, "capacity 45 against 40 flows must admit some");
    assert!(rejects > 0, "the filling lot must eventually reject");
}
