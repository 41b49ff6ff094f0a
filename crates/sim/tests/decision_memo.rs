//! Regression suite for the O(1) decision memo: the memoized
//! admissible count must be the *identical* f64 the policy quadratic
//! would return — across memo-cold vs memo-hot calls and across memo
//! eviction and re-entry. A memo that returned a recomputed-but-rounded
//! value would silently break the serve plane's byte-identical
//! invariance contract.

use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::FilteredEstimator;
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

/// Evolves an AR(1) population for `ticks` measurement ticks and, after
/// each observation, queries the admissible count twice (memo-cold:
/// the estimate just changed; memo-hot: identical key). Returns the
/// `(cold, hot)` bit patterns per tick.
fn run_ticks(ticks: usize, capacity: f64) -> Vec<(u64, u64)> {
    let m = model();
    let mut rng = StdRng::seed_from_u64(99);
    let mut table = FlowTable::new();
    for _ in 0..40 {
        table.admit(&m, f64::INFINITY, &mut rng);
    }
    let mut ctl = controller();
    let mut out = Vec::with_capacity(ticks);
    for step in 1..=ticks {
        let t = step as f64 * 0.1;
        let mom = table.advance_depart_measure(t, &mut rng, ctl.moment_pivot());
        ctl.observe_moments(t, &mom);
        let cold = MbacController::admissible_count(&ctl, capacity).unwrap();
        let hot = MbacController::admissible_count(&ctl, capacity).unwrap();
        out.push((cold.to_bits(), hot.to_bits()));
    }
    out
}

/// Memo-hot answers are bit-identical to the memo-cold computation
/// they cached, at every tick.
#[test]
fn memo_hot_is_bit_identical_to_cold() {
    for (step, (cold, hot)) in run_ticks(150, 50.0).into_iter().enumerate() {
        assert_eq!(cold, hot, "memo hit diverged at tick {step}");
    }
}

/// The memo holds one entry: cycling capacities evicts it, and
/// re-asking the first capacity recomputes the quadratic — which must
/// land on the identical bits the first (memoized) answer had.
#[test]
fn memo_eviction_and_recompute_are_bit_stable() {
    let m = model();
    let mut rng = StdRng::seed_from_u64(7);
    let mut table = FlowTable::new();
    for _ in 0..30 {
        table.admit(&m, f64::INFINITY, &mut rng);
    }
    let mut ctl = controller();
    let mut snap = Vec::new();
    for step in 1..=60 {
        let t = step as f64 * 0.1;
        table.advance_to(t, &mut rng);
        table.snapshot_into(&mut snap);
        AdmissionEngine::observe(&mut ctl, t, &snap);
        let first = MbacController::admissible_count(&ctl, 50.0).unwrap();
        // Evict the (μ̂, σ̂², 50) entry with a different capacity...
        let other = MbacController::admissible_count(&ctl, 60.0).unwrap();
        assert!(other > first, "more capacity must admit more flows");
        // ...then the recomputed quadratic must reproduce the bits.
        let again = MbacController::admissible_count(&ctl, 50.0).unwrap();
        assert_eq!(
            first.to_bits(),
            again.to_bits(),
            "recompute diverged from memo at tick {step}"
        );
    }
}
