//! The tick kernel's fold against the slice path it replaced.
//!
//! Every estimator observes a tick as the moments the kernel folds
//! while it advances the flows, around the estimator's own
//! `moment_pivot()`. Before that, three of the five estimators took the
//! tick as a rate snapshot, folded around its first rate. This suite
//! keeps that old path as a test-local reference and holds the kernel
//! path to it on RCBR and AR(1) populations with departures: means
//! bit-equal (`Σx` does not depend on the pivot) and variances within
//! 1e-12 relative (only the pivot of the second moment differs).

use mbac_core::estimators::{
    fold_snapshot, AggregateOnlyEstimator, Estimator, FilteredEstimator, MemorylessEstimator,
    PriorSmoothedEstimator, WindowEstimator,
};
use mbac_core::params::FlowStats;
use mbac_num::rng::exponential;
use mbac_sim::FlowTable;
use mbac_traffic::ar1::{Ar1Config, Ar1Model};
use mbac_traffic::process::SourceModel;
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TICK: f64 = 0.1;
const TICKS: usize = 300;

/// A table of 200 flows of `model`, admitted at `t = 0` with
/// exponential holding times of mean 50: about half depart in the run.
fn table(model: &dyn SourceModel, rng: &mut StdRng) -> FlowTable {
    let mut table = FlowTable::new();
    for _ in 0..200 {
        let departs = exponential(rng, 50.0);
        table.admit(model, departs, rng);
    }
    table
}

/// The five estimators, fresh.
fn estimators() -> Vec<(&'static str, Box<dyn Estimator>)> {
    vec![
        ("memoryless", Box::new(MemorylessEstimator::new())),
        ("filtered", Box::new(FilteredEstimator::new(2.0))),
        ("window", Box::new(WindowEstimator::new(4.0))),
        (
            "prior-smoothed",
            Box::new(PriorSmoothedEstimator::new(
                FlowStats::from_mean_sd(1.0, 0.3),
                50.0,
            )),
        ),
        ("aggregate-only", Box::new(AggregateOnlyEstimator::new(2.0))),
    ]
}

/// Drives each estimator over the same run twice — (a) the kernel's
/// fold, (b) the old slice path — on two tables from one seed, and
/// compares the estimates after every tick.
fn kernel_matches_slice_path(model: &dyn SourceModel, seed: u64) {
    for ((name, mut by_kernel), (_, mut by_slice)) in estimators().into_iter().zip(estimators()) {
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let mut a = table(model, &mut rng_a);
        let mut b = table(model, &mut rng_b);
        let mut snapshot = Vec::new();
        for step in 1..=TICKS {
            let t = step as f64 * TICK;
            let mom = a.advance_depart_measure(t, &mut rng_a, by_kernel.moment_pivot());
            by_kernel.observe_moments(t, &mom.reduce());

            b.advance_to(t, &mut rng_b);
            b.depart_until(t);
            b.snapshot_into(&mut snapshot);
            by_slice.observe_moments(t, &fold_snapshot(&snapshot, None));

            assert_eq!(a.len(), b.len(), "{name}: tick {step}");
            let (Some(got), Some(want)) = (by_kernel.estimate(), by_slice.estimate()) else {
                panic!("{name}: no estimate at tick {step}");
            };
            assert_eq!(
                got.mean.to_bits(),
                want.mean.to_bits(),
                "{name}: mean at tick {step}: {} vs {}",
                got.mean,
                want.mean
            );
            let tol = 1e-12 * want.variance.abs();
            assert!(
                (got.variance - want.variance).abs() <= tol,
                "{name}: variance at tick {step}: {} vs {}",
                got.variance,
                want.variance
            );
        }
        assert!(a.departed_total() > 0, "{name}: no departure exercised");
        assert!(!a.is_empty(), "{name}: the table emptied");
    }
}

#[test]
fn every_estimator_reads_the_kernel_fold_as_the_slice_path() {
    let rcbr = RcbrModel::new(RcbrConfig::paper_default(1.0));
    kernel_matches_slice_path(&rcbr, 11);
    let ar1 = Ar1Model::new(Ar1Config {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 1.0,
        tick: TICK,
        clamp_at_zero: true,
    });
    kernel_matches_slice_path(&ar1, 12);
}
