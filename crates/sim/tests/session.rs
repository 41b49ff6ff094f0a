//! Property tests on the session pipeline's determinism contract: the
//! worker count and a model's batched kernel are performance knobs,
//! never semantic ones. Any configuration must produce byte-identical
//! reports and merged metric snapshots through the builder, with the
//! kernel or with the model unbatched.

use mbac_core::admission::CertaintyEquivalent;
use mbac_sim::{ImpulsiveConfig, ImpulsiveLoad, MetricsMode, SessionBuilder};
use mbac_traffic::process::{SourceModel, Unbatched};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use proptest::prelude::*;

fn rcbr() -> RcbrModel {
    RcbrModel::new(RcbrConfig {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 1.0,
        truncate_at_zero: true,
    })
}

fn small_cfg(seed: u64, replications: usize, finite_holding: bool) -> ImpulsiveConfig {
    ImpulsiveConfig {
        capacity: 60.0,
        estimation_flows: 60,
        mean_holding: finite_holding.then_some(15.0),
        observe_times: vec![0.5, 2.0, 8.0],
        replications,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same scenario, any worker count, kernel or boxed: the report and
    /// the merged snapshot are byte-identical to the 1-worker batched
    /// reference run.
    #[test]
    fn report_and_metrics_invariant_under_workers_and_engine(
        seed in 0u64..1_000_000,
        workers in 1usize..8,
        boxed in 0u8..2,
        finite_holding in 0u8..2,
        replications in 1usize..24,
    ) {
        let (boxed, finite_holding) = (boxed == 1, finite_holding == 1);
        let model = rcbr();
        let policy = CertaintyEquivalent::from_probability(1e-2);
        let cfg = small_cfg(seed, replications, finite_holding);
        let scenario = ImpulsiveLoad::new(&cfg, &model, &policy);

        let (reference, reference_snap) = SessionBuilder::new()
            .workers(1)
            .metrics(MetricsMode::Enabled)
            .run_metered(&scenario)
            .unwrap();

        let hidden = Unbatched(&model);
        let path: &dyn SourceModel = if boxed { &hidden } else { &model };
        let (report, snap) = SessionBuilder::new()
            .workers(workers)
            .metrics(MetricsMode::Enabled)
            .run_metered(&ImpulsiveLoad::new(&cfg, path, &policy))
            .unwrap();

        prop_assert_eq!(
            format!("{reference:?}"),
            format!("{report:?}"),
            "report diverged at workers={}, boxed={}", workers, boxed
        );
        prop_assert_eq!(
            reference_snap.to_json(),
            snap.to_json(),
            "metrics diverged at workers={}, boxed={}", workers, boxed
        );
    }

    /// The sequential path is the same computation as the parallel one:
    /// `run_local` agrees byte-for-byte with `run` at any worker count.
    #[test]
    fn local_and_parallel_paths_agree(
        seed in 0u64..1_000_000,
        workers in 2usize..8,
    ) {
        let model = rcbr();
        let policy = CertaintyEquivalent::from_probability(1e-2);
        let cfg = small_cfg(seed, 8, true);
        let scenario = ImpulsiveLoad::new(&cfg, &model, &policy);

        let sequential = SessionBuilder::new().run_local(&scenario).unwrap();
        let parallel = SessionBuilder::new()
            .workers(workers)
            .run(&scenario)
            .unwrap();

        prop_assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
    }

    /// Metrics collection never perturbs the scientific result: the
    /// report is byte-identical with the sink disabled, enabled, or
    /// enabled with timing.
    #[test]
    fn metrics_mode_never_perturbs_the_report(
        seed in 0u64..1_000_000,
        workers in 1usize..5,
    ) {
        let model = rcbr();
        let policy = CertaintyEquivalent::from_probability(1e-2);
        let cfg = small_cfg(seed, 6, true);
        let scenario = ImpulsiveLoad::new(&cfg, &model, &policy);

        let run_with = |mode: MetricsMode| {
            let (report, _) = SessionBuilder::new()
                .workers(workers)
                .metrics(mode)
                .run_metered(&scenario)
                .unwrap();
            format!("{report:?}")
        };

        let off = run_with(MetricsMode::Disabled);
        prop_assert_eq!(&off, &run_with(MetricsMode::Enabled));
        prop_assert_eq!(&off, &run_with(MetricsMode::EnabledWithTiming));
    }
}
