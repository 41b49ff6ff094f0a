//! Property-based tests for the traffic sources.

use mbac_traffic::ar1::{Ar1Batch, Ar1Config, Ar1Source};
use mbac_traffic::batch::FlowBatch;
use mbac_traffic::fgn::fgn_autocovariance;
use mbac_traffic::marginal::Marginal;
use mbac_traffic::process::{RateProcess, SourceModel};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use mbac_traffic::trace::Trace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Every marginal's sample mean/variance constructors are honest.
    #[test]
    fn marginal_constructors_hit_moments(mean in 0.6f64..5.0, cov in 0.05f64..0.45) {
        let sd = mean * cov;
        for m in [
            Marginal::uniform_with_moments(mean, sd),
            Marginal::two_point_with_moments(mean, sd),
            Marginal::lognormal_with_moments(mean, sd),
        ] {
            prop_assert!((m.mean() - mean).abs() < 1e-9 * mean, "{m:?}");
            prop_assert!((m.variance() - sd * sd).abs() < 1e-9 * sd * sd, "{m:?}");
        }
    }

    /// Marginal samples stay inside their support.
    #[test]
    fn marginal_samples_in_support(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = Marginal::Uniform { lo: 0.5, hi: 2.0 };
        let t = Marginal::TwoPoint { low: 0.3, high: 1.9, p_high: 0.4 };
        for _ in 0..100 {
            let x = u.sample(&mut rng);
            prop_assert!((0.5..2.0).contains(&x));
            let y = t.sample(&mut rng);
            prop_assert!((y - 0.3).abs() < 1e-12 || (y - 1.9).abs() < 1e-12);
        }
    }

    /// fGn autocovariance is a valid correlation sequence: γ(0) = 1,
    /// |γ(k)| ≤ 1, and positive/decaying for H > 1/2.
    #[test]
    fn fgn_covariance_sane(h in 0.05f64..0.95, k in 1usize..500) {
        let g = fgn_autocovariance(h, k);
        prop_assert!(g.abs() <= 1.0 + 1e-12, "γ({k}) = {g}");
        if h > 0.5 {
            prop_assert!(g > 0.0);
            prop_assert!(g <= fgn_autocovariance(h, k.max(2) - 1) + 1e-12, "decay at {k}");
        }
    }

    /// On–off fluids: stationary activity and moments follow the rates,
    /// and the correlation time is `1/(λ + μ)`.
    #[test]
    fn on_off_moments(peak in 0.5f64..10.0, on in 0.1f64..5.0, off in 0.1f64..5.0) {
        let m = RcbrModel::on_off(peak, on, off);
        let p = on / (on + off);
        let Marginal::TwoPoint { p_high, .. } = m.marginal() else {
            panic!("an on–off flow has a two-point marginal");
        };
        prop_assert!((p_high - p).abs() < 1e-9);
        prop_assert!((m.mean() - p * peak).abs() < 1e-9);
        prop_assert!((m.variance() - p * (1.0 - p) * peak * peak).abs() < 1e-9);
        let src = m.spawn(&mut StdRng::seed_from_u64(7));
        let rho = (-(1.0 / on + 1.0 / off)).exp();
        prop_assert!((src.autocorrelation(1.0).unwrap() - rho).abs() < 1e-12);
    }

    /// Generalized RCBR reports the marginal's analytic moments.
    #[test]
    fn general_rcbr_moments_consistent(mean in 0.6f64..3.0, cov in 0.05f64..0.4, t_c in 0.1f64..10.0) {
        let m = RcbrModel::with_marginal(Marginal::uniform_with_moments(mean, mean * cov), t_c);
        prop_assert!((m.mean() - mean).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(7);
        let src = m.spawn(&mut rng);
        prop_assert_eq!(src.autocorrelation(t_c), Some((-1.0f64).exp()));
    }

    /// Trace playback position always lands in a valid slot.
    #[test]
    fn trace_playback_in_bounds(
        rates in proptest::collection::vec(0.0f64..10.0, 1..50),
        steps in 1usize..200,
        dt in 0.01f64..10.0,
        seed in 0u64..100,
    ) {
        let trace = std::sync::Arc::new(Trace::new(rates.clone(), 1.0));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut src = mbac_traffic::trace::TraceSource::new(trace, &mut rng);
        for _ in 0..steps {
            src.advance(dt, &mut rng);
            let r = src.rate();
            prop_assert!(rates.contains(&r), "rate {r} not from the trace");
        }
    }

    /// Classic RCBR model moments match config.
    #[test]
    fn rcbr_model_reports_config(mean in 0.5f64..4.0, sd in 0.0f64..1.0, t_c in 0.1f64..10.0) {
        let m = RcbrModel::new(RcbrConfig { mean, std_dev: sd, t_c, truncate_at_zero: false });
        prop_assert_eq!(m.mean(), mean);
        prop_assert!((m.variance() - sd * sd).abs() < 1e-12);
    }

    /// `Ar1Batch` is bit-exact with the same flows as boxed
    /// `Ar1Source`s — identical rates after every advance, identical
    /// RNG end state — for fewer than, exactly and many more than eight
    /// flows, advances that cross no tick boundary, one, a few and 70,
    /// both clamp settings, flows all in one tick phase and, after a
    /// mid-tick departure and admissions, in mixed phases.
    #[test]
    fn ar1_batched_matches_boxed_bit_exact(
        seed in 0u64..400,
        n_pick in 0usize..3,
        extra in 0usize..12,
        clamp in 0usize..2,
        tick_picks in proptest::collection::vec(0usize..4, 6),
    ) {
        let cfg = Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick: 0.05,
            clamp_at_zero: clamp == 1,
        };
        let dts: Vec<f64> = tick_picks
            .iter()
            .map(|&i| [0.4, 1.0, 5.0, 70.0][i] * cfg.tick)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut boxed_rng = rng.clone();
        let mut batch = Ar1Batch::new(cfg);
        let mut boxed: Vec<Ar1Source> = Vec::new();
        let advance = |batch: &mut Ar1Batch,
                       boxed: &mut [Ar1Source],
                       dt: f64,
                       rng: &mut StdRng,
                       boxed_rng: &mut StdRng| {
            batch.advance_all(dt, rng);
            for f in boxed.iter_mut() {
                f.advance(dt, boxed_rng);
            }
            let rate_bits: Vec<u64> = batch.rates().iter().map(|r| r.to_bits()).collect();
            let boxed_bits: Vec<u64> = boxed.iter().map(|f| f.rate().to_bits()).collect();
            assert_eq!(rate_bits, boxed_bits, "after dt = {dt}");
        };

        for _ in 0..[7, 8, 69][n_pick] {
            batch.spawn(1, &mut rng);
            boxed.push(Ar1Source::new(cfg, &mut boxed_rng));
        }
        for &dt in &dts[..3] {
            advance(&mut batch, &mut boxed, dt, &mut rng, &mut boxed_rng);
        }
        // Move the phase off zero, then remove a flow and spawn
        // newcomers at phase zero, so flows now cross different numbers
        // of tick boundaries in one advance.
        advance(&mut batch, &mut boxed, 1.4 * cfg.tick, &mut rng, &mut boxed_rng);
        batch.swap_remove(0);
        boxed.swap_remove(0);
        for _ in 0..extra {
            batch.spawn(1, &mut rng);
            boxed.push(Ar1Source::new(cfg, &mut boxed_rng));
        }
        for &dt in &dts[3..] {
            advance(&mut batch, &mut boxed, dt, &mut rng, &mut boxed_rng);
        }
        prop_assert_eq!(rng, boxed_rng);
    }
}
