//! The draw sequences of every batched kernel, pinned.
//!
//! Each case bulk-spawns a batch at a fixed seed, advances it through
//! steps below, inside and past RCBR thinning's coin band (`1/8 ≤ p ≤
//! 7/8`, where it decides 64 slots' coins from shared words; below it
//! the renegotiation walk runs, past it the keeper walk), departs and admits
//! flows mid-run, and folds the bits of every rate it reads — and the
//! RNG's end state — into one FNV-1a hash. A refactor of a model must
//! leave these constants alone; a change that redraws sample paths on
//! purpose re-records them and says so (DESIGN.md §9.3). The bits must
//! not depend on the target CPU either: CI runs this file for baseline
//! x86-64 as well as `native`.

use mbac_traffic::ar1::{Ar1Config, Ar1Model};
use mbac_traffic::marginal::Marginal;
use mbac_traffic::process::SourceModel;
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn rates(&mut self, rates: &[f64]) {
        self.word(rates.len() as u64);
        rates.iter().for_each(|r| self.word(r.to_bits()));
    }
}

/// Steps as multiples of the model's time-scale: below the coin band
/// (0.01, 0.05), inside it (0.25 … 2.0, across `ln 2`), and far past
/// it (50).
const STEPS: [f64; 8] = [0.01, 0.25, 0.69, 0.70, 2.0, 0.05, 50.0, 0.4];

/// The hash of `model`'s batch kernel over [`STEPS`] (scaled by
/// `scale`): 300 flows spawned in one burst, a departure and a burst of
/// 40 admissions half way, the RNG's end state last.
fn pin(model: &dyn SourceModel, scale: f64, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = model.new_batch().expect("model has a batched kernel");
    let mut hash = Fnv::new();
    batch.spawn(300, &mut rng);
    hash.rates(batch.rates());
    for (k, dt) in STEPS.into_iter().enumerate() {
        if k == STEPS.len() / 2 {
            batch.swap_remove(17);
            batch.spawn(40, &mut rng);
            hash.rates(batch.rates());
        }
        batch.advance_all(dt * scale, &mut rng);
        hash.rates(batch.rates());
    }
    hash.word(rng.next_u64());
    hash.0
}

fn rcbr(mean: f64, std_dev: f64, t_c: f64, truncate_at_zero: bool) -> RcbrModel {
    RcbrModel::new(RcbrConfig {
        mean,
        std_dev,
        t_c,
        truncate_at_zero,
    })
}

#[test]
fn rcbr_paper_source_is_pinned() {
    assert_eq!(
        pin(&RcbrModel::new(RcbrConfig::paper_default(1.0)), 1.0, 1),
        0x5b87_7498_91d6_a39b
    );
    // σ/μ = 0.5 puts a visible share of draws below zero, so the
    // truncated and untruncated kernels part ways.
    assert_eq!(
        pin(&rcbr(1.0, 0.5, 2.0, true), 2.0, 2),
        0xa474_22e9_611d_7362
    );
    assert_eq!(
        pin(&rcbr(1.0, 0.5, 2.0, false), 2.0, 3),
        0xe72f_96c9_e17f_97c2
    );
}

#[test]
fn rcbr_marginals_are_pinned() {
    let cases = [
        (
            Marginal::uniform_with_moments(1.0, 0.3),
            0x8aed_ee3c_45d9_a247,
        ),
        (
            Marginal::two_point_with_moments(1.0, 0.3),
            0x055b_85f7_40b2_c8ef,
        ),
        (
            Marginal::lognormal_with_moments(1.0, 0.3),
            0x8879_be0f_1eba_2957,
        ),
        (
            Marginal::Gaussian { mean: 1.0, sd: 0.3 },
            0x2e69_c4d0_e389_d759,
        ),
    ];
    for (k, (marginal, want)) in cases.into_iter().enumerate() {
        let model = RcbrModel::with_marginal(marginal, 1.5);
        assert_eq!(pin(&model, 1.5, 10 + k as u64), want, "{marginal:?}");
    }
}

#[test]
fn ar1_is_pinned() {
    let model = Ar1Model::new(Ar1Config {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 1.0,
        tick: 0.05,
        clamp_at_zero: true,
    });
    assert_eq!(pin(&model, 1.0, 20), 0x3955_7791_b934_f661);
}
