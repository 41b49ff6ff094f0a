//! The draw sequences of every batched kernel, pinned.
//!
//! Each case bulk-spawns a batch at a fixed seed, advances it through
//! steps on both sides of `ln 2 · T_c` (where RCBR thinning switches
//! from the renegotiation walk to the keeper walk), departs and admits
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

/// Steps as multiples of the model's time-scale: below, at and just
/// past `ln 2`, and far past it.
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
        0x6669_4438_e6c7_8148
    );
    // σ/μ = 0.5 puts a visible share of draws below zero, so the
    // truncated and untruncated kernels part ways.
    assert_eq!(
        pin(&rcbr(1.0, 0.5, 2.0, true), 2.0, 2),
        0xd988_02fd_8c32_3899
    );
    assert_eq!(
        pin(&rcbr(1.0, 0.5, 2.0, false), 2.0, 3),
        0x4d24_3df2_43c6_072a
    );
}

#[test]
fn rcbr_marginals_are_pinned() {
    let cases = [
        (
            Marginal::uniform_with_moments(1.0, 0.3),
            0x71c5_1de9_5bef_755d,
        ),
        (
            Marginal::two_point_with_moments(1.0, 0.3),
            0x11af_9b54_c4d0_409d,
        ),
        (
            Marginal::lognormal_with_moments(1.0, 0.3),
            0x83fe_e784_c078_cffd,
        ),
        (
            Marginal::Gaussian { mean: 1.0, sd: 0.3 },
            0xb154_0c66_b3a6_9d9d,
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
