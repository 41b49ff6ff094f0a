//! The noisy fold's law and its draws.
//!
//! `fold_noisy` draws a node's measurement noise as its effect on the
//! fold. Here it is held to the rule it replaces — a Gaussian per flow,
//! clamped at zero, then folded — in distribution: two-sample KS and
//! 4σ moment tests on `Σx` and `Σ(x−c)²`, over 10⁴ measurements of
//! each, on RCBR rates, on on–off rates with zeros, on a link whose
//! rates are all equal and on one with fewer than four unguarded flows,
//! around the first flow's measured rate and around an external pivot.
//! Its χ² sampler is held to sums of squared Gaussians the same way.
//! And its draws are pinned: the bits of the moments and the RNG's end
//! state, hashed with FNV-1a, for fixed rate vectors. A refactor must
//! leave the constants alone; a change that redraws on purpose
//! re-records them and says so (DESIGN.md §9.3). CI runs this file for
//! baseline x86-64 as well as `native`.

use mbac_num::rng::{chi_squared, standard_normal};
use mbac_num::{fold_noisy, RateMoments, SnapshotMoments};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Measurements drawn by each side of a comparison.
const DRAWS: usize = 10_000;

/// The noise standard deviation the serve benchmark measures through.
const SD: f64 = 0.05;

/// The rule `fold_noisy` replaces: every rate measured through its own
/// `N(0, sd²)` draw and clamped at zero, then folded around `pivot` or
/// the first measured rate.
fn per_flow(rates: &[f64], pivot: Option<f64>, sd: f64, rng: &mut StdRng) -> SnapshotMoments {
    let measured: Vec<f64> = rates
        .iter()
        .map(|r| (r + sd * standard_normal(rng)).max(0.0))
        .collect();
    let pivot = pivot.or(measured.first().copied()).unwrap_or(0.0);
    RateMoments::of(pivot, &measured).reduce()
}

/// Two-sample Kolmogorov–Smirnov statistic `sup |F_a − F_b|`.
fn ks(mut a: Vec<f64>, mut b: Vec<f64>) -> f64 {
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    let (mut i, mut j, mut d) = (0, 0, 0.0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
    }
    d
}

/// Mean, variance and the standard error of the variance
/// (`√((μ₄ − σ⁴)/n)`).
fn moments(xs: &[f64]) -> (f64, f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
    (mean, var, ((m4 - var * var) / n).sqrt())
}

/// `a` and `b` are draws of one law: KS at the 10⁻⁴ level, and means and
/// variances within 4 standard errors of each other.
fn same_law(a: Vec<f64>, b: Vec<f64>, what: &str) {
    let (ma, va, va_se) = moments(&a);
    let (mb, vb, vb_se) = moments(&b);
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let mean_se = (va / na + vb / nb).sqrt();
    assert!(
        (ma - mb).abs() <= 4.0 * mean_se,
        "{what}: means {ma} vs {mb} (se {mean_se})"
    );
    let var_se = (va_se * va_se + vb_se * vb_se).sqrt();
    assert!(
        (va - vb).abs() <= 4.0 * var_se,
        "{what}: variances {va} vs {vb} (se {var_se})"
    );
    // c(α) = √(−ln(α/2)/2) at α = 10⁻⁴.
    let critical = (-(0.5e-4f64).ln() / 2.0).sqrt() * ((na + nb) / (na * nb)).sqrt();
    let d = ks(a, b);
    assert!(d < critical, "{what}: KS D = {d} >= {critical}");
}

/// 200 rates of the paper's RCBR marginal, `N(1, 0.3²)` truncated at
/// zero: about one in eight sits below the clamp guard at `SD`.
fn rcbr_rates() -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(0x5243_4252);
    (0..200)
        .map(|_| loop {
            let r = 1.0 + 0.3 * standard_normal(&mut rng);
            if r >= 0.0 {
                break r;
            }
        })
        .collect()
}

/// 120 on–off rates: peak 2 with probability 0.4, otherwise silent —
/// the zeros take the per-flow draw, the peaks the fold's.
fn on_off_rates() -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(0x4F4E_4F46);
    (0..120)
        .map(|_| if rng.gen::<f64>() < 0.4 { 2.0 } else { 0.0 })
        .collect()
}

/// The cases the law is checked on: a name, the rates, and the external
/// pivot. All-equal rates leave no part of `r − c` orthogonal to `1`;
/// the short link has two unguarded flows besides its pivot flow, three
/// with the external pivot, so every flow draws its own noise.
fn cases() -> Vec<(&'static str, Vec<f64>, f64)> {
    vec![
        ("rcbr", rcbr_rates(), 0.97),
        ("on-off", on_off_rates(), 0.8),
        ("all-equal", vec![1.0; 50], 1.0),
        ("short", vec![1.0, 0.2, 0.3, 1.2, 0.1, 2.0], 0.8),
    ]
}

/// `Σx` and `Σ(x − c)²` of `DRAWS` measurements of `rates` by `fold`.
fn statistics(
    rates: &[f64],
    pivot: Option<f64>,
    seed: u64,
    fold: impl Fn(&[f64], Option<f64>, f64, &mut StdRng) -> SnapshotMoments,
) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..DRAWS)
        .map(|_| {
            let m = fold(rates, pivot, SD, &mut rng);
            assert_eq!(m.count(), rates.len());
            (m.sum(), m.sum_sq_dev(m.pivot()))
        })
        .unzip()
}

#[test]
fn the_fold_has_the_law_of_per_flow_noise() {
    for (name, rates, external) in cases() {
        for pivot in [None, Some(external)] {
            let (sum_a, sq_a) = statistics(&rates, pivot, 1, per_flow);
            let whole =
                |rates: &[f64], pivot, sd, rng: &mut StdRng| fold_noisy(&[rates], pivot, sd, rng);
            let (sum_b, sq_b) = statistics(&rates, pivot, 2, whole);
            let what = format!("{name}, pivot {pivot:?}");
            same_law(sum_a, sum_b, &format!("{what}: Σx"));
            same_law(sq_a, sq_b, &format!("{what}: Σ(x−c)²"));
        }
    }
}

/// `χ²_k` is the law of `k` squared standard Gaussians.
#[test]
fn chi_squared_is_a_sum_of_squared_gaussians() {
    let mut rng = StdRng::seed_from_u64(0x4348_4932);
    for k in [1usize, 2, 3, 50, 200] {
        let sampled: Vec<f64> = (0..DRAWS).map(|_| chi_squared(&mut rng, k)).collect();
        let summed: Vec<f64> = (0..DRAWS)
            .map(|_| (0..k).map(|_| standard_normal(&mut rng).powi(2)).sum())
            .collect();
        same_law(sampled, summed, &format!("χ² with k = {k}"));
    }
}

/// Without noise nothing is drawn, and the fold is the noiseless one.
#[test]
fn zero_noise_draws_nothing() {
    for (name, rates, external) in cases() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut untouched = rng.clone();
        let window = fold_noisy(&[&rates], None, 0.0, &mut rng);
        assert_eq!(window, RateMoments::of(rates[0], &rates).reduce(), "{name}");
        let around = fold_noisy(&[&rates], Some(external), 0.0, &mut rng);
        assert_eq!(around, RateMoments::of(external, &rates).reduce(), "{name}");
        assert_eq!(rng.next_u64(), untouched.next_u64(), "{name}: drew");
    }
    let empty = fold_noisy(&[], None, SD, &mut StdRng::seed_from_u64(7));
    let empty_parts = fold_noisy(&[&[], &[]], None, SD, &mut StdRng::seed_from_u64(7));
    assert_eq!(empty_parts, SnapshotMoments::default());
    assert_eq!(empty, SnapshotMoments::default());
}

/// A NaN or ±∞ rate, on either side of the clamp guard, leaves the
/// fold non-finite, as it leaves a noiseless one.
#[test]
fn a_non_finite_rate_makes_the_fold_non_finite() {
    let mut rng = StdRng::seed_from_u64(11);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for at in [0, 1, 100] {
            let mut rates = rcbr_rates();
            rates[at] = bad;
            for pivot in [None, Some(0.97)] {
                let m = fold_noisy(&[&rates], pivot, SD, &mut rng);
                assert!(!m.is_finite(), "{bad} at {at}, pivot {pivot:?}");
            }
        }
    }
}

/// A link reads its crossing routes' rates where they lie: any split of
/// the rates into parts, empty ones anywhere included, gives the bits of
/// the whole and leaves the stream where the whole does, with and
/// without noise and pivot.
#[test]
fn a_fold_in_parts_is_the_fold_of_their_concatenation() {
    for (name, rates, external) in cases() {
        let n = rates.len();
        let splits: [&[usize]; 5] = [&[0], &[1], &[n / 3, n / 2], &[0, 0, 1, n - 1], &[n, n]];
        for pivot in [None, Some(external)] {
            for sd in [0.0, SD] {
                let mut rng = StdRng::seed_from_u64(0x5041_5254);
                let whole = fold_noisy(&[&rates], pivot, sd, &mut rng);
                for cuts in splits {
                    let mut parts = Vec::new();
                    let mut from = 0;
                    for &cut in cuts {
                        parts.push(&rates[from..cut]);
                        from = cut;
                    }
                    parts.push(&rates[from..]);
                    let mut split = StdRng::seed_from_u64(0x5041_5254);
                    let folded = fold_noisy(&parts, pivot, sd, &mut split);
                    let what = format!("{name}, cuts {cuts:?}, pivot {pivot:?}, sd {sd}");
                    assert_eq!(format!("{folded:?}"), format!("{whole:?}"), "{what}");
                    assert_eq!(split.next_u64(), rng.clone().next_u64(), "{what}: drew");
                }
            }
        }
    }
}

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The hash of 64 successive measurements of `rates` on one stream —
/// each one's `Debug` form, which prints all five numbers round-trip
/// exactly — and of the RNG's end state.
fn pin(rates: &[f64], pivot: Option<f64>) -> u64 {
    let mut rng = StdRng::seed_from_u64(0x4E4F_4953);
    let mut hash = Fnv::new();
    for _ in 0..64 {
        let m = fold_noisy(&[rates], pivot, SD, &mut rng);
        hash.bytes(format!("{m:?}").as_bytes());
    }
    hash.bytes(&rng.next_u64().to_le_bytes());
    hash.0
}

#[test]
fn noisy_fold_draws_are_pinned() {
    let pins = [
        pin(&rcbr_rates(), None),
        pin(&rcbr_rates(), Some(0.97)),
        pin(&on_off_rates(), None),
        pin(&on_off_rates(), Some(0.8)),
    ];
    let want = [
        0xdb9a_9d52_d9f2_6beb,
        0x7914_66a5_b95d_14bd,
        0x1d0e_594a_e230_1623,
        0x9478_13ca_6c72_4170,
    ];
    assert_eq!(pins, want, "{pins:#018x?}");
}
