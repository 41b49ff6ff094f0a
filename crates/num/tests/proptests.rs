//! Property-based tests for the numerics substrate.

use mbac_num::complex::Complex64;
use mbac_num::fft::{fft, ifft};
use mbac_num::{brent, erf, erfc, integrate, parallel_map_with_stats, q, quantile, RunningStats};
use proptest::prelude::*;

/// The type-7 quantile as `mbac_num::quantile` computed it before it
/// became a selection: clone, full sort, interpolate.
fn quantile_by_sort(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let h = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

proptest! {
    /// erf is odd and bounded; erf + erfc = 1.
    #[test]
    fn erf_identities(x in -20.0f64..20.0) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-14);
        prop_assert!(erf(x).abs() <= 1.0);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
    }

    /// erf is strictly increasing where f64 can resolve it: beyond
    /// |x| ≈ 4.5 the function is within one ulp of ±1 and a small step
    /// produces no representable change, so the strict check is
    /// restricted to |a| ≤ 4 (erf'(4)·1e-6 ≈ 1.3e-13 ≫ ulp(1.0)).
    #[test]
    fn erf_monotone(a in -4.0f64..4.0, delta in 1e-6f64..3.0) {
        prop_assert!(erf(a + delta) > erf(a));
    }

    /// Q is a survival function: decreasing, in [0, 1].
    #[test]
    fn q_is_survival(a in -10.0f64..10.0, delta in 1e-6f64..3.0) {
        let qa = q(a);
        prop_assert!((0.0..=1.0).contains(&qa));
        prop_assert!(q(a + delta) <= qa);
    }

    /// Quadrature is linear: ∫(αf + βg) = α∫f + β∫g (polynomials).
    #[test]
    fn quadrature_linearity(
        alpha in -3.0f64..3.0,
        beta in -3.0f64..3.0,
        c1 in -2.0f64..2.0,
        c2 in -2.0f64..2.0,
    ) {
        let f = |x: f64| c1 * x * x + 1.0;
        let g = |x: f64| c2 * x - 0.5;
        let lhs = integrate(|x| alpha * f(x) + beta * g(x), -1.0, 2.0, 1e-11).value;
        let rhs = alpha * integrate(f, -1.0, 2.0, 1e-11).value
            + beta * integrate(g, -1.0, 2.0, 1e-11).value;
        prop_assert!((lhs - rhs).abs() < 1e-8, "lhs {lhs} rhs {rhs}");
    }

    /// Brent finds the root of any strictly increasing cubic.
    #[test]
    fn brent_roots_increasing_cubics(
        root in -5.0f64..5.0,
        scale in 0.1f64..4.0,
    ) {
        let f = |x: f64| scale * ((x - root) + 0.2 * (x - root).powi(3));
        let r = brent(f, -20.0, 20.0, 1e-12, 200).unwrap();
        prop_assert!((r.x - root).abs() < 1e-8, "found {} want {root}", r.x);
    }

    /// FFT round-trips arbitrary signals.
    #[test]
    fn fft_roundtrip(values in proptest::collection::vec(-100.0f64..100.0, 1..65)) {
        let n = values.len().next_power_of_two();
        let mut x: Vec<Complex64> =
            values.iter().map(|&v| Complex64::new(v, -0.5 * v)).collect();
        x.resize(n, Complex64::ZERO);
        let back = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    /// Parseval holds for arbitrary signals.
    #[test]
    fn fft_parseval(values in proptest::collection::vec(-10.0f64..10.0, 2..40)) {
        let n = values.len().next_power_of_two();
        let mut x: Vec<Complex64> = values.iter().map(|&v| Complex64::from_real(v)).collect();
        x.resize(n, Complex64::ZERO);
        let spec = fft(&x);
        let e_time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((e_time - e_freq).abs() < 1e-8 * (1.0 + e_time));
    }

    /// Welford merging is order-independent (up to fp tolerance).
    #[test]
    fn welford_merge_commutes(
        xs in proptest::collection::vec(-100.0f64..100.0, 1..30),
        ys in proptest::collection::vec(-100.0f64..100.0, 1..30),
    ) {
        let fill = |v: &[f64]| {
            let mut s = RunningStats::new();
            for &x in v {
                s.push(x);
            }
            s
        };
        let mut ab = fill(&xs);
        ab.merge(&fill(&ys));
        let mut ba = fill(&ys);
        ba.merge(&fill(&xs));
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-7 * (1.0 + ab.variance()));
        prop_assert_eq!(ab.count(), ba.count());
    }

    /// The instrumented pool returns outputs identical to sequential
    /// evaluation for any worker count, and its accounting covers every
    /// item exactly once.
    #[test]
    fn pool_stats_account_for_all_items(n in 0usize..90, workers in 1usize..6) {
        let items: Vec<u64> = (0..n as u64).collect();
        let want: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761) ^ 0x5A).collect();
        let (got, stats) =
            parallel_map_with_stats(items, |&x| x.wrapping_mul(2654435761) ^ 0x5A, workers);
        prop_assert_eq!(got, want);
        prop_assert_eq!(stats.total_items(), n as u64);
        if n > 0 {
            prop_assert_eq!(stats.workers.len(), workers.min(n));
        }
    }

    /// Selecting the two order statistics gives the bits the full sort
    /// gave, ties and the end points included. (Values come from a
    /// coarse grid so that ties are common; the grid has no `-0.0`,
    /// which `0.0 == -0.0` would let stand at a tied rank in its place.)
    #[test]
    fn quantile_selection_matches_full_sort(
        grid in proptest::collection::vec(-40i32..40, 1..60),
        p in 0.0f64..1.0,
        end in 0u8..4,
    ) {
        let xs: Vec<f64> = grid.iter().map(|&g| f64::from(g) * 0.375).collect();
        let p = match end { 0 => 0.0, 1 => 1.0, _ => p };
        prop_assert_eq!(quantile(&xs, p).to_bits(), quantile_by_sort(&xs, p).to_bits());
    }
}

#[test]
#[should_panic(expected = "NaN in quantile input")]
fn quantile_rejects_nan_like_the_sort_did() {
    quantile(&[1.0, f64::NAN, 3.0], 0.5);
}
