//! Standard normal distribution: density `φ`, CDF `Φ`, tail `Q`, the
//! inverse tail `Q⁻¹`, and the Mills ratio.
//!
//! The paper (Grossglauser & Tse) uses `Q(x)` as *the* quality-of-service
//! functional: the target overflow probability is `p_q = Q(α_q)`, so every
//! admission criterion needs `Q` and every calibration needs `Q⁻¹`. The
//! adjusted certainty-equivalent targets of Fig. 6 fall below `1e-10`, so
//! both directions must keep relative accuracy deep in the tail. `Q` is
//! built on [`crate::erf::erfc`]; `Q⁻¹` uses a safeguarded Newton iteration
//! on `ln Q`, which is numerically benign for arbitrarily small
//! probabilities.

use crate::erf::{erfc, erfcx, ln_erfc};

/// `1/sqrt(2π)`.
pub const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
/// `sqrt(2)`.
const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Standard normal probability density `φ(x) = e^{-x²/2}/√(2π)`
/// (eqn (1) of the paper).
#[inline]
pub fn phi(x: f64) -> f64 {
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Standard normal CDF `Φ(x) = Pr{N(0,1) ≤ x}`.
#[inline]
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// Gaussian tail function `Q(x) = Pr{N(0,1) > x} = 1 - Φ(x)`
/// (eqn (2) of the paper). Retains relative accuracy for large `x`.
///
/// ```
/// // Q(0) = 1/2 exactly; Q(1.2815515655446004) ≈ 0.1.
/// assert!((mbac_num::q(0.0) - 0.5).abs() < 1e-15);
/// assert!((mbac_num::q(1.2815515655446004) - 0.1).abs() < 1e-12);
/// ```
#[inline]
pub fn q(x: f64) -> f64 {
    0.5 * erfc(x / SQRT_2)
}

/// Natural log of the Gaussian tail, `ln Q(x)`, valid for `x` so large
/// that `Q(x)` itself underflows (`x ≳ 37.5`). Defined for `x ≥ 0`.
pub fn ln_q(x: f64) -> f64 {
    assert!(x >= 0.0, "ln_q requires non-negative x, got {x}");
    std::f64::consts::LN_2.mul_add(-1.0, ln_erfc(x / SQRT_2))
}

/// Mills ratio `Q(x)/φ(x)`, computed without underflow for `x ≥ 0`.
///
/// For large `x` the Mills ratio tends to `1/x`; the paper's repeated
/// approximation `Q(x) ≈ φ(x)/x` is exactly "Mills ratio ≈ 1/x".
pub fn mills_ratio(x: f64) -> f64 {
    assert!(x >= 0.0, "mills_ratio requires non-negative x, got {x}");
    // Q(x)/φ(x) = (1/2)erfc(x/√2) · √(2π) e^{x²/2} = √(π/2) · erfcx(x/√2).
    (std::f64::consts::PI / 2.0).sqrt() * erfcx(x / SQRT_2)
}

/// Inverse Gaussian tail `Q⁻¹(p)`: the `x` with `Q(x) = p`, for
/// `p ∈ (0, 1)`.
///
/// This is `α_q = Q⁻¹(p_q)` in the paper — the "number of standard
/// deviations of safety margin" corresponding to a QoS target. Works for
/// arbitrarily small `p` (down to ~1e-300) with ~1e-13 relative accuracy
/// in `x`.
///
/// # Panics
/// Panics if `p` is not strictly inside `(0, 1)`.
///
/// ```
/// let alpha = mbac_num::inv_q(1e-5);
/// assert!((mbac_num::q(alpha) / 1e-5 - 1.0).abs() < 1e-10);
/// ```
pub fn inv_q(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "inv_q requires p in (0,1), got {p}");
    if p == 0.5 {
        return 0.0;
    }
    if p > 0.5 {
        // Q(x) = p > 1/2  =>  x < 0; use symmetry Q(-x) = 1 - Q(x).
        return -inv_q(1.0 - p);
    }
    // Now p < 1/2, root is positive. Solve g(x) = ln Q(x) - ln p = 0 by
    // Newton, g'(x) = -φ(x)/Q(x) = -1/mills_ratio(x).
    let ln_p = p.ln();
    // Initial guess from the tail asymptotic Q(x) ≈ φ(x)/x:
    //   ln p ≈ -x²/2 - ln x - ln √(2π)  =>  x ≈ sqrt(2(-ln p - ln √(2π)))
    // refined once for the ln x term.
    let mut x = (2.0 * (-ln_p - (2.0 * std::f64::consts::PI).sqrt().ln()))
        .max(1e-4)
        .sqrt();
    if x > 1.0 {
        let inner = -2.0 * (ln_p + x.ln() + (2.0 * std::f64::consts::PI).sqrt().ln());
        if inner > 0.0 {
            x = inner.sqrt();
        }
    }
    // Safeguarded Newton on ln Q.
    let (mut lo, mut hi) = (0.0f64, x.max(2.0) * 4.0 + 10.0);
    for _ in 0..100 {
        let g = ln_q(x) - ln_p;
        if g > 0.0 {
            // Q(x) too big -> x too small.
            lo = lo.max(x);
        } else {
            hi = hi.min(x);
        }
        let step = g * mills_ratio(x); // g / (1/mills) with sign: x_{n+1} = x + g·mills
        let mut next = x + step;
        if !(next > lo && next < hi) {
            next = 0.5 * (lo + hi);
        }
        if (next - x).abs() <= 1e-15 * x.abs() + 1e-300 {
            x = next;
            break;
        }
        x = next;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference Q(x) values (mpmath, 50 digits).
    const Q_TABLE: &[(f64, f64)] = &[
        (0.0, 0.5),
        (0.5, 0.3085375387259869),
        (1.0, 0.15865525393145707),
        (1.2815515655446004, 0.1),
        (1.6448536269514722, 0.05),
        (2.326347874040841, 0.01),
        (3.090232306167813, 0.001),
        (3.719016485455709, 1e-4),
        (4.264890793922602, 1e-5),
        (4.753424308822899, 1e-6),
        (5.199337582187471, 1e-7),
        (6.361340902404056, 1e-10),
        (7.941345326170997, 1e-15),
    ];

    #[test]
    fn q_matches_reference() {
        for &(x, want) in Q_TABLE {
            let got = q(x);
            // Tolerance 1e-9: the tabulated abscissae themselves carry
            // ~1e-15 absolute error, which Q's steepness amplifies.
            assert!(
                (got / want - 1.0).abs() < 1e-9,
                "Q({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn inv_q_matches_reference() {
        for &(x, p) in Q_TABLE {
            if p >= 0.5 {
                continue;
            }
            let got = inv_q(p);
            assert!(
                (got - x).abs() < 1e-9 * (1.0 + x.abs()),
                "inv_q({p}) = {got}, want {x}"
            );
        }
    }

    #[test]
    fn inv_q_roundtrip_property() {
        for k in 1..60 {
            let p = 10f64.powf(-(k as f64) / 4.0);
            if p >= 1.0 {
                continue;
            }
            let x = inv_q(p);
            let back = if x < 37.0 { q(x) } else { ln_q(x).exp() };
            assert!(
                (back / p - 1.0).abs() < 1e-9,
                "roundtrip failed at p={p}: x={x}, back={back}"
            );
        }
    }

    #[test]
    fn inv_q_upper_half() {
        // Q(x) = 0.8 -> x = -Q⁻¹(0.2).
        let x = inv_q(0.8);
        assert!((q(x) - 0.8).abs() < 1e-12);
        assert!(x < 0.0);
        assert_eq!(inv_q(0.5), 0.0);
    }

    #[test]
    fn cdf_and_tail_sum_to_one() {
        for &x in &[-3.0, -1.0, 0.0, 0.7, 2.5, 5.0] {
            assert!((norm_cdf(x) + q(x) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn phi_is_symmetric_and_normalized_at_zero() {
        assert!((phi(0.0) - INV_SQRT_2PI).abs() < 1e-16);
        for &x in &[0.5, 1.0, 2.0] {
            assert!((phi(x) - phi(-x)).abs() < 1e-16);
        }
    }

    #[test]
    fn mills_ratio_tends_to_inverse_x() {
        for &x in &[10.0, 30.0, 100.0] {
            let m = mills_ratio(x);
            // m = 1/x · (1 - 1/x² + O(1/x⁴))
            assert!((m * x - 1.0).abs() < 2.0 / (x * x), "mills({x}) = {m}");
        }
        // And at 0: Q(0)/φ(0) = 0.5/(1/√(2π)) = √(π/2).
        assert!((mills_ratio(0.0) - (std::f64::consts::PI / 2.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn ln_q_consistent_with_q() {
        for &x in &[0.5, 2.0, 5.0, 10.0, 20.0] {
            assert!((ln_q(x) - q(x).ln()).abs() < 1e-9, "x={x}");
        }
        // Deep tail where q underflows:
        let x = 45.0;
        assert_eq!(q(x), 0.0);
        let lq = ln_q(x);
        // ln Q(x) ≈ -x²/2 - ln(x √(2π))
        let approx = -0.5 * x * x - (x * (2.0 * std::f64::consts::PI).sqrt()).ln();
        assert!((lq - approx).abs() < 1e-3 * lq.abs());
    }

    #[test]
    fn paper_sqrt2_example() {
        // §3.1: "if p_q = 1.0e-5, then p_f ≈ Q(α_q/√2) ≈ 1.3e-3".
        let alpha_q = inv_q(1e-5);
        let pf = q(alpha_q / SQRT_2);
        assert!(
            (1.0e-3..2.0e-3).contains(&pf),
            "paper example: pf = {pf}, expected ≈ 1.3e-3"
        );
    }

    #[test]
    fn inv_q_extreme_small_p() {
        let p = 1e-250;
        let x = inv_q(p);
        let back = ln_q(x);
        assert!(
            (back - p.ln()).abs() < 1e-8 * p.ln().abs(),
            "x={x} back(ln)={back} want {}",
            p.ln()
        );
    }

    #[test]
    #[should_panic]
    fn inv_q_rejects_zero() {
        inv_q(0.0);
    }

    #[test]
    #[should_panic]
    fn inv_q_rejects_one() {
        inv_q(1.0);
    }
}
