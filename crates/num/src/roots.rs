//! Scalar root finding: bisection and Brent's method.
//!
//! Used to invert the paper's overflow-probability formulas — e.g. solving
//! eqn (38) for the adjusted certainty-equivalent target `p_ce` (Fig. 6),
//! or solving the perfect-knowledge admission criterion (eqn (4)) for the
//! admissible flow count `m*`.

/// Outcome of a root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Root {
    /// Location of the root.
    pub x: f64,
    /// Function value at `x` (should be ≈ 0).
    pub fx: f64,
    /// Number of function evaluations used.
    pub evals: u32,
}

/// Errors from the root finders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootError {
    /// `f(a)` and `f(b)` have the same sign, so no root is bracketed.
    NotBracketed,
    /// The iteration limit was reached before the tolerance was met.
    MaxIterations,
    /// The function returned NaN.
    NanEncountered,
}

impl std::fmt::Display for RootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootError::NotBracketed => write!(f, "root is not bracketed by the interval"),
            RootError::MaxIterations => write!(f, "root finder hit its iteration limit"),
            RootError::NanEncountered => write!(f, "function returned NaN during root search"),
        }
    }
}

impl std::error::Error for RootError {}

/// Plain bisection on `[a, b]`. Requires `f(a)` and `f(b)` to have
/// opposite signs. Converges unconditionally; ~53 iterations reach
/// machine precision on any bounded interval.
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    xtol: f64,
    max_iter: u32,
) -> Result<Root, RootError> {
    let mut fa = f(a);
    let mut fb = f(b);
    let mut evals = 2;
    if fa.is_nan() || fb.is_nan() {
        return Err(RootError::NanEncountered);
    }
    if fa == 0.0 {
        return Ok(Root {
            x: a,
            fx: 0.0,
            evals,
        });
    }
    if fb == 0.0 {
        return Ok(Root {
            x: b,
            fx: 0.0,
            evals,
        });
    }
    if fa.signum() == fb.signum() {
        return Err(RootError::NotBracketed);
    }
    #[allow(clippy::explicit_counter_loop)] // `evals` also counts the bracket evaluations
    for _ in 0..max_iter {
        let m = 0.5 * (a + b);
        let fm = f(m);
        evals += 1;
        if fm.is_nan() {
            return Err(RootError::NanEncountered);
        }
        if fm == 0.0 || (b - a).abs() <= xtol {
            return Ok(Root {
                x: m,
                fx: fm,
                evals,
            });
        }
        if fm.signum() == fa.signum() {
            a = m;
            fa = fm;
        } else {
            b = m;
            fb = fm;
        }
        let _ = fb;
    }
    Err(RootError::MaxIterations)
}

/// Brent's method on `[a, b]`: inverse-quadratic interpolation with
/// secant and bisection safeguards. Superlinear on smooth functions,
/// never worse than bisection.
pub fn brent<F: FnMut(f64) -> f64>(
    mut f: F,
    a0: f64,
    b0: f64,
    xtol: f64,
    max_iter: u32,
) -> Result<Root, RootError> {
    let mut a = a0;
    let mut b = b0;
    let mut fa = f(a);
    let mut fb = f(b);
    let mut evals = 2;
    if fa.is_nan() || fb.is_nan() {
        return Err(RootError::NanEncountered);
    }
    if fa == 0.0 {
        return Ok(Root {
            x: a,
            fx: 0.0,
            evals,
        });
    }
    if fb == 0.0 {
        return Ok(Root {
            x: b,
            fx: 0.0,
            evals,
        });
    }
    if fa.signum() == fb.signum() {
        return Err(RootError::NotBracketed);
    }
    // Ensure |f(b)| <= |f(a)|: b is the current best iterate.
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut e = d;
    #[allow(clippy::explicit_counter_loop)] // `evals` also counts the bracket evaluations
    for _ in 0..max_iter {
        if fc.abs() < fb.abs() {
            // Rename so that b stays the best approximation.
            a = b;
            b = c;
            c = a;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol = 2.0 * f64::EPSILON * b.abs() + 0.5 * xtol;
        let m = 0.5 * (c - b);
        if m.abs() <= tol || fb == 0.0 {
            return Ok(Root {
                x: b,
                fx: fb,
                evals,
            });
        }
        if e.abs() < tol || fa.abs() <= fb.abs() {
            // Fall back to bisection.
            d = m;
            e = m;
        } else {
            let s = fb / fa;
            let (mut p, mut qd);
            if a == c {
                // Secant.
                p = 2.0 * m * s;
                qd = 1.0 - s;
            } else {
                // Inverse quadratic interpolation.
                let qa = fa / fc;
                let r = fb / fc;
                p = s * (2.0 * m * qa * (qa - r) - (b - a) * (r - 1.0));
                qd = (qa - 1.0) * (r - 1.0) * (s - 1.0);
            }
            if p > 0.0 {
                qd = -qd;
            } else {
                p = -p;
            }
            if 2.0 * p < (3.0 * m * qd - (tol * qd).abs()).min(e * qd.abs()) {
                e = d;
                d = p / qd;
            } else {
                d = m;
                e = m;
            }
        }
        a = b;
        fa = fb;
        b += if d.abs() > tol { d } else { tol * m.signum() };
        fb = f(b);
        evals += 1;
        if fb.is_nan() {
            return Err(RootError::NanEncountered);
        }
        if (fb > 0.0) == (fc > 0.0) {
            c = a;
            fc = fa;
            d = b - a;
            e = d;
        }
    }
    Err(RootError::MaxIterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt_two() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 100).unwrap();
        assert!((r.x - std::f64::consts::SQRT_2).abs() < 1e-11);
    }

    #[test]
    fn bisect_rejects_unbracketed() {
        assert_eq!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100).unwrap_err(),
            RootError::NotBracketed
        );
    }

    #[test]
    fn brent_finds_sqrt_two_fast() {
        let r = brent(|x| x * x - 2.0, 0.0, 2.0, 1e-14, 100).unwrap();
        assert!((r.x - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!(r.evals < 20, "brent used {} evals", r.evals);
    }

    #[test]
    fn brent_handles_endpoint_roots() {
        let r = brent(|x| x, 0.0, 1.0, 1e-12, 100).unwrap();
        assert_eq!(r.x, 0.0);
        let r = brent(|x| x - 1.0, 0.0, 1.0, 1e-12, 100).unwrap();
        assert_eq!(r.x, 1.0);
    }

    #[test]
    fn brent_on_transcendental() {
        // cos(x) = x has root ≈ 0.7390851332151607.
        let r = brent(|x| x.cos() - x, 0.0, 1.0, 1e-14, 100).unwrap();
        assert!((r.x - 0.7390851332151607).abs() < 1e-12);
    }

    #[test]
    fn brent_steep_function() {
        // f(x) = exp(20x) - 1 has root at 0; very asymmetric bracket.
        let r = brent(|x| (20.0 * x).exp_m1(), -10.0, 1.0, 1e-13, 200).unwrap();
        assert!(r.x.abs() < 1e-10, "x = {}", r.x);
    }

    #[test]
    fn brent_matches_bisect_on_q_inversion_style_problem() {
        // Monotone decreasing log-tail style function.
        let f = |x: f64| (-x * x / 2.0) - (-8.0f64);
        let rb = bisect(f, 0.0, 10.0, 1e-12, 200).unwrap();
        let rn = brent(f, 0.0, 10.0, 1e-12, 200).unwrap();
        assert!((rb.x - rn.x).abs() < 1e-9);
        assert!((rb.x - 4.0).abs() < 1e-9);
    }
}
