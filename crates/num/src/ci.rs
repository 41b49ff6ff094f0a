//! Confidence intervals for simulation metrology.
//!
//! The paper's §5.2 termination rule is: stop when "the 95% confidence
//! interval is less than ±20% of the estimated mean", or when the
//! estimate plus its half-width sits at least two orders of magnitude
//! below the target overflow probability. These helpers implement that
//! arithmetic for binomial proportions.

use crate::normal::inv_q;

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level used (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        0.5 * (self.hi - self.lo)
    }

    /// Relative half-width, `half_width / estimate`; infinite when the
    /// estimate is zero.
    pub fn relative_half_width(&self) -> f64 {
        if self.estimate == 0.0 {
            f64::INFINITY
        } else {
            self.half_width() / self.estimate.abs()
        }
    }
}

/// Two-sided z critical value for a confidence `level` (e.g. 0.95 →
/// 1.959963...).
pub fn z_critical(level: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&level),
        "confidence level must be in (0,1)"
    );
    inv_q(0.5 * (1.0 - level))
}

/// Wald (normal-approximation) CI for a binomial proportion.
/// Adequate when `successes` is reasonably large; the simulator uses
/// [`wilson_ci`] when counts are small.
pub fn wald_ci(successes: u64, trials: u64, level: f64) -> ConfidenceInterval {
    assert!(trials > 0, "wald_ci needs at least one trial");
    let p = successes as f64 / trials as f64;
    let z = z_critical(level);
    let half = z * (p * (1.0 - p) / trials as f64).sqrt();
    ConfidenceInterval {
        estimate: p,
        lo: (p - half).max(0.0),
        hi: (p + half).min(1.0),
        level,
    }
}

/// Wilson score interval for a binomial proportion — well-behaved even
/// for zero successes, which matters when the overflow probability is far
/// below the sampling resolution.
pub fn wilson_ci(successes: u64, trials: u64, level: f64) -> ConfidenceInterval {
    assert!(trials > 0, "wilson_ci needs at least one trial");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z = z_critical(level);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ConfidenceInterval {
        estimate: p,
        lo: (center - half).max(0.0),
        hi: (center + half).min(1.0),
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_critical_known_values() {
        assert!((z_critical(0.95) - 1.959963984540054).abs() < 1e-9);
        assert!((z_critical(0.99) - 2.5758293035489004).abs() < 1e-9);
        assert!((z_critical(0.90) - 1.6448536269514722).abs() < 1e-9);
    }

    #[test]
    fn wald_and_wilson_agree_for_large_counts() {
        let wald = wald_ci(5_000, 100_000, 0.95);
        let wilson = wilson_ci(5_000, 100_000, 0.95);
        assert!((wald.estimate - 0.05).abs() < 1e-12);
        assert!((wald.lo - wilson.lo).abs() < 1e-4);
        assert!((wald.hi - wilson.hi).abs() < 1e-4);
    }

    #[test]
    fn wilson_handles_zero_successes() {
        let ci = wilson_ci(0, 1000, 0.95);
        assert_eq!(ci.estimate, 0.0);
        assert!(ci.lo.abs() < 1e-12, "lo = {}", ci.lo);
        assert!(ci.hi > 0.0 && ci.hi < 0.01, "hi = {}", ci.hi);
    }

    #[test]
    fn wilson_handles_all_successes() {
        let ci = wilson_ci(1000, 1000, 0.95);
        assert_eq!(ci.estimate, 1.0);
        assert_eq!(ci.hi, 1.0);
        assert!(ci.lo > 0.99);
    }

    #[test]
    fn relative_half_width_for_paper_termination_rule() {
        // 95% CI within ±20% of the mean: the paper's criterion (a).
        let ci = wald_ci(100, 10_000, 0.95);
        // p̂ = 0.01, half = 1.96·sqrt(0.01·0.99/10000) ≈ 0.00195 → rhw ≈ 0.195.
        let rhw = ci.relative_half_width();
        assert!((rhw - 0.195).abs() < 0.01, "rhw = {rhw}");
        assert!(rhw < 0.20, "this example should just satisfy the rule");
    }

    #[test]
    fn zero_estimate_has_infinite_relative_width() {
        let ci = wilson_ci(0, 10, 0.95);
        assert!(ci.relative_half_width().is_infinite());
    }
}
