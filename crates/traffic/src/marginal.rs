//! Marginal rate distributions for RCBR sources.
//!
//! Prop. 3.3 is *universal*: the certainty-equivalence penalty does not
//! depend on the stationary distribution of the flows, only on its
//! first two moments. To exercise that claim an RCBR source
//! ([`crate::rcbr::RcbrModel::with_marginal`]) can negotiate rates from
//! any of these marginals, each parameterized directly by the target
//! mean and standard deviation so experiments can hold `(μ, σ)` fixed
//! while swapping shapes.

use mbac_num::rng::{bernoulli, normal, normal_truncated_below, standard_normal, uniform};
use rand::RngCore;

/// A marginal rate distribution with known mean and variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Marginal {
    /// Gaussian truncated at zero (the paper's choice; with σ/μ = 0.3
    /// the truncated mass is negligible).
    Gaussian {
        /// Mean of the untruncated Gaussian.
        mean: f64,
        /// Standard deviation of the untruncated Gaussian.
        sd: f64,
    },
    /// Gaussian, untruncated: rates may go negative (the theory's exact
    /// law).
    Normal {
        /// Mean `μ`.
        mean: f64,
        /// Standard deviation `σ`.
        sd: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower endpoint.
        lo: f64,
        /// Upper endpoint.
        hi: f64,
    },
    /// Two-point distribution: `low` w.p. `1 − p_high`, `high` w.p.
    /// `p_high` (an on–off marginal).
    TwoPoint {
        /// The low rate.
        low: f64,
        /// The high rate.
        high: f64,
        /// Probability of the high rate.
        p_high: f64,
    },
    /// Log-normal (heavy right tail, as measured for some VBR video).
    LogNormal {
        /// `μ` of the underlying normal.
        log_mean: f64,
        /// `σ` of the underlying normal.
        log_sd: f64,
    },
}

impl Marginal {
    /// Uniform marginal with the given mean and standard deviation
    /// (`lo,hi = mean ∓ √3·sd`).
    ///
    /// # Panics
    /// Panics if the implied lower endpoint is negative.
    pub fn uniform_with_moments(mean: f64, sd: f64) -> Self {
        let half = 3f64.sqrt() * sd;
        assert!(
            mean - half >= 0.0,
            "uniform marginal would reach negative rates"
        );
        Marginal::Uniform {
            lo: mean - half,
            hi: mean + half,
        }
    }

    /// Symmetric two-point marginal with the given mean and standard
    /// deviation (`low,high = mean ∓ sd`, `p_high = 1/2`).
    pub fn two_point_with_moments(mean: f64, sd: f64) -> Self {
        assert!(
            mean - sd >= 0.0,
            "two-point marginal would reach negative rates"
        );
        Marginal::TwoPoint {
            low: mean - sd,
            high: mean + sd,
            p_high: 0.5,
        }
    }

    /// Log-normal marginal with the given mean and standard deviation.
    pub fn lognormal_with_moments(mean: f64, sd: f64) -> Self {
        assert!(mean > 0.0 && sd > 0.0);
        let cv2 = (sd / mean) * (sd / mean);
        let log_sd = (1.0 + cv2).ln().sqrt();
        let log_mean = mean.ln() - 0.5 * log_sd * log_sd;
        Marginal::LogNormal { log_mean, log_sd }
    }

    /// Samples one rate.
    pub fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample_from(rng)
    }

    /// [`Marginal::sample`] on any generator, inlined into its caller:
    /// the same words, in the same order, so the same rate bit for bit.
    /// A batch kernel draws on a local copy of its lane's stream, which a
    /// `&mut dyn RngCore` would take the address of, so that every draw
    /// loaded and stored the generator's state (`mbac_num::rng`, "The
    /// register rule").
    #[inline(always)]
    pub(crate) fn sample_from<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            // A zero σ is floored, not special-cased: it draws as any
            // other σ does, and the draw rounds to the mean.
            Marginal::Gaussian { mean, sd } => {
                normal_truncated_below(rng, mean, sd.max(1e-300), 0.0)
            }
            Marginal::Normal { mean, sd } => normal(rng, mean, sd),
            Marginal::Uniform { lo, hi } => uniform(rng, lo, hi),
            // A pick, not a branch: an on–off flow's next state is a coin
            // toss, and a branch on it mispredicts every other draw.
            Marginal::TwoPoint { low, high, p_high } => {
                [low, high][bernoulli(rng, p_high) as usize]
            }
            Marginal::LogNormal { log_mean, log_sd } => {
                (log_mean + log_sd * standard_normal(rng)).exp()
            }
        }
    }

    /// The distribution mean (of the *untruncated* Gaussian, matching
    /// the theory's convention).
    pub fn mean(&self) -> f64 {
        match *self {
            Marginal::Gaussian { mean, .. } | Marginal::Normal { mean, .. } => mean,
            Marginal::Uniform { lo, hi } => 0.5 * (lo + hi),
            Marginal::TwoPoint { low, high, p_high } => low + p_high * (high - low),
            Marginal::LogNormal { log_mean, log_sd } => (log_mean + 0.5 * log_sd * log_sd).exp(),
        }
    }

    /// The distribution variance.
    pub fn variance(&self) -> f64 {
        match *self {
            Marginal::Gaussian { sd, .. } | Marginal::Normal { sd, .. } => sd * sd,
            Marginal::Uniform { lo, hi } => (hi - lo) * (hi - lo) / 12.0,
            Marginal::TwoPoint { low, high, p_high } => {
                let d = high - low;
                p_high * (1.0 - p_high) * d * d
            }
            Marginal::LogNormal { log_mean, log_sd } => {
                let s2 = log_sd * log_sd;
                ((s2).exp() - 1.0) * (2.0 * log_mean + s2).exp()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbac_num::RunningStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_moments(m: Marginal, tol: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = RunningStats::new();
        for _ in 0..200_000 {
            stats.push(m.sample(&mut rng));
        }
        assert!(
            (stats.mean() - m.mean()).abs() < tol * (1.0 + m.mean().abs()),
            "{m:?}: sample mean {} vs {}",
            stats.mean(),
            m.mean()
        );
        assert!(
            (stats.variance() - m.variance()).abs() < 3.0 * tol * (1.0 + m.variance()),
            "{m:?}: sample var {} vs {}",
            stats.variance(),
            m.variance()
        );
    }

    #[test]
    fn gaussian_moments() {
        check_moments(Marginal::Gaussian { mean: 1.0, sd: 0.3 }, 0.01, 1);
        check_moments(Marginal::Normal { mean: 0.0, sd: 0.3 }, 0.01, 7);
    }

    #[test]
    fn uniform_moments_and_constructor() {
        let m = Marginal::uniform_with_moments(1.0, 0.3);
        assert!((m.mean() - 1.0).abs() < 1e-12);
        assert!((m.variance() - 0.09).abs() < 1e-12);
        check_moments(m, 0.01, 2);
    }

    #[test]
    fn two_point_moments_and_constructor() {
        let m = Marginal::two_point_with_moments(1.0, 0.3);
        assert!((m.mean() - 1.0).abs() < 1e-12);
        assert!((m.variance() - 0.09).abs() < 1e-12);
        check_moments(m, 0.01, 3);
        // Samples are only ever the two points.
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let x = m.sample(&mut rng);
            assert!((x - 0.7).abs() < 1e-12 || (x - 1.3).abs() < 1e-12);
        }
    }

    #[test]
    fn lognormal_moments_and_constructor() {
        let m = Marginal::lognormal_with_moments(1.0, 0.3);
        assert!((m.mean() - 1.0).abs() < 1e-9);
        assert!((m.variance() - 0.09).abs() < 1e-9);
        check_moments(m, 0.02, 5);
        // Strictly positive and right-skewed.
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10_000 {
            assert!(m.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn asymmetric_two_point() {
        let m = Marginal::TwoPoint {
            low: 0.0,
            high: 4.0,
            p_high: 0.25,
        };
        assert!((m.mean() - 1.0).abs() < 1e-12);
        assert!((m.variance() - 3.0).abs() < 1e-12);
    }

    /// A zero σ makes the interval a point: the draw is its mean, and it
    /// still takes one word, as every uniform draw does. Wider intervals
    /// keep `gen_range`'s bits.
    #[test]
    fn uniform_with_zero_sd_draws_its_mean() {
        use rand::{Rng, RngCore};
        let mut rng = StdRng::seed_from_u64(8);
        let mut after = rng.clone();
        after.next_u64();
        assert_eq!(
            Marginal::uniform_with_moments(1.0, 0.0).sample(&mut rng),
            1.0
        );
        assert_eq!(rng, after, "one word a draw");
        let mut reference = rng.clone();
        let (lo, hi) = (0.4803847577293368, 1.5196152422706632);
        for _ in 0..1000 {
            let want = reference.gen_range(lo..hi);
            let got = Marginal::Uniform { lo, hi }.sample(&mut rng);
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    #[should_panic]
    fn uniform_rejects_negative_support() {
        Marginal::uniform_with_moments(0.1, 0.5);
    }
}
