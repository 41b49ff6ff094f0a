//! Descriptive statistics: online (Welford) accumulators, batch
//! mean/variance, autocorrelation, and quantiles.
//!
//! These back both the *measurement* side of the MBAC (estimating flow
//! mean and variance, §3.1 eqn (7)) and the *metrology* side of the
//! simulator (estimating overflow probabilities and validating synthetic
//! traffic against its target autocorrelation).

/// Numerically stable online accumulator for mean and variance
/// (Welford's algorithm). Supports O(1) updates and merging.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (n−1 denominator; 0 when n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Sample mean of a slice (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance of a slice (0 when fewer than 2 elements).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Biased (population, 1/n) autocovariance at the given lag.
pub fn autocovariance(xs: &[f64], lag: usize) -> f64 {
    if xs.len() <= lag {
        return 0.0;
    }
    let m = mean(xs);
    let n = xs.len();
    let mut acc = 0.0;
    for i in 0..n - lag {
        acc += (xs[i] - m) * (xs[i + lag] - m);
    }
    acc / n as f64
}

/// Sample autocorrelation function for lags `0..=max_lag`, normalized so
/// `acf[0] = 1`. Returns all-zero (except `acf[0] = 1`) for constant
/// series.
pub fn acf(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let c0 = autocovariance(xs, 0);
    let mut out = Vec::with_capacity(max_lag + 1);
    if c0 <= 0.0 {
        out.push(1.0);
        out.extend(std::iter::repeat_n(0.0, max_lag));
        return out;
    }
    for lag in 0..=max_lag {
        out.push(autocovariance(xs, lag) / c0);
    }
    out
}

/// Empirical quantile via linear interpolation of order statistics
/// (type-7, the same convention as numpy's default). `p ∈ [0, 1]`.
///
/// Only the two order statistics the interpolation reads are put in
/// place (a selection, not a sort), so the cost is O(n).
///
/// # Panics
/// Panics on an empty slice, `p` outside `[0, 1]`, or a NaN among two
/// or more values.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!(
        (0.0..=1.0).contains(&p),
        "quantile p must be in [0,1], got {p}"
    );
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in quantile input");
    let mut buf = xs.to_vec();
    let h = p * (buf.len() - 1) as f64;
    let lo = h.floor() as usize;
    let (_, &mut at_lo, above) = buf.select_nth_unstable_by(lo, cmp);
    if h.ceil() as usize == lo {
        at_lo
    } else {
        // The next order statistic is the least of what the selection
        // left above `lo`.
        let at_hi = above
            .iter()
            .copied()
            .min_by(cmp)
            .expect("ceil(h) <= n - 1, so something lies above lo");
        at_lo + (h - lo as f64) * (at_hi - at_lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [1.0, 2.5, -0.5, 4.0, 4.0, 0.0, 7.25];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(rs.count(), xs.len() as u64);
        assert_eq!(rs.min(), -0.5);
        assert_eq!(rs.max(), 7.25);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 17) as f64 - 8.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &xs[..33] {
            left.push(x);
        }
        for &x in &xs[33..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn welford_stable_for_large_offset() {
        // Classic catastrophic-cancellation scenario for naive sum-of-squares.
        let offset = 1e9;
        let mut rs = RunningStats::new();
        for &x in &[offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0] {
            rs.push(x);
        }
        assert!((rs.mean() - (offset + 10.0)).abs() < 1e-5);
        assert!(
            (rs.variance() - 30.0).abs() < 1e-6,
            "var = {}",
            rs.variance()
        );
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        let rs = RunningStats::new();
        assert_eq!(rs.variance(), 0.0);
        assert_eq!(rs.mean(), 0.0);
        let mut one = RunningStats::new();
        one.push(5.0);
        assert_eq!(one.variance(), 0.0);
        assert_eq!(one.mean(), 5.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
    }

    #[test]
    fn acf_of_white_noise_is_small() {
        // Deterministic LCG noise.
        let mut s = 123456789u64;
        let xs: Vec<f64> = (0..20_000)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let r = acf(&xs, 5);
        assert!((r[0] - 1.0).abs() < 1e-12);
        for (lag, v) in r.iter().enumerate().skip(1) {
            assert!(v.abs() < 0.03, "acf[{lag}] = {v}");
        }
    }

    #[test]
    fn acf_of_ar1_matches_phi_powers() {
        // x_{t+1} = φ x_t + ε; theoretical ACF is φ^lag.
        let phi = 0.8;
        let mut s = 42u64;
        let mut x = 0.0;
        let xs: Vec<f64> = (0..200_000)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u1 = ((s >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u2 = (s >> 11) as f64 / (1u64 << 53) as f64;
                let eps = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                x = phi * x + eps;
                x
            })
            .collect();
        let r = acf(&xs, 4);
        for (lag, v) in r.iter().enumerate().skip(1) {
            let want = phi.powi(lag as i32);
            assert!((v - want).abs() < 0.02, "acf[{lag}] = {v}, want {want}");
        }
    }

    #[test]
    fn acf_constant_series() {
        let xs = vec![2.0; 100];
        let r = acf(&xs, 3);
        assert_eq!(r, vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }
}
