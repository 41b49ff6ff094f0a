//! Random sampling for the simulator: Gaussian, exponential, uniform and
//! Bernoulli draws, on top of any [`rand::Rng`].
//!
//! The approved dependency list includes `rand` but not `rand_distr`, so
//! the distributions themselves live here. Every stochastic component in
//! the workspace takes an explicit RNG so that simulations are exactly
//! reproducible from a seed.

use rand::Rng;
use std::sync::OnceLock;

/// Number of ziggurat layers. 256 lets the layer index come from the
/// low byte of one `u64` draw while the remaining 53 high bits form the
/// uniform, so the common case costs a single RNG call.
const ZIG_LAYERS: usize = 256;

/// 2⁻⁵³, the spacing of the 53-bit uniforms carved out of a `u64`.
const U53: f64 = 1.0 / 9007199254740992.0;

/// Precomputed ziggurat table for a monotone-decreasing density on
/// `[0, ∞)`: layer edges `x[i]` (decreasing, `x[LAYERS] = 0`), the
/// unnormalized density `f[i] = pdf(x[i])`, and the tail cut `r = x[1]`.
struct ZigTable {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
    r: f64,
}

/// Builds the ziggurat for an unnormalized decreasing `pdf` with
/// `pdf(0) = 1`, its inverse `finv`, and tail mass `tail(r) = ∫_r^∞
/// pdf`. The tail cut `r` is found by bisection on the closure
/// condition (the 255th strip must land exactly on `pdf(0)`), so the
/// construction is exact to floating-point accuracy rather than relying
/// on literature constants.
fn build_zig_table(
    pdf: impl Fn(f64) -> f64,
    finv: impl Fn(f64) -> f64,
    tail: impl Fn(f64) -> f64,
    mut lo: f64,
    mut hi: f64,
) -> ZigTable {
    // Residual of the closure condition; decreasing in r. A strip that
    // overshoots pdf(0) = 1 before the last layer means r is too small.
    let residual = |r: f64| -> f64 {
        let v = r * pdf(r) + tail(r);
        let mut x = r;
        for _ in 2..ZIG_LAYERS {
            let y = v / x + pdf(x);
            if y >= 1.0 {
                return 1.0;
            }
            x = finv(y);
        }
        v / x + pdf(x) - 1.0
    };
    assert!(
        residual(lo) > 0.0 && residual(hi) < 0.0,
        "bisection bracket must straddle the root"
    );
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if residual(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let r = 0.5 * (lo + hi);
    let v = r * pdf(r) + tail(r);
    let mut x = [0.0; ZIG_LAYERS + 1];
    let mut f = [0.0; ZIG_LAYERS + 1];
    x[0] = v / pdf(r); // base layer extends past r to cover the tail area
    x[1] = r;
    for i in 2..ZIG_LAYERS {
        x[i] = finv(v / x[i - 1] + pdf(x[i - 1]));
    }
    x[ZIG_LAYERS] = 0.0;
    for i in 0..=ZIG_LAYERS {
        f[i] = pdf(x[i]);
    }
    ZigTable { x, f, r }
}

fn normal_zig() -> &'static ZigTable {
    static TABLE: OnceLock<ZigTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        build_zig_table(
            |x| (-0.5 * x * x).exp(),
            |y| (-2.0 * y.ln()).sqrt(),
            // ∫_r^∞ e^{−x²/2} dx = √(π/2) · erfc(r/√2)
            |r| (std::f64::consts::PI / 2.0).sqrt() * crate::erfc(r / std::f64::consts::SQRT_2),
            3.0,
            4.5,
        )
    })
}

fn exp_zig() -> &'static ZigTable {
    static TABLE: OnceLock<ZigTable> = OnceLock::new();
    TABLE.get_or_init(|| build_zig_table(|x| (-x).exp(), |y| -y.ln(), |r| (-r).exp(), 6.0, 9.0))
}

/// A hoisted handle to the standard-normal ziggurat.
///
/// [`standard_normal`] resolves its `OnceLock` table on every call; that
/// atomic load is invisible in scalar code but measurable inside the
/// batched tick kernels, which draw one Gaussian per flow per step.
/// Kernels grab the handle once outside the loop and call
/// [`NormalSampler::sample`], which performs **exactly** the same
/// arithmetic and consumes the RNG identically, so trajectories are
/// bit-identical either way.
#[derive(Clone, Copy)]
pub struct NormalSampler {
    t: &'static ZigTable,
}

impl NormalSampler {
    /// Resolves the shared ziggurat table (built on first use).
    pub fn get() -> Self {
        NormalSampler { t: normal_zig() }
    }

    /// Samples `N(0, 1)`; same draw sequence as [`standard_normal`].
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let t = self.t;
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xFF) as usize;
            let u = 2.0 * ((bits >> 11) as f64 * U53) - 1.0; // [-1, 1)
            let x = u * t.x[i];
            if x.abs() < t.x[i + 1] {
                return x; // strictly inside the layer: accept (common case)
            }
            if i == 0 {
                return normal_tail(rng, t.r, u < 0.0);
            }
            // Wedge: accept with probability proportional to the density
            // overhang between the layer edges.
            let h = t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>();
            if h < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }
}

/// A hoisted handle to the exponential ziggurat; see [`NormalSampler`].
#[derive(Clone, Copy)]
pub struct ExpSampler {
    t: &'static ZigTable,
}

impl ExpSampler {
    /// Resolves the shared ziggurat table (built on first use).
    pub fn get() -> Self {
        ExpSampler { t: exp_zig() }
    }

    /// Samples a unit-mean exponential; same draw sequence as
    /// [`standard_exponential`].
    // `always`: see `GaussianDraw::draw` in `mbac-traffic::rcbr`, the
    // one caller that holds a handle.
    #[inline(always)]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let t = self.t;
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xFF) as usize;
            let u = (bits >> 11) as f64 * U53; // [0, 1)
            let x = u * t.x[i];
            if x < t.x[i + 1] {
                return x;
            }
            if i == 0 {
                // Memorylessness: the tail beyond r is r plus a fresh
                // exponential, sampled by inverse CDF.
                return t.r - (1.0 - rng.gen::<f64>()).ln();
            }
            let h = t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>();
            if h < (-x).exp() {
                return x;
            }
        }
    }
}

/// Samples a standard normal `N(0, 1)` variate via the ziggurat method
/// (Marsaglia & Tsang 2000, 256 layers).
///
/// This sits on the simulator's hottest path — every AR(1) tick and
/// every RCBR renegotiation draws a Gaussian — and the ziggurat's
/// common case is one `u64` draw, one table compare, and one multiply
/// (no transcendentals), several times faster than polar Box–Muller.
/// It is an exact-distribution rejection method, not an approximation.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    NormalSampler::get().sample(rng)
}

/// Marsaglia's exact tail sampler for `|X| > r`.
#[cold]
fn normal_tail<R: Rng + ?Sized>(rng: &mut R, r: f64, negative: bool) -> f64 {
    loop {
        // 1 − U ∈ (0, 1], so the logs stay finite.
        let x = -(1.0 - rng.gen::<f64>()).ln() / r;
        let y = -(1.0 - rng.gen::<f64>()).ln();
        if 2.0 * y >= x * x {
            let v = r + x;
            return if negative { -v } else { v };
        }
    }
}

/// Samples `N(mean, sd²)`.
#[inline]
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    debug_assert!(sd >= 0.0);
    mean + sd * standard_normal(rng)
}

/// Samples a unit-mean exponential variate via the ziggurat method
/// (same construction as [`standard_normal`], one-sided).
#[inline]
pub fn standard_exponential<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ExpSampler::get().sample(rng)
}

/// Samples an exponential variate with the given mean. The flow holding
/// times and RCBR level-holding intervals of the paper are exponential.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive, got {mean}");
    mean * standard_exponential(rng)
}

/// Samples a uniform variate on `[lo, hi)`.
#[inline]
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    rng.gen_range(lo..hi)
}

/// Bernoulli trial with success probability `p`.
#[inline]
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    debug_assert!((0.0..=1.0).contains(&p));
    rng.gen::<f64>() < p
}

/// Samples a χ² variate with `k` degrees of freedom: twice a
/// `Gamma(k/2, 1)` drawn by Marsaglia & Tsang's squeeze (2000), one
/// Gaussian and one uniform per try (a shape below 1 takes one more
/// uniform: `Gamma(a) = Gamma(a + 1) · U^{1/a}`). `k = 0` is 0 and draws
/// nothing. It stands in for `k` squared Gaussians where only their sum
/// is read — the noise on a fold's `Σe²` ([`crate::moments::fold_noisy`]).
pub fn chi_squared<R: Rng + ?Sized>(rng: &mut R, k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    2.0 * standard_gamma(rng, 0.5 * k as f64)
}

/// A unit-scale gamma variate of shape `a > 0` (see [`chi_squared`]).
fn standard_gamma<R: Rng + ?Sized>(rng: &mut R, a: f64) -> f64 {
    if a < 1.0 {
        let boosted = standard_gamma(rng, a + 1.0);
        // 1 − U ∈ (0, 1], so the power stays finite.
        return boosted * (1.0 - rng.gen::<f64>()).powf(1.0 / a);
    }
    let gaussian = NormalSampler::get();
    let d = a - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = gaussian.sample(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u = 1.0 - rng.gen::<f64>();
        let x2 = x * x;
        if u < 1.0 - 0.0331 * (x2 * x2) || u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Samples a truncated normal on `[lo, ∞)` by rejection. The RCBR
/// sources optionally truncate rates at zero so bandwidths stay
/// physical; with σ/μ = 0.3 (the paper's setting) the acceptance rate
/// exceeds 0.999.
pub fn normal_truncated_below<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64, lo: f64) -> f64 {
    assert!(sd > 0.0);
    // With heavy truncation the naive rejection loop would stall; the
    // assertion documents the intended usage envelope.
    assert!(
        (lo - mean) / sd < 5.0,
        "truncation point more than 5 sd above the mean; use a dedicated tail sampler"
    );
    loop {
        let x = normal(rng, mean, sd);
        if x >= lo {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5EED_CAFE)
    }

    #[test]
    fn ziggurat_tail_cuts_match_literature() {
        // Marsaglia & Tsang's published 256-layer constants; the
        // bisected construction must land on them.
        assert!((normal_zig().r - 3.654152885361009).abs() < 1e-12);
        assert!((exp_zig().r - 7.697_117_470_131_05).abs() < 1e-12);
    }

    #[test]
    fn standard_normal_quantiles() {
        // Finer-grained distribution check than the moment tests: the
        // empirical CDF at several quantiles of N(0,1), including the
        // ziggurat wedge and tail regions.
        let mut r = rng();
        let n = 400_000;
        let probes = [
            (-2.0, 0.02275),
            (-1.0, 0.15866),
            (0.0, 0.5),
            (1.0, 0.84134),
            (2.5, 0.99379),
        ];
        let mut below = [0usize; 5];
        for _ in 0..n {
            let x = standard_normal(&mut r);
            for (j, &(q, _)) in probes.iter().enumerate() {
                if x < q {
                    below[j] += 1;
                }
            }
        }
        for (j, &(q, want)) in probes.iter().enumerate() {
            let got = below[j] as f64 / n as f64;
            assert!(
                (got - want).abs() < 0.003,
                "P(X < {q}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let (mut s1, mut s2, mut s3, mut s4) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..n {
            let x = standard_normal(&mut r);
            s1 += x;
            s2 += x * x;
            s3 += x * x * x;
            s4 += x * x * x * x;
        }
        let m = s1 / n as f64;
        let v = s2 / n as f64 - m * m;
        let skew = s3 / n as f64;
        let kurt = s4 / n as f64;
        assert!(m.abs() < 0.01, "mean = {m}");
        assert!((v - 1.0).abs() < 0.02, "var = {v}");
        assert!(skew.abs() < 0.05, "skew = {skew}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis = {kurt}");
    }

    #[test]
    fn standard_normal_tail_fraction() {
        let mut r = rng();
        let n = 400_000;
        let mut beyond = 0usize;
        for _ in 0..n {
            if standard_normal(&mut r) > 1.6448536269514722 {
                beyond += 1;
            }
        }
        let frac = beyond as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.003, "P(X>1.645) = {frac}");
    }

    #[test]
    fn exponential_mean_and_memorylessness() {
        let mut r = rng();
        let n = 200_000;
        let mean = 3.5;
        let mut acc = 0.0;
        let mut over_t = 0usize;
        let mut over_2t = 0usize;
        let t = 2.0;
        for _ in 0..n {
            let x = exponential(&mut r, mean);
            assert!(x >= 0.0);
            acc += x;
            if x > t {
                over_t += 1;
            }
            if x > 2.0 * t {
                over_2t += 1;
            }
        }
        assert!((acc / n as f64 - mean).abs() < 0.05);
        // Memorylessness: P(X > 2t)/P(X > t) ≈ P(X > t).
        let ratio = over_2t as f64 / over_t as f64;
        let p_t = over_t as f64 / n as f64;
        assert!((ratio - p_t).abs() < 0.01, "ratio {ratio} vs {p_t}");
    }

    #[test]
    fn truncated_normal_stays_above_floor() {
        let mut r = rng();
        for _ in 0..20_000 {
            let x = normal_truncated_below(&mut r, 1.0, 0.3, 0.0);
            assert!(x >= 0.0);
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = rng();
        let n = 100_000;
        let hits = (0..n).filter(|_| bernoulli(&mut r, 0.3)).count();
        assert!((hits as f64 / n as f64 - 0.3).abs() < 0.01);
    }

    /// χ²_k has mean `k` and variance `2k`; both hold within 4
    /// standard errors over 2·10⁵ draws, for the boosted shape (`k = 1`)
    /// and the squeeze's, small and large.
    #[test]
    fn chi_squared_moments() {
        let mut r = rng();
        let n = 200_000;
        for k in [1usize, 2, 3, 50, 200] {
            let draws: Vec<f64> = (0..n).map(|_| chi_squared(&mut r, k)).collect();
            assert!(draws.iter().all(|&x| x >= 0.0 && x.is_finite()), "k = {k}");
            let kf = k as f64;
            let mean = draws.iter().sum::<f64>() / n as f64;
            let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
            let mean_se = (2.0 * kf / n as f64).sqrt();
            // Var(s²) ≈ (μ₄ − σ⁴)/n, with μ₄ = 12k(k + 4) for χ²_k.
            let var_se = ((12.0 * kf * (kf + 4.0) - 4.0 * kf * kf) / n as f64).sqrt();
            assert!((mean - kf).abs() < 4.0 * mean_se, "k = {k}: mean {mean}");
            assert!((var - 2.0 * kf).abs() < 4.0 * var_se, "k = {k}: var {var}");
        }
        assert_eq!(chi_squared(&mut r, 0), 0.0);
    }

    /// The farthest the normal ziggurat reaches, read off its table: a
    /// layer draw stays inside `x[0]`, and the tail returns `r + x` with
    /// `x² ≤ 2y`, `y = −ln(1 − U)` and `1 − U ≥ 2⁻⁵³` (a 53-bit
    /// uniform), so `|Z| ≤ r + √(106 ln 2) ≈ 12.23`. A noisy rate at
    /// least [`crate::moments::CLAMP_GUARD_SDS`] noise deviations above
    /// zero therefore never reaches the clamp.
    #[test]
    fn the_clamp_guard_exceeds_the_largest_normal_draw() {
        let t = normal_zig();
        let y_max = -(1.0f64 - (u64::MAX >> 11) as f64 * U53).ln();
        assert!((y_max - 53.0 * std::f64::consts::LN_2).abs() < 1e-12);
        let reach = (t.r + (2.0 * y_max).sqrt()).max(t.x[0]);
        assert!((reach - 12.2258).abs() < 1e-4, "reach {reach}");
        assert!(crate::moments::CLAMP_GUARD_SDS > reach);
    }

    #[test]
    fn determinism_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
            assert_eq!(exponential(&mut a, 2.0), exponential(&mut b, 2.0));
        }
    }
}
