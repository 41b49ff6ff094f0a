//! Sufficient statistics for one tick's aggregate-rate observation.
//!
//! The fused tick kernels evolve every flow **and** reduce the fresh
//! rates into a [`RateMoments`] in the same pass, so the controller's
//! `observe` becomes O(1) per tick: it consumes `(n, Σx, Σ(x−c),
//! Σ(x−c)²)` instead of rescanning the rate vector.
//!
//! Two numerical commitments make this safe to swap into the reporting
//! path:
//!
//! * `sum` is a **flat left-to-right fold in flow order** — the same
//!   operations in the same order as `snapshot.iter().sum()`, so the
//!   derived mean is bit-identical to the slice-based estimators'. A
//!   table too large for one lane folds each lane this way and
//!   [`RateMoments::merge`]s the lanes in lane order instead.
//! * The second moment is accumulated around a caller-chosen **pivot**
//!   `c` (typically the controller's previous mean estimate), and
//!   `Σ(x−m)²` is reconstructed via the exact algebraic identity
//!   `Σ(x−m)² = Σ(x−c)² − 2(m−c)Σ(x−c) + n(m−c)²`. With a pivot near
//!   the data mean the reconstruction agrees with a centered two-pass
//!   computation to ~1e-15 relative — the equivalence the estimator
//!   property tests pin at 1e-12.

/// One-pass pivoted moment accumulator over a tick's flow rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateMoments {
    n: usize,
    sum: f64,
    /// `Σ (x − c)` around the pivot.
    s1: f64,
    /// `Σ (x − c)²` around the pivot.
    s2: f64,
    pivot: f64,
}

impl RateMoments {
    /// Creates an empty accumulator centered on `pivot` (pass the best
    /// available guess of the mean; any finite value is *correct*, a
    /// close one is *well-conditioned*).
    #[inline]
    pub fn new(pivot: f64) -> Self {
        let pivot = if pivot.is_finite() { pivot } else { 0.0 };
        RateMoments {
            n: 0,
            sum: 0.0,
            s1: 0.0,
            s2: 0.0,
            pivot,
        }
    }

    /// Adds one rate observation.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let d = x - self.pivot;
        self.s1 += d;
        self.s2 += d * d;
    }

    /// Adds every element of a slice, in order.
    #[inline]
    pub fn add_slice(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Adds the observations another accumulator folded, as partial
    /// sums: how a table too large for one lane (see
    /// `mbac_traffic::batch`) combines its per-lane folds, in lane
    /// order. Both must share one pivot. An empty side changes nothing:
    /// merging into an empty accumulator copies `other` bit for bit, and
    /// merging an empty one is the identity.
    #[inline]
    pub fn merge(&mut self, other: &RateMoments) {
        debug_assert_eq!(
            self.pivot.to_bits(),
            other.pivot.to_bits(),
            "merging moments around different pivots"
        );
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.s1 += other.s1;
        self.s2 += other.s2;
    }

    /// Number of observations folded in.
    #[inline]
    pub fn count(&self) -> usize {
        self.n
    }

    /// The flat flow-order sum (bit-identical to `xs.iter().sum()` over
    /// the same values in the same order).
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The pivot the second moment is centered on.
    #[inline]
    pub fn pivot(&self) -> f64 {
        self.pivot
    }

    /// Sample mean `Σx / n` (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// `Σ (x − m)²` for an arbitrary center `m`, by exact algebra on the
    /// pivoted sums (clamped at 0 against rounding).
    #[inline]
    pub fn sum_sq_dev(&self, m: f64) -> f64 {
        let d = m - self.pivot;
        (self.s2 - 2.0 * d * self.s1 + self.n as f64 * d * d).max(0.0)
    }

    /// Unbiased sample variance around `m` (n−1 denominator; 0 when
    /// n < 2).
    #[inline]
    pub fn variance_around(&self, m: f64) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.sum_sq_dev(m) / (self.n - 1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<f64> {
        (0..257)
            .map(|i| 1.0 + 0.3 * ((i * 37 % 101) as f64 / 50.0 - 1.0))
            .collect()
    }

    #[test]
    fn sum_is_bit_identical_to_flat_fold() {
        let xs = data();
        let mut m = RateMoments::new(0.97);
        m.add_slice(&xs);
        let flat: f64 = xs.iter().sum();
        assert_eq!(m.sum(), flat);
        assert_eq!(m.mean(), flat / xs.len() as f64);
    }

    #[test]
    fn pivoted_variance_matches_two_pass() {
        let xs = data();
        for &pivot in &[0.0, 1.0, 0.97, -3.0] {
            let mut m = RateMoments::new(pivot);
            m.add_slice(&xs);
            let mean = m.mean();
            let two_pass: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
            let rel = (m.sum_sq_dev(mean) / two_pass - 1.0).abs();
            assert!(rel < 1e-12, "pivot {pivot}: rel err {rel}");
        }
    }

    #[test]
    fn arbitrary_center_identity() {
        let xs = data();
        let mut m = RateMoments::new(1.0);
        m.add_slice(&xs);
        let c = 1.234;
        let direct: f64 = xs.iter().map(|x| (x - c) * (x - c)).sum();
        assert!((m.sum_sq_dev(c) / direct - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        let m = RateMoments::new(0.0);
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance_around(0.0), 0.0);
        let mut one = RateMoments::new(0.0);
        one.add(2.5);
        assert_eq!(one.mean(), 2.5);
        assert_eq!(one.variance_around(2.5), 0.0, "n < 2 has no variance");
    }

    /// Lane partials merged in order agree with the flat fold within
    /// the 1e-12 two-pass bound the estimator proptests use, and count
    /// every observation once.
    #[test]
    fn merged_lanes_match_the_flat_fold() {
        let xs: Vec<f64> = (0..10_007)
            .map(|i| 1.0 + 0.3 * ((i * 7919 % 1009) as f64 / 504.5 - 1.0))
            .collect();
        for lane in [1, 64, 1000, 4096, 10_006] {
            let mut flat = RateMoments::new(0.97);
            flat.add_slice(&xs);
            let mut merged = RateMoments::new(0.97);
            for part in xs.chunks(lane) {
                let mut m = RateMoments::new(0.97);
                m.add_slice(part);
                merged.merge(&m);
            }
            assert_eq!(merged.count(), xs.len(), "lane {lane}");
            assert!(
                (merged.mean() / flat.mean() - 1.0).abs() < 1e-12,
                "lane {lane}"
            );
            let mean = merged.mean();
            let two_pass: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
            let rel = (merged.sum_sq_dev(mean) / two_pass - 1.0).abs();
            assert!(rel < 1e-12, "lane {lane}: rel err {rel}");
        }
    }

    #[test]
    fn merging_an_empty_accumulator_is_the_identity() {
        let mut m = RateMoments::new(1.0);
        m.add_slice(&data());
        let before = m;
        m.merge(&RateMoments::new(1.0));
        assert_eq!(m, before);
        let mut empty = RateMoments::new(1.0);
        empty.merge(&before);
        assert_eq!(empty, before, "merging into an empty side copies");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different pivots")]
    fn merging_mismatched_pivots_is_a_debug_assert() {
        let mut a = RateMoments::new(1.0);
        a.add(1.5);
        let mut b = RateMoments::new(2.0);
        b.add(2.5);
        a.merge(&b);
    }

    #[test]
    fn non_finite_pivot_degrades_to_zero() {
        let m = RateMoments::new(f64::NAN);
        assert_eq!(m.pivot(), 0.0);
    }
}
