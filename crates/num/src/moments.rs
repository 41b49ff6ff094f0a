//! Sufficient statistics for one tick's aggregate-rate observation.
//!
//! The fused tick kernels evolve every flow **and** reduce the fresh
//! rates into a [`RateMoments`] in the same pass, so the controller's
//! `observe` becomes O(1) per tick: it consumes `(n, c, Σx, Σ(x−c),
//! Σ(x−c)²)` — a [`SnapshotMoments`], the lanes reduced once by
//! [`RateMoments::reduce`] — instead of rescanning the rate vector.
//! Every other reduction of a rate slice — an estimator's own
//! `observe`, a load, a serve measurement where it is generated — goes
//! through the same fold, so there is one definition of a snapshot's
//! sum, and every read of one (mean, variance, finiteness) is a
//! [`SnapshotMoments`] method.
//!
//! Two numerical commitments make this safe to swap into the reporting
//! path:
//!
//! * Each sum is kept as 16 **interleaved lane partials**: the k-th
//!   rate ever added goes to lane `k mod 16`, and a read reduces the
//!   lanes by one fixed pairwise tree. So folding a slice in pieces
//!   (one [`RateMoments::add`] at a time, or any split into
//!   [`RateMoments::add_slice`] calls) gives the bits of folding it
//!   whole, and since the lane count is a constant and no step fuses a
//!   multiply into an add, the bits do not depend on the target CPU. The
//!   lanes are independent chains, so the compiler keeps them in vector
//!   registers: the fold is bound by throughput, not by add latency. A
//!   table too large for one flow lane folds each flow lane this way and
//!   [`RateMoments::merge`]s them in order instead.
//! * The second moment is accumulated around a caller-chosen **pivot**
//!   `c` (typically the controller's previous mean estimate), and
//!   `Σ(x−m)²` is reconstructed via the exact algebraic identity
//!   `Σ(x−m)² = Σ(x−c)² − 2(m−c)Σ(x−c) + n(m−c)²`. With a pivot near
//!   the data mean the reconstruction agrees with a centered two-pass
//!   computation to ~1e-15 relative — the equivalence the estimator
//!   property tests pin at 1e-12.
//!
//! A node that measures through noise observes a fold too:
//! [`fold_noisy`] draws the noise's exact effect on the five numbers,
//! not a noisy rate per flow.

use crate::rng::{chi_squared, NormalSampler};
use rand::Rng;

/// Lane partials each sum keeps (module docs).
const LANES: usize = 16;

/// One-pass pivoted moment accumulator over a tick's flow rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateMoments {
    n: usize,
    sum: [f64; LANES],
    /// `Σ (x − c)` around the pivot.
    s1: [f64; LANES],
    /// `Σ (x − c)²` around the pivot.
    s2: [f64; LANES],
    pivot: f64,
}

/// The lanes' total, by one fixed pairwise tree: lane `j` takes lane
/// `j + w` for `w = 8, 4, 2, 1`.
#[inline]
fn reduce(mut lanes: [f64; LANES]) -> f64 {
    let mut w = LANES / 2;
    while w > 0 {
        for j in 0..w {
            lanes[j] += lanes[j + w];
        }
        w /= 2;
    }
    lanes[0]
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
            sum: [0.0; LANES],
            s1: [0.0; LANES],
            s2: [0.0; LANES],
            pivot,
        }
    }

    /// Folds `xs` around `pivot`: [`RateMoments::new`], then
    /// [`RateMoments::add_slice`].
    #[inline]
    pub fn of(pivot: f64, xs: &[f64]) -> Self {
        let mut m = RateMoments::new(pivot);
        m.add_slice(xs);
        m
    }

    /// Adds one rate observation.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let j = self.n % LANES;
        self.n += 1;
        self.sum[j] += x;
        let d = x - self.pivot;
        self.s1[j] += d;
        self.s2[j] += d * d;
    }

    /// Adds every element of a slice, in order: the bits of as many
    /// [`RateMoments::add`] calls.
    // Out of line: inlined into a caller's loop, the lanes lost their
    // vector registers and the fold ran at 0.7 ns a rate, not 0.25.
    #[inline(never)]
    pub fn add_slice(&mut self, xs: &[f64]) {
        // Up to the next lane-0 boundary one at a time, then whole
        // chunks, then the tail.
        let lead = ((LANES - self.n % LANES) % LANES).min(xs.len());
        let (head, body) = xs.split_at(lead);
        for &x in head {
            self.add(x);
        }
        let chunks = body.chunks_exact(LANES);
        let tail = chunks.remainder();
        let (mut sum, mut s1, mut s2, p) = (self.sum, self.s1, self.s2, self.pivot);
        // One inner loop per accumulator: one loop updating all three
        // per rate does not vectorize, and runs at the serial fold's
        // speed.
        for c in chunks {
            let c: &[f64; LANES] = c.try_into().expect("exact chunk");
            for j in 0..LANES {
                sum[j] += c[j];
            }
            for j in 0..LANES {
                s1[j] += c[j] - p;
            }
            for j in 0..LANES {
                let d = c[j] - p;
                s2[j] += d * d;
            }
        }
        (self.sum, self.s1, self.s2) = (sum, s1, s2);
        self.n += body.len() - tail.len();
        for &x in tail {
            self.add(x);
        }
    }

    /// Adds the observations another accumulator folded, as partial
    /// sums: how a table too large for one flow lane (see
    /// `mbac_traffic::batch`) combines its per-lane folds, in lane
    /// order. `other`'s k-th rate lands in the lane this accumulator's
    /// next k-th rate would. Both must share one pivot. An empty side
    /// changes nothing: merging into an empty accumulator copies `other`
    /// bit for bit, and merging an empty one is the identity.
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
        let offset = self.n % LANES;
        for j in 0..LANES {
            let k = (offset + j) % LANES;
            self.sum[k] += other.sum[j];
            self.s1[k] += other.s1[j];
            self.s2[k] += other.s2[j];
        }
        self.n += other.n;
    }

    /// Number of observations folded in.
    #[inline]
    pub fn count(&self) -> usize {
        self.n
    }

    /// `Σx`: the lanes reduced by the fixed tree.
    #[inline]
    pub fn sum(&self) -> f64 {
        reduce(self.sum)
    }

    /// The pivot the second moment is centered on.
    #[inline]
    pub fn pivot(&self) -> f64 {
        self.pivot
    }

    /// The fold's five numbers, each sum's lanes reduced once by the
    /// fixed tree: what an estimator observes.
    #[inline]
    pub fn reduce(&self) -> SnapshotMoments {
        SnapshotMoments {
            n: self.n,
            pivot: self.pivot,
            sum: reduce(self.sum),
            s1: reduce(self.s1),
            s2: reduce(self.s2),
        }
    }
}

/// One snapshot's sufficient statistics: `n`, the pivot `c`, `Σx`,
/// `Σ(x−c)` and `Σ(x−c)²`, read off a [`RateMoments`] fold by
/// [`RateMoments::reduce`]. Five numbers whatever the snapshot's size,
/// so a measurement crosses a thread, or a channel, as this and not as
/// its rates. Every read of a fold's statistics is here. The default
/// is the fold of no rates around 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SnapshotMoments {
    n: usize,
    pivot: f64,
    sum: f64,
    s1: f64,
    s2: f64,
}

impl SnapshotMoments {
    /// Number of observations folded in.
    #[inline]
    pub fn count(&self) -> usize {
        self.n
    }

    /// `Σx`.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The pivot the second moment is centered on.
    #[inline]
    pub fn pivot(&self) -> f64 {
        self.pivot
    }

    /// Whether every folded rate, and every sum, is finite: a NaN or
    /// ±∞ rate makes `Σx` non-finite, and a square that overflows makes
    /// `Σ(x−c)²` infinite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.sum.is_finite() && self.s1.is_finite() && self.s2.is_finite()
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

/// How many noise deviations above zero a rate must be for its noisy
/// measurement never to reach the zero clamp: the normal sampler never
/// returns `|Z|` beyond `x₁ + √(106 ln 2) ≈ 12.23` (`x₁` its tail cut;
/// derived from its table in `rng`'s tests).
pub const CLAMP_GUARD_SDS: f64 = 13.0;

/// The fewest flows whose noise [`fold_noisy`] draws as a whole: below
/// this a link draws it flow by flow.
const MIN_UNGUARDED: usize = 4;

/// A node's measurement of the rates in `parts`, laid end to end,
/// through independent `N(0, sd²)` noise on every rate, clamped at
/// zero, folded around `pivot` — or, with no pivot, around the first
/// flow's measured rate (the window rule of `fold_snapshot`). The parts
/// are read where they lie: any split of the same rates gives the bits
/// of their concatenation (module docs, and the order below is the
/// concatenation's). The law of the fold of `max(r + e, 0)`, drawn at
/// the cost of one fold of the noiseless rates and a few draws rather
/// than one per flow:
///
/// * The pivot flow (with no pivot) and every flow with `r < 13·sd`
///   ([`CLAMP_GUARD_SDS`]) draw their own `e`, are clamped, and move the
///   fold by what the measured rate adds over the rate — in that order,
///   the flows below the guard in rate order. When fewer than four
///   flows are left, they draw theirs the same way, in order.
/// * Otherwise the other `m` flows, which never reach the clamp, add `Σe`,
///   `2Σ(r − c)e` and `Σe²` to the fold. By the rotation invariance of
///   `e ~ N(0, sd² I)`, with `q₁ = 1/√m` and `q₂` the unit part of
///   `r − c` orthogonal to it, `e = sd (g₁q₁ + g₂q₂ + w)`: `Σe = sd √m
///   g₁`, `Σ(r − c)e = sd (Σ(r − c)/√m · g₁ + ‖(r − c)⊥‖ g₂)` and `Σe²
///   = sd² (g₁² + g₂² + χ²_{m−2})` — two Gaussians and a
///   [`chi_squared`] draw.
///
/// `sd = 0` draws nothing, and is the bits of the noiseless fold. A
/// non-finite rate makes the fold non-finite, as it does a noiseless
/// one.
pub fn fold_noisy<R: Rng>(
    parts: &[&[f64]],
    pivot: Option<f64>,
    sd: f64,
    rng: &mut R,
) -> SnapshotMoments {
    // The first flow, and the parts from the one that holds it.
    let lead = parts.iter().position(|part| !part.is_empty());
    let (first, parts) = match lead {
        Some(i) => (Some(parts[i][0]), &parts[i..]),
        None => (None, &[][..]),
    };
    let fold = |pivot| {
        let mut all = RateMoments::new(pivot);
        for part in parts {
            all.add_slice(part);
        }
        all.reduce()
    };
    if sd.is_nan() || sd <= 0.0 {
        return fold(pivot.or(first).unwrap_or(0.0));
    }
    let gaussian = NormalSampler::get();
    let measure = |r: f64, rng: &mut R| (r + sd * gaussian.sample(rng)).max(0.0);
    let (first, skip) = match (pivot, first) {
        (Some(_), _) => (None, 0),
        (None, Some(r)) => (Some((r, measure(r, rng))), 1),
        (None, None) => return SnapshotMoments::default(),
    };
    // The flows after the pivot flow, a part at a time.
    let rest = || {
        let (head, tail) = parts
            .split_first()
            .map_or((&[][..], parts), |(h, t)| (*h, t));
        std::iter::once(&head[skip..]).chain(tail.iter().copied())
    };
    let pivot = pivot.or(first.map(|(_, x)| x)).unwrap_or(0.0);
    let all = fold(pivot);
    let mut drawn = Drawn::around(all.pivot);
    if let Some((r, x)) = first {
        drawn.add(r, x);
    }
    // The rates below the guard, found 64 at a time by a mask rather
    // than by a branch on every rate, drawn on a local copy of `rng`.
    let guard = CLAMP_GUARD_SDS * sd;
    rng.round_trip(|rng| {
        for part in rest() {
            for chunk in part.chunks(64) {
                let mut below = 0u64;
                for (j, &r) in chunk.iter().enumerate() {
                    below |= u64::from(r < guard) << j;
                }
                while below != 0 {
                    let r = chunk[below.trailing_zeros() as usize];
                    below &= below - 1;
                    drawn.add(r, measure(r, rng));
                }
            }
        }
    });
    let unguarded = all.n - drawn.n;
    if unguarded < MIN_UNGUARDED {
        for &r in rest().flatten().filter(|&&r| r >= guard) {
            drawn.add(r, measure(r, rng));
        }
        return drawn.applied_to(all, 0.0, 0.0, 0.0);
    }
    // The unguarded flows' `Σ(r − c)`, `Σ(r − c)²` and the part of
    // `r − c` orthogonal to 1.
    let m = unguarded as f64;
    let (s1, s2) = (all.s1 - drawn.s1, all.s2 - drawn.s2);
    let root_m = m.sqrt();
    let perp = (s2 - s1 * s1 / m).max(0.0).sqrt();
    let (g1, g2) = (gaussian.sample(rng), gaussian.sample(rng));
    let chi = chi_squared(rng, unguarded - 2);
    let sum_e = sd * root_m * g1;
    let cross = sd * (s1 / root_m * g1 + perp * g2);
    let sum_e2 = sd * sd * (g1 * g1 + g2 * g2 + chi);
    drawn.applied_to(all, sum_e, cross, sum_e2)
}

/// The flows [`fold_noisy`] measures one by one: how far their measured
/// rates `x` move the noiseless fold around `c`, and what their rates
/// `r` hold of it.
struct Drawn {
    c: f64,
    n: usize,
    /// `Σ(x − r)`.
    shift: f64,
    /// `Σ((x − c)² − (r − c)²)`, as `Σ(x − r)(x − c + r − c)`.
    sq_shift: f64,
    /// `Σ(r − c)`.
    s1: f64,
    /// `Σ(r − c)²`.
    s2: f64,
}

impl Drawn {
    fn around(c: f64) -> Self {
        Drawn {
            c,
            n: 0,
            shift: 0.0,
            sq_shift: 0.0,
            s1: 0.0,
            s2: 0.0,
        }
    }

    /// A flow of rate `r` measured at `x`.
    #[inline]
    fn add(&mut self, r: f64, x: f64) {
        let (d, e) = (r - self.c, x - r);
        self.n += 1;
        self.shift += e;
        self.sq_shift += e * (x - self.c + d);
        self.s1 += d;
        self.s2 += d * d;
    }

    /// The noiseless fold `all` with these flows measured, and the other
    /// flows' noise adding `Σe`, `Σ(r − c)e` and `Σe²`.
    fn applied_to(
        &self,
        all: SnapshotMoments,
        sum_e: f64,
        cross: f64,
        sum_e2: f64,
    ) -> SnapshotMoments {
        SnapshotMoments {
            sum: all.sum + self.shift + sum_e,
            s1: all.s1 + self.shift + sum_e,
            s2: all.s2 + self.sq_shift + 2.0 * cross + sum_e2,
            ..all
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

    /// The arithmetic the lanes replaced: a flat left-to-right sum and a
    /// centered second pass.
    fn two_pass(xs: &[f64]) -> (f64, f64) {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        (mean, xs.iter().map(|x| (x - mean) * (x - mean)).sum())
    }

    /// Any split of a slice, one `add` at a time included, folds to the
    /// bits of the whole slice.
    #[test]
    fn folding_in_pieces_is_bit_equal_to_folding_whole() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| 1.0 + 0.3 * ((i * 7919 % 1009) as f64 / 504.5 - 1.0))
            .collect();
        let whole = RateMoments::of(0.97, &xs);
        let mut one_by_one = RateMoments::new(0.97);
        for &x in &xs {
            one_by_one.add(x);
        }
        assert_eq!(one_by_one, whole);
        for cuts in [
            vec![0, 1000],
            vec![1, 17, 16, 999],
            vec![3, 5, 7, 11, 13, 64, 500],
            vec![15, 31, 47, 63, 100, 333, 334, 335],
        ] {
            let mut pieces = RateMoments::new(0.97);
            let mut from = 0;
            for &to in cuts.iter().chain([&xs.len()]) {
                pieces.add_slice(&xs[from..to.max(from)]);
                from = to.max(from);
            }
            assert_eq!(pieces, whole, "cuts {cuts:?}");
            assert_eq!(pieces.sum().to_bits(), whole.sum().to_bits());
        }
    }

    /// The fold agrees with the two-pass reference within 1e-12
    /// relative, on mean and `sum_sq_dev`, whatever the pivot and
    /// length (tails shorter than a chunk included).
    #[test]
    fn pivoted_variance_matches_two_pass() {
        let xs = data();
        for len in [1, 2, 15, 16, 17, 100, 257] {
            let xs = &xs[..len];
            let (mean, ssd) = two_pass(xs);
            for &pivot in &[0.0, 1.0, 0.97, -3.0] {
                let m = RateMoments::of(pivot, xs).reduce();
                assert!((m.mean() / mean - 1.0).abs() < 1e-12, "len {len}");
                let got = m.sum_sq_dev(m.mean());
                assert!(
                    (got - ssd).abs() <= 1e-12 * ssd.max(1e-300) + 1e-15,
                    "len {len}, pivot {pivot}: {got} vs {ssd}"
                );
            }
        }
    }

    /// A fold's bits, pinned: they must not depend on the target CPU
    /// (CI runs this under `-C target-cpu=x86-64` as well as `native`).
    #[test]
    fn fold_bits_are_pinned() {
        let xs: Vec<f64> = (0..1003)
            .map(|i| 1.0 + 0.3 * ((i * 7919 % 1009) as f64 / 504.5 - 1.0))
            .collect();
        let m = RateMoments::of(0.97, &xs).reduce();
        let mut merged = RateMoments::of(0.97, &xs[..500]);
        merged.merge(&RateMoments::of(0.97, &xs[500..]));
        let merged = merged.reduce();
        let bits = [
            m.sum(),
            m.sum_sq_dev(m.mean()),
            merged.sum(),
            merged.sum_sq_dev(1.0),
        ]
        .map(f64::to_bits);
        assert_eq!(
            bits,
            [
                0x408f54b714f4fd1b,
                0x403e1f7c98cc1019,
                0x408f54b714f4fd1b,
                0x403e1f879ce8f7eb
            ]
        );
    }

    #[test]
    fn arbitrary_center_identity() {
        let xs = data();
        let m = RateMoments::of(1.0, &xs).reduce();
        let c = 1.234;
        let direct: f64 = xs.iter().map(|x| (x - c) * (x - c)).sum();
        assert!((m.sum_sq_dev(c) / direct - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        let m = RateMoments::new(0.0).reduce();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance_around(0.0), 0.0);
        let mut one = RateMoments::new(0.0);
        one.add(2.5);
        let one = one.reduce();
        assert_eq!(one.mean(), 2.5);
        assert_eq!(one.variance_around(2.5), 0.0, "n < 2 has no variance");
    }

    /// Flow-lane partials merged in order agree with the whole fold
    /// within the 1e-12 two-pass bound the estimator proptests use, and
    /// count every observation once.
    #[test]
    fn merged_lanes_match_the_whole_fold() {
        let xs: Vec<f64> = (0..10_007)
            .map(|i| 1.0 + 0.3 * ((i * 7919 % 1009) as f64 / 504.5 - 1.0))
            .collect();
        let whole = RateMoments::of(0.97, &xs).reduce();
        for lane in [1, 64, 1000, 4096, 10_006] {
            let mut merged = RateMoments::new(0.97);
            for part in xs.chunks(lane) {
                merged.merge(&RateMoments::of(0.97, part));
            }
            let merged = merged.reduce();
            assert_eq!(merged.count(), xs.len(), "lane {lane}");
            assert!(
                (merged.mean() / whole.mean() - 1.0).abs() < 1e-12,
                "lane {lane}"
            );
            let (mean, ssd) = two_pass(&xs);
            let rel = (merged.sum_sq_dev(mean) / ssd - 1.0).abs();
            assert!(rel < 1e-12, "lane {lane}: rel err {rel}");
        }
    }

    #[test]
    fn merging_an_empty_accumulator_is_the_identity() {
        let before = RateMoments::of(1.0, &data());
        let mut m = before;
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

    #[test]
    fn a_non_finite_rate_anywhere_is_seen() {
        let xs = data();
        assert!(RateMoments::of(1.0, &xs).reduce().is_finite());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200] {
            for at in [0, 15, 16, 100, 256] {
                let mut ys = xs.clone();
                ys[at] = bad;
                assert!(
                    !RateMoments::of(1.0, &ys).reduce().is_finite(),
                    "{bad} at {at}"
                );
            }
        }
    }
}
