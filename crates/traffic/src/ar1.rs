//! Discrete-time AR(1) Gaussian source — a sampled Ornstein–Uhlenbeck
//! process.
//!
//! Unlike the RCBR source (piecewise constant between renegotiations),
//! this source changes continuously-in-distribution on a fixed tick
//! `Δ`: `X_{k+1} = μ + a (X_k − μ) + ε_k` with `a = e^{−Δ/T_c}` and
//! `ε_k ~ N(0, σ²(1−a²))`, which keeps the stationary marginal exactly
//! `N(μ, σ²)` and the autocorrelation exactly `e^{−|τ|/T_c}` on the
//! tick grid. Used to confirm that the theory's predictions do not hinge
//! on the RCBR jump structure — only on the second-order statistics.

use crate::batch::{BatchKey, FlowBatch};
use crate::process::{RateProcess, SourceModel};
use mbac_num::rng::{normal, standard_normal, NormalSampler};
use mbac_num::RateMoments;
use rand::rngs::StdRng;
use rand::RngCore;

/// Configuration of an AR(1) source.
#[derive(Debug, Clone, Copy)]
pub struct Ar1Config {
    /// Stationary mean `μ`.
    pub mean: f64,
    /// Stationary standard deviation `σ`.
    pub std_dev: f64,
    /// Correlation time-scale `T_c`.
    pub t_c: f64,
    /// Update tick `Δ` (should be ≪ `T_c` to approximate continuous
    /// motion).
    pub tick: f64,
    /// Clamp rates at zero.
    pub clamp_at_zero: bool,
}

/// Factory for AR(1) flows.
#[derive(Debug, Clone, Copy)]
pub struct Ar1Model {
    cfg: Ar1Config,
}

impl Ar1Model {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics on non-positive mean, `T_c` or tick, or negative σ.
    pub fn new(cfg: Ar1Config) -> Self {
        assert!(cfg.mean > 0.0 && cfg.mean.is_finite());
        assert!(cfg.std_dev >= 0.0 && cfg.std_dev.is_finite());
        assert!(cfg.t_c > 0.0 && cfg.t_c.is_finite());
        assert!(cfg.tick > 0.0 && cfg.tick.is_finite());
        Ar1Model { cfg }
    }
}

impl SourceModel for Ar1Model {
    fn spawn(&self, rng: &mut dyn RngCore) -> Box<dyn RateProcess> {
        let mut s = Ar1Source {
            cfg: self.cfg,
            value: 0.0,
            elapsed: 0.0,
        };
        s.reset(rng);
        Box::new(s)
    }

    fn mean(&self) -> f64 {
        self.cfg.mean
    }

    fn variance(&self) -> f64 {
        self.cfg.std_dev * self.cfg.std_dev
    }

    fn batch_key(&self) -> Option<BatchKey> {
        Some(BatchKey::Ar1 {
            mean: self.cfg.mean,
            std_dev: self.cfg.std_dev,
            t_c: self.cfg.t_c,
            tick: self.cfg.tick,
            clamp_at_zero: self.cfg.clamp_at_zero,
        })
    }

    fn new_batch(&self) -> Option<Box<dyn FlowBatch>> {
        Some(Box::new(Ar1Batch::new(self.cfg)))
    }
}

/// Lane width of the chunked AR(1) kernel. Eight f64 lanes fill two
/// AVX2 (or one AVX-512) vector registers and keep the innovation
/// scratch a cache-resident strip.
const LANES: usize = 8;

/// Chunks needing more steps than this per tick take the scalar path,
/// bounding the innovation scratch. Simulation dt/tick ratios are single
/// digits, so the fused path covers every realistic configuration.
const MAX_FUSED_STEPS: usize = 64;

/// Upper bound on the whole-array innovation scratch (in f64s, 256 KiB).
/// Larger advances fall back to the per-chunk kernel, whose scratch is
/// bounded by `MAX_FUSED_STEPS * LANES`.
const MAX_ARRAY_SCRATCH: usize = 1 << 15;

/// Struct-of-arrays batch of AR(1) flows. The tick coefficient
/// `a = e^{−Δ/T_c}` and the innovation σ are hoisted out of the per-flow
/// loop (the boxed source recomputes both on every step), and the rate
/// cache is refreshed in the same pass as the advance.
///
/// The advance runs a chunked two-phase kernel: flows are processed
/// `LANES` at a time, the innovations for a chunk are drawn first (in
/// exact flow order, preserving the RNG-stream contract) into a strided
/// scratch strip, and the state recurrence then runs lane-parallel over
/// the chunk — a branch-free inner loop the autovectorizer can lift to
/// SIMD. Per-flow arithmetic is expression-for-expression identical to
/// the scalar recurrence, so rates stay bit-identical to the boxed
/// engine.
pub struct Ar1Batch {
    cfg: Ar1Config,
    /// Hoisted `e^{−Δ/T_c}`.
    a: f64,
    /// Hoisted `σ √(1−a²)`.
    innovation_sd: f64,
    /// Untruncated AR(1) state per flow.
    values: Vec<f64>,
    /// Time since the last tick boundary per flow.
    elapsed: Vec<f64>,
    /// Cached (clamped) rates per flow.
    rates: Vec<f64>,
    /// Reusable innovation strip for the chunked kernel: lane `j`'s
    /// draws for one advance occupy `scratch[j*k .. (j+1)*k]` (flat
    /// flow-major draw order).
    scratch: Vec<f64>,
    /// When `Some(bits)`, every flow's `elapsed` is known to hold the
    /// f64 with those bits, so the whole-array fast path can skip its
    /// uniformity scan. `None` means unknown (the scan re-establishes
    /// it). Maintained conservatively: spawns that break phase lock and
    /// the mixed-phase fallback path clear it.
    elapsed_uniform: Option<u64>,
}

/// One flow's scalar update — the reference recurrence every fused path
/// must reproduce bit-for-bit. Also used directly for chunk remainders
/// and for chunks whose lanes cross different numbers of tick
/// boundaries.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scalar_step(
    mean: f64,
    tick: f64,
    a: f64,
    sd: f64,
    clamp: bool,
    dt: f64,
    sampler: &NormalSampler,
    value: &mut f64,
    elapsed: &mut f64,
    rate: &mut f64,
    rng: &mut StdRng,
) {
    let mut v = *value;
    let mut e = *elapsed + dt;
    while e >= tick {
        e -= tick;
        v = mean + a * (v - mean) + sd * sampler.sample(rng);
    }
    *value = v;
    *elapsed = e;
    *rate = if clamp { v.max(0.0) } else { v };
}

/// Phase B of the fused kernel for one [`LANES`]-wide chunk: the
/// lane-parallel recurrence over `k0` steps, lane `j` reading its
/// innovation stream at `scratch[j * k0 + step]` (flat draw order).
/// Per lane this is the identical expression sequence as
/// [`scalar_step`], so the states are bit-identical.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn chunk_recurrence(
    mean: f64,
    a: f64,
    sd: f64,
    clamp: bool,
    k0: usize,
    scratch: &[f64],
    values: &mut [f64],
    rates: &mut [f64],
) {
    // Lane-outer, step-inner: each lane walks its contiguous innovation
    // run with an iterator (no bounds checks), and the eight
    // independent short dependency chains sit adjacent in program order
    // for the out-of-order core to overlap.
    for (j, lane) in scratch[..k0 * LANES].chunks_exact(k0).enumerate() {
        let mut vj = values[j];
        for &eps in lane {
            vj = mean + a * (vj - mean) + sd * eps;
        }
        values[j] = vj;
        rates[j] = if clamp { vj.max(0.0) } else { vj };
    }
}

impl Ar1Batch {
    /// Creates an empty batch for flows of the given configuration.
    pub fn new(cfg: Ar1Config) -> Self {
        let a = (-cfg.tick / cfg.t_c).exp();
        let innovation_sd = cfg.std_dev * (1.0 - a * a).sqrt();
        Ar1Batch {
            cfg,
            a,
            innovation_sd,
            values: Vec::new(),
            elapsed: Vec::new(),
            rates: Vec::new(),
            scratch: Vec::new(),
            elapsed_uniform: Some(0.0f64.to_bits()),
        }
    }

    fn clamp(&self, value: f64) -> f64 {
        if self.cfg.clamp_at_zero {
            value.max(0.0)
        } else {
            value
        }
    }

    /// The shared advance(+measure) kernel. `MEASURE` folds each
    /// refreshed rate into `mom` in flow order within the same pass;
    /// when `false` the accumulation compiles out and `mom` is untouched.
    #[inline(always)]
    fn kernel<const MEASURE: bool>(&mut self, dt: f64, rng: &mut StdRng, mom: &mut RateMoments) {
        assert!(dt >= 0.0);
        let (mean, tick, clamp) = (self.cfg.mean, self.cfg.tick, self.cfg.clamp_at_zero);
        let (a, sd) = (self.a, self.innovation_sd);
        let sampler = NormalSampler::get();
        let n = self.values.len();
        let values = &mut self.values[..];
        let elapsed = &mut self.elapsed[..];
        let rates = &mut self.rates[..];
        let scratch = &mut self.scratch;

        // Whole-array fast path: flows advanced in lock-step share one
        // elapsed phase forever (spawns start at phase zero and the
        // common case of an observation interval that is a multiple of
        // the tick returns everyone to phase zero together), so one
        // replay usually covers every flow and the innovations for the
        // whole array can be drawn in a single flat fill — flow-major,
        // exactly the boxed engine's draw order — before one tight
        // lane-parallel sweep.
        let nfull = n - n % LANES;
        let uniform_in = match self.elapsed_uniform {
            Some(b) => {
                debug_assert!(n == 0 || elapsed[0].to_bits() == b);
                true
            }
            // Re-establish the invariant by scanning (bit equality, so
            // the replay below is exact for every flow).
            None => {
                nfull > 0
                    && elapsed[1..n]
                        .iter()
                        .all(|&ej| ej.to_bits() == elapsed[0].to_bits())
            }
        };
        if nfull > 0 && uniform_in {
            let mut ej = elapsed[0] + dt;
            let mut k0 = 0usize;
            while ej >= tick {
                ej -= tick;
                k0 += 1;
            }
            if k0 == 0 {
                // No boundary crossed anywhere: states and rates are
                // already current; only the fractional phase moves.
                for x in elapsed.iter_mut() {
                    *x = ej;
                }
                self.elapsed_uniform = Some(ej.to_bits());
                if MEASURE {
                    for &r in rates.iter() {
                        mom.add(r);
                    }
                }
                return;
            }
            if k0 <= MAX_FUSED_STEPS && k0 * nfull <= MAX_ARRAY_SCRATCH {
                scratch.resize(k0 * nfull, 0.0);
                // Software-pipelined: fill chunk c+1's innovations, then
                // run chunk c's recurrence — the FP recurrence overlaps
                // the next chunk's integer-heavy draw run in the
                // out-of-order window. Fills still execute in order, so
                // the draw stream is untouched.
                let w = k0 * LANES;
                sampler.fill(rng, &mut scratch[..w]);
                let mut c = 0;
                while c < nfull {
                    let base = c * k0;
                    if c + LANES < nfull {
                        sampler.fill(rng, &mut scratch[base + w..base + 2 * w]);
                    }
                    chunk_recurrence(
                        mean,
                        a,
                        sd,
                        clamp,
                        k0,
                        &scratch[base..base + w],
                        &mut values[c..c + LANES],
                        &mut rates[c..c + LANES],
                    );
                    if MEASURE {
                        for j in 0..LANES {
                            mom.add(rates[c + j]);
                        }
                    }
                    c += LANES;
                }
                for x in elapsed[..nfull].iter_mut() {
                    *x = ej;
                }
                // Remainder flows: scalar, continuing the same stream.
                // Their elapsed replay starts from the same phase, so
                // they land on the same `ej` and uniformity holds.
                for i in nfull..n {
                    scalar_step(
                        mean,
                        tick,
                        a,
                        sd,
                        clamp,
                        dt,
                        &sampler,
                        &mut values[i],
                        &mut elapsed[i],
                        &mut rates[i],
                        rng,
                    );
                    if MEASURE {
                        mom.add(rates[i]);
                    }
                }
                self.elapsed_uniform = Some(ej.to_bits());
                return;
            }
        }
        // Mixed phases (or an advance too large for the whole-array
        // scratch): conservative — re-scan next time.
        self.elapsed_uniform = None;

        let mut i = 0;
        while i + LANES <= n {
            // Pre-pass: replay each lane's elapsed-time subtraction
            // exactly (it draws nothing, so it commutes with the RNG) to
            // learn the step counts and final fractional elapsed times.
            // Flows spawned together stay phase-locked forever, so the
            // whole chunk usually shares one elapsed value and one
            // replay covers it.
            let mut e = [0.0f64; LANES];
            let mut k = [0usize; LANES];
            let e0 = elapsed[i];
            if elapsed[i + 1..i + LANES].iter().all(|&ej| ej == e0) {
                let mut ej = e0 + dt;
                let mut kj = 0usize;
                while ej >= tick {
                    ej -= tick;
                    kj += 1;
                }
                e = [ej; LANES];
                k = [kj; LANES];
            } else {
                for j in 0..LANES {
                    let mut ej = elapsed[i + j] + dt;
                    let mut kj = 0usize;
                    while ej >= tick {
                        ej -= tick;
                        kj += 1;
                    }
                    e[j] = ej;
                    k[j] = kj;
                }
            }
            let k0 = k[0];
            if k.iter().all(|&kj| kj == k0) && k0 <= MAX_FUSED_STEPS {
                if k0 > 0 {
                    // Phase A: draw the chunk's innovations in exact
                    // flow order (lane 0's k0 draws first, then lane
                    // 1's, …) into flat draw-ordered scratch — lane j's
                    // innovations occupy scratch[j*k0..(j+1)*k0].
                    // Draws go LANES at a time through the speculative
                    // batch sampler — one branchless run of LANES words
                    // plus one contiguous block store in the common
                    // all-interior case — falling back to scalar draws
                    // (same stream) when a wedge or tail draw occurs.
                    scratch.resize(k0 * LANES, 0.0);
                    sampler.fill(rng, &mut scratch[..k0 * LANES]);
                    // Phase B: lane-parallel recurrence over the chunk.
                    chunk_recurrence(
                        mean,
                        a,
                        sd,
                        clamp,
                        k0,
                        &scratch[..k0 * LANES],
                        &mut values[i..i + LANES],
                        &mut rates[i..i + LANES],
                    );
                }
                // k0 == 0: no boundary crossed, states and rates are
                // already current. Either way the fractional elapsed
                // times move forward.
                elapsed[i..i + LANES].copy_from_slice(&e);
            } else {
                // Lanes cross different numbers of boundaries (or a
                // huge dt): per-flow scalar path, same draw order.
                for j in 0..LANES {
                    scalar_step(
                        mean,
                        tick,
                        a,
                        sd,
                        clamp,
                        dt,
                        &sampler,
                        &mut values[i + j],
                        &mut elapsed[i + j],
                        &mut rates[i + j],
                        rng,
                    );
                }
            }
            if MEASURE {
                for j in 0..LANES {
                    mom.add(rates[i + j]);
                }
            }
            i += LANES;
        }
        while i < n {
            scalar_step(
                mean,
                tick,
                a,
                sd,
                clamp,
                dt,
                &sampler,
                &mut values[i],
                &mut elapsed[i],
                &mut rates[i],
                rng,
            );
            if MEASURE {
                mom.add(rates[i]);
            }
            i += 1;
        }
    }
}

impl FlowBatch for Ar1Batch {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn advance_all(&mut self, dt: f64, rng: &mut StdRng) {
        let mut unused = RateMoments::new(0.0);
        self.kernel::<false>(dt, rng, &mut unused);
    }

    fn advance_and_measure(&mut self, dt: f64, rng: &mut StdRng, mom: &mut RateMoments) {
        self.kernel::<true>(dt, rng, mom);
    }

    fn rates(&self) -> &[f64] {
        &self.rates
    }

    fn spawn_one(&mut self, rng: &mut StdRng) {
        // Same draw as `Ar1Source::reset`.
        let value = normal(rng, self.cfg.mean, self.cfg.std_dev);
        // The newcomer starts at phase zero: the batch stays uniform
        // only if the incumbents also sit at phase zero (e.g. arrivals
        // on a tick-multiple grid).
        let zero = 0.0f64.to_bits();
        self.elapsed_uniform = if self.values.is_empty() || self.elapsed_uniform == Some(zero) {
            Some(zero)
        } else {
            None
        };
        self.values.push(value);
        self.elapsed.push(0.0);
        self.rates.push(self.clamp(value));
    }

    fn swap_remove(&mut self, i: usize) {
        self.values.swap_remove(i);
        self.elapsed.swap_remove(i);
        self.rates.swap_remove(i);
    }
}

/// One AR(1) flow.
#[derive(Debug, Clone)]
pub struct Ar1Source {
    cfg: Ar1Config,
    /// Untruncated AR(1) state.
    value: f64,
    /// Time accumulated since the last tick boundary.
    elapsed: f64,
}

impl Ar1Source {
    /// Creates a flow in its stationary distribution.
    pub fn new(cfg: Ar1Config, rng: &mut dyn RngCore) -> Self {
        let mut s = Ar1Source {
            cfg,
            value: 0.0,
            elapsed: 0.0,
        };
        s.reset(rng);
        s
    }

    fn step(&mut self, rng: &mut dyn RngCore) {
        let a = (-self.cfg.tick / self.cfg.t_c).exp();
        let innovation_sd = self.cfg.std_dev * (1.0 - a * a).sqrt();
        self.value =
            self.cfg.mean + a * (self.value - self.cfg.mean) + innovation_sd * standard_normal(rng);
    }
}

impl RateProcess for Ar1Source {
    fn rate(&self) -> f64 {
        if self.cfg.clamp_at_zero {
            self.value.max(0.0)
        } else {
            self.value
        }
    }

    fn advance(&mut self, dt: f64, rng: &mut dyn RngCore) {
        assert!(dt >= 0.0);
        self.elapsed += dt;
        while self.elapsed >= self.cfg.tick {
            self.elapsed -= self.cfg.tick;
            self.step(rng);
        }
    }

    fn reset(&mut self, rng: &mut dyn RngCore) {
        self.value = normal(rng, self.cfg.mean, self.cfg.std_dev);
        self.elapsed = 0.0;
    }

    fn mean(&self) -> f64 {
        self.cfg.mean
    }

    fn variance(&self) -> f64 {
        self.cfg.std_dev * self.cfg.std_dev
    }

    fn autocorrelation(&self, tau: f64) -> Option<f64> {
        Some((-tau.abs() / self.cfg.t_c).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::test_util::{check_acf, check_moments};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> Ar1Config {
        Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick: 0.05,
            clamp_at_zero: false,
        }
    }

    #[test]
    fn stationary_moments() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut s = Ar1Source::new(cfg(), &mut rng);
        check_moments(&mut s, 0.25, 200_000, 0.01, 0.01, 22);
    }

    #[test]
    fn exponential_autocorrelation() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut s = Ar1Source::new(cfg(), &mut rng);
        check_acf(&mut s, 0.5, 300_000, &[1, 2, 4], 0.02, 24);
    }

    #[test]
    fn sub_tick_advance_does_not_move() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut s = Ar1Source::new(cfg(), &mut rng);
        let r = s.rate();
        s.advance(0.01, &mut rng); // below the 0.05 tick
        assert_eq!(s.rate(), r);
        s.advance(0.05, &mut rng); // crosses the boundary
        assert_ne!(s.rate(), r);
    }

    #[test]
    fn clamping_keeps_rates_physical() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut s = Ar1Source::new(
            Ar1Config {
                mean: 0.3,
                std_dev: 0.4,
                t_c: 0.5,
                tick: 0.05,
                clamp_at_zero: true,
            },
            &mut rng,
        );
        for _ in 0..50_000 {
            s.advance(0.05, &mut rng);
            assert!(s.rate() >= 0.0);
        }
    }

    #[test]
    fn matches_rcbr_second_order_statistics() {
        // Same (μ, σ, T_c) as the RCBR source: identical analytic ACF.
        let ar1 = Ar1Model::new(cfg());
        let mut rng = StdRng::seed_from_u64(27);
        let a = ar1.spawn(&mut rng);
        assert_eq!(a.autocorrelation(0.7), Some((-0.7f64).exp()));
        assert!((a.mean() - 1.0).abs() < 1e-12);
        assert!((a.variance() - 0.09).abs() < 1e-12);
    }
}
