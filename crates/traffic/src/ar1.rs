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

use crate::batch::{BatchKey, FlowBatch, LaneStreams, LANE};
use crate::process::{RateProcess, SourceModel};
use mbac_num::rng::{normal, standard_normal, NormalSampler};
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

/// Struct-of-arrays batch of AR(1) flows. The tick coefficient
/// `a = e^{−Δ/T_c}` and the innovation σ are hoisted out of the per-flow
/// loop (the boxed source recomputes both on every step), and the rate
/// cache is refreshed in the same pass as the advance.
///
/// The advance is one flat loop over the flows of each lane, in flow
/// order on the lane's stream ([`crate::batch`], "Lanes") — per flow the
/// same expressions and the same draws as [`Ar1Source::advance`], so
/// rates stay bit-identical to the boxed engine. Chunked,
/// software-pipelined and speculative-sampling kernels were measured
/// against this loop on `ar1_dense` and were not faster (DESIGN.md
/// §11.2).
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
    /// RNG streams of lanes 1, 2, … (see [`crate::batch`], "Lanes").
    lanes: LaneStreams,
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
            lanes: LaneStreams::default(),
        }
    }

    fn clamp(&self, value: f64) -> f64 {
        if self.cfg.clamp_at_zero {
            value.max(0.0)
        } else {
            value
        }
    }
}

impl FlowBatch for Ar1Batch {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn advance_all(&mut self, dt: f64, rng: &mut StdRng) {
        assert!(dt >= 0.0);
        let (mean, tick, clamp) = (self.cfg.mean, self.cfg.tick, self.cfg.clamp_at_zero);
        let (a, sd) = (self.a, self.innovation_sd);
        let sampler = NormalSampler::get();
        // One draw per tick boundary crossed.
        let n = self.values.len() as f64;
        let lanes = self
            .values
            .chunks_mut(LANE)
            .zip(self.elapsed.chunks_mut(LANE))
            .zip(self.rates.chunks_mut(LANE));
        let advance = |((values, elapsed), rates): &mut ((&mut [f64], &mut [f64]), &mut [f64]),
                       rng: &mut StdRng| {
            // Captures into locals (see `LaneStreams::advance`).
            let (mean, tick, clamp, a, sd, dt) = (mean, tick, clamp, a, sd, dt);
            let flows = values
                .iter_mut()
                .zip(elapsed.iter_mut())
                .zip(rates.iter_mut());
            for ((value, elapsed), rate) in flows {
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
        };
        self.lanes.advance(rng, lanes, || n * dt / tick, advance);
    }

    fn rates(&self) -> &[f64] {
        &self.rates
    }

    fn spawn(&mut self, n: usize, rng: &mut StdRng) {
        // Same draws as `n` calls of `Ar1Source::reset`, on a local
        // stream (see `FlowBatch::spawn`).
        let mut local = rng.clone();
        self.values.reserve(n);
        self.elapsed.resize(self.elapsed.len() + n, 0.0);
        self.rates.reserve(n);
        for _ in 0..n {
            let value = normal(&mut local, self.cfg.mean, self.cfg.std_dev);
            self.values.push(value);
            self.rates.push(self.clamp(value));
        }
        *rng = local;
    }

    fn spawn_each(&mut self, n: usize, rng: &mut StdRng, before: &mut dyn FnMut(&mut StdRng)) {
        self.values.reserve(n);
        self.elapsed.resize(self.elapsed.len() + n, 0.0);
        self.rates.reserve(n);
        for _ in 0..n {
            before(rng);
            let value = normal(rng, self.cfg.mean, self.cfg.std_dev);
            self.values.push(value);
            self.rates.push(self.clamp(value));
        }
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
