//! Multi-time-scale traffic: a sum of independent RCBR deviations with
//! different correlation time-scales.
//!
//! §5.3 of the paper argues the `T_m = T̃_h` window rule extends beyond
//! single-time-scale traffic, because fluctuations faster than `T̃_h`
//! get smoothed and slower ones get tracked. This source provides the
//! multi-scale test traffic: `X(t) = μ + Σ_i D_i(t)` where each
//! `D_i` is an independent zero-mean RCBR deviation — an [`RcbrSource`]
//! over [`Marginal::Normal`] — with its own `T_c,i` and variance share,
//! giving the mixture autocorrelation `ρ(τ) = Σ_i w_i e^{−|τ|/T_c,i}` (a
//! discrete approximation of long-range dependence when the `T_c,i` span
//! decades). Each deviation advances by RCBR thinning on its own scale
//! ([`crate::rcbr`], "The advance rule").

use crate::marginal::Marginal;
use crate::process::{RateProcess, SourceModel};
use crate::rcbr::{RcbrModel, RcbrSource};
use rand::RngCore;

/// One correlation component of the mixture.
#[derive(Debug, Clone, Copy)]
pub struct ScaleComponent {
    /// Correlation time-scale of this component.
    pub t_c: f64,
    /// Variance contributed by this component.
    pub variance: f64,
}

impl ScaleComponent {
    /// This component's zero-mean RCBR deviation.
    fn deviation(&self) -> RcbrModel {
        let sd = self.variance.sqrt();
        RcbrModel::with_marginal(Marginal::Normal { mean: 0.0, sd }, self.t_c)
    }
}

/// Configuration of a multi-scale source.
#[derive(Debug, Clone)]
pub struct MultiScaleConfig {
    /// Overall mean rate `μ`.
    pub mean: f64,
    /// Variance components (their variances add to `σ²`).
    pub components: Vec<ScaleComponent>,
    /// Clamp the summed rate at zero.
    pub clamp_at_zero: bool,
}

impl MultiScaleConfig {
    /// A geometric ladder of `k` time-scales from `t_c_min` to
    /// `t_c_max` with equal variance shares summing to `variance` —
    /// the standard LRD-like test configuration.
    pub fn geometric_ladder(
        mean: f64,
        variance: f64,
        t_c_min: f64,
        t_c_max: f64,
        k: usize,
    ) -> Self {
        assert!(k >= 1 && t_c_min > 0.0 && t_c_max >= t_c_min);
        let components = (0..k)
            .map(|i| {
                let t_c = if k == 1 {
                    t_c_min
                } else {
                    t_c_min * (t_c_max / t_c_min).powf(i as f64 / (k - 1) as f64)
                };
                ScaleComponent {
                    t_c,
                    variance: variance / k as f64,
                }
            })
            .collect();
        MultiScaleConfig {
            mean,
            components,
            clamp_at_zero: true,
        }
    }
}

/// Factory for multi-scale flows.
#[derive(Debug, Clone)]
pub struct MultiScaleModel {
    cfg: MultiScaleConfig,
}

impl MultiScaleModel {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics on empty components or non-positive parameters.
    pub fn new(cfg: MultiScaleConfig) -> Self {
        assert!(cfg.mean > 0.0 && cfg.mean.is_finite());
        assert!(!cfg.components.is_empty(), "need at least one component");
        for c in &cfg.components {
            assert!(c.t_c > 0.0 && c.variance >= 0.0);
        }
        MultiScaleModel { cfg }
    }
}

impl SourceModel for MultiScaleModel {
    fn spawn(&self, rng: &mut dyn RngCore) -> Box<dyn RateProcess> {
        Box::new(MultiScaleSource::new(self.cfg.clone(), rng))
    }

    fn mean(&self) -> f64 {
        self.cfg.mean
    }

    fn variance(&self) -> f64 {
        self.cfg.components.iter().map(|c| c.variance).sum()
    }
}

/// One multi-scale flow: the mean plus one zero-mean RCBR deviation per
/// component.
#[derive(Debug, Clone)]
pub struct MultiScaleSource {
    cfg: MultiScaleConfig,
    deviations: Vec<RcbrSource>,
}

impl MultiScaleSource {
    /// Creates a flow in its stationary distribution.
    pub fn new(cfg: MultiScaleConfig, rng: &mut dyn RngCore) -> Self {
        let deviations = cfg
            .components
            .iter()
            .map(|c| RcbrSource::new(c.deviation(), rng))
            .collect();
        MultiScaleSource { cfg, deviations }
    }
}

impl RateProcess for MultiScaleSource {
    fn rate(&self) -> f64 {
        let dev: f64 = self.deviations.iter().map(|d| d.rate()).sum();
        let r = self.cfg.mean + dev;
        if self.cfg.clamp_at_zero {
            r.max(0.0)
        } else {
            r
        }
    }

    fn advance(&mut self, dt: f64, rng: &mut dyn RngCore) {
        self.deviations.iter_mut().for_each(|d| d.advance(dt, rng));
    }

    fn reset(&mut self, rng: &mut dyn RngCore) {
        self.deviations.iter_mut().for_each(|d| d.reset(rng));
    }

    fn mean(&self) -> f64 {
        self.cfg.mean
    }

    fn variance(&self) -> f64 {
        self.cfg.components.iter().map(|c| c.variance).sum()
    }

    fn autocorrelation(&self, tau: f64) -> Option<f64> {
        let total: f64 = self.variance();
        if total <= 0.0 {
            return Some(0.0);
        }
        Some(
            self.cfg
                .components
                .iter()
                .map(|c| c.variance / total * (-tau.abs() / c.t_c).exp())
                .sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::test_util::{check_acf, check_moments};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> MultiScaleConfig {
        MultiScaleConfig {
            mean: 1.0,
            components: vec![
                ScaleComponent {
                    t_c: 0.2,
                    variance: 0.03,
                },
                ScaleComponent {
                    t_c: 2.0,
                    variance: 0.03,
                },
                ScaleComponent {
                    t_c: 20.0,
                    variance: 0.03,
                },
            ],
            clamp_at_zero: false,
        }
    }

    #[test]
    fn moments_add_across_components() {
        let m = MultiScaleModel::new(cfg());
        assert!((m.variance() - 0.09).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(31);
        let mut s = MultiScaleSource::new(cfg(), &mut rng);
        check_moments(&mut s, 0.5, 400_000, 0.02, 0.01, 32);
    }

    #[test]
    fn mixture_autocorrelation() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut s = MultiScaleSource::new(cfg(), &mut rng);
        // Analytic mixture at τ = 1: (e^{-5} + e^{-0.5} + e^{-0.05})/3.
        let want = ((-5.0f64).exp() + (-0.5f64).exp() + (-0.05f64).exp()) / 3.0;
        assert!((s.autocorrelation(1.0).unwrap() - want).abs() < 1e-12);
        check_acf(&mut s, 1.0, 400_000, &[1, 2], 0.03, 34);
    }

    /// A flow is its mean plus its components' RCBR deviations, spawned
    /// and advanced in component order: the same draws, bit for bit,
    /// as zero-mean `RcbrSource`s held side by side.
    #[test]
    fn a_flow_is_a_sum_of_rcbr_deviations() {
        let (mut rng, mut replay) = (StdRng::seed_from_u64(37), StdRng::seed_from_u64(37));
        let mut s = MultiScaleSource::new(cfg(), &mut rng);
        let mut parts: Vec<RcbrSource> = cfg()
            .components
            .iter()
            .map(|c| RcbrSource::new(c.deviation(), &mut replay))
            .collect();
        for dt in [0.01, 0.3, 1.0, 5.0, 50.0, 0.0, 0.2] {
            s.advance(dt, &mut rng);
            parts.iter_mut().for_each(|p| p.advance(dt, &mut replay));
            let sum: f64 = parts.iter().map(|p| p.rate()).sum();
            assert_eq!(s.rate(), 1.0 + sum, "dt = {dt}");
        }
        assert_eq!(rng, replay, "RNG end state");
    }

    #[test]
    fn slow_component_produces_long_memory() {
        // The mixture ACF at τ = 10 must vastly exceed a single-scale
        // exponential with the fast time constant.
        let mut rng = StdRng::seed_from_u64(35);
        let s = MultiScaleSource::new(cfg(), &mut rng);
        let mix = s.autocorrelation(10.0).unwrap();
        let single = (-10.0f64 / 0.2).exp();
        assert!(
            mix > 1000.0 * single,
            "mixture {mix} vs single-scale {single}"
        );
    }

    #[test]
    fn geometric_ladder_construction() {
        let cfg = MultiScaleConfig::geometric_ladder(2.0, 0.36, 0.1, 100.0, 4);
        assert_eq!(cfg.components.len(), 4);
        assert!((cfg.components[0].t_c - 0.1).abs() < 1e-12);
        assert!((cfg.components[3].t_c - 100.0).abs() < 1e-9);
        let total: f64 = cfg.components.iter().map(|c| c.variance).sum();
        assert!((total - 0.36).abs() < 1e-12);
        // Geometric spacing: ratio of consecutive scales is constant.
        let r1 = cfg.components[1].t_c / cfg.components[0].t_c;
        let r2 = cfg.components[2].t_c / cfg.components[1].t_c;
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn single_component_reduces_to_rcbr_statistics() {
        let cfg = MultiScaleConfig {
            mean: 1.0,
            components: vec![ScaleComponent {
                t_c: 1.0,
                variance: 0.09,
            }],
            clamp_at_zero: false,
        };
        let mut rng = StdRng::seed_from_u64(36);
        let s = MultiScaleSource::new(cfg, &mut rng);
        assert!((s.autocorrelation(0.5).unwrap() - (-0.5f64).exp()).abs() < 1e-12);
    }
}
