//! Synthetic "Starwars-like" long-range-dependent video trace.
//!
//! The paper's Figs 11–12 use a piecewise-CBR encoding of the MPEG-1
//! Starwars movie (Garrett & Willinger's trace), which exhibits
//! long-range dependence (Hurst ≈ 0.8 in published analyses) and which
//! we cannot redistribute. This module synthesizes a trace with the
//! properties those experiments actually exercise (see DESIGN.md §4):
//!
//! * Gaussian-like marginal with configurable `σ/μ` (0.3, matching the
//!   paper's other experiments);
//! * genuine long-range dependence from exact fractional Gaussian noise
//!   (Davies–Harte), Hurst `H` configurable;
//! * piecewise-CBR structure: rates quantized to a configurable number
//!   of levels and held constant over slots, like an RCBR encoding of a
//!   movie.
//!
//! The generated [`Trace`] plugs into [`crate::trace::TraceSource`] for
//! the Figs 11–12 reproduction.

use crate::fgn::davies_harte;
use crate::trace::Trace;
use rand::RngCore;

/// Parameters of the synthetic movie trace.
#[derive(Debug, Clone, Copy)]
pub struct StarwarsConfig {
    /// Mean rate `μ`.
    pub mean: f64,
    /// Coefficient of variation `σ/μ` (paper: 0.3).
    pub cov: f64,
    /// Hurst parameter (published Starwars analyses: ≈ 0.8).
    pub hurst: f64,
    /// Number of slots in the trace.
    pub slots: usize,
    /// Slot duration (the piecewise-CBR renegotiation granularity).
    pub slot: f64,
    /// Number of quantization levels (0 = no quantization). RCBR
    /// encodings renegotiate among a small set of rates.
    pub levels: usize,
}

impl Default for StarwarsConfig {
    fn default() -> Self {
        StarwarsConfig {
            mean: 1.0,
            cov: 0.3,
            hurst: 0.8,
            slots: 1 << 15,
            slot: 1.0,
            levels: 32,
        }
    }
}

/// The most slots [`generate_starwars_like`] generates: 2²², an 80 MB
/// trace file. Davies–Harte embeds the slots in a circulant twice as
/// long, whose eigenvalues no longer come out non-negative to `f64`
/// accuracy at 2²⁴ slots; and far past that the embedding alone does
/// not fit in memory.
pub const MAX_SLOTS: usize = 1 << 22;

impl StarwarsConfig {
    /// The floor `0.05 μ` (a video never emits zero bits) and the cap
    /// `μ(1 + 4·cov)` (+4σ, like a VBR encoder's) rates are clipped to.
    fn range(&self) -> (f64, f64) {
        (0.05 * self.mean, self.mean * (1.0 + 4.0 * self.cov))
    }

    /// The spacing of the quantization levels, if rates are quantized.
    fn step(&self) -> Option<f64> {
        let (floor, peak) = self.range();
        (self.levels > 1).then(|| (peak - floor) / (self.levels - 1) as f64)
    }

    /// Checks what [`generate_starwars_like`] needs: mean, cov and slot
    /// positive and finite, the Hurst parameter in (0, 1), between 1 and
    /// [`MAX_SLOTS`] slots, and a rate cap and quantization step that
    /// are positive and finite (a subnormal mean rounds the step to 0,
    /// a huge cov the cap to ∞).
    pub fn validate(&self) -> Result<(), String> {
        let cap = ("the rate cap mean·(1 + 4·cov)", self.range().1);
        let positive = [
            ("mean", self.mean),
            ("cov", self.cov),
            ("slot", self.slot),
            cap,
        ];
        let step = self.step().map(|step| ("the quantization step", step));
        for (what, v) in positive.into_iter().chain(step) {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{what} must be positive and finite, got {v}"));
            }
        }
        if !(self.hurst > 0.0 && self.hurst < 1.0) {
            return Err(format!("hurst must lie in (0, 1), got {}", self.hurst));
        }
        if !(1..=MAX_SLOTS).contains(&self.slots) {
            let slots = self.slots;
            return Err(format!("slots must be in 1..={MAX_SLOTS}, got {slots}"));
        }
        Ok(())
    }
}

/// Generates the synthetic LRD piecewise-CBR trace.
///
/// The fGn sample path is mapped to rates `μ(1 + cov·z)`, clipped to
/// `[0.05 μ, μ(1 + 4·cov)]`, then quantized.
///
/// # Panics
/// Panics unless [`StarwarsConfig::validate`] accepts `cfg`.
pub fn generate_starwars_like(cfg: &StarwarsConfig, rng: &mut dyn RngCore) -> Trace {
    if let Err(e) = cfg.validate() {
        panic!("invalid trace configuration: {e}");
    }
    let z = davies_harte(cfg.hurst, cfg.slots, rng);
    let (floor, peak) = cfg.range();
    let mut rates: Vec<f64> = z
        .into_iter()
        .map(|v| (cfg.mean * (1.0 + cfg.cov * v)).clamp(floor, peak))
        .collect();
    if let Some(step) = cfg.step() {
        for r in &mut rates {
            *r = floor + ((*r - floor) / step).round() * step;
        }
    }
    Trace::new(rates, cfg.slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{hurst_rs, hurst_variance_time};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make(seed: u64) -> Trace {
        let cfg = StarwarsConfig::default();
        generate_starwars_like(&cfg, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn marginal_statistics_close_to_target() {
        let t = make(71);
        // LRD sample means converge slowly; allow a loose band.
        assert!((t.mean() - 1.0).abs() < 0.1, "mean {}", t.mean());
        let cov = t.variance().sqrt() / t.mean();
        assert!((cov - 0.3).abs() < 0.07, "cov {cov}");
    }

    #[test]
    fn trace_is_long_range_dependent() {
        let t = make(72);
        let h_vt = hurst_variance_time(t.rates());
        let h_rs = hurst_rs(t.rates());
        assert!(
            h_vt > 0.65,
            "variance-time Hurst {h_vt} should indicate LRD"
        );
        assert!(h_rs > 0.6, "R/S Hurst {h_rs} should indicate LRD");
    }

    #[test]
    fn quantization_limits_distinct_levels() {
        let t = make(73);
        let mut levels: Vec<u64> = t.rates().iter().map(|r| r.to_bits()).collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(
            levels.len() <= 32,
            "expected ≤ 32 distinct rates, got {}",
            levels.len()
        );
        assert!(
            levels.len() > 5,
            "quantization should still leave real variety"
        );
    }

    #[test]
    fn rates_respect_floor_and_cap() {
        let t = make(74);
        for &r in t.rates() {
            assert!(
                (0.05 - 1e-12..=1.0 + 4.0 * 0.3 + 1e-12).contains(&r),
                "rate {r}"
            );
        }
    }

    #[test]
    fn unquantized_variant_has_continuous_rates() {
        let cfg = StarwarsConfig {
            levels: 0,
            slots: 4096,
            ..StarwarsConfig::default()
        };
        let t = generate_starwars_like(&cfg, &mut StdRng::seed_from_u64(75));
        let mut levels: Vec<u64> = t.rates().iter().map(|r| r.to_bits()).collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(
            levels.len() > 1000,
            "unquantized trace should be continuous-ish"
        );
    }

    #[test]
    fn short_memory_config_is_not_lrd() {
        // Control: H = 0.5 produces white-noise rates.
        let cfg = StarwarsConfig {
            hurst: 0.5,
            slots: 1 << 14,
            ..StarwarsConfig::default()
        };
        let t = generate_starwars_like(&cfg, &mut StdRng::seed_from_u64(76));
        let h = hurst_variance_time(t.rates());
        assert!((h - 0.5).abs() < 0.1, "H estimate {h} for white noise");
    }
}
