//! The measured-sum admission algorithm of Jamin, Danzig, Shenker &
//! Zhang (SIGCOMM '95) — the related-work baseline discussed in §6 of
//! Grossglauser & Tse.
//!
//! Where the Gaussian framework estimates per-flow *statistics*, the
//! measured-sum algorithm estimates the aggregate *load envelope*: it
//! averages the aggregate bandwidth over sampling blocks of length `S`,
//! takes the **maximum** block average over a trailing measurement
//! window of length `T`, and admits a new flow of declared rate `r` iff
//!
//! `ν̂ + r ≤ u · c`
//!
//! for a utilization target `u < 1`. Grossglauser & Tse's point (§6) is
//! that `T` plays the role of their memory `T_m` and `u` the role of
//! their adjusted target `p_ce`, but that the original paper gives no
//! principled way to set them; this implementation lets the benches
//! compare the tuned-by-rule Gaussian controller against grid-tuned
//! measured-sum.
//!
//! Omission: Jamin et al.'s delay-measurement half (their predictive
//! service classes measure queueing delay too; on a bufferless link
//! there is no queue, so only the bandwidth half applies) and the
//! back-off multiplier λ (subsumed here by the utilization target).

use std::collections::VecDeque;

/// Jamin-style measured-sum admission state.
#[derive(Debug, Clone)]
pub struct MeasuredSum {
    /// Utilization target `u ∈ (0, 1]`.
    utilization_target: f64,
    /// Measurement window length `T` (time units).
    window: f64,
    /// Sampling block length `S` (time units), `S ≤ T`.
    block: f64,
    /// Declared per-flow rate used in the admission test.
    declared_rate: f64,
    /// Completed block averages within the window: `(block end, avg)`.
    blocks: VecDeque<(f64, f64)>,
    /// Current (incomplete) block accumulator.
    acc: f64,
    acc_samples: u32,
    block_start: Option<f64>,
    /// Most recent raw aggregate sample.
    last_aggregate: Option<f64>,
}

impl MeasuredSum {
    /// Creates the policy.
    ///
    /// # Panics
    /// Panics unless `0 < u ≤ 1`, `0 < S ≤ T`, `declared_rate > 0`.
    pub fn new(utilization_target: f64, window: f64, block: f64, declared_rate: f64) -> Self {
        assert!(
            utilization_target > 0.0 && utilization_target <= 1.0,
            "utilization target must be in (0,1]"
        );
        assert!(block > 0.0 && window >= block, "need 0 < S ≤ T");
        assert!(declared_rate > 0.0, "declared rate must be positive");
        MeasuredSum {
            utilization_target,
            window,
            block,
            declared_rate,
            blocks: VecDeque::new(),
            acc: 0.0,
            acc_samples: 0,
            block_start: None,
            last_aggregate: None,
        }
    }

    /// Feeds one sample of the measured aggregate load at time `t`. A
    /// non-finite sample is ignored: it would hold the headroom at NaN
    /// until its block left the window.
    pub fn observe_aggregate(&mut self, t: f64, aggregate: f64) {
        if !aggregate.is_finite() {
            return;
        }
        self.last_aggregate = Some(aggregate);
        match self.block_start {
            None => {
                self.block_start = Some(t);
                self.acc = aggregate;
                self.acc_samples = 1;
            }
            Some(start) => {
                if t - start >= self.block {
                    let avg = self.acc / self.acc_samples as f64;
                    self.blocks.push_back((t, avg));
                    self.block_start = Some(t);
                    self.acc = aggregate;
                    self.acc_samples = 1;
                } else {
                    self.acc += aggregate;
                    self.acc_samples += 1;
                }
            }
        }
        // Evict blocks older than the window.
        while let Some(&(end, _)) = self.blocks.front() {
            if t - end > self.window {
                self.blocks.pop_front();
            } else {
                break;
            }
        }
    }

    /// The load estimate `ν̂`: the maximum block average in the window
    /// (falling back to the latest raw sample while the first block is
    /// still filling). `None` before any observation.
    pub fn load_estimate(&self) -> Option<f64> {
        let max_block = self
            .blocks
            .iter()
            .map(|&(_, avg)| avg)
            .fold(f64::NEG_INFINITY, f64::max);
        match (self.blocks.is_empty(), self.last_aggregate) {
            (true, None) => None,
            (true, Some(raw)) => Some(raw),
            (false, Some(raw)) => Some(max_block.max(raw)),
            (false, None) => Some(max_block),
        }
    }

    /// Whether a new flow of the declared rate may be admitted:
    /// `ν̂ + r ≤ u·c`.
    pub fn admit(&self, capacity: f64) -> bool {
        match self.load_estimate() {
            Some(nu) => nu + self.declared_rate <= self.utilization_target * capacity,
            None => false,
        }
    }

    /// How many *additional* declared-rate flows fit right now:
    /// `max(0, ⌊(u·c − ν̂)/r⌋)`. `None` before any observation.
    pub fn headroom_flows(&self, capacity: f64) -> Option<f64> {
        self.load_estimate().map(|nu| {
            ((self.utilization_target * capacity - nu) / self.declared_rate)
                .floor()
                .max(0.0)
        })
    }

    /// Clears all measurement state.
    pub fn reset(&mut self) {
        self.blocks.clear();
        self.acc = 0.0;
        self.acc_samples = 0;
        self.block_start = None;
        self.last_aggregate = None;
    }

    /// The configured utilization target.
    pub fn utilization_target(&self) -> f64 {
        self.utilization_target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(ms: &mut MeasuredSum, t0: f64, dt: f64, values: &[f64]) {
        for (i, &v) in values.iter().enumerate() {
            ms.observe_aggregate(t0 + i as f64 * dt, v);
        }
    }

    #[test]
    fn tracks_maximum_block_average() {
        let mut ms = MeasuredSum::new(0.9, 10.0, 1.0, 1.0);
        // Two blocks: averages 5 and 8; then a quiet raw sample of 2.
        feed(&mut ms, 0.0, 0.5, &[5.0, 5.0, 5.0]); // completes block [0,1)
        feed(&mut ms, 1.5, 0.5, &[8.0, 8.0, 8.0]); // completes block [1,2)ish
        ms.observe_aggregate(3.0, 2.0);
        let nu = ms.load_estimate().unwrap();
        assert!(
            nu >= 8.0 - 1e-9,
            "max-based estimate must remember the peak: {nu}"
        );
    }

    #[test]
    fn old_peaks_age_out_of_the_window() {
        let mut ms = MeasuredSum::new(0.9, 5.0, 1.0, 1.0);
        feed(&mut ms, 0.0, 0.5, &[50.0, 50.0, 50.0]);
        // Quiet for far longer than the window.
        feed(&mut ms, 2.0, 1.0, &[1.0; 20]);
        let nu = ms.load_estimate().unwrap();
        assert!(nu < 2.0, "50.0 peak should have aged out: {nu}");
    }

    #[test]
    fn admission_respects_utilization_target() {
        let mut ms = MeasuredSum::new(0.5, 10.0, 1.0, 1.0);
        ms.observe_aggregate(0.0, 40.0);
        // u·c = 50; ν̂ + 1 = 41 ≤ 50 → admit.
        assert!(ms.admit(100.0));
        ms.observe_aggregate(0.1, 49.5);
        assert!(!ms.admit(100.0), "49.5 + 1 > 50 must reject");
    }

    #[test]
    fn headroom_counts_declared_rate_flows() {
        let mut ms = MeasuredSum::new(1.0, 10.0, 1.0, 2.0);
        ms.observe_aggregate(0.0, 90.0);
        // (100 − 90)/2 = 5 extra flows.
        assert_eq!(ms.headroom_flows(100.0), Some(5.0));
        ms.observe_aggregate(0.1, 120.0);
        assert_eq!(ms.headroom_flows(100.0), Some(0.0), "overload clamps at 0");
    }

    #[test]
    fn cold_start_rejects() {
        let ms = MeasuredSum::new(0.9, 10.0, 1.0, 1.0);
        assert!(ms.load_estimate().is_none());
        assert!(!ms.admit(100.0));
        assert!(ms.headroom_flows(100.0).is_none());
    }

    #[test]
    fn reset_clears_everything() {
        let mut ms = MeasuredSum::new(0.9, 10.0, 1.0, 1.0);
        feed(&mut ms, 0.0, 0.5, &[5.0; 10]);
        ms.reset();
        assert!(ms.load_estimate().is_none());
    }

    #[test]
    #[should_panic]
    fn rejects_block_longer_than_window() {
        MeasuredSum::new(0.9, 1.0, 2.0, 1.0);
    }
}
