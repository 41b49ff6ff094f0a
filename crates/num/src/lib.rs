//! # mbac-num — numerics substrate for the MBAC framework
//!
//! Self-contained numerical building blocks used throughout the
//! reproduction of Grossglauser & Tse, *"A Framework for Robust
//! Measurement-Based Admission Control"* (SIGCOMM '97 / UCB-ERL M98/17):
//!
//! * [`erf()`](erf()), [`erfc`], [`erfcx`], [`ln_erfc`] — error-function family
//!   with full relative accuracy in the tail;
//! * [`phi`], [`q`], [`inv_q`], [`mills_ratio`] — the standard-normal
//!   density and tail functions the paper's admission criteria are built
//!   on (`p_q = Q(α_q)`);
//! * [`quad`] — adaptive Simpson quadrature, including semi-infinite
//!   integrals for the boundary-hitting formulas (eqns (30)/(32)/(37));
//! * [`roots`] — bisection and Brent, used to invert the overflow
//!   formulas for the adjusted certainty-equivalent target `p_ce`;
//! * [`fft`] — radix-2 FFT for the Davies–Harte fGn generator;
//! * [`rng`] — seedable Gaussian / exponential / χ² / Bernoulli sampling;
//! * [`stats`], [`ci`], [`regress`] — descriptive statistics, confidence
//!   intervals (the paper's §5.2 termination rule), and least squares
//!   (Hurst estimation).
//!
//! Everything is implemented from scratch on purpose: the reproduction
//! brief requires all substrates to be built, the Rust statistics
//! ecosystem is thin, and the quantities here (Gaussian tails at
//! `p < 1e-10`) need auditable accuracy guarantees. Reference values in
//! the test suites were generated with 50-digit arithmetic.

#![warn(missing_docs)]

pub mod ci;
#[doc(hidden)]
pub mod compat;
pub mod complex;
pub mod erf;
pub mod fft;
pub mod moments;
pub mod normal;
pub mod parallel;
pub mod quad;
pub mod regress;
pub mod rng;
pub mod roots;
pub mod stats;

pub use ci::{wald_ci, wilson_ci, z_critical, ConfidenceInterval};
#[doc(hidden)]
pub use compat::KernelDispatch;
pub use complex::Complex64;
pub use erf::{erf, erfc, erfcx, ln_erfc};
pub use moments::{fold_noisy, RateMoments, SnapshotMoments};
pub use normal::{inv_q, ln_q, mills_ratio, norm_cdf, phi, q};
pub use parallel::{
    default_workers, parallel_map, parallel_map_with, parallel_map_with_stats, PoolCallStats,
    WorkerStats,
};
pub use quad::{integrate, integrate_to_inf, Quadrature};
pub use regress::{linear_fit, LinearFit};
pub use roots::{bisect, brent, Root, RootError};
pub use stats::{acf, mean, quantile, std_dev, variance, RunningStats};
