//! In-place radix-2 Cooley–Tukey FFT.
//!
//! Needed by the Davies–Harte (circulant embedding) fractional-Gaussian-
//! noise generator in `mbac-traffic`, which synthesizes the long-range-
//! dependent traffic for the Starwars-trace experiments (Figs. 11–12).
//! Power-of-two lengths only — the generator controls its own sizes, so
//! the restriction costs nothing and keeps the implementation simple and
//! auditable (smoltcp-style: robustness over cleverness).

use crate::complex::Complex64;

/// Direction of the transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftDirection {
    /// `X_k = Σ_n x_n e^{-2πi kn/N}`.
    Forward,
    /// `x_n = Σ_k X_k e^{+2πi kn/N}` (unscaled; see [`ifft`] for the
    /// `1/N`-normalized inverse).
    Inverse,
}

/// In-place FFT of `data`, whose length must be a power of two.
///
/// # Panics
/// Panics if `data.len()` is not a power of two (length 0 is rejected,
/// length 1 is a no-op).
pub fn fft_in_place(data: &mut [Complex64], dir: FftDirection) {
    let n = data.len();
    assert!(
        n.is_power_of_two() && n > 0,
        "FFT length must be a power of two, got {n}"
    );
    if n == 1 {
        return;
    }
    bit_reverse_permute(data);
    let sign = match dir {
        FftDirection::Forward => -1.0,
        FftDirection::Inverse => 1.0,
    };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex64::cis(ang);
        let half = len / 2;
        let mut i = 0;
        while i < n {
            let mut w = Complex64::ONE;
            for j in 0..half {
                let u = data[i + j];
                let v = data[i + j + half] * w;
                data[i + j] = u + v;
                data[i + j + half] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Forward FFT returning a new vector.
pub fn fft(input: &[Complex64]) -> Vec<Complex64> {
    let mut out = input.to_vec();
    fft_in_place(&mut out, FftDirection::Forward);
    out
}

/// Normalized inverse FFT (`1/N` scaling) returning a new vector, so that
/// `ifft(fft(x)) == x`.
pub fn ifft(input: &[Complex64]) -> Vec<Complex64> {
    let mut out = input.to_vec();
    fft_in_place(&mut out, FftDirection::Inverse);
    let scale = 1.0 / out.len() as f64;
    for z in &mut out {
        *z = z.scale(scale);
    }
    out
}

fn bit_reverse_permute(data: &mut [Complex64]) {
    let n = data.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
}

/// Naive O(N²) DFT — reference implementation for testing only.
#[doc(hidden)]
pub fn dft_reference(input: &[Complex64], dir: FftDirection) -> Vec<Complex64> {
    let n = input.len();
    let sign = match dir {
        FftDirection::Forward => -1.0,
        FftDirection::Inverse => 1.0,
    };
    (0..n)
        .map(|k| {
            let mut acc = Complex64::ZERO;
            for (j, &x) in input.iter().enumerate() {
                let ang = sign * 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc += x * Complex64::cis(ang);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_reference_dft() {
        let mut x = Vec::new();
        // Deterministic pseudo-data.
        let mut s = 1u64;
        for _ in 0..64 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let re = ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let im = ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            x.push(Complex64::new(re, im));
        }
        let fast = fft(&x);
        let slow = dft_reference(&x, FftDirection::Forward);
        assert!(max_err(&fast, &slow) < 1e-10);
    }

    #[test]
    fn roundtrip_identity() {
        let x: Vec<Complex64> = (0..128)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect();
        let back = ifft(&fft(&x));
        assert!(max_err(&x, &back) < 1e-12);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        let spectrum = fft(&x);
        for z in &spectrum {
            assert!((z.re - 1.0).abs() < 1e-14 && z.im.abs() < 1e-14);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let x = vec![Complex64::ONE; 32];
        let spectrum = fft(&x);
        assert!((spectrum[0].re - 32.0).abs() < 1e-12);
        for z in &spectrum[1..] {
            assert!(z.abs() < 1e-11);
        }
    }

    #[test]
    fn pure_tone_lands_in_single_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64))
            .collect();
        let spectrum = fft(&x);
        for (k, z) in spectrum.iter().enumerate() {
            if k == k0 {
                assert!((z.re - n as f64).abs() < 1e-10);
            } else {
                assert!(z.abs() < 1e-9, "bin {k} = {:?}", z);
            }
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let x: Vec<Complex64> = (0..256)
            .map(|i| Complex64::new((i as f64).sqrt().sin(), 0.0))
            .collect();
        let spectrum = fft(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spectrum.iter().map(|z| z.norm_sqr()).sum::<f64>() / 256.0;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn fft_of_real_signal_is_conjugate_symmetric() {
        let x: Vec<Complex64> = (0..32)
            .map(|i| Complex64::from_real((i as f64 * 0.3).cos() + 0.1 * i as f64))
            .collect();
        let s = fft(&x);
        for k in 1..16 {
            let a = s[k];
            let b = s[32 - k].conj();
            assert!((a - b).abs() < 1e-10, "bin {k}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        let mut x = vec![Complex64::ZERO; 12];
        fft_in_place(&mut x, FftDirection::Forward);
    }

    #[test]
    fn length_one_is_identity() {
        let mut x = vec![Complex64::new(3.0, -1.0)];
        fft_in_place(&mut x, FftDirection::Forward);
        assert_eq!(x[0], Complex64::new(3.0, -1.0));
    }
}
