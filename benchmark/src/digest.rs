//! `sim_digest`: an FNV-1a hash of every deterministic field of a
//! report. Floats enter by bit pattern, so two runs agree only when
//! their simulated statistics are bit-equal — which is the repo's
//! determinism contract for a fixed seed.

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest::default()
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The digest as it appears in result files.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Digest::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn stable_and_order_sensitive() {
        let a = Digest::new().u64(1).f64(0.5).finish();
        assert_eq!(a, Digest::new().u64(1).f64(0.5).finish());
        assert_ne!(a, Digest::new().f64(0.5).u64(1).finish());
        // Bit patterns, not values: -0.0 and 0.0 differ.
        assert_ne!(
            Digest::new().f64(0.0).finish(),
            Digest::new().f64(-0.0).finish()
        );
        assert_eq!(hex(0xab), "00000000000000ab");
    }
}
