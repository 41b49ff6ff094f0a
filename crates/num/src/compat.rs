//! Adapters kept for the names the frozen `benchmark/` binds; nothing
//! else calls them. They select nothing: there is one kernel path (the
//! lane-tiled "wide" twins ran 1.29–1.74× slower on `ar1_dense` and were
//! deleted), so `KernelDispatch` is inert and `fill_with` forwards to
//! [`NormalSampler::fill`]. The next `benchmark` change deletes this
//! module with `probe.wide_over_scalar` and its fingerprint field.

use crate::rng::NormalSampler;
use rand::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelDispatch {
    Scalar,
    Wide,
}

impl KernelDispatch {
    pub fn current() -> Self {
        KernelDispatch::Scalar
    }

    pub fn set_global(self) -> Self {
        KernelDispatch::Scalar
    }

    pub fn name(self) -> &'static str {
        match self {
            KernelDispatch::Scalar => "scalar",
            KernelDispatch::Wide => "wide",
        }
    }
}

impl NormalSampler {
    /// [`NormalSampler::fill`]; the dispatch is ignored.
    #[doc(hidden)]
    pub fn fill_with<R: Rng>(&self, _: KernelDispatch, rng: &mut R, out: &mut [f64]) {
        self.fill(rng, out);
    }
}
