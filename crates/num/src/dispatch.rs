//! Inert shim: selects nothing. There is one kernel path (the lane-tiled
//! "wide" twins ran 1.29–1.74× slower on `ar1_dense` and were deleted), but
//! the frozen `benchmark/` still names these six items. The next `benchmark`
//! PR deletes this file with `probe.wide_over_scalar` and its fingerprint field.

use crate::rng::NormalSampler;
use rand::Rng;

#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelDispatch {
    Scalar,
    Wide,
}

#[doc(hidden)]
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
    /// One [`NormalSampler::sample`] per slot; see the module docs.
    #[doc(hidden)]
    pub fn fill_with<R: Rng>(&self, _: KernelDispatch, rng: &mut R, out: &mut [f64]) {
        for x in out {
            *x = self.sample(rng);
        }
    }
}
