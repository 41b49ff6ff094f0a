//! Adapters kept for the names the frozen `benchmark/` binds; nothing
//! else calls them. They select nothing: the boxed path is a property of
//! the model ([`mbac_traffic::process::Unbatched`]), so `Engine::table`
//! is [`FlowTable::new`] for either variant and
//! [`SessionBuilder::engine`] returns the builder unchanged; every
//! engine observes moments, so `supports_moments` is `true`. The next
//! `benchmark` change deletes this module with `probe.boxed_over_batched`,
//! which now times a batched table against itself.

use crate::controller::AdmissionEngine;
use crate::flows::FlowTable;
use crate::session::{RepContext, SessionBuilder};

#[derive(Debug, Clone, Copy)]
pub enum Engine {
    Batched,
    Boxed,
}

impl Engine {
    pub fn table(self) -> FlowTable {
        FlowTable::new()
    }
}

impl SessionBuilder {
    #[doc(hidden)]
    pub fn engine(self, _: Engine) -> Self {
        self
    }
}

impl RepContext {
    #[doc(hidden)]
    pub fn scratch_rates(&self) -> Vec<f64> {
        Vec::new()
    }
}

impl dyn AdmissionEngine + '_ {
    #[doc(hidden)]
    pub fn supports_moments(&self) -> bool {
        true
    }
}
