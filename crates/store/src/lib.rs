//! Zero-copy plan persistence: freeze a prepared [`ExecutionPlan`] into a
//! wire-v3 container, map it back in milliseconds.
//!
//! Wire versions 1 and 2 (`spasm-format`) serialise the *encoding*: a
//! loader must decode the instance stream and re-run the whole prepare
//! pipeline (template selection, schedule search, plan build) before the
//! first SpMV — tens to hundreds of milliseconds per matrix. Version 3
//! serialises the *plan*: its frozen structure-of-arrays streams are laid
//! out on disk 64-byte aligned, exactly as the kernels read them, so a
//! cold start is `open → validate → point` with zero bytes copied from
//! the stream sections. The file holds the matrix once: the encoded
//! matrix a server keeps beside the plan (its catalog key, golden CSR and
//! delta source) is derived from the same validated sections.
//!
//! The pieces:
//!
//! * [`save_v3`] — freezes a `(matrix, plan)` pair into a v3 buffer;
//! * [`PlanBuffer`] — a 64-byte-aligned pinned buffer, heap- or
//!   mmap-backed, implementing [`spasm_hw::StableBytes`];
//! * [`FrozenPlan`] — a validated view over a buffer; [`FrozenPlan::into_plan`]
//!   reassembles an [`ExecutionPlan`] whose streams borrow the buffer,
//!   and [`FrozenPlan::thaw`] also derives the plan's encoded matrix;
//! * [`PlanStore`] — a directory of v3 files keyed by matrix fingerprint,
//!   written atomically and loaded via mmap.
//!
//! Every load path validates before trusting: container CRCs
//! (header, directory, per section), then the structural invariants in
//! [`ExecutionPlan::from_parts`]. Hostile bytes produce a typed
//! [`StoreError`], never a panic, and a plan that passes validation
//! executes bit-identically to one freshly prepared from the same matrix.
//!
//! [`ExecutionPlan`]: spasm_hw::ExecutionPlan
//! [`ExecutionPlan::from_parts`]: spasm_hw::ExecutionPlan::from_parts

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod buffer;
mod frozen;
mod save;
mod store_dir;

pub use buffer::PlanBuffer;
pub use frozen::FrozenPlan;
pub use save::{save_v3, section};
pub use store_dir::PlanStore;

use spasm_format::WireError;
use spasm_hw::SimError;

/// Errors raised while saving, opening or thawing a stored plan.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The container bytes are malformed or corrupted.
    Wire(WireError),
    /// The container parsed but its parts do not assemble into a
    /// consistent plan.
    Sim(SimError),
    /// The backing file could not be read or written.
    Io(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Wire(e) => write!(f, "wire error: {e}"),
            StoreError::Sim(e) => write!(f, "plan error: {e}"),
            StoreError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Wire(e) => Some(e),
            StoreError::Sim(e) => Some(e),
            StoreError::Io(e) => Some(e),
        }
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Wire(e)
    }
}

impl From<SimError> for StoreError {
    fn from(e: SimError) -> Self {
        StoreError::Sim(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
