//! A directory of frozen plans keyed by matrix fingerprint.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use spasm_format::{MatrixFingerprint, SpasmMatrix};
use spasm_hw::ExecutionPlan;

use crate::buffer::PlanBuffer;
use crate::frozen::FrozenPlan;
use crate::save::save_v3;
use crate::StoreError;

/// A plan store: one wire-v3 file per `(matrix, config)` pair under a
/// root directory, named by the matrix fingerprint token.
///
/// Writes are atomic (temp file + rename), so a crashed save never
/// leaves a partial container where a loader could find it; loads map
/// the file read-only and validate before trusting a byte.
#[derive(Debug, Clone)]
pub struct PlanStore {
    root: PathBuf,
}

impl PlanStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<PlanStore, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(PlanStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file path a fingerprint maps to (the token's `:` becomes `-`
    /// so the name is portable).
    pub fn path_for(&self, fp: &MatrixFingerprint) -> PathBuf {
        self.root
            .join(format!("{}.spasm3", fp.token().replace(':', "-")))
    }

    /// `true` when a plan for `fp` is on disk.
    pub fn contains(&self, fp: &MatrixFingerprint) -> bool {
        self.path_for(fp).is_file()
    }

    /// Freezes `(matrix, plan)` and writes it atomically, returning the
    /// file path.
    ///
    /// # Errors
    ///
    /// [`StoreError::Wire`] when the pair is inconsistent,
    /// [`StoreError::Io`] on filesystem failure.
    pub fn save(&self, matrix: &SpasmMatrix, plan: &ExecutionPlan) -> Result<PathBuf, StoreError> {
        let bytes = save_v3(matrix, plan)?;
        let fp = matrix.fingerprint();
        let path = self.path_for(&fp);
        let tmp = path.with_extension("spasm3.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Maps and structurally validates the stored plan for `fp`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file is absent or unreadable,
    /// [`StoreError::Wire`] when its bytes are corrupt.
    pub fn load(&self, fp: &MatrixFingerprint) -> Result<FrozenPlan, StoreError> {
        self.load_path(&self.path_for(fp))
    }

    /// Maps and structurally validates the container at `path`.
    ///
    /// # Errors
    ///
    /// As [`PlanStore::load`].
    pub fn load_path(&self, path: &Path) -> Result<FrozenPlan, StoreError> {
        let buffer: Arc<PlanBuffer> = PlanBuffer::open(path)?;
        FrozenPlan::open(buffer)
    }
}
