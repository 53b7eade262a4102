//! Integrity policies: how much of each [`crate::Prepared::execute`] is
//! verified, and what happens on detected corruption.
//!
//! The accelerator's own defences are structural (wire CRC, prepare-time
//! invariants) and stream-level (the plan's pristine re-verification). The
//! policy layer decides how much of that machinery each execution pays
//! for, and arms the last rung of the degradation ladder: the bit-exact
//! golden [`spasm_sparse::Csr`] path kept by every [`crate::Prepared`].
//!
//! ```
//! use spasm::{IntegrityPolicy, Pipeline, PipelineOptions};
//! use spasm_sparse::Coo;
//!
//! # fn main() -> Result<(), spasm::PipelineError> {
//! let a = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (5, 3, 2.0)]).unwrap();
//! // Cross-check 4 sampled output rows per execute against the golden
//! // CSR reference, falling back to it wholesale if repair fails.
//! let opts = PipelineOptions::default().integrity(IntegrityPolicy::sampled(4, 0xC0FFEE));
//! let mut prepared = Pipeline::with_options(opts).prepare(&a)?;
//! let x = vec![1.0f32; 8];
//! let mut y = vec![0.0f32; 8];
//! let report = prepared.execute_into(&x, &mut y)?;
//! assert!(report.health.is_clean());
//! # Ok(())
//! # }
//! ```

/// How much of each execution the pipeline verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum IntegrityMode {
    /// No verification: today's production fast path, zero overhead.
    #[default]
    Off,
    /// Recompute `k` deterministically sampled output rows from the
    /// pristine stream with the row oracle, escalating a mismatch to its
    /// whole tile row, and cross-check those rows' residuals against the
    /// golden CSR reference. Faults in rows that were not drawn go
    /// unseen; see [`IntegrityPolicy::sampled`].
    Sampled(usize),
    /// Verify every worked tile row's whole window against the pristine
    /// stream: no injected fault goes unseen.
    Full,
}

/// The integrity policy attached to a pipeline / [`crate::Prepared`].
///
/// # Failure contract
///
/// A verified vector ends in one of three states: its normal bit-exact
/// result (clean, or healed by the quarantine retry), the golden CSR
/// product with [`spasm_hw::HealthReport::fallback`] set, or — with
/// fallback disabled — [`crate::PipelineError::Integrity`] and its `y`
/// exactly as it was before the call. The executor verifies each window
/// before folding it into `y`, so it folds a failed vector too; the
/// front-end therefore copies the `y` of every vector whose policy is not
/// [`IntegrityMode::Off`] before the pass, one matrix height each, and
/// restores it for a vector that fails, before the golden recomputation
/// or the error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrityPolicy {
    /// What is verified per execution.
    pub mode: IntegrityMode,
    /// Seed for the sampled-row draw (deterministic: the same policy
    /// checks the same rows on every call).
    pub seed: u64,
    /// On unrepairable corruption, recompute the whole product on the
    /// golden CSR path (`true`, default) instead of returning
    /// [`crate::PipelineError::Integrity`] (`false`).
    pub fallback: bool,
    /// Relative tolerance for the sampled residual cross-check: the
    /// SPASM datapath and the CSR reference accumulate in different
    /// orders, so their outputs differ by rounding. A row passes when
    /// both values are equal or both NaN, or when they differ by at most
    /// `tolerance · (1 + |reference|)`.
    pub tolerance: f32,
}

impl Default for IntegrityPolicy {
    fn default() -> Self {
        IntegrityPolicy::off()
    }
}

impl IntegrityPolicy {
    /// No verification (the default).
    pub fn off() -> Self {
        IntegrityPolicy {
            mode: IntegrityMode::Off,
            seed: 0,
            fallback: true,
            tolerance: 1e-3,
        }
    }

    /// Sampled verification: `k` distinct output rows per execution (all
    /// of them when the matrix has fewer), drawn deterministically from
    /// `seed`.
    ///
    /// Each drawn row is recomputed alone from the pristine stream — only
    /// the instances whose 4-row window holds it, in stream order, so the
    /// check is exact (NaN payloads aside: any NaN matches any NaN) — and
    /// compared with the executed row; its residual is also cross-checked
    /// against the golden CSR reference within the policy tolerance. A
    /// row that is NaN or infinite where the reference is finite fails
    /// the cross-check, unless `x` holds a NaN or an infinity. A
    /// mismatching row escalates to a whole-window check of its tile row,
    /// which is quarantined and re-executed once (transient faults heal)
    /// or forces the fallback (persistent faults).
    ///
    /// The contract covers the drawn rows only: a fault that corrupts
    /// rows that were not drawn, even in the tile row of a drawn row, is
    /// not detected. Use [`IntegrityPolicy::full`] where every fault must
    /// be caught.
    pub fn sampled(k: usize, seed: u64) -> Self {
        IntegrityPolicy {
            mode: IntegrityMode::Sampled(k),
            seed,
            ..IntegrityPolicy::off()
        }
    }

    /// Full verification of every worked tile row.
    pub fn full() -> Self {
        IntegrityPolicy {
            mode: IntegrityMode::Full,
            ..IntegrityPolicy::off()
        }
    }

    /// Sets whether unrepairable corruption falls back to the golden CSR
    /// path (`true`, default) or surfaces as an error (`false`).
    pub fn with_fallback(mut self, fallback: bool) -> Self {
        self.fallback = fallback;
        self
    }

    /// Sets the relative tolerance of the sampled residual cross-check.
    pub fn with_tolerance(mut self, tolerance: f32) -> Self {
        self.tolerance = tolerance;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_with_fallback() {
        let p = IntegrityPolicy::default();
        assert_eq!(p.mode, IntegrityMode::Off);
        assert!(p.fallback);
    }

    #[test]
    fn builders_compose() {
        let p = IntegrityPolicy::sampled(8, 7)
            .with_fallback(false)
            .with_tolerance(1e-4);
        assert_eq!(p.mode, IntegrityMode::Sampled(8));
        assert_eq!(p.seed, 7);
        assert!(!p.fallback);
        assert_eq!(p.tolerance, 1e-4);
        assert_eq!(IntegrityPolicy::full().mode, IntegrityMode::Full);
    }
}
