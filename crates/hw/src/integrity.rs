//! Stream-integrity verification: the detection half of the fault-tolerant
//! execution story.
//!
//! The accelerator streams position encodings and value quadruples out of
//! HBM with no end-to-end parity, so a flipped bit in the stream or a
//! faulted VALU lane would silently corrupt `y`. This module defines the
//! *detection* vocabulary shared by the plan and the framework front-end:
//!
//! * [`IntegrityCheck`] names each invariant the subsystem can report as
//!   violated — directory consistency and encoding ranges are checked once
//!   when a plan is built (by [`crate::Accelerator::prepare`],
//!   [`crate::ExecutionPlan::respliced`] or
//!   [`crate::ExecutionPlan::from_parts`]), residual checks run per
//!   execution;
//! * [`VerifyScope`] selects which output rows or tile rows of one vector
//!   a verified run ([`crate::ExecutionPlan::run_verified`]) checks
//!   against the pristine stream, window by window, before each window is
//!   folded into that vector's `y`;
//! * [`HealthReport`] records what one execution observed: faults injected
//!   (only ever non-zero under the `fault-injection` feature), rows and
//!   tile rows verified, tile rows quarantined / corrected, and whether the
//!   caller fell back to the golden CSR path.
//!
//! The repair ladder itself (quarantine → re-execute from the pristine
//! stream → golden fallback) lives in [`crate::ExecutionPlan`] and the
//! `spasm` front-end; this module only carries the bookkeeping types.

use std::fmt;

/// Which integrity invariant a check found violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum IntegrityCheck {
    /// The tile directory does not tile the stream: a tile's
    /// `first_instance` disagrees with the running sum, the sum does not
    /// cover the stream exactly, or the tiles are not in strictly
    /// ascending `(row, col)` order.
    InstanceCount,
    /// A tile lies outside the matrix, or a position encoding addresses
    /// outside its tile (or outside the padded operand buffers), or names
    /// a template beyond the portfolio.
    EncodingRange,
    /// Executed output disagrees with the pristine stream (or the golden
    /// reference) even after the quarantine re-execution.
    Residual,
}

impl fmt::Display for IntegrityCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityCheck::InstanceCount => write!(f, "tile-directory instance count"),
            IntegrityCheck::EncodingRange => write!(f, "position-encoding range"),
            IntegrityCheck::Residual => write!(f, "execution residual"),
        }
    }
}

/// What [`crate::ExecutionPlan::run_verified`] verifies of one vector
/// against a pristine re-computation, in each (tile row × lane block)
/// window before the window is folded into that vector's `y`. Comparisons
/// are bit for bit, except that any NaN matches any NaN.
#[derive(Debug, Clone, Copy)]
pub enum VerifyScope<'a> {
    /// Verify nothing (the production fast path).
    None,
    /// Verify these output rows (sorted global row indices) with the row
    /// oracle: each row is recomputed from the pristine stream alone,
    /// from the instances whose 4-row window holds it, in stream order,
    /// and compared with the executed row. A mismatching row escalates to
    /// a whole-window check of its tile row, once per tile row, which then
    /// quarantines and heals as under [`VerifyScope::All`]. Rows outside
    /// every worked tile row are ignored. A fault that corrupts only
    /// rows not named here goes undetected.
    Rows(&'a [usize]),
    /// Verify every worked tile row's whole window.
    All,
}

/// What one guarded execution observed: injected faults, detection and
/// repair counts, and the degradation level that was ultimately taken.
///
/// A clean run (no faults, no quarantines, no fallback) is all zeros —
/// the `Default`. The report is attached to [`crate::ExecReport::health`]
/// by the framework front-end and also written, one per vector, by
/// [`crate::ExecutionPlan::run_verified`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Faults armed on the plan that applied to this execution (always 0
    /// without the `fault-injection` cargo feature).
    pub faults_injected: u32,
    /// Cycles lost to injected HBM channel stalls (timing-only faults;
    /// they never corrupt data).
    pub stall_cycles: u64,
    /// Output rows checked by the row oracle ([`VerifyScope::Rows`]),
    /// including rows whose tile row escalated to a whole-window check.
    pub rows_verified: u32,
    /// Whole tile-row windows re-verified against the pristine stream:
    /// every worked tile row under [`VerifyScope::All`], plus each tile
    /// row a [`VerifyScope::Rows`] mismatch escalated.
    pub tile_rows_verified: u32,
    /// Tile rows whose output disagreed with the pristine re-computation
    /// (every detected corruption is counted here).
    pub tile_rows_quarantined: u32,
    /// Quarantined tile rows whose one-shot re-execution from the pristine
    /// stream matched the reference (transient stream faults).
    pub tile_rows_corrected: u32,
    /// Quarantined tile rows still wrong after re-execution (persistent
    /// hardware faults) — these force the golden fallback or an error.
    pub tile_rows_uncorrected: u32,
    /// Output rows cross-checked against the golden CSR reference by the
    /// sampled residual policy.
    pub rows_cross_checked: u32,
    /// Sampled rows whose residual against the golden CSR reference
    /// exceeded the policy tolerance.
    pub rows_failed_cross_check: u32,
    /// Whether the whole product was recomputed on the golden CSR path.
    pub fallback: bool,
    /// The first tile row that failed verification beyond repair, if any.
    pub first_failed_tile_row: Option<u32>,
}

impl HealthReport {
    /// `true` when nothing was detected and no degradation was taken —
    /// the output is the plan's normal bit-exact result.
    pub fn is_clean(&self) -> bool {
        self.tile_rows_quarantined == 0 && self.rows_failed_cross_check == 0 && !self.fallback
    }

    /// `true` when a detected corruption could not be repaired in place
    /// (the caller must fall back or surface an error).
    pub fn needs_fallback(&self) -> bool {
        self.tile_rows_uncorrected > 0 || self.rows_failed_cross_check > 0
    }

    /// The report attached to a result computed *directly* on the golden
    /// CSR path, bypassing the accelerator entirely (e.g. a serving
    /// layer degrading a quarantined plan): bit-exact output, no ladder
    /// counters, `fallback` set so downstream accounting sees that the
    /// accelerator path was not exercised.
    pub fn degraded_golden() -> Self {
        HealthReport {
            fallback: true,
            ..HealthReport::default()
        }
    }
}

/// Merges per-vector [`HealthReport`]s into a batch aggregate: counters
/// sum, `fallback` ORs (any vector on the golden path marks the batch),
/// and the first failing tile row across the batch (in merge order) wins.
///
/// The merge is associative with [`HealthReport::default`] as identity,
/// so a fold over any number of vectors is well-defined.
pub fn merge_health(a: HealthReport, b: HealthReport) -> HealthReport {
    HealthReport {
        faults_injected: a.faults_injected + b.faults_injected,
        stall_cycles: a.stall_cycles + b.stall_cycles,
        rows_verified: a.rows_verified + b.rows_verified,
        tile_rows_verified: a.tile_rows_verified + b.tile_rows_verified,
        tile_rows_quarantined: a.tile_rows_quarantined + b.tile_rows_quarantined,
        tile_rows_corrected: a.tile_rows_corrected + b.tile_rows_corrected,
        tile_rows_uncorrected: a.tile_rows_uncorrected + b.tile_rows_uncorrected,
        rows_cross_checked: a.rows_cross_checked + b.rows_cross_checked,
        rows_failed_cross_check: a.rows_failed_cross_check + b.rows_failed_cross_check,
        fallback: a.fallback || b.fallback,
        first_failed_tile_row: a.first_failed_tile_row.or(b.first_failed_tile_row),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_report_is_clean() {
        let h = HealthReport::default();
        assert!(h.is_clean());
        assert!(!h.needs_fallback());
        assert_eq!(h.first_failed_tile_row, None);
    }

    #[test]
    fn uncorrected_rows_force_fallback() {
        let h = HealthReport {
            tile_rows_quarantined: 1,
            tile_rows_uncorrected: 1,
            ..HealthReport::default()
        };
        assert!(!h.is_clean());
        assert!(h.needs_fallback());
    }

    #[test]
    fn merge_health_sums_counters_and_ors_fallback() {
        let a = HealthReport {
            faults_injected: 2,
            stall_cycles: 100,
            rows_verified: 5,
            tile_rows_verified: 4,
            tile_rows_quarantined: 1,
            tile_rows_corrected: 1,
            rows_cross_checked: 8,
            ..HealthReport::default()
        };
        let b = HealthReport {
            faults_injected: 1,
            stall_cycles: 7,
            rows_verified: 6,
            tile_rows_verified: 3,
            tile_rows_quarantined: 2,
            tile_rows_uncorrected: 2,
            rows_failed_cross_check: 1,
            fallback: true,
            first_failed_tile_row: Some(5),
            ..HealthReport::default()
        };
        let m = merge_health(a, b);
        assert_eq!(m.faults_injected, 3);
        assert_eq!(m.stall_cycles, 107);
        assert_eq!(m.rows_verified, 11);
        assert_eq!(m.tile_rows_verified, 7);
        assert_eq!(m.tile_rows_quarantined, 3);
        assert_eq!(m.tile_rows_corrected, 1);
        assert_eq!(m.tile_rows_uncorrected, 2);
        assert_eq!(m.rows_cross_checked, 8);
        assert_eq!(m.rows_failed_cross_check, 1);
        assert!(m.fallback);
        assert_eq!(m.first_failed_tile_row, Some(5));
        assert!(!m.is_clean());
        assert!(m.needs_fallback());
    }

    #[test]
    fn merge_health_first_failure_wins_in_merge_order() {
        let early = HealthReport {
            first_failed_tile_row: Some(2),
            ..HealthReport::default()
        };
        let late = HealthReport {
            first_failed_tile_row: Some(9),
            ..HealthReport::default()
        };
        assert_eq!(
            merge_health(early, late).first_failed_tile_row,
            Some(2),
            "the earlier vector's failure is reported"
        );
        assert_eq!(merge_health(late, early).first_failed_tile_row, Some(9));
        assert_eq!(
            merge_health(HealthReport::default(), late).first_failed_tile_row,
            Some(9),
            "a clean report does not mask a later failure"
        );
    }

    #[test]
    fn merge_health_default_is_identity() {
        let h = HealthReport {
            faults_injected: 3,
            tile_rows_quarantined: 1,
            fallback: true,
            first_failed_tile_row: Some(1),
            ..HealthReport::default()
        };
        assert_eq!(merge_health(h, HealthReport::default()), h);
        assert_eq!(merge_health(HealthReport::default(), h), h);
    }

    #[test]
    fn check_names_render() {
        assert_eq!(
            IntegrityCheck::EncodingRange.to_string(),
            "position-encoding range"
        );
        assert_eq!(
            IntegrityCheck::InstanceCount.to_string(),
            "tile-directory instance count"
        );
        assert_eq!(IntegrityCheck::Residual.to_string(), "execution residual");
    }
}
