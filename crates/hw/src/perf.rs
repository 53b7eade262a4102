//! The analytic performance model used by Algorithm 4's
//! `PERF_MODEL(GC_list, hw_config, tile_size)`.
//!
//! Prices a [`TilingSummary`] (global composition) on a hardware
//! configuration without touching matrix values: the same LPT schedule and
//! the same pricing pass ([`timing::price`]) a prepared plan's report
//! comes from, so the scheduler's choices transfer 1:1 to execution.

use spasm_format::TilingSummary;

use crate::config::HwConfig;
use crate::timing::{self, TileJob};
use crate::trace::TraceEvent;

/// Converts a tile directory into scheduler jobs.
pub fn jobs_from_summary(summary: &TilingSummary) -> Vec<TileJob> {
    summary
        .tiles()
        .iter()
        .map(|t| TileJob {
            tile_row: t.tile_row,
            tile_col: t.tile_col,
            n_instances: t.n_instances,
            max_lane_instances: t.max_lane_instances,
        })
        .collect()
}

/// Estimates total cycles for a tiling on a configuration.
pub fn estimate_cycles(summary: &TilingSummary, cfg: &HwConfig) -> u64 {
    price_summary(summary, cfg, |_| {}).1
}

/// Schedules a tiling by LPT and prices it through [`timing::price`],
/// handing every timeline span to `sink`.
pub(crate) fn price_summary(
    summary: &TilingSummary,
    cfg: &HwConfig,
    sink: impl FnMut(TraceEvent),
) -> (Vec<u64>, u64) {
    let tile_size = summary.tile_size();
    let assignment = timing::lpt_assign(
        jobs_from_summary(summary),
        cfg.num_pe_groups,
        tile_size,
        cfg,
    );
    let y_bytes = timing::y_bytes(summary.worked_row_heights());
    timing::price(&assignment, tile_size, y_bytes, cfg, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_format::SubmatrixMap;
    use spasm_patterns::{DecompositionTable, TemplateSet};
    use spasm_sparse::Coo;

    fn summary(coo: &Coo, tile: u32) -> TilingSummary {
        let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
        TilingSummary::analyze(&SubmatrixMap::from_coo(coo), &table, tile).unwrap()
    }

    fn banded(n: u32) -> Coo {
        banded_wide(n, 1)
    }

    fn banded_wide(n: u32, half_band: u32) -> Coo {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            for k in 1..=half_band {
                if i + k < n {
                    t.push((i, i + k, -1.0));
                    t.push((i + k, i, -1.0));
                }
            }
        }
        Coo::from_triplets(n, n, t).unwrap()
    }

    #[test]
    fn jobs_mirror_tiles() {
        let m = banded(128);
        let s = summary(&m, 32);
        let jobs = jobs_from_summary(&s);
        assert_eq!(jobs.len(), s.tiles().len());
        assert_eq!(
            jobs.iter().map(|j| j.n_instances).sum::<usize>(),
            s.n_instances()
        );
    }

    #[test]
    fn more_groups_never_slower() {
        let m = banded(2048);
        let s = summary(&m, 64);
        let small = estimate_cycles(&s, &HwConfig::new(1, 1, 252.0));
        let big = estimate_cycles(&s, &HwConfig::new(4, 1, 252.0));
        assert!(big <= small, "big={big} small={small}");
    }

    #[test]
    fn oversized_tiles_starve_groups() {
        // With one giant tile, a single group does all the work and its x
        // load is exposed; mid-size tiles parallelise across groups. The
        // band is wide enough that compute, not the y drain, dominates.
        let m = banded_wide(8192, 32);
        let cfg = HwConfig::spasm_4_1();
        let coarse = estimate_cycles(&summary(&m, 8192), &cfg);
        let mid = estimate_cycles(&summary(&m, 1024), &cfg);
        assert!(mid < coarse, "mid={mid} coarse={coarse}");
    }
}
