//! Workload schedule exploration — workflow steps ④⑤ (Algorithm 4).
//!
//! For every candidate tile size, regenerate the global composition
//! ([`TilingSummary`]) and price it on every pre-synthesised hardware
//! configuration with the performance model; keep the `(tile size,
//! configuration)` pair with the fewest predicted cycles.

use spasm_format::{BlockInstances, FormatError, SubmatrixMap, TilingSummary};
use spasm_hw::{perf, HwConfig};
use spasm_patterns::DecompositionTable;

use crate::error::PipelineError;

/// One explored point of the schedule search space.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleCandidate {
    /// Hardware configuration name.
    pub config_name: String,
    /// Tile edge length.
    pub tile_size: u32,
    /// Predicted cycles from the performance model.
    pub predicted_cycles: u64,
    /// Predicted wall-clock seconds at the configuration's frequency.
    pub predicted_seconds: f64,
}

/// The winning schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleChoice {
    /// Selected hardware configuration.
    pub config: HwConfig,
    /// Selected tile size.
    pub tile_size: u32,
    /// Predicted cycles of the winner.
    pub predicted_cycles: u64,
}

impl ScheduleChoice {
    /// Predicted cycles for serving a batch of `vectors` right-hand sides
    /// through this schedule: initialisation is paid once, the per-vector
    /// body repeats ([`spasm_hw::timing::batch_cycles`]). The same model
    /// prices [`spasm_hw::ExecReport::batch`] after a real batched run.
    pub fn predicted_batch_cycles(&self, vectors: usize) -> u64 {
        spasm_hw::timing::batch_cycles(self.predicted_cycles, vectors)
    }
}

/// Runs Algorithm 4 and returns the winner plus the full trace of explored
/// points (for the Fig. 14 ablation and for inspection).
///
/// Tile sizes that are invalid for the format (non-multiple-of-4, zero,
/// too large) are rejected as errors; tile sizes larger than the matrix
/// degenerate to a single tile and are legal.
///
/// # Errors
///
/// * [`PipelineError::EmptySearchSpace`] if `tile_sizes` or `configs` is
///   empty;
/// * [`PipelineError::Format`] if a tile size is invalid or a pattern is
///   uncoverable.
pub fn explore_schedule(
    map: &SubmatrixMap,
    table: &DecompositionTable,
    tile_sizes: &[u32],
    configs: &[HwConfig],
) -> Result<(ScheduleChoice, Vec<ScheduleCandidate>), PipelineError> {
    if tile_sizes.is_empty() {
        return Err(PipelineError::EmptySearchSpace("tile size"));
    }
    if configs.is_empty() {
        return Err(PipelineError::EmptySearchSpace("hardware configuration"));
    }
    // Each block's instance count depends only on the portfolio, so it
    // is looked up once and shared by every tile size.
    let blocks = BlockInstances::new(map, table)?;
    // Tile sizes are independent: ④'s re-tiling dominates the sweep, so the
    // `tile_sizes × configs` grid is evaluated in parallel (one task per
    // tile size; each task prices every configuration on the shared
    // summary). Results come back in sweep order regardless of thread
    // count, and the argmin below is a deterministic reduction over that
    // order, so the winner is independent of parallelism.
    let per_tile = sweep_tiles(&blocks, tile_sizes, configs);

    let mut explored = Vec::with_capacity(tile_sizes.len() * configs.len());
    let mut best: Option<(usize, usize)> = None;
    for (ti, config_reports) in per_tile.into_iter().enumerate() {
        let config_reports = config_reports.map_err(PipelineError::Format)?;
        for (ci, candidate) in config_reports.into_iter().enumerate() {
            let better = match best {
                None => true,
                Some((bt, bc)) => {
                    candidate_key(&candidate, ci)
                        < candidate_key(&explored[bt * configs.len() + bc], bc)
                }
            };
            if better {
                best = Some((ti, ci));
            }
            explored.push(candidate);
        }
    }
    // Both axes were checked non-empty above, so at least one candidate
    // was scored; the guard keeps this branch panic-free regardless.
    let Some((bt, bc)) = best else {
        return Err(PipelineError::EmptySearchSpace("schedule candidate"));
    };
    let winner = &explored[bt * configs.len() + bc];
    let choice = ScheduleChoice {
        config: configs[bc].clone(),
        tile_size: tile_sizes[bt],
        predicted_cycles: winner.predicted_cycles,
    };
    Ok((choice, explored))
}

/// The total order minimised by the schedule argmin.
///
/// Primary key: predicted wall-clock time (the configurations clock
/// differently, so cycles are not comparable across them). Ties break on
/// `(cycles, tile size, config index)` so the winner is unique and
/// independent of evaluation order — and therefore of thread count.
fn candidate_key(c: &ScheduleCandidate, config_index: usize) -> (f64, u64, u32, usize) {
    (
        c.predicted_seconds,
        c.predicted_cycles,
        c.tile_size,
        config_index,
    )
}

type TileReport = Result<Vec<ScheduleCandidate>, FormatError>;

/// Evaluates one tile size: ④ regenerate the global composition, ⑤ price it
/// on every configuration.
fn eval_tile(blocks: &BlockInstances, tile_size: u32, configs: &[HwConfig]) -> TileReport {
    let summary = TilingSummary::from_instances(blocks, tile_size)?;
    Ok(configs
        .iter()
        .map(|config| {
            let cycles = perf::estimate_cycles(&summary, config);
            ScheduleCandidate {
                config_name: config.name.clone(),
                tile_size,
                predicted_cycles: cycles,
                predicted_seconds: config.cycles_to_seconds(cycles),
            }
        })
        .collect())
}

#[cfg(feature = "parallel")]
fn sweep_tiles(
    blocks: &BlockInstances,
    tile_sizes: &[u32],
    configs: &[HwConfig],
) -> Vec<TileReport> {
    use rayon::prelude::*;
    tile_sizes
        .par_iter()
        .map(|&tile_size| eval_tile(blocks, tile_size, configs))
        .collect()
}

#[cfg(not(feature = "parallel"))]
fn sweep_tiles(
    blocks: &BlockInstances,
    tile_sizes: &[u32],
    configs: &[HwConfig],
) -> Vec<TileReport> {
    tile_sizes
        .iter()
        .map(|&tile_size| eval_tile(blocks, tile_size, configs))
        .collect()
}

/// The default tile-size sweep: powers of two from 256 to the format's
/// 32 768 maximum (the paper's ablation fixes 1024; exploration picks per
/// matrix).
pub fn default_tile_sizes() -> Vec<u32> {
    (8..=15).map(|k| 1u32 << k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_patterns::TemplateSet;
    use spasm_sparse::Coo;

    fn map(n: u32) -> SubmatrixMap {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 1.0));
            t.push((i, (i * 13 + 1) % n, 0.5));
        }
        SubmatrixMap::from_coo(&Coo::from_triplets(n, n, t).unwrap())
    }

    fn table() -> DecompositionTable {
        DecompositionTable::build(&TemplateSet::table_v_set(0))
    }

    #[test]
    fn default_sweep_is_in_range() {
        let sizes = default_tile_sizes();
        assert_eq!(sizes.first(), Some(&256));
        assert_eq!(sizes.last(), Some(&32768));
        assert!(sizes.iter().all(|s| s % 4 == 0));
    }

    #[test]
    fn winner_minimises_time() {
        let m = map(2048);
        let (choice, explored) =
            explore_schedule(&m, &table(), &[256, 1024, 4096], &HwConfig::shipped()).unwrap();
        let min = explored
            .iter()
            .map(|c| c.predicted_seconds)
            .fold(f64::INFINITY, f64::min);
        let winner_time = choice.config.cycles_to_seconds(choice.predicted_cycles);
        assert!((winner_time - min).abs() / min < 1e-12);
        assert_eq!(explored.len(), 9);
    }

    #[test]
    fn empty_spaces_rejected() {
        let m = map(64);
        assert!(matches!(
            explore_schedule(&m, &table(), &[], &HwConfig::shipped()),
            Err(PipelineError::EmptySearchSpace("tile size"))
        ));
        assert!(matches!(
            explore_schedule(&m, &table(), &[256], &[]),
            Err(PipelineError::EmptySearchSpace("hardware configuration"))
        ));
    }

    #[test]
    fn invalid_tile_size_propagates() {
        let m = map(64);
        assert!(matches!(
            explore_schedule(&m, &table(), &[6], &HwConfig::shipped()),
            Err(PipelineError::Format(FormatError::InvalidTileSize(6)))
        ));
    }

    #[test]
    fn predicted_batch_cycles_amortise_init() {
        let m = map(512);
        let (choice, _) =
            explore_schedule(&m, &table(), &[1024], &[HwConfig::spasm_4_1()]).unwrap();
        let single = choice.predicted_cycles;
        assert_eq!(choice.predicted_batch_cycles(1), single);
        let batch8 = choice.predicted_batch_cycles(8);
        // Eight vectors cost strictly less than eight independent runs —
        // the gap is exactly the seven amortised initialisations.
        assert_eq!(batch8, 8 * single - 7 * spasm_hw::timing::INIT_CYCLES);
        assert!(batch8 < 8 * single);
    }

    #[test]
    fn exploration_beats_or_matches_any_fixed_point() {
        let m = map(4096);
        let sizes = default_tile_sizes();
        let configs = HwConfig::shipped();
        let (choice, explored) = explore_schedule(&m, &table(), &sizes, &configs).unwrap();
        let winner_time = choice.config.cycles_to_seconds(choice.predicted_cycles);
        for c in &explored {
            assert!(winner_time <= c.predicted_seconds + 1e-15);
        }
    }
}
