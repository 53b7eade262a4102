//! The cycle model, priced by one pass.
//!
//! [`price`] walks a tile-to-group assignment once and is the only place
//! the per-group and total cycle arithmetic lives: the prepared plan's
//! report ([`crate::ExecutionPlan::report`]), the scheduler's fast
//! `PERF_MODEL` ([`crate::perf::estimate_cycles`]) and the execution trace
//! ([`crate::ExecutionTrace`]) all call it, so Algorithm 4's estimates
//! are the cycle counts the plan reports by construction.
//!
//! Execution structure (Section IV-D3): a *PE group* processes one tile at
//! a time — its 16 PEs share the tile's position-encoding channel and
//! split the instance stream across partial-sum lanes by submatrix row
//! (`r_idx mod 16`). Tiles are distributed across the groups; the partial
//! sum merge unit combines groups' contributions on-chip and the final y
//! leaves through the single y channel.
//!
//! Model terms, per group and tile:
//!
//! * **Issue** — a fed PE retires one instance per cycle, capped by the
//!   shared value / position-encoding channels
//!   ([`crate::HwConfig::issue_rate`]); the tile's compute time follows its
//!   most-loaded lane;
//! * **x prefetch** — the next tile's x segment (`tile_size × 4` bytes)
//!   streams through the group's `NUM_XVEC_CH` channels while the current
//!   tile computes (double buffering): each tile costs
//!   `max(compute, x_load)`;
//! * **tile switch** — [`TILE_SWITCH_CYCLES`] pipeline drain per tile;
//! * **y drain** — final sums leave through the y channel (read + write,
//!   8 bytes per element of every worked tile row), overlapped with
//!   compute and exposed only beyond the slowest group;
//! * **init** — [`INIT_CYCLES`] for loading the opcode LUT and control
//!   set-up.
//!
//! Load imbalance appears twice: across groups through the
//! longest-processing-time tile assignment ([`lpt_assign`]) and within a
//! tile through the max-lane term.

use crate::config::{HwConfig, PES_PER_GROUP};
use crate::trace::{EventKind, TraceEvent};

/// Pipeline drain + control overhead when a group switches tiles.
pub const TILE_SWITCH_CYCLES: u64 = 8;

/// One-off initialisation: opcode LUT load, descriptor fetch, control
/// set-up.
pub const INIT_CYCLES: u64 = 256;

/// The work of one tile, as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileJob {
    /// Tile row index (for bookkeeping / deterministic ordering).
    pub tile_row: u32,
    /// Tile column index.
    pub tile_col: u32,
    /// Total template instances in the tile.
    pub n_instances: usize,
    /// Instances on the tile's most-loaded PE lane (`r_idx mod 16`).
    pub max_lane_instances: usize,
}

/// The cycle cost of one tile on one group: critical-lane compute or the
/// double-buffered x prefetch, whichever dominates, plus the switch
/// drain. This is both the per-tile unit [`price`] charges and the
/// weight [`lpt_assign`] balances — weighting by raw instance counts
/// mis-schedules x-load-bound tiles, whose cost is constant.
pub fn tile_cost(job: &TileJob, tile_size: u32, cfg: &HwConfig) -> u64 {
    compute_cycles(job, cfg).max(x_load_cycles(tile_size, cfg)) + TILE_SWITCH_CYCLES
}

/// Cycles the tile's critical lane needs at the configuration's issue
/// rate.
fn compute_cycles(job: &TileJob, cfg: &HwConfig) -> u64 {
    (job.max_lane_instances as f64 / cfg.issue_rate()).ceil() as u64
}

/// Longest-processing-time assignment of tiles to `num_groups` PE groups,
/// weighted by each tile's actual cycle cost ([`tile_cost`]).
///
/// Tiles are sorted by descending cost (ties on ascending coordinates for
/// determinism) and each goes to the currently least-loaded group. Empty
/// lists mean idle groups — how oversized tiles starve parallelism in the
/// paper's tile-size trade-off.
pub fn lpt_assign(
    mut jobs: Vec<TileJob>,
    num_groups: u32,
    tile_size: u32,
    cfg: &HwConfig,
) -> Vec<Vec<TileJob>> {
    jobs.sort_by(|a, b| {
        tile_cost(b, tile_size, cfg)
            .cmp(&tile_cost(a, tile_size, cfg))
            .then(a.tile_row.cmp(&b.tile_row))
            .then(a.tile_col.cmp(&b.tile_col))
    });
    let mut groups: Vec<Vec<TileJob>> = vec![Vec::new(); num_groups as usize];
    let mut loads = vec![0u64; num_groups as usize];
    for job in jobs {
        // min_by_key is None only for zero groups, which cannot schedule
        // anything anyway.
        let Some((g, _)) = loads.iter().enumerate().min_by_key(|&(i, &l)| (l, i)) else {
            break;
        };
        loads[g] += tile_cost(&job, tile_size, cfg);
        groups[g].push(job);
    }
    // Each group processes its tiles in (row, col) order for buffer-reuse
    // locality.
    for g in &mut groups {
        g.sort_by_key(|j| (j.tile_row, j.tile_col));
    }
    groups
}

/// Round-robin assignment of tiles to groups, in stream order — the naive
/// alternative to [`lpt_assign`], kept for the scheduler ablation.
pub fn round_robin_assign(jobs: Vec<TileJob>, num_groups: u32) -> Vec<Vec<TileJob>> {
    let mut groups: Vec<Vec<TileJob>> = vec![Vec::new(); num_groups as usize];
    for (i, job) in jobs.into_iter().enumerate() {
        groups[i % num_groups as usize].push(job);
    }
    groups
}

/// x-prefetch latency for one tile segment on one group.
pub fn x_load_cycles(tile_size: u32, cfg: &HwConfig) -> u64 {
    let x_bpc = cfg.num_xvec_ch as f64 * cfg.channel_bytes_per_cycle();
    (tile_size as f64 * 4.0 / x_bpc).ceil() as u64
}

/// Prices one execution: walks every group's assigned tiles in order and
/// returns `(per-group busy cycles, total cycles)`, handing each span of
/// the timeline to `sink` as it goes — [`EventKind::Init`] first, then
/// per group the exposed first x load, one compute- or x-load-bound span
/// plus one switch per tile, and last the y drain (when there is y
/// traffic). A no-op sink prices without allocating beyond the returned
/// per-group vector.
///
/// The first tile's x segment cannot be hidden behind earlier compute
/// (the double buffer starts empty), so its load is exposed up front;
/// from then on prefetch overlaps and each tile costs [`tile_cost`]. The
/// total combines the groups with the y drain through [`total_cycles`].
///
/// `y_bytes` is the total final-sum traffic ([`y_bytes`]).
pub fn price(
    assignment: &[Vec<TileJob>],
    tile_size: u32,
    y_bytes: u64,
    cfg: &HwConfig,
    mut sink: impl FnMut(TraceEvent),
) -> (Vec<u64>, u64) {
    let x_load = x_load_cycles(tile_size, cfg);
    let x_bytes = u64::from(tile_size) * 4;
    let mut emit = |group: Option<u32>, start: u64, cycles: u64, kind: EventKind| {
        sink(TraceEvent {
            group,
            start,
            end: start + cycles,
            kind,
        });
        start + cycles
    };
    emit(None, 0, INIT_CYCLES, EventKind::Init);
    let mut per_group = Vec::with_capacity(assignment.len());
    for (g, assigned) in assignment.iter().enumerate() {
        let group = Some(g as u32);
        let mut cursor = INIT_CYCLES;
        if let Some(first) = assigned.first() {
            let kind = EventKind::XLoadBound {
                tile_row: first.tile_row,
                tile_col: first.tile_col,
                bytes: x_bytes,
            };
            cursor = emit(group, cursor, x_load, kind);
        }
        for job in assigned {
            let compute = compute_cycles(job, cfg);
            let kind = if compute >= x_load {
                EventKind::ComputeBound {
                    tile_row: job.tile_row,
                    tile_col: job.tile_col,
                    instances: job.n_instances,
                }
            } else {
                EventKind::XLoadBound {
                    tile_row: job.tile_row,
                    tile_col: job.tile_col,
                    bytes: x_bytes,
                }
            };
            cursor = emit(group, cursor, compute.max(x_load), kind);
            cursor = emit(group, cursor, TILE_SWITCH_CYCLES, EventKind::TileSwitch);
        }
        per_group.push(cursor - INIT_CYCLES);
    }
    let y_drain = y_drain_cycles(y_bytes, cfg);
    if y_drain > 0 {
        emit(
            None,
            INIT_CYCLES,
            y_drain,
            EventKind::YDrain { bytes: y_bytes },
        );
    }
    let total = total_cycles(&per_group, y_bytes, cfg);
    (per_group, total)
}

/// Cycles the shared y channel needs to drain `y_bytes` of final sums.
fn y_drain_cycles(y_bytes: u64, cfg: &HwConfig) -> u64 {
    (y_bytes as f64 / cfg.channel_bytes_per_cycle()).ceil() as u64
}

/// Combines per-group cycles with the shared y-channel drain and fixed
/// initialisation.
///
/// `y_bytes` is the total final-sum traffic (8 bytes per element of every
/// worked tile row: read-modify-write).
pub fn total_cycles(per_group: &[u64], y_bytes: u64, cfg: &HwConfig) -> u64 {
    let slowest = per_group.iter().copied().max().unwrap_or(0);
    INIT_CYCLES + slowest.max(y_drain_cycles(y_bytes, cfg))
}

/// Amortised batch pricing: initialisation (opcode LUT load, descriptor
/// fetch) is paid once, the per-vector body — everything past
/// [`INIT_CYCLES`] of `single_cycles` — repeats for each vector of the
/// batch. An empty batch costs only initialisation.
pub fn batch_cycles(single_cycles: u64, vectors: usize) -> u64 {
    let body = single_cycles.saturating_sub(INIT_CYCLES);
    INIT_CYCLES + vectors as u64 * body
}

/// y traffic: 8 bytes per matrix row of every distinct worked tile row.
///
/// `row_heights` holds one entry per distinct tile row with work.
pub fn y_bytes(row_heights: impl IntoIterator<Item = u32>) -> u64 {
    row_heights.into_iter().map(|h| 8 * h as u64).sum()
}

/// Splits a tile's instances into per-lane counts by `r_idx mod 16` and
/// returns the maximum — the tile's critical lane. Exposed so the
/// simulator and the summary analysis compute the identical statistic.
pub fn max_lane(lane_counts: &[usize; PES_PER_GROUP as usize]) -> usize {
    lane_counts.iter().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HwConfig {
        HwConfig::spasm_4_1()
    }

    fn job(tile_row: u32, tile_col: u32, n: usize, lane: usize) -> TileJob {
        TileJob {
            tile_row,
            tile_col,
            n_instances: n,
            max_lane_instances: lane,
        }
    }

    #[test]
    fn lpt_balances() {
        let jobs = vec![
            job(0, 0, 100, 10),
            job(1, 0, 100, 10),
            job(2, 0, 1, 1),
            job(3, 0, 1, 1),
        ];
        let groups = lpt_assign(jobs, 2, 64, &cfg());
        let loads: Vec<usize> = groups
            .iter()
            .map(|g| g.iter().map(|j| j.n_instances).sum())
            .collect();
        assert_eq!(loads, vec![101, 101]);
    }

    #[test]
    fn lpt_is_deterministic_and_ordered() {
        let jobs = vec![job(3, 0, 5, 2), job(1, 0, 5, 2), job(2, 0, 5, 2)];
        let a = lpt_assign(jobs.clone(), 2, 64, &cfg());
        let b = lpt_assign(jobs, 2, 64, &cfg());
        assert_eq!(a, b);
        for g in &a {
            let order: Vec<_> = g.iter().map(|j| (j.tile_row, j.tile_col)).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(order, sorted);
        }
    }

    #[test]
    fn idle_groups_when_fewer_tiles() {
        let groups = lpt_assign(vec![job(0, 0, 10, 3)], 4, 64, &cfg());
        assert_eq!(groups.iter().filter(|g| g.is_empty()).count(), 3);
    }

    /// Busy cycles of one group holding `jobs`, through [`price`].
    fn busy(jobs: &[TileJob], tile_size: u32, c: &HwConfig) -> u64 {
        price(&[jobs.to_vec()], tile_size, 0, c, |_| {}).0[0]
    }

    #[test]
    fn compute_bound_vs_load_bound() {
        let c = cfg();
        // Critical lane dominates x load; the first tile's prefetch is
        // exposed up front.
        let busy_tile = busy(&[job(0, 0, 160_000, 10_000)], 64, &c);
        let expect = (10_000f64 / c.issue_rate()).ceil() as u64;
        assert_eq!(
            busy_tile,
            x_load_cycles(64, &c) + expect + TILE_SWITCH_CYCLES
        );
        // Tiny tile work with a big tile: x load dominates both terms.
        let starved = busy(&[job(0, 0, 1, 1)], 8192, &c);
        let x_load = x_load_cycles(8192, &c);
        assert_eq!(starved, 2 * x_load + TILE_SWITCH_CYCLES);
        // Idle groups cost nothing.
        assert_eq!(busy(&[], 8192, &c), 0);
    }

    #[test]
    fn total_includes_init_and_y() {
        let c = cfg();
        assert_eq!(total_cycles(&[], 0, &c), INIT_CYCLES);
        assert_eq!(total_cycles(&[1000], 0, &c), INIT_CYCLES + 1000);
        let t2 = total_cycles(&[10], 1_000_000, &c);
        assert!(t2 > INIT_CYCLES + 10_000);
    }

    #[test]
    fn batch_cycles_amortises_init() {
        assert_eq!(batch_cycles(INIT_CYCLES + 100, 1), INIT_CYCLES + 100);
        assert_eq!(batch_cycles(INIT_CYCLES + 100, 8), INIT_CYCLES + 800);
        assert_eq!(batch_cycles(INIT_CYCLES + 100, 0), INIT_CYCLES);
        // An empty matrix's run costs exactly INIT_CYCLES; batches of it
        // must not underflow.
        assert_eq!(batch_cycles(INIT_CYCLES, 8), INIT_CYCLES);
    }

    #[test]
    fn y_bytes_counts_rmw() {
        assert_eq!(y_bytes([64u32, 64]), 2 * 8 * 64);
        assert_eq!(y_bytes(std::iter::empty()), 0);
    }

    #[test]
    fn max_lane_picks_critical_lane() {
        let mut lanes = [0usize; 16];
        lanes[3] = 7;
        lanes[9] = 11;
        assert_eq!(max_lane(&lanes), 11);
    }
}
