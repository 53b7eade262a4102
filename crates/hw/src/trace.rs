//! Execution tracing: a cycle-annotated event timeline of one simulated
//! SpMV, for understanding *why* a schedule wins (which groups idle,
//! whether tiles are compute- or x-load-bound, when the y drain bites).
//!
//! The events are the spans [`crate::timing::price`] walks while pricing,
//! recorded instead of discarded, so the trace's total is the perf
//! model's ([`crate::perf::estimate_cycles`]) by construction.

use std::fmt;

use spasm_format::TilingSummary;

use crate::config::HwConfig;
use crate::perf;

/// What a PE group was doing during an event's cycle span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Opcode LUT load and control set-up (all groups).
    Init,
    /// Processing one tile, bounded by its critical lane's compute.
    ComputeBound {
        /// Tile row.
        tile_row: u32,
        /// Tile column.
        tile_col: u32,
        /// Instances in the tile.
        instances: usize,
    },
    /// Processing one tile, bounded by the x-segment prefetch.
    XLoadBound {
        /// Tile row.
        tile_row: u32,
        /// Tile column.
        tile_col: u32,
        /// Bytes of x loaded.
        bytes: u64,
    },
    /// Pipeline drain while switching tiles.
    TileSwitch,
    /// Waiting for the shared y channel to drain final sums (appears on
    /// the virtual "y" lane of the trace).
    YDrain {
        /// Total y traffic in bytes.
        bytes: u64,
    },
}

/// One event on a group's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// PE group index, or `None` for accelerator-wide events (init, y).
    pub group: Option<u32>,
    /// Cycle the event starts (inclusive).
    pub start: u64,
    /// Cycle the event ends (exclusive).
    pub end: u64,
    /// What was happening.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Event duration in cycles.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// The full timeline of one execution.
///
/// # Examples
///
/// ```
/// use spasm_format::{SubmatrixMap, TilingSummary};
/// use spasm_hw::{ExecutionTrace, HwConfig};
/// use spasm_patterns::{DecompositionTable, TemplateSet};
/// use spasm_sparse::Coo;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let coo = Coo::from_triplets(16, 16, (0..16).map(|i| (i, i, 1.0)).collect())?;
/// let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
/// let summary = TilingSummary::analyze(&SubmatrixMap::from_coo(&coo), &table, 8)?;
/// let trace = ExecutionTrace::capture(&summary, &HwConfig::spasm_4_1());
/// assert!(trace.total_cycles() > 0);
/// assert!(trace.balance() <= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    events: Vec<TraceEvent>,
    per_group_busy: Vec<u64>,
    total_cycles: u64,
    num_groups: u32,
}

impl ExecutionTrace {
    /// Traces the execution of a tiling on a configuration.
    pub fn capture(summary: &TilingSummary, cfg: &HwConfig) -> Self {
        let mut events = Vec::new();
        let (per_group_busy, total_cycles) =
            perf::price_summary(summary, cfg, |event| events.push(event));
        ExecutionTrace {
            events,
            per_group_busy,
            total_cycles,
            num_groups: cfg.num_pe_groups,
        }
    }

    /// All events, init first, groups in index order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Busy cycles of each group (excluding init).
    pub fn per_group_busy(&self) -> &[u64] {
        &self.per_group_busy
    }

    /// Total cycles — identical to the perf model / simulator.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Fraction of group-cycles spent busy while the slowest group runs
    /// (1.0 = perfectly balanced).
    pub fn balance(&self) -> f64 {
        let max = self.per_group_busy.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let sum: u64 = self.per_group_busy.iter().sum();
        sum as f64 / (max as f64 * self.per_group_busy.len() as f64)
    }

    /// Cycles the critical (slowest) group spent in each activity class:
    /// `(compute, x_load, switch)`.
    pub fn critical_group_breakdown(&self) -> (u64, u64, u64) {
        let critical = self
            .per_group_busy
            .iter()
            .enumerate()
            .max_by_key(|&(_, &b)| b)
            .map(|(g, _)| g as u32);
        let mut compute = 0;
        let mut xload = 0;
        let mut switch = 0;
        for e in &self.events {
            if e.group != critical {
                continue;
            }
            match e.kind {
                EventKind::ComputeBound { .. } => compute += e.cycles(),
                EventKind::XLoadBound { .. } => xload += e.cycles(),
                EventKind::TileSwitch => switch += e.cycles(),
                _ => {}
            }
        }
        (compute, xload, switch)
    }

    /// Renders an ASCII Gantt chart, one row per group plus the y lane:
    /// `#` compute-bound, `x` x-load-bound, `.` switch/idle, `y` y drain.
    pub fn render_gantt(&self, width: usize) -> String {
        assert!(width >= 10, "gantt needs at least 10 columns");
        let scale = self.total_cycles.max(1) as f64 / width as f64;
        let mut rows: Vec<Vec<char>> = vec![vec![' '; width]; self.num_groups as usize + 1];
        for e in &self.events {
            let row = match e.group {
                Some(g) => g as usize,
                None => match e.kind {
                    EventKind::YDrain { .. } => self.num_groups as usize,
                    _ => continue,
                },
            };
            let c = match e.kind {
                EventKind::ComputeBound { .. } => '#',
                EventKind::XLoadBound { .. } => 'x',
                EventKind::TileSwitch => '.',
                EventKind::YDrain { .. } => 'y',
                EventKind::Init => continue,
            };
            let s = (e.start as f64 / scale) as usize;
            let t = ((e.end as f64 / scale) as usize).max(s + 1).min(width);
            for slot in &mut rows[row][s..t] {
                *slot = c;
            }
        }
        let mut out = String::new();
        for (g, row) in rows.iter().enumerate() {
            if g < self.num_groups as usize {
                out.push_str(&format!("g{g:<2}|"));
            } else {
                out.push_str("y  |");
            }
            out.extend(row.iter());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for ExecutionTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (c, x, s) = self.critical_group_breakdown();
        writeln!(
            f,
            "{} cycles, balance {:.2}; critical group: {c} compute / {x} x-load / {s} switch",
            self.total_cycles,
            self.balance()
        )?;
        f.write_str(&self.render_gantt(64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{self, INIT_CYCLES};
    use spasm_format::SubmatrixMap;
    use spasm_patterns::{DecompositionTable, TemplateSet};
    use spasm_sparse::Coo;

    fn summary(n: u32, tile: u32) -> (TilingSummary, Coo) {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 1.0));
            t.push((i, (i * 3 + 1) % n, 2.0));
        }
        let coo = Coo::from_triplets(n, n, t).unwrap();
        let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
        let s = TilingSummary::analyze(&SubmatrixMap::from_coo(&coo), &table, tile).unwrap();
        (s, coo)
    }

    #[test]
    fn trace_total_matches_perf_model() {
        for tile in [16u32, 64, 256] {
            let (s, _) = summary(256, tile);
            for cfg in HwConfig::shipped() {
                let trace = ExecutionTrace::capture(&s, &cfg);
                assert_eq!(
                    trace.total_cycles(),
                    perf::estimate_cycles(&s, &cfg),
                    "tile {tile} cfg {}",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn events_are_contiguous_per_group() {
        let (s, _) = summary(512, 64);
        let cfg = HwConfig::spasm_4_1();
        let trace = ExecutionTrace::capture(&s, &cfg);
        for g in 0..cfg.num_pe_groups {
            let evs: Vec<_> = trace
                .events()
                .iter()
                .filter(|e| e.group == Some(g))
                .collect();
            for w in evs.windows(2) {
                assert_eq!(w[0].end, w[1].start, "group {g} timeline has gaps");
            }
            if let Some(first) = evs.first() {
                assert_eq!(first.start, INIT_CYCLES);
            }
        }
    }

    #[test]
    fn busy_cycles_match_group_cycles() {
        let (s, _) = summary(512, 64);
        let cfg = HwConfig::spasm_3_2();
        let trace = ExecutionTrace::capture(&s, &cfg);
        let jobs = perf::jobs_from_summary(&s);
        let assignment = timing::lpt_assign(jobs, cfg.num_pe_groups, s.tile_size(), &cfg);
        for (g, assigned) in assignment.iter().enumerate() {
            // An exposed first x load, then one `tile_cost` per tile.
            let costs: u64 = assigned
                .iter()
                .map(|j| timing::tile_cost(j, s.tile_size(), &cfg))
                .sum();
            let exposed = if assigned.is_empty() {
                0
            } else {
                timing::x_load_cycles(s.tile_size(), &cfg)
            };
            assert_eq!(trace.per_group_busy()[g], exposed + costs);
        }
    }

    #[test]
    fn balance_bounds() {
        let (s, _) = summary(1024, 64);
        let trace = ExecutionTrace::capture(&s, &HwConfig::spasm_4_1());
        let b = trace.balance();
        assert!(b > 0.0 && b <= 1.0, "balance {b}");
    }

    #[test]
    fn gantt_renders_all_lanes() {
        let (s, _) = summary(256, 64);
        let cfg = HwConfig::spasm_4_1();
        let trace = ExecutionTrace::capture(&s, &cfg);
        let gantt = trace.render_gantt(40);
        let lines: Vec<&str> = gantt.lines().collect();
        assert_eq!(lines.len(), cfg.num_pe_groups as usize + 1);
        assert!(lines[0].starts_with("g0 |"));
        assert!(lines.last().unwrap().starts_with("y  |"));
        // Some activity must appear.
        assert!(gantt.contains('#') || gantt.contains('x'));
    }

    #[test]
    fn breakdown_sums_to_busy() {
        let (s, _) = summary(512, 256);
        let cfg = HwConfig::spasm_4_1();
        let trace = ExecutionTrace::capture(&s, &cfg);
        let (c, x, sw) = trace.critical_group_breakdown();
        let max_busy = trace.per_group_busy().iter().copied().max().unwrap();
        assert_eq!(c + x + sw, max_busy);
    }
}
