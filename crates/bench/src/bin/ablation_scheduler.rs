//! Design-choice ablation (beyond the paper's Fig. 14): the LPT tile
//! assignment versus naive round-robin, across the workload suite.
//!
//! The paper attributes part of SPASM's win to "workload schedules that
//! improve load balancing among the parallel processing units"; this
//! harness quantifies how much of that is the assignment policy itself.
//!
//! ```text
//! cargo run --release -p spasm-bench --bin ablation_scheduler [-- --scale paper]
//! ```

use spasm_bench::{geomean, rule, scale_from_args, scale_name};
use spasm_format::{SubmatrixMap, TilingSummary};
use spasm_hw::{perf, timing, HwConfig};
use spasm_patterns::{DecompositionTable, TemplateSet};

fn cycles_with(summary: &TilingSummary, cfg: &HwConfig, lpt: bool) -> u64 {
    let jobs = perf::jobs_from_summary(summary);
    let y = timing::y_bytes(summary.worked_row_heights());
    let assignment = if lpt {
        timing::lpt_assign(jobs, cfg.num_pe_groups, summary.tile_size(), cfg)
    } else {
        timing::round_robin_assign(jobs, cfg.num_pe_groups)
    };
    timing::price(&assignment, summary.tile_size(), y, cfg, |_| {}).1
}

fn main() {
    let scale = scale_from_args();
    println!(
        "Scheduler ablation — LPT vs round-robin tile assignment ({})",
        scale_name(scale)
    );
    rule(72);
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>10}",
        "matrix", "round-robin", "LPT", "speedup", "tiles"
    );
    rule(72);
    let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
    let cfg = HwConfig::spasm_4_1();
    let mut speedups = Vec::new();
    spasm_bench::for_each_workload(scale, |w, m| {
        let map = SubmatrixMap::from_coo(&m);
        let summary = TilingSummary::analyze(&map, &table, 1024).expect("tile 1024");
        let rr = cycles_with(&summary, &cfg, false);
        let lpt = cycles_with(&summary, &cfg, true);
        let speedup = rr as f64 / lpt as f64;
        speedups.push(speedup);
        println!(
            "{:<14} {:>12} {:>12} {:>9.2}x {:>10}",
            w.to_string(),
            rr,
            lpt,
            speedup,
            summary.tiles().len()
        );
    });
    rule(72);
    println!(
        "geomean LPT speedup over round-robin: {:.2}x (cycles at fixed tile 1024, {})",
        geomean(speedups.iter().copied()),
        cfg.name
    );
}
