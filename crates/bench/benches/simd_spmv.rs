//! Lane-kernel benchmark: the plan's executor (`ExecutionPlan::run_batch`)
//! against its scalar per-instance reference
//! (`ExecutionPlan::run_reference`) on the same prepared plan, both on the
//! calling thread, so the comparison is kernel against kernel.
//!
//! The comparison isolates what the executor's hot loop buys: the
//! vector-blocked batch scratch, where one instance's x segment and
//! output rows are contiguous across the `LANE_BLOCK` vectors of a lane
//! block, and the lane kernel monomorphised per lane count,
//! whose lane loops compile to packed SIMD arithmetic (the SIMD in the
//! bench's name).
//!
//! Both paths are asserted bit-identical before timing — the executor
//! accumulates every lane in stream order, so it is the same computation,
//! not an approximation. Results go to `BENCH_simd_spmv.json` (keys
//! `per_instance_*` for the reference, `classed_*` for the executor).
//!
//! Run with `cargo bench -p spasm-bench --bench simd_spmv` (`--smoke` for
//! CI liveness). `SPASM_BENCH_ASSERT=1` arms the batch-8 speedup floor.

use std::fmt::Write as _;
use std::time::Instant;

use spasm::{Parallelism, Pipeline, PipelineOptions};
use spasm_bench::timing::is_smoke;
use spasm_workloads::Workload;

/// The serving batch width the acceptance floor is measured at.
const BATCH: usize = 8;

/// Per-batch wall-clock of `iters` timed repetitions, in seconds.
fn time_batch(iters: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
        std::hint::black_box(&mut f);
    }
    t0.elapsed().as_secs_f64() / f64::from(iters.max(1))
}

struct Row {
    workload: String,
    nnz: usize,
    per_instance_s: f64,
    classed_s: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.per_instance_s / self.classed_s.max(1e-12)
    }
}

fn main() {
    spasm_bench::smoke_from_args();
    let scale = spasm_bench::scale_from_args();
    println!(
        "lane-kernel SpMV | scale: {} | parallel: {}",
        spasm_bench::scale_name(scale),
        cfg!(feature = "parallel")
    );

    // Same structural cross-section as the other serving benches.
    let picks = [
        Workload::Raefsky3,
        Workload::C73,
        Workload::TmtSym,
        Workload::Cfd2,
    ];
    let iters: u32 = if is_smoke() { 1 } else { 50 };

    let mut rows: Vec<Row> = Vec::new();
    for w in picks {
        let m = w.generate(scale);
        let n_cols = m.cols() as usize;
        let n_rows = m.rows() as usize;

        let pipeline =
            Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Auto));
        let prepared = pipeline.prepare(&m).expect("pipeline");
        let mut plan = prepared
            .accelerator()
            .prepare(&prepared.encoded)
            .expect("prepare");

        let xs: Vec<Vec<f32>> = (0..BATCH)
            .map(|j| {
                (0..n_cols)
                    .map(|i| (((i + 3 * j) % 9) as f32) * 0.5 - 2.0)
                    .collect()
            })
            .collect();

        // Bit-identity gate: the executor must be the same computation as
        // the per-instance reference.
        let mut want = vec![vec![0.0f32; n_rows]; BATCH];
        plan.run_reference(&xs, &mut want).expect("run_reference");
        let mut got = vec![vec![0.0f32; n_rows]; BATCH];
        plan.run_batch(&xs, &mut got).expect("run_batch");
        for (j, (g, ww)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ww.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{w}: executor vector {j} diverged from the reference"
            );
        }

        let mut ys = vec![vec![0.0f32; n_rows]; BATCH];
        let per_instance_s = time_batch(iters, || {
            for y in ys.iter_mut() {
                y.fill(0.0);
            }
            plan.run_reference(&xs, &mut ys).expect("run_reference");
        });
        let classed_s = time_batch(iters, || {
            for y in ys.iter_mut() {
                y.fill(0.0);
            }
            plan.run_batch(&xs, &mut ys).expect("run_batch");
        });

        let row = Row {
            workload: w.to_string(),
            nnz: m.nnz(),
            per_instance_s,
            classed_s,
        };
        println!(
            "{:<14} {:>9} nnz  per-instance {:>10.1} us/batch  executor {:>10.1} us/batch  {:>6.2}x",
            row.workload,
            row.nnz,
            row.per_instance_s * 1e6,
            row.classed_s * 1e6,
            row.speedup(),
        );
        rows.push(row);
    }

    let geomean = spasm_bench::geomean(rows.iter().map(Row::speedup));
    println!("geomean executor speedup at batch {BATCH}: {geomean:.2}x");
    // Opt-in floor (SPASM_BENCH_ASSERT=1): the restructured hot loop must
    // beat the per-instance reference by >= 1.15x geomean at batch 8.
    spasm_bench::maybe_assert_speedup("simd_spmv executor batch-8 speedup", geomean, 1.15);

    // Hand-rolled JSON (no serde in the build environment).
    let mut json = String::from("{\n  \"bench\": \"simd_spmv\",\n");
    json.push_str(&spasm_bench::metadata_json());
    let _ = writeln!(json, "  \"smoke\": {},", is_smoke());
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"geomean_classed_speedup\": {geomean},");
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"nnz\": {}, \
             \"per_instance_per_batch_s\": {}, \"classed_per_batch_s\": {}, \
             \"speedup\": {}}}",
            r.workload,
            r.nnz,
            r.per_instance_s,
            r.classed_s,
            r.speedup()
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    // cargo bench runs with the package dir as cwd; anchor the artifact at
    // the workspace root where CI picks it up.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simd_spmv.json");
    std::fs::write(out, &json).expect("write bench json");
    println!("wrote {out}");
}
