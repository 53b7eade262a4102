//! Batched-serving benchmark: `ExecutionPlan::run_batch` against looping
//! the prepared single-vector path — the multi-RHS serving workload the
//! batched layer exists for.
//!
//! Both paths reuse the same prepared plan; the comparison isolates what
//! batching itself buys: the x vectors are padded once, and the
//! pre-decoded instance stream is streamed through the cache once per
//! (tile row × lane block) instead of once per vector. Both run on the
//! calling thread.
//!
//! All batched outputs are asserted bit-identical to the looped path,
//! before timing and again at every timed batch width. Results are printed as a table and written to
//! `BENCH_batched_spmv.json` for the perf trajectory.
//!
//! Run with `cargo bench -p spasm-bench --bench batched_spmv`
//! (`--smoke` for a single-iteration CI liveness pass, `--scale` as
//! usual). `SPASM_BENCH_ASSERT=1` arms the amortisation floor.

use std::fmt::Write as _;
use std::time::Instant;

use spasm::{Parallelism, Pipeline, PipelineOptions};
use spasm_bench::timing::is_smoke;
use spasm_workloads::Workload;

/// Batch widths timed against the looped path: every padded width (2,
/// 4, 8), plus 3, 5 and 7, which run with pad lanes.
const BATCH_SIZES: [usize; 6] = [2, 3, 4, 5, 7, 8];

/// Batch width for the large-batch comparison: big enough that the
/// reference's per-vector walk re-streams the instance stream many times
/// over, where fusing `LANE_BLOCK` vectors per walk pays off most.
const LARGE_BATCH: usize = 128;

/// Per-vector wall-clock of `iters` timed repetitions, in seconds.
fn time_per_vector(iters: u32, vectors: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
        std::hint::black_box(&mut f);
    }
    t0.elapsed().as_secs_f64() / f64::from(iters.max(1)) / vectors.max(1) as f64
}

struct Row {
    workload: String,
    nnz: usize,
    batch: usize,
    single_per_vector_s: f64,
    batched_per_vector_s: f64,
}

impl Row {
    fn amortization(&self) -> f64 {
        self.single_per_vector_s / self.batched_per_vector_s.max(1e-12)
    }
}

fn main() {
    spasm_bench::smoke_from_args();
    let scale = spasm_bench::scale_from_args();
    println!(
        "batched-SpMV serving | scale: {} | parallel feature: {}",
        spasm_bench::scale_name(scale),
        cfg!(feature = "parallel")
    );

    // Same structural cross-section as the repeated-SpMV bench.
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

        let max_batch = *BATCH_SIZES.iter().max().unwrap_or(&1);
        let xs: Vec<Vec<f32>> = (0..max_batch)
            .map(|j| {
                (0..n_cols)
                    .map(|i| (((i + 3 * j) % 9) as f32) * 0.5 - 2.0)
                    .collect()
            })
            .collect();

        // Bit-identity gate: batching must not be a different computation.
        let mut want = vec![vec![0.0f32; n_rows]; max_batch];
        for (xj, yj) in xs.iter().zip(want.iter_mut()) {
            plan.run(xj, yj).expect("plan run");
        }
        let mut got = vec![vec![0.0f32; n_rows]; max_batch];
        plan.run_batch(&xs, &mut got).expect("run_batch");
        for (j, (g, ww)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ww.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{w}: run_batch vector {j} diverged from looped plan.run"
            );
        }

        // Single-vector baseline: the prepared plan looped per vector.
        let mut ys = vec![vec![0.0f32; n_rows]; max_batch];
        let single_per_vector_s = time_per_vector(iters, max_batch, || {
            for (xj, yj) in xs.iter().zip(ys.iter_mut()) {
                yj.fill(0.0);
                plan.run(xj, yj).expect("plan run");
            }
        });

        for batch in BATCH_SIZES {
            let xs_b = &xs[..batch];
            let mut ys_b = vec![vec![0.0f32; n_rows]; batch];
            let batched_per_vector_s = time_per_vector(iters, batch, || {
                for y in ys_b.iter_mut() {
                    y.fill(0.0);
                }
                plan.run_batch(xs_b, &mut ys_b).expect("run_batch");
            });
            for (j, (g, ww)) in ys_b.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    ww.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{w}: batch-{batch} vector {j} diverged from looped plan.run"
                );
            }
            let row = Row {
                workload: w.to_string(),
                nnz: m.nnz(),
                batch,
                single_per_vector_s,
                batched_per_vector_s,
            };
            println!(
                "{:<14} {:>9} nnz  batch {:>2}  single {:>10.1} us/vec  batched {:>10.1} us/vec  {:>6.2}x",
                row.workload,
                row.nnz,
                row.batch,
                row.single_per_vector_s * 1e6,
                row.batched_per_vector_s * 1e6,
                row.amortization(),
            );
            rows.push(row);
        }
    }

    let batch8 = spasm_bench::geomean(rows.iter().filter(|r| r.batch == 8).map(Row::amortization));
    let overall = spasm_bench::geomean(rows.iter().map(Row::amortization));
    println!("geomean batched amortization: {overall:.2}x overall, {batch8:.2}x at batch 8");
    // Opt-in floor (SPASM_BENCH_ASSERT=1): at batch 8 the amortised cost
    // per vector must beat the prepared single-vector loop.
    spasm_bench::maybe_assert_speedup("batched_spmv batch-8 amortization", batch8, 1.05);

    // ---- Large batch (batch > 64): executor vs reference ---------------
    //
    // The scalar per-instance reference (`run_reference`) walks the
    // instance stream once per (tile row, vector) window; the executor
    // (`run_batch`) walks it once per (tile row, lane block) and applies
    // each instance to up to `LANE_BLOCK` vectors at once. Both are
    // asserted bit-identical, then timed.
    let large_iters: u32 = if is_smoke() { 1 } else { 10 };
    let mut large_rows: Vec<(String, usize, f64, f64)> = Vec::new();
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

        let xs: Vec<Vec<f32>> = (0..LARGE_BATCH)
            .map(|j| {
                (0..n_cols)
                    .map(|i| (((i + 5 * j) % 11) as f32) * 0.25 - 1.25)
                    .collect()
            })
            .collect();

        // Bit-identity gate between the reference and the executor.
        let mut want = vec![vec![0.0f32; n_rows]; LARGE_BATCH];
        plan.run_reference(&xs, &mut want).expect("run_reference");
        let mut got = vec![vec![0.0f32; n_rows]; LARGE_BATCH];
        plan.run_batch(&xs, &mut got).expect("run_batch");
        for (j, (g, ww)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ww.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{w}: executor batch-{LARGE_BATCH} vector {j} diverged from the reference"
            );
        }

        let mut ys = vec![vec![0.0f32; n_rows]; LARGE_BATCH];
        let reference_s = time_per_vector(large_iters, LARGE_BATCH, || {
            for y in ys.iter_mut() {
                y.fill(0.0);
            }
            plan.run_reference(&xs, &mut ys).expect("run_reference");
        });
        let executor_s = time_per_vector(large_iters, LARGE_BATCH, || {
            for y in ys.iter_mut() {
                y.fill(0.0);
            }
            plan.run_batch(&xs, &mut ys).expect("run_batch");
        });
        println!(
            "{:<14} {:>9} nnz  batch {:>3}  reference {:>9.1} us/vec  \
             executor {:>9.1} us/vec  {:>6.2}x",
            w.to_string(),
            m.nnz(),
            LARGE_BATCH,
            reference_s * 1e6,
            executor_s * 1e6,
            reference_s / executor_s.max(1e-12),
        );
        large_rows.push((w.to_string(), m.nnz(), reference_s, executor_s));
    }
    let large_geo = spasm_bench::geomean(
        large_rows
            .iter()
            .map(|(_, _, reference, executor)| reference / executor.max(1e-12)),
    );
    println!("batch-{LARGE_BATCH} executor speedup over the reference: {large_geo:.2}x geomean");

    // Hand-rolled JSON (no serde in the build environment).
    let mut json = String::from("{\n  \"bench\": \"batched_spmv\",\n");
    json.push_str(&spasm_bench::metadata_json());
    let _ = writeln!(json, "  \"smoke\": {},", is_smoke());
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(json, "  \"geomean_amortization\": {overall},");
    let _ = writeln!(json, "  \"geomean_amortization_batch8\": {batch8},");
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"nnz\": {}, \"batch\": {}, \
             \"single_per_vector_s\": {}, \"batched_per_vector_s\": {}, \
             \"amortization\": {}}}",
            r.workload,
            r.nnz,
            r.batch,
            r.single_per_vector_s,
            r.batched_per_vector_s,
            r.amortization()
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"large_batch\": {\n");
    let _ = writeln!(json, "    \"batch\": {LARGE_BATCH},");
    let _ = writeln!(json, "    \"iters\": {large_iters},");
    let _ = writeln!(json, "    \"geomean_executor_speedup\": {large_geo},");
    json.push_str("    \"workloads\": [\n");
    for (i, (name, nnz, reference, executor)) in large_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"workload\": \"{name}\", \"nnz\": {nnz}, \
             \"reference_per_vector_s\": {reference}, \
             \"executor_per_vector_s\": {executor}, \
             \"executor_speedup\": {}}}",
            reference / executor.max(1e-12)
        );
        json.push_str(if i + 1 < large_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  }\n}\n");
    // cargo bench runs with the package dir as cwd; anchor the artifact at
    // the workspace root where CI picks it up.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batched_spmv.json");
    std::fs::write(out, &json).expect("write bench json");
    println!("wrote {out}");
}
