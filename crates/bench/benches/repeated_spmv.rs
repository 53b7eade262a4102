//! Solver-loop benchmark: repeated SpMV against one prepared matrix — the
//! serving workload the prepared-plan layer exists for.
//!
//! Two paths over the same matrices:
//!
//! * **unprepared** — `Accelerator::prepare` plus one `ExecutionPlan::run`
//!   per iteration: re-decodes the instance stream, rebuilds the LPT
//!   schedule and reallocates scratch on every call;
//! * **prepared** — `Accelerator::prepare` once, then `ExecutionPlan::run`
//!   per iteration: allocation-free steady state.
//!
//! Both paths are asserted bit-identical before timing. Results are
//! printed as a table and written to `BENCH_repeated_spmv.json` for the
//! perf trajectory.
//!
//! Run with `cargo bench -p spasm-bench --bench repeated_spmv`
//! (`--smoke` for a single-iteration CI liveness pass, `--scale` as
//! usual).

use std::fmt::Write as _;
use std::time::Instant;

use spasm::{Parallelism, Pipeline, PipelineOptions};
use spasm_bench::timing::is_smoke;
use spasm_workloads::Workload;

/// Per-iteration wall-clock of `iters` back-to-back SpMVs, in seconds.
struct LoopTiming {
    iters: u32,
    per_iter_s: f64,
}

fn time_loop(iters: u32, mut f: impl FnMut()) -> LoopTiming {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
        std::hint::black_box(&mut f);
    }
    LoopTiming {
        iters,
        per_iter_s: t0.elapsed().as_secs_f64() / f64::from(iters.max(1)),
    }
}

struct Row {
    workload: String,
    nnz: usize,
    iters: u32,
    prepare_s: f64,
    unprepared_per_iter_s: f64,
    prepared_per_iter_s: f64,
}

impl Row {
    fn amortization(&self) -> f64 {
        self.unprepared_per_iter_s / self.prepared_per_iter_s.max(1e-12)
    }

    /// Iterations after which prepare-once beats run-every-time.
    fn break_even_iters(&self) -> f64 {
        let saved = self.unprepared_per_iter_s - self.prepared_per_iter_s;
        if saved <= 0.0 {
            f64::INFINITY
        } else {
            self.prepare_s / saved
        }
    }
}

fn main() {
    spasm_bench::smoke_from_args();
    let scale = spasm_bench::scale_from_args();
    println!(
        "repeated-SpMV serving loop | scale: {} | parallel feature: {}",
        spasm_bench::scale_name(scale),
        cfg!(feature = "parallel")
    );

    // A structural cross-section of Table II: blocked FEM, anti-diagonal
    // stencil, ultra-sparse stencil, mixed fragments.
    let picks = [
        Workload::Raefsky3,
        Workload::C73,
        Workload::TmtSym,
        Workload::Cfd2,
    ];
    let iters: u32 = if is_smoke() { 1 } else { 200 };

    let mut rows: Vec<Row> = Vec::new();
    for w in picks {
        let m = w.generate(scale);
        let n_cols = m.cols() as usize;
        let n_rows = m.rows() as usize;
        let x: Vec<f32> = (0..n_cols).map(|i| ((i % 9) as f32) * 0.5 - 2.0).collect();

        let pipeline =
            Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Auto));
        let prepared = pipeline.prepare(&m).expect("pipeline");
        let acc = prepared.accelerator();
        let encoded = &prepared.encoded;

        // Bit-identity gate: the fast path must not be a different
        // computation.
        let mut y_run = vec![0.0f32; n_rows];
        let run_report = acc
            .prepare(encoded)
            .expect("prepare")
            .run(&x, &mut y_run)
            .expect("run")
            .clone();
        let t_prep = Instant::now();
        let mut plan = acc.prepare(encoded).expect("prepare");
        let prepare_s = t_prep.elapsed().as_secs_f64();
        let mut y_plan = vec![0.0f32; n_rows];
        let plan_report = plan.run(&x, &mut y_plan).expect("plan run").clone();
        assert_eq!(
            y_run.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y_plan.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{w}: the reused plan diverged from a one-shot plan"
        );
        assert_eq!(plan_report, run_report, "{w}: ExecReport diverged");

        let mut y = vec![0.0f32; n_rows];
        let unprepared = time_loop(iters, || {
            y.fill(0.0);
            let mut one_shot = acc.prepare(encoded).expect("prepare");
            one_shot.run(&x, &mut y).expect("run");
        });
        let prepared_t = time_loop(iters, || {
            y.fill(0.0);
            plan.run(&x, &mut y).expect("plan run");
        });

        let row = Row {
            workload: w.to_string(),
            nnz: m.nnz(),
            iters: unprepared.iters,
            prepare_s,
            unprepared_per_iter_s: unprepared.per_iter_s,
            prepared_per_iter_s: prepared_t.per_iter_s,
        };
        println!(
            "{:<14} {:>9} nnz  unprepared {:>10.1} us/it  prepared {:>10.1} us/it  \
             {:>6.2}x  break-even {:>7.1} iters",
            row.workload,
            row.nnz,
            row.unprepared_per_iter_s * 1e6,
            row.prepared_per_iter_s * 1e6,
            row.amortization(),
            row.break_even_iters(),
        );
        rows.push(row);
    }

    let geomean = spasm_bench::geomean(rows.iter().map(Row::amortization));
    println!("geomean amortization: {geomean:.2}x over {iters} iterations/workload");
    // Opt-in floor (SPASM_BENCH_ASSERT=1): preparing once must make the
    // serving loop meaningfully cheaper than re-running the full setup.
    spasm_bench::maybe_assert_speedup("repeated_spmv geomean amortization", geomean, 1.2);

    // Hand-rolled JSON (no serde in the build environment).
    let mut json = String::from("{\n  \"bench\": \"repeated_spmv\",\n");
    json.push_str(&spasm_bench::metadata_json());
    let _ = writeln!(json, "  \"smoke\": {},", is_smoke());
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(json, "  \"geomean_amortization\": {geomean},");
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"nnz\": {}, \"iters\": {}, \
             \"prepare_s\": {}, \"unprepared_per_iter_s\": {}, \
             \"prepared_per_iter_s\": {}, \"amortization\": {}}}",
            r.workload,
            r.nnz,
            r.iters,
            r.prepare_s,
            r.unprepared_per_iter_s,
            r.prepared_per_iter_s,
            r.amortization()
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    // cargo bench runs with the package dir as cwd; anchor the artifact at
    // the workspace root where CI picks it up.
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_repeated_spmv.json"
    );
    std::fs::write(out, &json).expect("write bench json");
    println!("wrote {out}");
}
