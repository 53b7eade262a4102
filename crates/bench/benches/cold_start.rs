//! Cold-start benchmark: wire-v3 mapped plans (`spasm-store`) against
//! the v2 decode-and-re-prepare ingest path.
//!
//! Both sides start from serialised bytes and end at the same place — a
//! `Prepared` ready to serve its first SpMV:
//!
//! * **v2** — `SpasmMatrix::from_bytes` + the full pipeline prepare
//!   (selection, schedule search, plan build), the path a serving node
//!   pays today for every matrix not already resident;
//! * **v3** — one aligned buffer copy, container + plan validation, and
//!   `Prepared::restore` around streams that *borrow* the buffer. No
//!   preprocessing re-runs and no stream bytes are copied.
//!
//! Each thawed plan is asserted bit-identical to the freshly prepared
//! one before timing. Results (plus owned-vs-mapped byte counters) go to
//! `BENCH_cold_start.json`.
//!
//! Run with `cargo bench -p spasm-bench --bench cold_start` (`--smoke`
//! for CI liveness). `SPASM_BENCH_ASSERT=1` arms the v3-vs-v2 load
//! speedup floor.

use std::fmt::Write as _;
use std::time::Instant;

use spasm::{Parallelism, Pipeline, PipelineOptions, Prepared};
use spasm_bench::timing::is_smoke;
use spasm_format::SpasmMatrix;
use spasm_store::{save_v3, FrozenPlan, PlanBuffer};
use spasm_workloads::Workload;

/// Wall-clock of `iters` repetitions of `f`, in seconds per repetition.
fn time_each<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() / f64::from(iters.max(1))
}

struct Row {
    workload: String,
    nnz: usize,
    v2_bytes: usize,
    v3_bytes: usize,
    v2_load_s: f64,
    v3_load_s: f64,
    plan_mapped_bytes: usize,
    plan_owned_bytes: usize,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.v2_load_s / self.v3_load_s.max(1e-12)
    }
}

/// The full v2 cold start: decode the stream, re-run the pipeline.
fn thaw_v2(bytes: &[u8], pipeline: &Pipeline) -> Prepared {
    let decoded = SpasmMatrix::from_bytes(bytes).expect("v2 decode");
    pipeline.prepare(&decoded.to_coo()).expect("v2 prepare")
}

/// The full v3 cold start: aligned copy, validate, map, restore.
fn thaw_v3(bytes: &[u8]) -> Prepared {
    let frozen = FrozenPlan::open(PlanBuffer::from_bytes(bytes)).expect("v3 open");
    let encoded = frozen.matrix().expect("v3 matrix");
    let plan = frozen.into_plan().expect("v3 thaw");
    Prepared::restore(
        encoded,
        plan,
        Parallelism::Auto,
        spasm::IntegrityPolicy::off(),
    )
    .expect("restore")
}

fn main() {
    spasm_bench::smoke_from_args();
    let scale = spasm_bench::scale_from_args();
    println!(
        "cold start: v3 mapped plans vs v2 re-prepare | scale: {} | parallel: {}",
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
    let iters: u32 = if is_smoke() { 1 } else { 10 };

    let mut rows: Vec<Row> = Vec::new();
    for w in picks {
        let m = w.generate(scale);
        let pipeline =
            Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Auto));
        let mut fresh = pipeline.prepare(&m).expect("pipeline");
        let v2 = fresh.encoded.to_bytes().to_vec();
        let v3 = save_v3(&fresh.encoded, &fresh.plan).expect("save_v3");

        // Bit-identity gate: the thawed plan must produce exactly the
        // freshly prepared plan's output.
        let n_cols = m.cols() as usize;
        let n_rows = m.rows() as usize;
        let x: Vec<f32> = (0..n_cols).map(|i| ((i % 9) as f32) * 0.5 - 2.0).collect();
        let mut want = vec![0.0f32; n_rows];
        fresh.execute(&x, &mut want).expect("fresh execute");
        let mut thawed = thaw_v3(&v3);
        let mut got = vec![0.0f32; n_rows];
        thawed.execute(&x, &mut got).expect("thawed execute");
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{w}: thawed v3 plan diverged from fresh prepare"
        );
        let plan_mapped_bytes = thawed.plan.mapped_bytes();
        let plan_owned_bytes = thawed.plan.memory_bytes();

        let v2_load_s = time_each(iters, || thaw_v2(&v2, &pipeline));
        let v3_load_s = time_each(iters, || thaw_v3(&v3));

        let row = Row {
            workload: w.to_string(),
            nnz: m.nnz(),
            v2_bytes: v2.len(),
            v3_bytes: v3.len(),
            v2_load_s,
            v3_load_s,
            plan_mapped_bytes,
            plan_owned_bytes,
        };
        println!(
            "{:<14} {:>9} nnz  v2 {:>10.2} ms  v3 {:>10.3} ms  {:>7.1}x  ({} mapped / {} owned bytes)",
            row.workload,
            row.nnz,
            row.v2_load_s * 1e3,
            row.v3_load_s * 1e3,
            row.speedup(),
            row.plan_mapped_bytes,
            row.plan_owned_bytes,
        );
        rows.push(row);
    }

    let geomean = spasm_bench::geomean(rows.iter().map(Row::speedup));
    println!("geomean v3-vs-v2 cold-start speedup: {geomean:.1}x");
    // Opt-in floor (SPASM_BENCH_ASSERT=1): mapping a frozen plan must
    // beat decode-and-re-prepare by >= 5x geomean.
    spasm_bench::maybe_assert_speedup("cold_start v3-vs-v2 load speedup", geomean, 5.0);

    // Hand-rolled JSON (no serde in the build environment).
    let mut json = String::from("{\n  \"bench\": \"cold_start\",\n");
    json.push_str(&spasm_bench::metadata_json());
    let _ = writeln!(json, "  \"smoke\": {},", is_smoke());
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(json, "  \"geomean_v3_speedup\": {geomean},");
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"nnz\": {}, \
             \"v2_wire_bytes\": {}, \"v3_wire_bytes\": {}, \
             \"v2_load_s\": {}, \"v3_load_s\": {}, \"speedup\": {}, \
             \"plan_mapped_bytes\": {}, \"plan_owned_bytes\": {}}}",
            r.workload,
            r.nnz,
            r.v2_bytes,
            r.v3_bytes,
            r.v2_load_s,
            r.v3_load_s,
            r.speedup(),
            r.plan_mapped_bytes,
            r.plan_owned_bytes,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    // cargo bench runs with the package dir as cwd; anchor the artifact at
    // the workspace root where CI picks it up.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cold_start.json");
    std::fs::write(out, &json).expect("write bench json");
    println!("wrote {out}");
}
