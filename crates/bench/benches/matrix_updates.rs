//! Streaming-update benchmark: `Prepared::apply_delta` against the full
//! decode-and-re-prepare path, across changeset kinds and sizes.
//!
//! For each workload and delta size the bench times
//!
//! * **apply** — clone the resident plan and apply the delta in place
//!   (values-only deltas take the copy-on-write patch path; structural
//!   deltas re-encode only the touched submatrices and splice them into
//!   the streams, copying every other instance verbatim);
//! * **re-prepare** — run the whole pipeline (analysis, selection,
//!   decomposition, schedule search, plan build) on the mutated matrix,
//!   the cost a serving node pays without the update path.
//!
//! Every timed pair is gated on bit-identity first: the delta-updated
//! plan and the from-scratch plan must produce the same output bits.
//! Results go to `BENCH_updates.json`.
//!
//! Run with `cargo bench -p spasm-bench --bench matrix_updates`
//! (`--smoke` for CI liveness). `SPASM_BENCH_ASSERT=1` arms the
//! small-changeset apply-vs-re-prepare speedup floor.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use spasm::{DeltaOutcome, Parallelism, Pipeline, PipelineOptions};
use spasm_bench::timing::is_smoke;
use spasm_sparse::{Coo, DeltaOp, MatrixDelta};
use spasm_workloads::{changesets, ChangesetConfig, Workload};

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
    kind: &'static str,
    ops: usize,
    outcome: String,
    apply_s: f64,
    reprepare_s: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reprepare_s / self.apply_s.max(1e-12)
    }
}

/// Applies a delta to the matrix's cell map — the mutated matrix the
/// re-prepare side starts from.
fn mutate(base: &Coo, delta: &MatrixDelta) -> Coo {
    let mut cells: BTreeMap<(u32, u32), f32> = base.iter().map(|(r, c, v)| ((r, c), v)).collect();
    for op in delta.ops() {
        match *op {
            DeltaOp::Patch { row, col, value } | DeltaOp::Insert { row, col, value } => {
                cells.insert((row, col), value);
            }
            DeltaOp::Delete { row, col } => {
                cells.remove(&(row, col));
            }
        }
    }
    let t: Vec<(u32, u32, f32)> = cells.into_iter().map(|((r, c), v)| (r, c, v)).collect();
    Coo::from_triplets(base.rows(), base.cols(), t).expect("mutated triplets")
}

fn outcome_name(outcome: &DeltaOutcome) -> String {
    match outcome {
        DeltaOutcome::Patched { .. } => "patched".into(),
        DeltaOutcome::Spliced { .. } => "spliced".into(),
        DeltaOutcome::Reprepared { .. } => "reprepared".into(),
        other => format!("{other:?}"),
    }
}

fn main() {
    spasm_bench::smoke_from_args();
    let scale = spasm_bench::scale_from_args();
    println!(
        "matrix updates: apply_delta vs full re-prepare | scale: {} | parallel: {}",
        spasm_bench::scale_name(scale),
        cfg!(feature = "parallel")
    );

    let picks = [Workload::Raefsky3, Workload::TmtSym, Workload::C73];
    let sizes: &[usize] = if is_smoke() { &[4] } else { &[4, 32, 256] };
    let iters: u32 = if is_smoke() { 1 } else { 10 };

    let mut rows: Vec<Row> = Vec::new();
    for w in picks {
        let m = w.generate(scale);
        let pipeline =
            Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Auto));
        let base = pipeline.prepare(&m).expect("prepare base");

        for &ops in sizes {
            for (kind, config) in [
                ("values", ChangesetConfig::default().values_only()),
                ("structural", ChangesetConfig::default().structural_only()),
            ] {
                let seq = changesets(
                    &m,
                    0xDE17A ^ ops as u64,
                    &ChangesetConfig {
                        deltas: 1,
                        ops_per_delta: ops,
                        ..config
                    },
                );
                let delta = &seq[0].1;
                let mutated = mutate(&m, delta);

                // Bit-identity gate before timing anything.
                let mut live = base.clone();
                let outcome = live.apply_delta(delta).expect("apply delta");
                let mut fresh = pipeline.prepare(&mutated).expect("prepare mutated");
                let x: Vec<f32> = (0..m.cols())
                    .map(|i| ((i % 9) as f32) * 0.5 - 2.0)
                    .collect();
                let n = m.rows() as usize;
                let (mut got, mut want) = (vec![0.0f32; n], vec![0.0f32; n]);
                live.execute_into(&x, &mut got).expect("live execute");
                fresh.execute_into(&x, &mut want).expect("fresh execute");
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{w}: delta-updated plan diverged from re-prepare ({kind}, {ops} ops)"
                );

                // apply = plan clone (refcount bumps on the shared
                // streams) + in-place delta application.
                let apply_s = time_each(iters, || {
                    let mut p = base.clone();
                    p.apply_delta(delta).expect("timed apply")
                });
                let reprepare_s =
                    time_each(iters, || pipeline.prepare(&mutated).expect("timed prepare"));

                let row = Row {
                    workload: w.to_string(),
                    kind,
                    ops,
                    outcome: outcome_name(&outcome),
                    apply_s,
                    reprepare_s,
                };
                println!(
                    "{:<14} {:<10} {:>4} ops  apply {:>9.3} ms ({})  re-prepare {:>9.2} ms  {:>8.1}x",
                    row.workload,
                    row.kind,
                    row.ops,
                    row.apply_s * 1e3,
                    row.outcome,
                    row.reprepare_s * 1e3,
                    row.speedup(),
                );
                rows.push(row);
            }
        }
    }

    // The headline figure: small changesets must be much cheaper to apply
    // than to re-prepare.
    let small = spasm_bench::geomean(rows.iter().filter(|r| r.ops == sizes[0]).map(Row::speedup));
    let overall = spasm_bench::geomean(rows.iter().map(Row::speedup));
    println!(
        "geomean apply-vs-re-prepare speedup: small changesets {small:.1}x, overall {overall:.1}x"
    );
    // Opt-in floor (SPASM_BENCH_ASSERT=1): applying a small changeset
    // must beat a full re-prepare by >= 2x geomean.
    spasm_bench::maybe_assert_speedup("matrix_updates small-changeset speedup", small, 2.0);

    // Hand-rolled JSON (no serde in the build environment).
    let mut json = String::from("{\n  \"bench\": \"matrix_updates\",\n");
    json.push_str(&spasm_bench::metadata_json());
    let _ = writeln!(json, "  \"smoke\": {},", is_smoke());
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(json, "  \"geomean_small_changeset_speedup\": {small},");
    let _ = writeln!(json, "  \"geomean_speedup\": {overall},");
    json.push_str("  \"cases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"kind\": \"{}\", \"ops\": {}, \
             \"outcome\": \"{}\", \"apply_s\": {}, \"reprepare_s\": {}, \"speedup\": {}}}",
            r.workload,
            r.kind,
            r.ops,
            r.outcome,
            r.apply_s,
            r.reprepare_s,
            r.speedup(),
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    // cargo bench runs with the package dir as cwd; anchor the artifact at
    // the workspace root where CI picks it up.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_updates.json");
    std::fs::write(out, &json).expect("write bench json");
    println!("wrote {out}");
}
