//! Direct timings of the executor, the parallel fan-out and the integrity
//! ladder on a workload's own plans (traced run only).

use std::time::Instant;

use spasm::Prepared;

use crate::common::{policy, with_budget, Rng};
use crate::stats::{median, Report};

/// Repetitions per timed configuration; each reported time is a median.
const REPS: usize = 7;

/// The median wall time of `REPS` calls of `f`, in ms.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Bytes one SpMV moves, computed (not measured) from the plan's stream
/// sizes plus one read of x and a read and write of y.
fn bytes_per_spmv(p: &Prepared) -> f64 {
    let s = p.plan.streams();
    let streams = std::mem::size_of_val(s.x_base)
        + std::mem::size_of_val(s.y_base)
        + std::mem::size_of_val(s.op_idx)
        + std::mem::size_of_val(s.values)
        + std::mem::size_of_val(s.bucket_idx)
        + std::mem::size_of_val(s.class_runs)
        + std::mem::size_of_val(s.block_runs)
        + std::mem::size_of_val(s.row_blocks);
    (streams + 4 * p.plan.cols() as usize + 8 * p.plan.rows() as usize) as f64
}

/// Times `k`-vector batches on copies of `plans` and reports `exec.*`,
/// `fanout.speedup` and `verify.*`. Integrity-off and sampled batches run
/// at each plan's own thread budget, as the workload runs them; times are
/// speed-adjusted by `factor`. Returns the number of verified vectors that
/// fell back to the golden CSR (the workload treats any as a failure).
pub fn measure(
    plans: &[&Prepared],
    k: usize,
    nproc: usize,
    seed: u64,
    factor: f64,
    report: &mut Report,
) -> u64 {
    let mut rng = Rng::new(seed, 0x1A7E);
    let (mut simulated, mut one, mut many, mut off, mut sampled) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut work, mut bytes, mut fallbacks) = (0.0, 0.0, 0);
    for p in plans {
        let mut p = (*p).clone();
        let xs: Vec<Vec<f32>> = (0..k).map(|_| rng.vector(p.plan.cols() as usize)).collect();
        let mut ys = vec![vec![0.0f32; p.plan.rows() as usize]; k];
        let mut ladder = |p: &mut Prepared, verify: bool| {
            p.set_integrity(policy(verify));
            median_ms(|| {
                p.execute_batch_into(&xs, &mut ys).expect("batch executes");
            })
        };
        off += ladder(&mut p, false);
        simulated += p.report().batch.as_ref().map_or(0.0, |b| b.seconds) * 1e3;
        sampled += ladder(&mut p, true);
        fallbacks += p.batch_health().iter().filter(|h| h.fallback).count() as u64;
        let mut at_budget = |threads: usize| {
            with_budget(threads, || {
                median_ms(|| {
                    p.plan.run_batch(&xs, &mut ys).expect("batch executes");
                })
            })
        };
        one += at_budget(1);
        many += at_budget(nproc);
        work += (p.encoded.nnz() * k) as f64;
        bytes += bytes_per_spmv(&p);
    }
    let n = REPS * plans.len();
    report.add("exec.batch_ms", off * factor, "ms", n);
    report.add("exec.ns_per_nnz_rhs", off * factor * 1e6 / work, "ns", n);
    report.add("exec.model_ratio", off / simulated, "ratio", n);
    report.add(
        "exec.bytes_per_spmv",
        bytes / plans.len() as f64,
        "bytes_computed",
        plans.len(),
    );
    report.add("fanout.speedup", one / many, "ratio", n);
    report.add("verify.overhead_ratio", sampled / off, "ratio", n);
    fallbacks
}
