//! `solve`: a multi-RHS iterative-solver loop on two prepared matrices.
//!
//! One solver step applies both operators (`raefsky3`, dense 4×4 FEM
//! blocks, and `tmt_sym`, stencil diagonals with many partial template
//! instances) to k = 16 right-hand sides each through
//! `Prepared::execute_batch_into` on one thread, then forms the next
//! iterate `x = b + y / (2·max|y|)` from the product and a fixed
//! right-hand side `b`. Adding `b` keeps every entry of order
//! one: a plain power iteration drives most entries towards zero, and
//! subnormal floats slowed its steps fivefold within thirty seconds. Only
//! the `execute_batch_into` calls are timed; the iterate update is the
//! benchmark's own work. Both operators share each step so the step time
//! is one distribution, not a mix of two.
//!
//! Prepare and the solver steps run serially: on a shared host a
//! two-thread plan waits at every join for whichever core a neighbour
//! slowed most, and its run-to-run spread went past the benchmark's
//! bounds where the serial workloads stayed within them. The fan-out is
//! measured on the traced run by `fanout.speedup`, and each checked step
//! is compared bit for bit with the same plan at a budget of `nproc`.

use std::time::{Duration, Instant};

use spasm::{Parallelism, Pipeline, PipelineOptions, Prepared, StageTimings};
use spasm_sparse::Coo;
use spasm_workloads::{Scale, Workload};

use crate::common::{near_reference, same_bits, with_budget, Rng};
use crate::stats::{Ledger, Report, Series, PREPARE, SPMV};
use crate::updates::{DeltaStream, Side, UpdateTimes};
use crate::{Ctx, BLOCK, SETUP_EVERY};

const K: usize = 16;
/// Length of the serving run that measures the store and serving layers on
/// this workload's matrices (traced run only).
const SIDE_SERVE: Duration = Duration::from_secs(1);
const MATRICES: [Workload; 2] = [Workload::Raefsky3, Workload::TmtSym];

struct Operator {
    prepared: Prepared,
    bs: Vec<Vec<f32>>,
    xs: Vec<Vec<f32>>,
    ys: Vec<Vec<f32>>,
    nnz: usize,
}

impl Operator {
    /// `ys = A·xs`; returns the time of the `execute_batch_into` call.
    fn execute(&mut self) -> f64 {
        let t0 = Instant::now();
        self.prepared
            .execute_batch_into(&self.xs, &mut self.ys)
            .expect("solver batch executes");
        t0.elapsed().as_secs_f64()
    }

    /// `x = b + y / (2·max|y|)` for each vector, then `ys = 0` for the
    /// next product (`execute_batch_into` accumulates).
    fn advance(&mut self) {
        for ((x, y), b) in self.xs.iter_mut().zip(&mut self.ys).zip(&self.bs) {
            let norm = y.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = if norm > 0.0 { 0.5 / norm } else { 0.0 };
            for ((xi, yi), bi) in x.iter_mut().zip(y.iter()).zip(b) {
                *xi = bi + yi * scale;
            }
            y.fill(0.0);
        }
    }
}

/// The six prepare stage timings of Table VIII, in ms.
pub fn stage_ms(t: &StageTimings) -> [f64; 6] {
    [
        t.analysis,
        t.selection,
        t.decomposition,
        t.schedule,
        t.encode,
        t.plan,
    ]
    .map(|d: Duration| d.as_secs_f64() * 1e3)
}

/// Set-up repetitions: the time of each, and its prepare stages summed
/// over the matrices.
struct SetupTimes {
    total: Series,
    stages: [Series; 6],
    last: Instant,
}

impl Default for SetupTimes {
    fn default() -> SetupTimes {
        SetupTimes {
            total: Series::default(),
            stages: Default::default(),
            last: Instant::now(),
        }
    }
}

impl SetupTimes {
    /// Prepares every matrix, timed as one set-up.
    fn prepare(&mut self, pipeline: &Pipeline, matrices: &[Coo]) -> Vec<Prepared> {
        let t0 = Instant::now();
        let prepared: Vec<Prepared> = matrices
            .iter()
            .map(|m| pipeline.prepare(m).expect("solver matrix prepares"))
            .collect();
        self.total.push(t0.elapsed().as_secs_f64());
        let mut sum = [0.0; 6];
        for p in &prepared {
            for (s, v) in sum.iter_mut().zip(stage_ms(&p.timings)) {
                *s += v;
            }
        }
        for (series, v) in self.stages.iter_mut().zip(sum) {
            series.push(v);
        }
        self.last = Instant::now();
        prepared
    }
}

pub const STAGES: [&str; 6] = [
    "prepare.analysis_ms",
    "prepare.selection_ms",
    "prepare.decomposition_ms",
    "prepare.schedule_ms",
    "prepare.encode_ms",
    "prepare.plan_ms",
];

pub fn run(ctx: &mut Ctx, report: &mut Report, traced: bool) -> Ledger {
    let mut ledger = Ledger::default();
    let matrices: Vec<_> = MATRICES.iter().map(|w| w.generate(Scale::Medium)).collect();
    let pipeline =
        Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Serial));

    // Set-up: prepare both operators, here and again during the run; the
    // median counts.
    let mut setup = SetupTimes::default();
    ctx.meter.probe();
    let prepared = setup.prepare(&pipeline, &matrices);
    let mut rng = Rng::new(ctx.seed, 0x501E);
    let mut ops: Vec<Operator> = prepared
        .into_iter()
        .map(|p| {
            let (rows, cols) = (p.plan.rows() as usize, p.plan.cols() as usize);
            let bs: Vec<Vec<f32>> = (0..K).map(|_| rng.vector(cols)).collect();
            Operator {
                nnz: p.encoded.nnz(),
                xs: bs.clone(),
                bs,
                ys: vec![vec![0.0; rows]; K],
                prepared: p,
            }
        })
        .collect();
    let flops_per_step: f64 = ops.iter().map(|o| (2 * o.nnz * K) as f64).sum();

    // Streaming updates through a private server holding a copy of the
    // first operator, at each quiescent point: this workload reports delta
    // latency on the `SpmvServer::apply_delta` path `serve_update` drives,
    // without its solver loop touching a mutated plan.
    let mut side = Side::new(&ops[0].prepared);
    let mut deltas = DeltaStream::new(&matrices[0], ctx.seed);
    let mut updates = UpdateTimes::default();

    let mut steps = Series::default();
    // Useful work over wall time, per measured block.
    let mut rates = Series::default();
    let start = Instant::now();
    while start.elapsed() < ctx.seconds {
        // The first step of each block is checked: every vector against the
        // same plan at budget `nproc`, the first against the golden CSR.
        let inputs: Vec<Vec<Vec<f32>>> = ops.iter().map(|o| o.xs.clone()).collect();
        let block_end = Instant::now() + BLOCK;
        let (mut block_s, mut block_steps) = (0.0, 0.0);
        let mut first = true;
        while first || Instant::now() < block_end {
            let dt: f64 = ops.iter_mut().map(Operator::execute).sum();
            ledger.attempted += 1;
            steps.push(dt * 1e3);
            block_s += dt;
            block_steps += 1.0;
            if first {
                first = false;
                let ok = ops.iter_mut().zip(&inputs).all(|(op, xs)| {
                    let mut one = vec![vec![0.0f32; op.ys[0].len()]; K];
                    with_budget(ctx.nproc, || op.prepared.plan.run_batch(xs, &mut one))
                        .expect("budget-nproc batch executes");
                    op.ys.iter().zip(&one).all(|(y, y1)| same_bits(y, y1))
                        && near_reference(op.prepared.golden(), &xs[0], &op.ys[0])
                });
                if ok {
                    ledger.ok();
                } else {
                    ledger.fail("solver step differs from the budget-nproc plan or the golden CSR");
                }
            } else {
                ledger.ok();
            }
            for op in &mut ops {
                op.advance();
            }
        }
        rates.push(flops_per_step * block_steps / block_s / 1e9);
        deltas.apply_side(&mut side, &mut updates, &mut ledger);
        ctx.meter.probe();
        if setup.last.elapsed() >= SETUP_EVERY {
            setup.prepare(&pipeline, &matrices);
        }
    }
    let x = Rng::new(ctx.seed, 0xF4E5).vector(ops[0].prepared.plan.cols() as usize);
    if !deltas.matches_fresh(&side.server, side.fp, &x, ctx.nproc) {
        ctx.correct = false;
        eprintln!("perfbench: delta-updated plan differs from a fresh prepare");
    }

    if traced {
        let plans: Vec<&Prepared> = ops.iter().map(|o| &o.prepared).collect();
        let factor = ctx.meter.factor_at(Instant::now());
        let fallbacks = crate::layers::measure(&plans, K, ctx.nproc, ctx.seed, factor, report);
        report.add("verify.fallbacks", fallbacks as f64, "count", 1);
        if fallbacks > 0 {
            ctx.correct = false;
            eprintln!("perfbench: {fallbacks} sampled vectors fell back to the golden CSR");
        }
        for (name, series) in STAGES.iter().zip(&setup.stages) {
            let ms = ctx.meter.adjust(series, PREPARE).median();
            report.add(name, ms, "ms", series.len());
        }
        // The store and serving layers, which this workload bypasses,
        // measured on its own two matrices by a short serving run.
        let mut served = Report::default();
        let side = crate::serve::run_on(ctx, &mut served, &MATRICES, SIDE_SERVE, true, false);
        ledger.absorb(side);
        for m in served.metrics {
            if m.name.starts_with("store.") || m.name.starts_with("serve.") {
                report.metrics.push(m);
            }
        }
    }

    let SetupTimes { total, .. } = setup;
    let meter = &ctx.meter;
    report.adjusted("setup_s", "s", &total, meter, PREPARE, Series::median);
    report.adjusted("gflops", "GFLOP/s", &rates, meter, -SPMV, Series::median);
    crate::report_latency(report, &steps, meter);
    crate::report_updates(report, &updates, meter, traced);
    ledger
}
