//! `serve` and `serve_update`: closed-loop serving from a cold start.
//!
//! Sixteen in-process clients each keep one request outstanding: a client
//! submits its next request only after its previous one completed. The
//! load comes from this one thread, and the server executes on the
//! calling thread (`workers: 1`, serial plan budget), so the benchmark
//! runs one thread in all. Matrices are drawn Zipf(s = 1) over the corpus
//! in the order given, one request in four runs under
//! `IntegrityPolicy::sampled(4, _)`, and the virtual clock is advanced to
//! wall-clock microseconds before every server call, so coalescing delays
//! are real.
//!
//! Set-up is a cold start: the plans are prepared and saved as wire-v3
//! files before timing; `setup_s` then times `PlanStore::load` +
//! `SpmvServer::ingest_wire` for every matrix and one warm-up request per
//! (matrix, policy) group, which builds the lazy golden CSR.
//!
//! `serve_update` adds writes: every `UPDATE_EVERY` submits, the next
//! seeded delta goes through `SpmvServer::apply_delta` on the hot (rank 0)
//! matrix and clients switch to the returned fingerprint. `serve` applies
//! the same stream through a private server holding a copy of the hot
//! plan, a few deltas at each quiescent point, so its request loop never
//! sees a write.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use spasm::{Parallelism, Pipeline, PipelineOptions, Prepared};
use spasm_format::MatrixFingerprint;
use spasm_hw::StableBytes;
use spasm_serve::{Completion, FlushTrigger, QueueConfig, ServeError, ServerConfig, SpmvServer};
use spasm_store::PlanStore;
use spasm_workloads::{Scale, Workload};

use crate::common::{policy, same_bits, Rng, Zipf};
use crate::stats::{Ledger, Report, Series, PREPARE, SPMV};
use crate::updates::{DeltaStream, Side, UpdateTimes};
use crate::{Ctx, BLOCK, SETUP_EVERY};

pub const MATRICES: [Workload; 4] = [
    Workload::Raefsky3,
    Workload::C73,
    Workload::TmtSym,
    Workload::Cfd2,
];
const CLIENTS: usize = 16;
/// Request vectors per matrix; a request picks one at random.
const POOL: usize = 16;
const MAX_BATCH: usize = 8;
/// Coalescing delay, in ticks (µs).
const MAX_DELAY: u64 = 200;
/// `serve_update`: one delta per this many submits.
const UPDATE_EVERY: u64 = 32;
/// Every completion whose request id is a multiple of this is checked.
const CHECK_EVERY: u64 = 4;
/// The hot matrix: Zipf rank 0.
const HOT: usize = 0;

struct Member {
    fresh: Prepared,
    fp: MatrixFingerprint,
    xs: Vec<Vec<f32>>,
    /// Batch-1 `Prepared::execute` outputs for `xs`: the server's contract.
    refs: Vec<Vec<f32>>,
}

struct Flight {
    client: usize,
    m: usize,
    v: usize,
    sampled: bool,
    t0: Instant,
    /// Deltas applied to the hot matrix when the request was submitted.
    version: usize,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        queue: QueueConfig {
            max_batch: MAX_BATCH,
            max_delay: MAX_DELAY,
            ..QueueConfig::default()
        },
        workers: 1,
        ..ServerConfig::default()
    }
}

/// A working directory for the plan store, inside the current directory and removed on drop.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(tag: &str) -> StoreDir {
        StoreDir(PathBuf::from(".perfbench_tmp").join(format!("{}-{tag}", std::process::id())))
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// Set-up times of one cold start, in ms: load, ingest, warm-up.
type ColdStart = [f64; 3];

fn cold_start(
    store: &PlanStore,
    members: &[Member],
    ledger: &mut Ledger,
) -> (SpmvServer, ColdStart) {
    let pipeline =
        Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Serial));
    let server = SpmvServer::with_pipeline(server_config(), pipeline);
    let (mut load, mut ingest) = (0.0, 0.0);
    for m in members {
        let t0 = Instant::now();
        let frozen = store.load(&m.fp).expect("stored plan loads");
        let t1 = Instant::now();
        let fp = server
            .ingest_wire(frozen.buffer().bytes())
            .expect("stored plan ingests");
        let t2 = Instant::now();
        assert_eq!(fp, m.fp, "the stored plan keeps its fingerprint");
        load += (t1 - t0).as_secs_f64() * 1e3;
        ingest += (t2 - t1).as_secs_f64() * 1e3;
    }
    let t0 = Instant::now();
    let mut warm = Vec::new();
    for m in members {
        for sampled in [false, true] {
            let (_, mut done) = server
                .submit(m.fp, m.xs[0].clone(), policy(sampled))
                .expect("warm-up request is admitted");
            done.extend(server.drain());
            warm.push(done);
        }
    }
    let warmup = t0.elapsed().as_secs_f64() * 1e3;
    for (done, m) in warm.iter().zip(members.iter().flat_map(|m| [m, m])) {
        ledger.attempted += 1;
        match done.as_slice() {
            [Completion {
                result: Ok(out), ..
            }] if same_bits(&out.y, &m.refs[0]) => ledger.ok(),
            _ => ledger.fail("warm-up request did not match batch-1 execute"),
        }
    }
    (server, [load, ingest, warmup])
}

/// Timed cold starts: the time of each, and of its phases.
struct ColdStarts {
    total: Series,
    /// Load, ingest and warm-up, in ms.
    phases: [Series; 3],
    last: Instant,
}

impl Default for ColdStarts {
    fn default() -> ColdStarts {
        ColdStarts {
            total: Series::default(),
            phases: Default::default(),
            last: Instant::now(),
        }
    }
}

impl ColdStarts {
    fn run(&mut self, store: &PlanStore, members: &[Member], ledger: &mut Ledger) -> SpmvServer {
        let t0 = Instant::now();
        let (server, times) = cold_start(store, members, ledger);
        self.total.push(t0.elapsed().as_secs_f64());
        for (series, t) in self.phases.iter_mut().zip(times) {
            series.push(t);
        }
        self.last = Instant::now();
        server
    }
}

/// Per-layer serving spans and counters of the traced run.
#[derive(Default)]
struct ServeTrace {
    submit_us: Series,
    flush_ms: Series,
    batches: usize,
    batched_requests: usize,
    deadline_flushes: usize,
    /// Executor time of the flushed batches, from the calibration table.
    exec_ms: f64,
    /// `calib[m][sampled][b]`: median executor time of a b-vector batch.
    calib: Vec<[[f64; MAX_BATCH + 1]; 2]>,
}

impl ServeTrace {
    /// Times `execute_batch_into` on every served plan, per policy and
    /// batch size, so flush spans can be split into executor time and
    /// serving overhead. Repetitions go round the whole table, so each
    /// cell's median spans the calibration's length of host phases.
    fn calibrate(
        server: &SpmvServer,
        members: &[Member],
        fps: &[MatrixFingerprint],
    ) -> Vec<[[f64; MAX_BATCH + 1]; 2]> {
        const REPS: usize = 5;
        let mut times = vec![[[[0.0; REPS]; MAX_BATCH + 1]; 2]; members.len()];
        for rep in 0..REPS {
            for ((m, &fp), cells) in members.iter().zip(fps).zip(&mut times) {
                for (s, row) in cells.iter_mut().enumerate() {
                    for (b, cell) in row.iter_mut().enumerate().skip(1) {
                        let mut ys = vec![vec![0.0f32; m.refs[0].len()]; b];
                        cell[rep] = server
                            .with_prepared(fp, |p| {
                                p.set_integrity(policy(s == 1));
                                let t0 = Instant::now();
                                p.execute_batch_into(&m.xs[..b], &mut ys)
                                    .expect("calibration batch executes");
                                t0.elapsed().as_secs_f64() * 1e3
                            })
                            .expect("served plan is resident");
                    }
                }
            }
        }
        times
            .iter()
            .map(|cells| cells.map(|row| row.map(|t| crate::stats::median(&t))))
            .collect()
    }
}

pub fn run(ctx: &mut Ctx, report: &mut Report, traced: bool, updates: bool) -> Ledger {
    let seconds = ctx.seconds;
    run_on(ctx, report, &MATRICES, seconds, traced, updates)
}

/// Runs the closed serving loop over `corpus` for `seconds`.
pub fn run_on(
    ctx: &mut Ctx,
    report: &mut Report,
    corpus: &[Workload],
    seconds: Duration,
    traced: bool,
    updates: bool,
) -> Ledger {
    let mut ledger = Ledger::default();
    let seed = ctx.seed;
    let mut rng = Rng::new(seed, 0x5E7E);

    // Untimed pre-step: prepare, compute the reference outputs, save v3.
    let store_dir = StoreDir::new(if updates { "serve_update" } else { "serve" });
    let store = PlanStore::open(&store_dir.0).expect("plan store directory is writable");
    let pipeline = Pipeline::with_options(
        PipelineOptions::default().parallelism(Parallelism::Threads(ctx.nproc)),
    );
    let coos: Vec<_> = corpus.iter().map(|w| w.generate(Scale::Medium)).collect();
    let members: Vec<Member> = coos
        .iter()
        .map(|coo| {
            let mut fresh = pipeline.prepare(coo).expect("corpus matrix prepares");
            let (rows, cols) = (fresh.plan.rows() as usize, fresh.plan.cols() as usize);
            let xs: Vec<Vec<f32>> = (0..POOL).map(|_| rng.vector(cols)).collect();
            let refs = xs
                .iter()
                .map(|x| {
                    let mut y = vec![0.0; rows];
                    fresh.execute(x, &mut y).expect("reference executes");
                    y
                })
                .collect();
            Member {
                fp: fresh.encoded.fingerprint(),
                fresh,
                xs,
                refs,
            }
        })
        .collect();
    let prepared_at = Instant::now();
    let mut wire_bytes = 0usize;
    for m in &members {
        let path = store
            .save(&m.fresh.encoded, &m.fresh.plan)
            .expect("plan saves");
        wire_bytes += std::fs::metadata(path).map_or(0, |md| md.len() as usize);
    }

    // Timed set-up: a cold start here, whose server serves, and more
    // during the run; the median counts.
    let mut setup = ColdStarts::default();
    ctx.meter.probe();
    let server = setup.run(&store, &members, &mut ledger);
    let mut fps: Vec<MatrixFingerprint> = members.iter().map(|m| m.fp).collect();
    let mut nnz: Vec<f64> = members
        .iter()
        .map(|m| m.fresh.encoded.nnz() as f64)
        .collect();

    let mut trace = ServeTrace::default();
    if traced {
        trace.calib = ServeTrace::calibrate(&server, &members, &fps);
    }

    // The hot matrix's delta stream: applied through the serving server
    // (`serve_update`) or through a private server's copy of the hot plan
    // (`serve`).
    let mut deltas = DeltaStream::new(&coos[HOT], seed);
    let mut times = UpdateTimes::default();
    let mut side = (!updates).then(|| Side::new(&members[HOT].fresh));
    // The lockstep reference for hot-matrix outputs under `serve_update`:
    // a plan built like the served one, brought forward delta by delta.
    let mut lockstep = server
        .with_prepared(fps[HOT], |p| p.clone())
        .expect("resident");
    let mut lockstep_at = 0usize;

    let zipf = Zipf::new(members.len());
    let mut books = Books {
        flights: HashMap::new(),
        idle: (0..CLIENTS).rev().collect(),
        latency: Series::default(),
        waits: Vec::new(),
        ledger,
        flops: 0.0,
        fallbacks: 0,
        stash: Vec::new(),
        spare: vec![Vec::new(); members.len()],
    };
    // Useful work over wall time, per measured block.
    let mut rates = Series::default();
    let mut submits = 0u64;
    // Deltas the server has applied to the hot matrix.
    let mut hot_version = 0usize;
    let base = server.now();
    let origin = Instant::now();
    let tick = |at: Instant| base + (at - origin).as_micros() as u64;

    while origin.elapsed() < seconds {
        let block_t0 = Instant::now();
        let block_end = block_t0 + BLOCK;
        let block_flops = books.flops;
        loop {
            let submitting = Instant::now() < block_end;
            if !submitting && books.flights.is_empty() {
                break;
            }
            // Every idle client acts now: set the clock (arrivals are
            // stamped with it), then submit. A submit that fills a batch
            // runs it at once and may free more clients.
            if submitting {
                server.clock().advance_to(tick(Instant::now()));
            }
            // A refused client waits for the next pass (none is expected:
            // refusals count against the run).
            let mut parked = Vec::new();
            while let Some(client) = books.idle.pop().filter(|_| submitting) {
                if updates && submits % UPDATE_EVERY == UPDATE_EVERY - 1 {
                    let (times, ledger) = (&mut times, &mut books.ledger);
                    if deltas.apply_next(&server, &mut fps[HOT], times, ledger) {
                        hot_version += 1;
                        nnz[HOT] = server
                            .with_prepared(fps[HOT], |p| p.encoded.nnz() as f64)
                            .unwrap_or(nnz[HOT]);
                    }
                }
                submits += 1;
                let m = zipf.sample(&mut rng);
                let v = rng.below(POOL);
                let sampled = rng.below(4) == 0;
                let mut x = books.spare[m].pop().unwrap_or_default();
                x.clear();
                x.extend_from_slice(&members[m].xs[v]);
                books.ledger.attempted += 1;
                let t0 = Instant::now();
                match server.submit(fps[m], x, policy(sampled)) {
                    Ok((id, done)) => {
                        let span = t0.elapsed();
                        let flight = Flight {
                            client,
                            m,
                            v,
                            sampled,
                            t0,
                            version: hot_version,
                        };
                        books.flights.insert(id, flight);
                        if traced {
                            if done.is_empty() {
                                trace.submit_us.push(span.as_secs_f64() * 1e6);
                            } else {
                                let ms = span.as_secs_f64() * 1e3;
                                trace.flush(&server, &fps, &books.flights, ms);
                            }
                        }
                        books.complete(done, &nnz, hot_version);
                    }
                    Err(e) => {
                        if let ServeError::Rejected(r) = e {
                            books.ledger.rejected += 1;
                            eprintln!("perfbench: request rejected: {r}");
                        } else {
                            books.ledger.fail(&format!("submit: {e}"));
                        }
                        parked.push(client);
                    }
                }
            }
            books.idle.append(&mut parked);
            // Run whatever batches are due by now.
            let t0 = Instant::now();
            let done = server.advance_to(tick(t0));
            if !done.is_empty() {
                if traced {
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    trace.flush(&server, &fps, &books.flights, ms);
                }
                books.complete(done, &nnz, hot_version);
            }
        }
        // Quiescent: nothing queued, no request in flight.
        let block_s = block_t0.elapsed().as_secs_f64();
        rates.push((books.flops - block_flops) / block_s / 1e9);
        if let Some(side) = side.as_mut() {
            deltas.apply_side(side, &mut times, &mut books.ledger);
        }
        server.clear_batch_log();
        ctx.meter.probe();
        if setup.last.elapsed() >= SETUP_EVERY {
            drop(setup.run(&store, &members, &mut books.ledger));
        }

        // Check the stashed outputs: against the batch-1 references, or
        // for the hot matrix after deltas, against the lockstep plan.
        books.stash.sort_by_key(|s| (s.2, s.0));
        for (m, v, version, y) in std::mem::take(&mut books.stash) {
            let want = if m == HOT && version > 0 {
                while lockstep_at < version {
                    lockstep
                        .apply_delta(deltas.delta(lockstep_at))
                        .expect("lockstep plan takes the delta");
                    lockstep_at += 1;
                }
                let mut want = vec![0.0; y.len()];
                lockstep
                    .execute(&members[m].xs[v], &mut want)
                    .expect("lockstep plan executes");
                want
            } else {
                members[m].refs[v].clone()
            };
            if !same_bits(&y, &want) {
                books.ledger.succeeded -= 1;
                books
                    .ledger
                    .fail("served output differs from batch-1 execute");
            }
        }
    }
    let Books {
        latency,
        waits,
        ledger,
        mut fallbacks,
        ..
    } = books;

    // After the deltas: the updated plan must match a fresh prepare
    // of the matrix the deltas produced.
    let (writer, hot_fp) = match &side {
        Some(side) => (&side.server, side.fp),
        None => (&server, fps[HOT]),
    };
    if !deltas.matches_fresh(writer, hot_fp, &members[HOT].xs[0], ctx.nproc) {
        ctx.correct = false;
        eprintln!("perfbench: delta-updated plan differs from a fresh prepare");
    }
    let stats = server.overload_stats();
    if stats != Default::default() {
        ctx.correct = false;
        eprintln!("perfbench: overload counters moved in a non-overload workload: {stats:?}");
    }
    let meter = &ctx.meter;
    if traced {
        let mut stages = [0.0; 6];
        for m in &members {
            for (s, v) in stages
                .iter_mut()
                .zip(crate::solve::stage_ms(&m.fresh.timings))
            {
                *s += v;
            }
        }
        for (name, v) in crate::solve::STAGES.iter().zip(stages) {
            report.add(
                name,
                v * meter.factor_at(prepared_at).powf(PREPARE),
                "ms",
                1,
            );
        }
        for (name, s) in ["store.load_ms", "store.ingest_wire_ms", "store.warmup_ms"]
            .iter()
            .zip(&setup.phases)
        {
            report.add(name, meter.adjust(s, PREPARE).median(), "ms", s.len());
        }
        report.add(
            "store.wire_bytes",
            wire_bytes as f64,
            "bytes",
            members.len(),
        );
        let plans: Vec<Prepared> = fps
            .iter()
            .map(|&fp| server.with_prepared(fp, |p| p.clone()).expect("resident"))
            .collect();
        let plans: Vec<&Prepared> = plans.iter().collect();
        let factor = meter.factor_at(Instant::now());
        fallbacks += crate::layers::measure(&plans, MAX_BATCH, ctx.nproc, seed, factor, report);
    }
    if fallbacks > 0 {
        ctx.correct = false;
        eprintln!("perfbench: {fallbacks} sampled requests fell back to the golden CSR");
    }

    let n = latency.len();
    let total = &setup.total;
    report.adjusted("setup_s", "s", total, meter, PREPARE, Series::median);
    report.adjusted("gflops", "GFLOP/s", &rates, meter, -SPMV, Series::median);
    crate::report_latency(report, &latency, meter);
    crate::report_updates(report, &times, meter, traced);
    if traced {
        report.add("verify.fallbacks", fallbacks as f64, "count", n);
        let (submits, flushes) = (&trace.submit_us, &trace.flush_ms);
        report.add(
            "serve.submit_us",
            meter.adjust(submits, SPMV).median(),
            "us",
            submits.len(),
        );
        report.add(
            "serve.flush_ms",
            meter.adjust(flushes, SPMV).median(),
            "ms",
            flushes.len(),
        );
        let waits: Vec<f64> = waits
            .iter()
            .map(|&(ms, m, sampled, b)| ms - trace.calib[m][sampled as usize][b.min(MAX_BATCH)])
            .collect();
        let wait = crate::stats::median(&waits);
        let factor = meter.factor_at(Instant::now());
        report.add("serve.queue_wait_ms", wait * factor, "ms", waits.len());
        report.add(
            "serve.batch_size_mean",
            trace.batched_requests as f64 / trace.batches as f64,
            "requests",
            trace.batches,
        );
        report.add(
            "serve.deadline_flush_share",
            trace.deadline_flushes as f64 / trace.batches as f64,
            "share",
            trace.batches,
        );
        report.add(
            "serve.overhead_share",
            1.0 - trace.exec_ms / trace.flush_ms.sum(),
            "share",
            trace.flush_ms.len(),
        );
    }
    drop(server);
    drop(store);
    drop(store_dir);
    ledger
}

impl ServeTrace {
    /// Records one call that executed batches: its span, and the batches
    /// it ran (from the server's batch log, cleared afterwards).
    fn flush(
        &mut self,
        server: &SpmvServer,
        fps: &[MatrixFingerprint],
        flights: &HashMap<u64, Flight>,
        ms: f64,
    ) {
        self.flush_ms.push(ms);
        for record in server.batch_log() {
            // A batch keyed by a superseded hot fingerprint ran on the
            // hot plan.
            let m = fps
                .iter()
                .position(|fp| *fp == record.fingerprint)
                .unwrap_or(HOT);
            let sampled = record
                .request_ids
                .first()
                .and_then(|id| flights.get(id))
                .is_some_and(|f| f.sampled);
            let b = record.request_ids.len().min(MAX_BATCH);
            self.exec_ms += self.calib[m][sampled as usize][b];
            self.batches += 1;
            self.batched_requests += record.request_ids.len();
            if record.trigger == FlushTrigger::Deadline {
                self.deadline_flushes += 1;
            }
        }
        server.clear_batch_log();
    }
}

/// The request loop's bookkeeping.
struct Books {
    flights: HashMap<u64, Flight>,
    idle: Vec<usize>,
    latency: Series,
    /// Per completed request: latency (ms), matrix, policy and batch size.
    /// The traced run reports latency minus the batch's executor time as
    /// the request's wait: in the queue, and behind other batches on the
    /// one executing thread.
    waits: Vec<(f64, usize, bool, usize)>,
    ledger: Ledger,
    /// Useful work served: 2·nnz per completed vector.
    flops: f64,
    fallbacks: u64,
    /// Outputs to check at the next quiescent point: (matrix, vector,
    /// hot-matrix version, y).
    stash: Vec<(usize, usize, usize, Vec<f32>)>,
    /// Output vectors kept to carry later requests of the same (square)
    /// matrix, so the client side allocates nothing per request.
    spare: Vec<Vec<Vec<f32>>>,
}

impl Books {
    /// Completes requests: latency sample, client back to idle, one ledger
    /// entry each; every `CHECK_EVERY`-th output is kept for checking
    /// unless a delta landed on its matrix while it was in flight.
    fn complete(&mut self, done: Vec<Completion>, nnz: &[f64], version: usize) {
        let now = Instant::now();
        for c in done {
            let Some(f) = self.flights.remove(&c.id) else {
                self.ledger.fail("completion for an unknown request");
                continue;
            };
            let ms = (now - f.t0).as_secs_f64() * 1e3;
            self.latency.push(ms);
            self.idle.push(f.client);
            match c.result {
                Ok(out) => {
                    self.ledger.ok();
                    self.flops += 2.0 * nnz[f.m];
                    self.waits.push((ms, f.m, f.sampled, out.batch_size));
                    if out.health.fallback {
                        self.fallbacks += 1;
                    }
                    if c.id % CHECK_EVERY == 0 && (f.m != HOT || f.version == version) {
                        self.stash.push((f.m, f.v, f.version, out.y));
                    } else {
                        self.spare[f.m].push(out.y);
                    }
                }
                Err(ServeError::Rejected(r)) => {
                    self.ledger.rejected += 1;
                    eprintln!("perfbench: request shed: {r}");
                }
                Err(e) => self.ledger.fail(&format!("request failed: {e}")),
            }
        }
    }
}
