//! The seeded delta stream applied to the hot matrix, its independent
//! shadow copy, and the fresh oracle.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use spasm::{DeltaOutcome, IntegrityPolicy, Parallelism, Pipeline, PipelineOptions, Prepared};
use spasm_format::MatrixFingerprint;
use spasm_serve::{Completion, ServerConfig, SpmvServer};
use spasm_sparse::{Coo, DeltaOp, MatrixDelta};
use spasm_store::save_v3;
use spasm_workloads::{changesets, ChangesetConfig};

use crate::common::{policy, same_bits};
use crate::stats::{Ledger, Series};

/// Small deltas generated up front; more than any run applies.
const SMALL_DELTAS: usize = 2500;
/// One small delta in this many is structural (inserts and deletes), the
/// rest values-only (patches). The op count and the two kinds are the
/// repository's own: `ChangesetConfig::default()` (16 ops) narrowed by
/// `values_only()` or `structural_only()`, as the `matrix_updates` bench
/// uses them. The 3:1 ratio is this benchmark's choice of "mostly
/// values-only": the all-delta median stays a patch, and structural
/// deltas are frequent enough for a median of their own.
const STRUCTURAL_EVERY: usize = 4;
/// Deltas per quiescent point where the request loop takes no writes:
/// two structural deltas among them, so a run has about as many structural
/// samples as `serve_update` does.
const SIDE_DELTAS: usize = 2 * STRUCTURAL_EVERY;

/// What a delta in the stream was generated as.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Values,
    Structural,
    /// A large structural change past the drift threshold.
    Drift,
}

/// Latencies of applied deltas, split by outcome.
#[derive(Default)]
pub struct UpdateTimes {
    pub all: Series,
    /// Small structural deltas, whatever their outcome.
    pub small_structural: Series,
    pub values: Series,
    pub structural: Series,
    pub reprepare: Series,
}

impl UpdateTimes {
    fn record(&mut self, kind: Kind, outcome: &DeltaOutcome, ms: f64) {
        self.all.push(ms);
        if kind == Kind::Structural {
            self.small_structural.push(ms);
        }
        match outcome {
            DeltaOutcome::Patched { .. } => self.values.push(ms),
            DeltaOutcome::Spliced { .. } => self.structural.push(ms),
            _ => self.reprepare.push(ms),
        }
    }
}

/// A private server holding a copy of the hot plan, for workloads whose
/// request loop takes no writes.
pub struct Side {
    pub server: SpmvServer,
    pub fp: MatrixFingerprint,
    x: Vec<f32>,
}

impl Side {
    /// Ingests `hot` as wire v3, as the serving workloads' cold start does.
    pub fn new(hot: &Prepared) -> Side {
        let bytes = save_v3(&hot.encoded, &hot.plan).expect("hot plan freezes");
        let pipeline =
            Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Serial));
        let server = SpmvServer::with_pipeline(ServerConfig::default(), pipeline);
        let fp = server.ingest_wire(&bytes).expect("hot plan ingests");
        let x = vec![1.0; hot.plan.cols() as usize];
        Side { server, fp, x }
    }

    /// One verified read of the plan, as `serve_update`'s traffic makes
    /// between writes. A splice leaves the golden CSR stale; the read
    /// rebuilds it, so the next delta does not pay for that.
    fn read(&self, ledger: &mut Ledger) {
        ledger.attempted += 1;
        match self.server.submit(self.fp, self.x.clone(), policy(true)) {
            Ok((_, mut done)) => {
                done.extend(self.server.drain());
                match done.as_slice() {
                    [Completion { result: Ok(_), .. }] => ledger.ok(),
                    _ => ledger.fail("read between deltas did not complete"),
                }
            }
            Err(e) => ledger.fail(&format!("read between deltas: {e}")),
        }
    }
}

/// The hot matrix's delta sequence. Two deltas, at seeded positions, are
/// large structural changes that touch far more than the drift threshold
/// of the matrix's 4×4 submatrices, so they fall back to re-prepare.
pub struct DeltaStream {
    deltas: Vec<MatrixDelta>,
    kinds: Vec<Kind>,
    next: usize,
    /// The matrix as the applied deltas left it, kept independently of the
    /// library.
    shadow: BTreeMap<(u32, u32), f32>,
    rows: u32,
    cols: u32,
}

/// Positions of the two drift deltas for `seed`. Early in the stream, so
/// every run, each half of a traced run included, applies both and the
/// re-prepare count repeats exactly per seed.
fn drift_positions(seed: u64) -> [usize; 2] {
    [1 + (seed % 3) as usize, 4 + (seed / 3 % 3) as usize]
}

/// The kind of every delta in the stream: the drift deltas at their
/// positions, and among the small ones every `STRUCTURAL_EVERY`-th
/// structural.
fn kinds(seed: u64) -> Vec<Kind> {
    let drift = drift_positions(seed);
    let mut small = 0;
    (0..SMALL_DELTAS + drift.len())
        .map(|i| {
            if drift.contains(&i) {
                return Kind::Drift;
            }
            small += 1;
            if small % STRUCTURAL_EVERY == 0 {
                Kind::Structural
            } else {
                Kind::Values
            }
        })
        .collect()
}

impl DeltaStream {
    pub fn new(matrix: &Coo, seed: u64) -> DeltaStream {
        let kinds = kinds(seed);
        let small = ChangesetConfig::default();
        let initial: BTreeMap<(u32, u32), f32> = matrix
            .iter()
            .filter(|&(_, _, v)| v != 0.0)
            .map(|(r, c, v)| ((r, c), v))
            .collect();
        let (rows, cols) = (matrix.rows(), matrix.cols());

        // The structural deltas, in order, each generated against the
        // structure the ones before it left: runs of small ones between
        // the drift deltas.
        let mut state = initial.clone();
        let mut structural = Vec::new();
        let mut run = 0;
        for (k, kind) in kinds.iter().enumerate() {
            let drift = *kind == Kind::Drift;
            run += usize::from(*kind == Kind::Structural);
            if !drift && k + 1 < kinds.len() {
                continue;
            }
            let current = to_coo(&state, rows, cols);
            let config = ChangesetConfig {
                deltas: run,
                ..small.structural_only()
            };
            for (_, d) in changesets(&current, seed ^ ((k as u64 + 1) * 0x9E37), &config) {
                apply(&mut state, &d);
                structural.push(d);
            }
            run = 0;
            if drift {
                // One op per 32 nonzeros: several thousand cells spread
                // over the matrix, well past a quarter of its occupied
                // submatrices.
                let current = to_coo(&state, rows, cols);
                let config = ChangesetConfig {
                    deltas: 1,
                    ops_per_delta: current.nnz() / 32,
                    ..small.structural_only()
                };
                for (_, d) in changesets(&current, seed ^ 0xD21F7 ^ k as u64, &config) {
                    apply(&mut state, &d);
                    structural.push(d);
                }
            }
        }

        // The values-only deltas patch cells that no structural delta
        // deletes, so each is valid wherever it falls in the stream.
        let deleted: BTreeSet<(u32, u32)> = structural
            .iter()
            .flat_map(|d| d.ops())
            .filter_map(|op| match *op {
                DeltaOp::Delete { row, col } => Some((row, col)),
                _ => None,
            })
            .collect();
        let mut stable = initial.clone();
        stable.retain(|cell, _| !deleted.contains(cell));
        let config = ChangesetConfig {
            deltas: kinds.iter().filter(|&&k| k == Kind::Values).count(),
            ..small.values_only()
        };
        let mut values = changesets(&to_coo(&stable, rows, cols), seed ^ 0x7A11, &config)
            .into_iter()
            .map(|(_, d)| d);
        let mut structural = structural.into_iter();
        let deltas = kinds
            .iter()
            .map(|&kind| {
                let next = match kind {
                    Kind::Values => values.next(),
                    _ => structural.next(),
                };
                next.expect("one generated delta per position")
            })
            .collect();
        DeltaStream {
            deltas,
            kinds,
            next: 0,
            shadow: initial,
            rows,
            cols,
        }
    }

    /// The next delta, or `None` once the stream is exhausted.
    pub fn peek(&self) -> Option<&MatrixDelta> {
        self.deltas.get(self.next)
    }

    /// Marks the delta returned by `peek` as applied.
    pub fn advance(&mut self) {
        if let Some(d) = self.deltas.get(self.next) {
            apply(&mut self.shadow, d);
            self.next += 1;
        }
    }

    pub fn delta(&self, i: usize) -> &MatrixDelta {
        &self.deltas[i]
    }

    /// Applies the next delta through `server` to the plan keyed by `fp`,
    /// timing the call; on success `fp` becomes the returned fingerprint.
    /// Returns `false` once the stream is exhausted.
    pub fn apply_next(
        &mut self,
        server: &SpmvServer,
        fp: &mut MatrixFingerprint,
        times: &mut UpdateTimes,
        ledger: &mut Ledger,
    ) -> bool {
        let Some(delta) = self.peek().cloned() else {
            return false;
        };
        ledger.attempted += 1;
        let t0 = Instant::now();
        let applied = server.apply_delta(fp, &delta);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match applied {
            Ok((next, outcome)) => {
                *fp = next;
                times.record(self.kinds[self.next], &outcome, ms);
                self.advance();
                ledger.ok();
            }
            Err(e) => ledger.fail(&format!("apply_delta: {e}")),
        }
        true
    }

    /// Applies `SIDE_DELTAS` deltas, each followed by a read, to a private
    /// server's copy of the hot plan at a quiescent point: the workloads
    /// whose request loop takes no writes report delta latency from these.
    pub fn apply_side(&mut self, side: &mut Side, times: &mut UpdateTimes, ledger: &mut Ledger) {
        for _ in 0..SIDE_DELTAS {
            if !self.apply_next(&side.server, &mut side.fp, times, ledger) {
                ledger.attempted += 1;
                ledger.fail("delta stream exhausted");
            }
            side.read(ledger);
        }
    }

    /// Checks the plan `server` holds under `fp` against a fresh
    /// prepare of the matrix the applied deltas produced, bit for bit.
    pub fn matches_fresh(
        &self,
        server: &SpmvServer,
        fp: MatrixFingerprint,
        x: &[f32],
        threads: usize,
    ) -> bool {
        let Some(mut updated) = server.with_prepared(fp, |p| p.clone()) else {
            return false;
        };
        let mut fresh = self.fresh(&updated, threads);
        let mut want = vec![0.0; fresh.plan.rows() as usize];
        let mut got = vec![0.0; updated.plan.rows() as usize];
        fresh.execute(x, &mut want).expect("fresh plan executes");
        updated.set_integrity(IntegrityPolicy::off());
        updated.execute(x, &mut got).expect("updated plan executes");
        same_bits(&want, &got)
    }

    /// A fresh prepare of the matrix as the applied deltas left it,
    /// pinned to `like`'s portfolio and schedule so its output is
    /// comparable bit for bit.
    fn fresh(&self, like: &Prepared, threads: usize) -> Prepared {
        let options = PipelineOptions::default()
            .fixed_portfolio(like.selection.set.clone())
            .fixed_schedule(like.best.tile_size, like.best.config.clone())
            .parallelism(Parallelism::Threads(threads));
        Pipeline::with_options(options)
            .prepare(&to_coo(&self.shadow, self.rows, self.cols))
            .expect("the mutated matrix prepares")
    }
}

fn apply(shadow: &mut BTreeMap<(u32, u32), f32>, delta: &MatrixDelta) {
    for op in delta.ops() {
        match *op {
            DeltaOp::Patch { row, col, value } | DeltaOp::Insert { row, col, value } => {
                shadow.insert((row, col), value);
            }
            DeltaOp::Delete { row, col } => {
                shadow.remove(&(row, col));
            }
        }
    }
}

fn to_coo(shadow: &BTreeMap<(u32, u32), f32>, rows: u32, cols: u32) -> Coo {
    let triplets = shadow.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
    Coo::from_triplets(rows, cols, triplets).expect("shadow cells are in bounds")
}
