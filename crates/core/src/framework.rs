//! The end-to-end SPASM pipeline (workflow ①–⑥, Fig. 6).

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use spasm_format::{SpasmMatrix, SubBlock, SubmatrixMap};
use spasm_hw::{
    merge_health, Accelerator, ExecReport, ExecutionPlan, HealthReport, HwConfig, IntegrityCheck,
    VerifyScope,
};
use spasm_patterns::selection::{self, TopN};
use spasm_patterns::{
    DecompositionTable, GridSize, PatternHistogram, SelectionOutcome, Template, TemplateSet,
};
use spasm_sparse::{Coo, Csr, DeltaOp, MatrixDelta, SpMv};

use crate::error::PipelineError;
use crate::integrity::{IntegrityMode, IntegrityPolicy};
use crate::schedule::{self, ScheduleCandidate, ScheduleChoice};

/// Pipeline configuration: which portfolios, tile sizes and hardware
/// configurations the framework may choose among.
///
/// The defaults reproduce the paper's full framework. The Fig. 14 ablation
/// points are built by pinning parts of the search space
/// ([`PipelineOptions::fixed_portfolio`], [`PipelineOptions::fixed_schedule`]).
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Candidate template portfolios for step ② (default: Table V sets
    /// 0–9).
    pub candidates: Vec<TemplateSet>,
    /// How many top patterns Algorithm 3 scores (default: enough for 95 %
    /// coverage).
    pub top_n: TopN,
    /// Tile sizes for step ⑤ (default: 256…32768 powers of two).
    pub tile_sizes: Vec<u32>,
    /// Hardware configurations for step ⑤ (default: the three shipped
    /// bitstreams of Table IV).
    pub configs: Vec<HwConfig>,
    /// Preprocessing thread budget (default: [`Parallelism::Auto`]). All
    /// pipeline outputs are identical for every setting; the knob only
    /// trades wall-clock for cores. Serial mode is kept for debugging and
    /// as the oracle side of the determinism tests.
    pub parallelism: Parallelism,
    /// How much of each execution is verified, and whether unrepairable
    /// corruption falls back to the golden CSR path (default:
    /// [`IntegrityPolicy::off`]).
    pub integrity: IntegrityPolicy,
    /// Streaming-update drift threshold (default 0.25): when a structural
    /// delta touches more than this fraction of the matrix's occupied 4×4
    /// submatrices — or shifts the pattern histogram enough that step ②
    /// would pick a different portfolio — [`Prepared::apply_delta`] falls
    /// back to a full re-prepare instead of splicing tiles.
    pub drift_threshold: f64,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            candidates: TemplateSet::table_v_candidates(),
            top_n: TopN::Coverage(0.95),
            tile_sizes: schedule::default_tile_sizes(),
            configs: HwConfig::shipped(),
            parallelism: Parallelism::Auto,
            integrity: IntegrityPolicy::off(),
            drift_threshold: 0.25,
        }
    }
}

impl PipelineOptions {
    /// Pins step ② to one portfolio (ablation: "fixed template pattern").
    pub fn fixed_portfolio(mut self, set: TemplateSet) -> Self {
        self.candidates = vec![set];
        self
    }

    /// Pins step ⑤ to one tile size and configuration (ablation: "fixed
    /// schedule").
    pub fn fixed_schedule(mut self, tile_size: u32, config: HwConfig) -> Self {
        self.tile_sizes = vec![tile_size];
        self.configs = vec![config];
        self
    }

    /// Sets the preprocessing thread budget.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the execution integrity policy.
    pub fn integrity(mut self, integrity: IntegrityPolicy) -> Self {
        self.integrity = integrity;
        self
    }

    /// Sets the streaming-update drift threshold (a fraction of occupied
    /// 4×4 submatrices; see [`PipelineOptions::drift_threshold`]).
    pub fn drift_threshold(mut self, fraction: f64) -> Self {
        self.drift_threshold = fraction;
        self
    }
}

/// Thread budget for preprocessing.
///
/// Preprocessing output is bit-identical for every variant (enforced by
/// `tests/determinism.rs`); only wall-clock changes. Without the `parallel`
/// cargo feature every variant executes serially.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use every available core.
    #[default]
    Auto,
    /// Single-threaded execution.
    Serial,
    /// At most this many worker threads (`Threads(0)` ≡ `Auto`,
    /// `Threads(1)` ≡ `Serial`).
    Threads(usize),
}

impl Parallelism {
    /// The concrete worker-thread cap this variant resolves to. The
    /// host's available parallelism is read once per process: reading it
    /// can mean reading cgroup files, and `Auto` resolves on every
    /// prepare.
    pub fn resolved_threads(self) -> usize {
        static HOST_THREADS: OnceLock<usize> = OnceLock::new();
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto | Parallelism::Threads(0) => *HOST_THREADS
                .get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from)),
            Parallelism::Threads(n) => n,
        }
    }
}

/// Runs `f` under the pipeline's thread budget. With the `parallel` feature
/// disabled this is the identity: everything already runs serially.
#[cfg(feature = "parallel")]
fn with_parallelism<R>(parallelism: Parallelism, f: impl FnOnce() -> R) -> R {
    match rayon::ThreadPoolBuilder::new()
        .num_threads(parallelism.resolved_threads())
        .build()
    {
        Ok(pool) => pool.install(f),
        // The vendored pool builder is infallible in practice; if it ever
        // fails, run under the ambient budget rather than aborting.
        Err(_) => f(),
    }
}

#[cfg(not(feature = "parallel"))]
fn with_parallelism<R>(_parallelism: Parallelism, f: impl FnOnce() -> R) -> R {
    f()
}

/// The worker budget in effect on the current thread (1 in serial builds).
#[cfg(feature = "parallel")]
fn current_threads() -> usize {
    rayon::current_num_threads()
}

#[cfg(not(feature = "parallel"))]
fn current_threads() -> usize {
    1
}

/// Wall-clock cost of each preprocessing stage — the rows of Table VIII.
///
/// Each field is the *wall-clock* span of its stage as observed by the
/// thread driving the pipeline, so the numbers stay meaningful under
/// parallel execution: a stage that fans out over `threads` workers reports
/// the elapsed time of the whole fan-out, not the summed CPU time.
/// [`StageTimings::threads`] records the budget the stages ran under so a
/// report can distinguish a serial 40 ms from a 4-thread 40 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// ① local pattern analysis.
    pub analysis: Duration,
    /// ② template pattern selection.
    pub selection: Duration,
    /// ③ local pattern decomposition (all occurring patterns).
    pub decomposition: Duration,
    /// ④⑤ global composition analysis + workload schedule exploration.
    pub schedule: Duration,
    /// Final encode into the SPASM format (stream materialisation).
    pub encode: Duration,
    /// Execution-plan build: instance-stream decode, LPT schedule, report
    /// skeleton and scratch allocation (amortised over every `execute`).
    pub plan: Duration,
    /// Worker-thread budget the stages ran under (1 = serial).
    pub threads: usize,
}

impl StageTimings {
    /// Total preprocessing wall-clock time.
    pub fn total(&self) -> Duration {
        self.analysis
            + self.selection
            + self.decomposition
            + self.schedule
            + self.encode
            + self.plan
    }

    /// Whether any stage may have used more than one worker thread.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }
}

/// The SPASM framework front-end.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    options: PipelineOptions,
}

impl Pipeline {
    /// A pipeline with the paper's default search space.
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// A pipeline with custom options.
    pub fn with_options(options: PipelineOptions) -> Self {
        Pipeline { options }
    }

    /// The active options.
    pub fn options(&self) -> &PipelineOptions {
        &self.options
    }

    /// Runs preprocessing for a *set* of expected input matrices sharing
    /// one portfolio — the abstract's deployment model: the portfolio (and
    /// thus the opcode LUT) is optimised once over the whole set, then
    /// each matrix still gets its own tile-size/configuration schedule.
    ///
    /// Matrices are weighted equally in selection regardless of size (see
    /// [`selection::select_for_matrix_set`]).
    ///
    /// # Errors
    ///
    /// Propagates per-matrix pipeline errors; an empty slice is an
    /// [`PipelineError::EmptySearchSpace`].
    pub fn prepare_set(&self, matrices: &[Coo]) -> Result<Vec<Prepared>, PipelineError> {
        if matrices.is_empty() {
            return Err(PipelineError::EmptySearchSpace("input matrix"));
        }
        with_parallelism(self.options.parallelism, || {
            // ① analyse every matrix (in parallel — matrices are
            // independent); ② select one shared portfolio.
            let maps = Pipeline::analyze_set(matrices);
            let histograms: Vec<_> = maps.iter().map(SubmatrixMap::histogram).collect();
            let shared = selection::select_for_matrix_set(
                &histograms,
                &self.options.candidates,
                self.options.top_n,
            );
            // ③–⑤ + encode per matrix, pinned to the shared portfolio.
            // Matrices again run in parallel; each per-matrix `prepare`
            // then runs serially on its worker (the vendored rayon shim
            // grants workers a nested budget of 1), which keeps the
            // fan-out flat instead of quadratic.
            let pinned =
                Pipeline::with_options(self.options.clone().fixed_portfolio(shared.set.clone()));
            Pipeline::prepare_each(&pinned, matrices)
        })
    }

    #[cfg(feature = "parallel")]
    fn analyze_set(matrices: &[Coo]) -> Vec<SubmatrixMap> {
        use rayon::prelude::*;
        matrices.par_iter().map(SubmatrixMap::from_coo).collect()
    }

    #[cfg(not(feature = "parallel"))]
    fn analyze_set(matrices: &[Coo]) -> Vec<SubmatrixMap> {
        matrices.iter().map(SubmatrixMap::from_coo).collect()
    }

    #[cfg(feature = "parallel")]
    fn prepare_each(pinned: &Pipeline, matrices: &[Coo]) -> Result<Vec<Prepared>, PipelineError> {
        use rayon::prelude::*;
        matrices
            .par_iter()
            .map(|m| pinned.prepare_inner(m))
            .collect::<Vec<_>>()
            .into_iter()
            .collect()
    }

    #[cfg(not(feature = "parallel"))]
    fn prepare_each(pinned: &Pipeline, matrices: &[Coo]) -> Result<Vec<Prepared>, PipelineError> {
        matrices.iter().map(|m| pinned.prepare_inner(m)).collect()
    }

    /// Runs preprocessing (steps ①–⑤) on a matrix and returns everything
    /// needed for execution.
    ///
    /// # Errors
    ///
    /// Propagates format, opcode and search-space errors as
    /// [`PipelineError`].
    pub fn prepare(&self, matrix: &Coo) -> Result<Prepared, PipelineError> {
        with_parallelism(self.options.parallelism, || self.prepare_inner(matrix))
    }

    /// `prepare` body, run under an already-installed thread budget (so
    /// `prepare_set` workers do not stack budgets).
    fn prepare_inner(&self, matrix: &Coo) -> Result<Prepared, PipelineError> {
        let mut timings = StageTimings {
            threads: current_threads(),
            ..StageTimings::default()
        };

        // ① local pattern analysis.
        let t0 = Instant::now();
        let map = SubmatrixMap::from_coo(matrix);
        let histogram = map.histogram();
        timings.analysis = t0.elapsed();

        // ② template pattern selection.
        let t1 = Instant::now();
        let selection = selection::select_template_set(
            &histogram,
            &self.options.candidates,
            self.options.top_n,
        );
        timings.selection = t1.elapsed();

        // ③ check that the selected table covers every occurring pattern
        // (the table was built during selection; the encoder decomposes
        // each block from it on demand).
        let t2 = Instant::now();
        for (mask, _) in histogram.iter() {
            selection
                .table
                .instance_count(*mask)
                .ok_or(spasm_format::FormatError::UncoverablePattern { mask: *mask })?;
        }
        timings.decomposition = t2.elapsed();

        // ④⑤ global composition + schedule exploration.
        let t3 = Instant::now();
        let (best, explored) = schedule::explore_schedule(
            &map,
            &selection.table,
            &self.options.tile_sizes,
            &self.options.configs,
        )?;
        timings.schedule = t3.elapsed();

        // Materialise the stream at the selected tile size.
        let t4 = Instant::now();
        let encoded = SpasmMatrix::encode(&map, &selection.table, best.tile_size)?;
        timings.encode = t4.elapsed();

        // Build the execution plan for the winning schedule once; every
        // subsequent `execute` reuses it (decode, LPT assignment, cycle
        // pricing and scratch buffers are all amortised here).
        let t5 = Instant::now();
        let plan = Accelerator::new(best.config.clone()).prepare(&encoded)?;
        timings.plan = t5.elapsed();

        Ok(Prepared {
            selection,
            best,
            explored,
            encoded,
            timings,
            plan,
            golden: Golden::seeded(Csr::from(matrix)),
            integrity: self.options.integrity,
            options: self.options.clone(),
            histogram: Some(histogram),
            sample_rows: Vec::new(),
            sample_got: Vec::new(),
            lane_scopes: Vec::new(),
            y_before: Vec::new(),
            batch_health: Vec::new(),
        })
    }
}

/// The golden CSR reference, materialised on first use.
///
/// A fresh `prepare` seeds it eagerly — the input COO is in hand and the
/// conversion is cheap next to preprocessing. A plan restored from a
/// frozen wire-v3 container starts empty: only the verifying integrity
/// ladder ever reads the golden path, and decoding it up front would
/// dominate the cold start it exists to avoid.
#[derive(Debug, Default)]
struct Golden(OnceLock<Csr>);

impl Clone for Golden {
    fn clone(&self) -> Self {
        let g = Golden::default();
        if let Some(csr) = self.0.get() {
            let _ = g.0.set(csr.clone());
        }
        g
    }
}

impl Golden {
    /// An eagerly materialised reference (the prepare path).
    fn seeded(csr: Csr) -> Self {
        let g = Golden::default();
        let _ = g.0.set(csr);
        g
    }

    /// The reference, decoding it from the encoded matrix on first use.
    fn get(&self, encoded: &SpasmMatrix) -> &Csr {
        self.0.get_or_init(|| encoded.to_csr())
    }

    /// Co-updates a *materialised* reference with a values-only patch so
    /// the integrity ladder keeps verifying against the current values.
    /// A still-lazy reference needs nothing: it will materialise from the
    /// already-patched encoded matrix.
    fn patch(&mut self, entries: &[(u32, u32, f32)]) {
        if let Some(csr) = self.0.get_mut() {
            for &(r, c, v) in entries {
                csr.patch_value(r, c, v);
            }
        }
    }

    /// Co-updates a *materialised* reference with a validated structural
    /// delta, in one merge pass over its rows. A still-lazy reference
    /// needs nothing, as for [`Golden::patch`].
    fn merge(&mut self, delta: &MatrixDelta) {
        if let Some(csr) = self.0.get_mut() {
            *csr = csr.with_delta(delta);
        }
    }

    /// Heap footprint of the reference without forcing it: the exact
    /// size it will occupy once (if ever) materialised, so capacity
    /// accounting does not change when it is.
    fn bytes(&self, encoded: &SpasmMatrix) -> usize {
        match self.0.get() {
            Some(csr) => {
                std::mem::size_of_val(csr.row_ptr())
                    + std::mem::size_of_val(csr.col_indices())
                    + std::mem::size_of_val(csr.values())
            }
            None => {
                let nnz = encoded.nnz();
                (encoded.rows() as usize + 1) * std::mem::size_of::<usize>() + nnz * 4 + nnz * 4
            }
        }
    }
}

/// How [`Prepared::apply_delta`] absorbed a [`MatrixDelta`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum DeltaOutcome {
    /// Values-only: the value stream was replaced copy-on-write under a
    /// bumped plan version; nothing was re-encoded or re-decoded.
    Patched {
        /// Number of cells patched.
        entries: usize,
    },
    /// Structural, within the drift threshold: the touched 4×4
    /// submatrices were re-encoded and spliced into their tiles' runs of
    /// the stream; every other instance was copied verbatim and
    /// untouched tiles' decoded spans were reused.
    Spliced {
        /// Number of 4×4 submatrices re-encoded.
        submatrices: usize,
    },
    /// Structural, past the drift threshold (or the pattern mix shifted
    /// enough that step ② would now pick a different portfolio): the
    /// full pipeline re-ran on the mutated matrix with the original
    /// options.
    Reprepared {
        /// Whether template re-selection (not just volume) forced it.
        portfolio_changed: bool,
        /// Touched fraction of the matrix's occupied 4×4 submatrices.
        changed_fraction: f64,
    },
}

/// The output of preprocessing: ready to execute and inspect.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Step ② outcome: the selected portfolio and its decomposition
    /// table.
    pub selection: SelectionOutcome,
    /// Step ⑤ winner.
    pub best: ScheduleChoice,
    /// The full schedule search trace.
    pub explored: Vec<ScheduleCandidate>,
    /// The matrix encoded at the winning tile size.
    pub encoded: SpasmMatrix,
    /// Preprocessing stage timings (Table VIII).
    pub timings: StageTimings,
    /// The prepared execution plan for the winning schedule: pre-decoded
    /// instance stream, LPT assignment, cycle pricing and reusable scratch.
    /// Built once in `prepare`; [`Prepared::execute`] reuses it on every
    /// call.
    pub plan: ExecutionPlan,
    /// The bit-exact CSR reference of the input matrix: the oracle for the
    /// sampled residual cross-check and the last rung of the degradation
    /// ladder. Lazy — restored plans materialise it only if verification
    /// asks for it.
    golden: Golden,
    /// The integrity policy in effect (inherited from the pipeline options
    /// at prepare time; see [`Prepared::set_integrity`]).
    integrity: IntegrityPolicy,
    /// The options this plan was prepared under, kept for the streaming
    /// update path: a drifting [`Prepared::apply_delta`] re-runs the full
    /// pipeline with exactly this search space. Restored plans synthesise
    /// defaults pinned to the restored portfolio.
    options: PipelineOptions,
    /// The local-pattern histogram of the *current* matrix content, kept
    /// incrementally by structural deltas for the drift check. `None` on
    /// restored plans until first needed (rebuilt from the encoded
    /// stream).
    histogram: Option<PatternHistogram>,
    /// Scratch: output rows drawn for the sampled row oracle and
    /// cross-checks, one sorted run per sampled vector of the last batch.
    sample_rows: Vec<usize>,
    /// Scratch, parallel to `sample_rows`: each drawn row's verified
    /// contribution, `None` for a row outside every worked tile row.
    sample_got: Vec<Option<f32>>,
    /// Scratch: each vector's resolved verification scope in the last
    /// verified batch.
    lane_scopes: Vec<LaneScope>,
    /// Scratch: the `y` of every verified vector of the last verified
    /// batch, as it was before the pass, one matrix height each in batch
    /// order — restored for a vector that fails.
    y_before: Vec<f32>,
    /// Per-vector health of the most recent batched execution (reused
    /// across batches; empty before the first one).
    batch_health: Vec<HealthReport>,
}

impl Prepared {
    /// Rebuilds a `Prepared` around an already-built execution plan and
    /// its encoded matrix — the wire-v3 cold-start path (`spasm-store`),
    /// which thaws both without re-running preprocessing.
    ///
    /// The selection and schedule state are reconstructed from what the
    /// pair already carries: the portfolio from the encoded matrix's
    /// template masks, the schedule from the plan's configuration, tile
    /// size and cached report. Stage timings are zero (nothing was
    /// re-run) and the golden CSR reference stays lazy — it only
    /// materialises if a verifying [`IntegrityPolicy`] asks for it.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Format`] when the matrix's template masks do not
    /// form a coverage-complete portfolio from the known shape family —
    /// such a matrix could never have come out of this pipeline.
    pub fn restore(
        encoded: SpasmMatrix,
        plan: ExecutionPlan,
        parallelism: Parallelism,
        integrity: IntegrityPolicy,
    ) -> Result<Prepared, PipelineError> {
        let set = portfolio_from_masks(encoded.template_masks())?;
        let table = DecompositionTable::build(&set);
        let selection = SelectionOutcome {
            set,
            table,
            paddings: encoded.paddings(),
            candidate_paddings: Vec::new(),
        };
        let best = ScheduleChoice {
            config: plan.config().clone(),
            tile_size: encoded.tile_size(),
            predicted_cycles: plan.report().cycles,
        };
        // A thawed plan does not know the search space it came from; pin
        // the synthesised options to the restored portfolio and schedule
        // so a drifting delta re-prepares within what the plan already
        // embodies.
        let options = PipelineOptions::default()
            .fixed_portfolio(selection.set.clone())
            .fixed_schedule(best.tile_size, best.config.clone())
            .parallelism(parallelism)
            .integrity(integrity);
        Ok(Prepared {
            selection,
            best,
            explored: Vec::new(),
            encoded,
            timings: StageTimings::default(),
            plan,
            golden: Golden::default(),
            integrity,
            options,
            histogram: None,
            sample_rows: Vec::new(),
            sample_got: Vec::new(),
            lane_scopes: Vec::new(),
            y_before: Vec::new(),
            batch_health: Vec::new(),
        })
    }

    /// Executes `y += A·x` on the selected hardware configuration
    /// (step ⑥), reusing the prepared [`ExecutionPlan`] — no per-call
    /// decode, scheduling or scratch allocation.
    ///
    /// Results are bit-identical to a freshly prepared plan's (see
    /// `tests/determinism.rs`).
    ///
    /// This clones the cached report; hot loops should prefer
    /// [`Prepared::execute_into`], which hands back a borrow instead.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors as [`PipelineError`].
    pub fn execute(&mut self, x: &[f32], y: &mut [f32]) -> Result<ExecReport, PipelineError> {
        self.execute_into(x, y).cloned()
    }

    /// [`Prepared::execute`] without the report clone: returns a borrow of
    /// the plan's cached [`ExecReport`]. This is the allocation-free entry
    /// point for iterative solvers that execute the same plan thousands of
    /// times (with the default [`IntegrityPolicy::off`] the steady state
    /// performs no heap allocation at all — see `tests/alloc_free.rs`).
    ///
    /// Under a verifying [`IntegrityPolicy`] the execution runs the
    /// degradation ladder: verify → quarantine and re-execute failing tile
    /// rows from the pristine stream → cross-check sampled residuals
    /// against the golden CSR reference → on unrepairable corruption,
    /// either recompute `y` wholesale on the golden path (the default) or
    /// return [`PipelineError::Integrity`]. The outcome is recorded in
    /// [`ExecReport::health`].
    ///
    /// # Errors
    ///
    /// Propagates simulator errors as [`PipelineError`];
    /// [`PipelineError::Integrity`] when corruption is detected and the
    /// policy's fallback is disabled.
    pub fn execute_into(&mut self, x: &[f32], y: &mut [f32]) -> Result<&ExecReport, PipelineError> {
        match self.integrity.mode {
            IntegrityMode::Off => Ok(self.plan.run(x, y)?),
            IntegrityMode::Sampled(_) | IntegrityMode::Full => {
                let (rows, cols) = (self.plan.rows() as usize, self.plan.cols() as usize);
                for (len, expected, operand) in [(x.len(), cols, "x"), (y.len(), rows, "y")] {
                    if len != expected {
                        return Err(PipelineError::DimensionMismatch {
                            expected,
                            actual: len,
                            operand,
                        });
                    }
                }
                let policy = self.integrity;
                self.guarded(&[x], &mut [y], |_| policy)?;
                Ok(self.plan.report())
            }
        }
    }

    /// Executes `ys[j] += A·xs[j]` for every vector of the batch in one
    /// call, cloning the report — see [`Prepared::execute_batch_into`].
    ///
    /// # Errors
    ///
    /// As [`Prepared::execute_batch_into`].
    pub fn execute_batch<X, Y>(
        &mut self,
        xs: &[X],
        ys: &mut [Y],
    ) -> Result<ExecReport, PipelineError>
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        self.execute_batch_into(xs, ys).cloned()
    }

    /// Executes `ys[j] += A·xs[j]` for every vector of the batch against
    /// the prepared plan under the plan's [`IntegrityPolicy`] — the entry
    /// point for multi-RHS solvers and SpMM-as-batched-SpMV workloads.
    /// This is [`Prepared::execute_batch_with`] with that one policy for
    /// every vector.
    ///
    /// With the default [`IntegrityPolicy::off`] the whole batch runs
    /// through [`ExecutionPlan::run_batch`]: the x vectors are padded once,
    /// the pre-decoded instance stream is walked once per (tile row × lane
    /// block) across the batch. Each output is bit-identical to looped
    /// [`Prepared::execute_into`] calls, for every batch size.
    ///
    /// # Errors
    ///
    /// As [`Prepared::execute_batch_with`].
    pub fn execute_batch_into<X, Y>(
        &mut self,
        xs: &[X],
        ys: &mut [Y],
    ) -> Result<&ExecReport, PipelineError>
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        let policy = self.integrity;
        self.batch_into(xs, ys, |_| policy)
    }

    /// Executes `ys[j] += A·xs[j]` for every vector of the batch, vector
    /// `j` under its own policy `policies[j]` — the serving entry point,
    /// where one batch coalesces requests that asked for different
    /// integrity policies. The plan's own policy is not consulted.
    ///
    /// When every policy is [`IntegrityMode::Off`] this is the unverified
    /// [`ExecutionPlan::run_batch`] pass. Otherwise one
    /// [`ExecutionPlan::run_verified`] pass executes the whole batch and
    /// verifies vector `j` only on its own scope, window by window before
    /// each window is folded: every worked tile row for
    /// [`IntegrityMode::Full`], the rows its own seed draws for
    /// [`IntegrityMode::Sampled`] (through the row oracle, see
    /// [`IntegrityPolicy::sampled`]), none for [`IntegrityMode::Off`].
    /// Each vector then finishes the degradation ladder alone — the
    /// residual cross-check against its own sampled rows and tolerance,
    /// and the golden CSR fallback taken *only for the vectors that
    /// fail*, so one corrupted vector does not degrade its batch
    /// siblings. The pass folds every vector, so the `y` of each verified
    /// vector is copied before it and restored for a vector that fails
    /// (see the failure contract on [`IntegrityPolicy`]). Every output
    /// and every verified vector's health is bit-identical to a batch-1
    /// [`Prepared::execute_into`] under that vector's policy.
    ///
    /// Per-vector outcomes are available from [`Prepared::batch_health`];
    /// the report's health aggregates them, and [`ExecReport::batch`]
    /// carries the amortised batch pricing.
    ///
    /// # Errors
    ///
    /// [`PipelineError::DimensionMismatch`] when `xs`, `ys` and `policies`
    /// disagree in length (operand `"batch"` or `"policies"`), or
    /// [`PipelineError::BatchDimensionMismatch`] naming the offending
    /// vector index when any individual vector has the wrong length — a
    /// server coalescing independent requests can evict just that request
    /// and retry. Shapes are validated up front, so on these errors no
    /// output has been touched. [`PipelineError::Integrity`] (naming the
    /// first such vector's failing tile row) when a vector whose policy
    /// disables fallback is corrupted beyond repair: that vector's `y` is
    /// restored to its value before the call and its
    /// [`Prepared::batch_health`] entry [`HealthReport::needs_fallback`]
    /// without `fallback`, while every other vector is computed as if the
    /// batch had succeeded.
    pub fn execute_batch_with<X, Y>(
        &mut self,
        xs: &[X],
        ys: &mut [Y],
        policies: &[IntegrityPolicy],
    ) -> Result<&ExecReport, PipelineError>
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        if policies.len() != xs.len() {
            return Err(PipelineError::DimensionMismatch {
                expected: xs.len(),
                actual: policies.len(),
                operand: "policies",
            });
        }
        self.batch_into(xs, ys, |j| policies[j])
    }

    /// The one batch entry behind [`Prepared::execute_batch_into`] and
    /// [`Prepared::execute_batch_with`]: validates every shape, then runs
    /// the unverified pass or the ladder under `policy(j)` for vector `j`.
    fn batch_into<X, Y>(
        &mut self,
        xs: &[X],
        ys: &mut [Y],
        policy: impl Fn(usize) -> IntegrityPolicy,
    ) -> Result<&ExecReport, PipelineError>
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        if xs.len() != ys.len() {
            return Err(PipelineError::DimensionMismatch {
                expected: xs.len(),
                actual: ys.len(),
                operand: "batch",
            });
        }
        let (rows, cols) = (self.plan.rows() as usize, self.plan.cols() as usize);
        for (j, x) in xs.iter().enumerate() {
            if x.as_ref().len() != cols {
                return Err(PipelineError::BatchDimensionMismatch {
                    vector: j,
                    expected: cols,
                    actual: x.as_ref().len(),
                    operand: "x",
                });
            }
        }
        for (j, y) in ys.iter_mut().enumerate() {
            if y.as_mut().len() != rows {
                return Err(PipelineError::BatchDimensionMismatch {
                    vector: j,
                    expected: rows,
                    actual: y.as_mut().len(),
                    operand: "y",
                });
            }
        }
        if (0..xs.len()).all(|j| policy(j).mode == IntegrityMode::Off) {
            self.plan.run_batch(xs, ys)?;
            // Unverified batches have nothing per-vector to report.
            self.batch_health.clear();
            self.batch_health.resize(xs.len(), HealthReport::default());
            return Ok(self.plan.report());
        }
        let outcome = self.guarded(xs, ys, policy);
        self.plan.stamp_batch(xs.len());
        outcome?;
        Ok(self.plan.report())
    }

    /// Per-vector health of the most recent batched execution, in batch
    /// order (a verified single-vector execution counts as a batch of
    /// one). Empty before the first batch; all-zero entries when the
    /// batch ran unverified ([`IntegrityMode::Off`]); an unverified vector
    /// of a verified batch reports only what was injected into it.
    /// `health[j].fallback` says vector `j` was recomputed on the golden
    /// CSR path; `needs_fallback()` without `fallback` says vector `j`
    /// failed with [`PipelineError::Integrity`] and its `y` is as it was
    /// before the call.
    pub fn batch_health(&self) -> &[HealthReport] {
        &self.batch_health
    }

    /// The [`PipelineError::Integrity`] vector `j` of the most recent
    /// batched execution failed with, naming its first failing tile row —
    /// `None` when the vector was computed or fell back. A server that
    /// coalesced independent requests fails exactly these requests and
    /// serves the rest.
    pub fn batch_error(&self, j: usize) -> Option<PipelineError> {
        let health = self.batch_health.get(j)?;
        (health.needs_fallback() && !health.fallback).then(|| PipelineError::Integrity {
            tile_row: health.first_failed_tile_row.unwrap_or(0),
            check: IntegrityCheck::Residual,
        })
    }

    /// The verification ladder over a batch of validated shapes, vector
    /// `j` under `policy(j)`: one verified pass executes every vector,
    /// verifies each on its own scope before folding it and hands over
    /// its sampled rows' contributions; then, vector by vector, the
    /// sampled cross-check, and for a vector that fails, its `y` restored
    /// from the snapshot taken before the pass and either recomputed on
    /// the golden path or left as it was. Per-vector health lands in
    /// `batch_health` and their aggregate on the report; the error of the
    /// first failing vector is returned after every vector has been
    /// settled.
    fn guarded<X, Y>(
        &mut self,
        xs: &[X],
        ys: &mut [Y],
        policy: impl Fn(usize) -> IntegrityPolicy,
    ) -> Result<(), PipelineError>
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        // Resolve each vector's verification scope. Sampling is
        // deterministic in the policy seed, so a given policy checks the
        // same rows every call, alone or in any batch.
        let rows = self.plan.rows() as usize;
        self.sample_rows.clear();
        self.lane_scopes.clear();
        self.y_before.clear();
        for (j, y) in ys.iter_mut().enumerate() {
            let p = policy(j);
            let lane = match p.mode {
                IntegrityMode::Full => LaneScope::All,
                IntegrityMode::Sampled(k) => self.draw(k, p.seed, rows),
                IntegrityMode::Off => LaneScope::None,
            };
            if !matches!(lane, LaneScope::None) {
                self.y_before.extend_from_slice(y.as_mut());
            }
            self.lane_scopes.push(lane);
        }
        self.sample_got.clear();
        self.sample_got.resize(self.sample_rows.len(), None);
        self.batch_health.clear();
        self.batch_health.resize(xs.len(), HealthReport::default());

        let (lanes, drawn, got) = (&self.lane_scopes, &self.sample_rows, &mut self.sample_got);
        let scope = |j: usize| match &lanes[j] {
            LaneScope::None => VerifyScope::None,
            LaneScope::All => VerifyScope::All,
            LaneScope::Sampled(run) => VerifyScope::Rows(&drawn[run.clone()]),
        };
        let on_row = |j: usize, k: usize, value: f32| {
            if let LaneScope::Sampled(run) = &lanes[j] {
                got[run.start + k] = Some(value);
            }
        };
        self.plan
            .run_verified(xs, ys, scope, &mut self.batch_health, on_row)?;

        let tile_size = self.plan.tile_size() as usize;
        let mut aggregate = HealthReport::default();
        let mut failure = None;
        let mut before = self.y_before.chunks_exact(rows.max(1));
        for (j, (x, y)) in xs.iter().zip(ys.iter_mut()).enumerate() {
            let (x, y) = (x.as_ref(), y.as_mut());
            let p = policy(j);
            let mut health = self.batch_health[j];
            // Residual cross-check: the sampled rows' SPASM contributions
            // must agree with the golden CSR dot products (see
            // `residual_passes`).
            if let LaneScope::Sampled(run) = &self.lane_scopes[j] {
                let mut x_non_finite = None;
                for (&r, &got) in self.sample_rows[run.clone()]
                    .iter()
                    .zip(&self.sample_got[run.clone()])
                {
                    let want = golden_row_dot(self.golden.get(&self.encoded), r, x);
                    health.rows_cross_checked += 1;
                    let passes = residual_passes(got.unwrap_or(0.0), want, p.tolerance, || {
                        *x_non_finite.get_or_insert_with(|| x.iter().any(|v| !v.is_finite()))
                    });
                    if !passes {
                        health.rows_failed_cross_check += 1;
                        if health.first_failed_tile_row.is_none() {
                            health.first_failed_tile_row = got.map(|_| (r / tile_size) as u32);
                        }
                    }
                }
            }

            if !matches!(self.lane_scopes[j], LaneScope::None) {
                let saved = before.next().unwrap_or_default();
                if health.needs_fallback() {
                    // The pass folded the unrepaired result: undo it.
                    y.copy_from_slice(saved);
                    if p.fallback {
                        // Last rung: the accelerator result is
                        // unrecoverable, so the whole product is
                        // recomputed on the bit-exact golden path.
                        health.fallback = true;
                        self.golden
                            .get(&self.encoded)
                            .spmv(x, y)
                            .map_err(map_sparse)?;
                    }
                }
            }
            self.batch_health[j] = health;
            aggregate = merge_health(aggregate, health);
            failure = failure.or_else(|| self.batch_error(j));
        }
        self.plan.annotate_health(aggregate);
        failure.map_or(Ok(()), Err)
    }

    /// Draws `min(k, rows)` distinct output rows from `seed` into
    /// `sample_rows` by Floyd's sampling, returning the vector scope that
    /// names their sorted run.
    fn draw(&mut self, k: usize, seed: u64, rows: usize) -> LaneScope {
        let r0 = self.sample_rows.len();
        let mut state = seed;
        for top in rows - k.min(rows)..rows {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let t = (splitmix64(state) % (top as u64 + 1)) as usize;
            let run = &self.sample_rows[r0..];
            // Every earlier pick is below `top`, so `top` goes last.
            match run.binary_search(&t) {
                Ok(_) => self.sample_rows.push(top),
                Err(at) => self.sample_rows.insert(r0 + at, t),
            }
        }
        LaneScope::Sampled(r0..self.sample_rows.len())
    }

    /// The cached report of the most recent execution (cycle/stall model,
    /// health). Identical to what [`Prepared::execute_into`] returned.
    pub fn report(&self) -> &ExecReport {
        self.plan.report()
    }

    /// The health of the most recent execution (all-zeros before the first
    /// one, or when verification is off and no faults are armed).
    pub fn health(&self) -> HealthReport {
        self.plan.report().health
    }

    /// The integrity policy in effect.
    pub fn integrity(&self) -> IntegrityPolicy {
        self.integrity
    }

    /// Replaces the integrity policy for subsequent executions.
    pub fn set_integrity(&mut self, policy: IntegrityPolicy) {
        self.integrity = policy;
    }

    /// The bit-exact golden CSR reference kept for the degradation
    /// ladder, materialising it from the encoded matrix on first use
    /// (restored plans start without one).
    pub fn golden(&self) -> &Csr {
        self.golden.get(&self.encoded)
    }

    /// Heap footprint of the golden reference without forcing a lazy one
    /// to materialise: the exact size it occupies (or will occupy), so
    /// catalog capacity accounting is stable across materialisation.
    pub fn golden_bytes(&self) -> usize {
        self.golden.bytes(&self.encoded)
    }

    /// The accelerator built for the winning configuration, for callers
    /// that want their own [`ExecutionPlan`]s.
    pub fn accelerator(&self) -> Accelerator {
        Accelerator::new(self.best.config.clone())
    }

    /// The options this plan was prepared under (synthesised and pinned
    /// to the plan's own portfolio/schedule for restored plans).
    pub fn options(&self) -> &PipelineOptions {
        &self.options
    }

    /// Applies a streaming update to this prepared plan *without*
    /// re-running preprocessing, choosing the cheapest coherent path:
    ///
    /// * **values-only** deltas ([`MatrixDelta::is_values_only`]) patch
    ///   the encoded value stream copy-on-write and install the new
    ///   buffer under a bumped [`ExecutionPlan::version`] — executions
    ///   (or plan clones) already in flight keep reading the old buffer;
    /// * **structural** deltas (any insert/delete) re-encode only the
    ///   touched 4×4 submatrices and splice them into the stream, copying
    ///   every other instance verbatim and reusing the decoded spans of
    ///   every untouched tile;
    /// * when the update drifts past
    ///   [`PipelineOptions::drift_threshold`] — or shifts the local
    ///   pattern histogram enough that step ② would now select a
    ///   different portfolio — the full pipeline re-runs on the mutated
    ///   matrix with the original options.
    ///
    /// Every path leaves the plan bit-identical to a from-scratch
    /// [`Pipeline::prepare`] of the mutated matrix (`tests/
    /// update_equivalence.rs`), co-updates the golden CSR reference so a
    /// verifying [`IntegrityPolicy`] checks against the *new* values, and
    /// keeps [`ExecutionPlan::version`] strictly increasing. An empty
    /// delta is a no-op (no version bump).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Delta`] when the delta fails validation against
    /// the current matrix (out-of-bounds coordinates, explicit zeros,
    /// conflicting ops, patches/deletes of absent cells, inserts into
    /// occupied ones). On any error the plan is untouched.
    pub fn apply_delta(&mut self, delta: &MatrixDelta) -> Result<DeltaOutcome, PipelineError> {
        if delta.is_empty() {
            return Ok(DeltaOutcome::Patched { entries: 0 });
        }
        delta.validate(self.golden.get(&self.encoded))?;
        if delta.is_values_only() {
            let entries: Vec<(u32, u32, f32)> = delta
                .ops()
                .iter()
                .filter_map(|op| match *op {
                    DeltaOp::Patch { row, col, value } => Some((row, col, value)),
                    _ => None,
                })
                .collect();
            let values = self.encoded.patch_values(&entries)?;
            self.plan.adopt_values(values)?;
            self.golden.patch(&entries);
            return Ok(DeltaOutcome::Patched {
                entries: entries.len(),
            });
        }
        self.apply_structural(delta)
    }

    /// The structural-delta path: derive old/new 4×4 states from the
    /// golden reference, run the drift check, then splice or re-prepare.
    fn apply_structural(&mut self, delta: &MatrixDelta) -> Result<DeltaOutcome, PipelineError> {
        let (rows, cols) = (self.encoded.rows(), self.encoded.cols());

        // Group ops by the 4×4 submatrix they touch.
        let mut groups: BTreeMap<(u32, u32), Vec<DeltaOp>> = BTreeMap::new();
        for op in delta.ops() {
            let (r, c) = op.coord();
            groups.entry((r / 4, c / 4)).or_default().push(*op);
        }

        // Old and new submatrix states. Stored zeros (possible only when
        // the *original* input carried explicit zeros) are treated as
        // absent — the value stream cannot distinguish them from padding,
        // so the delta layer canonicalises them away.
        let mut replacements: Vec<SubBlock> = Vec::with_capacity(groups.len());
        let mut mask_changes: Vec<(u16, u16)> = Vec::with_capacity(groups.len());
        {
            let golden = self.golden.get(&self.encoded);
            for (&(sub_r, sub_c), ops) in &groups {
                let mut mask: u16 = 0;
                let mut values = [0.0f32; 16];
                for bit in 0..16u32 {
                    let (r, c) = (sub_r * 4 + bit / 4, sub_c * 4 + bit % 4);
                    if r >= rows || c >= cols {
                        continue;
                    }
                    if let Some(v) = golden.get(r, c) {
                        if v != 0.0 {
                            mask |= 1 << bit;
                            values[bit as usize] = v;
                        }
                    }
                }
                let old_mask = mask;
                for op in ops {
                    let (r, c) = op.coord();
                    let bit = (r % 4) * 4 + (c % 4);
                    match *op {
                        DeltaOp::Patch { value, .. } | DeltaOp::Insert { value, .. } => {
                            mask |= 1 << bit;
                            values[bit as usize] = value;
                        }
                        DeltaOp::Delete { .. } => {
                            mask &= !(1 << bit);
                            values[bit as usize] = 0.0;
                        }
                    }
                }
                mask_changes.push((old_mask, mask));
                replacements.push(SubBlock {
                    sub_r,
                    sub_c,
                    mask,
                    values,
                });
            }
        }

        // Advance the local-pattern histogram incrementally and check for
        // drift: would step ② still pick the same portfolio, and is the
        // touched fraction under the threshold?
        let new_histogram = self
            .histogram
            .get_or_insert_with(|| SubmatrixMap::from_coo(&self.encoded.to_coo()).histogram())
            .with_changes(&mask_changes);
        // A single candidate (pinned options, every restored plan) is
        // the only set step ② can pick, so its table is not rebuilt.
        let reselected = match self.options.candidates.as_slice() {
            [only] => only,
            candidates => {
                &selection::select_template_set(&new_histogram, candidates, self.options.top_n).set
            }
        };
        let portfolio_changed = !reselected.masks().eq(self.selection.set.masks());
        let changed_fraction = groups.len() as f64 / new_histogram.total_blocks().max(1) as f64;
        if portfolio_changed || changed_fraction > self.options.drift_threshold {
            self.reprepare(delta)?;
            return Ok(DeltaOutcome::Reprepared {
                portfolio_changed,
                changed_fraction,
            });
        }

        // Splice path: re-encode touched submatrices, reuse everything else.
        // Both steps build out-of-place; the plan is untouched on error.
        let new_encoded = self.encoded.spliced(&replacements, &self.selection.table)?;
        let subs_per_tile = self.encoded.tile_size() / 4;
        let mut touched_tiles: Vec<(u32, u32)> = groups
            .keys()
            .map(|&(sr, sc)| (sr / subs_per_tile, sc / subs_per_tile))
            .collect();
        touched_tiles.sort_unstable();
        touched_tiles.dedup();
        let new_plan = self
            .plan
            .respliced(&new_encoded, self.encoded.tiles(), &touched_tiles)?;

        self.encoded = new_encoded;
        self.plan = new_plan;
        self.golden.merge(delta);
        self.histogram = Some(new_histogram);
        self.selection.paddings = self.encoded.paddings();
        self.best.predicted_cycles = self.plan.report().cycles;
        Ok(DeltaOutcome::Spliced {
            submatrices: replacements.len(),
        })
    }

    /// The drift fallback: re-run the whole pipeline on the mutated
    /// matrix with the original options, preserving the current integrity
    /// policy and keeping the version stamp monotonic.
    fn reprepare(&mut self, delta: &MatrixDelta) -> Result<(), PipelineError> {
        let mutated = Coo::from(&self.golden.get(&self.encoded).with_delta(delta));

        let next_version = self.plan.version() + 1;
        let integrity = self.integrity;
        let mut fresh = Pipeline::with_options(self.options.clone()).prepare(&mutated)?;
        fresh.plan.restamp_version(next_version);
        fresh.integrity = integrity;
        *self = fresh;
        Ok(())
    }
}

/// Reconstructs a template portfolio from stored LUT masks by matching
/// each against the full shape family every selection path draws from:
/// rows, columns, diagonals, anti-diagonals, 2×2 blocks and DBB column
/// pairs on the 4×4 grid. (Table V portfolios and the greedy custom
/// search are all subsets of this family, so any pipeline-produced
/// matrix round-trips.)
fn portfolio_from_masks(masks: &[u16]) -> Result<TemplateSet, PipelineError> {
    let s = GridSize::S4;
    let mut pool: Vec<Template> = Vec::new();
    pool.extend((0..4).map(|r| Template::row(s, r)));
    pool.extend((0..4).map(|c| Template::col(s, c)));
    pool.extend((0..4).map(|k| Template::diag(s, k)));
    pool.extend((0..4).map(|k| Template::anti_diag(s, k)));
    pool.extend((0..4).flat_map(|r| (0..4).map(move |c| Template::block2(r, c))));
    // DBB pairs anchor on row pairs (0,1) and (2,3) only.
    pool.extend([0u32, 2].into_iter().flat_map(|r| {
        (0..4).flat_map(move |c1| (c1 + 1..4).map(move |c2| Template::dbb_pair(r, c1, c2)))
    }));

    let uncoverable =
        |mask: u16| PipelineError::Format(spasm_format::FormatError::UncoverablePattern { mask });
    let mut templates = Vec::with_capacity(masks.len());
    let mut union: u16 = 0;
    for &mask in masks {
        let t = *pool
            .iter()
            .find(|t| t.mask() == mask)
            .ok_or_else(|| uncoverable(mask))?;
        templates.push(t);
        union |= mask;
    }
    // `TemplateSet::new` panics on an incomplete portfolio; a stored
    // stream must never be able to trigger that, so pre-check and
    // return a typed error instead.
    if templates.is_empty()
        || templates.len() > TemplateSet::MAX_TEMPLATES
        || union != s.full_mask()
    {
        return Err(uncoverable(union));
    }
    Ok(TemplateSet::new(s, "restored", templates))
}

/// One vector's resolved verification scope in a verified batch: a
/// sampled scope names its drawn output rows as a run of the
/// `sample_rows` scratch.
#[derive(Debug, Clone)]
enum LaneScope {
    None,
    All,
    Sampled(std::ops::Range<usize>),
}

/// The sampled residual cross-check of one row: the accelerator's `got`
/// passes against the golden dot product `want` when they are equal, both
/// NaN, or within `tol·(1 + |want|)` of each other. The two datapaths
/// accumulate in different orders, so finite outputs differ by rounding;
/// a NaN or infinite `got` against a finite `want` is flagged, except
/// when `x` holds a non-finite entry (`x_non_finite`, asked only then): a
/// padded slot's `0·inf` makes the accelerator's row NaN where the CSR's,
/// which has no such product, may be finite.
fn residual_passes(got: f32, want: f32, tol: f32, x_non_finite: impl FnOnce() -> bool) -> bool {
    got == want
        || (got.is_nan() && want.is_nan())
        || (got - want).abs() <= tol * (1.0 + want.abs())
        || (!got.is_finite() && x_non_finite())
}

/// One golden-reference output row: the CSR dot product of row `r` with
/// `x`, accumulated in exactly the order `Csr::spmv` uses so the comparison
/// is against the same rounding.
fn golden_row_dot(csr: &Csr, r: usize, x: &[f32]) -> f32 {
    let ptr = csr.row_ptr();
    let cols = csr.col_indices();
    let vals = csr.values();
    let mut acc = 0.0;
    for i in ptr[r]..ptr[r + 1] {
        acc += vals[i] * x[cols[i] as usize];
    }
    acc
}

/// SplitMix64 finaliser: a tiny, dependency-free bijective mixer for the
/// deterministic sample-row draw.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn map_sparse(e: spasm_sparse::SparseError) -> PipelineError {
    match e {
        spasm_sparse::SparseError::DimensionMismatch {
            expected,
            actual,
            operand,
        } => PipelineError::DimensionMismatch {
            expected,
            actual,
            operand,
        },
        _ => PipelineError::EmptySearchSpace("golden reference path"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_sparse::SpMv;

    fn block_diag(n_blocks: u32) -> Coo {
        let mut t = Vec::new();
        for b in 0..n_blocks {
            for r in 0..4 {
                for c in 0..4 {
                    t.push((b * 4 + r, b * 4 + c, (r + c + 1) as f32));
                }
            }
        }
        let n = n_blocks * 4;
        Coo::from_triplets(n, n, t).unwrap()
    }

    #[test]
    fn end_to_end_matches_reference() {
        let a = block_diag(64);
        let mut prepared = Pipeline::new().prepare(&a).unwrap();
        let n = a.rows() as usize;
        let x: Vec<f32> = (0..n).map(|i| (i % 7) as f32 - 3.0).collect();

        let mut want = vec![1.0f32; n];
        a.spmv(&x, &mut want).unwrap();
        let mut got = vec![1.0f32; n];
        prepared.execute(&x, &mut got).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn block_diag_selects_zero_padding_portfolio() {
        let a = block_diag(32);
        let prepared = Pipeline::new().prepare(&a).unwrap();
        assert_eq!(prepared.selection.paddings, 0);
        assert_eq!(prepared.encoded.paddings(), 0);
    }

    #[test]
    fn ablation_options_pin_the_space() {
        let a = block_diag(32);
        let opts = PipelineOptions::default()
            .fixed_portfolio(TemplateSet::table_v_set(0))
            .fixed_schedule(1024, HwConfig::spasm_4_1());
        let prepared = Pipeline::with_options(opts).prepare(&a).unwrap();
        assert_eq!(prepared.best.tile_size, 1024);
        assert_eq!(prepared.best.config.name, "SPASM_4_1");
        assert_eq!(prepared.explored.len(), 1);
        assert_eq!(prepared.selection.set.name(), "set-0");
    }

    #[test]
    fn full_pipeline_never_slower_than_fixed_baseline() {
        let a = block_diag(256);
        let fixed = Pipeline::with_options(
            PipelineOptions::default()
                .fixed_portfolio(TemplateSet::table_v_set(0))
                .fixed_schedule(1024, HwConfig::spasm_4_1()),
        )
        .prepare(&a)
        .unwrap();
        let full = Pipeline::new().prepare(&a).unwrap();
        let t_fixed = fixed
            .best
            .config
            .cycles_to_seconds(fixed.best.predicted_cycles);
        let t_full = full
            .best
            .config
            .cycles_to_seconds(full.best.predicted_cycles);
        assert!(t_full <= t_fixed + 1e-15, "{t_full} vs {t_fixed}");
    }

    #[test]
    fn prepare_set_shares_one_portfolio() {
        // A block-diagonal matrix and an anti-diagonal one: the shared
        // portfolio must cover both and be identical across outputs.
        let a = block_diag(16);
        let mut t = Vec::new();
        for i in 0..64u32 {
            t.push((i, 63 - i, 1.0));
        }
        let b = Coo::from_triplets(64, 64, t).unwrap();
        let mut prepared = Pipeline::new()
            .prepare_set(&[a.clone(), b.clone()])
            .unwrap();
        assert_eq!(prepared.len(), 2);
        assert_eq!(
            prepared[0].selection.set.name(),
            prepared[1].selection.set.name()
        );
        // Both still execute correctly under the shared portfolio.
        for (m, p) in [&a, &b].into_iter().zip(prepared.iter_mut()) {
            let x = vec![1.0f32; m.cols() as usize];
            let mut want = vec![0.0f32; m.rows() as usize];
            m.spmv(&x, &mut want).unwrap();
            let mut got = vec![0.0f32; m.rows() as usize];
            p.execute(&x, &mut got).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn prepare_set_rejects_empty() {
        assert!(matches!(
            Pipeline::new().prepare_set(&[]),
            Err(PipelineError::EmptySearchSpace(_))
        ));
    }

    #[test]
    fn timings_are_recorded() {
        let a = block_diag(16);
        let prepared = Pipeline::new().prepare(&a).unwrap();
        assert!(prepared.timings.total() > Duration::ZERO);
    }

    #[test]
    fn prepared_plan_matches_schedule_prediction() {
        // The plan is priced with the same cycle model the schedule sweep
        // used, so its cached report must agree with the winner's
        // prediction.
        let a = block_diag(32);
        let prepared = Pipeline::new().prepare(&a).unwrap();
        assert_eq!(
            prepared.plan.report().cycles,
            prepared.best.predicted_cycles
        );
        assert_eq!(prepared.plan.n_instances(), prepared.encoded.n_instances());
        assert!(prepared.timings.plan > Duration::ZERO);
    }

    #[test]
    fn sampled_integrity_clean_run_cross_checks() {
        let a = block_diag(16);
        let opts = PipelineOptions::default().integrity(IntegrityPolicy::sampled(8, 42));
        let mut prepared = Pipeline::with_options(opts).prepare(&a).unwrap();
        let n = a.rows() as usize;
        let x: Vec<f32> = (0..n).map(|i| (i % 5) as f32 - 2.0).collect();
        let mut want = vec![0.0f32; n];
        a.spmv(&x, &mut want).unwrap();
        let mut got = vec![0.0f32; n];
        let report = prepared.execute_into(&x, &mut got).unwrap();
        assert!(report.health.is_clean());
        assert!(report.health.rows_cross_checked > 0);
        assert!(!report.health.fallback);
        assert_eq!(prepared.health().rows_failed_cross_check, 0);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn full_integrity_matches_unverified_output_bit_for_bit() {
        let a = block_diag(32);
        let n = a.rows() as usize;
        let x: Vec<f32> = (0..n).map(|i| (i % 11) as f32 * 0.25 - 1.0).collect();

        let mut plain = Pipeline::new().prepare(&a).unwrap();
        let mut y_plain = vec![0.0f32; n];
        plain.execute_into(&x, &mut y_plain).unwrap();

        let mut guarded =
            Pipeline::with_options(PipelineOptions::default().integrity(IntegrityPolicy::full()))
                .prepare(&a)
                .unwrap();
        let mut y_guarded = vec![0.0f32; n];
        let report = guarded.execute_into(&x, &mut y_guarded).unwrap();
        assert!(report.health.is_clean());
        assert!(report.health.tile_rows_verified > 0);
        assert_eq!(report.health.tile_rows_quarantined, 0);
        for (p, g) in y_plain.iter().zip(&y_guarded) {
            assert_eq!(p.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn set_integrity_retargets_later_executions() {
        let a = block_diag(8);
        let n = a.rows() as usize;
        let mut prepared = Pipeline::new().prepare(&a).unwrap();
        assert_eq!(prepared.integrity().mode, IntegrityMode::Off);
        let x = vec![1.0f32; n];
        let mut y = vec![0.0f32; n];
        prepared.execute_into(&x, &mut y).unwrap();
        assert_eq!(prepared.health().tile_rows_verified, 0);

        prepared.set_integrity(IntegrityPolicy::full());
        y.fill(0.0);
        prepared.execute_into(&x, &mut y).unwrap();
        assert!(prepared.health().tile_rows_verified > 0);
        assert!(prepared.report().health.is_clean());
    }

    #[test]
    fn guarded_execute_checks_y_dimension() {
        let a = block_diag(4);
        let mut prepared =
            Pipeline::with_options(PipelineOptions::default().integrity(IntegrityPolicy::full()))
                .prepare(&a)
                .unwrap();
        let mut y_bad = vec![0.0f32; 3];
        assert!(matches!(
            prepared.execute_into(&[1.0; 16], &mut y_bad),
            Err(PipelineError::DimensionMismatch { operand: "y", .. })
        ));
    }

    #[test]
    fn execute_checks_dimensions() {
        let a = block_diag(4);
        let mut prepared = Pipeline::new().prepare(&a).unwrap();
        let mut y = vec![0.0f32; 16];
        assert!(matches!(
            prepared.execute(&[1.0; 3], &mut y),
            Err(PipelineError::DimensionMismatch { operand: "x", .. })
        ));
    }

    fn batch_inputs(n: usize, batch: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let xs: Vec<Vec<f32>> = (0..batch)
            .map(|j| {
                (0..n)
                    .map(|i| ((i * 7 + j * 13) % 9) as f32 * 0.375 - 1.5)
                    .collect()
            })
            .collect();
        let ys = vec![vec![0.25f32; n]; batch];
        (xs, ys)
    }

    #[test]
    fn execute_batch_matches_looped_execute_bit_for_bit() {
        let a = block_diag(48);
        let n = a.rows() as usize;
        for policy in [IntegrityPolicy::off(), IntegrityPolicy::full()] {
            let mut prepared = Pipeline::with_options(PipelineOptions::default().integrity(policy))
                .prepare(&a)
                .unwrap();
            for batch in [1usize, 2, 3, 8] {
                let (xs, mut ys) = batch_inputs(n, batch);
                let mut want = ys.clone();
                for (x, y) in xs.iter().zip(want.iter_mut()) {
                    prepared.execute_into(x, y).unwrap();
                }
                let report = prepared.execute_batch(&xs, &mut ys).unwrap();
                for (got, want) in ys.iter().zip(&want) {
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(g.to_bits(), w.to_bits());
                    }
                }
                assert_eq!(prepared.batch_health().len(), batch);
                assert!(prepared.batch_health().iter().all(|h| !h.fallback));
                let b = report.batch.expect("batched run must stamp pricing");
                assert_eq!(b.vectors, batch);
            }
        }
    }

    #[test]
    fn execute_batch_validates_shapes_without_partial_writes() {
        let a = block_diag(8);
        let n = a.rows() as usize;
        let mut prepared = Pipeline::new().prepare(&a).unwrap();
        let xs = vec![vec![1.0f32; n]; 3];

        let mut ys_short = vec![vec![0.5f32; n]; 2];
        assert!(matches!(
            prepared.execute_batch_into(&xs, &mut ys_short),
            Err(PipelineError::DimensionMismatch {
                operand: "batch",
                ..
            })
        ));

        let mut ys_bad = vec![vec![0.5f32; n], vec![0.5f32; n - 1], vec![0.5f32; n]];
        assert!(matches!(
            prepared.execute_batch_into(&xs, &mut ys_bad),
            Err(PipelineError::BatchDimensionMismatch {
                vector: 1,
                operand: "y",
                ..
            })
        ));
        // Shape errors are detected up front: nothing was written, not
        // even to the well-shaped vectors of the batch.
        assert!(ys_bad.iter().flatten().all(|&v| v == 0.5));

        let xs_bad = vec![vec![1.0f32; n], vec![1.0f32; n + 1], vec![1.0f32; n]];
        let mut ys = vec![vec![0.5f32; n]; 3];
        // Regression (PR 6): the error names the offending vector so a
        // server can evict exactly that request from a coalesced batch.
        match prepared.execute_batch_into(&xs_bad, &mut ys) {
            Err(PipelineError::BatchDimensionMismatch {
                vector,
                expected,
                actual,
                operand: "x",
            }) => {
                assert_eq!(vector, 1);
                assert_eq!(expected, n);
                assert_eq!(actual, n + 1);
            }
            other => panic!("expected an indexed batch error, got {other:?}"),
        }
        assert!(ys.iter().flatten().all(|&v| v == 0.5));
    }

    #[test]
    fn batch_health_tracks_verified_vectors() {
        let a = block_diag(16);
        let n = a.rows() as usize;
        let mut prepared =
            Pipeline::with_options(PipelineOptions::default().integrity(IntegrityPolicy::full()))
                .prepare(&a)
                .unwrap();
        let (xs, mut ys) = batch_inputs(n, 4);
        let report = prepared.execute_batch_into(&xs, &mut ys).unwrap().clone();
        assert!(report.health.tile_rows_verified > 0);
        assert_eq!(prepared.batch_health().len(), 4);
        for h in prepared.batch_health() {
            assert!(h.tile_rows_verified > 0);
            assert!(h.is_clean());
        }
        // The report's aggregate equals the sum of per-vector counters.
        let sum: u32 = prepared
            .batch_health()
            .iter()
            .map(|h| h.tile_rows_verified)
            .sum();
        assert_eq!(report.health.tile_rows_verified, sum);

        // A subsequent single-vector execute clears the batch stamp.
        let mut y = vec![0.0f32; n];
        let single = prepared.execute_into(&xs[0], &mut y).unwrap();
        assert!(single.batch.is_none());
    }

    #[test]
    fn splice_keeps_the_golden_materialised_and_current() {
        let mut prepared = Pipeline::with_options(
            PipelineOptions::default().fixed_portfolio(TemplateSet::table_v_set(0)),
        )
        .prepare(&block_diag(64))
        .unwrap();
        let delta = MatrixDelta::new()
            .insert(0, 5, 2.5)
            .delete(1, 1)
            .patch(2, 2, -4.0);
        let outcome = prepared.apply_delta(&delta).unwrap();
        assert!(
            matches!(outcome, DeltaOutcome::Spliced { .. }),
            "{outcome:?}"
        );
        let golden = prepared
            .golden
            .0
            .get()
            .expect("a splice leaves the golden materialised");
        assert_eq!(golden, &prepared.encoded.to_csr());
    }
}
