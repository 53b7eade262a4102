//! Prepared execution plans: amortise per-run setup for repeated SpMV.
//!
//! Everything that depends only on `(matrix, config)` — the opcode LUT,
//! the tile-row layout, the LPT assignment, cycle pricing and scratch
//! vectors — is built once into an [`ExecutionPlan`], and iterative
//! solvers and serving workloads then run thousands of SpMVs against it.
//! Every plan comes out of one private constructor, `assemble`, whichever
//! way it is made: [`crate::Accelerator::prepare`] decodes a matrix's
//! stream, [`ExecutionPlan::respliced`] splices an old plan's spans after
//! a structural update, and [`ExecutionPlan::from_parts`] thaws a wire-v3
//! file's mapped sections. `assemble` validates, lays out, schedules and
//! prices the stream the same way for all three:
//!
//! * the instance stream is pre-decoded into flat structure-of-arrays
//!   form — per instance, the padded-x segment base, the y offset within
//!   the owning tile row's window, a 1-byte opcode-class index into the
//!   compiled portfolio LUT, and the four value slots — so the hot loop
//!   never re-parses 32-bit position encodings or re-derives tile bases;
//! * each tile row's instance span is cut into fixed-size blocks whose
//!   indices are stably sorted by opcode class at prepare time; the
//!   executor does not read these tables (it walks the stream in order,
//!   see the `kernel` module), but wire v3 and [`PlanStreams`] carry
//!   them;
//! * the tile-row layout (instance spans, disjoint y windows), per-tile
//!   lane statistics, [`TileJob`]s, the LPT assignment and the full
//!   [`ExecReport`] are computed once, the cycles by the same pricing pass
//!   as the scheduler's perf model ([`timing::price`]) — the report is a
//!   pure function of `(matrix, config)` (plus the health of the most
//!   recent execution), so [`ExecutionPlan::run`] returns a reference to
//!   the cached value;
//! * padded `x`/`y` scratch buffers are owned by the plan and reused, so
//!   a steady-state [`ExecutionPlan::run`] performs no heap allocation
//!   (asserted by the workspace's counting-allocator test).
//!
//! # One executor
//!
//! Every forward execution — [`ExecutionPlan::run`] (a batch of one),
//! [`ExecutionPlan::run_batch`], [`ExecutionPlan::run_reference`] and the
//! verified [`ExecutionPlan::run_verified`] — goes through one loop over
//! (tile-row × lane-block) pairs on the caller's thread, and each pair
//! walks one tile row's span of the SoA stream in stream order, applying
//! every instance to the up to [`ExecutionPlan::LANE_BLOCK`] vectors of
//! its lane block at once. A lane block runs at padded width `P`, the
//! next power of two of its vector count (1, 2, 4, 8 or 16): its pad
//! lanes hold a zeroed x and are never verified or folded, so a 3-, 7- or
//! 12-vector block runs on the packed 4-, 8- or 16-wide datapath instead
//! of scalar tails. The x scratch is vector-blocked: inside a lane block,
//! column `c` of the padded x holds its `P` lanes contiguously. Every
//! pair writes into one reused window, row-major, row `k`'s `P` lanes
//! side by side — so one instance's x segment and output rows are
//! contiguous across lanes. The window is zeroed just before the kernel
//! call, verified if the pair's vectors ask for it, and folded into the
//! caller's vectors right after, while it is still in cache: like the
//! paper's PE group, the plan keeps only one tile row's partial sums.
//! Each lane accumulates in stream order, so the output is bit-identical
//! for every batch size, to looped single runs, and to the per-instance
//! walk, which survives only as the verification oracle and as
//! [`ExecutionPlan::run_reference`]. Parallelism is the accelerator's:
//! the PE groups the cycle model prices. Hosts that serve many requests
//! run plans side by side, one per thread. The value stream itself is an
//! `Arc<[f32]>` shared with the owning [`SpasmMatrix`], so preparing
//! several plans — or cloning one per batch worker — does not duplicate
//! the multi-GB buffer.
//!
//! # Integrity and fault tolerance
//!
//! `assemble` re-validates the stream beyond what the wire decoder
//! checks, with one set of rules for every constructor: the tile
//! directory must tile the instance stream exactly in ascending order
//! ([`IntegrityCheck::InstanceCount`]), every tile — empty ones too —
//! must lie inside the matrix, and every instance must address inside
//! its tile and the padded operand buffers and name a template in the
//! portfolio ([`IntegrityCheck::EncodingRange`]). The directory is
//! checked before any tile coordinate is scaled, in u64, so hostile
//! streams fail `prepare`, `respliced` and `from_parts` alike with
//! [`SimError::Integrity`] instead of panicking or mis-executing.
//!
//! At run time, [`ExecutionPlan::run_verified`] checks each vector's lane
//! of every pair window under that vector's own [`VerifyScope`] before the
//! window is folded — the whole window against the per-instance oracle,
//! or single output rows against the row oracle, which escalates a
//! mismatch to the window check — quarantines and re-executes windows
//! that disagree, and records one [`HealthReport`] per vector. It folds
//! every vector, healed or not: a caller that must not keep a failed
//! vector's output snapshots that `y` first.
//! Under the `fault-injection` cargo feature a seeded
//! [`crate::fault::FaultPlan`] can be armed on the plan: the executor's
//! per-(row, lane) hook re-decodes struck lanes from their position
//! words, which it derives from the SoA stream on the fly
//! ([`ExecutionPlan::position_words`]), deterministically; production
//! builds carry none of that state.

use std::sync::Arc;

use spasm_format::{PositionEncoding, SpasmMatrix, MAX_TILE_SIZE};

use crate::config::{HwConfig, PES_PER_GROUP};
use crate::integrity::{merge_health, HealthReport, IntegrityCheck, VerifyScope};
use crate::kernel::{self, ClassKernel, ClassRun, SoaRef};
use crate::sim::{BatchReport, ExecReport, SimError, Traffic};
use crate::stream::Stream;
use crate::timing::{self, TileJob};
use crate::valu::ValuOpcode;

#[cfg(feature = "fault-injection")]
use crate::fault::{Fault, FaultPlan};

/// Everything derivable from `(matrix, config)` alone, plus reusable
/// scratch: the pre-decoded instance stream, the compiled portfolio, the
/// tile-row layout, the LPT schedule, the cached report and the batch
/// buffers.
///
/// Build one with [`crate::Accelerator::prepare`], then call
/// [`ExecutionPlan::run`] per SpMV. The output is bit-identical however
/// often the plan is reused.
///
/// # Examples
///
/// ```
/// use spasm_format::{SpasmMatrix, SubmatrixMap};
/// use spasm_hw::{Accelerator, HwConfig};
/// use spasm_patterns::{DecompositionTable, TemplateSet};
/// use spasm_sparse::Coo;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let coo = Coo::from_triplets(4, 4, vec![(0, 0, 2.0), (3, 1, -1.0)])?;
/// let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
/// let m = SpasmMatrix::encode(&SubmatrixMap::from_coo(&coo), &table, 4)?;
///
/// let acc = Accelerator::new(HwConfig::spasm_4_1());
/// let mut plan = acc.prepare(&m)?;
/// for _ in 0..3 {
///     let mut y = vec![0.0f32; 4];
///     let report = plan.run(&[1.0, 2.0, 3.0, 4.0], &mut y)?;
///     assert_eq!(y, vec![2.0, 0.0, 0.0, -2.0]);
///     assert!(report.cycles > 0);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    config: HwConfig,
    rows: u32,
    cols: u32,
    tile_size: u32,
    // Pre-decoded SoA instance stream, in stream (tile) order. `x_base[i]`
    // indexes the padded x scratch; `y_base[i]` is relative to the owning
    // tile row's y window; `op_idx[i]` is the instance's template (opcode
    // class) — an index into the `lut`/`kernels` portfolio tables, 1 byte
    // per instance instead of a full decoded `ValuOpcode`; `values` holds
    // four slots per instance. All of these are immutable `Stream`s:
    // either owned (`prepare`) or zero-copy views into a mapped wire-v3
    // buffer (`ExecutionPlan::from_parts` via `spasm-store`).
    x_base: Stream<u32>,
    y_base: Stream<u32>,
    op_idx: Stream<u8>,
    // The compiled portfolio: one `ValuOpcode` per template (the PE's
    // opcode LUT) and the same opcodes predigested for the lane kernel.
    lut: Vec<ValuOpcode>,
    kernels: Vec<ClassKernel>,
    // When owned, shared with the owning `SpasmMatrix` (and any sibling
    // plans): the stream is immutable after encoding, so plans clone the
    // `Arc`, not the buffer. Mapped plans read it straight from the
    // wire-v3 buffer.
    values: Stream<f32>,
    // Prepare-time pattern-class bucketing (see `crate::kernel`): per
    // `kernel::EXEC_BLOCK`-sized block of each tile row's instance span,
    // the instance indices stably sorted by class, plus the
    // run/block/row directory over them. The executor does not read
    // these; they are kept for wire v3 and `PlanStreams`.
    bucket_idx: Stream<u32>,
    class_runs: Stream<ClassRun>,
    block_runs: Stream<u32>,
    row_blocks: Stream<u32>,
    // Per worked tile row: instance span in the stream, y window in the
    // padded output, and the tile-row id.
    inst_ranges: Vec<(usize, usize)>,
    window_spans: Vec<(usize, usize)>,
    tile_row_ids: Vec<u32>,
    // Scheduling state, for introspection and the cached report.
    assignment: Vec<Vec<TileJob>>,
    report: ExecReport,
    // Reusable scratch, sized for one vector at build and grown to the
    // widest batch seen. `xb` holds the loaded batch's x, vector-blocked
    // per lane block of padded width `P` (`kernel::padded_width` of its
    // vector count, at most LANE_BLOCK): block `b`'s padded x interleaved
    // at `b * LANE_BLOCK * xstride + c * P + l`; `batch` is how many
    // vectors it holds. `window` is the one pair window every execution
    // reuses, row-major (row `k`, lane `l` at `k * P + l`), at most the
    // largest tile-row window times LANE_BLOCK floats. `vp` (the largest
    // window) holds the verification oracle, `vq` the quarantine retry of
    // a whole lane block (grown on the first retry).
    xstride: usize,
    xb: Vec<f32>,
    window: Vec<f32>,
    batch: usize,
    vp: Vec<f32>,
    vq: Vec<f32>,
    // The armed fault plan (see `FaultHook`).
    #[cfg(feature = "fault-injection")]
    armed: Option<ArmedFaults>,
}

/// Borrowed views of an [`ExecutionPlan`]'s immutable stream sections —
/// exactly the content wire v3 freezes (see [`ExecutionPlan::streams`]).
#[derive(Debug, Clone, Copy)]
pub struct PlanStreams<'a> {
    /// Per instance: base of its 4-wide x segment in the padded operand.
    pub x_base: &'a [u32],
    /// Per instance: y offset within the owning tile row's window.
    pub y_base: &'a [u32],
    /// Per instance: opcode class (template LUT index).
    pub op_idx: &'a [u8],
    /// Four value slots per instance.
    pub values: &'a [f32],
    /// Class-bucketed instance order (see [`ExecutionPlan::bucket_order`]).
    pub bucket_idx: &'a [u32],
    /// Class runs into `bucket_idx`, in block order.
    pub class_runs: &'a [ClassRun],
    /// Per block: prefix of run counts into `class_runs` (len blocks+1).
    pub block_runs: &'a [u32],
    /// Per tile row: prefix of block counts (len rows+1).
    pub row_blocks: &'a [u32],
}

/// One tile of a frozen plan's directory: the stream span it owns plus
/// its grid position. The wire-v3 TILES section stores exactly these
/// fields; everything else about the layout is derived from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrozenTile {
    /// Tile-row index in the tiling grid.
    pub row: u32,
    /// Tile-column index in the tiling grid.
    pub col: u32,
    /// First instance of this tile in the stream.
    pub first_instance: usize,
    /// Instances this tile owns.
    pub n_instances: usize,
}

/// Everything [`ExecutionPlan::from_parts`] needs to reassemble a plan
/// from frozen streams without re-preparing: the shape and schedule
/// inputs, the tile directory, and the eight immutable stream sections
/// (owned or mapped — the plan executes identically either way).
#[derive(Debug)]
pub struct PlanParts {
    /// The hardware configuration the plan prices against.
    pub config: HwConfig,
    /// Matrix rows.
    pub rows: u32,
    /// Matrix columns.
    pub cols: u32,
    /// Tile edge length of the encoding.
    pub tile_size: u32,
    /// Structural nonzeros of the original matrix (for FLOP pricing).
    pub nnz: u64,
    /// The portfolio's template masks, in LUT order.
    pub template_masks: Vec<u16>,
    /// The tile directory, in stream order.
    pub tiles: Vec<FrozenTile>,
    /// Per instance: base of its 4-wide x segment in the padded operand.
    pub x_base: Stream<u32>,
    /// Per instance: y offset within the owning tile row's window.
    pub y_base: Stream<u32>,
    /// Per instance: opcode class (template LUT index).
    pub op_idx: Stream<u8>,
    /// Four value slots per instance.
    pub values: Stream<f32>,
    /// Class-bucketed instance order.
    pub bucket_idx: Stream<u32>,
    /// Class runs into `bucket_idx`, in block order.
    pub class_runs: Stream<ClassRun>,
    /// Per block: prefix of run counts into `class_runs`.
    pub block_runs: Stream<u32>,
    /// Per tile row: prefix of block counts.
    pub row_blocks: Stream<u32>,
}

/// The matrix shape and portfolio [`ExecutionPlan::assemble`] builds
/// around.
struct Shape<'a> {
    config: HwConfig,
    rows: u32,
    cols: u32,
    tile_size: u32,
    nnz: u64,
    template_masks: &'a [u16],
}

impl<'a> Shape<'a> {
    fn of(config: HwConfig, matrix: &'a SpasmMatrix) -> Self {
        Shape {
            config,
            rows: matrix.rows(),
            cols: matrix.cols(),
            tile_size: matrix.tile_size(),
            nnz: matrix.nnz() as u64,
            template_masks: matrix.template_masks(),
        }
    }
}

/// The four bucket tables, in [`PlanStreams`] order.
type BucketStreams = (Stream<u32>, Stream<ClassRun>, Stream<u32>, Stream<u32>);

/// The stream sections a constructor hands [`ExecutionPlan::assemble`]
/// once the tile directory is valid.
struct Sections {
    x_base: Stream<u32>,
    y_base: Stream<u32>,
    op_idx: Stream<u8>,
    values: Stream<f32>,
    // Frozen bucket tables to adopt (wire v3; `from_parts` checks them),
    // or `None` to build them from the layout.
    buckets: Option<BucketStreams>,
}

impl Sections {
    /// Decodes `matrix`'s stream over its validated directory `tiles`,
    /// except that a tile for which `reuse` returns an old SoA span copies
    /// that span verbatim. The values are the matrix's shared `Arc`.
    fn decode<'s>(
        matrix: &SpasmMatrix,
        tiles: &[FrozenTile],
        reuse: impl Fn(&FrozenTile) -> Option<(&'s [u32], &'s [u32], &'s [u8])>,
    ) -> Self {
        let n = matrix.n_instances();
        let mut x_base = Vec::with_capacity(n);
        let mut y_base = Vec::with_capacity(n);
        let mut op_idx = Vec::with_capacity(n);
        let encodings = matrix.encodings();
        for t in tiles {
            if let Some((xs, ys, ops)) = reuse(t) {
                x_base.extend_from_slice(xs);
                y_base.extend_from_slice(ys);
                op_idx.extend_from_slice(ops);
                continue;
            }
            // The tile lies inside the matrix, so `col_base` fits; an
            // encoding past the last column wraps below it and fails the
            // x-base check in `assemble`.
            let col_base = t.col * matrix.tile_size();
            for e in &encodings[t.first_instance..t.first_instance + t.n_instances] {
                x_base.push(col_base.wrapping_add(e.c_idx() * 4));
                y_base.push(e.r_idx() * 4);
                op_idx.push(e.t_idx());
            }
        }
        Sections {
            x_base: Stream::from_vec(x_base),
            y_base: Stream::from_vec(y_base),
            op_idx: Stream::from_vec(op_idx),
            values: Stream::owned(matrix.shared_values().clone()),
            buckets: None,
        }
    }
}

/// The inverse of [`Sections::decode`] for one instance of a validated
/// stream: its position word, without the CE/RE flags, which only the
/// tile directory knows. `assemble` has checked that `x_base` lies in its
/// tile, `col · tile_size ≤ x_base < (col + 1) · tile_size`, so `x_base %
/// tile_size` is `x_base − col · tile_size` and the column comes for free.
fn position_word(tile_size: u32, x_base: u32, y_base: u32, op_idx: u8) -> PositionEncoding {
    PositionEncoding::new(x_base % tile_size / 4, y_base / 4, false, false, op_idx)
}

impl ExecutionPlan {
    /// Builds the plan for `matrix`: decodes its stream into SoA form and
    /// hands it to [`ExecutionPlan::assemble`].
    pub(crate) fn build(config: HwConfig, matrix: &SpasmMatrix) -> Result<Self, SimError> {
        let tiles = directory(matrix);
        Self::assemble(
            Shape::of(config, matrix),
            &tiles,
            matrix.n_instances(),
            |tiles| Sections::decode(matrix, tiles, |_| None),
        )
    }

    /// The one plan constructor behind [`ExecutionPlan::build`],
    /// [`ExecutionPlan::respliced`] and [`ExecutionPlan::from_parts`].
    ///
    /// Validates the tile directory — it must tile the `n`-instance
    /// stream contiguously in strictly ascending `(row, col)` order with
    /// every tile, empty ones too, inside the matrix — before scaling any
    /// tile coordinate, then asks `sections` for the stream. Every
    /// instance must address inside its tile, the padded operands and the
    /// portfolio; the same walk counts the per-tile lane statistics. Then
    /// it compiles the portfolio LUT, derives the tile-row layout, LPT
    /// schedule, report and scratch, and builds the class buckets unless
    /// frozen ones are supplied.
    ///
    /// # Errors
    ///
    /// [`SimError::Integrity`] for a stream-invariant violation,
    /// [`SimError::Opcode`] for an unrealisable portfolio.
    fn assemble(
        shape: Shape<'_>,
        tiles: &[FrozenTile],
        n: usize,
        sections: impl FnOnce(&[FrozenTile]) -> Sections,
    ) -> Result<Self, SimError> {
        let Shape {
            config,
            rows,
            cols,
            tile_size,
            nnz,
            template_masks,
        } = shape;
        let xp_len = (cols as usize).div_ceil(4) * 4;
        let yp_len = (rows as usize).div_ceil(4) * 4;
        let ts = u64::from(tile_size);
        let integrity = |tile_row, check| SimError::Integrity { tile_row, check };

        // Directory, in u64 so hostile coordinates cannot wrap.
        let mut cursor = 0usize;
        let mut prev: Option<(u32, u32)> = None;
        for t in tiles {
            if t.first_instance != cursor
                || t.n_instances > n - cursor
                || prev.is_some_and(|p| (t.row, t.col) <= p)
            {
                return Err(integrity(t.row, IntegrityCheck::InstanceCount));
            }
            if u64::from(t.row) * ts >= u64::from(rows) || u64::from(t.col) * ts >= u64::from(cols)
            {
                return Err(integrity(t.row, IntegrityCheck::EncodingRange));
            }
            cursor += t.n_instances;
            prev = Some((t.row, t.col));
        }
        if cursor != n {
            let last_row = prev.map_or(0, |(row, _)| row);
            return Err(integrity(last_row, IntegrityCheck::InstanceCount));
        }

        // Instances, with the lane statistics for the LPT schedule
        // (`y_base[i] / 4` is the instance's `r_idx`).
        let Sections {
            x_base,
            y_base,
            op_idx,
            values,
            buckets,
        } = sections(tiles);
        let (xs, ys, ops) = (&*x_base, &*y_base, &*op_idx);
        let mut jobs = Vec::with_capacity(tiles.len());
        for t in tiles {
            let col_base = u64::from(t.col) * ts;
            let x_end = (col_base + ts).min(xp_len as u64);
            let w_start = u64::from(t.row) * ts;
            let w_len = (w_start + ts).min(yp_len as u64) - w_start;
            let mut lanes = [0usize; PES_PER_GROUP as usize];
            for i in t.first_instance..t.first_instance + t.n_instances {
                let (xb, yb) = (u64::from(xs[i]), u64::from(ys[i]));
                if xb < col_base
                    || (xb - col_base) % 4 != 0
                    || xb + 4 > x_end
                    || yb % 4 != 0
                    || yb + 4 > w_len
                    || usize::from(ops[i]) >= template_masks.len()
                {
                    return Err(integrity(t.row, IntegrityCheck::EncodingRange));
                }
                lanes[(yb / 4) as usize % lanes.len()] += 1;
            }
            jobs.push(TileJob {
                tile_row: t.row,
                tile_col: t.col,
                n_instances: t.n_instances,
                max_lane_instances: timing::max_lane(&lanes),
            });
        }

        // The compiled portfolio: the PE's opcode LUT (shared by the
        // faulted decoder) and its lane-kernel digest.
        let lut = template_masks
            .iter()
            .map(|&m| ValuOpcode::compile(m))
            .collect::<Result<Vec<_>, _>>()?;
        let kernels: Vec<ClassKernel> =
            lut.iter().map(|&op| ClassKernel::from_opcode(op)).collect();

        // Tile-row layout: each run of same-row tiles (contiguous in the
        // stream) is one worked tile row with an instance span and a
        // disjoint y window over the padded output.
        let mut inst_ranges: Vec<(usize, usize)> = Vec::new();
        let mut window_spans = Vec::new();
        let mut tile_row_ids: Vec<u32> = Vec::new();
        for t in tiles {
            let end = t.first_instance + t.n_instances;
            match inst_ranges.last_mut().zip(tile_row_ids.last()) {
                Some((span, &row)) if row == t.row => span.1 = end,
                _ => {
                    let start = t.row as usize * tile_size as usize;
                    inst_ranges.push((t.first_instance, end));
                    window_spans.push((start, (start + tile_size as usize).min(yp_len)));
                    tile_row_ids.push(t.row);
                }
            }
        }
        let max_window = window_spans
            .iter()
            .map(|&(w0, w1)| w1 - w0)
            .max()
            .unwrap_or(0);

        let (bucket_idx, class_runs, block_runs, row_blocks) = match buckets {
            Some(frozen) => frozen,
            None => {
                let (idx, runs, blocks, row_blocks) =
                    kernel::build_buckets(&inst_ranges, ops, template_masks.len());
                (
                    Stream::from_vec(idx),
                    Stream::from_vec(runs),
                    Stream::from_vec(blocks),
                    Stream::from_vec(row_blocks),
                )
            }
        };

        // Pricing: the LPT schedule through the one pricing pass.
        let y_traffic = timing::y_bytes(
            window_spans
                .iter()
                .map(|&(w0, w1)| (w1.min(rows as usize) - w0) as u32),
        );
        let traffic = Traffic {
            matrix: 20 * n as u64,
            x: tiles.len() as u64 * ts * 4,
            y: y_traffic,
        };
        let assignment = timing::lpt_assign(jobs, config.num_pe_groups, tile_size, &config);
        let (per_group_cycles, cycles) =
            timing::price(&assignment, tile_size, y_traffic, &config, |_| {});
        let flops = 2.0 * nnz as f64 + f64::from(rows);
        let report = ExecReport::priced(&config, per_group_cycles, cycles, traffic, flops);

        Ok(ExecutionPlan {
            rows,
            cols,
            tile_size,
            x_base,
            y_base,
            op_idx,
            lut,
            kernels,
            values,
            bucket_idx,
            class_runs,
            block_runs,
            row_blocks,
            xb: vec![0.0; xp_len],
            window: vec![0.0; max_window],
            inst_ranges,
            window_spans,
            tile_row_ids,
            assignment,
            report,
            xstride: xp_len,
            batch: 0,
            vp: vec![0.0; max_window],
            vq: Vec::new(),
            #[cfg(feature = "fault-injection")]
            armed: None,
            config,
        })
    }

    /// Replaces the plan's value stream copy-on-write: installs `values`
    /// (typically the buffer returned by `SpasmMatrix::patch_values`)
    /// under a bumped [`ExecutionPlan::version`].
    ///
    /// Clones of this plan — and executions already reading the old
    /// buffer — keep the previous values; only subsequent runs of *this*
    /// plan see the new ones. Works on mapped plans too (the value
    /// stream becomes owned; [`ExecutionPlan::memory_bytes`] reprices
    /// accordingly).
    ///
    /// # Errors
    ///
    /// [`SimError::Plan`] when `values` does not hold exactly four slots
    /// per instance; the plan is untouched.
    pub fn adopt_values(&mut self, values: Arc<[f32]>) -> Result<(), SimError> {
        if values.len() != self.values.len() {
            return Err(SimError::Plan("adopted value stream has the wrong length"));
        }
        let next = self.values.version() + 1;
        self.values = Stream::owned(values).with_version(next);
        Ok(())
    }

    /// The plan's content generation: 0 as prepared, bumped by every
    /// [`ExecutionPlan::adopt_values`] and [`ExecutionPlan::respliced`].
    pub fn version(&self) -> u64 {
        self.values.version()
    }

    /// Restamps the plan's content generation without touching its data.
    /// The update path uses this to keep version stamps monotonic when a
    /// drifting delta forces a full re-prepare (which otherwise builds a
    /// fresh plan at generation 0).
    pub fn restamp_version(&mut self, version: u64) {
        self.values = self.values.clone().with_version(version);
    }

    /// Builds the successor plan for a structurally spliced matrix,
    /// reusing this plan's decoded SoA spans for untouched tiles.
    ///
    /// `matrix` is the spliced encoding (`SpasmMatrix::spliced`),
    /// `old_tiles` the *pre-splice* tile directory (the plan itself keeps
    /// no directory), and `touched` the `(tile_row, tile_col)` keys of
    /// tiles holding a replaced submatrix. Untouched tiles' x/y-base and
    /// opcode-class spans are copied from this plan verbatim — their
    /// decode is a pure function of tile-local content, which did not
    /// change; CE/RE boundary flags are not part of the SoA form, so
    /// global restamping does not invalidate the spans. Touched tiles are
    /// decoded from the new stream. Everything else, the class buckets
    /// included, goes through the same constructor as a fresh prepare, so
    /// the result is bit-identical to preparing the mutated matrix from
    /// scratch, with the version bumped.
    ///
    /// # Errors
    ///
    /// [`SimError::Plan`] when the spliced matrix changed shape, tiling
    /// or portfolio; [`SimError::Integrity`] when its stream fails
    /// validation. The plan is untouched on error.
    pub fn respliced(
        &self,
        matrix: &SpasmMatrix,
        old_tiles: &[spasm_format::Tile],
        touched: &[(u32, u32)],
    ) -> Result<ExecutionPlan, SimError> {
        if matrix.rows() != self.rows
            || matrix.cols() != self.cols
            || matrix.tile_size() != self.tile_size
        {
            return Err(SimError::Plan("spliced matrix changed shape or tiling"));
        }
        if matrix.template_masks().len() != self.lut.len() {
            return Err(SimError::Plan("spliced matrix changed the portfolio"));
        }
        let touched: std::collections::HashSet<(u32, u32)> = touched.iter().copied().collect();
        // The old plan's span for an untouched tile of unchanged size.
        let reuse = |t: &FrozenTile| {
            if touched.contains(&(t.row, t.col)) {
                return None;
            }
            let k = old_tiles
                .binary_search_by_key(&(t.row, t.col), |o| (o.tile_row, o.tile_col))
                .ok()?;
            let old = &old_tiles[k];
            let s = old.first_instance..old.first_instance + old.n_instances;
            (old.n_instances == t.n_instances).then(|| {
                (
                    &self.x_base[s.clone()],
                    &self.y_base[s.clone()],
                    &self.op_idx[s],
                )
            })
        };
        let version = self.version() + 1;
        let tiles = directory(matrix);
        Self::assemble(
            Shape::of(self.config.clone(), matrix),
            &tiles,
            matrix.n_instances(),
            |tiles| {
                let mut sections = Sections::decode(matrix, tiles, reuse);
                sections.values = sections.values.with_version(version);
                sections
            },
        )
    }

    /// Reassembles an executable plan from frozen parts — the wire-v3
    /// load path. The streams may be owned or mapped; either way the
    /// resulting plan executes bit-identically to one built by
    /// `prepare` from the same matrix, through the same executor.
    ///
    /// The parts may come from a hostile or corrupted buffer. The stream
    /// goes through the same constructor — and so the same directory and
    /// per-instance checks — as a fresh prepare; what only parts can get
    /// wrong is checked here: the configuration, tile size, portfolio
    /// size, section lengths, `nnz` and the full bucket directory (blocks
    /// partition each tile row, runs partition each block, indices are an
    /// in-block permutation agreeing with `op_idx`). No mapped section is
    /// copied.
    ///
    /// # Errors
    ///
    /// [`SimError::Integrity`] for a stream-invariant violation, as from
    /// `prepare`; [`SimError::Plan`] naming any other violated invariant;
    /// [`SimError::Opcode`] for an unrealisable portfolio. Never panics.
    pub fn from_parts(parts: PlanParts) -> Result<Self, SimError> {
        let PlanParts {
            config,
            rows,
            cols,
            tile_size,
            nnz,
            template_masks,
            tiles,
            x_base,
            y_base,
            op_idx,
            values,
            bucket_idx,
            class_runs,
            block_runs,
            row_blocks,
        } = parts;
        let config = config.checked().map_err(SimError::Plan)?;
        if tile_size == 0 || !tile_size.is_multiple_of(4) {
            return Err(SimError::Plan("tile size must be a positive multiple of 4"));
        }
        if tile_size > MAX_TILE_SIZE {
            return Err(SimError::Plan(
                "tile size exceeds the position word's range",
            ));
        }
        if template_masks.is_empty() || template_masks.len() > 16 {
            return Err(SimError::Plan("portfolio must hold 1..=16 templates"));
        }
        let n = op_idx.len();
        if x_base.len() != n || y_base.len() != n || bucket_idx.len() != n || values.len() != 4 * n
        {
            return Err(SimError::Plan("stream section lengths disagree"));
        }
        if nnz > 4 * n as u64 {
            return Err(SimError::Plan("nnz exceeds the stream's value slots"));
        }

        let shape = Shape {
            config,
            rows,
            cols,
            tile_size,
            nnz,
            template_masks: &template_masks,
        };
        let plan = Self::assemble(shape, &tiles, n, |_| Sections {
            x_base,
            y_base,
            op_idx,
            values,
            buckets: Some((bucket_idx, class_runs, block_runs, row_blocks)),
        })?;
        plan.check_buckets()?;
        Ok(plan)
    }

    /// Checks adopted bucket tables against the plan's layout and stream:
    /// blocks partition each tile row, runs partition each block with
    /// strictly ascending classes inside the portfolio, and each block's
    /// indices are a permutation of its instance span whose classes agree
    /// with `op_idx`.
    fn check_buckets(&self) -> Result<(), SimError> {
        let (bucket_idx, class_runs) = (&*self.bucket_idx, &*self.class_runs);
        let (block_runs, row_blocks) = (&*self.block_runs, &*self.row_blocks);
        if row_blocks.len() != self.inst_ranges.len() + 1 || row_blocks.first() != Some(&0) {
            return Err(SimError::Plan("row-block prefix has the wrong shape"));
        }
        for (r, &(i0, i1)) in self.inst_ranges.iter().enumerate() {
            let want = (i1 - i0).div_ceil(kernel::EXEC_BLOCK) as u32;
            if row_blocks[r + 1].checked_sub(row_blocks[r]) != Some(want) {
                return Err(SimError::Plan("row-block prefix disagrees with the layout"));
            }
        }
        let n_blocks = row_blocks.last().map_or(0, |&b| b as usize);
        if block_runs.len() != n_blocks + 1
            || block_runs.first() != Some(&0)
            || block_runs.last() != Some(&(class_runs.len() as u32))
            || block_runs.windows(2).any(|w| w[0] > w[1])
        {
            return Err(SimError::Plan("block-run prefix has the wrong shape"));
        }
        let mut seen = vec![u32::MAX; kernel::EXEC_BLOCK];
        let mut b = 0usize;
        for &(i0, i1) in &self.inst_ranges {
            let mut blk_i0 = i0;
            while blk_i0 < i1 {
                let blk_i1 = (blk_i0 + kernel::EXEC_BLOCK).min(i1);
                let mut cur = blk_i0 as u32;
                let mut last_class: Option<u32> = None;
                for &cr in &class_runs[block_runs[b] as usize..block_runs[b + 1] as usize] {
                    if cr.start != cur || cr.end <= cr.start || cr.end as usize > blk_i1 {
                        return Err(SimError::Plan("class runs do not partition their block"));
                    }
                    cur = cr.end;
                    if cr.class as usize >= self.lut.len() {
                        return Err(SimError::Plan(
                            "class run names a template outside the portfolio",
                        ));
                    }
                    if last_class.is_some_and(|lc| cr.class <= lc) {
                        return Err(SimError::Plan(
                            "class runs must strictly ascend within a block",
                        ));
                    }
                    last_class = Some(cr.class);
                    for &idx in &bucket_idx[cr.start as usize..cr.end as usize] {
                        let i = idx as usize;
                        if i < blk_i0 || i >= blk_i1 {
                            return Err(SimError::Plan("bucket index outside its block"));
                        }
                        if u32::from(self.op_idx[i]) != cr.class {
                            return Err(SimError::Plan(
                                "bucket index class disagrees with the stream",
                            ));
                        }
                        let slot = i - blk_i0;
                        if seen[slot] == b as u32 {
                            return Err(SimError::Plan("duplicate bucket index in a block"));
                        }
                        seen[slot] = b as u32;
                    }
                }
                if cur as usize != blk_i1 {
                    return Err(SimError::Plan("class runs do not cover their block"));
                }
                blk_i0 = blk_i1;
                b += 1;
            }
        }
        Ok(())
    }

    /// The hardware configuration this plan was priced on.
    pub fn config(&self) -> &HwConfig {
        &self.config
    }

    /// Matrix rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Matrix columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// The tile edge length of the encoded matrix.
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Instances per bucketing block: the granule of the prepare-time
    /// pattern-class bucketing (see [`ExecutionPlan::bucket_order`]).
    pub const EXEC_BLOCK: usize = kernel::EXEC_BLOCK;

    /// Batch vectors fused per instance walk by the executor: the width
    /// of one lane block of the vector-blocked batch scratch.
    pub const LANE_BLOCK: usize = kernel::LANE_BLOCK;

    /// Template instances in the pre-decoded stream.
    pub fn n_instances(&self) -> usize {
        self.op_idx.len()
    }

    /// Worked tile rows (each owns a disjoint y window).
    pub fn n_tile_rows(&self) -> usize {
        self.inst_ranges.len()
    }

    /// The instance span of worked tile row `r` in the pre-decoded
    /// stream, if `r` is in range.
    pub fn instance_range(&self, r: usize) -> Option<(usize, usize)> {
        self.inst_ranges.get(r).copied()
    }

    /// The prepare-time class bucketing: instance indices, block-wise
    /// stably sorted by opcode class. Each
    /// [`ExecutionPlan::EXEC_BLOCK`]-aligned slice of a tile row's span
    /// is a permutation of the corresponding stream positions (the
    /// bucketing property test pins this down). The executor walks the
    /// stream in order and does not read this; wire v3 stores it.
    pub fn bucket_order(&self) -> &[u32] {
        &self.bucket_idx
    }

    /// Per-instance opcode class: the template LUT index driving both the
    /// lane kernel and the per-instance reference (1 byte per instance).
    pub fn opcode_classes(&self) -> &[u8] {
        &self.op_idx
    }

    /// The LPT tile-to-group assignment computed at prepare time.
    pub fn assignment(&self) -> &[Vec<TileJob>] {
        &self.assignment
    }

    /// The plan's flattened value stream when it is heap-owned — the same
    /// `Arc` as [`SpasmMatrix::shared_values`] of the matrix it was
    /// prepared from (shared, never copied; `tests/alloc_free.rs` asserts
    /// this). `None` for plans whose streams are mapped out of a wire-v3
    /// buffer (those own no value bytes at all).
    pub fn shared_values(&self) -> Option<&Arc<[f32]>> {
        self.values.as_owned()
    }

    /// The cached execution report — a pure function of `(matrix,
    /// config)` except for [`ExecReport::health`], which reflects the most
    /// recent execution (all-clean until a run observes otherwise).
    pub fn report(&self) -> &ExecReport {
        &self.report
    }

    /// Executes `y += A·x` against the prepared matrix, returning the
    /// cached report: a batch of one through the same executor as
    /// [`ExecutionPlan::run_batch`], with the report's batch stamp cleared.
    ///
    /// Bit-identical to a fresh plan of the same matrix and configuration
    /// and to [`ExecutionPlan::run_reference`]. Performs no heap
    /// allocation at steady state.
    ///
    /// This is the unguarded path: armed faults (under the
    /// `fault-injection` feature) strike the execution and are *not*
    /// detected — use [`ExecutionPlan::run_verified`] for verified
    /// execution.
    ///
    /// # Errors
    ///
    /// [`SimError::DimensionMismatch`] on operand length mismatches.
    pub fn run(&mut self, x: &[f32], y: &mut [f32]) -> Result<&ExecReport, SimError> {
        self.check_x(x)?;
        self.check_y(y)?;
        self.forward(&[x], &mut [y]);
        self.report.batch = None;
        Ok(&self.report)
    }

    /// Executes `ys[j] += A·xs[j]` for every vector of the batch in one
    /// call — the serving shape of multi-RHS solvers and
    /// SpMM-as-batched-SpMV inference.
    ///
    /// All x-vectors are padded once into a strided scratch; the
    /// pre-decoded instance stream is then walked once per (tile row ×
    /// lane block) and applied to up to [`ExecutionPlan::LANE_BLOCK`]
    /// vectors while it is hot in cache, instead of being re-streamed per
    /// vector. Each output is bit-identical to a looped
    /// [`ExecutionPlan::run`] over the same vectors, for every batch size,
    /// and the scratch is reused: after the first call at a given batch
    /// size the steady state performs no heap allocation.
    ///
    /// On success the cached report carries a [`BatchReport`] with the
    /// amortised batch pricing (initialisation and the matrix stream are
    /// paid once per batch).
    ///
    /// Armed faults (under the `fault-injection` feature) strike batched
    /// execution too: plans armed via
    /// `arm_faults_for_vector` strike only their target vector.
    ///
    /// # Errors
    ///
    /// [`SimError::DimensionMismatch`] when `xs` and `ys` disagree in
    /// length (operand `"batch"`), or [`SimError::BatchDimensionMismatch`]
    /// naming the offending vector index when any individual vector has
    /// the wrong length. All shapes are validated up front: on error no
    /// output vector has been touched.
    pub fn run_batch<X, Y>(&mut self, xs: &[X], ys: &mut [Y]) -> Result<&ExecReport, SimError>
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        self.check_batch(xs, ys)?;
        self.forward(xs, ys);
        self.stamp_batch(xs.len());
        Ok(&self.report)
    }

    /// The scalar reference: `ys[j] += A·xs[j]` computed serially, one
    /// (tile row, vector) window at a time, one instance at a time through
    /// the portfolio LUT — the per-instance walk the verification oracle
    /// uses. Bit-identical to [`ExecutionPlan::run_batch`] (the
    /// differential suite asserts it); kept as the baseline for tests and
    /// benchmarks. Ignores armed faults. Stamps the report like
    /// `run_batch`.
    ///
    /// # Errors
    ///
    /// As [`ExecutionPlan::run_batch`].
    pub fn run_reference<X, Y>(&mut self, xs: &[X], ys: &mut [Y]) -> Result<&ExecReport, SimError>
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        self.check_batch(xs, ys)?;
        self.load_batch(xs);
        let (exec, s) = self.split();
        exec.fold_pairs(s.window, ys, |exec, r, lane0, lanes, window| {
            window.fill(0.0);
            for j in lane0..exec.batch.min(lane0 + kernel::LANE_BLOCK) {
                process_span(exec, r, j, &mut window[j - lane0..], lanes);
            }
        });
        self.report.health = HealthReport::default();
        self.stamp_batch(xs.len());
        Ok(&self.report)
    }

    /// Stamps the cached report with amortised pricing for a
    /// `vectors`-sized batch. [`ExecutionPlan::run_batch`] does this
    /// itself; front-ends that drive a batch through the verified ladder
    /// ([`ExecutionPlan::run_verified`] plus their own cross-checks and
    /// fallbacks) call it once at the end so the report they hand out
    /// reflects the batch.
    pub fn stamp_batch(&mut self, vectors: usize) {
        let cycles = timing::batch_cycles(self.report.cycles, vectors);
        let seconds = self.config.cycles_to_seconds(cycles);
        let t = self.report.traffic;
        let div = vectors.max(1) as f64;
        self.report.batch = Some(BatchReport {
            vectors,
            cycles,
            seconds,
            amortised_cycles_per_vector: cycles as f64 / div,
            amortised_seconds_per_vector: seconds / div,
            traffic: Traffic {
                matrix: t.matrix,
                x: t.x * vectors as u64,
                y: t.y * vectors as u64,
            },
        });
    }

    /// Executes `ys[j] += A·xs[j]` for every vector of the batch, vector
    /// `j` verified against the pristine stream on what `scope(j)` selects
    /// and on nothing else — so one pass can serve unverified, sampled and
    /// fully verified vectors side by side. Each (tile row × lane block)
    /// window is checked right after its kernel call and before it is
    /// folded: [`VerifyScope::All`] checks vector `j`'s lane of the whole
    /// window with the per-instance oracle; [`VerifyScope::Rows`]
    /// recomputes only the named output rows inside the window and
    /// escalates a mismatch to the whole-window check.
    ///
    /// A window lane that disagrees is quarantined and its lane block
    /// re-executed once from the pristine stream (persistent lane faults
    /// remain in effect); the outcome is written to `health[j]`, and their
    /// sum becomes the report's health. Every vector is folded into its
    /// `y` whatever its outcome, so a caller that must leave a failed
    /// vector's `y` untouched — or recompute it on a golden path — keeps a
    /// copy of that `y` from before the call. After each
    /// [`VerifyScope::Rows`] window is settled, `on_row(j, k, value)`
    /// hands over the verified contribution `(A·xs[j])[rows[k]]` of each
    /// named row `rows[k]` inside it, for cross-checks of the caller's
    /// own; rows outside every worked tile row are neither verified nor
    /// handed over. Clears the report's batch stamp.
    ///
    /// # Errors
    ///
    /// As [`ExecutionPlan::run_batch`], and
    /// [`SimError::DimensionMismatch`] (operand `"health"`) when `health`
    /// does not hold one report per vector. Nothing is executed on error.
    pub fn run_verified<'s, X, Y>(
        &mut self,
        xs: &[X],
        ys: &mut [Y],
        scope: impl Fn(usize) -> VerifyScope<'s>,
        health: &mut [HealthReport],
        mut on_row: impl FnMut(usize, usize, f32),
    ) -> Result<&ExecReport, SimError>
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        self.check_batch(xs, ys)?;
        if health.len() != xs.len() {
            return Err(SimError::DimensionMismatch {
                expected: xs.len(),
                actual: health.len(),
                operand: "health",
            });
        }
        for (j, h) in health.iter_mut().enumerate() {
            *h = self.armed_health(j);
        }
        self.load_batch(xs);
        let (exec, Scratch { window, vp, vq }) = self.split();
        exec.fold_pairs(window, ys, |exec, r, lane0, lanes, window| {
            exec.row_lanes(r, lane0, lanes, window);
            let (w0, w1) = exec.window_spans[r];
            for j in lane0..exec.batch.min(lane0 + kernel::LANE_BLOCK) {
                let h = &mut health[j];
                match scope(j) {
                    VerifyScope::None => {}
                    VerifyScope::All => exec.verify_window(r, j, window, vp, vq, h),
                    VerifyScope::Rows(rows) => {
                        let lo = rows.partition_point(|&row| row < w0);
                        let mine = &rows[lo..lo + rows[lo..].partition_point(|&row| row < w1)];
                        h.rows_verified += mine.len() as u32;
                        if mine.iter().any(|&row| !exec.row_matches(window, r, j, row)) {
                            exec.verify_window(r, j, window, vp, vq, h);
                        }
                        for (k, &row) in (lo..).zip(mine) {
                            on_row(j, k, window[(row - w0) * lanes + j - lane0]);
                        }
                    }
                }
            }
        });
        self.report.health = health
            .iter()
            .copied()
            .fold(HealthReport::default(), merge_health);
        self.report.batch = None;
        Ok(&self.report)
    }

    /// Overwrites the cached report's [`ExecReport::health`]. For
    /// front-ends that extend verification beyond the plan (e.g. residual
    /// cross-checks against a golden reference, or a fallback taken on the
    /// plan's behalf) so the report they hand out reflects the full story.
    pub fn annotate_health(&mut self, health: HealthReport) {
        self.report.health = health;
    }

    /// The *owned* resident size of this plan in bytes: the pre-decoded
    /// SoA stream (1-byte opcode classes plus the portfolio LUT), the
    /// pattern-class bucket directory, tile-row layout, scheduling state
    /// and reusable scratch (batch operands, oracle and retry windows), plus
    /// the value stream — counting only heap-owned stream sections.
    /// Sections mapped out of a wire-v3 buffer are excluded here and
    /// reported by [`ExecutionPlan::mapped_bytes`] instead, so a cache
    /// can price owned memory and pinned file mappings separately.
    ///
    /// An owned value stream is `Arc`-shared with the owning matrix and
    /// any sibling plans, but it is counted here in full so the figure is
    /// a safe upper bound for cache budgeting — evicting the plan may or
    /// may not actually free those bytes depending on other holders.
    /// Buffer lengths (not capacities) are counted. The x scratch grows
    /// with the widest batch seen (one padded x per vector); the pair
    /// window, oracle and retry scratch are bounded by the largest tile-row
    /// window times [`ExecutionPlan::LANE_BLOCK`] whatever the batch (the
    /// window grows to its lane block's width on first use, the retry
    /// scratch on the first quarantine retry). No term grows with rows ×
    /// batch: the outputs are folded pair by pair into the caller's
    /// vectors.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        fn owned<T>(s: &Stream<T>) -> usize {
            if s.is_mapped() {
                0
            } else {
                std::mem::size_of_val(&**s)
            }
        }
        let f32s = self.xb.len() + self.window.len() + self.vp.len() + self.vq.len();
        size_of::<Self>()
            + f32s * size_of::<f32>()
            + owned(&self.values)
            + owned(&self.x_base)
            + owned(&self.y_base)
            + owned(&self.op_idx)
            + self.lut.len() * size_of::<ValuOpcode>()
            + self.kernels.len() * size_of::<ClassKernel>()
            + owned(&self.bucket_idx)
            + owned(&self.class_runs)
            + owned(&self.block_runs)
            + owned(&self.row_blocks)
            + self.inst_ranges.len() * size_of::<(usize, usize)>()
            + self.window_spans.len() * size_of::<(usize, usize)>()
            + self.tile_row_ids.len() * size_of::<u32>()
            + self
                .assignment
                .iter()
                .map(|jobs| size_of::<Vec<TileJob>>() + jobs.len() * size_of::<TileJob>())
                .sum::<usize>()
    }

    /// Bytes this plan reads zero-copy out of a mapped wire-v3 buffer
    /// (0 for plans built by `prepare`). These bytes are pinned in the
    /// backing buffer, not owned by the plan; together with
    /// [`ExecutionPlan::memory_bytes`] they describe the plan's full
    /// working set.
    pub fn mapped_bytes(&self) -> usize {
        fn mapped<T>(s: &Stream<T>) -> usize {
            if s.is_mapped() {
                std::mem::size_of_val(&**s)
            } else {
                0
            }
        }
        mapped(&self.values)
            + mapped(&self.x_base)
            + mapped(&self.y_base)
            + mapped(&self.op_idx)
            + mapped(&self.bucket_idx)
            + mapped(&self.class_runs)
            + mapped(&self.block_runs)
            + mapped(&self.row_blocks)
    }

    /// Borrowed views of the plan's immutable stream sections — exactly
    /// the byte content wire v3 freezes. The `spasm-store` serialiser
    /// reads these; everything else about the plan (portfolio LUT,
    /// tile-row layout, schedule, scratch) is derived from them plus the
    /// tile directory at load time.
    pub fn streams(&self) -> PlanStreams<'_> {
        PlanStreams {
            x_base: &self.x_base,
            y_base: &self.y_base,
            op_idx: &self.op_idx,
            values: &self.values,
            bucket_idx: &self.bucket_idx,
            class_runs: &self.class_runs,
            block_runs: &self.block_runs,
            row_blocks: &self.row_blocks,
        }
    }

    /// The position words of the plan's stream, in stream order, derived
    /// from its SoA form: `c_idx = (x_base − col · tile_size) / 4`, `r_idx
    /// = y_base / 4`, `t_idx = op_idx`. The CE/RE flags are clear; the
    /// tile directory stamps them (`SpasmMatrix::from_stream`). With the
    /// plan's value stream and the directory this is the whole encoded
    /// matrix, so a wire-v3 file need not store it a second time.
    pub fn position_words(&self) -> impl Iterator<Item = PositionEncoding> + '_ {
        let ts = self.tile_size;
        (0..self.op_idx.len())
            .map(move |i| position_word(ts, self.x_base[i], self.y_base[i], self.op_idx[i]))
    }

    fn check_x(&self, x: &[f32]) -> Result<(), SimError> {
        if x.len() != self.cols as usize {
            return Err(SimError::DimensionMismatch {
                expected: self.cols as usize,
                actual: x.len(),
                operand: "x",
            });
        }
        Ok(())
    }

    fn check_y(&self, y: &[f32]) -> Result<(), SimError> {
        if y.len() != self.rows as usize {
            return Err(SimError::DimensionMismatch {
                expected: self.rows as usize,
                actual: y.len(),
                operand: "y",
            });
        }
        Ok(())
    }

    /// Validates a whole batch's shapes up front, so an error leaves every
    /// output untouched.
    fn check_batch<X, Y>(&self, xs: &[X], ys: &mut [Y]) -> Result<(), SimError>
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        if xs.len() != ys.len() {
            return Err(SimError::DimensionMismatch {
                expected: xs.len(),
                actual: ys.len(),
                operand: "batch",
            });
        }
        for (j, x) in xs.iter().enumerate() {
            if x.as_ref().len() != self.cols as usize {
                return Err(SimError::BatchDimensionMismatch {
                    vector: j,
                    expected: self.cols as usize,
                    actual: x.as_ref().len(),
                    operand: "x",
                });
            }
        }
        for (j, y) in ys.iter_mut().enumerate() {
            if y.as_mut().len() != self.rows as usize {
                return Err(SimError::BatchDimensionMismatch {
                    vector: j,
                    expected: self.rows as usize,
                    actual: y.as_mut().len(),
                    operand: "y",
                });
            }
        }
        Ok(())
    }

    /// Interleaves every x vector into the vector-blocked batch scratch
    /// and sizes the pair window for the batch's widest lane block; the
    /// window is zeroed just before each kernel call, not here. Both
    /// buffers grow on first use beyond one vector and are reused
    /// afterwards. Each lane block is written column-outer at its padded
    /// width, pad lanes zeroed, and its pad columns beyond `cols` are
    /// re-zeroed on every load: a block's width, and so its stride,
    /// changes with the batch size, so stale values of an earlier batch
    /// may sit where this batch's padding goes.
    fn load_batch<X: AsRef<[f32]>>(&mut self, xs: &[X]) {
        let (xstride, cols) = (self.xstride, self.cols as usize);
        let need_x = xstride * padded_batch(xs.len());
        if self.xb.len() < need_x {
            self.xb.resize(need_x, 0.0);
        }
        for (block, dst) in xs
            .chunks(kernel::LANE_BLOCK)
            .zip(self.xb.chunks_mut((kernel::LANE_BLOCK * xstride).max(1)))
        {
            let lanes = kernel::padded_width(block.len());
            kernel::interleave(block, dst);
            dst[lanes * cols..lanes * xstride].fill(0.0);
        }
        // `vp` holds one largest window.
        let need_w = self.vp.len() * kernel::padded_width(xs.len().min(kernel::LANE_BLOCK));
        if self.window.len() < need_w {
            self.window.resize(need_w, 0.0);
        }
        self.batch = xs.len();
    }

    /// The unguarded batch execution behind `run` and `run_batch`:
    /// `ys[j] += A·xs[j]` through the executor, with injection-level
    /// health on the report. Shapes must already be validated.
    fn forward<X, Y>(&mut self, xs: &[X], ys: &mut [Y])
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        self.load_batch(xs);
        let (exec, s) = self.split();
        exec.fold_pairs(s.window, ys, Exec::row_lanes);
        self.report.health = (0..xs.len())
            .map(|j| self.armed_health(j))
            .fold(HealthReport::default(), merge_health);
    }

    /// Injection-level health of vector `lane`: what is armed on the plan
    /// *and striking that lane*, before any verification has looked at
    /// the output.
    fn armed_health(&self, _lane: usize) -> HealthReport {
        #[cfg(feature = "fault-injection")]
        if let Some(af) = &self.armed {
            if af.strikes_lane(_lane) {
                return HealthReport {
                    faults_injected: af.applied,
                    stall_cycles: af.stall_cycles,
                    ..HealthReport::default()
                };
            }
        }
        HealthReport::default()
    }

    /// Splits `self` into the disjoint borrows execution needs: a
    /// shareable [`Exec`] view of the stream, portfolio, layout and loaded
    /// x vectors alongside the mutable scratch — one destructure instead
    /// of per-call-site field juggling.
    fn split(&mut self) -> (Exec<'_>, Scratch<'_>) {
        let ExecutionPlan {
            rows,
            #[cfg(feature = "fault-injection")]
            tile_size,
            x_base,
            y_base,
            op_idx,
            lut,
            kernels,
            values,
            inst_ranges,
            window_spans,
            tile_row_ids,
            xstride,
            xb,
            window,
            batch,
            vp,
            vq,
            #[cfg(feature = "fault-injection")]
            armed,
            ..
        } = self;
        let exec = Exec {
            rows: *rows as usize,
            soa: SoaRef {
                x_base,
                y_base,
                op_idx,
                values,
                kernels,
            },
            inst_ranges,
            lut,
            window_spans,
            tile_row_ids,
            xb,
            xstride: *xstride,
            batch: *batch,
            #[cfg(feature = "fault-injection")]
            faults: armed.as_ref().map(|armed| FaultHook {
                armed,
                tile_size: *tile_size,
                stream_faults: true,
            }),
        };
        let scratch = Scratch { window, vp, vq };
        (exec, scratch)
    }
}

#[cfg(feature = "fault-injection")]
impl ExecutionPlan {
    /// Arms a seeded fault plan: subsequent executions strike the decode
    /// path with its faults, deterministically. Replaces any previously
    /// armed plan. Only available under the
    /// `fault-injection` cargo feature.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.armed = Some(ArmedFaults::from_plan(plan));
    }

    /// Arms a seeded fault plan that strikes only batch vector `vector`:
    /// in every batched execution — [`ExecutionPlan::run_batch`] and
    /// [`ExecutionPlan::run_verified`] — exactly that vector is struck and
    /// the rest execute pristine (single-vector runs are vector 0).
    /// Replaces any previously armed plan.
    pub fn arm_faults_for_vector(&mut self, plan: FaultPlan, vector: usize) {
        let mut af = ArmedFaults::from_plan(plan);
        af.target = Some(vector);
        self.armed = Some(af);
    }

    /// Disarms fault injection; subsequent executions are pristine.
    pub fn disarm_faults(&mut self) {
        self.armed = None;
    }

    /// The currently armed fault plan, if any.
    pub fn armed_faults(&self) -> Option<&FaultPlan> {
        self.armed.as_ref().map(|af| &af.plan)
    }
}

/// A [`FaultPlan`] preprocessed for the executor: encoding xors merged per
/// instance and sorted, value flips sorted, lane masks and stall totals
/// folded.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone)]
struct ArmedFaults {
    plan: FaultPlan,
    /// Merged per-instance encoding xor masks, sorted by instance.
    enc: Vec<(usize, u32)>,
    /// Value-slot bit flips `(instance, slot, bit)`, sorted.
    val: Vec<(usize, u8, u8)>,
    lane_zero: [bool; 4],
    stall_cycles: u64,
    applied: u32,
    /// `Some(v)`: strike only executions on behalf of batch vector `v`;
    /// `None`: strike every execution.
    target: Option<usize>,
}

#[cfg(feature = "fault-injection")]
impl ArmedFaults {
    fn from_plan(plan: FaultPlan) -> Self {
        let mut enc: Vec<(usize, u32)> = Vec::new();
        let mut val: Vec<(usize, u8, u8)> = Vec::new();
        let mut lane_zero = [false; 4];
        let mut stall_cycles = 0u64;
        for f in plan.faults() {
            match *f {
                Fault::EncodingFlip { instance, bit } => enc.push((instance, 1u32 << (bit % 32))),
                Fault::ValueFlip {
                    instance,
                    slot,
                    bit,
                } => val.push((instance, slot % 4, bit % 32)),
                Fault::LaneStuckZero { lane } => lane_zero[(lane as usize) % 4] = true,
                Fault::ChannelStall { cycles, .. } => stall_cycles += u64::from(cycles),
            }
        }
        enc.sort_unstable_by_key(|&(i, _)| i);
        let mut merged: Vec<(usize, u32)> = Vec::with_capacity(enc.len());
        for (i, mask) in enc {
            match merged.last_mut() {
                Some((j, acc)) if *j == i => *acc ^= mask,
                _ => merged.push((i, mask)),
            }
        }
        val.sort_unstable();
        let applied = plan.faults().len() as u32;
        ArmedFaults {
            plan,
            enc: merged,
            val,
            lane_zero,
            stall_cycles,
            applied,
            target: None,
        }
    }

    /// Whether this plan strikes executions on behalf of `lane`.
    fn strikes_lane(&self, lane: usize) -> bool {
        self.target.is_none_or(|t| t == lane)
    }

    /// The xor mask to apply to instance `i`'s encoding word (0 if the
    /// instance is not struck).
    fn enc_xor(&self, i: usize) -> u32 {
        match self.enc.binary_search_by_key(&i, |&(j, _)| j) {
            Ok(k) => self.enc[k].1,
            Err(_) => 0,
        }
    }

    /// Applies value-slot bit flips targeting instance `i`.
    fn apply_value_faults(&self, i: usize, v: &mut [f32; 4]) {
        let start = self.val.partition_point(|&(j, _, _)| j < i);
        for &(j, slot, bit) in &self.val[start..] {
            if j != i {
                break;
            }
            let s = slot as usize;
            v[s] = f32::from_bits(v[s].to_bits() ^ (1u32 << bit));
        }
    }
}

/// Shared, read-only view of one [`ExecutionPlan`] for the executor (see
/// [`ExecutionPlan::split`]): the pre-decoded stream, portfolio tables,
/// tile-row and window layout and the loaded x vectors.
#[derive(Clone)]
struct Exec<'a> {
    rows: usize,
    soa: SoaRef<'a>,
    inst_ranges: &'a [(usize, usize)],
    lut: &'a [ValuOpcode],
    window_spans: &'a [(usize, usize)],
    tile_row_ids: &'a [u32],
    xb: &'a [f32],
    xstride: usize,
    batch: usize,
    #[cfg(feature = "fault-injection")]
    faults: Option<FaultHook<'a>>,
}

/// The plan's mutable scratch, borrowed alongside an [`Exec`]: the pair
/// window, the verification oracle and the quarantine retry.
struct Scratch<'a> {
    window: &'a mut [f32],
    vp: &'a mut [f32],
    vq: &'a mut Vec<f32>,
}

/// An armed fault plan plus the tile size the faulted decoder needs to
/// re-derive each instance's position word. `stream_faults` is cleared
/// for the quarantine retry, which re-reads the pristine stream, so only
/// persistent lane faults strike it.
#[cfg(feature = "fault-injection")]
#[derive(Clone)]
struct FaultHook<'a> {
    armed: &'a ArmedFaults,
    tile_size: u32,
    stream_faults: bool,
}

impl Exec<'_> {
    /// Runs `pair(exec, r, lane0, lanes, window)` on every (tile row ×
    /// lane block) pair — `window` is the pair's slice of the one reused
    /// window, which `pair` must overwrite — and folds the window into
    /// its block of `ys` (`ys[j] += A·xs[j]`) right after, while it is
    /// still in cache. Each fold is preceded by the `+= 0.0` on the rows
    /// between the previous worked window and this one, and the rows after
    /// the last window get theirs at the end: the hardware's full-length y
    /// write-back, which normalises a caller's `-0.0` to `+0.0`. Pad lanes
    /// are skipped. Every output row gets exactly one add, so every
    /// execution path — and every batch size — writes `y` identically,
    /// even on signed zeros.
    fn fold_pairs<Y: AsMut<[f32]>>(
        &self,
        window: &mut [f32],
        ys: &mut [Y],
        mut pair: impl FnMut(&Self, usize, usize, usize, &mut [f32]),
    ) {
        let n = self.rows;
        let mut gap = 0;
        for (r, &(w0, w1)) in self.window_spans.iter().enumerate() {
            let (lo, hi) = (w0.min(n), w1.min(n));
            for (b, block) in ys.chunks_mut(kernel::LANE_BLOCK).enumerate() {
                let lane0 = b * kernel::LANE_BLOCK;
                let (_, lanes) = lane_block(self.batch, lane0);
                let window = &mut window[..lanes * (w1 - w0)];
                pair(self, r, lane0, lanes, window);
                for y in block.iter_mut() {
                    y.as_mut()[gap..lo].iter_mut().for_each(|v| *v += 0.0);
                }
                kernel::fold(window, block, lo..hi);
            }
            gap = hi;
        }
        for y in ys {
            y.as_mut()[gap..].iter_mut().for_each(|v| *v += 0.0);
        }
    }

    /// The interleaved padded x of the `lanes`-wide lane block starting at
    /// vector `lane0`.
    fn x_block(&self, lane0: usize, lanes: usize) -> &[f32] {
        &self.xb[lane0 * self.xstride..(lane0 + lanes) * self.xstride]
    }

    /// `true` when global output row `row`, inside tile row `r`'s window,
    /// holds vector `j`'s row-oracle value in the pair's `window` (see
    /// [`same_value`]). The oracle
    /// recomputes that one row from the pristine stream: it walks the tile
    /// row's instances in stream order, takes only those whose 4-row
    /// window holds the row, and adds each one's output for it from `0.0`
    /// through the portfolio LUT. The lane kernel adds every instance into
    /// all four rows of its window in the same order, so on a clean run
    /// the two agree exactly.
    fn row_matches(&self, window: &[f32], r: usize, j: usize, row: usize) -> bool {
        let (lane0, lanes) = lane_block(self.batch, j);
        let xs = &self.x_block(lane0, lanes)[j - lane0..];
        let local = row - self.window_spans[r].0;
        let (quad, k) = ((local & !3) as u32, local & 3);
        let (i0, i1) = self.inst_ranges[r];
        let mut oracle = 0.0f32;
        for (i, &y) in (i0..).zip(&self.soa.y_base[i0..i1]) {
            if y == quad {
                oracle += self.instance(i, xs, lanes)[k];
            }
        }
        same_value(window[local * lanes + j - lane0], oracle)
    }

    /// Verifies vector `j`'s lane of tile row `r`'s pair `window` against
    /// the per-instance oracle (see [`same_value`]) — which doubles as a
    /// cross-check of the lane kernel on every verified window. On
    /// mismatch, quarantines the window, re-executes its whole lane block
    /// once from the pristine stream through the executor into `retry`
    /// (transient stream faults heal, persistent lane faults do not) and
    /// copies back lane `j` only. `oracle` holds one largest window.
    fn verify_window(
        &self,
        r: usize,
        j: usize,
        window: &mut [f32],
        oracle: &mut [f32],
        retry: &mut Vec<f32>,
        health: &mut HealthReport,
    ) {
        let (lane0, lanes) = lane_block(self.batch, j);
        let wlen = window.len() / lanes;
        health.tile_rows_verified += 1;

        let oracle = &mut oracle[..wlen];
        oracle.fill(0.0);
        process_span(self, r, j, oracle, 1);
        if lane_equal(window, lanes, j - lane0, oracle) {
            return;
        }
        health.tile_rows_quarantined += 1;

        // One-shot re-execution from the pristine stream. Transient faults
        // (in-flight bit flips) do not recur; persistent faults (a stuck
        // VALU lane) strike the retry too and stay uncorrected.
        #[cfg(feature = "fault-injection")]
        let exec = &Exec {
            faults: self.faults.as_ref().map(|hook| FaultHook {
                stream_faults: false,
                ..*hook
            }),
            ..self.clone()
        };
        #[cfg(not(feature = "fault-injection"))]
        let exec = self;
        if retry.len() < window.len() {
            retry.resize(window.len(), 0.0);
        }
        let retry = &mut retry[..window.len()];
        exec.row_lanes(r, lane0, lanes, retry);
        let l = j - lane0;
        for (dst, src) in window[l..]
            .iter_mut()
            .step_by(lanes)
            .zip(retry[l..].iter().step_by(lanes))
        {
            *dst = *src;
        }
        if lane_equal(window, lanes, l, oracle) {
            health.tile_rows_corrected += 1;
        } else {
            health.tile_rows_uncorrected += 1;
            health
                .first_failed_tile_row
                .get_or_insert(self.tile_row_ids[r]);
        }
    }

    /// Instance `i`'s four VALU outputs through the portfolio LUT, for the
    /// vector whose lane of the interleaved x block starts `xs` (its
    /// columns `lanes` apart) — one step of the per-instance oracle.
    fn instance(&self, i: usize, xs: &[f32], lanes: usize) -> [f32; 4] {
        let c0 = self.soa.x_base[i] as usize;
        let x = |c: usize| xs[(c0 + c) * lanes];
        let v = &self.soa.values[4 * i..4 * i + 4];
        self.lut[usize::from(self.soa.op_idx[i])]
            .execute([v[0], v[1], v[2], v[3]], [x(0), x(1), x(2), x(3)])
    }

    /// Tile row `r` for the lane block starting at vector `lane0`, at
    /// padded width `lanes`, into its row-major window `out`, which it
    /// zeroes first — the executor's one call into the lane kernel. Under `fault-injection`
    /// this is also the per-(row, lane) fault hook: real lanes an armed
    /// plan strikes are recomputed through the faulted decoder.
    fn row_lanes(&self, r: usize, lane0: usize, lanes: usize, out: &mut [f32]) {
        let xs = self.x_block(lane0, lanes);
        out.fill(0.0);
        kernel::execute_row(&self.soa, self.inst_ranges[r], xs, lanes, out);
        #[cfg(feature = "fault-injection")]
        if let Some(hook) = &self.faults {
            for l in 0..lanes.min(self.batch - lane0) {
                if hook.armed.strikes_lane(lane0 + l) {
                    out[l..].iter_mut().step_by(lanes).for_each(|v| *v = 0.0);
                    process_span_faulted(self, hook, r, lane0 + l, &mut out[l..], lanes);
                }
            }
        }
    }
}

/// Vector `j`'s lane block in a batch of `batch`: its first vector and
/// its padded width (`LANE_BLOCK`, or the next power of two of the last
/// block's vector count).
fn lane_block(batch: usize, j: usize) -> (usize, usize) {
    let lane0 = j - j % kernel::LANE_BLOCK;
    (
        lane0,
        kernel::padded_width(kernel::LANE_BLOCK.min(batch - lane0)),
    )
}

/// The lanes a `batch`-vector batch occupies in the x scratch: every lane
/// block at its padded width.
fn padded_batch(batch: usize) -> usize {
    let full = batch - batch % kernel::LANE_BLOCK;
    match batch - full {
        0 => full,
        rem => full + kernel::padded_width(rem),
    }
}

/// `true` when lane `l` of the `lanes`-wide row-major `window` holds
/// `column`, value for value (see [`same_value`]).
fn lane_equal(window: &[f32], lanes: usize, l: usize, column: &[f32]) -> bool {
    window.len() == lanes * column.len()
        && window[l..]
            .iter()
            .step_by(lanes)
            .zip(column)
            .all(|(&x, &y)| same_value(x, y))
}

/// The oracles' comparison: equal bits, or both NaN. Which payload an add
/// of two NaNs keeps depends on the operand order the compiler picks (see
/// the `kernel` module), so the lane kernel and the per-instance walk may
/// disagree on a NaN's bits, never on its being NaN; every other value,
/// signed zeros included, must match bit for bit.
fn same_value(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// A matrix's tile directory in the plan's terms.
fn directory(matrix: &SpasmMatrix) -> Vec<FrozenTile> {
    matrix
        .tiles()
        .iter()
        .map(|t| FrozenTile {
            row: t.tile_row,
            col: t.tile_col,
            first_instance: t.first_instance,
            n_instances: t.n_instances,
        })
        .collect()
}

/// The per-instance reference walk: tile row `r`'s instances applied to
/// vector `j` and accumulated into `window` in stream order, each
/// through its opcode in the portfolio LUT (selected by the 1-byte class
/// index). Window row `k` is `window[k * stride]`. The verification
/// oracle and [`ExecutionPlan::run_reference`] run this; the executor
/// runs the lane kernel in `crate::kernel`, bit-identically.
fn process_span(v: &Exec<'_>, r: usize, j: usize, window: &mut [f32], stride: usize) {
    let (i0, i1) = v.inst_ranges[r];
    let (lane0, lanes) = lane_block(v.batch, j);
    let xs = &v.x_block(lane0, lanes)[j - lane0..];
    for i in i0..i1 {
        let r0 = v.soa.y_base[i] as usize;
        for (k, o) in v.instance(i, xs, lanes).iter().enumerate() {
            window[(r0 + k) * stride] += *o;
        }
    }
}

/// The faulted walk of tile row `r` for vector `j`, into `window` at
/// row stride `stride` as [`process_span`]: re-decodes each instance
/// from its position word ([`position_word`], xor-struck when the hook's
/// `stream_faults` is set; its CE/RE flags are never read), clamps all
/// accesses the way the hardware's
/// address decoders would — out-of-range x reads load zero,
/// out-of-window y writes are dropped, out-of-portfolio template ids wrap
/// the LUT — and applies value-slot flips and stuck-at-zero lanes.
#[cfg(feature = "fault-injection")]
fn process_span_faulted(
    v: &Exec<'_>,
    hook: &FaultHook<'_>,
    r: usize,
    j: usize,
    window: &mut [f32],
    stride: usize,
) {
    let (lut, values, af) = (v.lut, v.soa.values, hook.armed);
    let (x_base, y_base, op_idx) = (v.soa.x_base, v.soa.y_base, v.soa.op_idx);
    if lut.is_empty() {
        return;
    }
    let (lane0, lanes) = lane_block(v.batch, j);
    let xs = &v.x_block(lane0, lanes)[j - lane0..];
    let (w0, w1) = v.window_spans[r];
    let (i0, i1) = v.inst_ranges[r];
    for i in i0..i1 {
        let word = position_word(hook.tile_size, x_base[i], y_base[i], op_idx[i]).bits();
        let bits = if hook.stream_faults {
            word ^ af.enc_xor(i)
        } else {
            word
        };
        let e = PositionEncoding::from_bits(bits);
        let col_base = x_base[i] - x_base[i] % hook.tile_size;
        let c0 = col_base as usize + e.c_idx() as usize * 4;
        let x_at = |c: usize| {
            if c < v.xstride {
                xs[c * lanes]
            } else {
                0.0
            }
        };
        let x_seg = [x_at(c0), x_at(c0 + 1), x_at(c0 + 2), x_at(c0 + 3)];
        let mut vals = [
            values[4 * i],
            values[4 * i + 1],
            values[4 * i + 2],
            values[4 * i + 3],
        ];
        if hook.stream_faults {
            af.apply_value_faults(i, &mut vals);
        }
        let op = lut[e.t_idx() as usize % lut.len()];
        let mut out = op.execute(vals, x_seg);
        for (lane, stuck) in af.lane_zero.iter().enumerate() {
            if *stuck {
                out[lane] = 0.0;
            }
        }
        let r0 = e.r_idx() as usize * 4;
        for (k, contrib) in out.iter().enumerate() {
            if r0 + k < w1 - w0 {
                window[(r0 + k) * stride] += *contrib;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Accelerator, HealthReport, HwConfig, SimError, VerifyScope};
    use spasm_format::{SpasmMatrix, SubmatrixMap};
    use spasm_patterns::{DecompositionTable, TemplateSet};
    use spasm_sparse::Coo;

    fn encode(coo: &Coo, tile: u32) -> SpasmMatrix {
        let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
        SpasmMatrix::encode(&SubmatrixMap::from_coo(coo), &table, tile).unwrap()
    }

    fn sample(n: u32) -> Coo {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            t.push((i, (i * 7 + 3) % n, 0.5));
            if i + 1 < n {
                t.push((i + 1, i, -1.0));
            }
        }
        Coo::from_triplets(n, n, t).unwrap()
    }

    #[test]
    fn adopt_values_is_cow_with_version_bump() {
        let coo = sample(40);
        let mut m = encode(&coo, 16);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let mut plan = acc.prepare(&m).unwrap();
        assert_eq!(plan.version(), 0);
        let in_flight = plan.clone();

        let x: Vec<f32> = (0..40).map(|i| (i as f32) * 0.25 - 4.0).collect();
        let mut before = vec![0.0f32; 40];
        plan.run(&x, &mut before).unwrap();

        // Wrong length refused, plan untouched.
        let bad: std::sync::Arc<[f32]> = vec![0.0f32; 3].into();
        assert!(matches!(plan.adopt_values(bad), Err(SimError::Plan(_))));
        assert_eq!(plan.version(), 0);

        let fresh = m.patch_values(&[(0, 0, 5.0)]).unwrap();
        plan.adopt_values(fresh).unwrap();
        assert_eq!(plan.version(), 1);

        // The updated plan matches a fresh prepare of the patched matrix
        // bit for bit; the in-flight clone still serves the old values.
        let mut fresh_plan = acc.prepare(&m).unwrap();
        let (mut got, mut want, mut old) = (vec![0.0f32; 40], vec![0.0f32; 40], vec![0.0f32; 40]);
        plan.run(&x, &mut got).unwrap();
        fresh_plan.run(&x, &mut want).unwrap();
        assert_eq!(bits(&got), bits(&want));
        let mut stale = in_flight;
        stale.run(&x, &mut old).unwrap();
        assert_eq!(bits(&old), bits(&before));
        assert_ne!(bits(&got), bits(&before));
    }

    #[test]
    fn respliced_matches_fresh_prepare_bit_for_bit() {
        let coo = sample(96);
        let m = encode(&coo, 32);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let plan = acc.prepare(&m).unwrap();

        // Structural mutation over four tiles: drop one entry, add two
        // (one in a fresh tile region), and empty tile (0, 2).
        let mut t: Vec<_> = coo.iter().collect();
        t.retain(|&(r, c, _)| (r, c) != (5, 5));
        t.retain(|&(r, c, _)| r >= 32 || c < 64);
        t.push((90, 2, 3.25));
        t.push((6, 60, -0.75));
        let mutated = Coo::from_triplets(96, 96, t).unwrap();
        let fresh_m = encode(&mutated, 32);
        let has_tile =
            |m: &SpasmMatrix| m.tiles().iter().any(|t| (t.tile_row, t.tile_col) == (0, 2));
        assert!(
            has_tile(&m) && !has_tile(&fresh_m),
            "tile (0, 2) is emptied"
        );

        // Replacement blocks for every changed submatrix.
        let (old_map, new_map) = (
            SubmatrixMap::from_coo(&coo),
            SubmatrixMap::from_coo(&mutated),
        );
        let mut reps = Vec::new();
        for nb in new_map.blocks() {
            let same = old_map
                .blocks()
                .iter()
                .any(|ob| (ob.sub_r, ob.sub_c) == (nb.sub_r, nb.sub_c) && ob == nb);
            if !same {
                reps.push(nb.clone());
            }
        }
        for ob in old_map.blocks() {
            if !new_map
                .blocks()
                .iter()
                .any(|nb| (nb.sub_r, nb.sub_c) == (ob.sub_r, ob.sub_c))
            {
                let mut gone = ob.clone();
                gone.mask = 0;
                gone.values = [0.0; 16];
                reps.push(gone);
            }
        }
        let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
        let spliced_m = m.spliced(&reps, &table).unwrap();
        assert_eq!(spliced_m.to_bytes(), fresh_m.to_bytes());

        let spt = 32 / 4;
        let touched: Vec<(u32, u32)> = {
            let mut keys: Vec<_> = reps
                .iter()
                .map(|b| (b.sub_r / spt, b.sub_c / spt))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        };
        assert!(touched.len() >= 4, "touches several tiles");
        let mut spliced_plan = plan.respliced(&spliced_m, m.tiles(), &touched).unwrap();
        assert_eq!(spliced_plan.version(), 1);

        let mut fresh_plan = acc.prepare(&fresh_m).unwrap();
        // Every stream section, the class buckets included, equals a
        // fresh prepare's.
        let (got_s, want_s) = (spliced_plan.streams(), fresh_plan.streams());
        assert_eq!(got_s.x_base, want_s.x_base);
        assert_eq!(got_s.y_base, want_s.y_base);
        assert_eq!(got_s.op_idx, want_s.op_idx);
        assert_eq!(bits(got_s.values), bits(want_s.values));
        assert_eq!(got_s.bucket_idx, want_s.bucket_idx);
        assert_eq!(got_s.class_runs, want_s.class_runs);
        assert_eq!(got_s.block_runs, want_s.block_runs);
        assert_eq!(got_s.row_blocks, want_s.row_blocks);
        let x: Vec<f32> = (0..96).map(|i| ((i % 13) as f32) * 0.5 - 3.0).collect();
        let (mut got, mut want) = (vec![0.0f32; 96], vec![0.0f32; 96]);
        let got_rep = spliced_plan.run(&x, &mut got).unwrap().clone();
        let want_rep = fresh_plan.run(&x, &mut want).unwrap();
        assert_eq!(bits(&got), bits(&want));
        // Derived pricing state matches a fresh prepare too.
        assert_eq!(got_rep.cycles, want_rep.cycles);
        assert_eq!(got_rep.per_group_cycles, want_rep.per_group_cycles);
        assert_eq!(
            spliced_plan.memory_bytes(),
            fresh_plan.memory_bytes(),
            "memory repriced to the spliced stream"
        );
    }

    #[test]
    fn respliced_rejects_shape_changes() {
        let m = encode(&sample(40), 16);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let plan = acc.prepare(&m).unwrap();
        let other = encode(&sample(44), 16);
        assert!(matches!(
            plan.respliced(&other, m.tiles(), &[]),
            Err(SimError::Plan(_))
        ));
    }

    #[test]
    fn plan_matches_run_bit_for_bit() {
        let coo = sample(100);
        let x: Vec<f32> = (0..100).map(|i| (i as f32) * 0.25 - 10.0).collect();
        for tile in [16u32, 64, 256] {
            let m = encode(&coo, tile);
            let acc = Accelerator::new(HwConfig::spasm_4_1());
            let mut want = vec![0.5f32; 100];
            let want_rep = acc.prepare(&m).unwrap().run(&x, &mut want).unwrap().clone();

            // A reused plan (one earlier run) against the fresh one.
            let mut plan = acc.prepare(&m).unwrap();
            plan.run(&x, &mut vec![0.0f32; 100]).unwrap();
            let mut got = vec![0.5f32; 100];
            let got_rep = plan.run(&x, &mut got).unwrap();
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "tile {tile}"
            );
            assert_eq!(*got_rep, want_rep, "tile {tile}");
            assert_eq!(*plan.report(), want_rep);
        }
    }

    #[test]
    fn plan_reuse_does_not_drift() {
        let coo = sample(64);
        let m = encode(&coo, 32);
        let acc = Accelerator::new(HwConfig::spasm_3_2());
        let mut plan = acc.prepare(&m).unwrap();
        let x: Vec<f32> = (0..64).map(|i| ((i % 9) as f32) * 0.5 - 2.0).collect();
        let mut first = vec![0.25f32; 64];
        plan.run(&x, &mut first).unwrap();
        for _ in 0..10 {
            let mut y = vec![0.25f32; 64];
            plan.run(&x, &mut y).unwrap();
            assert_eq!(
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                first.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    fn bits(y: &[f32]) -> Vec<u32> {
        y.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn run_batch_matches_looped_run_bit_for_bit() {
        let coo = sample(100);
        for tile in [16u32, 64] {
            let m = encode(&coo, tile);
            let acc = Accelerator::new(HwConfig::spasm_4_1());
            for batch in [1usize, 2, 3, 4, 5, 6, 7, 8, 11, 15, 16, 17] {
                let xs: Vec<Vec<f32>> = (0..batch)
                    .map(|j| {
                        (0..100)
                            .map(|i| (i as f32) * 0.25 - 2.0 * j as f32)
                            .collect()
                    })
                    .collect();
                let mut plan = acc.prepare(&m).unwrap();
                let mut want: Vec<Vec<f32>> =
                    (0..batch).map(|j| vec![0.25 * j as f32; 100]).collect();
                for (x, y) in xs.iter().zip(want.iter_mut()) {
                    plan.run(x, y).unwrap();
                }
                let mut got: Vec<Vec<f32>> =
                    (0..batch).map(|j| vec![0.25 * j as f32; 100]).collect();
                let rep = plan.run_batch(&xs, &mut got).unwrap();
                let b = rep.batch.expect("batched run must stamp a BatchReport");
                assert_eq!(b.vectors, batch);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(bits(g), bits(w), "tile {tile} batch {batch}");
                }
            }
        }
    }

    #[test]
    fn run_batch_validates_shapes_up_front() {
        let m = encode(&sample(16), 16);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let xs = vec![vec![1.0f32; 16], vec![2.0f32; 16]];
        // Batch length mismatch.
        let mut ys = vec![vec![0.0f32; 16]];
        assert!(matches!(
            plan.run_batch(&xs, &mut ys),
            Err(SimError::DimensionMismatch {
                operand: "batch",
                ..
            })
        ));
        // A bad vector in the middle: the error names it, nothing is
        // written.
        let xs_bad = vec![vec![1.0f32; 16], vec![2.0f32; 3]];
        let mut ys = vec![vec![0.5f32; 16], vec![0.5f32; 16]];
        assert!(matches!(
            plan.run_batch(&xs_bad, &mut ys),
            Err(SimError::BatchDimensionMismatch {
                vector: 1,
                expected: 16,
                actual: 3,
                operand: "x",
            })
        ));
        let mut ys_bad = vec![vec![0.5f32; 16], vec![0.5f32; 3]];
        assert!(matches!(
            plan.run_batch(&xs, &mut ys_bad),
            Err(SimError::BatchDimensionMismatch {
                vector: 1,
                operand: "y",
                ..
            })
        ));
        for y in ys.iter().chain(&ys_bad) {
            assert!(y.iter().all(|&v| v == 0.5), "partial write on error");
        }
    }

    #[test]
    fn memory_bytes_accounts_for_stream_and_scratch() {
        let m = encode(&sample(64), 32);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let base = plan.memory_bytes();
        // At minimum the shared value stream and the padded scratch are in
        // the figure.
        assert!(base >= m.values().len() * 4 + 2 * 64 * 4, "base = {base}");
        // The quarantine retry scratch grows on the first retry only: a
        // fresh plan holds none.
        assert!(plan.vq.is_empty());
        // Batched scratch grows on first use and is then accounted for.
        let xs = vec![vec![1.0f32; 64]; 4];
        let mut ys = vec![vec![0.0f32; 64]; 4];
        plan.run_batch(&xs, &mut ys).unwrap();
        assert!(plan.memory_bytes() > base);
        // A 128-vector unverified batch and a 128-vector verified one grow
        // the x scratch to one padded x per vector and the pair window to
        // one full lane block; nothing else grows, so no term holds rows ×
        // batch.
        let xs = vec![vec![1.0f32; 64]; 128];
        let mut ys = vec![vec![0.0f32; 64]; 128];
        plan.run_batch(&xs, &mut ys).unwrap();
        let (health, _) = verified(&mut plan, &xs, |_| VerifyScope::All);
        assert!(health.iter().all(|h| h.is_clean()));
        assert_eq!(plan.xb.len(), 128 * 64);
        assert_eq!(
            plan.window.len(),
            plan.vp.len() * super::ExecutionPlan::LANE_BLOCK
        );
        assert!(plan.vq.is_empty(), "a clean batch retries nothing");
        let grown = plan.xb.len() - 64 + plan.window.len() - plan.vp.len();
        assert_eq!(plan.memory_bytes(), base + 4 * grown);
    }

    #[test]
    fn run_batch_handles_empty_batch_and_empty_matrix() {
        let m = encode(&sample(16), 16);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let xs: Vec<Vec<f32>> = Vec::new();
        let mut ys: Vec<Vec<f32>> = Vec::new();
        let rep = plan.run_batch(&xs, &mut ys).unwrap();
        let b = rep.batch.unwrap();
        assert_eq!(b.vectors, 0);
        assert_eq!(b.cycles, crate::timing::INIT_CYCLES);

        let empty = encode(&Coo::new(8, 8), 8);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1())
            .prepare(&empty)
            .unwrap();
        let xs = vec![vec![1.0f32; 8]; 3];
        let mut ys = vec![vec![0.0f32; 8]; 3];
        plan.run_batch(&xs, &mut ys).unwrap();
        assert!(ys.iter().all(|y| y.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn batch_report_amortises_init_and_matrix_traffic() {
        let m = encode(&sample(64), 32);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let single = plan.report().clone();
        let xs = vec![vec![1.0f32; 64]; 8];
        let mut ys = vec![vec![0.0f32; 64]; 8];
        let rep = plan.run_batch(&xs, &mut ys).unwrap().clone();
        let b = rep.batch.unwrap();
        assert_eq!(
            b.cycles,
            crate::timing::batch_cycles(single.cycles, 8),
            "batch pricing"
        );
        assert!(b.amortised_cycles_per_vector < single.cycles as f64);
        assert_eq!(b.traffic.matrix, single.traffic.matrix);
        assert_eq!(b.traffic.x, single.traffic.x * 8);
        assert_eq!(b.traffic.y, single.traffic.y * 8);
        // A subsequent single run clears the batch stamp.
        let mut y = vec![0.0f32; 64];
        let rep = plan.run(&vec![1.0f32; 64], &mut y).unwrap();
        assert!(rep.batch.is_none());
    }

    #[test]
    fn plan_shares_matrix_value_stream() {
        let m = encode(&sample(64), 32);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let plan = acc.prepare(&m).unwrap();
        assert!(std::sync::Arc::ptr_eq(
            plan.shared_values()
                .expect("prepared plans own their values"),
            m.shared_values()
        ));
        let clone = plan.clone();
        assert!(std::sync::Arc::ptr_eq(
            clone.shared_values().expect("clone stays owned"),
            plan.shared_values().expect("original stays owned")
        ));
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn targeted_faults_strike_exactly_one_batch_vector() {
        use crate::fault::{FaultPlan, FaultSpec};
        let coo = sample(64);
        let m = encode(&coo, 16);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let xs: Vec<Vec<f32>> = (0..3)
            .map(|j| (0..64).map(|i| (i + j) as f32 * 0.5).collect())
            .collect();

        let mut clean_plan = acc.prepare(&m).unwrap();
        let mut clean = vec![vec![0.0f32; 64]; 3];
        clean_plan.run_batch(&xs, &mut clean).unwrap();

        let mut plan = acc.prepare(&m).unwrap();
        let spec = FaultSpec {
            lane_faults: 4,
            ..FaultSpec::default()
        };
        plan.arm_faults_for_vector(FaultPlan::seeded(9, &spec, plan.n_instances()), 1);
        let mut ys = vec![vec![0.0f32; 64]; 3];
        plan.run_batch(&xs, &mut ys).unwrap();
        assert_eq!(bits(&ys[0]), bits(&clean[0]), "lane 0 must stay pristine");
        assert_eq!(bits(&ys[2]), bits(&clean[2]), "lane 2 must stay pristine");
        assert_ne!(
            bits(&ys[1]),
            bits(&clean[1]),
            "all-lane fault on the target must corrupt it"
        );
    }

    #[test]
    fn plan_checks_dimensions() {
        let m = encode(&sample(16), 16);
        let mut plan = Accelerator::new(HwConfig::spasm_3_2()).prepare(&m).unwrap();
        let mut y = vec![0.0f32; 16];
        assert!(matches!(
            plan.run(&[1.0; 4], &mut y),
            Err(SimError::DimensionMismatch { operand: "x", .. })
        ));
        let mut y_bad = vec![0.0f32; 4];
        assert!(matches!(
            plan.run(&[1.0; 16], &mut y_bad),
            Err(SimError::DimensionMismatch { operand: "y", .. })
        ));
    }

    #[test]
    fn plan_exposes_prepared_state() {
        let m = encode(&sample(64), 16);
        let cfg = HwConfig::spasm_4_1();
        let plan = Accelerator::new(cfg.clone()).prepare(&m).unwrap();
        assert_eq!(plan.config(), &cfg);
        assert_eq!(plan.rows(), 64);
        assert_eq!(plan.cols(), 64);
        assert_eq!(plan.tile_size(), 16);
        assert_eq!(plan.n_instances(), m.n_instances());
        assert_eq!(plan.assignment().len(), cfg.num_pe_groups as usize);
        assert!(plan.n_tile_rows() > 0);
    }

    #[test]
    fn empty_matrix_plan_runs() {
        let m = encode(&Coo::new(8, 8), 8);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let mut y = vec![0.0f32; 8];
        let rep = plan.run(&[1.0; 8], &mut y).unwrap().clone();
        assert_eq!(y, vec![0.0; 8]);
        assert_eq!(rep.cycles, crate::timing::INIT_CYCLES);
        assert_eq!(plan.n_tile_rows(), 0);
    }

    fn batch_xs(batch: usize, n: usize) -> Vec<Vec<f32>> {
        (0..batch)
            .map(|j| {
                (0..n)
                    .map(|i| (i as f32) * 0.25 - 10.0 * j as f32)
                    .collect()
            })
            .collect()
    }

    /// `run_verified` into zeroed outputs: the per-vector health and the
    /// outputs.
    fn verified<'s, X: AsRef<[f32]>>(
        plan: &mut super::ExecutionPlan,
        xs: &[X],
        scope: impl Fn(usize) -> VerifyScope<'s>,
    ) -> (Vec<HealthReport>, Vec<Vec<f32>>) {
        let mut ys = vec![vec![0.0f32; plan.rows() as usize]; xs.len()];
        let mut health = vec![HealthReport::default(); xs.len()];
        plan.run_verified(xs, &mut ys, scope, &mut health, |_, _, _| {})
            .unwrap();
        (health, ys)
    }

    #[test]
    fn deferred_run_and_commit_match_run() {
        let coo = sample(100);
        let m = encode(&coo, 32);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let mut plan = acc.prepare(&m).unwrap();
        // A 3-vector batch, and a 17-vector batch whose second lane block
        // holds only vector 16.
        for batch in [3usize, 17] {
            let xs = batch_xs(batch, 100);
            let mut want = vec![vec![0.5f32; 100]; batch];
            for (x, y) in xs.iter().zip(want.iter_mut()) {
                plan.run(x, y).unwrap();
            }
            for scope in [VerifyScope::None, VerifyScope::All] {
                let mut got = vec![vec![0.5f32; 100]; batch];
                let mut health = vec![HealthReport::default(); batch];
                plan.run_verified(&xs, &mut got, |_| scope, &mut health, |_, _, _| {})
                    .unwrap();
                assert!(health.iter().all(|h| h.is_clean()));
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(bits(g), bits(w), "vector {j} of {batch}");
                }
            }
        }
        // Pristine executions verify all rows of every vector, quarantine
        // none; the report sums the per-vector health.
        let xs = batch_xs(3, 100);
        let (h, _) = verified(&mut plan, &xs, |_| VerifyScope::All);
        for hj in &h {
            assert_eq!(hj.tile_rows_verified as usize, plan.n_tile_rows());
        }
        assert_eq!(
            plan.report().health.tile_rows_verified as usize,
            3 * plan.n_tile_rows()
        );
        assert!(plan.report().batch.is_none());
        let mut ys = vec![vec![0.5f32; 100]; 2];
        let mut health = vec![HealthReport::default(); 2];
        assert!(matches!(
            plan.run_verified(
                &[vec![1.0f32; 100], vec![1.0f32; 7]],
                &mut ys,
                |_| VerifyScope::All,
                &mut health,
                |_, _, _| {}
            ),
            Err(SimError::BatchDimensionMismatch { vector: 1, .. })
        ));
        assert!(matches!(
            plan.run_verified(
                &vec![vec![1.0f32; 100]; 2],
                &mut ys,
                |_| VerifyScope::All,
                &mut health[..1],
                |_, _, _| {}
            ),
            Err(SimError::DimensionMismatch {
                operand: "health",
                ..
            })
        ));
        assert!(ys.iter().all(|y| y.iter().all(|&v| v == 0.5)));
    }

    #[test]
    fn contribution_reads_last_deferred_result() {
        let coo = sample(64);
        let m = encode(&coo, 16);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let all: Vec<usize> = (0..64).chain([10_000]).collect();
        // Batches of 2 and 17: vector 16 is alone in the second lane block.
        for batch in [2usize, 17] {
            let xs = batch_xs(batch, 64);
            let mut want = vec![vec![0.0f32; 64]; batch];
            plan.run_batch(&xs, &mut want).unwrap();
            let mut got = vec![vec![f32::NAN; 64]; batch];
            let mut ys = vec![vec![0.0f32; 64]; batch];
            let mut health = vec![HealthReport::default(); batch];
            plan.run_verified(
                &xs,
                &mut ys,
                |_| VerifyScope::Rows(&all),
                &mut health,
                |j, k, v| got[j][all[k]] = v,
            )
            .unwrap();
            // Every row is handed over once, row 10 000 (outside the
            // matrix) never.
            assert!(health.iter().all(|h| h.rows_verified == 64));
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(bits(g), bits(w));
            }
        }
    }

    #[test]
    fn tile_row_lookup_covers_windows() {
        let coo = sample(100);
        let m = encode(&coo, 32);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        // Every matrix row lies in exactly one window, that of its tile
        // row (the sample matrix works every tile row); row 10 000 in none.
        for y_row in 0..100usize {
            let hits: Vec<usize> = (0..plan.window_spans.len())
                .filter(|&r| (plan.window_spans[r].0..plan.window_spans[r].1).contains(&y_row))
                .collect();
            assert_eq!(hits, vec![y_row / 32], "row {y_row}");
        }
        assert!(plan.window_spans.iter().all(|&(_, w1)| w1 <= 10_000));
        // The verified pass finds each named row in its window: every row
        // is verified and handed over once, row 10 000 never.
        let xs = batch_xs(1, 100);
        for y_row in [0usize, 31, 32, 63, 64, 99, 10_000] {
            let rows = [y_row];
            let mut handed = Vec::new();
            let mut ys = vec![vec![0.0f32; 100]];
            let mut health = vec![HealthReport::default()];
            plan.run_verified(
                &xs,
                &mut ys,
                |_| VerifyScope::Rows(&rows),
                &mut health,
                |j, k, v| handed.push((j, k, v.to_bits())),
            )
            .unwrap();
            let inside = usize::from(y_row < 100);
            assert_eq!(health[0].rows_verified as usize, inside, "row {y_row}");
            assert_eq!(handed.len(), inside, "row {y_row}");
            if inside == 1 {
                assert_eq!(handed[0], (0, 0, ys[0][y_row].to_bits()));
            }
        }
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn transient_stream_faults_are_detected_and_corrected() {
        use crate::fault::{FaultPlan, FaultSpec};
        let coo = sample(128);
        let m = encode(&coo, 32);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let x: Vec<f32> = (0..128).map(|i| (i as f32) * 0.125 - 4.0).collect();

        let mut plan = acc.prepare(&m).unwrap();
        let mut clean = vec![0.0f32; 128];
        plan.run(&x, &mut clean).unwrap();

        let spec = FaultSpec {
            encoding_flips: 3,
            value_flips: 3,
            ..FaultSpec::default()
        };
        assert!(plan.vq.is_empty(), "no retry yet, no retry scratch");
        let mut quarantined = 0;
        for seed in 0..16u64 {
            plan.arm_faults(FaultPlan::seeded(seed, &spec, plan.n_instances()));
            let (h, y) = verified(&mut plan, &[&x], |_| VerifyScope::All);
            let (h, y) = (h[0], &y[0]);
            quarantined += h.tile_rows_quarantined;
            assert_eq!(h.faults_injected, 6, "seed {seed}");
            // Transient faults always heal: the retry reads the pristine
            // stream. (A fault may have no observable effect — e.g. a
            // CE/RE-bit flip — in which case nothing is quarantined.)
            assert_eq!(h.tile_rows_uncorrected, 0, "seed {seed}");
            assert_eq!(h.tile_rows_corrected, h.tile_rows_quarantined);
            assert_eq!(
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                clean.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "seed {seed}: healed output must be bit-identical to clean"
            );
        }
        // The first retry grew the retry scratch to one window.
        assert!(quarantined > 0);
        assert_eq!(plan.vq.len(), 32);
        plan.disarm_faults();
        assert!(plan.armed_faults().is_none());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn persistent_lane_faults_stay_uncorrected() {
        use crate::fault::{FaultPlan, FaultSpec};
        let coo = sample(64);
        let m = encode(&coo, 16);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let x = vec![1.0f32; 64];
        let spec = FaultSpec {
            lane_faults: 4, // all four lanes stuck: corruption is certain
            ..FaultSpec::default()
        };
        plan.arm_faults(FaultPlan::seeded(9, &spec, plan.n_instances()));
        let h = verified(&mut plan, &[&x], |_| VerifyScope::All).0[0];
        assert!(h.tile_rows_quarantined > 0);
        assert_eq!(h.tile_rows_corrected, 0);
        assert_eq!(h.tile_rows_uncorrected, h.tile_rows_quarantined);
        assert!(h.needs_fallback());
        assert!(h.first_failed_tile_row.is_some());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn unverified_run_reports_injection_but_not_detection() {
        use crate::fault::{FaultPlan, FaultSpec};
        let coo = sample(64);
        let m = encode(&coo, 64);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let spec = FaultSpec {
            channel_stalls: 2,
            ..FaultSpec::default()
        };
        plan.arm_faults(FaultPlan::seeded(3, &spec, plan.n_instances()));
        let x = vec![1.0f32; 64];
        let mut y = vec![0.0f32; 64];
        let rep = plan.run(&x, &mut y).unwrap();
        assert_eq!(rep.health.faults_injected, 2);
        assert!(rep.health.stall_cycles > 0);
        // Stalls are timing-only: the data is untouched.
        assert_eq!(rep.health.tile_rows_quarantined, 0);
    }

    #[test]
    fn verify_scope_rows_subset() {
        let coo = sample(100);
        let m = encode(&coo, 32);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let x = vec![1.0f32; 100];
        let (h, got) = verified(&mut plan, &[&x], |_| {
            VerifyScope::Rows(&[0, 70, 71, 10_000])
        });
        let h = h[0];
        // Row 10 000 is out of range and ignored; 0, 70 and 71 verify
        // clean, with no whole tile-row window checked.
        assert_eq!(h.rows_verified, 3);
        assert_eq!(h.tile_rows_verified, 0);
        assert!(h.is_clean());
        let mut want = vec![0.0f32; 100];
        plan.clone().run(&x, &mut want).unwrap();
        assert_eq!(bits(&got[0]), bits(&want));
    }

    #[test]
    fn each_vector_is_verified_on_its_own_scope_only() {
        let coo = sample(100);
        let m = encode(&coo, 32);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let xs = batch_xs(5, 100);
        let scopes = [
            VerifyScope::None,
            VerifyScope::All,
            VerifyScope::Rows(&[33]),
            VerifyScope::None,
            VerifyScope::Rows(&[0, 99]),
        ];
        let (h, got) = verified(&mut plan, &xs, |j| scopes[j]);
        let rows: Vec<u32> = h.iter().map(|h| h.rows_verified).collect();
        assert_eq!(rows, vec![0, 0, 1, 0, 2]);
        let windows: Vec<u32> = h.iter().map(|h| h.tile_rows_verified).collect();
        assert_eq!(windows, vec![0, plan.n_tile_rows() as u32, 0, 0, 0]);
        assert!(h.iter().all(|h| h.is_clean()));
        for (j, x) in xs.iter().enumerate() {
            let mut want = vec![0.0f32; 100];
            plan.clone().run(x, &mut want).unwrap();
            assert_eq!(bits(&got[j]), bits(&want), "vector {j}");
        }
    }

    /// A random `rows × cols` matrix with about `density` of its cells
    /// set, finite values of both signs (and some `-0.0`).
    fn random_coo(rng: &mut impl rand::Rng, rows: u32, cols: u32, density: f64) -> Coo {
        let mut t = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density) {
                    let v = match rng.gen_range(0..8) {
                        0 => -0.0,
                        _ => rng.gen_range(-4.0f32..4.0),
                    };
                    t.push((r, c, v));
                }
            }
        }
        Coo::from_triplets(rows, cols, t).unwrap()
    }

    /// The equivalence cases of the row oracle: random matrices at tile
    /// sizes 4–32 with batches of 1–8 vectors whose x mixes `±0.0` into
    /// finite values, plus a matrix holding `±inf` (at most one per row)
    /// against positive x.
    fn oracle_cases() -> Vec<(SpasmMatrix, Vec<Vec<f32>>)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x00A1_10E5);
        let mut cases = Vec::new();
        for case in 0..12u32 {
            let tile = [4, 8, 16, 32][case as usize % 4];
            let (rows, cols) = (rng.gen_range(1..80u32), rng.gen_range(1..80u32));
            let density = rng.gen_range(0.02..0.3);
            let coo = random_coo(&mut rng, rows, cols, density);
            let batch = 1 + case as usize % 8;
            let xs = (0..batch)
                .map(|_| {
                    (0..cols)
                        .map(|_| match rng.gen_range(0..6) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.gen_range(-2.0f32..2.0),
                        })
                        .collect()
                })
                .collect();
            cases.push((encode(&coo, tile), xs));
        }
        let n = 40u32;
        let inf = Coo::from_triplets(
            n,
            n,
            (0..n)
                .flat_map(|i| {
                    let v = match i % 4 {
                        0 => f32::INFINITY,
                        1 => f32::NEG_INFINITY,
                        _ => 0.25 * i as f32,
                    };
                    [(i, i, v), (i, (i * 7 + 3) % n, -0.5)]
                })
                .filter(|&(r, c, _)| r != c || r % 4 != 3)
                .collect(),
        )
        .unwrap();
        for (tile, batch) in [(8u32, 3usize), (16, 8)] {
            let xs = (0..batch)
                .map(|j| {
                    (0..n)
                        .map(|i| 0.5 + ((i as usize + j) % 5) as f32)
                        .collect()
                })
                .collect();
            cases.push((encode(&inf, tile), xs));
        }
        cases
    }

    /// Every output row a worked tile row's window holds, pad rows
    /// included, in ascending order.
    fn window_rows(plan: &super::ExecutionPlan) -> Vec<usize> {
        plan.window_spans
            .iter()
            .flat_map(|&(w0, w1)| w0..w1)
            .collect()
    }

    #[test]
    fn row_oracle_matches_the_lane_kernel_on_every_row() {
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        for (case, (m, xs)) in oracle_cases().into_iter().enumerate() {
            let mut plan = acc.prepare(&m).unwrap();
            let rows = window_rows(&plan);
            let mut all: Vec<usize> = (0..plan.rows() as usize + 8).collect();
            all.extend(rows.iter().copied());
            all.sort_unstable();
            all.dedup();
            let (h, _) = verified(&mut plan, &xs, |_| VerifyScope::Rows(&all));
            for (j, hj) in h.iter().enumerate() {
                assert!(hj.is_clean(), "case {case}, vector {j}: {hj:?}");
                assert_eq!(hj.rows_verified as usize, rows.len(), "case {case}");
                assert_eq!(hj.tile_rows_verified, 0, "case {case}: escalated");
            }
        }
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn row_scope_quarantines_exactly_the_tile_rows_all_does() {
        use crate::fault::{FaultPlan, FaultSpec};
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let specs = [
            FaultSpec {
                encoding_flips: 2,
                ..FaultSpec::default()
            },
            FaultSpec {
                value_flips: 2,
                ..FaultSpec::default()
            },
            FaultSpec {
                lane_faults: 1,
                ..FaultSpec::default()
            },
        ];
        let mut quarantined = 0;
        for (case, (m, xs)) in oracle_cases().into_iter().enumerate() {
            let mut plan = acc.prepare(&m).unwrap();
            let rows = window_rows(&plan);
            for seed in 0..12u64 {
                let spec = &specs[seed as usize % specs.len()];
                plan.arm_faults(FaultPlan::seeded(seed, spec, plan.n_instances()));
                let (by_window, want) = verified(&mut plan, &xs, |_| VerifyScope::All);
                let (by_row, got) = verified(&mut plan, &xs, |_| VerifyScope::Rows(&rows));
                for (j, (w, r)) in by_window.iter().zip(&by_row).enumerate() {
                    let label = format!("case {case}, seed {seed}, vector {j}");
                    assert_eq!(r.tile_rows_quarantined, w.tile_rows_quarantined, "{label}");
                    assert_eq!(r.tile_rows_corrected, w.tile_rows_corrected, "{label}");
                    assert_eq!(r.tile_rows_uncorrected, w.tile_rows_uncorrected, "{label}");
                    assert_eq!(r.first_failed_tile_row, w.first_failed_tile_row, "{label}");
                    assert_eq!(r.tile_rows_verified, r.tile_rows_quarantined, "{label}");
                    assert_eq!(r.rows_verified as usize, rows.len(), "{label}");
                    assert_eq!(bits(&got[j]), bits(&want[j]), "{label}");
                    quarantined += w.tile_rows_quarantined;
                }
            }
        }
        assert!(quarantined > 0, "no seed corrupted an output");
    }

    /// Drawn rows of the contract tests on `sample(128)` at 32-row tiles:
    /// row `DRAWN[l]` sits on VALU lane `l` (its residue mod 4), and each
    /// lies in its own tile row.
    #[cfg(feature = "fault-injection")]
    const DRAWN: [usize; 4] = [4, 37, 70, 103];

    #[cfg(feature = "fault-injection")]
    #[test]
    fn row_scope_heals_a_transient_fault_on_a_drawn_row_only() {
        use crate::fault::{FaultPlan, FaultSpec};
        let coo = sample(128);
        let m = encode(&coo, 32);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let x: Vec<f32> = (0..128).map(|i| (i as f32) * 0.125 - 4.0).collect();
        let mut clean = vec![0.0f32; 128];
        plan.run(&x, &mut clean).unwrap();

        let (mut healed, mut missed) = (0, 0);
        for seed in 0..64u64 {
            let spec = if seed % 2 == 0 {
                FaultSpec {
                    value_flips: 1,
                    ..FaultSpec::default()
                }
            } else {
                FaultSpec {
                    encoding_flips: 1,
                    ..FaultSpec::default()
                }
            };
            plan.arm_faults(FaultPlan::seeded(seed, &spec, plan.n_instances()));
            let mut faulted = vec![0.0f32; 128];
            plan.run(&x, &mut faulted).unwrap();
            let (h, y) = verified(&mut plan, &[&x], |_| VerifyScope::Rows(&DRAWN));
            let (h, y) = (h[0], &y[0]);
            assert_eq!(h.rows_verified, 4, "seed {seed}");
            if DRAWN
                .iter()
                .any(|&r| faulted[r].to_bits() != clean[r].to_bits())
            {
                // The fault feeds a drawn row: its tile row escalates,
                // is quarantined and heals from the pristine stream.
                assert_eq!(h.tile_rows_quarantined, 1, "seed {seed}");
                assert_eq!(h.tile_rows_corrected, 1, "seed {seed}");
                assert_eq!(h.tile_rows_verified, 1, "seed {seed}");
                assert_eq!(bits(y), bits(&clean), "seed {seed}");
                healed += 1;
            } else {
                // The narrowed contract: a fault in undrawn rows only is
                // not seen, and the faulted output is folded.
                assert!(h.is_clean(), "seed {seed}");
                assert_eq!(h.tile_rows_verified, 0, "seed {seed}");
                assert_eq!(bits(y), bits(&faulted), "seed {seed}");
                if bits(&faulted) != bits(&clean) {
                    missed += 1;
                }
            }
        }
        assert!(healed > 0, "no seed struck a drawn row");
        assert!(missed > 0, "no seed struck only undrawn rows");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn row_scope_leaves_a_persistent_lane_fault_on_a_drawn_row_uncorrected() {
        use crate::fault::{FaultPlan, FaultSpec};
        let coo = sample(128);
        let m = encode(&coo, 32);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let x: Vec<f32> = (0..128).map(|i| (i as f32) * 0.125 - 4.0).collect();
        let spec = FaultSpec {
            lane_faults: 1,
            ..FaultSpec::default()
        };
        for seed in 0..8u64 {
            let faults = FaultPlan::seeded(seed, &spec, plan.n_instances());
            let Some(crate::fault::Fault::LaneStuckZero { lane }) =
                faults.faults().first().copied()
            else {
                panic!("seed {seed}: no lane fault drawn");
            };
            plan.arm_faults(faults);
            let h = verified(&mut plan, &[&x], |_| VerifyScope::Rows(&DRAWN)).0[0];
            // Exactly one drawn row sits on the stuck lane: its tile row
            // escalates, and the retry, through the same lane, fails too.
            let row = DRAWN[usize::from(lane)];
            assert_eq!(row % 4, usize::from(lane));
            assert_eq!(h.rows_verified, 4, "seed {seed}");
            assert_eq!(h.tile_rows_quarantined, 1, "seed {seed}");
            assert_eq!(h.tile_rows_uncorrected, 1, "seed {seed}");
            assert!(h.needs_fallback(), "seed {seed}");
            assert_eq!(
                h.first_failed_tile_row,
                Some(row as u32 / 32),
                "seed {seed}"
            );
        }
    }
}
