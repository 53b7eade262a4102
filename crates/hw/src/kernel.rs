//! The executor's lane kernel — the hot loop behind [`crate::ExecutionPlan`].
//!
//! A SPASM PE walks its instance stream in order: for each instance it
//! loads the opcode from the portfolio LUT by template index and runs the
//! 4-multiplier, 3-adder VALU on it. [`execute_row`] does the same in
//! software for one tile row, over up to [`LANE_BLOCK`] right-hand sides
//! at once:
//!
//! 1. **Vector-blocked operands.** Inside a lane block of `L` vectors the
//!    padded x is interleaved — column `c`'s `L` values sit contiguously
//!    at `c·L + l` — and so is the y window: row `k`'s lanes sit at
//!    `k·L + l`. An instance's 4-wide x segment is then `4·L` contiguous
//!    floats and its 4 output rows another `4·L`, so the instance's
//!    metadata (x base, y base, opcode class, value quadruple) is read
//!    once and applied to every lane with contiguous loads and stores.
//!
//! 2. **Stream order, no staging.** Instances run in stream order and
//!    each one's outputs are added straight into its 4 window rows. Every
//!    lane sees exactly the IEEE operation sequence of the per-instance
//!    reference (`process_span` in `plan.rs`): four products, `p0+p1`,
//!    `p2+p3`, their sum, and one `+=` per output row in stream order.
//!    No FMA contraction is used anywhere (`a*b` and `+` stay separate
//!    ops), so the window is **bit-identical** to the reference, signed
//!    zeros and NaN payloads included; no ULP bound is needed.
//!
//! 3. **Monomorphised lane loops.** The body is generic over the lane
//!    count `L` in `1..=LANE_BLOCK`, so every lane loop has a
//!    compile-time trip count, and the opcode is predigested into a
//!    [`ClassKernel`] of mux indices, so the body is branch-free. At
//!    `L = 8` the lane loops compile to packed `mulps`/`addps` at the
//!    x86_64 SSE2 baseline: the lane loop is the SIMD datapath, with no
//!    intrinsics and no `unsafe`.
//!
//! The prepare-time pattern-class bucketing ([`build_buckets`]: each tile
//! row's span cut into [`EXEC_BLOCK`]-instance blocks whose indices are
//! stably sorted by opcode class) does not feed the executor. Its tables
//! are kept only because wire v3 and [`crate::PlanStreams`] carry them.

use std::ops::Range;

use crate::valu::{OutNode, ValuOpcode};

/// Instances per bucketing block: the granule of the prepare-time
/// pattern-class bucketing that wire v3 stores.
pub const EXEC_BLOCK: usize = 256;

/// Batch vectors fused per instance walk: the width of one lane block.
/// Larger batches run in lane blocks of this size (the last may be
/// narrower).
pub const LANE_BLOCK: usize = 8;

/// Calls `$f::<L>(..)` for the runtime lane count `$lanes`: one
/// monomorphised body per lane-block width `1..=LANE_BLOCK`.
macro_rules! with_lanes {
    ($lanes:expr, $f:ident($($arg:expr),*)) => {
        match $lanes {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            8 => $f::<8>($($arg),*),
            n => unreachable!("lane count {n} outside 1..=LANE_BLOCK"),
        }
    };
}
const _: () = assert!(LANE_BLOCK == 8, "with_lanes! covers 1..=8");

/// One class-sorted run inside a bucketing block: instances
/// `bucket_idx[start..end]` all dispatch through opcode class `class`.
///
/// `#[repr(C)]` with u32 fields only (12 bytes, no padding) so the runs
/// table can be serialised to — and mapped back from — a wire-v3 section
/// verbatim.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassRun {
    /// First index into `bucket_idx` (inclusive).
    pub start: u32,
    /// Last index into `bucket_idx` (exclusive).
    pub end: u32,
    /// Opcode class (template LUT index) of every instance in the run.
    pub class: u32,
}

/// A [`ValuOpcode`] predigested for the branch-free lane kernel: the
/// x-mux selectors as `usize` offsets and the output muxes as indices
/// into the 8-entry node array `[p0, p1, p2, p3, p0+p1, p2+p3, Σp, 0]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassKernel {
    col: [usize; 4],
    sel: [usize; 4],
}

impl ClassKernel {
    pub(crate) fn from_opcode(op: ValuOpcode) -> Self {
        let cs = op.col_selectors();
        let col = [
            cs[0] as usize,
            cs[1] as usize,
            cs[2] as usize,
            cs[3] as usize,
        ];
        let os = op.out_selectors();
        let mut sel = [7usize; 4];
        for (s, &o) in sel.iter_mut().zip(os.iter()) {
            *s = match o {
                OutNode::Product(i) => i as usize,
                OutNode::Pair01 => 4,
                OutNode::Pair23 => 5,
                OutNode::Total => 6,
                OutNode::Zero => 7,
            };
        }
        ClassKernel { col, sel }
    }
}

/// Borrowed view of the plan's pre-decoded SoA instance stream, shared by
/// every kernel call (Copy so the parallel fan-out can move it into
/// scoped workers).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SoaRef<'a> {
    pub x_base: &'a [u32],
    pub y_base: &'a [u32],
    pub op_idx: &'a [u8],
    pub values: &'a [f32],
    pub kernels: &'a [ClassKernel],
}

/// The owned bucketing tables `build_buckets` produces: `(bucket_idx,
/// class_runs, block_runs, row_blocks)` — instance indices block-wise
/// stably sorted by class, the class runs into them in block order, and
/// the per-block run and per-tile-row block prefixes.
pub(crate) type Buckets = (Vec<u32>, Vec<ClassRun>, Vec<u32>, Vec<u32>);

/// The prepare-time bucketing pass: cuts each tile row's instance span
/// into [`EXEC_BLOCK`]-sized blocks and stably sorts each block's indices
/// by opcode class.
pub(crate) fn build_buckets(inst_ranges: &[(usize, usize)], op_idx: &[u8]) -> Buckets {
    let n: usize = inst_ranges.iter().map(|&(i0, i1)| i1 - i0).sum();
    let mut bucket_idx: Vec<u32> = Vec::with_capacity(n);
    let mut class_runs: Vec<ClassRun> = Vec::new();
    let mut block_runs: Vec<u32> = vec![0];
    let mut row_blocks: Vec<u32> = Vec::with_capacity(inst_ranges.len() + 1);
    row_blocks.push(0);
    let mut scratch: Vec<u32> = Vec::with_capacity(EXEC_BLOCK);
    let mut n_blocks = 0u32;
    for &(i0, i1) in inst_ranges {
        let mut b0 = i0;
        while b0 < i1 {
            let b1 = (b0 + EXEC_BLOCK).min(i1);
            scratch.clear();
            scratch.extend((b0..b1).map(|i| i as u32));
            // Stable: equal classes keep their stream order.
            scratch.sort_by_key(|&i| op_idx[i as usize]);
            let base = bucket_idx.len() as u32;
            let mut run_start = 0usize;
            for k in 1..=scratch.len() {
                let boundary = k == scratch.len()
                    || op_idx[scratch[k] as usize] != op_idx[scratch[run_start] as usize];
                if boundary {
                    class_runs.push(ClassRun {
                        start: base + run_start as u32,
                        end: base + k as u32,
                        class: u32::from(op_idx[scratch[run_start] as usize]),
                    });
                    run_start = k;
                }
            }
            bucket_idx.extend_from_slice(&scratch);
            block_runs.push(class_runs.len() as u32);
            n_blocks += 1;
            b0 = b1;
        }
        row_blocks.push(n_blocks);
    }
    (bucket_idx, class_runs, block_runs, row_blocks)
}

/// Executes the instance span `span` (one tile row) for the `lanes`
/// vectors of one lane block, accumulating into their zeroed window.
///
/// * `xs` is the block's interleaved padded x: column `c` of lane `l` at
///   `c·lanes + l`.
/// * `window` is the block's row-major window: row `k` of lane `l` at
///   `k·lanes + l`.
///
/// Each lane's accumulation into every y element is stream order —
/// bit-identical to the per-instance reference loop.
pub(crate) fn execute_row(
    soa: SoaRef<'_>,
    span: (usize, usize),
    xs: &[f32],
    lanes: usize,
    window: &mut [f32],
) {
    with_lanes!(lanes, row(soa, span, xs, window))
}

/// [`execute_row`] at a compile-time lane count. The x-mux and output-mux
/// indices are masked to their ranges (a no-op on valid kernels) so the
/// lane loops carry no bounds checks.
fn row<const L: usize>(soa: SoaRef<'_>, (i0, i1): (usize, usize), xs: &[f32], window: &mut [f32]) {
    let (xcols, _) = xs.as_chunks::<L>();
    let (rows, _) = window.as_chunks_mut::<L>();
    // Node 7 is the VALU's zero output and is never written.
    let mut nodes = [[0.0f32; L]; 8];
    for i in i0..i1 {
        let ClassKernel { col, sel } = soa.kernels[usize::from(soa.op_idx[i])];
        let c = soa.x_base[i] as usize;
        let x = &xcols[c..c + 4];
        let [x0, x1, x2, x3] = col.map(|c| &x[c & 3]);
        let v = &soa.values[4 * i..4 * i + 4];
        let (v0, v1, v2, v3) = (v[0], v[1], v[2], v[3]);
        for l in 0..L {
            let p0 = v0 * x0[l];
            let p1 = v1 * x1[l];
            let p2 = v2 * x2[l];
            let p3 = v3 * x3[l];
            let pair01 = p0 + p1;
            let pair23 = p2 + p3;
            nodes[0][l] = p0;
            nodes[1][l] = p1;
            nodes[2][l] = p2;
            nodes[3][l] = p3;
            nodes[4][l] = pair01;
            nodes[5][l] = pair23;
            nodes[6][l] = pair01 + pair23;
        }
        let r0 = soa.y_base[i] as usize;
        for (out, &s) in rows[r0..r0 + 4].iter_mut().zip(&sel) {
            for (o, n) in out.iter_mut().zip(&nodes[s & 7]) {
                *o += *n;
            }
        }
    }
}

/// Writes one lane block's x vectors into `dst` interleaved
/// column-outer, `dst[c·L + l] = xs[l][c]`, for `L = xs.len()` lanes and
/// every column of the (equally long) vectors.
pub(crate) fn interleave(xs: &[impl AsRef<[f32]>], dst: &mut [f32]) {
    with_lanes!(xs.len(), interleave_lanes(xs, dst))
}

fn interleave_lanes<const L: usize>(xs: &[impl AsRef<[f32]>], dst: &mut [f32]) {
    let src: [&[f32]; L] = std::array::from_fn(|l| xs[l].as_ref());
    let (cols, _) = dst[..L * src[0].len()].as_chunks_mut::<L>();
    for (c, col) in cols.iter_mut().enumerate() {
        for (d, s) in col.iter_mut().zip(&src) {
            *d = s[c];
        }
    }
}

/// Adds a row-major window into its `L = ys.len()` vectors:
/// `ys[l][rows.start + k] += window[k·L + l]` for every row of `rows`.
pub(crate) fn fold(window: &[f32], ys: &mut [impl AsMut<[f32]>], rows: Range<usize>) {
    with_lanes!(ys.len(), fold_lanes(window, ys, rows))
}

fn fold_lanes<const L: usize>(window: &[f32], ys: &mut [impl AsMut<[f32]>], rows: Range<usize>) {
    let mut it = ys.iter_mut();
    let mut dst: [&mut [f32]; L] = std::array::from_fn(|_| {
        it.next()
            .map_or(&mut [][..], |y| &mut y.as_mut()[rows.clone()])
    });
    let (src, _) = window.as_chunks::<L>();
    for (k, row) in src[..rows.len()].iter().enumerate() {
        for (d, s) in dst.iter_mut().zip(row) {
            d[k] += *s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_kernel_digests_every_node_kind() {
        // Column template: four single products.
        let op = ValuOpcode::compile(0b0010_0010_0010_0010).unwrap();
        let k = ClassKernel::from_opcode(op);
        assert_eq!(k.col, [1, 1, 1, 1]);
        assert_eq!(k.sel, [0, 1, 2, 3]);
        // Row template: total into one row, zeros elsewhere.
        let op = ValuOpcode::compile(0b1111).unwrap();
        let k = ClassKernel::from_opcode(op);
        assert_eq!(k.col, [0, 1, 2, 3]);
        assert_eq!(k.sel, [6, 7, 7, 7]);
        // 2x2 block: the two pair nodes.
        let op = ValuOpcode::compile(0b0011_0011).unwrap();
        let k = ClassKernel::from_opcode(op);
        assert_eq!(k.sel, [4, 5, 7, 7]);
    }

    #[test]
    fn buckets_partition_blocks_and_sort_by_class() {
        // One row of 600 instances with interleaved classes 2,0,1,...
        let op_idx: Vec<u8> = (0..600u32).map(|i| ((i * 7 + 2) % 3) as u8).collect();
        let ranges = [(0usize, 600usize)];
        let (bucket_idx, class_runs, block_runs, row_blocks) = build_buckets(&ranges, &op_idx);
        assert_eq!(row_blocks, vec![0, 3]); // 256 + 256 + 88
        assert_eq!(bucket_idx.len(), 600);
        for b in 0..3usize {
            let (blk_i0, blk_i1) = (b * EXEC_BLOCK, ((b + 1) * EXEC_BLOCK).min(600));
            let mut seen: Vec<u32> = bucket_idx[blk_i0..blk_i1].to_vec();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (blk_i0 as u32..blk_i1 as u32).collect::<Vec<_>>(),
                "block {b} must be a permutation of its instance range"
            );
            // Runs cover the block contiguously, classes ascending, and
            // indices inside a run ascending (stability).
            let runs = &class_runs[block_runs[b] as usize..block_runs[b + 1] as usize];
            let mut cursor = blk_i0 as u32;
            let mut last_class = None;
            for &ClassRun {
                start: s,
                end: e,
                class: c,
            } in runs
            {
                assert_eq!(s, cursor);
                assert!(e > s);
                cursor = e;
                assert!(last_class < Some(c), "classes must strictly ascend");
                last_class = Some(c);
                let run = &bucket_idx[s as usize..e as usize];
                assert!(run.windows(2).all(|w| w[0] < w[1]), "stable within class");
                assert!(run.iter().all(|&i| u32::from(op_idx[i as usize]) == c));
            }
            assert_eq!(cursor, blk_i1 as u32);
        }
    }
}
