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
//! 2. **Stream order, a y quad in registers.** Instances run in stream
//!    order. At widths 1, 2 and 4 each one's outputs are added straight
//!    into its 4 window rows. At widths 8 and 16 the body holds the 4 rows
//!    of the current `y_base` (the quad, `4·P` partial sums) in registers,
//!    as a PE holds its partial sums in its y-buffer: the quad is loaded
//!    when `y_base` changes and stored back when it changes again and
//!    after the last instance. The stream is sorted by (tile, sub-row,
//!    sub-col), so consecutive instances mostly share a quad, and each no
//!    longer waits on the previous one's store. Either way every lane
//!    sees exactly the IEEE operation sequence of the per-instance
//!    reference (`process_span` in `plan.rs`): four products, `p0+p1`,
//!    `p2+p3`, their sum, and one `+=` per output row in stream order; a
//!    quad the stream revisits is reloaded with what it holds. Rust never
//!    contracts `a*b + c` into a fused multiply-add, whatever target
//!    features a function enables, so the window is **bit-identical** to
//!    the reference, signed zeros, infinities and subnormals included; no
//!    ULP bound is needed. The one exception is a NaN's payload: a NaN
//!    result is NaN on every path, but when an add meets two NaNs, which
//!    payload it keeps depends on the operand order the compiler picks,
//!    which Rust leaves unspecified and which differs between the lane
//!    widths' bodies.
//!
//! 3. **Monomorphised lane loops at power-of-two widths.** A lane block
//!    of `n` vectors runs at the padded width `P = n.next_power_of_two()`
//!    (1, 2, 4, 8 or [`LANE_BLOCK`] = 16): the `P - n` pad lanes hold a
//!    zeroed x, are computed alongside the real ones and are never read
//!    back. The body is generic over `P`, so every lane loop has a
//!    compile-time trip count and only five bodies exist, and the opcode
//!    is predigested into a [`ClassKernel`] of mux indices, so the only
//!    branch in the body is the quad change at widths 8 and 16. The lane
//!    loops are the SIMD datapath, with no intrinsics: at `P = 1`, `2`
//!    and `4` they compile to packed `mulps`/`addps` at the x86_64 SSE2
//!    baseline. At `P = 16` [`execute_row`] runs the same body through an
//!    `#[target_feature(enable = "avx512f")]` wrapper when the host has
//!    AVX-512F, so each lane loop is one 512-bit operation; otherwise, and
//!    at `P = 8`, it runs it through an `#[target_feature(enable =
//!    "avx2")]` wrapper when the host has AVX2, so each lane loop is one or
//!    two 256-bit operations. Both are checked at run time, and the choice
//!    is the module's one `unsafe` block; hosts with neither run the
//!    baseline body. Enabling AVX-512F also enables FMA, but with no
//!    contraction no build emits one, so all builds perform the same IEEE
//!    operations and agree bit for bit (NaN payloads aside, as above).
//!    An odd width such as 3 or 7 would fall back to scalar tails and
//!    cost more than the next power of two. Lanes never interact, so a
//!    pad lane cannot change a real lane's bits (not even through a NaN
//!    it computes from `0·inf`).
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
/// Larger batches run in lane blocks of this size; the last may hold
/// fewer vectors and then runs at its [`padded_width`].
pub const LANE_BLOCK: usize = 16;

/// The padded width a lane block of `lanes` real vectors runs at: the
/// next power of two, so every block is one of the five monomorphised
/// widths `with_lanes!` dispatches to.
pub(crate) fn padded_width(lanes: usize) -> usize {
    lanes.next_power_of_two()
}

/// Calls `$f::<P>(..)` for the runtime padded width `$width`: one
/// monomorphised body per power-of-two width up to `LANE_BLOCK`.
macro_rules! with_lanes {
    ($width:expr, $f:ident($($arg:expr),*)) => {
        match $width {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            4 => $f::<4>($($arg),*),
            8 => $f::<8>($($arg),*),
            16 => $f::<16>($($arg),*),
            n => unreachable!("lane width {n} is not a power of two up to LANE_BLOCK"),
        }
    };
}
const _: () = assert!(
    LANE_BLOCK == 16,
    "with_lanes! covers the padded widths 1, 2, 4, 8 and 16"
);

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

/// A [`ValuOpcode`] predigested for the lane kernel, so its muxes take no
/// branch: the x-mux selectors as `usize` offsets and the output muxes as
/// indices into the 8-entry node array
/// `[p0, p1, p2, p3, p0+p1, p2+p3, Σp, 0]`.
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
/// every kernel call.
#[derive(Debug, Clone)]
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
/// by opcode class with a counting sort over the `n_classes` classes.
///
/// Every `op_idx` entry must be below `n_classes` (`assemble` range-checks
/// them against the portfolio first). A structural delta rebuilds these
/// tables from the spliced stream in the same linear pass.
pub(crate) fn build_buckets(
    inst_ranges: &[(usize, usize)],
    op_idx: &[u8],
    n_classes: usize,
) -> Buckets {
    let n: usize = inst_ranges.iter().map(|&(i0, i1)| i1 - i0).sum();
    let mut bucket_idx: Vec<u32> = Vec::with_capacity(n);
    let mut class_runs: Vec<ClassRun> = Vec::new();
    let mut block_runs: Vec<u32> = vec![0];
    let mut row_blocks: Vec<u32> = Vec::with_capacity(inst_ranges.len() + 1);
    row_blocks.push(0);
    // Per class: its count in the block, then its next slot in `bucket_idx`.
    let mut slots: Vec<u32> = vec![0; n_classes];
    for &(i0, i1) in inst_ranges {
        for b0 in (i0..i1).step_by(EXEC_BLOCK) {
            let block = &op_idx[b0..(b0 + EXEC_BLOCK).min(i1)];
            slots.fill(0);
            for &c in block {
                slots[usize::from(c)] += 1;
            }
            // One run per present class, in ascending class order.
            let mut start = bucket_idx.len() as u32;
            for (class, slot) in slots.iter_mut().enumerate() {
                if *slot > 0 {
                    let end = start + *slot;
                    class_runs.push(ClassRun {
                        start,
                        end,
                        class: class as u32,
                    });
                    (*slot, start) = (start, end);
                }
            }
            // Scatter in stream order: equal classes keep their order.
            bucket_idx.resize(start as usize, 0);
            for (i, &c) in (b0 as u32..).zip(block) {
                let slot = &mut slots[usize::from(c)];
                bucket_idx[*slot as usize] = i;
                *slot += 1;
            }
            block_runs.push(class_runs.len() as u32);
        }
        row_blocks.push((block_runs.len() - 1) as u32);
    }
    (bucket_idx, class_runs, block_runs, row_blocks)
}

/// Executes the instance span `span` (one tile row) for one lane block
/// at padded width `width`, accumulating into its zeroed window.
///
/// * `xs` is the block's interleaved padded x: column `c` of lane `l` at
///   `c·width + l`.
/// * `window` is the block's row-major window: row `k` of lane `l` at
///   `k·width + l`.
///
/// Each lane's accumulation into every y element is stream order —
/// bit-identical to the per-instance reference loop. Widths 8 and 16
/// hold the current 4-row quad in registers (see [`row`]). Width 16 runs
/// the AVX-512 build of the body on hosts that have `avx512f`, and widths
/// 8 and 16 run the AVX2 build on hosts that have AVX2; every other case
/// runs the baseline build.
pub(crate) fn execute_row(
    soa: &SoaRef<'_>,
    span: (usize, usize),
    xs: &[f32],
    width: usize,
    window: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if width >= 8 {
        use std::arch::is_x86_feature_detected as has;
        let avx512 = width == 16 && has!("avx512f");
        if avx512 || has!("avx2") {
            // SAFETY: `row_avx512` and `row_avx2` are safe code that differ
            // from `row` only in being compiled for AVX-512F or AVX2, and
            // each is called only after the checks above have confirmed
            // that this CPU executes its instructions.
            return unsafe {
                if avx512 {
                    row_avx512(soa, span, xs, window)
                } else {
                    with_lanes!(width, row_avx2(soa, span, xs, window))
                }
            };
        }
    }
    with_lanes!(width, row(soa, span, xs, window))
}

/// [`row`] compiled with AVX2 enabled, so its `P`-lane loops use 256-bit
/// registers. Calling it needs AVX2 on the host: [`execute_row`] checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn row_avx2<const P: usize>(
    soa: &SoaRef<'_>,
    span: (usize, usize),
    xs: &[f32],
    window: &mut [f32],
) {
    row::<P>(soa, span, xs, window)
}

/// [`row`] at width 16 compiled with AVX-512F enabled, so its lane loops
/// are one 512-bit operation each. Calling it needs AVX-512F on the host:
/// [`execute_row`] checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn row_avx512(soa: &SoaRef<'_>, span: (usize, usize), xs: &[f32], window: &mut [f32]) {
    row::<16>(soa, span, xs, window)
}

/// [`execute_row`] at a compile-time width `P`. The x-mux and output-mux
/// indices are masked to their ranges (a no-op on valid kernels) so the
/// lane loops carry no bounds checks. Always inlined, so each caller —
/// the baseline dispatch, `row_avx2` and `row_avx512` — compiles it for
/// its own target features.
///
/// At `P >= 8` the body keeps the 4 window rows of the current `y_base`
/// (the quad) in a local `[[f32; P]; 4]`: loaded from the window when
/// `y_base` changes, stored back when it changes again and after the
/// last instance. Consecutive instances mostly share a quad (the stream
/// is sorted by tile, sub-row, sub-col), so each one no longer waits on
/// the previous one's store. A quad the stream revisits later is
/// reloaded, so every y element still gets the same adds in stream
/// order. Narrower widths add straight into the window: they do too
/// little work per instance to hide a mispredicted quad change.
#[inline(always)]
fn row<const P: usize>(soa: &SoaRef<'_>, (i0, i1): (usize, usize), xs: &[f32], window: &mut [f32]) {
    let (xcols, _) = xs.as_chunks::<P>();
    let (rows, _) = window.as_chunks_mut::<P>();
    // Node 7 is the VALU's zero output and is never written.
    let mut nodes = [[0.0f32; P]; 8];
    let mut quad = [[0.0f32; P]; 4];
    // The window row `quad` was loaded from, if any.
    let mut held: Option<usize> = None;
    for i in i0..i1 {
        let ClassKernel { col, sel } = soa.kernels[usize::from(soa.op_idx[i])];
        let c = soa.x_base[i] as usize;
        let x = &xcols[c..c + 4];
        let [x0, x1, x2, x3] = col.map(|c| &x[c & 3]);
        let v = &soa.values[4 * i..4 * i + 4];
        let (v0, v1, v2, v3) = (v[0], v[1], v[2], v[3]);
        for l in 0..P {
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
        if P < 8 {
            add_outputs(&mut rows[r0..r0 + 4], &sel, &nodes);
            continue;
        }
        if held != Some(r0) {
            if let Some(h) = held {
                rows[h..h + 4].copy_from_slice(&quad);
            }
            quad.copy_from_slice(&rows[r0..r0 + 4]);
            held = Some(r0);
        }
        add_outputs(&mut quad, &sel, &nodes);
    }
    if let Some(h) = held {
        rows[h..h + 4].copy_from_slice(&quad);
    }
}

/// Adds each output row's selected node into it: `out[k] += nodes[sel[k]]`
/// lane-wise, the VALU's output mux followed by the y-buffer add.
#[inline(always)]
fn add_outputs<const P: usize>(out: &mut [[f32; P]], sel: &[usize; 4], nodes: &[[f32; P]; 8]) {
    for (o, &s) in out.iter_mut().zip(sel) {
        for (o, n) in o.iter_mut().zip(&nodes[s & 7]) {
            *o += *n;
        }
    }
}

/// Writes one lane block's `xs.len()` vectors into `dst` interleaved
/// column-outer at padded width `P = padded_width(xs.len())`:
/// `dst[c·P + l] = xs[l][c]` for every column of the (equally long)
/// vectors, and `0.0` in the pad lanes `xs.len()..P`.
pub(crate) fn interleave(xs: &[impl AsRef<[f32]>], dst: &mut [f32]) {
    with_lanes!(padded_width(xs.len()), interleave_lanes(xs, dst))
}

fn interleave_lanes<const P: usize>(xs: &[impl AsRef<[f32]>], dst: &mut [f32]) {
    let n = xs.len();
    // Pad lanes copy lane 0 and are zeroed afterwards, so the copy loop
    // keeps its compile-time trip count.
    let src: [&[f32]; P] = std::array::from_fn(|l| xs[l.min(n - 1)].as_ref());
    let (cols, _) = dst[..P * src[0].len()].as_chunks_mut::<P>();
    for (c, col) in cols.iter_mut().enumerate() {
        for (d, s) in col.iter_mut().zip(&src) {
            *d = s[c];
        }
    }
    if n < P {
        cols.iter_mut().for_each(|col| col[n..].fill(0.0));
    }
}

/// Adds a row-major window of padded width `P = padded_width(ys.len())`
/// into its vectors: `ys[l][rows.start + k] += window[k·P + l]` for every
/// row of `rows`; the pad lanes are never read.
pub(crate) fn fold(window: &[f32], ys: &mut [impl AsMut<[f32]>], rows: Range<usize>) {
    with_lanes!(padded_width(ys.len()), fold_lanes(window, ys, rows))
}

fn fold_lanes<const P: usize>(window: &[f32], ys: &mut [impl AsMut<[f32]>], rows: Range<usize>) {
    let (src, _) = window.as_chunks::<P>();
    let src = &src[..rows.len()];
    for (l, y) in ys.iter_mut().enumerate() {
        for (d, s) in y.as_mut()[rows.clone()].iter_mut().zip(src) {
            *d += s[l];
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

    /// A value drawn to hit the IEEE corner cases as often as the plain
    /// ones: signed zeros, infinities, NaNs with random payloads and
    /// signs, subnormals, and ordinary magnitudes.
    fn awkward_f32(rng: &mut rand::rngs::SmallRng) -> f32 {
        use rand::Rng;
        let sign = u32::from(rng.gen_range(0..2u8)) << 31;
        let bits = match rng.gen_range(0..8u32) {
            0 => 0,
            1 => 0x7f80_0000,
            2 => 0x7f80_0000 | rng.gen_range(1..0x80_0000u32),
            3 => rng.gen_range(1..0x80_0000u32),
            _ => return rng.gen_range(-4.0f32..4.0),
        };
        f32::from_bits(sign | bits)
    }

    /// `got` equals `want` bit for bit — signed zeros, infinities and
    /// subnormals included — except that a NaN may carry another NaN's
    /// payload. When an add meets two NaNs, which payload it returns
    /// depends on the operand order the compiler picks (Rust leaves it
    /// unspecified, and the two builds of the body do order them
    /// differently), so a NaN element only has to be NaN in both.
    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {k} is {g:?} ({:#x}), want {w:?} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Every seventh realisable opcode class.
    fn sampled_kernels() -> Vec<ClassKernel> {
        let kernels: Vec<ClassKernel> = (0..=u16::MAX)
            .filter_map(|mask| ValuOpcode::compile(mask).ok())
            .step_by(7)
            .map(ClassKernel::from_opcode)
            .collect();
        assert!(kernels.len() <= 256);
        kernels
    }

    /// Which wide builds of the body this host can run: `(avx2, avx512f)`.
    fn wide_bodies() -> (bool, bool) {
        #[cfg(target_arch = "x86_64")]
        let wide = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let wide = (false, false);
        if !wide.0 {
            println!("host has no AVX2: the AVX2 body was skipped");
        }
        if !wide.1 {
            println!("host has no AVX-512F: the AVX-512 body was skipped");
        }
        wide
    }

    /// Runs the instances `span` of a tile row whose instances write the
    /// window rows `y_base` (multiples of 4 below 32), over a 64-column x
    /// segment and a prefilled 32-row window, through every body at width
    /// `P`, and checks that they agree bit for bit; `what` names the case.
    ///
    /// The reference is each lane's width-1 run: at `P = 1` the body adds
    /// straight into the window, so it does not share the register-held
    /// quad of the `P >= 8` bodies it checks. The baseline body, the
    /// dispatching entry point, the AVX2 body and (at `P = 16`) the
    /// AVX-512 body are each compared against it. `draw` draws every x
    /// entry, matrix value and initial window entry.
    fn check_span<const P: usize>(
        rng: &mut rand::rngs::SmallRng,
        kernels: &[ClassKernel],
        what: &str,
        y_base: &[u32],
        span: (usize, usize),
        draw: fn(&mut rand::rngs::SmallRng) -> f32,
        (avx2, avx512): (bool, bool),
    ) {
        use rand::Rng;
        let (cols, wlen, n) = (64u32, 32usize, y_base.len());
        let x_base: Vec<u32> = (0..n).map(|_| 4 * rng.gen_range(0..cols / 4)).collect();
        let op_idx: Vec<u8> = (0..n)
            .map(|_| rng.gen_range(0..kernels.len()) as u8)
            .collect();
        let values: Vec<f32> = (0..4 * n).map(|_| draw(rng)).collect();
        let soa = SoaRef {
            x_base: &x_base,
            y_base,
            op_idx: &op_idx,
            values: &values,
            kernels,
        };
        let xs: Vec<f32> = (0..cols as usize * P).map(|_| draw(rng)).collect();
        let init: Vec<f32> = (0..wlen * P).map(|_| draw(rng)).collect();
        let lane =
            |w: &[f32], l: usize| -> Vec<f32> { w[l..].iter().step_by(P).copied().collect() };
        let mut base = init.clone();
        row::<P>(&soa, span, &xs, &mut base);
        for l in 0..P {
            let mut w1 = lane(&init, l);
            row::<1>(&soa, span, &lane(&xs, l), &mut w1);
            assert_same(
                &lane(&base, l),
                &w1,
                &format!("{what}: lane {l} of P = {P} against P = 1"),
            );
        }
        let mut dispatched = init.clone();
        execute_row(&soa, span, &xs, P, &mut dispatched);
        assert_same(&dispatched, &base, &format!("{what}: dispatch at P = {P}"));
        #[cfg(target_arch = "x86_64")]
        {
            if avx2 {
                let mut wide = init.clone();
                // SAFETY: `wide_bodies` checked that the host has AVX2.
                unsafe { row_avx2::<P>(&soa, span, &xs, &mut wide) };
                assert_same(&wide, &base, &format!("{what}: AVX2 body at P = {P}"));
            }
            if avx512 && P == 16 {
                let mut wide = init.clone();
                // SAFETY: `wide_bodies` checked that the host has AVX-512F.
                unsafe { row_avx512(&soa, span, &xs, &mut wide) };
                assert_same(&wide, &base, &format!("{what}: AVX-512 body at P = {P}"));
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (avx2, avx512);
    }

    fn plain_f32(rng: &mut rand::rngs::SmallRng) -> f32 {
        rand::Rng::gen_range(rng, -4.0f32..4.0)
    }

    #[test]
    fn avx2_body_matches_baseline_body_bit_for_bit() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (kernels, wide) = (sampled_kernels(), wide_bodies());
        // Random tile rows whose instances each write one of 8 quads.
        fn random<const P: usize>(rng: &mut SmallRng, kernels: &[ClassKernel], wide: (bool, bool)) {
            let n = rng.gen_range(0..300);
            let y_base: Vec<u32> = (0..n).map(|_| 4 * rng.gen_range(0..8)).collect();
            let i0 = rng.gen_range(0..=n);
            let span = (i0, rng.gen_range(i0..=n));
            check_span::<P>(
                rng,
                kernels,
                "random quads",
                &y_base,
                span,
                awkward_f32,
                wide,
            );
        }
        let mut rng = SmallRng::seed_from_u64(0x5eed_a2c2);
        for _ in 0..40 {
            random::<8>(&mut rng, &kernels, wide);
            random::<16>(&mut rng, &kernels, wide);
        }
    }

    #[test]
    fn register_quad_follows_every_y_base_shape() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (kernels, wide) = (sampled_kernels(), wide_bodies());
        let mut rng = SmallRng::seed_from_u64(0x9ad_0a1d);
        // Runs of `(quad, length)`, as window rows.
        let runs = |runs: &[(u32, usize)]| -> Vec<u32> {
            runs.iter()
                .flat_map(|&(q, len)| std::iter::repeat_n(4 * q, len))
                .collect()
        };
        for round in 0..12 {
            let long: Vec<(u32, usize)> = (0..rng.gen_range(1..5))
                .map(|_| (rng.gen_range(0..8), rng.gen_range(20..90)))
                .collect();
            let (a, b) = (rng.gen_range(0..8), rng.gen_range(0..7));
            let b = if b >= a { b + 1 } else { b };
            let k = rng.gen_range(1..6);
            let whole = |y_base: Vec<u32>| {
                let n = y_base.len();
                (y_base, (0, n))
            };
            // Shapes that random draws over 8 quads rarely produce.
            let shapes = [
                ("long runs of one quad", whole(runs(&long))),
                (
                    "a quad revisited after another",
                    whole(runs(&[(a, k), (b, k), (a, k), (b, 1), (a, 2)])),
                ),
                (
                    "a new quad at every instance",
                    whole(runs(&[(a, 1), (b, 1), (a, 1), (b, 1), (a, 1)])),
                ),
                ("a one-instance span", whole(runs(&[(a, 1)]))),
                ("an empty span", whole(vec![])),
                (
                    "an empty span mid-stream",
                    (runs(&[(a, 1), (b, 2)]), (1, 1)),
                ),
                (
                    "a one-instance span mid-stream",
                    (runs(&[(a, 1), (b, 2)]), (1, 2)),
                ),
                (
                    "a span whose last instance starts a new quad",
                    whole(runs(&[(a, k), (b, 1)])),
                ),
                (
                    "a span starting and ending mid-run",
                    (runs(&[(a, k + 2), (b, k + 2)]), (k, 2 * k + 3)),
                ),
            ];
            for (what, (y_base, span)) in &shapes {
                for draw in [plain_f32 as fn(&mut SmallRng) -> f32, awkward_f32] {
                    let what = format!("round {round}, {what}");
                    check_span::<8>(&mut rng, &kernels, &what, y_base, *span, draw, wide);
                    check_span::<16>(&mut rng, &kernels, &what, y_base, *span, draw, wide);
                }
            }
        }
    }

    #[test]
    fn buckets_partition_blocks_and_sort_by_class() {
        // One row of 600 instances with interleaved classes 2,0,1,...
        let op_idx: Vec<u8> = (0..600u32).map(|i| ((i * 7 + 2) % 3) as u8).collect();
        let ranges = [(0usize, 600usize)];
        let (bucket_idx, class_runs, block_runs, row_blocks) = build_buckets(&ranges, &op_idx, 3);
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

    /// The bucketing tables by a stable comparison sort of each block,
    /// one run per maximal equal-class stretch of the sorted block.
    fn stable_sort_reference(inst_ranges: &[(usize, usize)], op_idx: &[u8]) -> Buckets {
        let (mut bucket_idx, mut class_runs) = (Vec::<u32>::new(), Vec::new());
        let (mut block_runs, mut row_blocks) = (vec![0], vec![0]);
        for &(i0, i1) in inst_ranges {
            for b0 in (i0..i1).step_by(EXEC_BLOCK) {
                let mut block: Vec<u32> = (b0 as u32..(b0 + EXEC_BLOCK).min(i1) as u32).collect();
                block.sort_by_key(|&i| op_idx[i as usize]);
                for run in block.chunk_by(|&a, &b| op_idx[a as usize] == op_idx[b as usize]) {
                    let start = bucket_idx.len() as u32;
                    bucket_idx.extend_from_slice(run);
                    class_runs.push(ClassRun {
                        start,
                        end: bucket_idx.len() as u32,
                        class: u32::from(op_idx[run[0] as usize]),
                    });
                }
                block_runs.push(class_runs.len() as u32);
            }
            row_blocks.push((block_runs.len() - 1) as u32);
        }
        (bucket_idx, class_runs, block_runs, row_blocks)
    }

    #[test]
    fn counting_sort_buckets_equal_a_stable_sort() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            // Tile rows of 0, 1, partial-block, whole-block and
            // multi-block lengths.
            let mut inst_ranges = Vec::new();
            let mut n = 0;
            for _ in 0..rng.gen_range(0..8) {
                let len = match rng.gen_range(0..5u32) {
                    0 => 0,
                    1 => 1,
                    2 => EXEC_BLOCK,
                    _ => rng.gen_range(2..3 * EXEC_BLOCK + 7),
                };
                inst_ranges.push((n, n + len));
                n += len;
            }
            // All 16 classes, a few, or one per stream.
            let n_classes = [16, rng.gen_range(1..=16), 1][rng.gen_range(0..3)];
            let op_idx: Vec<u8> = (0..n).map(|_| rng.gen_range(0..n_classes as u8)).collect();
            assert_eq!(
                build_buckets(&inst_ranges, &op_idx, n_classes),
                stable_sort_reference(&inst_ranges, &op_idx),
                "seed {seed}"
            );
        }
    }
}
