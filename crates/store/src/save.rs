//! Freezing a prepared plan into wire-v3 bytes.

use spasm_format::{Header3, SpasmMatrix, Wire3Writer, WireError};
use spasm_hw::ExecutionPlan;

use crate::StoreError;

/// Section ids of the v3 plan container. The container format
/// (`spasm_format::Wire3Writer`/`Wire3Reader`) treats ids as opaque;
/// these constants define what a *plan* container carries.
pub mod section {
    /// Hardware configuration the plan was prepared for.
    pub const META: u32 = 1;
    /// Template portfolio masks, one `u16` per template in LUT order.
    pub const TEMPLATES: u32 = 2;
    /// Tile directory: 20-byte records `{row u32, col u32, first u64,
    /// count u32}` in stream order.
    pub const TILES: u32 = 3;
    /// Per instance: base of its 4-wide x segment (`u32`).
    pub const XBASE: u32 = 4;
    /// Per instance: y offset within the tile row's window (`u32`).
    pub const YBASE: u32 = 5;
    /// Per instance: opcode class (`u8`).
    pub const OPIDX: u32 = 6;
    /// Four `f32` value slots per instance.
    pub const VALUES: u32 = 7;
    /// Class-bucketed instance order (`u32` instance indices).
    pub const BUCKET_IDX: u32 = 8;
    /// Class runs: 12-byte records `{start u32, end u32, class u32}`.
    pub const CLASS_RUNS: u32 = 9;
    /// Per block: prefix of run counts (`u32`, len blocks+1).
    pub const BLOCK_RUNS: u32 = 10;
    /// Per tile row: prefix of block counts (`u32`, len rows+1).
    pub const ROW_BLOCKS: u32 = 11;
    /// The canonical v2 wire stream of the encoded matrix: fingerprint
    /// source, v2 interop, and the raw encodings fault injection
    /// re-decodes.
    pub const V2STREAM: u32 = 12;
}

fn le32(out: &mut Vec<u8>, words: impl IntoIterator<Item = u32>) {
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Freezes `(matrix, plan)` into a self-contained wire-v3 buffer.
///
/// The stream sections are written in exactly the layout the kernels
/// read (little-endian, natively aligned), so a reader on a
/// little-endian host can execute straight out of the buffer.
///
/// # Errors
///
/// [`StoreError::Wire`] when `plan` was not prepared from `matrix`
/// (instance counts disagree) — freezing a mismatched pair would
/// produce a container that can never validate.
pub fn save_v3(matrix: &SpasmMatrix, plan: &ExecutionPlan) -> Result<Vec<u8>, StoreError> {
    let s = plan.streams();
    let n = matrix.n_instances();
    if s.op_idx.len() != n || s.values.len() != 4 * n {
        return Err(StoreError::Wire(WireError::Inconsistent(
            "plan and matrix instance counts disagree",
        )));
    }

    let mut w = Wire3Writer::new(Header3 {
        rows: matrix.rows(),
        cols: matrix.cols(),
        tile_size: matrix.tile_size(),
        n_templates: matrix.template_masks().len() as u32,
        nnz: matrix.nnz() as u64,
        paddings: matrix.paddings(),
        n_instances: n as u64,
        n_tiles: matrix.tiles().len() as u32,
        n_sections: 0,
    });

    // META: the hardware configuration the plan prices against.
    let cfg = plan.config();
    let mut meta = Vec::with_capacity(20 + cfg.name.len());
    le32(&mut meta, [cfg.num_pe_groups, cfg.num_xvec_ch]);
    meta.extend_from_slice(&cfg.frequency_mhz.to_bits().to_le_bytes());
    le32(&mut meta, [cfg.name.len() as u32]);
    meta.extend_from_slice(cfg.name.as_bytes());
    w.section(section::META, &meta);

    let mut templates = Vec::with_capacity(matrix.template_masks().len() * 2);
    for &m in matrix.template_masks() {
        templates.extend_from_slice(&m.to_le_bytes());
    }
    w.section(section::TEMPLATES, &templates);

    let mut tiles = Vec::with_capacity(matrix.tiles().len() * 20);
    for t in matrix.tiles() {
        le32(&mut tiles, [t.tile_row, t.tile_col]);
        tiles.extend_from_slice(&(t.first_instance as u64).to_le_bytes());
        le32(&mut tiles, [t.n_instances as u32]);
    }
    w.section(section::TILES, &tiles);

    let mut out = Vec::with_capacity(4 * n);
    le32(&mut out, s.x_base.iter().copied());
    w.section(section::XBASE, &out);
    out.clear();
    le32(&mut out, s.y_base.iter().copied());
    w.section(section::YBASE, &out);

    w.section(section::OPIDX, s.op_idx);

    let mut values = Vec::with_capacity(s.values.len() * 4);
    for v in s.values {
        values.extend_from_slice(&v.to_le_bytes());
    }
    w.section(section::VALUES, &values);

    out.clear();
    le32(&mut out, s.bucket_idx.iter().copied());
    w.section(section::BUCKET_IDX, &out);

    let mut runs = Vec::with_capacity(s.class_runs.len() * 12);
    for r in s.class_runs {
        le32(&mut runs, [r.start, r.end, r.class]);
    }
    w.section(section::CLASS_RUNS, &runs);

    out.clear();
    le32(&mut out, s.block_runs.iter().copied());
    w.section(section::BLOCK_RUNS, &out);
    out.clear();
    le32(&mut out, s.row_blocks.iter().copied());
    w.section(section::ROW_BLOCKS, &out);

    w.section(section::V2STREAM, &matrix.to_bytes());

    Ok(w.finish())
}
