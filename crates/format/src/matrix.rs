//! The encoded SPASM matrix: global tile directory + per-tile instance
//! streams.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use spasm_patterns::DecompositionTable;
use spasm_sparse::{Coo, Csr};

use crate::crc;
use crate::encoding::{subs_per_tile, PositionEncoding, PATTERN_EDGE};
use crate::error::FormatError;
use crate::serialize::{record_words, WireError};
use crate::submatrix::{SubBlock, SubmatrixMap};
use crate::tiling::group_by_tile;

/// One entry of the global composition: a non-empty tile in COO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Tile row index (`matrix_row / tile_size`).
    pub tile_row: u32,
    /// Tile column index (`matrix_col / tile_size`).
    pub tile_col: u32,
    /// First instance of this tile in the stream.
    pub first_instance: usize,
    /// Number of instances belonging to this tile.
    pub n_instances: usize,
}

/// A decoded view of one template-pattern instance: the position word plus
/// its four value slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemplateInstance {
    /// The shared position-encoding word.
    pub encoding: PositionEncoding,
    /// Four value slots in template cell order (padding slots are 0.0).
    pub values: [f32; 4],
}

/// A sparse matrix encoded in the SPASM data format.
///
/// Construction validates the tile size and requires a decomposition table
/// whose portfolio covers every occurring local pattern; see
/// [`SpasmMatrix::encode`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpasmMatrix {
    rows: u32,
    cols: u32,
    tile_size: u32,
    nnz: usize,
    paddings: u64,
    /// Portfolio template masks in `t_idx` order (the opcode LUT content).
    templates: Vec<u16>,
    tiles: Vec<Tile>,
    encodings: Vec<PositionEncoding>,
    /// Four values per encoding, concatenated. Reference-counted so
    /// execution plans (and their clones) can share the buffer instead of
    /// copying `4 × n_instances` floats per plan; the stream is immutable
    /// after encoding, so sharing is free.
    values: Arc<[f32]>,
    /// The CRC-32 of the canonical v2 payload and its per-tile parts,
    /// once known (see [`SpasmMatrix::fingerprint`]).
    payload_crc: PayloadCrc,
}

/// A cache of the CRC-32 over a matrix's canonical v2 payload.
///
/// The payload is the header, template and tile-directory sections (a
/// few bytes per tile) followed by each tile's run of 20-byte stream
/// records. `tiles` holds, parallel to the tile directory, a
/// [`crc::Segment`] per tile: the raw CRC of its records and their
/// length shift. Given the segments, `whole` is one fold: the CRC of the
/// sections before the stream, then one `multmodp` per tile.
///
/// Every mutation goes through the matrix's own methods, which keep it
/// coherent:
///
/// * [`SpasmMatrix::from_bytes`] seeds `whole` with the CRC it has just
///   verified; [`SpasmMatrix::encode`] and [`SpasmMatrix::from_stream`]
///   start both empty;
/// * [`SpasmMatrix::patch_values`] moves whichever of `whole` and the
///   patched tiles' segments are known, by CRC linearity;
/// * [`SpasmMatrix::spliced`] carries every untouched tile's segment
///   over, patches the one flag word of a tile whose RE flag flipped, and
///   checksums only the re-encoded tiles;
/// * the first splice or fingerprint that needs the segments fills them
///   in one pass.
///
/// It is derived state, so it never takes part in matrix equality.
#[derive(Debug, Clone, Default)]
struct PayloadCrc {
    whole: OnceLock<u32>,
    tiles: OnceLock<Vec<crc::Segment>>,
}

impl PartialEq for PayloadCrc {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl SpasmMatrix {
    /// Encodes a matrix into the SPASM format: decomposes every occupied
    /// submatrix with `table`, tiles the instances at `tile_size`, and
    /// emits the COO tile directory plus the position-encoded stream.
    ///
    /// Instances within a tile are ordered by `(r_idx, c_idx)`; tiles are
    /// ordered by `(tile_row, tile_col)`. The final instance of each tile
    /// carries `CE = 1`, and additionally `RE = 1` when the tile is the
    /// last of its tile row.
    ///
    /// # Errors
    ///
    /// * [`FormatError::InvalidTileSize`] unless `tile_size` is a positive
    ///   multiple of 4 at most [`crate::MAX_TILE_SIZE`];
    /// * [`FormatError::UncoverablePattern`] if the portfolio cannot cover
    ///   an occurring local pattern.
    pub fn encode(
        map: &SubmatrixMap,
        table: &DecompositionTable,
        tile_size: u32,
    ) -> Result<Self, FormatError> {
        let spt = subs_per_tile(tile_size)?;
        let templates: Vec<u16> = table.template_masks().to_vec();
        let mut tiles: Vec<Tile> = Vec::new();
        let mut encodings: Vec<PositionEncoding> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        let mut paddings: u64 = 0;
        group_by_tile(
            map.blocks(),
            |b| (b.sub_r, b.sub_c),
            map.cols(),
            tile_size,
            |members: &mut Vec<usize>, i| members.push(i),
            |tile_row, tile_col, members| {
                let first_instance = encodings.len();
                for i in members {
                    paddings += u64::from(Self::encode_block(
                        &templates,
                        table,
                        &map.blocks()[i],
                        spt,
                        &mut |e, v| {
                            encodings.push(e);
                            values.extend_from_slice(&v);
                        },
                    )?);
                }
                tiles.push(Tile {
                    tile_row,
                    tile_col,
                    first_instance,
                    n_instances: encodings.len() - first_instance,
                });
                Ok(())
            },
        )?;

        Self::stamp_tile_ends(&tiles, &mut encodings, |_, _, _| {});

        Ok(SpasmMatrix {
            rows: map.rows(),
            cols: map.cols(),
            tile_size,
            nnz: map.nnz(),
            paddings,
            templates,
            tiles,
            encodings,
            values: values.into(),
            payload_crc: PayloadCrc::default(),
        })
    }

    /// Stamps CE on each tile's last instance, and RE as well when the
    /// tile is the last of its tile row, leaving every other instance
    /// as it is. `restamped(t, old, new)` hears of each last word of tile
    /// `t` that changed.
    ///
    /// Over a stream whose other instances carry no flags this yields
    /// exactly the flag assignment [`SpasmMatrix::encode`] produces.
    /// [`SpasmMatrix::spliced`] relies on that: a copied tile's records
    /// keep their bytes except, at most, its last word, whose RE flag
    /// flips when a later tile of its row appears or empties.
    fn stamp_tile_ends(
        tiles: &[Tile],
        encodings: &mut [PositionEncoding],
        mut restamped: impl FnMut(usize, u32, u32),
    ) {
        for (t, tile) in tiles.iter().enumerate() {
            if tile.n_instances == 0 {
                continue;
            }
            let last = tile.first_instance + tile.n_instances - 1;
            let row_end = t + 1 == tiles.len() || tiles[t + 1].tile_row != tile.tile_row;
            let (old, new) = (encodings[last], encodings[last].with_flags(true, row_end));
            if new != old {
                encodings[last] = new;
                restamped(t, old.bits(), new.bits());
            }
        }
    }

    /// Decomposes one occupied submatrix and hands its template
    /// instances to `emit` (flags clear), returning the padding slots
    /// introduced.
    ///
    /// The shared inner loop of [`SpasmMatrix::encode`] and
    /// [`SpasmMatrix::spliced`]: the first template instance covering a
    /// cell carries its value; later overlapping instances pad with zero.
    fn encode_block(
        templates: &[u16],
        table: &DecompositionTable,
        b: &SubBlock,
        subs_per_tile: u32,
        emit: &mut impl FnMut(PositionEncoding, [f32; 4]),
    ) -> Result<u32, FormatError> {
        let ids = table
            .template_ids(b.mask)
            .ok_or(FormatError::UncoverablePattern { mask: b.mask })?;
        let r_idx = b.sub_r % subs_per_tile;
        let c_idx = b.sub_c % subs_per_tile;
        let mut remaining = b.mask;
        let mut instances = 0;
        for t_id in ids {
            let tmask = templates[t_id as usize];
            let mut slot_values = [0.0f32; 4];
            let mut slot = 0usize;
            let mut cells = tmask;
            while cells != 0 {
                let bit = cells.trailing_zeros();
                cells &= cells - 1;
                if remaining & (1 << bit) != 0 {
                    slot_values[slot] = b.values[bit as usize];
                    remaining &= !(1 << bit);
                }
                slot += 1;
            }
            debug_assert_eq!(slot, 4, "templates have exactly 4 cells");
            emit(
                PositionEncoding::new(c_idx, r_idx, false, false, t_id),
                slot_values,
            );
            instances += 1;
        }
        Ok(instances * table.template_len() - b.mask.count_ones())
    }

    /// Reassembles a matrix from decoded parts, words as given, checking
    /// the rules [`SpasmMatrix::from_stream`] lists. `payload_crc` is the
    /// CRC-32 of the matrix's canonical v2 payload when the caller has
    /// verified it, else `None`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        rows: u32,
        cols: u32,
        tile_size: u32,
        nnz: usize,
        paddings: u64,
        templates: Vec<u16>,
        tiles: Vec<Tile>,
        encodings: Vec<PositionEncoding>,
        values: Arc<[f32]>,
        payload_crc: Option<u32>,
    ) -> Result<Self, WireError> {
        let n = encodings.len();
        let inconsistent = |what| Err(WireError::Inconsistent(what));
        if subs_per_tile(tile_size).is_err() {
            return inconsistent("tile size out of range");
        }
        if templates.is_empty() || templates.len() > 16 {
            return inconsistent("template count out of range");
        }
        if values.len() != 4 * n {
            return inconsistent("value stream length disagrees with instance count");
        }
        if nnz > 4 * n {
            return inconsistent("fewer value slots than non-zeros");
        }
        let key = |t: &Tile| (t.tile_row, t.tile_col);
        if tiles.windows(2).any(|w| key(&w[0]) >= key(&w[1])) {
            return inconsistent("tile directory not sorted");
        }
        let mut cursor = 0usize;
        for t in &tiles {
            if t.first_instance != cursor || t.n_instances > n - cursor {
                return inconsistent("tile directory does not sum to stream");
            }
            cursor += t.n_instances;
        }
        if cursor != n {
            return inconsistent("tile directory does not sum to stream");
        }
        if encodings
            .iter()
            .any(|e| usize::from(e.t_idx()) >= templates.len())
        {
            return inconsistent("t_idx beyond portfolio");
        }
        Ok(SpasmMatrix {
            rows,
            cols,
            tile_size,
            nnz,
            paddings,
            templates,
            tiles,
            encodings,
            values,
            payload_crc: PayloadCrc {
                whole: payload_crc.map_or_else(OnceLock::new, OnceLock::from),
                tiles: OnceLock::new(),
            },
        })
    }

    /// Assembles a matrix from its decoded parts: the tile directory in
    /// stream order, one position word and four value slots per instance.
    /// The words' CE/RE flags are ignored: they are stamped from the
    /// directory exactly as [`SpasmMatrix::encode`] stamps them. The
    /// payload CRC is unknown until the first
    /// [`SpasmMatrix::fingerprint`], which computes it in one pass and
    /// fills the per-tile CRC segments on the way.
    ///
    /// # Errors
    ///
    /// [`WireError::Inconsistent`] unless the tile size is valid, the
    /// portfolio holds 1 to 16 templates, there are four value slots per
    /// word and at least `nnz` of them, the directory tiles the stream
    /// contiguously in strictly ascending `(tile_row, tile_col)` order
    /// and every word names a template of the portfolio.
    #[allow(clippy::too_many_arguments)]
    pub fn from_stream(
        rows: u32,
        cols: u32,
        tile_size: u32,
        nnz: usize,
        paddings: u64,
        templates: Vec<u16>,
        tiles: Vec<Tile>,
        mut encodings: Vec<PositionEncoding>,
        values: Arc<[f32]>,
    ) -> Result<Self, WireError> {
        for e in &mut encodings {
            *e = e.with_flags(false, false);
        }
        let mut m = Self::from_raw_parts(
            rows, cols, tile_size, nnz, paddings, templates, tiles, encodings, values, None,
        )?;
        Self::stamp_tile_ends(&m.tiles, &mut m.encodings, |_, _, _| {});
        Ok(m)
    }

    /// The CRC-32 of the canonical v2 payload, cached. An unknown one is
    /// folded from the tile segments: the sections before the stream,
    /// then one shift-and-xor per tile.
    pub(crate) fn payload_crc(&self) -> u32 {
        *self.payload_crc.whole.get_or_init(|| {
            let crc = self
                .segments()
                .iter()
                .fold(self.prefix_crc(), |crc, s| s.append_to(crc));
            !crc
        })
    }

    /// The tile segments, parallel to [`SpasmMatrix::tiles`]; filled in
    /// one pass over the stream on first use.
    fn segments(&self) -> &[crc::Segment] {
        self.payload_crc
            .tiles
            .get_or_init(|| self.tiles.iter().map(|t| self.tile_segment(t)).collect())
    }

    /// The segment of `tile`'s stream records.
    fn tile_segment(&self, tile: &Tile) -> crc::Segment {
        let span = tile.first_instance..tile.first_instance + tile.n_instances;
        let records = self.encodings[span.clone()]
            .iter()
            .zip(self.values[4 * span.start..4 * span.end].chunks_exact(4))
            .flat_map(|(&e, v)| record_words(e, v));
        crc::Segment::new(crc::update_words(0, records), 20 * tile.n_instances as u64)
    }

    /// Number of matrix rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of matrix columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// The tile edge length used for the global composition.
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Non-zero count of the source matrix.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Total padded (zero-filled) value slots in the stream.
    pub fn paddings(&self) -> u64 {
        self.paddings
    }

    /// Number of template-pattern instances in the stream.
    pub fn n_instances(&self) -> usize {
        self.encodings.len()
    }

    /// Fraction of value slots that are padding.
    pub fn padding_rate(&self) -> f64 {
        let slots = self.n_instances() * 4;
        if slots == 0 {
            return 0.0;
        }
        self.paddings as f64 / slots as f64
    }

    /// The portfolio's template masks in `t_idx` order (what the hardware
    /// loads into the opcode LUT at initialisation).
    pub fn template_masks(&self) -> &[u16] {
        &self.templates
    }

    /// The global composition: non-empty tiles in COO order.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// The raw position-encoding stream.
    pub fn encodings(&self) -> &[PositionEncoding] {
        &self.encodings
    }

    /// The raw value stream (four values per encoding).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The value stream's shared buffer. Cloning the returned `Arc` (as
    /// `spasm_hw`'s execution plans do) shares the allocation instead of
    /// copying it — see `tests/alloc_free.rs` for the proof.
    pub fn shared_values(&self) -> &Arc<[f32]> {
        &self.values
    }

    /// Iterates the instances of one tile.
    pub fn tile_instances(&self, tile: &Tile) -> impl Iterator<Item = TemplateInstance> + '_ {
        let span = tile.first_instance..tile.first_instance + tile.n_instances;
        span.map(move |i| TemplateInstance {
            encoding: self.encodings[i],
            values: [
                self.values[i * 4],
                self.values[i * 4 + 1],
                self.values[i * 4 + 2],
                self.values[i * 4 + 3],
            ],
        })
    }

    /// Storage cost in bytes under the paper's accounting: 20 bytes per
    /// instance (one 32-bit position encoding + four `f32` values); the
    /// first-level tile directory is ignored as negligible, as in
    /// Section V-D.
    pub fn storage_bytes(&self) -> usize {
        20 * self.n_instances()
    }

    /// Storage cost including the tile directory (12 bytes per non-empty
    /// tile: two 32-bit tile indices plus a 32-bit instance count) — the
    /// honest full accounting.
    pub fn storage_bytes_full(&self) -> usize {
        self.storage_bytes() + 12 * self.tiles.len()
    }

    /// Functional SpMV `y += A·x` executed directly on the encoded stream.
    ///
    /// This is the software reference for the hardware simulator: the
    /// per-slot arithmetic matches what each VALU lane performs.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] on operand length
    /// mismatches.
    pub fn spmv(&self, x: &[f32], y: &mut [f32]) -> Result<(), FormatError> {
        if x.len() != self.cols as usize {
            return Err(FormatError::DimensionMismatch {
                expected: self.cols as usize,
                actual: x.len(),
                operand: "x",
            });
        }
        if y.len() != self.rows as usize {
            return Err(FormatError::DimensionMismatch {
                expected: self.rows as usize,
                actual: y.len(),
                operand: "y",
            });
        }
        self.for_each_entry(|r, c, v| y[r as usize] += v * x[c as usize]);
        Ok(())
    }

    /// Visits every stored entry `(row, col, value)` in stream order:
    /// tiles in directory order, instances in tile order, slots in
    /// template cell order. Padding slots (0.0) are skipped.
    fn for_each_entry(&self, mut visit: impl FnMut(u32, u32, f32)) {
        for tile in &self.tiles {
            let row_base = tile.tile_row * self.tile_size;
            let col_base = tile.tile_col * self.tile_size;
            for inst in self.tile_instances(tile) {
                let e = inst.encoding;
                let tmask = self.templates[e.t_idx() as usize];
                let r0 = row_base + e.r_idx() * PATTERN_EDGE;
                let c0 = col_base + e.c_idx() * PATTERN_EDGE;
                let mut cells = tmask;
                let mut slot = 0usize;
                while cells != 0 {
                    let bit = cells.trailing_zeros();
                    cells &= cells - 1;
                    let v = inst.values[slot];
                    slot += 1;
                    if v != 0.0 {
                        visit(r0 + bit / PATTERN_EDGE, c0 + bit % PATTERN_EDGE, v);
                    }
                }
            }
        }
    }

    /// Convenience wrapper computing `A·x` into a fresh zero vector.
    ///
    /// # Errors
    ///
    /// Propagates [`SpasmMatrix::spmv`]'s dimension check.
    pub fn spmv_alloc(&self, x: &[f32]) -> Result<Vec<f32>, FormatError> {
        let mut y = vec![0.0; self.rows as usize];
        self.spmv(x, &mut y)?;
        Ok(y)
    }

    /// Finds the `(tile, instance, slot)` carrying the stored value of
    /// cell `(r, c)`: the first instance (in decomposition order) of the
    /// cell's 4×4 submatrix whose template mask covers the cell, with
    /// the slot being the cell bit's rank within that mask.
    ///
    /// Returns `None` when the coordinate is out of bounds or no encoded
    /// tile/instance covers it. Note a covering slot can still be
    /// *padding* (value 0.0) when the cell itself holds no entry —
    /// callers distinguish via the slot value, which is only 0.0 for
    /// padding (explicit stored zeros are dropped at encode time).
    fn locate_slot(&self, r: u32, c: u32) -> Option<(usize, usize, usize)> {
        if r >= self.rows || c >= self.cols {
            return None;
        }
        let spt = self.tile_size / PATTERN_EDGE;
        let (sub_r, sub_c) = (r / PATTERN_EDGE, c / PATTERN_EDGE);
        let key = (sub_r / spt, sub_c / spt);
        let t = self
            .tiles
            .binary_search_by_key(&key, |t| (t.tile_row, t.tile_col))
            .ok()?;
        let tile = &self.tiles[t];
        let (r_idx, c_idx) = (sub_r % spt, sub_c % spt);
        let bit = (r % PATTERN_EDGE) * PATTERN_EDGE + (c % PATTERN_EDGE);
        for i in tile.first_instance..tile.first_instance + tile.n_instances {
            let e = self.encodings[i];
            if e.r_idx() != r_idx || e.c_idx() != c_idx {
                continue;
            }
            let tmask = self.templates[e.t_idx() as usize];
            if tmask & (1 << bit) != 0 {
                let slot = (tmask & ((1u16 << bit) - 1)).count_ones() as usize;
                return Some((t, i, slot));
            }
        }
        None
    }

    /// The stored value at `(r, c)`, or `None` when the cell holds no
    /// entry.
    pub fn get(&self, r: u32, c: u32) -> Option<f32> {
        let (_, i, slot) = self.locate_slot(r, c)?;
        let v = self.values[i * 4 + slot];
        (v != 0.0).then_some(v)
    }

    /// Applies a batch of values-only patches copy-on-write and returns
    /// the new shared value buffer.
    ///
    /// The sparsity pattern, tile directory and position encodings are
    /// untouched — only the value stream is replaced, with exactly one
    /// new allocation. Existing clones of the previous buffer (held by
    /// in-flight execution plans) keep reading the old values; see
    /// `spasm_hw::ExecutionPlan::adopt_values` for the hand-over.
    ///
    /// Validation is transactional: on any error the matrix is
    /// untouched. Whatever payload CRC is cached is moved by CRC
    /// linearity, one O(log n) step per patched slot each for the whole
    /// payload's CRC and the patched tile's segment, so the next
    /// [`SpasmMatrix::fingerprint`] costs nothing extra.
    ///
    /// # Errors
    ///
    /// * [`FormatError::ZeroPatch`] when a patch writes 0.0 (reserved
    ///   for padding slots — removing an entry is a structural delete);
    /// * [`FormatError::AbsentCell`] when a target cell holds no entry.
    pub fn patch_values(&mut self, entries: &[(u32, u32, f32)]) -> Result<Arc<[f32]>, FormatError> {
        let mut slots = Vec::with_capacity(entries.len());
        for &(r, c, v) in entries {
            if v == 0.0 {
                return Err(FormatError::ZeroPatch { row: r, col: c });
            }
            let (t, i, slot) = self
                .locate_slot(r, c)
                .ok_or(FormatError::AbsentCell { row: r, col: c })?;
            let at = i * 4 + slot;
            if self.values[at] == 0.0 {
                // Covered by a template, but only as a padding slot: the
                // cell itself holds no entry.
                return Err(FormatError::AbsentCell { row: r, col: c });
            }
            slots.push((t, at, v));
        }
        let mut next: Arc<[f32]> = Arc::from(&self.values[..]);
        let stream = self.stream_offset();
        let payload = stream + 20 * self.n_instances();
        let PayloadCrc { whole, tiles } = &mut self.payload_crc;
        let (mut whole, mut segments) = (whole.get_mut(), tiles.get_mut());
        if let Some(buf) = Arc::get_mut(&mut next) {
            for (t, at, v) in slots {
                let (old, new) = (buf[at].to_bits(), v.to_bits());
                // Slot `at % 4` of record `at / 4`, past its position word.
                let end = 20 * (at / 4) + 4 + 4 * (at % 4) + 4;
                if let Some(crc) = whole.as_deref_mut() {
                    *crc = crc::patch_word(*crc, old, new, (payload - stream - end) as u64);
                }
                if let Some(segments) = segments.as_deref_mut() {
                    let tile = &self.tiles[t];
                    let tail = 20 * (tile.first_instance + tile.n_instances) - end;
                    segments[t].patch_word(old, new, tail as u64);
                }
                buf[at] = v;
            }
        }
        self.values = Arc::clone(&next);
        Ok(next)
    }

    /// Builds a new matrix with the given submatrices replaced, in one
    /// merge walk over the stream: work proportional to the replaced
    /// submatrices plus one copy of everything else.
    ///
    /// Each replacement is the complete new state of one global 4×4
    /// submatrix (`sub_r`, `sub_c` are global submatrix coordinates); a
    /// replacement with `mask == 0` removes the submatrix, and of several
    /// replacements of one submatrix the last wins. A submatrix's
    /// instances are one run of its tile, ordered by `(r_idx, c_idx)`, so
    /// runs of untouched tiles are copied verbatim with their
    /// `first_instance` shifted, and inside a touched tile the instances
    /// around each replaced run are copied verbatim too: only the
    /// replacement itself is decomposed. The CE/RE flags of re-encoded
    /// tiles are stamped afresh, every other tile has at most its last
    /// word restamped, and `nnz`/`paddings` move by the replaced runs
    /// only, exactly as [`SpasmMatrix::encode`] assigns them, so the
    /// result is bit-identical to a from-scratch encode of the mutated
    /// matrix.
    ///
    /// The result's payload CRC is ready to fold: every untouched tile
    /// keeps its CRC segment (one word patched when its RE flag flipped),
    /// and only re-encoded tiles are checksummed. A matrix without
    /// segments fills its own first, in one pass.
    ///
    /// `table` must be the decomposition table of the portfolio this
    /// matrix was encoded with (`template_masks()` equal) — the spliced
    /// instances index the same opcode LUT.
    ///
    /// # Errors
    ///
    /// [`FormatError::UncoverablePattern`] when a replacement mask is
    /// not decomposable by the portfolio; the original matrix is
    /// untouched.
    pub fn spliced(
        &self,
        replacements: &[SubBlock],
        table: &DecompositionTable,
    ) -> Result<SpasmMatrix, FormatError> {
        debug_assert_eq!(
            table.template_masks(),
            &self.templates[..],
            "spliced requires the table this matrix was encoded with"
        );
        let spt = self.tile_size / PATTERN_EDGE;
        let tile_of = |b: &SubBlock| (b.sub_r / spt, b.sub_c / spt);
        let local = |b: &SubBlock| (b.sub_r % spt, b.sub_c % spt);
        let sub = |e: &PositionEncoding| (e.r_idx(), e.c_idx());
        let key = |o: &Tile| (o.tile_row, o.tile_col);
        let span = |o: &Tile| o.first_instance..o.first_instance + o.n_instances;
        // In stream order; of equal keys the last replacement sorts first
        // and survives the dedup.
        let mut reps: Vec<(usize, &SubBlock)> = replacements.iter().enumerate().collect();
        reps.sort_unstable_by_key(|&(i, b)| (tile_of(b), local(b), std::cmp::Reverse(i)));
        reps.dedup_by_key(|&mut (_, b)| (tile_of(b), local(b)));

        // Each replacement's old instance run (empty for a new
        // submatrix), and the result's exact size and slot counts.
        let mut runs: Vec<Range<usize>> = Vec::with_capacity(reps.len());
        let mut n = self.encodings.len();
        let (mut nnz, mut paddings) = (self.nnz as u64, self.paddings);
        let (mut t, mut old, mut in_tile) = (0, 0..0, None);
        for &(_, b) in &reps {
            let added = table
                .instance_count(b.mask)
                .ok_or(FormatError::UncoverablePattern { mask: b.mask })?;
            if in_tile != Some(tile_of(b)) {
                in_tile = Some(tile_of(b));
                t += self.tiles[t..].partition_point(|o| key(o) < tile_of(b));
                old = self
                    .tiles
                    .get(t)
                    .filter(|o| key(o) == tile_of(b))
                    .map_or(0..0, span);
            }
            // The tile's instances not yet passed; runs never overlap,
            // even in a decoded stream whose instances are out of order.
            let at = local(b);
            let before = old.start + self.encodings[old.clone()].partition_point(|e| sub(e) < at);
            let after = before + self.encodings[before..old.end].partition_point(|e| sub(e) == at);
            old.start = after;
            let run_values = &self.values[4 * before..4 * after];
            let removed = run_values.iter().filter(|v| **v != 0.0).count() as u64;
            let (removed_slots, added_slots) = (4 * (after - before) as u64, 4 * u64::from(added));
            let set = u64::from(b.mask.count_ones());
            nnz = (nnz + set).saturating_sub(removed);
            paddings = (paddings + added_slots - set).saturating_sub(removed_slots - removed);
            n = n + added as usize - (after - before);
            runs.push(before..after);
        }

        let old_segments = self.segments();
        let mut tiles: Vec<Tile> = Vec::with_capacity(self.tiles.len() + reps.len());
        let mut segments: Vec<crc::Segment> = Vec::with_capacity(tiles.capacity());
        let mut touched: Vec<usize> = Vec::with_capacity(reps.len());
        let mut values: Arc<[f32]> = std::iter::repeat_n(0.0, 4 * n).collect();
        let mut out = Streams {
            encodings: Vec::with_capacity(n),
            values: Arc::get_mut(&mut values).expect("a fresh buffer is unshared"),
        };
        let (mut t, mut r) = (0, 0);
        loop {
            // The run of untouched tiles before the next touched one.
            let next = reps.get(r).map(|&(_, b)| tile_of(b));
            let run = next.map_or(self.tiles.len() - t, |k| {
                self.tiles[t..].partition_point(|o| key(o) < k)
            });
            let untouched = &self.tiles[t..t + run];
            if let (Some(first), Some(last)) = (untouched.first(), untouched.last()) {
                let base = out.len();
                for (o, s) in untouched.iter().zip(&old_segments[t..t + run]) {
                    if o.n_instances > 0 {
                        tiles.push(Tile {
                            first_instance: o.first_instance - first.first_instance + base,
                            ..*o
                        });
                        segments.push(*s);
                    }
                }
                out.copy(
                    self,
                    first.first_instance..last.first_instance + last.n_instances,
                );
            }
            t += run;
            let Some(k) = next else { break };

            // The touched tile: its old instances, if it had any.
            let mut old = 0..0;
            if let Some(o) = self.tiles.get(t).filter(|o| key(o) == k) {
                old = span(o);
                t += 1;
            }
            let first_instance = out.len();
            while let Some(&(_, b)) = reps.get(r).filter(|&&(_, b)| tile_of(b) == k) {
                out.copy(self, old.start..runs[r].start);
                if b.mask != 0 {
                    Self::encode_block(&self.templates, table, b, spt, &mut |e, v| out.push(e, v))?;
                }
                old.start = runs[r].end;
                r += 1;
            }
            out.copy(self, old);
            if out.len() > first_instance {
                let fresh = first_instance..out.len();
                // Copied instances may carry their old tile-end flags.
                for e in &mut out.encodings[fresh.clone()] {
                    *e = e.with_flags(false, false);
                }
                touched.push(tiles.len());
                tiles.push(Tile {
                    tile_row: k.0,
                    tile_col: k.1,
                    first_instance,
                    n_instances: fresh.len(),
                });
                segments.push(crc::Segment::default());
            }
        }
        let mut encodings = out.encodings;
        Self::stamp_tile_ends(&tiles, &mut encodings, |t, old, new| {
            segments[t].patch_word(old, new, 16);
        });

        let mut spliced = SpasmMatrix {
            rows: self.rows,
            cols: self.cols,
            tile_size: self.tile_size,
            nnz: nnz as usize,
            paddings,
            templates: self.templates.clone(),
            tiles,
            encodings,
            values,
            payload_crc: PayloadCrc::default(),
        };
        for t in touched {
            segments[t] = spliced.tile_segment(&spliced.tiles[t]);
        }
        spliced.payload_crc.tiles = OnceLock::from(segments);
        Ok(spliced)
    }

    /// Decodes the matrix to CSR in one counting pass: count each row's
    /// entries, prefix-sum the counts, scatter the entries in stream
    /// order, then sort each row by column, summing duplicate cells in
    /// stream order. Padding slots and explicit zeros are dropped.
    pub fn to_csr(&self) -> Csr {
        let rows = self.rows as usize;
        let mut starts = vec![0usize; rows + 1];
        self.for_each_entry(|r, _, _| starts[r as usize + 1] += 1);
        for r in 0..rows {
            starts[r + 1] += starts[r];
        }
        let mut cursor = starts.clone();
        let mut entries = vec![(0u32, 0.0f32); starts[rows]];
        self.for_each_entry(|r, c, v| {
            entries[cursor[r as usize]] = (c, v);
            cursor[r as usize] += 1;
        });
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values: Vec<f32> = Vec::with_capacity(entries.len());
        row_ptr.push(0);
        for r in 0..rows {
            let row = &mut entries[starts[r]..starts[r + 1]];
            row.sort_by_key(|&(c, _)| c);
            for &(c, v) in row.iter() {
                if col_idx.len() > row_ptr[r] && col_idx.last() == Some(&c) {
                    if let Some(last) = values.last_mut() {
                        *last += v;
                    }
                } else {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_raw(self.rows, self.cols, row_ptr, col_idx, values)
            .expect("decoded entries are in bounds and column-sorted by construction")
    }

    /// Decodes the matrix back to COO (padding slots and explicit zeros are
    /// dropped).
    pub fn to_coo(&self) -> Coo {
        Coo::from(&self.to_csr())
    }
}

/// The instance and value streams of a splice under construction: the
/// value buffer is allocated at its final size up front and filled in
/// stream order.
struct Streams<'a> {
    encodings: Vec<PositionEncoding>,
    values: &'a mut [f32],
}

impl Streams<'_> {
    /// Instances written so far.
    fn len(&self) -> usize {
        self.encodings.len()
    }

    /// Appends `from`'s instances in `span` verbatim.
    fn copy(&mut self, from: &SpasmMatrix, span: Range<usize>) {
        let at = 4 * self.len();
        self.values[at..at + 4 * span.len()]
            .copy_from_slice(&from.values[4 * span.start..4 * span.end]);
        self.encodings.extend_from_slice(&from.encodings[span]);
    }

    /// Appends one instance.
    fn push(&mut self, e: PositionEncoding, v: [f32; 4]) {
        let at = 4 * self.len();
        self.values[at..at + 4].copy_from_slice(&v);
        self.encodings.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::MAX_TILE_SIZE;
    use spasm_patterns::TemplateSet;
    use spasm_sparse::SpMv;

    fn table() -> DecompositionTable {
        DecompositionTable::build(&TemplateSet::table_v_set(0))
    }

    fn encode(coo: &Coo, tile: u32) -> SpasmMatrix {
        SpasmMatrix::encode(&SubmatrixMap::from_coo(coo), &table(), tile).unwrap()
    }

    fn sample() -> Coo {
        let mut t = vec![];
        // dense 4x4 block at (0,0), diagonal at (8..12, 8..12), scattered
        for r in 0..4u32 {
            for c in 0..4u32 {
                t.push((r, c, (r * 4 + c + 1) as f32));
            }
        }
        for i in 0..4u32 {
            t.push((8 + i, 8 + i, 1.5 * (i + 1) as f32));
        }
        t.push((14, 2, -3.0));
        Coo::from_triplets(16, 16, t).unwrap()
    }

    #[test]
    fn tile_size_validation() {
        let map = SubmatrixMap::from_coo(&sample());
        assert!(matches!(
            SpasmMatrix::encode(&map, &table(), 0),
            Err(FormatError::InvalidTileSize(0))
        ));
        assert!(matches!(
            SpasmMatrix::encode(&map, &table(), 6),
            Err(FormatError::InvalidTileSize(6))
        ));
        assert!(matches!(
            SpasmMatrix::encode(&map, &table(), MAX_TILE_SIZE + 4),
            Err(FormatError::InvalidTileSize(_))
        ));
        assert!(SpasmMatrix::encode(&map, &table(), MAX_TILE_SIZE).is_ok());
    }

    #[test]
    fn decode_round_trip() {
        let coo = sample();
        for tile in [4, 8, 16] {
            assert_eq!(encode(&coo, tile).to_coo(), coo, "tile {tile}");
        }
    }

    #[test]
    fn spmv_matches_reference() {
        let coo = sample();
        let x: Vec<f32> = (0..16).map(|i| (i as f32) * 0.5 - 3.0).collect();
        let mut want = vec![1.0f32; 16];
        coo.spmv(&x, &mut want).unwrap();
        for tile in [4, 8, 16] {
            let mut got = vec![1.0f32; 16];
            encode(&coo, tile).spmv(&x, &mut got).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-4, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn ce_re_flags() {
        let coo = sample();
        let m = encode(&coo, 8); // 16x16 with 8-tiles -> 2x2 tile grid
                                 // Tiles present: (0,0) block, (1,1) diag, (1,0) scattered entry.
        let coords: Vec<_> = m.tiles().iter().map(|t| (t.tile_row, t.tile_col)).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (1, 1)]);
        for tile in m.tiles() {
            let insts: Vec<_> = m.tile_instances(tile).collect();
            // CE set exactly on the last instance
            for (k, inst) in insts.iter().enumerate() {
                assert_eq!(inst.encoding.ce(), k + 1 == insts.len());
            }
        }
        // RE on last tile of each tile row
        let last_of_rows: Vec<bool> = m
            .tiles()
            .iter()
            .map(|t| m.tile_instances(t).last().unwrap().encoding.re())
            .collect();
        assert_eq!(last_of_rows, vec![true, false, true]);
    }

    #[test]
    fn full_block_uses_four_instances_no_padding() {
        let mut t = vec![];
        for r in 0..4u32 {
            for c in 0..4u32 {
                t.push((r, c, 1.0));
            }
        }
        let coo = Coo::from_triplets(4, 4, t).unwrap();
        let m = encode(&coo, 4);
        assert_eq!(m.n_instances(), 4);
        assert_eq!(m.paddings(), 0);
        assert_eq!(m.storage_bytes(), 80);
        assert_eq!(m.padding_rate(), 0.0);
    }

    #[test]
    fn lone_entry_pads_three_slots() {
        let coo = Coo::from_triplets(4, 4, vec![(2, 1, 5.0)]).unwrap();
        let m = encode(&coo, 4);
        assert_eq!(m.n_instances(), 1);
        assert_eq!(m.paddings(), 3);
        assert!((m.padding_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn storage_accounting() {
        let m = encode(&sample(), 8);
        assert_eq!(m.storage_bytes(), 20 * m.n_instances());
        assert_eq!(
            m.storage_bytes_full(),
            m.storage_bytes() + 12 * m.tiles().len()
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let m = encode(&sample(), 8);
        let mut y = [0.0; 16];
        assert!(m.spmv(&[0.0; 3], &mut y).is_err());
        let mut y_short = vec![0.0; 3];
        assert!(m.spmv(&[0.0; 16], &mut y_short).is_err());
    }

    #[test]
    fn empty_matrix_encodes_empty() {
        let m = encode(&Coo::new(8, 8), 8);
        assert_eq!(m.n_instances(), 0);
        assert_eq!(m.tiles().len(), 0);
        assert_eq!(m.spmv_alloc(&[1.0; 8]).unwrap(), vec![0.0; 8]);
    }

    #[test]
    fn get_reads_stored_cells_only() {
        let m = encode(&sample(), 8);
        assert_eq!(m.get(0, 3), Some(4.0));
        assert_eq!(m.get(14, 2), Some(-3.0));
        assert_eq!(m.get(14, 3), None, "covered padding slot is not a value");
        assert_eq!(m.get(7, 7), None, "empty tile");
        assert_eq!(m.get(99, 0), None, "out of bounds");
    }

    #[test]
    fn patch_values_is_cow_and_transactional() {
        let mut m = encode(&sample(), 8);
        let before = Arc::clone(m.shared_values());
        // Invalid batch: second entry targets an absent cell. Nothing
        // changes, including the shared buffer identity.
        let err = m.patch_values(&[(0, 0, 9.0), (7, 7, 1.0)]);
        assert_eq!(err, Err(FormatError::AbsentCell { row: 7, col: 7 }));
        assert!(Arc::ptr_eq(&before, m.shared_values()));
        assert_eq!(
            m.patch_values(&[(0, 0, 0.0)]),
            Err(FormatError::ZeroPatch { row: 0, col: 0 })
        );
        // Valid batch: new buffer, old clone unchanged.
        let fresh = m.patch_values(&[(0, 0, 9.0), (14, 2, 2.5)]).unwrap();
        assert!(!Arc::ptr_eq(&before, &fresh));
        assert_eq!(m.get(0, 0), Some(9.0));
        assert_eq!(m.get(14, 2), Some(2.5));
        assert_eq!(before[0], 1.0, "in-flight clone keeps the old values");
        // Patched matrix is bit-identical to a fresh encode of the
        // mutated matrix (patches don't change the pattern).
        let mut t: Vec<_> = sample().iter().collect();
        for e in t.iter_mut() {
            if (e.0, e.1) == (0, 0) {
                e.2 = 9.0;
            }
            if (e.0, e.1) == (14, 2) {
                e.2 = 2.5;
            }
        }
        let fresh_enc = encode(&Coo::from_triplets(16, 16, t).unwrap(), 8);
        assert_eq!(m.to_bytes(), fresh_enc.to_bytes());
    }

    /// Which constructor leaves the payload CRC and the tile segments
    /// known, and that every mutation keeps whatever is known equal to
    /// the CRC of the mutated stream.
    #[test]
    fn payload_crc_cache_follows_every_mutation() {
        let cached = |m: &SpasmMatrix| m.payload_crc.whole.get().copied();
        let segmented = |m: &SpasmMatrix| m.payload_crc.tiles.get().is_some();
        let canonical = |m: &SpasmMatrix| {
            let b = m.to_bytes();
            crate::crc32(&b[..b.len() - crate::CHECKSUM_BYTES])
        };
        // Known segments are exactly those of each tile's records now.
        let assert_segments_current = |m: &SpasmMatrix, what: &str| {
            let segments = m.payload_crc.tiles.get().expect(what);
            let fresh: Vec<_> = m.tiles.iter().map(|t| m.tile_segment(t)).collect();
            assert_eq!(segments, &fresh, "{what}");
        };
        let mut cold = encode(&sample(), 8);
        assert_eq!(cached(&cold), None, "encode starts empty");
        assert!(!segmented(&cold), "encode starts without segments");
        let mut warm = SpasmMatrix::from_bytes(&cold.to_bytes()).unwrap();
        assert_eq!(cached(&warm), Some(canonical(&cold)), "from_bytes seeds");
        assert!(!segmented(&warm), "a cold load reads no segments");

        let patch = [(0, 0, 9.0), (14, 2, 2.5), (0, 0, -1.0)];
        cold.patch_values(&patch).unwrap();
        warm.patch_values(&patch).unwrap();
        assert_eq!(cached(&cold), None, "a patch does not fill an empty cache");
        assert_eq!(
            cached(&warm),
            Some(canonical(&warm)),
            "a patch moves a known CRC"
        );
        assert!(!segmented(&warm), "a patch does not fill segments");
        assert_eq!(cold.fingerprint().crc(), canonical(&cold));
        assert_eq!(cached(&cold), Some(canonical(&cold)), "fingerprint fills");
        assert_segments_current(&cold, "fingerprint folds filled segments");

        // Replacements that empty tile (1, 1), making (1, 0) its row's
        // last, and create (0, 1), so (0, 0) no longer is: both untouched
        // tiles flip their RE flag.
        let empty = |sub_r, sub_c| SubBlock {
            sub_r,
            sub_c,
            mask: 0,
            values: [0.0; 16],
        };
        let reps = [
            empty(2, 2),
            empty(3, 3),
            SubBlock {
                sub_r: 1,
                sub_c: 2,
                mask: 1,
                values: [3.0; 16],
            },
        ];
        let mut spliced = warm.spliced(&reps, &table()).unwrap();
        assert_segments_current(&warm, "a splice fills its source's segments");
        assert_segments_current(&spliced, "a splice carries segments over");
        assert_eq!(cached(&spliced), None, "a splice leaves the fold lazy");
        assert_eq!(spliced.fingerprint().crc(), canonical(&spliced));

        spliced.patch_values(&[(4, 8, -4.0), (3, 3, 0.5)]).unwrap();
        assert_eq!(
            cached(&spliced),
            Some(canonical(&spliced)),
            "a patch moves the folded CRC"
        );
        assert_segments_current(&spliced, "a patch moves the tile's segment");
        assert_eq!(spliced.fingerprint().crc(), canonical(&spliced));

        let copy = spliced.clone();
        assert_eq!(cached(&copy), Some(canonical(&spliced)), "clones keep it");
        assert_segments_current(&copy, "clones keep the segments");
    }

    /// Splicing a replacement set must produce exactly the bytes a
    /// from-scratch encode of the mutated matrix produces.
    fn assert_splice_matches_fresh(
        base: &Coo,
        tile: u32,
        mutate: impl Fn(&mut Vec<(u32, u32, f32)>),
    ) {
        let m = encode(base, tile);
        let mut t: Vec<_> = base.iter().collect();
        mutate(&mut t);
        let mutated = Coo::from_triplets(base.rows(), base.cols(), t).unwrap();

        // Replacement blocks: the new state of every submatrix whose
        // content changed (including ones that became empty).
        let old_map = SubmatrixMap::from_coo(base);
        let new_map = SubmatrixMap::from_coo(&mutated);
        let mut reps: Vec<SubBlock> = Vec::new();
        for nb in new_map.blocks() {
            match old_map
                .blocks()
                .iter()
                .find(|ob| (ob.sub_r, ob.sub_c) == (nb.sub_r, nb.sub_c))
            {
                Some(ob) if ob == nb => {}
                _ => reps.push(nb.clone()),
            }
        }
        for ob in old_map.blocks() {
            if !new_map
                .blocks()
                .iter()
                .any(|nb| (nb.sub_r, nb.sub_c) == (ob.sub_r, ob.sub_c))
            {
                reps.push(SubBlock {
                    sub_r: ob.sub_r,
                    sub_c: ob.sub_c,
                    mask: 0,
                    values: [0.0; 16],
                });
            }
        }

        let spliced = m.spliced(&reps, &table()).unwrap();
        let fresh = encode(&mutated, tile);
        assert_eq!(spliced.to_bytes(), fresh.to_bytes(), "tile {tile}");
        assert_eq!(spliced.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn splice_insert_matches_fresh_encode() {
        for tile in [4, 8, 16] {
            assert_splice_matches_fresh(&sample(), tile, |t| {
                t.push((5, 5, 7.0)); // new submatrix in an existing region
                t.push((15, 0, 1.0)); // extends the scattered tile
            });
        }
    }

    #[test]
    fn splice_delete_matches_fresh_encode() {
        for tile in [4, 8, 16] {
            assert_splice_matches_fresh(&sample(), tile, |t| {
                t.retain(|&(r, c, _)| (r, c) != (14, 2)); // empties a submatrix
                t.retain(|&(r, c, _)| (r, c) != (0, 0));
            });
        }
    }

    #[test]
    fn splice_mixed_matches_fresh_encode() {
        for tile in [4, 8, 16] {
            assert_splice_matches_fresh(&sample(), tile, |t| {
                t.retain(|&(r, c, _)| (r, c) != (9, 9));
                t.push((9, 8, -1.0)); // same submatrix, different pattern
                t.push((12, 12, 4.0)); // brand-new tile region
                for e in t.iter_mut() {
                    if (e.0, e.1) == (1, 1) {
                        e.2 = -8.0; // value change routed structurally
                    }
                }
            });
        }
    }

    #[test]
    fn splice_into_empty_matrix() {
        assert_splice_matches_fresh(&Coo::new(16, 16), 8, |t| {
            t.push((3, 3, 1.0));
            t.push((10, 2, 2.0));
        });
    }

    #[test]
    fn splice_to_empty_matrix() {
        let coo = Coo::from_triplets(16, 16, vec![(2, 2, 1.0)]).unwrap();
        assert_splice_matches_fresh(&coo, 8, |t| t.clear());
    }

    #[test]
    fn splice_of_identical_replacements_is_identity() {
        // Re-submitting a submatrix's current state re-encodes its tile
        // to exactly the same bytes.
        let coo = sample();
        let m = encode(&coo, 8);
        let reps: Vec<SubBlock> = SubmatrixMap::from_coo(&coo).blocks().to_vec();
        let spliced = m.spliced(&reps, &table()).unwrap();
        assert_eq!(spliced.to_bytes(), m.to_bytes());
        assert_eq!(spliced.fingerprint(), m.fingerprint());
    }
}
