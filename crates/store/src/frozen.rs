//! A validated, zero-copy view over a wire-v3 plan container.

use std::sync::Arc;

use spasm_format::{Header3, SpasmMatrix, Tile, Wire3Reader, WireError};
use spasm_hw::{ClassRun, ExecutionPlan, FrozenTile, HwConfig, PlanParts, StableBytes, Stream};

use crate::buffer::PlanBuffer;
use crate::save::section;
use crate::StoreError;

/// A wire-v3 container parsed over a pinned [`PlanBuffer`].
///
/// [`FrozenPlan::open`] performs the cheap structural validation
/// (header CRC, directory CRC, section layout). [`FrozenPlan::into_plan`]
/// then checks every section's content CRC and reassembles an
/// [`ExecutionPlan`] whose immutable streams *borrow* the buffer —
/// nothing is copied out of the stream sections, owned allocations cover
/// only mutable scratch. [`FrozenPlan::thaw`] does the same and also
/// derives the encoded [`SpasmMatrix`] from the plan it validated, so
/// the matrix, its fingerprint and the plan can never disagree.
#[derive(Debug)]
pub struct FrozenPlan {
    buffer: Arc<PlanBuffer>,
}

impl FrozenPlan {
    /// Parses and structurally validates the container in `buffer`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Wire`] for anything malformed: wrong magic or
    /// version, truncation, CRC mismatch on the header or directory,
    /// misaligned or overlapping sections, nonzero padding.
    pub fn open(buffer: Arc<PlanBuffer>) -> Result<FrozenPlan, StoreError> {
        Wire3Reader::parse(buffer.bytes())?;
        Ok(FrozenPlan { buffer })
    }

    /// Total container size in bytes (what a catalog prices as mapped).
    pub fn mapped_len(&self) -> usize {
        self.buffer.len()
    }

    /// The pinned backing buffer.
    pub fn buffer(&self) -> &Arc<PlanBuffer> {
        &self.buffer
    }

    /// The hardware configuration the plan was frozen for, from the META
    /// section's bytes `m`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Wire`] when the section is malformed.
    fn config(m: &[u8]) -> Result<HwConfig, StoreError> {
        if m.len() < 20 {
            return Err(StoreError::Wire(WireError::Truncated {
                reading: "config section",
            }));
        }
        let u32_at = |o: usize| u32::from_le_bytes([m[o], m[o + 1], m[o + 2], m[o + 3]]);
        let mut freq = [0u8; 8];
        freq.copy_from_slice(&m[8..16]);
        let name_len = u32_at(16) as usize;
        if m.len() != 20 + name_len {
            return Err(StoreError::Wire(WireError::Inconsistent(
                "config section length disagrees with name length",
            )));
        }
        let name = std::str::from_utf8(&m[20..])
            .map_err(|_| StoreError::Wire(WireError::Inconsistent("config name not UTF-8")))?;
        Ok(HwConfig {
            name: name.to_owned(),
            num_pe_groups: u32_at(0),
            num_xvec_ch: u32_at(4),
            frequency_mhz: f64::from_bits(u64::from_le_bytes(freq)),
        })
    }

    /// Verifies every section CRC, then reassembles an [`ExecutionPlan`]
    /// whose eight immutable streams borrow this container's buffer.
    ///
    /// The returned plan executes bit-identically to one freshly
    /// prepared from the same matrix and configuration; only mutable
    /// scratch (operand staging, partial sums) is allocated.
    ///
    /// # Errors
    ///
    /// [`StoreError::Wire`] for container-level corruption,
    /// [`StoreError::Sim`] when the sections do not assemble into a
    /// structurally consistent plan. Never panics on hostile input.
    pub fn into_plan(self) -> Result<ExecutionPlan, StoreError> {
        Ok(ExecutionPlan::from_parts(self.parts()?.1)?)
    }

    /// [`FrozenPlan::into_plan`], plus the encoded matrix the plan
    /// executes: what a serving layer needs around a mapped plan (the
    /// catalog key, the golden CSR, the source of deltas).
    ///
    /// The matrix is derived from the sections the plan was validated
    /// from: its position words from the SoA streams
    /// ([`ExecutionPlan::position_words`]), with the CE/RE flags stamped
    /// from the tile directory; its values, templates and tiles from
    /// their sections; its shape, `nnz` and paddings from the header. It
    /// owns a copy of the value stream; the plan keeps reading the
    /// buffer. Its [`SpasmMatrix::fingerprint`] is the container's key.
    ///
    /// # Errors
    ///
    /// As [`FrozenPlan::into_plan`]. Never panics on hostile input.
    pub fn thaw(self) -> Result<(SpasmMatrix, ExecutionPlan), StoreError> {
        let (header, parts) = self.parts()?;
        let tiles = parts
            .tiles
            .iter()
            .map(|t| Tile {
                tile_row: t.row,
                tile_col: t.col,
                first_instance: t.first_instance,
                n_instances: t.n_instances,
            })
            .collect();
        let templates = parts.template_masks.clone();
        let plan = ExecutionPlan::from_parts(parts)?;
        let matrix = SpasmMatrix::from_stream(
            plan.rows(),
            plan.cols(),
            plan.tile_size(),
            // `from_parts` bounds it by the value stream's length.
            header.nnz as usize,
            header.paddings,
            templates,
            tiles,
            plan.position_words().collect(),
            Arc::from(plan.streams().values),
        )?;
        Ok((matrix, plan))
    }

    /// Verifies every section's CRC, those this reader does not know too
    /// (a file that embeds a v2 stream keeps it, checked and never read),
    /// and collects the header and the plan's parts, its streams mapped
    /// out of the buffer.
    fn parts(&self) -> Result<(Header3, PlanParts), StoreError> {
        let reader = Wire3Reader::parse(self.buffer.bytes())?;
        reader.verify_sections()?;
        let header = *reader.header();
        let bytes_of = |id| {
            reader
                .section(id)
                .ok_or(StoreError::Wire(WireError::MissingSection { id }))
        };

        let masks_bytes = bytes_of(section::TEMPLATES)?;
        if !masks_bytes.len().is_multiple_of(2)
            || masks_bytes.len() / 2 != header.n_templates as usize
        {
            return Err(StoreError::Wire(WireError::Inconsistent(
                "template section length disagrees with header",
            )));
        }
        let template_masks: Vec<u16> = masks_bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();

        let tile_bytes = bytes_of(section::TILES)?;
        if !tile_bytes.len().is_multiple_of(20) || tile_bytes.len() / 20 != header.n_tiles as usize
        {
            return Err(StoreError::Wire(WireError::Inconsistent(
                "tile section length disagrees with header",
            )));
        }
        let mut tiles = Vec::with_capacity(header.n_tiles as usize);
        for t in tile_bytes.chunks_exact(20) {
            let mut first = [0u8; 8];
            first.copy_from_slice(&t[8..16]);
            let first = usize::try_from(u64::from_le_bytes(first)).map_err(|_| {
                StoreError::Wire(WireError::Inconsistent("tile first_instance overflows"))
            })?;
            tiles.push(FrozenTile {
                row: u32::from_le_bytes([t[0], t[1], t[2], t[3]]),
                col: u32::from_le_bytes([t[4], t[5], t[6], t[7]]),
                first_instance: first,
                n_instances: u32::from_le_bytes([t[16], t[17], t[18], t[19]]) as usize,
            });
        }

        let n = usize::try_from(header.n_instances)
            .map_err(|_| StoreError::Wire(WireError::Inconsistent("instance count overflows")))?;
        let x_base = self.map_stream::<u32>(&reader, section::XBASE, n)?;
        let y_base = self.map_stream::<u32>(&reader, section::YBASE, n)?;
        let op_idx = self.map_stream::<u8>(&reader, section::OPIDX, n)?;
        let values = self.map_stream::<f32>(&reader, section::VALUES, 4 * n)?;
        let bucket_idx = self.map_stream::<u32>(&reader, section::BUCKET_IDX, n)?;
        let class_runs = self.map_any::<ClassRun>(&reader, section::CLASS_RUNS)?;
        let block_runs = self.map_any::<u32>(&reader, section::BLOCK_RUNS)?;
        let row_blocks = self.map_any::<u32>(&reader, section::ROW_BLOCKS)?;

        let parts = PlanParts {
            config: Self::config(bytes_of(section::META)?)?,
            rows: header.rows,
            cols: header.cols,
            tile_size: header.tile_size,
            nnz: header.nnz,
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
        };
        Ok((header, parts))
    }

    /// Maps section `id` as a typed stream of exactly `expect` records.
    fn map_stream<T>(
        &self,
        reader: &Wire3Reader<'_>,
        id: u32,
        expect: usize,
    ) -> Result<Stream<T>, StoreError> {
        let s = self.map_any::<T>(reader, id)?;
        if s.len() != expect {
            return Err(StoreError::Wire(WireError::Inconsistent(
                "stream section length disagrees with header",
            )));
        }
        Ok(s)
    }

    /// Maps section `id` as a typed stream, length taken from the
    /// section itself (prefix tables whose length the plan validates).
    fn map_any<T>(&self, reader: &Wire3Reader<'_>, id: u32) -> Result<Stream<T>, StoreError> {
        let e = reader
            .entries()
            .iter()
            .find(|e| e.id == id)
            .ok_or(StoreError::Wire(WireError::MissingSection { id }))?;
        let range = e.offset as usize..(e.offset + e.len) as usize;
        let size = std::mem::size_of::<T>();
        if !range.len().is_multiple_of(size) {
            return Err(StoreError::Wire(WireError::Inconsistent(
                "section length is not a whole number of records",
            )));
        }
        let keep: Arc<dyn StableBytes> = self.buffer.clone();
        // SAFETY: sections start 64-byte aligned (enforced by
        // Wire3Reader::parse), which satisfies any alignment the stream
        // record types need; the range is in-bounds per the directory
        // validation; all record types are plain-old-data (u8/u32/f32
        // and the repr(C) ClassRun of three u32s) with no invalid bit
        // patterns.
        Ok(unsafe { Stream::mapped(keep, range.start, range.len() / size) })
    }
}
