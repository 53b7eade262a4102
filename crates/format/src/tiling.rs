//! Global composition analysis — workflow step ④ — without materialising
//! the value stream.
//!
//! Algorithm 4 re-tiles the matrix for every candidate tile size; the
//! expensive parts (submatrix masks and decomposition instance counts) are
//! independent of the tile size, so [`TilingSummary`] only counts instances
//! per tile and leaves value movement to the final encode.

use spasm_patterns::DecompositionTable;

use crate::encoding::subs_per_tile;
use crate::error::FormatError;
use crate::submatrix::SubmatrixMap;

/// Each occupied block's coordinates and instance count under one
/// portfolio — the part of a tiling that does not depend on the tile
/// size. A sweep builds it once and hands it to
/// [`TilingSummary::from_instances`] per tile size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInstances {
    rows: u32,
    cols: u32,
    /// `(sub_r, sub_c, instances)` in the map's `(sub_r, sub_c)` order.
    blocks: Vec<(u32, u32, u32)>,
}

impl BlockInstances {
    /// Looks up every block's instance count in `table`.
    ///
    /// # Errors
    ///
    /// [`FormatError::UncoverablePattern`] for the first block whose
    /// pattern the portfolio cannot cover.
    pub fn new(map: &SubmatrixMap, table: &DecompositionTable) -> Result<Self, FormatError> {
        let blocks = map
            .blocks()
            .iter()
            .map(|b| match table.instance_count(b.mask) {
                Some(k) => Ok((b.sub_r, b.sub_c, k)),
                None => Err(FormatError::UncoverablePattern { mask: b.mask }),
            })
            .collect::<Result<_, _>>()?;
        Ok(BlockInstances {
            rows: map.rows(),
            cols: map.cols(),
            blocks,
        })
    }
}

/// Groups row-major blocks by tile in one pass: `add` folds each item's
/// index into its tile's accumulator, in item order, and `flush` receives
/// every occupied tile's accumulator in `(tile_row, tile_col)` order.
/// `coords` gives an item's `(sub_r, sub_c)`, and `cols` is the matrix
/// column count.
///
/// Row-major items hold each tile row as a contiguous band. Within a band
/// a dense per-column slot array finds each item's accumulator, and only
/// the distinct tiles the band touches are put in column order before
/// they are flushed. No item is hashed or compared.
///
/// # Errors
///
/// [`FormatError::InvalidTileSize`] for a bad `tile_size`, else the first
/// error `flush` returns.
pub(crate) fn group_by_tile<T, A: Default>(
    items: &[T],
    coords: impl Fn(&T) -> (u32, u32),
    cols: u32,
    tile_size: u32,
    mut add: impl FnMut(&mut A, usize),
    mut flush: impl FnMut(u32, u32, A) -> Result<(), FormatError>,
) -> Result<(), FormatError> {
    let spt = subs_per_tile(tile_size)?;
    // Per tile column: the index of its accumulator in `open`, or
    // `usize::MAX` while the current band has not touched it.
    let mut slot = vec![usize::MAX; cols.div_ceil(tile_size) as usize];
    let mut open: Vec<(u32, A)> = Vec::new();
    let mut start = 0;
    while start < items.len() {
        let tile_row = coords(&items[start]).0 / spt;
        let len = items[start..].partition_point(|t| coords(t).0 / spt == tile_row);
        for (i, item) in items.iter().enumerate().skip(start).take(len) {
            let col = (coords(item).1 / spt) as usize;
            if slot[col] == usize::MAX {
                slot[col] = open.len();
                open.push((col as u32, A::default()));
            }
            add(&mut open[slot[col]].1, i);
        }
        open.sort_unstable_by_key(|&(col, _)| col);
        for (col, acc) in open.drain(..) {
            slot[col as usize] = usize::MAX;
            flush(tile_row, col, acc)?;
        }
        start += len;
    }
    Ok(())
}

/// PE lanes a tile's instances spread across (`r_idx mod 16`), matching
/// the 16 PEs of a group.
pub const TILE_LANES: usize = 16;

/// Instance statistics of one non-empty tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileStats {
    /// Tile row index.
    pub tile_row: u32,
    /// Tile column index.
    pub tile_col: u32,
    /// Template instances this tile will emit.
    pub n_instances: usize,
    /// Occupied 4×4 submatrices inside the tile.
    pub n_submatrices: usize,
    /// Instances on the tile's most-loaded PE lane (`r_idx mod 16`) — the
    /// tile's critical path when a 16-PE group processes it.
    pub max_lane_instances: usize,
}

/// The global composition of a matrix at one tile size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilingSummary {
    tile_size: u32,
    matrix_rows: u32,
    tile_rows: u32,
    tile_cols: u32,
    n_instances: usize,
    tiles: Vec<TileStats>,
}

impl TilingSummary {
    /// Computes the tile directory for `tile_size`, counting the instances
    /// each tile will emit under `table`'s portfolio.
    ///
    /// # Errors
    ///
    /// * [`FormatError::InvalidTileSize`] for non-multiple-of-4, zero, or
    ///   oversized tile sizes;
    /// * [`FormatError::UncoverablePattern`] if some occurring pattern
    ///   cannot be decomposed.
    pub fn analyze(
        map: &SubmatrixMap,
        table: &DecompositionTable,
        tile_size: u32,
    ) -> Result<Self, FormatError> {
        // A bad tile size is reported ahead of an uncoverable pattern.
        subs_per_tile(tile_size)?;
        Self::from_instances(&BlockInstances::new(map, table)?, tile_size)
    }

    /// [`TilingSummary::analyze`] over block instance counts computed
    /// once, so a tile-size sweep repeats neither the table lookups nor
    /// the walk over the blocks' value payloads.
    ///
    /// # Errors
    ///
    /// [`FormatError::InvalidTileSize`] for a bad `tile_size`.
    pub fn from_instances(blocks: &BlockInstances, tile_size: u32) -> Result<Self, FormatError> {
        let spt = subs_per_tile(tile_size)?;
        let mut tiles = Vec::new();
        group_by_tile(
            &blocks.blocks,
            |&(sub_r, sub_c, _)| (sub_r, sub_c),
            blocks.cols,
            tile_size,
            |(submatrices, lanes): &mut (usize, [usize; TILE_LANES]), i| {
                let (sub_r, _, instances) = blocks.blocks[i];
                *submatrices += 1;
                lanes[(sub_r % spt) as usize % TILE_LANES] += instances as usize;
            },
            |tile_row, tile_col, (submatrices, lanes)| {
                tiles.push(TileStats {
                    tile_row,
                    tile_col,
                    n_instances: lanes.iter().sum(),
                    n_submatrices: submatrices,
                    max_lane_instances: lanes.iter().copied().max().unwrap_or(0),
                });
                Ok(())
            },
        )?;
        let n_instances = tiles.iter().map(|t| t.n_instances).sum();
        Ok(TilingSummary {
            tile_size,
            matrix_rows: blocks.rows,
            tile_rows: blocks.rows.div_ceil(tile_size),
            tile_cols: blocks.cols.div_ceil(tile_size),
            n_instances,
            tiles,
        })
    }

    /// The tile edge length.
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Row count of the underlying matrix.
    pub fn matrix_rows(&self) -> u32 {
        self.matrix_rows
    }

    /// Number of tile rows in the full grid.
    pub fn tile_rows(&self) -> u32 {
        self.tile_rows
    }

    /// Number of tile columns in the full grid.
    pub fn tile_cols(&self) -> u32 {
        self.tile_cols
    }

    /// Non-empty tiles in `(tile_row, tile_col)` order.
    pub fn tiles(&self) -> &[TileStats] {
        &self.tiles
    }

    /// Total template instances across all tiles.
    pub fn n_instances(&self) -> usize {
        self.n_instances
    }

    /// Heights (in matrix rows) of the distinct tile rows that have work —
    /// the y-traffic driver.
    pub fn worked_row_heights(&self) -> Vec<u32> {
        let mut out: Vec<(u32, u32)> = Vec::new();
        for t in &self.tiles {
            if out.last().map(|&(r, _)| r) != Some(t.tile_row) {
                let height = (self.matrix_rows
                    - (t.tile_row * self.tile_size).min(self.matrix_rows))
                .min(self.tile_size);
                out.push((t.tile_row, height));
            }
        }
        out.into_iter().map(|(_, h)| h).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_patterns::TemplateSet;
    use spasm_sparse::Coo;

    use crate::encoding::MAX_TILE_SIZE;
    use crate::matrix::SpasmMatrix;

    fn table() -> DecompositionTable {
        DecompositionTable::build(&TemplateSet::table_v_set(0))
    }

    fn sample() -> Coo {
        let mut t = vec![];
        for r in 0..4u32 {
            for c in 0..4u32 {
                t.push((r, c, 1.0));
            }
        }
        for i in 0..4u32 {
            t.push((8 + i, 8 + i, 2.0));
        }
        t.push((14, 2, -3.0));
        Coo::from_triplets(16, 16, t).unwrap()
    }

    #[test]
    fn summary_matches_full_encode() {
        let map = SubmatrixMap::from_coo(&sample());
        for tile in [4u32, 8, 16] {
            let summary = TilingSummary::analyze(&map, &table(), tile).unwrap();
            let full = SpasmMatrix::encode(&map, &table(), tile).unwrap();
            assert_eq!(summary.n_instances(), full.n_instances(), "tile {tile}");
            assert_eq!(summary.tiles().len(), full.tiles().len(), "tile {tile}");
            for (s, f) in summary.tiles().iter().zip(full.tiles()) {
                assert_eq!((s.tile_row, s.tile_col), (f.tile_row, f.tile_col));
                assert_eq!(s.n_instances, f.n_instances);
            }
        }
    }

    #[test]
    fn lane_statistics() {
        // Dense 4x4 block at submatrix (0,0): 4 instances, all on lane 0.
        let map = SubmatrixMap::from_coo(&sample());
        let s = TilingSummary::analyze(&map, &table(), 16).unwrap();
        let t00 = &s.tiles()[0];
        // The 16-tile holds the dense block (lane 0: 4 inst), the diagonal
        // (lane 2: 1 inst) and the scattered entry (lane 3: 1 inst).
        assert_eq!(t00.n_instances, 6);
        assert_eq!(t00.max_lane_instances, 4);
    }

    #[test]
    fn worked_row_heights() {
        let map = SubmatrixMap::from_coo(&sample());
        let s = TilingSummary::analyze(&map, &table(), 8).unwrap();
        assert_eq!(s.worked_row_heights(), vec![8, 8]);
        // A 10-row matrix with an entry in the second 8-tile row has a
        // short last row.
        let m = Coo::from_triplets(10, 10, vec![(9, 0, 1.0)]).unwrap();
        let s2 = TilingSummary::analyze(&SubmatrixMap::from_coo(&m), &table(), 8).unwrap();
        assert_eq!(s2.worked_row_heights(), vec![2]);
    }

    #[test]
    fn invalid_tile_sizes_rejected() {
        let map = SubmatrixMap::from_coo(&sample());
        for bad in [0u32, 2, 5, MAX_TILE_SIZE + 4] {
            assert!(TilingSummary::analyze(&map, &table(), bad).is_err());
        }
    }
}
