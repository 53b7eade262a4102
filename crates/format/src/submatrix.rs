//! The 4×4 submatrix view of a matrix — the shared intermediate between
//! pattern analysis, encoding, and the tile-size sweep.
//!
//! Because tile sizes are multiples of 4, tile boundaries never split a
//! 4×4 submatrix; the submatrix map can therefore be computed once per
//! matrix and re-tiled for free during Algorithm 4's exploration.

use spasm_patterns::analysis::for_each_block;
use spasm_patterns::{GridSize, PatternHistogram};
use spasm_sparse::Coo;

/// One occupied 4×4 submatrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SubBlock {
    /// Global submatrix row (`matrix_row / 4`).
    pub sub_r: u32,
    /// Global submatrix column (`matrix_col / 4`).
    pub sub_c: u32,
    /// Occupancy bitmask (bit `r·4 + c`).
    pub mask: u16,
    /// Dense 16-value payload, row-major; unoccupied cells hold 0.0.
    pub values: [f32; 16],
}

/// All occupied 4×4 submatrices of a matrix, sorted by
/// `(sub_r, sub_c)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmatrixMap {
    rows: u32,
    cols: u32,
    nnz: usize,
    subs: Vec<SubBlock>,
}

impl SubmatrixMap {
    /// Builds the map from a COO matrix in one row-band sweep
    /// ([`for_each_block`]), which emits the blocks already sorted.
    pub fn from_coo(matrix: &Coo) -> Self {
        let mut subs = Vec::new();
        for_each_block(matrix, GridSize::S4, |sub_r, sub_c, mask, values| {
            subs.push(SubBlock {
                sub_r,
                sub_c,
                mask,
                values: *values,
            });
        });
        SubmatrixMap {
            rows: matrix.rows(),
            cols: matrix.cols(),
            nnz: matrix.nnz(),
            subs,
        }
    }

    /// Original matrix row count.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Original matrix column count.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Original non-zero count.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The occupied submatrices in `(sub_r, sub_c)` order.
    pub fn blocks(&self) -> &[SubBlock] {
        &self.subs
    }

    /// The local-pattern histogram of this matrix (Algorithm 2 applied to
    /// the cached masks — same result as
    /// [`PatternHistogram::analyze`] at 4×4).
    pub fn histogram(&self) -> PatternHistogram {
        PatternHistogram::from_masks(GridSize::S4, self.subs.iter().map(|b| b.mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo {
        Coo::from_triplets(
            10,
            10,
            vec![(0, 0, 1.0), (3, 3, 2.0), (0, 5, 3.0), (9, 9, 4.0)],
        )
        .unwrap()
    }

    #[test]
    fn blocks_are_sorted_and_masked() {
        let map = SubmatrixMap::from_coo(&sample());
        let coords: Vec<_> = map.blocks().iter().map(|b| (b.sub_r, b.sub_c)).collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (2, 2)]);
        let b00 = &map.blocks()[0];
        assert_eq!(b00.mask, (1 << 0) | (1 << 15));
        assert_eq!(b00.values[0], 1.0);
        assert_eq!(b00.values[15], 2.0);
    }

    #[test]
    fn histogram_matches_analysis() {
        let coo = sample();
        let map = SubmatrixMap::from_coo(&coo);
        let direct = PatternHistogram::analyze(&coo, GridSize::S4);
        let cached = map.histogram();
        assert_eq!(cached.total_blocks(), direct.total_blocks());
        for (mask, freq) in direct.iter() {
            assert_eq!(cached.frequency(*mask), *freq);
        }
    }

    #[test]
    fn duplicate_cells_summed() {
        // from_triplets already sums, but SubmatrixMap must preserve them.
        let coo = Coo::from_triplets(4, 4, vec![(1, 1, 2.0), (1, 1, 3.0)]).unwrap();
        let map = SubmatrixMap::from_coo(&coo);
        assert_eq!(map.blocks()[0].values[5], 5.0);
    }
}
