//! Local pattern analysis — workflow step ① (Algorithm 2).
//!
//! Tiles the matrix into `p × p` submatrices, represents each occupied
//! submatrix as a bitmask, and builds the `(bitmask, frequency)` histogram
//! that drives template selection and the Fig. 2 / Fig. 3 observations.
//!
//! Every block pass goes through [`for_each_block`]: one sweep over the
//! row-sorted COO arrays that merges each band of `p` rows by block
//! column, so occupied blocks come out in `(block row, block col)` order
//! without a hash map or a sort.

use std::collections::HashMap;

use spasm_sparse::Coo;

use crate::grid::{GridSize, Mask};

/// Visits every occupied `p × p` block of `matrix` in `(block row, block
/// col)` order, passing its block coordinates, occupancy mask and dense
/// values (indexed by [`GridSize::bit`]; unoccupied cells hold 0.0).
///
/// `matrix` is `(row, col)`-sorted, so each band of `p` rows is a run of
/// at most `p` column-sorted rows. The sweep keeps one cursor per row and
/// repeatedly drains, from every cursor, the entries in the lowest block
/// column any cursor is at. That is `O(nnz + p · blocks)` work with no hash
/// and no sort. Each value is accumulated onto `0.0`, so a stored `-0.0`
/// reads back as `+0.0`.
pub fn for_each_block(
    matrix: &Coo,
    size: GridSize,
    mut visit: impl FnMut(u32, u32, Mask, &[f32; 16]),
) {
    let p = size.edge();
    let rows = matrix.row_indices();
    let cols = matrix.col_indices();
    let vals = matrix.values();
    // (cursor, end) of each stored row in the current band.
    let mut runs = [(0usize, 0usize); 4];
    let mut next = 0usize;
    while next < rows.len() {
        let band = rows[next] / p;
        let mut n = 0;
        while next < rows.len() && rows[next] / p == band {
            let start = next;
            while next < rows.len() && rows[next] == rows[start] {
                next += 1;
            }
            runs[n] = (start, next);
            n += 1;
        }
        let runs = &mut runs[..n];
        while let Some(block_col) = runs
            .iter()
            .filter(|&&(cur, end)| cur < end)
            .map(|&(cur, _)| cols[cur] / p)
            .min()
        {
            let mut mask: Mask = 0;
            let mut values = [0.0f32; 16];
            for (cur, end) in runs.iter_mut() {
                while *cur < *end && cols[*cur] / p == block_col {
                    let bit = size.bit(rows[*cur] % p, cols[*cur] % p);
                    mask |= 1 << bit;
                    values[bit as usize] += vals[*cur];
                    *cur += 1;
                }
            }
            visit(band, block_col, mask, &values);
        }
    }
}

/// Frequency histogram of the local patterns occurring in a matrix.
///
/// # Examples
///
/// ```
/// use spasm_patterns::{GridSize, PatternHistogram};
/// use spasm_sparse::Coo;
///
/// # fn main() -> Result<(), spasm_sparse::SparseError> {
/// // Two occupied 4x4 submatrices: a diagonal and a lone cell.
/// let m = Coo::from_triplets(8, 8, vec![
///     (0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0),
///     (5, 6, 2.0),
/// ])?;
/// let h = PatternHistogram::analyze(&m, GridSize::S4);
/// assert_eq!(h.total_blocks(), 2);
/// assert_eq!(h.distinct_patterns(), 2);
/// assert!(h.top_n_coverage(1) >= 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternHistogram {
    size: GridSize,
    freq: HashMap<Mask, u64>,
    total: u64,
}

impl PatternHistogram {
    /// Runs Algorithm 2 (`LP_ANALYSIS`): tiles `matrix` into `p × p`
    /// submatrices and histograms their occupancy bitmasks. Empty
    /// submatrices are skipped (the paper excludes the empty block).
    ///
    /// The blocks come from one serial [`for_each_block`] sweep, so the
    /// histogram does not depend on the thread budget.
    pub fn analyze(matrix: &Coo, size: GridSize) -> Self {
        let mut masks = Vec::new();
        for_each_block(matrix, size, |_, _, mask, _| masks.push(mask));
        Self::from_masks(size, masks)
    }

    /// Histograms a sequence of occupancy masks, one per occupied block,
    /// counting into a dense `2^(p²)` array.
    ///
    /// # Panics
    ///
    /// Panics if a mask has bits outside the grid or is zero.
    pub fn from_masks(size: GridSize, masks: impl IntoIterator<Item = Mask>) -> Self {
        let mut counts = vec![0u64; 1 << size.cells()];
        for mask in masks {
            assert_eq!(mask & !size.full_mask(), 0, "mask outside {size} grid");
            counts[mask as usize] += 1;
        }
        let occurring = counts
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > 0)
            .map(|(mask, &f)| (mask as Mask, f));
        Self::from_counts(size, occurring)
    }

    /// Builds a histogram directly from `(mask, frequency)` pairs — useful
    /// for tests and synthetic studies.
    ///
    /// # Panics
    ///
    /// Panics if a mask has bits outside the grid or is zero.
    pub fn from_counts(size: GridSize, counts: impl IntoIterator<Item = (Mask, u64)>) -> Self {
        let mut freq = HashMap::new();
        for (mask, f) in counts {
            assert_ne!(mask, 0, "empty block excluded from the histogram");
            assert_eq!(mask & !size.full_mask(), 0, "mask outside {size} grid");
            *freq.entry(mask).or_insert(0) += f;
        }
        let total = freq.values().sum();
        PatternHistogram { size, freq, total }
    }

    /// This histogram after occupied blocks changed pattern: each
    /// `(old, new)` pair moves one block from `old` to `new`, where a
    /// zero mask means no block (a block appeared or emptied). Removing
    /// a block of a pattern the histogram does not hold is ignored.
    ///
    /// # Panics
    ///
    /// Panics if a new mask has bits outside the grid.
    pub fn with_changes(&self, changes: &[(Mask, Mask)]) -> Self {
        let mut next = self.clone();
        for &(old, new) in changes {
            if old != 0 {
                if let Some(f) = next.freq.get_mut(&old) {
                    *f -= 1;
                    next.total -= 1;
                    if *f == 0 {
                        next.freq.remove(&old);
                    }
                }
            }
            if new != 0 {
                assert_eq!(
                    new & !self.size.full_mask(),
                    0,
                    "mask outside {} grid",
                    self.size
                );
                *next.freq.entry(new).or_insert(0) += 1;
                next.total += 1;
            }
        }
        next
    }

    /// The grid size used for the analysis.
    pub fn size(&self) -> GridSize {
        self.size
    }

    /// Number of occupied submatrices observed.
    pub fn total_blocks(&self) -> u64 {
        self.total
    }

    /// Number of *distinct* local patterns observed.
    pub fn distinct_patterns(&self) -> usize {
        self.freq.len()
    }

    /// Iterates `(mask, frequency)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Mask, &u64)> {
        self.freq.iter()
    }

    /// Frequency of one pattern (0 if never observed).
    pub fn frequency(&self, mask: Mask) -> u64 {
        self.freq.get(&mask).copied().unwrap_or(0)
    }

    /// The `n` most frequent patterns, ordered by descending frequency
    /// (ties broken by ascending mask for determinism).
    pub fn top_n(&self, n: usize) -> Vec<(Mask, u64)> {
        let mut all: Vec<(Mask, u64)> = self.freq.iter().map(|(&m, &f)| (m, f)).collect();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Fraction of all observed blocks covered by the top `n` patterns —
    /// one point of the Fig. 3 CDF.
    pub fn top_n_coverage(&self, n: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let covered: u64 = self.top_n(n).iter().map(|&(_, f)| f).sum();
        covered as f64 / self.total as f64
    }

    /// The full CDF series of Fig. 3: coverage after the 1st, 2nd, …
    /// most-frequent pattern.
    pub fn coverage_cdf(&self) -> Vec<f64> {
        let mut all: Vec<u64> = self.freq.values().copied().collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        let mut acc = 0u64;
        all.iter()
            .map(|f| {
                acc += f;
                if self.total == 0 {
                    0.0
                } else {
                    acc as f64 / self.total as f64
                }
            })
            .collect()
    }

    /// Smallest `n` such that the top-n patterns cover at least `fraction`
    /// of all blocks ("n could be varying when we let the top-n patterns
    /// count up a certain portion", Section II-B).
    pub fn n_for_coverage(&self, fraction: f64) -> usize {
        let cdf = self.coverage_cdf();
        cdf.iter()
            .position(|&c| c >= fraction)
            .map_or(cdf.len(), |i| i + 1)
    }

    /// Restricts the histogram to its top-n patterns (the
    /// `subset_pfreq` of Algorithm 3).
    pub fn top_n_histogram(&self, n: usize) -> PatternHistogram {
        PatternHistogram::from_counts(self.size, self.top_n(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_sparse::Coo;

    /// Moving blocks between patterns equals histogramming the moved
    /// block set from scratch.
    #[test]
    fn with_changes_matches_a_fresh_histogram() {
        let h = PatternHistogram::from_masks(GridSize::S4, [1, 1, 3, 0xFFFF]);
        let changes = [(1, 3), (0xFFFF, 0), (0, 7), (3, 3), (5, 0)];
        let want = PatternHistogram::from_masks(GridSize::S4, [1, 3, 3, 7]);
        assert_eq!(h.with_changes(&changes), want);
        assert_eq!(h.with_changes(&changes).total_blocks(), 4);
        assert_eq!(h.with_changes(&[]), h);
    }

    /// 8x8 matrix: a full 4x4 block at (0,0), a main diagonal in the (4..8,
    /// 4..8) submatrix, and a single entry in the (0..4, 4..8) submatrix.
    fn sample() -> Coo {
        let mut t = Vec::new();
        for r in 0..4u32 {
            for c in 0..4u32 {
                t.push((r, c, 1.0));
            }
        }
        for i in 0..4u32 {
            t.push((4 + i, 4 + i, 2.0));
        }
        t.push((0, 7, 3.0));
        Coo::from_triplets(8, 8, t).unwrap()
    }

    #[test]
    fn histogram_counts_blocks() {
        let h = PatternHistogram::analyze(&sample(), GridSize::S4);
        assert_eq!(h.total_blocks(), 3);
        assert_eq!(h.distinct_patterns(), 3);
        assert_eq!(h.frequency(0xFFFF), 1); // dense block
        let diag = GridSize::S4.mask_of([(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(h.frequency(diag), 1);
        let lone = GridSize::S4.mask_of([(0, 3)]);
        assert_eq!(h.frequency(lone), 1);
    }

    #[test]
    fn top_n_and_cdf() {
        let h =
            PatternHistogram::from_counts(GridSize::S4, [(0xFFFF, 50), (0x000F, 30), (0x0001, 20)]);
        assert_eq!(h.top_n(2), vec![(0xFFFF, 50), (0x000F, 30)]);
        assert!((h.top_n_coverage(1) - 0.5).abs() < 1e-12);
        assert!((h.top_n_coverage(2) - 0.8).abs() < 1e-12);
        let cdf = h.coverage_cdf();
        assert_eq!(cdf.len(), 3);
        assert!((cdf[2] - 1.0).abs() < 1e-12);
        assert_eq!(h.n_for_coverage(0.75), 2);
        assert_eq!(h.n_for_coverage(1.0), 3);
    }

    #[test]
    fn top_n_histogram_restricts() {
        let h =
            PatternHistogram::from_counts(GridSize::S4, [(0xFFFF, 50), (0x000F, 30), (0x0001, 20)]);
        let top = h.top_n_histogram(2);
        assert_eq!(top.total_blocks(), 80);
        assert_eq!(top.distinct_patterns(), 2);
        assert_eq!(top.frequency(0x0001), 0);
    }

    #[test]
    fn different_grid_sizes_see_different_patterns() {
        let h2 = PatternHistogram::analyze(&sample(), GridSize::S2);
        // The dense 4x4 block yields four full 2x2 blocks.
        assert_eq!(h2.frequency(GridSize::S2.full_mask()), 4);
    }

    #[test]
    fn empty_matrix_has_empty_histogram() {
        let h = PatternHistogram::analyze(&Coo::new(16, 16), GridSize::S4);
        assert_eq!(h.total_blocks(), 0);
        assert_eq!(h.coverage_cdf().len(), 0);
        assert_eq!(h.top_n_coverage(5), 0.0);
    }

    #[test]
    fn ties_break_deterministically() {
        let h = PatternHistogram::from_counts(GridSize::S4, [(0x2, 5), (0x1, 5)]);
        assert_eq!(h.top_n(2), vec![(0x1, 5), (0x2, 5)]);
    }
}
