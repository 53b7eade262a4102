use crate::{Coo, DeltaOp, Index, MatrixDelta, SparseError, Value};

/// Compressed Sparse Row (CSR) matrix.
///
/// Stores a row-pointer array of length `rows + 1`, plus column-index and
/// value arrays of length `nnz`. In the paper's storage model this costs
/// `4·(rows + 1) + 8·nnz` bytes (32-bit indices, `f32` values).
///
/// # Examples
///
/// ```
/// use spasm_sparse::{Coo, Csr};
///
/// # fn main() -> Result<(), spasm_sparse::SparseError> {
/// let coo = Coo::from_triplets(2, 3, vec![(0, 0, 1.0), (1, 2, 5.0)])?;
/// let csr = Csr::from(&coo);
/// assert_eq!(csr.row_ptr(), &[0, 1, 2]);
/// assert_eq!(csr.row(1).collect::<Vec<_>>(), vec![(2, 5.0)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: Index,
    cols: Index,
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<Value>,
}

impl Csr {
    /// Builds a CSR matrix directly from its raw arrays.
    ///
    /// # Errors
    ///
    /// Returns an error if the arrays are inconsistent: `row_ptr` must have
    /// length `rows + 1`, start at 0, end at `col_idx.len()`, be
    /// non-decreasing, and every column index must be `< cols`. Column
    /// indices within each row must be strictly increasing.
    pub fn from_raw(
        rows: Index,
        cols: Index,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        values: Vec<Value>,
    ) -> Result<Self, SparseError> {
        let bad = |message: &str| SparseError::ParseError {
            line: 0,
            message: message.into(),
        };
        if row_ptr.len() != rows as usize + 1 {
            return Err(bad("row_ptr length must be rows + 1"));
        }
        if col_idx.len() != values.len() {
            return Err(bad("col_idx and values must have equal length"));
        }
        if row_ptr.first() != Some(&0) || row_ptr.last() != Some(&col_idx.len()) {
            return Err(bad("row_ptr must start at 0 and end at nnz"));
        }
        for w in row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(bad("row_ptr must be non-decreasing"));
            }
            for pair in col_idx[w[0]..w[1]].windows(2) {
                if pair[0] >= pair[1] {
                    return Err(bad("column indices within a row must strictly increase"));
                }
            }
        }
        if let Some(&c) = col_idx.iter().max() {
            if c >= cols {
                return Err(SparseError::IndexOutOfBounds {
                    row: 0,
                    col: c,
                    rows,
                    cols,
                });
            }
        }
        Ok(Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> Index {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> Index {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, concatenated row by row.
    pub fn col_indices(&self) -> &[Index] {
        &self.col_idx
    }

    /// Stored values, parallel to [`Csr::col_indices`].
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The `(column, value)` pairs of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: Index) -> impl Iterator<Item = (Index, Value)> + '_ {
        let span = self.row_ptr[r as usize]..self.row_ptr[r as usize + 1];
        self.col_idx[span.clone()]
            .iter()
            .zip(&self.values[span])
            .map(|(&c, &v)| (c, v))
    }

    /// Number of stored entries in each row (used by load-imbalance models).
    pub fn row_lengths(&self) -> Vec<usize> {
        self.row_ptr.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The stored value at `(r, c)`, or `None` when no entry exists there
    /// (including when the coordinate is out of bounds).
    ///
    /// Binary-searches the row's column slice — columns within a row are
    /// strictly increasing by construction.
    pub fn get(&self, r: Index, c: Index) -> Option<Value> {
        let pos = self.entry_position(r, c)?;
        Some(self.values[pos])
    }

    /// Overwrites the stored value at `(r, c)` in place, returning `true`
    /// when an entry existed there (and `false`, with the matrix
    /// unchanged, otherwise). The sparsity pattern is never altered.
    pub fn patch_value(&mut self, r: Index, c: Index, v: Value) -> bool {
        match self.entry_position(r, c) {
            Some(pos) => {
                self.values[pos] = v;
                true
            }
            None => false,
        }
    }

    /// The matrix after `delta`, built in one merge pass over the rows:
    /// patches overwrite, inserts land in column order, deletes drop
    /// out, and every row stays column-sorted. Stored zeros are dropped
    /// along the way, so the result holds only non-zero entries — the
    /// canonical form a SPASM value stream decodes to, where a zero slot
    /// is padding.
    ///
    /// `delta` must have passed [`MatrixDelta::validate`] against `self`.
    pub fn with_delta(&self, delta: &MatrixDelta) -> Csr {
        let mut ops: Vec<(usize, Index, Option<Value>)> = delta
            .ops()
            .iter()
            .map(|op| match *op {
                DeltaOp::Patch { row, col, value } | DeltaOp::Insert { row, col, value } => {
                    (row as usize, col, Some(value))
                }
                DeltaOp::Delete { row, col } => (row as usize, col, None),
            })
            .collect();
        ops.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let cap = self.nnz() + ops.len();
        let mut out = Csr {
            rows: self.rows,
            cols: self.cols,
            row_ptr: Vec::with_capacity(self.row_ptr.len()),
            col_idx: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        };
        out.row_ptr.push(0);
        // Source entries before `k` are merged. Untouched runs are copied
        // whole, and a row that ends inside a run keeps its source
        // boundary, moved by the entries the ops so far added or removed.
        let mut k = 0;
        let close_rows = |out: &mut Csr, upto: usize, k: usize| {
            while out.row_ptr.len() <= upto {
                let boundary = self.row_ptr[out.row_ptr.len()];
                out.row_ptr.push(out.col_idx.len() - (k - boundary));
            }
        };
        for (r, c, op) in ops {
            let span = self.row_ptr[r]..self.row_ptr[r + 1];
            let at = span.start + self.col_idx[span.clone()].partition_point(|&x| x < c);
            out.col_idx.extend_from_slice(&self.col_idx[k..at]);
            out.values.extend_from_slice(&self.values[k..at]);
            k = at;
            close_rows(&mut out, r, k);
            if at < span.end && self.col_idx[at] == c {
                k += 1; // patched or deleted
            }
            if let Some(v) = op {
                out.col_idx.push(c);
                out.values.push(v);
            }
        }
        out.col_idx.extend_from_slice(&self.col_idx[k..]);
        out.values.extend_from_slice(&self.values[k..]);
        close_rows(&mut out, self.rows as usize, self.nnz());
        if out.values.contains(&0.0) {
            out.drop_zeros();
        }
        out
    }

    /// Removes stored zeros in place; every row keeps its column order.
    fn drop_zeros(&mut self) {
        let (mut kept, mut start) = (0, 0);
        for r in 0..self.rows as usize {
            let end = self.row_ptr[r + 1];
            for i in start..end {
                if self.values[i] != 0.0 {
                    self.col_idx[kept] = self.col_idx[i];
                    self.values[kept] = self.values[i];
                    kept += 1;
                }
            }
            start = end;
            self.row_ptr[r + 1] = kept;
        }
        self.col_idx.truncate(kept);
        self.values.truncate(kept);
    }

    /// Flat index of the entry at `(r, c)` in `col_idx`/`values`.
    fn entry_position(&self, r: Index, c: Index) -> Option<usize> {
        if r >= self.rows || c >= self.cols {
            return None;
        }
        let span = self.row_ptr[r as usize]..self.row_ptr[r as usize + 1];
        self.col_idx[span.clone()]
            .binary_search(&c)
            .ok()
            .map(|off| span.start + off)
    }
}

impl From<&Coo> for Csr {
    fn from(coo: &Coo) -> Self {
        let rows = coo.rows();
        let mut row_ptr = vec![0usize; rows as usize + 1];
        for &r in coo.row_indices() {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..rows as usize {
            row_ptr[i + 1] += row_ptr[i];
        }
        // COO is already (row, col)-sorted, so a straight copy preserves the
        // strictly-increasing column invariant within each row.
        Csr {
            rows,
            cols: coo.cols(),
            row_ptr,
            col_idx: coo.col_indices().to_vec(),
            values: coo.values().to_vec(),
        }
    }
}

impl From<&Csr> for Coo {
    fn from(csr: &Csr) -> Self {
        let mut triplets = Vec::with_capacity(csr.nnz());
        for r in 0..csr.rows() {
            for (c, v) in csr.row(r) {
                triplets.push((r, c, v));
            }
        }
        Coo::from_triplets(csr.rows(), csr.cols(), triplets)
            .expect("CSR entries are in bounds by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo {
        Coo::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn coo_round_trip() {
        let coo = sample();
        let csr = Csr::from(&coo);
        assert_eq!(csr.nnz(), 5);
        assert_eq!(csr.row_ptr(), &[0, 2, 3, 5]);
        assert_eq!(Coo::from(&csr), coo);
    }

    #[test]
    fn with_delta_merges_in_column_order() {
        let csr = Csr::from(&sample());
        let delta = MatrixDelta::new()
            .insert(0, 1, 7.0)
            .patch(0, 3, -2.0)
            .delete(1, 1)
            .insert(1, 3, 6.0)
            .insert(2, 3, 8.0)
            .delete(2, 0);
        delta.validate(&csr).unwrap();
        let want = Coo::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (0, 1, 7.0),
                (0, 3, -2.0),
                (1, 3, 6.0),
                (2, 2, 5.0),
                (2, 3, 8.0),
            ],
        )
        .unwrap();
        assert_eq!(csr.with_delta(&delta), Csr::from(&want));
        assert_eq!(csr.with_delta(&MatrixDelta::new()), csr);
    }

    #[test]
    fn with_delta_drops_stored_zeros() {
        let coo = Coo::from_triplets(
            3,
            3,
            vec![(0, 0, 0.0), (0, 2, 1.0), (1, 1, -0.0), (2, 0, 2.0)],
        )
        .unwrap();
        let csr = Csr::from(&coo);
        let merged = csr.with_delta(&MatrixDelta::new().patch(0, 2, 4.0).insert(1, 2, 3.0));
        assert_eq!(merged.row_ptr(), &[0, 1, 2, 3]);
        assert_eq!(merged.col_indices(), &[2, 2, 0]);
        assert_eq!(merged.values(), &[4.0, 3.0, 2.0]);
    }

    #[test]
    fn row_iteration() {
        let csr = Csr::from(&sample());
        let row0: Vec<_> = csr.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (3, 2.0)]);
        let row1: Vec<_> = csr.row(1).collect();
        assert_eq!(row1, vec![(1, 3.0)]);
    }

    #[test]
    fn row_lengths() {
        let csr = Csr::from(&sample());
        assert_eq!(csr.row_lengths(), vec![2, 1, 2]);
    }

    #[test]
    fn from_raw_validates() {
        assert!(Csr::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        // row_ptr wrong length
        assert!(Csr::from_raw(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).is_err());
        // decreasing row_ptr
        assert!(Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // column out of range
        assert!(Csr::from_raw(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 2.0]).is_err());
        // duplicate column within a row
        assert!(Csr::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn get_and_patch_value() {
        let mut csr = Csr::from(&sample());
        assert_eq!(csr.get(0, 3), Some(2.0));
        assert_eq!(csr.get(0, 1), None);
        assert_eq!(csr.get(9, 0), None);
        assert_eq!(csr.get(0, 9), None);
        assert!(csr.patch_value(2, 2, -7.0));
        assert_eq!(csr.get(2, 2), Some(-7.0));
        assert!(!csr.patch_value(1, 0, 1.0), "absent cell is not patched");
        assert_eq!(csr.nnz(), 5, "patching never changes the pattern");
    }

    #[test]
    fn empty_rows_handled() {
        let coo = Coo::from_triplets(4, 4, vec![(3, 3, 9.0)]).unwrap();
        let csr = Csr::from(&coo);
        assert_eq!(csr.row_ptr(), &[0, 0, 0, 0, 1]);
        assert_eq!(csr.row(1).count(), 0);
    }
}
