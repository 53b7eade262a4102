//! Property-based tests for the sparse-matrix substrate: format round-trips
//! and SpMV agreement across every storage format.

use proptest::prelude::*;
use std::collections::BTreeMap;

use spasm_sparse::{
    mm, Bsr, Coo, Csc, Csr, DeltaOp, Dense, Dia, Ell, MatrixDelta, SpMv, StorageCost,
};

/// Strategy producing an arbitrary small sparse matrix. Values are non-zero
/// multiples of 0.25 so accumulation is exact in f32 and explicit zeros do
/// not collide with padding semantics.
fn arb_matrix() -> impl Strategy<Value = Coo> {
    (1u32..24, 1u32..24).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, (1i32..64).prop_map(|q| q as f32 * 0.25));
        proptest::collection::vec(entry, 0..64)
            .prop_map(move |t| Coo::from_triplets(rows, cols, t).unwrap())
    })
}

fn arb_x(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec((-32i32..32).prop_map(|q| q as f32 * 0.5), len..=len)
}

proptest! {
    /// Merging a valid delta equals rebuilding the matrix from its
    /// mutated cell set: one op per picked cell, chosen by whether the
    /// cell is occupied.
    #[test]
    fn with_delta_matches_rebuild(
        m in arb_matrix(),
        picks in proptest::collection::vec((0u32..1 << 16, 0u32..3, 1i32..64), 0..24),
    ) {
        let csr = Csr::from(&m);
        let mut cells: BTreeMap<(u32, u32), f32> = m.iter().map(|(r, c, v)| ((r, c), v)).collect();
        let mut delta = MatrixDelta::new();
        let mut touched = std::collections::BTreeSet::new();
        for (cell, kind, q) in picks {
            let (r, c) = (cell % m.rows(), (cell / m.rows()) % m.cols());
            if !touched.insert((r, c)) {
                continue;
            }
            let value = q as f32 * -0.5;
            let op = match (cells.contains_key(&(r, c)), kind) {
                (true, 0) => DeltaOp::Delete { row: r, col: c },
                (true, _) => DeltaOp::Patch { row: r, col: c, value },
                (false, _) => DeltaOp::Insert { row: r, col: c, value },
            };
            delta.push(op);
        }
        delta.validate(&csr).unwrap();
        for op in delta.ops() {
            match *op {
                DeltaOp::Patch { row, col, value } | DeltaOp::Insert { row, col, value } => {
                    cells.insert((row, col), value);
                }
                DeltaOp::Delete { row, col } => {
                    cells.remove(&(row, col));
                }
            }
        }
        let triplets = cells.into_iter().map(|((r, c), v)| (r, c, v)).collect();
        let want = Coo::from_triplets(m.rows(), m.cols(), triplets).unwrap();
        prop_assert_eq!(csr.with_delta(&delta), Csr::from(&want));
    }
}

proptest! {
    #[test]
    fn csr_round_trip(m in arb_matrix()) {
        let csr = Csr::from(&m);
        prop_assert_eq!(Coo::from(&csr), m);
    }

    #[test]
    fn csc_round_trip(m in arb_matrix()) {
        let csc = Csc::from(&m);
        prop_assert_eq!(Coo::from(&csc), m);
    }

    #[test]
    fn bsr_round_trip(m in arb_matrix(), block in 1u32..5) {
        let bsr = Bsr::from_coo(&m, block).unwrap();
        prop_assert_eq!(bsr.to_coo(), m);
    }

    #[test]
    fn dia_round_trip(m in arb_matrix()) {
        prop_assert_eq!(Dia::from_coo(&m).to_coo().unwrap(), m);
    }

    #[test]
    fn ell_round_trip(m in arb_matrix()) {
        prop_assert_eq!(Ell::from_coo(&m).to_coo().unwrap(), m);
    }

    #[test]
    fn matrix_market_round_trip(m in arb_matrix()) {
        let mut buf = Vec::new();
        mm::write_matrix_market(&mut buf, &m).unwrap();
        prop_assert_eq!(mm::read_matrix_market(buf.as_slice()).unwrap(), m);
    }

    /// Every format's SpMV must agree with the dense ground truth.
    #[test]
    fn spmv_agreement((m, x) in arb_matrix().prop_flat_map(|m| {
        let cols = m.cols() as usize;
        (Just(m), arb_x(cols))
    })) {
        let mut want = vec![0.0f32; m.rows() as usize];
        Dense::from(&m).spmv_into(&x, &mut want);

        macro_rules! check {
            ($fmt:expr) => {{
                let mut y = vec![0.0f32; m.rows() as usize];
                $fmt.spmv(&x, &mut y).unwrap();
                for (i, (a, b)) in y.iter().zip(&want).enumerate() {
                    prop_assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()),
                        "row {i}: {a} vs {b}");
                }
            }};
        }
        check!(m);
        check!(Csr::from(&m));
        check!(Csc::from(&m));
        check!(Bsr::from_coo(&m, 2).unwrap());
        check!(Bsr::from_coo(&m, 4).unwrap());
        check!(Dia::from_coo(&m));
        check!(Ell::from_coo(&m));
    }

    /// The transpose of the transpose is the original, and transposed SpMV
    /// matches SpMV with swapped operands on symmetric probes.
    #[test]
    fn transpose_involution(m in arb_matrix()) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    /// Storage-cost sanity: COO is exactly 12 bytes/nnz, every model is
    /// positive for non-empty matrices, and HiSparse/Serpens is exactly
    /// 1.5x better than COO.
    #[test]
    fn storage_costs_consistent(m in arb_matrix()) {
        prop_assert_eq!(m.storage_bytes(), 12 * m.nnz());
        if m.nnz() > 0 {
            let hs = spasm_sparse::storage::hisparse_serpens_bytes(m.nnz());
            prop_assert_eq!(m.storage_bytes() as f64 / hs as f64, 1.5);
            prop_assert!(Csr::from(&m).storage_bytes() > 0);
            prop_assert!(Bsr::from_coo(&m, 2).unwrap().storage_bytes() > 0);
        }
    }

    /// BSR with block size 1 stores exactly the nnz cells (no fill).
    #[test]
    fn bsr_block1_has_no_fill(m in arb_matrix()) {
        let bsr = Bsr::from_coo(&m, 1).unwrap();
        prop_assert_eq!(bsr.nblocks(), m.nnz());
        prop_assert!(bsr.fill_ratio(m.nnz()).abs() < 1e-12);
    }
}
