//! Property tests: the SPASM encoding is lossless and its SpMV agrees with
//! the reference for arbitrary matrices, portfolios and tile sizes.

use std::collections::BTreeMap;

use proptest::prelude::*;
use spasm_format::{
    is_v3, MatrixFingerprint, SpasmMatrix, SubmatrixMap, TileStats, TilingSummary, TILE_LANES,
};
use spasm_patterns::{DecompositionTable, GridSize, Mask, PatternHistogram, TemplateSet};
use spasm_sparse::{Coo, Csr, SpMv};

fn arb_matrix() -> impl Strategy<Value = Coo> {
    (4u32..64, 4u32..64).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, (1i32..64).prop_map(|q| q as f32 * 0.25));
        proptest::collection::vec(entry, 0..128)
            .prop_map(move |t| Coo::from_triplets(rows, cols, t).unwrap())
    })
}

/// Like [`arb_matrix`], but values include `-0.0`, explicit `0.0` and
/// duplicate coordinates (which `Coo` sums), so the block sweep's value
/// bits are exercised too.
fn arb_matrix_with_zeros() -> impl Strategy<Value = Coo> {
    (1u32..48, 1u32..48).prop_flat_map(|(rows, cols)| {
        let value = prop_oneof![
            Just(0.0f32),
            Just(-0.0f32),
            (-64i32..64).prop_map(|q| q as f32 * 0.25),
        ];
        proptest::collection::vec((0..rows, 0..cols, value), 0..160)
            .prop_map(move |t| Coo::from_triplets(rows, cols, t).unwrap())
    })
}

/// The blocks of `m` by a map keyed on `(sub_r, sub_c)`, each value
/// accumulated onto `0.0` as the block sweep does.
fn reference_blocks(m: &Coo) -> BTreeMap<(u32, u32), (u16, [f32; 16])> {
    let mut blocks: BTreeMap<(u32, u32), (u16, [f32; 16])> = BTreeMap::new();
    for (r, c, v) in m.iter() {
        let blk = blocks.entry((r / 4, c / 4)).or_insert((0, [0.0; 16]));
        let bit = (r % 4) * 4 + c % 4;
        blk.0 |= 1 << bit;
        blk.1[bit as usize] += v;
    }
    blocks
}

/// The `p × p` pattern histogram of `m` by a map keyed on block
/// coordinates.
fn reference_histogram(m: &Coo, size: GridSize) -> BTreeMap<Mask, u64> {
    let p = size.edge();
    let mut blocks: BTreeMap<(u32, u32), Mask> = BTreeMap::new();
    for (r, c, _) in m.iter() {
        *blocks.entry((r / p, c / p)).or_insert(0) |= 1 << size.bit(r % p, c % p);
    }
    let mut freq = BTreeMap::new();
    for mask in blocks.into_values() {
        *freq.entry(mask).or_insert(0) += 1;
    }
    freq
}

/// The tile directory of `map` at `tile` by a map keyed on tile
/// coordinates.
fn reference_tiles(map: &SubmatrixMap, table: &DecompositionTable, tile: u32) -> Vec<TileStats> {
    let spt = tile / 4;
    let mut tiles: BTreeMap<(u32, u32), (usize, [usize; TILE_LANES])> = BTreeMap::new();
    for b in map.blocks() {
        let inst = table.instance_count(b.mask).unwrap() as usize;
        let acc = tiles
            .entry((b.sub_r / spt, b.sub_c / spt))
            .or_insert((0, [0; TILE_LANES]));
        acc.0 += 1;
        acc.1[(b.sub_r % spt) as usize % TILE_LANES] += inst;
    }
    tiles
        .into_iter()
        .map(|((tile_row, tile_col), (n_submatrices, lanes))| TileStats {
            tile_row,
            tile_col,
            n_instances: lanes.iter().sum(),
            n_submatrices,
            max_lane_instances: lanes.iter().copied().max().unwrap(),
        })
        .collect()
}

/// The CSR of an encoded matrix by collecting its stored cells from
/// `tile_instances` and handing them to `Coo::from_triplets`.
fn reference_csr(spasm: &SpasmMatrix) -> Csr {
    let mut triplets = Vec::new();
    for tile in spasm.tiles() {
        for inst in spasm.tile_instances(tile) {
            let e = inst.encoding;
            let tmask = spasm.template_masks()[e.t_idx() as usize];
            let r0 = tile.tile_row * spasm.tile_size() + e.r_idx() * 4;
            let c0 = tile.tile_col * spasm.tile_size() + e.c_idx() * 4;
            let cells = (0..16u32).filter(|bit| tmask & (1 << bit) != 0);
            for (slot, bit) in cells.enumerate() {
                let v = inst.values[slot];
                if v != 0.0 {
                    triplets.push((r0 + bit / 4, c0 + bit % 4, v));
                }
            }
        }
    }
    Csr::from(&Coo::from_triplets(spasm.rows(), spasm.cols(), triplets).unwrap())
}

fn arb_table() -> impl Strategy<Value = DecompositionTable> {
    (0usize..10).prop_map(|i| DecompositionTable::build(&TemplateSet::table_v_set(i)))
}

fn arb_tile() -> impl Strategy<Value = u32> {
    prop_oneof![Just(4u32), Just(8), Just(16), Just(32), Just(64), Just(128)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity on matrices without explicit zeros.
    #[test]
    fn encode_decode_identity(
        m in arb_matrix(), table in arb_table(), tile in arb_tile()
    ) {
        let spasm = SpasmMatrix::encode(&SubmatrixMap::from_coo(&m), &table, tile).unwrap();
        prop_assert_eq!(spasm.to_coo(), m);
    }

    /// SpMV on the encoded stream equals CSR SpMV.
    #[test]
    fn spmv_equals_reference(
        (m, x) in arb_matrix().prop_flat_map(|m| {
            let cols = m.cols() as usize;
            let x = proptest::collection::vec(
                (-16i32..16).prop_map(|q| q as f32 * 0.5), cols..=cols);
            (Just(m), x)
        }),
        table in arb_table(),
        tile in arb_tile(),
    ) {
        let spasm = SpasmMatrix::encode(&SubmatrixMap::from_coo(&m), &table, tile).unwrap();
        let mut want = vec![0.0f32; m.rows() as usize];
        spasm_sparse::Csr::from(&m).spmv(&x, &mut want).unwrap();
        let got = spasm.spmv_alloc(&x).unwrap();
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() <= 1e-3 * (1.0 + w.abs()), "{g} vs {w}");
        }
    }

    /// Padding identity: slots = 4·instances = nnz + paddings (each nz is
    /// carried exactly once).
    #[test]
    fn slot_accounting(m in arb_matrix(), table in arb_table(), tile in arb_tile()) {
        let spasm = SpasmMatrix::encode(&SubmatrixMap::from_coo(&m), &table, tile).unwrap();
        prop_assert_eq!(
            4 * spasm.n_instances() as u64,
            m.nnz() as u64 + spasm.paddings()
        );
    }

    /// The instance stream is invariant in total size across tile sizes
    /// (tiling regroups instances but never changes the decomposition).
    #[test]
    fn instance_count_tile_invariant(m in arb_matrix(), table in arb_table()) {
        let map = SubmatrixMap::from_coo(&m);
        let counts: Vec<usize> = [4u32, 16, 64]
            .iter()
            .map(|&t| SpasmMatrix::encode(&map, &table, t).unwrap().n_instances())
            .collect();
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    /// TilingSummary agrees with the full encoder on every tile's counts.
    #[test]
    fn summary_matches_encode(m in arb_matrix(), table in arb_table(), tile in arb_tile()) {
        let map = SubmatrixMap::from_coo(&m);
        let s = TilingSummary::analyze(&map, &table, tile).unwrap();
        let full = SpasmMatrix::encode(&map, &table, tile).unwrap();
        prop_assert_eq!(s.n_instances(), full.n_instances());
        let a: Vec<_> = s.tiles().iter().map(|t| (t.tile_row, t.tile_col, t.n_instances)).collect();
        let b: Vec<_> = full.tiles().iter().map(|t| (t.tile_row, t.tile_col, t.n_instances)).collect();
        prop_assert_eq!(a, b);
    }

    /// Exactly one CE flag per tile; RE implies it is the last tile of its
    /// row.
    #[test]
    fn flag_invariants(m in arb_matrix(), table in arb_table(), tile in arb_tile()) {
        let spasm = SpasmMatrix::encode(&SubmatrixMap::from_coo(&m), &table, tile).unwrap();
        for t in spasm.tiles() {
            let insts: Vec<_> = spasm.tile_instances(t).collect();
            let ces = insts.iter().filter(|i| i.encoding.ce()).count();
            prop_assert_eq!(ces, 1, "one CE per non-empty tile");
            prop_assert!(insts.last().unwrap().encoding.ce());
        }
        let re_tiles: Vec<u32> = spasm
            .tiles()
            .iter()
            .filter(|t| spasm.tile_instances(t).last().unwrap().encoding.re())
            .map(|t| t.tile_row)
            .collect();
        // one RE per distinct tile row
        let mut rows: Vec<u32> = spasm.tiles().iter().map(|t| t.tile_row).collect();
        rows.dedup();
        prop_assert_eq!(re_tiles, rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The row-band sweep yields exactly the blocks a keyed map collects,
    /// in `(sub_r, sub_c)` order, with identical value bits.
    #[test]
    fn sweep_matches_keyed_blocks(m in arb_matrix_with_zeros()) {
        let map = SubmatrixMap::from_coo(&m);
        let want = reference_blocks(&m);
        prop_assert_eq!(map.blocks().len(), want.len());
        for (b, (&(sub_r, sub_c), (mask, values))) in map.blocks().iter().zip(&want) {
            prop_assert_eq!((b.sub_r, b.sub_c, b.mask), (sub_r, sub_c, *mask));
            let got: Vec<u32> = b.values.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want, "values of block ({}, {})", sub_r, sub_c);
        }
    }

    /// The pattern histogram at every grid size equals a keyed-map
    /// histogram.
    #[test]
    fn histogram_matches_keyed_blocks(m in arb_matrix_with_zeros()) {
        for size in GridSize::ALL {
            let h = PatternHistogram::analyze(&m, size);
            let want = reference_histogram(&m, size);
            let got: BTreeMap<Mask, u64> = h.iter().map(|(&k, &f)| (k, f)).collect();
            prop_assert_eq!(h.total_blocks(), want.values().sum::<u64>());
            prop_assert_eq!(got, want, "{}", size);
        }
    }

    /// The tile directory at any valid tile size equals a keyed-map
    /// group-by.
    #[test]
    fn tiling_matches_keyed_group_by(
        m in arb_matrix_with_zeros(), table in arb_table(), spt in 1u32..20
    ) {
        let map = SubmatrixMap::from_coo(&m);
        let tile = 4 * spt;
        let s = TilingSummary::analyze(&map, &table, tile).unwrap();
        let want = reference_tiles(&map, &table, tile);
        prop_assert_eq!(s.n_instances(), want.iter().map(|t| t.n_instances).sum::<usize>());
        prop_assert_eq!(s.tiles(), &want[..]);
    }

    /// The one-pass CSR decode equals a sort-based decode of the
    /// instance stream.
    #[test]
    fn to_csr_matches_sorted_decode(
        m in arb_matrix_with_zeros(), table in arb_table(), tile in arb_tile()
    ) {
        let spasm = SpasmMatrix::encode(&SubmatrixMap::from_coo(&m), &table, tile).unwrap();
        prop_assert_eq!(spasm.to_csr(), reference_csr(&spasm));
    }
}

/// Every committed golden stream decodes to the same CSR through the
/// one-pass decode as through a sort-based one. (The v3 plan container
/// is not a matrix stream; `tests/wire_compat.rs` pins it.)
#[test]
fn to_csr_matches_sorted_decode_on_golden_streams() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let bytes = std::fs::read(entry.unwrap().path()).unwrap();
        if is_v3(&bytes) {
            continue;
        }
        let spasm = SpasmMatrix::from_bytes(&bytes).unwrap();
        assert!(spasm.nnz() > 0);
        assert_eq!(spasm.to_csr(), reference_csr(&spasm));
        checked += 1;
    }
    assert!(checked >= 2, "the v1 and v2 golden streams");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Wire serialisation round-trips and preserves SpMV semantics.
    #[test]
    fn wire_round_trip(m in arb_matrix(), table in arb_table(), tile in arb_tile()) {
        let spasm = SpasmMatrix::encode(&SubmatrixMap::from_coo(&m), &table, tile).unwrap();
        let bytes = spasm.to_bytes();
        let back = SpasmMatrix::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &spasm);
        let x = vec![0.5f32; m.cols() as usize];
        prop_assert_eq!(spasm.spmv_alloc(&x).unwrap(), back.spmv_alloc(&x).unwrap());
    }

    /// Any truncation of a valid stream is rejected, never mis-parsed.
    #[test]
    fn wire_truncation_rejected(
        m in arb_matrix(), table in arb_table(), cut_frac in 0.0f64..1.0
    ) {
        let spasm = SpasmMatrix::encode(&SubmatrixMap::from_coo(&m), &table, 64).unwrap();
        let bytes = spasm.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(SpasmMatrix::from_bytes(&bytes[..cut]).is_err());
        }
    }

    /// Flipping any bit anywhere in a valid stream never panics the
    /// decoder: it returns an error (normally the checksum catching the
    /// flip) or a matrix that re-serialises and round-trips.
    #[test]
    fn wire_bit_flips_never_panic(
        m in arb_matrix(), table in arb_table(),
        pos_frac in 0.0f64..1.0, bit in 0u8..8
    ) {
        let spasm = SpasmMatrix::encode(&SubmatrixMap::from_coo(&m), &table, 64).unwrap();
        let mut bytes = spasm.to_bytes().to_vec();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        if let Ok(back) = SpasmMatrix::from_bytes(&bytes) {
            let again = SpasmMatrix::from_bytes(&back.to_bytes()).unwrap();
            prop_assert_eq!(again, back);
        }
    }

    /// Corruption behind a *valid* checksum (the adversarial case: the
    /// payload is mutated and the CRC restamped — covering the tile
    /// directory's count fields among everything else) still never
    /// panics: the structural validators reject it or the decoded matrix
    /// round-trips.
    #[test]
    fn wire_restamped_mutations_never_panic(
        m in arb_matrix(), table in arb_table(),
        pos_frac in 0.0f64..1.0, xor in 1u8..=255
    ) {
        use spasm_format::{crc32, CHECKSUM_BYTES};
        let spasm = SpasmMatrix::encode(&SubmatrixMap::from_coo(&m), &table, 64).unwrap();
        let mut bytes = spasm.to_bytes().to_vec();
        let payload = bytes.len() - CHECKSUM_BYTES;
        // Mutate past the magic/version words so the corruption lands in
        // the size fields, template table, tile directory or stream.
        let lo = 8.min(payload - 1);
        let pos = lo + (((payload - 1 - lo) as f64) * pos_frac) as usize;
        bytes[pos] ^= xor;
        let crc = crc32(&bytes[..payload]).to_le_bytes();
        bytes[payload..].copy_from_slice(&crc);
        if let Ok(back) = SpasmMatrix::from_bytes(&bytes) {
            let again = SpasmMatrix::from_bytes(&back.to_bytes()).unwrap();
            prop_assert_eq!(&again, &back);
            // The decoder's seeded CRC is the canonical one, even when
            // the mutation landed on a byte the writer canonicalises.
            prop_assert_eq!(
                back.fingerprint(),
                MatrixFingerprint::of_wire_bytes(&back.to_bytes()).unwrap()
            );
        }
    }

    /// After any sequence of values-only patch batches the fingerprint
    /// equals a from-scratch CRC of the serialised stream, both when the
    /// payload CRC was seeded by the decoder and moved by every patch
    /// (warm) and when it was never known until asked for (cold). The
    /// cache never takes part in matrix equality.
    #[test]
    fn patched_fingerprint_matches_wire_bytes(
        m in arb_matrix(), table in arb_table(), tile in arb_tile(),
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..1 << 20, -64i32..64), 1..8),
            1..4,
        )
    ) {
        let mut cold = SpasmMatrix::encode(&SubmatrixMap::from_coo(&m), &table, tile).unwrap();
        let mut warm = SpasmMatrix::from_bytes(&cold.to_bytes()).unwrap();
        let cells: Vec<(u32, u32)> = m.iter().map(|(r, c, _)| (r, c)).collect();
        if cells.is_empty() {
            return;
        }
        for batch in batches {
            let entries: Vec<(u32, u32, f32)> = batch
                .iter()
                .filter(|&&(_, q)| q != 0)
                .map(|&(i, q)| {
                    let (r, c) = cells[i % cells.len()];
                    (r, c, q as f32 * 0.375)
                })
                .collect();
            warm.patch_values(&entries).unwrap();
            cold.patch_values(&entries).unwrap();
            prop_assert_eq!(&warm, &cold);
            prop_assert_eq!(
                warm.fingerprint(),
                MatrixFingerprint::of_wire_bytes(&warm.to_bytes()).unwrap()
            );
        }
        prop_assert_eq!(
            cold.fingerprint(),
            MatrixFingerprint::of_wire_bytes(&cold.to_bytes()).unwrap()
        );
        prop_assert_eq!(cold.fingerprint(), warm.fingerprint());
    }
}
