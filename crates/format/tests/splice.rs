//! `SpasmMatrix::spliced` against a from-scratch `encode` of the mutated
//! matrix: tile-boundary edge cases, replacement-set quirks (order,
//! duplicates, no-op deletes), a seeded random sweep over matrices,
//! replacement sets and tile sizes 4–32, and a hostile decoded stream.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spasm_format::{SpasmMatrix, SubBlock, SubmatrixMap, CHECKSUM_BYTES};
use spasm_patterns::{DecompositionTable, TemplateSet};
use spasm_sparse::Coo;

fn table() -> &'static DecompositionTable {
    static TABLE: OnceLock<DecompositionTable> = OnceLock::new();
    TABLE.get_or_init(|| DecompositionTable::build(&TemplateSet::table_v_set(0)))
}

/// Submatrix `(sub_r, sub_c)` with occupancy `mask` and non-zero values
/// derived from `seed` on exactly the masked cells.
fn blk(sub_r: u32, sub_c: u32, mask: u16, seed: f32) -> SubBlock {
    let mut values = [0.0f32; 16];
    for (bit, v) in values.iter_mut().enumerate() {
        if mask & (1 << bit) != 0 {
            *v = seed + bit as f32 * 0.25 + 1.0;
        }
    }
    SubBlock {
        sub_r,
        sub_c,
        mask,
        values,
    }
}

/// `base` with `reps` applied in order: a replacement sets its
/// submatrix, `mask == 0` removes it, and the last one of a submatrix
/// wins.
fn mutated(base: &Coo, reps: &[SubBlock]) -> Coo {
    let mut blocks: BTreeMap<(u32, u32), SubBlock> = SubmatrixMap::from_coo(base)
        .blocks()
        .iter()
        .map(|b| ((b.sub_r, b.sub_c), b.clone()))
        .collect();
    for r in reps {
        if r.mask == 0 {
            blocks.remove(&(r.sub_r, r.sub_c));
        } else {
            blocks.insert((r.sub_r, r.sub_c), r.clone());
        }
    }
    let triplets = blocks
        .values()
        .flat_map(|b| {
            (0..16u32)
                .filter(move |bit| b.mask & (1 << bit) != 0)
                .map(move |bit| {
                    (
                        b.sub_r * 4 + bit / 4,
                        b.sub_c * 4 + bit % 4,
                        b.values[bit as usize],
                    )
                })
        })
        .collect();
    Coo::from_triplets(base.rows(), base.cols(), triplets).unwrap()
}

fn encode(coo: &Coo, tile: u32) -> SpasmMatrix {
    SpasmMatrix::encode(&SubmatrixMap::from_coo(coo), table(), tile).unwrap()
}

/// Splices `reps` into the encoding of `base` and checks it against a
/// fresh encode of the mutated matrix; returns the spliced matrix.
fn check(base: &Coo, tile: u32, reps: &[SubBlock]) -> SpasmMatrix {
    let spliced = encode(base, tile).spliced(reps, table()).unwrap();
    let fresh = encode(&mutated(base, reps), tile);
    assert_eq!(spliced.to_bytes(), fresh.to_bytes(), "tile {tile}");
    assert_eq!(spliced.fingerprint(), fresh.fingerprint(), "tile {tile}");
    assert_eq!(spliced.nnz(), fresh.nnz(), "tile {tile}");
    assert_eq!(spliced.paddings(), fresh.paddings(), "tile {tile}");
    spliced
}

/// A 32×32 matrix at tile size 8 (a 4×4 tile grid, 2×2 submatrices per
/// tile): tile (0,0) holds all four submatrices, tile row 0 ends at tile
/// (0,1), tile row 1 holds tiles (1,0) and (1,2), tile row 2 is empty
/// and tile row 3 holds tile (3,3).
fn grid() -> Coo {
    let blocks = [
        blk(0, 0, 0x8421, 0.0),
        blk(0, 1, 0x00ff, 1.0),
        blk(1, 0, 0x1111, 2.0),
        blk(1, 1, 0xf00f, 3.0),
        blk(0, 2, 0x0033, 4.0),
        blk(2, 0, 0x0001, 5.0),
        blk(3, 5, 0x4000, 6.0),
        blk(7, 7, 0xffff, 7.0),
    ];
    mutated(&Coo::new(32, 32), &blocks)
}

/// The RE flag of each tile's last instance, keyed by tile.
fn row_ends(m: &SpasmMatrix) -> Vec<((u32, u32), bool)> {
    m.tiles()
        .iter()
        .map(|t| {
            let last = m.tile_instances(t).last().unwrap();
            ((t.tile_row, t.tile_col), last.encoding.re())
        })
        .collect()
}

#[test]
fn first_and_last_submatrix_of_a_tile() {
    check(&grid(), 8, &[blk(0, 0, 0x0660, 9.0)]);
    check(&grid(), 8, &[blk(1, 1, 0x0003, 9.0)]);
    check(&grid(), 8, &[blk(0, 0, 0, 0.0), blk(1, 1, 0xffff, 9.0)]);
}

#[test]
fn several_replacements_in_one_tile_out_of_order() {
    check(
        &grid(),
        8,
        &[
            blk(1, 1, 0x0180, 9.0),
            blk(0, 0, 0, 0.0),
            blk(1, 0, 0x7777, 8.0),
        ],
    );
    // New, changed and deleted submatrices of one tile, newest first.
    check(
        &grid(),
        8,
        &[
            blk(1, 3, 0x0f00, 9.0),
            blk(0, 3, 0x1248, 8.0),
            blk(0, 2, 0, 0.0),
        ],
    );
}

#[test]
fn duplicated_replacement_last_wins() {
    for reps in [
        [blk(0, 1, 0x0001, 9.0), blk(0, 1, 0xa5a5, 8.0)],
        [blk(0, 1, 0x0001, 9.0), blk(0, 1, 0, 0.0)],
        [blk(0, 1, 0, 0.0), blk(0, 1, 0x0ff0, 8.0)],
        [blk(5, 5, 0x0001, 9.0), blk(5, 5, 0, 0.0)],
    ] {
        check(&grid(), 8, &reps);
    }
}

#[test]
fn removing_an_absent_submatrix_is_a_no_op() {
    let base = encode(&grid(), 8);
    // In an absent tile, and an absent submatrix of a present tile.
    for reps in [[blk(5, 5, 0, 0.0)], [blk(1, 2, 0, 0.0)]] {
        let spliced = check(&grid(), 8, &reps);
        assert_eq!(spliced.to_bytes(), base.to_bytes());
    }
}

#[test]
fn emptying_the_last_tile_of_a_row_moves_re_back() {
    let spliced = check(&grid(), 8, &[blk(0, 2, 0, 0.0)]);
    let ends = row_ends(&spliced);
    assert_eq!(ends[0], ((0, 0), true), "tile (0,0) now ends tile row 0");
}

#[test]
fn a_new_tile_after_a_row_end_moves_re_forward() {
    let spliced = check(&grid(), 8, &[blk(0, 7, 0x0100, 9.0)]);
    let ends = row_ends(&spliced);
    assert_eq!(
        &ends[..3],
        &[((0, 0), false), ((0, 1), false), ((0, 3), true)]
    );
}

#[test]
fn emptying_a_whole_tile_row() {
    let spliced = check(&grid(), 8, &[blk(3, 5, 0, 0.0), blk(2, 0, 0, 0.0)]);
    assert!(spliced.tiles().iter().all(|t| t.tile_row != 1));
    // And refilling an empty tile row.
    check(
        &grid(),
        8,
        &[blk(4, 6, 0x0001, 9.0), blk(5, 1, 0x8000, 8.0)],
    );
}

/// The in-bounds cells of submatrix `(sub_r, sub_c)` as a mask.
fn inside(rows: u32, cols: u32, sub_r: u32, sub_c: u32) -> u16 {
    (0..16u32)
        .filter(|bit| sub_r * 4 + bit / 4 < rows && sub_c * 4 + bit % 4 < cols)
        .fold(0, |m, bit| m | 1 << bit)
}

#[test]
fn random_splices_match_fresh_encode() {
    for seed in 0..400u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (rows, cols) = (rng.gen_range(1..80u32), rng.gen_range(1..80u32));
        let tile = 4 * rng.gen_range(1..=8u32);
        let block_at = |rng: &mut SmallRng, r: u32, c: u32| {
            let mask = rng.gen_range(1..=u16::MAX) & inside(rows, cols, r, c);
            blk(r, c, mask, rng.gen_range(0..8u32) as f32)
        };
        let (sr, sc) = (rows.div_ceil(4), cols.div_ceil(4));
        let occupied: Vec<SubBlock> = (0..rng.gen_range(0..40))
            .map(|_| {
                let (r, c) = (rng.gen_range(0..sr), rng.gen_range(0..sc));
                block_at(&mut rng, r, c)
            })
            .collect();
        let base = mutated(&Coo::new(rows, cols), &occupied);
        let present = SubmatrixMap::from_coo(&base).blocks().to_vec();
        let mut reps: Vec<SubBlock> = Vec::new();
        for _ in 0..rng.gen_range(0..12) {
            let (r, c) = match rng.gen_range(0..4u32) {
                // Rewrite or delete a present submatrix.
                0 | 1 if !present.is_empty() => {
                    let b = &present[rng.gen_range(0..present.len())];
                    (b.sub_r, b.sub_c)
                }
                // Repeat an earlier replacement's submatrix.
                2 if !reps.is_empty() => {
                    let b = &reps[rng.gen_range(0..reps.len())];
                    (b.sub_r, b.sub_c)
                }
                _ => (rng.gen_range(0..sr), rng.gen_range(0..sc)),
            };
            let b = block_at(&mut rng, r, c);
            reps.push(if rng.gen_bool(0.25) {
                blk(r, c, 0, 0.0)
            } else {
                b
            });
        }
        check(&base, tile, &reps);
    }
}

#[test]
fn splicing_a_decoded_stream_with_unordered_tile_instances_does_not_panic() {
    let m = encode(&grid(), 8);
    let t = m.tiles()[0];
    assert!(t.n_instances >= 4, "tile (0,0) holds four submatrices");
    // Swap the first and last 20-byte records of tile (0,0) and re-seal
    // the stream: `from_bytes` checks the CRC, not the instance order.
    let mut bytes = m.to_bytes().to_vec();
    let stream = bytes.len() - CHECKSUM_BYTES - 20 * m.n_instances();
    let (a, b) = (stream, stream + 20 * (t.n_instances - 1));
    for k in 0..20 {
        bytes.swap(a + k, b + k);
    }
    let payload = bytes.len() - CHECKSUM_BYTES;
    let crc = spasm_format::crc32(&bytes[..payload]);
    bytes[payload..].copy_from_slice(&crc.to_le_bytes());
    let hostile = SpasmMatrix::from_bytes(&bytes).unwrap();
    assert_ne!(hostile, m);

    for reps in [
        vec![blk(0, 0, 0, 0.0)],
        vec![blk(1, 1, 0x0001, 9.0), blk(0, 1, 0, 0.0)],
        vec![
            blk(1, 0, 0xffff, 9.0),
            blk(0, 0, 0x0001, 8.0),
            blk(3, 3, 1, 7.0),
        ],
    ] {
        let spliced = hostile.spliced(&reps, table()).unwrap();
        // Whatever it holds, the result is a well-formed stream.
        SpasmMatrix::from_bytes(&spliced.to_bytes()).unwrap();
    }
}
