//! Coherence of the payload CRC a `SpasmMatrix` caches for its
//! fingerprint: seeded interleavings of `patch_values`, `spliced`,
//! `clone` and a `from_bytes(to_bytes())` round trip, checking after
//! every step that `fingerprint()` equals the fingerprint of the bytes.
//!
//! The splices aim at what the per-tile CRC segments must get right:
//! creating or emptying the last tile of a tile row (which flips the RE
//! flag of an untouched neighbour), emptying a whole tile row, and
//! replacement sets given out of order and with duplicates.

use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spasm_format::{MatrixFingerprint, SpasmMatrix, SubBlock, SubmatrixMap};
use spasm_patterns::{DecompositionTable, TemplateSet};
use spasm_sparse::Coo;

fn table() -> &'static DecompositionTable {
    static TABLE: OnceLock<DecompositionTable> = OnceLock::new();
    TABLE.get_or_init(|| DecompositionTable::build(&TemplateSet::table_v_set(0)))
}

/// The in-bounds cells of submatrix `(sub_r, sub_c)` as a mask.
fn inside(m: &SpasmMatrix, sub_r: u32, sub_c: u32) -> u16 {
    (0..16u32)
        .filter(|bit| sub_r * 4 + bit / 4 < m.rows() && sub_c * 4 + bit % 4 < m.cols())
        .fold(0, |mask, bit| mask | 1 << bit)
}

/// Submatrix `(sub_r, sub_c)` with a random non-empty in-bounds pattern.
fn random_block(rng: &mut SmallRng, m: &SpasmMatrix, sub_r: u32, sub_c: u32) -> SubBlock {
    let mask = loop {
        let mask = rng.gen_range(1..=u16::MAX) & inside(m, sub_r, sub_c);
        if mask != 0 {
            break mask;
        }
    };
    let mut values = [0.0f32; 16];
    for (bit, v) in values.iter_mut().enumerate() {
        if mask & (1 << bit) != 0 {
            *v = rng.gen_range(1..64u32) as f32 * 0.5;
        }
    }
    SubBlock {
        sub_r,
        sub_c,
        mask,
        values,
    }
}

fn removal(sub_r: u32, sub_c: u32) -> SubBlock {
    SubBlock {
        sub_r,
        sub_c,
        mask: 0,
        values: [0.0; 16],
    }
}

/// The matrix's occupied submatrices, with their tile coordinates.
fn blocks(m: &SpasmMatrix) -> Vec<((u32, u32), SubBlock)> {
    let spt = m.tile_size() / 4;
    SubmatrixMap::from_coo(&m.to_coo())
        .blocks()
        .iter()
        .map(|b| ((b.sub_r / spt, b.sub_c / spt), b.clone()))
        .collect()
}

/// Replacements emptying the last tile of a random tile row, so the
/// tile before it (if any) becomes its row's last.
fn empty_a_row_end(rng: &mut SmallRng, m: &SpasmMatrix) -> Vec<SubBlock> {
    let Some(t) = m.tiles().get(rng.gen_range(0..m.tiles().len().max(1))) else {
        return Vec::new();
    };
    let row_end = m
        .tiles()
        .iter()
        .filter(|o| o.tile_row == t.tile_row)
        .map(|o| o.tile_col)
        .max();
    blocks(m)
        .into_iter()
        .filter(|&((tr, tc), _)| tr == t.tile_row && Some(tc) == row_end)
        .map(|(_, b)| removal(b.sub_r, b.sub_c))
        .collect()
}

/// A replacement creating a tile after the last one of a random tile
/// row, so the old last tile stops ending its row. Empty when the row's
/// last tile is already the rightmost one.
fn extend_a_row(rng: &mut SmallRng, m: &SpasmMatrix) -> Vec<SubBlock> {
    let spt = m.tile_size() / 4;
    let (sub_rows, sub_cols) = (m.rows().div_ceil(4), m.cols().div_ceil(4));
    let tile_row = rng.gen_range(0..sub_rows.div_ceil(spt));
    let after = m
        .tiles()
        .iter()
        .filter(|o| o.tile_row == tile_row)
        .map(|o| o.tile_col + 1)
        .max()
        .unwrap_or(0);
    let first_sub_c = after * spt;
    if first_sub_c >= sub_cols {
        return Vec::new();
    }
    let sub_r = (tile_row * spt + rng.gen_range(0..spt)).min(sub_rows - 1);
    let sub_c = rng.gen_range(first_sub_c..sub_cols);
    vec![random_block(rng, m, sub_r, sub_c)]
}

/// Replacements emptying every tile of a random non-empty tile row.
fn empty_a_tile_row(rng: &mut SmallRng, m: &SpasmMatrix) -> Vec<SubBlock> {
    let Some(t) = m.tiles().get(rng.gen_range(0..m.tiles().len().max(1))) else {
        return Vec::new();
    };
    blocks(m)
        .into_iter()
        .filter(|&((tr, _), _)| tr == t.tile_row)
        .map(|(_, b)| removal(b.sub_r, b.sub_c))
        .collect()
}

/// A few random rewrites, deletes and inserts, some of one submatrix
/// twice.
fn scattered(rng: &mut SmallRng, m: &SpasmMatrix) -> Vec<SubBlock> {
    let present = blocks(m);
    let (sub_rows, sub_cols) = (m.rows().div_ceil(4), m.cols().div_ceil(4));
    let mut reps = Vec::new();
    for _ in 0..rng.gen_range(1..8) {
        let (sub_r, sub_c) = match present.len() {
            n if n > 0 && rng.gen_bool(0.6) => {
                let (_, b) = &present[rng.gen_range(0..n)];
                (b.sub_r, b.sub_c)
            }
            _ => (rng.gen_range(0..sub_rows), rng.gen_range(0..sub_cols)),
        };
        if rng.gen_bool(0.3) {
            reps.push(random_block(rng, m, sub_r, sub_c));
        }
        reps.push(if rng.gen_bool(0.3) {
            removal(sub_r, sub_c)
        } else {
            random_block(rng, m, sub_r, sub_c)
        });
    }
    reps
}

/// Shuffles `reps`: which duplicate wins may change, and the bytes are
/// the reference either way.
fn shuffle(rng: &mut SmallRng, reps: &mut [SubBlock]) {
    for i in (1..reps.len()).rev() {
        reps.swap(i, rng.gen_range(0..=i));
    }
}

/// Values-only patches of up to four stored cells.
fn patches(rng: &mut SmallRng, m: &SpasmMatrix) -> Vec<(u32, u32, f32)> {
    let cells: Vec<(u32, u32, f32)> = m.to_coo().iter().collect();
    if cells.is_empty() {
        return Vec::new();
    }
    (0..rng.gen_range(1..=4))
        .map(|_| {
            let (r, c, _) = cells[rng.gen_range(0..cells.len())];
            (r, c, rng.gen_range(1..64u32) as f32 * -0.25)
        })
        .collect()
}

/// The fingerprint against the bytes' fingerprint. Half the time it is
/// taken on a clone, which shares the cache state but leaves the
/// original's unfilled, so later steps start from every mix of known
/// and unknown parts.
fn assert_coherent(rng: &mut SmallRng, m: &SpasmMatrix, step: &str) {
    let want = MatrixFingerprint::of_wire_bytes(&m.to_bytes()).unwrap();
    let got = if rng.gen_bool(0.5) {
        m.clone().fingerprint()
    } else {
        m.fingerprint()
    };
    assert_eq!(got, want, "{step}");
}

#[test]
fn fingerprint_follows_seeded_interleavings() {
    for seed in 0..120u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (rows, cols) = (rng.gen_range(8..96u32), rng.gen_range(8..96u32));
        let tile = 4 * rng.gen_range(1..=8u32);
        let triplets: Vec<(u32, u32, f32)> = (0..rng.gen_range(0..300))
            .map(|_| {
                let (r, c) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
                (r, c, rng.gen_range(1..32u32) as f32)
            })
            .collect();
        let coo = Coo::from_triplets(rows, cols, triplets).unwrap();
        let mut m = SpasmMatrix::encode(&SubmatrixMap::from_coo(&coo), table(), tile).unwrap();
        if rng.gen_bool(0.5) {
            m = SpasmMatrix::from_bytes(&m.to_bytes()).unwrap();
        }
        for step in 0..16 {
            let what = match rng.gen_range(0..8u32) {
                0 | 1 => {
                    let entries = patches(&mut rng, &m);
                    m.patch_values(&entries).unwrap();
                    "patch_values"
                }
                2 => {
                    m = m.clone();
                    "clone"
                }
                3 => {
                    m = SpasmMatrix::from_bytes(&m.to_bytes()).unwrap();
                    "from_bytes(to_bytes())"
                }
                kind => {
                    let mut reps = match kind {
                        4 => empty_a_row_end(&mut rng, &m),
                        5 => extend_a_row(&mut rng, &m),
                        6 => empty_a_tile_row(&mut rng, &m),
                        _ => scattered(&mut rng, &m),
                    };
                    shuffle(&mut rng, &mut reps);
                    m = m.spliced(&reps, table()).unwrap();
                    "spliced"
                }
            };
            assert_coherent(&mut rng, &m, &format!("seed {seed}, step {step}: {what}"));
        }
    }
}

/// The RE flag of each tile's last instance.
fn row_ends(m: &SpasmMatrix) -> Vec<bool> {
    m.tiles()
        .iter()
        .map(|t| m.tile_instances(t).last().unwrap().encoding.re())
        .collect()
}

/// Directed cases: each splice flips the RE flag of a tile it does not
/// touch, and a values patch follows on the spliced matrix, whose CRC
/// lives in its tile segments.
#[test]
fn re_flips_of_untouched_tiles_keep_the_fingerprint() {
    // 32×32 at tile size 8: tile row 0 holds tiles (0,0) and (0,2),
    // tile row 1 holds (1,1), tile row 3 holds (3,0) and (3,3).
    let mut t = vec![(0, 0, 1.0), (3, 2, 2.0), (1, 17, 3.0), (9, 9, 4.0)];
    t.extend([(24, 1, 5.0), (30, 30, 6.0), (31, 25, 7.0)]);
    let coo = Coo::from_triplets(32, 32, t).unwrap();
    let base = SpasmMatrix::encode(&SubmatrixMap::from_coo(&coo), table(), 8).unwrap();
    assert_eq!(row_ends(&base), [false, true, true, false, true]);
    let single = |sub_r, sub_c| SubBlock {
        sub_r,
        sub_c,
        mask: 1,
        values: [8.0; 16],
    };
    let cases: [(&[SubBlock], &[bool]); 3] = [
        // Empty (0,2): (0,0) now ends tile row 0.
        (&[removal(0, 4)], &[true, true, false, true]),
        // A new (1,3) after (1,1): (1,1) no longer ends tile row 1.
        (&[single(2, 6)], &[false, true, false, true, false, true]),
        // Empty tile row 3, out of order, one submatrix refilled and then
        // removed again.
        (
            &[
                removal(7, 7),
                removal(6, 0),
                single(7, 7),
                removal(7, 6),
                removal(7, 7),
            ],
            &[false, true, true],
        ),
    ];
    for (reps, ends) in cases {
        for mut m in [
            base.clone(),
            SpasmMatrix::from_bytes(&base.to_bytes()).unwrap(),
        ] {
            m = m.spliced(reps, table()).unwrap();
            assert_eq!(row_ends(&m), ends);
            let want = MatrixFingerprint::of_wire_bytes(&m.to_bytes()).unwrap();
            assert_eq!(m.fingerprint(), want, "after {reps:?}");
            m.patch_values(&[(0, 0, -2.0)]).unwrap();
            let want = MatrixFingerprint::of_wire_bytes(&m.to_bytes()).unwrap();
            assert_eq!(m.fingerprint(), want, "patch after {reps:?}");
        }
    }
}
