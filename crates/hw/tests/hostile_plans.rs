//! Hostile inputs to the plan constructors: every entry point —
//! `Accelerator::prepare` on a decoded stream and `ExecutionPlan::from_parts`
//! on frozen parts — must refuse a broken stream with a typed error and
//! never panic.

use spasm_format::{crc32, SpasmMatrix, SubmatrixMap, CHECKSUM_BYTES, HEADER_BYTES};
use spasm_hw::{
    Accelerator, ExecutionPlan, FrozenTile, HwConfig, IntegrityCheck, PlanParts, SimError, Stream,
};
use spasm_patterns::{DecompositionTable, TemplateSet};
use spasm_sparse::Coo;

fn encode(coo: &Coo, tile: u32) -> SpasmMatrix {
    let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
    SpasmMatrix::encode(&SubmatrixMap::from_coo(coo), &table, tile).unwrap()
}

fn sample(n: u32) -> Coo {
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2.0));
        t.push((i, (i * 7 + 3) % n, 0.5));
        if i + 1 < n {
            t.push((i + 1, i, -1.0));
        }
    }
    Coo::from_triplets(n, n, t).unwrap()
}

/// `m`'s v2 bytes with one empty tile `(row, col)` appended to the
/// directory: header `n_tiles` (bytes 40..44) bumped and the CRC
/// restamped, so the wire decoder accepts it.
fn with_empty_tile(m: &SpasmMatrix, row: u32, col: u32) -> SpasmMatrix {
    let mut b = m.to_bytes().to_vec();
    let n_tiles = m.tiles().len();
    let dir_end = HEADER_BYTES + m.template_masks().len().next_multiple_of(2) * 2 + n_tiles * 12;
    let entry: Vec<u8> = [row, col, 0].iter().flat_map(|w| w.to_le_bytes()).collect();
    b.splice(dir_end..dir_end, entry);
    b[40..44].copy_from_slice(&(n_tiles as u32 + 1).to_le_bytes());
    let payload = b.len() - CHECKSUM_BYTES;
    let crc = crc32(&b[..payload]).to_le_bytes();
    b[payload..].copy_from_slice(&crc);
    SpasmMatrix::from_bytes(&b).expect("the wire decoder accepts the mutated stream")
}

#[test]
fn prepare_rejects_an_empty_tile_outside_the_matrix() {
    let m = encode(&sample(40), 16);
    // Just past the last tile row, and far enough out that `row *
    // tile_size` overflows u32.
    for row in [40u32.div_ceil(16), u32::MAX - 1] {
        let hostile = with_empty_tile(&m, row, 0);
        let got = Accelerator::new(HwConfig::spasm_4_1()).prepare(&hostile);
        assert!(
            matches!(
                got,
                Err(SimError::Integrity {
                    tile_row,
                    check: IntegrityCheck::EncodingRange,
                }) if tile_row == row
            ),
            "row {row}: {got:?}"
        );
    }
}

/// A 300×300 banded matrix at tile 64: several tile rows, tile rows of
/// more than one bucketing block, several classes per block, and a last
/// tile row and column that overhang the padded operands.
fn banded() -> SpasmMatrix {
    let n = 300u32;
    let mut t = Vec::new();
    for i in 0..n {
        for j in i.saturating_sub(6)..(i + 7).min(n) {
            t.push((i, j, 1.0 + ((i + 2 * j) % 7) as f32 * 0.25));
        }
        t.push((i, (i * 37 + 11) % n, -0.5));
    }
    encode(&Coo::from_triplets(n, n, t).unwrap(), 64)
}

/// The frozen parts of a good plan for `m`: what wire v3 stores.
fn parts(m: &SpasmMatrix, plan: &ExecutionPlan) -> PlanParts {
    let s = plan.streams();
    PlanParts {
        config: plan.config().clone(),
        rows: m.rows(),
        cols: m.cols(),
        tile_size: m.tile_size(),
        nnz: m.nnz() as u64,
        template_masks: m.template_masks().to_vec(),
        tiles: m
            .tiles()
            .iter()
            .map(|t| FrozenTile {
                row: t.tile_row,
                col: t.tile_col,
                first_instance: t.first_instance,
                n_instances: t.n_instances,
            })
            .collect(),
        x_base: Stream::from_vec(s.x_base.to_vec()),
        y_base: Stream::from_vec(s.y_base.to_vec()),
        op_idx: Stream::from_vec(s.op_idx.to_vec()),
        values: Stream::from_vec(s.values.to_vec()),
        bucket_idx: Stream::from_vec(s.bucket_idx.to_vec()),
        class_runs: Stream::from_vec(s.class_runs.to_vec()),
        block_runs: Stream::from_vec(s.block_runs.to_vec()),
        row_blocks: Stream::from_vec(s.row_blocks.to_vec()),
    }
}

/// `s` with `f` applied to an owned copy.
fn edit<T: Copy>(s: &mut Stream<T>, f: impl FnOnce(&mut Vec<T>)) {
    let mut v = s.to_vec();
    f(&mut v);
    *s = Stream::from_vec(v);
}

/// The first instance of the first tile matching `pick`, with its tile.
fn instance_in(p: &PlanParts, pick: impl Fn(&FrozenTile) -> bool) -> (usize, FrozenTile) {
    let t = *p
        .tiles
        .iter()
        .find(|t| t.n_instances > 0 && pick(t))
        .expect("a matching tile");
    (t.first_instance, t)
}

/// Block 0's class runs: the first holds at least two instances, and
/// the block has at least two runs.
fn block0_runs(p: &PlanParts) -> std::ops::Range<usize> {
    let runs = p.block_runs[0] as usize..p.block_runs[1] as usize;
    assert!(runs.len() >= 2, "block 0 needs two classes");
    let first = p.class_runs[runs.start];
    assert!(first.end - first.start >= 2, "run 0 needs two instances");
    runs
}

enum Want {
    Integrity(IntegrityCheck),
    Plan(&'static str),
}

type Case = (&'static str, Want, Box<dyn Fn(&mut PlanParts)>);

fn cases() -> Vec<Case> {
    use IntegrityCheck::{EncodingRange, InstanceCount};
    use Want::{Integrity, Plan};
    vec![
        // Directory rules.
        (
            "first_instance off the running sum",
            Integrity(InstanceCount),
            Box::new(|p| p.tiles[1].first_instance += 1),
        ),
        (
            "tile counts overrun the stream",
            Integrity(InstanceCount),
            Box::new(|p| p.tiles.last_mut().unwrap().n_instances += 1),
        ),
        (
            "directory short of the stream",
            Integrity(InstanceCount),
            Box::new(|p| p.tiles.last_mut().unwrap().n_instances -= 1),
        ),
        (
            "directory not strictly ascending",
            Integrity(InstanceCount),
            Box::new(|p| (p.tiles[1].row, p.tiles[1].col) = (p.tiles[0].row, p.tiles[0].col)),
        ),
        (
            "tile row outside the matrix",
            Integrity(EncodingRange),
            Box::new(|p| p.tiles.last_mut().unwrap().row = u32::MAX),
        ),
        (
            "tile column outside the matrix",
            Integrity(EncodingRange),
            Box::new(|p| p.tiles.last_mut().unwrap().col = u32::MAX),
        ),
        (
            "empty tile outside the matrix",
            Integrity(EncodingRange),
            Box::new(|p| {
                let n = p.op_idx.len();
                p.tiles.push(FrozenTile {
                    row: u32::MAX,
                    col: 0,
                    first_instance: n,
                    n_instances: 0,
                })
            }),
        ),
        // Per-instance rules.
        (
            "x base below its tile",
            Integrity(EncodingRange),
            Box::new(|p| {
                let (i, t) = instance_in(p, |t| t.col > 0);
                edit(&mut p.x_base, |v| v[i] = t.col * 64 - 4);
            }),
        ),
        (
            "x base misaligned",
            Integrity(EncodingRange),
            Box::new(|p| edit(&mut p.x_base, |v| v[0] += 1)),
        ),
        (
            "x base past its tile",
            Integrity(EncodingRange),
            Box::new(|p| {
                let (i, t) = instance_in(p, |t| t.col == 0);
                edit(&mut p.x_base, |v| v[i] = t.col * 64 + 64);
            }),
        ),
        (
            "x base past the padded operand",
            Integrity(EncodingRange),
            Box::new(|p| {
                let (i, _) = instance_in(p, |t| t.col == 4);
                edit(&mut p.x_base, |v| v[i] = 300);
            }),
        ),
        (
            "y base misaligned",
            Integrity(EncodingRange),
            Box::new(|p| edit(&mut p.y_base, |v| v[0] += 1)),
        ),
        (
            "y base past its window",
            Integrity(EncodingRange),
            Box::new(|p| edit(&mut p.y_base, |v| v[0] = 64)),
        ),
        (
            "y base past the padded rows",
            Integrity(EncodingRange),
            Box::new(|p| {
                let (i, _) = instance_in(p, |t| t.row == 4);
                edit(&mut p.y_base, |v| v[i] = 300 - 256);
            }),
        ),
        (
            "opcode class outside the portfolio",
            Integrity(EncodingRange),
            Box::new(|p| {
                let k = p.template_masks.len() as u8;
                edit(&mut p.op_idx, |v| v[0] = k);
            }),
        ),
        // Parts-only rules.
        (
            "config",
            Plan("need at least one group and x channel"),
            Box::new(|p| p.config.num_pe_groups = 0),
        ),
        (
            "tile size zero",
            Plan("tile size must be a positive multiple of 4"),
            Box::new(|p| p.tile_size = 0),
        ),
        (
            "tile size not a multiple of 4",
            Plan("tile size must be a positive multiple of 4"),
            Box::new(|p| p.tile_size = 62),
        ),
        (
            "tile size past the position word",
            Plan("tile size exceeds the position word's range"),
            Box::new(|p| p.tile_size = spasm_format::MAX_TILE_SIZE + 4),
        ),
        (
            "empty portfolio",
            Plan("portfolio must hold 1..=16 templates"),
            Box::new(|p| p.template_masks.clear()),
        ),
        (
            "oversized portfolio",
            Plan("portfolio must hold 1..=16 templates"),
            Box::new(|p| p.template_masks.resize(17, 0b1111)),
        ),
        (
            "x base section short",
            Plan("stream section lengths disagree"),
            Box::new(|p| edit(&mut p.x_base, |v| v.truncate(v.len() - 1))),
        ),
        (
            "y base section short",
            Plan("stream section lengths disagree"),
            Box::new(|p| edit(&mut p.y_base, |v| v.truncate(v.len() - 1))),
        ),
        (
            "bucket index section short",
            Plan("stream section lengths disagree"),
            Box::new(|p| edit(&mut p.bucket_idx, |v| v.truncate(v.len() - 1))),
        ),
        (
            "value section short",
            Plan("stream section lengths disagree"),
            Box::new(|p| edit(&mut p.values, |v| v.truncate(v.len() - 1))),
        ),
        (
            "nnz beyond the value slots",
            Plan("nnz exceeds the stream's value slots"),
            Box::new(|p| p.nnz = 4 * p.op_idx.len() as u64 + 1),
        ),
        // Bucket-directory rules.
        (
            "row-block prefix length",
            Plan("row-block prefix has the wrong shape"),
            Box::new(|p| edit(&mut p.row_blocks, |v| v.truncate(v.len() - 1))),
        ),
        (
            "row-block prefix start",
            Plan("row-block prefix has the wrong shape"),
            Box::new(|p| edit(&mut p.row_blocks, |v| v[0] = 1)),
        ),
        (
            "row-block prefix against the layout",
            Plan("row-block prefix disagrees with the layout"),
            Box::new(|p| edit(&mut p.row_blocks, |v| v[1] += 1)),
        ),
        (
            "block-run prefix length",
            Plan("block-run prefix has the wrong shape"),
            Box::new(|p| edit(&mut p.block_runs, |v| v.truncate(v.len() - 1))),
        ),
        (
            "block-run prefix start",
            Plan("block-run prefix has the wrong shape"),
            Box::new(|p| edit(&mut p.block_runs, |v| v[0] = 1)),
        ),
        (
            "block-run prefix end",
            Plan("block-run prefix has the wrong shape"),
            Box::new(|p| edit(&mut p.block_runs, |v| *v.last_mut().unwrap() -= 1)),
        ),
        (
            "block-run prefix descends",
            Plan("block-run prefix has the wrong shape"),
            Box::new(|p| edit(&mut p.block_runs, |v| v[1] = v[2] + 1)),
        ),
        (
            "class run off its block cursor",
            Plan("class runs do not partition their block"),
            Box::new(|p| edit(&mut p.class_runs, |v| v[0].start += 1)),
        ),
        (
            "empty class run",
            Plan("class runs do not partition their block"),
            Box::new(|p| edit(&mut p.class_runs, |v| v[0].end = v[0].start)),
        ),
        (
            "class run past its block",
            Plan("class runs do not partition their block"),
            Box::new(|p| {
                let last = block0_runs(p).end - 1;
                edit(&mut p.class_runs, |v| v[last].end += 1);
            }),
        ),
        (
            "class run outside the portfolio",
            Plan("class run names a template outside the portfolio"),
            Box::new(|p| edit(&mut p.class_runs, |v| v[0].class = 16)),
        ),
        (
            "class runs not ascending",
            Plan("class runs must strictly ascend within a block"),
            Box::new(|p| {
                let runs = block0_runs(p);
                edit(&mut p.class_runs, |v| {
                    v[runs.start + 1].class = v[runs.start].class;
                });
            }),
        ),
        (
            "class runs short of their block",
            Plan("class runs do not cover their block"),
            Box::new(|p| {
                // Drop block 0's last run and shift the later blocks' run
                // prefixes down with it.
                let last = block0_runs(p).end - 1;
                edit(&mut p.class_runs, |v| {
                    v.remove(last);
                });
                edit(&mut p.block_runs, |v| {
                    v[1..].iter_mut().for_each(|b| *b -= 1)
                });
            }),
        ),
        (
            "bucket index outside its block",
            Plan("bucket index outside its block"),
            Box::new(|p| {
                let n = p.op_idx.len() as u32;
                edit(&mut p.bucket_idx, |v| v[0] = n - 1);
            }),
        ),
        (
            "bucket index class disagrees",
            Plan("bucket index class disagrees with the stream"),
            Box::new(|p| {
                let runs = block0_runs(p);
                let other = p.class_runs[runs.start + 1].start as usize;
                edit(&mut p.bucket_idx, |v| v.swap(0, other));
            }),
        ),
        (
            "duplicate bucket index",
            Plan("duplicate bucket index in a block"),
            Box::new(|p| {
                block0_runs(p);
                edit(&mut p.bucket_idx, |v| v[1] = v[0]);
            }),
        ),
    ]
}

#[test]
fn from_parts_refuses_every_broken_rule_with_a_typed_error() {
    let m = banded();
    let acc = Accelerator::new(HwConfig::spasm_4_1());
    let mut fresh = acc.prepare(&m).unwrap();
    assert!(fresh.n_tile_rows() >= 5);
    assert!(fresh
        .instance_range(0)
        .is_some_and(|(i0, i1)| i1 - i0 > ExecutionPlan::EXEC_BLOCK));

    // The untouched parts reassemble into the same plan.
    let x: Vec<f32> = (0..300).map(|i| (i % 11) as f32 * 0.5 - 2.0).collect();
    let (mut want, mut got) = (vec![0.0f32; 300], vec![0.0f32; 300]);
    let want_rep = fresh.run(&x, &mut want).unwrap().clone();
    let mut thawed = ExecutionPlan::from_parts(parts(&m, &fresh)).unwrap();
    assert_eq!(*thawed.run(&x, &mut got).unwrap(), want_rep);
    assert_eq!(got, want);

    for (name, want, break_rule) in cases() {
        let mut p = parts(&m, &fresh);
        break_rule(&mut p);
        let got = ExecutionPlan::from_parts(p);
        match want {
            Want::Integrity(check) => assert!(
                matches!(got, Err(SimError::Integrity { check: c, .. }) if c == check),
                "{name}: want {check:?}, got {got:?}"
            ),
            Want::Plan(msg) => assert!(
                matches!(got, Err(SimError::Plan(m)) if m == msg),
                "{name}: want {msg:?}, got {got:?}"
            ),
        }
    }
}
