//! Update-equivalence differential suite: a plan mutated in place by
//! [`spasm::Prepared::apply_delta`] must be indistinguishable from a plan
//! prepared from scratch on the mutated matrix.
//!
//! Every matrix value and probe entry is a small multiple of 0.25, so all
//! partial sums are exactly representable in `f32` and "indistinguishable"
//! means **bit for bit**: identical output bits across batch sizes
//! {1, 8}, worker budgets {1, 2, 7} and both the executor and the scalar
//! per-instance reference, identical execution reports, and —
//! under a pinned schedule — identical `memory_bytes` repricing.
//!
//! The suite covers all three update paths: values-only copy-on-write
//! patches, structural tile splices, and the drift-triggered full
//! re-prepare fallback, plus the stale-golden regression (a values-only
//! delta under `IntegrityPolicy::Full` must verify against the *updated*
//! values, not the ones the plan was prepared with).

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spasm::{DeltaOutcome, IntegrityPolicy, Pipeline, PipelineError, PipelineOptions, Prepared};
use spasm_hw::{ExecReport, HwConfig};
use spasm_patterns::TemplateSet;
use spasm_sparse::{Coo, Csr, DeltaOp, MatrixDelta, SpMv};
use spasm_workloads::{changesets, ChangesetConfig};

/// Batch sizes and worker budgets the equivalence sweep covers.
const BATCHES: [usize; 2] = [1, 8];
const BUDGETS: [usize; 3] = [1, 2, 7];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Distinct x vectors with entries that are small multiples of 0.25.
fn probe_batch(cols: u32, batch: usize) -> Vec<Vec<f32>> {
    (0..batch)
        .map(|j| {
            (0..cols)
                .map(|i| (((i as usize + 3 * j) % 9) as f32) * 0.5 - 2.0 + j as f32 * 0.25)
                .collect()
        })
        .collect()
}

/// Runs `f` under an explicit ambient worker budget (no-op in serial
/// builds, where every budget degenerates to one worker).
fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("vendored shim pool builder is infallible")
        .install(f)
}

/// Random triplets with exactly-representable values (multiples of 0.25).
fn random_coo(rng: &mut SmallRng, rows: u32, cols: u32, n_entries: usize) -> Coo {
    let t: Vec<(u32, u32, f32)> = (0..n_entries)
        .map(|_| {
            (
                rng.gen_range(0..rows),
                rng.gen_range(0..cols),
                rng.gen_range(1..=32) as f32 * 0.25,
            )
        })
        .collect();
    Coo::from_triplets(rows, cols, t).unwrap()
}

/// The matrix zoo: a random rectangular matrix, dense 4×4 blocks (long
/// same-class runs), and a scattered anti-diagonal (single-entry
/// submatrices everywhere).
fn zoo() -> Vec<Coo> {
    let mut rng = SmallRng::seed_from_u64(0x0DE1_7A01);
    let mut zoo = vec![random_coo(&mut rng, 96, 64, 420)];
    let mut t = Vec::new();
    for _ in 0..24 {
        let (br, bc) = (rng.gen_range(0..12u32), rng.gen_range(0..12u32));
        for r in 0..4u32 {
            for c in 0..4u32 {
                t.push((br * 4 + r, bc * 4 + c, rng.gen_range(1..=8) as f32 * 0.25));
            }
        }
    }
    zoo.push(Coo::from_triplets(48, 48, t).unwrap());
    zoo.push(
        Coo::from_triplets(
            61,
            61,
            (0..61u32)
                .map(|i| (i, 60 - i, ((i % 12) + 1) as f32 * 0.25))
                .collect(),
        )
        .unwrap(),
    );
    zoo
}

/// Pins portfolio and schedule so a from-scratch prepare of the mutated
/// matrix explores exactly the same space the live plan was built in —
/// making `memory_bytes` and execution reports directly comparable.
fn pinned() -> PipelineOptions {
    PipelineOptions::default()
        .fixed_portfolio(TemplateSet::table_v_set(0))
        .fixed_schedule(256, HwConfig::spasm_4_1())
}

/// Applies a delta sequence to a cell map and rebuilds the mutated COO —
/// the reference semantics `apply_delta` must reproduce.
fn mutated_coo(base: &Coo, seq: &[(u64, MatrixDelta)]) -> Coo {
    let mut cells: BTreeMap<(u32, u32), f32> = base.iter().map(|(r, c, v)| ((r, c), v)).collect();
    for (_, delta) in seq {
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
    }
    let triplets: Vec<(u32, u32, f32)> = cells.into_iter().map(|((r, c), v)| (r, c, v)).collect();
    Coo::from_triplets(base.rows(), base.cols(), triplets).unwrap()
}

/// One input of the equivalence sweep: the plan's executor
/// (`run_batch`) or its scalar per-instance reference (`run_reference`).
fn execute(p: &mut Prepared, reference: bool, xs: &[Vec<f32>], ys: &mut [Vec<f32>]) -> ExecReport {
    let report = if reference {
        p.plan.run_reference(xs, ys)
    } else {
        p.plan.run_batch(xs, ys)
    };
    report.unwrap().clone()
}

/// The full equivalence sweep: live (delta-updated) vs fresh (prepared
/// from scratch on the mutated matrix), bit for bit, across batch sizes ×
/// worker budgets × {executor, reference}, with identical execution
/// reports and identical memory repricing.
fn assert_update_equivalence(live: &mut Prepared, fresh: &mut Prepared, label: &str) {
    let (rows, cols) = (live.plan.rows(), live.plan.cols());
    assert_eq!(
        (rows, cols),
        (fresh.plan.rows(), fresh.plan.cols()),
        "{label}: shape"
    );
    assert_eq!(
        live.plan.memory_bytes(),
        fresh.plan.memory_bytes(),
        "{label}: memory_bytes must be repriced to the from-scratch figure"
    );

    // The lazily-rebuilt golden CSR must describe the mutated matrix.
    let x = &probe_batch(cols, 1)[0];
    let mut y_live = vec![0.0f32; rows as usize];
    let mut y_fresh = vec![0.0f32; rows as usize];
    live.golden().spmv(x, &mut y_live).unwrap();
    fresh.golden().spmv(x, &mut y_fresh).unwrap();
    assert_eq!(bits(&y_live), bits(&y_fresh), "{label}: golden CSR");

    for reference in [false, true] {
        for batch in BATCHES {
            let xs = probe_batch(cols, batch);
            for budget in BUDGETS {
                let mut got = vec![vec![0.25f32; rows as usize]; batch];
                let mut want = vec![vec![0.25f32; rows as usize]; batch];
                let (r_live, r_fresh) = with_budget(budget, || {
                    let r_live = execute(live, reference, &xs, &mut got);
                    let r_fresh = execute(fresh, reference, &xs, &mut want);
                    (r_live, r_fresh)
                });
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        bits(g),
                        bits(w),
                        "{label}: vector {j}/{batch} at {budget} workers, reference {reference}"
                    );
                }
                assert_eq!(
                    r_live, r_fresh,
                    "{label}: ExecReport at batch {batch}, {budget} workers, reference {reference}"
                );
            }
        }
    }
}

#[test]
fn values_only_deltas_are_bit_identical_to_fresh_prepare() {
    for (i, base) in zoo().into_iter().enumerate() {
        let seq = changesets(
            &base,
            0xC0DE + i as u64,
            &ChangesetConfig::default().values_only(),
        );
        assert!(!seq.is_empty());
        let mut live = Pipeline::with_options(pinned()).prepare(&base).unwrap();
        let before = live.plan.version();
        for (k, (_, delta)) in seq.iter().enumerate() {
            let outcome = live.apply_delta(delta).unwrap();
            assert!(
                matches!(outcome, DeltaOutcome::Patched { entries } if entries == delta.len()),
                "zoo[{i}] delta {k}: values-only must take the COW patch path, got {outcome:?}"
            );
        }
        assert_eq!(
            live.plan.version(),
            before + seq.len() as u64,
            "zoo[{i}]: one version bump per applied delta"
        );
        let mutated = mutated_coo(&base, &seq);
        let mut fresh = Pipeline::with_options(pinned()).prepare(&mutated).unwrap();
        assert_update_equivalence(&mut live, &mut fresh, &format!("zoo[{i}] values-only"));
    }
}

#[test]
fn structural_deltas_are_bit_identical_to_fresh_prepare() {
    let mut spliced_somewhere = false;
    for (i, base) in zoo().into_iter().enumerate() {
        let seq = changesets(
            &base,
            0xBEEF + i as u64,
            &ChangesetConfig {
                deltas: 4,
                ops_per_delta: 6,
                ..ChangesetConfig::default().structural_only()
            },
        );
        assert!(!seq.is_empty());
        let mut live = Pipeline::with_options(pinned()).prepare(&base).unwrap();
        let before = live.plan.version();
        for (_, delta) in &seq {
            let outcome = live.apply_delta(delta).unwrap();
            match outcome {
                DeltaOutcome::Spliced { submatrices } => {
                    assert!(submatrices > 0);
                    spliced_somewhere = true;
                }
                DeltaOutcome::Reprepared { .. } => {}
                DeltaOutcome::Patched { .. } => {
                    panic!("zoo[{i}]: structural delta must not take the patch path")
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(live.plan.version(), before + seq.len() as u64);
        let mutated = mutated_coo(&base, &seq);
        let mut fresh = Pipeline::with_options(pinned()).prepare(&mutated).unwrap();
        assert_update_equivalence(&mut live, &mut fresh, &format!("zoo[{i}] structural"));
    }
    assert!(
        spliced_somewhere,
        "at least one changeset must exercise the tile-splice fast path"
    );
}

#[test]
fn mixed_changeset_stream_stays_bit_identical_across_many_deltas() {
    let base = zoo().remove(0);
    let seq = changesets(
        &base,
        0x1413ED,
        &ChangesetConfig {
            deltas: 10,
            ops_per_delta: 12,
            ..ChangesetConfig::default()
        },
    );
    let mut live = Pipeline::with_options(pinned()).prepare(&base).unwrap();
    for (k, (_, delta)) in seq.iter().enumerate() {
        live.apply_delta(delta).unwrap();
        // Equivalence holds at *every* intermediate state, not just the
        // final one: compare against a from-scratch prepare of the prefix.
        if k == seq.len() / 2 || k + 1 == seq.len() {
            let mutated = mutated_coo(&base, &seq[..=k]);
            let mut fresh = Pipeline::with_options(pinned()).prepare(&mutated).unwrap();
            assert_update_equivalence(&mut live, &mut fresh, &format!("mixed prefix ..={k}"));
        }
    }
}

#[test]
fn drift_forcing_delta_reprepares_and_still_matches() {
    // A zero drift threshold classifies every structural delta as drift,
    // forcing the full re-prepare fallback; the result must still be bit
    // for bit what a from-scratch prepare produces, with the version stamp
    // advancing monotonically through the rebuild.
    let base = zoo().remove(0);
    let opts = pinned().drift_threshold(0.0);
    let mut live = Pipeline::with_options(opts.clone()).prepare(&base).unwrap();
    let before = live.plan.version();
    let seq = changesets(
        &base,
        0xD81F7,
        &ChangesetConfig {
            deltas: 1,
            ops_per_delta: 8,
            ..ChangesetConfig::default().structural_only()
        },
    );
    let outcome = live.apply_delta(&seq[0].1).unwrap();
    match outcome {
        DeltaOutcome::Reprepared {
            changed_fraction, ..
        } => {
            assert!(changed_fraction > 0.0);
        }
        other => panic!("threshold 0 must force a re-prepare, got {other:?}"),
    }
    assert_eq!(
        live.plan.version(),
        before + 1,
        "re-prepare keeps stamps monotonic"
    );

    let mutated = mutated_coo(&base, &seq);
    let mut fresh = Pipeline::with_options(opts).prepare(&mutated).unwrap();
    assert_update_equivalence(&mut live, &mut fresh, "drift re-prepare");
}

#[test]
fn values_only_delta_under_full_integrity_verifies_against_updated_values() {
    // Regression for the stale-golden hazard: IntegrityPolicy::Full
    // cross-checks every output row against the golden CSR reference. If a
    // values-only delta patched the encoded stream but not the golden
    // copy, verification would flag pristine output as corrupt and fall
    // back to the *old* values. The golden copy must be co-updated.
    let mut rng = SmallRng::seed_from_u64(0x57A1E);
    let base = random_coo(&mut rng, 72, 72, 300);
    let opts = pinned().integrity(IntegrityPolicy::full());
    let mut live = Pipeline::with_options(opts.clone()).prepare(&base).unwrap();

    // Execute once first so the golden CSR is materialised *before* the
    // delta lands (the hazard needs an already-built golden to go stale).
    let xs = probe_batch(72, 1);
    let mut warm = vec![vec![0.0f32; 72]; 1];
    live.execute_batch_into(&xs, &mut warm).unwrap();

    let seq = changesets(&base, 0x57A1E, &ChangesetConfig::default().values_only());
    for (_, delta) in &seq {
        assert!(matches!(
            live.apply_delta(delta).unwrap(),
            DeltaOutcome::Patched { .. }
        ));
    }

    let mut got = vec![vec![0.0f32; 72]; 1];
    live.execute_batch_into(&xs, &mut got).unwrap();
    let (failed_rows, fell_back) = {
        let h = &live.batch_health()[0];
        (h.rows_failed_cross_check, h.fallback)
    };
    assert_eq!(
        failed_rows, 0,
        "pristine output must verify against the updated golden values"
    );
    assert!(
        !fell_back,
        "no spurious golden fallback after a values-only delta"
    );

    // And the verified output is the mutated matrix's product, bit for
    // bit, matching a from-scratch full-integrity prepare.
    let mutated = mutated_coo(&base, &seq);
    let mut fresh = Pipeline::with_options(opts).prepare(&mutated).unwrap();
    let mut want = vec![vec![0.0f32; 72]; 1];
    fresh.execute_batch_into(&xs, &mut want).unwrap();
    assert_eq!(bits(&got[0]), bits(&want[0]), "full-integrity output bits");

    let mut csr_want = vec![0.0f32; 72];
    Csr::from(&mutated).spmv(&xs[0], &mut csr_want).unwrap();
    let mut golden_live = vec![0.0f32; 72];
    live.golden().spmv(&xs[0], &mut golden_live).unwrap();
    assert_eq!(
        bits(&golden_live),
        bits(&csr_want),
        "golden tracks the mutated matrix"
    );
}

#[test]
fn rejected_deltas_leave_the_plan_untouched() {
    let base = zoo().remove(0);
    let mut live = Pipeline::with_options(pinned()).prepare(&base).unwrap();
    let xs = probe_batch(base.cols(), 1);
    let mut before = vec![vec![0.0f32; base.rows() as usize]; 1];
    live.execute_batch_into(&xs, &mut before).unwrap();
    // Snapshot after the warm-up run: execution lazily allocates batch
    // scratch that memory_bytes accounts for.
    let version = live.plan.version();
    let memory = live.plan.memory_bytes();

    let rejected = [
        // Out of bounds.
        MatrixDelta::new().patch(base.rows() + 7, 0, 1.0),
        // Explicit zero (would corrupt the padding invariant).
        MatrixDelta::new().insert(0, 0, 0.0),
        // Patching an entry while deleting it in the same delta.
        MatrixDelta::new().patch(0, 0, 1.0).delete(0, 0),
        // Deleting a cell that holds no entry (row 95 col 63 is outside
        // every generated entry only with vanishing probability; use a
        // guaranteed-absent probe instead).
        MatrixDelta::new().delete(base.rows() - 1, base.cols() - 1),
    ];
    for (k, delta) in rejected.iter().enumerate() {
        // The last probe may actually be present; skip it in that case.
        if k == 3 && delta.validate(&Csr::from(&base)).is_ok() {
            continue;
        }
        let err = live.apply_delta(delta).unwrap_err();
        assert!(
            matches!(err, PipelineError::Delta(_)),
            "rejected delta {k} must surface the typed error, got {err:?}"
        );
        assert_eq!(
            live.plan.version(),
            version,
            "rejected delta {k} must not bump"
        );
        assert_eq!(
            live.plan.memory_bytes(),
            memory,
            "rejected delta {k} repriced"
        );
        let mut after = vec![vec![0.0f32; base.rows() as usize]; 1];
        live.execute_batch_into(&xs, &mut after).unwrap();
        assert_eq!(
            bits(&after[0]),
            bits(&before[0]),
            "rejected delta {k} changed output"
        );
    }
}
