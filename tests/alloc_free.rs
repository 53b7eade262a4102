//! Asserts the prepared-plan steady-state contract: once built (and the
//! pipeline warmed), `ExecutionPlan::run` performs **zero** heap
//! allocations per call — the scratch buffers, report and schedule are all
//! owned by the plan.
//!
//! A counting global allocator (`tests/support`) is armed only around the
//! measured window, and only for the measuring thread, so neither the
//! (allocation-heavy) build phase nor concurrently running sibling tests
//! pollute the count. The executor never leaves the calling thread, so
//! the steady-state windows hold at every worker budget: each runs once
//! serially and once at the host's available parallelism.
//!
//! The same counter bounds the update paths: a values-only delta moves a
//! few copies of the value stream at most, and a structural splice of
//! one submatrix allocates equally often however many tiles the matrix
//! holds.

mod support;

use spasm::hw::HwConfig;
use spasm::{IntegrityPolicy, Parallelism, Pipeline, PipelineOptions};
use spasm_sparse::SpMv;
use support::count_allocs;

/// The worker budgets the steady-state windows run under: serial, and
/// every core of the host.
fn budgets() -> [usize; 2] {
    [
        1,
        std::thread::available_parallelism().map_or(1, usize::from),
    ]
}

/// Runs `f` under an ambient worker budget of `threads`.
fn with_budget(threads: usize, f: impl FnOnce()) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

#[test]
fn plan_run_is_allocation_free_at_steady_state() {
    let mut t = Vec::new();
    for i in 0..256u32 {
        t.push((i, i, 2.0));
        t.push((i, (i * 5 + 2) % 256, 0.5));
        if i + 1 < 256 {
            t.push((i + 1, i, -0.25));
        }
    }
    let a = spasm_sparse::Coo::from_triplets(256, 256, t).unwrap();
    // 64-row tiles: four tile rows, so a plan that split its tile rows
    // over worker threads would do so here.
    let prepared = Pipeline::with_options(
        PipelineOptions::default()
            .parallelism(Parallelism::Serial)
            .fixed_schedule(64, HwConfig::spasm_4_1()),
    )
    .prepare(&a)
    .unwrap();
    let mut plan = prepared.accelerator().prepare(&prepared.encoded).unwrap();
    assert_eq!(plan.n_tile_rows(), 4);

    let x: Vec<f32> = (0..256).map(|i| ((i % 9) as f32) * 0.5 - 2.0).collect();
    let mut y = vec![0.0f32; 256];

    // Warm the plan up under each budget (the very first run is already
    // allocation-free, but the warm-up keeps the test about steady state,
    // not first-call behaviour), then count.
    for threads in budgets() {
        with_budget(threads, || {
            for _ in 0..3 {
                plan.run(&x, &mut y).unwrap();
            }
            let (allocs, _, ()) = count_allocs(|| {
                for _ in 0..50 {
                    plan.run(&x, &mut y).unwrap();
                }
            });
            assert_eq!(
                allocs, 0,
                "ExecutionPlan::run allocated {allocs} times over 50 steady-state calls \
                 at budget {threads}"
            );
        });
    }

    // The outputs stay correct after the counted window (sanity check that
    // the runs above actually did work).
    y.fill(0.0);
    plan.run(&x, &mut y).unwrap();
    let mut want = vec![0.0f32; 256];
    spasm_sparse::Csr::from(&a).spmv(&x, &mut want).unwrap();
    for (g, w) in y.iter().zip(&want) {
        assert!((g - w).abs() <= 1e-3 * (1.0 + w.abs()), "{g} vs {w}");
    }
}

#[test]
fn run_batch_is_allocation_free_at_steady_state() {
    // The batched scratch (strided x, packed window-major y) grows on the
    // first call for a given batch size and is reused afterwards: once
    // warm, `run_batch` performs zero heap allocations per call.
    let mut t = Vec::new();
    for i in 0..192u32 {
        t.push((i, i, 1.5));
        t.push((i, (i * 7 + 3) % 192, 0.25));
    }
    let a = spasm_sparse::Coo::from_triplets(192, 192, t).unwrap();
    let prepared =
        Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Serial))
            .prepare(&a)
            .unwrap();
    let mut plan = prepared.accelerator().prepare(&prepared.encoded).unwrap();

    let batch = 16usize;
    let xs: Vec<Vec<f32>> = (0..batch)
        .map(|j| {
            (0..192)
                .map(|i| (((i + 3 * j) % 9) as f32) * 0.5 - 2.0)
                .collect()
        })
        .collect();
    let mut ys = vec![vec![0.0f32; 192]; batch];

    for threads in budgets() {
        with_budget(threads, || {
            // First call grows xb/yb; from then on the batch path must be
            // allocation-free.
            for _ in 0..3 {
                plan.run_batch(&xs, &mut ys).unwrap();
            }
            let (allocs, _, ()) = count_allocs(|| {
                for _ in 0..50 {
                    plan.run_batch(&xs, &mut ys).unwrap();
                }
            });
            assert_eq!(
                allocs, 0,
                "ExecutionPlan::run_batch allocated {allocs} times over 50 steady-state \
                 calls at budget {threads}"
            );

            // Smaller batches reuse the already-grown scratch: still zero.
            let xs_small = &xs[..3];
            let mut ys_small = vec![vec![0.0f32; 192]; 3];
            plan.run_batch(xs_small, &mut ys_small).unwrap();
            let (allocs, _, ()) = count_allocs(|| {
                for _ in 0..20 {
                    plan.run_batch(xs_small, &mut ys_small).unwrap();
                }
            });
            assert_eq!(
                allocs, 0,
                "shrunk-batch run_batch allocated {allocs} times at budget {threads}"
            );
        });
    }
}

#[test]
fn mixed_policy_batches_are_allocation_free_at_steady_state() {
    // Verified batches mixing every integrity policy: unverified lanes,
    // two sampled seeds (row oracle plus golden cross-check) and fully
    // verified lanes, in one partial lane block, one full 16-vector block,
    // and 17 vectors across two blocks. Once the per-batch scratch has
    // grown, the ladder allocates nothing per call.
    let n = 256u32;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 1.5));
        t.push((i, (i * 11 + 5) % n, -0.25));
    }
    let a = spasm_sparse::Coo::from_triplets(n, n, t).unwrap();
    let mut prepared = Pipeline::with_options(
        PipelineOptions::default()
            .parallelism(Parallelism::Serial)
            .fixed_schedule(64, HwConfig::spasm_4_1()),
    )
    .prepare(&a)
    .unwrap();
    let cycle = [
        IntegrityPolicy::off(),
        IntegrityPolicy::sampled(4, 0xA5),
        IntegrityPolicy::sampled(4, 0x5A),
        IntegrityPolicy::full(),
        IntegrityPolicy::off(),
    ];
    for batch in [cycle.len(), 16, 17] {
        let policies: Vec<IntegrityPolicy> = (0..batch).map(|j| cycle[j % cycle.len()]).collect();
        let xs: Vec<Vec<f32>> = (0..batch)
            .map(|j| {
                (0..n as usize)
                    .map(|i| (((i + 5 * j) % 7) as f32) * 0.5 - 1.5)
                    .collect()
            })
            .collect();
        let mut ys = vec![vec![0.0f32; n as usize]; batch];

        for threads in budgets() {
            with_budget(threads, || {
                for _ in 0..3 {
                    prepared
                        .execute_batch_with(&xs, &mut ys, &policies)
                        .unwrap();
                }
                let (allocs, _, ()) = count_allocs(|| {
                    for _ in 0..50 {
                        prepared
                            .execute_batch_with(&xs, &mut ys, &policies)
                            .unwrap();
                    }
                });
                assert_eq!(
                    allocs, 0,
                    "Prepared::execute_batch_with allocated {allocs} times over 50 steady-state \
                     mixed-policy calls of {batch} vectors at budget {threads}"
                );
            });
        }
        let health = prepared.batch_health();
        assert!(health.iter().all(|h| h.is_clean()));
        assert_eq!(health[1].rows_verified, 4);
        assert_eq!(health[1].rows_cross_checked, 4);
        assert!(health[3].tile_rows_verified > 0);
    }
}

#[test]
fn values_only_delta_apply_is_allocation_bounded() {
    use spasm_sparse::{DeltaOp, MatrixDelta};

    // A values-only delta must be a copy-on-write patch of the 4-slot
    // value stream: its allocation cost is bounded by a few copies of
    // that stream, and is nowhere near a full re-prepare (which would
    // re-run analysis, decomposition and encoding).
    let mut t = Vec::new();
    for i in 0..256u32 {
        t.push((i, i, 2.0));
        t.push((i, (i * 5 + 2) % 256, 0.5));
        if i + 1 < 256 {
            t.push((i + 1, i, -0.25));
        }
    }
    let a = spasm_sparse::Coo::from_triplets(256, 256, t).unwrap();
    let opts = PipelineOptions::default().parallelism(Parallelism::Serial);
    let mut prepared = Pipeline::with_options(opts.clone()).prepare(&a).unwrap();

    // Warm the lazy golden CSR outside the window: validation consults it,
    // and its one-time build is not part of the per-delta cost.
    let _ = prepared.golden();

    let delta: MatrixDelta = (0..256u32)
        .step_by(3)
        .map(|i| DeltaOp::Patch {
            row: i,
            col: i,
            value: 2.5,
        })
        .collect();
    let value_bytes = (prepared.encoded.n_instances() * 4 * std::mem::size_of::<f32>()) as u64;

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        let (_, apply_bytes, ()) = count_allocs(|| {
            prepared.apply_delta(&delta).unwrap();
        });
        assert!(
            apply_bytes <= 4 * value_bytes + 64 * 1024,
            "values-only apply moved {apply_bytes} bytes for a {value_bytes}-byte value \
             stream — the encoded stream was re-decoded"
        );

        // For scale: a from-scratch prepare of the same matrix.
        let (_, rebuild_bytes, ()) =
            count_allocs(|| drop(Pipeline::with_options(opts.clone()).prepare(&a)));
        assert!(
            apply_bytes < rebuild_bytes / 4,
            "values-only apply ({apply_bytes} bytes) is not meaningfully cheaper than a \
             full re-prepare ({rebuild_bytes} bytes)"
        );
    });

    // And the patch really landed: the updated plan computes the mutated
    // product.
    let x: Vec<f32> = (0..256).map(|i| ((i % 9) as f32) * 0.5 - 2.0).collect();
    let mut got = vec![0.0f32; 256];
    prepared.execute_into(&x, &mut got).unwrap();
    let mut want = vec![0.0f32; 256];
    prepared.golden().spmv(&x, &mut want).unwrap();
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() <= 1e-3 * (1.0 + w.abs()), "{g} vs {w}");
    }
}

#[test]
fn prepared_plans_share_the_value_stream_without_copying() {
    // The flattened value stream is `Arc<[f32]>`-shared between the
    // encoded matrix and every plan prepared from it: preparing another
    // plan must not copy the values.
    let mut t = Vec::new();
    for i in 0..128u32 {
        for c in 0..8u32 {
            t.push((i, (i + c * 17) % 128, 1.0 + (c as f32) * 0.25));
        }
    }
    let a = spasm_sparse::Coo::from_triplets(128, 128, t).unwrap();
    let prepared =
        Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Serial))
            .prepare(&a)
            .unwrap();
    let m = &prepared.encoded;
    let acc = prepared.accelerator();

    // Same allocation, not equal copies. (`shared_values` is `Some` for
    // every prepared plan; only mapped wire-v3 plans borrow their values.)
    let plan = acc.prepare(m).unwrap();
    let plan_values = plan.shared_values().expect("prepared plans own values");
    assert!(
        std::sync::Arc::ptr_eq(plan_values, m.shared_values()),
        "plan must share the matrix's value-stream allocation"
    );

    // Each additional plan adds exactly one strong reference.
    let before = std::sync::Arc::strong_count(m.shared_values());
    let plan2 = acc.prepare(m).unwrap();
    assert_eq!(std::sync::Arc::strong_count(m.shared_values()), before + 1);
    drop(plan2);
    assert_eq!(std::sync::Arc::strong_count(m.shared_values()), before);

    // Preparing a plan allocates scratch and decoded streams, but never a
    // second copy of the 4-slot value stream: cloning the matrix (which
    // shares values by refcount) must cost far less than the value bytes.
    let value_bytes = (m.n_instances() * 4 * std::mem::size_of::<f32>()) as u64;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let (_, clone_bytes, ()) = pool.install(|| {
        count_allocs(|| {
            let cloned = m.clone();
            assert!(std::sync::Arc::ptr_eq(
                cloned.shared_values(),
                m.shared_values()
            ));
        })
    });
    assert!(
        clone_bytes < value_bytes,
        "matrix clone moved {clone_bytes} bytes — value stream ({value_bytes} bytes) was copied"
    );
    drop(plan);
}

#[test]
fn splicing_one_submatrix_allocates_independently_of_matrix_size() {
    use spasm::format::{SpasmMatrix, SubBlock, SubmatrixMap};
    use spasm::patterns::{DecompositionTable, TemplateSet};

    // A block-diagonal matrix with `tiles` occupied 16×16 tiles, each
    // holding four diagonal 4×4 submatrices.
    let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
    let diagonal = |tiles: u32| {
        let n = 16 * tiles;
        let t = (0..n).map(|i| (i, i, 1.0 + (i % 7) as f32)).collect();
        let a = spasm_sparse::Coo::from_triplets(n, n, t).unwrap();
        SpasmMatrix::encode(&SubmatrixMap::from_coo(&a), &table, 16).unwrap()
    };
    let block = |sub_r, sub_c, mask: u16| {
        let mut values = [0.0f32; 16];
        for (bit, v) in values.iter_mut().enumerate() {
            if mask & (1 << bit) != 0 {
                *v = 2.0 + bit as f32;
            }
        }
        SubBlock {
            sub_r,
            sub_c,
            mask,
            values,
        }
    };
    // Rewrite a present submatrix, delete one, and open a new tile.
    let edits = [
        block(5, 5, 0x8421 | 0x0002),
        block(6, 6, 0),
        block(1, 7, 0x0100),
    ];

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let (small, large) = (diagonal(10), diagonal(1000));
    assert_eq!((small.tiles().len(), large.tiles().len()), (10, 1000));
    pool.install(|| {
        for edit in &edits {
            let reps = std::slice::from_ref(edit);
            let count = |m: &SpasmMatrix| count_allocs(|| m.spliced(reps, &table).unwrap()).0;
            let (a, b) = (count(&small), count(&large));
            assert_eq!(
                a, b,
                "splicing one submatrix allocated {a} times at 10 tiles but {b} at 1000"
            );
        }
    });
}
