//! Asserts the prepared-plan steady-state contract: once built (and the
//! pipeline warmed), `ExecutionPlan::run` performs **zero** heap
//! allocations per call — the scratch buffers, report and schedule are all
//! owned by the plan.
//!
//! A counting global allocator (`tests/support`) is armed only around the
//! measured window, and only for the measuring thread, so neither the
//! (allocation-heavy) build phase nor concurrently running sibling tests
//! pollute the count. The window runs under a serial worker budget:
//! spawning OS threads inherently allocates, and the contract is about
//! per-call *work*, not about the fan-out machinery.

mod support;

use spasm::{Parallelism, Pipeline, PipelineOptions};
use spasm_sparse::SpMv;
use support::count_allocs;

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
    let prepared =
        Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Serial))
            .prepare(&a)
            .unwrap();
    let mut plan = prepared.accelerator().prepare(&prepared.encoded).unwrap();

    let x: Vec<f32> = (0..256).map(|i| ((i % 9) as f32) * 0.5 - 2.0).collect();
    let mut y = vec![0.0f32; 256];

    // Pin the plan to a serial budget for the measured window, and warm it
    // up (the very first run is already allocation-free, but the warm-up
    // keeps the test about steady state, not first-call behaviour).
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
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
            "ExecutionPlan::run allocated {allocs} times over 50 steady-state calls"
        );
    });

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

    let batch = 8usize;
    let xs: Vec<Vec<f32>> = (0..batch)
        .map(|j| {
            (0..192)
                .map(|i| (((i + 3 * j) % 9) as f32) * 0.5 - 2.0)
                .collect()
        })
        .collect();
    let mut ys = vec![vec![0.0f32; 192]; batch];

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
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
            "ExecutionPlan::run_batch allocated {allocs} times over 50 steady-state calls"
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
        assert_eq!(allocs, 0, "shrunk-batch run_batch allocated {allocs} times");
    });
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
