//! The zero-copy contract of `spasm-store`: thawing a wire-v3 container
//! into an `ExecutionPlan` must not copy any of the mapped stream
//! sections — the plan's frozen SoA streams *borrow* the container
//! buffer. A counting global allocator (`tests/support`, armed per
//! thread) bounds the bytes moved while `FrozenPlan::into_plan` runs, and
//! the steady-state run loop stays allocation-free exactly as it does for
//! freshly prepared plans.
//!
//! Registered in `crates/store` (`[[test]] name = "store_zero_copy"`).

mod support;

use spasm::{IntegrityPolicy, Parallelism, Pipeline, PipelineOptions, Prepared};
use spasm_sparse::Coo;
use spasm_store::{save_v3, FrozenPlan, PlanBuffer, PlanStore};
use support::count_allocs;

/// A scattered square matrix big enough that its instance streams dwarf
/// any bookkeeping allocations.
fn matrix(n: u32) -> Coo {
    let mut t = Vec::new();
    for i in 0..n {
        for k in 0..6u32 {
            t.push((i, (i * 31 + k * 7) % n, ((i + k) % 9 + 1) as f32 * 0.5));
        }
    }
    Coo::from_triplets(n, n, t).expect("valid triplets")
}

fn prepare(m: &Coo) -> Prepared {
    Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Serial))
        .prepare(m)
        .expect("pipeline prepare")
}

/// The per-instance stream payload of a plan: x/y bases (u32 each),
/// op indices (u8), 4-slot values (4×f32) and bucket indices (u32).
fn instance_stream_bytes(n_instances: usize) -> u64 {
    (n_instances * (4 + 4 + 1 + 16 + 4)) as u64
}

#[test]
fn thawing_copies_no_stream_bytes() {
    let m = matrix(2048);
    let fresh = prepare(&m);
    let v3 = save_v3(&fresh.encoded, &fresh.plan).expect("save_v3");
    let n_instances = fresh.encoded.n_instances();
    let stream_bytes = instance_stream_bytes(n_instances);

    let buffer = PlanBuffer::from_bytes(&v3);
    let frozen = FrozenPlan::open(buffer).expect("open");

    // `into_plan` validates every section and materialises the plan —
    // borrowing, not copying, the stream sections. The only allocations
    // allowed are bookkeeping (tiles, class runs, scratch vectors), all
    // far smaller than the instance streams themselves.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let (_, thaw_bytes, plan) = pool.install(|| count_allocs(|| frozen.into_plan()));
    let plan = plan.expect("into_plan");

    assert!(
        thaw_bytes < stream_bytes / 2,
        "into_plan allocated {thaw_bytes} bytes against {stream_bytes} stream bytes — \
         a mapped section was copied"
    );

    // The accounting splits the same way: the stream payload is priced as
    // mapped bytes, while owned memory excludes it entirely.
    assert!(
        plan.mapped_bytes() as u64 >= stream_bytes,
        "mapped_bytes {} does not cover the {stream_bytes} stream bytes",
        plan.mapped_bytes()
    );
    assert!(
        (plan.memory_bytes() as u64) < stream_bytes / 2,
        "owned memory_bytes {} — streams were copied into the plan",
        plan.memory_bytes()
    );
    assert!(
        plan.shared_values().is_none(),
        "a mapped plan must not own an Arc'd value stream"
    );
}

#[test]
fn mapped_plan_run_is_allocation_free_and_exact() {
    let m = matrix(1024);
    let mut fresh = prepare(&m);
    let v3 = save_v3(&fresh.encoded, &fresh.plan).expect("save_v3");

    let frozen = FrozenPlan::open(PlanBuffer::from_bytes(&v3)).expect("open");
    let (encoded, plan) = frozen.thaw().expect("thaw");
    let mut thawed = Prepared::restore(encoded, plan, Parallelism::Serial, IntegrityPolicy::off())
        .expect("restore");

    let n = 1024usize;
    let x: Vec<f32> = (0..n).map(|i| ((i % 9) as f32) * 0.5 - 2.0).collect();
    let mut want = vec![0.0f32; n];
    let mut got = vec![0.0f32; n];
    fresh.execute(&x, &mut want).expect("fresh execute");

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    pool.install(|| {
        for _ in 0..3 {
            got.fill(0.0);
            thawed.execute(&x, &mut got).expect("warm-up");
        }
        // `execute_into` rather than `execute`: the latter clones the
        // report out per call, which is an allocation by design.
        let (allocs, _, ()) = count_allocs(|| {
            for _ in 0..50 {
                thawed.execute_into(&x, &mut got).expect("steady state");
            }
        });
        assert_eq!(
            allocs, 0,
            "mapped-plan execute allocated {allocs} times over 50 steady-state calls"
        );
    });

    got.fill(0.0);
    thawed.execute(&x, &mut got).expect("final execute");
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "mapped plan diverged from fresh prepare"
    );
}

#[test]
fn file_backed_store_maps_instead_of_reading() {
    let m = matrix(512);
    let fresh = prepare(&m);

    let dir = std::env::temp_dir().join(format!("spasm-store-zero-copy-{}", std::process::id()));
    let store = PlanStore::open(&dir).expect("store open");
    let path = store.save(&fresh.encoded, &fresh.plan).expect("save");

    let buffer = PlanBuffer::open(&path).expect("buffer open");
    assert!(
        buffer.is_file_mapped(),
        "expected an mmap-backed buffer on this platform"
    );
    let frozen = FrozenPlan::open(buffer).expect("frozen open");
    let (encoded, plan) = frozen.thaw().expect("thaw");
    assert_eq!(
        encoded.fingerprint().token(),
        fresh.encoded.fingerprint().token()
    );
    assert!(plan.mapped_bytes() > 0);

    std::fs::remove_dir_all(&dir).ok();
}
