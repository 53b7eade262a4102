//! Storage round-trip contract for wire v3 (`spasm-store`): a plan that
//! went through `save_v3 → FrozenPlan → ExecutionPlan → Prepared::restore`
//! must be **bit-identical** to the freshly prepared one — for every
//! workload-zoo matrix, for batch sizes 1 and 8, under serial and parallel
//! thread budgets — and hostile bytes must always surface as a typed
//! error, never a panic and never a silently wrong answer.
//!
//! Registered in `crates/store` (`[[test]] name = "store_roundtrip"`).

use proptest::prelude::*;
use spasm::{IntegrityPolicy, Parallelism, Pipeline, PipelineOptions, Prepared};
use spasm_format::{Wire3Reader, Wire3Writer};
use spasm_sparse::Coo;
use spasm_store::{save_v3, FrozenPlan, PlanBuffer};
use spasm_workloads::{Scale, Workload};

/// Thaws a v3 byte stream all the way back to a servable `Prepared`.
/// Every failure mode — container, plan or restore — is a typed error
/// rendered to its display string; none of them may panic.
fn thaw(bytes: &[u8], parallelism: Parallelism) -> Result<Prepared, String> {
    let frozen = FrozenPlan::open(PlanBuffer::from_bytes(bytes)).map_err(|e| e.to_string())?;
    let (encoded, plan) = frozen.thaw().map_err(|e| e.to_string())?;
    Prepared::restore(encoded, plan, parallelism, IntegrityPolicy::off()).map_err(|e| e.to_string())
}

fn bits(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// Deterministic batch of dense x vectors for an `n`-column matrix.
fn xs_for(n: usize, batch: usize) -> Vec<Vec<f32>> {
    (0..batch)
        .map(|j| {
            (0..n)
                .map(|i| (((i + 5 * j) % 11) as f32) * 0.5 - 2.0)
                .collect()
        })
        .collect()
}

/// Asserts the thawed plan reproduces the fresh plan bit-for-bit on
/// batch 1 and batch 8, at every requested thread budget.
fn assert_roundtrip(m: &Coo, pipeline: &Pipeline, budgets: &[Parallelism]) {
    let mut fresh = pipeline.prepare(m).expect("pipeline prepare");
    let v3 = save_v3(&fresh.encoded, &fresh.plan).expect("save_v3");

    let rows = m.rows() as usize;
    for &parallelism in budgets {
        let mut thawed = thaw(&v3, parallelism).expect("thaw");
        for batch in [1usize, 8] {
            let xs = xs_for(m.cols() as usize, batch);
            let mut want = vec![vec![0.0f32; rows]; batch];
            let mut got = vec![vec![0.0f32; rows]; batch];
            fresh.execute_batch(&xs, &mut want).expect("fresh batch");
            thawed.execute_batch(&xs, &mut got).expect("thawed batch");
            for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    bits(g),
                    bits(w),
                    "batch {batch} vector {j}: thawed plan diverged from fresh prepare"
                );
            }
        }
    }

    // The matrix derived from the plan's sections is the source matrix
    // byte for byte, so it keys the same catalog entry.
    let frozen = FrozenPlan::open(PlanBuffer::from_bytes(&v3)).expect("reopen");
    let (encoded, _) = frozen.thaw().expect("thaw");
    assert_eq!(encoded.to_bytes(), fresh.encoded.to_bytes());
    assert_eq!(
        encoded.fingerprint().token(),
        fresh.encoded.fingerprint().token()
    );
    assert_eq!(encoded.to_coo(), *m);
}

/// Every Table II workload round-trips bit-identically, at both thread
/// budgets the serving layer uses.
#[test]
fn workload_zoo_roundtrips_bit_identical() {
    let pipeline =
        Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Serial));
    for w in Workload::ALL {
        let m = w.generate(Scale::Small);
        assert_roundtrip(&m, &pipeline, &[Parallelism::Serial, Parallelism::Auto]);
    }
}

/// Corruption sweep: flipping any single bit of a v3 container must yield
/// a typed `StoreError` (or, at worst, a *detected* mismatch) — never a
/// panic, and never an `Ok` plan that computes different answers.
#[test]
fn corruption_is_always_detected() {
    // Hand-rolled matrix: small enough that the sweep stays fast, busy
    // enough that every section of the container is non-trivial.
    let n = 256u32;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2.0));
        t.push((i, (i * 37 + 11) % n, ((i % 7) + 1) as f32 * 0.25));
        t.push(((i * 53 + 5) % n, i, -0.5));
    }
    let m = Coo::from_triplets(n, n, t).expect("valid triplets");
    let pipeline =
        Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Serial));
    let mut fresh = pipeline.prepare(&m).expect("pipeline prepare");
    let v3 = save_v3(&fresh.encoded, &fresh.plan).expect("save_v3");

    let rows = m.rows() as usize;
    let xs = xs_for(m.cols() as usize, 1);
    let mut want = vec![vec![0.0f32; rows]; 1];
    fresh.execute_batch(&xs, &mut want).expect("fresh batch");
    let want = bits(&want[0]);

    // Exhaustive (all 8 bits) over the header + directory, then strided
    // with a rotating bit position across the CRC-covered bulk — cheap,
    // yet every section of the container gets hit.
    let dense_prefix = v3.len().min(256);
    let offsets = (0..dense_prefix)
        .flat_map(|off| (0..8u8).map(move |bit| (off, bit)))
        .chain(
            (dense_prefix..v3.len())
                .step_by(7)
                .map(|off| (off, (off % 8) as u8)),
        );
    for (off, bit) in offsets {
        let mut evil = v3.clone();
        evil[off] ^= 1 << bit;
        match thaw(&evil, Parallelism::Serial) {
            Err(_) => {} // typed rejection: the contract holds
            Ok(mut p) => {
                // The flip survived validation (e.g. it landed in the
                // padding interpretation of an unchecked float and
                // cancelled out) — the answers must still be exact.
                let mut got = vec![vec![0.0f32; rows]; 1];
                p.execute_batch(&xs, &mut got).expect("execute");
                assert_eq!(
                    bits(&got[0]),
                    want,
                    "bit flip at {off}:{bit} produced a silently wrong plan"
                );
            }
        }
    }

    // Truncations at every section-ish granularity are typed errors too.
    for cut in [0, 1, 63, 64, 135, 136, v3.len() - 1] {
        assert!(
            FrozenPlan::open(PlanBuffer::from_bytes(&v3[..cut])).is_err(),
            "truncation to {cut} bytes was accepted"
        );
    }
}

/// A file whose two copies of the matrix disagree: the plan's sections
/// are matrix A's, and the canonical v2 stream that files once embedded
/// as section 12 is a values-only variant B. The plan's sections are
/// what executes, so the file must thaw as A: A's key, A's encoded bytes
/// and A's answers under every integrity policy.
#[test]
fn an_embedded_v2_stream_cannot_rekey_the_plan() {
    let n = 96u32;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2.0));
        t.push((i, (i * 37 + 11) % n, ((i % 7) + 1) as f32 * 0.25));
    }
    let a = Coo::from_triplets(n, n, t).expect("valid triplets");
    let pipeline =
        Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Serial));
    let mut fresh = pipeline.prepare(&a).expect("pipeline prepare");
    let mut b = fresh.encoded.clone();
    let patches: Vec<(u32, u32, f32)> = fresh
        .encoded
        .to_coo()
        .iter()
        .map(|(r, c, v)| (r, c, v + 4.0))
        .collect();
    b.patch_values(&patches).expect("values-only variant");
    let fp_a = fresh.encoded.fingerprint();
    assert_ne!(b.fingerprint(), fp_a);

    // The layout of a file that embeds a v2 stream, with B's in it.
    let v3 = save_v3(&fresh.encoded, &fresh.plan).expect("save_v3");
    let reader = Wire3Reader::parse(&v3).expect("parse");
    let mut w = Wire3Writer::new(*reader.header());
    for e in reader.entries() {
        w.section(e.id, reader.section(e.id).expect("listed section"));
    }
    w.section(12, &b.to_bytes());
    let mixed = w.finish();

    let frozen = FrozenPlan::open(PlanBuffer::from_bytes(&mixed)).expect("open");
    let (encoded, plan) = frozen.thaw().expect("thaw");
    assert_eq!(encoded.fingerprint(), fp_a);
    assert_eq!(encoded.to_bytes(), fresh.encoded.to_bytes());

    let mut thawed = Prepared::restore(encoded, plan, Parallelism::Serial, IntegrityPolicy::off())
        .expect("restore");
    let x = &xs_for(n as usize, 1)[0];
    for policy in [
        IntegrityPolicy::off(),
        IntegrityPolicy::sampled(8, 7),
        IntegrityPolicy::full(),
    ] {
        fresh.set_integrity(policy);
        thawed.set_integrity(policy);
        let (mut want, mut got) = (vec![0.0f32; n as usize], vec![0.0f32; n as usize]);
        fresh.execute(x, &mut want).expect("fresh execute");
        thawed.execute(x, &mut got).expect("thawed execute");
        assert_eq!(bits(&got), bits(&want), "{policy:?}: thawed file is not A");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary matrices (not just the zoo) round-trip bit-identically.
    #[test]
    fn arbitrary_matrices_roundtrip(
        (rows, cols, t) in (16u32..96, 16u32..96).prop_flat_map(|(r, c)| {
            let entry = (0..r, 0..c, (1i32..32).prop_map(|q| q as f32 * 0.25));
            (Just(r), Just(c), proptest::collection::vec(entry, 1..192))
        })
    ) {
        let m = Coo::from_triplets(rows, cols, t).unwrap();
        let pipeline = Pipeline::with_options(
            PipelineOptions::default().parallelism(Parallelism::Serial),
        );
        assert_roundtrip(&m, &pipeline, &[Parallelism::Serial]);
    }
}
