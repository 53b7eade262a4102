//! Differential tests: the SPASM pipeline and every storage format are
//! checked against the CSR reference kernel on randomized and adversarial
//! matrices.
//!
//! Two tolerance regimes:
//!
//! * **Pipeline vs CSR** — the simulator accumulates through 4-wide
//!   template FMAs in a different order than CSR, so results agree within
//!   `1e-3` (relative), the bound the paper's functional validation uses.
//! * **Format vs format** — every value is a small multiple of `0.25` and
//!   every `x` entry a small multiple of `0.5`, so all partial sums are
//!   exactly representable in `f32` and every format must agree with CSR
//!   *bit for bit*, regardless of accumulation order.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spasm::{IntegrityPolicy, Pipeline, PipelineOptions};
use spasm_format::SpasmMatrix;
use spasm_hw::Accelerator;
use spasm_sparse::{Bsr, Coo, Csc, Csr, Dia, Ell, SpMv};

/// Batch sizes every batched-equivalence assertion sweeps: every lane
/// count up to 8, then 12, 15 and a full 16-vector lane block, so each
/// padded width (1, 2, 4, 8, 16) runs with and without pad lanes, and 17,
/// which crosses into a second lane block.
const BATCH_SIZES: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 12, 15, 16, 17];

/// A family of distinct x vectors derived from the probe (multiples of
/// 0.25, so partial sums stay exactly representable).
fn probe_batch(cols: u32, batch: usize) -> Vec<Vec<f32>> {
    (0..batch)
        .map(|j| {
            (0..cols)
                .map(|i| (((i as usize + 3 * j) % 9) as f32) * 0.5 - 2.0 + j as f32 * 0.25)
                .collect()
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts a reused prepared plan is *bit-identical* to a fresh one: same
/// y bits (even though both differ from CSR within tolerance) and an
/// identical `ExecReport`.
fn assert_plan_matches_run(acc: &Accelerator, m: &SpasmMatrix, x: &[f32]) {
    let mut y_fresh = vec![0.25f32; m.rows() as usize];
    let fresh_report = acc
        .prepare(m)
        .unwrap()
        .run(x, &mut y_fresh)
        .unwrap()
        .clone();

    // The reused plan has already run once, on a different x.
    let mut plan = acc.prepare(m).unwrap();
    let other = probe_batch(m.cols(), 2).swap_remove(1);
    plan.run(&other, &mut vec![0.0f32; m.rows() as usize])
        .unwrap();
    let mut y_plan = vec![0.25f32; m.rows() as usize];
    let plan_report = plan.run(x, &mut y_plan).unwrap().clone();

    assert_eq!(
        bits(&y_plan),
        bits(&y_fresh),
        "reused vs fresh plan on {}x{}",
        m.rows(),
        m.cols()
    );
    assert_eq!(plan_report, fresh_report, "ExecReport mismatch");

    // The batched entry point must be bit-identical to looping the
    // single-vector plan, for every batch size.
    for batch in BATCH_SIZES {
        let xs = probe_batch(m.cols(), batch);
        let mut want = vec![vec![0.25f32; m.rows() as usize]; batch];
        for (xj, yj) in xs.iter().zip(want.iter_mut()) {
            plan.run(xj, yj).unwrap();
        }
        let mut got = vec![vec![0.25f32; m.rows() as usize]; batch];
        let batch_report = plan.run_batch(&xs, &mut got).unwrap();
        assert_eq!(
            batch_report.batch.map(|b| b.vectors),
            Some(batch),
            "run_batch must stamp its batch size"
        );
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                bits(g),
                bits(w),
                "run_batch vector {j}/{batch} vs looped plan.run on {}x{}",
                m.rows(),
                m.cols()
            );
        }
    }
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

/// A deterministic x with entries that are small multiples of 0.5.
fn probe_x(cols: u32) -> Vec<f32> {
    (0..cols).map(|i| ((i % 9) as f32) * 0.5 - 2.0).collect()
}

/// Asserts `prepare().execute()` matches the CSR oracle within 1e-3.
fn assert_pipeline_matches_csr(m: &Coo) {
    let x = probe_x(m.cols());
    let mut want = vec![0.0f32; m.rows() as usize];
    Csr::from(m).spmv(&x, &mut want).unwrap();

    let mut prepared = Pipeline::new().prepare(m).unwrap();
    let mut got = vec![0.0f32; m.rows() as usize];
    prepared.execute(&x, &mut got).unwrap();
    for (r, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-3 * (1.0 + w.abs()),
            "row {r}: pipeline {g} vs CSR {w} ({}x{}, nnz {})",
            m.rows(),
            m.cols(),
            m.nnz()
        );
    }

    // The prepared plan must also be bit-identical to the one-shot
    // simulator on this matrix.
    assert_plan_matches_run(&prepared.accelerator(), &prepared.encoded, &x);
}

/// Asserts every format's SpMv output is bit-identical to CSR's.
fn assert_formats_match_csr_exactly(m: &Coo) {
    let x = probe_x(m.cols());
    let mut want = vec![0.0f32; m.rows() as usize];
    Csr::from(m).spmv(&x, &mut want).unwrap();
    let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();

    macro_rules! check {
        ($name:literal, $fmt:expr) => {{
            let mut y = vec![0.0f32; m.rows() as usize];
            $fmt.spmv(&x, &mut y).unwrap();
            let got_bits: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got_bits,
                want_bits,
                "{} disagrees with CSR on {}x{} nnz {}",
                $name,
                m.rows(),
                m.cols(),
                m.nnz()
            );
        }};
    }
    check!("coo", m);
    check!("csc", Csc::from(m));
    check!("bsr2", Bsr::from_coo(m, 2).unwrap());
    check!("bsr4", Bsr::from_coo(m, 4).unwrap());
    check!("dia", Dia::from_coo(m));
    check!("ell", Ell::from_coo(m));
}

#[test]
fn random_rectangular_pipeline_matches_csr() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0001);
    for (rows, cols) in [(24, 96), (96, 24), (60, 60), (132, 40)] {
        let m = random_coo(&mut rng, rows, cols, 220);
        assert_pipeline_matches_csr(&m);
    }
}

#[test]
fn random_rectangular_formats_match_csr_exactly() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0002);
    for (rows, cols) in [(24, 96), (96, 24), (61, 47), (128, 128)] {
        let m = random_coo(&mut rng, rows, cols, 300);
        assert_formats_match_csr_exactly(&m);
    }
}

#[test]
fn empty_rows_and_columns() {
    // Entries confined to even rows and to a middle column band: odd rows
    // and the outer column bands are entirely empty.
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0003);
    let (rows, cols) = (64u32, 80u32);
    let t: Vec<(u32, u32, f32)> = (0..240)
        .map(|_| {
            (
                rng.gen_range(0..rows / 2) * 2,
                rng.gen_range(cols / 4..cols / 2),
                rng.gen_range(1..=16) as f32 * 0.25,
            )
        })
        .collect();
    let m = Coo::from_triplets(rows, cols, t).unwrap();
    assert_pipeline_matches_csr(&m);
    assert_formats_match_csr_exactly(&m);
}

#[test]
fn single_element_matrices() {
    // A lone nonzero in each corner of a rectangular matrix.
    for (r, c) in [(0, 0), (0, 50), (37, 0), (37, 50)] {
        let m = Coo::from_triplets(38, 51, vec![(r, c, 2.75)]).unwrap();
        assert_pipeline_matches_csr(&m);
        assert_formats_match_csr_exactly(&m);
    }
}

#[test]
fn dense_block_matrices() {
    // Dense 4x4 blocks scattered on a coarse grid: the pipeline's best
    // case (the dense template covers each block with zero padding).
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0004);
    let blocks = 24u32;
    let grid = 12u32; // 12x12 grid of 4x4 block slots
    let mut t = Vec::new();
    for _ in 0..blocks {
        let (br, bc) = (rng.gen_range(0..grid), rng.gen_range(0..grid));
        for r in 0..4u32 {
            for c in 0..4u32 {
                t.push((br * 4 + r, bc * 4 + c, rng.gen_range(1..=8) as f32 * 0.25));
            }
        }
    }
    let n = grid * 4;
    let m = Coo::from_triplets(n, n, t).unwrap();
    assert_pipeline_matches_csr(&m);
    assert_formats_match_csr_exactly(&m);
}

#[test]
fn anti_diagonal_matrices() {
    // The worst case for row-major blocking: every 4x4 submatrix on the
    // anti-diagonal holds a single scattered entry.
    for n in [16u32, 61, 96] {
        let t: Vec<(u32, u32, f32)> = (0..n)
            .map(|i| (i, n - 1 - i, ((i % 12) + 1) as f32 * 0.25))
            .collect();
        let m = Coo::from_triplets(n, n, t).unwrap();
        assert_pipeline_matches_csr(&m);
        assert_formats_match_csr_exactly(&m);
    }
}

#[test]
fn tall_and_wide_extremes() {
    // Single-row and single-column matrices exercise the degenerate tiling
    // edges of every format.
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0005);
    let wide = random_coo(&mut rng, 1, 200, 40);
    assert_pipeline_matches_csr(&wide);
    assert_formats_match_csr_exactly(&wide);

    let tall = random_coo(&mut rng, 200, 1, 40);
    assert_pipeline_matches_csr(&tall);
    assert_formats_match_csr_exactly(&tall);
}

#[test]
fn accumulation_into_nonzero_y() {
    // `y = A·x + y` semantics: a pre-seeded y must be accumulated into,
    // identically by the pipeline (within tolerance) and all formats.
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0006);
    let m = random_coo(&mut rng, 48, 48, 160);
    let x = probe_x(48);

    let mut want = vec![1.5f32; 48];
    Csr::from(&m).spmv(&x, &mut want).unwrap();

    let mut prepared = Pipeline::new().prepare(&m).unwrap();
    let mut got = vec![1.5f32; 48];
    prepared.execute(&x, &mut got).unwrap();
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() <= 1e-3 * (1.0 + w.abs()), "{g} vs {w}");
    }

    let mut via_coo = vec![1.5f32; 48];
    m.spmv(&x, &mut via_coo).unwrap();
    assert_eq!(
        via_coo.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn execute_batch_matches_looped_execute_under_every_policy() {
    // The framework's batched entry point must agree bit for bit with
    // looping execute_into — unverified and under the full verification
    // ladder alike.
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0007);
    for policy in [
        IntegrityPolicy::off(),
        IntegrityPolicy::sampled(8, 7),
        IntegrityPolicy::full(),
    ] {
        let m = random_coo(&mut rng, 72, 72, 260);
        let opts = PipelineOptions::default().integrity(policy);
        let mut prepared = Pipeline::with_options(opts).prepare(&m).unwrap();
        for batch in BATCH_SIZES {
            let xs = probe_batch(m.cols(), batch);
            let mut want = vec![vec![0.5f32; 72]; batch];
            for (xj, yj) in xs.iter().zip(want.iter_mut()) {
                prepared.execute_into(xj, yj).unwrap();
            }
            let mut got = vec![vec![0.5f32; 72]; batch];
            prepared.execute_batch_into(&xs, &mut got).unwrap();
            for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(bits(g), bits(w), "vector {j} of batch {batch}");
            }
            assert_eq!(prepared.batch_health().len(), batch);
        }
    }
}

#[test]
fn mixed_policy_batch_matches_batch_one_under_each_policy() {
    // One batch, each vector under its own policy — two sampled seeds
    // among them — must give every vector the bits and the health of a
    // batch-1 execute_into under that vector's own policy. The plan's own
    // policy is never consulted.
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0018);
    let m = random_coo(&mut rng, 72, 72, 260);
    let n = m.rows() as usize;
    let base =
        Pipeline::with_options(PipelineOptions::default().integrity(IntegrityPolicy::full()))
            .prepare(&m)
            .unwrap();
    let cycle = [
        IntegrityPolicy::sampled(8, 7),
        IntegrityPolicy::off(),
        IntegrityPolicy::full(),
        IntegrityPolicy::sampled(5, 0xBEEF),
        IntegrityPolicy::off().with_fallback(false),
        IntegrityPolicy::sampled(8, 7).with_tolerance(1e-2),
    ];
    for batch in BATCH_SIZES.into_iter().chain([11]) {
        let policies: Vec<IntegrityPolicy> = (0..batch).map(|j| cycle[j % cycle.len()]).collect();
        let xs = probe_batch(m.cols(), batch);
        let mut single = base.clone();
        let mut want = vec![vec![0.5f32; n]; batch];
        let mut want_health = Vec::new();
        for ((xj, yj), &policy) in xs.iter().zip(want.iter_mut()).zip(&policies) {
            single.set_integrity(policy);
            want_health.push(single.execute_into(xj, yj).unwrap().health);
        }
        let mut prepared = base.clone();
        let mut got = vec![vec![0.5f32; n]; batch];
        prepared
            .execute_batch_with(&xs, &mut got, &policies)
            .unwrap();
        assert_eq!(prepared.batch_health(), &want_health[..], "batch {batch}");
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(bits(g), bits(w), "vector {j} of mixed batch {batch}");
        }
    }
}

#[test]
fn infinite_values_never_leak_from_pad_lanes() {
    // A matrix holding ±inf: a pad lane's zeroed x meets an infinite
    // value and computes NaN (0·inf). Each row holds at most one infinity
    // and every x entry is positive, so no real lane may ever see a NaN,
    // at every padded width, unverified or verified.
    let n = 40u32;
    let coo = Coo::from_triplets(
        n,
        n,
        (0..n)
            .flat_map(|i| {
                let v = match i % 4 {
                    0 => f32::INFINITY,
                    1 => f32::NEG_INFINITY,
                    _ => 0.25 * i as f32,
                };
                [(i, i, v), (i, (i * 7 + 3) % n, -0.5)]
            })
            .filter(|&(r, c, _)| r != c || r % 4 != 3)
            .collect(),
    )
    .unwrap();
    for policy in [IntegrityPolicy::off(), IntegrityPolicy::full()] {
        let opts = PipelineOptions::default().integrity(policy);
        let mut prepared = Pipeline::with_options(opts).prepare(&coo).unwrap();
        for batch in BATCH_SIZES {
            let xs: Vec<Vec<f32>> = (0..batch)
                .map(|j| {
                    (0..n)
                        .map(|i| 0.5 + ((i as usize + j) % 5) as f32)
                        .collect()
                })
                .collect();
            let mut want = vec![vec![0.0f32; n as usize]; batch];
            for (xj, yj) in xs.iter().zip(want.iter_mut()) {
                prepared.execute_into(xj, yj).unwrap();
            }
            let mut got = vec![vec![0.0f32; n as usize]; batch];
            prepared.execute_batch_into(&xs, &mut got).unwrap();
            for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                let label = format!("vector {j} of batch {batch}, {:?}", policy.mode);
                assert_eq!(bits(g), bits(w), "{label}");
                assert!(g.iter().all(|v| !v.is_nan()), "{label}: NaN leaked");
                assert!(g.iter().any(|v| v.is_infinite()), "{label}: no infinity");
            }
        }
    }
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

/// The matrix zoo for the executor-vs-reference differential: one
/// representative of each adversarial structure the suite above exercises
/// individually.
fn kernel_zoo() -> Vec<Coo> {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0009);
    let mut zoo = vec![
        random_coo(&mut rng, 96, 64, 420),
        random_coo(&mut rng, 1, 200, 40),
        random_coo(&mut rng, 200, 1, 40),
    ];
    // Anti-diagonal: scattered single-entry submatrices.
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
    // Dense 4x4 blocks: long same-class instance runs.
    let mut t = Vec::new();
    for _ in 0..16 {
        let (br, bc) = (rng.gen_range(0..8u32), rng.gen_range(0..8u32));
        for r in 0..4u32 {
            for c in 0..4u32 {
                t.push((br * 4 + r, bc * 4 + c, rng.gen_range(1..=8) as f32 * 0.25));
            }
        }
    }
    zoo.push(Coo::from_triplets(32, 32, t).unwrap());
    zoo
}

#[test]
fn classed_dispatch_is_bit_identical_to_per_instance() {
    // The executor's lane kernel must reproduce the scalar per-instance
    // reference (`run_reference`) bit for bit, for every batch size and
    // thread budget. Batches 9 and 13 fill one lane block partly (padded
    // to 16), 17 ends in a ragged block of 1 vector.
    for m in kernel_zoo() {
        let n_rows = m.rows() as usize;
        let prepared = Pipeline::new().prepare(&m).unwrap();
        let acc = prepared.accelerator();
        for batch in [1usize, 2, 8, 9, 13, 17, 64] {
            let xs = probe_batch(m.cols(), batch);

            let mut oracle = acc.prepare(&prepared.encoded).unwrap();
            let mut want = vec![vec![0.25f32; n_rows]; batch];
            oracle.run_reference(&xs, &mut want).unwrap();

            for budget in [1usize, 2, 7] {
                let mut plan = acc.prepare(&prepared.encoded).unwrap();
                let mut got = vec![vec![0.25f32; n_rows]; batch];
                with_budget(budget, || plan.run_batch(&xs, &mut got).map(|_| ())).unwrap();
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        bits(g),
                        bits(w),
                        "executor vector {j}/{batch} at {budget} threads vs reference \
                         on {}x{} nnz {}",
                        m.rows(),
                        m.cols(),
                        m.nnz()
                    );
                }
            }
        }
    }
}

#[test]
fn reused_plan_across_batch_sizes_matches_fresh_plans() {
    // One plan runs batches of 16, 3, 1, 9, 17 and 16 vectors. Each batch size
    // changes the lane-block widths, so the vector-blocked scratch is
    // reused at a different stride; nothing of an earlier batch may leak
    // into a later one. 61 columns leave 3 pad columns per lane. After each
    // compared batch the plan runs an all-infinite batch of the same size,
    // so every scratch slot the next layout reads as padding holds an
    // infinity unless it is re-zeroed: a leaked infinity meets a zero
    // value slot and turns its row NaN.
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0016);
    let m = random_coo(&mut rng, 70, 61, 400);
    let n_rows = m.rows() as usize;
    let prepared = Pipeline::new().prepare(&m).unwrap();
    let acc = prepared.accelerator();
    let mut reused = acc.prepare(&prepared.encoded).unwrap();
    for batch in [16usize, 3, 1, 9, 17, 16] {
        let xs = probe_batch(m.cols(), batch);
        let mut want = vec![vec![0.25f32; n_rows]; batch];
        let mut fresh = acc.prepare(&prepared.encoded).unwrap();
        fresh.run_batch(&xs, &mut want).unwrap();
        let mut got = vec![vec![0.25f32; n_rows]; batch];
        reused.run_batch(&xs, &mut got).unwrap();
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                bits(g),
                bits(w),
                "vector {j} of batch {batch}: reused plan vs fresh plan"
            );
        }
        let poison = vec![vec![f32::INFINITY; m.cols() as usize]; batch];
        let mut sink = vec![vec![0.0f32; n_rows]; batch];
        reused.run_batch(&poison, &mut sink).unwrap();
    }
}

#[cfg(feature = "fault-injection")]
#[test]
fn batched_fault_degrades_exactly_one_vector_to_csr() {
    // (batch, target) pairs: a small batch, and a target in the second
    // lane block of a batch one vector wider than `LANE_BLOCK`.
    let wide = spasm_hw::ExecutionPlan::LANE_BLOCK + 1;
    let cases = [(3usize, 1usize), (wide, wide - 1)];
    let policies = [
        IntegrityPolicy::full(),
        IntegrityPolicy::sampled(24, 0x5A3D),
    ];
    for (batch, target) in cases {
        for policy in policies {
            for budget in [1usize, 2] {
                with_budget(budget, || {
                    assert_one_vector_degrades(batch, target, policy);
                });
            }
        }
    }
}

/// Faults targeted at batch vector `target`: under a verifying `policy`
/// with fallback enabled, only `target` may be struck or fall back, and
/// its siblings stay bit-identical to pristine plan output. Under the full
/// policy the target is repaired or recomputed on the golden CSR path;
/// under a sampled one a strike outside the sampled rows may go unseen,
/// so only a fallback's bits are pinned.
#[cfg(feature = "fault-injection")]
fn assert_one_vector_degrades(batch: usize, target: usize, policy: IntegrityPolicy) {
    use spasm_hw::fault::{FaultPlan, FaultSpec};

    let label = format!("batch {batch}, target {target}, {:?}", policy.mode);
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0008);
    let m = random_coo(&mut rng, 96, 96, 420);
    let opts = PipelineOptions::default().integrity(policy);
    let mut prepared = Pipeline::with_options(opts).prepare(&m).unwrap();

    let xs = probe_batch(m.cols(), batch);

    // Pristine reference: looped guarded execution without faults.
    let mut pristine = vec![vec![0.0f32; 96]; batch];
    for (xj, yj) in xs.iter().zip(pristine.iter_mut()) {
        prepared.execute_into(xj, yj).unwrap();
    }

    // The golden CSR products, which a degraded vector must match.
    let mut golden = vec![vec![0.0f32; 96]; batch];
    for (xj, yj) in xs.iter().zip(golden.iter_mut()) {
        prepared.golden().spmv(xj, yj).unwrap();
    }

    let spec = FaultSpec {
        encoding_flips: 3,
        value_flips: 3,
        ..FaultSpec::default()
    };
    let n_inst = prepared.plan.n_instances();
    prepared
        .plan
        .arm_faults_for_vector(FaultPlan::seeded(0xBAD_CAFE, &spec, n_inst), target);

    let mut ys = vec![vec![0.0f32; 96]; batch];
    prepared.execute_batch_into(&xs, &mut ys).unwrap();

    let health = prepared.batch_health().to_vec();
    assert_eq!(health.len(), batch, "{label}");
    assert!(
        health[target].faults_injected > 0,
        "{label}: the targeted vector must have been struck"
    );
    for (j, h) in health.iter().enumerate() {
        if j == target {
            continue;
        }
        assert_eq!(
            h.faults_injected, 0,
            "{label}: vector {j} must run pristine"
        );
        assert!(!h.fallback, "{label}: vector {j} must not fall back");
        assert_eq!(bits(&ys[j]), bits(&pristine[j]), "{label}: vector {j} bits");
    }
    if health[target].fallback {
        // Unrepairable corruption: the target was recomputed on the golden
        // CSR path, bit-identical to Csr::spmv.
        assert_eq!(
            bits(&ys[target]),
            bits(&golden[target]),
            "{label}: fallback vector bits"
        );
    } else if matches!(policy.mode, spasm::IntegrityMode::Full) {
        // The ladder repaired every strike from the pristine stream.
        assert!(health[target].tile_rows_quarantined > 0, "{label}");
        assert_eq!(
            bits(&ys[target]),
            bits(&pristine[target]),
            "{label}: repaired vector bits"
        );
    }
    assert!(
        prepared.report().health.faults_injected > 0,
        "{label}: aggregate health must record the strikes"
    );
}
