//! Fault-injection campaign: sweep seeded fault plans through the guarded
//! execute path and assert that **no injected fault is ever silent** — every
//! execution either produces the bit-exact clean result (fault healed or
//! harmless) or takes the golden CSR fallback (and says so in its
//! [`spasm::hw::HealthReport`]), or surfaces as an error when fallback is
//! disabled.
//!
//! Requires `--features fault-injection`; registered in `crates/core` with
//! `required-features` so plain `cargo test` skips it.

use spasm::hw::fault::{Fault, FaultPlan, FaultSpec};
use spasm::hw::HwConfig;
use spasm::sparse::{Coo, Csr, MatrixDelta, SpMv};
use spasm::{DeltaOutcome, IntegrityPolicy, Pipeline, PipelineError, PipelineOptions, Prepared};

/// A 600×600 scattered matrix: 5 entries per row, no duplicates, spanning
/// three 256-row tile rows under the pinned schedule.
fn campaign_matrix() -> Coo {
    let n = 600u32;
    let mut t = Vec::new();
    for i in 0..n {
        for k in 0..5u32 {
            let j = (i * 37 + k * 13) % n;
            t.push((i, j, ((i + k) % 9 + 1) as f32 * 0.5));
        }
    }
    Coo::from_triplets(n, n, t).unwrap()
}

fn campaign_vector(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i % 13) as f32 * 0.25 - 1.5).collect()
}

fn prepare(policy: IntegrityPolicy) -> Prepared {
    let opts = PipelineOptions::default()
        .fixed_schedule(256, HwConfig::spasm_4_1())
        .integrity(policy);
    Pipeline::with_options(opts)
        .prepare(&campaign_matrix())
        .unwrap()
}

/// The fault mix for one campaign seed: rotate through transient stream
/// faults, persistent lane faults and a mixed strike with timing faults.
fn spec_for(seed: u64) -> FaultSpec {
    match seed % 4 {
        0 => FaultSpec {
            encoding_flips: 3,
            ..FaultSpec::default()
        },
        1 => FaultSpec {
            value_flips: 3,
            ..FaultSpec::default()
        },
        2 => FaultSpec {
            lane_faults: 1,
            ..FaultSpec::default()
        },
        _ => FaultSpec {
            encoding_flips: 1,
            value_flips: 1,
            channel_stalls: 2,
            ..FaultSpec::default()
        },
    }
}

fn bits(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn campaign_no_injected_fault_is_silent() {
    let pristine = prepare(IntegrityPolicy::full());
    let n = pristine.golden().rows() as usize;
    let x = campaign_vector(n);

    let mut y_clean = vec![0.0f32; n];
    let mut base = pristine.clone();
    base.execute_into(&x, &mut y_clean).unwrap();
    assert!(base.health().is_clean());

    let mut y_csr = vec![0.0f32; n];
    pristine.golden().spmv(&x, &mut y_csr).unwrap();

    let (mut healed, mut fallbacks, mut harmless) = (0u32, 0u32, 0u32);
    for seed in 0..64u64 {
        let spec = spec_for(seed);
        let mut p = pristine.clone();
        let plan = FaultPlan::seeded(seed, &spec, p.plan.n_instances());
        let expected_faults = plan.faults().len() as u32;
        p.plan.arm_faults(plan);

        let mut y = vec![0.0f32; n];
        p.execute_into(&x, &mut y)
            .unwrap_or_else(|e| panic!("seed {seed}: guarded execute failed: {e}"));
        let health = p.health();
        assert_eq!(
            health.faults_injected, expected_faults,
            "seed {seed}: injection accounting"
        );

        // The never-silent invariant: whatever was injected, the caller
        // got the clean accelerator bits or the golden CSR bits with the
        // fallback flag raised. Anything else is silent corruption.
        if health.fallback {
            assert!(health.needs_fallback(), "seed {seed}: fallback unforced");
            assert_eq!(bits(&y), bits(&y_csr), "seed {seed}: fallback bits");
            fallbacks += 1;
        } else {
            assert_eq!(bits(&y), bits(&y_clean), "seed {seed}: clean bits");
            assert_eq!(health.tile_rows_uncorrected, 0, "seed {seed}");
            if health.tile_rows_corrected > 0 {
                healed += 1;
            } else {
                harmless += 1;
            }
        }
    }

    // The sweep must actually exercise every rung of the ladder.
    assert!(healed > 0, "no seed exercised quarantine-and-retry");
    assert!(fallbacks > 0, "no seed exercised the golden fallback");
    assert!(
        healed + fallbacks + harmless == 64,
        "{healed} + {fallbacks} + {harmless} != 64"
    );
}

#[test]
fn campaign_without_fallback_errors_instead_of_lying() {
    let pristine = prepare(IntegrityPolicy::full().with_fallback(false));
    let n = pristine.golden().rows() as usize;
    let x = campaign_vector(n);

    let mut y_clean = vec![0.0f32; n];
    pristine.clone().execute_into(&x, &mut y_clean).unwrap();

    // Persistent lane faults survive the pristine-stream retry, so with
    // fallback disabled each seed must either leave the output bit-clean
    // (the stuck lane happened to carry only zeros) or refuse loudly.
    let mut errors = 0u32;
    for seed in 0..16u64 {
        let spec = FaultSpec {
            lane_faults: 1,
            ..FaultSpec::default()
        };
        let mut p = pristine.clone();
        p.plan
            .arm_faults(FaultPlan::seeded(seed, &spec, p.plan.n_instances()));
        let mut y = vec![0.0f32; n];
        match p.execute_into(&x, &mut y) {
            Ok(_) => assert_eq!(bits(&y), bits(&y_clean), "seed {seed}: silent corruption"),
            Err(PipelineError::Integrity { .. }) => {
                errors += 1;
                assert_eq!(bits(&y), bits(&vec![0.0f32; n]), "seed {seed}: y touched");
            }
            Err(e) => panic!("seed {seed}: unexpected error {e}"),
        }
    }
    assert!(errors > 0, "no lane fault was ever refused");
}

#[test]
fn campaign_on_a_just_spliced_stream_is_never_silent() {
    // A structural delta splices the value/encoding streams in place;
    // seeded strikes landing on the freshly spliced stream must still be
    // caught by the verify-and-heal ladder, and the golden fallback must
    // recompute against the *mutated* matrix (the golden CSR the splice
    // merged the delta into), never the pre-delta values.
    let pristine = prepare(IntegrityPolicy::full());

    // campaign_matrix row 0 holds entries at columns {0, 13, 26, 39, 52}
    // (j = k·13 % 600): patch one, delete one, insert into an empty cell.
    let delta = MatrixDelta::new()
        .patch(0, 0, 2.25)
        .delete(0, 13)
        .insert(0, 1, 1.75);
    let mut updated = pristine.clone();
    let outcome = updated.apply_delta(&delta).unwrap();
    assert!(
        matches!(outcome, DeltaOutcome::Spliced { .. }),
        "three touched submatrices must splice, got {outcome:?}"
    );

    // The merged golden CSR must describe the mutated matrix.
    let mutated = {
        let mut t: Vec<(u32, u32, f32)> = campaign_matrix()
            .iter()
            .filter(|&(r, c, _)| !(r == 0 && c == 13))
            .map(|(r, c, v)| {
                if (r, c) == (0, 0) {
                    (r, c, 2.25)
                } else {
                    (r, c, v)
                }
            })
            .collect();
        t.push((0, 1, 1.75));
        Coo::from_triplets(600, 600, t).unwrap()
    };
    let n = 600usize;
    let x = campaign_vector(n);
    let mut y_csr = vec![0.0f32; n];
    Csr::from(&mutated).spmv(&x, &mut y_csr).unwrap();
    let mut y_golden = vec![0.0f32; n];
    updated.golden().spmv(&x, &mut y_golden).unwrap();
    assert_eq!(
        bits(&y_golden),
        bits(&y_csr),
        "post-splice golden must track the mutated matrix"
    );

    // Clean post-splice baseline bits.
    let mut y_clean = vec![0.0f32; n];
    updated.clone().execute_into(&x, &mut y_clean).unwrap();

    let (mut healed, mut fallbacks, mut harmless) = (0u32, 0u32, 0u32);
    for seed in 0..32u64 {
        let spec = spec_for(seed);
        let mut p = updated.clone();
        let plan = FaultPlan::seeded(seed, &spec, p.plan.n_instances());
        let expected_faults = plan.faults().len() as u32;
        p.plan.arm_faults(plan);

        let mut y = vec![0.0f32; n];
        p.execute_into(&x, &mut y)
            .unwrap_or_else(|e| panic!("seed {seed}: guarded execute failed: {e}"));
        let health = p.health();
        assert_eq!(
            health.faults_injected, expected_faults,
            "seed {seed}: injection accounting on the spliced stream"
        );
        if health.fallback {
            assert_eq!(
                bits(&y),
                bits(&y_csr),
                "seed {seed}: fallback must use updated values"
            );
            fallbacks += 1;
        } else {
            assert_eq!(bits(&y), bits(&y_clean), "seed {seed}: clean bits");
            assert_eq!(health.tile_rows_uncorrected, 0, "seed {seed}");
            if health.tile_rows_corrected > 0 {
                healed += 1;
            } else {
                harmless += 1;
            }
        }
    }
    assert!(
        healed > 0,
        "no seed exercised quarantine-and-retry post-splice"
    );
    assert!(
        fallbacks > 0,
        "no seed exercised the golden fallback post-splice"
    );
    assert_eq!(healed + fallbacks + harmless, 32);
}

#[test]
fn sampled_policy_detects_persistent_corruption_on_checked_rows() {
    // Sampled mode verifies the drawn rows with the row oracle; a
    // persistent all-lane fault corrupts every tile row, so any sample
    // must catch it and force the fallback.
    let pristine = prepare(IntegrityPolicy::sampled(8, 0xFEED));
    let n = pristine.golden().rows() as usize;
    let x = campaign_vector(n);
    let mut y_csr = vec![0.0f32; n];
    pristine.golden().spmv(&x, &mut y_csr).unwrap();

    let mut p = pristine.clone();
    let spec = FaultSpec {
        lane_faults: 4,
        ..FaultSpec::default()
    };
    p.plan
        .arm_faults(FaultPlan::seeded(7, &spec, p.plan.n_instances()));
    let mut y = vec![0.0f32; n];
    p.execute_into(&x, &mut y).unwrap();
    let health = p.health();
    assert!(health.fallback, "sampled policy missed an all-lane fault");
    assert_eq!(bits(&y), bits(&y_csr));
}

#[test]
fn sampled_policy_heals_or_falls_back_on_drawn_rows() {
    // The row contract of `sampled`: a transient fault that reaches a drawn
    // row escalates to its tile row, which is quarantined and heals to the
    // clean bits; a persistent stuck lane that drawn rows sit on forces
    // the golden fallback. (`spasm-hw`'s plan tests pin which rows are
    // drawn; here the draw is the policy's own.)
    let k = 16;
    let pristine = prepare(IntegrityPolicy::sampled(k, 0xFEED));
    let n = pristine.golden().rows() as usize;
    let x = campaign_vector(n);
    let mut y_clean = vec![0.0f32; n];
    let mut base = pristine.clone();
    base.execute_into(&x, &mut y_clean).unwrap();
    assert!(base.health().is_clean());
    // The draw names exactly `k` distinct rows, and each is verified.
    let drawn = base.health().rows_verified;
    assert_eq!(drawn as usize, k);
    let mut y_csr = vec![0.0f32; n];
    pristine.golden().spmv(&x, &mut y_csr).unwrap();

    let mut healed = 0;
    for seed in 0..64u64 {
        let spec = FaultSpec {
            encoding_flips: (seed % 2) as u32,
            value_flips: 1 - (seed % 2) as u32,
            ..FaultSpec::default()
        };
        let mut p = pristine.clone();
        p.plan
            .arm_faults(FaultPlan::seeded(seed, &spec, p.plan.n_instances()));
        let mut y = vec![0.0f32; n];
        p.execute_into(&x, &mut y).unwrap();
        let health = p.health();
        assert_eq!(health.rows_verified, drawn, "seed {seed}");
        assert!(
            !health.fallback,
            "seed {seed}: a transient fault forced the fallback"
        );
        if health.tile_rows_quarantined > 0 {
            assert_eq!(health.tile_rows_quarantined, 1, "seed {seed}");
            assert_eq!(health.tile_rows_corrected, 1, "seed {seed}");
            assert_eq!(bits(&y), bits(&y_clean), "seed {seed}: healed bits");
            healed += 1;
        }
    }
    assert!(healed > 0, "no transient fault reached a drawn row");

    // This seed's draw puts one row on VALU lane 0: row 536, whose five
    // columns (32, 45, 58, 71, 84) all read x = 0. A stuck-at-zero lane 0
    // therefore leaves every drawn row as it was, and the sampled contract
    // does not see it: the faulted output is served, clean-flagged.
    for seed in 0..8u64 {
        let spec = FaultSpec {
            lane_faults: 1,
            ..FaultSpec::default()
        };
        let faults = FaultPlan::seeded(seed, &spec, pristine.plan.n_instances());
        let [Fault::LaneStuckZero { lane }] = *faults.faults() else {
            panic!("seed {seed}: not one lane fault");
        };
        let mut p = pristine.clone();
        p.plan.arm_faults(faults);
        let mut y = vec![0.0f32; n];
        p.execute_into(&x, &mut y).unwrap();
        let health = p.health();
        if lane == 0 {
            let mut faulted = vec![0.0f32; n];
            p.plan.run(&x, &mut faulted).unwrap();
            assert!(health.is_clean(), "seed {seed}");
            assert_eq!(bits(&y), bits(&faulted), "seed {seed}: served bits");
            assert_ne!(bits(&y), bits(&y_clean), "seed {seed}: the fault is real");
            continue;
        }
        assert!(health.tile_rows_uncorrected > 0, "seed {seed}");
        assert!(
            health.fallback,
            "seed {seed}: sampled policy missed a stuck lane"
        );
        assert_eq!(bits(&y), bits(&y_csr), "seed {seed}: golden bits");
    }
}
