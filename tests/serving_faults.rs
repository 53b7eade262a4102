//! Fault isolation in coalesced serving: a poisoned vector inside a
//! coalesced batch — of one policy or of mixed policies — degrades
//! (golden-CSR fallback) or, with fallback disabled, fails only its own
//! request; sibling requests in the same batch stay pristine and
//! bit-identical to an unfaulted run. A worker panic is contained at the batch boundary
//! (retried once, bit-identical; a second panic fails the batch typed),
//! and a persistently faulty plan walks the full circuit-breaker cycle:
//! trip → quarantined golden serving → half-open probe → recovery.
//!
//! Requires `--features fault-injection`; registered in `crates/serve`
//! with `required-features` so plain `cargo test` skips it.

use spasm::hw::fault::{FaultPlan, FaultSpec};
use spasm::hw::HwConfig;
use spasm::sparse::{Coo, SpMv};
use spasm::{IntegrityPolicy, Pipeline, PipelineError, PipelineOptions};
use spasm_patterns::TemplateSet;
use spasm_serve::loadgen::seeded_x;
use spasm_serve::{BreakerConfig, BreakerState, QueueConfig, ServeError, ServerConfig, SpmvServer};

/// A 300×300 scattered matrix spanning two 256-row tile rows under the
/// pinned schedule, 5 entries per row.
fn matrix() -> Coo {
    let n = 300u32;
    let mut t = Vec::new();
    for i in 0..n {
        for k in 0..5u32 {
            let j = (i * 37 + k * 13) % n;
            t.push((i, j, ((i + k) % 9 + 1) as f32 * 0.5));
        }
    }
    Coo::from_triplets(n, n, t).expect("valid triplets")
}

fn pinned_pipeline() -> Pipeline {
    Pipeline::with_options(
        PipelineOptions::default()
            .fixed_portfolio(TemplateSet::table_v_set(0))
            .fixed_schedule(256, HwConfig::spasm_4_1()),
    )
}

fn bits(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn poisoned_vector_degrades_only_its_own_request() {
    let m = matrix();
    let n = m.cols() as usize;
    let xs: Vec<Vec<f32>> = (0..3).map(|k| seeded_x(n, 100 + k)).collect();
    let policy = IntegrityPolicy::full();

    // Oracles from an identical pinned pipeline: the clean accelerator
    // bits per vector, and the golden CSR bits the fallback must produce.
    let mut oracle = pinned_pipeline().prepare(&m).expect("prepare oracle");
    let clean: Vec<Vec<u32>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0f32; n];
            oracle.execute(x, &mut y).expect("oracle execute");
            bits(&y)
        })
        .collect();
    let mut y_csr = vec![0.0f32; n];
    oracle.golden().spmv(&xs[1], &mut y_csr).expect("csr spmv");

    // Coalesce all three requests into one size-triggered batch, arming a
    // persistent all-lane fault for batch vector 1 before the flush.
    let server = SpmvServer::with_pipeline(
        ServerConfig {
            queue: QueueConfig {
                max_batch: 3,
                max_delay: 1_000,
                ..QueueConfig::default()
            },
            workers: 2,
            ..ServerConfig::default()
        },
        pinned_pipeline(),
    );
    let fp = server.ingest_coo(&m).expect("ingest");
    let (id0, c) = server.submit(fp, xs[0].clone(), policy).expect("submit");
    assert!(c.is_empty());
    let (id1, c) = server.submit(fp, xs[1].clone(), policy).expect("submit");
    assert!(c.is_empty());
    server
        .with_prepared(fp, |p| {
            let spec = FaultSpec {
                lane_faults: 4,
                ..FaultSpec::default()
            };
            p.plan
                .arm_faults_for_vector(FaultPlan::seeded(9, &spec, p.plan.n_instances()), 1);
        })
        .expect("plan resident");
    let (id2, done) = server.submit(fp, xs[2].clone(), policy).expect("submit");

    assert_eq!(
        done.iter().map(|c| c.id).collect::<Vec<_>>(),
        vec![id0, id1, id2],
        "all three coalesced into the size-triggered batch"
    );
    for c in &done {
        let out = c.result.as_ref().expect("every request serves");
        assert_eq!(out.batch_size, 3);
        let vector = (c.id - id0) as usize;
        if c.id == id1 {
            // The poisoned vector: a persistent all-lane fault survives
            // the retry ladder, so under the Full policy it must take the
            // golden CSR fallback — and say so.
            assert!(out.health.fallback, "vector 1 must fall back");
            assert!(out.health.needs_fallback());
            assert!(out.health.faults_injected > 0);
            assert_eq!(bits(&out.y), bits(&y_csr), "fallback bits");
        } else {
            // Siblings in the same batch: untouched, bit-clean.
            assert!(
                out.health.is_clean(),
                "vector {vector} dirtied: {:?}",
                out.health
            );
            assert_eq!(bits(&out.y), clean[vector], "vector {vector} bits");
        }
    }

    // Disarm the campaign: the next batch over the same cached plan is
    // clean again for every vector.
    server
        .with_prepared(fp, |p| p.plan.disarm_faults())
        .expect("plan resident");
    let (_, c0) = server.submit(fp, xs[0].clone(), policy).expect("submit");
    assert!(c0.is_empty());
    let (_, c1) = server.submit(fp, xs[1].clone(), policy).expect("submit");
    assert!(c1.is_empty());
    let (_, redo) = server.submit(fp, xs[2].clone(), policy).expect("submit");
    assert_eq!(redo.len(), 3);
    for (k, c) in redo.iter().enumerate() {
        let out = c.result.as_ref().expect("serves clean");
        assert!(out.health.is_clean(), "vector {k} after disarm");
        assert_eq!(bits(&out.y), clean[k], "vector {k} bits after disarm");
    }
}

/// Serves one batch of `policies.len()` requests against a fresh pinned
/// server, with `spec`'s faults armed for batch vector `target` before
/// the flush. Returns the completions in id order.
fn serve_faulted_batch(
    m: &Coo,
    xs: &[Vec<f32>],
    policies: &[IntegrityPolicy],
    spec: &FaultSpec,
    target: usize,
) -> Vec<spasm_serve::Completion> {
    let server = SpmvServer::with_pipeline(
        ServerConfig {
            queue: QueueConfig {
                max_batch: 8,
                max_delay: 1_000,
                ..QueueConfig::default()
            },
            ..ServerConfig::default()
        },
        pinned_pipeline(),
    );
    let fp = server.ingest_coo(m).expect("ingest");
    server
        .with_prepared(fp, |p| {
            p.plan
                .arm_faults_for_vector(FaultPlan::seeded(9, spec, p.plan.n_instances()), target);
        })
        .expect("plan resident");
    for (x, &policy) in xs.iter().zip(policies) {
        let (_, c) = server.submit(fp, x.clone(), policy).expect("submit");
        assert!(c.is_empty(), "no policy class fills a batch");
    }
    let done = server.drain();
    assert_eq!(done.len(), policies.len());
    assert_eq!(server.batch_log().len(), 1, "every policy in one batch");
    done
}

/// A targeted fault on the `full()` lane of a mixed-policy batch heals
/// (transient stream flips) or falls back to the golden CSR (persistent
/// lane faults) alone; the `off()` and `sampled` siblings sharing the
/// executor pass match an unfaulted run bit for bit.
#[test]
fn faulted_full_lane_of_a_mixed_batch_heals_or_falls_back_alone() {
    let m = matrix();
    let n = m.cols() as usize;
    let xs: Vec<Vec<f32>> = (0..4).map(|k| seeded_x(n, 400 + k)).collect();
    let policies = [
        IntegrityPolicy::off(),
        IntegrityPolicy::full(),
        IntegrityPolicy::off(),
        IntegrityPolicy::sampled(16, 3),
    ];
    let mut oracle = pinned_pipeline().prepare(&m).expect("prepare oracle");
    let clean: Vec<Vec<u32>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0f32; n];
            oracle.execute(x, &mut y).expect("oracle execute");
            bits(&y)
        })
        .collect();
    let mut y_csr = vec![0.0f32; n];
    oracle.golden().spmv(&xs[1], &mut y_csr).expect("csr spmv");

    let persistent = FaultSpec {
        lane_faults: 4,
        ..FaultSpec::default()
    };
    let transient = FaultSpec {
        encoding_flips: 3,
        value_flips: 3,
        ..FaultSpec::default()
    };
    for (spec, falls_back) in [(persistent, true), (transient, false)] {
        let done = serve_faulted_batch(&m, &xs, &policies, &spec, 1);
        for (k, c) in done.iter().enumerate() {
            let out = c.result.as_ref().expect("every request serves");
            assert_eq!(out.batch_size, policies.len());
            if k == 1 {
                assert!(out.health.faults_injected > 0, "the full lane was struck");
                assert_eq!(out.health.fallback, falls_back, "{:?}", out.health);
                if falls_back {
                    assert_eq!(bits(&out.y), bits(&y_csr), "fallback bits");
                } else {
                    assert!(out.health.tile_rows_quarantined > 0, "{:?}", out.health);
                    assert_eq!(
                        out.health.tile_rows_corrected,
                        out.health.tile_rows_quarantined
                    );
                    assert_eq!(bits(&out.y), clean[1], "healed bits");
                }
            } else {
                assert!(out.health.is_clean(), "vector {k}: {:?}", out.health);
                assert_eq!(out.health.faults_injected, 0, "vector {k} struck");
                assert_eq!(bits(&out.y), clean[k], "vector {k} bits");
            }
        }
    }
}

/// With fallback disabled, a lane corrupted beyond repair fails only its
/// own request with a typed integrity error; every sibling in the batch
/// — unverified, sampled or fully verified — is still served bit-clean.
#[test]
fn unrepairable_lane_without_fallback_fails_only_its_own_request() {
    let m = matrix();
    let n = m.cols() as usize;
    let xs: Vec<Vec<f32>> = (0..4).map(|k| seeded_x(n, 500 + k)).collect();
    let policies = [
        IntegrityPolicy::off(),
        IntegrityPolicy::full(),
        IntegrityPolicy::full().with_fallback(false),
        IntegrityPolicy::sampled(16, 5),
    ];
    let mut oracle = pinned_pipeline().prepare(&m).expect("prepare oracle");
    let clean: Vec<Vec<u32>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0f32; n];
            oracle.execute(x, &mut y).expect("oracle execute");
            bits(&y)
        })
        .collect();
    let spec = FaultSpec {
        lane_faults: 4,
        ..FaultSpec::default()
    };
    let done = serve_faulted_batch(&m, &xs, &policies, &spec, 2);
    for (k, c) in done.iter().enumerate() {
        if k == 2 {
            assert!(
                matches!(
                    c.result,
                    Err(ServeError::Pipeline(PipelineError::Integrity { .. }))
                ),
                "the unrepairable lane fails typed, got {:?}",
                c.result.as_ref().map(|o| o.health)
            );
        } else {
            let out = c.result.as_ref().expect("siblings still serve");
            assert!(out.health.is_clean(), "vector {k}: {:?}", out.health);
            assert_eq!(bits(&out.y), clean[k], "vector {k} bits");
        }
    }
}

/// A worker panic is contained at the batch boundary: the batch is
/// retried exactly once and (since re-execution is pure and the panicked
/// attempt completed nothing) the retried results are bit-identical to
/// an undisturbed run. A batch that panics twice fails with a typed
/// [`ServeError::Panicked`] per member — and the server keeps serving.
#[test]
fn worker_panic_retries_once_then_fails_typed() {
    let m = matrix();
    let n = m.cols() as usize;
    let xs: Vec<Vec<f32>> = (0..3).map(|k| seeded_x(n, 200 + k)).collect();
    let policy = IntegrityPolicy::off();

    let mut oracle = pinned_pipeline().prepare(&m).expect("prepare oracle");
    let clean: Vec<Vec<u32>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0f32; n];
            oracle.execute(x, &mut y).expect("oracle execute");
            bits(&y)
        })
        .collect();

    let server = SpmvServer::with_pipeline(
        ServerConfig {
            queue: QueueConfig {
                max_batch: 3,
                max_delay: 1_000,
                ..QueueConfig::default()
            },
            workers: 2,
            ..ServerConfig::default()
        },
        pinned_pipeline(),
    );
    let fp = server.ingest_coo(&m).expect("ingest");
    let submit_three = |tag: u32| {
        let mut done = Vec::new();
        for x in &xs {
            let (_, c) = server.submit(fp, x.clone(), policy).expect("submit");
            done.extend(c);
        }
        assert_eq!(done.len(), 3, "round {tag}: size flush on the third submit");
        done
    };

    // Round 1: the first execution attempt panics; the serial retry pass
    // re-runs the batch and every request serves, bit-clean.
    server.arm_worker_panic(fp, 1);
    let done = submit_three(1);
    for (k, c) in done.iter().enumerate() {
        let out = c.result.as_ref().expect("retried batch serves");
        assert!(!out.degraded);
        assert_eq!(bits(&out.y), clean[k], "vector {k} retried bits");
    }
    let stats = server.overload_stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.retried_requests, 3);
    assert_eq!(stats.abandoned_requests, 0);

    // Round 2: both the attempt and its retry panic; the batch is
    // abandoned with a typed error per member, never silently dropped.
    server.arm_worker_panic(fp, 2);
    let done = submit_three(2);
    for c in &done {
        assert!(
            matches!(c.result, Err(ServeError::Panicked)),
            "expected Panicked, got {:?}",
            c.result.as_ref().map(|_| "ok")
        );
    }
    let stats = server.overload_stats();
    assert_eq!(stats.worker_panics, 3, "1 from round 1, 2 from round 2");
    assert_eq!(stats.retried_requests, 6);
    assert_eq!(stats.abandoned_requests, 3);

    // The panic never poisons the server: the next round serves clean.
    let done = submit_three(3);
    for (k, c) in done.iter().enumerate() {
        let out = c.result.as_ref().expect("server still serves");
        assert_eq!(bits(&out.y), clean[k], "vector {k} bits after panics");
    }
}

/// A plan with a persistent fault walks the whole breaker cycle: enough
/// golden fallbacks trip it into quarantine; quarantined batches serve
/// straight from the golden CSR (degraded, bit-exact, no ladder cost);
/// after the cooldown a half-open probe runs the accelerator path and a
/// clean probe re-admits the healed plan.
#[test]
fn persistent_faults_trip_quarantine_and_a_clean_probe_recovers() {
    let m = matrix();
    let n = m.cols() as usize;
    let xs: Vec<Vec<f32>> = (0..2).map(|k| seeded_x(n, 300 + k)).collect();
    let policy = IntegrityPolicy::full();

    let mut oracle = pinned_pipeline().prepare(&m).expect("prepare oracle");
    let clean: Vec<Vec<u32>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0f32; n];
            oracle.execute(x, &mut y).expect("oracle execute");
            bits(&y)
        })
        .collect();
    let golden: Vec<Vec<u32>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0f32; n];
            oracle.golden().spmv(x, &mut y).expect("csr spmv");
            bits(&y)
        })
        .collect();

    let server = SpmvServer::with_pipeline(
        ServerConfig {
            queue: QueueConfig {
                max_batch: 2,
                max_delay: 1_000,
                ..QueueConfig::default()
            },
            breaker: BreakerConfig {
                window: 4,
                trip_failures: 2,
                cooldown: 100,
                probe_jitter: 0,
                seed: 0,
            },
            workers: 2,
            ..ServerConfig::default()
        },
        pinned_pipeline(),
    );
    let fp = server.ingest_coo(&m).expect("ingest");
    let breaker_state = || {
        server
            .catalog()
            .get(&fp)
            .expect("plan resident")
            .breaker_state()
    };
    let submit_pair = || {
        let (_, c) = server.submit(fp, xs[0].clone(), policy).expect("submit");
        assert!(c.is_empty());
        let (_, done) = server.submit(fp, xs[1].clone(), policy).expect("submit");
        assert_eq!(done.len(), 2, "size flush on the second submit");
        done
    };

    // Persistent all-lane faults on every vector: under the Full policy
    // each vector survives only via the golden fallback — two failures
    // in a window of four trip the breaker on the first batch.
    server
        .with_prepared(fp, |p| {
            let spec = FaultSpec {
                lane_faults: 4,
                ..FaultSpec::default()
            };
            p.plan
                .arm_faults(FaultPlan::seeded(9, &spec, p.plan.n_instances()));
        })
        .expect("plan resident");
    let done = submit_pair();
    for (k, c) in done.iter().enumerate() {
        let out = c.result.as_ref().expect("ladder fallback serves");
        assert!(out.health.fallback, "vector {k} must fall back");
        assert!(!out.degraded, "ladder fallback is not quarantine");
        assert_eq!(bits(&out.y), golden[k], "vector {k} fallback bits");
    }
    assert_eq!(breaker_state(), BreakerState::Quarantined { until: 100 });
    assert_eq!(server.overload_stats().quarantine_trips, 1);

    // Quarantined: batches route straight to the golden CSR — degraded
    // and flagged as such, still bit-exact, and the sliding window is
    // untouched (golden serves say nothing about the accelerator).
    let done = submit_pair();
    for (k, c) in done.iter().enumerate() {
        let out = c.result.as_ref().expect("golden route serves");
        assert!(out.degraded, "vector {k} must be flagged degraded");
        assert!(out.health.fallback);
        assert_eq!(bits(&out.y), golden[k], "vector {k} golden bits");
    }
    assert_eq!(server.overload_stats().served_degraded, 2);
    assert_eq!(breaker_state(), BreakerState::Quarantined { until: 100 });

    // Heal the plan, wait out the cooldown: the next batch is the
    // half-open probe on the accelerator path; a clean probe re-admits.
    server
        .with_prepared(fp, |p| p.plan.disarm_faults())
        .expect("plan resident");
    server.clock().advance_to(100);
    let done = submit_pair();
    for (k, c) in done.iter().enumerate() {
        let out = c.result.as_ref().expect("probe serves");
        assert!(!out.degraded, "probe runs the accelerator path");
        assert!(out.health.is_clean(), "vector {k} probe: {:?}", out.health);
        assert_eq!(bits(&out.y), clean[k], "vector {k} probe bits");
    }
    let stats = server.overload_stats();
    assert_eq!(stats.quarantine_recoveries, 1);
    assert_eq!(stats.quarantine_trips, 1, "no re-trip");
    assert_eq!(breaker_state(), BreakerState::Healthy);

    // Recovered: back on the plain accelerator path, clean and
    // undegraded.
    let done = submit_pair();
    for (k, c) in done.iter().enumerate() {
        let out = c.result.as_ref().expect("healthy serves");
        assert!(!out.degraded);
        assert!(out.health.is_clean());
        assert_eq!(bits(&out.y), clean[k], "vector {k} healed bits");
    }
    assert_eq!(breaker_state(), BreakerState::Healthy);
}
