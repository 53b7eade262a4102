//! Serving determinism: coalesced batch compositions are an exact
//! function of the arrival trace and virtual-clock schedule, and every
//! served result is bit-identical to a serial batch-1
//! `Prepared::execute` of the same request — for any worker count. The
//! same holds for every *overload* decision (typed rejections, deadline
//! sheds, quarantine transitions): the degradation story of a trace is
//! deterministic too.
//!
//! Registered in `crates/serve` (`[[test]] name = "serving"`).

use std::collections::BTreeMap;

use spasm::{DeltaOutcome, IntegrityPolicy, Pipeline, PipelineOptions, Prepared};
use spasm_format::MatrixFingerprint;
use spasm_hw::HwConfig;
use spasm_patterns::TemplateSet;
use spasm_serve::loadgen::{seeded_x, TraceEvent, TraceGen};
use spasm_serve::{
    BatchRecord, BreakerState, Completion, Deadline, FlushTrigger, Output, QueueConfig, Rejected,
    ServeError, ServerConfig, SpmvServer, Tick,
};
use spasm_sparse::Coo;
use spasm_workloads::{changesets, ChangesetConfig};

/// An `n`×`n` scattered matrix, a few entries per row, `salt`-dependent
/// structure and values so distinct salts give distinct streams.
fn scatter(n: u32, per_row: u32, salt: u32) -> Coo {
    let mut t = Vec::new();
    for i in 0..n {
        for k in 0..per_row {
            let j = (i * 37 + k * 13 + salt) % n;
            t.push((i, j, ((i + k + salt) % 9 + 1) as f32 * 0.5));
        }
    }
    Coo::from_triplets(n, n, t).expect("valid triplets")
}

/// A pinned pipeline (fixed portfolio + schedule) so prepares are cheap
/// and every server/oracle in this file runs the identical plan.
fn pinned_pipeline() -> Pipeline {
    Pipeline::with_options(
        PipelineOptions::default()
            .fixed_portfolio(TemplateSet::table_v_set(0))
            .fixed_schedule(256, HwConfig::spasm_4_1()),
    )
}

fn server(max_batch: usize, max_delay: Tick, workers: usize) -> SpmvServer {
    SpmvServer::with_pipeline(
        ServerConfig {
            queue: QueueConfig {
                max_batch,
                max_delay,
                ..QueueConfig::default()
            },
            workers,
            ..ServerConfig::default()
        },
        pinned_pipeline(),
    )
}

fn bits(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| v.to_bits()).collect()
}

fn absorb(outputs: &mut BTreeMap<u64, Output>, completions: Vec<Completion>) {
    for c in completions {
        let out = c.result.expect("request must serve cleanly");
        assert!(outputs.insert(c.id, out).is_none(), "duplicate completion");
    }
}

#[test]
fn handcrafted_trace_flushes_exact_batches() {
    // max_batch 3, max_delay 10 ticks; trace:
    //   t=0 A, t=1 A, t=2 B, t=3 A  -> size-flush A = [0, 1, 3] at t=3
    //   t=4 B                       -> deadline-flush B = [2, 4] at t=12
    let s = server(3, 10, 1);
    let ma = scatter(96, 4, 0);
    let mb = scatter(80, 4, 5);
    let a = s.ingest_coo(&ma).expect("ingest A");
    let b = s.ingest_coo(&mb).expect("ingest B");
    let off = IntegrityPolicy::off();
    let xa = |seed| seeded_x(96, seed);
    let xb = |seed| seeded_x(80, seed);

    let (id0, c) = s.submit(a, xa(0), off).expect("submit");
    assert!(c.is_empty());
    assert!(s.advance_to(1).is_empty());
    let (id1, c) = s.submit(a, xa(1), off).expect("submit");
    assert!(c.is_empty());
    assert!(s.advance_to(2).is_empty());
    let (id2, c) = s.submit(b, xb(2), off).expect("submit");
    assert!(c.is_empty());
    assert!(s.advance_to(3).is_empty());
    let (id3, sized) = s.submit(a, xa(3), off).expect("submit");

    // The third A fills the group: flushed right on the submit, at t=3.
    assert_eq!(
        sized.iter().map(|c| c.id).collect::<Vec<_>>(),
        vec![id0, id1, id3]
    );
    let mut outputs = BTreeMap::new();
    absorb(&mut outputs, sized);
    for (id, queued) in [(id0, 3u64), (id1, 2), (id3, 0)] {
        let out = &outputs[&id];
        assert_eq!(out.trigger, FlushTrigger::Size);
        assert_eq!(out.flushed_at, 3);
        assert_eq!(out.queued_ticks, queued);
        assert_eq!(out.batch_size, 3);
    }

    assert!(s.advance_to(4).is_empty());
    let (id4, c) = s.submit(b, xb(4), off).expect("submit");
    assert!(c.is_empty());
    assert_eq!(s.pending(), 2);
    assert_eq!(s.next_deadline(), Some(12), "B's oldest arrived at t=2");

    // Advancing far past the deadline still stamps the flush *at* t=12.
    let late = s.advance_to(40);
    assert_eq!(
        late.iter().map(|c| c.id).collect::<Vec<_>>(),
        vec![id2, id4]
    );
    absorb(&mut outputs, late);
    for (id, queued) in [(id2, 10u64), (id4, 8)] {
        let out = &outputs[&id];
        assert_eq!(out.trigger, FlushTrigger::Deadline);
        assert_eq!(out.flushed_at, 12);
        assert_eq!(out.queued_ticks, queued);
        assert_eq!(out.batch_size, 2);
    }
    assert_eq!(s.pending(), 0);

    // The batch log is the exact composition record.
    assert_eq!(
        s.batch_log(),
        vec![
            BatchRecord {
                fingerprint: a,
                request_ids: vec![id0, id1, id3],
                flushed_at: 3,
                trigger: FlushTrigger::Size,
            },
            BatchRecord {
                fingerprint: b,
                request_ids: vec![id2, id4],
                flushed_at: 12,
                trigger: FlushTrigger::Deadline,
            },
        ]
    );

    // And every served vector is bit-identical to a serial batch-1 run.
    let mut oa = pinned_pipeline().prepare(&ma).expect("prepare A");
    let mut ob = pinned_pipeline().prepare(&mb).expect("prepare B");
    let oracle = |p: &mut Prepared, x: &[f32]| {
        let mut y = vec![0.0f32; p.plan.rows() as usize];
        p.execute(x, &mut y).expect("oracle execute");
        y
    };
    assert_eq!(bits(&outputs[&id0].y), bits(&oracle(&mut oa, &xa(0))));
    assert_eq!(bits(&outputs[&id1].y), bits(&oracle(&mut oa, &xa(1))));
    assert_eq!(bits(&outputs[&id3].y), bits(&oracle(&mut oa, &xa(3))));
    assert_eq!(bits(&outputs[&id2].y), bits(&oracle(&mut ob, &xb(2))));
    assert_eq!(bits(&outputs[&id4].y), bits(&oracle(&mut ob, &xb(4))));
}

/// Replays `events` against a fresh server with `workers` execution
/// threads; returns the batch log and the per-request outputs. Request
/// ids are assigned in submission order, so id `i` serves `events[i]`.
fn serve_trace(
    workers: usize,
    events: &[TraceEvent],
    corpus: &[Coo],
    policy: IntegrityPolicy,
) -> (Vec<BatchRecord>, BTreeMap<u64, Output>) {
    let s = server(3, 25, workers);
    let fps: Vec<_> = corpus
        .iter()
        .map(|m| (s.ingest_coo(m).expect("ingest"), m.cols() as usize))
        .collect();
    let mut outputs = BTreeMap::new();
    for e in events {
        while let Some(d) = s.next_deadline().filter(|&d| d <= e.at) {
            absorb(&mut outputs, s.advance_to(d));
        }
        s.clock().advance_to(e.at);
        let (fp, cols) = fps[e.matrix];
        let (_, done) = s
            .submit(fp, seeded_x(cols, e.x_seed), policy)
            .expect("submit");
        absorb(&mut outputs, done);
    }
    while let Some(d) = s.next_deadline() {
        absorb(&mut outputs, s.advance_to(d));
    }
    absorb(&mut outputs, s.drain());
    (s.batch_log(), outputs)
}

#[test]
fn seeded_trace_is_bit_identical_for_any_worker_count() {
    let corpus = [scatter(96, 4, 0), scatter(80, 4, 5), scatter(120, 3, 11)];
    let events: Vec<TraceEvent> = TraceGen::new(0xC0FFEE, corpus.len(), 1.0, 7)
        .take(48)
        .collect();

    // Serial batch-1 oracle: one prepared plan per matrix, one
    // single-vector execute per request, zeroed destination.
    let mut oracles: Vec<Prepared> = corpus
        .iter()
        .map(|m| pinned_pipeline().prepare(m).expect("prepare"))
        .collect();
    let expected: Vec<Vec<u32>> = events
        .iter()
        .map(|e| {
            let p = &mut oracles[e.matrix];
            let x = seeded_x(corpus[e.matrix].cols() as usize, e.x_seed);
            let mut y = vec![0.0f32; p.plan.rows() as usize];
            p.execute(&x, &mut y).expect("oracle execute");
            bits(&y)
        })
        .collect();

    let (log1, out1) = serve_trace(1, &events, &corpus, IntegrityPolicy::off());
    assert_eq!(out1.len(), events.len(), "every request completes");
    let mut coalesced = 0usize;
    for i in 0..events.len() {
        let out = &out1[&(i as u64)];
        assert_eq!(bits(&out.y), expected[i], "request {i} bits");
        if out.batch_size > 1 {
            coalesced += 1;
        }
    }
    assert!(coalesced > 0, "trace never coalesced; tune the trace");
    assert!(
        log1.iter().any(|r| r.trigger == FlushTrigger::Size),
        "no size flush in trace"
    );
    assert!(
        log1.iter().any(|r| r.trigger == FlushTrigger::Deadline),
        "no deadline flush in trace"
    );

    // Worker threads may change execution concurrency, never batch
    // composition or a single output bit.
    for workers in [2usize, 7] {
        let (log, out) = serve_trace(workers, &events, &corpus, IntegrityPolicy::off());
        assert_eq!(log, log1, "batch log differs with {workers} workers");
        assert_eq!(out.len(), out1.len());
        for (id, o1) in &out1 {
            let o = &out[id];
            assert_eq!(bits(&o.y), bits(&o1.y), "id {id}, {workers} workers");
            assert_eq!(o.batch_size, o1.batch_size);
            assert_eq!(o.flushed_at, o1.flushed_at);
            assert_eq!(o.trigger, o1.trigger);
        }
    }

    // Same seed + same virtual-clock schedule -> same compositions,
    // every run.
    let (log_again, _) = serve_trace(1, &events, &corpus, IntegrityPolicy::off());
    assert_eq!(log_again, log1);
}

/// The outcome of the handcrafted overload trace for one worker count:
/// batch log, served outputs, and the typed refusals, keyed by id.
struct OverloadRun {
    log: Vec<BatchRecord>,
    served: BTreeMap<u64, Output>,
    shed: BTreeMap<u64, Rejected>,
    rejected: BTreeMap<u64, Rejected>,
    stats: spasm_serve::OverloadStats,
    breaker_states: Vec<BreakerState>,
}

/// Replays the handcrafted overload trace with `workers` execution
/// threads. Bounded queue (3 requests globally), no rate limiter,
/// completion deadlines, a late-checking driver, and a shutdown —
/// every id's fate is decided by the trace alone.
fn overload_trace(workers: usize) -> OverloadRun {
    let ma = scatter(96, 4, 0);
    let mb = scatter(80, 4, 5);
    let s = SpmvServer::with_pipeline(
        ServerConfig {
            queue: QueueConfig {
                max_batch: 8,
                max_delay: 50,
                group_capacity: 8,
                global_capacity: 3,
                rate: None,
            },
            workers,
            ..ServerConfig::default()
        },
        pinned_pipeline(),
    );
    let a = s.ingest_coo(&ma).expect("ingest A");
    let b = s.ingest_coo(&mb).expect("ingest B");
    let off = IntegrityPolicy::off();
    let xa = |seed| seeded_x(96, seed);
    let xb = |seed| seeded_x(80, seed);

    let mut served = BTreeMap::new();
    let mut shed = BTreeMap::new();
    let mut rejected = BTreeMap::new();
    let mut next_id = 0u64;
    let mut take = |r: Result<(u64, Vec<Completion>), ServeError>,
                    served: &mut BTreeMap<u64, Output>,
                    shed: &mut BTreeMap<u64, Rejected>,
                    rejected: &mut BTreeMap<u64, Rejected>| {
        // Ids are allocated per submission, admitted or not, so id i is
        // always trace event i.
        let id = next_id;
        next_id += 1;
        match r {
            Ok((got, completions)) => {
                assert_eq!(got, id, "ids are allocated in submission order");
                for c in completions {
                    match c.result {
                        Ok(out) => assert!(served.insert(c.id, out).is_none()),
                        Err(ServeError::Rejected(rej)) => {
                            assert!(shed.insert(c.id, rej).is_none());
                        }
                        Err(e) => panic!("unexpected completion error: {e}"),
                    }
                }
            }
            Err(ServeError::Rejected(rej)) => {
                assert!(rejected.insert(id, rej).is_none());
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    };
    let absorb = |done: Vec<Completion>,
                  served: &mut BTreeMap<u64, Output>,
                  shed: &mut BTreeMap<u64, Rejected>| {
        for c in done {
            match c.result {
                Ok(out) => assert!(served.insert(c.id, out).is_none()),
                Err(ServeError::Rejected(rej)) => {
                    assert!(shed.insert(c.id, rej).is_none());
                }
                Err(e) => panic!("unexpected completion error: {e}"),
            }
        }
    };

    // t=0: id0 on A, no deadline (coalesce flush would be t=50).
    take(
        s.submit(a, xa(0), off),
        &mut served,
        &mut shed,
        &mut rejected,
    );
    // t=5: id1 on B, due at 30 -> B's urgent flush tick is 29.
    s.clock().advance_to(5);
    take(
        s.submit_with_deadline(b, xb(1), off, Deadline { at: 30 }),
        &mut served,
        &mut shed,
        &mut rejected,
    );
    // t=10: id2 on A, due at 20 -> A's urgent flush tick becomes 19.
    s.clock().advance_to(10);
    take(
        s.submit_with_deadline(a, xa(2), off, Deadline { at: 20 }),
        &mut served,
        &mut shed,
        &mut rejected,
    );
    // t=12: id3 on A -> the global queue (3) is full; the retry hint
    // points at the earliest pending flush (A at t=19).
    s.clock().advance_to(12);
    take(
        s.submit(a, xa(3), off),
        &mut served,
        &mut shed,
        &mut rejected,
    );
    // The driver checks in late, at t=25: A's batch flushes stamped at
    // its urgent tick 19, but id2 (due at 20) has really expired while
    // queued — it is shed, 5 ticks late; id0 still serves.
    absorb(s.advance_to(25), &mut served, &mut shed);
    // t=29: B's urgent flush, exactly at its last runnable tick.
    absorb(s.advance_to(29), &mut served, &mut shed);
    // t=35: id4 arrives already expired (due exactly at now).
    s.clock().advance_to(35);
    take(
        s.submit_with_deadline(a, xa(4), off, Deadline { at: 35 }),
        &mut served,
        &mut shed,
        &mut rejected,
    );
    // t=40: id5 on A, queued. t=45: graceful shutdown drains it.
    s.clock().advance_to(40);
    take(
        s.submit(a, xa(5), off),
        &mut served,
        &mut shed,
        &mut rejected,
    );
    s.clock().advance_to(45);
    absorb(s.shutdown(), &mut served, &mut shed);
    // t=45+: id6 is refused — the server is shutting down.
    take(
        s.submit(a, xa(6), off),
        &mut served,
        &mut shed,
        &mut rejected,
    );

    let breaker_states = [a, b]
        .iter()
        .map(|fp| s.catalog().get(fp).expect("plan resident").breaker_state())
        .collect();
    OverloadRun {
        log: s.batch_log(),
        served,
        shed,
        rejected,
        stats: s.overload_stats(),
        breaker_states,
    }
}

#[test]
fn overload_trace_has_exact_typed_fates_for_any_worker_count() {
    let ma = scatter(96, 4, 0);
    let mb = scatter(80, 4, 5);
    let run1 = overload_trace(1);

    // Exact fates: ids 0, 1, 5 serve; id2 is shed; ids 3, 4, 6 are
    // rejected at admission with typed reasons.
    assert_eq!(
        run1.served.keys().copied().collect::<Vec<_>>(),
        vec![0, 1, 5]
    );
    assert_eq!(run1.shed.len(), 1);
    assert_eq!(run1.shed[&2], Rejected::DeadlineExceeded { late_by: 5 });
    assert_eq!(run1.rejected.len(), 3);
    assert_eq!(run1.rejected[&3], Rejected::QueueFull { retry_after: 7 });
    assert_eq!(run1.rejected[&4], Rejected::DeadlineExceeded { late_by: 0 });
    assert_eq!(run1.rejected[&6], Rejected::ShuttingDown);

    // Exact flush ticks and triggers, shed members excluded from the log.
    let summary: Vec<(Vec<u64>, Tick, FlushTrigger)> = run1
        .log
        .iter()
        .map(|r| (r.request_ids.clone(), r.flushed_at, r.trigger))
        .collect();
    assert_eq!(
        summary,
        vec![
            (vec![0], 19, FlushTrigger::Urgent),
            (vec![1], 29, FlushTrigger::Urgent),
            (vec![5], 45, FlushTrigger::Drain),
        ]
    );
    assert_eq!(run1.served[&0].queued_ticks, 19);
    assert_eq!(run1.served[&1].queued_ticks, 24);
    assert_eq!(run1.served[&5].queued_ticks, 5);

    // The server's ledger agrees, and nothing was degraded or panicked;
    // the clean trace never touches the circuit breaker.
    assert_eq!(run1.stats.rejected_queue_full, 1);
    assert_eq!(run1.stats.rejected_expired, 1);
    assert_eq!(run1.stats.rejected_shutdown, 1);
    assert_eq!(run1.stats.rejected_rate_limited, 0);
    assert_eq!(run1.stats.shed_expired, 1);
    assert_eq!(run1.stats.quarantine_trips, 0);
    assert_eq!(run1.stats.quarantine_recoveries, 0);
    assert_eq!(run1.stats.served_degraded, 0);
    assert_eq!(run1.stats.worker_panics, 0);
    for state in &run1.breaker_states {
        assert_eq!(*state, BreakerState::Healthy);
    }
    for out in run1.served.values() {
        assert!(!out.degraded);
    }

    // Accepted outputs are bit-identical to a serial batch-1 oracle.
    let mut oa = pinned_pipeline().prepare(&ma).expect("prepare A");
    let mut ob = pinned_pipeline().prepare(&mb).expect("prepare B");
    let oracle = |p: &mut Prepared, x: &[f32]| {
        let mut y = vec![0.0f32; p.plan.rows() as usize];
        p.execute(x, &mut y).expect("oracle execute");
        bits(&y)
    };
    assert_eq!(bits(&run1.served[&0].y), oracle(&mut oa, &seeded_x(96, 0)));
    assert_eq!(bits(&run1.served[&1].y), oracle(&mut ob, &seeded_x(80, 1)));
    assert_eq!(bits(&run1.served[&5].y), oracle(&mut oa, &seeded_x(96, 5)));

    // Worker count changes nothing: not the fates, not the flush ticks,
    // not one output bit.
    for workers in [2usize, 7] {
        let run = overload_trace(workers);
        assert_eq!(run.log, run1.log, "{workers} workers: batch log");
        assert_eq!(run.shed, run1.shed, "{workers} workers: sheds");
        assert_eq!(run.rejected, run1.rejected, "{workers} workers: rejections");
        assert_eq!(run.stats, run1.stats, "{workers} workers: ledger");
        assert_eq!(
            run.served.keys().copied().collect::<Vec<_>>(),
            run1.served.keys().copied().collect::<Vec<_>>()
        );
        for (id, o1) in &run1.served {
            let o = &run.served[id];
            assert_eq!(bits(&o.y), bits(&o1.y), "id {id}, {workers} workers");
            assert_eq!(o.flushed_at, o1.flushed_at);
            assert_eq!(o.trigger, o1.trigger);
        }
    }
}

#[test]
fn full_integrity_policy_serves_clean_and_bit_identical() {
    let corpus = [scatter(96, 4, 0), scatter(80, 4, 5), scatter(120, 3, 11)];
    let events: Vec<TraceEvent> = TraceGen::new(0xBEEF, corpus.len(), 1.0, 9)
        .take(24)
        .collect();
    let (_, verified) = serve_trace(2, &events, &corpus, IntegrityPolicy::full());
    let (_, unchecked) = serve_trace(2, &events, &corpus, IntegrityPolicy::off());
    assert_eq!(verified.len(), events.len());
    for (id, v) in &verified {
        assert!(v.health.is_clean(), "id {id} not clean: {:?}", v.health);
        assert!(!v.health.fallback, "id {id} took fallback unfaulted");
        assert_eq!(
            bits(&v.y),
            bits(&unchecked[id].y),
            "id {id}: verification changed bits"
        );
    }
}

#[test]
fn delta_mid_flight_serves_old_version_then_new_without_evicting_leases() {
    use spasm::DeltaOutcome;
    use spasm_sparse::MatrixDelta;

    // scatter(96, 4, 0) row 0 holds entries at columns {0, 13, 26, 39}
    // (j = k·13 % 96) with value ((k) % 9 + 1)·0.5. The delta patches one,
    // deletes one, and inserts into an absent cell — exercising the
    // structural splice path through the serving stack.
    let base = scatter(96, 4, 0);
    let delta = MatrixDelta::new()
        .patch(0, 0, 2.5)
        .delete(0, 13)
        .insert(0, 1, 1.75);
    let mutated = {
        let mut t: Vec<(u32, u32, f32)> = base
            .iter()
            .filter(|&(r, c, _)| !(r == 0 && c == 13))
            .map(|(r, c, v)| {
                if (r, c) == (0, 0) {
                    (r, c, 2.5)
                } else {
                    (r, c, v)
                }
            })
            .collect();
        t.push((0, 1, 1.75));
        Coo::from_triplets(96, 96, t).expect("mutated triplets")
    };

    // Serial baselines on both sides of the update.
    let mut old_oracle = pinned_pipeline().prepare(&base).expect("prepare base");
    let mut new_oracle = pinned_pipeline()
        .prepare(&mutated)
        .expect("prepare mutated");
    let x = seeded_x(96, 0xFEED);
    let oracle = |p: &mut Prepared| {
        let mut y = vec![0.0f32; 96];
        p.execute(&x, &mut y).expect("oracle execute");
        bits(&y)
    };
    let old_bits = oracle(&mut old_oracle);
    let new_bits = oracle(&mut new_oracle);
    assert_ne!(old_bits, new_bits, "delta must be observable in row 0");

    let s = server(2, 10, 1);
    let fp = s.ingest_coo(&base).expect("ingest");
    let off = IntegrityPolicy::off();
    let prepares_before = s.catalog().prepares_performed();

    // Hold a lease across the update: repricing must not evict it.
    let lease = s.catalog().get(&fp).expect("resident");

    // A batch already executing when the delta lands finishes on the old
    // values: execution holds the plan lock, so the delta waits for it.
    // The channel guarantees the batch really is in flight before the
    // delta is submitted.
    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    let (new_fp, outcome, inflight) = std::thread::scope(|scope| {
        let inflight = scope.spawn(|| {
            s.with_prepared(fp, |p| {
                started_tx.send(()).expect("signal");
                std::thread::sleep(std::time::Duration::from_millis(20));
                let mut y = vec![0.0f32; 96];
                p.execute(&x, &mut y).expect("in-flight execute");
                y
            })
            .expect("plan resident")
        });
        started_rx.recv().expect("in-flight batch started");
        let (new_fp, outcome) = s.apply_delta(&fp, &delta).expect("apply delta");
        (new_fp, outcome, inflight.join().expect("in-flight thread"))
    });
    assert_eq!(
        bits(&inflight),
        old_bits,
        "the in-flight batch must serve the pre-delta values"
    );
    assert!(
        matches!(outcome, DeltaOutcome::Spliced { .. }),
        "three touched submatrices must splice, got {outcome:?}"
    );

    // The catalog re-keyed the entry to the mutated content address and
    // repriced it in place: no eviction, no re-prepare, and the old lease
    // still reaches the (updated) plan.
    assert_ne!(new_fp.token(), fp.token(), "content address must advance");
    assert!(s.catalog().get(&new_fp).is_some(), "new key resident");
    assert!(s.catalog().get(&fp).is_none(), "old key retired");
    assert_eq!(
        s.catalog().prepares_performed(),
        prepares_before,
        "an in-place delta must not re-run the pipeline"
    );
    assert_eq!(
        s.catalog().resident_bytes(),
        lease.entry().bytes(),
        "the residency ledger must carry the repriced figure"
    );
    assert_eq!(lease.entry().fingerprint().token(), new_fp.token());
    assert_eq!(lease.entry().breaker_state(), BreakerState::Healthy);

    // Submitting under the retired key is a typed refusal...
    assert!(matches!(
        s.submit(fp, x.clone(), off),
        Err(ServeError::UnknownMatrix(_))
    ));

    // ...and the next flush under the new key serves the new values, bit
    // for bit against the from-scratch baseline.
    let (id, done) = s.submit(new_fp, x.clone(), off).expect("submit post-delta");
    assert!(done.is_empty());
    let mut outputs = BTreeMap::new();
    let deadline = s.next_deadline().expect("queued request has a deadline");
    absorb(&mut outputs, s.advance_to(deadline));
    assert_eq!(
        bits(&outputs[&id].y),
        new_bits,
        "post-delta flush must serve the updated matrix"
    );
}

#[test]
fn wire_ingest_skips_resident_plans_and_maps_v3_without_preparing() {
    let m = scatter(96, 3, 7);
    let mut fresh = pinned_pipeline().prepare(&m).expect("prepare");
    let v2 = fresh.encoded.to_bytes().to_vec();

    // First v2 ingest pays exactly one full pipeline prepare.
    let srv = server(4, 8, 1);
    let fp = srv.ingest_wire(&v2).expect("first ingest");
    assert_eq!(srv.catalog().prepares_performed(), 1);

    // Re-ingesting the identical bytes is a pure residency hit: the
    // fingerprint comes from the stream header and *no* prepare runs.
    let fp2 = srv.ingest_wire(&v2).expect("second ingest");
    assert_eq!(fp2.token(), fp.token());
    assert_eq!(
        srv.catalog().prepares_performed(),
        1,
        "re-ingest of resident bytes re-ran the pipeline"
    );

    // A frozen v3 container takes the mapped fast path: zero prepares,
    // the mapped stream bytes are priced on the entry, and the restored
    // plan serves bit-identically to the fresh one.
    let v3 = spasm_store::save_v3(&fresh.encoded, &fresh.plan).expect("save_v3");
    let srv3 = server(4, 8, 1);
    let fp3 = srv3.ingest_wire(&v3).expect("v3 ingest");
    assert_eq!(fp3.token(), fp.token());
    assert_eq!(
        srv3.catalog().prepares_performed(),
        0,
        "v3 ingest fell back to a full prepare"
    );
    {
        let lease = srv3.catalog().get(&fp3).expect("resident");
        assert!(
            lease.entry().mapped_bytes() > 0,
            "v3 entry prices no mapped bytes"
        );
    }

    // Residency short-circuit holds for v3 bytes too.
    srv3.ingest_wire(&v3).expect("v3 re-ingest");
    assert_eq!(srv3.catalog().prepares_performed(), 0);

    let x = seeded_x(m.cols() as usize, 0xC0FFEE);
    let mut want = vec![0.0f32; m.rows() as usize];
    fresh.execute(&x, &mut want).expect("fresh execute");
    let got = srv3
        .with_prepared(fp3, |p| {
            let mut y = vec![0.0f32; 96];
            p.execute(&x, &mut y).expect("mapped execute");
            y
        })
        .expect("plan resident");
    assert_eq!(
        bits(&got),
        bits(&want),
        "mapped v3 plan diverged in serving"
    );
}

/// After every delta the key the server hands back is the from-scratch
/// fingerprint of the plan's canonical stream: values-only patches move
/// the cached payload CRC, splices and re-prepares recompute it, and no
/// path leaves a stale key. Both ingest paths are driven: a prepared COO
/// and a wire-v3 container, whose CRC the decoder seeded.
#[test]
fn delta_keys_equal_a_from_scratch_fingerprint() {
    let base = scatter(96, 3, 11);
    let v3 = {
        let p = pinned_pipeline().prepare(&base).expect("prepare");
        spasm_store::save_v3(&p.encoded, &p.plan).expect("save_v3")
    };
    let (by_coo, by_wire) = (server(4, 8, 1), server(4, 8, 1));
    let ingested = [
        (&by_coo, by_coo.ingest_coo(&base).expect("coo ingest")),
        (&by_wire, by_wire.ingest_wire(&v3).expect("v3 ingest")),
    ];
    let sequences = [
        ChangesetConfig::default().values_only(),
        ChangesetConfig::default().structural_only(),
        // Touches far more than the drift threshold of the submatrices.
        ChangesetConfig {
            deltas: 1,
            ops_per_delta: 160,
            ..ChangesetConfig::default().structural_only()
        },
    ];
    for (s, mut fp) in ingested {
        let mut outcomes = Vec::new();
        for (seed, config) in sequences.iter().enumerate() {
            let current = s
                .with_prepared(fp, |p| p.encoded.to_coo())
                .expect("plan resident");
            for (_, delta) in changesets(&current, seed as u64, config) {
                let (key, outcome) = s.apply_delta(&fp, &delta).expect("apply delta");
                let stream = s
                    .with_prepared(key, |p| p.encoded.to_bytes())
                    .expect("re-keyed plan resident");
                assert_eq!(
                    key,
                    MatrixFingerprint::of_wire_bytes(&stream).expect("v2 stream"),
                    "stale key after {outcome:?}"
                );
                outcomes.push(outcome);
                fp = key;
            }
        }
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, DeltaOutcome::Patched { .. })));
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, DeltaOutcome::Spliced { .. })));
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, DeltaOutcome::Reprepared { .. })));
    }
}

/// Structural deltas re-key from per-tile CRC segments, and a values
/// patch that follows one moves the patched tile's segment: alternating
/// the two kinds, every key the server hands back is still the
/// from-scratch fingerprint of the plan's canonical stream, on both
/// ingest paths.
#[test]
fn alternating_structural_and_values_deltas_keep_exact_keys() {
    // 16 tiles of 256, so most tiles a patch moves are not re-encoded
    // by the splice after it.
    let base = scatter(1024, 3, 5);
    let v3 = {
        let p = pinned_pipeline().prepare(&base).expect("prepare");
        spasm_store::save_v3(&p.encoded, &p.plan).expect("save_v3")
    };
    let (by_coo, by_wire) = (server(4, 8, 1), server(4, 8, 1));
    let ingested = [
        (&by_coo, by_coo.ingest_coo(&base).expect("coo ingest")),
        (&by_wire, by_wire.ingest_wire(&v3).expect("v3 ingest")),
    ];
    for (s, mut fp) in ingested {
        let mut spliced = 0;
        for round in 0..12u64 {
            let config = if round % 2 == 0 {
                ChangesetConfig::default().structural_only()
            } else {
                ChangesetConfig::default().values_only()
            };
            let current = s
                .with_prepared(fp, |p| p.encoded.to_coo())
                .expect("plan resident");
            let config = ChangesetConfig {
                deltas: 1,
                ..config
            };
            for (_, delta) in changesets(&current, 40 + round, &config) {
                let (key, outcome) = s.apply_delta(&fp, &delta).expect("apply delta");
                let stream = s
                    .with_prepared(key, |p| p.encoded.to_bytes())
                    .expect("re-keyed plan resident");
                assert_eq!(
                    key,
                    MatrixFingerprint::of_wire_bytes(&stream).expect("v2 stream"),
                    "stale key after {outcome:?} in round {round}"
                );
                spliced += usize::from(matches!(outcome, DeltaOutcome::Spliced { .. }));
                fp = key;
            }
        }
        assert!(spliced >= 3, "only {spliced} deltas took the splice path");
    }
}
