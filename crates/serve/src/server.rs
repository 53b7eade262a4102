//! The serving front-end: catalog + admission queue + batch execution,
//! hardened for overload.
//!
//! [`SpmvServer`] ties the pieces together. Ingest routes a matrix
//! through the pipeline into the [`PlanCatalog`]; [`SpmvServer::submit`]
//! admits one request against a cached plan; the shared
//! [`VirtualClock`] drives deadline flushes. Batch *composition* is
//! decided inside the queue lock before any execution starts, so the
//! number of worker threads executing flushed batches can never change
//! which requests batch together.
//!
//! A batch holds every due request against one matrix, whatever integrity
//! policies they asked for, and runs as one executor pass
//! (`Prepared::execute_batch_with`): each lane is verified only under its
//! own request's policy, falls back to the golden CSR alone, and — with
//! fallback disabled — fails alone while its siblings are served. Since
//! that pass is bit-identical to a batch-1 execute under each lane's
//! policy for any thread count, every served result (and every verified
//! lane's health) is bit-identical to a batch-1 serve of the same trace.
//!
//! The overload-safety layer (PR 8) extends that determinism to every
//! degradation decision:
//!
//! * admission is bounded and rate-limited ([`crate::QueueConfig`]);
//!   refusals are typed [`Rejected`] reasons, never silent drops;
//! * requests admitted with a completion deadline are shed (typed, with
//!   the ticks-late amount) at flush time instead of executing late;
//! * each plan carries a circuit breaker ([`crate::breaker`]): too many
//!   integrity fallbacks quarantine the plan and serve it straight from
//!   the golden CSR (no ladder cost, `Output::degraded`), with
//!   deterministic half-open probes for re-admission. Routing happens
//!   serially at issue time and outcomes are recorded serially after the
//!   round's barrier — both in flush order — so the whole quarantine
//!   history is a pure function of the trace and clock schedule;
//! * a panicking worker poisons only its own batch: the panic is caught
//!   at the batch boundary, the batch is retried once (re-execution is
//!   pure, so results stay bit-identical and are never duplicated), and
//!   a second panic fails just that batch's requests with a typed error;
//! * [`SpmvServer::shutdown`] stops admission ([`Rejected::ShuttingDown`])
//!   and drains queued work to completion or typed rejection.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use spasm::{DeltaOutcome, IntegrityPolicy, Pipeline, PipelineError, Prepared};
use spasm_format::MatrixFingerprint;
use spasm_hw::HealthReport;
use spasm_sparse::{Coo, MatrixDelta, SpMv, SparseError};

use crate::breaker::{BreakerConfig, BreakerEvent, ExecRoute};
use crate::catalog::{CatalogConfig, CatalogError, PlanCatalog};
use crate::clock::{Deadline, Tick, VirtualClock};
use crate::queue::{AdmissionQueue, BatchSpec, FlushTrigger, QueueConfig, QueuedRequest, Rejected};

/// Configuration for an [`SpmvServer`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Admission-queue coalescing and overload parameters.
    pub queue: QueueConfig,
    /// Plan-catalog byte budget.
    pub catalog: CatalogConfig,
    /// Per-plan circuit-breaker (quarantine) parameters.
    pub breaker: BreakerConfig,
    /// Worker threads executing flushed batches concurrently. `0` and
    /// `1` both mean "execute on the calling thread". Only throughput
    /// depends on this — never batch composition or results.
    pub workers: usize,
}

/// Errors surfaced to a single request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The fingerprint is not resident in the catalog.
    UnknownMatrix(MatrixFingerprint),
    /// The request vector's length does not match the matrix.
    Shape {
        /// The matrix's column count.
        expected: usize,
        /// The supplied vector length.
        actual: usize,
    },
    /// The request was refused or shed by overload policy — a typed
    /// [`Rejected`] reason with back-off / lateness detail.
    Rejected(Rejected),
    /// The executing worker panicked and the bounded retry panicked
    /// again; the batch's requests fail rather than re-queue forever.
    Panicked,
    /// Catalog ingest failed.
    Catalog(CatalogError),
    /// The underlying execution failed.
    Pipeline(PipelineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownMatrix(fp) => {
                write!(f, "matrix {} is not in the catalog", fp.token())
            }
            ServeError::Shape { expected, actual } => {
                write!(f, "request vector has length {actual}, expected {expected}")
            }
            ServeError::Rejected(r) => write!(f, "rejected: {r}"),
            ServeError::Panicked => {
                f.write_str("worker panicked executing the batch (retry also panicked)")
            }
            ServeError::Catalog(e) => write!(f, "catalog: {e}"),
            ServeError::Pipeline(e) => write!(f, "execution: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CatalogError> for ServeError {
    fn from(e: CatalogError) -> Self {
        ServeError::Catalog(e)
    }
}

impl From<PipelineError> for ServeError {
    fn from(e: PipelineError) -> Self {
        ServeError::Pipeline(e)
    }
}

impl From<Rejected> for ServeError {
    fn from(r: Rejected) -> Self {
        ServeError::Rejected(r)
    }
}

/// A successfully served request.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The product `A·x`.
    pub y: Vec<f32>,
    /// This vector's health under the request's integrity policy.
    pub health: HealthReport,
    /// How many requests were coalesced into the executing batch.
    pub batch_size: usize,
    /// Ticks spent queued (flush tick − arrival tick).
    pub queued_ticks: Tick,
    /// Simulated seconds of the whole batch execution on the modelled
    /// accelerator (shared by all members of the batch). Golden-CSR
    /// (quarantine) serves are priced at the plan's prepare-time
    /// estimate per vector.
    pub exec_seconds: f64,
    /// The tick at which the batch left the queue.
    pub flushed_at: Tick,
    /// Why the batch flushed.
    pub trigger: FlushTrigger,
    /// `true` when the plan was quarantined and this request was served
    /// directly from the golden CSR (graceful degradation — correct
    /// bits, no accelerator model, no verify-ladder cost).
    pub degraded: bool,
}

/// The outcome of one admitted request.
#[derive(Debug)]
pub struct Completion {
    /// The id [`SpmvServer::submit`] returned for the request.
    pub id: u64,
    /// The served output, or a per-request error.
    pub result: Result<Output, ServeError>,
}

/// One line of the batch log: which requests executed together and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// The matrix the batch ran against.
    pub fingerprint: MatrixFingerprint,
    /// Member request ids, in admission order (shed members excluded —
    /// they never executed).
    pub request_ids: Vec<u64>,
    /// The tick the batch left the queue.
    pub flushed_at: Tick,
    /// Why it flushed.
    pub trigger: FlushTrigger,
}

/// Deterministic counters for every overload / degradation decision the
/// server has taken. All counts are decided in serial sections (under
/// the queue lock, or in flush order around the execution barrier), so
/// they are a pure function of the trace for any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadStats {
    /// Submissions refused because the queue (global or group) was full.
    pub rejected_queue_full: u64,
    /// Submissions refused by the per-policy-class token bucket.
    pub rejected_rate_limited: u64,
    /// Submissions that arrived with an already-expired deadline.
    pub rejected_expired: u64,
    /// Submissions refused because the server is shutting down.
    pub rejected_shutdown: u64,
    /// Admitted requests shed at flush time (expired while queued).
    pub shed_expired: u64,
    /// Plans tripped into quarantine by the circuit breaker.
    pub quarantine_trips: u64,
    /// Plans re-admitted to the accelerator path by a clean probe.
    pub quarantine_recoveries: u64,
    /// Requests served from the golden CSR while their plan was
    /// quarantined.
    pub served_degraded: u64,
    /// Worker panics caught at the batch boundary (includes retry
    /// panics).
    pub worker_panics: u64,
    /// Requests re-executed after their batch's worker panicked.
    pub retried_requests: u64,
    /// Requests failed with [`ServeError::Panicked`] after the bounded
    /// retry also panicked.
    pub abandoned_requests: u64,
}

/// The SpMV serving front-end. See the module docs.
#[derive(Debug)]
pub struct SpmvServer {
    catalog: PlanCatalog,
    queue: Mutex<AdmissionQueue>,
    clock: VirtualClock,
    pipeline: Pipeline,
    breaker: BreakerConfig,
    next_id: AtomicU64,
    workers: usize,
    shutting_down: AtomicBool,
    log: Mutex<Vec<BatchRecord>>,
    stats: Mutex<OverloadStats>,
    /// Test hook (fault-injection builds): fingerprints whose next N
    /// batch executions panic at the worker boundary.
    #[cfg(feature = "fault-injection")]
    panic_armed: Mutex<std::collections::BTreeMap<MatrixFingerprint, u32>>,
}

impl SpmvServer {
    /// A server with the default ingest pipeline.
    pub fn new(config: ServerConfig) -> Self {
        Self::with_pipeline(config, Pipeline::new())
    }

    /// A server whose ingest runs a custom-configured pipeline (pinned
    /// portfolio, integrity defaults, thread budget, …).
    pub fn with_pipeline(config: ServerConfig, pipeline: Pipeline) -> Self {
        SpmvServer {
            catalog: PlanCatalog::new(config.catalog),
            queue: Mutex::new(AdmissionQueue::new(config.queue)),
            clock: VirtualClock::new(),
            pipeline,
            breaker: config.breaker,
            next_id: AtomicU64::new(0),
            workers: config.workers.max(1),
            shutting_down: AtomicBool::new(false),
            log: Mutex::new(Vec::new()),
            stats: Mutex::new(OverloadStats::default()),
            #[cfg(feature = "fault-injection")]
            panic_armed: Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> Tick {
        self.clock.now()
    }

    /// The plan catalog (for inspection and direct management).
    pub fn catalog(&self) -> &PlanCatalog {
        &self.catalog
    }

    /// The circuit-breaker configuration in effect.
    pub fn breaker_config(&self) -> BreakerConfig {
        self.breaker
    }

    /// A snapshot of the overload / degradation counters.
    pub fn overload_stats(&self) -> OverloadStats {
        *self.lock_stats()
    }

    /// `true` once [`SpmvServer::shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Prepares a COO matrix through the server's pipeline and caches
    /// the plan. Returns the catalog key.
    ///
    /// # Errors
    ///
    /// [`ServeError::Pipeline`] when prepare fails, [`ServeError::Catalog`]
    /// when the plan cannot fit the cache budget.
    pub fn ingest_coo(&self, matrix: &Coo) -> Result<MatrixFingerprint, ServeError> {
        let prepared = self.pipeline.prepare(matrix)?;
        Ok(self.catalog.insert_prepared(prepared)?)
    }

    /// Ingests a wire stream — keyed by the *ingested stream's*
    /// canonical fingerprint, which remote clients can compute locally.
    /// No-op when already resident, without any prepare work.
    ///
    /// Wire-v3 containers (`spasm-store`) take the zero-copy cold-start
    /// path: validate and map, no pipeline prepare; a resident one costs
    /// that validation. v2 streams are recognised from their header
    /// before any decode; v1/v2 streams decode and re-prepare on a
    /// residency miss.
    ///
    /// # Errors
    ///
    /// [`ServeError::Catalog`] wrapping decode, validation, prepare or
    /// budget failures.
    pub fn ingest_wire(&self, bytes: &[u8]) -> Result<MatrixFingerprint, ServeError> {
        Ok(self.catalog.insert_wire(bytes, &self.pipeline)?)
    }

    /// Applies a streaming update to the resident plan for `fingerprint`
    /// without evicting it: the plan absorbs the delta in place
    /// ([`spasm::Prepared::apply_delta`]) and the catalog entry is
    /// re-keyed under the mutated content and repriced. Returns the new
    /// fingerprint (the key subsequent submissions must use) and how the
    /// delta was absorbed.
    ///
    /// Coherence: a batch already flushed (its worker cloned the plan's
    /// value stream) keeps serving the pre-update values; requests
    /// flushed after this call serve the updated ones. Queued requests
    /// and live leases are never invalidated.
    ///
    /// # Errors
    ///
    /// [`ServeError::Catalog`] wrapping [`CatalogError::NotResident`] for
    /// an unknown key or the pipeline's delta-validation error (the plan
    /// is untouched).
    pub fn apply_delta(
        &self,
        fingerprint: &MatrixFingerprint,
        delta: &MatrixDelta,
    ) -> Result<(MatrixFingerprint, DeltaOutcome), ServeError> {
        Ok(self.catalog.apply_delta(fingerprint, delta)?)
    }

    /// Admits one request (no completion deadline) against the cached
    /// plan for `fingerprint`.
    ///
    /// Returns the request id plus any completions produced *right now*
    /// (the admission filled a batch to the size trigger). Otherwise the
    /// request waits for its group's deadline: drive the clock with
    /// [`SpmvServer::advance_to`] / [`SpmvServer::advance`], or flush
    /// unconditionally with [`SpmvServer::drain`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownMatrix`] and [`ServeError::Shape`] reject the
    /// request up front; [`ServeError::Rejected`] carries the typed
    /// overload refusals (queue full, rate limited, shutting down).
    /// Nothing is queued on error.
    pub fn submit(
        &self,
        fingerprint: MatrixFingerprint,
        x: Vec<f32>,
        policy: IntegrityPolicy,
    ) -> Result<(u64, Vec<Completion>), ServeError> {
        self.submit_inner(fingerprint, x, policy, None)
    }

    /// As [`SpmvServer::submit`], with a completion deadline: the request
    /// must *start executing* strictly before `deadline.at` or it is
    /// shed ([`Rejected::DeadlineExceeded`] with the ticks-late amount).
    /// A deadline tighter than the queue's coalescing delay flushes its
    /// group early ([`FlushTrigger::Urgent`]).
    ///
    /// # Errors
    ///
    /// As [`SpmvServer::submit`]; additionally, a request whose deadline
    /// has already passed is rejected up front.
    pub fn submit_with_deadline(
        &self,
        fingerprint: MatrixFingerprint,
        x: Vec<f32>,
        policy: IntegrityPolicy,
        deadline: Deadline,
    ) -> Result<(u64, Vec<Completion>), ServeError> {
        self.submit_inner(fingerprint, x, policy, Some(deadline))
    }

    fn submit_inner(
        &self,
        fingerprint: MatrixFingerprint,
        x: Vec<f32>,
        policy: IntegrityPolicy,
        deadline: Option<Deadline>,
    ) -> Result<(u64, Vec<Completion>), ServeError> {
        if self.is_shutting_down() {
            self.lock_stats().rejected_shutdown += 1;
            return Err(Rejected::ShuttingDown.into());
        }
        let lease = self
            .catalog
            .get(&fingerprint)
            .ok_or(ServeError::UnknownMatrix(fingerprint))?;
        if x.len() != lease.cols() as usize {
            return Err(ServeError::Shape {
                expected: lease.cols() as usize,
                actual: x.len(),
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let flushed = {
            let mut queue = self.lock_queue();
            let now = self.clock.now();
            queue.push(
                QueuedRequest {
                    id,
                    policy,
                    x,
                    arrival: now,
                    deadline,
                    lease,
                },
                now,
            )
        };
        let completions = match flushed {
            Ok(batches) => self.execute_batches(batches),
            Err(rejected) => {
                {
                    let mut stats = self.lock_stats();
                    match rejected {
                        Rejected::QueueFull { .. } => stats.rejected_queue_full += 1,
                        Rejected::RateLimited { .. } => stats.rejected_rate_limited += 1,
                        Rejected::DeadlineExceeded { .. } => stats.rejected_expired += 1,
                        Rejected::ShuttingDown => stats.rejected_shutdown += 1,
                    }
                }
                return Err(rejected.into());
            }
        };
        Ok((id, completions))
    }

    /// Advances the clock to `t` and executes every batch whose deadline
    /// has passed. Completions are returned in (deadline, admission)
    /// order regardless of worker count.
    pub fn advance_to(&self, t: Tick) -> Vec<Completion> {
        let now = self.clock.advance_to(t);
        let due = self.lock_queue().due(now);
        self.execute_batches(due)
    }

    /// Advances the clock by `ticks`; see [`SpmvServer::advance_to`].
    pub fn advance(&self, ticks: Tick) -> Vec<Completion> {
        let now = self.clock.advance(ticks);
        let due = self.lock_queue().due(now);
        self.execute_batches(due)
    }

    /// Flushes and executes everything still queued, without waiting for
    /// deadlines.
    pub fn drain(&self) -> Vec<Completion> {
        let now = self.clock.now();
        let batches = self.lock_queue().drain(now);
        self.execute_batches(batches)
    }

    /// Graceful shutdown: stops admitting ([`Rejected::ShuttingDown`]
    /// from then on) and drains everything queued to completion — or to
    /// a typed rejection for members whose deadline has expired. Safe to
    /// call more than once.
    pub fn shutdown(&self) -> Vec<Completion> {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.drain()
    }

    /// The earliest pending deadline, if any request is queued.
    pub fn next_deadline(&self) -> Option<Tick> {
        self.lock_queue().next_deadline()
    }

    /// Requests currently waiting in the queue.
    pub fn pending(&self) -> usize {
        self.lock_queue().len()
    }

    /// A copy of the batch log: every executed batch, in execution-issue
    /// order, with membership and flush metadata. Deterministic for a
    /// fixed trace and clock schedule.
    pub fn batch_log(&self) -> Vec<BatchRecord> {
        self.lock_log().clone()
    }

    /// Clears the batch log (e.g. between measurement phases).
    pub fn clear_batch_log(&self) {
        self.lock_log().clear();
    }

    /// Runs `f` against the cached plan for `fingerprint`, serialised
    /// with batch execution. Intended for maintenance and tests (e.g.
    /// arming fault campaigns on a served plan).
    pub fn with_prepared<R>(
        &self,
        fingerprint: MatrixFingerprint,
        f: impl FnOnce(&mut Prepared) -> R,
    ) -> Option<R> {
        let lease = self.catalog.get(&fingerprint)?;
        let mut prepared = lease.prepared();
        Some(f(&mut prepared))
    }

    /// Arms `count` injected worker panics for `fingerprint`: each of
    /// the next `count` batch executions against that plan panics at the
    /// worker boundary before touching the plan. Test hook for the
    /// panic-isolation path; deterministic when at most one batch per
    /// fingerprint executes per round.
    #[cfg(feature = "fault-injection")]
    pub fn arm_worker_panic(&self, fingerprint: MatrixFingerprint, count: u32) {
        let mut armed = self.panic_armed.lock().unwrap_or_else(|e| e.into_inner());
        if count == 0 {
            armed.remove(&fingerprint);
        } else {
            armed.insert(fingerprint, count);
        }
    }

    #[cfg(feature = "fault-injection")]
    fn maybe_injected_panic(&self, fingerprint: MatrixFingerprint) {
        let mut armed = self.panic_armed.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(n) = armed.get_mut(&fingerprint) {
            *n -= 1;
            if *n == 0 {
                armed.remove(&fingerprint);
            }
            drop(armed);
            panic!("injected worker panic (fault-injection test hook)");
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, AdmissionQueue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_log(&self) -> MutexGuard<'_, Vec<BatchRecord>> {
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_stats(&self) -> MutexGuard<'_, OverloadStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Executes flushed batches, fanning out across up to
    /// `self.workers` scoped threads. Compositions were already fixed by
    /// the queue; this only affects wall-clock concurrency. Completions
    /// come back grouped per batch in flush order, ids ascending within
    /// a batch.
    ///
    /// Three serial sections bracket the concurrent execution, all in
    /// flush order, which is what keeps every overload decision
    /// worker-count independent: (1) *issue* — shed expired members and
    /// route each batch through its plan's circuit breaker; (2) *retry*
    /// — re-execute batches whose worker panicked (once; a second panic
    /// fails the batch typed); (3) *record* — feed per-vector outcomes
    /// back to the breakers and count transitions.
    fn execute_batches(&self, batches: Vec<BatchSpec>) -> Vec<Completion> {
        if batches.is_empty() {
            return Vec::new();
        }
        let now = self.clock.now();
        let mut slots: Vec<Vec<Completion>> = (0..batches.len()).map(|_| Vec::new()).collect();
        // Issue (serial, flush order): shed expired members, log the
        // executable compositions, route through the breakers.
        let mut work: Vec<(usize, BatchSpec, ExecRoute)> = Vec::new();
        for (i, mut batch) in batches.into_iter().enumerate() {
            let shed = std::mem::take(&mut batch.shed);
            if !shed.is_empty() {
                self.lock_stats().shed_expired += shed.len() as u64;
                for s in shed {
                    slots[i].push(Completion {
                        id: s.request.id,
                        result: Err(Rejected::DeadlineExceeded { late_by: s.late_by }.into()),
                    });
                }
            }
            if batch.requests.is_empty() {
                continue;
            }
            self.lock_log().push(BatchRecord {
                fingerprint: batch.fingerprint,
                request_ids: batch.requests.iter().map(|r| r.id).collect(),
                flushed_at: batch.flushed_at,
                trigger: batch.trigger,
            });
            let route = batch.requests[0].lease.entry().route(now, &self.breaker);
            if route == ExecRoute::Golden {
                self.lock_stats().served_degraded += batch.requests.len() as u64;
            }
            work.push((i, batch, route));
        }
        // Execute, catching panics at the batch boundary.
        let run = |batch: &BatchSpec, route: ExecRoute| -> Option<Vec<Completion>> {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.execute_one(batch, route)
            }))
            .ok()
        };
        let workers = self.workers.min(work.len());
        let mut outcomes: Vec<(usize, Option<Vec<Completion>>)> = if workers <= 1 {
            work.iter()
                .map(|(i, b, route)| (*i, run(b, *route)))
                .collect()
        } else {
            // Round-robin the batches over `workers` scoped threads, then
            // reassemble in flush order so the caller-visible order is
            // independent of scheduling.
            let mut shards: Vec<Vec<&(usize, BatchSpec, ExecRoute)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (k, item) in work.iter().enumerate() {
                shards[k % workers].push(item);
            }
            let mut all: Vec<(usize, Option<Vec<Completion>>)> = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .map(|shard| {
                        scope.spawn(move || {
                            shard
                                .into_iter()
                                .map(|(i, b, route)| (*i, run(b, *route)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    all.extend(h.join().unwrap_or_default());
                }
            });
            all.sort_by_key(|(i, _)| *i);
            all
        };
        // Retry (serial, flush order): a panicked batch is re-executed
        // exactly once; its requests were never completed, so the retry
        // cannot duplicate results, and re-execution is pure, so the
        // retried bits are identical to an undisturbed run.
        for (slot, completions) in outcomes.iter_mut() {
            if completions.is_some() {
                continue;
            }
            let Some((_, batch, route)) = work.iter().find(|(i, _, _)| i == slot) else {
                continue;
            };
            {
                let mut stats = self.lock_stats();
                stats.worker_panics += 1;
                stats.retried_requests += batch.requests.len() as u64;
            }
            *completions = match run(batch, *route) {
                Some(done) => Some(done),
                None => {
                    let mut stats = self.lock_stats();
                    stats.worker_panics += 1;
                    stats.abandoned_requests += batch.requests.len() as u64;
                    drop(stats);
                    Some(
                        batch
                            .requests
                            .iter()
                            .map(|r| Completion {
                                id: r.id,
                                result: Err(ServeError::Panicked),
                            })
                            .collect(),
                    )
                }
            };
        }
        // Record (serial, flush order): feed per-vector outcomes back to
        // each plan's breaker; count the transitions.
        for ((_, completions), (_, batch, route)) in outcomes.iter().zip(&work) {
            let Some(completions) = completions else {
                continue;
            };
            if *route != ExecRoute::Golden {
                let failures: Vec<bool> = completions
                    .iter()
                    .map(|c| match &c.result {
                        Ok(out) => out.health.fallback || out.health.needs_fallback(),
                        Err(_) => true,
                    })
                    .collect();
                let event = batch.requests[0].lease.entry().record_outcomes(
                    *route,
                    &failures,
                    now,
                    &self.breaker,
                );
                match event {
                    Some(BreakerEvent::Tripped { .. }) => {
                        self.lock_stats().quarantine_trips += 1;
                    }
                    Some(BreakerEvent::Recovered) => {
                        self.lock_stats().quarantine_recoveries += 1;
                    }
                    None => {}
                }
            }
        }
        for (slot, completions) in outcomes {
            if let Some(mut done) = completions {
                slots[slot].append(&mut done);
            }
        }
        slots
            .into_iter()
            .map(|mut batch_completions| {
                batch_completions.sort_by_key(|c| c.id);
                batch_completions
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect()
    }

    /// Executes one batch against its leased plan, on the route the
    /// breaker chose. On an indexed shape error (which submit-time
    /// validation should have made impossible) the offending request
    /// alone is rejected and the rest retried.
    fn execute_one(&self, batch: &BatchSpec, route: ExecRoute) -> Vec<Completion> {
        #[cfg(feature = "fault-injection")]
        self.maybe_injected_panic(batch.fingerprint);
        let requests = &batch.requests;
        let mut completions: Vec<Completion> = Vec::with_capacity(requests.len());
        if requests.is_empty() {
            return completions;
        }
        let lease = requests[0].lease.clone();
        let rows = lease.rows() as usize;
        if route == ExecRoute::Golden {
            // Quarantined plan: serve straight from the golden CSR — the
            // bit-exact reference, with none of the accelerator model or
            // verify-ladder cost. Priced at the plan's prepare-time
            // estimate per vector (the golden path has no cycle model).
            let prepared = lease.prepared();
            let golden = prepared.golden();
            let exec_seconds = lease.seconds_estimate() * requests.len() as f64;
            for request in requests {
                let mut y = vec![0.0f32; rows];
                let result = match golden.spmv(&request.x, &mut y) {
                    Ok(()) => Ok(Output {
                        y,
                        health: HealthReport::degraded_golden(),
                        batch_size: requests.len(),
                        queued_ticks: batch.flushed_at.saturating_sub(request.arrival),
                        exec_seconds,
                        flushed_at: batch.flushed_at,
                        trigger: batch.trigger,
                        degraded: true,
                    }),
                    // Unreachable through the public API (x is validated at
                    // submit, y is sized from the plan), but keep it typed.
                    Err(SparseError::DimensionMismatch {
                        expected, actual, ..
                    }) => Err(ServeError::Shape { expected, actual }),
                    Err(_) => Err(ServeError::Pipeline(PipelineError::EmptySearchSpace(
                        "golden serving path",
                    ))),
                };
                completions.push(Completion {
                    id: request.id,
                    result,
                });
            }
            completions.sort_by_key(|c| c.id);
            return completions;
        }
        // Accelerator path (healthy plan, or a half-open probe): one pass
        // over the batch, each lane verified under its own request's
        // policy.
        let mut active: Vec<usize> = (0..requests.len()).collect();
        while !active.is_empty() {
            let size = active.len();
            let xs: Vec<&[f32]> = active.iter().map(|&k| requests[k].x.as_slice()).collect();
            let policies: Vec<IntegrityPolicy> =
                active.iter().map(|&k| requests[k].policy).collect();
            let mut ys = vec![vec![0.0f32; rows]; size];
            let mut prepared = lease.prepared();
            match prepared.execute_batch_with(&xs, &mut ys, &policies) {
                // An integrity error fails only the lanes it names; the
                // rest of the batch was committed.
                Ok(_) | Err(PipelineError::Integrity { .. }) => {
                    let report = prepared.report();
                    let exec_seconds = report.batch.as_ref().map_or(report.seconds, |b| b.seconds);
                    for (j, (&k, y)) in active.iter().zip(ys).enumerate() {
                        let request = &requests[k];
                        let result = match prepared.batch_error(j) {
                            Some(e) => Err(ServeError::Pipeline(e)),
                            None => Ok(Output {
                                y,
                                health: prepared.batch_health()[j],
                                batch_size: size,
                                queued_ticks: batch.flushed_at.saturating_sub(request.arrival),
                                exec_seconds,
                                flushed_at: batch.flushed_at,
                                trigger: batch.trigger,
                                degraded: false,
                            }),
                        };
                        completions.push(Completion {
                            id: request.id,
                            result,
                        });
                    }
                    active.clear();
                }
                Err(PipelineError::BatchDimensionMismatch {
                    vector,
                    expected,
                    actual,
                    ..
                }) if vector < active.len() => {
                    let bad = active.remove(vector);
                    completions.push(Completion {
                        id: requests[bad].id,
                        result: Err(ServeError::Shape { expected, actual }),
                    });
                }
                Err(e) => {
                    for &k in &active {
                        completions.push(Completion {
                            id: requests[k].id,
                            result: Err(ServeError::Pipeline(e.clone())),
                        });
                    }
                    active.clear();
                }
            }
        }
        completions.sort_by_key(|c| c.id);
        completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::PolicyClass;
    use spasm_sparse::Coo;

    fn diag(n: u32) -> Coo {
        Coo::from_triplets(n, n, (0..n).map(|i| (i, i, 1.0 + i as f32)).collect())
            .expect("valid triplets")
    }

    fn server(max_batch: usize, max_delay: Tick) -> SpmvServer {
        SpmvServer::new(ServerConfig {
            queue: QueueConfig {
                max_batch,
                max_delay,
                ..QueueConfig::default()
            },
            ..ServerConfig::default()
        })
    }

    #[test]
    fn submit_rejects_unknown_and_misshapen_requests() {
        let s = server(4, 10);
        let fp = s.ingest_coo(&diag(16)).expect("ingest");
        let ghost = diag(8).clone();
        let ghost_fp = {
            let other = server(1, 0);
            other.ingest_coo(&ghost).expect("ingest")
        };
        assert!(matches!(
            s.submit(ghost_fp, vec![1.0; 8], IntegrityPolicy::off()),
            Err(ServeError::UnknownMatrix(_))
        ));
        assert!(matches!(
            s.submit(fp, vec![1.0; 5], IntegrityPolicy::off()),
            Err(ServeError::Shape {
                expected: 16,
                actual: 5
            })
        ));
        assert_eq!(s.pending(), 0, "rejected requests are never queued");
    }

    #[test]
    fn size_trigger_fires_on_the_filling_submit() {
        let s = server(2, 1_000);
        let fp = s.ingest_coo(&diag(8)).expect("ingest");
        let (id0, first) = s.submit(fp, vec![1.0; 8], IntegrityPolicy::off()).unwrap();
        assert!(first.is_empty());
        let (id1, second) = s.submit(fp, vec![2.0; 8], IntegrityPolicy::off()).unwrap();
        assert_eq!(second.len(), 2);
        assert_eq!(
            second.iter().map(|c| c.id).collect::<Vec<_>>(),
            vec![id0, id1]
        );
        for c in &second {
            let out = c.result.as_ref().expect("served");
            assert_eq!(out.batch_size, 2);
            assert_eq!(out.trigger, FlushTrigger::Size);
            assert!(!out.degraded);
        }
        assert_eq!(s.batch_log().len(), 1);
        assert_eq!(s.batch_log()[0].request_ids, vec![id0, id1]);
        assert_eq!(s.overload_stats(), OverloadStats::default());
    }

    #[test]
    fn mixed_policies_share_one_batch_and_match_batch_one() {
        // Five requests under four policies wait on one matrix until the
        // oldest one's coalescing deadline flushes them as one batch.
        let s = server(8, 100);
        let coo = Coo::from_triplets(
            64,
            64,
            (0..64u32)
                .flat_map(|i| [(i, i, 1.0 + i as f32), (i, (i * 7 + 3) % 64, -0.5)])
                .collect(),
        )
        .expect("valid triplets");
        let fp = s.ingest_coo(&coo).expect("ingest");
        let policies = [
            IntegrityPolicy::off(),
            IntegrityPolicy::sampled(3, 11),
            IntegrityPolicy::full(),
            IntegrityPolicy::sampled(5, 99),
            IntegrityPolicy::off(),
        ];
        let xs: Vec<Vec<f32>> = (0..policies.len())
            .map(|j| (0..64).map(|i| (i as f32) * 0.125 - j as f32).collect())
            .collect();
        let mut ids = Vec::new();
        for (x, &policy) in xs.iter().zip(&policies) {
            let (id, flushed) = s.submit(fp, x.clone(), policy).unwrap();
            assert!(flushed.is_empty());
            ids.push(id);
        }
        assert_ne!(
            PolicyClass::from(IntegrityPolicy::off()),
            PolicyClass::from(IntegrityPolicy::full())
        );
        let done = s.advance(100);
        assert_eq!(done.len(), policies.len(), "one flush of the whole group");
        assert_eq!(s.batch_log().len(), 1, "one batch across every policy");
        assert_eq!(s.batch_log()[0].request_ids, ids);
        for ((c, x), &policy) in done.iter().zip(&xs).zip(&policies) {
            let out = c.result.as_ref().expect("served");
            assert_eq!(out.batch_size, policies.len());
            assert_eq!(out.trigger, FlushTrigger::Deadline);
            let mut single = s.with_prepared(fp, |p| p.clone()).expect("resident");
            single.set_integrity(policy);
            let mut want = vec![0.0f32; 64];
            let report = single.execute_into(x, &mut want).expect("batch-1 execute");
            assert_eq!(out.health, report.health, "request {}", c.id);
            assert_eq!(
                out.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "request {}",
                c.id
            );
        }
        let verified: Vec<u32> = done
            .iter()
            .map(|c| c.result.as_ref().map_or(0, |o| o.health.tile_rows_verified))
            .collect();
        assert_eq!(verified[0], 0, "off lanes are never verified");
        assert_eq!(verified[4], 0, "off lanes are never verified");
        assert!(verified[2] >= verified[1].max(verified[3]));
    }

    #[test]
    fn distinct_seeds_never_widen_a_batch_past_max_batch() {
        // Every request carries its own sampling seed, so each is alone in
        // its policy class: the group grows past `max_batch` until a class
        // fills, and every flush (size, deadline, drain) still leaves in
        // batches of at most `max_batch` requests, in admission order.
        let s = server(3, 50);
        let fp = s.ingest_coo(&diag(8)).expect("ingest");
        let sampled = |seed| IntegrityPolicy::sampled(2, seed);
        let mut ids = Vec::new();
        for seed in 0..7 {
            let (id, done) = s.submit(fp, vec![1.0; 8], sampled(seed)).unwrap();
            assert!(done.is_empty(), "seed {seed} is alone in its class");
            ids.push(id);
        }
        for filling in [false, true] {
            let (id, done) = s.submit(fp, vec![1.0; 8], sampled(0)).unwrap();
            ids.push(id);
            let flushed = if filling { 9 } else { 0 };
            assert_eq!(
                done.len(),
                flushed,
                "the third seed-0 request flushes all nine"
            );
        }
        for seed in 10..14 {
            ids.push(s.submit(fp, vec![1.0; 8], sampled(seed)).unwrap().0);
        }
        assert_eq!(s.advance(50).len(), 4);
        for seed in 20..22 {
            ids.push(s.submit(fp, vec![1.0; 8], sampled(seed)).unwrap().0);
        }
        assert_eq!(s.drain().len(), 2);
        let log = s.batch_log();
        let widths: Vec<usize> = log.iter().map(|b| b.request_ids.len()).collect();
        assert_eq!(widths, vec![3, 3, 3, 3, 1, 2]);
        let triggers: Vec<FlushTrigger> = log.iter().map(|b| b.trigger).collect();
        use FlushTrigger::{Deadline, Drain, Size};
        assert_eq!(triggers, vec![Size, Size, Size, Deadline, Deadline, Drain]);
        let served: Vec<u64> = log.iter().flat_map(|b| b.request_ids.clone()).collect();
        assert_eq!(served, ids, "admission order across the split batches");
    }

    #[test]
    fn indexed_shape_error_evicts_only_the_offender() {
        // Submit-time validation makes this unreachable through the public
        // API, so drive execute_one directly with a malformed member.
        let s = server(4, 10);
        let fp = s.ingest_coo(&diag(8)).expect("ingest");
        let lease = s.catalog().get(&fp).expect("resident");
        let mk = |id: u64, len: usize| QueuedRequest {
            id,
            policy: IntegrityPolicy::off(),
            x: vec![1.0; len],
            arrival: 0,
            deadline: None,
            lease: lease.clone(),
        };
        let batch = BatchSpec {
            fingerprint: fp,
            requests: vec![mk(0, 8), mk(1, 3), mk(2, 8)],
            shed: Vec::new(),
            flushed_at: 5,
            trigger: FlushTrigger::Drain,
        };
        let completions = s.execute_one(&batch, ExecRoute::Plan);
        assert_eq!(completions.len(), 3);
        assert!(matches!(
            completions[1].result,
            Err(ServeError::Shape {
                expected: 8,
                actual: 3
            })
        ));
        for c in [&completions[0], &completions[2]] {
            let out = c.result.as_ref().expect("healthy members still serve");
            assert_eq!(out.batch_size, 2, "retried without the offender");
        }
    }

    #[test]
    fn queue_full_rejects_with_retry_hint() {
        let s = SpmvServer::new(ServerConfig {
            queue: QueueConfig {
                max_batch: 8,
                max_delay: 100,
                group_capacity: 8,
                global_capacity: 2,
                ..QueueConfig::default()
            },
            ..ServerConfig::default()
        });
        let fp = s.ingest_coo(&diag(8)).expect("ingest");
        s.submit(fp, vec![1.0; 8], IntegrityPolicy::off()).unwrap();
        s.submit(fp, vec![2.0; 8], IntegrityPolicy::off()).unwrap();
        let err = s
            .submit(fp, vec![3.0; 8], IntegrityPolicy::off())
            .expect_err("queue is full");
        match err {
            ServeError::Rejected(Rejected::QueueFull { retry_after }) => {
                assert_eq!(retry_after, 100, "hint points at the pending flush");
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(s.pending(), 2, "rejected request was not queued");
        assert_eq!(s.overload_stats().rejected_queue_full, 1);
        // Flushing frees the space.
        assert_eq!(s.advance_to(100).len(), 2);
        s.submit(fp, vec![3.0; 8], IntegrityPolicy::off())
            .expect("space freed after flush");
    }

    #[test]
    fn rate_limiter_is_deterministic_on_the_virtual_clock() {
        let s = SpmvServer::new(ServerConfig {
            queue: QueueConfig {
                max_batch: 100,
                max_delay: 1_000,
                rate: Some(crate::queue::RateLimit {
                    burst: 2,
                    period: 10,
                }),
                ..QueueConfig::default()
            },
            ..ServerConfig::default()
        });
        let fp = s.ingest_coo(&diag(8)).expect("ingest");
        let submit = || s.submit(fp, vec![1.0; 8], IntegrityPolicy::off());
        submit().expect("token 1");
        submit().expect("token 2");
        let err = submit().expect_err("bucket empty");
        match err {
            ServeError::Rejected(Rejected::RateLimited { retry_after }) => {
                assert_eq!(retry_after, 10, "next refill is one full period away");
            }
            other => panic!("expected RateLimited, got {other:?}"),
        }
        // One period later exactly one token has refilled.
        s.clock().advance_to(10);
        s.submit(fp, vec![1.0; 8], IntegrityPolicy::off())
            .expect("refilled token");
        let err = s
            .submit(fp, vec![1.0; 8], IntegrityPolicy::off())
            .expect_err("only one token refilled");
        assert!(matches!(
            err,
            ServeError::Rejected(Rejected::RateLimited { retry_after: 10 })
        ));
        assert_eq!(s.overload_stats().rejected_rate_limited, 2);
    }

    #[test]
    fn expired_submission_is_rejected_up_front() {
        let s = server(8, 100);
        let fp = s.ingest_coo(&diag(8)).expect("ingest");
        s.clock().advance_to(50);
        let err = s
            .submit_with_deadline(
                fp,
                vec![1.0; 8],
                IntegrityPolicy::off(),
                Deadline { at: 50 },
            )
            .expect_err("due exactly at now is expired");
        assert!(matches!(
            err,
            ServeError::Rejected(Rejected::DeadlineExceeded { late_by: 0 })
        ));
        assert_eq!(s.pending(), 0);
        assert_eq!(s.overload_stats().rejected_expired, 1);
    }

    #[test]
    fn tight_deadline_flushes_the_group_early() {
        let s = server(8, 1_000);
        let fp = s.ingest_coo(&diag(8)).expect("ingest");
        let (id0, _) = s.submit(fp, vec![1.0; 8], IntegrityPolicy::off()).unwrap();
        let (id1, _) = s
            .submit_with_deadline(
                fp,
                vec![2.0; 8],
                IntegrityPolicy::off(),
                Deadline { at: 40 },
            )
            .unwrap();
        // The tight deadline pulls the whole group's flush to tick 39 —
        // the last tick the member is still runnable.
        assert_eq!(s.next_deadline(), Some(39));
        let done = s.advance_to(39);
        assert_eq!(done.len(), 2);
        for c in &done {
            let out = c.result.as_ref().expect("served before expiry");
            assert_eq!(out.trigger, FlushTrigger::Urgent);
            assert_eq!(out.flushed_at, 39);
        }
        assert_eq!(
            done.iter().map(|c| c.id).collect::<Vec<_>>(),
            vec![id0, id1]
        );
        assert_eq!(s.overload_stats().shed_expired, 0);
    }

    #[test]
    fn expired_queued_request_is_shed_not_executed() {
        let s = server(8, 100);
        let fp = s.ingest_coo(&diag(8)).expect("ingest");
        let (id0, _) = s.submit(fp, vec![1.0; 8], IntegrityPolicy::off()).unwrap();
        let (id1, _) = s
            .submit_with_deadline(
                fp,
                vec![2.0; 8],
                IntegrityPolicy::off(),
                Deadline { at: 40 },
            )
            .unwrap();
        // The driver never checked in before tick 500: the deadline'd
        // request really expired while queued and must be shed; its
        // sibling still serves (stamped at the group's flush tick).
        let done = s.advance_to(500);
        assert_eq!(done.len(), 2);
        let shed = done.iter().find(|c| c.id == id1).expect("present");
        match &shed.result {
            Err(ServeError::Rejected(Rejected::DeadlineExceeded { late_by })) => {
                assert_eq!(*late_by, 460, "500 now − 40 deadline");
            }
            other => panic!("expected shed completion, got {other:?}"),
        }
        let served = done.iter().find(|c| c.id == id0).expect("present");
        assert!(served.result.is_ok());
        assert_eq!(s.overload_stats().shed_expired, 1);
        // The batch log records only what executed.
        assert_eq!(s.batch_log().len(), 1);
        assert_eq!(s.batch_log()[0].request_ids, vec![id0]);
    }

    #[test]
    fn shutdown_drains_and_then_rejects() {
        let s = server(8, 1_000);
        let fp = s.ingest_coo(&diag(8)).expect("ingest");
        let (id0, _) = s.submit(fp, vec![1.0; 8], IntegrityPolicy::off()).unwrap();
        let done = s.shutdown();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id0);
        assert!(done[0].result.is_ok(), "queued work drains to completion");
        assert!(s.is_shutting_down());
        let err = s
            .submit(fp, vec![1.0; 8], IntegrityPolicy::off())
            .expect_err("no admission after shutdown");
        assert!(matches!(err, ServeError::Rejected(Rejected::ShuttingDown)));
        assert_eq!(s.overload_stats().rejected_shutdown, 1);
        assert!(s.shutdown().is_empty(), "second shutdown is a no-op drain");
    }
}
