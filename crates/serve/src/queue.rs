//! The admission queue: coalesces concurrent single-vector requests
//! against the same matrix into batches for `Prepared::execute_batch_with` —
//! and, since PR 8, enforces the server's overload policy at the door.
//!
//! Requests are grouped by matrix fingerprint alone: each member keeps
//! its own [`IntegrityPolicy`], and one batched execution
//! (`Prepared::execute_batch_with`) verifies every lane under its own
//! policy, so unverified, sampled and fully verified requests against the
//! same matrix share one executor pass. A group flushes — all of it, every
//! policy — when it holds [`QueueConfig::max_batch`] requests of one
//! [`PolicyClass`] (size trigger), when the *oldest* request in the group
//! has waited
//! [`QueueConfig::max_delay`] ticks (deadline trigger, evaluated against
//! the shared [`crate::VirtualClock`]), or — new — when a member's
//! *completion deadline* is about to expire (urgent trigger: the group
//! flushes at the last tick the member is still runnable). Whatever the
//! trigger, a flushed group leaves as consecutive batches of at most
//! `max_batch` requests in admission order, so no batch is ever wider
//! than `max_batch`. All bookkeeping is deterministic: groups live in a
//! [`BTreeMap`], due batches are ordered by (flush tick, oldest request
//! id), so a fixed arrival trace yields the exact same batch compositions
//! on every run.
//!
//! Overload policy, all typed and all decided at admission or flush
//! time under the server's queue lock:
//!
//! * **bounded admission** — per-matrix and global capacity limits; a
//!   full queue rejects with [`Rejected::QueueFull`] carrying a
//!   `retry_after` hint derived from the earliest pending flush;
//! * **rate limiting** — a deterministic token bucket per
//!   [`PolicyClass`] on the virtual clock ([`Rejected::RateLimited`]);
//! * **deadline shedding** — a request that is already expired at
//!   admission is rejected ([`Rejected::DeadlineExceeded`]); a request
//!   that expires while queued is shed at flush time into
//!   [`BatchSpec::shed`] instead of being executed late. The boundary
//!   is [`Deadline::remaining`]: due exactly at `now` means expired.

use std::collections::BTreeMap;

use spasm::IntegrityPolicy;
use spasm_format::MatrixFingerprint;

use crate::catalog::PlanLease;
use crate::clock::{Deadline, Tick};

/// Configuration for an [`AdmissionQueue`].
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// The widest batch the executor runs: a flushed group leaves as
    /// consecutive batches of at most this many requests. A group also
    /// flushes (every class with it) as soon as it holds this many
    /// requests of one [`PolicyClass`], so a matrix holds as many waiting
    /// requests before a size flush as when each class queued apart. `1`
    /// disables coalescing (every request is its own batch); values are
    /// clamped to at least 1.
    pub max_batch: usize,
    /// Flush a group once its oldest request has waited this many ticks.
    /// `0` makes every request due immediately on the next clock check.
    pub max_delay: Tick,
    /// Maximum queued requests per matrix, whatever their policies;
    /// admission beyond this rejects with [`Rejected::QueueFull`].
    /// Clamped to at least `max_batch` (a group must be allowed to fill a
    /// batch).
    pub group_capacity: usize,
    /// Maximum queued requests across all groups; admission beyond this
    /// rejects with [`Rejected::QueueFull`].
    pub global_capacity: usize,
    /// Optional per-[`PolicyClass`] token-bucket rate limit; `None`
    /// admits at any rate.
    pub rate: Option<RateLimit>,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            max_batch: 8,
            max_delay: 200,
            group_capacity: 1 << 16,
            global_capacity: 1 << 20,
            rate: None,
        }
    }
}

/// A deterministic token bucket: `burst` tokens capacity, one token
/// refilled every `period` ticks of virtual time. Admission takes one
/// token; an empty bucket rejects with [`Rejected::RateLimited`] and the
/// exact tick count until the next refill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket capacity, in requests (clamped to at least 1).
    pub burst: u32,
    /// Ticks between token refills; `0` disables the limiter.
    pub period: Tick,
}

/// Per-class token-bucket state. Buckets start full at tick 0.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    tokens: u32,
    last_refill: Tick,
}

impl TokenBucket {
    fn new(limit: RateLimit) -> Self {
        TokenBucket {
            tokens: limit.burst.max(1),
            last_refill: 0,
        }
    }

    /// Takes one token at `now`, or reports ticks until one refills.
    fn admit(&mut self, limit: RateLimit, now: Tick) -> Result<(), Tick> {
        if limit.period == 0 {
            return Ok(());
        }
        let refills = now.saturating_sub(self.last_refill) / limit.period;
        self.tokens =
            u32::try_from((u64::from(self.tokens) + refills).min(u64::from(limit.burst.max(1))))
                .unwrap_or(u32::MAX);
        self.last_refill += refills * limit.period;
        if self.tokens > 0 {
            self.tokens -= 1;
            Ok(())
        } else {
            Err((self.last_refill + limit.period).saturating_sub(now).max(1))
        }
    }
}

/// Why a request was refused (at admission) or shed (at flush). Every
/// overload decision is typed — nothing is silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Rejected {
    /// The queue (global or the request's group) is at capacity.
    QueueFull {
        /// Ticks until the earliest pending flush frees space — the
        /// client's back-off hint.
        retry_after: Tick,
    },
    /// The request's policy class is over its token-bucket rate.
    RateLimited {
        /// Ticks until the next token refill.
        retry_after: Tick,
    },
    /// The request's completion deadline has passed (at admission: it
    /// arrived expired; at flush: it expired while queued).
    DeadlineExceeded {
        /// How many ticks past the deadline the decision was taken.
        late_by: Tick,
    },
    /// The server is draining for shutdown and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { retry_after } => {
                write!(f, "queue full, retry after {retry_after} ticks")
            }
            Rejected::RateLimited { retry_after } => {
                write!(f, "rate limited, retry after {retry_after} ticks")
            }
            Rejected::DeadlineExceeded { late_by } => {
                write!(f, "deadline exceeded by {late_by} ticks")
            }
            Rejected::ShuttingDown => f.write_str("server is shutting down"),
        }
    }
}

/// The integrity-policy equivalence class that keys the per-class token
/// buckets of [`QueueConfig::rate`] and the per-class count behind the
/// size trigger ([`QueueConfig::max_batch`]). It never decides which
/// requests share a batch.
///
/// [`IntegrityPolicy`] itself is not `Eq`/`Ord` (its tolerance is an
/// `f32`); the class compares the tolerance by bit pattern, so two
/// requests whose policies differ only in NaN payload share a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PolicyClass {
    mode: u8,
    sample: u64,
    seed: u64,
    fallback: bool,
    tolerance_bits: u32,
}

impl From<IntegrityPolicy> for PolicyClass {
    fn from(p: IntegrityPolicy) -> Self {
        use spasm::IntegrityMode;
        let (mode, sample) = match p.mode {
            IntegrityMode::Off => (0u8, 0u64),
            IntegrityMode::Sampled(k) => (1, k as u64),
            IntegrityMode::Full => (2, 0),
            // `IntegrityMode` is non-exhaustive; any future mode lands in
            // its own class so it never shares a bucket with the others.
            _ => (u8::MAX, 0),
        };
        PolicyClass {
            mode,
            sample,
            seed: p.seed,
            fallback: p.fallback,
            tolerance_bits: p.tolerance.to_bits(),
        }
    }
}

/// One admitted request, waiting in (or flushed from) the queue.
///
/// Holds a [`PlanLease`] so the plan it targets cannot be evicted while
/// the request is queued or executing.
#[derive(Debug)]
pub struct QueuedRequest {
    /// The server-assigned request id (monotonic per server).
    pub id: u64,
    /// The integrity policy the request asked for; its lane of the batch
    /// is verified under this policy alone.
    pub policy: IntegrityPolicy,
    /// The input vector.
    pub x: Vec<f32>,
    /// The tick at which the request was admitted.
    pub arrival: Tick,
    /// The request's completion deadline, if it carries one: it must
    /// start executing strictly before this tick or be shed.
    pub deadline: Option<Deadline>,
    /// The pin on the catalog entry this request executes against.
    pub lease: PlanLease,
}

impl QueuedRequest {
    /// The fingerprint of the matrix this request targets.
    pub fn fingerprint(&self) -> MatrixFingerprint {
        self.lease.fingerprint()
    }
}

/// Why a batch left the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushTrigger {
    /// A policy class in the group reached [`QueueConfig::max_batch`].
    Size,
    /// The group's oldest request reached [`QueueConfig::max_delay`].
    Deadline,
    /// A member's completion deadline was about to expire: the group
    /// flushed at the last tick that member was still runnable.
    Urgent,
    /// The queue was drained explicitly (shutdown / end of trace).
    Drain,
}

impl std::fmt::Display for FlushTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlushTrigger::Size => f.write_str("size"),
            FlushTrigger::Deadline => f.write_str("deadline"),
            FlushTrigger::Urgent => f.write_str("urgent"),
            FlushTrigger::Drain => f.write_str("drain"),
        }
    }
}

/// A request shed at flush time: admitted, but expired before its batch
/// left the queue.
#[derive(Debug)]
pub struct ShedRequest {
    /// The expired request (its lease drops when this does).
    pub request: QueuedRequest,
    /// Ticks past the request's deadline at the shedding decision.
    pub late_by: Tick,
}

/// A flushed batch, ready for execution.
#[derive(Debug)]
pub struct BatchSpec {
    /// The matrix all requests target.
    pub fingerprint: MatrixFingerprint,
    /// The runnable member requests, in admission order, each carrying
    /// its own integrity policy.
    pub requests: Vec<QueuedRequest>,
    /// Members whose completion deadline expired while queued: dropped
    /// before execution, completed with
    /// [`Rejected::DeadlineExceeded`] by the server.
    pub shed: Vec<ShedRequest>,
    /// The tick at which the batch left the queue. For deadline flushes
    /// this is the deadline itself (not the tick the driver happened to
    /// check), so latency accounting is independent of how coarsely the
    /// clock is advanced.
    pub flushed_at: Tick,
    /// Why the batch flushed.
    pub trigger: FlushTrigger,
}

/// One matrix's waiting requests, in admission order, and how many of
/// them each policy class holds (the size trigger's count).
#[derive(Debug, Default)]
struct Group {
    requests: Vec<QueuedRequest>,
    per_class: BTreeMap<PolicyClass, usize>,
}

/// The coalescing admission queue. Not internally synchronised — the
/// server wraps it in a mutex and decides compositions (and every
/// shedding decision) under that lock, which is what makes them
/// independent of execution concurrency.
#[derive(Debug)]
pub struct AdmissionQueue {
    config: QueueConfig,
    pending: BTreeMap<MatrixFingerprint, Group>,
    queued: usize,
    buckets: BTreeMap<PolicyClass, TokenBucket>,
}

impl AdmissionQueue {
    /// An empty queue.
    pub fn new(config: QueueConfig) -> Self {
        let max_batch = config.max_batch.max(1);
        AdmissionQueue {
            config: QueueConfig {
                max_batch,
                group_capacity: config.group_capacity.max(max_batch),
                global_capacity: config.global_capacity.max(1),
                ..config
            },
            pending: BTreeMap::new(),
            queued: 0,
            buckets: BTreeMap::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> QueueConfig {
        self.config
    }

    /// Queued requests across all groups.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// `true` when no request is waiting.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Admits a request at `now`, enforcing deadline, rate and capacity
    /// policy in that order. Returns the flushed batches — the request's
    /// whole group, at most `max_batch` requests each — when this
    /// admission brought its policy class in the group to `max_batch`
    /// (the size trigger); otherwise none.
    ///
    /// # Errors
    ///
    /// A typed [`Rejected`] reason; the request (and its lease) is
    /// dropped, nothing is queued.
    pub fn push(&mut self, request: QueuedRequest, now: Tick) -> Result<Vec<BatchSpec>, Rejected> {
        if let Some(deadline) = request.deadline {
            if deadline.remaining(now).is_none() {
                return Err(Rejected::DeadlineExceeded {
                    late_by: now - deadline.at,
                });
            }
        }
        let key = request.fingerprint();
        let class = PolicyClass::from(request.policy);
        if let Some(limit) = self.config.rate {
            let bucket = self
                .buckets
                .entry(class)
                .or_insert_with(|| TokenBucket::new(limit));
            if let Err(retry_after) = bucket.admit(limit, now) {
                return Err(Rejected::RateLimited { retry_after });
            }
        }
        if self.queued >= self.config.global_capacity
            || self.pending.get(&key).map_or(0, |g| g.requests.len()) >= self.config.group_capacity
        {
            let retry_after = self
                .next_deadline()
                .map(|t| t.saturating_sub(now))
                .unwrap_or(self.config.max_delay)
                .max(1);
            return Err(Rejected::QueueFull { retry_after });
        }
        let group = self.pending.entry(key).or_default();
        group.requests.push(request);
        let same_class = group.per_class.entry(class).or_insert(0);
        *same_class += 1;
        let full = *same_class >= self.config.max_batch;
        self.queued += 1;
        if !full {
            return Ok(Vec::new());
        }
        let requests = self.take(&key);
        Ok(self.batches(key, requests, now, now, FlushTrigger::Size))
    }

    /// Removes `key`'s group from the queue, returning its requests.
    fn take(&mut self, key: &MatrixFingerprint) -> Vec<QueuedRequest> {
        let requests = self
            .pending
            .remove(key)
            .map(|g| g.requests)
            .unwrap_or_default();
        self.queued -= requests.len();
        requests
    }

    /// The tick at which `group` must flush, and whether that flush is
    /// urgent (a member's completion deadline forced it earlier than the
    /// coalescing delay would have).
    fn group_flush(&self, group: &[QueuedRequest]) -> Option<(Tick, FlushTrigger)> {
        let oldest = group.first()?;
        let coalesce = Deadline::after(oldest.arrival, self.config.max_delay).at;
        // A member expiring at tick `d` is still runnable at `d - 1`
        // (`Deadline::remaining` is exclusive at the boundary): flush at
        // the last runnable tick to serve it with maximal coalescing.
        let urgent = group
            .iter()
            .filter_map(|r| r.deadline.map(|d| d.at.saturating_sub(1)))
            .min();
        match urgent {
            Some(u) if u < coalesce => Some((u, FlushTrigger::Urgent)),
            _ => Some((coalesce, FlushTrigger::Deadline)),
        }
    }

    /// The earliest flush tick across all groups (coalescing deadline or
    /// urgent completion deadline), if any request waits.
    pub fn next_deadline(&self) -> Option<Tick> {
        self.pending
            .values()
            .filter_map(|g| self.group_flush(&g.requests).map(|(t, _)| t))
            .min()
    }

    /// Flushes every group whose flush tick has passed at `now`, ordered
    /// by (flush tick, oldest request id), each as batches of at most
    /// `max_batch` requests. Each flushed batch's
    /// `flushed_at` is its flush tick, not `now` — but shedding is
    /// decided against the *real* `now`: if the driver advanced the
    /// clock past a member's completion deadline (an overloaded executor
    /// checking in late), that member really did expire and is shed.
    pub fn due(&mut self, now: Tick) -> Vec<BatchSpec> {
        let mut due: Vec<(Tick, u64, MatrixFingerprint, FlushTrigger)> = self
            .pending
            .iter()
            .filter_map(|(key, group)| {
                let (at, trigger) = self.group_flush(&group.requests)?;
                let oldest = group.requests.first()?;
                (at <= now).then_some((at, oldest.id, *key, trigger))
            })
            .collect();
        due.sort_unstable_by_key(|&(at, id, _, _)| (at, id));
        let mut batches = Vec::with_capacity(due.len());
        for (at, _, key, trigger) in due {
            let requests = self.take(&key);
            batches.extend(self.batches(key, requests, at, now, trigger));
        }
        batches
    }

    /// Flushes everything still queued, group by group in (oldest
    /// arrival, oldest id) order, each as batches of at most `max_batch`
    /// requests.
    pub fn drain(&mut self, now: Tick) -> Vec<BatchSpec> {
        let mut groups: Vec<(Tick, u64, MatrixFingerprint)> = self
            .pending
            .iter()
            .filter_map(|(key, group)| {
                let oldest = group.requests.first()?;
                Some((oldest.arrival, oldest.id, *key))
            })
            .collect();
        groups.sort_unstable();
        let mut batches = Vec::with_capacity(groups.len());
        for (_, _, key) in groups {
            let requests = self.take(&key);
            batches.extend(self.batches(key, requests, now, now, FlushTrigger::Drain));
        }
        batches
    }

    /// Splits a flushed group into batches of at most `max_batch`
    /// requests in admission order, shedding members whose completion
    /// deadline has expired at `now` ([`Deadline::remaining`] boundary:
    /// due exactly at `now` is expired) into the first batch. A group
    /// whose members were all shed yields one batch with no requests.
    fn batches(
        &self,
        fingerprint: MatrixFingerprint,
        requests: Vec<QueuedRequest>,
        flushed_at: Tick,
        now: Tick,
        trigger: FlushTrigger,
    ) -> Vec<BatchSpec> {
        let width = self.config.max_batch;
        let mut chunks: Vec<Vec<QueuedRequest>> = Vec::new();
        let mut shed = Vec::new();
        for request in requests {
            match request.deadline {
                Some(d) if d.remaining(now).is_none() => shed.push(ShedRequest {
                    late_by: now - d.at,
                    request,
                }),
                _ => match chunks.last_mut() {
                    Some(chunk) if chunk.len() < width => chunk.push(request),
                    _ => chunks.push(vec![request]),
                },
            }
        }
        if chunks.is_empty() {
            chunks.push(Vec::new());
        }
        let mut shed = Some(shed);
        chunks
            .into_iter()
            .map(|requests| BatchSpec {
                fingerprint,
                requests,
                shed: shed.take().unwrap_or_default(),
                flushed_at,
                trigger,
            })
            .collect()
    }
}
