//! SPASM serving front-end: a multi-tenant SpMV service over prepared
//! execution plans.
//!
//! The engine below this crate gives two primitives an inference-style
//! server needs: cheap plan reuse ([`spasm::Prepared`]) and batched
//! execution that is bit-identical to looped single-vector runs
//! (`Prepared::execute_batch`). This crate adds the serving layer:
//!
//! * [`PlanCatalog`] — a content-addressed cache of prepared plans,
//!   keyed by [`spasm_format::MatrixFingerprint`] (CRC-32 + length +
//!   shape of the canonical v2 wire stream), with LRU eviction under a
//!   byte budget and pin-while-in-flight leases;
//! * [`AdmissionQueue`] — coalesces concurrent single-vector requests
//!   against the same matrix into batches of at most `max_batch` lanes
//!   whatever their integrity policies (each lane is verified under its
//!   own), flushed by size or
//!   by deadline on a [`VirtualClock`] (tests never
//!   sleep; traces replay exactly), with bounded capacity, per-class
//!   token-bucket rate limiting and typed [`Rejected`] refusals;
//! * [`breaker`] — a per-plan circuit breaker: plans whose integrity
//!   keeps failing are quarantined and served straight from the golden
//!   CSR until a deterministic half-open probe re-admits them;
//! * [`SpmvServer`] — ties them together and executes flushed batches,
//!   optionally across worker threads (which can change throughput but
//!   never batch composition or results), with deadline-aware load
//!   shedding, panic isolation at the batch boundary and graceful
//!   drain on [`SpmvServer::shutdown`].
//!
//! Serving cost is measured in wall-clock time by the end-to-end
//! benchmark (`perfbench --workload serve`), not modelled here.
//!
//! Determinism is the design spine: a fixed seed and virtual-clock
//! schedule produce the same batch compositions, the same rejections,
//! sheds and quarantine transitions, and bit-identical outputs on every
//! run, for any worker count (`tests/serving.rs`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod breaker;
mod catalog;
mod clock;
mod queue;
mod server;

pub use breaker::{BreakerConfig, BreakerEvent, BreakerState, ExecRoute, PlanHealth};
pub use catalog::{
    prepared_bytes, CatalogConfig, CatalogEntry, CatalogError, PlanCatalog, PlanLease,
};
pub use clock::{Deadline, Tick, VirtualClock};
pub use queue::{
    AdmissionQueue, BatchSpec, FlushTrigger, PolicyClass, QueueConfig, QueuedRequest, RateLimit,
    Rejected, ShedRequest,
};
pub use server::{
    BatchRecord, Completion, Output, OverloadStats, ServeError, ServerConfig, SpmvServer,
};
