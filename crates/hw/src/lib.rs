//! Cycle-approximate simulator of the SPASM hardware accelerator
//! (Section IV-D of the paper).
//!
//! The paper's accelerator is an HBM-attached FPGA design:
//!
//! * a **VALU** per PE — 4 multipliers and 3 adders behind a mux network,
//!   steered by a ≤30-bit opcode decoded from the 4-bit template id
//!   ([`ValuOpcode`]);
//! * a **PE** — double-buffered x-vector buffer, partial-sum y buffer and
//!   the opcode look-up table, compiled once per plan from the portfolio;
//! * **PE groups** of 16 PEs: every 4 PEs share one HBM channel for matrix
//!   values, all 16 share one channel for position encodings, and the
//!   group owns `NUM_XVEC_CH` channels for loading x ([`HwConfig`]);
//! * one HBM channel for the y vector, shared by the whole accelerator.
//!
//! The FPGA itself is not available in this reproduction, so execution is
//! simulated. [`Accelerator::prepare`] builds an [`ExecutionPlan`] once per
//! `(matrix, config)` pair: it caches the decoded instance stream,
//! tile-row layout, LPT schedule and the full [`ExecReport`], and its
//! [`ExecutionPlan::run`] performs the *bit-faithful functional
//! computation* (every MAC goes through the VALU model), allocation-free at
//! steady state. The report's cycles come from a *cycle-approximate timing
//! model* whose terms are per-channel bandwidth, double-buffered x
//! prefetch, pipeline issue rate, tile-switch overhead and per-PE load
//! imbalance. One pricing pass ([`timing::price`]) evaluates it: for the
//! plan's report, for the estimate from a [`spasm_format::TilingSummary`]
//! without touching values ([`perf::estimate_cycles`], the `PERF_MODEL`
//! of Algorithm 4) and for the [`ExecutionTrace`] timeline, so all three
//! agree by construction.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod config;
#[cfg(feature = "fault-injection")]
pub mod fault;
mod integrity;
mod kernel;
pub mod perf;
mod plan;
mod sim;
mod stream;
pub mod timing;
pub mod trace;
mod valu;

pub use config::{ChannelRole, HwConfig, HBM_CHANNEL_GBS, PES_PER_GROUP, PES_PER_VALUE_CHANNEL};
pub use integrity::{merge_health, HealthReport, IntegrityCheck, VerifyScope};
pub use kernel::ClassRun;
pub use plan::{ExecutionPlan, FrozenTile, PlanParts, PlanStreams};
pub use sim::{Accelerator, BatchReport, ExecReport, SimError, Traffic};
pub use stream::{StableBytes, Stream};
pub use trace::{EventKind, ExecutionTrace, TraceEvent};
pub use valu::{OpcodeError, OutNode, ValuOpcode};
