//! Simulated cluster hardware for the monotasks reproduction.
//!
//! The paper evaluates on EC2 clusters of 8-vCPU machines with ~60 GB of RAM
//! and either two HDDs or one/two SSDs, connected by ~1 Gbps links. This crate
//! models exactly the hardware properties the evaluation exercises:
//!
//! * [`hw`] — machine and cluster specifications, with presets matching the
//!   paper's instance types.
//! * [`fluid`] — a coupled fluid allocator. Fine-grained pipelined tasks
//!   (today's frameworks, §2.1) are streams that use several resources
//!   simultaneously and progress at the rate of their most contended
//!   resource; monotasks are streams with a single non-zero demand, so one
//!   allocator serves both executors symmetrically.
//! * [`cache`] — the OS buffer cache: asynchronous write-back that defers and
//!   hides disk writes, the behaviour §3.1 and §5.3 identify as a source of
//!   unpredictability (and of Spark's win on query 1c).
//! * [`trace`] — per-machine, per-resource utilization traces used to
//!   regenerate the paper's utilization figures.
//! * [`hosts`] — the machine layer both executors share: every machine's
//!   allocator with its batches, completion polls, machine-local faults and
//!   sampling.
//! * [`faults`] — deterministic fault injection: scheduled machine crashes,
//!   disk/link degradation windows, and task stragglers (DESIGN.md §6). Each
//!   fault action lowers to the [`InstantKind`] a traced run logs for it;
//!   the instant types themselves live in `simcore`, re-exported here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod faults;
pub mod fluid;
pub mod hosts;
pub mod hw;
pub mod trace;

pub use cache::{BufferCache, CachePolicy, WriteOutcome};
pub use faults::{FaultAction, FaultEvent, FaultPlan, FaultSpec};
pub use fluid::{DiskId, FluidMachine, MachineId, StreamDemand, StreamId};
pub use hosts::Hosts;
pub use hw::{ClusterSpec, DiskKind, DiskSpec, MachineSpec, RackTopology};
pub use simcore::{InstantKind, RunInstant};
pub use trace::{ClassMeans, ResourceSel, TraceSet};
