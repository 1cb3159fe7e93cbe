//! Deterministic discrete-event simulation core.
//!
//! This crate provides the building blocks shared by every simulated subsystem
//! in the monotasks reproduction:
//!
//! * [`time`] — integer-nanosecond simulated time ([`SimTime`], [`SimDuration`]),
//!   chosen over floating-point seconds so that event ordering is exact and runs
//!   are bit-reproducible.
//! * [`events`] — a tie-broken event queue ([`EventQueue`]).
//! * [`resource`] — resource classes ([`ResourceKind`]) and the
//!   concurrency-dependent efficiency curves of CPU pools, HDDs (whose
//!   aggregate throughput *drops* with concurrent accesses due to seeks) and
//!   SSDs (whose throughput *rises* with queue depth up to a device limit).
//! * [`maxmin`] — max-min fair bandwidth allocation for network flows limited
//!   at both sender and receiver, the standard fluid model for shuffle traffic.
//! * [`shard`] — the full-duplex fabric ([`HierFabric`]): exact max-min within
//!   each rack (a flat cluster is one rack under the run's policy), ε-fair
//!   (src-rack, dst-rack) super-classes across the oversubscribed core, and
//!   per-shard completion sweeps with optional scoped-thread fan-out.
//! * [`instant`] — the fault and recovery instants of a traced run
//!   ([`InstantKind`], [`RunInstant`]), defined here so the job/stage runtime
//!   can log its own decisions.
//! * [`fx`] — a deterministic multiply-rotate hasher for hot-path maps keyed
//!   by small integers (no random seed, no external crate).
//! * [`recorder`] — time-weighted utilization traces with interval resampling
//!   and percentile queries, used to regenerate the paper's utilization figures.
//! * [`stats`] — wall-clock counters ([`SimStats`]) for the simulator's own
//!   control plane: events fired, allocator reallocations, allocator time.
//!
//! Apart from the instant vocabulary, which names jobs and tasks by index,
//! nothing in this crate knows about tasks, jobs, or analytics; it is the
//! "operating system and hardware physics" layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod fx;
pub mod instant;
pub mod maxmin;
pub mod recorder;
pub mod resource;
pub mod shard;
pub mod stats;
pub mod time;

pub use events::EventQueue;
pub use fx::{FxHashMap, FxHashSet};
pub use instant::{InstantKind, RunInstant};
pub use maxmin::{FlowAllocator, FlowId, MaxMinPolicy};
pub use recorder::UtilizationRecorder;
pub use resource::ResourceKind;
pub use shard::{HierFabric, RackMap};
pub use stats::{median, SimStats};
pub use time::{SimDuration, SimTime};
