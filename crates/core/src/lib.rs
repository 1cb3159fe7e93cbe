//! **Monotasks**: the paper's contribution — jobs decomposed into units of
//! work that each consume exactly one resource, scheduled by dedicated
//! per-resource schedulers.
//!
//! The design principles (§3.1) and where this crate implements them:
//!
//! 1. *Each monotask uses one resource* — [`monotask`] defines compute, disk,
//!    and network monotasks; [`decompose`] turns each multitask received from
//!    the job scheduler into a DAG of them (Fig 4).
//! 2. *Monotasks execute in isolation* — a monotask is admitted to its
//!    resource only when every dependency has completed, so it never blocks
//!    mid-execution ([`scheduler`], the Local DAG Scheduler).
//! 3. *Per-resource schedulers control contention* — the CPU scheduler runs
//!    one monotask per core, the HDD scheduler one per disk, the flash
//!    scheduler four per SSD, and the network scheduler admits requests from
//!    at most four multitasks at a time ([`scheduler`]).
//! 4. *Per-resource schedulers have complete control* — disk monotasks flush
//!    writes to disk (no OS buffer cache), and queues round-robin across DAG
//!    phases so reads are not starved behind accumulated writes (§3.3).
//!
//! [`executor`] drives whole jobs on a simulated cluster and emits
//! per-monotask timing records ([`metrics`]) — the raw material of the
//! performance model in the `perfmodel` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decompose;
pub mod executor;
pub mod metrics;
pub mod monotask;
pub mod scheduler;

pub use executor::{run, run_with_faults, try_run, DiskChoice, MonoConfig, MonoRunOutput};
pub use metrics::{MonotaskRecord, Purpose, QueueSnapshot, QueueTrace, QueueTraceIter, Records};
pub use monotask::{MonoOp, Monotask, MultitaskKey};
