//! Analytics dataflow layer: the jobs both executors run.
//!
//! This crate plays the role Spark's DAG layer plays in the paper (§2.1): it
//! turns a high-level description of a computation into **stages** of parallel
//! **tasks** with known input, CPU, and output demands. The same [`JobSpec`]
//! is handed to the baseline pipelined executor and to the monotasks executor,
//! mirroring how MonoSpark "runs exactly the same Scala code" as Spark (§4) —
//! only the resource orchestration differs.
//!
//! Two layers:
//!
//! * The **planned** layer ([`plan`], [`stage`], [`cost`], [`blocks`]) carries
//!   resource demands (bytes, records, CPU-seconds) derived from a cost model
//!   and drives the simulated executors.
//! * The **reference** layer ([`mod@reference`]) is a real, typed, in-memory
//!   dataset engine (map / flatMap / filter / reduceByKey / sortByKey / join)
//!   that actually computes answers. It exists to pin down the semantics the
//!   planned operators describe, and powers runnable examples.
//!
//! [`runtime`] is the job/stage scheduler both simulated executors share:
//! pending queues, lineage, retries and partition recovery. [`driver`] is
//! their shared event loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod cost;
pub mod driver;
pub mod error;
pub mod plan;
pub mod reference;
pub mod report;
pub mod runtime;
pub mod stage;
pub mod types;

pub use blocks::BlockMap;
pub use cost::CostModel;
pub use error::RunError;
pub use plan::JobBuilder;
pub use reference::LocalDataset;
pub use report::{
    JobReport, RecoveryStats, StageControlStats, StageReport, RES_CPU, RES_DISK, RES_NET,
};
pub use stage::{CpuWork, InputSpec, JobSpec, OutputSpec, StageSpec, TaskSpec};
pub use types::{BlockId, JobId, PartitionId, StageId, TaskId};
