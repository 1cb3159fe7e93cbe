//! Executor-facing job description: stages of tasks with explicit resource
//! demands.
//!
//! A [`JobSpec`] is the contract between the planner and the two executors.
//! It says nothing about *how* resources are used — that is exactly the
//! difference between the baseline (fine-grained pipelining) and monotasks
//! (single-resource units) — only *what* must be read, computed, and written.

use serde::{Deserialize, Serialize};

use crate::types::{BlockId, StageId};

/// CPU work of one task, split the way a compute monotask reports it (§6.3):
/// deserialization, operator computation, serialization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CpuWork {
    /// Seconds spent deserializing input.
    pub deser: f64,
    /// Seconds of operator computation.
    pub compute: f64,
    /// Seconds spent serializing output.
    pub ser: f64,
}

impl CpuWork {
    /// Total CPU-seconds.
    pub fn total(&self) -> f64 {
        self.deser + self.compute + self.ser
    }
}

/// Where a task's input comes from.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum InputSpec {
    /// No input (a generator task).
    None,
    /// A block of an on-disk file (HDFS-style); located via
    /// [`crate::blocks::BlockMap`].
    DiskBlock {
        /// Which block of the job's input file.
        block: BlockId,
        /// Serialized bytes to read from disk.
        bytes: f64,
    },
    /// A cached in-memory partition on the machine that hosts it.
    Memory {
        /// In-memory size in bytes.
        bytes: f64,
    },
    /// Shuffled output of every task of the dependency stages. The executor
    /// splits the fetch across upstream machines in proportion to the shuffle
    /// bytes each produced; the local share does not cross the network.
    ShuffleFetch {
        /// Total serialized bytes this task fetches.
        bytes: f64,
    },
}

impl InputSpec {
    /// Bytes of input, regardless of source.
    pub fn bytes(&self) -> f64 {
        match *self {
            InputSpec::None => 0.0,
            InputSpec::DiskBlock { bytes, .. }
            | InputSpec::Memory { bytes }
            | InputSpec::ShuffleFetch { bytes } => bytes,
        }
    }
}

/// Where a task's output goes.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum OutputSpec {
    /// No materialized output (e.g. a count returned to the driver).
    None,
    /// Shuffle data for a later stage, written to a local disk — or kept in
    /// memory when `in_memory` (the ML workload "stores shuffle data
    /// in-memory", §5.2).
    ShuffleWrite {
        /// Serialized shuffle bytes produced by this task.
        bytes: f64,
        /// Skip the disk: keep shuffle data in memory.
        in_memory: bool,
    },
    /// Job output written to the distributed file system (a local disk).
    DiskWrite {
        /// Serialized bytes written.
        bytes: f64,
    },
    /// Output cached in memory.
    Memory {
        /// In-memory size in bytes.
        bytes: f64,
    },
}

impl OutputSpec {
    /// Bytes that must be written to a local disk (0 for in-memory sinks).
    pub fn disk_bytes(&self) -> f64 {
        match *self {
            OutputSpec::ShuffleWrite {
                bytes,
                in_memory: false,
            }
            | OutputSpec::DiskWrite { bytes } => bytes,
            _ => 0.0,
        }
    }

    /// Shuffle bytes produced (on disk or in memory).
    pub fn shuffle_bytes(&self) -> f64 {
        match *self {
            OutputSpec::ShuffleWrite { bytes, .. } => bytes,
            _ => 0.0,
        }
    }
}

/// One task: the unit the job scheduler assigns to a machine (a "multitask"
/// in monotasks terminology).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Input demand.
    pub input: InputSpec,
    /// CPU demand.
    pub cpu: CpuWork,
    /// Output demand.
    pub output: OutputSpec,
}

/// A stage: parallel tasks with the same shape, plus shuffle dependencies.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StageSpec {
    /// This stage's id (its index in [`JobSpec::stages`]).
    pub id: StageId,
    /// Stages whose shuffle output this stage fetches.
    pub deps: Vec<StageId>,
    /// Human-readable label ("map", "reduce", "join").
    pub name: String,
    /// The stage's tasks.
    pub tasks: Vec<TaskSpec>,
}

impl StageSpec {
    /// Total bytes this stage's tasks fetch via shuffle.
    pub fn total_shuffle_fetch(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| match t.input {
                InputSpec::ShuffleFetch { bytes } => bytes,
                _ => 0.0,
            })
            .sum()
    }

    /// Total shuffle bytes this stage's tasks produce.
    pub fn total_shuffle_write(&self) -> f64 {
        self.tasks.iter().map(|t| t.output.shuffle_bytes()).sum()
    }

    /// Total CPU-seconds across tasks.
    pub fn total_cpu(&self) -> f64 {
        self.tasks.iter().map(|t| t.cpu.total()).sum()
    }
}

/// A job: stages in topological order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobSpec {
    /// Human-readable job name.
    pub name: String,
    /// Stages, topologically ordered (deps precede dependents).
    pub stages: Vec<StageSpec>,
}

impl JobSpec {
    /// Validates structural invariants, returning a description of the first
    /// violation. Executors call this before running.
    pub fn validate(&self) -> Result<(), String> {
        for (i, st) in self.stages.iter().enumerate() {
            if st.id != StageId(i as u32) {
                return Err(format!("stage {i} has id {:?}", st.id));
            }
            if st.tasks.is_empty() {
                return Err(format!("stage {i} has no tasks"));
            }
            let fetches = st
                .tasks
                .iter()
                .any(|t| matches!(t.input, InputSpec::ShuffleFetch { .. }));
            if fetches && st.deps.is_empty() {
                return Err(format!("stage {i} fetches shuffle data but has no deps"));
            }
            if !fetches && !st.deps.is_empty() {
                return Err(format!("stage {i} has deps but fetches no shuffle data"));
            }
            for d in &st.deps {
                if d.0 as usize >= i {
                    return Err(format!("stage {i} depends on later stage {:?}", d));
                }
                let dep = &self.stages[d.0 as usize];
                let writes = dep
                    .tasks
                    .iter()
                    .any(|t| matches!(t.output, OutputSpec::ShuffleWrite { .. }));
                if !writes {
                    return Err(format!(
                        "stage {i} depends on stage {:?} which writes no shuffle data",
                        d
                    ));
                }
            }
            if fetches {
                // Fetched bytes must equal the dependencies' shuffle output.
                let fetched: f64 = st.total_shuffle_fetch();
                let produced: f64 = st
                    .deps
                    .iter()
                    .map(|d| self.stages[d.0 as usize].total_shuffle_write())
                    .sum();
                let denom = produced.max(1.0);
                if ((fetched - produced) / denom).abs() > 1e-6 {
                    return Err(format!(
                        "stage {i} fetches {fetched} B but deps produced {produced} B"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Total number of tasks across stages.
    pub fn total_tasks(&self) -> usize {
        self.stages.iter().map(|s| s.tasks.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_task(read: f64, shuffle_out: f64) -> TaskSpec {
        TaskSpec {
            input: InputSpec::DiskBlock {
                block: BlockId(0),
                bytes: read,
            },
            cpu: CpuWork {
                deser: 1.0,
                compute: 2.0,
                ser: 0.5,
            },
            output: OutputSpec::ShuffleWrite {
                bytes: shuffle_out,
                in_memory: false,
            },
        }
    }

    fn reduce_task(fetch: f64, out: f64) -> TaskSpec {
        TaskSpec {
            input: InputSpec::ShuffleFetch { bytes: fetch },
            cpu: CpuWork::default(),
            output: OutputSpec::DiskWrite { bytes: out },
        }
    }

    fn two_stage_job() -> JobSpec {
        JobSpec {
            name: "t".into(),
            stages: vec![
                StageSpec {
                    id: StageId(0),
                    deps: vec![],
                    name: "map".into(),
                    tasks: vec![map_task(100.0, 50.0), map_task(100.0, 50.0)],
                },
                StageSpec {
                    id: StageId(1),
                    deps: vec![StageId(0)],
                    name: "reduce".into(),
                    tasks: vec![reduce_task(50.0, 10.0), reduce_task(50.0, 10.0)],
                },
            ],
        }
    }

    #[test]
    fn valid_job_passes() {
        assert_eq!(two_stage_job().validate(), Ok(()));
    }

    #[test]
    fn shuffle_byte_mismatch_detected() {
        let mut j = two_stage_job();
        j.stages[1].tasks[0] = reduce_task(10.0, 10.0);
        assert!(j.validate().unwrap_err().contains("fetches"));
    }

    #[test]
    fn dep_on_later_stage_detected() {
        let mut j = two_stage_job();
        j.stages[1].deps = vec![StageId(1)];
        assert!(j.validate().unwrap_err().contains("later stage"));
    }

    #[test]
    fn fetch_without_dep_detected() {
        let mut j = two_stage_job();
        j.stages[1].deps.clear();
        assert!(j.validate().unwrap_err().contains("no deps"));
    }

    #[test]
    fn aggregates() {
        let j = two_stage_job();
        assert_eq!(j.total_tasks(), 4);
        assert_eq!(j.stages[0].total_shuffle_write(), 100.0);
        assert_eq!(j.stages[1].total_shuffle_fetch(), 100.0);
        assert_eq!(j.stages[0].total_cpu(), 7.0);
    }

    #[test]
    fn output_byte_helpers() {
        let o = OutputSpec::ShuffleWrite {
            bytes: 5.0,
            in_memory: true,
        };
        assert_eq!(o.disk_bytes(), 0.0);
        assert_eq!(o.shuffle_bytes(), 5.0);
        assert_eq!(OutputSpec::DiskWrite { bytes: 7.0 }.disk_bytes(), 7.0);
    }
}
