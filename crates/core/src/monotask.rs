//! Monotask types: single-resource units of work and their DAG structure.

use dataflow::{CpuWork, JobId, StageId, TaskId};
use serde::{Deserialize, Serialize};

use crate::metrics::Purpose;

/// Globally unique monotask index into the executor's arena.
pub type MonotaskGid = usize;

/// Identifies one multitask (one task of one stage of one job).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct MultitaskKey {
    /// Owning job.
    pub job: JobId,
    /// Owning stage.
    pub stage: StageId,
    /// Task within the stage.
    pub task: TaskId,
}

/// The single-resource operation a monotask performs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MonoOp {
    /// Runs on one CPU core. The split is kept for the performance model
    /// (§6.3 subtracts deserialization time in what-if analyses).
    Compute {
        /// CPU-seconds, split as a compute monotask reports them.
        work: CpuWork,
    },
    /// Reads `bytes` from local disk `disk` on `machine`.
    DiskRead {
        /// Machine whose disk is read (a shuffle serve runs remotely).
        machine: usize,
        /// Which local disk.
        disk: usize,
        /// Bytes read.
        bytes: f64,
    },
    /// Writes `bytes` to local disk `disk` on `machine`, flushed through to
    /// the platters (monotasks never leave writes in the buffer cache, §3.1).
    DiskWrite {
        /// Machine whose disk is written.
        machine: usize,
        /// Which local disk.
        disk: usize,
        /// Bytes written.
        bytes: f64,
    },
    /// Fetches `bytes` of shuffle data from `from` over the network into this
    /// multitask's machine. When `via_disk`, the remote machine first runs a
    /// disk-read monotask for the requested data (Fig 4's shuffle chain);
    /// otherwise the data is served from the remote machine's memory.
    NetFetch {
        /// Sender machine.
        from: usize,
        /// Which of the sender's disks holds the data (when `via_disk`).
        remote_disk: usize,
        /// Bytes transferred.
        bytes: f64,
        /// Whether a remote disk read precedes the transfer.
        via_disk: bool,
    },
}

impl MonoOp {
    /// Bytes moved by I/O monotasks (0 for compute).
    pub fn bytes(&self) -> f64 {
        match *self {
            MonoOp::Compute { .. } => 0.0,
            MonoOp::DiskRead { bytes, .. }
            | MonoOp::DiskWrite { bytes, .. }
            | MonoOp::NetFetch { bytes, .. } => bytes,
        }
    }
}

/// A node of a multitask's monotask DAG.
#[derive(Clone, Debug)]
pub struct Monotask {
    /// The operation.
    pub op: MonoOp,
    /// Why this monotask exists (input read, shuffle write, …) — drives the
    /// disk queues' phase round-robin and the metrics records.
    pub purpose: Purpose,
    /// Number of in-DAG dependencies not yet complete.
    pub deps_remaining: usize,
    /// DAG successors, as indices *within the owning multitask*.
    pub dependents: Vec<usize>,
}

impl Monotask {
    /// A monotask with no dependencies yet.
    pub fn new(op: MonoOp, purpose: Purpose) -> Monotask {
        Monotask {
            op,
            purpose,
            deps_remaining: 0,
            dependents: Vec::new(),
        }
    }
}

/// A multitask's full DAG, produced by [`crate::decompose::decompose`] on the
/// worker.
#[derive(Clone, Debug, Default)]
pub struct MonotaskDag {
    /// The DAG nodes; edges are [`Monotask::dependents`] +
    /// [`Monotask::deps_remaining`].
    pub nodes: Vec<Monotask>,
}

impl MonotaskDag {
    /// Adds a node, returning its local index.
    pub fn push(&mut self, m: Monotask) -> usize {
        self.nodes.push(m);
        self.nodes.len() - 1
    }

    /// Adds a dependency edge `before → after`.
    pub fn edge(&mut self, before: usize, after: usize) {
        self.nodes[before].dependents.push(after);
        self.nodes[after].deps_remaining += 1;
    }

    /// Indices of nodes with no dependencies (the DAG roots).
    pub fn roots(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.deps_remaining == 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Checks the DAG is acyclic and every node is reachable from a root.
    pub fn is_well_formed(&self) -> bool {
        let mut indeg: Vec<usize> = self.nodes.iter().map(|n| n.deps_remaining).collect();
        let mut ready: Vec<usize> = self.roots();
        let mut seen = 0;
        while let Some(i) = ready.pop() {
            seen += 1;
            for &d in &self.nodes[i].dependents {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    ready.push(d);
                }
            }
        }
        seen == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute(secs: f64) -> Monotask {
        Monotask::new(
            MonoOp::Compute {
                work: CpuWork {
                    deser: 0.0,
                    compute: secs,
                    ser: 0.0,
                },
            },
            Purpose::Compute,
        )
    }

    #[test]
    fn dag_edges_track_dependencies() {
        let mut dag = MonotaskDag::default();
        let a = dag.push(compute(1.0));
        let b = dag.push(compute(1.0));
        let c = dag.push(compute(1.0));
        dag.edge(a, c);
        dag.edge(b, c);
        assert_eq!(dag.roots(), vec![a, b]);
        assert_eq!(dag.nodes[c].deps_remaining, 2);
        assert!(dag.is_well_formed());
    }

    #[test]
    fn cycle_detected_as_malformed() {
        let mut dag = MonotaskDag::default();
        let a = dag.push(compute(1.0));
        let b = dag.push(compute(1.0));
        dag.edge(a, b);
        dag.edge(b, a);
        assert!(!dag.is_well_formed());
    }

    #[test]
    fn op_bytes() {
        assert_eq!(
            MonoOp::DiskRead {
                machine: 0,
                disk: 0,
                bytes: 42.0
            }
            .bytes(),
            42.0
        );
        assert_eq!(
            MonoOp::Compute {
                work: CpuWork::default()
            }
            .bytes(),
            0.0
        );
    }
}
