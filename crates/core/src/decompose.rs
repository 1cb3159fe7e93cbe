//! Multitask → monotask decomposition (Fig 4).
//!
//! Decomposition happens "on worker machines rather than by the central job
//! scheduler" (§3.2): the job scheduler assigns ordinary data-parallel tasks
//! (multitasks), and this module expands each into its DAG of single-resource
//! monotasks once the task arrives at a machine:
//!
//! * a map multitask becomes *disk read → compute → disk write*;
//! * a reduce multitask becomes one network-fetch monotask per remote sender
//!   (each of which triggers a disk-read monotask on the sender when shuffle
//!   data lives on disk) plus a local shuffle-read monotask, all feeding
//!   *compute → disk write*;
//! * in-memory inputs and outputs simply omit the corresponding I/O nodes.
//!
//! The executor does not call this per task: it stamps each DAG from the
//! stage's execution template (`dataflow::runtime::StageTemplate`).
//! [`decompose`] is the
//! reference that stamping must reproduce, and debug builds assert every
//! launch against it.

use dataflow::{InputSpec, OutputSpec, TaskSpec};

use crate::metrics::Purpose;
use crate::monotask::{MonoOp, Monotask, MonotaskDag};

/// One sender's share of a reduce multitask's shuffle fetch.
#[derive(Clone, Copy, Debug)]
pub struct SenderShare {
    /// Sender machine.
    pub machine: usize,
    /// Disk on the sender holding the data (meaningful when `via_disk`).
    pub disk: usize,
    /// Bytes to fetch from this sender.
    pub bytes: f64,
    /// Whether the data lives on the sender's disk (false: in memory).
    pub via_disk: bool,
}

/// Placement facts the worker needs to expand a multitask, including the
/// serve disk of every sender share.
#[derive(Clone, Debug, Default)]
pub struct DecomposeCtx {
    /// The machine executing the multitask.
    pub machine: usize,
    /// Disk for the input block (when the input is a disk block).
    pub input_disk: usize,
    /// Disk chosen for this multitask's output write.
    pub write_disk: usize,
    /// Per-sender shuffle shares (when the input is a shuffle fetch). The
    /// entry for `machine` itself is read locally without the network.
    pub senders: Vec<SenderShare>,
}

/// Expands one multitask into its monotask DAG.
pub fn decompose(task: &TaskSpec, ctx: &DecomposeCtx) -> MonotaskDag {
    let mut dag = MonotaskDag::default();
    let compute = dag.push(Monotask::new(
        MonoOp::Compute { work: task.cpu },
        Purpose::Compute,
    ));

    match task.input {
        InputSpec::None | InputSpec::Memory { .. } => {}
        InputSpec::DiskBlock { bytes, .. } => {
            if bytes > 0.0 {
                let read = dag.push(Monotask::new(
                    MonoOp::DiskRead {
                        machine: ctx.machine,
                        disk: ctx.input_disk,
                        bytes,
                    },
                    Purpose::ReadInput,
                ));
                dag.edge(read, compute);
            }
        }
        InputSpec::ShuffleFetch { .. } => {
            for s in &ctx.senders {
                if s.bytes <= 0.0 {
                    continue;
                }
                if s.machine == ctx.machine {
                    // The local share is read straight from local disk (or is
                    // already in memory, in which case no monotask is needed).
                    if s.via_disk {
                        let read = dag.push(Monotask::new(
                            MonoOp::DiskRead {
                                machine: ctx.machine,
                                disk: s.disk,
                                bytes: s.bytes,
                            },
                            Purpose::ReadShuffleLocal,
                        ));
                        dag.edge(read, compute);
                    }
                } else {
                    let fetch = dag.push(Monotask::new(
                        MonoOp::NetFetch {
                            from: s.machine,
                            remote_disk: s.disk,
                            bytes: s.bytes,
                            via_disk: s.via_disk,
                        },
                        Purpose::NetTransfer,
                    ));
                    dag.edge(fetch, compute);
                }
            }
        }
    }

    match task.output {
        OutputSpec::None | OutputSpec::Memory { .. } => {}
        OutputSpec::ShuffleWrite { bytes, in_memory } => {
            if !in_memory && bytes > 0.0 {
                let write = dag.push(Monotask::new(
                    MonoOp::DiskWrite {
                        machine: ctx.machine,
                        disk: ctx.write_disk,
                        bytes,
                    },
                    Purpose::WriteShuffle,
                ));
                dag.edge(compute, write);
            }
        }
        OutputSpec::DiskWrite { bytes } => {
            if bytes > 0.0 {
                let write = dag.push(Monotask::new(
                    MonoOp::DiskWrite {
                        machine: ctx.machine,
                        disk: ctx.write_disk,
                        bytes,
                    },
                    Purpose::WriteOutput,
                ));
                dag.edge(compute, write);
            }
        }
    }

    debug_assert!(dag.is_well_formed());
    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::{BlockId, CpuWork};

    fn cpu() -> CpuWork {
        CpuWork {
            deser: 1.0,
            compute: 2.0,
            ser: 0.5,
        }
    }

    fn ctx() -> DecomposeCtx {
        DecomposeCtx {
            machine: 0,
            input_disk: 1,
            write_disk: 0,
            senders: vec![],
        }
    }

    #[test]
    fn map_task_is_read_compute_write() {
        let task = TaskSpec {
            input: InputSpec::DiskBlock {
                block: BlockId(0),
                bytes: 100.0,
            },
            cpu: cpu(),
            output: OutputSpec::ShuffleWrite {
                bytes: 50.0,
                in_memory: false,
            },
        };
        let dag = decompose(&task, &ctx());
        assert_eq!(dag.nodes.len(), 3);
        // Exactly one root: the disk read.
        let roots = dag.roots();
        assert_eq!(roots.len(), 1);
        assert!(matches!(
            dag.nodes[roots[0]].op,
            MonoOp::DiskRead { bytes, disk: 1, .. } if bytes == 100.0
        ));
        assert!(dag.is_well_formed());
    }

    #[test]
    fn reduce_task_fetches_remote_and_reads_local() {
        let task = TaskSpec {
            input: InputSpec::ShuffleFetch { bytes: 100.0 },
            cpu: cpu(),
            output: OutputSpec::DiskWrite { bytes: 80.0 },
        };
        let mut c = ctx();
        c.senders = vec![
            SenderShare {
                machine: 0,
                disk: 0,
                bytes: 25.0,
                via_disk: true,
            },
            SenderShare {
                machine: 1,
                disk: 1,
                bytes: 75.0,
                via_disk: true,
            },
        ];
        let dag = decompose(&task, &c);
        // compute + local read + net fetch + output write.
        assert_eq!(dag.nodes.len(), 4);
        let fetches: Vec<_> = dag
            .nodes
            .iter()
            .filter(|n| matches!(n.op, MonoOp::NetFetch { .. }))
            .collect();
        assert_eq!(fetches.len(), 1);
        assert!(matches!(
            fetches[0].op,
            MonoOp::NetFetch { from: 1, bytes, .. } if bytes == 75.0
        ));
        let local: Vec<_> = dag
            .nodes
            .iter()
            .filter(|n| n.purpose == Purpose::ReadShuffleLocal)
            .collect();
        assert_eq!(local.len(), 1);
    }

    #[test]
    fn in_memory_job_is_compute_only() {
        let task = TaskSpec {
            input: InputSpec::Memory { bytes: 100.0 },
            cpu: cpu(),
            output: OutputSpec::Memory { bytes: 10.0 },
        };
        let dag = decompose(&task, &ctx());
        assert_eq!(dag.nodes.len(), 1);
        assert!(matches!(dag.nodes[0].op, MonoOp::Compute { .. }));
    }

    #[test]
    fn in_memory_shuffle_skips_disks() {
        let task = TaskSpec {
            input: InputSpec::ShuffleFetch { bytes: 100.0 },
            cpu: cpu(),
            output: OutputSpec::ShuffleWrite {
                bytes: 100.0,
                in_memory: true,
            },
        };
        let mut c = ctx();
        c.senders = vec![
            SenderShare {
                machine: 0,
                disk: 0,
                bytes: 50.0,
                via_disk: false,
            },
            SenderShare {
                machine: 2,
                disk: 0,
                bytes: 50.0,
                via_disk: false,
            },
        ];
        let dag = decompose(&task, &c);
        // Local in-memory share needs no monotask; remote is a fetch with no
        // remote disk read; output stays in memory.
        assert_eq!(dag.nodes.len(), 2);
        assert!(dag.nodes.iter().any(|n| matches!(
            n.op,
            MonoOp::NetFetch {
                via_disk: false,
                ..
            }
        )));
    }

    #[test]
    fn zero_byte_io_is_elided() {
        let task = TaskSpec {
            input: InputSpec::DiskBlock {
                block: BlockId(0),
                bytes: 0.0,
            },
            cpu: cpu(),
            output: OutputSpec::DiskWrite { bytes: 0.0 },
        };
        let dag = decompose(&task, &ctx());
        assert_eq!(dag.nodes.len(), 1);
    }
}
