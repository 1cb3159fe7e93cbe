//! Fault and recovery instants: the "when" of a run's recovery record.
//!
//! The aggregate recovery counters (`RecoveryStats`, [`crate::SimStats`])
//! say *how often* something happened; a trace needs to say *when*. One
//! [`RunInstant`] marks each fault firing and each recovery decision of a
//! traced run. The kinds live here, in the crate every other crate depends
//! on, so the job/stage runtime that takes the decisions can log them
//! itself: `dataflow::runtime::Runtime::record` bumps the counter an instant
//! counts against and logs the instant in the same call. The `mt-trace`
//! crate turns the log into Perfetto instant markers on the affected
//! machine's (or owning job's) track.

use serde::{Deserialize, Serialize};

use crate::SimTime;

/// What happened at one instant of a traced run.
///
/// Both executors collect one per fault firing and recovery decision when
/// trace collection is armed (`trace_path` on the executor config). The
/// contract mirrors the fault layer's: collection is observation-only.
/// Logging an instant never changes scheduler state, so runs with collection
/// on are bit-identical to runs with it off, and every recovery counter has
/// exactly as many matching instants as its final value (both proptested in
/// `tests/trace_props.rs`).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum InstantKind {
    /// A machine crashed permanently (fault injection).
    MachineCrash {
        /// Index of the crashed machine.
        machine: usize,
    },
    /// A disk's service-rate scale changed (degradation start or heal).
    DiskScale {
        /// Machine owning the disk.
        machine: usize,
        /// Disk index within the machine.
        disk: usize,
        /// New scale factor (`1.0` = healed).
        factor: f64,
    },
    /// A NIC's bandwidth scale changed (degradation start or heal).
    LinkScale {
        /// Machine whose link changed.
        machine: usize,
        /// New scale factor (`1.0` = healed).
        factor: f64,
    },
    /// One directed fabric pair was cut (partition or link cut).
    PairCut {
        /// Sending machine of the cut direction.
        src: usize,
        /// Receiving machine of the cut direction.
        dst: usize,
    },
    /// One directed fabric pair was restored.
    PairHeal {
        /// Sending machine of the restored direction.
        src: usize,
        /// Receiving machine of the restored direction.
        dst: usize,
    },
    /// A task attempt was re-queued after a failure (counts against
    /// `RecoveryStats::tasks_retried`).
    TaskRetry {
        /// Job index.
        job: u32,
        /// Stage index.
        stage: u32,
        /// Task index.
        task: u32,
        /// Whether the retry is a lineage recomputation of a previously
        /// completed task (vs an aborted in-flight attempt).
        recompute: bool,
    },
    /// A slot-level speculative task copy launched (counts against
    /// `RecoveryStats::tasks_speculated`).
    TaskSpeculate {
        /// Job index.
        job: u32,
        /// Stage index.
        stage: u32,
        /// Task index.
        task: u32,
        /// Machine the copy launched on.
        machine: usize,
    },
    /// A monotask-level speculative copy launched (counts against
    /// `RecoveryStats::mono_copies`).
    MonoCopy {
        /// Job index.
        job: u32,
        /// Stage index.
        stage: u32,
        /// Task index.
        task: u32,
        /// `RES_CPU`/`RES_DISK`/`RES_NET` index of the straggling resource.
        resource: usize,
    },
    /// A monotask-level copy beat its original (counts against
    /// `RecoveryStats::mono_copy_wins`).
    MonoCopyWin {
        /// Job index.
        job: u32,
        /// Stage index.
        stage: u32,
        /// Task index.
        task: u32,
        /// `RES_CPU`/`RES_DISK`/`RES_NET` index of the straggling resource.
        resource: usize,
    },
    /// An execution template was invalidated by a placement change (counts
    /// against `StageControlStats::template_invalidations`).
    TemplateInvalidate {
        /// Job index.
        job: u32,
        /// Consumer stage whose template was dropped.
        stage: u32,
    },
    /// A stalled fetch burned one retry decision (counts against
    /// `RecoveryStats::fetch_retries`).
    FetchRetry {
        /// Job index.
        job: u32,
        /// Stage index.
        stage: u32,
        /// Retry number within the attempt's budget.
        attempt: u32,
    },
    /// A fetch's source assignment was re-planned around an unreachable
    /// sender (counts against `RecoveryStats::fetches_replanned`).
    FetchReplan {
        /// Job index.
        job: u32,
        /// Stage index.
        stage: u32,
    },
}

impl InstantKind {
    /// The machine this instant is anchored to, if any — fault instants
    /// render on the affected machine's trace track, recovery instants on
    /// the owning job's track.
    pub fn machine(&self) -> Option<usize> {
        match *self {
            InstantKind::MachineCrash { machine }
            | InstantKind::DiskScale { machine, .. }
            | InstantKind::LinkScale { machine, .. } => Some(machine),
            InstantKind::PairCut { dst, .. } | InstantKind::PairHeal { dst, .. } => Some(dst),
            InstantKind::TaskSpeculate { machine, .. } => Some(machine),
            _ => None,
        }
    }

    /// The job this instant belongs to, if any (fault instants are
    /// cluster-level and belong to none).
    pub fn job(&self) -> Option<u32> {
        match *self {
            InstantKind::TaskRetry { job, .. }
            | InstantKind::TaskSpeculate { job, .. }
            | InstantKind::MonoCopy { job, .. }
            | InstantKind::MonoCopyWin { job, .. }
            | InstantKind::TemplateInvalidate { job, .. }
            | InstantKind::FetchRetry { job, .. }
            | InstantKind::FetchReplan { job, .. } => Some(job),
            _ => None,
        }
    }

    /// Short label for trace rendering, stable across runs.
    pub fn label(&self) -> &'static str {
        match self {
            InstantKind::MachineCrash { .. } => "crash",
            InstantKind::DiskScale { .. } => "disk_scale",
            InstantKind::LinkScale { .. } => "link_scale",
            InstantKind::PairCut { .. } => "pair_cut",
            InstantKind::PairHeal { .. } => "pair_heal",
            InstantKind::TaskRetry { .. } => "task_retry",
            InstantKind::TaskSpeculate { .. } => "task_speculate",
            InstantKind::MonoCopy { .. } => "mono_copy",
            InstantKind::MonoCopyWin { .. } => "mono_copy_win",
            InstantKind::TemplateInvalidate { .. } => "template_invalidate",
            InstantKind::FetchRetry { .. } => "fetch_retry",
            InstantKind::FetchReplan { .. } => "fetch_replan",
        }
    }
}

/// One timestamped instant of a traced run.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct RunInstant {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: InstantKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_anchors_route_fault_and_recovery_instants() {
        let crash = InstantKind::MachineCrash { machine: 3 };
        assert_eq!(crash.machine(), Some(3));
        assert_eq!(crash.job(), None);
        assert_eq!(crash.label(), "crash");

        let retry = InstantKind::TaskRetry {
            job: 1,
            stage: 2,
            task: 3,
            recompute: true,
        };
        assert_eq!(retry.machine(), None);
        assert_eq!(retry.job(), Some(1));

        let cut = InstantKind::PairCut { src: 0, dst: 4 };
        assert_eq!(cut.machine(), Some(4));
    }
}
