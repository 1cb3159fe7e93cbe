//! Cluster-wide utilization traces.
//!
//! [`crate::Hosts`] records each machine's CPU, per-disk, and NIC busy
//! fractions into a [`TraceSet`] at every event. The paper's utilization
//! figures are then queries against the set:
//!
//! * Fig 2 / Fig 9 — second-by-second series for one machine.
//! * Fig 6 — percentiles of the most- and second-most-utilized resource over
//!   a stage, across machines.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime, UtilizationRecorder};

use crate::faults::FaultAction;
use crate::fluid::{DiskId, FluidMachine, MachineId};

/// What happened at one instant of a traced run.
///
/// The aggregate recovery counters (`RecoveryStats`, `SimStats`) say *how
/// often* something happened; a trace needs to say *when*. Both executors
/// push one [`RunInstant`] per fault firing and recovery decision into their
/// run output when trace collection is armed (`trace_path` on the executor
/// config), and the `mt-trace` crate turns them into Perfetto instant
/// markers on the affected machine's (or owning job's) track.
///
/// The contract mirrors the fault layer's: collection is observation-only.
/// Pushing an instant never changes scheduler state, so runs with collection
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

impl From<&FaultAction> for InstantKind {
    /// The instant marker an executor emits when it applies `action` — the
    /// same lowering for both executors, so traces agree on fault taxonomy.
    fn from(action: &FaultAction) -> InstantKind {
        match *action {
            FaultAction::Crash { machine } => InstantKind::MachineCrash { machine },
            FaultAction::SetDiskScale {
                machine,
                disk,
                factor,
            } => InstantKind::DiskScale {
                machine,
                disk,
                factor,
            },
            FaultAction::SetLinkScale { machine, factor } => {
                InstantKind::LinkScale { machine, factor }
            }
            FaultAction::CutPair { src, dst } => InstantKind::PairCut { src, dst },
            FaultAction::HealPair { src, dst } => InstantKind::PairHeal { src, dst },
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

/// Selects one traced resource on a machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum ResourceSel {
    /// The CPU core pool.
    Cpu,
    /// One local disk.
    Disk(usize),
    /// NIC receive bandwidth.
    Network,
}

/// Utilization recorders for every `(machine, resource)` pair.
#[derive(Debug, Default)]
pub struct TraceSet {
    traces: BTreeMap<(MachineId, ResourceSel), UtilizationRecorder>,
}

/// Per-resource-class mean utilizations over a window, for one machine.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClassMeans {
    /// Mean CPU busy fraction.
    pub cpu: f64,
    /// Mean busy fraction of the busiest disk.
    pub disk: f64,
    /// Mean NIC receive busy fraction.
    pub network: f64,
}

impl ClassMeans {
    /// Returns `(most, second)` utilized resource classes by mean.
    pub fn top_two(&self) -> (f64, f64) {
        let mut v = [self.cpu, self.disk, self.network];
        v.sort_by(|a, b| b.partial_cmp(a).expect("NaN utilization"));
        (v[0], v[1])
    }
}

impl TraceSet {
    /// Creates an empty trace set.
    pub fn new() -> TraceSet {
        TraceSet::default()
    }

    /// Snapshots all busy fractions of `machine` at `now`.
    ///
    /// [`crate::Hosts::commit`] calls this after every event; the recorders
    /// coalesce unchanged values, so the cost is proportional to actual
    /// utilization changes.
    pub(crate) fn snapshot(&mut self, now: SimTime, id: MachineId, machine: &FluidMachine) {
        self.set(now, id, ResourceSel::Cpu, machine.cpu_busy());
        for d in 0..machine.spec().disks.len() {
            self.set(now, id, ResourceSel::Disk(d), machine.disk_busy(DiskId(d)));
        }
        self.set(now, id, ResourceSel::Network, machine.rx_busy());
    }

    /// Records a single value.
    pub fn set(&mut self, now: SimTime, machine: MachineId, sel: ResourceSel, value: f64) {
        self.traces
            .entry((machine, sel))
            .or_default()
            .set(now, value);
    }

    /// The recorder for a `(machine, resource)` pair, if it has samples.
    pub fn recorder(&self, machine: MachineId, sel: ResourceSel) -> Option<&UtilizationRecorder> {
        self.traces.get(&(machine, sel))
    }

    /// Every `(machine, resource)` recorder, in deterministic key order.
    /// Powers the trace exporter's utilization counter tracks.
    pub fn iter(&self) -> impl Iterator<Item = (&(MachineId, ResourceSel), &UtilizationRecorder)> {
        self.traces.iter()
    }

    /// Second-by-second (or any interval) utilization series for one
    /// resource on one machine over `[from, to)`.
    pub fn series(
        &self,
        machine: MachineId,
        sel: ResourceSel,
        from: SimTime,
        to: SimTime,
        interval: SimDuration,
    ) -> Vec<f64> {
        match self.recorder(machine, sel) {
            Some(r) => r.series(from, to, interval),
            None => {
                let mut out = Vec::new();
                let mut start = from;
                while start < to {
                    out.push(0.0);
                    start = start.saturating_add(interval).min(to);
                }
                out
            }
        }
    }

    /// Mean utilization per resource class for `machine` over `[from, to)`.
    /// The disk class reports the busiest disk (the paper plots "one of the
    /// disks" as the disk bottleneck).
    pub fn class_means(&self, machine: MachineId, from: SimTime, to: SimTime) -> ClassMeans {
        let mean = |sel: ResourceSel| {
            self.recorder(machine, sel)
                .map_or(0.0, |r| r.mean_over(from, to))
        };
        let mut disk = 0.0f64;
        let mut d = 0;
        while let Some(r) = self.recorder(machine, ResourceSel::Disk(d)) {
            disk = disk.max(r.mean_over(from, to));
            d += 1;
        }
        ClassMeans {
            cpu: mean(ResourceSel::Cpu),
            disk,
            network: mean(ResourceSel::Network),
        }
    }

    /// Machines with at least one recorded sample.
    pub fn machines(&self) -> Vec<MachineId> {
        let mut ids: Vec<MachineId> = self.traces.keys().map(|(m, _)| *m).collect();
        ids.dedup();
        ids
    }

    /// `(most, second)` utilized class means for every machine over a window
    /// — the samples behind each box in Fig 6.
    pub fn top_two_samples(&self, from: SimTime, to: SimTime) -> Vec<(f64, f64)> {
        self.machines()
            .into_iter()
            .map(|m| self.class_means(m, from, to).top_two())
            .collect()
    }
}

/// Nearest-rank percentile of a sample set (0–100). Returns 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::{StreamDemand, StreamId};
    use crate::hw::{DiskSpec, MachineSpec, MIB};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn snapshot_records_all_resources() {
        let spec = MachineSpec {
            cores: 2,
            memory: 1024.0 * MIB,
            disks: vec![DiskSpec::hdd()],
            nic: 125.0 * MIB,
        };
        let mut m = FluidMachine::new(spec);
        let mut ts = TraceSet::new();
        ts.snapshot(SimTime::ZERO, MachineId(0), &m);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(5.0, 1));
        ts.snapshot(SimTime::ZERO, MachineId(0), &m);
        let cm = ts.class_means(MachineId(0), t(0), t(1));
        assert!((cm.cpu - 0.5).abs() < 1e-9);
        assert_eq!(cm.disk, 0.0);
        assert_eq!(cm.network, 0.0);
        assert_eq!(cm.top_two(), (0.5, 0.0));
    }

    #[test]
    fn series_defaults_to_zero_without_samples() {
        let ts = TraceSet::new();
        let s = ts.series(
            MachineId(3),
            ResourceSel::Cpu,
            t(0),
            t(3),
            SimDuration::from_secs(1),
        );
        assert_eq!(s, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn top_two_orders_classes() {
        let mut ts = TraceSet::new();
        ts.set(t(0), MachineId(0), ResourceSel::Cpu, 0.9);
        ts.set(t(0), MachineId(0), ResourceSel::Disk(0), 0.4);
        ts.set(t(0), MachineId(0), ResourceSel::Disk(1), 0.6);
        ts.set(t(0), MachineId(0), ResourceSel::Network, 0.1);
        let samples = ts.top_two_samples(t(0), t(10));
        assert_eq!(samples.len(), 1);
        let (most, second) = samples[0];
        assert!((most - 0.9).abs() < 1e-9);
        // Disk class = busiest disk (0.6).
        assert!((second - 0.6).abs() < 1e-9);
    }

    #[test]
    fn instant_anchors_route_fault_and_recovery_instants() {
        let crash = InstantKind::MachineCrash { machine: 3 };
        assert_eq!(crash.machine(), Some(3));
        assert_eq!(crash.job(), None);
        assert_eq!(crash.label(), "crash");
        assert_eq!(InstantKind::from(&FaultAction::Crash { machine: 3 }), crash);

        let retry = InstantKind::TaskRetry {
            job: 1,
            stage: 2,
            task: 3,
            recompute: true,
        };
        assert_eq!(retry.machine(), None);
        assert_eq!(retry.job(), Some(1));

        let cut = InstantKind::from(&FaultAction::CutPair { src: 0, dst: 4 });
        assert_eq!(cut.machine(), Some(4));
    }

    #[test]
    fn percentile_helper() {
        let v = [0.1, 0.9, 0.5, 0.3];
        assert!((percentile(&v, 0.0) - 0.1).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 0.9).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
