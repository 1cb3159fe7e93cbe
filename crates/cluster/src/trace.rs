//! Cluster-wide utilization traces.
//!
//! [`crate::Hosts`] records each machine's CPU, per-disk, and NIC busy
//! fractions into a [`TraceSet`] at every event. The paper's utilization
//! figures are then queries against the set:
//!
//! * Fig 2 / Fig 9 — second-by-second series for one machine.
//! * Fig 6 — percentiles of the most- and second-most-utilized resource over
//!   a stage, across machines.
//!
//! The other half of a run's trace, its fault and recovery instants, is
//! `simcore::instant`'s: the job/stage runtime logs those as it decides.

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime, UtilizationRecorder};

use crate::fluid::{DiskId, FluidMachine, MachineId};

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

/// One recorder with the pair it traces.
type Keyed = ((MachineId, ResourceSel), UtilizationRecorder);

/// Utilization recorders for every `(machine, resource)` pair.
///
/// Each machine's recorders form one list in [`ResourceSel`] order (CPU,
/// disks by index, NIC), indexed by machine id. Once a machine has been
/// snapshotted, each of its resources sits at a fixed position in that
/// list, so recording a sample costs no search.
#[derive(Debug, Default)]
pub struct TraceSet {
    machines: Vec<Vec<Keyed>>,
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
        if self.machines.len() <= machine.0 {
            self.machines.resize_with(machine.0 + 1, Vec::new);
        }
        let recs = &mut self.machines[machine.0];
        // Where `sel` sits once a snapshot has recorded every resource.
        let slot = match sel {
            ResourceSel::Cpu => 0,
            ResourceSel::Disk(d) => d.saturating_add(1),
            ResourceSel::Network => recs.len().saturating_sub(1),
        };
        let i = match recs.get(slot) {
            Some(((_, s), _)) if *s == sel => slot,
            _ => match recs.binary_search_by_key(&sel, |((_, s), _)| *s) {
                Ok(i) => i,
                Err(i) => {
                    recs.insert(i, ((machine, sel), UtilizationRecorder::new()));
                    i
                }
            },
        };
        recs[i].1.set(now, value);
    }

    /// The recorder for a `(machine, resource)` pair, if it has samples.
    pub fn recorder(&self, machine: MachineId, sel: ResourceSel) -> Option<&UtilizationRecorder> {
        let recs = self.machines.get(machine.0)?;
        let i = recs.binary_search_by_key(&sel, |((_, s), _)| *s).ok()?;
        Some(&recs[i].1)
    }

    /// Every `(machine, resource)` recorder, in deterministic key order.
    /// Powers the trace exporter's utilization counter tracks.
    pub fn iter(&self) -> impl Iterator<Item = (&(MachineId, ResourceSel), &UtilizationRecorder)> {
        self.machines.iter().flatten().map(|(key, rec)| (key, rec))
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
        self.machines
            .iter()
            .filter_map(|recs| recs.first().map(|((m, _), _)| *m))
            .collect()
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

    /// The per-machine lists keep `(machine, resource)` key order, and
    /// report only pairs that were set, whatever order the sets come in.
    #[test]
    fn recorders_iterate_in_key_order_whatever_the_set_order() {
        use ResourceSel::{Cpu, Disk, Network};
        let sets = [
            (2, Network),
            (0, Disk(1)),
            (2, Cpu),
            (0, Network),
            (0, Disk(0)),
            (0, Cpu),
            (2, Disk(0)),
            (0, Disk(1)),
        ];
        let mut ts = TraceSet::new();
        for (m, sel) in sets {
            ts.set(t(0), MachineId(m), sel, 0.5);
        }
        let keys: Vec<_> = ts.iter().map(|(k, _)| *k).collect();
        let mut want: Vec<_> = sets.iter().map(|&(m, s)| (MachineId(m), s)).collect();
        want.sort();
        want.dedup();
        assert_eq!(keys, want);
        assert_eq!(ts.machines(), vec![MachineId(0), MachineId(2)]);
        assert!(ts.recorder(MachineId(0), Disk(1)).is_some());
        assert!(ts.recorder(MachineId(1), Cpu).is_none());
        assert!(ts.recorder(MachineId(2), Disk(1)).is_none());
        assert!(ts.recorder(MachineId(9), Cpu).is_none());
    }

    #[test]
    fn percentile_helper() {
        let v = [0.1, 0.9, 0.5, 0.3];
        assert!((percentile(&v, 0.0) - 0.1).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 0.9).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
