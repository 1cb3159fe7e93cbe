//! Per-stage resource profiles aggregated from monotask records.
//!
//! Because every monotask reports its resource, purpose, and timing, building
//! a stage's resource profile is a fold over the records — no extra
//! instrumentation, which is the architectural point of §6.5.

use std::collections::BTreeMap;

use dataflow::{JobId, JobReport, StageId};
use monotasks_core::{MonotaskRecord, Purpose, Records};
use serde::{Deserialize, Serialize};
use simcore::ResourceKind;

/// Total resource consumption of some scope (a stage, or one job of a
/// multi-job run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceUse {
    /// CPU core-seconds.
    pub cpu_secs: f64,
    /// Bytes through disks.
    pub disk_bytes: f64,
    /// Bytes through NICs.
    pub net_bytes: f64,
}

/// One stage's aggregated resource profile.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StageProfile {
    /// Owning job.
    pub job: JobId,
    /// Which stage.
    pub stage: StageId,
    /// Measured wall-clock stage duration in seconds.
    pub measured_secs: f64,
    /// Total compute-monotask service time (core-seconds).
    pub cpu_secs: f64,
    /// Portion of `cpu_secs` spent deserializing (subtractable in §6.3's
    /// in-memory what-if).
    pub cpu_deser_secs: f64,
    /// Portion of `cpu_secs` spent serializing output (scalable in the §9
    /// faster-serializer what-if).
    pub cpu_ser_secs: f64,
    /// Bytes read from disk as job input.
    pub input_read_bytes: f64,
    /// All other disk bytes (shuffle reads/writes/serves, output writes).
    pub other_disk_bytes: f64,
    /// Bytes received over the network.
    pub net_bytes: f64,
    /// Whether this stage reads the job's input (so the in-memory what-if
    /// applies to it).
    pub reads_job_input: bool,
}

impl StageProfile {
    /// All disk bytes.
    pub fn disk_bytes(&self) -> f64 {
        self.input_read_bytes + self.other_disk_bytes
    }
}

/// Builds per-stage profiles from monotask `records` and the stage windows in
/// `reports`. Stages are returned in `(job, stage)` order.
pub fn profile_stages(records: &Records, reports: &[JobReport]) -> Vec<StageProfile> {
    let mut map: BTreeMap<(JobId, StageId), StageProfile> = BTreeMap::new();
    for report in reports {
        for st in &report.stages {
            map.insert(
                (report.job, st.stage),
                StageProfile {
                    job: report.job,
                    stage: st.stage,
                    measured_secs: st.duration().as_secs_f64(),
                    cpu_secs: 0.0,
                    cpu_deser_secs: 0.0,
                    cpu_ser_secs: 0.0,
                    input_read_bytes: 0.0,
                    other_disk_bytes: 0.0,
                    net_bytes: 0.0,
                    reads_job_input: false,
                },
            );
        }
    }
    for (r, cpu) in records.with_cpu() {
        let key = (r.multitask.job, r.multitask.stage);
        let p = map
            .get_mut(&key)
            .expect("record for a stage missing from reports");
        match r.resource {
            ResourceKind::Cpu => {
                p.cpu_secs += r.service_secs();
                if let Some(cpu) = cpu {
                    // Attribute wall time to components proportionally (they
                    // execute back-to-back on one core, so this is exact up
                    // to rounding).
                    let total = cpu.total();
                    if total > 0.0 {
                        p.cpu_deser_secs += r.service_secs() * cpu.deser / total;
                        p.cpu_ser_secs += r.service_secs() * cpu.ser / total;
                    }
                }
            }
            ResourceKind::Disk => {
                if r.purpose == Purpose::ReadInput {
                    p.input_read_bytes += r.bytes;
                    p.reads_job_input = true;
                } else {
                    p.other_disk_bytes += r.bytes;
                }
            }
            ResourceKind::Network => p.net_bytes += r.bytes,
        }
    }
    map.into_values().collect()
}

/// Exact per-job resource attribution from monotask records — trivially
/// correct even with concurrent jobs (Fig 16's monotasks side).
pub fn attribute_by_records(records: &[MonotaskRecord], job: JobId) -> ResourceUse {
    let mut u = ResourceUse::default();
    for r in records.iter().filter(|r| r.multitask.job == job) {
        match r.resource {
            ResourceKind::Cpu => u.cpu_secs += r.service_secs(),
            ResourceKind::Disk => u.disk_bytes += r.bytes,
            ResourceKind::Network => u.net_bytes += r.bytes,
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterSpec, MachineSpec};
    use dataflow::{BlockMap, CostModel, JobBuilder};
    use monotasks_core::MonoConfig;

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

    fn run_sort() -> (Records, Vec<JobReport>) {
        let total = 2.0 * GIB;
        let job = JobBuilder::new("sort", CostModel::spark_1_3())
            .read_disk(total, total / 100.0, total / 16.0)
            .map(1.0, 1.0, true)
            .shuffle(16, false)
            .map(1.0, 1.0, true)
            .write_disk(1.0);
        let blocks = BlockMap::round_robin(16, 4, 2);
        let out = monotasks_core::run(
            &ClusterSpec::new(4, MachineSpec::m2_4xlarge()),
            &[(job, blocks)],
            &MonoConfig::default(),
        );
        (out.records, out.jobs)
    }

    #[test]
    fn profiles_cover_all_stages_with_positive_use() {
        let (records, reports) = run_sort();
        let profiles = profile_stages(&records, &reports);
        assert_eq!(profiles.len(), 2);
        let map = &profiles[0];
        assert!(map.reads_job_input);
        assert!(map.input_read_bytes > 0.0);
        assert!(map.other_disk_bytes > 0.0, "shuffle write bytes");
        assert!(map.cpu_secs > 0.0);
        assert!(map.cpu_deser_secs > 0.0 && map.cpu_deser_secs < map.cpu_secs);
        assert!(map.cpu_ser_secs > 0.0 && map.cpu_ser_secs < map.cpu_secs);
        let reduce = &profiles[1];
        assert!(!reduce.reads_job_input);
        assert!(reduce.net_bytes > 0.0);
        assert!(reduce.measured_secs > 0.0);
    }

    #[test]
    fn attribution_sums_to_profile_totals() {
        let (records, reports) = run_sort();
        let profiles = profile_stages(&records, &reports);
        let total: f64 = profiles.iter().map(|p| p.disk_bytes()).sum();
        let attr = attribute_by_records(&records, JobId(0));
        assert!((attr.disk_bytes - total).abs() / total < 1e-9);
        assert!(attr.cpu_secs > 0.0 && attr.net_bytes > 0.0);
    }
}
