//! Hardware specifications and the calibration constants of the reproduction.
//!
//! All numbers that stand in for the paper's EC2 hardware live here so the
//! calibration story is auditable in one place. We target the *ratios* the
//! paper's evaluation depends on (disk vs CPU vs network balance), not the
//! absolute speeds of 2017 hardware.

use serde::{Deserialize, Serialize};
use simcore::resource::EfficiencyCurve;

/// One mebibyte in bytes; disk and network throughputs are given in MiB/s.
pub const MIB: f64 = 1024.0 * 1024.0;

/// One gibibyte in bytes.
pub const GIB: f64 = 1024.0 * MIB;

/// Disk technology, which determines the concurrency-efficiency curve.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DiskKind {
    /// Spinning disk: concurrent streams trigger seeks and *reduce* aggregate
    /// throughput (§5.4: controlling contention roughly doubled throughput).
    Hdd,
    /// Flash: needs several outstanding operations to reach peak throughput
    /// (§3.3: four outstanding monotasks achieved near-maximum throughput).
    Ssd,
}

/// A disk's performance envelope.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DiskSpec {
    /// Technology class.
    pub kind: DiskKind,
    /// Peak sequential throughput in bytes per second.
    pub throughput: f64,
    /// HDD: throughput-loss factor per extra concurrent *reader* (mild —
    /// kernel readahead batches sequential readers). SSD: ignored.
    pub read_seek_factor: f64,
    /// HDD: throughput-loss factor per *writer* interleaved with other
    /// traffic (harsh — head travel between regions). SSD: ignored.
    pub write_seek_factor: f64,
    /// HDD: minimum fraction of sequential throughput retained under heavy
    /// interleaving (the OS elevator batches requests). SSD: ignored.
    pub seek_floor: f64,
    /// SSD: outstanding operations needed for peak throughput. HDD: ignored.
    pub queue_depth: u32,
}

impl DiskSpec {
    /// The paper-era spinning disk: ~110 MiB/s sequential. Extra concurrent
    /// readers cost 8% each (readahead keeps parallel sequential scans
    /// efficient), while each interleaved writer costs 60%; a default Spark
    /// configuration's four readers plus a write-back stream per disk
    /// therefore lose ~2× aggregate throughput — matching §5.4's "roughly
    /// twice the disk throughput" observation — and the floor of 35% models
    /// the OS elevator's batching.
    pub fn hdd() -> DiskSpec {
        DiskSpec {
            kind: DiskKind::Hdd,
            throughput: 110.0 * MIB,
            read_seek_factor: 0.08,
            write_seek_factor: 0.6,
            seek_floor: 0.35,
            queue_depth: 1,
        }
    }

    /// The paper-era SSD (i2.2xlarge-class): ~450 MiB/s at queue depth 4.
    pub fn ssd() -> DiskSpec {
        DiskSpec {
            kind: DiskKind::Ssd,
            throughput: 450.0 * MIB,
            read_seek_factor: 0.0,
            write_seek_factor: 0.0,
            seek_floor: 1.0,
            queue_depth: 4,
        }
    }

    /// Concurrency-dependent efficiency curve the machine allocator applies.
    pub fn efficiency(&self) -> EfficiencyCurve {
        match self.kind {
            DiskKind::Hdd => EfficiencyCurve::HddSeek {
                read_factor: self.read_seek_factor,
                write_factor: self.write_seek_factor,
                floor: self.seek_floor,
            },
            DiskKind::Ssd => EfficiencyCurve::SsdQueueDepth {
                depth: self.queue_depth,
            },
        }
    }

    /// Aggregate throughput with `k ≥ 1` concurrent readers.
    pub fn throughput_at(&self, k: usize) -> f64 {
        self.throughput * self.efficiency().at(k)
    }

    /// Aggregate throughput with `k_r` readers and `k_w` writers.
    pub fn throughput_at_rw(&self, k_r: usize, k_w: usize) -> f64 {
        self.throughput * self.efficiency().at_rw(k_r, k_w)
    }

    /// The ideal concurrency a per-disk scheduler should allow (§3.3):
    /// one monotask per HDD, `queue_depth` per SSD.
    pub fn scheduler_slots(&self) -> usize {
        match self.kind {
            DiskKind::Hdd => 1,
            DiskKind::Ssd => self.queue_depth as usize,
        }
    }
}

/// A worker machine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MachineSpec {
    /// CPU cores (the paper's instances expose 8 vCPUs).
    pub cores: u32,
    /// RAM in bytes (~60 GB on the paper's instances).
    pub memory: f64,
    /// Locally attached disks.
    pub disks: Vec<DiskSpec>,
    /// NIC bandwidth in bytes per second, full duplex (≈1 Gbps).
    pub nic: f64,
}

impl MachineSpec {
    /// The paper's HDD instance: 8 cores, 60 GB RAM, two HDDs, 1 Gbps.
    pub fn m2_4xlarge() -> MachineSpec {
        MachineSpec {
            cores: 8,
            memory: 60.0 * GIB,
            disks: vec![DiskSpec::hdd(), DiskSpec::hdd()],
            nic: 125.0 * MIB,
        }
    }

    /// The paper's SSD instance: 8 cores, 60 GB RAM, `n` SSDs, 1 Gbps.
    pub fn i2_2xlarge(n_ssds: usize) -> MachineSpec {
        MachineSpec {
            cores: 8,
            memory: 60.0 * GIB,
            disks: vec![DiskSpec::ssd(); n_ssds],
            nic: 125.0 * MIB,
        }
    }

    /// Total disk-scheduler slots across all disks (§3.4's concurrency sum).
    pub fn disk_slots(&self) -> usize {
        self.disks.iter().map(DiskSpec::scheduler_slots).sum()
    }
}

/// Physical rack layout of a cluster: which machines share a rack, and the
/// aggregation bandwidth each rack's uplink/downlink to the cluster core
/// carries. Present on a [`ClusterSpec`] it switches the monotasks executor's
/// fabric to the hierarchical two-level allocator (`simcore::shard`): exact
/// max-min inside each rack, rack-pair super-classes across the core.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RackTopology {
    /// Machine indices per rack. Must partition `0..machines`: every machine
    /// in exactly one rack, no empty rack ([`RackTopology::validate`]).
    pub racks: Vec<Vec<usize>>,
    /// Per-rack aggregation transmit (uplink) bandwidth in bytes per second.
    pub agg_tx: f64,
    /// Per-rack aggregation receive (downlink) bandwidth in bytes per second.
    pub agg_rx: f64,
}

impl RackTopology {
    /// Uniform racks of `rack_size` consecutive machines (last rack takes the
    /// remainder), with each rack's aggregation link sized
    /// `rack_size × nic / oversubscription`. `oversubscription = 1` is a
    /// non-blocking core; datacenter cores typically run 2–8× oversubscribed.
    ///
    /// # Panics
    ///
    /// Panics if `machines` or `rack_size` is zero, or `oversubscription` is
    /// not strictly positive and finite.
    pub fn uniform(
        machines: usize,
        rack_size: usize,
        nic: f64,
        oversubscription: f64,
    ) -> RackTopology {
        assert!(machines > 0, "no machines");
        assert!(rack_size > 0, "zero rack size");
        assert!(
            oversubscription.is_finite() && oversubscription > 0.0,
            "bad oversubscription factor: {oversubscription}"
        );
        let racks: Vec<Vec<usize>> = (0..machines)
            .collect::<Vec<_>>()
            .chunks(rack_size)
            .map(|c| c.to_vec())
            .collect();
        let agg = rack_size as f64 * nic / oversubscription;
        RackTopology {
            racks,
            agg_tx: agg,
            agg_rx: agg,
        }
    }

    /// Number of racks.
    pub fn n_racks(&self) -> usize {
        self.racks.len()
    }

    /// Checks the topology against a cluster of `machines` workers: racks
    /// must partition the machine set (no empty rack, no duplicate or
    /// out-of-range machine, no machine left rackless) and the aggregation
    /// bandwidths must be positive and finite.
    pub fn validate(&self, machines: usize) -> Result<(), String> {
        if !(self.agg_tx.is_finite() && self.agg_tx > 0.0) {
            return Err(format!(
                "rack aggregation tx bandwidth {} must be finite and > 0",
                self.agg_tx
            ));
        }
        if !(self.agg_rx.is_finite() && self.agg_rx > 0.0) {
            return Err(format!(
                "rack aggregation rx bandwidth {} must be finite and > 0",
                self.agg_rx
            ));
        }
        // RackMap::from_groups performs the partition check itself; reuse it
        // so cluster-level validation and the fabric agree exactly.
        simcore::RackMap::from_groups(machines, &self.racks).map(|_| ())
    }

    /// The validated machine → rack assignment for the fabric.
    pub fn rack_map(&self, machines: usize) -> Result<simcore::RackMap, String> {
        simcore::RackMap::from_groups(machines, &self.racks)
    }
}

/// A homogeneous cluster of workers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of worker machines.
    pub machines: usize,
    /// Per-machine hardware.
    pub machine: MachineSpec,
    /// Optional rack layout. `None` (the default) is a flat fabric: one rack
    /// spanning the cluster, allocated under the run's ε/Δ policy.
    #[serde(default)]
    pub topology: Option<RackTopology>,
}

impl ClusterSpec {
    /// Builds a cluster of `machines` identical workers on a flat fabric.
    pub fn new(machines: usize, machine: MachineSpec) -> ClusterSpec {
        ClusterSpec {
            machines,
            machine,
            topology: None,
        }
    }

    /// Builds a rack-organized cluster: uniform racks of `rack_size`
    /// machines, aggregation links `oversubscription`× under the racks'
    /// aggregate NIC bandwidth.
    pub fn with_racks(
        machines: usize,
        machine: MachineSpec,
        rack_size: usize,
        oversubscription: f64,
    ) -> ClusterSpec {
        let nic = machine.nic;
        let mut spec = ClusterSpec::new(machines, machine);
        spec.topology = Some(RackTopology::uniform(
            machines,
            rack_size,
            nic,
            oversubscription,
        ));
        spec
    }

    /// Total cores in the cluster.
    pub fn total_cores(&self) -> u32 {
        self.machines as u32 * self.machine.cores
    }

    /// Checks the spec is physically meaningful: at least one machine, at
    /// least one core, positive finite memory/NIC, and every disk with a
    /// positive finite throughput and sane efficiency constants. Returns a
    /// descriptive error instead of letting downstream rate arithmetic
    /// produce NaNs or deadlocks.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines == 0 {
            return Err("cluster has zero machines".into());
        }
        let m = &self.machine;
        if m.cores == 0 {
            return Err("machine has zero cores".into());
        }
        if !(m.memory.is_finite() && m.memory > 0.0) {
            return Err(format!(
                "machine memory {} must be finite and > 0",
                m.memory
            ));
        }
        if !(m.nic.is_finite() && m.nic > 0.0) {
            return Err(format!(
                "machine NIC bandwidth {} must be finite and > 0",
                m.nic
            ));
        }
        for (i, d) in m.disks.iter().enumerate() {
            if !(d.throughput.is_finite() && d.throughput > 0.0) {
                return Err(format!(
                    "disk {i} throughput {} must be finite and > 0",
                    d.throughput
                ));
            }
            if !(d.read_seek_factor.is_finite() && d.read_seek_factor >= 0.0) {
                return Err(format!(
                    "disk {i} read_seek_factor {} must be finite and >= 0",
                    d.read_seek_factor
                ));
            }
            if !(d.write_seek_factor.is_finite() && d.write_seek_factor >= 0.0) {
                return Err(format!(
                    "disk {i} write_seek_factor {} must be finite and >= 0",
                    d.write_seek_factor
                ));
            }
            if !(d.seek_floor.is_finite() && d.seek_floor > 0.0 && d.seek_floor <= 1.0) {
                return Err(format!(
                    "disk {i} seek_floor {} must be in (0, 1]",
                    d.seek_floor
                ));
            }
            if d.kind == DiskKind::Ssd && d.queue_depth == 0 {
                return Err(format!("SSD disk {i} has zero queue depth"));
            }
        }
        if let Some(topo) = &self.topology {
            topo.validate(self.machines)
                .map_err(|e| format!("rack topology: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_contention_roughly_halves_with_writer_in_the_mix() {
        let d = DiskSpec::hdd();
        let solo = d.throughput_at(1);
        // Four readers plus a write-back stream: the default-Spark mix.
        let mixed = d.throughput_at_rw(4, 1);
        let loss = solo / mixed;
        assert!(loss > 1.6 && loss < 3.0, "loss factor {loss}");
        // Pure parallel sequential readers degrade only mildly.
        let readers = d.throughput_at(4);
        assert!(solo / readers < 1.4, "read-only loss {}", solo / readers);
        // A lone writer is sequential.
        assert_eq!(d.throughput_at_rw(0, 1), solo);
    }

    #[test]
    fn ssd_peaks_at_queue_depth() {
        let d = DiskSpec::ssd();
        assert!(d.throughput_at(1) < d.throughput_at(4));
        assert_eq!(d.throughput_at(4), d.throughput_at(8));
        assert_eq!(d.scheduler_slots(), 4);
    }

    #[test]
    fn presets_match_paper_shape() {
        let m = MachineSpec::m2_4xlarge();
        assert_eq!(m.cores, 8);
        assert_eq!(m.disks.len(), 2);
        assert_eq!(m.disk_slots(), 2);
        let s = MachineSpec::i2_2xlarge(2);
        assert_eq!(s.disk_slots(), 8);
        let c = ClusterSpec::new(20, m);
        assert_eq!(c.total_cores(), 160);
    }

    #[test]
    fn rack_topology_validation() {
        let m = MachineSpec::m2_4xlarge();
        // Uniform construction partitions and validates.
        let c = ClusterSpec::with_racks(10, m.clone(), 4, 2.5);
        assert!(c.validate().is_ok());
        let topo = c.topology.as_ref().unwrap();
        assert_eq!(topo.n_racks(), 3);
        assert!((topo.agg_tx - 4.0 * m.nic / 2.5).abs() < 1e-3);
        // Non-partitioning racks: machine 3 in no rack.
        let mut bad = ClusterSpec::new(4, m.clone());
        bad.topology = Some(RackTopology {
            racks: vec![vec![0, 1], vec![2]],
            agg_tx: 1e8,
            agg_rx: 1e8,
        });
        let err = bad.validate().unwrap_err();
        assert!(err.contains("rack topology"), "{err}");
        assert!(err.contains("machine 3 is in no rack"), "{err}");
        // Zero-size rack.
        bad.topology = Some(RackTopology {
            racks: vec![vec![0, 1, 2, 3], vec![]],
            agg_tx: 1e8,
            agg_rx: 1e8,
        });
        let err = bad.validate().unwrap_err();
        assert!(err.contains("rack 1 is empty"), "{err}");
        // Duplicate machine.
        bad.topology = Some(RackTopology {
            racks: vec![vec![0, 1, 2], vec![2, 3]],
            agg_tx: 1e8,
            agg_rx: 1e8,
        });
        let err = bad.validate().unwrap_err();
        assert!(err.contains("appears in two racks"), "{err}");
        // Degenerate aggregation bandwidth.
        bad.topology = Some(RackTopology {
            racks: vec![vec![0, 1], vec![2, 3]],
            agg_tx: 0.0,
            agg_rx: 1e8,
        });
        assert!(bad.validate().unwrap_err().contains("aggregation tx"));
    }

    #[test]
    fn validate_flags_degenerate_hardware() {
        let mut c = ClusterSpec::new(2, MachineSpec::m2_4xlarge());
        assert!(c.validate().is_ok());
        c.machine.cores = 0;
        assert!(c.validate().unwrap_err().contains("zero cores"));
        c.machine.cores = 8;
        c.machine.disks[1].throughput = 0.0;
        assert!(c.validate().unwrap_err().contains("throughput"));
        c.machine.disks[1].throughput = f64::NAN;
        assert!(c.validate().is_err());
        c.machine.disks[1] = DiskSpec::hdd();
        c.machine.nic = -1.0;
        assert!(c.validate().is_err());
    }
}
