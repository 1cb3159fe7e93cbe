//! Resource classes and their concurrency-dependent efficiency curves.
//!
//! The curves cover the three hardware classes in the paper's clusters:
//!
//! * **CPU pools and NICs** — flat: capacity does not depend on concurrency.
//! * **HDD** — concurrent accesses trigger seeks and *reduce* the aggregate
//!   throughput, the effect §5.4 credits for MonoSpark's ~2× disk bandwidth
//!   win when its disk scheduler runs one monotask per disk.
//! * **SSD** — flash needs `d` outstanding operations to reach peak (§3.3
//!   found `d = 4`).
//!
//! `cluster::fluid` applies them inside each machine's allocator.

use serde::{Deserialize, Serialize};

/// The three resource classes of the monotasks architecture.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Processor cores.
    Cpu,
    /// A disk (HDD or SSD).
    Disk,
    /// A network interface.
    Network,
}

impl ResourceKind {
    /// Human-readable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Disk => "disk",
            ResourceKind::Network => "network",
        }
    }
}

/// How aggregate capacity responds to the number of concurrent jobs.
#[derive(Clone, Copy, Debug)]
pub enum EfficiencyCurve {
    /// Capacity independent of concurrency (CPU pools, NICs).
    Flat,
    /// HDD: interleaving streams costs seeks. Concurrent *sequential readers*
    /// degrade mildly (kernel readahead batches them); *writers mixed in*
    /// degrade aggregate throughput much faster (head travel between read
    /// and write regions). Aggregate throughput with `k_r` readers and `k_w`
    /// writers is `1/(1 + read_factor·(k_r−1)⁺ + write_factor·w)` of
    /// sequential, where `w = k_w` when readers are present and `k_w − 1`
    /// otherwise (a lone writer is sequential), floored at `floor` — the OS
    /// elevator never lets a disk degrade to zero.
    HddSeek {
        /// Throughput-loss factor per extra concurrent reader.
        read_factor: f64,
        /// Throughput-loss factor per interleaved writer.
        write_factor: f64,
        /// Minimum fraction of sequential throughput retained.
        floor: f64,
    },
    /// SSD: aggregate throughput is `min(k, depth)/depth` of peak — the device
    /// needs `depth` outstanding operations to saturate its internal channels.
    SsdQueueDepth {
        /// Outstanding operations needed to reach peak throughput.
        depth: u32,
    },
}

impl EfficiencyCurve {
    /// Efficiency multiplier with `k_r` concurrent readers and `k_w`
    /// concurrent writers (`k_r + k_w ≥ 1`).
    pub fn at_rw(&self, k_r: usize, k_w: usize) -> f64 {
        let k = k_r + k_w;
        debug_assert!(k >= 1);
        match *self {
            EfficiencyCurve::Flat => 1.0,
            EfficiencyCurve::HddSeek {
                read_factor,
                write_factor,
                floor,
            } => {
                let extra_readers = k_r.saturating_sub(1) as f64;
                let writers = if k_r > 0 {
                    k_w as f64
                } else {
                    k_w.saturating_sub(1) as f64
                };
                (1.0 / (1.0 + read_factor * extra_readers + write_factor * writers)).max(floor)
            }
            EfficiencyCurve::SsdQueueDepth { depth } => {
                (k.min(depth as usize) as f64) / depth as f64
            }
        }
    }

    /// Efficiency multiplier with `k ≥ 1` concurrent *readers* (the common
    /// standalone-resource case).
    pub fn at(&self, k: usize) -> f64 {
        self.at_rw(k, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_readers_degrade_mildly_and_writers_steeply() {
        let curve = EfficiencyCurve::HddSeek {
            read_factor: 0.1,
            write_factor: 0.7,
            floor: 0.3,
        };
        assert_eq!(curve.at(1), 1.0);
        assert!((curve.at(2) - 1.0 / 1.1).abs() < 1e-12);
        // A lone writer is sequential; one mixed into a reader costs seeks.
        assert_eq!(curve.at_rw(0, 1), 1.0);
        assert!((curve.at_rw(1, 1) - 1.0 / 1.7).abs() < 1e-12);
        assert_eq!(curve.at_rw(1, 8), 0.3);
    }

    #[test]
    fn ssd_needs_queue_depth_to_reach_peak() {
        let curve = EfficiencyCurve::SsdQueueDepth { depth: 4 };
        assert_eq!(curve.at(1), 0.25);
        assert_eq!(curve.at(4), 1.0);
        assert_eq!(curve.at(16), 1.0);
    }
}
