//! Host fingerprint and peak memory, read from `/proc` without any
//! dependency. Peak RSS is per process, so every workload run is its own
//! process.

use std::fs;

/// What the host offers and what this process has used at its peak.
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `MemTotal` from `/proc/meminfo`, KiB.
    pub mem_total_kib: u64,
}

impl Host {
    /// Reads the fingerprint; fields the host does not expose read as
    /// `unknown`/0.
    pub fn read() -> Host {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            mem_total_kib: kib_field("/proc/meminfo", "MemTotal:").unwrap_or(0),
        }
    }
}

/// This process's peak resident set (`VmHWM`), KiB.
pub fn peak_rss_kib() -> Result<u64, String> {
    kib_field("/proc/self/status", "VmHWM:")
        .ok_or_else(|| "VmHWM is not readable from /proc/self/status".to_string())
}

/// Parses a `Key:   1234 kB` line.
fn kib_field(path: &str, key: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_kib().expect("linux /proc") > 0);
        let h = Host::read();
        assert!(h.nproc >= 1);
        assert!(h.mem_total_kib > 0);
    }
}
