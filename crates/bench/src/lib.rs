//! Shared harness utilities for the figure/table benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md §3 for the index) and prints the same series the
//! paper plots, plus the paper's reported values for side-by-side comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;

use cluster::ClusterSpec;
use dataflow::{BlockMap, JobSpec};

/// Runs a job under the monotasks executor with default config.
pub fn run_mono(
    cluster: &ClusterSpec,
    job: JobSpec,
    blocks: BlockMap,
) -> monotasks_core::MonoRunOutput {
    monotasks_core::run(
        cluster,
        &[(job, blocks)],
        &monotasks_core::MonoConfig::default(),
    )
}

/// Runs a job under the Spark-like executor with default config.
pub fn run_spark(
    cluster: &ClusterSpec,
    job: JobSpec,
    blocks: BlockMap,
) -> sparklike::SparkRunOutput {
    sparklike::run(
        cluster,
        &[(job, blocks)],
        &sparklike::SparkConfig::default(),
    )
}

/// Relative difference `(b - a) / a` in percent.
pub fn pct_diff(a: f64, b: f64) -> f64 {
    100.0 * (b - a) / a
}

/// Relative error of `predicted` against `actual`, in percent (absolute).
pub fn pct_err(actual: f64, predicted: f64) -> f64 {
    (100.0 * (predicted - actual) / actual).abs()
}

/// Resets this process's peak resident set (`VmHWM`) to its current RSS;
/// false where Linux's `/proc/self/clear_refs` is unavailable.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Peak host bytes per completed monotask; `None` without a peak or
/// without monotasks.
pub fn host_bytes_per_monotask(peak_rss_mb: Option<f64>, monotasks: usize) -> Option<f64> {
    let peak = peak_rss_mb?;
    (monotasks > 0).then(|| peak * 1024.0 * 1024.0 / monotasks as f64)
}

/// `{:.1}` of a measured value, or `null`.
pub fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), |v| format!("{v:.1}"))
}

/// The host a sweep ran on, as a JSON object: `nproc` (the available
/// parallelism) and the CPU model from `/proc/cpuinfo`, each `null` where
/// unavailable.
pub fn host_json() -> String {
    let nproc =
        std::thread::available_parallelism().map_or_else(|_| "null".into(), |n| n.to_string());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| cpu_model(&info))
        .map_or_else(|| "null".into(), |m| format!("\"{}\"", json_escape(&m)));
    format!("{{\"nproc\": {nproc}, \"cpu_model\": {model}}}")
}

/// The first `model name` in a `/proc/cpuinfo` listing.
fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|l| {
        let (key, value) = l.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// `s` as the inside of a JSON string literal (control characters dropped).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars().filter(|c| !c.is_control()) {
        if matches!(c, '"' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// The number after `key` (a quoted name such as `"\"wall_s\""`) on one
/// line of a sweep record, read without a JSON dependency: the run of
/// digits, `.` and `-` after the key and its colon. `None` when the key is
/// absent or no number follows it (`null`).
pub fn json_field(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let rest = rest.trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string after `key` on one line of a sweep record; see
/// [`json_field`].
pub fn json_str_field(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    let rest = rest.trim_start_matches([':', ' ', '"']);
    Some(rest[..rest.find('"')?].to_string())
}

/// Prints a standard figure header.
pub fn header(id: &str, title: &str, paper_claim: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper: {paper_claim}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_helpers() {
        assert_eq!(pct_diff(100.0, 91.0), -9.0);
        assert_eq!(pct_err(100.0, 128.0), 28.0);
        assert_eq!(pct_err(100.0, 72.0), 28.0);
    }

    #[test]
    fn memory_helpers() {
        assert_eq!(host_bytes_per_monotask(Some(1.0), 1024), Some(1024.0));
        assert_eq!(host_bytes_per_monotask(Some(1.0), 0), None);
        assert_eq!(host_bytes_per_monotask(None, 8), None);
        assert_eq!(json_opt(Some(2.26)), "2.3");
        assert_eq!(json_opt(None), "null");
    }

    #[test]
    fn json_fields_read_one_record_line() {
        let line = r#"    {"engine": "mono", "machines": 200, "epsilon": 0.01, "wall_s": -1.5, "peak_rss_mb": null, "makespan_s": 12.25},"#;
        assert_eq!(json_field(line, "\"machines\""), Some(200.0));
        assert_eq!(json_field(line, "\"epsilon\""), Some(0.01));
        assert_eq!(json_field(line, "\"wall_s\""), Some(-1.5));
        assert_eq!(json_field(line, "\"makespan_s\""), Some(12.25));
        assert_eq!(json_field(line, "\"peak_rss_mb\""), None);
        assert_eq!(json_field(line, "\"racks\""), None);
        assert_eq!(json_str_field(line, "\"engine\"").as_deref(), Some("mono"));
        assert_eq!(json_str_field(line, "\"workload\""), None);
    }

    #[test]
    fn host_fingerprint_reads_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Some \"CPU\" @ 2GHz\n\n\
                    processor\t: 1\nmodel name\t: Other\n";
        let model = cpu_model(info).unwrap();
        assert_eq!(model, "Some \"CPU\" @ 2GHz");
        assert_eq!(json_escape(&model), "Some \\\"CPU\\\" @ 2GHz");
        assert_eq!(cpu_model("processor\t: 0\n"), None);
        let host = host_json();
        assert!(
            host.starts_with("{\"nproc\": ") && host.ends_with('}'),
            "{host}"
        );
    }
}
