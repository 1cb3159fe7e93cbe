//! Self-test of the benchmark at tiny sizes: every metric prints with its
//! unit, the correctness gate catches a perturbed expectation, and the
//! traced run's span file is valid Chrome Trace JSON.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use perfbench::expect::{Expected, Gate};
use perfbench::spans::Tracer;
use perfbench::workloads::{self, Workload};
use perfbench::{END_TO_END, PER_LAYER, SPANS_DIR};

/// Runs the benchmark binary; returns its standard output.
fn perfbench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "perfbench {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// Runs a tiny-size workload for a moment with extra arguments.
fn tiny(w: Workload, extra: &[&str]) -> String {
    let mut args = vec![
        "--workload",
        w.name(),
        "--scale",
        "tiny",
        "--seconds",
        "0.1",
    ];
    args.extend_from_slice(extra);
    perfbench(&args)
}

/// The JSON result line.
fn result(report: &str) -> &str {
    report.lines().last().expect("a result line")
}

/// `(value, unit)` of a metric in the JSON result line.
fn metric(json: &str, name: &str) -> Option<(f64, String)> {
    let pattern = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&pattern)? + pattern.len()..];
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    let (unit, _) = rest.split_once('"')?;
    Some((value.parse().ok()?, unit.to_string()))
}

/// An integer field of the JSON result line.
fn count(json: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\": ");
    let rest = &json[json.find(&pattern).expect(key) + pattern.len()..];
    rest[..rest.find(',').expect("field ends")]
        .parse()
        .expect("integer")
}

#[test]
fn every_end_to_end_metric_prints_with_its_unit() {
    for w in Workload::ALL {
        let report = tiny(w, &[]);
        let json = result(&report);
        assert!(json.starts_with("{\"correct\": true,"), "{w:?}: {json}");
        assert_eq!(count(json, "failed"), 0);
        assert!(count(json, "attempted") >= 1);
        for (name, unit, _) in END_TO_END {
            let (value, printed) = metric(json, name).unwrap_or_else(|| panic!("{w:?}: no {name}"));
            assert_eq!(printed, unit, "{w:?}: {name}");
            assert!(value > 0.0, "{w:?}: {name} = {value}");
            assert!(
                report.contains(&format!("  {name} ")),
                "{w:?}: report lacks {name}"
            );
        }
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());
        for name in ["error_rate", "replay_err_pct"] {
            assert!(
                report.contains(&format!("  {name} ")),
                "{w:?}: report lacks {name}"
            );
        }
        assert!(
            report.contains("bit-exact against expected.txt"),
            "{w:?}: not gated"
        );
        assert!(report.contains("top layer: "));
        assert!(report.contains("largest memory consumer: "));
    }
}

#[test]
fn traced_run_prints_every_layer_metric_and_writes_valid_spans() {
    let spans = Path::new(SPANS_DIR).join("whatif-trace.trace.json");
    let _ = std::fs::remove_file(&spans);
    let report = tiny(Workload::WhatifTrace, &["--trace", "1"]);
    let json = result(&report);
    assert!(json.starts_with("{\"correct\": true,"), "{json}");
    for (name, unit, _) in PER_LAYER {
        let (_, printed) = metric(json, name).unwrap_or_else(|| panic!("no {name}"));
        assert_eq!(printed, unit, "{name}");
    }
    assert_eq!(json.matches("\"value\"").count(), PER_LAYER.len());
    let file = std::fs::read_to_string(&spans).expect("span file written");
    let stats = mt_trace::validate_chrome_json(&file).expect("valid Chrome trace");
    assert!(stats.spans > 0);
    for call in [
        "core.run",
        "sparklike.run",
        "perfmodel.replay",
        "trace.to_json",
        "workloads.setup",
    ] {
        assert!(
            file.contains(&format!("\"name\":\"{call}\"")),
            "no {call} span"
        );
    }
}

#[test]
fn a_perturbed_expected_makespan_counts_a_failure() {
    let w = Workload::SortScale;
    let key = "mono.makespan_sim_s";
    let table = Expected::parse(include_str!("../expected.txt")).expect("table parses");
    let mut perturbed = table
        .lookup(w.name(), "tiny", 42)
        .expect("recorded tiny values")
        .clone();
    let value = perturbed.get_mut(key).expect("recorded tiny makespan");
    *value = f64::from_bits(value.to_bits() ^ 1);
    let mut gate = Gate::new(Some(perturbed));
    let inputs = workloads::setup(w, w.machines(true));
    let it = workloads::iterate(w, &inputs, 42, &mut Tracer::new(false), &mut gate);
    assert!(it.attempted >= 1);
    assert_eq!(it.failed, it.attempted);
    assert!(
        gate.mismatches.iter().any(|m| m.starts_with(key)),
        "{:?}",
        gate.mismatches
    );
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let names = Workload::ALL
        .map(|w| w.name())
        .into_iter()
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0));
    let mut expected = 0;
    for name in names {
        assert!(
            spec.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json lacks {name}"
        );
        expected += 1;
    }
    assert_eq!(spec.matches("\"name\": ").count(), expected);
}
