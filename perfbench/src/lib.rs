//! Host-side benchmark of the monotasks simulator.
//!
//! One process runs one workload: it builds the inputs, then repeats
//! measured iterations for `--seconds`, each followed by a timed batch of
//! input builds for `setup_s`. It checks every simulated
//! result against `expected.txt`, and prints a human-readable report whose
//! last line is one JSON object. With `--trace 0` the JSON carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics and
//! the run writes its spans as a Chrome trace.
//!
//! Every iteration does identical, deterministic work, and interference
//! from other tenants of a shared host only ever adds time. So a run reports
//! its fastest iteration — the least disturbed measurement of that work —
//! and takes every per-layer figure from that same iteration, so that the
//! layers add up to its total. The report also prints the median and range.

pub mod expect;
pub mod host;
pub mod spans;
pub mod workloads;

use std::fmt::Write as _;
use std::time::Instant;

use expect::{Expected, Gate};
use host::Host;
use mt_trace::Arg;
use spans::Tracer;
use workloads::{Iteration, Workload, MIB};

/// Command-line usage.
pub const USAGE: &str = "\
usage: perfbench --workload sort-scale|bdb-stages|whatif-trace
                 [--seed N] [--seconds S] [--trace 0|1] [--fault-seed N]
                 [--scale full|tiny]";

/// Where a traced run writes its spans, as `<workload>.trace.json`. Fixed to
/// the package's own directory, so the file lands under the ignored
/// `perfbench/out` from whatever directory the benchmark is run.
pub const SPANS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// End-to-end metrics: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("simulate_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("monotasks_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("host_bytes_per_monotask", "B", "lower"),
];

/// Per-layer metrics, named `<crate>.<what>`: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 33] = [
    ("core.run_s", "s", "lower"),
    ("core.control_remainder_s", "s", "lower"),
    ("core.outside_loop_s", "s", "lower"),
    ("core.ns_per_monotask", "ns", "lower"),
    ("core.events", "count", "lower"),
    ("core.monotasks", "count", "lower"),
    ("core.template_build_s", "s", "lower"),
    ("core.instantiate_s", "s", "lower"),
    ("core.template_hit_ratio", "ratio", "higher"),
    ("core.template_lookups", "count", "lower"),
    ("core.record_mb", "MiB", "lower"),
    ("core.queue_snapshots", "count", "lower"),
    ("core.drop_s", "s", "lower"),
    ("simcore.fabric_alloc_s", "s", "lower"),
    ("simcore.reallocs", "count", "lower"),
    ("simcore.drain_s", "s", "lower"),
    ("simcore.completion_s", "s", "lower"),
    ("simcore.shard_epochs", "count", "lower"),
    ("simcore.cross_shard_events", "count", "lower"),
    ("cluster.machine_alloc_s", "s", "lower"),
    ("cluster.instants", "count", "lower"),
    ("sparklike.run_s", "s", "lower"),
    ("sparklike.tasks", "count", "lower"),
    ("perfmodel.profile_s", "s", "lower"),
    ("perfmodel.replay_s", "s", "lower"),
    ("perfmodel.replay_abs_err_pct", "%", "lower"),
    ("trace.doc_s", "s", "lower"),
    ("trace.to_json_s", "s", "lower"),
    ("trace.validate_s", "s", "lower"),
    ("trace.json_mb", "MiB", "lower"),
    ("trace.spans", "count", "lower"),
    ("workloads.gen_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
];

/// Iterations every run makes, however long they take, so that an
/// unrecorded seed is still checked for run-to-run agreement.
const MIN_ITERATIONS: usize = 3;
/// Set-up is timed in batches of at least this many seconds, so builds of a
/// few microseconds are not lost in timer noise. One batch follows each
/// iteration, so the batches sample the host over the whole run as the
/// iterations do; `setup_s` is the fastest batch's time per build.
const SETUP_BATCH_S: f64 = 0.05;
/// Layers that run inside executor calls, whose share of `simulate_s` is
/// meaningful.
const EXECUTOR_LAYERS: [&str; 4] = ["core", "simcore", "cluster", "sparklike"];

/// Parsed command line.
pub struct Args {
    workload: Workload,
    seed: u64,
    fault_seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

impl Args {
    /// Parses `--flag value` pairs.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut args = Args {
            workload: Workload::SortScale,
            seed: 42,
            fault_seed: 42,
            seconds: 10.0,
            trace: false,
            tiny: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
                }
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--fault-seed" => args.fault_seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(args.seconds.is_finite() && args.seconds > 0.0) {
                        return Err(bad(&"must be positive"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"want 0 or 1")),
                    }
                }
                "--scale" => {
                    args.tiny = match value.as_str() {
                        "full" => false,
                        "tiny" => true,
                        _ => return Err(bad(&"want full or tiny")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }

    /// The size label results are recorded under.
    fn scale(&self) -> &'static str {
        if self.tiny {
            "tiny"
        } else {
            "full"
        }
    }
}

/// Median (mean of the middle two for even counts); 0 for no values.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Times one batch of builds of the inputs; returns seconds per build.
fn setup_batch(w: Workload, machines: usize, t: &mut Tracer) -> f64 {
    let batch = t.begin("workloads.setup");
    let begun = Instant::now();
    let mut builds = 0u64;
    while builds == 0 || begun.elapsed().as_secs_f64() < SETUP_BATCH_S {
        // Each build is freed before the next, so the batch holds one build
        // at a time and its size does not depend on how fast the host is.
        drop(std::hint::black_box(workloads::setup(w, machines)));
        builds += 1;
    }
    t.end_with(batch, vec![("builds", Arg::U64(builds))]) / builds as f64
}

/// The run's iterations plus the figures every metric derives from.
struct Summary {
    iters: Vec<Iteration>,
    /// Index of the fastest iteration.
    best: usize,
    /// Seconds per build of each set-up batch.
    setups: Vec<f64>,
    setup_s: f64,
    /// `VmHWM` after set-up and the first iteration: what one run of the
    /// workload in a fresh process needs. Later iterations reuse the heap,
    /// and its fragmentation would make the figure drift with run length.
    peak_kib: u64,
}

impl Summary {
    fn new(iters: Vec<Iteration>, setups: Vec<f64>, peak_kib: u64) -> Summary {
        let best = (0..iters.len())
            .min_by(|&a, &b| {
                iters[a]
                    .get("iteration_s")
                    .total_cmp(&iters[b].get("iteration_s"))
            })
            .expect("at least one iteration");
        Summary {
            setup_s: setups.iter().copied().fold(f64::INFINITY, f64::min),
            iters,
            best,
            setups,
            peak_kib,
        }
    }

    fn best(&self) -> &Iteration {
        &self.iters[self.best]
    }

    /// An end-to-end metric's reported value and the values it took over
    /// the run (one per iteration, or per set-up batch).
    fn end_to_end(&self, name: &str) -> (f64, Vec<f64>) {
        let each =
            |f: &dyn Fn(&Iteration) -> f64| -> Vec<f64> { self.iters.iter().map(f).collect() };
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let peak_bytes = self.peak_kib as f64 * 1024.0;
        let v = match name {
            "setup_s" => self.setups.clone(),
            "simulate_s" => each(&|i| i.get("simulate_s")),
            "total_s" => each(&|i| self.setup_s + i.get("iteration_s")),
            "monotasks_per_s" => {
                let v = each(&|i| i.get("core.monotasks") / i.get("simulate_s"));
                return (v.iter().copied().fold(0.0, f64::max), v);
            }
            "peak_rss_mb" => vec![self.peak_kib as f64 / 1024.0],
            "host_bytes_per_monotask" => each(&|i| peak_bytes / i.get("core.monotasks")),
            _ => unreachable!("unknown end-to-end metric {name}"),
        };
        (min(&v), v)
    }

    /// Host seconds each layer spent on its own in the fastest iteration
    /// (set-up included), with the remainder as `unattributed`.
    fn layers(&self) -> [(&'static str, f64); 8] {
        let g = |k: &str| self.best().get(k);
        let mut layers = [
            ("workloads", self.setup_s + g("workloads.plan_s")),
            (
                "core",
                g("core.run_s") - g("_core.alloc_s") + g("core.drop_s"),
            ),
            (
                "simcore",
                g("simcore.fabric_alloc_s") + g("simcore.drain_s") + g("simcore.completion_s"),
            ),
            ("cluster", g("cluster.machine_alloc_s")),
            (
                "sparklike",
                g("sparklike.run_s") - g("_sparklike.alloc_s") + g("_sparklike.drop_s"),
            ),
            (
                "perfmodel",
                g("perfmodel.profile_s") + g("perfmodel.replay_s"),
            ),
            (
                "trace",
                g("trace.doc_s")
                    + g("trace.to_json_s")
                    + g("trace.validate_s")
                    + g("_trace.drop_s"),
            ),
            ("unattributed", 0.0),
        ];
        let named: f64 = layers.iter().map(|l| l.1).sum();
        layers[7].1 = self.setup_s + g("iteration_s") - named;
        layers
    }

    /// A per-layer metric, from the fastest iteration.
    fn per_layer(&self, name: &str) -> f64 {
        match name {
            "workloads.gen_s" => self.setup_s + self.best().get("workloads.plan_s"),
            "bench.unattributed_s" => self.layers()[7].1,
            "perfmodel.replay_abs_err_pct" => self.best().replay_err_pct.unwrap_or(0.0).abs(),
            _ => self.best().get(name),
        }
    }
}

/// Formats the last-line JSON result.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; no metric should produce one.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Runs the benchmark and returns the report, whose last line is the JSON
/// result.
pub fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let host = Host::read();
    let scale = args.scale();
    let machines = w.machines(args.tiny);
    let plan_seed = if w.seeded() {
        args.fault_seed.to_string()
    } else {
        "*".into()
    };
    let recorded = Expected::parse(include_str!("../expected.txt"))?
        .lookup(w.name(), scale, args.fault_seed)
        .cloned();
    let mut gate = Gate::new(recorded);
    let mut t = Tracer::new(args.trace);
    let run_span = t.begin("bench.run");
    let (inputs, _) = t.time("bench.setup", || workloads::setup(w, machines));

    // Measured iterations, each followed by a set-up batch, stopping before
    // one more would overrun --seconds.
    let start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    let mut setups = Vec::new();
    let mut peak_kib = 0;
    loop {
        iters.push(workloads::iterate(
            w,
            &inputs,
            args.fault_seed,
            &mut t,
            &mut gate,
        ));
        if iters.len() == 1 {
            peak_kib = host::peak_rss_kib()?;
        }
        setups.push(setup_batch(w, machines, &mut t));
        let typical = median(
            &iters
                .iter()
                .map(|i| i.get("iteration_s"))
                .collect::<Vec<_>>(),
        );
        if iters.len() >= MIN_ITERATIONS
            && start.elapsed().as_secs_f64() + typical + SETUP_BATCH_S > args.seconds
        {
            break;
        }
    }
    drop(inputs);
    t.end(run_span);

    let s = Summary::new(iters, setups, peak_kib);
    let mut attempted: u64 = s.iters.iter().map(|i| i.attempted).sum();
    let mut failed: u64 = s.iters.iter().map(|i| i.failed).sum();
    let mut report = String::new();
    let mut line = |text: String| {
        report.push_str(&text);
        report.push('\n');
    };
    line(format!(
        "perfbench {} scale={scale} machines={machines} seed={} fault_seed={plan_seed} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    line(format!(
        "host: nproc={} cpu=\"{}\" mem_total={:.0} MiB peak_rss(VmHWM)={:.1} MiB",
        host.nproc,
        host.cpu_model,
        host.mem_total_kib as f64 / 1024.0,
        peak_kib as f64 / 1024.0
    ));
    line(format!(
        "end to end ({} run; fastest of {} iterations, {} set-up batches): value, median [min .. max]",
        if args.trace { "traced" } else { "untraced" },
        s.iters.len(),
        s.setups.len()
    ));
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    for (name, unit, _) in END_TO_END {
        let (value, v) = s.end_to_end(name);
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        line(format!(
            "  {name:<24} {value:>16.6} {unit:<5} {:.6} [{lo:.6} .. {hi:.6}]",
            median(&v)
        ));
        if !args.trace {
            metrics.push((name, value, unit));
        }
    }
    let error_rate = failed as f64 / attempted.max(1) as f64;
    line(format!(
        "  {:<24} {error_rate:>16.6} {:<5} ({failed} failed / {attempted} attempted)",
        "error_rate", "ratio"
    ));
    match s.best().replay_err_pct {
        Some(err) => line(format!(
            "  {:<24} {err:>+16.3} {:<5} (perfmodel::replay vs simulated faulty makespan; not gated)",
            "replay_err_pct", "%"
        )),
        None => line(format!("  {:<24} {:>16} {:<5} (whatif-trace only)", "replay_err_pct", "n/a", "%")),
    }

    // Layer accounting of the fastest iteration.
    let total_s = s.end_to_end("total_s").0;
    let simulate_s = s.best().get("simulate_s");
    line(
        "layer accounting (fastest iteration): self time, share of total_s, share of simulate_s"
            .into(),
    );
    let layers = s.layers();
    for (name, self_s) in layers {
        let of_sim = if EXECUTOR_LAYERS.contains(&name) {
            format!("{:>6.1}%", self_s / simulate_s * 100.0)
        } else {
            "      -".into()
        };
        line(format!(
            "  {name:<13} {self_s:>12.6} s {:>6.1}% {of_sim}",
            self_s / total_s * 100.0
        ));
    }
    let unattributed = layers[7].1;
    line(format!(
        "  core.outside_loop_s {:.6} s; unattributed_s {unattributed:.6} s; {:.1}% of total_s charged to a named layer",
        s.per_layer("core.outside_loop_s"),
        100.0 - unattributed / total_s * 100.0
    ));
    let (top, top_s) = layers[..7]
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("seven named layers");
    line(format!(
        "  top layer: {top} ({:.1}% of total_s)",
        top_s / total_s * 100.0
    ));
    let memory = &s.best().memory;
    if let Some((buffer, bytes)) = memory.iter().max_by(|a, b| a.1.total_cmp(b.1)) {
        line(format!(
            "  largest memory consumer: {buffer} ({:.1} MiB computed; peak RSS {:.1} MiB)",
            bytes / MIB,
            peak_kib as f64 / 1024.0
        ));
    }
    for (buffer, bytes) in memory {
        line(format!("    {buffer:<21} {:>10.2} MiB", bytes / MIB));
    }

    // The traced run writes its spans; the file must validate.
    if args.trace {
        let path = std::path::Path::new(SPANS_DIR).join(format!("{}.trace.json", w.name()));
        let process = format!(
            "perfbench {} ({} CPUs, {}, {:.0} MiB)",
            w.name(),
            host.nproc,
            host.cpu_model,
            host.mem_total_kib as f64 / 1024.0
        );
        let json = t.to_doc(&process).to_json();
        attempted += 1;
        let written = std::fs::create_dir_all(SPANS_DIR)
            .and_then(|()| std::fs::write(&path, &json))
            .map_err(|e| e.to_string());
        match written.and_then(|()| mt_trace::validate_chrome_json(&json)) {
            Ok(v) => line(format!(
                "spans: {} written to {} (valid)",
                v.spans,
                path.display()
            )),
            Err(e) => {
                failed += 1;
                gate.mismatches
                    .push(format!("span file {}: {e}", path.display()));
            }
        }
        for (name, unit, _) in PER_LAYER {
            metrics.push((name, s.per_layer(name), unit));
        }
    }

    let correct = failed == 0;
    line(format!(
        "correctness: {} ({})",
        if correct { "ok" } else { "FAILED" },
        if gate.is_recorded() {
            "bit-exact against expected.txt"
        } else {
            "no recorded values for this scale and fault seed; iterations checked against each other"
        }
    ));
    for m in &gate.mismatches {
        line(format!("  mismatch: {m}"));
    }
    line(result_json(correct, attempted, failed, &metrics));
    Ok(report)
}
