//! Fault-injection sweep: sort under increasing fault intensity, both
//! executors.
//!
//! The same seeded random fault plan (machine crashes, degraded disks and
//! links, stragglers — see `cluster::FaultPlan::random`) is injected into the
//! Spark-like and the monotasks executor at each intensity point. Emits one
//! JSON record per (engine, intensity): simulated makespan, inflation over
//! the engine's fault-free makespan, and the recovery-overhead counters
//! (retries, speculative copies, wasted and recomputed seconds).
//!
//! Everything simulated is deterministic: the same binary on any host must
//! produce identical makespans and counters, which `--check` exploits — it
//! compares every simulated field the baseline row records (makespan,
//! inflation, recovery counters and seconds) against it *exactly*, at the
//! precision the record stores, plus a wall-clock budget, so CI catches
//! both behavioral drift and perf regressions.
//!
//! `--matrix` switches to the *speculation matrix*: straggler-only plans
//! (no crashes, no degraded hardware) run under three mitigation modes —
//! none, slot-level (Spark-style whole-task duplicates), and monotask-level
//! (only the straggling monotask is re-dispatched). The matrix quantifies
//! the paper's decomposition argument: per-monotask duplicates recover the
//! straggler makespan while wasting strictly less work, because a compute
//! duplicate moves zero bytes where a whole-task duplicate re-reads its
//! entire input.
//!
//! `--partitions` switches to the *partition sweep*: partition-only plans
//! (one seeded window isolating `≈ intensity` machines mid-shuffle) run
//! with fetch timeout/retry/backoff armed and the input 2-way replicated,
//! so recovery can re-plan block reads against a reachable replica and
//! resubmit unreachable shuffle lineage. Each point also records the
//! partition-recovery counters (fetch retries, stalled and backoff seconds,
//! re-planned fetches), which `--check` compares too.
//!
//! Usage:
//!   fault_sweep [--matrix | --partitions] [--out PATH] [--points 0,0.5,1,2]
//!               [--check BASELINE.json --max-factor 2.0]
//!
//! Every row also carries the run's peak host memory (`peak_rss_mb`, the
//! process's `VmHWM` reset before the run) and `host_bytes_per_monotask`
//! (`null` for Spark-like rows and where `/proc` is unavailable); a
//! top-level `host` object records `nproc` and the CPU model. `--check`
//! reads neither.
//!
//! The output path defaults to `$FAULT_SWEEP_OUT`, or `BENCH_PR3.json`
//! (`BENCH_PR5.json` with `--matrix`, `BENCH_PR8.json` with
//! `--partitions`). `--check` never rewrites the committed record.

use std::time::Instant;

use cluster::{ClusterSpec, FaultPlan, MachineSpec};
use mt_bench::{
    header, host_bytes_per_monotask, host_json, json_field, json_opt, json_str_field, peak_rss_mb,
    reset_peak_rss,
};
use workloads::{partition_plan, sort_job, straggler_plan, sweep_plan, SortConfig};

const MACHINES: usize = 5;
const GIB_PER_MACHINE: f64 = 2.0;
const SEED: u64 = 42;

const DEFAULT_POINTS: &[f64] = &[0.0, 0.5, 1.0, 2.0];

#[derive(Clone, Default)]
struct Point {
    engine: &'static str,
    intensity: f64,
    completed: bool,
    error: String,
    makespan_s: f64,
    inflation: f64,
    tasks_retried: u64,
    tasks_speculated: u64,
    wasted_s: f64,
    wasted_bytes: u64,
    mono_copies: u64,
    mono_copy_wins: u64,
    recompute_s: f64,
    fetch_retries: u64,
    stalled_s: f64,
    backoff_s: f64,
    fetches_replanned: u64,
    wall_s: f64,
    /// Peak host memory over the run, MiB (`None` without `/proc`).
    peak_rss_mb: Option<f64>,
    /// Monotasks the run completed (0 for the Spark-like executor).
    monotasks: usize,
}

/// Runs `f` and measures the process's peak resident set over it, MiB.
fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, Option<f64>) {
    let reset = reset_peak_rss();
    let out = f();
    (out, if reset { peak_rss_mb() } else { None })
}

fn cluster() -> ClusterSpec {
    ClusterSpec::new(MACHINES, MachineSpec::m2_4xlarge())
}

fn workload(partitions: bool) -> (dataflow::JobSpec, dataflow::BlockMap) {
    let cfg = SortConfig::new(GIB_PER_MACHINE * MACHINES as f64, 10, MACHINES, 2);
    let (job, blocks) = sort_job(&cfg);
    if !partitions {
        return (job, blocks);
    }
    // The partition sweep replicates the input 2-way (the HDFS default the
    // paper assumes) so recovery has a reachable replica to re-plan block
    // reads against when a primary is isolated.
    let n_blocks = job.stages[0].tasks.len();
    let replicated = dataflow::BlockMap::round_robin_replicated(n_blocks, MACHINES, 2, 2);
    (job, replicated)
}

/// Stall timeout armed in partition mode; the retries and the backoff are
/// `dataflow::runtime::{FETCH_MAX_RETRIES, FETCH_BACKOFF_BASE_SECS}` (3 and
/// 1 s).
const FETCH_TIMEOUT_S: f64 = 5.0;

/// The fault horizon is the *fault-free monotasks makespan*: simulated, hence
/// identical on every host, so the generated plans — and therefore the whole
/// sweep — are reproducible everywhere. The matrix draws straggler-only
/// plans from the same seed so its points isolate mitigation from recovery.
fn plan_for(
    matrix: bool,
    partitions: bool,
    intensity: f64,
    horizon_s: f64,
    tasks_per_stage: usize,
) -> FaultPlan {
    if intensity <= 0.0 {
        return FaultPlan::new();
    }
    if partitions {
        partition_plan(SEED, &cluster(), horizon_s, intensity)
    } else if matrix {
        straggler_plan(SEED, &cluster(), horizon_s, 2, tasks_per_stage, intensity)
    } else {
        sweep_plan(SEED, &cluster(), horizon_s, 2, tasks_per_stage, intensity)
    }
}

/// The speculation knob both engines share in speculative modes; 1.5 is the
/// Spark default (`spark.speculation.multiplier`).
const SPEC_MULTIPLIER: f64 = 1.5;

fn run_mono(
    engine: &'static str,
    spec: bool,
    partitions: bool,
    plan: &FaultPlan,
    intensity: f64,
    baseline_s: f64,
) -> Point {
    let (job, blocks) = workload(partitions);
    let cfg = monotasks_core::MonoConfig {
        collect_traces: false,
        mono_speculation_multiplier: spec.then_some(SPEC_MULTIPLIER),
        fetch_timeout_secs: partitions.then_some(FETCH_TIMEOUT_S),
        ..monotasks_core::MonoConfig::default()
    };
    let start = Instant::now();
    let (result, peak_rss_mb) =
        with_peak_rss(|| monotasks_core::run_with_faults(&cluster(), &[(job, blocks)], &cfg, plan));
    let wall_s = start.elapsed().as_secs_f64();
    match result {
        Ok(out) => Point {
            engine,
            intensity,
            completed: true,
            error: String::new(),
            makespan_s: out.makespan.as_secs_f64(),
            inflation: if baseline_s > 0.0 {
                out.makespan.as_secs_f64() / baseline_s
            } else {
                1.0
            },
            tasks_retried: out.stats.tasks_retried,
            tasks_speculated: out.stats.tasks_speculated,
            wasted_s: out.stats.wasted_work_secs(),
            wasted_bytes: out.stats.wasted_bytes,
            mono_copies: out.stats.mono_copies,
            mono_copy_wins: out.stats.mono_copy_wins,
            recompute_s: out.stats.recompute_secs(),
            fetch_retries: out.stats.fetch_retries,
            stalled_s: out.stats.stalled_fetch_nanos as f64 / 1e9,
            backoff_s: out.stats.fetch_backoff_nanos as f64 / 1e9,
            fetches_replanned: out.stats.fetches_replanned,
            wall_s,
            peak_rss_mb,
            monotasks: out.records.len(),
        },
        Err(e) => failed_point(engine, intensity, e.to_string(), wall_s),
    }
}

fn run_spark(
    engine: &'static str,
    spec: bool,
    partitions: bool,
    plan: &FaultPlan,
    intensity: f64,
    baseline_s: f64,
) -> Point {
    let (job, blocks) = workload(partitions);
    let cfg = sparklike::SparkConfig {
        speculation_multiplier: spec.then_some(SPEC_MULTIPLIER),
        fetch_timeout_secs: partitions.then_some(FETCH_TIMEOUT_S),
        ..sparklike::SparkConfig::default()
    };
    let start = Instant::now();
    let (result, peak_rss_mb) =
        with_peak_rss(|| sparklike::run_with_faults(&cluster(), &[(job, blocks)], &cfg, plan));
    let wall_s = start.elapsed().as_secs_f64();
    match result {
        Ok(out) => Point {
            engine,
            intensity,
            completed: true,
            error: String::new(),
            makespan_s: out.makespan.as_secs_f64(),
            inflation: if baseline_s > 0.0 {
                out.makespan.as_secs_f64() / baseline_s
            } else {
                1.0
            },
            tasks_retried: out.stats.tasks_retried,
            tasks_speculated: out.stats.tasks_speculated,
            wasted_s: out.stats.wasted_work_secs(),
            wasted_bytes: out.stats.wasted_bytes,
            mono_copies: 0,
            mono_copy_wins: 0,
            recompute_s: out.stats.recompute_secs(),
            fetch_retries: out.stats.fetch_retries,
            stalled_s: out.stats.stalled_fetch_nanos as f64 / 1e9,
            backoff_s: out.stats.fetch_backoff_nanos as f64 / 1e9,
            fetches_replanned: out.stats.fetches_replanned,
            wall_s,
            peak_rss_mb,
            monotasks: 0,
        },
        Err(e) => failed_point(engine, intensity, e.to_string(), wall_s),
    }
}

fn failed_point(engine: &'static str, intensity: f64, error: String, wall_s: f64) -> Point {
    Point {
        engine,
        intensity,
        error,
        wall_s,
        ..Point::default()
    }
}

struct Args {
    out: Option<String>,
    points: Vec<f64>,
    check: Option<String>,
    max_factor: f64,
    matrix: bool,
    partitions: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: std::env::var("FAULT_SWEEP_OUT").ok(),
        points: DEFAULT_POINTS.to_vec(),
        check: None,
        max_factor: 2.0,
        matrix: false,
        partitions: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--out" => args.out = Some(value("--out")),
            "--matrix" => args.matrix = true,
            "--partitions" => args.partitions = true,
            "--points" => {
                args.points = value("--points")
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad --points entry"))
                    .collect();
            }
            "--check" => args.check = Some(value("--check")),
            "--max-factor" => {
                args.max_factor = value("--max-factor").parse().expect("bad --max-factor")
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    assert!(
        !(args.matrix && args.partitions),
        "--matrix and --partitions are mutually exclusive"
    );
    args
}

struct BaseRec {
    engine: String,
    intensity: f64,
    wall_s: f64,
    /// The row as recorded, for looking up its simulated fields.
    line: String,
}

fn baseline_records(json: &str) -> Vec<BaseRec> {
    json.lines()
        .filter_map(|line| {
            Some(BaseRec {
                engine: json_str_field(line, "\"engine\"")?,
                intensity: json_field(line, "\"intensity\"")?,
                wall_s: json_field(line, "\"wall_s\"")?,
                line: line.to_string(),
            })
        })
        .collect()
}

/// The simulated fields of a row, formatted as the record writes them.
/// `--check` compares each one the baseline row records by this text, so
/// floats compare at the stored precision and counters exactly.
fn simulated_fields(p: &Point) -> [(&'static str, String); 13] {
    [
        ("makespan_s", format!("{:.3}", p.makespan_s)),
        ("inflation", format!("{:.3}", p.inflation)),
        ("tasks_retried", p.tasks_retried.to_string()),
        ("tasks_speculated", p.tasks_speculated.to_string()),
        ("wasted_s", format!("{:.3}", p.wasted_s)),
        ("wasted_bytes", p.wasted_bytes.to_string()),
        ("mono_copies", p.mono_copies.to_string()),
        ("mono_copy_wins", p.mono_copy_wins.to_string()),
        ("recompute_s", format!("{:.3}", p.recompute_s)),
        ("fetch_retries", p.fetch_retries.to_string()),
        ("stalled_s", format!("{:.3}", p.stalled_s)),
        ("backoff_s", format!("{:.3}", p.backoff_s)),
        ("fetches_replanned", p.fetches_replanned.to_string()),
    ]
}

/// Engine rows of the sweep: a label, which executor, and whether its
/// speculation knob is armed. The classic sweep pins Spark speculation on
/// (its recovery story needs it) and monotask speculation off, matching the
/// committed BENCH_PR3 baseline; the matrix and the partition sweep cross
/// all four mitigation modes.
fn engines(matrix: bool, partitions: bool) -> Vec<(&'static str, bool, bool)> {
    if matrix || partitions {
        vec![
            ("spark", true, false),
            ("spark+spec", true, true),
            ("mono", false, false),
            ("mono+spec", false, true),
        ]
    } else {
        vec![("spark", true, true), ("mono", false, false)]
    }
}

fn main() {
    let args = parse_args();
    if args.partitions {
        header(
            "fault_sweep --partitions",
            "sort under partition-only plans with 2-way replicated input, both executors",
            "fetch timeout/retry/backoff plus replica re-planning and lineage \
             resubmission complete the job through a network partition instead \
             of hanging; exhausted retries fail fast with a structured error",
        );
    } else if args.matrix {
        header(
            "fault_sweep --matrix",
            "sort under straggler-only plans: no, slot-level, and monotask-level speculation",
            "monotask-level speculation recovers the straggler makespan while wasting \
             strictly less work than slot-level whole-task duplicates",
        );
    } else {
        header(
            "fault_sweep",
            "sort under increasing fault intensity, both executors",
            "recovery (lineage resubmission, retries, speculation) completes the job; \
             makespan inflation and overhead counters quantify the cost",
        );
    }
    // Fault-free baselines: intensity 0 for each engine row, run once.
    let tasks_per_stage = {
        let (job, _) = workload(args.partitions);
        job.stages.iter().map(|s| s.tasks.len()).max().unwrap_or(1)
    };
    let empty = FaultPlan::new();
    let rows = engines(args.matrix, args.partitions);
    let bases: Vec<Point> = rows
        .iter()
        .map(|&(engine, is_spark, spec)| {
            let p = if is_spark {
                run_spark(engine, spec, args.partitions, &empty, 0.0, 0.0)
            } else {
                run_mono(engine, spec, args.partitions, &empty, 0.0, 0.0)
            };
            assert!(
                p.completed,
                "fault-free baseline failed: {}={}",
                engine, p.error
            );
            p
        })
        .collect();
    let horizon_s = bases
        .iter()
        .zip(&rows)
        .find(|(_, (engine, _, _))| *engine == "mono")
        .map(|(p, _)| p.makespan_s)
        .expect("mono row always present");
    println!(
        "{:>10} {:>9} {:>11} {:>9} {:>8} {:>10} {:>9} {:>11} {:>7} {:>5} {:>8}",
        "engine",
        "intensity",
        "makespan(s)",
        "inflate",
        "retried",
        "speculated",
        "wasted(s)",
        "wasted(MiB)",
        "copies",
        "wins",
        "wall(s)"
    );
    let mut points: Vec<Point> = Vec::new();
    for &intensity in &args.points {
        for (i, &(engine, is_spark, spec)) in rows.iter().enumerate() {
            let p = if intensity == 0.0 {
                // Reuse the baseline run instead of re-simulating it.
                Point {
                    inflation: 1.0,
                    error: String::new(),
                    ..bases[i].clone()
                }
            } else {
                let plan = plan_for(
                    args.matrix,
                    args.partitions,
                    intensity,
                    horizon_s,
                    tasks_per_stage,
                );
                if is_spark {
                    run_spark(
                        engine,
                        spec,
                        args.partitions,
                        &plan,
                        intensity,
                        bases[i].makespan_s,
                    )
                } else {
                    run_mono(
                        engine,
                        spec,
                        args.partitions,
                        &plan,
                        intensity,
                        bases[i].makespan_s,
                    )
                }
            };
            if p.completed {
                println!(
                    "{:>10} {:>9} {:>11.1} {:>9.2} {:>8} {:>10} {:>9.1} {:>11.1} {:>7} {:>5} {:>8.3}",
                    p.engine,
                    p.intensity,
                    p.makespan_s,
                    p.inflation,
                    p.tasks_retried,
                    p.tasks_speculated,
                    p.wasted_s,
                    p.wasted_bytes as f64 / (1024.0 * 1024.0),
                    p.mono_copies,
                    p.mono_copy_wins,
                    p.wall_s
                );
            } else {
                println!("{:>10} {:>9} failed: {}", p.engine, p.intensity, p.error);
            }
            points.push(p);
        }
    }
    if let Some(baseline_path) = &args.check {
        let baseline = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
        let records = baseline_records(&baseline);
        let mut failed = false;
        for p in &points {
            let Some(rec) = records
                .iter()
                .find(|r| r.engine == p.engine && (r.intensity - p.intensity).abs() < 1e-9)
            else {
                println!(
                    "check: {} intensity {} not in baseline, skipping",
                    p.engine, p.intensity
                );
                continue;
            };
            // Everything simulated must match: any drift at all is a
            // behavior change. Baselines written before a field existed lack
            // it, and it is skipped.
            let mut sim_ok = true;
            for (name, got) in simulated_fields(p) {
                let Some(base) = json_field(&rec.line, &format!("\"{name}\"")) else {
                    continue;
                };
                if got.parse::<f64>() != Ok(base) {
                    println!(
                        "check: {} intensity {} {name} {got} vs baseline {base} DRIFTED",
                        p.engine, p.intensity
                    );
                    sim_ok = false;
                }
            }
            // Wall clock gets the same budget guard as scale_sweep, with a
            // floor so tiny points don't measure scheduler noise.
            let budget = (rec.wall_s * args.max_factor).max(0.25);
            let wall_ok = p.wall_s <= budget;
            println!(
                "check: {} intensity {} makespan {:.3}s, simulated fields {} | wall {:.3}s (budget {:.3}s) {}",
                p.engine,
                p.intensity,
                p.makespan_s,
                if sim_ok { "OK" } else { "DRIFTED" },
                p.wall_s,
                budget,
                if wall_ok { "OK" } else { "REGRESSED" }
            );
            failed |= !sim_ok || !wall_ok;
        }
        if failed {
            eprintln!("fault_sweep --check: simulated drift or wall-clock budget exceeded");
            std::process::exit(1);
        }
        return; // check mode never rewrites the committed record
    }
    let bench = if args.partitions {
        "fault_sweep --partitions"
    } else if args.matrix {
        "fault_sweep --matrix"
    } else {
        "fault_sweep"
    };
    let mut json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"host\": {},\n  \"workload\": \"sort\",\n",
        host_json()
    );
    json.push_str(&format!(
        "  \"machines\": {MACHINES},\n  \"gib_per_machine\": {GIB_PER_MACHINE},\n  \
         \"seed\": {SEED},\n  \"points\": [\n"
    ));
    for (i, p) in points.iter().enumerate() {
        let simulated: Vec<String> = simulated_fields(p)
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"intensity\": {}, \"completed\": {}, {}, \
             \"wall_s\": {:.3}, \"peak_rss_mb\": {}, \"host_bytes_per_monotask\": {}}}{}\n",
            p.engine,
            p.intensity,
            p.completed,
            simulated.join(", "),
            p.wall_s,
            json_opt(p.peak_rss_mb),
            json_opt(host_bytes_per_monotask(p.peak_rss_mb, p.monotasks)),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = args.out.unwrap_or_else(|| {
        if args.partitions {
            "BENCH_PR8.json".to_string()
        } else if args.matrix {
            "BENCH_PR5.json".to_string()
        } else {
            "BENCH_PR3.json".to_string()
        }
    });
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out}");
}
