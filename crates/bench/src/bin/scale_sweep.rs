//! Control-plane scaling sweep: the sort (or BDB) workload at 5–1000+
//! machines, with an optional ε/Δ approximate-allocator matrix.
//!
//! The paper's evaluation tops out at 20 workers; this sweep tracks whether
//! the *simulator's* control plane (fluid reallocation, lazy drain,
//! completion collection) stays cheap enough to model clusters well beyond
//! that. Weak scaling: sort input grows with the cluster so per-machine work
//! is constant and any wall-clock blow-up is allocator overhead, not
//! workload size. `--workload bdb` runs the ten big-data-benchmark queries
//! instead — many small stages (churny control plane) rather than one big
//! shuffle (churny fabric).
//!
//! Emits one JSON record per (machines, ε, Δ, shards) point: simulated
//! makespan, host wall-clock, events fired, reallocations, per-phase
//! wall-clock attribution (fabric alloc / machine alloc / drain / completion
//! / executor control / template build / instantiate — performance clarity
//! applied to the simulator itself), template hit/miss/invalidation counts
//! with a nested per-stage breakdown, and, when the same run also measured
//! the exact allocator at that scale, the makespan drift the approximation
//! introduced. Each row also carries the point's peak host memory
//! (`peak_rss_mb`, the process's `VmHWM`, reset before the point by writing
//! `5` to `/proc/self/clear_refs`; `null` where `/proc` does not offer
//! that) and `host_bytes_per_monotask`, that peak over the monotasks the
//! run completed. The peak includes whatever the allocator kept resident
//! from earlier points of the same sweep. A top-level `host` object records
//! the host's `nproc` and CPU model (`null` where unavailable).
//!
//! Usage:
//!   scale_sweep [--out PATH] [--points 5,20,50] [--workload sort|bdb]
//!               [--epsilon 0,0.01] [--quantum-ms 0,1]
//!               [--racks SIZE] [--oversub F] [--shards 1,8]
//!               [--tasks-per-machine N]
//!               [--check BASELINE.json --max-factor 2.0 --max-drift PCT]
//!               [--max-control SECS]
//!
//! `--racks SIZE` switches the fabric to the rack-sharded hierarchy:
//! machines are grouped into racks of SIZE with aggregation bandwidth
//! `SIZE × NIC / oversub` (`--oversub`, default 4). `--shards` lists worker
//! thread counts to measure; the sweep *asserts* that every shard count
//! produces the bit-identical simulated makespan at each point — shards
//! trade wall-clock only, never results. `--tasks-per-machine N` overrides
//! the sort's one-map-per-128-MiB sizing (32 tasks/machine) with N coarser
//! tasks per machine — shuffle bookkeeping is Θ(maps × reduces), so the
//! 10k-machine point needs this to fit in host memory.
//!
//! The output path defaults to `$SCALE_SWEEP_OUT` or `BENCH_PR4.json`, so
//! each PR appends a new record to the perf trajectory instead of silently
//! overwriting the previous one. `--check` compares the measured wall times
//! against a committed baseline (matching on workload, machines, ε, Δ and
//! racks — preferring the same shard count, falling back to any) and exits
//! non-zero on a >`max-factor` regression at any shared point. Baseline rows
//! measured with execution templates off (BENCH_PR6.json's A/B columns) are
//! ignored. `--check` also requires each point's simulated makespan to equal
//! the baseline's to within print precision — simulated results are
//! deterministic, so a changed makespan is a behaviour change, not drift.
//! It reads no other field, so baselines without the memory fields check
//! the same way. `--max-drift` additionally compares each approximate point's
//! simulated makespan against the committed *exact* makespan at the same
//! scale — makespans are bit-deterministic across hosts, so this doubles as
//! the CI drift ceiling for the ε/Δ mode. `--max-control` caps the total
//! scheduler-side wall time (control + template build + instantiate) of
//! every measured point — the CI budget that keeps the control plane flat as
//! the cluster grows.

use std::time::Instant;

use cluster::{ClusterSpec, MachineSpec};
use dataflow::{BlockMap, JobSpec};
use mt_bench::{
    header, host_bytes_per_monotask, host_json, json_field, json_opt, json_str_field, peak_rss_mb,
    reset_peak_rss,
};
use workloads::{bdb_job, sort_job, BdbQuery, SortConfig};

/// GiB of sort input per machine (weak scaling).
const GIB_PER_MACHINE: f64 = 2.0;

const DEFAULT_POINTS: &[usize] = &[5, 20, 50, 100, 200, 400];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sort,
    Bdb,
}

impl Workload {
    fn as_str(self) -> &'static str {
        match self {
            Workload::Sort => "sort",
            Workload::Bdb => "bdb",
        }
    }

    fn jobs(self, machines: usize, tasks_per_machine: usize) -> Vec<(JobSpec, BlockMap)> {
        match self {
            Workload::Sort => {
                let mut cfg = SortConfig::new(GIB_PER_MACHINE * machines as f64, 10, machines, 2);
                // Shuffle bookkeeping is Θ(maps × reduces); the default
                // one-task-per-128-MiB sizing (32 tasks/machine weak-scaled)
                // needs ~450 GB of host RAM at 10k machines, so the largest
                // points trade task granularity for feasibility explicitly.
                if tasks_per_machine > 0 {
                    let half = (machines * tasks_per_machine / 2).max(1);
                    cfg.map_tasks = Some(half);
                    cfg.reduce_tasks = Some(half);
                }
                vec![sort_job(&cfg)]
            }
            // All ten queries in one run: a stream of short stages over
            // fixed-size tables, stressing scheduler/stage churn instead of
            // one giant shuffle wave.
            Workload::Bdb => BdbQuery::all()
                .iter()
                .map(|&q| bdb_job(q, machines, 2))
                .collect(),
        }
    }
}

/// Control-plane attribution for one executed stage of one job.
struct StageCtl {
    job: String,
    stage: u32,
    tasks_started: u64,
    build_s: f64,
    instantiate_s: f64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

struct Point {
    workload: Workload,
    machines: usize,
    tasks: usize,
    epsilon: f64,
    quantum_ms: f64,
    /// Machines per rack (0 = flat single-level fabric).
    racks: usize,
    /// Fabric worker threads (1 = everything on the simulation thread).
    shards: usize,
    makespan_s: f64,
    wall_s: f64,
    events: u64,
    reallocs: u64,
    alloc_s: f64,
    machine_alloc_s: f64,
    drain_s: f64,
    completion_s: f64,
    control_s: f64,
    template_build_s: f64,
    instantiate_s: f64,
    template_hits: u64,
    template_misses: u64,
    template_invalidations: u64,
    /// Per-stage control attribution (nested under the point in the JSON).
    stages: Vec<StageCtl>,
    /// Makespan drift vs the exact allocator at the same point, when this
    /// run measured it too (ε = Δ = 0 points have none by definition).
    drift_pct: Option<f64>,
    /// Peak host memory over the point, MiB (`None` without `/proc`).
    peak_rss_mb: Option<f64>,
    /// Monotasks the run completed (one record each).
    monotasks: usize,
}

impl Point {
    /// Peak host bytes per completed monotask.
    fn host_bytes_per_monotask(&self) -> Option<f64> {
        host_bytes_per_monotask(self.peak_rss_mb, self.monotasks)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_point(
    workload: Workload,
    machines: usize,
    epsilon: f64,
    quantum_ms: f64,
    racks: usize,
    oversub: f64,
    shards: usize,
    tasks_per_machine: usize,
) -> Point {
    let peak_reset = reset_peak_rss();
    let cluster = if racks > 0 {
        ClusterSpec::with_racks(machines, MachineSpec::m2_4xlarge(), racks, oversub)
    } else {
        ClusterSpec::new(machines, MachineSpec::m2_4xlarge())
    };
    let jobs = workload.jobs(machines, tasks_per_machine);
    let tasks = jobs
        .iter()
        .flat_map(|(job, _)| job.stages.iter())
        .map(|s| s.tasks.len())
        .sum();
    // The full-duplex fabric holds one flow per live transfer (≈M² in an
    // all-to-all shuffle wave) — exactly the structure this sweep stresses.
    // Traces are off: at hundreds of machines the per-machine-per-event
    // samples would dominate memory without affecting simulation results.
    let mono_cfg = monotasks_core::MonoConfig {
        full_duplex_network: true,
        collect_traces: false,
        fabric_epsilon: epsilon,
        fabric_quantum_secs: quantum_ms / 1e3,
        fabric_shards: shards,
        ..monotasks_core::MonoConfig::default()
    };
    let start = Instant::now();
    let out = monotasks_core::run(&cluster, &jobs, &mono_cfg);
    let wall_s = start.elapsed().as_secs_f64();
    let stages = out
        .jobs
        .iter()
        .flat_map(|j| {
            j.stages.iter().map(|s| StageCtl {
                job: j.name.clone(),
                stage: s.stage.0,
                tasks_started: s.control.tasks_started,
                build_s: s.control.build_secs(),
                instantiate_s: s.control.instantiate_secs(),
                hits: s.control.template_hits,
                misses: s.control.template_misses,
                invalidations: s.control.template_invalidations,
            })
        })
        .collect();
    Point {
        workload,
        machines,
        tasks,
        epsilon,
        quantum_ms,
        racks,
        shards,
        makespan_s: out.makespan.as_secs_f64(),
        wall_s,
        events: out.stats.events,
        reallocs: out.stats.reallocs,
        alloc_s: out.stats.alloc_secs(),
        machine_alloc_s: out.stats.machine_alloc_secs(),
        drain_s: out.stats.drain_secs(),
        completion_s: out.stats.completion_secs(),
        control_s: out.stats.control_secs(),
        template_build_s: out.stats.template_build_secs(),
        instantiate_s: out.stats.instantiate_secs(),
        template_hits: out.stats.template_hits,
        template_misses: out.stats.template_misses,
        template_invalidations: out.stats.template_invalidations,
        stages,
        drift_pct: None,
        peak_rss_mb: if peak_reset { peak_rss_mb() } else { None },
        monotasks: out.records.len(),
    }
}

struct Args {
    out: String,
    points: Vec<usize>,
    workload: Workload,
    epsilons: Vec<f64>,
    quantums_ms: Vec<f64>,
    /// Machines per rack (0 = flat fabric, the default).
    racks: usize,
    /// Rack core oversubscription factor (agg = rack_size × NIC / oversub).
    oversub: f64,
    /// Fabric worker-thread counts to measure per point.
    shards: Vec<usize>,
    /// Sort tasks per machine (0 = one map per 128 MiB block, the default).
    tasks_per_machine: usize,
    check: Option<String>,
    max_factor: f64,
    max_drift: Option<f64>,
    max_control: Option<f64>,
}

fn parse_args() -> Args {
    let default_out =
        std::env::var("SCALE_SWEEP_OUT").unwrap_or_else(|_| "BENCH_PR4.json".to_string());
    let mut args = Args {
        out: default_out,
        points: DEFAULT_POINTS.to_vec(),
        workload: Workload::Sort,
        epsilons: vec![0.0],
        quantums_ms: vec![0.0],
        racks: 0,
        oversub: 4.0,
        shards: vec![1],
        tasks_per_machine: 0,
        check: None,
        max_factor: 2.0,
        max_drift: None,
        max_control: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--out" => args.out = value("--out"),
            "--points" => {
                args.points = value("--points")
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad --points entry"))
                    .collect();
            }
            "--workload" => {
                args.workload = match value("--workload").as_str() {
                    "sort" => Workload::Sort,
                    "bdb" => Workload::Bdb,
                    other => panic!("unknown workload: {other}"),
                };
            }
            "--epsilon" => {
                args.epsilons = value("--epsilon")
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad --epsilon entry"))
                    .collect();
            }
            "--quantum-ms" => {
                args.quantums_ms = value("--quantum-ms")
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad --quantum-ms entry"))
                    .collect();
            }
            "--racks" => args.racks = value("--racks").parse().expect("bad --racks"),
            "--oversub" => args.oversub = value("--oversub").parse().expect("bad --oversub"),
            "--shards" => {
                args.shards = value("--shards")
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad --shards entry"))
                    .collect();
            }
            "--tasks-per-machine" => {
                args.tasks_per_machine = value("--tasks-per-machine")
                    .parse()
                    .expect("bad --tasks-per-machine")
            }
            "--check" => args.check = Some(value("--check")),
            "--max-factor" => {
                args.max_factor = value("--max-factor").parse().expect("bad --max-factor")
            }
            "--max-drift" => {
                args.max_drift = Some(value("--max-drift").parse().expect("bad --max-drift"))
            }
            "--max-control" => {
                args.max_control = Some(value("--max-control").parse().expect("bad --max-control"))
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

/// One point record parsed back out of a committed sweep JSON file.
struct BasePoint {
    workload: String,
    machines: usize,
    epsilon: f64,
    quantum_ms: f64,
    /// Machines per rack (0 for flat-fabric records, the pre-PR9 default).
    racks: usize,
    /// Fabric worker threads (1 for pre-PR9 records).
    shards: usize,
    wall_s: f64,
    makespan_s: f64,
}

/// Pulls point records out of a sweep JSON file without a JSON dependency:
/// each point's scalar fields are one line with known keys (the nested
/// per-stage lines carry none of them and fall through the filter). Records
/// predating the ε/Δ matrix (e.g. BENCH_PR2.json) default to the exact sort
/// allocator. Rows marked `"templates": false` measured a launch path that no
/// longer exists and are skipped.
fn baseline_points(json: &str) -> Vec<BasePoint> {
    json.lines()
        .filter(|line| !line.contains("\"templates\": false"))
        .filter_map(|line| {
            let machines = json_field(line, "\"machines\"")? as usize;
            let wall_s = json_field(line, "\"wall_s\"")?;
            let makespan_s = json_field(line, "\"makespan_s\"")?;
            Some(BasePoint {
                workload: json_str_field(line, "\"workload\"").unwrap_or_else(|| "sort".into()),
                machines,
                epsilon: json_field(line, "\"epsilon\"").unwrap_or(0.0),
                quantum_ms: json_field(line, "\"quantum_ms\"").unwrap_or(0.0),
                racks: json_field(line, "\"racks\"").unwrap_or(0.0) as usize,
                shards: json_field(line, "\"shards\"").unwrap_or(1.0) as usize,
                wall_s,
                makespan_s,
            })
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 + a.abs() * 1e-6
}

fn main() {
    let args = parse_args();
    header(
        "scale_sweep",
        "sort/bdb at 5-1000 machines, full-duplex fabric, weak scaling",
        "per-event control-plane cost proportional to what the event touches",
    );
    println!(
        "{:>9} {:>7} {:>6} {:>5} {:>5} {:>6} {:>11} {:>9} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6} {:>8} {:>8} {:>6}",
        "machines",
        "tasks",
        "eps",
        "dt_ms",
        "racks",
        "shards",
        "makespan(s)",
        "wall(s)",
        "events",
        "reallocs",
        "alloc(s)",
        "mach(s)",
        "drain(s)",
        "compl(s)",
        "ctrl(s)",
        "build(s)",
        "inst(s)",
        "hit%",
        "drift%",
        "rss(MiB)",
        "B/mt"
    );
    let mut points: Vec<Point> = Vec::new();
    for &m in &args.points {
        for &eps in &args.epsilons {
            for &q in &args.quantums_ms {
                for &shards in &args.shards {
                    let mut p = run_point(
                        args.workload,
                        m,
                        eps,
                        q,
                        args.racks,
                        args.oversub,
                        shards,
                        args.tasks_per_machine,
                    );
                    // Shard-count invariance is a hard correctness claim,
                    // not a budget: every shard count at the same config
                    // must produce the bit-identical simulated makespan.
                    if let Some(first) = points.iter().find(|e| {
                        e.machines == m
                            && e.epsilon == eps
                            && e.quantum_ms == q
                            && e.racks == args.racks
                    }) {
                        assert!(
                            first.makespan_s.to_bits() == p.makespan_s.to_bits(),
                            "shard-count invariance violated at {m} machines: \
                                 {} shards -> {}s, {shards} shards -> {}s",
                            first.shards,
                            first.makespan_s,
                            p.makespan_s
                        );
                    }
                    // Drift vs the exact combo measured earlier in this
                    // run (the combos iterate ε then Δ, so list 0 first
                    // to get drift columns for the rest of the matrix).
                    if eps > 0.0 || q > 0.0 {
                        p.drift_pct = points
                            .iter()
                            .find(|e| {
                                e.machines == m
                                    && e.epsilon == 0.0
                                    && e.quantum_ms == 0.0
                                    && e.racks == args.racks
                            })
                            .map(|e| (p.makespan_s - e.makespan_s) / e.makespan_s * 100.0);
                    }
                    let looked_up = p.template_hits + p.template_misses;
                    println!(
                            "{:>9} {:>7} {:>6} {:>5} {:>5} {:>6} {:>11.1} {:>9.2} {:>10} {:>10} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>6} {:>8} {:>8} {:>6}",
                            p.machines,
                            p.tasks,
                            p.epsilon,
                            p.quantum_ms,
                            p.racks,
                            p.shards,
                            p.makespan_s,
                            p.wall_s,
                            p.events,
                            p.reallocs,
                            p.alloc_s,
                            p.machine_alloc_s,
                            p.drain_s,
                            p.completion_s,
                            p.control_s,
                            p.template_build_s,
                            p.instantiate_s,
                            if looked_up > 0 {
                                format!("{:.1}", p.template_hits as f64 / looked_up as f64 * 100.0)
                            } else {
                                "-".into()
                            },
                            p.drift_pct
                                .map(|d| format!("{d:+.3}"))
                                .unwrap_or_else(|| "-".into()),
                            p.peak_rss_mb
                                .map_or_else(|| "-".into(), |v| format!("{v:.1}")),
                            p.host_bytes_per_monotask()
                                .map_or_else(|| "-".into(), |v| format!("{v:.0}")),
                        );
                    points.push(p);
                }
            }
        }
    }
    let mut failed = false;
    // The control-plane budget applies to every measured point, baseline or
    // not: total scheduler-side wall time must stay under the ceiling.
    if let Some(max_control) = args.max_control {
        for p in &points {
            let total = p.control_s + p.template_build_s + p.instantiate_s;
            let ok = total <= max_control;
            println!(
                "check: {} machines (eps={}, dt={}ms) control {:.3}s \
                 (ctrl {:.3} + build {:.3} + inst {:.3}) ceiling {:.3}s {}",
                p.machines,
                p.epsilon,
                p.quantum_ms,
                total,
                p.control_s,
                p.template_build_s,
                p.instantiate_s,
                max_control,
                if ok { "OK" } else { "OVER BUDGET" }
            );
            failed |= !ok;
        }
    }
    if let Some(baseline_path) = &args.check {
        let baseline = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
        let base = baseline_points(&baseline);
        for p in &points {
            let same_cfg = |b: &&BasePoint| {
                b.workload == p.workload.as_str()
                    && b.machines == p.machines
                    && close(b.epsilon, p.epsilon)
                    && close(b.quantum_ms, p.quantum_ms)
                    && b.racks == p.racks
            };
            // Prefer the baseline point measured with the same shard count;
            // fall back to any matching config — makespans must agree either
            // way (shard counts are proven result-invariant above), and wall
            // budgets stay meaningful.
            let b = base
                .iter()
                .find(|b| same_cfg(b) && b.shards == p.shards)
                .or_else(|| base.iter().find(same_cfg));
            let Some(b) = b else {
                println!(
                    "check: {} machines (eps={}, dt={}ms) not in baseline, skipping",
                    p.machines, p.epsilon, p.quantum_ms
                );
                continue;
            };
            // Tiny points measure scheduler noise more than allocator cost;
            // a floor keeps the guard meaningful on shared CI runners.
            let budget = (b.wall_s * args.max_factor).max(0.25);
            let ok = p.wall_s <= budget;
            println!(
                "check: {} machines (eps={}, dt={}ms) wall {:.3}s vs baseline {:.3}s (budget {:.3}s) {}",
                p.machines,
                p.epsilon,
                p.quantum_ms,
                p.wall_s,
                b.wall_s,
                budget,
                if ok { "OK" } else { "REGRESSED" }
            );
            failed |= !ok;
            // Simulated makespans are deterministic: any divergence from the committed makespan at
            // the same config is a behavior change, not measurement noise
            // (tolerance covers the baseline's 3-decimal print precision).
            let ms_ok = (p.makespan_s - b.makespan_s).abs() <= 2e-3;
            println!(
                "check: {} machines (eps={}, dt={}ms) makespan {:.3}s vs baseline {:.3}s {}",
                p.machines,
                p.epsilon,
                p.quantum_ms,
                p.makespan_s,
                b.makespan_s,
                if ms_ok { "OK" } else { "MISMATCH" }
            );
            failed |= !ms_ok;
            // Simulated makespans are bit-deterministic across hosts, so an
            // approximate point can be held to a drift ceiling against the
            // committed exact makespan at the same scale.
            if let Some(max_drift) = args.max_drift {
                if p.epsilon > 0.0 || p.quantum_ms > 0.0 {
                    let exact = base.iter().find(|b| {
                        b.workload == p.workload.as_str()
                            && b.machines == p.machines
                            && b.epsilon == 0.0
                            && b.quantum_ms == 0.0
                            && b.racks == p.racks
                    });
                    match exact {
                        Some(e) => {
                            let drift = (p.makespan_s - e.makespan_s) / e.makespan_s * 100.0;
                            let ok = drift.abs() <= max_drift;
                            println!(
                                "check: {} machines (eps={}, dt={}ms) makespan drift {:+.3}% (ceiling {:.3}%) {}",
                                p.machines,
                                p.epsilon,
                                p.quantum_ms,
                                drift,
                                max_drift,
                                if ok { "OK" } else { "DRIFTED" }
                            );
                            failed |= !ok;
                        }
                        None => println!(
                            "check: {} machines has no exact baseline point, drift unchecked",
                            p.machines
                        ),
                    }
                }
            }
        }
        if failed {
            eprintln!("scale_sweep --check: budget, makespan, or drift ceiling exceeded");
            std::process::exit(1);
        }
        return; // check mode never rewrites the committed record
    }
    let mut json = format!(
        "{{\n  \"bench\": \"scale_sweep\",\n  \"host\": {},\n",
        host_json()
    );
    json.push_str(&format!(
        "  \"gib_per_machine\": {GIB_PER_MACHINE},\n  \"points\": [\n"
    ));
    for (i, p) in points.iter().enumerate() {
        let drift = p
            .drift_pct
            .map(|d| format!(", \"drift_pct\": {d:.4}"))
            .unwrap_or_default();
        // Scalar fields stay on one line — the line-based baseline parser
        // keys off machines/wall_s/makespan_s co-occurring; the nested
        // per-stage lines carry none of those keys.
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"machines\": {}, \"tasks\": {}, \"epsilon\": {}, \
             \"quantum_ms\": {}, \"racks\": {}, \"shards\": {}, \
             \"makespan_s\": {:.3}, \
             \"wall_s\": {:.3}, \"events\": {}, \"reallocs\": {}, \"alloc_s\": {:.3}, \
             \"machine_alloc_s\": {:.3}, \"drain_s\": {:.3}, \"completion_s\": {:.3}, \
             \"control_s\": {:.3}, \"template_build_s\": {:.3}, \"instantiate_s\": {:.3}, \
             \"template_hits\": {}, \"template_misses\": {}, \"template_invalidations\": {}, \
             \"peak_rss_mb\": {}, \"host_bytes_per_monotask\": {}{},\n",
            p.workload.as_str(),
            p.machines,
            p.tasks,
            p.epsilon,
            p.quantum_ms,
            p.racks,
            p.shards,
            p.makespan_s,
            p.wall_s,
            p.events,
            p.reallocs,
            p.alloc_s,
            p.machine_alloc_s,
            p.drain_s,
            p.completion_s,
            p.control_s,
            p.template_build_s,
            p.instantiate_s,
            p.template_hits,
            p.template_misses,
            p.template_invalidations,
            json_opt(p.peak_rss_mb),
            json_opt(p.host_bytes_per_monotask()),
            drift,
        ));
        json.push_str("     \"stages\": [\n");
        for (k, s) in p.stages.iter().enumerate() {
            json.push_str(&format!(
                "       {{\"job\": \"{}\", \"stage\": {}, \"tasks_started\": {}, \
                 \"build_s\": {:.6}, \"instantiate_s\": {:.6}, \"hits\": {}, \
                 \"misses\": {}, \"invalidations\": {}}}{}\n",
                s.job,
                s.stage,
                s.tasks_started,
                s.build_s,
                s.instantiate_s,
                s.hits,
                s.misses,
                s.invalidations,
                if k + 1 < p.stages.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "     ]}}{}\n",
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("\nwrote {}", args.out);
    if failed {
        eprintln!("scale_sweep: control-plane budget exceeded");
        std::process::exit(1);
    }
}
