//! The three workloads and one measured iteration of each.
//!
//! Each iteration calls the simulator's public entry points and times every
//! call from outside (see [`crate::spans`]); the executors' own [`SimStats`]
//! wall buckets split the executor calls further by crate. Every executor
//! call plus its checks is one operation of the `attempted`/`failed` count.

use std::collections::BTreeMap;
use std::mem::{size_of, size_of_val};

use cluster::{ClusterSpec, FaultPlan, MachineSpec, RunInstant, TraceSet};
use dataflow::{BlockMap, JobSpec};
use monotasks_core::{MonoConfig, MonoRunOutput, MonotaskRecord, QueueSnapshot};
use mt_trace::{validate_chrome_json, Arg, Event};
use simcore::{SimStats, SimTime};
use sparklike::{SparkConfig, SparkRunOutput, TaskRecord};
use workloads::{bdb_job, sort_job, sweep_plan, BdbQuery, SortConfig};

use crate::expect::Gate;
use crate::spans::Tracer;

/// Per-iteration values by metric name. Names starting with `_` are
/// intermediate sums, never reported.
pub type Sample = BTreeMap<&'static str, f64>;

/// Bytes in a mebibyte: every `_mb` figure is MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// GiB of sort input per machine (weak scaling, as in `scale_sweep`).
const GIB_PER_MACHINE: f64 = 2.0;
/// sort-scale: machines per rack and core oversubscription.
const RACK_SIZE: usize = 25;
const OVERSUB: f64 = 4.0;
/// sort-scale: map plus reduce tasks per machine.
const TASKS_PER_MACHINE: usize = 2;
/// whatif-trace: fault intensity of the seeded sweep plan.
const INTENSITY: f64 = 1.0;
/// whatif-trace arms instant collection with this path; nothing is written
/// to it, since the benchmark renders traces in memory.
const UNWRITTEN_TRACE_PATH: &str = "perfbench-unwritten.json";

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Weak-scaled sort on racks, monotasks executor: control-plane bound.
    SortScale,
    /// All ten Big Data Benchmark queries on a flat exact fabric:
    /// fabric-allocator bound.
    BdbStages,
    /// The `trace_export` what-if path: fault-free and faulty runs on both
    /// executors, fault replay and in-memory trace rendering:
    /// machine-allocator bound.
    WhatifTrace,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SortScale,
        Workload::BdbStages,
        Workload::WhatifTrace,
    ];

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SortScale => "sort-scale",
            Workload::BdbStages => "bdb-stages",
            Workload::WhatifTrace => "whatif-trace",
        }
    }

    /// Simulated machines at the benchmark (`full`) and self-test (`tiny`)
    /// sizes.
    pub fn machines(self, tiny: bool) -> usize {
        match (self, tiny) {
            (Workload::SortScale, false) => 700,
            (Workload::SortScale, true) => 50,
            (Workload::BdbStages, false) => 24,
            (Workload::BdbStages, true) => 5,
            (Workload::WhatifTrace, false) => 40,
            (Workload::WhatifTrace, true) => 5,
        }
    }

    /// Whether the fault-plan seed changes the inputs: only whatif-trace
    /// has a random input, its fault plan.
    pub fn seeded(self) -> bool {
        self == Workload::WhatifTrace
    }
}

/// Everything a workload's iterations run on.
pub struct Inputs {
    cluster: ClusterSpec,
    jobs: Vec<(JobSpec, BlockMap)>,
    mono: MonoConfig,
    spark: SparkConfig,
}

/// Builds the cluster spec, jobs and block maps.
pub fn setup(w: Workload, machines: usize) -> Inputs {
    let m2 = MachineSpec::m2_4xlarge();
    let sort = |cfg: &SortConfig| vec![sort_job(cfg)];
    match w {
        Workload::SortScale => {
            let mut cfg = SortConfig::new(GIB_PER_MACHINE * machines as f64, 10, machines, 2);
            let half = (machines * TASKS_PER_MACHINE / 2).max(1);
            cfg.map_tasks = Some(half);
            cfg.reduce_tasks = Some(half);
            Inputs {
                cluster: ClusterSpec::with_racks(machines, m2, RACK_SIZE, OVERSUB),
                jobs: sort(&cfg),
                mono: MonoConfig {
                    full_duplex_network: true,
                    collect_traces: false,
                    fabric_epsilon: 0.01,
                    fabric_quantum_secs: 1e-3,
                    fabric_shards: 1,
                    ..MonoConfig::default()
                },
                spark: SparkConfig::default(),
            }
        }
        Workload::BdbStages => Inputs {
            cluster: ClusterSpec::new(machines, m2),
            jobs: BdbQuery::all()
                .iter()
                .map(|&q| bdb_job(q, machines, 2))
                .collect(),
            mono: MonoConfig {
                full_duplex_network: true,
                collect_traces: false,
                fabric_shards: 1,
                ..MonoConfig::default()
            },
            spark: SparkConfig::default(),
        },
        Workload::WhatifTrace => Inputs {
            cluster: ClusterSpec::new(machines, m2),
            jobs: sort(&SortConfig::new(
                GIB_PER_MACHINE * machines as f64,
                10,
                machines,
                2,
            )),
            mono: MonoConfig {
                trace_path: Some(UNWRITTEN_TRACE_PATH.into()),
                ..MonoConfig::default()
            },
            spark: SparkConfig {
                trace_path: Some(UNWRITTEN_TRACE_PATH.into()),
                ..SparkConfig::default()
            },
        },
    }
}

/// What one iteration measured.
#[derive(Default)]
pub struct Iteration {
    /// Per-layer values plus `simulate_s`, `iteration_s` and `_` sums.
    pub sample: Sample,
    /// Operations attempted (executor calls plus their checks).
    pub attempted: u64,
    /// Operations with an executor error or a gate mismatch.
    pub failed: u64,
    /// Computed bytes of each kind of result buffer, summed over the
    /// outputs the iteration produced.
    pub memory: BTreeMap<&'static str, f64>,
    /// `perfmodel::replay` error against the faulty simulation, percent.
    pub replay_err_pct: Option<f64>,
}

impl Iteration {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.sample.entry(key).or_insert(0.0) += v;
    }

    /// A sample value; 0 when the iteration never recorded it.
    pub fn get(&self, key: &str) -> f64 {
        self.sample.get(key).copied().unwrap_or(0.0)
    }

    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn held(&mut self, buffer: &'static str, bytes: f64) {
        *self.memory.entry(buffer).or_insert(0.0) += bytes;
    }

    /// Allocator buckets every executor reports, charged to the crates that
    /// own the allocators: the fabric (`simcore::maxmin`) and the
    /// per-machine fluid model (`cluster::fluid`). Returns their sum.
    fn allocators(&mut self, st: &SimStats) -> f64 {
        self.add("simcore.fabric_alloc_s", st.alloc_secs());
        self.add("simcore.drain_s", st.drain_secs());
        self.add("simcore.completion_s", st.completion_secs());
        self.add("simcore.reallocs", st.reallocs as f64);
        self.add("simcore.shard_epochs", st.shard_epochs as f64);
        self.add("simcore.cross_shard_events", st.cross_shard_events as f64);
        self.add("cluster.machine_alloc_s", st.machine_alloc_secs());
        st.allocator_nanos() as f64 / 1e9
    }

    fn mono(&mut self, out: &MonoRunOutput, secs: f64) {
        let st = &out.stats;
        self.add("simulate_s", secs);
        self.add("core.run_s", secs);
        let alloc = self.allocators(st);
        self.add("_core.alloc_s", alloc);
        self.add(
            "_core.loop_s",
            alloc + st.control_secs() + st.template_build_secs() + st.instantiate_secs(),
        );
        self.add("core.control_remainder_s", st.control_secs());
        self.add("core.template_build_s", st.template_build_secs());
        self.add("core.instantiate_s", st.instantiate_secs());
        self.add("core.events", st.events as f64);
        self.add("_core.template_hits", st.template_hits as f64);
        self.add("_core.template_misses", st.template_misses as f64);
        self.add("core.monotasks", out.records.len() as f64);
        self.add("core.queue_snapshots", out.queue_trace.len() as f64);
        self.add("cluster.instants", out.instants.len() as f64);
        let records = (out.records.len() * size_of::<MonotaskRecord>()) as f64;
        self.add("core.record_mb", records / MIB);
        self.held("core.records", records);
        let queue: usize = out
            .queue_trace
            .iter()
            .map(|q| size_of::<QueueSnapshot>() + q.disk_queued.len() * size_of::<usize>())
            .sum();
        self.held("core.queue_trace", queue as f64);
        self.buffers(&out.traces, &out.instants);
    }

    fn spark(&mut self, out: &SparkRunOutput, secs: f64) {
        self.add("simulate_s", secs);
        self.add("sparklike.run_s", secs);
        let alloc = self.allocators(&out.stats);
        self.add("_sparklike.alloc_s", alloc);
        self.add("sparklike.tasks", out.tasks.len() as f64);
        self.add("cluster.instants", out.instants.len() as f64);
        self.held(
            "sparklike.tasks",
            (out.tasks.len() * size_of::<TaskRecord>()) as f64,
        );
        self.buffers(&out.traces, &out.instants);
    }

    fn buffers(&mut self, traces: &TraceSet, instants: &[RunInstant]) {
        let points: usize = traces.iter().map(|(_, r)| r.len()).sum();
        self.held(
            "cluster.utilization",
            (points * size_of::<(SimTime, f64)>()) as f64,
        );
        self.held("cluster.instants", size_of_val(instants) as f64);
    }

    /// Fills the derived per-layer values once every call is recorded.
    fn finish(&mut self) {
        let run = self.get("core.run_s");
        let monotasks = self.get("core.monotasks");
        let hits = self.get("_core.template_hits");
        let lookups = hits + self.get("_core.template_misses");
        let derived = [
            ("core.outside_loop_s", run - self.get("_core.loop_s")),
            (
                "core.ns_per_monotask",
                if monotasks > 0.0 {
                    run * 1e9 / monotasks
                } else {
                    0.0
                },
            ),
            ("core.template_lookups", lookups),
            (
                "core.template_hit_ratio",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
            ),
        ];
        for (k, v) in derived {
            self.sample.insert(k, v);
        }
    }
}

/// Times one monotasks executor call; a traced span carries the run's
/// `SimStats` wall buckets.
fn run_mono(
    t: &mut Tracer,
    inputs: &Inputs,
    plan: &FaultPlan,
) -> (Result<MonoRunOutput, dataflow::RunError>, f64) {
    let open = t.begin("core.run");
    let out = monotasks_core::run_with_faults(&inputs.cluster, &inputs.jobs, &inputs.mono, plan);
    let args = match &out {
        Ok(o) => {
            let st = &o.stats;
            vec![
                ("events", Arg::U64(st.events)),
                ("monotasks", Arg::U64(o.records.len() as u64)),
                ("fabric_alloc_s", Arg::F64(st.alloc_secs())),
                ("machine_alloc_s", Arg::F64(st.machine_alloc_secs())),
                ("drain_s", Arg::F64(st.drain_secs())),
                ("completion_s", Arg::F64(st.completion_secs())),
                ("control_remainder_s", Arg::F64(st.control_secs())),
                ("template_build_s", Arg::F64(st.template_build_secs())),
                ("instantiate_s", Arg::F64(st.instantiate_secs())),
            ]
        }
        Err(_) => Vec::new(),
    };
    (out, t.end_with(open, args))
}

/// Times one Spark-like executor call.
fn run_spark(
    t: &mut Tracer,
    inputs: &Inputs,
    plan: &FaultPlan,
) -> (Result<SparkRunOutput, dataflow::RunError>, f64) {
    t.time("sparklike.run", || {
        sparklike::run_with_faults(&inputs.cluster, &inputs.jobs, &inputs.spark, plan)
    })
}

/// Checks an executor result's recovery counters against the gate.
fn check_recovery(gate: &mut Gate, prefix: &str, st: &SimStats) -> bool {
    [
        ("tasks_retried", st.tasks_retried),
        ("fetch_retries", st.fetch_retries),
        ("wasted_bytes", st.wasted_bytes),
        ("mono_copies", st.mono_copies),
    ]
    .into_iter()
    .fold(true, |ok, (k, v)| {
        gate.check(&format!("{prefix}.{k}"), v as f64) & ok
    })
}

/// Renders a monotasks run's Perfetto trace in memory and validates it.
fn render(
    t: &mut Tracer,
    it: &mut Iteration,
    gate: &mut Gate,
    key: &str,
    out: &MonoRunOutput,
) -> bool {
    let (doc, secs) = t.time("trace.doc", || mt_trace::mono_doc(out));
    it.add("trace.doc_s", secs);
    let (json, secs) = t.time("trace.to_json", || doc.to_json());
    it.add("trace.to_json_s", secs);
    let (valid, secs) = t.time("trace.validate", || validate_chrome_json(&json));
    it.add("trace.validate_s", secs);
    it.add("trace.json_mb", json.len() as f64 / MIB);
    it.held("trace.doc", (doc.events.len() * size_of::<Event>()) as f64);
    it.held("trace.json", json.len() as f64);
    let ok = match valid {
        Ok(v) => {
            it.add("trace.spans", v.spans as f64);
            gate.check(&format!("{key}.trace_json_bytes"), json.len() as f64)
        }
        Err(e) => {
            gate.mismatches
                .push(format!("{key}: trace fails validation: {e}"));
            false
        }
    };
    let ((), secs) = t.time("trace.drop", || drop((doc, json)));
    it.add("_trace.drop_s", secs);
    ok
}

/// Records an executor error as a gate failure.
fn failed(gate: &mut Gate, what: &str, e: dataflow::RunError) -> bool {
    gate.mismatches.push(format!("{what}: executor error: {e}"));
    false
}

/// Runs one measured iteration of `w`.
pub fn iterate(
    w: Workload,
    inputs: &Inputs,
    seed: u64,
    t: &mut Tracer,
    gate: &mut Gate,
) -> Iteration {
    let mut it = Iteration::default();
    let root = t.begin("bench.iteration");
    match w {
        Workload::SortScale | Workload::BdbStages => {
            let (out, secs) = run_mono(t, inputs, &FaultPlan::new());
            let ok = match out {
                Ok(out) => {
                    it.mono(&out, secs);
                    let ok = gate.check("mono.makespan_sim_s", out.makespan.as_secs_f64());
                    let ((), secs) = t.time("core.drop", || drop(out));
                    it.add("core.drop_s", secs);
                    ok
                }
                Err(e) => failed(gate, "mono", e),
            };
            it.op(ok);
        }
        Workload::WhatifTrace => whatif(&mut it, inputs, seed, t, gate),
    }
    let secs = t.end(root);
    it.add("iteration_s", secs);
    it.finish();
    it
}

/// The what-if path: fault-free run, seeded faulty run, fault replay and
/// in-memory traces on the monotasks executor, then the same fault-free and
/// faulty runs on the Spark-like executor. Four operations.
fn whatif(it: &mut Iteration, inputs: &Inputs, seed: u64, t: &mut Tracer, gate: &mut Gate) {
    let (base, secs) = run_mono(t, inputs, &FaultPlan::new());
    let base = match base {
        Ok(base) => base,
        Err(e) => {
            failed(gate, "mono", e);
            // The other three operations need the fault-free horizon.
            for _ in 0..4 {
                it.op(false);
            }
            return;
        }
    };
    it.mono(&base, secs);
    let baseline_s = base.makespan.as_secs_f64();
    let ok = gate.check("mono.makespan_sim_s", baseline_s);
    let ok = render(t, it, gate, "mono", &base) & ok;
    it.op(ok);

    let job = &inputs.jobs[0].0;
    let (plan, secs) = t.time("workloads.sweep_plan", || {
        sweep_plan(
            seed,
            &inputs.cluster,
            baseline_s,
            job.stages.len(),
            job.stages[0].tasks.len(),
            INTENSITY,
        )
    });
    it.add("workloads.plan_s", secs);

    let (faulty, secs) = run_mono(t, inputs, &plan);
    let ok = match faulty {
        Ok(faulty) => {
            it.mono(&faulty, secs);
            let simulated = faulty.makespan.as_secs_f64();
            let ok = gate.check("mono_faulty.makespan_sim_s", simulated);
            let ok = check_recovery(gate, "mono_faulty", &faulty.stats) & ok;
            let ok = render(t, it, gate, "mono_faulty", &faulty) & ok;

            let (profiles, secs) = t.time("perfmodel.profile", || {
                perfmodel::profile_stages(&base.records, &base.jobs)
            });
            it.add("perfmodel.profile_s", secs);
            let opts = perfmodel::ReplayOptions {
                scenario: perfmodel::Scenario::of_cluster(&inputs.cluster),
                tasks_per_stage: profiles
                    .iter()
                    .map(|p| job.stages[p.stage.0 as usize].tasks.len())
                    .collect(),
            };
            let (pred, secs) = t.time("perfmodel.replay", || {
                perfmodel::replay(&profiles, &base.jobs, baseline_s, &plan, &opts)
            });
            it.add("perfmodel.replay_s", secs);
            it.replay_err_pct = Some(pred.relative_error(simulated) * 100.0);
            let ok = gate.check("replay.predicted_s", pred.predicted_secs) & ok;
            let ((), secs) = t.time("core.drop", || drop(faulty));
            it.add("core.drop_s", secs);
            ok
        }
        Err(e) => failed(gate, "mono_faulty", e),
    };
    it.op(ok);
    let ((), secs) = t.time("core.drop", || drop(base));
    it.add("core.drop_s", secs);

    for (prefix, plan) in [("spark", FaultPlan::new()), ("spark_faulty", plan)] {
        let (out, secs) = run_spark(t, inputs, &plan);
        let ok = match out {
            Ok(out) => {
                it.spark(&out, secs);
                let ok = gate.check(
                    &format!("{prefix}.makespan_sim_s"),
                    out.makespan.as_secs_f64(),
                );
                let ok = (prefix == "spark" || check_recovery(gate, prefix, &out.stats)) & ok;
                let ((), secs) = t.time("sparklike.drop", || drop(out));
                it.add("_sparklike.drop_s", secs);
                ok
            }
            Err(e) => failed(gate, prefix, e),
        };
        it.op(ok);
    }
}
