//! The slot-scheduled, fine-grained-pipelined executor.

use std::collections::{HashMap, HashSet};

use cluster::{
    BufferCache, CachePolicy, ClusterSpec, DiskId, FaultAction, FaultPlan, Hosts, InstantKind,
    StreamDemand, StreamId, TraceSet, WriteOutcome,
};
use dataflow::driver::{self, Engine};
use dataflow::runtime::{Runtime, RuntimeConfig};
use dataflow::{BlockMap, InputSpec, JobId, JobReport, JobSpec, RunError, StageId, TaskId};
use simcore::stats::median;
use simcore::{EventQueue, SimDuration, SimStats, SimTime};

/// Configuration of the baseline executor. Each field is run at two
/// settings by the bench bin its doc names. The limits no experiment varies
/// are constants: [`driver::MAX_STEPS`] and `dataflow::runtime`'s
/// `MAX_TASK_RETRIES`, `FETCH_MAX_RETRIES` and `FETCH_BACKOFF_BASE_SECS`.
#[derive(Clone, Debug, Default)]
pub struct SparkConfig {
    /// Concurrent tasks per machine; `None` = one per core (Spark's default,
    /// §3.4). `fig18_autoconfig` sweeps it; every other bin runs the
    /// default.
    pub slots_per_machine: Option<usize>,
    /// Force writes through to disk instead of the buffer cache (the second
    /// Spark configuration in Fig 5: `fig05_bdb_runtimes` runs both).
    pub write_through: bool,
    /// Speculative execution: when a slot is otherwise idle and a running
    /// task has exceeded this multiple of its stage's median completed
    /// duration (with at least half the stage complete), launch a copy on
    /// another machine; first finisher wins. `None` disables speculation and
    /// keeps the executor bit-identical to the pre-fault code.
    /// `fault_sweep --matrix` (BENCH_PR5) runs it off and on.
    pub speculation_multiplier: Option<f64>,
    /// How long a shuffle fetch may sit stalled on a cut pair before the
    /// first retry fires. `None` disables the timeout machinery entirely: a
    /// partitioned fetch waits for the heal (or starves into
    /// [`RunError::Unreachable`] once nothing else can run).
    /// `fault_sweep --partitions` (BENCH_PR8) arms it; the other sweeps
    /// leave it `None`.
    pub fetch_timeout_secs: Option<f64>,
    /// Arms the trace layer: when set, the run collects instant events
    /// ([`cluster::RunInstant`]) for trace export. Observation-only — the
    /// schedule is bit-identical whether or not a path is set. The executor
    /// never writes the file itself; `mt-trace`'s `spark_doc` and
    /// `write_doc` do.
    /// `trace_export` sets it; every other bin leaves it `None`.
    pub trace_path: Option<std::path::PathBuf>,
}

impl SparkConfig {
    /// Rejects configurations that cannot drive a run.
    pub fn validate(&self) -> Result<(), String> {
        if self.slots_per_machine == Some(0) {
            return Err("slots_per_machine must be at least 1".into());
        }
        if let Some(f) = self.speculation_multiplier {
            if !f.is_finite() || f < 1.0 {
                return Err(format!(
                    "speculation_multiplier must be finite and >= 1, got {f}"
                ));
            }
        }
        if let Some(t) = self.fetch_timeout_secs {
            if !t.is_finite() || t <= 0.0 {
                return Err(format!(
                    "fetch_timeout_secs must be finite and > 0, got {t}"
                ));
            }
        }
        Ok(())
    }
}

/// One completed task (multitask-level timing only: the baseline cannot
/// attribute time to individual resources — that is §6.6's point).
#[derive(Clone, Copy, Debug)]
pub struct TaskRecord {
    /// Owning job.
    pub job: JobId,
    /// Owning stage.
    pub stage: StageId,
    /// Task index.
    pub task: TaskId,
    /// Machine that ran it.
    pub machine: usize,
    /// Launch time.
    pub start: SimTime,
    /// Completion time.
    pub end: SimTime,
}

/// Everything a baseline run produces.
#[derive(Debug)]
pub struct SparkRunOutput {
    /// Per-job reports (submission order).
    pub jobs: Vec<JobReport>,
    /// Per-task records.
    pub tasks: Vec<TaskRecord>,
    /// Cluster utilization traces.
    pub traces: TraceSet,
    /// Time of the last *job* completion (background flushes may continue).
    pub makespan: SimTime,
    /// Control-plane cost: simulation steps plus allocator work summed over
    /// every machine.
    pub stats: SimStats,
    /// Instant events (faults, retries, speculation) collected when
    /// [`SparkConfig::trace_path`] is set; empty otherwise.
    pub instants: Vec<cluster::RunInstant>,
}

/// A pending disk write at the end of a task.
#[derive(Clone, Copy, Debug)]
struct OutWrite {
    disk: usize,
    bytes: f64,
}

/// One unit of write-back work for a disk's flusher: the bytes, the task (if
/// any) blocked on the write reaching the platters, and whether the bytes
/// were charged to the buffer cache.
#[derive(Clone, Copy, Debug)]
struct FlushEntry {
    bytes: f64,
    waiter: Option<usize>,
    charged: bool,
}

#[derive(Debug)]
struct TaskRun {
    job: usize,
    stage: usize,
    task: usize,
    machine: usize,
    start: SimTime,
    /// Remaining phases, in execution order (front = next).
    phases: Vec<StreamDemand>,
    /// Output write to resolve through the cache policy after the last phase.
    out_write: Option<OutWrite>,
    done: bool,
    /// Aborted by a crash or lost a speculation race; its streams are gone
    /// and any late completion for it must be ignored.
    killed: bool,
    /// A speculative copy of a straggling attempt.
    speculative: bool,
    /// Re-running a previously completed task whose output a crash destroyed.
    recompute: bool,
    /// Still in its first phase with remote shuffle bytes in flight; a crash
    /// of any sender fails the whole fetch.
    fetch_live: bool,
    /// I/O bytes of every phase this attempt has started (plus its issued
    /// output write): the amount charged as `wasted_bytes` if it is killed
    /// or finishes late — the same full-requested-bytes-once-started rule
    /// the monotasks executor charges, so the two engines' waste compares.
    io_started: f64,
}

impl TaskRun {
    /// Stream-id phase of the phase in flight: the number still queued
    /// behind it.
    fn phase(&self) -> u8 {
        u8::try_from(self.phases.len()).expect("phase count fits the 8-bit stream-id field")
    }
}

struct Mach {
    cache: BufferCache,
    running: usize,
    write_cursor: usize,
    read_cursor: usize,
    /// Write-back work per disk awaiting the (single) kernel flusher. Each
    /// entry is `(bytes, waiting task, charged to the cache)`.
    flush_pending: Vec<Vec<FlushEntry>>,
    flush_active: Vec<bool>,
}

/// Timer events: background cache flushes reaching their start time.
#[derive(Clone, Copy, Debug)]
struct FlushStart {
    machine: usize,
    disk: usize,
    bytes: f64,
}

const TAG_TASK: u64 = 0;
const TAG_FLUSH: u64 = 2;

/// Write-back of task output is scattered across many files' dirty pages,
/// not one sequential extent: the flusher pays this factor over sequential
/// write time. (The monotasks executor writes each monotask's buffer as one
/// sequential extent and pays no such penalty — part of §5.4's disk win.)
const WRITEBACK_SCATTER: f64 = 1.4;

/// Stream id of phase `phase` of task attempt `task`: the tag in the top 8
/// bits, the attempt in the next 48, the phase in the low 8.
///
/// # Panics
///
/// Panics if `task` does not fit 48 bits, instead of aliasing another id.
fn task_stream(task: usize, phase: u8) -> StreamId {
    assert!(
        (task as u64) >> 48 == 0,
        "task attempt {task} overflows its 48-bit stream-id field"
    );
    StreamId((TAG_TASK << 56) | ((task as u64) << 8) | u64::from(phase))
}

fn aux_stream(tag: u64, n: u64) -> StreamId {
    StreamId((tag << 56) | n)
}

fn decode(id: StreamId) -> (u64, u64) {
    (id.0 >> 56, id.0 & ((1 << 56) - 1))
}

/// Partition reachability gate, the runtime's [`dataflow::runtime::Gate`].
/// Only shuffle fetches traverse the network in this model (disk-block and
/// memory inputs are charged locally wherever the task runs), so the gate is
/// per stage: every machine still owed shuffle bytes must reach `m`.
fn can_host(rt: &Runtime, m: usize, ji: usize, si: usize, _ti: usize) -> bool {
    rt.shuffle_reachable(ji, si, m)
}

struct Exec {
    cfg: SparkConfig,
    slots: usize,
    machines: Vec<Mach>,
    /// Every machine's allocator, the fault schedule, the utilization traces
    /// and the instant log.
    hosts: Hosts,
    /// Job/stage state, retries and partition bookkeeping shared with the
    /// monotasks executor.
    rt: Runtime,
    /// Completed attempt durations per `[job][stage]`, in seconds: the
    /// speculation median's population.
    pools: Vec<Vec<Vec<f64>>>,
    tasks: Vec<TaskRun>,
    records: Vec<TaskRecord>,
    timers: EventQueue<FlushStart>,
    /// In-flight flush streams: aux id → (machine, disk, merged entries).
    flushes: HashMap<u64, (usize, usize, Vec<FlushEntry>)>,
    aux_seq: u64,
    now: SimTime,
    /// Logical tasks with a speculative copy outstanding.
    spec_copies: HashSet<(usize, usize, usize)>,
}

/// Runs `jobs` on a simulated `cluster` under the Spark-like architecture.
///
/// # Examples
///
/// ```
/// use cluster::{ClusterSpec, MachineSpec};
/// use dataflow::{BlockMap, CostModel, JobBuilder};
///
/// let gib = 1024.0 * 1024.0 * 1024.0;
/// let job = JobBuilder::new("scan", CostModel::spark_1_3())
///     .read_disk(gib, 1e7, gib / 16.0)
///     .map(1.0, 0.1, false)
///     .write_disk(1.0);
/// let blocks = BlockMap::round_robin(16, 4, 2);
/// let cluster = ClusterSpec::new(4, MachineSpec::m2_4xlarge());
///
/// let out = sparklike::run(&cluster, &[(job, blocks)], &Default::default());
/// assert_eq!(out.tasks.len(), 16);
/// ```
///
/// # Panics
///
/// Panics if a job spec fails validation or the simulation deadlocks.
pub fn run(
    cluster: &ClusterSpec,
    jobs: &[(JobSpec, BlockMap)],
    cfg: &SparkConfig,
) -> SparkRunOutput {
    match try_run(cluster, jobs, cfg) {
        Ok(out) => out,
        Err(e) => panic!("spark-like run failed: {e}"),
    }
}

/// Fault-free [`run`] with structured errors instead of panics.
pub fn try_run(
    cluster: &ClusterSpec,
    jobs: &[(JobSpec, BlockMap)],
    cfg: &SparkConfig,
) -> Result<SparkRunOutput, RunError> {
    run_with_faults(cluster, jobs, cfg, &FaultPlan::new())
}

/// Runs `jobs` under the Spark-like architecture while injecting the faults
/// scheduled in `plan`. With an empty plan (and `speculation_multiplier:
/// None`) this is exactly [`run`]: every fault hook stays off the event path,
/// so makespans and records are bit-identical to the plan-free code.
pub fn run_with_faults(
    cluster: &ClusterSpec,
    jobs: &[(JobSpec, BlockMap)],
    cfg: &SparkConfig,
    plan: &FaultPlan,
) -> Result<SparkRunOutput, RunError> {
    cfg.validate().map_err(RunError::InvalidConfig)?;
    let hosts = Hosts::new(cluster, plan, true).map_err(RunError::InvalidConfig)?;
    let n_machines = cluster.machines;
    let slots = cfg
        .slots_per_machine
        .unwrap_or(cluster.machine.cores as usize)
        .max(1);
    let n_disks = cluster.machine.disks.len();
    let machines = (0..n_machines)
        .map(|_| Mach {
            cache: BufferCache::new(CachePolicy::for_memory(cluster.machine.memory)),
            running: 0,
            write_cursor: 0,
            read_cursor: 0,
            flush_pending: vec![Vec::new(); n_disks],
            flush_active: vec![false; n_disks],
        })
        .collect();
    let rt_cfg = RuntimeConfig {
        trace: cfg.trace_path.is_some(),
        lineage: !plan.is_empty(),
        partitions: plan.has_partitions(),
        fetch_timeout_secs: cfg.fetch_timeout_secs,
    };
    let mut exec = Exec {
        cfg: cfg.clone(),
        slots,
        machines,
        hosts,
        rt: Runtime::new(jobs, n_machines, rt_cfg, can_host)?,
        pools: jobs
            .iter()
            .map(|(spec, _)| vec![Vec::new(); spec.stages.len()])
            .collect(),
        tasks: Vec::new(),
        records: Vec::new(),
        timers: EventQueue::new(),
        flushes: HashMap::new(),
        aux_seq: 0,
        now: SimTime::ZERO,
        spec_copies: HashSet::new(),
    };
    let stats = driver::run(&mut exec)?;
    Ok(exec.into_output(stats))
}

impl Exec {
    fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Permanently fails machine `m`: kills every task running on it, fails
    /// in-flight shuffle fetches sourced from it, drops its pending
    /// write-back work, and re-queues the completed upstream tasks whose
    /// shuffle outputs lived on it (lineage recomputation).
    fn crash_machine(&mut self, m: usize) -> Result<(), RunError> {
        if !self.rt.crash(m) {
            return Ok(());
        }
        for t_idx in 0..self.tasks.len() {
            let t = &self.tasks[t_idx];
            if t.done || t.killed {
                continue;
            }
            let on_dead = t.machine == m;
            // A fetch is one merged stream over all senders; losing any
            // sender fails the whole attempt (Spark's FetchFailed).
            let dead_fetch = !on_dead && t.fetch_live && self.rt.fetches_from(t.job, t.stage, m);
            if on_dead || dead_fetch {
                self.abort_task(t_idx)?;
            }
        }
        // Pending and in-flight write-back on the dead machine is lost; its
        // waiters were tasks on `m`, all killed above.
        for q in &mut self.machines[m].flush_pending {
            q.clear();
        }
        self.flushes.retain(|_, (machine, _, _)| *machine != m);
        self.rt.lose_shuffle_outputs(m, self.now)
    }

    /// Severs `src → dst`: parks every in-flight merged fetch on `dst` that
    /// still needs bytes from `src` and starts its stall clock, keyed
    /// `(attempt, 0)` in the runtime's registry. The whole attempt blocks —
    /// a Spark reduce task cannot finish with one sender missing — so the
    /// machine's allocator parks the phase with the work it has left.
    fn apply_cut(&mut self, src: usize, dst: usize) {
        if !self.rt.cut(src, dst) {
            return;
        }
        for t_idx in 0..self.tasks.len() {
            let t = &self.tasks[t_idx];
            if t.done || t.killed || t.machine != dst || !t.fetch_live {
                continue;
            }
            if !self.rt.fetches_from(t.job, t.stage, src) {
                continue;
            }
            let task = (t.job, t.stage, t.task);
            self.hosts[dst].park(self.now, task_stream(t_idx, t.phase()));
            self.rt.arm_stall((t_idx, 0), task, dst, None, self.now);
        }
    }

    /// Restores `src → dst` and resumes every parked fetch on `dst` whose
    /// senders are all reachable again. The runtime lifts quarantine from
    /// both endpoints: connectivity changed, so placement may try them again.
    fn apply_heal(&mut self, src: usize, dst: usize) {
        if !self.rt.heal(src, dst) {
            return;
        }
        for t_idx in 0..self.tasks.len() {
            let t = &self.tasks[t_idx];
            if t.done || t.killed || t.machine != dst {
                continue;
            }
            // Resume only once every sender is reachable again.
            if self.rt.first_cut_sender(t.job, t.stage, dst).is_some()
                || !self.rt.stop_stall((t_idx, 0), self.now)
            {
                continue;
            }
            self.hosts[dst].unpark(self.now, task_stream(t_idx, t.phase()));
        }
    }

    /// Tears down one in-flight attempt ([`Self::kill_task`]) and re-queues
    /// the logical task, unless another live attempt of it still runs or it
    /// already finished.
    fn abort_task(&mut self, t_idx: usize) -> Result<(), RunError> {
        self.kill_task(t_idx);
        let t = &self.tasks[t_idx];
        let (ji, si, ti, recompute) = (t.job, t.stage, t.task, t.recompute);
        let other_attempt_live = self.tasks.iter().enumerate().any(|(i, t)| {
            i != t_idx && t.job == ji && t.stage == si && t.task == ti && !t.done && !t.killed
        });
        if other_attempt_live || self.rt.task_done(ji, si, ti) {
            return Ok(());
        }
        self.rt.requeue_task(ji, si, ti, recompute, self.now)
    }

    /// Drops any flush-entry reference to `t_idx` so a later write-back
    /// completion cannot finish a killed task. The bytes still flush.
    fn scrub_flush_waiter(&mut self, machine: usize, t_idx: usize) {
        for q in &mut self.machines[machine].flush_pending {
            for e in q.iter_mut() {
                if e.waiter == Some(t_idx) {
                    e.waiter = None;
                }
            }
        }
        for (m, _, entries) in self.flushes.values_mut() {
            if *m != machine {
                continue;
            }
            for e in entries.iter_mut() {
                if e.waiter == Some(t_idx) {
                    e.waiter = None;
                }
            }
        }
    }

    fn assign_tasks(&mut self) -> bool {
        // One task per machine per sweep, so load spreads evenly and a
        // machine exhausts its *local* tasks before any machine steals them.
        let mut changed = false;
        loop {
            let mut assigned_any = false;
            for m in 0..self.n_machines() {
                if !self.rt.schedulable(m) {
                    continue;
                }
                if self.machines[m].running < self.slots {
                    if let Some((ji, si, ti)) = self.rt.pick_task(m) {
                        self.launch_task(m, ji, si, ti, false);
                        assigned_any = true;
                        changed = true;
                    } else if self.cfg.speculation_multiplier.is_some() {
                        if let Some((ji, si, ti)) = self.pick_speculative(m) {
                            self.launch_task(m, ji, si, ti, true);
                            assigned_any = true;
                            changed = true;
                        }
                    }
                }
            }
            if !assigned_any {
                break;
            }
        }
        changed
    }

    /// An idle slot with no regular work: find the straggler most worth
    /// duplicating. A candidate's stage must be at least half complete, the
    /// attempt must have run longer than `speculation_multiplier ×` the
    /// stage's median completed duration, no copy may be outstanding, and
    /// the copy must land on a different machine than the original.
    fn pick_speculative(&self, m: usize) -> Option<(usize, usize, usize)> {
        let mult = self.cfg.speculation_multiplier?;
        for t in &self.tasks {
            if t.done || t.killed || t.speculative || t.machine == m {
                continue;
            }
            if self.rt.partitions_on() && !can_host(&self.rt, m, t.job, t.stage, t.task) {
                continue;
            }
            let key = (t.job, t.stage, t.task);
            if self.rt.task_done(t.job, t.stage, t.task) || self.spec_copies.contains(&key) {
                continue;
            }
            if !self.stage_has_enough_samples(t.job, t.stage) {
                continue;
            }
            let med = median(&self.pools[t.job][t.stage]);
            if med > 0.0 && self.now.since(t.start).as_secs_f64() > mult * med {
                return Some(key);
            }
        }
        None
    }

    /// Enough samples to trust the speculation median: half the stage
    /// complete.
    fn stage_has_enough_samples(&self, ji: usize, si: usize) -> bool {
        self.pools[ji][si].len() * 2 >= self.rt.jobs[ji].stages[si].total
    }

    /// Builds the task's pipelined phases and starts the first one.
    fn launch_task(&mut self, m: usize, ji: usize, si: usize, ti: usize, speculative: bool) {
        let n_disks = self.hosts[m].spec().disks.len();
        let mut spec = self.rt.jobs[ji].spec.stages[si].tasks[ti];
        let mut recompute = false;
        if speculative {
            // The copy inherits the original's recompute attribution and
            // runs clean — the straggle factor applies to first attempts
            // only, which is exactly what speculation exists to beat.
            recompute = self.tasks.iter().any(|t| {
                t.job == ji && t.stage == si && t.task == ti && !t.done && !t.killed && t.recompute
            });
            self.spec_copies.insert((ji, si, ti));
            self.rt.record(
                self.now,
                InstantKind::TaskSpeculate {
                    job: ji as u32,
                    stage: si as u32,
                    task: ti as u32,
                    machine: m,
                },
            );
        } else if self.rt.faults_on() {
            recompute = self.rt.take_recompute(ji, si, ti);
            if self.rt.attempts(ji, si, ti) == 0 {
                if let Some(f) = self.hosts.straggle_factor(si, ti) {
                    spec.cpu.deser *= f;
                    spec.cpu.compute *= f;
                    spec.cpu.ser *= f;
                }
            }
        }
        // Phase 1: input + deserialize + compute, fully pipelined.
        let mut p1 = StreamDemand::zero(n_disks);
        p1.cpu = spec.cpu.deser + spec.cpu.compute;
        match spec.input {
            InputSpec::None | InputSpec::Memory { .. } => {}
            InputSpec::DiskBlock { block, bytes } => {
                let d = self.rt.jobs[ji].blocks.disk_of(block);
                p1.disk_read[d] += bytes;
            }
            InputSpec::ShuffleFetch { .. } => {
                // Shuffle data is read from disk once somewhere in the
                // cluster. In an all-to-all shuffle every machine reads as
                // many shuffle bytes for others as others read for it, so we
                // charge the task's *whole* fetch to its local disks (the
                // symmetric proxy for the sender-side reads) — coupling the
                // task to the disk work its data costs — and put the remote
                // fraction on the network as well.
                let shares = self.fetch_shares(ji, si, m);
                for (sender, bytes, via_disk) in shares {
                    if via_disk && n_disks > 0 {
                        let d = self.machines[m].read_cursor;
                        self.machines[m].read_cursor += 1;
                        p1.disk_read[d % n_disks] += bytes;
                    }
                    if sender != m {
                        p1.rx += bytes;
                    }
                }
            }
        }
        // Phase 2: serialize the output (+ synchronous write if configured).
        let mut p2 = StreamDemand::zero(n_disks);
        p2.cpu = spec.cpu.ser;
        let mut out_write = None;
        let write_bytes = spec.output.disk_bytes();
        if write_bytes > 0.0 && n_disks > 0 {
            let d = {
                let c = self.machines[m].write_cursor;
                self.machines[m].write_cursor += 1;
                c % n_disks
            };
            out_write = Some(OutWrite {
                disk: d,
                bytes: write_bytes,
            });
        }
        let mut phases: Vec<StreamDemand> = [p1, p2]
            .into_iter()
            .filter(|p| {
                p.cpu + p.disk_read.iter().sum::<f64>() + p.disk_write.iter().sum::<f64>() + p.rx
                    > 0.0
            })
            .collect();
        if phases.is_empty() {
            // Degenerate task: give it a vanishing CPU phase so it schedules.
            phases.push(StreamDemand::cpu_only(1e-9, n_disks));
        }
        phases.reverse(); // Pop from the back.
        let t_idx = self.tasks.len();
        self.tasks.push(TaskRun {
            job: ji,
            stage: si,
            task: ti,
            machine: m,
            start: self.now,
            phases,
            out_write,
            done: false,
            killed: false,
            speculative,
            recompute,
            fetch_live: matches!(spec.input, InputSpec::ShuffleFetch { .. }),
            io_started: 0.0,
        });
        self.machines[m].running += 1;
        self.rt.mark_started(ji, si, self.now);
        self.start_next_phase(t_idx);
    }

    /// `(sender, bytes, via_disk)` for a reduce task on machine `m`.
    fn fetch_shares(&mut self, ji: usize, si: usize, _m: usize) -> Vec<(usize, f64, bool)> {
        let n_machines = self.n_machines();
        let n_tasks = self.rt.jobs[ji].spec.stages[si].tasks.len() as f64;
        let deps = self.rt.jobs[ji].spec.stages[si].deps.clone();
        let mut out = Vec::new();
        for dep in deps {
            let drun = &self.rt.jobs[ji].stages[dep.0 as usize];
            let total: f64 = drun.shuffle_by_machine.iter().sum();
            if total <= 0.0 {
                continue;
            }
            let per_task = total / n_tasks;
            let via_disk = !drun.shuffle_in_memory;
            for s in 0..n_machines {
                let b = per_task * drun.shuffle_by_machine[s] / total;
                if b > 0.0 {
                    out.push((s, b, via_disk));
                }
            }
        }
        out
    }

    /// A flush timer fired: hand the dirty bytes to the per-disk kernel
    /// flusher, which writes back one coalesced stream at a time.
    fn start_flush(&mut self, f: FlushStart) {
        if !self.rt.alive[f.machine] {
            // The dirty bytes died with the machine.
            return;
        }
        self.enqueue_flush(
            f.machine,
            f.disk,
            FlushEntry {
                bytes: f.bytes,
                waiter: None,
                charged: true,
            },
        );
    }

    fn enqueue_flush(&mut self, machine: usize, disk: usize, entry: FlushEntry) {
        self.machines[machine].flush_pending[disk].push(entry);
        self.pump_flush(machine, disk);
    }

    fn pump_flush(&mut self, machine: usize, disk: usize) {
        let m = &mut self.machines[machine];
        if m.flush_active[disk] || m.flush_pending[disk].is_empty() {
            return;
        }
        let entries = std::mem::take(&mut m.flush_pending[disk]);
        let bytes: f64 = entries.iter().map(|e| e.bytes).sum::<f64>() * WRITEBACK_SCATTER;
        m.flush_active[disk] = true;
        let n_disks = self.hosts[machine].spec().disks.len();
        let id = self.aux_seq;
        self.aux_seq += 1;
        self.flushes.insert(id, (machine, disk, entries));
        self.hosts[machine].insert(
            self.now,
            aux_stream(TAG_FLUSH, id),
            StreamDemand::disk_write_only(DiskId(disk), bytes, n_disks),
        );
    }

    fn start_next_phase(&mut self, t_idx: usize) {
        let machine = self.tasks[t_idx].machine;
        match self.tasks[t_idx].phases.pop() {
            Some(demand) => {
                self.tasks[t_idx].io_started += demand.disk_read.iter().sum::<f64>()
                    + demand.disk_write.iter().sum::<f64>()
                    + demand.rx;
                let phase = self.tasks[t_idx].phase();
                self.hosts[machine].insert(self.now, task_stream(t_idx, phase), demand);
            }
            None => self.resolve_output(t_idx),
        }
    }

    /// After the last pipelined phase: route the output write through the
    /// buffer cache (or straight to the flusher in write-through mode), then
    /// finish the task — immediately if the cache absorbed the write, or
    /// when the write-back reaches the disk if the task must wait.
    fn resolve_output(&mut self, t_idx: usize) {
        let machine = self.tasks[t_idx].machine;
        if let Some(w) = self.tasks[t_idx].out_write.take() {
            self.tasks[t_idx].io_started += w.bytes;
            if self.cfg.write_through {
                // Forced flush (§5.3's second Spark configuration): the bytes
                // go through the per-disk flusher — which still batches like
                // the kernel's — and the task waits for them to land.
                self.enqueue_flush(
                    machine,
                    w.disk,
                    FlushEntry {
                        bytes: w.bytes,
                        waiter: Some(t_idx),
                        charged: false,
                    },
                );
                return;
            }
            match self.machines[machine].cache.write(self.now, w.bytes) {
                WriteOutcome::Absorbed { flush_at } => {
                    self.timers.schedule(
                        flush_at,
                        FlushStart {
                            machine,
                            disk: w.disk,
                            bytes: w.bytes,
                        },
                    );
                }
                WriteOutcome::Synchronous => {
                    // Cache full: the task blocks until the flusher writes
                    // its bytes back.
                    self.enqueue_flush(
                        machine,
                        w.disk,
                        FlushEntry {
                            bytes: w.bytes,
                            waiter: Some(t_idx),
                            charged: false,
                        },
                    );
                    return;
                }
            }
        }
        self.finish_task(t_idx);
    }

    fn on_stream_done(&mut self, machine: usize, sid: StreamId) {
        let (tag, rest) = decode(sid);
        match tag {
            TAG_TASK => {
                let t_idx = (rest >> 8) as usize;
                if self.tasks[t_idx].killed {
                    // Same-instant race: the attempt was killed in this batch
                    // after its stream already drained as completed.
                    return;
                }
                // Any phase completion means the (first-phase) fetch is over.
                self.tasks[t_idx].fetch_live = false;
                self.start_next_phase(t_idx);
            }
            TAG_FLUSH => {
                let (m, disk, entries) = self.flushes.remove(&rest).expect("unknown flush");
                debug_assert_eq!(m, machine);
                self.machines[m].flush_active[disk] = false;
                for e in entries {
                    if e.charged {
                        self.machines[m].cache.flushed(e.bytes);
                    }
                    if let Some(t_idx) = e.waiter {
                        if !self.tasks[t_idx].killed {
                            self.finish_task(t_idx);
                        }
                    }
                }
                self.pump_flush(m, disk);
            }
            other => panic!("unknown stream tag {other}"),
        }
    }

    fn finish_task(&mut self, t_idx: usize) {
        let t = &mut self.tasks[t_idx];
        debug_assert!(!t.done && !t.killed);
        t.done = true;
        if self.rt.partitions_on() {
            self.rt.drop_stall((t_idx, 0));
        }
        let (ji, si, ti, machine, start, recompute, io_started) = (
            t.job,
            t.stage,
            t.task,
            t.machine,
            t.start,
            t.recompute,
            t.io_started,
        );
        self.machines[machine].running -= 1;
        let elapsed = self.now.since(start).as_secs_f64();
        if self.rt.task_done(ji, si, ti) {
            // A slower attempt crossed the line after the winner already
            // counted: pure wasted work, no record, no stage progress.
            self.rt.jobs[ji].recovery.wasted_work_seconds += elapsed;
            self.rt.jobs[ji].recovery.wasted_bytes += io_started;
            return;
        }
        // First finisher wins: a still-running twin (original or copy) is
        // killed and its time charged as waste.
        if self.spec_copies.remove(&(ji, si, ti)) || self.tasks[t_idx].speculative {
            for loser in 0..self.tasks.len() {
                let l = &self.tasks[loser];
                if loser != t_idx
                    && l.job == ji
                    && l.stage == si
                    && l.task == ti
                    && !l.done
                    && !l.killed
                {
                    self.kill_task(loser);
                }
            }
        }
        self.records.push(TaskRecord {
            job: JobId(ji as u32),
            stage: StageId(si as u32),
            task: TaskId(ti as u32),
            machine,
            start,
            end: self.now,
        });
        if self.rt.faults_on() && recompute {
            self.rt.jobs[ji].recovery.recompute_seconds += elapsed;
        }
        self.rt.complete_task(ji, si, ti, machine, self.now);
        if let Some(mult) = self.cfg.speculation_multiplier {
            self.pools[ji][si].push(elapsed);
            self.schedule_speculation_wakeups(ji, si, mult);
        }
    }

    /// Kills an attempt — a crash victim or the loser of a speculation race:
    /// removes its active stream from its machine's allocator (if that
    /// machine survives) and any flush-waiter reference, frees its slot, and
    /// charges its runtime and started I/O as wasted work.
    fn kill_task(&mut self, t_idx: usize) {
        let (ji, machine, start, speculative, io_started) = {
            let t = &self.tasks[t_idx];
            (t.job, t.machine, t.start, t.speculative, t.io_started)
        };
        self.tasks[t_idx].killed = true;
        self.rt.drop_stall((t_idx, 0));
        if self.rt.alive[machine] {
            let sid = task_stream(t_idx, self.tasks[t_idx].phase());
            self.hosts[machine].remove(self.now, sid);
            self.scrub_flush_waiter(machine, t_idx);
            self.machines[machine].running -= 1;
        }
        if speculative {
            let t = &self.tasks[t_idx];
            self.spec_copies.remove(&(t.job, t.stage, t.task));
        }
        self.rt.jobs[ji].recovery.wasted_work_seconds += self.now.since(start).as_secs_f64();
        self.rt.jobs[ji].recovery.wasted_bytes += io_started;
    }

    /// Once a stage's median is known, the instant each still-running
    /// attempt crosses the speculation threshold is known too — schedule a
    /// wake-up there so the idle-slot sweep observes it even if no other
    /// event falls in between (e.g. the straggler is the last stream alive).
    fn schedule_speculation_wakeups(&mut self, ji: usize, si: usize, mult: f64) {
        if self.rt.jobs[ji].stages[si].done || !self.stage_has_enough_samples(ji, si) {
            return;
        }
        let med = median(&self.pools[ji][si]);
        if med <= 0.0 {
            return;
        }
        let threshold = SimDuration::from_secs_f64(mult * med);
        let mut wake: Vec<SimTime> = Vec::new();
        for t in &self.tasks {
            if t.done || t.killed || t.speculative || t.job != ji || t.stage != si {
                continue;
            }
            if self.spec_copies.contains(&(t.job, t.stage, t.task)) {
                continue;
            }
            let at = t.start.saturating_add(threshold);
            if at > self.now {
                wake.push(at);
            }
        }
        for at in wake {
            self.rt.wake_at(at);
        }
    }

    fn into_output(self, mut stats: SimStats) -> SparkRunOutput {
        let makespan = self.now;
        let traces = self.hosts.into_output(&self.rt.alive, &mut stats);
        let (jobs, instants) = self.rt.into_reports(&mut stats);
        SparkRunOutput {
            jobs,
            tasks: self.records,
            traces,
            makespan,
            stats,
            instants,
        }
    }
}

/// The Spark-like half of the shared event loop ([`driver::run`]):
/// per-machine fluid allocators and write-back flush timers. Each attempt's
/// merged fetch stalls on one clock, keyed `(attempt, 0)` in the runtime's
/// registry.
impl Engine for Exec {
    fn rt(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    /// Applies the fault actions due, inside the open batch.
    fn open_batch(&mut self, now: SimTime) -> Result<(), RunError> {
        self.now = now;
        self.hosts.open_batch();
        while let Some(action) = self.hosts.pop_fault(now, &self.rt.alive) {
            self.rt.record(now, InstantKind::from(&action));
            match action {
                FaultAction::Crash { machine } => self.crash_machine(machine)?,
                FaultAction::CutPair { src, dst } => self.apply_cut(src, dst),
                FaultAction::HealPair { src, dst } => self.apply_heal(src, dst),
                _ => {}
            }
        }
        Ok(())
    }

    /// Flush timers and finished streams, whose handlers cascade into
    /// follow-up inserts: next task phases, write-back flush streams.
    fn complete(&mut self) {
        while self.timers.peek_time() == Some(self.now) {
            let (_, f) = self.timers.pop().expect("peeked");
            self.start_flush(f);
        }
        for m in 0..self.n_machines() {
            let Some(done) = self.hosts.poll(m, self.now, &self.rt.alive) else {
                continue;
            };
            for &sid in &done {
                self.on_stream_done(m, sid);
            }
            self.hosts.recycle(done);
        }
    }

    fn step(&mut self) -> bool {
        self.assign_tasks()
    }

    fn commit(&mut self) {
        self.hosts.commit(self.now, &self.rt.alive, |_, _| {});
    }

    /// A stream completion, a flush timer or a scheduled fault action.
    /// Speculation wake-ups are the runtime's ([`Runtime::wake_at`]).
    fn next_event(&mut self) -> Option<SimTime> {
        [
            self.hosts.next_event(self.now, &self.rt.alive),
            self.timers.peek_time(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// One clock per attempt: the merged fetch stalls, retries and re-plans
    /// as a whole. Accumulates its stall time, counts the re-plan and aborts
    /// the attempt, whose teardown drops its parked stream.
    fn abort_stalled(&mut self, t_idx: usize) -> Result<(), RunError> {
        let ji = self.tasks[t_idx].job;
        let stalled = self.rt.drop_stalls(t_idx, self.now);
        self.rt.jobs[ji].recovery.stalled_fetch_seconds += stalled;
        let (job, stage) = (ji as u32, self.tasks[t_idx].stage as u32);
        self.rt
            .record(self.now, InstantKind::FetchReplan { job, stage });
        self.abort_task(t_idx)
    }

    fn abort_fetching_from(&mut self, s: usize) -> Result<(), RunError> {
        for t_idx in 0..self.tasks.len() {
            let t = &self.tasks[t_idx];
            if !t.done && !t.killed && t.fetch_live && self.rt.fetches_from(t.job, t.stage, s) {
                self.abort_stalled(t_idx)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::MachineSpec;
    use dataflow::{CostModel, JobBuilder};

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

    fn small_cluster() -> ClusterSpec {
        ClusterSpec::new(4, MachineSpec::m2_4xlarge())
    }

    fn sort_job(total_gib: f64, tasks: usize) -> (JobSpec, BlockMap) {
        let total = total_gib * GIB;
        let job = JobBuilder::new("sort", CostModel::spark_1_3())
            .read_disk(total, total / 100.0, total / tasks as f64)
            .map(1.0, 1.0, true)
            .shuffle(tasks, false)
            .map(1.0, 1.0, true)
            .write_disk(1.0);
        (job, BlockMap::round_robin(tasks, 4, 2))
    }

    #[test]
    fn task_stream_ids_round_trip() {
        let top = (1usize << 48) - 1;
        let (tag, rest) = decode(task_stream(top, 255));
        assert_eq!(
            (tag, (rest >> 8) as usize, rest & 0xFF),
            (TAG_TASK, top, 255)
        );
    }

    #[test]
    #[should_panic(expected = "overflows its 48-bit stream-id field")]
    fn task_stream_rejects_an_attempt_past_48_bits() {
        task_stream(1 << 48, 0);
    }

    #[test]
    fn sort_job_completes_with_barriered_stages() {
        let (job, blocks) = sort_job(4.0, 32);
        let out = run(&small_cluster(), &[(job, blocks)], &SparkConfig::default());
        let r = &out.jobs[0];
        assert_eq!(r.stages.len(), 2);
        assert!(r.stages[1].start >= r.stages[0].end);
        assert!(r.duration_secs() > 1.0);
        assert_eq!(out.tasks.len(), 64);
    }

    #[test]
    fn slots_limit_concurrency_on_cpu_bound_work() {
        // A CPU-bound job: one slot per machine leaves 7 cores idle.
        let job = JobBuilder::new("cpu", CostModel::spark_1_3())
            .read_memory(GIB, 1e6, 64, true)
            .add_compute(400.0)
            .collect();
        let blocks = BlockMap::round_robin(1, 4, 2);
        let cfg = SparkConfig {
            slots_per_machine: Some(1),
            ..SparkConfig::default()
        };
        let narrow = run(&small_cluster(), &[(job.clone(), blocks.clone())], &cfg);
        let wide = run(&small_cluster(), &[(job, blocks)], &SparkConfig::default());
        assert!(
            narrow.jobs[0].duration_secs() > 4.0 * wide.jobs[0].duration_secs(),
            "narrow={} wide={}",
            narrow.jobs[0].duration_secs(),
            wide.jobs[0].duration_secs()
        );
    }

    #[test]
    fn mixed_read_write_traffic_pays_seek_contention() {
        // A job that reads and writes equal bytes on HDDs cannot hit the
        // sequential lower bound under the baseline: readers interleave with
        // write-back and lose throughput to seeks (§5.4). The monotasks
        // executor's per-disk scheduler is what removes this penalty.
        let total = 4.0 * GIB;
        let job = JobBuilder::new("io", CostModel::spark_1_3())
            .read_disk(total, total / 10_000.0, total / 64.0)
            .map(1.0, 1.0, false)
            .write_disk(1.0);
        let blocks = BlockMap::round_robin(64, 1, 2);
        let cluster = ClusterSpec::new(1, MachineSpec::m2_4xlarge());
        let cfg = SparkConfig {
            write_through: true,
            ..SparkConfig::default()
        };
        let out = run(&cluster, &[(job, blocks)], &cfg);
        let hdd = 110.0 * 1024.0 * 1024.0;
        let sequential_bound = 2.0 * total / (2.0 * hdd);
        let got = out.jobs[0].duration_secs();
        assert!(
            got > 1.25 * sequential_bound,
            "no contention visible: {got} vs bound {sequential_bound}"
        );
        assert!(got < 3.0 * sequential_bound, "implausible collapse: {got}");
    }

    #[test]
    fn write_through_is_slower_than_buffer_cache() {
        // Small output: with the cache, writes vanish from the critical path.
        let total = 2.0 * GIB;
        let mk = || {
            JobBuilder::new("scan", CostModel::spark_1_3())
                .read_disk(total, 1e7, total / 32.0)
                .map(1.0, 1.0, false)
                .write_disk(1.0)
        };
        let blocks = BlockMap::round_robin(32, 4, 2);
        let cached = run(
            &small_cluster(),
            &[(mk(), blocks.clone())],
            &SparkConfig::default(),
        );
        let cfg = SparkConfig {
            write_through: true,
            ..SparkConfig::default()
        };
        let sync = run(&small_cluster(), &[(mk(), blocks)], &cfg);
        assert!(
            sync.jobs[0].duration_secs() > cached.jobs[0].duration_secs(),
            "sync={} cached={}",
            sync.jobs[0].duration_secs(),
            cached.jobs[0].duration_secs()
        );
    }

    #[test]
    fn tasks_pipeline_read_and_compute() {
        // A disk-and-CPU-balanced task should take ~max(read, compute), not
        // their sum, because the baseline pipelines at fine grain.
        let hdd = 110.0 * 1024.0 * 1024.0;
        let total = 8.0 * hdd; // 8 sequential disk-seconds across the job.
        let job = JobBuilder::new("j", CostModel::spark_1_3())
            .read_disk(total, 1.0, total) // one task, negligible records
            .collect();
        let blocks = BlockMap::round_robin(1, 1, 1);
        let cluster = ClusterSpec::new(1, MachineSpec::m2_4xlarge());
        let out = run(&cluster, &[(job.clone(), blocks)], &SparkConfig::default());
        let deser_cpu = job.stages[0].tasks[0].cpu.deser;
        let read_secs: f64 = 8.0;
        let expected = read_secs.max(deser_cpu);
        let got = out.jobs[0].duration_secs();
        assert!(
            (got - expected).abs() / expected < 0.05,
            "got {got}, expected ≈{expected}"
        );
    }

    #[test]
    fn in_memory_shuffle_touches_no_disk() {
        let total = 2.0 * GIB;
        let job = JobBuilder::new("mem", CostModel::spark_1_3())
            .read_memory(total, 1e7, 32, true)
            .map(1.0, 1.0, true)
            .shuffle(32, true)
            .map(1.0, 1.0, true)
            .write_memory();
        let blocks = BlockMap::round_robin(1, 4, 2);
        let out = run(&small_cluster(), &[(job, blocks)], &SparkConfig::default());
        // No disk utilization was ever recorded above zero.
        for m in 0..4 {
            for d in 0..2 {
                let rec = out
                    .traces
                    .recorder(cluster::MachineId(m), cluster::ResourceSel::Disk(d));
                if let Some(r) = rec {
                    assert_eq!(
                        r.mean_over(SimTime::ZERO, out.makespan.max(SimTime::from_secs(1))),
                        0.0
                    );
                }
            }
        }
        assert!(out.jobs[0].duration_secs() > 0.0);
    }

    #[test]
    fn concurrent_tasks_per_machine_never_exceed_slots() {
        let (job, blocks) = sort_job(4.0, 64);
        let cfg = SparkConfig {
            slots_per_machine: Some(3),
            ..SparkConfig::default()
        };
        let out = run(&small_cluster(), &[(job, blocks)], &cfg);
        // Sweep each task's [start, end) and count the maximum overlap per
        // machine at task boundaries (overlap only changes there).
        for m in 0..4 {
            let tasks: Vec<_> = out.tasks.iter().filter(|t| t.machine == m).collect();
            for probe in tasks.iter().map(|t| t.start) {
                let live = tasks
                    .iter()
                    .filter(|t| t.start <= probe && probe < t.end)
                    .count();
                assert!(live <= 3, "machine {m} ran {live} tasks at {probe:?}");
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (job, blocks) = sort_job(2.0, 16);
        let a = run(
            &small_cluster(),
            &[(job.clone(), blocks.clone())],
            &SparkConfig::default(),
        );
        let b = run(&small_cluster(), &[(job, blocks)], &SparkConfig::default());
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn concurrent_jobs_interleave() {
        let (a, ba) = sort_job(2.0, 16);
        let (b, bb) = sort_job(2.0, 16);
        let solo = run(
            &small_cluster(),
            &[(a.clone(), ba.clone())],
            &SparkConfig::default(),
        );
        let both = run(
            &small_cluster(),
            &[(a, ba), (b, bb)],
            &SparkConfig::default(),
        );
        assert!(both.jobs[0].duration_secs() > solo.jobs[0].duration_secs());
        assert!(both.makespan.as_secs_f64() < 2.5 * solo.makespan.as_secs_f64());
    }
}
