//! The MonoSpark executor: drives jobs decomposed into monotasks on a
//! simulated cluster.
//!
//! The job scheduler "works in the same way as the Spark job scheduler, with
//! one exception: more multitasks need to be concurrently assigned to each
//! machine to fully utilize the machine's resources" (§3.4) — enough for
//! every resource scheduler to be full, plus one extra multitask so the
//! round-robin disk queues never idle while a replacement task is in flight.
//! Concurrency is therefore *derived from the hardware*, not configured: this
//! is the auto-configuration leveraged in §7.
//!
//! On each worker, the Local DAG Scheduler tracks monotask dependencies and
//! hands ready monotasks to the per-resource schedulers
//! ([`crate::scheduler`]); completed monotasks release their dependents. All
//! timing flows into [`MonotaskRecord`]s.

use std::collections::BTreeMap;

use cluster::{
    ClusterSpec, DeadlineCache, FaultAction, FaultPlan, FaultTimeline, FluidMachine, InstantKind,
    MachineId, ResourceSel, StreamDemand, StreamId, TraceSet,
};
use dataflow::runtime::{Decision, Runtime, RuntimeConfig};
use dataflow::{
    BlockMap, InputSpec, JobId, JobSpec, OutputSpec, RunError, StageId, TaskId, TaskSpec,
};
use simcore::stats::median;
use simcore::{EventQueue, Fabric, FlowAllocator, FlowId, FxHashMap, HierFabric, MaxMinPolicy};
use simcore::{ResourceKind, SimDuration, SimStats, SimTime};

#[cfg(debug_assertions)]
use crate::decompose::{decompose, DecomposeCtx, SenderShare};
use crate::metrics::{MonotaskRecord, Purpose};
#[cfg(debug_assertions)]
use crate::monotask::MonotaskDag;
use crate::monotask::{MonoOp, MultitaskKey};
use crate::scheduler::MachineScheduler;
use crate::template::{StageTemplate, TemplateSender};

/// How the worker picks a disk for a multitask's output write.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DiskChoice {
    /// Rotate across disks independent of load (the paper's implementation;
    /// §8 notes its limitation).
    #[default]
    RoundRobin,
    /// Write to the disk with the shortest monotask queue — §8's suggested
    /// improvement ("a better strategy would consider the load on each disk
    /// … for example, writing to the disk with the shorter queue").
    ShortestQueue,
}

/// How the job scheduler orders multiple concurrent jobs (§8: the multitask
/// scheduler "could be used to implement more sophisticated policies, e.g.,
/// to share machines between different users").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum JobPolicy {
    /// Interleave jobs fairly at task-assignment granularity.
    #[default]
    Fair,
    /// Serve jobs strictly in submission order.
    Fifo,
}

/// Configuration of the monotasks executor. Defaults are the paper's choices;
/// the knobs exist for the ablation benchmarks and the §8 extensions.
#[derive(Clone, Debug)]
pub struct MonoConfig {
    /// Receiver-side limit on concurrently-fetching multitasks (§3.3: 4).
    pub net_outstanding: usize,
    /// Assign one extra multitask beyond the resource slots (§3.4).
    pub extra_multitask: bool,
    /// Round-robin disk queues between reads and writes (§3.3).
    pub rr_disk_queues: bool,
    /// Override the per-machine multitask concurrency (None = auto).
    pub concurrency_override: Option<usize>,
    /// Override each SSD's scheduler slots (None = the device queue depth).
    pub ssd_slots_override: Option<usize>,
    /// Disk selection for output writes.
    pub write_disk_choice: DiskChoice,
    /// Ordering of concurrent jobs.
    pub job_policy: JobPolicy,
    /// §3.5 memory regulation: when a machine's in-flight monotask buffers
    /// exceed this fraction of its RAM, its disk queues prefer writes so
    /// buffered data drains. `None` (the paper's implementation) disables
    /// regulation.
    pub memory_limit_fraction: Option<f64>,
    /// Model the network as a full-duplex max-min fair fabric (sender *and*
    /// receiver links constrain each transfer) instead of receiver-side
    /// bandwidth only. Symmetric all-to-all shuffles behave identically
    /// either way; asymmetric traffic (hot senders) needs the fabric.
    pub full_duplex_network: bool,
    /// Relative rate tolerance ε for the fabric's approximate allocation
    /// mode (only meaningful with `full_duplex_network`). `0.0` — the
    /// default and the spec — is the exact max-min allocator, bit-identical
    /// to runs predating the knob. With ε > 0 every fabric rate is within
    /// `[exact · (1 − ε), exact]` and port capacity is never exceeded; see
    /// `simcore::MaxMinPolicy`.
    pub fabric_epsilon: f64,
    /// Completion-coalescing quantum Δ in seconds for the fabric (only
    /// meaningful with `full_duplex_network`): flow completions due within Δ
    /// of a wave fire together in one reallocation, each at most
    /// `rate · Δ` bytes early. `0.0` (the default) coalesces nothing.
    pub fabric_quantum_secs: f64,
    /// Worker threads for the hierarchical fabric's per-rack shards (only
    /// meaningful when the cluster has a [`cluster::RackTopology`] and
    /// `full_duplex_network` is on). `1` — the default — runs every rack on
    /// the simulation thread. Results are bit-identical for any shard count:
    /// cross-rack effects are exchanged at epoch boundaries in a total
    /// `(time, shard, seq)` order, so this knob trades wall-clock only.
    pub fabric_shards: usize,
    /// Safety valve on simulation iterations.
    pub max_steps: u64,
    /// Record utilization and queue-length traces (one sample per machine
    /// per event). Figure generation needs them; large-scale benchmarks turn
    /// them off — at hundreds of machines the samples dominate memory and
    /// per-event cost without affecting simulation results.
    pub collect_traces: bool,
    /// Retries allowed per task beyond its original attempt before the run
    /// fails with [`RunError::RetriesExhausted`]. Only reachable under fault
    /// injection.
    pub max_task_retries: u32,
    /// Monotask-level speculation threshold: a running monotask whose elapsed
    /// service time exceeds `multiplier ×` the median of completed monotasks
    /// of the same `(job, stage, purpose)` gets a single-resource copy — a
    /// slow disk read re-issued on another replica disk, a slow fetch
    /// re-served from a different sender disk, a slow compute duplicated —
    /// with first-finisher-wins and deterministic loser cancellation. `None`
    /// (the default) disables the machinery entirely: runs are bit-identical
    /// to builds predating the knob (proptested).
    pub mono_speculation_multiplier: Option<f64>,
    /// Minimum elapsed service seconds before a monotask may be speculated
    /// (guards against copy storms on tiny monotasks). Only meaningful with
    /// `mono_speculation_multiplier`; `None` means no floor.
    pub mono_speculation_min_runtime: Option<f64>,
    /// Partition recovery: simulated seconds a fetch may sit at ~zero rate
    /// on a cut fabric pair before the timeout/retry machinery engages.
    /// `None` (the default) disables timeouts entirely — stalled fetches
    /// wait for the partition to heal, and runs without `Partition` events
    /// are bit-identical to builds predating the knob.
    pub fetch_timeout_secs: Option<f64>,
    /// Retry decisions allowed per stalled fetch before recovery escalates
    /// to re-planning (relocation, replica, or lineage resubmission).
    pub fetch_max_retries: u32,
    /// Base of the deterministic exponential backoff between fetch retries:
    /// retry `k` waits `base × 2^(k-1)` simulated seconds.
    pub fetch_backoff_base_secs: f64,
    /// Arm the performance-clarity trace layer and name where its
    /// Perfetto-loadable Chrome Trace Event JSON should be written. `Some`
    /// collects one [`cluster::RunInstant`] per fault firing and recovery
    /// decision into [`MonoRunOutput::instants`]; the `mt-trace` crate's
    /// `export_mono` (or the `trace_export` bench bin) then serializes the
    /// run to this path. Collection is observation-only: `None` — the
    /// default — collects nothing, and traced runs are `to_bits`-identical
    /// to untraced ones (proptested in `tests/trace_props.rs`).
    pub trace_path: Option<std::path::PathBuf>,
}

impl Default for MonoConfig {
    fn default() -> Self {
        MonoConfig {
            net_outstanding: 4,
            extra_multitask: true,
            rr_disk_queues: true,
            concurrency_override: None,
            ssd_slots_override: None,
            write_disk_choice: DiskChoice::RoundRobin,
            job_policy: JobPolicy::Fair,
            memory_limit_fraction: None,
            full_duplex_network: false,
            fabric_epsilon: 0.0,
            fabric_quantum_secs: 0.0,
            fabric_shards: 1,
            max_steps: 50_000_000,
            collect_traces: true,
            max_task_retries: 4,
            mono_speculation_multiplier: None,
            mono_speculation_min_runtime: None,
            fetch_timeout_secs: None,
            fetch_max_retries: 3,
            fetch_backoff_base_secs: 1.0,
            trace_path: None,
        }
    }
}

impl MonoConfig {
    /// Rejects configurations that would deadlock or corrupt rate arithmetic
    /// downstream, with a descriptive message.
    pub fn validate(&self) -> Result<(), String> {
        if self.net_outstanding == 0 {
            return Err("net_outstanding must be >= 1".into());
        }
        if self.concurrency_override == Some(0) {
            return Err("concurrency_override of 0 would assign no work".into());
        }
        if self.ssd_slots_override == Some(0) {
            return Err("ssd_slots_override of 0 would idle every SSD".into());
        }
        if let Some(f) = self.memory_limit_fraction {
            if !(f.is_finite() && f > 0.0) {
                return Err(format!("memory_limit_fraction {f} must be finite and > 0"));
            }
        }
        if self.max_steps == 0 {
            return Err("max_steps must be >= 1".into());
        }
        if !(self.fabric_epsilon.is_finite() && (0.0..1.0).contains(&self.fabric_epsilon)) {
            return Err(format!(
                "fabric_epsilon {} must be finite and in [0, 1)",
                self.fabric_epsilon
            ));
        }
        if !(self.fabric_quantum_secs.is_finite() && self.fabric_quantum_secs >= 0.0) {
            return Err(format!(
                "fabric_quantum_secs {} must be finite and >= 0",
                self.fabric_quantum_secs
            ));
        }
        if self.fabric_shards == 0 {
            return Err("fabric_shards must be >= 1".into());
        }
        if let Some(m) = self.mono_speculation_multiplier {
            if !(m.is_finite() && m >= 1.0) {
                return Err(format!(
                    "mono_speculation_multiplier {m} must be finite and >= 1"
                ));
            }
        }
        if let Some(r) = self.mono_speculation_min_runtime {
            if !(r.is_finite() && r >= 0.0) {
                return Err(format!(
                    "mono_speculation_min_runtime {r} must be finite and >= 0"
                ));
            }
        }
        if let Some(t) = self.fetch_timeout_secs {
            if !(t.is_finite() && t > 0.0) {
                return Err(format!("fetch_timeout_secs {t} must be finite and > 0"));
            }
        }
        if !(self.fetch_backoff_base_secs.is_finite() && self.fetch_backoff_base_secs >= 0.0) {
            return Err(format!(
                "fetch_backoff_base_secs {} must be finite and >= 0",
                self.fetch_backoff_base_secs
            ));
        }
        Ok(())
    }
}

/// Everything a monotasks run produces.
#[derive(Debug)]
pub struct MonoRunOutput {
    /// Per-job reports (same order as submitted).
    pub jobs: Vec<dataflow::JobReport>,
    /// Every completed monotask.
    pub records: Vec<MonotaskRecord>,
    /// Cluster utilization traces.
    pub traces: TraceSet,
    /// Per-machine scheduler queue lengths over time (§3.1's visible
    /// contention), sampled at every simulation step.
    pub queue_trace: Vec<crate::metrics::QueueSnapshot>,
    /// Peak bytes of in-flight monotask buffers per machine (the memory
    /// cost §3.5 discusses).
    pub peak_buffered: Vec<f64>,
    /// Time of the last completion.
    pub makespan: SimTime,
    /// Control-plane cost: simulation steps plus allocator work summed over
    /// every machine and the fabric.
    pub stats: SimStats,
    /// Timestamped fault and recovery instants, in emission order. Empty
    /// unless [`MonoConfig::trace_path`] armed the trace layer.
    pub instants: Vec<cluster::RunInstant>,
}

/// Phase of a network-fetch monotask's tiny internal chain.
#[derive(Clone, Copy, PartialEq, Debug)]
enum NetPhase {
    /// Waiting for the receiver's network scheduler to admit the group.
    Waiting,
    /// The remote disk-read monotask is queued or running on the sender.
    RemoteRead,
    /// Bytes are flowing to the receiver.
    Transfer,
}

/// Per-monotask state the event loop touches on every dispatch and
/// completion. Hot nodes are the one structure allocated per monotask (a
/// shuffle creates maps × reduces of them), so everything only speculation
/// or partitions need lives in [`ColdNode`] instead.
#[derive(Debug)]
struct MonoNode {
    op: MonoOp,
    queued: SimTime,
    started: SimTime,
    serve_queued: SimTime,
    serve_started: SimTime,
    deps_remaining: u32,
    /// The single DAG successor, if any. Decomposition only ever produces
    /// chains into/out of the compute node (inputs → compute → write), so a
    /// full adjacency list would be a per-node allocation for nothing.
    dependent: Option<u32>,
    purpose: Purpose,
    net_phase: NetPhase,
    /// `DONE | RUNNING | CANCELLED | COPY` bits.
    flags: u8,
}

// The hot node's size is the per-monotask host cost; keep it in check.
const _: () = assert!(std::mem::size_of::<MonoNode>() <= 80);

/// Completed (or won by its copy).
const DONE: u8 = 1;
/// Holds a rate allocation right now (its stream/flow is in an allocator).
/// Distinguishes queued from in-flight during cancellation.
const RUNNING: u8 = 2;
/// Lost a speculation race (or its sender died): stale queue entries are
/// skipped lazily at pop time, in-flight streams were torn down eagerly.
const CANCELLED: u8 = 4;
/// A speculative copy; its original is [`ColdNode::copy_of`].
const COPY: u8 = 8;

impl MonoNode {
    /// A node enqueued at `now` with no DAG edges and no flags set.
    fn new(op: MonoOp, purpose: Purpose, now: SimTime) -> MonoNode {
        MonoNode {
            op,
            queued: now,
            started: now,
            serve_queued: now,
            serve_started: now,
            deps_remaining: 0,
            dependent: None,
            purpose,
            net_phase: NetPhase::Waiting,
            flags: 0,
        }
    }

    fn done(&self) -> bool {
        self.flags & DONE != 0
    }

    fn running(&self) -> bool {
        self.flags & RUNNING != 0
    }

    fn cancelled(&self) -> bool {
        self.flags & CANCELLED != 0
    }

    fn is_copy(&self) -> bool {
        self.flags & COPY != 0
    }

    fn set(&mut self, flag: u8, on: bool) {
        if on {
            self.flags |= flag;
        } else {
            self.flags &= !flag;
        }
    }
}

/// Speculation and partition state of one node, kept in [`Exec::cold`]
/// keyed by `(multitask, node)`. Only speculation and partition hooks write
/// entries, so runs without either never allocate the table.
#[derive(Debug, Default)]
struct ColdNode {
    /// Index of this node's speculative copy, if one was launched. At most
    /// one copy per monotask, ever.
    copy: Option<usize>,
    /// For copy nodes: the original they duplicate.
    copy_of: Option<usize>,
    /// Next scheduled speculation-check wake-up for this node (dedup so the
    /// timer queue holds at most one pending entry per node).
    spec_wake_at: Option<SimTime>,
    /// When this fetch first observed its pair cut (stall-time attribution).
    stall_since: Option<SimTime>,
    /// Next stall-timeout / retry-backoff expiry for this fetch.
    stall_deadline: Option<SimTime>,
    /// Retry decisions already spent on this fetch.
    fetch_retries: u32,
    /// Per-machine-allocator transfers parked by a cut: remaining bytes to
    /// re-insert on heal. (Fabric transfers stay in the allocator at rate 0
    /// instead.)
    parked_bytes: Option<f64>,
}

#[derive(Debug)]
struct MtState {
    key: MultitaskKey,
    machine: usize,
    nodes: Vec<MonoNode>,
    remaining: usize,
    fetches_outstanding: usize,
    /// Abandoned by a crash; stale scheduler-queue entries are skipped lazily.
    aborted: bool,
    /// Launch time, for wasted-work / recompute attribution.
    start: SimTime,
    /// Bytes this multitask currently holds in its machine's buffer
    /// accounting (released on abort).
    buffered: f64,
    /// This attempt re-runs a completed task whose output a crash destroyed.
    recompute: bool,
    /// Input block read by this task, if any (replica lookup for disk-read
    /// speculation).
    input_block: Option<dataflow::BlockId>,
    /// Straggle factor applied to this attempt's CPU work, if any. Compute
    /// copies run clean (divide the inflated work back out), mirroring the
    /// slot-level semantics where retries and copies run at full speed.
    straggle: Option<f64>,
}

/// Per-machine worker state. A crashed machine (`!rt.alive[m]`) is a zombie:
/// its allocator is never polled again, its queues never popped, and it
/// takes no assignments.
struct Mach {
    fluid: FluidMachine,
    sched: MachineScheduler,
    assigned: usize,
    write_cursor: usize,
    serve_cursor: usize,
    /// Bytes of monotask buffers currently in memory.
    buffered: f64,
    peak_buffered: f64,
}

struct Exec {
    cfg: MonoConfig,
    target: usize,
    machines: Vec<Mach>,
    /// Job/stage state, retries and partition bookkeeping shared with the
    /// Spark-like executor.
    rt: Runtime,
    mts: Vec<MtState>,
    /// Speculation and partition state by `(multitask, node)`; empty (and
    /// unallocated) unless one of those features touches a node.
    cold: FxHashMap<(usize, usize), ColdNode>,
    records: Vec<MonotaskRecord>,
    traces: TraceSet,
    queue_trace: Vec<crate::metrics::QueueSnapshot>,
    /// Full-duplex network fabric (when `cfg.full_duplex_network`): flat
    /// max-min over every NIC, or the rack-sharded hierarchy when the
    /// cluster declares a rack topology.
    fabric: Option<Fabric>,
    now: SimTime,
    stats: SimStats,
    /// Compiled fault schedule.
    faults: FaultTimeline,
    /// Whether any fault machinery is active this run. False keeps every
    /// fault hook off the hot path, so an empty plan is bit-identical to the
    /// plan-free code.
    faults_on: bool,
    /// Whether monotask-level speculation is active this run. False keeps
    /// every speculation hook off the hot path, so disabled runs are
    /// bit-identical to builds predating the feature.
    spec_on: bool,
    /// Completed service durations per `(job, stage, purpose)` — the
    /// straggler-threshold populations. BTreeMap for deterministic layout.
    durations: BTreeMap<(u32, u32, Purpose), Vec<f64>>,
    /// Deterministic wake-ups at projected threshold-crossing instants, so a
    /// straggler is caught even when no completion event lands near it.
    spec_timers: EventQueue<()>,
    /// Captured control decisions per `[job][stage]` (`None` until the
    /// stage's first shuffle-input task launches).
    templates: Vec<Vec<Option<StageTemplate>>>,
    /// Whether `cfg.trace_path` armed the trace layer's instant collection.
    trace_on: bool,
    /// Timestamped fault and recovery instants, in emission order
    /// (observation-only; empty unless `trace_on`).
    instants: Vec<cluster::RunInstant>,
}

/// Encodes a `(multitask, node)` reference as a fluid stream id: 32 bits
/// each, so ids order by `(mt, node)`. Neither field can overflow in
/// practice: 2^32 multitasks or nodes would not fit in host memory.
fn stream_id(mt: usize, node: usize) -> StreamId {
    debug_assert!((mt as u64) >> 32 == 0 && (node as u64) >> 32 == 0);
    StreamId(((mt as u64) << 32) | node as u64)
}

fn decode(id: StreamId) -> (usize, usize) {
    ((id.0 >> 32) as usize, (id.0 & 0xFFFF_FFFF) as usize)
}

/// `RecoveryStats` array index for a monotask's resource.
fn res_index(op: &MonoOp) -> usize {
    match op {
        MonoOp::Compute { .. } => dataflow::RES_CPU,
        MonoOp::DiskRead { .. } | MonoOp::DiskWrite { .. } => dataflow::RES_DISK,
        MonoOp::NetFetch { .. } => dataflow::RES_NET,
    }
}

/// Partition reachability gate, the runtime's [`dataflow::runtime::Gate`]:
/// whether machine `m` could actually get the input data of task
/// `(ji, si, ti)` across the current cuts. A disk task needs its block's home
/// (or a live replica holder) reachable; a shuffle task needs every producing
/// machine reachable. Crash recovery deliberately stays out of this gate —
/// dead senders are handled by the lineage path, and partition-free runs
/// never call it.
fn can_host(rt: &Runtime, m: usize, ji: usize, si: usize, ti: usize) -> bool {
    let job = &rt.jobs[ji];
    match job.spec.stages[si].tasks[ti].input {
        InputSpec::DiskBlock { block, .. } => {
            let home = job.blocks.machine_of(block);
            m == home
                || !rt.is_cut(home, m)
                || job
                    .blocks
                    .extra_replicas(block)
                    .iter()
                    .any(|&(rm, _)| rm == m || (rt.alive[rm] && !rt.is_cut(rm, m)))
        }
        InputSpec::ShuffleFetch { .. } => rt.shuffle_reachable(ji, si, m),
        InputSpec::Memory { .. } | InputSpec::None => true,
    }
}

/// Runs `jobs` to completion on a simulated `cluster` under the monotasks
/// architecture, returning reports, monotask records, and utilization traces.
///
/// # Examples
///
/// ```
/// use cluster::{ClusterSpec, MachineSpec};
/// use dataflow::{BlockMap, CostModel, JobBuilder};
///
/// let gib = 1024.0 * 1024.0 * 1024.0;
/// let job = JobBuilder::new("sort", CostModel::spark_1_3())
///     .read_disk(gib, 1e7, gib / 16.0)
///     .map(1.0, 1.0, true)
///     .shuffle(16, false)
///     .map(1.0, 1.0, true)
///     .write_disk(1.0);
/// let blocks = BlockMap::round_robin(16, 4, 2);
/// let cluster = ClusterSpec::new(4, MachineSpec::m2_4xlarge());
///
/// let out = monotasks_core::run(&cluster, &[(job, blocks)], &Default::default());
/// assert_eq!(out.jobs.len(), 1);
/// assert!(out.jobs[0].duration_secs() > 0.0);
/// // Every monotask used exactly one resource and reported its timing.
/// assert!(!out.records.is_empty());
/// ```
///
/// # Panics
///
/// Panics if a job spec fails validation or the simulation deadlocks (which
/// would indicate an executor bug, not a user error). Thin wrapper over
/// [`try_run`] for the figure binaries; fault-injecting callers should use
/// [`run_with_faults`] and handle the `Result`.
pub fn run(cluster: &ClusterSpec, jobs: &[(JobSpec, BlockMap)], cfg: &MonoConfig) -> MonoRunOutput {
    match try_run(cluster, jobs, cfg) {
        Ok(out) => out,
        Err(e) => panic!("monotasks run failed: {e}"),
    }
}

/// Fault-free [`run`] with structured errors instead of panics.
pub fn try_run(
    cluster: &ClusterSpec,
    jobs: &[(JobSpec, BlockMap)],
    cfg: &MonoConfig,
) -> Result<MonoRunOutput, RunError> {
    run_with_faults(cluster, jobs, cfg, &FaultPlan::new())
}

/// Runs `jobs` under the monotasks architecture while injecting the faults
/// scheduled in `plan`. With an empty plan this is exactly [`run`]: every
/// fault hook stays off the event path, so makespans and records are
/// bit-identical to the plan-free code.
pub fn run_with_faults(
    cluster: &ClusterSpec,
    jobs: &[(JobSpec, BlockMap)],
    cfg: &MonoConfig,
    plan: &FaultPlan,
) -> Result<MonoRunOutput, RunError> {
    cluster.validate().map_err(RunError::InvalidConfig)?;
    cfg.validate().map_err(RunError::InvalidConfig)?;
    for (spec, _) in jobs {
        if let Err(e) = spec.validate() {
            return Err(RunError::InvalidConfig(format!(
                "invalid job spec {:?}: {e}",
                spec.name
            )));
        }
    }
    plan.validate(cluster).map_err(RunError::InvalidConfig)?;
    let n_machines = cluster.machines;
    let disk_slots: Vec<usize> = cluster
        .machine
        .disks
        .iter()
        .map(|d| match (d.kind, cfg.ssd_slots_override) {
            (cluster::DiskKind::Ssd, Some(s)) => s.max(1),
            _ => d.scheduler_slots(),
        })
        .collect();
    let auto_target = cluster.machine.cores as usize
        + disk_slots.iter().sum::<usize>()
        + cfg.net_outstanding
        + usize::from(cfg.extra_multitask);
    let target = cfg.concurrency_override.unwrap_or(auto_target).max(1);

    let machines = (0..n_machines)
        .map(|_| Mach {
            fluid: FluidMachine::new(cluster.machine.clone()),
            sched: MachineScheduler::new(
                cluster.machine.cores as usize,
                &disk_slots,
                cfg.net_outstanding,
                cfg.rr_disk_queues,
            ),
            assigned: 0,
            write_cursor: 0,
            serve_cursor: 0,
            buffered: 0.0,
            peak_buffered: 0.0,
        })
        .collect();
    let rt_cfg = RuntimeConfig {
        fifo: cfg.job_policy == JobPolicy::Fifo,
        lineage: !plan.is_empty(),
        partitions: plan.has_partitions(),
        max_task_retries: cfg.max_task_retries,
        fetch_timeout_secs: cfg.fetch_timeout_secs,
        fetch_max_retries: cfg.fetch_max_retries,
        fetch_backoff_base_secs: cfg.fetch_backoff_base_secs,
    };

    let mut exec = Exec {
        cfg: cfg.clone(),
        target,
        machines,
        rt: Runtime::new(jobs, n_machines, rt_cfg, can_host),
        mts: Vec::new(),
        records: Vec::new(),
        traces: TraceSet::new(),
        queue_trace: Vec::new(),
        fabric: if cfg.full_duplex_network {
            let policy = MaxMinPolicy {
                epsilon: cfg.fabric_epsilon,
                quantum: SimDuration::from_secs_f64(cfg.fabric_quantum_secs),
            };
            Some(match &cluster.topology {
                Some(topo) => Fabric::Hier(Box::new(HierFabric::new(
                    topo.rack_map(n_machines).expect("validated above"),
                    cluster.machine.nic,
                    cluster.machine.nic,
                    topo.agg_tx,
                    topo.agg_rx,
                    // Within a rack the allocation is exact max-min; ε/Δ
                    // apply to the oversubscribed core where the aggregate
                    // super-classes make approximation worthwhile.
                    MaxMinPolicy::default(),
                    policy,
                    cfg.fabric_shards,
                ))),
                None => Fabric::Flat(Box::new(FlowAllocator::new_with_policy(
                    n_machines,
                    cluster.machine.nic,
                    cluster.machine.nic,
                    policy,
                ))),
            })
        } else {
            None
        },
        now: SimTime::ZERO,
        stats: SimStats::new(),
        faults: plan.compile(),
        faults_on: !plan.is_empty(),
        spec_on: cfg.mono_speculation_multiplier.is_some(),
        durations: BTreeMap::new(),
        spec_timers: EventQueue::new(),
        templates: jobs
            .iter()
            .map(|(spec, _)| vec![None; spec.stages.len()])
            .collect(),
        cold: FxHashMap::default(),
        trace_on: cfg.trace_path.is_some(),
        instants: Vec::new(),
    };
    exec.main_loop()?;
    Ok(exec.into_output())
}

impl Exec {
    fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Cold state of node `(mt, node)`, if any was ever written.
    fn cold(&self, mt: usize, node: usize) -> Option<&ColdNode> {
        self.cold.get(&(mt, node))
    }

    /// Cold state of node `(mt, node)`, created on first write.
    fn cold_mut(&mut self, mt: usize, node: usize) -> &mut ColdNode {
        self.cold.entry((mt, node)).or_default()
    }

    /// Records a trace instant at the current simulated time, after the
    /// runtime's pending decisions so instants keep decision order. Pushes to
    /// side Vecs only, so traced runs stay bit-identical to untraced ones.
    fn emit_instant(&mut self, kind: InstantKind) {
        self.apply_decisions();
        self.push_instant(kind);
    }

    fn push_instant(&mut self, kind: InstantKind) {
        if self.trace_on {
            self.instants.push(cluster::RunInstant {
                time: self.now,
                kind,
            });
        }
    }

    /// Mirrors the runtime's recovery decisions as instants, and drops the
    /// consumer templates a lost shuffle output made stale — eagerly, and
    /// counted; the epoch check at instantiation is the backstop.
    fn apply_decisions(&mut self) {
        for d in self.rt.take_decisions() {
            let kind = match d {
                Decision::TaskRetry {
                    job,
                    stage,
                    task,
                    recompute,
                } => InstantKind::TaskRetry {
                    job,
                    stage,
                    task,
                    recompute,
                },
                Decision::FetchRetry {
                    job,
                    stage,
                    attempt,
                } => InstantKind::FetchRetry {
                    job,
                    stage,
                    attempt,
                },
                Decision::ShuffleLost { job, stage } => {
                    self.invalidate_consumers(job, stage);
                    continue;
                }
            };
            self.push_instant(kind);
        }
    }

    /// Drops the templates of every stage consuming `(ji, si)`'s shuffle.
    fn invalidate_consumers(&mut self, ji: usize, si: usize) {
        for sj in 0..self.rt.jobs[ji].stages.len() {
            let consumes = self.rt.jobs[ji].spec.stages[sj]
                .deps
                .iter()
                .any(|d| d.0 as usize == si);
            if consumes && self.templates[ji][sj].take().is_some() {
                self.rt.jobs[ji].stages[sj].control.template_invalidations += 1;
                self.push_instant(InstantKind::TemplateInvalidate {
                    job: ji as u32,
                    stage: sj as u32,
                });
            }
        }
    }

    fn main_loop(&mut self) -> Result<(), RunError> {
        let loop_timer = std::time::Instant::now();
        let mut steps: u64 = 0;
        // Completion buffers reused across events: the speculative poll runs
        // per allocator per event and must not allocate.
        let mut done_flows: Vec<FlowId> = Vec::new();
        let mut done_streams: Vec<StreamId> = Vec::new();
        let mut deadlines = DeadlineCache::new(self.n_machines());
        loop {
            // One batch per event instant: the completion wave (empty on the
            // first iteration), then dispatch to fixpoint — assignment opens
            // queues, queues fill slots, remote enqueues open other machines'
            // disks, and so on. Everything happens at one instant, so each
            // allocator reallocates once per event instead of once for the
            // completions and again for the dispatches; the intermediate
            // fixpoint between the two waves is never observed by handlers.
            self.begin_update_all();
            // Fault actions fire first within their instant: a crash at `t`
            // wins against completions at `t`, deterministically.
            if self.faults_on {
                self.apply_due_faults()?;
            }
            if self.rt.partitions_on() {
                self.check_partition_recovery()?;
            }
            if self.faults_on {
                self.apply_decisions();
            }
            if self.spec_on {
                // Drain due speculation wake-ups: they carry no payload, the
                // fixpoint's check_speculation sweep does the actual work.
                while self.spec_timers.pop_due(self.now).is_some() {}
            }
            if let Some(fabric) = &mut self.fabric {
                fabric.advance(self.now);
                fabric.take_completed_into(self.now, &mut done_flows);
                for &fid in &done_flows {
                    let (mt, node) = decode(StreamId(fid.0));
                    self.on_stream_done(mt, node);
                }
            }
            for m in 0..self.n_machines() {
                let fluid = &mut self.machines[m].fluid;
                if !self.rt.alive[m] || !deadlines.may_complete(m, fluid, self.now) {
                    continue;
                }
                fluid.advance(self.now);
                fluid.take_completed_into(self.now, &mut done_streams);
                for &sid in &done_streams {
                    let (mt, node) = decode(sid);
                    self.on_stream_done(mt, node);
                }
            }
            loop {
                let mut changed = self.assign_tasks();
                changed |= self.dispatch_all();
                if self.spec_on {
                    changed |= self.check_speculation();
                }
                if !changed {
                    break;
                }
            }
            if self.rt.partitions_on() {
                self.rt.arm_gate_timers(self.now);
            }
            self.commit_all(self.now);
            if let Some(fabric) = &mut self.fabric {
                fabric.advance(self.now);
            }
            for m in 0..self.n_machines() {
                if !self.rt.alive[m] {
                    continue;
                }
                self.machines[m].fluid.advance(self.now);
                if !self.cfg.collect_traces {
                    continue;
                }
                self.traces
                    .snapshot(self.now, MachineId(m), &self.machines[m].fluid);
                if let Some(fabric) = &self.fabric {
                    // In fabric mode the NIC utilization lives on the fabric.
                    self.traces.set(
                        self.now,
                        MachineId(m),
                        ResourceSel::Network,
                        fabric.rx_busy_fraction(m).min(1.0),
                    );
                }
                let (cpu_q, disk_q, net_q) = self.machines[m].sched.queue_lengths();
                self.queue_trace.push(crate::metrics::QueueSnapshot {
                    time: self.now,
                    machine: m,
                    cpu_queued: cpu_q,
                    disk_queued: disk_q,
                    net_queued: net_q,
                });
            }
            // Under fault injection, stop at the last job completion instead
            // of sitting through the remaining scheduled fault actions (e.g.
            // a degrade window that outlives the workload). Speculation runs
            // stop there too: stale wake-up timers past the last completion
            // must not stretch the reported makespan.
            if (self.faults_on || self.spec_on) && self.rt.jobs.iter().all(|j| j.done) {
                break;
            }
            // Next event anywhere: a machine or fabric completion, a fault
            // action, a speculation wake-up or a fetch timer. Sources a run
            // does not use are empty.
            let machines = (self.machines.iter_mut())
                .zip(&self.rt.alive)
                .map(|(x, &alive)| (&mut x.fluid, alive));
            let mut next = [
                deadlines.earliest(machines, self.now),
                self.fabric
                    .as_mut()
                    .and_then(|f| f.next_completion(self.now)),
                self.faults.next_time(),
                self.spec_timers.peek_time(),
                self.rt.next_fetch_timer(),
            ]
            .into_iter()
            .flatten()
            .min();
            // Flows parked by a cut pair report a FAR_FUTURE deadline: "never"
            // is not a real next event.
            if self.rt.partitions_on() && next == Some(SimTime::FAR_FUTURE) {
                next = None;
            }
            let Some(t) = next else {
                if self.rt.jobs.iter().all(|j| j.done) {
                    break;
                }
                if self.rt.partitions_on() {
                    if let Some(e) = self.partition_starvation_error() {
                        return Err(e);
                    }
                }
                return Err(RunError::no_runnable_work(self.now));
            };
            self.now = t;
            steps += 1;
            if steps > self.cfg.max_steps {
                return Err(RunError::StepBudgetExhausted { steps });
            }
        }
        self.stats.events = steps;
        // Raw loop wall time; into_output subtracts what the allocators
        // account for, leaving pure executor-control overhead.
        self.stats.control_nanos = loop_timer.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Applies every fault action due at `now`, inside the open batch.
    fn apply_due_faults(&mut self) -> Result<(), RunError> {
        while let Some(action) = self.faults.pop_due(self.now) {
            if self.trace_on {
                self.emit_instant(InstantKind::from(&action));
            }
            match action {
                FaultAction::SetDiskScale {
                    machine,
                    disk,
                    factor,
                } => {
                    if self.rt.alive[machine] {
                        self.machines[machine]
                            .fluid
                            .set_disk_scale(self.now, disk, factor);
                    }
                }
                FaultAction::SetLinkScale { machine, factor } => {
                    // The receiver-side NIC model always sees the scale; in
                    // fabric mode the machine's tx and rx port capacities
                    // degrade too, so link faults stretch shuffles whichever
                    // network model carries them.
                    if self.rt.alive[machine] {
                        self.machines[machine].fluid.set_nic_scale(self.now, factor);
                        if let Some(fabric) = &mut self.fabric {
                            fabric.set_port_scale(self.now, machine, factor);
                        }
                    }
                }
                FaultAction::Crash { machine } => self.crash_machine(machine)?,
                FaultAction::CutPair { src, dst } => self.apply_cut(src, dst),
                FaultAction::HealPair { src, dst } => self.apply_heal(src, dst),
            }
        }
        Ok(())
    }

    /// Permanently fails machine `m`: aborts every multitask running on it or
    /// fetching from it, re-queues their tasks, and re-queues the completed
    /// upstream tasks whose shuffle outputs lived on it (lineage
    /// recomputation).
    fn crash_machine(&mut self, m: usize) -> Result<(), RunError> {
        if !self.rt.crash(m) {
            return Ok(());
        }
        for mt in 0..self.mts.len() {
            if self.mts[mt].remaining == 0 || self.mts[mt].aborted {
                continue;
            }
            let on_dead = self.mts[mt].machine == m;
            if self.spec_on && !on_dead {
                // A speculative copy served by the dead machine dies alone:
                // cancel it and let the (healthy) original finish, instead of
                // aborting the whole multitask.
                for node in 0..self.mts[mt].nodes.len() {
                    let n = &self.mts[mt].nodes[node];
                    if n.is_copy()
                        && !n.done()
                        && !n.cancelled()
                        && matches!(n.op, MonoOp::NetFetch { from, .. } if from == m)
                    {
                        self.cancel_node(mt, node);
                    }
                }
            }
            let dead_fetch = !on_dead
                && self.mts[mt].nodes.iter().any(|n| {
                    !n.done()
                        && !n.cancelled()
                        && matches!(n.op, MonoOp::NetFetch { from, .. } if from == m)
                });
            if on_dead || dead_fetch {
                self.abort_multitask(mt)?;
            }
        }
        self.rt.lose_shuffle_outputs(m)?;
        if !self.rt.alive.contains(&true) {
            return Err(RunError::all_machines_crashed(self.now));
        }
        Ok(())
    }

    /// Marks fetch `node` of `mt` stalled on a cut pair: starts the stall
    /// clock and arms the first timeout expiry (when timeouts are on).
    fn mark_stalled(&mut self, mt: usize, node: usize) {
        let now = self.now;
        let c = self.cold_mut(mt, node);
        c.stall_since.get_or_insert(now);
        // Arming schedules a wake-up, so only a fetch without a pending
        // expiry may arm one: a fetch cut while queued or reading remotely
        // is marked again when its transfer starts on the still-cut pair.
        if c.stall_deadline.is_none() {
            let deadline = self.rt.stall_deadline(now);
            self.cold_mut(mt, node).stall_deadline = deadline;
        }
    }

    /// A fault-plan cut of the directed pair src → dst takes effect: the
    /// fabric pins the pair's flows at rate 0 (per-machine-allocator
    /// transfers park instead), every affected in-flight fetch starts its
    /// stall clock, and speculative copies fetching across the pair are
    /// cancelled — they can never win.
    fn apply_cut(&mut self, src: usize, dst: usize) {
        if !self.rt.cut(src, dst) {
            return;
        }
        if let Some(fabric) = &mut self.fabric {
            fabric.set_pair_cut(self.now, src, dst, true);
        }
        for mt in 0..self.mts.len() {
            if self.mts[mt].aborted || self.mts[mt].remaining == 0 || self.mts[mt].machine != dst {
                continue;
            }
            for node in 0..self.mts[mt].nodes.len() {
                let (skip, is_copy, in_transfer) = {
                    let n = &self.mts[mt].nodes[node];
                    (
                        n.done()
                            || n.cancelled()
                            || !matches!(n.op, MonoOp::NetFetch { from, .. } if from == src),
                        n.is_copy(),
                        n.net_phase == NetPhase::Transfer && n.running(),
                    )
                };
                if skip {
                    continue;
                }
                if is_copy {
                    self.cancel_node(mt, node);
                    continue;
                }
                if in_transfer && self.fabric.is_none() {
                    // Park the in-flight receive stream: pull it out of the
                    // receiver's allocator, remembering the bytes left.
                    let sid = stream_id(mt, node);
                    if self.machines[dst].fluid.contains(sid) {
                        let rem = self.machines[dst].fluid.remove(self.now, sid);
                        self.cold_mut(mt, node).parked_bytes = Some(rem.unwrap_or(0.0).max(1e-9));
                    }
                }
                self.mark_stalled(mt, node);
            }
        }
    }

    /// The directed pair src → dst heals: fabric flows resume at fair rates,
    /// parked receive streams re-enter the receiver's allocator with their
    /// remaining bytes, stall clocks stop (attributed to
    /// `stalled_fetch_seconds`), and machines quarantined by recovery become
    /// schedulable again.
    fn apply_heal(&mut self, src: usize, dst: usize) {
        if !self.rt.heal(src, dst) {
            return;
        }
        if let Some(fabric) = &mut self.fabric {
            fabric.set_pair_cut(self.now, src, dst, false);
        }
        for mt in 0..self.mts.len() {
            if self.mts[mt].aborted || self.mts[mt].remaining == 0 || self.mts[mt].machine != dst {
                continue;
            }
            for node in 0..self.mts[mt].nodes.len() {
                let n = &self.mts[mt].nodes[node];
                if n.done()
                    || n.cancelled()
                    || n.is_copy()
                    || !matches!(n.op, MonoOp::NetFetch { from, .. } if from == src)
                {
                    continue;
                }
                let Some(c) = self.cold.get_mut(&(mt, node)) else {
                    continue;
                };
                let parked = c.parked_bytes.take();
                if let Some(since) = c.stall_since.take() {
                    c.stall_deadline = None;
                    let ji = self.mts[mt].key.job.0 as usize;
                    self.rt.jobs[ji].recovery.stalled_fetch_seconds +=
                        self.now.since(since).as_secs_f64();
                }
                if let Some(rem) = parked {
                    let n_disks = self.machines[dst].fluid.spec().disks.len();
                    self.machines[dst].fluid.insert(
                        self.now,
                        stream_id(mt, node),
                        StreamDemand::rx_only(rem, n_disks),
                    );
                }
            }
        }
    }

    /// Due-deadline sweep of the stall machinery: fires bounded retries with
    /// deterministic exponential backoff for fetches still cut past their
    /// deadline, escalating to re-planning when the budget is spent.
    /// Stage-level gate blockages (no machine can reach any pending task's
    /// data) walk the same timeout → retries → re-plan path in the runtime.
    fn check_partition_recovery(&mut self) -> Result<(), RunError> {
        if !self.rt.drain_fetch_timers(self.now) {
            return Ok(());
        }
        for mt in 0..self.mts.len() {
            if self.mts[mt].aborted || self.mts[mt].remaining == 0 {
                continue;
            }
            let dst = self.mts[mt].machine;
            for node in 0..self.mts[mt].nodes.len() {
                let (due, from) = {
                    let n = &self.mts[mt].nodes[node];
                    let from = match n.op {
                        MonoOp::NetFetch { from, .. } => from,
                        _ => continue,
                    };
                    (
                        !n.done()
                            && !n.cancelled()
                            && !n.is_copy()
                            && self
                                .cold(mt, node)
                                .and_then(|c| c.stall_deadline)
                                .is_some_and(|d| d <= self.now),
                        from,
                    )
                };
                if !due {
                    continue;
                }
                if !self.rt.is_cut(from, dst) {
                    // Healed in the meantime (defensive: the heal sweep
                    // normally clears this state).
                    self.cold_mut(mt, node).stall_deadline = None;
                    continue;
                }
                let retries = {
                    let c = self.cold_mut(mt, node);
                    c.fetch_retries += 1;
                    c.fetch_retries
                };
                let key = self.mts[mt].key;
                let (ji, si) = (key.job.0 as usize, key.stage.0 as usize);
                match self.rt.fetch_retry(ji, si, retries, self.now) {
                    Some(at) => self.cold_mut(mt, node).stall_deadline = Some(at),
                    None => {
                        self.replan_multitask(mt, retries)?;
                        break;
                    }
                }
            }
        }
        for ji in 0..self.rt.jobs.len() {
            for si in 0..self.rt.jobs[ji].stages.len() {
                if let Some((ti, retries)) = self.rt.gate_timeout(ji, si, self.now) {
                    self.resolve_unreachable(ji, si, ti, retries)?;
                }
            }
        }
        Ok(())
    }

    /// Retry budget spent on a stalled fetch of `mt`: count and stop the
    /// attempt's stall clocks, abort the attempt (bounded-retry re-queue of
    /// its task), and if no machine can host the task across the current
    /// cuts, escalate to sender-level resolution.
    fn replan_multitask(&mut self, mt: usize, retries: u32) -> Result<(), RunError> {
        let key = self.mts[mt].key;
        let (ji, si, ti) = (
            key.job.0 as usize,
            key.stage.0 as usize,
            key.task.0 as usize,
        );
        self.account_replanned_fetches(mt);
        self.abort_multitask(mt)?;
        if !self.rt.any_host(ji, si, ti) {
            self.resolve_unreachable(ji, si, ti, retries)?;
        }
        Ok(())
    }

    /// Stops and attributes the stall clocks of `mt`'s live fetches, counting
    /// each as re-planned. Called immediately before the attempt is aborted.
    fn account_replanned_fetches(&mut self, mt: usize) {
        let ji = self.mts[mt].key.job.0 as usize;
        let mut stalled = 0.0;
        let mut replanned = 0u64;
        for (node, n) in self.mts[mt].nodes.iter().enumerate() {
            if n.done() || n.cancelled() || n.is_copy() {
                continue;
            }
            if !matches!(n.op, MonoOp::NetFetch { .. }) {
                continue;
            }
            if let Some(c) = self.cold.get_mut(&(mt, node)) {
                if let Some(since) = c.stall_since.take() {
                    stalled += self.now.since(since).as_secs_f64();
                }
                c.stall_deadline = None;
            }
            replanned += 1;
        }
        self.rt.jobs[ji].recovery.stalled_fetch_seconds += stalled;
        self.rt.jobs[ji].recovery.fetches_replanned += replanned;
        let si = self.mts[mt].key.stage.0;
        for _ in 0..replanned {
            self.emit_instant(InstantKind::FetchReplan {
                job: ji as u32,
                stage: si,
            });
        }
    }

    /// Sender-level degraded-mode re-planning for task `(ji, si, ti)`, which
    /// no machine can host under the current cuts: the runtime picks the
    /// receiver and the senders it cannot reach; each such sender's fetching
    /// attempts are aborted and its producer lineage resubmitted, or the run
    /// fails fast with [`RunError::Unreachable`].
    fn resolve_unreachable(
        &mut self,
        ji: usize,
        si: usize,
        ti: usize,
        retries: u32,
    ) -> Result<(), RunError> {
        let (mstar, offending) = self.rt.unreachable_plan(ji, si, ti, retries, self.now)?;
        for s in offending {
            self.rt
                .check_resubmittable((ji, si, ti), s, mstar, retries)?;
            // Abort every attempt still fetching from `s`: their own timers
            // would walk into this same resolution.
            for mt in 0..self.mts.len() {
                if self.mts[mt].aborted || self.mts[mt].remaining == 0 {
                    continue;
                }
                let has = self.mts[mt].nodes.iter().any(|n| {
                    !n.done()
                        && !n.cancelled()
                        && !n.is_copy()
                        && matches!(n.op, MonoOp::NetFetch { from, .. } if from == s)
                });
                if has {
                    self.account_replanned_fetches(mt);
                    self.abort_multitask(mt)?;
                }
            }
            self.rt.resubmit_from(s)?;
        }
        Ok(())
    }

    /// When the event loop has nothing left to fire but jobs remain and
    /// partitions are active, name the starved work: a stalled fetch (no
    /// timeout configured, partition never heals) or a gate-blocked stage.
    fn partition_starvation_error(&self) -> Option<RunError> {
        for (i, mt) in self.mts.iter().enumerate() {
            if mt.aborted || mt.remaining == 0 {
                continue;
            }
            for (j, n) in mt.nodes.iter().enumerate() {
                if n.done() || n.cancelled() || n.is_copy() {
                    continue;
                }
                let Some(c) = self.cold(i, j) else {
                    continue;
                };
                if c.stall_since.is_none() && c.parked_bytes.is_none() {
                    continue;
                }
                if let MonoOp::NetFetch { from, .. } = n.op {
                    return Some(RunError::Unreachable {
                        job: mt.key.job,
                        stage: mt.key.stage,
                        task: mt.key.task,
                        machine: from,
                        retries: c.fetch_retries,
                    });
                }
            }
        }
        self.rt.gate_starvation_error()
    }

    /// Tears down an in-flight multitask: removes its active streams from
    /// every *surviving* allocator (a dead machine's allocator is a zombie
    /// and is never polled again), frees the scheduler slots those streams
    /// held, releases its buffer accounting, and re-queues the task. Queued
    /// but not-yet-started scheduler entries are skipped lazily at pop time.
    fn abort_multitask(&mut self, mt: usize) -> Result<(), RunError> {
        self.mts[mt].aborted = true;
        let machine = self.mts[mt].machine;
        let home_alive = self.rt.alive[machine];
        let ji = self.mts[mt].key.job.0 as usize;
        let mut group_admitted = false;
        for node in 0..self.mts[mt].nodes.len() {
            let (op, phase, done, running, cancelled) = {
                let n = &self.mts[mt].nodes[node];
                (n.op, n.net_phase, n.done(), n.running(), n.cancelled())
            };
            if let MonoOp::NetFetch { .. } = op {
                if done || phase != NetPhase::Waiting {
                    group_admitted = true;
                }
            }
            // Discarded I/O: every byte-moving monotask this attempt started
            // (finished or in flight) is thrown away. Cancelled speculation
            // losers already charged theirs.
            if self.faults_on
                && !cancelled
                && (done || running)
                && !matches!(op, MonoOp::Compute { .. })
            {
                self.rt.jobs[ji].recovery.wasted_bytes += op.bytes();
            }
            if done {
                continue;
            }
            self.remove_stream(mt, node);
        }
        if home_alive {
            if group_admitted && self.mts[mt].fetches_outstanding > 0 {
                self.machines[machine].sched.finish_net_group();
            }
            let held = self.mts[mt].buffered;
            if held != 0.0 {
                self.adjust_buffered(machine, -held);
            }
            self.machines[machine].assigned -= 1;
        }
        self.mts[mt].buffered = 0.0;
        let key = self.mts[mt].key;
        let ji = key.job.0 as usize;
        self.rt.jobs[ji].recovery.wasted_work_seconds +=
            self.now.since(self.mts[mt].start).as_secs_f64();
        self.rt.requeue_task(
            ji,
            key.stage.0 as usize,
            key.task.0 as usize,
            self.mts[mt].recompute,
        )
    }

    /// Opens a batched-update scope on every allocator (machines + fabric).
    fn begin_update_all(&mut self) {
        for m in self.machines.iter_mut() {
            m.fluid.begin_update();
        }
        if let Some(fabric) = &mut self.fabric {
            fabric.begin_update();
        }
    }

    /// Commits every allocator's batch, reallocating the dirty ones once.
    fn commit_all(&mut self, now: SimTime) {
        for m in self.machines.iter_mut() {
            m.fluid.commit(now);
        }
        if let Some(fabric) = &mut self.fabric {
            fabric.commit(now);
        }
    }

    /// Assigns pending multitasks to machines below the concurrency target.
    fn assign_tasks(&mut self) -> bool {
        // One task per machine per sweep, so load spreads evenly and a
        // machine exhausts its *local* tasks before any machine steals them.
        let mut changed = false;
        loop {
            // Nothing pending anywhere: every pick below would scan all
            // stages and return None. The counter is exact (queue pushes and
            // pops mirror it), so this short-circuit is behavior-identical.
            if self.rt.pending_tasks == 0 {
                break;
            }
            let mut assigned_any = false;
            for m in 0..self.n_machines() {
                if !self.rt.schedulable(m) {
                    continue;
                }
                // A machine under memory pressure takes no new multitasks
                // (§3.5: schedulers prioritize by remaining memory); it has
                // work in flight by construction, so this cannot stall it.
                if self.machines[m].assigned < self.target
                    && !(self.machines[m].sched.prefer_writes() && self.machines[m].assigned > 0)
                {
                    if let Some((ji, si, ti)) = self.rt.pick_task(m) {
                        self.start_multitask(m, ji, si, ti);
                        assigned_any = true;
                        changed = true;
                    }
                }
            }
            if !assigned_any {
                break;
            }
        }
        changed
    }

    /// Builds the monotask DAG for one task and enqueues its roots.
    ///
    /// Every task's nodes are stamped from an execution template: a
    /// shuffle-input task reads the stage's captured [`StageTemplate`]
    /// (building it on first use or after invalidation); everything that
    /// varies per task — straggle factors, disk cursors, enqueue order,
    /// stream ids — is stamped at launch. Debug builds check each launch
    /// against [`crate::decompose::decompose`] (see
    /// [`Self::decompose_reference`]).
    fn start_multitask(&mut self, m: usize, ji: usize, si: usize, ti: usize) {
        let t_start = std::time::Instant::now();
        let n_disks = self.machines[m].fluid.spec().disks.len();
        let mut task = self.rt.jobs[ji].spec.stages[si].tasks[ti];
        let mut recompute = false;
        let mut straggle = None;
        if self.faults_on {
            recompute = self.rt.take_recompute(ji, si, ti);
            // A straggler's *first* attempt drags its compute monotask out by
            // `factor`; because the slowdown is pinned to one monotask, the
            // per-resource records attribute it directly (§6.6's clarity win).
            if self.rt.attempts(ji, si, ti) == 0 {
                if let Some(f) = self.faults.straggle_factor(si, ti) {
                    task.cpu.deser *= f;
                    task.cpu.compute *= f;
                    task.cpu.ser *= f;
                    straggle = Some(f);
                }
            }
        }
        let input_disk = match task.input {
            InputSpec::DiskBlock { block, .. } => self.rt.jobs[ji].blocks.disk_of(block),
            _ => 0,
        };
        let write_disk = if n_disks > 0 {
            match self.cfg.write_disk_choice {
                DiskChoice::RoundRobin => {
                    let c = self.machines[m].write_cursor;
                    self.machines[m].write_cursor = c + 1;
                    c % n_disks
                }
                DiskChoice::ShortestQueue => {
                    let (_, disk_qs, _) = self.machines[m].sched.queue_lengths();
                    disk_qs
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, q)| **q)
                        .map(|(d, _)| d)
                        .unwrap_or(0)
                }
            }
        } else {
            0
        };
        if matches!(task.input, InputSpec::ShuffleFetch { .. }) {
            if self.template_valid(ji, si) {
                self.rt.jobs[ji].stages[si].control.template_hits += 1;
            } else {
                self.build_template(ji, si);
            }
        }
        let t_built = std::time::Instant::now();
        #[cfg(debug_assertions)]
        let reference = self.decompose_reference(m, ji, si, &task, input_disk, write_disk);
        let nodes = self.stamp_nodes(m, ji, si, &task, input_disk, write_disk);
        #[cfg(debug_assertions)]
        self.check_stamp(&reference, &nodes);
        let mt_idx = self.mts.len();
        let remaining = nodes.len();
        let input_block = match task.input {
            InputSpec::DiskBlock { block, .. } => Some(block),
            _ => None,
        };
        self.mts.push(MtState {
            key: MultitaskKey {
                job: JobId(ji as u32),
                stage: StageId(si as u32),
                task: TaskId(ti as u32),
            },
            machine: m,
            nodes,
            remaining,
            fetches_outstanding: 0,
            aborted: false,
            start: self.now,
            buffered: 0.0,
            recompute,
            input_block,
            straggle,
        });
        self.machines[m].assigned += 1;
        // Enqueue DAG roots, in node-index order.
        let mut has_fetches = false;
        for node in 0..self.mts[mt_idx].nodes.len() {
            if self.mts[mt_idx].nodes[node].deps_remaining != 0 {
                continue;
            }
            match self.mts[mt_idx].nodes[node].op {
                MonoOp::NetFetch { .. } => {
                    has_fetches = true;
                    self.mts[mt_idx].fetches_outstanding += 1;
                }
                _ => self.enqueue_node(mt_idx, node),
            }
        }
        if has_fetches {
            self.machines[m].sched.enqueue_net_group(mt_idx);
        }
        self.rt.mark_started(ji, si, self.now);
        let run = &mut self.rt.jobs[ji].stages[si];
        run.control.tasks_started += 1;
        run.control.template_build_nanos += (t_built - t_start).as_nanos() as u64;
        run.control.instantiate_nanos += t_built.elapsed().as_nanos() as u64;
    }

    /// Is the captured template for `(job, stage)` still valid — present,
    /// and derived from every producer's current shuffle epoch?
    fn template_valid(&self, ji: usize, si: usize) -> bool {
        let Some(tpl) = &self.templates[ji][si] else {
            return false;
        };
        let deps = &self.rt.jobs[ji].spec.stages[si].deps;
        debug_assert_eq!(tpl.dep_epochs.len(), deps.len());
        deps.iter()
            .zip(&tpl.dep_epochs)
            .all(|(d, &e)| self.rt.jobs[ji].stages[d.0 as usize].shuffle_epoch == e)
    }

    /// The `(job, stage)` sender layout derived from the producers' current
    /// shuffle tables: the control decision every task of the stage shares.
    fn sender_layout(&self, ji: usize, si: usize) -> StageTemplate {
        let n_tasks = self.rt.jobs[ji].spec.stages[si].tasks.len() as f64;
        let mut tpl = StageTemplate::default();
        for d in &self.rt.jobs[ji].spec.stages[si].deps {
            let drun = &self.rt.jobs[ji].stages[d.0 as usize];
            debug_assert!(drun.done, "fetching from unfinished stage");
            tpl.dep_epochs.push(drun.shuffle_epoch);
            let total: f64 = drun.shuffle_by_machine.iter().sum();
            if total <= 0.0 {
                continue;
            }
            let per_task = total / n_tasks;
            let via_disk = !drun.shuffle_in_memory;
            for (s, &bytes) in drun.shuffle_by_machine.iter().enumerate() {
                let b = per_task * (bytes / total);
                if b <= 0.0 {
                    continue;
                }
                tpl.senders.push(TemplateSender {
                    machine: s,
                    bytes: b,
                    via_disk,
                });
            }
        }
        tpl
    }

    /// Captures (or recaptures) the `(job, stage)` sender layout. Counts a
    /// template miss, plus an invalidation when a stale capture is replaced.
    fn build_template(&mut self, ji: usize, si: usize) {
        let stale = self.templates[ji][si].take().is_some();
        let tpl = self.sender_layout(ji, si);
        let run = &mut self.rt.jobs[ji].stages[si];
        run.control.template_misses += 1;
        run.control.template_invalidations += u64::from(stale);
        if stale {
            self.emit_instant(cluster::InstantKind::TemplateInvalidate {
                job: ji as u32,
                stage: si as u32,
            });
        }
        self.templates[ji][si] = Some(tpl);
    }

    /// Stamps one task's monotask nodes: compute at index 0, input nodes in
    /// template/sender order, the output write last — the node layout and
    /// dependency wiring of [`crate::decompose::decompose`], done
    /// arithmetically instead of via DAG construction. Debug builds assert
    /// the two agree on every launch.
    fn stamp_nodes(
        &mut self,
        m: usize,
        ji: usize,
        si: usize,
        task: &TaskSpec,
        input_disk: usize,
        write_disk: usize,
    ) -> Vec<MonoNode> {
        let now = self.now;
        let blank = |op: MonoOp, purpose: Purpose| MonoNode::new(op, purpose, now);
        let cap = 2 + match task.input {
            InputSpec::ShuffleFetch { .. } => self.templates[ji][si]
                .as_ref()
                .map_or(0, |t| t.senders.len()),
            _ => 1,
        };
        let mut nodes: Vec<MonoNode> = Vec::with_capacity(cap);
        nodes.push(blank(MonoOp::Compute { work: task.cpu }, Purpose::Compute));
        match task.input {
            InputSpec::None | InputSpec::Memory { .. } => {}
            InputSpec::DiskBlock { bytes, .. } => {
                if bytes > 0.0 {
                    nodes.push(blank(
                        MonoOp::DiskRead {
                            machine: m,
                            disk: input_disk,
                            bytes,
                        },
                        Purpose::ReadInput,
                    ));
                }
            }
            InputSpec::ShuffleFetch { .. } => {
                let tpl = self.templates[ji][si]
                    .as_ref()
                    .expect("template ensured before stamping");
                for e in &tpl.senders {
                    // The serve-disk cursor advances once per positive
                    // share, local and in-memory shares included.
                    let nd = self.machines[e.machine].fluid.spec().disks.len().max(1);
                    let c = self.machines[e.machine].serve_cursor;
                    self.machines[e.machine].serve_cursor = c + 1;
                    let disk = c % nd;
                    if e.machine == m {
                        // The local share is read straight from local disk
                        // (or is already in memory: no monotask at all).
                        if e.via_disk {
                            nodes.push(blank(
                                MonoOp::DiskRead {
                                    machine: m,
                                    disk,
                                    bytes: e.bytes,
                                },
                                Purpose::ReadShuffleLocal,
                            ));
                        }
                    } else {
                        nodes.push(blank(
                            MonoOp::NetFetch {
                                from: e.machine,
                                remote_disk: disk,
                                bytes: e.bytes,
                                via_disk: e.via_disk,
                            },
                            Purpose::NetTransfer,
                        ));
                    }
                }
            }
        }
        let n_inputs = nodes.len() - 1;
        let write = match task.output {
            OutputSpec::ShuffleWrite { bytes, in_memory } if !in_memory && bytes > 0.0 => Some((
                MonoOp::DiskWrite {
                    machine: m,
                    disk: write_disk,
                    bytes,
                },
                Purpose::WriteShuffle,
            )),
            OutputSpec::DiskWrite { bytes } if bytes > 0.0 => Some((
                MonoOp::DiskWrite {
                    machine: m,
                    disk: write_disk,
                    bytes,
                },
                Purpose::WriteOutput,
            )),
            _ => None,
        };
        if let Some((op, purpose)) = write {
            let w = nodes.len();
            nodes.push(blank(op, purpose));
            nodes[w].deps_remaining = 1;
            nodes[0].dependent = Some(w as u32);
        }
        nodes[0].deps_remaining = u32::try_from(n_inputs).expect("node count fits 32 bits");
        for node in nodes.iter_mut().take(n_inputs + 1).skip(1) {
            node.dependent = Some(0);
        }
        nodes
    }

    /// Debug-build reference for execution templates, kept the way
    /// `slowcheck` keeps the quadratic allocators. Re-derives the stage's
    /// sender layout from the live shuffle tables and asserts the cached
    /// template still equals it (epoch invalidation missed nothing), then
    /// expands the task through [`crate::decompose::decompose`] with the
    /// serve disks the per-machine cursors hand out. Reads the cursors
    /// without advancing them: the result carries the values stamping must
    /// leave behind.
    #[cfg(debug_assertions)]
    fn decompose_reference(
        &self,
        m: usize,
        ji: usize,
        si: usize,
        task: &TaskSpec,
        input_disk: usize,
        write_disk: usize,
    ) -> (MonotaskDag, FxHashMap<usize, usize>) {
        let mut ctx = DecomposeCtx {
            machine: m,
            input_disk,
            write_disk,
            senders: Vec::new(),
        };
        let mut cursors = FxHashMap::default();
        if let InputSpec::ShuffleFetch { .. } = task.input {
            let layout = self.sender_layout(ji, si);
            let cached = self.templates[ji][si].as_ref();
            assert!(
                cached.is_some_and(|t| *t == layout),
                "stale execution template for job {ji} stage {si}: {cached:?} vs {layout:?}"
            );
            for e in &layout.senders {
                let cursor = cursors
                    .entry(e.machine)
                    .or_insert(self.machines[e.machine].serve_cursor);
                let nd = self.machines[e.machine].fluid.spec().disks.len().max(1);
                ctx.senders.push(SenderShare {
                    machine: e.machine,
                    disk: *cursor % nd,
                    bytes: e.bytes,
                    via_disk: e.via_disk,
                });
                *cursor += 1;
            }
        }
        (decompose(task, &ctx), cursors)
    }

    /// Asserts stamped `nodes` match the [`Self::decompose_reference`]
    /// expansion node for node, and that stamping advanced the serve cursors
    /// exactly as the reference did.
    #[cfg(debug_assertions)]
    fn check_stamp(
        &self,
        (dag, cursors): &(MonotaskDag, FxHashMap<usize, usize>),
        nodes: &[MonoNode],
    ) {
        assert_eq!(nodes.len(), dag.nodes.len(), "stamped node count");
        for (i, (n, r)) in nodes.iter().zip(&dag.nodes).enumerate() {
            assert!(
                n.op == r.op
                    && n.purpose == r.purpose
                    && n.deps_remaining as usize == r.deps_remaining
                    && n.dependent.map(|d| d as usize) == r.dependents.first().copied()
                    && r.dependents.len() <= 1,
                "stamped node {i} diverges from decompose(): {n:?} vs {r:?}"
            );
        }
        for (&s, &c) in cursors {
            assert_eq!(self.machines[s].serve_cursor, c, "serve cursor of {s}");
        }
    }

    /// Queues a ready non-fetch monotask on its resource scheduler.
    fn enqueue_node(&mut self, mt: usize, node: usize) {
        self.mts[mt].nodes[node].queued = self.now;
        let machine = self.mts[mt].machine;
        match self.mts[mt].nodes[node].op {
            MonoOp::Compute { .. } => self.machines[machine].sched.enqueue_cpu((mt, node)),
            MonoOp::DiskRead { disk, .. } => {
                self.machines[machine]
                    .sched
                    .enqueue_disk(disk, (mt, node), false)
            }
            MonoOp::DiskWrite { disk, .. } => {
                self.machines[machine]
                    .sched
                    .enqueue_disk(disk, (mt, node), true)
            }
            MonoOp::NetFetch { .. } => unreachable!("fetches are admitted as groups"),
        }
    }

    /// Admits queued monotasks wherever slots are free. Returns whether any
    /// state changed.
    fn dispatch_all(&mut self) -> bool {
        let mut changed = false;
        for m in 0..self.n_machines() {
            if !self.rt.alive[m] {
                // Every entry a dead machine's queues hold belongs to an
                // aborted multitask (its own, or a serve read for a fetch
                // from it); nothing may be admitted.
                continue;
            }
            while let Some((mt, node)) = self.machines[m].sched.pop_cpu() {
                if self.mts[mt].aborted || self.mts[mt].nodes[node].cancelled() {
                    // Stale entry of a crash-aborted multitask or a cancelled
                    // speculation loser: drop it and give back the slot the
                    // pop took.
                    self.machines[m].sched.finish_cpu();
                    changed = true;
                    continue;
                }
                self.start_cpu(m, mt, node);
                changed = true;
            }
            for d in 0..self.machines[m].sched.n_disks() {
                loop {
                    let popped = if self.machines[m].sched.prefer_writes() {
                        // Under §3.5 memory pressure, admit reads only when
                        // the machine is otherwise idle (progress guarantee).
                        let idle = self.machines[m].fluid.active_streams() == 0;
                        self.machines[m].sched.pop_disk_pressured(d, idle)
                    } else {
                        self.machines[m].sched.pop_disk(d)
                    };
                    let Some((mt, node)) = popped else { break };
                    if self.mts[mt].aborted || self.mts[mt].nodes[node].cancelled() {
                        let was_write =
                            matches!(self.mts[mt].nodes[node].op, MonoOp::DiskWrite { .. });
                        self.machines[m].sched.finish_disk(d, was_write);
                        changed = true;
                        continue;
                    }
                    self.start_disk(m, d, mt, node);
                    changed = true;
                }
            }
            while let Some(mt) = self.machines[m].sched.pop_net_group() {
                if self.mts[mt].aborted {
                    self.machines[m].sched.finish_net_group();
                    changed = true;
                    continue;
                }
                self.start_fetch_group(mt);
                changed = true;
            }
        }
        changed
    }

    fn start_cpu(&mut self, machine: usize, mt: usize, node: usize) {
        let work = match self.mts[mt].nodes[node].op {
            MonoOp::Compute { work } => work,
            ref op => panic!("CPU scheduler admitted non-compute monotask {op:?}"),
        };
        self.mts[mt].nodes[node].started = self.now;
        self.mts[mt].nodes[node].set(RUNNING, true);
        let n_disks = self.machines[machine].fluid.spec().disks.len();
        self.machines[machine].fluid.insert(
            self.now,
            stream_id(mt, node),
            StreamDemand::cpu_only(work.total().max(1e-9), n_disks),
        );
    }

    fn start_disk(&mut self, machine: usize, disk: usize, mt: usize, node: usize) {
        let n_disks = self.machines[machine].fluid.spec().disks.len();
        let (bytes, is_write) = match self.mts[mt].nodes[node].op {
            MonoOp::DiskRead { bytes, .. } => {
                self.mts[mt].nodes[node].started = self.now;
                // Reserve the read buffer up front: the memory is committed
                // the moment the monotask is admitted (§3.5 accounting).
                // Speculative copies skip the reservation — their original
                // already holds the buffer, and only one result is kept.
                if !self.mts[mt].nodes[node].is_copy() {
                    self.adjust_buffered(machine, bytes);
                    self.mts[mt].buffered += bytes;
                }
                (bytes, false)
            }
            MonoOp::DiskWrite { bytes, .. } => {
                self.mts[mt].nodes[node].started = self.now;
                (bytes, true)
            }
            MonoOp::NetFetch { bytes, .. } => {
                // The remote serve read on the sender's disk.
                debug_assert_eq!(self.mts[mt].nodes[node].net_phase, NetPhase::RemoteRead);
                self.mts[mt].nodes[node].serve_started = self.now;
                (bytes, false)
            }
            MonoOp::Compute { .. } => panic!("disk scheduler admitted a compute monotask"),
        };
        self.mts[mt].nodes[node].set(RUNNING, true);
        let demand = if is_write {
            StreamDemand::disk_write_only(cluster::DiskId(disk), bytes.max(1e-9), n_disks)
        } else {
            StreamDemand::disk_read_only(cluster::DiskId(disk), bytes.max(1e-9), n_disks)
        };
        self.machines[machine]
            .fluid
            .insert(self.now, stream_id(mt, node), demand);
    }

    /// The receiver's network scheduler admitted multitask `mt`'s fetches.
    fn start_fetch_group(&mut self, mt: usize) {
        let fetch_nodes: Vec<usize> = self.mts[mt]
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, MonoOp::NetFetch { .. }))
            .map(|(i, _)| i)
            .collect();
        debug_assert!(!fetch_nodes.is_empty());
        // Reserve the whole group's receive buffers at admission (§3.5).
        let group_bytes: f64 = fetch_nodes
            .iter()
            .map(|n| self.mts[mt].nodes[*n].op.bytes())
            .sum();
        let machine = self.mts[mt].machine;
        self.adjust_buffered(machine, group_bytes);
        self.mts[mt].buffered += group_bytes;
        for node in fetch_nodes {
            match self.mts[mt].nodes[node].op {
                MonoOp::NetFetch {
                    from,
                    remote_disk,
                    via_disk,
                    ..
                } => {
                    if via_disk {
                        self.mts[mt].nodes[node].net_phase = NetPhase::RemoteRead;
                        self.mts[mt].nodes[node].serve_queued = self.now;
                        self.machines[from]
                            .sched
                            .enqueue_disk(remote_disk, (mt, node), false);
                    } else {
                        self.start_transfer(mt, node);
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    /// Begins the receive stream of a fetch (after any remote read): an
    /// rx-only fluid stream on the receiver, or a sender+receiver flow on
    /// the max-min fabric in full-duplex mode.
    fn start_transfer(&mut self, mt: usize, node: usize) {
        let bytes = self.mts[mt].nodes[node].op.bytes();
        self.mts[mt].nodes[node].net_phase = NetPhase::Transfer;
        self.mts[mt].nodes[node].started = self.now;
        self.mts[mt].nodes[node].set(RUNNING, true);
        let machine = self.mts[mt].machine;
        let from = match self.mts[mt].nodes[node].op {
            MonoOp::NetFetch { from, .. } => from,
            _ => unreachable!("transfer on non-fetch node"),
        };
        if self.rt.partitions_on() && self.rt.is_cut(from, machine) {
            // Starting straight into a cut pair: begin the stall clock now.
            // Fabric transfers still enter the allocator (their class runs at
            // rate 0 until heal); per-machine transfers park outright.
            self.mark_stalled(mt, node);
            if self.fabric.is_none() {
                self.cold_mut(mt, node).parked_bytes = Some(bytes.max(1e-9));
                return;
            }
        }
        if let Some(fabric) = &mut self.fabric {
            fabric.insert(
                self.now,
                FlowId(stream_id(mt, node).0),
                from,
                machine,
                bytes.max(1e-9),
            );
            return;
        }
        let n_disks = self.machines[machine].fluid.spec().disks.len();
        self.machines[machine].fluid.insert(
            self.now,
            stream_id(mt, node),
            StreamDemand::rx_only(bytes.max(1e-9), n_disks),
        );
    }

    /// A fluid stream finished: route by monotask kind and phase.
    fn on_stream_done(&mut self, mt: usize, node: usize) {
        if self.mts[mt].nodes[node].cancelled() {
            // Lost a speculation race but drained in the same event batch:
            // the winner's teardown saw it still in the allocator's completed
            // list and left its scheduler slot for this handler to release.
            self.release_drained_loser(mt, node);
            return;
        }
        if self.mts[mt].nodes[node].is_copy() {
            self.copy_finished(mt, node);
            return;
        }
        let op = self.mts[mt].nodes[node].op;
        self.mts[mt].nodes[node].set(RUNNING, false);
        match op {
            MonoOp::Compute { work } => {
                let machine = self.mts[mt].machine;
                self.machines[machine].sched.finish_cpu();
                let delta = self.compute_buffer_delta(mt);
                self.adjust_buffered(machine, delta);
                self.mts[mt].buffered += delta;
                self.emit(mt, node, machine, ResourceKind::Cpu, 0.0, Some(work));
                if self.spec_on {
                    self.push_sample(mt, node);
                }
                self.complete_node(mt, node);
            }
            MonoOp::DiskRead {
                machine,
                disk,
                bytes,
            } => {
                self.machines[machine].sched.finish_disk(disk, false);
                self.emit(mt, node, machine, ResourceKind::Disk, bytes, None);
                if self.spec_on {
                    self.push_sample(mt, node);
                }
                self.complete_node(mt, node);
            }
            MonoOp::DiskWrite {
                machine,
                disk,
                bytes,
            } => {
                self.machines[machine].sched.finish_disk(disk, true);
                self.adjust_buffered(machine, -bytes);
                self.mts[mt].buffered -= bytes;
                self.emit(mt, node, machine, ResourceKind::Disk, bytes, None);
                self.complete_node(mt, node);
            }
            MonoOp::NetFetch {
                from,
                remote_disk,
                bytes,
                ..
            } => match self.mts[mt].nodes[node].net_phase {
                NetPhase::RemoteRead => {
                    self.machines[from].sched.finish_disk(remote_disk, false);
                    // Emit the serve read as its own record on the sender.
                    let n = &self.mts[mt].nodes[node];
                    self.records.push(MonotaskRecord {
                        multitask: self.mts[mt].key,
                        machine: from,
                        resource: ResourceKind::Disk,
                        purpose: Purpose::ReadShuffleServe,
                        queued: n.serve_queued,
                        started: n.serve_started,
                        ended: self.now,
                        bytes,
                        cpu: None,
                    });
                    self.start_transfer(mt, node);
                }
                NetPhase::Transfer => {
                    let machine = self.mts[mt].machine;
                    self.emit(mt, node, machine, ResourceKind::Network, bytes, None);
                    self.mts[mt].fetches_outstanding -= 1;
                    if self.mts[mt].fetches_outstanding == 0 {
                        self.machines[machine].sched.finish_net_group();
                    }
                    if self.spec_on {
                        self.push_sample(mt, node);
                    }
                    self.complete_node(mt, node);
                }
                NetPhase::Waiting => panic!("fetch completed while waiting"),
            },
        }
    }

    /// Records one completed monotask's service duration into its
    /// `(job, stage, purpose)` population — the data the straggler threshold
    /// is derived from.
    fn push_sample(&mut self, mt: usize, node: usize) {
        let n = &self.mts[mt].nodes[node];
        let anchor = match n.op {
            // A via-disk fetch's service spans the sender-side serve chain
            // plus the transfer; anchoring at the serve enqueue matches the
            // elapsed-time anchor eligibility uses.
            MonoOp::NetFetch { via_disk: true, .. } => n.serve_queued,
            _ => n.started,
        };
        let d = self.now.since(anchor).as_secs_f64();
        let key = (self.mts[mt].key.job.0, self.mts[mt].key.stage.0, n.purpose);
        self.durations.entry(key).or_default().push(d);
    }

    /// One sweep of the monotask-level speculation policy (§6.6 applied to
    /// mitigation): for every in-flight original whose service time has
    /// dragged past `multiplier × median` of its stage/purpose population,
    /// re-dispatch *only that monotask* against an alternate resource.
    /// Returns whether any copy was launched (so the dispatch fixpoint runs
    /// another pass to admit it).
    fn check_speculation(&mut self) -> bool {
        let mult = self
            .cfg
            .mono_speculation_multiplier
            .expect("check_speculation called with speculation off");
        let min_rt = self.cfg.mono_speculation_min_runtime.unwrap_or(0.0);
        let mut changed = false;
        for mt in 0..self.mts.len() {
            if self.mts[mt].aborted || self.mts[mt].remaining == 0 {
                continue;
            }
            for node in 0..self.mts[mt].nodes.len() {
                let n = &self.mts[mt].nodes[node];
                if n.done()
                    || n.cancelled()
                    || n.is_copy()
                    || self.cold(mt, node).is_some_and(|c| c.copy.is_some())
                {
                    continue;
                }
                let anchor = match n.op {
                    // CPU and disk originals must be in service: queueing
                    // delay is contention, which the per-resource schedulers
                    // already make visible, not a straggler.
                    MonoOp::Compute { .. } | MonoOp::DiskRead { .. } => {
                        if !n.running() {
                            continue;
                        }
                        n.started
                    }
                    // Writes are never speculated: there is no second copy of
                    // the data to write *from*, and write placement is
                    // already load-balanced across disks.
                    MonoOp::DiskWrite { .. } => continue,
                    MonoOp::NetFetch { via_disk, .. } => {
                        if n.net_phase == NetPhase::Waiting {
                            continue;
                        }
                        // An in-memory-shuffle fetch has exactly one source
                        // and an identical re-request would share the same
                        // ports; nothing to re-dispatch against.
                        if !via_disk {
                            continue;
                        }
                        // Anchored at the serve enqueue: a pile-up on a
                        // degraded serve disk is exactly the straggle a
                        // replica serve disk beats.
                        n.serve_queued
                    }
                };
                let key = (self.mts[mt].key.job.0, self.mts[mt].key.stage.0, n.purpose);
                let (med, enough) = match self.durations.get(&key) {
                    Some(samples) => {
                        let total = self.rt.jobs[key.0 as usize].stages[key.1 as usize].total;
                        (
                            median(samples),
                            samples.len() >= 2 && samples.len() * 2 >= total,
                        )
                    }
                    None => (0.0, false),
                };
                if !enough || med <= 0.0 {
                    continue;
                }
                let threshold = (mult * med).max(min_rt);
                let elapsed = self.now.since(anchor).as_secs_f64();
                if elapsed > threshold {
                    changed |= self.launch_copy(mt, node);
                } else {
                    // Not over the line yet: schedule a deterministic wake-up
                    // at the projected crossing so the straggler is caught
                    // even if no completion event lands near it.
                    let mut at = anchor + SimDuration::from_secs_f64(threshold);
                    if at <= self.now {
                        at = SimTime(self.now.0 + 1);
                    }
                    let c = self.cold_mut(mt, node);
                    if c.spec_wake_at != Some(at) {
                        c.spec_wake_at = Some(at);
                        self.spec_timers.schedule(at, ());
                    }
                }
            }
        }
        changed
    }

    /// Launches the single-resource speculative copy for `node`, if an
    /// alternate placement exists. The copy shares the multitask's DAG slot
    /// (`copy_of` back-pointer) but has no dependents and never touches
    /// `remaining`: whichever of the pair finishes first completes the
    /// original's DAG node.
    fn launch_copy(&mut self, mt: usize, node: usize) -> bool {
        let home = self.mts[mt].machine;
        let orig_op = self.mts[mt].nodes[node].op;
        let purpose = self.mts[mt].nodes[node].purpose;
        // Where the copy runs: its op, its net phase, and the disk queue (on
        // `enqueue_on.0`) or CPU queue it enters.
        let (copy_op, is_fetch_copy, enqueue_on) = match orig_op {
            MonoOp::Compute { work } => {
                // Duplicate the compute on this machine's CPU scheduler. The
                // copy runs clean: the straggle factor models a degraded
                // *attempt* (JIT pause, bad core), not degraded data.
                let mut clean = work;
                if let Some(f) = self.mts[mt].straggle {
                    clean.deser /= f;
                    clean.compute /= f;
                    clean.ser /= f;
                }
                (MonoOp::Compute { work: clean }, false, None)
            }
            MonoOp::DiskRead { disk, bytes, .. } => match purpose {
                Purpose::ReadInput => {
                    // HDFS replica lookup: prefer another local disk, else
                    // fetch the block from an alive replica machine's disk.
                    let Some(block) = self.mts[mt].input_block else {
                        return false;
                    };
                    let replicas: Vec<(usize, usize)> = self.rt.jobs
                        [self.mts[mt].key.job.0 as usize]
                        .blocks
                        .extra_replicas(block)
                        .to_vec();
                    let local = replicas
                        .iter()
                        .find(|(m, d)| *m == home && *d != disk)
                        .copied();
                    if let Some((_, alt)) = local {
                        (
                            MonoOp::DiskRead {
                                machine: home,
                                disk: alt,
                                bytes,
                            },
                            false,
                            Some((home, alt)),
                        )
                    } else if let Some((rm, rd)) = replicas
                        .iter()
                        .find(|(m, _)| *m != home && self.rt.alive[*m])
                        .copied()
                    {
                        (
                            MonoOp::NetFetch {
                                from: rm,
                                remote_disk: rd,
                                bytes,
                                via_disk: true,
                            },
                            true,
                            Some((rm, rd)),
                        )
                    } else {
                        return false;
                    }
                }
                Purpose::ReadShuffleLocal => {
                    // The local shuffle share was written round-robin across
                    // disks; a re-read from the next disk models reading the
                    // co-located duplicate spill.
                    let nd = self.machines[home].sched.n_disks();
                    if nd < 2 {
                        return false;
                    }
                    let alt = (disk + 1) % nd;
                    (
                        MonoOp::DiskRead {
                            machine: home,
                            disk: alt,
                            bytes,
                        },
                        false,
                        Some((home, alt)),
                    )
                }
                _ => return false,
            },
            MonoOp::NetFetch {
                from,
                remote_disk,
                bytes,
                via_disk: true,
            } => {
                // Re-request the share from the same sender via its next
                // serve disk (the serve-disk cursor is round-robin, so any
                // disk can serve any share).
                if !self.rt.alive[from] {
                    return false;
                }
                let nd = self.machines[from].sched.n_disks();
                if nd < 2 {
                    return false;
                }
                let alt = (remote_disk + 1) % nd;
                (
                    MonoOp::NetFetch {
                        from,
                        remote_disk: alt,
                        bytes,
                        via_disk: true,
                    },
                    true,
                    Some((from, alt)),
                )
            }
            _ => return false,
        };
        if self.rt.partitions_on() {
            // Never speculate across a cut pair: the copy would stall too.
            if let MonoOp::NetFetch { from, .. } = copy_op {
                if self.rt.is_cut(from, home) {
                    return false;
                }
            }
        }
        let idx = self.mts[mt].nodes.len();
        self.mts[mt].nodes.push(MonoNode {
            net_phase: if is_fetch_copy {
                NetPhase::RemoteRead
            } else {
                NetPhase::Waiting
            },
            flags: COPY,
            ..MonoNode::new(copy_op, purpose, self.now)
        });
        self.cold_mut(mt, idx).copy_of = Some(node);
        self.cold_mut(mt, node).copy = Some(idx);
        let key = self.mts[mt].key;
        let ji = key.job.0 as usize;
        self.rt.jobs[ji].recovery.mono_copies[res_index(&orig_op)] += 1;
        self.emit_instant(cluster::InstantKind::MonoCopy {
            job: key.job.0,
            stage: key.stage.0,
            task: key.task.0,
            resource: res_index(&orig_op),
        });
        match copy_op {
            MonoOp::Compute { .. } => self.machines[home].sched.enqueue_cpu((mt, idx)),
            _ => {
                let (m, d) = enqueue_on.expect("non-compute copies carry a disk target");
                self.machines[m].sched.enqueue_disk(d, (mt, idx), false);
            }
        }
        true
    }

    /// A speculative copy's stream finished. Either its internal serve-read
    /// segment (chain to the transfer) or the copy itself — in which case it
    /// wins: it completes the original's DAG node and the original is torn
    /// down.
    fn copy_finished(&mut self, mt: usize, copy: usize) {
        let orig = self
            .cold(mt, copy)
            .and_then(|c| c.copy_of)
            .expect("copy_finished on an original");
        let copy_op = self.mts[mt].nodes[copy].op;
        if let MonoOp::NetFetch {
            from, remote_disk, ..
        } = copy_op
        {
            if self.mts[mt].nodes[copy].net_phase == NetPhase::RemoteRead {
                // Serve read done on the replica/alternate disk; no serve
                // record is emitted for copies (the winner pair emits one
                // record, below).
                self.machines[from].sched.finish_disk(remote_disk, false);
                self.start_transfer(mt, copy);
                return;
            }
        }
        // The copy beat its original (had the original finished first, this
        // node would have been cancelled). Release the copy's slot …
        let home = self.mts[mt].machine;
        match copy_op {
            MonoOp::Compute { .. } => self.machines[home].sched.finish_cpu(),
            MonoOp::DiskRead { disk, .. } => self.machines[home].sched.finish_disk(disk, false),
            // A fetch copy's transfer holds no slot of its own; the fetch
            // *group* slot is settled against the original below.
            MonoOp::NetFetch { .. } => {}
            MonoOp::DiskWrite { .. } => unreachable!("writes are never speculated"),
        }
        self.mts[mt].nodes[copy].set(DONE, true);
        self.mts[mt].nodes[copy].set(RUNNING, false);
        let key = self.mts[mt].key;
        let ji = key.job.0 as usize;
        let win_res = res_index(&self.mts[mt].nodes[orig].op);
        self.rt.jobs[ji].recovery.mono_copy_wins[win_res] += 1;
        self.emit_instant(cluster::InstantKind::MonoCopyWin {
            job: key.job.0,
            stage: key.stage.0,
            task: key.task.0,
            resource: win_res,
        });
        self.push_sample(mt, copy);
        // … then perform, exactly once for the pair, the completion
        // bookkeeping the original would have done.
        match self.mts[mt].nodes[orig].op {
            MonoOp::Compute { work } => {
                let delta = self.compute_buffer_delta(mt);
                self.adjust_buffered(home, delta);
                self.mts[mt].buffered += delta;
                self.emit(mt, copy, home, ResourceKind::Cpu, 0.0, Some(work));
            }
            MonoOp::DiskRead { bytes, .. } => {
                let (res, m) = match copy_op {
                    // Replica fetched over the network: record it as such.
                    MonoOp::NetFetch { .. } => (ResourceKind::Network, home),
                    _ => (ResourceKind::Disk, home),
                };
                self.emit(mt, copy, m, res, bytes, None);
            }
            MonoOp::NetFetch { bytes, .. } => {
                self.emit(mt, copy, home, ResourceKind::Network, bytes, None);
                self.mts[mt].fetches_outstanding -= 1;
                if self.mts[mt].fetches_outstanding == 0 {
                    self.machines[home].sched.finish_net_group();
                }
            }
            MonoOp::DiskWrite { .. } => unreachable!("writes are never speculated"),
        }
        // Tear down the losing original and complete its DAG node.
        self.cancel_node(mt, orig);
        self.complete_node(mt, orig);
    }

    /// Deterministically cancels a racing monotask (the loser of a
    /// first-finisher-wins pair, or a copy whose replica source died). Queued
    /// losers cost nothing — their stale queue entry is skipped at pop time.
    /// In-flight losers have their stream torn down, their scheduler slot
    /// returned, and their elapsed service plus full requested I/O bytes
    /// charged as waste.
    fn cancel_node(&mut self, mt: usize, node: usize) {
        let n = &self.mts[mt].nodes[node];
        if n.done() || n.cancelled() {
            return;
        }
        let op = n.op;
        let phase = n.net_phase;
        let running = n.running();
        let anchor = match (op, phase) {
            (MonoOp::NetFetch { .. }, NetPhase::RemoteRead) => n.serve_started,
            _ => n.started,
        };
        self.mts[mt].nodes[node].set(CANCELLED, true);
        if !running {
            // Never started: nothing to tear down, nothing wasted.
            return;
        }
        // Tear the stream down and return the slot. A miss means the loser
        // drained into the allocator's completed list this same instant — its
        // pending on_stream_done releases the slot via the cancelled branch.
        self.remove_stream(mt, node);
        // Waste: full requested I/O bytes once service started (the same
        // rule the slot-level engine charges), plus the elapsed service time.
        let ji = self.mts[mt].key.job.0 as usize;
        self.rt.jobs[ji].recovery.wasted_work_seconds += self.now.since(anchor).as_secs_f64();
        if !matches!(op, MonoOp::Compute { .. }) {
            self.rt.jobs[ji].recovery.wasted_bytes += op.bytes();
        }
    }

    /// A cancelled loser whose stream had already drained into the completed
    /// list when the winner tore things down: release its scheduler slot
    /// here. Waste was charged at cancellation.
    fn release_drained_loser(&mut self, mt: usize, node: usize) {
        self.mts[mt].nodes[node].set(RUNNING, false);
        self.release_slot(mt, node);
    }

    /// Removes node `(mt, node)`'s stream from the allocator holding it —
    /// the sender's disk for a serve read, the fabric or the receiver for a
    /// transfer, the home machine otherwise — and frees the scheduler slot
    /// it held. A dead machine's allocator is a zombie and is left alone; a
    /// miss means the stream never started or already drained.
    fn remove_stream(&mut self, mt: usize, node: usize) {
        let sid = stream_id(mt, node);
        let on = match (
            self.mts[mt].nodes[node].op,
            self.mts[mt].nodes[node].net_phase,
        ) {
            (MonoOp::NetFetch { .. }, NetPhase::Waiting) => return,
            (MonoOp::NetFetch { from, .. }, NetPhase::RemoteRead) => from,
            (MonoOp::NetFetch { .. }, NetPhase::Transfer) if self.fabric.is_some() => {
                if let Some(fabric) = &mut self.fabric {
                    fabric.remove(self.now, FlowId(sid.0));
                }
                return;
            }
            _ => self.mts[mt].machine,
        };
        if self.rt.alive[on] && self.machines[on].fluid.contains(sid) {
            self.machines[on].fluid.remove(self.now, sid);
            self.release_slot(mt, node);
        }
    }

    /// Frees the scheduler slot node `(mt, node)` holds while in service.
    /// Transfers hold none: the fetch group's slot is settled separately.
    fn release_slot(&mut self, mt: usize, node: usize) {
        let home = self.mts[mt].machine;
        let n = &self.mts[mt].nodes[node];
        match (n.op, n.net_phase) {
            (MonoOp::Compute { .. }, _) => self.machines[home].sched.finish_cpu(),
            (MonoOp::DiskRead { disk, .. }, _) => {
                self.machines[home].sched.finish_disk(disk, false)
            }
            (MonoOp::DiskWrite { disk, .. }, _) => {
                self.machines[home].sched.finish_disk(disk, true)
            }
            (
                MonoOp::NetFetch {
                    from, remote_disk, ..
                },
                NetPhase::RemoteRead,
            ) => {
                if self.rt.alive[from] {
                    self.machines[from].sched.finish_disk(remote_disk, false);
                }
            }
            (MonoOp::NetFetch { .. }, _) => {}
        }
    }

    /// Net buffer change when `mt`'s compute finishes: it consumed the input
    /// buffers and produced the serialized output. Speculative copy nodes
    /// are excluded — only one of each racing pair's buffers is real.
    fn compute_buffer_delta(&self, mt: usize) -> f64 {
        let bytes = |f: fn(&MonoOp) -> bool| -> f64 {
            self.mts[mt]
                .nodes
                .iter()
                .filter(|n| !n.is_copy() && f(&n.op))
                .map(|n| n.op.bytes())
                .sum()
        };
        bytes(|op| matches!(op, MonoOp::DiskWrite { .. }))
            - bytes(|op| matches!(op, MonoOp::DiskRead { .. } | MonoOp::NetFetch { .. }))
    }

    /// Adjusts a machine's in-flight buffer accounting and flips the §3.5
    /// memory-pressure mode across its disk queues.
    fn adjust_buffered(&mut self, machine: usize, delta: f64) {
        let Some(limit_frac) = self.cfg.memory_limit_fraction else {
            let mach = &mut self.machines[machine];
            mach.buffered = (mach.buffered + delta).max(0.0);
            mach.peak_buffered = mach.peak_buffered.max(mach.buffered);
            return;
        };
        let limit = limit_frac * self.machines[machine].fluid.spec().memory;
        let mach = &mut self.machines[machine];
        mach.buffered = (mach.buffered + delta).max(0.0);
        mach.peak_buffered = mach.peak_buffered.max(mach.buffered);
        let pressured = mach.buffered > limit;
        mach.sched.set_prefer_writes(pressured);
    }

    fn emit(
        &mut self,
        mt: usize,
        node: usize,
        machine: usize,
        resource: ResourceKind,
        bytes: f64,
        cpu: Option<dataflow::CpuWork>,
    ) {
        let n = &self.mts[mt].nodes[node];
        self.records.push(MonotaskRecord {
            multitask: self.mts[mt].key,
            machine,
            resource,
            purpose: n.purpose,
            queued: n.queued,
            started: n.started,
            ended: self.now,
            bytes,
            cpu,
        });
    }

    /// Marks a monotask done, releases dependents, and finishes the
    /// multitask / stage / job when complete.
    fn complete_node(&mut self, mt: usize, node: usize) {
        debug_assert!(!self.mts[mt].nodes[node].done());
        self.mts[mt].nodes[node].set(DONE, true);
        // Nothing reads a finished node's cold state, nor that of its copy
        // (done or torn down here), so free both: the side table holds only
        // live nodes.
        let cold = if self.cold.is_empty() {
            None
        } else {
            self.cold.remove(&(mt, node))
        };
        if let Some(c) = cold.and_then(|c| c.copy) {
            self.cold.remove(&(mt, c));
            // The original finished first: tear down its still-racing copy.
            if !self.mts[mt].nodes[c].done() && !self.mts[mt].nodes[c].cancelled() {
                self.cancel_node(mt, c);
            }
        }
        if let Some(d) = self.mts[mt].nodes[node].dependent {
            let d = d as usize;
            self.mts[mt].nodes[d].deps_remaining -= 1;
            if self.mts[mt].nodes[d].deps_remaining == 0 {
                debug_assert!(
                    !matches!(self.mts[mt].nodes[d].op, MonoOp::NetFetch { .. }),
                    "fetches must be DAG roots"
                );
                self.enqueue_node(mt, d);
            }
        }
        self.mts[mt].remaining -= 1;
        if self.mts[mt].remaining == 0 {
            self.finish_multitask(mt);
        }
    }

    fn finish_multitask(&mut self, mt: usize) {
        let key = self.mts[mt].key;
        let machine = self.mts[mt].machine;
        self.machines[machine].assigned -= 1;
        let ji = key.job.0 as usize;
        if self.faults_on && self.mts[mt].recompute {
            self.rt.jobs[ji].recovery.recompute_seconds +=
                self.now.since(self.mts[mt].start).as_secs_f64();
        }
        let (si, ti) = (key.stage.0 as usize, key.task.0 as usize);
        self.rt.complete_task(ji, si, ti, machine, self.now);
    }

    fn into_output(self) -> MonoRunOutput {
        debug_assert!(
            self.spec_on || self.rt.partitions_on() || self.cold.capacity() == 0,
            "cold node state written without speculation or partitions"
        );
        let makespan = self.now;
        let mut stats = self.stats;
        for m in &self.machines {
            // Machine-local allocation is attributed to its own phase so the
            // fabric's share of the wall stands out at scale.
            stats.merge(&m.fluid.stats().as_machine_alloc());
        }
        if let Some(fabric) = &self.fabric {
            stats.merge(&fabric.stats());
        }
        let peak_buffered = self.machines.iter().map(|m| m.peak_buffered).collect();
        MonoRunOutput {
            jobs: self.rt.into_reports(&mut stats),
            records: self.records,
            traces: self.traces,
            queue_trace: self.queue_trace,
            peak_buffered,
            makespan,
            stats,
            instants: self.instants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::MachineSpec;
    use dataflow::CostModel;

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

    fn small_cluster() -> ClusterSpec {
        ClusterSpec::new(4, MachineSpec::m2_4xlarge())
    }

    fn sort_job(total_gib: f64, tasks: usize) -> (JobSpec, BlockMap) {
        let total = total_gib * GIB;
        let job = dataflow::JobBuilder::new("sort", CostModel::spark_1_3())
            .read_disk(total, total / 100.0, total / tasks as f64)
            .map(1.0, 1.0, true)
            .shuffle(tasks, false)
            .map(1.0, 1.0, true)
            .write_disk(1.0);
        let blocks = BlockMap::round_robin(tasks, 4, 2);
        (job, blocks)
    }

    #[test]
    fn stream_ids_round_trip_past_16_bit_node_indices() {
        for (mt, node) in [(0, 0), (5, 70_000), (1 << 20, (1 << 32) - 1)] {
            assert_eq!(decode(stream_id(mt, node)), (mt, node));
        }
        // Ids order by (multitask, node), so fabric flow-id order is the
        // order of the references.
        assert!(stream_id(1, 70_000) < stream_id(2, 0));
        assert!(stream_id(2, 0) < stream_id(2, 70_000));
    }

    #[test]
    fn sort_job_runs_to_completion() {
        let (job, blocks) = sort_job(4.0, 32);
        let out = run(&small_cluster(), &[(job, blocks)], &MonoConfig::default());
        assert_eq!(out.jobs.len(), 1);
        let report = &out.jobs[0];
        assert_eq!(report.stages.len(), 2);
        assert!(report.duration_secs() > 1.0, "{}", report.duration_secs());
        // The reduce stage starts only after the map stage ends (barrier).
        assert!(report.stages[1].start >= report.stages[0].end);
        assert_eq!(out.makespan, report.end);
    }

    #[test]
    fn every_monotask_kind_is_recorded() {
        let (job, blocks) = sort_job(4.0, 32);
        let out = run(&small_cluster(), &[(job, blocks)], &MonoConfig::default());
        let has = |p: Purpose| out.records.iter().any(|r| r.purpose == p);
        assert!(has(Purpose::Compute));
        assert!(has(Purpose::ReadInput));
        assert!(has(Purpose::WriteShuffle));
        assert!(has(Purpose::ReadShuffleLocal));
        assert!(has(Purpose::ReadShuffleServe));
        assert!(has(Purpose::NetTransfer));
        assert!(has(Purpose::WriteOutput));
    }

    #[test]
    fn byte_accounting_is_conserved() {
        let (job, blocks) = sort_job(2.0, 16);
        let spec = job.clone();
        let out = run(&small_cluster(), &[(job, blocks)], &MonoConfig::default());
        let sum = |p: Purpose| -> f64 {
            out.records
                .iter()
                .filter(|r| r.purpose == p)
                .map(|r| r.bytes)
                .sum()
        };
        let input: f64 = spec.stages[0].tasks.iter().map(|t| t.input.bytes()).sum();
        assert!((sum(Purpose::ReadInput) - input).abs() / input < 1e-9);
        let shuffle = spec.stages[0].total_shuffle_write();
        assert!((sum(Purpose::WriteShuffle) - shuffle).abs() / shuffle < 1e-9);
        // Local reads + remote transfers = all shuffle data.
        let read_back = sum(Purpose::ReadShuffleLocal) + sum(Purpose::NetTransfer);
        assert!(
            (read_back - shuffle).abs() / shuffle < 1e-6,
            "{read_back} vs {shuffle}"
        );
        // Serve reads equal remote transfers.
        let served = sum(Purpose::ReadShuffleServe);
        let net = sum(Purpose::NetTransfer);
        assert!((served - net).abs() / shuffle < 1e-9);
    }

    #[test]
    fn records_have_sane_timings() {
        let (job, blocks) = sort_job(2.0, 16);
        let out = run(&small_cluster(), &[(job, blocks)], &MonoConfig::default());
        for r in &out.records {
            assert!(r.queued <= r.started, "{r:?}");
            assert!(r.started < r.ended, "{r:?}");
        }
    }

    #[test]
    fn in_memory_job_uses_no_disk() {
        let total = 2.0 * GIB;
        let job = dataflow::JobBuilder::new("mem", CostModel::spark_1_3())
            .read_memory(total, 1e7, 32, true)
            .map(1.0, 1.0, true)
            .shuffle(32, true)
            .map(1.0, 1.0, true)
            .write_memory();
        let blocks = BlockMap::round_robin(1, 4, 2);
        let out = run(&small_cluster(), &[(job, blocks)], &MonoConfig::default());
        assert!(out.records.iter().all(|r| r.resource != ResourceKind::Disk));
        assert!(out
            .records
            .iter()
            .any(|r| r.resource == ResourceKind::Network));
        // No deserialization CPU in the map stage: input was stored
        // deserialized. (The reduce stage still deserializes shuffle bytes.)
        let map_deser: f64 = out
            .records
            .iter()
            .filter(|r| r.multitask.stage == StageId(0))
            .filter_map(|r| r.cpu)
            .map(|c| c.deser)
            .sum();
        assert_eq!(map_deser, 0.0);
    }

    #[test]
    fn concurrent_jobs_share_the_cluster_and_both_finish() {
        let (a, ba) = sort_job(2.0, 16);
        let (b, bb) = sort_job(2.0, 16);
        let solo = run(
            &small_cluster(),
            &[(a.clone(), ba.clone())],
            &MonoConfig::default(),
        );
        let both = run(
            &small_cluster(),
            &[(a, ba), (b, bb)],
            &MonoConfig::default(),
        );
        assert_eq!(both.jobs.len(), 2);
        // Sharing slows each job down relative to running alone.
        assert!(both.jobs[0].duration_secs() > solo.jobs[0].duration_secs());
        // But the pair finishes in less than 2.5x the solo time (they overlap).
        assert!(both.makespan.as_secs_f64() < 2.5 * solo.makespan.as_secs_f64());
    }

    #[test]
    fn concurrency_override_throttles_parallelism() {
        let (job, blocks) = sort_job(2.0, 32);
        let cfg = MonoConfig {
            concurrency_override: Some(1),
            ..MonoConfig::default()
        };
        let slow = run(&small_cluster(), &[(job.clone(), blocks.clone())], &cfg);
        let fast = run(&small_cluster(), &[(job, blocks)], &MonoConfig::default());
        assert!(
            slow.makespan.as_secs_f64() > 1.5 * fast.makespan.as_secs_f64(),
            "slow={} fast={}",
            slow.makespan.as_secs_f64(),
            fast.makespan.as_secs_f64()
        );
    }

    #[test]
    fn memory_regulation_caps_in_flight_buffers() {
        // A fetch-heavy workload: few large reduce tasks each buffer their
        // whole shuffle fetch before computing, so throttling concurrent
        // fetch groups (§3.5) must lower the peak visibly.
        let total = 6.0 * GIB;
        let job = dataflow::JobBuilder::new("fetchy", CostModel::spark_1_3())
            .read_disk(total, total / 100.0, total / 48.0)
            .map(1.0, 1.0, true)
            .shuffle(16, false)
            .map(1.0, 1.0, true)
            .write_disk(1.0);
        let blocks = BlockMap::round_robin(48, 4, 2);
        let base = run(
            &small_cluster(),
            &[(job.clone(), blocks.clone())],
            &MonoConfig::default(),
        );
        let cfg = MonoConfig {
            memory_limit_fraction: Some(0.005), // ~320 MB watermark
            ..MonoConfig::default()
        };
        let regulated = run(&small_cluster(), &[(job, blocks)], &cfg);
        let peak = |o: &MonoRunOutput| o.peak_buffered.iter().cloned().fold(0.0f64, f64::max);
        assert!(peak(&base) > 0.0);
        // Regulation trims the peak (fetch groups throttled, reads deferred)
        // but cannot eliminate produced-output backlog: computes outpace the
        // disks. The ablation binary shows the full peak to runtime tradeoff.
        assert!(
            peak(&regulated) < 0.85 * peak(&base),
            "regulated {} vs base {}",
            peak(&regulated),
            peak(&base)
        );
        // Both still complete correctly.
        assert_eq!(regulated.jobs[0].stages.len(), 2);
    }

    #[test]
    fn shortest_queue_writes_avoid_the_hot_disk() {
        // All input blocks on disk 0 of each machine: round-robin writes
        // keep hammering the hot disk half the time; shortest-queue writes
        // drain to the idle disk 1.
        let total = 4.0 * GIB;
        let job = dataflow::JobBuilder::new("skew", CostModel::spark_1_3())
            .read_disk(total, total / 10_000.0, total / 64.0)
            .map(1.0, 1.0, false)
            .write_disk(1.0);
        // disks_per_machine = 1 in the placement → every block on disk 0.
        let blocks = BlockMap::round_robin(64, 4, 1);
        let rr = run(
            &small_cluster(),
            &[(job.clone(), blocks.clone())],
            &MonoConfig::default(),
        );
        let cfg = MonoConfig {
            write_disk_choice: DiskChoice::ShortestQueue,
            ..MonoConfig::default()
        };
        let sq = run(&small_cluster(), &[(job, blocks)], &cfg);
        assert!(
            sq.jobs[0].duration_secs() <= rr.jobs[0].duration_secs() * 1.001,
            "shortest-queue {} vs round-robin {}",
            sq.jobs[0].duration_secs(),
            rr.jobs[0].duration_secs()
        );
    }

    #[test]
    fn fifo_job_policy_prioritizes_the_first_job() {
        let (a, ba) = sort_job(2.0, 16);
        let (b, bb) = sort_job(2.0, 16);
        let fair = run(
            &small_cluster(),
            &[(a.clone(), ba.clone()), (b.clone(), bb.clone())],
            &MonoConfig::default(),
        );
        let cfg = MonoConfig {
            job_policy: JobPolicy::Fifo,
            ..MonoConfig::default()
        };
        let fifo = run(&small_cluster(), &[(a, ba), (b, bb)], &cfg);
        assert!(
            fifo.jobs[0].duration_secs() <= fair.jobs[0].duration_secs(),
            "fifo job0 {} vs fair job0 {}",
            fifo.jobs[0].duration_secs(),
            fair.jobs[0].duration_secs()
        );
        // Total work is the same either way (within scheduling noise).
        assert!(
            (fifo.makespan.as_secs_f64() - fair.makespan.as_secs_f64()).abs()
                / fair.makespan.as_secs_f64()
                < 0.25
        );
    }

    #[test]
    fn full_duplex_fabric_matches_rx_model_on_symmetric_shuffles() {
        let (job, blocks) = sort_job(4.0, 32);
        let rx_only = run(
            &small_cluster(),
            &[(job.clone(), blocks.clone())],
            &MonoConfig::default(),
        );
        let cfg = MonoConfig {
            full_duplex_network: true,
            ..MonoConfig::default()
        };
        let duplex = run(&small_cluster(), &[(job, blocks)], &cfg);
        let (a, b) = (
            rx_only.jobs[0].duration_secs(),
            duplex.jobs[0].duration_secs(),
        );
        assert!(
            (a - b).abs() / a < 0.10,
            "symmetric shuffle should not care: rx {a}, duplex {b}"
        );
    }

    #[test]
    fn full_duplex_fabric_sees_the_hot_sender() {
        // One map task (a single cached partition, so it cannot be stolen
        // apart): all shuffle data ends up in one machine's memory, and
        // reducers everywhere fetch from that lone sender, whose transmit
        // link binds. The receiver-only model misses this; the fabric does
        // not.
        let total = 4.0 * GIB;
        let job = dataflow::JobBuilder::new("hot", CostModel::spark_1_3())
            .read_memory(total, total / 10_000.0, 1, true)
            .map(1.0, 1.0, false)
            .shuffle(32, true)
            .map(1.0, 1.0, false)
            .write_memory();
        let blocks = BlockMap::round_robin(1, 1, 2);
        let rx_only = run(
            &small_cluster(),
            &[(job.clone(), blocks.clone())],
            &MonoConfig::default(),
        );
        let cfg = MonoConfig {
            full_duplex_network: true,
            ..MonoConfig::default()
        };
        let duplex = run(&small_cluster(), &[(job, blocks)], &cfg);
        assert!(
            duplex.jobs[0].duration_secs() > 1.2 * rx_only.jobs[0].duration_secs(),
            "hot sender invisible: rx {}, duplex {}",
            rx_only.jobs[0].duration_secs(),
            duplex.jobs[0].duration_secs()
        );
    }

    #[test]
    fn queue_trace_makes_contention_visible() {
        // A disk-bound job must show disk queues building up (§3.1: the
        // design "makes resource contention visible as the queue length").
        let (job, blocks) = sort_job(4.0, 32);
        let out = run(&small_cluster(), &[(job, blocks)], &MonoConfig::default());
        assert!(!out.queue_trace.is_empty());
        let max_disk_q = out
            .queue_trace
            .iter()
            .flat_map(|s| s.disk_queued.iter())
            .cloned()
            .max()
            .unwrap_or(0);
        assert!(max_disk_q >= 1, "no disk queueing observed");
        // Snapshots are time-ordered within each machine.
        for m in 0..4 {
            let times: Vec<_> = out
                .queue_trace
                .iter()
                .filter(|s| s.machine == m)
                .map(|s| s.time)
                .collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
        let busiest = out.queue_trace.iter().map(|s| s.total()).max().unwrap();
        assert!(busiest >= 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let (job, blocks) = sort_job(2.0, 16);
        let a = run(
            &small_cluster(),
            &[(job.clone(), blocks.clone())],
            &MonoConfig::default(),
        );
        let b = run(&small_cluster(), &[(job, blocks)], &MonoConfig::default());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.records.len(), b.records.len());
    }
}
