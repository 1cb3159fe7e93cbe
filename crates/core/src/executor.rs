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
    ClusterSpec, FaultAction, FaultPlan, Hosts, InstantKind, MachineId, ResourceSel, StreamDemand,
    StreamId, TraceSet,
};
use dataflow::driver::{self, Engine};
use dataflow::runtime::{Runtime, RuntimeConfig};
use dataflow::{
    BlockMap, InputSpec, JobId, JobSpec, OutputSpec, RunError, StageId, TaskId, TaskSpec,
};
use simcore::stats::median;
use simcore::{FlowId, FxHashMap, HierFabric, MaxMinPolicy, RackMap};
use simcore::{ResourceKind, SimDuration, SimStats, SimTime};

#[cfg(debug_assertions)]
use crate::decompose::{decompose, DecomposeCtx, SenderShare};
use crate::metrics::{MonotaskRecord, Purpose, QueueTrace, Records};
#[cfg(debug_assertions)]
use crate::monotask::MonotaskDag;
use crate::monotask::{MonoOp, MultitaskKey};
use crate::scheduler::{MachineScheduler, QueuedRef};

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

/// Minimum elapsed service seconds before a monotask may be speculated,
/// whenever [`MonoConfig::mono_speculation_multiplier`] arms speculation:
/// it guards against copy storms on tiny monotasks.
pub const MONO_SPECULATION_MIN_RUNTIME_SECS: f64 = 0.05;

/// Configuration of the monotasks executor. Defaults are the paper's choices;
/// the knobs exist for the ablation benchmarks and the §8 extensions, and
/// each field's doc names the bin or BENCH record that runs it at two
/// settings. The limits no experiment varies are constants:
/// [`driver::MAX_STEPS`], [`MONO_SPECULATION_MIN_RUNTIME_SECS`] and
/// `dataflow::runtime`'s `MAX_TASK_RETRIES`, `FETCH_MAX_RETRIES` and
/// `FETCH_BACKOFF_BASE_SECS`.
#[derive(Clone, Debug)]
pub struct MonoConfig {
    /// Receiver-side limit on concurrently-fetching multitasks (§3.3: 4).
    /// `abl_net_outstanding` sweeps it.
    pub net_outstanding: usize,
    /// Assign one extra multitask beyond the resource slots (§3.4).
    /// `abl_concurrency_plus_one` turns it off.
    pub extra_multitask: bool,
    /// Round-robin disk queues between reads and writes (§3.3).
    /// `abl_round_robin` runs both.
    pub rr_disk_queues: bool,
    /// Override the per-machine multitask concurrency (None = auto).
    /// `abl_concurrency_plus_one` sweeps it against auto.
    pub concurrency_override: Option<usize>,
    /// Override each SSD's scheduler slots (None = the device queue depth).
    /// `abl_ssd_qd` sweeps it.
    pub ssd_slots_override: Option<usize>,
    /// Disk selection for output writes. `abl_disk_choice` runs both.
    pub write_disk_choice: DiskChoice,
    /// §3.5 memory regulation: when a machine's in-flight monotask buffers
    /// exceed this fraction of its RAM, its disk queues prefer writes so
    /// buffered data drains. `None` (the paper's implementation) disables
    /// regulation. `abl_memory_pressure` runs it off and on.
    pub memory_limit_fraction: Option<f64>,
    /// Model the network as a full-duplex max-min fair fabric (sender *and*
    /// receiver links constrain each transfer) instead of receiver-side
    /// bandwidth only. Symmetric all-to-all shuffles behave identically
    /// either way; asymmetric traffic (hot senders) needs the fabric. The
    /// fabric is one `simcore::HierFabric` sharded by the cluster's
    /// [`cluster::RackTopology`]; a cluster without one is a single rack.
    /// `abl_network_model` runs both.
    pub full_duplex_network: bool,
    /// Relative rate tolerance ε for the fabric's approximate allocation
    /// mode (only meaningful with `full_duplex_network`). `0.0` — the
    /// default and the spec — is the exact max-min allocator, bit-identical
    /// to runs predating the knob. With ε > 0 every fabric rate is within
    /// `[exact · (1 − ε), exact]` and port capacity is never exceeded; see
    /// `simcore::MaxMinPolicy`. Without a rack topology ε applies to every
    /// NIC; with one, only to the rack aggregation core, and allocation
    /// within each rack stays exact. `scale_sweep --epsilon 0,0.01`
    /// (BENCH_PR4) runs both.
    pub fabric_epsilon: f64,
    /// Completion-coalescing quantum Δ in seconds for the fabric (only
    /// meaningful with `full_duplex_network`): flow completions due within Δ
    /// of a wave fire together in one reallocation, each at most
    /// `rate · Δ` bytes early. `0.0` (the default) coalesces nothing. Δ
    /// applies where ε does. `scale_sweep --quantum-ms 0,1` (BENCH_PR4)
    /// runs both.
    pub fabric_quantum_secs: f64,
    /// Worker threads for the fabric's per-rack shards (only meaningful when
    /// the cluster has a [`cluster::RackTopology`] of several racks and
    /// `full_duplex_network` is on). `1` — the default — runs every rack on
    /// the simulation thread. Results are bit-identical for any shard count:
    /// each rack collects its own completions, and the sweep appends them in
    /// rack order and sorts them by flow id, so this knob trades wall-clock
    /// only. `scale_sweep --shards 1,2,8` (BENCH_PR9) runs several.
    pub fabric_shards: usize,
    /// Record utilization and queue-length traces (one sample per machine
    /// per event). Figure generation needs them; large-scale benchmarks turn
    /// them off — at hundreds of machines the samples dominate memory and
    /// per-event cost without affecting simulation results. The figure bins
    /// keep them; `scale_sweep` and `fault_sweep` turn them off.
    pub collect_traces: bool,
    /// Monotask-level speculation threshold: a running monotask whose elapsed
    /// service time exceeds `multiplier ×` the median of completed monotasks
    /// of the same `(job, stage, purpose)` gets a single-resource copy — a
    /// slow disk read re-issued on another replica disk, a slow fetch
    /// re-served from a different sender disk, a slow compute duplicated —
    /// with first-finisher-wins and deterministic loser cancellation. Only
    /// monotasks in service for at least
    /// [`MONO_SPECULATION_MIN_RUNTIME_SECS`] qualify. `None` (the default)
    /// disables the machinery entirely. `fault_sweep --matrix` (BENCH_PR5)
    /// runs it off and on.
    pub mono_speculation_multiplier: Option<f64>,
    /// Partition recovery: simulated seconds a fetch may sit at ~zero rate
    /// on a cut fabric pair before the timeout/retry machinery engages.
    /// `None` (the default) disables timeouts entirely — stalled fetches
    /// wait for the partition to heal, and runs without `Partition` events
    /// are bit-identical to builds predating the knob.
    /// `fault_sweep --partitions` (BENCH_PR8) arms it; the other sweeps
    /// leave it `None`.
    pub fetch_timeout_secs: Option<f64>,
    /// Arm the performance-clarity trace layer and name where its
    /// Perfetto-loadable Chrome Trace Event JSON should be written. `Some`
    /// collects one [`cluster::RunInstant`] per fault firing and recovery
    /// decision into [`MonoRunOutput::instants`]; the executor never writes
    /// the file itself: the `mt-trace` crate's `mono_doc` builds the
    /// document and its `write_doc` writes it here (the `trace_export` bench
    /// bin does both). Collection is observation-only: `None` — the
    /// default — collects nothing, and traced runs are `to_bits`-identical
    /// to untraced ones (proptested in `tests/trace_props.rs`).
    /// `trace_export` sets it; every other bin leaves it `None`.
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
            memory_limit_fraction: None,
            full_duplex_network: false,
            fabric_epsilon: 0.0,
            fabric_quantum_secs: 0.0,
            fabric_shards: 1,
            collect_traces: true,
            mono_speculation_multiplier: None,
            fetch_timeout_secs: None,
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
        if let Some(t) = self.fetch_timeout_secs {
            if !(t.is_finite() && t > 0.0) {
                return Err(format!("fetch_timeout_secs {t} must be finite and > 0"));
            }
        }
        Ok(())
    }
}

/// Everything a monotasks run produces.
#[derive(Debug)]
pub struct MonoRunOutput {
    /// Per-job reports (same order as submitted).
    pub jobs: Vec<dataflow::JobReport>,
    /// Every completed monotask, with compute monotasks' CPU splits in a
    /// side column.
    pub records: Records,
    /// Cluster utilization traces.
    pub traces: TraceSet,
    /// Per-machine scheduler queue lengths over time (§3.1's visible
    /// contention), sampled at every simulation step.
    pub queue_trace: QueueTrace,
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

/// Which resource a node's op uses; see [`NodeOp`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpKind {
    Compute,
    DiskRead,
    DiskWrite,
    NetFetch,
}

/// A [`MonoOp`] as the hot node stores it: 16 bytes instead of 32. The
/// compute op's [`dataflow::CpuWork`] lives once on [`MtState`] (node 0 is
/// always the compute node), so [`Exec::op`] rebuilds the full op on demand.
#[derive(Clone, Copy, Debug)]
struct NodeOp {
    /// Bytes moved (0 for compute).
    bytes: f64,
    /// The disk's machine for disk ops, the sender for fetches.
    machine: u32,
    /// The disk for disk ops, the sender's serve disk for fetches.
    disk: u16,
    kind: OpKind,
    via_disk: bool,
}

impl NodeOp {
    /// Packs `op`, checking its machine and disk fit the narrow fields.
    fn pack(op: MonoOp) -> NodeOp {
        let (kind, machine, disk, bytes, via_disk) = match op {
            MonoOp::Compute { .. } => (OpKind::Compute, 0, 0, 0.0, false),
            MonoOp::DiskRead {
                machine,
                disk,
                bytes,
            } => (OpKind::DiskRead, machine, disk, bytes, false),
            MonoOp::DiskWrite {
                machine,
                disk,
                bytes,
            } => (OpKind::DiskWrite, machine, disk, bytes, false),
            MonoOp::NetFetch {
                from,
                remote_disk,
                bytes,
                via_disk,
            } => (OpKind::NetFetch, from, remote_disk, bytes, via_disk),
        };
        NodeOp {
            bytes,
            machine: u32::try_from(machine).expect("machine index fits 32 bits"),
            disk: u16::try_from(disk).expect("disk index fits 16 bits"),
            kind,
            via_disk,
        }
    }

    /// The full op, given the compute work a compute node runs.
    fn unpack(self, work: dataflow::CpuWork) -> MonoOp {
        let (machine, disk, bytes) = (self.machine as usize, self.disk as usize, self.bytes);
        match self.kind {
            OpKind::Compute => MonoOp::Compute { work },
            OpKind::DiskRead => MonoOp::DiskRead {
                machine,
                disk,
                bytes,
            },
            OpKind::DiskWrite => MonoOp::DiskWrite {
                machine,
                disk,
                bytes,
            },
            OpKind::NetFetch => MonoOp::NetFetch {
                from: machine,
                remote_disk: disk,
                bytes,
                via_disk: self.via_disk,
            },
        }
    }

    fn is_fetch(self) -> bool {
        self.kind == OpKind::NetFetch
    }

    /// The sender of a fetch.
    fn fetch_from(self) -> Option<usize> {
        self.is_fetch().then_some(self.machine as usize)
    }
}

/// Per-monotask state the event loop touches on every dispatch and
/// completion. Hot nodes are the one structure allocated per monotask (a
/// shuffle creates maps × reduces of them), so everything only speculation
/// needs lives in [`ColdNode`], and everything the decompose
/// layout implies lives on [`MtState`]: the compute work, a fetch group's
/// admission time, and the DAG edges (inputs feed node 0, and node 0 feeds
/// the write node, see [`Exec::dependent`]).
#[derive(Debug)]
struct MonoNode {
    op: NodeOp,
    queued: SimTime,
    started: SimTime,
    serve_started: SimTime,
    deps_remaining: u32,
    purpose: Purpose,
    net_phase: NetPhase,
    /// `DONE | RUNNING | CANCELLED | COPY` bits.
    flags: u8,
}

// The hot node's size is the per-monotask host cost; keep it in check.
const _: () = assert!(std::mem::size_of::<MonoNode>() <= 48);

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
            op: NodeOp::pack(op),
            queued: now,
            started: now,
            serve_started: now,
            deps_remaining: 0,
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

/// Speculation state of one node, kept in [`Exec::cold`] keyed by
/// `(multitask, node)`. Only speculation writes entries, so runs without it
/// never allocate the table.
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
}

#[derive(Debug)]
struct MtState {
    key: MultitaskKey,
    machine: usize,
    nodes: Vec<MonoNode>,
    /// CPU work of the compute node (node 0), straggle included.
    work: dataflow::CpuWork,
    /// Index of the output write node, if any. Speculative copies are
    /// appended after it.
    write: Option<u32>,
    /// When the receiver admitted the fetch group: the serve chain of every
    /// via-disk fetch starts here.
    serve_queued: SimTime,
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
    /// Every machine's allocator, the fault schedule, the utilization traces
    /// and the instant log.
    hosts: Hosts,
    /// Job/stage state, retries and partition bookkeeping shared with the
    /// Spark-like executor.
    rt: Runtime,
    mts: Vec<MtState>,
    /// Speculation state by `(multitask, node)`; empty (and unallocated)
    /// unless speculation touches a node.
    cold: FxHashMap<(usize, usize), ColdNode>,
    records: Records,
    queue_trace: QueueTrace,
    /// Full-duplex network fabric (when `cfg.full_duplex_network`): max-min
    /// over every NIC, sharded by the cluster's racks (one rack if it
    /// declares none).
    fabric: Option<HierFabric>,
    now: SimTime,
    /// Fabric completion buffer reused across events: the poll runs per
    /// event and must not allocate.
    done_flows: Vec<FlowId>,
    /// Whether monotask-level speculation is active this run. False keeps
    /// every speculation hook off the hot path, so disabled runs are
    /// bit-identical to builds predating the feature.
    spec_on: bool,
    /// Completed service durations per `(job, stage, purpose)` — the
    /// straggler-threshold populations. BTreeMap for deterministic layout.
    durations: BTreeMap<(u32, u32, Purpose), Vec<f64>>,
}

/// Encodes a `(multitask, node)` reference as a fluid stream id: 32 bits
/// each, so ids order by `(mt, node)`. Both indices fit: `start_multitask`
/// checks them once per launch.
fn stream_id(mt: usize, node: usize) -> StreamId {
    StreamId(((mt as u64) << 32) | node as u64)
}

/// A scheduler-queue reference to `(mt, node)`; indices checked at launch.
fn qref(mt: usize, node: usize) -> QueuedRef {
    (mt as u32, node as u32)
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
    cfg.validate().map_err(RunError::InvalidConfig)?;
    let hosts = Hosts::new(cluster, plan, cfg.collect_traces).map_err(RunError::InvalidConfig)?;
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
        trace: cfg.trace_path.is_some(),
        lineage: !plan.is_empty(),
        partitions: plan.has_partitions(),
        fetch_timeout_secs: cfg.fetch_timeout_secs,
    };

    let mut exec = Exec {
        cfg: cfg.clone(),
        target,
        machines,
        hosts,
        rt: Runtime::new(jobs, n_machines, rt_cfg, can_host)?,
        mts: Vec::new(),
        records: Records::default(),
        queue_trace: QueueTrace::new(disk_slots.len()),
        fabric: cfg.full_duplex_network.then(|| {
            let policy = MaxMinPolicy {
                epsilon: cfg.fabric_epsilon,
                quantum: SimDuration::from_secs_f64(cfg.fabric_quantum_secs),
            };
            let nic = cluster.machine.nic;
            // A flat cluster is one rack under the run's policy. With racks,
            // allocation is exact within each rack, and ε/Δ apply to the
            // oversubscribed core where the aggregate super-classes make
            // approximation worthwhile.
            let (map, agg_tx, agg_rx, intra) = match &cluster.topology {
                Some(topo) => (
                    topo.rack_map(n_machines).expect("validated above"),
                    topo.agg_tx,
                    topo.agg_rx,
                    MaxMinPolicy::default(),
                ),
                None => (RackMap::single(n_machines), nic, nic, policy),
            };
            HierFabric::new(
                map,
                nic,
                nic,
                agg_tx,
                agg_rx,
                intra,
                policy,
                cfg.fabric_shards,
            )
        }),
        now: SimTime::ZERO,
        done_flows: Vec::new(),
        spec_on: cfg.mono_speculation_multiplier.is_some(),
        durations: BTreeMap::new(),
        cold: FxHashMap::default(),
    };
    let stats = driver::run(&mut exec)?;
    Ok(exec.into_output(stats))
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

    /// Node `(mt, node)`'s full op. A compute copy runs clean: the straggle
    /// factor models a degraded *attempt* (JIT pause, bad core), not
    /// degraded data, so the copy divides it back out.
    fn op(&self, mt: usize, node: usize) -> MonoOp {
        let (m, n) = (&self.mts[mt], &self.mts[mt].nodes[node]);
        let mut work = m.work;
        if let (OpKind::Compute, true, Some(f)) = (n.op.kind, n.is_copy(), m.straggle) {
            work.deser /= f;
            work.compute /= f;
            work.ser /= f;
        }
        n.op.unpack(work)
    }

    /// The single DAG successor of `(mt, node)`, from the decompose layout:
    /// every input feeds the compute node 0, node 0 feeds the write, and the
    /// write and speculative copies feed nothing.
    fn dependent(&self, mt: usize, node: usize) -> Option<usize> {
        let m = &self.mts[mt];
        if node == 0 {
            m.write.map(|w| w as usize)
        } else if m.nodes[node].is_copy() || m.write == Some(node as u32) {
            None
        } else {
            Some(0)
        }
    }

    /// When `(mt, node)`'s serve chain was queued: its fetch group's
    /// admission, or a copy's launch, which is also the copy's `queued` (a
    /// copy goes straight to its queue, never through `enqueue_node`).
    fn serve_queued(&self, mt: usize, node: usize) -> SimTime {
        let n = &self.mts[mt].nodes[node];
        if n.is_copy() {
            n.queued
        } else {
            self.mts[mt].serve_queued
        }
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
                    if n.is_copy() && !n.done() && !n.cancelled() && n.op.fetch_from() == Some(m) {
                        self.cancel_node(mt, node);
                    }
                }
            }
            let dead_fetch = !on_dead
                && self.mts[mt]
                    .nodes
                    .iter()
                    .any(|n| !n.done() && !n.cancelled() && n.op.fetch_from() == Some(m));
            if on_dead || dead_fetch {
                self.abort_multitask(mt)?;
            }
        }
        self.rt.lose_shuffle_outputs(m, self.now)
    }

    /// Marks fetch `node` of `mt` stalled on a cut pair: starts its stall
    /// clock in the runtime's registry and arms the first timeout expiry
    /// (when timeouts are on).
    fn mark_stalled(&mut self, mt: usize, node: usize) {
        let n = &self.mts[mt].nodes[node];
        debug_assert!(!n.is_copy(), "a copy never fetches across a cut");
        let MultitaskKey { job, stage, task } = self.mts[mt].key;
        let task = (job.0 as usize, stage.0 as usize, task.0 as usize);
        let (from, machine) = (n.op.fetch_from(), self.mts[mt].machine);
        self.rt.arm_stall((mt, node), task, machine, from, self.now);
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
                let n = &self.mts[mt].nodes[node];
                if n.done() || n.cancelled() || n.op.fetch_from() != Some(src) {
                    continue;
                }
                if n.is_copy() {
                    self.cancel_node(mt, node);
                    continue;
                }
                if self.fabric.is_none() {
                    // Only an in-flight transfer has a stream on the
                    // receiver; its allocator parks it with the bytes left.
                    self.hosts[dst].park(self.now, stream_id(mt, node));
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
                if n.done() || n.cancelled() || n.is_copy() || n.op.fetch_from() != Some(src) {
                    continue;
                }
                self.rt.stop_stall((mt, node), self.now);
                self.hosts[dst].unpark(self.now, stream_id(mt, node));
            }
        }
    }

    /// Tears down an in-flight multitask: removes its active streams from
    /// every *surviving* allocator (a dead machine's allocator is a zombie
    /// and is never polled again), frees the scheduler slots those streams
    /// held, releases its buffer accounting, and re-queues the task. Queued
    /// but not-yet-started scheduler entries are skipped lazily at pop time.
    fn abort_multitask(&mut self, mt: usize) -> Result<(), RunError> {
        self.mts[mt].aborted = true;
        // Uncharged: a re-plan has already charged its stalled seconds.
        self.rt.drop_stalls(mt, self.now);
        let machine = self.mts[mt].machine;
        let home_alive = self.rt.alive[machine];
        let ji = self.mts[mt].key.job.0 as usize;
        let mut group_admitted = false;
        for node in 0..self.mts[mt].nodes.len() {
            let (op, phase, done, running, cancelled) = {
                let n = &self.mts[mt].nodes[node];
                (n.op, n.net_phase, n.done(), n.running(), n.cancelled())
            };
            if op.is_fetch() && (done || phase != NetPhase::Waiting) {
                group_admitted = true;
            }
            // Discarded I/O: every byte-moving monotask this attempt started
            // (finished or in flight) is thrown away. Cancelled speculation
            // losers already charged theirs.
            if self.rt.faults_on() && !cancelled && (done || running) && op.kind != OpKind::Compute
            {
                self.rt.jobs[ji].recovery.wasted_bytes += op.bytes;
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
            self.now,
        )
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
    /// shuffle-input task reads the stage's captured
    /// [`dataflow::runtime::StageTemplate`] (the runtime captures it on
    /// first use or after invalidation); everything that varies per task —
    /// straggle factors, disk cursors, enqueue order, stream ids — is
    /// stamped at launch. Debug builds check each launch
    /// against [`crate::decompose::decompose`] (see
    /// [`Self::decompose_reference`]).
    fn start_multitask(&mut self, m: usize, ji: usize, si: usize, ti: usize) {
        let t_start = std::time::Instant::now();
        let n_disks = self.hosts[m].spec().disks.len();
        let mut task = self.rt.jobs[ji].spec.stages[si].tasks[ti];
        let mut recompute = false;
        let mut straggle = None;
        if self.rt.faults_on() {
            recompute = self.rt.take_recompute(ji, si, ti);
            // A straggler's *first* attempt drags its compute monotask out by
            // `factor`; because the slowdown is pinned to one monotask, the
            // per-resource records attribute it directly (§6.6's clarity win).
            if self.rt.attempts(ji, si, ti) == 0 {
                if let Some(f) = self.hosts.straggle_factor(si, ti) {
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
                DiskChoice::ShortestQueue => self.machines[m].sched.shortest_disk_queue(),
            }
        } else {
            0
        };
        if matches!(task.input, InputSpec::ShuffleFetch { .. }) {
            self.rt.capture_template(ji, si);
        }
        let t_built = std::time::Instant::now();
        #[cfg(debug_assertions)]
        let reference = self.decompose_reference(m, ji, si, &task, input_disk, write_disk);
        let (nodes, write) = self.stamp_nodes(m, ji, si, &task, input_disk, write_disk);
        let mt_idx = self.mts.len();
        // Scheduler queues and stream ids carry `(multitask, node)` as two
        // u32s. Check both once here, in release builds too; each node may
        // gain one speculative copy.
        assert!(
            u32::try_from(mt_idx).is_ok() && u32::try_from(2 * nodes.len()).is_ok(),
            "multitask {mt_idx} with {} nodes overflows 32-bit monotask references",
            nodes.len()
        );
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
            work: task.cpu,
            write,
            serve_queued: self.now,
            remaining,
            fetches_outstanding: 0,
            aborted: false,
            start: self.now,
            buffered: 0.0,
            recompute,
            input_block,
            straggle,
        });
        #[cfg(debug_assertions)]
        self.check_stamp(&reference, mt_idx);
        self.machines[m].assigned += 1;
        // Enqueue DAG roots, in node-index order.
        let mut has_fetches = false;
        for node in 0..self.mts[mt_idx].nodes.len() {
            if self.mts[mt_idx].nodes[node].deps_remaining != 0 {
                continue;
            }
            if self.mts[mt_idx].nodes[node].op.is_fetch() {
                has_fetches = true;
                self.mts[mt_idx].fetches_outstanding += 1;
            } else {
                self.enqueue_node(mt_idx, node);
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

    /// Stamps one task's monotask nodes: compute at index 0, input nodes in
    /// template/sender order, the output write last — the node layout of
    /// [`crate::decompose::decompose`], done arithmetically instead of via
    /// DAG construction. Returns the nodes and the write node's index; the
    /// layout implies every edge (see [`Exec::dependent`]). Debug builds
    /// assert the two agree on every launch.
    fn stamp_nodes(
        &mut self,
        m: usize,
        ji: usize,
        si: usize,
        task: &TaskSpec,
        input_disk: usize,
        write_disk: usize,
    ) -> (Vec<MonoNode>, Option<u32>) {
        let now = self.now;
        let blank = |op: MonoOp, purpose: Purpose| MonoNode::new(op, purpose, now);
        let cap = 2 + match task.input {
            InputSpec::ShuffleFetch { .. } => {
                self.rt.template(ji, si).map_or(0, |t| t.senders.len())
            }
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
                let tpl = self
                    .rt
                    .template(ji, si)
                    .expect("template ensured before stamping");
                for e in &tpl.senders {
                    // The serve-disk cursor advances once per positive
                    // share, local and in-memory shares included.
                    let nd = self.hosts[e.machine].spec().disks.len().max(1);
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
        let write = write.map(|(op, purpose)| {
            nodes.push(MonoNode {
                deps_remaining: 1,
                ..blank(op, purpose)
            });
            n_inputs as u32 + 1
        });
        nodes[0].deps_remaining = u32::try_from(n_inputs).expect("node count fits 32 bits");
        (nodes, write)
    }

    /// Debug-build reference for execution templates, kept the way
    /// `slowcheck` keeps the quadratic allocators. Re-derives the stage's
    /// sender layout from the live shuffle tables and asserts the cached
    /// template still equals it (invalidation missed nothing), then
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
            let layout = self.rt.sender_layout(ji, si);
            let cached = self.rt.template(ji, si);
            assert!(
                cached.is_some_and(|t| *t == layout),
                "stale execution template for job {ji} stage {si}: {cached:?} vs {layout:?}"
            );
            for e in &layout.senders {
                let cursor = cursors
                    .entry(e.machine)
                    .or_insert(self.machines[e.machine].serve_cursor);
                let nd = self.hosts[e.machine].spec().disks.len().max(1);
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

    /// Asserts multitask `mt`'s stamped nodes match the
    /// [`Self::decompose_reference`] expansion node for node — ops rebuilt
    /// from the compact form, and edges derived from the layout — and that
    /// stamping advanced the serve cursors exactly as the reference did.
    #[cfg(debug_assertions)]
    fn check_stamp(&self, (dag, cursors): &(MonotaskDag, FxHashMap<usize, usize>), mt: usize) {
        let nodes = &self.mts[mt].nodes;
        assert_eq!(nodes.len(), dag.nodes.len(), "stamped node count");
        for (i, (n, r)) in nodes.iter().zip(&dag.nodes).enumerate() {
            assert!(
                self.op(mt, i) == r.op
                    && n.purpose == r.purpose
                    && n.deps_remaining as usize == r.deps_remaining
                    && self.dependent(mt, i) == r.dependents.first().copied()
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
        match self.op(mt, node) {
            MonoOp::Compute { .. } => self.machines[machine].sched.enqueue_cpu(qref(mt, node)),
            MonoOp::DiskRead { disk, .. } => {
                self.machines[machine]
                    .sched
                    .enqueue_disk(disk, qref(mt, node), false)
            }
            MonoOp::DiskWrite { disk, .. } => {
                self.machines[machine]
                    .sched
                    .enqueue_disk(disk, qref(mt, node), true)
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
                let (mt, node) = (mt as usize, node as usize);
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
                        let idle = self.hosts[m].active_streams() == 0;
                        self.machines[m].sched.pop_disk_pressured(d, idle)
                    } else {
                        self.machines[m].sched.pop_disk(d)
                    };
                    let Some((mt, node)) = popped else { break };
                    let (mt, node) = (mt as usize, node as usize);
                    if self.mts[mt].aborted || self.mts[mt].nodes[node].cancelled() {
                        let was_write = self.mts[mt].nodes[node].op.kind == OpKind::DiskWrite;
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
        let work = match self.op(mt, node) {
            MonoOp::Compute { work } => work,
            ref op => panic!("CPU scheduler admitted non-compute monotask {op:?}"),
        };
        self.mts[mt].nodes[node].started = self.now;
        self.mts[mt].nodes[node].set(RUNNING, true);
        let n_disks = self.hosts[machine].spec().disks.len();
        self.hosts[machine].insert(
            self.now,
            stream_id(mt, node),
            StreamDemand::cpu_only(work.total().max(1e-9), n_disks),
        );
    }

    fn start_disk(&mut self, machine: usize, disk: usize, mt: usize, node: usize) {
        let n_disks = self.hosts[machine].spec().disks.len();
        let (bytes, is_write) = match self.op(mt, node) {
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
        self.hosts[machine].insert(self.now, stream_id(mt, node), demand);
    }

    /// The receiver's network scheduler admitted multitask `mt`'s fetches.
    fn start_fetch_group(&mut self, mt: usize) {
        let fetch_nodes: Vec<usize> = self.mts[mt]
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.op.is_fetch())
            .map(|(i, _)| i)
            .collect();
        debug_assert!(!fetch_nodes.is_empty());
        // Reserve the whole group's receive buffers at admission (§3.5).
        let group_bytes: f64 = fetch_nodes
            .iter()
            .map(|n| self.mts[mt].nodes[*n].op.bytes)
            .sum();
        let machine = self.mts[mt].machine;
        self.adjust_buffered(machine, group_bytes);
        self.mts[mt].buffered += group_bytes;
        self.mts[mt].serve_queued = self.now;
        for node in fetch_nodes {
            match self.op(mt, node) {
                MonoOp::NetFetch {
                    from,
                    remote_disk,
                    via_disk,
                    ..
                } => {
                    if via_disk {
                        self.mts[mt].nodes[node].net_phase = NetPhase::RemoteRead;
                        self.machines[from]
                            .sched
                            .enqueue_disk(remote_disk, qref(mt, node), false);
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
        let bytes = self.mts[mt].nodes[node].op.bytes;
        self.mts[mt].nodes[node].net_phase = NetPhase::Transfer;
        self.mts[mt].nodes[node].started = self.now;
        self.mts[mt].nodes[node].set(RUNNING, true);
        let machine = self.mts[mt].machine;
        let from = self.mts[mt].nodes[node].op.fetch_from().expect("a fetch");
        let cut = self.rt.partitions_on() && self.rt.is_cut(from, machine);
        if cut {
            // Starting straight into a cut pair: begin the stall clock now.
            // Fabric transfers still enter the allocator (their class runs at
            // rate 0 until heal); per-machine transfers are held parked.
            self.mark_stalled(mt, node);
        }
        let sid = stream_id(mt, node);
        if let Some(fabric) = &mut self.fabric {
            fabric.insert(self.now, FlowId(sid.0), from, machine, bytes.max(1e-9));
            return;
        }
        let n_disks = self.hosts[machine].spec().disks.len();
        let demand = StreamDemand::rx_only(bytes.max(1e-9), n_disks);
        if cut {
            self.hosts[machine].hold(sid, demand);
        } else {
            self.hosts[machine].insert(self.now, sid, demand);
        }
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
        let op = self.op(mt, node);
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
                    self.records.push(
                        MonotaskRecord {
                            multitask: self.mts[mt].key,
                            machine: from,
                            resource: ResourceKind::Disk,
                            purpose: Purpose::ReadShuffleServe,
                            queued: self.mts[mt].serve_queued,
                            started: self.mts[mt].nodes[node].serve_started,
                            ended: self.now,
                            bytes,
                        },
                        None,
                    );
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
        // A via-disk fetch's service spans the sender-side serve chain plus
        // the transfer; anchoring at the serve enqueue matches the
        // elapsed-time anchor eligibility uses.
        let anchor = if n.op.is_fetch() && n.op.via_disk {
            self.serve_queued(mt, node)
        } else {
            n.started
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
                let anchor = match self.op(mt, node) {
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
                        self.mts[mt].serve_queued
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
                let threshold = (mult * med).max(MONO_SPECULATION_MIN_RUNTIME_SECS);
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
                        self.rt.wake_at(at);
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
        let orig_op = self.op(mt, node);
        let purpose = self.mts[mt].nodes[node].purpose;
        // Where the copy runs: its op, its net phase, and the disk queue (on
        // `enqueue_on.0`) or CPU queue it enters.
        let (copy_op, is_fetch_copy, enqueue_on) = match orig_op {
            // Duplicate the compute on this machine's CPU scheduler; the copy
            // runs clean (see `Exec::op`).
            MonoOp::Compute { work } => (MonoOp::Compute { work }, false, None),
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
        self.rt.record(
            self.now,
            InstantKind::MonoCopy {
                job: key.job.0,
                stage: key.stage.0,
                task: key.task.0,
                resource: res_index(&orig_op),
            },
        );
        match copy_op {
            MonoOp::Compute { .. } => self.machines[home].sched.enqueue_cpu(qref(mt, idx)),
            _ => {
                let (m, d) = enqueue_on.expect("non-compute copies carry a disk target");
                self.machines[m].sched.enqueue_disk(d, qref(mt, idx), false);
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
        let copy_op = self.op(mt, copy);
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
        self.rt.record(
            self.now,
            InstantKind::MonoCopyWin {
                job: key.job.0,
                stage: key.stage.0,
                task: key.task.0,
                resource: res_index(&self.op(mt, orig)),
            },
        );
        self.push_sample(mt, copy);
        // … then perform, exactly once for the pair, the completion
        // bookkeeping the original would have done.
        match self.op(mt, orig) {
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
        let running = n.running();
        let anchor = if op.is_fetch() && n.net_phase == NetPhase::RemoteRead {
            n.serve_started
        } else {
            n.started
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
        if op.kind != OpKind::Compute {
            self.rt.jobs[ji].recovery.wasted_bytes += op.bytes;
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
        let on = match (self.op(mt, node), self.mts[mt].nodes[node].net_phase) {
            (MonoOp::NetFetch { .. }, NetPhase::Waiting) => return,
            (MonoOp::NetFetch { from, .. }, NetPhase::RemoteRead) => from,
            (MonoOp::NetFetch { from, .. }, NetPhase::Transfer) if self.fabric.is_some() => {
                let to = self.mts[mt].machine;
                if let Some(fabric) = &mut self.fabric {
                    fabric.remove(self.now, FlowId(sid.0), from, to);
                }
                return;
            }
            _ => self.mts[mt].machine,
        };
        if self.rt.alive[on] && self.hosts[on].remove(self.now, sid).is_some() {
            self.release_slot(mt, node);
        }
    }

    /// Frees the scheduler slot node `(mt, node)` holds while in service.
    /// Transfers hold none: the fetch group's slot is settled separately.
    fn release_slot(&mut self, mt: usize, node: usize) {
        let home = self.mts[mt].machine;
        match (self.op(mt, node), self.mts[mt].nodes[node].net_phase) {
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
        let bytes = |f: fn(OpKind) -> bool| -> f64 {
            self.mts[mt]
                .nodes
                .iter()
                .filter(|n| !n.is_copy() && f(n.op.kind))
                .map(|n| n.op.bytes)
                .sum()
        };
        bytes(|k| k == OpKind::DiskWrite)
            - bytes(|k| matches!(k, OpKind::DiskRead | OpKind::NetFetch))
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
        let limit = limit_frac * self.hosts[machine].spec().memory;
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
        self.records.push(
            MonotaskRecord {
                multitask: self.mts[mt].key,
                machine,
                resource,
                purpose: n.purpose,
                queued: n.queued,
                started: n.started,
                ended: self.now,
                bytes,
            },
            cpu,
        );
    }

    /// Marks a monotask done, releases dependents, and finishes the
    /// multitask / stage / job when complete.
    fn complete_node(&mut self, mt: usize, node: usize) {
        debug_assert!(!self.mts[mt].nodes[node].done());
        self.mts[mt].nodes[node].set(DONE, true);
        // Nothing reads a finished node's cold state or stall clock, nor the
        // cold state of its copy (done or torn down here), so free them all:
        // the side tables hold only live nodes.
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
        if self.rt.partitions_on() {
            self.rt.drop_stall((mt, node));
        }
        if let Some(d) = self.dependent(mt, node) {
            self.mts[mt].nodes[d].deps_remaining -= 1;
            if self.mts[mt].nodes[d].deps_remaining == 0 {
                debug_assert!(
                    !self.mts[mt].nodes[d].op.is_fetch(),
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
        if self.rt.faults_on() && self.mts[mt].recompute {
            self.rt.jobs[ji].recovery.recompute_seconds +=
                self.now.since(self.mts[mt].start).as_secs_f64();
        }
        let (si, ti) = (key.stage.0 as usize, key.task.0 as usize);
        self.rt.complete_task(ji, si, ti, machine, self.now);
    }

    fn into_output(self, mut stats: SimStats) -> MonoRunOutput {
        debug_assert!(
            self.spec_on || self.cold.capacity() == 0,
            "cold node state written without speculation"
        );
        let makespan = self.now;
        let traces = self.hosts.into_output(&self.rt.alive, &mut stats);
        if let Some(fabric) = &self.fabric {
            stats.merge(&fabric.stats());
        }
        let peak_buffered = self.machines.iter().map(|m| m.peak_buffered).collect();
        let (jobs, instants) = self.rt.into_reports(&mut stats);
        MonoRunOutput {
            jobs,
            records: self.records,
            traces,
            queue_trace: self.queue_trace,
            peak_buffered,
            makespan,
            stats,
            instants,
        }
    }
}

/// The monotasks half of the shared event loop ([`driver::run`]): per-machine
/// fluid allocators plus the optional fabric. Each fetch stalls on its own
/// clock, keyed `(multitask, node)` in the runtime's registry.
impl Engine for Exec {
    fn rt(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    /// Applies the fault actions due, inside the open batch. The machine's
    /// own allocator takes a link scale in [`Hosts::pop_fault`]; in fabric
    /// mode its tx and rx ports degrade too, so link faults stretch shuffles
    /// whichever network model carries them.
    fn open_batch(&mut self, now: SimTime) -> Result<(), RunError> {
        self.now = now;
        self.hosts.open_batch();
        if let Some(fabric) = &mut self.fabric {
            fabric.begin_update();
        }
        while let Some(action) = self.hosts.pop_fault(now, &self.rt.alive) {
            self.rt.record(now, InstantKind::from(&action));
            match action {
                FaultAction::Crash { machine } => self.crash_machine(machine)?,
                FaultAction::CutPair { src, dst } => self.apply_cut(src, dst),
                FaultAction::HealPair { src, dst } => self.apply_heal(src, dst),
                FaultAction::SetLinkScale { machine, factor } if self.rt.alive[machine] => {
                    if let Some(fabric) = &mut self.fabric {
                        fabric.set_port_scale(now, machine, factor);
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn complete(&mut self) {
        let mut done_flows = std::mem::take(&mut self.done_flows);
        if let Some(fabric) = &mut self.fabric {
            fabric.take_completed_into(self.now, &mut done_flows);
            for &fid in &done_flows {
                let (mt, node) = decode(StreamId(fid.0));
                self.on_stream_done(mt, node);
            }
        }
        self.done_flows = done_flows;
        for m in 0..self.n_machines() {
            let Some(done) = self.hosts.poll(m, self.now, &self.rt.alive) else {
                continue;
            };
            for &sid in &done {
                let (mt, node) = decode(sid);
                self.on_stream_done(mt, node);
            }
            self.hosts.recycle(done);
        }
    }

    /// Assignment opens queues, queues fill slots, remote enqueues open
    /// other machines' disks, and speculation launches copies.
    fn step(&mut self) -> bool {
        let mut changed = self.assign_tasks();
        changed |= self.dispatch_all();
        if self.spec_on {
            changed |= self.check_speculation();
        }
        changed
    }

    /// Sampling (`collect_traces`) adds the queue lengths, and in fabric
    /// mode the fabric's receive utilization replaces the NIC model's.
    fn commit(&mut self) {
        let now = self.now;
        if let Some(fabric) = &mut self.fabric {
            fabric.commit(now);
        }
        let (machines, fabric, queues) = (&self.machines, &self.fabric, &mut self.queue_trace);
        self.hosts.commit(now, &self.rt.alive, |m, traces| {
            if let Some(fabric) = fabric {
                let rx = fabric.rx_busy_fraction(m).min(1.0);
                traces.set(now, MachineId(m), ResourceSel::Network, rx);
            }
            let sched = &machines[m].sched;
            let (cpu, disks, net) = (sched.cpu_queued(), sched.disk_queued(), sched.net_queued());
            queues.push(now, m, cpu, disks, net);
        });
    }

    /// A machine or fabric completion, or a fault action. Speculation
    /// wake-ups are the runtime's ([`Runtime::wake_at`]).
    fn next_event(&mut self) -> Option<SimTime> {
        [
            self.hosts.next_event(self.now, &self.rt.alive),
            self.fabric
                .as_mut()
                .and_then(|f| f.next_completion(self.now)),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Stops and attributes the stall clocks of `mt`'s live fetches (summed
    /// per attempt), counting each fetch as re-planned, then aborts the
    /// attempt: one spent budget re-plans the whole multitask.
    fn abort_stalled(&mut self, mt: usize) -> Result<(), RunError> {
        let ji = self.mts[mt].key.job.0 as usize;
        let stalled = self.rt.drop_stalls(mt, self.now);
        self.rt.jobs[ji].recovery.stalled_fetch_seconds += stalled;
        let replanned = self.mts[mt]
            .nodes
            .iter()
            .filter(|n| !n.done() && !n.cancelled() && !n.is_copy() && n.op.is_fetch())
            .count();
        let (job, stage) = (ji as u32, self.mts[mt].key.stage.0);
        for _ in 0..replanned {
            self.rt
                .record(self.now, InstantKind::FetchReplan { job, stage });
        }
        self.abort_multitask(mt)
    }

    fn abort_fetching_from(&mut self, s: usize) -> Result<(), RunError> {
        for mt in 0..self.mts.len() {
            if self.mts[mt].aborted || self.mts[mt].remaining == 0 {
                continue;
            }
            let has = self.mts[mt].nodes.iter().any(|n| {
                !n.done() && !n.cancelled() && !n.is_copy() && n.op.fetch_from() == Some(s)
            });
            if has {
                self.abort_stalled(mt)?;
            }
        }
        Ok(())
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
            .with_cpu()
            .filter(|(r, _)| r.multitask.stage == StageId(0))
            .filter_map(|(_, c)| c)
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
