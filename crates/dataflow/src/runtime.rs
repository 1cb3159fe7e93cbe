//! The job/stage runtime both executors share.
//!
//! MonoSpark's job scheduler "works in the same way as the Spark job
//! scheduler" (§3.4): only how a task runs on a machine differs. This module
//! is that common scheduler, written once — per-stage pending queues and the
//! lineage index, bounded task retries, stage readiness and completion, and
//! partition recovery's bookkeeping (reachability gate, the stall clock's
//! timeout → retry → exponential backoff, receiver choice, resubmission
//! feasibility and quarantine). Every stall clock lives here: one per
//! stage's gate blockage, and one per stalled fetch in the stall registry,
//! keyed by [`FetchKey`]; the executors only arm, stop and drop fetch
//! entries. The run's one wake-up queue ([`Runtime::wake_at`]) is here too.
//! The event loop that calls it is [`crate::driver`], written once too; the
//! operations only the loop and its escalation skeleton need (the stall
//! sweep, wake-up draining, the starvation error, sender-level re-planning)
//! are private to the crate.
//!
//! It also keeps the run's recovery ledger. [`Runtime::record`] is the one
//! place a recovery counter is bumped, and it logs the matching
//! [`InstantKind`] in the same call when the trace is armed, so counters and
//! instants cannot drift apart; the executors record their fault firings
//! and their own decisions (speculation, fetch re-plans) through it too.
//! The per-stage sender layout every shuffle-input launch stamps from, the
//! [`StageTemplate`], is cached here as well, and dropped where a loss of
//! shuffle output makes it stale.
//!
//! Each executor keeps what really differs: how a task's work runs, how
//! in-flight work is aborted or parked, and which machines can host a task —
//! the [`Gate`] it hands to [`Runtime::new`].

use std::collections::{BTreeMap, HashSet};
use std::ops::Bound;

use simcore::{EventQueue, InstantKind, RunInstant, SimDuration, SimStats, SimTime};

use crate::{
    BlockMap, InputSpec, JobId, JobReport, JobSpec, OutputSpec, RecoveryStats, RunError,
    StageControlStats, StageId, StageReport, TaskId,
};

/// The executor's reachability gate: whether machine `m` could get the input
/// of task `(job, stage, task)` across the current cuts. Only consulted when
/// the fault plan cuts links.
pub type Gate = fn(rt: &Runtime, m: usize, job: usize, stage: usize, task: usize) -> bool;

/// Retries allowed per task beyond its original attempt before the run
/// fails with [`RunError::RetriesExhausted`]. Only fault runs re-queue tasks.
pub const MAX_TASK_RETRIES: u32 = 4;

/// Retry decisions per stall episode before recovery re-plans (relocation,
/// replica, or lineage resubmission).
pub const FETCH_MAX_RETRIES: u32 = 3;

/// Base of the deterministic exponential backoff between stall retries:
/// retry `k` waits `base × 2^(k-1)` simulated seconds.
pub const FETCH_BACKOFF_BASE_SECS: f64 = 1.0;

/// What a [`Runtime`] takes from its executor's configuration and fault
/// plan, per run.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Log every recorded instant (the executor's trace is armed).
    pub trace: bool,
    /// Keep the lineage index (fault runs only).
    pub lineage: bool,
    /// The fault plan cuts links: task picks pass the reachability gate.
    pub partitions: bool,
    /// Simulated seconds a fetch or a gate-blocked stage may stall before
    /// retries start; `None` waits for the heal.
    pub fetch_timeout_secs: Option<f64>,
}

/// Scheduling state of one stage.
#[derive(Debug)]
pub struct StageRun {
    /// Every dependency has finished, so pending tasks may be picked.
    pub ready: bool,
    /// Every task has finished.
    pub done: bool,
    /// Tasks in the stage.
    pub total: usize,
    /// Tasks finished and not lost since.
    completed: usize,
    /// Pending tasks preferring each machine, popped from the back.
    by_pref: Vec<Vec<u32>>,
    /// Pending tasks with no locality preference, popped from the back.
    nopref: Vec<u32>,
    /// First task launch.
    started: Option<SimTime>,
    /// Last task completion.
    ended: Option<SimTime>,
    /// Shuffle bytes produced on each machine by finished tasks.
    pub shuffle_by_machine: Vec<f64>,
    /// Whether this stage's shuffle output stays in memory.
    pub shuffle_in_memory: bool,
    /// Host-wall control cost of scheduling this stage's tasks.
    pub control: StageControlStats,
    /// Finished task ids per machine (fault runs only) — the lineage index:
    /// exactly the tasks to re-run when that machine's outputs are lost.
    completed_on: Vec<Vec<u32>>,
    /// Logical completion per task: a second attempt of a finished task (a
    /// losing speculative copy) must not count again.
    task_done: Vec<bool>,
    /// Pending queues have been filled once; a stage re-opened after lost
    /// output resumes with its surviving queue contents.
    populated: bool,
    /// Stall clock of the current gate blockage: running while the pending
    /// tasks have no placement passing the gate.
    gate: Stall,
    /// The captured sender layout of a shuffle-input stage, until lost
    /// output of a stage it fetches from drops it.
    template: Option<StageTemplate>,
}

/// Scheduling state of one job.
#[derive(Debug)]
pub struct JobRun {
    /// Job id (its submission index).
    pub id: JobId,
    /// The submitted plan.
    pub spec: JobSpec,
    /// Input block placement.
    pub blocks: BlockMap,
    /// Per-stage state, indexed like `spec.stages`.
    pub stages: Vec<StageRun>,
    /// Every stage has finished.
    pub done: bool,
    /// Completion time of the last stage.
    pub end: SimTime,
    /// Fault-recovery overhead attributed to this job.
    pub recovery: RecoveryStats,
}

/// One sender entry of a captured shuffle layout: a machine holding a
/// positive share of every task's fetch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TemplateSender {
    /// Sender machine.
    pub machine: usize,
    /// Bytes each task of the stage fetches from this sender.
    pub bytes: f64,
    /// Whether the share lives on the sender's disk (false: in memory).
    pub via_disk: bool,
}

/// The execution template of a shuffle-input stage (after *Execution
/// Templates*, Mashayekhi et al. — see PAPERS.md): its per-task sender
/// layout, the one control decision every task of the stage shares. Each
/// task fetches `total / n_tasks` bytes split across senders in proportion
/// to where the bytes landed, so the layout is captured once, at the first
/// launch, and the monotasks executor stamps every task's DAG from it.
///
/// A template is captured once its stage is ready, so every producer has
/// finished and its shuffle-byte table is final, until output is lost. The
/// one invalidation guard is therefore the loss itself:
/// [`Runtime::lose_shuffle_outputs`] drops every consumer's template, and
/// the next launch re-captures it. Immutable once captured. The serve
/// *disk* of each sender is deliberately not cached: the executor's
/// per-machine cursors hand it out at every launch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageTemplate {
    /// Positive per-task sender shares, dependency-major and machine-minor.
    pub senders: Vec<TemplateSender>,
}

/// One stall clock: an in-flight fetch, or a ready stage whose pending
/// tasks no machine can host, waiting on a cut. It holds when the stall
/// began, the next timeout or backoff expiry, and the retry decisions spent.
/// Every fetch stall of both executors (in [`Runtime`]'s stall registry) and
/// every stage's gate blockage holds one, so the timeout → retry → backoff →
/// re-plan walk is written once.
#[derive(Clone, Copy, Debug, Default)]
struct Stall {
    since: Option<SimTime>,
    deadline: Option<SimTime>,
    retries: u32,
}

impl Stall {
    /// Starts the clock at `now`, unless it already runs, and arms the first
    /// timeout unless an expiry is pending. Arming schedules a wake-up, so a
    /// fetch marked stalled twice in one stall (cut while queued, then its
    /// transfer starts on the still-cut pair) must not arm a second one.
    fn arm(&mut self, rt: &mut Runtime, now: SimTime) {
        self.since.get_or_insert(now);
        if self.deadline.is_some() {
            return;
        }
        if let Some(timeout) = rt.cfg.fetch_timeout_secs {
            let at = now + SimDuration::from_secs_f64(timeout);
            rt.wake_at(at);
            self.deadline = Some(at);
        }
    }

    /// Whether the clock runs.
    fn stalled(&self) -> bool {
        self.since.is_some()
    }

    /// Whether the pending expiry is due at `now`.
    fn due(&self, now: SimTime) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }

    /// Fires a due expiry of a stall in stage `(ji, si)`: spends a retry
    /// (counted in `fetch_retries`) and, within [`FETCH_MAX_RETRIES`], arms
    /// the deterministic backoff ([`FETCH_BACKOFF_BASE_SECS`] `× 2^(k-1)`
    /// seconds for retry `k`). Once the budget is spent, returns the retries
    /// spent: recovery must re-plan.
    fn tick(&mut self, rt: &mut Runtime, ji: usize, si: usize, now: SimTime) -> Option<u32> {
        self.retries += 1;
        let attempt = self.retries;
        rt.record(
            now,
            InstantKind::FetchRetry {
                job: ji as u32,
                stage: si as u32,
                attempt,
            },
        );
        if attempt > FETCH_MAX_RETRIES {
            return Some(attempt);
        }
        let backoff = FETCH_BACKOFF_BASE_SECS * 2f64.powi(attempt as i32 - 1);
        rt.jobs[ji].recovery.fetch_backoff_seconds += backoff;
        let at = now + SimDuration::from_secs_f64(backoff);
        rt.wake_at(at);
        self.deadline = Some(at);
        None
    }

    /// Stops the clock and disarms its expiry, adding the seconds stalled to
    /// `stalled` if the clock ran. The retries spent are kept.
    fn stop(&mut self, now: SimTime, stalled: &mut f64) {
        self.deadline = None;
        if let Some(since) = self.since.take() {
            *stalled += now.since(since).as_secs_f64();
        }
    }
}

/// A fetch stall registry key: `(attempt, fetch)`, in the executor's own
/// numbering. The sweep and the starvation error walk keys in order.
pub type FetchKey = (usize, usize);

/// One fetch's entry in the stall registry.
#[derive(Clone, Copy, Debug)]
struct FetchStall {
    stall: Stall,
    /// The task the attempt runs, `(job, stage, task)`.
    task: (usize, usize, usize),
    /// The fetching machine.
    receiver: usize,
    /// The sender the fetch waits on; `None` for a merged fetch, which waits
    /// on every sender of its stage.
    sender: Option<usize>,
}

/// Job and stage state plus the recovery logic both executors share.
#[derive(Debug)]
pub struct Runtime {
    /// Per-job state, in submission order.
    pub jobs: Vec<JobRun>,
    /// Liveness per machine; a crashed machine never takes work again.
    pub alive: Vec<bool>,
    /// Entries across every stage's pending queues.
    pub pending_tasks: usize,
    cfg: RuntimeConfig,
    gate: Gate,
    /// Failed attempts per `[job][stage][task]` (0 = only the original ran).
    attempts: Vec<Vec<Vec<u32>>>,
    /// Tasks whose next launch is a lineage recomputation (only ever
    /// membership-tested; iteration order never observed).
    recompute_pending: HashSet<(usize, usize, usize)>,
    /// Job the next fair-share pick starts from.
    rr_job: usize,
    /// Directed (sender, receiver) pairs currently cut.
    cut_pairs: HashSet<(usize, usize)>,
    /// Machines recovery declared unreachable: they take no assignments
    /// until a heal touches them, so lineage re-runs land where consumers
    /// can fetch.
    quarantined: Vec<bool>,
    /// The run's wake-ups: stall-timeout and backoff expiries and the
    /// executors' speculation checks. Payload-free: the driver drains them
    /// and the sweeps they wake do the work.
    wakeups: EventQueue<()>,
    /// The stall clock of every fetch that has stalled on a cut, by
    /// [`FetchKey`], until its attempt finishes or is aborted.
    stalls: BTreeMap<FetchKey, FetchStall>,
    /// Every recorded instant, in recording order (trace runs only).
    instants: Vec<RunInstant>,
}

impl Runtime {
    /// Builds the state for `jobs` on `n_machines` machines and readies
    /// every root stage, or names the first job spec that fails
    /// [`JobSpec::validate`].
    pub fn new(
        jobs: &[(JobSpec, BlockMap)],
        n_machines: usize,
        cfg: RuntimeConfig,
        gate: Gate,
    ) -> Result<Runtime, RunError> {
        for (spec, _) in jobs {
            spec.validate().map_err(|e| {
                RunError::InvalidConfig(format!("invalid job spec {:?}: {e}", spec.name))
            })?;
        }
        let job_runs = jobs
            .iter()
            .enumerate()
            .map(|(ji, (spec, blocks))| JobRun {
                id: JobId(ji as u32),
                spec: spec.clone(),
                blocks: blocks.clone(),
                stages: spec
                    .stages
                    .iter()
                    .map(|st| StageRun {
                        ready: false,
                        done: false,
                        total: st.tasks.len(),
                        completed: 0,
                        by_pref: vec![Vec::new(); n_machines],
                        nopref: Vec::new(),
                        started: None,
                        ended: None,
                        shuffle_by_machine: vec![0.0; n_machines],
                        shuffle_in_memory: st.tasks.iter().any(|t| {
                            matches!(
                                t.output,
                                OutputSpec::ShuffleWrite {
                                    in_memory: true,
                                    ..
                                }
                            )
                        }),
                        control: StageControlStats::default(),
                        completed_on: vec![Vec::new(); n_machines],
                        task_done: vec![false; st.tasks.len()],
                        populated: false,
                        gate: Stall::default(),
                        template: None,
                    })
                    .collect(),
                done: false,
                end: SimTime::ZERO,
                recovery: RecoveryStats::default(),
            })
            .collect();
        let mut rt = Runtime {
            jobs: job_runs,
            alive: vec![true; n_machines],
            pending_tasks: 0,
            cfg,
            gate,
            attempts: jobs
                .iter()
                .map(|(spec, _)| {
                    spec.stages
                        .iter()
                        .map(|st| vec![0; st.tasks.len()])
                        .collect()
                })
                .collect(),
            recompute_pending: HashSet::new(),
            rr_job: 0,
            cut_pairs: HashSet::new(),
            quarantined: vec![false; n_machines],
            wakeups: EventQueue::new(),
            stalls: BTreeMap::new(),
            instants: Vec::new(),
        };
        for ji in 0..rt.jobs.len() {
            for si in 0..rt.jobs[ji].stages.len() {
                if rt.jobs[ji].spec.stages[si].deps.is_empty() {
                    rt.make_stage_ready(ji, si);
                }
            }
        }
        Ok(rt)
    }

    /// Machines in the cluster.
    pub fn n_machines(&self) -> usize {
        self.alive.len()
    }

    /// Whether the fault plan cuts links. False keeps every partition hook
    /// (placement gate, stall sweep, timers) off the hot path, so
    /// partition-free runs are bit-identical to builds predating partitions.
    pub fn partitions_on(&self) -> bool {
        self.cfg.partitions
    }

    /// Whether the fault plan is non-empty. False keeps every fault hook off
    /// the hot path, so an empty plan is bit-identical to the plan-free code.
    pub fn faults_on(&self) -> bool {
        self.cfg.lineage
    }

    /// Whether machine `m` takes assignments: alive and not quarantined.
    pub fn schedulable(&self, m: usize) -> bool {
        self.alive[m] && !self.quarantined[m]
    }

    /// Failed attempts of a task so far (0 = only the original ran).
    pub fn attempts(&self, ji: usize, si: usize, ti: usize) -> u32 {
        self.attempts[ji][si][ti]
    }

    /// Whether the task's next launch is a lineage recomputation, clearing
    /// the mark.
    pub fn take_recompute(&mut self, ji: usize, si: usize, ti: usize) -> bool {
        self.recompute_pending.remove(&(ji, si, ti))
    }

    /// Whether a finished attempt of the task already counted.
    pub fn task_done(&self, ji: usize, si: usize, ti: usize) -> bool {
        self.jobs[ji].stages[si].task_done[ti]
    }

    /// Books one fault firing or recovery event at `now`: bumps the counter
    /// `kind` counts against, if it has one, and logs the instant when the
    /// trace is armed. Counters move whether or not the trace is armed, and
    /// nothing else writes them, so every counter equals the number of its
    /// instants in a traced run.
    pub fn record(&mut self, now: SimTime, kind: InstantKind) {
        if let Some(ji) = kind.job() {
            let job = &mut self.jobs[ji as usize];
            let r = &mut job.recovery;
            match kind {
                InstantKind::TaskRetry { .. } => r.tasks_retried += 1,
                InstantKind::TaskSpeculate { .. } => r.tasks_speculated += 1,
                InstantKind::MonoCopy { resource, .. } => r.mono_copies[resource] += 1,
                InstantKind::MonoCopyWin { resource, .. } => r.mono_copy_wins[resource] += 1,
                InstantKind::FetchRetry { .. } => r.fetch_retries += 1,
                InstantKind::FetchReplan { .. } => r.fetches_replanned += 1,
                InstantKind::TemplateInvalidate { stage, .. } => {
                    job.stages[stage as usize].control.template_invalidations += 1;
                }
                // Fault firings belong to no job.
                _ => {}
            }
        }
        if self.cfg.trace {
            self.instants.push(RunInstant { time: now, kind });
        }
    }

    /// Looks up stage `(ji, si)`'s template for one task launch: a hit, or
    /// a miss that captures it from the producers' shuffle tables.
    pub fn capture_template(&mut self, ji: usize, si: usize) {
        if self.jobs[ji].stages[si].template.is_some() {
            self.jobs[ji].stages[si].control.template_hits += 1;
        } else {
            let tpl = self.sender_layout(ji, si);
            let run = &mut self.jobs[ji].stages[si];
            run.control.template_misses += 1;
            run.template = Some(tpl);
        }
    }

    /// Stage `(ji, si)`'s captured template, if any.
    pub fn template(&self, ji: usize, si: usize) -> Option<&StageTemplate> {
        self.jobs[ji].stages[si].template.as_ref()
    }

    /// The sender layout of stage `(ji, si)` derived from the producers'
    /// current shuffle tables.
    pub fn sender_layout(&self, ji: usize, si: usize) -> StageTemplate {
        let n_tasks = self.jobs[ji].spec.stages[si].tasks.len() as f64;
        let mut tpl = StageTemplate::default();
        for d in &self.jobs[ji].spec.stages[si].deps {
            let drun = &self.jobs[ji].stages[d.0 as usize];
            debug_assert!(drun.done, "fetching from unfinished stage");
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

    /// Marks machine `m` crashed; `false` if it already was.
    pub fn crash(&mut self, m: usize) -> bool {
        std::mem::replace(&mut self.alive[m], false)
    }

    /// Whether traffic from `src` to `dst` is cut.
    pub fn is_cut(&self, src: usize, dst: usize) -> bool {
        self.cut_pairs.contains(&(src, dst))
    }

    /// Cuts `src → dst`; `false` if it already was.
    pub fn cut(&mut self, src: usize, dst: usize) -> bool {
        self.cut_pairs.insert((src, dst))
    }

    /// Heals `src → dst` and lifts quarantine from both ends, since
    /// connectivity changed; `false` if the pair was not cut.
    pub fn heal(&mut self, src: usize, dst: usize) -> bool {
        if !self.cut_pairs.remove(&(src, dst)) {
            return false;
        }
        self.quarantined[src] = false;
        self.quarantined[dst] = false;
        true
    }

    /// Schedules a wake-up at `at`: the run takes an event there, so the
    /// sweeps that read the clock (stall expiries, speculation) observe it.
    pub fn wake_at(&mut self, at: SimTime) {
        self.wakeups.schedule(at, ());
    }

    /// Starts the stall clock of fetch `key` of `task` into `receiver`,
    /// waiting on `sender` (`None`: every sender of the stage), and arms its
    /// first timeout; a running clock keeps its start and its pending
    /// expiry. The entry lives until [`Runtime::drop_stall`] or
    /// [`Runtime::drop_stalls`], keeping its retries across heals.
    pub fn arm_stall(
        &mut self,
        key: FetchKey,
        task: (usize, usize, usize),
        receiver: usize,
        sender: Option<usize>,
        now: SimTime,
    ) {
        let mut entry = self.stalls.get(&key).copied().unwrap_or(FetchStall {
            stall: Stall::default(),
            task,
            receiver,
            sender,
        });
        entry.stall.arm(self, now);
        self.stalls.insert(key, entry);
    }

    /// A heal unblocks fetch `key`: stops its clock, if any, and adds the
    /// seconds stalled to its job's `stalled_fetch_seconds`. Returns whether
    /// the clock ran.
    pub fn stop_stall(&mut self, key: FetchKey, now: SimTime) -> bool {
        let Some(e) = self.stalls.get_mut(&key) else {
            return false;
        };
        let ran = e.stall.stalled();
        e.stall
            .stop(now, &mut self.jobs[e.task.0].recovery.stalled_fetch_seconds);
        ran
    }

    /// Fetch `key` finished: drops its entry uncharged.
    pub fn drop_stall(&mut self, key: FetchKey) {
        self.stalls.remove(&key);
    }

    /// Drops every entry of `attempt` and returns the seconds their running
    /// clocks stalled by `now`, summed in fetch order. A re-planned attempt
    /// charges them to its job; a crashed or finished one does not.
    pub fn drop_stalls(&mut self, attempt: usize, now: SimTime) -> f64 {
        let mut stalled = 0.0;
        let range = (attempt, 0)..=(attempt, usize::MAX);
        while let Some(key) = self.stalls.range(range.clone()).next().map(|(&k, _)| k) {
            if let Some(mut e) = self.stalls.remove(&key) {
                e.stall.stop(now, &mut stalled);
            }
        }
        stalled
    }

    /// The lowest machine holding shuffle input of stage `(ji, si)` that is
    /// cut from `dst`.
    pub fn first_cut_sender(&self, ji: usize, si: usize, dst: usize) -> Option<usize> {
        (0..self.n_machines()).find(|&s| self.is_cut(s, dst) && self.fetches_from(ji, si, s))
    }

    /// Records the first launch of a stage's tasks.
    pub fn mark_started(&mut self, ji: usize, si: usize, now: SimTime) {
        let run = &mut self.jobs[ji].stages[si];
        if run.started.is_none() {
            run.started = Some(now);
        }
    }

    fn make_stage_ready(&mut self, ji: usize, si: usize) {
        let n_machines = self.n_machines();
        let job = &mut self.jobs[ji];
        let run = &mut job.stages[si];
        debug_assert!(!run.ready);
        run.ready = true;
        if run.populated {
            // Re-opened after lost output un-did an upstream stage: the
            // pending queues already hold exactly the unfinished tasks
            // (survivors of the first fill plus re-queues) — refilling would
            // duplicate them.
            return;
        }
        run.populated = true;
        let tasks = &job.spec.stages[si].tasks;
        self.pending_tasks += tasks.len();
        for (ti, task) in tasks.iter().enumerate() {
            let q = match task.input {
                InputSpec::DiskBlock { block, .. } => {
                    &mut run.by_pref[job.blocks.machine_of(block)]
                }
                InputSpec::Memory { .. } => &mut run.by_pref[ti % n_machines],
                InputSpec::None | InputSpec::ShuffleFetch { .. } => &mut run.nopref,
            };
            q.push(ti as u32);
        }
        // Queues are popped from the back; reverse so low task ids go first.
        for q in &mut run.by_pref {
            q.reverse();
        }
        run.nopref.reverse();
    }

    /// Readies stages whose dependencies are now all complete.
    fn unlock_dependents(&mut self, ji: usize, finished: usize) {
        for si in 0..self.jobs[ji].spec.stages.len() {
            let deps = &self.jobs[ji].spec.stages[si].deps;
            if self.jobs[ji].stages[si].ready || !deps.iter().any(|d| d.0 as usize == finished) {
                continue;
            }
            if deps.iter().all(|d| self.jobs[ji].stages[d.0 as usize].done) {
                self.make_stage_ready(ji, si);
            }
        }
    }

    /// Chooses the next task for machine `m`: a local task from any ready
    /// stage (jobs fair-share rotated), else any pending
    /// task — no-preference queues first, then stolen remote-local ones.
    /// With partitions on, each queue is searched back to front for the
    /// first entry passing the gate; gated entries stay queued for a machine
    /// that can reach their data, or for the heal.
    pub fn pick_task(&mut self, m: usize) -> Option<(usize, usize, usize)> {
        if self.pending_tasks == 0 {
            return None;
        }
        let n_jobs = self.jobs.len();
        let offset = self.rr_job;
        // Pass 1: locality.
        for jo in 0..n_jobs {
            let ji = (offset + jo) % n_jobs;
            for si in 0..self.jobs[ji].stages.len() {
                let run = &self.jobs[ji].stages[si];
                if !run.ready || run.done {
                    continue;
                }
                if let Some(k) = self.pick_position(&run.by_pref[m], m, ji, si) {
                    return Some(self.take_pending(ji, si, Some(m), k));
                }
            }
        }
        // Pass 2: anything pending (no-pref first, then steal remote-local).
        for jo in 0..n_jobs {
            let ji = (offset + jo) % n_jobs;
            for si in 0..self.jobs[ji].stages.len() {
                let run = &self.jobs[ji].stages[si];
                if !run.ready || run.done {
                    continue;
                }
                if let Some(k) = self.pick_position(&run.nopref, m, ji, si) {
                    return Some(self.take_pending(ji, si, None, k));
                }
                for q in 0..run.by_pref.len() {
                    if let Some(k) = self.pick_position(&run.by_pref[q], m, ji, si) {
                        return Some(self.take_pending(ji, si, Some(q), k));
                    }
                }
            }
        }
        None
    }

    /// Where in queue `q` of stage `(ji, si)` machine `m` takes its task: the
    /// tail, or with partitions on the last entry passing the gate.
    fn pick_position(&self, q: &[u32], m: usize, ji: usize, si: usize) -> Option<usize> {
        if !self.cfg.partitions {
            return q.len().checked_sub(1);
        }
        q.iter()
            .rposition(|&ti| (self.gate)(self, m, ji, si, ti as usize))
    }

    /// Removes entry `k` of a pending queue (`pref = None` is the
    /// no-preference queue) and rotates the fair-share start past its job.
    fn take_pending(
        &mut self,
        ji: usize,
        si: usize,
        pref: Option<usize>,
        k: usize,
    ) -> (usize, usize, usize) {
        let run = &mut self.jobs[ji].stages[si];
        let q = match pref {
            Some(p) => &mut run.by_pref[p],
            None => &mut run.nopref,
        };
        let ti = q.remove(k) as usize;
        self.pending_tasks -= 1;
        self.rr_job = ji + 1;
        (ji, si, ti)
    }

    /// Bounded-retry re-queue of one task attempt at `now`.
    pub fn requeue_task(
        &mut self,
        ji: usize,
        si: usize,
        ti: usize,
        recompute: bool,
        now: SimTime,
    ) -> Result<(), RunError> {
        let a = &mut self.attempts[ji][si][ti];
        *a += 1;
        if *a > MAX_TASK_RETRIES {
            return Err(RunError::RetriesExhausted {
                job: JobId(ji as u32),
                stage: StageId(si as u32),
                task: TaskId(ti as u32),
                attempts: *a,
            });
        }
        self.record(
            now,
            InstantKind::TaskRetry {
                job: ji as u32,
                stage: si as u32,
                task: ti as u32,
                recompute,
            },
        );
        if recompute {
            self.recompute_pending.insert((ji, si, ti));
        }
        self.jobs[ji].stages[si].nopref.push(ti as u32);
        self.pending_tasks += 1;
        Ok(())
    }

    /// Books a finished task that ran on `machine`: the lineage index, its
    /// shuffle output's placement, and stage and job completion — readying
    /// the stages a finished stage unblocks.
    pub fn complete_task(&mut self, ji: usize, si: usize, ti: usize, machine: usize, now: SimTime) {
        let job = &mut self.jobs[ji];
        let run = &mut job.stages[si];
        if self.cfg.lineage {
            run.completed_on[machine].push(ti as u32);
        }
        run.task_done[ti] = true;
        if let OutputSpec::ShuffleWrite { bytes, .. } = job.spec.stages[si].tasks[ti].output {
            run.shuffle_by_machine[machine] += bytes;
        }
        run.completed += 1;
        if run.completed != run.total {
            return;
        }
        run.done = true;
        run.ended = Some(now);
        self.unlock_dependents(ji, si);
        let job = &mut self.jobs[ji];
        if job.stages.iter().all(|s| s.done) {
            job.done = true;
            job.end = now;
        }
    }

    /// Spark-style stage resubmission: for every stage with finished shuffle
    /// output stored on machine `m` that an unfinished stage still needs,
    /// re-queues exactly the tasks that produced those bytes (the lineage
    /// index) and closes downstream stages until the data exists again.
    /// Every consumer's template derives from the old placement, so it is
    /// dropped first, before the re-queues and before any task launches
    /// again. Fails the run at `now` if no machine is left alive to
    /// recompute on.
    pub fn lose_shuffle_outputs(&mut self, m: usize, now: SimTime) -> Result<(), RunError> {
        for ji in 0..self.jobs.len() {
            let n_stages = self.jobs[ji].stages.len();
            for si in 0..n_stages {
                if self.jobs[ji].stages[si].shuffle_by_machine[m] <= 0.0 {
                    continue;
                }
                let job = &self.jobs[ji];
                let consumers: Vec<usize> = (0..n_stages)
                    .filter(|&sj| job.spec.stages[sj].deps.iter().any(|d| d.0 as usize == si))
                    .collect();
                if consumers.iter().all(|&sj| job.stages[sj].done) {
                    // Every consumer already finished; the lost bytes will
                    // never be fetched again.
                    continue;
                }
                let run = &mut self.jobs[ji].stages[si];
                let lost = std::mem::take(&mut run.completed_on[m]);
                if lost.is_empty() {
                    continue;
                }
                run.shuffle_by_machine[m] = 0.0;
                run.completed -= lost.len();
                for &ti in &lost {
                    run.task_done[ti as usize] = false;
                }
                let was_done = std::mem::replace(&mut run.done, false);
                run.ended = None;
                for &sj in &consumers {
                    if self.jobs[ji].stages[sj].template.take().is_some() {
                        let (job, stage) = (ji as u32, sj as u32);
                        self.record(now, InstantKind::TemplateInvalidate { job, stage });
                    }
                }
                for ti in lost {
                    self.requeue_task(ji, si, ti as usize, true, now)?;
                }
                if was_done {
                    for sj in consumers {
                        let run = &mut self.jobs[ji].stages[sj];
                        if run.ready && !run.done {
                            // Pending consumers wait for the recomputation;
                            // in-flight consumers fetching from `m` were
                            // already aborted.
                            run.ready = false;
                        }
                    }
                }
            }
        }
        if !self.alive.contains(&true) {
            return Err(RunError::all_machines_crashed(now));
        }
        Ok(())
    }

    /// Whether stage `(ji, si)` still expects shuffle bytes from `src`.
    pub fn fetches_from(&self, ji: usize, si: usize, src: usize) -> bool {
        self.jobs[ji].spec.stages[si]
            .deps
            .iter()
            .any(|d| self.jobs[ji].stages[d.0 as usize].shuffle_by_machine[src] > 0.0)
    }

    /// Whether every machine holding shuffle input of stage `(ji, si)`
    /// reaches machine `m` across the current cuts.
    pub fn shuffle_reachable(&self, ji: usize, si: usize, m: usize) -> bool {
        if self.cut_pairs.is_empty() {
            return true;
        }
        let job = &self.jobs[ji];
        job.spec.stages[si].deps.iter().all(|d| {
            job.stages[d.0 as usize]
                .shuffle_by_machine
                .iter()
                .enumerate()
                .all(|(s, &b)| b <= 0.0 || s == m || !self.is_cut(s, m))
        })
    }

    /// Whether some schedulable machine passes the gate for the task.
    pub(crate) fn any_host(&self, ji: usize, si: usize, ti: usize) -> bool {
        (0..self.n_machines()).any(|m| self.schedulable(m) && (self.gate)(self, m, ji, si, ti))
    }

    /// Pops the wake-ups due by `now`.
    pub(crate) fn drain_wakeups(&mut self, now: SimTime) {
        while self.wakeups.peek_time().is_some_and(|t| t <= now) {
            self.wakeups.pop();
        }
    }

    /// The next wake-up, if any.
    pub(crate) fn next_wakeup(&self) -> Option<SimTime> {
        self.wakeups.peek_time()
    }

    /// The first fetch, in key order from `from`, whose stall expiry is due
    /// at `now`.
    pub(crate) fn next_due_stall(&self, from: Bound<FetchKey>, now: SimTime) -> Option<FetchKey> {
        self.stalls
            .range((from, Bound::Unbounded))
            .find(|(_, e)| e.stall.due(now))
            .map(|(&k, _)| k)
    }

    /// Fires fetch `key`'s due expiry ([`Stall::tick`]). Once its budget is
    /// spent, returns its task with the retries spent: the attempt must be
    /// aborted and re-planned.
    pub(crate) fn tick_stall(
        &mut self,
        key: FetchKey,
        now: SimTime,
    ) -> Option<((usize, usize, usize), u32)> {
        let mut e = self.stalls[&key];
        // A heal stops the clock of every fetch it unblocks.
        debug_assert!(
            e.sender.is_none_or(|s| self.is_cut(s, e.receiver)),
            "due stall on a healed pair"
        );
        let (ji, si, _) = e.task;
        let spent = e.stall.tick(self, ji, si, now);
        self.stalls.insert(key, e);
        spent.map(|retries| (e.task, retries))
    }

    /// A ready stage with pending tasks is gate-blocked when no schedulable
    /// machine passes the gate for any of them.
    fn stage_gate_blocked(&self, ji: usize, si: usize) -> bool {
        let run = &self.jobs[ji].stages[si];
        if !run.ready || run.done {
            return false;
        }
        let mut pending = run.nopref.iter().chain(run.by_pref.iter().flatten());
        if pending.next().is_none() {
            return false;
        }
        !(0..self.n_machines()).any(|m| {
            self.schedulable(m)
                && run
                    .nopref
                    .iter()
                    .chain(run.by_pref.iter().flatten())
                    .any(|&ti| (self.gate)(self, m, ji, si, ti as usize))
        })
    }

    /// The pending task of a stage the next pick would take, if any.
    fn first_pending_task(&self, ji: usize, si: usize) -> Option<usize> {
        let run = &self.jobs[ji].stages[si];
        run.nopref
            .last()
            .or_else(|| run.by_pref.iter().find_map(|q| q.last()))
            .map(|&ti| ti as usize)
    }

    /// Once per event: starts (or clears) the gate-blockage clocks of ready
    /// stages whose pending tasks no machine can reach. Without a timeout the
    /// clock still starts — the starvation error names the stage — but no
    /// timer ever fires. Finished jobs have no blocked stage and are skipped.
    pub(crate) fn arm_gate_timers(&mut self, now: SimTime) {
        for ji in 0..self.jobs.len() {
            if self.jobs[ji].done {
                continue;
            }
            for si in 0..self.jobs[ji].stages.len() {
                let mut gate = self.jobs[ji].stages[si].gate;
                if !self.stage_gate_blocked(ji, si) {
                    if gate.stalled() {
                        self.jobs[ji].stages[si].gate = Stall::default();
                    }
                } else if !gate.stalled() {
                    gate.arm(self, now);
                    self.jobs[ji].stages[si].gate = gate;
                }
            }
        }
    }

    /// Fires stage `(ji, si)`'s gate deadline if due at `now`. A stage no
    /// longer blocked clears its clock; a blocked one spends a retry with
    /// backoff. Once the budget is spent the clock and budget reset — a later
    /// blockage is a fresh episode — and the stage's exemplar pending task is
    /// returned with the retries spent, for the executor to re-plan around.
    pub(crate) fn gate_timeout(
        &mut self,
        ji: usize,
        si: usize,
        now: SimTime,
    ) -> Option<(usize, u32)> {
        let mut gate = self.jobs[ji].stages[si].gate;
        if !gate.due(now) {
            return None;
        }
        if !self.stage_gate_blocked(ji, si) {
            self.jobs[ji].stages[si].gate = Stall::default();
            return None;
        }
        let spent = gate.tick(self, ji, si, now);
        self.jobs[ji].stages[si].gate = gate;
        let retries = spent?;
        let ti = self.first_pending_task(ji, si);
        self.jobs[ji].stages[si].gate = Stall::default();
        ti.map(|ti| (ti, retries))
    }

    /// With nothing left to fire but jobs remaining, the run starves: names
    /// the first fetch whose clock runs (its sender, or for a merged fetch
    /// the lowest sender cut from it), else the first gate-blocked stage.
    pub(crate) fn starvation_error(&self) -> Option<RunError> {
        if let Some(e) = self.stalls.values().find(|e| e.stall.stalled()) {
            let (ji, si, ti) = e.task;
            let machine = e
                .sender
                .or_else(|| self.first_cut_sender(ji, si, e.receiver))
                .unwrap_or(e.receiver);
            return Some(self.unreachable(ji, si, ti, e.stall.retries, machine));
        }
        for (ji, job) in self.jobs.iter().enumerate() {
            if job.done {
                continue;
            }
            for (si, run) in job.stages.iter().enumerate() {
                if !run.gate.stalled() {
                    continue;
                }
                let Some(ti) = self.first_pending_task(ji, si) else {
                    continue;
                };
                let machine = self.first_unreachable_source(ji, si, ti);
                return Some(self.unreachable(ji, si, ti, run.gate.retries, machine));
            }
        }
        None
    }

    /// First data source of task `(ji, si, ti)` some live machine cannot
    /// reach — best-effort attribution for unreachability errors.
    fn first_unreachable_source(&self, ji: usize, si: usize, ti: usize) -> usize {
        let job = &self.jobs[ji];
        match job.spec.stages[si].tasks[ti].input {
            InputSpec::DiskBlock { block, .. } => job.blocks.machine_of(block),
            InputSpec::ShuffleFetch { .. } => {
                for d in &job.spec.stages[si].deps {
                    let dep = &job.stages[d.0 as usize];
                    for (s, &b) in dep.shuffle_by_machine.iter().enumerate() {
                        if b > 0.0
                            && (0..self.n_machines()).any(|m| self.alive[m] && self.is_cut(s, m))
                        {
                            return s;
                        }
                    }
                }
                0
            }
            InputSpec::Memory { .. } | InputSpec::None => 0,
        }
    }

    /// Sender-level re-planning for task `(ji, si, ti)`, which no machine
    /// can host under the current cuts: picks the receiver `m*` — the
    /// schedulable machine reaching the most of the stage's senders, lowest
    /// index on ties — and returns it with the senders it cannot reach, in
    /// dependency-major order. The executor aborts the attempts still
    /// fetching from each such sender and resubmits it
    /// ([`Runtime::resubmit_from`]) once [`Runtime::check_resubmittable`]
    /// passes. A task with no shuffle input has no lineage to resubmit and
    /// fails with [`RunError::Unreachable`].
    pub(crate) fn unreachable_plan(
        &self,
        ji: usize,
        si: usize,
        ti: usize,
        retries: u32,
        now: SimTime,
    ) -> Result<(usize, Vec<usize>), RunError> {
        let mut senders: Vec<usize> = Vec::new();
        for d in &self.jobs[ji].spec.stages[si].deps {
            let sbm = &self.jobs[ji].stages[d.0 as usize].shuffle_by_machine;
            for (s, &b) in sbm.iter().enumerate() {
                if b > 0.0 && !senders.contains(&s) {
                    senders.push(s);
                }
            }
        }
        if senders.is_empty() {
            // Disk-input task whose block home is cut off with no reachable
            // replica: the input itself sits on the wrong side of the cut.
            return Err(self.unreachable(
                ji,
                si,
                ti,
                retries,
                self.first_unreachable_source(ji, si, ti),
            ));
        }
        let mut best: Option<(usize, usize)> = None;
        for m in (0..self.n_machines()).filter(|&m| self.schedulable(m)) {
            let reach = senders
                .iter()
                .filter(|&&s| s == m || !self.is_cut(s, m))
                .count();
            if best.is_none_or(|(_, r)| reach > r) {
                best = Some((m, reach));
            }
        }
        let Some((mstar, _)) = best else {
            return Err(RunError::all_machines_crashed(now));
        };
        senders.retain(|&s| s != mstar && self.is_cut(s, mstar));
        Ok((mstar, senders))
    }

    /// Feasibility of resubmitting sender `s`'s lineage for the receiver
    /// `mstar`: every producer whose shuffle output lives on `s` must be
    /// able to re-run on a schedulable machine `mstar` reaches (for a disk
    /// input, its block's home or a reachable replica). Otherwise
    /// resubmission would only move the starvation, and the task fails fast
    /// with [`RunError::Unreachable`] naming `s`.
    pub(crate) fn check_resubmittable(
        &self,
        (ji, si, ti): (usize, usize, usize),
        s: usize,
        mstar: usize,
        retries: u32,
    ) -> Result<(), RunError> {
        for d in &self.jobs[ji].spec.stages[si].deps {
            let dep = &self.jobs[ji].stages[d.0 as usize];
            if dep.shuffle_by_machine[s] <= 0.0 {
                continue;
            }
            for &p in &dep.completed_on[s] {
                let ok = (0..self.n_machines()).any(|m| {
                    m != s
                        && self.schedulable(m)
                        && !self.is_cut(m, mstar)
                        && (self.gate)(self, m, ji, d.0 as usize, p as usize)
                });
                if !ok {
                    return Err(self.unreachable(ji, si, ti, retries, s));
                }
            }
        }
        Ok(())
    }

    /// Resubmits the producer lineage whose outputs sit on `s` and takes `s`
    /// out of the assignment rotation until a heal reconnects it — re-runs
    /// must land where consumers can fetch from.
    pub(crate) fn resubmit_from(&mut self, s: usize, now: SimTime) -> Result<(), RunError> {
        self.lose_shuffle_outputs(s, now)?;
        self.quarantined[s] = true;
        Ok(())
    }

    fn unreachable(
        &self,
        ji: usize,
        si: usize,
        ti: usize,
        retries: u32,
        machine: usize,
    ) -> RunError {
        RunError::Unreachable {
            job: JobId(ji as u32),
            stage: StageId(si as u32),
            task: TaskId(ti as u32),
            machine,
            retries,
        }
    }

    /// Rolls the run's control and recovery counters into `stats`, and
    /// returns the per-job reports with the recorded instants.
    /// `stats.control_nanos` enters as raw loop wall and leaves as the
    /// executor-control remainder, so merge the allocators' stats first.
    pub fn into_reports(self, stats: &mut SimStats) -> (Vec<JobReport>, Vec<RunInstant>) {
        let mut total = RecoveryStats::default();
        for j in &self.jobs {
            total.merge(&j.recovery);
            for s in &j.stages {
                stats.template_build_nanos += s.control.template_build_nanos;
                stats.instantiate_nanos += s.control.instantiate_nanos;
                stats.template_hits += s.control.template_hits;
                stats.template_misses += s.control.template_misses;
                stats.template_invalidations += s.control.template_invalidations;
            }
        }
        stats.control_nanos = stats.control_nanos.saturating_sub(
            stats.allocator_nanos() + stats.template_build_nanos + stats.instantiate_nanos,
        );
        stats.tasks_retried = total.tasks_retried;
        stats.tasks_speculated = total.tasks_speculated;
        stats.wasted_work_nanos = (total.wasted_work_seconds * 1e9).round() as u64;
        stats.recompute_nanos = (total.recompute_seconds * 1e9).round() as u64;
        stats.mono_copies = total.mono_copies_total();
        stats.mono_copy_wins = total.mono_copy_wins_total();
        stats.wasted_bytes = total.wasted_bytes.round() as u64;
        stats.fetch_retries = total.fetch_retries;
        stats.stalled_fetch_nanos = (total.stalled_fetch_seconds * 1e9).round() as u64;
        stats.fetch_backoff_nanos = (total.fetch_backoff_seconds * 1e9).round() as u64;
        stats.fetches_replanned = total.fetches_replanned;
        let reports = self
            .jobs
            .into_iter()
            .map(|j| JobReport {
                job: j.id,
                name: j.spec.name,
                start: SimTime::ZERO,
                end: j.end,
                stages: j
                    .stages
                    .iter()
                    .enumerate()
                    .map(|(si, s)| StageReport {
                        stage: StageId(si as u32),
                        start: s.started.expect("stage never started"),
                        end: s.ended.expect("stage never ended"),
                        control: s.control,
                    })
                    .collect(),
                recovery: j.recovery,
            })
            .collect();
        (reports, self.instants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, JobBuilder, RES_DISK, RES_NET};

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

    fn cfg(partitions: bool) -> RuntimeConfig {
        RuntimeConfig {
            trace: true,
            lineage: true,
            partitions,
            fetch_timeout_secs: Some(1.0),
        }
    }

    fn shuffle_gate(rt: &Runtime, m: usize, ji: usize, si: usize, _ti: usize) -> bool {
        rt.shuffle_reachable(ji, si, m)
    }

    /// A two-stage sort over 4 map and 2 reduce tasks on 2 machines.
    fn sort(partitions: bool) -> Runtime {
        sort_with(cfg(partitions))
    }

    fn sort_with(cfg: RuntimeConfig) -> Runtime {
        let job = JobBuilder::new("sort", CostModel::spark_1_3())
            .read_disk(GIB, 1e6, GIB / 4.0)
            .map(1.0, 1.0, true)
            .shuffle(2, false)
            .map(1.0, 1.0, true)
            .write_disk(1.0);
        let blocks = BlockMap::round_robin(4, 2, 1);
        Runtime::new(&[(job, blocks)], 2, cfg, shuffle_gate).unwrap()
    }

    /// Picks and immediately finishes one task per listed machine.
    fn run_on(rt: &mut Runtime, machines: &[usize], now: SimTime) {
        for &m in machines {
            let (ji, si, ti) = rt.pick_task(m).expect("a pending task");
            rt.mark_started(ji, si, now);
            rt.complete_task(ji, si, ti, m, now);
        }
    }

    #[test]
    fn picks_local_tasks_first_then_unlocks_the_next_stage() {
        let mut rt = sort(false);
        assert_eq!(rt.pending_tasks, 4);
        // Blocks alternate between the two machines; each takes its own
        // lowest pending task.
        assert_eq!(rt.pick_task(0), Some((0, 0, 0)));
        assert_eq!(rt.pick_task(1), Some((0, 0, 1)));
        rt.complete_task(0, 0, 0, 0, SimTime::from_secs(1));
        rt.complete_task(0, 0, 1, 1, SimTime::from_secs(1));
        assert!(!rt.jobs[0].stages[1].ready);
        run_on(&mut rt, &[0, 1], SimTime::from_secs(2));
        assert!(rt.jobs[0].stages[0].done && rt.jobs[0].stages[1].ready);
        run_on(&mut rt, &[0, 1], SimTime::from_secs(3));
        assert_eq!(rt.pick_task(0), None);
        assert!(rt.jobs[0].done);
        assert_eq!(rt.jobs[0].end, SimTime::from_secs(3));
        let mut stats = SimStats::new();
        let (reports, _) = rt.into_reports(&mut stats);
        assert_eq!(reports[0].stages[1].end, SimTime::from_secs(3));
    }

    #[test]
    fn lost_output_requeues_its_lineage_within_the_retry_budget() {
        let mut rt = sort(false);
        run_on(&mut rt, &[0, 1, 0, 1], SimTime::from_secs(1));
        assert!(rt.jobs[0].stages[1].ready);
        rt.capture_template(0, 1);
        let t = SimTime::from_secs(1);
        rt.lose_shuffle_outputs(1, t).unwrap();
        // Machine 1 ran map tasks 1 and 3: both re-run as recomputations,
        // and the reduce stage waits for them. Its template is dropped first.
        assert!(!rt.jobs[0].stages[1].ready && !rt.jobs[0].stages[0].done);
        assert!(rt.template(0, 1).is_none());
        let retry = |task| InstantKind::TaskRetry {
            job: 0,
            stage: 0,
            task,
            recompute: true,
        };
        let expected = [
            InstantKind::TemplateInvalidate { job: 0, stage: 1 },
            retry(1),
            retry(3),
        ];
        assert_eq!(
            rt.instants,
            expected.map(|kind| RunInstant { time: t, kind })
        );
        assert!(rt.take_recompute(0, 0, 3) && !rt.take_recompute(0, 0, 3));
        // The loss was task 3's first re-queue; re-queue number
        // `MAX_TASK_RETRIES + 1` exhausts the budget.
        for _ in 1..MAX_TASK_RETRIES {
            rt.requeue_task(0, 0, 3, false, t).unwrap();
        }
        let err = rt.requeue_task(0, 0, 3, false, t).unwrap_err();
        assert!(matches!(
            err,
            RunError::RetriesExhausted { attempts: 5, .. }
        ));
    }

    #[test]
    fn record_counts_whether_or_not_the_log_is_armed() {
        let kinds = [
            InstantKind::TaskRetry {
                job: 0,
                stage: 0,
                task: 1,
                recompute: false,
            },
            InstantKind::TaskSpeculate {
                job: 0,
                stage: 0,
                task: 2,
                machine: 1,
            },
            InstantKind::MonoCopy {
                job: 0,
                stage: 1,
                task: 0,
                resource: RES_NET,
            },
            InstantKind::MonoCopyWin {
                job: 0,
                stage: 0,
                task: 3,
                resource: RES_DISK,
            },
            InstantKind::TemplateInvalidate { job: 0, stage: 1 },
            InstantKind::FetchRetry {
                job: 0,
                stage: 1,
                attempt: 1,
            },
            InstantKind::FetchReplan { job: 0, stage: 1 },
            InstantKind::MachineCrash { machine: 1 },
        ];
        for trace in [false, true] {
            let mut rt = sort_with(RuntimeConfig {
                trace,
                ..cfg(false)
            });
            let at = |k: usize| SimTime::from_secs(k as u64);
            for (k, &kind) in kinds.iter().enumerate() {
                rt.record(at(k), kind);
            }
            let r = &rt.jobs[0].recovery;
            let once = (1, 1, 1, 1, 1, 1);
            let counted = (
                r.tasks_retried,
                r.tasks_speculated,
                r.fetch_retries,
                r.fetches_replanned,
                r.mono_copies_total(),
                r.mono_copy_wins_total(),
            );
            assert_eq!(counted, once, "trace {trace}");
            assert_eq!((r.mono_copies[RES_NET], r.mono_copy_wins[RES_DISK]), (1, 1));
            let stages = &rt.jobs[0].stages;
            assert_eq!(stages[1].control.template_invalidations, 1);
            assert_eq!(stages[0].control.template_invalidations, 0);
            let logged: Vec<RunInstant> = (0..kinds.len())
                .filter(|_| trace)
                .map(|k| RunInstant {
                    time: at(k),
                    kind: kinds[k],
                })
                .collect();
            assert_eq!(rt.instants, logged, "trace {trace}");
        }
    }

    #[test]
    fn gate_blockage_backs_off_then_escalates_with_a_fresh_budget_each_time() {
        let mut rt = sort(true);
        run_on(&mut rt, &[0, 1, 0, 1], SimTime::ZERO);
        // Both machines hold map output; cutting them apart blocks every
        // reduce task.
        assert!(rt.cut(0, 1) && rt.cut(1, 0));
        for episode in 0..2 {
            let t0 = SimTime::from_secs(100 * episode);
            rt.arm_gate_timers(t0);
            let mut fired = Vec::new();
            let escalation = loop {
                let now = rt.next_wakeup().expect("gate timer armed");
                rt.drain_wakeups(now);
                fired.push(now.since(t0).as_secs_f64());
                if let Some(e) = rt.gate_timeout(0, 1, now) {
                    break e;
                }
            };
            // Timeout 1 s, then backoffs of 1, 2 and 4 s, then re-plan.
            assert_eq!(fired, vec![1.0, 2.0, 4.0, 8.0], "episode {episode}");
            assert_eq!(escalation, (0, FETCH_MAX_RETRIES + 1));
        }
        assert_eq!(rt.jobs[0].recovery.fetch_retries, 8);
        assert_eq!(rt.jobs[0].recovery.fetch_backoff_seconds, 14.0);
        // The best receiver reaches itself; the other sender is offending
        // and its producers can re-run only on the receiver.
        let (mstar, offending) = rt.unreachable_plan(0, 1, 0, 4, SimTime::ZERO).unwrap();
        assert_eq!((mstar, offending.clone()), (0, vec![1]));
        rt.check_resubmittable((0, 1, 0), 1, mstar, 4).unwrap();
        rt.resubmit_from(1, SimTime::from_secs(1)).unwrap();
        assert!(!rt.schedulable(1));
        assert!(rt.heal(1, 0) && rt.schedulable(1));
    }
}
