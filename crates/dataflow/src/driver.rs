//! The event loop both executors share.
//!
//! [`run`] is the discrete-event loop of a simulated run, written once. It
//! owns the order of one batch, the termination rule, the next-event fold,
//! the step budget and the loop's wall clock, plus the skeleton of partition
//! escalation. Each executor implements [`Engine`]: what names its allocator
//! and fault types, or differs by architecture. `dataflow` cannot see the
//! `cluster` crate, so the machine layer (`cluster::Hosts`: allocator
//! batches and polls, fault actions, sampling) is reached through the hooks.
//!
//! One batch per event instant, in this order:
//!
//! 1. [`Engine::open_batch`]: open every allocator's batch, apply the fault
//!    actions due now (a crash at `t` wins against completions at `t`);
//!    then drain the runtime's wake-ups due now;
//! 2. partition recovery, with partitions on: fire the due fetch stall
//!    clocks in the runtime's registry, in key order, aborting each attempt
//!    that spends its budget ([`Engine::abort_stalled`]) and re-planning it
//!    through [`replan`], then the due gate timeouts;
//! 3. [`Engine::complete`]: local timers and allocator completions;
//! 4. [`Engine::step`] to a fixpoint (assign, dispatch, speculate);
//! 5. arm the gate timers, with partitions on;
//! 6. [`Engine::commit`]: commit the batches, sample.
//!
//! Every recovery decision is taken in steps 1 and 2 or by the engine's own
//! handlers, and each is recorded where it is taken
//! ([`Runtime::record`]), so the instant log needs no step of its own.
//!
//! Everything happens at one instant, so each allocator reallocates once per
//! event. The run ends as soon as every job is done. Otherwise the next
//! event is the earliest of [`Engine::next_event`] and the runtime's
//! wake-ups (stall expiries and speculation checks). A fabric flow parked on
//! a cut pair reports [`SimTime::FAR_FUTURE`], which is no event: with
//! nothing else left, the run fails with the starvation error instead of
//! jumping to the end of time.

use std::ops::Bound;

use simcore::{SimStats, SimTime};

use crate::runtime::Runtime;
use crate::RunError;

/// One executor architecture, as the shared event loop drives it. Every hook
/// runs at the batch instant last passed to [`Engine::open_batch`].
pub trait Engine {
    /// The job/stage runtime the executor holds.
    fn rt(&mut self) -> &mut Runtime;

    /// Opens a batch at `now`: moves the executor's clock there, opens every
    /// allocator's batched-update scope and applies the fault actions due.
    fn open_batch(&mut self, now: SimTime) -> Result<(), RunError>;

    /// Drains the local timers and allocator completions due now, running
    /// their handlers.
    fn complete(&mut self);

    /// One pass of assignment, dispatch and speculation. Returns whether any
    /// state changed; the driver repeats it until nothing does.
    fn step(&mut self) -> bool;

    /// Commits every allocator's batch and samples the traces.
    fn commit(&mut self);

    /// The earliest pending local event: allocator completions, local timers
    /// and fault actions.
    fn next_event(&mut self) -> Option<SimTime>;

    /// Partition runs: a stall clock of `attempt` (the first half of its
    /// [`crate::runtime::FetchKey`]) spent its retry budget. Charges the
    /// attempt's stalled fetches as re-planned and aborts it, re-queueing
    /// its task; the driver then calls [`replan`].
    fn abort_stalled(&mut self, attempt: usize) -> Result<(), RunError>;

    /// Partition runs: charges and aborts every attempt still fetching from
    /// machine `s`, whose lineage is about to be resubmitted.
    fn abort_fetching_from(&mut self, s: usize) -> Result<(), RunError>;
}

/// Safety valve on simulation events: a run that takes more fails with
/// [`RunError::StepBudgetExhausted`] instead of looping forever.
pub const MAX_STEPS: u64 = 50_000_000;

/// Runs `e` until every job is done, or fails after [`MAX_STEPS`] events.
/// Returns the loop's stats: `events` and the raw loop wall in
/// `control_nanos` (see [`Runtime::into_reports`]).
pub fn run<E: Engine>(e: &mut E) -> Result<SimStats, RunError> {
    run_for(e, MAX_STEPS)
}

/// [`run`] with a step budget of `max_steps` events.
fn run_for<E: Engine>(e: &mut E, max_steps: u64) -> Result<SimStats, RunError> {
    let loop_timer = std::time::Instant::now();
    let partitions = e.rt().partitions_on();
    let mut now = SimTime::ZERO;
    let mut steps: u64 = 0;
    loop {
        e.open_batch(now)?;
        e.rt().drain_wakeups(now);
        if partitions {
            recover_partitions(e, now)?;
        }
        e.complete();
        while e.step() {}
        if partitions {
            e.rt().arm_gate_timers(now);
        }
        e.commit();
        if e.rt().jobs.iter().all(|j| j.done) {
            break;
        }
        let next = [e.next_event(), e.rt().next_wakeup()]
            .into_iter()
            .flatten()
            .min()
            .filter(|&t| !(partitions && t == SimTime::FAR_FUTURE));
        let Some(t) = next else {
            if let Some(err) = e.rt().starvation_error() {
                return Err(err);
            }
            return Err(RunError::no_runnable_work(now));
        };
        now = t;
        steps += 1;
        if steps > max_steps {
            return Err(RunError::StepBudgetExhausted { steps });
        }
    }
    let mut stats = SimStats::new();
    stats.events = steps;
    stats.control_nanos = loop_timer.elapsed().as_nanos() as u64;
    Ok(stats)
}

/// Fires the stall clocks due at `now`: every fetch's, in key order, then
/// every stage's gate clock, escalating each spent budget. An attempt whose
/// fetch spends its budget is aborted, so the rest of its fetches are
/// skipped.
fn recover_partitions<E: Engine>(e: &mut E, now: SimTime) -> Result<(), RunError> {
    let mut from = Bound::Unbounded;
    while let Some(key) = e.rt().next_due_stall(from, now) {
        from = Bound::Excluded(key);
        if let Some((task, retries)) = e.rt().tick_stall(key, now) {
            from = Bound::Excluded((key.0, usize::MAX));
            e.abort_stalled(key.0)?;
            replan(e, task, retries, now)?;
        }
    }
    for ji in 0..e.rt().jobs.len() {
        for si in 0..e.rt().jobs[ji].stages.len() {
            if let Some((ti, retries)) = e.rt().gate_timeout(ji, si, now) {
                resolve_unreachable(e, (ji, si, ti), retries, now)?;
            }
        }
    }
    Ok(())
}

/// The tail of re-planning a stalled attempt of `task`, which the engine has
/// already stopped and aborted (re-queueing the task): if no machine can
/// host the task across the current cuts, resolve at the sender level.
pub fn replan<E: Engine>(
    e: &mut E,
    task: (usize, usize, usize),
    retries: u32,
    now: SimTime,
) -> Result<(), RunError> {
    let (ji, si, ti) = task;
    if e.rt().any_host(ji, si, ti) {
        return Ok(());
    }
    resolve_unreachable(e, task, retries, now)
}

/// Sender-level re-planning for `task`, which no machine can host: the
/// runtime picks the receiver and the senders it cannot reach; each such
/// sender's fetching attempts are aborted and its lineage resubmitted, or
/// the run fails fast with [`RunError::Unreachable`].
fn resolve_unreachable<E: Engine>(
    e: &mut E,
    task: (usize, usize, usize),
    retries: u32,
    now: SimTime,
) -> Result<(), RunError> {
    let (ji, si, ti) = task;
    let (mstar, offending) = e.rt().unreachable_plan(ji, si, ti, retries, now)?;
    for s in offending {
        e.rt().check_resubmittable(task, s, mstar, retries)?;
        // Their own timers would walk into this same resolution.
        e.abort_fetching_from(s)?;
        e.rt().resubmit_from(s, now)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use crate::{BlockMap, CostModel, JobBuilder, JobId, StageId, TaskId};
    use simcore::InstantKind;

    /// A one-machine engine whose tasks each take one second, logging every
    /// hook call.
    struct Fake {
        rt: Runtime,
        now: SimTime,
        running: Vec<(SimTime, (usize, usize, usize))>,
        log: Vec<&'static str>,
        /// Tasks never finish: nothing is ever pending.
        stuck: bool,
        /// Partition runs: the first launch's fetch stalls on this sender
        /// (into machine 0) until it is aborted.
        stall_on: Option<usize>,
        /// Attempts launched so far, numbering the stall registry's keys.
        launches: usize,
        /// The stalled attempt's task.
        stalled: Option<(usize, usize, usize)>,
        /// Every `abort_stalled` call: the attempt and the instant.
        aborts: Vec<(usize, SimTime)>,
    }

    impl Fake {
        fn new(tasks: usize, stuck: bool) -> Fake {
            let cfg = RuntimeConfig {
                trace: false,
                lineage: false,
                partitions: false,
                fetch_timeout_secs: None,
            };
            Fake::with(tasks, stuck, cfg, 1)
        }

        /// A two-machine partition run with `sender → 0` cut, whose first
        /// launch stalls on `sender`.
        fn partitioned(tasks: usize, timeout: Option<f64>, sender: usize) -> Fake {
            let cfg = RuntimeConfig {
                trace: true,
                lineage: true,
                partitions: true,
                fetch_timeout_secs: timeout,
            };
            let mut e = Fake::with(tasks, false, cfg, 2);
            e.rt.cut(sender, 0);
            e.stall_on = Some(sender);
            e
        }

        fn with(tasks: usize, stuck: bool, cfg: RuntimeConfig, machines: usize) -> Fake {
            let gib = 1024.0 * 1024.0 * 1024.0;
            let job = JobBuilder::new("scan", CostModel::spark_1_3())
                .read_disk(gib, 1e6, gib / tasks as f64)
                .map(1.0, 1.0, false)
                .write_disk(1.0);
            let blocks = BlockMap::round_robin(tasks, 1, 1);
            let jobs = [(job, blocks)];
            Fake {
                rt: Runtime::new(&jobs, machines, cfg, |_, _, _, _, _| true).unwrap(),
                now: SimTime::ZERO,
                running: Vec::new(),
                log: Vec::new(),
                stuck,
                stall_on: None,
                launches: 0,
                stalled: None,
                aborts: Vec::new(),
            }
        }
    }

    impl Engine for Fake {
        fn rt(&mut self) -> &mut Runtime {
            &mut self.rt
        }
        fn open_batch(&mut self, now: SimTime) -> Result<(), RunError> {
            self.now = now;
            self.log.push("open");
            Ok(())
        }
        fn complete(&mut self) {
            self.log.push("complete");
            let now = self.now;
            for (_, (ji, si, ti)) in self.running.iter().filter(|(t, _)| *t <= now) {
                self.rt.complete_task(*ji, *si, *ti, 0, now);
            }
            self.running.retain(|(t, _)| *t > now);
        }
        fn step(&mut self) -> bool {
            self.log.push("step");
            // One task at a time.
            if !self.running.is_empty() {
                return false;
            }
            let Some(task) = self.rt.pick_task(0) else {
                return false;
            };
            self.rt.mark_started(task.0, task.1, self.now);
            let attempt = self.launches;
            self.launches += 1;
            if let Some(sender) = self.stall_on.take() {
                let now = self.now;
                self.rt.arm_stall((attempt, 0), task, 0, Some(sender), now);
                self.stalled = Some(task);
                return true;
            }
            let end = self.now + simcore::SimDuration::from_secs(1);
            self.running.push((end, task));
            true
        }
        fn commit(&mut self) {
            self.log.push("commit");
        }
        fn next_event(&mut self) -> Option<SimTime> {
            self.running
                .iter()
                .map(|&(t, _)| t)
                .min()
                .filter(|_| !self.stuck)
        }
        fn abort_stalled(&mut self, attempt: usize) -> Result<(), RunError> {
            self.aborts.push((attempt, self.now));
            let (ji, si, ti) = self.stalled.take().expect("a stalled attempt");
            let stalled = self.rt.drop_stalls(attempt, self.now);
            self.rt.jobs[ji].recovery.stalled_fetch_seconds += stalled;
            self.rt.requeue_task(ji, si, ti, false, self.now)
        }
        fn abort_fetching_from(&mut self, _: usize) -> Result<(), RunError> {
            unreachable!("every task has a host")
        }
    }

    #[test]
    fn one_batch_per_event_in_order_until_every_job_is_done() {
        let mut e = Fake::new(3, false);
        let stats = run(&mut e).expect("run completes");
        // Three one-second tasks back to back: three events after t = 0.
        assert_eq!(stats.events, 3);
        assert_eq!(e.now, SimTime::from_secs(3));
        let batch = ["open", "complete", "step", "step", "commit"];
        assert_eq!(e.log.len(), 4 * batch.len() - 1, "{:?}", e.log);
        assert_eq!(e.log[..batch.len()], batch);
    }

    #[test]
    fn the_step_budget_and_an_empty_fold_fail_the_run() {
        let mut e = Fake::new(3, false);
        let err = run_for(&mut e, 2).unwrap_err();
        assert_eq!(err, RunError::StepBudgetExhausted { steps: 3 });
        let mut e = Fake::new(3, true);
        let err = run(&mut e).unwrap_err();
        assert_eq!(err, RunError::no_runnable_work(SimTime::ZERO));
    }

    #[test]
    fn a_stalled_fetch_backs_off_then_is_aborted_once_when_its_budget_is_spent() {
        let mut e = Fake::partitioned(1, Some(5.0), 1);
        let mut stats = run(&mut e).expect("the re-run completes");
        // Expiries at 5 s (the timeout), then 1, 2 and 4 s of backoff; the
        // fourth retry spends the budget, and the re-run ends at 13 s.
        assert_eq!(e.aborts, [(0, SimTime::from_secs(12))]);
        assert_eq!((stats.events, e.now), (5, SimTime::from_secs(13)));
        let (reports, instants) = e.rt.into_reports(&mut stats);
        let retries: Vec<(f64, u32)> = instants
            .iter()
            .filter_map(|i| match i.kind {
                InstantKind::FetchRetry { attempt, .. } => Some((i.time.as_secs_f64(), attempt)),
                _ => None,
            })
            .collect();
        assert_eq!(retries, [(5.0, 1), (6.0, 2), (8.0, 3), (12.0, 4)]);
        let r = &reports[0].recovery;
        assert_eq!((r.fetch_retries, r.tasks_retried), (4, 1));
        assert_eq!(
            (r.fetch_backoff_seconds, r.stalled_fetch_seconds),
            (7.0, 12.0)
        );
    }

    #[test]
    fn without_a_timeout_a_fetch_that_never_resumes_names_its_task_and_sender() {
        let mut e = Fake::partitioned(2, None, 1);
        let err = run(&mut e).unwrap_err();
        // Task 1 ran to completion meanwhile; task 0 waits on machine 1.
        assert_eq!(e.now, SimTime::from_secs(1));
        assert!(e.aborts.is_empty());
        let unreachable = RunError::Unreachable {
            job: JobId(0),
            stage: StageId(0),
            task: TaskId(0),
            machine: 1,
            retries: 0,
        };
        assert_eq!(err, unreachable);
    }
}
