//! The machine layer both executors share.
//!
//! [`Hosts`] holds every machine's [`FluidMachine`] and what the event loop
//! does to all of them: open and commit each event's batch, poll
//! completions behind a per-machine deadline cache, apply machine-local
//! fault actions and sample utilization. The executors differ
//! in what they run on a machine, not in how its allocator is driven, so
//! that rule lives here once.
//!
//! Liveness stays with the caller, who passes its `alive` slice: a dead
//! machine is never polled or sampled, adds no deadline, and a scale action
//! aimed at it is returned without being applied.

use std::ops::{Index, IndexMut};

use simcore::{SimStats, SimTime};

use crate::faults::{FaultAction, FaultPlan, FaultTimeline};
use crate::fluid::{FluidMachine, MachineId, StreamId};
use crate::hw::ClusterSpec;
use crate::trace::TraceSet;

/// Every machine's allocator, the fault schedule and the utilization traces
/// of one run.
#[derive(Debug)]
pub struct Hosts {
    machines: Vec<FluidMachine>,
    /// Each machine's next completion, valid while its allocator's
    /// [`FluidMachine::epoch`] equals `epoch[m]`. Deadlines move only on
    /// reallocations, and every mutation bumps the epoch, so the polls and
    /// the next-event fold skip every machine whose streams did not change.
    next: Vec<Option<SimTime>>,
    epoch: Vec<u64>,
    /// Completion buffer reused across polls, which must not allocate.
    done: Vec<StreamId>,
    faults: FaultTimeline,
    traces: TraceSet,
    sample: bool,
}

impl Hosts {
    /// One allocator per machine of `cluster`, with `plan` compiled.
    /// `sample` arms utilization sampling at every commit. Fails with the
    /// first violation of [`ClusterSpec::validate`], then of
    /// [`FaultPlan::validate`].
    pub fn new(cluster: &ClusterSpec, plan: &FaultPlan, sample: bool) -> Result<Hosts, String> {
        cluster.validate()?;
        plan.validate(cluster)?;
        let n = cluster.machines;
        Ok(Hosts {
            machines: (0..n)
                .map(|_| FluidMachine::new(cluster.machine.clone()))
                .collect(),
            next: vec![None; n],
            epoch: vec![u64::MAX; n],
            done: Vec::new(),
            faults: plan.compile(),
            traces: TraceSet::new(),
            sample,
        })
    }

    /// Opens every machine's batched-update scope for one event instant.
    pub fn open_batch(&mut self) {
        for m in &mut self.machines {
            m.begin_update();
        }
    }

    /// Pops the next fault action due at `now`, applying a disk or link
    /// scale to its machine if that machine is alive. Every action is
    /// returned: the caller records it and applies the rest.
    pub fn pop_fault(&mut self, now: SimTime, alive: &[bool]) -> Option<FaultAction> {
        let action = self.faults.pop_due(now)?;
        match action {
            FaultAction::SetDiskScale {
                machine,
                disk,
                factor,
            } if alive[machine] => self.machines[machine].set_disk_scale(now, disk, factor),
            FaultAction::SetLinkScale { machine, factor } if alive[machine] => {
                self.machines[machine].set_nic_scale(now, factor);
            }
            _ => {}
        }
        Some(action)
    }

    /// The streams of machine `m` that completed by `now`, in ascending id
    /// order; `None` for a dead machine or one whose cached deadline lies
    /// ahead. Handle them before polling the next machine (a handler may
    /// insert on it), then hand the buffer back with [`Hosts::recycle`].
    pub fn poll(&mut self, m: usize, now: SimTime, alive: &[bool]) -> Option<Vec<StreamId>> {
        if !alive[m] || !self.may_complete(m, now) {
            return None;
        }
        let mut done = std::mem::take(&mut self.done);
        self.machines[m].take_completed_into(now, &mut done);
        Some(done)
    }

    /// Returns the buffer [`Hosts::poll`] handed out.
    pub fn recycle(&mut self, done: Vec<StreamId>) {
        self.done = done;
    }

    /// Commits every machine's batch, then advances each live machine to
    /// `now`. When sampling, snapshots each live machine's utilization and
    /// hands it to `extra` for the caller's own samples, in machine order.
    pub fn commit(
        &mut self,
        now: SimTime,
        alive: &[bool],
        mut extra: impl FnMut(usize, &mut TraceSet),
    ) {
        for m in &mut self.machines {
            m.commit(now);
        }
        for (m, fluid) in self.machines.iter_mut().enumerate() {
            if !alive[m] {
                continue;
            }
            fluid.advance(now);
            if self.sample {
                self.traces.snapshot(now, MachineId(m), fluid);
                extra(m, &mut self.traces);
            }
        }
    }

    /// The earliest completion on a live machine or the next fault action,
    /// whichever comes first.
    pub fn next_event(&mut self, now: SimTime, alive: &[bool]) -> Option<SimTime> {
        [self.earliest(now, alive), self.faults.next_time()]
            .into_iter()
            .flatten()
            .min()
    }

    /// CPU-work multiplier of the first attempt of `(stage, task)`, if the
    /// plan makes it a straggler.
    pub fn straggle_factor(&self, stage: usize, task: usize) -> Option<f64> {
        self.faults.straggle_factor(stage, task)
    }

    /// The run's utilization traces. Each allocator's counters merge into
    /// `stats` as machine-local allocation. Panics if a live machine still
    /// holds a parked stream: a completed run resumes or drops them all.
    pub fn into_output(self, alive: &[bool], stats: &mut SimStats) -> TraceSet {
        for (m, fluid) in self.machines.iter().enumerate() {
            let parked = fluid.parked().next().filter(|_| alive[m]);
            assert!(
                parked.is_none(),
                "machine {m} ends the run with {parked:?} parked"
            );
            stats.merge(&fluid.stats().as_machine_alloc());
        }
        self.traces
    }

    /// Whether machine `m` may have a completion due at `now`: false only
    /// when its cached deadline is still valid and lies after `now`.
    fn may_complete(&self, m: usize, now: SimTime) -> bool {
        self.epoch[m] != self.machines[m].epoch() || self.next[m].is_some_and(|t| t <= now)
    }

    /// The earliest next completion over the live machines, re-deriving only
    /// deadlines whose epoch moved.
    fn earliest(&mut self, now: SimTime, alive: &[bool]) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        for (m, fluid) in self.machines.iter_mut().enumerate() {
            let epoch = fluid.epoch();
            if !alive[m] {
                self.next[m] = None;
                self.epoch[m] = epoch;
                continue;
            }
            if self.epoch[m] != epoch {
                self.next[m] = fluid.next_completion(now);
                self.epoch[m] = epoch;
            }
            if let Some(t) = self.next[m] {
                next = Some(next.map_or(t, |b| b.min(t)));
            }
        }
        next
    }
}

impl Index<usize> for Hosts {
    type Output = FluidMachine;

    fn index(&self, m: usize) -> &FluidMachine {
        &self.machines[m]
    }
}

impl IndexMut<usize> for Hosts {
    fn index_mut(&mut self, m: usize) -> &mut FluidMachine {
        &mut self.machines[m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::{DiskId, StreamDemand};
    use crate::hw::{DiskSpec, MachineSpec, MIB};
    use simcore::SimDuration;

    fn spec() -> MachineSpec {
        MachineSpec {
            cores: 4,
            memory: 4.0 * 1024.0 * MIB,
            disks: vec![DiskSpec::hdd(); 2],
            nic: 125.0 * MIB,
        }
    }

    fn hosts(plan: &FaultPlan) -> Hosts {
        Hosts::new(&ClusterSpec::new(3, spec()), plan, true).expect("valid inputs")
    }

    /// Starts stream 0, one CPU-second, on machine `m` at time zero.
    fn run_cpu(h: &mut Hosts, m: usize) {
        h.open_batch();
        h[m].insert(SimTime::ZERO, StreamId(0), StreamDemand::cpu_only(1.0, 2));
        h.commit(SimTime::ZERO, &[true; 3], |_, _| {});
    }

    #[test]
    fn new_rejects_an_invalid_cluster_then_an_invalid_plan() {
        let mut bad = ClusterSpec::new(3, spec());
        bad.machine.cores = 0;
        let bad_plan = FaultPlan::new().crash(7, SimTime::from_secs(1));
        let err = Hosts::new(&bad, &bad_plan, true).unwrap_err();
        assert_eq!(err, "machine has zero cores");
        let err = Hosts::new(&ClusterSpec::new(3, spec()), &bad_plan, true).unwrap_err();
        assert_eq!(
            err,
            bad_plan.validate(&ClusterSpec::new(3, spec())).unwrap_err()
        );
    }

    #[test]
    fn a_scale_action_on_a_dead_machine_is_returned_but_not_applied() {
        let (t, until) = (SimTime::from_secs(1), SimTime::from_secs(9));
        let plan = FaultPlan::new()
            .degrade_disk(0, 0, 0.5, t, until)
            .degrade_link(0, 0.5, t, until)
            .degrade_disk(1, 0, 0.5, t, until)
            .degrade_link(2, 0.5, t, until);
        let alive = [false, true, true];
        let mut h = hosts(&plan);
        let mut twin = hosts(&FaultPlan::new());
        for m in 0..3 {
            run_cpu(&mut h, m);
            run_cpu(&mut twin, m);
        }
        h.open_batch();
        let popped: Vec<FaultAction> = std::iter::from_fn(|| h.pop_fault(t, &alive)).collect();
        assert_eq!(popped.len(), 4, "every due action comes back: {popped:?}");
        h.commit(t, &alive, |_, _| {});
        // The dead machine's allocator never saw its scales; the live ones
        // saw theirs.
        assert_eq!(h[0].epoch(), twin[0].epoch());
        assert_ne!(h[1].epoch(), twin[1].epoch());
        assert_ne!(h[2].epoch(), twin[2].epoch());
    }

    #[test]
    fn a_dead_machine_is_never_polled_sampled_or_waited_for() {
        let late = SimTime::from_secs(5);
        let busy = || {
            let mut h = hosts(&FaultPlan::new());
            run_cpu(&mut h, 1);
            h
        };
        for alive in [[true; 3], [true, false, true]] {
            let next = busy().next_event(SimTime::ZERO, &alive);
            // A fresh cache: only liveness keeps the poll off the machine.
            let mut h = busy();
            let done = h.poll(1, late, &alive).unwrap_or_default();
            h.open_batch();
            let mut sampled = Vec::new();
            h.commit(late, &alive, |m, _| sampled.push(m));
            if alive[1] {
                assert_eq!(next, Some(SimTime::from_secs(1)));
                assert_eq!(done, [StreamId(0)]);
                assert_eq!(sampled, [0, 1, 2]);
            } else {
                assert_eq!(next, None);
                assert!(done.is_empty());
                assert!(
                    h[1].rate(StreamId(0)).is_some(),
                    "the dead machine was polled"
                );
                assert_eq!(sampled, [0, 2]);
            }
        }
    }

    #[test]
    fn the_next_event_is_the_earliest_deadline_or_the_next_fault() {
        let fault_at = SimTime::from_secs_f64(0.5);
        let plan = FaultPlan::new().crash(2, fault_at);
        let mut h = hosts(&plan);
        let all = [true; 3];
        assert_eq!(h.next_event(SimTime::ZERO, &all), Some(fault_at));
        run_cpu(&mut h, 0);
        assert_eq!(h.next_event(SimTime::ZERO, &all), Some(fault_at));
        h.open_batch();
        assert_eq!(
            h.pop_fault(fault_at, &all),
            Some(FaultAction::Crash { machine: 2 })
        );
        h.commit(fault_at, &all, |_, _| {});
        assert_eq!(h.next_event(fault_at, &all), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn one_batch_reallocates_each_machine_once() {
        let mut h = hosts(&FaultPlan::new());
        let all = [true; 3];
        h.open_batch();
        for m in 0..3 {
            for i in 0..4 {
                h[m].insert(SimTime::ZERO, StreamId(i), StreamDemand::cpu_only(1.0, 2));
            }
        }
        h.commit(SimTime::ZERO, &all, |_, _| {});
        for m in 0..3 {
            assert_eq!(h[m].stats().reallocs, 1, "machine {m}");
        }
        let mut stats = SimStats::new();
        let traces = h.into_output(&all, &mut stats);
        assert_eq!(stats.reallocs, 3);
        assert_eq!(traces.machines().len(), 3);
    }

    #[test]
    fn sampling_off_samples_nothing() {
        let cluster = ClusterSpec::new(3, spec());
        let mut h = Hosts::new(&cluster, &FaultPlan::new(), false).unwrap();
        h.open_batch();
        h.commit(SimTime::ZERO, &[true; 3], |_, _| {
            panic!("sampled with sampling off")
        });
        assert!(h
            .into_output(&[true; 3], &mut SimStats::new())
            .machines()
            .is_empty());
    }

    /// The deadline cache driven the way the executors drive it — mutate,
    /// sweep for the next deadline, jump there, poll for completions — under
    /// random inserts, removals, scale changes and crashes: the cached
    /// earliest deadline always equals a fresh [`FluidMachine::next_completion`]
    /// sweep, and the poll never skips a machine with a completion due.
    #[test]
    fn deadline_cache_matches_fresh_next_completion() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(14);
        let mut h = hosts(&FaultPlan::new());
        let mut alive = [true; 3];
        let mut live: Vec<Vec<StreamId>> = vec![Vec::new(); 3];
        let mut now = SimTime::ZERO;
        let mut polled = true;
        let mut done = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..4000 {
            let m: usize = rng.gen_range(0..3);
            match rng.gen_range(0..10usize) {
                0..=2 if alive[m] => {
                    let size = rng.gen_range(0.01..2.0);
                    let demand = match rng.gen_range(0..3usize) {
                        0 => StreamDemand::cpu_only(size, 2),
                        1 => {
                            StreamDemand::disk_read_only(DiskId(rng.gen_range(0..2)), size * MIB, 2)
                        }
                        _ => StreamDemand::rx_only(size * MIB, 2),
                    };
                    h[m].insert(now, StreamId(next_id), demand);
                    live[m].push(StreamId(next_id));
                    next_id += 1;
                }
                3 if !live[m].is_empty() => {
                    let k = rng.gen_range(0..live[m].len());
                    let id = live[m].swap_remove(k);
                    h[m].remove(now, id);
                }
                4 if alive[m] => {
                    let factor = rng.gen_range(0.2..1.5);
                    if rng.gen_range(0..2usize) == 0 {
                        h[m].set_disk_scale(now, rng.gen_range(0..2), factor);
                    } else {
                        h[m].set_nic_scale(now, factor);
                    }
                }
                5 => {
                    // A crash tears the machine's streams down; a restart
                    // brings it back empty.
                    if alive[m] {
                        for id in live[m].drain(..) {
                            h[m].remove(now, id);
                        }
                    }
                    alive[m] = !alive[m];
                }
                _ if polled => {
                    let cached = h.earliest(now, &alive);
                    let fresh = (0..3)
                        .filter(|&m| alive[m])
                        .filter_map(|m| h[m].next_completion(now))
                        .min();
                    assert_eq!(cached, fresh);
                    let step = SimDuration::from_secs_f64(rng.gen_range(0.0..1.0));
                    let horizon = SimTime(now.0 + step.0);
                    now = cached.map_or(horizon, |t| t.min(horizon));
                    polled = false;
                }
                _ => {
                    for m in 0..3 {
                        let due = alive[m] && h[m].next_completion(now).is_some_and(|t| t <= now);
                        if !alive[m] || !h.may_complete(m, now) {
                            assert!(!due, "poll skipped machine {m} with a completion due");
                            continue;
                        }
                        h[m].advance(now);
                        h[m].take_completed_into(now, &mut done);
                        live[m].retain(|id| !done.contains(id));
                    }
                    polled = true;
                }
            }
        }
    }
}
