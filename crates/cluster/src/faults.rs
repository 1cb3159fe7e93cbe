//! Deterministic fault injection: scheduled crashes, degradations, stragglers.
//!
//! A [`FaultPlan`] is a list of *scheduled* fault events — there is no
//! wall-clock randomness anywhere. Randomised plans come from
//! [`FaultPlan::random`], which derives every choice from an explicit seed via
//! the repo's deterministic `SmallRng`, so a (seed, spec, intensity) triple
//! always produces the same plan and therefore the same simulated run.
//!
//! Executors consume a plan through [`crate::Hosts`], which compiles the
//! declarative events into a time-sorted timeline of atomic
//! [`FaultAction`]s (a `DiskDegrade` becomes a scale-set at `from` and an
//! explicit scale-restore to `1.0` at `until` — restoring by multiplication
//! would not be bit-exact; a `Partition` becomes one `CutPair`/`HealPair`
//! per directed cross-group pair, in sorted pair order) plus a sorted
//! straggle-factor lookup table.
//!
//! The determinism contract: an **empty plan must be a perfect no-op**. The
//! compiled timeline of an empty plan schedules nothing, and every hook the
//! executors call (`pop_fault`, `straggle_factor`) returns `None`, so the
//! fault-free event sequence is bit-identical to a run without any fault
//! machinery at all.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simcore::{InstantKind, SimTime};

use crate::hw::ClusterSpec;

/// One declarative fault event.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Machine `machine` fails permanently at time `at`: in-flight work on it
    /// aborts, and its buffer cache and stored shuffle outputs are lost.
    MachineCrash {
        /// Index of the machine that crashes.
        machine: usize,
        /// Instant of the crash.
        at: SimTime,
    },
    /// Disk `disk` on `machine` serves at `factor ×` its healthy rate over
    /// `[from, until)` — the paper's §3.3 seek/contention pathology turned
    /// pathological (e.g. a remapping-sector drive at `factor = 0.25`).
    DiskDegrade {
        /// Machine owning the disk.
        machine: usize,
        /// Disk index within the machine.
        disk: usize,
        /// Service-rate multiplier in `(0, 1]` while degraded.
        factor: f64,
        /// Start of the degraded window.
        from: SimTime,
        /// End of the degraded window (rate restored exactly to healthy).
        until: SimTime,
    },
    /// The NIC of `machine` carries `factor ×` its healthy bandwidth over
    /// `[from, until)` (receiver-side model; see DESIGN.md §6).
    LinkDegrade {
        /// Machine whose link degrades.
        machine: usize,
        /// Bandwidth multiplier in `(0, 1]` while degraded.
        factor: f64,
        /// Start of the degraded window.
        from: SimTime,
        /// End of the degraded window.
        until: SimTime,
    },
    /// Task `task` of stage `stage` (first attempt only, in every job of the
    /// run) takes `factor ×` its normal CPU work — a data-skew/JIT straggler.
    /// Retries and speculative copies run at full speed, which is what makes
    /// speculation profitable.
    TaskStraggle {
        /// Stage index the straggler belongs to.
        stage: usize,
        /// Task index within the stage.
        task: usize,
        /// CPU-work multiplier, `≥ 1`.
        factor: f64,
    },
    /// A network partition: machines in different `groups` cannot exchange
    /// bytes over `[start, heal)`. Every machine stays alive and keeps its
    /// local disks — only cross-group fabric pairs are cut (both directions).
    /// `heal: None` means the partition never heals within the run.
    Partition {
        /// Disjoint machine groups; traffic is cut between groups, not
        /// within them.
        groups: Vec<Vec<usize>>,
        /// Instant the cut takes effect.
        start: SimTime,
        /// Instant connectivity is restored, or `None` for a permanent cut.
        heal: Option<SimTime>,
    },
    /// An asymmetric cut of one directed fabric pair: `src` cannot send to
    /// `dst` over `[start, heal)`, while the reverse direction stays healthy.
    LinkCut {
        /// Sending machine of the cut direction.
        src: usize,
        /// Receiving machine of the cut direction.
        dst: usize,
        /// Instant the cut takes effect.
        start: SimTime,
        /// Instant the direction is restored, or `None` for a permanent cut.
        heal: Option<SimTime>,
    },
}

/// A schedule of fault events for one simulated run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Shape parameters for [`FaultPlan::random`].
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// Number of machines in the target cluster.
    pub machines: usize,
    /// Disks per machine (uniform; the repo's cluster specs are homogeneous).
    pub disks_per_machine: usize,
    /// Rough expected makespan of the fault-free run; events are scheduled
    /// inside this window so they actually land mid-run.
    pub horizon: SimTime,
    /// Number of stages in the workload (for straggler targeting).
    pub stages: usize,
    /// Tasks per stage (for straggler targeting).
    pub tasks_per_stage: usize,
}

impl FaultSpec {
    /// Derives a spec from a cluster and workload shape.
    pub fn new(
        cluster: &ClusterSpec,
        horizon: SimTime,
        stages: usize,
        tasks_per_stage: usize,
    ) -> FaultSpec {
        FaultSpec {
            machines: cluster.machines,
            disks_per_machine: cluster.machine.disks.len(),
            horizon,
            stages,
            tasks_per_stage,
        }
    }
}

impl FaultPlan {
    /// An empty plan (perfect no-op).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds a machine crash.
    pub fn crash(mut self, machine: usize, at: SimTime) -> FaultPlan {
        self.events.push(FaultEvent::MachineCrash { machine, at });
        self
    }

    /// Adds a disk degradation window.
    pub fn degrade_disk(
        mut self,
        machine: usize,
        disk: usize,
        factor: f64,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        self.events.push(FaultEvent::DiskDegrade {
            machine,
            disk,
            factor,
            from,
            until,
        });
        self
    }

    /// Adds a link degradation window.
    pub fn degrade_link(
        mut self,
        machine: usize,
        factor: f64,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        self.events.push(FaultEvent::LinkDegrade {
            machine,
            factor,
            from,
            until,
        });
        self
    }

    /// Adds a task straggler.
    pub fn straggle(mut self, stage: usize, task: usize, factor: f64) -> FaultPlan {
        self.events.push(FaultEvent::TaskStraggle {
            stage,
            task,
            factor,
        });
        self
    }

    /// Adds a network partition separating `groups` over `[start, heal)`.
    pub fn partition(
        mut self,
        groups: Vec<Vec<usize>>,
        start: SimTime,
        heal: Option<SimTime>,
    ) -> FaultPlan {
        self.events.push(FaultEvent::Partition {
            groups,
            start,
            heal,
        });
        self
    }

    /// Adds an asymmetric cut of the directed pair `src → dst`.
    pub fn cut_link(
        mut self,
        src: usize,
        dst: usize,
        start: SimTime,
        heal: Option<SimTime>,
    ) -> FaultPlan {
        self.events.push(FaultEvent::LinkCut {
            src,
            dst,
            start,
            heal,
        });
        self
    }

    /// True when the plan schedules at least one partition or link cut —
    /// executors use this to arm their partition-recovery machinery only
    /// when it can matter, keeping partition-free runs bit-identical.
    pub fn has_partitions(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::Partition { .. } | FaultEvent::LinkCut { .. }))
    }

    /// Checks the plan against a cluster: every referenced machine and disk
    /// must exist, degrade factors must be positive and finite, straggle
    /// factors at least one, and windows non-empty. Degrade windows on the
    /// same device must not overlap (the timeline restores rates to exactly
    /// `1.0`, so overlapping windows would not compose), and a machine may
    /// crash at most once. Partition windows touching the same machine must
    /// not overlap each other (heal restores connectivity outright, so two
    /// live cuts on one machine would not compose), and a machine may not
    /// crash inside a partition window it belongs to — firing order between
    /// "unreachable" and "dead" would otherwise be undocumented.
    pub fn validate(&self, cluster: &ClusterSpec) -> Result<(), String> {
        let n = cluster.machines;
        let mut crashes: Vec<(usize, SimTime)> = Vec::new();
        let mut disk_windows: Vec<(usize, usize, SimTime, SimTime)> = Vec::new();
        let mut link_windows: Vec<(usize, SimTime, SimTime)> = Vec::new();
        // Machine-granularity partition windows (partitions and link cuts),
        // as (machine, event index, start, effective heal).
        let mut part_windows: Vec<(usize, usize, SimTime, SimTime)> = Vec::new();
        for (i, ev) in self.events.iter().enumerate() {
            match *ev {
                FaultEvent::MachineCrash { machine, at } => {
                    if machine >= n {
                        return Err(format!("fault event {i}: crash of nonexistent machine {machine} (cluster has {n})"));
                    }
                    if crashes.iter().any(|&(m, _)| m == machine) {
                        return Err(format!(
                            "fault event {i}: machine {machine} crashes more than once"
                        ));
                    }
                    crashes.push((machine, at));
                }
                FaultEvent::DiskDegrade {
                    machine,
                    disk,
                    factor,
                    from,
                    until,
                } => {
                    if machine >= n {
                        return Err(format!(
                            "fault event {i}: disk degrade on nonexistent machine {machine}"
                        ));
                    }
                    let nd = cluster.machine.disks.len();
                    if disk >= nd {
                        return Err(format!("fault event {i}: degrade of nonexistent disk {disk} on machine {machine} (has {nd})"));
                    }
                    if !(factor.is_finite() && factor > 0.0) {
                        return Err(format!(
                            "fault event {i}: disk degrade factor {factor} must be finite and > 0"
                        ));
                    }
                    if from >= until {
                        return Err(format!(
                            "fault event {i}: empty degrade window ({from:?} >= {until:?})"
                        ));
                    }
                    for &(m2, d2, f2, u2) in &disk_windows {
                        if m2 == machine && d2 == disk && from < u2 && f2 < until {
                            return Err(format!("fault event {i}: overlapping degrade windows on machine {machine} disk {disk}"));
                        }
                    }
                    disk_windows.push((machine, disk, from, until));
                }
                FaultEvent::LinkDegrade {
                    machine,
                    factor,
                    from,
                    until,
                } => {
                    if machine >= n {
                        return Err(format!(
                            "fault event {i}: link degrade on nonexistent machine {machine}"
                        ));
                    }
                    if !(factor.is_finite() && factor > 0.0) {
                        return Err(format!(
                            "fault event {i}: link degrade factor {factor} must be finite and > 0"
                        ));
                    }
                    if from >= until {
                        return Err(format!(
                            "fault event {i}: empty link degrade window ({from:?} >= {until:?})"
                        ));
                    }
                    for &(m2, f2, u2) in &link_windows {
                        if m2 == machine && from < u2 && f2 < until {
                            return Err(format!("fault event {i}: overlapping link degrade windows on machine {machine}"));
                        }
                    }
                    link_windows.push((machine, from, until));
                }
                FaultEvent::TaskStraggle { factor, .. } => {
                    if !(factor.is_finite() && factor >= 1.0) {
                        return Err(format!(
                            "fault event {i}: straggle factor {factor} must be finite and >= 1"
                        ));
                    }
                }
                FaultEvent::Partition {
                    ref groups,
                    start,
                    heal,
                } => {
                    if groups.len() < 2 {
                        return Err(format!(
                            "fault event {i}: partition needs at least two groups"
                        ));
                    }
                    let mut seen: Vec<usize> = Vec::new();
                    for g in groups {
                        if g.is_empty() {
                            return Err(format!("fault event {i}: empty partition group"));
                        }
                        for &m in g {
                            if m >= n {
                                return Err(format!("fault event {i}: partition of nonexistent machine {m} (cluster has {n})"));
                            }
                            if seen.contains(&m) {
                                return Err(format!(
                                    "fault event {i}: machine {m} appears in two partition groups"
                                ));
                            }
                            seen.push(m);
                        }
                    }
                    let until = Self::check_cut_window(i, start, heal)?;
                    for m in seen {
                        Self::check_part_overlap(&part_windows, i, m, start, until)?;
                        part_windows.push((m, i, start, until));
                    }
                }
                FaultEvent::LinkCut {
                    src,
                    dst,
                    start,
                    heal,
                } => {
                    if src >= n || dst >= n {
                        return Err(format!("fault event {i}: link cut between nonexistent machines {src} -> {dst} (cluster has {n})"));
                    }
                    if src == dst {
                        return Err(format!(
                            "fault event {i}: link cut of machine {src} to itself"
                        ));
                    }
                    let until = Self::check_cut_window(i, start, heal)?;
                    for m in [src, dst] {
                        Self::check_part_overlap(&part_windows, i, m, start, until)?;
                        part_windows.push((m, i, start, until));
                    }
                }
            }
        }
        // Crashes are collected above regardless of event order, so the
        // crash-inside-partition-window rejection is order-independent.
        for &(m, at) in &crashes {
            for &(pm, i, from, until) in &part_windows {
                if pm == m && from <= at && at < until {
                    return Err(format!("fault event {i}: machine {m} crashes at {at:?} inside its partition window"));
                }
            }
        }
        Ok(())
    }

    /// Validates one cut window, returning its effective end (`FAR_FUTURE`
    /// for a permanent cut).
    fn check_cut_window(
        i: usize,
        start: SimTime,
        heal: Option<SimTime>,
    ) -> Result<SimTime, String> {
        match heal {
            Some(h) if start >= h => Err(format!(
                "fault event {i}: empty partition window ({start:?} >= {h:?})"
            )),
            Some(h) => Ok(h),
            None => Ok(SimTime::FAR_FUTURE),
        }
    }

    /// Rejects a cut window touching `machine` that overlaps an earlier one
    /// on the same machine (self-overlap within one event is fine: the event
    /// index breaks the tie).
    fn check_part_overlap(
        windows: &[(usize, usize, SimTime, SimTime)],
        i: usize,
        machine: usize,
        from: SimTime,
        until: SimTime,
    ) -> Result<(), String> {
        for &(m2, i2, f2, u2) in windows {
            if m2 == machine && i2 != i && from < u2 && f2 < until {
                return Err(format!(
                    "fault event {i}: overlapping partition windows on machine {machine}"
                ));
            }
        }
        Ok(())
    }

    /// Generates a reproducible plan: same `(seed, spec, intensity)` triple,
    /// same plan, always. Event counts scale with `intensity` — at `1.0`
    /// roughly one crash, two disk degrades, one link degrade, and two
    /// stragglers; at `0.0` the plan is empty. Crashes never take down every
    /// machine (at least one survivor), so random plans stay recoverable.
    pub fn random(seed: u64, spec: &FaultSpec, intensity: f64) -> FaultPlan {
        assert!(
            intensity.is_finite() && intensity >= 0.0,
            "intensity must be finite and >= 0"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        if intensity == 0.0 || spec.machines == 0 || spec.horizon == SimTime::ZERO {
            return plan;
        }
        let h = spec.horizon.0;
        let count = |base: f64| -> usize { (base * intensity).round() as usize };

        // Crashes: at most floor(intensity), never the whole cluster.
        let n_crash = (intensity.floor() as usize).min(spec.machines.saturating_sub(1));
        let mut crashed: Vec<usize> = Vec::new();
        for _ in 0..n_crash {
            let m = rng.gen_range(0..spec.machines);
            if crashed.contains(&m) {
                continue;
            }
            crashed.push(m);
            let at = SimTime(h / 5 + rng.gen_range(0..(3 * h / 5).max(1)));
            plan = plan.crash(m, at);
        }

        // Disk degrades: one window per (machine, disk) at most.
        let mut used_disks: Vec<(usize, usize)> = Vec::new();
        if spec.disks_per_machine > 0 {
            for _ in 0..count(2.0) {
                let m = rng.gen_range(0..spec.machines);
                let d = rng.gen_range(0..spec.disks_per_machine);
                if used_disks.contains(&(m, d)) {
                    continue;
                }
                used_disks.push((m, d));
                let factor = rng.gen_range(0.15..0.6);
                let from = SimTime(rng.gen_range(0..(3 * h / 5).max(1)));
                let len = rng.gen_range(h / 5..(h / 2).max(h / 5 + 1));
                plan = plan.degrade_disk(m, d, factor, from, SimTime(from.0 + len));
            }
        }

        // Link degrades: one window per machine at most.
        let mut used_links: Vec<usize> = Vec::new();
        for _ in 0..count(1.0) {
            let m = rng.gen_range(0..spec.machines);
            if used_links.contains(&m) {
                continue;
            }
            used_links.push(m);
            let factor = rng.gen_range(0.2..0.6);
            let from = SimTime(rng.gen_range(0..(3 * h / 5).max(1)));
            let len = rng.gen_range(h / 5..(h / 2).max(h / 5 + 1));
            plan = plan.degrade_link(m, factor, from, SimTime(from.0 + len));
        }

        // Stragglers: distinct (stage, task) targets, slowdown 2–6×.
        if spec.stages > 0 && spec.tasks_per_stage > 0 {
            let mut used_tasks: Vec<(usize, usize)> = Vec::new();
            for _ in 0..count(2.0) {
                let s = rng.gen_range(0..spec.stages);
                let t = rng.gen_range(0..spec.tasks_per_stage);
                if used_tasks.contains(&(s, t)) {
                    continue;
                }
                used_tasks.push((s, t));
                let factor = rng.gen_range(2.0..6.0);
                plan = plan.straggle(s, t, factor);
            }
        }
        plan
    }

    /// Generates a reproducible **straggler-only** plan: no crashes, no
    /// degradations — just `≈ 4 × intensity` distinct `(stage, task)`
    /// stragglers slowed 2–6×. This is the speculation benchmark's fault
    /// model: every makespan stretch is attributable to stragglers alone, so
    /// speculation modes can be ranked on how much of it they recover and at
    /// what cost in wasted work.
    pub fn random_stragglers(seed: u64, spec: &FaultSpec, intensity: f64) -> FaultPlan {
        assert!(
            intensity.is_finite() && intensity >= 0.0,
            "intensity must be finite and >= 0"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        if intensity == 0.0 || spec.stages == 0 || spec.tasks_per_stage == 0 {
            return plan;
        }
        let mut used: Vec<(usize, usize)> = Vec::new();
        for _ in 0..((4.0 * intensity).round() as usize) {
            let s = rng.gen_range(0..spec.stages);
            let t = rng.gen_range(0..spec.tasks_per_stage);
            if used.contains(&(s, t)) {
                continue;
            }
            used.push((s, t));
            let factor = rng.gen_range(2.0..6.0);
            plan = plan.straggle(s, t, factor);
        }
        plan
    }

    /// Generates a reproducible **partition-only** plan: one partition window
    /// isolating `≈ intensity` distinct machines (each in its own group) from
    /// the rest of the cluster, landing mid-horizon. No crashes,
    /// degradations, or stragglers — every makespan stretch is attributable
    /// to unreachable fetches alone, which is what the partition sweep ranks
    /// recovery modes on. At most `machines - 1` isolations, so the majority
    /// group is never empty.
    pub fn random_partitions(seed: u64, spec: &FaultSpec, intensity: f64) -> FaultPlan {
        assert!(
            intensity.is_finite() && intensity >= 0.0,
            "intensity must be finite and >= 0"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let plan = FaultPlan::new();
        if intensity == 0.0 || spec.machines < 2 || spec.horizon == SimTime::ZERO {
            return plan;
        }
        let h = spec.horizon.0;
        let n_cuts = ((intensity.round() as usize).max(1)).min(spec.machines - 1);
        let mut isolated: Vec<usize> = Vec::new();
        while isolated.len() < n_cuts {
            let m = rng.gen_range(0..spec.machines);
            if !isolated.contains(&m) {
                isolated.push(m);
            }
        }
        // Land mid-run (during the shuffle for the repo's sort jobs) and heal
        // late enough that recovery has to act, not just wait it out.
        let start = SimTime(h / 5 + rng.gen_range(0..(2 * h / 5).max(1)));
        let len = rng.gen_range(h / 4..(h / 2).max(h / 4 + 1));
        let rest: Vec<usize> = (0..spec.machines)
            .filter(|x| !isolated.contains(x))
            .collect();
        let mut groups: Vec<Vec<usize>> = isolated.into_iter().map(|m| vec![m]).collect();
        groups.push(rest);
        plan.partition(groups, start, Some(SimTime(start.0 + len)))
    }

    /// Lowers the plan into a time-sorted action timeline plus a straggle
    /// lookup table.
    pub(crate) fn compile(&self) -> FaultTimeline {
        let mut actions: Vec<(SimTime, FaultAction)> = Vec::new();
        let mut straggles: Vec<(usize, usize, f64)> = Vec::new();
        for ev in &self.events {
            match *ev {
                FaultEvent::MachineCrash { machine, at } => {
                    actions.push((at, FaultAction::Crash { machine }));
                }
                FaultEvent::DiskDegrade {
                    machine,
                    disk,
                    factor,
                    from,
                    until,
                } => {
                    actions.push((
                        from,
                        FaultAction::SetDiskScale {
                            machine,
                            disk,
                            factor,
                        },
                    ));
                    actions.push((
                        until,
                        FaultAction::SetDiskScale {
                            machine,
                            disk,
                            factor: 1.0,
                        },
                    ));
                }
                FaultEvent::LinkDegrade {
                    machine,
                    factor,
                    from,
                    until,
                } => {
                    actions.push((from, FaultAction::SetLinkScale { machine, factor }));
                    actions.push((
                        until,
                        FaultAction::SetLinkScale {
                            machine,
                            factor: 1.0,
                        },
                    ));
                }
                FaultEvent::TaskStraggle {
                    stage,
                    task,
                    factor,
                } => {
                    straggles.push((stage, task, factor));
                }
                FaultEvent::Partition {
                    ref groups,
                    start,
                    heal,
                } => {
                    // Cut every directed cross-group pair, in sorted pair
                    // order so compiled timelines are a deterministic
                    // function of the plan alone.
                    let mut pairs: Vec<(usize, usize)> = Vec::new();
                    for (gi, g) in groups.iter().enumerate() {
                        for (gj, g2) in groups.iter().enumerate() {
                            if gi == gj {
                                continue;
                            }
                            for &src in g {
                                for &dst in g2 {
                                    pairs.push((src, dst));
                                }
                            }
                        }
                    }
                    pairs.sort_unstable();
                    pairs.dedup();
                    for &(src, dst) in &pairs {
                        actions.push((start, FaultAction::CutPair { src, dst }));
                        if let Some(h) = heal {
                            actions.push((h, FaultAction::HealPair { src, dst }));
                        }
                    }
                }
                FaultEvent::LinkCut {
                    src,
                    dst,
                    start,
                    heal,
                } => {
                    actions.push((start, FaultAction::CutPair { src, dst }));
                    if let Some(h) = heal {
                        actions.push((h, FaultAction::HealPair { src, dst }));
                    }
                }
            }
        }
        // Stable sort keeps same-instant actions in plan order, so compiled
        // timelines are a deterministic function of the plan alone.
        actions.sort_by_key(|&(t, _)| t);
        straggles.sort_by_key(|a| (a.0, a.1));
        straggles.dedup_by_key(|e| (e.0, e.1));
        FaultTimeline {
            actions,
            cursor: 0,
            straggles,
        }
    }
}

/// One atomic state change an executor applies at a scheduled instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Permanently fail a machine.
    Crash {
        /// Index of the machine that fails.
        machine: usize,
    },
    /// Set the service-rate scale of one disk (`1.0` restores healthy).
    SetDiskScale {
        /// Machine owning the disk.
        machine: usize,
        /// Disk index within the machine.
        disk: usize,
        /// New scale factor.
        factor: f64,
    },
    /// Set the bandwidth scale of one machine's NIC (`1.0` restores healthy).
    SetLinkScale {
        /// Machine whose link changes.
        machine: usize,
        /// New scale factor.
        factor: f64,
    },
    /// Cut one directed fabric pair: `src` can no longer send to `dst`.
    CutPair {
        /// Sending machine of the cut direction.
        src: usize,
        /// Receiving machine of the cut direction.
        dst: usize,
    },
    /// Restore one directed fabric pair cut earlier.
    HealPair {
        /// Sending machine of the restored direction.
        src: usize,
        /// Receiving machine of the restored direction.
        dst: usize,
    },
}

impl From<&FaultAction> for InstantKind {
    /// The instant an executor records when it applies `action` — the
    /// same lowering for both executors, so traces agree on fault taxonomy.
    fn from(action: &FaultAction) -> InstantKind {
        match *action {
            FaultAction::Crash { machine } => InstantKind::MachineCrash { machine },
            FaultAction::SetDiskScale {
                machine,
                disk,
                factor,
            } => InstantKind::DiskScale {
                machine,
                disk,
                factor,
            },
            FaultAction::SetLinkScale { machine, factor } => {
                InstantKind::LinkScale { machine, factor }
            }
            FaultAction::CutPair { src, dst } => InstantKind::PairCut { src, dst },
            FaultAction::HealPair { src, dst } => InstantKind::PairHeal { src, dst },
        }
    }
}

/// A compiled, time-ordered fault schedule, consumed through
/// [`crate::Hosts`].
#[derive(Clone, Debug, Default)]
pub(crate) struct FaultTimeline {
    actions: Vec<(SimTime, FaultAction)>,
    cursor: usize,
    straggles: Vec<(usize, usize, f64)>,
}

impl FaultTimeline {
    /// Time of the next unapplied action, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.actions.get(self.cursor).map(|&(t, _)| t)
    }

    /// Pops the next action if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<FaultAction> {
        match self.actions.get(self.cursor) {
            Some(&(t, a)) if t <= now => {
                self.cursor += 1;
                Some(a)
            }
            _ => None,
        }
    }

    /// CPU-work multiplier for the first attempt of `(stage, task)`, if that
    /// task is a designated straggler.
    pub fn straggle_factor(&self, stage: usize, task: usize) -> Option<f64> {
        self.straggles
            .binary_search_by(|e| (e.0, e.1).cmp(&(stage, task)))
            .ok()
            .map(|i| self.straggles[i].2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::{ClusterSpec, MachineSpec};

    fn cluster(n: usize) -> ClusterSpec {
        ClusterSpec::new(n, MachineSpec::m2_4xlarge())
    }

    #[test]
    fn random_is_reproducible() {
        let spec = FaultSpec {
            machines: 8,
            disks_per_machine: 2,
            horizon: SimTime::from_secs(100),
            stages: 2,
            tasks_per_stage: 32,
        };
        let a = FaultPlan::random(7, &spec, 1.5);
        let b = FaultPlan::random(7, &spec, 1.5);
        assert_eq!(a, b);
        let c = FaultPlan::random(8, &spec, 1.5);
        assert_ne!(a, c, "different seeds should give different plans");
        assert!(a.validate(&cluster(8)).is_ok());
    }

    #[test]
    fn straggler_only_plans_are_reproducible_and_pure() {
        let spec = FaultSpec {
            machines: 5,
            disks_per_machine: 2,
            horizon: SimTime::from_secs(100),
            stages: 2,
            tasks_per_stage: 10,
        };
        let a = FaultPlan::random_stragglers(42, &spec, 1.0);
        let b = FaultPlan::random_stragglers(42, &spec, 1.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a
            .events()
            .iter()
            .all(|e| matches!(e, FaultEvent::TaskStraggle { .. })));
        assert!(a.validate(&cluster(5)).is_ok());
        assert!(FaultPlan::random_stragglers(42, &spec, 0.0).is_empty());
    }

    #[test]
    fn zero_intensity_is_empty() {
        let spec = FaultSpec {
            machines: 4,
            disks_per_machine: 2,
            horizon: SimTime::from_secs(100),
            stages: 2,
            tasks_per_stage: 8,
        };
        assert!(FaultPlan::random(1, &spec, 0.0).is_empty());
    }

    #[test]
    fn validate_rejects_bad_events() {
        let c = cluster(2);
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        assert!(FaultPlan::new().crash(5, t1).validate(&c).is_err());
        assert!(FaultPlan::new()
            .crash(0, t1)
            .crash(0, t2)
            .validate(&c)
            .is_err());
        assert!(FaultPlan::new()
            .degrade_disk(0, 9, 0.5, t0, t1)
            .validate(&c)
            .is_err());
        assert!(FaultPlan::new()
            .degrade_disk(0, 0, 0.0, t0, t1)
            .validate(&c)
            .is_err());
        assert!(FaultPlan::new()
            .degrade_disk(0, 0, -1.0, t0, t1)
            .validate(&c)
            .is_err());
        assert!(FaultPlan::new()
            .degrade_disk(0, 0, 0.5, t1, t1)
            .validate(&c)
            .is_err());
        assert!(FaultPlan::new()
            .degrade_disk(0, 0, 0.5, t0, t2)
            .degrade_disk(0, 0, 0.5, t1, t2)
            .validate(&c)
            .is_err());
        assert!(FaultPlan::new()
            .degrade_link(0, f64::NAN, t0, t1)
            .validate(&c)
            .is_err());
        assert!(FaultPlan::new().straggle(0, 0, 0.5).validate(&c).is_err());
        assert!(FaultPlan::new()
            .crash(1, t1)
            .degrade_disk(0, 0, 0.5, t0, t1)
            .straggle(0, 3, 4.0)
            .validate(&c)
            .is_ok());
    }

    #[test]
    fn random_partitions_are_reproducible_and_pure() {
        let spec = FaultSpec {
            machines: 5,
            disks_per_machine: 2,
            horizon: SimTime::from_secs(100),
            stages: 2,
            tasks_per_stage: 10,
        };
        let a = FaultPlan::random_partitions(42, &spec, 1.0);
        let b = FaultPlan::random_partitions(42, &spec, 1.0);
        assert_eq!(a, b);
        assert!(a.has_partitions());
        assert!(a
            .events()
            .iter()
            .all(|e| matches!(e, FaultEvent::Partition { .. })));
        assert!(a.validate(&cluster(5)).is_ok());
        assert!(FaultPlan::random_partitions(42, &spec, 0.0).is_empty());
        // Intensity can never isolate the whole cluster.
        let heavy = FaultPlan::random_partitions(7, &spec, 100.0);
        assert!(heavy.validate(&cluster(5)).is_ok());
        // Non-partition plans do not claim to have partitions.
        assert!(!FaultPlan::new()
            .crash(0, SimTime::from_secs(1))
            .has_partitions());
    }

    #[test]
    fn validate_rejects_bad_partitions() {
        let c = cluster(3);
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        let t3 = SimTime::from_secs(3);
        // One group is not a partition.
        assert!(FaultPlan::new()
            .partition(vec![vec![0, 1, 2]], t1, Some(t2))
            .validate(&c)
            .is_err());
        // Empty groups are meaningless.
        assert!(FaultPlan::new()
            .partition(vec![vec![0], vec![]], t1, Some(t2))
            .validate(&c)
            .is_err());
        // Nonexistent machine.
        assert!(FaultPlan::new()
            .partition(vec![vec![0], vec![7]], t1, Some(t2))
            .validate(&c)
            .is_err());
        // A machine cannot sit on both sides of the cut.
        assert!(FaultPlan::new()
            .partition(vec![vec![0, 1], vec![1, 2]], t1, Some(t2))
            .validate(&c)
            .is_err());
        // Empty window.
        assert!(FaultPlan::new()
            .partition(vec![vec![0], vec![1]], t2, Some(t2))
            .validate(&c)
            .is_err());
        // Overlapping partition windows on the same machine.
        assert!(FaultPlan::new()
            .partition(vec![vec![0], vec![1]], t1, Some(t3))
            .partition(vec![vec![0], vec![2]], t2, Some(t3))
            .validate(&c)
            .is_err());
        // A permanent cut overlaps everything after its start.
        assert!(FaultPlan::new()
            .partition(vec![vec![0], vec![1]], t1, None)
            .partition(vec![vec![0], vec![2]], t2, Some(t3))
            .validate(&c)
            .is_err());
        // Crash inside a partition window of the same machine — in either
        // event order.
        assert!(FaultPlan::new()
            .partition(vec![vec![0], vec![1]], t1, Some(t3))
            .crash(0, t2)
            .validate(&c)
            .is_err());
        assert!(FaultPlan::new()
            .crash(0, t2)
            .partition(vec![vec![0], vec![1]], t1, Some(t3))
            .validate(&c)
            .is_err());
        // Self-cut and bad endpoints for asymmetric cuts.
        assert!(FaultPlan::new()
            .cut_link(1, 1, t1, Some(t2))
            .validate(&c)
            .is_err());
        assert!(FaultPlan::new()
            .cut_link(0, 9, t1, Some(t2))
            .validate(&c)
            .is_err());
        // Overlapping cut windows touching the same machine.
        assert!(FaultPlan::new()
            .cut_link(0, 1, t1, Some(t3))
            .cut_link(1, 2, t2, Some(t3))
            .validate(&c)
            .is_err());
        // Disjoint-in-time windows on the same machine are fine, as is a
        // crash after the heal.
        assert!(FaultPlan::new()
            .partition(vec![vec![0], vec![1, 2]], t1, Some(t2))
            .cut_link(0, 1, t2, Some(t3))
            .crash(0, t3)
            .validate(&c)
            .is_ok());
    }

    #[test]
    fn compile_lowers_partitions_to_sorted_pair_cuts() {
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        let mut tl = FaultPlan::new()
            .partition(vec![vec![1], vec![0, 2]], t1, Some(t2))
            .compile();
        // Cuts fire in sorted (src, dst) order: both directions of both
        // cross-group pairs.
        let mut cuts = Vec::new();
        while let Some(a) = tl.pop_due(t1) {
            cuts.push(a);
        }
        assert_eq!(
            cuts,
            vec![
                FaultAction::CutPair { src: 0, dst: 1 },
                FaultAction::CutPair { src: 1, dst: 0 },
                FaultAction::CutPair { src: 1, dst: 2 },
                FaultAction::CutPair { src: 2, dst: 1 },
            ]
        );
        let mut heals = Vec::new();
        while let Some(a) = tl.pop_due(t2) {
            heals.push(a);
        }
        assert_eq!(
            heals,
            vec![
                FaultAction::HealPair { src: 0, dst: 1 },
                FaultAction::HealPair { src: 1, dst: 0 },
                FaultAction::HealPair { src: 1, dst: 2 },
                FaultAction::HealPair { src: 2, dst: 1 },
            ]
        );
        assert_eq!(tl.next_time(), None);
        // An asymmetric cut lowers to one direction only, and a permanent
        // one schedules no heal.
        let mut tl = FaultPlan::new().cut_link(2, 0, t1, None).compile();
        assert_eq!(
            tl.pop_due(t1),
            Some(FaultAction::CutPair { src: 2, dst: 0 })
        );
        assert_eq!(tl.next_time(), None);
    }

    #[test]
    fn actions_lower_to_their_instants() {
        assert_eq!(
            InstantKind::from(&FaultAction::Crash { machine: 3 }),
            InstantKind::MachineCrash { machine: 3 }
        );
        let cut = InstantKind::from(&FaultAction::CutPair { src: 0, dst: 4 });
        assert_eq!(cut, InstantKind::PairCut { src: 0, dst: 4 });
        assert_eq!(cut.machine(), Some(4));
    }

    #[test]
    fn compile_orders_actions_and_restores_scale() {
        let plan = FaultPlan::new()
            .degrade_disk(0, 1, 0.25, SimTime::from_secs(2), SimTime::from_secs(5))
            .crash(1, SimTime::from_secs(3))
            .straggle(1, 4, 3.0);
        let mut tl = plan.compile();
        assert_eq!(tl.straggle_factor(1, 4), Some(3.0));
        assert_eq!(tl.straggle_factor(0, 4), None);
        assert_eq!(tl.next_time(), Some(SimTime::from_secs(2)));
        assert_eq!(
            tl.pop_due(SimTime::from_secs(2)),
            Some(FaultAction::SetDiskScale {
                machine: 0,
                disk: 1,
                factor: 0.25
            })
        );
        assert_eq!(tl.pop_due(SimTime::from_secs(2)), None);
        assert_eq!(
            tl.pop_due(SimTime::from_secs(3)),
            Some(FaultAction::Crash { machine: 1 })
        );
        assert_eq!(
            tl.pop_due(SimTime::from_secs(10)),
            Some(FaultAction::SetDiskScale {
                machine: 0,
                disk: 1,
                factor: 1.0
            })
        );
        assert_eq!(tl.next_time(), None);
        assert_eq!(FaultPlan::new().compile().next_time(), None);
    }
}
