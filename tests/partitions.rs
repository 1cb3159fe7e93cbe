//! Network partitions and partition-aware recovery, end to end: a healing
//! mid-shuffle partition ridden out by fetch timeout/retry/backoff, a
//! permanent partition re-planned around via sender quarantine and lineage
//! resubmission, and the fail-fast paths — a structured
//! [`RunError::Unreachable`] instead of a hang when retries are exhausted
//! with no reachable replica, or when no timeout is armed at all.

mod testsupport;

use cluster::{ClusterSpec, FaultPlan, InstantKind, MachineId, ResourceSel, RunInstant, TraceSet};
use dataflow::{BlockMap, RunError};
use monotasks_core::MonoConfig;
use simcore::{ResourceKind, SimDuration, SimTime};
use sparklike::SparkConfig;
use testsupport::sort4 as sort;

fn cluster() -> ClusterSpec {
    testsupport::cluster(4)
}

/// A partition isolating one machine for a window [lo, hi]·makespan.
fn isolate(machine: usize, makespan_s: f64, lo: f64, hi: f64) -> FaultPlan {
    let others: Vec<usize> = (0..4).filter(|&m| m != machine).collect();
    FaultPlan::new().partition(
        vec![vec![machine], others],
        SimTime::from_secs_f64(makespan_s * lo),
        Some(SimTime::from_secs_f64(makespan_s * hi)),
    )
}

/// A partition isolating one machine forever (never heals).
fn isolate_forever(machine: usize, at_secs: f64) -> FaultPlan {
    let others: Vec<usize> = (0..4).filter(|&m| m != machine).collect();
    FaultPlan::new().partition(
        vec![vec![machine], others],
        SimTime::from_secs_f64(at_secs),
        None,
    )
}

/// A mid-shuffle partition that heals: with fetch timeouts armed, both
/// executors stall, back off, and resume the parked fetches on heal —
/// completing within 1.5× of the fault-free makespan and without any
/// `RunError`.
#[test]
fn both_executors_ride_out_a_healing_mid_shuffle_partition() {
    let (job, blocks) = sort();

    let mono_cfg = MonoConfig {
        fetch_timeout_secs: Some(2.0),
        ..MonoConfig::default()
    };
    let free = monotasks_core::try_run(&cluster(), &[(job.clone(), blocks.clone())], &mono_cfg)
        .expect("fault-free run");
    let free_s = free.makespan.as_secs_f64();
    let plan = isolate(1, free_s, 0.45, 0.70);
    let out = monotasks_core::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &mono_cfg,
        &plan,
    )
    .expect("monotasks run must ride out a healing partition");
    assert!(out.makespan > free.makespan, "partition had no effect");
    assert!(
        out.makespan.as_secs_f64() <= free_s * 1.5,
        "recovery too slow: {:.1}s vs fault-free {free_s:.1}s",
        out.makespan.as_secs_f64()
    );
    let rec = &out.jobs[0].recovery;
    assert!(
        rec.fetch_retries > 0 || rec.stalled_fetch_seconds > 0.0,
        "no partition recovery recorded: {rec:?}"
    );

    let spark_cfg = SparkConfig {
        fetch_timeout_secs: Some(2.0),
        ..SparkConfig::default()
    };
    let free = sparklike::try_run(&cluster(), &[(job.clone(), blocks.clone())], &spark_cfg)
        .expect("fault-free run");
    let free_s = free.makespan.as_secs_f64();
    let plan = isolate(1, free_s, 0.45, 0.70);
    let out = sparklike::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &spark_cfg,
        &plan,
    )
    .expect("spark-like run must ride out a healing partition");
    assert!(out.makespan > free.makespan, "partition had no effect");
    assert!(
        out.makespan.as_secs_f64() <= free_s * 1.5,
        "recovery too slow: {:.1}s vs fault-free {free_s:.1}s",
        out.makespan.as_secs_f64()
    );
    let rec = &out.jobs[0].recovery;
    assert!(
        rec.fetch_retries > 0 || rec.stalled_fetch_seconds > 0.0,
        "no partition recovery recorded: {rec:?}"
    );

    // With timeouts off, no fetch is re-planned: every stream the cut parks
    // waits out the window and resumes on heal with its remaining bytes.
    // The pins are (makespan ns, stalled seconds' bits, simulation steps).
    // The Spark-like shuffle has no fetch in flight in this window; the
    // merged-fetch test below pins its resume.
    let jobs = [(job, blocks)];
    let mono_cfg = MonoConfig::default();
    let free = monotasks_core::try_run(&cluster(), &jobs, &mono_cfg).expect("fault-free run");
    let plan = isolate(1, free.makespan.as_secs_f64(), 0.45, 0.70);
    let out = monotasks_core::run_with_faults(&cluster(), &jobs, &mono_cfg, &plan)
        .expect("monotasks run must resume its parked fetches");
    let rec = &out.jobs[0].recovery;
    assert_eq!(rec.fetch_retries, 0, "a fetch was re-planned");
    assert_eq!(
        (
            out.makespan.0,
            rec.stalled_fetch_seconds.to_bits(),
            out.stats.events
        ),
        (30_682_661_884, 4_644_045_767_950_410_399, 125),
        "monotasks resume"
    );
    let spark_cfg = SparkConfig::default();
    let free = sparklike::try_run(&cluster(), &jobs, &spark_cfg).expect("fault-free run");
    let plan = isolate(1, free.makespan.as_secs_f64(), 0.45, 0.70);
    let out = sparklike::run_with_faults(&cluster(), &jobs, &spark_cfg, &plan)
        .expect("spark-like run must resume its parked fetches");
    let rec = &out.jobs[0].recovery;
    assert_eq!(rec.fetch_retries, 0, "a fetch was re-planned");
    assert_eq!(
        (
            out.makespan.0,
            rec.stalled_fetch_seconds.to_bits(),
            out.stats.events
        ),
        (19_456_000_002, 0, 6),
        "spark-like resume"
    );
}

/// A permanent partition with fetch timeouts armed: the spark-like executor
/// exhausts the retries, quarantines the unreachable sender, resubmits its
/// lost map outputs via lineage on the majority side, and completes — every
/// logical task covered, with the re-planning visible in the recovery
/// counters.
#[test]
fn sparklike_replans_around_a_permanent_partition() {
    let (job, blocks) = sort();
    let total_tasks: usize = job.stages.iter().map(|s| s.tasks.len()).sum();
    let cfg = SparkConfig {
        fetch_timeout_secs: Some(1.0),
        ..SparkConfig::default()
    };
    let free = sparklike::try_run(&cluster(), &[(job.clone(), blocks.clone())], &cfg)
        .expect("fault-free run");
    let plan = isolate_forever(1, free.makespan.as_secs_f64() * 0.5);
    let out = sparklike::run_with_faults(&cluster(), &[(job, blocks)], &cfg, &plan)
        .expect("spark-like run must re-plan around a permanent partition");
    let rec = &out.jobs[0].recovery;
    assert!(rec.fetch_retries > 0, "no fetch retries: {rec:?}");
    assert!(rec.fetches_replanned > 0, "no re-planned fetches: {rec:?}");
    assert!(
        rec.recompute_seconds > 0.0,
        "no lineage resubmission: {rec:?}"
    );
    let seen: std::collections::HashSet<_> = out.tasks.iter().map(|t| (t.stage, t.task)).collect();
    assert_eq!(seen.len(), total_tasks);
    // Nothing runs on the quarantined side of the cut after recovery: every
    // post-partition attempt lands on the majority group.
    let cut_at = SimTime::from_secs_f64(free.makespan.as_secs_f64() * 0.5);
    let latest_on_isolated = out
        .tasks
        .iter()
        .filter(|t| t.machine == 1)
        .map(|t| t.start)
        .max();
    if let Some(started) = latest_on_isolated {
        assert!(
            started <= out.makespan && out.makespan > cut_at,
            "sanity: records exist around the cut"
        );
    }
}

/// A permanent partition with *no* replica to re-plan against (replication 1,
/// the isolated machine holds block homes the majority side cannot reach):
/// the monotasks executor must fail fast with the structured
/// [`RunError::Unreachable`] naming the unreachable machine — not hang and
/// not burn the step budget.
#[test]
fn mono_fails_fast_when_no_replica_is_reachable() {
    let (job, blocks) = sort();
    let cfg = MonoConfig {
        fetch_timeout_secs: Some(1.0),
        ..MonoConfig::default()
    };
    let free = monotasks_core::try_run(&cluster(), &[(job.clone(), blocks.clone())], &cfg)
        .expect("fault-free run");
    let plan = isolate_forever(1, free.makespan.as_secs_f64() * 0.5);
    let out = monotasks_core::run_with_faults(&cluster(), &[(job, blocks)], &cfg, &plan);
    match out {
        Err(RunError::Unreachable { machine, .. }) => {
            assert_eq!(machine, 1, "wrong machine blamed");
        }
        other => panic!("expected Unreachable, got {other:?}"),
    }
}

/// With no fetch timeout armed (the default), a permanent partition cannot
/// hang the simulation: when every runnable attempt is parked behind a cut
/// link, the starvation check surfaces a structured
/// [`RunError::Unreachable`] in both executors.
#[test]
fn permanent_partition_without_timeout_is_a_clean_error_not_a_hang() {
    let (job, blocks) = sort();

    let mono_cfg = MonoConfig::default();
    assert!(mono_cfg.fetch_timeout_secs.is_none());
    let free = monotasks_core::try_run(&cluster(), &[(job.clone(), blocks.clone())], &mono_cfg)
        .expect("fault-free run");
    let plan = isolate_forever(1, free.makespan.as_secs_f64() * 0.5);
    let out = monotasks_core::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &mono_cfg,
        &plan,
    );
    assert!(
        matches!(out, Err(RunError::Unreachable { .. })),
        "expected Unreachable, got {out:?}"
    );

    let spark_cfg = SparkConfig::default();
    assert!(spark_cfg.fetch_timeout_secs.is_none());
    let free = sparklike::try_run(&cluster(), &[(job.clone(), blocks.clone())], &spark_cfg)
        .expect("fault-free run");
    let plan = isolate_forever(1, free.makespan.as_secs_f64() * 0.5);
    let out = sparklike::run_with_faults(&cluster(), &[(job, blocks)], &spark_cfg, &plan);
    assert!(
        matches!(out, Err(RunError::Unreachable { .. })),
        "expected Unreachable, got {out:?}"
    );
}

/// A link cut that heals before any shuffle fetch uses the pair is a no-op
/// in the spark-like executor: the makespan is bit-identical to the
/// plan-free run even though the partition machinery was armed.
#[test]
fn heal_before_first_fetch_is_a_noop() {
    let (job, blocks) = sort();
    let cfg = SparkConfig::default();
    let free = sparklike::try_run(&cluster(), &[(job.clone(), blocks.clone())], &cfg)
        .expect("fault-free run");
    // Map tasks read local disk for seconds before the first shuffle byte
    // moves; a 1 ms cut at t=0 heals long before any fetch touches it.
    let plan = FaultPlan::new().cut_link(0, 1, SimTime::ZERO, Some(SimTime::from_secs_f64(1e-3)));
    assert!(plan.has_partitions());
    let out = sparklike::run_with_faults(&cluster(), &[(job, blocks)], &cfg, &plan)
        .expect("healed cut must not fail the run");
    assert_eq!(
        free.makespan.as_secs_f64().to_bits(),
        out.makespan.as_secs_f64().to_bits(),
        "healed-before-use cut changed the makespan"
    );
    assert!(out.jobs[0].recovery.is_zero());
}

/// The sort with 2-way replicated input, so lineage re-runs of an isolated
/// machine's map outputs always have a reachable replica.
fn replicated_sort() -> (dataflow::JobSpec, BlockMap) {
    let (job, blocks) = sort();
    let blocks = BlockMap::round_robin_replicated(
        blocks.blocks(),
        blocks.machines(),
        blocks.disks_per_machine(),
        2,
    );
    (job, blocks)
}

/// Every stage-1 fetch-retry instant of a run as `(time, attempt)`.
fn reduce_fetch_retries(instants: &[RunInstant]) -> Vec<(SimTime, u32)> {
    instants
        .iter()
        .filter_map(|i| match i.kind {
            InstantKind::FetchRetry {
                job: 0,
                stage: 1,
                attempt,
            } => Some((i.time, attempt)),
            _ => None,
        })
        .collect()
}

/// What one engine's run reports to [`second_blockage_has_a_fresh_budget`]:
/// the map stage's end and the trace instants.
type Observed = (SimTime, Vec<RunInstant>);

/// Machine 1 is isolated from mid-map-stage, so the reduce stage is
/// gate-blocked as soon as it is ready (no machine reaches every sender) and
/// escalates after its retries. Recovery resubmits machine 1's map outputs;
/// that window heals just after, and a second window isolates machine 2
/// before the re-runs finish, so the reopened reduce stage is gate-blocked
/// again. The second episode must spend a fresh budget with the same backoff.
fn second_blockage_has_a_fresh_budget(engine: &str, run: impl Fn(&FaultPlan) -> Observed) {
    let (map_end, _) = run(&FaultPlan::new());
    let cut_at = SimTime::from_secs_f64(map_end.as_secs_f64() * 0.5);
    let first = |heal: SimTime| {
        FaultPlan::new().partition(vec![vec![1], vec![0, 2, 3]], cut_at, Some(heal))
    };
    // Probe: the first episode's escalation instant, with a late heal.
    let (_, probe) = run(&first(SimTime::from_secs(10_000)));
    let escalated = reduce_fetch_retries(&probe)
        .into_iter()
        .find(|&(_, attempt)| attempt == 4)
        .unwrap_or_else(|| panic!("{engine}: first blockage never escalated"))
        .0;
    let plan = first(escalated + SimDuration::from_millis(100)).partition(
        vec![vec![2], vec![0, 1, 3]],
        escalated + SimDuration::from_millis(200),
        None,
    );
    let (_, instants) = run(&plan);
    let retries = reduce_fetch_retries(&instants);
    let attempts: Vec<u32> = retries.iter().map(|&(_, a)| a).collect();
    // FETCH_MAX_RETRIES = 3 backoffs, then the escalating decision — per
    // episode. A budget carried over would escalate the second episode at its
    // first deadline with attempt 5 and no backoff.
    assert_eq!(attempts, [1, 2, 3, 4, 1, 2, 3, 4], "{engine}: {retries:?}");
    for episode in retries.chunks(4) {
        let gaps: Vec<SimDuration> = episode.windows(2).map(|w| w[1].0.since(w[0].0)).collect();
        assert_eq!(
            gaps,
            [1, 2, 4].map(SimDuration::from_secs),
            "{engine}: {retries:?}"
        );
    }
}

/// A gate-blocked reduce stage spends its retry budget with backoff and
/// escalates; when a second partition window blocks it again, the new stall
/// episode gets a fresh budget with the same backoff — in both engines.
#[test]
fn a_second_gate_blockage_gets_a_fresh_retry_budget() {
    let jobs = [replicated_sort()];
    let mono_cfg = MonoConfig {
        fetch_timeout_secs: Some(1.0),
        trace_path: Some("unwritten.json".into()),
        ..MonoConfig::default()
    };
    second_blockage_has_a_fresh_budget("mono", |plan| {
        let out = monotasks_core::run_with_faults(&cluster(), &jobs, &mono_cfg, plan)
            .expect("monotasks run completes");
        (out.jobs[0].stages[0].end, out.instants)
    });
    let spark_cfg = SparkConfig {
        fetch_timeout_secs: Some(1.0),
        trace_path: Some("unwritten.json".into()),
        ..SparkConfig::default()
    };
    second_blockage_has_a_fresh_budget("spark", |plan| {
        let out = sparklike::run_with_faults(&cluster(), &jobs, &spark_cfg, plan)
            .expect("spark-like run completes");
        (out.jobs[0].stages[0].end, out.instants)
    });
}

/// Overlapping partition windows on the same pair are rejected up front with
/// `InvalidConfig`, mirroring the degrade-window overlap rule.
#[test]
fn overlapping_partition_windows_are_rejected() {
    let (job, blocks) = sort();
    let plan = FaultPlan::new()
        .cut_link(0, 1, SimTime::from_secs(1), Some(SimTime::from_secs(10)))
        .cut_link(0, 1, SimTime::from_secs(5), Some(SimTime::from_secs(15)));
    let mono = monotasks_core::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &MonoConfig::default(),
        &plan,
    );
    assert!(
        matches!(mono, Err(RunError::InvalidConfig(_))),
        "expected InvalidConfig, got {mono:?}"
    );
    let spark =
        sparklike::run_with_faults(&cluster(), &[(job, blocks)], &SparkConfig::default(), &plan);
    assert!(
        matches!(spark, Err(RunError::InvalidConfig(_))),
        "expected InvalidConfig, got {spark:?}"
    );
}

/// A fetch cut while it waits for its remote disk read is marked stalled
/// again when its transfer starts on the still-cut pair. The second mark must
/// not arm a second timeout: that wake-up would add a simulation step (and
/// split the allocators' integration there) at a time nothing happens. The
/// window heals within the timeout, so every armed expiry is idle and the
/// step count exposes an extra one. The pinned counts are this scenario's
/// steps with one timeout per stall (a timer per mark gives 171 and 688).
#[test]
fn a_fetch_stalled_before_its_transfer_arms_one_timeout() {
    let (job, blocks) = sort();
    let cfg = MonoConfig {
        fetch_timeout_secs: Some(2.0),
        ..MonoConfig::default()
    };
    let jobs = [(job, blocks)];
    let free = monotasks_core::try_run(&cluster(), &jobs, &cfg).expect("fault-free run");
    let plan = isolate(1, free.makespan.as_secs_f64(), 0.50, 0.55);
    let out = monotasks_core::run_with_faults(&cluster(), &jobs, &cfg, &plan)
        .expect("a healing partition completes");
    assert!(out.jobs[0].recovery.stalled_fetch_seconds > 0.0);
    assert_eq!(out.jobs[0].recovery.fetch_retries, 0, "a timeout fired");
    assert_eq!(
        (out.stats.events, out.queue_trace.len()),
        (167, 672),
        "simulation steps"
    );
}

/// A receive stream parked by a cut keeps its remaining bytes, and moves
/// them after the heal, also when a second cut parks it again. Machine 1 is
/// isolated mid-shuffle, so every fetch it receives crosses the cuts, and
/// each byte it fetches crosses its NIC once: the NIC trace's receive rate,
/// integrated over the run, must equal the bytes of its monotasks network
/// records, and on the Spark-like executor the fault-free run's integral.
/// (Resuming a second park from the fetch's whole demand instead of the
/// remainder moved 4 % more on the monotasks executor, 10 % more on the
/// Spark-like one.)
#[test]
fn a_fetch_cut_mid_transfer_moves_its_remaining_bytes_after_the_heal() {
    let (job, blocks) = sort();
    let jobs = [(job, blocks)];
    let nic = cluster().machine.nic;
    let fetched = |traces: &TraceSet| -> f64 {
        let points = traces
            .recorder(MachineId(1), ResourceSel::Network)
            .expect("a NIC trace")
            .points();
        let busy_secs: f64 = points
            .windows(2)
            .map(|w| w[0].1 * w[1].0.since(w[0].0).as_secs_f64())
            .sum();
        busy_secs * nic
    };
    let cuts = |makespan_s: f64| {
        let at = |f: f64| SimTime::from_secs_f64(makespan_s * f);
        let groups = || vec![vec![1], vec![0, 2, 3]];
        let twice = FaultPlan::new()
            .partition(groups(), at(0.50), Some(at(0.52)))
            .partition(groups(), at(0.53), Some(at(0.55)));
        [
            ("cut", isolate(1, makespan_s, 0.50, 0.55)),
            ("cut twice", twice),
        ]
    };

    let cfg = MonoConfig::default();
    let free = monotasks_core::try_run(&cluster(), &jobs, &cfg).expect("fault-free run");
    let free_s = free.makespan.as_secs_f64();
    let mut runs = vec![("fault-free", free)];
    for (name, plan) in cuts(free_s) {
        let out = monotasks_core::run_with_faults(&cluster(), &jobs, &cfg, &plan)
            .expect("a healing partition completes");
        assert!(out.jobs[0].recovery.stalled_fetch_seconds > 0.0);
        runs.push((name, out));
    }
    for (name, out) in &runs {
        let recorded: f64 = out
            .records
            .iter()
            .filter(|r| r.machine == 1 && r.resource == ResourceKind::Network)
            .map(|r| r.bytes)
            .sum();
        let moved = fetched(&out.traces);
        assert!(
            (moved - recorded).abs() <= 1e-6 * recorded,
            "monotasks {name}: machine 1's NIC moved {moved} of its {recorded} fetched bytes"
        );
    }

    let cfg = SparkConfig::default();
    let free = sparklike::try_run(&cluster(), &jobs, &cfg).expect("fault-free run");
    let want = fetched(&free.traces);
    for (name, plan) in cuts(free.makespan.as_secs_f64()) {
        let out = sparklike::run_with_faults(&cluster(), &jobs, &cfg, &plan)
            .expect("a healing partition completes");
        assert!(out.jobs[0].recovery.stalled_fetch_seconds > 0.0);
        let moved = fetched(&out.traces);
        assert!(
            (moved - want).abs() <= 1e-6 * want,
            "spark-like {name}: machine 1's NIC moved {moved} of its {want} fetched bytes"
        );
    }
}

/// The Spark-like twin of the test above: a merged fetch parked by a window
/// that heals within the timeout arms one timeout, whose idle expiry is a
/// simulation step. The pinned counts are this scenario's steps and task
/// records.
#[test]
fn a_parked_merged_fetch_arms_one_timeout() {
    let (job, blocks) = sort();
    let cfg = SparkConfig {
        fetch_timeout_secs: Some(2.0),
        ..SparkConfig::default()
    };
    let jobs = [(job, blocks)];
    let free = sparklike::try_run(&cluster(), &jobs, &cfg).expect("fault-free run");
    let plan = isolate(1, free.makespan.as_secs_f64(), 0.50, 0.55);
    let out = sparklike::run_with_faults(&cluster(), &jobs, &cfg, &plan)
        .expect("a healing partition completes");
    assert!(out.jobs[0].recovery.stalled_fetch_seconds > 0.0);
    assert_eq!(out.jobs[0].recovery.fetch_retries, 0, "a timeout fired");
    assert_eq!(
        (out.stats.events, out.tasks.len()),
        (7, 64),
        "simulation steps"
    );
    // Every merged fetch the cut parks resumes on heal with the work it had
    // left: the pins are the makespan (ns) and the stalled seconds' bits.
    assert_eq!(
        (
            out.makespan.0,
            out.jobs[0].recovery.stalled_fetch_seconds.to_bits()
        ),
        (16_372_363_638, 4_627_715_557_758_918_678),
        "resumed fetches"
    );
}
