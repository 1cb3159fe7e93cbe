//! Monotask-level speculation, end to end: a straggling monotask is
//! re-dispatched against an alternate resource — a slow disk read against a
//! replica, a slow shuffle serve against another sender disk, a slow compute
//! duplicated — with first-finisher-wins and deterministic loser
//! cancellation, and strictly less wasted work than slot-level (whole-task)
//! speculation on the same plan.

mod testsupport;

use cluster::FaultPlan;
use dataflow::{BlockMap, RES_CPU, RES_DISK, RES_NET};
use monotasks_core::MonoConfig;
use simcore::{ResourceKind, SimTime};
use sparklike::SparkConfig;
use testsupport::sort4;

fn cluster() -> cluster::ClusterSpec {
    testsupport::cluster(4)
}

fn spec_cfg() -> MonoConfig {
    MonoConfig {
        mono_speculation_multiplier: Some(1.5),
        ..MonoConfig::default()
    }
}

/// Input blocks with an HDFS replication factor of 2, shaped like the sort
/// job's plain placement.
fn replicate(blocks: &BlockMap) -> BlockMap {
    BlockMap::round_robin_replicated(
        blocks.blocks(),
        blocks.machines(),
        blocks.disks_per_machine(),
        2,
    )
}

/// A badly degraded disk drags its input reads past the straggler threshold;
/// with replicated blocks the executor re-issues *only the read* against a
/// replica site, and the copy's win shortens the job.
#[test]
fn disk_straggler_is_beaten_by_a_replica_read() {
    let (job, blocks) = sort4();
    let blocks = replicate(&blocks);
    // Map-stage reads on machine 0 disk 0 run at 5% speed for the whole run.
    let plan =
        FaultPlan::new().degrade_disk(0, 0, 0.05, SimTime::ZERO, SimTime::from_secs(100_000));
    let nospec = monotasks_core::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &MonoConfig::default(),
        &plan,
    )
    .expect("degraded run without speculation");
    let spec = monotasks_core::run_with_faults(&cluster(), &[(job, blocks)], &spec_cfg(), &plan)
        .expect("degraded run with speculation");
    let rec = &spec.jobs[0].recovery;
    assert!(
        rec.mono_copy_wins[RES_DISK] >= 1,
        "no disk-read copy won: {rec:?}"
    );
    assert!(
        spec.makespan < nospec.makespan,
        "speculation did not shorten the degraded run: {:?} vs {:?}",
        spec.makespan,
        nospec.makespan
    );
    // Only the straggling monotask was re-dispatched — no whole-task retries.
    assert_eq!(rec.tasks_retried, 0, "{rec:?}");
}

/// A serve disk degraded during the shuffle drags network fetches; the
/// executor re-requests the share via the sender's other disk and the
/// re-fetch wins.
#[test]
fn network_straggler_is_beaten_by_a_replica_fetch() {
    let (job, blocks) = sort4();
    let free = monotasks_core::try_run(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &MonoConfig::default(),
    )
    .expect("fault-free run");
    // Degrade one serve disk from mid-run (the shuffle window) onward, so
    // the map stage is untouched and the drag lands on shuffle serve reads.
    let plan = FaultPlan::new().degrade_disk(
        1,
        1,
        0.04,
        SimTime::from_secs_f64(free.makespan.as_secs_f64() * 0.45),
        SimTime::from_secs(100_000),
    );
    let nospec = monotasks_core::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &MonoConfig::default(),
        &plan,
    )
    .expect("degraded run without speculation");
    let spec = monotasks_core::run_with_faults(&cluster(), &[(job, blocks)], &spec_cfg(), &plan)
        .expect("degraded run with speculation");
    let rec = &spec.jobs[0].recovery;
    assert!(
        rec.mono_copy_wins[RES_NET] >= 1,
        "no network-fetch copy won: {rec:?}"
    );
    assert!(
        spec.makespan < nospec.makespan,
        "speculation did not shorten the degraded run: {:?} vs {:?}",
        spec.makespan,
        nospec.makespan
    );
}

/// Loser cancellation returns every queue slot and port: a run riddled with
/// speculation races completes, repeats bit-identically, and its waste
/// accounting stays consistent (wins never exceed copies; waste only exists
/// where races actually ran).
#[test]
fn loser_cancellation_returns_capacity_and_stays_deterministic() {
    let (job, blocks) = sort4();
    let blocks = replicate(&blocks);
    let plan = workloads::straggler_plan(11, &cluster(), 60.0, 2, 10, 2.0);
    assert!(!plan.is_empty());
    let run = || {
        monotasks_core::run_with_faults(
            &cluster(),
            &[(job.clone(), blocks.clone())],
            &spec_cfg(),
            &plan,
        )
        .expect("straggler-only plan must complete — a leaked slot deadlocks")
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.stats.events, b.stats.events);
    assert_eq!(
        testsupport::jobs_debug_sans_host_time(&a.jobs),
        testsupport::jobs_debug_sans_host_time(&b.jobs)
    );
    let rec = &a.jobs[0].recovery;
    assert!(
        rec.mono_copies_total() >= 1,
        "plan produced no speculation: {rec:?}"
    );
    assert!(
        rec.mono_copy_wins_total() <= rec.mono_copies_total(),
        "{rec:?}"
    );
    // Every resolved race charged one loser: waste time moves when any race
    // resolved, and CPU-only losers never charge bytes.
    if rec.mono_copy_wins_total() >= 1 {
        assert!(rec.wasted_work_seconds > 0.0, "{rec:?}");
    }
    assert!(rec.wasted_bytes >= 0.0, "{rec:?}");
    assert_eq!(rec.tasks_retried, 0, "stragglers must not retry: {rec:?}");
}

/// On the same CPU-straggler plan, monotask-level speculation duplicates
/// *only the compute monotask* — wasting zero I/O bytes — while slot-level
/// speculation re-runs the whole task and discards a full set of reads.
/// Both must still beat their own no-speculation baselines.
#[test]
fn monotask_speculation_wastes_less_than_slot_level() {
    let (job, blocks) = sort4();
    let plan = FaultPlan::new().straggle(0, 3, 8.0).straggle(1, 2, 8.0);
    // A 3.0 threshold (both engines, for a fair comparison) clears ordinary
    // serve-queue contention but still trips on the 8x stragglers, so the
    // only races are over the straggling compute monotasks.
    let cfg = MonoConfig {
        mono_speculation_multiplier: Some(3.0),
        ..MonoConfig::default()
    };

    let mono_spec =
        monotasks_core::run_with_faults(&cluster(), &[(job.clone(), blocks.clone())], &cfg, &plan)
            .expect("mono speculative run");
    let mono_nospec = monotasks_core::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &MonoConfig::default(),
        &plan,
    )
    .expect("mono baseline run");
    let rec = &mono_spec.jobs[0].recovery;
    assert!(
        rec.mono_copy_wins[RES_CPU] >= 1,
        "no compute copy won: {rec:?}"
    );
    assert!(
        mono_spec.makespan < mono_nospec.makespan,
        "mono speculation did not help: {:?} vs {:?}",
        mono_spec.makespan,
        mono_nospec.makespan
    );
    // The straggling resource was CPU: its duplicate moves no bytes.
    assert_eq!(
        rec.wasted_bytes, 0.0,
        "compute-only speculation wasted I/O: {rec:?}"
    );

    let slot_cfg = SparkConfig {
        speculation_multiplier: Some(3.0),
        ..SparkConfig::default()
    };
    let slot = sparklike::run_with_faults(&cluster(), &[(job, blocks)], &slot_cfg, &plan)
        .expect("slot-level speculative run");
    let slot_rec = &slot.jobs[0].recovery;
    assert!(slot_rec.tasks_speculated >= 1, "{slot_rec:?}");
    assert!(
        slot_rec.wasted_bytes > 0.0,
        "slot-level speculation should discard a whole task's I/O: {slot_rec:?}"
    );
    assert!(
        rec.wasted_bytes < slot_rec.wasted_bytes,
        "monotask speculation must waste fewer bytes: {} vs {}",
        rec.wasted_bytes,
        slot_rec.wasted_bytes
    );
}

/// Under compute stragglers with monotask speculation, compute records come
/// from both emission paths: an original's completion and a winning copy's.
/// Each compute record has exactly one CPU split in the records' side
/// column, in record order, and the profiles built from it are the pinned
/// bit patterns (`measured`, `cpu`, `cpu_deser`, `cpu_ser`, `input_read`,
/// `other_disk`, `net`, per stage).
#[test]
fn every_compute_record_has_one_cpu_split_under_speculation() {
    let (job, blocks) = sort4();
    let plan = FaultPlan::new().straggle(0, 3, 8.0).straggle(1, 2, 8.0);
    let cfg = MonoConfig {
        mono_speculation_multiplier: Some(3.0),
        ..MonoConfig::default()
    };
    let out = monotasks_core::run_with_faults(&cluster(), &[(job.clone(), blocks)], &cfg, &plan)
        .expect("straggler-only plan completes");
    assert_eq!(out.jobs[0].recovery.mono_copy_wins[RES_CPU], 2);
    let computes = out
        .records
        .iter()
        .filter(|r| r.resource == ResourceKind::Cpu)
        .count();
    assert_eq!(computes, 64);
    assert_eq!(out.records.cpu().len(), computes);
    let mut straggled = Vec::new();
    for (r, cpu) in out.records.with_cpu() {
        assert_eq!(cpu.is_some(), r.resource == ResourceKind::Cpu);
        let Some(cpu) = cpu else { continue };
        let k = r.multitask;
        let spec = job.stages[k.stage.0 as usize].tasks[k.task.0 as usize].cpu;
        if cpu.total() != spec.total() {
            straggled.push((k.stage.0, k.task.0, cpu.total() / spec.total()));
        }
    }
    // The copies won, and record the straggled original's split.
    assert_eq!(straggled.len(), 2);
    for (stage, task, factor) in straggled {
        assert!([(0, 3), (1, 2)].contains(&(stage, task)));
        assert!((factor - 8.0).abs() < 1e-9, "{factor}");
    }
    let bits: Vec<[u64; 7]> = perfmodel::profile_stages(&out.records, &out.jobs)
        .iter()
        .map(|p| {
            [
                p.measured_secs,
                p.cpu_secs,
                p.cpu_deser_secs,
                p.cpu_ser_secs,
                p.input_read_bytes,
                p.other_disk_bytes,
                p.net_bytes,
            ]
            .map(f64::to_bits)
        })
        .collect();
    assert_eq!(
        bits,
        [
            [
                0x4036_1520_62f2_a4b4,
                0x4063_c158_3dae_b73d,
                0x404d_41d4_1d5a_9c5e,
                0x4044_7ae1_47bf_6d75,
                0x41f0_0000_0000_0000,
                0x41f0_0000_0000_0000,
                0x0,
            ],
            [
                0x4039_3514_82ee_dd43,
                0x4063_c158_3dae_b73d,
                0x404d_41d4_1d5a_9c5e,
                0x4044_7ae1_47bf_6d75,
                0x0,
                0x4200_0000_0000_0000,
                0x41e8_0000_0000_0000,
            ],
        ]
    );
}
