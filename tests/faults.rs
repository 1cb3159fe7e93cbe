//! Fault injection and recovery, end to end: machine crashes mid-shuffle,
//! unrecoverable plans, stragglers, and degraded hardware through both
//! executors.

mod testsupport;

use cluster::{ClusterSpec, FaultPlan, InstantKind, MachineSpec, RunInstant};
use dataflow::{RunError, StageId};
use monotasks_core::{MonoConfig, Purpose};
use simcore::SimTime;
use sparklike::SparkConfig;
use testsupport::sort4 as sort;
use workloads::{crash_all, mid_shuffle_crash};

fn cluster() -> ClusterSpec {
    testsupport::cluster(4)
}

/// A crash while the reduce stage is consuming shuffle output destroys
/// completed map outputs: both executors must resubmit the lost map tasks
/// (lineage), retry the aborted attempts, and still finish the job.
#[test]
fn both_executors_survive_a_mid_shuffle_crash() {
    let (job, blocks) = sort();
    let total_tasks: usize = job.stages.iter().map(|s| s.tasks.len()).sum();

    // Fault-free makespans locate "mid-shuffle".
    let mono_free = monotasks_core::try_run(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &MonoConfig::default(),
    )
    .expect("fault-free run");
    let crash_at = mono_free.makespan.as_secs_f64() * 0.5;
    let plan = mid_shuffle_crash(1, crash_at);

    let mono = monotasks_core::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &MonoConfig::default(),
        &plan,
    )
    .expect("monotasks run must recover from one crash");
    assert!(mono.makespan > mono_free.makespan);
    let rec = &mono.jobs[0].recovery;
    assert!(rec.tasks_retried > 0, "no retries recorded: {rec:?}");
    assert!(
        rec.recompute_seconds > 0.0,
        "no lineage recomputation: {rec:?}"
    );
    assert_eq!(mono.stats.tasks_retried, rec.tasks_retried);
    // Every logical task completed at least once (compute monotasks carry the
    // multitask key); none ran on the dead machine after the crash.
    let crash_time = SimTime::from_secs_f64(crash_at);
    let mut done = std::collections::HashSet::new();
    for r in &mono.records {
        if r.purpose == Purpose::Compute {
            done.insert((r.multitask.stage, r.multitask.task));
        }
        assert!(
            r.machine != 1 || r.started <= crash_time,
            "monotask served by dead machine: {r:?}"
        );
    }
    assert_eq!(done.len(), total_tasks);
    // The job's output is intact: the reduce stage wrote all its bytes.
    let expected_out: f64 = job.stages[1]
        .tasks
        .iter()
        .map(|t| t.output.disk_bytes())
        .sum();
    let written: f64 = mono
        .records
        .iter()
        .filter(|r| r.purpose == Purpose::WriteOutput && r.multitask.stage == StageId(1))
        .map(|r| r.bytes)
        .sum();
    assert!(
        written >= expected_out * (1.0 - 1e-9),
        "lost output bytes: wrote {written} of {expected_out}"
    );

    let spark_free = sparklike::try_run(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &SparkConfig::default(),
    )
    .expect("fault-free run");
    let spark_plan = mid_shuffle_crash(1, spark_free.makespan.as_secs_f64() * 0.5);
    let spark = sparklike::run_with_faults(
        &cluster(),
        &[(job, blocks)],
        &SparkConfig::default(),
        &spark_plan,
    )
    .expect("spark-like run must recover from one crash");
    assert!(spark.makespan > spark_free.makespan);
    let rec = &spark.jobs[0].recovery;
    assert!(rec.tasks_retried > 0, "no retries recorded: {rec:?}");
    assert!(
        rec.recompute_seconds > 0.0,
        "no lineage recomputation: {rec:?}"
    );
    // Every logical task completed (recomputed map tasks appear twice —
    // once per successful execution — so count distinct coverage).
    let seen: std::collections::HashSet<_> =
        spark.tasks.iter().map(|t| (t.stage, t.task)).collect();
    assert_eq!(seen.len(), total_tasks);
    assert!(
        spark.tasks.len() > total_tasks,
        "a recomputed task should add a second record"
    );
}

/// Crashing every machine leaves nothing to recover on: a clean structured
/// error, not a livelock into the step budget.
#[test]
fn crashing_every_machine_is_a_clean_error() {
    let (job, blocks) = sort();
    let plan = crash_all(&cluster(), 5.0);
    let mono = monotasks_core::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &MonoConfig::default(),
        &plan,
    );
    assert!(
        matches!(mono, Err(RunError::Unrecoverable { .. })),
        "expected Unrecoverable, got {mono:?}"
    );
    let spark =
        sparklike::run_with_faults(&cluster(), &[(job, blocks)], &SparkConfig::default(), &plan);
    assert!(
        matches!(spark, Err(RunError::Unrecoverable { .. })),
        "expected Unrecoverable, got {spark:?}"
    );
}

/// A straggling task shows up in the monotasks executor as an inflated
/// *compute* monotask — the per-resource records attribute the slowdown to
/// the specific resource (§6.6's clarity claim applied to faults).
#[test]
fn monotasks_records_attribute_a_straggler_to_cpu() {
    let (job, blocks) = sort();
    let plan = FaultPlan::new().straggle(0, 3, 5.0);
    let out = monotasks_core::run_with_faults(
        &cluster(),
        &[(job, blocks)],
        &MonoConfig::default(),
        &plan,
    )
    .expect("straggler must not fail the run");
    let compute_secs = |task: u32| -> f64 {
        out.records
            .iter()
            .filter(|r| {
                r.purpose == Purpose::Compute
                    && r.multitask.stage == StageId(0)
                    && r.multitask.task == dataflow::TaskId(task)
            })
            .map(|r| r.service_secs())
            .sum()
    };
    let straggler = compute_secs(3);
    let sibling = compute_secs(4);
    assert!(
        straggler > 3.0 * sibling,
        "straggler compute {straggler}s not inflated over sibling {sibling}s"
    );
}

/// With speculation on, the spark-like executor launches a copy of the
/// straggler on another machine and the copy's finish completes the task.
#[test]
fn sparklike_speculation_beats_a_straggler() {
    let (job, blocks) = sort();
    let plan = FaultPlan::new().straggle(0, 3, 8.0);
    let cfg = SparkConfig {
        speculation_multiplier: Some(1.5),
        ..SparkConfig::default()
    };
    let with_spec =
        sparklike::run_with_faults(&cluster(), &[(job.clone(), blocks.clone())], &cfg, &plan)
            .expect("speculative run");
    assert!(
        with_spec.jobs[0].recovery.tasks_speculated >= 1,
        "no speculative copy launched: {:?}",
        with_spec.jobs[0].recovery
    );
    assert!(with_spec.jobs[0].recovery.wasted_work_seconds > 0.0);
    let without =
        sparklike::run_with_faults(&cluster(), &[(job, blocks)], &SparkConfig::default(), &plan)
            .expect("non-speculative run");
    assert!(
        with_spec.makespan < without.makespan,
        "speculation did not help: {:?} vs {:?}",
        with_spec.makespan,
        without.makespan
    );
}

/// Degrading every disk for the whole run inflates both executors' makespans.
#[test]
fn disk_degradation_inflates_makespans() {
    let (job, blocks) = sort();
    let mut plan = FaultPlan::new();
    for m in 0..4 {
        for d in 0..2 {
            plan = plan.degrade_disk(m, d, 0.3, SimTime::ZERO, SimTime::from_secs(100_000));
        }
    }
    let mono_free = monotasks_core::try_run(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &MonoConfig::default(),
    )
    .unwrap();
    let mono = monotasks_core::run_with_faults(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &MonoConfig::default(),
        &plan,
    )
    .unwrap();
    assert!(mono.makespan > mono_free.makespan);
    let spark_free = sparklike::try_run(
        &cluster(),
        &[(job.clone(), blocks.clone())],
        &SparkConfig::default(),
    )
    .unwrap();
    let spark =
        sparklike::run_with_faults(&cluster(), &[(job, blocks)], &SparkConfig::default(), &plan)
            .unwrap();
    assert!(spark.makespan > spark_free.makespan);
}

/// A degraded NIC reaches the full-duplex fabric: with the fabric modeling
/// sender *and* receiver ports, halving one machine's link stretches the
/// shuffle (and the makespan) relative to the fault-free fabric run.
#[test]
fn degraded_link_stretches_shuffle_on_the_fabric_path() {
    let (job, blocks) = sort();
    let cfg = MonoConfig {
        full_duplex_network: true,
        ..MonoConfig::default()
    };
    let free = monotasks_core::try_run(&cluster(), &[(job.clone(), blocks.clone())], &cfg)
        .expect("fault-free fabric run");
    let plan = FaultPlan::new().degrade_link(1, 0.25, SimTime::ZERO, SimTime::from_secs(100_000));
    let degraded =
        monotasks_core::run_with_faults(&cluster(), &[(job.clone(), blocks.clone())], &cfg, &plan)
            .expect("degraded-link fabric run");
    assert!(
        degraded.makespan > free.makespan,
        "degraded link did not stretch the fabric run: {:?} vs {:?}",
        degraded.makespan,
        free.makespan
    );
    // The slowdown is visible where the fabric says it should be: network
    // monotasks (shuffle reads) take longer in aggregate, not just the tail.
    let net_secs = |out: &monotasks_core::MonoRunOutput| -> f64 {
        out.records
            .iter()
            .filter(|r| r.purpose == Purpose::NetTransfer)
            .map(|r| r.service_secs())
            .sum()
    };
    assert!(
        net_secs(&degraded) > net_secs(&free) * 1.5,
        "shuffle time not stretched: {} vs {}",
        net_secs(&degraded),
        net_secs(&free)
    );
}

/// ε-fair fills and completion coalescing compose with fault injection: a
/// crash landing mid-run (inside coalescing windows) yields the exact same
/// recovery, records, and makespan on every execution.
#[test]
fn approximate_fabric_with_a_crash_is_deterministic() {
    let (job, blocks) = sort();
    let cfg = MonoConfig {
        full_duplex_network: true,
        fabric_epsilon: 0.01,
        fabric_quantum_secs: 1e-3,
        ..MonoConfig::default()
    };
    let free = monotasks_core::try_run(&cluster(), &[(job.clone(), blocks.clone())], &cfg)
        .expect("fault-free approximate run");
    let plan = mid_shuffle_crash(1, free.makespan.as_secs_f64() * 0.5);
    let run = || {
        monotasks_core::run_with_faults(&cluster(), &[(job.clone(), blocks.clone())], &cfg, &plan)
            .expect("approximate run must still recover from one crash")
    };
    let a = run();
    let b = run();
    assert!(a.jobs[0].recovery.tasks_retried > 0, "crash had no effect");
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.stats.events, b.stats.events);
    assert_eq!(a.stats.reallocs, b.stats.reallocs);
    assert_eq!(format!("{:?}", a.records), format!("{:?}", b.records));
}

/// Up-front validation rejects degenerate configs and plans with a
/// descriptive `InvalidConfig` instead of failing mid-run.
#[test]
fn validation_rejects_bad_configs_and_plans() {
    let (job, blocks) = sort();
    let bad_cfg = MonoConfig {
        net_outstanding: 0,
        ..MonoConfig::default()
    };
    assert!(matches!(
        monotasks_core::run_with_faults(
            &cluster(),
            &[(job.clone(), blocks.clone())],
            &bad_cfg,
            &FaultPlan::new()
        ),
        Err(RunError::InvalidConfig(_))
    ));
    let bad_spark = SparkConfig {
        slots_per_machine: Some(0),
        ..SparkConfig::default()
    };
    assert!(matches!(
        sparklike::run_with_faults(
            &cluster(),
            &[(job.clone(), blocks.clone())],
            &bad_spark,
            &FaultPlan::new()
        ),
        Err(RunError::InvalidConfig(_))
    ));
    // Crash of a machine the cluster does not have.
    let bad_plan = FaultPlan::new().crash(99, SimTime::from_secs(1));
    assert!(matches!(
        monotasks_core::run_with_faults(
            &cluster(),
            &[(job.clone(), blocks.clone())],
            &MonoConfig::default(),
            &bad_plan
        ),
        Err(RunError::InvalidConfig(_))
    ));
    assert!(matches!(
        sparklike::run_with_faults(
            &cluster(),
            &[(job.clone(), blocks.clone())],
            &SparkConfig::default(),
            &bad_plan
        ),
        Err(RunError::InvalidConfig(_))
    ));
    // An empty cluster, a machine without cores, and a stage without tasks:
    // each the only invalid part of its input, each named by its own message.
    let empty = ClusterSpec::new(0, MachineSpec::m2_4xlarge());
    let mut coreless = cluster();
    coreless.machine.cores = 0;
    let mut taskless = job.clone();
    taskless.stages[1].tasks.clear();
    let cases = [
        (&empty, &job, "cluster has zero machines".to_string()),
        (&coreless, &job, "machine has zero cores".to_string()),
        (
            &cluster(),
            &taskless,
            format!("invalid job spec {:?}: stage 1 has no tasks", job.name),
        ),
    ];
    for (cluster, job, msg) in cases {
        let jobs = [(job.clone(), blocks.clone())];
        let plan = FaultPlan::new();
        let mono = monotasks_core::run_with_faults(cluster, &jobs, &MonoConfig::default(), &plan);
        let spark = sparklike::run_with_faults(cluster, &jobs, &SparkConfig::default(), &plan);
        assert_eq!(mono.err(), Some(RunError::InvalidConfig(msg.clone())));
        assert_eq!(spark.err(), Some(RunError::InvalidConfig(msg)));
    }
}

/// The queue trace of a run with a crash keeps every snapshot, in order:
/// the dead machine stops reporting at the crash, the others report at
/// every step. The pinned counts, per-class sums and order-sensitive hash
/// are this scenario's trace, so a dropped, duplicated or reordered
/// snapshot fails here, not only in the paper-figure outputs.
#[test]
fn a_crash_runs_queue_trace_keeps_every_snapshot_in_order() {
    let (job, blocks) = sort();
    let jobs = [(job, blocks)];
    let free = monotasks_core::try_run(&cluster(), &jobs, &MonoConfig::default()).unwrap();
    let plan = mid_shuffle_crash(1, free.makespan.as_secs_f64() * 0.5);
    let out = monotasks_core::run_with_faults(&cluster(), &jobs, &MonoConfig::default(), &plan)
        .expect("one crash is recoverable");
    let trace = &out.queue_trace;
    assert_eq!((out.stats.events, trace.len()), (150, 470));
    assert_eq!(trace.iter().len(), trace.len());
    let (mut cpu, mut disk, mut net) = (0, 0, 0);
    let mut per_machine = [0; 4];
    let mut last = [SimTime::ZERO; 4];
    // FNV-1a over every field of every snapshot, in trace order.
    let fnv = |h: u64, v: u64| (h ^ v).wrapping_mul(0x100_0000_01b3);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for s in trace {
        assert_eq!(s.disk_queued.len(), 2, "two disks per machine");
        cpu += s.cpu_queued;
        disk += s.disk_queued.iter().sum::<u32>();
        net += s.net_queued;
        per_machine[s.machine] += 1;
        assert!(s.time >= last[s.machine], "machine {} went back", s.machine);
        last[s.machine] = s.time;
        hash = fnv(hash, s.time.0);
        hash = fnv(hash, s.machine as u64);
        hash = fnv(hash, s.cpu_queued.into());
        for &d in s.disk_queued {
            hash = fnv(hash, d.into());
        }
        hash = fnv(hash, s.net_queued.into());
    }
    assert_eq!((cpu, disk, net), (21, 1036, 863));
    assert_eq!(
        per_machine,
        [151, 17, 151, 151],
        "machine 1 stops at its crash"
    );
    assert_eq!(hash, 0x6120_0400_7a79_c27f);
}

/// The order-sensitive fingerprint of a run's instant stream: the count and
/// an FNV-1a hash over every field of every instant in emission order — its
/// time, its label, then each field of its kind (scale factors by their
/// bits).
fn instant_pin(instants: &[RunInstant]) -> (usize, u64) {
    let fnv = |h: u64, v: u64| (h ^ v).wrapping_mul(0x100_0000_01b3);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for i in instants {
        hash = fnv(hash, i.time.0);
        for &b in i.kind.label().as_bytes() {
            hash = fnv(hash, b.into());
        }
        let fields: Vec<u64> = match i.kind {
            InstantKind::MachineCrash { machine } => vec![machine as u64],
            InstantKind::DiskScale {
                machine,
                disk,
                factor,
            } => vec![machine as u64, disk as u64, factor.to_bits()],
            InstantKind::LinkScale { machine, factor } => vec![machine as u64, factor.to_bits()],
            InstantKind::PairCut { src, dst } | InstantKind::PairHeal { src, dst } => {
                vec![src as u64, dst as u64]
            }
            InstantKind::TaskRetry {
                job,
                stage,
                task,
                recompute,
            } => vec![job.into(), stage.into(), task.into(), recompute.into()],
            InstantKind::TaskSpeculate {
                job,
                stage,
                task,
                machine,
            } => vec![job.into(), stage.into(), task.into(), machine as u64],
            InstantKind::MonoCopy {
                job,
                stage,
                task,
                resource,
            }
            | InstantKind::MonoCopyWin {
                job,
                stage,
                task,
                resource,
            } => vec![job.into(), stage.into(), task.into(), resource as u64],
            InstantKind::TemplateInvalidate { job, stage }
            | InstantKind::FetchReplan { job, stage } => vec![job.into(), stage.into()],
            InstantKind::FetchRetry {
                job,
                stage,
                attempt,
            } => vec![job.into(), stage.into(), attempt.into()],
        };
        for v in fields {
            hash = fnv(hash, v);
        }
    }
    (instants.len(), hash)
}

/// Positions of the instants matching `f`, in emission order.
fn positions(instants: &[RunInstant], f: impl Fn(&InstantKind) -> bool) -> Vec<usize> {
    (0..instants.len())
        .filter(|&k| f(&instants[k].kind))
        .collect()
}

/// Fault instants and recovery-decision instants interleave in one stream;
/// the golden traces only carry disk-scale instants, so these pins hold the
/// whole stream of crash, link-scale, cut, heal, retry, re-plan, template
/// and speculation instants on both executors:
/// - a crash plus a link degraded at the same instant (the crash's retries
///   must precede the link instant; the monotasks executor with and without
///   the fabric);
/// - a partition that heals while fetches time out;
/// - a mid-shuffle crash that drops the live reduce template, so its
///   invalidation sits between the aborted reduce attempt's retry and the
///   lost map tasks' retries;
/// - a CPU straggler beaten by a monotask copy, and by a slot-level copy.
#[test]
fn fault_and_decision_instants_keep_their_order() {
    let (job, blocks) = sort();
    let jobs = [(job, blocks)];
    let crash_and_link = FaultPlan::new()
        .crash(1, SimTime::from_secs(10))
        .degrade_link(2, 0.5, SimTime::from_secs(10), SimTime::from_secs(14));
    let others: Vec<usize> = vec![0, 2, 3];
    let healing_cut = FaultPlan::new().partition(
        vec![vec![1], others],
        SimTime::from_secs(11),
        Some(SimTime::from_secs(15)),
    );
    let free = monotasks_core::try_run(&cluster(), &jobs, &MonoConfig::default()).unwrap();
    let mid_shuffle = mid_shuffle_crash(1, free.makespan.as_secs_f64() * 0.5);
    let straggler = FaultPlan::new().straggle(0, 3, 8.0);
    let mono_cfg = |fabric: bool| MonoConfig {
        trace_path: Some("unwritten.json".into()),
        full_duplex_network: fabric,
        fetch_timeout_secs: Some(2.0),
        ..MonoConfig::default()
    };
    let mono_run = |plan: &FaultPlan, cfg: &MonoConfig| {
        monotasks_core::run_with_faults(&cluster(), &jobs, cfg, plan)
            .unwrap()
            .instants
    };
    let spark_run = |plan: &FaultPlan, cfg: &SparkConfig| {
        sparklike::run_with_faults(&cluster(), &jobs, cfg, plan)
            .unwrap()
            .instants
    };
    let spark_cfg = SparkConfig {
        trace_path: Some("unwritten.json".into()),
        fetch_timeout_secs: Some(2.0),
        ..SparkConfig::default()
    };

    let dropped = mono_run(&mid_shuffle, &mono_cfg(false));
    let invalidated = positions(&dropped, |k| {
        matches!(k, InstantKind::TemplateInvalidate { .. })
    });
    let retried = positions(&dropped, |k| matches!(k, InstantKind::TaskRetry { .. }));
    assert!(
        invalidated
            .iter()
            .any(|&k| retried.iter().any(|&r| r < k) && retried.iter().any(|&r| r > k)),
        "no template invalidation between task retries: {dropped:?}"
    );

    let mono_spec = MonoConfig {
        mono_speculation_multiplier: Some(1.5),
        ..mono_cfg(false)
    };
    let copied = mono_run(&straggler, &mono_spec);
    assert!(
        !positions(&copied, |k| matches!(k, InstantKind::MonoCopy { .. })).is_empty()
            && !positions(&copied, |k| matches!(k, InstantKind::MonoCopyWin { .. })).is_empty(),
        "no monotask copy launched and won: {copied:?}"
    );

    let spark_spec = SparkConfig {
        speculation_multiplier: Some(1.5),
        ..spark_cfg.clone()
    };
    let speculated = spark_run(&straggler, &spark_spec);
    assert!(
        !positions(&speculated, |k| matches!(
            k,
            InstantKind::TaskSpeculate { .. }
        ))
        .is_empty(),
        "no slot-level copy launched: {speculated:?}"
    );

    let pins = [
        instant_pin(&mono_run(&crash_and_link, &mono_cfg(false))),
        instant_pin(&mono_run(&crash_and_link, &mono_cfg(true))),
        instant_pin(&spark_run(&crash_and_link, &spark_cfg)),
        instant_pin(&mono_run(&healing_cut, &mono_cfg(false))),
        instant_pin(&spark_run(&healing_cut, &spark_cfg)),
        instant_pin(&dropped),
        instant_pin(&copied),
        instant_pin(&speculated),
    ];
    assert_eq!(
        pins,
        [
            (11, 0x0691_9dcb_1112_719d),
            (11, 0x0691_9dcb_1112_719d),
            (43, 0xad63_0057_6f2d_afd3),
            (108, 0x4fcd_17c5_26d8_1d59),
            (76, 0xdb4b_86ed_a589_fd89),
            (41, 0xfe79_be3f_ef69_f52b),
            (22, 0x6bf4_169a_106b_8c25),
            (1, 0x08d5_0054_8122_8bc7),
        ]
    );
}
