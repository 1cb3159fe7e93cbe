//! Property tests for the fault-injection and speculation layers.
//!
//! Contracts: (1) an *empty* fault plan leaves both executors bit-identical
//! to the plan-free entry points — every makespan, record timing, and event
//! count; (2) fault plans generated from the same seed and injected twice
//! produce identical outcomes, including identical structured errors when
//! the plan is unrecoverable; and (3) speculation enabled is still fully
//! deterministic: two runs of the same seeded straggler plan agree
//! byte-for-byte on reports and counters.

mod testsupport;

use cluster::FaultPlan;
use monotasks_core::MonoConfig;
use proptest::prelude::*;
use simcore::SimTime;
use sparklike::SparkConfig;
use testsupport::random_job;
use workloads::{partition_plan, sweep_plan};

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Empty plan ⇒ bit-identical to the plan-free path, both executors.
    #[test]
    fn empty_plan_is_bit_identical(rj in random_job()) {
        let (cluster, job, blocks) = rj.build();

        let mono_cfg = MonoConfig::default();
        let plain = monotasks_core::run(&cluster, &[(job.clone(), blocks.clone())], &mono_cfg);
        let faulted = monotasks_core::run_with_faults(
            &cluster, &[(job.clone(), blocks.clone())], &mono_cfg, &FaultPlan::new(),
        ).expect("empty plan must not fail");
        prop_assert_eq!(plain.makespan, faulted.makespan);
        prop_assert_eq!(plain.stats.events, faulted.stats.events);
        prop_assert_eq!(plain.records.len(), faulted.records.len());
        for (a, b) in plain.records.iter().zip(&faulted.records) {
            prop_assert_eq!(a.queued, b.queued);
            prop_assert_eq!(a.started, b.started);
            prop_assert_eq!(a.ended, b.ended);
            prop_assert_eq!(a.machine, b.machine);
        }
        prop_assert!(faulted.jobs[0].recovery.is_zero());

        let spark_cfg = SparkConfig::default();
        let plain = sparklike::run(&cluster, &[(job.clone(), blocks.clone())], &spark_cfg);
        let faulted = sparklike::run_with_faults(
            &cluster, &[(job, blocks)], &spark_cfg, &FaultPlan::new(),
        ).expect("empty plan must not fail");
        prop_assert_eq!(plain.makespan, faulted.makespan);
        prop_assert_eq!(plain.stats.events, faulted.stats.events);
        prop_assert_eq!(plain.tasks.len(), faulted.tasks.len());
        for (a, b) in plain.tasks.iter().zip(&faulted.tasks) {
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.end, b.end);
            prop_assert_eq!(a.machine, b.machine);
        }
        prop_assert!(faulted.jobs[0].recovery.is_zero());
    }

    /// Same seed, same intensity ⇒ identical outcome on repeat, including
    /// identical errors for unrecoverable plans.
    #[test]
    fn seeded_plans_are_reproducible(
        rj in random_job(),
        seed in 0u64..1000,
        intensity in 0.0f64..2.5,
    ) {
        let (cluster, job, blocks) = rj.build();
        let tasks_per_stage = job.stages.iter().map(|s| s.tasks.len()).max().unwrap_or(1);
        let plan = sweep_plan(seed, &cluster, 60.0, job.stages.len(), tasks_per_stage, intensity);
        let again = sweep_plan(seed, &cluster, 60.0, job.stages.len(), tasks_per_stage, intensity);
        prop_assert_eq!(plan.events(), again.events());

        let mono_cfg = MonoConfig { collect_traces: false, ..MonoConfig::default() };
        let a = monotasks_core::run_with_faults(
            &cluster, &[(job.clone(), blocks.clone())], &mono_cfg, &plan,
        );
        let b = monotasks_core::run_with_faults(
            &cluster, &[(job.clone(), blocks.clone())], &mono_cfg, &plan,
        );
        match (&a, &b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.makespan, y.makespan);
                prop_assert_eq!(x.stats.events, y.stats.events);
                prop_assert_eq!(x.stats.tasks_retried, y.stats.tasks_retried);
                prop_assert_eq!(x.stats.wasted_work_nanos, y.stats.wasted_work_nanos);
            }
            (Err(x), Err(y)) => prop_assert_eq!(x, y),
            _ => prop_assert!(false, "one run failed, the other did not"),
        }

        let spark_cfg = SparkConfig {
            speculation_multiplier: Some(1.5),
            ..SparkConfig::default()
        };
        let a = sparklike::run_with_faults(&cluster, &[(job.clone(), blocks.clone())], &spark_cfg, &plan);
        let b = sparklike::run_with_faults(&cluster, &[(job, blocks)], &spark_cfg, &plan);
        match (&a, &b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.makespan, y.makespan);
                prop_assert_eq!(x.stats.events, y.stats.events);
                prop_assert_eq!(x.stats.tasks_retried, y.stats.tasks_retried);
                prop_assert_eq!(x.stats.tasks_speculated, y.stats.tasks_speculated);
            }
            (Err(x), Err(y)) => prop_assert_eq!(x, y),
            _ => prop_assert!(false, "one run failed, the other did not"),
        }
    }

    /// Monotask speculation enabled ⇒ still fully deterministic: the same
    /// seeded straggler plan run twice agrees byte-for-byte on the
    /// serialized job reports and on every counter.
    #[test]
    fn enabled_mono_speculation_is_run_to_run_identical(
        rj in random_job(),
        seed in 0u64..1000,
        intensity in 0.5f64..2.5,
    ) {
        let (cluster, job, blocks) = rj.build_replicated(2);
        let tasks_per_stage = job.stages.iter().map(|s| s.tasks.len()).max().unwrap_or(1);
        let plan = workloads::straggler_plan(
            seed, &cluster, 60.0, job.stages.len(), tasks_per_stage, intensity,
        );

        let cfg = MonoConfig {
            collect_traces: false,
            mono_speculation_multiplier: Some(1.5),
                ..MonoConfig::default()
        };
        let run = || monotasks_core::run_with_faults(
            &cluster, &[(job.clone(), blocks.clone())], &cfg, &plan,
        ).expect("straggler-only plans are always recoverable");
        let a = run();
        let b = run();
        prop_assert_eq!(
            a.makespan.as_secs_f64().to_bits(),
            b.makespan.as_secs_f64().to_bits()
        );
        prop_assert_eq!(a.stats.events, b.stats.events);
        prop_assert_eq!(a.stats.mono_copies, b.stats.mono_copies);
        prop_assert_eq!(a.stats.mono_copy_wins, b.stats.mono_copy_wins);
        prop_assert_eq!(a.stats.wasted_bytes, b.stats.wasted_bytes);
        prop_assert_eq!(a.stats.wasted_work_nanos, b.stats.wasted_work_nanos);
        // Byte-identical reports and records (full Debug serialization
        // covers every field, including per-resource copy counters; only the
        // host wall-clock control buckets are normalized away).
        prop_assert_eq!(
            testsupport::jobs_debug_sans_host_time(&a.jobs),
            testsupport::jobs_debug_sans_host_time(&b.jobs)
        );
        prop_assert_eq!(format!("{:?}", a.records), format!("{:?}", b.records));
    }

    /// Zero-intensity partition plans are empty, and a plan whose partition
    /// window opens only after the job has finished leaves both executors
    /// bit-identical (`f64::to_bits`) to the plan-free run — the partition
    /// machinery arms but never fires.
    #[test]
    fn inert_partition_plan_is_bit_identical(rj in random_job(), seed in 0u64..1000) {
        let (cluster, job, blocks) = rj.build();
        prop_assert!(partition_plan(seed, &cluster, 60.0, 0.0).is_empty());

        let mono_cfg = MonoConfig { collect_traces: false, ..MonoConfig::default() };
        let plain = monotasks_core::run(&cluster, &[(job.clone(), blocks.clone())], &mono_cfg);
        // One seeded partition landing strictly after the makespan: the
        // executor runs with partition hooks armed but no cut ever applies.
        let after = plain.makespan.as_secs_f64() * 2.0 + 10.0;
        let late = FaultPlan::new().partition(
            vec![vec![0], (1..cluster.machines).collect()],
            SimTime::from_secs_f64(after),
            Some(SimTime::from_secs_f64(after + 5.0)),
        );
        prop_assert!(late.has_partitions());
        let armed = monotasks_core::run_with_faults(
            &cluster, &[(job.clone(), blocks.clone())], &mono_cfg, &late,
        ).expect("late partition must not fail");
        prop_assert_eq!(
            plain.makespan.as_secs_f64().to_bits(),
            armed.makespan.as_secs_f64().to_bits()
        );
        prop_assert_eq!(plain.stats.events, armed.stats.events);
        prop_assert!(armed.jobs[0].recovery.is_zero());

        let spark_cfg = SparkConfig::default();
        let plain = sparklike::run(&cluster, &[(job.clone(), blocks.clone())], &spark_cfg);
        let after = plain.makespan.as_secs_f64() * 2.0 + 10.0;
        let late = FaultPlan::new().partition(
            vec![vec![0], (1..cluster.machines).collect()],
            SimTime::from_secs_f64(after),
            Some(SimTime::from_secs_f64(after + 5.0)),
        );
        let armed = sparklike::run_with_faults(
            &cluster, &[(job, blocks)], &spark_cfg, &late,
        ).expect("late partition must not fail");
        prop_assert_eq!(
            plain.makespan.as_secs_f64().to_bits(),
            armed.makespan.as_secs_f64().to_bits()
        );
        prop_assert_eq!(plain.stats.events, armed.stats.events);
        prop_assert!(armed.jobs[0].recovery.is_zero());
    }

    /// Partition recovery is fully deterministic: the same seeded partition
    /// plan run twice through each executor agrees byte-for-byte on reports
    /// and counters — or fails both times with the identical structured
    /// error.
    #[test]
    fn partition_runs_are_run_to_run_identical(
        rj in random_job(),
        seed in 0u64..1000,
        intensity in 0.5f64..2.5,
    ) {
        let (cluster, job, blocks) = rj.build_replicated(2);
        let plan = partition_plan(seed, &cluster, 60.0, intensity);
        let again = partition_plan(seed, &cluster, 60.0, intensity);
        prop_assert_eq!(plan.events(), again.events());

        let mono_cfg = MonoConfig {
            collect_traces: false,
            fetch_timeout_secs: Some(2.0),
            ..MonoConfig::default()
        };
        let a = monotasks_core::run_with_faults(
            &cluster, &[(job.clone(), blocks.clone())], &mono_cfg, &plan,
        );
        let b = monotasks_core::run_with_faults(
            &cluster, &[(job.clone(), blocks.clone())], &mono_cfg, &plan,
        );
        match (&a, &b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(
                    x.makespan.as_secs_f64().to_bits(),
                    y.makespan.as_secs_f64().to_bits()
                );
                prop_assert_eq!(x.stats.events, y.stats.events);
                prop_assert_eq!(x.stats.fetch_retries, y.stats.fetch_retries);
                prop_assert_eq!(x.stats.stalled_fetch_nanos, y.stats.stalled_fetch_nanos);
                prop_assert_eq!(x.stats.fetches_replanned, y.stats.fetches_replanned);
                prop_assert_eq!(
                    testsupport::jobs_debug_sans_host_time(&x.jobs),
                    testsupport::jobs_debug_sans_host_time(&y.jobs)
                );
                prop_assert_eq!(format!("{:?}", x.records), format!("{:?}", y.records));
            }
            (Err(x), Err(y)) => prop_assert_eq!(x, y),
            _ => prop_assert!(false, "one run failed, the other did not"),
        }

        let spark_cfg = SparkConfig {
            fetch_timeout_secs: Some(2.0),
            ..SparkConfig::default()
        };
        let a = sparklike::run_with_faults(&cluster, &[(job.clone(), blocks.clone())], &spark_cfg, &plan);
        let b = sparklike::run_with_faults(&cluster, &[(job, blocks)], &spark_cfg, &plan);
        match (&a, &b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(
                    x.makespan.as_secs_f64().to_bits(),
                    y.makespan.as_secs_f64().to_bits()
                );
                prop_assert_eq!(x.stats.events, y.stats.events);
                prop_assert_eq!(x.stats.fetch_retries, y.stats.fetch_retries);
                prop_assert_eq!(x.stats.stalled_fetch_nanos, y.stats.stalled_fetch_nanos);
                prop_assert_eq!(x.stats.fetches_replanned, y.stats.fetches_replanned);
                prop_assert_eq!(
                    testsupport::jobs_debug_sans_host_time(&x.jobs),
                    testsupport::jobs_debug_sans_host_time(&y.jobs)
                );
                prop_assert_eq!(format!("{:?}", x.tasks), format!("{:?}", y.tasks));
            }
            (Err(x), Err(y)) => prop_assert_eq!(x, y),
            _ => prop_assert!(false, "one run failed, the other did not"),
        }
    }
}
