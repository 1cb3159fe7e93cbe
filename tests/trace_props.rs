//! Property tests for the trace layer.
//!
//! Contracts: (1) arming `trace_path` is observation-only — both executors
//! stay bit-identical to the trace-off run under random workloads × fault
//! plans; (2) trace conservation — spans on one track never overlap
//! (positive measure), per-resource span byte totals equal the sums over the
//! run's monotask records, and every recovery counter has exactly as many
//! matching instant events as its count.

mod testsupport;

use std::collections::BTreeMap;

use cluster::InstantKind;
use monotasks_core::MonoConfig;
use mt_trace::chrome::Event;
use proptest::prelude::*;
use simcore::ResourceKind;
use sparklike::SparkConfig;
use testsupport::{jobs_debug_sans_host_time, random_job};
use workloads::sweep_plan;

fn traced(cfg: MonoConfig) -> MonoConfig {
    MonoConfig {
        trace_path: Some(std::path::PathBuf::from("unused.json")),
        ..cfg
    }
}

/// Spans grouped by `(pid, tid)` never overlap with positive measure, every
/// `(pid, tid)` that carries a span is named by exactly one `ThreadName`, and
/// every pid that carries a span by exactly one `ProcessName`.
fn assert_lanes_disjoint(doc: &mt_trace::TraceDoc) -> Result<(), TestCaseError> {
    let mut tracks: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    let mut thread_names: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    let mut process_names: BTreeMap<u64, usize> = BTreeMap::new();
    for e in &doc.events {
        match e {
            Event::Span {
                pid,
                tid,
                ts_ns,
                dur_ns,
                ..
            } => tracks
                .entry((*pid, *tid))
                .or_default()
                .push((*ts_ns, *ts_ns + *dur_ns)),
            Event::ThreadName { pid, tid, .. } => {
                *thread_names.entry((*pid, *tid)).or_default() += 1
            }
            Event::ProcessName { pid, .. } => *process_names.entry(*pid).or_default() += 1,
            _ => {}
        }
    }
    for &(pid, tid) in tracks.keys() {
        prop_assert_eq!(
            thread_names.get(&(pid, tid)).copied(),
            Some(1),
            "track ({}, {}) needs exactly one thread name",
            pid,
            tid
        );
        prop_assert_eq!(
            process_names.get(&pid).copied(),
            Some(1),
            "pid {} needs exactly one process name",
            pid
        );
    }
    for ((pid, tid), mut spans) in tracks {
        spans.sort();
        for w in spans.windows(2) {
            prop_assert!(
                w[1].0 >= w[0].1,
                "overlapping spans on track ({pid}, {tid}): {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// `trace_path: None` vs `Some` — bit-identical schedules, both
    /// executors, under random workloads and fault plans.
    #[test]
    fn arming_the_trace_is_observation_only(
        rj in random_job(),
        seed in 0u64..1000,
        intensity in 0.0f64..1.5,
    ) {
        let (cluster, job, blocks) = rj.build();
        let tasks_per_stage = job.stages.iter().map(|s| s.tasks.len()).max().unwrap_or(1);
        let plan = sweep_plan(seed, &cluster, 60.0, job.stages.len(), tasks_per_stage, intensity);

        let off = monotasks_core::run_with_faults(
            &cluster, &[(job.clone(), blocks.clone())], &MonoConfig::default(), &plan,
        );
        let on = monotasks_core::run_with_faults(
            &cluster, &[(job.clone(), blocks.clone())], &traced(MonoConfig::default()), &plan,
        );
        match (off, on) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(
                    a.makespan.as_secs_f64().to_bits(),
                    b.makespan.as_secs_f64().to_bits()
                );
                prop_assert_eq!(
                    jobs_debug_sans_host_time(&a.jobs),
                    jobs_debug_sans_host_time(&b.jobs)
                );
                prop_assert_eq!(a.records.len(), b.records.len());
                prop_assert!(a.instants.is_empty(), "trace-off run must collect nothing");
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(
                false,
                "trace arming changed the outcome: off={:?} on={:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }

        let off = sparklike::run_with_faults(
            &cluster, &[(job.clone(), blocks.clone())], &SparkConfig::default(), &plan,
        );
        let on = sparklike::run_with_faults(
            &cluster,
            &[(job, blocks)],
            &SparkConfig {
                trace_path: Some(std::path::PathBuf::from("unused.json")),
                ..SparkConfig::default()
            },
            &plan,
        );
        match (off, on) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(
                    a.makespan.as_secs_f64().to_bits(),
                    b.makespan.as_secs_f64().to_bits()
                );
                prop_assert_eq!(
                    jobs_debug_sans_host_time(&a.jobs),
                    jobs_debug_sans_host_time(&b.jobs)
                );
                prop_assert!(a.instants.is_empty(), "trace-off run must collect nothing");
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(
                false,
                "trace arming changed the outcome: off={:?} on={:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }

    /// Trace conservation on the mono executor: disjoint lanes, byte totals
    /// equal to the records', instant counts equal to recovery counters.
    #[test]
    fn mono_trace_conserves_run_quantities(
        rj in random_job(),
        seed in 0u64..1000,
        intensity in 0.0f64..1.5,
    ) {
        let (cluster, job, blocks) = rj.build();
        let tasks_per_stage = job.stages.iter().map(|s| s.tasks.len()).max().unwrap_or(1);
        let plan = sweep_plan(seed, &cluster, 60.0, job.stages.len(), tasks_per_stage, intensity);
        let out = match monotasks_core::run_with_faults(
            &cluster, &[(job, blocks)], &traced(MonoConfig::default()), &plan,
        ) {
            Ok(out) => out,
            // Unrecoverable plans are fault_props' concern, not the trace's.
            Err(_) => return Ok(()),
        };
        let doc = mt_trace::mono_doc(&out);
        assert_lanes_disjoint(&doc)?;

        // Span byte totals equal the monotask records' byte sums per class.
        let summary = mt_trace::TraceSummary::of(&doc);
        let mut expected = [0.0f64; 3];
        for r in &out.records {
            let idx = match r.resource {
                ResourceKind::Cpu => dataflow::RES_CPU,
                ResourceKind::Disk => dataflow::RES_DISK,
                ResourceKind::Network => dataflow::RES_NET,
            };
            expected[idx] += r.bytes;
        }
        for (i, &want) in expected.iter().enumerate() {
            let diff = (summary.bytes_by_resource[i] - want).abs();
            prop_assert!(
                diff <= 1e-6 * want.max(1.0),
                "resource {i} bytes drifted: trace {} vs records {}",
                summary.bytes_by_resource[i],
                want
            );
        }

        // Every recovery counter has a matching instant count.
        let count = |f: fn(&InstantKind) -> bool| {
            out.instants.iter().filter(|i| f(&i.kind)).count() as u64
        };
        let recovery: Vec<_> = out.jobs.iter().map(|j| j.recovery).collect();
        let sum = |f: fn(&dataflow::RecoveryStats) -> u64| recovery.iter().map(f).sum::<u64>();
        prop_assert_eq!(
            count(|k| matches!(k, InstantKind::TaskRetry { .. })),
            sum(|r| r.tasks_retried)
        );
        prop_assert_eq!(
            count(|k| matches!(k, InstantKind::MonoCopy { .. })),
            sum(|r| r.mono_copies.iter().sum())
        );
        prop_assert_eq!(
            count(|k| matches!(k, InstantKind::MonoCopyWin { .. })),
            sum(|r| r.mono_copy_wins.iter().sum())
        );
        prop_assert_eq!(
            count(|k| matches!(k, InstantKind::FetchRetry { .. })),
            sum(|r| r.fetch_retries)
        );
        prop_assert_eq!(
            count(|k| matches!(k, InstantKind::FetchReplan { .. })),
            sum(|r| r.fetches_replanned)
        );
        let invalidations: u64 = out
            .jobs
            .iter()
            .flat_map(|j| j.stages.iter())
            .map(|s| s.control.template_invalidations)
            .sum();
        prop_assert_eq!(
            count(|k| matches!(k, InstantKind::TemplateInvalidate { .. })),
            invalidations
        );
        // Fault instants are machine-anchored and never post-makespan.
        for inst in &out.instants {
            prop_assert!(inst.time <= out.makespan || inst.kind.job().is_some());
        }
    }

    /// Spark conservation: disjoint lanes and counter↔instant equality for
    /// the counters the baseline executor owns.
    #[test]
    fn spark_trace_conserves_run_quantities(
        rj in random_job(),
        seed in 0u64..1000,
        intensity in 0.0f64..1.5,
    ) {
        let (cluster, job, blocks) = rj.build();
        let tasks_per_stage = job.stages.iter().map(|s| s.tasks.len()).max().unwrap_or(1);
        let plan = sweep_plan(seed, &cluster, 60.0, job.stages.len(), tasks_per_stage, intensity);
        let cfg = SparkConfig {
            trace_path: Some(std::path::PathBuf::from("unused.json")),
            // Arm speculation so TaskSpeculate instants occur on straggly
            // plans.
            speculation_multiplier: Some(1.5),
            ..SparkConfig::default()
        };
        let out = match sparklike::run_with_faults(&cluster, &[(job, blocks)], &cfg, &plan) {
            Ok(out) => out,
            Err(_) => return Ok(()),
        };
        let doc = mt_trace::spark_doc(&out);
        assert_lanes_disjoint(&doc)?;

        let count = |f: fn(&InstantKind) -> bool| {
            out.instants.iter().filter(|i| f(&i.kind)).count() as u64
        };
        let recovery: Vec<_> = out.jobs.iter().map(|j| j.recovery).collect();
        let sum = |f: fn(&dataflow::RecoveryStats) -> u64| recovery.iter().map(f).sum::<u64>();
        prop_assert_eq!(
            count(|k| matches!(k, InstantKind::TaskRetry { .. })),
            sum(|r| r.tasks_retried)
        );
        prop_assert_eq!(
            count(|k| matches!(k, InstantKind::TaskSpeculate { .. })),
            sum(|r| r.tasks_speculated)
        );
        prop_assert_eq!(
            count(|k| matches!(k, InstantKind::FetchRetry { .. })),
            sum(|r| r.fetch_retries)
        );
        prop_assert_eq!(
            count(|k| matches!(k, InstantKind::FetchReplan { .. })),
            sum(|r| r.fetches_replanned)
        );
    }
}
