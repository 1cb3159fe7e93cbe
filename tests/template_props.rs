//! Execution-template correctness. Stamping from a stage's captured
//! template is the only way the executor builds a task's monotask DAG, and
//! debug builds check every launch against the `decompose()` reference:
//! the stamped nodes must equal the reference expansion, and every
//! shuffle-input launch re-derives the stage's sender layout to prove the
//! cached template is not stale. These tests drive that oracle across
//! random workloads, fault plans and speculation settings, and pin the
//! template bookkeeping: one build per stage when nothing fails, and a crash
//! that moves shuffle placement invalidates, counts and rebuilds the template
//! deterministically.

mod testsupport;

use cluster::InstantKind;
use dataflow::StageId;
use monotasks_core::MonoConfig;
use proptest::prelude::*;
use simcore::SimTime;
use testsupport::{random_job, sort4};
use workloads::{mid_shuffle_crash, sweep_plan};

fn cluster() -> cluster::ClusterSpec {
    testsupport::cluster(4)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random topologies × fault plans × speculation settings, run twice
    /// with the stamping oracle armed (debug builds): a stamped DAG that
    /// diverges from `decompose()`, or a template that outlived a placement
    /// change, panics inside the run. The two runs must also agree bit for
    /// bit, and every task of a stage either consults the template cache or
    /// none does.
    #[test]
    fn stamped_dags_match_decompose_under_faults_and_speculation(
        rj in random_job(),
        seed in 0u64..1000,
        intensity in 0.0f64..2.0,
        speculate in any::<bool>(),
    ) {
        let (cluster, job, blocks) = rj.build_replicated(2);
        let tasks_per_stage = job.stages.iter().map(|s| s.tasks.len()).max().unwrap_or(1);
        let plan = sweep_plan(seed, &cluster, 60.0, job.stages.len(), tasks_per_stage, intensity);
        let cfg = MonoConfig {
            collect_traces: false,
            mono_speculation_multiplier: speculate.then_some(1.5),
            ..MonoConfig::default()
        };
        let jobs = [(job, blocks)];
        let a = monotasks_core::run_with_faults(&cluster, &jobs, &cfg, &plan);
        let b = monotasks_core::run_with_faults(&cluster, &jobs, &cfg, &plan);
        match (&a, &b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(
                    x.makespan.as_secs_f64().to_bits(),
                    y.makespan.as_secs_f64().to_bits()
                );
                prop_assert_eq!(x.stats.events, y.stats.events);
                prop_assert_eq!(format!("{:?}", x.records), format!("{:?}", y.records));
                for job in &x.jobs {
                    for s in &job.stages {
                        let c = s.control;
                        let looked_up = c.template_hits + c.template_misses;
                        prop_assert!(looked_up == 0 || looked_up == c.tasks_started, "{:?}", c);
                    }
                }
            }
            (Err(x), Err(y)) => prop_assert_eq!(x, y),
            _ => prop_assert!(false, "recoverability differs between identical runs"),
        }
    }
}

/// Fault-free sort: the reduce stage derives its control decision exactly
/// once; every other task stamps from the cached template. Map stages never
/// consult the cache (their expansion has no sender sweep to save).
#[test]
fn fault_free_reduce_stage_builds_one_template() {
    let (job, blocks) = sort4();
    let n_reduce = job.stages[1].tasks.len() as u64;
    let out = monotasks_core::run(&cluster(), &[(job, blocks)], &MonoConfig::default());
    let c = out.jobs[0].stage(StageId(1)).expect("reduce stage").control;
    assert_eq!(c.template_misses, 1, "{c:?}");
    assert_eq!(c.template_hits, n_reduce - 1, "{c:?}");
    assert_eq!(c.template_invalidations, 0, "{c:?}");
    assert_eq!(c.tasks_started, n_reduce, "{c:?}");
    let m = out.jobs[0].stage(StageId(0)).expect("map stage").control;
    assert_eq!(m.template_hits + m.template_misses, 0, "{m:?}");
    // The per-stage counters roll up into the run-level stats.
    assert_eq!(out.stats.template_hits, n_reduce - 1);
    assert_eq!(out.stats.template_misses, 1);
}

/// A crash while the reduce stage is consuming shuffle output destroys map
/// outputs and moves placement: the cached template must be dropped (counted
/// as an invalidation) and rebuilt deterministically.
#[test]
fn mid_stage_crash_invalidates_and_rebuilds_the_template() {
    let jobs = [sort4()];
    let free =
        monotasks_core::try_run(&cluster(), &jobs, &MonoConfig::default()).expect("fault-free run");
    let plan = mid_shuffle_crash(1, free.makespan.as_secs_f64() * 0.5);
    let run = || {
        monotasks_core::run_with_faults(&cluster(), &jobs, &MonoConfig::default(), &plan)
            .expect("one crash must be recoverable")
    };

    let a = run();
    let c = a.jobs[0].stage(StageId(1)).expect("reduce stage").control;
    assert!(
        c.template_invalidations >= 1,
        "crash did not invalidate: {c:?}"
    );
    // Initial build plus at least one post-crash rebuild.
    assert!(c.template_misses >= 2, "{c:?}");
    // Every reduce attempt either hit the cache or rebuilt it.
    assert_eq!(
        c.template_hits + c.template_misses,
        c.tasks_started,
        "{c:?}"
    );

    // Rebuild is deterministic: identical reports modulo host wall time.
    // Debug builds also checked every stamped DAG of both runs against the
    // `decompose()` reference, including the post-crash rebuild.
    let b = run();
    assert_eq!(
        testsupport::jobs_debug_sans_host_time(&a.jobs),
        testsupport::jobs_debug_sans_host_time(&b.jobs)
    );
    assert_eq!(
        a.makespan.as_secs_f64().to_bits(),
        b.makespan.as_secs_f64().to_bits()
    );
    assert_eq!(format!("{:?}", a.records), format!("{:?}", b.records));
}

/// The one invalidation guard is eager: the crash that loses map output
/// drops the reduce stage's template at the crash instant, before any reduce
/// task launches again, and the re-captured layout fetches from survivors
/// only. Without the drop, relaunched reduce tasks would stamp fetches from
/// the dead machine: debug builds' oracle panics at that launch, and release
/// builds never finish those fetches.
#[test]
fn lost_shuffle_output_drops_the_consumer_template_at_the_loss() {
    let jobs = [sort4()];
    let free =
        monotasks_core::try_run(&cluster(), &jobs, &MonoConfig::default()).expect("fault-free run");
    let plan = mid_shuffle_crash(1, free.makespan.as_secs_f64() * 0.5);
    let cfg = MonoConfig {
        trace_path: Some("unwritten.json".into()),
        ..MonoConfig::default()
    };
    let out = monotasks_core::run_with_faults(&cluster(), &jobs, &cfg, &plan)
        .expect("one crash must be recoverable");
    let at = |f: fn(&InstantKind) -> bool| -> Vec<SimTime> {
        out.instants
            .iter()
            .filter(|i| f(&i.kind))
            .map(|i| i.time)
            .collect()
    };
    let crash = at(|k| matches!(k, InstantKind::MachineCrash { machine: 1 }));
    assert_eq!(crash.len(), 1);
    assert_eq!(
        at(|k| matches!(k, InstantKind::TemplateInvalidate { job: 0, stage: 1 })),
        crash,
        "the reduce template must be dropped exactly once, at the crash"
    );
    let c = out.jobs[0].stage(StageId(1)).expect("reduce stage").control;
    assert_eq!(
        (c.template_invalidations, c.template_misses),
        (1, 2),
        "{c:?}"
    );
    assert!(
        out.records
            .iter()
            .all(|r| r.machine != 1 || r.ended <= crash[0]),
        "a monotask ran on the dead machine after the crash"
    );
}
