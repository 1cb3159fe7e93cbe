//! Determinism: identical inputs must produce bit-identical simulations.
//!
//! The whole reproduction rests on this — figures must regenerate exactly,
//! and A/B comparisons must not be noise.

mod testsupport;

use workloads::{bdb_job, sort_job, BdbQuery, SortConfig};

#[test]
fn monotasks_runs_are_bit_identical() {
    let cluster = testsupport::cluster(4);
    let (job, blocks) = testsupport::sort4();
    let run = || {
        monotasks_core::run(
            &cluster,
            &[(job.clone(), blocks.clone())],
            &monotasks_core::MonoConfig::default(),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.multitask, rb.multitask);
        assert_eq!(ra.started, rb.started);
        assert_eq!(ra.ended, rb.ended);
        assert_eq!(ra.machine, rb.machine);
    }
}

#[test]
fn spark_runs_are_bit_identical() {
    let cluster = testsupport::cluster(4);
    let (job, blocks) = bdb_job(BdbQuery::Q2a, 4, 2);
    let run = || {
        sparklike::run(
            &cluster,
            &[(job.clone(), blocks.clone())],
            &sparklike::SparkConfig::default(),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.tasks.len(), b.tasks.len());
    for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
        assert_eq!((ta.job, ta.stage, ta.task), (tb.job, tb.stage, tb.task));
        assert_eq!(ta.start, tb.start);
        assert_eq!(ta.end, tb.end);
    }
}

#[test]
fn concurrent_job_runs_are_bit_identical() {
    let cluster = testsupport::cluster(4);
    let (a_job, a_blocks) = sort_job(&SortConfig::new(2.0, 10, 4, 2));
    let (b_job, b_blocks) = sort_job(&SortConfig::new(2.0, 50, 4, 2));
    let run = || {
        monotasks_core::run(
            &cluster,
            &[
                (a_job.clone(), a_blocks.clone()),
                (b_job.clone(), b_blocks.clone()),
            ],
            &monotasks_core::MonoConfig::default(),
        )
    };
    let (x, y) = (run(), run());
    assert_eq!(x.makespan, y.makespan);
    assert_eq!(
        x.jobs.iter().map(|j| j.end).collect::<Vec<_>>(),
        y.jobs.iter().map(|j| j.end).collect::<Vec<_>>()
    );
}

#[test]
fn job_submission_order_is_respected_in_ids() {
    let cluster = testsupport::cluster(2);
    let (a_job, a_blocks) = sort_job(&SortConfig::new(1.0, 10, 2, 2));
    let (b_job, b_blocks) = sort_job(&SortConfig::new(1.0, 50, 2, 2));
    let out = monotasks_core::run(
        &cluster,
        &[(a_job, a_blocks), (b_job, b_blocks)],
        &monotasks_core::MonoConfig::default(),
    );
    assert_eq!(out.jobs[0].job, dataflow::JobId(0));
    assert_eq!(out.jobs[1].job, dataflow::JobId(1));
}

/// Step counts of one fault-free run per engine. The shared event loop must
/// not move an event: a split or merged batch changes these counts even when
/// makespans happen to agree.
#[test]
fn fault_free_runs_take_their_pinned_steps() {
    let cluster = testsupport::cluster(4);
    let jobs = [bdb_job(BdbQuery::Q2a, 4, 2)];
    let mono = monotasks_core::run(&cluster, &jobs, &monotasks_core::MonoConfig::default());
    assert_eq!((mono.stats.events, mono.queue_trace.len()), (315, 1264));
    let spark = sparklike::run(&cluster, &jobs, &sparklike::SparkConfig::default());
    assert_eq!((spark.stats.events, spark.tasks.len()), (68, 468));
}
