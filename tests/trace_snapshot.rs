//! Golden-trace snapshots: the trace layer's output is part of the
//! determinism contract.
//!
//! A small rack-clustered sort with a deterministic fault plan is traced and
//! serialized; the bytes must match the committed reference exactly, for
//! every fabric shard count (the hierarchical fabric's sharding is
//! unobservable in results — PR 9's invariant now extends to traces), and
//! re-emission within one process must be byte-stable.
//!
//! To bless a new reference after an intentional behavior change:
//! `UPDATE_GOLDEN=1 cargo test --test trace_snapshot`.

mod testsupport;

use cluster::{ClusterSpec, FaultPlan, MachineSpec};
use monotasks_core::MonoConfig;
use simcore::SimTime;
use sparklike::SparkConfig;

const GOLDEN_MONO: &str = "tests/golden/trace_small.json";
const GOLDEN_SPARK: &str = "tests/golden/trace_small_spark.json";

/// 4 × m2.4xlarge in racks of 2 with a 2:1 oversubscribed core.
fn rack_cluster() -> ClusterSpec {
    ClusterSpec::with_racks(4, MachineSpec::m2_4xlarge(), 2, 2.0)
}

/// A plan the run survives that still marks the trace: one degraded-disk
/// window (two `disk_scale` instants) and one straggler.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .degrade_disk(1, 0, 0.25, SimTime::from_secs(2), SimTime::from_secs(10))
        .straggle(1, 2, 3.0)
}

fn full_duplex(shards: usize) -> MonoConfig {
    MonoConfig {
        full_duplex_network: true,
        fabric_shards: shards,
        // Arms instant collection; the test serializes the doc itself and
        // never writes this path.
        trace_path: Some(std::path::PathBuf::from("unused.json")),
        ..MonoConfig::default()
    }
}

fn mono_trace_json(shards: usize) -> String {
    let (job, blocks) = testsupport::sort4();
    let out = monotasks_core::run_with_faults(
        &rack_cluster(),
        &[(job, blocks)],
        &full_duplex(shards),
        &plan(),
    )
    .expect("plan is survivable");
    mt_trace::mono_doc(&out).to_json()
}

fn check_golden(path: &str, actual: &str) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, actual).expect("bless golden trace");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing golden trace {path} ({e}); bless with UPDATE_GOLDEN=1")
    });
    assert!(
        expected == actual,
        "{path} drifted from the emitted trace ({} vs {} bytes); \
         if the change is intentional, re-bless with UPDATE_GOLDEN=1",
        expected.len(),
        actual.len()
    );
}

/// The mono trace matches the committed reference byte-for-byte, and the
/// emission is stable within a process.
#[test]
fn mono_trace_matches_golden() {
    let json = mono_trace_json(1);
    assert_eq!(json, mono_trace_json(1), "re-emission must be byte-stable");
    mt_trace::validate_chrome_json(&json).expect("golden trace must be loadable");
    check_golden(GOLDEN_MONO, &json);
}

/// Fabric shard counts are unobservable in the trace bytes.
#[test]
fn shard_count_is_unobservable_in_trace_bytes() {
    let reference = mono_trace_json(1);
    for shards in [2, 8] {
        assert_eq!(
            reference,
            mono_trace_json(shards),
            "{shards}-shard trace diverged from single-shard"
        );
    }
}

/// The spark trace matches its committed reference byte-for-byte.
#[test]
fn spark_trace_matches_golden() {
    let (job, blocks) = testsupport::sort4();
    let cfg = SparkConfig {
        trace_path: Some(std::path::PathBuf::from("unused.json")),
        ..SparkConfig::default()
    };
    let mk = || {
        let out = sparklike::run_with_faults(
            &testsupport::cluster(4),
            &[(job.clone(), blocks.clone())],
            &cfg,
            &plan(),
        )
        .expect("plan is survivable");
        mt_trace::spark_doc(&out).to_json()
    };
    let json = mk();
    assert_eq!(json, mk(), "re-emission must be byte-stable");
    mt_trace::validate_chrome_json(&json).expect("golden trace must be loadable");
    check_golden(GOLDEN_SPARK, &json);
}

/// FNV-1a, 64-bit: a dependency-free content hash for the pins below.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The two documents `trace_export --machines 40 --points 0,1` writes:
/// the fault-free run and the seed-42, intensity-1 faulty run of the
/// 40-machine sort, each with instant collection armed. Returns
/// `(fault-free json, faulty json)`.
fn whatif_docs() -> (String, String) {
    let machines = 40;
    let cl = ClusterSpec::new(machines, MachineSpec::m2_4xlarge());
    let (job, blocks) = workloads::sort_job(&workloads::SortConfig::new(
        2.0 * machines as f64,
        10,
        machines,
        2,
    ));
    let cfg = MonoConfig {
        trace_path: Some(std::path::PathBuf::from("unused.json")),
        ..MonoConfig::default()
    };
    let base = monotasks_core::run(&cl, &[(job.clone(), blocks.clone())], &cfg);
    let plan = workloads::sweep_plan(
        42,
        &cl,
        base.makespan.as_secs_f64(),
        job.stages.len(),
        job.stages[0].tasks.len(),
        1.0,
    );
    let faulty = monotasks_core::run_with_faults(&cl, &[(job, blocks)], &cfg, &plan)
        .expect("faulty run completes");
    (
        mt_trace::mono_doc(&base).to_json(),
        mt_trace::mono_doc(&faulty).to_json(),
    )
}

/// The 40-machine what-if documents keep their exact content. The
/// benchmark's gate compares only each document's length, so a trace-layer
/// change that keeps every length but moves a byte fails here alone.
/// Re-record the pins only from the parent commit's unmodified source.
#[test]
fn whatif_documents_keep_their_content() {
    let (free, faulty) = whatif_docs();
    let pin = |json: &str| (json.len(), fnv1a64(json.as_bytes()));
    assert_eq!(
        pin(&free),
        (10_044_390, 0x3d6e_e880_31be_00dc),
        "fault-free document"
    );
    assert_eq!(
        pin(&faulty),
        (9_837_329, 0x838e_ec9f_3113_0087),
        "faulty document"
    );
}
