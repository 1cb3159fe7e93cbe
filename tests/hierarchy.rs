//! The rack-sharded hierarchical fabric, end to end: shard counts must be
//! unobservable in results (only in wall-clock), a single rack spanning the
//! cluster must reproduce the flat fabric bit-for-bit, flat clusters keep
//! their pinned fingerprints, and a partition cutting an entire rack must
//! compose with hierarchical mode — quarantine and lineage resubmission
//! fire, and the recovery counters are identical for any shard count.

mod testsupport;

use cluster::{ClusterSpec, FaultPlan, MachineSpec};
use dataflow::BlockMap;
use monotasks_core::MonoConfig;
use proptest::prelude::*;
use simcore::SimTime;
use testsupport::jobs_debug_sans_host_time;
use workloads::{rack_partition_plan, sort_job, SortConfig};

/// `machines` × m2.4xlarge grouped into racks of `rack_size` with an
/// oversubscribed aggregation core.
fn rack_cluster(machines: usize, rack_size: usize, oversub: f64) -> ClusterSpec {
    ClusterSpec::with_racks(machines, MachineSpec::m2_4xlarge(), rack_size, oversub)
}

fn full_duplex(shards: usize, epsilon: f64, quantum_secs: f64) -> MonoConfig {
    MonoConfig {
        full_duplex_network: true,
        fabric_shards: shards,
        fabric_epsilon: epsilon,
        fabric_quantum_secs: quantum_secs,
        ..MonoConfig::default()
    }
}

/// A digest of everything a run reports deterministically: per-job stage and
/// recovery detail plus the exact makespan bits.
fn digest(out: &monotasks_core::MonoRunOutput) -> (String, u64) {
    (
        jobs_debug_sans_host_time(&out.jobs),
        out.makespan.as_secs_f64().to_bits(),
    )
}

/// Shard counts 1, 2, 4, and 8 produce byte-identical reports on a
/// rack-oversubscribed sort, with the exact core and with ε/Δ on the core.
#[test]
fn shard_count_is_unobservable_end_to_end() {
    let cluster = rack_cluster(8, 2, 4.0);
    let (job, blocks) = sort_job(&SortConfig::new(8.0, 24, 8, 2));
    for (eps, q) in [(0.0, 0.0), (0.01, 1e-3)] {
        let reference = digest(&monotasks_core::run(
            &cluster,
            &[(job.clone(), blocks.clone())],
            &full_duplex(1, eps, q),
        ));
        for shards in [2, 4, 8] {
            let out = monotasks_core::run(
                &cluster,
                &[(job.clone(), blocks.clone())],
                &full_duplex(shards, eps, q),
            );
            assert_eq!(
                reference,
                digest(&out),
                "{shards} shards diverged from single-shard (eps={eps}, q={q})"
            );
        }
    }
}

/// One rack spanning the whole cluster never routes a flow through the core,
/// so the hierarchical fabric must reproduce the flat exact fabric
/// bit-for-bit — the single-level path stays the spec.
#[test]
fn single_rack_cluster_matches_flat_fabric() {
    let machines = 4;
    let (job, blocks) = testsupport::sort4();
    let flat = monotasks_core::run(
        &testsupport::cluster(machines),
        &[(job.clone(), blocks.clone())],
        &full_duplex(1, 0.0, 0.0),
    );
    for shards in [1, 4] {
        let hier = monotasks_core::run(
            &rack_cluster(machines, machines, 1.0),
            &[(job.clone(), blocks.clone())],
            &full_duplex(shards, 0.0, 0.0),
        );
        assert_eq!(
            digest(&flat),
            digest(&hier),
            "single-rack hierarchy diverged from the flat fabric ({shards} shards)"
        );
    }
}

/// A partition cutting an entire rack away composes with hierarchical mode:
/// fetch timeouts fire, the unreachable senders are quarantined, their lost
/// shuffle outputs are resubmitted via lineage on the majority side, and the
/// whole recovery — every counter — is identical for 1 and 8 shards.
#[test]
fn rack_partition_composes_with_the_hierarchy() {
    let cluster = rack_cluster(4, 2, 2.0);
    let (job, blocks) = sort_job(&SortConfig::new(4.0, 10, 4, 2));
    // Replication 3 guarantees every block a replica outside its rack of
    // two (consecutive homes always span racks), so the majority side can
    // re-run the lost maps instead of failing fast.
    let blocks = BlockMap::round_robin_replicated(
        blocks.blocks(),
        blocks.machines(),
        blocks.disks_per_machine(),
        3,
    );
    let cfg = |shards| MonoConfig {
        fetch_timeout_secs: Some(1.0),
        ..full_duplex(shards, 0.0, 0.0)
    };
    let free = monotasks_core::try_run(&cluster, &[(job.clone(), blocks.clone())], &cfg(1))
        .expect("fault-free run");
    let free_s = free.makespan.as_secs_f64();
    // Cut mid-shuffle; the "heal" lands far beyond anything the run can
    // reach, so recovery must re-plan rather than wait it out.
    let plan = rack_partition_plan(&cluster, 1, free_s * 0.5, free_s * 100.0);
    let run = |shards| {
        monotasks_core::run_with_faults(
            &cluster,
            &[(job.clone(), blocks.clone())],
            &cfg(shards),
            &plan,
        )
        .expect("run must re-plan around the dark rack")
    };
    let single = run(1);
    let rec = &single.jobs[0].recovery;
    assert!(rec.fetch_retries > 0, "no fetch retries: {rec:?}");
    assert!(
        rec.fetches_replanned > 0,
        "no quarantine re-planning: {rec:?}"
    );
    assert!(
        rec.recompute_seconds > 0.0,
        "no lineage resubmission: {rec:?}"
    );
    assert!(
        single.makespan.as_secs_f64() > free_s,
        "the dark rack had no effect"
    );
    let sharded = run(8);
    assert_eq!(
        digest(&single),
        digest(&sharded),
        "recovery diverged between 1 and 8 shards"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any machine count, rack size, shard pair, and ε/Δ choice: the two
    /// shard counts report byte-identically.
    #[test]
    fn shard_count_invariance_holds_for_random_topologies(
        machines in 2usize..=6,
        rack_size in 1usize..=6,
        shards_a in 1usize..=8,
        shards_b in 1usize..=8,
        approx in any::<bool>(),
    ) {
        let rack_size = rack_size.min(machines);
        let cluster = rack_cluster(machines, rack_size, 4.0);
        let (job, blocks) = sort_job(&SortConfig::new(machines as f64, 8, machines, 2));
        let (eps, q) = if approx { (0.02, 1e-3) } else { (0.0, 0.0) };
        let run = |shards| {
            monotasks_core::run(&cluster, &[(job.clone(), blocks.clone())], &full_duplex(shards, eps, q))
        };
        prop_assert_eq!(digest(&run(shards_a)), digest(&run(shards_b)));
    }
}

/// FNV-1a over every record's machine, queue/start/end instants and byte
/// bits, in record order.
fn record_hash(out: &monotasks_core::MonoRunOutput) -> u64 {
    let fnv = |h: u64, v: u64| (h ^ v).wrapping_mul(0x100_0000_01b3);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for r in &out.records {
        hash = fnv(hash, r.machine as u64);
        hash = fnv(hash, r.queued.0);
        hash = fnv(hash, r.started.0);
        hash = fnv(hash, r.ended.0);
        hash = fnv(hash, r.bytes.to_bits());
    }
    hash
}

/// A cluster with no rack topology runs the full-duplex fabric as one rack
/// under the run's ε/Δ policy. These pins hold that path's makespan bits,
/// event count and record hash exactly: exact, ε/Δ, and ε/Δ with a degraded
/// link plus a partition that heals while fetch timeouts are armed.
#[test]
fn flat_fabric_runs_keep_their_pinned_fingerprints() {
    let cluster = testsupport::cluster(8);
    let jobs = [sort_job(&SortConfig::new(8.0, 24, 8, 2))];
    let others: Vec<usize> = (0..8).filter(|&m| m != 3).collect();
    let faults = FaultPlan::new()
        .degrade_link(2, 0.5, SimTime::from_secs(6), SimTime::from_secs(12))
        .partition(
            vec![vec![3], others],
            SimTime::from_secs(8),
            Some(SimTime::from_secs(11)),
        );
    let pin = |cfg: &MonoConfig, plan: &FaultPlan| {
        let out = monotasks_core::run_with_faults(&cluster, &jobs, cfg, plan).expect("run");
        let rec = &out.jobs[0].recovery;
        assert_eq!(
            plan.has_partitions(),
            rec.fetch_retries > 0,
            "the partition must time a fetch out: {rec:?}"
        );
        (
            out.makespan.as_secs_f64().to_bits(),
            out.stats.events,
            record_hash(&out),
        )
    };
    let approx = full_duplex(1, 0.01, 1e-3);
    let timed = MonoConfig {
        fetch_timeout_secs: Some(1.0),
        ..approx.clone()
    };
    let pins = [
        pin(&full_duplex(1, 0.0, 0.0), &FaultPlan::new()),
        pin(&approx, &FaultPlan::new()),
        pin(&timed, &faults),
    ];
    assert_eq!(
        pins,
        [
            (0x4039_17f5_c9e8_8e41, 246, 0xfd4e_769b_cf24_3945),
            (0x4039_17f5_9ee8_8df3, 240, 0xe119_c4fc_3920_59c7),
            (0x403a_6c73_fe32_2824, 500, 0x1857_62d0_4d44_83a7),
        ]
    );
}
