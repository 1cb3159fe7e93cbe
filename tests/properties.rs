//! Property-based tests: randomized job shapes through both executors.
//!
//! For any job the planner can produce, both executors must complete it,
//! respect stage barriers, never beat the model's lower bound, and (for
//! monotasks) conserve bytes between what stages produce and what monotasks
//! move.

use cluster::{ClusterSpec, MachineSpec};
use dataflow::{BlockMap, CostModel, JobBuilder, JobSpec};
use monotasks_core::{DiskChoice, MonoConfig, Purpose};
use perfmodel::{profile_stages, Scenario};
use proptest::prelude::*;

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// A randomized linear job: scan → [shuffle → reduce]? → sink.
#[derive(Clone, Debug)]
struct RandomJob {
    machines: usize,
    disks: usize,
    total_gib: f64,
    map_tasks: usize,
    reduce_tasks: Option<usize>,
    byte_sel: f64,
    in_memory_input: bool,
    in_memory_shuffle: bool,
    write_output: bool,
}

impl RandomJob {
    fn build(&self) -> (ClusterSpec, JobSpec, BlockMap) {
        let total = self.total_gib * GIB;
        let records = total / 64.0;
        let cost = CostModel::spark_1_3();
        let mut b = if self.in_memory_input {
            JobBuilder::new("prop", cost).read_memory(total, records, self.map_tasks, true)
        } else {
            JobBuilder::new("prop", cost).read_disk(total, records, total / self.map_tasks as f64)
        };
        b = b.map(1.0, self.byte_sel, true);
        let job = match self.reduce_tasks {
            Some(r) => {
                let b = b.shuffle(r, self.in_memory_shuffle).map(1.0, 1.0, true);
                if self.write_output {
                    b.write_disk(1.0)
                } else {
                    b.collect()
                }
            }
            None => {
                if self.write_output {
                    b.write_disk(1.0)
                } else {
                    b.collect()
                }
            }
        };
        let cluster = ClusterSpec::new(self.machines, {
            let mut m = MachineSpec::m2_4xlarge();
            m.disks.truncate(self.disks);
            m
        });
        let blocks = BlockMap::round_robin(
            JobBuilder::blocks_allocated(&job).max(1),
            self.machines,
            self.disks,
        );
        (cluster, job, blocks)
    }
}

fn random_job() -> impl Strategy<Value = RandomJob> {
    (
        1usize..=4,
        1usize..=2,
        0.25f64..=3.0,
        1usize..=24,
        prop_oneof![Just(None), (1usize..=16).prop_map(Some)],
        0.05f64..=1.5,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(machines, disks, total_gib, map_tasks, reduce_tasks, byte_sel, imi, ims, wo)| {
                RandomJob {
                    machines,
                    disks,
                    total_gib,
                    map_tasks,
                    reduce_tasks,
                    byte_sel,
                    in_memory_input: imi,
                    in_memory_shuffle: ims,
                    write_output: wo,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn monotasks_executor_invariants(rj in random_job()) {
        let (cluster, job, blocks) = rj.build();
        prop_assert!(job.validate().is_ok());
        let out = monotasks_core::run(
            &cluster,
            &[(job.clone(), blocks)],
            &monotasks_core::MonoConfig::default(),
        );
        let report = &out.jobs[0];
        // Stage barriers hold.
        for w in report.stages.windows(2) {
            prop_assert!(w[1].start >= w[0].end);
        }
        // Records' timings are ordered and inside the job window.
        for r in &out.records {
            prop_assert!(r.queued <= r.started && r.started < r.ended);
            prop_assert!(r.ended <= report.end);
        }
        // Byte conservation: input reads match the spec.
        let spec_input: f64 = job.stages[0].tasks.iter().map(|t| match t.input {
            dataflow::InputSpec::DiskBlock { bytes, .. } => bytes,
            _ => 0.0,
        }).sum();
        let read: f64 = out.records.iter()
            .filter(|r| r.purpose == Purpose::ReadInput)
            .map(|r| r.bytes)
            .sum();
        prop_assert!((read - spec_input).abs() <= spec_input * 1e-9 + 1.0);
        // The measured stage time never beats the model's lower bound.
        let profiles = profile_stages(&out.records, &out.jobs);
        let scen = Scenario::of_cluster(&cluster);
        for p in &profiles {
            let ideal = perfmodel::model::ideal_times(p, &scen).stage_time();
            prop_assert!(
                p.measured_secs >= ideal * 0.999,
                "stage {:?}: measured {} < ideal {}", p.stage, p.measured_secs, ideal
            );
        }
    }

    #[test]
    fn spark_executor_invariants(rj in random_job()) {
        let (cluster, job, blocks) = rj.build();
        let out = sparklike::run(
            &cluster,
            &[(job.clone(), blocks)],
            &sparklike::SparkConfig::default(),
        );
        let report = &out.jobs[0];
        prop_assert_eq!(out.tasks.len(), job.total_tasks());
        for w in report.stages.windows(2) {
            prop_assert!(w[1].start >= w[0].end);
        }
        for t in &out.tasks {
            prop_assert!(t.start <= t.end);
            prop_assert!(t.end <= report.end);
        }
    }

    #[test]
    fn monotasks_executor_is_correct_under_any_configuration(
        rj in random_job(),
        net_outstanding in 1usize..8,
        extra in any::<bool>(),
        rr in any::<bool>(),
        duplex in any::<bool>(),
        shortest_queue in any::<bool>(),
        mem_limit in prop_oneof![Just(None), (0.001f64..0.1).prop_map(Some)],
    ) {
        // Whatever the configuration knobs, the executor must complete the
        // job with barriers intact and never beat the model's lower bound.
        let (cluster, job, blocks) = rj.build();
        let cfg = MonoConfig {
            net_outstanding,
            extra_multitask: extra,
            rr_disk_queues: rr,
            full_duplex_network: duplex,
            write_disk_choice: if shortest_queue {
                DiskChoice::ShortestQueue
            } else {
                DiskChoice::RoundRobin
            },
            memory_limit_fraction: mem_limit,
            ..MonoConfig::default()
        };
        let out = monotasks_core::run(&cluster, &[(job.clone(), blocks)], &cfg);
        let report = &out.jobs[0];
        for w in report.stages.windows(2) {
            prop_assert!(w[1].start >= w[0].end);
        }
        let profiles = profile_stages(&out.records, &out.jobs);
        let scen = Scenario::of_cluster(&cluster);
        for p in &profiles {
            let ideal = perfmodel::model::ideal_times(p, &scen).stage_time();
            prop_assert!(p.measured_secs >= ideal * 0.999);
        }
        // Monotask records account for the same number of compute monotasks
        // as there are tasks, regardless of configuration.
        let computes = out
            .records
            .iter()
            .filter(|r| r.purpose == Purpose::Compute)
            .count();
        prop_assert_eq!(computes, job.total_tasks());
    }

    #[test]
    fn executors_stay_within_a_small_factor_of_each_other(rj in random_job()) {
        let (cluster, job, blocks) = rj.build();
        let mono = monotasks_core::run(
            &cluster,
            &[(job.clone(), blocks.clone())],
            &monotasks_core::MonoConfig::default(),
        ).jobs[0].duration_secs();
        let spark = sparklike::run(
            &cluster,
            &[(job, blocks)],
            &sparklike::SparkConfig::default(),
        ).jobs[0].duration_secs();
        let ratio = mono / spark;
        // The architectures differ, but neither should ever be an order of
        // magnitude apart on these small uniform jobs.
        prop_assert!((0.2..=5.0).contains(&ratio), "ratio {}", ratio);
    }
}
