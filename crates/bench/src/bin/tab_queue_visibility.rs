//! §3.1's "visible contention": the bottleneck resource is the one with the
//! longest monotask queues — no profiler required.
//!
//! For three deliberately differently-bottlenecked jobs, print the mean
//! scheduler queue lengths per resource class alongside the model's
//! bottleneck verdict: they must agree.

use cluster::{ClusterSpec, MachineSpec};
use dataflow::{BlockMap, CostModel, JobBuilder, JobSpec};
use mt_bench::{header, run_mono};
use perfmodel::{profile_stages, Scenario};
use workloads::GIB;

fn mean_queues(out: &monotasks_core::MonoRunOutput) -> (f64, f64, f64) {
    let n = out.queue_trace.len().max(1) as f64;
    let mut cpu = 0.0;
    let mut disk = 0.0;
    let mut net = 0.0;
    for s in &out.queue_trace {
        cpu += s.cpu_queued as f64;
        disk += s.disk_queued.iter().map(|&q| q as usize).sum::<usize>() as f64;
        net += s.net_queued as f64;
    }
    (cpu / n, disk / n, net / n)
}

fn main() {
    header(
        "§3.1 queue visibility",
        "scheduler queue lengths vs the model's bottleneck verdict",
        "contention is visible as the queue length for each resource",
    );
    let cluster = ClusterSpec::new(4, MachineSpec::m2_4xlarge());
    let total = 8.0 * GIB;
    let jobs: Vec<(&str, JobSpec)> = vec![
        (
            "cpu-bound",
            JobBuilder::new("cpu", CostModel::spark_1_3())
                .read_disk(total, total / 16.0, total / 128.0)
                .map(1.0, 1.0, true)
                .collect(),
        ),
        (
            "disk-bound",
            JobBuilder::new("disk", CostModel::spark_1_3())
                .read_disk(total, total / 50_000.0, total / 128.0)
                .map(1.0, 1.0, false)
                .write_disk(1.0),
        ),
        (
            "network-bound",
            JobBuilder::new("net", CostModel::spark_1_3())
                .read_memory(total, total / 50_000.0, 128, true)
                .map(1.0, 1.0, false)
                .shuffle(128, true)
                .map(1.0, 1.0, false)
                .write_memory(),
        ),
    ];
    println!(
        "{:<14} {:>9} {:>9} {:>9}   {:<18} model bottleneck",
        "job", "cpu q", "disk q", "net q", "longest queue"
    );
    for (label, job) in jobs {
        let blocks = BlockMap::round_robin(128, 4, 2);
        let out = run_mono(&cluster, job, blocks);
        let (cpu, disk, net) = mean_queues(&out);
        let longest = if cpu >= disk && cpu >= net {
            "cpu"
        } else if disk >= net {
            "disk"
        } else {
            "network"
        };
        let profiles = profile_stages(&out.records, &out.jobs);
        let scen = Scenario::of_cluster(&cluster);
        // The dominant stage's bottleneck (the stage with the longest ideal time).
        let bottleneck = profiles
            .iter()
            .map(|p| perfmodel::model::ideal_times(p, &scen))
            .max_by(|a, b| a.stage_time().partial_cmp(&b.stage_time()).expect("finite"))
            .map(|t| t.bottleneck().name())
            .unwrap_or("?");
        println!(
            "{:<14} {:>9.1} {:>9.1} {:>9.1}   {:<18} {}",
            label, cpu, disk, net, longest, bottleneck
        );
    }
}
