//! Wall-clock observability for the simulator's own control plane.
//!
//! The paper's thesis is performance *clarity*; this module applies it to the
//! simulator itself: how many events fired, how many allocator recomputations
//! they triggered, and where the host wall-clock time went — split by phase
//! (rate filling, lazy-drain materialization, completion collection, and the
//! executor's own control loop). `scale_sweep` (in `mt-bench`) uses these
//! counters to attribute the control plane's cost as clusters grow.

/// Counters describing one simulation run's control-plane cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Simulation events handled (driver-loop iterations).
    pub events: u64,
    /// Allocator reallocations (progressive-filling recomputations).
    pub reallocs: u64,
    /// Wall-clock nanoseconds spent inside allocator recomputations.
    pub alloc_nanos: u64,
    /// Wall-clock nanoseconds inside *per-machine* allocator recomputations
    /// (`cluster::fluid`): executors re-attribute machine-local allocation
    /// here so `alloc_nanos` isolates the cluster-wide fabric.
    pub machine_alloc_nanos: u64,
    /// Wall-clock nanoseconds materializing lazy per-flow/stream drain
    /// outside of recomputations.
    pub drain_nanos: u64,
    /// Wall-clock nanoseconds collecting completed flows/streams (excluding
    /// the reallocation a completion wave triggers, counted above).
    pub completion_nanos: u64,
    /// Wall-clock nanoseconds in the executor's own control loop: total
    /// driver wall time minus everything the allocators account for *and*
    /// minus the template-build / instantiate buckets below.
    pub control_nanos: u64,
    /// Wall-clock nanoseconds deriving control-plane decisions (sender-share
    /// layout + monotask DAG expansion). With execution templates on, this is
    /// paid once per stage plus once per invalidation; with templates off,
    /// once per task — which is exactly the collapse `scale_sweep` measures.
    pub template_build_nanos: u64,
    /// Wall-clock nanoseconds stamping per-task state from captured
    /// decisions and enqueueing the resulting monotasks.
    pub instantiate_nanos: u64,
    /// Task launches that instantiated from a valid cached template.
    pub template_hits: u64,
    /// Task launches that had to (re)build their stage's template first.
    pub template_misses: u64,
    /// Template rebuilds forced by placement changes (shuffle outputs lost to
    /// a crash, lineage recomputation).
    pub template_invalidations: u64,
    /// Task attempts re-queued after a failure (crash abort or lost shuffle
    /// output). Simulated-recovery counter, not wall clock.
    pub tasks_retried: u64,
    /// Speculative task copies launched (sparklike straggler mitigation).
    pub tasks_speculated: u64,
    /// Simulated nanoseconds of task work thrown away: aborted in-flight
    /// attempts and losing speculative copies.
    pub wasted_work_nanos: u64,
    /// Simulated nanoseconds re-executing previously-completed tasks whose
    /// outputs were lost to a crash (lineage recomputation).
    pub recompute_nanos: u64,
    /// Monotask-level speculative copies launched (single-resource re-dispatch
    /// against a straggling monotask; zero for slot-level engines).
    pub mono_copies: u64,
    /// Monotask-level copies that beat their original.
    pub mono_copy_wins: u64,
    /// Requested I/O bytes of discarded work (rounded): aborted in-flight
    /// attempts and losing speculative copies charge the full bytes of every
    /// I/O they had started.
    pub wasted_bytes: u64,
    /// Fetch retry decisions taken after a partition stalled a fetch past
    /// its timeout. Simulated-recovery counter, not wall clock.
    pub fetch_retries: u64,
    /// Simulated nanoseconds fetches spent stalled at ~zero rate on a cut
    /// fabric pair before heal, retry, or re-planning.
    pub stalled_fetch_nanos: u64,
    /// Simulated nanoseconds of deterministic exponential backoff between
    /// fetch retries.
    pub fetch_backoff_nanos: u64,
    /// Fetches whose source assignment partition recovery re-planned.
    pub fetches_replanned: u64,
    /// Fabric completion sweeps that collected at least one flow from any
    /// shard (rack or core).
    pub shard_epochs: u64,
    /// Flow completions those sweeps merged across shards.
    pub cross_shard_events: u64,
    /// Hierarchical commit waves fanned out to scoped worker threads (waves
    /// below the dirty-rack threshold run serially and are not counted).
    pub parallel_commits: u64,
}

impl SimStats {
    /// All-zero counters.
    pub fn new() -> SimStats {
        SimStats::default()
    }

    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &SimStats) {
        self.events += other.events;
        self.reallocs += other.reallocs;
        self.alloc_nanos += other.alloc_nanos;
        self.machine_alloc_nanos += other.machine_alloc_nanos;
        self.drain_nanos += other.drain_nanos;
        self.completion_nanos += other.completion_nanos;
        self.control_nanos += other.control_nanos;
        self.template_build_nanos += other.template_build_nanos;
        self.instantiate_nanos += other.instantiate_nanos;
        self.template_hits += other.template_hits;
        self.template_misses += other.template_misses;
        self.template_invalidations += other.template_invalidations;
        self.tasks_retried += other.tasks_retried;
        self.tasks_speculated += other.tasks_speculated;
        self.wasted_work_nanos += other.wasted_work_nanos;
        self.recompute_nanos += other.recompute_nanos;
        self.mono_copies += other.mono_copies;
        self.mono_copy_wins += other.mono_copy_wins;
        self.wasted_bytes += other.wasted_bytes;
        self.fetch_retries += other.fetch_retries;
        self.stalled_fetch_nanos += other.stalled_fetch_nanos;
        self.fetch_backoff_nanos += other.fetch_backoff_nanos;
        self.fetches_replanned += other.fetches_replanned;
        self.shard_epochs += other.shard_epochs;
        self.cross_shard_events += other.cross_shard_events;
        self.parallel_commits += other.parallel_commits;
    }

    /// Wall-clock nanoseconds the allocators account for across all phases.
    pub fn allocator_nanos(&self) -> u64 {
        self.alloc_nanos + self.machine_alloc_nanos + self.drain_nanos + self.completion_nanos
    }

    /// Moves allocation time into the per-machine bucket. Executors apply
    /// this to each `cluster::fluid` allocator's stats before merging, so
    /// per-phase attribution separates machine-local allocation from the
    /// fabric's.
    pub fn as_machine_alloc(mut self) -> SimStats {
        self.machine_alloc_nanos += self.alloc_nanos;
        self.alloc_nanos = 0;
        self
    }

    /// Wall-clock seconds spent in allocator recomputations.
    pub fn alloc_secs(&self) -> f64 {
        self.alloc_nanos as f64 / 1e9
    }

    /// Wall-clock seconds inside per-machine allocator recomputations.
    pub fn machine_alloc_secs(&self) -> f64 {
        self.machine_alloc_nanos as f64 / 1e9
    }

    /// Wall-clock seconds materializing lazy drain.
    pub fn drain_secs(&self) -> f64 {
        self.drain_nanos as f64 / 1e9
    }

    /// Wall-clock seconds collecting completions.
    pub fn completion_secs(&self) -> f64 {
        self.completion_nanos as f64 / 1e9
    }

    /// Wall-clock seconds in the executor control loop.
    pub fn control_secs(&self) -> f64 {
        self.control_nanos as f64 / 1e9
    }

    /// Wall-clock seconds deriving control-plane decisions.
    pub fn template_build_secs(&self) -> f64 {
        self.template_build_nanos as f64 / 1e9
    }

    /// Wall-clock seconds stamping tasks from captured decisions.
    pub fn instantiate_secs(&self) -> f64 {
        self.instantiate_nanos as f64 / 1e9
    }

    /// Simulated seconds of wasted (aborted or losing-copy) task work.
    pub fn wasted_work_secs(&self) -> f64 {
        self.wasted_work_nanos as f64 / 1e9
    }

    /// Simulated seconds of lineage recomputation.
    pub fn recompute_secs(&self) -> f64 {
        self.recompute_nanos as f64 / 1e9
    }
}

/// Lower-middle median of a duration population: for even-length inputs the
/// lower of the two central values — the convention Spark's speculation
/// estimator uses, shared by both executors so slot-level and monotask-level
/// speculation react to the same straggler signal. Returns `0.0` on an empty
/// slice.
///
/// # Panics
///
/// Panics if any value is NaN (durations are always finite).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    v[(v.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = SimStats {
            events: 1,
            reallocs: 2,
            alloc_nanos: 3,
            machine_alloc_nanos: 11,
            drain_nanos: 4,
            completion_nanos: 5,
            control_nanos: 6,
            template_build_nanos: 15,
            instantiate_nanos: 16,
            template_hits: 17,
            template_misses: 18,
            template_invalidations: 19,
            tasks_retried: 7,
            tasks_speculated: 8,
            wasted_work_nanos: 9,
            recompute_nanos: 10,
            mono_copies: 12,
            mono_copy_wins: 13,
            wasted_bytes: 14,
            fetch_retries: 20,
            stalled_fetch_nanos: 21,
            fetch_backoff_nanos: 22,
            fetches_replanned: 23,
            shard_epochs: 24,
            cross_shard_events: 25,
            parallel_commits: 26,
        };
        a.merge(&SimStats {
            events: 10,
            reallocs: 20,
            alloc_nanos: 30,
            machine_alloc_nanos: 110,
            drain_nanos: 40,
            completion_nanos: 50,
            control_nanos: 60,
            template_build_nanos: 150,
            instantiate_nanos: 160,
            template_hits: 170,
            template_misses: 180,
            template_invalidations: 190,
            tasks_retried: 70,
            tasks_speculated: 80,
            wasted_work_nanos: 90,
            recompute_nanos: 100,
            mono_copies: 120,
            mono_copy_wins: 130,
            wasted_bytes: 140,
            fetch_retries: 200,
            stalled_fetch_nanos: 210,
            fetch_backoff_nanos: 220,
            fetches_replanned: 230,
            shard_epochs: 240,
            cross_shard_events: 250,
            parallel_commits: 260,
        });
        assert_eq!(
            a,
            SimStats {
                events: 11,
                reallocs: 22,
                alloc_nanos: 33,
                machine_alloc_nanos: 121,
                drain_nanos: 44,
                completion_nanos: 55,
                control_nanos: 66,
                template_build_nanos: 165,
                instantiate_nanos: 176,
                template_hits: 187,
                template_misses: 198,
                template_invalidations: 209,
                tasks_retried: 77,
                tasks_speculated: 88,
                wasted_work_nanos: 99,
                recompute_nanos: 110,
                mono_copies: 132,
                mono_copy_wins: 143,
                wasted_bytes: 154,
                fetch_retries: 220,
                stalled_fetch_nanos: 231,
                fetch_backoff_nanos: 242,
                fetches_replanned: 253,
                shard_epochs: 264,
                cross_shard_events: 275,
                parallel_commits: 286,
            }
        );
        assert!((a.alloc_secs() - 33e-9).abs() < 1e-18);
        assert_eq!(a.allocator_nanos(), 33 + 121 + 44 + 55);
        assert!((a.template_build_secs() - 165e-9).abs() < 1e-18);
        assert!((a.instantiate_secs() - 176e-9).abs() < 1e-18);
    }

    #[test]
    fn median_uses_the_lower_middle_convention() {
        // Odd length: the true middle.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Even length: the *lower* of the two central values, not their mean.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
        assert_eq!(median(&[4.0, 3.0, 2.0, 1.0]), 2.0);
        // Degenerate populations.
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn as_machine_alloc_reattributes_allocation_time() {
        let s = SimStats {
            reallocs: 5,
            alloc_nanos: 100,
            machine_alloc_nanos: 7,
            drain_nanos: 3,
            ..SimStats::default()
        };
        let m = s.as_machine_alloc();
        assert_eq!(m.alloc_nanos, 0);
        assert_eq!(m.machine_alloc_nanos, 107);
        // Totals are preserved: only the attribution moves.
        assert_eq!(m.allocator_nanos(), s.allocator_nanos());
        assert_eq!(m.reallocs, 5);
    }
}
