//! Coupled fluid allocation of machine resources among task streams.
//!
//! A **stream** is one phase of one task: a bundle of resource demands that
//! drain *in lockstep*. A fine-grained-pipelined Spark task phase that reads
//! 128 MB from disk while spending 2 CPU-seconds deserializing is a stream
//! with demand `{disk: 128 MB, cpu: 2 s}`: at every instant it consumes disk
//! bandwidth and CPU in the ratio 64 MB : 1 s, and its progress rate is set by
//! whichever resource is more contended. A monotask is simply a stream with a
//! single non-zero demand — so one allocator faithfully runs both the baseline
//! and the monotasks executor, and any modelling bias cancels out of the
//! comparison.
//!
//! Rates are assigned by progressive filling: repeatedly give every unfrozen
//! stream the fair share of each resource it uses, freeze the slowest stream
//! at its resulting rate, release what it does not use, and repeat. Each
//! stream therefore gets at least the equal share of its bottleneck resource,
//! and surplus from bottlenecked streams is redistributed — the fluid analogue
//! of OS round-robin plus work conservation.
//!
//! HDD aggregate throughput *falls* with the number of concurrent streams
//! (seeks) and SSD throughput *rises* up to the device queue depth, via
//! [`crate::hw::DiskSpec::throughput_at`]. This is how the allocator reproduces §5.4:
//! eight pipelined Spark tasks interleaving on two HDDs lose ~2× aggregate
//! disk bandwidth, while the monotasks disk scheduler (one stream per disk)
//! keeps sequential speed.
//!
//! # Incremental implementation
//!
//! Executors touch every machine at every simulation step, so the per-step
//! cost of one machine must not scale with its stream count:
//!
//! * **Sparse demands and resource counts.** Each stream keeps a sparse
//!   `(resource, demand)` list, and the allocator maintains per-disk
//!   reader/writer counts, so reallocation rounds and the concurrency-aware
//!   capacity vector cost O(non-zero demands), not O(streams × resources).
//! * **Deferred (virtual-time) drain.** [`FluidMachine::advance`] only moves
//!   the clock; progress fractions are materialised lazily at the next
//!   mutation. Between reallocations rates are constant, so the drain is
//!   exact, and a quiescent machine costs O(1) per step.
//! * **A completion-time min-heap** with generation-based lazy invalidation
//!   makes [`FluidMachine::next_completion`]/[`FluidMachine::take_completed`]
//!   O(log streams).
//! * **Batched mutations** ([`FluidMachine::begin_update`] /
//!   [`FluidMachine::commit`]) collapse a wave of stream changes at one
//!   instant into a single reallocation.
//! * **Per-resource used-rate accumulators** make [`FluidMachine::cpu_busy`],
//!   [`FluidMachine::disk_busy`] and [`FluidMachine::rx_busy`] O(1) reads.
//!
//! The original quadratic algorithm is kept verbatim as
//! [`FluidMachine::reference_reallocate`]; with the `slowcheck` cargo feature
//! every reallocation is `debug_assert!`-checked against it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

use simcore::stats::SimStats;
use simcore::time::{SimDuration, SimTime};

use crate::hw::MachineSpec;

/// Remaining progress below this fraction counts as complete.
const PROGRESS_EPSILON: f64 = 1e-9;

/// Identifies a machine in the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MachineId(pub usize);

/// Identifies a disk within one machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DiskId(pub usize);

/// Identifies a stream within one machine's allocator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(pub u64);

/// Resource demands of one stream, drained proportionally.
///
/// Work units: CPU in core-seconds, disk and network in bytes. Disk demand
/// distinguishes reads from writes because HDD contention does (see
/// [`crate::hw::DiskSpec`]): parallel sequential readers degrade mildly,
/// interleaved writers harshly.
#[derive(Clone, Debug, Default)]
pub struct StreamDemand {
    /// CPU work in core-seconds. A stream is single-threaded: it can use at
    /// most one core regardless of contention (Spark tasks have one thread;
    /// a compute monotask runs on one core).
    pub cpu: f64,
    /// Bytes read from each local disk, indexed by [`DiskId`].
    pub disk_read: Vec<f64>,
    /// Bytes written to each local disk, indexed by [`DiskId`].
    pub disk_write: Vec<f64>,
    /// Bytes received over the NIC.
    pub rx: f64,
}

impl StreamDemand {
    /// An all-zero demand for a machine with `n_disks` disks.
    pub fn zero(n_disks: usize) -> StreamDemand {
        StreamDemand {
            cpu: 0.0,
            disk_read: vec![0.0; n_disks],
            disk_write: vec![0.0; n_disks],
            rx: 0.0,
        }
    }

    /// A pure-CPU demand (a compute monotask).
    pub fn cpu_only(work: f64, n_disks: usize) -> StreamDemand {
        let mut d = StreamDemand::zero(n_disks);
        d.cpu = work;
        d
    }

    /// A pure-disk-read demand (a disk read monotask).
    pub fn disk_read_only(disk: DiskId, bytes: f64, n_disks: usize) -> StreamDemand {
        let mut d = StreamDemand::zero(n_disks);
        d.disk_read[disk.0] = bytes;
        d
    }

    /// A pure-disk-write demand (a disk write monotask or a cache flush).
    pub fn disk_write_only(disk: DiskId, bytes: f64, n_disks: usize) -> StreamDemand {
        let mut d = StreamDemand::zero(n_disks);
        d.disk_write[disk.0] = bytes;
        d
    }

    /// A pure-network-receive demand (a network monotask).
    pub fn rx_only(bytes: f64, n_disks: usize) -> StreamDemand {
        let mut d = StreamDemand::zero(n_disks);
        d.rx = bytes;
        d
    }

    /// Bytes moved through disk `i` in either direction.
    pub fn disk_total(&self, i: usize) -> f64 {
        self.disk_read[i] + self.disk_write[i]
    }

    /// Total demand across all resources (used to reject empty streams).
    fn total(&self) -> f64 {
        self.cpu
            + self.disk_read.iter().sum::<f64>()
            + self.disk_write.iter().sum::<f64>()
            + self.rx
    }

    /// Sparse `(resource column, demand)` pairs in ascending column order.
    fn sparse(&self) -> Vec<(usize, f64)> {
        let nd = self.disk_read.len();
        let mut v = Vec::with_capacity(2);
        if self.cpu > 0.0 {
            v.push((0, self.cpu));
        }
        for i in 0..nd {
            let d = self.disk_total(i);
            if d > 0.0 {
                v.push((1 + i, d));
            }
        }
        if self.rx > 0.0 {
            v.push((1 + nd, self.rx));
        }
        v
    }
}

/// Working buffers of one progressive fill ([`FluidMachine::fill_rates`]),
/// kept on the machine so a reallocation allocates nothing after warm-up.
#[derive(Debug, Default)]
struct FillScratch {
    cap_left: Vec<f64>,
    counts: Vec<usize>,
    unfrozen: Vec<StreamId>,
    tentative: Vec<(StreamId, f64, bool)>,
    usage: Vec<f64>,
    saturated: Vec<bool>,
    to_freeze: Vec<(StreamId, f64)>,
}

#[derive(Clone, Debug)]
struct Stream {
    demand: StreamDemand,
    /// Non-zero `(resource column, demand)` pairs of `demand`.
    sparse: Vec<(usize, f64)>,
    /// Fraction of the phase still to run as of the machine's `synced`
    /// instant, in `[0, 1]` (drain is materialised lazily).
    remaining: f64,
    /// Progress rate in fractions per second (set by `reallocate`).
    rate: f64,
    /// Generation of this stream's live heap entry; 0 means never scheduled.
    gen: u64,
    /// Completion instant of the live heap entry (valid when `gen != 0`).
    deadline: SimTime,
    /// Reallocation round stamp; equals the machine's `freeze_stamp` while
    /// this stream's rate is frozen during the current reallocation.
    frozen_at: u64,
}

/// One machine's fluid resource allocator. See the module docs for the model.
#[derive(Debug)]
pub struct FluidMachine {
    spec: MachineSpec,
    streams: BTreeMap<StreamId, Stream>,
    /// Streams currently reading / writing each disk (drives the
    /// concurrency-dependent capacity without scanning streams).
    disk_readers: Vec<usize>,
    disk_writers: Vec<usize>,
    /// Fault-injection service-rate multiplier per resource column (1.0 =
    /// healthy). Multiplying by exactly 1.0 is a bit-exact no-op, so a run
    /// without degradations is unchanged.
    scale: Vec<f64>,
    /// Capacity vector as of the last reallocation.
    caps: Vec<f64>,
    /// Delivered rate per resource column as of the last reallocation.
    res_used: Vec<f64>,
    /// Progressive-fill working buffers, reused across reallocations.
    fill: FillScratch,
    /// Min-heap of (completion time, stream, generation); entries whose
    /// generation no longer matches the stream's are stale and skipped lazily.
    heap: BinaryHeap<Reverse<(SimTime, StreamId, u64)>>,
    gen_counter: u64,
    freeze_stamp: u64,
    /// Clock position; progress fractions are accurate as of `synced` only.
    last_advance: SimTime,
    synced: SimTime,
    epoch: u64,
    /// Open `begin_update` scopes; mutations defer reallocation while > 0.
    batch_depth: u32,
    /// A mutation happened inside the open batch.
    dirty: bool,
    reallocs: u64,
    alloc_nanos: u64,
    drain_nanos: u64,
    completion_nanos: u64,
}

impl FluidMachine {
    /// Creates an idle machine with the given hardware.
    pub fn new(spec: MachineSpec) -> FluidMachine {
        let nd = spec.disks.len();
        let nr = 2 + nd;
        let mut m = FluidMachine {
            spec,
            streams: BTreeMap::new(),
            disk_readers: vec![0; nd],
            disk_writers: vec![0; nd],
            scale: vec![1.0; nr],
            caps: vec![0.0; nr],
            res_used: vec![0.0; nr],
            fill: FillScratch::default(),
            heap: BinaryHeap::new(),
            gen_counter: 0,
            freeze_stamp: 0,
            last_advance: SimTime::ZERO,
            synced: SimTime::ZERO,
            epoch: 0,
            batch_depth: 0,
            dirty: false,
            reallocs: 0,
            alloc_nanos: 0,
            drain_nanos: 0,
            completion_nanos: 0,
        };
        m.caps = m.capacities();
        m
    }

    /// The machine's hardware spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Stale-event guard; bumped on every stream-set mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of active streams.
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// Whether `id` is currently active.
    pub fn contains(&self, id: StreamId) -> bool {
        self.streams.contains_key(&id)
    }

    /// Control-plane cost counters for this machine.
    pub fn stats(&self) -> SimStats {
        SimStats {
            reallocs: self.reallocs,
            alloc_nanos: self.alloc_nanos,
            drain_nanos: self.drain_nanos,
            completion_nanos: self.completion_nanos,
            ..SimStats::default()
        }
    }

    /// Moves the clock to `now`. Stream progress is drained lazily: rates are
    /// constant between reallocations, so the exact drain can be (and is)
    /// applied at the next mutation instead of on every call. O(1).
    pub fn advance(&mut self, now: SimTime) {
        // `since` panics if time runs backwards, preserving the old contract.
        let dt = now.since(self.last_advance);
        self.last_advance = now;
        debug_assert!(
            !(dt > SimDuration::ZERO && self.batch_depth > 0 && self.dirty),
            "time advanced inside an open batch with pending mutations"
        );
    }

    /// Applies the pending lazy drain, making every `remaining` accurate as
    /// of `last_advance`.
    fn materialize(&mut self) {
        let dt = self.last_advance.since(self.synced).as_secs_f64();
        self.synced = self.last_advance;
        if dt == 0.0 {
            return;
        }
        for s in self.streams.values_mut() {
            s.remaining = (s.remaining - s.rate * dt).max(0.0);
        }
    }

    /// `remaining` of one stream as of `last_advance`, without materialising.
    fn remaining_now(&self, s: &Stream) -> f64 {
        let dt = self.last_advance.since(self.synced).as_secs_f64();
        (s.remaining - s.rate * dt).max(0.0)
    }

    /// Opens a batched-update scope: mutations (insert / remove /
    /// take_completed) made before the matching [`FluidMachine::commit`]
    /// defer their reallocation, so a wave of changes at one instant costs a
    /// single recomputation. Scopes nest; only the outermost commit
    /// reallocates. All mutations inside a batch must happen at the same
    /// instant (time must not advance until commit).
    pub fn begin_update(&mut self) {
        self.batch_depth += 1;
    }

    /// Closes a [`FluidMachine::begin_update`] scope, reallocating once if
    /// any mutation happened inside it. Returns the current epoch.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn commit(&mut self, now: SimTime) -> u64 {
        assert!(self.batch_depth > 0, "commit without begin_update");
        self.batch_depth -= 1;
        if self.batch_depth == 0 && self.dirty {
            self.advance(now);
            self.dirty = false;
            self.reallocate();
        }
        self.epoch
    }

    /// Reallocates now, or defers to the enclosing batch's commit.
    fn after_mutation(&mut self) {
        if self.batch_depth > 0 {
            self.dirty = true;
        } else {
            self.reallocate();
        }
        self.epoch += 1;
    }

    /// Adds a stream; returns the new epoch.
    ///
    /// # Panics
    ///
    /// Panics on duplicate id, wrong disk-vector length, or a demand that is
    /// empty or non-finite.
    pub fn insert(&mut self, now: SimTime, id: StreamId, demand: StreamDemand) -> u64 {
        assert!(
            demand.disk_read.len() == self.spec.disks.len()
                && demand.disk_write.len() == self.spec.disks.len(),
            "disk demand vector length mismatch"
        );
        let total = demand.total();
        assert!(
            total.is_finite() && total > 0.0,
            "stream demand must be positive: {demand:?}"
        );
        assert!(
            demand.cpu >= 0.0
                && demand.rx >= 0.0
                && demand.disk_read.iter().all(|b| *b >= 0.0)
                && demand.disk_write.iter().all(|b| *b >= 0.0),
            "negative demand component: {demand:?}"
        );
        self.advance(now);
        for i in 0..self.spec.disks.len() {
            if demand.disk_read[i] > 0.0 {
                self.disk_readers[i] += 1;
            }
            if demand.disk_write[i] > 0.0 {
                self.disk_writers[i] += 1;
            }
        }
        let sparse = demand.sparse();
        let prev = self.streams.insert(
            id,
            Stream {
                demand,
                sparse,
                remaining: 1.0,
                rate: 0.0,
                gen: 0,
                deadline: SimTime::ZERO,
                frozen_at: 0,
            },
        );
        assert!(prev.is_none(), "stream {id:?} inserted twice");
        self.after_mutation();
        self.epoch
    }

    /// Drops a (just removed) stream's contribution to the per-disk
    /// reader/writer counts.
    fn detach(&mut self, s: &Stream) {
        for i in 0..self.spec.disks.len() {
            if s.demand.disk_read[i] > 0.0 {
                self.disk_readers[i] -= 1;
            }
            if s.demand.disk_write[i] > 0.0 {
                self.disk_writers[i] -= 1;
            }
        }
    }

    /// Removes a stream regardless of progress; returns the remaining
    /// fraction if it was active.
    ///
    /// Only the removed stream's lazy drain is materialized (O(1)); the
    /// survivors are drained by the reallocation this removal triggers, at
    /// the same instant and the same rates, so the result is identical to an
    /// eager full drain.
    pub fn remove(&mut self, now: SimTime, id: StreamId) -> Option<f64> {
        self.advance(now);
        let remaining = self.streams.get(&id).map(|s| self.remaining_now(s))?;
        let s = self.streams.remove(&id).expect("stream present");
        self.detach(&s);
        self.after_mutation();
        Some(remaining)
    }

    /// Removes and returns all streams whose phase has fully drained, in
    /// ascending id order. Equivalent to
    /// [`FluidMachine::take_completed_into`] with a fresh buffer.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<StreamId> {
        let mut done = Vec::new();
        self.take_completed_into(now, &mut done);
        done
    }

    /// Removes all streams whose phase has fully drained, appending their
    /// ids to `done` (cleared first) in ascending id order. O(1) when
    /// nothing is due — the speculative-polling fast path allocates nothing.
    ///
    /// Completed streams are dropped without a full drain pass: survivors
    /// are materialized by the reallocation the wave triggers, at the same
    /// instant and rates, so the outcome matches the eager version exactly.
    pub fn take_completed_into(&mut self, now: SimTime, done: &mut Vec<StreamId>) {
        self.advance(now);
        done.clear();
        match self.heap.peek() {
            Some(&Reverse((deadline, _, _))) if deadline <= now => {}
            _ => return,
        }
        let timer = Instant::now();
        while let Some(&Reverse((deadline, id, gen))) = self.heap.peek() {
            if deadline > now {
                break;
            }
            self.heap.pop();
            let Some(s) = self.streams.get(&id) else {
                continue; // stale: stream already gone
            };
            if s.gen != gen {
                continue; // stale: rate changed since this entry was pushed
            }
            if self.remaining_now(s) <= PROGRESS_EPSILON {
                done.push(id);
            } else {
                // Floating-point drift: the deadline undershot the true
                // completion by a whisker. Reschedule from current progress.
                let next = now
                    + SimDuration::from_secs_f64(self.remaining_now(s) / s.rate)
                        .max(SimDuration::NANO);
                self.gen_counter += 1;
                let s = self.streams.get_mut(&id).expect("stream present");
                s.gen = self.gen_counter;
                s.deadline = next;
                self.heap.push(Reverse((next, id, s.gen)));
            }
        }
        self.completion_nanos += timer.elapsed().as_nanos() as u64;
        if !done.is_empty() {
            done.sort_unstable();
            for id in done.iter() {
                let s = self.streams.remove(id).expect("completed stream present");
                self.detach(&s);
            }
            self.after_mutation();
        }
    }

    /// Instant of the next stream completion if the set does not change.
    ///
    /// # Contract
    ///
    /// `now` may be at or after the last observed time: the machine first
    /// self-advances to `now`, then peeks the completion heap. Passing a
    /// `now` earlier than a previously observed instant panics with "time ran
    /// backwards". Must not be called inside an open
    /// [`FluidMachine::begin_update`] batch, where rates are stale by
    /// construction.
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        debug_assert!(
            self.batch_depth == 0,
            "next_completion inside an open batch"
        );
        self.advance(now);
        while let Some(&Reverse((deadline, id, gen))) = self.heap.peek() {
            match self.streams.get(&id) {
                Some(s) if s.gen == gen => return Some(deadline.max(now)),
                _ => {
                    self.heap.pop();
                }
            }
        }
        debug_assert!(self.streams.is_empty(), "live stream missing a heap entry");
        None
    }

    /// Current progress rate of `id` in fractions/second, if active.
    pub fn rate(&self, id: StreamId) -> Option<f64> {
        self.streams.get(&id).map(|s| s.rate)
    }

    /// Number of resource "columns": CPU, each disk, NIC receive.
    fn n_resources(&self) -> usize {
        2 + self.spec.disks.len()
    }

    /// Capacity vector given the current stream population (HDD/SSD
    /// efficiency depends on how many readers and writers touch each disk).
    /// O(disks) via the maintained reader/writer counts.
    fn capacities(&self) -> Vec<f64> {
        let mut caps = Vec::with_capacity(self.n_resources());
        self.capacities_into(&mut caps);
        caps
    }

    /// [`FluidMachine::capacities`] written into `caps`, reusing its buffer.
    fn capacities_into(&self, caps: &mut Vec<f64>) {
        let nd = self.spec.disks.len();
        caps.clear();
        caps.push(self.spec.cores as f64);
        for (i, d) in self.spec.disks.iter().enumerate() {
            let (k_r, k_w) = (self.disk_readers[i], self.disk_writers[i]);
            let healthy = if k_r + k_w == 0 {
                d.throughput
            } else {
                d.throughput_at_rw(k_r, k_w)
            };
            caps.push(healthy * self.scale[1 + i]);
        }
        caps.push(self.spec.nic * self.scale[1 + nd]);
        debug_assert_eq!(caps.len(), 2 + nd);
    }

    /// Sets the fault-injection service-rate scale of disk `disk` (`1.0`
    /// restores the healthy rate exactly). In-flight streams are drained at
    /// their old rates up to `now`, then rates recompute under the new
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics on a nonexistent disk or a non-positive/non-finite factor.
    pub fn set_disk_scale(&mut self, now: SimTime, disk: usize, factor: f64) {
        assert!(
            disk < self.spec.disks.len(),
            "set_disk_scale: no disk {disk}"
        );
        assert!(
            factor.is_finite() && factor > 0.0,
            "set_disk_scale: bad factor {factor}"
        );
        self.advance(now);
        self.scale[1 + disk] = factor;
        self.after_mutation();
    }

    /// Sets the fault-injection bandwidth scale of the NIC (`1.0` restores
    /// the healthy rate exactly). Same drain semantics as
    /// [`FluidMachine::set_disk_scale`].
    ///
    /// # Panics
    ///
    /// Panics on a non-positive/non-finite factor.
    pub fn set_nic_scale(&mut self, now: SimTime, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "set_nic_scale: bad factor {factor}"
        );
        self.advance(now);
        let nic = self.scale.len() - 1;
        self.scale[nic] = factor;
        self.after_mutation();
    }

    /// Demand of `s` on resource column `r` (dense; used by the reference).
    fn demand_at(s: &Stream, r: usize, nd: usize) -> f64 {
        if r == 0 {
            s.demand.cpu
        } else if r <= nd {
            s.demand.disk_total(r - 1)
        } else {
            s.demand.rx
        }
    }

    /// Recomputes stream rates, capacities, used-rate accumulators, and
    /// completion deadlines. Called on every effective mutation.
    fn reallocate(&mut self) {
        let drain_timer = Instant::now();
        self.reallocs += 1;
        self.materialize();
        let drained = drain_timer.elapsed().as_nanos() as u64;
        self.drain_nanos += drained;
        let timer = Instant::now();
        let mut caps = std::mem::take(&mut self.caps);
        self.capacities_into(&mut caps);
        self.caps = caps;
        for u in &mut self.res_used {
            *u = 0.0;
        }
        if !self.streams.is_empty() {
            self.fill_rates();
            self.refresh_res_used();
            self.refresh_deadlines();
            #[cfg(feature = "slowcheck")]
            self.assert_matches_reference();
        }
        self.alloc_nanos += timer.elapsed().as_nanos() as u64;
    }

    /// Progressive filling proper (module docs). Each round computes every
    /// unfrozen stream's tentative rate from the fair shares of the capacity
    /// still unassigned, then freezes:
    ///
    /// 1. streams running at their own single-thread cap (they cannot go
    ///    faster, and freezing them releases their unused shares), else
    /// 2. streams whose rate is set by a *saturated* resource (one whose
    ///    remaining capacity the tentative rates fully consume), else
    /// 3. the single slowest stream (a deterministic fallback that guarantees
    ///    termination; its rate is already max-min feasible).
    ///
    /// Identical round structure to [`FluidMachine::reference_reallocate`],
    /// but iterates sparse demands and maintains claimant counts across
    /// rounds instead of rescanning every stream × resource.
    fn fill_rates(&mut self) {
        let nr = self.n_resources();
        let mut scratch = std::mem::take(&mut self.fill);
        let FillScratch {
            cap_left,
            counts,
            unfrozen,
            tentative,
            usage,
            saturated,
            to_freeze,
        } = &mut scratch;
        cap_left.clear();
        cap_left.extend_from_slice(&self.caps);
        counts.clear();
        counts.resize(nr, 0);
        for s in self.streams.values() {
            for &(r, _) in &s.sparse {
                counts[r] += 1;
            }
        }
        unfrozen.clear();
        unfrozen.extend(self.streams.keys().copied());
        self.freeze_stamp += 1;
        let stamp = self.freeze_stamp;
        usage.clear();
        usage.resize(nr, 0.0);
        saturated.clear();
        saturated.resize(nr, false);
        while !unfrozen.is_empty() {
            let share = |r: usize, counts: &[usize], cap_left: &[f64]| -> f64 {
                (cap_left[r] / counts[r] as f64).max(0.0)
            };
            // Tentative rate for each unfrozen stream from fair shares.
            tentative.clear();
            for id in unfrozen.iter() {
                let s = &self.streams[id];
                let mut rate = f64::INFINITY;
                for &(r, d) in &s.sparse {
                    rate = rate.min(share(r, counts, cap_left) / d);
                }
                // Single-threaded cap: at most one core of CPU.
                let mut cap_bound = false;
                if s.demand.cpu > 0.0 {
                    let cap = 1.0 / s.demand.cpu;
                    if cap <= rate {
                        rate = cap;
                        cap_bound = true;
                    }
                }
                debug_assert!(rate.is_finite());
                tentative.push((*id, rate, cap_bound));
            }
            // Which resources would the tentative rates saturate?
            for u in usage.iter_mut() {
                *u = 0.0;
            }
            for (id, rate, _) in tentative.iter() {
                for &(r, d) in &self.streams[id].sparse {
                    usage[r] += rate * d;
                }
            }
            for r in 0..nr {
                saturated[r] = counts[r] > 0 && usage[r] >= cap_left[r] * (1.0 - 1e-9);
            }
            // Select the streams to freeze this round (decided against the
            // round's snapshot of shares, applied afterwards).
            to_freeze.clear();
            to_freeze.extend(
                tentative
                    .iter()
                    .filter(|(id, rate, cap_bound)| {
                        if *cap_bound {
                            return true;
                        }
                        self.streams[id].sparse.iter().any(|&(r, d)| {
                            saturated[r] && *rate >= share(r, counts, cap_left) / d * (1.0 - 1e-9)
                        })
                    })
                    .map(|(id, rate, _)| (*id, *rate)),
            );
            if to_freeze.is_empty() {
                // Fallback: freeze the single slowest stream.
                let slowest = tentative
                    .iter()
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN rate").then(a.0.cmp(&b.0)))
                    .expect("unfrozen set non-empty");
                to_freeze.push((slowest.0, slowest.1));
            }
            for &(id, rate) in to_freeze.iter() {
                let s = self.streams.get_mut(&id).expect("stream vanished");
                s.rate = rate;
                s.frozen_at = stamp;
                for &(r, d) in &s.sparse {
                    cap_left[r] = (cap_left[r] - rate * d).max(0.0);
                    counts[r] -= 1;
                }
            }
            let before = unfrozen.len();
            unfrozen.retain(|id| self.streams[id].frozen_at != stamp);
            debug_assert!(unfrozen.len() < before, "filling made no progress");
            if unfrozen.len() >= before {
                break; // release-mode safety valve; unreachable in practice
            }
        }
        self.fill = scratch;
    }

    /// Refreshes the per-resource delivered-rate accumulators from the
    /// just-assigned rates.
    fn refresh_res_used(&mut self) {
        for s in self.streams.values() {
            for &(r, d) in &s.sparse {
                self.res_used[r] += s.rate * d;
            }
        }
    }

    /// Recomputes completion deadlines after a rate change, pushing heap
    /// entries only for streams whose deadline actually moved.
    fn refresh_deadlines(&mut self) {
        let now = self.last_advance;
        let heap = &mut self.heap;
        let gen_counter = &mut self.gen_counter;
        for (&id, s) in self.streams.iter_mut() {
            let deadline = if s.remaining <= PROGRESS_EPSILON {
                now
            } else {
                debug_assert!(s.rate > 0.0, "active stream with zero rate");
                now + SimDuration::from_secs_f64(s.remaining / s.rate).max(SimDuration::NANO)
            };
            if s.gen == 0 || s.deadline != deadline {
                *gen_counter += 1;
                s.gen = *gen_counter;
                s.deadline = deadline;
                heap.push(Reverse((deadline, id, s.gen)));
            }
        }
        // Stale entries are dropped lazily; rebuild when they dominate so the
        // heap stays O(streams).
        if self.heap.len() > 2 * self.streams.len() + 64 {
            self.heap.clear();
            for (&id, s) in self.streams.iter() {
                self.heap.push(Reverse((s.deadline, id, s.gen)));
            }
        }
    }

    /// The original quadratic progressive-filling algorithm, kept verbatim as
    /// the executable specification. Returns the rate for every active stream
    /// without touching machine state. With the `slowcheck` feature, every
    /// reallocation is checked against this.
    pub fn reference_reallocate(&self) -> BTreeMap<StreamId, f64> {
        let nd = self.spec.disks.len();
        let nr = self.n_resources();
        let mut rates: BTreeMap<StreamId, f64> = BTreeMap::new();
        let mut cap_left = self.capacities();
        let mut unfrozen: Vec<StreamId> = self.streams.keys().copied().collect();
        while !unfrozen.is_empty() {
            let mut counts = vec![0usize; nr];
            for id in &unfrozen {
                let s = &self.streams[id];
                for (r, c) in counts.iter_mut().enumerate() {
                    if Self::demand_at(s, r, nd) > 0.0 {
                        *c += 1;
                    }
                }
            }
            let share = |r: usize, counts: &[usize], cap_left: &[f64]| -> f64 {
                (cap_left[r] / counts[r] as f64).max(0.0)
            };
            let mut tentative: Vec<(StreamId, f64, bool)> = Vec::with_capacity(unfrozen.len());
            for id in &unfrozen {
                let s = &self.streams[id];
                let mut rate = f64::INFINITY;
                for r in 0..nr {
                    let d = Self::demand_at(s, r, nd);
                    if d > 0.0 {
                        rate = rate.min(share(r, &counts, &cap_left) / d);
                    }
                }
                let mut cap_bound = false;
                if s.demand.cpu > 0.0 {
                    let cap = 1.0 / s.demand.cpu;
                    if cap <= rate {
                        rate = cap;
                        cap_bound = true;
                    }
                }
                debug_assert!(rate.is_finite());
                tentative.push((*id, rate, cap_bound));
            }
            let mut usage = vec![0.0f64; nr];
            for (id, rate, _) in &tentative {
                let s = &self.streams[id];
                for (r, u) in usage.iter_mut().enumerate() {
                    *u += rate * Self::demand_at(s, r, nd);
                }
            }
            let saturated: Vec<bool> = (0..nr)
                .map(|r| counts[r] > 0 && usage[r] >= cap_left[r] * (1.0 - 1e-9))
                .collect();
            let mut to_freeze: Vec<(StreamId, f64)> = tentative
                .iter()
                .filter(|(id, rate, cap_bound)| {
                    if *cap_bound {
                        return true;
                    }
                    let s = &self.streams[id];
                    (0..nr).any(|r| {
                        saturated[r] && {
                            let d = Self::demand_at(s, r, nd);
                            d > 0.0 && *rate >= share(r, &counts, &cap_left) / d * (1.0 - 1e-9)
                        }
                    })
                })
                .map(|(id, rate, _)| (*id, *rate))
                .collect();
            if to_freeze.is_empty() {
                let slowest = tentative
                    .iter()
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN rate").then(a.0.cmp(&b.0)))
                    .expect("unfrozen set non-empty");
                to_freeze.push((slowest.0, slowest.1));
            }
            for (id, rate) in to_freeze {
                let s = &self.streams[&id];
                rates.insert(id, rate);
                for (r, cap) in cap_left.iter_mut().enumerate() {
                    *cap = (*cap - rate * Self::demand_at(s, r, nd)).max(0.0);
                }
                unfrozen.retain(|u| *u != id);
            }
        }
        rates
    }

    /// Asserts the incremental rates match the reference fixpoint.
    #[cfg(feature = "slowcheck")]
    fn assert_matches_reference(&self) {
        let reference = self.reference_reallocate();
        for (id, s) in &self.streams {
            let want = reference[id];
            let tol = want.abs() * 1e-9 + 1e-12;
            debug_assert!(
                (s.rate - want).abs() <= tol,
                "rate mismatch for {id:?}: incremental {} vs reference {want}",
                s.rate
            );
        }
    }

    /// CPU busy fraction: delivered core-seconds per second over cores. O(1).
    pub fn cpu_busy(&self) -> f64 {
        (self.res_used[0] / self.spec.cores as f64).min(1.0)
    }

    /// Disk busy fraction: delivered bytes/s over what the device can deliver
    /// at its current concurrency (a fully seek-bound disk reports 1.0). O(1).
    pub fn disk_busy(&self, disk: DiskId) -> f64 {
        (self.res_used[1 + disk.0] / self.caps[1 + disk.0]).min(1.0)
    }

    /// NIC receive busy fraction. O(1).
    pub fn rx_busy(&self) -> f64 {
        (self.res_used[1 + self.spec.disks.len()] / self.spec.nic).min(1.0)
    }
}

/// Per-machine next-completion cache keyed on each allocator's
/// [`FluidMachine::epoch`], shared by both executors' event loops.
///
/// A loop asks every machine for its next completion after each event and
/// polls every machine for due completions at the start of the next. Most
/// events touch a handful of machines; the rest keep their cached deadline,
/// so neither sweep interrogates an allocator whose streams did not change.
/// Exact: deadlines move only on reallocations, which follow stream-set or
/// scale mutations, and every such mutation bumps the epoch.
#[derive(Clone, Debug)]
pub struct DeadlineCache {
    next: Vec<Option<SimTime>>,
    epoch: Vec<u64>,
}

impl DeadlineCache {
    /// A cache for `machines` machines, every entry stale.
    pub fn new(machines: usize) -> DeadlineCache {
        DeadlineCache {
            next: vec![None; machines],
            epoch: vec![u64::MAX; machines],
        }
    }

    /// Whether machine `m` may have a completion due at `now`: false only
    /// when its cached deadline is still valid and lies after `now`.
    pub fn may_complete(&self, m: usize, fluid: &FluidMachine, now: SimTime) -> bool {
        self.epoch[m] != fluid.epoch() || self.next[m].is_some_and(|t| t <= now)
    }

    /// The earliest next completion over `machines` — `(allocator, alive)`
    /// pairs in machine order — re-deriving only deadlines whose epoch
    /// moved. A dead machine contributes nothing.
    pub fn earliest<'a>(
        &mut self,
        machines: impl Iterator<Item = (&'a mut FluidMachine, bool)>,
        now: SimTime,
    ) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        for (m, (fluid, alive)) in machines.enumerate() {
            let epoch = fluid.epoch();
            if !alive {
                self.next[m] = None;
                self.epoch[m] = epoch;
                continue;
            }
            if self.epoch[m] != epoch {
                self.next[m] = fluid.next_completion(now);
                self.epoch[m] = epoch;
            }
            if let Some(t) = self.next[m] {
                next = Some(next.map_or(t, |b| b.min(t)));
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::{DiskSpec, MIB};

    fn machine(cores: u32, disks: usize) -> FluidMachine {
        FluidMachine::new(MachineSpec {
            cores,
            memory: 4.0 * 1024.0 * MIB,
            disks: vec![DiskSpec::hdd(); disks],
            nic: 125.0 * MIB,
        })
    }

    fn t(secs: f64) -> SimTime {
        SimTime(SimDuration::from_secs_f64(secs).0)
    }

    #[test]
    fn single_cpu_stream_runs_on_one_core() {
        let mut m = machine(8, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(4.0, 1));
        // 4 core-seconds on one thread: 4 seconds, not 0.5.
        assert_eq!(m.next_completion(SimTime::ZERO), Some(t(4.0)));
        assert!((m.cpu_busy() - 1.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn pipelined_stream_bound_by_slowest_resource() {
        let mut m = machine(8, 1);
        let hdd = DiskSpec::hdd().throughput;
        // Read one disk-second of bytes while using 0.1 CPU-seconds:
        // disk-bound, finishes in ~1 s with disk fully busy.
        let mut d = StreamDemand::disk_read_only(DiskId(0), hdd, 1);
        d.cpu = 0.1;
        m.insert(SimTime::ZERO, StreamId(1), d);
        let done = m.next_completion(SimTime::ZERO).unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((m.disk_busy(DiskId(0)) - 1.0).abs() < 1e-9);
        // CPU used in proportion: 0.1 cores.
        assert!((m.cpu_busy() - 0.1 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn hdd_interleaving_slows_aggregate() {
        let mut m = machine(8, 1);
        let hdd = DiskSpec::hdd();
        // Two streams each reading 1 sequential-second of bytes.
        for i in 0..2 {
            m.insert(
                SimTime::ZERO,
                StreamId(i),
                StreamDemand::disk_read_only(DiskId(0), hdd.throughput, 1),
            );
        }
        // Two readers → aggregate = 1/(1+read_factor) of sequential; both
        // finish at 2·(1+read_factor) seconds.
        let factor = DiskSpec::hdd().read_seek_factor;
        let done = m.next_completion(SimTime::ZERO).unwrap();
        assert!(
            (done.as_secs_f64() - 2.0 * (1.0 + factor)).abs() < 1e-6,
            "{done:?}"
        );
        // The device is flat-out (seek-bound): busy fraction 1.
        assert!((m.disk_busy(DiskId(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn surplus_from_bottlenecked_stream_is_redistributed() {
        let mut m = machine(1, 1);
        let hdd = DiskSpec::hdd();
        // Stream A: CPU-bound (1 core-second + tiny disk).
        let mut a = StreamDemand::cpu_only(1.0, 1);
        a.disk_read[0] = 0.01 * hdd.throughput_at(2);
        // Stream B: disk-only.
        let b = StreamDemand::disk_read_only(DiskId(0), hdd.throughput_at(2), 1);
        m.insert(SimTime::ZERO, StreamId(1), a);
        m.insert(SimTime::ZERO, StreamId(2), b);
        // A is frozen first (CPU cap), using 1% of disk; B should get the
        // remaining 99%, not just the 50% equal share.
        let rb = m.rate(StreamId(2)).unwrap();
        assert!(rb > 0.95, "B rate {rb} — surplus not redistributed");
    }

    #[test]
    fn cpu_shared_fairly_beyond_cores() {
        let mut m = machine(2, 1);
        for i in 0..4 {
            m.insert(SimTime::ZERO, StreamId(i), StreamDemand::cpu_only(1.0, 1));
        }
        // 4 single-threaded streams on 2 cores: each at 0.5 cores.
        for i in 0..4 {
            assert!((m.rate(StreamId(i)).unwrap() - 0.5).abs() < 1e-9);
        }
        assert!((m.cpu_busy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn completion_frees_capacity() {
        let mut m = machine(1, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(1.0, 1));
        m.insert(SimTime::ZERO, StreamId(2), StreamDemand::cpu_only(2.0, 1));
        // Equal shares: stream 1 done at t=2.
        let c1 = m.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(c1, t(2.0));
        m.advance(c1);
        assert_eq!(m.take_completed(c1), vec![StreamId(1)]);
        // Stream 2 has 1 core-second left at full speed: done at t=3.
        assert_eq!(m.next_completion(c1), Some(t(3.0)));
    }

    #[test]
    fn rx_is_a_first_class_resource() {
        let mut m = machine(8, 1);
        let nic = 125.0 * MIB;
        m.insert(
            SimTime::ZERO,
            StreamId(1),
            StreamDemand::rx_only(nic * 2.0, 1),
        );
        assert_eq!(m.next_completion(SimTime::ZERO), Some(t(2.0)));
        assert!((m.rx_busy() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "demand must be positive")]
    fn empty_demand_rejected() {
        let mut m = machine(1, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(0.0, 1));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_disk_vector_rejected() {
        let mut m = machine(1, 2);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(1.0, 1));
    }

    #[test]
    fn rates_match_reference_fixpoint() {
        let mut m = machine(4, 2);
        let hdd = DiskSpec::hdd();
        for i in 0..12u64 {
            let mut d = StreamDemand::zero(2);
            match i % 4 {
                0 => d.cpu = 0.5 + i as f64 * 0.1,
                1 => d.disk_read[(i % 2) as usize] = 0.3 * hdd.throughput,
                2 => {
                    d.disk_write[(i % 2) as usize] = 0.2 * hdd.throughput;
                    d.cpu = 0.05;
                }
                _ => d.rx = 30.0 * MIB,
            }
            m.insert(SimTime::ZERO, StreamId(i), d);
        }
        let reference = m.reference_reallocate();
        for (id, want) in reference {
            let got = m.rate(id).unwrap();
            assert!(
                (got - want).abs() <= want.abs() * 1e-9 + 1e-12,
                "{id:?}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn batched_insert_matches_unbatched_and_reallocates_once() {
        let mut plain = machine(4, 2);
        let mut batched = machine(4, 2);
        batched.begin_update();
        for i in 0..16u64 {
            let d = StreamDemand::cpu_only(1.0 + i as f64 * 0.25, 2);
            plain.insert(SimTime::ZERO, StreamId(i), d.clone());
            batched.insert(SimTime::ZERO, StreamId(i), d);
        }
        let epoch = batched.commit(SimTime::ZERO);
        assert_eq!(epoch, plain.epoch());
        for i in 0..16u64 {
            assert_eq!(batched.rate(StreamId(i)), plain.rate(StreamId(i)));
        }
        assert_eq!(batched.stats().reallocs, 1);
        assert_eq!(plain.stats().reallocs, 16);
        assert_eq!(
            batched.next_completion(SimTime::ZERO),
            plain.next_completion(SimTime::ZERO)
        );
    }

    #[test]
    fn lazy_drain_matches_eager_observation() {
        let mut m = machine(2, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(2.0, 1));
        m.insert(SimTime::ZERO, StreamId(2), StreamDemand::cpu_only(4.0, 1));
        // Advance in many small steps (as executors do); nothing completes,
        // so each step is O(1) and progress stays virtual.
        for k in 1..=10 {
            m.advance(t(k as f64 * 0.1));
            assert!(m.take_completed(t(k as f64 * 0.1)).is_empty());
        }
        // Removing stream 2 at t=1 must see exactly 1 of its 4 core-seconds
        // done: remaining 3/4.
        let rem = m.remove(t(1.0), StreamId(2)).unwrap();
        assert!((rem - 0.75).abs() < 1e-12, "rem={rem}");
        // Stream 1 then finishes its remaining 1 core-second at t=2.
        assert_eq!(m.next_completion(t(1.0)), Some(t(2.0)));
    }

    #[test]
    fn take_completed_returns_ascending_ids() {
        let mut m = machine(8, 1);
        for id in (0..4u64).rev() {
            m.insert(SimTime::ZERO, StreamId(id), StreamDemand::cpu_only(1.0, 1));
        }
        let c = m.next_completion(SimTime::ZERO).unwrap();
        let done = m.take_completed(c);
        assert_eq!(
            done,
            vec![StreamId(0), StreamId(1), StreamId(2), StreamId(3)]
        );
    }

    /// [`DeadlineCache`] driven the way the executors drive it — mutate,
    /// sweep for the next deadline, jump there, poll for completions — under
    /// random inserts, removals, scale changes and crashes: the cached
    /// earliest deadline always equals a fresh [`FluidMachine::next_completion`]
    /// sweep, and the poll never skips a machine with a completion due.
    #[test]
    fn deadline_cache_matches_fresh_next_completion() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(14);
        let mut machines: Vec<FluidMachine> = (0..3).map(|_| machine(4, 2)).collect();
        let mut alive = [true; 3];
        let mut live: Vec<Vec<StreamId>> = vec![Vec::new(); 3];
        let mut cache = DeadlineCache::new(3);
        let mut now = SimTime::ZERO;
        let mut polled = true;
        let mut done = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..4000 {
            let m: usize = rng.gen_range(0..3);
            match rng.gen_range(0..10usize) {
                0..=2 if alive[m] => {
                    let size = rng.gen_range(0.01..2.0);
                    let demand = match rng.gen_range(0..3usize) {
                        0 => StreamDemand::cpu_only(size, 2),
                        1 => {
                            StreamDemand::disk_read_only(DiskId(rng.gen_range(0..2)), size * MIB, 2)
                        }
                        _ => StreamDemand::rx_only(size * MIB, 2),
                    };
                    machines[m].insert(now, StreamId(next_id), demand);
                    live[m].push(StreamId(next_id));
                    next_id += 1;
                }
                3 if !live[m].is_empty() => {
                    let k = rng.gen_range(0..live[m].len());
                    let id = live[m].swap_remove(k);
                    machines[m].remove(now, id);
                }
                4 if alive[m] => {
                    let factor = rng.gen_range(0.2..1.5);
                    if rng.gen_range(0..2usize) == 0 {
                        machines[m].set_disk_scale(now, rng.gen_range(0..2), factor);
                    } else {
                        machines[m].set_nic_scale(now, factor);
                    }
                }
                5 => {
                    // A crash tears the machine's streams down; a restart
                    // brings it back empty.
                    if alive[m] {
                        for id in live[m].drain(..) {
                            machines[m].remove(now, id);
                        }
                    }
                    alive[m] = !alive[m];
                }
                _ if polled => {
                    let cached = cache.earliest(machines.iter_mut().zip(alive), now);
                    let fresh = (machines.iter_mut().zip(alive))
                        .filter(|(_, a)| *a)
                        .filter_map(|(f, _)| f.next_completion(now))
                        .min();
                    assert_eq!(cached, fresh);
                    let step = SimDuration::from_secs_f64(rng.gen_range(0.0..1.0));
                    let horizon = SimTime(now.0 + step.0);
                    now = cached.map_or(horizon, |t| t.min(horizon));
                    polled = false;
                }
                _ => {
                    for (m, f) in machines.iter_mut().enumerate() {
                        let due = alive[m] && f.next_completion(now).is_some_and(|t| t <= now);
                        if !alive[m] || !cache.may_complete(m, f, now) {
                            assert!(!due, "poll skipped machine {m} with a completion due");
                            continue;
                        }
                        f.advance(now);
                        f.take_completed_into(now, &mut done);
                        live[m].retain(|id| !done.contains(id));
                    }
                    polled = true;
                }
            }
        }
    }
}
