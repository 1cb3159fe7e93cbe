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
//! * **Id-ordered rows.** Streams live in two parallel `Vec`s sorted by
//!   [`StreamId`]: the ids and the stream rows. Insert and remove are a
//!   binary search plus a shift (machines hold tens of streams), heap
//!   entries find their row by binary search, and every pass over the
//!   streams walks contiguous rows.
//! * **Sparse demands and resource counts.** Each stream keeps a sparse
//!   `(resource, demand)` list, and the allocator keeps per-disk
//!   reader/writer counts, per-resource claimant counts and the number of
//!   multi-demand streams current on every insert and removal, so
//!   reallocation rounds and the concurrency-aware capacity vector cost
//!   O(non-zero demands), not O(streams × resources).
//! * **A closed-form round for monotasks.** When every stream has exactly
//!   one demand (every monotasks machine), round one of progressive filling
//!   is one pass: each stream gets its resource's fair share over its
//!   demand, capped at one core. If every stream that is not cap-bound sits
//!   on a saturated resource, those rates are final; otherwise, and on any
//!   machine with a pipelined stream, the general round loop runs.
//! * **Fold order.** Every per-resource float sum — round usage, the
//!   `cap_left` debits, the delivered-rate accumulators — adds streams in
//!   ascending id order, whichever path assigned the rates, so rates,
//!   deadlines and busy fractions are bit-identical across the paths.
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
//! * **Parking.** A stream a network cut severs waits outside the fill, in
//!   an id-ordered map: [`FluidMachine::park`] takes it out like a removal,
//!   scaling its demands to the work left; [`FluidMachine::hold`] parks one
//!   that never ran without touching the rates, the epoch or an open batch;
//!   [`FluidMachine::unpark`] puts it back as an insert of its scaled demand
//!   would, and [`FluidMachine::remove`] drops it. With none parked, an
//!   insert pays one emptiness test.
//!
//! The original quadratic algorithm is kept verbatim as
//! [`FluidMachine::reference_reallocate`]; with the `slowcheck` cargo feature
//! every reallocation is `assert!`-checked against it, in release builds too.

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
/// Streams are named by row index, and row order is id order.
#[derive(Debug, Default)]
struct FillScratch {
    cap_left: Vec<f64>,
    counts: Vec<usize>,
    share: Vec<f64>,
    uncapped: Vec<bool>,
    unfrozen: Vec<u32>,
    tentative: Vec<(u32, f64, bool)>,
    usage: Vec<f64>,
    saturated: Vec<bool>,
    to_freeze: Vec<(u32, f64)>,
}

#[derive(Clone, Debug)]
struct Stream {
    /// CPU work in core-seconds (0 for none); sets the single-thread cap.
    cpu: f64,
    /// Non-zero `(resource column, demand)` pairs in ascending column order.
    sparse: Vec<(usize, f64)>,
    /// Bit `i` set: the stream reads / writes disk `i`.
    reads: u64,
    writes: u64,
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

/// Bit `i` set where `bytes[i] > 0`.
fn disk_mask(bytes: &[f64]) -> u64 {
    bytes
        .iter()
        .enumerate()
        .filter(|(_, b)| **b > 0.0)
        .fold(0, |m, (i, _)| m | 1 << i)
}

/// One machine's fluid resource allocator. See the module docs for the model.
#[derive(Debug)]
pub struct FluidMachine {
    spec: MachineSpec,
    /// Active stream ids in ascending order; `rows[i]` is stream `ids[i]`.
    /// Every per-resource float fold walks the rows in this order.
    ids: Vec<StreamId>,
    rows: Vec<Stream>,
    /// Parked streams: unstarted rows of their scaled demands.
    parked: BTreeMap<StreamId, Stream>,
    /// Streams reading / writing each disk (drives the concurrency-dependent
    /// capacity without scanning streams).
    disk_readers: Vec<usize>,
    disk_writers: Vec<usize>,
    /// Streams with a non-zero demand on each resource column.
    claimants: Vec<usize>,
    /// Streams with more than one non-zero demand (pipelined phases).
    multi_demand: usize,
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
    ///
    /// # Panics
    ///
    /// Panics on more than 64 disks.
    pub fn new(spec: MachineSpec) -> FluidMachine {
        let nd = spec.disks.len();
        assert!(nd <= 64, "at most 64 disks per machine, got {nd}");
        let nr = 2 + nd;
        let mut m = FluidMachine {
            spec,
            ids: Vec::new(),
            rows: Vec::new(),
            parked: BTreeMap::new(),
            disk_readers: vec![0; nd],
            disk_writers: vec![0; nd],
            claimants: vec![0; nr],
            multi_demand: 0,
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
        self.ids.len()
    }

    /// Parked streams, in ascending id order.
    pub fn parked(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.parked.keys().copied()
    }

    /// Row index of stream `id`, if active. O(log streams).
    fn row(&self, id: StreamId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
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
        for s in &mut self.rows {
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
    /// Panics on an id that is active or parked, wrong disk-vector length,
    /// or a demand that is empty or non-finite.
    pub fn insert(&mut self, now: SimTime, id: StreamId, demand: StreamDemand) -> u64 {
        let s = self.new_row(id, &demand);
        let Err(at) = self.ids.binary_search(&id) else {
            panic!("stream {id:?} inserted twice");
        };
        self.advance(now);
        self.enter(at, id, s);
        self.epoch
    }

    /// Parks a stream that never ran with its whole `demand`, changing
    /// neither the rates, the epoch nor an open batch. Panics as
    /// [`FluidMachine::insert`] does.
    pub fn hold(&mut self, id: StreamId, demand: StreamDemand) {
        let s = self.new_row(id, &demand);
        assert!(self.row(id).is_none(), "stream {id:?} held while active");
        self.parked.insert(id, s);
    }

    /// Parks active stream `id`: its row leaves the fill, and each demand is
    /// scaled by its remaining fraction floored at 1e-9, so it resumes with
    /// work left (a stream that reads and writes one disk scales their sum).
    /// Returns whether `id` was active; if not, nothing changes.
    pub fn park(&mut self, now: SimTime, id: StreamId) -> bool {
        let Some(i) = self.row(id) else {
            return false;
        };
        self.advance(now);
        let f = self.remaining_now(&self.rows[i]).max(1e-9);
        let mut s = self.remove_row(i);
        s.cpu *= f;
        s.sparse.iter_mut().for_each(|e| e.1 *= f);
        // Unstarted: `gen == 0` re-schedules it, and its stale deadline and
        // freeze stamp are never read again.
        (s.remaining, s.rate, s.gen) = (1.0, 0.0, 0);
        self.parked.insert(id, s);
        self.after_mutation();
        true
    }

    /// Puts parked stream `id` back into the fill, as an insert of its
    /// scaled demand would. Returns whether `id` was parked; if not,
    /// nothing changes.
    pub fn unpark(&mut self, now: SimTime, id: StreamId) -> bool {
        let Some(s) = self.parked.remove(&id) else {
            return false;
        };
        self.advance(now);
        // A parked id is never active, so this is its insertion point.
        self.enter(self.ids.partition_point(|&x| x < id), id, s);
        true
    }

    /// Validates `demand` (panicking as [`FluidMachine::insert`] documents)
    /// and builds its unstarted row.
    fn new_row(&self, id: StreamId, demand: &StreamDemand) -> Stream {
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
        assert!(
            self.parked.is_empty() || !self.parked.contains_key(&id),
            "stream {id:?} inserted while parked"
        );
        Stream {
            cpu: demand.cpu,
            sparse: demand.sparse(),
            reads: disk_mask(&demand.disk_read),
            writes: disk_mask(&demand.disk_write),
            remaining: 1.0,
            rate: 0.0,
            gen: 0,
            deadline: SimTime::ZERO,
            frozen_at: 0,
        }
    }

    /// Puts row `s` into the fill at row `at`, which keeps id order.
    fn enter(&mut self, at: usize, id: StreamId, s: Stream) {
        self.count(&s, true);
        self.ids.insert(at, id);
        self.rows.insert(at, s);
        self.after_mutation();
    }

    /// Removes a stream regardless of progress; returns the remaining
    /// fraction if it was active. A parked stream is dropped without a
    /// reallocation, and returns `None`.
    ///
    /// Only the removed stream's lazy drain is materialized (O(1)); the
    /// survivors are drained by the reallocation this removal triggers, at
    /// the same instant and the same rates, so the result is identical to an
    /// eager full drain.
    pub fn remove(&mut self, now: SimTime, id: StreamId) -> Option<f64> {
        self.advance(now);
        let Some(i) = self.row(id) else {
            self.parked.remove(&id);
            return None;
        };
        let remaining = self.remaining_now(&self.rows[i]);
        self.remove_row(i);
        self.after_mutation();
        Some(remaining)
    }

    /// Drops and returns row `i`; the rows after it shift down, so id order
    /// holds.
    fn remove_row(&mut self, i: usize) -> Stream {
        self.ids.remove(i);
        let s = self.rows.remove(i);
        self.count(&s, false);
        s
    }

    /// Counts stream `s` into (`add`) or out of the per-disk, per-resource
    /// and multi-demand counts.
    fn count(&mut self, s: &Stream, add: bool) {
        let step = |c: &mut usize| if add { *c += 1 } else { *c -= 1 };
        for i in 0..self.disk_readers.len() {
            if s.reads >> i & 1 == 1 {
                step(&mut self.disk_readers[i]);
            }
            if s.writes >> i & 1 == 1 {
                step(&mut self.disk_writers[i]);
            }
        }
        for &(r, _) in &s.sparse {
            step(&mut self.claimants[r]);
        }
        if s.sparse.len() > 1 {
            step(&mut self.multi_demand);
        }
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
            let Some(i) = self.row(id) else {
                continue; // stale: stream already gone
            };
            let s = &self.rows[i];
            if s.gen != gen {
                continue; // stale: rate changed since this entry was pushed
            }
            let remaining = self.remaining_now(s);
            if remaining <= PROGRESS_EPSILON {
                done.push(id);
            } else {
                // Floating-point drift: the deadline undershot the true
                // completion by a whisker. Reschedule from current progress.
                let next =
                    now + SimDuration::from_secs_f64(remaining / s.rate).max(SimDuration::NANO);
                self.gen_counter += 1;
                let s = &mut self.rows[i];
                s.gen = self.gen_counter;
                s.deadline = next;
                self.heap.push(Reverse((next, id, s.gen)));
            }
        }
        self.completion_nanos += timer.elapsed().as_nanos() as u64;
        if !done.is_empty() {
            done.sort_unstable();
            for &id in done.iter() {
                let i = self.row(id).expect("completed stream present");
                self.remove_row(i);
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
            match self.row(id) {
                Some(i) if self.rows[i].gen == gen => return Some(deadline.max(now)),
                _ => {
                    self.heap.pop();
                }
            }
        }
        debug_assert!(self.ids.is_empty(), "live stream missing a heap entry");
        None
    }

    /// Current progress rate of `id` in fractions/second, if active.
    pub fn rate(&self, id: StreamId) -> Option<f64> {
        self.row(id).map(|i| self.rows[i].rate)
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

    /// Demand of `s` on resource column `r`, 0 where it has none (used by
    /// the reference).
    fn demand_at(s: &Stream, r: usize) -> f64 {
        s.sparse
            .iter()
            .find(|&&(c, _)| c == r)
            .map_or(0.0, |&(_, d)| d)
    }

    /// Recomputes stream rates, capacities, used-rate accumulators, and
    /// completion deadlines. Called on every effective mutation.
    fn reallocate(&mut self) {
        // Three clock reads: the drain's end instant is the allocation's
        // start.
        let drain_start = Instant::now();
        self.reallocs += 1;
        self.materialize();
        let timer = Instant::now();
        self.drain_nanos += (timer - drain_start).as_nanos() as u64;
        let mut caps = std::mem::take(&mut self.caps);
        self.capacities_into(&mut caps);
        self.caps = caps;
        for u in &mut self.res_used {
            *u = 0.0;
        }
        if !self.rows.is_empty() {
            self.fill_rates();
            self.refresh_deadlines();
            #[cfg(feature = "slowcheck")]
            self.assert_matches_reference();
        }
        self.alloc_nanos += timer.elapsed().as_nanos() as u64;
    }

    /// Assigns every stream's rate and the delivered-rate accumulators: in
    /// closed form when every stream has one demand and round one settles
    /// them all, else by the general round loop.
    fn fill_rates(&mut self) {
        if self.multi_demand == 0 && self.fill_closed_form() {
            // Round one's usage fold is, term for term, the delivered-rate
            // fold.
            self.res_used.copy_from_slice(&self.fill.usage);
        } else {
            self.fill_round_loop();
            self.refresh_res_used();
        }
    }

    /// Round one of [`FluidMachine::fill_round_loop`] in closed form, for a
    /// machine whose every stream has exactly one demand (every monotasks
    /// machine). Such a stream's tentative rate is its resource's fair share
    /// over its demand, capped at one core, and it freezes in round one when
    /// it is cap-bound or its resource saturates. One pass over the rows, in
    /// id order, assigns every rate and folds `usage` exactly as round one
    /// does. Returns whether that settled every stream; if not, the rows'
    /// rates are partial and the round loop must run from the start.
    fn fill_closed_form(&mut self) -> bool {
        let nr = self.n_resources();
        let FillScratch {
            share,
            uncapped,
            usage,
            ..
        } = &mut self.fill;
        share.clear();
        share.extend(
            self.caps
                .iter()
                .zip(&self.claimants)
                .map(|(&cap, &n)| (cap / n as f64).max(0.0)),
        );
        usage.clear();
        usage.resize(nr, 0.0);
        uncapped.clear();
        uncapped.resize(nr, false);
        for s in &mut self.rows {
            let (r, d) = s.sparse[0];
            let mut rate = share[r] / d;
            // Single-threaded cap: at most one core of CPU.
            let cap = 1.0 / s.cpu;
            if s.cpu > 0.0 && cap <= rate {
                rate = cap;
            } else {
                uncapped[r] = true;
            }
            s.rate = rate;
            usage[r] += rate * d;
        }
        // A stream that is not cap-bound runs at exactly its resource's
        // share, so it freezes iff that resource saturates.
        (0..nr).all(|r| !uncapped[r] || usage[r] >= self.caps[r] * (1.0 - 1e-9))
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
    fn fill_round_loop(&mut self) {
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
            ..
        } = &mut scratch;
        cap_left.clear();
        cap_left.extend_from_slice(&self.caps);
        counts.clear();
        counts.extend_from_slice(&self.claimants);
        unfrozen.clear();
        unfrozen.extend(0..self.rows.len() as u32);
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
            for &i in unfrozen.iter() {
                let s = &self.rows[i as usize];
                let mut rate = f64::INFINITY;
                for &(r, d) in &s.sparse {
                    rate = rate.min(share(r, counts, cap_left) / d);
                }
                // Single-threaded cap: at most one core of CPU.
                let mut cap_bound = false;
                if s.cpu > 0.0 {
                    let cap = 1.0 / s.cpu;
                    if cap <= rate {
                        rate = cap;
                        cap_bound = true;
                    }
                }
                debug_assert!(rate.is_finite());
                tentative.push((i, rate, cap_bound));
            }
            // Which resources would the tentative rates saturate?
            for u in usage.iter_mut() {
                *u = 0.0;
            }
            for &(i, rate, _) in tentative.iter() {
                for &(r, d) in &self.rows[i as usize].sparse {
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
                    .filter(|&&(i, rate, cap_bound)| {
                        if cap_bound {
                            return true;
                        }
                        self.rows[i as usize].sparse.iter().any(|&(r, d)| {
                            saturated[r] && rate >= share(r, counts, cap_left) / d * (1.0 - 1e-9)
                        })
                    })
                    .map(|&(i, rate, _)| (i, rate)),
            );
            if to_freeze.is_empty() {
                // Fallback: freeze the single slowest stream (ties broken by
                // row, which is id order).
                let slowest = tentative
                    .iter()
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN rate").then(a.0.cmp(&b.0)))
                    .expect("unfrozen set non-empty");
                to_freeze.push((slowest.0, slowest.1));
            }
            for &(i, rate) in to_freeze.iter() {
                let s = &mut self.rows[i as usize];
                s.rate = rate;
                s.frozen_at = stamp;
                for &(r, d) in &s.sparse {
                    cap_left[r] = (cap_left[r] - rate * d).max(0.0);
                    counts[r] -= 1;
                }
            }
            let before = unfrozen.len();
            unfrozen.retain(|&i| self.rows[i as usize].frozen_at != stamp);
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
        for s in &self.rows {
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
        for (&id, s) in self.ids.iter().zip(&mut self.rows) {
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
        if self.heap.len() > 2 * self.rows.len() + 64 {
            self.heap.clear();
            for (&id, s) in self.ids.iter().zip(&self.rows) {
                self.heap.push(Reverse((s.deadline, id, s.gen)));
            }
        }
    }

    /// The original quadratic progressive-filling algorithm, kept verbatim as
    /// the executable specification. Returns the rate for every active stream
    /// without touching machine state. With the `slowcheck` feature, every
    /// reallocation is checked against this.
    pub fn reference_reallocate(&self) -> BTreeMap<StreamId, f64> {
        let nr = self.n_resources();
        let stream = |id: &StreamId| &self.rows[self.row(*id).expect("active stream")];
        let mut rates: BTreeMap<StreamId, f64> = BTreeMap::new();
        let mut cap_left = self.capacities();
        let mut unfrozen: Vec<StreamId> = self.ids.clone();
        while !unfrozen.is_empty() {
            let mut counts = vec![0usize; nr];
            for id in &unfrozen {
                let s = stream(id);
                for (r, c) in counts.iter_mut().enumerate() {
                    if Self::demand_at(s, r) > 0.0 {
                        *c += 1;
                    }
                }
            }
            let share = |r: usize, counts: &[usize], cap_left: &[f64]| -> f64 {
                (cap_left[r] / counts[r] as f64).max(0.0)
            };
            let mut tentative: Vec<(StreamId, f64, bool)> = Vec::with_capacity(unfrozen.len());
            for id in &unfrozen {
                let s = stream(id);
                let mut rate = f64::INFINITY;
                for r in 0..nr {
                    let d = Self::demand_at(s, r);
                    if d > 0.0 {
                        rate = rate.min(share(r, &counts, &cap_left) / d);
                    }
                }
                let mut cap_bound = false;
                if s.cpu > 0.0 {
                    let cap = 1.0 / s.cpu;
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
                let s = stream(id);
                for (r, u) in usage.iter_mut().enumerate() {
                    *u += rate * Self::demand_at(s, r);
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
                    let s = stream(id);
                    (0..nr).any(|r| {
                        saturated[r] && {
                            let d = Self::demand_at(s, r);
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
                let s = stream(&id);
                rates.insert(id, rate);
                for (r, cap) in cap_left.iter_mut().enumerate() {
                    *cap = (*cap - rate * Self::demand_at(s, r)).max(0.0);
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
        for (id, s) in self.ids.iter().zip(&self.rows) {
            let want = reference[id];
            let tol = want.abs() * 1e-9 + 1e-12;
            assert!(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::{DiskSpec, MIB};
    use proptest::prelude::*;

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
    fn hold_changes_no_rate_epoch_or_batch() {
        let mut m = machine(2, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(4.0, 1));
        let (reallocs, epoch) = (m.stats().reallocs, m.epoch());
        m.hold(StreamId(2), StreamDemand::rx_only(125.0 * MIB, 1));
        m.begin_update();
        m.hold(StreamId(3), StreamDemand::rx_only(MIB, 1));
        m.commit(SimTime::ZERO);
        assert_eq!((m.stats().reallocs, m.epoch()), (reallocs, epoch));
        assert_eq!(m.active_streams(), 1);
        assert_eq!(m.parked().collect::<Vec<_>>(), [StreamId(2), StreamId(3)]);
        // A held stream resumes with its whole demand.
        assert!(m.unpark(t(1.0), StreamId(2)));
        assert_eq!(m.next_completion(t(1.0)), Some(t(2.0)));
    }

    #[test]
    fn park_and_unpark_miss_quietly() {
        let mut m = machine(1, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(1.0, 1));
        assert!(!m.unpark(SimTime::ZERO, StreamId(1)), "not parked");
        assert!(m.park(t(0.5), StreamId(1)));
        let (reallocs, epoch) = (m.stats().reallocs, m.epoch());
        assert!(!m.park(t(0.5), StreamId(1)), "already parked");
        assert!(!m.park(t(0.5), StreamId(2)), "unknown");
        assert_eq!((m.stats().reallocs, m.epoch()), (reallocs, epoch));
        // Half a core-second was left.
        assert!(m.unpark(t(2.0), StreamId(1)));
        assert_eq!(m.next_completion(t(2.0)), Some(t(2.5)));
    }

    #[test]
    fn remove_drops_a_parked_stream_without_reallocating() {
        let mut m = machine(1, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(1.0, 1));
        m.park(SimTime::ZERO, StreamId(1));
        m.hold(StreamId(2), StreamDemand::cpu_only(1.0, 1));
        let (reallocs, epoch) = (m.stats().reallocs, m.epoch());
        assert_eq!(m.remove(t(1.0), StreamId(1)), None);
        assert_eq!(m.remove(t(1.0), StreamId(2)), None);
        assert_eq!((m.stats().reallocs, m.epoch()), (reallocs, epoch));
        assert_eq!(m.parked().count(), 0);
        assert!(!m.unpark(t(1.0), StreamId(1)));
        m.insert(t(1.0), StreamId(1), StreamDemand::cpu_only(1.0, 1));
    }

    #[test]
    fn park_floors_the_remaining_fraction() {
        let mut m = machine(1, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(1.0, 1));
        let done = m.next_completion(SimTime::ZERO).unwrap();
        // Due but not yet taken: next to nothing is left, and the floor
        // keeps 1e-9 of the core-second, which finishes within a nanosecond.
        assert!(m.park(done, StreamId(1)));
        assert!(m.unpark(done, StreamId(1)));
        assert_eq!(m.next_completion(done), Some(done + SimDuration::NANO));
    }

    #[test]
    #[should_panic(expected = "inserted while parked")]
    fn inserting_a_parked_id_panics() {
        let mut m = machine(1, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(1.0, 1));
        m.park(SimTime::ZERO, StreamId(1));
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(1.0, 1));
    }

    #[test]
    #[should_panic(expected = "inserted while parked")]
    fn holding_a_parked_id_panics() {
        let mut m = machine(1, 1);
        m.hold(StreamId(1), StreamDemand::cpu_only(1.0, 1));
        m.hold(StreamId(1), StreamDemand::cpu_only(1.0, 1));
    }

    #[test]
    #[should_panic(expected = "held while active")]
    fn holding_an_active_id_panics() {
        let mut m = machine(1, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(1.0, 1));
        m.hold(StreamId(1), StreamDemand::cpu_only(1.0, 1));
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

    /// Rates of `m`'s streams, in ascending id order, as the closed-form
    /// round and the general round loop assign them; `None` when the closed
    /// form does not settle this population. Leaves `m`'s own rates as they
    /// were.
    fn closed_form_vs_round_loop(m: &mut FluidMachine) -> Option<Vec<(StreamId, f64, f64)>> {
        let own: Vec<f64> = m.rows.iter().map(|s| s.rate).collect();
        let settled = m.multi_demand == 0 && m.fill_closed_form();
        let closed: Vec<f64> = m.rows.iter().map(|s| s.rate).collect();
        m.fill_round_loop();
        let out = settled.then(|| {
            let rows = m.ids.iter().zip(&closed).zip(&m.rows);
            rows.map(|((&id, &c), s)| (id, c, s.rate)).collect()
        });
        for (s, rate) in m.rows.iter_mut().zip(own) {
            s.rate = rate;
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn closed_form_round_matches_round_loop_bit_for_bit(
            // `cores = n_cpu + delta - 3` puts the CPU population above, at and
            // below the core count.
            n_cpu in 0usize..12,
            delta in 0usize..7,
            others in prop::collection::vec((1usize..4, 0usize..2, 0.01f64..1.0), 0..30),
            sizes in prop::collection::vec(0.01f64..1.0, 12),
            ids in prop::collection::vec((0u64..5000, 0u64..40), 42),
            scales in (0.2f64..3.0, 0.2f64..3.0, 0.2f64..3.0),
        ) {
            let cores = (n_cpu + delta).saturating_sub(3).max(1) as u32;
            let mut m = machine(cores, 2);
            m.set_disk_scale(SimTime::ZERO, 0, scales.0);
            m.set_disk_scale(SimTime::ZERO, 1, scales.1);
            m.set_nic_scale(SimTime::ZERO, scales.2);
            let demands = (0..n_cpu)
                .map(|i| StreamDemand::cpu_only(4.0 * sizes[i], 2))
                .chain(others.iter().map(|&(kind, disk, size)| match kind {
                    1 => StreamDemand::disk_read_only(DiskId(disk), size * 256.0 * MIB, 2),
                    2 => StreamDemand::disk_write_only(DiskId(disk), size * 256.0 * MIB, 2),
                    _ => StreamDemand::rx_only(size * 256.0 * MIB, 2),
                }));
            // Ids in the executors' `(monotask << 32) | node` pattern arrive
            // out of order.
            for (d, &(mt, node)) in demands.zip(&ids) {
                let id = StreamId(mt << 32 | node);
                if m.rate(id).is_none() {
                    m.insert(SimTime::ZERO, id, d);
                }
            }
            let rows = closed_form_vs_round_loop(&mut m);
            prop_assert!(rows.is_some(), "closed form left a single-demand population unsettled");
            for (id, closed, looped) in rows.unwrap() {
                prop_assert_eq!(closed.to_bits(), looped.to_bits(), "{:?}: {} vs {}", id, closed, looped);
                prop_assert_eq!(m.rate(id).map(f64::to_bits), Some(closed.to_bits()));
            }
        }
    }
}
