//! Per-machine resource schedulers and their queues (§3.3).
//!
//! Each worker runs one scheduler per resource, each admitting only as many
//! monotasks as the resource can serve efficiently:
//!
//! * **CPU** — one monotask per core.
//! * **HDD** — one monotask per disk ("running multiple concurrent monotasks
//!   reduces throughput due to seek time").
//! * **SSD** — a configurable number of outstanding monotasks; four "achieved
//!   nearly the maximum throughput".
//! * **Network** — receiver-side scheduling: outstanding requests limited to
//!   those coming from four multitasks, balancing link utilization against
//!   coarse-grained pipelining.
//!
//! Disk queues **round-robin between reads and writes**: when a queue of
//! writes accumulates, strict FIFO would stall every new multitask's read —
//! and with it all downstream CPU work — until the writes drain, starving the
//! CPU in alternating bursts (§3.3's queueing discussion). The round-robin
//! keeps a pipeline of monotasks flowing to every resource.

use std::collections::VecDeque;

/// A queued monotask reference: `(multitask index, node index)` in the
/// executor's arena, 32 bits each so a disk-queue entry is 16 bytes. The
/// executor checks both indices fit when it launches a multitask.
pub type QueuedRef = (u32, u32);

/// One disk's admission queues.
#[derive(Debug)]
struct DiskQueues {
    slots: usize,
    running: usize,
    /// How many of `running` are writes (memory-pressure bookkeeping).
    running_writes: usize,
    reads: VecDeque<(u64, QueuedRef)>,
    writes: VecDeque<(u64, QueuedRef)>,
    /// Round-robin state: serve a read next when true.
    serve_read_next: bool,
}

impl DiskQueues {
    fn pop(&mut self, round_robin: bool, pressure: Option<bool>) -> Option<QueuedRef> {
        if self.running >= self.slots {
            return None;
        }
        // `(entry, is_write)` so the class of the admitted monotask is known.
        let item: Option<((u64, QueuedRef), bool)> = if let Some(allow_read) = pressure {
            // Memory pressure (§3.5): drain buffered output to disk; new
            // reads would only buffer more data, so they are admitted only
            // when the caller vouches progress needs one (`allow_read`:
            // the machine is otherwise idle).
            match self.writes.pop_front() {
                Some(w) => Some((w, true)),
                None if !allow_read => None,
                None => self.reads.pop_front().map(|r| (r, false)),
            }
        } else if round_robin {
            // Alternate classes; fall back to whichever is non-empty.
            let first_reads = self.serve_read_next;
            self.serve_read_next = !self.serve_read_next;
            if first_reads {
                self.reads
                    .pop_front()
                    .map(|r| (r, false))
                    .or_else(|| self.writes.pop_front().map(|w| (w, true)))
            } else {
                self.writes
                    .pop_front()
                    .map(|w| (w, true))
                    .or_else(|| self.reads.pop_front().map(|r| (r, false)))
            }
        } else {
            // Strict FIFO across both classes, by enqueue sequence.
            match (self.reads.front(), self.writes.front()) {
                (Some((ra, _)), Some((wa, _))) => {
                    if ra <= wa {
                        self.reads.pop_front().map(|r| (r, false))
                    } else {
                        self.writes.pop_front().map(|w| (w, true))
                    }
                }
                (Some(_), None) => self.reads.pop_front().map(|r| (r, false)),
                (None, Some(_)) => self.writes.pop_front().map(|w| (w, true)),
                (None, None) => None,
            }
        };
        item.map(|((_, r), is_write)| {
            self.running += 1;
            if is_write {
                self.running_writes += 1;
            }
            r
        })
    }
}

/// All resource schedulers of one worker machine.
#[derive(Debug)]
pub struct MachineScheduler {
    cores: usize,
    cpu_running: usize,
    cpu_queue: VecDeque<QueuedRef>,
    disks: Vec<DiskQueues>,
    net_limit: usize,
    net_active: usize,
    /// Multitasks (by arena index) whose fetch groups await admission.
    net_queue: VecDeque<usize>,
    round_robin: bool,
    /// Memory-pressure mode (§3.5): serve writes first so buffered data
    /// drains to disk instead of accumulating.
    prefer_writes: bool,
    seq: u64,
}

impl MachineScheduler {
    /// Creates schedulers for a machine with `cores` cores, per-disk slot
    /// counts `disk_slots`, and a receiver-side limit of `net_limit`
    /// concurrently-fetching multitasks.
    pub fn new(
        cores: usize,
        disk_slots: &[usize],
        net_limit: usize,
        round_robin: bool,
    ) -> MachineScheduler {
        assert!(cores > 0 && net_limit > 0);
        MachineScheduler {
            cores,
            cpu_running: 0,
            cpu_queue: VecDeque::new(),
            disks: disk_slots
                .iter()
                .map(|&slots| DiskQueues {
                    slots,
                    running: 0,
                    running_writes: 0,
                    reads: VecDeque::new(),
                    writes: VecDeque::new(),
                    serve_read_next: true,
                })
                .collect(),
            net_limit,
            net_active: 0,
            net_queue: VecDeque::new(),
            round_robin,
            prefer_writes: false,
            seq: 0,
        }
    }

    /// Enables or disables memory-pressure mode (§3.5's suggested policy,
    /// implemented as an opt-in extension): while enabled, disk queues serve
    /// writes and defer reads (use [`pop_disk_pressured`](Self::pop_disk_pressured)),
    /// and fetch-group admission is throttled to one outstanding group.
    pub fn set_prefer_writes(&mut self, prefer: bool) {
        self.prefer_writes = prefer;
    }

    /// Whether memory-pressure mode is enabled.
    pub fn prefer_writes(&self) -> bool {
        self.prefer_writes
    }

    /// Queues a compute monotask.
    pub fn enqueue_cpu(&mut self, r: QueuedRef) {
        self.cpu_queue.push_back(r);
    }

    /// Queues a disk monotask on `disk`, classed as read or write.
    pub fn enqueue_disk(&mut self, disk: usize, r: QueuedRef, is_write: bool) {
        let seq = self.seq;
        self.seq += 1;
        let q = &mut self.disks[disk];
        if is_write {
            q.writes.push_back((seq, r));
        } else {
            q.reads.push_back((seq, r));
        }
    }

    /// Queues a multitask's network-fetch group.
    pub fn enqueue_net_group(&mut self, multitask: usize) {
        self.net_queue.push_back(multitask);
    }

    /// Admits the next compute monotask if a core is free.
    pub fn pop_cpu(&mut self) -> Option<QueuedRef> {
        if self.cpu_running >= self.cores {
            return None;
        }
        let r = self.cpu_queue.pop_front();
        if r.is_some() {
            self.cpu_running += 1;
        }
        r
    }

    /// Releases a core.
    pub fn finish_cpu(&mut self) {
        debug_assert!(self.cpu_running > 0);
        self.cpu_running -= 1;
    }

    /// Admits the next monotask on `disk` if a slot is free.
    pub fn pop_disk(&mut self, disk: usize) -> Option<QueuedRef> {
        let rr = self.round_robin;
        self.disks[disk].pop(rr, None)
    }

    /// Memory-pressure admission (§3.5): writes only, unless `allow_read`
    /// (the caller's guarantee that a read is needed for progress).
    pub fn pop_disk_pressured(&mut self, disk: usize, allow_read: bool) -> Option<QueuedRef> {
        let rr = self.round_robin;
        self.disks[disk].pop(rr, Some(allow_read))
    }

    /// Releases a slot on `disk`; `was_write` must match the class of the
    /// completed monotask.
    pub fn finish_disk(&mut self, disk: usize, was_write: bool) {
        let d = &mut self.disks[disk];
        debug_assert!(d.running > 0);
        d.running -= 1;
        if was_write {
            debug_assert!(d.running_writes > 0);
            d.running_writes -= 1;
        }
    }

    /// Admits the next multitask's fetch group if under the receiver limit.
    /// Under memory pressure (§3.5) the limit drops to one outstanding
    /// group: every fetch buffers its bytes in memory, but one group must
    /// always be admissible or multitasks whose computes wait on fetches
    /// could never drain the pressure.
    pub fn pop_net_group(&mut self) -> Option<usize> {
        let limit = if self.prefer_writes {
            1
        } else {
            self.net_limit
        };
        if self.net_active >= limit {
            return None;
        }
        let g = self.net_queue.pop_front();
        if g.is_some() {
            self.net_active += 1;
        }
        g
    }

    /// Releases a fetch-group slot (all of a multitask's fetches finished).
    pub fn finish_net_group(&mut self) {
        debug_assert!(self.net_active > 0);
        self.net_active -= 1;
    }

    /// Number of disks managed.
    pub fn n_disks(&self) -> usize {
        self.disks.len()
    }

    /// Compute monotasks queued but not yet admitted — with
    /// [`MachineScheduler::disk_queued`] and [`MachineScheduler::net_queued`],
    /// the "visible contention" signal the architecture provides (§3.1).
    pub fn cpu_queued(&self) -> usize {
        self.cpu_queue.len()
    }

    /// Disk monotasks queued but not yet admitted, per disk.
    pub fn disk_queued(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.disks.iter().map(|d| d.reads.len() + d.writes.len())
    }

    /// Fetch groups queued but not yet admitted.
    pub fn net_queued(&self) -> usize {
        self.net_queue.len()
    }

    /// The disk with the fewest queued monotasks, the first on a tie; 0
    /// without disks.
    pub fn shortest_disk_queue(&self) -> usize {
        self.disk_queued()
            .enumerate()
            .min_by_key(|&(_, q)| q)
            .map_or(0, |(d, _)| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_respects_core_count() {
        let mut s = MachineScheduler::new(2, &[1], 4, true);
        s.enqueue_cpu((0, 0));
        s.enqueue_cpu((1, 0));
        s.enqueue_cpu((2, 0));
        assert!(s.pop_cpu().is_some());
        assert!(s.pop_cpu().is_some());
        assert!(s.pop_cpu().is_none(), "third must wait for a core");
        s.finish_cpu();
        assert_eq!(s.pop_cpu(), Some((2, 0)));
    }

    #[test]
    fn hdd_runs_one_at_a_time() {
        let mut s = MachineScheduler::new(1, &[1], 4, true);
        s.enqueue_disk(0, (0, 0), false);
        s.enqueue_disk(0, (1, 0), false);
        assert!(s.pop_disk(0).is_some());
        assert!(s.pop_disk(0).is_none());
        s.finish_disk(0, false);
        assert!(s.pop_disk(0).is_some());
    }

    #[test]
    fn round_robin_alternates_reads_and_writes() {
        let mut s = MachineScheduler::new(1, &[1], 4, true);
        // A backlog of writes and one read (the §3.3 scenario).
        for i in 0..3 {
            s.enqueue_disk(0, (100 + i, 0), true);
        }
        s.enqueue_disk(0, (7, 0), false);
        let first = s.pop_disk(0).unwrap();
        assert_eq!(first, (7, 0), "read served despite older writes");
        s.finish_disk(0, false);
        let second = s.pop_disk(0).unwrap();
        assert_eq!(second, (100, 0));
    }

    #[test]
    fn fifo_mode_serves_in_arrival_order() {
        let mut s = MachineScheduler::new(1, &[1], 4, false);
        for i in 0..3 {
            s.enqueue_disk(0, (100 + i, 0), true);
        }
        s.enqueue_disk(0, (7, 0), false);
        assert_eq!(s.pop_disk(0), Some((100, 0)), "FIFO starves the read");
    }

    #[test]
    fn net_groups_limited_to_four_multitasks() {
        let mut s = MachineScheduler::new(1, &[1], 4, true);
        for mt in 0..6 {
            s.enqueue_net_group(mt);
        }
        let admitted: Vec<usize> = std::iter::from_fn(|| s.pop_net_group()).collect();
        assert_eq!(admitted, vec![0, 1, 2, 3]);
        s.finish_net_group();
        assert_eq!(s.pop_net_group(), Some(4));
    }

    #[test]
    fn queue_lengths_expose_contention() {
        let mut s = MachineScheduler::new(1, &[1, 1], 4, true);
        s.enqueue_cpu((0, 0));
        s.enqueue_disk(1, (1, 0), true);
        s.enqueue_net_group(2);
        assert_eq!(s.cpu_queued(), 1);
        assert!(s.disk_queued().eq([0, 1]));
        assert_eq!(s.net_queued(), 1);
        assert_eq!(s.shortest_disk_queue(), 0);
        s.enqueue_disk(0, (3, 0), false);
        assert_eq!(s.shortest_disk_queue(), 0, "a tie goes to the first disk");
        s.enqueue_disk(0, (4, 0), false);
        assert_eq!(s.shortest_disk_queue(), 1);
        assert_eq!(
            MachineScheduler::new(1, &[], 4, true).shortest_disk_queue(),
            0
        );
    }

    #[test]
    fn memory_pressure_prefers_writes_and_defers_reads() {
        let mut s = MachineScheduler::new(1, &[1], 4, true);
        s.enqueue_disk(0, (1, 0), false);
        s.enqueue_disk(0, (2, 0), true);
        assert_eq!(
            s.pop_disk_pressured(0, false),
            Some((2, 0)),
            "write must drain first"
        );
        s.finish_disk(0, true);
        // No writes left: reads stay deferred unless the caller vouches.
        assert_eq!(s.pop_disk_pressured(0, false), None);
        assert_eq!(s.pop_disk_pressured(0, true), Some((1, 0)));
        s.finish_disk(0, false);
        // Normal round-robin once pressure clears.
        s.enqueue_disk(0, (3, 0), true);
        s.enqueue_disk(0, (4, 0), false);
        assert_eq!(
            s.pop_disk(0),
            Some((4, 0)),
            "round-robin resumes with a read"
        );
    }

    #[test]
    fn memory_pressure_throttles_fetch_admission_to_one() {
        let mut s = MachineScheduler::new(1, &[1], 4, true);
        for g in 0..3 {
            s.enqueue_net_group(g);
        }
        s.set_prefer_writes(true);
        assert_eq!(s.pop_net_group(), Some(0), "one group always admissible");
        assert_eq!(s.pop_net_group(), None, "second group deferred");
        s.finish_net_group();
        assert_eq!(s.pop_net_group(), Some(1));
        s.set_prefer_writes(false);
        s.finish_net_group();
        assert_eq!(s.pop_net_group(), Some(2));
    }

    #[test]
    fn ssd_slots_allow_parallel_monotasks() {
        let mut s = MachineScheduler::new(1, &[4], 4, true);
        for i in 0..5 {
            s.enqueue_disk(0, (i, 0), false);
        }
        let n = std::iter::from_fn(|| s.pop_disk(0)).count();
        assert_eq!(n, 4);
    }
}
