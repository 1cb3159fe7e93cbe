//! Per-monotask timing records — the instrumentation that is "built into the
//! framework's execution model" (§6.5).
//!
//! Every monotask reports when it was queued, started, and finished, which
//! resource it used and why, and how much work it performed. The `perfmodel`
//! crate computes the paper's ideal resource times (Fig 10) directly from
//! these records; no extra logging is needed — that is the point of the
//! architecture.

use dataflow::CpuWork;
use serde::{Deserialize, Serialize};
use simcore::{ResourceKind, SimTime};

use crate::monotask::MultitaskKey;

/// Why a monotask ran — distinguishes input reads from shuffle and output
/// I/O, so what-if models can drop exactly the right components (§6.3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Purpose {
    /// The multitask's computation.
    Compute,
    /// Reading job input from local disk.
    ReadInput,
    /// Reading locally-stored shuffle data for a local reduce multitask.
    ReadShuffleLocal,
    /// Reading shuffle data on behalf of a *remote* reduce multitask (runs on
    /// the sender machine).
    ReadShuffleServe,
    /// Writing shuffle output.
    WriteShuffle,
    /// Writing job output.
    WriteOutput,
    /// Receiving shuffle bytes over the network.
    NetTransfer,
}

impl Purpose {
    /// Whether this purpose is a disk write (for queue round-robin classes).
    pub fn is_write(self) -> bool {
        matches!(self, Purpose::WriteShuffle | Purpose::WriteOutput)
    }
}

/// A snapshot of one machine's scheduler queues — the architecture's
/// "visible contention" signal: "this design makes resource contention
/// 'visible' as the queue length for each resource" (§3.1). A borrowing
/// view into a [`QueueTrace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueSnapshot<'a> {
    /// When the snapshot was taken.
    pub time: SimTime,
    /// Which machine.
    pub machine: usize,
    /// Compute monotasks waiting for a core.
    pub cpu_queued: u32,
    /// Disk monotasks waiting, per disk.
    pub disk_queued: &'a [u32],
    /// Multitask fetch groups waiting for the network scheduler.
    pub net_queued: u32,
}

impl QueueSnapshot<'_> {
    /// Total monotasks waiting across all of this machine's resources.
    pub fn total(&self) -> usize {
        let disk: usize = self.disk_queued.iter().map(|&q| q as usize).sum();
        self.cpu_queued as usize + disk + self.net_queued as usize
    }
}

/// One snapshot's fixed-width part; its disk lengths live in
/// [`QueueTrace`]'s flat disk column.
#[derive(Clone, Copy, Debug)]
struct QueueRow {
    machine: u32,
    cpu_queued: u32,
    net_queued: u32,
}

const _: () = assert!(std::mem::size_of::<QueueRow>() == 12);

/// Every machine's queue lengths over a run, stored by column: each distinct
/// sample time once, a 12-byte row per snapshot, and all disk lengths in one
/// flat column with the cluster's disks-per-machine as its stride (the
/// cluster is homogeneous). [`QueueTrace::iter`] yields the snapshots in the
/// order they were pushed.
#[derive(Clone, Debug)]
pub struct QueueTrace {
    /// Disks per machine: the disk column's stride.
    disks: usize,
    /// `(time, first row)` for each run of rows sharing one sample time.
    times: Vec<(SimTime, u32)>,
    rows: Vec<QueueRow>,
    disk_queued: Vec<u32>,
}

/// Converts a queue length or machine index to a trace column entry,
/// refusing (in every build) to truncate one that does not fit.
fn column(v: usize) -> u32 {
    u32::try_from(v).expect("queue trace entry exceeds u32")
}

impl QueueTrace {
    /// An empty trace for machines with `disks` disks each.
    pub(crate) fn new(disks: usize) -> QueueTrace {
        QueueTrace {
            disks,
            times: Vec::new(),
            rows: Vec::new(),
            disk_queued: Vec::new(),
        }
    }

    /// Appends one machine's snapshot at `time`. `disk_queued` must yield
    /// exactly one length per disk.
    pub(crate) fn push(
        &mut self,
        time: SimTime,
        machine: usize,
        cpu_queued: usize,
        disk_queued: impl IntoIterator<Item = usize>,
        net_queued: usize,
    ) {
        let row = self.rows.len();
        if self.times.last().is_none_or(|&(t, _)| t != time) {
            self.times.push((time, column(row)));
        }
        self.rows.push(QueueRow {
            machine: column(machine),
            cpu_queued: column(cpu_queued),
            net_queued: column(net_queued),
        });
        let before = self.disk_queued.len();
        self.disk_queued.extend(disk_queued.into_iter().map(column));
        assert_eq!(
            self.disk_queued.len() - before,
            self.disks,
            "a snapshot needs one length per disk"
        );
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no snapshot was taken.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The snapshots in push order.
    pub fn iter(&self) -> QueueTraceIter<'_> {
        QueueTraceIter {
            trace: self,
            row: 0,
            time: 0,
        }
    }
}

impl<'a> IntoIterator for &'a QueueTrace {
    type Item = QueueSnapshot<'a>;
    type IntoIter = QueueTraceIter<'a>;

    fn into_iter(self) -> QueueTraceIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`QueueTrace`]'s snapshots.
#[derive(Clone, Debug)]
pub struct QueueTraceIter<'a> {
    trace: &'a QueueTrace,
    row: usize,
    /// Index into `trace.times` of the run holding `row`.
    time: usize,
}

impl<'a> Iterator for QueueTraceIter<'a> {
    type Item = QueueSnapshot<'a>;

    fn next(&mut self) -> Option<QueueSnapshot<'a>> {
        let t = self.trace;
        let r = *t.rows.get(self.row)?;
        while t
            .times
            .get(self.time + 1)
            .is_some_and(|&(_, first)| first as usize <= self.row)
        {
            self.time += 1;
        }
        let d = self.row * t.disks;
        self.row += 1;
        Some(QueueSnapshot {
            time: t.times[self.time].0,
            machine: r.machine as usize,
            cpu_queued: r.cpu_queued,
            disk_queued: &t.disk_queued[d..d + t.disks],
            net_queued: r.net_queued,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.trace.rows.len() - self.row;
        (n, Some(n))
    }
}

impl ExactSizeIterator for QueueTraceIter<'_> {}

/// Every completed monotask's record, plus a side column holding one
/// [`CpuWork`] per compute record, in record order. Only compute monotasks
/// have a CPU split, so keeping it out of [`MonotaskRecord`] saves 32 bytes
/// on every other record. Derefs to the records.
#[derive(Clone, Debug, Default)]
pub struct Records {
    records: Vec<MonotaskRecord>,
    cpu: Vec<CpuWork>,
}

impl Records {
    /// Appends a record; `cpu` is its CPU split, present exactly when the
    /// record is a compute monotask's.
    pub(crate) fn push(&mut self, record: MonotaskRecord, cpu: Option<CpuWork>) {
        assert_eq!(
            record.resource == ResourceKind::Cpu,
            cpu.is_some(),
            "a CPU split belongs to exactly the compute records"
        );
        self.records.push(record);
        self.cpu.extend(cpu);
    }

    /// The CPU splits: the `i`th belongs to the `i`th compute record.
    pub fn cpu(&self) -> &[CpuWork] {
        &self.cpu
    }

    /// Each record with its CPU split (`Some` exactly for compute records).
    pub fn with_cpu(&self) -> impl Iterator<Item = (&MonotaskRecord, Option<&CpuWork>)> {
        let mut cpu = self.cpu.iter();
        self.records.iter().map(move |r| {
            let work = if r.resource == ResourceKind::Cpu {
                Some(cpu.next().expect("one CPU split per compute record"))
            } else {
                None
            };
            (r, work)
        })
    }
}

impl std::ops::Deref for Records {
    type Target = [MonotaskRecord];

    fn deref(&self) -> &[MonotaskRecord] {
        &self.records
    }
}

impl<'a> IntoIterator for &'a Records {
    type Item = &'a MonotaskRecord;
    type IntoIter = std::slice::Iter<'a, MonotaskRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// One completed monotask.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MonotaskRecord {
    /// Owning multitask.
    pub multitask: MultitaskKey,
    /// Machine whose resource ran the monotask (for a network fetch, the
    /// receiving machine).
    pub machine: usize,
    /// Resource class used.
    pub resource: ResourceKind,
    /// Why it ran.
    pub purpose: Purpose,
    /// When it entered its resource scheduler's queue.
    pub queued: SimTime,
    /// When the resource began serving it.
    pub started: SimTime,
    /// When it completed.
    pub ended: SimTime,
    /// Bytes moved (I/O monotasks; 0 for compute).
    pub bytes: f64,
}

const _: () = assert!(std::mem::size_of::<MonotaskRecord>() == 56);

impl MonotaskRecord {
    /// Service time (excludes queueing).
    pub fn service_secs(&self) -> f64 {
        self.ended.since(self.started).as_secs_f64()
    }

    /// Time spent waiting in the resource queue.
    pub fn queue_secs(&self) -> f64 {
        self.started.since(self.queued).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::{JobId, StageId, TaskId};

    #[test]
    fn record_timings() {
        let r = MonotaskRecord {
            multitask: MultitaskKey {
                job: JobId(0),
                stage: StageId(1),
                task: TaskId(2),
            },
            machine: 3,
            resource: ResourceKind::Disk,
            purpose: Purpose::ReadInput,
            queued: SimTime::from_secs(1),
            started: SimTime::from_secs(3),
            ended: SimTime::from_secs(7),
            bytes: 128.0,
        };
        assert_eq!(r.queue_secs(), 2.0);
        assert_eq!(r.service_secs(), 4.0);
        assert!(!r.purpose.is_write());
        assert!(Purpose::WriteShuffle.is_write());
    }

    /// One snapshot as a plain owned value: the push-order reference.
    type Owned = (SimTime, usize, u32, Vec<u32>, u32);

    /// Pushes a deterministic script of snapshots for `machines` machines
    /// with `disks` disks each over `events` events, skipping "dead"
    /// machines, and returns the plain reference alongside the trace.
    fn scripted(disks: usize, machines: usize, events: u64) -> (QueueTrace, Vec<Owned>) {
        let mut trace = QueueTrace::new(disks);
        let mut reference = Vec::new();
        for e in 0..events {
            // Two consecutive events share a time stamp, as zero-length
            // simulation steps do.
            let time = SimTime::from_secs(e / 2);
            for m in 0..machines {
                if (m + e as usize) % 3 == 1 {
                    continue; // dead this event
                }
                let cpu = (e as usize * 7 + m) % 5;
                let disk: Vec<usize> = (0..disks).map(|d| (e as usize + m * d) % 4).collect();
                let net = (m * 3 + e as usize) % 2;
                trace.push(time, m, cpu, disk.iter().copied(), net);
                let disk = disk.iter().map(|&q| q as u32).collect();
                reference.push((time, m, cpu as u32, disk, net as u32));
            }
        }
        (trace, reference)
    }

    fn owned(s: QueueSnapshot<'_>) -> Owned {
        (
            s.time,
            s.machine,
            s.cpu_queued,
            s.disk_queued.to_vec(),
            s.net_queued,
        )
    }

    #[test]
    fn queue_trace_replays_push_order_for_any_disk_count() {
        for disks in [0, 1, 3] {
            let (trace, reference) = scripted(disks, 4, 9);
            assert_eq!(trace.len(), reference.len(), "{disks} disks");
            assert_eq!(trace.iter().len(), reference.len());
            let got: Vec<Owned> = trace.iter().map(owned).collect();
            assert_eq!(got, reference, "{disks} disks");
            let by_ref: Vec<Owned> = (&trace).into_iter().map(owned).collect();
            assert_eq!(by_ref, reference);
            for s in &trace {
                assert_eq!(s.disk_queued.len(), disks);
            }
        }
    }

    #[test]
    fn queue_trace_stores_each_time_once() {
        let (trace, reference) = scripted(2, 4, 9);
        // Nine events over five distinct time stamps.
        assert_eq!(trace.times.len(), 5);
        assert_eq!(trace.rows.len(), reference.len());
        assert_eq!(trace.disk_queued.len(), 2 * reference.len());
    }

    #[test]
    fn empty_queue_trace_yields_nothing() {
        let trace = QueueTrace::new(2);
        assert!(trace.is_empty());
        assert_eq!(trace.iter().next(), None);
        // A time with every machine dead leaves no row.
        let (trace, reference) = scripted(1, 1, 3);
        assert_eq!(trace.iter().map(owned).collect::<Vec<_>>(), reference);
    }

    #[test]
    fn queue_snapshot_total_sums_every_class() {
        let mut trace = QueueTrace::new(3);
        trace.push(SimTime::from_secs(1), 2, 4, [1, 0, 2], 5);
        let s = trace.iter().next().unwrap();
        assert_eq!(s.total(), 12);
    }

    #[test]
    #[should_panic(expected = "one length per disk")]
    fn queue_trace_rejects_a_wrong_disk_count() {
        QueueTrace::new(2).push(SimTime::ZERO, 0, 0, [1], 0);
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn queue_trace_rejects_lengths_past_u32() {
        QueueTrace::new(0).push(SimTime::ZERO, 0, u32::MAX as usize + 1, [], 0);
    }

    #[test]
    fn records_keep_one_cpu_split_per_compute_record() {
        let key = MultitaskKey {
            job: JobId(0),
            stage: StageId(0),
            task: TaskId(0),
        };
        let rec = |resource| MonotaskRecord {
            multitask: key,
            machine: 0,
            resource,
            purpose: Purpose::Compute,
            queued: SimTime::ZERO,
            started: SimTime::ZERO,
            ended: SimTime::ZERO,
            bytes: 0.0,
        };
        let work = |c| CpuWork {
            deser: 0.0,
            compute: c,
            ser: 0.0,
        };
        let mut records = Records::default();
        records.push(rec(ResourceKind::Disk), None);
        records.push(rec(ResourceKind::Cpu), Some(work(1.0)));
        records.push(rec(ResourceKind::Network), None);
        records.push(rec(ResourceKind::Cpu), Some(work(2.0)));
        assert_eq!(records.len(), 4);
        assert_eq!(records.cpu().len(), 2);
        let splits: Vec<Option<f64>> = records
            .with_cpu()
            .map(|(_, c)| c.map(|c| c.compute))
            .collect();
        assert_eq!(splits, [None, Some(1.0), None, Some(2.0)]);
        assert_eq!((&records).into_iter().count(), 4);
    }

    #[test]
    #[should_panic(expected = "exactly the compute records")]
    fn records_reject_a_cpu_split_on_an_io_record() {
        let mut records = Records::default();
        records.push(
            MonotaskRecord {
                multitask: MultitaskKey {
                    job: JobId(0),
                    stage: StageId(0),
                    task: TaskId(0),
                },
                machine: 0,
                resource: ResourceKind::Disk,
                purpose: Purpose::ReadInput,
                queued: SimTime::ZERO,
                started: SimTime::ZERO,
                ended: SimTime::ZERO,
                bytes: 1.0,
            },
            Some(CpuWork::default()),
        );
    }
}
