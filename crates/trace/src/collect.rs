//! Builds [`TraceDoc`]s from executor outputs and writes them to disk.
//!
//! Both builders only group their run's spans into tracks; one layout
//! function turns the tracks, utilization recorders and instants into the
//! document. It walks everything in a fixed order (spans in record order,
//! tracks and recorders in `BTreeMap` key order, instants in collection
//! order), so the same run output always yields the same document and
//! therefore — via [`TraceDoc::to_json`] — the same bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use cluster::{InstantKind, ResourceSel, RunInstant, TraceSet};
use dataflow::JobReport;
use monotasks_core::{MonoRunOutput, MonotaskRecord, Purpose};
use simcore::ResourceKind;
use sparklike::{SparkRunOutput, TaskRecord};

use crate::chrome::{assign_lanes, Arg, Event, TraceDoc};

/// Machine processes get pids `100 + machine`; the sort index keeps them in
/// machine order above the job processes.
const MACHINE_PID_BASE: u64 = 100;
/// Job processes get pids `100_000 + job`.
const JOB_PID_BASE: u64 = 100_000;
/// Per-machine `events` track (fault instants).
const EVENTS_TID: u64 = 1;
/// Lane tid bases per resource class within a machine process.
const CPU_TID_BASE: u64 = 100;
const DISK_TID_BASE: u64 = 300;
const NET_TID_BASE: u64 = 600;
/// Spark task-span lanes within a machine process.
const TASK_TID_BASE: u64 = 100;
/// Stage track tids within a job process: `STAGE_TID_BASE * (stage+1) + lane`.
const STAGE_TID_BASE: u64 = 1_000;

/// `(first monotask start, last monotask end, monotask count)` for one task.
type TaskWindow = (u64, u64, usize);

/// What a built trace contains — the conservation quantities the proptests
/// check against run statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// `ph:"X"` spans.
    pub spans: usize,
    /// `ph:"i"` instants.
    pub instants: usize,
    /// Counter samples.
    pub counter_points: usize,
    /// Total bytes carried by spans of each resource class, indexed by
    /// [`dataflow::RES_CPU`]/[`dataflow::RES_DISK`]/[`dataflow::RES_NET`].
    pub bytes_by_resource: [f64; 3],
}

impl TraceSummary {
    /// Tallies a document's events.
    pub fn of(doc: &TraceDoc) -> TraceSummary {
        let mut s = TraceSummary::default();
        for e in &doc.events {
            match e {
                Event::Span { cat, args, .. } => {
                    s.spans += 1;
                    let res = match *cat {
                        "cpu" => Some(dataflow::RES_CPU),
                        "disk" => Some(dataflow::RES_DISK),
                        "net" => Some(dataflow::RES_NET),
                        _ => None,
                    };
                    if let Some(r) = res {
                        for (k, v) in args {
                            if let ("bytes", Arg::F64(b)) = (*k, v) {
                                s.bytes_by_resource[r] += *b;
                            }
                        }
                    }
                }
                Event::Instant { .. } => s.instants += 1,
                Event::Counter { .. } => s.counter_points += 1,
                _ => {}
            }
        }
        s
    }
}

fn purpose_label(p: Purpose) -> &'static str {
    match p {
        Purpose::Compute => "compute",
        Purpose::ReadInput => "read input",
        Purpose::ReadShuffleLocal => "read shuffle",
        Purpose::ReadShuffleServe => "serve shuffle",
        Purpose::WriteShuffle => "write shuffle",
        Purpose::WriteOutput => "write output",
        Purpose::NetTransfer => "net transfer",
    }
}

fn class_of(r: ResourceKind) -> (&'static str, u64) {
    match r {
        ResourceKind::Cpu => ("cpu", CPU_TID_BASE),
        ResourceKind::Disk => ("disk", DISK_TID_BASE),
        ResourceKind::Network => ("net", NET_TID_BASE),
    }
}

fn sel_counter_name(sel: ResourceSel) -> String {
    match sel {
        ResourceSel::Cpu => "cpu util".into(),
        ResourceSel::Disk(d) => format!("disk{d} util"),
        ResourceSel::Network => "net util".into(),
    }
}

fn instant_args(kind: &InstantKind) -> Vec<(&'static str, Arg)> {
    match *kind {
        InstantKind::MachineCrash { machine } => vec![("machine", Arg::U64(machine as u64))],
        InstantKind::DiskScale {
            machine,
            disk,
            factor,
        } => vec![
            ("machine", Arg::U64(machine as u64)),
            ("disk", Arg::U64(disk as u64)),
            ("factor", Arg::F64(factor)),
        ],
        InstantKind::LinkScale { machine, factor } => vec![
            ("machine", Arg::U64(machine as u64)),
            ("factor", Arg::F64(factor)),
        ],
        InstantKind::PairCut { src, dst } | InstantKind::PairHeal { src, dst } => {
            vec![("src", Arg::U64(src as u64)), ("dst", Arg::U64(dst as u64))]
        }
        InstantKind::TaskRetry {
            job,
            stage,
            task,
            recompute,
        } => vec![
            ("job", Arg::U64(job as u64)),
            ("stage", Arg::U64(stage as u64)),
            ("task", Arg::U64(task as u64)),
            ("recompute", Arg::Bool(recompute)),
        ],
        InstantKind::TaskSpeculate {
            job,
            stage,
            task,
            machine,
        } => vec![
            ("job", Arg::U64(job as u64)),
            ("stage", Arg::U64(stage as u64)),
            ("task", Arg::U64(task as u64)),
            ("machine", Arg::U64(machine as u64)),
        ],
        InstantKind::MonoCopy {
            job,
            stage,
            task,
            resource,
        }
        | InstantKind::MonoCopyWin {
            job,
            stage,
            task,
            resource,
        } => vec![
            ("job", Arg::U64(job as u64)),
            ("stage", Arg::U64(stage as u64)),
            ("task", Arg::U64(task as u64)),
            ("resource", Arg::U64(resource as u64)),
        ],
        InstantKind::TemplateInvalidate { job, stage }
        | InstantKind::FetchReplan { job, stage } => {
            vec![
                ("job", Arg::U64(job as u64)),
                ("stage", Arg::U64(stage as u64)),
            ]
        }
        InstantKind::FetchRetry {
            job,
            stage,
            attempt,
        } => vec![
            ("job", Arg::U64(job as u64)),
            ("stage", Arg::U64(stage as u64)),
            ("attempt", Arg::U64(attempt as u64)),
        ],
    }
}

/// A span's `(name, cat, args)`; its pid, tid and window come from its
/// [`Track`].
type SpanBody = (String, &'static str, Vec<(&'static str, Arg)>);

/// One span track: spans greedily packed into non-overlapping lanes
/// `tid_base + n` of process `pid`, lane `n` named `"{label} lane {n}"`.
struct Track<'a> {
    pid: u64,
    tid_base: u64,
    label: String,
    /// `(start, end)` of span `k`, in the order the spans are emitted.
    windows: Vec<(u64, u64)>,
    /// Renders span `k` from the run output it borrows.
    span: Box<dyn Fn(usize) -> SpanBody + 'a>,
}

/// Lays out one run's document. Both executors share it; they differ only
/// in the tracks they hand in (the paper's Fig. 1 contrast).
///
/// Event order: process metadata (name, sort index, instant thread) for
/// each of `machines` (those that carry a span, ascending), then for each
/// job; every track's spans, tracks in the given order (machine tracks
/// first); one `ThreadName` per lane in `(pid, tid)` order; utilization
/// counters in recorder key order; instants in collection order. Fault
/// instants go on the affected machine's `events` thread, recovery instants
/// on the owning job's `recovery` thread.
///
/// Tracks are drawn one at a time, so only one track's windows and lanes
/// are alive at once.
fn layout<'a>(
    jobs: &[JobReport],
    machines: impl IntoIterator<Item = usize>,
    tracks: impl IntoIterator<Item = Track<'a>>,
    traces: &TraceSet,
    instants: &[RunInstant],
) -> TraceDoc {
    let mut events = Vec::new();
    let mut process = |pid: u64, name: String, index: i64, thread: &str| {
        events.push(Event::ProcessName { pid, name });
        events.push(Event::ProcessSortIndex { pid, index });
        events.push(Event::ThreadName {
            pid,
            tid: EVENTS_TID,
            name: thread.into(),
        });
    };
    for m in machines {
        let pid = MACHINE_PID_BASE + m as u64;
        process(pid, format!("machine {m}"), m as i64, "events");
    }
    for (j, rep) in jobs.iter().enumerate() {
        let (pid, name) = (JOB_PID_BASE + j as u64, format!("job {j}: {}", rep.name));
        process(pid, name, 1_000_000 + j as i64, "recovery");
    }

    let mut lane_names: BTreeMap<(u64, u64), String> = BTreeMap::new();
    for t in tracks {
        let lanes = assign_lanes(&t.windows);
        for (k, (&(start, end), lane)) in t.windows.iter().zip(lanes).enumerate() {
            let tid = t.tid_base + lane as u64;
            lane_names
                .entry((t.pid, tid))
                .or_insert_with(|| format!("{} lane {lane}", t.label));
            let (name, cat, args) = (t.span)(k);
            events.push(Event::Span {
                pid: t.pid,
                tid,
                name,
                cat,
                ts_ns: start,
                dur_ns: end - start,
                args,
            });
        }
    }
    for ((pid, tid), name) in lane_names {
        events.push(Event::ThreadName { pid, tid, name });
    }

    for (&(machine, sel), rec) in traces.iter() {
        let pid = MACHINE_PID_BASE + machine.0 as u64;
        let name = sel_counter_name(sel);
        for &(t, v) in rec.points() {
            events.push(Event::Counter {
                pid,
                name: name.clone(),
                ts_ns: t.0,
                key: "util",
                value: v,
            });
        }
    }
    for inst in instants {
        let pid = match (inst.kind.job(), inst.kind.machine()) {
            (Some(j), _) => JOB_PID_BASE + j as u64,
            (None, Some(m)) => MACHINE_PID_BASE + m as u64,
            (None, None) => MACHINE_PID_BASE,
        };
        events.push(Event::Instant {
            pid,
            tid: EVENTS_TID,
            name: inst.kind.label().to_string(),
            ts_ns: inst.time.0,
            args: instant_args(&inst.kind),
        });
    }
    TraceDoc { events }
}

/// Builds the trace document for a monotasks run.
///
/// Machine processes carry one track per resource class of monotask spans
/// (the architecture attributes every span to exactly one resource — the
/// paper's clarity claim); job processes carry one track per stage with a
/// span per multitask, from its first monotask's start to its last one's
/// end.
pub fn mono_doc(out: &MonoRunOutput) -> TraceDoc {
    let recs: &[MonotaskRecord] = &out.records;
    let mut by_track: BTreeMap<(usize, u64, &'static str), Vec<usize>> = BTreeMap::new();
    let mut by_stage: BTreeMap<(u32, u32), BTreeMap<u32, TaskWindow>> = BTreeMap::new();
    for (i, r) in recs.iter().enumerate() {
        let (cat, tid_base) = class_of(r.resource);
        by_track
            .entry((r.machine, tid_base, cat))
            .or_default()
            .push(i);
        let mt = r.multitask;
        let w = by_stage
            .entry((mt.job.0, mt.stage.0))
            .or_default()
            .entry(mt.task.0)
            .or_insert((u64::MAX, 0, 0));
        w.0 = w.0.min(r.started.0);
        w.1 = w.1.max(r.ended.0);
        w.2 += 1;
    }

    let machines: BTreeSet<usize> = by_track.keys().map(|&(m, _, _)| m).collect();
    let machine_tracks = by_track
        .into_iter()
        .map(|((machine, tid_base, cat), idxs)| Track {
            pid: MACHINE_PID_BASE + machine as u64,
            tid_base,
            label: cat.into(),
            windows: idxs
                .iter()
                .map(|&i| (recs[i].started.0, recs[i].ended.0))
                .collect(),
            span: Box::new(move |k| {
                let r = &recs[idxs[k]];
                let mt = r.multitask;
                let name = format!(
                    "{} j{}s{}t{}",
                    purpose_label(r.purpose),
                    mt.job.0,
                    mt.stage.0,
                    mt.task.0
                );
                let args = vec![
                    ("bytes", Arg::F64(r.bytes)),
                    ("queue_s", Arg::F64(r.queue_secs())),
                ];
                (name, cat, args)
            }),
        });
    let stage_tracks = by_stage.into_iter().map(|((job, stage), tasks)| {
        let tasks: Vec<(u32, TaskWindow)> = tasks.into_iter().collect();
        Track {
            pid: JOB_PID_BASE + job as u64,
            tid_base: STAGE_TID_BASE * (stage as u64 + 1),
            label: format!("stage {stage}"),
            windows: tasks.iter().map(|&(_, (s, e, _))| (s, e)).collect(),
            span: Box::new(move |k| {
                let (task, (_, _, n)) = tasks[k];
                let args = vec![("monotasks", Arg::U64(n as u64))];
                (format!("task {task}"), "task", args)
            }),
        }
    });
    let tracks = machine_tracks.chain(stage_tracks);
    layout(&out.jobs, machines, tracks, &out.traces, &out.instants)
}

/// Builds the trace document for a Spark-like run.
///
/// The pipelined executor cannot attribute time to a single resource — each
/// task uses CPU, disk, and network concurrently (§2.1) — so each machine
/// process carries one undifferentiated `slot` track of task spans, and each
/// job process one track per stage, in record order. The contrast with
/// [`mono_doc`]'s per-resource tracks *is* the paper's figure 1.
pub fn spark_doc(out: &SparkRunOutput) -> TraceDoc {
    let records: &[TaskRecord] = &out.tasks;
    let mut by_machine: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut by_stage: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
    for (i, t) in records.iter().enumerate() {
        by_machine.entry(t.machine).or_default().push(i);
        by_stage.entry((t.job.0, t.stage.0)).or_default().push(i);
    }
    let track = |pid, tid_base, label, idxs: Vec<usize>, name: fn(&TaskRecord) -> String| Track {
        pid,
        tid_base,
        label,
        windows: idxs
            .iter()
            .map(|&i| (records[i].start.0, records[i].end.0))
            .collect(),
        span: Box::new(move |k| (name(&records[idxs[k]]), "task", vec![])),
    };
    let machines: Vec<usize> = by_machine.keys().copied().collect();
    let machine_tracks = by_machine.into_iter().map(|(machine, idxs)| {
        let pid = MACHINE_PID_BASE + machine as u64;
        track(pid, TASK_TID_BASE, "slot".into(), idxs, |t| {
            format!("task j{}s{}t{}", t.job.0, t.stage.0, t.task.0)
        })
    });
    let stage_tracks = by_stage.into_iter().map(|((job, stage), idxs)| {
        let pid = JOB_PID_BASE + job as u64;
        let tid_base = STAGE_TID_BASE * (stage as u64 + 1);
        track(pid, tid_base, format!("stage {stage}"), idxs, |t| {
            format!("task {}", t.task.0)
        })
    });
    let tracks = machine_tracks.chain(stage_tracks);
    layout(&out.jobs, machines, tracks, &out.traces, &out.instants)
}

/// Writes a built document to `path` as Chrome Trace Event JSON, creating
/// missing parent directories. Executors only collect; file I/O happens
/// here, after the run, never in the simulation loop.
pub fn write_doc(doc: &TraceDoc, path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc.to_json())
}
