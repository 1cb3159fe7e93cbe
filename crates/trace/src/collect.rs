//! Builds [`TraceDoc`]s from executor outputs and writes them to disk.
//!
//! Both builders only group their run's spans into tracks; one layout
//! function turns the tracks, utilization recorders and instants into the
//! document. It walks everything in a fixed order (spans in record order,
//! tracks by process and tid base, recorders in `(machine, resource)` order,
//! instants in collection order), so the same run output always yields the
//! same document and therefore — via [`TraceDoc::to_json`] — the same bytes.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use cluster::{InstantKind, ResourceSel, RunInstant, TraceSet};
use dataflow::JobReport;
use monotasks_core::{MonoRunOutput, MonotaskRecord, Purpose};
use simcore::ResourceKind;
use sparklike::{SparkRunOutput, TaskRecord};

use crate::chrome::{assign_lanes, u64_into, Arg, Event, TraceDoc};

/// Machine processes get pids `100 + machine`; the sort index keeps them in
/// machine order above the job processes.
const MACHINE_PID_BASE: u64 = 100;
/// Job processes get pids `100_000 + job`.
const JOB_PID_BASE: u64 = 100_000;
/// Per-machine `events` track (fault instants).
const EVENTS_TID: u64 = 1;
/// Each resource class's span category and lane tid base within a machine
/// process, indexed by [`class_index`].
const CLASSES: [(&str, u64); 3] = [("cpu", 100), ("disk", 300), ("net", 600)];
/// Spark task-span lanes within a machine process.
const TASK_TID_BASE: u64 = 100;
/// Stage track tids within a job process: `STAGE_TID_BASE * (stage+1) + lane`
/// while every earlier stage's lanes fit below that base.
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

fn class_index(r: ResourceKind) -> usize {
    match r {
        ResourceKind::Cpu => 0,
        ResourceKind::Disk => 1,
        ResourceKind::Network => 2,
    }
}

/// `label` followed by each `(separator, id)` pair. Span names are the
/// document's most numerous strings, so each is written without the
/// formatting machinery into an allocation of exactly its length.
fn span_name(label: &str, ids: &[(&str, u32)]) -> String {
    let digits = |id: u32| id.checked_ilog10().map_or(1, |d| d as usize + 1);
    let len: usize = ids.iter().map(|&(sep, id)| sep.len() + digits(id)).sum();
    let mut name = String::with_capacity(label.len() + len);
    name.push_str(label);
    for &(sep, id) in ids {
        name.push_str(sep);
        u64_into(&mut name, u64::from(id));
    }
    name
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
/// `base + n` of process `pid`, lane `n` named `"{label} lane {n}"`. `base`
/// is `tid_base`, or the first tid past the lanes of the process's earlier
/// tracks if they reach it.
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
/// are alive at once. No two tracks share a tid: a track whose process's
/// earlier lanes reach past its tid base starts after them instead.
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
    // The first tid past each process's lanes so far.
    let mut next_tid: BTreeMap<u64, u64> = BTreeMap::new();
    for t in tracks {
        let lanes = assign_lanes(&t.windows);
        let count = lanes.iter().max().map_or(0, |&l| l as u64 + 1);
        let next = next_tid.entry(t.pid).or_insert(0);
        let base = t.tid_base.max(*next);
        *next = base + count;
        for lane in 0..count {
            lane_names.insert((t.pid, base + lane), format!("{} lane {lane}", t.label));
        }
        for (k, (&(start, end), lane)) in t.windows.iter().zip(lanes).enumerate() {
            let (name, cat, args) = (t.span)(k);
            events.push(Event::Span {
                pid: t.pid,
                tid: base + lane as u64,
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
    // Per machine, each resource class's records; per stage, each task's
    // window, indexed by task id (a task with no monotask has count 0).
    let mut by_machine: Vec<[Vec<usize>; 3]> = Vec::new();
    let mut by_stage: BTreeMap<(u32, u32), Vec<TaskWindow>> = BTreeMap::new();
    for (i, r) in recs.iter().enumerate() {
        if by_machine.len() <= r.machine {
            by_machine.resize_with(r.machine + 1, Default::default);
        }
        by_machine[r.machine][class_index(r.resource)].push(i);
        let mt = r.multitask;
        let tasks = by_stage.entry((mt.job.0, mt.stage.0)).or_default();
        let task = mt.task.0 as usize;
        if tasks.len() <= task {
            tasks.resize(task + 1, (u64::MAX, 0, 0));
        }
        let w = &mut tasks[task];
        w.0 = w.0.min(r.started.0);
        w.1 = w.1.max(r.ended.0);
        w.2 += 1;
    }

    let machines: Vec<usize> = (0..by_machine.len())
        .filter(|&m| by_machine[m].iter().any(|idxs| !idxs.is_empty()))
        .collect();
    let machine_tracks = by_machine
        .into_iter()
        .enumerate()
        .flat_map(|(machine, classes)| {
            classes
                .into_iter()
                .zip(CLASSES)
                .filter(|(idxs, _)| !idxs.is_empty())
                .map(move |(idxs, (cat, tid_base))| Track {
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
                        let ids = [(" j", mt.job.0), ("s", mt.stage.0), ("t", mt.task.0)];
                        let args = vec![
                            ("bytes", Arg::F64(r.bytes)),
                            ("queue_s", Arg::F64(r.queue_secs())),
                        ];
                        (span_name(purpose_label(r.purpose), &ids), cat, args)
                    }),
                })
        });
    let stage_tracks = by_stage.into_iter().map(|((job, stage), tasks)| {
        let tasks: Vec<(u32, TaskWindow)> =
            (0..).zip(tasks).filter(|&(_, (_, _, n))| n > 0).collect();
        Track {
            pid: JOB_PID_BASE + job as u64,
            tid_base: STAGE_TID_BASE * (stage as u64 + 1),
            label: format!("stage {stage}"),
            windows: tasks.iter().map(|&(_, (s, e, _))| (s, e)).collect(),
            span: Box::new(move |k| {
                let (task, (_, _, n)) = tasks[k];
                let args = vec![("monotasks", Arg::U64(n as u64))];
                (span_name("task", &[(" ", task)]), "task", args)
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
            span_name(
                "task",
                &[(" j", t.job.0), ("s", t.stage.0), ("t", t.task.0)],
            )
        })
    });
    let stage_tracks = by_stage.into_iter().map(|((job, stage), idxs)| {
        let pid = JOB_PID_BASE + job as u64;
        let tid_base = STAGE_TID_BASE * (stage as u64 + 1);
        track(pid, tid_base, format!("stage {stage}"), idxs, |t| {
            span_name("task", &[(" ", t.task.0)])
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

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::{JobId, StageId, TaskId};
    use simcore::{SimStats, SimTime};

    /// A stage with more concurrent tasks than the 1000 tids between two
    /// stage bases. Its lanes reach past the next stage's base, so the next
    /// stage starts after them; no tid carries spans of two stages.
    #[test]
    fn a_stage_wider_than_the_tid_stride_pushes_the_next_stage_up() {
        let (early, late) = (SimTime::from_secs(0), SimTime::from_secs(10));
        let task = |stage: u32, task: u32, start: SimTime, end: SimTime| TaskRecord {
            job: JobId(0),
            stage: StageId(stage),
            task: TaskId(task),
            machine: task as usize % 150,
            start,
            end,
        };
        // 1200 concurrent tasks in stage 0, then 3 in stage 1.
        let mut tasks: Vec<TaskRecord> = (0..1200).map(|t| task(0, t, early, late)).collect();
        tasks.extend((0..3).map(|t| task(1, t, late, SimTime::from_secs(20))));
        let out = SparkRunOutput {
            jobs: vec![JobReport {
                job: JobId(0),
                name: "wide".into(),
                start: early,
                end: SimTime::from_secs(20),
                stages: Vec::new(),
                recovery: Default::default(),
            }],
            tasks,
            traces: TraceSet::new(),
            makespan: SimTime::from_secs(20),
            stats: SimStats::default(),
            instants: Vec::new(),
        };
        let doc = spark_doc(&out);

        let mut labels: BTreeMap<(u64, u64), Vec<&str>> = BTreeMap::new();
        for e in &doc.events {
            if let Event::ThreadName { pid, tid, name } = e {
                labels.entry((*pid, *tid)).or_default().push(name);
            }
        }
        assert!(labels.values().all(|l| l.len() == 1), "a tid named twice");
        let named = |pid: u64, tid: u64| labels[&(pid, tid)][0];
        let first = labels.iter().find(|(_, l)| l[0] == "stage 1 lane 0");
        assert_eq!(first.map(|(k, _)| *k), Some((JOB_PID_BASE, 2_200)));
        // Every job-process span sits on a lane of its own stage: stage 0's
        // spans start at 0 s, stage 1's at 10 s.
        for e in &doc.events {
            if let Event::Span {
                pid, tid, ts_ns, ..
            } = e
            {
                if *pid == JOB_PID_BASE {
                    let stage = if *ts_ns == early.0 {
                        "stage 0 "
                    } else {
                        "stage 1 "
                    };
                    assert!(named(*pid, *tid).starts_with(stage), "tid {tid}");
                }
            }
        }
    }
}
