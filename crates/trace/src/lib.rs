//! Performance-clarity trace layer (DESIGN.md §10).
//!
//! The paper's thesis is that the monotasks architecture makes performance
//! *visible*: per-resource monotask timings are "built into the framework's
//! execution model" (§6.5) rather than bolted on. This crate turns one run's
//! instrumentation — utilization traces, monotask (or task) records, and
//! the run's fault and recovery instants — into a deterministic
//! [Chrome Trace Event] JSON file that loads directly in [Perfetto]
//! (`ui.perfetto.dev` → *Open trace file*).
//!
//! The export is **observation-only**. The instants come from the job/stage
//! runtime's ledger (`dataflow::runtime::Runtime::record`), which logs them
//! only when `RuntimeConfig::trace` is set; both executors set it from
//! [`trace_path`]`.is_some()`. No executor writes the file: [`mono_doc`] or
//! [`spark_doc`] builds the document after the run and [`write_doc`] writes
//! it. A trace-off run is bit-identical to the pre-trace code, and a
//! trace-on run differs only in what it remembers, not in what it does.
//!
//! Track layout (one layout function serves both executors; they differ
//! only in which spans share a track):
//!
//! * one *process* per machine, holding per-resource utilization **counter**
//!   tracks (`cpu util`, `disk0 util`, `net util`), per-resource monotask
//!   **span** lanes (monotasks on one resource overlap — eight cores serve
//!   eight compute monotasks — so spans are greedily packed into
//!   non-overlapping lanes; a Spark-like run has one set of `slot` lanes
//!   of task spans instead), and an `events` track of fault instants;
//! * one *process* per job, holding per-stage task-span lanes and a
//!   `recovery` track of retry/speculation/invalidation instants.
//!
//! Everything is serialized with a fixed field order, nanosecond-exact
//! timestamps (`µs.nnn` strings built from integer arithmetic), and
//! non-integral `f64` values printed by Rust's deterministic
//! shortest-round-trip formatter, so identical runs produce byte-identical
//! files — which the golden-trace snapshot tests assert.
//!
//! [Chrome Trace Event]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev
//! [`trace_path`]: monotasks_core::MonoConfig

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod collect;

pub use chrome::{validate_chrome_json, Arg, Event, TraceDoc, ValidateStats};
pub use collect::{mono_doc, spark_doc, write_doc, TraceSummary};
