//! Host-time spans around the benchmark's calls into each crate.
//!
//! Every call the benchmark makes into a simulator crate goes through
//! [`Tracer::begin`]/[`Tracer::end`], which always return the elapsed host
//! seconds (the end-to-end metrics need them). Only a traced run also keeps
//! the spans — name, start, end and parent — in memory, and writes them at
//! exit as Chrome Trace Event JSON built from `mt_trace`'s own types, so the
//! benchmark's timeline opens in ui.perfetto.dev next to the simulated
//! cluster's traces.

use std::time::Instant;

use mt_trace::{Arg, Event, TraceDoc};

/// Chrome trace process id of the benchmark's host timeline.
const PID: u64 = 1;
/// Chrome trace thread id: the benchmark is single-threaded.
const TID: u64 = 1;

/// One finished span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    args: Vec<(&'static str, Arg)>,
}

/// Handle of an open span.
#[must_use = "a span must be ended"]
pub struct Open {
    index: usize,
    start: Instant,
}

/// Span recorder. With `keep` off it only measures.
pub struct Tracer {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose time origin is now.
    pub fn new(keep: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            keep,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span named `layer.call` nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.spans.len();
        if self.keep {
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                args: Vec::new(),
            });
            self.stack.push(index);
        }
        Open { index, start }
    }

    /// Closes `open`, returning its duration in host seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        self.end_with(open, Vec::new())
    }

    /// Closes `open` and attaches `args` to the kept span.
    pub fn end_with(&mut self, open: Open, args: Vec<(&'static str, Arg)>) -> f64 {
        let now = Instant::now();
        if self.keep {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(open.index), "spans must close innermost first");
            let span = &mut self.spans[open.index];
            span.end_ns = (now - self.origin).as_nanos() as u64;
            span.args = args;
        }
        (now - open.start).as_secs_f64()
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// The kept spans as a Chrome trace: a `perfbench` process with one host
    /// thread, each span carrying its id and its parent's id and name.
    pub fn to_doc(&self, process: &str) -> TraceDoc {
        let mut events = vec![
            Event::ProcessName {
                pid: PID,
                name: process.to_string(),
            },
            Event::ThreadName {
                pid: PID,
                tid: TID,
                name: "host".into(),
            },
        ];
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![("id", Arg::U64(id as u64))];
            if let Some(p) = s.parent {
                args.push(("parent_id", Arg::U64(p as u64)));
                args.push(("parent", Arg::Str(self.spans[p].name.to_string())));
            }
            args.extend(s.args.iter().cloned());
            events.push(Event::Span {
                pid: PID,
                tid: TID,
                name: s.name.to_string(),
                cat: s.name.split('.').next().unwrap_or("bench"),
                ts_ns: s.start_ns,
                dur_ns: s.end_ns.saturating_sub(s.start_ns),
                args,
            });
        }
        TraceDoc { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kept_spans_nest_and_validate() {
        let mut t = Tracer::new(true);
        let outer = t.begin("bench.iteration");
        let ((), inner) = t.time("core.run", || ());
        let total = t.end(outer);
        assert!(inner <= total);
        let json = t.to_doc("perfbench test").to_json();
        let stats = mt_trace::validate_chrome_json(&json).expect("valid chrome json");
        assert_eq!(stats.spans, 2);
        assert!(json.contains("\"parent\":\"bench.iteration\""));
    }

    #[test]
    fn untraced_runs_still_measure() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("core.run", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        // Only the process and thread names: no spans kept.
        assert_eq!(t.to_doc("untraced").events.len(), 2);
    }
}
