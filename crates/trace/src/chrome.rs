//! Chrome Trace Event JSON: typed event model, deterministic serializer,
//! lane packing, and a dependency-free validator.
//!
//! Only the event phases Perfetto needs are modelled: `M` metadata (process
//! and thread names, sort indices), `X` complete spans, `i` instants, and `C`
//! counters. Serialization is hand-rolled (the workspace vendors no JSON
//! library) with a fixed field order per phase. A small digit writer prints
//! integers, timestamps and integral floats: timestamps are microsecond
//! strings with exactly three fractional digits built from integer
//! nanosecond arithmetic, so no float rounding can perturb the bytes. Other
//! floats go through Rust's `Display`; a small memo copies the text of a
//! recently formatted value instead of formatting it again. Strings are
//! copied as they are unless they hold a `"`, a `\` or a control character.
//!
//! The validator checks the whole JSON grammar in one pass and borrows each
//! string body in place; it resolves escapes only to report an unknown
//! phase.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;

/// One argument value in an event's `args` object.
#[derive(Clone, Debug, PartialEq)]
pub enum Arg {
    /// A float, printed with Rust's shortest-round-trip formatter.
    F64(f64),
    /// An unsigned integer.
    U64(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
}

/// One trace event, in the subset of the Chrome Trace Event format the
/// exporter emits.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// `process_name` metadata.
    ProcessName {
        /// Process id.
        pid: u64,
        /// Display name.
        name: String,
    },
    /// `process_sort_index` metadata: orders processes in the UI.
    ProcessSortIndex {
        /// Process id.
        pid: u64,
        /// Sort key (ascending).
        index: i64,
    },
    /// `thread_name` metadata.
    ThreadName {
        /// Owning process.
        pid: u64,
        /// Thread id.
        tid: u64,
        /// Display name.
        name: String,
    },
    /// A complete span (`ph:"X"`).
    Span {
        /// Owning process.
        pid: u64,
        /// Track (lane) within the process.
        tid: u64,
        /// Span name.
        name: String,
        /// Category — the resource class (`"cpu"`/`"disk"`/`"net"`) for
        /// monotask spans, `"task"` for pipelined task spans.
        cat: &'static str,
        /// Start, nanoseconds.
        ts_ns: u64,
        /// Duration, nanoseconds.
        dur_ns: u64,
        /// Arguments, serialized in the given order.
        args: Vec<(&'static str, Arg)>,
    },
    /// An instant marker (`ph:"i"`, process scope).
    Instant {
        /// Owning process.
        pid: u64,
        /// Track within the process.
        tid: u64,
        /// Marker name (a stable [`cluster::InstantKind::label`] string).
        name: String,
        /// Time, nanoseconds.
        ts_ns: u64,
        /// Arguments, serialized in the given order.
        args: Vec<(&'static str, Arg)>,
    },
    /// One sample of a counter track (`ph:"C"`).
    Counter {
        /// Owning process.
        pid: u64,
        /// Counter track name (e.g. `"cpu util"`).
        name: String,
        /// Time, nanoseconds.
        ts_ns: u64,
        /// Series key within the counter (constant per track here).
        key: &'static str,
        /// Sample value.
        value: f64,
    },
}

/// A whole trace: an ordered list of events, serializable to a
/// Perfetto-loadable JSON object.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceDoc {
    /// Events, in emission order (metadata first by convention).
    pub events: Vec<Event>,
}

/// Writes a string as a JSON string body. Strings with nothing to escape,
/// as the layout's own names are, are copied as they are.
fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Writes the decimal digits of `v` so that they end just before
/// `buf[end]`; returns the index of the first digit.
fn digits(buf: &mut [u8], end: usize, mut v: u64) -> usize {
    let mut i = end;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return i;
        }
    }
}

/// Appends the decimal digits of `v`.
pub(crate) fn u64_into(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let i = digits(&mut buf, 20, v);
    out.push_str(ascii(&buf[i..]));
}

fn i64_into(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    u64_into(out, v.unsigned_abs());
}

fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("ASCII number")
}

/// Writes a nanosecond time as a microsecond JSON number with exactly three
/// fractional digits (`1234.567`). Integer arithmetic only: byte-stable.
fn ts_into(out: &mut String, ns: u64) {
    let mut buf = [0u8; 24];
    let frac = ns % 1_000;
    buf[20] = b'.';
    buf[21] = b'0' + (frac / 100) as u8;
    buf[22] = b'0' + (frac / 10 % 10) as u8;
    buf[23] = b'0' + (frac % 10) as u8;
    let i = digits(&mut buf, 20, ns / 1_000);
    out.push_str(ascii(&buf[i..]));
}

/// Writes an f64 as a JSON number. Integral values below 1e15 print as
/// `12.0` (JSON readers are happier with the fraction, and the bytes do not
/// depend on a formatter version); every other value goes through Rust's
/// `Display`, the deterministic shortest round-trip representation. JSON
/// cannot represent non-finite values, which the simulator never produces
/// (debug-asserted at recording time).
fn f64_into(out: &mut String, memo: &mut FloatMemo, v: f64) {
    debug_assert!(v.is_finite(), "non-finite value in trace");
    if v == v.trunc() && v.abs() < 1e15 {
        if v.is_sign_negative() {
            out.push('-');
        }
        u64_into(out, v.abs() as u64);
        out.push_str(".0");
    } else {
        memo.display_into(out, v);
    }
}

/// `log2` of the number of [`FloatMemo`] slots.
const MEMO_BITS: u32 = 12;

/// The `Display` text of recently written floats, one per slot, in slots
/// picked by a hash of the bit pattern. A document repeats few distinct
/// values many times (a stage's monotasks move equal byte counts), and
/// copying a remembered text costs far less than formatting it again.
struct FloatMemo {
    /// `(bits, len, text)`. Bits 0 (`+0.0`, which [`f64_into`] never
    /// formats) mark an empty slot; texts longer than 23 bytes are not kept.
    slots: Vec<(u64, u8, [u8; 23])>,
}

impl FloatMemo {
    fn new() -> FloatMemo {
        FloatMemo {
            slots: vec![(0, 0, [0; 23]); 1 << MEMO_BITS],
        }
    }

    fn display_into(&mut self, out: &mut String, v: f64) {
        let bits = v.to_bits();
        let hash = bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_BITS);
        let (key, len, text) = &mut self.slots[hash as usize];
        if *key == bits {
            out.push_str(ascii(&text[..usize::from(*len)]));
            return;
        }
        let start = out.len();
        let _ = write!(out, "{v}");
        let new = &out.as_bytes()[start..];
        if new.len() <= text.len() {
            text[..new.len()].copy_from_slice(new);
            (*key, *len) = (bits, new.len() as u8);
        }
    }
}

fn args_into(out: &mut String, memo: &mut FloatMemo, args: &[(&'static str, Arg)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(k);
        out.push_str("\":");
        match v {
            Arg::F64(x) => f64_into(out, memo, *x),
            Arg::U64(x) => u64_into(out, *x),
            Arg::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Arg::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// Writes an event's opening `prefix` (`{"ph":"X"` and any field before the
/// pid), then `,"pid":<pid>` and, if given, `,"tid":<tid>`.
fn head_into(out: &mut String, prefix: &str, pid: u64, tid: Option<u64>) {
    out.push_str(prefix);
    out.push_str(",\"pid\":");
    u64_into(out, pid);
    if let Some(tid) = tid {
        out.push_str(",\"tid\":");
        u64_into(out, tid);
    }
}

impl Event {
    fn write_into(&self, out: &mut String, memo: &mut FloatMemo) {
        match self {
            Event::ProcessName { pid, name } => {
                head_into(out, "{\"ph\":\"M\"", *pid, None);
                out.push_str(",\"name\":\"process_name\",\"args\":{\"name\":\"");
                escape_into(out, name);
                out.push_str("\"}}");
            }
            Event::ProcessSortIndex { pid, index } => {
                head_into(out, "{\"ph\":\"M\"", *pid, None);
                out.push_str(",\"name\":\"process_sort_index\",\"args\":{\"sort_index\":");
                i64_into(out, *index);
                out.push_str("}}");
            }
            Event::ThreadName { pid, tid, name } => {
                head_into(out, "{\"ph\":\"M\"", *pid, Some(*tid));
                out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
                escape_into(out, name);
                out.push_str("\"}}");
            }
            Event::Span {
                pid,
                tid,
                name,
                cat,
                ts_ns,
                dur_ns,
                args,
            } => {
                head_into(out, "{\"ph\":\"X\"", *pid, Some(*tid));
                out.push_str(",\"name\":\"");
                escape_into(out, name);
                out.push_str("\",\"cat\":\"");
                out.push_str(cat);
                out.push_str("\",\"ts\":");
                ts_into(out, *ts_ns);
                out.push_str(",\"dur\":");
                ts_into(out, *dur_ns);
                out.push_str(",\"args\":");
                args_into(out, memo, args);
                out.push('}');
            }
            Event::Instant {
                pid,
                tid,
                name,
                ts_ns,
                args,
            } => {
                head_into(out, "{\"ph\":\"i\",\"s\":\"p\"", *pid, Some(*tid));
                out.push_str(",\"name\":\"");
                escape_into(out, name);
                out.push_str("\",\"ts\":");
                ts_into(out, *ts_ns);
                out.push_str(",\"args\":");
                args_into(out, memo, args);
                out.push('}');
            }
            Event::Counter {
                pid,
                name,
                ts_ns,
                key,
                value,
            } => {
                head_into(out, "{\"ph\":\"C\"", *pid, None);
                out.push_str(",\"name\":\"");
                escape_into(out, name);
                out.push_str("\",\"ts\":");
                ts_into(out, *ts_ns);
                out.push_str(",\"args\":{\"");
                out.push_str(key);
                out.push_str("\":");
                f64_into(out, memo, *value);
                out.push_str("}}");
            }
        }
    }
}

impl TraceDoc {
    /// Serializes to a Chrome Trace Event JSON object, one event per line.
    ///
    /// Byte-deterministic: identical docs produce identical strings.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 32);
        let mut memo = FloatMemo::new();
        out.push_str("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            e.write_into(&mut out, &mut memo);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Greedily packs half-open spans `[start, end)` into the fewest lanes such
/// that no lane holds two overlapping spans; returns each span's lane.
///
/// Spans are placed in `(start, end, index)` order into the lowest-numbered
/// lane whose previous occupant has ended — the classic interval-partitioning
/// greedy, which is optimal and, being fully ordered, deterministic.
/// Zero-length spans never conflict. Starts only grow, so a lane that has
/// ended stays free until a span takes it: two heaps (running lanes by end,
/// free lanes by number) find each lane in logarithmic time.
pub fn assign_lanes(spans: &[(u64, u64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_unstable_by_key(|&i| (spans[i].0, spans[i].1, i));
    let mut running: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut free: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    let mut lanes = vec![0usize; spans.len()];
    for &i in &order {
        let (s, e) = spans[i];
        debug_assert!(s <= e, "span ends before it starts");
        while let Some(&Reverse((end, lane))) = running.peek() {
            if end > s {
                break;
            }
            running.pop();
            free.push(Reverse(lane));
        }
        let lane = match free.pop() {
            Some(Reverse(lane)) => lane,
            None => running.len(),
        };
        running.push(Reverse((e, lane)));
        lanes[i] = lane;
    }
    lanes
}

/// Counts of each event phase found by [`validate_chrome_json`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidateStats {
    /// `ph:"M"` metadata events.
    pub metas: usize,
    /// `ph:"X"` complete spans.
    pub spans: usize,
    /// `ph:"i"` instants.
    pub instants: usize,
    /// `ph:"C"` counter samples.
    pub counters: usize,
}

/// Validates that `s` is a syntactically well-formed JSON document of the
/// shape `{"traceEvents": [ ... ]}` and tallies event phases.
///
/// This is a full JSON syntax check (strings, escapes, numbers, nesting up
/// to 64 levels) in one pass of a small recursive-descent parser — no
/// third-party dependency — so CI can assert a generated trace will load
/// before anyone opens it in Perfetto. It allocates nothing on success:
/// string bodies are borrowed byte slices, and escapes are resolved only to
/// report an unknown phase.
pub fn validate_chrome_json(s: &str) -> Result<ValidateStats, String> {
    let b = s.as_bytes();
    let mut p = Parser {
        b,
        i: 0,
        depth: 0,
        stats: ValidateStats::default(),
    };
    p.skip_ws();
    if !s.trim_start().starts_with("{\"traceEvents\"") {
        return Err("document must start with {\"traceEvents\"".into());
    }
    p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(p.stats)
}

/// A string body as the phase error reports it: `\x` stands for `x` and
/// `\uXXXX` for `?`. The body was validated, so every escape is complete.
fn unescape(body: &[u8]) -> String {
    let s = std::str::from_utf8(body).expect("a string body of a &str is UTF-8");
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('u') => {
                    chars.nth(3);
                    out.push('?');
                }
                Some(e) => out.push(e),
                None => {}
            },
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
    stats: ValidateStats,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        self.i += self.b[self.i..]
            .iter()
            .take_while(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|x| x as char)
            ))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > 64 {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        let r = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at offset {}",
                other.map(|x| x as char),
                self.i
            )),
        };
        self.depth -= 1;
        r
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            // Tally the phase of each event object on its "ph" key. No
            // escape stands for a 'p', an 'h' or a phase letter, so the raw
            // bodies compare as the resolved strings would.
            if key == b"ph" {
                match self.string()? {
                    b"M" => self.stats.metas += 1,
                    b"X" => self.stats.spans += 1,
                    b"i" => self.stats.instants += 1,
                    b"C" => self.stats.counters += 1,
                    other => return Err(format!("unknown phase {:?}", unescape(other))),
                }
            } else {
                self.value()?;
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at offset {}, found {:?}",
                        self.i,
                        other.map(|x| x as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at offset {}, found {:?}",
                        self.i,
                        other.map(|x| x as char)
                    ))
                }
            }
        }
    }

    /// Checks a string and returns its body between the quotes, escapes
    /// unresolved.
    fn string(&mut self) -> Result<&'a [u8], String> {
        self.expect(b'"')?;
        let start = self.i;
        loop {
            // Skip to the next quote, backslash or control byte; no byte of
            // a multi-byte UTF-8 scalar is one of those.
            let rest = &self.b[self.i..];
            self.i += rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(rest.len());
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(&self.b[start..self.i - 1]);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.i += 1,
                                    _ => return Err("bad \\u escape".into()),
                                }
                            }
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|x| x as char))),
                    }
                }
                Some(_) => return Err("raw control char in string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if !self.digits() {
            return Err(format!("bad number at offset {}", start));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !self.digits() {
                return Err(format!("bad fraction at offset {}", start));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !self.digits() {
                return Err(format!("bad exponent at offset {}", start));
            }
        }
        Ok(())
    }

    /// Skips a run of ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let n = self.b[self.i..]
            .iter()
            .take_while(|c| c.is_ascii_digit())
            .count();
        self.i += n;
        n > 0
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `write!`-based serializer the digit writer replaced, kept as the
    /// oracle its output must match byte for byte.
    mod reference {
        use super::super::{Arg, Event};
        use std::fmt::Write as _;

        fn escape_into(out: &mut String, s: &str) {
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
        }

        fn ts_into(out: &mut String, ns: u64) {
            let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
        }

        fn f64_into(out: &mut String, v: f64) {
            if v == v.trunc() && v.abs() < 1e15 {
                let _ = write!(out, "{:.1}", v);
            } else {
                let _ = write!(out, "{}", v);
            }
        }

        fn args_into(out: &mut String, args: &[(&'static str, Arg)]) {
            out.push('{');
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(k);
                out.push_str("\":");
                match v {
                    Arg::F64(x) => f64_into(out, *x),
                    Arg::U64(x) => {
                        let _ = write!(out, "{}", x);
                    }
                    Arg::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                    Arg::Str(s) => {
                        out.push('"');
                        escape_into(out, s);
                        out.push('"');
                    }
                }
            }
            out.push('}');
        }

        pub fn write_into(e: &Event, out: &mut String) {
            match e {
                Event::ProcessName { pid, name } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\""
                    );
                    escape_into(out, name);
                    out.push_str("\"}}");
                }
                Event::ProcessSortIndex { pid, index } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_sort_index\",\"args\":{{\"sort_index\":{index}}}}}"
                    );
                }
                Event::ThreadName { pid, tid, name } => {
                    let _ = write!(out, "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"");
                    escape_into(out, name);
                    out.push_str("\"}}");
                }
                Event::Span {
                    pid,
                    tid,
                    name,
                    cat,
                    ts_ns,
                    dur_ns,
                    args,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\""
                    );
                    escape_into(out, name);
                    out.push_str("\",\"cat\":\"");
                    out.push_str(cat);
                    out.push_str("\",\"ts\":");
                    ts_into(out, *ts_ns);
                    out.push_str(",\"dur\":");
                    ts_into(out, *dur_ns);
                    out.push_str(",\"args\":");
                    args_into(out, args);
                    out.push('}');
                }
                Event::Instant {
                    pid,
                    tid,
                    name,
                    ts_ns,
                    args,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"s\":\"p\",\"pid\":{pid},\"tid\":{tid},\"name\":\""
                    );
                    escape_into(out, name);
                    out.push_str("\",\"ts\":");
                    ts_into(out, *ts_ns);
                    out.push_str(",\"args\":");
                    args_into(out, args);
                    out.push('}');
                }
                Event::Counter {
                    pid,
                    name,
                    ts_ns,
                    key,
                    value,
                } => {
                    let _ = write!(out, "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"");
                    escape_into(out, name);
                    out.push_str("\",\"ts\":");
                    ts_into(out, *ts_ns);
                    out.push_str(",\"args\":{\"");
                    out.push_str(key);
                    out.push_str("\":");
                    f64_into(out, *value);
                    out.push_str("}}");
                }
            }
        }
    }

    /// A seeded SplitMix64 stream: the workspace's property tests draw from
    /// the `proptest` shim, which this crate does not depend on.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }

        /// Integers at every digit-count boundary, the extremes, and
        /// uniform draws over the whole range and over small values.
        fn int(&mut self) -> u64 {
            match self.below(4) {
                0 => {
                    let p = 10u64.pow(self.below(20) as u32);
                    p - self.below(2)
                }
                1 => self.pick(&[0, 1, 9, u64::MAX, u64::MAX - 1, u64::MAX / 1_000]),
                2 => self.below(100_000),
                _ => self.next(),
            }
        }

        /// Nanosecond times whose sub-microsecond part hits each digit
        /// width and the `u8` boundary.
        fn ns(&mut self) -> u64 {
            let any = self.below(1_000);
            let frac = self.pick(&[0, 7, 255, 256, 999, any]);
            match self.below(3) {
                0 => u64::MAX - self.below(1_000),
                1 => self.below(u64::MAX / 1_000) * 1_000 + frac,
                _ => self.below(10_000_000) * 1_000 + frac,
            }
        }

        fn float(&mut self) -> f64 {
            let two53 = (1u64 << 53) as f64;
            let v = match self.below(6) {
                0 => self.pick(&[
                    0.0,
                    -0.0,
                    1e15 - 1.0,
                    1e15,
                    1e15 + 1.0,
                    two53,
                    two53 + 2.0,
                    f64::MAX,
                    f64::MIN_POSITIVE,
                    f64::MIN_POSITIVE / 3.0,
                    5e-324,
                    0.1,
                    1.0 / 3.0,
                ]),
                1 => self.below(1 << 53) as f64,
                2 => (self.below(1_000_000) as f64) * 1e9 + (self.below(3) as f64),
                3 => f64::from_bits(self.next() & !(0x7ffu64 << 52)),
                4 => self.below(1 << 40) as f64 / (1 + self.below(1_000)) as f64,
                _ => f64::from_bits(self.next()),
            };
            let v = if v.is_finite() { v } else { 1.5 };
            if self.below(2) == 0 {
                -v
            } else {
                v
            }
        }

        fn name(&mut self) -> String {
            let parts = [
                "",
                "machine 0",
                "task j0s1t2",
                "\"",
                "\\",
                "\n",
                "\r",
                "\t",
                "\u{1}",
                "\u{1f}",
                "\u{7f}",
                "/",
                "\u{e9}",
                "\u{65e5}\u{672c}",
                "\u{1f680}",
                "lane ",
            ];
            (0..self.below(5)).map(|_| self.pick(&parts)).collect()
        }

        fn args(&mut self) -> Vec<(&'static str, Arg)> {
            (0..self.below(4))
                .map(|_| {
                    let key = self.pick(&["bytes", "queue_s", "machine", "factor", "recompute"]);
                    let arg = match self.below(4) {
                        0 => Arg::F64(self.float()),
                        1 => Arg::U64(self.int()),
                        2 => Arg::Bool(self.below(2) == 0),
                        _ => Arg::Str(self.name()),
                    };
                    (key, arg)
                })
                .collect()
        }

        fn event(&mut self) -> Event {
            let (pid, tid) = (self.int(), self.int());
            match self.below(6) {
                0 => Event::ProcessName {
                    pid,
                    name: self.name(),
                },
                1 => {
                    let any = self.int() as i64;
                    Event::ProcessSortIndex {
                        pid,
                        index: self.pick(&[i64::MIN, -1, 0, i64::MAX, any]),
                    }
                }
                2 => Event::ThreadName {
                    pid,
                    tid,
                    name: self.name(),
                },
                3 => Event::Span {
                    pid,
                    tid,
                    name: self.name(),
                    cat: self.pick(&["cpu", "disk", "net", "task"]),
                    ts_ns: self.ns(),
                    dur_ns: self.ns(),
                    args: self.args(),
                },
                4 => Event::Instant {
                    pid,
                    tid,
                    name: self.name(),
                    ts_ns: self.ns(),
                    args: self.args(),
                },
                _ => Event::Counter {
                    pid,
                    name: self.name(),
                    ts_ns: self.ns(),
                    key: "util",
                    value: self.float(),
                },
            }
        }
    }

    /// The digit writer and the escape fast path write exactly the bytes of
    /// the `write!`-based serializer, on random events that reach every
    /// integer width, every sub-microsecond digit, floats on both sides of
    /// the integral cut-off, and names that need escaping.
    #[test]
    fn serializer_matches_the_reference_writer() {
        let mut draw = Draw(0x6d6f_6e6f);
        let mut doc = TraceDoc::default();
        let mut memo = FloatMemo::new();
        for _ in 0..20_000 {
            let e = draw.event();
            let (mut got, mut want) = (String::new(), String::new());
            e.write_into(&mut got, &mut memo);
            reference::write_into(&e, &mut want);
            assert_eq!(got, want, "{e:?}");
            doc.events.push(e);
        }
        let json = doc.to_json();
        validate_chrome_json(&json).expect("random events serialize to valid JSON");
    }

    /// Every branch of the validator, with the results of the allocating
    /// parser it replaced: the same inputs pass and fail, with the same
    /// messages and the same phase tallies (`[metas, spans, instants,
    /// counters]`).
    #[test]
    fn validator_keeps_its_verdicts() {
        let table: &[(&str, Result<[usize; 4], &str>)] = &[
            // Strings.
            ("{\"traceEvents\":[{\"name\":\"abc", Err("unterminated string")),
            ("{\"traceEvents\":[{\"name\":\"a\\qb\"}]}", Err("bad escape Some('q')")),
            ("{\"traceEvents\":[{\"name\":\"a\\", Err("bad escape None")),
            ("{\"traceEvents\":[{\"name\":\"\\u12G4\"}]}", Err("bad \\u escape")),
            ("{\"traceEvents\":[{\"name\":\"\\u12", Err("bad \\u escape")),
            ("{\"traceEvents\":[{\"name\":\"a\nb\"}]}", Err("raw control char in string")),
            ("{\"traceEvents\":[{\"name\":\"a\tb\"}]}", Err("raw control char in string")),
            ("{\"traceEvents\":[{\"name\":\"a\u{1}b\"}]}", Err("raw control char in string")),
            // Numbers.
            ("{\"traceEvents\":[{\"ts\":-}]}", Err("bad number at offset 22")),
            ("{\"traceEvents\":[{\"ts\":-a}]}", Err("bad number at offset 22")),
            ("{\"traceEvents\":[{\"ts\":1.}]}", Err("bad fraction at offset 22")),
            ("{\"traceEvents\":[{\"ts\":1.e5}]}", Err("bad fraction at offset 22")),
            ("{\"traceEvents\":[{\"ts\":1e+}]}", Err("bad exponent at offset 22")),
            ("{\"traceEvents\":[{\"ts\":1E}]}", Err("bad exponent at offset 22")),
            ("{\"traceEvents\":[{\"ts\":+1}]}", Err("unexpected Some('+') at offset 22")),
            // Literals.
            ("{\"traceEvents\":[{\"ok\":tru}]}", Err("bad literal at offset 22")),
            ("{\"traceEvents\":[{\"ok\":fals}]}", Err("bad literal at offset 22")),
            ("{\"traceEvents\":[{\"ok\":nul", Err("bad literal at offset 22")),
            // The prefix.
            ("", Err("document must start with {\"traceEvents\"")),
            ("[]", Err("document must start with {\"traceEvents\"")),
            ("{\"events\":[]}", Err("document must start with {\"traceEvents\"")),
            ("{ \"traceEvents\":[]}", Err("document must start with {\"traceEvents\"")),
            ("\u{a0}{\"traceEvents\":[]}", Err("unexpected Some('Â') at offset 0")),
            // Trailing bytes.
            ("{\"traceEvents\":[]} x", Err("trailing bytes at offset 19")),
            ("{\"traceEvents\":[]}{}", Err("trailing bytes at offset 18")),
            // Trailing commas and missing separators.
            ("{\"traceEvents\":[{\"ph\":\"X\"},]}", Err("unexpected Some(']') at offset 27")),
            ("{\"traceEvents\":[{\"ph\":\"X\",}]}", Err("expected '\"' at offset 26, found Some('}')")),
            ("{\"traceEvents\"[]}", Err("expected ':' at offset 14, found Some('[')")),
            ("{\"traceEvents\":[{\"a\":1 \"b\":2}]}", Err("expected ',' or '}' at offset 23, found Some('\"')")),
            ("{\"traceEvents\":[1 2]}", Err("expected ',' or ']' at offset 18, found Some('2')")),
            ("{\"traceEvents\":[", Err("unexpected None at offset 16")),
            ("{\"traceEvents\":[@]}", Err("unexpected Some('@') at offset 16")),
            ("{\"traceEvents\":}", Err("unexpected Some('}') at offset 15")),
            ("{\"traceEvents\":[{1:2}]}", Err("expected '\"' at offset 17, found Some('1')")),
            // Phases.
            ("{\"traceEvents\":[{\"ph\":\"Z\"}]}", Err("unknown phase \"Z\"")),
            ("{\"traceEvents\":[{\"ph\":\"\\n\"}]}", Err("unknown phase \"n\"")),
            ("{\"traceEvents\":[{\"ph\":\"\\u0058\"}]}", Err("unknown phase \"?\"")),
            ("{\"traceEvents\":[{\"ph\":\"\"}]}", Err("unknown phase \"\"")),
            ("{\"traceEvents\":[{\"ph\":\"XX\"}]}", Err("unknown phase \"XX\"")),
            ("{\"traceEvents\":[{\"ph\":\"\u{e9}\"}]}", Err("unknown phase \"é\"")),
            ("{\"traceEvents\":[{\"ph\":1}]}", Err("expected '\"' at offset 22, found Some('1')")),
            ("{\"traceEvents\":[{\"ph\":\"X\"", Err("expected ',' or '}' at offset 25, found None")),
            // Accepted.
            ("{\"traceEvents\":[]}", Ok([0, 0, 0, 0])),
            ("{\"traceEvents\":[{\"p\\u0068\":\"X\",\"\\\"k\\\\\":1}]}", Ok([0, 0, 0, 0])),
            ("{\"traceEvents\":[{\"ph\":\"X\",\"na\\nme\":\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\\u00e9\"}]}", Ok([0, 1, 0, 0])),
            ("{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"machine \u{e9} \u{65e5}\u{672c} \u{1f680}\"}]}", Ok([1, 0, 0, 0])),
            (" \t\r\n{\"traceEvents\" : [ { \"ph\" : \"C\" , \"ts\" : -1.5e-3 } , {\"ph\":\"i\"} ] } \n", Ok([0, 0, 1, 1])),
            ("{\"traceEvents\":[{\"ph\":\"X\",\"args\":{\"ph\":\"i\",\"inner\":{\"ph\":\"C\"}}}]}", Ok([0, 1, 1, 1])),
            ("{\"traceEvents\":[{\"ph\":\"X\",\"ph\":\"M\"}]}", Ok([1, 1, 0, 0])),
            ("{\"traceEvents\":[0,-0,01,1.25E+10,2e-3,true,false,null,\"\",{},[]]}", Ok([0, 0, 0, 0])),
        ];
        let deep = |n: usize| format!("{{\"traceEvents\":{}{}}}", "[".repeat(n), "]".repeat(n));
        let (ok_depth, too_deep) = (deep(63), deep(64));
        let cases = table.iter().copied().chain([
            (&*ok_depth, Ok([0; 4])),
            (&*too_deep, Err("nesting too deep")),
        ]);
        for (input, want) in cases {
            let got =
                validate_chrome_json(input).map(|s| [s.metas, s.spans, s.instants, s.counters]);
            assert_eq!(
                got.as_ref().map_err(String::as_str),
                want.as_ref().map_err(|e| *e),
                "{input:?}"
            );
        }
    }

    #[test]
    fn serializes_and_validates_round_trip() {
        let doc = TraceDoc {
            events: vec![
                Event::ProcessName {
                    pid: 100,
                    name: "machine 0".into(),
                },
                Event::ThreadName {
                    pid: 100,
                    tid: 1,
                    name: "cpu lane 0".into(),
                },
                Event::Span {
                    pid: 100,
                    tid: 1,
                    name: "Compute j0s0t0".into(),
                    cat: "cpu",
                    ts_ns: 1_500,
                    dur_ns: 2_000_000,
                    args: vec![("bytes", Arg::F64(0.0)), ("queue_s", Arg::F64(0.25))],
                },
                Event::Instant {
                    pid: 100,
                    tid: 0,
                    name: "crash".into(),
                    ts_ns: 3_000_000_000,
                    args: vec![("machine", Arg::U64(0))],
                },
                Event::Counter {
                    pid: 100,
                    name: "cpu util".into(),
                    ts_ns: 0,
                    key: "util",
                    value: 0.5,
                },
            ],
        };
        let json = doc.to_json();
        let stats = validate_chrome_json(&json).expect("valid trace json");
        assert_eq!(
            stats,
            ValidateStats {
                metas: 2,
                spans: 1,
                instants: 1,
                counters: 1,
            }
        );
        // Nanosecond-exact microsecond timestamps.
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":2000.000"), "{json}");
    }

    #[test]
    fn serialization_is_byte_deterministic() {
        let mk = || TraceDoc {
            events: vec![Event::Counter {
                pid: 7,
                name: "net util".into(),
                ts_ns: 123_456_789,
                key: "util",
                value: 1.0 / 3.0,
            }],
        };
        assert_eq!(mk().to_json(), mk().to_json());
    }

    #[test]
    fn lanes_pack_without_overlap() {
        // Three overlapping spans need three lanes; a fourth starting after
        // the first ends reuses lane 0.
        let spans = [(0, 10), (1, 5), (2, 6), (10, 12)];
        let lanes = assign_lanes(&spans);
        assert_eq!(lanes, vec![0, 1, 2, 0]);
        // No two spans in one lane overlap (positive measure).
        for i in 0..spans.len() {
            for j in (i + 1)..spans.len() {
                if lanes[i] == lanes[j] {
                    let (s1, e1) = spans[i];
                    let (s2, e2) = spans[j];
                    assert!(e1 <= s2 || e2 <= s1);
                }
            }
        }
    }

    /// The first-fit scan the heaps replaced: lane `l` is free for a span
    /// starting at `s` once its last span ended by `s`.
    fn first_fit_lanes(spans: &[(u64, u64)]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| (spans[i].0, spans[i].1, i));
        let mut lane_free_at: Vec<u64> = Vec::new();
        let mut lanes = vec![0usize; spans.len()];
        for &i in &order {
            let (s, e) = spans[i];
            lanes[i] = match lane_free_at.iter().position(|&free| free <= s) {
                Some(l) => l,
                None => {
                    lane_free_at.push(e);
                    lane_free_at.len() - 1
                }
            };
            lane_free_at[lanes[i]] = e;
        }
        lanes
    }

    /// The heaps pick the lanes the first-fit scan picks, on random spans
    /// with shared starts, shared ends and zero lengths.
    #[test]
    fn lanes_match_the_first_fit_scan() {
        let mut draw = Draw(0x6c61_6e65);
        for _ in 0..500 {
            let n = draw.below(60) as usize;
            let spans: Vec<(u64, u64)> = (0..n)
                .map(|_| {
                    let s = draw.below(40);
                    (s, s + draw.below(12))
                })
                .collect();
            assert_eq!(assign_lanes(&spans), first_fit_lanes(&spans), "{spans:?}");
        }
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_json("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_json("[]").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":[{\"ph\":\"Z\"}]}").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":[{\"ph\":\"X\"},]}").is_err());
    }
}
