//! Spans recorded from the benchmark's own files around the calls into
//! each layer's public functions.  Kept in memory; written once at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span worked on: a batch op index (`key` 0), or a stream key and
/// the base index of the window it flushed.
pub type OpId = (u64, u64);

/// A span nobody asked about: no op attached.
pub const NO_OP: OpId = (u64::MAX, u64::MAX);

/// Recording stops past this many spans (the overflow is counted).
const MAX_SPANS: usize = 400_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: OpId,
}

/// Token for an open span (see [`Tracer::enter`]).
pub struct Open(Option<u32>);

/// In-memory span recorder.  Switched off it costs one branch per span.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

/// Per-name totals: `(spans, total ns, self ns)`.
pub type Totals = BTreeMap<&'static str, (u64, u64, u64)>;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    /// Turns recording on or off between rounds (a traced run interleaves
    /// both to measure what tracing costs).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle only between spans");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: NO_OP,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span and says what it worked on (often known only now).
    pub fn exit(&mut self, open: Open, op: OpId) {
        if let Some(id) = open.0 {
            let end_ns = self.now_ns();
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans close innermost first");
            let span = &mut self.spans[id as usize];
            span.end_ns = end_ns;
            span.op = op;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: OpId, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let open = self.enter(name);
        let out = f(self);
        self.exit(open, op);
        out
    }

    /// Self time of every span: its duration minus its direct children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let d = s.end_ns - s.start_ns;
                own[p as usize] = own[p as usize].saturating_sub(d);
            }
        }
        own
    }

    /// Span count, total and self time by span name.
    pub fn totals(&self) -> Totals {
        let mut by_name = Totals::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let t = by_name.entry(s.name).or_default();
            t.0 += 1;
            t.1 += s.end_ns - s.start_ns;
            t.2 += own;
        }
        by_name
    }

    /// Writes every span (name, start, end, parent, op, self time) and the
    /// per-name totals as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + 96 * self.spans.len());
        let _ = write!(out, "{{\"dropped\": {}, \"totals\": {{", self.dropped);
        for (i, (name, (count, total, own))) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"spans\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}"
            );
        }
        out.push_str("}, \"spans\": [\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == NO_OP {
                "null".to_string()
            } else {
                format!("{{\"key\": {}, \"index\": {}}}", s.op.0, s.op.1)
            };
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {op}, \"self_ns\": {own}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_file_parses() {
        let mut tr = Tracer::new(true);
        tr.span("outer", (0, 7), |tr| {
            tr.span("inner", NO_OP, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("inner", NO_OP, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = tr.totals();
        let (n_outer, total_outer, self_outer) = totals["outer"];
        let (n_inner, total_inner, self_inner) = totals["inner"];
        assert_eq!((n_outer, n_inner), (1, 2));
        assert_eq!(total_inner, self_inner);
        assert_eq!(self_outer, total_outer - total_inner);
        assert!(total_inner >= 4_000_000);

        let path = crate::out_dir().join(format!("trace-test-{}.json", std::process::id()));
        tr.write(&path).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        let op = spans[0].get("op").unwrap();
        assert_eq!(op.get("index").and_then(|x| x.as_f64()), Some(7.0));
    }

    #[test]
    fn switched_off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", NO_OP, |_| 5), 5);
        assert!(tr.totals().is_empty());
    }
}
