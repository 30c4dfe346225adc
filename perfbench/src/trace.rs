//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end and a parent, recorded by the
//! benchmark around one call into a layer of the program; nothing is
//! recorded inside the program itself. Spans nest: a span opened while
//! another is open is its child.
//!
//! Calls of one leaf name under one parent span (a span with no children
//! of its own, such as one `ProsumerNode::flexible_load_at`) are folded
//! into a single record that keeps the first start, the last end, the
//! call count and the summed busy time. The accounting walk makes tens
//! of millions of such calls; folding keeps memory bounded by the number
//! of distinct (parent, name) pairs while keeping every sum exact.
//!
//! A record's **busy** time is its duration (or, for a folded leaf, the
//! sum of its calls' durations). Its **self** time is its busy time minus
//! the busy time of its children. Because the driver is single-threaded,
//! children never overlap, so self time is never negative and the self
//! times of all records sum to the busy time of the roots, which is at
//! most the driver's wall time.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Parent index of a root record.
pub const ROOT: usize = usize::MAX;

/// One recorded span (or folded run of leaf calls).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, `layer.call`.
    pub name: &'static str,
    /// Index of the parent record, or [`ROOT`].
    pub parent: usize,
    /// Start of the (first) call, ns since the tracer's origin.
    pub start_ns: u64,
    /// End of the (last) call, ns since the tracer's origin.
    pub end_ns: u64,
    /// Calls folded into this record (1 for a non-leaf span).
    pub calls: u64,
    /// Summed duration of the calls, ns.
    pub busy_ns: u64,
    /// Whether any span was opened inside this one.
    pub has_children: bool,
}

/// Per-name totals over every record of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Calls.
    pub calls: u64,
    /// Summed busy time, ms.
    pub busy_ms: f64,
    /// Summed self time, ms.
    pub self_ms: f64,
}

/// The recorder. A disabled tracer runs every closure and records
/// nothing, so the same driver code gives the untraced comparison run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
    leaves: HashMap<(usize, &'static str), usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recording (`enabled`) or pass-through tracer.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            leaves: HashMap::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        if parent != ROOT {
            self.spans[parent].has_children = true;
        }
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
            calls: 1,
            busy_ns: 0,
            has_children: false,
        });
        self.stack.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.stack.pop();
        self.close(idx, end);
        out
    }

    fn close(&mut self, idx: usize, end: u64) {
        let rec = &mut self.spans[idx];
        rec.end_ns = end;
        rec.busy_ns = end - rec.start_ns;
        if rec.has_children || rec.parent == ROOT {
            return;
        }
        // A leaf: fold it into the earlier record of the same name under
        // the same parent, if there is one. The leaf is the last record
        // (it has no children), so popping it removes only itself.
        let key = (rec.parent, rec.name);
        match self.leaves.get(&key) {
            Some(&into) => {
                let leaf = self
                    .spans
                    .pop()
                    .expect("the closed leaf is the last record");
                let target = &mut self.spans[into];
                target.end_ns = leaf.end_ns;
                target.calls += 1;
                target.busy_ns += leaf.busy_ns;
            }
            None => {
                self.leaves.insert(key, idx);
            }
        }
    }

    /// Add `v` to counter `name` (recorded only when enabled).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Raise counter `name` to at least `v` (recorded only when enabled).
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            let c = self.counters.entry(name).or_insert(v);
            *c = c.max(v);
        }
    }

    /// Counter value (0 when never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Every record, parents before children.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Self time of every record, ns (same indexing as [`Tracer::spans`]).
    pub fn self_ns(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self.spans.iter().map(|s| s.busy_ns as i64).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                out[s.parent] -= s.busy_ns as i64;
            }
        }
        out
    }

    /// Busy time covered by root records, ns.
    pub fn root_busy_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| s.busy_ns)
            .sum()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let self_ns = self.self_ns();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += s.calls;
            t.busy_ms += s.busy_ns as f64 / 1e6;
            t.self_ms += own as f64 / 1e6;
        }
        out
    }

    /// Span-arithmetic violations (empty when consistent): negative self
    /// time, a child outside its parent, self times summing past `wall_ns`.
    pub fn arithmetic_errors(&self, wall_ns: u64) -> Vec<String> {
        let mut errors = Vec::new();
        for (i, own) in self.self_ns().into_iter().enumerate() {
            if own < 0 {
                errors.push(format!(
                    "{}: negative self time {own} ns",
                    self.spans[i].name
                ));
            }
        }
        for s in &self.spans {
            if s.parent == ROOT {
                continue;
            }
            let p = &self.spans[s.parent];
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                errors.push(format!("{} is not nested inside {}", s.name, p.name));
            }
        }
        let total_self: i64 = self.self_ns().iter().sum();
        if total_self > wall_ns as i64 {
            errors.push(format!(
                "self times sum to {total_self} ns, past the {wall_ns} ns wall"
            ));
        }
        errors
    }

    /// The records as JSON lines (one object per record).
    pub fn to_json_lines(&self) -> String {
        let self_ns = self.self_ns();
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{},\"self_ns\":{own}}}\n",
                s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |a, b| a.wrapping_add(std::hint::black_box(b)))
    }

    #[test]
    fn leaves_fold_and_self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            for _ in 0..100 {
                t.span("leaf", |_| spin(1_000));
            }
            t.span("inner", |t| t.span("leaf", |_| spin(1_000)));
        });
        let spans = t.spans();
        // outer, its folded leaf, inner, inner's leaf.
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].calls, 100);
        let totals = t.totals();
        assert_eq!(totals["leaf"].calls, 101);
        assert!(t.arithmetic_errors(t.root_busy_ns()).is_empty());
        let own = t.self_ns();
        assert_eq!(own.iter().sum::<i64>(), spans[0].busy_ns as i64);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", |t| {
            t.add("c", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 0.0);
    }
}
