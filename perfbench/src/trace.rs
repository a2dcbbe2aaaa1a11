//! In-memory span recording for the traced run, and the self-time
//! arithmetic over the recorded spans.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer span name, e.g. `xpath.parse`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch (0 while open).
    pub end: u64,
    /// The span that made this call.
    pub parent: Option<SpanId>,
    /// The operation the span belongs to.
    pub op: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder shared by every thread of a traced window.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a traced thread panicked")
    }

    /// Record a finished span.
    pub fn record(
        &self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        op: u64,
    ) -> SpanId {
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        spans.len() - 1
    }

    /// Open a span starting now.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start = self.now();
        self.record(name, start, 0, parent, op)
    }

    /// Close an open span now.
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.spans()[id].end = end;
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: SpanId, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent), op);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a traced thread panicked")
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children clipped to the parent's interval;
/// siblings never overlap, since one request's calls run in sequence).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start.max(parent.start);
            let end = s.end.min(parent.end);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration().saturating_sub(c))
        .collect()
}

/// Per-name totals over a trace.
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Summed self time (ns) per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration (ns) per span name.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Spans per name.
    pub count: BTreeMap<&'static str, u64>,
}

impl LayerTotals {
    /// Aggregate `spans`.
    pub fn of(spans: &[Span]) -> LayerTotals {
        let mut t = LayerTotals::default();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            *t.self_ns.entry(s.name).or_default() += self_ns;
            *t.total_ns.entry(s.name).or_default() += s.duration();
            *t.count.entry(s.name).or_default() += 1;
        }
        t
    }

    /// Mean self time per operation of `name`, in milliseconds.
    pub fn self_ms(&self, name: &str, ops: u64) -> f64 {
        per_op(self.self_ns.get(name).copied().unwrap_or(0), ops)
    }

    /// Mean duration per operation of `name`, in milliseconds.
    pub fn total_ms(&self, name: &str, ops: u64) -> f64 {
        per_op(self.total_ns.get(name).copied().unwrap_or(0), ops)
    }

    /// Summed self time (ns) of every span whose name starts with one of
    /// `prefixes`.
    pub fn self_ns_of(&self, prefixes: &[&str]) -> u64 {
        self.self_ns
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, ns)| ns)
            .sum()
    }
}

fn per_op(ns: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        ns as f64 / 1e6 / ops as f64
    }
}

/// Write `spans` as one JSON object per line.
pub fn write_spans(out: &mut dyn Write, spans: &[Span]) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start, s.end, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_clipped_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 120, Some(0)), // overruns its parent by 20
            span("c", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 70, 10]);
        let t = LayerTotals::of(&spans);
        assert_eq!(t.self_ns_of(&["a", "c"]), 30);
        assert_eq!(t.total_ns["b"], 70);
    }
}
