//! The benchmark's own span recorder. Spans are taken around calls into
//! the program's public functions (never inside the program), kept in
//! memory while the run lasts and written out as JSONL when it ends.
//! With recording off, `open`/`close`/`record` do nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a span in the recorder; `NONE` when recording is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`; the part before the first dot names the layer.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Request or call id the span belongs to (0 for set-up work).
    pub req: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Recorder {
    on: bool,
    base: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            base: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the recorder's base to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.base).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        spans.push(span);
        SpanId(id)
    }

    fn parent(id: SpanId) -> Option<u32> {
        (id != SpanId::NONE).then_some(id.0)
    }

    /// Opens a span now; `close` stamps its end.
    pub fn open(&self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.ns(Instant::now());
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: Self::parent(parent),
            req,
        })
    }

    pub fn close(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans[id.0 as usize].end_ns = end_ns;
    }

    /// Records a span whose ends were stamped by the caller (used where
    /// a span starts at a due time rather than at a call).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        self.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: Self::parent(parent),
            req,
        })
    }

    /// Runs `f` inside a span and returns its result with its duration.
    /// The duration is measured whether or not recording is on.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent, 0);
        let t = Instant::now();
        let out = f(id);
        let dt = t.elapsed();
        self.close(id);
        (out, dt)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// The spans as JSONL, one object per span, in recording order.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain(|&(a, b)| b > lo && a < hi && b > a);
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Share of `[lo, hi)` covered by at least one span.
pub fn coverage(spans: &[Span], lo: u64, hi: u64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let iv = spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    union_len(iv, lo, hi) as f64 / (hi - lo) as f64
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of it that its children cover, summed over the layer's spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = union_len(kids, s.start_ns, s.end_ns);
        *out.entry(s.layer()).or_insert(0.0) += (dur - covered.min(dur)) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            req: 0,
        }
    }

    #[test]
    fn coverage_counts_overlaps_once() {
        let s = [span("a.x", 0, 50, None), span("b.y", 25, 75, None)];
        assert!((coverage(&s, 0, 100) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children() {
        let s = [
            span("serve.request", 0, 100, None),
            span("serve.call", 10, 60, Some(0)),
            span("engine.call", 20, 40, Some(1)),
        ];
        let t = self_times(&s);
        assert!((t["serve"] - 80e-9).abs() < 1e-15);
        assert!((t["engine"] - 20e-9).abs() < 1e-15);
    }
}
