//! Hierarchical timing spans, the one trace sink, and its two export
//! formats.
//!
//! A span is one named, monotonic-clock-timed interval on one thread.
//! Spans nest: entering returns an RAII [`SpanGuard`] whose `Drop`
//! records the exit, so the per-thread enter/exit stream is always
//! well-formed (LIFO) — including under panic unwinding, where guard
//! drops still run. All records funnel into one shared [`SpanSink`]
//! whose timestamps share a single monotonic base, so spans recorded by
//! different threads (pool workers, serve connection handlers) land on
//! one coherent timeline. The same sink also receives sampled
//! per-query records ([`QueryTrace`]), in recording order between the
//! spans of the batch that produced them: one stream of
//! [`TraceRecord`]s.
//!
//! Two export formats render that stream:
//!
//! * **`tkdc-trace/v2` JSONL** ([`trace_v2_lines`]) — every record, one
//!   per line: span enters (`"B"`) and exits (`"E"`) plus query records
//!   (`"kind":"query"`, see [`crate::trace`]), validated by
//!   `cargo xtask check-trace` (balanced per-thread enter/exit,
//!   monotonic timestamps, known stage names and causes):
//!
//!   ```json
//!   {"schema":"tkdc-trace/v2","kind":"span","ph":"B","name":"classify.traversal","tid":3,"ts_us":120}
//!   {"schema":"tkdc-trace/v2","kind":"span","ph":"E","name":"classify.traversal","tid":3,"ts_us":645}
//!   ```
//!
//! * **Chrome `trace_event` JSON** ([`chrome_trace_json`]) — the span
//!   records only, as an array of complete (`"ph":"X"`) events loadable
//!   by Perfetto or `chrome://tracing` for a flame-graph view of a run.
//!   It has no place for query records, which is why sinks that sample
//!   queries must be `.jsonl` ([`is_jsonl_path`]).
//!
//! The stage-name vocabulary is closed ([`STAGES`]): the checker rejects
//! unknown names, so a renamed instrumentation site fails CI instead of
//! silently orphaning dashboards.

use std::path::Path;
use std::time::Instant;

use tkdc_sync::atomic::{AtomicU64, Ordering};
use tkdc_sync::{Arc, Mutex, OnceLock};

use crate::trace::{json_string, QueryTrace, TRACE_SCHEMA};

/// The closed vocabulary of span stage names. `cargo xtask check-trace`
/// rejects `tkdc-trace/v2` records whose name is not listed here (the
/// validator keeps its own copy of this list; `stage_list_is_sorted`
/// pins the contract on this side).
///
/// Taxonomy:
/// * `fit.*` — training phases: threshold bootstrap, spatial-index
///   build (kernel + optional grid included), and the training-density
///   threshold pass.
/// * `classify.*` — batch query phases, shared by classification and
///   density-bounding batches: dispatch (setup + job publication),
///   per-chunk traversal on each participating thread, the accumulated
///   leaf kernel-sum share of a worker's traversal time, and
///   index-order reassembly.
/// * `serve.*` — per-request wall time in the serving daemon: the whole
///   request (`serve.request`) and the engine call inside it
///   (`serve.exec`).
pub const STAGES: &[&str] = &[
    "classify.dispatch",
    "classify.leaf_sum",
    "classify.reassembly",
    "classify.traversal",
    "fit.bootstrap",
    "fit.threshold",
    "fit.tree_build",
    "serve.exec",
    "serve.request",
];

/// Whether a span record phase marks an enter or an exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Span entered (`"ph":"B"`).
    Enter,
    /// Span exited (`"ph":"E"`).
    Exit,
}

impl SpanPhase {
    /// The Chrome `trace_event` phase letter.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanPhase::Enter => "B",
            SpanPhase::Exit => "E",
        }
    }
}

/// One enter or exit event: plain data, ready for either export format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Stage name (one of [`STAGES`] for records the engine emits).
    pub name: &'static str,
    /// Track identifier: a small per-thread integer (see
    /// [`current_tid`]) or a synthetic track id for derived spans.
    pub tid: u64,
    /// Microseconds since the sink's monotonic base.
    pub ts_us: u64,
    /// Enter or exit.
    pub ph: SpanPhase,
}

impl SpanRecord {
    /// Renders the record as one `tkdc-trace/v2` span line (no trailing
    /// newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"schema\":\"");
        s.push_str(TRACE_SCHEMA);
        s.push_str("\",\"kind\":\"span\",\"ph\":\"");
        s.push_str(self.ph.as_str());
        s.push_str("\",\"name\":");
        s.push_str(&json_string(self.name));
        s.push_str(",\"tid\":");
        s.push_str(&self.tid.to_string());
        s.push_str(",\"ts_us\":");
        s.push_str(&self.ts_us.to_string());
        s.push('}');
        s
    }
}

/// One record of a trace stream: a span event or a sampled query.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A span enter or exit.
    Span(SpanRecord),
    /// One sampled query's bound-refinement trace.
    Query(QueryTrace),
}

impl TraceRecord {
    /// The span event, if this is one.
    pub fn as_span(&self) -> Option<&SpanRecord> {
        match self {
            TraceRecord::Span(s) => Some(s),
            TraceRecord::Query(_) => None,
        }
    }

    /// The query trace, if this is one.
    pub fn as_query(&self) -> Option<&QueryTrace> {
        match self {
            TraceRecord::Query(q) => Some(q),
            TraceRecord::Span(_) => None,
        }
    }
}

/// One completed span reconstructed from an enter/exit pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompleteSpan {
    /// Stage name.
    pub name: &'static str,
    /// Track identifier.
    pub tid: u64,
    /// Start, microseconds since the sink's base.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth at enter time (0 = top level) on its track.
    pub depth: u32,
}

/// Process-wide small integer identifying the calling thread.
///
/// `std::thread::ThreadId` has no stable integer form, so tracks are
/// numbered in first-use order instead: dense, deterministic within a
/// run, and stable for the thread's lifetime.
pub fn current_tid() -> u64 {
    // Behind a `OnceLock` because the model-check facade's atomics
    // have a non-`const` constructor; `OnceLock::new` is `const` in
    // both facade arms.
    static NEXT_TID: OnceLock<AtomicU64> = OnceLock::new();
    thread_local! {
        static TID: u64 =
            // ORDERING: Relaxed — the RMW's atomicity alone makes ids
            // unique; no other memory is published through the counter.
            NEXT_TID.get_or_init(|| AtomicU64::new(0)).fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// A shared collector of trace records with one monotonic time base.
///
/// Cheap to share (`Arc`) across the threads participating in one unit
/// of work (a fit, a batch, a serve request). Recording takes a short
/// mutex; spans are stage-grained (per phase, per chunk, per request —
/// never per query point) and a batch's sampled query records arrive
/// in one push after its traversal, so the lock is far off any hot
/// loop.
#[derive(Debug)]
pub struct SpanSink {
    base: Instant,
    events: Mutex<Vec<TraceRecord>>,
}

impl SpanSink {
    /// A sink whose timestamps count from `base`. Passing one shared
    /// base (e.g. server start) makes sinks created at different times
    /// produce directly mergeable timelines.
    pub fn with_base(base: Instant) -> Self {
        Self {
            base,
            events: Mutex::new(Vec::new()),
        }
    }

    /// A sink based at the moment of creation.
    pub fn new() -> Self {
        Self::with_base(Instant::now())
    }

    /// Microseconds elapsed since the sink's base.
    pub fn now_us(&self) -> u64 {
        // CAST: u128 µs since a process-local base fits u64 (~585k years).
        self.base.elapsed().as_micros() as u64
    }

    fn push(&self, rec: SpanRecord) {
        // A poisoned sink (a panic while pushing) drops this event
        // rather than double-panicking inside a guard's Drop.
        if let Ok(mut ev) = self.events.lock() {
            ev.push(TraceRecord::Span(rec));
        }
    }

    /// Appends sampled query records, in the given order, after every
    /// record so far.
    pub fn push_queries(&self, traces: Vec<QueryTrace>) {
        if let Ok(mut ev) = self.events.lock() {
            ev.extend(traces.into_iter().map(TraceRecord::Query));
        }
    }

    /// Enters a span on the calling thread; the returned guard records
    /// the exit when dropped (unwinding included).
    pub fn enter(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        let tid = current_tid();
        self.push(SpanRecord {
            name,
            tid,
            ts_us: self.now_us(),
            ph: SpanPhase::Enter,
        });
        SpanGuard {
            sink: Arc::clone(self),
            name,
            tid,
        }
    }

    /// Records an already-measured interval as a balanced enter/exit
    /// pair on an explicit track. Used for derived spans — e.g. a
    /// worker's accumulated leaf-sum time — that were timed with plain
    /// arithmetic rather than a live guard.
    pub fn record_complete(&self, name: &'static str, tid: u64, ts_us: u64, dur_us: u64) {
        self.push(SpanRecord {
            name,
            tid,
            ts_us,
            ph: SpanPhase::Enter,
        });
        self.push(SpanRecord {
            name,
            tid,
            ts_us: ts_us.saturating_add(dur_us),
            ph: SpanPhase::Exit,
        });
    }

    /// Drains every recorded event, in recording order.
    pub fn take(&self) -> Vec<TraceRecord> {
        match self.events.lock() {
            Ok(mut ev) => std::mem::take(&mut *ev),
            Err(_) => Vec::new(),
        }
    }
}

impl Default for SpanSink {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII handle for an entered span; `Drop` records the exit.
#[derive(Debug)]
pub struct SpanGuard {
    sink: Arc<SpanSink>,
    name: &'static str,
    tid: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.sink.push(SpanRecord {
            name: self.name,
            tid: self.tid,
            ts_us: self.sink.now_us(),
            ph: SpanPhase::Exit,
        });
    }
}

/// Pairs the span enter/exit records of a stream into
/// [`CompleteSpan`]s via a per-track stack (query records are skipped).
/// Exits that match no open enter, and enters never exited, are dropped
/// (they can only arise from truncated streams).
pub fn complete_spans(records: &[TraceRecord]) -> Vec<CompleteSpan> {
    let records: Vec<&SpanRecord> = records.iter().filter_map(TraceRecord::as_span).collect();
    // Tracks are few (one per participating thread); a linear-scan map
    // keeps this dependency-free.
    let mut stacks: Vec<(u64, Vec<usize>)> = Vec::new();
    let mut out = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        let stack = match stacks.iter_mut().find(|(tid, _)| *tid == rec.tid) {
            Some((_, s)) => s,
            None => {
                stacks.push((rec.tid, Vec::new()));
                // INVARIANT: just pushed, so last_mut exists.
                &mut stacks.last_mut().expect("pushed entry").1
            }
        };
        match rec.ph {
            SpanPhase::Enter => stack.push(i),
            SpanPhase::Exit => {
                if let Some(open) = stack.pop() {
                    let enter = records[open];
                    if enter.name == rec.name {
                        out.push(CompleteSpan {
                            name: enter.name,
                            tid: enter.tid,
                            ts_us: enter.ts_us,
                            dur_us: rec.ts_us.saturating_sub(enter.ts_us),
                            // CAST: nesting depth is far below u32.
                            depth: stack.len() as u32,
                        });
                    }
                }
            }
        }
    }
    out.sort_by_key(|s| (s.ts_us, s.tid, s.depth));
    out
}

/// Renders records as `tkdc-trace/v2` JSONL: every record, span and
/// query alike, one per line, each line newline-terminated (empty
/// string for no records) so successive renders append cleanly.
pub fn trace_v2_lines(records: &[TraceRecord]) -> String {
    let mut s = String::with_capacity(records.len() * 96);
    for rec in records {
        s.push_str(&match rec {
            TraceRecord::Span(span) => span.to_json_line(),
            TraceRecord::Query(query) => query.to_json_line(),
        });
        s.push('\n');
    }
    s
}

/// Whether a sink path selects `tkdc-trace/v2` JSONL (a `.jsonl`
/// extension). Every other path gets Chrome `trace_event` JSON, which
/// carries span records only.
pub fn is_jsonl_path(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "jsonl")
}

/// Renders records in the format `path` selects (see
/// [`is_jsonl_path`]).
pub fn render_for_path(path: &Path, records: &[TraceRecord]) -> String {
    if is_jsonl_path(path) {
        trace_v2_lines(records)
    } else {
        chrome_trace_json(records)
    }
}

/// Renders the span records as a Chrome `trace_event` JSON document
/// (an object with a `traceEvents` array of complete `"X"` events),
/// loadable by Perfetto and `chrome://tracing`. Query records have no
/// Chrome form and are left out.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let spans = complete_spans(records);
    let mut s = String::with_capacity(64 + spans.len() * 112);
    s.push_str("{\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"name\":");
        s.push_str(&json_string(sp.name));
        s.push_str(",\"cat\":\"tkdc\",\"ph\":\"X\",\"pid\":1,\"tid\":");
        s.push_str(&sp.tid.to_string());
        s.push_str(",\"ts\":");
        s.push_str(&sp.ts_us.to_string());
        s.push_str(",\"dur\":");
        s.push_str(&sp.dur_us.to_string());
        s.push('}');
    }
    s.push_str("],\"displayTimeUnit\":\"ms\"}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_list_is_sorted_and_deduped() {
        // Sorted order keeps the xtask validator's mirror list easy to
        // diff by eye; windows(2) also catches duplicates.
        assert!(
            STAGES.windows(2).all(|w| w[0] < w[1]),
            "STAGES must be sorted"
        );
    }

    fn spans_of(records: Vec<TraceRecord>) -> Vec<SpanRecord> {
        records
            .iter()
            .filter_map(TraceRecord::as_span)
            .copied()
            .collect()
    }

    fn query(index: u64) -> QueryTrace {
        QueryTrace {
            query: index,
            t_lo: 1.0,
            t_hi: 1.0,
            cause: "threshold_low",
            lower: 0.0,
            upper: 0.5,
            nodes_expanded: 1,
            kernel_evals: 0,
            bound_evals: 3,
            steps: Vec::new(),
        }
    }

    #[test]
    fn guards_record_balanced_nested_events() {
        let sink = Arc::new(SpanSink::new());
        {
            let _outer = sink.enter("serve.request");
            let _inner = sink.enter("serve.exec");
        }
        let recs = spans_of(sink.take());
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].ph, SpanPhase::Enter);
        assert_eq!(recs[0].name, "serve.request");
        assert_eq!(recs[1].name, "serve.exec");
        // LIFO: inner exits first.
        assert_eq!(recs[2].ph, SpanPhase::Exit);
        assert_eq!(recs[2].name, "serve.exec");
        assert_eq!(recs[3].name, "serve.request");
        // Monotonic timestamps on one thread.
        assert!(recs.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert!(sink.take().is_empty(), "take drains");
    }

    #[test]
    fn complete_spans_pair_and_report_depth() {
        let sink = Arc::new(SpanSink::new());
        {
            let _outer = sink.enter("classify.dispatch");
            let _inner = sink.enter("classify.traversal");
        }
        sink.record_complete("classify.leaf_sum", 999, 5, 7);
        let spans = complete_spans(&sink.take());
        assert_eq!(spans.len(), 3);
        let outer = spans
            .iter()
            .find(|s| s.name == "classify.dispatch")
            .unwrap();
        let inner = spans
            .iter()
            .find(|s| s.name == "classify.traversal")
            .unwrap();
        let leaf = spans
            .iter()
            .find(|s| s.name == "classify.leaf_sum")
            .unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.dur_us <= outer.dur_us);
        assert_eq!(
            (leaf.tid, leaf.ts_us, leaf.dur_us, leaf.depth),
            (999, 5, 7, 0)
        );
    }

    #[test]
    fn unbalanced_records_are_dropped_not_mispaired() {
        let recs: Vec<TraceRecord> = [
            SpanRecord {
                name: "serve.request",
                tid: 0,
                ts_us: 0,
                ph: SpanPhase::Enter,
            },
            // Exit for a name that is not on top of the stack.
            SpanRecord {
                name: "serve.exec",
                tid: 0,
                ts_us: 5,
                ph: SpanPhase::Exit,
            },
            // Exit with no matching enter on another track.
            SpanRecord {
                name: "serve.exec",
                tid: 7,
                ts_us: 9,
                ph: SpanPhase::Exit,
            },
        ]
        .into_iter()
        .map(TraceRecord::Span)
        .collect();
        assert!(complete_spans(&recs).is_empty());
    }

    #[test]
    fn v2_lines_interleave_spans_and_queries() {
        let sink = Arc::new(SpanSink::new());
        {
            let _reassembly = sink.enter("classify.reassembly");
            sink.push_queries(vec![query(0), query(4)]);
        }
        let text = trace_v2_lines(&sink.take());
        assert!(text.ends_with('\n'));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(
            lines[0].starts_with("{\"schema\":\"tkdc-trace/v2\",\"kind\":\"span\",\"ph\":\"B\"")
        );
        assert!(lines[0].contains("\"name\":\"classify.reassembly\""));
        // Query records land where they were pushed: inside the span.
        for (line, index) in lines[1..3].iter().zip([0, 4]) {
            let head =
                format!("{{\"schema\":\"tkdc-trace/v2\",\"kind\":\"query\",\"query\":{index},");
            assert!(line.starts_with(&head), "{line}");
        }
        assert!(lines[3].contains("\"ph\":\"E\""));
        assert!(trace_v2_lines(&[]).is_empty());
    }

    #[test]
    fn chrome_json_is_loadable_shape() {
        let sink = Arc::new(SpanSink::new());
        drop(sink.enter("classify.dispatch"));
        sink.record_complete("classify.leaf_sum", 3, 1, 2);
        let json = chrome_trace_json(&sink.take());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"classify.leaf_sum\",\"cat\":\"tkdc\""));
        assert!(json.matches("{\"name\":").count() == 2);
    }

    #[test]
    fn exits_survive_panic_unwinding() {
        let sink = Arc::new(SpanSink::new());
        let s2 = Arc::clone(&sink);
        let result = std::panic::catch_unwind(move || {
            let _g = s2.enter("classify.traversal");
            panic!("boom");
        });
        assert!(result.is_err());
        let recs = spans_of(sink.take());
        assert_eq!(
            recs.len(),
            2,
            "guard drop must record the exit while unwinding"
        );
        assert_eq!(recs[1].ph, SpanPhase::Exit);
    }

    #[test]
    fn tids_are_stable_per_thread_and_distinct_across() {
        let here = current_tid();
        assert_eq!(here, current_tid());
        let other = tkdc_sync::thread::spawn(current_tid)
            .join()
            // INVARIANT: the child only reads a thread-local; it cannot panic.
            .expect("tid thread");
        assert_ne!(here, other);
    }
}
