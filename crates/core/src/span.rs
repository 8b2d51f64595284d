//! The observability handle of a fit or batch call: stage spans and
//! sampled per-query traces, one stream.
//!
//! [`Spans`] is the engine-side adapter between the fit/batch drivers
//! and the trace sink of `tkdc-obs` ([`SpanSink`]). It rides in the
//! [`Ctx`](crate::Ctx) of every fit and batch entry point and records
//! two kinds of [`TraceRecord`] into one sink:
//!
//! * **stage spans** — a fit phase, a whole batch traversal, a serve
//!   request — never per query point, so recording cost is irrelevant
//!   to the traversal hot loops. The one per-query-adjacent
//!   measurement, the leaf kernel-sum share, is accumulated as plain
//!   nanosecond arithmetic in `QueryScratch` (see
//!   [`QueryScratch::time_leaves`](crate::qstats::QueryScratch)) and
//!   emitted afterwards as one synthetic span per worker scratch;
//! * **query records** — with [`Spans::sampling`]`(every)`, a batch
//!   traces every `every`-th query by index (the per-scratch recorder
//!   is [`Tracer`](crate::trace::Tracer)) and pushes the traces, sorted
//!   by query index, into the sink after its traversal.
//!
//! With no sink attached ([`Spans::off`], the default everywhere),
//! every hook is one `Option` check and no query is traced.

use std::path::Path;
use std::time::Instant;

use tkdc_common::error::{invalid_param, Result};
use tkdc_sync::Arc;

use crate::trace::QueryTrace;
pub use tkdc_obs::span::{SpanGuard, SpanRecord, SpanSink, TraceRecord};

/// Handle to an optional trace sink (see module docs). Inert by
/// default; cloning shares the underlying sink.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    sink: Option<Arc<SpanSink>>,
    /// Trace every `trace_every`-th query of a batch (0 = none).
    trace_every: u64,
}

impl Spans {
    /// An inert handle: every hook is a no-op.
    pub fn off() -> Self {
        Self::default()
    }

    /// A recording handle over a fresh sink based at "now".
    pub fn enabled() -> Self {
        Self::enabled_with_base(Instant::now())
    }

    /// A recording handle over a fresh sink whose timestamps count from
    /// `base` — lets many handles (e.g. one per serve request) share a
    /// single timeline.
    pub fn enabled_with_base(base: Instant) -> Self {
        Self {
            sink: Some(Arc::new(SpanSink::with_base(base))),
            trace_every: 0,
        }
    }

    /// This handle, also tracing every `every`-th query of each batch
    /// by index (`1` = all, `0` = none). Index-based sampling keeps the
    /// traces identical at every thread count. An inert handle stays
    /// inert: the traces would have nowhere to go.
    pub fn sampling(self, every: u64) -> Self {
        Self {
            trace_every: every,
            ..self
        }
    }

    /// The effective query-sampling interval (0 when inert).
    #[inline]
    pub fn trace_every(&self) -> u64 {
        if self.sink.is_some() {
            self.trace_every
        } else {
            0
        }
    }

    /// Whether this handle records anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Enters a span on the calling thread; the returned guard records
    /// the exit when dropped. `None` when inert.
    #[inline]
    pub fn enter(&self, name: &'static str) -> Option<SpanGuard> {
        self.sink.as_ref().map(|s| s.enter(name))
    }

    /// Microseconds since the sink's base (0 when inert).
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.now_us())
    }

    /// Records an already-measured interval on an explicit track (see
    /// [`SpanSink::record_complete`]). No-op when inert.
    #[inline]
    pub fn record_complete(&self, name: &'static str, tid: u64, ts_us: u64, dur_us: u64) {
        if let Some(s) = &self.sink {
            s.record_complete(name, tid, ts_us, dur_us);
        }
    }

    /// Appends a batch's sampled query traces. No-op when inert.
    pub(crate) fn push_queries(&self, traces: Vec<QueryTrace>) {
        if let Some(s) = &self.sink {
            s.push_queries(traces);
        }
    }

    /// Drains the recorded spans and query records, in recording order
    /// (empty when inert).
    pub fn take(&self) -> Vec<TraceRecord> {
        self.sink.as_ref().map(|s| s.take()).unwrap_or_default()
    }
}

/// Checks that a trace sink can hold what a run records: sampled query
/// records (`trace_every > 0`) need a sink, and of the two formats only
/// `tkdc-trace/v2` JSONL (a `.jsonl` path) carries them — Chrome JSON
/// holds spans only, so a query record would be dropped silently.
///
/// # Errors
/// `InvalidParameter("trace_sample")` naming the missing or non-`.jsonl`
/// sink.
pub fn check_sink(path: Option<&Path>, trace_every: u64) -> Result<()> {
    match path {
        _ if trace_every == 0 => Ok(()),
        None => Err(invalid_param(
            "trace_sample",
            "query sampling needs a `.jsonl` span sink (`--span-out FILE.jsonl`)",
        )),
        Some(p) if !tkdc_obs::is_jsonl_path(p) => Err(invalid_param(
            "trace_sample",
            format!(
                "query records need a `.jsonl` span sink; `{}` would be written as Chrome JSON, \
                 which holds spans only",
                p.display()
            ),
        )),
        Some(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_spans_record_nothing() {
        let s = Spans::off().sampling(3);
        assert!(!s.is_enabled());
        assert_eq!(s.trace_every(), 0, "an inert handle samples nothing");
        assert!(s.enter("fit.tree_build").is_none());
        s.record_complete("classify.leaf_sum", 0, 0, 1);
        assert_eq!(s.now_us(), 0);
        assert!(s.take().is_empty());
    }

    #[test]
    fn enabled_spans_share_a_sink_across_clones() {
        let s = Spans::enabled().sampling(2);
        let s2 = s.clone();
        assert_eq!(s2.trace_every(), 2);
        drop(s.enter("fit.bootstrap"));
        drop(s2.enter("fit.threshold"));
        let recs = s.take();
        assert_eq!(recs.len(), 4);
        assert!(s2.take().is_empty(), "clones drain the same sink");
    }

    #[test]
    fn shared_base_yields_one_timeline() {
        let base = Instant::now();
        let a = Spans::enabled_with_base(base);
        let b = Spans::enabled_with_base(base);
        drop(a.enter("serve.request"));
        drop(b.enter("serve.request"));
        let (ra, rb) = (a.take(), b.take());
        // Later sink's timestamps are not reset: b's enter is at or
        // after a's enter on the shared base.
        let ts = |r: &[TraceRecord]| r[0].as_span().map(|s| s.ts_us);
        assert!(ts(&rb) >= ts(&ra));
    }
}
