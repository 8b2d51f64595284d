#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # tkdc-obs
//!
//! Dependency-free (std-only) observability primitives for the tKDC
//! workspace: structured per-query traces and an in-process registry of
//! named counters, gauges, and log2-microsecond latency histograms.
//!
//! tKDC's contribution is *pruning*, and every evaluation question about
//! it — how many kernel evaluations did a query cost, which cutoff rule
//! fired, how did the upper/lower bounds converge — is an observability
//! question. This crate is the shared substrate answering them:
//!
//! * [`trace`] — plain-data [`QueryTrace`] / [`TraceStep`] records of one
//!   `BoundDensity` traversal (the per-refinement bound trajectory plus
//!   final counters), serialized as `"kind":"query"` lines of the one
//!   trace schema [`TRACE_SCHEMA`] (`tkdc-trace/v2`).
//! * [`registry`] — lock-free [`Counter`] / [`Gauge`] metrics and a
//!   log-scale latency [`Histogram`], optionally grouped in a named
//!   [`Registry`] whose [`RegistrySnapshot`] is what `tkdc-serve` ships
//!   over the wire and the bench binaries record into `BENCH_*.json`.
//! * [`span`] — hierarchical RAII timing spans ([`SpanSink`] /
//!   [`SpanGuard`]) over a closed stage vocabulary ([`STAGES`]); the
//!   sink also takes sampled query records, so one stream of
//!   [`TraceRecord`]s exports as `tkdc-trace/v2` JSONL (both kinds) or
//!   Chrome `trace_event` JSON (spans only, perfetto-loadable).
//! * [`window`] — [`WindowedHistogram`]: a cumulative latency histogram
//!   paired with a sliding-window view (ring of per-epoch
//!   sub-histograms, rotate-on-write, skip-expired-on-read) so
//!   long-running daemons report *current* p99, not lifetime p99.
//! * [`expo`] — Prometheus text exposition (0.0.4) rendering of
//!   registry snapshots and ad-hoc series ([`Exposition`]).
//!
//! The crate deliberately knows nothing about the engine: prune causes
//! arrive as strings, counters as `u64`s. `tkdc` (core) maps its own
//! types onto these records, so this crate never becomes a dependency
//! cycle and stays trivially portable.

pub mod expo;
pub mod registry;
pub mod span;
pub mod trace;
pub mod window;

pub use expo::{sanitize_name, Exposition};
pub use registry::{Counter, Gauge, Histogram, Registry, RegistrySnapshot, HISTOGRAM_BUCKETS};
pub use span::{
    chrome_trace_json, complete_spans, current_tid, is_jsonl_path, render_for_path, trace_v2_lines,
    CompleteSpan, SpanGuard, SpanPhase, SpanRecord, SpanSink, TraceRecord, STAGES,
};
pub use trace::{json_f64, json_string, QueryTrace, TraceStep, TRACE_SCHEMA};
pub use window::{
    merge_buckets, quantile_from_buckets, WindowedHistogram, DEFAULT_SLOT_MILLIS,
    DEFAULT_WINDOW_SLOTS,
};
