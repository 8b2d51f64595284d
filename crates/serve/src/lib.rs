#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # tkdc-serve
//!
//! A dependency-free (std-only) model-serving daemon for fitted tKDC
//! classifiers, plus the client library that speaks its wire protocol.
//!
//! tKDC's value proposition is train-once/serve-many: fitting (threshold
//! bootstrap + full index build + training-density pass) is expensive,
//! while a single pruned classification is microseconds. This crate turns
//! the persisted-model format (`tkdc::model_io`) and the work-stealing
//! batch engine (`tkdc::engine`) into an actual inference service:
//!
//! * [`Server`] — a multi-threaded TCP daemon that loads one immutable
//!   model at startup and answers the versioned, length-prefixed binary
//!   protocol defined in [`protocol`]: `Ping`, `Classify`, `Density`,
//!   `Stats`, `Shutdown`. Every `Classify`/`Density` request is a
//!   micro-batch executed through `Classifier::classify_batch_shared`
//!   (or `bound_density_batch_shared`) under a [`tkdc::Ctx`]: a
//!   work-stealing [`tkdc::ExecPolicy`] plus the request's trace handle.
//! * [`Client`] — a blocking client with one method per request type.
//! * [`metrics`] — lock-free server metrics (request/error counters and
//!   a log-scale latency histogram with both since-start and
//!   sliding-window views) queryable over the wire via `Stats`.
//! * [`http`] — a minimal std-only HTTP responder serving the same
//!   metrics as a Prometheus text exposition (`GET /metrics`), enabled
//!   via [`ServeConfig::metrics_addr`].
//!
//! Observability sinks (all optional, see [`ServeConfig`]): one trace
//! stream of every request (`span_out`) — `tkdc-trace/v2` JSONL
//! appended per request, spans plus sampled query records
//! (`trace_every`), or Chrome `trace_event` JSON of the spans at drain —
//! and a `tkdc-slowlog/v1` slow-query log with per-stage span
//! breakdowns (`slow_log` + `slow_ms`).
//!
//! Robustness properties (all covered by `tests/serve_roundtrip.rs`):
//! per-connection read/write timeouts, a hard connection cap with a
//! clean `OverCapacity` protocol rejection, a maximum frame size, and
//! graceful drain-on-shutdown (in-flight requests complete; the accept
//! loop joins every connection handler before the process exits).
//!
//! ```no_run
//! use tkdc_serve::{Client, ServeConfig, Server};
//! # fn main() -> tkdc_common::Result<()> {
//! # let classifier: tkdc::Classifier = unimplemented!();
//! let server = Server::bind(ServeConfig::default(), classifier)?;
//! let addr = server.local_addr()?;
//! let handle = server.spawn();
//! let mut client = Client::connect(&addr.to_string())?;
//! client.ping()?;
//! client.shutdown()?;
//! handle.join()?;
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use http::{MetricsHandle, MetricsServer};
pub use metrics::Metrics;
pub use protocol::{ErrorCode, Request, Response, StatsSnapshot, PROTOCOL_VERSION};
pub use server::{ServeConfig, Server, ServerHandle, SLOWLOG_SCHEMA};
