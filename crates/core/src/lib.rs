#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # tkdc
//!
//! Thresholded Kernel Density Classification — a Rust reproduction of the
//! SIGMOD 2017 paper *"Scalable Kernel Density Classification via
//! Threshold-Based Pruning"* (Gan & Bailis).
//!
//! ## What it does
//!
//! Given a training dataset `X` and a quantile probability `p`, tKDC
//! classifies query points as lying in HIGH or LOW density regions of the
//! kernel density estimate of `X`, *without* computing exact densities.
//! It maintains upper and lower density bounds from a multi-resolution
//! k-d tree and short-circuits (prunes) a query's computation the moment
//! the bounds land entirely above or below the classification threshold
//! `t(p)` — a classic predicate-pushdown applied to density estimation.
//! Per-query cost drops from `O(n)` to `O(n^{(d-1)/d})` for `d > 1`.
//!
//! ## Quick start
//!
//! ```
//! use tkdc_common::{Matrix, Rng};
//! use tkdc::{Classifier, Label, Params};
//!
//! // A small 2-d Gaussian blob.
//! let mut rng = Rng::seed_from(7);
//! let mut data = Matrix::with_cols(2);
//! for _ in 0..2000 {
//!     data.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]).unwrap();
//! }
//!
//! // Classify the densest 99% vs. the 1% low-density tail.
//! let params = Params::default();          // p = 0.01, ε = 0.01, δ = 0.01
//! let clf = Classifier::fit(&data, &params).unwrap();
//!
//! assert_eq!(clf.classify(&[0.0, 0.0]).unwrap(), Label::High);  // dense center
//! assert_eq!(clf.classify(&[8.0, 8.0]).unwrap(), Label::Low);   // far tail
//! ```
//!
//! ## Module map
//!
//! * [`params`] — task parameters (Table 1) and optimization toggles.
//! * [`bound`] — the `BoundDensity` traversal (Algorithm 2) with the
//!   threshold and tolerance pruning rules (Eq. 8–9).
//! * [`threshold`] — the bootstrapped threshold estimator (Algorithm 3).
//! * [`classifier`] — the end-to-end classifier (Algorithm 1), including
//!   the grid cache fast path, the fit (`fit_with`, `fit_weighted_with`)
//!   and batch (`classify_batch_{with,shared}`,
//!   `bound_density_batch_{with,shared}`) entry points — each takes a
//!   [`Ctx`]: an [`ExecPolicy`] plus an optional [`Spans`] trace handle —
//!   and the one batch driver they, the bootstrap and the training pass
//!   all run through.
//! * [`engine`] — the dependency-free work-stealing [`engine::Pool`]:
//!   the one scheduler, created by each fit and kept by its classifier
//!   for every parallel phase (bootstrap, training densities,
//!   classification).
//! * [`qstats`] — per-query and aggregate instrumentation (kernel
//!   evaluations, node expansions, prune causes) used by the paper's
//!   factor/lesion analyses (Fig. 12/16).
//! * [`trace`] — the per-scratch query tracer behind sampled
//!   `tkdc-trace/v2` query records.
//! * [`span`] — the [`Spans`] handle: stage spans over fit phases and
//!   batch execution plus the sampled query records, into one sink.

pub mod bound;
pub mod classifier;
pub mod engine;
pub mod llr;
pub mod model_io;
pub mod params;
pub mod qstats;
pub mod span;
pub mod threshold;
pub mod trace;
mod tree;

pub use classifier::{Classifier, Ctx, ExecPolicy, Label};
pub use llr::{llr_bounds, llr_bounds_with_rtol, LlrBounds};
pub use params::{BootstrapParams, Optimizations, Params};
pub use qstats::{PruneCause, QueryScratch, QueryStats};
pub use span::{Spans, TraceRecord};
pub use threshold::ThresholdBounds;
pub use trace::{QueryTrace, TraceStep, Tracer, TRACE_SCHEMA};
