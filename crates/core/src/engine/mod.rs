//! The batch scheduler: one persistent work-stealing [`Pool`] per
//! classifier.
//!
//! Threshold-pruned query costs are heavy-tailed: a query far from the
//! ±ε·t ambiguity band prunes after a handful of node expansions, while a
//! near-threshold query can expand orders of magnitude more nodes. Static
//! chunking (splitting the batch into `n_threads` equal ranges up front)
//! therefore leaves most cores idle whenever the hard queries cluster in
//! one chunk. The [`Pool`] splits a batch the same way but lets a
//! participant whose range ran dry steal chunks from the others, so a
//! single pathological query never strands more than itself on one core.
//!
//! All three density loops of the paper — the bootstrap rounds
//! (Algorithm 3), the training-density pass that fixes `t̃(p)`
//! (Algorithm 1) and classification — run one independent traversal per
//! point, so they all run on the same pool: the fit creates it, and the
//! fitted [`crate::Classifier`] keeps it for every later batch.
//!
//! The scheduler is dependency-free (no rayon/crossbeam), goes through
//! the `tkdc-sync` facade so `cargo xtask model-check` can explore its
//! interleavings, and is deterministic in its *results*: each item's
//! output is computed independently and reassembled in index order, so
//! the output vector — and any order-independent reduction over
//! per-worker state, such as summed [`crate::qstats::QueryStats`]
//! counters — is identical for every thread count.

pub mod pool;

pub use pool::{Pool, PoolTelemetry, WorkerCounters, WorkerTelemetry};
