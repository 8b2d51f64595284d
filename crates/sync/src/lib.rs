#![forbid(unsafe_code)]
//! `tkdc-sync` — the workspace's single doorway to concurrency
//! primitives.
//!
//! Every crate in this workspace imports `Arc`, `Mutex`, atomics and
//! threads from here instead of `std::sync`/`std::thread` (enforced by
//! `xtask lint` rule L6 `std-sync-outside-facade`). In a normal build
//! the facade is pure re-exports — zero cost, identical types, no
//! behavior change. Under `RUSTFLAGS="--cfg tkdc_model_check"` the
//! facade swaps in the vendored `loom`-style model checker (see
//! `vendor/loom`), which deterministically enumerates thread
//! interleavings and weak-memory behaviors over bounded executions, so
//! the concurrency harnesses in `tests/model_check.rs` exhaustively
//! check the engine cursor, serve metrics and obs registry. Run them
//! via `cargo xtask model-check`.
//!
//! What swaps and what doesn't:
//!
//! * **Swapped**: `Mutex`/`MutexGuard`, `Condvar`, `atomic::{AtomicBool,
//!   AtomicU64, AtomicUsize}`, `thread::{spawn, scope, sleep,
//!   yield_now, JoinHandle, Scope, ScopedJoinHandle}`.
//! * **Never swapped**: `Arc`, `OnceLock`, `atomic::Ordering`,
//!   `thread::available_parallelism`, `mpsc` — these carry no
//!   interleaving decisions the checker needs to control (`Arc`'s
//!   refcounting is sound by construction; `OnceLock` is used for test
//!   fixtures; `mpsc` only orders steps of wall-clock tests, never a
//!   model-checked harness).
//! * **Model-check only**: the [`check`] module (re-exported checker
//!   API: `model`, `Builder`, `Report`, `Violation`, `RaceCell`) exists
//!   only under `cfg(tkdc_model_check)`.
//!
//! Two facade rules keep model and reality aligned:
//!
//! 1. No `std::sync`/`std::thread` imports outside this crate (L6).
//! 2. Every `Ordering::Relaxed` carries an `// ORDERING:` comment
//!    explaining why relaxed suffices (L7); the model-check suite is
//!    where such claims are mechanically tested.

/// Re-exports under the normal (non-model-check) build: the real thing.
#[cfg(not(tkdc_model_check))]
mod facade {
    pub use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

    /// Channels (`std::sync::mpsc` subset).
    pub mod mpsc {
        pub use std::sync::mpsc::channel;
    }

    /// Atomic types and orderings (`std::sync::atomic` subset).
    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }

    /// Thread spawning and scoped threads (`std::thread` subset).
    pub mod thread {
        pub use std::thread::{
            available_parallelism, scope, sleep, spawn, yield_now, JoinHandle, Scope,
            ScopedJoinHandle,
        };
    }
}

/// Re-exports under `--cfg tkdc_model_check`: the instrumented runtime.
#[cfg(tkdc_model_check)]
mod facade {
    pub use loom::sync::{Condvar, Mutex, MutexGuard};
    pub use std::sync::{Arc, LockResult, OnceLock, PoisonError, Weak};

    /// Channels stay `std`: no harness sends over one.
    pub mod mpsc {
        pub use std::sync::mpsc::channel;
    }

    /// Instrumented atomics (orderings stay the `std` enum).
    pub mod atomic {
        pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }

    /// Instrumented threads. `available_parallelism` stays `std`: it is
    /// a pure query with no scheduling side effects.
    pub mod thread {
        pub use loom::thread::{
            scope, sleep, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle,
        };
        pub use std::thread::available_parallelism;
    }

    /// The model-checker driver API, for `tests/model_check.rs`.
    pub mod check {
        pub use loom::cell::RaceCell;
        pub use loom::{model, Builder, Report, Violation};
    }
}

pub use facade::*;
