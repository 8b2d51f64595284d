//! Model-checked concurrency harnesses (`cargo xtask model-check`).
//!
//! Compiled only under `--cfg tkdc_model_check`, where the `tkdc-sync`
//! facade swaps `std` primitives for the vendored loom-style checker
//! (`vendor/loom`): every harness below runs under **all** thread
//! interleavings (and weak-memory value choices) the bounded DFS
//! reaches, not just the ones a wall-clock test happens to hit.
//!
//! Layout per checked unit:
//! * a harness over the *real* code (the engine `Pool` every fit and
//!   batch runs on, serve `Metrics`, obs `Registry`, the serve drain
//!   protocol), which must be violation-free, and
//! * a `seeded_*` twin carrying a deliberate bug (dropped join,
//!   weakened orderings, non-atomic counter) that the checker **must**
//!   flag — proving the harness has teeth, per ISSUE 6's acceptance
//!   criteria.
#![cfg(tkdc_model_check)]

use tkdc_sync::atomic::{AtomicBool, Ordering};
use tkdc_sync::check::{Builder, RaceCell, Violation};
use tkdc_sync::thread;
use tkdc_sync::{Arc, Condvar, Mutex};

use tkdc::engine::Pool;

// ---------------------------------------------------------------------
// Engine: persistent pool park/unpark protocol
// ---------------------------------------------------------------------

/// The pool's full lifecycle under every interleaving: worker spawn,
/// condvar park, job publication + wakeup, chunked deque stealing,
/// completion signalling on `done_cv`, and the shutdown/join drain in
/// `Drop`. Results must match the serial run and no schedule may
/// deadlock. The pool is the only scheduler: every parallel fit phase
/// (bootstrap rounds, training-density pass) and every batch runs on
/// it, so this harness covers all of them.
#[test]
fn pool_park_unpark_batch_matches_serial() {
    let mut b = Builder::new();
    // Submitter + one lazily spawned worker over a 2-item batch: the
    // interesting schedules are notify-before-park, park-before-notify,
    // and the steal/own race on the two deque slots. A preemption bound
    // of 2 covers each with a tractable tree.
    b.preemption_bound = Some(2);
    b.max_iterations = 50_000;
    let report = b.check(|| {
        let pool = Pool::new();
        let (out, states) = pool
            .run_batch(
                2,
                2,
                || 0u64,
                |i, acc: &mut u64| {
                    *acc += 1;
                    Ok(i * 10)
                },
            )
            .unwrap();
        assert_eq!(out, vec![0, 10]);
        assert_eq!(states.iter().sum::<u64>(), 2);
        // Drop drains: shutdown flag + notify_all + join of the parked
        // worker must terminate in every schedule.
        drop(pool);
    });
    assert!(
        report.violation.is_none(),
        "pool park/unpark violation: {:?}",
        report.violation
    );
}

/// Seeded bug (pool): the park protocol with the wakeup torn off. The
/// real worker loop re-checks "is there a new job / shutdown?" while
/// *holding the state mutex* and parks atomically via `Condvar::wait`,
/// so a submission can never slip between check and park. This twin
/// parks with a naked `wait` (no predicate) against a submitter that
/// fires `notify_one` without publishing under the mutex — the notify
/// can land before the worker is a waiter, the wakeup is lost, and the
/// checker must find the deadlocked schedule.
#[test]
fn seeded_pool_dropped_wakeup_is_detected() {
    let report = Builder::new().check(|| {
        let pair = Arc::new((Mutex::new(()), Condvar::new()));
        let submitter = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                // BUG under test: no job flag, no mutex — just notify.
                pair.1.notify_one();
            })
        };
        let guard = pair.0.lock().unwrap();
        // BUG under test: parking without re-checking a predicate.
        drop(pair.1.wait(guard).unwrap());
        submitter.join().unwrap();
    });
    assert!(
        matches!(report.violation, Some(Violation::Deadlock { .. })),
        "lost wakeup must surface as a deadlock, got {:?}",
        report.violation
    );
}

// ---------------------------------------------------------------------
// Engine: pool telemetry counters
// ---------------------------------------------------------------------

/// Pool telemetry under every interleaving of a 2-item batch with a
/// concurrent snapshot reader: a mid-flight `telemetry()` may be stale
/// but never torn (the counters are facade atomics — a plain-field
/// regression would surface as a data race), and once the batch
/// returns the totals are thread-invariant: `tasks_run` grew by
/// exactly the batch size no matter which participant ran what, and
/// stolen chunks never exceed chunks executed.
#[test]
fn pool_telemetry_counters_are_exact_and_untorn() {
    let mut b = Builder::new();
    // Submitter + lazy worker + one reader thread; bound as in
    // `pool_park_unpark_batch_matches_serial`.
    b.preemption_bound = Some(2);
    b.max_iterations = 50_000;
    let report = b.check(|| {
        let pool = Arc::new(Pool::new());
        let reader = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                let t = pool.telemetry();
                // Monotone counters observed mid-flight are bounded by
                // the batch about to complete.
                assert!(t.total().tasks_run <= 2, "telemetry invented work");
            })
        };
        let (out, states) = pool
            .run_batch(
                2,
                2,
                || 0u64,
                |i, acc: &mut u64| {
                    *acc += 1;
                    Ok(i * 10)
                },
            )
            .unwrap();
        assert_eq!(out, vec![0, 10]);
        assert_eq!(states.iter().sum::<u64>(), 2);
        reader.join().unwrap();
        let total = pool.telemetry().total();
        assert_eq!(total.tasks_run, 2, "each item counted exactly once");
        assert!(
            total.chunks_stolen <= total.tasks_run,
            "stolen chunks exceed executed items"
        );
        drop(pool);
    });
    assert!(
        report.violation.is_none(),
        "pool telemetry violation: {:?}",
        report.violation
    );
}

// ---------------------------------------------------------------------
// Serve: Metrics snapshot vs concurrent increment
// ---------------------------------------------------------------------

/// A snapshot racing two increments may be stale but never torn for a
/// single counter, and after join it is exact — the contract
/// `Metrics::snapshot` documents.
#[test]
fn serve_metrics_snapshot_vs_increment() {
    let report = Builder::new().check(|| {
        let m = Arc::new(tkdc_serve::Metrics::new());
        let writer = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                m.requests_total.inc();
                m.requests_total.inc();
            })
        };
        let mid = m.snapshot().requests_total;
        assert!(mid <= 2, "snapshot invented counts: {mid}");
        writer.join().unwrap();
        assert_eq!(m.snapshot().requests_total, 2, "counts lost after join");
    });
    assert!(
        report.violation.is_none(),
        "metrics violation: {:?}",
        report.violation
    );
}

/// Seeded bug (serve/obs counters): the twin of a `Counter` whose
/// increment is *not* atomic (read-modify-write on plain shared data).
/// The checker must flag it — this is exactly the regression the
/// atomics protect against.
#[test]
fn seeded_nonatomic_counter_is_detected() {
    let report = Builder::new().check(|| {
        let counter = Arc::new(RaceCell::new(0u64));
        let writer = {
            let counter = Arc::clone(&counter);
            thread::spawn(move || counter.with_mut(|v| *v += 1))
        };
        counter.with_mut(|v| *v += 1); // BUG under test: unsynchronized RMW
        writer.join().unwrap();
    });
    assert!(
        matches!(report.violation, Some(Violation::DataRace { .. })),
        "non-atomic increment must surface as a data race, got {:?}",
        report.violation
    );
}

// ---------------------------------------------------------------------
// Obs: Registry get-or-create merge
// ---------------------------------------------------------------------

/// Two threads racing `counter("hits")` must converge on **one** metric
/// (the mutexed get-or-create path) and lose no increments.
#[test]
fn registry_concurrent_get_or_create_merges() {
    let report = Builder::new().check(|| {
        let r = Arc::new(tkdc_obs::Registry::new());
        let other = {
            let r = Arc::clone(&r);
            thread::spawn(move || r.counter("hits").inc())
        };
        r.counter("hits").inc();
        other.join().unwrap();
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("hits".to_string(), 2)],
            "registration raced into duplicate entries or lost a count"
        );
    });
    assert!(
        report.violation.is_none(),
        "registry violation: {:?}",
        report.violation
    );
    assert!(
        report.complete,
        "exploration should finish for the registry"
    );
}

// ---------------------------------------------------------------------
// Serve: graceful-drain protocol
// ---------------------------------------------------------------------

/// Model twin of `Server::run`'s drain (`tests/serve_roundtrip.rs`
/// pins the wall-clock version): the initiator publishes state *before*
/// flipping `shutdown` with `Release`; a handler that observes the flag
/// with `Acquire` must also observe that state. This is the edge that
/// makes "never drop an in-flight response" provable.
fn drain_protocol_harness() {
    let config = Arc::new(RaceCell::new(0u32));
    let shutdown = Arc::new(AtomicBool::new(false));
    let handler = {
        let config = Arc::clone(&config);
        let shutdown = Arc::clone(&shutdown);
        thread::spawn(move || {
            if shutdown.load(Ordering::Acquire) {
                // Saw the drain: the initiator's prior writes must be
                // visible (reading them must not race).
                config.with(|v| assert_eq!(*v, 7, "drain state not published"));
            }
        })
    };
    config.with_mut(|v| *v = 7);
    shutdown.store(true, Ordering::Release);
    handler.join().unwrap();
}

#[test]
fn serve_drain_flag_publishes_initiator_state() {
    let report = Builder::new().check(drain_protocol_harness);
    assert!(
        report.violation.is_none(),
        "drain protocol violation: {:?}",
        report.violation
    );
    assert!(report.complete, "exploration should finish for the drain");
}

/// Seeded bug (serve): downgrade every ordering in the drain protocol
/// to `Relaxed` (the checker's `weaken_orderings` knob — equivalent to
/// editing `Release`/`Acquire` to `Relaxed` in `server.rs`). The same
/// harness must now race, proving it guards the orderings and not just
/// the interleaving.
#[test]
fn seeded_weakened_drain_ordering_is_detected() {
    let mut b = Builder::new();
    b.weaken_orderings = true;
    let report = b.check(drain_protocol_harness);
    assert!(
        matches!(report.violation, Some(Violation::DataRace { .. })),
        "weakened drain orderings must surface as a data race, got {:?}",
        report.violation
    );
}
