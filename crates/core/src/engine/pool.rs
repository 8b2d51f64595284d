//! Persistent work-stealing thread pool.
//!
//! [`Pool`] keeps workers alive across batches: workers park on a
//! condvar between jobs, a submission publishes one type-erased job and
//! wakes them, and the submitting thread itself participates so a
//! single-threaded job degenerates to the inline serial path with zero
//! parked threads. Serving-style repeated small batches therefore pay
//! a wakeup, never a thread spawn.
//!
//! Scheduling inside a job is per-participant deques with chunked
//! stealing. The index space `0..total` is split into contiguous
//! per-participant ranges up front (static partition = perfect
//! locality when costs are uniform); an owner pops *guided* grains
//! from the front of its own deque, and a participant whose deque ran
//! dry steals half (grain-capped) from the *back* of a victim's
//! deque. Stealing in grain-sized chunks rather than single indices is
//! what keeps the stolen work's amortized synchronization cost on par
//! with static partitioning on uniform workloads.
//!
//! Determinism contract: results are reassembled in index order, so
//! the output vector is bit-identical for every capacity/thread count;
//! per-participant states are merged by the caller with
//! order-independent reductions; the error at the smallest item index
//! wins.
//!
//! Everything here goes through the `tkdc-sync` facade, so
//! `cargo xtask model-check` can exhaustively explore the park/unpark
//! protocol (see `pool_*` harnesses in `tests/model_check.rs`).

use std::any::Any;
use std::ops::Range;
use std::time::Instant;

use tkdc_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use tkdc_sync::thread::{self, JoinHandle};
use tkdc_sync::{Arc, Condvar, Mutex};

use tkdc_common::error::{Error, Result};

/// Divisor steering the guided owner grain: each pop takes
/// `remaining / GRAIN_DIVISOR` of the participant's own range, so every
/// participant comes back for more work a few times and the tail is
/// finely sliced.
const GRAIN_DIVISOR: usize = 4;

/// Upper bound on a single claimed chunk, so enormous batches still
/// rebalance at a reasonable frequency.
const MAX_GRAIN: usize = 1024;

/// Owner grain: a few round-trips to the deque per participant, single
/// items at the tail (guided self-scheduling).
fn own_grain(len: usize) -> usize {
    (len / GRAIN_DIVISOR).clamp(1, MAX_GRAIN).min(len)
}

/// Steal grain: half the victim's remaining work, grain-capped. Taking
/// a chunk (not one index) amortizes the lock traffic that made
/// single-index stealing lose to static partitioning at 2 threads.
fn steal_grain(len: usize) -> usize {
    (len / 2).clamp(1, MAX_GRAIN).min(len)
}

/// Panic shield around one chunk of user work. In the real build a
/// worker panic is captured and re-raised on the submitting thread; in
/// the model-check build panics must propagate unmodified so the
/// checker's own unwinding (used to abort explored executions) is
/// never swallowed.
#[cfg(not(tkdc_model_check))]
fn shield<R>(f: impl FnOnce() -> R) -> std::result::Result<R, Box<dyn Any + Send + 'static>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
}

/// Model-check twin of [`shield`]: transparent.
#[cfg(tkdc_model_check)]
fn shield<R>(f: impl FnOnce() -> R) -> std::result::Result<R, Box<dyn Any + Send + 'static>> {
    Ok(f())
}

/// Per-participant telemetry counters. All updates are `Relaxed`
/// atomics — telemetry is statistics, never synchronization — and
/// every counter is monotonic, so point-in-time snapshots are safe to
/// diff. Lives behind an `Arc` per pool worker (plus one shared by all
/// submitting threads), appended to on every chunk and every
/// park/unpark transition.
///
/// Wall-time counters (`busy_ns` / `idle_ns`) deliberately stay *out*
/// of the per-query [`QueryStats`](crate::qstats::QueryStats): those
/// are asserted bit-equal across thread counts, and wall time never is.
#[derive(Debug, Default)]
pub struct WorkerCounters {
    /// Items executed (summed over claimed chunks).
    tasks_run: AtomicU64,
    /// Chunks obtained by stealing from another participant's deque.
    chunks_stolen: AtomicU64,
    /// Times the participant parked on the job condvar.
    parks: AtomicU64,
    /// Times the participant returned from a park.
    unparks: AtomicU64,
    /// Nanoseconds spent executing user work.
    busy_ns: AtomicU64,
    /// Nanoseconds spent parked waiting for work.
    idle_ns: AtomicU64,
}

impl WorkerCounters {
    fn add_tasks(&self, n: u64) {
        // ORDERING: Relaxed — independent statistical counters; totals
        // are read via `snapshot` under the usual staleness contract.
        self.tasks_run.fetch_add(n, Ordering::Relaxed);
    }

    fn add_steal(&self) {
        // ORDERING: Relaxed — see `add_tasks`.
        self.chunks_stolen.fetch_add(1, Ordering::Relaxed);
    }

    fn add_park(&self) {
        // ORDERING: Relaxed — see `add_tasks`.
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    fn add_unpark(&self, idle: u64) {
        // ORDERING: Relaxed — see `add_tasks`.
        self.unparks.fetch_add(1, Ordering::Relaxed);
        // ORDERING: Relaxed — see `add_tasks`.
        self.idle_ns.fetch_add(idle, Ordering::Relaxed);
    }

    fn add_busy(&self, ns: u64) {
        // ORDERING: Relaxed — see `add_tasks`.
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Point-in-time plain-data copy.
    pub fn snapshot(&self) -> WorkerTelemetry {
        // ORDERING: Relaxed — each field is a point-in-time read; the
        // snapshot may be slightly torn across fields while the worker
        // runs, exactly like every other metrics read in the workspace.
        WorkerTelemetry {
            tasks_run: self.tasks_run.load(Ordering::Relaxed), // ORDERING: see above
            chunks_stolen: self.chunks_stolen.load(Ordering::Relaxed), // ORDERING: see above
            parks: self.parks.load(Ordering::Relaxed),         // ORDERING: see above
            unparks: self.unparks.load(Ordering::Relaxed),     // ORDERING: see above
            busy_ns: self.busy_ns.load(Ordering::Relaxed),     // ORDERING: see above
            idle_ns: self.idle_ns.load(Ordering::Relaxed),     // ORDERING: see above
        }
    }
}

/// Plain-data snapshot of one participant's [`WorkerCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerTelemetry {
    /// Items executed (summed over claimed chunks).
    pub tasks_run: u64,
    /// Chunks obtained by stealing from another participant's deque.
    pub chunks_stolen: u64,
    /// Times the participant parked on the job condvar.
    pub parks: u64,
    /// Times the participant returned from a park.
    pub unparks: u64,
    /// Nanoseconds spent executing user work.
    pub busy_ns: u64,
    /// Nanoseconds spent parked waiting for work.
    pub idle_ns: u64,
}

impl WorkerTelemetry {
    /// Fraction of accounted time spent executing work:
    /// `busy / (busy + idle)`; `0.0` before any accounting.
    pub fn utilization(&self) -> f64 {
        let denom = self.busy_ns.saturating_add(self.idle_ns);
        if denom == 0 {
            0.0
        } else {
            // CAST: ns totals above 2^53 (~104 days) only cost ratio
            // precision, not correctness.
            self.busy_ns as f64 / denom as f64
        }
    }

    /// Element-wise sum (for pool-level aggregates).
    fn merge(&mut self, other: &WorkerTelemetry) {
        self.tasks_run += other.tasks_run;
        self.chunks_stolen += other.chunks_stolen;
        self.parks += other.parks;
        self.unparks += other.unparks;
        self.busy_ns += other.busy_ns;
        self.idle_ns += other.idle_ns;
    }
}

/// Snapshot of a whole pool's telemetry: one entry per spawned worker
/// (in spawn order) plus one shared entry for every submitting thread.
#[derive(Debug, Clone, Default)]
pub struct PoolTelemetry {
    /// Per-worker snapshots, index = spawn order.
    pub workers: Vec<WorkerTelemetry>,
    /// Aggregate over all submitting threads (submitters participate in
    /// their own jobs but never park on the pool condvar).
    pub submitters: WorkerTelemetry,
}

impl PoolTelemetry {
    /// Aggregate over workers and submitters.
    pub fn total(&self) -> WorkerTelemetry {
        let mut t = self.submitters;
        for w in &self.workers {
            t.merge(w);
        }
        t
    }

    /// Pool utilization: busy fraction of the *workers'* accounted time
    /// (submitters never park, so including them would inflate the
    /// figure). `0.0` for a pool that has not spawned workers.
    pub fn utilization(&self) -> f64 {
        let mut agg = WorkerTelemetry::default();
        for w in &self.workers {
            agg.merge(w);
        }
        agg.utilization()
    }
}

/// What the parked workers see: "participate in the current job".
/// Erases the job's item/state/closure types so heterogeneous batches
/// can share one pool. The participant's telemetry counters ride in so
/// chunk and busy-time accounting lands on the right track.
trait JobRun: Send + Sync {
    fn participate(&self, counters: &WorkerCounters);
}

/// Aggregated job output, guarded by [`Job::done`]. The job is
/// complete when `remaining == 0 && active == 0`: every item has been
/// published (or drained by an abort) *and* every engaged participant
/// has pushed its final state.
struct JobOutput<T, S> {
    remaining: usize,
    active: usize,
    segments: Vec<(usize, Vec<T>)>,
    states: Vec<S>,
    error: Option<(usize, Error)>,
    panic: Option<Box<dyn Any + Send + 'static>>,
}

/// One submitted batch: per-participant deques plus the closures and
/// the output accumulator.
struct Job<T, S, G, F> {
    /// Contiguous per-participant ranges; owner pops from the front,
    /// thieves steal from the back.
    slots: Vec<Mutex<Range<usize>>>,
    /// Participant slots are claimed first-come; claims past
    /// `slots.len()` bounce back to the park loop.
    next_slot: AtomicUsize,
    init: G,
    work: F,
    done: Mutex<JobOutput<T, S>>,
    done_cv: Condvar,
}

impl<T, S, G, F> Job<T, S, G, F>
where
    T: Send,
    S: Send,
    G: Fn() -> S + Send + Sync,
    F: Fn(usize, &mut S) -> Result<T> + Send + Sync,
{
    /// Pops a grain from this participant's own deque, or steals a
    /// chunk from the first non-empty victim (round-robin scan). The
    /// flag reports whether the chunk was stolen.
    fn pop_or_steal(&self, slot: usize) -> Option<(Range<usize>, bool)> {
        {
            let mut own = self.slots[slot].lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
            if !own.is_empty() {
                let take = own_grain(own.len());
                let chunk = own.start..own.start + take;
                own.start += take;
                return Some((chunk, false));
            }
        }
        let n = self.slots.len();
        for off in 1..n {
            let mut victim = self.slots[(slot + off) % n].lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
            if !victim.is_empty() {
                let take = steal_grain(victim.len());
                let chunk = victim.end - take..victim.end;
                victim.end -= take;
                return Some((chunk, true));
            }
        }
        None
    }

    /// Empties every deque (advisory abort after an error/panic) and
    /// debits the drained items from `remaining` so the completion
    /// condition is still reached. In-flight chunks held by other
    /// participants debit themselves when they finish.
    fn drain_slots(&self) {
        let mut drained = 0usize;
        for slot in &self.slots {
            let mut r = slot.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
            drained += r.len();
            r.start = r.end;
        }
        if drained > 0 {
            let mut out = self.done.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
            out.remaining -= drained;
        }
    }

    /// Publishes one finished chunk and debits `remaining`.
    fn publish_chunk(&self, start: usize, seg: Vec<T>, len: usize) {
        let mut out = self.done.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
        out.segments.push((start, seg));
        out.remaining -= len;
    }
}

impl<T, S, G, F> JobRun for Job<T, S, G, F>
where
    T: Send,
    S: Send,
    G: Fn() -> S + Send + Sync,
    F: Fn(usize, &mut S) -> Result<T> + Send + Sync,
{
    fn participate(&self, counters: &WorkerCounters) {
        // ORDERING: Relaxed — the counter only allocates distinct slot
        // numbers; all data transfer goes through the slot/done
        // mutexes. Model-checked by `pool_*` in tests/model_check.rs.
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        if slot >= self.slots.len() {
            return;
        }
        {
            let mut out = self.done.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
            out.active += 1;
        }
        let mut state = (self.init)();
        while let Some((chunk, stolen)) = self.pop_or_steal(slot) {
            if stolen {
                counters.add_steal();
            }
            let start = chunk.start;
            let len = chunk.len();
            counters.add_tasks(len as u64); // CAST: chunk length widens to u64
            let busy_t0 = Instant::now();
            let ran = shield(|| -> std::result::Result<Vec<T>, (usize, Error)> {
                let mut seg = Vec::with_capacity(len);
                for i in chunk {
                    match (self.work)(i, &mut state) {
                        Ok(v) => seg.push(v),
                        Err(e) => return Err((i, e)),
                    }
                }
                Ok(seg)
            });
            // CAST: one chunk's wall time is far below u64 ns.
            counters.add_busy(busy_t0.elapsed().as_nanos() as u64);
            match ran {
                Ok(Ok(seg)) => self.publish_chunk(start, seg, len),
                Ok(Err((i, e))) => {
                    // The whole chunk is debited; its partial segment
                    // is dropped (the batch errors out before tiling).
                    {
                        let mut out = self.done.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
                        out.remaining -= len;
                        if out.error.as_ref().is_none_or(|(fi, _)| i < *fi) {
                            out.error = Some((i, e));
                        }
                    }
                    self.drain_slots();
                    break;
                }
                Err(payload) => {
                    {
                        let mut out = self.done.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
                        out.remaining -= len;
                        if out.panic.is_none() {
                            out.panic = Some(payload);
                        }
                    }
                    self.drain_slots();
                    break;
                }
            }
        }
        let mut out = self.done.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
        out.states.push(state);
        out.active -= 1;
        if out.remaining == 0 && out.active == 0 {
            self.done_cv.notify_all();
        }
    }
}

/// State the workers park on. One job at a time; `epoch` distinguishes
/// "this job is new to me" from "I already worked on this one and it
/// has not been replaced yet".
struct PoolState {
    job: Option<Arc<dyn JobRun>>,
    epoch: u64,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs; `notify_all` on submit and on
    /// shutdown.
    work_ready: Condvar,
}

/// A long-lived work-stealing thread pool.
///
/// Lifecycle:
/// * **Creation** ([`Pool::new`]) allocates only the shared state; no
///   threads are spawned until the first submission that needs them.
/// * **Sizing**: workers grow on demand. A job asking for `n` threads
///   engages the submitting thread plus up to `n - 1` pool workers
///   (spawned lazily on the first job that needs them, kept forever).
/// * **Submission** ([`Pool::run_batch`]) is serialized — one job in
///   flight; concurrent submitters queue on an internal mutex. The
///   submitter always participates, so the pool makes progress even
///   if every worker is still waking up.
/// * **Drain on drop**: `Drop` flags shutdown, wakes all workers and
///   joins them; any submitted job has already completed (submission
///   holds `&self`).
pub struct Pool {
    shared: Arc<PoolShared>,
    /// Lazily spawned worker handles, joined on drop.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Telemetry counters, one per spawned worker (same order as
    /// `workers`), each shared with its worker thread.
    worker_counters: Mutex<Vec<Arc<WorkerCounters>>>,
    /// Telemetry for submitting threads (shared: submitters are
    /// external threads the pool cannot enumerate).
    submitter_counters: Arc<WorkerCounters>,
    /// Serializes submissions: at most one job published at a time.
    submit: Mutex<()>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("spawned", &self.workers.lock().unwrap().len()) // INVARIANT: user work is shielded; pool locks cannot be poisoned
            .finish()
    }
}

fn worker_loop(shared: &PoolShared, counters: &WorkerCounters) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    if let Some(job) = st.job.clone() {
                        last_epoch = st.epoch;
                        break job;
                    }
                    // Job already completed and was cleared: catch up
                    // so a re-submit of epoch+1 still looks new.
                    last_epoch = st.epoch;
                }
                counters.add_park();
                let idle_t0 = Instant::now();
                st = shared.work_ready.wait(st).unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
                                                          // CAST: one park's wall time is far below u64 ns.
                counters.add_unpark(idle_t0.elapsed().as_nanos() as u64);
            }
        };
        job.participate(counters);
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::new()
    }
}

impl Pool {
    /// An empty pool. No threads are spawned until the first batch that
    /// needs them; workers grow to match the largest `n_threads` ever
    /// requested and persist until drop.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    job: None,
                    epoch: 0,
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
            worker_counters: Mutex::new(Vec::new()),
            submitter_counters: Arc::new(WorkerCounters::default()),
            submit: Mutex::new(()),
        }
    }

    /// Number of worker threads currently alive (spawned lazily; the
    /// submitting thread is always an extra participant on top).
    pub fn spawned(&self) -> usize {
        self.workers.lock().unwrap().len() // INVARIANT: user work is shielded; pool locks cannot be poisoned
    }

    /// Point-in-time telemetry: per-worker counters (spawn order) plus
    /// the shared submitter aggregate. Counters persist across batches
    /// and only ever grow.
    pub fn telemetry(&self) -> PoolTelemetry {
        let workers = self
            .worker_counters
            .lock()
            .unwrap() // INVARIANT: user work is shielded; pool locks cannot be poisoned
            .iter()
            .map(|c| c.snapshot())
            .collect();
        PoolTelemetry {
            workers,
            submitters: self.submitter_counters.snapshot(),
        }
    }

    fn ensure_workers(&self, needed: usize) {
        let mut workers = self.workers.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
        let mut counters = self.worker_counters.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
        while workers.len() < needed {
            let shared = self.shared.clone();
            let c = Arc::new(WorkerCounters::default());
            counters.push(c.clone());
            // JOIN: handles are joined in `Pool::drop` after the
            // shutdown flag wakes every parked worker.
            workers.push(thread::spawn(move || worker_loop(&shared, &c)));
        }
    }

    /// Runs `work(i, &mut state)` for every `i` in `0..total` across
    /// the pool, returning per-item results in index order plus the
    /// participants' final states (padded with `init()` to exactly the
    /// engaged thread count, so state-vector length is deterministic).
    ///
    /// Results are in index order and identical for any thread count,
    /// the lowest-index error wins, and `n_threads <= 1` (or a trivial
    /// batch) runs inline with no synchronization at all. Closures must
    /// be `'static` because workers outlive the call — clone an `Arc` of
    /// the model/queries into them. A worker may still hold the job (and
    /// so the closure's captures) for a moment after this returns, so
    /// callers must not expect to be the sole owner of a captured `Arc`
    /// again.
    ///
    /// # Errors
    /// Propagates the lowest-index error returned by `work`.
    ///
    /// # Panics
    /// Re-raises (on this thread) the first panic captured from `work`.
    pub fn run_batch<T, S, G, F>(
        &self,
        total: usize,
        n_threads: usize,
        init: G,
        work: F,
    ) -> Result<(Vec<T>, Vec<S>)>
    where
        T: Send + 'static,
        S: Send + 'static,
        G: Fn() -> S + Send + Sync + 'static,
        F: Fn(usize, &mut S) -> Result<T> + Send + Sync + 'static,
    {
        let n = n_threads.max(1).min(total.max(1));
        if n == 1 {
            let busy_t0 = Instant::now();
            let mut state = init();
            let mut out = Vec::with_capacity(total);
            for i in 0..total {
                out.push(work(i, &mut state)?);
            }
            self.submitter_counters.add_tasks(total as u64); // CAST: batch size widens to u64
                                                             // CAST: one batch's wall time is far below u64 ns.
            let busy = busy_t0.elapsed().as_nanos() as u64;
            self.submitter_counters.add_busy(busy);
            return Ok((out, vec![state]));
        }

        self.ensure_workers(n - 1);

        // Static contiguous split; stealing rebalances skew.
        let base = total / n;
        let extra = total % n;
        let mut slots = Vec::with_capacity(n);
        let mut at = 0usize;
        for s in 0..n {
            let len = base + usize::from(s < extra);
            slots.push(Mutex::new(at..at + len));
            at += len;
        }
        debug_assert_eq!(at, total);

        let job = Arc::new(Job {
            slots,
            next_slot: AtomicUsize::new(0),
            init,
            work,
            done: Mutex::new(JobOutput {
                remaining: total,
                active: 0,
                segments: Vec::new(),
                states: Vec::new(),
                error: None,
                panic: None,
            }),
            done_cv: Condvar::new(),
        });

        let submit = self.submit.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
        {
            let mut st = self.shared.state.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
            st.job = Some(job.clone() as Arc<dyn JobRun>);
            st.epoch += 1;
            self.shared.work_ready.notify_all();
        }

        // The submitter is participant #0: progress is guaranteed even
        // before any worker wakes, and a 1-thread job never parks.
        job.participate(&self.submitter_counters);

        let mut out = job.done.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
        while !(out.remaining == 0 && out.active == 0) {
            out = job.done_cv.wait(out).unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
        }
        let mut segments = std::mem::take(&mut out.segments);
        let mut states = std::mem::take(&mut out.states);
        let error = out.error.take();
        let panic = out.panic.take();
        drop(out);

        {
            let mut st = self.shared.state.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
            st.job = None;
        }
        drop(submit);

        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        if let Some((_, e)) = error {
            return Err(e);
        }

        // A worker that woke too late to do any work contributes no
        // state; pad so callers see a deterministic count.
        while states.len() < n {
            states.push((job.init)());
        }

        segments.sort_unstable_by_key(|(start, _)| *start);
        let mut out = Vec::with_capacity(total);
        for (start, seg) in segments {
            // INVARIANT: deque chunks are disjoint and cover 0..total
            // exactly when no error occurred, so sorted segments tile.
            assert_eq!(start, out.len(), "pool segments must tile");
            out.extend(seg);
        }
        assert_eq!(out.len(), total, "pool must cover the batch");
        Ok((out, states))
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap(); // INVARIANT: user work is shielded; pool locks cannot be poisoned
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        let handles = std::mem::take(&mut *self.workers.lock().unwrap()); // INVARIANT: user work is shielded; pool locks cannot be poisoned
        for h in handles {
            // JOIN: drop blocks until every worker has observed
            // shutdown and exited its park loop.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sizes shrink under Miri (CI's miri-smoke job runs these tests
    /// interpreted, ~3 orders of magnitude slower than native).
    const N: usize = if cfg!(miri) { 96 } else { 4000 };

    #[test]
    fn pool_matches_serial_for_any_thread_count() {
        let work = |i: usize, acc: &mut u64| -> Result<u64> {
            *acc += 1;
            Ok((i as u64) * 7 + 3)
        };
        let pool = Pool::new();
        let (serial, _) = pool.run_batch(N, 1, || 0u64, work).unwrap();
        for threads in [2, 3, 4, 8] {
            let (parallel, states) = pool.run_batch(N, threads, || 0u64, work).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
            assert_eq!(states.iter().sum::<u64>(), N as u64);
            assert_eq!(states.len(), threads);
        }
    }

    #[test]
    fn pool_reuse_is_stable_across_batches() {
        let pool = Pool::new();
        let expect: Vec<usize> = (0..N).map(|i| i * 2).collect();
        for batch in 0..3 {
            let (out, _) = pool
                .run_batch(N, 4, || (), |i, _: &mut ()| Ok(i * 2))
                .unwrap();
            assert_eq!(out, expect, "batch={batch}");
        }
        // Workers were spawned once and persisted.
        assert_eq!(pool.spawned(), 3);
    }

    #[test]
    fn pool_spawns_lazily_and_grows_on_demand() {
        let pool = Pool::new();
        assert_eq!(pool.spawned(), 0, "creation spawns nothing");
        let (out, states) = pool.run_batch(N, 2, || (), |i, _: &mut ()| Ok(i)).unwrap();
        assert_eq!(out.len(), N);
        assert_eq!(states.len(), 2);
        assert_eq!(pool.spawned(), 1, "2 threads ⇒ submitter + 1 worker");
        // A larger request grows the worker set; it never shrinks.
        let (_, states) = pool.run_batch(N, 8, || (), |i, _: &mut ()| Ok(i)).unwrap();
        assert_eq!(states.len(), 8);
        assert_eq!(pool.spawned(), 7, "8 threads ⇒ submitter + 7 workers");
        let (_, states) = pool.run_batch(N, 2, || (), |i, _: &mut ()| Ok(i)).unwrap();
        assert_eq!(states.len(), 2);
        assert_eq!(pool.spawned(), 7, "workers persist after a smaller job");
    }

    #[test]
    fn pool_returns_lowest_index_error() {
        let n = if cfg!(miri) { 64 } else { 1000 };
        let work = |i: usize, _: &mut ()| -> Result<usize> {
            if i == 37 || i == 612 {
                Err(Error::EmptyInput("boom"))
            } else {
                Ok(i)
            }
        };
        let pool = Pool::new();
        for threads in [1, 4] {
            let err = pool.run_batch(n, threads, || (), work).unwrap_err();
            assert!(
                matches!(err, Error::EmptyInput("boom")),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn pool_empty_and_tiny_batches() {
        let pool = Pool::new();
        let (out, _) = pool.run_batch(0, 8, || (), |i, _: &mut ()| Ok(i)).unwrap();
        assert!(out.is_empty());
        let (out, _) = pool.run_batch(3, 8, || (), |i, _: &mut ()| Ok(i)).unwrap();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn pool_propagates_worker_panic() {
        let pool = Pool::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.run_batch(
                256,
                4,
                || (),
                |i, _: &mut ()| {
                    assert!(i != 100, "deliberate test panic");
                    Ok(i)
                },
            );
        }));
        assert!(caught.is_err(), "worker panic must re-raise on submitter");
        // The pool is still usable after a panicked job.
        let (out, _) = pool.run_batch(8, 4, || (), |i, _: &mut ()| Ok(i)).unwrap();
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn pool_is_shareable_across_submitting_threads() {
        let pool = Arc::new(Pool::new());
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let pool = pool.clone();
                thread::spawn(move || {
                    let (out, _) = pool
                        .run_batch(N, 2, || (), move |i, _: &mut ()| Ok(i + t))
                        .unwrap();
                    assert_eq!(out[0], t);
                    assert_eq!(out[N - 1], N - 1 + t);
                })
            })
            .collect();
        for h in handles {
            // JOIN: submitters joined before the pool is dropped.
            h.join().unwrap();
        }
    }

    #[test]
    fn telemetry_accounts_every_item_exactly_once() {
        let pool = Pool::new();
        assert_eq!(pool.telemetry().workers.len(), 0);
        for threads in [1, 4] {
            let before = pool.telemetry().total();
            let (_, _) = pool
                .run_batch(N, threads, || (), |i, _: &mut ()| Ok(i))
                .unwrap();
            let after = pool.telemetry().total();
            // Items are claimed exactly once, whoever runs them.
            assert_eq!(
                after.tasks_run - before.tasks_run,
                N as u64,
                "threads={threads}"
            );
            assert!(after.chunks_stolen <= after.tasks_run);
        }
        let t = pool.telemetry();
        assert_eq!(t.workers.len(), 3, "4 threads ⇒ 3 spawned workers");
        // Workers have parked at least once each (initial park before
        // the first job) and every unpark matches an earlier park.
        for w in &t.workers {
            assert!(w.parks >= w.unparks);
        }
        // Submitters never park on the pool condvar.
        assert_eq!(t.submitters.parks, 0);
        assert!(t.submitters.busy_ns > 0);
        let u = t.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    }

    #[test]
    fn worker_telemetry_utilization_bounds() {
        let w = WorkerTelemetry::default();
        assert!(w.utilization().total_cmp(&0.0).is_eq());
        let w = WorkerTelemetry {
            busy_ns: 3,
            idle_ns: 1,
            ..Default::default()
        };
        assert!((w.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn grains_are_chunks_not_single_indices() {
        // Regression guard for the satellite fix: a steal must take a
        // chunk when the victim has plenty left.
        assert_eq!(steal_grain(1000), 500);
        assert_eq!(steal_grain(3), 1);
        assert_eq!(steal_grain(1), 1);
        assert!(steal_grain(1_000_000) <= MAX_GRAIN);
        assert_eq!(own_grain(4096), 1024);
        assert_eq!(own_grain(1), 1);
    }
}
