//! Instrumentation for the pruned traversal.
//!
//! The paper's factor analysis (Fig. 12) and lesion analysis (Fig. 16)
//! report both throughput and the number of *kernel evaluations per
//! query*; this module records those counters plus which rule terminated
//! each traversal, so the benchmark harness can regenerate both panels.

use crate::trace::Tracer;
use std::collections::BinaryHeap;

/// Why a `BoundDensity` traversal stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneCause {
    /// Lower bound rose above the upper threshold: certain HIGH.
    ThresholdHigh,
    /// Upper bound fell below the lower threshold: certain LOW.
    ThresholdLow,
    /// Bounds converged within `ε·t_l` (Eq. 8).
    Tolerance,
    /// The k-d tree was exhausted: the density is exact.
    Exhausted,
    /// The grid cache classified the point before any traversal.
    Grid,
    /// The ε-folded (coreset) interval straddles the threshold and can
    /// no longer resolve to HIGH or LOW: the query is UNKNOWN.
    Straddle,
}

impl PruneCause {
    /// Stable lowercase name used by query trace records and
    /// metric labels. This is the dependency boundary with `tkdc-obs`:
    /// the observability layer sees causes only as these strings.
    pub fn as_str(&self) -> &'static str {
        match self {
            PruneCause::ThresholdHigh => "threshold_high",
            PruneCause::ThresholdLow => "threshold_low",
            PruneCause::Tolerance => "tolerance",
            PruneCause::Exhausted => "exhausted",
            PruneCause::Grid => "grid",
            PruneCause::Straddle => "straddle",
        }
    }
}

/// Aggregate statistics over one or more queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries recorded.
    pub queries: u64,
    /// Individual point-kernel evaluations (leaf scans).
    pub kernel_evals: u64,
    /// Interior/leaf nodes popped from the priority queue.
    pub nodes_expanded: u64,
    /// Bounding-box kernel bound evaluations (two per child push plus the
    /// root).
    pub bound_evals: u64,
    /// Queries answered purely by the grid cache.
    pub grid_prunes: u64,
    /// Queries terminated by the HIGH threshold rule.
    pub threshold_high: u64,
    /// Queries terminated by the LOW threshold rule.
    pub threshold_low: u64,
    /// Queries terminated by the tolerance rule.
    pub tolerance: u64,
    /// Queries that exhausted the index (exact densities).
    pub exhausted: u64,
    /// ε-folded queries stopped once their label was certainly UNKNOWN.
    pub straddle: u64,
}

impl QueryStats {
    /// Records a traversal outcome.
    pub fn record_outcome(&mut self, cause: PruneCause) {
        self.queries += 1;
        match cause {
            PruneCause::ThresholdHigh => self.threshold_high += 1,
            PruneCause::ThresholdLow => self.threshold_low += 1,
            PruneCause::Tolerance => self.tolerance += 1,
            PruneCause::Exhausted => self.exhausted += 1,
            PruneCause::Grid => self.grid_prunes += 1,
            PruneCause::Straddle => self.straddle += 1,
        }
    }

    /// Merges another stats block into this one (used when gathering
    /// per-thread scratches after a parallel batch).
    pub fn merge(&mut self, other: &QueryStats) {
        self.queries += other.queries;
        self.kernel_evals += other.kernel_evals;
        self.nodes_expanded += other.nodes_expanded;
        self.bound_evals += other.bound_evals;
        self.grid_prunes += other.grid_prunes;
        self.threshold_high += other.threshold_high;
        self.threshold_low += other.threshold_low;
        self.tolerance += other.tolerance;
        self.exhausted += other.exhausted;
        self.straddle += other.straddle;
    }

    /// Every counter as a `(stable name, value)` pair, in declaration
    /// order — the single source of truth for reporting these counters
    /// through a metrics registry or a JSON renderer. Adding a field to
    /// `QueryStats` must extend this list (the merge proptest counts on
    /// it covering everything).
    pub fn named_counters(&self) -> [(&'static str, u64); 10] {
        [
            ("queries", self.queries),
            ("kernel_evals", self.kernel_evals),
            ("nodes_expanded", self.nodes_expanded),
            ("bound_evals", self.bound_evals),
            ("grid_prunes", self.grid_prunes),
            ("threshold_high", self.threshold_high),
            ("threshold_low", self.threshold_low),
            ("tolerance", self.tolerance),
            ("exhausted", self.exhausted),
            ("straddle", self.straddle),
        ]
    }

    /// Mean point-kernel evaluations per recorded query.
    pub fn kernels_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.kernel_evals as f64 / self.queries as f64
        }
    }
}

/// Priority-queue entry for the traversal: a node plus the bound
/// contribution it currently adds to the running totals (so popping it
/// can subtract exactly what was added).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapEntry {
    /// Refinement priority `W_r·(K(u_min) − K(ū))`.
    pub priority: f64,
    /// Arena node id.
    pub node: u32,
    /// This node's current lower-bound contribution.
    pub w_lo: f64,
    /// This node's current upper-bound contribution.
    pub w_hi: f64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority.total_cmp(&other.priority)
    }
}

/// Reusable per-thread workspace for queries: the traversal priority
/// queue plus accumulated statistics. Reusing the heap across queries
/// avoids an allocation per classification (the hot loop of the whole
/// system).
#[derive(Debug, Default)]
pub struct QueryScratch {
    pub(crate) heap: BinaryHeap<HeapEntry>,
    /// Statistics accumulated by every query run through this scratch.
    pub stats: QueryStats,
    /// Per-query trace recorder (inert by default; see
    /// [`crate::trace::Tracer`]).
    pub tracer: Tracer,
    /// When set, the traversal accumulates wall time spent in leaf
    /// kernel sums into [`Self::leaf_ns`]. Off by default — timing is
    /// nondeterministic, so it must never ride in [`QueryStats`]
    /// (whose thread-invariance tests assert exact equality); the batch
    /// driver turns it on under a recording `Spans` handle and emits the
    /// total as one synthetic `classify.leaf_sum` span per worker
    /// scratch.
    pub time_leaves: bool,
    /// Nanoseconds spent in leaf kernel sums (see [`Self::time_leaves`]).
    pub leaf_ns: u64,
}

impl QueryScratch {
    /// Fresh scratch with empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets statistics (the heap is already drained between queries).
    pub fn reset_stats(&mut self) {
        self.stats = QueryStats::default();
    }

    /// Arms the tracer for the query at `index` (a no-op unless the
    /// tracer is enabled and the index is sampled). Must be called
    /// *before* the query's first counter increment: per-query counters
    /// are diffed against the stats snapshot taken here.
    pub fn begin_trace(&mut self, index: u64) {
        self.tracer.begin(index, self.stats);
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-value asserts are deliberate in tests
mod tests {
    use super::*;

    #[test]
    fn outcome_recording() {
        let mut s = QueryStats::default();
        s.record_outcome(PruneCause::ThresholdHigh);
        s.record_outcome(PruneCause::ThresholdLow);
        s.record_outcome(PruneCause::Tolerance);
        s.record_outcome(PruneCause::Exhausted);
        s.record_outcome(PruneCause::Grid);
        s.record_outcome(PruneCause::Straddle);
        assert_eq!(s.queries, 6);
        assert_eq!(s.threshold_high, 1);
        assert_eq!(s.threshold_low, 1);
        assert_eq!(s.tolerance, 1);
        assert_eq!(s.exhausted, 1);
        assert_eq!(s.grid_prunes, 1);
        assert_eq!(s.straddle, 1);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = QueryStats {
            queries: 2,
            kernel_evals: 10,
            nodes_expanded: 4,
            bound_evals: 8,
            ..Default::default()
        };
        let b = QueryStats {
            queries: 3,
            kernel_evals: 5,
            threshold_high: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.queries, 5);
        assert_eq!(a.kernel_evals, 15);
        assert_eq!(a.nodes_expanded, 4);
        assert_eq!(a.threshold_high, 2);
    }

    #[test]
    fn merge_and_named_counters_cover_every_field() {
        // Exhaustive struct literal (no `..Default::default()`): adding
        // a field to `QueryStats` fails compilation here until this
        // audit — and `named_counters` — are extended. Every value is
        // distinct and nonzero so no counter can hide behind another.
        let a = QueryStats {
            queries: 1,
            kernel_evals: 2,
            nodes_expanded: 3,
            bound_evals: 4,
            grid_prunes: 5,
            threshold_high: 6,
            threshold_low: 7,
            tolerance: 8,
            exhausted: 9,
            straddle: 10,
        };
        let named = a.named_counters();
        let mut seen: Vec<u64> = named.iter().map(|&(_, v)| v).collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (1..=10).collect::<Vec<u64>>(),
            "counter missing from named_counters"
        );
        let mut m = a;
        m.merge(&a);
        for ((name, before), (_, after)) in named.iter().zip(m.named_counters()) {
            assert_eq!(after, before * 2, "`{name}` not merged");
        }
        // A merged-in default changes nothing.
        let mut d = a;
        d.merge(&QueryStats::default());
        assert_eq!(d, a);
    }

    #[test]
    fn kernels_per_query_guards_zero() {
        let s = QueryStats::default();
        assert_eq!(s.kernels_per_query(), 0.0);
        let s = QueryStats {
            queries: 4,
            kernel_evals: 10,
            ..Default::default()
        };
        assert_eq!(s.kernels_per_query(), 2.5);
    }

    #[test]
    fn heap_orders_by_priority() {
        let mut h: BinaryHeap<HeapEntry> = BinaryHeap::new();
        for (p, n) in [(1.0, 1u32), (5.0, 2), (3.0, 3)] {
            h.push(HeapEntry {
                priority: p,
                node: n,
                w_lo: 0.0,
                w_hi: 0.0,
            });
        }
        assert_eq!(h.pop().unwrap().node, 2);
        assert_eq!(h.pop().unwrap().node, 3);
        assert_eq!(h.pop().unwrap().node, 1);
    }

    #[test]
    fn scratch_reset() {
        let mut s = QueryScratch::new();
        s.stats.record_outcome(PruneCause::Tolerance);
        assert_eq!(s.stats.queries, 1);
        s.reset_stats();
        assert_eq!(s.stats.queries, 0);
    }
}
