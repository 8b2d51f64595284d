//! Per-query tracing hooks for the pruned traversal.
//!
//! [`Tracer`] is the engine-side adapter between the hot loops
//! (`bound.rs`, the grid fast path) and the plain-data trace records of
//! `tkdc-obs`. It rides inside [`QueryScratch`] so the parallel engine
//! threads it through workers for free. Inert (the default, or sampling
//! set to 0), every hook is guarded by [`Tracer::is_active`], a single
//! discriminant check. A batch driver arms one per worker scratch from
//! its call's [`Spans`](crate::Spans) handle and pushes the collected
//! traces into that handle's sink.
//!
//! Sampling is by *query index* — a tracer built with
//! [`Tracer::enabled`]`(every)` records queries whose batch index is a
//! multiple of `every`. Index-based sampling (rather than a shared
//! counter) keeps traces identical at every thread count: which queries
//! are traced, and each trace's content, depend only on the query
//! itself, never on the schedule.
//!
//! [`QueryScratch`]: crate::qstats::QueryScratch

use crate::qstats::QueryStats;

pub use tkdc_obs::{QueryTrace, TraceStep, TRACE_SCHEMA};

/// Per-scratch trace recorder (see module docs). Inert by default.
#[derive(Debug, Default)]
pub struct Tracer {
    active: Option<ActiveTracer>,
}

#[derive(Debug)]
struct ActiveTracer {
    /// Record queries whose index is a multiple of this.
    every: u64,
    /// The query being traced right now, if any.
    current: Option<Current>,
    /// Completed traces, in the order this scratch finished them.
    traces: Vec<QueryTrace>,
}

#[derive(Debug)]
struct Current {
    trace: QueryTrace,
    /// Scratch-level counter values when the query began; per-query
    /// counters are diffs against this, so one trace's numbers are this
    /// query's exact share of the accumulated [`QueryStats`].
    base: QueryStats,
}

impl Tracer {
    /// A tracer that records every `every`-th query by index (`1` =
    /// every query, `0` = inert, matching "sampling at 0 disables").
    pub fn enabled(every: u64) -> Self {
        if every == 0 {
            Self::default()
        } else {
            Self {
                active: Some(ActiveTracer {
                    every,
                    current: None,
                    traces: Vec::new(),
                }),
            }
        }
    }

    /// Whether a query is being traced *right now* — the guard the hot
    /// loops check before assembling step data.
    #[inline]
    pub fn is_active(&self) -> bool {
        matches!(&self.active, Some(a) if a.current.is_some())
    }

    /// Starts (or, per sampling, skips) the trace for the query at
    /// `index`, diffing future counters against `base`.
    pub fn begin(&mut self, index: u64, base: QueryStats) {
        let Some(a) = &mut self.active else { return };
        a.current = index.is_multiple_of(a.every).then(|| Current {
            trace: QueryTrace {
                query: index,
                t_lo: f64::NAN,
                t_hi: f64::NAN,
                cause: "",
                lower: f64::NAN,
                upper: f64::NAN,
                nodes_expanded: 0,
                kernel_evals: 0,
                bound_evals: 0,
                steps: Vec::new(),
            },
            base,
        });
    }

    /// Records the threshold bounds the current traversal prunes
    /// against.
    pub fn set_thresholds(&mut self, t_lo: f64, t_hi: f64) {
        if let Some(c) = self.current_mut() {
            c.trace.t_lo = t_lo;
            c.trace.t_hi = t_hi;
        }
    }

    /// Appends one refinement step: the running bounds after a node
    /// expansion, with counters diffed against the trace's base.
    pub fn step(&mut self, stats: QueryStats, lower: f64, upper: f64) {
        if let Some(c) = self.current_mut() {
            c.trace.steps.push(TraceStep {
                nodes_expanded: stats.nodes_expanded - c.base.nodes_expanded,
                kernel_evals: stats.kernel_evals - c.base.kernel_evals,
                lower,
                upper,
            });
        }
    }

    /// Completes the current trace with its final bounds and cause.
    pub fn finish(&mut self, cause: &'static str, stats: QueryStats, lower: f64, upper: f64) {
        let Some(a) = &mut self.active else { return };
        if let Some(mut c) = a.current.take() {
            c.trace.cause = cause;
            c.trace.lower = lower;
            c.trace.upper = upper;
            c.trace.nodes_expanded = stats.nodes_expanded - c.base.nodes_expanded;
            c.trace.kernel_evals = stats.kernel_evals - c.base.kernel_evals;
            c.trace.bound_evals = stats.bound_evals - c.base.bound_evals;
            a.traces.push(c.trace);
        }
    }

    /// Completes the current trace as a grid prune: threshold `t`, the
    /// grid's certified `lower` bound, no upper bound (`NAN` → JSON
    /// `null`), no refinement steps.
    pub fn finish_grid(&mut self, t: f64, stats: QueryStats, lower: f64) {
        self.set_thresholds(t, t);
        self.finish("grid", stats, lower, f64::NAN);
    }

    /// Drains the completed traces (in this scratch's completion order;
    /// batch drivers sort merged traces by query index).
    pub fn take_traces(&mut self) -> Vec<QueryTrace> {
        self.active
            .as_mut()
            .map(|a| std::mem::take(&mut a.traces))
            .unwrap_or_default()
    }

    fn current_mut(&mut self) -> Option<&mut Current> {
        self.active.as_mut().and_then(|a| a.current.as_mut())
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-value asserts are deliberate in tests
mod tests {
    use super::*;

    fn stats(nodes: u64, kernels: u64, bounds: u64) -> QueryStats {
        QueryStats {
            nodes_expanded: nodes,
            kernel_evals: kernels,
            bound_evals: bounds,
            ..Default::default()
        }
    }

    #[test]
    fn inert_tracer_records_nothing() {
        for mut t in [Tracer::default(), Tracer::enabled(0)] {
            t.begin(0, QueryStats::default());
            assert!(!t.is_active());
            t.step(stats(1, 2, 3), 0.1, 0.2);
            t.finish("tolerance", stats(1, 2, 3), 0.1, 0.2);
            assert!(t.take_traces().is_empty());
        }
    }

    #[test]
    fn sampling_selects_by_index() {
        let mut t = Tracer::enabled(3);
        for i in 0..7u64 {
            t.begin(i, QueryStats::default());
            assert_eq!(t.is_active(), i % 3 == 0, "index {i}");
            t.finish("exhausted", QueryStats::default(), 0.0, 0.0);
        }
        let traces = t.take_traces();
        let indices: Vec<u64> = traces.iter().map(|tr| tr.query).collect();
        assert_eq!(indices, vec![0, 3, 6]);
    }

    #[test]
    fn counters_are_diffed_against_begin_base() {
        let mut t = Tracer::enabled(1);
        // Scratch already accumulated work from earlier queries.
        t.begin(5, stats(10, 100, 20));
        t.set_thresholds(0.5, 0.7);
        t.step(stats(11, 100, 22), 0.0, 1.0);
        t.step(stats(12, 116, 22), 0.4, 0.6);
        t.finish("tolerance", stats(12, 116, 22), 0.4, 0.6);
        let traces = t.take_traces();
        assert_eq!(traces.len(), 1);
        let tr = &traces[0];
        assert_eq!(tr.query, 5);
        assert_eq!(tr.t_lo, 0.5);
        assert_eq!(tr.t_hi, 0.7);
        assert_eq!(tr.cause, "tolerance");
        assert_eq!(tr.nodes_expanded, 2);
        assert_eq!(tr.kernel_evals, 16);
        assert_eq!(tr.bound_evals, 2);
        assert_eq!(
            tr.steps,
            vec![
                TraceStep {
                    nodes_expanded: 1,
                    kernel_evals: 0,
                    lower: 0.0,
                    upper: 1.0
                },
                TraceStep {
                    nodes_expanded: 2,
                    kernel_evals: 16,
                    lower: 0.4,
                    upper: 0.6
                },
            ]
        );
    }

    #[test]
    fn grid_finish_has_no_upper_bound() {
        let mut t = Tracer::enabled(1);
        t.begin(0, stats(0, 0, 0));
        t.finish_grid(0.01, stats(0, 0, 1), 0.02);
        let traces = t.take_traces();
        assert_eq!(traces[0].cause, "grid");
        assert_eq!(traces[0].bound_evals, 1);
        assert_eq!(traces[0].lower, 0.02);
        assert!(traces[0].upper.is_nan());
        assert!(traces[0].steps.is_empty());
    }

    #[test]
    fn unsampled_query_leaves_tracer_enabled_but_inactive() {
        let mut t = Tracer::enabled(2);
        t.begin(1, QueryStats::default());
        assert!(!t.is_active());
        // finish on an inactive tracer is a no-op, not a panic.
        t.finish("exhausted", QueryStats::default(), 0.0, 0.0);
        assert!(t.take_traces().is_empty());
        // The next sampled index arms it again.
        t.begin(2, QueryStats::default());
        assert!(t.is_active());
    }
}
