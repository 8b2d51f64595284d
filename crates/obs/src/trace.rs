//! Per-query trace records and their JSONL serialization.
//!
//! ## Query records (`tkdc-trace/v2`, `"kind":"query"`)
//!
//! A trace stream is JSON Lines under one schema, [`TRACE_SCHEMA`]: one
//! self-describing JSON object per line, no enclosing array, so sinks
//! can append and consumers can stream. Every line carries the schema
//! tag and a `kind` — `span` for the stage records of
//! [`crate::span`], `query` for the per-query records defined here —
//! so a single line is verifiable out of context and both kinds
//! interleave in one file. Query record field reference:
//!
//! ```json
//! {"schema":"tkdc-trace/v2","kind":"query","query":17,"t_lo":1.2e-3,
//!  "t_hi":1.2e-3,"cause":"threshold_high","lower":2.1e-3,"upper":2.4e-3,
//!  "nodes_expanded":12,"kernel_evals":160,"bound_evals":26,
//!  "steps":[{"nodes":1,"kevals":0,"lower":0.0,"upper":0.31}, ...]}
//! ```
//!
//! * `query` — the query's index within its batch (0 for single-query
//!   runs). Indices make traces comparable across thread counts: the
//!   parallel engine may complete queries in any order, but a trace's
//!   content depends only on its query, so sorting by `query` yields a
//!   schedule-independent stream.
//! * `t_lo` / `t_hi` — the threshold bounds the traversal pruned
//!   against (equal for classification queries). `null` when a bound is
//!   not finite (e.g. the exhaustive oracle's `+inf` upper threshold).
//! * `cause` — why the traversal stopped: `threshold_high`,
//!   `threshold_low`, `tolerance`, `exhausted`, `grid`, or `straddle`
//!   (a coreset model's ε-folded interval straddles the threshold and
//!   can no longer resolve either way: the query is UNKNOWN).
//! * `lower` / `upper` — the final certified density bounds (`upper` is
//!   `null` for grid-pruned queries, where only a lower bound exists).
//! * `nodes_expanded` / `kernel_evals` / `bound_evals` — this query's
//!   exact share of the engine's `QueryStats` counters, so summing a
//!   fully-sampled stream reproduces the batch aggregate.
//! * `steps` — the bound-convergence trajectory, one entry per
//!   refinement (heap pop), each recording the counters and running
//!   `[lower, upper]` *after* that refinement.

/// Schema tag carried by every trace line, span and query records
/// alike.
pub const TRACE_SCHEMA: &str = "tkdc-trace/v2";

/// One refinement step of a traversal: the running counters and bounds
/// after expanding one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep {
    /// Nodes expanded so far in this query (including this step).
    pub nodes_expanded: u64,
    /// Point-kernel evaluations so far in this query.
    pub kernel_evals: u64,
    /// Running lower density bound after this step.
    pub lower: f64,
    /// Running upper density bound after this step.
    pub upper: f64,
}

/// The complete trace of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Index of the query within its batch.
    pub query: u64,
    /// Lower threshold bound the traversal pruned against.
    pub t_lo: f64,
    /// Upper threshold bound the traversal pruned against.
    pub t_hi: f64,
    /// Why the traversal stopped (see module docs for the vocabulary).
    pub cause: &'static str,
    /// Final certified lower bound.
    pub lower: f64,
    /// Final certified upper bound (`NAN` encodes "no upper bound",
    /// serialized as `null`; grid prunes certify only a lower bound).
    pub upper: f64,
    /// Nodes expanded by this query.
    pub nodes_expanded: u64,
    /// Point-kernel evaluations by this query.
    pub kernel_evals: u64,
    /// Bounding-box bound evaluations by this query (grid probe
    /// included).
    pub bound_evals: u64,
    /// Per-refinement bound trajectory.
    pub steps: Vec<TraceStep>,
}

/// Renders a float as a JSON token: non-finite values have no JSON
/// literal and become `null`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:e}` keeps tiny densities exact and compact; a plain `{}`
        // would print hundreds of digits for subnormals.
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// Renders a JSON string literal with the escapes JSON requires.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // CAST: char -> u32 is lossless (a scalar value fits in u32).
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl QueryTrace {
    /// Renders the trace as one `tkdc-trace/v2` query-record JSON line
    /// (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128 + 64 * self.steps.len());
        s.push_str("{\"schema\":\"");
        s.push_str(TRACE_SCHEMA);
        s.push_str("\",\"kind\":\"query\",\"query\":");
        s.push_str(&self.query.to_string());
        s.push_str(",\"t_lo\":");
        s.push_str(&json_f64(self.t_lo));
        s.push_str(",\"t_hi\":");
        s.push_str(&json_f64(self.t_hi));
        s.push_str(",\"cause\":");
        s.push_str(&json_string(self.cause));
        s.push_str(",\"lower\":");
        s.push_str(&json_f64(self.lower));
        s.push_str(",\"upper\":");
        s.push_str(&json_f64(self.upper));
        s.push_str(",\"nodes_expanded\":");
        s.push_str(&self.nodes_expanded.to_string());
        s.push_str(",\"kernel_evals\":");
        s.push_str(&self.kernel_evals.to_string());
        s.push_str(",\"bound_evals\":");
        s.push_str(&self.bound_evals.to_string());
        s.push_str(",\"steps\":[");
        for (i, st) in self.steps.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"nodes\":");
            s.push_str(&st.nodes_expanded.to_string());
            s.push_str(",\"kevals\":");
            s.push_str(&st.kernel_evals.to_string());
            s.push_str(",\"lower\":");
            s.push_str(&json_f64(st.lower));
            s.push_str(",\"upper\":");
            s.push_str(&json_f64(st.upper));
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryTrace {
        QueryTrace {
            query: 3,
            t_lo: 1.5e-3,
            t_hi: 1.5e-3,
            cause: "threshold_high",
            lower: 2.0e-3,
            upper: 2.5e-3,
            nodes_expanded: 2,
            kernel_evals: 16,
            bound_evals: 6,
            steps: vec![
                TraceStep {
                    nodes_expanded: 1,
                    kernel_evals: 0,
                    lower: 0.0,
                    upper: 0.5,
                },
                TraceStep {
                    nodes_expanded: 2,
                    kernel_evals: 16,
                    lower: 2.0e-3,
                    upper: 2.5e-3,
                },
            ],
        }
    }

    #[test]
    fn json_line_shape() {
        let line = sample().to_json_line();
        assert!(line.starts_with("{\"schema\":\"tkdc-trace/v2\",\"kind\":\"query\",\"query\":3,"));
        assert!(line.contains("\"cause\":\"threshold_high\""));
        assert!(line.contains("\"steps\":[{\"nodes\":1,"));
        assert!(line.ends_with("}]}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut t = sample();
        t.upper = f64::NAN;
        t.t_hi = f64::INFINITY;
        let line = t.to_json_line();
        assert!(line.contains("\"upper\":null"));
        assert!(line.contains("\"t_hi\":null"));
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
