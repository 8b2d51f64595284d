//! Golden tests for the observability layer (`tkdc-obs` + the `obs`
//! feature of `tkdc`):
//!
//! * traces are identical at every thread count and every schedule
//!   (sampling is by query index, never by a shared counter),
//! * a fully-sampled trace stream's counters sum exactly to the batch's
//!   returned `QueryStats`,
//! * a trace's final bounds are bit-identical to what
//!   `bound_density_with` returns for the same query,
//! * tracing (on, sampled, or off) never changes labels, bounds, or
//!   statistics relative to the untraced entry points,
//! * the JSONL serialization carries the `tkdc-trace/v1` schema tag on
//!   every line.

use tkdc_sync::{Arc, OnceLock};

use tkdc::{Classifier, ExecPolicy, Params, QueryScratch, Spans, TraceWriter, TRACE_SCHEMA};
use tkdc_common::{Matrix, Rng};

/// One fitted classifier + a query mix (dense core, ε-band shell, far
/// tail) shared by every test in this file. Fixed seed: the goldens
/// below compare exact bit patterns.
fn fixture() -> &'static (Classifier, Arc<Matrix>) {
    static FIXTURE: OnceLock<(Classifier, Arc<Matrix>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = Rng::seed_from(42);
        let mut data = Matrix::with_cols(2);
        for _ in 0..2000 {
            data.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)])
                .unwrap();
        }
        let clf = Classifier::fit(&data, &Params::default().with_seed(42)).unwrap();
        let mut queries = Matrix::with_cols(2);
        for i in 0..120 {
            let row = match i % 3 {
                0 => [rng.normal(0.0, 0.3), rng.normal(0.0, 0.3)], // dense
                1 => [rng.normal(0.0, 2.2), rng.normal(0.0, 2.2)], // near band
                _ => [rng.uniform(8.0, 12.0), rng.uniform(8.0, 12.0)], // tail
            };
            queries.push_row(&row).unwrap();
        }
        (clf, Arc::new(queries))
    })
}

/// Traced classification of the shared queries, stage spans off.
fn classify_traced(
    clf: &Classifier,
    queries: &Arc<Matrix>,
    policy: ExecPolicy,
    every: u64,
) -> tkdc_common::Result<(Vec<tkdc::Label>, tkdc::QueryStats, Vec<tkdc::QueryTrace>)> {
    clf.classify_batch_traced_spanned(Arc::clone(queries), policy, every, &Spans::off())
}

#[test]
fn traces_are_thread_invariant_and_sum_to_query_stats() {
    let (clf, queries) = fixture();
    let (ref_labels, ref_stats) = clf
        .classify_batch_with(queries, ExecPolicy::Serial)
        .unwrap();

    let mut reference_traces = None;
    for policy in [
        ExecPolicy::Serial,
        ExecPolicy::with_threads(2),
        ExecPolicy::with_threads(4),
        ExecPolicy::Parallel { threads: Some(3) },
    ] {
        let (labels, stats, traces) = classify_traced(clf, queries, policy, 1).unwrap();
        assert_eq!(labels, ref_labels, "{policy:?}: labels diverged");
        assert_eq!(stats, ref_stats, "{policy:?}: stats diverged");
        assert_eq!(traces.len(), queries.rows());
        // Sorted by query index, one trace per query.
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.query, i as u64);
        }
        // A fully-sampled stream's counters are an exact decomposition
        // of the batch aggregate.
        let kernels: u64 = traces.iter().map(|t| t.kernel_evals).sum();
        let nodes: u64 = traces.iter().map(|t| t.nodes_expanded).sum();
        let bounds: u64 = traces.iter().map(|t| t.bound_evals).sum();
        assert_eq!(kernels, stats.kernel_evals, "{policy:?}: kernel_evals");
        assert_eq!(nodes, stats.nodes_expanded, "{policy:?}: nodes_expanded");
        assert_eq!(bounds, stats.bound_evals, "{policy:?}: bound_evals");
        // Per-cause trace counts match the per-cause stats counters.
        let count = |cause: &str| traces.iter().filter(|t| t.cause == cause).count() as u64;
        assert_eq!(count("grid"), stats.grid_prunes);
        assert_eq!(count("threshold_high"), stats.threshold_high);
        assert_eq!(count("threshold_low"), stats.threshold_low);
        assert_eq!(count("tolerance"), stats.tolerance);
        assert_eq!(count("exhausted"), stats.exhausted);
        // Compare serialized lines: the derived `PartialEq` treats the
        // NaN ("no upper bound") of grid traces as unequal to itself,
        // while the JSONL form encodes it canonically as `null`.
        let lines: Vec<String> = traces.iter().map(|t| t.to_json_line()).collect();
        match &reference_traces {
            None => reference_traces = Some(lines),
            Some(reference) => {
                assert_eq!(&lines, reference, "{policy:?}: traces diverged");
            }
        }
    }
}

/// A coreset model's UNKNOWN queries end with the `straddle` cause: the
/// traces name it, per-cause trace counts equal the batch counters, and
/// the stream is the same at every thread count.
#[test]
fn coreset_traces_record_straddle_stops() {
    let (_, queries) = fixture();
    let mut rng = Rng::seed_from(43);
    let mut data = Matrix::with_cols(2);
    let mut weights = Vec::new();
    for _ in 0..800 {
        data.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)])
            .unwrap();
        weights.push(1.0 + 3.0 * rng.next_f64());
    }
    let clf = Classifier::fit_weighted(&data, &weights, 0.02, &Params::default()).unwrap();
    let mut reference = None;
    for policy in [ExecPolicy::Serial, ExecPolicy::with_threads(4)] {
        let (labels, stats, traces) = classify_traced(&clf, queries, policy, 1).unwrap();
        let count = |cause: &str| traces.iter().filter(|t| t.cause == cause).count() as u64;
        assert!(stats.straddle > 0, "{stats:?}");
        assert_eq!(count("straddle"), stats.straddle);
        assert_eq!(count("threshold_high"), stats.threshold_high);
        assert_eq!(count("threshold_low"), stats.threshold_low);
        assert_eq!(count("tolerance"), stats.tolerance);
        assert_eq!(count("exhausted"), stats.exhausted);
        for (t, label) in traces.iter().zip(&labels) {
            if t.cause == "straddle" {
                assert_eq!(*label, tkdc::Label::Unknown, "query {}", t.query);
            }
        }
        let lines: Vec<String> = traces.iter().map(|t| t.to_json_line()).collect();
        match &reference {
            None => reference = Some(lines),
            Some(r) => assert_eq!(&lines, r, "{policy:?}: traces diverged"),
        }
    }
}

#[test]
fn sampling_selects_every_nth_query_at_any_thread_count() {
    let (clf, queries) = fixture();
    for policy in [ExecPolicy::Serial, ExecPolicy::with_threads(4)] {
        let (_, _, traces) = classify_traced(clf, queries, policy, 7).unwrap();
        let indices: Vec<u64> = traces.iter().map(|t| t.query).collect();
        let expected: Vec<u64> = (0..queries.rows() as u64).filter(|i| i % 7 == 0).collect();
        assert_eq!(indices, expected, "{policy:?}");
    }
}

#[test]
#[allow(clippy::float_cmp)] // bit-exactness is the property under test
fn tracing_off_or_sampled_changes_no_results() {
    let (clf, queries) = fixture();
    let policy = ExecPolicy::with_threads(2);
    let (ref_labels, ref_stats) = clf.classify_batch_with(queries, policy).unwrap();
    // every = 0: tracer armed but inert.
    let (labels, stats, traces) = classify_traced(clf, queries, policy, 0).unwrap();
    assert_eq!(labels, ref_labels);
    assert_eq!(stats, ref_stats);
    assert!(traces.is_empty());
    // Sparse sampling: same results, fewer traces.
    let (labels, stats, _) = classify_traced(clf, queries, policy, 13).unwrap();
    assert_eq!(labels, ref_labels);
    assert_eq!(stats, ref_stats);

    let (ref_bounds, ref_bstats) = clf.bound_density_batch_with(queries, policy).unwrap();
    let (bounds, bstats, _) = clf
        .bound_density_batch_traced(Arc::clone(queries), policy, 13)
        .unwrap();
    assert_eq!(bstats, ref_bstats);
    for (a, b) in bounds.iter().zip(&ref_bounds) {
        assert_eq!(a.lower.to_bits(), b.lower.to_bits());
        assert_eq!(a.upper.to_bits(), b.upper.to_bits());
        assert_eq!(a.cause, b.cause);
    }
}

#[test]
fn trace_final_bounds_match_bound_density_bitwise() {
    let (clf, queries) = fixture();
    let (bounds, _, traces) = clf
        .bound_density_batch_traced(Arc::clone(queries), ExecPolicy::with_threads(4), 1)
        .unwrap();
    assert_eq!(traces.len(), bounds.len());
    let mut scratch = QueryScratch::new();
    for (i, trace) in traces.iter().enumerate() {
        // Against the batch's own returned bounds...
        assert_eq!(trace.lower.to_bits(), bounds[i].lower.to_bits());
        assert_eq!(trace.upper.to_bits(), bounds[i].upper.to_bits());
        assert_eq!(trace.cause, bounds[i].cause.as_str());
        // ...and against an independent single-query run.
        let single = clf
            .bound_density_with(queries.row(i), &mut scratch)
            .unwrap();
        assert_eq!(trace.lower.to_bits(), single.lower.to_bits());
        assert_eq!(trace.upper.to_bits(), single.upper.to_bits());
        // The last step's bounds equal the final bounds (before any
        // clamp the final lower/upper only tighten monotonically).
        if let Some(last) = trace.steps.last() {
            assert!(last.lower <= last.upper || last.upper.is_nan());
        }
        assert_eq!(trace.nodes_expanded, trace.steps.len() as u64);
    }
}

#[test]
fn jsonl_stream_is_schema_tagged_and_line_per_query() {
    let (clf, queries) = fixture();
    let (_, _, traces) = classify_traced(clf, queries, ExecPolicy::Serial, 1).unwrap();
    let mut writer = TraceWriter::new(Vec::new());
    writer.write_all(&traces).unwrap();
    let text = String::from_utf8(writer.into_inner()).unwrap();
    assert_eq!(text.lines().count(), queries.rows());
    for line in text.lines() {
        assert!(
            line.starts_with("{\"schema\":\"tkdc-trace/v1\""),
            "untagged line: {line}"
        );
        assert!(line.ends_with('}'));
        assert!(
            !line.contains("NaN") && !line.contains("inf"),
            "bad float token: {line}"
        );
    }
    assert_eq!(TRACE_SCHEMA, "tkdc-trace/v1");
}
