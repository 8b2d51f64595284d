//! Golden tests for the observability layer (`tkdc-obs` + the `Ctx` /
//! `Spans` trace handle of `tkdc`):
//!
//! * traces are identical at every thread count and every schedule
//!   (sampling is by query index, never by a shared counter),
//! * a fully-sampled trace stream's counters sum exactly to the batch's
//!   returned `QueryStats`,
//! * a trace's final bounds are bit-identical to what
//!   `bound_density_with` returns for the same query,
//! * tracing (on, sampled, or off) never changes labels, bounds, or
//!   statistics relative to the untraced entry points,
//! * a density batch records its `classify.*` spans and its sampled
//!   query records into the same stream,
//! * the JSONL serialization carries the `tkdc-trace/v2` schema tag and
//!   a record kind on every line.

use tkdc_sync::{Arc, OnceLock};

use tkdc::bound::DensityBounds;
use tkdc::{
    Classifier, Ctx, ExecPolicy, Label, Params, QueryScratch, QueryStats, QueryTrace, Spans,
    TraceRecord, TRACE_SCHEMA,
};
use tkdc_common::{Matrix, Result, Rng};
use tkdc_obs::trace_v2_lines;

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

/// A recording context sampling every `every`-th query.
fn traced(policy: ExecPolicy, every: u64) -> Ctx {
    Ctx {
        policy,
        obs: Spans::enabled().sampling(every),
    }
}

/// The query records of a drained stream, in stream order.
fn queries_of(records: Vec<TraceRecord>) -> Vec<QueryTrace> {
    records
        .iter()
        .filter_map(TraceRecord::as_query)
        .cloned()
        .collect()
}

/// Traced classification of the shared queries.
fn classify_traced(
    clf: &Classifier,
    queries: &Arc<Matrix>,
    policy: ExecPolicy,
    every: u64,
) -> Result<(Vec<Label>, QueryStats, Vec<QueryTrace>)> {
    let ctx = traced(policy, every);
    let obs = ctx.obs.clone();
    let (labels, stats) = clf.classify_batch_shared(Arc::clone(queries), ctx)?;
    Ok((labels, stats, queries_of(obs.take())))
}

/// Traced density bounds of the shared queries, with the whole drained
/// stream (spans and query records).
fn bound_density_traced(
    clf: &Classifier,
    queries: &Arc<Matrix>,
    policy: ExecPolicy,
    every: u64,
) -> Result<(Vec<DensityBounds>, QueryStats, Vec<TraceRecord>)> {
    let ctx = traced(policy, every);
    let obs = ctx.obs.clone();
    let (bounds, stats) = clf.bound_density_batch_shared(Arc::clone(queries), ctx)?;
    Ok((bounds, stats, obs.take()))
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
                assert_eq!(*label, Label::Unknown, "query {}", t.query);
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
    // every = 0: spans record, query sampling off.
    let (labels, stats, traces) = classify_traced(clf, queries, policy, 0).unwrap();
    assert_eq!(labels, ref_labels);
    assert_eq!(stats, ref_stats);
    assert!(traces.is_empty());
    // Sparse sampling: same results, fewer traces.
    let (labels, stats, _) = classify_traced(clf, queries, policy, 13).unwrap();
    assert_eq!(labels, ref_labels);
    assert_eq!(stats, ref_stats);
    // An inert handle asked to sample records nothing at all.
    let off = Ctx {
        policy,
        obs: Spans::off().sampling(1),
    };
    let (labels, stats) = clf
        .classify_batch_shared(Arc::clone(queries), off.clone())
        .unwrap();
    assert_eq!(labels, ref_labels);
    assert_eq!(stats, ref_stats);
    assert!(off.obs.take().is_empty());

    let (ref_bounds, ref_bstats) = clf.bound_density_batch_with(queries, policy).unwrap();
    for every in [0, 13] {
        let (bounds, bstats, _) = bound_density_traced(clf, queries, policy, every).unwrap();
        assert_eq!(bstats, ref_bstats);
        for (a, b) in bounds.iter().zip(&ref_bounds) {
            assert_eq!(a.lower.to_bits(), b.lower.to_bits());
            assert_eq!(a.upper.to_bits(), b.upper.to_bits());
            assert_eq!(a.cause, b.cause);
        }
    }
}

/// A density batch under a recording, sampling handle writes its stage
/// spans and one query record per sampled index into the one stream,
/// at any thread count.
#[test]
fn density_batch_records_spans_and_sampled_queries() {
    let (clf, queries) = fixture();
    for policy in [ExecPolicy::Serial, ExecPolicy::with_threads(4)] {
        let (_, _, records) = bound_density_traced(clf, queries, policy, 5).unwrap();
        let spans: Vec<&str> = records
            .iter()
            .filter_map(|r| r.as_span().map(|s| s.name))
            .collect();
        for stage in [
            "classify.dispatch",
            "classify.traversal",
            "classify.reassembly",
        ] {
            // One enter and one exit.
            let n = spans.iter().filter(|&&name| name == stage).count();
            assert_eq!(n, 2, "{policy:?}: {stage}");
        }
        let indices: Vec<u64> = queries_of(records).iter().map(|t| t.query).collect();
        let expected: Vec<u64> = (0..queries.rows() as u64).filter(|i| i % 5 == 0).collect();
        assert_eq!(indices, expected, "{policy:?}");
    }
}

#[test]
fn trace_final_bounds_match_bound_density_bitwise() {
    let (clf, queries) = fixture();
    let (bounds, _, records) =
        bound_density_traced(clf, queries, ExecPolicy::with_threads(4), 1).unwrap();
    let traces = queries_of(records);
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
    let ctx = traced(ExecPolicy::Serial, 1);
    let obs = ctx.obs.clone();
    clf.classify_batch_shared(Arc::clone(queries), ctx).unwrap();
    let text = trace_v2_lines(&obs.take());
    let (mut spans, mut query_lines) = (0, 0);
    for line in text.lines() {
        if line.starts_with("{\"schema\":\"tkdc-trace/v2\",\"kind\":\"query\",") {
            query_lines += 1;
        } else {
            assert!(
                line.starts_with("{\"schema\":\"tkdc-trace/v2\",\"kind\":\"span\","),
                "untagged line: {line}"
            );
            spans += 1;
        }
        assert!(line.ends_with('}'));
        assert!(
            !line.contains("NaN") && !line.contains("inf"),
            "bad float token: {line}"
        );
    }
    // One line per query, plus the batch's stage spans.
    assert_eq!(query_lines, queries.rows());
    assert!(spans >= 6, "{text}");
    assert_eq!(TRACE_SCHEMA, "tkdc-trace/v2");
}
