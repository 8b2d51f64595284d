//! Property-based tests over the `tkdc-obs` observability primitives:
//!
//! * windowed histograms: the sliding-window view is always a subset of
//!   the cumulative total, and rotation never invents events,
//! * bucket quantiles: monotone in `q` and bounded by the bucket range,
//! * bucket merges: commutative, associative, and count-preserving,
//! * span streams: enter/exit records stay balanced and pair into
//!   complete spans even when the instrumented code panics mid-span.

use proptest::prelude::*;
use tkdc_obs::span::{complete_spans, SpanPhase, SpanSink, STAGES};
use tkdc_obs::{merge_buckets, quantile_from_buckets, WindowedHistogram, HISTOGRAM_BUCKETS};
use tkdc_sync::Arc;

fn count(buckets: &[(f64, u64)]) -> u64 {
    buckets.iter().map(|&(_, c)| c).sum()
}

/// Strategy: a bucket snapshot with the histogram's bound layout.
fn buckets() -> impl Strategy<Value = Vec<(f64, u64)>> {
    proptest::collection::vec(0u64..40, HISTOGRAM_BUCKETS..=HISTOGRAM_BUCKETS).prop_map(|counts| {
        let template = WindowedHistogram::new(1, 1).total_buckets();
        template
            .iter()
            .zip(counts)
            .map(|(&(upper, _), c)| (upper, c))
            .collect()
    })
}

/// Enters `names` as nested spans (guards unwind LIFO) then panics.
fn nest_and_panic(sink: &Arc<SpanSink>, names: &[&'static str]) {
    match names.split_first() {
        Some((first, rest)) => {
            let _guard = sink.enter(first);
            nest_and_panic(sink, rest);
        }
        None => panic!("unwind through the open spans"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every event lands in the cumulative total; the window view can
    /// only miss events (expiry, rotation), never add them — at any
    /// probe time, including far past the last recording.
    #[test]
    fn window_count_never_exceeds_total(
        slots in 1usize..8,
        slot_millis in 1u64..400,
        // One u64 per event, unpacked into (ms, us) below — the
        // vendored proptest has no tuple strategies.
        raw_events in proptest::collection::vec(0u64..15_000_000_000, 0..80),
        probe_offset in 0u64..10_000,
    ) {
        let h = WindowedHistogram::new(slots, slot_millis);
        let mut events: Vec<(u64, u64)> = raw_events
            .iter()
            .map(|&v| (v % 5_000, v / 5_000))
            .collect();
        events.sort_unstable();
        for &(ms, us) in &events {
            h.record_at_ms(ms, u128::from(us));
        }
        prop_assert_eq!(count(&h.total_buckets()), events.len() as u64);
        let last = events.last().map_or(0, |&(ms, _)| ms);
        for probe in [0, last, last + probe_offset] {
            let w = h.window_buckets_at(probe);
            prop_assert!(count(&w) <= events.len() as u64);
            // Per-bucket subset, not just in aggregate.
            for (&(_, wc), &(_, tc)) in w.iter().zip(&h.total_buckets()) {
                prop_assert!(wc <= tc);
            }
        }
        // A probe a full window past the last event sees nothing.
        let expired = last + slot_millis.saturating_mul(slots as u64 + 1);
        prop_assert_eq!(count(&h.window_buckets_at(expired)), 0);
    }

    /// Quantiles are monotone in `q` and always land on a bucket bound.
    #[test]
    fn quantile_monotone_and_on_bucket_bounds(
        b in buckets(),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let (vlo, vhi) = (quantile_from_buckets(&b, lo), quantile_from_buckets(&b, hi));
        prop_assert!(vlo <= vhi, "q{lo} -> {vlo} > q{hi} -> {vhi}");
        if count(&b) > 0 {
            prop_assert!(b.iter().any(|&(upper, _)| upper.total_cmp(&vlo).is_eq()));
            prop_assert!(vhi <= quantile_from_buckets(&b, 1.0));
        } else {
            prop_assert!(vlo.total_cmp(&0.0).is_eq());
        }
    }

    /// Merging is commutative and count-preserving, and merging a
    /// window snapshot into a total snapshot never lowers a quantile
    /// below either input's minimum.
    #[test]
    fn merge_commutes_and_preserves_counts(a in buckets(), b in buckets(), q in 0.0f64..=1.0) {
        let ab = merge_buckets(&a, &b);
        let ba = merge_buckets(&b, &a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(count(&ab), count(&a) + count(&b));
        for ((&(_, ca), &(_, cb)), &(_, cm)) in a.iter().zip(&b).zip(&ab) {
            prop_assert_eq!(ca + cb, cm);
        }
        if count(&a) > 0 && count(&b) > 0 {
            let qm = quantile_from_buckets(&ab, q);
            let (qa, qb) = (quantile_from_buckets(&a, q), quantile_from_buckets(&b, q));
            prop_assert!(qm >= qa.min(qb) && qm <= qa.max(qb));
        }
    }

    /// A panic unwinding through any depth of open spans still records
    /// one exit per enter, in nesting order, so the stream reconstructs
    /// into exactly `depth` complete spans.
    #[test]
    fn span_stream_stays_balanced_under_panic(depth in 1usize..6, offset in 0usize..STAGES.len()) {
        let names: Vec<&'static str> = (0..depth)
            .map(|i| STAGES[(offset + i) % STAGES.len()])
            .collect();
        let sink = Arc::new(SpanSink::new());
        let sink2 = Arc::clone(&sink);
        let names2 = names.clone();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            nest_and_panic(&sink2, &names2);
        }));
        prop_assert!(unwound.is_err());
        let records = sink.take();
        prop_assert_eq!(records.len(), 2 * depth);
        let enters = records
            .iter()
            .filter(|r| r.as_span().is_some_and(|s| s.ph == SpanPhase::Enter))
            .count();
        prop_assert_eq!(enters, depth);
        let complete = complete_spans(&records);
        prop_assert_eq!(complete.len(), depth, "every enter pairs with its unwind exit");
        // Nesting survives: depth-sorted spans carry the entry order.
        let mut by_depth = complete.clone();
        by_depth.sort_by_key(|s| s.depth);
        for (i, span) in by_depth.iter().enumerate() {
            prop_assert_eq!(span.depth as usize, i);
            prop_assert_eq!(span.name, names[i]);
        }
    }
}
