//! Lock-free server metrics, built on the shared `tkdc-obs` primitives.
//!
//! Every counter is a relaxed-atomic [`Counter`] (the open-connection
//! count is a [`Gauge`]): handlers on different connections update them
//! concurrently without coordination, and [`Metrics::snapshot`] reads a
//! (possibly slightly torn across counters, individually exact)
//! point-in-time copy. Request latency is tracked in a log-scale
//! [`WindowedHistogram`]: the cumulative view counts every request since
//! startup (bucket `i` counts requests whose latency was at most `2^i`
//! microseconds), while the sliding-window view covers only the most
//! recent [`DEFAULT_WINDOW_SLOTS`] × [`DEFAULT_SLOT_MILLIS`] of traffic —
//! so a `Stats` snapshot answers both "p99 since boot" and "p99 right
//! now" with zero allocation on the hot path.
//!
//! The server additionally folds every answered batch's [`QueryStats`]
//! into an engine-counter [`Registry`] (names `engine.queries`,
//! `engine.kernel_evals`, …, one per [`QueryStats::named_counters`]
//! entry) plus the classify label mix (`labels.high` / `labels.low` /
//! `labels.unknown`, the UNKNOWN share being the served abstention
//! rate), so the pruning engine's work mix travels in the same `Stats`
//! wire frame as the transport counters — one reporting path for both
//! layers.

use std::time::Duration;

use tkdc_sync::Arc;

use tkdc::{Label, QueryStats};
use tkdc_obs::{
    Counter, Gauge, Registry, RegistrySnapshot, WindowedHistogram, DEFAULT_SLOT_MILLIS,
    DEFAULT_WINDOW_SLOTS,
};

use crate::protocol::StatsSnapshot;

/// Model provenance every `Stats` frame and Prometheus series carries:
/// every served model is a tree model with certified bounds. The fields
/// stay on the wire so existing clients decode them unchanged.
pub(crate) const BACKEND: &str = "tree";
/// See [`BACKEND`].
pub(crate) const BOUND_KIND: &str = "certified";

/// Shared, lock-free server metrics (see module docs).
#[derive(Debug)]
pub struct Metrics {
    /// Requests decoded and answered (any type, ok or error).
    pub requests_total: Counter,
    /// Requests answered with an error response.
    pub errors_total: Counter,
    /// `Ping` requests answered.
    pub pings: Counter,
    /// `Classify` requests answered.
    pub classifies: Counter,
    /// `Density` requests answered.
    pub densities: Counter,
    /// `Stats` requests answered.
    pub stats_requests: Counter,
    /// Total query points classified across all `Classify` batches.
    pub points_classified: Counter,
    /// Total query points bounded across all `Density` batches.
    pub points_bounded: Counter,
    /// Connections turned away at the connection cap.
    pub rejected_over_capacity: Counter,
    /// Connections closed by the read/write timeout.
    pub timeouts: Counter,
    /// Connections accepted since startup.
    pub connections_accepted: Counter,
    /// Connections currently open.
    pub active_connections: Gauge,
    latency: WindowedHistogram,
    engine: Registry,
    /// Hot-path handles into `engine`, pre-registered in
    /// [`QueryStats::named_counters`] order so folding a batch's stats
    /// is one relaxed add per counter, no name lookups.
    engine_counters: Vec<(&'static str, Arc<Counter>)>,
    /// Classify label mix, `[high, low, unknown]`, registered in the
    /// same engine registry (names `labels.*`).
    label_counters: [Arc<Counter>; 3],
}

impl Default for Metrics {
    fn default() -> Self {
        let engine = Registry::new();
        // Pre-register every engine counter at zero so snapshots carry
        // the full name set even before the first query.
        let engine_counters: Vec<_> = QueryStats::default()
            .named_counters()
            .iter()
            .map(|&(name, _)| (name, engine.counter(&format!("engine.{name}"))))
            .collect();
        let label_counters = [
            engine.counter("labels.high"),
            engine.counter("labels.low"),
            engine.counter("labels.unknown"),
        ];
        Self {
            requests_total: Counter::new(),
            errors_total: Counter::new(),
            pings: Counter::new(),
            classifies: Counter::new(),
            densities: Counter::new(),
            stats_requests: Counter::new(),
            points_classified: Counter::new(),
            points_bounded: Counter::new(),
            rejected_over_capacity: Counter::new(),
            timeouts: Counter::new(),
            connections_accepted: Counter::new(),
            active_connections: Gauge::new(),
            latency: WindowedHistogram::new(DEFAULT_WINDOW_SLOTS, DEFAULT_SLOT_MILLIS),
            engine,
            engine_counters,
            label_counters,
        }
    }
}

impl Metrics {
    /// Creates a zeroed metrics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served request's wall-clock latency (both the
    /// cumulative and the sliding-window view).
    pub fn record_latency(&self, latency: Duration) {
        self.latency.record(latency);
    }

    /// Folds one answered batch's merged engine statistics into the
    /// engine-counter registry.
    pub fn record_query_stats(&self, stats: &QueryStats) {
        for ((name, counter), (stat_name, value)) in
            self.engine_counters.iter().zip(stats.named_counters())
        {
            debug_assert_eq!(*name, stat_name, "registration order drifted");
            counter.add(value);
        }
    }

    /// Folds one answered batch's label mix into the `labels.*`
    /// counters (the UNKNOWN share is the served abstention rate).
    pub fn record_labels(&self, labels: &[Label]) {
        let (mut high, mut low, mut unknown) = (0u64, 0u64, 0u64);
        for l in labels {
            match l {
                Label::High => high += 1,
                Label::Low => low += 1,
                Label::Unknown => unknown += 1,
            }
        }
        self.label_counters[0].add(high);
        self.label_counters[1].add(low);
        self.label_counters[2].add(unknown);
    }

    /// Point-in-time copy of the engine-counter registry (engine work
    /// mix plus label counts), for the Prometheus exposition.
    pub fn engine_snapshot(&self) -> RegistrySnapshot {
        self.engine.snapshot()
    }

    /// Cumulative request-latency buckets (`(upper_us, count)`).
    pub fn latency_buckets(&self) -> Vec<(f64, u64)> {
        self.latency.total_buckets()
    }

    /// Sliding-window request-latency buckets (`(upper_us, count)`).
    pub fn window_latency_buckets(&self) -> Vec<(f64, u64)> {
        self.latency.window_buckets()
    }

    /// Width of the sliding latency window, in seconds.
    pub fn window_seconds(&self) -> u64 {
        self.latency.window_seconds()
    }

    /// Point-in-time copy for the `Stats` response. Latency bucket upper
    /// bounds are encoded explicitly so clients need no knowledge of the
    /// histogram's base, and engine counters travel as `(name, value)`
    /// pairs so new counters never change the frame layout.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests_total: self.requests_total.get(),
            errors_total: self.errors_total.get(),
            pings: self.pings.get(),
            classifies: self.classifies.get(),
            densities: self.densities.get(),
            stats_requests: self.stats_requests.get(),
            points_classified: self.points_classified.get(),
            points_bounded: self.points_bounded.get(),
            rejected_over_capacity: self.rejected_over_capacity.get(),
            timeouts: self.timeouts.get(),
            connections_accepted: self.connections_accepted.get(),
            active_connections: self.active_connections.get(),
            latency_buckets: self.latency.total_buckets(),
            window_latency_buckets: self.latency.window_buckets(),
            window_seconds: self.latency.window_seconds(),
            engine_counters: self.engine.snapshot().counters,
            backend: BACKEND.to_string(),
            bound_kind: BOUND_KIND.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkdc_obs::HISTOGRAM_BUCKETS;

    #[test]
    fn snapshot_reflects_recorded_latencies() {
        let m = Metrics::new();
        m.record_latency(Duration::from_micros(1));
        m.record_latency(Duration::from_micros(3));
        m.record_latency(Duration::from_micros(3));
        m.requests_total.inc();
        m.points_classified.add(42);
        let snap = m.snapshot();
        assert_eq!(snap.requests_total, 1);
        assert_eq!(snap.points_classified, 42);
        assert_eq!(snap.latency_buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(snap.latency_buckets[0], (1.0, 1));
        assert_eq!(snap.latency_buckets[2], (4.0, 2));
        let total: u64 = snap.latency_buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 3);
        assert!(snap.latency_buckets.last().unwrap().0.is_infinite());
        // All three recordings are inside the (fresh) sliding window.
        let windowed: u64 = snap.window_latency_buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(windowed, 3);
        assert!(snap.window_seconds >= 1);
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact-value asserts are deliberate in tests
    fn quantiles_from_snapshot() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record_latency(Duration::from_micros(2));
        }
        m.record_latency(Duration::from_micros(1000));
        let snap = m.snapshot();
        assert_eq!(snap.latency_quantile_us(0.5), 2.0);
        assert_eq!(snap.latency_quantile_us(0.99), 2.0);
        assert_eq!(snap.latency_quantile_us(1.0), 1024.0);
        // The fresh window holds the same traffic as the total.
        assert_eq!(snap.window_latency_quantile_us(0.5), 2.0);
        assert_eq!(snap.window_latency_quantile_us(1.0), 1024.0);
    }

    #[test]
    fn engine_counters_fold_query_stats() {
        let m = Metrics::new();
        // Even a fresh block snapshots the full engine-counter name set
        // plus the three label-mix counters.
        let names: Vec<String> = m
            .snapshot()
            .engine_counters
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        let engine_names = QueryStats::default().named_counters().len();
        assert_eq!(names.len(), engine_names + 3);
        assert!(names
            .iter()
            .all(|n| n.starts_with("engine.") || n.starts_with("labels.")));
        let stats = QueryStats {
            queries: 3,
            kernel_evals: 120,
            nodes_expanded: 17,
            bound_evals: 40,
            threshold_high: 2,
            tolerance: 1,
            ..Default::default()
        };
        m.record_query_stats(&stats);
        m.record_query_stats(&stats);
        let snap = m.snapshot();
        let get = |name: &str| {
            snap.engine_counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert_eq!(get("engine.queries"), 6);
        assert_eq!(get("engine.kernel_evals"), 240);
        assert_eq!(get("engine.threshold_high"), 4);
        assert_eq!(get("engine.grid_prunes"), 0);
    }

    #[test]
    fn label_mix_counts_every_label() {
        let m = Metrics::new();
        m.record_labels(&[Label::High, Label::High, Label::Low, Label::Unknown]);
        m.record_labels(&[Label::Unknown]);
        let snap = m.snapshot();
        let get = |name: &str| {
            snap.engine_counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert_eq!(get("labels.high"), 2);
        assert_eq!(get("labels.low"), 1);
        assert_eq!(get("labels.unknown"), 2);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let m = Arc::new(Metrics::new());
        tkdc_sync::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.requests_total.inc();
                        m.record_latency(Duration::from_micros(5));
                        m.record_query_stats(&QueryStats {
                            queries: 1,
                            kernel_evals: 2,
                            ..Default::default()
                        });
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.requests_total, 4000);
        let total: u64 = snap.latency_buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 4000);
        let kernels = snap
            .engine_counters
            .iter()
            .find(|(n, _)| n == "engine.kernel_evals")
            .map(|&(_, v)| v)
            .unwrap();
        assert_eq!(kernels, 8000);
    }
}
