//! Prometheus text exposition (format version 0.0.4) rendering.
//!
//! Turns a [`RegistrySnapshot`] — plus any ad-hoc series a caller adds —
//! into the plain-text format Prometheus scrapes:
//!
//! ```text
//! # TYPE tkdc_engine_queries counter
//! tkdc_engine_queries{backend="tree"} 1024
//! # TYPE tkdc_serve_latency histogram
//! tkdc_serve_latency_bucket{backend="tree",le="2"} 11
//! tkdc_serve_latency_bucket{backend="tree",le="+Inf"} 640
//! tkdc_serve_latency_count{backend="tree"} 640
//! ```
//!
//! Registry names use dots (`engine.kernel_evals`); Prometheus names
//! may not, so [`sanitize_name`] maps every non-`[a-zA-Z0-9_:]` byte to
//! `_` and prefixes `tkdc_` (keeping the whole workspace in one
//! namespace). Histograms are rendered with *cumulative* `le` bucket
//! counts as the format requires, converted from the registry's
//! per-bucket counts.
//!
//! This module only formats strings; the std-only HTTP responder that
//! serves them lives in `tkdc-serve`.

use crate::registry::RegistrySnapshot;

/// Maps a registry metric name to a valid Prometheus metric name:
/// `tkdc_` prefix, every byte outside `[a-zA-Z0-9_:]` replaced by `_`.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(5 + name.len());
    out.push_str("tkdc_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Renders a `{k="v",...}` label block; empty string for no labels.
fn label_block(labels: &[(&str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Formats a bucket upper bound as a `le` label value (`+Inf` for the
/// overflow bucket, integral values without a trailing `.0`).
fn le_value(upper: f64) -> String {
    if upper.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{}", upper)
    }
}

/// Incremental exposition-document builder.
///
/// All `name` arguments are raw registry names; sanitization happens
/// here. `labels` are `(key, value)` pairs attached to every sample of
/// the series.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    fn type_line(&mut self, name: &str, kind: &str) {
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    /// Appends a counter sample.
    pub fn counter(&mut self, name: &str, labels: &[(&str, String)], value: u64) {
        let name = sanitize_name(name);
        self.type_line(&name, "counter");
        self.out.push_str(&name);
        self.out.push_str(&label_block(labels));
        self.out.push(' ');
        self.out.push_str(&value.to_string());
        self.out.push('\n');
    }

    /// Appends a gauge sample with a floating-point value.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        let name = sanitize_name(name);
        self.type_line(&name, "gauge");
        self.out.push_str(&name);
        self.out.push_str(&label_block(labels));
        self.out.push(' ');
        if value.is_finite() {
            self.out.push_str(&format!("{}", value));
        } else {
            // Exposition spec spells non-finite values +Inf/-Inf/NaN.
            self.out.push_str(if value.is_nan() {
                "NaN"
            } else if value > 0.0 {
                "+Inf"
            } else {
                "-Inf"
            });
        }
        self.out.push('\n');
    }

    /// Appends a histogram from per-bucket `(upper_bound_us, count)`
    /// pairs (as produced by the registry), converting to the format's
    /// cumulative `le` counts and emitting the `_count` sample.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, String)], buckets: &[(f64, u64)]) {
        let name = sanitize_name(name);
        self.type_line(&name, "histogram");
        let mut cumulative = 0u64;
        for &(upper, count) in buckets {
            cumulative += count;
            self.out.push_str(&name);
            self.out.push_str("_bucket");
            let mut with_le: Vec<(&str, String)> = labels.to_vec();
            with_le.push(("le", le_value(upper)));
            self.out.push_str(&label_block(&with_le));
            self.out.push(' ');
            self.out.push_str(&cumulative.to_string());
            self.out.push('\n');
        }
        self.out.push_str(&name);
        self.out.push_str("_count");
        self.out.push_str(&label_block(labels));
        self.out.push(' ');
        self.out.push_str(&cumulative.to_string());
        self.out.push('\n');
    }

    /// Appends every metric in a registry snapshot, attaching `labels`
    /// to each series. Gauges are rendered at their integral value.
    pub fn registry(&mut self, snap: &RegistrySnapshot, labels: &[(&str, String)]) {
        for (name, value) in &snap.counters {
            self.counter(name, labels, *value);
        }
        for (name, value) in &snap.gauges {
            // CAST: registry gauges are u64; values above 2^53 lose
            // precision in the f64 sample, acceptable for telemetry.
            self.gauge(name, labels, *value as f64);
        }
        for (name, buckets) in &snap.histograms {
            self.histogram(name, labels, buckets);
        }
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(
            sanitize_name("engine.kernel_evals"),
            "tkdc_engine_kernel_evals"
        );
        assert_eq!(sanitize_name("pool.worker-0"), "tkdc_pool_worker_0");
    }

    #[test]
    fn counter_and_gauge_lines() {
        let mut e = Exposition::new();
        e.counter("serve.requests", &[("backend", "tree".to_string())], 7);
        e.gauge("pool.utilization", &[], 0.5);
        let doc = e.finish();
        assert!(doc.contains("# TYPE tkdc_serve_requests counter\n"));
        assert!(doc.contains("tkdc_serve_requests{backend=\"tree\"} 7\n"));
        assert!(doc.contains("# TYPE tkdc_pool_utilization gauge\n"));
        assert!(doc.contains("tkdc_pool_utilization 0.5\n"));
    }

    #[test]
    fn histogram_counts_are_cumulative() {
        let mut e = Exposition::new();
        e.histogram(
            "serve.latency",
            &[],
            &[(1.0, 2), (2.0, 3), (f64::INFINITY, 1)],
        );
        let doc = e.finish();
        assert!(doc.contains("tkdc_serve_latency_bucket{le=\"1\"} 2\n"));
        assert!(doc.contains("tkdc_serve_latency_bucket{le=\"2\"} 5\n"));
        assert!(doc.contains("tkdc_serve_latency_bucket{le=\"+Inf\"} 6\n"));
        assert!(doc.contains("tkdc_serve_latency_count 6\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut e = Exposition::new();
        e.counter("x", &[("v", "a\"b\\c\nd".to_string())], 1);
        assert!(e.finish().contains("{v=\"a\\\"b\\\\c\\nd\"}"));
    }

    #[test]
    fn registry_snapshot_renders_every_kind() {
        let reg = crate::Registry::new();
        reg.counter("engine.queries").inc();
        reg.gauge("serve.active").set(3);
        reg.histogram("serve.latency").record_micros(10);
        let mut e = Exposition::new();
        e.registry(&reg.snapshot(), &[("backend", "tree".to_string())]);
        let doc = e.finish();
        assert!(doc.contains("tkdc_engine_queries{backend=\"tree\"} 1\n"));
        assert!(doc.contains("tkdc_serve_active{backend=\"tree\"} 3\n"));
        assert!(doc.contains("tkdc_serve_latency_count{backend=\"tree\"} 1\n"));
    }
}
