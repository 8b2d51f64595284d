//! What every workload hands back to `main`, and the pieces the batch
//! and serve workloads share: set-up repetitions, the reference pass,
//! the answer checks and the label-quality shares.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::adapter::{self, Classifier, Label, Matrix, QueryStats};
use crate::checks::{self, Ledger};
use crate::queries::{Class, QuerySet};
use crate::report::{ratio, Metrics};
use crate::spans::{Recorder, SpanId};

/// Set-up runs per benchmark run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub threads: usize,
    pub checks: Ledger,
    /// Operations attempted in the measured phase (classify calls or
    /// requests) and how many of them failed or answered wrongly.
    pub attempted: usize,
    pub failed: usize,
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Figures reported beside the metrics but not gated: rates that are
    /// legitimately zero, latencies and sample counts.
    pub extra: Metrics,
    pub query_seed: u64,
    pub query_counts: [usize; 3],
    /// Time spent in calls that the traced run deliberately left
    /// untraced (to measure tracing overhead); excluded from coverage.
    pub untraced: Duration,
}

/// Fits at `min(nproc, 2)` threads.
pub fn fit_threads() -> usize {
    crate::report::nproc().min(2)
}

/// Runs `setup` `SETUP_REPS` times and keeps the last result; returns
/// it with the per-repetition wall times. Earlier results are dropped
/// before the next repetition starts, so at most one lives at a time.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> adapter::Result<T>,
) -> adapter::Result<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let v = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// The reference answers: every call classified once through the pool,
/// before anything is timed. Later calls must return the same labels.
pub struct Reference {
    pub labels: Vec<Vec<Label>>,
    pub stats: QueryStats,
    pub errors: usize,
}

pub fn reference_pass(
    rec: &Recorder,
    clf: &Classifier,
    calls: &[Arc<Matrix>],
    threads: usize,
) -> Reference {
    let mut r = Reference {
        labels: Vec::with_capacity(calls.len()),
        stats: QueryStats::default(),
        errors: 0,
    };
    rec.time("engine.reference_pass", SpanId::NONE, |_| {
        for c in calls {
            match adapter::classify_batch(clf, c.clone(), adapter::parallel(threads)) {
                Ok((labels, stats)) => {
                    r.stats.merge(&stats);
                    r.labels.push(labels);
                }
                Err(_) => {
                    r.errors += 1;
                    r.labels.push(Vec::new());
                }
            }
        }
    });
    r
}

/// Label of every query in query-set order.
pub fn flat_labels(r: &Reference) -> Vec<Label> {
    r.labels.iter().flatten().copied().collect()
}

/// The checks every workload makes on its reference answers: a positive
/// threshold, a label vector that is not constant, and certified labels
/// that hold against exact densities on the fixed per-class sample.
/// `density` gives the exact density the model's labels must certify.
/// Returns the query indices whose label the exact check rejected.
#[allow(clippy::too_many_arguments)]
pub fn check_answers(
    rec: &Recorder,
    ledger: &mut Ledger,
    clf: &Classifier,
    qs: &QuerySet,
    labels: &[Label],
    per_class: usize,
    unknown_ok: bool,
    density: impl Fn(&[f64]) -> adapter::Result<f64>,
) -> Vec<usize> {
    let t = adapter::threshold(clf);
    ledger.add_bool("threshold_positive", checks::threshold_positive(t));
    ledger.add_bool("labels_not_constant", checks::not_constant(labels));
    let sample = qs.sample(per_class);
    let (dens, _) = rec.time("bound.exact_check", SpanId::NONE, |_| {
        sample
            .iter()
            .map(|&i| density(qs.points.row(i)).unwrap_or(f64::NAN))
            .collect::<Vec<f64>>()
    });
    let sampled: Vec<Label> = sample
        .iter()
        .map(|&i| labels.get(i).copied().unwrap_or(Label::Unknown))
        .collect();
    let eps = adapter::epsilon(clf);
    let wrong: Vec<usize> = checks::wrong_labels(&sampled, &dens, t, eps, unknown_ok)
        .into_iter()
        .map(|k| sample[k])
        .collect();
    let name = if unknown_ok {
        "coreset_label_vs_full_exact"
    } else {
        "label_vs_exact"
    };
    ledger.add(name, sample.len(), wrong.len());
    if labels.len() != qs.len() {
        ledger.add("labels_complete", qs.len(), qs.len().abs_diff(labels.len()));
    }
    wrong
}

/// Label-quality figures over the whole query set. The zero-able ones
/// (`unknown_rate`, `outlier_recall`) go to `extra`; the end-to-end
/// metrics use their never-zero complements.
pub fn label_quality(qs: &QuerySet, labels: &[Label], e2e: &mut Metrics, extra: &mut Metrics) {
    let n = labels.len() as f64;
    let unknown = labels.iter().filter(|&&l| l == Label::Unknown).count() as f64;
    let mut outliers = 0.0;
    let mut low = 0.0;
    let mut not_high = 0.0;
    for (c, l) in qs.class.iter().zip(labels) {
        if *c == Class::Outlier {
            outliers += 1.0;
            low += f64::from(u8::from(*l == Label::Low));
            not_high += f64::from(u8::from(*l != Label::High));
        }
    }
    e2e.set("certified_rate", ratio(n - unknown, n), "share");
    e2e.set("outlier_flag_rate", ratio(not_high, outliers), "share");
    extra.set("unknown_rate", ratio(unknown, n), "share");
    extra.set("outlier_recall", ratio(low, outliers), "share");
    let lows = labels.iter().filter(|&&l| l == Label::Low).count() as f64;
    extra.set("low_rate", ratio(lows, n), "share");
}
