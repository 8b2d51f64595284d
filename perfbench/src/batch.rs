//! The two batch workloads, `heldout_d8` and `coreset_d2`: fixed-size
//! classify calls through the pool, back to back, for the run's seconds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::adapter::{self, Classifier, Matrix, WeightedCoreset};
use crate::checks;
use crate::layers::{self, Ctx};
use crate::queries::{training_rows, Mix, QuerySet};
use crate::report::{block_quantile, median, ratio, P99_BLOCK};
use crate::serve::{self, LiveServer};
use crate::spans::{Recorder, SpanId};
use crate::workload::{self, fit_threads, Outcome, Reference, Run};

pub struct Spec {
    pub d: usize,
    pub n_train: usize,
    pub mix: Mix,
    pub call_size: usize,
    /// Compact the training rows at this ε and fit on the coreset.
    pub coreset_eps: Option<f64>,
    /// A call slower than this misses the goodput limit.
    pub limit_ms: f64,
    /// Queries per class checked against exact densities.
    pub check_per_class: usize,
    /// Offered rate of the serve probe in a traced run, req/s.
    pub probe_rate: f64,
}

pub fn heldout_d8() -> Spec {
    Spec {
        d: 8,
        n_train: 50_000,
        mix: Mix {
            total: 256 * 80,
            outlier_share: 0.05,
            outlier_radius: 8f64.sqrt() + 4.0,
            shell_share: 0.0,
        },
        call_size: 256,
        coreset_eps: None,
        limit_ms: 20.0,
        check_per_class: 200,
        probe_rate: 200.0,
    }
}

pub fn coreset_d2() -> Spec {
    Spec {
        d: 2,
        n_train: 1_000_000,
        mix: Mix {
            total: 1024 * 32,
            outlier_share: 0.05,
            outlier_radius: 6.0,
            shell_share: 0.05,
        },
        call_size: 1024,
        coreset_eps: Some(layers::CORESET_EPS),
        limit_ms: 10.0,
        check_per_class: 40,
        probe_rate: 1000.0,
    }
}

/// Seconds of open loop in the serve probe of a traced batch run.
const PROBE_SECONDS: f64 = 1.0;

struct Measured {
    lat_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    untraced: Duration,
    queries: usize,
    attempted: usize,
    failed: usize,
    good: usize,
    wall_s: f64,
}

/// Back-to-back pool calls cycling through `calls` for `seconds`. A call
/// fails when it errors, when its labels differ from the reference, or
/// when its chunk holds a label the exact check rejected. In a traced run
/// every other call records an `engine.call` span.
#[allow(clippy::too_many_arguments)]
fn measure(
    rec: &Recorder,
    clf: &Classifier,
    calls: &[Arc<Matrix>],
    reference: &Reference,
    bad_chunk: &[bool],
    threads: usize,
    seconds: f64,
    limit_ms: f64,
) -> Measured {
    let mut m = Measured {
        lat_ms: Vec::new(),
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
        untraced: Duration::ZERO,
        queries: 0,
        attempted: 0,
        failed: 0,
        good: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while Instant::now() < end {
        let c = i % calls.len();
        let traced = rec.on() && i.is_multiple_of(2);
        let id = if traced {
            rec.open("engine.call", SpanId::NONE, i as u64)
        } else {
            SpanId::NONE
        };
        let t = Instant::now();
        let res = adapter::classify_batch(clf, calls[c].clone(), adapter::parallel(threads));
        let dt = t.elapsed();
        rec.close(id);
        let ms = dt.as_secs_f64() * 1e3;
        let ok = matches!(&res, Ok((l, _)) if checks::mismatches(l, &reference.labels[c]) == 0)
            && !bad_chunk[c];
        m.attempted += 1;
        m.failed += usize::from(!ok);
        m.good += usize::from(ok && ms <= limit_ms);
        m.queries += calls[c].rows();
        m.lat_ms.push(ms);
        if rec.on() {
            if traced {
                m.traced_ms.push(ms);
            } else {
                m.untraced_ms.push(ms);
                m.untraced += dt;
            }
        }
        i += 1;
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m
}

pub fn run(spec: &Spec, run: Run, rec: &Recorder) -> adapter::Result<Outcome> {
    let threads = fit_threads();
    let mut o = Outcome {
        threads,
        ..Outcome::default()
    };
    let train = training_rows(spec.n_train, spec.d, run.seed);
    let params = adapter::params(true);
    let policy = adapter::parallel(threads);
    let (mut compact_s, mut fit_s) = (Vec::new(), Vec::new());
    let ((clf, coreset), setup_s) = workload::repeat_setup(|| {
        let cs: Option<WeightedCoreset> = match spec.coreset_eps {
            Some(eps) => {
                let (cs, dt) = rec.time("coreset.compact", SpanId::NONE, |_| {
                    adapter::compact(&train, eps)
                });
                compact_s.push(dt.as_secs_f64());
                Some(cs?)
            }
            None => None,
        };
        let (clf, dt) = rec.time("classifier.fit", SpanId::NONE, |_| match &cs {
            Some(cs) => adapter::fit_weighted(cs, &params, policy),
            None => adapter::fit(&train, &params, policy),
        });
        fit_s.push(dt.as_secs_f64());
        Ok((clf?, cs))
    })?;
    o.e2e.set("setup_s", median(&setup_s), "s");

    let qs = QuerySet::generate(spec.d, spec.mix, adapter::threshold(&clf), run.seed);
    o.query_seed = qs.seed;
    o.query_counts = qs.counts;
    let ranges = qs.chunks(spec.call_size);
    let calls: Vec<Arc<Matrix>> = ranges
        .iter()
        .map(|r| Arc::new(qs.rows(r.clone())))
        .collect();
    let reference = workload::reference_pass(rec, &clf, &calls, threads);
    o.checks
        .add("reference_calls_answered", calls.len(), reference.errors);
    let labels = workload::flat_labels(&reference);
    let n = train.rows() as f64;
    // A coreset label certifies the full data (the ε-fold contract), so
    // it is checked against the density of all the training rows.
    let full_density = |x: &[f64]| match &coreset {
        None => adapter::exact_density(&clf, x),
        Some(_) => Ok(adapter::kernel_sum_rows(adapter::kernel(&clf), x, &train) / n),
    };
    let wrong = workload::check_answers(
        rec,
        &mut o.checks,
        &clf,
        &qs,
        &labels,
        spec.check_per_class,
        coreset.is_some(),
        full_density,
    );
    let bad_chunk: Vec<bool> = ranges
        .iter()
        .map(|r| wrong.iter().any(|i| r.contains(i)))
        .collect();
    workload::label_quality(&qs, &labels, &mut o.e2e, &mut o.extra);

    let m = measure(
        rec,
        &clf,
        &calls,
        &reference,
        &bad_chunk,
        threads,
        run.seconds,
        spec.limit_ms,
    );
    o.attempted = m.attempted;
    o.failed = m.failed;
    o.untraced = m.untraced;
    o.e2e.set("qps", m.queries as f64 / m.wall_s, "queries/s");
    o.extra.set("call_p50_ms", median(&m.lat_ms), "ms");
    o.extra.set(
        "call_p99_ms",
        block_quantile(&m.lat_ms, P99_BLOCK, 0.99),
        "ms",
    );
    o.e2e.set("goodput_rps", m.good as f64 / m.wall_s, "req/s");
    o.extra.set("calls", m.attempted as f64, "count");

    if run.trace {
        o.layers.set(
            "trace.overhead",
            ratio(median(&m.traced_ms), median(&m.untraced_ms)) - 1.0,
            "ratio",
        );
        let ctx = Ctx {
            rec,
            threads,
            train: &train,
            params: &params,
            clf: &clf,
            qs: &qs,
            calls: &calls,
            stats: reference.stats,
        };
        trace_layers(
            &ctx,
            spec,
            median(&fit_s),
            median(&compact_s),
            coreset.as_ref(),
            &mut o,
        )?;
    }
    Ok(o)
}

fn trace_layers(
    ctx: &Ctx,
    spec: &Spec,
    fit_s: f64,
    compact_s: f64,
    coreset: Option<&WeightedCoreset>,
    o: &mut Outcome,
) -> adapter::Result<()> {
    let out = &mut o.layers;
    layers::fit(ctx, fit_s, coreset, out)?;
    let (query_ns, cheapest) = layers::bound(ctx, out);
    layers::kernel(ctx, query_ns, out);
    layers::engine(ctx, cheapest, out)?;
    match coreset {
        Some(cs) => layers::coreset_metrics(compact_s, fit_s, cs, ctx.clf, out),
        None => layers::coreset_probe(ctx, out)?,
    }
    let served = layers::model_io(ctx.rec, ctx.clf, out)?;
    serve_probe(ctx, spec, served, o)
}

/// A short open loop against the workload's own model behind an
/// in-process server, for the `serve.*` metrics of a batch workload.
fn serve_probe(ctx: &Ctx, spec: &Spec, served: Classifier, o: &mut Outcome) -> adapter::Result<()> {
    let payloads = serve::requests(ctx.qs, 64);
    let refs = payloads
        .iter()
        .map(|p| adapter::classify_batch(ctx.clf, p.clone(), adapter::serial()).map(|(l, _)| l))
        .collect::<adapter::Result<Vec<_>>>()?;
    let server = LiveServer::start(ctx.rec, served)?;
    let load = serve::open_loop(
        ctx.rec,
        &server.addr,
        &payloads,
        &refs,
        spec.probe_rate,
        crate::report::nproc(),
        PROBE_SECONDS,
        spec.limit_ms * 1e3,
    );
    serve::check_load(&load, &mut o.checks);
    o.untraced += load.untraced;
    let res = serve::serve_layers(
        ctx.rec,
        &server,
        ctx.clf,
        &payloads,
        &refs,
        &load,
        &mut o.layers,
    );
    server.stop()?;
    res
}
