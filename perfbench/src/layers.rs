//! Per-layer measurements for a traced run. Each function times calls
//! into one layer's public functions from outside the program and
//! writes that layer's metrics. Where a workload's end-to-end path skips
//! a layer, the same function runs as a probe on that workload's own
//! data (see README.md), so every traced run reports every layer.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::adapter::{self, Classifier, Matrix, Params, QueryStats, WeightedCoreset};
use crate::queries::QuerySet;
use crate::report::{mean, median, quantile, ratio, Metrics};
use crate::spans::{Recorder, SpanId};

/// Coreset accuracy for the coreset probe on workloads whose set-up
/// does not compact (the `coreset_d2` workload uses the same value).
pub const CORESET_EPS: f64 = 1e-3;

/// Queries timed one by one for the serial bound-query percentiles.
const SERIAL_QUERIES: usize = 4000;
/// Queries swept over every leaf for the leaf-kernel cost.
const SWEEP_QUERIES: usize = 8;
/// Calls timed serially and through the pool for parallel efficiency.
const EFFICIENCY_CALLS: usize = 24;
/// Pairs of trivially cheap calls for the dispatch cost.
const DISPATCH_PAIRS: usize = 1000;

/// What the layer measurements need from a fitted workload.
pub struct Ctx<'a> {
    pub rec: &'a Recorder,
    pub threads: usize,
    pub train: &'a Matrix,
    pub params: &'a Params,
    pub clf: &'a Classifier,
    pub qs: &'a QuerySet,
    /// The workload's classify calls (batches or request payloads).
    pub calls: &'a [Arc<Matrix>],
    /// Counters of the reference pass over all of `calls`.
    pub stats: QueryStats,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `threshold.*`, `index.*` and `classifier.fit_rest_s`. `fit_s` is the
/// median fit time from set-up; `coreset` is the coreset the model was
/// fitted on, if any. The bootstrap always runs over the full training
/// rows: on the coreset workload it is what a full-data fit would spend.
pub fn fit(
    c: &Ctx,
    fit_s: f64,
    coreset: Option<&WeightedCoreset>,
    out: &mut Metrics,
) -> adapter::Result<()> {
    let policy = adapter::parallel(c.threads);
    let (boot, boot_s) = c.rec.time("threshold.bootstrap", SpanId::NONE, |_| {
        adapter::bootstrap(c.train, c.params, policy)
    });
    let (_, report) = boot?;
    out.set("threshold.bootstrap_s", boot_s.as_secs_f64(), "s");
    out.set("threshold.rounds", report.rounds.len() as f64, "count");
    out.set(
        "threshold.bootstrap_bound_evals",
        report.stats.bound_evals as f64,
        "count",
    );

    let (tree, tree_s) = c
        .rec
        .time("index.tree_build", SpanId::NONE, |_| match coreset {
            Some(cs) => adapter::tree_build_weighted(cs, c.params),
            None => adapter::tree_build(c.train, c.params),
        });
    drop(black_box(tree?));
    // Above the grid's dimension cap the build is refused at once; the
    // time of that refusal is what the grid costs there.
    let (grid, grid_s) = c.rec.time("index.grid_build", SpanId::NONE, |_| {
        adapter::grid_build(c.train, adapter::kernel(c.clf))
    });
    drop(black_box(grid));
    let tree = adapter::tree(c.clf).expect("tree backend");
    out.set("index.tree_build_s", tree_s.as_secs_f64(), "s");
    out.set("index.grid_build_s", grid_s.as_secs_f64(), "s");
    out.set("index.nodes", adapter::node_count(tree) as f64, "count");

    let mut rest = fit_s - tree_s.as_secs_f64();
    if coreset.is_none() {
        rest -= boot_s.as_secs_f64();
    }
    if adapter::grid_enabled(c.clf) {
        rest -= grid_s.as_secs_f64();
    }
    out.set("classifier.fit_rest_s", rest, "s");
    Ok(())
}

/// `bound.*` from serial one-query calls and the reference-pass
/// counters. Returns the mean serial query time in ns and the index of
/// the query that took least time.
pub fn bound(c: &Ctx, out: &mut Metrics) -> (f64, usize) {
    let n = c.qs.len().min(SERIAL_QUERIES);
    let mut scratch = adapter::new_scratch();
    let mut us = Vec::with_capacity(n);
    c.rec.time("bound.serial_queries", SpanId::NONE, |_| {
        for i in 0..n {
            let t = Instant::now();
            let l = adapter::classify_one(c.clf, c.qs.points.row(i), &mut scratch);
            us.push(secs(t) * 1e6);
            black_box(l.ok());
        }
    });
    let s = &c.stats;
    let q = s.queries as f64;
    out.set("bound.query_us_p50", median(&us), "us");
    out.set("bound.query_us_p99", quantile(&us, 0.99), "us");
    out.set(
        "bound.evals_per_query",
        ratio(s.bound_evals as f64, q),
        "count",
    );
    out.set(
        "bound.nodes_per_query",
        ratio(s.nodes_expanded as f64, q),
        "count",
    );
    out.set("bound.grid_share", ratio(s.grid_prunes as f64, q), "share");
    out.set(
        "bound.tolerance_share",
        ratio(s.tolerance as f64, q),
        "share",
    );
    out.set(
        "bound.exhausted_share",
        ratio(s.exhausted as f64, q),
        "share",
    );
    let cheapest = (0..us.len())
        .min_by(|&a, &b| us[a].total_cmp(&us[b]))
        .unwrap_or(0);
    (mean(&us) * 1e3, cheapest)
}

/// `kernel.*`: a sweep of every leaf of the fitted tree through the SoA
/// leaf kernel (its weighted twin on a coreset tree).
pub fn kernel(c: &Ctx, query_ns: f64, out: &mut Metrics) {
    let tree = adapter::tree(c.clf).expect("tree backend");
    let k = adapter::kernel(c.clf);
    let n_nodes = u32::try_from(adapter::node_count(tree)).expect("node ids are u32");
    let leaves: Vec<u32> = (0..n_nodes)
        .filter(|&id| adapter::is_leaf(tree, id))
        .collect();
    let rows: usize = leaves.iter().map(|&id| adapter::leaf_rows(tree, id)).sum();
    let nq = c.qs.len().min(SWEEP_QUERIES);
    let (acc, dt) = c.rec.time("kernel.leaf_sweep", SpanId::NONE, |_| {
        let mut acc = 0.0;
        for i in 0..nq {
            let x = black_box(c.qs.points.row(i));
            for &id in &leaves {
                acc += adapter::leaf_sum(k, tree, id, x);
            }
        }
        acc
    });
    black_box(acc);
    let ns_per_row = ratio(dt.as_secs_f64() * 1e9, (nq * rows) as f64);
    let evals = ratio(c.stats.kernel_evals as f64, c.stats.queries as f64);
    out.set("kernel.evals_per_query", evals, "count");
    out.set("kernel.leaf_ns_per_row", ns_per_row, "ns");
    out.set("kernel.share", ratio(evals * ns_per_row, query_ns), "share");
}

/// `engine.*`: the same calls serially and through the pool, pool
/// telemetry over the pool calls, and the dispatch cost of a trivially
/// cheap batch: 2·threads copies (the fewest that still engage the pool)
/// of query `cheapest`.
pub fn engine(c: &Ctx, cheapest: usize, out: &mut Metrics) -> adapter::Result<()> {
    let calls = &c.calls[..c.calls.len().min(EFFICIENCY_CALLS)];
    let run_all = |name, policy| {
        c.rec.time(name, SpanId::NONE, |_| -> adapter::Result<()> {
            for q in calls {
                adapter::classify_batch(c.clf, q.clone(), policy)?;
            }
            Ok(())
        })
    };
    let (serial, serial_s) = run_all("engine.serial_calls", adapter::serial());
    serial?;
    // Workers account a park when they wake, so the first pool call
    // would book the whole idle stretch before it; start counting after.
    adapter::classify_batch(c.clf, calls[0].clone(), adapter::parallel(c.threads))?;
    let before = adapter::pool_telemetry(c.clf);
    let (pooled, pool_s) = run_all("engine.pool_calls", adapter::parallel(c.threads));
    pooled?;
    let after = adapter::pool_telemetry(c.clf);
    let (mut busy, mut idle, mut steals, mut parks) = (0u64, 0u64, 0u64, 0u64);
    for (i, w) in after.workers.iter().enumerate() {
        let b = before.workers.get(i).copied().unwrap_or_default();
        busy += w.busy_ns - b.busy_ns;
        idle += w.idle_ns - b.idle_ns;
        steals += w.chunks_stolen - b.chunks_stolen;
        parks += w.parks - b.parks;
    }
    let n = calls.len() as f64;
    out.set(
        "engine.parallel_efficiency",
        ratio(
            serial_s.as_secs_f64(),
            c.threads as f64 * pool_s.as_secs_f64(),
        ),
        "share",
    );
    out.set(
        "engine.utilization",
        ratio(busy as f64, (busy + idle) as f64),
        "share",
    );
    out.set("engine.steals_per_call", ratio(steals as f64, n), "count");
    out.set("engine.parks_per_call", ratio(parks as f64, n), "count");

    let rows: Vec<f64> = (0..2 * c.threads)
        .flat_map(|_| c.qs.points.row(cheapest).to_vec())
        .collect();
    let tiny = Arc::new(adapter::matrix_from_vec(
        rows,
        2 * c.threads,
        c.qs.points.cols(),
    )?);
    let (mut pool_us, mut serial_us) = (Vec::new(), Vec::new());
    c.rec.time("engine.dispatch_pairs", SpanId::NONE, |_| {
        for _ in 0..DISPATCH_PAIRS {
            let t = Instant::now();
            black_box(
                adapter::classify_batch(c.clf, tiny.clone(), adapter::parallel(c.threads)).ok(),
            );
            pool_us.push(secs(t) * 1e6);
            let t = Instant::now();
            black_box(adapter::classify_batch(c.clf, tiny.clone(), adapter::serial()).ok());
            serial_us.push(secs(t) * 1e6);
        }
    });
    out.set(
        "engine.dispatch_us",
        median(&pool_us) - median(&serial_us),
        "us",
    );
    Ok(())
}

/// `coreset.*` from a coreset and the model fitted on it.
pub fn coreset_metrics(
    compact_s: f64,
    fit_s: f64,
    cs: &WeightedCoreset,
    model: &Classifier,
    out: &mut Metrics,
) {
    out.set("coreset.compact_s", compact_s, "s");
    out.set("coreset.fit_s", fit_s, "s");
    out.set("coreset.points_out", cs.points.rows() as f64, "count");
    out.set(
        "coreset.fold_over_threshold",
        ratio(adapter::coreset_fold(model), adapter::threshold(model)),
        "ratio",
    );
}

/// The coreset probe: compacts the workload's training rows at
/// `CORESET_EPS` and fits on the result.
pub fn coreset_probe(c: &Ctx, out: &mut Metrics) -> adapter::Result<()> {
    let (cs, compact_s) = c.rec.time("coreset.compact", SpanId::NONE, |_| {
        adapter::compact(c.train, CORESET_EPS)
    });
    let cs = cs?;
    let (model, fit_s) = c.rec.time("coreset.fit", SpanId::NONE, |_| {
        adapter::fit_weighted(&cs, c.params, adapter::parallel(c.threads))
    });
    coreset_metrics(
        compact_s.as_secs_f64(),
        fit_s.as_secs_f64(),
        &cs,
        &model?,
        out,
    );
    Ok(())
}

/// `model_io.*` from one in-memory save and load of `clf`; returns the
/// loaded copy.
pub fn model_io(
    rec: &Recorder,
    clf: &Classifier,
    out: &mut Metrics,
) -> adapter::Result<Classifier> {
    let mut bytes = Vec::new();
    let (saved, save_s) = rec.time("model_io.save", SpanId::NONE, |_| {
        adapter::save(clf, &mut bytes)
    });
    saved?;
    let (loaded, load_s) = rec.time("model_io.load", SpanId::NONE, |_| adapter::load(&bytes));
    model_io_metrics(save_s.as_secs_f64(), load_s.as_secs_f64(), bytes.len(), out);
    loaded
}

pub fn model_io_metrics(save_s: f64, load_s: f64, bytes: usize, out: &mut Metrics) {
    out.set("model_io.save_s", save_s, "s");
    out.set("model_io.load_s", load_s, "s");
    out.set("model_io.bytes", bytes as f64, "bytes");
}
