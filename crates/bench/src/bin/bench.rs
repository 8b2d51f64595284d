//! Machine-readable perf baseline: fit + serial + parallel batch
//! throughput per thread count and dataset, written to
//! `BENCH_batch.json` so future changes can diff against a recorded
//! trajectory instead of anecdotes.
//!
//! ```text
//! cargo run --release -p tkdc-bench --bin bench -- \
//!     [--scale F] [--queries Q] [--threads-list 1,2,4,8] \
//!     [--repeats R] [--seed S] [--gate] [--out BENCH_batch.json]
//! ```
//!
//! Schema `tkdc-bench-batch/v3`. Per dataset:
//! * `parallel`: each thread count measured through the classifier's
//!   **persistent pool** (`ExecPolicy::Parallel`, workers parked
//!   between batches). Every wall figure is the best of `--repeats`
//!   runs so the pool's one-time spawn cost lands in the warmup, which
//!   is exactly the serve steady state.
//! * `leaf_sum`: SoA-vs-row-major leaf ablation — the same query
//!   sample summed over every tree leaf with `Kernel::sum_block`
//!   (row-major) and `Kernel::sum_block_soa` (dimension-major), with a
//!   checksum cross-check.
//! * `skewed` (gauss_d2 only): a worst-case batch whose expensive
//!   near-threshold queries sit in one contiguous block — the workload
//!   a static split loses on by design — timed on the pool against the
//!   same queries in a seeded shuffled order, where every participant's
//!   range holds its share of the hard queries. Same work on the same
//!   scheduler, so the two only match while stealing rebalances the
//!   contiguous block. `--gate` turns "contiguous ≥ 0.95× shuffled"
//!   into a hard exit code for CI.
//!
//! All numbers are wall-clock on whatever machine runs the binary;
//! `threads_available` is recorded and `degraded` is set (with a loud
//! warning) when the machine has fewer cores than the largest requested
//! thread count, so a 1-core CI runner's flat speedups aren't mistaken
//! for a regression.

use std::fmt::Write as _;

use tkdc::{Classifier, ExecPolicy, Params, QueryStats};
use tkdc_bench::{time, BenchArgs};
use tkdc_common::{Matrix, Rng};
use tkdc_data::{DatasetKind, DatasetSpec};
use tkdc_sync::Arc;

/// JSON float: non-finite values have no JSON literal, emit null.
fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Runs `f` `repeats` times; returns the last output and the best
/// (minimum) wall-clock in seconds. The first run doubles as warmup —
/// for the pool scheduler that is where lazy worker spawn lands.
fn bench_runs<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, t0) = time(&mut f);
    let mut best = t0.as_secs_f64();
    for _ in 1..repeats.max(1) {
        let (o, t) = time(&mut f);
        out = o;
        best = best.min(t.as_secs_f64());
    }
    (out, best)
}

struct ThreadPoint {
    threads: usize,
    /// Persistent pool (`ExecPolicy::Parallel`): workers parked between
    /// batches, so steady-state cost is wakeup + steal, not spawn.
    pool_wall_s: f64,
    pool_qps: f64,
    pool_speedup: f64,
}

struct SkewPoint {
    threads: usize,
    /// The hard queries in one contiguous block.
    contiguous_qps: f64,
    /// The same queries in a seeded shuffled order.
    shuffled_qps: f64,
}

struct LeafSumAblation {
    leaves: usize,
    /// Total training rows across all leaves (one pass = `queries` x this).
    rows: usize,
    queries: usize,
    row_major_ns_per_row: f64,
    soa_ns_per_row: f64,
    /// row_major / soa: > 1 means the dimension-major layout wins.
    soa_speedup: f64,
    /// Relative checksum divergence between the two layouts (FP
    /// accumulation order differs; anything near 1e-12 is bit noise).
    max_rel_diff: f64,
}

struct DatasetReport {
    name: String,
    /// `"large"` marks the configuration the CI perf gate reads;
    /// everything else is `"standard"`.
    config: String,
    n: usize,
    d: usize,
    fit_serial_s: f64,
    fit_parallel_s: f64,
    fit_threads: usize,
    threshold: f64,
    serial_qps: f64,
    /// Engine counters from the serial reference run — thread-count
    /// independent, so the recorded work mix is machine-stable.
    serial_stats: QueryStats,
    parallel: Vec<ThreadPoint>,
    leaf_sum: LeafSumAblation,
    skewed: Option<(usize, Vec<SkewPoint>)>,
}

/// A worst case for a static split: the first half of the batch is
/// near-threshold (expensive, every pruning rule fails until deep in the
/// tree) and contiguous, the rest is far-tail (one node expansion). For a
/// 2-d standard gaussian KDE the density at radius `r` is about
/// `exp(-r²/2)/2π`, so the threshold circle sits at `r² = -2·ln(2π·t)`.
///
/// Half, not less: a pool participant's first pop takes a quarter of its
/// own range, and a popped chunk cannot be stolen. With a hard block of
/// at least a quarter of the batch no single chunk holds more than its
/// popper's fair share of the hard work, so the contiguous order can
/// match the shuffled one exactly when stealing rebalances. A smaller
/// block would be swallowed by one unstealable first pop.
fn skewed_queries(threshold: f64, total: usize, seed: u64) -> (Matrix, usize) {
    let mut m = Matrix::with_cols(2);
    let hard = (total / 2).max(1);
    let r_sq = (-2.0 * (2.0 * std::f64::consts::PI * threshold).ln()).max(0.25);
    let r = r_sq.sqrt();
    let mut rng = Rng::seed_from(seed ^ 0x5EED);
    for i in 0..total {
        if i < hard {
            // On the threshold circle, jittered within a bandwidth or so.
            let angle = rng.uniform(0.0, 2.0 * std::f64::consts::PI);
            let rr = r + rng.normal(0.0, 0.05);
            m.push_row(&[rr * angle.cos(), rr * angle.sin()]).unwrap(); // INVARIANT: bench tooling fails fast
        } else {
            // Far tail: certain LOW after one bound evaluation.
            m.push_row(&[rng.uniform(12.0, 13.0), rng.uniform(12.0, 13.0)])
                .unwrap(); // INVARIANT: bench tooling fails fast
        }
    }
    (m, hard)
}

/// Times a full leaf sweep (every leaf of the fitted tree, `nq` query
/// points) through the row-major and SoA leaf kernels.
fn leaf_sum_ablation(clf: &Classifier, query_set: &Matrix, repeats: usize) -> LeafSumAblation {
    // INVARIANT: `Classifier::tree` is always `Some`; every model is a tree model.
    let tree = clf.tree().expect("every model holds a k-d tree");
    let kernel = clf.kernel();
    let d = query_set.cols();
    let leaves: Vec<u32> = (0..tree.node_count() as u32) // CAST: node count fits u32 by construction
        .filter(|&id| tree.is_leaf(id))
        .collect();
    let rows: usize = leaves.iter().map(|&id| tree.node_block(id).len() / d).sum();
    let nq = query_set.rows().clamp(1, 32);

    let (row_sum, row_wall) = bench_runs(repeats, || {
        let mut acc = 0.0;
        for qi in 0..nq {
            let x = query_set.row(qi);
            for &id in &leaves {
                acc += kernel.sum_block(x, tree.node_block(id));
            }
        }
        acc
    });
    let (soa_sum, soa_wall) = bench_runs(repeats, || {
        let mut acc = 0.0;
        for qi in 0..nq {
            let x = query_set.row(qi);
            for &id in &leaves {
                let block = tree.node_block_soa(id);
                acc += kernel.sum_block_soa(x, block, block.len() / d);
            }
        }
        acc
    });

    let total_rows = (nq * rows) as f64;
    LeafSumAblation {
        leaves: leaves.len(),
        rows,
        queries: nq,
        row_major_ns_per_row: row_wall * 1e9 / total_rows.max(1.0),
        soa_ns_per_row: soa_wall * 1e9 / total_rows.max(1.0),
        soa_speedup: row_wall / soa_wall.max(1e-12),
        max_rel_diff: (row_sum - soa_sum).abs() / row_sum.abs().max(1e-300),
    }
}

struct MeasureCfg<'a> {
    name: &'a str,
    config: &'a str,
    queries: usize,
    threads_list: &'a [usize],
    seed: u64,
    repeats: usize,
    with_skew: bool,
}

fn measure_dataset(data: &Matrix, cfg: &MeasureCfg<'_>) -> DatasetReport {
    let max_threads = cfg.threads_list.iter().copied().max().unwrap_or(1);
    let params = Params::default().with_seed(cfg.seed);
    let (_, fit_serial) = time(|| Classifier::fit(data, &params).expect("fit")); // INVARIANT: bench tooling fails fast
    let (clf, fit_parallel) = time(|| {
        // INVARIANT: bench tooling fails fast
        Classifier::fit_with(data, &params, ExecPolicy::with_threads(max_threads)).expect("fit")
    });

    let q = cfg.queries.min(data.rows()).max(1);
    let mut rng = Rng::seed_from(cfg.seed ^ 0x9E37);
    // One Arc for the whole run: pool batches share the matrix zero-copy,
    // exactly like a serve request.
    let query_set = Arc::new(data.sample_rows(q, &mut rng));

    let ((_, serial_stats), serial_wall) = bench_runs(cfg.repeats, || {
        clf.classify_batch_shared(Arc::clone(&query_set), ExecPolicy::Serial)
            .expect("classify") // INVARIANT: bench tooling fails fast
    });
    let serial_qps = q as f64 / serial_wall.max(1e-12);

    let parallel = cfg
        .threads_list
        .iter()
        .map(|&threads| {
            let (_, pool_wall_s) = bench_runs(cfg.repeats, || {
                clf.classify_batch_shared(Arc::clone(&query_set), ExecPolicy::with_threads(threads))
                    .expect("classify") // INVARIANT: bench tooling fails fast
            });
            ThreadPoint {
                threads,
                pool_wall_s,
                pool_qps: q as f64 / pool_wall_s.max(1e-12),
                pool_speedup: serial_wall / pool_wall_s.max(1e-12),
            }
        })
        .collect();

    let leaf_sum = leaf_sum_ablation(&clf, &query_set, cfg.repeats);

    let skewed = cfg.with_skew.then(|| {
        let (skew_set, _hard) = skewed_queries(clf.threshold(), q, cfg.seed);
        // A seeded permutation of the same rows spreads the hard block
        // evenly over every participant's share of the split.
        let shuffled = Arc::new(skew_set.sample_rows(q, &mut Rng::seed_from(cfg.seed ^ 0x5407)));
        let skew_set = Arc::new(skew_set);
        let points = cfg
            .threads_list
            .iter()
            .filter(|&&t| t > 1)
            .map(|&threads| {
                let run = |set: &Arc<Matrix>| {
                    time(|| {
                        clf.classify_batch_shared(
                            Arc::clone(set),
                            ExecPolicy::with_threads(threads),
                        )
                        .expect("classify") // INVARIANT: bench tooling fails fast
                    })
                    .1
                    .as_secs_f64()
                };
                // Alternate the two orders, best of `repeats` each, so
                // drift on a shared host lands on both sides alike.
                let (mut contiguous_wall, mut shuffled_wall) = (f64::INFINITY, f64::INFINITY);
                for _ in 0..cfg.repeats {
                    contiguous_wall = contiguous_wall.min(run(&skew_set));
                    shuffled_wall = shuffled_wall.min(run(&shuffled));
                }
                SkewPoint {
                    threads,
                    contiguous_qps: q as f64 / contiguous_wall.max(1e-12),
                    shuffled_qps: q as f64 / shuffled_wall.max(1e-12),
                }
            })
            .collect();
        (q, points)
    });

    DatasetReport {
        name: cfg.name.to_string(),
        config: cfg.config.to_string(),
        n: data.rows(),
        d: data.cols(),
        fit_serial_s: fit_serial.as_secs_f64(),
        fit_parallel_s: fit_parallel.as_secs_f64(),
        fit_threads: max_threads,
        threshold: clf.threshold(),
        serial_qps,
        serial_stats,
        parallel,
        leaf_sum,
        skewed,
    }
}

fn render_json(
    reports: &[DatasetReport],
    scale: f64,
    queries: usize,
    seed: u64,
    repeats: usize,
    threads_available: usize,
    degraded: bool,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"tkdc-bench-batch/v3\",");
    let _ = writeln!(s, "  \"threads_available\": {threads_available},");
    let _ = writeln!(s, "  \"degraded\": {degraded},");
    let _ = writeln!(s, "  \"scale\": {},", jf(scale));
    let _ = writeln!(s, "  \"queries\": {queries},");
    let _ = writeln!(s, "  \"repeats\": {repeats},");
    let _ = writeln!(s, "  \"seed\": {seed},");
    s.push_str("  \"datasets\": [\n");
    for (di, r) in reports.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"config\": \"{}\",", r.config);
        let _ = writeln!(s, "      \"n\": {},", r.n);
        let _ = writeln!(s, "      \"d\": {},", r.d);
        let _ = writeln!(s, "      \"threshold\": {},", jf(r.threshold));
        let _ = writeln!(s, "      \"fit_serial_s\": {},", jf(r.fit_serial_s));
        let _ = writeln!(s, "      \"fit_parallel_s\": {},", jf(r.fit_parallel_s));
        let _ = writeln!(s, "      \"fit_threads\": {},", r.fit_threads);
        let _ = writeln!(s, "      \"serial_qps\": {},", jf(r.serial_qps));
        let counters: Vec<String> = r
            .serial_stats
            .named_counters()
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        let _ = writeln!(s, "      \"engine_counters\": {{{}}},", counters.join(", "));
        s.push_str("      \"parallel\": [\n");
        for (i, p) in r.parallel.iter().enumerate() {
            let comma = if i + 1 < r.parallel.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "        {{\"threads\": {}, \"pool_wall_s\": {}, \"pool_qps\": {}, \
                 \"pool_speedup\": {}}}{comma}",
                p.threads,
                jf(p.pool_wall_s),
                jf(p.pool_qps),
                jf(p.pool_speedup)
            );
        }
        s.push_str("      ],\n");
        let ls = &r.leaf_sum;
        let _ = writeln!(
            s,
            "      \"leaf_sum\": {{\"leaves\": {}, \"rows\": {}, \"queries\": {}, \
             \"row_major_ns_per_row\": {}, \"soa_ns_per_row\": {}, \
             \"soa_speedup\": {}, \"max_rel_diff\": {}}}",
            ls.leaves,
            ls.rows,
            ls.queries,
            jf(ls.row_major_ns_per_row),
            jf(ls.soa_ns_per_row),
            jf(ls.soa_speedup),
            jf(ls.max_rel_diff)
        );
        if let Some((skew_q, points)) = &r.skewed {
            s.push_str(",\n      \"skewed\": {\n");
            let _ = writeln!(s, "        \"queries\": {skew_q},");
            let _ = writeln!(s, "        \"hard_fraction\": 0.5,");
            s.push_str("        \"per_threads\": [\n");
            for (i, p) in points.iter().enumerate() {
                let comma = if i + 1 < points.len() { "," } else { "" };
                let _ = writeln!(
                    s,
                    "          {{\"threads\": {}, \"contiguous_qps\": {}, \"shuffled_qps\": {}, \
                     \"contiguous_vs_shuffled\": {}}}{comma}",
                    p.threads,
                    jf(p.contiguous_qps),
                    jf(p.shuffled_qps),
                    jf(p.contiguous_qps / p.shuffled_qps.max(1e-12))
                );
            }
            s.push_str("        ]\n      }\n");
        }
        let comma = if di + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

/// `--gate`: the pool on the contiguous hard block must hold ≥ 0.95×
/// the pool on the shuffled order at every thread count (the CI
/// bench-smoke gate). Without stealing, the participant whose range
/// holds the block does all the hard work alone, so the bar fails.
/// Returns false — after printing every failing point — when the bar
/// is missed.
fn stealing_gate(reports: &[DatasetReport]) -> bool {
    let mut ok = true;
    for r in reports {
        let Some((_, points)) = &r.skewed else {
            continue;
        };
        for p in points {
            let ratio = p.contiguous_qps / p.shuffled_qps.max(1e-12);
            if ratio < 0.95 {
                eprintln!(
                    "GATE FAIL {}: threads={} contiguous {:.0} q/s < 0.95 x shuffled {:.0} q/s \
                     (ratio {:.3})",
                    r.name, p.threads, p.contiguous_qps, p.shuffled_qps, ratio
                );
                ok = false;
            }
        }
    }
    ok
}

fn main() {
    let args = BenchArgs::parse();
    let seed = args.seed();
    let queries = args.get_usize("queries", 100_000);
    let repeats = args.get_usize("repeats", 3).max(1);
    let out = args
        .get_str("out")
        .unwrap_or("BENCH_batch.json")
        .to_string();
    let threads_available = tkdc_sync::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads_list: Vec<usize> = args
        .get_str("threads-list")
        .unwrap_or("1,2,4")
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .filter(|&t| t >= 1)
        .collect();
    let threads_list = if threads_list.is_empty() {
        vec![1, 2, 4]
    } else {
        threads_list
    };
    let max_requested = threads_list.iter().copied().max().unwrap_or(1);
    let degraded = threads_available < max_requested;
    if degraded {
        eprintln!("================================================================");
        eprintln!(
            "WARNING: this machine exposes {threads_available} hardware thread(s) but the run \
             requests up to {max_requested}."
        );
        eprintln!("Parallel speedups below are NOT meaningful scaling numbers;");
        eprintln!("the baseline is marked \"degraded\": true in {out}.");
        eprintln!("================================================================");
    }

    let mut reports = Vec::new();
    let run = |name: &str,
               kind: DatasetKind,
               n: usize,
               queries: usize,
               config: &str,
               with_skew: bool,
               reports: &mut Vec<DatasetReport>| {
        let data = DatasetSpec { kind, n, seed }
            .generate()
            .expect("generate dataset"); // INVARIANT: bench tooling fails fast
        let data = if name.starts_with("tmy3") {
            let d = data.cols().min(8);
            data.prefix_columns(d).expect("prefix") // INVARIANT: bench tooling fails fast
        } else {
            data
        };
        eprintln!(
            "{name}: n={}, d={}, queries={}",
            data.rows(),
            data.cols(),
            queries.min(data.rows())
        );
        reports.push(measure_dataset(
            &data,
            &MeasureCfg {
                name,
                config,
                queries,
                threads_list: &threads_list,
                seed,
                repeats,
                with_skew,
            },
        ));
    };

    // The tentpole configuration the CI perf gate reads: ≥1M points,
    // ≥100k queries at scale 1. The d∈{8,64} twins exercise the SoA
    // kernels where dimensionality actually stresses the layout.
    run(
        "gauss_d2",
        DatasetKind::Gauss { d: 2 },
        args.scaled_n(1_000_000),
        queries,
        "large",
        true,
        &mut reports,
    );
    run(
        "gauss_d8",
        DatasetKind::Gauss { d: 8 },
        args.scaled_n(250_000),
        (queries / 2).max(1),
        "standard",
        false,
        &mut reports,
    );
    run(
        "gauss_d64",
        DatasetKind::Gauss { d: 64 },
        args.scaled_n(50_000),
        (queries / 5).max(1),
        "standard",
        false,
        &mut reports,
    );
    run(
        "tmy3_d8",
        DatasetKind::Tmy3,
        args.scaled_n(50_000),
        (queries / 2).max(1),
        "standard",
        false,
        &mut reports,
    );

    let json = render_json(
        &reports,
        args.scale(),
        queries,
        seed,
        repeats,
        threads_available,
        degraded,
    );
    std::fs::write(&out, &json).expect("write baseline"); // INVARIANT: bench tooling fails fast
    for r in &reports {
        eprintln!(
            "{} [{}]: fit {:.2}s (serial) / {:.2}s ({} threads), serial {:.0} q/s",
            r.name, r.config, r.fit_serial_s, r.fit_parallel_s, r.fit_threads, r.serial_qps
        );
        for p in &r.parallel {
            eprintln!(
                "  threads={}: pool {:.0} q/s ({:.2}x)",
                p.threads, p.pool_qps, p.pool_speedup
            );
        }
        if let Some((_, points)) = &r.skewed {
            for p in points {
                eprintln!(
                    "  skewed threads={}: contiguous {:.0} q/s, shuffled {:.0} q/s ({:.2}x)",
                    p.threads,
                    p.contiguous_qps,
                    p.shuffled_qps,
                    p.contiguous_qps / p.shuffled_qps.max(1e-12)
                );
            }
        }
        eprintln!(
            "  leaf_sum: {} leaves / {} rows, row-major {:.2} ns/row, soa {:.2} ns/row ({:.2}x)",
            r.leaf_sum.leaves,
            r.leaf_sum.rows,
            r.leaf_sum.row_major_ns_per_row,
            r.leaf_sum.soa_ns_per_row,
            r.leaf_sum.soa_speedup
        );
    }
    eprintln!("baseline written to {out}");

    if args.has("gate") {
        if stealing_gate(&reports) {
            eprintln!("gate: ok (contiguous >= 0.95x shuffled on every skewed point)");
        } else {
            std::process::exit(1);
        }
    }
}
