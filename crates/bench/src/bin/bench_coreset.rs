//! Coreset compaction benchmark.
//!
//! Streams a synthetic `gauss-d2` dataset through the merge-reduce
//! coreset builder, fits one classifier on the full data and one on the
//! weighted coreset (with ε folded into its certified interval), and
//! reports as `BENCH_coreset.json` (schema `tkdc-bench-coreset/v1`):
//!
//! * **compression** — input points vs coreset points, plus the
//!   builder's resident-memory high-water mark;
//! * **fit / classify speedup** — wall time of the full-data fit and
//!   batch classify vs the compact+fit and classify on the coreset
//!   (each classify time is the best of 5 calls, so one cold call does
//!   not stand for the batch);
//! * **label agreement** — over a fresh query batch, how the coreset
//!   model's labels compare with the full-data model's. The contract
//!   under test: wherever the coreset model *certifies* (HIGH/LOW), it
//!   must agree with the full-data model — lost precision may only
//!   surface as UNKNOWN. A flipped certified label fails the run
//!   (non-zero exit), which is what the CI smoke job keys off.
//!
//! Flags: `--n 200000` (stream length; `--scale` also applies),
//! `--dims 2`, `--eps 0.001` (coreset accuracy in units of `K(0)`),
//! `--compactor grid|sample`, `--queries 2000`, `--p 0.01`, `--seed`,
//! `--threads`, `--out BENCH_coreset.json`.

use std::fmt::Write as _;
use std::time::Duration;

use tkdc::{Classifier, ExecPolicy, Label, Params};
use tkdc_bench::{time, BenchArgs};
use tkdc_common::{Matrix, Rng};
use tkdc_coreset::{target_size, CompactorKind, CoresetConfig, StreamingCoreset};
use tkdc_data::gauss;
use tkdc_sync::Arc;

/// JSON float: non-finite values have no JSON literal, emit null.
fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Calls per timed classify batch; the fastest one is reported.
const CLASSIFY_REPS: usize = 5;

/// The result of the last of [`CLASSIFY_REPS`] calls of `f` and the
/// fastest call's wall time.
fn best_of<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let (mut out, mut best) = time(&mut f);
    for _ in 1..CLASSIFY_REPS {
        let (o, t) = time(&mut f);
        out = o;
        best = best.min(t);
    }
    (out, best)
}

fn main() {
    let args = BenchArgs::parse();
    let n = args.scaled_n(200_000);
    let dims = args.get_usize("dims", 2);
    let eps = args.get_f64("eps", 1e-3);
    let n_queries = args.queries();
    let p = args.get_f64("p", 0.01);
    let seed = args.seed();
    let threads = args.threads();
    let kind = match args.get_str("compactor") {
        None | Some("grid") => CompactorKind::Grid,
        Some("sample") => CompactorKind::Sample,
        // INVARIANT: bench tooling fails fast on bad flags.
        Some(other) => panic!("--compactor expects grid|sample, got `{other}`"),
    };
    let out_path = args.get_str("out").unwrap_or("BENCH_coreset.json");

    let data = gauss::generate(n, dims, seed);
    let mut qrng = Rng::seed_from(seed ^ 0x9E37_79B9);
    let mut queries = Matrix::with_cols(dims);
    let mut row = vec![0.0; dims];
    for _ in 0..n_queries {
        for v in row.iter_mut() {
            *v = qrng.standard_normal();
        }
        queries.push_row(&row).expect("push query row"); // INVARIANT: bench tooling fails fast
    }

    let mut params = Params::default().with_p(p);
    params.seed = seed;
    let policy = ExecPolicy::with_threads(threads);

    eprintln!("full fit: {n} points × {dims} dims ({threads} threads) …");
    let (full, full_fit_t) = time(|| {
        // INVARIANT: bench tooling fails fast
        Classifier::fit_with(&data, &params, ExecPolicy::with_threads(threads)).expect("full fit")
    });

    eprintln!("compact: ε = {eps} ({kind:?}) …");
    let (coreset, compact_t) = time(|| {
        let cfg = CoresetConfig {
            eps,
            kind,
            seed,
            chunk_capacity: None,
        };
        // INVARIANT: bench tooling fails fast
        let mut sc = StreamingCoreset::new(dims, cfg).expect("coreset builder");
        sc.push_matrix(&data).expect("coreset stream"); // INVARIANT: bench tooling fails fast
        sc.finish().expect("coreset finish") // INVARIANT: bench tooling fails fast
    });
    let m = target_size(dims, eps).expect("target size"); // INVARIANT: eps validated above

    eprintln!(
        "coreset fit: {} weighted points (of {} streamed) …",
        coreset.points.rows(),
        coreset.stats.points_in
    );
    let (compact_clf, coreset_fit_t) = time(|| {
        Classifier::fit_weighted_with(
            &coreset.points,
            &coreset.weights,
            eps,
            &params,
            ExecPolicy::with_threads(threads),
        )
        .expect("coreset fit") // INVARIANT: bench tooling fails fast
    });

    // Shared once, so the timed batches hand the pool an `Arc` clone
    // rather than a copy of the queries.
    let queries = Arc::new(queries);
    let ((full_labels, _), full_cls_t) = best_of(|| {
        full.classify_batch_shared(Arc::clone(&queries), policy)
            // INVARIANT: bench tooling fails fast
            .expect("full classify")
    });
    let ((core_labels, _), core_cls_t) = best_of(|| {
        compact_clf
            .classify_batch_shared(Arc::clone(&queries), policy)
            .expect("coreset classify") // INVARIANT: bench tooling fails fast
    });

    let mut certified = 0usize;
    let mut agree = 0usize;
    let mut unknown = 0usize;
    let mut flipped = 0usize;
    for (f, c) in full_labels.iter().zip(core_labels.iter()) {
        match c {
            Label::Unknown => unknown += 1,
            _ => {
                certified += 1;
                if f == c {
                    agree += 1;
                } else {
                    flipped += 1;
                }
            }
        }
    }
    let compression = coreset.stats.points_in as f64 / coreset.stats.points_out as f64;
    let fit_speedup = secs(full_fit_t) / (secs(compact_t) + secs(coreset_fit_t));
    let cls_speedup = secs(full_cls_t) / secs(core_cls_t);

    let mut s = String::new();
    // INVARIANT: fmt::Write to a String cannot fail; discard the Results.
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"tkdc-bench-coreset/v1\",");
    let _ = writeln!(s, "  \"dataset\": \"gauss-d{dims}\",");
    let _ = writeln!(s, "  \"n\": {n},");
    let _ = writeln!(s, "  \"dims\": {dims},");
    let _ = writeln!(s, "  \"queries\": {n_queries},");
    let _ = writeln!(s, "  \"eps\": {},", jf(eps));
    let _ = writeln!(
        s,
        "  \"compactor\": \"{}\",",
        format!("{kind:?}").to_lowercase()
    );
    let _ = writeln!(s, "  \"p\": {},", jf(p));
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"threads\": {threads},");
    let _ = writeln!(s, "  \"coreset\": {{");
    let _ = writeln!(s, "    \"target_size\": {m},");
    let _ = writeln!(s, "    \"points_in\": {},", coreset.stats.points_in);
    let _ = writeln!(s, "    \"points_out\": {},", coreset.stats.points_out);
    let _ = writeln!(s, "    \"compression_ratio\": {},", jf(compression));
    let _ = writeln!(s, "    \"reduces\": {},", coreset.stats.reduces);
    let _ = writeln!(
        s,
        "    \"max_resident_points\": {},",
        coreset.stats.max_resident_points
    );
    let _ = writeln!(s, "    \"compact_s\": {}", jf(secs(compact_t)));
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"fit\": {{");
    let _ = writeln!(s, "    \"full_s\": {},", jf(secs(full_fit_t)));
    let _ = writeln!(s, "    \"coreset_s\": {},", jf(secs(coreset_fit_t)));
    let _ = writeln!(s, "    \"speedup\": {},", jf(fit_speedup));
    let _ = writeln!(s, "    \"threshold_full\": {},", jf(full.threshold()));
    let _ = writeln!(
        s,
        "    \"threshold_coreset\": {}",
        jf(compact_clf.threshold())
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"classify\": {{");
    let _ = writeln!(s, "    \"full_s\": {},", jf(secs(full_cls_t)));
    let _ = writeln!(s, "    \"coreset_s\": {},", jf(secs(core_cls_t)));
    let _ = writeln!(s, "    \"speedup\": {},", jf(cls_speedup));
    let _ = writeln!(
        s,
        "    \"full_qps\": {},",
        jf(n_queries as f64 / secs(full_cls_t))
    );
    let _ = writeln!(
        s,
        "    \"coreset_qps\": {}",
        jf(n_queries as f64 / secs(core_cls_t))
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"labels\": {{");
    let _ = writeln!(s, "    \"certified\": {certified},");
    let _ = writeln!(
        s,
        "    \"agreement_certified\": {},",
        jf(if certified > 0 {
            agree as f64 / certified as f64
        } else {
            1.0
        })
    );
    let _ = writeln!(s, "    \"unknown\": {unknown},");
    let _ = writeln!(
        s,
        "    \"unknown_rate\": {},",
        jf(unknown as f64 / n_queries.max(1) as f64)
    );
    let _ = writeln!(s, "    \"flipped_certified\": {flipped}");
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    std::fs::write(out_path, &s).expect("write bench json"); // INVARIANT: bench tooling fails fast

    eprintln!(
        "compression {compression:.1}x, fit speedup {fit_speedup:.1}x, classify speedup \
         {cls_speedup:.1}x, {unknown}/{n_queries} unknown, {flipped} flipped"
    );
    println!("{s}");
    if flipped > 0 {
        eprintln!("FAIL: {flipped} certified labels flipped vs the full-data fit");
        std::process::exit(1);
    }
}
