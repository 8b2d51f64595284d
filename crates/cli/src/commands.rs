//! Subcommand implementations for the `tkdc` CLI.

use crate::args::{
    usage_error, Flags, COMMON_FLAGS, COMPACT_FLAGS, EXPLAIN_FLAGS, SERVE_FLAGS, STATS_FLAGS,
};
use std::io::{BufRead, Write};
use tkdc::model_io::{load_model, save_model};
use tkdc::span::check_sink;
use tkdc::{Classifier, Ctx, ExecPolicy, Label, Params, Spans, TraceRecord};
use tkdc_common::csv::{read_csv, CsvOptions};
use tkdc_common::error::Result;
use tkdc_common::Matrix;
use tkdc_coreset::{CoresetConfig, StreamingCoreset, WeightedCoreset};
use tkdc_obs::{complete_spans, render_for_path, Registry};
use tkdc_serve::{Client, ServeConfig, Server, StatsSnapshot};

const USAGE: &str = "\
tkdc — density classification over CSV datasets (tKDC, SIGMOD 2017)

USAGE:
    tkdc <subcommand> [flags]

SUBCOMMANDS:
    train      fit a model and save it:
                 tkdc train --input data.csv --model out.tkdc
    classify   classify query rows with a saved model:
                 tkdc classify --model out.tkdc --input queries.csv
    density    print certified density bounds per query row:
                 tkdc density --model out.tkdc --input queries.csv
    outliers   one-shot: fit on the input and list its low-density rows:
                 tkdc outliers --input data.csv --p 0.01
    threshold  estimate the density threshold t(p) only
    compact    stream a CSV into a weighted coreset (merge-reduce; memory
               stays sublinear in the input; weight is the last column):
                 tkdc compact --input big.csv --coreset-eps 1e-3 --output core.csv
    explain    trace one query and print its bound-convergence trajectory:
                 tkdc explain 0.3,-1.2 --model out.tkdc
    serve      serve a saved model over TCP (binary protocol, see DESIGN.md):
                 tkdc serve --model out.tkdc --addr 127.0.0.1:7117
    stats      poll a running daemon's Stats frame and render it:
                 tkdc stats --addr 127.0.0.1:7117 --watch
    help       print this message

SHARED FLAGS:
    --input FILE        input CSV (numeric; blank/'#' lines skipped)
    --header            treat the first CSV line as a header
    --columns I,J,...   use only these 0-based columns
    --output FILE       write results to FILE instead of stdout
    --model FILE        model path (train: write; classify: read)
    --p P               classification rate (default 0.01)
    --epsilon E         multiplicative error tolerance (default 0.01)
    --delta D           bootstrap failure probability (default 0.01)
    --bandwidth B       Scott's-rule scale factor (default 1.0)
    --kernel K          gaussian | epanechnikov (default gaussian)
    --seed N            RNG seed (default from Params)
    --threads N         worker threads for training and batch queries
                        (default: all available cores; results are
                        identical for any thread count)
    --quiet             suppress progress logging
    --span-out FILE     write the run's trace stream: `.jsonl` →
                        tkdc-trace/v2 records (stage spans plus any
                        sampled query records), anything else → Chrome
                        trace_event JSON of the spans (open in Perfetto)
    --trace-sample N    also record every N-th query of each batch by
                        index as a query record (default 0 = none;
                        needs a `.jsonl` --span-out; see DESIGN.md)
    --coreset-eps E     train/compact: build an ε-accurate weighted
                        coreset (ε in units of K(0)) and fold ε into the
                        certified interval — straddling queries report
                        UNKNOWN instead of a possibly-wrong HIGH/LOW
    --compactor C       grid | sample | auto (default auto: grid up to
                        4 dims, sample above)
    --weighted          train: the input's last column is a point weight
                        (e.g. the output of `tkdc compact`; the coreset ε
                        is read from the file's comment header unless
                        overridden with --coreset-eps)

EXPLAIN FLAGS:
    --point X,Y,...     the query point (or pass it positionally)
    --model FILE        saved model to query
    --span-out FILE     also write the query's trace stream (see above;
                        the query record itself needs a `.jsonl` path)

SERVE FLAGS:
    --addr HOST:PORT    listen address (default 127.0.0.1:7117; port 0
                        picks an ephemeral port, printed on startup)
    --max-conns N       concurrent-connection cap (default 64); further
                        clients get an over-capacity protocol error
    --timeout-ms N      per-connection read/write timeout (default 10000)
    --metrics-addr H:P  also serve a Prometheus text exposition at
                        http://H:P/metrics (port 0 picks a free port,
                        printed on startup)
    --slow-ms N         log requests slower than N ms to --slow-log
                        (default 100; 0 logs every request)
    --slow-log FILE     slow-query log, tkdc-slowlog/v1 JSONL with a
                        per-stage span breakdown per entry
    --span-out FILE     trace every served request: `.jsonl` appends
                        each request's records as it finishes; any
                        other path gets Chrome JSON at shutdown
    --trace-sample N    also record every N-th query of each request
                        (needs a `.jsonl` --span-out)

STATS FLAGS:
    --addr HOST:PORT    daemon to poll (default 127.0.0.1:7117)
    --watch             re-render the frame until interrupted
    --interval-ms N     polling interval under --watch (default 1000)
    --count N           stop after N frames (default: 1, or unbounded
                        under --watch)
";

/// Dispatches a full command line.
pub fn run(argv: &[String]) -> Result<()> {
    let Some(cmd) = argv.first() else {
        print!("{USAGE}");
        return Ok(());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "train" => train(rest),
        "classify" => classify(rest),
        "density" => density(rest),
        "outliers" => outliers(rest),
        "threshold" => threshold(rest),
        "compact" => compact(rest),
        "explain" => explain(rest),
        "serve" => serve(rest),
        "stats" => stats(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(usage_error(format!(
            "unknown subcommand `{other}` (try `tkdc help`)"
        ))),
    }
}

fn load_input(flags: &Flags) -> Result<Matrix> {
    let path = flags.require("input")?;
    let opts = CsvOptions {
        has_header: flags.has("header"),
        skip_bad_rows: true,
        ..CsvOptions::default()
    };
    let mut data = read_csv(path, &opts)?;
    if let Some(cols) = flags.columns()? {
        data = data.select_columns(&cols)?;
    }
    if data.rows() == 0 {
        return Err(usage_error(format!("no numeric rows parsed from `{path}`")));
    }
    Ok(data)
}

fn fit(flags: &Flags, data: &Matrix, spans: &Spans) -> Result<Classifier> {
    let params = flags.params()?;
    let threads = flags.threads()?;
    let ctx = ctx_for(flags, spans)?;
    if !flags.has("quiet") {
        eprintln!(
            "training on {} rows × {} cols (p={}, ε={}, kernel={:?}, {threads} threads) …",
            data.rows(),
            data.cols(),
            params.p,
            params.epsilon,
            params.kernel
        );
    }
    let clf = if flags.has("weighted") {
        // The input's last column is a per-point weight (the layout
        // `tkdc compact` emits); the coreset ε comes from the explicit
        // flag or the compact file's comment header.
        if data.cols() < 2 {
            return Err(usage_error(
                "`--weighted` input needs at least one coordinate column plus the weight column",
            ));
        }
        let dim = data.cols() - 1;
        let coords: Vec<usize> = (0..dim).collect();
        let points = data.select_columns(&coords)?;
        let weights = data.column(dim);
        let eps = match flags.coreset_eps()? {
            Some(e) => e,
            None => flags
                .get("input")
                .and_then(sniff_coreset_eps)
                .unwrap_or(0.0),
        };
        if !flags.has("quiet") {
            eprintln!(
                "weighted fit on {} points (coreset ε = {eps})",
                points.rows()
            );
        }
        Classifier::fit_weighted_with(&points, &weights, eps, &params, ctx)?
    } else if let Some(eps) = flags.coreset_eps()? {
        // Compact in-process, then fit on the weighted coreset with ε
        // folded into the certified interval.
        let cfg = CoresetConfig {
            eps,
            kind: flags.compactor(data.cols())?,
            seed: params.seed,
            chunk_capacity: None,
        };
        let mut sc = StreamingCoreset::new(data.cols(), cfg)?;
        sc.push_matrix(data)?;
        let cs = sc.finish()?;
        if !flags.has("quiet") {
            eprintln!(
                "compacted {} rows to {} weighted points ({:?} compactor, ε = {eps})",
                cs.stats.points_in, cs.stats.points_out, cfg.kind
            );
            report_coreset_counters(&cs);
        }
        Classifier::fit_weighted_with(&cs.points, &cs.weights, eps, &params, ctx)?
    } else {
        Classifier::fit_with(data, &params, ctx)?
    };
    if !flags.has("quiet") {
        eprintln!("threshold t(p) = {:.6e}", clf.threshold());
    }
    Ok(clf)
}

/// Registers the construction counters of a finished coreset in a
/// metrics [`Registry`] and prints its snapshot to stderr (one
/// `name=value` per line, registration order).
fn report_coreset_counters(cs: &WeightedCoreset) {
    let reg = Registry::new();
    reg.counter("coreset.points_in").add(cs.stats.points_in);
    reg.counter("coreset.points_out").add(cs.stats.points_out);
    // CAST: eps ∈ (0,1); parts-per-billion fit comfortably in u64.
    let eps_ppb = (cs.eps * 1e9).round().clamp(0.0, u64::MAX as f64) as u64;
    reg.counter("coreset.eps_ppb").add(eps_ppb);
    reg.counter("coreset.reduces").add(cs.stats.reduces);
    reg.counter("coreset.max_resident_points")
        .add(cs.stats.max_resident_points);
    for (name, value) in reg.snapshot().counters {
        eprintln!("{name}={value}");
    }
}

/// Reads the coreset ε back out of a `tkdc compact` output file's
/// comment header (`# tkdc-coreset/v1 eps=... ...`).
fn sniff_coreset_eps(path: &str) -> Option<f64> {
    let file = std::fs::File::open(path).ok()?;
    let reader = std::io::BufReader::new(file);
    for line in reader.lines().take(8) {
        let line = line.ok()?;
        if let Some(rest) = line.trim().strip_prefix("# tkdc-coreset/v1") {
            for tok in rest.split_whitespace() {
                if let Some(v) = tok.strip_prefix("eps=") {
                    return v.parse().ok();
                }
            }
        }
    }
    None
}

/// `tkdc compact`: stream a CSV line-by-line into a merge-reduce
/// coreset builder and write the weighted result. The input is never
/// materialized — peak memory is the builder's `O(m log(n/m))` buffers,
/// which is what lets this run over datasets far larger than RAM.
fn compact(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, COMPACT_FLAGS)?;
    let in_path = flags.require("input")?;
    let out_path = flags.require("output")?;
    let eps = flags
        .coreset_eps()?
        .ok_or_else(|| usage_error("missing required flag `--coreset-eps`"))?;
    let seed = flags.get_u64("seed")?.unwrap_or(Params::default().seed);
    let columns = flags.columns()?;

    let file = std::fs::File::open(in_path)?;
    let reader = std::io::BufReader::new(file);
    let mut builder: Option<StreamingCoreset> = None;
    let mut header_skipped = !flags.has("header");
    let mut row: Vec<f64> = Vec::new();
    let mut fields: Vec<f64> = Vec::new();
    let mut skipped = 0u64;
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if !header_skipped {
            header_skipped = true;
            continue;
        }
        fields.clear();
        let mut bad = false;
        for tok in trimmed.split(',') {
            match tok.trim().parse::<f64>().ok().filter(|v| v.is_finite()) {
                Some(v) => fields.push(v),
                None => {
                    bad = true;
                    break;
                }
            }
        }
        if !bad {
            row.clear();
            match &columns {
                Some(cols) => {
                    for &c in cols {
                        match fields.get(c) {
                            Some(&v) => row.push(v),
                            None => {
                                bad = true;
                                break;
                            }
                        }
                    }
                }
                None => row.extend_from_slice(&fields),
            }
        }
        if bad || row.is_empty() {
            skipped += 1;
            continue;
        }
        let sc = match &mut builder {
            Some(sc) => sc,
            None => {
                let cfg = CoresetConfig {
                    eps,
                    kind: flags.compactor(row.len())?,
                    seed,
                    chunk_capacity: None,
                };
                builder.insert(StreamingCoreset::new(row.len(), cfg)?)
            }
        };
        if row.len() != sc.dim() {
            // Ragged row: mirrors `skip_bad_rows` in the batch loader.
            skipped += 1;
            continue;
        }
        sc.push(&row)?;
    }
    let builder =
        builder.ok_or_else(|| usage_error(format!("no numeric rows parsed from `{in_path}`")))?;
    let cs = builder.finish()?;

    // Weighted CSV out: coordinates then weight, behind a self-
    // describing comment header `train --weighted` can sniff ε from.
    let mut w = std::io::BufWriter::new(std::fs::File::create(out_path)?);
    writeln!(
        w,
        "# tkdc-coreset/v1 eps={} points_in={} points_out={}",
        cs.eps, cs.stats.points_in, cs.stats.points_out
    )?;
    for i in 0..cs.points.rows() {
        for v in cs.points.row(i) {
            write!(w, "{v},")?;
        }
        writeln!(w, "{}", cs.weights[i])?;
    }
    w.flush()?;

    if !flags.has("quiet") {
        eprintln!(
            "compacted {} rows to {} weighted points ({} skipped) → {out_path}",
            cs.stats.points_in, cs.stats.points_out, skipped
        );
        report_coreset_counters(&cs);
    }
    Ok(())
}

/// Writes lines either to `--output` or stdout.
fn emit(flags: &Flags, lines: impl Iterator<Item = String>) -> Result<()> {
    match flags.get("output") {
        Some(path) => {
            let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
            for line in lines {
                writeln!(f, "{line}")?;
            }
            f.flush()?;
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            for line in lines {
                writeln!(lock, "{line}")?;
            }
        }
    }
    Ok(())
}

/// The run's trace handle: recording when `--span-out` was given
/// (sampling every `--trace-sample`-th query), inert otherwise. Fails
/// when sampling is asked for without a `.jsonl` `--span-out`, the only
/// format that carries query records.
fn spans_for(flags: &Flags) -> Result<Spans> {
    let path = flags.get("span-out");
    let every = flags.trace_every()?;
    check_sink(path.map(std::path::Path::new), every)?;
    Ok(match path {
        Some(_) => Spans::enabled().sampling(every),
        None => Spans::off(),
    })
}

/// The engine call context of a run: `--threads` workers, recording
/// into `spans`.
fn ctx_for(flags: &Flags, spans: &Spans) -> Result<Ctx> {
    Ok(Ctx {
        policy: ExecPolicy::with_threads(flags.threads()?),
        obs: spans.clone(),
    })
}

/// Writes drained trace records to `path`; the format follows the
/// extension — `.jsonl` gets `tkdc-trace/v2` records, anything else a
/// Chrome `trace_event` JSON document of the spans (Perfetto).
fn write_span_file(path: &str, records: &[TraceRecord]) -> Result<()> {
    std::fs::write(path, render_for_path(std::path::Path::new(path), records))?;
    Ok(())
}

/// Drains `spans` into `--span-out` if the flag was given.
fn maybe_write_spans(flags: &Flags, spans: &Spans) -> Result<()> {
    if let Some(path) = flags.get("span-out") {
        write_span_file(path, &spans.take())?;
        if !flags.has("quiet") {
            eprintln!("span trace written to {path}");
        }
    }
    Ok(())
}

fn train(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, COMMON_FLAGS)?;
    let data = load_input(&flags)?;
    let model_path = flags.require("model")?;
    let spans = spans_for(&flags)?;
    let clf = fit(&flags, &data, &spans)?;
    save_model(&clf, model_path)?;
    maybe_write_spans(&flags, &spans)?;
    if !flags.has("quiet") {
        eprintln!("model written to {model_path}");
    }
    Ok(())
}

fn classify(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, COMMON_FLAGS)?;
    let model_path = flags.require("model")?;
    let clf = load_model(model_path)?;
    let queries = load_input(&flags)?;
    let spans = spans_for(&flags)?;
    // Owned queries ride into the pool job without a copy.
    let queries = tkdc_sync::Arc::new(queries);
    let (labels, stats) = clf.classify_batch_shared(queries, ctx_for(&flags, &spans)?)?;
    maybe_write_spans(&flags, &spans)?;
    emit(
        &flags,
        labels.iter().map(|l| {
            match l {
                Label::High => "HIGH",
                Label::Low => "LOW",
                Label::Unknown => "UNKNOWN",
            }
            .to_string()
        }),
    )?;
    if !flags.has("quiet") {
        eprintln!(
            "classified {} queries ({:.1} kernel evals/query)",
            labels.len(),
            stats.kernels_per_query()
        );
    }
    Ok(())
}

fn density(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, COMMON_FLAGS)?;
    let model_path = flags.require("model")?;
    let clf = load_model(model_path)?;
    let queries = load_input(&flags)?;
    let n_queries = queries.rows();
    let spans = spans_for(&flags)?;
    let queries = tkdc_sync::Arc::new(queries);
    let (bounds, stats) = clf.bound_density_batch_shared(queries, ctx_for(&flags, &spans)?)?;
    maybe_write_spans(&flags, &spans)?;
    emit(
        &flags,
        bounds
            .iter()
            .map(|b| format!("{:e},{:e},{:?}", b.lower, b.upper, b.cause)),
    )?;
    if !flags.has("quiet") {
        eprintln!(
            "bounded {} densities against t(p) = {:.6e} ({:.1} kernel evals/query)",
            n_queries,
            clf.threshold(),
            stats.kernels_per_query()
        );
    }
    Ok(())
}

fn outliers(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, COMMON_FLAGS)?;
    let data = load_input(&flags)?;
    let spans = spans_for(&flags)?;
    let clf = fit(&flags, &data, &spans)?;
    // The fit only borrowed the rows; share them with the pool job.
    let data = tkdc_sync::Arc::new(data);
    let ctx = ctx_for(&flags, &spans)?;
    let (labels, _) = clf.classify_batch_shared(tkdc_sync::Arc::clone(&data), ctx)?;
    maybe_write_spans(&flags, &spans)?;
    let lines = labels
        .iter()
        .enumerate()
        .filter(|&(_i, &l)| l == Label::Low)
        .map(|(i, &_l)| {
            let row = data
                .row(i)
                .iter()
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join(",");
            format!("{i},{row}")
        });
    emit(&flags, lines)?;
    if !flags.has("quiet") {
        let low = labels.iter().filter(|&&l| l == Label::Low).count();
        eprintln!(
            "{low} of {} rows below the density threshold ({:.2}%)",
            labels.len(),
            100.0 * low as f64 / labels.len() as f64
        );
    }
    Ok(())
}

fn serve(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, SERVE_FLAGS)?;
    let model_path = flags.require("model")?;
    let clf = load_model(model_path)?;
    let config = ServeConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:7117").to_string(),
        threads: flags.get_u64("threads")?.map(|n| n as usize), // CAST: thread counts are tiny
        max_conns: match flags.get_u64("max-conns")? {
            Some(0) => return Err(usage_error("`--max-conns` must be at least 1")),
            Some(n) => n as usize, // CAST: connection caps are small
            None => ServeConfig::default().max_conns,
        },
        timeout: match flags.get_u64("timeout-ms")? {
            Some(0) => return Err(usage_error("`--timeout-ms` must be at least 1")),
            Some(ms) => std::time::Duration::from_millis(ms),
            None => ServeConfig::default().timeout,
        },
        trace_every: flags.trace_every()?,
        metrics_addr: flags.get("metrics-addr").map(str::to_string),
        slow_ms: flags.get_u64("slow-ms")?,
        slow_log: flags.get("slow-log").map(std::path::PathBuf::from),
        span_out: flags.get("span-out").map(std::path::PathBuf::from),
    };
    let server = Server::bind(config, clf)?;
    let addr = server.local_addr()?;
    if !flags.has("quiet") {
        eprintln!("tkdc-serve listening on {addr} (model: {model_path})");
        if let Some(maddr) = server.metrics_addr() {
            eprintln!("metrics exposition on http://{maddr}/metrics");
        }
    }
    server.run()?;
    if !flags.has("quiet") {
        eprintln!("tkdc-serve drained and stopped");
    }
    Ok(())
}

/// `tkdc stats`: poll a running daemon's `Stats` frame and render it.
/// `--watch` re-renders on an interval (ANSI clear between frames);
/// `--count` bounds the number of frames either way.
fn stats(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, STATS_FLAGS)?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7117");
    let watch = flags.has("watch");
    let interval =
        std::time::Duration::from_millis(flags.get_u64("interval-ms")?.unwrap_or(1000).max(1));
    // One frame by default; `--watch` alone runs until interrupted.
    let limit = match (watch, flags.get_u64("count")?) {
        (_, Some(0)) => return Err(usage_error("`--count` must be at least 1")),
        (_, Some(n)) => Some(n),
        (true, None) => None,
        (false, None) => Some(1),
    };
    let mut frames = 0u64;
    loop {
        // A fresh connection per poll, so a daemon restart between
        // frames shows up as one failed poll, not a wedged watcher.
        let mut client = Client::connect_with_timeout(addr, std::time::Duration::from_secs(5))?;
        let snap = client.stats()?;
        if watch && frames > 0 {
            // ANSI home + clear-to-end redraws in place.
            print!("\x1b[H\x1b[J");
        }
        render_stats(addr, &snap, flags.has("quiet"));
        frames += 1;
        if limit.is_some_and(|n| frames >= n) {
            return Ok(());
        }
        tkdc_sync::thread::sleep(interval);
    }
}

/// Pretty-prints one `Stats` frame.
fn render_stats(addr: &str, s: &StatsSnapshot, quiet: bool) {
    let samples = |buckets: &[(f64, u64)]| buckets.iter().map(|&(_, c)| c).sum::<u64>();
    println!("tkdc-serve @ {addr}");
    println!(
        "  backend           : {} ({} bounds)",
        s.backend, s.bound_kind
    );
    println!(
        "  requests          : {} total, {} errors",
        s.requests_total, s.errors_total
    );
    println!(
        "  ops               : ping {}, classify {}, density {}, stats {}",
        s.pings, s.classifies, s.densities, s.stats_requests
    );
    println!(
        "  points            : {} classified, {} bounded",
        s.points_classified, s.points_bounded
    );
    println!(
        "  connections       : {} accepted, {} active, {} rejected, {} timeouts",
        s.connections_accepted, s.active_connections, s.rejected_over_capacity, s.timeouts
    );
    println!(
        "  latency (total)   : p50 {:.0} µs, p99 {:.0} µs over {} requests",
        s.latency_quantile_us(0.5),
        s.latency_quantile_us(0.99),
        samples(&s.latency_buckets)
    );
    println!(
        "  latency ({:>3}s)    : p50 {:.0} µs, p99 {:.0} µs over {} requests",
        s.window_seconds,
        s.window_latency_quantile_us(0.5),
        s.window_latency_quantile_us(0.99),
        samples(&s.window_latency_buckets)
    );
    if !quiet {
        for (name, value) in &s.engine_counters {
            println!("  {name:<17} : {value}");
        }
    }
}

/// Parses an `X,Y,...` coordinate list.
fn parse_point(spec: &str) -> Result<Vec<f64>> {
    spec.split(',')
        .map(|tok| {
            tok.trim()
                .parse::<f64>()
                .map_err(|_| usage_error(format!("bad coordinate `{tok}` in query point")))
        })
        .collect()
}

/// Runs one query with tracing forced on and pretty-prints how the
/// density bounds converged until a pruning rule fired.
fn explain(args: &[String]) -> Result<()> {
    // The query point may be positional (`tkdc explain 0.3,0.4 ...`) or
    // given via `--point`.
    let (positional, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (Some(a.as_str()), &args[1..]),
        _ => (None, args),
    };
    let flags = Flags::parse(rest, EXPLAIN_FLAGS)?;
    let spec = match (positional, flags.get("point")) {
        (Some(_), Some(_)) => {
            return Err(usage_error(
                "give the query point either positionally or via `--point`, not both",
            ))
        }
        (Some(p), None) | (None, Some(p)) => p,
        (None, None) => {
            return Err(usage_error(
                "missing query point (positional or `--point X,Y,...`)",
            ))
        }
    };
    let point = parse_point(spec)?;
    let clf = load_model(flags.require("model")?)?;
    let mut queries = Matrix::with_cols(point.len());
    queries.push_row(&point)?;
    // Serial + sample-every-1 so the single query is always traced;
    // spans always record here so the stage breakdown below is free.
    let ctx = Ctx {
        policy: ExecPolicy::Serial,
        obs: Spans::enabled().sampling(1),
    };
    let spans = ctx.obs.clone();
    let (labels, _stats) = clf.classify_batch_shared(tkdc_sync::Arc::new(queries), ctx)?;
    let records = spans.take();
    let trace = records
        .iter()
        .find_map(TraceRecord::as_query)
        .ok_or_else(|| usage_error("engine returned no trace for the query"))?;
    if let Some(path) = flags.get("span-out") {
        write_span_file(path, &records)?;
    }

    println!("query point    : {point:?}");
    println!("threshold t(p) : {:.6e}", clf.threshold());
    if trace.t_lo.is_finite() || trace.t_hi.is_finite() {
        println!(
            "prune window   : [{:.6e}, {:.6e}]  (ε-scaled)",
            trace.t_lo, trace.t_hi
        );
    }
    println!("label          : {:?}", labels[0]);
    println!("prune cause    : {}", trace.cause);
    if trace.upper.is_nan() {
        println!(
            "final lower    : {:.6e}  (grid-certified; no upper bound computed)",
            trace.lower
        );
    } else {
        println!(
            "final bounds   : [{:.6e}, {:.6e}]",
            trace.lower, trace.upper
        );
    }
    println!(
        "work           : {} nodes expanded, {} kernel evals, {} bound evals",
        trace.nodes_expanded, trace.kernel_evals, trace.bound_evals
    );
    if trace.steps.is_empty() {
        println!("no refinement steps: the query was resolved before any node expansion");
    } else {
        println!();
        println!(
            "{:>5}  {:>6}  {:>8}  {:>14}  {:>14}  {:>12}",
            "step", "nodes", "kevals", "lower", "upper", "width"
        );
        for (i, s) in trace.steps.iter().enumerate() {
            println!(
                "{:>5}  {:>6}  {:>8}  {:>14.6e}  {:>14.6e}  {:>12.3e}",
                i + 1,
                s.nodes_expanded,
                s.kernel_evals,
                s.lower,
                s.upper,
                s.upper - s.lower
            );
        }
    }
    // Stage-level span breakdown: where the query's wall time went.
    let stages = complete_spans(&records);
    if !stages.is_empty() {
        println!();
        println!("span breakdown :");
        for sp in &stages {
            println!(
                "{:indent$}{:<24} {:>8} µs",
                "",
                sp.name,
                sp.dur_us,
                indent = 2 * (1 + sp.depth as usize) // CAST: depth widens losslessly
            );
        }
    }
    Ok(())
}

fn threshold(args: &[String]) -> Result<()> {
    let flags = Flags::parse(args, COMMON_FLAGS)?;
    let data = load_input(&flags)?;
    let spans = spans_for(&flags)?;
    let clf = fit(&flags, &data, &spans)?;
    maybe_write_spans(&flags, &spans)?;
    let report = clf.fit_report();
    println!("t(p)      = {:.6e}", clf.threshold());
    println!(
        "bounds    = [{:.6e}, {:.6e}]  (1-δ confidence)",
        report.threshold_bounds.lower, report.threshold_bounds.upper
    );
    println!("bootstrap rounds: {:?}", report.bootstrap.rounds);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_csv(path: &std::path::Path, rows: &[[f64; 2]]) {
        let mut s = String::new();
        for r in rows {
            s.push_str(&format!("{},{}\n", r[0], r[1]));
        }
        std::fs::write(path, s).unwrap();
    }

    fn sample_data() -> Vec<[f64; 2]> {
        // A deterministic blob plus one far outlier.
        let mut rows = Vec::new();
        let mut state = 1u64;
        let mut next = move || {
            // xorshift for test-local determinism
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        for _ in 0..600 {
            rows.push([next() * 2.0, next() * 2.0]);
        }
        rows.push([50.0, 50.0]);
        rows
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// A fresh scratch directory `name` holding `data.csv` (the sample
    /// data) and `model.tkdc` trained on it; returns the directory and
    /// both paths.
    fn trained(name: &str) -> (std::path::PathBuf, String, String) {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let path = |f: &str| dir.join(f).to_str().unwrap().to_string();
        let (data, model) = (path("data.csv"), path("model.tkdc"));
        write_csv(std::path::Path::new(&data), &sample_data());
        run(&argv(&[
            "train", "--input", &data, "--model", &model, "--quiet",
        ]))
        .unwrap();
        (dir, data, model)
    }

    /// The lines of a trace stream holding records of `kind`.
    fn kind_lines<'a>(trace: &'a str, kind: &str) -> Vec<&'a str> {
        let tag = format!("\"kind\":\"{kind}\"");
        trace.lines().filter(|l| l.contains(&tag)).collect()
    }

    #[test]
    fn train_classify_round_trip() {
        let dir = std::env::temp_dir().join("tkdc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.csv");
        let model_path = dir.join("model.tkdc");
        let out_path = dir.join("labels.txt");
        write_csv(&data_path, &sample_data());

        let argv = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        run(&argv(&[
            "train",
            "--input",
            data_path.to_str().unwrap(),
            "--model",
            model_path.to_str().unwrap(),
            "--p",
            "0.05",
            "--quiet",
        ]))
        .unwrap();
        assert!(model_path.exists());

        run(&argv(&[
            "classify",
            "--model",
            model_path.to_str().unwrap(),
            "--input",
            data_path.to_str().unwrap(),
            "--output",
            out_path.to_str().unwrap(),
            "--quiet",
        ]))
        .unwrap();
        let labels = std::fs::read_to_string(&out_path).unwrap();
        let lines: Vec<&str> = labels.lines().collect();
        assert_eq!(lines.len(), 601);
        // The planted far point must be LOW.
        assert_eq!(lines[600], "LOW");
        assert!(lines.iter().filter(|&&l| l == "HIGH").count() > 500);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn outliers_lists_planted_point() {
        let dir = std::env::temp_dir().join("tkdc_cli_test_outliers");
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.csv");
        let out_path = dir.join("outliers.csv");
        write_csv(&data_path, &sample_data());
        let argv = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        run(&argv(&[
            "outliers",
            "--input",
            data_path.to_str().unwrap(),
            "--output",
            out_path.to_str().unwrap(),
            "--p",
            "0.01",
            "--quiet",
        ]))
        .unwrap();
        let out = std::fs::read_to_string(&out_path).unwrap();
        assert!(
            out.lines().any(|l| l.starts_with("600,")),
            "planted outlier (row 600) missing from: {out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `density` emits one bounds line per row, and with a sampling
    /// `.jsonl` sink records its classify stages and one query record
    /// per sampled index into the one stream.
    #[test]
    fn density_subcommand_emits_bounds() {
        let (dir, data, model) = trained("tkdc_cli_test_density");
        let (out, trace_path) = (dir.join("bounds.csv"), dir.join("f.jsonl"));
        run(&argv(&[
            "density",
            "--model",
            &model,
            "--input",
            &data,
            "--output",
            out.to_str().unwrap(),
            "--span-out",
            trace_path.to_str().unwrap(),
            "--trace-sample",
            "1",
            "--quiet",
        ]))
        .unwrap();
        let out = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 601);
        // Each line: lower,upper,cause with lower <= upper.
        for line in &lines {
            let parts: Vec<&str> = line.split(',').collect();
            assert_eq!(parts.len(), 3, "bad line {line}");
            let lo: f64 = parts[0].parse().unwrap();
            let hi: f64 = parts[1].parse().unwrap();
            assert!(lo <= hi);
        }
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert_eq!(kind_lines(&trace, "query").len(), 601);
        let spans = kind_lines(&trace, "span");
        for stage in [
            "classify.dispatch",
            "classify.traversal",
            "classify.reassembly",
        ] {
            let tag = format!("\"name\":\"{stage}\"");
            assert_eq!(
                spans.iter().filter(|l| l.contains(&tag)).count(),
                2,
                "{stage}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_classify_flag_accepted() {
        let (dir, data, model) = trained("tkdc_cli_test_par");
        let out = dir.join("labels.txt");
        run(&argv(&[
            "classify",
            "--model",
            &model,
            "--input",
            &data,
            "--threads",
            "4",
            "--output",
            out.to_str().unwrap(),
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap().lines().count(), 601);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_runs_and_writes_trace() {
        let (dir, _, model) = trained("tkdc_cli_test_explain");
        let trace_path = dir.join("explain.jsonl");
        // Positional point form; `--span-out` writes the query record
        // and its spans into one stream.
        let trace_arg = trace_path.to_str().unwrap();
        run(&argv(&[
            "explain",
            "0.1,0.2",
            "--model",
            &model,
            "--span-out",
            trace_arg,
        ]))
        .unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let queries = kind_lines(&trace, "query");
        assert_eq!(queries.len(), 1, "{trace}");
        assert!(queries[0].starts_with("{\"schema\":\"tkdc-trace/v2\""));
        assert!(queries[0].contains("\"query\":0"));
        assert!(trace.contains("\"name\":\"classify.dispatch\""), "{trace}");
        // `--point` form; rejects giving both, rejects bad coordinates.
        run(&argv(&["explain", "--point", "0.1,0.2", "--model", &model])).unwrap();
        assert!(run(&argv(&["explain", "0,0", "--point", "1,1"])).is_err());
        assert!(run(&argv(&["explain", "0,zebra", "--model", &model])).is_err());
        assert!(run(&argv(&["explain", "--model", "m.tkdc"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classify_span_out_samples_query_records() {
        let (dir, data, model) = trained("tkdc_cli_test_traceout");
        let out = dir.join("labels.txt");
        let classify = |trace: &std::path::Path, sample: &str| {
            run(&argv(&[
                "classify",
                "--model",
                &model,
                "--input",
                &data,
                "--output",
                out.to_str().unwrap(),
                "--span-out",
                trace.to_str().unwrap(),
                "--trace-sample",
                sample,
                "--threads",
                "2",
                "--quiet",
            ]))
        };
        let trace_path = dir.join("trace.jsonl");
        classify(&trace_path, "100").unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace
            .lines()
            .all(|l| l.starts_with("{\"schema\":\"tkdc-trace/v2\"")));
        // 601 queries sampled every 100th by index: 0, 100, ..., 600.
        let queries = kind_lines(&trace, "query");
        assert_eq!(queries.len(), 7);
        assert!(queries[6].contains("\"query\":600,"));
        assert!(trace.contains("\"name\":\"classify.traversal\""));

        // Sampling needs somewhere to put query records: a Chrome JSON
        // sink, or no sink at all, is a named usage error.
        let chrome = dir.join("trace.json");
        let err = classify(&chrome, "3").unwrap_err().to_string();
        assert!(err.contains("would be written as Chrome JSON"), "{err}");
        assert!(!chrome.exists(), "nothing is written on a usage error");
        let no_sink = [
            "classify",
            "--model",
            &model,
            "--input",
            &data,
            "--trace-sample",
            "3",
        ];
        let err = run(&argv(&no_sink)).unwrap_err().to_string();
        assert!(err.contains("needs a `.jsonl` span sink"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_then_weighted_train_round_trip() {
        let dir = std::env::temp_dir().join("tkdc_cli_test_compact");
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.csv");
        let core_path = dir.join("core.csv");
        let model_path = dir.join("model.tkdc");
        let out_path = dir.join("labels.txt");
        write_csv(&data_path, &sample_data());
        let argv = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        run(&argv(&[
            "compact",
            "--input",
            data_path.to_str().unwrap(),
            "--coreset-eps",
            "0.05",
            "--output",
            core_path.to_str().unwrap(),
            "--quiet",
        ]))
        .unwrap();
        let core = std::fs::read_to_string(&core_path).unwrap();
        let mut lines = core.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("# tkdc-coreset/v1 eps=0.05"), "{header}");
        assert!(header.contains("points_in=601"));
        // Weighted rows: x,y,w with weights summing to the input count.
        let mut total = 0.0;
        for line in lines {
            let parts: Vec<&str> = line.split(',').collect();
            assert_eq!(parts.len(), 3, "bad weighted row {line}");
            total += parts[2].parse::<f64>().unwrap();
        }
        assert!((total - 601.0).abs() < 1e-6, "weights sum to {total}");

        // `train --weighted` sniffs ε from the header and folds it in.
        run(&argv(&[
            "train",
            "--input",
            core_path.to_str().unwrap(),
            "--weighted",
            "--model",
            model_path.to_str().unwrap(),
            "--p",
            "0.05",
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "classify",
            "--model",
            model_path.to_str().unwrap(),
            "--input",
            data_path.to_str().unwrap(),
            "--output",
            out_path.to_str().unwrap(),
            "--quiet",
        ]))
        .unwrap();
        let labels = std::fs::read_to_string(&out_path).unwrap();
        let lines: Vec<&str> = labels.lines().collect();
        assert_eq!(lines.len(), 601);
        assert!(lines
            .iter()
            .all(|l| matches!(*l, "HIGH" | "LOW" | "UNKNOWN")));
        // The planted far outlier must never be certified HIGH.
        assert_ne!(lines[600], "HIGH");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_with_coreset_eps_compacts_in_process() {
        let dir = std::env::temp_dir().join("tkdc_cli_test_train_coreset");
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.csv");
        let model_path = dir.join("model.tkdc");
        let out_path = dir.join("labels.txt");
        write_csv(&data_path, &sample_data());
        let argv = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        run(&argv(&[
            "train",
            "--input",
            data_path.to_str().unwrap(),
            "--coreset-eps",
            "0.05",
            "--compactor",
            "sample",
            "--model",
            model_path.to_str().unwrap(),
            "--p",
            "0.05",
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "classify",
            "--model",
            model_path.to_str().unwrap(),
            "--input",
            data_path.to_str().unwrap(),
            "--output",
            out_path.to_str().unwrap(),
            "--quiet",
        ]))
        .unwrap();
        let labels = std::fs::read_to_string(&out_path).unwrap();
        let lines: Vec<&str> = labels.lines().collect();
        assert_eq!(lines.len(), 601);
        assert_ne!(lines[600], "HIGH");
        // Bad compactor name is rejected.
        assert!(run(&argv(&[
            "train",
            "--input",
            data_path.to_str().unwrap(),
            "--coreset-eps",
            "0.05",
            "--compactor",
            "octree",
            "--model",
            model_path.to_str().unwrap(),
            "--quiet",
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_requires_eps_and_input_rows() {
        let dir = std::env::temp_dir().join("tkdc_cli_test_compact_err");
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.csv");
        let core_path = dir.join("core.csv");
        write_csv(&data_path, &sample_data());
        let argv = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(run(&argv(&[
            "compact",
            "--input",
            data_path.to_str().unwrap(),
            "--output",
            core_path.to_str().unwrap(),
            "--quiet",
        ]))
        .is_err());
        // Comment-only file: no numeric rows.
        let empty = dir.join("empty.csv");
        std::fs::write(&empty, "# nothing here\n").unwrap();
        assert!(run(&argv(&[
            "compact",
            "--input",
            empty.to_str().unwrap(),
            "--coreset-eps",
            "0.05",
            "--output",
            core_path.to_str().unwrap(),
            "--quiet",
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn span_out_writes_v2_and_chrome_traces() {
        let (dir, data, model) = trained("tkdc_cli_test_spanout");
        let file = |f: &str| dir.join(f).to_str().unwrap().to_string();
        let (out, fit_spans) = (file("labels.txt"), file("fit_spans.jsonl"));
        let (classify_spans, explain_spans) = (file("classify_spans.json"), file("explain.json"));
        // `.jsonl` extension → tkdc-trace/v2 records of the fit stages.
        let train = [
            "train",
            "--input",
            &data,
            "--model",
            &model,
            "--span-out",
            &fit_spans,
        ];
        run(&argv(&train)).unwrap();
        let v2 = std::fs::read_to_string(&fit_spans).unwrap();
        assert!(v2.lines().count() >= 6, "enter+exit per fit stage: {v2}");
        assert_eq!(kind_lines(&v2, "span").len(), v2.lines().count(), "{v2}");
        assert!(v2
            .lines()
            .all(|l| l.starts_with("{\"schema\":\"tkdc-trace/v2\"")));
        for stage in ["fit.tree_build", "fit.bootstrap", "fit.threshold"] {
            assert!(v2.contains(stage), "missing {stage} in {v2}");
        }
        // `.json` extension → Chrome trace_event JSON of the batch.
        run(&argv(&[
            "classify",
            "--model",
            &model,
            "--input",
            &data,
            "--output",
            &out,
            "--span-out",
            &classify_spans,
            "--threads",
            "2",
            "--quiet",
        ]))
        .unwrap();
        let chrome = std::fs::read_to_string(&classify_spans).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
        assert!(chrome.contains("\"classify.traversal\""));
        assert!(chrome.contains("\"classify.leaf_sum\""));
        // `explain --span-out` writes the single query's spans too; Chrome
        // JSON carries spans only (the query record went to stdout).
        run(&argv(&[
            "explain",
            "0.1,0.2",
            "--model",
            &model,
            "--span-out",
            &explain_spans,
        ]))
        .unwrap();
        let explain = std::fs::read_to_string(&explain_spans).unwrap();
        assert!(explain.contains("\"classify.dispatch\""), "{explain}");
        assert!(!explain.contains("\"cause\""), "{explain}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_subcommand_polls_a_live_daemon() {
        let (dir, _, model) = trained("tkdc_cli_test_stats");
        let clf = load_model(&model).unwrap();
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        };
        let server = Server::bind(config, clf).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.spawn();
        // One frame by default; a bounded watch loop exercises the
        // redraw path without running forever.
        run(&argv(&["stats", "--addr", &addr])).unwrap();
        run(&argv(&[
            "stats",
            "--addr",
            &addr,
            "--watch",
            "--interval-ms",
            "1",
            "--count",
            "2",
            "--quiet",
        ]))
        .unwrap();
        assert!(run(&argv(&["stats", "--addr", &addr, "--count", "0"])).is_err());
        let mut client = Client::connect(&addr).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
        // A dead daemon is a connection error, not a hang.
        assert!(run(&argv(&["stats", "--addr", &addr])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_subcommand_fails() {
        let argv: Vec<String> = vec!["explode".into()];
        assert!(run(&argv).is_err());
    }

    #[test]
    fn help_and_empty_ok() {
        assert!(run(&[]).is_ok());
        assert!(run(&["help".to_string()]).is_ok());
    }

    #[test]
    fn missing_input_errors() {
        let argv: Vec<String> = vec!["threshold".into()];
        assert!(run(&argv).is_err());
        let argv: Vec<String> = vec![
            "threshold".into(),
            "--input".into(),
            "/nonexistent.csv".into(),
        ];
        assert!(run(&argv).is_err());
    }

    #[test]
    fn column_selection_applies() {
        let dir = std::env::temp_dir().join("tkdc_cli_test_cols");
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("d.csv");
        // 3 columns; select 0 and 2.
        let mut s = String::new();
        let rows = sample_data();
        for r in &rows {
            s.push_str(&format!("{},999,{}\n", r[0], r[1]));
        }
        std::fs::write(&data_path, s).unwrap();
        let argv = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        run(&argv(&[
            "threshold",
            "--input",
            data_path.to_str().unwrap(),
            "--columns",
            "0,2",
            "--quiet",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
