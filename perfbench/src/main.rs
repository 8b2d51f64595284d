//! tkdc-rs benchmark: one workload per run, end-to-end metrics with
//! tracing off, per-layer metrics from a traced run. See README.md for
//! the workloads, the metrics and which layer metric moves which
//! end-to-end metric.
//!
//! ```text
//! perfbench --workload <heldout_d8|coreset_d2|serve_d2> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a report line (provenance, query classes, checks, every
//! figure) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when an
//! answer check fails and 2 on a usage error or a failed run.

mod adapter;
mod batch;
mod checks;
mod layers;
mod queries;
mod report;
mod serve;
mod spans;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use report::{num, ratio, string, Metrics};
use spans::Recorder;
use workload::{Outcome, Run};

const WORKLOADS: [&str; 3] = ["heldout_d8", "coreset_d2", "serve_d2"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<(String, Run), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((
        workload,
        Run {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

/// Where a traced run writes its spans: under the build directory, which
/// the checkout ignores.
fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    std::path::Path::new(&root)
        .join("perfbench-spans")
        .join(format!("{workload}-{seed}.jsonl"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse(&args) {
        Ok(v) => v,
        Err(e) => return usage(&e),
    };
    let rec = Recorder::new(run.trace);
    let started = Instant::now();
    let outcome = match workload.as_str() {
        "heldout_d8" => batch::run(&batch::heldout_d8(), run, &rec),
        "coreset_d2" => batch::run(&batch::coreset_d2(), run, &rec),
        _ => serve::run(run, &rec),
    };
    let mut o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return ExitCode::from(2);
        }
    };
    let wall = started.elapsed();
    let error_rate = ratio(o.failed as f64, o.attempted as f64);
    o.extra.set("error_rate", error_rate, "share");
    o.e2e.set("correct_rate", 1.0 - error_rate, "share");
    o.e2e.set("peak_rss_mb", report::peak_rss_mib(), "MiB");

    let mut spans_file = String::new();
    if run.trace {
        let all = rec.spans();
        let window = wall.saturating_sub(o.untraced);
        let covered = spans::coverage(&all, 0, rec.ns(started + wall));
        // Untraced calls cover no span; leave them out of the window.
        o.layers.set(
            "trace.coverage",
            ratio(covered * wall.as_secs_f64(), window.as_secs_f64()),
            "share",
        );
        let self_times: Vec<String> = spans::self_times(&all)
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
            .collect();
        o.extra.set("spans", all.len() as f64, "count");
        let path = spans_path(&workload, run.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, rec.jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        spans_file = format!(
            ",\"spans_file\":{},\"self_time_s\":{{{}}}",
            string(&path.display().to_string()),
            self_times.join(",")
        );
    }

    let correct = o.checks.ok() && o.failed == 0 && o.attempted > 0;
    print_report(&workload, run, &o, correct, &spans_file);
    let metrics: &Metrics = if run.trace { &o.layers } else { &o.e2e };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.attempted.max(1),
        o.failed,
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an answer check failed; see \"checks\" in the report line");
        ExitCode::from(1)
    }
}

fn print_report(workload: &str, run: Run, o: &Outcome, correct: bool, tail: &str) {
    let counts: Vec<String> = queries::CLASS_NAMES
        .iter()
        .zip(o.query_counts)
        .map(|(n, c)| format!("\"{n}\":{c}"))
        .collect();
    println!(
        "{{\"report\":\"tkdc-perfbench/v1\",\"workload\":{},\"trace\":{},\"seconds\":{},\"correct\":{correct},\"provenance\":{},\"queries\":{{\"seed\":{},{}}},\"checks\":{},\"end_to_end\":{},\"per_layer\":{},\"extra\":{}{tail}}}",
        string(workload),
        run.trace,
        num(run.seconds),
        report::provenance(o.threads, run.seed),
        o.query_seed,
        counts.join(","),
        o.checks.json(),
        o.e2e.json(),
        o.layers.json(),
        o.extra.json(),
    );
}
