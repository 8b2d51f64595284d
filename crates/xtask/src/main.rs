#![forbid(unsafe_code)]
//! `xtask` — workspace automation for the tKDC reproduction.
//!
//! Subcommands:
//!
//! ```text
//! cargo run -p xtask -- lint [--report FILE] [paths...]
//! cargo run -p xtask -- model-check [--report FILE] [test filters...]
//! cargo run -p xtask -- check-trace FILE...
//! ```
//!
//! `lint` runs `tkdc-lint`, the from-scratch static-analysis pass
//! enforcing the workspace's numeric- and concurrency-soundness
//! invariants (see [`lints`] for the rule table and the `INVARIANT:` /
//! `SAFETY:` / `CAST:` / `ORDERING:` / `JOIN:` marker convention). With
//! no arguments the whole workspace is scanned; explicit file or
//! directory paths restrict the scan. Exits non-zero when any violation
//! is found, printing rustc-style `file:line:col` diagnostics.
//!
//! `model-check` runs the concurrency harnesses in
//! `tests/model_check.rs` with `--cfg tkdc_model_check` in `RUSTFLAGS`,
//! which swaps the `tkdc-sync` facade over to the vendored loom-style
//! model checker (`vendor/loom`). The instrumented build lives in its
//! own `target/model-check` directory so it never invalidates the
//! normal build cache.
//!
//! `check-trace` validates `tkdc-trace/v2` JSONL files (as written by
//! `--span-out FILE.jsonl`: span and sampled query records in one
//! stream) against the trace schema — see [`trace_check`].
//!
//! `--report FILE` (lint, model-check) additionally writes the full
//! diagnostics to `FILE` for CI artifact upload.

mod lints;
mod scan;
mod trace_check;
mod walk;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("model-check") => model_check(&args[1..]),
        Some("check-trace") => check_trace(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
xtask — workspace automation

USAGE:
    cargo run -p xtask -- <SUBCOMMAND>

SUBCOMMANDS:
    lint [--report FILE] [paths...]
                        run the tkdc-lint soundness pass
                        (whole workspace when no paths are given)
    model-check [--report FILE] [test filters...]
                        run tests/model_check.rs under the vendored
                        loom-style model checker (--cfg tkdc_model_check,
                        separate target/model-check build dir)
    check-trace FILE... validate tkdc-trace/v2 JSONL trace files
                        (span + query records; v1 lines are rejected)

    --report FILE       also write the diagnostics/output to FILE
                        (CI artifact)

LINT RULES:
    L1 partial-cmp-unwrap  no `partial_cmp(..).unwrap()/.expect(..)`; use `f64::total_cmp`
    L2 panic               no unwrap/expect/panic!/unreachable! in library code
                           without an `// INVARIANT:` justification
    L3 float-eq            no `==`/`!=` on floats outside tests
    L4 unsafe              every `unsafe` needs a `// SAFETY:` comment
    L5 lossy-cast          lossy `as` casts need a `// CAST:` justification
    L6 std-sync-outside-facade
                           no `std::sync`/`std::thread` outside crates/sync;
                           import from `tkdc_sync` so the model checker can
                           instrument the code
    L7 relaxed-without-ordering-comment
                           every `Ordering::Relaxed` needs an `// ORDERING:`
                           justification
    L8 static-mut          no `static mut` globals
    L9 spawn-without-join  no discarded `thread::spawn` handle without a
                           `// JOIN:` justification

    Per-line suppression: `// tkdc-lint: allow(<rule>)` on the same or the
    preceding line, e.g. `// tkdc-lint: allow(float-eq)`.
";

/// Resolve the workspace root: `CARGO_MANIFEST_DIR/../..` when run via
/// cargo, else the current directory.
fn workspace_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let p = PathBuf::from(dir);
            p.ancestors().nth(2).map(Path::to_path_buf).unwrap_or(p)
        }
        None => PathBuf::from("."),
    }
}

/// Split a leading `--report FILE` option off an argument list.
fn take_report_flag(args: &[String]) -> Result<(Option<PathBuf>, Vec<String>), String> {
    let mut report = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--report" {
            match it.next() {
                Some(f) => report = Some(PathBuf::from(f)),
                None => return Err("--report needs a file argument".to_owned()),
            }
        } else {
            rest.push(a.clone());
        }
    }
    Ok((report, rest))
}

/// Run the model-check suite: `cargo test --test model_check` with
/// `--cfg tkdc_model_check` appended to `RUSTFLAGS` (selecting the
/// instrumented arm of the `tkdc-sync` facade) and a dedicated
/// `target/model-check` build directory so the cfg flip never thrashes
/// the normal build cache. Extra arguments pass through as libtest
/// filters.
fn model_check(args: &[String]) -> ExitCode {
    let (report, filters) = match take_report_flag(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("xtask model-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = workspace_root();
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.contains("tkdc_model_check") {
        if !rustflags.is_empty() {
            rustflags.push(' ');
        }
        rustflags.push_str("--cfg tkdc_model_check");
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let mut cmd = std::process::Command::new(cargo);
    cmd.arg("test")
        .arg("--test")
        .arg("model_check")
        .current_dir(&root)
        .env("RUSTFLAGS", rustflags)
        .env("CARGO_TARGET_DIR", root.join("target/model-check"));
    if !filters.is_empty() {
        cmd.arg("--").args(&filters);
    }
    let output = match cmd.output() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("xtask model-check: failed to run cargo: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Echo through so the run reads like a plain `cargo test`.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    print!("{stdout}");
    eprint!("{stderr}");
    if let Some(path) = report {
        let verdict = if output.status.success() {
            "PASS"
        } else {
            "FAIL"
        };
        let body = format!(
            "model-check: {verdict} (cargo test --test model_check \
             under --cfg tkdc_model_check)\n\n\
             --- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
        );
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!(
                "xtask model-check: cannot write report {}: {e}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    }
    if output.status.success() {
        println!("model-check: ok");
        ExitCode::SUCCESS
    } else {
        eprintln!("model-check: FAILED");
        ExitCode::FAILURE
    }
}

fn check_trace(args: &[String]) -> ExitCode {
    if args.is_empty() {
        eprintln!("xtask check-trace: no files given\n");
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut total = 0usize;
    let mut failed = false;
    for path in args {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask check-trace: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (lines, report) = trace_check::check_trace_text(path, &text);
        total += lines;
        for msg in &report {
            eprintln!("{msg}");
        }
        failed |= !report.is_empty();
    }
    if failed {
        eprintln!("check-trace: invalid ({total} lines checked)");
        ExitCode::FAILURE
    } else {
        println!("check-trace: ok ({total} trace lines valid)");
        ExitCode::SUCCESS
    }
}

fn lint(args: &[String]) -> ExitCode {
    let (report, args) = match take_report_flag(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args = &args[..];
    let root = workspace_root();
    let targets: Vec<PathBuf> = if args.is_empty() {
        match walk::workspace_rust_files(&root) {
            Ok(files) => files,
            Err(e) => {
                eprintln!(
                    "xtask lint: cannot walk workspace at {}: {e}",
                    root.display()
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
        // Explicit paths: files taken as-is, directories walked.
        let mut files = Vec::new();
        for arg in args {
            let p = PathBuf::from(arg);
            let abs = if p.is_absolute() {
                p.clone()
            } else {
                root.join(&p)
            };
            if abs.is_dir() {
                match walk::rust_files_under(&abs, &abs) {
                    Ok(mut inner) => {
                        files.extend(inner.drain(..).map(|f| p.join(f)));
                    }
                    Err(e) => {
                        eprintln!("xtask lint: cannot walk {}: {e}", abs.display());
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                files.push(p);
            }
        }
        files
    };

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for rel in &targets {
        let abs = if rel.is_absolute() {
            rel.clone()
        } else {
            root.join(rel)
        };
        let text = match std::fs::read_to_string(&abs) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask lint: cannot read {}: {e}", abs.display());
                return ExitCode::FAILURE;
            }
        };
        scanned += 1;
        let kind = lints::classify(rel);
        let rel_str = rel.display().to_string();
        violations.extend(lints::check_file(&rel_str, &text, kind));
    }

    for v in &violations {
        eprintln!("{}", v.render());
    }
    let summary = if violations.is_empty() {
        format!("tkdc-lint: clean ({scanned} files scanned)")
    } else {
        format!(
            "tkdc-lint: {} violation{} in {scanned} files",
            violations.len(),
            if violations.len() == 1 { "" } else { "s" },
        )
    };
    if let Some(path) = report {
        let mut body = String::new();
        for v in &violations {
            body.push_str(&v.render());
            body.push('\n');
        }
        body.push_str(&summary);
        body.push('\n');
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("xtask lint: cannot write report {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if violations.is_empty() {
        println!("{summary}");
        ExitCode::SUCCESS
    } else {
        eprintln!("{summary}");
        ExitCode::FAILURE
    }
}
