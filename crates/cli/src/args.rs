//! Flag parsing for the CLI: `--name value` pairs plus bare boolean
//! flags, with typed accessors and unknown-flag detection.

use std::collections::HashMap;
use tkdc::Params;
use tkdc_common::error::{invalid_param, Error, Result};
use tkdc_coreset::CompactorKind;
use tkdc_kernel::KernelKind;

/// Parsed command-line flags.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    bools: Vec<String>,
}

/// Flags every subcommand understands.
pub const COMMON_FLAGS: &[&str] = &[
    "input",
    "output",
    "model",
    "p",
    "epsilon",
    "delta",
    "bandwidth",
    "seed",
    "header",
    "kernel",
    "columns",
    "threads",
    "quiet",
    "trace-sample",
    "coreset-eps",
    "compactor",
    "weighted",
    "span-out",
];

/// Flags the `compact` subcommand understands: streaming CSV in,
/// weighted CSV out — no training parameters.
pub const COMPACT_FLAGS: &[&str] = &[
    "input",
    "output",
    "coreset-eps",
    "compactor",
    "seed",
    "header",
    "columns",
    "quiet",
];

/// Flags the `serve` subcommand understands (a daemon takes no dataset
/// or training parameters — only a fitted model and server knobs).
pub const SERVE_FLAGS: &[&str] = &[
    "model",
    "addr",
    "threads",
    "max-conns",
    "timeout-ms",
    "quiet",
    "trace-sample",
    "metrics-addr",
    "slow-ms",
    "slow-log",
    "span-out",
];

/// Flags the `stats` subcommand understands (polls a running daemon's
/// `Stats` frame; `--watch` re-renders until interrupted).
pub const STATS_FLAGS: &[&str] = &["addr", "watch", "interval-ms", "count", "quiet"];

/// Flags the `explain` subcommand understands (one query point against a
/// saved model; the point itself is a positional argument or `--point`).
pub const EXPLAIN_FLAGS: &[&str] = &["model", "point", "span-out", "quiet"];

impl Flags {
    /// Parses `args`, validating every flag against `allowed`.
    pub fn parse(args: &[String], allowed: &[&str]) -> Result<Self> {
        let mut flags = Flags::default();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(invalid_param(
                    "args",
                    format!("unexpected argument `{arg}`"),
                ));
            };
            if !allowed.contains(&name) {
                return Err(invalid_param("args", format!("unknown flag `--{name}`")));
            }
            // Boolean flags take no value.
            if matches!(name, "header" | "quiet" | "weighted" | "watch") {
                flags.bools.push(name.to_string());
                i += 1;
                continue;
            }
            let Some(value) = args.get(i + 1) else {
                return Err(invalid_param(
                    "args",
                    format!("flag `--{name}` needs a value"),
                ));
            };
            flags.values.insert(name.to_string(), value.clone());
            i += 2;
        }
        Ok(flags)
    }

    /// String value of a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    /// Required string value.
    pub fn require(&self, name: &str) -> Result<&str> {
        self.get(name)
            .ok_or_else(|| invalid_param("args", format!("missing required flag `--{name}`")))
    }

    /// Boolean flag presence.
    pub fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }

    /// Typed float value.
    pub fn get_f64(&self, name: &str) -> Result<Option<f64>> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| {
                invalid_param("args", format!("`--{name}` expects a number, got `{v}`"))
            }),
        }
    }

    /// Typed integer value.
    pub fn get_u64(&self, name: &str) -> Result<Option<u64>> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| {
                invalid_param("args", format!("`--{name}` expects an integer, got `{v}`"))
            }),
        }
    }

    /// Worker-thread count from `--threads`, defaulting to the machine's
    /// available parallelism (1 when that cannot be determined).
    pub fn threads(&self) -> Result<usize> {
        match self.get_u64("threads")? {
            Some(0) => Err(invalid_param("threads", "`--threads` must be at least 1")),
            Some(n) => Ok(n as usize), // CAST: thread counts are tiny
            None => Ok(tkdc_sync::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)),
        }
    }

    /// Query sampling interval from `--trace-sample`: record every
    /// `n`-th query of a batch into the `--span-out` stream (default 0 =
    /// none; sampling needs a `.jsonl` `--span-out`).
    pub fn trace_every(&self) -> Result<u64> {
        Ok(self.get_u64("trace-sample")?.unwrap_or(0))
    }

    /// Coreset accuracy from `--coreset-eps` (`None` = full-data fit).
    pub fn coreset_eps(&self) -> Result<Option<f64>> {
        self.get_f64("coreset-eps")
    }

    /// Compactor choice from `--compactor` for a `dim`-dimensional
    /// dataset: `grid` | `sample` | `auto` (the default), where `auto`
    /// picks by dimension via [`CompactorKind::auto_for_dim`].
    pub fn compactor(&self, dim: usize) -> Result<CompactorKind> {
        match self.get("compactor") {
            None | Some("auto") => Ok(CompactorKind::auto_for_dim(dim)),
            Some("grid") => Ok(CompactorKind::Grid),
            Some("sample") => Ok(CompactorKind::Sample),
            Some(other) => Err(invalid_param(
                "compactor",
                format!("expected grid|sample|auto, got `{other}`"),
            )),
        }
    }

    /// Column subset, e.g. `--columns 3,5`.
    pub fn columns(&self) -> Result<Option<Vec<usize>>> {
        match self.get("columns") {
            None => Ok(None),
            Some(spec) => spec
                .split(',')
                .map(|tok| {
                    tok.trim()
                        .parse::<usize>()
                        .map_err(|_| invalid_param("args", format!("bad column index `{tok}`")))
                })
                .collect::<Result<Vec<usize>>>()
                .map(Some),
        }
    }

    /// Builds tKDC parameters from the shared flags.
    pub fn params(&self) -> Result<Params> {
        let mut params = Params::default();
        if let Some(p) = self.get_f64("p")? {
            params.p = p;
        }
        if let Some(e) = self.get_f64("epsilon")? {
            params.epsilon = e;
        }
        if let Some(d) = self.get_f64("delta")? {
            params.delta = d;
        }
        if let Some(b) = self.get_f64("bandwidth")? {
            params.bandwidth_factor = b;
        }
        if let Some(s) = self.get_u64("seed")? {
            params.seed = s;
        }
        if let Some(k) = self.get("kernel") {
            params.kernel = match k {
                "gaussian" => KernelKind::Gaussian,
                "epanechnikov" => KernelKind::Epanechnikov,
                other => {
                    return Err(invalid_param(
                        "kernel",
                        format!("expected gaussian|epanechnikov, got `{other}`"),
                    ))
                }
            };
        }
        params.validate()?;
        Ok(params)
    }
}

/// Wraps a message into the workspace error type.
pub fn usage_error(msg: impl Into<String>) -> Error {
    invalid_param("usage", msg)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-value asserts are deliberate in tests
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_bools() {
        let f = Flags::parse(
            &argv(&["--input", "a.csv", "--p", "0.05", "--header"]),
            COMMON_FLAGS,
        )
        .unwrap();
        assert_eq!(f.require("input").unwrap(), "a.csv");
        assert_eq!(f.get_f64("p").unwrap(), Some(0.05));
        assert!(f.has("header"));
        assert!(!f.has("quiet"));
    }

    #[test]
    fn rejects_unknown_flags_and_bare_args() {
        assert!(Flags::parse(&argv(&["--bogus", "1"]), COMMON_FLAGS).is_err());
        assert!(Flags::parse(&argv(&["stray"]), COMMON_FLAGS).is_err());
        assert!(Flags::parse(&argv(&["--input"]), COMMON_FLAGS).is_err());
    }

    #[test]
    fn typed_accessors_validate() {
        let f = Flags::parse(&argv(&["--p", "abc"]), COMMON_FLAGS).unwrap();
        assert!(f.get_f64("p").is_err());
        let f = Flags::parse(&argv(&["--seed", "1.5"]), COMMON_FLAGS).unwrap();
        assert!(f.get_u64("seed").is_err());
    }

    #[test]
    fn params_from_flags() {
        let f = Flags::parse(
            &argv(&[
                "--p",
                "0.1",
                "--epsilon",
                "0.05",
                "--kernel",
                "epanechnikov",
            ]),
            COMMON_FLAGS,
        )
        .unwrap();
        let params = f.params().unwrap();
        assert_eq!(params.p, 0.1);
        assert_eq!(params.epsilon, 0.05);
        assert_eq!(params.kernel, KernelKind::Epanechnikov);
    }

    #[test]
    fn params_reject_bad_kernel_and_domain() {
        let f = Flags::parse(&argv(&["--kernel", "box"]), COMMON_FLAGS).unwrap();
        assert!(f.params().is_err());
        let f = Flags::parse(&argv(&["--p", "2.0"]), COMMON_FLAGS).unwrap();
        assert!(f.params().is_err());
    }

    #[test]
    fn backend_flags() {
        // The tree is the only backend: the removed backends' selector
        // and tuning flags are unknown flags, whatever their value.
        for args in [
            ["--backend", "hbe"],
            ["--backend", "tree"],
            ["--hbe-tables", "8"],
            ["--rff-features", "512"],
        ] {
            let err = Flags::parse(&argv(&args), COMMON_FLAGS)
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!("unknown flag `{}`", args[0])),
                "{err}"
            );
        }
    }

    #[test]
    fn threads_flag() {
        let f = Flags::parse(&argv(&["--threads", "4"]), COMMON_FLAGS).unwrap();
        assert_eq!(f.threads().unwrap(), 4);
        let f = Flags::parse(&argv(&["--threads", "0"]), COMMON_FLAGS).unwrap();
        assert!(f.threads().is_err());
        // Default: the machine's available parallelism, always >= 1.
        let f = Flags::parse(&argv(&[]), COMMON_FLAGS).unwrap();
        assert!(f.threads().unwrap() >= 1);
    }

    #[test]
    fn trace_flags() {
        let f = Flags::parse(
            &argv(&["--span-out", "t.jsonl", "--trace-sample", "8"]),
            COMMON_FLAGS,
        )
        .unwrap();
        assert_eq!(f.get("span-out"), Some("t.jsonl"));
        assert_eq!(f.trace_every().unwrap(), 8);
        // Default: sampling is opt-in.
        let f = Flags::parse(&argv(&[]), COMMON_FLAGS).unwrap();
        assert_eq!(f.trace_every().unwrap(), 0);
        // The retired per-query sink flag is gone everywhere.
        for allowed in [COMMON_FLAGS, SERVE_FLAGS, EXPLAIN_FLAGS] {
            assert!(Flags::parse(&argv(&["--trace-out", "t.jsonl"]), allowed).is_err());
        }
    }

    #[test]
    fn column_spec() {
        let f = Flags::parse(&argv(&["--columns", "3,5"]), COMMON_FLAGS).unwrap();
        assert_eq!(f.columns().unwrap(), Some(vec![3, 5]));
        let f = Flags::parse(&argv(&["--columns", "a"]), COMMON_FLAGS).unwrap();
        assert!(f.columns().is_err());
    }
}
