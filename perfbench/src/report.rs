//! Small statistics helpers, run provenance and JSON rendering.

use std::fmt::Write as _;

/// Nearest-rank quantile (`0 < q ≤ 1`) of unsorted samples; 0 when
/// empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples per block of `block_quantile` for p99s.
pub const P99_BLOCK: usize = 1000;

/// Median over consecutive blocks of `block` samples (in time order) of
/// each block's `q`-quantile; a trailing partial block joins the one
/// before it. With fewer than two blocks, the quantile of all samples.
/// Blocks keep one stall of the shared host from setting a whole run's
/// tail, and `block·(1−q) ≥ 10` keeps ten samples beyond the quantile.
pub fn block_quantile(samples: &[f64], block: usize, q: f64) -> f64 {
    let n_blocks = samples.len() / block.max(1);
    if n_blocks < 2 {
        return quantile(samples, q);
    }
    let per_block: Vec<f64> = (0..n_blocks)
        .map(|b| {
            let end = if b + 1 == n_blocks {
                samples.len()
            } else {
                (b + 1) * block
            };
            quantile(&samples[b * block..end], q)
        })
        .collect();
    median(&per_block)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A JSON number; non-finite values have no JSON literal.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Named metrics with units, in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.items.retain(|m| m.0 != name);
        self.items.push((name, value, unit));
    }

    pub fn json(&self) -> String {
        let parts: Vec<String> = self
            .items
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit of the checkout, read from `.git` in the working
/// directory; "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host and build facts every result carries.
pub fn provenance(threads: usize, seed: u64) -> String {
    let cores = nproc();
    format!(
        "{{\"nproc\":{cores},\"threads\":{threads},\"degraded\":{},\"git_rev\":{},\"rustc\":{},\"profile\":{},\"seed\":{seed}}}",
        threads > cores,
        string(&git_rev()),
        string(env!("PERFBENCH_RUSTC")),
        string(env!("PERFBENCH_PROFILE")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn block_quantile_ignores_one_bad_block() {
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        v[1000..2000].iter_mut().for_each(|x| *x *= 100.0);
        assert_eq!(block_quantile(&v, 1000, 0.99), 989.0);
        assert_eq!(
            block_quantile(&v[..1500], 1000, 0.5),
            quantile(&v[..1500], 0.5)
        );
    }
}
