//! Bootstrapped threshold bound estimation (Algorithm 3 of the paper).
//!
//! Picking the quantile threshold `t(p)` requires densities, but computing
//! densities efficiently requires threshold bounds — a chicken-and-egg
//! problem. The bootstrap resolves it by training mini-KDEs on
//! geometrically growing subsets `X_r ⊆ X`, using the (1 − δ confidence)
//! threshold bounds derived from each round to prune density computations
//! in the next. Order-statistic confidence intervals (Eq. 10/11) turn a
//! sample of `s` densities into `1-δ` bounds on the population quantile;
//! when a round's densities overflow the previous bounds, the bounds are
//! multiplicatively backed off and the round retried.

use crate::classifier::{drive_batch, Ctx, ExecPolicy};
use crate::engine::Pool;
use crate::params::Params;
use crate::qstats::QueryStats;
use crate::tree::TreeBackend;
use tkdc_common::error::{Error, Result};
use tkdc_common::order::quantile_ci_ranks;
use tkdc_common::{Matrix, Rng};
use tkdc_index::KdTree;
use tkdc_kernel::{scotts_rule, Kernel};
use tkdc_sync::Arc;

/// `1 − δ` confidence bounds on the quantile threshold `t(p)`.
///
/// With probability at least `1 − δ`, `lower ≤ t(p) ≤ upper`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdBounds {
    /// Lower bound `t_l`.
    pub lower: f64,
    /// Upper bound `t_u`.
    pub upper: f64,
}

impl ThresholdBounds {
    /// Bounds widened additively by a certified absolute density error
    /// `eps_abs` (the coreset ε-fold): when these bounds hold for a KDE
    /// within `±eps_abs` of the full-data KDE (a coreset guarantee), the
    /// folded bounds hold for the full-data threshold. The lower bound is
    /// clamped at zero — densities are non-negative.
    pub fn folded(self, eps_abs: f64) -> Self {
        debug_assert!(eps_abs >= 0.0);
        Self {
            lower: (self.lower - eps_abs).max(0.0),
            upper: self.upper + eps_abs,
        }
    }
}

/// Diagnostics from a bootstrap run.
#[derive(Debug, Clone, Default)]
pub struct BootstrapReport {
    /// Training-subset sizes visited, in order (repeats mean backoff
    /// retries).
    pub rounds: Vec<usize>,
    /// Number of invalid-bound backoffs performed.
    pub backoffs: usize,
    /// Aggregate traversal statistics across every bootstrap query.
    pub stats: QueryStats,
}

/// Runs Algorithm 3: estimates `1-δ` bounds on `t(p)` for the KDE over
/// the full dataset, bootstrapping through growing training subsets.
///
/// Returns the bounds plus a diagnostics report.
pub fn bound_threshold(
    data: &Matrix,
    params: &Params,
) -> Result<(ThresholdBounds, BootstrapReport)> {
    bound_threshold_with(data, params, ExecPolicy::Serial)
}

/// [`bound_threshold`] with each round's density queries work-stolen
/// across the policy's resolved thread count.
///
/// Bit-identical to the serial path for any thread count and the same
/// seed: the seeded RNG is only consumed by the (sequential) subset
/// sampling at the top of each round, every density query is an
/// independent deterministic traversal, and densities are merged back in
/// index order — so the sorted order statistics, the backoff/retry
/// trajectory, and therefore the RNG stream itself never depend on the
/// thread count. Statistics counters merge by summation, which is
/// order-independent.
pub fn bound_threshold_with(
    data: &Matrix,
    params: &Params,
    policy: ExecPolicy,
) -> Result<(ThresholdBounds, BootstrapReport)> {
    let boot = bootstrap(&Pool::new(), data, params, policy)?;
    Ok((boot.bounds, boot.report))
}

/// A finished bootstrap: the threshold bounds, the diagnostics, and the
/// final round's full-data index and kernel.
pub(crate) struct Bootstrap {
    pub(crate) bounds: ThresholdBounds,
    pub(crate) report: BootstrapReport,
    /// The k-d tree over all of `data`, built exactly as a fresh
    /// `KdTree::build(data, leaf_size, split_rule)` would build it.
    pub(crate) tree: Arc<KdTree>,
    /// The Scott's-rule kernel over all of `data`.
    pub(crate) kernel: Kernel,
}

/// [`bound_threshold_with`] on a caller-owned pool, keeping the final
/// round's tree and kernel. The final round (`r == n`) trains on `data`
/// itself with the fit's leaf size, split rule and bandwidth, so the
/// fit reuses that tree as the model's index instead of building it a
/// second time.
///
/// Each round's queries are rows of its own training subset, so their
/// cuts act on the self-corrected density `f(x) − K(0)/r` the bounds
/// are about ([`crate::bound::DensityBounder::bound_training_density`]).
/// The first round has `t_lo = 0` and `t_hi = ∞`, so nothing prunes it:
/// it computes the exact densities of its query rows (up to the running
/// sums' rounding), as Algorithm 3 does with `t_l = 0`.
pub(crate) fn bootstrap(
    pool: &Pool,
    data: &Matrix,
    params: &Params,
    policy: ExecPolicy,
) -> Result<Bootstrap> {
    params.validate()?;
    let n = data.rows();
    if n == 0 {
        return Err(Error::EmptyInput("bootstrap training data"));
    }
    let mut rng = Rng::seed_from(params.seed);
    let mut report = BootstrapReport::default();
    let mut stats = QueryStats::default();

    // Mini-KDE over a training subset: fresh index and bandwidth
    // (Scott's rule depends on the subset size).
    let build = |xr: &Matrix| -> Result<(Arc<KdTree>, Kernel)> {
        let tree = KdTree::build(xr, params.leaf_size, params.opts.split_rule())?;
        let kernel = Kernel::new(params.kernel, scotts_rule(xr, params.bandwidth_factor)?)?;
        Ok((Arc::new(tree), kernel))
    };
    // The full-data tree and kernel, built on the first round with
    // `r == n`; a backoff retry at `r == n` trains on the same `data`
    // and reuses them.
    let mut full: Option<(Arc<KdTree>, Kernel)> = None;

    let mut t_lo = 0.0f64;
    let mut t_hi = f64::INFINITY;
    let mut r = params.bootstrap.r0.min(n);
    let mut retries_left = params.bootstrap.max_retries;

    loop {
        report.rounds.push(r);
        // Sample the round's training subset and its query subsample.
        // Final round trains on the full dataset; avoid cloning it.
        let sampled;
        let xr: &Matrix = if r == n {
            data
        } else {
            sampled = data.sample_rows(r, &mut rng);
            &sampled
        };
        let s = params.bootstrap.s0.min(r);
        let xs = Arc::new(xr.sample_rows(s, &mut rng));

        let (tree, kernel) = match &full {
            Some(built) => built.clone(),
            None => {
                let built = build(xr)?;
                if r == n {
                    full = Some(built.clone());
                }
                built
            }
        };
        let self_contrib = kernel.max_value() / r as f64;
        let round = Arc::new(TreeBackend::new(
            tree,
            kernel,
            None,
            params.opts,
            params.epsilon,
        ));

        // Density estimates for the query subsample, corrected for the
        // contribution each training point makes to itself (Eq. 1). The
        // cuts compare that corrected density with the round's bounds.
        // Work-stolen across the pool; densities come back in index
        // order and the per-worker counters merge by summation, so the
        // round is bit-identical to a serial loop for every thread count.
        let (mut densities, round_stats) =
            drive_batch(pool, s, &Ctx::from(policy), move |i, sc| {
                let b = round.bound_training_density(xs.row(i), t_lo, t_hi, self_contrib, sc);
                Ok((b.midpoint() - self_contrib).max(0.0))
            })?;
        stats.merge(&round_stats);
        // IEEE total order: a NaN density (which bound_density should
        // never produce, but a poisoned input could) sorts last instead of
        // panicking mid-bootstrap.
        densities.sort_by(f64::total_cmp);

        let (l, u) = quantile_ci_ranks(s, params.p, params.delta)?;
        let d_l = densities[l];
        let d_u = densities[u];

        if d_u > t_hi {
            // Upper bound was invalid: the pruning may have truncated the
            // very densities the CI needs. Relax and retry this round.
            // Relax at least to the observed order statistic (plus
            // buffer) — pure multiplicative backoff cannot escape a zero
            // bound, which compact-support kernels can produce.
            let relaxed = if t_hi.is_finite() {
                t_hi * params.bootstrap.backoff
            } else {
                t_hi
            };
            t_hi = relaxed.max(d_u * params.bootstrap.buffer);
            report.backoffs += 1;
            retries_left = retries_left.checked_sub(1).ok_or_else(|| {
                Error::Numeric("threshold bootstrap exceeded backoff budget".into())
            })?;
            continue;
        }
        if d_l < t_lo {
            t_lo = (t_lo / params.bootstrap.backoff).min(d_l / params.bootstrap.buffer);
            report.backoffs += 1;
            retries_left = retries_left.checked_sub(1).ok_or_else(|| {
                Error::Numeric("threshold bootstrap exceeded backoff budget".into())
            })?;
            continue;
        }

        // `full` is set exactly when this round trained on all of `data`.
        if let Some((tree, kernel)) = full.take() {
            // Final round ran on the full dataset: the CI ranks are the
            // answer. The midpoint estimates carry up to ±ε·t/2 tolerance
            // error, so widen the returned bounds by that slack — without
            // it the documented 1−δ coverage could be eroded by the
            // approximation itself.
            report.stats = stats;
            return Ok(Bootstrap {
                bounds: ThresholdBounds {
                    lower: d_l * (1.0 - params.epsilon),
                    upper: d_u * (1.0 + params.epsilon),
                },
                report,
                tree,
                kernel,
            });
        }

        // Valid intermediate bounds: buffer them for the next, larger
        // round (densities shift as n and the bandwidth change).
        t_hi = d_u * params.bootstrap.buffer;
        t_lo = d_l / params.bootstrap.buffer;
        retries_left = params.bootstrap.max_retries;
        let grown = (r as f64 * params.bootstrap.growth) as usize; // CAST: r*growth is a sample count far below 2^53
        r = grown.min(n).max(r + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Optimizations;
    use tkdc_common::order::quantile;

    fn gaussian_blob(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        let mut m = Matrix::with_cols(d);
        let mut row = vec![0.0; d];
        for _ in 0..n {
            for v in &mut row {
                *v = rng.normal(0.0, 1.0);
            }
            m.push_row(&row).unwrap();
        }
        m
    }

    /// Exact t(p): p-quantile of self-corrected naive densities.
    fn exact_threshold(data: &Matrix, params: &Params) -> f64 {
        let h = scotts_rule(data, params.bandwidth_factor).unwrap();
        let kernel = Kernel::new(params.kernel, h).unwrap();
        let n = data.rows() as f64;
        let self_contrib = kernel.max_value() / n;
        let dens: Vec<f64> = data
            .iter_rows()
            .map(|x| {
                let mut acc = 0.0;
                for y in data.iter_rows() {
                    acc += kernel.eval_pair(x, y);
                }
                acc / n - self_contrib
            })
            .collect();
        quantile(&dens, params.p).unwrap()
    }

    #[test]
    fn bounds_bracket_exact_threshold() {
        let data = gaussian_blob(3000, 2, 41);
        let params = Params::default().with_p(0.05).with_seed(1);
        let (bounds, report) = bound_threshold(&data, &params).unwrap();
        assert!(bounds.lower <= bounds.upper);
        assert!(bounds.lower > 0.0, "threshold should be positive");
        let exact = exact_threshold(&data, &params);
        assert!(
            bounds.lower <= exact * 1.02 && exact <= bounds.upper * 1.02,
            "exact t(p)={exact} outside [{}, {}]",
            bounds.lower,
            bounds.upper
        );
        // Geometric growth: r0, 4·r0, …, n.
        assert!(report.rounds.len() >= 2);
        assert_eq!(*report.rounds.last().unwrap(), 3000);
    }

    #[test]
    fn small_dataset_single_round() {
        let data = gaussian_blob(150, 2, 43);
        let params = Params::default();
        let (bounds, report) = bound_threshold(&data, &params).unwrap();
        // n < r0 ⇒ one round over the whole dataset.
        assert_eq!(report.rounds, vec![150]);
        assert!(bounds.lower <= bounds.upper);
    }

    #[test]
    fn deterministic_for_seed() {
        let data = gaussian_blob(1200, 2, 47);
        let params = Params::default().with_seed(5);
        let (b1, _) = bound_threshold(&data, &params).unwrap();
        let (b2, _) = bound_threshold(&data, &params).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn parallel_bootstrap_bit_identical() {
        let data = gaussian_blob(1500, 2, 61);
        let params = Params::default().with_seed(9);
        let (serial, s_report) = bound_threshold(&data, &params).unwrap();
        for threads in [2, 4, 8] {
            let (parallel, p_report) =
                bound_threshold_with(&data, &params, ExecPolicy::with_threads(threads)).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
            assert_eq!(s_report.rounds, p_report.rounds, "threads={threads}");
            assert_eq!(s_report.backoffs, p_report.backoffs, "threads={threads}");
            assert_eq!(s_report.stats, p_report.stats, "threads={threads}");
        }
    }

    #[test]
    fn works_without_optimizations() {
        let data = gaussian_blob(800, 2, 53);
        let params = Params::default().with_opts(Optimizations::none());
        let (bounds, _) = bound_threshold(&data, &params).unwrap();
        let exact = exact_threshold(&data, &params);
        assert!(bounds.lower <= exact * 1.02 && exact <= bounds.upper * 1.02);
    }

    #[test]
    fn rejects_empty_input() {
        let data = Matrix::with_cols(2);
        assert!(bound_threshold(&data, &Params::default()).is_err());
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact-value asserts are deliberate
    fn folded_bounds_widen_and_clamp() {
        let b = ThresholdBounds {
            lower: 0.5,
            upper: 2.0,
        };
        let f = b.folded(0.25);
        assert_eq!(f.lower, 0.25);
        assert_eq!(f.upper, 2.25);
        // Folding never produces a negative density lower bound.
        let g = b.folded(1.0);
        assert_eq!(g.lower, 0.0);
        // Zero fold is the identity.
        assert_eq!(b.folded(0.0), b);
    }

    #[test]
    fn different_p_orders_thresholds() {
        let data = gaussian_blob(2000, 2, 59);
        let (b_low, _) = bound_threshold(&data, &Params::default().with_p(0.01)).unwrap();
        let (b_high, _) = bound_threshold(&data, &Params::default().with_p(0.5)).unwrap();
        // The median-density threshold must exceed the 1% tail threshold.
        assert!(b_high.lower > b_low.upper);
    }
}
