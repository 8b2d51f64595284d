//! The `BoundDensity` traversal (Algorithm 2 of the paper).
//!
//! Maintains running lower/upper bounds `(f_l, f_u)` on the kernel density
//! of a query point by iteratively replacing k-d tree nodes with their
//! children, always refining the node with the greatest potential bound
//! improvement `n_r (K(d_min) − K(d_max))`. The traversal stops as soon as
//! either threshold rule (Eq. 9) or the tolerance rule (Eq. 8) fires, or
//! the tree is exhausted (in which case the bounds coincide with the exact
//! density up to floating-point error).

use crate::params::Optimizations;
use crate::qstats::{HeapEntry, PruneCause, QueryScratch};
use tkdc_index::KdTree;
use tkdc_kernel::Kernel;

/// Density bounds plus the cause that ended the traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityBounds {
    /// Certified lower bound on `f(x)`.
    pub lower: f64,
    /// Certified upper bound on `f(x)`.
    pub upper: f64,
    /// Which pruning rule terminated the computation.
    pub cause: PruneCause,
}

impl DensityBounds {
    /// Midpoint estimate `(f_l + f_u)/2` used by Algorithm 1 both for
    /// quantile estimation and final classification.
    #[inline]
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }
}

/// Bound-computation engine borrowing the spatial index and kernel.
///
/// The engine itself is stateless (and `Sync`); per-thread mutable state
/// lives in the caller-supplied [`QueryScratch`].
#[derive(Debug, Clone, Copy)]
pub struct DensityBounder<'a> {
    tree: &'a KdTree,
    kernel: &'a Kernel,
    opts: Optimizations,
    epsilon: f64,
}

impl<'a> DensityBounder<'a> {
    /// Creates a bounder over a tree/kernel pair.
    ///
    /// # Panics
    /// Panics when the tree and kernel dimensionalities disagree — this
    /// is a programming error, not a data error.
    pub fn new(tree: &'a KdTree, kernel: &'a Kernel, opts: Optimizations, epsilon: f64) -> Self {
        assert_eq!(
            tree.dim(),
            kernel.dim(),
            "tree and kernel dimensionality must match"
        );
        Self {
            tree,
            kernel,
            opts,
            epsilon,
        }
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &Kernel {
        self.kernel
    }

    /// The index in use.
    pub fn tree(&self) -> &KdTree {
        self.tree
    }

    /// Bounds the kernel density of `x` against threshold bounds
    /// `[t_lo, t_hi]` (Algorithm 2). Pass `t_lo == t_hi == t̃` for
    /// classification queries, or the bootstrap's current coarse bounds
    /// during training.
    ///
    /// Guarantees on return, writing `f` for the exact KDE density:
    /// `lower ≤ f ≤ upper` always (up to f64 rounding), and one of
    ///
    /// * `lower > t_hi·(1+ε)` (certain HIGH),
    /// * `upper < t_lo·(1−ε)` (certain LOW),
    /// * `upper − lower < ε·t_lo` (tolerance precision reached), or
    /// * the bounds are exact (tree exhausted).
    pub fn bound_density(
        &self,
        x: &[f64],
        t_lo: f64,
        t_hi: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        debug_assert!(t_lo <= t_hi);
        let high_cut = t_hi * (1.0 + self.epsilon);
        let low_cut = t_lo * (1.0 - self.epsilon);
        let tol_cut = self.epsilon * t_lo;
        let opts = self.opts;
        if scratch.tracer.is_active() {
            scratch.tracer.set_thresholds(t_lo, t_hi);
        }
        // Pruning rules (checked before each refinement, in the
        // pseudocode's order: HIGH, LOW, then tolerance).
        self.traverse(x, scratch, |f_lo, f_hi| {
            if opts.threshold_rule {
                if f_lo > high_cut {
                    return Some(PruneCause::ThresholdHigh);
                }
                if f_hi < low_cut {
                    return Some(PruneCause::ThresholdLow);
                }
            }
            if opts.tolerance_rule && f_hi - f_lo < tol_cut {
                return Some(PruneCause::Tolerance);
            }
            None
        })
    }

    /// Bounds the density with a *relative* tolerance: the traversal
    /// stops when `f_u − f_l ≤ rtol · f_l`, i.e. the scikit-learn /
    /// Gray & Moore stopping rule used by the paper's `nocut`/`sklearn`
    /// baselines. No threshold is involved; the threshold rule and grid
    /// are ignored.
    pub fn bound_density_relative(
        &self,
        x: &[f64],
        rtol: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        debug_assert!(rtol >= 0.0);
        if scratch.tracer.is_active() {
            // No threshold is involved; the trace records null bounds.
            scratch.tracer.set_thresholds(f64::NAN, f64::NAN);
        }
        self.traverse(x, scratch, |f_lo, f_hi| {
            (f_hi - f_lo <= rtol * f_lo).then_some(PruneCause::Tolerance)
        })
    }

    /// The shared best-first refinement loop behind both public bounding
    /// modes. `stop` inspects the running bounds before each refinement
    /// and returns the prune cause that should end the traversal, if any;
    /// exhaustion of the tree always terminates regardless.
    ///
    /// At d ≥ 8 the hot layer is node-bound evaluation, not the leaf
    /// sum: a held-out d = 8 query costs 573 bound evaluations and 148
    /// node expansions but only 131 kernel evaluations, so the leaf sum
    /// is 3.6% of query time (`kernel.share` 0.036 in the benchmark
    /// ledger). Each child's `(u_min, u_max)` therefore comes from one
    /// fused, branch-free pass over its box
    /// ([`KdTree::scaled_sq_dist_bounds`]).
    ///
    /// Leaves are evaluated through the SoA kernel fast path
    /// ([`Kernel::sum_block_soa`]) over the node's cached
    /// dimension-major block: stride-1 columns autovectorize at any
    /// dimensionality, where the row-major block walk lost to scalar
    /// `eval_pair` beyond the unrolled small-`d` specializations.
    fn traverse(
        &self,
        x: &[f64],
        scratch: &mut QueryScratch,
        stop: impl Fn(f64, f64) -> Option<PruneCause>,
    ) -> DensityBounds {
        debug_assert_eq!(x.len(), self.tree.dim());
        // Density bounds are phrased in node *masses*: for an unweighted
        // tree `node_mass(id)` is bit-identical to `count(id) as f64`, so
        // this generalization changes nothing for full-data fits; for a
        // weighted (coreset) tree each point contributes its weight and
        // the normalizer is the total mass `W = Σ w_i`.
        let n = self.tree.total_mass();
        let inv_h = self.kernel.inv_bandwidths();

        scratch.heap.clear();

        // Seed with the root's coarse bounds.
        let root = self.tree.root();
        let (u_min, u_max) = self.tree.scaled_sq_dist_bounds(root, x, inv_h);
        scratch.stats.bound_evals += 2;
        let count = self.tree.node_mass(root);
        let w_hi = count / n * self.kernel.eval_scaled_sq(u_min);
        let w_lo = count / n * self.kernel.eval_scaled_sq(u_max);
        let mut f_lo = w_lo;
        let mut f_hi = w_hi;
        if w_hi > 0.0 {
            scratch.heap.push(HeapEntry {
                priority: w_hi - w_lo,
                node: root,
                w_lo,
                w_hi,
            });
        }

        let cause = loop {
            if let Some(cause) = stop(f_lo, f_hi) {
                break cause;
            }
            let Some(entry) = scratch.heap.pop() else {
                break PruneCause::Exhausted;
            };
            scratch.stats.nodes_expanded += 1;
            f_lo -= entry.w_lo;
            f_hi -= entry.w_hi;

            match self.tree.children(entry.node) {
                None => {
                    // Leaf: replace the bound with the exact contribution,
                    // summed over the leaf's dimension-major SoA block
                    // (weight-scaled when the tree carries point masses).
                    let rows = self.tree.count(entry.node);
                    let soa = self.tree.node_block_soa(entry.node);
                    // One predictable branch per leaf when disabled (the
                    // default) — the leaf_sum overhead gate holds this
                    // whole hook under 2%.
                    let leaf_t0 = scratch.time_leaves.then(std::time::Instant::now);
                    let exact = match self.tree.node_weights(entry.node) {
                        Some(w) => self.kernel.sum_block_soa_weighted(x, soa, rows, w) / n,
                        None => self.kernel.sum_block_soa(x, soa, rows) / n,
                    };
                    if let Some(t0) = leaf_t0 {
                        // CAST: a single leaf sum is far below u64 ns.
                        scratch.leaf_ns += t0.elapsed().as_nanos() as u64;
                    }
                    scratch.stats.kernel_evals += rows as u64; // CAST: usize count widens to u64
                    f_lo += exact;
                    f_hi += exact;
                }
                Some((left, right)) => {
                    for child in [left, right] {
                        let (u_min, u_max) = self.tree.scaled_sq_dist_bounds(child, x, inv_h);
                        scratch.stats.bound_evals += 2;
                        let c = self.tree.node_mass(child);
                        let w_hi = c / n * self.kernel.eval_scaled_sq(u_min);
                        let w_lo = c / n * self.kernel.eval_scaled_sq(u_max);
                        f_lo += w_lo;
                        f_hi += w_hi;
                        // A zero upper bound means the subtree contributes
                        // nothing resolvable — skip the push entirely
                        // (exact for compact-support kernels; for the
                        // Gaussian it only skips fully-underflowed boxes).
                        if w_hi > 0.0 {
                            scratch.heap.push(HeapEntry {
                                priority: w_hi - w_lo,
                                node: child,
                                w_lo,
                                w_hi,
                            });
                        }
                    }
                }
            }
            if scratch.tracer.is_active() {
                let stats = scratch.stats;
                scratch.tracer.step(stats, f_lo, f_hi);
            }
        };
        scratch.stats.record_outcome(cause);
        // Guard against tiny negative drift from repeated subtract/add.
        if f_lo < 0.0 {
            f_lo = 0.0;
        }
        let upper = f_hi.max(f_lo);
        if scratch.tracer.is_active() {
            // Finish after the clamp so the trace's final bounds equal
            // the returned `DensityBounds` bitwise.
            let stats = scratch.stats;
            scratch.tracer.finish(cause.as_str(), stats, f_lo, upper);
        }
        DensityBounds {
            lower: f_lo,
            upper,
            cause,
        }
    }

    /// Exact kernel density via exhaustive traversal (all pruning
    /// disabled). Used as the ground-truth oracle by tests.
    pub fn exact_density(&self, x: &[f64], scratch: &mut QueryScratch) -> f64 {
        let saved = self.opts;
        let exact = DensityBounder {
            opts: Optimizations {
                threshold_rule: false,
                tolerance_rule: false,
                ..saved
            },
            ..*self
        };
        let b = exact.bound_density(x, 0.0, f64::INFINITY, scratch);
        debug_assert_eq!(b.cause, PruneCause::Exhausted);
        b.midpoint()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-value asserts are deliberate in tests
mod tests {
    use super::*;
    use tkdc_common::{Matrix, Rng};
    use tkdc_index::SplitRule;
    use tkdc_kernel::{scotts_rule, KernelKind};

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

    fn naive_density(data: &Matrix, kernel: &Kernel, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for row in data.iter_rows() {
            acc += kernel.eval_pair(x, row);
        }
        acc / data.rows() as f64
    }

    fn setup(n: usize, d: usize, seed: u64) -> (Matrix, KdTree, Kernel) {
        let data = gaussian_blob(n, d, seed);
        let tree = KdTree::build(&data, 16, SplitRule::TrimmedMidpoint).unwrap();
        let h = scotts_rule(&data, 1.0).unwrap();
        let kernel = Kernel::new(KernelKind::Gaussian, h).unwrap();
        (data, tree, kernel)
    }

    #[test]
    fn exhaustive_bounds_equal_naive_density() {
        let (data, tree, kernel) = setup(400, 2, 3);
        let bounder = DensityBounder::new(&tree, &kernel, Optimizations::none(), 0.01);
        let mut scratch = QueryScratch::new();
        // The running add/subtract accumulation drifts relative to the
        // *intermediate* bound magnitudes (≈ K(0)), so tolerance scales
        // with the kernel maximum rather than the (possibly tiny) result.
        let tol = 1e-11 * kernel.max_value();
        for q in [[0.0, 0.0], [1.0, -1.0], [4.0, 4.0]] {
            let b = bounder.bound_density(&q, 0.0, f64::INFINITY, &mut scratch);
            assert_eq!(b.cause, PruneCause::Exhausted);
            let exact = naive_density(&data, &kernel, &q);
            assert!((b.lower - exact).abs() < tol, "{} vs {exact}", b.lower);
            assert!((b.upper - exact).abs() < tol, "{} vs {exact}", b.upper);
        }
    }

    #[test]
    fn bounds_always_sandwich_exact_density() {
        let (data, tree, kernel) = setup(600, 3, 5);
        let bounder = DensityBounder::new(&tree, &kernel, Optimizations::all(), 0.01);
        let mut scratch = QueryScratch::new();
        let mut rng = Rng::seed_from(77);
        // Pick a plausible threshold: the 5th-percentile naive density.
        let mut dens: Vec<f64> = data
            .iter_rows()
            .map(|r| naive_density(&data, &kernel, r))
            .collect();
        dens.sort_by(f64::total_cmp);
        let t = dens[dens.len() / 20];
        for _ in 0..50 {
            let q = [
                rng.normal(0.0, 2.0),
                rng.normal(0.0, 2.0),
                rng.normal(0.0, 2.0),
            ];
            let b = bounder.bound_density(&q, t, t, &mut scratch);
            let exact = naive_density(&data, &kernel, &q);
            assert!(
                b.lower <= exact * (1.0 + 1e-9) + 1e-300,
                "lower bound {} exceeds exact {}",
                b.lower,
                exact
            );
            assert!(
                b.upper >= exact * (1.0 - 1e-9) - 1e-300,
                "upper bound {} below exact {}",
                b.upper,
                exact
            );
        }
    }

    #[test]
    fn pruned_traversal_matches_exact_classification() {
        let (data, tree, kernel) = setup(500, 2, 11);
        let eps = 0.01;
        let bounder = DensityBounder::new(&tree, &kernel, Optimizations::all(), eps);
        let mut scratch = QueryScratch::new();
        let mut dens: Vec<f64> = data
            .iter_rows()
            .map(|r| naive_density(&data, &kernel, r))
            .collect();
        dens.sort_by(f64::total_cmp);
        let t = dens[dens.len() / 100]; // 1% threshold
        let mut rng = Rng::seed_from(13);
        for _ in 0..200 {
            let q = [rng.normal(0.0, 2.5), rng.normal(0.0, 2.5)];
            let exact = naive_density(&data, &kernel, &q);
            let b = bounder.bound_density(&q, t, t, &mut scratch);
            let predicted_high = b.midpoint() > t;
            // Outside the ±εt ambiguity band, classification must agree.
            if exact > t * (1.0 + eps) {
                assert!(predicted_high, "exact {exact} > t(1+ε) but classified LOW");
            } else if exact < t * (1.0 - eps) {
                assert!(
                    !predicted_high,
                    "exact {exact} < t(1−ε) but classified HIGH"
                );
            }
        }
    }

    #[test]
    fn threshold_rule_saves_kernel_evaluations() {
        let (_, tree, kernel) = setup(4000, 2, 17);
        let mut s_all = QueryScratch::new();
        let mut s_tol = QueryScratch::new();
        let all = DensityBounder::new(&tree, &kernel, Optimizations::all(), 0.01);
        let tol_only = DensityBounder::new(
            &tree,
            &kernel,
            Optimizations {
                threshold_rule: false,
                tolerance_rule: true,
                ..Optimizations::all()
            },
            0.01,
        );
        // A dense-center query with a tiny threshold is instantly HIGH for
        // the threshold rule but needs precision work for tolerance-only.
        let q = [0.0, 0.0];
        let t = 1e-4;
        all.bound_density(&q, t, t, &mut s_all);
        tol_only.bound_density(&q, t, t, &mut s_tol);
        assert!(
            s_all.stats.kernel_evals + s_all.stats.nodes_expanded
                < s_tol.stats.kernel_evals + s_tol.stats.nodes_expanded,
            "threshold rule should reduce work: {:?} vs {:?}",
            s_all.stats,
            s_tol.stats
        );
        assert_eq!(s_all.stats.threshold_high, 1);
    }

    #[test]
    fn tolerance_rule_bounds_width() {
        let (_, tree, kernel) = setup(1000, 2, 23);
        let eps = 0.05;
        let bounder = DensityBounder::new(
            &tree,
            &kernel,
            Optimizations {
                threshold_rule: false,
                tolerance_rule: true,
                ..Optimizations::all()
            },
            eps,
        );
        let mut scratch = QueryScratch::new();
        let t = 0.01;
        let b = bounder.bound_density(&[0.2, -0.4], t, t, &mut scratch);
        assert!(
            b.upper - b.lower < eps * t || b.cause == PruneCause::Exhausted,
            "width {} vs ε·t {}",
            b.upper - b.lower,
            eps * t
        );
    }

    #[test]
    fn far_query_is_certain_low_quickly() {
        let (_, tree, kernel) = setup(5000, 2, 29);
        let bounder = DensityBounder::new(&tree, &kernel, Optimizations::all(), 0.01);
        let mut scratch = QueryScratch::new();
        let b = bounder.bound_density(&[50.0, 50.0], 0.001, 0.002, &mut scratch);
        assert_eq!(b.cause, PruneCause::ThresholdLow);
        // Should prune after very few kernel evaluations.
        assert!(
            scratch.stats.kernel_evals < 100,
            "kernel evals {}",
            scratch.stats.kernel_evals
        );
    }

    #[test]
    fn exact_density_helper_matches_naive() {
        let (data, tree, kernel) = setup(300, 2, 31);
        let bounder = DensityBounder::new(&tree, &kernel, Optimizations::all(), 0.01);
        let mut scratch = QueryScratch::new();
        let q = [0.3, 0.7];
        let exact = bounder.exact_density(&q, &mut scratch);
        let naive = naive_density(&data, &kernel, &q);
        assert!((exact - naive).abs() < 1e-12);
    }

    #[test]
    fn relative_tolerance_bound_honors_rtol() {
        let (data, tree, kernel) = setup(1500, 2, 41);
        let bounder = DensityBounder::new(&tree, &kernel, Optimizations::all(), 0.01);
        let mut scratch = QueryScratch::new();
        let mut rng = Rng::seed_from(43);
        for rtol in [0.1, 0.01] {
            for _ in 0..20 {
                let q = [rng.normal(0.0, 1.5), rng.normal(0.0, 1.5)];
                let b = bounder.bound_density_relative(&q, rtol, &mut scratch);
                let exact = naive_density(&data, &kernel, &q);
                // Sandwich plus the advertised relative width.
                assert!(b.lower <= exact * (1.0 + 1e-9) + 1e-300);
                assert!(b.upper >= exact * (1.0 - 1e-9) - 1e-300);
                assert!(
                    b.upper - b.lower <= rtol * b.lower.max(1e-300)
                        || b.cause == PruneCause::Exhausted,
                    "width {} vs rtol·f {}",
                    b.upper - b.lower,
                    rtol * b.lower
                );
                // Midpoint error is within rtol/2 of the exact density.
                assert!(
                    (b.midpoint() - exact).abs() <= rtol * exact + 1e-300,
                    "midpoint {} vs exact {exact} at rtol {rtol}",
                    b.midpoint()
                );
            }
        }
    }

    #[test]
    fn relative_tolerance_coarser_rtol_does_less_work() {
        let (_, tree, kernel) = setup(6000, 2, 47);
        let bounder = DensityBounder::new(&tree, &kernel, Optimizations::all(), 0.01);
        let mut s_loose = QueryScratch::new();
        let mut s_tight = QueryScratch::new();
        let q = [0.1, -0.2];
        bounder.bound_density_relative(&q, 0.2, &mut s_loose);
        bounder.bound_density_relative(&q, 0.001, &mut s_tight);
        assert!(
            s_loose.stats.kernel_evals + s_loose.stats.nodes_expanded
                < s_tight.stats.kernel_evals + s_tight.stats.nodes_expanded,
            "loose {:?} vs tight {:?}",
            s_loose.stats,
            s_tight.stats
        );
    }

    #[test]
    fn epanechnikov_compact_support_prunes_hard() {
        let data = gaussian_blob(2000, 2, 37);
        let tree = KdTree::build(&data, 16, SplitRule::TrimmedMidpoint).unwrap();
        let h = scotts_rule(&data, 1.0).unwrap();
        let kernel = Kernel::new(KernelKind::Epanechnikov, h).unwrap();
        let bounder = DensityBounder::new(&tree, &kernel, Optimizations::none(), 0.01);
        let mut scratch = QueryScratch::new();
        // Query far outside all supports: exhausts instantly because
        // zero-bound subtrees are never pushed.
        let b = bounder.bound_density(&[100.0, 100.0], 0.0, f64::INFINITY, &mut scratch);
        assert_eq!(b.cause, PruneCause::Exhausted);
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, 0.0);
        assert_eq!(scratch.stats.kernel_evals, 0);
    }
}
