//! The `BoundDensity` traversal (Algorithm 2 of the paper).
//!
//! Maintains running lower/upper bounds `(f_l, f_u)` on the kernel density
//! of a query point by iteratively replacing k-d tree nodes with their
//! children, always refining the node with the greatest potential bound
//! improvement `n_r (K(d_min) − K(d_max))`. The traversal stops as soon as
//! either threshold rule (Eq. 9) or the tolerance rule (Eq. 8) fires, or
//! the tree is exhausted (in which case the bounds coincide with the exact
//! density up to floating-point error).
//!
//! A coreset model widens every certified interval by `ea = ε·K(0)` and
//! labels three ways (HIGH, LOW, UNKNOWN). Once `ea ≥ t` its LOW and
//! tolerance cuts collapse to zero, so
//! [`DensityBounder::bound_density_folded`] adds the exits that stop as
//! soon as the three-way label of the folded interval is decided.

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

    /// The interval widened by the coreset error `ea = ε·K(0)` on each
    /// side, lower clamped at zero, so it certifies the full-data
    /// density. The identity when `ea` is zero.
    #[inline]
    pub fn folded(self, ea: f64) -> Self {
        let (lower, upper) = fold(self.lower, self.upper, ea);
        Self {
            lower,
            upper,
            ..self
        }
    }
}

/// `[lower, upper]` widened by `ea` on each side, lower clamped at zero
/// (unchanged when `ea` is zero).
#[inline]
fn fold(lower: f64, upper: f64, ea: f64) -> (f64, f64) {
    if ea > 0.0 {
        ((lower - ea).max(0.0), upper + ea)
    } else {
        (lower, upper)
    }
}

/// The interval a traversal returns for its running bounds: the lower
/// bound clamped at zero against subtract/add drift, the upper bound
/// never below it.
#[inline]
fn settle(f_lo: f64, f_hi: f64) -> (f64, f64) {
    let lower = if f_lo < 0.0 { 0.0 } else { f_lo };
    (lower, f_hi.max(lower))
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
        self.bound_training_density(x, t_lo, t_hi, 0.0, scratch)
    }

    /// [`Self::bound_density`] for a query that is itself a training
    /// row whose own kernel mass in the density is `f0` (`K(0)/n` for a
    /// unit-weight row, `w_i·K(0)/W` for a weighted one). The threshold
    /// bounds and ε live in the space of the self-corrected density
    /// `f(x) − f0` that defines `t(p)` (Eq. 1), so the cuts compare the
    /// corrected running bounds `f_l − f0`, `f_u − f0` against them:
    ///
    /// * `f_l > t_hi·(1+ε) + f0` (certain HIGH),
    /// * `f_u < t_lo·(1−ε) + f0` (certain LOW),
    /// * `f_u − f_l < ε·t_lo` (tolerance; the width is the same in both
    ///   spaces).
    ///
    /// The returned bounds are still on the raw density `f(x)`. With
    /// `f0 = 0` this is [`Self::bound_density`], bit for bit.
    pub fn bound_training_density(
        &self,
        x: &[f64],
        t_lo: f64,
        t_hi: f64,
        f0: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        if scratch.tracer.is_active() {
            scratch.tracer.set_thresholds(t_lo, t_hi);
        }
        self.traverse(x, scratch, self.cuts(t_lo, t_hi, f0))
    }

    /// The ε-folded interval of a coreset model's classify query: the
    /// interval [`Self::bound_density`] returns against `[max(t − ea, 0),
    /// t + ea]`, widened by [`DensityBounds::folded`]`(ea)`, with extra
    /// exits that stop the traversal once the three-way label of that
    /// folded interval is decided. Before each refinement, after
    /// [`Self::bound_density`]'s own cuts, writing `[lo, hi]` for the
    /// folded interval of the running bounds:
    ///
    /// * `lo > t` — HIGH is certified (`threshold_high`);
    /// * `hi < t` — LOW is certified (`threshold_low`);
    /// * the running bounds swapped, `[f_u, f_l]`, fold to an interval
    ///   that still straddles `t` (`straddle`). `f_l` never rises above
    ///   today's `f_u` and `f_u` never falls below today's `f_l`, so
    ///   neither certified label is reachable any more: the query is
    ///   UNKNOWN.
    ///
    /// Each exit applies the label rule (`lower > t` HIGH, `upper < t`
    /// LOW) to the same fold of the same settled bounds the traversal
    /// returns. The refinement order is unchanged, so the work is a
    /// prefix of [`Self::bound_density`]'s on the same query and the
    /// label is the one its full run gives. The exits are only sound for
    /// that three-way label: callers that need the density itself inside
    /// the band keep [`Self::bound_density`]'s stop.
    pub fn bound_density_folded(
        &self,
        x: &[f64],
        t: f64,
        ea: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        let (t_lo, t_hi) = ((t - ea).max(0.0), t + ea);
        if scratch.tracer.is_active() {
            scratch.tracer.set_thresholds(t_lo, t_hi);
        }
        let cuts = self.cuts(t_lo, t_hi, 0.0);
        self.traverse(x, scratch, |f_lo, f_hi| {
            cuts(f_lo, f_hi).or_else(|| {
                let (lo, hi) = settle(f_lo, f_hi);
                let (lower, upper) = fold(lo, hi, ea);
                if lower > t {
                    return Some(PruneCause::ThresholdHigh);
                }
                if upper < t {
                    return Some(PruneCause::ThresholdLow);
                }
                let (best_lower, best_upper) = fold(hi, lo, ea);
                (best_lower <= t && best_upper >= t).then_some(PruneCause::Straddle)
            })
        })
        .folded(ea)
    }

    /// Algorithm 2's pruning rules against `[t_lo, t_hi]` on the density
    /// corrected by the query's self-contribution `f0` (0 for a query
    /// that is not a training row), checked before each refinement in
    /// the pseudocode's order: HIGH, LOW, then tolerance.
    fn cuts(&self, t_lo: f64, t_hi: f64, f0: f64) -> impl Fn(f64, f64) -> Option<PruneCause> {
        debug_assert!(t_lo <= t_hi);
        let high_cut = t_hi * (1.0 + self.epsilon) + f0;
        let low_cut = t_lo * (1.0 - self.epsilon) + f0;
        let tol_cut = self.epsilon * t_lo;
        let opts = self.opts;
        move |f_lo, f_hi| {
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
        }
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
        self.bound_training_density_relative(x, rtol, 0.0, scratch)
    }

    /// [`Self::bound_density_relative`] for a training row whose own
    /// kernel mass in the density is `f0`: the relative precision is on
    /// the self-corrected density, so the traversal stops when
    /// `f_u − f_l ≤ rtol · (f_l − f0)`. The returned bounds are on the
    /// raw density. With `f0 = 0` this is
    /// [`Self::bound_density_relative`], bit for bit.
    pub fn bound_training_density_relative(
        &self,
        x: &[f64],
        rtol: f64,
        f0: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        debug_assert!(rtol >= 0.0);
        if scratch.tracer.is_active() {
            // No threshold is involved; the trace records null bounds.
            scratch.tracer.set_thresholds(f64::NAN, f64::NAN);
        }
        self.traverse(x, scratch, |f_lo, f_hi| {
            (f_hi - f_lo <= rtol * (f_lo - f0)).then_some(PruneCause::Tolerance)
        })
    }

    /// The shared best-first refinement loop behind both public bounding
    /// modes. `stop` inspects the running bounds before each refinement
    /// and returns the prune cause that should end the traversal, if any;
    /// exhaustion of the tree always terminates regardless.
    ///
    /// At d ≥ 8 the hot layer is node-bound evaluation, not the leaf
    /// sum: a held-out d = 8 query costs 544 bound evaluations and 138
    /// node expansions but only 58 kernel evaluations, so the leaf sum
    /// is 3.1% of query time (`kernel.share` 0.031 in the benchmark
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
        let (lower, upper) = settle(f_lo, f_hi);
        if scratch.tracer.is_active() {
            // Finish after the clamp so the trace's final bounds equal
            // the returned `DensityBounds` bitwise.
            let stats = scratch.stats;
            scratch.tracer.finish(cause.as_str(), stats, lower, upper);
        }
        DensityBounds {
            lower,
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

    /// Leave-one-out (self-corrected) density of each training row, the
    /// values whose p-quantile is `t(p)`, and that self-contribution.
    fn loo_densities(data: &Matrix, kernel: &Kernel) -> (Vec<f64>, f64) {
        let f0 = kernel.max_value() / data.rows() as f64;
        let loo = data
            .iter_rows()
            .map(|r| naive_density(data, kernel, r) - f0)
            .collect();
        (loo, f0)
    }

    #[test]
    fn training_entry_without_self_contribution_is_bound_density() {
        let (_, tree, kernel) = setup(1500, 2, 53);
        let bounder = DensityBounder::new(&tree, &kernel, Optimizations::all(), 0.01);
        for (t_lo, t_hi) in [(0.0, f64::INFINITY), (1e-3, 1e-3), (5e-3, 2e-2)] {
            for i in -6..=6 {
                for j in -6..=6 {
                    let q = [0.5 * f64::from(i), 0.5 * f64::from(j)];
                    let (mut s_a, mut s_b) = (QueryScratch::new(), QueryScratch::new());
                    let a = bounder.bound_density(&q, t_lo, t_hi, &mut s_a);
                    let b = bounder.bound_training_density(&q, t_lo, t_hi, 0.0, &mut s_b);
                    assert_eq!(a.lower.to_bits(), b.lower.to_bits(), "{q:?}");
                    assert_eq!(a.upper.to_bits(), b.upper.to_bits(), "{q:?}");
                    assert_eq!(a.cause, b.cause, "{q:?}");
                    assert_eq!(s_a.stats, s_b.stats, "{q:?}");
                }
            }
        }
        for rtol in [0.1, 0.01] {
            for i in -6..=6 {
                let q = [0.5 * f64::from(i), -0.25 * f64::from(i)];
                let (mut s_a, mut s_b) = (QueryScratch::new(), QueryScratch::new());
                let a = bounder.bound_density_relative(&q, rtol, &mut s_a);
                let b = bounder.bound_training_density_relative(&q, rtol, 0.0, &mut s_b);
                assert_eq!(a.lower.to_bits(), b.lower.to_bits(), "{q:?}");
                assert_eq!(a.upper.to_bits(), b.upper.to_bits(), "{q:?}");
                assert_eq!(a.cause, b.cause, "{q:?}");
                assert_eq!(s_a.stats, s_b.stats, "{q:?}");
            }
        }
    }

    #[test]
    fn training_row_corrected_interval_sandwiches_leave_one_out_density() {
        let (data, tree, kernel) = setup(2000, 4, 59);
        let bounder = DensityBounder::new(&tree, &kernel, Optimizations::all(), 0.01);
        let (loo, f0) = loo_densities(&data, &kernel);
        let mut sorted = loo.clone();
        sorted.sort_by(f64::total_cmp);
        let t = sorted[sorted.len() / 20];
        let mut scratch = QueryScratch::new();
        for (i, row) in data.iter_rows().enumerate() {
            let b = bounder.bound_training_density(row, t, t, f0, &mut scratch);
            // Rounding in the running sums is relative to the raw density.
            let slack = 1e-9 * (loo[i] + f0);
            assert!(
                b.lower - f0 <= loo[i] + slack,
                "row {i}: {b:?} vs {}",
                loo[i]
            );
            assert!(
                b.upper - f0 >= loo[i] - slack,
                "row {i}: {b:?} vs {}",
                loo[i]
            );
        }
        // Both threshold cuts fire on the corrected density: every row's
        // raw density exceeds f0, and still some are certified LOW.
        assert!(scratch.stats.threshold_low > 0, "{:?}", scratch.stats);
        assert!(scratch.stats.threshold_high > 0, "{:?}", scratch.stats);
    }

    #[test]
    fn training_row_tolerance_stop_is_eps_t_wide() {
        let (data, tree, kernel) = setup(2000, 8, 61);
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
        let (loo, f0) = loo_densities(&data, &kernel);
        let mut sorted = loo.clone();
        sorted.sort_by(f64::total_cmp);
        let t = sorted[sorted.len() / 20];
        // The self-contribution dwarfs t at d = 8, so a width of ε·(t + f0)
        // would leave the corrected midpoint far from the LOO density.
        assert!(f0 > 10.0 * t, "f0 {f0} vs t {t}");
        let mut scratch = QueryScratch::new();
        for (i, row) in data.iter_rows().enumerate().step_by(10) {
            let b = bounder.bound_training_density(row, t, t, f0, &mut scratch);
            if b.cause == PruneCause::Exhausted {
                continue;
            }
            assert_eq!(b.cause, PruneCause::Tolerance);
            let width = (b.upper - f0) - (b.lower - f0);
            assert!(width < eps * t, "row {i}: width {width} vs ε·t {}", eps * t);
            let slack = 1e-9 * (loo[i] + f0);
            assert!(
                (b.midpoint() - f0 - loo[i]).abs() <= 0.5 * eps * t + slack,
                "row {i}: midpoint {} vs LOO {}",
                b.midpoint() - f0,
                loo[i]
            );
        }
        assert!(scratch.stats.tolerance > 0, "{:?}", scratch.stats);
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
