//! The fitted tree model: the paper's Algorithm 2 over an owned k-d
//! tree, kernel and optional grid cache.

use crate::bound::{DensityBounder, DensityBounds};
use crate::params::Optimizations;
use crate::qstats::QueryScratch;
use tkdc_index::{BandwidthGrid, KdTree};
use tkdc_kernel::Kernel;
use tkdc_sync::Arc;

/// Certified-bounds backend: k-d tree + kernel + optional grid cache.
///
/// Owns everything `BoundDensity` needs. The grid inlier cache
/// certifies a density *lower* bound from same-cell point counts, so
/// it lives next to the tree whose bounds it short-circuits. The tree is
/// shared by `Arc` so a fit can hand the bootstrap's final-round tree to
/// the model without building it twice. Immutable after fitting and
/// `Sync`; per-query mutable state lives in the caller's
/// [`QueryScratch`], and every result depends only on the query and the
/// fitted state, never on thread count or batch order.
#[derive(Debug)]
pub(crate) struct TreeBackend {
    tree: Arc<KdTree>,
    kernel: Kernel,
    grid: Option<BandwidthGrid>,
    grid_diag_sq: f64,
    opts: Optimizations,
    epsilon: f64,
}

impl TreeBackend {
    /// Assembles the backend from fitted parts. The caller (classifier
    /// fit / model load) has already validated dimensional consistency.
    pub(crate) fn new(
        tree: Arc<KdTree>,
        kernel: Kernel,
        grid: Option<BandwidthGrid>,
        opts: Optimizations,
        epsilon: f64,
    ) -> Self {
        let grid_diag_sq = grid
            .as_ref()
            .map(|g| g.diag_scaled_sq(kernel.inv_bandwidths()))
            .unwrap_or(0.0);
        Self {
            tree,
            kernel,
            grid,
            grid_diag_sq,
            opts,
            epsilon,
        }
    }

    /// The spatial index.
    pub(crate) fn tree(&self) -> &KdTree {
        &self.tree
    }

    /// The kernel (with fitted bandwidths) the density is defined by.
    pub(crate) fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The grid cache, if active.
    pub(crate) fn grid(&self) -> Option<&BandwidthGrid> {
        self.grid.as_ref()
    }

    /// Grid fast-path probe: the certified density lower bound from the
    /// query's cell population (`count/n · K(diag²)`), or `None` when no
    /// grid is active. The caller decides what threshold to test it
    /// against (training and classification use different guards).
    pub(crate) fn grid_lower(&self, x: &[f64]) -> Option<f64> {
        self.grid.as_ref().map(|g| {
            g.cell_count(x) as f64 / self.tree.len() as f64
                * self.kernel.eval_scaled_sq(self.grid_diag_sq)
        })
    }

    /// [`DensityBounder::bound_density`]: the density interval for `x`
    /// against threshold bounds `[t_lo, t_hi]`.
    pub(crate) fn bound_density(
        &self,
        x: &[f64],
        t_lo: f64,
        t_hi: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        self.bounder().bound_density(x, t_lo, t_hi, scratch)
    }

    /// [`DensityBounder::bound_density_folded`]: the ε-folded interval a
    /// coreset model labels by, refined only until its three-way label
    /// is decided.
    pub(crate) fn bound_density_folded(
        &self,
        x: &[f64],
        t: f64,
        ea: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        self.bounder().bound_density_folded(x, t, ea, scratch)
    }

    /// [`DensityBounder::bound_training_density`]: the cuts of a fit
    /// pass over training rows, each carrying its own kernel mass `f0`.
    pub(crate) fn bound_training_density(
        &self,
        x: &[f64],
        t_lo: f64,
        t_hi: f64,
        f0: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        self.bounder()
            .bound_training_density(x, t_lo, t_hi, f0, scratch)
    }

    /// [`DensityBounder::bound_training_density_relative`]: the density
    /// interval refined to relative precision `rtol` on the density
    /// corrected by the query's self-contribution `f0` (0 for a query
    /// that is not a training row).
    pub(crate) fn bound_density_relative(
        &self,
        x: &[f64],
        rtol: f64,
        f0: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        self.bounder()
            .bound_training_density_relative(x, rtol, f0, scratch)
    }

    /// Exhaustive (exact) density of `x` over the training points.
    pub(crate) fn exact_density(&self, x: &[f64], scratch: &mut QueryScratch) -> f64 {
        self.bounder().exact_density(x, scratch)
    }

    fn bounder(&self) -> DensityBounder<'_> {
        DensityBounder::new(&self.tree, &self.kernel, self.opts, self.epsilon)
    }
}
