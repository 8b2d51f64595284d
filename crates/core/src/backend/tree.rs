//! The certified dual-tree backend: the paper's Algorithm 2 extracted
//! behind the [`DensityBackend`] trait with zero behavior change.

use super::{BoundKind, DensityBackend};
use crate::bound::{DensityBounder, DensityBounds};
use crate::params::Optimizations;
use crate::qstats::QueryScratch;
use tkdc_index::{BandwidthGrid, KdTree};
use tkdc_kernel::Kernel;
use tkdc_sync::Arc;

/// Certified-bounds backend: k-d tree + kernel + optional grid cache.
///
/// Owns everything `BoundDensity` needs. The grid inlier cache is a
/// tree-only optimization — it certifies a density *lower* bound from
/// same-cell point counts, which only makes sense alongside certified
/// traversal bounds — so it lives here rather than in the
/// backend-agnostic classifier core. The tree is shared by `Arc` so a
/// fit can hand the bootstrap's final-round tree to the model without
/// building it twice.
#[derive(Debug)]
pub struct TreeBackend {
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
    pub fn tree(&self) -> &KdTree {
        &self.tree
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

    fn bounder(&self) -> DensityBounder<'_> {
        DensityBounder::new(&self.tree, &self.kernel, self.opts, self.epsilon)
    }
}

impl DensityBackend for TreeBackend {
    fn name(&self) -> &'static str {
        "tree"
    }

    fn bound_kind(&self) -> BoundKind {
        BoundKind::Certified
    }

    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn dim(&self) -> usize {
        self.tree.dim()
    }

    fn n_train(&self) -> usize {
        self.tree.len()
    }

    fn bound_density(
        &self,
        x: &[f64],
        t_lo: f64,
        t_hi: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        self.bounder().bound_density(x, t_lo, t_hi, scratch)
    }

    fn bound_density_folded(
        &self,
        x: &[f64],
        t: f64,
        ea: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        self.bounder().bound_density_folded(x, t, ea, scratch)
    }

    fn bound_density_relative(
        &self,
        x: &[f64],
        rtol: f64,
        f0: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        self.bounder()
            .bound_training_density_relative(x, rtol, f0, scratch)
    }

    fn exact_density(&self, x: &[f64], scratch: &mut QueryScratch) -> Option<f64> {
        Some(self.bounder().exact_density(x, scratch))
    }
}
