//! End-to-end density classification (Algorithm 1 of the paper).
//!
//! `Classifier::fit` runs the threshold bootstrap, builds the full spatial
//! index, computes density bounds for every training point to refine the
//! threshold estimate `t̃(p)`, and (for `d ≤ 4`) builds the grid cache.
//! `classify` then answers HIGH/LOW per query via the pruned traversal,
//! with the grid short-circuiting obvious inliers before any tree work.

use crate::bound::DensityBounds;
use crate::engine::{Pool, PoolTelemetry};
use crate::params::Params;
use crate::qstats::{PruneCause, QueryScratch, QueryStats};
use crate::span::Spans;
use crate::threshold::{bootstrap, BootstrapReport, ThresholdBounds};
use crate::trace::Tracer;
use crate::tree::TreeBackend;
use tkdc_common::error::{Error, Result};
use tkdc_common::order::quantile_in_place;
use tkdc_common::Matrix;
use tkdc_index::{BandwidthGrid, KdTree, MAX_GRID_DIM};
use tkdc_kernel::{scotts_rule_from_stds, Kernel};
use tkdc_sync::Arc;

/// Re-export so callers can reference the grid dimensionality cap without
/// importing the index crate.
pub use tkdc_index::grid::MAX_GRID_DIM as GRID_DIM_LIMIT;

/// Classification outcome for a query point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Density above the threshold.
    High,
    /// Density below the threshold.
    Low,
    /// The ε-folded certified interval straddles the threshold: a
    /// coreset-backed model (`coreset_eps > 0`) cannot certify either
    /// label against the *full* dataset. Full-data models never produce
    /// this — their tolerance rule resolves straddles by midpoint, which
    /// the paper's guarantee covers; a coreset's additional ±ε error
    /// does not, so the straddle is surfaced honestly instead.
    Unknown,
}

/// Execution policy of the fit and batch entry points
/// ([`Classifier::fit_with`], [`Classifier::classify_batch_with`] and
/// the other `_with`/`_shared` calls), carried in their [`Ctx`].
///
/// Every batch consumer in the workspace (CLI, benchmark harnesses, the
/// `tkdc-serve` daemon) goes through it. Labels, bounds, thresholds and
/// merged [`QueryStats`] are identical for every policy and thread count
/// — the policy only chooses *how many threads* share the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Single-threaded, in-order execution on the calling thread
    /// (allocation-free beyond the output vector).
    Serial,
    /// Work-stealing parallel execution on the classifier's persistent
    /// [`Pool`]. `threads: None` resolves to the machine's available
    /// parallelism; tiny batches run inline on the calling thread.
    Parallel {
        /// Worker-thread count; `None` = available parallelism.
        threads: Option<usize>,
    },
}

impl Default for ExecPolicy {
    /// Work-stealing execution at the machine's available parallelism.
    fn default() -> Self {
        ExecPolicy::Parallel { threads: None }
    }
}

impl ExecPolicy {
    /// Work-stealing execution at the machine's available parallelism
    /// (`Parallel { threads: None }`).
    pub fn parallel() -> Self {
        ExecPolicy::Parallel { threads: None }
    }

    /// Work-stealing execution with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecPolicy::Parallel {
            threads: Some(threads),
        }
    }

    /// The effective worker-thread count this policy resolves to.
    pub fn resolved_threads(&self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Parallel { threads } => threads
                .unwrap_or_else(|| {
                    tkdc_sync::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                })
                .max(1),
        }
    }
}

/// Call context of the fit and batch entry points: how to schedule the
/// work and what to record about it.
///
/// Every entry point takes `impl Into<Ctx>`, and an [`ExecPolicy`]
/// converts into a context that records nothing, so
/// `clf.classify_batch_with(&queries, ExecPolicy::Serial)` is the plain
/// call. Attach a recording [`Spans`] handle to get the stage spans of
/// the call and, with [`Spans::sampling`], its sampled per-query traces
/// — one stream, drained with [`Spans::take`]. Recording never changes
/// labels, bounds, thresholds or merged [`QueryStats`].
#[derive(Debug, Clone, Default)]
pub struct Ctx {
    /// How many threads share the work.
    pub policy: ExecPolicy,
    /// Where spans and sampled query traces go (inert by default).
    pub obs: Spans,
}

impl From<ExecPolicy> for Ctx {
    fn from(policy: ExecPolicy) -> Self {
        Self {
            policy,
            obs: Spans::off(),
        }
    }
}

/// Summary of the training phase.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// The bootstrap's `1 − δ` confidence bounds on `t(p)`.
    pub threshold_bounds: ThresholdBounds,
    /// Refined threshold estimate `t̃(p)` (the p-quantile of training
    /// densities).
    pub threshold: f64,
    /// Bootstrap diagnostics (empty for weighted fits, which skip the
    /// bootstrap, and for loaded models).
    pub bootstrap: BootstrapReport,
    /// Traversal statistics of the training-density pass.
    pub training_stats: QueryStats,
    /// Whether the invalid-bound detector (§3.6) had to re-estimate.
    pub threshold_reestimates: usize,
}

/// The immutable fitted state: everything a query needs, nothing a
/// scheduler needs. Shared as an [`Arc`] between the owning
/// [`Classifier`] and the pool workers executing a batch, so the pool's
/// `'static` job closures can hold the model without copying it.
#[derive(Debug)]
struct Model {
    params: Params,
    threshold: f64,
    /// Relative coreset error ε (in units of the kernel maximum `K(0)`);
    /// `0.0` for full-data fits. When positive, every certified density
    /// interval is widened by `coreset_eps · K(0)` and straddling queries
    /// classify as [`Label::Unknown`].
    coreset_eps: f64,
    /// The fitted tree, kernel and grid cache every query routes
    /// through.
    backend: Arc<TreeBackend>,
}

/// A fitted tKDC model.
///
/// The model is immutable after fitting and `Sync`, so batches of queries
/// can be classified from multiple threads, each with its own
/// [`QueryScratch`]. The classifier also owns a persistent
/// work-stealing [`Pool`]: the fit creates it and runs its bootstrap and
/// training-density passes on it, and every later
/// [`ExecPolicy::Parallel`] batch reuses the same parked workers instead
/// of spawning threads per batch — which is what makes small repeated
/// batches (the `tkdc-serve` request pattern) actually profit from
/// parallelism. The pool spawns lazily — a classifier that only ever
/// runs serially never starts a thread — and drains its workers when the
/// classifier drops.
#[derive(Debug)]
pub struct Classifier {
    model: Arc<Model>,
    pool: Pool,
    fit_report: FitReport,
}

impl Classifier {
    /// Wraps a fitted [`Model`] with the pool its fit ran on.
    fn from_model(model: Model, fit_report: FitReport, pool: Pool) -> Self {
        Self {
            model: Arc::new(model),
            pool,
            fit_report,
        }
    }
    /// Trains a classifier on the dataset (Algorithm 1's training phase),
    /// serially. Equivalent to `fit_with(data, params, ExecPolicy::Serial)`.
    ///
    /// # Errors
    /// Propagates parameter-validation, empty-input and numeric errors.
    pub fn fit(data: &Matrix, params: &Params) -> Result<Self> {
        Self::fit_with(data, params, ExecPolicy::Serial)
    }

    /// Trains a classifier under the given execution policy: the
    /// density-heavy phases (the bootstrap's per-round query loops and
    /// the full training-density pass) are work-stolen across the
    /// policy's resolved thread count, on the pool the classifier then
    /// keeps. The fitted model — threshold, bounds, and merged
    /// statistics — is identical to [`Self::fit`] for every policy and
    /// thread count: per-query work is deterministic, results are merged
    /// in index order, and the seeded RNG is only consumed by
    /// (sequential) subset sampling.
    ///
    /// A recording `ctx.obs` gets one `fit.*` span per phase (bootstrap,
    /// index build, training-density threshold pass); the fit's
    /// internal density passes trace no queries.
    ///
    /// # Errors
    /// Propagates parameter-validation, empty-input and numeric errors.
    pub fn fit_with(data: &Matrix, params: &Params, ctx: impl Into<Ctx>) -> Result<Self> {
        let ctx = ctx.into();
        params.validate()?;
        if data.rows() == 0 {
            return Err(Error::EmptyInput("training data"));
        }
        let pool = Pool::new();
        let (model, fit_report) = Self::fit_tree(&pool, data, params, &ctx)?;
        Ok(Self::from_model(model, fit_report, pool))
    }

    /// The unweighted fit: threshold bootstrap (Algorithm 3), grid cache
    /// around the bootstrap's full-data index, and the pruned
    /// training-density pass. Inputs are pre-validated by
    /// [`Self::fit_with`].
    fn fit_tree(
        pool: &Pool,
        data: &Matrix,
        params: &Params,
        ctx: &Ctx,
    ) -> Result<(Model, FitReport)> {
        // Phase 1: 1 − δ confidence threshold bounds (Algorithm 3). Its
        // final round trains on all of `data` with the model's leaf
        // size, split rule and bandwidth, so its tree and kernel are the
        // model's index and kernel.
        let boot = {
            let _span = ctx.obs.enter("fit.bootstrap");
            bootstrap(pool, data, params, ctx.policy)?
        };
        let mut bounds = boot.bounds;

        // Phase 2: the model backend around the full index and kernel.
        let build_span = ctx.obs.enter("fit.tree_build");
        let kernel = boot.kernel;
        let n = data.rows() as f64;
        let self_contrib = kernel.max_value() / n;

        // Optional grid cache (only profitable in low dimensions). The
        // grid is an optimization, not a requirement: when it cannot be
        // built (e.g. coordinates so far from the origin relative to the
        // bandwidth that cell indices overflow), fall back to no grid
        // rather than failing the fit.
        let grid = if params.opts.grid && data.cols() <= MAX_GRID_DIM {
            BandwidthGrid::build(data, kernel.bandwidths()).ok()
        } else {
            None
        };
        let tb = Arc::new(TreeBackend::new(
            boot.tree,
            kernel,
            grid,
            params.opts,
            params.epsilon,
        ));
        drop(build_span);
        let _threshold_span = ctx.obs.enter("fit.threshold");

        // Phase 3: density bounds for every training point → t̃(p).
        // Each row's cuts act on its self-corrected density f(x) − f₀
        // (Algorithm 2 against the corrected bounds, f₀ = K(0)/n), the
        // quantity whose quantile t̃ is; the ε·t_l tolerance is therefore
        // a width on t's scale, not on f₀'s.
        // If the bootstrap bounds turn out invalid (probability δ), the
        // quantile lands outside them; detect and retry with relaxed
        // bounds (§3.6). The pass walks the tree's own (reordered) rows:
        // the quantile does not depend on row order, and values that tie
        // under `total_cmp` are bit-equal, so t̃ is the input-order
        // pass's bit for bit.
        let eps = params.epsilon;
        let mut training_stats = QueryStats::default();
        let mut reestimates = 0usize;
        let threshold = loop {
            let (t_lo, t_hi) = (bounds.lower, bounds.upper);
            let b = Arc::clone(&tb);
            let (mut densities, stats) = drive_batch(
                pool,
                data.rows(),
                &Ctx::from(ctx.policy),
                move |i, scratch| {
                    let x = b.tree().point(i);
                    // The grid can certify obvious inliers without traversal;
                    // their exact density is irrelevant to a small-p quantile
                    // as long as the *stored corrected value* stays above the
                    // corrected-space upper bound — hence the −f₀ on the left
                    // of the guard (a raw-space guard could store a value that
                    // sinks below the quantile rank and bias t̃ upward).
                    if let Some(cell_lower) = b.grid_lower(x) {
                        // The probe computes one density lower bound.
                        scratch.stats.bound_evals += 1;
                        if cell_lower - self_contrib > t_hi * (1.0 + eps) {
                            scratch.stats.record_outcome(PruneCause::Grid);
                            return Ok(cell_lower - self_contrib);
                        }
                    }
                    let bd = b.bound_training_density(x, t_lo, t_hi, self_contrib, scratch);
                    Ok((bd.midpoint() - self_contrib).max(0.0))
                },
            )?;
            training_stats.merge(&stats);
            let t = quantile_in_place(&mut densities, params.p)?;
            // Valid when t̃ falls inside the (slightly widened) bounds.
            let lo_ok = t >= bounds.lower * (1.0 - params.epsilon) - f64::MIN_POSITIVE;
            let hi_ok = t <= bounds.upper * (1.0 + params.epsilon);
            if lo_ok && hi_ok {
                break t;
            }
            reestimates += 1;
            if reestimates > 8 {
                return Err(Error::Numeric(
                    "threshold re-estimation failed to converge".into(),
                ));
            }
            // Relax the violated side and recompute the density pass.
            if !hi_ok {
                bounds.upper = t * params.bootstrap.backoff;
            }
            if !lo_ok {
                bounds.lower = t / params.bootstrap.backoff;
            }
        };

        let fit_report = FitReport {
            threshold_bounds: bounds,
            threshold,
            bootstrap: boot.report,
            training_stats,
            threshold_reestimates: reestimates,
        };
        let model = Model {
            params: params.clone(),
            threshold,
            coreset_eps: 0.0,
            backend: tb,
        };
        Ok((model, fit_report))
    }

    /// Trains a classifier on a *weighted* dataset — typically a coreset
    /// produced by `tkdc-coreset` — where row `i` carries mass
    /// `weights[i]` and the KDE is `f(x) = Σ w_i K(x, x_i) / Σ w_i`.
    /// Serial; equivalent to
    /// `fit_weighted_with(…, ExecPolicy::Serial)`.
    ///
    /// `coreset_eps` is the coreset's certified relative density error
    /// (in units of the kernel maximum `K(0)`): the weighted KDE is
    /// guaranteed to lie within `±coreset_eps·K(0)` of the full-data KDE.
    /// It is folded into every certified interval the classifier hands
    /// out — [`Self::classify_with`] returns [`Label::Unknown`] when the
    /// widened interval straddles the threshold, so a certified
    /// `High`/`Low` from a coreset model is certified *against the full
    /// dataset*, not just the coreset. Pass `0.0` for exactly-weighted
    /// data (e.g. pre-aggregated duplicates) to keep the paper's midpoint
    /// rule.
    ///
    /// Differences from [`Self::fit`]: no threshold bootstrap (the
    /// coreset is already small enough for a direct relative-precision
    /// density pass), the threshold is the *weighted* p-quantile of
    /// training densities, and the grid cache is disabled (its integer
    /// cell counts cannot carry fractional mass).
    ///
    /// # Errors
    /// Propagates parameter-validation errors; rejects empty input,
    /// weight/row count mismatches, non-finite or negative `coreset_eps`,
    /// and non-positive weights.
    pub fn fit_weighted(
        data: &Matrix,
        weights: &[f64],
        coreset_eps: f64,
        params: &Params,
    ) -> Result<Self> {
        Self::fit_weighted_with(data, weights, coreset_eps, params, ExecPolicy::Serial)
    }

    /// [`Self::fit_weighted`] with the density pass work-stolen across
    /// the context's resolved thread count. Bit-identical to the serial
    /// path for every thread count: densities come back in index order
    /// and the weighted quantile sorts them deterministically. Spans
    /// record as for [`Self::fit_with`].
    ///
    /// # Errors
    /// See [`Self::fit_weighted`].
    pub fn fit_weighted_with(
        data: &Matrix,
        weights: &[f64],
        coreset_eps: f64,
        params: &Params,
        ctx: impl Into<Ctx>,
    ) -> Result<Self> {
        let ctx = ctx.into();
        params.validate()?;
        if data.rows() == 0 {
            return Err(Error::EmptyInput("training data"));
        }
        if weights.len() != data.rows() {
            return Err(Error::DimensionMismatch {
                expected: data.rows(),
                actual: weights.len(),
            });
        }
        if !coreset_eps.is_finite() || coreset_eps < 0.0 {
            return Err(Error::Numeric(format!(
                "coreset epsilon must be finite and non-negative, got {coreset_eps}"
            )));
        }
        let pool = Pool::new();
        let (model, fit_report) =
            Self::fit_weighted_tree(&pool, data, weights, coreset_eps, params, &ctx)?;
        Ok(Self::from_model(model, fit_report, pool))
    }

    /// The weighted fit. Inputs are pre-validated by
    /// [`Self::fit_weighted_with`].
    fn fit_weighted_tree(
        pool: &Pool,
        data: &Matrix,
        weights: &[f64],
        coreset_eps: f64,
        params: &Params,
        ctx: &Ctx,
    ) -> Result<(Model, FitReport)> {
        // Weight-aware index: node masses replace point counts in every
        // density bound the traversal computes.
        let build_span = ctx.obs.enter("fit.tree_build");
        let tree = Arc::new(KdTree::build_weighted(
            data,
            weights,
            params.leaf_size,
            params.opts.split_rule(),
        )?);
        let w_total = tree.total_mass();

        // Bandwidths from *weighted* column statistics with the effective
        // sample size W = Σw: a coreset whose weights sum to the input
        // count reproduces the full-data Scott's-rule bandwidth, which
        // label agreement with the full-data fit requires.
        let stds = tkdc_common::stats::column_stds_weighted(data, weights);
        let eff_n = (w_total.round() as usize).max(1); // CAST: total mass is a point count far below 2^53
        let h = scotts_rule_from_stds(&stds, eff_n, params.bandwidth_factor)?;
        let kernel = Kernel::new(params.kernel, h)?;
        let tb = Arc::new(TreeBackend::new(
            tree,
            kernel,
            None,
            params.opts,
            params.epsilon,
        ));

        drop(build_span);
        let _threshold_span = ctx.obs.enter("fit.threshold");

        fit_relative(pool, ctx.policy, params, tb, coreset_eps)
    }

    /// Reassembles a classifier from persisted parts (see
    /// `tkdc::model_io`).
    ///
    /// # Errors
    /// Fails when the parts are mutually inconsistent (dimensionality,
    /// grid cell count) or the parameters are invalid.
    pub(crate) fn from_loaded_parts(
        params: Params,
        tree: KdTree,
        kernel: Kernel,
        grid: Option<BandwidthGrid>,
        threshold: f64,
        threshold_bounds: ThresholdBounds,
        coreset_eps: f64,
    ) -> Result<Self> {
        params.validate()?;
        if kernel.dim() != tree.dim() {
            return Err(Error::DimensionMismatch {
                expected: tree.dim(),
                actual: kernel.dim(),
            });
        }
        if !threshold.is_finite() || threshold < 0.0 {
            return Err(Error::Numeric("loaded threshold is not a density".into()));
        }
        if !coreset_eps.is_finite() || coreset_eps < 0.0 {
            return Err(Error::Numeric(
                "loaded coreset epsilon is not a valid error bound".into(),
            ));
        }
        // The grid's u32 cell counts ignore point masses and its fast
        // path certifies against the coreset, not the full data — a
        // weighted or ε-folded model must never carry one.
        if grid.is_some() && (tree.is_weighted() || coreset_eps > 0.0) {
            return Err(Error::Numeric(
                "weighted/coreset models cannot carry a grid cache".into(),
            ));
        }
        if let Some(g) = &grid {
            // The grid's cell edges must align with the kernel/tree
            // dimensionality; a mismatched pair would index cells with the
            // wrong key width and silently mis-prune.
            if g.cell_edges().len() != tree.dim() {
                return Err(Error::DimensionMismatch {
                    expected: tree.dim(),
                    actual: g.cell_edges().len(),
                });
            }
        }
        let backend = Arc::new(TreeBackend::new(
            Arc::new(tree),
            kernel,
            grid,
            params.opts,
            params.epsilon,
        ));
        // Training diagnostics are not persisted: they load back empty.
        let fit_report = FitReport {
            threshold_bounds,
            threshold,
            bootstrap: Default::default(),
            training_stats: QueryStats::default(),
            threshold_reestimates: 0,
        };
        Ok(Self::from_model(
            Model {
                params,
                threshold,
                coreset_eps,
                backend,
            },
            fit_report,
            Pool::new(),
        ))
    }

    /// Serialized form of the grid cache, if active (model persistence).
    pub fn grid_raw(&self) -> Option<tkdc_index::GridRaw> {
        self.model.backend.grid().map(|g| g.to_raw_parts())
    }

    /// The refined threshold estimate `t̃(p)`.
    pub fn threshold(&self) -> f64 {
        self.model.threshold
    }

    /// The coreset's certified relative density error ε (in units of the
    /// kernel maximum `K(0)`); `0.0` for full-data fits.
    pub fn coreset_eps(&self) -> f64 {
        self.model.coreset_eps
    }

    /// The absolute density error the ε-fold widens certified intervals
    /// by: `coreset_eps · K(0)`. Zero for full-data fits.
    pub fn coreset_eps_abs(&self) -> f64 {
        self.model.coreset_eps_abs()
    }

    /// The parameters the model was trained with.
    pub fn params(&self) -> &Params {
        &self.model.params
    }

    /// The kernel (with its fitted bandwidths).
    pub fn kernel(&self) -> &Kernel {
        self.model.backend.kernel()
    }

    /// The spatial index. Always `Some`: every model is a tree model.
    /// The `Option` is kept so existing callers that `.expect` on it
    /// (the benchmark harness among them) compile unchanged.
    pub fn tree(&self) -> Option<&KdTree> {
        Some(self.kd_tree())
    }

    /// The spatial index (model persistence).
    pub(crate) fn kd_tree(&self) -> &KdTree {
        self.model.backend.tree()
    }

    /// Dimensionality of the training data.
    pub fn dim(&self) -> usize {
        self.kd_tree().dim()
    }

    /// Training diagnostics.
    pub fn fit_report(&self) -> &FitReport {
        &self.fit_report
    }

    /// Point-in-time telemetry of the classifier's persistent pool:
    /// per-worker task/steal/park counters and busy/idle time (see
    /// [`PoolTelemetry`]). Counts the fit's own density passes too;
    /// the worker list is empty until the first phase big enough to
    /// engage the pool.
    pub fn pool_telemetry(&self) -> PoolTelemetry {
        self.pool.telemetry()
    }

    /// Whether the grid cache is active.
    pub fn grid_enabled(&self) -> bool {
        self.model.backend.grid().is_some()
    }

    /// Number of training points.
    pub fn n_train(&self) -> usize {
        self.kd_tree().len()
    }
}

impl Model {
    /// The absolute density error the ε-fold widens certified intervals
    /// by: `coreset_eps · K(0)`. Zero for full-data fits.
    fn coreset_eps_abs(&self) -> f64 {
        self.coreset_eps * self.backend.kernel().max_value()
    }

    fn check_dim(&self, x: &[f64]) -> Result<()> {
        let dim = self.backend.tree().dim();
        if x.len() != dim {
            return Err(Error::DimensionMismatch {
                expected: dim,
                actual: x.len(),
            });
        }
        // A NaN coordinate would propagate through every distance bound
        // and silently classify LOW; surface it as an input error instead.
        if x.iter().any(|v| v.is_nan()) {
            return Err(Error::Numeric("query contains NaN coordinates".into()));
        }
        Ok(())
    }

    /// [`Classifier::classify_with`] — see there for the label contract.
    fn classify_with(&self, x: &[f64], scratch: &mut QueryScratch) -> Result<Label> {
        self.check_dim(x)?;
        let t = self.threshold;
        if self.coreset_eps > 0.0 {
            // ε-folded path: the traversal stops once this three-way
            // label is decided.
            let ea = self.coreset_eps_abs();
            let b = self.backend.bound_density_folded(x, t, ea, scratch);
            return Ok(if b.lower > t {
                Label::High
            } else if b.upper < t {
                Label::Low
            } else {
                Label::Unknown
            });
        }
        // Grid fast path: same-cell mass already proves HIGH.
        if let Some(cell_lower) = self.backend.grid_lower(x) {
            // The probe computes one density lower bound; account for it
            // so merged statistics reflect the true work mix (a
            // grid-pruned query is cheap, not free).
            scratch.stats.bound_evals += 1;
            if cell_lower > t * (1.0 + self.params.epsilon) {
                scratch.stats.record_outcome(PruneCause::Grid);
                if scratch.tracer.is_active() {
                    let stats = scratch.stats;
                    scratch.tracer.finish_grid(t, stats, cell_lower);
                }
                return Ok(Label::High);
            }
        }
        let b = self.bound_density_with(x, scratch)?;
        Ok(if b.midpoint() > t {
            Label::High
        } else {
            Label::Low
        })
    }

    /// [`Classifier::bound_density_with`] — see there for the ε-fold
    /// contract.
    fn bound_density_with(&self, x: &[f64], scratch: &mut QueryScratch) -> Result<DensityBounds> {
        self.check_dim(x)?;
        let ea = self.coreset_eps_abs();
        let t_lo = (self.threshold - ea).max(0.0);
        let t_hi = self.threshold + ea;
        Ok(self
            .backend
            .bound_density(x, t_lo, t_hi, scratch)
            .folded(ea))
    }

    /// [`Classifier::bound_density_relative_with`] — see there.
    fn bound_density_relative_with(
        &self,
        x: &[f64],
        rtol: f64,
        scratch: &mut QueryScratch,
    ) -> Result<DensityBounds> {
        self.check_dim(x)?;
        Ok(self
            .backend
            .bound_density_relative(x, rtol, 0.0, scratch)
            .folded(self.coreset_eps_abs()))
    }

    /// [`Classifier::exact_density`] — see there.
    fn exact_density(&self, x: &[f64]) -> Result<f64> {
        self.check_dim(x)?;
        let mut scratch = QueryScratch::new();
        Ok(self.backend.exact_density(x, &mut scratch))
    }
}

impl Classifier {
    /// Classifies one query point with a caller-provided scratch (the
    /// zero-allocation hot path).
    ///
    /// Full-data models answer [`Label::High`]/[`Label::Low`] by the
    /// paper's midpoint rule. Coreset-backed models (`coreset_eps > 0`)
    /// answer by the ε-folded certified interval instead: `High` only
    /// when `lower > t̃`, `Low` only when `upper < t̃`, and
    /// [`Label::Unknown`] when the widened interval straddles — so a
    /// certified label from a coreset model holds against the *full*
    /// dataset, never flipping a label the full-data model certifies.
    /// That traversal
    /// ([`crate::bound::DensityBounder::bound_density_folded`]) stops
    /// as soon as the three-way label is decided, including a `straddle`
    /// stop once neither HIGH nor LOW is reachable; the label equals the
    /// folded label of [`Self::bound_density_with`] for less work.
    pub fn classify_with(&self, x: &[f64], scratch: &mut QueryScratch) -> Result<Label> {
        self.model.classify_with(x, scratch)
    }

    /// Classifies one query point (allocates a fresh scratch; prefer
    /// [`Self::classify_with`] in loops).
    pub fn classify(&self, x: &[f64]) -> Result<Label> {
        let mut scratch = QueryScratch::new();
        self.model.classify_with(x, &mut scratch)
    }

    /// Density bounds for a query against the fitted threshold
    /// (`t_l = t_u = t̃`), exposing the raw Algorithm 2 output.
    ///
    /// For a coreset-backed model the traversal prunes against the
    /// ε-widened thresholds `[t̃ − ε_abs, t̃ + ε_abs]` and the returned
    /// interval is widened by `ε_abs = coreset_eps·K(0)` on each side
    /// (lower clamped at zero), so it certifies the *full-data* density,
    /// not just the coreset's. Full-data models are unaffected.
    ///
    /// This keeps Algorithm 2's stop even for coreset models, where
    /// [`Self::classify_with`] stops earlier: callers of this method
    /// (`tkdc density`, serve Density frames) want the density interval
    /// itself, which the label-only exits would leave wider.
    pub fn bound_density_with(
        &self,
        x: &[f64],
        scratch: &mut QueryScratch,
    ) -> Result<DensityBounds> {
        self.model.bound_density_with(x, scratch)
    }

    /// Density bounds refined to *relative* precision `rtol`
    /// (`f_u − f_l ≤ rtol·f_l`), independent of the threshold — for
    /// callers that need density *values* (log-likelihood ratios,
    /// p-value-style reporting) rather than a classification. For
    /// coreset-backed models the returned interval is additionally
    /// widened by `±coreset_eps·K(0)` so it certifies the full-data
    /// density.
    pub fn bound_density_relative_with(
        &self,
        x: &[f64],
        rtol: f64,
        scratch: &mut QueryScratch,
    ) -> Result<DensityBounds> {
        self.model.bound_density_relative_with(x, rtol, scratch)
    }

    /// Exact kernel density of a query (exhaustive; test/diagnostic use).
    /// For weighted models this is exact with respect to the *weighted
    /// training set* — the full-data density it approximates still lives
    /// within `±coreset_eps·K(0)` of the returned value.
    ///
    /// # Errors
    /// Fails when `x` has the wrong dimension or a NaN coordinate.
    pub fn exact_density(&self, x: &[f64]) -> Result<f64> {
        self.model.exact_density(x)
    }

    /// Classifies every row of `queries` under the context's execution
    /// policy, returning labels in query order plus the aggregated
    /// traversal statistics. Labels and statistics are identical for
    /// every policy and thread count, and with recording on or off.
    ///
    /// [`ExecPolicy::Parallel`] batches run on the classifier's
    /// persistent work-stealing pool — parked workers wake, drain the
    /// batch, and park again, so repeated batches pay no thread
    /// spawn/join. The pool's job closures must be `'static`, so this
    /// borrowed entry point copies the query matrix once per batch;
    /// callers that own their queries should hand them over with
    /// [`Self::classify_batch_shared`] instead.
    ///
    /// A recording `ctx.obs` receives `classify.*` spans recorded on the
    /// submitting thread — `dispatch` (policy resolution and setup),
    /// `traversal` (the whole execution), `reassembly` (merging worker
    /// outputs) — plus one synthetic `classify.leaf_sum` span per worker
    /// scratch carrying that worker's accumulated leaf kernel-sum time
    /// (each on its own derived track so per-track enter/exit streams
    /// stay well-formed). With [`Spans::sampling`] it also receives one
    /// query record per sampled index (every `every`-th), sorted by
    /// query index and therefore identical at every thread count.
    ///
    /// The paper evaluates single-threaded throughput; the parallel
    /// policy is the "embarrassingly parallel queries" extension
    /// discussed in §6.
    ///
    /// # Errors
    /// Propagates dimension-mismatch and NaN-input errors (the error at
    /// the smallest query index wins, independent of scheduling).
    pub fn classify_batch_with(
        &self,
        queries: &Matrix,
        ctx: impl Into<Ctx>,
    ) -> Result<(Vec<Label>, QueryStats)> {
        self.classify_batch_shared(Arc::new(queries.clone()), ctx)
    }

    /// [`Self::classify_batch_with`] over shared queries: the zero-copy
    /// batch entry point. The `Arc`s of the model and the query matrix
    /// ride into the pool's `'static` job closure, so no per-batch copy
    /// of the queries is made — this is what `tkdc-serve` calls per
    /// request.
    ///
    /// # Errors
    /// Propagates dimension-mismatch and NaN-input errors (the error at
    /// the smallest query index wins, independent of scheduling).
    pub fn classify_batch_shared(
        &self,
        queries: Arc<Matrix>,
        ctx: impl Into<Ctx>,
    ) -> Result<(Vec<Label>, QueryStats)> {
        self.run(queries, &ctx.into(), Model::classify_with)
    }

    /// Density bounds ([`Self::bound_density_with`]) for every row of
    /// `queries` — the batch companion of [`Self::classify_batch_with`]
    /// for callers that need certified bounds rather than labels (same
    /// scheduling, copy and recording contract).
    ///
    /// # Errors
    /// Propagates dimension-mismatch and NaN-input errors.
    pub fn bound_density_batch_with(
        &self,
        queries: &Matrix,
        ctx: impl Into<Ctx>,
    ) -> Result<(Vec<DensityBounds>, QueryStats)> {
        self.bound_density_batch_shared(Arc::new(queries.clone()), ctx)
    }

    /// [`Self::bound_density_batch_with`] over shared queries (the
    /// zero-copy contract of [`Self::classify_batch_shared`]).
    ///
    /// # Errors
    /// Propagates dimension-mismatch and NaN-input errors.
    pub fn bound_density_batch_shared(
        &self,
        queries: Arc<Matrix>,
        ctx: impl Into<Ctx>,
    ) -> Result<(Vec<DensityBounds>, QueryStats)> {
        self.run(queries, &ctx.into(), Model::bound_density_with)
    }

    /// Binds one per-query model operation to a query batch and hands it
    /// to [`drive_batch`] on the classifier's pool.
    fn run<T, Op>(&self, queries: Arc<Matrix>, ctx: &Ctx, op: Op) -> Result<(Vec<T>, QueryStats)>
    where
        T: Send + 'static,
        Op: Fn(&Model, &[f64], &mut QueryScratch) -> Result<T> + Send + Sync + 'static,
    {
        let model = Arc::clone(&self.model);
        drive_batch(&self.pool, queries.rows(), ctx, move |i, scratch| {
            op(&model, queries.row(i), scratch)
        })
    }
}

/// The one batch driver: every parallel phase — the bootstrap rounds,
/// the training-density pass and every classify/density batch — runs
/// `work(i, scratch)` for `i` in `0..total` through here.
///
/// It runs inline on the calling thread for [`ExecPolicy::Serial`], for
/// one thread, or when `total < 2·threads` (wakeups would dwarf the
/// work), and on `pool` otherwise. Results come back in index order and
/// the per-worker [`QueryStats`] merge by summation, so the output is
/// identical for every policy and thread count.
///
/// Recording follows `ctx.obs`: a recording handle gets
/// `classify.{dispatch,traversal,reassembly}` plus one
/// `classify.leaf_sum` span per worker scratch, and with sampling on,
/// every `trace_every`-th query's trace, pushed sorted by query index
/// during reassembly. With recording off the driver reads no clock and
/// leaves [`QueryScratch::time_leaves`] false.
pub(crate) fn drive_batch<T, F>(
    pool: &Pool,
    total: usize,
    ctx: &Ctx,
    work: F,
) -> Result<(Vec<T>, QueryStats)>
where
    T: Send + 'static,
    F: Fn(usize, &mut QueryScratch) -> Result<T> + Send + Sync + 'static,
{
    let spans = &ctx.obs;
    let dispatch_span = spans.enter("classify.dispatch");
    let n_threads = ctx.policy.resolved_threads();
    let time_leaves = spans.is_enabled();
    let trace_every = spans.trace_every();
    let make_scratch = move || {
        let mut s = QueryScratch::new();
        s.time_leaves = time_leaves;
        s.tracer = Tracer::enabled(trace_every);
        s
    };
    let work = move |i: usize, scratch: &mut QueryScratch| {
        if trace_every > 0 {
            scratch.begin_trace(i as u64); // CAST: batch index widens to u64
        }
        work(i, scratch)
    };
    drop(dispatch_span);

    let t0 = spans.now_us();
    let traversal_span = spans.enter("classify.traversal");
    let mut inline = None;
    let (out, mut pooled) = if n_threads == 1 || total < 2 * n_threads {
        let mut scratch = make_scratch();
        let mut out = Vec::with_capacity(total);
        for i in 0..total {
            out.push(work(i, &mut scratch)?);
        }
        inline = Some(scratch);
        (out, Vec::new())
    } else {
        pool.run_batch(total, n_threads, make_scratch, work)?
    };
    drop(traversal_span);

    let _reassembly = spans.enter("classify.reassembly");
    let mut stats = QueryStats::default();
    let mut traces = Vec::new();
    for (k, s) in inline.iter_mut().chain(pooled.iter_mut()).enumerate() {
        stats.merge(&s.stats);
        traces.extend(s.tracer.take_traces());
        if s.leaf_ns > 0 {
            // Anchored at traversal start: the leaf time is an
            // accumulated share of that worker's traversal, not a
            // contiguous interval.
            // CAST: worker index is far below u64.
            let track = leaf_track(tkdc_obs::current_tid(), k as u64);
            spans.record_complete("classify.leaf_sum", track, t0, s.leaf_ns / 1000);
        }
    }
    if !traces.is_empty() {
        traces.sort_by_key(|t| t.query);
        spans.push_queries(traces);
    }
    Ok((out, stats))
}

/// The rest of the weighted fit once its weighted tree is built. Every
/// training row's density corrected by the row's own mass
/// share `f₀ = w_i·K(0)/W` (Eq. 1 generalized to weighted points), at
/// relative precision ε on that corrected density
/// (`f_u − f_l ≤ ε·(f_l − f₀)`) — no bootstrap bounds exist to prune
/// against, and none are needed at coreset scale. `t̃(p)` is the
/// weighted p-quantile of those densities: the smallest density d with
/// Σ{w_i : density_i ≤ d} ≥ p·W, which for unit weights is the
/// rank-⌈np⌉ order statistic. The quantile does not depend on row order
/// (it adds the weights of bit-equal densities in storage order, which
/// can only change rounding), so the pass walks the tree's reordered
/// rows.
fn fit_relative(
    pool: &Pool,
    policy: ExecPolicy,
    params: &Params,
    backend: Arc<TreeBackend>,
    coreset_eps: f64,
) -> Result<(Model, FitReport)> {
    let eps = params.epsilon;
    let k0 = backend.kernel().max_value();
    let n = backend.tree().len();
    let w_total = backend.tree().total_mass();
    let b = Arc::clone(&backend);
    let (mut densities, training_stats) =
        drive_batch(pool, n, &Ctx::from(policy), move |i, scratch| {
            let tree = b.tree();
            let self_i = tree.weights().map_or(1.0, |ws| ws[i]) * k0 / w_total;
            let bd = b.bound_density_relative(tree.point(i), eps, self_i, scratch);
            Ok((bd.midpoint() - self_i).max(0.0))
        })?;
    let threshold = match backend.tree().weights() {
        Some(ws) => weighted_quantile(&densities, ws, params.p)?,
        None => quantile_in_place(&mut densities, params.p)?,
    };

    // ε-folding: the pass certifies the weighted KDE, and the full-data
    // KDE lives within ±coreset_eps·K(0) of it, so the stored bounds
    // widen by that on top of the usual ±ε·t tolerance slack.
    let threshold_bounds = ThresholdBounds {
        lower: threshold * (1.0 - params.epsilon),
        upper: threshold * (1.0 + params.epsilon),
    }
    .folded(coreset_eps * k0);
    let fit_report = FitReport {
        threshold_bounds,
        threshold,
        bootstrap: BootstrapReport::default(),
        training_stats,
        threshold_reestimates: 0,
    };
    let model = Model {
        params: params.clone(),
        threshold,
        coreset_eps,
        backend,
    };
    Ok((model, fit_report))
}

/// Synthetic span track for worker `k`'s leaf-sum share of a batch
/// submitted from track `submitter`: distinct from every real thread
/// track and from other submitters' leaf tracks, so per-track
/// enter/exit streams stay balanced and monotonic even when concurrent
/// requests share one sink.
fn leaf_track(submitter: u64, k: u64) -> u64 {
    submitter
        .saturating_mul(1000)
        .saturating_add(900)
        .saturating_add(k)
}

/// Weighted `p`-quantile: the smallest value `v` in `values` such that
/// the weights of all values `≤ v` sum to at least `p · Σw`. Reduces to
/// the rank-`⌈np⌉` order statistic for unit weights. Ties sort by index
/// (stable), so the result is deterministic for a fixed input.
fn weighted_quantile(values: &[f64], weights: &[f64], p: f64) -> Result<f64> {
    debug_assert_eq!(values.len(), weights.len());
    if values.is_empty() {
        return Err(Error::EmptyInput("weighted quantile values"));
    }
    let mut idx: Vec<usize> = (0..values.len()).collect();
    // IEEE total order: a NaN density sorts last instead of panicking.
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let total: f64 = weights.iter().sum();
    let target = p * total;
    let mut acc = 0.0;
    for &i in &idx {
        acc += weights[i];
        if acc >= target {
            return Ok(values[i]);
        }
    }
    // Accumulated rounding can leave acc a hair under p·Σw at the end;
    // the largest value is then the quantile by construction.
    Ok(values[idx[values.len() - 1]])
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-value asserts are deliberate in tests
mod tests {
    use super::*;
    use crate::params::Optimizations;
    use tkdc_common::Rng;

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

    #[test]
    fn center_high_tail_low() {
        let data = gaussian_blob(3000, 2, 61);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        assert_eq!(clf.classify(&[0.0, 0.0]).unwrap(), Label::High);
        assert_eq!(clf.classify(&[6.0, 6.0]).unwrap(), Label::Low);
        assert!(clf.threshold() > 0.0);
    }

    #[test]
    fn roughly_p_fraction_classified_low() {
        let data = gaussian_blob(4000, 2, 67);
        let p = 0.05;
        let clf = Classifier::fit(&data, &Params::default().with_p(p)).unwrap();
        let (labels, _) = clf.classify_batch_with(&data, ExecPolicy::Serial).unwrap();
        let low = labels.iter().filter(|&&l| l == Label::Low).count();
        let frac = low as f64 / labels.len() as f64;
        assert!(
            (frac - p).abs() < 0.02,
            "expected ≈{p} of points LOW, got {frac}"
        );
    }

    #[test]
    fn agrees_with_exact_densities_outside_band() {
        let data = gaussian_blob(1500, 2, 71);
        let params = Params::default().with_p(0.02);
        let clf = Classifier::fit(&data, &params).unwrap();
        let t = clf.threshold();
        let eps = params.epsilon;
        let mut scratch = QueryScratch::new();
        let mut rng = Rng::seed_from(5);
        let mut checked = 0;
        for _ in 0..300 {
            let q = [rng.normal(0.0, 2.0), rng.normal(0.0, 2.0)];
            let exact = clf.exact_density(&q).unwrap();
            if exact > t * (1.0 + eps) {
                assert_eq!(clf.classify_with(&q, &mut scratch).unwrap(), Label::High);
                checked += 1;
            } else if exact < t * (1.0 - eps) {
                assert_eq!(clf.classify_with(&q, &mut scratch).unwrap(), Label::Low);
                checked += 1;
            }
        }
        assert!(checked > 250, "almost all queries lie outside the ε-band");
    }

    #[test]
    fn grid_only_fires_in_low_dims() {
        let d2 = gaussian_blob(2000, 2, 73);
        let clf2 = Classifier::fit(&d2, &Params::default()).unwrap();
        assert!(clf2.grid_enabled());
        let d6 = gaussian_blob(500, 6, 79);
        let clf6 = Classifier::fit(&d6, &Params::default()).unwrap();
        assert!(!clf6.grid_enabled());
    }

    #[test]
    fn grid_prunes_dense_center_queries() {
        let data = gaussian_blob(5000, 2, 83);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        let mut scratch = QueryScratch::new();
        // Dense center: grid should answer instantly.
        let label = clf.classify_with(&[0.0, 0.0], &mut scratch).unwrap();
        assert_eq!(label, Label::High);
        assert!(
            scratch.stats.grid_prunes >= 1,
            "expected a grid prune: {:?}",
            scratch.stats
        );
    }

    #[test]
    fn optimizations_do_not_change_labels() {
        let data = gaussian_blob(1200, 2, 89);
        let base = Params::default().with_opts(Optimizations::none());
        let full = Params::default();
        let clf_base = Classifier::fit(&data, &base).unwrap();
        let clf_full = Classifier::fit(&data, &full).unwrap();
        let eps = full.epsilon;
        let mut rng = Rng::seed_from(6);
        for _ in 0..150 {
            let q = [rng.normal(0.0, 2.0), rng.normal(0.0, 2.0)];
            let exact = clf_base.exact_density(&q).unwrap();
            let t = clf_full.threshold();
            // Compare only outside both ε-bands (thresholds differ by <ε).
            if (exact - t).abs() > 2.0 * eps * t {
                assert_eq!(
                    clf_base.classify(&q).unwrap(),
                    clf_full.classify(&q).unwrap(),
                    "disagreement at {q:?} (exact {exact}, t {t})"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let data = gaussian_blob(2000, 2, 97);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        let queries = gaussian_blob(500, 2, 101);
        let (serial, s_stats) = clf
            .classify_batch_with(&queries, ExecPolicy::Serial)
            .unwrap();
        for threads in [2, 4, 8] {
            let (parallel, p_stats) = clf
                .classify_batch_with(&queries, ExecPolicy::with_threads(threads))
                .unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
            // Counter merging is order-independent summation, so the
            // totals — not just the query count — must match exactly.
            assert_eq!(s_stats, p_stats, "threads={threads}");
            let (shared, sh_stats) = clf
                .classify_batch_shared(
                    Arc::new(queries.clone()),
                    ExecPolicy::Parallel {
                        threads: Some(threads),
                    },
                )
                .unwrap();
            assert_eq!(serial, shared, "threads={threads}");
            assert_eq!(s_stats, sh_stats, "threads={threads}");
        }
    }

    #[test]
    fn pool_spawns_only_for_parallel_batches() {
        let data = gaussian_blob(1500, 2, 163);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        let queries = gaussian_blob(400, 2, 167);
        // A serial fit, serial and one-thread batches, and batches too
        // small to split never touch the pool.
        clf.classify_batch_with(&queries, ExecPolicy::Serial)
            .unwrap();
        clf.classify_batch_with(&queries, ExecPolicy::with_threads(1))
            .unwrap();
        clf.classify_batch_with(&gaussian_blob(7, 2, 168), ExecPolicy::with_threads(4))
            .unwrap();
        assert_eq!(clf.pool.spawned(), 0, "only Parallel engages the pool");
        // A parallel batch wakes the pool once; repeats reuse it.
        let (first, f_stats) = clf
            .classify_batch_with(&queries, ExecPolicy::with_threads(4))
            .unwrap();
        assert_eq!(clf.pool.spawned(), 3, "4 threads ⇒ submitter + 3 workers");
        for batch in 0..3 {
            let (again, a_stats) = clf
                .classify_batch_with(&queries, ExecPolicy::with_threads(4))
                .unwrap();
            assert_eq!(first, again, "batch={batch}");
            assert_eq!(f_stats, a_stats, "batch={batch}");
        }
        assert_eq!(clf.pool.spawned(), 3, "workers persist across batches");
    }

    #[test]
    fn parallel_fit_hands_its_pool_to_the_classifier() {
        let data = gaussian_blob(1500, 2, 169);
        let clf =
            Classifier::fit_with(&data, &Params::default(), ExecPolicy::with_threads(4)).unwrap();
        // The bootstrap and training passes spawned the workers once...
        assert_eq!(clf.pool.spawned(), 3, "4 threads ⇒ submitter + 3 workers");
        let fit_tasks = clf.pool_telemetry().total().tasks_run;
        assert!(fit_tasks >= data.rows() as u64, "the fit ran on the pool");
        // ...and batches reuse them.
        let queries = gaussian_blob(400, 2, 171);
        clf.classify_batch_with(&queries, ExecPolicy::with_threads(4))
            .unwrap();
        assert_eq!(clf.pool.spawned(), 3, "no second spawn after the fit");
        let tasks = clf.pool_telemetry().total().tasks_run;
        assert_eq!(tasks - fit_tasks, queries.rows() as u64);
    }

    #[test]
    fn shared_entry_points_match_borrowed() {
        let data = gaussian_blob(1500, 2, 173);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        let queries = Arc::new(gaussian_blob(400, 2, 179));
        for policy in [
            ExecPolicy::Serial,
            ExecPolicy::with_threads(4),
            ExecPolicy::parallel(),
        ] {
            let (borrowed, b_stats) = clf.classify_batch_with(&queries, policy).unwrap();
            let (shared, s_stats) = clf.classify_batch_shared(queries.clone(), policy).unwrap();
            assert_eq!(borrowed, shared, "{policy:?}");
            assert_eq!(b_stats, s_stats, "{policy:?}");
            let (borrowed, b_stats) = clf.bound_density_batch_with(&queries, policy).unwrap();
            let (shared, s_stats) = clf
                .bound_density_batch_shared(queries.clone(), policy)
                .unwrap();
            assert_eq!(borrowed.len(), shared.len(), "{policy:?}");
            for (b, s) in borrowed.iter().zip(&shared) {
                assert_eq!(b.lower, s.lower, "{policy:?}");
                assert_eq!(b.upper, s.upper, "{policy:?}");
                assert_eq!(b.cause, s.cause, "{policy:?}");
            }
            assert_eq!(b_stats, s_stats, "{policy:?}");
        }
    }

    #[test]
    fn fit_weighted_unit_weights_classifies_like_full_fit() {
        let data = gaussian_blob(2000, 2, 131);
        let weights = vec![1.0; data.rows()];
        let clf = Classifier::fit_weighted(&data, &weights, 0.0, &Params::default()).unwrap();
        assert_eq!(clf.coreset_eps(), 0.0);
        assert!(!clf.grid_enabled(), "weighted fits never build a grid");
        assert_eq!(clf.classify(&[0.0, 0.0]).unwrap(), Label::High);
        assert_eq!(clf.classify(&[6.0, 6.0]).unwrap(), Label::Low);
        // Same data through the bootstrap path: thresholds agree within
        // the tolerance both estimators carry.
        let full = Classifier::fit(&data, &Params::default()).unwrap();
        let rel = (clf.threshold() - full.threshold()).abs() / full.threshold();
        assert!(rel < 0.05, "weighted vs full threshold drift {rel}");
    }

    #[test]
    fn fit_weighted_rejects_bad_inputs() {
        let data = gaussian_blob(100, 2, 133);
        let p = Params::default();
        assert!(Classifier::fit_weighted(&data, &[1.0; 99], 0.0, &p).is_err());
        assert!(Classifier::fit_weighted(&data, &[1.0; 100], -0.1, &p).is_err());
        assert!(Classifier::fit_weighted(&data, &[1.0; 100], f64::NAN, &p).is_err());
        assert!(Classifier::fit_weighted(&Matrix::with_cols(2), &[], 0.0, &p).is_err());
    }

    #[test]
    fn coreset_eps_folds_into_certified_labels() {
        let data = gaussian_blob(1500, 2, 139);
        let weights = vec![1.0; data.rows()];
        let eps_c = 0.05;
        let clf = Classifier::fit_weighted(&data, &weights, eps_c, &Params::default()).unwrap();
        let ea = clf.coreset_eps_abs();
        assert!(ea > 0.0);
        let t = clf.threshold();
        let mut scratch = QueryScratch::new();
        let mut rng = Rng::seed_from(17);
        let mut unknowns = 0usize;
        for _ in 0..200 {
            let q = [rng.normal(0.0, 2.0), rng.normal(0.0, 2.0)];
            let exact = clf.exact_density(&q).unwrap();
            match clf.classify_with(&q, &mut scratch).unwrap() {
                // Certified labels must hold even after granting the
                // coreset its full ±ε_abs error against the full data.
                Label::High => assert!(
                    exact > t + ea * 0.99,
                    "HIGH certified but exact {exact} ≤ t+ε_abs {}",
                    t + ea
                ),
                Label::Low => assert!(
                    exact < t - ea * 0.99,
                    "LOW certified but exact {exact} ≥ t−ε_abs {}",
                    t - ea
                ),
                Label::Unknown => unknowns += 1,
            }
        }
        assert!(
            unknowns > 0,
            "a 5% ε-fold must leave some queries uncertifiable"
        );
        // The folded interval is honest: bounds widen by ε_abs each side.
        let b = clf.bound_density_with(&[0.0, 0.0], &mut scratch).unwrap();
        let exact = clf.exact_density(&[0.0, 0.0]).unwrap();
        assert!(b.lower <= exact - ea + 1e-12 * ea.max(1.0));
        assert!(b.upper >= exact + ea - 1e-12 * ea.max(1.0));
        // ThresholdBounds carry the fold too (lower clamps at zero when
        // ε_abs dwarfs a small tail threshold).
        let r = clf.fit_report();
        let expected = ThresholdBounds {
            lower: t * (1.0 - clf.params().epsilon),
            upper: t * (1.0 + clf.params().epsilon),
        }
        .folded(ea);
        assert_eq!(r.threshold_bounds, expected);
    }

    #[test]
    fn fit_weighted_thread_invariant() {
        let data = gaussian_blob(1200, 2, 149);
        let mut rng = Rng::seed_from(23);
        let weights: Vec<f64> = (0..data.rows()).map(|_| 1.0 + rng.next_f64()).collect();
        let params = Params::default();
        let serial = Classifier::fit_weighted(&data, &weights, 1e-3, &params).unwrap();
        for threads in [2, 4] {
            let par = Classifier::fit_weighted_with(
                &data,
                &weights,
                1e-3,
                &params,
                ExecPolicy::with_threads(threads),
            )
            .unwrap();
            assert_eq!(serial.threshold(), par.threshold(), "threads={threads}");
            assert_eq!(
                serial.fit_report().training_stats,
                par.fit_report().training_stats,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn weighted_quantile_matches_order_statistic_for_unit_weights() {
        let values = [5.0, 1.0, 3.0, 2.0, 4.0];
        let weights = [1.0; 5];
        for (p, expect) in [(0.0, 1.0), (0.2, 1.0), (0.5, 3.0), (1.0, 5.0)] {
            assert_eq!(weighted_quantile(&values, &weights, p).unwrap(), expect);
        }
        // A heavy weight drags the quantile onto its value.
        assert_eq!(
            weighted_quantile(&[1.0, 10.0], &[1.0, 99.0], 0.5).unwrap(),
            10.0
        );
        assert!(weighted_quantile(&[], &[], 0.5).is_err());
    }

    #[test]
    fn exec_policy_resolves_threads() {
        assert_eq!(ExecPolicy::Serial.resolved_threads(), 1);
        assert_eq!(ExecPolicy::with_threads(4).resolved_threads(), 4);
        assert_eq!(
            ExecPolicy::Parallel { threads: Some(0) }.resolved_threads(),
            1
        );
        assert!(ExecPolicy::parallel().resolved_threads() >= 1);
        assert_eq!(ExecPolicy::default(), ExecPolicy::parallel());
    }

    #[test]
    fn grid_probe_counts_as_bound_eval() {
        let data = gaussian_blob(5000, 2, 83);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        assert!(clf.grid_enabled());
        let mut scratch = QueryScratch::new();
        // Dense center: the grid answers before any traversal, and the
        // probe itself must show up as one bound evaluation so merged
        // statistics don't understate the work mix.
        assert_eq!(
            clf.classify_with(&[0.0, 0.0], &mut scratch).unwrap(),
            Label::High
        );
        assert_eq!(scratch.stats.grid_prunes, 1);
        assert_eq!(scratch.stats.bound_evals, 1);
        assert_eq!(scratch.stats.kernel_evals, 0);
        // A far-tail query misses the grid but still pays the probe.
        scratch.reset_stats();
        assert_eq!(
            clf.classify_with(&[8.0, 8.0], &mut scratch).unwrap(),
            Label::Low
        );
        assert_eq!(scratch.stats.grid_prunes, 0);
        assert!(scratch.stats.bound_evals > 1, "probe + traversal bounds");
    }

    #[test]
    fn fit_with_threads_matches_fit() {
        let data = gaussian_blob(1500, 2, 109);
        let params = Params::default();
        let serial = Classifier::fit(&data, &params).unwrap();
        for threads in [2, 4] {
            let parallel =
                Classifier::fit_with(&data, &params, ExecPolicy::with_threads(threads)).unwrap();
            assert_eq!(
                serial.threshold(),
                parallel.threshold(),
                "threads={threads}"
            );
            assert_eq!(
                serial.fit_report().threshold_bounds.lower,
                parallel.fit_report().threshold_bounds.lower
            );
            assert_eq!(
                serial.fit_report().threshold_bounds.upper,
                parallel.fit_report().threshold_bounds.upper
            );
            assert_eq!(
                serial.fit_report().training_stats,
                parallel.fit_report().training_stats
            );
        }
    }

    #[test]
    fn bound_density_batch_parallel_matches_serial() {
        let data = gaussian_blob(1200, 2, 113);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        let queries = gaussian_blob(300, 2, 127);
        let mut scratch = QueryScratch::new();
        let serial: Vec<_> = queries
            .iter_rows()
            .map(|q| clf.bound_density_with(q, &mut scratch).unwrap())
            .collect();
        let (parallel, stats) = clf
            .bound_density_batch_with(&queries, ExecPolicy::with_threads(4))
            .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.lower, p.lower);
            assert_eq!(s.upper, p.upper);
            assert_eq!(s.cause, p.cause);
        }
        assert_eq!(scratch.stats, stats);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let data = gaussian_blob(300, 2, 103);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        assert!(clf.classify(&[1.0]).is_err());
        assert!(clf.classify(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn nan_query_rejected() {
        let data = gaussian_blob(300, 2, 104);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        assert!(clf.classify(&[f64::NAN, 0.0]).is_err());
        assert!(clf.classify(&[0.0, f64::NAN]).is_err());
        // Infinite coordinates are legitimate far-tail queries.
        assert_eq!(clf.classify(&[f64::INFINITY, 0.0]).unwrap(), Label::Low);
    }

    #[test]
    fn threshold_within_bootstrap_bounds() {
        let data = gaussian_blob(2500, 3, 107);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        let r = clf.fit_report();
        let eps = clf.params().epsilon;
        assert!(r.threshold >= r.threshold_bounds.lower * (1.0 - eps));
        assert!(r.threshold <= r.threshold_bounds.upper * (1.0 + eps));
        assert_eq!(r.threshold, clf.threshold());
    }

    #[test]
    fn empty_training_rejected() {
        let data = Matrix::with_cols(2);
        assert!(Classifier::fit(&data, &Params::default()).is_err());
    }

    #[test]
    fn tree_backend_identity_via_accessors() {
        let data = gaussian_blob(800, 2, 211);
        let clf = Classifier::fit(&data, &Params::default()).unwrap();
        assert_eq!(clf.dim(), 2);
        assert!(clf.tree().is_some());
        assert_eq!(clf.n_train(), 800);
    }
}
