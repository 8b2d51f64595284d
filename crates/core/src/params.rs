//! Task parameters (paper Table 1) and optimization toggles.

use tkdc_common::error::{invalid_param, Result};
use tkdc_index::SplitRule;
use tkdc_kernel::KernelKind;

/// Toggles for tKDC's individual optimizations, supporting the paper's
/// cumulative factor analysis (Fig. 12) and lesion analysis (Fig. 16).
///
/// With everything disabled, the traversal still uses the k-d tree but
/// exhausts it (equivalent to an exact tree-based KDE); with only
/// `tolerance_rule` enabled it matches the Gray & Moore / scikit-learn
/// approximation ("nocut"); with everything enabled it is full tKDC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Optimizations {
    /// The threshold pruning rules (Eq. 9) — the core contribution.
    pub threshold_rule: bool,
    /// The tolerance pruning rule (Eq. 8) from prior work.
    pub tolerance_rule: bool,
    /// Trimmed-midpoint ("equi-width") k-d tree splits (§3.7) instead of
    /// median splits.
    pub equiwidth_split: bool,
    /// The bandwidth hypergrid inlier cache (§3.7); auto-disabled when
    /// `d > 4` regardless of this flag, matching the paper.
    pub grid: bool,
}

impl Optimizations {
    /// Full tKDC (the default).
    pub fn all() -> Self {
        Self {
            threshold_rule: true,
            tolerance_rule: true,
            equiwidth_split: true,
            grid: true,
        }
    }

    /// Everything off: exhaustive tree traversal (the Fig. 12 baseline).
    pub fn none() -> Self {
        Self {
            threshold_rule: false,
            tolerance_rule: false,
            equiwidth_split: false,
            grid: false,
        }
    }

    /// The split rule implied by the `equiwidth_split` toggle.
    pub fn split_rule(&self) -> SplitRule {
        if self.equiwidth_split {
            SplitRule::TrimmedMidpoint
        } else {
            SplitRule::Median
        }
    }
}

impl Default for Optimizations {
    fn default() -> Self {
        Self::all()
    }
}

/// Constants steering the threshold bootstrap (Algorithm 3). The paper
/// reports `r0 = 200`, `s0 = 20000`, `h_growth = 4`, `h_backoff = 4`,
/// `h_buffer = 1.5` as well-performing defaults; none affect correctness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapParams {
    /// Initial training-subset size.
    pub r0: usize,
    /// Number of query points sampled per bootstrap round.
    pub s0: usize,
    /// Multiplicative growth of the training subset per round.
    pub growth: f64,
    /// Multiplicative relaxation applied to an invalidated bound.
    pub backoff: f64,
    /// Safety margin applied to valid bounds before the next round.
    pub buffer: f64,
    /// Cap on consecutive backoff retries within one round.
    pub max_retries: usize,
}

impl Default for BootstrapParams {
    fn default() -> Self {
        Self {
            r0: 200,
            s0: 20_000,
            growth: 4.0,
            backoff: 4.0,
            buffer: 1.5,
            max_retries: 64,
        }
    }
}

impl BootstrapParams {
    /// Builder-style setter for the initial training-subset size `r0`.
    #[must_use]
    pub fn with_r0(mut self, r0: usize) -> Self {
        self.r0 = r0;
        self
    }

    /// Builder-style setter for the per-round query-sample size `s0`.
    #[must_use]
    pub fn with_s0(mut self, s0: usize) -> Self {
        self.s0 = s0;
        self
    }

    /// Builder-style setter for the subset growth factor.
    #[must_use]
    pub fn with_growth(mut self, growth: f64) -> Self {
        self.growth = growth;
        self
    }

    /// Builder-style setter for the invalid-bound backoff factor.
    #[must_use]
    pub fn with_backoff(mut self, backoff: f64) -> Self {
        self.backoff = backoff;
        self
    }

    /// Builder-style setter for the valid-bound safety buffer.
    #[must_use]
    pub fn with_buffer(mut self, buffer: f64) -> Self {
        self.buffer = buffer;
        self
    }

    /// Builder-style setter for the per-round retry cap.
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.r0 == 0 {
            return Err(invalid_param("bootstrap.r0", "must be positive"));
        }
        if self.s0 == 0 {
            return Err(invalid_param("bootstrap.s0", "must be positive"));
        }
        if !self.growth.is_finite() || self.growth <= 1.0 {
            return Err(invalid_param("bootstrap.growth", "must exceed 1"));
        }
        if !self.backoff.is_finite() || self.backoff <= 1.0 {
            return Err(invalid_param("bootstrap.backoff", "must exceed 1"));
        }
        if !self.buffer.is_finite() || self.buffer < 1.0 {
            return Err(invalid_param("bootstrap.buffer", "must be at least 1"));
        }
        Ok(())
    }
}

/// Density classification task parameters (paper Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Classification rate: the fraction of training data expected to fall
    /// below the threshold `t(p)`. Default 0.01.
    pub p: f64,
    /// Multiplicative error tolerance ε around the threshold. Default 0.01.
    pub epsilon: f64,
    /// Acceptable failure probability δ of the threshold bootstrap.
    /// Default 0.01.
    pub delta: f64,
    /// Bandwidth scale factor `b` applied on top of Scott's rule.
    /// Default 1.
    pub bandwidth_factor: f64,
    /// Kernel family; the paper uses Gaussian throughout.
    pub kernel: KernelKind,
    /// k-d tree leaf capacity.
    pub leaf_size: usize,
    /// Optimization toggles.
    pub opts: Optimizations,
    /// Bootstrap constants.
    pub bootstrap: BootstrapParams,
    /// Seed for the bootstrap's sampling.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            p: 0.01,
            epsilon: 0.01,
            delta: 0.01,
            bandwidth_factor: 1.0,
            kernel: KernelKind::Gaussian,
            leaf_size: 32,
            opts: Optimizations::all(),
            bootstrap: BootstrapParams::default(),
            seed: 0xF1D0,
        }
    }
}

impl Params {
    /// Validates every field's domain.
    pub fn validate(&self) -> Result<()> {
        if !self.p.is_finite() || self.p <= 0.0 || self.p >= 1.0 {
            return Err(invalid_param(
                "p",
                format!("must be in (0,1), got {}", self.p),
            ));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 || self.epsilon >= 1.0 {
            return Err(invalid_param(
                "epsilon",
                format!("must be in (0,1), got {}", self.epsilon),
            ));
        }
        if !self.delta.is_finite() || self.delta <= 0.0 || self.delta >= 1.0 {
            return Err(invalid_param(
                "delta",
                format!("must be in (0,1), got {}", self.delta),
            ));
        }
        if !self.bandwidth_factor.is_finite() || self.bandwidth_factor <= 0.0 {
            return Err(invalid_param(
                "bandwidth_factor",
                format!("must be positive, got {}", self.bandwidth_factor),
            ));
        }
        if self.leaf_size == 0 {
            return Err(invalid_param("leaf_size", "must be positive"));
        }
        self.bootstrap.validate()
    }

    /// Builder-style setter for `p`.
    #[must_use]
    pub fn with_p(mut self, p: f64) -> Self {
        self.p = p;
        self
    }

    /// Builder-style setter for ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Builder-style setter for δ.
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Builder-style setter for the bandwidth scale factor `b`.
    #[must_use]
    pub fn with_bandwidth_factor(mut self, b: f64) -> Self {
        self.bandwidth_factor = b;
        self
    }

    /// Builder-style setter for the kernel family.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder-style setter for the k-d tree leaf capacity.
    #[must_use]
    pub fn with_leaf_size(mut self, leaf_size: usize) -> Self {
        self.leaf_size = leaf_size;
        self
    }

    /// Builder-style setter for the optimization toggles.
    #[must_use]
    pub fn with_opts(mut self, opts: Optimizations) -> Self {
        self.opts = opts;
        self
    }

    /// Builder-style setter for the bootstrap constants.
    #[must_use]
    pub fn with_bootstrap(mut self, bootstrap: BootstrapParams) -> Self {
        self.bootstrap = bootstrap;
        self
    }

    /// Builder-style setter for the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-value asserts are deliberate in tests
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let p = Params::default();
        assert_eq!(p.p, 0.01);
        assert_eq!(p.epsilon, 0.01);
        assert_eq!(p.delta, 0.01);
        assert_eq!(p.bandwidth_factor, 1.0);
        assert_eq!(p.kernel, KernelKind::Gaussian);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn bootstrap_defaults_match_paper() {
        let b = BootstrapParams::default();
        assert_eq!(b.r0, 200);
        assert_eq!(b.s0, 20_000);
        assert_eq!(b.growth, 4.0);
        assert_eq!(b.backoff, 4.0);
        assert_eq!(b.buffer, 1.5);
    }

    #[test]
    fn validation_rejects_bad_domains() {
        assert!(Params::default().with_p(0.0).validate().is_err());
        assert!(Params::default().with_p(1.0).validate().is_err());
        assert!(Params::default().with_epsilon(0.0).validate().is_err());
        assert!(Params::default()
            .with_bandwidth_factor(-1.0)
            .validate()
            .is_err());
        let p = Params {
            delta: 2.0,
            ..Params::default()
        };
        assert!(p.validate().is_err());
        let p = Params {
            leaf_size: 0,
            ..Params::default()
        };
        assert!(p.validate().is_err());
        let mut p = Params::default();
        p.bootstrap.growth = 1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn optimization_presets() {
        assert_eq!(Optimizations::default(), Optimizations::all());
        let none = Optimizations::none();
        assert!(!none.threshold_rule && !none.grid);
        assert_eq!(
            Optimizations::all().split_rule(),
            SplitRule::TrimmedMidpoint
        );
        assert_eq!(Optimizations::none().split_rule(), SplitRule::Median);
    }

    #[test]
    fn builders_chain() {
        let p = Params::default()
            .with_p(0.05)
            .with_epsilon(0.1)
            .with_delta(0.02)
            .with_bandwidth_factor(2.0)
            .with_kernel(KernelKind::Epanechnikov)
            .with_leaf_size(64)
            .with_seed(9)
            .with_opts(Optimizations::none())
            .with_bootstrap(
                BootstrapParams::default()
                    .with_r0(100)
                    .with_s0(5000)
                    .with_growth(3.0)
                    .with_backoff(2.0)
                    .with_buffer(1.25)
                    .with_max_retries(16),
            );
        assert_eq!(p.p, 0.05);
        assert_eq!(p.epsilon, 0.1);
        assert_eq!(p.delta, 0.02);
        assert_eq!(p.bandwidth_factor, 2.0);
        assert_eq!(p.kernel, KernelKind::Epanechnikov);
        assert_eq!(p.leaf_size, 64);
        assert_eq!(p.seed, 9);
        assert_eq!(p.opts, Optimizations::none());
        assert_eq!(p.bootstrap.r0, 100);
        assert_eq!(p.bootstrap.s0, 5000);
        assert_eq!(p.bootstrap.growth, 3.0);
        assert_eq!(p.bootstrap.backoff, 2.0);
        assert_eq!(p.bootstrap.buffer, 1.25);
        assert_eq!(p.bootstrap.max_retries, 16);
        assert!(p.validate().is_ok());
    }
}
