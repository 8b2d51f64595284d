//! Random-Fourier-feature density estimator (Rahimi & Recht).
//!
//! Bochner's theorem writes the Gaussian kernel as an expectation over
//! random cosine features: with `ω ~ N(0, I)` in bandwidth-scaled space
//! and `b ~ U[0, 2π)`,
//!
//! ```text
//! exp(−‖u − v‖²/2) = E[2·cos(ω·u + b)·cos(ω·v + b)]
//! ```
//!
//! so the whole training density collapses to one coefficient per
//! feature — `c_j = (1/W) Σ_i w_i cos(ω_j·x_i + b_j)` — and a query
//! costs exactly `D` cosines regardless of `n`:
//!
//! ```text
//! f̂(x) = norm · mean_j [ 2·cos(ω_j·x + b_j) · c_j ]
//! ```
//!
//! The fitted model is the coefficient vector alone (the features
//! regenerate from the seed), which makes RFF the only backend whose
//! persisted size is independent of the training set. The price is an
//! *additive* error of order `norm/√D`, which is why RFF degrades at
//! sharp bandwidths where tail thresholds sit far below `norm`.
//!
//! The confidence interval is an empirical-Bernstein bound (Maurer &
//! Pontil) over the `D` bounded per-feature terms: the feature values
//! `2·cos(ω_j·x + b_j)·c_j` are i.i.d. in `[−2, 2]` with mean equal to
//! the exact (bandwidth-scaled) density, so their sample variance gives
//! a distribution-free `1 − δ` interval. A group-spread interval was
//! tried first and undercovers badly: one feature bank is shared by
//! every query, so a slightly off-center draw shifts *all* estimates
//! coherently while the between-group spread stays small.

use super::{BoundKind, DensityBackend};
use crate::bound::DensityBounds;
use crate::params::RffParams;
use crate::qstats::{PruneCause, QueryScratch};
use tkdc_common::{Matrix, Rng};
use tkdc_kernel::Kernel;

/// Salt separating the feature-generation RNG stream from every other
/// consumer of the model seed.
const FEATURE_SALT: u64 = 0x5246_465F_4645_4154; // "RFF_FEAT"

/// Random-Fourier-feature backend (Gaussian kernel only).
#[derive(Debug)]
pub struct RffBackend {
    kernel: Kernel,
    delta: f64,
    /// `features × dim` frequency matrix, row-major, with the reciprocal
    /// bandwidths folded in (so features evaluate on raw coordinates).
    omega: Vec<f64>,
    /// Per-feature phases in `[0, 2π)`.
    phase: Vec<f64>,
    /// Per-feature training coefficients `c_j`.
    coef: Vec<f64>,
    /// Training-set size (for `n_train`; the points themselves are gone).
    n: usize,
    /// Total training mass `W` (needed only for persistence round-trips).
    total_mass: f64,
}

impl RffBackend {
    /// Draws the feature bank for `(seed, params, kernel.dim())`. Shared
    /// by fitting and loading so a persisted coefficient vector always
    /// re-pairs with the features that produced it.
    fn features(kernel: &Kernel, params: RffParams, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let dim = kernel.dim();
        let mut rng = Rng::seed_from(seed ^ FEATURE_SALT);
        let mut omega = Vec::with_capacity(params.features * dim);
        let mut phase = Vec::with_capacity(params.features);
        for _ in 0..params.features {
            for &ih in kernel.inv_bandwidths() {
                omega.push(rng.standard_normal() * ih);
            }
            phase.push(rng.uniform(0.0, 2.0 * std::f64::consts::PI));
        }
        (omega, phase)
    }

    /// Fits the coefficient vector over the training points.
    pub(crate) fn build(
        points: &Matrix,
        weights: Option<&[f64]>,
        kernel: Kernel,
        delta: f64,
        params: RffParams,
        seed: u64,
    ) -> Self {
        let n = points.rows();
        let dim = kernel.dim();
        let (omega, phase) = Self::features(&kernel, params, seed);
        let total_mass = weights.map(|ws| ws.iter().sum()).unwrap_or(n as f64);
        let mut coef = vec![0.0; params.features];
        for i in 0..n {
            let x = points.row(i);
            let w = weights.map(|ws| ws[i]).unwrap_or(1.0);
            for (j, c) in coef.iter_mut().enumerate() {
                let row = &omega[j * dim..(j + 1) * dim];
                let mut dot = phase[j];
                for (a, &v) in row.iter().zip(x) {
                    dot += a * v;
                }
                *c += w * dot.cos();
            }
        }
        for c in &mut coef {
            *c /= total_mass;
        }
        Self {
            kernel,
            delta,
            omega,
            phase,
            coef,
            n,
            total_mass,
        }
    }

    /// Reassembles a persisted backend: coefficients from disk, features
    /// regenerated from the seed.
    pub(crate) fn from_parts(
        kernel: Kernel,
        delta: f64,
        params: RffParams,
        seed: u64,
        coef: Vec<f64>,
        n: usize,
        total_mass: f64,
    ) -> Self {
        let (omega, phase) = Self::features(&kernel, params, seed);
        Self {
            kernel,
            delta,
            omega,
            phase,
            coef,
            n,
            total_mass,
        }
    }

    /// The fixed-budget estimate with its `1 − δ` confidence interval.
    fn estimate(&self, x: &[f64], scratch: &mut QueryScratch) -> DensityBounds {
        let dim = self.kernel.dim();
        let norm = self.kernel.max_value();
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for (j, &c) in self.coef.iter().enumerate() {
            let row = &self.omega[j * dim..(j + 1) * dim];
            let mut dot = self.phase[j];
            for (a, &v) in row.iter().zip(x) {
                dot += a * v;
            }
            let z = 2.0 * dot.cos() * c;
            sum += z;
            sum_sq += z * z;
        }
        scratch.stats.kernel_evals += self.coef.len() as u64; // CAST: feature count fits u64
        scratch.stats.bound_evals += 1;
        // Empirical-Bernstein interval (Maurer & Pontil, Theorem 4) on
        // the mean of `D` i.i.d. terms bounded in [−2, 2] (range R = 4):
        // |mean − μ| ≤ √(2·V̂·ln(2/δ)/D) + 7·R·ln(2/δ)/(3(D − 1)) with
        // probability ≥ 1 − δ, where μ is the exact scaled density.
        let d_f = self.coef.len() as f64;
        let mean_z = sum / d_f;
        // INVARIANT: params validation enforces features ≥ 16, so the
        // D − 1 divisors below are positive.
        let var = (sum_sq - sum * sum / d_f).max(0.0) / (d_f - 1.0);
        let ln_term = (2.0 / self.delta).ln();
        let half_z = (2.0 * var * ln_term / d_f).sqrt() + 7.0 * 4.0 * ln_term / (3.0 * (d_f - 1.0));
        let mean = norm * mean_z;
        let half = norm * half_z;
        scratch.stats.record_outcome(PruneCause::Estimated);
        let (lower, upper) = (mean - half, mean + half);
        if scratch.tracer.is_active() {
            let stats = scratch.stats;
            scratch
                .tracer
                .finish(PruneCause::Estimated.as_str(), stats, lower, upper);
        }
        DensityBounds {
            lower,
            upper,
            cause: PruneCause::Estimated,
        }
    }

    /// The fitted coefficient vector (persistence).
    pub(crate) fn coef(&self) -> &[f64] {
        &self.coef
    }

    /// Total training mass (persistence).
    pub(crate) fn total_mass(&self) -> f64 {
        self.total_mass
    }
}

impl DensityBackend for RffBackend {
    fn name(&self) -> &'static str {
        "rff"
    }

    fn bound_kind(&self) -> BoundKind {
        BoundKind::Probabilistic { delta: self.delta }
    }

    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn n_train(&self) -> usize {
        self.n
    }

    fn bound_density(
        &self,
        x: &[f64],
        _t_lo: f64,
        _t_hi: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        self.estimate(x, scratch)
    }

    fn bound_density_relative(
        &self,
        x: &[f64],
        _rtol: f64,
        _f0: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds {
        self.estimate(x, scratch)
    }

    fn exact_density(&self, _x: &[f64], _scratch: &mut QueryScratch) -> Option<f64> {
        // The training points are not retained; only the sketch exists.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(n: usize, d: usize, seed: u64) -> Matrix {
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

    fn naive_density(data: &Matrix, kernel: &Kernel, q: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..data.rows() {
            acc += kernel.eval_pair(q, data.row(i));
        }
        acc / data.rows() as f64
    }

    #[test]
    fn estimate_tracks_exact_density() {
        let data = blob(1500, 2, 41);
        let h = tkdc_kernel::scotts_rule(&data, 1.0).unwrap();
        let kernel = Kernel::gaussian(h).unwrap();
        let b = RffBackend::build(&data, None, kernel.clone(), 0.01, RffParams::default(), 41);
        let queries = blob(50, 2, 43);
        let mut scratch = QueryScratch::new();
        let mut covered = 0usize;
        let mut abs_err = 0.0f64;
        let norm = kernel.max_value();
        for i in 0..queries.rows() {
            let q = queries.row(i);
            let exact = naive_density(&data, &kernel, q);
            let est = b.bound_density(q, 0.0, 0.0, &mut scratch);
            if est.lower <= exact && exact <= est.upper {
                covered += 1;
            }
            abs_err += (est.midpoint() - exact).abs();
        }
        let coverage = covered as f64 / queries.rows() as f64;
        assert!(coverage > 0.85, "coverage {coverage}");
        // Additive error should be far below norm/√D's worst case.
        let mean_abs = abs_err / queries.rows() as f64;
        assert!(
            mean_abs < norm / (RffParams::default().features as f64).sqrt(),
            "mean |err| {mean_abs}"
        );
        assert_eq!(scratch.stats.estimated as usize, queries.rows());
    }

    #[test]
    fn persistence_round_trip_is_bit_identical() {
        let data = blob(400, 3, 47);
        let h = tkdc_kernel::scotts_rule(&data, 1.0).unwrap();
        let kernel = Kernel::gaussian(h).unwrap();
        let params = RffParams { features: 256 };
        let b = RffBackend::build(&data, None, kernel.clone(), 0.05, params, 47);
        let r = RffBackend::from_parts(
            kernel,
            0.05,
            params,
            47,
            b.coef().to_vec(),
            b.n_train(),
            b.total_mass(),
        );
        let q = [0.1, -0.4, 0.9];
        let mut s1 = QueryScratch::new();
        let mut s2 = QueryScratch::new();
        let e1 = b.bound_density(&q, 0.0, 0.0, &mut s1);
        let e2 = r.bound_density(&q, 0.0, 0.0, &mut s2);
        assert_eq!(e1.lower.to_bits(), e2.lower.to_bits());
        assert_eq!(e1.upper.to_bits(), e2.upper.to_bits());
        assert!(r.exact_density(&q, &mut s2).is_none());
    }

    #[test]
    fn weighted_coefficients_match_duplication() {
        let mut dup = Matrix::with_cols(2);
        let mut wtd = Matrix::with_cols(2);
        let mut rng = Rng::seed_from(53);
        let mut weights = Vec::new();
        for _ in 0..200 {
            let p = [rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)];
            let w = 1 + (rng.next_below(3) as usize);
            for _ in 0..w {
                dup.push_row(&p).unwrap();
            }
            wtd.push_row(&p).unwrap();
            weights.push(w as f64);
        }
        let h = tkdc_kernel::scotts_rule(&dup, 1.0).unwrap();
        let kernel = Kernel::gaussian(h).unwrap();
        let params = RffParams { features: 128 };
        let bd = RffBackend::build(&dup, None, kernel.clone(), 0.01, params, 59);
        let bw = RffBackend::build(&wtd, Some(&weights), kernel, 0.01, params, 59);
        for (a, b) in bd.coef().iter().zip(bw.coef()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
