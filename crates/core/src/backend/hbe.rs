//! Hashing-based density estimator (Charikar & Siminelakis,
//! "Hashing-Based-Estimators for Kernel Density in High Dimensions").
//!
//! Each of `T` independent hash tables projects the (bandwidth-scaled)
//! data through `k` concatenated random projections with bucket width
//! `w` (the classic E2LSH family). A query hashes to one bucket per
//! table; points collide with the query with probability `p(c) =
//! p₁(c)^k`, a known, strictly decreasing function of their scaled
//! distance `c`. Sampling colliders and reweighting by `1/p(c)` gives
//! an unbiased per-table estimate of the kernel density:
//!
//! ```text
//! Z_t = mass(B_t)/W · 1/m · Σ_{X ~ B_t} K(q, X) / p(q, X)
//! ```
//!
//! because near points (large kernel value) collide — and are therefore
//! sampled — with higher probability, the importance weights stay
//! bounded where uniform sampling's would explode. The `T` table
//! estimates form a confidence interval; the backend advertises
//! [`BoundKind::Probabilistic`] with the classifier's `δ`.
//!
//! Determinism: table projections derive from the model seed alone,
//! and the per-query sampling RNG is seeded from the query's coordinate
//! bits ([`super::query_seed`]), so estimates are schedule-invariant.

use super::{ci_multiplier, query_seed, BoundKind, DensityBackend};
use crate::bound::DensityBounds;
use crate::params::HbeParams;
use crate::qstats::{PruneCause, QueryScratch};
use tkdc_common::special::normal_cdf;
use tkdc_common::{Matrix, Rng};
use tkdc_kernel::Kernel;

/// Salt separating the table-generation RNG stream from every other
/// consumer of the model seed.
const TABLE_SALT: u64 = 0x4842_455F_5441_424C; // "HBE_TABL"

/// One E2LSH hash table: `k` projections plus the bucketed point index
/// in CSR form (sorted bucket keys, per-bucket member lists, per-member
/// cumulative masses for weight-proportional sampling).
#[derive(Debug)]
struct Table {
    /// `hashes × dim` projection matrix, row-major, with the reciprocal
    /// bandwidths folded in (so hashing works on raw coordinates).
    proj: Vec<f64>,
    /// Per-hash offsets, uniform in `[0, w)`.
    offs: Vec<f64>,
    /// Sorted bucket keys.
    keys: Vec<u64>,
    /// CSR starts into `members`/`cum_mass` (`keys.len() + 1` entries).
    starts: Vec<u32>,
    /// Point indices grouped by bucket.
    members: Vec<u32>,
    /// Cumulative point masses *within* each bucket (weight-proportional
    /// sampling by binary search; the last entry of a bucket's range is
    /// the bucket's total mass).
    cum_mass: Vec<f64>,
}

impl Table {
    /// Hash a point into this table's bucket key. The mixing constants
    /// make key collisions across distinct hash vectors negligible.
    fn key(&self, x: &[f64], hashes: usize, dim: usize, inv_w: f64) -> u64 {
        let mut key = 0xCBF2_9CE4_8422_2325u64;
        for j in 0..hashes {
            let row = &self.proj[j * dim..(j + 1) * dim];
            let mut dot = self.offs[j];
            for (a, &v) in row.iter().zip(x) {
                dot += a * v;
            }
            // Non-finite projections saturate, which still yields a
            // deterministic (just never-matching) key.
            // CAST: floor of a finite projection fits i64 far before f64 loses integer precision
            let cell = (dot * inv_w).floor() as i64;
            key ^= cell as u64; // CAST: bit-reinterpretation of the cell index is intentional
            key = key.wrapping_mul(0x1000_0000_01B3);
            // CAST: hash row index fits u64
            key = key.rotate_left(29) ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        key
    }

    /// The bucket range for `key`, if the bucket is populated.
    fn bucket(&self, key: u64) -> Option<(usize, usize)> {
        let i = self.keys.binary_search(&key).ok()?;
        // CAST: u32 start offsets widen to usize losslessly
        Some((self.starts[i] as usize, self.starts[i + 1] as usize))
    }
}

/// Hashing-based estimator backend.
#[derive(Debug)]
pub struct HbeBackend {
    kernel: Kernel,
    delta: f64,
    params: HbeParams,
    seed: u64,
    /// Training points (the estimator needs raw point access to sample
    /// kernel values).
    points: Matrix,
    /// Per-point masses for weighted (coreset) fits; `None` = unit.
    weights: Option<Vec<f64>>,
    total_mass: f64,
    tables: Vec<Table>,
}

impl HbeBackend {
    /// Builds the hash tables over the training points. Deterministic
    /// for a fixed `(seed, params, data)` triple: projections come from
    /// a salted seeded RNG and buckets are assembled by stable sort.
    pub(crate) fn build(
        points: Matrix,
        weights: Option<Vec<f64>>,
        kernel: Kernel,
        delta: f64,
        params: HbeParams,
        seed: u64,
    ) -> Self {
        let n = points.rows();
        let dim = kernel.dim();
        let w = params.bucket_width;
        let inv_h = kernel.inv_bandwidths();
        let total_mass = weights
            .as_ref()
            .map(|ws| ws.iter().sum())
            .unwrap_or(n as f64);
        let mut rng = Rng::seed_from(seed ^ TABLE_SALT);
        let mut tables = Vec::with_capacity(params.tables);
        for _ in 0..params.tables {
            let mut proj = Vec::with_capacity(params.hashes * dim);
            let mut offs = Vec::with_capacity(params.hashes);
            for _ in 0..params.hashes {
                for &ih in inv_h {
                    // Standard normal in *scaled* space; folding 1/h_i in
                    // here lets both build and query hash raw coordinates.
                    proj.push(rng.standard_normal() * ih);
                }
                offs.push(rng.uniform(0.0, w));
            }
            let mut t = Table {
                proj,
                offs,
                keys: Vec::new(),
                starts: Vec::new(),
                members: Vec::new(),
                cum_mass: Vec::new(),
            };
            // Bucket every point: key each row, stable-sort by key (ties
            // keep index order — deterministic), then freeze into CSR.
            let mut keyed: Vec<(u64, u32)> = (0..n)
                .map(|i| {
                    (
                        t.key(points.row(i), params.hashes, dim, 1.0 / w),
                        i as u32, // CAST: point count fits u32 (tree arena uses u32 ids)
                    )
                })
                .collect();
            keyed.sort_by_key(|&(k, _)| k);
            let mut acc = 0.0;
            let mut prev_key = None;
            for (pos, &(key, idx)) in keyed.iter().enumerate() {
                if prev_key != Some(key) {
                    t.keys.push(key);
                    t.starts.push(pos as u32); // CAST: member count fits u32
                    acc = 0.0;
                }
                prev_key = Some(key);
                // CAST: u32 point index widens to usize losslessly
                acc += weights.as_ref().map(|ws| ws[idx as usize]).unwrap_or(1.0);
                t.members.push(idx);
                t.cum_mass.push(acc);
            }
            t.starts.push(keyed.len() as u32); // CAST: member count fits u32
            tables.push(t);
        }
        Self {
            kernel,
            delta,
            params,
            seed,
            points,
            weights,
            total_mass,
            tables,
        }
    }

    /// Collision probability of one projection hash for scaled distance
    /// `c` (Datar et al.'s `p₁` for the Gaussian LSH family):
    /// `p₁(c) = 1 − 2Φ(−w/c) − (2/(√(2π)·(w/c)))·(1 − e^{−(w/c)²/2})`.
    fn p1(&self, c: f64) -> f64 {
        if c <= 0.0 {
            return 1.0;
        }
        let t = self.params.bucket_width / c;
        let p = 1.0
            - 2.0 * normal_cdf(-t)
            - (2.0 / ((2.0 * std::f64::consts::PI).sqrt() * t)) * (1.0 - (-t * t / 2.0).exp());
        // Guard the far tail against rounding below zero.
        p.max(f64::MIN_POSITIVE)
    }

    /// Collision probability of the `k`-fold concatenated hash.
    fn collision_prob(&self, c: f64) -> f64 {
        self.p1(c).powi(self.params.hashes as i32) // CAST: hashes ≤ 16 fits i32
    }

    /// The fixed-budget density estimate with its `1 − δ` confidence
    /// interval. Thresholds are ignored — there is no adaptive stopping.
    fn estimate(&self, x: &[f64], scratch: &mut QueryScratch) -> DensityBounds {
        let dim = self.kernel.dim();
        let w = self.params.bucket_width;
        let m = self.params.samples;
        let n_tables = self.tables.len();
        let mut rng = Rng::seed_from(query_seed(self.seed, x));
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for t in &self.tables {
            scratch.stats.bound_evals += 1;
            let key = t.key(x, self.params.hashes, dim, 1.0 / w);
            let z_t = match t.bucket(key) {
                None => 0.0,
                Some((start, end)) => {
                    let cum = &t.cum_mass[start..end];
                    let bucket_mass = cum[cum.len() - 1];
                    let mut acc = 0.0;
                    for _ in 0..m {
                        // Weight-proportional draw from the bucket.
                        let u = rng.next_f64() * bucket_mass;
                        let j = cum.partition_point(|&c| c <= u).min(cum.len() - 1);
                        // CAST: u32 point index widens to usize losslessly
                        let p = self.points.row(t.members[start + j] as usize);
                        let c2 = self.kernel.scaled_sq_dist(x, p);
                        scratch.stats.kernel_evals += 1;
                        acc += self.kernel.eval_scaled_sq(c2) / self.collision_prob(c2.sqrt());
                    }
                    bucket_mass / self.total_mass * acc / m as f64
                }
            };
            sum += z_t;
            sum_sq += z_t * z_t;
        }
        let mean = sum / n_tables as f64;
        let var = (sum_sq - sum * sum / n_tables as f64).max(0.0) / (n_tables - 1) as f64;
        let half = ci_multiplier(self.delta, n_tables) * (var / n_tables as f64).sqrt();
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
}

impl DensityBackend for HbeBackend {
    fn name(&self) -> &'static str {
        "hbe"
    }

    fn bound_kind(&self) -> BoundKind {
        BoundKind::Probabilistic { delta: self.delta }
    }

    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn n_train(&self) -> usize {
        self.points.rows()
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

    fn exact_density(&self, x: &[f64], scratch: &mut QueryScratch) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.points.rows() {
            let k = self.kernel.eval_pair(x, self.points.row(i));
            acc += self.weights.as_ref().map(|ws| ws[i]).unwrap_or(1.0) * k;
        }
        scratch.stats.kernel_evals += self.points.rows() as u64; // CAST: row count fits u64
        acc / self.total_mass
    }
}

impl HbeBackend {
    /// Training points (persistence).
    pub(crate) fn points(&self) -> &Matrix {
        &self.points
    }

    /// Point masses, when fitted weighted (persistence).
    pub(crate) fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
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

    fn build_default(n: usize, d: usize, seed: u64) -> HbeBackend {
        let data = blob(n, d, seed);
        let h = tkdc_kernel::scotts_rule(&data, 1.0).unwrap();
        let kernel = Kernel::gaussian(h).unwrap();
        HbeBackend::build(data, None, kernel, 0.01, HbeParams::default(), seed)
    }

    #[test]
    fn collision_prob_decreases_with_distance() {
        let b = build_default(200, 2, 11);
        let mut prev = b.collision_prob(0.0);
        assert!((prev - 1.0).abs() < 1e-12);
        for i in 1..40 {
            let p = b.collision_prob(i as f64 * 0.5);
            assert!(p > 0.0 && p <= prev, "not monotone at c={}", i as f64 * 0.5);
            prev = p;
        }
    }

    #[test]
    fn estimates_are_deterministic_per_query() {
        let b = build_default(500, 4, 13);
        let q = [0.3, -0.2, 0.1, 0.4];
        let mut s1 = QueryScratch::new();
        let mut s2 = QueryScratch::new();
        let e1 = b.bound_density(&q, 0.0, f64::INFINITY, &mut s1);
        let e2 = b.bound_density(&q, 1.0, 2.0, &mut s2);
        // Thresholds are ignored; the estimate is a pure function of the
        // query and the fitted state.
        assert_eq!(e1.lower.to_bits(), e2.lower.to_bits());
        assert_eq!(e1.upper.to_bits(), e2.upper.to_bits());
        assert_eq!(e1.cause, PruneCause::Estimated);
        assert_eq!(s1.stats, s2.stats);
        assert_eq!(s1.stats.estimated, 1);
        assert_eq!(s1.stats.queries, 1);
    }

    #[test]
    fn estimate_tracks_exact_density() {
        // In-distribution queries: the estimate must land near the exact
        // density, and the advertised interval must usually cover it.
        let b = build_default(2000, 2, 17);
        let queries = blob(60, 2, 19);
        let mut scratch = QueryScratch::new();
        let mut covered = 0usize;
        let mut rel_err = 0.0f64;
        for i in 0..queries.rows() {
            let q = queries.row(i);
            let exact = b.exact_density(q, &mut scratch);
            let est = b.bound_density(q, 0.0, 0.0, &mut scratch);
            if est.lower <= exact && exact <= est.upper {
                covered += 1;
            }
            rel_err += ((est.midpoint() - exact) / exact).abs();
        }
        let coverage = covered as f64 / queries.rows() as f64;
        assert!(coverage > 0.9, "coverage {coverage}");
        let mean_rel = rel_err / queries.rows() as f64;
        assert!(mean_rel < 0.25, "mean relative error {mean_rel}");
    }

    #[test]
    fn weighted_build_matches_duplicated_points() {
        // A point with mass 3 must act like three unit copies.
        let mut dup = Matrix::with_cols(2);
        let mut wtd = Matrix::with_cols(2);
        let mut rng = Rng::seed_from(23);
        let mut weights = Vec::new();
        for _ in 0..300 {
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
        let bd = HbeBackend::build(dup, None, kernel.clone(), 0.01, HbeParams::default(), 29);
        let bw = HbeBackend::build(wtd, Some(weights), kernel, 0.01, HbeParams::default(), 29);
        let mut scratch = QueryScratch::new();
        let q = [0.25, -0.75];
        let ed = bd.exact_density(&q, &mut scratch);
        let ew = bw.exact_density(&q, &mut scratch);
        assert!((ed - ew).abs() < 1e-12 * ed.max(1.0), "{ed} vs {ew}");
        // The sampled estimates see identical bucket masses, so both
        // should land near the same density.
        let dd = bd.bound_density(&q, 0.0, 0.0, &mut scratch).midpoint();
        let dw = bw.bound_density(&q, 0.0, 0.0, &mut scratch).midpoint();
        assert!((dd - ed).abs() / ed < 0.5, "{dd} vs exact {ed}");
        assert!((dw - ew).abs() / ew < 0.5, "{dw} vs exact {ew}");
    }

    #[test]
    #[allow(clippy::float_cmp)] // an all-miss estimate is exactly 0.0
    fn far_query_estimates_near_zero() {
        let b = build_default(500, 2, 31);
        let mut scratch = QueryScratch::new();
        let est = b.bound_density(&[50.0, 50.0], 0.0, 0.0, &mut scratch);
        // Every bucket misses: the estimate collapses to zero, which is
        // the right call for a p-tail classification.
        assert_eq!(est.midpoint(), 0.0);
        // Infinite coordinates must not panic (legitimate far-tail probe).
        let est = b.bound_density(&[f64::INFINITY, 0.0], 0.0, 0.0, &mut scratch);
        assert_eq!(est.midpoint(), 0.0);
    }
}
