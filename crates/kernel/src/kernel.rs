//! Kernel functions over diagonal-bandwidth product form.
//!
//! Every evaluation is phrased in terms of the *scaled squared distance*
//! `u(x, y) = Σ_i ((x_i − y_i) / h_i)²`. Both supported kernels are
//! monotonically non-increasing and convex in `u`, which are exactly the
//! properties the spatial bounds need: the nearest point of a bounding
//! box maximizes the kernel, and by Jensen's inequality the kernel of the
//! mean `u` over a node's points is at most their mean kernel value.

use tkdc_common::error::{invalid_param, Error, Result};
use tkdc_common::order::ln_gamma;

/// The kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Gaussian kernel (Eq. 2 of the paper): smooth, infinite support.
    Gaussian,
    /// Multivariate Epanechnikov kernel: compact support `u ≤ 1`,
    /// optimal AMISE efficiency; extension beyond the paper's default.
    Epanechnikov,
}

/// A kernel bound to a concrete diagonal bandwidth.
///
/// ```
/// use tkdc_kernel::{Kernel, KernelKind};
/// let k = Kernel::new(KernelKind::Gaussian, vec![1.0, 2.0]).unwrap();
/// let at_zero = k.eval_pair(&[0.0, 0.0], &[0.0, 0.0]);
/// assert!((at_zero - k.max_value()).abs() < 1e-15);
/// ```
#[derive(Debug, Clone)]
pub struct Kernel {
    kind: KernelKind,
    /// Per-dimension bandwidths `h_i`.
    h: Vec<f64>,
    /// Pre-computed `1 / h_i` for the hot loop.
    inv_h: Vec<f64>,
    /// Normalization so the kernel integrates to one over `R^d`.
    norm: f64,
}

impl Kernel {
    /// Binds a kernel family to a bandwidth vector.
    ///
    /// # Errors
    /// Fails when the bandwidth vector is empty or contains non-positive
    /// or non-finite entries.
    pub fn new(kind: KernelKind, h: Vec<f64>) -> Result<Self> {
        if h.is_empty() {
            return Err(Error::EmptyInput("bandwidth vector"));
        }
        for &hi in &h {
            if !hi.is_finite() || hi <= 0.0 {
                return Err(invalid_param(
                    "h",
                    format!("bandwidths must be positive and finite, got {hi}"),
                ));
            }
        }
        let d = h.len();
        let log_h_prod: f64 = h.iter().map(|hi| hi.ln()).sum();
        let norm = match kind {
            KernelKind::Gaussian => {
                // (2π)^{-d/2} / Π h_i
                (-(d as f64) / 2.0 * (2.0 * std::f64::consts::PI).ln() - log_h_prod).exp()
            }
            KernelKind::Epanechnikov => {
                // K(z) = c_d (1 - ||z||²) on the unit ball of the scaled
                // space; ∫(1-||z||²)dz over the ball = V_d · 2/(d+2), so
                // c_d = (d+2) / (2 V_d), with V_d = π^{d/2}/Γ(d/2+1).
                let df = d as f64;
                let ln_vd = df / 2.0 * std::f64::consts::PI.ln() - ln_gamma(df / 2.0 + 1.0);
                (((df + 2.0) / 2.0).ln() - ln_vd - log_h_prod).exp()
            }
        };
        let inv_h = h.iter().map(|hi| 1.0 / hi).collect();
        Ok(Self {
            kind,
            h,
            inv_h,
            norm,
        })
    }

    /// Gaussian kernel with the given bandwidths (the paper's default).
    pub fn gaussian(h: Vec<f64>) -> Result<Self> {
        Self::new(KernelKind::Gaussian, h)
    }

    /// The kernel family.
    #[inline]
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.h.len()
    }

    /// Per-dimension bandwidths.
    #[inline]
    pub fn bandwidths(&self) -> &[f64] {
        &self.h
    }

    /// Pre-computed reciprocal bandwidths `1/h_i`, exposed for callers
    /// (the spatial index) that compute scaled box distances inline.
    #[inline]
    pub fn inv_bandwidths(&self) -> &[f64] {
        &self.inv_h
    }

    /// Scaled squared distance `Σ ((x_i − y_i)/h_i)²`.
    ///
    /// # Panics
    /// Debug-asserts matching dimensions; in release the shorter slice
    /// governs (callers are trusted on the hot path).
    #[inline]
    pub fn scaled_sq_dist(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.inv_h.len());
        debug_assert_eq!(y.len(), self.inv_h.len());
        let mut acc = 0.0;
        for i in 0..self.inv_h.len() {
            let z = (x[i] - y[i]) * self.inv_h[i];
            acc += z * z;
        }
        acc
    }

    /// Scaled squared norm of a raw displacement vector `Σ (d_i/h_i)²`.
    #[inline]
    pub fn scaled_sq_norm(&self, diff: &[f64]) -> f64 {
        debug_assert_eq!(diff.len(), self.inv_h.len());
        let mut acc = 0.0;
        for i in 0..self.inv_h.len() {
            let z = diff[i] * self.inv_h[i];
            acc += z * z;
        }
        acc
    }

    /// Kernel value as a function of scaled squared distance `u`.
    ///
    /// Monotonically non-increasing in `u` for both families — the
    /// property all spatial pruning bounds rely on.
    #[inline]
    pub fn eval_scaled_sq(&self, u: f64) -> f64 {
        // NaN is explicitly tolerated: a NaN distance (poisoned input
        // coordinates) must flow through as a NaN kernel value — callers
        // order densities with total_cmp — not abort in debug builds.
        debug_assert!(
            u >= 0.0 || u.is_nan(),
            "scaled squared distance must not be negative"
        );
        match self.kind {
            KernelKind::Gaussian => self.norm * (-0.5 * u).exp(),
            KernelKind::Epanechnikov => {
                if u >= 1.0 {
                    0.0
                } else {
                    self.norm * (1.0 - u)
                }
            }
        }
    }

    /// Kernel value between two points.
    #[inline]
    pub fn eval_pair(&self, x: &[f64], y: &[f64]) -> f64 {
        self.eval_scaled_sq(self.scaled_sq_dist(x, y))
    }

    /// Sum of kernel values between `x` and every row of a contiguous
    /// row-major `block` (`block.len()` must be a multiple of `dim`).
    ///
    /// This is the blocked leaf-evaluation fast path used by the
    /// `BoundDensity` traversal: instead of one virtual-ish
    /// [`Self::eval_pair`] per training point, it computes scaled squared
    /// distances for up to 32 rows at a time into a stack buffer (with
    /// the dimension loop unrolled), then batches the transcendental
    /// pass over that buffer. For compact-support kernels rows outside
    /// the support are skipped before any value work.
    ///
    /// Equivalent to `block.chunks(dim).map(|p| eval_pair(x, p)).sum()`
    /// up to floating-point summation order.
    pub fn sum_block(&self, x: &[f64], block: &[f64]) -> f64 {
        let d = self.inv_h.len();
        debug_assert_eq!(x.len(), d);
        debug_assert!(block.len().is_multiple_of(d));
        const BLOCK: usize = 32;
        let mut u = [0.0f64; BLOCK];
        let mut total = 0.0;
        for rows in block.chunks(BLOCK * d) {
            let m = rows.len() / d;
            // Distance pass: unrolled per-dimension loops with the
            // reciprocal bandwidths hoisted into locals, writing into the
            // stack buffer so the value pass below runs over registers
            // and one cache line.
            match d {
                1 => {
                    let (x0, i0) = (x[0], self.inv_h[0]);
                    for (j, p) in rows.chunks_exact(1).enumerate() {
                        let z0 = (x0 - p[0]) * i0;
                        u[j] = z0 * z0;
                    }
                }
                2 => {
                    let (x0, x1) = (x[0], x[1]);
                    let (i0, i1) = (self.inv_h[0], self.inv_h[1]);
                    for (j, p) in rows.chunks_exact(2).enumerate() {
                        let z0 = (x0 - p[0]) * i0;
                        let z1 = (x1 - p[1]) * i1;
                        u[j] = z0 * z0 + z1 * z1;
                    }
                }
                3 => {
                    let (x0, x1, x2) = (x[0], x[1], x[2]);
                    let (i0, i1, i2) = (self.inv_h[0], self.inv_h[1], self.inv_h[2]);
                    for (j, p) in rows.chunks_exact(3).enumerate() {
                        let z0 = (x0 - p[0]) * i0;
                        let z1 = (x1 - p[1]) * i1;
                        let z2 = (x2 - p[2]) * i2;
                        u[j] = z0 * z0 + z1 * z1 + z2 * z2;
                    }
                }
                4 => {
                    let (x0, x1, x2, x3) = (x[0], x[1], x[2], x[3]);
                    let (i0, i1, i2, i3) =
                        (self.inv_h[0], self.inv_h[1], self.inv_h[2], self.inv_h[3]);
                    for (j, p) in rows.chunks_exact(4).enumerate() {
                        let z0 = (x0 - p[0]) * i0;
                        let z1 = (x1 - p[1]) * i1;
                        let z2 = (x2 - p[2]) * i2;
                        let z3 = (x3 - p[3]) * i3;
                        u[j] = (z0 * z0 + z1 * z1) + (z2 * z2 + z3 * z3);
                    }
                }
                _ => {
                    let inv = &self.inv_h[..d];
                    for (j, p) in rows.chunks_exact(d).enumerate() {
                        // Four independent accumulators over the
                        // dimension loop keep the FP dependency chain
                        // short in high-d leaves.
                        let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
                        let mut i = 0;
                        while i + 4 <= d {
                            let z0 = (x[i] - p[i]) * inv[i];
                            let z1 = (x[i + 1] - p[i + 1]) * inv[i + 1];
                            let z2 = (x[i + 2] - p[i + 2]) * inv[i + 2];
                            let z3 = (x[i + 3] - p[i + 3]) * inv[i + 3];
                            a0 += z0 * z0;
                            a1 += z1 * z1;
                            a2 += z2 * z2;
                            a3 += z3 * z3;
                            i += 4;
                        }
                        while i < d {
                            let z = (x[i] - p[i]) * inv[i];
                            a0 += z * z;
                            i += 1;
                        }
                        u[j] = (a0 + a1) + (a2 + a3);
                    }
                }
            }
            // Value pass over the buffered distances.
            match self.kind {
                KernelKind::Gaussian => {
                    let mut block_sum = 0.0;
                    for &uj in &u[..m] {
                        block_sum += (-0.5 * uj).exp();
                    }
                    total += block_sum;
                }
                KernelKind::Epanechnikov => {
                    for &uj in &u[..m] {
                        // Early exit outside the support; NaN distances
                        // fall through and poison the sum exactly like
                        // `eval_scaled_sq` would.
                        if uj >= 1.0 {
                            continue;
                        }
                        total += 1.0 - uj;
                    }
                }
            }
        }
        total * self.norm
    }

    /// Weighted sum of kernel values between `x` and every row of a
    /// contiguous row-major `block`: `Σ_j w_j · K(x, p_j)`.
    ///
    /// The weighted companion of [`Self::sum_block`] used by coreset-fit
    /// leaf scans: each point carries a multiplicity-like mass (the
    /// number of original points it stands in for), so the leaf
    /// contribution is the weight-scaled kernel sum. `weights.len()` must
    /// equal the number of rows in `block`. With all weights `1.0` the
    /// result equals `sum_block` up to floating-point summation order.
    pub fn sum_block_weighted(&self, x: &[f64], block: &[f64], weights: &[f64]) -> f64 {
        let d = self.inv_h.len();
        debug_assert_eq!(x.len(), d);
        debug_assert!(block.len().is_multiple_of(d));
        debug_assert_eq!(weights.len(), block.len() / d);
        const BLOCK: usize = 32;
        let mut u = [0.0f64; BLOCK];
        let mut total = 0.0;
        for (chunk_idx, rows) in block.chunks(BLOCK * d).enumerate() {
            let m = rows.len() / d;
            let w = &weights[chunk_idx * BLOCK..chunk_idx * BLOCK + m];
            // Distance pass: same buffered layout as `sum_block` (the
            // unrolled specializations live there; this path trades a
            // little of that for one shared general loop because the
            // value pass is weight-bound anyway).
            let inv = &self.inv_h[..d];
            for (j, p) in rows.chunks_exact(d).enumerate() {
                let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
                let mut i = 0;
                while i + 4 <= d {
                    let z0 = (x[i] - p[i]) * inv[i];
                    let z1 = (x[i + 1] - p[i + 1]) * inv[i + 1];
                    let z2 = (x[i + 2] - p[i + 2]) * inv[i + 2];
                    let z3 = (x[i + 3] - p[i + 3]) * inv[i + 3];
                    a0 += z0 * z0;
                    a1 += z1 * z1;
                    a2 += z2 * z2;
                    a3 += z3 * z3;
                    i += 4;
                }
                while i < d {
                    let z = (x[i] - p[i]) * inv[i];
                    a0 += z * z;
                    i += 1;
                }
                u[j] = (a0 + a1) + (a2 + a3);
            }
            // Weighted value pass over the buffered distances.
            match self.kind {
                KernelKind::Gaussian => {
                    let mut block_sum = 0.0;
                    for (&uj, &wj) in u[..m].iter().zip(w) {
                        block_sum += wj * (-0.5 * uj).exp();
                    }
                    total += block_sum;
                }
                KernelKind::Epanechnikov => {
                    for (&uj, &wj) in u[..m].iter().zip(w) {
                        // Early exit outside the support; NaN distances
                        // fall through and poison the sum exactly like
                        // `eval_scaled_sq` would.
                        if uj >= 1.0 {
                            continue;
                        }
                        total += wj * (1.0 - uj);
                    }
                }
            }
        }
        total * self.norm
    }

    /// Sum of kernel values between `x` and every point of a
    /// *dimension-major* (structure-of-arrays) block: `soa[j·rows + i]`
    /// holds coordinate `j` of point `i`, `soa.len() == dim · rows`.
    ///
    /// The SoA twin of [`Self::sum_block`]. Row-major leaves defeat
    /// autovectorization once `d` exceeds the unrolled specializations:
    /// the distance pass walks memory with stride `d`, so at d = 64 the
    /// "blocked" path *lost* to scalar `eval_pair`. Here the inner loop
    /// runs down a contiguous coordinate column for 32 points at a time
    /// (`u[i] += ((x_j − col[i]) · inv_h_j)²`), which LLVM turns into
    /// clean FMA vector code at any `d`. The value pass (transcendental
    /// / support test) is shared with the row-major path, so the NaN
    /// and compact-support contracts are identical.
    ///
    /// Equivalent to evaluating `eval_pair` per point up to
    /// floating-point summation order — the accumulation order differs
    /// from [`Self::sum_block`] (per-dimension across points instead of
    /// per-point across dimensions), so results agree only to FP
    /// tolerance, never bit-exactly.
    pub fn sum_block_soa(&self, x: &[f64], soa: &[f64], rows: usize) -> f64 {
        let d = self.inv_h.len();
        debug_assert_eq!(x.len(), d);
        debug_assert_eq!(soa.len(), d * rows);
        const TILE: usize = 32;
        let mut u = [0.0f64; TILE];
        let mut total = 0.0;
        let mut base = 0;
        while base < rows {
            let m = TILE.min(rows - base);
            u[..m].fill(0.0);
            // Distance pass: one contiguous column per dimension; the
            // inner loop is stride-1 over both `u` and `col`, which is
            // the shape LLVM autovectorizes regardless of `d`.
            for j in 0..d {
                let xj = x[j];
                let ij = self.inv_h[j];
                let col = &soa[j * rows + base..j * rows + base + m];
                for (uj, &p) in u[..m].iter_mut().zip(col) {
                    let z = (xj - p) * ij;
                    *uj += z * z;
                }
            }
            // Value pass over the buffered distances (same contracts as
            // `sum_block`).
            match self.kind {
                KernelKind::Gaussian => {
                    let mut block_sum = 0.0;
                    for &uj in &u[..m] {
                        block_sum += (-0.5 * uj).exp();
                    }
                    total += block_sum;
                }
                KernelKind::Epanechnikov => {
                    for &uj in &u[..m] {
                        // Early exit outside the support; NaN distances
                        // fall through and poison the sum exactly like
                        // `eval_scaled_sq` would.
                        if uj >= 1.0 {
                            continue;
                        }
                        total += 1.0 - uj;
                    }
                }
            }
            base += m;
        }
        total * self.norm
    }

    /// Weighted sum over a dimension-major block: `Σ_i w_i · K(x, p_i)`
    /// with the same SoA layout as [`Self::sum_block_soa`].
    ///
    /// The SoA twin of [`Self::sum_block_weighted`]; `weights.len()`
    /// must equal `rows`.
    pub fn sum_block_soa_weighted(
        &self,
        x: &[f64],
        soa: &[f64],
        rows: usize,
        weights: &[f64],
    ) -> f64 {
        let d = self.inv_h.len();
        debug_assert_eq!(x.len(), d);
        debug_assert_eq!(soa.len(), d * rows);
        debug_assert_eq!(weights.len(), rows);
        const TILE: usize = 32;
        let mut u = [0.0f64; TILE];
        let mut total = 0.0;
        let mut base = 0;
        while base < rows {
            let m = TILE.min(rows - base);
            u[..m].fill(0.0);
            for j in 0..d {
                let xj = x[j];
                let ij = self.inv_h[j];
                let col = &soa[j * rows + base..j * rows + base + m];
                for (uj, &p) in u[..m].iter_mut().zip(col) {
                    let z = (xj - p) * ij;
                    *uj += z * z;
                }
            }
            let w = &weights[base..base + m];
            match self.kind {
                KernelKind::Gaussian => {
                    let mut block_sum = 0.0;
                    for (&uj, &wj) in u[..m].iter().zip(w) {
                        block_sum += wj * (-0.5 * uj).exp();
                    }
                    total += block_sum;
                }
                KernelKind::Epanechnikov => {
                    for (&uj, &wj) in u[..m].iter().zip(w) {
                        // Early exit outside the support; NaN distances
                        // fall through and poison the sum exactly like
                        // `eval_scaled_sq` would.
                        if uj >= 1.0 {
                            continue;
                        }
                        total += wj * (1.0 - uj);
                    }
                }
            }
            base += m;
        }
        total * self.norm
    }

    /// `K(0)` — the kernel's maximum, used for the self-contribution
    /// correction `f₀ = K(0)/n` (Eq. 1) and the grid's diagonal bound.
    #[inline]
    pub fn max_value(&self) -> f64 {
        self.eval_scaled_sq(0.0)
    }

    /// Scaled radius beyond which the kernel is exactly zero, when the
    /// family has compact support.
    #[inline]
    pub fn support_radius_scaled(&self) -> Option<f64> {
        match self.kind {
            KernelKind::Gaussian => None,
            KernelKind::Epanechnikov => Some(1.0),
        }
    }

    /// Scaled radius `r` such that `K(u) ≤ frac · K(0)` for all `u ≥ r²`.
    ///
    /// Used by the radial baseline to choose a cutoff with a bounded
    /// per-point truncation error.
    pub fn radius_for_value_fraction(&self, frac: f64) -> f64 {
        assert!(frac > 0.0 && frac < 1.0, "frac must be in (0,1)");
        match self.kind {
            KernelKind::Gaussian => (-2.0 * frac.ln()).sqrt(),
            KernelKind::Epanechnikov => (1.0 - frac).sqrt(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-value asserts are deliberate in tests
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn gaussian_matches_closed_form_1d() {
        let k = Kernel::gaussian(vec![2.0]).unwrap();
        // K(x) = 1/(√(2π)·2) exp(-x²/8) at x = 1
        let expected = (2.0 * std::f64::consts::PI).sqrt().recip() / 2.0 * (-1.0f64 / 8.0).exp();
        assert_close(k.eval_pair(&[1.0], &[0.0]), expected, 1e-15);
    }

    #[test]
    fn gaussian_matches_closed_form_2d() {
        let k = Kernel::gaussian(vec![1.0, 3.0]).unwrap();
        let x = [0.5, -1.5];
        let u = 0.5f64.powi(2) + (1.5f64 / 3.0).powi(2);
        let expected = (2.0 * std::f64::consts::PI).recip() / 3.0 * (-0.5 * u).exp();
        assert_close(k.eval_pair(&x, &[0.0, 0.0]), expected, 1e-15);
    }

    #[test]
    fn gaussian_integrates_to_one_1d() {
        let k = Kernel::gaussian(vec![0.7]).unwrap();
        // Trapezoid over ±10 bandwidths.
        let steps = 20_000;
        let lo = -7.0;
        let hi = 7.0;
        let dx = (hi - lo) / steps as f64;
        let mut integral = 0.0;
        for i in 0..=steps {
            let x = lo + i as f64 * dx;
            let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
            integral += w * k.eval_pair(&[x], &[0.0]) * dx;
        }
        assert_close(integral, 1.0, 1e-6);
    }

    #[test]
    fn epanechnikov_integrates_to_one_2d() {
        let k = Kernel::new(KernelKind::Epanechnikov, vec![1.0, 2.0]).unwrap();
        // 2-d grid integration over the support box.
        let steps = 400;
        let dx = 2.0 / steps as f64; // x support [-1, 1]
        let dy = 4.0 / steps as f64; // y support [-2, 2]
        let mut integral = 0.0;
        for i in 0..steps {
            let x = -1.0 + (i as f64 + 0.5) * dx;
            for j in 0..steps {
                let y = -2.0 + (j as f64 + 0.5) * dy;
                integral += k.eval_pair(&[x, y], &[0.0, 0.0]) * dx * dy;
            }
        }
        assert_close(integral, 1.0, 1e-3);
    }

    #[test]
    fn epanechnikov_zero_outside_support() {
        let k = Kernel::new(KernelKind::Epanechnikov, vec![1.0]).unwrap();
        assert_eq!(k.eval_pair(&[1.0], &[0.0]), 0.0);
        assert_eq!(k.eval_pair(&[5.0], &[0.0]), 0.0);
        assert!(k.eval_pair(&[0.99], &[0.0]) > 0.0);
        assert_eq!(k.support_radius_scaled(), Some(1.0));
    }

    #[test]
    fn monotone_nonincreasing_in_u() {
        for kind in [KernelKind::Gaussian, KernelKind::Epanechnikov] {
            let k = Kernel::new(kind, vec![1.5, 0.5]).unwrap();
            let mut prev = f64::INFINITY;
            for i in 0..100 {
                let u = i as f64 * 0.05;
                let v = k.eval_scaled_sq(u);
                assert!(v <= prev + 1e-18, "{kind:?} not monotone at u={u}");
                prev = v;
            }
        }
    }

    #[test]
    fn max_value_is_at_zero() {
        let k = Kernel::gaussian(vec![0.3, 0.3, 0.3]).unwrap();
        assert_eq!(k.max_value(), k.eval_scaled_sq(0.0));
        assert!(k.eval_scaled_sq(0.1) < k.max_value());
    }

    #[test]
    fn scaled_distance_respects_bandwidth() {
        let k = Kernel::gaussian(vec![1.0, 10.0]).unwrap();
        // Displacement along the wide-bandwidth axis is discounted.
        let u_narrow = k.scaled_sq_dist(&[1.0, 0.0], &[0.0, 0.0]);
        let u_wide = k.scaled_sq_dist(&[0.0, 1.0], &[0.0, 0.0]);
        assert_close(u_narrow, 1.0, 1e-15);
        assert_close(u_wide, 0.01, 1e-15);
        assert_close(k.scaled_sq_norm(&[1.0, 1.0]), 1.01, 1e-15);
    }

    #[test]
    fn radius_fraction_bound_holds() {
        for kind in [KernelKind::Gaussian, KernelKind::Epanechnikov] {
            let k = Kernel::new(kind, vec![1.0]).unwrap();
            for &frac in &[0.5, 0.01, 1e-6] {
                let r = k.radius_for_value_fraction(frac);
                let at_r = k.eval_scaled_sq(r * r);
                // Equality holds at the boundary; allow f64 rounding slack.
                assert!(
                    at_r <= frac * k.max_value() * (1.0 + 1e-12),
                    "{kind:?} frac={frac}: K(r²)={at_r}"
                );
            }
        }
    }

    /// Deterministic pseudo-random block for sum_block tests (no RNG dep).
    fn pseudo_block(rows: usize, d: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut out = Vec::with_capacity(rows * d);
        for _ in 0..rows * d {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            out.push((state as f64 / u64::MAX as f64) * 6.0 - 3.0);
        }
        out
    }

    #[test]
    fn sum_block_matches_per_point_eval_pair() {
        for kind in [KernelKind::Gaussian, KernelKind::Epanechnikov] {
            // Cover the unrolled specializations (d ≤ 4), the general
            // path (d = 7, 64), and block boundaries (rows around 32).
            for d in [1usize, 2, 3, 4, 7, 64] {
                let h: Vec<f64> = (0..d).map(|i| 0.5 + 0.25 * i as f64).collect();
                let k = Kernel::new(kind, h).unwrap();
                for rows in [0usize, 1, 31, 32, 33, 100] {
                    let block = pseudo_block(rows, d, (d as u64) << 8 | rows as u64);
                    let x: Vec<f64> = (0..d).map(|i| 0.1 * i as f64).collect();
                    let expected: f64 = block.chunks_exact(d).map(|p| k.eval_pair(&x, p)).sum();
                    let got = k.sum_block(&x, &block);
                    let tol = 1e-12 * k.max_value() * (rows as f64 + 1.0);
                    assert!(
                        (got - expected).abs() <= tol,
                        "{kind:?} d={d} rows={rows}: {got} vs {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn sum_block_weighted_matches_per_point_eval_pair() {
        for kind in [KernelKind::Gaussian, KernelKind::Epanechnikov] {
            for d in [1usize, 2, 4, 7] {
                let h: Vec<f64> = (0..d).map(|i| 0.5 + 0.25 * i as f64).collect();
                let k = Kernel::new(kind, h).unwrap();
                for rows in [0usize, 1, 31, 32, 33, 100] {
                    let block = pseudo_block(rows, d, (d as u64) << 8 | rows as u64);
                    let weights: Vec<f64> =
                        (0..rows).map(|i| 0.25 + (i % 7) as f64 * 0.5).collect();
                    let x: Vec<f64> = (0..d).map(|i| 0.1 * i as f64).collect();
                    let expected: f64 = block
                        .chunks_exact(d)
                        .zip(&weights)
                        .map(|(p, &w)| w * k.eval_pair(&x, p))
                        .sum();
                    let got = k.sum_block_weighted(&x, &block, &weights);
                    let tol = 1e-12 * k.max_value() * (rows as f64 + 1.0) * 4.0;
                    assert!(
                        (got - expected).abs() <= tol,
                        "{kind:?} d={d} rows={rows}: {got} vs {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn sum_block_weighted_unit_weights_matches_sum_block() {
        for kind in [KernelKind::Gaussian, KernelKind::Epanechnikov] {
            let k = Kernel::new(kind, vec![0.8, 1.3]).unwrap();
            let block = pseudo_block(70, 2, 99);
            let ones = vec![1.0; 70];
            let a = k.sum_block(&[0.2, -0.4], &block);
            let b = k.sum_block_weighted(&[0.2, -0.4], &block, &ones);
            assert!((a - b).abs() <= 1e-12 * k.max_value() * 71.0, "{a} vs {b}");
        }
    }

    /// Transposes a row-major block into the dimension-major SoA
    /// layout `soa[j·rows + i]`.
    fn transpose(block: &[f64], rows: usize, d: usize) -> Vec<f64> {
        let mut soa = vec![0.0; rows * d];
        for i in 0..rows {
            for j in 0..d {
                soa[j * rows + i] = block[i * d + j];
            }
        }
        soa
    }

    #[test]
    fn sum_block_soa_matches_row_major_oracle() {
        for kind in [KernelKind::Gaussian, KernelKind::Epanechnikov] {
            for d in [1usize, 2, 3, 4, 7, 8, 64] {
                let h: Vec<f64> = (0..d).map(|i| 0.5 + 0.25 * i as f64).collect();
                let k = Kernel::new(kind, h).unwrap();
                for rows in [0usize, 1, 31, 32, 33, 100] {
                    let block = pseudo_block(rows, d, (d as u64) << 8 | rows as u64);
                    let soa = transpose(&block, rows, d);
                    let x: Vec<f64> = (0..d).map(|i| 0.1 * i as f64).collect();
                    let oracle = k.sum_block(&x, &block);
                    let got = k.sum_block_soa(&x, &soa, rows);
                    // Accumulation order differs (per-dimension vs
                    // per-point), so compare to tight FP tolerance.
                    let tol = 1e-12 * k.max_value() * (rows as f64 + 1.0) * d as f64;
                    assert!(
                        (got - oracle).abs() <= tol,
                        "{kind:?} d={d} rows={rows}: {got} vs {oracle}"
                    );
                }
            }
        }
    }

    #[test]
    fn sum_block_soa_weighted_matches_row_major_oracle() {
        for kind in [KernelKind::Gaussian, KernelKind::Epanechnikov] {
            for d in [1usize, 2, 4, 7, 64] {
                let h: Vec<f64> = (0..d).map(|i| 0.5 + 0.25 * i as f64).collect();
                let k = Kernel::new(kind, h).unwrap();
                for rows in [0usize, 1, 31, 33, 100] {
                    let block = pseudo_block(rows, d, (d as u64) << 8 | rows as u64);
                    let soa = transpose(&block, rows, d);
                    let weights: Vec<f64> =
                        (0..rows).map(|i| 0.25 + (i % 7) as f64 * 0.5).collect();
                    let x: Vec<f64> = (0..d).map(|i| 0.1 * i as f64).collect();
                    let oracle = k.sum_block_weighted(&x, &block, &weights);
                    let got = k.sum_block_soa_weighted(&x, &soa, rows, &weights);
                    let tol = 1e-12 * k.max_value() * (rows as f64 + 1.0) * d as f64 * 4.0;
                    assert!(
                        (got - oracle).abs() <= tol,
                        "{kind:?} d={d} rows={rows}: {got} vs {oracle}"
                    );
                }
            }
        }
    }

    #[test]
    fn sum_block_soa_compact_support_and_nan_contracts() {
        let k = Kernel::new(KernelKind::Epanechnikov, vec![1.0, 1.0]).unwrap();
        // All points far outside the unit support: exact zero.
        let soa = vec![50.0; 2 * 40];
        assert_eq!(k.sum_block_soa(&[0.0, 0.0], &soa, 40), 0.0);
        for kind in [KernelKind::Gaussian, KernelKind::Epanechnikov] {
            let k = Kernel::new(kind, vec![1.0]).unwrap();
            let soa = vec![0.5, f64::NAN, 0.25];
            assert!(k.sum_block_soa(&[0.0], &soa, 3).is_nan(), "{kind:?}");
        }
    }

    #[test]
    fn sum_block_compact_support_skips_far_rows() {
        let k = Kernel::new(KernelKind::Epanechnikov, vec![1.0, 1.0]).unwrap();
        // All rows far outside the unit support: exact zero.
        let block = vec![50.0; 2 * 40];
        assert_eq!(k.sum_block(&[0.0, 0.0], &block), 0.0);
    }

    #[test]
    fn sum_block_propagates_nan_like_eval_pair() {
        for kind in [KernelKind::Gaussian, KernelKind::Epanechnikov] {
            let k = Kernel::new(kind, vec![1.0]).unwrap();
            let block = vec![0.5, f64::NAN, 0.25];
            assert!(k.sum_block(&[0.0], &block).is_nan(), "{kind:?}");
        }
    }

    #[test]
    fn rejects_invalid_bandwidths() {
        assert!(Kernel::gaussian(vec![]).is_err());
        assert!(Kernel::gaussian(vec![0.0]).is_err());
        assert!(Kernel::gaussian(vec![-1.0]).is_err());
        assert!(Kernel::gaussian(vec![f64::NAN]).is_err());
        assert!(Kernel::gaussian(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn accessors() {
        let k = Kernel::gaussian(vec![1.0, 2.0]).unwrap();
        assert_eq!(k.dim(), 2);
        assert_eq!(k.bandwidths(), &[1.0, 2.0]);
        assert_eq!(k.kind(), KernelKind::Gaussian);
    }
}
