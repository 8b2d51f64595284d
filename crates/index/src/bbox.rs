//! Bounding-box distance computations.
//!
//! For a query point `x` and an axis-aligned box `[lo, hi]`, the minimum
//! displacement per dimension gives the distance vector `d_min` of Eq. 6
//! in the paper. All distances here are computed in *bandwidth-scaled*
//! space (each axis divided by `h_i`), so the results feed
//! `Kernel::eval_scaled_sq` directly: the kernel of the minimum distance
//! upper-bounds the density contribution of every point inside the box.
//! The matching lower bound comes from the node's moments, not its box:
//! see [`scaled_sq_dist_min_mean`].

/// `a.max(0) + b.max(0)` for `a = lo − x`, `b = x − hi`: the gap from
/// `x` to the interval `[lo, hi]`, without a data-dependent branch.
///
/// At most one of `a`, `b` is positive on a box with `lo ≤ hi`, so
/// adding the other side's `0.0` is exact. `f64::max` returns the
/// non-NaN operand, so a NaN coordinate gives a gap of `0`, as a failed
/// `x < lo` / `x > hi` comparison does.
#[inline(always)]
fn axis_gap(a: f64, b: f64) -> f64 {
    a.max(0.0) + b.max(0.0)
}

/// Scaled squared distance from `x` to the *nearest* point of the box.
///
/// Zero when `x` lies inside the box.
#[inline]
pub fn min_scaled_sq_dist(x: &[f64], lo: &[f64], hi: &[f64], inv_h: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), lo.len());
    debug_assert_eq!(x.len(), hi.len());
    debug_assert_eq!(x.len(), inv_h.len());
    let mut acc = 0.0;
    for (((&xi, &l), &u), &s) in x.iter().zip(lo).zip(hi).zip(inv_h) {
        let z = axis_gap(l - xi, xi - u) * s;
        acc += z * z;
    }
    acc
}

/// Relative round-up `1 + 2⁻²⁹` that [`scaled_sq_dist_min_mean`]
/// applies to the mean distance it computes.
pub const MEAN_ROUND_UP: f64 = 1.0 + 1.0 / 536_870_912.0;

/// `1 + 1/η` with `η = 2⁻³⁰`: the weight of the centroid-error term that
/// a node's stored spread absorbs (see [`scaled_sq_dist_min_mean`]).
pub(crate) const CENTROID_ERROR_WEIGHT: f64 = 1.0 + 1_073_741_824.0;

/// The traversal's node distances in one branch-free pass: `(u_min, ū)`,
/// where `u_min` is [`min_scaled_sq_dist`] bit for bit and `ū` is the
/// mean scaled squared distance from `x` to the node's points, rounded
/// up. The node's moments arrive per axis as `cent` (its weighted
/// centroid as an offset from `lo`) and `spread` (the mean squared
/// deviation of its points from that centroid, rounded up), as
/// `KdTree` stores them.
///
/// **Why `ū` lower-bounds the node.** For the exact centroid `c*` and
/// mean squared deviation `v*`, `mean_i (x_j − p_ij)² = (x_j − c*_j)² +
/// v*_j`, so `ū* = Σ_j s_j²·((x_j − c*_j)² + v*_j)` (`s = 1/h`) is the
/// exact weighted mean of the scaled squared distances `u_i` to the
/// node's points. Both kernels are convex in `u` (`e^{−u/2}`,
/// `max(1 − u, 0)`), so Jensen gives `W·K(ū*) ≤ Σ w_i·K(u_i)`; any `ū ≥
/// ū*` keeps that inequality, because `K` is non-increasing. A mean
/// never exceeds a maximum, so `ū* ≤ u_max`: the bound is never looser
/// than the far-corner bound `W·K(u_max)` of Eq. 6.
///
/// **Rounding, which only ever pushes `ū` up.** Write `u = 2⁻⁵³` for
/// the unit roundoff, `w_j = hi_j − lo_j`, and `ĉ_j = lo_j + cent_j` for
/// the stored centroid (a real number, `0 ≤ cent_j ≤ w_j`). For any `ĉ`,
/// with `r = c* − ĉ`,
///
/// `mean_i (x − p_i)² = (x − ĉ)² − 2(x − ĉ)·r + q*`, with
/// `q* = mean_i (p_i − ĉ)²`.
///
/// The tree bounds `|r_j| ≤ ρ_j` and `q*_j ≤ q↑_j` when it builds the
/// moments and stores `spread_j ≥ q↑_j + (1 + 1/η)·(ρ_j + 2u·w_j)²`
/// with `η = 2⁻³⁰` (`KdTree` documents the build-side bounds). This pass
/// computes `e_j = fl(fl(lo_j − x_j) + cent_j)`. Its error is at most
/// `u·|lo_j − x_j| + u·|e_j| ≤ 2u·|δ_j| + u·w_j` for `δ_j = ĉ_j − x_j`,
/// so `|δ_j| ≤ (|e_j| + u·w_j)/(1 − 2u)`, and with `ρ'_j = ρ_j + u·w_j`
///
/// `δ² + 2|δ|ρ ≤ (|e| + ρ')²/(1 − 2u)² ≤ ((1 + η)·e² + (1 + 1/η)·ρ'²)/(1 − 2u)²`.
///
/// Hence `ū* ≤ (1 + η)/(1 − 2u)² · Σ_j s_j²·(e_j² + spread_j)`. Every
/// term of that sum is non-negative, so computing it costs at most a
/// factor `(1 − u)^{d+3}` (three roundings per term, `d − 1` additions)
/// and the final product one more `(1 − u)`. [`MEAN_ROUND_UP`] `= 1 +
/// 2⁻²⁹ ≥ (1 + η)/((1 − 2u)²·(1 − u)^{d+4})` for every `d < 2²²`, so the
/// returned `ū` is never below `ū*`. The slack costs `ū` a relative
/// `2⁻²⁹`. The spread's extra term is about `2³⁰·(ρ + 2u·w)²`. In an
/// unweighted tree `ρ` is about `(leaf size + 6·depth)·2u·w`, so the
/// term stays below `2⁻⁵⁰·w²` for any tree shallower than a few hundred
/// levels (a weighted tree adds about `2·rows` units of `2u·w` per level
/// for its masses' rounding). It is `0` on a zero-width axis.
///
/// NaN and infinite inputs need no branch: a NaN query coordinate gives
/// `u_min`'s gap `0` (as [`min_scaled_sq_dist`]) and `ū = NaN`; an
/// infinite one gives `ū = +∞`. A node whose moments are not finite
/// stores `spread = +∞`, so its `ū` is `+∞` and its lower bound the
/// trivial `0`.
#[inline]
pub fn scaled_sq_dist_min_mean(
    x: &[f64],
    lo: &[f64],
    hi: &[f64],
    cent: &[f64],
    spread: &[f64],
    inv_h: &[f64],
) -> (f64, f64) {
    let d = x.len();
    debug_assert_eq!(lo.len(), d);
    debug_assert_eq!(hi.len(), d);
    debug_assert_eq!(cent.len(), d);
    debug_assert_eq!(spread.len(), d);
    debug_assert_eq!(inv_h.len(), d);
    // Equal-length reslices let the compiler drop the bounds checks.
    let (lo, hi, cent, spread, inv_h) = (&lo[..d], &hi[..d], &cent[..d], &spread[..d], &inv_h[..d]);
    let mut u_min = 0.0;
    let mut u_mean = 0.0;
    for j in 0..d {
        let s = inv_h[j];
        let a = lo[j] - x[j];
        let zn = axis_gap(a, x[j] - hi[j]) * s;
        u_min += zn * zn;
        let zc = (a + cent[j]) * s;
        u_mean += zc * zc + s * s * spread[j];
    }
    (u_min, u_mean * MEAN_ROUND_UP)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-value asserts are deliberate in tests
mod tests {
    use super::*;

    const UNIT: [f64; 2] = [1.0, 1.0];

    #[test]
    fn round_up_constants_are_the_documented_powers_of_two() {
        assert_eq!(MEAN_ROUND_UP, 1.0 + 2f64.powi(-29));
        assert_eq!(CENTROID_ERROR_WEIGHT, 1.0 + 2f64.powi(30));
    }

    #[test]
    fn inside_box_min_is_zero() {
        let lo = [0.0, 0.0];
        let hi = [2.0, 2.0];
        assert_eq!(min_scaled_sq_dist(&[1.0, 1.5], &lo, &hi, &UNIT), 0.0);
        // On the boundary also zero.
        assert_eq!(min_scaled_sq_dist(&[0.0, 2.0], &lo, &hi, &UNIT), 0.0);
    }

    #[test]
    fn outside_box_min_is_componentwise() {
        let lo = [0.0, 0.0];
        let hi = [2.0, 2.0];
        // x = (3, -1): dx = 1 beyond hi, dy = 1 below lo.
        assert_eq!(min_scaled_sq_dist(&[3.0, -1.0], &lo, &hi, &UNIT), 2.0);
        // Only one axis outside.
        assert_eq!(min_scaled_sq_dist(&[1.0, 5.0], &lo, &hi, &UNIT), 9.0);
    }

    #[test]
    fn bandwidth_scaling_applies() {
        let lo = [2.0];
        let hi = [4.0];
        let inv_h = [0.5]; // h = 2
                           // x = 0: min gap 2 → scaled 1.
        assert_eq!(min_scaled_sq_dist(&[0.0], &lo, &hi, &inv_h), 1.0);
        // Centroid at 3 (offset 1 from lo), spread 1: ū = (3² + 1)/4.
        let (_, mean) = scaled_sq_dist_min_mean(&[0.0], &lo, &hi, &[1.0], &[1.0], &inv_h);
        assert_eq!(mean, 2.5 * MEAN_ROUND_UP);
    }

    #[test]
    fn degenerate_box_is_a_point() {
        let lo = [1.0, 2.0];
        let hi = [1.0, 2.0];
        let q = [4.0, 6.0];
        let expected = 9.0 + 16.0;
        assert_eq!(min_scaled_sq_dist(&q, &lo, &hi, &UNIT), expected);
        // One point: zero offset and zero spread, so ū is the distance
        // itself, rounded up by the documented factor only.
        let (mn, mean) = scaled_sq_dist_min_mean(&q, &lo, &hi, &[0.0; 2], &[0.0; 2], &UNIT);
        assert_eq!(mn, expected);
        assert_eq!(mean, expected * MEAN_ROUND_UP);
    }

    /// The branchy per-axis gap `min_scaled_sq_dist` used before the
    /// fused pass: the oracle the branch-free form must match bit for bit.
    fn branchy_min_scaled_sq_dist(x: &[f64], lo: &[f64], hi: &[f64], inv_h: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..x.len() {
            let d = if x[i] < lo[i] {
                lo[i] - x[i]
            } else if x[i] > hi[i] {
                x[i] - hi[i]
            } else {
                0.0
            };
            let z = d * inv_h[i];
            acc += z * z;
        }
        acc
    }

    /// One query coordinate against the axis `[lo, hi]`: inside, outside
    /// either face, exactly on a face, a signed zero, or NaN.
    fn query_coord(rng: &mut tkdc_common::Rng, lo: f64, hi: f64) -> f64 {
        match rng.next_below(8) {
            0 => lo,
            1 => hi,
            2 => -0.0,
            3 => 0.0,
            4 => f64::NAN,
            5 => rng.uniform(lo, hi),
            _ => rng.normal(0.0, 3.0),
        }
    }

    #[test]
    fn fused_min_matches_single_sided_bitwise() {
        let mut rng = tkdc_common::Rng::seed_from(0x5eed_b0c5);
        for d in [1usize, 2, 3, 8, 17] {
            for case in 0..2_000 {
                let mut lo = vec![0.0; d];
                let mut hi = vec![0.0; d];
                let mut inv_h = vec![0.0; d];
                for i in 0..d {
                    let (a, b) = (rng.normal(0.0, 2.0), rng.normal(0.0, 2.0));
                    (lo[i], hi[i]) = match (case + i) % 7 {
                        // Degenerate axis, including a signed-zero one.
                        0 => (a, a),
                        1 => (-0.0, 0.0),
                        2 => (0.0, -0.0),
                        _ => (a.min(b), a.max(b)),
                    };
                    inv_h[i] = rng.uniform(0.1, 4.0);
                }
                let cent: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| 0.5 * (h - l)).collect();
                let spread = vec![0.25; d];
                let mut x: Vec<f64> = (0..d)
                    .map(|i| query_coord(&mut rng, lo[i], hi[i]))
                    .collect();
                // Every fifth query sits on a box corner.
                if case % 5 == 0 {
                    for i in 0..d {
                        x[i] = if rng.next_below(2) == 0 { lo[i] } else { hi[i] };
                    }
                }
                let (mn, _) = scaled_sq_dist_min_mean(&x, &lo, &hi, &cent, &spread, &inv_h);
                let want_mn = min_scaled_sq_dist(&x, &lo, &hi, &inv_h);
                let oracle_mn = branchy_min_scaled_sq_dist(&x, &lo, &hi, &inv_h);
                let ctx = format!("d={d} x={x:?} lo={lo:?} hi={hi:?}");
                assert_eq!(want_mn.to_bits(), oracle_mn.to_bits(), "min: {ctx}");
                assert_eq!(mn.to_bits(), want_mn.to_bits(), "fused min: {ctx}");
            }
        }
    }

    #[test]
    fn fused_min_matches_on_the_empty_axis_box() {
        // An axis whose points are all NaN keeps the builder's initial
        // (+∞, −∞) box and non-finite moments (`spread = +∞`); the fused
        // form must agree there too, and its mean never drops below +∞.
        let lo = [f64::INFINITY, 0.0];
        let hi = [f64::NEG_INFINITY, 1.0];
        let inv_h = [1.0, 1.0];
        for x0 in [0.0, -0.0, 5.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let x = [x0, 0.5];
            let (mn, mean) =
                scaled_sq_dist_min_mean(&x, &lo, &hi, &[0.0, 0.5], &[f64::INFINITY, 0.0], &inv_h);
            let want_mn = branchy_min_scaled_sq_dist(&x, &lo, &hi, &inv_h);
            assert_eq!(mn.to_bits(), want_mn.to_bits(), "min at {x0}");
            assert_eq!(
                min_scaled_sq_dist(&x, &lo, &hi, &inv_h).to_bits(),
                want_mn.to_bits()
            );
            assert!(
                mean == f64::INFINITY || mean.is_nan(),
                "mean {mean} at {x0}"
            );
        }
    }

    #[test]
    fn min_and_mean_sandwich_the_contained_points() {
        // A grid of points inside the box with their exact moments: every
        // point lies at least `u_min` away, and their mean distance is at
        // most ū (here ū is the exact mean, rounded up by the documented
        // factor only).
        let lo = [0.0, -1.0];
        let hi = [3.0, 1.0];
        let inv_h = [0.7, 1.3];
        let pts: Vec<[f64; 2]> = (0..=6)
            .flat_map(|i| {
                (0..=6).map(move |j| {
                    [
                        lo[0] + (hi[0] - lo[0]) * f64::from(i) / 6.0,
                        lo[1] + (hi[1] - lo[1]) * f64::from(j) / 6.0,
                    ]
                })
            })
            .collect();
        let n = pts.len() as f64;
        let mut cent = [0.0; 2];
        let mut spread = [0.0; 2];
        for j in 0..2 {
            let c = pts.iter().map(|p| p[j]).sum::<f64>() / n;
            spread[j] = pts.iter().map(|p| (p[j] - c).powi(2)).sum::<f64>() / n;
            cent[j] = c - lo[j];
        }
        for q in [[5.0, 0.0], [1.0, 0.2], [-2.0, 3.0]] {
            let (mn, mean) = scaled_sq_dist_min_mean(&q, &lo, &hi, &cent, &spread, &inv_h);
            let dist = |p: &[f64; 2]| {
                let dx = (q[0] - p[0]) * inv_h[0];
                let dy = (q[1] - p[1]) * inv_h[1];
                dx * dx + dy * dy
            };
            let exact_mean = pts.iter().map(dist).sum::<f64>() / n;
            for p in &pts {
                assert!(dist(p) >= mn - 1e-12, "point {p:?} below u_min {mn}");
            }
            assert!(
                mean >= exact_mean && mean <= exact_mean * MEAN_ROUND_UP * (1.0 + 1e-12),
                "{mean} vs {exact_mean}"
            );
            assert!(mn <= mean);
        }
    }
}
