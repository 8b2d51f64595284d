//! Bounding-box distance computations.
//!
//! For a query point `x` and an axis-aligned box `[lo, hi]`, the minimum
//! and maximum displacement per dimension give the distance vectors
//! `d_min` and `d_max` of Eq. 6 in the paper. All distances here are
//! computed in *bandwidth-scaled* space (each axis divided by `h_i`), so
//! the results feed `Kernel::eval_scaled_sq` directly: the kernel of the
//! minimum distance upper-bounds, and of the maximum distance
//! lower-bounds, the density contribution of every point inside the box.

/// Per-axis `(near, far)` displacement of `x` from the interval
/// `[lo, hi]`, without a data-dependent branch.
///
/// With `a = lo − x` and `b = x − hi`, at most one of `a`, `b` is
/// positive on a box with `lo ≤ hi`, so `near = max(a, 0) + max(b, 0)`
/// is the gap outside the interval (adding the other side's `0.0` is
/// exact) and `far = max(|a|, |b|)` is the distance to the farther face
/// (`|a| = |x − lo|` exactly). `f64::max` returns the non-NaN operand,
/// so a NaN coordinate gives `near = 0`, as a failed `x < lo` /
/// `x > hi` comparison does.
#[inline(always)]
fn axis_gaps(x: f64, lo: f64, hi: f64) -> (f64, f64) {
    let a = lo - x;
    let b = x - hi;
    (a.max(0.0) + b.max(0.0), a.abs().max(b.abs()))
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
        let z = axis_gaps(xi, l, u).0 * s;
        acc += z * z;
    }
    acc
}

/// Scaled squared distance from `x` to the *farthest* corner of the box.
#[inline]
pub fn max_scaled_sq_dist(x: &[f64], lo: &[f64], hi: &[f64], inv_h: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), lo.len());
    debug_assert_eq!(x.len(), hi.len());
    debug_assert_eq!(x.len(), inv_h.len());
    let mut acc = 0.0;
    for i in 0..x.len() {
        let d = (x[i] - lo[i]).abs().max((hi[i] - x[i]).abs());
        let z = d * inv_h[i];
        acc += z * z;
    }
    acc
}

/// Both bounds at once: `(min_scaled_sq_dist, max_scaled_sq_dist)` in a
/// single branch-free pass over the box, for the traversal's node
/// bounds. Both sums accumulate in dimension order, so the result equals
/// the two single-sided functions bit for bit on every box the tree
/// builder produces (`lo ≤ hi` per axis, or the `(+∞, −∞)` box of an
/// all-NaN axis), NaN query coordinates, `±0` and `lo == hi` included.
#[inline]
pub fn scaled_sq_dist_bounds(x: &[f64], lo: &[f64], hi: &[f64], inv_h: &[f64]) -> (f64, f64) {
    debug_assert_eq!(x.len(), lo.len());
    debug_assert_eq!(x.len(), hi.len());
    debug_assert_eq!(x.len(), inv_h.len());
    let mut u_min = 0.0;
    let mut u_max = 0.0;
    for (((&xi, &l), &u), &s) in x.iter().zip(lo).zip(hi).zip(inv_h) {
        let (near, far) = axis_gaps(xi, l, u);
        let (zn, zf) = (near * s, far * s);
        u_min += zn * zn;
        u_max += zf * zf;
    }
    (u_min, u_max)
}

/// Scaled squared distance between the *nearest* pair of points of two
/// boxes (zero when they overlap). Foundation of the dual-tree batch
/// classifier: the kernel of this distance upper-bounds the contribution
/// of any reference point in box B to any query point in box A.
#[inline]
pub fn min_scaled_sq_dist_boxes(
    a_lo: &[f64],
    a_hi: &[f64],
    b_lo: &[f64],
    b_hi: &[f64],
    inv_h: &[f64],
) -> f64 {
    debug_assert_eq!(a_lo.len(), b_lo.len());
    let mut acc = 0.0;
    for i in 0..a_lo.len() {
        // Gap between the intervals [a_lo, a_hi] and [b_lo, b_hi].
        let gap = (b_lo[i] - a_hi[i]).max(a_lo[i] - b_hi[i]).max(0.0);
        let z = gap * inv_h[i];
        acc += z * z;
    }
    acc
}

/// Scaled squared distance between the *farthest* pair of points of two
/// boxes.
#[inline]
pub fn max_scaled_sq_dist_boxes(
    a_lo: &[f64],
    a_hi: &[f64],
    b_lo: &[f64],
    b_hi: &[f64],
    inv_h: &[f64],
) -> f64 {
    debug_assert_eq!(a_lo.len(), b_lo.len());
    let mut acc = 0.0;
    for i in 0..a_lo.len() {
        let d = (b_hi[i] - a_lo[i]).max(a_hi[i] - b_lo[i]);
        let z = d * inv_h[i];
        acc += z * z;
    }
    acc
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-value asserts are deliberate in tests
mod tests {
    use super::*;

    const UNIT: [f64; 2] = [1.0, 1.0];

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
    fn max_dist_hits_far_corner() {
        let lo = [0.0, 0.0];
        let hi = [2.0, 2.0];
        // From the origin corner the far corner is (2,2).
        assert_eq!(max_scaled_sq_dist(&[0.0, 0.0], &lo, &hi, &UNIT), 8.0);
        // From the center each axis contributes 1.
        assert_eq!(max_scaled_sq_dist(&[1.0, 1.0], &lo, &hi, &UNIT), 2.0);
        // From outside, distances add.
        assert_eq!(max_scaled_sq_dist(&[3.0, 1.0], &lo, &hi, &UNIT), 9.0 + 1.0);
    }

    #[test]
    fn min_never_exceeds_max() {
        let lo = [-1.0, 0.5, 2.0];
        let hi = [1.0, 1.5, 4.0];
        let inv_h = [1.0, 2.0, 0.5];
        for &x in &[
            [0.0, 1.0, 3.0],
            [5.0, -2.0, 0.0],
            [-3.0, 1.0, 10.0],
            [1.0, 1.5, 4.0],
        ] {
            let mn = min_scaled_sq_dist(&x, &lo, &hi, &inv_h);
            let mx = max_scaled_sq_dist(&x, &lo, &hi, &inv_h);
            assert!(mn <= mx, "min {mn} > max {mx} for {x:?}");
        }
    }

    #[test]
    fn bandwidth_scaling_applies() {
        let lo = [2.0];
        let hi = [4.0];
        let inv_h = [0.5]; // h = 2
                           // x = 0: min gap 2 → scaled 1; far corner gap 4 → scaled 2.
        assert_eq!(min_scaled_sq_dist(&[0.0], &lo, &hi, &inv_h), 1.0);
        assert_eq!(max_scaled_sq_dist(&[0.0], &lo, &hi, &inv_h), 4.0);
    }

    #[test]
    fn degenerate_box_is_a_point() {
        let lo = [1.0, 2.0];
        let hi = [1.0, 2.0];
        let q = [4.0, 6.0];
        let expected = 9.0 + 16.0;
        assert_eq!(min_scaled_sq_dist(&q, &lo, &hi, &UNIT), expected);
        assert_eq!(max_scaled_sq_dist(&q, &lo, &hi, &UNIT), expected);
    }

    #[test]
    fn box_to_box_overlapping_min_is_zero() {
        let a_lo = [0.0, 0.0];
        let a_hi = [2.0, 2.0];
        let b_lo = [1.0, 1.0];
        let b_hi = [3.0, 3.0];
        assert_eq!(
            min_scaled_sq_dist_boxes(&a_lo, &a_hi, &b_lo, &b_hi, &UNIT),
            0.0
        );
    }

    #[test]
    fn box_to_box_disjoint_gap() {
        let a_lo = [0.0, 0.0];
        let a_hi = [1.0, 1.0];
        let b_lo = [3.0, 0.0];
        let b_hi = [4.0, 1.0];
        // Gap of 2 along x only.
        assert_eq!(
            min_scaled_sq_dist_boxes(&a_lo, &a_hi, &b_lo, &b_hi, &UNIT),
            4.0
        );
        // Farthest corners: (0,0)↔(4,1): 16+1.
        assert_eq!(
            max_scaled_sq_dist_boxes(&a_lo, &a_hi, &b_lo, &b_hi, &UNIT),
            17.0
        );
    }

    #[test]
    fn box_to_box_sandwiches_point_pairs() {
        let a_lo = [-1.0, 0.0];
        let a_hi = [1.0, 2.0];
        let b_lo = [2.0, -3.0];
        let b_hi = [5.0, 1.0];
        let inv_h = [0.8, 1.4];
        let mn = min_scaled_sq_dist_boxes(&a_lo, &a_hi, &b_lo, &b_hi, &inv_h);
        let mx = max_scaled_sq_dist_boxes(&a_lo, &a_hi, &b_lo, &b_hi, &inv_h);
        for i in 0..=4 {
            for j in 0..=4 {
                let p = [
                    a_lo[0] + (a_hi[0] - a_lo[0]) * i as f64 / 4.0,
                    a_lo[1] + (a_hi[1] - a_lo[1]) * j as f64 / 4.0,
                ];
                for k in 0..=4 {
                    for l in 0..=4 {
                        let q = [
                            b_lo[0] + (b_hi[0] - b_lo[0]) * k as f64 / 4.0,
                            b_lo[1] + (b_hi[1] - b_lo[1]) * l as f64 / 4.0,
                        ];
                        let dx = (p[0] - q[0]) * inv_h[0];
                        let dy = (p[1] - q[1]) * inv_h[1];
                        let d = dx * dx + dy * dy;
                        assert!(d >= mn - 1e-12 && d <= mx + 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn box_to_box_degenerates_to_point_to_box() {
        // A zero-volume query box must match the point-to-box bounds.
        let q = [1.5, -0.5];
        let b_lo = [2.0, 0.0];
        let b_hi = [4.0, 3.0];
        let inv_h = [1.0, 2.0];
        assert_eq!(
            min_scaled_sq_dist_boxes(&q, &q, &b_lo, &b_hi, &inv_h),
            min_scaled_sq_dist(&q, &b_lo, &b_hi, &inv_h)
        );
        assert_eq!(
            max_scaled_sq_dist_boxes(&q, &q, &b_lo, &b_hi, &inv_h),
            max_scaled_sq_dist(&q, &b_lo, &b_hi, &inv_h)
        );
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
    fn fused_bounds_match_single_sided_bitwise() {
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
                let mut x: Vec<f64> = (0..d)
                    .map(|i| query_coord(&mut rng, lo[i], hi[i]))
                    .collect();
                // Every fifth query sits on a box corner.
                if case % 5 == 0 {
                    for i in 0..d {
                        x[i] = if rng.next_below(2) == 0 { lo[i] } else { hi[i] };
                    }
                }
                let (mn, mx) = scaled_sq_dist_bounds(&x, &lo, &hi, &inv_h);
                let want_mn = min_scaled_sq_dist(&x, &lo, &hi, &inv_h);
                let want_mx = max_scaled_sq_dist(&x, &lo, &hi, &inv_h);
                let oracle_mn = branchy_min_scaled_sq_dist(&x, &lo, &hi, &inv_h);
                let ctx = format!("d={d} x={x:?} lo={lo:?} hi={hi:?}");
                assert_eq!(want_mn.to_bits(), oracle_mn.to_bits(), "min: {ctx}");
                assert_eq!(mn.to_bits(), want_mn.to_bits(), "fused min: {ctx}");
                assert_eq!(mx.to_bits(), want_mx.to_bits(), "fused max: {ctx}");
            }
        }
    }

    #[test]
    fn fused_bounds_match_on_the_empty_axis_box() {
        // An axis whose points are all NaN keeps the builder's initial
        // (+∞, −∞) box; the fused form must agree there too.
        let lo = [f64::INFINITY, 0.0];
        let hi = [f64::NEG_INFINITY, 1.0];
        let inv_h = [1.0, 1.0];
        for x0 in [0.0, -0.0, 5.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let x = [x0, 0.5];
            let (mn, mx) = scaled_sq_dist_bounds(&x, &lo, &hi, &inv_h);
            let want_mn = branchy_min_scaled_sq_dist(&x, &lo, &hi, &inv_h);
            assert_eq!(mn.to_bits(), want_mn.to_bits(), "min at {x0}");
            assert_eq!(
                min_scaled_sq_dist(&x, &lo, &hi, &inv_h).to_bits(),
                want_mn.to_bits()
            );
            let want_mx = max_scaled_sq_dist(&x, &lo, &hi, &inv_h);
            assert_eq!(mx.to_bits(), want_mx.to_bits(), "max at {x0}");
        }
    }

    #[test]
    fn bounds_sandwich_every_contained_point() {
        // Randomized sanity: distances to actual points inside the box lie
        // within [min, max].
        let lo = [0.0, -1.0];
        let hi = [3.0, 1.0];
        let inv_h = [0.7, 1.3];
        let q = [5.0, 0.0];
        let mn = min_scaled_sq_dist(&q, &lo, &hi, &inv_h);
        let mx = max_scaled_sq_dist(&q, &lo, &hi, &inv_h);
        // Grid of points inside the box.
        for i in 0..=6 {
            for j in 0..=6 {
                let p = [
                    lo[0] + (hi[0] - lo[0]) * i as f64 / 6.0,
                    lo[1] + (hi[1] - lo[1]) * j as f64 / 6.0,
                ];
                let dx = (q[0] - p[0]) * inv_h[0];
                let dy = (q[1] - p[1]) * inv_h[1];
                let d = dx * dx + dy * dy;
                assert!(d >= mn - 1e-12 && d <= mx + 1e-12, "point {p:?} dist {d}");
            }
        }
    }
}
