//! Special functions: error function, standard normal CDF, and the
//! standard normal quantile (inverse CDF).
//!
//! The quantile `z_p` feeds the order-statistic confidence intervals of the
//! threshold bootstrap (Eq. 11 of the paper), so its accuracy directly
//! determines the validity of the `1 − δ` confidence bounds on `t(p)`.

/// Error function `erf(x)`, accurate to ~1e-14 relative error.
///
/// Computed through the regularized lower incomplete gamma function:
/// `erf(x) = sign(x) · P(1/2, x²)`, using the standard series expansion
/// for small arguments and the Lentz continued fraction for large ones.
#[allow(clippy::float_cmp)] // exact ±0 fast path below is intentional
pub fn erf(x: f64) -> f64 {
    // erf(±0) = ±0 exactly; bit-exact compare intended.
    // tkdc-lint: allow(float-eq)
    if x == 0.0 {
        return 0.0;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    sign * gamma_p(0.5, x * x)
}

/// Complementary error function `erfc(x) = 1 - erf(x)`, computed directly
/// from the upper incomplete gamma fraction for positive arguments so that
/// deep tails keep relative precision instead of cancelling to zero.
pub fn erfc(x: f64) -> f64 {
    if x <= 0.0 {
        return 1.0 + erf(-x); // erf is odd, so this equals 1 - erf(x)
    }
    gamma_q(0.5, x * x)
}

/// Regularized lower incomplete gamma `P(a, x)`.
#[allow(clippy::float_cmp)] // exact-zero fast path below is intentional
fn gamma_p(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && x >= 0.0);
    // P(a, 0) = 0 exactly; bit-exact compare intended.
    // tkdc-lint: allow(float-eq)
    if x == 0.0 {
        0.0
    } else if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 - P(a, x)`.
#[allow(clippy::float_cmp)] // exact-zero fast path below is intentional
fn gamma_q(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && x >= 0.0);
    // Q(a, 0) = 1 exactly; bit-exact compare intended.
    // tkdc-lint: allow(float-eq)
    if x == 0.0 {
        1.0
    } else if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series expansion of `P(a, x)` — converges fast for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * f64::EPSILON {
            break;
        }
    }
    sum * (-x + a * x.ln() - crate::order::ln_gamma(a)).exp()
}

/// Modified Lentz continued fraction for `Q(a, x)` — converges fast for
/// `x ≥ a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < f64::EPSILON {
            break;
        }
    }
    (-x + a * x.ln() - crate::order::ln_gamma(a)).exp() * h
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal quantile function `Φ⁻¹(p)` (a.k.a. probit, `z_p`).
///
/// Implements Acklam's rational approximation (relative error below
/// `1.15e-9` over the full open unit interval) followed by one Halley
/// refinement step, which brings the result to near machine precision.
///
/// # Panics
/// Panics when `p` is outside the open interval `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile requires p in (0,1), got {p}"
    );

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step against the exact CDF sharpens the tail estimates.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Standard normal probability density function `φ(x)`.
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        // Reference values from standard tables.
        assert!((erf(0.0)).abs() < 1e-12);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for i in 0..100 {
            let x = i as f64 * 0.1;
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
            assert!(erf(x).abs() <= 1.0);
        }
    }

    #[test]
    fn erfc_complements() {
        for i in -30..30 {
            let x = i as f64 * 0.2;
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_cdf_symmetry() {
        for i in 0..40 {
            let x = i as f64 * 0.25;
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-10);
        }
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_known_values() {
        // z_{0.975} = 1.959964, z_{0.99} = 2.326348, z_{0.995} = 2.575829
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.99) - 2.326348).abs() < 1e-4);
        assert!((normal_quantile(0.995) - 2.575829).abs() < 1e-4);
        assert!((normal_quantile(0.5)).abs() < 1e-8);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for i in 1..99 {
            let p = i as f64 / 100.0;
            let x = normal_quantile(p);
            assert!(
                (normal_cdf(x) - p).abs() < 1e-7,
                "p={p} x={x} cdf={}",
                normal_cdf(x)
            );
        }
    }

    #[test]
    fn quantile_tails() {
        // Deep tails should still round-trip reasonably.
        for &p in &[1e-6, 1e-4, 1.0 - 1e-4, 1.0 - 1e-6] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() / p.min(1.0 - p) < 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "normal_quantile requires p in (0,1)")]
    fn quantile_rejects_zero() {
        normal_quantile(0.0);
    }

    #[test]
    fn pdf_peak_and_symmetry() {
        assert!((normal_pdf(0.0) - 0.3989422804).abs() < 1e-9);
        assert!((normal_pdf(1.5) - normal_pdf(-1.5)).abs() < 1e-15);
    }
}
