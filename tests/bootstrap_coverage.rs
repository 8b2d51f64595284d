//! Statistical validation of the threshold bootstrap's probabilistic
//! guarantee: with probability at least `1 − δ`, the returned bounds
//! bracket the exact quantile threshold `t(p)` (paper §3.5–3.6).

use tkdc::threshold::bound_threshold;
use tkdc::Params;
use tkdc_baselines::{DensityEstimator, NaiveKde};
use tkdc_common::{Matrix, Rng};
use tkdc_kernel::KernelKind;

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

#[test]
fn bounds_cover_exact_threshold_across_seeds() {
    // δ = 0.05 per run; over 25 independent runs the expected number of
    // misses is ~1.25, so requiring ≥ 21 hits gives a test with
    // negligible flake probability while still catching systematic
    // coverage failures. At d = 8 each row's own kernel mass K(0)/n is
    // far above t(p), so the bounds only cover t(p) when the bootstrap's
    // cuts act on the self-corrected density.
    let trials = 25;
    let n = 700;
    let p = 0.05;
    for d in [2, 8] {
        let mut hits = 0;
        for trial in 0..trials {
            let data = blob(n, d, 1000 + trial);
            let mut params = Params::default().with_p(p).with_seed(trial * 7 + 1);
            params.delta = 0.05;
            let (bounds, _) = bound_threshold(&data, &params).unwrap();

            // Exact t(p) from naive densities.
            let kde = NaiveKde::fit(&data, KernelKind::Gaussian, 1.0).unwrap();
            let exact = kde.estimate_threshold(&data, p).unwrap();

            // Allow the ±ε slack Problem 1 grants the estimates.
            let eps = params.epsilon;
            if exact >= bounds.lower * (1.0 - 2.0 * eps)
                && exact <= bounds.upper * (1.0 + 2.0 * eps)
            {
                hits += 1;
            }
        }
        assert!(
            hits >= 21,
            "d={d}: bootstrap bounds covered the exact threshold only {hits}/{trials} times"
        );
    }
}

#[test]
fn bounds_tighten_with_smaller_p_spread() {
    // The CI width is driven by the order-statistic spread; for the same
    // data, bounds at p=0.5 (densely populated quantile region) are
    // relatively tighter than at p=0.01 (sparse tail).
    let data = blob(3000, 2, 5);
    let (tail, _) = bound_threshold(&data, &Params::default().with_p(0.01).with_seed(2)).unwrap();
    let (median, _) = bound_threshold(&data, &Params::default().with_p(0.5).with_seed(2)).unwrap();
    let rel = |b: tkdc::ThresholdBounds| (b.upper - b.lower) / b.lower.max(1e-300);
    assert!(
        rel(median) < rel(tail),
        "median-quantile CI should be relatively tighter: {} vs {}",
        rel(median),
        rel(tail)
    );
}
