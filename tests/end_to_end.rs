//! Cross-crate integration tests: full tKDC pipeline against exact-KDE
//! ground truth on multiple synthetic datasets and dimensionalities.

use tkdc::{Classifier, ExecPolicy, Label, Params};
use tkdc_baselines::{DensityEstimator, NaiveKde};
use tkdc_common::stats::BinaryScore;
use tkdc_common::Matrix;
use tkdc_data::{DatasetKind, DatasetSpec};
use tkdc_kernel::KernelKind;

/// Exact ground truth: below-threshold labels from naive densities.
///
/// Note the Eq. 1 asymmetry: the self-contribution `f₀` is subtracted
/// only when *estimating* the threshold; classification (Algorithm 1)
/// compares the raw density against `t`.
fn ground_truth(data: &Matrix, p: f64) -> (Vec<bool>, Vec<f64>, f64) {
    let kde = NaiveKde::fit(data, KernelKind::Gaussian, 1.0).unwrap();
    let t = kde.estimate_threshold(data, p).unwrap();
    let densities: Vec<f64> = data.iter_rows().map(|x| kde.density(x).unwrap()).collect();
    let labels = densities.iter().map(|&d| d < t).collect();
    (labels, densities, t)
}

/// F1 of tKDC's LOW class vs ground truth, excluding the ε-band where
/// Problem 1 leaves behaviour undefined.
fn banded_f1(data: &Matrix, p: f64, eps: f64, seed: u64) -> (f64, usize) {
    let (truth, densities, t) = ground_truth(data, p);
    let params = Params::default().with_p(p).with_seed(seed);
    let clf = Classifier::fit(data, &params).unwrap();
    let (labels, _) = clf.classify_batch_with(data, ExecPolicy::Serial).unwrap();
    // Keep only points clearly outside the ±εt ambiguity band around
    // BOTH the exact threshold and the estimated threshold.
    let t_est = clf.threshold();
    let band = |d: f64| (d - t).abs() > 3.0 * eps * t && (d - t_est).abs() > 3.0 * eps * t_est;
    let mut truth_k = Vec::new();
    let mut pred_k = Vec::new();
    for i in 0..data.rows() {
        if band(densities[i]) {
            truth_k.push(truth[i]);
            pred_k.push(labels[i] == Label::Low);
        }
    }
    let kept = truth_k.len();
    (BinaryScore::from_labels(&truth_k, &pred_k).f1(), kept)
}

#[test]
fn tkdc_matches_ground_truth_on_gauss_2d() {
    let data = DatasetSpec {
        kind: DatasetKind::Gauss { d: 2 },
        n: 3000,
        seed: 1,
    }
    .generate()
    .unwrap();
    let (f1, kept) = banded_f1(&data, 0.01, 0.01, 11);
    assert!(kept > 2500, "band should exclude few points, kept {kept}");
    assert!(f1 > 0.99, "F1 {f1}");
}

#[test]
fn tkdc_matches_ground_truth_on_tmy3_4d() {
    let data = DatasetSpec {
        kind: DatasetKind::Tmy3,
        n: 2500,
        seed: 2,
    }
    .generate()
    .unwrap()
    .prefix_columns(4)
    .unwrap();
    let (f1, kept) = banded_f1(&data, 0.01, 0.01, 13);
    assert!(kept > 2000, "kept {kept}");
    assert!(f1 > 0.99, "F1 {f1}");
}

#[test]
fn tkdc_matches_ground_truth_on_shuttle_9d() {
    let data = DatasetSpec {
        kind: DatasetKind::Shuttle,
        n: 2000,
        seed: 3,
    }
    .generate()
    .unwrap();
    let (f1, kept) = banded_f1(&data, 0.01, 0.01, 17);
    assert!(kept > 1500, "kept {kept}");
    assert!(f1 > 0.98, "F1 {f1}");
}

#[test]
fn tkdc_handles_larger_p() {
    let data = DatasetSpec {
        kind: DatasetKind::Home,
        n: 2000,
        seed: 4,
    }
    .generate()
    .unwrap()
    .prefix_columns(4)
    .unwrap();
    let (f1, _) = banded_f1(&data, 0.25, 0.01, 19);
    assert!(f1 > 0.97, "F1 {f1}");
}

#[test]
fn low_fraction_tracks_p_across_datasets() {
    for (kind, seed) in [
        (DatasetKind::Gauss { d: 2 }, 5u64),
        (DatasetKind::Galaxy, 6),
        (DatasetKind::Iris, 7),
    ] {
        let data = DatasetSpec {
            kind,
            n: 4000,
            seed,
        }
        .generate()
        .unwrap();
        let p = 0.05;
        let clf = Classifier::fit(&data, &Params::default().with_p(p).with_seed(seed)).unwrap();
        let (labels, _) = clf.classify_batch_with(&data, ExecPolicy::Serial).unwrap();
        let low = labels.iter().filter(|&&l| l == Label::Low).count();
        let frac = low as f64 / labels.len() as f64;
        assert!(
            (frac - p).abs() < 0.025,
            "{kind:?}: LOW fraction {frac} vs p {p}"
        );
    }
}

#[test]
fn moderate_dimension_hep_works() {
    // 16-d prefix of hep: no grid, pure tree pruning.
    let data = DatasetSpec {
        kind: DatasetKind::Hep,
        n: 1500,
        seed: 8,
    }
    .generate()
    .unwrap()
    .prefix_columns(16)
    .unwrap();
    let clf = Classifier::fit(&data, &Params::default().with_seed(23)).unwrap();
    assert!(!clf.grid_enabled());
    let (labels, stats) = clf.classify_batch_with(&data, ExecPolicy::Serial).unwrap();
    let low = labels.iter().filter(|&&l| l == Label::Low).count();
    assert!((low as f64 / labels.len() as f64 - 0.01).abs() < 0.02);
    assert!(stats.queries == 1500);
}

#[test]
fn pca_reduced_mnist_pipeline() {
    // The full paper pipeline for mnist: generate images → PCA → tKDC.
    let data = DatasetSpec {
        kind: DatasetKind::Mnist { pca_dims: Some(16) },
        n: 1200,
        seed: 9,
    }
    .generate()
    .unwrap();
    assert_eq!(data.cols(), 16);
    // PCA output needs a larger bandwidth to avoid underflow (appendix).
    let params = Params::default().with_bandwidth_factor(3.0).with_seed(29);
    let clf = Classifier::fit(&data, &params).unwrap();
    let (labels, _) = clf.classify_batch_with(&data, ExecPolicy::Serial).unwrap();
    let low = labels.iter().filter(|&&l| l == Label::Low).count();
    let frac = low as f64 / labels.len() as f64;
    assert!((frac - 0.01).abs() < 0.03, "LOW fraction {frac}");
}

/// N(0, I) rows in `d` dimensions.
fn standard_normal(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = tkdc_common::Rng::seed_from(seed);
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
fn fitted_threshold_matches_exact_self_corrected_quantile() {
    // t(p) is the p-quantile of f(x) − K(0)/n over the training rows
    // (Eq. 1). At d ≥ 4 that self-contribution is hundreds to thousands
    // of times t, so a fit whose cuts or precision act on the raw
    // density f(x) overshoots t by a wide margin; the fit's ε cuts on the
    // corrected density keep t̃ within ε of the exact quantile. The
    // weighted fit with unit weights and no coreset error is the same
    // KDE, so it is held to the same bound.
    let p = 0.01;
    for (n, d, seed) in [(3000, 8, 71), (5000, 4, 73)] {
        let data = standard_normal(n, d, seed);
        let kde = NaiveKde::fit(&data, KernelKind::Gaussian, 1.0).unwrap();
        let exact = kde.estimate_threshold(&data, p).unwrap();
        assert!(exact > 0.0, "n={n} d={d}: exact t(p) = {exact}");
        let params = Params::default().with_p(p).with_seed(seed);
        let eps = params.epsilon;
        let fitted = Classifier::fit(&data, &params).unwrap().threshold();
        let weighted = Classifier::fit_weighted(&data, &vec![1.0; n], 0.0, &params)
            .unwrap()
            .threshold();
        for (name, t) in [("fit", fitted), ("fit_weighted", weighted)] {
            assert!(
                (t / exact - 1.0).abs() <= eps,
                "{name} n={n} d={d}: t̃ = {t} vs exact t(p) = {exact} ({:+.2}%)",
                100.0 * (t / exact - 1.0)
            );
        }
    }
}
