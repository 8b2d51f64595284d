//! Property tests for the work-stealing engine's determinism contract:
//!
//! * serial and work-stolen batch classification produce identical labels
//!   and identical merged `QueryStats` totals for any thread count,
//!   through both the borrowed and the zero-copy (`Arc`) entry points,
//! * repeated batches through the same classifier's pool (the serve
//!   request pattern) are stable — reuse changes nothing,
//! * `bound_threshold` returns bit-identical `ThresholdBounds` (and an
//!   identical diagnostics trajectory) for any thread count and seed.
//!
//! The shared classifier is fitted once (`OnceLock`): the properties vary
//! the *queries* and the *thread count*, not the model.

use tkdc_sync::{Arc, OnceLock};

use proptest::prelude::*;
use tkdc::bound::DensityBounds;
use tkdc::threshold::{bound_threshold, bound_threshold_with};
use tkdc::{Classifier, ExecPolicy, Params};
use tkdc_common::{Matrix, Rng};
use tkdc_index::KdTree;

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

/// Density bounds as exact bit patterns (f64 `==` would let a sign
/// flip on zero through).
fn bounds_bits(bounds: &[DensityBounds]) -> Vec<(u64, u64)> {
    bounds
        .iter()
        .map(|b| (b.lower.to_bits(), b.upper.to_bits()))
        .collect()
}

fn shared_classifier() -> &'static Classifier {
    static CLF: OnceLock<Classifier> = OnceLock::new();
    CLF.get_or_init(|| {
        let data = gaussian_blob(3000, 2, 211);
        Classifier::fit(&data, &Params::default()).expect("fit")
    })
}

fn shared_bootstrap_data() -> &'static Matrix {
    static DATA: OnceLock<Matrix> = OnceLock::new();
    DATA.get_or_init(|| gaussian_blob(1200, 2, 223))
}

/// Weighted fixture: a coreset-like model (non-uniform weights, ε > 0)
/// whose classify path produces all three labels including `Unknown`.
fn shared_weighted() -> &'static (Matrix, Vec<f64>, Classifier) {
    static W: OnceLock<(Matrix, Vec<f64>, Classifier)> = OnceLock::new();
    W.get_or_init(|| {
        let data = gaussian_blob(800, 2, 227);
        let mut rng = Rng::seed_from(229);
        let weights: Vec<f64> = (0..data.rows())
            .map(|_| 1.0 + 3.0 * rng.next_f64())
            .collect();
        let clf = Classifier::fit_weighted(&data, &weights, 0.02, &Params::default())
            .expect("weighted fit");
        (data, weights, clf)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batch_labels_and_stats_thread_invariant(
        seed in any::<u64>(),
        spread in 0.5f64..4.0,
        n_queries in 16usize..200,
    ) {
        let clf = shared_classifier();
        let queries = {
            let mut rng = Rng::seed_from(seed);
            let mut m = Matrix::with_cols(2);
            for _ in 0..n_queries {
                m.push_row(&[rng.normal(0.0, spread), rng.normal(0.0, spread)]).unwrap();
            }
            m
        };
        let (serial, s_stats) = clf
            .classify_batch_with(&queries, ExecPolicy::Serial)
            .expect("serial");
        let (s_bounds, sb_stats) = clf
            .bound_density_batch_with(&queries, ExecPolicy::Serial)
            .expect("serial bounds");
        for threads in [1usize, 2, 4, 8] {
            let (parallel, p_stats) = clf
                .classify_batch_with(&queries, ExecPolicy::with_threads(threads))
                .expect("parallel");
            prop_assert_eq!(&serial, &parallel, "labels diverged at {} threads", threads);
            prop_assert_eq!(s_stats, p_stats, "stats diverged at {} threads", threads);
            let (shared, sh_stats) = clf
                .classify_batch_shared(
                    Arc::new(queries.clone()),
                    ExecPolicy::Parallel { threads: Some(threads) },
                )
                .expect("shared");
            prop_assert_eq!(&serial, &shared, "shared labels diverged at {} threads", threads);
            prop_assert_eq!(s_stats, sh_stats, "shared stats diverged at {} threads", threads);
            let (bounds, b_stats) = clf
                .bound_density_batch_with(&queries, ExecPolicy::Parallel { threads: Some(threads) })
                .expect("bounds");
            prop_assert_eq!(bounds_bits(&bounds), bounds_bits(&s_bounds), "bounds diverged at {} threads", threads);
            prop_assert_eq!(sb_stats, b_stats, "bound stats diverged at {} threads", threads);
        }
    }

    /// Pool reuse is invisible in the results: the same classifier (and
    /// therefore the same parked worker pool) answering the same batch
    /// three times in a row — the `tkdc-serve` request pattern — returns
    /// identical labels and statistics every time, and they match a
    /// serial run.
    #[test]
    fn pool_reuse_is_result_invariant(
        seed in any::<u64>(),
        spread in 0.5f64..4.0,
        n_queries in 32usize..200,
    ) {
        let clf = shared_classifier();
        let queries = {
            let mut rng = Rng::seed_from(seed);
            let mut m = Matrix::with_cols(2);
            for _ in 0..n_queries {
                m.push_row(&[rng.normal(0.0, spread), rng.normal(0.0, spread)]).unwrap();
            }
            m
        };
        let (serial, s_stats) = clf
            .classify_batch_with(&queries, ExecPolicy::Serial)
            .expect("serial");
        for batch in 0..3 {
            let (pooled, p_stats) = clf
                .classify_batch_with(&queries, ExecPolicy::with_threads(4))
                .expect("pooled");
            prop_assert_eq!(&serial, &pooled, "pool batch {} diverged from serial", batch);
            prop_assert_eq!(s_stats, p_stats, "pool stats {} diverged from serial", batch);
        }
    }

    /// The weighted-fit density pass runs through the same work-stealing
    /// engine; its threshold (a weighted quantile over index-ordered
    /// densities) must be bit-identical for every thread count, and the
    /// ε-folded classify path — `Unknown`s included — thread-invariant.
    #[test]
    fn weighted_fit_and_classify_thread_invariant(
        seed in any::<u64>(),
        spread in 0.5f64..4.0,
        n_queries in 16usize..120,
    ) {
        let (data, weights, clf1) = shared_weighted();
        for threads in [2usize, 4, 8] {
            let clft = Classifier::fit_weighted_with(
                data, weights, 0.02, &Params::default(), ExecPolicy::with_threads(threads),
            ).expect("weighted fit");
            // Bit-identical: f64 equality is the contract under test.
            prop_assert_eq!(
                clf1.threshold().to_bits(),
                clft.threshold().to_bits(),
                "weighted threshold diverged at {} threads", threads
            );
        }
        let queries = {
            let mut rng = Rng::seed_from(seed);
            let mut m = Matrix::with_cols(2);
            for _ in 0..n_queries {
                m.push_row(&[rng.normal(0.0, spread), rng.normal(0.0, spread)]).unwrap();
            }
            m
        };
        let (serial, s_stats) = clf1
            .classify_batch_with(&queries, ExecPolicy::Serial)
            .expect("serial");
        for threads in [2usize, 4, 8] {
            let (parallel, p_stats) = clf1
                .classify_batch_with(&queries, ExecPolicy::with_threads(threads))
                .expect("parallel");
            prop_assert_eq!(&serial, &parallel, "weighted labels diverged at {} threads", threads);
            prop_assert_eq!(s_stats, p_stats, "weighted stats diverged at {} threads", threads);
        }
    }

    #[test]
    fn bound_threshold_bit_identical_across_threads(seed in any::<u64>()) {
        let data = shared_bootstrap_data();
        let params = Params::default().with_seed(seed);
        let (serial, s_report) = bound_threshold(data, &params).expect("serial");
        for threads in [2usize, 4, 8] {
            let (parallel, p_report) =
                bound_threshold_with(data, &params, ExecPolicy::with_threads(threads))
                    .expect("parallel");
            // Bit-identical: f64 equality through the PartialEq derive.
            prop_assert_eq!(serial, parallel, "bounds diverged at {} threads", threads);
            prop_assert_eq!(&s_report.rounds, &p_report.rounds);
            prop_assert_eq!(s_report.backoffs, p_report.backoffs);
            prop_assert_eq!(s_report.stats, p_report.stats);
        }
    }
}

/// A coreset-model batch over a fixed mix of held-out, threshold-band
/// and tail queries: the ε-folded classify path stops UNKNOWN queries by
/// its `straddle` exit, and labels and every counter, `straddle`
/// included, are bit-identical at every thread count.
#[test]
fn coreset_batch_with_straddles_thread_invariant() {
    let (_, _, clf) = shared_weighted();
    let mut rng = Rng::seed_from(233);
    let mut queries = Matrix::with_cols(2);
    for i in 0..600 {
        let spread = [1.0, 2.4, 5.0][i % 3];
        queries
            .push_row(&[rng.normal(0.0, spread), rng.normal(0.0, spread)])
            .unwrap();
    }
    let (serial, s_stats) = clf
        .classify_batch_with(&queries, ExecPolicy::Serial)
        .expect("serial");
    let unknown = serial
        .iter()
        .filter(|l| matches!(l, tkdc::Label::Unknown))
        .count() as u64;
    assert!(s_stats.straddle > 0, "{s_stats:?}");
    assert!(
        s_stats.straddle <= unknown,
        "{s_stats:?} vs {unknown} unknown"
    );
    for threads in [2usize, 4, 8] {
        let (labels, stats) = clf
            .classify_batch_with(&queries, ExecPolicy::with_threads(threads))
            .expect("parallel");
        assert_eq!(labels, serial, "labels diverged at {threads} threads");
        assert_eq!(stats, s_stats, "stats diverged at {threads} threads");
    }
}

/// Rows of an N(0, I₂) sample drawn from `seed` (the generator the
/// pinned threshold bits below were recorded with).
fn normal_2d(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from(seed);
    let mut m = Matrix::with_cols(2);
    for _ in 0..n {
        m.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)])
            .unwrap();
    }
    m
}

/// The unweighted tree fit end to end: the bootstrap, the reused
/// full-data tree and the training-density pass all run on the pool, and
/// every output is bit-identical at every thread count. The model's
/// index is exactly a fresh build over the data, and the thresholds
/// equal pinned bits. They were recorded when node lower bounds became
/// the Jensen bound `W·K(ū)`: a tighter bound moves which nodes the
/// bootstrap and the training pass refine, so t̃ moved in its seventh
/// significant digit.
#[test]
fn unweighted_fit_bit_identical_across_threads() {
    // Second case: the bootstrap backs off at `r == n` (rounds end
    // `[…, 900, 900]`), so the retry reuses the full-data tree.
    let cases = [
        (gaussian_blob(3000, 2, 251), 7, 0x3f57_d767_556a_e0a4_u64, 1),
        (normal_2d(900, 188), 188, 0x3f50_e2ff_fd23_8833_u64, 2),
    ];
    for (data, seed, pinned_bits, full_rounds) in cases {
        let params = Params::default().with_seed(seed);
        let serial = Classifier::fit_with(&data, &params, ExecPolicy::Serial).expect("serial fit");
        let s = serial.fit_report();
        assert_eq!(serial.threshold().to_bits(), pinned_bits, "seed {seed}");
        let n = data.rows();
        let at_n = s.bootstrap.rounds.iter().filter(|&&r| r == n).count();
        assert_eq!(at_n, full_rounds, "seed {seed}: {:?}", s.bootstrap.rounds);

        let fresh = KdTree::build(&data, params.leaf_size, params.opts.split_rule()).expect("tree");
        let tree = serial.tree().expect("tree backend");
        assert!(
            tree.to_raw_parts() == fresh.to_raw_parts(),
            "seed {seed}: model tree differs"
        );

        for threads in [2usize, 4, 8] {
            let par = Classifier::fit_with(&data, &params, ExecPolicy::with_threads(threads))
                .expect("parallel fit");
            let p = par.fit_report();
            let at = format!("seed {seed}, {threads} threads");
            assert_eq!(
                serial.threshold().to_bits(),
                par.threshold().to_bits(),
                "{at}"
            );
            assert_eq!(
                s.threshold_bounds.lower.to_bits(),
                p.threshold_bounds.lower.to_bits(),
                "{at}"
            );
            assert_eq!(
                s.threshold_bounds.upper.to_bits(),
                p.threshold_bounds.upper.to_bits(),
                "{at}"
            );
            assert_eq!(s.training_stats, p.training_stats, "{at}");
            assert_eq!(s.threshold_reestimates, p.threshold_reestimates, "{at}");
            assert_eq!(s.bootstrap.rounds, p.bootstrap.rounds, "{at}");
            assert_eq!(s.bootstrap.backoffs, p.bootstrap.backoffs, "{at}");
            assert_eq!(s.bootstrap.stats, p.bootstrap.stats, "{at}");
        }
    }
}
