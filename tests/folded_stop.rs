//! Property tests for the ε-folded (coreset) classify stop.
//!
//! A coreset model labels by the interval `[max(f_l − ea, 0), f_u + ea]`
//! with `ea = ε·K(0)`: HIGH above the threshold `t`, LOW below it, and
//! UNKNOWN when it straddles. Its classify traversal
//! (`DensityBounder::bound_density_folded`) stops as soon as that
//! three-way label is decided, while `bound_density_with` keeps
//! Algorithm 2's stop. On weighted fits with `ea/t` ≫ 1, ≈ 1 and ≪ 1
//! (LOW is reachable only where `t − ea > 0`), over
//! held-out, tail and threshold-shell queries:
//!
//! * `classify_with` returns the folded label of `bound_density_with`;
//! * its per-query kernel evaluations, bound evaluations and node
//!   expansions never exceed that run's;
//! * the folded interval contains `[max(f − ea, 0), f + ea]` for the
//!   exact weighted density `f`, so it still certifies the full data.

use tkdc_sync::OnceLock;

use proptest::prelude::*;
use tkdc::bound::{DensityBounder, DensityBounds};
use tkdc::{Classifier, Label, Params, QueryScratch, QueryStats};
use tkdc_common::{Matrix, Rng};

/// `ea/t` for each fitted model: the straddle-dominated coreset regime,
/// either side of the crossover (LOW becomes reachable below 1), and the
/// regime where the fold is a small correction.
const FOLD_OVER_T: [f64; 4] = [16.0, 1.25, 0.8, 0.05];

fn gaussian_blob(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from(seed);
    let mut m = Matrix::with_cols(2);
    for _ in 0..n {
        m.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)])
            .unwrap();
    }
    m
}

/// One weighted fit per entry of [`FOLD_OVER_T`]. The threshold does not
/// depend on the coreset ε, so a probe fit fixes `t` and `K(0)` and each
/// model's ε is chosen to hit its `ea/t`.
fn models() -> &'static Vec<Classifier> {
    static MODELS: OnceLock<Vec<Classifier>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let data = gaussian_blob(1200, 601);
        let mut rng = Rng::seed_from(607);
        let weights: Vec<f64> = (0..data.rows())
            .map(|_| 1.0 + 3.0 * rng.next_f64())
            .collect();
        let params = Params::default();
        let probe = Classifier::fit_weighted(&data, &weights, 1e-9, &params).unwrap();
        let (t, k0) = (probe.threshold(), probe.kernel().max_value());
        FOLD_OVER_T
            .iter()
            .map(|r| Classifier::fit_weighted(&data, &weights, r * t / k0, &params).unwrap())
            .collect()
    })
}

/// The certified three-way label of an ε-folded interval.
fn folded_label(b: &DensityBounds, t: f64) -> Label {
    if b.lower > t {
        Label::High
    } else if b.upper < t {
        Label::Low
    } else {
        Label::Unknown
    }
}

/// A point on a random ray from the origin whose exact density is
/// `target`, found by bisecting the radius (the blob's density falls
/// along every ray), then nudged by up to one part in a million.
fn shell_point(clf: &Classifier, target: f64, rng: &mut Rng) -> [f64; 2] {
    let angle = rng.uniform(0.0, std::f64::consts::TAU);
    let (c, s) = (angle.cos(), angle.sin());
    let (mut lo, mut hi) = (0.0, 12.0);
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        if clf.exact_density(&[mid * c, mid * s]).unwrap() > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let r = 0.5 * (lo + hi) * (1.0 + rng.uniform(-1e-6, 1e-6));
    [r * c, r * s]
}

/// Held-out draws, far-tail points, and points on the density shells at
/// `t` and `t ± ea` (the exits' decision boundaries).
fn query_mix(clf: &Classifier, seed: u64, per_kind: usize) -> Vec<[f64; 2]> {
    let mut rng = Rng::seed_from(seed);
    let (t, ea) = (clf.threshold(), clf.coreset_eps_abs());
    let mut out = Vec::new();
    for _ in 0..per_kind {
        out.push([rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
        let (r, a) = (
            rng.uniform(3.5, 7.0),
            rng.uniform(0.0, std::f64::consts::TAU),
        );
        out.push([r * a.cos(), r * a.sin()]);
        for target in [t, t + ea, t - ea] {
            if target > 0.0 {
                out.push(shell_point(clf, target, &mut rng));
            }
        }
    }
    out
}

/// Checks every property on one query and returns the folded run's
/// counters with the `bound_density_with` run's.
fn check_query(clf: &Classifier, x: &[f64]) -> (QueryStats, QueryStats) {
    let (t, ea) = (clf.threshold(), clf.coreset_eps_abs());
    let mut folded = QueryScratch::new();
    let label = clf.classify_with(x, &mut folded).unwrap();
    let mut full = QueryScratch::new();
    let b = clf.bound_density_with(x, &mut full).unwrap();
    assert_eq!(label, folded_label(&b, t), "x = {x:?}: label vs {b:?}");
    let (f, a) = (folded.stats, full.stats);
    assert!(
        f.kernel_evals <= a.kernel_evals
            && f.bound_evals <= a.bound_evals
            && f.nodes_expanded <= a.nodes_expanded,
        "x = {x:?}: folded stop did more work ({f:?} vs {a:?})"
    );

    let bounder = DensityBounder::new(
        clf.tree().unwrap(),
        clf.kernel(),
        clf.params().opts,
        clf.params().epsilon,
    );
    let mut s = QueryScratch::new();
    let fb = bounder.bound_density_folded(x, t, ea, &mut s);
    assert_eq!(s.stats, f, "x = {x:?}: bounder and classifier diverge");
    assert_eq!(folded_label(&fb, t), label, "x = {x:?}");
    let exact = clf.exact_density(x).unwrap();
    // Drift of the running sums scales with K(0), not the result.
    let slack = 1e-11 * clf.kernel().max_value();
    assert!(
        fb.lower <= (exact - ea).max(0.0) + slack,
        "x = {x:?}: lower {} above max(f − ea, 0) for f = {exact}",
        fb.lower
    );
    assert!(
        fb.upper >= exact + ea - slack,
        "x = {x:?}: upper {} below f + ea for f = {exact}",
        fb.upper
    );
    (f, a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn folded_stop_keeps_label_and_does_no_more_work(seed in any::<u64>()) {
        for clf in models() {
            for x in query_mix(clf, seed, 6) {
                check_query(clf, &x);
            }
        }
    }
}

/// Each regime exercises the exits it is meant to: a straddle stop
/// wherever a query is UNKNOWN, LOW only once `t − ea > 0`, and strictly
/// less work than Algorithm 2's stop in aggregate.
#[test]
fn every_regime_takes_its_exits() {
    for (clf, ratio) in models().iter().zip(FOLD_OVER_T) {
        let (t, ea) = (clf.threshold(), clf.coreset_eps_abs());
        assert!(
            (ea / t - ratio).abs() <= 1e-9 * ratio,
            "ea/t = {} not {ratio}",
            ea / t
        );
        let (mut folded, mut full) = (QueryStats::default(), QueryStats::default());
        let mut labels = [0usize; 3];
        for x in query_mix(clf, 613, 40) {
            let (f, a) = check_query(clf, &x);
            folded.merge(&f);
            full.merge(&a);
            let mut scratch = QueryScratch::new();
            match clf.classify_with(&x, &mut scratch).unwrap() {
                Label::High => labels[0] += 1,
                Label::Low => labels[1] += 1,
                Label::Unknown => labels[2] += 1,
            }
        }
        let at = format!("ea/t = {ratio}: labels {labels:?}, {folded:?}");
        assert!(labels[0] > 0 && labels[2] > 0, "{at}");
        assert_eq!(labels[1] > 0, ratio < 1.0, "{at}");
        assert!(folded.straddle > 0, "{at}");
        assert_eq!(full.straddle, 0, "{at}");
        assert!(folded.kernel_evals < full.kernel_evals, "{at} vs {full:?}");
        assert!(folded.bound_evals < full.bound_evals, "{at} vs {full:?}");
    }
}
