//! NaN/±inf robustness of the quantile machinery.
//!
//! The L1 lint (`partial_cmp().unwrap()` bans) exists because a single
//! poisoned density used to be able to panic the threshold bootstrap
//! mid-flight. These properties pin the contract the sweep established:
//! order statistics and threshold estimation either return an error or a
//! result under IEEE 754 total order — they never panic, whatever mix of
//! NaN and ±inf the input carries. The same holds for the traversal over
//! a tree whose nodes hold poisoned rows.

use proptest::prelude::*;
use tkdc::bound::DensityBounder;
use tkdc::threshold::bound_threshold;
use tkdc::{BootstrapParams, Optimizations, Params, QueryScratch};
use tkdc_common::{order, Matrix};
use tkdc_index::{KdTree, SplitRule};
use tkdc_kernel::{Kernel, KernelKind};

/// Bitwise membership check, so NaN and -0.0 count as themselves.
fn is_member(xs: &[f64], v: f64) -> bool {
    xs.iter().any(|x| x.to_bits() == v.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Quickselect must terminate and hand back an element of the input
    /// for *any* bit pattern, NaN and infinities included.
    #[test]
    fn quickselect_total_on_poisoned_input(
        xs in proptest::collection::vec(any::<f64>(), 1..64),
        k_seed in any::<u64>(),
    ) {
        let k = (k_seed as usize) % xs.len();
        let mut work = xs.clone();
        let v = order::quickselect(&mut work, k);
        prop_assert!(is_member(&xs, v), "quickselect returned {v} not in input");
    }

    /// On finite input quickselect agrees with a full total_cmp sort.
    #[test]
    fn quickselect_matches_sort_on_finite_input(
        xs in proptest::collection::vec(-1e12f64..1e12, 1..64),
        k_seed in any::<u64>(),
    ) {
        let k = (k_seed as usize) % xs.len();
        let mut work = xs.clone();
        let v = order::quickselect(&mut work, k);
        let mut sorted = xs;
        sorted.sort_by(f64::total_cmp);
        prop_assert_eq!(v.to_bits(), sorted[k].to_bits());
    }

    /// The p-quantile either errors (empty input / bad p) or returns a
    /// member of the sample — no panic on poisoned data.
    #[test]
    fn quantile_never_panics_on_poisoned_input(
        xs in proptest::collection::vec(any::<f64>(), 0..64),
        p in 0.0f64..=1.0,
    ) {
        match order::quantile(&xs, p) {
            Ok(v) => prop_assert!(is_member(&xs, v)),
            Err(_) => prop_assert!(xs.is_empty()),
        }
    }

    /// The order-statistic CI ranks the bootstrap indexes into its sorted
    /// density sample must always be in bounds: `l <= u < s`. An
    /// out-of-range rank would turn threshold estimation into an
    /// index-out-of-bounds panic.
    #[test]
    fn quantile_ci_ranks_stay_in_bounds(
        s in 1usize..500,
        p in 0.0f64..=1.0,
        delta in 0.0001f64..0.9999,
    ) {
        let (l, u) = order::quantile_ci_ranks(s, p, delta).unwrap();
        prop_assert!(l <= u, "l={l} > u={u}");
        prop_assert!(u < s, "u={u} out of bounds for s={s}");
    }

    /// Threshold estimation over data containing NaN/±inf coordinates
    /// must come back with `Ok` or `Err`, never unwind. (Whether the
    /// bounds are *useful* on poisoned data is a different question —
    /// soundness of control flow is the property here.)
    #[test]
    fn bound_threshold_never_panics_on_poisoned_data(
        mut values in proptest::collection::vec(any::<f64>(), 10..60),
        d in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let n = values.len() / d;
        values.truncate(n * d);
        let data = Matrix::from_vec(values, n, d).unwrap();
        let params = Params {
            seed,
            bootstrap: BootstrapParams {
                r0: 4,
                s0: 8,
                max_retries: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        // Ok or Err are both acceptable; reaching this line is the test.
        let _ = bound_threshold(&data, &params);
    }

    /// The same at d ≥ 8, where node bounds dominate the traversal and
    /// every node's lower bound comes from its centroid and spread. The
    /// data is finite apart from a few NaN or ±inf coordinates: the
    /// bootstrap must come back with `Ok` or `Err`, and a direct
    /// traversal of the poisoned tree must run (non-zero bound
    /// evaluations) and return `lower ≤ upper` wherever neither is NaN.
    #[test]
    fn poisoned_nodes_at_d8_reach_the_traversal_without_panicking(
        mut values in proptest::collection::vec(-10.0f64..10.0, 160..720),
        d in 8usize..=12,
        poison in proptest::collection::vec(any::<u64>(), 1..4),
        seed in any::<u64>(),
    ) {
        let n = values.len() / d;
        values.truncate(n * d);
        // Each draw picks a cell (low bits) and a poison value (high bits).
        for p in poison {
            let i = (p % values.len() as u64) as usize;
            values[i] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(p >> 32) as usize % 3];
        }
        let data = Matrix::from_vec(values, n, d).unwrap();
        let params = Params {
            seed,
            bootstrap: BootstrapParams {
                r0: 8,
                s0: 8,
                max_retries: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let _ = bound_threshold(&data, &params);

        let tree = KdTree::build(&data, 4, SplitRule::TrimmedMidpoint).unwrap();
        let kernel = Kernel::new(KernelKind::Gaussian, vec![1.0; d]).unwrap();
        let bounder = DensityBounder::new(&tree, &kernel, Optimizations::all(), 0.01);
        let mut scratch = QueryScratch::new();
        for r in [0, n / 2, n - 1] {
            let q: Vec<f64> = data.row(r).iter().map(|v| if v.is_finite() { *v } else { 0.0 }).collect();
            let b = bounder.bound_density(&q, 1e-6, 1e-6, &mut scratch);
            if !b.lower.is_nan() && !b.upper.is_nan() {
                prop_assert!(b.lower <= b.upper, "{b:?}");
            }
        }
        prop_assert!(scratch.stats.bound_evals > 0, "{:?}", scratch.stats);
    }
}
