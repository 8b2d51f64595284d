//! Criterion microbench: k-d tree construction and bound computation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tkdc_common::Rng;
use tkdc_data::{DatasetKind, DatasetSpec};
use tkdc_index::{KdTree, SplitRule};

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdtree_build");
    group.sample_size(10);
    for n in [10_000usize, 50_000] {
        let data = DatasetSpec {
            kind: DatasetKind::Gauss { d: 4 },
            n,
            seed: 1,
        }
        .generate()
        .unwrap();
        for rule in [SplitRule::TrimmedMidpoint, SplitRule::Median] {
            group.bench_with_input(BenchmarkId::new(format!("{rule:?}"), n), &n, |b, _| {
                b.iter(|| black_box(KdTree::build(&data, 32, rule).unwrap()))
            });
        }
    }
    group.finish();
}

fn bench_dist_bounds(c: &mut Criterion) {
    let data = DatasetSpec {
        kind: DatasetKind::Gauss { d: 8 },
        n: 20_000,
        seed: 2,
    }
    .generate()
    .unwrap();
    let tree = KdTree::build(&data, 32, SplitRule::TrimmedMidpoint).unwrap();
    let inv_h = vec![2.0; 8];
    // A fresh N(0,1) query per node, as a batch of traversals would see.
    // One fixed query lets branch history predict every per-axis
    // inside/outside outcome and hides the cost of a branchy box walk.
    let mut rng = Rng::seed_from(4);
    let queries: Vec<Vec<f64>> = (0..251)
        .map(|_| (0..8).map(|_| rng.standard_normal()).collect())
        .collect();
    // The query index carries across iterations, so no node sees the
    // same query sequence twice in a row.
    let mut next = 0usize;
    c.bench_function("kdtree_dist_bounds_d8", |b| {
        b.iter(|| {
            // Touch a spread of nodes, as a traversal would.
            let mut acc = 0.0;
            for id in (0..tree.node_count() as u32).step_by(37) {
                let q = &queries[next % queries.len()];
                next += 1;
                let (lo, hi) = tree.scaled_sq_dist_bounds(id, black_box(q), &inv_h);
                acc += lo + hi;
            }
            black_box(acc)
        })
    });
}

fn bench_range_query(c: &mut Criterion) {
    let data = DatasetSpec {
        kind: DatasetKind::Gauss { d: 2 },
        n: 100_000,
        seed: 3,
    }
    .generate()
    .unwrap();
    let tree = KdTree::build(&data, 32, SplitRule::Median).unwrap();
    let inv_h = vec![1.0; 2];
    c.bench_function("kdtree_range_query_r0.5_d2", |b| {
        b.iter(|| {
            let mut count = 0usize;
            tree.for_each_in_scaled_radius(black_box(&[0.0, 0.0]), &inv_h, 0.5, |_| count += 1);
            black_box(count)
        })
    });
}

criterion_group!(benches, bench_build, bench_dist_bounds, bench_range_query);
criterion_main!(benches);
