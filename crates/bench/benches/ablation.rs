//! Criterion microbench: design-choice ablations called out in DESIGN.md —
//! split-rule choice (trimmed-midpoint vs median) and kernel family
//! (Gaussian vs compact-support Epanechnikov) under the full tKDC
//! pipeline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tkdc::{Classifier, Optimizations, Params, QueryScratch};
use tkdc_common::Rng;
use tkdc_data::{DatasetKind, DatasetSpec};
use tkdc_kernel::KernelKind;

fn bench_split_rule(c: &mut Criterion) {
    let data = DatasetSpec {
        kind: DatasetKind::Tmy3,
        n: 20_000,
        seed: 1,
    }
    .generate()
    .unwrap()
    .prefix_columns(4)
    .unwrap();
    let mut rng = Rng::seed_from(2);
    let queries = data.sample_rows(256, &mut rng);
    let mut group = c.benchmark_group("split_rule");
    group.sample_size(20);
    for (name, equiwidth) in [("trimmed_midpoint", true), ("median", false)] {
        let opts = Optimizations {
            equiwidth_split: equiwidth,
            ..Optimizations::all()
        };
        let clf = Classifier::fit(&data, &Params::default().with_seed(3).with_opts(opts)).unwrap();
        let mut scratch = QueryScratch::new();
        group.bench_with_input(BenchmarkId::new(name, "tmy3_d4"), name, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let q = queries.row(i % queries.rows());
                i += 1;
                black_box(clf.classify_with(q, &mut scratch).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_kernel_family(c: &mut Criterion) {
    let data = DatasetSpec {
        kind: DatasetKind::Gauss { d: 2 },
        n: 30_000,
        seed: 4,
    }
    .generate()
    .unwrap();
    let mut rng = Rng::seed_from(5);
    let queries = data.sample_rows(256, &mut rng);
    let mut group = c.benchmark_group("kernel_family");
    group.sample_size(20);
    for kind in [KernelKind::Gaussian, KernelKind::Epanechnikov] {
        let mut params = Params::default().with_seed(6);
        params.kernel = kind;
        let clf = Classifier::fit(&data, &params).unwrap();
        let mut scratch = QueryScratch::new();
        group.bench_with_input(
            BenchmarkId::new(format!("{kind:?}"), "gauss_d2"),
            &kind,
            |b, _| {
                let mut i = 0;
                b.iter(|| {
                    let q = queries.row(i % queries.rows());
                    i += 1;
                    black_box(clf.classify_with(q, &mut scratch).unwrap())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_split_rule, bench_kernel_family);
criterion_main!(benches);
