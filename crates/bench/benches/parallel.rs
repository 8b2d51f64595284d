//! Criterion microbench: parallel batch classification scaling — the
//! "embarrassingly parallel queries" extension beyond the paper's
//! single-threaded evaluation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tkdc::{Classifier, ExecPolicy, Params};
use tkdc_common::Rng;
use tkdc_data::{DatasetKind, DatasetSpec};
use tkdc_sync::Arc;

fn bench_parallel_batch(c: &mut Criterion) {
    let data = DatasetSpec {
        kind: DatasetKind::Tmy3,
        n: 30_000,
        seed: 1,
    }
    .generate()
    .unwrap()
    .prefix_columns(4)
    .unwrap();
    let clf = Classifier::fit(&data, &Params::default().with_seed(2)).unwrap();
    let mut rng = Rng::seed_from(3);
    // Shared once, so each timed batch hands the pool an `Arc` clone
    // rather than a copy of the queries.
    let queries = Arc::new(data.sample_rows(4096, &mut rng));

    let mut group = c.benchmark_group("parallel_batch_4096_queries");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                black_box(
                    clf.classify_batch_shared(Arc::clone(&queries), ExecPolicy::with_threads(t))
                        .unwrap()
                        .0
                        .len(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_batch);
criterion_main!(benches);
