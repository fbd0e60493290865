//! Criterion microbenchmarks for construction: modeling cost vs build cost
//! per filter (the Table 2 quantities as repeatable microbenchmarks), plus
//! the succinct-structure primitives they depend on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use proteus_core::model::proteus::{ProteusModel, ProteusModelOptions};
use proteus_core::{KeySet, Proteus, ProteusOptions, SampleQueries};
use proteus_filters::{Rosetta, RosettaOptions, Surf, SurfSuffix};
use proteus_succinct::Fst;
use proteus_workloads::{Dataset, QueryGen, Workload};

fn bench_construction(c: &mut Criterion) {
    let n = 100_000usize;
    let raw = Dataset::Normal.generate(n, 42);
    let keys = KeySet::from_u64(&raw);
    let m = n as u64 * 10;
    let samples = SampleQueries::from_u64(
        &QueryGen::new(Workload::Correlated { rmax: 1 << 16, corr_degree: 1 << 14 }, &raw, &[], 7)
            .empty_ranges(5_000),
    );

    let mut group = c.benchmark_group("construction");
    group.sample_size(10);

    group.bench_function("keyset_stats", |b| {
        b.iter(|| std::hint::black_box(KeySet::from_u64(&raw)))
    });
    group.bench_function("model/1pbf", |b| {
        b.iter(|| std::hint::black_box(ProteusModel::bloom_only(&keys, &samples)))
    });
    group.bench_function("model/proteus", |b| {
        b.iter(|| {
            std::hint::black_box(ProteusModel::build(
                &keys,
                &samples,
                m,
                &ProteusModelOptions::default(),
            ))
        })
    });
    group.bench_function("build/proteus_trained", |b| {
        b.iter(|| {
            std::hint::black_box(Proteus::train(&keys, &samples, m, &ProteusOptions::default()))
        })
    });
    group.bench_function("build/surf_base", |b| {
        b.iter(|| std::hint::black_box(Surf::build(&keys, SurfSuffix::Base)))
    });
    group.bench_function("build/rosetta_trained", |b| {
        b.iter(|| {
            std::hint::black_box(Rosetta::train(&keys, &samples, m, &RosettaOptions::default()))
        })
    });
    group.finish();

    // FST construction across scales (the trie substrate's own cost).
    let mut group = c.benchmark_group("fst_build");
    group.sample_size(10);
    for scale in [10_000usize, 100_000] {
        let branches: Vec<Vec<u8>> = Dataset::Uniform
            .generate(scale, 7)
            .into_iter()
            .map(|k| k.to_be_bytes().to_vec())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(scale), &branches, |b, br| {
            b.iter(|| std::hint::black_box(Fst::from_branches(br)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(5))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_construction
}
criterion_main!(benches);
