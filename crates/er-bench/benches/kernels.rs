//! Per-kernel benchmarks of the hot-path rewrites: scalar vs blocked vs
//! SIMD-dispatched dense kernels, raw-hash vs pre-interned ScanCount
//! queries, and the flat kNN scan. CI runs this target with `--test`
//! (one iteration, no timing) to keep the kernels exercised on every
//! push.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use er::core::schema::{text_view, SchemaMode};
use er::datagen::{generate, profiles::profile};
use er::dense::{
    dot, dot_blocked, dot_scalar, l2_sq, l2_sq_blocked, l2_sq_scalar, EmbeddingConfig, FlatIndex,
    FlatVectors, HashEmbedder, Metric,
};
use er::sparse::{RepresentationModel, ScanCountIndex, ScanCountScratch};
use er::text::Cleaner;

fn bench_kernels(c: &mut Criterion) {
    // Synthetic vectors at the embedding dims the study sweeps. `dot` and
    // `l2_sq` dispatch to the SIMD kernels when the host supports them,
    // so the blocked rows isolate the dispatch win.
    for dim in [64usize, 300] {
        let a: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.71).cos()).collect();
        let mut group = c.benchmark_group("kernel");
        group.bench_with_input(BenchmarkId::new("dot_scalar", dim), &dim, |bch, _| {
            bch.iter(|| dot_scalar(black_box(&a), black_box(&b)));
        });
        group.bench_with_input(BenchmarkId::new("dot_blocked", dim), &dim, |bch, _| {
            bch.iter(|| dot_blocked(black_box(&a), black_box(&b)));
        });
        group.bench_with_input(BenchmarkId::new("dot_simd", dim), &dim, |bch, _| {
            bch.iter(|| dot(black_box(&a), black_box(&b)));
        });
        group.bench_with_input(BenchmarkId::new("l2_sq_scalar", dim), &dim, |bch, _| {
            bch.iter(|| l2_sq_scalar(black_box(&a), black_box(&b)));
        });
        group.bench_with_input(BenchmarkId::new("l2_sq_blocked", dim), &dim, |bch, _| {
            bch.iter(|| l2_sq_blocked(black_box(&a), black_box(&b)));
        });
        group.bench_with_input(BenchmarkId::new("l2_sq_simd", dim), &dim, |bch, _| {
            bch.iter(|| l2_sq(black_box(&a), black_box(&b)));
        });
        group.finish();
    }

    // ScanCount on the D2 smoke workload: raw token hashes vs pre-interned
    // CSR rows.
    let ds = generate(profile("D2").expect("D2"), 0.1, 42);
    let view = text_view(&ds, &SchemaMode::Agnostic);
    let model = RepresentationModel::parse("C3G").expect("C3G");
    let sets1: Vec<Vec<u64>> = view
        .e1
        .iter()
        .map(|t| model.token_set(t, &Cleaner::off()))
        .collect();
    let sets2: Vec<Vec<u64>> = view
        .e2
        .iter()
        .map(|t| model.token_set(t, &Cleaner::off()))
        .collect();
    let (index, _) = ScanCountIndex::build_with_sets(&sets1);
    let csr = index.intern_queries(&sets2);
    c.bench_function("scancount/raw_hash_queries", |b| {
        let mut scratch = ScanCountScratch::default();
        let mut hits = Vec::new();
        b.iter(|| {
            for q in &sets2 {
                index.query_with(&mut scratch, black_box(q), &mut hits);
                black_box(&hits);
            }
        });
    });
    c.bench_function("scancount/interned_queries", |b| {
        let mut scratch = ScanCountScratch::default();
        let mut hits = Vec::new();
        b.iter(|| {
            for j in 0..csr.len() {
                index.query_row_with(&mut scratch, black_box(&csr), j, &mut hits);
                black_box(&hits);
            }
        });
    });

    // Flat kNN: the bare kernel over every row vs the full scan with its
    // top-k selection.
    let embedder = HashEmbedder::new(EmbeddingConfig {
        dim: 64,
        ..Default::default()
    });
    let rows: Vec<Vec<f32>> = view
        .e1
        .iter()
        .map(|t| embedder.embed(t, &Cleaner::off()))
        .collect();
    let flat = FlatVectors::from_rows(&rows);
    let q: Vec<f32> = (0..64).map(|i| (i as f32 * 0.13).sin()).collect();
    c.bench_function("flat_scan/row_at_a_time", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..flat.len() {
                acc += dot(black_box(&q), flat.row(i));
            }
            black_box(acc)
        });
    });
    let index = FlatIndex::build(rows, Metric::L2Sq);
    c.bench_function("flat_knn/scan", |b| {
        b.iter(|| black_box(index.knn(black_box(&q), 10)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_kernels
}
criterion_main!(benches);
