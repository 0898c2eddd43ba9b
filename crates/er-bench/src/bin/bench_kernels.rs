//! Kernel/layout micro-benchmark: the optimized hot paths against their
//! reference implementations on the D2 smoke workload — naive vs
//! CSR/interned sparse queries and index builds, and scalar vs blocked vs
//! SIMD-dispatched dense kernels.
//!
//! Every optimized variant is first checked against its reference —
//! candidate sets must be identical and kernel outputs bitwise equal
//! (`to_bits`) — and the binary exits non-zero on any mismatch, making it
//! a correctness gate as much as a benchmark. It then times each pair and
//! writes a one-line JSON summary — wall seconds per variant plus
//! speedups — to the output path
//! (default `BENCH_kernels.json`). Run by `scripts/bench_smoke.sh` and
//! uploaded as a CI artifact next to `BENCH_parallel.json` /
//! `BENCH_prepare.json`; `bench_history` tracks the speedups over time.

use std::hint::black_box;
use std::time::Duration;

use er::core::schema::{text_view, SchemaMode};
use er::core::{Filter, Stopwatch};
use er::datagen::{generate, profiles::profile};
use er::dense::{
    dot, dot_blocked, dot_scalar, l2_sq, l2_sq_blocked, EmbeddingConfig, FlatVectors, HashEmbedder,
};
use er::sparse::reference::{self, NaiveScanCountIndex};
use er::sparse::{
    EpsilonJoin, KnnJoin, RepresentationModel, ScanCountIndex, ScanCountScratch, SimilarityMeasure,
};
use er_bench::jsonl::Json;

/// Minimum wall time over `reps` runs of `f` — the usual micro-benchmark
/// noise floor estimator.
fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let sw = Stopwatch::start();
        black_box(f());
        best = best.min(sw.elapsed());
    }
    best
}

fn speedup(old: Duration, new: Duration) -> f64 {
    old.as_secs_f64() / new.as_secs_f64().max(1e-12)
}

fn main() {
    let mut out_path = "BENCH_kernels.json".to_owned();
    let mut scale = 0.25f64;
    let mut seed = 7u64;
    let mut reps = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => out_path = value("--out"),
            "--scale" => scale = value("--scale").parse().expect("--scale"),
            "--seed" => seed = value("--seed").parse().expect("--seed"),
            "--reps" => reps = value("--reps").parse().expect("--reps"),
            other => panic!("unknown argument {other}"),
        }
    }

    let ds = generate(profile("D2").expect("D2"), scale, seed);
    let view = text_view(&ds, &SchemaMode::Agnostic);
    let model = RepresentationModel::parse("C3G").expect("C3G");
    let measure = SimilarityMeasure::Cosine;
    let threshold = 0.4;
    let mut gate_failures: Vec<&str> = Vec::new();

    // -- Gate: optimized sparse pipeline == frozen naive reference.
    let eps = EpsilonJoin {
        cleaning: false,
        model,
        measure,
        threshold,
    };
    let eps_got = eps.run(&view).candidates.to_sorted_vec();
    let eps_want = reference::naive_epsilon(&view, false, model, measure, threshold);
    let knn = KnnJoin {
        cleaning: false,
        model,
        measure,
        k: 3,
        reversed: false,
    };
    let knn_got = knn.run(&view).candidates.to_sorted_vec();
    let knn_want = reference::naive_knn(&view, false, model, measure, 3, false);
    if eps_got != eps_want || knn_got != knn_want {
        gate_failures.push("sparse joins vs naive reference");
    }

    // -- Sparse: identical merge-count + scoring loop over both layouts.
    let (index_sets, query_sets) = reference::tokenize(&view, false, model, false);
    let naive = NaiveScanCountIndex::build(&index_sets);
    let naive_s = time_min(reps, || {
        let mut kept = 0u64;
        for query in &query_sets {
            for (i, overlap) in naive.query(query) {
                let sim = measure.compute(overlap as usize, naive.set_size(i), query.len());
                kept += u64::from(sim >= threshold);
            }
        }
        kept
    });
    let (csr_index, _) = ScanCountIndex::build_with_sets(&index_sets);
    let csr_queries = csr_index.intern_queries(&query_sets);
    let csr_s = time_min(reps, || {
        let mut scratch = ScanCountScratch::default();
        let mut hits: Vec<(u32, u32)> = Vec::new();
        let mut kept = 0u64;
        for j in 0..csr_queries.len() {
            let qlen = csr_queries.set_size(j);
            csr_index.query_row_with(&mut scratch, &csr_queries, j, &mut hits);
            for &(i, overlap) in &hits {
                let sim = measure.compute(overlap as usize, csr_index.set_size(i), qlen);
                kept += u64::from(sim >= threshold);
            }
        }
        kept
    });

    // -- Sparse index build: per-token Vec postings vs one CSR pass.
    let naive_build_s = time_min(reps, || NaiveScanCountIndex::build(&index_sets));
    let csr_build_s = time_min(reps, || ScanCountIndex::build(&index_sets));

    // -- Dense kernels: scalar vs blocked vs whatever `dot`/`l2_sq`
    // dispatch to on this host (AVX2/NEON with the `simd` feature).
    let embedder = HashEmbedder::new(EmbeddingConfig {
        dim: 64,
        ..Default::default()
    });
    let cleaner = er::text::Cleaner::off();
    let rows: Vec<Vec<f32>> = view
        .e1
        .iter()
        .map(|t| embedder.embed(t, &cleaner))
        .collect();
    let queries: Vec<Vec<f32>> = view
        .e2
        .iter()
        .map(|t| embedder.embed(t, &cleaner))
        .collect();
    let flat = FlatVectors::from_rows(&rows);
    // Gate: the dispatched kernels must match the blocked reference bit
    // for bit on every query/row pair of the workload.
    let mut bits_ok = true;
    for q in &queries {
        for i in 0..flat.len() {
            let r = flat.row(i);
            bits_ok &= dot(q, r).to_bits() == dot_blocked(q, r).to_bits();
            bits_ok &= l2_sq(q, r).to_bits() == l2_sq_blocked(q, r).to_bits();
        }
    }
    if !bits_ok {
        gate_failures.push("simd kernels vs blocked reference (to_bits)");
    }
    let scan = |kernel: &dyn Fn(&[f32], &[f32]) -> f32| {
        let mut acc = 0.0f64;
        for q in &queries {
            for i in 0..flat.len() {
                acc += f64::from(kernel(q, flat.row(i)));
            }
        }
        acc
    };
    let dot_scalar_s = time_min(reps, || scan(&dot_scalar));
    let dot_blocked_s = time_min(reps, || scan(&dot_blocked));
    let dot_simd_s = time_min(reps, || scan(&dot));
    let l2_blocked_s = time_min(reps, || scan(&l2_sq_blocked));
    let l2_simd_s = time_min(reps, || scan(&l2_sq));

    let identical = gate_failures.is_empty();
    if !identical {
        for what in &gate_failures {
            eprintln!("bench-kernels: MISMATCH: {what}");
        }
    }

    let secs = |d: Duration| Json::Num(d.as_secs_f64());
    let doc = Json::Obj(vec![
        ("bench".to_owned(), Json::Str("kernels_smoke".to_owned())),
        (
            "workload".to_owned(),
            Json::Obj(vec![
                ("profile".to_owned(), Json::Str("D2".to_owned())),
                ("scale".to_owned(), Json::Num(scale)),
                ("seed".to_owned(), Json::Num(seed as f64)),
                ("reps".to_owned(), Json::Num(reps as f64)),
            ]),
        ),
        ("candidate_sets_identical".to_owned(), Json::Bool(identical)),
        (
            "sparse_query".to_owned(),
            Json::Obj(vec![
                ("naive_s".to_owned(), secs(naive_s)),
                ("csr_s".to_owned(), secs(csr_s)),
                ("speedup".to_owned(), Json::Num(speedup(naive_s, csr_s))),
            ]),
        ),
        (
            "sparse_build".to_owned(),
            Json::Obj(vec![
                ("naive_s".to_owned(), secs(naive_build_s)),
                ("csr_s".to_owned(), secs(csr_build_s)),
                (
                    "speedup".to_owned(),
                    Json::Num(speedup(naive_build_s, csr_build_s)),
                ),
            ]),
        ),
        (
            "dense_dot_scan".to_owned(),
            Json::Obj(vec![
                ("bitwise_identical".to_owned(), Json::Bool(bits_ok)),
                ("scalar_s".to_owned(), secs(dot_scalar_s)),
                ("blocked_s".to_owned(), secs(dot_blocked_s)),
                ("simd_s".to_owned(), secs(dot_simd_s)),
                (
                    "speedup_blocked".to_owned(),
                    Json::Num(speedup(dot_scalar_s, dot_blocked_s)),
                ),
                (
                    "speedup_simd".to_owned(),
                    Json::Num(speedup(dot_scalar_s, dot_simd_s)),
                ),
            ]),
        ),
        (
            "dense_l2_scan".to_owned(),
            Json::Obj(vec![
                ("bitwise_identical".to_owned(), Json::Bool(bits_ok)),
                ("blocked_s".to_owned(), secs(l2_blocked_s)),
                ("simd_s".to_owned(), secs(l2_simd_s)),
                (
                    "speedup_simd".to_owned(),
                    Json::Num(speedup(l2_blocked_s, l2_simd_s)),
                ),
            ]),
        ),
    ]);
    std::fs::write(&out_path, doc.encode() + "\n").expect("write kernel bench output");
    eprintln!("bench-kernels: wrote {out_path}");
    println!("{}", doc.encode());
    if !identical {
        std::process::exit(1);
    }
}
