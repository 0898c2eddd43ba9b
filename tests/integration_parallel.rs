//! Serial-vs-parallel equivalence of the filtering hot paths on a real
//! generated dataset: the parallel execution layer must produce
//! byte-identical candidate sets, edge weights and optimizer outcomes for
//! every thread count.

use er::blocking::{BlockingGraph, BlockingWorkflow, PruningAlgorithm, WeightingScheme};
use er::core::optimize::{GridResolution, OptimizationOutcome, Optimizer};
use er::core::schema::{text_view, SchemaMode};
use er::core::{evaluate, Threads};
use er::datagen::profiles::profile;
use er::dense::FlatKnn;
use er::sparse::{KnnJoin, RepresentationModel, SimilarityMeasure};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn dataset() -> (er::core::schema::TextView, er::core::GroundTruth) {
    let ds = er::datagen::generate(profile("D2").expect("D2"), 0.05, 3);
    let view = text_view(&ds, &SchemaMode::Agnostic);
    (view, ds.groundtruth)
}

#[test]
fn metablocking_is_thread_count_invariant_on_generated_data() {
    let (view, _gt) = dataset();
    let blocks = BlockingWorkflow::dbw().build_blocks(&view);
    let graph = BlockingGraph::build(&blocks);

    for scheme in WeightingScheme::ALL {
        let serial = graph.weighted_edges_with(1, scheme);
        assert!(!serial.is_empty(), "no edges for {scheme:?}");
        for threads in [2, 8] {
            let par = graph.weighted_edges_with(threads, scheme);
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.pair, b.pair, "{scheme:?} threads={threads}");
                assert_eq!(
                    a.weight.to_bits(),
                    b.weight.to_bits(),
                    "{scheme:?} threads={threads} pair={:?}",
                    a.pair
                );
            }
        }
        for pruning in PruningAlgorithm::ALL {
            let want = graph.prune_with(1, &serial, pruning).to_sorted_vec();
            for threads in [2, 8] {
                let got = graph.prune_with(threads, &serial, pruning).to_sorted_vec();
                assert_eq!(got, want, "{scheme:?}/{pruning:?} threads={threads}");
            }
        }
    }
}

/// Two optimization outcomes must agree on every reported field, with
/// floating-point measures compared bitwise.
fn assert_outcomes_identical<C: Clone + PartialEq + std::fmt::Debug>(
    a: &OptimizationOutcome<C>,
    b: &OptimizationOutcome<C>,
    label: &str,
) {
    assert_eq!(a.evaluated, b.evaluated, "{label}: evaluated");
    for (x, y, side) in [
        (&a.best_feasible, &b.best_feasible, "feasible"),
        (&a.best_fallback, &b.best_fallback, "fallback"),
    ] {
        match (x, y) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.config, y.config, "{label}: {side} config");
                assert_eq!(x.eff.pc.to_bits(), y.eff.pc.to_bits(), "{label}: {side} pc");
                assert_eq!(x.eff.pq.to_bits(), y.eff.pq.to_bits(), "{label}: {side} pq");
                assert_eq!(x.eff.candidates, y.eff.candidates, "{label}: {side} |C|");
            }
            _ => panic!("{label}: {side} champion present on one side only"),
        }
    }
}

#[test]
fn optimizer_grid_is_thread_count_invariant_on_generated_data() {
    let (view, gt) = dataset();
    let optimizer = Optimizer::new(0.9);
    let configs: Vec<FlatKnn> = er::dense::grid::flat_combos(
        GridResolution::Quick,
        er::dense::EmbeddingConfig {
            dim: 32,
            ..Default::default()
        },
    )
    .into_iter()
    .flat_map(|c| [1usize, 2, 5].map(|k| FlatKnn { k, ..c }))
    .collect();
    let eval = |cfg: &FlatKnn| {
        let out = er::core::Filter::run(cfg, &view);
        (evaluate(&out.candidates, &gt), out.breakdown)
    };

    let grid = |threads: usize| {
        let mut out = OptimizationOutcome::default();
        optimizer.grid(threads, configs.clone(), eval, &mut out);
        out
    };
    let serial = grid(1);
    for threads in [2, 8] {
        assert_outcomes_identical(&serial, &grid(threads), &format!("grid threads={threads}"));
    }

    let first_feasible = |threads: usize| {
        let mut out = OptimizationOutcome::default();
        optimizer.first_feasible(threads, configs.clone(), eval, &mut out);
        out
    };
    let ff_serial = first_feasible(1);
    for threads in [2, 8] {
        assert_outcomes_identical(
            &ff_serial,
            &first_feasible(threads),
            &format!("first_feasible threads={threads}"),
        );
    }
}

/// End-to-end filters driven through the *global* thread count: candidate
/// sets must not depend on it. All global-state mutation lives in this one
/// test (its own test binary runs other tests in parallel threads).
#[test]
fn filters_are_thread_count_invariant_via_global_setting() {
    let (view, _gt) = dataset();
    let knn = KnnJoin {
        cleaning: false,
        model: RepresentationModel::parse("T1G").expect("T1G"),
        measure: SimilarityMeasure::Cosine,
        k: 2,
        reversed: false,
    };
    let flat = FlatKnn {
        cleaning: false,
        k: 2,
        reversed: false,
        embedding: er::dense::EmbeddingConfig {
            dim: 32,
            ..Default::default()
        },
    };

    let mut per_threads = Vec::new();
    for threads in THREAD_COUNTS {
        Threads::set(threads);
        let sparse = er::core::Filter::run(&knn, &view)
            .candidates
            .to_sorted_vec();
        let dense = er::core::Filter::run(&flat, &view)
            .candidates
            .to_sorted_vec();
        per_threads.push((threads, sparse, dense));
    }
    Threads::set(0);

    let (_, sparse_one, dense_one) = &per_threads[0];
    assert!(!sparse_one.is_empty() && !dense_one.is_empty());
    for (threads, sparse, dense) in &per_threads[1..] {
        assert_eq!(sparse, sparse_one, "kNN-Join differs at threads={threads}");
        assert_eq!(dense, dense_one, "FlatKnn differs at threads={threads}");
    }
}
