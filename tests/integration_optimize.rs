//! Integration tests of the configuration-optimization protocol
//! (Problem 1): the optimizer must hit the recall target, prefer precision
//! among feasible configurations and demonstrably beat the default
//! baselines — the paper's headline "fine-tuning vs default parameters"
//! finding.

use er::core::optimize::{GridResolution, OptimizationOutcome};
use er::prelude::*;

fn dataset(id: &str, scale: f64) -> Dataset {
    generate(
        er::datagen::profiles::profile(id).expect("profile"),
        scale,
        17,
    )
}

#[test]
fn epsilon_sweep_picks_highest_feasible_threshold() {
    let ds = dataset("D4", 0.05);
    let view = text_view(&ds, &SchemaMode::Agnostic);
    let optimizer = Optimizer::new(0.9);
    // One representative combo: T1G + Jaccard, thresholds descending.
    let configs: Vec<EpsilonJoin> = (0..=20)
        .rev()
        .map(|i| EpsilonJoin {
            cleaning: false,
            model: RepresentationModel::parse("T1G").expect("T1G"),
            measure: SimilarityMeasure::Jaccard,
            threshold: i as f64 / 20.0,
        })
        .collect();
    let mut outcome = OptimizationOutcome::default();
    let eval = |cfg: &EpsilonJoin| {
        let out = cfg.run(&view);
        (evaluate(&out.candidates, &ds.groundtruth), out.breakdown)
    };
    optimizer.first_feasible(1, configs.clone(), eval, &mut outcome);
    assert!(outcome.is_feasible(), "clean D4 must be solvable");
    let best = outcome.best().expect("feasible");
    // Every *higher* threshold must be infeasible (the sweep is tight).
    for cfg in configs
        .iter()
        .filter(|c| c.threshold > best.config.threshold + 1e-9)
    {
        let eff = evaluate(&cfg.run(&view).candidates, &ds.groundtruth);
        assert!(
            eff.pc < 0.9,
            "threshold {} was already feasible",
            cfg.threshold
        );
    }
}

#[test]
fn fine_tuned_blocking_beats_baselines_on_precision() {
    use er_bench::harness::{run_blocking_family, run_dbw, run_pbw, Context};
    let ds = dataset("D2", 0.08);
    let view = text_view(&ds, &SchemaMode::Agnostic);
    let cache = er::core::artifacts::ArtifactCache::new();
    let ctx = Context {
        optimizer: Optimizer::new(0.9),
        resolution: GridResolution::Quick,
        embedding: er::dense::EmbeddingConfig {
            dim: 48,
            ..Default::default()
        },
        seed: 5,
        label: "test".to_owned(),
        ..Context::new(&view, &ds.groundtruth, &cache)
    };
    let sbw = run_blocking_family(&ctx, er::blocking::WorkflowKind::Sbw);
    let pbw = run_pbw(&ctx);
    let dbw = run_dbw(&ctx);
    assert!(sbw.feasible, "SBW must reach the target on D2");
    assert!(
        sbw.pq >= pbw.pq && sbw.pq >= dbw.pq,
        "fine-tuned SBW pq {} vs PBW {} / DBW {}",
        sbw.pq,
        pbw.pq,
        dbw.pq
    );
}

#[test]
fn fine_tuned_knn_beats_dknn_baseline() {
    use er_bench::harness::{run_dknn, run_knn, Context};
    let ds = dataset("D4", 0.05);
    let view = text_view(&ds, &SchemaMode::Agnostic);
    let cache = er::core::artifacts::ArtifactCache::new();
    let ctx = Context {
        optimizer: Optimizer::new(0.9),
        resolution: GridResolution::Quick,
        embedding: er::dense::EmbeddingConfig {
            dim: 48,
            ..Default::default()
        },
        seed: 5,
        label: "test".to_owned(),
        ..Context::new(&view, &ds.groundtruth, &cache)
    };
    let knn = run_knn(&ctx);
    let dknn = run_dknn(&ctx);
    assert!(knn.feasible);
    assert!(
        knn.pq >= dknn.pq,
        "fine-tuned kNN pq {} < DkNN pq {}",
        knn.pq,
        dknn.pq
    );
}

#[test]
fn infeasible_settings_report_fallback() {
    use er_bench::harness::{run_knn, Context};
    // D5's schema-based view cannot reach PC 0.9 (misplaced titles).
    let ds = dataset("D5", 0.1);
    let view = text_view(&ds, &SchemaMode::Based("title".into()));
    let cache = er::core::artifacts::ArtifactCache::new();
    let ctx = Context {
        optimizer: Optimizer::new(0.9),
        resolution: GridResolution::Quick,
        embedding: er::dense::EmbeddingConfig {
            dim: 48,
            ..Default::default()
        },
        seed: 5,
        label: "test".to_owned(),
        ..Context::new(&view, &ds.groundtruth, &cache)
    };
    let knn = run_knn(&ctx);
    assert!(
        !knn.feasible,
        "schema-based D5 must be infeasible, got pc {}",
        knn.pc
    );
    assert!(knn.pc > 0.0, "fallback still reports the best recall found");
}

#[test]
fn harness_settings_roundtrip() {
    let s = er_bench::Settings::parse(
        ["--scale", "0.2", "--grid", "quick", "--datasets", "D3"]
            .iter()
            .map(|s| s.to_string()),
    );
    assert_eq!(s.scale, 0.2);
    assert_eq!(s.datasets.len(), 1);
    assert_eq!(s.resolution, GridResolution::Quick);
}
