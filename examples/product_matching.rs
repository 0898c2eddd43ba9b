//! Product matching across two retailers — the Abt-Buy / Walmart-Amazon
//! scenario that motivates the paper.
//!
//! ```text
//! cargo run --release --example product_matching
//! ```
//!
//! Builds two small product catalogs by hand (with typos, token splits and
//! a hard negative), then compares a blocking workflow, the kNN-Join and
//! the FAISS-style dense kNN on exactly the same input, and finally runs
//! the paper's Problem 1 (maximize precision subject to recall ≥ 0.9) on a
//! generated Walmart-Amazon-style dataset.

use er::core::optimize::{GridResolution, OptimizationOutcome};
use er::prelude::*;

fn catalog() -> Dataset {
    let e1 = vec![
        er::core::Entity::from_pairs([
            ("title", "Canon PowerShot SX530 digital camera"),
            ("price", "279.00"),
        ]),
        er::core::Entity::from_pairs([
            ("title", "Logitech MX Master 3S wireless mouse"),
            ("price", "99.99"),
        ]),
        er::core::Entity::from_pairs([
            ("title", "Sony WH-1000XM4 noise cancelling headphones"),
            ("price", "349.99"),
        ]),
        er::core::Entity::from_pairs([
            ("title", "Canon PowerShot SX540 digital camera"), // hard negative!
            ("price", "329.00"),
        ]),
    ];
    let e2 = vec![
        er::core::Entity::from_pairs([
            ("title", "canon power shot sx530 camera black"), // token split
            ("brand", "Canon"),
        ]),
        er::core::Entity::from_pairs([
            ("title", "logitech mx mastr 3s mouse"), // typo
            ("brand", "Logitech"),
        ]),
        er::core::Entity::from_pairs([
            ("title", "sony wh1000xm4 headphones wireless"),
            ("brand", "Sony"),
        ]),
        er::core::Entity::from_pairs([("title", "generic usb c cable 2m"), ("brand", "")]),
    ];
    let gt = GroundTruth::from_pairs([Pair::new(0, 0), Pair::new(1, 1), Pair::new(2, 2)]);
    Dataset::new("catalog", "Shop A / Shop B", e1, e2, gt)
}

fn report(name: &str, description: &str, out: &FilterOutput, ds: &Dataset) {
    let eff = evaluate(&out.candidates, &ds.groundtruth);
    println!("{name:<12} {description}");
    println!(
        "             PC = {:.2}, PQ = {:.2}, candidates = {:?}",
        eff.pc,
        eff.pq,
        out.candidates.to_sorted_vec()
    );
}

fn main() {
    let ds = catalog();
    let view = text_view(&ds, &SchemaMode::Agnostic);

    // A q-grams blocking workflow bridges the "mastr" typo.
    let blocking = BlockingWorkflow {
        builder: BlockBuilder::QGrams { q: 3 },
        purge: false,
        filter_ratio: None,
        cleaning: ComparisonCleaning::Meta(MetaBlocking {
            scheme: WeightingScheme::Js,
            pruning: PruningAlgorithm::Rcnp,
        }),
    };
    report("QBW", &blocking.describe(), &blocking.run(&view), &ds);

    // kNN-Join: one best candidate per query entity.
    let knn = KnnJoin {
        cleaning: false,
        model: RepresentationModel::parse("C3G").expect("C3G"),
        measure: SimilarityMeasure::Cosine,
        k: 1,
        reversed: false,
    };
    report("kNN-Join", &knn.describe(), &knn.run(&view), &ds);

    // FAISS-style dense kNN on hashed subword embeddings.
    let faiss = FlatKnn {
        cleaning: false,
        k: 1,
        reversed: false,
        embedding: EmbeddingConfig {
            dim: 128,
            ..Default::default()
        },
    };
    report("FAISS", &faiss.describe(), &faiss.run(&view), &ds);

    // Problem 1 in action: fine-tune kNN-Join on a generated dataset.
    println!("\nfine-tuning kNN-Join on a D8-style dataset (target PC >= 0.9):");
    let big = generate(er::datagen::profiles::profile("D8").expect("D8"), 0.05, 3);
    let big_view = text_view(&big, &SchemaMode::Agnostic);
    let optimizer = Optimizer::new(0.9);
    let mut outcome = OptimizationOutcome::default();
    let eval = |cfg: &KnnJoin| {
        let out = cfg.run(&big_view);
        (evaluate(&out.candidates, &big.groundtruth), out.breakdown)
    };
    for group in er::sparse::knn_grid(GridResolution::Quick) {
        optimizer.first_feasible(1, group, eval, &mut outcome);
    }
    let best = outcome
        .best_feasible
        .map(|ev| (ev.config, ev.eff.pc, ev.eff.pq));
    match best {
        Some((cfg, pc, pq)) => {
            println!(
                "  best configuration: {} -> PC = {pc:.3}, PQ = {pq:.3}",
                cfg.describe()
            );
        }
        None => println!("  no configuration reached the target"),
    }
}
