//! Movie/TV-show linkage (IMDb–TMDb style) with misplaced attribute
//! values — the failure mode that rules out schema-based settings on
//! D5–D7 and D10.
//!
//! ```text
//! cargo run --release --example movie_linkage
//! ```
//!
//! Shows that (i) the best attribute's duplicate coverage caps schema-based
//! recall below the target, (ii) the schema-agnostic view recovers the
//! misplaced values, and (iii) cardinality thresholds (kNN-Join) beat
//! similarity thresholds (ε-Join) on this noisy data — the paper's
//! conclusion 3.

use er::core::optimize::{GridResolution, OptimizationOutcome};
use er::core::schema::attribute_stats;
use er::prelude::*;

/// Fine-tunes one method group by group (each ordered group sweeps until
/// its first feasible configuration) into one outcome and returns the
/// PQ-best feasible configuration with its PC and PQ.
fn optimize<F: Filter + Clone + Sync>(
    groups: Vec<Vec<F>>,
    view: &er::core::TextView,
    ds: &Dataset,
) -> Option<(F, f64, f64)> {
    let optimizer = Optimizer::new(0.9);
    let mut outcome = OptimizationOutcome::default();
    let eval = |cfg: &F| {
        let out = cfg.run(view);
        (evaluate(&out.candidates, &ds.groundtruth), out.breakdown)
    };
    for group in groups {
        optimizer.first_feasible(1, group, eval, &mut outcome);
    }
    outcome
        .best_feasible
        .map(|ev| (ev.config, ev.eff.pc, ev.eff.pq))
}

fn main() {
    let profile = er::datagen::profiles::profile("D5").expect("D5 exists");
    let ds = generate(profile, 0.1, 11);
    println!(
        "dataset {} ({}): |E1| = {}, |E2| = {}, duplicates = {}\n",
        ds.name,
        ds.sources,
        ds.e1.len(),
        ds.e2.len(),
        ds.groundtruth.len()
    );

    // (i) Why schema-based settings fail here: misplaced titles.
    let title = attribute_stats(&ds)
        .into_iter()
        .find(|s| s.name == "title")
        .expect("title attribute");
    println!(
        "title coverage: overall = {:.0}%, on duplicates = {:.0}% -> a schema-based\n\
         filter can reach at most ~{:.0}% recall; the target is 90%.\n",
        100.0 * title.coverage,
        100.0 * title.groundtruth_coverage,
        100.0 * title.groundtruth_coverage,
    );

    let based = text_view(&ds, &SchemaMode::BestAttribute);
    let agnostic = text_view(&ds, &SchemaMode::Agnostic);
    for (label, view) in [("schema-based", &based), ("schema-agnostic", &agnostic)] {
        let knn = KnnJoin {
            cleaning: false,
            model: RepresentationModel::parse("C3G").expect("C3G"),
            measure: SimilarityMeasure::Cosine,
            k: 3,
            reversed: false,
        };
        let out = knn.run(view);
        let eff = evaluate(&out.candidates, &ds.groundtruth);
        println!(
            "kNN-Join (K=3) on {label:<16}: PC = {:.3}, PQ = {:.4}",
            eff.pc, eff.pq
        );
    }

    // (iii) Similarity vs cardinality thresholds, both fine-tuned.
    println!("\nfine-tuned on the schema-agnostic view (target PC >= 0.9):");
    match optimize(
        er::sparse::epsilon_grid(GridResolution::Quick),
        &agnostic,
        &ds,
    ) {
        Some((cfg, pc, pq)) => {
            println!(
                "  e-Join   best: {:<40} PC = {pc:.3}, PQ = {pq:.4}",
                cfg.describe()
            );
        }
        None => println!("  e-Join   found no feasible configuration"),
    }
    match optimize(er::sparse::knn_grid(GridResolution::Quick), &agnostic, &ds) {
        Some((cfg, pc, pq)) => {
            println!(
                "  kNN-Join best: {:<40} PC = {pc:.3}, PQ = {pq:.4}",
                cfg.describe()
            );
        }
        None => println!("  kNN-Join found no feasible configuration"),
    }
    println!(
        "\nExpected (paper conclusions 3+5): the cardinality threshold scales linearly\n\
         with the query set and is the more robust choice on noisy movie data."
    );
}
