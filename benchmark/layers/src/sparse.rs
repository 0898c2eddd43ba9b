//! `er-text` and `er-sparse` probes: tokenisation, the offline
//! prepare/query split, and single-row lookups against the artifact.

use crate::{evaluate_probe, profile_data, Probe};
use e2e::stats::{Rng, Samples};
use e2e::sweeps::grid_of;
use er::core::filter::{Filter, Prepared};
use er::core::schema::TextView;
use er::sparse::{
    EpsilonJoin, KnnJoin, RepresentationModel, ScanCountScratch, SimilarityMeasure,
    TokenSetsArtifact,
};
use er::text::Cleaner;
use std::time::Instant;

/// Rows replayed by the single-row probes.
pub const REPLAY_ROWS: usize = 2_000;

/// `RepresentationModel::token_set` over every text of the view, once
/// per model.
pub fn tokenise(p: &mut Probe, view: &TextView, models: &[&str]) {
    let cleaner = Cleaner::on();
    let mut seconds = 0.0;
    let mut tokens = 0usize;
    for name in models {
        let model = RepresentationModel::parse(name).expect("known model");
        let (n, secs) = p.once(&format!("token_set {name}"), "text", || {
            view.e1
                .iter()
                .chain(view.e2.iter())
                .map(|t| model.token_set(t, &cleaner).len())
                .sum::<usize>()
        });
        seconds += secs;
        tokens += n;
    }
    p.emit("text.token_set_s", seconds, "s");
    p.emit(
        "text.tokens_per_s",
        tokens as f64 / seconds.max(1e-9),
        "1/s",
    );
}

/// Prepare plus the per-row lookup over one `(cleaning, model)`
/// artifact; returns the prepared artifact.
pub fn prepare_and_rows(p: &mut Probe, view: &TextView, eps: &EpsilonJoin) -> Prepared {
    let (prepared, secs) = p.repeat("EpsilonJoin::prepare", "sparse", || eps.prepare(view));
    p.emit("sparse.prepare_s", secs, "s");
    p.emit(
        "sparse.artifact_bytes_per_row",
        prepared.bytes() as f64 / (view.e1.len() + view.e2.len()).max(1) as f64,
        "B",
    );

    let art = prepared.downcast::<TokenSetsArtifact>();
    let mut rng = Rng::stream(p.seed, 7);
    let mut scratch = ScanCountScratch::default();
    let (mut hits, mut ids) = (Vec::new(), Vec::new());
    let mut ns = Samples::default();
    let mut found = 0usize;
    let start = Instant::now();
    for _ in 0..REPLAY_ROWS {
        let j = rng.below(view.e2.len());
        ids.clear();
        let t0 = Instant::now();
        eps.query_row_into(art, j, &mut scratch, &mut hits, &mut ids);
        ns.push(t0.elapsed().as_nanos() as u64);
        found += ids.len();
    }
    p.tracer.record(
        "query_row_into x2000",
        "sparse",
        None,
        None,
        start,
        Instant::now(),
    );
    p.emit(
        "sparse.row_lookup_us",
        ns.quantile(0.5).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    p.emit(
        "sparse.candidates_per_query",
        found as f64 / REPLAY_ROWS as f64,
        "count",
    );
    prepared
}

/// The two batch query paths of the offline sweep over one artifact;
/// returns the ε-Join's candidates.
fn batch_queries(
    p: &mut Probe,
    view: &TextView,
    prepared: &Prepared,
    eps: &EpsilonJoin,
    knn: &KnnJoin,
) -> er::core::CandidateSet {
    let (out, secs) = p.repeat("EpsilonJoin::query", "sparse", || eps.query(view, prepared));
    p.emit("sparse.eps_query_s", secs, "s");
    let (_, secs) = p.repeat("KnnJoin::query", "sparse", || knn.query(view, prepared));
    p.emit("sparse.knn_query_s", secs, "s");
    out.candidates
}

/// The two joins of the sweep's sparse family over one shared artifact.
pub fn sweep_joins() -> (EpsilonJoin, KnnJoin) {
    let model = RepresentationModel::parse("T1G").expect("T1G");
    (
        EpsilonJoin {
            cleaning: true,
            model,
            measure: SimilarityMeasure::Cosine,
            threshold: 0.4,
        },
        KnnJoin {
            cleaning: true,
            model,
            measure: SimilarityMeasure::Cosine,
            k: 2,
            reversed: false,
        },
    )
}

pub fn run_sweep(p: &mut Probe) -> Result<(), String> {
    let grid = grid_of("sweep_sparse");
    let (ds, view) = profile_data(p, grid.profile, grid.scale);
    tokenise(p, &view, &["T1G", "C3G"]);
    let (eps, knn) = sweep_joins();
    let prepared = prepare_and_rows(p, &view, &eps);
    let candidates = batch_queries(p, &view, &prepared, &eps, &knn);
    evaluate_probe(p, &candidates, &ds);
    Ok(())
}
