//! `er-dense` and `er-neural` probes on the `sweep_dense` dataset: the
//! embedder, one run of each index family at its quick-grid
//! configuration, and the autoencoder's training loop.

use crate::{evaluate_probe, profile_data, Probe};
use e2e::sweeps::grid_of;
use er::core::filter::Filter;
use er::dense::{
    CrossPolytopeLsh, EmbeddingConfig, FlatKnn, HashEmbedder, HyperplaneLsh, Metric, MinHashLsh,
    PartitionedKnn, Scoring,
};
use er::neural::autoencoder::{Autoencoder, AutoencoderConfig};
use er::text::Cleaner;

pub fn run(p: &mut Probe) -> Result<(), String> {
    let grid = grid_of("sweep_dense");
    let (ds, view) = profile_data(p, grid.profile, grid.scale);
    let embedding = EmbeddingConfig::default();
    let seed = p.seed;

    let ((e1, e2), secs) = p.repeat("HashEmbedder::embed_view", "dense", || {
        HashEmbedder::new(embedding).embed_view(&view, &Cleaner::on())
    });
    p.emit("dense.embed_s", secs, "s");

    let flat = FlatKnn {
        cleaning: true,
        k: 5,
        reversed: false,
        embedding,
    };
    let (out, secs) = p.repeat("FlatKnn::run", "dense", || flat.run(&view));
    p.emit("dense.flat_knn_s", secs, "s");
    p.emit(
        "dense.candidates_per_query",
        out.candidates.len() as f64 / view.e2.len().max(1) as f64,
        "count",
    );

    let minhash = MinHashLsh {
        cleaning: true,
        shingle_k: 3,
        bands: 32,
        rows: 8,
        seed,
    };
    let (_, secs) = p.repeat("MinHashLsh::run", "dense", || minhash.run(&view));
    p.emit("dense.minhash_s", secs, "s");

    let hyperplane = HyperplaneLsh {
        cleaning: true,
        tables: 8,
        hashes: 8,
        probes: 1,
        embedding,
        seed,
    };
    let (_, secs) = p.repeat("HyperplaneLsh::run", "dense", || hyperplane.run(&view));
    p.emit("dense.hyperplane_s", secs, "s");

    let crosspolytope = CrossPolytopeLsh {
        cleaning: true,
        tables: 8,
        hashes: 1,
        last_cp_dim: 32,
        probes: 1,
        embedding,
        seed,
    };
    let (_, secs) = p.repeat("CrossPolytopeLsh::run", "dense", || {
        crosspolytope.run(&view)
    });
    p.emit("dense.crosspolytope_s", secs, "s");

    let partitioned = PartitionedKnn {
        cleaning: true,
        k: 5,
        reversed: false,
        scoring: Scoring::BruteForce,
        metric: Metric::L2Sq,
        probe_fraction: 0.25,
        embedding,
        seed,
    };
    let (_, secs) = p.repeat("PartitionedKnn::run", "dense", || partitioned.run(&view));
    p.emit("dense.partitioned_s", secs, "s");

    // The autoencoder as DDB configures it, over both sides' vectors.
    let config = AutoencoderConfig {
        input_dim: embedding.dim,
        hidden_dim: embedding.dim / 2,
        epochs: 15,
        seed,
        ..AutoencoderConfig::default()
    };
    let data: Vec<Vec<f32>> = e1.into_iter().chain(e2).collect();
    let (_, secs) = p.repeat("Autoencoder::train", "neural", || {
        Autoencoder::train(&data, &config)
    });
    p.emit("neural.train_s", secs, "s");
    p.emit(
        "neural.train_rows_per_s",
        (data.len() * config.epochs) as f64 / secs.max(1e-9),
        "1/s",
    );

    evaluate_probe(p, &out.candidates, &ds);
    Ok(())
}
