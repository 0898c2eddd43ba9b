//! `er-blocking` probes on the `sweep_blocking` dataset: each step of
//! the Standard-blocking workflow the grid spends its time in.

use crate::{evaluate_probe, profile_data, Probe};
use e2e::sweeps::grid_of;
use er::blocking::{
    block_filtering, block_purging, comparison_propagation, BlockBuilder, BlockingGraph,
    PruningAlgorithm, WeightingScheme,
};

pub fn run(p: &mut Probe) -> Result<(), String> {
    let grid = grid_of("sweep_blocking");
    let (ds, view) = profile_data(p, grid.profile, grid.scale);

    let (raw, secs) = p.repeat("BlockBuilder::build", "blocking", || {
        BlockBuilder::Standard.build(&view)
    });
    p.emit("blocking.build_s", secs, "s");
    let (purged, secs) = p.repeat("block_purging", "blocking", || block_purging(&raw));
    p.emit("blocking.purge_s", secs, "s");
    let (blocks, secs) = p.repeat("block_filtering", "blocking", || {
        block_filtering(&purged, 0.5)
    });
    p.emit("blocking.filter_s", secs, "s");
    // Counts at the boundary the graph is built on.
    p.emit("blocking.blocks", blocks.len() as f64, "count");
    p.emit(
        "blocking.comparisons",
        blocks.total_comparisons() as f64,
        "count",
    );

    let (graph, secs) = p.repeat("BlockingGraph::build", "blocking", || {
        BlockingGraph::build(&blocks)
    });
    p.emit("blocking.graph_s", secs, "s");
    let (edges, secs) = p.repeat("weighted_edges", "blocking", || {
        graph.weighted_edges(WeightingScheme::Js)
    });
    p.emit("blocking.weight_s", secs, "s");
    let (candidates, secs) = p.repeat("prune", "blocking", || {
        graph.prune(&edges, PruningAlgorithm::Rcnp)
    });
    p.emit("blocking.prune_s", secs, "s");
    p.emit(
        "blocking.candidates_per_comparison",
        candidates.len() as f64 / blocks.total_comparisons().max(1) as f64,
        "ratio",
    );
    let (_, secs) = p.repeat("comparison_propagation", "blocking", || {
        comparison_propagation(&blocks)
    });
    p.emit("blocking.propagation_s", secs, "s");

    evaluate_probe(p, &candidates, &ds);
    Ok(())
}
