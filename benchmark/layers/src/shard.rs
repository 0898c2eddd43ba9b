//! Probes for `shard_sweep`: the streaming generator, one shard's
//! segment build, its trip through the store, and the parallel layer.

use crate::Probe;
use e2e::sweeps::{SHARDS, SHARD_QUERIES, SHARD_ROWS};
use er::core::artifacts::{ArtifactKey, DiskTier, TierLoad};
use er::core::hash::mix64;
use er::core::parallel::par_map_with;
use er::core::shard::{shard_repr, ShardPlan};
use er::core::{PhaseBreakdown, Prepared};
use er::datagen::{StreamGen, StreamSpec};
use er::sparse::segmented::segment_repr;
use er::sparse::SparseSegment;

/// Times `DiskTier::store` then `DiskTier::load` of one artifact in a
/// fresh store under the probe's scratch directory.
pub fn store_roundtrip(
    p: &mut Probe,
    key: &ArtifactKey,
    prepared: &Prepared,
    rows: usize,
) -> Result<std::path::PathBuf, String> {
    let dir = p.scratch.join("store");
    let store = er_bench::open_store(&dir).map_err(|e| format!("open store: {e}"))?;
    let (written, secs) = p.once("DiskTier::store", "store", || store.store(key, prepared));
    if !written? {
        return Err(format!("store declined {}", key.repr));
    }
    let bytes = std::fs::metadata(store.file_path(key))
        .map_err(|e| format!("stat store file: {e}"))?
        .len();
    p.emit("store.persist_s", secs, "s");
    p.emit("store.persist_bytes", bytes as f64, "B");
    p.emit(
        "store.bytes_per_row",
        bytes as f64 / rows.max(1) as f64,
        "B",
    );
    let (loaded, secs) = p.repeat("DiskTier::load", "store", || store.load(key));
    match loaded {
        TierLoad::Hit { .. } => p.emit("store.load_s", secs, "s"),
        TierLoad::Miss => return Err("stored artifact not found on load".to_owned()),
        TierLoad::Failed(why) => return Err(format!("stored artifact unreadable: {why}")),
    }
    Ok(dir)
}

pub fn run(p: &mut Probe) -> Result<(), String> {
    // The same collection `er sweep --shards` streams for this seed.
    let spec = StreamSpec {
        seed: p.seed,
        rows: SHARD_ROWS as u32,
        queries: SHARD_QUERIES as u32,
        vocab: SHARD_ROWS * 5,
        ..StreamSpec::default()
    };
    let gen = StreamGen::new(spec);
    let plan = ShardPlan::new(SHARDS);

    let (rows, secs) = p.once("StreamGen::shard_rows", "datagen", || {
        gen.shard_rows(&plan, 0)
            .map(|row| (row.id, row.tokens))
            .collect::<Vec<_>>()
    });
    // One shard's pass regenerates (and filters) the whole stream.
    p.emit(
        "datagen.stream_rows_per_s",
        SHARD_ROWS as f64 / secs.max(1e-9),
        "1/s",
    );

    let queries = gen.query_rows();
    let n = rows.len();
    let (segment, secs) = p.once("SparseSegment::build", "sparse", || {
        SparseSegment::build(0, rows.clone(), &queries)
    });
    p.emit("sparse.segment_build_s", secs, "s");

    let bytes = segment.heap_bytes();
    let base = shard_repr("stream/eps", 0, SHARDS);
    let key = ArtifactKey::new(gen.fingerprint(), segment_repr(&base, 0));
    let prepared = Prepared::new(segment, bytes, PhaseBreakdown::new());
    store_roundtrip(p, &key, &prepared, n)?;

    // The parallel layer on its own: the same CPU-bound map at 1 and 2
    // threads (the sweep runs with `--threads 2`).
    let work = |row: &(u32, Vec<u64>)| -> u64 {
        let mut h = u64::from(row.0);
        for _ in 0..40 {
            for &t in &row.1 {
                h = mix64(h ^ t);
            }
        }
        h
    };
    let (one, t1) = p.repeat("par_map_with(1)", "core", || par_map_with(1, &rows, work));
    let (two, t2) = p.repeat("par_map_with(2)", "core", || par_map_with(2, &rows, work));
    if one != two {
        return Err("par_map_with disagrees between 1 and 2 threads".to_owned());
    }
    p.emit("core.par_speedup", t1 / t2.max(1e-9), "ratio");
    p.note(&format!(
        "par_map over {n} rows: {t1:.4} s at 1 thread, {t2:.4} s at 2 ({} cores available)",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    Ok(())
}
