//! The workspace codec registry for the persistent artifact store.
//!
//! Every prepare-stage artifact family the Table VII sweep caches has one
//! codec here; opening a store through this module makes `--store-dir`
//! cover all 17 sweep methods (the DeepBlocker runs share the dense
//! flat-index codec). The honest baselines that bypass the artifact cache
//! (DkNN) never reach the store by construction.

use er::blocking::BlockingCodec;
use er::dense::{
    CrossPolytopeCodec, DenseFlatQCodec, HyperplaneCodec, MinHashCodec, PartitionedCodec,
};
use er::sparse::{SparseManifestCodec, SparsePackedCodec, SparseSegmentCodec};
use er::store::{ArtifactCodec, ArtifactStore};
use std::io;
use std::path::Path;

/// One codec per artifact family, in codec-id order. Ids 1 (plain-CSR
/// sparse) and 3 (first-generation dense flat) are retired and stay
/// reserved: a file carrying one is a structured `NoCodec` load failure,
/// and a new codec must never reuse them.
pub fn all_codecs() -> Vec<Box<dyn ArtifactCodec>> {
    vec![
        Box::new(BlockingCodec),
        Box::new(MinHashCodec),
        Box::new(HyperplaneCodec),
        Box::new(CrossPolytopeCodec),
        Box::new(PartitionedCodec),
        Box::new(SparsePackedCodec),
        Box::new(DenseFlatQCodec),
        Box::new(SparseSegmentCodec),
        Box::new(SparseManifestCodec),
    ]
}

/// Opens (creating if needed) `dir` with the full codec registry.
pub fn open_store(dir: &Path) -> io::Result<ArtifactStore> {
    ArtifactStore::open(dir, all_codecs()).map_err(io::Error::other)
}

/// Opens an existing `dir` read-only with the full codec registry — the
/// serving path: the daemon must never create or modify store files, and a
/// missing directory is a startup error rather than an empty store.
pub fn open_store_read_only(dir: &Path) -> io::Result<ArtifactStore> {
    ArtifactStore::open_read_only(dir, all_codecs()).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_ids_are_unique_and_stable() {
        let codecs = all_codecs();
        let ids: Vec<u32> = codecs.iter().map(|c| c.id()).collect();
        assert_eq!(
            ids,
            vec![2, 4, 5, 6, 7, 8, 9, 10, 11],
            "1 and 3 are retired"
        );
    }

    #[test]
    fn open_creates_the_directory() {
        let dir = std::env::temp_dir().join(format!("er_bench_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = open_store(&dir).expect("open");
        assert!(store.dir().is_dir());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
