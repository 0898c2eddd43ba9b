//! Sparse vector-based nearest-neighbor filtering (paper §IV-C).
//!
//! These methods are set-based similarity joins: each entity becomes a set
//! of tokens (whitespace tokens or character n-grams, set or multiset
//! semantics) and pairs are formed by similarity of token sets.
//!
//! * [`representation`] — the 10 representation models (`T1G(M)`,
//!   `C2G(M)`…`C5G(M)`),
//! * [`similarity`] — Cosine, Dice and Jaccard over set overlaps,
//! * [`csr`] — the token interner and contiguous CSR token-set layout
//!   shared by every sparse hot path,
//! * [`packed`] — delta-encoded, bitpacked CSR rows: the on-disk
//!   encoding of the token sets and the posting lists,
//! * [`scancount`] — the ScanCount inverted-list merge-count algorithm
//!   [Li et al., ICDE 2008], suited to the low thresholds ER needs, over
//!   CSR posting lists (AVX2 merge kernel behind the `simd` feature),
//! * [`reference`] — frozen naive implementations the property tests use
//!   as an oracle for the optimized layouts,
//! * [`epsilon`] — the range join (ε-Join),
//! * [`knn`] — the k-nearest-neighbor join with distinct-similarity
//!   semantics (Cone-style [Kocher & Augsten, SIGMOD 2019] adapted to
//!   ScanCount) and the `RVS` dataset-reversal parameter,
//! * [`grid`] — the Table IV configuration grids and the DkNN baseline,
//! * [`segmented`] — the LSM-style incremental index: immutable
//!   segments + mutable delta with tombstones, merged queries
//!   bitwise-equal to a full rebuild, background-plannable compaction,
//!   and manifest-based persistence,
//! * [`sharded`] — the out-of-core fan-out layer: one segmented index
//!   per deterministic shard, per-shard store files, queries k-way
//!   merged in shard order so results are byte-identical at any shard
//!   count × thread count.

pub mod artifact;
pub mod csr;
pub mod epsilon;
pub mod grid;
pub mod knn;
pub mod packed;
pub mod reference;
pub mod representation;
pub mod scancount;
pub mod segmented;
pub mod sharded;
#[cfg(feature = "simd")]
mod simd;
pub mod similarity;
pub mod store;
pub mod topk;

pub use artifact::TokenSetsArtifact;
pub use csr::{CsrTokenSets, TokenInterner};
pub use epsilon::EpsilonJoin;
pub use grid::{dknn_baseline, epsilon_grid, knn_grid, SparseGridResolution};
pub use knn::KnnJoin;
pub use packed::PackedRows;
pub use representation::RepresentationModel;
pub use scancount::{ScanCountIndex, ScanCountScratch};
pub use segmented::{
    ArtifactSource, MergeCursor, MergeScratch, PendingCompaction, PersistReport, QueryCounters,
    SegmentedTokenSets, SparseManifest, SparseSegment,
};
pub use sharded::{ShardedCursor, ShardedIndex};
pub use similarity::SimilarityMeasure;
pub use store::{SparseManifestCodec, SparsePackedCodec, SparseSegmentCodec};
pub use topk::TopKJoin;

#[cfg(test)]
mod proptests;
