//! Dense vector-based nearest-neighbor filtering (paper §IV-D).
//!
//! Entities are transformed into fixed-length dense vectors and the closest
//! vectors to every query become its candidates. The paper's embedding is
//! pre-trained 300-dim fastText; this repository substitutes deterministic
//! feature-hashed character-n-gram embeddings (see [`embed`] and DESIGN.md)
//! that preserve the relevant subword behaviour without external model
//! files.
//!
//! * [`vector`] — dispatched dot/L2² kernels (blocked scalar reference,
//!   AVX2/NEON under the `simd` feature) and the contiguous
//!   [`FlatVectors`] row store,
//! * [`embed`] — the hashed subword embedder ("average tuple embedding"),
//! * [`flat`] — exact brute-force kNN, the FAISS-Flat equivalent,
//! * [`pq`] — product quantization (asymmetric-hashing scoring),
//! * [`partitioned`] — k-means partitioned index, the SCANN equivalent,
//! * [`minhash`] — MinHash LSH over character k-shingles,
//! * [`hyperplane`] — Hyperplane LSH (sign-random-projection, multiprobe),
//! * [`crosspolytope`] — Cross-Polytope LSH (FALCONN-style),
//! * [`deepblocker`] — autoencoder tuple embedding + kNN (DeepBlocker),
//! * [`grid`] — the Table V configuration spaces and baselines.

pub mod artifact;
pub mod crosspolytope;
pub mod deepblocker;
pub mod embed;
pub mod flat;
pub mod grid;
pub mod hnsw;
pub mod hyperplane;
pub mod minhash;
pub mod partitioned;
pub mod pq;
mod simd;
pub mod store;
pub mod vector;

pub use artifact::DenseIndexArtifact;
pub use crosspolytope::CrossPolytopeLsh;
pub use deepblocker::{DeepBlocker, DeepBlockerConfig};
pub use embed::{EmbeddingConfig, HashEmbedder};
pub use flat::{FlatIndex, FlatKnn, FlatRange, KnnScratch, Metric};
pub use grid::{ddb_baseline, DenseMethod};
pub use hnsw::{HnswIndex, HnswKnn};
pub use hyperplane::HyperplaneLsh;
pub use minhash::MinHashLsh;
pub use partitioned::{assign, kmeans, PartitionedArtifact, PartitionedKnn, Scoring};
pub use pq::ProductQuantizer;
pub use store::{
    CrossPolytopeCodec, DenseFlatQCodec, HyperplaneCodec, MinHashCodec, PartitionedCodec,
};
pub use vector::{
    cosine, dot, dot_blocked, dot_scalar, l2_sq, l2_sq_blocked, l2_sq_scalar, normalize,
    FlatVectors,
};

#[cfg(test)]
mod proptests;
