//! Property-based tests of the dense NN substrate.

#![cfg(test)]

use crate::embed::{EmbeddingConfig, HashEmbedder};
use crate::flat::{FlatIndex, Metric};
use crate::partitioned::{assign, kmeans};
use crate::pq::ProductQuantizer;
use crate::vector::{cosine, dot, l2_sq, normalize};
use er_text::Cleaner;
use proptest::prelude::*;

fn arb_vec(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, dim)
}

proptest! {
    /// Normalization yields unit vectors (or zero), preserving direction.
    #[test]
    fn normalize_properties(v in arb_vec(8)) {
        let mut n = v.clone();
        normalize(&mut n);
        let norm = dot(&n, &n).sqrt();
        if v.iter().any(|&x| x != 0.0) {
            prop_assert!((norm - 1.0).abs() < 1e-4, "norm {}", norm);
            prop_assert!(cosine(&v, &n) > 1.0 - 1e-4);
        } else {
            prop_assert_eq!(norm, 0.0);
        }
    }

    /// L2 distance satisfies identity and symmetry; dot is bilinear-ish.
    #[test]
    fn metric_axioms(a in arb_vec(6), b in arb_vec(6)) {
        prop_assert_eq!(l2_sq(&a, &a), 0.0);
        prop_assert!((l2_sq(&a, &b) - l2_sq(&b, &a)).abs() < 1e-3);
        prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-3);
        prop_assert!(l2_sq(&a, &b) >= 0.0);
    }

    /// Exact kNN returns the same top-1 as a linear scan and respects k.
    #[test]
    fn flat_knn_exact(
        data in proptest::collection::vec(arb_vec(4), 1..20),
        query in arb_vec(4),
        k in 1usize..6,
    ) {
        let idx = FlatIndex::build(data.clone(), Metric::L2Sq);
        let nn = idx.knn(&query, k);
        prop_assert_eq!(nn.len(), k.min(data.len()));
        // Best-first ordering.
        for w in nn.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
        // Top-1 matches the linear scan minimum.
        let best_cost = data.iter().map(|v| l2_sq(&query, v)).fold(f32::INFINITY, f32::min);
        prop_assert!((nn[0].1 - best_cost).abs() < 1e-3);
    }

    /// k-means: every point is assigned to its nearest centroid, and the
    /// centroid count is clamped correctly.
    #[test]
    fn kmeans_assignment_consistent(
        data in proptest::collection::vec(arb_vec(3), 1..25),
        k in 1usize..8,
    ) {
        let centroids = kmeans(&data, k, 5, 42);
        prop_assert_eq!(centroids.len(), k.min(data.len()));
        let assignment = assign(&data, &centroids);
        for (v, &a) in data.iter().zip(&assignment) {
            let assigned = l2_sq(v, &centroids[a]);
            for c in &centroids {
                prop_assert!(assigned <= l2_sq(v, c) + 1e-3);
            }
        }
    }

    /// PQ round trip: encode produces m codes within codebook range, and
    /// the LUT score of a vector's own code is bounded by its true
    /// distance to any codebook reconstruction.
    #[test]
    fn pq_codes_valid(
        data in proptest::collection::vec(arb_vec(8), 4..30),
        m in 1usize..5,
    ) {
        let pq = ProductQuantizer::train(&data, m, 3);
        for v in data.iter().take(5) {
            let code = pq.encode(v);
            prop_assert_eq!(code.len(), m);
            prop_assert!(code.iter().all(|&c| (c as usize) < crate::pq::CODEBOOK_SIZE));
            // Own-code reconstruction is the nearest codebook point per
            // subspace, so no other code scores lower for this query.
            let table = pq.lookup_table(v, false);
            let own = pq.score(&table, &code);
            for other in data.iter().take(5) {
                let other_code = pq.encode(other);
                prop_assert!(pq.score(&table, &other_code) >= own - 1e-3);
            }
        }
    }

    /// Embeddings are deterministic unit vectors; permutation of tokens
    /// leaves the embedding unchanged (mean aggregation).
    #[test]
    fn embedding_invariants(words in proptest::collection::vec("[a-f]{1,8}", 1..5)) {
        let embedder = HashEmbedder::new(EmbeddingConfig { dim: 32, ..Default::default() });
        let text = words.join(" ");
        let v = embedder.embed(&text, &Cleaner::off());
        prop_assert!((dot(&v, &v).sqrt() - 1.0).abs() < 1e-4);
        let mut reversed_words = words.clone();
        reversed_words.reverse();
        let rv = embedder.embed(&reversed_words.join(" "), &Cleaner::off());
        prop_assert!(cosine(&v, &rv) > 1.0 - 1e-4, "word order must not matter");
    }
}
