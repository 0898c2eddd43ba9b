//! Exact brute-force kNN over dense vectors — the FAISS `Flat` index
//! equivalent (paper §IV-D).
//!
//! The paper reports that for this benchmark FAISS works best with the Flat
//! index on normalized embeddings with Euclidean distance, so [`FlatKnn`]
//! fixes exactly that configuration and exposes the `CL`, `RVS` and `K`
//! parameters of Table V.

use crate::artifact::DenseIndexArtifact;
use crate::embed::EmbeddingConfig;
use crate::vector::FlatVectors;
use er_core::filter::{Filter, FilterOutput, Prepared};
use er_core::parallel::{self, Threads};
use er_core::schema::TextView;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Ranking metric of a [`FlatIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Maximum dot product (SCANN's "DP").
    Dot,
    /// Minimum squared Euclidean distance (FAISS default; SCANN's "L2²").
    L2Sq,
}

/// A heap entry ordered so the *worst* kept neighbor is at the top.
#[derive(PartialEq)]
struct HeapItem {
    /// Larger = worse (distance, or negated dot product).
    cost: f32,
    id: u32,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cost
            .partial_cmp(&other.cost)
            .unwrap_or(Ordering::Equal)
            // Among equal costs, keep the smaller id (pop larger first).
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An exact (brute-force) vector index over contiguous row-major storage.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    vectors: FlatVectors,
    metric: Metric,
}

impl FlatIndex {
    /// Builds the index by packing the vectors into contiguous storage.
    pub fn build(vectors: Vec<Vec<f32>>, metric: Metric) -> Self {
        Self::from_parts(FlatVectors::from_rows(&vectors), metric)
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Exact heap footprint of the stored vectors, for cache accounting.
    pub fn heap_bytes(&self) -> usize {
        self.vectors.heap_bytes()
    }

    /// Storage and metric, for serialization.
    pub(crate) fn raw_parts(&self) -> (&FlatVectors, Metric) {
        (&self.vectors, self.metric)
    }

    /// Wraps already-contiguous storage (the store decode path).
    pub(crate) fn from_parts(vectors: FlatVectors, metric: Metric) -> Self {
        Self { vectors, metric }
    }

    /// Cost of a candidate under the metric: lower is better.
    #[inline]
    pub fn cost(&self, query: &[f32], id: u32) -> f32 {
        let v = self.vectors.row(id as usize);
        match self.metric {
            Metric::Dot => -crate::vector::dot(query, v),
            Metric::L2Sq => crate::vector::l2_sq(query, v),
        }
    }

    /// Returns the `k` nearest vectors as `(id, cost)`, best first; ties
    /// break toward smaller ids.
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        self.knn_scratch(query, k, &mut KnnScratch::default())
    }

    /// [`FlatIndex::knn`] reusing a caller-provided [`KnnScratch`], so a
    /// query loop allocates one bounded heap for its whole lifetime
    /// instead of one per query. Rows feed the selection heap in
    /// ascending id order.
    pub fn knn_scratch(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut KnnScratch,
    ) -> Vec<(u32, f32)> {
        knn_over_scratch(scratch, k, 0..self.vectors.len() as u32, |id| {
            self.cost(query, id)
        })
    }

    /// Batch kNN fan-out over the global [`Threads`] worker count: one
    /// result list per query, empty for all-zero (empty-text) queries.
    pub fn knn_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<(u32, f32)>> {
        self.knn_batch_with(Threads::get(), queries, k)
    }

    /// [`FlatIndex::knn_batch`] over an explicit worker count.
    ///
    /// Queries are independent, so the chunked fan-out merged in query
    /// order returns exactly `queries.iter().map(|q| self.knn(q, k))` for
    /// every `threads`. Each worker chunk reuses one [`KnnScratch`].
    pub fn knn_batch_with(
        &self,
        threads: usize,
        queries: &[Vec<f32>],
        k: usize,
    ) -> Vec<Vec<(u32, f32)>> {
        let chunk = parallel::query_chunk_len(queries.len());
        let per_chunk = parallel::par_map_chunks_with(threads, queries, chunk, |_, part| {
            let mut scratch = KnnScratch::default();
            part.iter()
                .map(|q| {
                    if q.iter().all(|&v| v == 0.0) {
                        Vec::new()
                    } else {
                        self.knn_scratch(q, k, &mut scratch)
                    }
                })
                .collect::<Vec<_>>()
        });
        per_chunk.into_iter().flatten().collect()
    }

    /// Range (similarity) search: every vector with cost ≤ `radius`, in
    /// ascending id order.
    ///
    /// FAISS supports this next to kNN search; the paper evaluated it and
    /// found it "consistently underperforms kNN search" for ER filtering —
    /// the `ablation_excluded` binary verifies that observation.
    pub fn range(&self, query: &[f32], radius: f32) -> Vec<(u32, f32)> {
        (0..self.vectors.len() as u32)
            .filter_map(|id| {
                let c = self.cost(query, id);
                (c <= radius).then_some((id, c))
            })
            .collect()
    }

    /// Batch range-search fan-out over the global [`Threads`] count; empty
    /// for all-zero queries. Per-query results match [`FlatIndex::range`]
    /// for every thread count.
    pub fn range_batch(&self, queries: &[Vec<f32>], radius: f32) -> Vec<Vec<(u32, f32)>> {
        self.range_batch_with(Threads::get(), queries, radius)
    }

    /// [`FlatIndex::range_batch`] over an explicit worker count.
    pub fn range_batch_with(
        &self,
        threads: usize,
        queries: &[Vec<f32>],
        radius: f32,
    ) -> Vec<Vec<(u32, f32)>> {
        let chunk = parallel::query_chunk_len(queries.len());
        let per_chunk = parallel::par_map_chunks_with(threads, queries, chunk, |_, part| {
            part.iter()
                .map(|q| {
                    if q.iter().all(|&v| v == 0.0) {
                        Vec::new()
                    } else {
                        self.range(q, radius)
                    }
                })
                .collect::<Vec<_>>()
        });
        per_chunk.into_iter().flatten().collect()
    }
}

/// The FAISS range-search filter: pairs every query with all indexed
/// vectors within squared Euclidean distance `radius` — the
/// similarity-threshold counterpart of [`FlatKnn`], implemented for the
/// exclusion ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatRange {
    /// Apply stop-word removal + stemming (`CL`).
    pub cleaning: bool,
    /// Squared Euclidean radius on unit vectors (`2 − 2·cos`).
    pub radius: f32,
    /// Embedding configuration.
    pub embedding: EmbeddingConfig,
}

impl FlatRange {
    /// One-line configuration description.
    pub fn describe(&self) -> String {
        format!(
            "CL={} radius={:.2}",
            if self.cleaning { "y" } else { "-" },
            self.radius
        )
    }
}

impl Filter for FlatRange {
    fn name(&self) -> String {
        "FAISS-range".to_owned()
    }

    fn repr_key(&self) -> String {
        DenseIndexArtifact::repr_key(self.cleaning, &self.embedding, false)
    }

    fn prepare(&self, view: &TextView) -> Prepared {
        DenseIndexArtifact::prepare(view, self.cleaning, self.embedding, false)
    }

    fn query(&self, _view: &TextView, prepared: &Prepared) -> FilterOutput {
        let art = prepared.downcast::<DenseIndexArtifact>();
        let mut out = FilterOutput::default();
        out.breakdown.time("query", || {
            for (j, hits) in art
                .index
                .range_batch(&art.queries, self.radius)
                .into_iter()
                .enumerate()
            {
                for (i, _) in hits {
                    out.candidates.insert_raw(i, j as u32);
                }
            }
        });
        out
    }
}

/// Reusable scratch for repeated bounded top-k selections.
///
/// Holds the selection heap so a query loop pays for its allocation once
/// instead of once per query; [`FlatIndex::knn_batch_with`] keeps one per
/// worker chunk. The `KnnScratch::consider`/`KnnScratch::take_sorted`
/// protocol is the single implementation of the bounded-heap selection
/// the flat scan and the partitioned index share, so they cannot diverge
/// on replace/tie decisions.
#[derive(Default)]
pub struct KnnScratch {
    heap: BinaryHeap<HeapItem>,
}

impl KnnScratch {
    /// Resets the scratch for a selection of up to `k` entries.
    pub(crate) fn begin(&mut self, k: usize) {
        self.heap.clear();
        if self.heap.capacity() < k + 1 {
            self.heap.reserve(k + 1 - self.heap.capacity());
        }
    }

    /// Offers one `(id, cost)` candidate to the bounded heap. Ties on
    /// cost keep the smaller id.
    #[inline]
    pub(crate) fn consider(&mut self, k: usize, id: u32, cost: f32) {
        if self.heap.len() < k {
            self.heap.push(HeapItem { cost, id });
        } else if let Some(worst) = self.heap.peek() {
            if cost < worst.cost || (cost == worst.cost && id < worst.id) {
                self.heap.pop();
                self.heap.push(HeapItem { cost, id });
            }
        }
    }

    /// Drains the kept entries, best (lowest cost) first, ties by
    /// ascending id.
    pub(crate) fn take_sorted(&mut self) -> Vec<(u32, f32)> {
        let mut out: Vec<(u32, f32)> = self.heap.drain().map(|h| (h.id, h.cost)).collect();
        out.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }
}

/// Generic top-k selection over an id stream with a cost function; shared
/// with the partitioned index. Best (lowest cost) first.
pub(crate) fn knn_over(
    _query: &[f32],
    k: usize,
    ids: impl Iterator<Item = u32>,
    cost: impl FnMut(u32) -> f32,
) -> Vec<(u32, f32)> {
    let mut scratch = KnnScratch::default();
    knn_over_scratch(&mut scratch, k, ids, cost)
}

/// [`knn_over`] against a caller-owned [`KnnScratch`]. The heap is
/// bounded at `k + 1` entries, so the selection is `O(N log k)` and never
/// materializes (or fully sorts) all `N` costs.
pub(crate) fn knn_over_scratch(
    scratch: &mut KnnScratch,
    k: usize,
    ids: impl Iterator<Item = u32>,
    mut cost: impl FnMut(u32) -> f32,
) -> Vec<(u32, f32)> {
    if k == 0 {
        return Vec::new();
    }
    scratch.begin(k);
    for id in ids {
        let c = cost(id);
        scratch.consider(k, id, c);
    }
    scratch.take_sorted()
}

/// The FAISS-equivalent filter: embed, index `E1` flat, kNN-query with
/// every `E2` entity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatKnn {
    /// Apply stop-word removal + stemming (`CL`).
    pub cleaning: bool,
    /// Neighbors per query (`K`).
    pub k: usize,
    /// Reverse datasets (`RVS`).
    pub reversed: bool,
    /// Embedding configuration.
    pub embedding: EmbeddingConfig,
}

impl FlatKnn {
    /// One-line configuration description for Table X-style reports.
    pub fn describe(&self) -> String {
        format!(
            "CL={} RVS={} K={}",
            if self.cleaning { "y" } else { "-" },
            if self.reversed { "y" } else { "-" },
            self.k
        )
    }
}

impl FlatKnn {
    /// Computes per-query rankings up to `k_max` neighbors.
    ///
    /// The optimizer's K-sweep then derives the candidate set of any
    /// `K ≤ k_max` as a prefix, and Figures 4–6 read duplicate ranks off
    /// the same lists. Similarities are negated costs (descending order).
    pub fn rankings(&self, view: &TextView, k_max: usize) -> er_core::QueryRankings {
        let prepared = self.prepare(view);
        self.rankings_from(prepared.downcast::<DenseIndexArtifact>(), k_max)
    }

    /// [`FlatKnn::rankings`] on a shared prepare-stage artifact: the
    /// embeddings and index are reused, only the kNN scoring runs.
    pub fn rankings_from(
        &self,
        artifact: &DenseIndexArtifact,
        k_max: usize,
    ) -> er_core::QueryRankings {
        let neighbors = artifact
            .index
            .knn_batch(&artifact.queries, k_max)
            .into_iter()
            .map(|nn| {
                nn.into_iter()
                    .map(|(i, cost)| (i, f64::from(-cost)))
                    .collect()
            })
            .collect();
        er_core::QueryRankings {
            neighbors,
            reversed: self.reversed,
        }
    }
}

impl Filter for FlatKnn {
    fn name(&self) -> String {
        "FAISS".to_owned()
    }

    fn repr_key(&self) -> String {
        DenseIndexArtifact::repr_key(self.cleaning, &self.embedding, self.reversed)
    }

    fn prepare(&self, view: &TextView) -> Prepared {
        DenseIndexArtifact::prepare(view, self.cleaning, self.embedding, self.reversed)
    }

    fn query(&self, _view: &TextView, prepared: &Prepared) -> FilterOutput {
        let art = prepared.downcast::<DenseIndexArtifact>();
        let mut out = FilterOutput::default();
        out.breakdown.time("query", || {
            // Zero vectors (empty texts) yield empty neighbor lists.
            for (q, nn) in art
                .index
                .knn_batch(&art.queries, self.k)
                .into_iter()
                .enumerate()
            {
                for (i, _) in nn {
                    if self.reversed {
                        out.candidates.insert_raw(q as u32, i);
                    } else {
                        out.candidates.insert_raw(i, q as u32);
                    }
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::candidates::Pair;

    fn vectors() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 0.0],
            vec![0.9, 0.1],
            vec![0.0, 1.0],
            vec![-1.0, 0.0],
        ]
    }

    #[test]
    fn l2_knn_orders_by_distance() {
        let idx = FlatIndex::build(vectors(), Metric::L2Sq);
        let nn = idx.knn(&[1.0, 0.0], 2);
        assert_eq!(nn[0].0, 0);
        assert_eq!(nn[1].0, 1);
        assert!(nn[0].1 <= nn[1].1);
    }

    #[test]
    fn dot_knn_prefers_aligned_vectors() {
        let idx = FlatIndex::build(vectors(), Metric::Dot);
        let nn = idx.knn(&[1.0, 0.0], 4);
        assert_eq!(nn.first().map(|x| x.0), Some(0));
        assert_eq!(nn.last().map(|x| x.0), Some(3), "anti-aligned ranks last");
    }

    #[test]
    fn k_larger_than_index_returns_all() {
        let idx = FlatIndex::build(vectors(), Metric::L2Sq);
        assert_eq!(idx.knn(&[0.0, 0.0], 100).len(), 4);
        assert!(idx.knn(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn ties_break_toward_smaller_ids() {
        let idx = FlatIndex::build(
            vec![vec![1.0, 0.0], vec![1.0, 0.0], vec![1.0, 0.0]],
            Metric::L2Sq,
        );
        let nn = idx.knn(&[1.0, 0.0], 2);
        assert_eq!(nn.iter().map(|x| x.0).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn filter_pairs_duplicates_first() {
        let view = TextView {
            e1: vec!["canon eos 5d camera".into(), "office chair".into()].into(),
            e2: vec![
                "canon eos5d camera body".into(),
                "leather office chair".into(),
            ]
            .into(),
        };
        let f = FlatKnn {
            cleaning: false,
            k: 1,
            reversed: false,
            embedding: EmbeddingConfig {
                dim: 64,
                ..Default::default()
            },
        };
        let out = f.run(&view);
        assert!(out.candidates.contains(Pair::new(0, 0)));
        assert!(out.candidates.contains(Pair::new(1, 1)));
        assert_eq!(out.candidates.len(), 2);
    }

    #[test]
    fn reversed_filter_keeps_orientation() {
        let view = TextView {
            e1: vec!["alpha beta".into()].into(),
            e2: vec!["alpha beta".into(), "unrelated thing".into()].into(),
        };
        let f = FlatKnn {
            cleaning: false,
            k: 1,
            reversed: true,
            embedding: EmbeddingConfig {
                dim: 64,
                ..Default::default()
            },
        };
        let out = f.run(&view);
        // Two queries from E2... reversed: queries come from E1 (1 query).
        assert_eq!(out.candidates.len(), 1);
        assert!(out.candidates.contains(Pair::new(0, 0)));
    }

    #[test]
    fn range_search_returns_within_radius() {
        let idx = FlatIndex::build(vectors(), Metric::L2Sq);
        let hits = idx.range(&[1.0, 0.0], 0.05);
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![0, 1]);
        assert!(idx.range(&[1.0, 0.0], -1.0).is_empty());
        // Radius large enough covers everything.
        assert_eq!(idx.range(&[1.0, 0.0], 100.0).len(), 4);
    }

    #[test]
    fn range_filter_monotone_in_radius() {
        let view = TextView {
            e1: vec!["canon camera".into(), "office chair".into()].into(),
            e2: vec!["canon camera body".into()].into(),
        };
        let filter = |radius: f32| FlatRange {
            cleaning: false,
            radius,
            embedding: EmbeddingConfig {
                dim: 32,
                ..Default::default()
            },
        };
        let small = filter(0.2).run(&view).candidates;
        let large = filter(1.5).run(&view).candidates;
        assert!(small.len() <= large.len());
        for p in small.iter() {
            assert!(large.contains(p));
        }
    }

    #[test]
    fn batch_queries_match_serial_for_any_thread_count() {
        // Pseudo-random vectors, including exact duplicates (tie-breaks)
        // and one all-zero query (skip path).
        let dim = 8;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / 1000.0
        };
        let base: Vec<Vec<f32>> = (0..150)
            .map(|_| (0..dim).map(|_| next()).collect())
            .collect();
        let mut queries = base[..40].to_vec();
        queries.push(vec![0.0; dim]);
        queries.extend(base[..3].to_vec());

        for metric in [Metric::L2Sq, Metric::Dot] {
            let idx = FlatIndex::build(base.clone(), metric);
            let serial_knn: Vec<Vec<(u32, f32)>> = queries
                .iter()
                .map(|q| {
                    if q.iter().all(|&v| v == 0.0) {
                        Vec::new()
                    } else {
                        idx.knn(q, 7)
                    }
                })
                .collect();
            let serial_range: Vec<Vec<(u32, f32)>> = queries
                .iter()
                .map(|q| {
                    if q.iter().all(|&v| v == 0.0) {
                        Vec::new()
                    } else {
                        idx.range(q, 0.5)
                    }
                })
                .collect();
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    idx.knn_batch_with(threads, &queries, 7),
                    serial_knn,
                    "knn threads={threads}"
                );
                assert_eq!(
                    idx.range_batch_with(threads, &queries, 0.5),
                    serial_range,
                    "range threads={threads}"
                );
            }
        }
    }

    /// The oracle of the scan tests: every row's `cost()`, fully sorted
    /// by `(cost, id)`, cut at `k`.
    fn sorted_costs(idx: &FlatIndex, q: &[f32], k: usize) -> Vec<(u32, f32)> {
        let mut all: Vec<(u32, f32)> = (0..idx.len() as u32)
            .map(|id| (id, idx.cost(q, id)))
            .collect();
        all.sort_by(|a, b| {
            let by_cost = a.1.partial_cmp(&b.1).expect("finite costs");
            by_cost.then(a.0.cmp(&b.0))
        });
        all.truncate(k);
        all
    }

    fn assert_scan_matches_sorted_costs(base: &[Vec<f32>], queries: &[Vec<f32>], ks: &[usize]) {
        for metric in [Metric::L2Sq, Metric::Dot] {
            let idx = FlatIndex::build(base.to_vec(), metric);
            for &k in ks {
                let want: Vec<Vec<(u32, f32)>> =
                    queries.iter().map(|q| sorted_costs(&idx, q, k)).collect();
                for threads in [1, 8] {
                    let got = idx.knn_batch_with(threads, queries, k);
                    assert_eq!(got, want, "{metric:?} k={k} threads={threads}");
                    for (a, b) in got.iter().flatten().zip(want.iter().flatten()) {
                        assert_eq!(a.1.to_bits(), b.1.to_bits(), "{metric:?} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn scan_matches_sorted_row_at_a_time_costs() {
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / 1000.0
        };
        let mut rows = |n: usize, dim: usize| -> Vec<Vec<f32>> {
            (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect()
        };
        // k on both sides of the row count.
        let (base, queries) = (rows(37, 9), rows(5, 9));
        assert_scan_matches_sorted_costs(&base, &queries, &[1, 4, 11, 36, 37, 50]);
        // A collection deep enough that the heap is full for almost the
        // whole scan.
        let (base, queries) = (rows(5_000, 16), rows(4, 16));
        assert_scan_matches_sorted_costs(&base, &queries, &[1, 5, 10]);
    }

    #[test]
    fn scan_handles_duplicate_rows_and_ties() {
        // Many identical rows: every cost ties, so the kept ids must be
        // the smallest ones.
        let base = vec![vec![0.5f32, -0.25, 0.125]; 20];
        let q = vec![vec![0.5f32, -0.25, 0.125]];
        assert_scan_matches_sorted_costs(&base, &q, &[1, 5, 19]);
        let idx = FlatIndex::build(base, Metric::L2Sq);
        assert_eq!(
            idx.knn(&q[0], 5).iter().map(|x| x.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn scratch_reuse_matches_fresh_knn() {
        let idx = FlatIndex::build(vectors(), Metric::L2Sq);
        let mut scratch = KnnScratch::default();
        // Reuse across queries with different k: results must equal knn().
        for (q, k) in [
            ([1.0, 0.0], 2),
            ([0.0, 1.0], 4),
            ([-1.0, 0.5], 1),
            ([0.3, 0.3], 3),
        ] {
            assert_eq!(idx.knn_scratch(&q, k, &mut scratch), idx.knn(&q, k));
        }
    }

    #[test]
    fn shared_artifact_matches_cold_runs_and_spans_filters() {
        let view = TextView {
            e1: vec!["canon eos 5d camera".into(), "office chair".into()].into(),
            e2: vec![
                "canon eos5d camera body".into(),
                "leather office chair".into(),
            ]
            .into(),
        };
        let emb = EmbeddingConfig {
            dim: 64,
            ..Default::default()
        };
        let knn = |k| FlatKnn {
            cleaning: false,
            k,
            reversed: false,
            embedding: emb,
        };
        let range = FlatRange {
            cleaning: false,
            radius: 0.5,
            embedding: emb,
        };
        // The K sweep and the radius search share one embed+index artifact.
        assert_eq!(knn(1).repr_key(), knn(7).repr_key());
        assert_eq!(knn(1).repr_key(), range.repr_key());
        let prepared = knn(1).prepare(&view);
        for k in [1, 2] {
            assert_eq!(
                knn(k).query(&view, &prepared).candidates.to_sorted_vec(),
                knn(k).run(&view).candidates.to_sorted_vec(),
                "k={k}"
            );
        }
        assert_eq!(
            range.query(&view, &prepared).candidates.to_sorted_vec(),
            range.run(&view).candidates.to_sorted_vec()
        );
    }

    #[test]
    fn empty_query_text_yields_nothing() {
        let view = TextView {
            e1: vec!["something".into()].into(),
            e2: vec!["".into()].into(),
        };
        let f = FlatKnn {
            cleaning: false,
            k: 3,
            reversed: false,
            embedding: EmbeddingConfig {
                dim: 32,
                ..Default::default()
            },
        };
        assert!(f.run(&view).candidates.is_empty());
    }
}
