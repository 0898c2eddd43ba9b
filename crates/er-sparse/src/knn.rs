//! The k-nearest-neighbor join (paper §IV-C).
//!
//! For every query entity, keep all indexed entities whose similarity ties
//! one of the `k` highest *distinct* similarity values — a query may yield
//! more than `k` pairs when candidates are equidistant (the semantics of the
//! Cone algorithm [Kocher & Augsten, SIGMOD 2019], here adapted to a
//! ScanCount backend). The join is not commutative, so the `RVS` parameter
//! controls which input is indexed and which one queries.

use crate::artifact::TokenSetsArtifact;
use crate::representation::RepresentationModel;
use crate::scancount::{RowMask, ScanCountScratch};
use crate::similarity::SimilarityMeasure;
use er_core::filter::{Filter, FilterOutput, Prepared};
use er_core::parallel::{self, Threads};
use er_core::schema::TextView;
use std::cmp::Ordering;

/// A configured kNN-Join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnJoin {
    /// Apply stop-word removal + stemming first (`CL`).
    pub cleaning: bool,
    /// Representation model (`RM`).
    pub model: RepresentationModel,
    /// Similarity measure (`SM`).
    pub measure: SimilarityMeasure,
    /// Neighbors per query entity (`K`), counting distinct similarities.
    pub k: usize,
    /// Reverse datasets (`RVS`): index `E2` and query with `E1`.
    pub reversed: bool,
}

/// Tracks the `k` highest *distinct* similarity values seen so far for one
/// query. Its floor (the k-th value once `k` distinct values exist) is
/// non-decreasing as candidates stream in, so any candidate whose
/// size-bounded maximum similarity falls strictly below the current floor
/// is also strictly below the *final* k-th distinct value — skipping it is
/// exact under the distinct-similarity (Cone) semantics.
pub(crate) struct DistinctFloor {
    k: usize,
    /// Distinct similarities, descending, at most `k` entries.
    sims: Vec<f64>,
}

impl DistinctFloor {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            sims: Vec::with_capacity(k.min(64)),
        }
    }

    /// Records a (positive) similarity; returns `true` when the floor
    /// changed, i.e. when the derived size bounds must be recomputed.
    pub(crate) fn observe(&mut self, sim: f64) -> bool {
        let pos = self.sims.partition_point(|&s| s > sim);
        if self.sims.get(pos).copied() == Some(sim) {
            return false; // already tracked
        }
        if self.sims.len() == self.k && pos >= self.k {
            return false; // below the floor of a full tracker
        }
        let before = self.floor();
        self.sims.insert(pos, sim);
        self.sims.truncate(self.k);
        self.floor() != before
    }

    /// The k-th highest distinct similarity, once `k` distinct values have
    /// been seen (never, for `k = 0`).
    pub(crate) fn floor(&self) -> Option<f64> {
        self.sims.get(self.k.checked_sub(1)?).copied()
    }
}

/// The order of a kNN answer: descending similarity, ascending id. Ids
/// are distinct within a list, so the order is total and a sort by it
/// does not depend on the order of its input.
fn by_rank(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(Ordering::Equal)
        .then(a.0.cmp(&b.0))
}

impl KnnJoin {
    /// One-line configuration description for Table IX-style reports.
    pub fn describe(&self) -> String {
        format!(
            "CL={} RVS={} RM={} SM={} K={}",
            if self.cleaning { "y" } else { "-" },
            if self.reversed { "y" } else { "-" },
            self.model.name(),
            self.measure.name(),
            self.k
        )
    }

    /// Selects, from `(entity, similarity)` candidates, those tying one of
    /// the `k` highest distinct similarity values, and orders them by
    /// descending similarity, ascending id. One pass finds the k-th
    /// distinct similarity, the entries below it are dropped, and only
    /// the survivors are sorted — the input may be as long as a ScanCount
    /// hit list, the output is a handful of rows. Zero similarities are
    /// the callers' to drop (every scoring loop does, before pushing): a
    /// zero handed in here ranks like any other value.
    ///
    /// Public because the multi-process merge proxy applies the same
    /// global cut over per-child scored answers that
    /// `ShardedCursor::knn_row` applies over per-shard ones; the floor is
    /// a property of the value set and the final order is total, so the
    /// result is independent of concatenation order.
    pub fn select_top_k(k: usize, scored: &mut Vec<(u32, f64)>) -> usize {
        if k == 0 {
            scored.clear();
            return 0;
        }
        let mut floor = DistinctFloor::new(k);
        for &(_, sim) in scored.iter() {
            floor.observe(sim);
        }
        if let Some(floor) = floor.floor() {
            scored.retain(|&(_, sim)| sim >= floor);
        }
        scored.sort_unstable_by(by_rank);
        scored.len()
    }

    /// The kNN layer kernel, the one loop every kNN path runs over a
    /// ScanCount layer (`art`'s index probed with its query row `j`): per
    /// hit the size window the floor implies, the measure, the floor and,
    /// last, the layer's `dead` rows. `keep` gets `(row, similarity)` of
    /// every positive hit that passes, in first-touch order, and each one
    /// feeds `floor` — which may carry over from earlier layers of the
    /// row (exactness: [`crate::segmented`]). `None` prunes nothing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn score_layer(
        &self,
        art: &TokenSetsArtifact,
        dead: &RowMask,
        j: usize,
        mut floor: Option<&mut DistinctFloor>,
        scratch: &mut ScanCountScratch,
        hits: &mut Vec<(u32, u32)>,
        mut keep: impl FnMut(u32, f64),
    ) {
        let qlen = art.query_sets.set_size(j);
        let mut cut = floor.as_deref().and_then(DistinctFloor::floor);
        let mut bounds = cut.map(|f| self.measure.size_bounds(qlen, f));
        art.index.query_row_with(scratch, &art.query_sets, j, hits);
        for &(i, overlap) in hits.iter() {
            let ilen = art.index.set_size(i);
            if bounds.is_some_and(|(lo, hi)| ilen < lo || ilen > hi) {
                continue; // similarity provably below the k-th distinct
            }
            let sim = self.measure.compute(overlap as usize, ilen, qlen);
            if sim <= 0.0 || cut.is_some_and(|f| sim < f) || dead.contains(i) {
                continue;
            }
            keep(i, sim);
            if let Some(floor) = floor.as_deref_mut() {
                if floor.observe(sim) {
                    cut = floor.floor();
                    bounds = cut.map(|f| self.measure.size_bounds(qlen, f));
                }
            }
        }
    }

    /// The selected neighbors of one query row — the layer kernel plus
    /// the distinct-top-K cut, exactly what the batch [`Filter::query`]
    /// path computes for that row (which calls this), so an online lookup
    /// is byte-identical to the offline sweep by construction. Entries
    /// are `(indexed id, similarity)` sorted by descending similarity
    /// then ascending id; with `RVS` the ids are still the indexed side's
    /// (E2 forward, E1 reversed) — orientation is the caller's concern.
    pub fn query_row(
        &self,
        art: &TokenSetsArtifact,
        j: usize,
        scratch: &mut ScanCountScratch,
        hits: &mut Vec<(u32, u32)>,
    ) -> Vec<(u32, f64)> {
        let (mut scored, mut floor) = (Vec::new(), DistinctFloor::new(self.k));
        let live = RowMask::default();
        self.score_layer(art, &live, j, Some(&mut floor), scratch, hits, |i, sim| {
            scored.push((i, sim))
        });
        Self::select_top_k(self.k, &mut scored);
        scored
    }
}

impl KnnJoin {
    /// Computes per-query similarity rankings, keeping at most
    /// `max_neighbors` entries per query (similarity descending, ties by
    /// ascending id).
    ///
    /// The optimizer's K-sweep then derives the candidate set of any
    /// `K` whose distinct-similarity cut falls inside `max_neighbors`; use
    /// a margin over the largest K of interest so ties are not truncated.
    pub fn rankings(&self, view: &TextView, max_neighbors: usize) -> er_core::QueryRankings {
        let prepared = self.prepare(view);
        self.rankings_from(prepared.downcast::<TokenSetsArtifact>(), max_neighbors)
    }

    /// [`KnnJoin::rankings`] on a shared prepare-stage artifact: the
    /// tokenization and index are reused, only the scoring runs.
    pub fn rankings_from(
        &self,
        artifact: &TokenSetsArtifact,
        max_neighbors: usize,
    ) -> er_core::QueryRankings {
        // Chunk over the per-row cardinality slice: one element per query
        // row, so `offset + local` is the row index.
        let rows = artifact.query_sets.set_sizes();
        let chunk = parallel::query_chunk_len(rows.len());
        let per_chunk =
            parallel::par_map_chunks_with(Threads::get(), rows, chunk, |offset, part| {
                let mut scratch = ScanCountScratch::default();
                let mut hits: Vec<(u32, u32)> = Vec::new();
                let mut scored: Vec<(u32, f64)> = Vec::new();
                let live = RowMask::default();
                (0..part.len())
                    .map(|local| {
                        scored.clear();
                        let j = offset + local;
                        self.score_layer(
                            artifact,
                            &live,
                            j,
                            None,
                            &mut scratch,
                            &mut hits,
                            |i, s| scored.push((i, s)),
                        );
                        // Cut to the best `max_neighbors` first, then
                        // order those: the order is total, so this is
                        // the prefix a full sort would leave.
                        if max_neighbors < scored.len() {
                            scored.select_nth_unstable_by(max_neighbors, by_rank);
                            scored.truncate(max_neighbors);
                        }
                        scored.sort_unstable_by(by_rank);
                        scored.clone()
                    })
                    .collect::<Vec<_>>()
            });
        let neighbors = per_chunk.into_iter().flatten().collect();
        er_core::QueryRankings {
            neighbors,
            reversed: self.reversed,
        }
    }
}

impl Filter for KnnJoin {
    fn name(&self) -> String {
        "kNN-Join".to_owned()
    }

    fn repr_key(&self) -> String {
        TokenSetsArtifact::repr_key(self.cleaning, self.model, self.reversed)
    }

    /// With RVS, index E2 and query with E1; pairs keep the canonical
    /// (E1, E2) orientation either way.
    fn prepare(&self, view: &TextView) -> Prepared {
        TokenSetsArtifact::prepare(view, self.cleaning, self.model, self.reversed)
    }

    fn query(&self, _view: &TextView, prepared: &Prepared) -> FilterOutput {
        self.query_art(prepared.downcast::<TokenSetsArtifact>(), Threads::get())
    }
}

impl KnnJoin {
    /// The query stage with an explicit worker count — the tests use it to
    /// check thread-count invariance without mutating the global
    /// [`Threads`] override.
    pub(crate) fn query_art(&self, art: &TokenSetsArtifact, threads: usize) -> FilterOutput {
        let mut out = FilterOutput::default();
        out.breakdown.time("query", || {
            // Score + top-k select per query in parallel (each query is
            // independent), then insert serially in query order so the
            // candidate set is built exactly as the serial loop did.
            let rows = art.query_sets.set_sizes();
            let chunk = parallel::query_chunk_len(rows.len());
            let per_chunk = parallel::par_map_chunks_with(threads, rows, chunk, |offset, part| {
                let mut scratch = ScanCountScratch::default();
                let mut hits: Vec<(u32, u32)> = Vec::new();
                (0..part.len())
                    .map(|local| self.query_row(art, offset + local, &mut scratch, &mut hits))
                    .collect::<Vec<_>>()
            });
            for (q, scored) in per_chunk.into_iter().flatten().enumerate() {
                for (i, _) in scored {
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

    fn join(k: usize, reversed: bool) -> KnnJoin {
        KnnJoin {
            cleaning: false,
            model: RepresentationModel::parse("T1G").expect("model"),
            measure: SimilarityMeasure::Jaccard,
            k,
            reversed,
        }
    }

    fn view() -> TextView {
        TextView {
            e1: vec![
                "apple iphone black".into(),
                "apple iphone".into(),
                "samsung galaxy".into(),
            ]
            .into(),
            e2: vec!["apple iphone black".into()].into(),
        }
    }

    #[test]
    fn k1_keeps_single_best_per_query() {
        let out = join(1, false).run(&view());
        assert_eq!(out.candidates.len(), 1);
        assert!(out.candidates.contains(Pair::new(0, 0)));
    }

    #[test]
    fn k2_adds_second_distinct_similarity() {
        let out = join(2, false).run(&view());
        assert_eq!(out.candidates.len(), 2);
        assert!(out.candidates.contains(Pair::new(1, 0)));
    }

    #[test]
    fn ties_expand_beyond_k() {
        // Two indexed entities with identical similarity to the query.
        let v = TextView {
            e1: vec![
                "alpha beta".into(),
                "alpha gamma".into(),
                "unrelated".into(),
            ]
            .into(),
            e2: vec!["alpha".into()].into(),
        };
        let out = join(1, false).run(&v);
        assert_eq!(out.candidates.len(), 2, "equidistant pair included");
    }

    #[test]
    fn zero_similarity_never_paired() {
        let v = TextView {
            e1: vec!["xyz".into()].into(),
            e2: vec!["abc".into()].into(),
        };
        assert!(join(5, false).run(&v).candidates.is_empty());
    }

    #[test]
    fn reversal_preserves_pair_orientation() {
        let out = join(1, true).run(&view());
        // Query side is E1 (3 queries); each pairs with the single E2
        // entity when they overlap.
        assert!(out.candidates.contains(Pair::new(0, 0)));
        assert!(out.candidates.contains(Pair::new(1, 0)));
        for p in out.candidates.iter() {
            assert!((p.left as usize) < 3 && (p.right as usize) < 1);
        }
    }

    #[test]
    fn candidate_count_grows_with_k() {
        let v = TextView {
            e1: (0..6).map(|i| format!("common token{i}")).collect(),
            e2: vec!["common probe".into()].into(),
        };
        let mut prev = 0;
        for k in 1..=6 {
            let n = join(k, false).run(&v).candidates.len();
            assert!(n >= prev, "k={k}");
            prev = n;
        }
    }

    #[test]
    fn shared_artifact_matches_cold_runs_across_k() {
        let v = view();
        let prepared = join(1, false).prepare(&v);
        for k in 1..=3 {
            let cold = join(k, false).run(&v);
            let warm = join(k, false).query(&v, &prepared);
            assert_eq!(
                warm.candidates.to_sorted_vec(),
                cold.candidates.to_sorted_vec(),
                "k={k}"
            );
        }
        // Orientation is part of the representation key, so reversed
        // configs cannot share the forward artifact.
        assert_ne!(join(1, false).repr_key(), join(1, true).repr_key());
        assert_eq!(join(1, false).repr_key(), join(5, false).repr_key());
    }

    #[test]
    fn select_top_k_distinct_semantics() {
        let mut scored = vec![(1, 0.9), (2, 0.9), (3, 0.5), (4, 0.4)];
        KnnJoin::select_top_k(2, &mut scored);
        // Top-2 distinct similarities {0.9, 0.5} -> 3 survivors.
        assert_eq!(
            scored.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );

        let mut empty: Vec<(u32, f64)> = Vec::new();
        assert_eq!(KnnJoin::select_top_k(3, &mut empty), 0);

        let mut zero_k = vec![(1, 0.5)];
        KnnJoin::select_top_k(0, &mut zero_k);
        assert!(zero_k.is_empty());

        // The input's order is irrelevant, the output's is fixed.
        let mut shuffled = vec![(4, 0.4), (2, 0.9), (3, 0.5), (1, 0.9)];
        assert_eq!(KnnJoin::select_top_k(2, &mut shuffled), 3);
        assert_eq!(shuffled, vec![(1, 0.9), (2, 0.9), (3, 0.5)]);
    }

    #[test]
    fn distinct_floor_tracks_kth_value() {
        let mut f = DistinctFloor::new(2);
        assert_eq!(f.floor(), None);
        assert!(!f.observe(0.5), "first value: no floor yet");
        assert!(f.observe(0.9), "second distinct value sets the floor");
        assert_eq!(f.floor(), Some(0.5));
        assert!(!f.observe(0.9), "duplicate changes nothing");
        assert!(!f.observe(0.1), "below a full floor changes nothing");
        assert_eq!(f.floor(), Some(0.5));
        assert!(f.observe(0.7), "mid insertion raises the floor");
        assert_eq!(f.floor(), Some(0.7));
        assert!(f.observe(0.8));
        assert_eq!(f.floor(), Some(0.8));
    }

    #[test]
    fn length_filter_is_candidate_set_exact() {
        // Queries with wildly varying candidate cardinalities: the
        // filtered path must reproduce the unfiltered scoring exactly.
        let e1: Vec<String> = (0..30)
            .map(|i| {
                (0..=(i % 7))
                    .map(|t| format!("w{}", (i + t * 3) % 11))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let e2: Vec<String> = (0..10)
            .map(|j| {
                (0..=(j % 5))
                    .map(|t| format!("w{}", (j + t) % 11))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let v = TextView::new(e1, e2);
        for measure in SimilarityMeasure::ALL {
            for k in [1, 2, 5] {
                let join = KnnJoin {
                    cleaning: false,
                    model: RepresentationModel::parse("T1G").expect("model"),
                    measure,
                    k,
                    reversed: false,
                };
                let prepared = join.prepare(&v);
                let art = prepared.downcast::<TokenSetsArtifact>();
                let mut scratch = ScanCountScratch::default();
                let mut hits = Vec::new();
                for j in 0..art.query_sets.len() {
                    let mut score = |floor: Option<&mut DistinctFloor>| {
                        let mut scored = Vec::new();
                        let live = RowMask::default();
                        join.score_layer(art, &live, j, floor, &mut scratch, &mut hits, |i, s| {
                            scored.push((i, s))
                        });
                        KnnJoin::select_top_k(k, &mut scored);
                        scored
                    };
                    let filtered = score(Some(&mut DistinctFloor::new(k)));
                    let unfiltered = score(None);
                    assert_eq!(filtered, unfiltered, "{} k={k} j={j}", measure.name());
                }
            }
        }
    }

    #[test]
    fn dead_rows_neither_answer_nor_feed_the_floor() {
        // Row 0 ties the query exactly but is dead: the kernel must keep
        // the best live row, and the floor it leaves must be that row's.
        let join = join(1, false);
        let prepared = join.prepare(&view());
        let art = prepared.downcast::<TokenSetsArtifact>();
        let mut dead = RowMask::default();
        dead.insert(0, art.index.len());
        let mut floor = DistinctFloor::new(1);
        let mut kept = Vec::new();
        let (mut scratch, mut hits) = (ScanCountScratch::default(), Vec::new());
        join.score_layer(
            art,
            &dead,
            0,
            Some(&mut floor),
            &mut scratch,
            &mut hits,
            |i, s| kept.push((i, s)),
        );
        assert_eq!(kept, vec![(1, 2.0 / 3.0)]);
        assert_eq!(floor.floor(), Some(2.0 / 3.0));
    }
}
