//! Sharded composition of segmented sparse indexes — the query fan-out
//! layer of the out-of-core execution path.
//!
//! A [`ShardedIndex`] splits one logical collection across `n`
//! independent [`SegmentedTokenSets`], one per shard of a deterministic
//! [`ShardPlan`]: row `id` lives in shard `plan.shard_of(id)`, a pure
//! function of the stable id (and nothing else — not insertion order,
//! not thread count). Each shard is rooted at the shard-qualified repr
//! key [`er_core::shard::shard_repr`], so its segments and manifest are
//! independent store files that can be mapped in and dropped
//! individually by a residency-budgeted cache.
//!
//! ## Merge ordering guarantee
//!
//! Queries fan out to every shard and merge in **shard order**:
//!
//! * **ε-join** — each shard yields its live candidates in ascending
//!   stable-id order over a disjoint id set; the concatenation is sorted
//!   once, which reproduces exactly the single ascending list the
//!   monolithic index emits. (The shards interleave ids, so the final
//!   sort is a true k-way merge, just expressed as a sort.)
//! * **kNN** — each shard's [`MergeCursor::knn_row`] already applies the
//!   distinct-top-k cut *within the shard*. A candidate in the global
//!   top-k-distinct ranks at most k-distinct within its own shard (its
//!   shard's distinct similarity values are a subset of the global
//!   ones), so every global winner survives its shard cut; one final
//!   [`KnnJoin::select_top_k`] over the concatenation is then exact and
//!   deterministic (it sorts by descending similarity, ascending id —
//!   independent of concatenation order).
//!
//! Combined with the chunk-deterministic parallel layer, reports built
//! on these batches are byte-identical at any shard count × thread
//! count — the invariant the shard-invariance proptests pin down.
//!
//! Upserts and deletes route to the owning shard only; every other
//! shard's layers are untouched, which is what keeps incremental updates
//! cheap when only a slice of the collection is resident.

use crate::epsilon::EpsilonJoin;
use crate::knn::KnnJoin;
use crate::segmented::{
    batch_rows, ArtifactSource, MergeCursor, MergeScratch, PendingCompaction, PersistReport,
    SegmentedTokenSets, SparseSegment,
};
use er_core::shard::{shard_repr, ShardPlan, ShardSubset};
use er_store::ArtifactStore;
use std::sync::Arc;

/// One logical segmented index split across the shards of a
/// [`ShardPlan`] (see module docs).
///
/// An index normally holds *every* shard of its plan, but a
/// multi-process serving child opens only the [`ShardSubset`] it owns
/// (see [`ShardedIndex::load_subset`]): `shards[i]` is then the index of
/// shard `subset.members()[i]`, queries fan out over the owned shards
/// only, and updates for rows owned elsewhere are refused rather than
/// silently misplaced.
#[derive(Debug)]
pub struct ShardedIndex {
    subset: ShardSubset,
    base_repr: String,
    shards: Vec<SegmentedTokenSets>,
}

impl ShardedIndex {
    /// Builds the index from `(stable id, raw token set)` rows, routing
    /// each row to its owning shard and folding every shard into one
    /// immutable segment. With `n_shards <= 1` the single shard keeps
    /// the unqualified `base_repr`, so its store files are
    /// indistinguishable from a monolithic [`SegmentedTokenSets`].
    pub fn build(
        base_repr: impl Into<String>,
        n_shards: u32,
        rows: impl IntoIterator<Item = (u32, Vec<u64>)>,
        query_raw: Vec<Vec<u64>>,
    ) -> Self {
        let base_repr = base_repr.into();
        let plan = ShardPlan::new(n_shards);
        let mut parts: Vec<Vec<(u32, Vec<u64>)>> = vec![Vec::new(); plan.n() as usize];
        for (id, set) in rows {
            parts[plan.shard_of(id) as usize].push((id, set));
        }
        let shards = parts
            .into_iter()
            .enumerate()
            .map(|(s, mut part)| {
                // Segment rows must be ascending by stable id; the
                // caller's emission order carries no meaning.
                part.sort_unstable_by_key(|(id, _)| *id);
                let segment = Arc::new(SparseSegment::build(0, part, &query_raw));
                let root = shard_repr(&base_repr, s as u32, plan.n());
                SegmentedTokenSets::from_segment(root, segment, query_raw.clone())
            })
            .collect();
        ShardedIndex {
            subset: ShardSubset::full(plan.n()),
            base_repr,
            shards,
        }
    }

    /// Wraps already-assembled shards. The shard count must match the
    /// plan and every shard's `base_repr` must be its shard-qualified
    /// key — the invariants [`ShardedIndex::load`] restores.
    pub fn from_shards(
        base_repr: impl Into<String>,
        plan: ShardPlan,
        shards: Vec<SegmentedTokenSets>,
    ) -> Result<Self, String> {
        Self::from_owned_shards(base_repr, ShardSubset::full(plan.n()), shards)
    }

    /// Wraps already-assembled shards owned under `subset`: `shards[i]`
    /// must be rooted at the shard-qualified key of `subset.members()[i]`.
    pub fn from_owned_shards(
        base_repr: impl Into<String>,
        subset: ShardSubset,
        shards: Vec<SegmentedTokenSets>,
    ) -> Result<Self, String> {
        let base_repr = base_repr.into();
        if shards.len() != subset.members().len() {
            return Err(format!(
                "subset {subset} owns {} shard(s), got {}",
                subset.members().len(),
                shards.len()
            ));
        }
        for (&s, shard) in subset.members().iter().zip(&shards) {
            let want = shard_repr(&base_repr, s, subset.total());
            if shard.base_repr() != want {
                return Err(format!(
                    "shard {s} is rooted at {:?}, expected {want:?}",
                    shard.base_repr()
                ));
            }
        }
        Ok(ShardedIndex {
            subset,
            base_repr,
            shards,
        })
    }

    /// The shard plan (of the *full* collection — the plan is shared by
    /// every subset of it).
    pub fn plan(&self) -> ShardPlan {
        self.subset.plan()
    }

    /// The owned shard subset (full unless opened via
    /// [`ShardedIndex::load_subset`] / [`ShardedIndex::from_owned_shards`]).
    pub fn subset(&self) -> &ShardSubset {
        &self.subset
    }

    /// True when row `id`'s owning shard is in the owned subset.
    pub fn owns(&self, id: u32) -> bool {
        self.subset.contains(self.subset.plan().shard_of(id))
    }

    /// Number of shards in the full plan.
    pub fn n_shards(&self) -> u32 {
        self.subset.total()
    }

    /// Position of `shard` in the owned `shards` vector, if owned.
    fn pos_of(&self, shard: u32) -> Option<usize> {
        self.subset.members().binary_search(&shard).ok()
    }

    /// The unqualified repr key the shard keys derive from.
    pub fn base_repr(&self) -> &str {
        &self.base_repr
    }

    /// The per-shard indexes, in shard order.
    pub fn shards(&self) -> &[SegmentedTokenSets] {
        &self.shards
    }

    /// Live (query-visible) rows across all shards.
    pub fn live_rows(&self) -> usize {
        self.shards.iter().map(SegmentedTokenSets::live_rows).sum()
    }

    /// Immutable segments across all shards.
    pub fn segment_count(&self) -> usize {
        self.shards
            .iter()
            .map(SegmentedTokenSets::segment_count)
            .sum()
    }

    /// Mutable delta rows across all shards.
    pub fn delta_rows(&self) -> usize {
        self.shards.iter().map(SegmentedTokenSets::delta_rows).sum()
    }

    /// Backed tombstones across all shards.
    pub fn tombstone_count(&self) -> usize {
        self.shards
            .iter()
            .map(SegmentedTokenSets::tombstone_count)
            .sum()
    }

    /// Query rows (identical across shards — queries fan out to all).
    pub fn query_rows(&self) -> usize {
        self.shards
            .first()
            .map_or(0, SegmentedTokenSets::query_rows)
    }

    /// Deterministic heap estimate: the sum over shards.
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(SegmentedTokenSets::heap_bytes).sum()
    }

    /// Inserts or replaces row `id` in its owning shard; no other shard
    /// is touched. Returns `false` — and mutates nothing — when the
    /// owning shard is outside the owned subset; a subset-serving caller
    /// must refuse the update rather than misplace the row.
    pub fn upsert(&mut self, id: u32, tokens: Vec<u64>) -> bool {
        match self.pos_of(self.subset.plan().shard_of(id)) {
            Some(pos) => {
                self.shards[pos].upsert(id, tokens);
                true
            }
            None => false,
        }
    }

    /// Deletes row `id` from its owning shard; no other shard is
    /// touched. Returns `false` — and mutates nothing — when the owning
    /// shard is outside the owned subset.
    pub fn delete(&mut self, id: u32) -> bool {
        match self.pos_of(self.subset.plan().shard_of(id)) {
            Some(pos) => {
                self.shards[pos].delete(id);
                true
            }
            None => false,
        }
    }

    /// Flushes every shard's delta; `true` if any shard folded one.
    pub fn flush(&mut self) -> bool {
        let mut any = false;
        for shard in &mut self.shards {
            any |= shard.flush();
        }
        any
    }

    /// Compacts every shard; `true` if any shard changed.
    pub fn compact(&mut self) -> bool {
        let mut any = false;
        for shard in &mut self.shards {
            any |= shard.compact();
        }
        any
    }

    /// Plans one compaction per shard that needs one, without mutating
    /// anything — the sharded form of
    /// [`SegmentedTokenSets::plan_compact`], so a serving layer can fold
    /// under a read lock. Empty means every shard is fully compacted.
    /// The per-shard no-flush-between-plan-and-apply contract applies.
    pub fn plan_compact(&self) -> Vec<(usize, PendingCompaction)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(s, shard)| shard.plan_compact().map(|p| (s, p)))
            .collect()
    }

    /// Applies compactions planned by [`ShardedIndex::plan_compact`];
    /// `true` if any shard folded.
    pub fn apply_compact(&mut self, pending: Vec<(usize, PendingCompaction)>) -> bool {
        let any = !pending.is_empty();
        for (s, p) in pending {
            self.shards[s].apply_compact(p);
        }
        any
    }

    /// Persists every shard (segments + manifest, see
    /// [`SegmentedTokenSets::persist`]) and sums the per-shard reports.
    pub fn persist(&self, store: &ArtifactStore, dataset: u64) -> Result<PersistReport, String> {
        let mut total = PersistReport::default();
        for shard in &self.shards {
            let r = shard.persist(store, dataset)?;
            total.segments_written += r.segments_written;
            total.segments_reused += r.segments_reused;
            total.removed += r.removed;
        }
        Ok(total)
    }

    /// Restores a sharded index from per-shard manifests read through
    /// `source` (a store, or a cache in front of one). `Ok(None)` when
    /// *no* shard manifest exists; a partial set is a
    /// [`torn_family_error`].
    pub fn load<S: ArtifactSource + ?Sized>(
        source: &S,
        dataset: u64,
        base_repr: &str,
        n_shards: u32,
    ) -> Result<Option<Self>, String> {
        Self::load_subset(source, dataset, base_repr, ShardSubset::full(n_shards))
    }

    /// Restores only the shards of `subset` — the restore-only open a
    /// multi-process serving child uses. `Ok(None)` when *no* owned
    /// manifest exists (a clean miss); any partial set is a
    /// [`torn_family_error`], never a silently smaller collection.
    pub fn load_subset<S: ArtifactSource + ?Sized>(
        source: &S,
        dataset: u64,
        base_repr: &str,
        subset: ShardSubset,
    ) -> Result<Option<Self>, String> {
        let total = subset.total();
        let mut shards = Vec::with_capacity(subset.members().len());
        let mut missing: Vec<u32> = Vec::new();
        for &s in subset.members() {
            match SegmentedTokenSets::load(source, dataset, &shard_repr(base_repr, s, total))? {
                Some(shard) => shards.push(shard),
                None => missing.push(s),
            }
        }
        if missing.len() == subset.members().len() {
            return Ok(None);
        }
        if !missing.is_empty() {
            return Err(torn_family_error(base_repr, total, &missing));
        }
        Self::from_owned_shards(base_repr, subset, shards).map(Some)
    }

    /// A fan-out query cursor holding one [`MergeCursor`] per shard.
    pub fn cursor(&self) -> ShardedCursor<'_> {
        self.cursor_with(Vec::new())
    }

    /// Like [`ShardedIndex::cursor`], reusing per-shard scratch returned
    /// by [`ShardedCursor::into_scratches`]. Fewer (or stale extra)
    /// entries than shards are fine — missing ones start fresh.
    pub fn cursor_with(&self, mut scratches: Vec<MergeScratch>) -> ShardedCursor<'_> {
        scratches.resize_with(self.shards.len(), MergeScratch::default);
        ShardedCursor {
            cursors: self
                .shards
                .iter()
                .zip(scratches)
                .map(|(shard, scratch)| shard.cursor_with(scratch))
                .collect(),
        }
    }

    /// ε-join candidates for every query row, fanned across shards and
    /// chunked over `threads` workers — byte-identical for any worker
    /// count *and any shard count* (see module docs).
    pub fn epsilon_batch(&self, join: &EpsilonJoin, threads: usize) -> Vec<Vec<u32>> {
        batch_rows(
            self.query_rows(),
            threads,
            || self.cursor(),
            |c, j| c.epsilon_row(join, j),
        )
    }

    /// kNN neighbors for every query row, fanned across shards and
    /// chunked over `threads` workers — byte-identical for any worker
    /// count and any shard count.
    pub fn knn_batch(&self, join: &KnnJoin, threads: usize) -> Vec<Vec<(u32, f64)>> {
        batch_rows(
            self.query_rows(),
            threads,
            || self.cursor(),
            |c, j| c.knn_row(join, j),
        )
    }
}

/// The one refusal for a torn shard family — some shard manifests
/// persisted, others missing: an interrupted multi-shard persist.
/// Rebuilding over it could serve a smaller collection or mix index
/// generations, so it names every missing `shard{i}/{n}` instead.
pub fn torn_family_error(base_repr: &str, total: u32, missing: &[u32]) -> String {
    let names: Vec<String> = missing
        .iter()
        .map(|s| format!("shard{s}/{total}"))
        .collect();
    format!(
        "torn shard family for {base_repr:?}: manifest(s) missing for {} — refusing to serve \
         or rebuild over a partial persist; re-run a full `er serve --shards {total}` (or \
         remove the family's manifests) to rebuild it",
        names.join(", "),
    )
}

/// Per-worker fan-out cursor: one merge cursor per shard, consulted in
/// shard order (see the module's merge ordering guarantee).
pub struct ShardedCursor<'a> {
    cursors: Vec<MergeCursor<'a>>,
}

impl ShardedCursor<'_> {
    /// ε-join candidates of query row `j`: ascending live stable ids,
    /// bitwise what the monolithic index yields for the same net rows.
    pub fn epsilon_row(&mut self, join: &EpsilonJoin, j: usize) -> Vec<u32> {
        let mut out = Vec::new();
        for cursor in &mut self.cursors {
            out.extend(cursor.epsilon_row(join, j));
        }
        // Shards hold disjoint, interleaved id ranges; one sort over the
        // concatenation is the k-way merge.
        out.sort_unstable();
        out
    }

    /// kNN neighbors of query row `j` after the *global* distinct-top-k
    /// cut, bitwise what the monolithic index yields (exactness argument
    /// in the module docs).
    pub fn knn_row(&mut self, join: &KnnJoin, j: usize) -> Vec<(u32, f64)> {
        let mut merged = Vec::new();
        for cursor in &mut self.cursors {
            merged.extend(cursor.knn_row(join, j));
        }
        KnnJoin::select_top_k(join.k, &mut merged);
        merged
    }

    /// Recovers the per-shard scratch buffers for reuse by a later
    /// [`ShardedIndex::cursor_with`].
    pub fn into_scratches(self) -> Vec<MergeScratch> {
        self.cursors
            .into_iter()
            .map(MergeCursor::into_scratch)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representation::RepresentationModel;
    use crate::similarity::SimilarityMeasure;
    use er_text::Cleaner;

    fn toks(text: &str) -> Vec<u64> {
        RepresentationModel::parse("T1G")
            .expect("T1G")
            .token_set(text, &Cleaner::off())
    }

    fn queries() -> Vec<Vec<u64>> {
        ["alpha beta", "c d e", "gamma", "", "zz alpha d"]
            .iter()
            .map(|t| toks(t))
            .collect()
    }

    fn epsilon() -> EpsilonJoin {
        EpsilonJoin {
            cleaning: false,
            threshold: 0.2,
            model: RepresentationModel::parse("T1G").expect("T1G"),
            measure: SimilarityMeasure::Jaccard,
        }
    }

    fn knn(k: usize) -> KnnJoin {
        KnnJoin {
            cleaning: false,
            reversed: false,
            k,
            model: RepresentationModel::parse("T1G").expect("T1G"),
            measure: SimilarityMeasure::Cosine,
        }
    }

    /// Distinct ids with distinct sets, so ownership routing is visible.
    fn distinct_rows() -> Vec<(u32, Vec<u64>)> {
        (0..64u32)
            .map(|id| (id * 5 + 2, toks(&format!("alpha w{id} beta{}", id % 7))))
            .collect()
    }

    #[test]
    fn matches_monolithic_index_at_any_shard_count() {
        let query_raw = queries();
        let mono = ShardedIndex::build("base", 1, distinct_rows(), query_raw.clone());
        let eps = epsilon();
        let kn = knn(3);
        let want_eps = mono.epsilon_batch(&eps, 1);
        let want_knn = mono.knn_batch(&kn, 1);
        assert!(want_eps.iter().any(|r| !r.is_empty()), "fixture matches");
        for n in [2u32, 3, 8] {
            for threads in [1usize, 8] {
                let sharded = ShardedIndex::build("base", n, distinct_rows(), query_raw.clone());
                assert_eq!(sharded.n_shards(), n);
                assert_eq!(sharded.live_rows(), mono.live_rows());
                assert_eq!(
                    sharded.epsilon_batch(&eps, threads),
                    want_eps,
                    "epsilon shards={n} threads={threads}"
                );
                assert_eq!(
                    sharded.knn_batch(&kn, threads),
                    want_knn,
                    "knn shards={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn upserts_and_deletes_land_in_the_owning_shard_only() {
        let query_raw = queries();
        let mut idx = ShardedIndex::build("base", 4, distinct_rows(), query_raw.clone());
        let before: Vec<usize> = idx.shards().iter().map(|s| s.delta_rows()).collect();
        assert!(before.iter().all(|&d| d == 0));

        let id = 17u32;
        let owner = idx.plan().shard_of(id) as usize;
        idx.upsert(id, toks("alpha beta fresh"));
        for (s, shard) in idx.shards().iter().enumerate() {
            assert_eq!(shard.delta_rows(), usize::from(s == owner), "shard {s}");
        }
        idx.delete(id);
        for (s, shard) in idx.shards().iter().enumerate() {
            assert_eq!(shard.delta_rows(), 0, "shard {s}");
        }

        // And the merged view agrees with a monolithic index given the
        // same operation sequence.
        let mut mono = ShardedIndex::build("base", 1, distinct_rows(), query_raw);
        mono.upsert(id, toks("alpha beta fresh"));
        mono.delete(id);
        let eps = epsilon();
        assert_eq!(idx.epsilon_batch(&eps, 1), mono.epsilon_batch(&eps, 1));
    }

    #[test]
    fn single_shard_keeps_the_unqualified_repr() {
        let idx = ShardedIndex::build("ss/T1G", 1, distinct_rows(), queries());
        assert_eq!(idx.shards()[0].base_repr(), "ss/T1G");
        let idx = ShardedIndex::build("ss/T1G", 4, distinct_rows(), queries());
        assert_eq!(idx.shards()[2].base_repr(), "ss/T1G#shard2/4");
    }

    #[test]
    fn from_shards_rejects_mismatched_roots() {
        let ShardedIndex { shards, .. } =
            ShardedIndex::build("base", 2, distinct_rows(), queries());
        let mut shards = shards;
        shards.swap(0, 1);
        let err = ShardedIndex::from_shards("base", ShardPlan::new(2), shards)
            .expect_err("swapped shard roots must be rejected");
        assert!(err.contains("rooted at"), "{err}");
    }

    #[test]
    fn empty_shards_answer_queries() {
        // 3 rows over 8 shards: most shards are empty and must still
        // participate in the fan-out without panicking.
        let rows: Vec<(u32, Vec<u64>)> = (0..3u32).map(|id| (id, toks("alpha beta"))).collect();
        let idx = ShardedIndex::build("base", 8, rows, queries());
        let eps = epsilon();
        let got = idx.epsilon_batch(&eps, 1);
        assert_eq!(got[0], vec![0, 1, 2], "all three rows match 'alpha beta'");
    }

    #[test]
    fn persist_and_load_round_trip() {
        use crate::store::{SparseManifestCodec, SparsePackedCodec, SparseSegmentCodec};
        let dir = std::env::temp_dir().join(format!("er_sharded_rt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(
            &dir,
            vec![
                Box::new(SparsePackedCodec),
                Box::new(SparseSegmentCodec),
                Box::new(SparseManifestCodec),
            ],
        )
        .expect("open store");

        let query_raw = queries();
        let mut idx = ShardedIndex::build("rt/T1G", 3, distinct_rows(), query_raw.clone());
        idx.upsert(999, toks("alpha zz"));
        idx.flush();
        let report = idx.persist(&store, 42).expect("persist");
        assert!(report.segments_written >= 4, "3 base + 1 flushed");

        let back = ShardedIndex::load(&store, 42, "rt/T1G", 3)
            .expect("load")
            .expect("manifests present");
        assert_eq!(back.live_rows(), idx.live_rows());
        let eps = epsilon();
        let kn = knn(2);
        assert_eq!(back.epsilon_batch(&eps, 1), idx.epsilon_batch(&eps, 1));
        assert_eq!(back.knn_batch(&kn, 1), idx.knn_batch(&kn, 1));

        assert!(
            ShardedIndex::load(&store, 42, "other", 3)
                .expect("load")
                .is_none(),
            "unknown base is a clean miss"
        );

        // Deleting one shard's manifest leaves a torn state: load must
        // refuse it rather than resurrect a partial collection.
        let torn = er_core::artifacts::ArtifactKey::new(
            42,
            crate::segmented::manifest_repr(&shard_repr("rt/T1G", 1, 3)),
        );
        std::fs::remove_file(store.file_path(&torn)).expect("manifest file exists");
        let err = ShardedIndex::load(&store, 42, "rt/T1G", 3).expect_err("torn shard set");
        assert!(err.contains("missing"), "{err}");
        assert!(
            err.contains("shard1/3"),
            "torn error names the shard: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn subset_load_serves_owned_shards_and_refuses_foreign_updates() {
        use crate::store::{SparseManifestCodec, SparsePackedCodec, SparseSegmentCodec};
        let dir = std::env::temp_dir().join(format!("er_sharded_subset_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(
            &dir,
            vec![
                Box::new(SparsePackedCodec),
                Box::new(SparseSegmentCodec),
                Box::new(SparseManifestCodec),
            ],
        )
        .expect("open store");

        let query_raw = queries();
        let full = ShardedIndex::build("sub/T1G", 4, distinct_rows(), query_raw.clone());
        full.persist(&store, 7).expect("persist");

        // The two halves of the canonical 2-child layout, re-merged,
        // must reproduce the full index's answers exactly.
        let lo =
            ShardedIndex::load_subset(&store, 7, "sub/T1G", ShardSubset::parse("0,1/4").unwrap())
                .expect("load")
                .expect("manifests present");
        let hi =
            ShardedIndex::load_subset(&store, 7, "sub/T1G", ShardSubset::parse("2,3/4").unwrap())
                .expect("load")
                .expect("manifests present");
        assert_eq!(lo.live_rows() + hi.live_rows(), full.live_rows());
        assert_eq!(lo.n_shards(), 4, "subset keeps the full plan");
        let eps = epsilon();
        let kn = knn(3);
        let want_eps = full.epsilon_batch(&eps, 1);
        let lo_eps = lo.epsilon_batch(&eps, 1);
        let hi_eps = hi.epsilon_batch(&eps, 1);
        for (j, want) in want_eps.iter().enumerate() {
            let mut merged: Vec<u32> = lo_eps[j].iter().chain(&hi_eps[j]).copied().collect();
            merged.sort_unstable();
            assert_eq!(&merged, want, "epsilon row {j}");
        }
        let want_knn = full.knn_batch(&kn, 1);
        let lo_knn = lo.knn_batch(&kn, 1);
        let hi_knn = hi.knn_batch(&kn, 1);
        for (j, want) in want_knn.iter().enumerate() {
            let mut merged: Vec<(u32, f64)> = lo_knn[j].iter().chain(&hi_knn[j]).copied().collect();
            KnnJoin::select_top_k(kn.k, &mut merged);
            assert_eq!(&merged, want, "knn row {j}");
        }

        // Updates for rows owned by the other half are refused untouched.
        let mut lo = lo;
        let foreign = (0..1000u32)
            .find(|&id| !lo.owns(id))
            .expect("some id lands in shards 2,3");
        let owned = (0..1000u32).find(|&id| lo.owns(id)).expect("some owned id");
        assert!(!lo.upsert(foreign, toks("alpha")), "foreign upsert refused");
        assert!(!lo.delete(foreign), "foreign delete refused");
        assert_eq!(lo.delta_rows(), 0, "refusal mutates nothing");
        assert!(lo.upsert(owned, toks("alpha beta")), "owned upsert lands");
        assert_eq!(lo.delta_rows(), 1);

        // A torn subset (one owned manifest deleted) refuses to load,
        // naming the missing shard.
        let torn = er_core::artifacts::ArtifactKey::new(
            7,
            crate::segmented::manifest_repr(&shard_repr("sub/T1G", 3, 4)),
        );
        std::fs::remove_file(store.file_path(&torn)).expect("manifest file exists");
        let err =
            ShardedIndex::load_subset(&store, 7, "sub/T1G", ShardSubset::parse("2,3/4").unwrap())
                .expect_err("torn subset");
        assert!(err.contains("shard3/4"), "names the missing shard: {err}");
        // …while the untouched half still loads cleanly.
        assert!(ShardedIndex::load_subset(
            &store,
            7,
            "sub/T1G",
            ShardSubset::parse("0,1/4").unwrap()
        )
        .expect("load")
        .is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
