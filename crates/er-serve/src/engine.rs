//! The lookup engine: a sharded segmented incremental index behind a
//! read-write lock, one configured filter.
//!
//! The index is a [`ShardedIndex`] over a deterministic
//! [`ShardPlan`] — with one shard (the default) it is exactly the
//! classic monolithic engine, store files and all. Startup does zero
//! prepare work on the established paths: when the store holds a
//! segment manifest per shard root (a previous daemon persisted live
//! updates), every manifest and segment loads through the artifact
//! cache and the index resumes exactly where it left off; otherwise the
//! single-shard engine wraps the monolithic sweep artifact (the cache's
//! `store_hits` counter is the proof nothing was re-prepared). The one
//! exception is the *first* multi-shard boot over a store with no shard
//! manifests: the monolithic artifact's interned rows cannot be split
//! (the raw token hashes are gone), so the engine tokenizes the view
//! once, routes rows through the plan, and marks itself dirty — the
//! shutdown persist writes the per-shard manifests and every later boot
//! is a zero-prepare restore.
//!
//! Lookups answer one query-side row through a fan-out cursor under a
//! read lock, merging shard candidates in shard order — bitwise
//! identical to the offline batch paths over a full rebuild of the net
//! dataset, at any shard count. Updates (`upsert`/`delete`) tokenize
//! outside the lock, then mutate the owning shard's delta under a brief
//! write lock. Compaction is split so the expensive fold never blocks
//! lookups: flush under a write lock, plan under a read lock, apply
//! under a write lock. The `delta/apply` and `compact/<key>` fault
//! sites fire inside guard frames, so injected panics surface as
//! structured failures and never corrupt the index (both sites fire
//! before any mutation).

use er::core::artifacts::{ArtifactCache, ArtifactKey, CacheStats};
use er::core::faults;
use er::core::filter::Filter;
use er::core::guard::{self, Limits, RunOutcome};
use er::core::parallel::{self, Threads};
use er::core::schema::TextView;
use er::core::shard::{ShardPlan, ShardSubset};
use er::sparse::{
    EpsilonJoin, KnnJoin, MergeScratch, QueryCounters, RepresentationModel, SegmentedTokenSets,
    ShardedIndex, TokenSetsArtifact,
};
use er::text::Cleaner;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The filter configurations the daemon can serve: the sparse joins,
/// whose artifacts carry both the indexed and the pre-interned query side
/// (so a store-loaded artifact answers per-row queries with no text
/// processing at all).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeMethod {
    /// Range join: all candidates with similarity ≥ ε.
    Epsilon(EpsilonJoin),
    /// kNN join: candidates tying the k highest distinct similarities.
    Knn(KnnJoin),
}

impl ServeMethod {
    /// The method's display name.
    pub fn name(&self) -> String {
        match self {
            ServeMethod::Epsilon(f) => f.name(),
            ServeMethod::Knn(f) => f.name(),
        }
    }

    /// One-line configuration description.
    pub fn describe(&self) -> String {
        match self {
            ServeMethod::Epsilon(f) => f.describe(),
            ServeMethod::Knn(f) => f.describe(),
        }
    }

    /// The representation key of the artifact this method queries.
    pub fn repr_key(&self) -> String {
        match self {
            ServeMethod::Epsilon(f) => f.repr_key(),
            ServeMethod::Knn(f) => f.repr_key(),
        }
    }

    /// The tokenization the method's artifact was prepared with.
    fn tokenizer(&self) -> (RepresentationModel, Cleaner) {
        let (cleaning, model) = match self {
            ServeMethod::Epsilon(f) => (f.cleaning, f.model),
            ServeMethod::Knn(f) => (f.cleaning, f.model),
        };
        let cleaner = if cleaning {
            Cleaner::on()
        } else {
            Cleaner::off()
        };
        (model, cleaner)
    }

    /// Which view column queries (the kNN `RVS` parameter swaps sides).
    fn query_texts<'v>(&self, view: &'v TextView) -> &'v [String] {
        match self {
            ServeMethod::Knn(f) if f.reversed => &view.e1,
            _ => &view.e2,
        }
    }

    /// Which view column is indexed — the other side of
    /// [`ServeMethod::query_texts`].
    fn index_texts<'v>(&self, view: &'v TextView) -> &'v [String] {
        match self {
            ServeMethod::Knn(f) if f.reversed => &view.e2,
            _ => &view.e1,
        }
    }
}

/// A live update to the indexed collection.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Insert or replace one indexed row.
    Upsert {
        /// Stable row id.
        id: u32,
        /// Raw entity text, tokenized with the serving model.
        text: String,
    },
    /// Remove one indexed row.
    Delete {
        /// Stable row id.
        id: u32,
    },
}

/// What a compaction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactOutcome {
    /// Whether any folding happened (false = already fully compacted).
    pub compacted: bool,
    /// Segment count after the pass.
    pub segments: usize,
    /// Delta rows after the pass.
    pub delta_rows: usize,
}

/// A live snapshot of the index shape, for stats reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Immutable segments.
    pub segments: usize,
    /// Mutable delta rows.
    pub delta_rows: usize,
    /// Backed tombstones.
    pub tombstones: usize,
    /// Net live indexed rows.
    pub live_rows: usize,
}

/// The guarded result of one scored lookup.
pub type ScoredOutcome = RunOutcome<Vec<(u32, f64)>>;

/// Reusable per-worker query scratch: one merge scratch per shard.
#[derive(Default)]
pub struct RowScratch {
    merge: Vec<MergeScratch>,
}

impl RowScratch {
    /// Rows touched and rows kept by the lookups run through this scratch
    /// since the last call, summed over its shards; resets the totals.
    pub fn take_counters(&mut self) -> QueryCounters {
        let mut total = QueryCounters::default();
        for merge in &mut self.merge {
            total += merge.take_counters();
        }
        total
    }
}

/// A resident lookup engine over the sharded segmented index.
pub struct Engine {
    method: ServeMethod,
    key: ArtifactKey,
    startup: CacheStats,
    rows: usize,
    store_dir: PathBuf,
    subset: ShardSubset,
    idx: RwLock<ShardedIndex>,
    dirty: AtomicBool,
    restored: bool,
    resident_bytes: usize,
}

impl Engine {
    /// Loads the monolithic sweep artifact for `key` through `cache`.
    fn load_monolith(
        cache: &ArtifactCache,
        key: &ArtifactKey,
        store_dir: &Path,
    ) -> Result<Arc<TokenSetsArtifact>, String> {
        let prepared = match cache.lookup(key) {
            Some(Ok(prepared)) => prepared,
            Some(Err(msg)) => return Err(format!("artifact {} unusable: {msg}", key.repr)),
            None => {
                return Err(format!(
                    "artifact {} for dataset {:016x} not found in {} — build it first with \
                     `er sweep --store-dir {}`",
                    key.repr,
                    key.dataset,
                    store_dir.display(),
                    store_dir.display(),
                ))
            }
        };
        prepared
            .arc()
            .downcast::<TokenSetsArtifact>()
            .map_err(|_| format!("artifact {} decoded to a foreign type", key.repr))
    }

    /// Loads the index for `method` over `view` from `store_dir`,
    /// read-only, split across `shards` (≤ 1 means monolithic): the
    /// per-shard segment manifests when persisted, the monolithic sweep
    /// artifact otherwise (single shard), or a one-time cold split of
    /// the view (first multi-shard boot — see module docs). Every
    /// failure — missing directory, missing artifact, corrupt or
    /// poisoned file, a torn shard set — is a structured error string.
    pub fn open(
        store_dir: &Path,
        view: &TextView,
        method: ServeMethod,
        shards: u32,
    ) -> Result<Engine, String> {
        let plan = ShardPlan::new(shards);
        let store =
            er_bench::open_store_read_only(store_dir).map_err(|e| format!("open store: {e}"))?;
        let cache = ArtifactCache::new();
        cache.set_store(Some(Arc::new(store)));
        let key = ArtifactKey::new(view.fingerprint(), method.repr_key());

        // Persisted per-shard manifests win: the daemon resumes its own
        // prior live state, reading them through the cache so the startup
        // counters count every store read. With one shard the shard root
        // IS `key.repr`, so this is exactly the classic monolithic resume.
        let resumed = ShardedIndex::load(&cache, key.dataset, &key.repr, plan.n())?;
        let restored = resumed.is_some();
        let monolith = if restored || plan.n() > 1 {
            None
        } else {
            Some(Self::load_monolith(&cache, &key, store_dir)?)
        };
        // Every store read is done. Release the cache before wrapping: it
        // keeps a second `Arc` to whatever it served, and `from_artifact`
        // adopts the artifact in place only as its sole owner.
        let startup = cache.stats();
        drop(cache);
        let (model, cleaner) = method.tokenizer();
        let (idx, cold_split) = if let Some(idx) = resumed {
            (idx, false)
        } else if let Some(art) = monolith {
            // The raw query-side token sets back the delta probes;
            // re-tokenizing the view with the artifact's own model is
            // deterministic, so the merged results stay bitwise equal
            // to the monolithic path.
            let query_raw: Vec<Vec<u64>> =
                parallel::par_map(method.query_texts(view), |t| model.token_set(t, &cleaner));
            debug_assert_eq!(Arc::strong_count(&art), 1, "boot must adopt, not clone");
            let seg = SegmentedTokenSets::from_artifact(key.repr.clone(), art, query_raw);
            (
                ShardedIndex::from_shards(key.repr.clone(), plan, vec![seg])?,
                false,
            )
        } else {
            // First multi-shard boot: the monolithic artifact's interned
            // rows cannot be split (raw token hashes are gone), so
            // tokenize the view once and route rows through the plan —
            // deterministic, hence still bitwise-identical to the
            // monolithic answers. Marked dirty below so the per-shard
            // manifests persist and every later boot is a restore.
            let query_raw: Vec<Vec<u64>> =
                parallel::par_map(method.query_texts(view), |t| model.token_set(t, &cleaner));
            let index_raw: Vec<Vec<u64>> =
                parallel::par_map(method.index_texts(view), |t| model.token_set(t, &cleaner));
            let rows = index_raw
                .into_iter()
                .enumerate()
                .map(|(i, set)| (i as u32, set));
            (
                ShardedIndex::build(key.repr.clone(), plan.n(), rows, query_raw),
                true,
            )
        };
        let rows = idx.query_rows();
        let resident_bytes = idx.heap_bytes();
        Ok(Engine {
            method,
            key,
            startup,
            rows,
            store_dir: store_dir.to_path_buf(),
            subset: ShardSubset::full(plan.n()),
            idx: RwLock::new(idx),
            dirty: AtomicBool::new(cold_split),
            restored,
            resident_bytes,
        })
    }

    /// Loads only the shards of `subset` — the restore-only open a
    /// multi-process serving child runs (`er serve --shard-subset`).
    /// Unlike [`Engine::open`] there is no cold-split fallback: every
    /// owned shard's manifest must already be persisted (the supervisor
    /// bootstraps the family before spawning children), and any missing
    /// manifest is a structured error naming the shard — a torn family
    /// must never silently serve a smaller collection.
    pub fn open_subset(
        store_dir: &Path,
        view: &TextView,
        method: ServeMethod,
        subset: ShardSubset,
    ) -> Result<Engine, String> {
        let store =
            er_bench::open_store_read_only(store_dir).map_err(|e| format!("open store: {e}"))?;
        let cache = ArtifactCache::new();
        cache.set_store(Some(Arc::new(store)));
        let key = ArtifactKey::new(view.fingerprint(), method.repr_key());
        let idx = ShardedIndex::load_subset(&cache, key.dataset, &key.repr, subset.clone())?
            .ok_or_else(|| {
                format!(
                    "no shard manifest persisted for {:?} — subset {subset} needs a complete \
                     persisted shard family (bootstrap it with `er supervise` or a full \
                     `er serve --shards {}` run first)",
                    key.repr,
                    subset.total(),
                )
            })?;
        let startup = cache.stats();
        drop(cache);
        let rows = idx.query_rows();
        let resident_bytes = idx.heap_bytes();
        Ok(Engine {
            method,
            key,
            startup,
            rows,
            store_dir: store_dir.to_path_buf(),
            subset,
            idx: RwLock::new(idx),
            dirty: AtomicBool::new(false),
            restored: true,
            resident_bytes,
        })
    }

    /// The shard subset this engine owns (full unless opened via
    /// [`Engine::open_subset`]).
    pub fn shard_subset(&self) -> &ShardSubset {
        &self.subset
    }

    /// The shard of the full plan owning stable id `id`.
    pub fn owning_shard(&self, id: u32) -> u32 {
        self.subset.plan().shard_of(id)
    }

    /// True when `id`'s owning shard is in the served subset.
    pub fn owns_id(&self, id: u32) -> bool {
        self.subset.contains(self.owning_shard(id))
    }

    /// Number of shards the index is split across.
    pub fn n_shards(&self) -> u32 {
        self.read().n_shards()
    }

    /// The configured method.
    pub fn method(&self) -> &ServeMethod {
        &self.method
    }

    /// The artifact key being served.
    pub fn key(&self) -> &ArtifactKey {
        &self.key
    }

    /// Cache counters captured right after the startup load: a healthy
    /// cold start shows `store_hits == 1`, `misses == 0` and a non-zero
    /// `prepare_saved` — zero prepare work happened in this process. A
    /// manifest restore shows `1 + segments` hits instead.
    pub fn startup_stats(&self) -> &CacheStats {
        &self.startup
    }

    /// Whether startup resumed a persisted segment manifest rather than
    /// wrapping the monolithic sweep artifact.
    pub fn restored(&self) -> bool {
        self.restored
    }

    /// Number of query-side rows the index can answer.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Resident index bytes as of startup.
    pub fn artifact_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Whether live updates have not yet been persisted.
    pub fn dirty(&self) -> bool {
        self.dirty.load(Ordering::SeqCst)
    }

    fn read(&self) -> RwLockReadGuard<'_, ShardedIndex> {
        // A panic inside an injected fault can poison the lock; the
        // fault sites fire before any mutation, so the state under a
        // poisoned lock is still consistent.
        self.idx.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, ShardedIndex> {
        self.idx.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Current index shape, summed across shards.
    pub fn index_stats(&self) -> IndexStats {
        let idx = self.read();
        IndexStats {
            segments: idx.segment_count(),
            delta_rows: idx.delta_rows(),
            tombstones: idx.tombstone_count(),
            live_rows: idx.live_rows(),
        }
    }

    /// One row's candidates, ascending — the canonical response order,
    /// identical at any shard count (the fan-out cursor merges in shard
    /// order and the shards partition the stable ids).
    fn query_row(&self, row: usize, scratch: &mut RowScratch) -> Vec<u32> {
        let idx = self.read();
        let mut cursor = idx.cursor_with(std::mem::take(&mut scratch.merge));
        let ids = match &self.method {
            ServeMethod::Epsilon(f) => cursor.epsilon_row(f, row),
            ServeMethod::Knn(f) => {
                let mut ids: Vec<u32> =
                    cursor.knn_row(f, row).into_iter().map(|(i, _)| i).collect();
                ids.sort_unstable();
                ids
            }
        };
        scratch.merge = cursor.into_scratches();
        ids
    }

    /// One guarded lookup with caller-provided scratch. `limits` carries
    /// the request deadline; the `serve/query/<row>` fault site fires
    /// inside the frame so injected panics/stalls surface as structured
    /// failures. The site carries the row (like the sweep's per-grid-point
    /// sites) so probabilistic plans — `panic@serve/query*:p=0.2` — sample
    /// deterministically across requests rather than all-or-nothing.
    pub fn lookup_with(
        &self,
        row: usize,
        limits: Limits,
        scratch: &mut RowScratch,
    ) -> RunOutcome<Vec<u32>> {
        guard::run_guarded(limits, || {
            if faults::enabled() {
                faults::fire(&format!("serve/query/{row}"));
            }
            guard::checkpoint();
            self.query_row(row, scratch)
        })
    }

    /// One guarded lookup with private scratch (tests, single-shot use).
    pub fn lookup(&self, row: usize, limits: Limits) -> RunOutcome<Vec<u32>> {
        self.lookup_with(row, limits, &mut RowScratch::default())
    }

    /// One row's scored candidates — the answer a merge proxy needs to
    /// re-merge per-child kNN results exactly. For kNN the pairs come in
    /// the `select_top_k` order (descending similarity, ascending id),
    /// carrying the exact f64 similarities; the global cut over any
    /// concatenation of per-child answers then reproduces the
    /// single-process answer bit-for-bit. ε-join candidates have no
    /// score, so they carry 0.0 (ascending id order, as ever).
    fn query_row_scored(&self, row: usize, scratch: &mut RowScratch) -> Vec<(u32, f64)> {
        let idx = self.read();
        let mut cursor = idx.cursor_with(std::mem::take(&mut scratch.merge));
        let scored = match &self.method {
            ServeMethod::Epsilon(f) => cursor
                .epsilon_row(f, row)
                .into_iter()
                .map(|id| (id, 0.0))
                .collect(),
            ServeMethod::Knn(f) => cursor.knn_row(f, row),
        };
        scratch.merge = cursor.into_scratches();
        scored
    }

    /// The scored counterpart of [`Engine::lookup_with`]: same guard
    /// frame, same `serve/query/<row>` fault site, scored candidates.
    pub fn lookup_scored_with(
        &self,
        row: usize,
        limits: Limits,
        scratch: &mut RowScratch,
    ) -> ScoredOutcome {
        guard::run_guarded(limits, || {
            if faults::enabled() {
                faults::fire(&format!("serve/query/{row}"));
            }
            guard::checkpoint();
            self.query_row_scored(row, scratch)
        })
    }

    /// A batch of guarded lookups through the deterministic parallel
    /// layer — the serving counterpart of the offline batch query path.
    /// Outcomes are returned in job order.
    pub fn lookup_batch(&self, jobs: &[(usize, Limits)]) -> Vec<RunOutcome<Vec<u32>>> {
        let chunk = parallel::query_chunk_len(jobs.len());
        parallel::par_map_chunks_with(Threads::get(), jobs, chunk, |_, part| {
            let mut scratch = RowScratch::default();
            part.iter()
                .map(|&(row, limits)| self.lookup_with(row, limits, &mut scratch))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// The scored counterpart of [`Engine::lookup_batch`]. Sorting the
    /// ids of a scored answer ascending reproduces the plain answer
    /// exactly, so the server runs every batch through this one path and
    /// encodes each response plain or scored per request. Each outcome
    /// comes with what its lookup touched and kept, for the server's
    /// stats.
    pub fn lookup_batch_scored(
        &self,
        jobs: &[(usize, Limits)],
    ) -> Vec<(ScoredOutcome, QueryCounters)> {
        let chunk = parallel::query_chunk_len(jobs.len());
        parallel::par_map_chunks_with(Threads::get(), jobs, chunk, |_, part| {
            let mut scratch = RowScratch::default();
            part.iter()
                .map(|&(row, limits)| {
                    let outcome = self.lookup_scored_with(row, limits, &mut scratch);
                    (outcome, scratch.take_counters())
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Applies one live update. Tokenization happens outside the lock;
    /// the write section is a map insert/remove. The guard frame turns
    /// an injected `delta/apply` panic into a structured failure with
    /// the index unchanged (the site fires before any mutation).
    ///
    /// Returns `Ok(true)` when the update landed in an owned shard and
    /// `Ok(false)` — with nothing mutated — when the row's owning shard
    /// is outside the served subset; the server turns that into a
    /// structured `wrong-shard` refusal so a misrouted update is never
    /// silently misplaced.
    pub fn apply(&self, op: UpdateOp) -> RunOutcome<bool> {
        let (model, cleaner) = self.method.tokenizer();
        guard::run_guarded(Limits::catching(), || {
            let routed = match op {
                UpdateOp::Upsert { id, text } => {
                    let tokens = model.token_set(&text, &cleaner);
                    self.write().upsert(id, tokens)
                }
                UpdateOp::Delete { id } => self.write().delete(id),
            };
            if routed {
                self.dirty.store(true, Ordering::SeqCst);
            }
            routed
        })
    }

    /// One compaction pass: seal every shard's delta (write lock), fold
    /// each shard's segments and delta into one fresh segment (read lock
    /// only — lookups keep running), then swap them in (write lock). The
    /// single-flight
    /// discipline is the caller's (the server runs at most one at a
    /// time); the no-flush-between-plan-and-apply contract holds because
    /// this method is the only flusher in the serving path.
    pub fn compact(&self) -> RunOutcome<CompactOutcome> {
        guard::run_guarded(Limits::catching(), || {
            let sealed = self.write().flush();
            let pending = self.read().plan_compact();
            let compacted = !pending.is_empty() && self.write().apply_compact(pending);
            if sealed || compacted {
                self.dirty.store(true, Ordering::SeqCst);
            }
            let idx = self.read();
            CompactOutcome {
                compacted,
                segments: idx.segment_count(),
                delta_rows: idx.delta_rows(),
            }
        })
    }

    /// Persists the current index into the store directory (opened
    /// read-write just for this) if any update landed since the last
    /// persist. Returns the report, or `None` when the index was clean —
    /// a purely-serving daemon never writes a byte.
    pub fn persist_if_dirty(&self) -> Result<Option<er::sparse::PersistReport>, String> {
        if !self.dirty.swap(false, Ordering::SeqCst) {
            return Ok(None);
        }
        let result = er_bench::open_store(&self.store_dir)
            .map_err(|e| format!("reopen store read-write: {e}"))
            .and_then(|store| self.read().persist(&store, self.key.dataset));
        if result.is_err() {
            // The state is still unpersisted; keep the flag for a retry.
            self.dirty.store(true, Ordering::SeqCst);
        }
        result.map(Some)
    }
}
