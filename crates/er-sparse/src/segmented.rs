//! LSM-style segmented incremental sparse index.
//!
//! The monolithic [`TokenSetsArtifact`] answers queries over a frozen
//! snapshot of the indexed collection; any change means a full re-prepare.
//! This module refactors that into a [`SegmentedTokenSets`]: a stack of
//! immutable [`SparseSegment`]s — each exactly the monolithic postings /
//! token-set layout over a subset of the rows — plus a small mutable
//! in-memory delta and a tombstone set:
//!
//! * **Upserts** land in the delta (a `BTreeMap` of raw token sets keyed
//!   by stable row id); **deletes** record a tombstone. Both fire the
//!   `delta/apply` fault site *before* mutating, so an injected panic is
//!   a structured failure on a still-consistent index.
//! * **Flush** folds the delta into a fresh immutable segment (built with
//!   [`ScanCountIndex::build_with_sets`], queries re-interned per
//!   segment), appended at the top of the stack.
//! * **Compaction** folds every segment plus the delta into one fresh
//!   segment. It is split into a pure planning step
//!   ([`SegmentedTokenSets::plan_compact`], safe to run off-thread on a
//!   snapshot) and an atomic apply ([`SegmentedTokenSets::apply_compact`])
//!   so a serving process keeps answering lookups while the fold runs.
//!   Planning fires the `compact/<base_repr>` fault site before reading
//!   anything.
//! * **Queries** run every segment through the join's one layer kernel
//!   (`EpsilonJoin::filter_layer`, `KnnJoin::score_layer` — the loop the
//!   offline batch path runs over a monolithic artifact), then probe the
//!   delta. Shadowed and tombstoned rows are suppressed (see *Liveness*),
//!   so every candidate set is *bitwise identical* to a full rebuild over
//!   the net dataset (the property tests below check this at 1 and 8
//!   threads, with and without a store round-trip).
//! * **Persistence** writes each segment as its own store file (codec 10)
//!   plus a [`SparseManifest`] (codec 11) holding the stack's seqs, the
//!   delta, the tombstones and the raw query sets. The manifest write is
//!   the atomic adoption point: segments written by an interrupted
//!   compaction are never referenced and `er store gc` collects them.
//!
//! ## Liveness
//!
//! A stable id is live in at most one layer: the delta if it holds the
//! id, else the newest segment holding it, unless tombstoned. Beside each
//! `Arc<SparseSegment>` sits a bitmap of its dead rows, derived, never
//! persisted: flush, compaction apply and restore recompute it from stack
//! order, delta keys and tombstones; upsert and delete mark the newest
//! holder's row in place (binary search of its ascending `ids`). A
//! segment with nothing dead holds no words: one segment with an empty
//! delta and no tombstones allocates nothing at open.
//!
//! ## kNN across segments
//!
//! One [`DistinctFloor`] spans the layers of a row, and the kernel tests
//! liveness last, so only live rows feed it: a dead high-similarity copy
//! would otherwise raise it and cut a live row of the top k. The floor is
//! then the k-th distinct similarity of *some* live rows — at or below
//! the final cut — so a hit strictly below it, or outside the size window
//! it implies, is below the final cut whichever layer holds it. The
//! merged rows go through the monolithic [`KnnJoin::select_top_k`] cut.
//! For ε, liveness is simply the last conjunct of an absolute test.

use crate::artifact::TokenSetsArtifact;
use crate::epsilon::EpsilonJoin;
use crate::knn::{DistinctFloor, KnnJoin};
use crate::scancount::{RowMask, ScanCountIndex, ScanCountScratch};
use crate::store::{SparseManifestCodec, SPARSE_MANIFEST_CODEC_ID};
use er_core::artifacts::{ArtifactCache, ArtifactKey, DiskTier, TierLoad};
use er_core::faults;
use er_core::parallel;
use er_core::timing::PhaseBreakdown;
use er_store::store::ArtifactCodec;
use er_store::{ArtifactStore, OpenMode, StoreMeta};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// The store repr key of the segment with sequence number `seq` under a
/// segmented index rooted at `base` (the monolithic artifact's repr key).
pub fn segment_repr(base: &str, seq: u64) -> String {
    format!("{base}#seg{seq:016x}")
}

/// The store repr key of the manifest of a segmented index rooted at `base`.
pub fn manifest_repr(base: &str) -> String {
    format!("{base}#manifest")
}

/// One immutable segment: a contiguous [`TokenSetsArtifact`] over a
/// subset of the rows, plus the stable row id of each artifact row.
///
/// `ids` is strictly ascending, so artifact-dense id `d` maps to stable
/// id `ids[d]` monotonically — candidate orderings by dense id and by
/// stable id coincide, which is what keeps merged results bitwise equal
/// to a full rebuild.
#[derive(Debug)]
pub struct SparseSegment {
    /// Sequence number, unique within one segmented index's lifetime.
    pub seq: u64,
    /// Stable row id of each artifact row, strictly ascending.
    pub ids: Vec<u32>,
    /// The segment's own index + token sets; `query_sets` is the
    /// shared raw query collection interned against *this* segment.
    pub art: TokenSetsArtifact,
}

impl SparseSegment {
    /// Builds a segment from `(stable id, raw token set)` rows (ascending
    /// ids) and the shared raw query sets. Public for the shard builders
    /// ([`crate::sharded`], the out-of-core sweep), which assemble one
    /// segment per shard without staging rows through a delta map.
    pub fn build(seq: u64, rows: Vec<(u32, Vec<u64>)>, query_raw: &[Vec<u64>]) -> Self {
        let ids: Vec<u32> = rows.iter().map(|(id, _)| *id).collect();
        let sets: Vec<Vec<u64>> = rows.into_iter().map(|(_, set)| set).collect();
        let (index, index_sets) = ScanCountIndex::build_with_sets(&sets);
        let query_sets = index.intern_queries(query_raw);
        SparseSegment {
            seq,
            ids,
            art: TokenSetsArtifact {
                index_sets,
                query_sets,
                index,
            },
        }
    }

    /// Number of rows in this segment.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Exact heap footprint: the artifact's three flat structures plus the
    /// stable-id column (see [`TokenSetsArtifact::prepare`] for the same
    /// three terms). Store round-trips reproduce this byte-exactly.
    pub fn heap_bytes(&self) -> usize {
        self.art.index_sets.heap_bytes()
            + self.art.query_sets.heap_bytes()
            + self.art.index.heap_bytes()
            + self.ids.len() * 4
    }

    /// The raw token hashes of segment row `row` (dense ids mapped back
    /// through the segment's interner), in original tokenization order.
    fn raw_row(&self, row: usize, tokens_by_id: &[u64]) -> Vec<u64> {
        self.art
            .index_sets
            .row(row)
            .iter()
            .map(|&d| tokens_by_id[d as usize])
            .collect()
    }
}

/// One segment of the stack with its dead rows (module docs, *Liveness*).
#[derive(Debug)]
struct Sealed {
    segment: Arc<SparseSegment>,
    /// Dead rows by dense row id; no words while none is dead.
    dead: RowMask,
}

impl Sealed {
    fn new(segment: Arc<SparseSegment>) -> Self {
        Sealed {
            segment,
            dead: RowMask::default(),
        }
    }
}

/// Marks dead the newest segment row holding `id` — the only copy that
/// can still be live, every older one being shadowed by it.
fn suppress(segments: &mut [Sealed], id: u32) {
    for sealed in segments.iter_mut().rev() {
        if let Ok(row) = sealed.segment.ids.binary_search(&id) {
            sealed.dead.insert(row as u32, sealed.segment.len());
            return;
        }
    }
}

/// Where a restore reads manifests and segments from: a store, or a
/// cache in front of one whose counters then record every read.
pub trait ArtifactSource {
    /// The stored artifact under `key`.
    fn fetch(&self, key: &ArtifactKey) -> TierLoad;
}

impl ArtifactSource for ArtifactStore {
    fn fetch(&self, key: &ArtifactKey) -> TierLoad {
        self.load(key)
    }
}

impl ArtifactSource for ArtifactCache {
    fn fetch(&self, key: &ArtifactKey) -> TierLoad {
        match self.lookup(key) {
            Some(Ok(prepared)) => TierLoad::Hit {
                prepared,
                saved: Duration::ZERO,
            },
            Some(Err(msg)) => TierLoad::Failed(msg),
            None => TierLoad::Miss,
        }
    }
}

/// The one batch runner of the segment and shard stacks: `row(cursor, j)`
/// for every query row, one `cursor()` per deterministic chunk, outputs
/// in row order — byte-identical for any `threads`.
pub(crate) fn batch_rows<C, T: Send>(
    rows: usize,
    threads: usize,
    cursor: impl Fn() -> C + Sync,
    row: impl Fn(&mut C, usize) -> T + Sync,
) -> Vec<T> {
    let row_ids: Vec<usize> = (0..rows).collect();
    let chunk = parallel::query_chunk_len(rows);
    parallel::par_map_chunks_with(threads, &row_ids, chunk, |_, part| {
        let mut cursor = cursor();
        part.iter()
            .map(|&j| row(&mut cursor, j))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// A planned compaction: the folded segment plus the snapshots needed to
/// apply it atomically later. Produced by
/// [`SegmentedTokenSets::plan_compact`] (pure, `&self`), consumed by
/// [`SegmentedTokenSets::apply_compact`]. Upserts and deletes may land
/// between the two — apply reconciles against the snapshots — but a
/// *flush* must not (it would reuse the planned sequence number); the
/// serving layer runs flushes and compactions on the same single-flight
/// lane to uphold that.
#[derive(Debug)]
pub struct PendingCompaction {
    /// Seqs of the segments the fold consumed.
    folded_seqs: Vec<u64>,
    /// The delta rows as they were at plan time; apply drops a delta row
    /// only if it still holds exactly this value (anything newer shadows
    /// the folded segment).
    folded_delta: Vec<(u32, Vec<u64>)>,
    /// The replacement segment.
    segment: Arc<SparseSegment>,
}

impl PendingCompaction {
    /// Rows in the folded segment.
    pub fn rows(&self) -> usize {
        self.segment.len()
    }

    /// How many segments the fold consumed.
    pub fn folded_segments(&self) -> usize {
        self.folded_seqs.len()
    }
}

/// Outcome of one [`SegmentedTokenSets::persist`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistReport {
    /// Segment files written this call.
    pub segments_written: usize,
    /// Segment files already on disk and still valid (immutable, so a
    /// matching file never needs rewriting).
    pub segments_reused: usize,
    /// Superseded segment files (referenced by the previous manifest only)
    /// deleted after the manifest swap.
    pub removed: usize,
}

/// The serialized mutable state of a segmented index: everything except
/// the immutable segments themselves, which live in their own store files
/// keyed by [`segment_repr`]. Codec 11 round-trips this struct.
#[derive(Debug, Clone)]
pub struct SparseManifest {
    /// Next unused segment sequence number.
    pub next_seq: u64,
    /// The repr key of the monolithic artifact this index grew out of.
    pub base_repr: String,
    /// Segment seqs in stack order (oldest data first).
    pub segment_seqs: Vec<u64>,
    /// Tombstoned stable ids, ascending.
    pub tombstones: Vec<u32>,
    /// Delta rows `(stable id, raw token set)`, ascending ids.
    pub delta: Vec<(u32, Vec<u64>)>,
    /// Raw query-side token sets, one per query row.
    pub query_raw: Vec<Vec<u64>>,
}

impl SparseManifest {
    /// The repr keys of the segment files this manifest references.
    pub fn segment_reprs(&self) -> Vec<String> {
        self.segment_seqs
            .iter()
            .map(|&seq| segment_repr(&self.base_repr, seq))
            .collect()
    }

    /// Deterministic heap estimate (also the stored `heap_bytes`, so the
    /// codec keeps exact parity): string + flat arrays + per-row terms.
    pub fn heap_bytes(&self) -> usize {
        self.base_repr.len()
            + self.segment_seqs.len() * 8
            + self.tombstones.len() * 4
            + delta_heap_bytes(self.delta.iter().map(|(_, set)| set.len()))
            + query_heap_bytes(&self.query_raw)
    }
}

/// Heap estimate of delta rows: id + Vec header vs. 12 bytes flat, plus
/// the tokens.
fn delta_heap_bytes(lens: impl Iterator<Item = usize>) -> usize {
    lens.map(|len| 12 + len * 8).sum()
}

/// Heap estimate of the raw query sets: one Vec header per row plus the
/// tokens.
fn query_heap_bytes(query_raw: &[Vec<u64>]) -> usize {
    query_raw.iter().map(|set| 24 + set.len() * 8).sum()
}

/// The segmented incremental index (see module docs).
#[derive(Debug)]
pub struct SegmentedTokenSets {
    /// Repr key of the monolithic artifact this index answers for; the
    /// store keys of every segment and the manifest derive from it.
    base_repr: String,
    /// Immutable segments in stack order (oldest data first: flushes
    /// append, compaction replaces the folded prefix), each with its dead
    /// rows.
    segments: Vec<Sealed>,
    /// Mutable rows not yet folded into a segment, by stable id.
    delta: BTreeMap<u32, Vec<u64>>,
    /// Deleted stable ids still present in some segment. Disjoint from
    /// the delta's keys by construction.
    tombstones: BTreeSet<u32>,
    /// Raw query-side token sets; every segment interns them on build.
    query_raw: Vec<Vec<u64>>,
    /// Next unused segment sequence number.
    next_seq: u64,
}

impl SegmentedTokenSets {
    /// An empty segmented index for `base_repr` with the given raw query
    /// sets.
    pub fn new(base_repr: impl Into<String>, query_raw: Vec<Vec<u64>>) -> Self {
        SegmentedTokenSets {
            base_repr: base_repr.into(),
            segments: Vec::new(),
            delta: BTreeMap::new(),
            tombstones: BTreeSet::new(),
            query_raw,
            next_seq: 0,
        }
    }

    /// Wraps an existing monolithic artifact as segment 0 (stable ids are
    /// the artifact's dense ids). `query_raw` must be the raw token sets
    /// the artifact's `query_sets` were interned from — the serving layer
    /// re-tokenizes the view with the artifact's own model, which is
    /// deterministic.
    pub fn from_artifact(
        base_repr: impl Into<String>,
        art: Arc<TokenSetsArtifact>,
        query_raw: Vec<Vec<u64>>,
    ) -> Self {
        let ids: Vec<u32> = (0..art.index.len() as u32).collect();
        // A sole owner hands its structures over in place (the serving
        // boot drops its cache first so this holds); a shared artifact
        // is deep-copied, doubling resident memory for the largest layer.
        let art = Arc::try_unwrap(art).unwrap_or_else(|arc| TokenSetsArtifact {
            index_sets: arc.index_sets.clone(),
            query_sets: arc.query_sets.clone(),
            index: arc.index.clone(),
        });
        let segment = SparseSegment { seq: 0, ids, art };
        Self::from_segment(base_repr, Arc::new(segment), query_raw)
    }

    /// Wraps one segment (which interned `query_raw`) as a stack with an
    /// empty delta and no tombstones: nothing dead, nothing allocated.
    pub fn from_segment(
        base_repr: impl Into<String>,
        segment: Arc<SparseSegment>,
        query_raw: Vec<Vec<u64>>,
    ) -> Self {
        let mut this = Self::new(base_repr, query_raw);
        this.next_seq = segment.seq + 1;
        this.segments.push(Sealed::new(segment));
        this
    }

    /// The repr key of the monolithic artifact this index answers for.
    pub fn base_repr(&self) -> &str {
        &self.base_repr
    }

    /// Number of immutable segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Rows currently in the mutable delta.
    pub fn delta_rows(&self) -> usize {
        self.delta.len()
    }

    /// Tombstoned ids currently tracked.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Live (query-visible) rows across all layers.
    pub fn live_rows(&self) -> usize {
        let live = |s: &Sealed| s.segment.len() - s.dead.count();
        self.segments.iter().map(live).sum::<usize>() + self.delta.len()
    }

    /// Query rows this index answers for.
    pub fn query_rows(&self) -> usize {
        self.query_raw.len()
    }

    /// The raw token set of query row `j`.
    pub fn query_raw(&self, j: usize) -> &[u64] {
        &self.query_raw[j]
    }

    /// Deterministic heap estimate for cache budgeting: exact segment
    /// footprints plus flat estimates of the delta, tombstones and raw
    /// queries. The derived dead-row bitmaps are rebuildable bookkeeping
    /// and deliberately excluded, keeping the figure a pure function of
    /// the persisted state (so a store round-trip budgets identically).
    pub fn heap_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.segment.heap_bytes())
            .sum::<usize>()
            + delta_heap_bytes(self.delta.values().map(Vec::len))
            + self.tombstones.len() * 4
            + query_heap_bytes(&self.query_raw)
    }

    /// Fires the `compact/<base_repr>` fault site (the `enabled` guard
    /// skips the key formatting on the hot path).
    fn fire_compact(&self) {
        if faults::enabled() {
            faults::fire(&format!("compact/{}", self.base_repr));
        }
    }

    /// Inserts or replaces the row `id` with a raw (duplicate-free) token
    /// set. Fires `delta/apply` before mutating anything.
    pub fn upsert(&mut self, id: u32, tokens: Vec<u64>) {
        faults::fire("delta/apply");
        self.tombstones.remove(&id);
        self.delta.insert(id, tokens);
        suppress(&mut self.segments, id);
    }

    /// Deletes the row `id` (a no-op id is fine). Fires `delta/apply`
    /// before mutating anything.
    ///
    /// The tombstone is recorded even when the row currently lives only
    /// in the delta: a compaction planned before this delete may be about
    /// to install a segment that still contains the row, and only the
    /// tombstone keeps it suppressed through that apply. Tombstones with
    /// no segment backing are pruned on the next structural rebuild.
    pub fn delete(&mut self, id: u32) {
        faults::fire("delta/apply");
        self.delta.remove(&id);
        self.tombstones.insert(id);
        suppress(&mut self.segments, id);
    }

    /// Recomputes every segment's dead rows from stack order, delta keys
    /// and tombstones, and prunes tombstones no segment backs.
    fn rebuild_liveness(&mut self) {
        let segments = &self.segments;
        self.tombstones.retain(|id| {
            segments
                .iter()
                .any(|s| s.segment.ids.binary_search(id).is_ok())
        });
        for sealed in &mut self.segments {
            sealed.dead = RowMask::default();
        }
        // Each id of a segment kills its newest older copy; that copy's
        // own older copies die when its segment's turn comes.
        for newer in 1..self.segments.len() {
            let (older, rest) = self.segments.split_at_mut(newer);
            for &id in &rest[0].segment.ids {
                suppress(older, id);
            }
        }
        for &id in self.delta.keys().chain(&self.tombstones) {
            suppress(&mut self.segments, id);
        }
    }

    /// Folds the delta into a fresh immutable segment appended to the
    /// stack. Returns `false` when the delta is empty. Fires the
    /// `compact/<base_repr>` site before mutating.
    pub fn flush(&mut self) -> bool {
        if self.delta.is_empty() {
            return false;
        }
        self.fire_compact();
        let rows: Vec<(u32, Vec<u64>)> = std::mem::take(&mut self.delta).into_iter().collect();
        let segment = SparseSegment::build(self.next_seq, rows, &self.query_raw);
        self.next_seq += 1;
        self.segments.push(Sealed::new(Arc::new(segment)));
        self.rebuild_liveness();
        true
    }

    /// Plans a full compaction: folds every live row (across all segments
    /// and the delta) into one fresh segment. Pure — `&self` — so a
    /// serving process runs it on a worker while lookups continue.
    /// Returns `None` when there is nothing to fold (at most one segment,
    /// empty delta, no tombstones). Fires `compact/<base_repr>` first.
    pub fn plan_compact(&self) -> Option<PendingCompaction> {
        if self.segments.len() <= 1 && self.delta.is_empty() && self.tombstones.is_empty() {
            return None;
        }
        self.fire_compact();
        // Every live id with the layer answering for it: a segment row,
        // or `None` for the delta.
        let mut live: Vec<(u32, Option<(usize, usize)>)> = Vec::with_capacity(self.live_rows());
        for (s, sealed) in self.segments.iter().enumerate() {
            let rows = sealed.segment.ids.iter().enumerate();
            live.extend(
                rows.filter(|&(row, _)| !sealed.dead.contains(row as u32))
                    .map(|(row, &id)| (id, Some((s, row)))),
            );
        }
        live.extend(self.delta.keys().map(|&id| (id, None)));
        live.sort_unstable_by_key(|&(id, _)| id);
        // Interner hashes are recovered lazily, once per segment that
        // still owns at least one row.
        let mut tokens_cache: Vec<Option<Vec<u64>>> = vec![None; self.segments.len()];
        let rows: Vec<(u32, Vec<u64>)> = live
            .into_iter()
            .map(|(id, layer)| {
                let set = match layer {
                    None => self.delta[&id].clone(),
                    Some((s, row)) => {
                        let seg = &self.segments[s].segment;
                        let tokens =
                            tokens_cache[s].get_or_insert_with(|| seg.art.index.raw_parts().0);
                        seg.raw_row(row, tokens)
                    }
                };
                (id, set)
            })
            .collect();
        let folded_delta: Vec<(u32, Vec<u64>)> = self
            .delta
            .iter()
            .map(|(id, set)| (*id, set.clone()))
            .collect();
        Some(PendingCompaction {
            folded_seqs: self.segments.iter().map(|s| s.segment.seq).collect(),
            folded_delta,
            segment: Arc::new(SparseSegment::build(self.next_seq, rows, &self.query_raw)),
        })
    }

    /// Installs a planned compaction: the folded segment replaces the
    /// segments it consumed (keeping any newer ones), and delta rows are
    /// dropped only where they still hold the exact value the plan
    /// folded — a newer upsert keeps shadowing, a delete's tombstone
    /// keeps suppressing.
    pub fn apply_compact(&mut self, pending: PendingCompaction) {
        let PendingCompaction {
            folded_seqs,
            folded_delta,
            segment,
        } = pending;
        self.next_seq = self.next_seq.max(segment.seq + 1);
        let mut stack = vec![Sealed::new(segment)];
        stack.extend(
            std::mem::take(&mut self.segments)
                .into_iter()
                .filter(|s| !folded_seqs.contains(&s.segment.seq)),
        );
        self.segments = stack;
        for (id, set) in folded_delta {
            if self.delta.get(&id) == Some(&set) {
                self.delta.remove(&id);
            }
        }
        self.rebuild_liveness();
    }

    /// Plan + apply in one step (the offline path). Returns `true` when a
    /// fold happened.
    pub fn compact(&mut self) -> bool {
        match self.plan_compact() {
            Some(pending) => {
                self.apply_compact(pending);
                true
            }
            None => false,
        }
    }

    /// A reusable query cursor over the current layers.
    pub fn cursor(&self) -> MergeCursor<'_> {
        self.cursor_with(MergeScratch::default())
    }

    /// A merge cursor reusing caller-held scratch — the serving path,
    /// where the index lives behind a lock but per-worker scratch should
    /// survive across lock acquisitions.
    pub fn cursor_with(&self, scratch: MergeScratch) -> MergeCursor<'_> {
        MergeCursor { seg: self, scratch }
    }

    /// ε-join candidates for every query row: one ascending stable-id
    /// list per row, chunked over `threads` workers (byte-identical for
    /// any worker count).
    pub fn epsilon_batch(&self, join: &EpsilonJoin, threads: usize) -> Vec<Vec<u32>> {
        batch_rows(
            self.query_rows(),
            threads,
            || self.cursor(),
            |c, j| c.epsilon_row(join, j),
        )
    }

    /// kNN neighbors for every query row: `(stable id, similarity)`
    /// sorted by descending similarity then ascending id, chunked over
    /// `threads` workers (byte-identical for any worker count).
    pub fn knn_batch(&self, join: &KnnJoin, threads: usize) -> Vec<Vec<(u32, f64)>> {
        batch_rows(
            self.query_rows(),
            threads,
            || self.cursor(),
            |c, j| c.knn_row(join, j),
        )
    }

    /// The manifest describing the current state (segments by reference).
    pub fn manifest(&self) -> SparseManifest {
        SparseManifest {
            next_seq: self.next_seq,
            base_repr: self.base_repr.clone(),
            segment_seqs: self.segments.iter().map(|s| s.segment.seq).collect(),
            tombstones: self.tombstones.iter().copied().collect(),
            delta: self
                .delta
                .iter()
                .map(|(id, set)| (*id, set.clone()))
                .collect(),
            query_raw: self.query_raw.clone(),
        }
    }

    /// Persists the index: every segment as its own immutable store file
    /// (skipped when already on disk and valid), then the manifest via an
    /// atomic overwrite — the adoption point. Segment files the previous
    /// manifest referenced but the new one does not are deleted last; a
    /// crash anywhere leaves either the old or the new manifest fully
    /// consistent, plus at worst unreferenced segment files that
    /// `er store gc` collects.
    pub fn persist(&self, store: &ArtifactStore, dataset: u64) -> Result<PersistReport, String> {
        if store.mode() == OpenMode::ReadOnly {
            return Err("cannot persist into a read-only store".to_owned());
        }
        let manifest_key = ArtifactKey::new(dataset, manifest_repr(&self.base_repr));
        // The previous manifest's segment list, read before anything
        // changes: its no-longer-referenced segments are deleted after
        // the swap.
        let old_seqs: Vec<u64> = match store.load(&manifest_key) {
            TierLoad::Hit { prepared, .. } => {
                prepared.downcast::<SparseManifest>().segment_seqs.clone()
            }
            _ => Vec::new(),
        };
        let mut report = PersistReport::default();
        for seg in self.segments.iter().map(|s| &s.segment) {
            let key = ArtifactKey::new(dataset, segment_repr(&self.base_repr, seg.seq));
            let prepared = er_core::filter::Prepared::from_arc(
                Arc::clone(seg) as Arc<dyn std::any::Any + Send + Sync>,
                seg.heap_bytes(),
                PhaseBreakdown::new(),
            );
            match store.store(&key, &prepared)? {
                true => report.segments_written += 1,
                false => report.segments_reused += 1,
            }
        }
        let manifest = self.manifest();
        let sections = SparseManifestCodec
            .encode(&manifest)
            .expect("manifest always encodes");
        let meta = StoreMeta {
            codec_id: SPARSE_MANIFEST_CODEC_ID,
            dataset_fp: dataset,
            repr: manifest_key.repr.clone(),
            prepare_nanos: 0,
            heap_bytes: manifest.heap_bytes() as u64,
        };
        er_store::format::write_store(&store.file_path(&manifest_key), &meta, &sections)
            .map_err(|e| e.to_string())?;
        let current: BTreeSet<u64> = manifest.segment_seqs.iter().copied().collect();
        for seq in old_seqs {
            if !current.contains(&seq) {
                let key = ArtifactKey::new(dataset, segment_repr(&self.base_repr, seq));
                if std::fs::remove_file(store.file_path(&key)).is_ok() {
                    report.removed += 1;
                }
            }
        }
        Ok(report)
    }

    /// Restores a segmented index from its manifest plus segment files,
    /// read through `source` (a store, or a cache in front of one).
    /// `Ok(None)` when no manifest is stored under this key; a present
    /// but unreadable manifest, or a referenced segment that is missing or
    /// fails to load, is a structured error.
    pub fn load<S: ArtifactSource + ?Sized>(
        source: &S,
        dataset: u64,
        base_repr: &str,
    ) -> Result<Option<Self>, String> {
        let manifest_key = ArtifactKey::new(dataset, manifest_repr(base_repr));
        let manifest = match source.fetch(&manifest_key) {
            TierLoad::Miss => return Ok(None),
            TierLoad::Failed(msg) => {
                return Err(format!("manifest {} unusable: {msg}", manifest_key.repr))
            }
            TierLoad::Hit { prepared, .. } => prepared.downcast::<SparseManifest>().clone(),
        };
        let mut segments = Vec::with_capacity(manifest.segment_seqs.len());
        for &seq in &manifest.segment_seqs {
            let key = ArtifactKey::new(dataset, segment_repr(base_repr, seq));
            let segment = match source.fetch(&key) {
                TierLoad::Hit { prepared, .. } => prepared
                    .arc()
                    .downcast::<SparseSegment>()
                    .map_err(|_| format!("segment {} decoded to a foreign type", key.repr))?,
                TierLoad::Miss => {
                    return Err(format!("manifest references missing segment {}", key.repr))
                }
                TierLoad::Failed(msg) => {
                    return Err(format!("segment {} unusable: {msg}", key.repr))
                }
            };
            if segment.seq != seq {
                return Err(format!("segment {} holds seq {}", key.repr, segment.seq));
            }
            segments.push(Sealed::new(segment));
        }
        let next_seq = manifest
            .segment_seqs
            .iter()
            .copied()
            .max()
            .map_or(manifest.next_seq, |m| manifest.next_seq.max(m + 1));
        let mut this = SegmentedTokenSets {
            base_repr: manifest.base_repr,
            segments,
            delta: manifest.delta.into_iter().collect(),
            tombstones: manifest.tombstones.into_iter().collect(),
            query_raw: manifest.query_raw,
            next_seq,
        };
        this.rebuild_liveness();
        Ok(Some(this))
    }
}

/// Per-worker scratch for merged queries: the ScanCount buffers, the
/// sorted copy of the current query row the delta probes binary-search,
/// the kNN merge buffer, and running totals of the work done through it.
#[derive(Debug, Default)]
pub struct MergeScratch {
    scan: ScanCountScratch,
    hits: Vec<(u32, u32)>,
    sorted_query: Vec<u64>,
    /// Owned `(stable id, similarity)` rows of the kNN row in progress.
    merged: Vec<(u32, f64)>,
    counters: QueryCounters,
}

impl MergeScratch {
    /// The totals accumulated since the last call, which resets them.
    pub fn take_counters(&mut self) -> QueryCounters {
        std::mem::take(&mut self.counters)
    }
}

/// What the row kernels did, summed over the rows answered through one
/// [`MergeScratch`]: the two numbers that explain a lookup's cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// Indexed rows the ScanCount merge touched (shared ≥ 1 token).
    pub touched: u64,
    /// Rows left after every filter — the ones a row kernel ordered and
    /// returned (per shard: a sharded kNN re-cuts their union once more).
    pub survivors: u64,
}

impl std::ops::AddAssign for QueryCounters {
    fn add_assign(&mut self, other: Self) {
        self.touched += other.touched;
        self.survivors += other.survivors;
    }
}

/// Answers ε/kNN queries across segments + delta with tombstone and
/// shadow suppression (see module docs). One cursor per worker; results
/// are bitwise identical to the monolithic query paths over a full
/// rebuild of the net dataset.
pub struct MergeCursor<'a> {
    seg: &'a SegmentedTokenSets,
    scratch: MergeScratch,
}

/// `(stable id, overlap, |row|)` of every delta row sharing a token with
/// the raw `query` — what a ScanCount layer over the delta would report.
/// `sorted` holds the query's tokens in order for the binary searches;
/// both sides are duplicate-free, so each count is exactly `|A ∩ B|`.
fn delta_hits<'a>(
    delta: &'a BTreeMap<u32, Vec<u64>>,
    query: &[u64],
    sorted: &'a mut Vec<u64>,
) -> impl Iterator<Item = (u32, usize, usize)> + 'a {
    sorted.clear();
    sorted.extend_from_slice(query);
    sorted.sort_unstable();
    let sorted: &'a [u64] = sorted;
    delta.iter().filter_map(move |(&id, tokens)| {
        let overlap = tokens
            .iter()
            .filter(|t| sorted.binary_search(t).is_ok())
            .count();
        (overlap > 0).then_some((id, overlap, tokens.len()))
    })
}

impl MergeCursor<'_> {
    /// Releases the cursor's scratch for reuse with a later cursor.
    pub fn into_scratch(self) -> MergeScratch {
        self.scratch
    }

    /// ε-join candidates of query row `j`: live stable ids, ascending —
    /// bitwise what [`EpsilonJoin::query_row_into`] yields on a full
    /// rebuild (dense ids map monotonically to stable ids).
    pub fn epsilon_row(&mut self, join: &EpsilonJoin, j: usize) -> Vec<u32> {
        let (stack, scratch) = (self.seg, &mut self.scratch);
        let query = &stack.query_raw[j];
        // One table for the row, long enough for every segment's largest
        // set and every delta row.
        let max_len = stack
            .segments
            .iter()
            .map(|s| s.segment.art.index.max_set_size())
            .chain(stack.delta.values().map(Vec::len))
            .max()
            .unwrap_or(0);
        join.prepare_row(query.len(), max_len, &mut scratch.scan);
        let mut out = Vec::new();
        for sealed in &stack.segments {
            let ids = &sealed.segment.ids;
            join.filter_layer(
                &sealed.segment.art,
                &sealed.dead,
                j,
                &mut scratch.scan,
                &mut scratch.hits,
                |i| out.push(ids[i as usize]),
            );
            scratch.counters.touched += scratch.hits.len() as u64;
        }
        if !stack.delta.is_empty() {
            let need = &scratch.scan.min_overlap;
            for (id, overlap, ilen) in delta_hits(&stack.delta, query, &mut scratch.sorted_query) {
                if overlap as u32 >= need[ilen] {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        scratch.counters.survivors += out.len() as u64;
        out
    }

    /// kNN neighbors of query row `j`: `(stable id, similarity)` after
    /// the global distinct-top-k cut — bitwise what [`KnnJoin::query_row`]
    /// yields on a full rebuild. One distinct floor spans the layers and
    /// sees live rows only (see module docs for why that is what keeps
    /// the cut exact under suppression).
    pub fn knn_row(&mut self, join: &KnnJoin, j: usize) -> Vec<(u32, f64)> {
        let (stack, scratch) = (self.seg, &mut self.scratch);
        let mut floor = DistinctFloor::new(join.k);
        scratch.merged.clear();
        for sealed in &stack.segments {
            let (ids, merged) = (&sealed.segment.ids, &mut scratch.merged);
            join.score_layer(
                &sealed.segment.art,
                &sealed.dead,
                j,
                Some(&mut floor),
                &mut scratch.scan,
                &mut scratch.hits,
                |i, sim| merged.push((ids[i as usize], sim)),
            );
            scratch.counters.touched += scratch.hits.len() as u64;
        }
        if !stack.delta.is_empty() {
            let query = &stack.query_raw[j];
            for (id, overlap, ilen) in delta_hits(&stack.delta, query, &mut scratch.sorted_query) {
                let sim = join.measure.compute(overlap, ilen, query.len());
                if sim > 0.0 {
                    scratch.merged.push((id, sim));
                }
            }
        }
        KnnJoin::select_top_k(join.k, &mut scratch.merged);
        scratch.counters.survivors += scratch.merged.len() as u64;
        scratch.merged.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representation::RepresentationModel;
    use crate::similarity::SimilarityMeasure;
    use crate::store::{SparseManifestCodec, SparsePackedCodec, SparseSegmentCodec};
    use er_text::Cleaner;
    use proptest::prelude::*;

    fn model() -> RepresentationModel {
        RepresentationModel::parse("T1G").expect("T1G")
    }

    fn toks(text: &str) -> Vec<u64> {
        model().token_set(text, &Cleaner::off())
    }

    fn queries() -> Vec<Vec<u64>> {
        ["alpha beta", "c d e", "alpha", "", "zz alpha d"]
            .iter()
            .map(|t| toks(t))
            .collect()
    }

    fn epsilon(threshold: f64, measure: SimilarityMeasure) -> EpsilonJoin {
        EpsilonJoin {
            cleaning: false,
            model: model(),
            measure,
            threshold,
        }
    }

    fn knn(k: usize, measure: SimilarityMeasure) -> KnnJoin {
        KnnJoin {
            cleaning: false,
            model: model(),
            measure,
            k,
            reversed: false,
        }
    }

    /// Full-rebuild oracle over the net rows: the monolithic artifact
    /// plus the ascending live-id column its dense ids map through.
    fn oracle(
        rows: &BTreeMap<u32, Vec<u64>>,
        query_raw: &[Vec<u64>],
    ) -> (TokenSetsArtifact, Vec<u32>) {
        let ids: Vec<u32> = rows.keys().copied().collect();
        let sets: Vec<Vec<u64>> = rows.values().cloned().collect();
        let (index, index_sets) = ScanCountIndex::build_with_sets(&sets);
        let query_sets = index.intern_queries(query_raw);
        (
            TokenSetsArtifact {
                index_sets,
                query_sets,
                index,
            },
            ids,
        )
    }

    fn oracle_epsilon(
        join: &EpsilonJoin,
        art: &TokenSetsArtifact,
        ids: &[u32],
        j: usize,
    ) -> Vec<u32> {
        let mut scratch = ScanCountScratch::default();
        let mut hits = Vec::new();
        let mut dense = Vec::new();
        join.query_row_into(art, j, &mut scratch, &mut hits, &mut dense);
        dense.into_iter().map(|d| ids[d as usize]).collect()
    }

    fn oracle_knn(
        join: &KnnJoin,
        art: &TokenSetsArtifact,
        ids: &[u32],
        j: usize,
    ) -> Vec<(u32, f64)> {
        let mut scratch = ScanCountScratch::default();
        let mut hits = Vec::new();
        join.query_row(art, j, &mut scratch, &mut hits)
            .into_iter()
            .map(|(d, s)| (ids[d as usize], s))
            .collect()
    }

    /// The rows `seg` answers for — the live row of each segment and the
    /// delta — with the token sets they answer with.
    fn live_sets(seg: &SegmentedTokenSets) -> BTreeMap<u32, Vec<u64>> {
        let mut live = BTreeMap::new();
        for sealed in &seg.segments {
            let tokens = sealed.segment.art.index.raw_parts().0;
            for (row, &id) in sealed.segment.ids.iter().enumerate() {
                if !sealed.dead.contains(row as u32) {
                    let set = sealed.segment.raw_row(row, &tokens);
                    assert!(live.insert(id, set).is_none(), "{id} live twice");
                }
            }
        }
        for (&id, set) in &seg.delta {
            assert!(live.insert(id, set.clone()).is_none(), "{id} live twice");
        }
        live
    }

    /// Asserts every query row of `seg` is bitwise equal to the oracle at
    /// 1 and 8 threads, for a spread of join configurations, and that the
    /// rows it answers for are exactly the net rows.
    fn assert_matches_oracle(seg: &SegmentedTokenSets, rows: &BTreeMap<u32, Vec<u64>>) {
        let query_raw: Vec<Vec<u64>> = (0..seg.query_rows())
            .map(|j| seg.query_raw(j).to_vec())
            .collect();
        let (art, ids) = oracle(rows, &query_raw);
        assert_eq!(seg.live_rows(), rows.len(), "live-row accounting");
        assert_eq!(&live_sets(seg), rows, "live rows and their token sets");
        for join in [
            epsilon(0.0, SimilarityMeasure::Jaccard),
            epsilon(0.34, SimilarityMeasure::Cosine),
            epsilon(0.5, SimilarityMeasure::Dice),
            epsilon(1.0, SimilarityMeasure::Jaccard),
        ] {
            let want: Vec<Vec<u32>> = (0..query_raw.len())
                .map(|j| oracle_epsilon(&join, &art, &ids, j))
                .collect();
            for threads in [1, 8] {
                assert_eq!(
                    seg.epsilon_batch(&join, threads),
                    want,
                    "epsilon t={} threads={threads}",
                    join.threshold
                );
            }
        }
        for join in [
            knn(1, SimilarityMeasure::Cosine),
            knn(2, SimilarityMeasure::Jaccard),
        ] {
            let want: Vec<Vec<(u32, f64)>> = (0..query_raw.len())
                .map(|j| oracle_knn(&join, &art, &ids, j))
                .collect();
            for threads in [1, 8] {
                assert_eq!(
                    seg.knn_batch(&join, threads),
                    want,
                    "knn k={} threads={threads}",
                    join.k
                );
            }
        }
    }

    fn seeded() -> (SegmentedTokenSets, BTreeMap<u32, Vec<u64>>) {
        let mut seg = SegmentedTokenSets::new("sparse:test", queries());
        let mut net = BTreeMap::new();
        for (id, text) in [
            (0u32, "alpha beta c"),
            (3, "c d"),
            (5, "alpha"),
            (7, "d e zz"),
            (9, "beta beta alpha"),
        ] {
            seg.upsert(id, toks(text));
            net.insert(id, toks(text));
        }
        (seg, net)
    }

    #[test]
    fn delta_only_index_matches_rebuild() {
        let (seg, net) = seeded();
        assert_eq!(seg.segment_count(), 0);
        assert_eq!(seg.delta_rows(), 5);
        assert_matches_oracle(&seg, &net);
    }

    #[test]
    fn flush_and_mixed_layers_match_rebuild() {
        let (mut seg, mut net) = seeded();
        assert!(seg.flush());
        assert!(!seg.flush(), "empty delta flush is a no-op");
        assert_eq!((seg.segment_count(), seg.delta_rows()), (1, 0));
        // Overwrite one segment row, add a new delta row, delete one
        // segment row: all three suppression paths active at once.
        seg.upsert(3, toks("changed entirely"));
        net.insert(3, toks("changed entirely"));
        seg.upsert(11, toks("alpha d"));
        net.insert(11, toks("alpha d"));
        seg.delete(7);
        net.remove(&7);
        assert_eq!(seg.tombstone_count(), 1);
        assert_matches_oracle(&seg, &net);
        // A second flush stacks a second segment; still exact.
        assert!(seg.flush());
        assert_eq!(seg.segment_count(), 2);
        assert_matches_oracle(&seg, &net);
        // Compaction folds to one segment and drops the tombstone.
        assert!(seg.compact());
        assert_eq!(
            (seg.segment_count(), seg.delta_rows(), seg.tombstone_count()),
            (1, 0, 0)
        );
        assert_matches_oracle(&seg, &net);
        assert!(!seg.compact(), "fully folded index has nothing to compact");
    }

    #[test]
    fn delete_then_reinsert_same_row_matches_scratch_prepare() {
        let (mut seg, mut net) = seeded();
        seg.flush();
        seg.delete(5);
        seg.upsert(5, toks("resurrected text"));
        net.insert(5, toks("resurrected text"));
        assert_eq!(seg.tombstone_count(), 0, "reinsert clears the tombstone");
        assert_matches_oracle(&seg, &net);
        // And when the resurrection is flushed on top of the old segment.
        seg.flush();
        assert_matches_oracle(&seg, &net);
    }

    #[test]
    fn delete_of_delta_only_row_matches_scratch_prepare() {
        let (mut seg, mut net) = seeded();
        seg.flush();
        seg.upsert(20, toks("short lived"));
        seg.delete(20); // never reached a segment
        net.remove(&20);
        assert_eq!(seg.delta_rows(), 0);
        assert_matches_oracle(&seg, &net);
        // The unbacked tombstone is pruned at the next structural change.
        seg.upsert(21, toks("alpha"));
        net.insert(21, toks("alpha"));
        seg.flush();
        assert!(!seg.tombstones.contains(&20));
        assert_matches_oracle(&seg, &net);
    }

    #[test]
    fn delete_all_yields_empty_candidate_sets() {
        let (mut seg, mut net) = seeded();
        seg.flush();
        for id in [0u32, 3, 5, 7, 9] {
            seg.delete(id);
            net.remove(&id);
        }
        assert_eq!(seg.live_rows(), 0);
        let join = epsilon(0.0, SimilarityMeasure::Jaccard);
        for row in seg.epsilon_batch(&join, 1) {
            assert!(row.is_empty());
        }
        for row in seg.knn_batch(&knn(3, SimilarityMeasure::Cosine), 1) {
            assert!(row.is_empty());
        }
        assert_matches_oracle(&seg, &net);
        // Compacting the empty net state folds to one empty segment.
        assert!(seg.compact());
        assert_eq!(seg.tombstone_count(), 0);
        assert_matches_oracle(&seg, &net);
    }

    #[test]
    fn from_artifact_wraps_the_monolith_as_segment_zero() {
        let view = er_core::schema::TextView::new(
            vec!["alpha beta c".into(), "c d".into(), "alpha".into()],
            vec![
                "alpha beta".into(),
                "c d e".into(),
                "alpha".into(),
                "".into(),
                "zz alpha d".into(),
            ],
        );
        let prepared = TokenSetsArtifact::prepare(&view, false, model(), false);
        let art = prepared
            .arc()
            .downcast::<TokenSetsArtifact>()
            .expect("sparse artifact");
        let mut seg = SegmentedTokenSets::from_artifact("sparse:test", art, queries());
        let mut net: BTreeMap<u32, Vec<u64>> = [
            (0u32, toks("alpha beta c")),
            (1, toks("c d")),
            (2, toks("alpha")),
        ]
        .into_iter()
        .collect();
        assert_eq!((seg.segment_count(), seg.live_rows()), (1, 3));
        assert_eq!(
            seg.segments[0].dead,
            RowMask::default(),
            "nothing dead, nothing held"
        );
        assert_matches_oracle(&seg, &net);
        seg.upsert(1, toks("c d brand new"));
        net.insert(1, toks("c d brand new"));
        seg.delete(0);
        net.remove(&0);
        assert_matches_oracle(&seg, &net);
    }

    #[test]
    fn delete_between_plan_and_apply_stays_deleted() {
        let (mut seg, mut net) = seeded();
        seg.flush();
        seg.upsert(13, toks("transient alpha"));
        let pending = seg.plan_compact().expect("something to fold");
        // Concurrent mutations while the "worker" folds: a delete of a
        // planned delta row, and an upsert newer than the folded value.
        seg.delete(13);
        seg.upsert(3, toks("newer than the fold"));
        net.insert(3, toks("newer than the fold"));
        seg.apply_compact(pending);
        assert_matches_oracle(&seg, &net);
        assert!(seg.delta.contains_key(&3), "newer upsert still shadowing");
    }

    #[test]
    fn suppressed_rows_that_pass_every_filter_stay_out() {
        // Query 0 is "alpha beta". Rows 0 and 9 reach it with similarity
        // 1.0 from inside the segment — they pass the size window, the
        // threshold and any kNN floor — and neither is live: 0 is
        // tombstoned, 9 is shadowed by a delta row that shares nothing
        // with the query. Only the liveness bit can drop them, and with
        // the arithmetic tests ahead of it, it must still be tested.
        let mut seg = SegmentedTokenSets::new("sparse:test", queries());
        let mut net = BTreeMap::new();
        for (id, text) in [
            (0u32, "alpha beta"),
            (2, "alpha beta c"),
            (4, "alpha"),
            (6, "c d e"),
            (9, "beta alpha"),
        ] {
            seg.upsert(id, toks(text));
            net.insert(id, toks(text));
        }
        assert!(seg.flush());
        seg.delete(0);
        net.remove(&0);
        seg.upsert(9, toks("zz"));
        net.insert(9, toks("zz"));

        let mut cursor = seg.cursor();
        let eps = epsilon(0.5, SimilarityMeasure::Jaccard);
        assert_eq!(cursor.epsilon_row(&eps, 0), vec![2, 4]);
        // Had the suppressed 1.0s fed the floor, k = 1 would have cut at
        // 1.0 and returned nothing; the live best is row 2 at 2/3.
        let best = cursor.knn_row(&knn(1, SimilarityMeasure::Jaccard), 0);
        assert_eq!(best, vec![(2, 2.0 / 3.0)]);
        let two = cursor.knn_row(&knn(2, SimilarityMeasure::Jaccard), 0);
        assert_eq!(two, vec![(2, 2.0 / 3.0), (4, 0.5)]);
        // 3 segment scans × 4 touched rows (query 0 misses "c d e"; the
        // tombstoned and the shadowed row are touched like any other),
        // 2 + 1 + 2 rows returned.
        assert_eq!(
            cursor.into_scratch().take_counters(),
            QueryCounters {
                touched: 12,
                survivors: 5
            }
        );
        assert_matches_oracle(&seg, &net);
        // The same through a second segment instead of the delta.
        assert!(seg.flush());
        assert_matches_oracle(&seg, &net);
    }

    fn store_in(name: &str) -> (ArtifactStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("er_segmented_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(
            &dir,
            vec![
                Box::new(SparsePackedCodec),
                Box::new(SparseSegmentCodec),
                Box::new(SparseManifestCodec),
            ],
        )
        .expect("open");
        (store, dir)
    }

    #[test]
    fn persist_load_roundtrip_and_segment_reuse() {
        let (store, dir) = store_in("roundtrip");
        let (mut seg, mut net) = seeded();
        seg.flush();
        seg.upsert(30, toks("delta survives restart"));
        net.insert(30, toks("delta survives restart"));
        seg.delete(7);
        net.remove(&7);
        let report = seg.persist(&store, 42).expect("persist");
        assert_eq!(
            (
                report.segments_written,
                report.segments_reused,
                report.removed
            ),
            (1, 0, 0)
        );
        let loaded = SegmentedTokenSets::load(&store, 42, "sparse:test")
            .expect("load")
            .expect("manifest present");
        assert_eq!(loaded.segment_count(), 1);
        assert_eq!(loaded.delta_rows(), 1);
        assert_eq!(loaded.tombstone_count(), 1);
        assert_eq!(loaded.heap_bytes(), seg.heap_bytes());
        assert_matches_oracle(&loaded, &net);
        // Re-persisting reuses the immutable segment file.
        let again = seg.persist(&store, 42).expect("persist again");
        assert_eq!((again.segments_written, again.segments_reused), (0, 1));
        // Wrong key: no manifest.
        assert!(SegmentedTokenSets::load(&store, 42, "sparse:other")
            .expect("load")
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_persist_drops_superseded_segments_and_gc_agrees() {
        let (store, dir) = store_in("supersede");
        let (mut seg, net) = seeded();
        seg.flush();
        seg.upsert(31, toks("second segment"));
        seg.flush();
        seg.delete(31);
        seg.persist(&store, 7).expect("persist two segments");
        assert_eq!(
            store.files().expect("files").len(),
            3,
            "2 segments + manifest"
        );
        // Everything referenced: gc keeps all files.
        let report = store.gc().expect("gc");
        assert_eq!((report.removed, report.orphaned), (0, 0));
        // Compact and persist: the folded segment replaces both, and the
        // superseded files are deleted by the persist itself.
        assert!(seg.compact());
        let report = seg.persist(&store, 7).expect("persist folded");
        assert_eq!((report.segments_written, report.removed), (1, 2));
        assert_eq!(
            store.files().expect("files").len(),
            2,
            "1 segment + manifest"
        );
        let loaded = SegmentedTokenSets::load(&store, 7, "sparse:test")
            .expect("load")
            .expect("present");
        assert_matches_oracle(&loaded, &net);
        // Simulated interrupted compaction: a segment written without its
        // manifest swap. Deleting the manifest orphans the segments.
        std::fs::remove_file(store.file_path(&ArtifactKey::new(7, manifest_repr("sparse:test"))))
            .expect("drop manifest");
        let report = store.gc().expect("gc orphans");
        assert_eq!(report.orphaned, 1, "{report:?}");
        assert!(store.files().expect("files").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replays `ops` on a fresh index and on the net rows. Op 4 plans a
    /// compaction and applies it after the next `id % 4` ops, so upserts
    /// and deletes land between plan and apply as they do on the serving
    /// lane; a flush or another plan first applies the one in flight (the
    /// lane is single-flight).
    fn apply_ops(ops: &[(u8, u32, String)]) -> (SegmentedTokenSets, BTreeMap<u32, Vec<u64>>) {
        let mut seg = SegmentedTokenSets::new("sparse:test", queries());
        let mut net = BTreeMap::new();
        let mut pending: Option<(PendingCompaction, u32)> = None;
        for (op, id, text) in ops {
            let op = op % 5;
            if op >= 3 {
                if let Some((plan, _)) = pending.take() {
                    seg.apply_compact(plan);
                }
            }
            match op {
                0 | 1 => {
                    seg.upsert(*id, toks(text));
                    net.insert(*id, toks(text));
                }
                2 => {
                    seg.delete(*id);
                    net.remove(id);
                }
                3 => {
                    if *id % 2 == 0 {
                        seg.flush();
                    } else {
                        seg.compact();
                    }
                }
                _ => pending = seg.plan_compact().map(|plan| (plan, id % 4)),
            }
            if let Some((_, after)) = pending.as_mut() {
                if *after == 0 {
                    let (plan, _) = pending.take().expect("a plan in flight");
                    seg.apply_compact(plan);
                } else {
                    *after -= 1;
                }
            }
            assert_eq!(live_sets(&seg), net, "after {op} on {id}");
        }
        if let Some((plan, _)) = pending {
            seg.apply_compact(plan);
        }
        (seg, net)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Acceptance property: any interleaving of upserts, deletes,
        /// flushes and compactions — planned compactions applied some
        /// ops later included — yields candidate sets bitwise
        /// identical to a full re-prepare of the net dataset, at 1 and 8
        /// threads (inside the oracle comparison), with and without a
        /// store round-trip standing in for a process restart.
        #[test]
        fn any_op_interleaving_matches_full_rebuild(
            ops in proptest::collection::vec((0u8..5, 0u32..24, "[a-e ]{0,12}"), 1..40),
            restart in any::<bool>(),
        ) {
            let (seg, net) = apply_ops(&ops);
            assert_matches_oracle(&seg, &net);
            if restart {
                let dir = std::env::temp_dir().join(format!(
                    "er_segmented_prop_{}_{}", std::process::id(), ops.len()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let store = ArtifactStore::open(
                    &dir,
                    vec![Box::new(SparseSegmentCodec), Box::new(SparseManifestCodec)],
                ).expect("open");
                seg.persist(&store, 1).expect("persist");
                let loaded = SegmentedTokenSets::load(&store, 1, "sparse:test")
                    .expect("load").expect("present");
                assert_matches_oracle(&loaded, &net);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
