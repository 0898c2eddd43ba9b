//! The ScanCount algorithm [Li, Lu & Lu, ICDE 2008] (paper §IV-C).
//!
//! ScanCount builds an inverted list over all tokens of the indexed
//! collection; a query merges the posting lists of its tokens, counting how
//! often each indexed entity appears — that count *is* the set overlap
//! `|A∩B|`. Unlike prefix-filter joins it has no similarity-threshold
//! assumptions, which makes it suitable for the low thresholds ER needs.
//!
//! The index stores its postings as plain CSR rows behind a
//! [`TokenInterner`]: token id `t`'s posting list is row `t`, a slice.
//! Queries that arrive pre-interned ([`ScanCountIndex::query_ids_with`])
//! skip the hash lookup entirely. The merge loop itself dispatches to an
//! AVX2 gather kernel at runtime when the `simd` feature is enabled (see
//! [`crate::simd`]); [`merge_list_scalar`] is the always-available,
//! always-tested reference, and every variant is exactly
//! candidate-set-identical because the loop is pure integer arithmetic.
//!
//! **Filter, then order.** A query returns its hits in *first-touch*
//! order — the order the merge loop first met each entity, which is
//! ascending within one posting list and arbitrary across lists. A
//! Zipf-head token touches half the collection, and nearly all of those
//! hits fail the caller's length or threshold filter, so ordering is the
//! caller's job, done over the survivors: [`crate::epsilon`] sorts the
//! ids it kept, [`crate::knn`] selects and then sorts, the top-k heap and
//! the DkNN histograms need no order at all.

use crate::csr::{CsrRows, CsrTokenSets, TokenInterner};
use er_core::parallel::{self, Threads};

/// Per-caller scratch for ScanCount queries: the overlap-count workhorse
/// buffer.
///
/// Splitting the scratch out of the index lets queries run on `&self`, so
/// parallel workers share one read-only index while each owns a scratch
/// (see [`ScanCountIndex::query_batch`]). A default-constructed scratch is
/// lazily sized on first use.
#[derive(Debug, Clone, Default)]
pub struct ScanCountScratch {
    /// Overlap count per indexed entity; zero except while a query runs.
    counts: Vec<u32>,
    /// The ε-Join decision table of the query row in progress: the least
    /// overlap that keeps a hit, by indexed set size
    /// (`SimilarityMeasure::min_overlaps`).
    pub(crate) min_overlap: Vec<u32>,
}

/// The rows of one ScanCount layer that must not answer — in a segment
/// stack, shadowed or tombstoned rows. Holds no words while none is set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RowMask {
    words: Vec<u64>,
}

impl RowMask {
    /// True when row `row` is suppressed.
    #[inline]
    pub(crate) fn contains(&self, row: u32) -> bool {
        self.words
            .get(row as usize / 64)
            .is_some_and(|w| w & (1 << (row % 64)) != 0)
    }

    /// Suppresses row `row` of a layer of `rows` rows.
    pub(crate) fn insert(&mut self, row: u32, rows: usize) {
        if self.words.is_empty() {
            self.words = vec![0; rows.div_ceil(64)];
        }
        self.words[row as usize / 64] |= 1 << (row % 64);
    }

    /// Number of suppressed rows.
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// An inverted index over the token sets of one entity collection (see
/// module docs).
#[derive(Debug, Clone, Default)]
pub struct ScanCountIndex {
    /// Token hash → dense token id; shared with the query side so probes
    /// can be pre-interned once per artifact.
    interner: TokenInterner,
    /// Posting lists, one row per token id: strictly ascending entity
    /// indices.
    postings: CsrRows,
    /// Token-set cardinality `|A|` per indexed entity.
    set_sizes: Vec<u32>,
    /// The largest entry of `set_sizes` (0 when empty); derived, never
    /// persisted.
    max_set_size: usize,
}

impl ScanCountIndex {
    /// Builds the index from per-entity token-id sets (each set must be
    /// duplicate-free; [`crate::RepresentationModel::token_set`] guarantees
    /// that).
    pub fn build(token_sets: &[Vec<u64>]) -> Self {
        Self::build_with_sets(token_sets).0
    }

    /// [`ScanCountIndex::build`] also returning the indexed collection's
    /// token sets re-expressed in the index's interned CSR layout (row
    /// order and per-row token order preserved).
    pub fn build_with_sets(token_sets: &[Vec<u64>]) -> (Self, CsrTokenSets) {
        // Pass 1: intern every token in encounter order while flattening
        // the rows into CSR, counting each token's posting-list length.
        let mut interner = TokenInterner::default();
        let mut row_offsets = Vec::with_capacity(token_sets.len() + 1);
        row_offsets.push(0u32);
        let mut row_tokens = Vec::new();
        let mut set_sizes = Vec::with_capacity(token_sets.len());
        for set in token_sets {
            set_sizes.push(set.len() as u32);
            for &token in set {
                row_tokens.push(interner.intern(token));
            }
            row_offsets.push(row_tokens.len() as u32);
        }

        // Pass 2: prefix-sum the posting counts into CSR offsets and fill
        // the lists by walking the rows in entity order, which leaves each
        // posting list in ascending entity order.
        let tokens = interner.len();
        let mut counts = vec![0u32; tokens];
        for &id in &row_tokens {
            counts[id as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(tokens + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cursor = offsets[..tokens].to_vec();
        let mut postings = vec![0u32; row_tokens.len()];
        for (i, w) in row_offsets.windows(2).enumerate() {
            for &id in &row_tokens[w[0] as usize..w[1] as usize] {
                postings[cursor[id as usize] as usize] = i as u32;
                cursor[id as usize] += 1;
            }
        }

        let index_sets =
            CsrTokenSets::new(CsrRows::new(row_offsets, row_tokens), set_sizes.clone());
        (
            Self::from_parts(interner, CsrRows::new(offsets, postings), set_sizes),
            index_sets,
        )
    }

    /// Re-expresses query-side token sets in the index's interned CSR
    /// layout. Tokens the index never saw are dropped from the rows (they
    /// cannot contribute overlap) while `set_size` keeps the original
    /// cardinality, so similarity formulas stay exact.
    pub fn intern_queries(&self, token_sets: &[Vec<u64>]) -> CsrTokenSets {
        let mut offsets = Vec::with_capacity(token_sets.len() + 1);
        offsets.push(0u32);
        let mut tokens = Vec::new();
        let mut set_sizes = Vec::with_capacity(token_sets.len());
        for set in token_sets {
            set_sizes.push(set.len() as u32);
            tokens.extend(set.iter().filter_map(|&t| self.interner.get(t)));
            offsets.push(tokens.len() as u32);
        }
        CsrTokenSets::new(CsrRows::new(offsets, tokens), set_sizes)
    }

    /// The dense id the index's interner assigned to `token`, if any.
    #[inline]
    pub fn token_id(&self, token: u64) -> Option<u32> {
        self.interner.get(token)
    }

    /// Number of indexed entities.
    pub fn len(&self) -> usize {
        self.set_sizes.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.set_sizes.is_empty()
    }

    /// The token-set cardinality of indexed entity `i`.
    #[inline]
    pub fn set_size(&self, i: u32) -> usize {
        self.set_sizes[i as usize] as usize
    }

    /// The largest token-set cardinality of any indexed entity.
    #[inline]
    pub(crate) fn max_set_size(&self) -> usize {
        self.max_set_size
    }

    /// Heap footprint in bytes for artifact-cache budgeting: the postings
    /// and the `set_sizes` array are exact; only the interner term is an
    /// estimate (see [`TokenInterner::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.postings.heap_bytes() + self.set_sizes.len() * 4 + self.interner.heap_bytes()
    }

    /// The serialized form for the persistent store: the interner's token
    /// hashes in dense-id order, the posting rows and the entity
    /// cardinalities.
    pub(crate) fn raw_parts(&self) -> (Vec<u64>, &CsrRows, &[u32]) {
        (
            self.interner.tokens_by_id(),
            &self.postings,
            &self.set_sizes,
        )
    }

    /// Rebuilds an index from [`Self::raw_parts`] output. The caller (the
    /// store codec) has validated the CSR invariants, the entity-id range
    /// and the ascending order; the interner rebuild reassigns identical
    /// dense ids, so queries against the rebuilt index are byte-identical
    /// to the original's.
    pub(crate) fn from_raw_parts(
        interner_tokens: &[u64],
        postings: CsrRows,
        set_sizes: Vec<u32>,
    ) -> Self {
        Self::from_parts(
            TokenInterner::from_tokens_by_id(interner_tokens),
            postings,
            set_sizes,
        )
    }

    /// Assembles an index and derives `max_set_size`.
    fn from_parts(interner: TokenInterner, postings: CsrRows, set_sizes: Vec<u32>) -> Self {
        let max_set_size = set_sizes.iter().copied().max().unwrap_or(0) as usize;
        Self {
            interner,
            postings,
            set_sizes,
            max_set_size,
        }
    }

    /// Merge-counts the posting lists of `query`'s raw token hashes,
    /// appending `(entity, overlap)` to `out` for every indexed entity
    /// sharing at least one token.
    ///
    /// `query` must be duplicate-free. `out` is cleared first and filled in
    /// first-touch order (see the module docs): a pure function of the
    /// index and the query's token order, so consumers stay deterministic,
    /// but not sorted — a caller that needs an order imposes it on what it
    /// keeps. Reusing the same buffer across queries avoids per-query
    /// allocation. Callers holding pre-interned rows should use
    /// [`ScanCountIndex::query_ids_with`] instead, which skips the
    /// per-token hash lookups.
    pub fn query_with(
        &self,
        scratch: &mut ScanCountScratch,
        query: &[u64],
        out: &mut Vec<(u32, u32)>,
    ) {
        out.clear();
        let counts = Self::sized(&mut scratch.counts, self.set_sizes.len());
        for &token in query {
            if let Some(id) = self.interner.get(token) {
                merge_list(self.postings.row(id as usize), counts, out);
            }
        }
        Self::finish(counts, out);
    }

    /// [`ScanCountIndex::query_with`] for a query row already interned by
    /// this index (see [`ScanCountIndex::intern_queries`]) — the hot path:
    /// no hashing, just posting-slice walks.
    pub fn query_ids_with(
        &self,
        scratch: &mut ScanCountScratch,
        query_ids: &[u32],
        out: &mut Vec<(u32, u32)>,
    ) {
        out.clear();
        let counts = Self::sized(&mut scratch.counts, self.set_sizes.len());
        for &id in query_ids {
            merge_list(self.postings.row(id as usize), counts, out);
        }
        Self::finish(counts, out);
    }

    /// [`ScanCountIndex::query_ids_with`] for row `j` of a query CSR
    /// interned by this index.
    pub fn query_row_with(
        &self,
        scratch: &mut ScanCountScratch,
        queries: &CsrTokenSets,
        j: usize,
        out: &mut Vec<(u32, u32)>,
    ) {
        self.query_ids_with(scratch, queries.row(j), out);
    }

    /// Sizes the count buffer to the index and hands it out.
    #[inline]
    fn sized(counts: &mut Vec<u32>, len: usize) -> &mut Vec<u32> {
        if counts.len() < len {
            counts.resize(len, 0);
        }
        counts
    }

    /// Records the overlap of every touched entity and resets its
    /// counter: one pass, in the order the merge loop appended them.
    #[inline]
    fn finish(counts: &mut [u32], out: &mut [(u32, u32)]) {
        for entry in out.iter_mut() {
            entry.1 = std::mem::take(&mut counts[entry.0 as usize]);
        }
    }

    /// Batch query fan-out over the global [`Threads`] worker count: one
    /// `(entity, overlap)` list per query, each exactly what
    /// [`ScanCountIndex::query_with`] would produce.
    pub fn query_batch(&self, queries: &[Vec<u64>]) -> Vec<Vec<(u32, u32)>> {
        self.query_batch_with(Threads::get(), queries)
    }

    /// [`ScanCountIndex::query_batch`] over an explicit worker count.
    pub fn query_batch_with(&self, threads: usize, queries: &[Vec<u64>]) -> Vec<Vec<(u32, u32)>> {
        let chunk = parallel::query_chunk_len(queries.len());
        let per_chunk = parallel::par_map_chunks_with(threads, queries, chunk, |_, part| {
            let mut scratch = ScanCountScratch::default();
            part.iter()
                .map(|q| {
                    let mut out = Vec::new();
                    self.query_with(&mut scratch, q, &mut out);
                    out
                })
                .collect::<Vec<_>>()
        });
        per_chunk.into_iter().flatten().collect()
    }
}

/// The reference merge step: count a transition to overlap 1 as a new
/// candidate. Safe, branchy, always compiled — the oracle every
/// dispatched variant is tested against. With `simd` on it is only
/// reached from tests, hence the conditional `dead_code` allowance.
#[inline]
#[cfg_attr(feature = "simd", allow(dead_code))]
pub(crate) fn merge_list_scalar(list: &[u32], counts: &mut [u32], out: &mut Vec<(u32, u32)>) {
    for &e in list {
        if counts[e as usize] == 0 {
            out.push((e, 0));
        }
        counts[e as usize] += 1;
    }
}

/// Merge-counts one posting list into `counts`/`out`, dispatching to the
/// widest kernel the host supports. `counts` is a workhorse buffer: only
/// touched entries are ever reset. All variants walk `list` in order and
/// perform identical integer updates, so the candidate set is exactly
/// that of [`merge_list_scalar`].
#[inline]
fn merge_list(list: &[u32], counts: &mut [u32], out: &mut Vec<(u32, u32)>) {
    // SAFETY (simd variants): posting lists hold distinct entity ids
    // `< counts.len()`, by construction in `build_with_sets` and by the
    // store codec's range + strictly-ascending check on every decode.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if crate::simd::avx2() {
            unsafe { crate::simd::merge_list_avx2(list, counts, out) };
            return;
        }
    }
    #[cfg(feature = "simd")]
    {
        unsafe { crate::simd::merge_list_branchless(list, counts, out) }
    }
    #[cfg(not(feature = "simd"))]
    merge_list_scalar(list, counts, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> ScanCountIndex {
        // Entity 0: {1,2,3}; entity 1: {3,4}; entity 2: {5}.
        ScanCountIndex::build(&[vec![1, 2, 3], vec![3, 4], vec![5]])
    }

    fn collect(idx: &ScanCountIndex, q: &[u64]) -> Vec<(u32, u32)> {
        let mut scratch = ScanCountScratch::default();
        let mut out = Vec::new();
        idx.query_with(&mut scratch, q, &mut out);
        out
    }

    #[test]
    fn overlap_counts_are_exact() {
        let idx = index();
        // Query {2,3,4}: entity 0 overlaps {2,3}=2, entity 1 {3,4}=2.
        assert_eq!(collect(&idx, &[2, 3, 4]), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn hits_come_back_in_first_touch_order() {
        // Entity 0: {1}; entity 1: {2}; entity 2: {2,3}; entity 3: {1,3}.
        let idx = ScanCountIndex::build(&[vec![1], vec![2], vec![2, 3], vec![1, 3]]);
        // Token 2 touches entities 1 and 2 before token 1 reaches the
        // lower id 0: the documented order is the merge loop's, not id
        // order, and a later token only appends what it touches first.
        let out = collect(&idx, &[2, 1, 3]);
        assert_eq!(
            out.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
            vec![1, 2, 0, 3]
        );
        let mut by_id = out;
        by_id.sort_unstable();
        assert_eq!(by_id, vec![(0, 1), (1, 1), (2, 2), (3, 2)]);
        // Counters are reset whatever the order was.
        assert_eq!(collect(&idx, &[1]), vec![(0, 1), (3, 1)]);
    }

    #[test]
    fn non_overlapping_entities_not_visited() {
        let idx = index();
        assert_eq!(collect(&idx, &[1]), vec![(0, 1)]);
        assert!(collect(&idx, &[99]).is_empty());
        assert!(collect(&idx, &[]).is_empty());
    }

    #[test]
    fn counts_reset_between_queries() {
        let idx = index();
        let first = collect(&idx, &[3]);
        let second = collect(&idx, &[3]);
        assert_eq!(first, second);
        assert_eq!(first, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn set_sizes_recorded() {
        let idx = index();
        assert_eq!(idx.set_size(0), 3);
        assert_eq!(idx.set_size(2), 1);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn empty_index() {
        let idx = ScanCountIndex::build(&[]);
        assert!(idx.is_empty());
        assert!(collect(&idx, &[1, 2]).is_empty());
    }

    #[test]
    fn build_with_sets_preserves_rows_interned() {
        let sets = vec![vec![10, 20, 30], vec![30, 40], vec![], vec![50]];
        let (idx, csr) = ScanCountIndex::build_with_sets(&sets);
        assert_eq!(csr.len(), 4);
        // First-encounter interning: 10→0, 20→1, 30→2, 40→3, 50→4.
        assert_eq!(csr.row(0), &[0, 1, 2]);
        assert_eq!(csr.row(1), &[2, 3]);
        assert_eq!(csr.row(2), &[] as &[u32]);
        assert_eq!(csr.row(3), &[4]);
        assert_eq!(csr.set_size(0), 3);
        assert_eq!(idx.token_id(30), Some(2));
        assert_eq!(idx.token_id(99), None);
    }

    #[test]
    fn interned_queries_match_raw_queries() {
        let sets: Vec<Vec<u64>> = (0..40u64)
            .map(|i| (0..=(i % 5)).map(|t| (i + 3 * t) % 23).collect())
            .collect();
        let (idx, _) = ScanCountIndex::build_with_sets(&sets);
        // Query rows include unknown tokens (100, 101) that interning drops.
        let queries: Vec<Vec<u64>> = vec![vec![0, 4, 100], vec![101], vec![], vec![1, 2, 3, 7]];
        let csr = idx.intern_queries(&queries);
        assert_eq!(csr.set_size(0), 3, "unknown tokens keep the cardinality");
        assert!(csr.row(1).is_empty(), "all-unknown row is empty");
        let mut scratch = ScanCountScratch::default();
        for (j, q) in queries.iter().enumerate() {
            let mut raw = Vec::new();
            idx.query_with(&mut scratch, q, &mut raw);
            let mut interned = Vec::new();
            idx.query_ids_with(&mut scratch, csr.row(j), &mut interned);
            assert_eq!(raw, interned, "query {j} (ids)");
            let mut by_row = Vec::new();
            idx.query_row_with(&mut scratch, &csr, j, &mut by_row);
            assert_eq!(raw, by_row, "query {j} (row)");
        }
    }

    #[test]
    fn merge_variants_match_scalar_reference() {
        // Dense-overlap lists (every entity shared) plus sparse tails that
        // exercise the 8-wide kernel's remainder handling.
        let sets: Vec<Vec<u64>> = (0..83u64)
            .map(|i| (0..=(i % 9)).map(|t| (i + t) % 13).collect())
            .collect();
        let idx = ScanCountIndex::build(&sets);
        let mut counts = vec![0u32; idx.len()];
        for t in 0..idx.postings.len() {
            let list = idx.postings.row(t);
            let mut reference = Vec::new();
            merge_list_scalar(list, &mut counts, &mut reference);
            for &(e, _) in &reference {
                counts[e as usize] = 0;
            }
            let mut dispatched = Vec::new();
            merge_list(list, &mut counts, &mut dispatched);
            for &(e, _) in &dispatched {
                counts[e as usize] = 0;
            }
            assert_eq!(reference, dispatched, "token {t}");
        }
    }

    #[test]
    fn batch_matches_serial_for_any_thread_count() {
        // ~60 sets with heavy token reuse, plus empty and no-hit queries.
        let sets: Vec<Vec<u64>> = (0..60u64)
            .map(|i| (0..=(i % 7)).map(|t| (i + t) % 19).collect())
            .collect();
        let idx = ScanCountIndex::build(&sets);
        let mut queries = sets[..25].to_vec();
        queries.push(Vec::new());
        queries.push(vec![999]);
        let serial: Vec<Vec<(u32, u32)>> = queries.iter().map(|q| collect(&idx, q)).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                idx.query_batch_with(threads, &queries),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn default_scratch_resizes_lazily() {
        let idx = index();
        let mut scratch = ScanCountScratch::default();
        let mut out = Vec::new();
        idx.query_with(&mut scratch, &[2, 3, 4], &mut out);
        assert_eq!(out, vec![(0, 2), (1, 2)]);
        // Reuse: counts must have been reset.
        idx.query_with(&mut scratch, &[2, 3, 4], &mut out);
        assert_eq!(out, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn overlap_never_exceeds_set_sizes() {
        let sets: Vec<Vec<u64>> = vec![vec![1, 2, 3, 4], vec![2, 4, 6], vec![7]];
        let idx = ScanCountIndex::build(&sets);
        let q = vec![1, 2, 4, 6, 8];
        let out = collect(&idx, &q);
        for &(e, o) in &out {
            assert!(o as usize <= sets[e as usize].len());
            assert!(o as usize <= q.len());
        }
    }

    #[test]
    fn postings_pack_below_plain_csr() {
        let sets: Vec<Vec<u64>> = (0..500u64)
            .map(|i| (0..=(i % 6)).map(|t| (i + t) % 37).collect())
            .collect();
        let idx = ScanCountIndex::build(&sets);
        let (offsets, postings) = idx.postings.parts();
        let packed = crate::packed::PackedRows::from_rows(offsets, postings);
        assert!(
            packed.heap_bytes() < idx.postings.heap_bytes(),
            "{} vs {}",
            packed.heap_bytes(),
            idx.postings.heap_bytes()
        );
    }
}
