//! Contiguous (CSR) token-set layouts behind a token interner.
//!
//! The sparse hot paths used to carry token sets as `Vec<Vec<u64>>` and
//! postings as `FastMap<u64, Vec<u32>>` — one heap allocation per entity
//! (or token) and a hash probe per posting-list lookup. This module
//! replaces both with flat arrays:
//!
//! * [`TokenInterner`] maps each distinct 64-bit token hash to a dense
//!   `u32` id in first-encounter order. Tokenization output order is
//!   deterministic, so the id assignment is too.
//! * [`CsrTokenSets`] stores all token-id rows back to back as plain CSR
//!   (`CsrRows`: `u32` offsets + flat `u32` values), so a row is a
//!   slice — no decode step, no scratch buffer. The posting lists of
//!   [`crate::scancount::ScanCountIndex`] use the same layout. Bitpacking
//!   ([`crate::packed`]) is the on-disk encoding only.
//!
//! CSR invariants (upheld by the builders in [`crate::scancount`], relied
//! upon by every query path): row boundaries start at 0 and are
//! non-decreasing; each row holds the interned ids of a duplicate-free
//! token set in tokenization order (interned ids are assigned globally by
//! first encounter, so a row is *not* necessarily ascending).

use er_core::hash::FastMap;

/// Interns 64-bit token hashes to dense `u32` ids (first encounter wins).
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    ids: FastMap<u64, u32>,
}

impl TokenInterner {
    /// The dense id of `token`, allocating the next id on first sight.
    #[inline]
    pub fn intern(&mut self, token: u64) -> u32 {
        let next = self.ids.len() as u32;
        *self.ids.entry(token).or_insert(next)
    }

    /// The dense id of `token`, or `None` if it was never interned.
    #[inline]
    pub fn get(&self, token: u64) -> Option<u32> {
        self.ids.get(&token).copied()
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Heap footprint estimate: 12 payload bytes per entry plus hash-table
    /// slack (the map keeps its load factor below ~⅞, estimated here as
    /// 8/7 of the payload). This is the only non-exact term in the CSR
    /// artifact byte accounting.
    pub fn heap_bytes(&self) -> usize {
        self.ids.len() * (8 + 4) * 8 / 7
    }

    /// The interned token hashes laid out by dense id (hash of id `i` at
    /// position `i`) — the interner's serialized form for the persistent
    /// store.
    pub(crate) fn tokens_by_id(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.ids.len()];
        for (&token, &id) in &self.ids {
            out[id as usize] = token;
        }
        out
    }

    /// Rebuilds an interner from [`Self::tokens_by_id`] output. In-order
    /// re-insertion reassigns the identical ids, and `heap_bytes` depends
    /// only on the entry count, so the rebuilt interner is byte-equivalent.
    pub(crate) fn from_tokens_by_id(tokens: &[u64]) -> Self {
        let mut interner = Self::default();
        for &token in tokens {
            interner.intern(token);
        }
        interner
    }
}

/// Plain CSR rows: row `i` is `values[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CsrRows {
    offsets: Vec<u32>,
    values: Vec<u32>,
}

impl Default for CsrRows {
    fn default() -> Self {
        Self::new(vec![0], Vec::new())
    }
}

impl CsrRows {
    /// Wraps CSR parts; `debug_assert`s the boundary invariants (the
    /// store codec has checked them on anything read from disk).
    pub(crate) fn new(offsets: Vec<u32>, values: Vec<u32>) -> Self {
        debug_assert_eq!(offsets.first().copied(), Some(0));
        debug_assert_eq!(offsets.last().copied(), Some(values.len() as u32));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self { offsets, values }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Exact heap payload in bytes: two `u32` arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.offsets.len() + self.values.len()) * 4
    }

    /// `(offsets, values)`, for the persistent store's serializer.
    pub(crate) fn parts(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.values)
    }
}

/// Token-id sets of one entity collection (see module docs).
#[derive(Debug, Clone, Default)]
pub struct CsrTokenSets {
    /// Rows of interned token ids.
    rows: CsrRows,
    /// Original token-set cardinality per row. Query-side rows drop
    /// tokens unknown to the index (they cannot match anything), so a
    /// row may be shorter than `set_size(i)`; similarity formulas must
    /// use the true cardinality recorded here.
    set_sizes: Vec<u32>,
}

impl CsrTokenSets {
    /// Wraps CSR rows and their cardinalities (one per row).
    pub(crate) fn new(rows: CsrRows, set_sizes: Vec<u32>) -> Self {
        debug_assert_eq!(rows.len(), set_sizes.len());
        Self { rows, set_sizes }
    }

    /// Number of rows (entities).
    pub fn len(&self) -> usize {
        self.set_sizes.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.set_sizes.is_empty()
    }

    /// Row `i`'s interned token ids.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        self.rows.row(i)
    }

    /// The original token-set cardinality of row `i` (see field docs).
    #[inline]
    pub fn set_size(&self, i: usize) -> usize {
        self.set_sizes[i] as usize
    }

    /// All row cardinalities; doubles as the slice the parallel layer
    /// chunks over (one element per row, so chunk boundaries line up with
    /// row indices).
    pub fn set_sizes(&self) -> &[u32] {
        &self.set_sizes
    }

    /// Exact heap payload in bytes: the CSR rows plus one `u32` array.
    pub fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes() + self.set_sizes.len() * 4
    }

    /// The row storage, for the persistent store's serializer.
    pub(crate) fn rows(&self) -> &CsrRows {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_assigns_first_encounter_order() {
        let mut it = TokenInterner::default();
        assert_eq!(it.intern(42), 0);
        assert_eq!(it.intern(7), 1);
        assert_eq!(it.intern(42), 0, "repeat keeps its id");
        assert_eq!(it.get(7), Some(1));
        assert_eq!(it.get(999), None);
        assert_eq!(it.len(), 2);
        assert!(!it.is_empty());
        assert!(it.heap_bytes() >= 2 * 12);
    }

    #[test]
    fn csr_rows_round_trip() {
        let rows = CsrRows::new(vec![0, 2, 2, 5], vec![3, 9, 1, 4, 8]);
        let sets = CsrTokenSets::new(rows, vec![2, 0, 3]);
        assert_eq!(sets.len(), 3);
        assert_eq!(sets.row(0), &[3, 9]);
        assert_eq!(sets.row(1), &[] as &[u32]);
        assert_eq!(sets.row(2), &[1, 4, 8]);
        assert_eq!(sets.set_size(2), 3);
        assert_eq!(sets.set_sizes(), &[2, 0, 3]);
        assert_eq!(sets.heap_bytes(), (4 + 5 + 3) * 4);
    }

    #[test]
    fn packed_heap_beats_plain_csr_on_real_shapes() {
        // 200 rows of small ascending id runs — the common token-set shape.
        let mut offsets = vec![0u32];
        let mut tokens = Vec::new();
        for i in 0..200u32 {
            for t in 0..(i % 9) {
                tokens.push((i + t * 3) % 1500);
            }
            offsets.push(tokens.len() as u32);
        }
        let packed = crate::packed::PackedRows::from_rows(&offsets, &tokens);
        let plain = CsrRows::new(offsets, tokens).heap_bytes();
        assert!(
            packed.heap_bytes() < plain,
            "{} vs plain {plain}",
            packed.heap_bytes()
        );
    }

    #[test]
    fn empty_csr() {
        let sets = CsrTokenSets::default();
        assert!(sets.is_empty());
        assert_eq!(sets.len(), 0);
        assert_eq!(sets.heap_bytes(), 4, "one offsets entry");
    }
}
