//! Persistent-store codecs for the sparse artifacts.
//!
//! Three codecs share this module. [`SparsePackedCodec`] (id 8) is the
//! monolithic writer: it bitpacks [`TokenSetsArtifact`]'s CSR rows
//! ([`crate::packed`]) at encode time — store files are a fraction of the
//! resident size — plus the token interner as its hashes in dense-id
//! order (rebuilding by in-order insertion reassigns identical ids).
//! Decode unpacks once into the plain in-memory layout, so packing is an
//! on-disk encoding and nothing else. Id 1 (the plain-CSR layout from
//! before id 8) is retired and stays reserved.
//!
//! The segmented incremental index ([`crate::segmented`]) adds two more.
//! [`SparseSegmentCodec`] (id 10) stores one immutable
//! [`SparseSegment`]: its sequence number, its stable-id column, and
//! exactly the packed artifact layout of id 8 (the shared
//! [`encode_token_sets_artifact`]/[`decode_token_sets_artifact`] pair).
//! [`SparseManifestCodec`] (id 11) stores the [`SparseManifest`] — the
//! segment stack's seqs plus the mutable state (delta rows, tombstones,
//! raw query sets) — and reports the segment repr keys it references so
//! `er store gc` can detect orphans and `er store inspect` can render
//! segment trees.
//!
//! Decode re-validates every invariant the query paths index by — a file
//! that passes its checksums but violates them (only possible under a
//! checksum collision) is a structured error, never a later out-of-bounds
//! access. The decoded artifact reports byte-identical `heap_bytes` to a
//! freshly built one: the CSR terms are exact array sizes and the
//! interner term depends only on its entry count.

use crate::artifact::TokenSetsArtifact;
use crate::csr::{CsrRows, CsrTokenSets};
use crate::packed::PackedRows;
use crate::scancount::ScanCountIndex;
use crate::segmented::{SparseManifest, SparseSegment};
use er_store::{ArtifactCodec, SectionRatio, Sections, StoreError, StoreFile};
use std::any::Any;
use std::sync::Arc;

/// Codec id of the bitpacked sparse layout (the writer).
pub const SPARSE_PACKED_CODEC_ID: u32 = 8;

/// Codec id of one immutable segment of a segmented sparse index.
pub const SPARSE_SEGMENT_CODEC_ID: u32 = 10;

/// Codec id of the segmented sparse index's manifest.
pub const SPARSE_MANIFEST_CODEC_ID: u32 = 11;

/// (De)serializes [`TokenSetsArtifact`] in the bitpacked layout.
pub struct SparsePackedCodec;

/// (De)serializes one [`SparseSegment`] (seq + stable ids + artifact).
pub struct SparseSegmentCodec;

/// (De)serializes the [`SparseManifest`] of a segmented sparse index.
pub struct SparseManifestCodec;

/// Checks the CSR invariants of an `(offsets, values)` pair: `offsets`
/// starts at 0, is non-decreasing, and ends at `values_len`.
fn check_offsets(what: &str, offsets: &[u32], values_len: usize) -> er_store::Result<()> {
    let ok = offsets.first() == Some(&0)
        && offsets.last().copied() == Some(values_len as u32)
        && offsets.windows(2).all(|w| w[0] <= w[1]);
    if ok {
        Ok(())
    } else {
        Err(StoreError::Malformed(format!("{what}: broken CSR offsets")))
    }
}

/// Bitpacks `rows` and serializes them as four consecutive sections.
fn push_packed(s: &mut Sections, rows: &CsrRows) {
    let (offsets, values) = rows.parts();
    let packed = PackedRows::from_rows(offsets, values);
    let (offsets, widths, block_bits, bits) = packed.raw_parts();
    s.u32s(offsets);
    s.bytes(widths);
    s.u64s(block_bits);
    s.u64s(bits);
}

/// Reads one [`PackedRows`], re-checking the structural invariants the
/// branchless unpacker indexes by. Callers range-check the values
/// ([`PackedRows::validate`]) before unpacking them into a [`CsrRows`].
fn read_packed(what: &str, cur: &mut er_store::SectionCursor<'_>) -> er_store::Result<PackedRows> {
    let offsets = cur.u32s()?.to_vec();
    let widths = cur.bytes()?.to_vec();
    let block_bits = cur.u64s()?.to_vec();
    let bits = cur.u64s()?.to_vec();
    if offsets.is_empty() {
        return Err(StoreError::Malformed(format!("{what}: empty offsets")));
    }
    PackedRows::from_raw(offsets, widths, block_bits, bits)
        .map_err(|e| StoreError::Malformed(format!("{what}: {e}")))
}

/// Unpacks validated rows into the resident plain layout.
fn unpack(rows: &PackedRows) -> CsrRows {
    let (offsets, values) = rows.decode_all();
    CsrRows::new(offsets, values)
}

/// Reads one packed `CsrTokenSets`, range-checking the decoded token ids.
fn decode_sets_packed(
    what: &str,
    cur: &mut er_store::SectionCursor<'_>,
    token_bound: usize,
) -> er_store::Result<CsrTokenSets> {
    let rows = read_packed(what, cur)?;
    let set_sizes = cur.u32s()?.to_vec();
    if rows.len() != set_sizes.len() {
        return Err(StoreError::Malformed(format!(
            "{what}: offsets/rows mismatch"
        )));
    }
    rows.validate(token_bound as u32, false)
        .map_err(|e| StoreError::Malformed(format!("{what}: {e}")))?;
    Ok(CsrTokenSets::new(unpack(&rows), set_sizes))
}

/// Appends the bitpacked-artifact sections (the id-8 layout) to `s`:
/// interner hashes, packed postings + cardinalities, then both token-set
/// CSRs. Shared by the monolithic and the per-segment codec.
fn encode_token_sets_artifact(s: &mut Sections, art: &TokenSetsArtifact) {
    let (interner_tokens, postings, set_sizes) = art.index.raw_parts();
    s.u64s(&interner_tokens);
    push_packed(s, postings);
    s.u32s(set_sizes);
    for sets in [&art.index_sets, &art.query_sets] {
        push_packed(s, sets.rows());
        s.u32s(sets.set_sizes());
    }
}

/// Reads and re-validates one bitpacked artifact (the inverse of
/// [`encode_token_sets_artifact`]), returning it with its exact
/// `heap_bytes`.
fn decode_token_sets_artifact(
    cur: &mut er_store::SectionCursor<'_>,
) -> er_store::Result<(TokenSetsArtifact, usize)> {
    let interner_tokens = cur.u64s()?.to_vec();
    let postings = read_packed("scancount postings", cur)?;
    let set_sizes = cur.u32s()?.to_vec();
    if postings.len() != interner_tokens.len() {
        return Err(StoreError::Malformed(
            "scancount: postings/interner mismatch".to_owned(),
        ));
    }
    // Ascending entity ids per list: the invariant the SIMD merge
    // kernels rely on for distinctness and in-bounds counter access.
    postings
        .validate(set_sizes.len() as u32, true)
        .map_err(|e| StoreError::Malformed(format!("scancount postings: {e}")))?;
    let token_bound = interner_tokens.len();
    let index = ScanCountIndex::from_raw_parts(&interner_tokens, unpack(&postings), set_sizes);
    let index_sets = decode_sets_packed("index_sets", cur, token_bound)?;
    let query_sets = decode_sets_packed("query_sets", cur, token_bound)?;
    if index_sets.len() != index.len() {
        return Err(StoreError::Malformed(
            "index_sets rows != indexed entities".to_owned(),
        ));
    }
    let heap_bytes = index_sets.heap_bytes() + query_sets.heap_bytes() + index.heap_bytes();
    Ok((
        TokenSetsArtifact {
            index_sets,
            query_sets,
            index,
        },
        heap_bytes,
    ))
}

/// Per-structure encoded (packed, on disk) vs decoded (plain CSR, in
/// memory) byte sizes of one artifact, for `er store inspect`'s
/// compression report.
/// `cur` must stand at the artifact's interner section.
fn artifact_section_ratios(
    cur: &mut er_store::SectionCursor<'_>,
) -> er_store::Result<Vec<SectionRatio>> {
    let _interner = cur.u64s()?;
    let mut out = Vec::new();
    for label in ["postings", "index_sets", "query_sets"] {
        let rows = read_packed(label, cur)?;
        out.push(SectionRatio {
            label: label.to_owned(),
            encoded_bytes: rows.heap_bytes() as u64,
            decoded_bytes: rows.plain_bytes() as u64,
        });
        let _set_sizes = cur.u32s()?;
    }
    Ok(out)
}

impl ArtifactCodec for SparsePackedCodec {
    fn id(&self) -> u32 {
        SPARSE_PACKED_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "sparse-packed"
    }

    fn encode(&self, artifact: &(dyn Any + Send + Sync)) -> Option<Sections> {
        let art = artifact.downcast_ref::<TokenSetsArtifact>()?;
        let mut s = Sections::new();
        encode_token_sets_artifact(&mut s, art);
        Some(s)
    }

    fn decode(&self, file: &StoreFile) -> er_store::Result<(Arc<dyn Any + Send + Sync>, usize)> {
        let mut cur = file.cursor()?;
        let (art, heap_bytes) = decode_token_sets_artifact(&mut cur)?;
        cur.finish()?;
        Ok((Arc::new(art), heap_bytes))
    }

    fn section_ratios(&self, file: &StoreFile) -> er_store::Result<Vec<SectionRatio>> {
        let mut cur = file.cursor()?;
        artifact_section_ratios(&mut cur)
    }
}

impl ArtifactCodec for SparseSegmentCodec {
    fn id(&self) -> u32 {
        SPARSE_SEGMENT_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "sparse-segment"
    }

    /// Segment files are only meaningful through a manifest: `er store gc`
    /// collects any it finds unreferenced.
    fn is_segment(&self) -> bool {
        true
    }

    fn encode(&self, artifact: &(dyn Any + Send + Sync)) -> Option<Sections> {
        let seg = artifact.downcast_ref::<SparseSegment>()?;
        let mut s = Sections::new();
        s.scalar(seg.seq);
        s.u32s(&seg.ids);
        encode_token_sets_artifact(&mut s, &seg.art);
        Some(s)
    }

    fn decode(&self, file: &StoreFile) -> er_store::Result<(Arc<dyn Any + Send + Sync>, usize)> {
        let mut cur = file.cursor()?;
        let seq = cur.scalar()?;
        let ids = cur.u32s()?.to_vec();
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(StoreError::Malformed(
                "segment: stable ids not strictly ascending".to_owned(),
            ));
        }
        let (art, art_heap) = decode_token_sets_artifact(&mut cur)?;
        cur.finish()?;
        if ids.len() != art.index.len() {
            return Err(StoreError::Malformed(
                "segment: stable ids != indexed rows".to_owned(),
            ));
        }
        let heap_bytes = art_heap + ids.len() * 4;
        Ok((Arc::new(SparseSegment { seq, ids, art }), heap_bytes))
    }

    fn section_ratios(&self, file: &StoreFile) -> er_store::Result<Vec<SectionRatio>> {
        let mut cur = file.cursor()?;
        let _ids = cur.u32s()?;
        artifact_section_ratios(&mut cur)
    }
}

/// Checks a `u32` array is strictly ascending.
fn check_ascending(what: &str, ids: &[u32]) -> er_store::Result<()> {
    if ids.windows(2).all(|w| w[0] < w[1]) {
        Ok(())
    } else {
        Err(StoreError::Malformed(format!(
            "{what}: not strictly ascending"
        )))
    }
}

impl ArtifactCodec for SparseManifestCodec {
    fn id(&self) -> u32 {
        SPARSE_MANIFEST_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "sparse-manifest"
    }

    fn encode(&self, artifact: &(dyn Any + Send + Sync)) -> Option<Sections> {
        let m = artifact.downcast_ref::<SparseManifest>()?;
        let mut s = Sections::new();
        s.scalar(m.next_seq);
        s.bytes(m.base_repr.as_bytes());
        s.u64s(&m.segment_seqs);
        s.u32s(&m.tombstones);
        let mut delta_ids = Vec::with_capacity(m.delta.len());
        let mut delta_offsets = vec![0u32];
        let mut delta_tokens = Vec::new();
        for (id, set) in &m.delta {
            delta_ids.push(*id);
            delta_tokens.extend_from_slice(set);
            delta_offsets.push(delta_tokens.len() as u32);
        }
        s.u32s(&delta_ids);
        s.u32s(&delta_offsets);
        s.u64s(&delta_tokens);
        let mut query_offsets = vec![0u32];
        let mut query_tokens = Vec::new();
        for set in &m.query_raw {
            query_tokens.extend_from_slice(set);
            query_offsets.push(query_tokens.len() as u32);
        }
        s.u32s(&query_offsets);
        s.u64s(&query_tokens);
        Some(s)
    }

    fn decode(&self, file: &StoreFile) -> er_store::Result<(Arc<dyn Any + Send + Sync>, usize)> {
        let mut cur = file.cursor()?;
        let next_seq = cur.scalar()?;
        let base_repr = std::str::from_utf8(cur.bytes()?)
            .map_err(|_| StoreError::Malformed("manifest: base repr not UTF-8".to_owned()))?
            .to_owned();
        let segment_seqs = cur.u64s()?.to_vec();
        if segment_seqs.iter().any(|&s| s >= next_seq) {
            return Err(StoreError::Malformed(
                "manifest: segment seq >= next_seq".to_owned(),
            ));
        }
        let distinct: std::collections::BTreeSet<u64> = segment_seqs.iter().copied().collect();
        if distinct.len() != segment_seqs.len() {
            return Err(StoreError::Malformed(
                "manifest: duplicate segment seq".to_owned(),
            ));
        }
        let tombstones = cur.u32s()?.to_vec();
        check_ascending("manifest tombstones", &tombstones)?;
        let delta_ids = cur.u32s()?.to_vec();
        check_ascending("manifest delta ids", &delta_ids)?;
        let delta_offsets = cur.u32s()?.to_vec();
        let delta_tokens = cur.u64s()?.to_vec();
        if delta_offsets.len() != delta_ids.len() + 1 {
            return Err(StoreError::Malformed(
                "manifest: delta offsets/ids mismatch".to_owned(),
            ));
        }
        check_offsets("manifest delta", &delta_offsets, delta_tokens.len())?;
        if delta_ids
            .iter()
            .any(|id| tombstones.binary_search(id).is_ok())
        {
            return Err(StoreError::Malformed(
                "manifest: delta id also tombstoned".to_owned(),
            ));
        }
        let query_offsets = cur.u32s()?.to_vec();
        let query_tokens = cur.u64s()?.to_vec();
        if query_offsets.is_empty() {
            return Err(StoreError::Malformed(
                "manifest: empty query offsets".to_owned(),
            ));
        }
        check_offsets("manifest queries", &query_offsets, query_tokens.len())?;
        cur.finish()?;
        let delta = delta_ids
            .iter()
            .zip(delta_offsets.windows(2))
            .map(|(&id, w)| (id, delta_tokens[w[0] as usize..w[1] as usize].to_vec()))
            .collect();
        let query_raw = query_offsets
            .windows(2)
            .map(|w| query_tokens[w[0] as usize..w[1] as usize].to_vec())
            .collect();
        let manifest = SparseManifest {
            next_seq,
            base_repr,
            segment_seqs,
            tombstones,
            delta,
            query_raw,
        };
        let heap_bytes = manifest.heap_bytes();
        Ok((Arc::new(manifest), heap_bytes))
    }

    /// The segment files this manifest pins; everything else under the
    /// same dataset wearing `is_segment` is an orphan. Only the first
    /// three sections are decoded — gc stays cheap on large manifests.
    fn referenced_reprs(&self, file: &StoreFile) -> er_store::Result<Vec<String>> {
        let mut cur = file.cursor()?;
        let _next_seq = cur.scalar()?;
        let base_repr = std::str::from_utf8(cur.bytes()?)
            .map_err(|_| StoreError::Malformed("manifest: base repr not UTF-8".to_owned()))?
            .to_owned();
        let segment_seqs = cur.u64s()?;
        Ok(segment_seqs
            .iter()
            .map(|&seq| crate::segmented::segment_repr(&base_repr, seq))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representation::RepresentationModel;
    use crate::scancount::ScanCountScratch;
    use er_core::artifacts::{ArtifactKey, DiskTier, TierLoad};
    use er_core::schema::TextView;
    use er_store::ArtifactStore;

    fn store_in(name: &str) -> (ArtifactStore, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("er_sparse_store_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir, vec![Box::new(SparsePackedCodec)]).expect("open");
        (store, dir)
    }

    fn view() -> TextView {
        TextView::new(
            (0..12)
                .map(|i| format!("record number {} alpha beta {}", i, i % 3))
                .collect::<Vec<_>>(),
            (0..7)
                .map(|i| format!("record {} beta", i * 2))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn roundtrip_preserves_queries_and_heap_bytes() {
        let (store, dir) = store_in("roundtrip");
        let model = RepresentationModel::parse("T1G").expect("T1G");
        let fresh = TokenSetsArtifact::prepare(&view(), true, model, false);
        let key = ArtifactKey::new(11, TokenSetsArtifact::repr_key(true, model, false));
        assert!(store.store(&key, &fresh).expect("store"));
        let TierLoad::Hit { prepared, saved } = store.load(&key) else {
            panic!("expected hit");
        };
        // heap_bytes parity: the store-loaded artifact budgets identically.
        assert_eq!(prepared.bytes(), fresh.bytes());
        assert_eq!(saved, fresh.breakdown().prepare_total());
        let a = fresh.downcast::<TokenSetsArtifact>();
        let b = prepared.downcast::<TokenSetsArtifact>();
        assert_eq!(a.index_sets.rows(), b.index_sets.rows());
        assert_eq!(a.query_sets.rows(), b.query_sets.rows());
        assert_eq!(a.index.raw_parts(), b.index.raw_parts());
        // Query equivalence through the rebuilt interner.
        let mut scratch = ScanCountScratch::default();
        for q in 0..a.query_sets.len() {
            let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
            a.index
                .query_row_with(&mut scratch, &a.query_sets, q, &mut out_a);
            b.index
                .query_row_with(&mut scratch, &b.query_sets, q, &mut out_b);
            assert_eq!(out_a, out_b, "query {q}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An index past 2²⁰ posting elements — larger than any benchmark
    /// workload or other test builds: 70 000 rows × 16 tokens over a
    /// 4 096-token vocabulary. Both joins must equal the frozen naive
    /// reference, and the store round-trip must re-encode to the same
    /// bytes and answer the same.
    #[test]
    fn index_past_a_million_postings_matches_reference_and_roundtrips() {
        use crate::{reference, EpsilonJoin, KnnJoin, SimilarityMeasure};
        use er_core::filter::Filter;
        let row = |i: u64| -> String {
            let base = er_core::hash::mix64(i) % 4096;
            (0..16u64)
                .map(|t| format!("w{}", (base + t * 257) % 4096))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let view = TextView::new(
            (0..70_000).map(row).collect::<Vec<_>>(),
            (0..40).map(|j| row(j * 1_753 + 5)).collect::<Vec<_>>(),
        );
        let model = RepresentationModel::parse("T1G").expect("T1G");
        let fresh = TokenSetsArtifact::prepare(&view, false, model, false);
        let (_, postings, _) = fresh.downcast::<TokenSetsArtifact>().index.raw_parts();
        assert!(postings.parts().1.len() > 1 << 20);

        let measure = SimilarityMeasure::Jaccard;
        let eps = EpsilonJoin {
            cleaning: false,
            model,
            measure,
            threshold: 0.2,
        };
        let knn = KnnJoin {
            cleaning: false,
            model,
            measure,
            k: 3,
            reversed: false,
        };
        let eps_fresh = eps.query(&view, &fresh).candidates.to_sorted_vec();
        let knn_fresh = knn.query(&view, &fresh).candidates.to_sorted_vec();
        assert!(!eps_fresh.is_empty() && !knn_fresh.is_empty());
        assert_eq!(
            eps_fresh,
            reference::naive_epsilon(&view, false, model, measure, 0.2)
        );
        assert_eq!(
            knn_fresh,
            reference::naive_knn(&view, false, model, measure, 3, false)
        );

        let (store, dir) = store_in("large");
        let key = ArtifactKey::new(3, eps.repr_key());
        assert!(store.store(&key, &fresh).expect("store"));
        let TierLoad::Hit { prepared, .. } = store.load(&key) else {
            panic!("expected hit");
        };
        assert_eq!(prepared.bytes(), fresh.bytes());
        assert!(
            SparsePackedCodec.encode(prepared.any()) == SparsePackedCodec.encode(fresh.any()),
            "re-encoding the loaded artifact changed the bytes"
        );
        assert_eq!(
            eps.query(&view, &prepared).candidates.to_sorted_vec(),
            eps_fresh
        );
        assert_eq!(
            knn.query(&view, &prepared).candidates.to_sorted_vec(),
            knn_fresh
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn new_files_use_the_packed_codec() {
        let (store, dir) = store_in("packed_id");
        let model = RepresentationModel::parse("C3G").expect("C3G");
        let fresh = TokenSetsArtifact::prepare(&view(), true, model, false);
        let key = ArtifactKey::new(5, TokenSetsArtifact::repr_key(true, model, false));
        assert!(store.store(&key, &fresh).expect("store"));
        let infos = store.inspect().expect("inspect");
        assert_eq!(infos.len(), 1);
        let info = infos[0].1.as_ref().expect("readable file");
        assert_eq!(info.codec_id, SPARSE_PACKED_CODEC_ID);
        assert_eq!(info.codec_name, Some("sparse-packed"));
        // The compression report covers the three packed structures.
        let ratios = &info.section_ratios;
        assert_eq!(ratios.len(), 3);
        assert!(ratios.iter().all(|r| r.encoded_bytes > 0));
        assert!(ratios.iter().any(|r| r.encoded_bytes < r.decoded_bytes));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_view_roundtrips() {
        let (store, dir) = store_in("empty");
        let model = RepresentationModel::parse("T1G").expect("T1G");
        let fresh = TokenSetsArtifact::prepare(&TextView::new(vec![], vec![]), false, model, false);
        let key = ArtifactKey::new(1, "sparse:empty");
        assert!(store.store(&key, &fresh).expect("store"));
        let TierLoad::Hit { prepared, .. } = store.load(&key) else {
            panic!("expected hit");
        };
        assert_eq!(prepared.bytes(), fresh.bytes());
        assert!(prepared.downcast::<TokenSetsArtifact>().index.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrelated_artifacts_are_not_encoded() {
        assert!(SparsePackedCodec
            .encode(&("not a sparse artifact".to_owned()))
            .is_none());
    }
}
