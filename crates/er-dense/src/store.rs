//! Persistent-store codecs for the dense artifacts.
//!
//! The codecs cover every dense prepare-stage artifact: the shared
//! embed+flat-index artifact (FAISS-Flat, range and DeepBlocker runs),
//! MinHash signatures+buckets, the two LSH families (hyperplanes and
//! cross-polytope rotations plus their hash tables) and the SCANN-style
//! partitioned index with its optional product quantizer.
//!
//! Flat-index files are written by [`DenseFlatQCodec`] (id 9). Id 3 (the
//! same sections under an older header contract) is retired and stays
//! reserved.
//!
//! Common building blocks: [`FlatVectors`] serializes as `(rows, dim)`
//! scalars plus one `f32` section; ragged `Vec<Vec<f32>>` collections as
//! CSR (`u32` offsets + flat `f32`s); bucket maps as per-table sorted-key
//! arrays with CSR value lists, which also makes the encoded bytes
//! deterministic regardless of hash-map iteration order. Decode
//! re-validates every invariant the query paths rely on (CSR shape,
//! member bounds, dimension agreement, PQ geometry) so a file that beats
//! the checksums still cannot cause an out-of-bounds panic later, and
//! recomputes `heap_bytes` with the same formulas the prepare paths use —
//! all of which depend only on array sizes, so cache budgeting is
//! byte-identical either way.

use crate::artifact::{vecs_bytes, DenseIndexArtifact};
use crate::crosspolytope::{CrossPolytopeArtifact, Rotation, Table as CpTable};
use crate::flat::{FlatIndex, Metric};
use crate::hyperplane::{HyperplaneArtifact, Table as HpTable};
use crate::minhash::MinHashArtifact;
use crate::partitioned::{PartitionedArtifact, PartitionedIndex, Scoring};
use crate::pq::ProductQuantizer;
use crate::vector::FlatVectors;
use er_core::hash::FastMap;
use er_store::{ArtifactCodec, SectionCursor, Sections, StoreError, StoreFile};
use std::any::Any;
use std::hash::Hash;
use std::sync::Arc;

/// Codec id stamped into embed+flat-index artifact files.
pub const DENSE_FLAT_Q_CODEC_ID: u32 = 9;
/// Codec id stamped into MinHash artifact files.
pub const MINHASH_CODEC_ID: u32 = 4;
/// Codec id stamped into Hyperplane-LSH artifact files.
pub const HYPERPLANE_CODEC_ID: u32 = 5;
/// Codec id stamped into Cross-Polytope-LSH artifact files.
pub const CROSSPOLYTOPE_CODEC_ID: u32 = 6;
/// Codec id stamped into partitioned-index artifact files.
pub const PARTITIONED_CODEC_ID: u32 = 7;

fn malformed(msg: impl Into<String>) -> StoreError {
    StoreError::Malformed(msg.into())
}

fn metric_code(m: Metric) -> u64 {
    match m {
        Metric::Dot => 0,
        Metric::L2Sq => 1,
    }
}

fn metric_from(code: u64) -> er_store::Result<Metric> {
    match code {
        0 => Ok(Metric::Dot),
        1 => Ok(Metric::L2Sq),
        other => Err(malformed(format!("unknown metric code {other}"))),
    }
}

fn scoring_code(s: Scoring) -> u64 {
    match s {
        Scoring::BruteForce => 0,
        Scoring::AsymmetricHashing => 1,
    }
}

fn scoring_from(code: u64) -> er_store::Result<Scoring> {
    match code {
        0 => Ok(Scoring::BruteForce),
        1 => Ok(Scoring::AsymmetricHashing),
        other => Err(malformed(format!("unknown scoring code {other}"))),
    }
}

/// Writes one [`FlatVectors`]: `(rows, dim)` scalars + one `f32` section.
fn push_vectors(s: &mut Sections, fv: &FlatVectors) {
    s.scalar(fv.len() as u64);
    s.scalar(fv.dim() as u64);
    s.f32s(fv.raw_data());
}

/// Reads one [`FlatVectors`], checking the element count matches.
fn read_vectors(what: &str, cur: &mut SectionCursor<'_>) -> er_store::Result<FlatVectors> {
    let rows = cur.scalar_usize()?;
    let dim = cur.scalar_usize()?;
    let data = cur.f32s()?;
    if rows.checked_mul(dim) != Some(data.len()) {
        return Err(malformed(format!("{what}: rows*dim != elements")));
    }
    Ok(FlatVectors::from_raw(data.to_vec(), dim, rows))
}

/// Writes a ragged vector collection as CSR offsets + flat elements.
fn push_vecs(s: &mut Sections, vecs: &[Vec<f32>]) {
    let mut offsets = Vec::with_capacity(vecs.len() + 1);
    offsets.push(0u32);
    let mut flat = Vec::new();
    for v in vecs {
        flat.extend_from_slice(v);
        offsets.push(flat.len() as u32);
    }
    s.u32s(&offsets);
    s.f32s(&flat);
}

/// Reads a ragged vector collection, validating the CSR offsets.
fn read_vecs(what: &str, cur: &mut SectionCursor<'_>) -> er_store::Result<Vec<Vec<f32>>> {
    let offsets = cur.u32s()?;
    let flat = cur.f32s()?;
    let ok = offsets.first() == Some(&0)
        && offsets.last().copied() == Some(flat.len() as u32)
        && offsets.windows(2).all(|w| w[0] <= w[1]);
    if !ok {
        return Err(malformed(format!("{what}: broken CSR offsets")));
    }
    Ok(offsets
        .windows(2)
        .map(|w| flat[w[0] as usize..w[1] as usize].to_vec())
        .collect())
}

/// Checks every vector in `vecs` has dimension `dim` (the query kernels
/// assume both sides of a dot product agree).
fn check_dims(what: &str, vecs: &[Vec<f32>], dim: usize) -> er_store::Result<()> {
    if vecs.iter().all(|v| v.len() == dim) {
        Ok(())
    } else {
        Err(malformed(format!("{what}: dimension mismatch")))
    }
}

/// A bucket-map key type: `u32` or `u64` sections.
trait BucketKey: Copy + Ord + Hash + Eq + 'static {
    fn push(s: &mut Sections, keys: &[Self]);
    fn read<'a>(cur: &mut SectionCursor<'a>) -> er_store::Result<&'a [Self]>;
}

impl BucketKey for u32 {
    fn push(s: &mut Sections, keys: &[Self]) {
        s.u32s(keys);
    }
    fn read<'a>(cur: &mut SectionCursor<'a>) -> er_store::Result<&'a [Self]> {
        cur.u32s()
    }
}

impl BucketKey for u64 {
    fn push(s: &mut Sections, keys: &[Self]) {
        s.u64s(keys);
    }
    fn read<'a>(cur: &mut SectionCursor<'a>) -> er_store::Result<&'a [Self]> {
        cur.u64s()
    }
}

/// Writes per-table bucket maps: a table-count scalar, then per table the
/// sorted keys plus CSR value lists. Sorting fixes the bytes regardless of
/// hash-map iteration order.
fn push_buckets<K: BucketKey>(s: &mut Sections, maps: &[FastMap<K, Vec<u32>>]) {
    s.scalar(maps.len() as u64);
    for m in maps {
        let mut keys: Vec<K> = m.keys().copied().collect();
        keys.sort_unstable();
        let mut offsets = Vec::with_capacity(keys.len() + 1);
        offsets.push(0u32);
        let mut vals = Vec::new();
        for k in &keys {
            vals.extend_from_slice(&m[k]);
            offsets.push(vals.len() as u32);
        }
        K::push(s, &keys);
        s.u32s(&offsets);
        s.u32s(&vals);
    }
}

/// Reads per-table bucket maps, validating key uniqueness and CSR shape.
fn read_buckets<K: BucketKey>(
    what: &str,
    cur: &mut SectionCursor<'_>,
) -> er_store::Result<Vec<FastMap<K, Vec<u32>>>> {
    let tables = cur.scalar_usize()?;
    let mut out = Vec::new();
    for t in 0..tables {
        let keys = K::read(cur)?;
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(malformed(format!("{what}: table {t} keys not unique")));
        }
        let offsets = cur.u32s()?;
        let vals = cur.u32s()?;
        let ok = offsets.len() == keys.len() + 1
            && offsets.first() == Some(&0)
            && offsets.last().copied() == Some(vals.len() as u32)
            && offsets.windows(2).all(|w| w[0] <= w[1]);
        if !ok {
            return Err(malformed(format!("{what}: table {t} broken CSR offsets")));
        }
        let mut map = FastMap::default();
        for (i, &k) in keys.iter().enumerate() {
            map.insert(
                k,
                vals[offsets[i] as usize..offsets[i + 1] as usize].to_vec(),
            );
        }
        out.push(map);
    }
    Ok(out)
}

/// (De)serializes [`DenseIndexArtifact`] (FAISS-Flat, range, DeepBlocker).
/// The `q` in the name printed by `er store inspect` is historical: the
/// sections are the f32 rows and nothing else.
pub struct DenseFlatQCodec;

impl ArtifactCodec for DenseFlatQCodec {
    fn id(&self) -> u32 {
        DENSE_FLAT_Q_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "dense-flat-q"
    }

    fn encode(&self, artifact: &(dyn Any + Send + Sync)) -> Option<Sections> {
        let art = artifact.downcast_ref::<DenseIndexArtifact>()?;
        let mut s = Sections::new();
        let (vectors, metric) = art.index.raw_parts();
        s.scalar(metric_code(metric));
        push_vectors(&mut s, vectors);
        push_vecs(&mut s, &art.queries);
        Some(s)
    }

    fn decode(&self, file: &StoreFile) -> er_store::Result<(Arc<dyn Any + Send + Sync>, usize)> {
        let mut cur = file.cursor()?;
        let metric = metric_from(cur.scalar()?)?;
        let vectors = read_vectors("index vectors", &mut cur)?;
        let queries = read_vecs("queries", &mut cur)?;
        cur.finish()?;
        if !vectors.is_empty() {
            check_dims("queries", &queries, vectors.dim())?;
        }
        let index = FlatIndex::from_parts(vectors, metric);
        let heap_bytes = index.heap_bytes() + vecs_bytes(&queries);
        Ok((Arc::new(DenseIndexArtifact { index, queries }), heap_bytes))
    }
}

/// (De)serializes [`MinHashArtifact`].
pub struct MinHashCodec;

impl ArtifactCodec for MinHashCodec {
    fn id(&self) -> u32 {
        MINHASH_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "minhash"
    }

    fn encode(&self, artifact: &(dyn Any + Send + Sync)) -> Option<Sections> {
        let art = artifact.downcast_ref::<MinHashArtifact>()?;
        let mut s = Sections::new();
        s.scalar(art.sigs2.len() as u64);
        let sig_len = art.sigs2.iter().flatten().next().map_or(0, Vec::len);
        s.scalar(sig_len as u64);
        let presence: Vec<u32> = art
            .sigs2
            .iter()
            .map(|sig| u32::from(sig.is_some()))
            .collect();
        let mut flat = Vec::new();
        for sig in art.sigs2.iter().flatten() {
            debug_assert_eq!(sig.len(), sig_len);
            flat.extend_from_slice(sig);
        }
        s.u32s(&presence);
        s.u64s(&flat);
        push_buckets(&mut s, &art.buckets);
        Some(s)
    }

    fn decode(&self, file: &StoreFile) -> er_store::Result<(Arc<dyn Any + Send + Sync>, usize)> {
        let mut cur = file.cursor()?;
        let n = cur.scalar_usize()?;
        let sig_len = cur.scalar_usize()?;
        let presence = cur.u32s()?;
        let flat = cur.u64s()?;
        if presence.len() != n || !presence.iter().all(|&p| p <= 1) {
            return Err(malformed("signatures: broken presence array"));
        }
        let present = presence.iter().filter(|&&p| p == 1).count();
        if present > 0 && sig_len == 0 {
            return Err(malformed("signatures: present but zero-length"));
        }
        if present.checked_mul(sig_len) != Some(flat.len()) {
            return Err(malformed("signatures: flat length mismatch"));
        }
        let mut chunks = flat.chunks_exact(sig_len.max(1));
        let sigs2: Vec<Option<Vec<u64>>> = presence
            .iter()
            .map(|&p| {
                if p == 1 {
                    chunks.next().map(<[u64]>::to_vec)
                } else {
                    None
                }
            })
            .collect();
        let buckets = read_buckets::<u64>("buckets", &mut cur)?;
        cur.finish()?;
        let art = MinHashArtifact { sigs2, buckets };
        let heap_bytes = art.bytes();
        Ok((Arc::new(art), heap_bytes))
    }
}

/// (De)serializes [`HyperplaneArtifact`].
pub struct HyperplaneCodec;

impl ArtifactCodec for HyperplaneCodec {
    fn id(&self) -> u32 {
        HYPERPLANE_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "hyperplane"
    }

    fn encode(&self, artifact: &(dyn Any + Send + Sync)) -> Option<Sections> {
        let art = artifact.downcast_ref::<HyperplaneArtifact>()?;
        let mut s = Sections::new();
        s.scalar(art.tables.len() as u64);
        for t in &art.tables {
            push_vectors(&mut s, &t.normals);
        }
        push_buckets(&mut s, &art.buckets);
        push_vecs(&mut s, &art.queries);
        Some(s)
    }

    fn decode(&self, file: &StoreFile) -> er_store::Result<(Arc<dyn Any + Send + Sync>, usize)> {
        let mut cur = file.cursor()?;
        let n_tables = cur.scalar_usize()?;
        let mut tables = Vec::new();
        for _ in 0..n_tables {
            let normals = read_vectors("hyperplanes", &mut cur)?;
            tables.push(HpTable { normals });
        }
        let buckets = read_buckets::<u32>("buckets", &mut cur)?;
        let queries = read_vecs("queries", &mut cur)?;
        cur.finish()?;
        if let Some(dim) = tables.first().map(|t| t.normals.dim()) {
            if tables.iter().any(|t| t.normals.dim() != dim) {
                return Err(malformed("hyperplanes: table dimension mismatch"));
            }
            check_dims("queries", &queries, dim)?;
        }
        let art = HyperplaneArtifact {
            tables,
            buckets,
            queries,
        };
        let heap_bytes = art.bytes();
        Ok((Arc::new(art), heap_bytes))
    }
}

/// (De)serializes [`CrossPolytopeArtifact`].
pub struct CrossPolytopeCodec;

impl ArtifactCodec for CrossPolytopeCodec {
    fn id(&self) -> u32 {
        CROSSPOLYTOPE_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "crosspolytope"
    }

    fn encode(&self, artifact: &(dyn Any + Send + Sync)) -> Option<Sections> {
        let art = artifact.downcast_ref::<CrossPolytopeArtifact>()?;
        let mut s = Sections::new();
        s.scalar(art.tables.len() as u64);
        for t in &art.tables {
            s.scalar(t.leading.len() as u64);
            for rot in &t.leading {
                push_vectors(&mut s, &rot.rows);
            }
            push_vectors(&mut s, &t.last.rows);
        }
        push_buckets(&mut s, &art.buckets);
        push_vecs(&mut s, &art.queries);
        Some(s)
    }

    fn decode(&self, file: &StoreFile) -> er_store::Result<(Arc<dyn Any + Send + Sync>, usize)> {
        let mut cur = file.cursor()?;
        let n_tables = cur.scalar_usize()?;
        let mut tables = Vec::new();
        let mut dim = None;
        for _ in 0..n_tables {
            let n_leading = cur.scalar_usize()?;
            let mut leading = Vec::new();
            for _ in 0..n_leading {
                leading.push(Rotation {
                    rows: read_vectors("rotation", &mut cur)?,
                });
            }
            let last = Rotation {
                rows: read_vectors("last rotation", &mut cur)?,
            };
            for rot in leading.iter().chain(std::iter::once(&last)) {
                if *dim.get_or_insert(rot.rows.dim()) != rot.rows.dim() {
                    return Err(malformed("rotations: dimension mismatch"));
                }
            }
            tables.push(CpTable { leading, last });
        }
        let buckets = read_buckets::<u64>("buckets", &mut cur)?;
        let queries = read_vecs("queries", &mut cur)?;
        cur.finish()?;
        if let Some(dim) = dim {
            check_dims("queries", &queries, dim)?;
        }
        let art = CrossPolytopeArtifact {
            tables,
            buckets,
            queries,
        };
        let heap_bytes = art.bytes();
        Ok((Arc::new(art), heap_bytes))
    }
}

/// (De)serializes [`PartitionedArtifact`].
pub struct PartitionedCodec;

impl ArtifactCodec for PartitionedCodec {
    fn id(&self) -> u32 {
        PARTITIONED_CODEC_ID
    }

    fn name(&self) -> &'static str {
        "partitioned"
    }

    fn encode(&self, artifact: &(dyn Any + Send + Sync)) -> Option<Sections> {
        let art = artifact.downcast_ref::<PartitionedArtifact>()?;
        let mut s = Sections::new();
        s.scalar(u64::from(art.index.is_some()));
        if let Some(idx) = &art.index {
            s.scalar(metric_code(idx.metric));
            s.scalar(scoring_code(idx.scoring));
            push_vectors(&mut s, &idx.vectors);
            push_vecs(&mut s, &idx.centroids);
            let mut offsets = Vec::with_capacity(idx.members.len() + 1);
            offsets.push(0u32);
            let mut flat = Vec::new();
            for m in &idx.members {
                flat.extend_from_slice(m);
                offsets.push(flat.len() as u32);
            }
            s.u32s(&offsets);
            s.u32s(&flat);
            s.scalar(u64::from(idx.pq.is_some()));
            if let Some((pq, codes)) = &idx.pq {
                let (m, sub_dims, pq_offsets, codebooks) = pq.raw_parts();
                s.scalar(m as u64);
                let dims: Vec<u64> = sub_dims.iter().map(|&d| d as u64).collect();
                let offs: Vec<u64> = pq_offsets.iter().map(|&o| o as u64).collect();
                s.u64s(&dims);
                s.u64s(&offs);
                let counts: Vec<u32> = codebooks.iter().map(|cb| cb.len() as u32).collect();
                s.u32s(&counts);
                let mut flat_cb = Vec::new();
                for cb in codebooks {
                    for centroid in cb {
                        flat_cb.extend_from_slice(centroid);
                    }
                }
                s.f32s(&flat_cb);
                let mut flat_codes = Vec::new();
                for c in codes {
                    debug_assert_eq!(c.len(), m);
                    flat_codes.extend_from_slice(c);
                }
                s.bytes(&flat_codes);
            }
        }
        push_vecs(&mut s, &art.queries);
        Some(s)
    }

    fn decode(&self, file: &StoreFile) -> er_store::Result<(Arc<dyn Any + Send + Sync>, usize)> {
        let mut cur = file.cursor()?;
        let has_index = cur.scalar()?;
        if has_index > 1 {
            return Err(malformed("broken index-presence flag"));
        }
        let index = if has_index == 1 {
            Some(decode_index(&mut cur)?)
        } else {
            None
        };
        let queries = read_vecs("queries", &mut cur)?;
        cur.finish()?;
        if let Some(idx) = &index {
            check_dims("queries", &queries, idx.vectors.dim())?;
        }
        let art = PartitionedArtifact { index, queries };
        let heap_bytes = art.bytes();
        Ok((Arc::new(art), heap_bytes))
    }
}

/// Reads and validates the trained [`PartitionedIndex`].
fn decode_index(cur: &mut SectionCursor<'_>) -> er_store::Result<PartitionedIndex> {
    let metric = metric_from(cur.scalar()?)?;
    let scoring = scoring_from(cur.scalar()?)?;
    let vectors = read_vectors("partition vectors", cur)?;
    let centroids = read_vecs("centroids", cur)?;
    check_dims("centroids", &centroids, vectors.dim())?;
    let offsets = cur.u32s()?;
    let flat = cur.u32s()?;
    let ok = offsets.len() == centroids.len() + 1
        && offsets.first() == Some(&0)
        && offsets.last().copied() == Some(flat.len() as u32)
        && offsets.windows(2).all(|w| w[0] <= w[1]);
    if !ok {
        return Err(malformed("members: broken CSR offsets"));
    }
    if !flat.iter().all(|&id| (id as usize) < vectors.len()) {
        return Err(malformed("members: id out of range"));
    }
    let members: Vec<Vec<u32>> = offsets
        .windows(2)
        .map(|w| flat[w[0] as usize..w[1] as usize].to_vec())
        .collect();
    let has_pq = cur.scalar()?;
    if has_pq > 1 {
        return Err(malformed("broken pq-presence flag"));
    }
    let pq = if has_pq == 1 {
        Some(decode_pq(cur, &vectors)?)
    } else {
        None
    };
    Ok(PartitionedIndex {
        vectors,
        centroids,
        members,
        metric,
        scoring,
        pq,
    })
}

/// Reads and validates the product quantizer plus the per-vector codes.
fn decode_pq(
    cur: &mut SectionCursor<'_>,
    vectors: &FlatVectors,
) -> er_store::Result<(ProductQuantizer, Vec<Vec<u8>>)> {
    let m = cur.scalar_usize()?;
    let sub_dims: Vec<usize> = cur.u64s()?.iter().map(|&d| d as usize).collect();
    let offsets: Vec<usize> = cur.u64s()?.iter().map(|&o| o as usize).collect();
    if m == 0 || sub_dims.len() != m || offsets.len() != m {
        return Err(malformed("pq: broken subspace geometry"));
    }
    // Each subspace must slice inside the vector dimension, or the
    // query-time lookup table would index out of range.
    for (&off, &d) in offsets.iter().zip(&sub_dims) {
        if d == 0 || off.checked_add(d).map_or(true, |end| end > vectors.dim()) {
            return Err(malformed("pq: subspace outside vector dimension"));
        }
    }
    let counts = cur.u32s()?;
    let flat_cb = cur.f32s()?;
    if counts.len() != m {
        return Err(malformed("pq: codebook count mismatch"));
    }
    let mut codebooks = Vec::with_capacity(m);
    let mut at = 0usize;
    for (i, &count) in counts.iter().enumerate() {
        let mut cb = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let end = at + sub_dims[i];
            if end > flat_cb.len() {
                return Err(malformed("pq: codebook elements truncated"));
            }
            cb.push(flat_cb[at..end].to_vec());
            at = end;
        }
        codebooks.push(cb);
    }
    if at != flat_cb.len() {
        return Err(malformed("pq: codebook elements left over"));
    }
    let flat_codes = cur.bytes()?;
    if vectors.len().checked_mul(m) != Some(flat_codes.len()) {
        return Err(malformed("pq: code length mismatch"));
    }
    let codes: Vec<Vec<u8>> = flat_codes
        .chunks_exact(m.max(1))
        .map(<[u8]>::to_vec)
        .collect();
    // Every code byte indexes its subspace's lookup table at query time.
    for code in &codes {
        for (sub, &byte) in code.iter().enumerate() {
            if (byte as usize) >= codebooks[sub].len() {
                return Err(malformed("pq: code outside codebook"));
            }
        }
    }
    let pq = ProductQuantizer::from_raw_parts(m, sub_dims, offsets, codebooks);
    Ok((pq, codes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosspolytope::CrossPolytopeLsh;
    use crate::embed::EmbeddingConfig;
    use crate::flat::FlatKnn;
    use crate::hyperplane::HyperplaneLsh;
    use crate::minhash::MinHashLsh;
    use crate::partitioned::PartitionedKnn;
    use er_core::artifacts::{ArtifactKey, DiskTier, TierLoad};
    use er_core::filter::{Filter, Prepared};
    use er_core::schema::TextView;
    use er_store::ArtifactStore;

    fn store_in(name: &str) -> (ArtifactStore, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("er_dense_store_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(
            &dir,
            vec![
                Box::new(DenseFlatQCodec),
                Box::new(MinHashCodec),
                Box::new(HyperplaneCodec),
                Box::new(CrossPolytopeCodec),
                Box::new(PartitionedCodec),
            ],
        )
        .expect("open");
        (store, dir)
    }

    fn view() -> TextView {
        TextView::new(
            (0..9)
                .map(|i| format!("canon powershot camera model {i}"))
                .collect::<Vec<_>>(),
            (0..6)
                .map(|i| format!("canon camera kit number {}", i * 3))
                .collect::<Vec<_>>(),
        )
    }

    fn emb() -> EmbeddingConfig {
        EmbeddingConfig {
            dim: 16,
            ..Default::default()
        }
    }

    /// Stores then loads `fresh` and checks the byte-parity contract.
    fn roundtrip(store: &ArtifactStore, filter_id: u64, repr: &str, fresh: &Prepared) -> Prepared {
        let key = ArtifactKey::new(filter_id, repr);
        assert!(
            store.store(&key, fresh).expect("store"),
            "{repr}: not encoded"
        );
        let TierLoad::Hit { prepared, saved } = store.load(&key) else {
            panic!("{repr}: expected hit");
        };
        assert_eq!(prepared.bytes(), fresh.bytes(), "{repr}: heap bytes parity");
        assert_eq!(saved, fresh.breakdown().prepare_total());
        prepared
    }

    #[test]
    fn flat_artifact_roundtrips_with_identical_queries() {
        let (store, dir) = store_in("flat");
        let f = FlatKnn {
            cleaning: false,
            k: 3,
            reversed: false,
            embedding: emb(),
        };
        let fresh = f.prepare(&view());
        let back = roundtrip(&store, 1, &f.repr_key(), &fresh);
        let (a, b) = (
            fresh.downcast::<DenseIndexArtifact>(),
            back.downcast::<DenseIndexArtifact>(),
        );
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.index.len(), b.index.len());
        for (q, query) in a.queries.iter().enumerate() {
            assert_eq!(a.index.knn(query, 3), b.index.knn(query, 3), "query {q}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flat_files_carry_codec_id_9() {
        let (store, dir) = store_in("flatq");
        let f = FlatKnn {
            cleaning: false,
            k: 2,
            reversed: false,
            embedding: emb(),
        };
        let fresh = f.prepare(&view());
        roundtrip(&store, 9, &f.repr_key(), &fresh);
        let infos = store.inspect().expect("inspect");
        assert_eq!(infos.len(), 1);
        let info = infos[0].1.as_ref().expect("readable file");
        assert_eq!(info.codec_id, DENSE_FLAT_Q_CODEC_ID);
        assert_eq!(info.codec_name, Some("dense-flat-q"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn minhash_artifact_roundtrips_with_identical_candidates() {
        let (store, dir) = store_in("minhash");
        let f = MinHashLsh {
            cleaning: false,
            shingle_k: 3,
            bands: 4,
            rows: 2,
            seed: 7,
        };
        let v = view();
        let fresh = f.prepare(&v);
        let back = roundtrip(&store, 2, &f.repr_key(), &fresh);
        let out_a = f.query(&v, &fresh);
        let out_b = f.query(&v, &back);
        assert_eq!(out_a.candidates.len(), out_b.candidates.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hyperplane_artifact_roundtrips_with_identical_candidates() {
        let (store, dir) = store_in("hp");
        let f = HyperplaneLsh {
            cleaning: false,
            tables: 3,
            hashes: 6,
            probes: 2,
            embedding: emb(),
            seed: 11,
        };
        let v = view();
        let fresh = f.prepare(&v);
        let back = roundtrip(&store, 3, &f.repr_key(), &fresh);
        let out_a = f.query(&v, &fresh);
        let out_b = f.query(&v, &back);
        assert_eq!(out_a.candidates.len(), out_b.candidates.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crosspolytope_artifact_roundtrips_with_identical_candidates() {
        let (store, dir) = store_in("cp");
        let f = CrossPolytopeLsh {
            cleaning: false,
            tables: 2,
            hashes: 2,
            last_cp_dim: 4,
            probes: 2,
            embedding: emb(),
            seed: 13,
        };
        let v = view();
        let fresh = f.prepare(&v);
        let back = roundtrip(&store, 4, &f.repr_key(), &fresh);
        let out_a = f.query(&v, &fresh);
        let out_b = f.query(&v, &back);
        assert_eq!(out_a.candidates.len(), out_b.candidates.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partitioned_artifact_roundtrips_in_both_scoring_modes() {
        let (store, dir) = store_in("scann");
        for (i, scoring) in [Scoring::BruteForce, Scoring::AsymmetricHashing]
            .into_iter()
            .enumerate()
        {
            let f = PartitionedKnn {
                cleaning: false,
                k: 2,
                reversed: false,
                scoring,
                metric: Metric::L2Sq,
                probe_fraction: 1.0,
                embedding: emb(),
                seed: 17,
            };
            let v = view();
            let fresh = f.prepare(&v);
            let back = roundtrip(&store, 5 + i as u64, &f.repr_key(), &fresh);
            let out_a = f.query(&v, &fresh);
            let out_b = f.query(&v, &back);
            assert_eq!(
                out_a.candidates.len(),
                out_b.candidates.len(),
                "{scoring:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_views_roundtrip_through_every_codec() {
        let (store, dir) = store_in("empty");
        let v = TextView::new(Vec::new(), Vec::new());
        let filters: Vec<(u64, Box<dyn Filter>)> = vec![
            (
                20,
                Box::new(FlatKnn {
                    cleaning: false,
                    k: 1,
                    reversed: false,
                    embedding: emb(),
                }),
            ),
            (
                21,
                Box::new(MinHashLsh {
                    cleaning: false,
                    shingle_k: 3,
                    bands: 2,
                    rows: 2,
                    seed: 1,
                }),
            ),
            (
                22,
                Box::new(PartitionedKnn {
                    cleaning: false,
                    k: 1,
                    reversed: false,
                    scoring: Scoring::BruteForce,
                    metric: Metric::L2Sq,
                    probe_fraction: 1.0,
                    embedding: emb(),
                    seed: 2,
                }),
            ),
        ];
        for (id, f) in &filters {
            let fresh = f.prepare(&v);
            roundtrip(&store, *id, &f.repr_key(), &fresh);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrelated_artifacts_are_not_encoded() {
        for codec in [
            Box::new(DenseFlatQCodec) as Box<dyn ArtifactCodec>,
            Box::new(MinHashCodec),
            Box::new(HyperplaneCodec),
            Box::new(CrossPolytopeCodec),
            Box::new(PartitionedCodec),
        ] {
            assert!(
                codec.encode(&("not dense".to_owned())).is_none(),
                "{}",
                codec.name()
            );
        }
    }
}
