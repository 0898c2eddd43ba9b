//! The artifact store: a directory of single-file artifacts behind the
//! cache's [`DiskTier`] interface.
//!
//! Files are named `{dataset_fp:016x}-{xxh64(repr_key):016x}.erst`, so the
//! cache key maps to exactly one path without reading anything. Loads fire
//! the `store/<repr_key>` fault site and run inside `catch_unwind`: any
//! failure — injected or real, including a panicking codec — surfaces as
//! [`TierLoad::Failed`] and the cache falls back to re-preparing. The only
//! payloads re-thrown are the guard's own sentinels (`KillSwitch` and
//! non-message aborts), which must keep unwinding to their owner.
//!
//! Writes are atomic (temp file + rename, see
//! [`crate::format::write_store`]), so a crash mid-spill can leave a stale
//! `*.tmp.*` sibling — cleaned by [`ArtifactStore::gc`] — but never a torn
//! file under a final name.

use crate::err::{Result, StoreError};
use crate::format::{write_store, SectionInfo, Sections, StoreFile, StoreMeta};
use crate::xxh::xxh64;
use er_core::artifacts::{ArtifactKey, DiskTier, TierLoad};
use er_core::faults;
use er_core::filter::Prepared;
use er_core::guard::KillSwitch;
use er_core::timing::{PhaseBreakdown, Stage};
use std::any::Any;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// File extension of store files.
pub const EXTENSION: &str = "erst";

/// (De)serializes one family of artifact types.
///
/// `encode` inspects the type-erased artifact (`downcast_ref`) and returns
/// `None` when it is not one this codec handles — the store tries each
/// registered codec in turn. `decode` reconstructs the artifact from a
/// validated file and returns it with its recomputed heap footprint, which
/// must equal what the artifact reported when it was stored.
pub trait ArtifactCodec: Send + Sync {
    /// Stable format id stamped into file headers (decode dispatch).
    fn id(&self) -> u32;
    /// Display name for `inspect` output.
    fn name(&self) -> &'static str;
    /// Serializes `artifact` if it is a type this codec handles.
    fn encode(&self, artifact: &(dyn Any + Send + Sync)) -> Option<Sections>;
    /// Reconstructs the artifact and its heap byte count from `file`.
    fn decode(&self, file: &StoreFile) -> Result<(Arc<dyn Any + Send + Sync>, usize)>;
    /// Per-structure encoded vs decoded byte sizes for `er store inspect`,
    /// when this codec's layout compresses its payload. The default (no
    /// entries) suits codecs that store sections verbatim.
    fn section_ratios(&self, _file: &StoreFile) -> Result<Vec<SectionRatio>> {
        Ok(Vec::new())
    }
    /// Repr keys of companion files this (manifest-style) file references
    /// under the same dataset fingerprint. `er store inspect` renders the
    /// references as a tree and [`ArtifactStore::gc`] treats unreferenced
    /// segment files as orphans. The default (no references) suits
    /// self-contained codecs.
    fn referenced_reprs(&self, _file: &StoreFile) -> Result<Vec<String>> {
        Ok(Vec::new())
    }
    /// True when this codec's files are immutable segments owned by a
    /// manifest. A valid segment no surviving manifest references is a
    /// leftover of an interrupted compaction (the manifest swap is atomic,
    /// so the segment was written but never adopted) and is collected by
    /// [`ArtifactStore::gc`].
    fn is_segment(&self) -> bool {
        false
    }
}

/// One `inspect` compression-report entry: a logical structure's encoded
/// (on-disk, packed) vs decoded (in-memory, plain layout) byte sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionRatio {
    /// Structure label, e.g. `postings`.
    pub label: String,
    /// Bytes in the packed encoding.
    pub encoded_bytes: u64,
    /// Bytes the plain (unpacked) layout occupies.
    pub decoded_bytes: u64,
}

/// How a store directory is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpenMode {
    /// Create the directory if needed; spills, gc and healing overwrites
    /// all work. The sweep's build-pipeline mode.
    #[default]
    ReadWrite,
    /// The serving mode: the directory must already exist and the store
    /// never writes — [`DiskTier::store`] reports "nothing written" and
    /// [`ArtifactStore::gc`] refuses. A missing directory is a structured
    /// [`StoreError::MissingDir`], never a create.
    ReadOnly,
}

/// A store directory plus the codec registry, implementing [`DiskTier`].
pub struct ArtifactStore {
    dir: PathBuf,
    codecs: Vec<Box<dyn ArtifactCodec>>,
    mode: OpenMode,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("dir", &self.dir)
            .field(
                "codecs",
                &self.codecs.iter().map(|c| c.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl ArtifactStore {
    /// Opens (creating if needed) the store directory in read-write mode.
    pub fn open(dir: impl Into<PathBuf>, codecs: Vec<Box<dyn ArtifactCodec>>) -> Result<Self> {
        Self::open_with(dir, codecs, OpenMode::ReadWrite)
    }

    /// Opens an existing store directory read-only (serve mode): a missing
    /// directory is [`StoreError::MissingDir`] and nothing is ever written.
    pub fn open_read_only(
        dir: impl Into<PathBuf>,
        codecs: Vec<Box<dyn ArtifactCodec>>,
    ) -> Result<Self> {
        Self::open_with(dir, codecs, OpenMode::ReadOnly)
    }

    /// Opens the store directory with an explicit [`OpenMode`].
    pub fn open_with(
        dir: impl Into<PathBuf>,
        codecs: Vec<Box<dyn ArtifactCodec>>,
        mode: OpenMode,
    ) -> Result<Self> {
        let dir = dir.into();
        match mode {
            OpenMode::ReadWrite => {
                std::fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, &e))?;
            }
            OpenMode::ReadOnly => {
                if !dir.is_dir() {
                    return Err(StoreError::MissingDir(dir.display().to_string()));
                }
            }
        }
        Ok(ArtifactStore { dir, codecs, mode })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The mode this store was opened with.
    pub fn mode(&self) -> OpenMode {
        self.mode
    }

    /// The file a key lives at: dataset fingerprint and hashed repr key,
    /// both as fixed-width hex.
    pub fn file_path(&self, key: &ArtifactKey) -> PathBuf {
        self.dir.join(format!(
            "{:016x}-{:016x}.{EXTENSION}",
            key.dataset,
            xxh64(key.repr.as_bytes(), 0)
        ))
    }

    fn codec_by_id(&self, id: u32) -> Option<&dyn ArtifactCodec> {
        self.codecs
            .iter()
            .find(|c| c.id() == id)
            .map(|c| c.as_ref())
    }

    /// Opens, validates and decodes the file at `path`, checking it holds
    /// exactly `key` (when given). Returns the artifact, its heap bytes
    /// and the recorded prepare cost.
    fn load_file(
        &self,
        path: &Path,
        key: Option<&ArtifactKey>,
    ) -> Result<(Arc<dyn Any + Send + Sync>, usize, Duration)> {
        let file = StoreFile::open(path)?;
        if let Some(key) = key {
            if file.dataset_fp() != key.dataset || file.repr() != key.repr {
                return Err(StoreError::KeyMismatch {
                    found: format!("{:016x}/{}", file.dataset_fp(), file.repr()),
                    wanted: format!("{:016x}/{}", key.dataset, key.repr),
                });
            }
        }
        let codec = self
            .codec_by_id(file.codec_id())
            .ok_or_else(|| StoreError::NoCodec(format!("id {}", file.codec_id())))?;
        let (artifact, heap_bytes) = codec.decode(&file)?;
        if heap_bytes as u64 != file.heap_bytes() {
            // The heap_bytes parity contract: a decoded artifact must cost
            // the cache budget exactly what the fresh one did. A file whose
            // header records another figure was written by a binary with a
            // different in-memory layout; the caller re-prepares.
            return Err(StoreError::Malformed(format!(
                "decoded heap bytes {heap_bytes} != stored {}",
                file.heap_bytes()
            )));
        }
        Ok((
            artifact,
            heap_bytes,
            Duration::from_nanos(file.prepare_nanos()),
        ))
    }

    /// One [`DiskTier::load`] attempt, with every failure as a `Result`.
    fn try_load(&self, key: &ArtifactKey, path: &Path) -> Result<TierLoad> {
        let site = format!("store/{}", key.repr);
        if faults::wants_corrupt(&site) {
            // Simulates an on-disk bit flip: the checksum verdict such a
            // flip would produce, deterministically.
            return Err(StoreError::Corrupt {
                region: format!("file (injected fault at {site})"),
            });
        }
        faults::fire(&site);
        let start = Instant::now();
        let (artifact, heap_bytes, saved) = self.load_file(path, Some(key))?;
        let mut breakdown = PhaseBreakdown::new();
        breakdown.record_in(Stage::Prepare, "store-load", start.elapsed());
        Ok(TierLoad::Hit {
            prepared: Prepared::from_arc(artifact, heap_bytes, breakdown),
            saved,
        })
    }

    /// Every `*.erst` path in the directory, sorted by file name.
    pub fn files(&self) -> Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| StoreError::io(&self.dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(&self.dir, &e))?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == EXTENSION) {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }

    /// Structural summaries of every file (`er store inspect`). Unreadable
    /// files surface as per-file errors, not failures of the listing.
    pub fn inspect(&self) -> Result<Vec<(PathBuf, Result<FileInfo>)>> {
        Ok(self
            .files()?
            .into_iter()
            .map(|path| {
                let info = FileInfo::read(&path, |id| self.codec_by_id(id));
                (path, info)
            })
            .collect())
    }

    /// Deep-verifies every file: whole-file checksum, per-section
    /// checksums, and a full decode through the registered codec
    /// (`er store verify`).
    pub fn verify(&self) -> Result<Vec<(PathBuf, Result<()>)>> {
        Ok(self
            .files()?
            .into_iter()
            .map(|path| {
                let verdict = StoreFile::open(&path)
                    .and_then(|file| {
                        file.verify_sections()?;
                        Ok(file)
                    })
                    .and_then(|_| self.load_file(&path, None).map(|_| ()));
                (path, verdict)
            })
            .collect())
    }

    /// Removes stale temp files, undecodable store files, and orphaned
    /// segment files left behind by an interrupted compaction (valid
    /// segments that no valid manifest of the same dataset references),
    /// returning a structured [`GcReport`] (`er store gc`).
    ///
    /// All shards of one sharded index are a **single reachability
    /// root**: a shard-qualified segment whose own manifest is missing is
    /// still kept while any sibling shard of the same `(dataset, base,
    /// total)` family has a surviving non-segment root. A torn multi-
    /// shard write must stay recoverable — collecting one shard's
    /// segments because only its manifest was lost would turn an
    /// interrupted persist into permanent data loss.
    pub fn gc(&self) -> Result<GcReport> {
        if self.mode == OpenMode::ReadOnly {
            return Err(StoreError::ReadOnly("gc".into()));
        }
        let mut report = GcReport::default();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| StoreError::io(&self.dir, &e))?;
        let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        // Pass 1: stale temps and undecodable files go; valid store files
        // survive with their headers collected for the orphan pass.
        let mut valid: Vec<(PathBuf, u64, String, u32)> = Vec::new();
        let mut referenced: std::collections::HashSet<(u64, String)> = Default::default();
        // Shard families with a surviving root: (dataset, base, total).
        let mut shard_roots: std::collections::HashSet<(u64, String, u32)> = Default::default();
        for path in paths {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.contains(".tmp.") {
                std::fs::remove_file(&path).map_err(|e| StoreError::io(&path, &e))?;
                report.removed += 1;
                continue;
            }
            if !path.extension().is_some_and(|e| e == EXTENSION) {
                report.kept += 1;
                continue;
            }
            if self.load_file(&path, None).is_err() {
                std::fs::remove_file(&path).map_err(|e| StoreError::io(&path, &e))?;
                report.removed += 1;
                continue;
            }
            let file = StoreFile::open(&path)?;
            if let Some(codec) = self.codec_by_id(file.codec_id()) {
                for repr in codec.referenced_reprs(&file)? {
                    referenced.insert((file.dataset_fp(), repr));
                }
                if !codec.is_segment() {
                    if let Some(sref) = er_core::shard::parse_shard_repr(file.repr()) {
                        shard_roots.insert((file.dataset_fp(), sref.base.to_owned(), sref.total));
                    }
                }
            }
            valid.push((
                path,
                file.dataset_fp(),
                file.repr().to_owned(),
                file.codec_id(),
            ));
        }
        // Pass 2: a valid segment nothing references was written but never
        // adopted — the manifest swap is atomic, so an interrupted
        // compaction leaves exactly this signature. Segments of a shard
        // family with any surviving root are exempt (see above).
        for (path, dataset_fp, repr, codec_id) in valid {
            let is_segment = self.codec_by_id(codec_id).is_some_and(|c| c.is_segment());
            let family_alive = er_core::shard::parse_shard_repr(&repr).is_some_and(|sref| {
                shard_roots.contains(&(dataset_fp, sref.base.to_owned(), sref.total))
            });
            if is_segment && !family_alive && !referenced.contains(&(dataset_fp, repr)) {
                std::fs::remove_file(&path).map_err(|e| StoreError::io(&path, &e))?;
                report.removed += 1;
                report.orphaned += 1;
            } else {
                report.kept += 1;
            }
        }
        Ok(report)
    }
}

/// Structured result of one [`ArtifactStore::gc`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Files deleted (stale temps, undecodable files, orphaned segments).
    pub removed: usize,
    /// Files left in place.
    pub kept: usize,
    /// How many of the removed files were valid-but-unreferenced segment
    /// files — compaction leftovers.
    pub orphaned: usize,
}

impl DiskTier for ArtifactStore {
    fn load(&self, key: &ArtifactKey) -> TierLoad {
        let path = self.file_path(key);
        if !path.exists() {
            return TierLoad::Miss;
        }
        // Contain everything, including injected panics and codec bugs;
        // only the guard's own payloads may keep unwinding.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.try_load(key, &path)));
        match result {
            Ok(Ok(load)) => load,
            Ok(Err(err)) => TierLoad::Failed(format!("{}: {err}", path.display())),
            Err(payload) => {
                if payload.is::<KillSwitch>() {
                    std::panic::resume_unwind(payload);
                }
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_owned()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    // An unknown payload is a guard sentinel (cooperative
                    // abort) addressed to an enclosing frame: re-throw.
                    std::panic::resume_unwind(payload);
                };
                TierLoad::Failed(format!("{}: load panicked: {msg}", path.display()))
            }
        }
    }

    fn store(&self, key: &ArtifactKey, prepared: &Prepared) -> std::result::Result<bool, String> {
        if self.mode == OpenMode::ReadOnly {
            // Serving: cache evictions must never turn into spills.
            return Ok(false);
        }
        let path = self.file_path(key);
        // Already holding a valid copy of this key? Nothing to do. A
        // present-but-damaged file is overwritten below.
        if path.exists() && self.load_file(&path, Some(key)).is_ok() {
            return Ok(false);
        }
        let Some((codec_id, sections)) = self
            .codecs
            .iter()
            .find_map(|c| c.encode(prepared.any()).map(|s| (c.id(), s)))
        else {
            return Ok(false);
        };
        let meta = StoreMeta {
            codec_id,
            dataset_fp: key.dataset,
            repr: key.repr.clone(),
            prepare_nanos: prepared.breakdown().prepare_total().as_nanos() as u64,
            heap_bytes: prepared.bytes() as u64,
        };
        write_store(&path, &meta, &sections)
            .map(|_| true)
            .map_err(|e| e.to_string())
    }
}

/// Header-level summary of one store file, for `er store inspect`.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Representation key the file holds.
    pub repr: String,
    /// Dataset fingerprint.
    pub dataset_fp: u64,
    /// Codec id from the header.
    pub codec_id: u32,
    /// Codec display name, when a registered codec matches.
    pub codec_name: Option<&'static str>,
    /// File size in bytes.
    pub file_bytes: usize,
    /// The artifact's heap footprint when resident.
    pub heap_bytes: u64,
    /// Recorded prepare cost.
    pub prepare: Duration,
    /// Whether this open used the zero-copy mapped path.
    pub mapped: bool,
    /// Section layout.
    pub sections: Vec<SectionInfo>,
    /// Per-structure compression report, when the codec provides one
    /// (see [`ArtifactCodec::section_ratios`]).
    pub section_ratios: Vec<SectionRatio>,
    /// Repr keys of companion files this file references (manifest
    /// codecs), for `er store inspect`'s segment trees.
    pub referenced: Vec<String>,
    /// Whether the codec marks this file as a manifest-owned segment.
    pub segment: bool,
}

impl FileInfo {
    fn read<'c>(
        path: &Path,
        codec_for: impl Fn(u32) -> Option<&'c dyn ArtifactCodec>,
    ) -> Result<Self> {
        let file = StoreFile::open(path)?;
        let codec = codec_for(file.codec_id());
        let section_ratios = match codec {
            Some(c) => c.section_ratios(&file)?,
            None => Vec::new(),
        };
        let referenced = match codec {
            Some(c) => c.referenced_reprs(&file)?,
            None => Vec::new(),
        };
        Ok(FileInfo {
            repr: file.repr().to_owned(),
            dataset_fp: file.dataset_fp(),
            codec_id: file.codec_id(),
            codec_name: codec.map(|c| c.name()),
            file_bytes: file.len_bytes(),
            heap_bytes: file.heap_bytes(),
            prepare: Duration::from_nanos(file.prepare_nanos()),
            mapped: file.is_mapped(),
            sections: file.sections().to_vec(),
            section_ratios,
            referenced,
            segment: codec.is_some_and(|c| c.is_segment()),
        })
    }

    /// One-line section layout, e.g. `u64[4] u32[1024] f32[8192]`.
    pub fn layout(&self) -> String {
        self.sections
            .iter()
            .map(|s| {
                format!(
                    "{}[{}]",
                    s.dtype.name(),
                    s.len / s.dtype.elem_bytes() as u64
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Byte-level helper for tests and tools: flips one byte of `path` in
/// place (no store file survives this with its checksums intact).
pub fn flip_byte(path: &Path, offset: usize) -> Result<()> {
    let mut bytes = std::fs::read(path).map_err(|e| StoreError::io(path, &e))?;
    let len = bytes.len();
    let byte = bytes
        .get_mut(offset)
        .ok_or_else(|| StoreError::Malformed(format!("offset {offset} beyond {len}-byte file")))?;
    *byte ^= 0x40;
    std::fs::write(path, &bytes).map_err(|e| StoreError::io(path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Codec for a toy artifact: a vector of u32 with a declared byte cost.
    struct ToyArtifact {
        values: Vec<u32>,
        cost: usize,
    }

    struct ToyCodec;

    impl ArtifactCodec for ToyCodec {
        fn id(&self) -> u32 {
            99
        }
        fn name(&self) -> &'static str {
            "toy"
        }
        fn encode(&self, artifact: &(dyn Any + Send + Sync)) -> Option<Sections> {
            let toy = artifact.downcast_ref::<ToyArtifact>()?;
            let mut s = Sections::new();
            s.scalar(toy.cost as u64);
            s.u32s(&toy.values);
            Some(s)
        }
        fn decode(&self, file: &StoreFile) -> Result<(Arc<dyn Any + Send + Sync>, usize)> {
            let mut cur = file.cursor()?;
            let cost = cur.scalar_usize()?;
            let values = cur.u32s()?.to_vec();
            cur.finish()?;
            Ok((Arc::new(ToyArtifact { values, cost }), cost))
        }
    }

    fn store_in(name: &str) -> (ArtifactStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!("er_store_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir, vec![Box::new(ToyCodec)]).expect("open store");
        (store, dir)
    }

    fn toy_prepared(values: Vec<u32>, cost: usize, prepare_ms: u64) -> Prepared {
        let mut b = PhaseBreakdown::new();
        b.record_in(Stage::Prepare, "build", Duration::from_millis(prepare_ms));
        Prepared::new(ToyArtifact { values, cost }, cost, b)
    }

    fn key(repr: &str) -> ArtifactKey {
        ArtifactKey::new(0xabcd, repr)
    }

    #[test]
    fn store_then_load_roundtrips() {
        let (store, dir) = store_in("roundtrip");
        let wrote = store
            .store(&key("toy:a"), &toy_prepared(vec![3, 1, 4, 1, 5], 64, 12))
            .expect("store");
        assert!(wrote);
        // Second store of the same key is a no-op.
        assert!(!store
            .store(&key("toy:a"), &toy_prepared(vec![3, 1, 4, 1, 5], 64, 12))
            .expect("re-store"));
        match store.load(&key("toy:a")) {
            TierLoad::Hit { prepared, saved } => {
                let toy = prepared.downcast::<ToyArtifact>();
                assert_eq!(toy.values, vec![3, 1, 4, 1, 5]);
                assert_eq!(prepared.bytes(), 64);
                assert_eq!(saved, Duration::from_millis(12));
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_mismatched_keys() {
        let (store, dir) = store_in("mismatch");
        assert!(matches!(store.load(&key("toy:absent")), TierLoad::Miss));
        store
            .store(&key("toy:a"), &toy_prepared(vec![1], 4, 0))
            .expect("store");
        // Same file name can only come from the same (dataset, repr), so a
        // mismatch requires a hash collision — simulate by renaming.
        let other = key("toy:b");
        std::fs::rename(store.file_path(&key("toy:a")), store.file_path(&other)).expect("rename");
        match store.load(&other) {
            TierLoad::Failed(msg) => assert!(msg.contains("wanted"), "{msg}"),
            other => panic!("expected failed, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_flipped_byte_is_a_structured_failure() {
        let (store, dir) = store_in("flip");
        store
            .store(&key("toy:a"), &toy_prepared((0..40).collect(), 256, 5))
            .expect("store");
        let path = store.file_path(&key("toy:a"));
        let original = std::fs::read(&path).expect("read");
        for offset in 0..original.len() {
            flip_byte(&path, offset).expect("flip");
            match store.load(&key("toy:a")) {
                TierLoad::Failed(_) => {}
                other => panic!("byte {offset}: expected failure, got {other:?}"),
            }
            std::fs::write(&path, &original).expect("restore");
        }
        // Restored intact: loads again.
        assert!(matches!(store.load(&key("toy:a")), TierLoad::Hit { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_files_are_overwritten_by_store() {
        let (store, dir) = store_in("heal");
        store
            .store(&key("toy:a"), &toy_prepared(vec![7], 8, 0))
            .expect("store");
        let path = store.file_path(&key("toy:a"));
        flip_byte(&path, 100).expect("flip");
        assert!(matches!(store.load(&key("toy:a")), TierLoad::Failed(_)));
        assert!(store
            .store(&key("toy:a"), &toy_prepared(vec![7], 8, 0))
            .expect("re-store overwrites damage"));
        assert!(matches!(store.load(&key("toy:a")), TierLoad::Hit { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_and_gc_walk_the_directory() {
        let (store, dir) = store_in("gc");
        store
            .store(&key("toy:a"), &toy_prepared(vec![1, 2], 16, 0))
            .expect("store a");
        store
            .store(&key("toy:b"), &toy_prepared(vec![3], 8, 0))
            .expect("store b");
        assert!(store
            .verify()
            .expect("verify")
            .iter()
            .all(|(_, v)| v.is_ok()));
        let infos = store.inspect().expect("inspect");
        assert_eq!(infos.len(), 2);
        for (_, info) in &infos {
            let info = info.as_ref().expect("readable");
            assert_eq!(info.codec_name, Some("toy"));
            assert!(
                info.layout().starts_with("u64[1] u32["),
                "{}",
                info.layout()
            );
        }
        // Damage one file and drop a stale temp: gc removes both.
        flip_byte(&store.file_path(&key("toy:b")), 80).expect("flip");
        std::fs::write(dir.join("x.tmp.123"), b"partial").expect("tmp");
        let report = store.gc().expect("gc");
        assert_eq!(
            (report.removed, report.kept, report.orphaned),
            (2, 1, 0),
            "{report:?}"
        );
        assert!(store
            .verify()
            .expect("verify")
            .iter()
            .all(|(_, v)| v.is_ok()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment artifact: identical payload to [`ToyArtifact`], but its
    /// codec marks the files as manifest-owned.
    struct ToySegment {
        values: Vec<u32>,
        cost: usize,
    }

    struct ToySegmentCodec;

    impl ArtifactCodec for ToySegmentCodec {
        fn id(&self) -> u32 {
            98
        }
        fn name(&self) -> &'static str {
            "toy-segment"
        }
        fn encode(&self, artifact: &(dyn Any + Send + Sync)) -> Option<Sections> {
            let seg = artifact.downcast_ref::<ToySegment>()?;
            let mut s = Sections::new();
            s.scalar(seg.cost as u64);
            s.u32s(&seg.values);
            Some(s)
        }
        fn decode(&self, file: &StoreFile) -> Result<(Arc<dyn Any + Send + Sync>, usize)> {
            let mut cur = file.cursor()?;
            let cost = cur.scalar_usize()?;
            let values = cur.u32s()?.to_vec();
            cur.finish()?;
            Ok((Arc::new(ToySegment { values, cost }), cost))
        }
        fn is_segment(&self) -> bool {
            true
        }
    }

    /// A manifest artifact: a list of segment repr keys it owns.
    struct ToyManifest {
        refs: Vec<String>,
    }

    struct ToyManifestCodec;

    impl ArtifactCodec for ToyManifestCodec {
        fn id(&self) -> u32 {
            97
        }
        fn name(&self) -> &'static str {
            "toy-manifest"
        }
        fn encode(&self, artifact: &(dyn Any + Send + Sync)) -> Option<Sections> {
            let m = artifact.downcast_ref::<ToyManifest>()?;
            let mut s = Sections::new();
            s.bytes(m.refs.join("\n").as_bytes());
            Some(s)
        }
        fn decode(&self, file: &StoreFile) -> Result<(Arc<dyn Any + Send + Sync>, usize)> {
            let mut cur = file.cursor()?;
            let text = String::from_utf8_lossy(cur.bytes()?).into_owned();
            cur.finish()?;
            let refs: Vec<String> = text.lines().map(str::to_owned).collect();
            Ok((Arc::new(ToyManifest { refs }), 0))
        }
        fn referenced_reprs(&self, file: &StoreFile) -> Result<Vec<String>> {
            let mut cur = file.cursor()?;
            let text = String::from_utf8_lossy(cur.bytes()?).into_owned();
            Ok(text.lines().map(str::to_owned).collect())
        }
    }

    #[test]
    fn gc_collects_segments_no_manifest_references() {
        let dir = std::env::temp_dir().join(format!("er_store_orphan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(
            &dir,
            vec![
                Box::new(ToyCodec),
                Box::new(ToySegmentCodec),
                Box::new(ToyManifestCodec),
            ],
        )
        .expect("open store");
        let seg = |values: Vec<u32>| {
            let cost = values.len() * 4;
            Prepared::new(ToySegment { values, cost }, cost, PhaseBreakdown::new())
        };
        // The manifest adopts segment `a`; segment `b` was written by an
        // interrupted compaction that never swapped its manifest in.
        store.store(&key("toyseg:a"), &seg(vec![1, 2])).expect("a");
        store.store(&key("toyseg:b"), &seg(vec![3])).expect("b");
        store
            .store(
                &key("toy:manifest"),
                &Prepared::new(
                    ToyManifest {
                        refs: vec!["toyseg:a".to_owned()],
                    },
                    0,
                    PhaseBreakdown::new(),
                ),
            )
            .expect("manifest");
        // A plain (non-segment) artifact is never orphan-collected.
        store
            .store(&key("toy:plain"), &toy_prepared(vec![7], 8, 0))
            .expect("plain");

        let report = store.gc().expect("gc");
        assert_eq!(
            (report.removed, report.kept, report.orphaned),
            (1, 3, 1),
            "{report:?}"
        );
        assert!(!store.file_path(&key("toyseg:b")).exists(), "orphan gone");
        assert!(store.file_path(&key("toyseg:a")).exists(), "adopted kept");
        // Inspect surfaces the manifest's references and the segment flag.
        let infos = store.inspect().expect("inspect");
        let manifest = infos
            .iter()
            .filter_map(|(_, i)| i.as_ref().ok())
            .find(|i| i.repr == "toy:manifest")
            .expect("manifest info");
        assert_eq!(manifest.referenced, vec!["toyseg:a".to_owned()]);
        let seg_info = infos
            .iter()
            .filter_map(|(_, i)| i.as_ref().ok())
            .find(|i| i.repr == "toyseg:a")
            .expect("segment info");
        assert!(seg_info.segment);
        // A second sweep is a fixpoint.
        let again = store.gc().expect("gc again");
        assert_eq!((again.removed, again.kept, again.orphaned), (0, 3, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_shard_family_while_any_root_survives() {
        let dir = std::env::temp_dir().join(format!("er_store_shardgc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(
            &dir,
            vec![Box::new(ToySegmentCodec), Box::new(ToyManifestCodec)],
        )
        .expect("open store");
        let seg = |values: Vec<u32>| {
            let cost = values.len() * 4;
            Prepared::new(ToySegment { values, cost }, cost, PhaseBreakdown::new())
        };
        let manifest = |refs: Vec<&str>| {
            Prepared::new(
                ToyManifest {
                    refs: refs.into_iter().map(str::to_owned).collect(),
                },
                0,
                PhaseBreakdown::new(),
            )
        };
        // A two-shard family: each shard has one segment and one manifest
        // adopting it. Shard 1's manifest is then lost (torn write).
        store
            .store(&key("idx#shard0/2#seg0"), &seg(vec![1]))
            .expect("s0 seg");
        store
            .store(&key("idx#shard1/2#seg0"), &seg(vec![2]))
            .expect("s1 seg");
        store
            .store(
                &key("idx#shard0/2#manifest"),
                &manifest(vec!["idx#shard0/2#seg0"]),
            )
            .expect("s0 manifest");
        store
            .store(
                &key("idx#shard1/2#manifest"),
                &manifest(vec!["idx#shard1/2#seg0"]),
            )
            .expect("s1 manifest");
        std::fs::remove_file(store.file_path(&key("idx#shard1/2#manifest"))).expect("tear");

        // Shard 0's manifest keeps the whole family alive: shard 1's
        // now-unreferenced segment survives gc.
        let report = store.gc().expect("gc");
        assert_eq!(
            (report.removed, report.kept, report.orphaned),
            (0, 3, 0),
            "{report:?}"
        );
        assert!(store.file_path(&key("idx#shard1/2#seg0")).exists());

        // With the last root gone the family is unreachable and both
        // segments are collected like any other orphans.
        std::fs::remove_file(store.file_path(&key("idx#shard0/2#manifest"))).expect("drop root");
        let report = store.gc().expect("gc rootless");
        assert_eq!(
            (report.removed, report.kept, report.orphaned),
            (2, 0, 2),
            "{report:?}"
        );
        assert!(!store.file_path(&key("idx#shard0/2#seg0")).exists());
        assert!(!store.file_path(&key("idx#shard1/2#seg0")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sorted `(name, size)` listing of a directory, for write-free proofs.
    fn dir_listing(dir: &Path) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
            .expect("read_dir")
            .map(|e| {
                let e = e.expect("entry");
                (
                    e.file_name().to_string_lossy().into_owned(),
                    e.metadata().expect("meta").len(),
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn read_only_open_of_missing_dir_is_a_structured_error() {
        let dir = std::env::temp_dir().join(format!("er_store_ro_missing_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let err = ArtifactStore::open_read_only(&dir, vec![Box::new(ToyCodec)])
            .expect_err("must not create");
        assert!(matches!(err, StoreError::MissingDir(_)), "{err:?}");
        assert!(err.to_string().contains("does not exist"), "{err}");
        // The open must not have created the directory as a side effect.
        assert!(!dir.exists());
    }

    #[test]
    fn read_only_store_loads_but_never_writes() {
        let (store, dir) = store_in("readonly");
        store
            .store(&key("toy:a"), &toy_prepared(vec![4, 2], 16, 3))
            .expect("seed store");
        let before = dir_listing(&dir);

        let ro = ArtifactStore::open_read_only(&dir, vec![Box::new(ToyCodec)]).expect("ro open");
        assert_eq!(ro.mode(), OpenMode::ReadOnly);
        // Loads work exactly as in read-write mode.
        assert!(matches!(ro.load(&key("toy:a")), TierLoad::Hit { .. }));
        // A spill of a *new* key reports "nothing written" and creates no file.
        assert!(!ro
            .store(&key("toy:new"), &toy_prepared(vec![1], 8, 0))
            .expect("read-only store is a no-op"));
        // gc is refused outright.
        match ro.gc() {
            Err(StoreError::ReadOnly(op)) => assert_eq!(op, "gc"),
            other => panic!("expected refusal, got {other:?}"),
        }
        assert_eq!(dir_listing(&dir), before, "read-only store touched the dir");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_at_the_store_site_fail_structurally() {
        let (store, dir) = store_in("faults");
        store
            .store(&key("toy:a"), &toy_prepared(vec![9], 8, 0))
            .expect("store");
        // Repr keys contain ':', which the spec grammar reserves for
        // options — target the site with a trailing wildcard, as the
        // prepare/<repr> sites do.
        let corrupt = faults::FaultPlan::parse("corrupt@store/toy*").expect("plan");
        faults::with_plan(corrupt, || match store.load(&key("toy:a")) {
            TierLoad::Failed(msg) => assert!(msg.contains("injected"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        });
        let panic_plan = faults::FaultPlan::parse("panic@store/toy*").expect("plan");
        faults::with_plan(panic_plan, || match store.load(&key("toy:a")) {
            TierLoad::Failed(msg) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        });
        // Unfaulted, the file is intact.
        assert!(matches!(store.load(&key("toy:a")), TierLoad::Hit { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
