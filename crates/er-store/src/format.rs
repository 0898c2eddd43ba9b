//! The single-file, versioned, checksummed artifact format.
//!
//! ```text
//! offset    size  field
//! 0         8     magic "ERSTOR01"
//! 8         4     format version (little-endian u32, currently 1)
//! 12        4     codec id (which family codec wrote the payload)
//! 16        8     dataset fingerprint (TextView::fingerprint)
//! 24        8     original prepare cost in nanoseconds
//! 32        8     artifact heap bytes (cache-budget accounting)
//! 40        4     section count (incl. the scalar section 0)
//! 44        4     repr_key length in bytes
//! 48        8     XXH64 of the whole file with this field zeroed
//! 56        8     reserved (zero)
//! 64        n     repr_key (UTF-8), zero-padded to a 64-byte boundary
//! …         32·k  section table: {tag u32, dtype u32, offset u64,
//!                                  len u64, xxh64 u64} per section
//! …               sections, each starting on a 64-byte boundary
//! ```
//!
//! Everything is little-endian. Sections are 64-byte aligned so that a
//! page-aligned `mmap` (or the 8-byte-aligned owned buffer) can serve
//! `&[u32]`/`&[u64]`/`&[f32]` views of the flat arrays without copying.
//! Section 0 always holds the codec's scalars as packed u64s; sections
//! 1… hold its flat arrays in the order the codec pushed them, which is
//! also the order the decode cursor consumes them.
//!
//! Corruption detection is two-level: the header's whole-file XXH64
//! catches any single flipped byte anywhere (including in the padding and
//! the table itself), while the per-section checksums let
//! `er store verify` report *which* array is damaged.

use crate::err::{Result, StoreError};
use crate::mapping::Backing;
use crate::xxh::xxh64;
use std::path::{Path, PathBuf};

/// Magic bytes opening every store file.
pub const MAGIC: [u8; 8] = *b"ERSTOR01";
/// The format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;
/// Alignment of the repr key, section table and every section.
pub const ALIGN: usize = 64;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 64;
/// Byte offset of the whole-file checksum inside the header.
const FILE_XXH_OFFSET: usize = 48;
/// Size of one section-table entry.
const TABLE_ENTRY_LEN: usize = 32;
/// Sanity caps: a header demanding more than this is malformed, not huge.
const MAX_SECTIONS: u32 = 65_536;
const MAX_REPR_LEN: u32 = 65_536;

/// Element type of a section, for typed views and `inspect` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// Raw bytes.
    Bytes,
    /// Little-endian `u32`s.
    U32,
    /// Little-endian `u64`s.
    U64,
    /// Little-endian IEEE-754 `f32`s.
    F32,
}

impl DType {
    fn code(self) -> u32 {
        match self {
            DType::Bytes => 0,
            DType::U32 => 1,
            DType::U64 => 2,
            DType::F32 => 3,
        }
    }

    fn from_code(code: u32) -> Result<Self> {
        match code {
            0 => Ok(DType::Bytes),
            1 => Ok(DType::U32),
            2 => Ok(DType::U64),
            3 => Ok(DType::F32),
            other => Err(StoreError::Malformed(format!("unknown dtype {other}"))),
        }
    }

    /// Element size in bytes.
    pub fn elem_bytes(self) -> usize {
        match self {
            DType::Bytes => 1,
            DType::U32 | DType::F32 => 4,
            DType::U64 => 8,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DType::Bytes => "bytes",
            DType::U32 => "u32",
            DType::U64 => "u64",
            DType::F32 => "f32",
        }
    }
}

/// Identity and bookkeeping stamped into a file's header.
#[derive(Debug, Clone)]
pub struct StoreMeta {
    /// Which codec wrote (and can read) the payload.
    pub codec_id: u32,
    /// Fingerprint of the texts the artifact was prepared from.
    pub dataset_fp: u64,
    /// The representation key of the preparing filter.
    pub repr: String,
    /// Original prepare cost, for the cache's `prepare_saved` accounting.
    pub prepare_nanos: u64,
    /// The artifact's reported heap bytes.
    pub heap_bytes: u64,
}

/// The payload a codec emits: scalars plus typed flat arrays, in a fixed
/// order that the decode cursor replays.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Sections {
    scalars: Vec<u64>,
    parts: Vec<(DType, Vec<u8>)>,
}

impl Sections {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one scalar to section 0.
    pub fn scalar(&mut self, v: u64) {
        self.scalars.push(v);
    }

    /// Appends a `u32` array section.
    pub fn u32s(&mut self, v: &[u32]) {
        self.parts.push((DType::U32, le_bytes_u32(v)));
    }

    /// Appends a `u64` array section.
    pub fn u64s(&mut self, v: &[u64]) {
        self.parts.push((DType::U64, le_bytes_u64(v)));
    }

    /// Appends an `f32` array section.
    pub fn f32s(&mut self, v: &[f32]) {
        self.parts.push((DType::F32, le_bytes_f32(v)));
    }

    /// Appends a raw byte section.
    pub fn bytes(&mut self, v: &[u8]) {
        self.parts.push((DType::Bytes, v.to_vec()));
    }
}

fn le_bytes_u32(v: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn le_bytes_u64(v: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn le_bytes_f32(v: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn pad_to(buf: &mut Vec<u8>, align: usize) {
    let rem = buf.len() % align;
    if rem != 0 {
        buf.resize(buf.len() + (align - rem), 0);
    }
}

/// Serializes and atomically writes one artifact file; returns its size.
///
/// The file is assembled in memory, checksummed, written to a
/// process-unique temporary sibling and renamed into place, so a crash or
/// an injected `kill` mid-write can never leave a torn file under the
/// final name.
pub fn write_store(path: &Path, meta: &StoreMeta, sections: &Sections) -> Result<u64> {
    let mut table: Vec<(u32, DType, &[u8])> = Vec::with_capacity(1 + sections.parts.len());
    let scalar_bytes = le_bytes_u64(&sections.scalars);
    table.push((0, DType::U64, &scalar_bytes));
    for (i, (dtype, bytes)) in sections.parts.iter().enumerate() {
        table.push((i as u32 + 1, *dtype, bytes));
    }

    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&meta.codec_id.to_le_bytes());
    buf.extend_from_slice(&meta.dataset_fp.to_le_bytes());
    buf.extend_from_slice(&meta.prepare_nanos.to_le_bytes());
    buf.extend_from_slice(&meta.heap_bytes.to_le_bytes());
    buf.extend_from_slice(&(table.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(meta.repr.len() as u32).to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes()); // file checksum, patched below
    buf.extend_from_slice(&0u64.to_le_bytes()); // reserved
    debug_assert_eq!(buf.len(), HEADER_LEN);

    buf.extend_from_slice(meta.repr.as_bytes());
    pad_to(&mut buf, ALIGN);

    // Lay the sections out after the table to learn their offsets.
    let table_off = buf.len();
    let mut data_off = table_off + table.len() * TABLE_ENTRY_LEN;
    data_off += (ALIGN - data_off % ALIGN) % ALIGN;
    for (tag, dtype, bytes) in &table {
        buf.extend_from_slice(&tag.to_le_bytes());
        buf.extend_from_slice(&dtype.code().to_le_bytes());
        buf.extend_from_slice(&(data_off as u64).to_le_bytes());
        buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(&xxh64(bytes, 0).to_le_bytes());
        data_off += bytes.len();
        data_off += (ALIGN - data_off % ALIGN) % ALIGN;
    }
    for (_, _, bytes) in &table {
        pad_to(&mut buf, ALIGN);
        buf.extend_from_slice(bytes);
    }

    // Whole-file checksum with its own field zeroed.
    let file_xxh = xxh64(&buf, 0);
    buf[FILE_XXH_OFFSET..FILE_XXH_OFFSET + 8].copy_from_slice(&file_xxh.to_le_bytes());

    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, &buf).map_err(|e| StoreError::io(&tmp, &e))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        StoreError::io(path, &e)
    })?;
    Ok(buf.len() as u64)
}

/// One parsed section-table entry.
#[derive(Debug, Clone, Copy)]
pub struct SectionInfo {
    /// Sequential tag (0 = scalars).
    pub tag: u32,
    /// Element type.
    pub dtype: DType,
    /// Byte offset in the file (64-byte aligned).
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// XXH64 of the section bytes.
    pub xxh: u64,
}

/// An open, structurally validated store file.
///
/// Opening verifies the magic, version, layout invariants and the
/// whole-file checksum — a file that opens is byte-for-byte the file that
/// was written. Typed section views borrow straight from the backing
/// (zero-copy when mapped).
#[derive(Debug)]
pub struct StoreFile {
    backing: Backing,
    path: PathBuf,
    codec_id: u32,
    dataset_fp: u64,
    prepare_nanos: u64,
    heap_bytes: u64,
    repr: String,
    table: Vec<SectionInfo>,
}

fn get_u32(bytes: &[u8], off: usize) -> Result<u32> {
    let raw = bytes
        .get(off..off + 4)
        .ok_or(StoreError::Truncated { what: "header" })?;
    Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
}

fn get_u64(bytes: &[u8], off: usize, what: &'static str) -> Result<u64> {
    let raw = bytes
        .get(off..off + 8)
        .ok_or(StoreError::Truncated { what })?;
    Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
}

impl StoreFile {
    /// Opens `path`, preferring a zero-copy memory mapping.
    pub fn open(path: &Path) -> Result<Self> {
        Self::parse(Backing::open(path)?, path)
    }

    /// Opens `path` through the safe owned-read path (no `mmap`).
    pub fn open_owned(path: &Path) -> Result<Self> {
        Self::parse(Backing::read(path)?, path)
    }

    fn parse(backing: Backing, path: &Path) -> Result<Self> {
        let bytes = backing.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated { what: "header" });
        }
        if bytes[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = get_u32(bytes, 8)?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let codec_id = get_u32(bytes, 12)?;
        let dataset_fp = get_u64(bytes, 16, "header")?;
        let prepare_nanos = get_u64(bytes, 24, "header")?;
        let heap_bytes = get_u64(bytes, 32, "header")?;
        let section_count = get_u32(bytes, 40)?;
        let repr_len = get_u32(bytes, 44)?;
        let stored_xxh = get_u64(bytes, FILE_XXH_OFFSET, "header")?;
        if section_count == 0 || section_count > MAX_SECTIONS {
            return Err(StoreError::Malformed(format!(
                "section count {section_count}"
            )));
        }
        if repr_len > MAX_REPR_LEN {
            return Err(StoreError::Malformed(format!("repr length {repr_len}")));
        }

        // Whole-file checksum before trusting anything else: any single
        // corrupted byte — data, table, padding or header — fails here.
        let mut zeroed_header = [0u8; HEADER_LEN];
        zeroed_header.copy_from_slice(&bytes[..HEADER_LEN]);
        zeroed_header[FILE_XXH_OFFSET..FILE_XXH_OFFSET + 8].fill(0);
        let mut h = crate::xxh::Xxh64Stream::default();
        h.update(&zeroed_header);
        h.update(&bytes[HEADER_LEN..]);
        if h.finish() != stored_xxh {
            return Err(StoreError::Corrupt {
                region: "file".to_owned(),
            });
        }

        let repr_end = HEADER_LEN
            .checked_add(repr_len as usize)
            .ok_or_else(|| StoreError::Malformed("repr length overflow".to_owned()))?;
        let repr_bytes = bytes
            .get(HEADER_LEN..repr_end)
            .ok_or(StoreError::Truncated { what: "repr key" })?;
        let repr = std::str::from_utf8(repr_bytes)
            .map_err(|_| StoreError::Malformed("repr key is not UTF-8".to_owned()))?
            .to_owned();

        let table_off = repr_end + (ALIGN - repr_end % ALIGN) % ALIGN;
        let mut table = Vec::with_capacity(section_count as usize);
        for i in 0..section_count as usize {
            let entry = table_off + i * TABLE_ENTRY_LEN;
            let tag = get_u32(bytes, entry)?;
            let dtype = DType::from_code(get_u32(bytes, entry + 4)?)?;
            let offset = get_u64(bytes, entry + 8, "section table")?;
            let len = get_u64(bytes, entry + 16, "section table")?;
            let xxh = get_u64(bytes, entry + 24, "section table")?;
            if tag != i as u32 {
                return Err(StoreError::Malformed(format!("section {i} has tag {tag}")));
            }
            if offset % ALIGN as u64 != 0 {
                return Err(StoreError::Malformed(format!(
                    "section {i} offset {offset} unaligned"
                )));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| StoreError::Malformed("section extent overflow".to_owned()))?;
            if end > bytes.len() as u64 {
                return Err(StoreError::Truncated { what: "section" });
            }
            if len % dtype.elem_bytes() as u64 != 0 {
                return Err(StoreError::Malformed(format!(
                    "section {i} length {len} not a multiple of {}",
                    dtype.elem_bytes()
                )));
            }
            table.push(SectionInfo {
                tag,
                dtype,
                offset,
                len,
                xxh,
            });
        }
        if table[0].dtype != DType::U64 {
            return Err(StoreError::Malformed(
                "section 0 must hold u64 scalars".to_owned(),
            ));
        }

        Ok(StoreFile {
            backing,
            path: path.to_owned(),
            codec_id,
            dataset_fp,
            prepare_nanos,
            heap_bytes,
            repr,
            table,
        })
    }

    /// The codec id stamped at write time.
    pub fn codec_id(&self) -> u32 {
        self.codec_id
    }

    /// The dataset fingerprint stamped at write time.
    pub fn dataset_fp(&self) -> u64 {
        self.dataset_fp
    }

    /// The original prepare cost in nanoseconds.
    pub fn prepare_nanos(&self) -> u64 {
        self.prepare_nanos
    }

    /// The artifact's reported heap bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.heap_bytes
    }

    /// The representation key the file holds.
    pub fn repr(&self) -> &str {
        &self.repr
    }

    /// The path this file was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// File size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.backing.bytes().len()
    }

    /// True when served through `mmap` (zero-copy views).
    pub fn is_mapped(&self) -> bool {
        self.backing.is_mapped()
    }

    /// The parsed section table.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.table
    }

    /// Raw bytes of section `idx`.
    pub fn section_bytes(&self, idx: usize) -> Result<&[u8]> {
        let info = self
            .table
            .get(idx)
            .ok_or_else(|| StoreError::Malformed(format!("no section {idx}")))?;
        // Extents were bounds-checked at parse time.
        Ok(&self.backing.bytes()[info.offset as usize..(info.offset + info.len) as usize])
    }

    /// Re-verifies every per-section checksum (`er store verify`).
    pub fn verify_sections(&self) -> Result<()> {
        for (i, info) in self.table.iter().enumerate() {
            if xxh64(self.section_bytes(i)?, 0) != info.xxh {
                return Err(StoreError::Corrupt {
                    region: format!("section {i} ({})", info.dtype.name()),
                });
            }
        }
        Ok(())
    }

    /// A cursor replaying the sections in the order the codec wrote them.
    pub fn cursor(&self) -> Result<SectionCursor<'_>> {
        let scalars = view_u64s(self.section_bytes(0)?)?;
        Ok(SectionCursor {
            file: self,
            scalars,
            scalar_next: 0,
            section_next: 1,
        })
    }
}

/// Sequential typed access to a [`StoreFile`]'s payload, mirroring the
/// [`Sections`] builder: scalars come from section 0, arrays from
/// sections 1… in push order. Views borrow from the backing — on the
/// mapped path they are zero-copy windows into the page cache.
#[derive(Debug)]
pub struct SectionCursor<'a> {
    file: &'a StoreFile,
    scalars: &'a [u64],
    scalar_next: usize,
    section_next: usize,
}

impl<'a> SectionCursor<'a> {
    /// Next scalar from section 0.
    pub fn scalar(&mut self) -> Result<u64> {
        let v = self
            .scalars
            .get(self.scalar_next)
            .copied()
            .ok_or_else(|| StoreError::Malformed("scalar section exhausted".to_owned()))?;
        self.scalar_next += 1;
        Ok(v)
    }

    /// Next scalar, converted to `usize`.
    pub fn scalar_usize(&mut self) -> Result<usize> {
        let v = self.scalar()?;
        usize::try_from(v).map_err(|_| StoreError::Malformed(format!("scalar {v} overflows")))
    }

    fn next_section(&mut self, dtype: DType) -> Result<&'a [u8]> {
        let idx = self.section_next;
        let info = self
            .file
            .sections()
            .get(idx)
            .ok_or_else(|| StoreError::Malformed("payload sections exhausted".to_owned()))?;
        if info.dtype != dtype {
            return Err(StoreError::Malformed(format!(
                "section {idx} holds {}, expected {}",
                info.dtype.name(),
                dtype.name()
            )));
        }
        self.section_next += 1;
        self.file.section_bytes(idx)
    }

    /// Next array section as `&[u32]`.
    pub fn u32s(&mut self) -> Result<&'a [u32]> {
        view_u32s(self.next_section(DType::U32)?)
    }

    /// Next array section as `&[u64]`.
    pub fn u64s(&mut self) -> Result<&'a [u64]> {
        view_u64s(self.next_section(DType::U64)?)
    }

    /// Next array section as `&[f32]`.
    pub fn f32s(&mut self) -> Result<&'a [f32]> {
        view_f32s(self.next_section(DType::F32)?)
    }

    /// Next array section as raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        self.next_section(DType::Bytes)
    }

    /// Asserts the codec consumed the whole payload.
    pub fn finish(self) -> Result<()> {
        if self.scalar_next != self.scalars.len() {
            return Err(StoreError::Malformed(format!(
                "{} unread scalars",
                self.scalars.len() - self.scalar_next
            )));
        }
        if self.section_next != self.file.sections().len() {
            return Err(StoreError::Malformed(format!(
                "{} unread sections",
                self.file.sections().len() - self.section_next
            )));
        }
        Ok(())
    }
}

macro_rules! aligned_view {
    ($name:ident, $t:ty) => {
        fn $name(bytes: &[u8]) -> Result<&[$t]> {
            let size = std::mem::size_of::<$t>();
            if bytes.len() % size != 0 {
                return Err(StoreError::Malformed(format!(
                    "section length {} not a multiple of {size}",
                    bytes.len()
                )));
            }
            if bytes.as_ptr() as usize % std::mem::align_of::<$t>() != 0 {
                // Cannot happen for 64-byte-aligned sections over an
                // aligned backing; checked so the cast below is provably
                // sound even if a caller hands in foreign bytes.
                return Err(StoreError::Malformed("unaligned section".to_owned()));
            }
            // SAFETY: length and alignment were just checked, the element
            // types accept any byte pattern, and the lifetime is tied to
            // the input borrow.
            Ok(unsafe {
                std::slice::from_raw_parts(bytes.as_ptr().cast::<$t>(), bytes.len() / size)
            })
        }
    };
}

aligned_view!(view_u32s, u32);
aligned_view!(view_u64s, u64);
aligned_view!(view_f32s, f32);

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("er_store_fmt_{}_{name}.erst", std::process::id()))
    }

    fn meta(repr: &str) -> StoreMeta {
        StoreMeta {
            codec_id: 3,
            dataset_fp: 0xfeed_beef,
            repr: repr.to_owned(),
            prepare_nanos: 1_500_000,
            heap_bytes: 4096,
        }
    }

    fn sample_sections() -> Sections {
        let mut s = Sections::new();
        s.scalar(42);
        s.scalar(7);
        s.u32s(&[1, 2, 3, 4, 5]);
        s.f32s(&[0.5, -1.25, 3.75]);
        s.u64s(&[u64::MAX, 0, 123_456_789_000]);
        s.bytes(b"tail");
        s
    }

    fn assert_payload_roundtrips(file: &StoreFile) {
        assert_eq!(file.codec_id(), 3);
        assert_eq!(file.dataset_fp(), 0xfeed_beef);
        assert_eq!(file.prepare_nanos(), 1_500_000);
        assert_eq!(file.heap_bytes(), 4096);
        assert_eq!(file.repr(), "sparse:test");
        file.verify_sections().expect("sections verify");
        let mut cur = file.cursor().expect("cursor");
        assert_eq!(cur.scalar().expect("scalar"), 42);
        assert_eq!(cur.scalar_usize().expect("scalar"), 7);
        assert_eq!(cur.u32s().expect("u32s"), &[1, 2, 3, 4, 5]);
        assert_eq!(cur.f32s().expect("f32s"), &[0.5, -1.25, 3.75]);
        assert_eq!(cur.u64s().expect("u64s"), &[u64::MAX, 0, 123_456_789_000]);
        assert_eq!(cur.bytes().expect("bytes"), b"tail");
        cur.finish().expect("fully consumed");
    }

    #[test]
    fn roundtrip_through_both_load_paths() {
        let path = temp("roundtrip");
        write_store(&path, &meta("sparse:test"), &sample_sections()).expect("write");
        for file in [
            StoreFile::open(&path).expect("mmap open"),
            StoreFile::open_owned(&path).expect("owned open"),
        ] {
            assert_payload_roundtrips(&file);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sections_are_64_byte_aligned() {
        let path = temp("align");
        write_store(&path, &meta("sparse:test"), &sample_sections()).expect("write");
        let file = StoreFile::open(&path).expect("open");
        for info in file.sections() {
            assert_eq!(info.offset % ALIGN as u64, 0, "{info:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_single_byte_flip_is_a_structured_error() {
        let path = temp("flip");
        write_store(&path, &meta("sparse:test"), &sample_sections()).expect("write");
        let original = std::fs::read(&path).expect("read back");
        // Exhaustive over the whole file: header, repr, table, padding,
        // every section.
        for i in 0..original.len() {
            let mut damaged = original.clone();
            damaged[i] ^= 0x01;
            std::fs::write(&path, &damaged).expect("write damaged");
            let err = StoreFile::open(&path).expect_err("flip must fail to open");
            assert!(
                matches!(
                    err,
                    StoreError::Corrupt { .. }
                        | StoreError::BadMagic
                        | StoreError::UnsupportedVersion(_)
                        | StoreError::Malformed(_)
                        | StoreError::Truncated { .. }
                ),
                "byte {i}: {err}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncations_are_structured_errors() {
        let path = temp("trunc");
        write_store(&path, &meta("sparse:test"), &sample_sections()).expect("write");
        let original = std::fs::read(&path).expect("read back");
        for keep in [0, 1, 7, 8, 63, 64, original.len() - 1] {
            std::fs::write(&path, &original[..keep]).expect("truncate");
            assert!(StoreFile::open(&path).is_err(), "kept {keep} bytes");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn type_confusion_in_the_cursor_is_rejected() {
        let path = temp("types");
        write_store(&path, &meta("sparse:test"), &sample_sections()).expect("write");
        let file = StoreFile::open(&path).expect("open");
        let mut cur = file.cursor().expect("cursor");
        assert!(cur.u64s().is_err(), "first payload section is u32");
        let _ = std::fs::remove_file(&path);
    }
}
