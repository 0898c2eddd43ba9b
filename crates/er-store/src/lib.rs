//! Persistent artifact store: keep prepared filtering artifacts across
//! processes.
//!
//! The in-memory `er_core::artifacts::ArtifactCache` makes each
//! *representation* (token sets, postings, embeddings, LSH tables,
//! blocking graphs) get prepared once per sweep. This crate adds the tier
//! below it — a directory of versioned, checksummed, single-file artifacts
//! — so the next *process* doesn't prepare them at all:
//!
//! - [`mod@format`]: the on-disk layout. A 64-byte little-endian header
//!   (magic, version, dataset fingerprint, repr key, whole-file XXH64), a
//!   section table, and 64-byte-aligned flat-array sections with their own
//!   checksums.
//! - [`mapping`]: the two load paths — zero-copy `mmap` views (with a
//!   hand-rolled `mmap(2)` binding; the build has no external crates) and
//!   a safe owned read fallback.
//! - [`store`]: [`store::ArtifactStore`], the cache's
//!   `DiskTier` implementation. Lookup misses probe the directory, budget
//!   evictions spill instead of dropping, and every way a file can be bad
//!   (truncated, bit-flipped, version- or key-mismatched) is a structured
//!   [`err::StoreError`] that falls back to re-preparing — never a panic.
//!   Loads fire the `store/<repr_key>` fault site for fault-injection
//!   testing.
//!
//! Serialization is per-family: each filter crate registers an
//! [`store::ArtifactCodec`] for its artifact types; `er-bench` assembles
//! the full registry. Decoded artifacts must report byte-identical
//! `heap_bytes` to freshly prepared ones, so cache-budget behavior is
//! independent of where an artifact came from.

pub mod err;
pub mod format;
pub mod mapping;
pub mod store;
pub mod xxh;

pub use err::{Result, StoreError};
pub use format::{DType, SectionCursor, SectionInfo, Sections, StoreFile, StoreMeta};
pub use store::{ArtifactCodec, ArtifactStore, FileInfo, GcReport, OpenMode, SectionRatio};
