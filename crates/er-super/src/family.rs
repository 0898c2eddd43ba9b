//! Shard-family verification and bootstrap.
//!
//! A *shard family* is the set of per-shard segment manifests
//! `{repr}#shard{s}/{n}#manifest` for `s in 0..n` that a sharded serve
//! daemon persists. Before spawning any child the supervisor classifies
//! the family in the store:
//!
//! - **complete** — every manifest present; children restore their
//!   subsets with zero prepare work.
//! - **absent** — no manifest present; the supervisor bootstraps the
//!   family once (a full in-process [`Engine::open`] cold split plus
//!   persist), then spawns children against the freshly written
//!   manifests.
//! - **torn** — some but not all present; startup is refused with a
//!   structured error naming every missing shard, before any child
//!   exists. A torn family means a previous persist was interrupted;
//!   silently rebuilding over it could serve a smaller collection.

use er::core::artifacts::ArtifactKey;
use er::core::schema::TextView;
use er::core::shard::shard_repr;
use er::sparse::segmented::manifest_repr;
use er_serve::{Engine, ServeMethod};
use std::path::Path;

/// The classification of one shard family in a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilyState {
    /// Every per-shard manifest is present.
    Complete,
    /// No per-shard manifest is present (nothing persisted yet).
    Absent,
    /// Some manifests are missing — the shard indices that lack one.
    Torn { missing: Vec<u32> },
}

/// Probes the store for the `shards`-way family of `base_repr` under
/// `dataset`, by manifest-file existence (no artifact is decoded).
pub fn probe_family(
    store_dir: &Path,
    dataset: u64,
    base_repr: &str,
    shards: u32,
) -> Result<FamilyState, String> {
    let store = er_bench::open_store_read_only(store_dir)
        .map_err(|e| format!("open store {}: {e}", store_dir.display()))?;
    let mut missing = Vec::new();
    let mut present = 0u32;
    for s in 0..shards {
        let base = shard_repr(base_repr, s, shards);
        let key = ArtifactKey::new(dataset, manifest_repr(&base));
        if store.file_path(&key).exists() {
            present += 1;
        } else {
            missing.push(s);
        }
    }
    Ok(match (present, missing.is_empty()) {
        (_, true) => FamilyState::Complete,
        (0, false) => FamilyState::Absent,
        (_, false) => FamilyState::Torn { missing },
    })
}

/// The structured refusal for a torn family: the same text a serving
/// engine's restore gives, naming every missing shard.
pub use er::sparse::sharded::torn_family_error as torn_error;

/// Ensures a complete `shards`-way family exists for `view`+`method`,
/// bootstrapping it from the monolithic sweep artifact when absent and
/// refusing (with [`torn_error`]) when torn. Returns whether a
/// bootstrap ran.
pub fn ensure_family(
    store_dir: &Path,
    view: &TextView,
    method: &ServeMethod,
    shards: u32,
) -> Result<bool, String> {
    let dataset = view.fingerprint();
    let base_repr = method.repr_key();
    match probe_family(store_dir, dataset, &base_repr, shards)? {
        FamilyState::Complete => Ok(false),
        FamilyState::Torn { missing } => Err(torn_error(&base_repr, shards, &missing)),
        FamilyState::Absent if shards <= 1 => {
            // A single-shard child opens the monolithic artifact
            // directly (classic `er serve`); no persisted family needed.
            Ok(false)
        }
        FamilyState::Absent => {
            let engine = Engine::open(store_dir, view, *method, shards)
                .map_err(|e| format!("bootstrap shard family: {e}"))?;
            engine
                .persist_if_dirty()
                .map_err(|e| format!("persist bootstrapped shard family: {e}"))?;
            match probe_family(store_dir, dataset, &base_repr, shards)? {
                FamilyState::Complete => Ok(true),
                other => Err(format!(
                    "bootstrap persisted no complete family for {base_repr:?} ({other:?})"
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torn_error_names_every_missing_shard() {
        let msg = torn_error("jac#C3G", 4, &[1, 3]);
        assert!(msg.contains("shard1/4"), "{msg}");
        assert!(msg.contains("shard3/4"), "{msg}");
        assert!(msg.contains("refusing"), "{msg}");
    }

    #[test]
    fn probe_classifies_missing_store_as_error() {
        let err = probe_family(Path::new("/nonexistent/er-super-test"), 1, "jac", 2)
            .expect_err("store directory does not exist");
        assert!(err.contains("open store"), "{err}");
    }
}
