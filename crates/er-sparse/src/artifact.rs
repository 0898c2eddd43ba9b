//! The shared prepare-stage artifact of the sparse joins.
//!
//! Every sparse method (ε-Join, kNN-Join, top-k join) starts the same way:
//! tokenize both collections under a representation model (`RM`) with
//! optional cleaning (`CL`), then build a ScanCount inverted index over
//! the indexed side. Only the *query* stage differs — similarity measure,
//! ε, k. This module packages that common preparation as one artifact so
//! a grid sweep shares a single tokenization + index across every
//! configuration that only varies query-stage parameters.
//!
//! Both sides are stored as interned [`CsrTokenSets`] (flat `u32` arrays,
//! see [`crate::csr`]): the query rows are pre-interned against the
//! index's token interner once here, so every query-stage pass walks
//! contiguous ids without hashing, and the cached byte estimate is exact
//! up to the interner's hash-table slack.

use crate::csr::CsrTokenSets;
use crate::representation::RepresentationModel;
use crate::scancount::ScanCountIndex;
use er_core::filter::Prepared;
use er_core::parallel;
use er_core::schema::TextView;
use er_core::timing::{PhaseBreakdown, Stage};
use er_text::Cleaner;

/// Token sets of both sides plus the ScanCount index over the indexed
/// side. `index_sets` row `i` backs `index`; `query_sets` rows are the
/// probes, pre-interned by the index.
#[derive(Debug)]
pub struct TokenSetsArtifact {
    /// Interned token sets of the indexed collection.
    pub index_sets: CsrTokenSets,
    /// Interned token sets of the querying collection (unknown tokens
    /// dropped from the rows, original cardinalities retained).
    pub query_sets: CsrTokenSets,
    /// ScanCount inverted index over `index_sets`.
    pub index: ScanCountIndex,
}

impl TokenSetsArtifact {
    /// The representation key of this artifact: filters with equal keys
    /// (on the same view) produce interchangeable artifacts. The
    /// similarity measure and the ε/k parameters are query-stage and
    /// deliberately absent.
    pub fn repr_key(cleaning: bool, model: RepresentationModel, reversed: bool) -> String {
        format!(
            "sparse:CL={}:RM={}:RVS={}",
            if cleaning { "y" } else { "-" },
            model.name(),
            if reversed { "y" } else { "-" }
        )
    }

    /// Tokenizes both sides and builds the ScanCount index, recording the
    /// `preprocess` and `index` phases in the prepare stage. With `reversed`
    /// (the kNN `RVS` parameter) `E2` is indexed and `E1` queries.
    pub fn prepare(
        view: &TextView,
        cleaning: bool,
        model: RepresentationModel,
        reversed: bool,
    ) -> Prepared {
        let cleaner = if cleaning {
            Cleaner::on()
        } else {
            Cleaner::off()
        };
        let (index_texts, query_texts) = if reversed {
            (&view.e2, &view.e1)
        } else {
            (&view.e1, &view.e2)
        };
        let mut breakdown = PhaseBreakdown::new();
        let (raw_index_sets, raw_query_sets) =
            breakdown.time_in(Stage::Prepare, "preprocess", || {
                let a: Vec<Vec<u64>> =
                    parallel::par_map(index_texts, |t| model.token_set(t, &cleaner));
                let b: Vec<Vec<u64>> =
                    parallel::par_map(query_texts, |t| model.token_set(t, &cleaner));
                (a, b)
            });
        let (index, index_sets, query_sets) = breakdown.time_in(Stage::Prepare, "index", || {
            let (index, index_sets) = ScanCountIndex::build_with_sets(&raw_index_sets);
            let query_sets = index.intern_queries(&raw_query_sets);
            (index, index_sets, query_sets)
        });
        let bytes = index_sets.heap_bytes() + query_sets.heap_bytes() + index.heap_bytes();
        Prepared::new(
            Self {
                index_sets,
                query_sets,
                index,
            },
            bytes,
            breakdown,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> TextView {
        TextView::new(
            vec!["alpha beta".to_owned(), "gamma".to_owned()],
            vec!["alpha".to_owned()],
        )
    }

    #[test]
    fn repr_key_separates_representations_not_measures() {
        let t1g = RepresentationModel::parse("T1G").expect("T1G");
        let c2g = RepresentationModel::parse("C2G").expect("C2G");
        assert_ne!(
            TokenSetsArtifact::repr_key(false, t1g, false),
            TokenSetsArtifact::repr_key(true, t1g, false)
        );
        assert_ne!(
            TokenSetsArtifact::repr_key(false, t1g, false),
            TokenSetsArtifact::repr_key(false, c2g, false)
        );
        assert_ne!(
            TokenSetsArtifact::repr_key(false, t1g, false),
            TokenSetsArtifact::repr_key(false, t1g, true)
        );
    }

    #[test]
    fn prepare_builds_sets_and_index_with_prepare_phases() {
        let t1g = RepresentationModel::parse("T1G").expect("T1G");
        let prepared = TokenSetsArtifact::prepare(&view(), false, t1g, false);
        let art = prepared.downcast::<TokenSetsArtifact>();
        assert_eq!(art.index_sets.len(), 2);
        assert_eq!(art.query_sets.len(), 1);
        assert_eq!(art.index.len(), 2);
        assert!(prepared.bytes() > 0);
        let b = prepared.breakdown();
        assert!(b.get("preprocess").is_some() && b.get("index").is_some());
        assert_eq!(b.prepare_total(), b.total(), "all phases are prepare-stage");
    }

    #[test]
    fn reversed_prepare_swaps_sides() {
        let t1g = RepresentationModel::parse("T1G").expect("T1G");
        let prepared = TokenSetsArtifact::prepare(&view(), false, t1g, true);
        let art = prepared.downcast::<TokenSetsArtifact>();
        assert_eq!(art.index_sets.len(), 1);
        assert_eq!(art.query_sets.len(), 2);
    }

    #[test]
    fn query_rows_are_interned_against_the_index() {
        let t1g = RepresentationModel::parse("T1G").expect("T1G");
        let prepared = TokenSetsArtifact::prepare(&view(), false, t1g, false);
        let art = prepared.downcast::<TokenSetsArtifact>();
        // "alpha" occurs on both sides, so the query row holds exactly the
        // id the index assigned to it.
        assert_eq!(art.query_sets.row(0).len(), 1);
        assert_eq!(art.query_sets.set_size(0), 1);
        let mut all_index_ids: Vec<u32> = (0..art.index_sets.len())
            .flat_map(|i| art.index_sets.row(i).iter().copied())
            .collect();
        all_index_ids.sort_unstable();
        assert!(all_index_ids.contains(&art.query_sets.row(0)[0]));
    }
}
