//! Fault injection against the segmented index, in a test binary of its
//! own: a fault plan is process-global, so a `panic@delta/apply` plan
//! installed beside the library's unit tests would fire in whichever of
//! them happened to be mutating an index on another thread.

use er_core::faults::{self, FaultPlan};
use er_sparse::segmented::SegmentedTokenSets;
use er_sparse::{EpsilonJoin, KnnJoin, RepresentationModel, SimilarityMeasure};
use er_text::Cleaner;

fn model() -> RepresentationModel {
    RepresentationModel::parse("T1G").expect("T1G")
}

fn toks(text: &str) -> Vec<u64> {
    model().token_set(text, &Cleaner::off())
}

fn seeded() -> SegmentedTokenSets {
    let queries = ["alpha beta", "c d e", "alpha", "", "zz alpha d"]
        .iter()
        .map(|t| toks(t))
        .collect();
    let mut seg = SegmentedTokenSets::new("sparse:test", queries);
    for (id, text) in [
        (0u32, "alpha beta c"),
        (3, "c d"),
        (5, "alpha"),
        (7, "d e zz"),
        (9, "beta beta alpha"),
    ] {
        seg.upsert(id, toks(text));
    }
    seg
}

/// Everything observable about the index: layer shape, memory, answers.
type Observed = (
    (usize, usize, usize, usize),
    Vec<Vec<u32>>,
    Vec<Vec<(u32, f64)>>,
);

fn observe(seg: &SegmentedTokenSets) -> Observed {
    let epsilon = EpsilonJoin {
        cleaning: false,
        model: model(),
        measure: SimilarityMeasure::Jaccard,
        threshold: 0.0,
    };
    let knn = KnnJoin {
        cleaning: false,
        model: model(),
        measure: SimilarityMeasure::Cosine,
        k: 2,
        reversed: false,
    };
    (
        (
            seg.segment_count(),
            seg.delta_rows(),
            seg.live_rows(),
            seg.heap_bytes(),
        ),
        seg.epsilon_batch(&epsilon, 1),
        seg.knn_batch(&knn, 1),
    )
}

/// Runs `op` (under the caller's plan) and asserts it unwound with the
/// injected fault.
fn assert_faults(seg: &mut SegmentedTokenSets, what: &str, op: fn(&mut SegmentedTokenSets)) {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(seg)))
        .expect_err("fault fires");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("injected fault"), "{what}: {msg}");
}

// One test, so the two plans can never overlap each other's set-up.
#[test]
fn injected_delta_and_compact_faults_leave_state_unchanged() {
    let mut seg = seeded();
    seg.flush();
    let before = observe(&seg);
    let plan = FaultPlan::parse("panic@delta/apply").expect("plan");
    faults::with_plan(plan, || {
        assert_faults(&mut seg, "upsert", |seg| {
            seg.upsert(99, toks("never lands"))
        });
        assert_faults(&mut seg, "delete", |seg| seg.delete(0));
    });
    assert_eq!(observe(&seg), before);

    seg.upsert(12, toks("alpha zz"));
    let before = observe(&seg);
    // Repr keys contain ':' (reserved by the spec grammar for options),
    // so the site is addressed with a trailing wildcard.
    let plan = FaultPlan::parse("panic@compact/sparse*").expect("plan");
    faults::with_plan(plan, || {
        assert_faults(&mut seg, "flush", |seg| {
            seg.flush();
        });
        assert_faults(&mut seg, "compact", |seg| {
            seg.compact();
        });
    });
    assert_eq!(observe(&seg), before);
    // Once the plan is cleared the same operations succeed, and answer
    // the same questions the same way.
    assert!(seg.flush());
    assert!(seg.compact());
    let after = observe(&seg);
    assert_eq!((after.1, after.2), (before.1, before.2));
}
