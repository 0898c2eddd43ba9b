//! Property-based tests of the sparse NN invariants: similarities,
//! representations, ScanCount exactness and the join semantics.

#![cfg(test)]

use crate::artifact::TokenSetsArtifact;
use crate::epsilon::EpsilonJoin;
use crate::knn::KnnJoin;
use crate::packed::PackedRows;
use crate::reference;
use crate::representation::RepresentationModel;
use crate::scancount::{ScanCountIndex, ScanCountScratch};
use crate::similarity::SimilarityMeasure;
use crate::topk::TopKJoin;
use er_core::filter::Filter;
use er_core::schema::TextView;
use er_text::Cleaner;
use proptest::prelude::*;

fn arb_texts(n: usize) -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-d ]{0,16}", 1..n)
}

/// The joins over a collection whose ScanCount hits do *not* come back
/// in id order, against the naive reference. Rows 0 and 2 share `a`,
/// row 1 holds `b`: whichever of the two tokens a query walks first, the
/// other posting list reaches back to a lower id. Everything downstream
/// of the hit list has to impose its own order.
#[test]
fn joins_match_reference_when_touch_order_is_not_ascending() {
    let e1: Vec<String> = ["a", "b", "a c", "b d", "c d e", "a b c d", "e", "b c"]
        .iter()
        .map(|t| (*t).to_owned())
        .collect();
    let e2: Vec<String> = ["a b", "c a b", "d e b", "e a", "b"]
        .iter()
        .map(|t| (*t).to_owned())
        .collect();
    let view = TextView::new(e1, e2);
    let model = RepresentationModel {
        ngram: None,
        multiset: false,
    };
    let prepared = TokenSetsArtifact::prepare(&view, false, model, false);
    let art = prepared.downcast::<TokenSetsArtifact>();
    let (index_sets, query_sets) = reference::tokenize(&view, false, model, false);
    let naive = reference::NaiveScanCountIndex::build(&index_sets);
    let mut scratch = ScanCountScratch::default();
    let mut hits = Vec::new();

    // The fixture does what it says: some row's hits are out of id order.
    let mut unordered = 0;
    for (j, query) in query_sets.iter().enumerate() {
        art.index
            .query_row_with(&mut scratch, &art.query_sets, j, &mut hits);
        unordered += usize::from(hits.windows(2).any(|w| w[0].0 > w[1].0));
        hits.sort_unstable();
        assert_eq!(hits, naive.query(query), "row {j}: same hit set");
    }
    assert!(unordered > 0, "every row's touch order is ascending");

    for measure in SimilarityMeasure::ALL {
        for threshold in [0.0, 0.3, 0.6] {
            let join = EpsilonJoin {
                cleaning: false,
                model,
                measure,
                threshold,
            };
            let mut got = Vec::new();
            for (j, query) in query_sets.iter().enumerate() {
                // A non-empty `out` must keep its prefix untouched.
                let mut row = vec![u32::MAX];
                join.query_row_into(art, j, &mut scratch, &mut hits, &mut row);
                let want: Vec<u32> = naive
                    .query(query)
                    .into_iter()
                    .filter(|&(i, o)| {
                        measure.compute(o as usize, naive.set_size(i), query.len()) >= threshold
                    })
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(row[0], u32::MAX);
                assert_eq!(&row[1..], want, "{} t={threshold} row {j}", measure.name());
                got.extend(want.iter().map(|&i| er_core::Pair::new(i, j as u32)));
            }
            got.sort_unstable();
            assert_eq!(
                got,
                reference::naive_epsilon(&view, false, model, measure, threshold)
            );
            assert_eq!(join.run(&view).candidates.to_sorted_vec(), got);
        }
        for k in [1usize, 2, 4] {
            let join = KnnJoin {
                cleaning: false,
                model,
                measure,
                k,
                reversed: false,
            };
            for (j, query) in query_sets.iter().enumerate() {
                let mut want: Vec<(u32, f64)> = naive
                    .query(query)
                    .into_iter()
                    .map(|(i, o)| {
                        let sim = measure.compute(o as usize, naive.set_size(i), query.len());
                        (i, sim)
                    })
                    .collect();
                reference::naive_select_top_k(k, &mut want);
                let got = join.query_row(art, j, &mut scratch, &mut hits);
                assert_eq!(got, want, "{} k={k} row {j}", measure.name());
            }
            assert_eq!(
                join.run(&view).candidates.to_sorted_vec(),
                reference::naive_knn(&view, false, model, measure, k, false)
            );
            let top = TopKJoin {
                cleaning: false,
                model,
                measure,
                k,
            };
            assert_eq!(
                top.run(&view).candidates.to_sorted_vec(),
                reference::naive_topk(&view, model, measure, k)
            );
        }
    }
}

proptest! {
    /// All measures are symmetric in the set sizes except cosine/dice are;
    /// and every measure is bounded by min-containment.
    #[test]
    fn similarity_bounds(overlap in 0usize..10, extra_a in 0usize..10, extra_b in 0usize..10) {
        let len_a = overlap + extra_a;
        let len_b = overlap + extra_b;
        for m in SimilarityMeasure::ALL {
            let s = m.compute(overlap, len_a, len_b);
            prop_assert!((0.0..=1.0).contains(&s), "{} = {}", m.name(), s);
            let swapped = m.compute(overlap, len_b, len_a);
            prop_assert!((s - swapped).abs() < 1e-12, "{} asymmetric", m.name());
            if overlap == len_a && overlap == len_b && overlap > 0 {
                prop_assert!((s - 1.0).abs() < 1e-12);
            }
        }
    }

    /// Delta/bitpack round-trip identity on arbitrary rows — including
    /// empty, single-element and duplicate-heavy ones (`0u32..8` forces
    /// repeats), plus unsorted rows (the zigzag coding is order-agnostic)
    /// and full-range values.
    #[test]
    fn packed_rows_round_trip(
        rows in proptest::collection::vec(
            proptest::collection::vec(
                // Mix of a tiny alphabet (forces duplicates and runs of
                // zero deltas) and the full u32 range (forces 33-bit
                // zigzag deltas).
                any::<u32>().prop_map(|v| if v % 3 == 0 { v % 8 } else { v }),
                0..40),
            0..12),
    ) {
        let mut offsets = vec![0u32];
        let mut values = Vec::new();
        for r in &rows {
            values.extend_from_slice(r);
            offsets.push(values.len() as u32);
        }
        let packed = PackedRows::from_rows(&offsets, &values);
        prop_assert_eq!(packed.decode_all(), (offsets, values));
        // The serialized arrays survive structural re-validation and
        // decode identically.
        let (o, w, bb, bits) = packed.raw_parts();
        let rebuilt = PackedRows::from_raw(
            o.to_vec(), w.to_vec(), bb.to_vec(), bits.to_vec()).unwrap();
        prop_assert_eq!(rebuilt, packed);
    }

    /// ScanCount overlap counts equal brute-force set intersections.
    #[test]
    fn scancount_matches_bruteforce(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u64..30, 0..10), 1..8),
        query in proptest::collection::btree_set(0u64..30, 0..10),
    ) {
        let sets: Vec<Vec<u64>> = sets.into_iter().map(|s| s.into_iter().collect()).collect();
        let query: Vec<u64> = query.into_iter().collect();
        let index = ScanCountIndex::build(&sets);
        let mut scratch = ScanCountScratch::default();
        let mut out = Vec::new();
        index.query_with(&mut scratch, &query, &mut out);
        // Brute force reference.
        for (i, set) in sets.iter().enumerate() {
            let expected = set.iter().filter(|t| query.contains(t)).count() as u32;
            let got = out.iter().find(|&&(e, _)| e == i as u32).map_or(0, |&(_, o)| o);
            prop_assert_eq!(got, expected, "entity {}", i);
        }
        // Visited entities are exactly those with positive overlap.
        for &(e, o) in &out {
            prop_assert!(o > 0);
            prop_assert!((e as usize) < sets.len());
        }
    }

    /// Token sets are sorted, deduplicated, and multiset cardinality is at
    /// least the set cardinality.
    #[test]
    fn token_sets_well_formed(text in "[a-e ]{0,30}") {
        for m in RepresentationModel::all() {
            let ids = m.token_set(&text, &Cleaner::off());
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "{} unsorted/dup", m.name());
        }
        let set = RepresentationModel { ngram: None, multiset: false }
            .token_set(&text, &Cleaner::off());
        let mset = RepresentationModel { ngram: None, multiset: true }
            .token_set(&text, &Cleaner::off());
        prop_assert!(mset.len() >= set.len());
    }

    /// ε-Join candidates are monotone non-increasing in the threshold, and
    /// every returned pair really meets the threshold.
    #[test]
    fn epsilon_join_threshold_sound(e1 in arb_texts(6), e2 in arb_texts(6)) {
        let view = TextView::new(e1.clone(), e2.clone());
        let model = RepresentationModel { ngram: None, multiset: false };
        let join = |t: f64| EpsilonJoin {
            cleaning: false,
            model,
            measure: SimilarityMeasure::Jaccard,
            threshold: t,
        };
        let lo = join(0.3).run(&view).candidates;
        let hi = join(0.7).run(&view).candidates;
        for p in hi.iter() {
            prop_assert!(lo.contains(p), "higher threshold must be a subset");
        }
        // Soundness: verify each hi pair's actual Jaccard >= 0.7.
        for p in hi.iter() {
            let a = model.token_set(&e1[p.left as usize], &Cleaner::off());
            let b = model.token_set(&e2[p.right as usize], &Cleaner::off());
            let overlap = a.iter().filter(|t| b.contains(t)).count();
            let sim = SimilarityMeasure::Jaccard.compute(overlap, a.len(), b.len());
            prop_assert!(sim >= 0.7 - 1e-12, "pair {:?} has sim {}", p, sim);
        }
    }

    /// kNN-Join: every query contributes at most as many pairs as it has
    /// positive-similarity candidates, and k=inf degenerates to "all
    /// overlapping pairs".
    #[test]
    fn knn_join_bounded_by_overlaps(e1 in arb_texts(6), e2 in arb_texts(6)) {
        let view = TextView::new(e1, e2);
        let model = RepresentationModel { ngram: None, multiset: false };
        let knn = |k: usize| KnnJoin {
            cleaning: false,
            model,
            measure: SimilarityMeasure::Cosine,
            k,
            reversed: false,
        };
        let all = EpsilonJoin {
            cleaning: false,
            model,
            measure: SimilarityMeasure::Cosine,
            threshold: f64::MIN_POSITIVE,
        }
        .run(&view)
        .candidates;
        let huge_k = knn(10_000).run(&view).candidates;
        prop_assert_eq!(huge_k.to_sorted_vec(), all.to_sorted_vec());
        let k1 = knn(1).run(&view).candidates;
        for p in k1.iter() {
            prop_assert!(all.contains(p));
        }
    }

    /// The CSR/interned pipeline (with its exact length filters) produces
    /// candidate sets identical to the frozen naive reference — the
    /// tentpole correctness property. Thresholds 0.1 and 0.8 exercise the
    /// length-filter fast path when it keeps almost everything and when
    /// it prunes aggressively.
    #[test]
    fn csr_epsilon_matches_naive_reference(
        e1 in arb_texts(8),
        e2 in arb_texts(8),
        cleaning in any::<bool>(),
    ) {
        let view = TextView::new(e1, e2);
        let model = RepresentationModel { ngram: Some(2), multiset: false };
        for measure in SimilarityMeasure::ALL {
            for threshold in [0.1, 0.8] {
                let join = EpsilonJoin { cleaning, model, measure, threshold };
                let got = join.run(&view).candidates.to_sorted_vec();
                let want = reference::naive_epsilon(&view, cleaning, model, measure, threshold);
                prop_assert_eq!(got, want, "{} t={}", measure.name(), threshold);
            }
        }
    }

    /// kNN: CSR + distinct-floor filter equals the naive reference at 1
    /// and 8 worker threads (explicit counts, so the global thread
    /// override stays untouched).
    #[test]
    fn csr_knn_matches_naive_reference_across_threads(
        e1 in arb_texts(8),
        e2 in arb_texts(8),
        reversed in any::<bool>(),
    ) {
        let view = TextView::new(e1, e2);
        let model = RepresentationModel { ngram: None, multiset: false };
        for measure in SimilarityMeasure::ALL {
            for k in [1usize, 3] {
                let join = KnnJoin { cleaning: false, model, measure, k, reversed };
                let want = reference::naive_knn(&view, false, model, measure, k, reversed);
                let prepared = join.prepare(&view);
                let art = prepared.downcast::<TokenSetsArtifact>();
                for threads in [1usize, 8] {
                    let got = join.query_art(art, threads).candidates.to_sorted_vec();
                    prop_assert_eq!(
                        got.clone(), want.clone(),
                        "{} k={} threads={}", measure.name(), k, threads
                    );
                }
            }
        }
    }

    /// The select-then-sort [`KnnJoin::select_top_k`] is the frozen
    /// sort-everything-then-cut definition, whatever order its input
    /// arrives in: five similarity values over up to 40 rows force ties
    /// at, above and below the cut, and `k = 0` and lists with fewer
    /// than `k` distinct values hit both early exits.
    #[test]
    fn select_top_k_matches_sort_then_cut_under_permutation(
        rows in proptest::collection::vec((0usize..5, any::<u32>()), 0..40),
        k in 0usize..=4,
    ) {
        const SIMS: [f64; 5] = [0.125, 0.3, 0.5, 2.0 / 3.0, 1.0];
        let base: Vec<(u32, f64)> = rows
            .iter()
            .enumerate()
            .map(|(id, &(s, _))| (id as u32, SIMS[s]))
            .collect();
        let mut want = base.clone();
        reference::naive_select_top_k(k, &mut want);
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_unstable_by_key(|&i| (rows[i].1, i));
        let permuted: Vec<(u32, f64)> = order.iter().map(|&i| base[i]).collect();
        for input in [base, permuted] {
            let mut got = input;
            let kept = KnnJoin::select_top_k(k, &mut got);
            prop_assert_eq!(kept, want.len());
            prop_assert_eq!(&got, &want, "k={}", k);
        }
    }

    /// Shard invariance (the out-of-core fan-out's tentpole property):
    /// ε and kNN batches from a [`crate::sharded::ShardedIndex`] are
    /// bitwise identical across shard counts 1/3/8 × worker counts 1/8 —
    /// through the segmented-delta path too (a random tail of upserts
    /// and deletes is applied before querying, landing in the owning
    /// shard only), and again after every shard flushes its delta into
    /// a fresh segment.
    #[test]
    fn sharded_batches_identical_across_shard_and_thread_counts(
        rows in proptest::collection::vec(
            proptest::collection::btree_set(0u64..40, 0..8), 1..24),
        queries in proptest::collection::vec(
            proptest::collection::btree_set(0u64..40, 0..8), 1..10),
        edits in proptest::collection::vec(
            (0u32..40, any::<bool>(),
                proptest::collection::btree_set(0u64..40, 1..8)), 0..10),
    ) {
        use crate::sharded::ShardedIndex;
        let rows: Vec<(u32, Vec<u64>)> = rows
            .into_iter()
            .enumerate()
            // Spread ids out so shards interleave.
            .map(|(i, s)| (i as u32 * 3 + 1, s.into_iter().collect()))
            .collect();
        let query_raw: Vec<Vec<u64>> =
            queries.into_iter().map(|s| s.into_iter().collect()).collect();
        let eps = EpsilonJoin {
            cleaning: false,
            model: RepresentationModel { ngram: None, multiset: false },
            measure: SimilarityMeasure::Jaccard,
            threshold: 0.2,
        };
        let knn = KnnJoin {
            cleaning: false,
            model: RepresentationModel { ngram: None, multiset: false },
            measure: SimilarityMeasure::Cosine,
            k: 2,
            reversed: false,
        };
        let build = |n: u32, flush: bool| {
            let mut idx = ShardedIndex::build("prop", n, rows.clone(), query_raw.clone());
            for (id, is_upsert, set) in &edits {
                if *is_upsert {
                    idx.upsert(*id, set.iter().copied().collect());
                } else {
                    idx.delete(*id);
                }
            }
            if flush {
                idx.flush();
            }
            idx
        };
        for flush in [false, true] {
            let mono = build(1, flush);
            let want_eps = mono.epsilon_batch(&eps, 1);
            let want_knn = mono.knn_batch(&knn, 1);
            for n in [3u32, 8] {
                let idx = build(n, flush);
                prop_assert_eq!(idx.live_rows(), mono.live_rows());
                for threads in [1usize, 8] {
                    prop_assert_eq!(
                        &idx.epsilon_batch(&eps, threads), &want_eps,
                        "epsilon shards={} threads={} flush={}", n, threads, flush
                    );
                    let got = idx.knn_batch(&knn, threads);
                    prop_assert_eq!(got.len(), want_knn.len());
                    for (j, (a, b)) in got.iter().zip(&want_knn).enumerate() {
                        prop_assert_eq!(a.len(), b.len(), "row {} lens", j);
                        for ((ia, sa), (ib, sb)) in a.iter().zip(b) {
                            prop_assert_eq!(ia, ib, "row {}", j);
                            prop_assert_eq!(
                                sa.to_bits(), sb.to_bits(),
                                "knn sim bits shards={} threads={} flush={} row={}",
                                n, threads, flush, j
                            );
                        }
                    }
                }
            }
        }
    }

    /// Global top-k: the heap + floor filter equals exhaustive scoring.
    #[test]
    fn csr_topk_matches_naive_reference(e1 in arb_texts(8), e2 in arb_texts(8)) {
        let view = TextView::new(e1, e2);
        let model = RepresentationModel { ngram: None, multiset: false };
        for measure in SimilarityMeasure::ALL {
            for k in [1usize, 4] {
                let join = TopKJoin { cleaning: false, model, measure, k };
                let got = join.run(&view).candidates.to_sorted_vec();
                let want = reference::naive_topk(&view, model, measure, k);
                prop_assert_eq!(got, want, "{} k={}", measure.name(), k);
            }
        }
    }
}
