//! Property-based tests of the core invariants: candidate sets, measures,
//! rankings and the optimizer's selection rules.

#![cfg(test)]

use crate::candidates::{CandidateSet, Pair};
use crate::dataset::GroundTruth;
use crate::metrics::{evaluate, Effectiveness};
use crate::optimize::{OptimizationOutcome, Optimizer};
use crate::rankings::QueryRankings;
use crate::timing::PhaseBreakdown;
use proptest::prelude::*;

fn arb_pairs(max: u32, len: usize) -> impl Strategy<Value = Vec<Pair>> {
    proptest::collection::vec((0..max, 0..max).prop_map(|(l, r)| Pair::new(l, r)), 0..len)
}

proptest! {
    /// Pair key packing is a bijection.
    #[test]
    fn pair_key_bijection(l in any::<u32>(), r in any::<u32>()) {
        prop_assert_eq!(Pair::from_key(Pair::new(l, r).key()), Pair::new(l, r));
    }

    /// A candidate set behaves like a mathematical set.
    #[test]
    fn candidate_set_semantics(pairs in arb_pairs(50, 60)) {
        let set: CandidateSet = pairs.iter().copied().collect();
        let reference: std::collections::BTreeSet<Pair> = pairs.iter().copied().collect();
        prop_assert_eq!(set.len(), reference.len());
        for p in &pairs {
            prop_assert!(set.contains(*p));
        }
        prop_assert_eq!(set.to_sorted_vec(), reference.into_iter().collect::<Vec<_>>());
    }

    /// PC and PQ are bounded and consistent with the counts.
    #[test]
    fn measures_bounded(cands in arb_pairs(30, 50), dups in arb_pairs(30, 20)) {
        let candidates: CandidateSet = cands.into_iter().collect();
        let gt = GroundTruth::from_pairs(dups);
        let eff = evaluate(&candidates, &gt);
        prop_assert!((0.0..=1.0).contains(&eff.pc));
        prop_assert!((0.0..=1.0).contains(&eff.pq));
        prop_assert!(eff.duplicates_found <= eff.candidates);
        prop_assert!(eff.duplicates_found <= gt.len());
        if !gt.is_empty() {
            prop_assert!((eff.pc - eff.duplicates_found as f64 / gt.len() as f64).abs() < 1e-12);
        }
    }

    /// Growing a candidate set can only grow PC.
    #[test]
    fn pc_monotone_in_candidates(
        base in arb_pairs(30, 40),
        extra in arb_pairs(30, 20),
        dups in arb_pairs(30, 15),
    ) {
        let gt = GroundTruth::from_pairs(dups);
        let small: CandidateSet = base.iter().copied().collect();
        let mut big = small.clone();
        big.extend(extra);
        prop_assert!(evaluate(&big, &gt).pc >= evaluate(&small, &gt).pc);
    }

    /// Top-k prefixes are nested: candidates(k) ⊆ candidates(k+1), for both
    /// plain and distinct-similarity semantics.
    #[test]
    fn rankings_prefixes_nested(
        lists in proptest::collection::vec(
            proptest::collection::vec((0u32..40, 0u32..10), 0..12),
            1..6,
        ),
        k in 1usize..8,
    ) {
        // Build descending-similarity lists from arbitrary (id, level).
        let neighbors: Vec<Vec<(u32, f64)>> = lists
            .into_iter()
            .map(|mut l| {
                l.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                l.dedup_by_key(|e| e.0);
                l.into_iter().map(|(id, lvl)| (id, f64::from(lvl) / 10.0)).collect()
            })
            .collect();
        let r = QueryRankings { neighbors, reversed: false };
        for (small, big) in [
            (r.candidates_top_k(k), r.candidates_top_k(k + 1)),
            (r.candidates_top_k_distinct(k), r.candidates_top_k_distinct(k + 1)),
        ] {
            for p in small.iter() {
                prop_assert!(big.contains(p), "prefix not nested at k={}", k);
            }
        }
        // Distinct semantics returns a superset of plain top-k.
        let plain = r.candidates_top_k(k);
        let distinct = r.candidates_top_k_distinct(k);
        for p in plain.iter() {
            prop_assert!(distinct.contains(p));
        }
    }

    /// The optimizer's feasible champion always meets the target and has
    /// the maximum PQ among feasible configurations.
    #[test]
    fn optimizer_grid_champion_is_optimal(
        outcomes in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..30),
        target in 0.1f64..0.95,
    ) {
        let opt = Optimizer::new(target);
        let mut result = OptimizationOutcome::default();
        opt.grid(1, 0..outcomes.len(), |&i| {
            let (pc, pq) = outcomes[i];
            (
                Effectiveness { pc, pq, candidates: i + 1, duplicates_found: 0 },
                PhaseBreakdown::new(),
            )
        }, &mut result);
        prop_assert_eq!(result.evaluated, outcomes.len());
        let feasible: Vec<&(f64, f64)> =
            outcomes.iter().filter(|(pc, _)| *pc >= target).collect();
        match &result.best_feasible {
            Some(best) => {
                let (pc, pq) = outcomes[best.config];
                prop_assert!(pc >= target);
                let max_pq = feasible.iter().map(|(_, q)| *q).fold(f64::MIN, f64::max);
                prop_assert!((pq - max_pq).abs() < 1e-12);
            }
            None => prop_assert!(feasible.is_empty()),
        }
        // The fallback is always present and maximizes PC.
        let fallback = result.best_fallback.as_ref().expect("non-empty grid");
        let max_pc = outcomes.iter().map(|(p, _)| *p).fold(f64::MIN, f64::max);
        prop_assert!((outcomes[fallback.config].0 - max_pc).abs() < 1e-12);
    }

    /// Duplicate ranks returned by rankings are consistent with the lists.
    #[test]
    fn duplicate_ranks_point_into_lists(
        ids in proptest::collection::vec(0u32..20, 1..10),
    ) {
        let neighbors: Vec<Vec<(u32, f64)>> = vec![
            ids.iter().enumerate().map(|(i, &id)| (id, 1.0 - i as f64 * 0.01)).collect()
        ];
        let r = QueryRankings { neighbors, reversed: false };
        let gt = GroundTruth::from_pairs([Pair::new(ids[0], 0)]);
        let ranks = r.duplicate_ranks(&gt);
        prop_assert_eq!(ranks.len(), 1);
        let rank = ranks[0].expect("first id must be found");
        prop_assert_eq!(r.neighbors[0][rank].0, ids[0]);
    }
}

proptest! {
    /// `par_map_chunks` / `par_map` equal the serial map for 1, 2 and 8
    /// threads, for arbitrary inputs and chunk sizes.
    #[test]
    fn parallel_map_matches_serial(
        items in proptest::collection::vec(any::<u32>(), 0..300),
        chunk in 1usize..40,
    ) {
        let serial_chunks: Vec<u64> = items
            .chunks(chunk)
            .map(|c| c.iter().map(|&x| u64::from(x)).sum())
            .collect();
        let serial_map: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        for threads in [1usize, 2, 8] {
            let got = crate::parallel::par_map_chunks_with(threads, &items, chunk, |_, c| {
                c.iter().map(|&x| u64::from(x)).sum::<u64>()
            });
            prop_assert_eq!(&got, &serial_chunks, "chunks, threads={}", threads);
            let got = crate::parallel::par_map_with(threads, &items, |&x| u64::from(x) * 3 + 1);
            prop_assert_eq!(&got, &serial_map, "map, threads={}", threads);
        }
    }

    /// `par_reduce` is bitwise thread-count-invariant even for
    /// non-associative float folds, and exactly serial for integer folds.
    #[test]
    fn parallel_reduce_matches_serial(
        items in proptest::collection::vec(-1.0f64..1.0, 0..500),
    ) {
        let float = |threads| {
            crate::parallel::par_reduce_with(threads, &items, || 0.0f64, |a, x| a + *x, |a, b| a + b)
        };
        let one = float(1).to_bits();
        for threads in [2usize, 8] {
            prop_assert_eq!(float(threads).to_bits(), one, "threads={}", threads);
        }
        let serial_int: i64 = items.iter().map(|&x| (x * 100.0) as i64).sum();
        for threads in [1usize, 2, 8] {
            let got = crate::parallel::par_reduce_with(
                threads,
                &items,
                || 0i64,
                |a, x| a + (*x * 100.0) as i64,
                |a, b| a + b,
            );
            prop_assert_eq!(got, serial_int, "threads={}", threads);
        }
    }
}
