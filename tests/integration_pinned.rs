//! Frozen outputs of the sparse NN joins (paper §IV-C).
//!
//! The Table VII rows of e-Join, kNN-Join and DkNN on two small columns
//! — `pc`, `pq`, `|C|`, feasibility, the winning configuration — plus an
//! order-independent digest of the winning configuration's candidate
//! pairs, as literals. They were computed before the sparse query path
//! was last rewritten; a rewrite that changes any answer moves them.

use er::core::artifacts::ArtifactCache;
use er::core::candidates::Pair;
use er::core::hash::mix64;
use er::core::schema::TextView;
use er::prelude::*;
use er::sparse::{dknn_baseline, epsilon_grid, knn_grid, ScanCountScratch, TokenSetsArtifact};
use er_bench::harness::{run_method, Context, MethodId};

/// Digest of a candidate set: its pair keys, sorted, folded through
/// `mix64` — so it depends on the set, not on the order it was built in.
fn pair_digest(candidates: &CandidateSet) -> u64 {
    key_digest(candidates.to_sorted_vec().iter().map(|p| p.key()))
}

/// [`pair_digest`] of the pairs whose keys, in ascending order, `keys`
/// yields.
fn key_digest(keys: impl Iterator<Item = u64>) -> u64 {
    keys.fold(0x5049_4e4e_4544_0001, |d, k| mix64(d ^ k))
}

/// The filter a method's `config` line describes, re-found in its grid.
fn winner(method: MethodId, config: &str, view: &TextView) -> Box<dyn Filter> {
    match method {
        MethodId::Epsilon => Box::new(
            epsilon_grid(GridResolution::Quick)
                .into_iter()
                .flatten()
                .find(|f| f.describe() == config)
                .unwrap_or_else(|| panic!("no e-Join config {config:?}")),
        ),
        MethodId::Knn => Box::new(
            knn_grid(GridResolution::Quick)
                .into_iter()
                .flatten()
                .find(|f| f.describe() == config)
                .unwrap_or_else(|| panic!("no kNN-Join config {config:?}")),
        ),
        _ => Box::new(dknn_baseline(view.e1.len(), view.e2.len())),
    }
}

/// One line per sparse method: name, config, PC, PQ, |C|, feasibility
/// and the digest of the winning configuration's candidate pairs.
fn pinned_rows(profile: &str, scale: f64, seed: u64, optimizer: Optimizer) -> Vec<String> {
    let ds = generate(
        er::datagen::profiles::profile(profile).expect("profile"),
        scale,
        seed,
    );
    let view = text_view(&ds, &SchemaMode::Agnostic);
    let cache = ArtifactCache::new();
    let ctx = Context {
        optimizer,
        resolution: GridResolution::Quick,
        seed,
        label: "pinned".to_owned(),
        ..Context::new(&view, &ds.groundtruth, &cache)
    };
    [MethodId::Epsilon, MethodId::Knn, MethodId::Dknn]
        .into_iter()
        .map(|id| {
            let o = run_method(&ctx, id);
            assert!(o.error.is_none(), "{}: {:?}", o.method, o.error);
            let pairs = winner(id, &o.config, &view).run(&view).candidates;
            assert_eq!(pairs.len() as f64, o.candidates, "{} rerun", o.method);
            format!(
                "{}|{}|{:?}|{:?}|{}|{}|{:016x}",
                o.method,
                o.config,
                o.pc,
                o.pq,
                o.candidates,
                o.feasible,
                pair_digest(&pairs)
            )
        })
        .collect()
}

/// The column of `integration_end_to_end`: D2 × 0.08, seed 23, PC ≥ 0.9.
#[test]
fn sparse_rows_on_d2_are_frozen() {
    let got = pinned_rows("D2", 0.08, 23, Optimizer::new(0.9));
    let want = [
        "e-Join|CL=y RM=T1G SM=Cosine t=0.60|0.9534883720930233|1.0|82|true|f89c9adf2126d5c5",
        "kNN-Join|CL=y RVS=- RM=C3G SM=Cosine K=1|1.0|1.0|86|true|589831109fb445d7",
        "DkNN|CL=y RVS=- RM=C5GM SM=Cosine K=5|1.0|0.19369369369369369|444|true|378c439c24826912",
    ];
    assert_eq!(got, want);
}

/// The column of the `sweep_sparse` benchmark workload: D10 × 0.09,
/// default optimizer.
#[test]
fn sparse_rows_on_d10_are_frozen() {
    let got = pinned_rows("D10", 0.09, 11, Optimizer::default());
    let want = [
        "e-Join|CL=y RM=T1G SM=Cosine t=0.60|0.9193391642371235|0.9389578163771712|2015|true|add4b297563ba5b3",
        "kNN-Join|CL=y RVS=- RM=T1G SM=Cosine K=1|0.9834791059280855|0.9624346172135045|2103|true|8733c33a6d329118",
        "DkNN|CL=y RVS=- RM=C5GM SM=Cosine K=5|0.9902818270165209|0.17481557728598388|11658|true|a2b014af8fb1c145",
    ];
    assert_eq!(got, want);
}

/// Every ε-Join measure × {T1G, C3G} × ε ∈ {0, 0.2, 0.4, 0.8, 1} on the
/// `sweep_sparse` column (D10 × 0.09, seed 11, cleaning on): `|C|` and
/// the digest of the candidate set `EpsilonJoin::run` returns. The
/// winning-row test above sees one of these 30 kernels; this one sees
/// all of them, including the `ε = 0` and `ε = 1` edges of the size
/// window.
///
/// The pairs are gathered per row through `query_row_into` — the loop
/// `EpsilonJoin::query` runs for every row — rather than through a
/// `CandidateSet`, so that the ≈ 3–4 million pairs at `ε = 0` stay cheap
/// in an unoptimised test build; one configuration per model checks that
/// both routes give the same digest.
#[test]
fn epsilon_kernel_is_frozen_across_measures() {
    let ds = generate(
        er::datagen::profiles::profile("D10").expect("profile"),
        0.09,
        11,
    );
    let view = text_view(&ds, &SchemaMode::Agnostic);
    let (mut scratch, mut hits, mut row) = (ScanCountScratch::default(), Vec::new(), Vec::new());
    let mut got = Vec::new();
    for model in ["T1G", "C3G"] {
        let model = RepresentationModel::parse(model).expect("model");
        let join = |measure, threshold| EpsilonJoin {
            cleaning: true,
            model,
            measure,
            threshold,
        };
        let prepared = join(SimilarityMeasure::Cosine, 0.0).prepare(&view);
        let art = prepared.downcast::<TokenSetsArtifact>();
        for measure in SimilarityMeasure::ALL {
            for threshold in [0.0, 0.2, 0.4, 0.8, 1.0] {
                let join = join(measure, threshold);
                // Bucketing the rows' pairs by left id yields them in
                // ascending key order without a sort.
                let mut by_left = vec![Vec::new(); art.index.len()];
                for j in 0..art.query_sets.len() {
                    row.clear();
                    join.query_row_into(art, j, &mut scratch, &mut hits, &mut row);
                    for &i in &row {
                        by_left[i as usize].push(j as u32);
                    }
                }
                let keys = by_left
                    .iter()
                    .enumerate()
                    .flat_map(|(i, js)| js.iter().map(move |&j| Pair::new(i as u32, j).key()));
                let pairs: usize = by_left.iter().map(Vec::len).sum();
                let digest = key_digest(keys);
                if measure == SimilarityMeasure::Cosine && threshold == 0.4 {
                    assert_eq!(pair_digest(&join.run(&view).candidates), digest);
                }
                got.push(format!("{}|{pairs}|{digest:016x}", join.describe()));
            }
        }
    }
    let want = [
        "CL=y RM=T1G SM=Cosine t=0.00|2967592|9daca8c0336fc296",
        "CL=y RM=T1G SM=Cosine t=0.20|343127|d04dc9ab2767195e",
        "CL=y RM=T1G SM=Cosine t=0.40|5460|c9b3d734477b3789",
        "CL=y RM=T1G SM=Cosine t=0.80|1150|d8aaaddb90b24a0b",
        "CL=y RM=T1G SM=Cosine t=1.00|15|8b9c0cddda8e849a",
        "CL=y RM=T1G SM=Dice t=0.00|2967592|9daca8c0336fc296",
        "CL=y RM=T1G SM=Dice t=0.20|341066|37e9a4237cccf3f9",
        "CL=y RM=T1G SM=Dice t=0.40|5422|525f6ea44d7dbf59",
        "CL=y RM=T1G SM=Dice t=0.80|1150|d8aaaddb90b24a0b",
        "CL=y RM=T1G SM=Dice t=1.00|15|8b9c0cddda8e849a",
        "CL=y RM=T1G SM=Jaccard t=0.00|2967592|9daca8c0336fc296",
        "CL=y RM=T1G SM=Jaccard t=0.20|21716|e1fd4c3071e3a4bc",
        "CL=y RM=T1G SM=Jaccard t=0.40|2058|ea8e4dcb21a85d8e",
        "CL=y RM=T1G SM=Jaccard t=0.80|420|5ffc7d5b2c3dc8ed",
        "CL=y RM=T1G SM=Jaccard t=1.00|15|8b9c0cddda8e849a",
        "CL=y RM=C3G SM=Cosine t=0.00|4350985|0ba3394e8d736a32",
        "CL=y RM=C3G SM=Cosine t=0.20|724426|518665a8ed717a74",
        "CL=y RM=C3G SM=Cosine t=0.40|18684|6bbb47234ed0863a",
        "CL=y RM=C3G SM=Cosine t=0.80|1442|edbce94322170ba8",
        "CL=y RM=C3G SM=Cosine t=1.00|15|8b9c0cddda8e849a",
        "CL=y RM=C3G SM=Dice t=0.00|4350985|0ba3394e8d736a32",
        "CL=y RM=C3G SM=Dice t=0.20|711777|6e7b2a8d198d5611",
        "CL=y RM=C3G SM=Dice t=0.40|17981|f5b3a14ae09b8a3e",
        "CL=y RM=C3G SM=Dice t=0.80|1437|1e6abbd17975a7c1",
        "CL=y RM=C3G SM=Dice t=1.00|15|8b9c0cddda8e849a",
        "CL=y RM=C3G SM=Jaccard t=0.00|4350985|0ba3394e8d736a32",
        "CL=y RM=C3G SM=Jaccard t=0.20|70895|235d601ffce1a788",
        "CL=y RM=C3G SM=Jaccard t=0.40|2233|49893d061e381ae1",
        "CL=y RM=C3G SM=Jaccard t=0.80|609|ffb5d753ba9aa1d2",
        "CL=y RM=C3G SM=Jaccard t=1.00|15|8b9c0cddda8e849a",
    ];
    assert_eq!(got, want);
}
