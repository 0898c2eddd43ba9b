//! Frozen outputs of the sparse NN joins (paper §IV-C).
//!
//! The Table VII rows of e-Join, kNN-Join and DkNN on two small columns
//! — `pc`, `pq`, `|C|`, feasibility, the winning configuration — plus an
//! order-independent digest of the winning configuration's candidate
//! pairs, as literals. They were computed before the sparse query path
//! was last rewritten; a rewrite that changes any answer moves them.

use er::core::artifacts::ArtifactCache;
use er::core::hash::mix64;
use er::core::schema::TextView;
use er::prelude::*;
use er::sparse::{dknn_baseline, epsilon_grid, knn_grid};
use er_bench::harness::{run_method, Context, MethodId};

/// Digest of a candidate set: its pair keys, sorted, folded through
/// `mix64` — so it depends on the set, not on the order it was built in.
fn pair_digest(candidates: &CandidateSet) -> u64 {
    candidates
        .to_sorted_vec()
        .iter()
        .fold(0x5049_4e4e_4544_0001, |d, p| mix64(d ^ p.key()))
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
