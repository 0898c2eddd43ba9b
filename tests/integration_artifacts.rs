//! Artifact-cache acceptance tests (prepare/query split PR):
//!
//! * a full 17-method sweep prepares every distinct representation
//!   config exactly once (counted by the cache, not the filters);
//! * cached (warm) queries are bitwise-identical to cold `run()`s at 1
//!   and 8 worker threads, property-tested over configs and seeds;
//! * a fault injected at a `prepare/<repr>` site poisons exactly the
//!   dependent grid points, deterministically across thread counts;
//! * LRU eviction under a byte budget is deterministic at any thread
//!   count (all cache mutations stay on the driver thread).
//!
//! Thread counts and fault plans are process-global, so the tests that
//! touch them only ever assert thread-count *invariance* — any
//! interleaving of `Threads::set` calls still passes.

use er::core::artifacts::{ArtifactCache, ArtifactKey};
use er::core::filter::Prepared;
use er::core::optimize::{GridResolution, Optimizer};
use er::core::{faults, Effectiveness, PhaseBreakdown, TextView, Threads};
use er::prelude::*;
use er_bench::harness::{run_all_methods, Context, MethodOutcome};
use er_bench::report::sweep_csv;
use er_bench::{run_sweep, Settings};
use proptest::prelude::*;

fn quick_ctx<'a>(
    view: &'a TextView,
    gt: &'a er::core::GroundTruth,
    cache: &'a ArtifactCache,
) -> Context<'a> {
    Context {
        optimizer: Optimizer::new(0.9),
        resolution: GridResolution::Quick,
        embedding: er::dense::EmbeddingConfig {
            dim: 32,
            ..Default::default()
        },
        seed: 9,
        label: "test".to_owned(),
        ..Context::new(view, gt, cache)
    }
}

fn stable(o: &MethodOutcome) -> (String, f64, f64, f64, bool, String) {
    (
        o.method.clone(),
        o.pc,
        o.pq,
        o.candidates,
        o.feasible,
        o.config.clone(),
    )
}

#[test]
fn full_sweep_prepares_each_representation_exactly_once() {
    let ds = generate(er::datagen::profiles::profile("D1").expect("D1"), 0.05, 9);
    let view = text_view(&ds, &SchemaMode::Agnostic);
    let cache = ArtifactCache::new();
    let ctx = quick_ctx(&view, &ds.groundtruth, &cache);

    let cold = run_all_methods(&ctx);
    let after_cold = cache.stats();
    assert!(after_cold.misses > 0, "the sweep prepares artifacts");
    assert!(
        after_cold.hits > 0,
        "methods share artifacts within one sweep"
    );
    assert_eq!(after_cold.evictions, 0, "unbounded cache never evicts");
    assert_eq!(after_cold.poisoned, 0);
    // The cache counts one insert (= one executed prepare) per distinct
    // key, so misses == resident slots means no representation was ever
    // prepared twice.
    assert_eq!(
        after_cold.misses,
        cache.len(),
        "exactly one prepare per distinct representation config"
    );

    // A warm re-sweep prepares nothing and reproduces every
    // deterministic report column.
    let warm = run_all_methods(&ctx);
    let after_warm = cache.stats();
    assert_eq!(
        after_warm.misses, after_cold.misses,
        "warm sweep: no prepares"
    );
    assert!(after_warm.hits > after_cold.hits);
    assert!(after_warm.prepare_saved > after_cold.prepare_saved);
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(stable(c), stable(w), "{}", c.method);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cold `run()` and cache-mediated prepare-then-query yield the same
    /// candidate pairs, and a second query of the same artifact is
    /// idempotent — at 1 and at 8 worker threads.
    #[test]
    fn cached_queries_match_cold_runs(
        threshold in 0.05f64..0.9,
        k in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let cleaning = seed % 2 == 0;
        let ds = generate(er::datagen::profiles::profile("D1").expect("D1"), 0.03, seed);
        let view = text_view(&ds, &SchemaMode::Agnostic);
        let model = RepresentationModel::parse("C3G").expect("C3G");
        let eps = EpsilonJoin {
            cleaning,
            model,
            measure: SimilarityMeasure::Cosine,
            threshold,
        };
        let knn = KnnJoin {
            cleaning,
            model,
            measure: SimilarityMeasure::Cosine,
            k,
            reversed: false,
        };
        for threads in [1usize, 8] {
            Threads::set(threads);
            for filter in [&eps as &dyn Filter, &knn as &dyn Filter] {
                let cold = filter.run(&view).candidates.to_sorted_vec();
                let cache = ArtifactCache::new();
                let key = ArtifactKey::new(view.fingerprint(), filter.repr_key());
                let prepared = cache
                    .get_or_prepare(&key, || filter.prepare(&view))
                    .expect("fresh prepare");
                let warm1 = filter.query(&view, &prepared).candidates.to_sorted_vec();
                let warm2 = filter.query(&view, &prepared).candidates.to_sorted_vec();
                prop_assert_eq!(&cold, &warm1, "{} at {} threads", filter.name(), threads);
                prop_assert_eq!(&warm1, &warm2, "{}: query is idempotent", filter.name());
                prop_assert_eq!(cache.stats().misses, 1);
            }
        }
        Threads::set(0);
    }
}

/// D5 is not schema-based viable, so the sweep is a single "Da5" column
/// of 17 grid points (same fixture as `integration_faults`).
fn sweep_settings(extra: &[&str]) -> Settings {
    let base = [
        "--datasets",
        "D5",
        "--scale",
        "0.06",
        "--grid",
        "quick",
        "--reps",
        "1",
        "--dim",
        "32",
        "--seed",
        "11",
    ];
    Settings::try_parse(base.iter().chain(extra).map(|s| s.to_string())).expect("settings")
}

#[test]
fn prepare_faults_poison_dependents_and_stay_thread_invariant() {
    Threads::set(1);
    let clean = run_sweep(&sweep_settings(&[]), 1, false).expect("clean sweep");

    // Poison every sparse tokenization/index prepare: exactly the two
    // grid points built on cached sparse artifacts must fail (DkNN runs
    // its honest baseline measurement outside the cache).
    let s = sweep_settings(&["--inject-faults", "panic@prepare/sparse*"]);
    let plan = s.faults.clone().expect("plan");
    let faulted = faults::with_plan(plan.clone(), || run_sweep(&s, 1, false)).expect("sweep");
    let failed: Vec<&str> = faulted[0]
        .outcomes
        .iter()
        .filter(|o| o.error.is_some())
        .map(|o| o.method.as_str())
        .collect();
    assert_eq!(failed, ["e-Join", "kNN-Join"], "sparse dependents fail");
    for o in &faulted[0].outcomes {
        if let Some(err) = &o.error {
            assert!(
                err.contains("injected fault") || err.contains("poisoned prepare at sparse:"),
                "{}: {err}",
                o.method
            );
        }
    }
    // Fault isolation: every surviving grid point matches the clean run.
    for (c, f) in clean[0].outcomes.iter().zip(&faulted[0].outcomes) {
        if f.error.is_none() {
            assert_eq!(stable(c), stable(f), "{}", c.method);
        }
    }

    // One plan per cache-fetch path: the blocking families' raw blocks,
    // MinHash's grouped grid, Hyperplane LSH's probe groups, and a
    // probabilistic sparse prefix that poisons only some (CL, RM) groups.
    // The fault grammar ends a site at its first ':', so each prefix
    // stops at the family name.
    let partial = sweep_settings(&[
        "--inject-faults",
        "panic@prepare/blocks*;panic@prepare/mh*;panic@prepare/hp*;\
         panic@prepare/sparse*:p=0.5,seed=3",
    ]);
    let partial_plan = partial.faults.clone().expect("plan");
    let mixed =
        faults::with_plan(partial_plan.clone(), || run_sweep(&partial, 1, false)).expect("sweep");
    let errors: Vec<(&str, &str)> = mixed[0]
        .outcomes
        .iter()
        .filter_map(|o| Some((o.method.as_str(), o.error.as_deref()?)))
        .collect();
    assert_eq!(
        errors,
        [
            ("SBW", "panicked: injected fault: panic at prepare/blocks:Standard"),
            ("QBW", "panicked: injected fault: panic at prepare/blocks:QGrams { q: 3 }"),
            (
                "EQBW",
                "panicked: injected fault: panic at prepare/blocks:ExtendedQGrams { q: 3, t: 0.9 }"
            ),
            (
                "SABW",
                "panicked: injected fault: panic at prepare/blocks:SuffixArrays { l_min: 3, b_max: 25 }"
            ),
            (
                "ESABW",
                "panicked: injected fault: panic at \
                 prepare/blocks:ExtendedSuffixArrays { l_min: 3, b_max: 25 }"
            ),
            ("MH-LSH", "panicked: injected fault: panic at prepare/mh:CL=y:k=3:b=32:r=8:s=b"),
            (
                "HP-LSH",
                "panicked: injected fault: panic at prepare/hp:CL=y:T=8:H=8:s=b:d32g3-5s5eed"
            ),
        ]
    );
    // The partially poisoned sparse methods still report a measured row;
    // `evaluated` counts only the configurations of surviving groups.
    let row = |name: &str| {
        let o = mixed[0]
            .outcomes
            .iter()
            .find(|o| o.method == name)
            .expect("row");
        (o.config.as_str(), o.evaluated, o.pc)
    };
    assert_eq!(
        row("e-Join"),
        ("CL=y RM=T1G SM=Cosine t=0.60", 5, 0.9322033898305084)
    );
    assert_eq!(
        row("kNN-Join"),
        ("CL=y RVS=- RM=T1G SM=Cosine K=1", 1, 0.923728813559322)
    );
    for (c, m) in clean[0].outcomes.iter().zip(&mixed[0].outcomes) {
        if !["e-Join", "kNN-Join"].contains(&c.method.as_str()) && m.error.is_none() {
            assert_eq!(stable(c), stable(m), "{}", c.method);
        }
    }

    // The deterministic report artifact is thread-count invariant, with
    // and without the injected prepare faults.
    let faulted_csv = sweep_csv(&faulted, false);
    let clean_csv = sweep_csv(&clean, false);
    let mixed_csv = sweep_csv(&mixed, false);
    Threads::set(8);
    let clean8 = run_sweep(&sweep_settings(&[]), 1, false).expect("8-thread sweep");
    let faulted8 = faults::with_plan(plan, || run_sweep(&s, 1, false)).expect("8-thread sweep");
    let mixed8 =
        faults::with_plan(partial_plan, || run_sweep(&partial, 1, false)).expect("8-thread sweep");
    assert_eq!(sweep_csv(&clean8, false), clean_csv);
    assert_eq!(sweep_csv(&faulted8, false), faulted_csv);
    assert_eq!(sweep_csv(&mixed8, false), mixed_csv);
    Threads::set(0);
}

#[test]
fn eviction_under_budget_is_deterministic_across_thread_counts() {
    // 6 groups x 3 params, 64-byte artifacts, budget for two artifacts:
    // the grouped sweep must evict in the same order (and keep the same
    // residents) no matter how many threads evaluate the queries.
    let run_at = |threads: usize| {
        let cache = ArtifactCache::with_budget(150);
        let opt = Optimizer::new(0.9);
        let configs: Vec<(usize, usize)> =
            (0..6).flat_map(|g| (0..3).map(move |i| (g, i))).collect();
        let outcome = opt.grid_grouped(
            threads,
            &cache,
            7,
            configs,
            |c| format!("g{}", c.0),
            |c| Prepared::new(c.0, 64, PhaseBreakdown::new()),
            |c, prepared| {
                let base = *prepared.downcast::<usize>();
                (
                    Effectiveness {
                        pc: 1.0,
                        pq: 1.0 / (1.0 + (base * 10 + c.1) as f64),
                        candidates: base * 10 + c.1,
                        duplicates_found: 1,
                    },
                    PhaseBreakdown::new(),
                )
            },
        );
        let stats = cache.stats();
        let residents: Vec<bool> = (0..6)
            .map(|g| cache.uses(&ArtifactKey::new(7, format!("g{g}"))) > 0)
            .collect();
        let best = outcome.best().map(|b| b.config);
        (stats.misses, stats.evictions, residents, best)
    };

    let serial = run_at(1);
    assert_eq!(serial.0, 6, "every group prepared once");
    assert_eq!(serial.1, 4, "budget keeps two of six artifacts");
    assert_eq!(
        serial.2,
        [false, false, false, false, true, true],
        "LRU keeps the most recent groups"
    );
    for threads in [2usize, 8] {
        assert_eq!(run_at(threads), serial, "{threads} threads");
    }
}
