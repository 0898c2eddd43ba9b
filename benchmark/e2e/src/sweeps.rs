//! The offline workloads: three in-process grid sweeps over one method
//! family each, and the out-of-core shard sweep through the `er` binary.

use crate::daemon::{self, run_to_completion};
use crate::json;
use crate::report::Outcome;
use crate::stats::{max, min};
use crate::trace::Tracer;
use crate::Config;
use er::core::artifacts::ArtifactCache;
use er::core::schema::{text_view, SchemaMode};
use er::core::Threads;
use er::datagen::{generate, profiles::profile};
use er_bench::harness::{run_method, Context, MethodId};
use std::path::Path;
use std::time::Instant;

/// One grid-sweep workload: a method family on a dataset sized so that a
/// run makes four to twelve passes on the reference 2-core box, at a
/// scale where the sweep's work (its grid stops early, at a point the
/// data decides) differs by a few per cent from one seed to the next.
pub struct Grid {
    pub profile: &'static str,
    pub scale: f64,
    /// The crate that does the work, for span attribution.
    pub layer: &'static str,
    pub methods: &'static [MethodId],
}

pub fn grid_of(workload: &str) -> Grid {
    use MethodId::*;
    match workload {
        "sweep_blocking" => Grid {
            profile: "D2",
            scale: 0.2,
            layer: "blocking",
            methods: &[Sbw, Qbw, Eqbw, Sabw, Esabw, Pbw, Dbw],
        },
        "sweep_sparse" => Grid {
            profile: "D10",
            scale: 0.07,
            layer: "sparse",
            methods: &[Epsilon, Knn, Dknn],
        },
        "sweep_dense" => Grid {
            profile: "D10",
            scale: 0.007,
            layer: "dense",
            methods: &[
                MinHash,
                CrossPolytope,
                Hyperplane,
                Faiss,
                Scann,
                DeepBlocker,
                Ddb,
            ],
        },
        other => unreachable!("{other} is not a grid sweep"),
    }
}

/// A pass repeats at least this often, so that every method has this
/// many chances to run while the box is undisturbed.
const MIN_PASSES: usize = 4;
/// Set-up is cheap here (milliseconds), so it is repeated this often
/// before every method of every pass, spread over the whole run like the
/// passes themselves, and the best repeat is reported.
const SETUPS_PER_METHOD: usize = 4;

/// FNV-1a over the bytes of `text`.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// This process's own `VmHWM` in MiB.
fn own_peak_rss_mib() -> f64 {
    daemon::vm_hwm_kib(std::process::id()).unwrap_or(0) as f64 / 1024.0
}

/// `sweep_blocking` / `sweep_sparse` / `sweep_dense`: `run_method` for
/// each method of the family, one thread, a fresh `ArtifactCache` per
/// pass, passes repeated for `--seconds`.
pub fn grid_sweep(cfg: &Config) -> Result<Outcome, String> {
    let grid = grid_of(&cfg.workload);
    let prof = profile(grid.profile).ok_or_else(|| format!("no profile {}", grid.profile))?;
    let mut outcome = Outcome::default();

    // Set-up: workload start to "a pass could begin".
    let mut setups: Vec<f64> = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let ds = generate(prof, grid.scale, cfg.seed);
        let view = text_view(&ds, &SchemaMode::Agnostic);
        setups.push(start.elapsed().as_secs_f64());
        (ds, view)
    };
    let (ds, view) = set_up();
    Threads::set(1);

    /// One pass's times in seconds: the methods' walls and their sum.
    struct Pass {
        wall: f64,
        methods: Vec<f64>,
        traced: bool,
    }
    let mut tracer = Tracer::new(1);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut digests: Vec<String> = Vec::new();
    let mut cache_stats = None;
    loop {
        // A pass is started while a typical one still fits the budget.
        let spent = started.elapsed().as_secs_f64();
        let typical = spent / passes.len().max(1) as f64;
        if passes.len() >= MIN_PASSES && spent + typical > cfg.seconds {
            break;
        }
        // Traced runs alternate traced and untraced passes so the cost
        // of recording shows as `trace.overhead_pct`.
        let traced = cfg.trace && passes.len() % 2 == 1;
        let cache = ArtifactCache::new();
        let ctx = Context {
            seed: cfg.seed,
            label: cfg.workload.clone(),
            ..Context::new(&view, &ds.groundtruth, &cache)
        };
        let mut spans = Vec::new();
        let mut summary = String::new();
        for &id in grid.methods {
            for _ in 0..SETUPS_PER_METHOD {
                set_up();
            }
            let t0 = Instant::now();
            let out = run_method(&ctx, id);
            let t1 = Instant::now();
            spans.push((id.name(), t0, t1));
            outcome.attempted += 1;
            if let Some(err) = &out.error {
                outcome.failed += 1;
                outcome.fail_check(format!("{} failed: {err}", id.name()));
            }
            summary.push_str(&format!(
                "{}|{}|{:.12}|{:.12}|{}\n",
                out.method, out.config, out.pc, out.pq, out.candidates
            ));
        }
        if traced {
            let (first, last) = (spans[0].1, spans[spans.len() - 1].2);
            let parent = tracer.record("pass", "bench", None, None, first, last);
            for &(name, t0, t1) in &spans {
                let span = format!("run_method:{name}");
                tracer.record(&span, grid.layer, Some(parent), None, t0, t1);
            }
        }
        let methods: Vec<f64> = spans
            .iter()
            .map(|(_, t0, t1)| (*t1 - *t0).as_secs_f64())
            .collect();
        passes.push(Pass {
            wall: methods.iter().sum(),
            methods,
            traced,
        });
        digests.push(summary);
        cache_stats = Some(cache.stats());
    }

    // Every pass must agree on every method's (config, PC, PQ, |C|).
    let first = &digests[0];
    for (i, d) in digests.iter().enumerate().skip(1) {
        outcome.check(d == first, || {
            format!("pass {i} disagrees with pass 0:\n{d}vs\n{first}")
        });
    }
    outcome.note(format!(
        "digest {:016x} over {} passes x {} methods on {} x {} ({} + {} rows)",
        fnv1a(first),
        passes.len(),
        grid.methods.len(),
        grid.profile,
        grid.scale,
        ds.e1.len(),
        ds.e2.len(),
    ));

    // The box this runs on slows by up to half for seconds at a time
    // (see the README), and a compute-bound wall slows with it: a median
    // of passes then says how the box was, not how the code is. Each
    // method's best wall over the passes does not, so the sweep is
    // reported as the sum of those, and its slowest method as the tail.
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let best: Vec<f64> = (0..grid.methods.len())
        .map(|m| min(&passes.iter().map(|p| p.methods[m]).collect::<Vec<_>>()))
        .collect();
    outcome.note(format!(
        "pass walls {walls:.3?} s, best walls per method {best:.3?} s; {} set-up repeats",
        setups.len()
    ));
    outcome.set("setup_s", min(&setups));
    outcome.set("op_ms", best.iter().sum::<f64>() * 1e3);
    outcome.set("tail_ms", max(&best) * 1e3);
    outcome.set("peak_rss_mb", own_peak_rss_mib());

    if cfg.trace {
        for (&id, &wall) in grid.methods.iter().zip(&best) {
            outcome.set(&format!("method.{}.wall_s", id.name()), wall);
        }
        if let Some(stats) = cache_stats {
            outcome.set("core.cache_hits", stats.hits as f64);
            outcome.set("core.cache_misses", stats.misses as f64);
        }
        let of = |want: bool| -> Vec<f64> {
            passes
                .iter()
                .filter(|p| p.traced == want)
                .map(|p| p.wall)
                .collect()
        };
        let (plain, traced) = (of(false), of(true));
        if !plain.is_empty() && !traced.is_empty() {
            let base = min(&plain);
            outcome.set("trace.overhead_pct", (min(&traced) - base) / base * 100.0);
        }
        outcome.set(
            "loadgen.error_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        );
        crate::suite::finish_trace(cfg, &mut outcome, &tracer, &[])?;
    }
    Ok(outcome)
}

/// The shard sweep's shape: a collection whose shard files outgrow the
/// residency budget (about 10 MB of files against 8 MiB), so warm
/// passes page shards through the store instead of holding them.
pub const SHARD_ROWS: u64 = 80_000;
pub const SHARD_QUERIES: u64 = 2_000;
const SHARD_BUDGET: &str = "5M";
pub const SHARDS: u32 = 4;
const SWEEP_THREADS: usize = 2;
/// Cold + warm pairs a run makes at least: the chances each pass has
/// to run while the box is undisturbed.
const MIN_PAIRS: usize = 4;

fn shard_args(seed: u64, rows: u64, queries: u64, store: &Path, tag: &str) -> Vec<String> {
    let dir = store.parent().expect("store dir has a parent");
    [
        "sweep",
        "--shards",
        &SHARDS.to_string(),
        "--rows",
        &rows.to_string(),
        "--queries",
        &queries.to_string(),
        "--threshold",
        "0.4",
        "--threads",
        &SWEEP_THREADS.to_string(),
        "--cache-budget",
        SHARD_BUDGET,
        "--seed",
        &seed.to_string(),
        "--store-dir",
        &store.display().to_string(),
        "--report",
        &dir.join(format!("{tag}.report.txt")).display().to_string(),
        "--shard-bench",
        &dir.join(format!("{tag}.bench.json")).display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// `shard_sweep`: `er sweep --shards 4` cold over an empty store — the
/// set-up, which prepares and persists every shard — then warm over the
/// store the cold pass populated — the timed operation; pairs repeated
/// for `--seconds`.
pub fn shard_sweep(cfg: &Config) -> Result<Outcome, String> {
    let scratch = cfg.scratch()?;
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(1);
    let result = shard_sweep_in(cfg, &scratch, &mut outcome, &mut tracer);
    let _ = std::fs::remove_dir_all(&scratch);
    result?;
    if cfg.trace {
        crate::suite::finish_trace(cfg, &mut outcome, &tracer, &[])?;
    }
    Ok(outcome)
}

fn shard_sweep_in(
    cfg: &Config,
    scratch: &Path,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let started = Instant::now();
    // Per pair: the cold and the warm process's seconds.
    let mut pairs: Vec<[f64; 2]> = Vec::new();
    let mut peak = 0f64;
    let mut last_cold = None;
    let mut last_warm = None;
    loop {
        // A pair is started while a typical one still fits the budget.
        let spent = started.elapsed().as_secs_f64();
        let typical = spent / pairs.len().max(1) as f64;
        if pairs.len() >= MIN_PAIRS && spent + typical > cfg.seconds {
            break;
        }
        let dir = scratch.join(format!("pair{}", pairs.len()));
        let store = dir.join("store");
        std::fs::create_dir_all(&store).map_err(|e| e.to_string())?;
        let mut walls = [0.0; 2];
        for (slot, tag) in ["cold", "warm"].into_iter().enumerate() {
            let t0 = Instant::now();
            let done = run_to_completion(
                &cfg.er_bin,
                &shard_args(cfg.seed, SHARD_ROWS, SHARD_QUERIES, &store, tag),
            )?;
            let t1 = Instant::now();
            outcome.attempted += 1;
            if !done.status.success() {
                outcome.failed += 1;
                return Err(format!(
                    "{tag} shard sweep exited {}: {}",
                    done.status, done.stderr
                ));
            }
            walls[slot] = done.wall.as_secs_f64();
            peak = peak.max(done.peak_rss_mib);
            if cfg.trace {
                tracer.record(
                    &format!("er sweep --shards ({tag})"),
                    "bench",
                    None,
                    None,
                    t0,
                    t1,
                );
            }
        }
        // Output checks: identical candidate sets, identical reports,
        // and a warm pass that paged every shard instead of preparing.
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name)).map_err(|e| format!("read {name}: {e}"))
        };
        let cold = json::parse(read("cold.bench.json")?.trim())?;
        let warm = json::parse(read("warm.bench.json")?.trim())?;
        for (tag, doc) in [("cold", &cold), ("warm", &warm)] {
            outcome.check(doc.bool("candidate_sets_identical") == Some(true), || {
                format!("{tag} pass: candidate_sets_identical is not true")
            });
        }
        outcome.check(read("cold.report.txt")? == read("warm.report.txt")?, || {
            "cold and warm reports differ".to_owned()
        });
        let warm_cache = warm.get("cache").cloned().unwrap_or(json::Value::Null);
        outcome.check(
            warm_cache.num("misses") == Some(0.0)
                && warm_cache.num("store_hits") == Some(f64::from(SHARDS)),
            || format!("warm pass re-prepared: cache {}", warm_cache.encode()),
        );
        pairs.push(walls);
        let _ = std::fs::remove_dir_all(&store);
        last_cold = Some(cold);
        last_warm = Some(warm);
    }

    let colds: Vec<f64> = pairs.iter().map(|p| p[0]).collect();
    let warms: Vec<f64> = pairs.iter().map(|p| p[1]).collect();
    outcome.note(format!(
        "{} cold+warm pair(s) of {SHARD_ROWS} rows x {SHARD_QUERIES} queries, {SHARDS} shards, \
         budget {SHARD_BUDGET}; digest {}; cold {colds:.3?} s, warm {warms:.3?} s",
        pairs.len(),
        last_cold
            .as_ref()
            .and_then(|c| c.str("report_digest"))
            .unwrap_or("?"),
    ));
    // Best of the pairs, for the grid sweeps' reason. The slowest step
    // of this workload is its cold pass.
    outcome.set("setup_s", min(&colds));
    outcome.set("op_ms", min(&warms) * 1e3);
    outcome.set("tail_ms", min(&colds) * 1e3);
    outcome.set("peak_rss_mb", peak);

    if cfg.trace {
        // The program's own cache counters, read from its bench file:
        // cold pass spills and evictions, warm pass store hits and unmaps.
        let cache = |doc: &Option<json::Value>, key: &str| {
            doc.as_ref()
                .and_then(|d| d.get("cache"))
                .and_then(|c| c.num(key))
        };
        for (metric, doc, key) in [
            ("core.cache_misses", &last_cold, "misses"),
            ("core.cache_spills", &last_cold, "spills"),
            ("core.cache_evictions", &last_warm, "evictions"),
            ("core.cache_store_hits", &last_warm, "store_hits"),
            ("core.cache_unmaps", &last_warm, "unmaps"),
        ] {
            if let Some(v) = cache(doc, key) {
                outcome.set(metric, v);
            }
        }
        outcome.set(
            "loadgen.error_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        );
        // Spans here are two `Instant`s around a child process: there is
        // nothing to switch off, so the overhead is zero by construction.
        outcome.set("trace.overhead_pct", 0.0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn every_grid_names_a_known_profile_and_its_own_methods() {
        let mut seen = Vec::new();
        for w in ["sweep_blocking", "sweep_sparse", "sweep_dense"] {
            let g = grid_of(w);
            assert!(profile(g.profile).is_some(), "{w}: {}", g.profile);
            for m in g.methods {
                assert!(!seen.contains(&m.name()), "{} is in two grids", m.name());
                seen.push(m.name());
            }
        }
        assert_eq!(
            seen.len(),
            MethodId::ALL.len(),
            "all 17 Table VII methods are covered"
        );
    }
}
