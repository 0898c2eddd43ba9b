//! The out-of-core streamed shard sweep (`er sweep --shards N`).
//!
//! Unlike the profile-based Table VII sweep, which materializes whole
//! datasets, this driver targets collections that do not fit in memory
//! (the 10M-row regime): rows come from the constant-memory
//! [`StreamGen`] and the collection is split into deterministic shards
//! by [`ShardPlan`] — shard membership is a pure function of the stable
//! row id, so any process at any shard count agrees on the partition.
//!
//! The sweep is **shard-major**: one shard at a time is fetched through
//! the [`ArtifactCache`] (prepared from the stream on a cold miss,
//! loaded from the `.erst` store file on a warm one), wrapped as a
//! one-segment [`SegmentedTokenSets`] — empty delta, no tombstones,
//! nothing suppressed — and answers every query through its
//! `epsilon_batch`: the serving stack's own batch runner and row kernel,
//! on the deterministic parallel layer. The shard is released before the
//! next one is touched. Under a `--cache-budget` below the total artifact footprint
//! the cache *unmaps* cold shards (drops the resident copy of an entry
//! the disk tier already holds) instead of re-preparing them — peak
//! memory is a handful of shards, never the collection.
//!
//! Per-shard candidate lists are merged in shard order. Shards own
//! disjoint stable-id sets and each per-shard list is ascending, so the
//! final per-query sort reproduces the monolithic ascending candidate
//! list exactly — the *report is byte-identical at any shard count and
//! any thread count*. Everything that legitimately varies (shard count,
//! timings, peak RSS, cache traffic) goes to the separate
//! `BENCH_shard.json` document instead.

use crate::jsonl::Json;
use crate::settings::Settings;
use er::core::artifacts::{ArtifactCache, ArtifactKey};
use er::core::hash::mix64;
use er::core::shard::{shard_repr, ShardPlan};
use er::core::timing::Stage;
use er::core::{PhaseBreakdown, Prepared, Stopwatch, Threads};
use er::datagen::{StreamGen, StreamSpec};
use er::sparse::segmented::segment_repr;
use er::sparse::{
    EpsilonJoin, RepresentationModel, SegmentedTokenSets, SimilarityMeasure, SparseSegment,
};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The unqualified repr-key base of the streamed collection's shard
/// artifacts; shard `s` of `n` lives under `shard_repr(BASE_REPR, s, n)`.
pub const BASE_REPR: &str = "stream/eps";

/// Everything one shard sweep produced.
#[derive(Debug)]
pub struct ShardSweepOutcome {
    /// The deterministic report: byte-identical at any shard count ×
    /// thread count (CI `cmp`s it across runs). Carries the workload
    /// spec, aggregate candidate statistics and the candidate digest —
    /// never timings, shard counts or host state.
    pub report: String,
    /// The per-run metrics document (`BENCH_shard.json`): throughput,
    /// peak RSS, shard count, cache counters including `unmaps`.
    pub bench: Json,
}

/// The streamed workload a [`Settings`] describes: `--rows`, `--queries`
/// and `--seed` pin the collection, everything else keeps the skewed
/// defaults of [`StreamSpec`]. The vocabulary scales with the row count
/// so token selectivity stays roughly constant across scales.
pub fn stream_spec(settings: &Settings) -> StreamSpec {
    let rows = settings.rows.unwrap_or(20_000);
    let queries = settings
        .queries
        .unwrap_or_else(|| (rows / 20).clamp(1, 2_000));
    StreamSpec {
        seed: settings.seed,
        rows,
        queries,
        vocab: (rows as u64).saturating_mul(5).max(1_000),
        ..StreamSpec::default()
    }
}

/// Runs the out-of-core streamed shard sweep described by `settings`
/// (shard count from `--shards`, workload from `--rows`/`--queries`/
/// `--seed`/`--threshold`, residency from `--cache-budget`, persistence
/// from `--store-dir`).
pub fn run_shard_sweep(settings: &Settings, verbose: bool) -> io::Result<ShardSweepOutcome> {
    let spec = stream_spec(settings);
    let gen = StreamGen::new(spec);
    let dataset_fp = gen.fingerprint();
    let plan = ShardPlan::new(settings.shards.unwrap_or(1));
    let threshold = settings.threshold.unwrap_or(0.4);
    let threads = if settings.threads == 0 {
        Threads::get()
    } else {
        settings.threads
    };
    let join = EpsilonJoin {
        cleaning: false,
        model: RepresentationModel::parse("T1G").expect("T1G"),
        measure: SimilarityMeasure::Cosine,
        threshold,
    };

    let cache = ArtifactCache::new();
    cache.set_budget(settings.cache_budget);
    if let Some(dir) = &settings.store_dir {
        cache.set_store(Some(Arc::new(crate::store::open_store(Path::new(dir))?)));
    }

    // The query side is small and shared by every shard; it stays
    // resident for the whole sweep.
    let query_raw = gen.query_rows();
    let n_queries = query_raw.len();
    let sw_total = Stopwatch::start();
    let mut query_wall = std::time::Duration::ZERO;
    let mut results: Vec<Vec<u32>> = vec![Vec::new(); n_queries];

    for s in 0..plan.n() {
        let base = shard_repr(BASE_REPR, s, plan.n());
        let key = ArtifactKey::new(dataset_fp, segment_repr(&base, 0));
        let prepared = cache
            .get_or_prepare(&key, || {
                let mut breakdown = PhaseBreakdown::new();
                let segment = breakdown.time_in(Stage::Prepare, "shard-build", || {
                    // One regenerating pass over the stream: rows arrive
                    // in ascending id order, exactly what the segment
                    // builder expects, and nothing outside this shard is
                    // ever materialized.
                    let rows: Vec<(u32, Vec<u64>)> = gen
                        .shard_rows(&plan, s)
                        .map(|row| (row.id, row.tokens))
                        .collect();
                    SparseSegment::build(0, rows, &query_raw)
                });
                let bytes = segment.heap_bytes();
                Prepared::from_arc(Arc::new(segment), bytes, breakdown)
            })
            .map_err(io::Error::other)?;
        let segment = prepared
            .arc()
            .downcast::<SparseSegment>()
            .map_err(|_| io::Error::other(format!("{} is not a sparse segment", key.repr)))?;
        let rows = segment.len();
        let shard = SegmentedTokenSets::from_segment(base, segment, query_raw.clone());

        // Each row's list holds this shard's stable ids, ascending.
        let sw = Stopwatch::start();
        for (j, list) in shard.epsilon_batch(&join, threads).into_iter().enumerate() {
            results[j].extend(list);
        }
        query_wall += sw.elapsed();
        if verbose {
            eprintln!(
                "   [shard {s}/{}] {rows} rows, query pass {}",
                plan.n(),
                er::core::timing::format_runtime(sw.elapsed()),
            );
        }
    }
    cache.flush_store();

    // Concatenation in shard order + one final sort reproduces the
    // monolithic ascending candidate list (shards partition the stable
    // ids). Strict ascent doubles as the merge self-check: a duplicate
    // would mean two shards answered for one row.
    let mut merge_ok = true;
    for list in &mut results {
        list.sort_unstable();
        merge_ok &= list.windows(2).all(|w| w[0] < w[1]);
    }

    let total_candidates: u64 = results.iter().map(|l| l.len() as u64).sum();
    let matched = results.iter().filter(|l| !l.is_empty()).count();
    let digest = candidate_digest(&results);
    let stats = cache.stats();
    let total_s = sw_total.elapsed().as_secs_f64();
    let build_s = stats.prepare_wall.as_secs_f64();
    let query_s = query_wall.as_secs_f64();

    let report = render_report(
        &spec,
        threshold,
        matched,
        total_candidates,
        digest,
        &results,
    );
    let bench = Json::Obj(vec![
        ("bench".to_owned(), Json::Str("shard_sweep".to_owned())),
        (
            "workload".to_owned(),
            Json::Obj(vec![
                ("rows".to_owned(), Json::Num(spec.rows as f64)),
                ("queries".to_owned(), Json::Num(spec.queries as f64)),
                ("vocab".to_owned(), Json::Num(spec.vocab as f64)),
                ("zipf".to_owned(), Json::Num(spec.zipf)),
                ("dirtiness".to_owned(), Json::Num(spec.dirtiness)),
                ("seed".to_owned(), Json::Num(spec.seed as f64)),
                ("threshold".to_owned(), Json::Num(threshold)),
            ]),
        ),
        ("shards".to_owned(), Json::Num(plan.n() as f64)),
        ("threads".to_owned(), Json::Num(threads as f64)),
        ("candidate_sets_identical".to_owned(), Json::Bool(merge_ok)),
        (
            "report_digest".to_owned(),
            Json::Str(format!("{digest:016x}")),
        ),
        ("candidates".to_owned(), Json::Num(total_candidates as f64)),
        ("build_s".to_owned(), Json::Num(build_s)),
        ("query_s".to_owned(), Json::Num(query_s)),
        ("total_s".to_owned(), Json::Num(total_s)),
        (
            "throughput".to_owned(),
            Json::Obj(vec![(
                "rows_per_s".to_owned(),
                Json::Num(spec.rows as f64 / total_s.max(1e-9)),
            )]),
        ),
        (
            "peak_rss_bytes".to_owned(),
            match peak_rss_bytes() {
                Some(b) => Json::Num(b as f64),
                None => Json::Null,
            },
        ),
        (
            "cache".to_owned(),
            Json::Obj(vec![
                ("hits".to_owned(), Json::Num(stats.hits as f64)),
                ("misses".to_owned(), Json::Num(stats.misses as f64)),
                ("store_hits".to_owned(), Json::Num(stats.store_hits as f64)),
                ("evictions".to_owned(), Json::Num(stats.evictions as f64)),
                ("unmaps".to_owned(), Json::Num(stats.unmaps as f64)),
                ("spills".to_owned(), Json::Num(stats.spills as f64)),
                ("resident_bytes".to_owned(), Json::Num(stats.bytes as f64)),
            ]),
        ),
    ]);
    if !merge_ok {
        return Err(io::Error::other(
            "shard merge self-check failed: duplicate stable id across shards",
        ));
    }
    Ok(ShardSweepOutcome { report, bench })
}

/// An order-sensitive digest over the per-query candidate lists — equal
/// digests mean equal reports.
fn candidate_digest(results: &[Vec<u32>]) -> u64 {
    let mut d = 0x5348_4152_445f_4556u64; // "SHARD_EV"
    for (j, list) in results.iter().enumerate() {
        d = mix64(d ^ j as u64);
        for &id in list {
            d = mix64(d ^ u64::from(id));
        }
    }
    d
}

/// Renders the deterministic report (see [`ShardSweepOutcome::report`]).
/// A short per-query head keeps failures diagnosable without bloating
/// the file at large query counts.
fn render_report(
    spec: &StreamSpec,
    threshold: f64,
    matched: usize,
    total_candidates: u64,
    digest: u64,
    results: &[Vec<u32>],
) -> String {
    let mut out = String::new();
    out.push_str("er shard sweep v1\n");
    out.push_str(&format!(
        "workload rows={} queries={} vocab={} zipf={} min_tokens={} max_tokens={} \
         dirtiness={} seed={}\n",
        spec.rows,
        spec.queries,
        spec.vocab,
        spec.zipf,
        spec.min_tokens,
        spec.max_tokens,
        spec.dirtiness,
        spec.seed,
    ));
    out.push_str(&format!("epsilon threshold={threshold} measure=cosine\n"));
    out.push_str(&format!(
        "candidates total={total_candidates} matched_queries={matched}\n"
    ));
    out.push_str(&format!("digest {digest:016x}\n"));
    for (j, list) in results.iter().enumerate().take(10) {
        let head: Vec<String> = list.iter().take(8).map(|id| id.to_string()).collect();
        out.push_str(&format!("q{j} n={} [{}]\n", list.len(), head.join(",")));
    }
    out
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable. This is
/// the number the out-of-core acceptance gate caps: it must stay below
/// the total artifact footprint when the residency budget is doing its
/// job.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(args: &[&str]) -> Settings {
        Settings::parse(args.iter().map(|s| s.to_string()))
    }

    fn sweep(args: &[&str]) -> ShardSweepOutcome {
        run_shard_sweep(&settings(args), false).expect("sweep")
    }

    #[test]
    fn report_is_identical_across_shard_and_thread_counts() {
        let base = sweep(&["--rows", "600", "--queries", "40", "--shards", "1"]);
        for shards in ["3", "8"] {
            for threads in ["1", "8"] {
                let got = sweep(&[
                    "--rows",
                    "600",
                    "--queries",
                    "40",
                    "--shards",
                    shards,
                    "--threads",
                    threads,
                ]);
                assert_eq!(
                    got.report, base.report,
                    "report differs at shards={shards} threads={threads}"
                );
            }
        }
        // The workload produces a non-trivial sweep: some queries match.
        assert!(base.report.contains("matched_queries"));
        let matched: Vec<&str> = base
            .report
            .lines()
            .filter(|l| l.starts_with("candidates "))
            .collect();
        assert_eq!(matched.len(), 1);
        assert!(!matched[0].contains("matched_queries=0 "));
    }

    #[test]
    fn report_digest_is_frozen() {
        // Computed before the shard sweep moved onto the serving stack's
        // query path; any change to an answer moves it.
        let out = sweep(&["--rows", "600", "--queries", "40", "--shards", "3"]);
        let digest = out.report.lines().find(|l| l.starts_with("digest "));
        assert_eq!(digest, Some("digest 090e70a0a722d0af"), "{}", out.report);
    }

    #[test]
    fn bench_doc_reports_the_varying_metrics() {
        let out = sweep(&["--rows", "400", "--queries", "20", "--shards", "4"]);
        let enc = out.bench.encode();
        let doc = Json::parse(&enc).expect("bench json round-trips");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("shard_sweep"));
        assert_eq!(doc.get("shards").and_then(Json::as_f64), Some(4.0));
        assert_eq!(doc.get("candidate_sets_identical"), Some(&Json::Bool(true)));
        assert!(doc.get("throughput").is_some());
        let cache = doc.get("cache").expect("cache stats");
        assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn budgeted_store_run_unmaps_instead_of_rebuilding() {
        let dir = std::env::temp_dir().join(format!("er-shard-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let dir_s = dir.to_str().expect("utf8 dir");
        // Cold pass populates the store; a tiny budget forces every
        // insertion to evict (and spill) the previous shard.
        let args = [
            "--rows",
            "800",
            "--queries",
            "30",
            "--shards",
            "6",
            "--cache-budget",
            "4k",
            "--store-dir",
            dir_s,
        ];
        let cold = sweep(&args);
        // Warm pass: every shard is a store hit, evictions of on-disk
        // entries are unmaps, and the report is unchanged.
        let warm = sweep(&args);
        assert_eq!(warm.report, cold.report);
        let doc = Json::parse(&warm.bench.encode()).expect("json");
        let cache = doc.get("cache").expect("cache");
        assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(0.0));
        assert_eq!(cache.get("store_hits").and_then(Json::as_f64), Some(6.0));
        assert!(
            cache.get("unmaps").and_then(Json::as_f64).unwrap_or(0.0) >= 5.0,
            "budgeted warm pass must unmap cold shards: {cache:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes().expect("VmHWM") > 0);
        }
    }
}
