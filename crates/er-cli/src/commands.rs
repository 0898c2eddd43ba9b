//! The `generate`, `filter`, `evaluate` and `sweep` subcommands.

use er::core::dataset::GroundTruth;
use er::core::io::{read_entities_with, read_pairs_with, write_entities, write_pairs};
use er::core::schema::{SchemaMode, TextView};
use er::core::Threads;
use er::prelude::*;
use er_bench::settings::check_threshold;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// Minimal flag parser: `--name value` pairs plus boolean switches.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            if switches.contains(&name) {
                pairs.push((name.to_owned(), None));
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?
                    .clone();
                pairs.push((name.to_owned(), Some(value)));
            }
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

/// Applies the `--threads` flag (a positive count, or `0`/`auto` for
/// hardware parallelism) process-wide before any parallel work runs.
fn apply_threads(flags: &Flags) -> Result<(), String> {
    if let Some(v) = flags.get("threads") {
        let n = Threads::parse_arg(v).map_err(|e| format!("--threads: {e}"))?;
        Threads::set(n);
    }
    Ok(())
}

fn open_out(path: &Path) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))
}

/// Warns about rows a lenient read skipped.
fn warn_skipped(path: &str, stats: er::core::io::LoadStats) {
    if stats.skipped > 0 {
        eprintln!(
            "warning: {path}: skipped {} malformed row(s), kept {}",
            stats.skipped, stats.rows
        );
    }
}

fn load_entities(path: &str, lenient: bool) -> Result<Vec<er::core::Entity>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (entities, stats) =
        read_entities_with(file, lenient).map_err(|e| format!("{path}: {e}"))?;
    warn_skipped(path, stats);
    Ok(entities)
}

fn load_pairs(path: &str, lenient: bool) -> Result<Vec<er::core::Pair>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (pairs, stats) = read_pairs_with(file, lenient).map_err(|e| format!("{path}: {e}"))?;
    warn_skipped(path, stats);
    Ok(pairs)
}

/// `er generate`: write a synthetic dataset as `<id>_e1/e2/gt.csv`.
pub fn generate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let id = flags.require("profile")?;
    let profile = er::datagen::profiles::profile(id)
        .ok_or_else(|| format!("unknown profile {id:?} (expected D1..D10)"))?;
    let scale: f64 = flags.parse_or("scale", 0.1)?;
    let seed: u64 = flags.parse_or("seed", 42)?;
    let out_dir = PathBuf::from(flags.require("out-dir")?);
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;

    let ds = er::datagen::generate(profile, scale, seed);
    let e1_path = out_dir.join(format!("{id}_e1.csv"));
    let e2_path = out_dir.join(format!("{id}_e2.csv"));
    let gt_path = out_dir.join(format!("{id}_gt.csv"));
    write_entities(&mut open_out(&e1_path)?, &ds.e1).map_err(|e| e.to_string())?;
    write_entities(&mut open_out(&e2_path)?, &ds.e2).map_err(|e| e.to_string())?;
    let gt: CandidateSet = ds.groundtruth.iter().collect();
    write_pairs(&mut open_out(&gt_path)?, &gt).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} entities), {} ({} entities), {} ({} pairs)",
        e1_path.display(),
        ds.e1.len(),
        e2_path.display(),
        ds.e2.len(),
        gt_path.display(),
        ds.groundtruth.len()
    );
    Ok(())
}

/// Builds the requested filter from flags.
fn build_filter(flags: &Flags) -> Result<Box<dyn Filter>, String> {
    let method = flags.require("method")?;
    let cleaning = flags.has("clean");
    let reversed = flags.has("reversed");
    let model = RepresentationModel::parse(flags.get("model").unwrap_or("C3G"))
        .ok_or("bad --model (expected T1G(M) or C2G(M)..C5G(M))")?;
    let dim: usize = flags.parse_or("dim", 128)?;
    let embedding = er::dense::EmbeddingConfig {
        dim,
        ..Default::default()
    };
    Ok(match method {
        "pbw" => Box::new(BlockingWorkflow::pbw()),
        "dbw" => Box::new(BlockingWorkflow::dbw()),
        "sbw" => {
            let scheme = match flags.get("scheme").unwrap_or("JS") {
                "ARCS" => WeightingScheme::Arcs,
                "CBS" => WeightingScheme::Cbs,
                "ECBS" => WeightingScheme::Ecbs,
                "JS" => WeightingScheme::Js,
                "EJS" => WeightingScheme::Ejs,
                "X2" => WeightingScheme::ChiSquared,
                other => return Err(format!("unknown --scheme {other:?}")),
            };
            let pruning = match flags.get("pruning").unwrap_or("RCNP") {
                "BLAST" => PruningAlgorithm::Blast,
                "CEP" => PruningAlgorithm::Cep,
                "CNP" => PruningAlgorithm::Cnp,
                "RCNP" => PruningAlgorithm::Rcnp,
                "WEP" => PruningAlgorithm::Wep,
                "WNP" => PruningAlgorithm::Wnp,
                "RWNP" => PruningAlgorithm::Rwnp,
                other => return Err(format!("unknown --pruning {other:?}")),
            };
            Box::new(BlockingWorkflow {
                builder: BlockBuilder::Standard,
                purge: true,
                filter_ratio: Some(0.5),
                cleaning: ComparisonCleaning::Meta(MetaBlocking { scheme, pruning }),
            })
        }
        "epsilon" => Box::new(EpsilonJoin {
            cleaning,
            model,
            measure: SimilarityMeasure::Cosine,
            threshold: check_threshold(flags.parse_or("threshold", 0.4)?)?,
        }),
        "knn" => Box::new(KnnJoin {
            cleaning,
            model,
            measure: SimilarityMeasure::Cosine,
            k: flags.parse_or("k", 1)?,
            reversed,
        }),
        "faiss" => Box::new(FlatKnn {
            cleaning,
            k: flags.parse_or("k", 1)?,
            reversed,
            embedding,
        }),
        "minhash" => Box::new(MinHashLsh {
            cleaning,
            shingle_k: flags.parse_or("shingle", 3)?,
            bands: flags.parse_or("bands", 32)?,
            rows: flags.parse_or("rows", 8)?,
            seed: flags.parse_or("seed", 42)?,
        }),
        "dknn" => return Err("dknn is sized from the input; handled by caller".into()),
        other => return Err(format!("unknown --method {other:?}")),
    })
}

/// Extracts the text view under the requested schema setting.
fn view_of(e1: &[er::core::Entity], e2: &[er::core::Entity], flags: &Flags) -> TextView {
    let extract = |e: &er::core::Entity| -> String {
        match flags.get("schema") {
            Some(attr) => e.value_of(attr).unwrap_or("").to_owned(),
            None => e.all_values(),
        }
    };
    TextView {
        e1: e1.iter().map(extract).collect(),
        e2: e2.iter().map(extract).collect(),
    }
}

/// `er filter`: run one method over two CSV collections.
pub fn filter(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["clean", "reversed", "lenient"])?;
    apply_threads(&flags)?;
    let lenient = flags.has("lenient");
    let e1 = load_entities(flags.require("e1")?, lenient)?;
    let e2 = load_entities(flags.require("e2")?, lenient)?;
    let view = view_of(&e1, &e2, &flags);

    let filter: Box<dyn Filter> = if flags.get("method") == Some("dknn") {
        Box::new(er::sparse::dknn_baseline(e1.len(), e2.len()))
    } else {
        build_filter(&flags)?
    };
    let out = filter.run(&view);

    let out_path = PathBuf::from(flags.require("out")?);
    write_pairs(&mut open_out(&out_path)?, &out.candidates).map_err(|e| e.to_string())?;
    let cartesian = e1.len() as f64 * e2.len() as f64;
    println!(
        "{}: {} candidates in {:?} ({:.2}% of the Cartesian product)",
        filter.name(),
        out.candidates.len(),
        out.runtime(),
        100.0 * out.candidates.len() as f64 / cartesian.max(1.0),
    );
    for (phase, duration) in out.breakdown.phases() {
        println!("  {phase:<12} {duration:?}");
    }
    Ok(())
}

/// `er evaluate`: score a pair file against a ground-truth file.
pub fn evaluate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["lenient"])?;
    let lenient = flags.has("lenient");
    let pairs_path = flags.require("pairs")?;
    let gt_path = flags.require("gt")?;
    let candidates: CandidateSet = load_pairs(pairs_path, lenient)?.into_iter().collect();
    let gt = GroundTruth::from_pairs(load_pairs(gt_path, lenient)?);
    let eff = er::core::evaluate(&candidates, &gt);
    println!(
        "PC (recall)    = {:.4}\nPQ (precision) = {:.4}\n|C|            = {}\n|D(C)|         = {}",
        eff.pc, eff.pq, eff.candidates, eff.duplicates_found
    );
    if let (Some(e1), Some(e2)) = (flags.get("e1"), flags.get("e2")) {
        let n1 = load_entities(e1, lenient)?.len() as f64;
        let n2 = load_entities(e2, lenient)?.len() as f64;
        println!(
            "reduction      = {:.4}% of |E1 x E2|",
            100.0 * (1.0 - eff.candidates as f64 / (n1 * n2).max(1.0))
        );
    }
    let mut stdout = std::io::stdout();
    stdout.flush().map_err(|e| e.to_string())
}

/// `er store`: maintenance commands over a persistent artifact-store
/// directory (`--store-dir` of `er sweep`). `inspect` prints each file's
/// header and section layout, `verify` deep-checks every checksum and
/// decodes every artifact through the full codec registry (non-zero exit
/// on any damaged file), `gc` removes stale temp files and undecodable
/// store files.
pub fn store(args: &[String]) -> Result<(), String> {
    let action = args
        .first()
        .map(String::as_str)
        .ok_or("store requires an action: inspect | verify | gc")?;
    let flags = Flags::parse(&args[1..], &[])?;
    let dir = flags.require("dir")?;
    let store = er_bench::open_store(Path::new(dir)).map_err(|e| e.to_string())?;
    match action {
        "inspect" => {
            let listing = store.inspect().map_err(|e| e.to_string())?;
            if listing.is_empty() {
                println!("{dir}: no store files");
                return Ok(());
            }
            // Per-shard rollup: group every shard-qualified file by
            // (dataset, base, shard), summing footprints so an
            // out-of-core store's balance is visible at a glance.
            type ShardKey = (u64, String, u32, u32);
            /// (files, segments, file bytes, heap bytes) per shard.
            type ShardTotals = (usize, usize, u64, u64);
            let mut rollup: std::collections::BTreeMap<ShardKey, ShardTotals> = Default::default();
            for (_, info) in &listing {
                let Ok(info) = info else { continue };
                let Some(sref) = er::core::shard::parse_shard_repr(&info.repr) else {
                    continue;
                };
                let entry = rollup
                    .entry((
                        info.dataset_fp,
                        sref.base.to_owned(),
                        sref.shard,
                        sref.total,
                    ))
                    .or_default();
                entry.0 += 1;
                entry.1 += usize::from(info.segment);
                entry.2 += info.file_bytes as u64;
                entry.3 += info.heap_bytes;
            }
            for (path, info) in listing {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
                match info {
                    Ok(info) => {
                        println!(
                            "{name}: codec={}{} repr={:?} dataset={:016x} heap={} KiB \
                             file={} KiB prepare={} sections: {}",
                            info.codec_name.unwrap_or("?"),
                            if info.segment { " [segment]" } else { "" },
                            info.repr,
                            info.dataset_fp,
                            info.heap_bytes.div_ceil(1024),
                            info.file_bytes.div_ceil(1024),
                            er::core::timing::format_runtime(info.prepare),
                            info.layout(),
                        );
                        // Segment tree: a manifest lists the segment
                        // files it owns, in stack order.
                        for (i, repr) in info.referenced.iter().enumerate() {
                            let branch = if i + 1 == info.referenced.len() {
                                "└─"
                            } else {
                                "├─"
                            };
                            println!("  {branch} {repr}");
                        }
                        // Compression report: packed codecs expose each
                        // compressed structure's encoded vs plain bytes.
                        for ratio in &info.section_ratios {
                            let factor =
                                ratio.decoded_bytes as f64 / (ratio.encoded_bytes.max(1)) as f64;
                            println!(
                                "  {}: encoded={} B decoded={} B ({factor:.2}x)",
                                ratio.label, ratio.encoded_bytes, ratio.decoded_bytes,
                            );
                        }
                    }
                    Err(e) => println!("{name}: UNREADABLE: {e}"),
                }
            }
            if !rollup.is_empty() {
                println!("per-shard rollup:");
                for ((dataset, base, shard, total), (files, segments, encoded, decoded)) in &rollup
                {
                    println!(
                        "  dataset={dataset:016x} {base:?} shard {shard}/{total}: \
                         {files} file(s), {segments} segment(s), \
                         encoded={encoded} B decoded={decoded} B",
                    );
                }
            }
            Ok(())
        }
        "verify" => {
            let verdicts = store.verify().map_err(|e| e.to_string())?;
            let mut bad = 0usize;
            for (path, verdict) in &verdicts {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
                match verdict {
                    Ok(()) => println!("{name}: ok"),
                    Err(e) => {
                        bad += 1;
                        println!("{name}: FAILED: {e}");
                    }
                }
            }
            println!("verified {} file(s), {bad} failed", verdicts.len());
            if bad > 0 {
                return Err(format!("{bad} store file(s) failed verification"));
            }
            Ok(())
        }
        "gc" => {
            let report = store.gc().map_err(|e| e.to_string())?;
            println!(
                "removed {} file(s) ({} orphaned segment(s)), kept {}",
                report.removed, report.orphaned, report.kept
            );
            Ok(())
        }
        other => Err(format!("unknown store action {other:?}")),
    }
}

/// `er sweep`: the full fault-isolated Table VII benchmark sweep, with
/// per-grid-point guards (`--timeout`, `--budget`), grid checkpointing
/// (`--checkpoint`), resume (`--resume`), deterministic fault injection
/// (`--inject-faults`), an artifact-cache budget (`--cache-budget`) and a
/// persistent artifact store (`--store-dir`) that later processes reuse.
/// Shares its flag grammar with the benchmark binaries via
/// [`er_bench::Settings`]. `--bench-prepare out.json` instead runs the
/// first column three times (cold, warm against the shared artifact
/// cache, then a fresh cache over the populated store) and writes the
/// prepare-stage savings as JSON — including a segmented warm pass that
/// replays the indexed side as an insert log. `--stream out.json`
/// replays the first column as a batched insert/delete log against the
/// segmented incremental index, checkpointed and resumable like the
/// sweep itself. `--shards N` switches to the out-of-core streamed shard
/// sweep (`--rows`/`--queries`/`--threshold` shape the workload,
/// `--report` captures the deterministic report, `--shard-bench` the
/// per-run metrics JSON).
pub fn sweep(args: &[String]) -> Result<(), String> {
    let settings = er_bench::Settings::try_parse(args.iter().cloned())?;
    // Settings collects unrecognized flags; only the report flags are
    // valid here — anything else is a typo the user should hear about.
    let mut csv: Option<String> = None;
    let mut bench_prepare: Option<String> = None;
    let mut stream: Option<String> = None;
    let mut report: Option<String> = None;
    let mut shard_bench: Option<String> = None;
    let mut opts = er_bench::report::ReportOptions::default();
    let mut it = settings.flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--csv" => csv = Some(it.next().cloned().ok_or("--csv requires an output path")?),
            "--bench-prepare" => {
                bench_prepare = Some(
                    it.next()
                        .cloned()
                        .ok_or("--bench-prepare requires an output path")?,
                )
            }
            "--stream" => {
                stream = Some(
                    it.next()
                        .cloned()
                        .ok_or("--stream requires an output path")?,
                )
            }
            "--report" => {
                report = Some(
                    it.next()
                        .cloned()
                        .ok_or("--report requires an output path")?,
                )
            }
            "--shard-bench" => {
                shard_bench = Some(
                    it.next()
                        .cloned()
                        .ok_or("--shard-bench requires an output path")?,
                )
            }
            "--candidates" => opts.candidates = true,
            "--configs" => opts.configs = true,
            other => return Err(format!("unknown sweep flag {other:?}")),
        }
    }
    Threads::set(settings.threads);
    if let Some(plan) = settings.faults.clone() {
        er::core::faults::configure(Some(plan));
    }
    if settings.shards.is_some() || settings.rows.is_some() {
        let out = er_bench::run_shard_sweep(&settings, true).map_err(|e| e.to_string())?;
        print!("{}", out.report);
        if let Some(path) = report {
            std::fs::write(&path, &out.report).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        if let Some(path) = shard_bench {
            std::fs::write(&path, out.bench.encode() + "\n")
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        return Ok(());
    }
    if report.is_some() || shard_bench.is_some() {
        return Err("--report/--shard-bench apply to the shard sweep (pass --shards N)".into());
    }
    if let Some(path) = stream {
        er_bench::run_stream(&settings, Path::new(&path), true).map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
        return Ok(());
    }
    if let Some(path) = bench_prepare {
        er_bench::bench_prepare(&settings, Path::new(&path), true).map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
        return Ok(());
    }
    // Columns stay serial unless a thread count was requested explicitly;
    // the parallel layer inside each method still uses the global count.
    let column_workers = settings.threads.max(1);
    let columns =
        er_bench::run_sweep(&settings, column_workers, true).map_err(|e| e.to_string())?;
    print!("{}", er_bench::report::render_report(&columns, opts));
    if let Some(path) = csv {
        std::fs::write(&path, er_bench::report::sweep_csv(&columns, true))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// The dataset + serving-method configuration shared by `er serve` and
/// `er supervise` (the supervisor forwards these same flags to its
/// children, so both ends must parse them identically).
struct ServeSetup {
    profile_id: String,
    view: TextView,
    method: er_serve::ServeMethod,
}

fn serve_setup(flags: &Flags) -> Result<ServeSetup, String> {
    let id = flags.require("profile")?;
    let profile = er::datagen::profiles::profile(id)
        .ok_or_else(|| format!("unknown profile {id:?} (expected D1..D10)"))?;
    let scale: f64 = flags.parse_or("scale", 0.1)?;
    let seed: u64 = flags.parse_or("seed", 42)?;
    let mode = match flags.get("schema") {
        Some(attr) => SchemaMode::Based(attr.to_owned()),
        None => SchemaMode::Agnostic,
    };
    let cleaning = flags.has("clean");
    let model = RepresentationModel::parse(flags.get("model").unwrap_or("C3G"))
        .ok_or("bad --model (expected T1G(M) or C2G(M)..C5G(M))")?;
    let method = match flags.get("method").unwrap_or("epsilon") {
        "epsilon" => er_serve::ServeMethod::Epsilon(EpsilonJoin {
            cleaning,
            model,
            measure: SimilarityMeasure::Cosine,
            threshold: check_threshold(flags.parse_or("threshold", 0.4)?)?,
        }),
        "knn" => er_serve::ServeMethod::Knn(KnnJoin {
            cleaning,
            model,
            measure: SimilarityMeasure::Cosine,
            k: flags.parse_or("k", 1)?,
            reversed: flags.has("reversed"),
        }),
        other => {
            return Err(format!(
                "--method {other:?} (serve answers epsilon or knn lookups)"
            ))
        }
    };

    // Regenerating the dataset pins the fingerprint the artifact was
    // stored under; the artifact itself carries both sides pre-interned,
    // so startup does zero prepare work — the store-hit line proves it.
    let ds = er::datagen::generate(profile, scale, seed);
    let view = er::core::schema::text_view(&ds, &mode);
    Ok(ServeSetup {
        profile_id: id.to_owned(),
        view,
        method,
    })
}

/// `er serve`: load one prepared artifact from a store and answer
/// record→candidates lookups over line-delimited JSON TCP until a
/// SIGTERM/SIGINT drains the daemon.
pub fn serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["clean", "reversed"])?;
    apply_threads(&flags)?;
    let store_dir = PathBuf::from(flags.require("store-dir")?);
    let setup = serve_setup(&flags)?;
    let (id, view, method) = (setup.profile_id, setup.view, setup.method);
    let engine = match flags.get("shard-subset") {
        Some(spec) => {
            // A supervised child: serve only the listed shards of an
            // already-persisted family, refusing torn state. `--shards`,
            // when also given, must agree with the subset's total.
            let subset = er::core::shard::ShardSubset::parse(spec)?;
            if let Some(n) = flags.get("shards") {
                let n: u32 = n
                    .parse()
                    .map_err(|_| format!("--shards {n:?} is not a number"))?;
                if n != subset.total() {
                    return Err(format!(
                        "--shards {n} contradicts --shard-subset {spec} (family of {})",
                        subset.total()
                    ));
                }
            }
            if subset.is_full() {
                // The full subset is the classic engine (including the
                // monolithic no-manifest fallback).
                er_serve::Engine::open(&store_dir, &view, method, subset.total())?
            } else {
                er_serve::Engine::open_subset(&store_dir, &view, method, subset)?
            }
        }
        None => {
            let shards: u32 = flags.parse_or("shards", 1)?;
            er_serve::Engine::open(&store_dir, &view, method, shards)?
        }
    };
    let startup = engine.startup_stats();
    eprintln!(
        "serve: loaded {} for {} ({} rows, {} bytes, {} shard(s)) | store: {} hits / {} misses / \
         saved {}",
        engine.key().repr,
        id,
        engine.rows(),
        engine.artifact_bytes(),
        engine.n_shards(),
        startup.store_hits,
        startup.misses,
        er::core::timing::format_runtime(startup.prepare_saved),
    );
    if engine.restored() {
        let index = engine.index_stats();
        eprintln!(
            "serve: restored segmented index from manifest: {} segment(s) / {} delta rows / \
             {} tombstones / {} live rows",
            index.segments, index.delta_rows, index.tombstones, index.live_rows,
        );
    }

    let cfg = er_serve::ServeConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:7878").to_owned(),
        queue_bound: flags.parse_or("queue", 1024)?,
        batch: flags.parse_or("batch", 64)?,
        workers: flags.parse_or("workers", 1)?,
        default_deadline: std::time::Duration::from_millis(flags.parse_or("deadline-ms", 1000)?),
        retry_after_ms: flags.parse_or("retry-after-ms", 50)?,
        drain_grace: std::time::Duration::from_millis(flags.parse_or("drain-grace-ms", 1000)?),
        stats_out: flags.get("stats-out").map(PathBuf::from),
    };
    er_serve::signals::install();
    let server = er_serve::Server::start(cfg, engine).map_err(|e| format!("cannot bind: {e}"))?;
    // Scripts parse this exact line to learn the bound port.
    println!("serving on {}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.serve_until(er_serve::signals::drain_requested);
    Ok(())
}

/// Dataset/method/store flags `er supervise` forwards verbatim to every
/// `er serve` child it spawns (the supervisor adds `--addr` and
/// `--shard-subset` itself).
const FORWARDED_CHILD_FLAGS: &[&str] = &[
    "store-dir",
    "profile",
    "scale",
    "seed",
    "schema",
    "model",
    "method",
    "threshold",
    "k",
    "shards",
    "queue",
    "batch",
    "workers",
    "deadline-ms",
    "retry-after-ms",
    "drain-grace-ms",
    "threads",
];
const FORWARDED_CHILD_SWITCHES: &[&str] = &["clean", "reversed"];

/// `er supervise`: split a persisted shard family across N `er serve`
/// child processes and present them as one merge-proxy endpoint
/// speaking the same wire protocol. Crashed children restart under
/// backoff; a torn family refuses startup before any child exists.
pub fn supervise(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["clean", "reversed"])?;
    apply_threads(&flags)?;
    let store_dir = PathBuf::from(flags.require("store-dir")?);
    let setup = serve_setup(&flags)?;
    let shards: u32 = flags.parse_or("shards", 2)?;
    let children: u32 = flags.parse_or("children", 2)?;
    if children > shards {
        return Err(format!(
            "--children {children} exceeds --shards {shards} (a child serves at least one shard)"
        ));
    }

    let binary = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut child_args: Vec<String> = Vec::new();
    for name in FORWARDED_CHILD_FLAGS {
        if let Some(value) = flags.get(name) {
            child_args.push(format!("--{name}"));
            child_args.push(value.to_owned());
        }
    }
    for switch in FORWARDED_CHILD_SWITCHES {
        if flags.has(switch) {
            child_args.push(format!("--{switch}"));
        }
    }
    if flags.get("shards").is_none() {
        // The children must agree on the family size even when the
        // supervisor is running on its default.
        child_args.push("--shards".to_owned());
        child_args.push(shards.to_string());
    }

    let mut cfg = er_super::SuperConfig::new(binary, shards, children);
    cfg.addr = flags.get("addr").unwrap_or("127.0.0.1:7879").to_owned();
    cfg.child_args = child_args;
    cfg.health_interval =
        std::time::Duration::from_millis(flags.parse_or("health-interval-ms", 500)?);
    cfg.health_timeout =
        std::time::Duration::from_millis(flags.parse_or("health-timeout-ms", 1000)?);
    cfg.health_failures = flags.parse_or("health-failures", 3)?;
    cfg.backoff_initial = std::time::Duration::from_millis(flags.parse_or("backoff-ms", 100)?);
    cfg.backoff_max = std::time::Duration::from_millis(flags.parse_or("backoff-max-ms", 2000)?);
    cfg.default_deadline = std::time::Duration::from_millis(flags.parse_or("deadline-ms", 1000)?);
    cfg.retry_after_ms = flags.parse_or("retry-after-ms", 50)?;

    // Verify (and if absent, bootstrap) the shard family before any
    // child process exists; a torn family is a structured refusal here.
    let bootstrapped = er_super::ensure_family(&store_dir, &setup.view, &setup.method, shards)?;
    if bootstrapped {
        eprintln!(
            "supervise: bootstrapped the {shards}-shard family for {} ({})",
            setup.method.repr_key(),
            setup.profile_id,
        );
    }

    er_serve::signals::install();
    let cfg = std::sync::Arc::new(cfg);
    let group = er_super::Supervisor::start(cfg.clone())?;
    let proxy = er_super::Proxy::start(cfg.clone(), group.slots().to_vec(), setup.method)
        .map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    eprintln!(
        "supervise: merge proxy over {children} children / {shards} shards ({} {})",
        setup.profile_id,
        setup.method.repr_key(),
    );
    // Scripts parse this exact line to learn the bound port.
    println!("serving on {}", proxy.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let stats = proxy.serve_until(er_serve::signals::drain_requested);
    let restarts = group.restart_total();
    group.shutdown();
    eprintln!(
        "supervise: {} served / {} failed / {} timeouts / {} unavailable / {} retries / {} bad | \
         {} child restart(s)",
        stats.served,
        stats.failed,
        stats.timeouts,
        stats.unavailable,
        stats.retries,
        stats.bad_requests,
        restarts,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flags_parse_values_and_switches() {
        let f = Flags::parse(&s(&["--k", "3", "--clean", "--model", "T1G"]), &["clean"])
            .expect("parse");
        assert_eq!(f.get("k"), Some("3"));
        assert!(f.has("clean"));
        assert_eq!(f.get("model"), Some("T1G"));
        assert_eq!(f.parse_or("k", 1usize).expect("k"), 3);
        assert_eq!(f.parse_or("missing", 7usize).expect("default"), 7);
    }

    #[test]
    fn flags_reject_positional_and_dangling() {
        assert!(Flags::parse(&s(&["positional"]), &[]).is_err());
        assert!(Flags::parse(&s(&["--k"]), &[]).is_err());
    }

    #[test]
    fn build_filter_covers_every_method() {
        for method in ["pbw", "dbw", "sbw", "epsilon", "knn", "faiss", "minhash"] {
            let f = Flags::parse(&s(&["--method", method]), &[]).expect("parse");
            assert!(build_filter(&f).is_ok(), "{method}");
        }
        let bad = Flags::parse(&s(&["--method", "bogus"]), &[]).expect("parse");
        assert!(build_filter(&bad).is_err());
    }

    #[test]
    fn threads_flag_parses_and_rejects_garbage() {
        let ok = Flags::parse(&s(&["--threads", "2"]), &[]).expect("parse");
        assert!(apply_threads(&ok).is_ok());
        let auto = Flags::parse(&s(&["--threads", "auto"]), &[]).expect("parse");
        assert!(apply_threads(&auto).is_ok());
        let bad = Flags::parse(&s(&["--threads", "lots"]), &[]).expect("parse");
        assert!(apply_threads(&bad).is_err());
        // Leave the global unset for other tests in this process.
        Threads::set(0);
    }

    #[test]
    fn end_to_end_generate_filter_evaluate() {
        let dir = std::env::temp_dir().join(format!("er-cli-test-{}", std::process::id()));
        let dir_str = dir.to_str().expect("utf8 path").to_owned();
        generate(&s(&[
            "--profile",
            "D1",
            "--scale",
            "0.05",
            "--out-dir",
            &dir_str,
        ]))
        .expect("generate");
        let e1 = dir.join("D1_e1.csv");
        let e2 = dir.join("D1_e2.csv");
        let out = dir.join("pairs.csv");
        filter(&s(&[
            "--e1",
            e1.to_str().expect("utf8"),
            "--e2",
            e2.to_str().expect("utf8"),
            "--method",
            "pbw",
            "--out",
            out.to_str().expect("utf8"),
        ]))
        .expect("filter");
        evaluate(&s(&[
            "--pairs",
            out.to_str().expect("utf8"),
            "--gt",
            dir.join("D1_gt.csv").to_str().expect("utf8"),
        ]))
        .expect("evaluate");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_flag_recovers_malformed_csv() {
        let dir = std::env::temp_dir().join(format!("er-cli-lenient-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("broken.csv");
        std::fs::write(&path, "a,b\n1,2\nrow,with,too,many\n3,4\n").expect("write");
        let p = path.to_str().expect("utf8");
        // Strict: a single-line error naming the bad line.
        let err = load_entities(p, false).expect_err("strict rejects");
        assert!(err.contains("line 3"), "{err}");
        assert!(!err.contains('\n'), "single-line: {err:?}");
        // Lenient: the two good rows survive.
        let entities = load_entities(p, true).expect("lenient");
        assert_eq!(entities.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The ε thresholds every command refuses with the sweep's message.
    const BAD_THRESHOLDS: [&str; 6] = ["NaN", "inf", "-inf", "-3", "0", "1.5"];

    fn assert_threshold_refused(result: Result<(), String>, t: &str) {
        let err = result.expect_err(t);
        assert!(err.contains("--threshold must be in (0, 1]"), "{t}: {err}");
        assert!(!err.contains('\n'), "single-line: {err:?}");
    }

    #[test]
    fn filter_refuses_thresholds_outside_the_unit_interval() {
        let dir = std::env::temp_dir().join(format!("er-cli-threshold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let csv = dir.join("entities.csv");
        std::fs::write(&csv, "name\napple iphone\nsamsung galaxy\n").expect("write");
        let csv = csv.to_str().expect("utf8");
        let out = dir.join("pairs.csv");
        let out = out.to_str().expect("utf8");
        let run = |t: &str| {
            let args = ["--e1", csv, "--e2", csv, "--method", "epsilon"];
            filter(&s(&[&args[..], &["--threshold", t, "--out", out]].concat()))
        };
        for t in BAD_THRESHOLDS {
            assert_threshold_refused(run(t), t);
        }
        assert!(!Path::new(out).exists(), "no candidate file is written");
        run("1").expect("ε = 1 is valid");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_refuses_thresholds_outside_the_unit_interval() {
        for t in BAD_THRESHOLDS {
            let args = ["--store-dir", "unused", "--profile", "D1", "--threshold", t];
            assert_threshold_refused(serve(&s(&args)), t);
        }
    }

    #[test]
    fn supervise_refuses_thresholds_outside_the_unit_interval() {
        for t in BAD_THRESHOLDS {
            let args = ["--store-dir", "unused", "--profile", "D1", "--threshold", t];
            assert_threshold_refused(supervise(&s(&args)), t);
        }
    }

    #[test]
    fn store_actions_run_over_an_empty_directory() {
        let dir = std::env::temp_dir().join(format!("er_cli_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_string_lossy().into_owned();
        for action in ["inspect", "verify", "gc"] {
            store(&s(&[action, "--dir", &dir_arg])).expect(action);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_inspect_reports_a_populated_directory() {
        use er::core::artifacts::{ArtifactKey, DiskTier};
        use er::core::schema::TextView;
        use er::core::Filter;
        let dir = std::env::temp_dir().join(format!("er_cli_inspect_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let artifacts = er_bench::open_store(&dir).expect("open store");
            let filter = er::sparse::EpsilonJoin {
                cleaning: false,
                model: er::sparse::RepresentationModel::parse("T1G").expect("T1G"),
                measure: er::sparse::SimilarityMeasure::Cosine,
                threshold: 0.4,
            };
            let view = TextView::new(
                (0..6)
                    .map(|i| format!("camera model {i}"))
                    .collect::<Vec<_>>(),
                (0..4)
                    .map(|i| format!("camera kit {i}"))
                    .collect::<Vec<_>>(),
            );
            let prepared = filter.prepare(&view);
            let key = ArtifactKey::new(7, filter.repr_key());
            assert!(artifacts.store(&key, &prepared).expect("store"));
        }
        // Covers the per-section compression report: the sparse-packed
        // codec reports each structure's on-disk vs resident bytes.
        let dir_arg = dir.to_string_lossy().into_owned();
        store(&s(&["inspect", "--dir", &dir_arg])).expect("inspect");
        store(&s(&["verify", "--dir", &dir_arg])).expect("verify");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_rejects_bad_actions_and_missing_flags() {
        let err = store(&s(&[])).expect_err("no action");
        assert!(err.contains("inspect"), "{err}");
        let err = store(&s(&["defrag", "--dir", "x"])).expect_err("bad action");
        assert!(err.contains("defrag"), "{err}");
        let err = store(&s(&["verify"])).expect_err("missing dir");
        assert!(err.contains("--dir"), "{err}");
    }

    #[test]
    fn sweep_rejects_unknown_flags_with_one_line() {
        let err = sweep(&s(&["--bogus"])).expect_err("unknown flag");
        assert!(err.contains("--bogus"), "{err}");
        assert!(!err.contains('\n'), "single-line: {err:?}");
        let err = sweep(&s(&["--timeout", "never"])).expect_err("bad timeout");
        assert!(err.contains("--timeout"), "{err}");
        let err = sweep(&s(&["--inject-faults", "explode@"])).expect_err("bad spec");
        assert!(err.contains("--inject-faults"), "{err}");
        let err = sweep(&s(&["--cache-budget", "lots"])).expect_err("bad budget");
        assert!(err.contains("--cache-budget"), "{err}");
        let err = sweep(&s(&["--bench-prepare"])).expect_err("missing path");
        assert!(err.contains("--bench-prepare"), "{err}");
    }

    #[test]
    fn schema_flag_restricts_view() {
        let e = vec![er::core::Entity::from_pairs([
            ("title", "a"),
            ("junk", "zzz"),
        ])];
        let f = Flags::parse(&s(&["--schema", "title"]), &[]).expect("parse");
        let view = view_of(&e, &e, &f);
        assert_eq!(view.e1[0], "a");
        let f2 = Flags::parse(&[], &[]).expect("parse");
        let view2 = view_of(&e, &e, &f2);
        assert_eq!(view2.e1[0], "a zzz");
    }
}
