//! Integration tests of the persistent artifact store (`--store-dir`).
//!
//! The headline guarantee is *cross-process* reuse: a sweep run in a
//! genuinely fresh process over a populated store must re-prepare
//! nothing and still produce a byte-identical report. To test that
//! honestly, the reuse test re-executes its own test binary as a child
//! process (routed by an environment variable) rather than simulating a
//! restart with a second in-process cache.
//!
//! The second guarantee is corruption safety: flipping a single byte of
//! any store file must surface as a structured load failure that falls
//! back to a fresh prepare — never a panic, never a changed report.

use er::core::parallel::Threads;
use er::store::{StoreError, StoreMeta};
use er_bench::report::sweep_csv;
use er_bench::{run_sweep, Settings};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Environment variable that routes the re-executed test binary into the
/// child role (its value is the scratch directory).
const CHILD_BASE: &str = "ER_STORE_IT_BASE";
const CHILD_RUN: &str = "ER_STORE_IT_RUN";
const CHILD_THREADS: &str = "ER_STORE_IT_THREADS";

/// D5 is not schema-based viable, so the sweep is a single "Da5" column
/// of 17 grid points (same fixture as `integration_artifacts`).
fn store_settings(store_dir: &Path) -> Settings {
    let dir = store_dir.to_str().expect("utf-8 store dir").to_owned();
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
        "--store-dir",
        &dir,
    ];
    Settings::try_parse(base.iter().map(|s| s.to_string())).expect("settings")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("er-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The child role: run the sweep against `<base>/store` and record the
/// deterministic report plus the cache counters for the parent to check.
/// No assertions here — the parent owns the verdict.
fn child_sweep(base: &Path, run: &str, threads: usize) {
    Threads::set(threads);
    let settings = store_settings(&base.join("store"));
    let columns = run_sweep(&settings, 1, false).expect("child sweep");
    assert_eq!(columns.len(), 1, "D5 sweeps as a single column");
    let s = columns[0].stats;
    let stats = format!(
        "hits={}\nmisses={}\nstore_hits={}\nspills={}\ncorrupt={}\nprepare_wall_nanos={}\n",
        s.hits,
        s.misses,
        s.store_hits,
        s.spills,
        s.corrupt,
        s.prepare_wall.as_nanos(),
    );
    std::fs::write(base.join(format!("{run}.stats")), stats).expect("write stats");
    std::fs::write(base.join(format!("{run}.csv")), sweep_csv(&columns, false)).expect("write csv");
}

fn read_stat(base: &Path, run: &str, key: &str) -> u128 {
    let text = std::fs::read_to_string(base.join(format!("{run}.stats"))).expect("stats file");
    let line = text
        .lines()
        .find(|l| l.starts_with(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key} in {run}.stats: {text}"));
    line.split('=')
        .nth(1)
        .expect("value")
        .parse()
        .expect("number")
}

/// Re-executes this test binary with the environment routing one named
/// test into its child role, and fails loudly if the child did.
fn run_child(test_name: &str, base: &Path, run: &str, threads: usize) {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .args([test_name, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_BASE, base)
        .env(CHILD_RUN, run)
        .env(CHILD_THREADS, threads.to_string())
        .output()
        .expect("spawn child process");
    assert!(
        out.status.success(),
        "child {run} (threads={threads}) failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

/// A second, genuinely fresh process over a populated `--store-dir`
/// serves every artifact from disk: zero prepares (counter-asserted)
/// and a byte-identical deterministic report — at 1 and at 8 threads.
#[test]
fn store_artifacts_are_reused_by_a_fresh_process() {
    if let Ok(base) = std::env::var(CHILD_BASE) {
        let run = std::env::var(CHILD_RUN).expect("child run name");
        let threads = std::env::var(CHILD_THREADS)
            .expect("child threads")
            .parse()
            .expect("thread count");
        child_sweep(Path::new(&base), &run, threads);
        return;
    }

    let mut csv_by_threads = Vec::new();
    for threads in [1usize, 8] {
        let base = scratch_dir(&format!("reuse{threads}"));
        run_child(
            "store_artifacts_are_reused_by_a_fresh_process",
            &base,
            "run1",
            threads,
        );
        run_child(
            "store_artifacts_are_reused_by_a_fresh_process",
            &base,
            "run2",
            threads,
        );

        // The cold process prepared and spilled; the fresh process found
        // everything on disk and prepared nothing at all.
        assert!(read_stat(&base, "run1", "misses") > 0, "cold run prepares");
        assert!(read_stat(&base, "run1", "spills") > 0, "cold run spills");
        assert!(
            read_stat(&base, "run2", "store_hits") > 0,
            "warm run loads from the store"
        );
        assert_eq!(read_stat(&base, "run2", "misses"), 0, "warm run: no misses");
        assert_eq!(
            read_stat(&base, "run2", "prepare_wall_nanos"),
            0,
            "warm run: zero prepare work"
        );
        assert_eq!(read_stat(&base, "run2", "corrupt"), 0, "no corrupt files");

        let run1 = std::fs::read(base.join("run1.csv")).expect("run1 csv");
        let run2 = std::fs::read(base.join("run2.csv")).expect("run2 csv");
        assert_eq!(run1, run2, "threads={threads}: reports not byte-identical");
        csv_by_threads.push(run1);
        let _ = std::fs::remove_dir_all(&base);
    }
    assert_eq!(
        csv_by_threads[0], csv_by_threads[1],
        "store-backed report differs across thread counts"
    );
}

/// Flipping one byte anywhere in a store file yields a structured load
/// failure and a silent fall-back to preparing: the report is
/// byte-identical to a clean run, the corruption is counted, and the
/// rewritten store serves the *next* run fully warm again. A file
/// carrying a retired codec id takes the same path.
#[test]
fn corrupt_store_files_fall_back_to_preparing() {
    if std::env::var(CHILD_BASE).is_ok() {
        // This binary was re-executed for the reuse test's child role
        // with a blanket filter; only that test participates.
        return;
    }
    Threads::set(1);
    let base = scratch_dir("corrupt");
    let store_dir = base.join("store");
    let settings = store_settings(&store_dir);

    let clean = run_sweep(&settings, 1, false).expect("clean sweep");
    let clean_csv = sweep_csv(&clean, false);
    let store = er_bench::open_store(&store_dir).expect("open store");
    let files = store.files().expect("list store files");
    assert!(!files.is_empty(), "cold sweep populated the store");

    // One flipped byte per file, at offsets spread deterministically over
    // the whole file: headers, section tables, payloads and padding.
    for (i, path) in files.iter().enumerate() {
        let len = std::fs::metadata(path).expect("metadata").len() as usize;
        let offset = (i * 7919 + 13) % len;
        er::store::store::flip_byte(path, offset).expect("flip byte");
    }

    // Every load hits a damaged file: structured failure, fresh prepare,
    // same report. `run_sweep` builds a fresh cache per column, so this
    // is a cold memory tier over a fully corrupt disk tier.
    let faulted = run_sweep(&settings, 1, false).expect("sweep over corrupt store");
    assert_eq!(
        sweep_csv(&faulted, false),
        clean_csv,
        "corrupt store changed the report"
    );
    let s = faulted[0].stats;
    assert!(s.corrupt > 0, "corruption was detected and counted: {s:?}");
    assert_eq!(s.store_hits, 0, "no corrupt file served a hit: {s:?}");
    assert!(s.misses > 0, "every artifact was re-prepared: {s:?}");

    // The fall-back re-prepares spilled good replacements: a third run
    // is fully warm again (the store self-heals).
    let healed = run_sweep(&settings, 1, false).expect("sweep over healed store");
    assert_eq!(sweep_csv(&healed, false), clean_csv);
    let s = healed[0].stats;
    assert_eq!(s.misses, 0, "healed store serves everything: {s:?}");
    assert_eq!(s.corrupt, 0, "healed store has no damage: {s:?}");
    assert!(s.store_hits > 0, "healed store serves from disk: {s:?}");

    // Same fall-back for a file stamped with a retired codec id (1: the
    // plain-CSR sparse layout): a structured `NoCodec` failure, never a
    // decode attempt. Re-stamp every sparse-packed file, keeping its key.
    let mut retired = Vec::new();
    for (path, info) in store.inspect().expect("inspect") {
        let info = info.expect("healed file is readable");
        if info.codec_id != 8 {
            continue;
        }
        let meta = StoreMeta {
            codec_id: 1,
            dataset_fp: info.dataset_fp,
            repr: info.repr,
            prepare_nanos: info.prepare.as_nanos() as u64,
            heap_bytes: info.heap_bytes,
        };
        let mut sections = er::store::Sections::new();
        sections.u32s(&[0]);
        er::store::format::write_store(&path, &meta, &sections).expect("re-stamp");
        retired.push(path);
    }
    assert!(!retired.is_empty(), "the sweep spilled sparse artifacts");
    for (path, verdict) in store.verify().expect("verify") {
        if retired.contains(&path) {
            assert!(
                matches!(verdict, Err(StoreError::NoCodec(_))),
                "{}: {verdict:?}",
                path.display()
            );
        } else {
            verdict.expect("untouched file verifies");
        }
    }
    let again = run_sweep(&settings, 1, false).expect("sweep over retired files");
    assert_eq!(sweep_csv(&again, false), clean_csv);
    let s = again[0].stats;
    assert_eq!(s.corrupt, retired.len(), "each retired file counted: {s:?}");
    assert_eq!(s.misses, retired.len(), "and re-prepared: {s:?}");

    Threads::set(0);
    let _ = std::fs::remove_dir_all(&base);
}

/// XXH64 over every encoded section of the one file `filter`'s prepared
/// artifact spills to: dtype code, length and payload of each section in
/// order — everything a codec decides, nothing the header adds (prepare
/// time, heap bytes).
fn section_digest(
    tag: &str,
    filter: &dyn er::core::Filter,
    view: &er::core::schema::TextView,
) -> u64 {
    use er::core::artifacts::{ArtifactKey, DiskTier};
    let dir = scratch_dir(tag);
    let store = er_bench::open_store(&dir).expect("open store");
    let key = ArtifactKey::new(view.fingerprint(), filter.repr_key());
    assert!(store.store(&key, &filter.prepare(view)).expect("store"));
    let digest = file_digest(&store.file_path(&key));
    let _ = std::fs::remove_dir_all(&dir);
    digest
}

/// XXH64 over every encoded section of the store file at `path`.
fn file_digest(path: &Path) -> u64 {
    let file = er::store::StoreFile::open(path).expect("open file");
    let mut hash = er::store::xxh::Xxh64Stream::default();
    for (i, info) in file.sections().iter().enumerate() {
        hash.update(info.dtype.name().as_bytes());
        hash.update(&info.len.to_le_bytes());
        hash.update(file.section_bytes(i).expect("section"));
    }
    hash.finish()
}

/// Section digests of the two files a persisted segment stack writes:
/// its one segment (codec 10) and a manifest (codec 11) that carries
/// delta rows and tombstones as well as the raw query sets.
fn segment_stack_digests(view: &er::core::schema::TextView) -> (u64, u64) {
    use er::core::artifacts::ArtifactKey;
    use er::sparse::segmented::{manifest_repr, segment_repr};
    let model = er::sparse::RepresentationModel::parse("T1G").expect("T1G");
    let toks = |text: &str| model.token_set(text, &er::text::Cleaner::off());
    let dir = scratch_dir("digest10");
    let store = er_bench::open_store(&dir).expect("open store");
    let mut stack =
        er::sparse::SegmentedTokenSets::new("pin/T1G", view.e2.iter().map(|t| toks(t)).collect());
    for (i, text) in view.e1.iter().enumerate() {
        stack.upsert(i as u32, toks(text));
    }
    assert!(stack.flush());
    stack.upsert(3, toks("canon replacement row"));
    stack.upsert(900, toks("a fresh delta row"));
    stack.delete(7);
    stack.delete(11);
    stack.persist(&store, 42).expect("persist");
    let digests = (
        file_digest(&store.file_path(&ArtifactKey::new(42, segment_repr("pin/T1G", 0)))),
        file_digest(&store.file_path(&ArtifactKey::new(42, manifest_repr("pin/T1G")))),
    );
    let _ = std::fs::remove_dir_all(&dir);
    digests
}

/// "Same bytes on disk" asserted, not assumed: the digests below were
/// computed with the binary that still kept packed rows (and the
/// quantized sidecar) in memory. Any change to what codec 8 or codec 9
/// writes for these inputs — section order, packing, padding words —
/// moves them.
#[test]
fn encoded_sections_match_the_frozen_digests() {
    if std::env::var(CHILD_BASE).is_ok() {
        return;
    }
    let view = er::core::schema::TextView::new(
        (0..60)
            .map(|i| format!("canon powershot sx{} digital camera kit {}", i % 7, i * 13))
            .collect::<Vec<_>>(),
        (0..25)
            .map(|i| format!("canon camera sx{} bundle {}", i % 5, i * 31))
            .collect::<Vec<_>>(),
    );
    let sparse = er::sparse::KnnJoin {
        cleaning: true,
        model: er::sparse::RepresentationModel::parse("C3G").expect("C3G"),
        measure: er::sparse::SimilarityMeasure::Cosine,
        k: 2,
        reversed: false,
    };
    let dense = er::dense::FlatKnn {
        cleaning: true,
        k: 2,
        reversed: false,
        embedding: er::dense::EmbeddingConfig {
            dim: 16,
            ..Default::default()
        },
    };
    assert_eq!(
        section_digest("digest8", &sparse, &view),
        8_611_190_076_792_471_714,
        "codec 8 sections"
    );
    assert_eq!(
        section_digest("digest9", &dense, &view),
        4_628_786_987_096_702_592,
        "codec 9 sections"
    );
    let (segment, manifest) = segment_stack_digests(&view);
    assert_eq!(segment, 5_682_393_334_694_566_053, "codec 10 sections");
    assert_eq!(manifest, 526_103_554_562_236_986, "codec 11 sections");
}
