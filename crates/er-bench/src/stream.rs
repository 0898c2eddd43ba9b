//! The checkpointed, resumable streaming-ingest benchmark behind
//! `er sweep --stream`.
//!
//! The first selected column's indexed side is replayed as an *insert
//! log* against a [`SegmentedTokenSets`]: the rows arrive in batches,
//! each batch is sealed into an immutable segment, deterministic deletes
//! thin out earlier batches, and the midpoint batch triggers a
//! compaction — the full lifecycle of the incremental index. After every
//! batch the merged epsilon candidates over all query rows are reduced
//! to a count and an order-sensitive hash, giving one compact report row
//! per batch.
//!
//! Report rows carry no wall-clock fields, so a run interrupted after
//! any batch and resumed via `--resume` produces a byte-identical final
//! report: checkpointed batches replay their recorded rows (the index
//! state is rebuilt by re-applying the cheap insert/delete log, skipping
//! only the expensive query pass), and fresh batches append to the same
//! checkpoint. The checkpoint header is fingerprinted with the sweep
//! settings plus a `+stream` tag so sweep and stream checkpoints can
//! never be confused for one another.
//!
//! The run ends with the invariant the whole subsystem is built on: the
//! merged candidates of the final state must be bitwise identical to a
//! from-scratch prepare over the net surviving rows. With `--store-dir`
//! the final segment stack is also persisted through the manifest codec.

use crate::jsonl::Json;
use crate::settings::Settings;
use crate::sweep::column_specs;
use er::core::parallel::Threads;
use er::core::schema::text_view;
use er::core::timing::format_runtime;
use er::datagen::generate;
use er::sparse::{
    EpsilonJoin, RepresentationModel, ScanCountIndex, ScanCountScratch, SegmentedTokenSets,
    SimilarityMeasure, TokenSetsArtifact,
};
use er::text::Cleaner;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

/// Number of insert batches the log is split into.
const BATCHES: usize = 8;
/// Checkpoint format version.
const VERSION: f64 = 1.0;

/// One completed batch of the stream, as checkpointed and reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRow {
    /// Batch index, `0..BATCHES`.
    pub batch: usize,
    /// Rows inserted by this batch.
    pub upserts: usize,
    /// Rows deleted before this batch's queries ran.
    pub deletes: usize,
    /// Net live rows after the batch.
    pub live_rows: usize,
    /// Sealed segments after the batch.
    pub segments: usize,
    /// Mutable delta rows after the batch.
    pub delta_rows: usize,
    /// Total merged epsilon candidates over all query rows.
    pub candidates_total: u64,
    /// Order-sensitive FNV-1a hash of every candidate list.
    pub cand_hash: u64,
}

impl BatchRow {
    fn encode(&self) -> Json {
        Json::Obj(vec![
            ("batch".to_owned(), Json::Num(self.batch as f64)),
            ("upserts".to_owned(), Json::Num(self.upserts as f64)),
            ("deletes".to_owned(), Json::Num(self.deletes as f64)),
            ("live_rows".to_owned(), Json::Num(self.live_rows as f64)),
            ("segments".to_owned(), Json::Num(self.segments as f64)),
            ("delta_rows".to_owned(), Json::Num(self.delta_rows as f64)),
            (
                "candidates_total".to_owned(),
                Json::Num(self.candidates_total as f64),
            ),
            // 64-bit hashes overflow an f64 mantissa; hex keeps them exact.
            (
                "cand_hash".to_owned(),
                Json::Str(format!("{:016x}", self.cand_hash)),
            ),
        ])
    }

    fn decode(line: &str) -> Result<BatchRow, String> {
        let v = Json::parse(line)?;
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let hash = v
            .get("cand_hash")
            .and_then(Json::as_str)
            .ok_or("missing string field \"cand_hash\"")?;
        Ok(BatchRow {
            batch: num("batch")? as usize,
            upserts: num("upserts")? as usize,
            deletes: num("deletes")? as usize,
            live_rows: num("live_rows")? as usize,
            segments: num("segments")? as usize,
            delta_rows: num("delta_rows")? as usize,
            candidates_total: num("candidates_total")? as u64,
            cand_hash: u64::from_str_radix(hash, 16)
                .map_err(|_| format!("bad cand_hash {hash:?}"))?,
        })
    }
}

/// Loads a stream checkpoint: batches recorded by a previous (possibly
/// interrupted) run, in batch order. Missing file = nothing completed.
/// A torn final line — the signature of a mid-write kill — is dropped;
/// any other malformed line, fingerprint mismatch, or out-of-order batch
/// is an error rather than silently-ignored data.
fn load_checkpoint(path: &Path, fingerprint: &str) -> io::Result<Vec<BatchRow>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let bad = |line: usize, msg: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}:{line}: {msg}", path.display()),
        )
    };
    let mut lines = BufReader::new(file).lines();
    let header = match lines.next() {
        None => return Ok(Vec::new()),
        Some(line) => line?,
    };
    let header =
        Json::parse(&header).map_err(|e| bad(1, format!("bad stream checkpoint header: {e}")))?;
    if header.get("v").and_then(Json::as_f64) != Some(VERSION) {
        return Err(bad(1, "unsupported stream checkpoint version".to_owned()));
    }
    match header.get("fingerprint").and_then(Json::as_str) {
        Some(fp) if fp == fingerprint => {}
        Some(fp) => {
            return Err(bad(
                1,
                format!(
                    "stream checkpoint was written with different settings \
                     (fingerprint {fp:?}, current {fingerprint:?})"
                ),
            ))
        }
        None => {
            return Err(bad(
                1,
                "stream checkpoint header has no fingerprint".to_owned(),
            ))
        }
    }
    let mut rows: Vec<BatchRow> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if let Some((n, e)) = pending.take() {
            return Err(bad(n, e));
        }
        match BatchRow::decode(&line) {
            Ok(row) => {
                if row.batch != rows.len() {
                    return Err(bad(
                        i + 2,
                        format!("batch {} out of order (expected {})", row.batch, rows.len()),
                    ));
                }
                rows.push(row);
            }
            Err(e) => pending = Some((i + 2, e)),
        }
    }
    Ok(rows)
}

/// Opens a stream checkpoint for appending, writing the header first on
/// a fresh (or empty) file.
fn open_checkpoint(path: &Path, fingerprint: &str) -> io::Result<File> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    if file.metadata()?.len() == 0 {
        let header = Json::Obj(vec![
            ("v".to_owned(), Json::Num(VERSION)),
            ("fingerprint".to_owned(), Json::Str(fingerprint.to_owned())),
        ]);
        writeln!(file, "{}", header.encode())?;
        file.flush()?;
    }
    Ok(file)
}

/// FNV-1a over every candidate list, order- and row-sensitive, so any
/// divergence in any row's candidate set changes the hash.
fn candidate_hash(merged: &[Vec<u32>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for (j, row) in merged.iter().enumerate() {
        eat(j as u64);
        eat(row.len() as u64);
        for &id in row {
            eat(id as u64);
        }
    }
    h
}

/// The fixed join the stream benchmarks.
fn stream_join(model: RepresentationModel) -> EpsilonJoin {
    EpsilonJoin {
        cleaning: false,
        model,
        measure: SimilarityMeasure::Jaccard,
        threshold: 0.3,
    }
}

/// Ids deleted before batch `i` runs its queries: a deterministic thin
/// of the rows inserted by *earlier* batches (batch 0 deletes nothing).
fn delete_schedule(i: usize, inserted_below: usize, net: &BTreeMap<u32, Vec<u64>>) -> Vec<u32> {
    if i == 0 {
        return Vec::new();
    }
    net.keys()
        .copied()
        .filter(|&id| (id as usize) < inserted_below && id as usize % 7 == i % 7)
        .collect()
}

/// Runs the streaming-ingest benchmark and writes the final JSON report
/// to `path`. Checkpointing/resume follow the settings exactly as the
/// sweep does; see the module docs for the replay semantics.
pub fn run_stream(settings: &Settings, path: &Path, verbose: bool) -> io::Result<()> {
    let spec = column_specs(settings).into_iter().next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "stream: no datasets selected")
    })?;
    let fingerprint = format!("{}+stream", settings.fingerprint());
    let completed = match settings.resume.as_deref() {
        Some(p) => {
            let rows = load_checkpoint(Path::new(p), &fingerprint)?;
            if verbose && !rows.is_empty() {
                eprintln!(
                    "stream: resuming, {} batch(es) checkpointed in {p}",
                    rows.len()
                );
            }
            rows
        }
        None => Vec::new(),
    };
    let mut writer = match settings.checkpoint_path() {
        Some(p) => {
            if settings.resume.is_none() {
                match std::fs::remove_file(p) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
            Some(open_checkpoint(Path::new(p), &fingerprint)?)
        }
        None => None,
    };

    let ds = generate(spec.profile, settings.scale, settings.seed);
    let view = text_view(&ds, &spec.mode);
    let model = RepresentationModel::parse("T1G").expect("T1G parses");
    let cleaner = Cleaner::off();
    let rows: Vec<Vec<u64>> = view
        .e1
        .iter()
        .map(|t| model.token_set(t, &cleaner))
        .collect();
    let query_raw: Vec<Vec<u64>> = view
        .e2
        .iter()
        .map(|t| model.token_set(t, &cleaner))
        .collect();
    let join = stream_join(model);
    let threads = Threads::get();
    let per = rows.len().div_ceil(BATCHES).max(1);

    let mut seg = SegmentedTokenSets::new("stream/sparse", query_raw.clone());
    let mut net: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut report_rows: Vec<BatchRow> = Vec::with_capacity(BATCHES);
    let sw = er::core::Stopwatch::start();
    for i in 0..BATCHES {
        let start = i * per;
        if start >= rows.len() && i > 0 {
            break; // tiny datasets fill fewer than BATCHES batches
        }
        let end = rows.len().min(start + per);
        // Replay the log: inserts for this batch, then the deterministic
        // deletes thinning earlier batches. This runs even for
        // checkpointed batches — state must advance for later ones.
        for (id, toks) in rows.iter().enumerate().take(end).skip(start) {
            seg.upsert(id as u32, toks.clone());
            net.insert(id as u32, toks.clone());
        }
        let deletes = delete_schedule(i, start, &net);
        for &id in &deletes {
            seg.delete(id);
            net.remove(&id);
        }
        if i + 1 < BATCHES && end < rows.len() {
            seg.flush();
        }
        if i == BATCHES / 2 {
            seg.compact();
        }

        if let Some(row) = completed.get(i) {
            report_rows.push(row.clone());
            if verbose {
                eprintln!(
                    "stream [{}] batch {i}: +{} -{} rows (checkpointed)",
                    spec.label, row.upserts, row.deletes,
                );
            }
            continue;
        }
        let merged = seg.epsilon_batch(&join, threads);
        let row = BatchRow {
            batch: i,
            upserts: end - start,
            deletes: deletes.len(),
            live_rows: seg.live_rows(),
            segments: seg.segment_count(),
            delta_rows: seg.delta_rows(),
            candidates_total: merged.iter().map(|r| r.len() as u64).sum(),
            cand_hash: candidate_hash(&merged),
        };
        if let Some(w) = writer.as_mut() {
            writeln!(w, "{}", row.encode().encode())?;
            w.flush()?;
        }
        if verbose {
            eprintln!(
                "stream [{}] batch {i}: +{} -{} rows | {} live / {} segments / {} delta | \
                 {} candidates ({})",
                spec.label,
                row.upserts,
                row.deletes,
                row.live_rows,
                row.segments,
                row.delta_rows,
                row.candidates_total,
                format_runtime(sw.elapsed()),
            );
        }
        report_rows.push(row);
    }

    // Final invariant: the merged view over segments + delta, after all
    // the interleaved inserts, deletes and the midpoint compaction, must
    // be bitwise identical to a from-scratch prepare of the net rows.
    let merged = seg.epsilon_batch(&join, threads);
    let ids: Vec<u32> = net.keys().copied().collect();
    let sets: Vec<Vec<u64>> = net.values().cloned().collect();
    let (index, index_sets) = ScanCountIndex::build_with_sets(&sets);
    let query_sets = index.intern_queries(&query_raw);
    let art = TokenSetsArtifact {
        index_sets,
        query_sets,
        index,
    };
    let mut scratch = ScanCountScratch::default();
    let mut hits = Vec::new();
    let merge_matches_rebuild = (0..query_raw.len()).all(|j| {
        let mut out = Vec::new();
        join.query_row_into(&art, j, &mut scratch, &mut hits, &mut out);
        let out: Vec<u32> = out.into_iter().map(|d| ids[d as usize]).collect();
        out == merged[j]
    });

    let mut doc = vec![
        ("column".to_owned(), Json::Str(spec.label.clone())),
        ("fingerprint".to_owned(), Json::Str(fingerprint)),
        (
            "batches".to_owned(),
            Json::Arr(report_rows.iter().map(BatchRow::encode).collect()),
        ),
        ("live_rows".to_owned(), Json::Num(seg.live_rows() as f64)),
        ("segments".to_owned(), Json::Num(seg.segment_count() as f64)),
        ("delta_rows".to_owned(), Json::Num(seg.delta_rows() as f64)),
        (
            "merge_matches_rebuild".to_owned(),
            Json::Bool(merge_matches_rebuild),
        ),
    ];
    if let Some(dir) = &settings.store_dir {
        let store = crate::store::open_store(Path::new(dir))?;
        let report = seg
            .persist(&store, view.fingerprint())
            .map_err(io::Error::other)?;
        if verbose {
            eprintln!(
                "stream [{}] persisted to {dir}: {} segment(s) written, {} reused, {} removed",
                spec.label, report.segments_written, report.segments_reused, report.removed,
            );
        }
        doc.push((
            "persist".to_owned(),
            Json::Obj(vec![
                (
                    "segments_written".to_owned(),
                    Json::Num(report.segments_written as f64),
                ),
                (
                    "segments_reused".to_owned(),
                    Json::Num(report.segments_reused as f64),
                ),
                ("removed".to_owned(), Json::Num(report.removed as f64)),
            ]),
        ));
    }
    if verbose {
        eprintln!(
            "stream [{}] done in {}: {} live rows / {} segments / {} delta | merge {}",
            spec.label,
            format_runtime(sw.elapsed()),
            seg.live_rows(),
            seg.segment_count(),
            seg.delta_rows(),
            if merge_matches_rebuild {
                "ok"
            } else {
                "MISMATCH"
            },
        );
    }
    std::fs::write(path, Json::Obj(doc).encode() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("er-stream-{name}-{}", std::process::id()))
    }

    fn settings() -> Settings {
        Settings::parse(
            ["--datasets", "D1", "--scale", "0.01", "--grid", "quick"]
                .iter()
                .map(|s| s.to_string()),
        )
    }

    #[test]
    fn batch_rows_roundtrip_through_jsonl() {
        let row = BatchRow {
            batch: 3,
            upserts: 120,
            deletes: 17,
            live_rows: 430,
            segments: 4,
            delta_rows: 120,
            candidates_total: 98765,
            cand_hash: 0xdead_beef_cafe_f00d,
        };
        let line = row.encode().encode();
        assert_eq!(BatchRow::decode(&line).expect("decode"), row);
    }

    #[test]
    fn stream_report_verifies_and_is_resume_identical() {
        let out_a = temp("full.json");
        let out_b = temp("resumed.json");
        let ck = temp("ck.jsonl");
        for p in [&out_a, &out_b, &ck] {
            let _ = std::fs::remove_file(p);
        }

        // Uninterrupted run, checkpointing as it goes.
        let mut s = settings();
        s.checkpoint = Some(ck.display().to_string());
        run_stream(&s, &out_a, false).expect("full run");
        let full = std::fs::read_to_string(&out_a).expect("report");
        assert!(full.contains("\"merge_matches_rebuild\":true"), "{full}");

        // Truncate the checkpoint to its header + first three batches —
        // an interrupted run — and resume: byte-identical report.
        let lines: Vec<String> = std::fs::read_to_string(&ck)
            .expect("checkpoint")
            .lines()
            .map(str::to_owned)
            .collect();
        assert!(lines.len() > 4, "expected several checkpointed batches");
        std::fs::write(&ck, lines[..4].join("\n") + "\n").expect("truncate");
        let mut s = settings();
        s.resume = Some(ck.display().to_string());
        run_stream(&s, &out_b, false).expect("resumed run");
        let resumed = std::fs::read_to_string(&out_b).expect("report");
        assert_eq!(full, resumed, "resumed report must be byte-identical");

        // The resumed run completed the checkpoint back to full length.
        let rows = load_checkpoint(&ck, &format!("{}+stream", s.fingerprint())).expect("load");
        assert_eq!(rows.len(), lines.len() - 1);

        for p in [&out_a, &out_b, &ck] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn checkpoint_rejects_fingerprint_mismatch_and_tolerates_torn_tail() {
        let ck = temp("torn.jsonl");
        let _ = std::fs::remove_file(&ck);
        let mut file = open_checkpoint(&ck, "fp+stream").expect("open");
        let row = BatchRow {
            batch: 0,
            upserts: 10,
            deletes: 0,
            live_rows: 10,
            segments: 1,
            delta_rows: 0,
            candidates_total: 5,
            cand_hash: 7,
        };
        writeln!(file, "{}", row.encode().encode()).expect("write");
        write!(file, "{{\"batch\":1,\"upser").expect("torn tail");
        drop(file);
        let rows = load_checkpoint(&ck, "fp+stream").expect("torn tail tolerated");
        assert_eq!(rows.len(), 1);
        let err = load_checkpoint(&ck, "other+stream").expect_err("mismatch");
        assert!(err.to_string().contains("different settings"), "{err}");
        let _ = std::fs::remove_file(&ck);
    }
}
