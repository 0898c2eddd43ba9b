//! The fault-isolated, resumable Table VII sweep driver.
//!
//! One *grid point* is one `(column, method)` pair — a column being a
//! (dataset, schema-setting) — and the driver runs every grid point under
//! the settings' guard limits: a panic, blown deadline or candidate
//! budget becomes a structured failure row while the rest of the sweep
//! continues. With a checkpoint path configured, each completed grid
//! point is appended (and flushed) to a JSONL checkpoint as it finishes;
//! resuming replays the recorded outcomes and computes only the missing
//! points, so the final report is byte-identical to an uninterrupted
//! run's.

use crate::checkpoint::{Checkpoint, CheckpointWriter};
use crate::harness::{run_method, Context, MethodId, MethodOutcome};
use crate::settings::Settings;
use er::core::artifacts::{ArtifactCache, CacheStats};
use er::core::optimize::Optimizer;
use er::core::parallel;
use er::core::schema::{text_view, SchemaMode};
use er::core::timing::format_runtime;
use er::datagen::{generate, DatasetProfile};
use er::dense::EmbeddingConfig;
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// One evaluated column of Table VII.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column label, e.g. `"Da2"` (dataset D2, schema-agnostic).
    pub label: String,
    /// `|E1| * |E2|` of the column's dataset.
    pub cartesian: u64,
    /// Per-method outcomes in [`MethodId::ALL`] order.
    pub outcomes: Vec<MethodOutcome>,
    /// Final counters of the column's artifact cache (all-zero when the
    /// column was served entirely from a checkpoint).
    pub stats: CacheStats,
}

/// One column to evaluate.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    /// The dataset profile.
    pub profile: &'static DatasetProfile,
    /// The schema setting.
    pub mode: SchemaMode,
    /// Column label, e.g. `"Db2"`.
    pub label: String,
}

/// Enumerates the sweep's columns: schema-agnostic for every selected
/// dataset, then schema-based for the viable ones.
pub fn column_specs(settings: &Settings) -> Vec<ColumnSpec> {
    let mut specs = Vec::new();
    for mode_label in ["a", "b"] {
        for profile in &settings.datasets {
            if mode_label == "b" && !profile.schema_based_viable {
                continue;
            }
            let mode = if mode_label == "a" {
                SchemaMode::Agnostic
            } else {
                profile.schema_based_mode()
            };
            specs.push(ColumnSpec {
                profile,
                mode,
                label: format!("D{}{}", mode_label, &profile.id[1..]),
            });
        }
    }
    specs
}

fn report_done(label: &str, o: &MethodOutcome, elapsed: std::time::Duration, cached: bool) {
    let suffix = if cached { " [checkpointed]" } else { "" };
    if let Some(err) = &o.error {
        eprintln!(
            "   [{label}] {:<12} FAILED after {}: {err}{suffix}",
            o.method,
            format_runtime(o.runtime),
        );
    } else {
        eprintln!(
            "   [{label}] {:<12} pc={:.3} pq={:.4} |C|={:>9.0} rt={:<9} ({} cfgs in {}) {}{suffix}",
            o.method,
            o.pc,
            o.pq,
            o.candidates,
            format_runtime(o.runtime),
            o.evaluated,
            format_runtime(elapsed),
            if o.feasible { "" } else { " [below target]" },
        );
    }
}

/// Evaluates one column, reusing checkpointed grid points and recording
/// freshly-computed ones. A column whose 17 grid points are all
/// checkpointed is reported without regenerating its dataset.
fn evaluate_column(
    spec: &ColumnSpec,
    settings: &Settings,
    verbose: bool,
    completed: &Checkpoint,
    writer: Option<&Mutex<CheckpointWriter>>,
) -> io::Result<Column> {
    let label = &spec.label;
    let cached: Vec<Option<MethodOutcome>> = MethodId::ALL
        .iter()
        .map(|id| {
            completed
                .lookup(label, id.name())
                .map(|row| row.outcome.clone())
        })
        .collect();
    if cached.iter().all(Option::is_some) {
        let cartesian = completed
            .lookup(label, MethodId::ALL[0].name())
            .map(|row| row.cartesian)
            .unwrap_or(0);
        let outcomes: Vec<MethodOutcome> = cached.into_iter().flatten().collect();
        if verbose {
            for o in &outcomes {
                report_done(label, o, std::time::Duration::ZERO, true);
            }
        }
        return Ok(Column {
            label: label.clone(),
            cartesian,
            outcomes,
            stats: CacheStats::default(),
        });
    }

    let ds = generate(spec.profile, settings.scale, settings.seed);
    let view = text_view(&ds, &spec.mode);
    let cartesian = ds.cartesian();
    // One artifact cache per column: artifact keys carry the dataset
    // fingerprint, so nothing is shared across columns anyway, and a
    // per-column cache keeps every mutation on this column's worker —
    // preserving deterministic eviction at any `column_workers` count.
    let cache = ArtifactCache::new();
    cache.set_budget(settings.cache_budget);
    if let Some(dir) = &settings.store_dir {
        cache.set_store(Some(std::sync::Arc::new(crate::store::open_store(
            Path::new(dir),
        )?)));
    }
    let ctx = Context {
        optimizer: Optimizer::new(settings.target_pc).with_limits(settings.limits()),
        resolution: settings.resolution,
        embedding: EmbeddingConfig {
            dim: settings.dim,
            ..Default::default()
        },
        seed: settings.seed,
        reps: settings.reps,
        label: label.clone(),
        ..Context::new(&view, &ds.groundtruth, &cache)
    };
    let mut outcomes = Vec::with_capacity(MethodId::ALL.len());
    for (id, cached) in MethodId::ALL.into_iter().zip(cached) {
        let (o, elapsed, was_cached) = match cached {
            Some(o) => (o, std::time::Duration::ZERO, true),
            None => {
                let sw = er::core::Stopwatch::start();
                let o = run_method(&ctx, id);
                let elapsed = sw.elapsed();
                if let Some(writer) = writer {
                    writer
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .record(label, cartesian, &o)?;
                }
                (o, elapsed, false)
            }
        };
        if verbose {
            report_done(label, &o, elapsed, was_cached);
        }
        outcomes.push(o);
    }
    // Persist everything the budget never evicted, so a later process
    // starts fully warm (evictions already spilled their victims).
    cache.flush_store();
    if verbose {
        let s = cache.stats();
        eprintln!(
            "   [{label}] cache: {} hits / {} misses / {} evictions / {} poisoned / \
             {} KiB resident / prepare {} spent, {} saved",
            s.hits,
            s.misses,
            s.evictions,
            s.poisoned,
            s.bytes.div_ceil(1024),
            format_runtime(s.prepare_wall),
            format_runtime(s.prepare_saved),
        );
        if settings.store_dir.is_some() {
            eprintln!(
                "   [{label}] store: {} hits / {} spills / {} corrupt",
                s.store_hits, s.spills, s.corrupt,
            );
        }
    }
    Ok(Column {
        label: label.clone(),
        cartesian,
        outcomes,
        stats: cache.stats(),
    })
}

/// Runs the full sweep described by `settings` over `column_workers`
/// parallel columns (1 = serial, with per-method progress when
/// `verbose`). Handles checkpoint loading/appending per the settings;
/// fault plans are *not* installed here — callers decide the injection
/// scope (see `er::core::faults::configure`).
pub fn run_sweep(
    settings: &Settings,
    column_workers: usize,
    verbose: bool,
) -> io::Result<Vec<Column>> {
    let fingerprint = settings.fingerprint();
    let completed = match settings.resume.as_deref() {
        Some(path) => {
            let cp = Checkpoint::load(Path::new(path), &fingerprint)?;
            if verbose && !cp.is_empty() {
                eprintln!("resuming: {} grid points checkpointed in {path}", cp.len());
            }
            cp
        }
        None => Checkpoint::default(),
    };
    let writer = match settings.checkpoint_path() {
        Some(path) => {
            if settings.resume.is_none() {
                // A fresh `--checkpoint` starts over; only `--resume`
                // keeps previously-recorded grid points.
                match std::fs::remove_file(path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
            Some(Mutex::new(CheckpointWriter::open(
                Path::new(path),
                &fingerprint,
            )?))
        }
        None => None,
    };
    let specs = column_specs(settings);
    let columns: Vec<io::Result<Column>> = if column_workers <= 1 {
        specs
            .iter()
            .map(|spec| {
                if verbose {
                    eprintln!("== {} ({} / {:?})", spec.label, spec.profile.id, spec.mode);
                }
                evaluate_column(spec, settings, verbose, &completed, writer.as_ref())
            })
            .collect()
    } else {
        // One chunk per column through the shared parallel layer: columns
        // are work-stolen but merged in spec order, so output ordering is
        // identical to the serial path.
        parallel::par_map_chunks_with(column_workers, &specs, 1, |_, part| {
            let spec = &part[0];
            if verbose {
                eprintln!("== {} ({} / {:?})", spec.label, spec.profile.id, spec.mode);
            }
            let column = evaluate_column(spec, settings, false, &completed, writer.as_ref());
            if verbose {
                eprintln!("== {} done", spec.label);
            }
            column
        })
    };
    columns.into_iter().collect()
}
