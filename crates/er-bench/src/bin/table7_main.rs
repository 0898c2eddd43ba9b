//! Regenerates Table VII — PC, PQ and RT of every filtering method on every
//! dataset in schema-agnostic and schema-based settings — plus, behind
//! flags, the best-configuration Tables VIII–X (`--configs`) and the
//! candidate-count Table XI (`--candidates`).
//!
//! Typical invocations:
//!
//! ```text
//! cargo run --release --bin table7_main                          # defaults
//! cargo run --release --bin table7_main -- --scale 0.05 --grid quick
//! cargo run --release --bin table7_main -- --datasets D1,D4 --configs --candidates
//! cargo run --release --bin table7_main -- --threads 4 --csv table7.csv
//! cargo run --release --bin table7_main -- --timeout 60 --checkpoint sweep.jsonl
//! cargo run --release --bin table7_main -- --resume sweep.jsonl
//! cargo run --release --bin table7_main -- --store-dir artifacts
//! ```
//!
//! `--threads N` sets the worker count of the parallel execution layer
//! and additionally fans dataset columns out over N threads.
//! Effectiveness (PC/PQ/|C|) is byte-identical for every thread count,
//! but reported run-times contend for cores — keep the default (serial
//! columns) for faithful RT measurements.
//!
//! With `--timeout`, `--budget` or `--inject-faults`, each (setting,
//! method) grid point runs under a guard: a panic, blown deadline or
//! candidate budget is reported as a failure row and the sweep continues.
//! `--checkpoint`/`--resume` make an interrupted sweep restartable — see
//! the sweep driver in `er_bench::sweep`. `--store-dir` persists every
//! prepared artifact as a checksummed file a later process reloads
//! (mmap) instead of re-preparing — see DESIGN.md §11.

use er::core::parallel::Threads;
use er_bench::report::{render_report, sweep_csv, ReportOptions};
use er_bench::sweep::run_sweep;
use er_bench::Settings;

/// Prints a usage error and exits with a non-zero status (instead of a
/// panic with a backtrace, which is unhelpful for a flag typo).
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: table7_main [--threads N|auto] [--scale S] [--grid full|pruned|quick] ...");
    std::process::exit(2);
}

fn main() {
    let settings = Settings::from_args();
    // The free-standing flags this binary interprets; `--csv` takes an
    // optional path. Anything else is a typo, not something to ignore.
    let mut flags = settings.flags.iter().peekable();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--candidates" | "--configs" => {}
            "--csv" => {
                flags.next_if(|v| !v.starts_with("--"));
            }
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    // Columns stay serial unless a thread count was requested explicitly;
    // the parallel layer inside each method still uses `Threads::get()`.
    let column_workers = settings.threads.max(1);
    eprintln!(
        "Table VII sweep: scale {}, grid {:?}, target PC {}, reps {}, dim {}, threads {}",
        settings.scale,
        settings.resolution,
        settings.target_pc,
        settings.reps,
        settings.dim,
        Threads::get(),
    );
    if let Some(plan) = settings.faults.clone() {
        eprintln!("fault injection armed: {} site pattern(s)", plan.len());
        er::core::faults::configure(Some(plan));
    }

    let columns = run_sweep(&settings, column_workers, true).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    print!(
        "{}",
        render_report(
            &columns,
            ReportOptions {
                candidates: settings.has_flag("--candidates"),
                configs: settings.has_flag("--configs"),
            },
        )
    );

    // CSV export for downstream analysis: one row per (setting, method).
    if let Some(pos) = settings.flags.iter().position(|f| f == "--csv") {
        let path = settings
            .flags
            .get(pos + 1)
            .cloned()
            .unwrap_or_else(|| "table7.csv".to_owned());
        let csv = sweep_csv(&columns, true);
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
