//! The per-layer probe: times calls into each crate's public functions
//! from outside, on the inputs the named workload generates for `--seed`.
//!
//! `layers --workload W --seed N --trace-out FILE --scratch DIR` prints
//! one `name value unit` line per metric (and `note ...` lines), writes
//! its spans to FILE as JSON lines, and exits 0. Nothing here adds a
//! span, counter or flag to the program: a probe is two `Instant`s
//! around a public call.
//!
//! This is a package of its own on purpose. It knows the crates' inner
//! public functions, so a refactor of those may break it; the driver
//! (`e2e`) links a much smaller surface and keeps building and gating
//! when this does not.

mod blocking;
mod dense;
mod serve;
mod shard;
mod sparse;

use e2e::stats::median;
use e2e::trace::Tracer;
use er::core::metrics::evaluate;
use er::core::schema::{text_view, SchemaMode, TextView};
use er::core::{CandidateSet, Dataset};
use er::datagen::{generate, profiles::profile};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Span ids start here so they cannot collide with the driver's in the
/// shared trace file.
const FIRST_SPAN_ID: u64 = 1 << 40;

/// Where probes record spans and metric lines.
pub struct Probe {
    pub tracer: Tracer,
    pub seed: u64,
    pub scratch: PathBuf,
    started: Instant,
}

impl Probe {
    /// Prints one metric line.
    pub fn emit(&self, name: &str, value: f64, unit: &str) {
        println!("{name} {value} {unit}");
    }

    pub fn note(&self, text: &str) {
        println!("note probe: {text}");
    }

    /// Calls `f` once under a span and returns its result and seconds.
    pub fn once<T>(&mut self, span: &str, layer: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.tracer.record(span, layer, None, None, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Calls `f` at least three times, and on until 100 ms have gone or
    /// 25 calls were made, each under a span; returns the last result
    /// and the median seconds. Cheap calls get many repeats, expensive
    /// ones three.
    pub fn repeat<T>(&mut self, span: &str, layer: &str, mut f: impl FnMut() -> T) -> (T, f64) {
        let began = Instant::now();
        let mut walls = Vec::new();
        loop {
            let (out, secs) = self.once(span, layer, &mut f);
            walls.push(secs);
            let enough = walls.len() >= 3 && began.elapsed() >= Duration::from_millis(100);
            if enough || walls.len() >= 25 {
                return (out, median(&walls));
            }
        }
    }
}

/// `generate` + `text_view` for a profile workload, both timed.
pub fn profile_data(p: &mut Probe, profile_id: &str, scale: f64) -> (Dataset, TextView) {
    let prof = profile(profile_id).expect("known profile");
    let seed = p.seed;
    let (ds, secs) = p.repeat("generate", "datagen", || generate(prof, scale, seed));
    p.emit("datagen.generate_s", secs, "s");
    let (view, secs) = p.repeat("text_view", "core", || {
        text_view(&ds, &SchemaMode::Agnostic)
    });
    p.emit("core.text_view_s", secs, "s");
    (ds, view)
}

/// `metrics::evaluate` over one candidate set.
pub fn evaluate_probe(p: &mut Probe, candidates: &CandidateSet, ds: &Dataset) {
    let (_, secs) = p.repeat("evaluate", "core", || evaluate(candidates, &ds.groundtruth));
    p.emit("core.evaluate_s", secs, "s");
}

fn main() -> std::process::ExitCode {
    let mut workload = None;
    let mut seed = 11u64;
    let mut trace_out = None;
    let mut scratch = std::env::temp_dir().join(format!("layers-{}", std::process::id()));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next();
        match (flag.as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v),
            ("--seed", Some(v)) => match v.parse() {
                Ok(n) => seed = n,
                Err(_) => {
                    eprintln!("layers: --seed {v:?} is not a number");
                    return 2.into();
                }
            },
            ("--trace-out", Some(v)) => trace_out = Some(PathBuf::from(v)),
            ("--scratch", Some(v)) => scratch = PathBuf::from(v),
            (other, _) => {
                eprintln!("layers: unknown or incomplete argument {other:?}");
                return 2.into();
            }
        }
    }
    let Some(workload) = workload else {
        eprintln!("layers: --workload is required");
        return 2.into();
    };
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("layers: mkdir {}: {e}", scratch.display());
        return 1.into();
    }

    let mut probe = Probe {
        tracer: Tracer::new(FIRST_SPAN_ID),
        seed,
        scratch,
        started: Instant::now(),
    };

    let result = match workload.as_str() {
        "sweep_blocking" => blocking::run(&mut probe),
        "sweep_sparse" => sparse::run_sweep(&mut probe),
        "sweep_dense" => dense::run(&mut probe),
        "shard_sweep" => shard::run(&mut probe),
        "serve_lookup" | "serve_open" | "serve_mixed" | "proxy_lookup" => {
            serve::run(&mut probe, &workload)
        }
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&probe.scratch);
    if let Err(e) = result {
        eprintln!("layers: {workload}: {e}");
        return 1.into();
    }

    for (layer, seconds) in probe.tracer.self_time_by_layer() {
        println!("note selftime {layer} {seconds:.6} s (probe spans)");
    }
    println!(
        "note probe: {} spans in {:.2} s",
        probe.tracer.spans().len(),
        probe.started.elapsed().as_secs_f64()
    );
    if let Some(path) = trace_out {
        if let Err(e) = probe.tracer.write_jsonl(&path) {
            eprintln!("layers: write {}: {e}", path.display());
            return 1.into();
        }
    }
    0.into()
}
