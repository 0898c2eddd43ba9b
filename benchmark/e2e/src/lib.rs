//! The repo benchmark's driver: runs one named workload against the
//! system, checks its outputs and reports its metrics.
//!
//! What this crate links from the system is a small frozen surface
//! (see `benchmark/README.md`); everything else it does the way a user
//! would — through the `er` binary and the line-JSON wire. The library
//! half (`json`, `stats`, `trace`, `report`) is also what the separate
//! `layers` probe package builds on, so both print and parse one format.

pub mod daemon;
pub mod json;
pub mod loadgen;
pub mod report;
pub mod serving;
pub mod stats;
pub mod suite;
pub mod sweeps;
pub mod trace;

use std::path::PathBuf;

/// Everything one workload run needs to know.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    /// Drives dataset generation, row choice and operation mix.
    pub seed: u64,
    /// How long the timed part measures.
    pub seconds: f64,
    /// Traced run: spans recorded, layer probes run, per-layer metrics
    /// reported instead of the end-to-end ones.
    pub trace: bool,
    /// `target/release/er` of the checkout under test.
    pub er_bin: PathBuf,
    /// The `layers` probe binary; `None` when it did not build.
    pub layers_bin: Option<PathBuf>,
    /// Scratch and outputs (`benchmark/out`).
    pub out_dir: PathBuf,
}

impl Config {
    /// A fresh scratch directory for this run, under `out_dir`.
    pub fn scratch(&self) -> Result<PathBuf, String> {
        let dir = self
            .out_dir
            .join(format!("run-{}-{}", self.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Runs the workload `cfg` names.
pub fn run_workload(cfg: &Config) -> Result<report::Outcome, String> {
    match cfg.workload.as_str() {
        "sweep_blocking" | "sweep_sparse" | "sweep_dense" => sweeps::grid_sweep(cfg),
        "shard_sweep" => sweeps::shard_sweep(cfg),
        "serve_lookup" | "serve_open" | "serve_mixed" | "proxy_lookup" => serving::run(cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of: {})",
            report::WORKLOADS.join(", ")
        )),
    }
}
