//! Command-line settings shared by all experiment binaries.
//!
//! A tiny hand-rolled parser (no CLI dependency): every binary accepts
//!
//! ```text
//! --scale 0.1          entity-count scale of the synthetic datasets
//! --seed 42            base RNG seed
//! --grid pruned        grid resolution: full | pruned | quick
//! --target 0.9         recall target τ of Problem 1, in (0, 1]
//! --reps 3             repetitions for stochastic methods
//! --dim 128            embedding dimensionality of the dense methods
//! --datasets D1,D4     subset of datasets (default: all ten)
//! --threads 8          worker threads (0 or `auto` = hardware parallelism)
//! --timeout 30         per-grid-point wall-clock deadline, seconds
//! --budget 5000000     per-grid-point candidate-pair budget
//! --cache-budget 512M  artifact-cache memory budget (K/M/G suffixes;
//!                      default: unbounded)
//! --store-dir dir      persistent artifact store: load prepared
//!                      artifacts from `dir` and spill/flush new ones
//!                      into it (reused across processes)
//! --checkpoint p.jsonl append each completed grid point to a checkpoint
//! --resume p.jsonl     skip grid points recorded in the checkpoint
//! --inject-faults SPEC deterministic fault injection, e.g.
//!                      `panic@Da1/SBW;stall@*:p=0.1,ms=50` (see
//!                      `er::core::faults::FaultPlan`)
//! --shards 4           run the out-of-core streamed shard sweep with
//!                      this many deterministic shards
//! --rows 10000000      streamed sweep: indexed-row count
//! --queries 10000      streamed sweep: query-row count
//! --threshold 0.4      streamed sweep: ε-join similarity threshold
//! ```
//!
//! plus free-standing flags the individual binaries interpret (e.g.
//! `--configs`). Bad input is a single-line error: [`Settings::try_parse`]
//! returns it, [`Settings::from_args`] prints it and exits non-zero.

use er::core::guard::Limits;
use er::core::optimize::GridResolution;
use er::core::{FaultPlan, Threads};
use er::datagen::profiles::{profile, DatasetProfile, PROFILES};
use std::time::Duration;

/// Parsed harness settings.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Entity-count scale of the synthetic datasets.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Grid resolution.
    pub resolution: GridResolution,
    /// Recall target τ.
    pub target_pc: f64,
    /// Stochastic-method repetitions (the paper uses 10).
    pub reps: usize,
    /// Embedding dimensionality (the paper's fastText uses 300).
    pub dim: usize,
    /// Selected dataset profiles.
    pub datasets: Vec<&'static DatasetProfile>,
    /// Worker threads (`0` = resolve from `ER_THREADS` / hardware).
    pub threads: usize,
    /// Per-grid-point wall-clock deadline.
    pub timeout: Option<Duration>,
    /// Per-grid-point candidate-pair budget.
    pub max_candidates: Option<usize>,
    /// Artifact-cache memory budget in bytes (`None` = unbounded).
    pub cache_budget: Option<usize>,
    /// Persistent artifact-store directory (`None` = memory-only cache).
    pub store_dir: Option<String>,
    /// Checkpoint file to append completed grid points to.
    pub checkpoint: Option<String>,
    /// Checkpoint file to resume from (implies checkpointing to it).
    pub resume: Option<String>,
    /// Parsed `--inject-faults` plan (installed by the sweep binaries).
    pub faults: Option<FaultPlan>,
    /// Shard count of the out-of-core streamed sweep (`None` = the
    /// profile-based Table VII sweep). Pure execution strategy: results
    /// are byte-identical at any shard count, like thread counts.
    pub shards: Option<u32>,
    /// Indexed-row count of the streamed dataset (shard sweep only).
    pub rows: Option<u32>,
    /// Query-row count of the streamed dataset (shard sweep only).
    pub queries: Option<u32>,
    /// ε-join similarity threshold of the streamed sweep.
    pub threshold: Option<f64>,
    /// Remaining free-standing flags.
    pub flags: Vec<String>,
}

impl Default for Settings {
    fn default() -> Self {
        Self {
            scale: 0.1,
            seed: 42,
            resolution: GridResolution::Pruned,
            target_pc: 0.9,
            reps: 3,
            dim: 128,
            datasets: PROFILES.iter().collect(),
            threads: 0,
            timeout: None,
            max_candidates: None,
            cache_budget: None,
            store_dir: None,
            checkpoint: None,
            resume: None,
            faults: None,
            shards: None,
            rows: None,
            queries: None,
            threshold: None,
            flags: Vec::new(),
        }
    }
}

impl Settings {
    /// Parses `std::env::args`, printing a single-line error and exiting
    /// non-zero on bad input, and applies the thread-count setting
    /// process-wide.
    pub fn from_args() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(s) => {
                Threads::set(s.threads);
                s
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut s = Settings::default();
        let mut it = args.into_iter();
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        fn parsed<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: invalid value {v:?}"))
        }
        // The closure borrows `it`; take each next flag through it too.
        while let Ok(arg) = value("") {
            match arg.as_str() {
                "--scale" => s.scale = parsed("--scale", &value("--scale")?)?,
                "--seed" => s.seed = parsed("--seed", &value("--seed")?)?,
                "--target" => {
                    // NaN would make every recall comparison false and
                    // every method silently infeasible.
                    let t: f64 = parsed("--target", &value("--target")?)?;
                    if !(t > 0.0 && t <= 1.0) {
                        return Err(format!("--target must be in (0, 1], got {t}"));
                    }
                    s.target_pc = t;
                }
                "--reps" => s.reps = parsed("--reps", &value("--reps")?)?,
                "--dim" => s.dim = parsed("--dim", &value("--dim")?)?,
                "--grid" => {
                    s.resolution = match value("--grid")?.as_str() {
                        "full" => GridResolution::Full,
                        "pruned" => GridResolution::Pruned,
                        "quick" => GridResolution::Quick,
                        other => return Err(format!("unknown grid resolution {other:?}")),
                    }
                }
                "--threads" => {
                    s.threads = Threads::parse_arg(&value("--threads")?)
                        .map_err(|e| format!("--threads: {e}"))?;
                }
                "--datasets" => {
                    s.datasets = value("--datasets")?
                        .split(',')
                        .map(|id| {
                            profile(id.trim()).ok_or_else(|| format!("unknown dataset {id:?}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--timeout" => {
                    let secs: f64 = parsed("--timeout", &value("--timeout")?)?;
                    if !(secs > 0.0 && secs.is_finite()) {
                        return Err("--timeout must be a positive number of seconds".to_owned());
                    }
                    s.timeout = Some(Duration::from_secs_f64(secs));
                }
                "--budget" => {
                    let n: usize = parsed("--budget", &value("--budget")?)?;
                    if n == 0 {
                        return Err("--budget must be at least 1 candidate pair".to_owned());
                    }
                    s.max_candidates = Some(n);
                }
                "--cache-budget" => {
                    s.cache_budget = Some(
                        parse_bytes(&value("--cache-budget")?)
                            .map_err(|e| format!("--cache-budget: {e}"))?,
                    );
                }
                "--store-dir" => {
                    let dir = value("--store-dir")?;
                    if dir.is_empty() {
                        return Err("--store-dir requires a directory path".to_owned());
                    }
                    s.store_dir = Some(dir);
                }
                "--checkpoint" => s.checkpoint = Some(value("--checkpoint")?),
                "--resume" => s.resume = Some(value("--resume")?),
                "--inject-faults" => {
                    let spec = value("--inject-faults")?;
                    s.faults =
                        Some(FaultPlan::parse(&spec).map_err(|e| format!("--inject-faults: {e}"))?);
                }
                "--shards" => {
                    let n: u32 = parsed("--shards", &value("--shards")?)?;
                    if n == 0 {
                        return Err("--shards must be at least 1".to_owned());
                    }
                    s.shards = Some(n);
                }
                "--rows" => {
                    let n: u32 = parsed("--rows", &value("--rows")?)?;
                    if n == 0 {
                        return Err("--rows must be at least 1".to_owned());
                    }
                    s.rows = Some(n);
                }
                "--queries" => {
                    let n: u32 = parsed("--queries", &value("--queries")?)?;
                    if n == 0 {
                        return Err("--queries must be at least 1".to_owned());
                    }
                    s.queries = Some(n);
                }
                "--threshold" => {
                    let t = parsed("--threshold", &value("--threshold")?)?;
                    s.threshold = Some(check_threshold(t)?);
                }
                _ => s.flags.push(arg),
            }
        }
        if !(s.scale > 0.0 && s.scale <= 1.0) {
            return Err("--scale must be in (0, 1]".to_owned());
        }
        if s.reps < 1 {
            return Err("--reps must be at least 1".to_owned());
        }
        Ok(s)
    }

    /// Panicking variant of [`Settings::try_parse`], for tests and
    /// callers that prefer unwinding.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        Self::try_parse(args).unwrap_or_else(|e| panic!("{e}"))
    }

    /// True if a free-standing flag was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// Per-grid-point guard limits: an armed deadline/budget from the
    /// flags, with panic capture whenever any fault-isolation feature
    /// (timeout, budget, fault injection) is requested. All-`None`
    /// settings yield disabled limits — sweeps behave exactly as without
    /// the guard layer.
    pub fn limits(&self) -> Limits {
        let mut limits = Limits::none();
        limits.timeout = self.timeout;
        limits.max_candidates = self.max_candidates;
        limits.catch_panics =
            self.timeout.is_some() || self.max_candidates.is_some() || self.faults.is_some();
        limits
    }

    /// The checkpoint path in effect (`--resume` implies appending new
    /// grid points to the same file).
    pub fn checkpoint_path(&self) -> Option<&str> {
        self.resume.as_deref().or(self.checkpoint.as_deref())
    }

    /// A stable fingerprint of every setting that determines sweep
    /// *results* (not execution strategy: thread counts, shard counts,
    /// guard limits and checkpoint paths are excluded — a resumed run may
    /// change them, and sharded runs are byte-identical to monolithic
    /// ones). The streamed-sweep workload flags (`--rows`, `--queries`,
    /// `--threshold`) *do* change results, so they append when set —
    /// leaving every pre-existing fingerprint unchanged.
    pub fn fingerprint(&self) -> String {
        let datasets: Vec<&str> = self.datasets.iter().map(|d| d.id).collect();
        let mut fp = format!(
            "scale={};seed={};grid={:?};target={};reps={};dim={};datasets={}",
            self.scale,
            self.seed,
            self.resolution,
            self.target_pc,
            self.reps,
            self.dim,
            datasets.join(",")
        );
        if let Some(rows) = self.rows {
            fp.push_str(&format!(";rows={rows}"));
        }
        if let Some(queries) = self.queries {
            fp.push_str(&format!(";queries={queries}"));
        }
        if let Some(threshold) = self.threshold {
            fp.push_str(&format!(";threshold={threshold}"));
        }
        fp
    }
}

/// Checks an ε-Join `--threshold`: a similarity in (0, 1]. NaN, ±∞ and
/// values outside the range are refused instead of yielding an empty or
/// an everything-sharing-a-token candidate set. `er sweep`, `er filter`,
/// `er serve` and `er supervise` share this one check and its message.
pub fn check_threshold(t: f64) -> Result<f64, String> {
    if t > 0.0 && t <= 1.0 {
        Ok(t)
    } else {
        Err(format!("--threshold must be in (0, 1], got {t}"))
    }
}

/// Parses a byte size with an optional binary K/M/G suffix (`512M`,
/// `2g`, `65536`).
fn parse_bytes(v: &str) -> Result<usize, String> {
    let v = v.trim();
    let (digits, unit) = match v.chars().last() {
        Some('k' | 'K') => (&v[..v.len() - 1], 1usize << 10),
        Some('m' | 'M') => (&v[..v.len() - 1], 1usize << 20),
        Some('g' | 'G') => (&v[..v.len() - 1], 1usize << 30),
        _ => (v, 1),
    };
    let n: usize = digits
        .parse()
        .map_err(|_| format!("invalid byte size {v:?}"))?;
    if n == 0 {
        return Err("byte size must be positive".to_owned());
    }
    n.checked_mul(unit)
        .ok_or_else(|| format!("byte size {v:?} overflows"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Settings, String> {
        Settings::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_cover_all_datasets() {
        let s = parse(&[]).expect("defaults");
        assert_eq!(s.datasets.len(), 10);
        assert_eq!(s.scale, 0.1);
        assert_eq!(s.resolution, GridResolution::Pruned);
        assert!(!s.limits().enabled());
        assert!(s.checkpoint_path().is_none());
    }

    #[test]
    fn parses_every_flag() {
        let s = parse(&[
            "--scale",
            "0.25",
            "--seed",
            "7",
            "--grid",
            "quick",
            "--target",
            "0.85",
            "--reps",
            "5",
            "--dim",
            "64",
            "--datasets",
            "D1,D4",
            "--threads",
            "4",
            "--timeout",
            "2.5",
            "--budget",
            "1000000",
            "--cache-budget",
            "512M",
            "--store-dir",
            "artifacts",
            "--checkpoint",
            "ck.jsonl",
            "--inject-faults",
            "panic@Da1/SBW",
            "--shards",
            "4",
            "--rows",
            "50000",
            "--queries",
            "500",
            "--threshold",
            "0.4",
            "--configs",
        ])
        .expect("parse");
        assert_eq!(s.scale, 0.25);
        assert_eq!(s.seed, 7);
        assert_eq!(s.resolution, GridResolution::Quick);
        assert_eq!(s.target_pc, 0.85);
        assert_eq!(s.reps, 5);
        assert_eq!(s.dim, 64);
        assert_eq!(
            s.datasets.iter().map(|d| d.id).collect::<Vec<_>>(),
            vec!["D1", "D4"]
        );
        assert_eq!(s.threads, 4);
        assert_eq!(s.timeout, Some(Duration::from_millis(2500)));
        assert_eq!(s.max_candidates, Some(1_000_000));
        assert_eq!(s.cache_budget, Some(512 << 20));
        assert_eq!(s.store_dir.as_deref(), Some("artifacts"));
        assert_eq!(s.checkpoint_path(), Some("ck.jsonl"));
        assert!(s.faults.is_some());
        assert_eq!(s.shards, Some(4));
        assert_eq!(s.rows, Some(50_000));
        assert_eq!(s.queries, Some(500));
        assert_eq!(s.threshold, Some(0.4));
        assert!(s.has_flag("--configs"));
        assert!(!s.has_flag("--other"));
        let limits = s.limits();
        assert!(limits.enabled() && limits.catch_panics);
    }

    #[test]
    fn threads_accepts_auto() {
        assert_eq!(parse(&["--threads", "auto"]).expect("auto").threads, 0);
    }

    #[test]
    fn bad_input_yields_single_line_errors() {
        for (args, needle) in [
            (&["--threads", "many"][..], "--threads"),
            (&["--datasets", "D99"][..], "unknown dataset"),
            (&["--scale", "1.5"][..], "--scale"),
            (&["--scale", "zero"][..], "--scale"),
            (&["--timeout", "-1"][..], "--timeout"),
            (&["--budget", "0"][..], "--budget"),
            (&["--cache-budget", "0"][..], "--cache-budget"),
            (&["--cache-budget", "12Q"][..], "--cache-budget"),
            (&["--store-dir", ""][..], "--store-dir"),
            (&["--inject-faults", "??"][..], "--inject-faults"),
            (&["--shards", "0"][..], "--shards"),
            (&["--shards", "three"][..], "--shards"),
            (&["--rows", "0"][..], "--rows"),
            (&["--queries", "0"][..], "--queries"),
            (&["--threshold", "1.5"][..], "--threshold"),
            (&["--threshold", "0"][..], "--threshold"),
            (&["--seed"][..], "requires a value"),
        ] {
            let err = parse(args).expect_err(needle);
            assert!(err.contains(needle), "{args:?}: {err}");
            assert!(!err.contains('\n'), "single line: {err:?}");
        }
    }

    #[test]
    fn target_outside_unit_interval_is_refused() {
        for bad in ["NaN", "inf", "0", "-1", "1.5"] {
            let err = parse(&["--target", bad]).expect_err(bad);
            assert!(
                err.starts_with("--target must be in (0, 1], got "),
                "{bad}: {err}"
            );
            assert!(!err.contains('\n'), "single line: {err:?}");
        }
        for good in ["1", "0.9", "0.001"] {
            let s = parse(&["--target", good]).expect(good);
            assert_eq!(s.target_pc, good.parse::<f64>().expect("f64"));
        }
    }

    #[test]
    fn cache_budget_accepts_binary_suffixes() {
        for (spec, bytes) in [
            ("65536", 65536),
            ("4k", 4 << 10),
            ("32M", 32 << 20),
            ("2G", 2 << 30),
        ] {
            let s = parse(&["--cache-budget", spec]).expect(spec);
            assert_eq!(s.cache_budget, Some(bytes), "{spec}");
        }
    }

    #[test]
    fn resume_implies_checkpointing_to_the_same_file() {
        let s = parse(&["--resume", "sweep.jsonl"]).expect("resume");
        assert_eq!(s.checkpoint_path(), Some("sweep.jsonl"));
    }

    #[test]
    fn fingerprint_ignores_execution_strategy() {
        let a = parse(&[]).expect("a");
        let b = parse(&[
            "--threads",
            "8",
            "--timeout",
            "5",
            "--cache-budget",
            "64M",
            "--store-dir",
            "artifacts",
            "--resume",
            "x.jsonl",
        ])
        .expect("b");
        let c = parse(&["--seed", "43"]).expect("c");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Shard count is execution strategy; the streamed-workload shape
        // is not.
        let sharded = parse(&["--shards", "8"]).expect("sharded");
        assert_eq!(a.fingerprint(), sharded.fingerprint());
        let rows = parse(&["--rows", "1000"]).expect("rows");
        assert_ne!(a.fingerprint(), rows.fingerprint());
        assert_ne!(
            parse(&["--threshold", "0.3"]).expect("t").fingerprint(),
            parse(&["--threshold", "0.5"]).expect("t").fingerprint()
        );
    }
}
