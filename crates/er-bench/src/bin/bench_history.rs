//! Perf-history tracker: appends the headline speedups of a
//! `BENCH_kernels.json` run — stamped with the git SHA and date — to the
//! tracked `results/bench_history.jsonl`, and (with `--check`) fails when
//! any tracked speedup regresses more than 20% below the median of the
//! last five recorded runs.
//!
//! CI runs `bench_history --check --append` after `bench_smoke.sh`, so
//! the kernel speedups accumulate one line per push and a regression
//! fails the build instead of silently eroding. The median-of-recent
//! baseline absorbs single-run timing noise. Only the keys of the current
//! document are checked, so history rows keep the keys of metrics that
//! have since been retired without affecting the gate.

use er_bench::jsonl::Json;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The metrics tracked across runs: history key and where it lives in
/// the kernel-bench document.
const TRACKED: &[(&str, &str, &str)] = &[
    ("sparse_query", "sparse_query", "speedup"),
    ("sparse_build", "sparse_build", "speedup"),
    ("dense_dot_simd", "dense_dot_scan", "speedup_simd"),
    ("dense_l2_simd", "dense_l2_scan", "speedup_simd"),
];

/// The metrics tracked for a `BENCH_shard.json` document (`"bench":
/// "shard_sweep"`): out-of-core sweep throughput. History keys are
/// disjoint from the kernel keys, so both document kinds share one
/// history file without cross-contaminating baselines.
const SHARD_TRACKED: &[(&str, &str, &str)] = &[("shard_rows_per_s", "throughput", "rows_per_s")];

/// The metrics tracked for a `BENCH_proxy.json` document (`"bench":
/// "proxy_serve"`): lookup throughput through the multi-process merge
/// proxy. Same disjoint-key discipline as the shard document.
const PROXY_TRACKED: &[(&str, &str, &str)] = &[("proxy_rows_per_s", "throughput", "rows_per_s")];

/// How many recent history entries form the regression baseline.
const BASELINE_RUNS: usize = 5;
/// Fail when a metric drops below this fraction of the baseline median.
const REGRESSION_FLOOR: f64 = 0.8;

/// Civil date from a unix timestamp (days-based; Hinnant's algorithm).
fn civil_date(secs: u64) -> String {
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// The current commit SHA: `$GITHUB_SHA` in CI, `git rev-parse` locally.
fn head_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
    Some(values[values.len() / 2])
}

fn main() {
    let mut bench_path = "BENCH_kernels.json".to_owned();
    let mut history_path = "results/bench_history.jsonl".to_owned();
    let mut append = false;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--bench" => bench_path = value("--bench"),
            "--history" => history_path = value("--history"),
            "--append" => append = true,
            "--check" => check = true,
            other => panic!("unknown argument {other}"),
        }
    }
    if !append && !check {
        append = true;
        check = true;
    }

    let text =
        std::fs::read_to_string(&bench_path).unwrap_or_else(|e| panic!("read {bench_path}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("parse {bench_path}: {e}"));
    if doc.get("candidate_sets_identical").and_then(Json::as_bool) != Some(true) {
        eprintln!("bench-history: {bench_path} reports non-identical candidate sets");
        std::process::exit(1);
    }
    let tracked: &[(&str, &str, &str)] = match doc.get("bench").and_then(Json::as_str) {
        Some("shard_sweep") => SHARD_TRACKED,
        Some("proxy_serve") => PROXY_TRACKED,
        _ => TRACKED,
    };
    let mut speedups: Vec<(String, Json)> = Vec::new();
    for &(key, section, field) in tracked {
        let Some(v) = doc
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Json::as_f64)
        else {
            eprintln!("bench-history: {bench_path} lacks {section}.{field}");
            std::process::exit(1);
        };
        speedups.push((key.to_owned(), Json::Num(v)));
    }

    // Prior entries (before this run) form the regression baseline.
    let prior: Vec<Json> = match std::fs::read_to_string(&history_path) {
        Ok(text) => text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("parse {history_path}: {e}")))
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => panic!("read {history_path}: {e}"),
    };

    let mut regressions = Vec::new();
    if check {
        for (key, value) in &speedups {
            let current = value.as_f64().expect("tracked metrics are numbers");
            let recent: Vec<f64> = prior
                .iter()
                .rev()
                .take(BASELINE_RUNS)
                .filter_map(|entry| {
                    entry
                        .get("speedups")
                        .and_then(|s| s.get(key))
                        .and_then(Json::as_f64)
                })
                .collect();
            if let Some(base) = median(recent) {
                if current < REGRESSION_FLOOR * base {
                    regressions.push(format!(
                        "{key}: {current:.3} < {REGRESSION_FLOOR} x median {base:.3}"
                    ));
                }
            }
        }
    }

    if append {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock after 1970")
            .as_secs();
        let entry = Json::Obj(vec![
            ("sha".to_owned(), Json::Str(head_sha())),
            ("date".to_owned(), Json::Str(civil_date(now))),
            ("bench".to_owned(), Json::Str(bench_path.clone())),
            ("speedups".to_owned(), Json::Obj(speedups)),
        ]);
        if let Some(dir) = std::path::Path::new(&history_path).parent() {
            std::fs::create_dir_all(dir).expect("create history directory");
        }
        let mut all = prior
            .iter()
            .map(Json::encode)
            .collect::<Vec<_>>()
            .join("\n");
        if !all.is_empty() {
            all.push('\n');
        }
        all.push_str(&entry.encode());
        all.push('\n');
        std::fs::write(&history_path, all).expect("write history");
        eprintln!(
            "bench-history: appended entry {} to {history_path}",
            prior.len() + 1
        );
    }

    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("bench-history: REGRESSION: {r}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "bench-history: {} tracked metrics OK against {} prior runs",
        tracked.len(),
        prior.len().min(BASELINE_RUNS)
    );
}
