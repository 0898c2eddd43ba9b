//! What surrounds a single workload run: finishing a traced run (trace
//! file, layer probe, self times, reconciliation), and the whole-suite
//! modes of `run.sh` (`results.json`, `--agree`).

use crate::json::{self, Value};
use crate::report::{Better, Outcome, END_TO_END, UNAVAILABLE, WORKLOADS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Config;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

/// Ends a traced run: writes `trace-<workload>.jsonl`, runs the layer
/// probe on the same seed and folds its metrics and spans in, and notes
/// per-layer self time and (for serving) how much of the client's
/// median the probed layers explain.
pub fn finish_trace(
    cfg: &Config,
    outcome: &mut Outcome,
    tracer: &Tracer,
    reconcile: &[(String, f64)],
) -> Result<(), String> {
    let path = cfg.out_dir.join(format!("trace-{}.jsonl", cfg.workload));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    for (layer, seconds) in tracer.self_time_by_layer() {
        outcome.note(format!("selftime {layer} {seconds:.6} s (driver spans)"));
    }

    match &cfg.layers_bin {
        None => eprintln!(
            "{}: the layers probe binary is missing (it did not build); its metrics are unavailable",
            cfg.workload
        ),
        Some(bin) => {
            let probe_trace = cfg.out_dir.join(format!("trace-{}.probe.jsonl", cfg.workload));
            let scratch = cfg.out_dir.join(format!("probe-{}-{}", cfg.workload, std::process::id()));
            let run = Command::new(bin)
                .args(["--workload", &cfg.workload, "--seed", &cfg.seed.to_string()])
                .arg("--trace-out")
                .arg(&probe_trace)
                .arg("--scratch")
                .arg(&scratch)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let _ = std::fs::remove_dir_all(&scratch);
            match run {
                Ok(out) if out.status.success() => {
                    outcome.absorb_probe_lines(&String::from_utf8_lossy(&out.stdout));
                    if let Ok(spans) = std::fs::read(&probe_trace) {
                        let appended = std::fs::OpenOptions::new()
                            .append(true)
                            .open(&path)
                            .and_then(|mut f| f.write_all(&spans));
                        if let Err(e) = appended {
                            eprintln!("append probe spans to {}: {e}", path.display());
                        }
                    }
                }
                Ok(out) => eprintln!(
                    "{}: layers probe exited {}; its metrics are unavailable",
                    cfg.workload, out.status
                ),
                Err(e) => eprintln!("{}: cannot run the layers probe: {e}", cfg.workload),
            }
            let _ = std::fs::remove_file(&probe_trace);
        }
    }

    if let Some(pct) = outcome.metrics.get("trace.overhead_pct").copied() {
        if pct > 5.0 {
            outcome.note(format!("FLAGGED: tracing overhead {pct:.1} % is above 5 %"));
        }
    }

    if let Some((_, client)) = reconcile.first() {
        let probed = [
            "serve.parse_us",
            "serve.lookup_us",
            "serve.encode_us",
            "bench.json_parse_us",
        ];
        let parts: Vec<(&str, f64)> = probed
            .iter()
            .filter_map(|name| outcome.metrics.get(*name).map(|v| (*name, *v)))
            .collect();
        let sum: f64 = parts.iter().map(|p| p.1).sum();
        let detail: Vec<String> = reconcile[1..]
            .iter()
            .map(|(k, v)| format!("{k} {v:.0} us"))
            .chain(parts.iter().map(|(k, v)| format!("{k} {v:.1}")))
            .collect();
        outcome.note(format!(
            "reconcile: client p50 {client:.0} us = probed layers {sum:.1} us + unexplained {:.1} us \
             ({})",
            client - sum,
            detail.join(", ")
        ));
    }
    Ok(())
}

/// One child run's parsed result line.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(exe: &Path, cfg: &Config, workload: &str, trace: bool) -> Result<RunResult, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--er-bin")
        .arg(&cfg.er_bin)
        .arg("--out-dir")
        .arg(&cfg.out_dir);
    if let Some(layers) = &cfg.layers_bin {
        cmd.arg("--layers-bin").arg(layers);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited {}",
            u8::from(trace),
            out.status
        ));
    }
    let doc = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let Some(Value::Obj(pairs)) = doc.get("metrics") {
        for (name, m) in pairs {
            metrics.insert(name.clone(), m.num("value").unwrap_or(f64::NAN));
        }
    }
    Ok(RunResult {
        correct: doc.bool("correct") == Some(true),
        attempted: doc.num("attempted").unwrap_or(0.0),
        failed: doc.num("failed").unwrap_or(0.0),
        metrics,
    })
}

/// What a child that exited non-zero or printed no result line counts
/// as: an incorrect run with no metrics. The suite goes on to the next
/// workload and exits non-zero at the end.
fn failed_run(reason: String) -> RunResult {
    eprintln!("error: {reason}");
    RunResult {
        correct: false,
        attempted: 0.0,
        failed: 0.0,
        metrics: BTreeMap::new(),
    }
}

fn metrics_json(metrics: &BTreeMap<String, f64>) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(k, v)| {
                let v = if *v == UNAVAILABLE { f64::NAN } else { *v };
                (k.clone(), Value::Num(v)) // NaN encodes as null
            })
            .collect(),
    )
}

/// Whether two sets of runs of the same code agree on a metric: neither value
/// is worse than the other by more than max(`bound` of the other,
/// `floor`); either run may be the "parent".
fn agrees(better: Better, bound: f64, floor: f64, a: f64, b: f64) -> bool {
    let (lo, hi) = (a.min(b), a.max(b));
    if hi - lo <= floor {
        return true;
    }
    match better {
        // The higher value is the worse one; its excess over the lower.
        Better::Lower => (hi - lo) / lo <= bound,
        // The lower value is the worse one; its shortfall from the higher.
        Better::Higher => (hi - lo) / hi <= bound,
    }
}

/// Runs one untraced child and counts it as bad unless it was correct
/// with no failed operation.
fn run_checked(exe: &Path, cfg: &Config, workload: &str, bad: &mut u32) -> RunResult {
    let r = run_child(exe, cfg, workload, false).unwrap_or_else(failed_run);
    if !r.correct || r.failed > 0.0 {
        eprintln!(
            "{workload}: correct={} failed={} of {}",
            r.correct, r.failed, r.attempted
        );
        *bad += 1;
    }
    r
}

/// Runs every workload (one fresh process each), prints every metric
/// and writes `results.json`; with `cfg.trace`, a traced run of each as
/// well. Returns the process exit code.
pub fn run_suite(cfg: &Config, only: Option<&str>, agree: bool) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    if agree {
        return Ok(run_agree(&exe, cfg, &workloads));
    }
    let mut bad = 0;
    let mut per_workload = Vec::new();
    for &w in &workloads {
        let r = run_checked(&exe, cfg, w, &mut bad);
        let mut entry = vec![
            ("correct".to_owned(), Value::Bool(r.correct)),
            ("attempted".to_owned(), Value::Num(r.attempted)),
            ("failed".to_owned(), Value::Num(r.failed)),
            (
                "error_share".to_owned(),
                Value::Num(r.failed / r.attempted.max(1.0)),
            ),
            ("end_to_end".to_owned(), metrics_json(&r.metrics)),
        ];
        if cfg.trace {
            let t = run_child(&exe, cfg, w, true).unwrap_or_else(failed_run);
            if !t.correct {
                bad += 1;
            }
            entry.push(("per_layer".to_owned(), metrics_json(&t.metrics)));
        }
        per_workload.push((w.to_owned(), Value::Obj(entry)));
    }
    let doc = Value::Obj(vec![
        ("seed".to_owned(), Value::Num(cfg.seed as f64)),
        ("seconds".to_owned(), Value::Num(cfg.seconds)),
        ("workloads".to_owned(), Value::Obj(per_workload)),
    ]);
    let path = cfg.out_dir.join("results.json");
    std::fs::write(&path, doc.encode() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(i32::from(bad > 0))
}

/// Runs per set in `--agree`. One run against one run cannot agree on
/// this box: the same sweep takes 1.9 or 2.7 s with the box's mood.
const AGREE_RUNS: usize = 5;

/// `--agree`: two sets of [`AGREE_RUNS`] untraced runs of every workload,
/// the sets' runs alternating (first second, second first, …) so that a
/// drift of the box's speed lands on both; prints each set's median, the
/// ratio and the bound per (workload, metric). Returns 1 if any pair of
/// medians disagrees or any run was bad.
fn run_agree(exe: &Path, cfg: &Config, workloads: &[&str]) -> i32 {
    let mut bad = 0;
    let mut sets: [BTreeMap<(&str, &str), Vec<f64>>; 2] = Default::default();
    for round in 0..AGREE_RUNS {
        for &w in workloads {
            for set in if round % 2 == 0 { [0, 1] } else { [1, 0] } {
                let r = run_checked(exe, cfg, w, &mut bad);
                for m in END_TO_END {
                    if let Some(v) = r.metrics.get(m.name) {
                        sets[set].entry((w, m.name)).or_default().push(*v);
                    }
                }
            }
        }
    }
    println!("workload metric first second second/first bound verdict");
    for &w in workloads {
        for m in END_TO_END {
            // A run that failed has no value, and was counted above.
            let median_of = |set: usize| sets[set].get(&(w, m.name)).map(|v| median(v));
            let (Some(a), Some(b)) = (median_of(0), median_of(1)) else {
                println!("{w} {} - - - {} MISSING", m.name, m.bound);
                continue;
            };
            let ok = agrees(m.better, m.bound, m.floor, a, b);
            if !ok {
                bad += 1;
            }
            println!(
                "{w} {} {a} {b} {:.4} {} {}",
                m.name,
                b / a,
                m.bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    i32::from(bad > 0)
}

/// Names in `PER_LAYER` must be unique and disjoint from `END_TO_END`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;

    #[test]
    fn agreement_is_symmetric_and_relative_to_the_better_value() {
        assert!(agrees(Better::Lower, 0.25, 0.0, 100.0, 125.0));
        assert!(agrees(Better::Lower, 0.25, 0.0, 125.0, 100.0));
        assert!(!agrees(Better::Lower, 0.25, 0.0, 100.0, 126.0));
        assert!(agrees(Better::Higher, 0.25, 0.0, 100.0, 75.0));
        assert!(agrees(Better::Higher, 0.25, 0.0, 75.0, 100.0));
        assert!(!agrees(Better::Higher, 0.25, 0.0, 100.0, 74.0));
    }

    #[test]
    fn a_difference_within_the_absolute_floor_always_agrees() {
        // 2 ms against 3 ms of set-up is 50 % and 1 ms: not a regression.
        assert!(agrees(Better::Lower, 0.25, 0.25, 0.002, 0.003));
        // The floor stops mattering once the bound is the larger of the two.
        assert!(agrees(Better::Lower, 0.25, 0.25, 2.0, 2.4));
        assert!(!agrees(Better::Lower, 0.25, 0.25, 2.0, 2.6));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().copied())
        {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for m in PER_LAYER {
            for w in m.at {
                assert!(WORKLOADS.contains(w), "{}: unknown workload {w}", m.name);
            }
        }
    }
}
