//! The metric registry (what `BENCHMARK.json` declares, by name and
//! unit), one run's outcome, and how it is printed.

use crate::json::Value;
use std::collections::BTreeMap;

/// How long one run measures unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 8.0;

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: &[&str] = &[
    "sweep_blocking",
    "sweep_sparse",
    "sweep_dense",
    "shard_sweep",
    "serve_lookup",
    "serve_open",
    "serve_mixed",
    "proxy_lookup",
];

const GRID: &[&str] = &["sweep_blocking", "sweep_sparse", "sweep_dense"];
const SERVING: &[&str] = &["serve_lookup", "serve_open", "serve_mixed", "proxy_lookup"];
const SERVE: &[&str] = &["serve_lookup", "serve_open", "serve_mixed"];
const PROFILE_DATA: &[&str] = &[
    "sweep_blocking",
    "sweep_sparse",
    "sweep_dense",
    "serve_lookup",
    "serve_open",
    "serve_mixed",
    "proxy_lookup",
];
const SPARSE_USERS: &[&str] = &[
    "sweep_sparse",
    "serve_lookup",
    "serve_open",
    "serve_mixed",
    "proxy_lookup",
];
const STORE_USERS: &[&str] = &[
    "shard_sweep",
    "serve_lookup",
    "serve_open",
    "serve_mixed",
    "proxy_lookup",
];

/// Which way a metric should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: reported by every workload on an untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// Absolute floor, in the metric's unit: a difference no larger than
    /// this is never a regression, whatever share it is. `BENCHMARK.json`
    /// has no key for it, so only `run.sh --agree` applies it.
    pub floor: f64,
}

/// The end-to-end metrics. Every workload reports every one; what each
/// means per workload is tabulated in `benchmark/README.md`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.25,
    },
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        floor: 0.0,
    },
];

/// A per-layer metric: reported on a traced run. `at` lists the
/// workloads that enter the layer; everywhere else the value is 0 (the
/// layer did no work there — the "none" cells of the README matrix).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub at: &'static [&'static str],
}

const fn lower(name: &'static str, unit: &'static str, at: &'static [&'static str]) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        at,
    }
}

const fn higher(name: &'static str, unit: &'static str, at: &'static [&'static str]) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        at,
    }
}

/// The per-layer metrics, prefixed by crate.
pub const PER_LAYER: &[PerLayer] = &[
    // er-datagen
    lower("datagen.generate_s", "s", PROFILE_DATA),
    higher("datagen.stream_rows_per_s", "1/s", &["shard_sweep"]),
    // er-text
    lower("text.token_set_s", "s", SPARSE_USERS),
    higher("text.tokens_per_s", "1/s", SPARSE_USERS),
    // er-core
    lower("core.text_view_s", "s", PROFILE_DATA),
    lower("core.evaluate_s", "s", GRID),
    higher("core.cache_hits", "count", GRID),
    lower("core.cache_misses", "count", WORKLOADS),
    higher("core.cache_store_hits", "count", STORE_USERS),
    lower("core.cache_evictions", "count", &["shard_sweep"]),
    lower("core.cache_unmaps", "count", &["shard_sweep"]),
    lower("core.cache_spills", "count", &["shard_sweep"]),
    higher("core.par_speedup", "ratio", &["shard_sweep"]),
    // er-blocking
    lower("blocking.build_s", "s", &["sweep_blocking"]),
    lower("blocking.purge_s", "s", &["sweep_blocking"]),
    lower("blocking.filter_s", "s", &["sweep_blocking"]),
    lower("blocking.graph_s", "s", &["sweep_blocking"]),
    lower("blocking.weight_s", "s", &["sweep_blocking"]),
    lower("blocking.prune_s", "s", &["sweep_blocking"]),
    lower("blocking.propagation_s", "s", &["sweep_blocking"]),
    lower("blocking.blocks", "count", &["sweep_blocking"]),
    lower("blocking.comparisons", "count", &["sweep_blocking"]),
    higher(
        "blocking.candidates_per_comparison",
        "ratio",
        &["sweep_blocking"],
    ),
    // er-sparse
    lower("sparse.prepare_s", "s", SPARSE_USERS),
    lower("sparse.eps_query_s", "s", &["sweep_sparse"]),
    lower("sparse.knn_query_s", "s", &["sweep_sparse"]),
    lower("sparse.candidates_per_query", "count", SPARSE_USERS),
    lower("sparse.row_lookup_us", "us", SPARSE_USERS),
    lower("sparse.segmented_lookup_us", "us", &["serve_mixed"]),
    lower("sparse.upsert_us", "us", &["serve_mixed"]),
    lower("sparse.compact_s", "s", &["serve_mixed"]),
    lower(
        "sparse.segment_build_s",
        "s",
        &["shard_sweep", "serve_mixed"],
    ),
    lower("sparse.artifact_bytes_per_row", "B", SPARSE_USERS),
    // er-dense
    lower("dense.embed_s", "s", &["sweep_dense"]),
    lower("dense.flat_knn_s", "s", &["sweep_dense"]),
    lower("dense.minhash_s", "s", &["sweep_dense"]),
    lower("dense.hyperplane_s", "s", &["sweep_dense"]),
    lower("dense.crosspolytope_s", "s", &["sweep_dense"]),
    lower("dense.partitioned_s", "s", &["sweep_dense"]),
    lower("dense.candidates_per_query", "count", &["sweep_dense"]),
    // er-neural
    lower("neural.train_s", "s", &["sweep_dense"]),
    higher("neural.train_rows_per_s", "1/s", &["sweep_dense"]),
    // er-store
    lower("store.persist_s", "s", STORE_USERS),
    lower("store.persist_bytes", "B", STORE_USERS),
    lower("store.load_s", "s", STORE_USERS),
    lower("store.bytes_per_row", "B", STORE_USERS),
    // er-bench
    lower("bench.json_parse_us", "us", SERVING),
    lower("bench.json_encode_us", "us", SERVING),
    lower("method.SBW.wall_s", "s", &["sweep_blocking"]),
    lower("method.QBW.wall_s", "s", &["sweep_blocking"]),
    lower("method.EQBW.wall_s", "s", &["sweep_blocking"]),
    lower("method.SABW.wall_s", "s", &["sweep_blocking"]),
    lower("method.ESABW.wall_s", "s", &["sweep_blocking"]),
    lower("method.PBW.wall_s", "s", &["sweep_blocking"]),
    lower("method.DBW.wall_s", "s", &["sweep_blocking"]),
    lower("method.e-Join.wall_s", "s", &["sweep_sparse"]),
    lower("method.kNN-Join.wall_s", "s", &["sweep_sparse"]),
    lower("method.DkNN.wall_s", "s", &["sweep_sparse"]),
    lower("method.MH-LSH.wall_s", "s", &["sweep_dense"]),
    lower("method.CP-LSH.wall_s", "s", &["sweep_dense"]),
    lower("method.HP-LSH.wall_s", "s", &["sweep_dense"]),
    lower("method.FAISS.wall_s", "s", &["sweep_dense"]),
    lower("method.SCANN.wall_s", "s", &["sweep_dense"]),
    lower("method.DeepBlocker.wall_s", "s", &["sweep_dense"]),
    lower("method.DDB.wall_s", "s", &["sweep_dense"]),
    // er-serve
    lower("serve.open_s", "s", SERVING),
    lower("serve.boot_s", "s", SERVE),
    lower("serve.parse_us", "us", SERVING),
    lower("serve.lookup_us", "us", SERVING),
    lower("serve.lookup_p99_us", "us", SERVING),
    lower("serve.encode_us", "us", SERVING),
    lower("serve.reply_bytes", "B", SERVING),
    lower("serve.server_p50_us", "us", SERVE),
    lower("serve.server_p99_us", "us", SERVE),
    lower("serve.wire_gap_p50_us", "us", SERVE),
    lower("serve.shed", "count", SERVE),
    lower("serve.timeouts", "count", SERVE),
    lower("serve.apply_us", "us", &["serve_mixed"]),
    lower("serve.compact_s", "s", &["serve_mixed"]),
    lower("serve.drain_s", "s", SERVING),
    lower("serve.persist_s", "s", &["serve_mixed"]),
    lower("serve.restore_boot_s", "s", &["serve_mixed"]),
    higher("serve.max_rate_ok_rps", "1/s", &["serve_open"]),
    // er-super
    lower("super.boot_s", "s", &["proxy_lookup"]),
    lower("super.bootstrap_s", "s", &["proxy_lookup"]),
    lower("super.proxy_p50_us", "us", &["proxy_lookup"]),
    lower("super.child_p50_us", "us", &["proxy_lookup"]),
    lower("super.fanout_gap_p50_us", "us", &["proxy_lookup"]),
    lower("super.retries", "count", &["proxy_lookup"]),
    lower("super.unavailable", "count", &["proxy_lookup"]),
    lower("super.restarts", "count", &["proxy_lookup"]),
    // the instrument itself
    lower("loadgen.send_late_p99_us", "us", &["serve_open"]),
    lower("loadgen.p99_us", "us", SERVE),
    lower("loadgen.error_share", "ratio", WORKLOADS),
    lower("loadgen.update_p50_us", "us", &["serve_mixed"]),
    lower("loadgen.update_p99_us", "us", &["serve_mixed"]),
    lower("trace.overhead_pct", "pct", WORKLOADS),
];

/// What a per-layer metric reads when its probe could not run (the
/// contract's result line has no `null`): no count or time is negative.
pub const UNAVAILABLE: f64 = -1.0;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (requests, or grid points) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value. An untraced run fills the end-to-end
    /// names, a traced run whatever per-layer names it measured.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind latency metrics, and other context lines.
    pub notes: Vec<String>,
    /// Output checks that failed, in words.
    pub check_failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Records a failed output check; the run's `correct` goes false.
    pub fn fail_check(&mut self, text: impl Into<String>) {
        self.check_failures.push(text.into());
    }

    /// Records `text` as a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, text: impl FnOnce() -> String) {
        if !ok {
            self.fail_check(text());
        }
    }

    /// Every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Folds in `name value unit` lines printed by the layer probe.
    pub fn absorb_probe_lines(&mut self, text: &str) {
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some("note"), _, _) => self.note(line.trim_start_matches("note").trim()),
                (Some(name), Some(value), Some(_unit)) => {
                    if let Ok(v) = value.parse::<f64>() {
                        self.set(name, v);
                    }
                }
                _ => {}
            }
        }
    }
}

/// The metrics of the contract's result line for this run, complete:
/// every end-to-end metric (untraced) or every per-layer metric
/// (traced). A missing end-to-end metric is an error; a missing
/// per-layer metric reads 0 where the workload never enters the layer
/// and [`UNAVAILABLE`] (with the reason printed) where it should have
/// been measured.
pub fn contract_metrics(
    workload: &str,
    traced: bool,
    outcome: &Outcome,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut out = Vec::new();
    if !traced {
        for m in END_TO_END {
            let v = *outcome
                .metrics
                .get(m.name)
                .ok_or_else(|| format!("workload {workload} did not measure {}", m.name))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "{workload}: {} = {v} is not a positive number",
                    m.name
                ));
            }
            out.push((m.name, v, m.unit));
        }
        return Ok(out);
    }
    for m in PER_LAYER {
        let v = match outcome.metrics.get(m.name) {
            Some(v) if v.is_finite() => *v,
            _ if m.at.contains(&workload) => {
                eprintln!(
                    "{workload}: per-layer metric {} unavailable (probe missing or failed); \
                     reported as {UNAVAILABLE}",
                    m.name
                );
                UNAVAILABLE
            }
            _ => 0.0,
        };
        out.push((m.name, v, m.unit));
    }
    Ok(out)
}

/// The human-readable lines: `workload metric value unit`.
pub fn print_lines(workload: &str, outcome: &Outcome) {
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("-", |(_, u)| u)
    };
    for (name, value) in &outcome.metrics {
        println!("{workload} {name} {value} {}", unit_of(name));
    }
    for note in &outcome.notes {
        println!("{workload} note {note}");
    }
    for failure in &outcome.check_failures {
        println!("{workload} CHECK-FAILED {failure}");
    }
}

/// The contract's last stdout line.
pub fn result_line(outcome: &Outcome, metrics: &[(&'static str, f64, &'static str)]) -> String {
    Value::Obj(vec![
        ("correct".to_owned(), Value::Bool(outcome.correct())),
        ("attempted".to_owned(), Value::Num(outcome.attempted as f64)),
        ("failed".to_owned(), Value::Num(outcome.failed as f64)),
        (
            "metrics".to_owned(),
            Value::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            (*name).to_owned(),
                            Value::Obj(vec![
                                ("value".to_owned(), Value::Num(*value)),
                                ("unit".to_owned(), Value::Str((*unit).to_owned())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` and this registry must name the same workloads
    /// and metrics with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let text = include_str!("../../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.arr(key)
                .expect(key)
                .iter()
                .map(|w| w.str("name").expect("name").to_owned())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(doc.num("run_seconds"), Some(RUN_SECONDS));
        let better = |b: Better| match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let e2e = doc.arr("end_to_end").expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (declared, ours) in e2e.iter().zip(END_TO_END) {
            assert_eq!(declared.str("name"), Some(ours.name));
            assert_eq!(declared.str("unit"), Some(ours.unit), "{}", ours.name);
            assert_eq!(
                declared.str("better"),
                Some(better(ours.better)),
                "{}",
                ours.name
            );
            assert_eq!(declared.num("bound"), Some(ours.bound), "{}", ours.name);
        }
        let layers = doc.arr("per_layer").expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (declared, ours) in layers.iter().zip(PER_LAYER) {
            assert_eq!(declared.str("name"), Some(ours.name));
            assert_eq!(declared.str("unit"), Some(ours.unit), "{}", ours.name);
            assert_eq!(
                declared.str("better"),
                Some(better(ours.better)),
                "{}",
                ours.name
            );
        }
    }

    #[test]
    fn traced_contract_line_is_complete_and_marks_gaps() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.set("blocking.build_s", 0.25);
        let metrics = contract_metrics("sweep_blocking", true, &o).expect("traced");
        assert_eq!(metrics.len(), PER_LAYER.len());
        let get = |name: &str| metrics.iter().find(|m| m.0 == name).expect(name).1;
        assert_eq!(get("blocking.build_s"), 0.25);
        assert_eq!(
            get("blocking.purge_s"),
            UNAVAILABLE,
            "expected here, not measured"
        );
        assert_eq!(get("dense.embed_s"), 0.0, "layer never entered");
        let line = result_line(&o, &metrics);
        let v = json::parse(&line).expect("result line is json");
        assert_eq!(v.bool("correct"), Some(true));
        assert_eq!(v.num("attempted"), Some(3.0));
        assert!(v
            .get("metrics")
            .and_then(|m| m.get("trace.overhead_pct"))
            .is_some());
    }

    #[test]
    fn untraced_contract_line_needs_every_end_to_end_metric() {
        let mut o = Outcome {
            attempted: 1,
            ..Default::default()
        };
        for m in END_TO_END {
            o.set(m.name, 1.5);
        }
        assert_eq!(
            contract_metrics("serve_lookup", false, &o)
                .expect("all set")
                .len(),
            END_TO_END.len()
        );
        o.metrics.remove("tail_ms");
        assert!(contract_metrics("serve_lookup", false, &o).is_err());
        o.set("tail_ms", 0.0);
        assert!(
            contract_metrics("serve_lookup", false, &o).is_err(),
            "0 is not a measurement"
        );
    }
}
