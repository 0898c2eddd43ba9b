//! The serving workloads: a real `er serve` or `er supervise` daemon,
//! loaded over the wire by the native generator.
//!
//! | workload | daemon | method | load |
//! |---|---|---|---|
//! | `serve_lookup` | `er serve` | ε-Join T1G clean t=0.4 | closed, 2 × 8 in flight |
//! | `serve_open` | `er serve` | same | open, 500 req/s over 2 connections |
//! | `serve_mixed` | `er serve` | same | closed 2 × 8, 80 % lookup / 10 % upsert / 10 % delete, compactions, then drain and restore |
//! | `proxy_lookup` | `er supervise --shards 4 --children 2` | kNN-Join C3G clean k=2 | closed, 2 × 4 in flight |
//!
//! All on profile D10 × 1.0 (27,615 indexed × 23,182 query rows).

use crate::daemon::Daemon;
use crate::json::{quote, Value};
use crate::loadgen::{self, KeptReply, Op, OpKind, OpSource, Pacing, Phase, Report};
use crate::report::Outcome;
use crate::stats::{median, min, Rng, Samples, MIN_P95_SAMPLES, MIN_P99_SAMPLES};
use crate::trace::Tracer;
use crate::Config;
use er::core::artifacts::{ArtifactCache, ArtifactKey};
use er::core::filter::Filter;
use er::core::schema::{text_view, SchemaMode, TextView};
use er::datagen::{generate, profiles::profile};
use er::prelude::{EpsilonJoin, KnnJoin, RepresentationModel, SimilarityMeasure};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const PROFILE: &str = "D10";
pub const SCALE: f64 = 1.0;
const CONNECTIONS: usize = 2;
/// `serve_open`'s fixed arrival rate.
const OPEN_RATE: f64 = 500.0;
/// The latency limit for rate statements: p99 from due time.
const LIMIT_US: u64 = 50_000;
/// `serve_mixed`: connection 0 asks for a compaction every this many of
/// its operations (about three per eight-second run).
const COMPACT_EVERY: u64 = 500;
/// `serve_mixed`: lookups compared before drain and after restore.
const FIXED_LOOKUPS: u64 = 200;

#[derive(Clone, Copy, PartialEq)]
enum Load {
    Closed,
    Open,
    Mixed,
}

struct Spec {
    supervise: bool,
    knn: bool,
    in_flight: usize,
    load: Load,
    /// Replies checked against the offline `Filter::run` rows; also the
    /// warm-up before anything is timed.
    verified: u64,
    /// How many equal parts, each on fresh connections, the timed load
    /// is cut into.
    sub_phases: usize,
}

/// How often the whole set-up is done. It is compute-bound, so the best
/// repeat is reported, as for the sweeps' passes.
const SETUP_REPEATS: usize = 5;

/// The tail every serving workload gates is the p95. The p99 sits at the
/// foot of a cliff on this server: a fraction of a per cent to a few per
/// cent of replies wait out one more 40 ms delayed-ACK timer, so p99 flips
/// between one gap and two with the box's mood (52 ms or 113 ms on the
/// same code). It is still printed, checked against the latency limit,
/// and reported per-layer as `loadgen.p99_us`.
const TAIL_Q: f64 = 0.95;
const TAIL_MIN: usize = MIN_P95_SAMPLES;

fn spec_of(workload: &str) -> Spec {
    let serve = |load| Spec {
        supervise: false,
        knn: false,
        in_flight: 8,
        load,
        verified: 500,
        sub_phases: if load == Load::Mixed { 1 } else { 4 },
    };
    match workload {
        "serve_lookup" => serve(Load::Closed),
        "serve_open" => serve(Load::Open),
        "serve_mixed" => serve(Load::Mixed),
        // Three processes on two cores answer ~40 lookups a second: 500
        // verified replies would cost 12 s, so 100 are checked, and the
        // one phase is kept whole for its ~330 samples.
        "proxy_lookup" => Spec {
            supervise: true,
            knn: true,
            in_flight: 4,
            load: Load::Closed,
            verified: 100,
            sub_phases: 1,
        },
        other => unreachable!("{other} is not a serving workload"),
    }
}

/// The ε-Join the three `serve_*` workloads serve.
pub fn epsilon_join() -> EpsilonJoin {
    EpsilonJoin {
        cleaning: true,
        model: RepresentationModel::parse("T1G").expect("T1G"),
        measure: SimilarityMeasure::Cosine,
        threshold: 0.4,
    }
}

/// The kNN-Join `proxy_lookup` serves.
pub fn knn_join() -> KnnJoin {
    KnnJoin {
        cleaning: true,
        model: RepresentationModel::parse("C3G").expect("C3G"),
        measure: SimilarityMeasure::Cosine,
        k: 2,
        reversed: false,
    }
}

/// Whether `workload` serves [`knn_join`] (else [`epsilon_join`]).
pub fn serves_knn(workload: &str) -> bool {
    workload == "proxy_lookup"
}

/// The served filter and the `er serve` flags that configure the same.
fn method_of(spec: &Spec) -> (Box<dyn Filter>, Vec<String>) {
    let arg = |s: &str| s.to_owned();
    if spec.knn {
        let flags = ["--method", "knn", "--model", "C3G", "--clean", "--k", "2"];
        (Box::new(knn_join()), flags.map(arg).to_vec())
    } else {
        let flags = [
            "--method",
            "epsilon",
            "--model",
            "T1G",
            "--clean",
            "--threshold",
            "0.4",
        ];
        (Box::new(epsilon_join()), flags.map(arg).to_vec())
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let spec = spec_of(&cfg.workload);
    let scratch = cfg.scratch()?;
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(1);
    let result = run_in(cfg, &spec, &scratch, &mut outcome, &mut tracer);
    let _ = std::fs::remove_dir_all(&scratch);
    let reconcile = result?;
    if cfg.trace {
        crate::suite::finish_trace(cfg, &mut outcome, &tracer, &reconcile)?;
    }
    Ok(outcome)
}

/// Sums the `store: N hits / M misses` startup lines of a daemon (one
/// per `er serve` process; a supervisor forwards its children's).
fn store_line_counts(stderr: &str) -> (u64, u64, usize) {
    let (mut hits, mut misses, mut lines) = (0, 0, 0);
    for line in stderr.lines() {
        let Some((_, rest)) = line.split_once("| store: ") else {
            continue;
        };
        if !line.contains("serve: loaded") {
            continue;
        }
        let mut words = rest.split_whitespace();
        let h = words.next().and_then(|w| w.parse::<u64>().ok());
        let m = words.nth(2).and_then(|w| w.parse::<u64>().ok());
        if let (Some(h), Some(m)) = (h, m) {
            hits += h;
            misses += m;
            lines += 1;
        }
    }
    (hits, misses, lines)
}

fn daemon_args(spec: &Spec, seed: u64, store: &Path, method_flags: &[String]) -> Vec<String> {
    let mut args: Vec<String> = vec![
        if spec.supervise { "supervise" } else { "serve" }.to_owned(),
        "--store-dir".to_owned(),
        store.display().to_string(),
        "--profile".to_owned(),
        PROFILE.to_owned(),
        "--scale".to_owned(),
        SCALE.to_string(),
        "--seed".to_owned(),
        seed.to_string(),
        "--addr".to_owned(),
        "127.0.0.1:0".to_owned(),
    ];
    args.extend_from_slice(method_flags);
    if spec.supervise {
        args.extend(["--shards", "4", "--children", "2"].map(str::to_owned));
    }
    args
}

/// A lookup source drawing uniform query rows from its own stream.
fn uniform_lookups(seed: u64, stream: u64, rows: usize) -> OpSource<'static> {
    let mut rng = Rng::stream(seed, stream);
    Box::new(move |_| Op::lookup(rng.below(rows)))
}

/// The `serve_mixed` operation stream of one connection: 80 % lookups,
/// 10 % upserts whose text is another indexed row's own text, 10 %
/// deletes; connection 0 also asks for a compaction now and then.
pub fn mixed_ops<'a>(seed: u64, conn: u64, view: &'a TextView) -> OpSource<'a> {
    let mut rng = Rng::stream(seed, 100 + conn);
    Box::new(move |seq| {
        if conn == 0 && seq % COMPACT_EVERY == COMPACT_EVERY - 1 {
            return Op {
                kind: OpKind::Compact,
                row: 0,
                members: "\"op\":\"compact\"".to_owned(),
            };
        }
        let dice = rng.below(100);
        if dice < 80 {
            Op::lookup(rng.below(view.e2.len()))
        } else if dice < 90 {
            let row = rng.below(view.e1.len());
            let text = &view.e1[rng.below(view.e1.len())];
            Op {
                kind: OpKind::Upsert,
                row: row as u32,
                members: format!("\"op\":\"upsert\",\"row\":{row},\"text\":{}", quote(text)),
            }
        } else {
            let row = rng.below(view.e1.len());
            Op {
                kind: OpKind::Delete,
                row: row as u32,
                members: format!("\"op\":\"delete\",\"row\":{row}"),
            }
        }
    })
}

struct PhasePlan<'a> {
    pacing: Box<dyn Fn(usize) -> Pacing + 'a>,
    duration: Duration,
    max_ops: u64,
    keep: u64,
    trace: bool,
    source: Box<dyn Fn(usize) -> OpSource<'a> + 'a>,
}

fn run_plan(addr: &str, plan: PhasePlan<'_>, epoch: Instant) -> Result<Report, String> {
    let mut streams = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        streams.push(loadgen::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
    }
    let phases = (0..CONNECTIONS)
        .map(|c| Phase {
            pacing: (plan.pacing)(c),
            duration: plan.duration,
            max_ops: plan.max_ops,
            grace: Duration::from_secs(3),
            keep_replies: plan.keep,
            trace: plan.trace,
            id_stride: CONNECTIONS as u64,
            id_offset: c as u64,
            source: (plan.source)(c),
        })
        .collect();
    Ok(loadgen::run_phases(&mut streams, phases, epoch))
}

/// One timed phase of the workload's own load shape on fresh
/// connections. `stream_base` keeps each part's rows apart.
fn timed_load(
    cfg: &Config,
    spec: &Spec,
    run: &Running,
    seconds: f64,
    traced: bool,
    stream_base: u64,
    epoch: Instant,
) -> Result<Report, String> {
    let (seed, view) = (cfg.seed, &run.view);
    let q_rows = view.e2.len();
    let in_flight = spec.in_flight;
    run_plan(
        &run.daemon.addr,
        PhasePlan {
            pacing: match spec.load {
                Load::Open => Box::new(open_pacing(OPEN_RATE)),
                _ => Box::new(move |_| Pacing::Closed { in_flight }),
            },
            duration: Duration::from_secs_f64(seconds),
            max_ops: u64::MAX,
            keep: 0,
            trace: traced,
            source: match spec.load {
                Load::Mixed => Box::new(move |c| mixed_ops(seed + stream_base, c as u64, view)),
                _ => Box::new(move |c| uniform_lookups(seed, stream_base + c as u64, q_rows)),
            },
        },
        epoch,
    )
}

fn open_pacing(rate: f64) -> impl Fn(usize) -> Pacing {
    move |conn| Pacing::Open {
        interval: Duration::from_secs_f64(CONNECTIONS as f64 / rate),
        offset: Duration::from_secs_f64(conn as f64 / rate),
    }
}

/// The offline answer for each kept reply: `Filter::run` over a view
/// whose query side is exactly the looked-up rows (both joins score a
/// query row against the indexed side alone, so the sub-view's rows are
/// the full view's rows).
fn offline_rows(filter: &dyn Filter, view: &TextView, kept: &[KeptReply]) -> Vec<Vec<u32>> {
    let queries: Vec<String> = kept
        .iter()
        .map(|k| view.e2[k.row as usize].clone())
        .collect();
    let sub = TextView::new(view.e1.clone(), queries);
    let out = filter.run(&sub);
    let mut rows = vec![Vec::new(); kept.len()];
    for pair in out.candidates.iter() {
        rows[pair.right as usize].push(pair.left);
    }
    for row in &mut rows {
        row.sort_unstable();
    }
    rows
}

fn stats_of(addr: &str) -> Result<Value, String> {
    let mut conn = loadgen::connect(addr).map_err(|e| format!("connect: {e}"))?;
    loadgen::roundtrip(&mut conn, r#"{"op":"stats"}"#, Duration::from_secs(10))
}

/// The fixed verification lookups of `serve_mixed`, in sequence order.
fn fixed_lookups(
    addr: &str,
    seed: u64,
    rows: usize,
    epoch: Instant,
) -> Result<Vec<KeptReply>, String> {
    let plan = PhasePlan {
        pacing: Box::new(|_| Pacing::Closed { in_flight: 8 }),
        duration: Duration::from_secs(60),
        max_ops: FIXED_LOOKUPS / CONNECTIONS as u64,
        keep: u64::MAX,
        trace: false,
        source: Box::new(move |c| uniform_lookups(seed, 900 + c as u64, rows)),
    };
    let report = run_plan(addr, plan, epoch)?;
    if report.failed() > 0 || report.kept.len() as u64 != FIXED_LOOKUPS {
        return Err(format!(
            "fixed lookups: {} kept, {} failed ({:?})",
            report.kept.len(),
            report.failed(),
            report.error_kinds
        ));
    }
    let mut kept = report.kept;
    kept.sort_by_key(|k| (k.row, k.seq));
    Ok(kept)
}

/// Numbers `finish_trace` prints beside the probed layers so the
/// unexplained part of a reply's latency is a number: (label, µs).
pub type Reconcile = Vec<(String, f64)>;

/// A daemon that answered its first health probe, and what it serves.
struct Running {
    view: TextView,
    args: Vec<String>,
    daemon: Daemon,
    /// Spawn to banner.
    boot: Duration,
    /// Store hits and misses the start-up lines report.
    store_hits: u64,
    store_misses: u64,
}

/// Set-up, workload start to first health reply, done [`SETUP_REPEATS`]
/// times from nothing (fresh store directory, fresh daemon); reports the
/// best as `setup_s`. The last repeat's daemon is the one the load
/// then runs on.
fn set_up(
    cfg: &Config,
    spec: &Spec,
    scratch: &Path,
    filter: &dyn Filter,
    method_flags: &[String],
    outcome: &mut Outcome,
) -> Result<Running, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut last: Option<(TextView, Vec<String>, Daemon, Duration)> = None;
    for i in 0..SETUP_REPEATS {
        if let Some((_, _, daemon, _)) = last.take() {
            daemon.terminate()?;
            let _ = std::fs::remove_dir_all(scratch.join(format!("store{}", i - 1)));
        }
        let store_dir = scratch.join(format!("store{i}"));
        let start = Instant::now();
        let ds = generate(profile(PROFILE).ok_or("no profile D10")?, SCALE, cfg.seed);
        let view = text_view(&ds, &SchemaMode::Agnostic);
        drop(ds);
        {
            let store = er_bench::open_store(&store_dir).map_err(|e| format!("open store: {e}"))?;
            let cache = ArtifactCache::new();
            cache.set_store(Some(Arc::new(store)));
            let prepared = filter.prepare(&view);
            let key = ArtifactKey::new(view.fingerprint(), filter.repr_key());
            cache.insert(key, prepared);
            cache.flush_store();
            if cache.stats().spills == 0 {
                return Err("the prepared artifact was not written to the store".to_owned());
            }
        }
        let args = daemon_args(spec, cfg.seed, &store_dir, method_flags);
        let boot_start = Instant::now();
        let daemon = Daemon::spawn(&cfg.er_bin, &args)?;
        let boot = boot_start.elapsed();
        daemon.health()?;
        setups.push(start.elapsed().as_secs_f64());
        last = Some((view, args, daemon, boot));
    }
    let (view, args, daemon, boot) = last.expect("at least one set-up");
    outcome.set("setup_s", min(&setups));
    outcome.note(format!("set-up repeats: {setups:.3?} s"));

    // Start-up must have loaded, not prepared: store hits, no misses.
    // The stderr collector may trail the health reply by a moment.
    let processes = if spec.supervise { 2 } else { 1 };
    let deadline = Instant::now() + Duration::from_secs(2);
    let (hits, misses, lines) = loop {
        let counts = store_line_counts(&daemon.stderr_text());
        if counts.2 >= processes || Instant::now() >= deadline {
            break counts;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    outcome.check(lines >= 1 && hits >= 1 && misses == 0, || {
        format!("daemon startup shows store {hits} hits / {misses} misses over {lines} line(s)")
    });
    Ok(Running {
        view,
        args,
        daemon,
        boot,
        store_hits: hits,
        store_misses: misses,
    })
}

/// The output check that doubles as warm-up: the first replies must
/// equal the offline `Filter::run` rows.
fn verify_replies(
    cfg: &Config,
    spec: &Spec,
    run: &Running,
    filter: &dyn Filter,
    epoch: Instant,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let q_rows = run.view.e2.len();
    let in_flight = spec.in_flight;
    let verify = run_plan(
        &run.daemon.addr,
        PhasePlan {
            pacing: Box::new(move |_| Pacing::Closed { in_flight }),
            duration: Duration::from_secs(60),
            max_ops: spec.verified / CONNECTIONS as u64,
            keep: u64::MAX,
            trace: false,
            source: Box::new(|c| uniform_lookups(cfg.seed, 500 + c as u64, q_rows)),
        },
        epoch,
    )?;
    outcome.attempted += verify.sent;
    outcome.failed += verify.failed();
    let expected = offline_rows(filter, &run.view, &verify.kept);
    let wrong = verify
        .kept
        .iter()
        .zip(&expected)
        .filter(|(got, want)| &got.candidates != *want)
        .count();
    let missing = (spec.verified as usize).saturating_sub(verify.kept.len());
    outcome.check(wrong + missing == 0, || {
        format!(
            "{} of {} verified replies differ from the offline Filter::run rows",
            wrong + missing,
            spec.verified
        )
    });
    Ok(())
}

/// What the timed load produced: the untraced parts merged, the traced
/// parts merged (traced runs only), and each untraced part's own
/// numbers.
struct Timed {
    plain: Report,
    traced: Option<Report>,
    parts: Vec<Part>,
}

/// One untraced part's headline numbers (latencies in microseconds).
struct Part {
    rate: f64,
    p50: f64,
    tail: Option<f64>,
}

/// The latency samples the workload gates: lookups, and for the mixed
/// load the upsert and delete acks with them — an update that got slower
/// than a lookup is then the upper fifth of the samples, and moves the
/// tail. Compactions are background folds, not operations of the mix.
fn gated_samples(load: Load, report: &Report) -> Samples {
    let mut all = report.latency[OpKind::Lookup as usize].clone();
    if load == Load::Mixed {
        all.extend(&report.latency[OpKind::Upsert as usize]);
        all.extend(&report.latency[OpKind::Delete as usize]);
    }
    all
}

/// Runs the timed load: `--seconds` cut into equal parts, each on fresh
/// connections, so that the medians of the parts' numbers can be
/// reported — one scheduling stall then moves one part, not the run. A
/// traced run records spans in every second part (and so has at least
/// two), which makes the parts' headline numbers the cost of recording.
fn timed_parts(cfg: &Config, spec: &Spec, run: &Running, epoch: Instant) -> Result<Timed, String> {
    let n = if cfg.trace {
        spec.sub_phases.max(2)
    } else {
        spec.sub_phases
    };
    let seconds = cfg.seconds / n as f64;
    let mut timed = Timed {
        plain: Report::default(),
        traced: None,
        parts: Vec::new(),
    };
    for i in 0..n {
        let record = cfg.trace && i % 2 == 1;
        let base = 1000 * (i as u64 + 1);
        let report = timed_load(cfg, spec, run, seconds, record, base, epoch)?;
        if record {
            timed
                .traced
                .get_or_insert_with(Report::default)
                .merge(report);
            continue;
        }
        let replies: usize = report.latency.iter().map(Samples::len).sum();
        let mut gated = gated_samples(spec.load, &report);
        timed.parts.push(Part {
            rate: replies as f64 / report.busy.as_secs_f64().max(1e-9),
            p50: gated.quantile(0.5).ok_or("no operation was answered")? as f64,
            tail: gated.tail(TAIL_Q, TAIL_MIN).ok().map(|t| t as f64),
        });
        timed.plain.merge(report);
    }
    Ok(timed)
}

/// Sets the two latency metrics from the untraced parts — the median of
/// their medians; the tail percentile per part where every part has the
/// samples for it, else over all parts pooled — notes the reply rate, and
/// checks that every operation was answered exactly once. Returns the
/// reported p50 in microseconds.
fn headline(
    cfg: &Config,
    spec: &Spec,
    timed: &mut Timed,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    let plain = &mut timed.plain;
    outcome.attempted += plain.sent + timed.traced.as_ref().map_or(0, |t| t.sent);
    outcome.failed += plain.failed() + timed.traced.as_ref().map_or(0, Report::failed);

    let mut gated = gated_samples(spec.load, plain);
    let samples = gated.len();
    // A traced run's shorter parts may fall under the sample floor; its
    // end-to-end numbers are printed but never gate.
    let floor = if cfg.trace { 1 } else { TAIL_MIN };
    let pooled_tail = gated
        .tail(TAIL_Q, floor)
        .map_err(|e| format!("{}: {e}", cfg.workload))? as f64;
    let of = |f: &dyn Fn(&Part) -> f64| median(&timed.parts.iter().map(f).collect::<Vec<_>>());
    let p50 = of(&|p| p.p50);
    let tails: Vec<f64> = timed.parts.iter().filter_map(|p| p.tail).collect();
    let tail = if tails.len() == timed.parts.len() {
        median(&tails)
    } else {
        pooled_tail
    };
    outcome.set("op_ms", p50 / 1e3);
    outcome.set("tail_ms", tail / 1e3);
    outcome.note(format!(
        "{samples} {} samples over {} untraced part(s): p50 {p50} us, p{} {tail} us (pooled \
         p{2} {pooled_tail} us); replies {:?} /s; {} sent, {} failed {:?}",
        if spec.load == Load::Mixed {
            "lookup + update"
        } else {
            "lookup"
        },
        timed.parts.len(),
        (TAIL_Q * 100.0).round(),
        timed
            .parts
            .iter()
            .map(|p| p.rate.round())
            .collect::<Vec<_>>(),
        plain.sent,
        plain.failed(),
        plain.error_kinds,
    ));
    let p99 = gated.quantile(0.99).unwrap_or(0);
    outcome.note(format!("p99 {p99} us over {samples} samples"));
    if spec.load == Load::Open {
        let late = plain.send_late.quantile(0.99).unwrap_or(0);
        outcome.note(format!(
            "open loop at {OPEN_RATE} req/s: p99 {p99} us, limit p99 <= {LIMIT_US} us {}; sender \
             lateness p99 {late} us{}",
            if p99 <= LIMIT_US && plain.failed() == 0 {
                "met"
            } else {
                "MISSED"
            },
            if late > 1_000 {
                " (FLAGGED: > 1 ms)"
            } else {
                ""
            },
        ));
    }

    for (label, r) in [
        ("untraced", Some(&*plain)),
        ("traced", timed.traced.as_ref()),
    ] {
        let Some(r) = r else { continue };
        outcome.check(r.failed() == 0 && r.answered() == r.sent, || {
            format!(
                "{label} parts: {} sent, {} answered, {} errors {:?}, {} unanswered, {} stray",
                r.sent,
                r.answered(),
                r.errors,
                r.error_kinds,
                r.unanswered,
                r.unmatched
            )
        });
    }
    Ok(p50)
}

/// The per-layer numbers the driver itself can see, from the traced
/// parts and the daemon's `stats`; returns the reconciliation inputs.
fn driver_layer_metrics(
    spec: &Spec,
    run: &Running,
    timed: &mut Timed,
    stats: &Value,
    p50: f64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Reconcile {
    let Some(t) = timed.traced.as_mut() else {
        return Vec::new();
    };
    let phase = tracer.record_ns(
        "load (traced parts)",
        "loadgen",
        None,
        None,
        t.spans.iter().map(|s| s.start_ns).min().unwrap_or(0),
        t.spans.iter().map(|s| s.end_ns).max().unwrap_or(0),
        vec![("requests".to_owned(), t.sent as f64)],
    );
    let layer = if spec.supervise { "super" } else { "serve" };
    tracer.add_requests(Some(phase), layer, &t.spans);

    let t_p50 = gated_samples(spec.load, t).quantile(0.5).unwrap_or(0) as f64;
    outcome.set("trace.overhead_pct", (t_p50 - p50) / p50 * 100.0);
    outcome.set(
        "loadgen.error_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    outcome.set(
        "serve.reply_bytes",
        t.reply_bytes as f64 / t.answered().max(1) as f64,
    );
    outcome.set("core.cache_store_hits", run.store_hits as f64);
    outcome.set("core.cache_misses", run.store_misses as f64);
    let server_p50 = t.server_us.quantile(0.5).unwrap_or(0) as f64;
    let stat = |key: &str| stats.num(key).unwrap_or(f64::NAN);
    let mut reconcile = vec![("client p50".to_owned(), t_p50)];
    if spec.supervise {
        let child_p50 = stat("p50_us");
        outcome.set("super.boot_s", run.boot.as_secs_f64());
        outcome.set("super.proxy_p50_us", server_p50);
        outcome.set("super.child_p50_us", child_p50);
        outcome.set("super.fanout_gap_p50_us", server_p50 - child_p50);
        outcome.set("super.retries", stat("proxy_retries"));
        outcome.set("super.unavailable", stat("proxy_unavailable"));
        outcome.set("super.restarts", stat("child_restarts"));
        reconcile.push(("proxy reply us p50".to_owned(), server_p50));
        reconcile.push(("child histogram p50".to_owned(), child_p50));
    } else {
        outcome.set("serve.boot_s", run.boot.as_secs_f64());
        outcome.set("serve.server_p50_us", stat("p50_us"));
        outcome.set("serve.server_p99_us", stat("p99_us"));
        outcome.set("serve.wire_gap_p50_us", t_p50 - server_p50);
        outcome.set("serve.shed", stat("shed"));
        outcome.set("serve.timeouts", stat("timeouts"));
        // The p99 needs its thousand samples; the proxy's run has not.
        if let Ok(p99) = t.latency[OpKind::Lookup as usize].tail(0.99, MIN_P99_SAMPLES) {
            outcome.set("loadgen.p99_us", p99 as f64);
        }
        reconcile.push(("server reply us p50".to_owned(), server_p50));
    }
    if spec.load == Load::Open {
        let late = t.send_late.quantile(0.99).unwrap_or(0);
        outcome.set("loadgen.send_late_p99_us", late as f64);
    }
    if spec.load == Load::Mixed {
        let of_kind = |kind: OpKind| {
            let mut all = t.latency[kind as usize].clone();
            all.extend(&timed.plain.latency[kind as usize]);
            all
        };
        let mut updates = of_kind(OpKind::Upsert);
        updates.extend(&of_kind(OpKind::Delete));
        outcome.note(format!("{} update samples", updates.len()));
        outcome.set(
            "loadgen.update_p50_us",
            updates.quantile(0.5).unwrap_or(0) as f64,
        );
        outcome.set(
            "loadgen.update_p99_us",
            updates.quantile(0.99).unwrap_or(0) as f64,
        );
        if let Some(c) = of_kind(OpKind::Compact).quantile(0.5) {
            outcome.set("serve.compact_s", c as f64 / 1e6);
        }
    }
    reconcile
}

/// Teardown: measure the tree, drain, and for `serve_mixed` reboot from
/// the persisted manifest and compare the fixed lookups.
fn tear_down(
    cfg: &Config,
    spec: &Spec,
    run: Running,
    epoch: Instant,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let q_rows = run.view.e2.len();
    let before = if spec.load == Load::Mixed {
        Some(fixed_lookups(&run.daemon.addr, cfg.seed, q_rows, epoch)?)
    } else {
        None
    };
    outcome.set("peak_rss_mb", run.daemon.peak_rss_mib());
    let (status, drain, stderr) = run.daemon.terminate()?;
    outcome.check(status.success(), || {
        format!("daemon exited {status} on SIGTERM")
    });
    if cfg.trace {
        outcome.set("serve.drain_s", drain.as_secs_f64());
    }
    let Some(before) = before else {
        return Ok(());
    };
    outcome.check(stderr.contains("serve: persisted segmented index"), || {
        "drain did not persist the live updates".to_owned()
    });
    let reboot_start = Instant::now();
    let again = Daemon::spawn(&cfg.er_bin, &run.args)?;
    again.health()?;
    let reboot = reboot_start.elapsed();
    outcome.check(
        again
            .stderr_text()
            .contains("restored segmented index from manifest"),
        || "second boot did not restore from the persisted manifest".to_owned(),
    );
    let after = fixed_lookups(&again.addr, cfg.seed, q_rows, epoch)?;
    let differing = before
        .iter()
        .zip(&after)
        .filter(|(b, a)| b.row != a.row || b.candidates != a.candidates)
        .count();
    outcome.check(differing == 0, || {
        format!("{differing} of {FIXED_LOOKUPS} fixed lookups changed across drain and restore")
    });
    let (status, _, _) = again.terminate()?;
    outcome.check(status.success(), || {
        format!("restored daemon exited {status}")
    });
    if cfg.trace {
        outcome.set("serve.restore_boot_s", reboot.as_secs_f64());
    }
    Ok(())
}

fn run_in(
    cfg: &Config,
    spec: &Spec,
    scratch: &Path,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<Reconcile, String> {
    let (filter, method_flags) = method_of(spec);
    let run = set_up(cfg, spec, scratch, filter.as_ref(), &method_flags, outcome)?;
    let epoch = tracer.epoch();
    verify_replies(cfg, spec, &run, filter.as_ref(), epoch, outcome)?;

    let mut timed = timed_parts(cfg, spec, &run, epoch)?;
    let p50 = headline(cfg, spec, &mut timed, outcome)?;

    let stats = stats_of(&run.daemon.addr)?;
    if spec.load == Load::Mixed {
        let acks = |r: &Report| (r.ok(OpKind::Upsert) + r.ok(OpKind::Delete)) as f64;
        let acked = acks(&timed.plain) + timed.traced.as_ref().map_or(0.0, acks);
        let counted = stats.num("upserts").unwrap_or(-1.0) + stats.num("deletes").unwrap_or(-1.0);
        outcome.check(acked == counted, || {
            format!("{acked} update acks seen by the client, {counted} counted by the daemon")
        });
    }
    let reconcile = driver_layer_metrics(spec, &run, &mut timed, &stats, p50, tracer, outcome);
    if cfg.trace && spec.load == Load::Open {
        let lookups = &mut timed.plain.latency[OpKind::Lookup as usize];
        let base_ok =
            lookups.quantile(0.99).is_some_and(|p99| p99 <= LIMIT_US) && timed.plain.failed() == 0;
        let rate = rate_ladder(
            &run.daemon.addr,
            cfg,
            run.view.e2.len(),
            epoch,
            outcome,
            base_ok,
        )?;
        outcome.set("serve.max_rate_ok_rps", rate);
    }
    tear_down(cfg, spec, run, epoch, outcome)?;
    Ok(reconcile)
}

/// The traced `serve_open` ladder: a few seconds at each fixed rate;
/// returns the highest rate that met the latency limit with every
/// request answered and no backlog building (the last quarter of the
/// step no slower than twice the first quarter plus a millisecond).
fn rate_ladder(
    addr: &str,
    cfg: &Config,
    q_rows: usize,
    epoch: Instant,
    outcome: &mut Outcome,
    base_ok: bool,
) -> Result<f64, String> {
    // The workload's own rate was measured by the timed parts.
    let mut best = if base_ok { OPEN_RATE } else { 0.0 };
    for (i, (rate, seconds)) in [(250.0, 4.0), (1000.0, 2.0), (2000.0, 2.0), (4000.0, 2.0)]
        .into_iter()
        .enumerate()
    {
        let mut report = run_plan(
            addr,
            PhasePlan {
                pacing: Box::new(open_pacing(rate)),
                duration: Duration::from_secs_f64(seconds),
                max_ops: u64::MAX,
                keep: 0,
                trace: true,
                source: Box::new(move |c| {
                    uniform_lookups(cfg.seed, 2000 + 10 * i as u64 + c as u64, q_rows)
                }),
            },
            epoch,
        )?;
        outcome.attempted += report.sent;
        outcome.failed += report.failed();
        let mut spans = std::mem::take(&mut report.spans);
        spans.sort_by_key(|s| s.start_ns);
        let quarter = (spans.len() / 4).max(1);
        let med = |part: &[crate::trace::RequestSpan]| {
            let mut s = Samples::default();
            for r in part {
                s.push((r.end_ns - r.start_ns) / 1_000);
            }
            s.quantile(0.5).unwrap_or(0)
        };
        let (head, rear) = (med(&spans[..quarter]), med(&spans[spans.len() - quarter..]));
        let failed = report.failed();
        let lat = &mut report.latency[OpKind::Lookup as usize];
        let within = spans
            .iter()
            .filter(|s| s.ok && (s.end_ns - s.start_ns) / 1_000 <= LIMIT_US)
            .count();
        let share = within as f64 / report.sent.max(1) as f64;
        let steady = rear <= 2 * head + 1_000;
        let ok = share >= 0.99 && failed == 0 && steady;
        outcome.note(format!(
            "ladder {rate} req/s: p50 {} us, p99 {} us, {:.2}% within limit, {failed} failed, \
             first/last quarter p50 {head}/{rear} us, sender late p99 {} us -> {}",
            lat.quantile(0.5).unwrap_or(0),
            lat.quantile(0.99).unwrap_or(0),
            share * 100.0,
            report.send_late.quantile(0.99).unwrap_or(0),
            if ok { "ok" } else { "MISSED" },
        ));
        if ok {
            best = best.max(rate);
        }
        if !ok && rate > OPEN_RATE {
            break;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> TextView {
        TextView::new(
            (0..50)
                .map(|i| format!("indexed row {i}"))
                .collect::<Vec<_>>(),
            (0..40)
                .map(|i| format!("query row {i}"))
                .collect::<Vec<_>>(),
        )
    }

    fn first_ops(seed: u64, conn: u64, n: u64) -> Vec<(OpKind, u32, String)> {
        let v = view();
        let mut src = mixed_ops(seed, conn, &v);
        (0..n)
            .map(|seq| {
                let op = src(seq);
                (op.kind, op.row, op.members)
            })
            .collect()
    }

    #[test]
    fn the_op_sequence_is_a_function_of_the_seed() {
        assert_eq!(first_ops(11, 0, 600), first_ops(11, 0, 600));
        assert_ne!(first_ops(11, 0, 600), first_ops(12, 0, 600));
        assert_ne!(first_ops(11, 0, 600), first_ops(11, 1, 600));
    }

    #[test]
    fn the_mix_is_80_10_10_with_compactions_on_connection_zero_only() {
        let ops = first_ops(11, 0, 5000);
        let count = |k: OpKind| ops.iter().filter(|o| o.0 == k).count();
        assert_eq!(count(OpKind::Compact), 10);
        let share = |k: OpKind| count(k) as f64 / 4990.0;
        assert!(
            (share(OpKind::Lookup) - 0.8).abs() < 0.03,
            "{}",
            share(OpKind::Lookup)
        );
        assert!(
            (share(OpKind::Upsert) - 0.1).abs() < 0.02,
            "{}",
            share(OpKind::Upsert)
        );
        assert!(
            (share(OpKind::Delete) - 0.1).abs() < 0.02,
            "{}",
            share(OpKind::Delete)
        );
        assert!(first_ops(11, 1, 5000)
            .iter()
            .all(|o| o.0 != OpKind::Compact));
        // Upsert members are valid JSON once wrapped, text quoted.
        let upsert = ops
            .iter()
            .find(|o| o.0 == OpKind::Upsert)
            .expect("an upsert");
        let v = crate::json::parse(&format!("{{{}}}", upsert.2)).expect("valid members");
        assert_eq!(v.str("op"), Some("upsert"));
        assert!(v.str("text").expect("text").starts_with("indexed row"));
    }

    #[test]
    fn startup_lines_are_summed_across_processes() {
        let stderr = "child0: serve: loaded x for D10 (9 rows, 1 bytes, 2 shard(s)) | store: 4 hits / 0 misses / saved 1ms\n\
                      child1: serve: loaded x for D10 (9 rows, 1 bytes, 2 shard(s)) | store: 4 hits / 0 misses / saved 1ms\n\
                      serve: 3 served / 0 failed / 0 timeouts / 0 shed / 0 bad | p50 1ms / p95 1ms / p99 1ms | store: 1 hits / 0 corrupt\n";
        assert_eq!(store_line_counts(stderr), (8, 0, 2));
    }
}
