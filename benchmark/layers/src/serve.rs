//! Probes for the serving workloads: the artifact's trip through the
//! store, `Engine::open`, and a replay of seeded rows through every step
//! a request crosses inside the daemon — parse, lookup, encode — plus
//! the client-side parse, as child spans of one request span. For
//! `serve_mixed` also the write path, and for `proxy_lookup` the shard
//! family bootstrap.

use crate::shard::store_roundtrip;
use crate::sparse::{prepare_and_rows, tokenise, REPLAY_ROWS};
use crate::{profile_data, Probe};
use e2e::serving::{epsilon_join, knn_join, serves_knn, PROFILE, SCALE};
use e2e::stats::{Rng, Samples};
use er::core::artifacts::ArtifactKey;
use er::core::filter::Filter;
use er::core::guard::{Limits, RunOutcome};
use er::core::schema::TextView;
use er::sparse::{SegmentedTokenSets, SparseSegment, TokenSetsArtifact};
use er::text::Cleaner;
use er_bench::jsonl::Json;
use er_serve::{protocol, Engine, Request, ServeMethod, UpdateOp};
use std::time::Instant;

fn ok<T>(outcome: RunOutcome<T>, what: &str) -> Result<T, String> {
    match outcome {
        RunOutcome::Ok(v) => Ok(v),
        RunOutcome::Failed { reason, .. } => Err(format!("{what}: {reason}")),
    }
}

pub fn run(p: &mut Probe, workload: &str) -> Result<(), String> {
    let (_, view) = profile_data(p, PROFILE, SCALE);
    let knn = serves_knn(workload);
    // The ε row probe runs over the served method's own artifact.
    let served_knn = knn_join();
    let eps_join = if knn {
        er::sparse::EpsilonJoin {
            model: served_knn.model,
            ..epsilon_join()
        }
    } else {
        epsilon_join()
    };
    let method = if knn {
        ServeMethod::Knn(served_knn)
    } else {
        ServeMethod::Epsilon(eps_join)
    };
    tokenise(p, &view, &[if knn { "C3G" } else { "T1G" }]);
    let prepared = prepare_and_rows(p, &view, &eps_join);

    let key = ArtifactKey::new(view.fingerprint(), method.repr_key());
    let store_dir = store_roundtrip(p, &key, &prepared, view.e1.len() + view.e2.len())?;

    if knn {
        // `ensure_family` on a store holding no shard manifests: the
        // supervisor's one-time cold split and persist.
        let (boot, secs) = p.once("ensure_family", "super", || {
            er_super::ensure_family(&store_dir, &view, &method, 4)
        });
        if !boot? {
            return Err("ensure_family found a family in a fresh store".to_owned());
        }
        p.emit("super.bootstrap_s", secs, "s");
    }

    // The engine is opened unsharded either way: the replay times one
    // process's share of a request, which is what a child runs.
    let (engine, secs) = p.once("Engine::open", "serve", || {
        Engine::open(&store_dir, &view, method, 1)
    });
    let engine = engine?;
    p.emit("serve.open_s", secs, "s");

    replay(p, &engine, view.e2.len())?;
    if workload == "serve_mixed" {
        write_path(p, &engine, &view, &prepared, &eps_join)?;
    }
    Ok(())
}

/// Replays seeded rows through parse → lookup → encode → client parse.
fn replay(p: &mut Probe, engine: &Engine, q_rows: usize) -> Result<(), String> {
    let mut rng = Rng::stream(p.seed, 8);
    let (mut parse, mut lookup, mut encode, mut client, mut reencode) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    for i in 0..REPLAY_ROWS {
        let row = rng.below(q_rows);
        let line = format!("{{\"id\":{i},\"row\":{row}}}");
        let t0 = Instant::now();
        let request = Request::parse(&line)?;
        let t1 = Instant::now();
        let Request::Query { id, row, .. } = request else {
            return Err(format!("{line} parsed to a non-query"));
        };
        let candidates = ok(engine.lookup(row, Limits::none()), "Engine::lookup")?;
        let t2 = Instant::now();
        let reply = protocol::ok_line(&id, row, &candidates, (t2 - t1).as_micros() as u64);
        let t3 = Instant::now();
        let parsed = Json::parse(&reply)?;
        let t4 = Instant::now();
        let again = parsed.encode();
        let t5 = Instant::now();
        if again != reply {
            return Err(format!(
                "Json re-encode changed the reply: {reply} -> {again}"
            ));
        }
        let req = p
            .tracer
            .record("request (replayed)", "serve", None, Some(i as u64), t0, t4);
        for (name, layer, a, b) in [
            ("Request::parse", "serve", t0, t1),
            ("Engine::lookup", "sparse", t1, t2),
            ("protocol::ok_line", "serve", t2, t3),
            ("Json::parse (client)", "bench", t3, t4),
        ] {
            p.tracer
                .record(name, layer, Some(req), Some(i as u64), a, b);
        }
        for (samples, a, b) in [
            (&mut parse, t0, t1),
            (&mut lookup, t1, t2),
            (&mut encode, t2, t3),
            (&mut client, t3, t4),
            (&mut reencode, t4, t5),
        ] {
            samples.push((b - a).as_nanos() as u64);
        }
    }
    // Nanosecond samples, reported in microseconds.
    let us = |s: &mut Samples, q: f64| s.quantile(q).unwrap_or(0) as f64 / 1e3;
    p.emit("serve.parse_us", us(&mut parse, 0.5), "us");
    p.emit("serve.lookup_us", us(&mut lookup, 0.5), "us");
    p.emit("serve.lookup_p99_us", us(&mut lookup, 0.99), "us");
    p.emit("serve.encode_us", us(&mut encode, 0.5), "us");
    p.emit("bench.json_parse_us", us(&mut client, 0.5), "us");
    p.emit("bench.json_encode_us", us(&mut reencode, 0.5), "us");
    Ok(())
}

/// The write path of `serve_mixed`: `Engine::apply`, compaction and
/// persist on the engine, and the same steps on a bare segment stack.
fn write_path(
    p: &mut Probe,
    engine: &Engine,
    view: &TextView,
    prepared: &er::core::Prepared,
    join: &er::sparse::EpsilonJoin,
) -> Result<(), String> {
    let n = view.e1.len();
    let mut rng = Rng::stream(p.seed, 9);
    let mut apply = Samples::default();
    let start = Instant::now();
    for i in 0..500 {
        let id = rng.below(n) as u32;
        let op = if i % 2 == 0 {
            UpdateOp::Upsert {
                id,
                text: view.e1[rng.below(n)].clone(),
            }
        } else {
            UpdateOp::Delete { id }
        };
        let t0 = Instant::now();
        ok(engine.apply(op), "Engine::apply")?;
        apply.push(t0.elapsed().as_nanos() as u64);
    }
    p.tracer.record(
        "Engine::apply x500",
        "serve",
        None,
        None,
        start,
        Instant::now(),
    );
    p.emit(
        "serve.apply_us",
        apply.quantile(0.5).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    let (done, secs) = p.once("Engine::compact", "serve", || engine.compact());
    ok(done, "Engine::compact")?;
    p.emit("serve.compact_s", secs, "s");
    let (report, secs) = p.once("Engine::persist_if_dirty", "serve", || {
        engine.persist_if_dirty()
    });
    if report?.is_none() {
        return Err("persist_if_dirty found nothing to persist after 500 updates".to_owned());
    }
    p.emit("serve.persist_s", secs, "s");

    // A bare stack: the artifact as segment 0 plus a delta of 10 % of
    // the indexed rows, queried through the merge cursor, then folded.
    let art = prepared
        .arc()
        .downcast::<TokenSetsArtifact>()
        .map_err(|_| "prepared artifact is not token sets".to_owned())?;
    let cleaner = Cleaner::on();
    let (query_raw, _) = p.once("token_set (query side)", "text", || {
        view.e2
            .iter()
            .map(|t| join.model.token_set(t, &cleaner))
            .collect::<Vec<_>>()
    });
    let mut stack = SegmentedTokenSets::from_artifact(join.repr_key(), art, query_raw.clone());
    let mut upsert = Samples::default();
    let start = Instant::now();
    for _ in 0..n / 10 {
        let tokens = join.model.token_set(&view.e1[rng.below(n)], &cleaner);
        let id = rng.below(n) as u32;
        let t0 = Instant::now();
        stack.upsert(id, tokens);
        upsert.push(t0.elapsed().as_nanos() as u64);
    }
    p.tracer.record(
        "SegmentedTokenSets::upsert (10%)",
        "sparse",
        None,
        None,
        start,
        Instant::now(),
    );
    p.emit(
        "sparse.upsert_us",
        upsert.quantile(0.5).unwrap_or(0) as f64 / 1e3,
        "us",
    );

    let mut lookups = Samples::default();
    let start = Instant::now();
    let mut cursor = stack.cursor();
    for _ in 0..REPLAY_ROWS {
        let j = rng.below(view.e2.len());
        let t0 = Instant::now();
        let ids = cursor.epsilon_row(join, j);
        lookups.push(t0.elapsed().as_nanos() as u64);
        std::hint::black_box(ids);
    }
    drop(cursor);
    p.tracer.record(
        "MergeCursor::epsilon_row x2000",
        "sparse",
        None,
        None,
        start,
        Instant::now(),
    );
    p.emit(
        "sparse.segmented_lookup_us",
        lookups.quantile(0.5).unwrap_or(0) as f64 / 1e3,
        "us",
    );

    let (folded, secs) = p.once("SegmentedTokenSets::compact", "sparse", || stack.compact());
    if !folded {
        return Err("compact had nothing to fold over a 10 % delta".to_owned());
    }
    p.emit("sparse.compact_s", secs, "s");

    let rows: Vec<(u32, Vec<u64>)> = view
        .e1
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u32, join.model.token_set(t, &cleaner)))
        .collect();
    let (_, secs) = p.once("SparseSegment::build", "sparse", || {
        SparseSegment::build(1, rows, &query_raw)
    });
    p.emit("sparse.segment_build_s", secs, "s");
    Ok(())
}
