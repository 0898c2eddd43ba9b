//! Integration tests of the online candidate-lookup daemon (`er serve`).
//!
//! The headline guarantees, in order:
//!
//! 1. **Zero prepare work at startup.** The engine loads its artifact from
//!    a store populated by `er sweep --store-dir`; the startup cache
//!    counters must show exactly one store hit and zero misses.
//! 2. **Byte-identical answers.** Every row served — in process, over TCP,
//!    under concurrency — must equal the offline [`Filter::query`] result
//!    for that row.
//! 3. **Overload safety.** A full admission queue sheds with structured
//!    retry-after responses; injected panics become structured failures;
//!    deadlines become timeout rows; the daemon never hangs or dies.
//! 4. **Read-only serving.** The store directory is byte-for-byte
//!    unchanged after a full serving session.
//!
//! Fault plans are process-global, so every test serializes on one lock.

use er::core::faults::{self, FaultPlan};
use er::core::filter::Filter;
use er::core::guard::{Limits, RunOutcome};
use er::core::schema::{text_view, SchemaMode, TextView};
use er::prelude::{EpsilonJoin, KnnJoin, RepresentationModel, SimilarityMeasure};
use er_bench::jsonl::Json;
use er_bench::{run_sweep, Settings};
use er_serve::{Engine, ServeConfig, ServeMethod, Server, ServerStats};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serializes the tests: the daemon's fault sites read the process-global
/// fault plan, so two servers must never run concurrently.
static SERIAL: Mutex<()> = Mutex::new(());

struct Fixture {
    store: PathBuf,
    view: TextView,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

/// Builds the store once with a real `er sweep --store-dir` run (quick
/// grid over D5, the `integration_store` fixture), then regenerates the
/// dataset exactly as `er serve` does to pin the fingerprint.
fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let base = std::env::temp_dir().join(format!("er-serve-it-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).expect("create scratch dir");
        let store = base.join("store");
        let dir = store.to_str().expect("utf-8 store dir").to_owned();
        let args = [
            "--datasets",
            "D5",
            "--scale",
            "0.06",
            "--grid",
            "quick",
            "--reps",
            "1",
            "--dim",
            "32",
            "--seed",
            "11",
            "--store-dir",
            &dir,
        ];
        let settings = Settings::try_parse(args.iter().map(|s| s.to_string())).expect("settings");
        run_sweep(&settings, 1, false).expect("store-building sweep");
        let profile = er::datagen::profiles::profile("D5").expect("profile D5");
        let ds = er::datagen::generate(profile, 0.06, 11);
        let view = text_view(&ds, &SchemaMode::Agnostic);
        Fixture { store, view }
    })
}

/// An epsilon configuration whose artifact the quick grid stored.
fn epsilon() -> EpsilonJoin {
    EpsilonJoin {
        cleaning: true,
        model: RepresentationModel::parse("T1G").expect("T1G"),
        measure: SimilarityMeasure::Cosine,
        threshold: 0.4,
    }
}

/// A kNN configuration whose artifact the quick grid stored.
fn knn() -> KnnJoin {
    KnnJoin {
        cleaning: true,
        model: RepresentationModel::parse("C3G").expect("C3G"),
        measure: SimilarityMeasure::Cosine,
        k: 2,
        reversed: false,
    }
}

/// The offline reference: one full [`Filter::run`], regrouped per query
/// row with candidate ids ascending — the serve response order.
fn offline_rows(filter: &impl Filter, view: &TextView) -> Vec<Vec<u32>> {
    let out = filter.run(view);
    let mut rows = vec![Vec::new(); view.e2.len()];
    for pair in out.candidates.iter() {
        rows[pair.right as usize].push(pair.left);
    }
    for row in &mut rows {
        row.sort_unstable();
    }
    rows
}

fn dir_listing(dir: &Path) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                e.metadata().expect("metadata").len(),
            )
        })
        .collect();
    v.sort();
    v
}

struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ServerStats>,
}

impl RunningServer {
    fn start(cfg: ServeConfig, engine: Engine) -> RunningServer {
        let server = Server::start(cfg, engine).expect("bind");
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || server.serve_until(|| flag.load(Ordering::SeqCst)));
        RunningServer { addr, stop, handle }
    }

    /// Requests the drain and returns the final stats.
    fn stop(self) -> ServerStats {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("server thread")
    }
}

/// Pipelines `lines`, then reads exactly `expect` response lines.
fn roundtrip(addr: SocketAddr, lines: &[String], expect: usize) -> Vec<Json> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    for line in lines {
        conn.write_all(line.as_bytes()).expect("send");
        conn.write_all(b"\n").expect("send newline");
    }
    conn.flush().expect("flush");
    let mut reader = BufReader::new(conn);
    let mut out = Vec::with_capacity(expect);
    for _ in 0..expect {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("response line");
        assert!(n > 0, "connection closed after {} responses", out.len());
        out.push(Json::parse(line.trim_end()).expect("response json"));
    }
    out
}

fn str_field<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Json::as_str)
}

#[test]
fn startup_hits_the_store_and_lookups_match_offline_query() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();

    let eps = epsilon();
    let expected = offline_rows(&eps, &fx.view);
    let engine = Engine::open(&fx.store, &fx.view, ServeMethod::Epsilon(eps), 1).expect("open");
    let startup = engine.startup_stats();
    assert_eq!(startup.store_hits, 1, "exactly one store load");
    assert_eq!(startup.misses, 0, "zero prepare work at startup");
    assert!(startup.prepare_saved > Duration::ZERO, "savings recorded");
    assert_eq!(engine.rows(), fx.view.e2.len());

    // The whole query side through the batch path, vs the offline report.
    let jobs: Vec<(usize, Limits)> = (0..engine.rows()).map(|r| (r, Limits::none())).collect();
    for (row, outcome) in engine.lookup_batch(&jobs).into_iter().enumerate() {
        match outcome {
            RunOutcome::Ok(ids) => assert_eq!(ids, expected[row], "epsilon row {row}"),
            RunOutcome::Failed { reason, .. } => panic!("row {row} failed: {reason}"),
        }
    }

    let knn = knn();
    let expected = offline_rows(&knn, &fx.view);
    let engine = Engine::open(&fx.store, &fx.view, ServeMethod::Knn(knn), 1).expect("open knn");
    assert_eq!(engine.startup_stats().store_hits, 1);
    assert_eq!(engine.startup_stats().misses, 0);
    for (row, want) in expected.iter().enumerate() {
        match engine.lookup(row, Limits::none()) {
            RunOutcome::Ok(ids) => assert_eq!(&ids, want, "knn row {row}"),
            RunOutcome::Failed { reason, .. } => panic!("knn row {row} failed: {reason}"),
        }
    }
}

#[test]
fn concurrent_tcp_lookups_are_byte_identical_and_leave_the_store_untouched() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    let before = dir_listing(&fx.store);

    let eps = epsilon();
    let expected = Arc::new(offline_rows(&eps, &fx.view));
    let engine = Engine::open(&fx.store, &fx.view, ServeMethod::Epsilon(eps), 1).expect("open");
    let rows = engine.rows();
    let server = RunningServer::start(
        ServeConfig {
            workers: 2,
            batch: 8,
            ..ServeConfig::default()
        },
        engine,
    );

    // Three concurrent clients, striding the query side between them;
    // responses correlate by id, so interleaving across workers is fine.
    const CLIENTS: usize = 3;
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let addr = server.addr;
        let expected = Arc::clone(&expected);
        handles.push(std::thread::spawn(move || {
            let rows: Vec<usize> = (c..rows).step_by(CLIENTS).collect();
            let lines: Vec<String> = rows
                .iter()
                .map(|r| format!(r#"{{"id":{r},"row":{r}}}"#))
                .collect();
            let responses = roundtrip(addr, &lines, lines.len());
            for v in responses {
                let row = v.get("row").and_then(Json::as_f64).expect("row") as usize;
                let got: Vec<u32> = v
                    .get("candidates")
                    .and_then(Json::as_arr)
                    .expect("candidates")
                    .iter()
                    .map(|c| c.as_f64().expect("id") as u32)
                    .collect();
                assert_eq!(got, expected[row], "row {row} over TCP");
                assert_eq!(
                    v.get("n").and_then(Json::as_f64),
                    Some(got.len() as f64),
                    "candidate count field"
                );
            }
            rows.len()
        }));
    }
    let total: usize = handles.into_iter().map(|h| h.join().expect("client")).sum();
    assert_eq!(total, rows, "every row served exactly once");

    // Control-plane probes and a garbage line on one extra connection.
    let lines = vec![
        "not json at all".to_owned(),
        r#"{"op":"health"}"#.to_owned(),
        r#"{"op":"stats"}"#.to_owned(),
    ];
    let probes = roundtrip(server.addr, &lines, 3);
    assert_eq!(str_field(&probes[0], "error"), Some("bad-request"));
    assert_eq!(probes[1].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(str_field(&probes[1], "status"), Some("serving"));
    let stats = &probes[2];
    assert_eq!(stats.get("store_hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("cache_misses").and_then(Json::as_f64), Some(0.0));
    assert!(stats.get("p50_us").and_then(Json::as_f64).is_some());
    assert!(stats.get("histogram_us").and_then(Json::as_arr).is_some());
    // Every row was served exactly once, so the kept-rows ratio is the
    // mean answer length, and nothing is kept that was not touched.
    let kept: usize = expected.iter().map(Vec::len).sum();
    let survivors = stats.get("survivors_per_query").and_then(Json::as_f64);
    assert_eq!(survivors, Some(kept as f64 / rows as f64));
    let total = stats.get("lookup_survivors").and_then(Json::as_f64);
    assert_eq!(total, Some(kept as f64), "the total behind the ratio");
    let touched = stats.get("touched_per_query").and_then(Json::as_f64);
    assert!(
        touched >= survivors,
        "{touched:?} touched, {survivors:?} kept"
    );

    let final_stats = server.stop();
    assert_eq!(final_stats.lookup_work.survivors as usize, kept);
    assert_eq!(final_stats.served as usize, rows);
    assert_eq!(final_stats.failed, 0);
    assert_eq!(final_stats.shed, 0);
    assert_eq!(final_stats.bad_requests, 1);
    assert_eq!(final_stats.connections, CLIENTS as u64 + 1);
    assert_eq!(final_stats.histogram.len(), final_stats.served);

    assert_eq!(
        dir_listing(&fx.store),
        before,
        "serving must never write to the store"
    );
}

#[test]
fn overload_sheds_with_structured_retry_after_responses() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    let plan = FaultPlan::parse("stall@serve/query*:ms=100").expect("plan");
    faults::with_plan(plan, || {
        let engine =
            Engine::open(&fx.store, &fx.view, ServeMethod::Epsilon(epsilon()), 1).expect("open");
        let server = RunningServer::start(
            ServeConfig {
                queue_bound: 1,
                batch: 1,
                workers: 1,
                default_deadline: Duration::from_secs(5),
                retry_after_ms: 7,
                ..ServeConfig::default()
            },
            engine,
        );

        const N: usize = 10;
        let lines: Vec<String> = (0..N).map(|i| format!(r#"{{"id":{i},"row":0}}"#)).collect();
        let responses = roundtrip(server.addr, &lines, N);
        let shed: Vec<&Json> = responses
            .iter()
            .filter(|v| str_field(v, "error") == Some("shed"))
            .collect();
        let served = responses
            .iter()
            .filter(|v| v.get("candidates").is_some())
            .count();
        assert!(!shed.is_empty(), "a 1-deep queue under stall must shed");
        assert!(served >= 1, "the queue keeps serving while shedding");
        assert_eq!(served + shed.len(), N, "every request answered once");
        for v in &shed {
            assert_eq!(
                v.get("retry_after_ms").and_then(Json::as_f64),
                Some(7.0),
                "shed responses carry the configured retry-after"
            );
        }

        let stats = server.stop();
        assert_eq!(stats.shed as usize, shed.len());
        assert_eq!(stats.served as usize, served);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.histogram.len(), stats.served);
    });
}

#[test]
fn injected_query_panics_become_structured_failures_and_the_daemon_survives() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    let plan = FaultPlan::parse("panic@serve/query*:p=0.2,seed=7").expect("plan");
    faults::with_plan(plan, || {
        let engine =
            Engine::open(&fx.store, &fx.view, ServeMethod::Epsilon(epsilon()), 1).expect("open");
        let server = RunningServer::start(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            engine,
        );

        const N: usize = 25;
        let lines: Vec<String> = (0..N)
            .map(|i| format!(r#"{{"id":{i},"row":{i}}}"#))
            .collect();
        let responses = roundtrip(server.addr, &lines, N);
        let failed = responses
            .iter()
            .filter(|v| str_field(v, "error") == Some("failed"))
            .inspect(|v| {
                let detail = str_field(v, "detail").expect("detail");
                assert!(detail.contains("injected fault"), "detail: {detail}");
            })
            .count();
        let served = responses
            .iter()
            .filter(|v| v.get("candidates").is_some())
            .count();
        assert!(failed >= 1, "p=0.2 over {N} lookups must inject");
        assert!(served >= 1, "most lookups still succeed");
        assert_eq!(failed + served, N);

        // The daemon is still alive and says so.
        let probe = roundtrip(server.addr, &[r#"{"op":"health"}"#.to_owned()], 1);
        assert_eq!(probe[0].get("ok").and_then(Json::as_bool), Some(true));

        let stats = server.stop();
        assert_eq!(stats.failed as usize, failed);
        assert_eq!(stats.served as usize, served);
    });
}

#[test]
fn stalled_lookups_hit_their_deadline_instead_of_hanging() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    let plan = FaultPlan::parse("stall@serve/query*:ms=30000").expect("plan");
    faults::with_plan(plan, || {
        let engine =
            Engine::open(&fx.store, &fx.view, ServeMethod::Epsilon(epsilon()), 1).expect("open");
        let server = RunningServer::start(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            engine,
        );

        const N: usize = 5;
        let lines: Vec<String> = (0..N)
            .map(|i| format!(r#"{{"id":{i},"row":{i},"deadline_ms":10}}"#))
            .collect();
        // A hung connection would trip the client's 30s read timeout.
        let responses = roundtrip(server.addr, &lines, N);
        for v in &responses {
            assert_eq!(str_field(v, "error"), Some("timeout"), "{v:?}");
            let detail = str_field(v, "detail").expect("detail");
            assert!(detail.contains("timed out"), "detail: {detail}");
        }

        let stats = server.stop();
        assert_eq!(stats.timeouts as usize, N);
        assert_eq!(stats.served, 0);
    });
}

#[test]
fn drain_answers_every_accepted_line_before_shutdown() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    let plan = FaultPlan::parse("stall@serve/query*:ms=50").expect("plan");
    faults::with_plan(plan, || {
        let engine =
            Engine::open(&fx.store, &fx.view, ServeMethod::Epsilon(epsilon()), 1).expect("open");
        let server = RunningServer::start(
            ServeConfig {
                workers: 1,
                batch: 2,
                drain_grace: Duration::from_secs(5),
                ..ServeConfig::default()
            },
            engine,
        );

        const N: usize = 8;
        let mut conn = TcpStream::connect(server.addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        for i in 0..N {
            writeln!(conn, r#"{{"id":{i},"row":{i}}}"#).expect("send");
        }
        conn.flush().expect("flush");
        // The client is done sending; the drain must still answer all N.
        conn.shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        std::thread::sleep(Duration::from_millis(60));

        let stats = server.stop();
        // Read to EOF: exactly one response per line, then a clean close.
        let reader = BufReader::new(conn);
        let mut served = 0usize;
        let mut refused = 0usize;
        for line in reader.lines() {
            let line = line.expect("line");
            let v = Json::parse(&line).expect("json");
            if v.get("candidates").is_some() {
                served += 1;
            } else {
                assert_eq!(str_field(&v, "error"), Some("draining"), "{v:?}");
                refused += 1;
            }
        }
        assert_eq!(served + refused, N, "every accepted line answered");
        assert!(served >= 1, "work admitted before the drain completes");
        assert_eq!(stats.served as usize, served);
        assert_eq!(stats.drained_refusals as usize, refused);
    });
}

/// One request line in a single `write`, then its reply line: what a
/// client that frames its own requests properly does.
fn exchange(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &str) -> String {
    conn.write_all(format!("{request}\n").as_bytes())
        .expect("send");
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("response line");
    assert!(n > 0, "connection closed before the reply to {request}");
    line.trim_end().to_owned()
}

#[test]
fn serial_round_trips_do_not_wait_out_a_delayed_ack() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    let engine =
        Engine::open(&fx.store, &fx.view, ServeMethod::Epsilon(epsilon()), 1).expect("open");
    let rows = engine.rows();
    let server = RunningServer::start(ServeConfig::default(), engine);

    // Default socket options: Nagle on, no TCP_NODELAY. A reply written
    // as two segments would hold its newline back until this client's
    // delayed-ACK timer (~40 ms) fires, on every single round-trip.
    let mut conn = TcpStream::connect(server.addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut took: Vec<Duration> = (0..100)
        .map(|i| {
            let sent = Instant::now();
            let reply = exchange(
                &mut conn,
                &mut reader,
                &format!(r#"{{"id":{i},"row":{}}}"#, i % rows),
            );
            let took = sent.elapsed();
            let v = Json::parse(&reply).expect("response json");
            assert_eq!(v.get("id").and_then(Json::as_f64), Some(i as f64));
            assert!(v.get("candidates").is_some(), "{reply}");
            took
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median round-trip {median:?} (max {:?}): replies are waiting on a timer",
        took[took.len() - 1]
    );
    server.stop();
}

#[test]
fn a_batch_spanning_two_connections_answers_each_in_admission_order() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    // Row 0 stalls its (one-job) batch, so everything sent meanwhile is
    // queued together and forms the next batch across both connections.
    let plan = FaultPlan::parse("stall@serve/query/0:ms=200").expect("plan");
    faults::with_plan(plan, || {
        let engine =
            Engine::open(&fx.store, &fx.view, ServeMethod::Epsilon(epsilon()), 1).expect("open");
        let server = RunningServer::start(
            ServeConfig {
                workers: 1,
                batch: 64,
                default_deadline: Duration::from_secs(10),
                ..ServeConfig::default()
            },
            engine,
        );
        let connect = || {
            let conn = TcpStream::connect(server.addr).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            conn
        };
        let (mut a, mut b) = (connect(), connect());
        a.write_all(b"{\"id\":\"stall\",\"row\":0}\n")
            .expect("send");
        std::thread::sleep(Duration::from_millis(50));
        const PER_CONN: usize = 12;
        for i in 0..PER_CONN {
            // Interleaved, one write each; rows 1.. do not stall.
            a.write_all(format!("{{\"id\":\"a{i}\",\"row\":{}}}\n", 1 + i).as_bytes())
                .expect("send a");
            b.write_all(format!("{{\"id\":\"b{i}\",\"row\":{}}}\n", 1 + i).as_bytes())
                .expect("send b");
        }
        let ids = |conn: TcpStream, n: usize| -> Vec<String> {
            let mut reader = BufReader::new(conn);
            (0..n)
                .map(|_| {
                    let mut line = String::new();
                    assert!(reader.read_line(&mut line).expect("response line") > 0);
                    let v = Json::parse(line.trim_end()).expect("response json");
                    assert!(v.get("candidates").is_some(), "{line}");
                    str_field(&v, "id").expect("string id").to_owned()
                })
                .collect()
        };
        let mut want_a = vec!["stall".to_owned()];
        want_a.extend((0..PER_CONN).map(|i| format!("a{i}")));
        let want_b: Vec<String> = (0..PER_CONN).map(|i| format!("b{i}")).collect();
        assert_eq!(
            ids(a, 1 + PER_CONN),
            want_a,
            "connection a: once each, in order"
        );
        assert_eq!(
            ids(b, PER_CONN),
            want_b,
            "connection b: once each, in order"
        );

        let stats = server.stop();
        assert_eq!(
            stats.served as usize,
            1 + 2 * PER_CONN,
            "nothing answered twice"
        );
    });
}

#[test]
fn a_client_that_never_reads_cannot_wedge_the_worker() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    let eps = epsilon();
    // The row with the longest reply, so the flood fills the socket
    // buffers between the daemon and the silent client.
    let fattest = offline_rows(&eps, &fx.view)
        .iter()
        .enumerate()
        .max_by_key(|(_, ids)| ids.len())
        .map(|(row, _)| row)
        .expect("rows");
    let engine = Engine::open(&fx.store, &fx.view, ServeMethod::Epsilon(eps), 1).expect("open");
    let server = RunningServer::start(
        ServeConfig {
            workers: 1,
            // Admit the whole flood: the point is the worker's writes.
            queue_bound: 1 << 17,
            // Also the write timeout a stalled reply is given.
            default_deadline: Duration::from_millis(300),
            ..ServeConfig::default()
        },
        engine,
    );

    // The slow reader pipelines lookups, 1,000 at a time, and never
    // reads a byte; after each burst a well-behaved client does one
    // round-trip, queued behind the burst. Once the socket buffers
    // between the daemon and the silent client are full (a few MB, the
    // kernel decides), the worker's write to it stalls — for a write
    // timeout or two (`write_all` may get one partial write in first),
    // after which the daemon hangs up and sends start failing.
    let mut silent = TcpStream::connect(server.addr).expect("connect");
    silent
        .set_write_timeout(Some(Duration::from_secs(20)))
        .expect("write timeout");
    let burst = format!("{{\"id\":0,\"row\":{fattest},\"deadline_ms\":60000,\"scored\":true}}\n")
        .repeat(1000);
    let mut conn = TcpStream::connect(server.addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut slowest = Duration::ZERO;
    let mut bursts = 0usize;
    while silent.write_all(burst.as_bytes()).is_ok() {
        bursts += 1;
        assert!(
            bursts < 500,
            "the daemon never hung up on the silent client"
        );
        let sent = Instant::now();
        let reply = exchange(
            &mut conn,
            &mut reader,
            &format!(r#"{{"id":{bursts},"row":1,"deadline_ms":10000}}"#),
        );
        slowest = slowest.max(sent.elapsed());
        let v = Json::parse(&reply).expect("response json");
        assert!(
            v.get("candidates").is_some(),
            "after burst {bursts}: {reply}"
        );
    }
    assert!(
        bursts >= 5,
        "only {bursts} bursts got in before the hang-up"
    );
    assert!(
        slowest < Duration::from_secs(5),
        "a lookup waited {slowest:?} behind the silent client"
    );

    // What the silent client had buffered is still readable; then the
    // stream ends instead of blocking.
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    if let Err(e) = (&silent).read_to_end(&mut Vec::new()) {
        assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "the silent client's connection is still open: {e}"
        );
    }

    // And the drain completes: no worker is stuck in a write.
    let stats = server.stop();
    assert!(
        stats.served as usize >= bursts,
        "the second client's lookups"
    );
    assert_eq!(stats.timeouts, 0);
}

#[test]
fn an_over_long_line_gets_one_bad_request_row_and_the_daemon_lives() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    let engine =
        Engine::open(&fx.store, &fx.view, ServeMethod::Epsilon(epsilon()), 1).expect("open");
    let server = RunningServer::start(ServeConfig::default(), engine);

    for hostile in [vec![b'x'; 2 << 20], b"{\"row\":\xff\xfe}\n".to_vec()] {
        let mut conn = TcpStream::connect(server.addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        conn.set_write_timeout(Some(Duration::from_secs(30)))
            .expect("write timeout");
        // The daemon stops reading at the cap and hangs up, so the tail
        // of the line may fail to send; that is the point.
        let _ = conn.write_all(&hostile);
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        reader.read_line(&mut line).expect("bad-request row");
        let v = Json::parse(line.trim_end()).expect("response json");
        assert_eq!(str_field(&v, "error"), Some("bad-request"), "{line}");
        // ... and then the connection is closed, not left mid-line.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0, "{rest}");
    }

    let probe = roundtrip(server.addr, &[r#"{"op":"health"}"#.to_owned()], 1);
    assert_eq!(str_field(&probe[0], "status"), Some("serving"));
    let stats = server.stop();
    assert_eq!(stats.bad_requests, 2);
}

/// Copies the fixture store into a fresh scratch directory, so sharded
/// engines (whose first boot persists per-shard manifests) never touch
/// the shared read-only fixture.
fn copy_store(name: &str) -> PathBuf {
    let src = &fixture().store;
    let dst = std::env::temp_dir().join(format!("er-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    std::fs::create_dir_all(&dst).expect("scratch dir");
    for entry in std::fs::read_dir(src).expect("read fixture store") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy store file");
    }
    dst
}

#[test]
fn sharded_engine_is_byte_identical_and_resumes_from_persisted_shards() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    let eps = epsilon();
    let expected = offline_rows(&eps, &fx.view);
    let all_rows = |engine: &Engine| -> Vec<Vec<u32>> {
        let jobs: Vec<(usize, Limits)> = (0..engine.rows()).map(|r| (r, Limits::none())).collect();
        engine
            .lookup_batch(&jobs)
            .into_iter()
            .map(|o| o.ok().expect("lookup"))
            .collect()
    };

    // First multi-shard boot: a cold split of the view, answering
    // byte-identically to the offline reference at every shard count.
    let store = copy_store("sharded");
    for shards in [3u32, 8] {
        let engine =
            Engine::open(&store, &fx.view, ServeMethod::Epsilon(eps), shards).expect("open");
        assert_eq!(engine.n_shards(), shards);
        assert!(!engine.restored(), "no shard manifests persisted yet");
        assert!(engine.dirty(), "a cold split wants its manifests persisted");
        assert_eq!(all_rows(&engine), expected, "shards={shards}");
    }

    // Live updates route to the owning shards; answers track a
    // monolithic engine given the same operation sequence.
    let sharded = Engine::open(&store, &fx.view, ServeMethod::Epsilon(eps), 3).expect("open");
    let mono = Engine::open(&fx.store, &fx.view, ServeMethod::Epsilon(eps), 1).expect("open mono");
    for engine in [&sharded, &mono] {
        for (id, text) in [(2u32, "fresh row two"), (5, "another fresh row")] {
            let text = fx.view.e1[id as usize].clone() + " " + text;
            assert!(matches!(
                engine.apply(er_serve::UpdateOp::Upsert { id, text }),
                RunOutcome::Ok(true)
            ));
        }
        assert!(matches!(
            engine.apply(er_serve::UpdateOp::Delete { id: 7 }),
            RunOutcome::Ok(true)
        ));
        engine.compact().ok().expect("compact");
    }
    let after_updates = all_rows(&sharded);
    assert_eq!(after_updates, all_rows(&mono), "updates stay identical");

    // Persisting writes one manifest per shard; the next boot restores
    // them with zero prepare work and identical answers.
    let report = sharded
        .persist_if_dirty()
        .expect("persist")
        .expect("dirty engine persists");
    assert!(report.segments_written >= 3, "one segment per shard");
    let resumed = Engine::open(&store, &fx.view, ServeMethod::Epsilon(eps), 3).expect("reopen");
    assert!(resumed.restored(), "per-shard manifests restored");
    assert!(!resumed.dirty(), "a restored engine has nothing to persist");
    assert_eq!(resumed.startup_stats().misses, 0, "zero prepare work");
    assert_eq!(all_rows(&resumed), after_updates, "restored answers");

    // A torn shard set (one manifest lost) must refuse to open rather
    // than silently rebuild over recoverable state.
    let rw = er_bench::open_store(&store).expect("reopen store rw");
    let torn = er::core::artifacts::ArtifactKey::new(
        fx.view.fingerprint(),
        er::sparse::segmented::manifest_repr(&er::core::shard::shard_repr(&eps.repr_key(), 1, 3)),
    );
    std::fs::remove_file(rw.file_path(&torn)).expect("shard manifest exists");
    let err = match Engine::open(&store, &fx.view, ServeMethod::Epsilon(eps), 3) {
        Err(err) => err,
        Ok(_) => panic!("torn shard set must not open"),
    };
    assert!(err.contains("torn"), "{err}");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn open_failures_are_structured_errors() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();

    let missing = std::env::temp_dir().join(format!("er-serve-missing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&missing);
    let err = match Engine::open(&missing, &fx.view, ServeMethod::Epsilon(epsilon()), 1) {
        Err(err) => err,
        Ok(_) => panic!("missing dir must not open"),
    };
    assert!(err.contains("does not exist"), "{err}");
    assert!(
        !missing.exists(),
        "read-only open must never create the dir"
    );

    // A configuration the sweep never stored: present store, absent key.
    let mut eps = epsilon();
    eps.cleaning = false;
    let err = match Engine::open(&fx.store, &fx.view, ServeMethod::Epsilon(eps), 1) {
        Err(err) => err,
        Ok(_) => panic!("unknown artifact must not open"),
    };
    assert!(err.contains("not found"), "{err}");
    assert!(
        err.contains("er sweep"),
        "points at the store builder: {err}"
    );
}
