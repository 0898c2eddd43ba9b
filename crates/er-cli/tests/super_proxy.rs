//! Process-level tests of `er supervise`: real child processes, a real
//! SIGKILL, byte-identical merged answers.
//!
//! Three contracts, each against its own store built with a real
//! `er sweep --store-dir` run:
//!
//! - the merge proxy's responses are byte-identical (modulo the `us`
//!   latency field) to a single-process `er serve --shards 4`, for
//!   epsilon AND kNN, at two child layouts and two thread counts, on
//!   each of two concurrent client connections; SIGTERM then drains
//!   the group and logs the `supervise: … served / … failed` summary;
//! - SIGKILLing one child mid-load never drops or corrupts an answer —
//!   every request gets exactly one row, failures are structured
//!   `unavailable`/`timeout` errors, and the supervisor restarts the
//!   child within its backoff budget so lookups succeed again;
//! - a torn shard family (one manifest deleted) refuses startup with a
//!   structured error naming the missing shard, before any child
//!   process is spawned.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use er_bench::jsonl::Json;

fn build_store(store: &Path) {
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
    let settings =
        er_bench::Settings::try_parse(args.iter().map(|s| s.to_string())).expect("settings");
    er_bench::run_sweep(&settings, 1, false).expect("store-building sweep");
}

/// Dataset flags every daemon in these tests shares (they pin the same
/// store fingerprint the sweep persisted).
const DATASET_FLAGS: &[&str] = &["--profile", "D5", "--scale", "0.06", "--seed", "11"];

/// A running `er serve` or `er supervise` process with its banner
/// parsed and stderr collected in the background.
struct Daemon {
    child: Child,
    addr: String,
    stderr: Arc<Mutex<String>>,
    stderr_reader: JoinHandle<()>,
}

fn start_daemon(subcommand: &str, store: &Path, extra: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_er"))
        .arg(subcommand)
        .args(["--store-dir", store.to_str().expect("store path")])
        .args(DATASET_FLAGS)
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn er {subcommand}: {e}"));
    let stderr = Arc::new(Mutex::new(String::new()));
    let stderr_reader = {
        let sink = stderr.clone();
        let pipe = child.stderr.take().expect("child stderr");
        std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                let mut buf = sink.lock().expect("stderr sink");
                buf.push_str(&line);
                buf.push('\n');
            }
        })
    };
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| {
            panic!(
                "unexpected banner {banner:?}; stderr so far:\n{}",
                stderr.lock().expect("stderr sink")
            )
        })
        .to_owned();
    Daemon {
        child,
        addr,
        stderr,
        stderr_reader,
    }
}

impl Daemon {
    /// SIGTERM, wait, assert a clean exit; returns the whole stderr,
    /// read to EOF, so lines logged while draining are included.
    fn stop(mut self) -> String {
        let kill = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(kill.success(), "kill -TERM failed");
        let status = self.child.wait().expect("daemon exit");
        assert!(status.success(), "drain must exit 0, got {status:?}");
        self.stderr_reader.join().expect("stderr reader");
        let text = self.stderr.lock().expect("stderr sink").clone();
        text
    }
}

/// Pipelines `{"id":i,"row":i}` for `i in 0..n` on one connection and
/// returns the `n` response lines in order.
fn query_rows(addr: &str, n: usize) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    for i in 0..n {
        writeln!(conn, r#"{{"id":{i},"row":{i}}}"#).expect("send");
    }
    conn.flush().expect("flush");
    // The daemon keeps the connection open after answering (it closes
    // on drain), so read exactly n response lines rather than to EOF.
    let mut reader = BufReader::new(conn);
    let mut responses = Vec::with_capacity(n);
    for i in 0..n {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("response line") > 0,
            "connection closed after {i} of {n} responses"
        );
        responses.push(line.trim().to_owned());
    }
    responses
}

/// Sends one in-band `{"op":op}` probe and parses the reply.
fn probe(addr: &str, op: &str) -> Json {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    writeln!(conn, r#"{{"op":"{op}"}}"#).expect("send");
    let mut line = String::new();
    BufReader::new(conn)
        .read_line(&mut line)
        .expect("probe reply");
    Json::parse(&line).unwrap_or_else(|e| panic!("{op} reply {line:?}: {e}"))
}

/// A numeric field of a probe reply.
fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no {key} in {}", doc.encode()))
}

/// The `(touched_per_query, survivors_per_query)` a daemon reports.
fn lookup_work(addr: &str) -> (f64, f64) {
    let stats = probe(addr, "stats");
    (
        num(&stats, "touched_per_query"),
        num(&stats, "survivors_per_query"),
    )
}

/// Drops the `us` latency field — the only response field that may
/// differ between a proxy and a single-process daemon.
fn normalize(line: &str) -> String {
    let Json::Obj(fields) = Json::parse(line).expect("response parses") else {
        panic!("response is not an object: {line:?}");
    };
    Json::Obj(fields.into_iter().filter(|(k, _)| k != "us").collect()).encode()
}

#[test]
fn proxy_answers_byte_identical_to_single_process_across_layouts() {
    let base = std::env::temp_dir().join(format!("er-super-ident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");
    let store = base.join("store");
    build_store(&store);
    const N: usize = 12;

    let epsilon: &[&str] = &["--method", "epsilon", "--clean", "--model", "T1G"];
    let knn: &[&str] = &["--method", "knn", "--clean", "--model", "C3G", "--k", "2"];
    for (label, method_flags) in [("epsilon", epsilon), ("knn", knn)] {
        // Single-process reference over the full 4-shard plan; its
        // drain persists the shard family the supervisor then restores.
        let mut flags: Vec<&str> = method_flags.to_vec();
        flags.extend(["--shards", "4", "--threads", "8"]);
        let reference = start_daemon("serve", &store, &flags);
        let want: Vec<String> = query_rows(&reference.addr, N)
            .iter()
            .map(|l| normalize(l))
            .collect();
        let want_work = lookup_work(&reference.addr);
        reference.stop();
        assert!(want_work.0 > 0.0, "{label}: lookups touch rows");
        assert!(
            want.iter()
                .any(|l| l.contains("\"candidates\":[") && !l.contains("[]")),
            "{label}: reference answers must contain non-empty candidate sets"
        );

        for (children, threads) in [("2", "1"), ("3", "8")] {
            let mut flags: Vec<&str> = method_flags.to_vec();
            flags.extend([
                "--shards",
                "4",
                "--children",
                children,
                "--threads",
                threads,
            ]);
            let proxy = start_daemon("supervise", &store, &flags);
            // Two clients pipeline the same lookups at once: neither may
            // see the other's rows or a different merge.
            let start = Barrier::new(2);
            let clients: Vec<Vec<String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            query_rows(&proxy.addr, N)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            for (client, rows) in clients.iter().enumerate() {
                let got: Vec<String> = rows.iter().map(|l| normalize(l)).collect();
                assert_eq!(
                    got, want,
                    "{label}: client {client} of 2, {children} children / {threads} threads \
                     must merge to the single-process bytes"
                );
            }
            // Touched and kept rows are functions of the index and the
            // rows asked, so the proxy's aggregate equals one process's.
            assert_eq!(
                lookup_work(&proxy.addr),
                want_work,
                "{label}: {children} children report the single-process lookup work"
            );
            let n_children: f64 = children.parse().expect("children count");
            let stats = probe(&proxy.addr, "stats");
            assert_eq!(num(&stats, "children_reporting"), n_children, "{label}");
            assert_eq!(
                stats.get("shard_set").and_then(Json::as_str),
                Some("0,1,2,3/4"),
                "{label}: the children cover the whole family"
            );
            assert!(num(&stats, "p50_us") > 0.0, "{label}: latency histogram");
            let health = probe(&proxy.addr, "health");
            assert_eq!(
                health.get("status").and_then(Json::as_str),
                Some("serving"),
                "{label}"
            );
            assert_eq!(num(&health, "children_up"), n_children, "{label}");
            num(&health, "uptime_ms");
            let stderr = proxy.stop();
            assert!(
                stderr.contains("restored segmented index"),
                "{label}: children must restore, not rebuild:\n{stderr}"
            );
            let summary = format!("supervise: {} served / 0 failed", 2 * N);
            assert!(
                stderr.lines().any(|l| l.starts_with(&summary)),
                "{label}: the drain logs `{summary} …`:\n{stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn serial_round_trips_skip_the_delayed_ack_and_hostile_lines_are_refused() {
    let base = std::env::temp_dir().join(format!("er-super-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");
    let store = base.join("store");
    build_store(&store);
    let proxy = start_daemon(
        "supervise",
        &store,
        &[
            "--method",
            "epsilon",
            "--clean",
            "--model",
            "T1G",
            "--shards",
            "4",
            "--children",
            "2",
        ],
    );

    // Default socket options (Nagle on), one write per request. Each
    // reply crosses two hops — child to proxy, proxy to client — and a
    // line written as two segments on either would cost ~40 ms here.
    let mut conn = TcpStream::connect(&proxy.addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut took: Vec<Duration> = (0..100)
        .map(|i| {
            let sent = Instant::now();
            conn.write_all(format!("{{\"id\":{i},\"row\":{}}}\n", i % 12).as_bytes())
                .expect("send");
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("response line") > 0);
            let took = sent.elapsed();
            assert!(line.contains("\"candidates\""), "lookup {i}: {line:?}");
            took
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round-trip {median:?} (max {:?}): replies are waiting on a timer",
        took[took.len() - 1]
    );

    // A 2 MiB line without a newline: one bad-request row, then EOF —
    // and the proxy keeps serving everyone else.
    let mut hostile = TcpStream::connect(&proxy.addr).expect("connect");
    hostile
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    hostile
        .set_write_timeout(Some(Duration::from_secs(30)))
        .expect("write timeout");
    // The proxy stops reading at the cap, so the tail may fail to send.
    let _ = hostile.write_all(&vec![b'x'; 2 << 20]);
    let mut hostile = BufReader::new(hostile);
    let mut line = String::new();
    hostile.read_line(&mut line).expect("bad-request row");
    assert!(line.contains("\"error\":\"bad-request\""), "{line:?}");
    let mut rest = String::new();
    assert_eq!(hostile.read_line(&mut rest).unwrap_or(0), 0, "{rest:?}");

    conn.write_all(b"{\"op\":\"health\"}\n").expect("send");
    let mut health = String::new();
    assert!(reader.read_line(&mut health).expect("health line") > 0);
    assert!(health.contains("\"status\":\"serving\""), "{health:?}");

    proxy.stop();
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn sigkill_mid_load_yields_structured_rows_then_restart() {
    let base = std::env::temp_dir().join(format!("er-super-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");
    let store = base.join("store");
    build_store(&store);

    let proxy = start_daemon(
        "supervise",
        &store,
        &[
            "--method",
            "epsilon",
            "--clean",
            "--model",
            "T1G",
            "--shards",
            "4",
            "--children",
            "2",
            "--backoff-ms",
            "100",
            "--deadline-ms",
            "400",
        ],
    );

    // The supervisor logs every child's pid; take child 0's first one.
    let pid = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let text = proxy.stderr.lock().expect("stderr sink").clone();
            if let Some(pid) = text.lines().find_map(|l| {
                let rest = l.strip_prefix("supervise: child 0 ")?;
                let (_, after) = rest.split_once("pid ")?;
                after.split_whitespace().next()?.parse::<u32>().ok()
            }) {
                break pid;
            }
            assert!(
                Instant::now() < deadline,
                "no child pid line in supervisor stderr:\n{text}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    };

    let mut conn = TcpStream::connect(&proxy.addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut exchange = |i: usize| -> String {
        writeln!(conn, r#"{{"id":{i},"row":0}}"#).expect("send");
        conn.flush().expect("flush");
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read response") > 0,
            "proxy closed mid-stream"
        );
        line.trim().to_owned()
    };

    for i in 0..3 {
        let line = exchange(i);
        assert!(
            line.contains("\"candidates\""),
            "healthy lookups serve: {line:?}"
        );
    }

    let kill = Command::new("kill")
        .args(["-KILL", &pid.to_string()])
        .status()
        .expect("send SIGKILL");
    assert!(kill.success(), "kill -KILL failed");

    // Every post-kill row must be a served answer or a structured
    // retryable error — never a hang, never a dropped response — and
    // the supervisor must bring the child back within its backoff
    // budget so answers flow again.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut recovered = false;
    let mut structured_failures = 0usize;
    let mut i = 3;
    while Instant::now() < deadline {
        let line = exchange(i);
        i += 1;
        if line.contains("\"candidates\"") {
            recovered = true;
            break;
        }
        assert!(
            line.contains("\"error\":\"unavailable\"") || line.contains("\"error\":\"timeout\""),
            "post-kill rows must be structured retry/unavailable rows: {line:?}"
        );
        if line.contains("\"error\":\"unavailable\"") {
            assert!(
                line.contains("\"retry_after_ms\""),
                "unavailable rows carry a retry hint: {line:?}"
            );
        }
        structured_failures += 1;
    }
    assert!(
        recovered,
        "child never came back ({structured_failures} structured failures):\n{}",
        proxy.stderr.lock().expect("stderr sink")
    );

    let stderr = proxy.stop();
    assert!(
        stderr.contains("restart #1"),
        "supervisor must log the restart:\n{stderr}"
    );
    assert!(
        stderr.contains("signal: 9"),
        "supervisor must log the SIGKILL exit:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn torn_family_refuses_startup_naming_missing_shard_before_any_child() {
    let base = std::env::temp_dir().join(format!("er-super-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");
    let store = base.join("store");
    build_store(&store);

    // Persist the 4-shard family in-process (exactly what a supervise
    // bootstrap or a drained `er serve --shards 4` does).
    let profile = er::datagen::profiles::profile("D5").expect("profile D5");
    let ds = er::datagen::generate(profile, 0.06, 11);
    let view = er::core::schema::text_view(&ds, &er::core::schema::SchemaMode::Agnostic);
    let method = er_serve::ServeMethod::Epsilon(er::prelude::EpsilonJoin {
        cleaning: true,
        model: er::prelude::RepresentationModel::parse("T1G").expect("T1G"),
        measure: er::prelude::SimilarityMeasure::Cosine,
        threshold: 0.4,
    });
    let engine = er_serve::Engine::open(&store, &view, method, 4).expect("bootstrap open");
    engine
        .persist_if_dirty()
        .expect("persist family")
        .expect("cold split was dirty");
    drop(engine);

    // Tear the family: delete shard 2's manifest file.
    let ro = er_bench::open_store_read_only(&store).expect("open store");
    let torn_key = er::core::artifacts::ArtifactKey::new(
        view.fingerprint(),
        er::sparse::segmented::manifest_repr(&er::core::shard::shard_repr(
            &method.repr_key(),
            2,
            4,
        )),
    );
    let manifest = ro.file_path(&torn_key);
    assert!(manifest.exists(), "family manifest was persisted");
    std::fs::remove_file(&manifest).expect("tear the family");

    let out = Command::new(env!("CARGO_BIN_EXE_er"))
        .arg("supervise")
        .args(["--store-dir", store.to_str().expect("store path")])
        .args(DATASET_FLAGS)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--method",
            "epsilon",
            "--clean",
            "--model",
            "T1G",
            "--shards",
            "4",
            "--children",
            "2",
        ])
        .output()
        .expect("run er supervise");
    assert!(
        !out.status.success(),
        "a torn family must refuse startup, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stderr.contains("torn shard family"),
        "structured torn refusal:\n{stderr}"
    );
    assert!(
        stderr.contains("shard2/4"),
        "the error names the missing shard:\n{stderr}"
    );
    assert!(
        !stdout.contains("serving on"),
        "the proxy must never come up:\n{stdout}"
    );
    assert!(
        !stderr.contains("pid"),
        "no child process may be spawned before the family check:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&base);
}
