//! The TCP daemon: accept loop, per-connection readers, batching workers,
//! admission control and the graceful drain.
//!
//! Thread shape: the caller's thread runs the accept loop (polling a
//! non-blocking listener so a stop/drain request is noticed promptly);
//! each connection gets a reader thread that decodes lines and admits
//! query jobs; a fixed pool of worker threads drains the admission queue
//! in batches through [`Engine::lookup_batch`]. Responses are written
//! under a per-connection mutex, so each request gets exactly one
//! response line and lines never interleave; a worker writes a batch's
//! replies with one write per connection. Every line reaches the socket
//! through [`er_bench::wire::LineWriter`], and a client that stops
//! reading fails that write after `default_deadline` instead of wedging
//! the worker: its connection is closed and later replies to it dropped.
//!
//! Drain (`SIGTERM`, or the stop predicate): stop accepting, close the
//! queue (new requests on live connections get a `draining` error),
//! finish every admitted request, give readers a grace period to observe
//! client EOFs, then shut the sockets down, join everything and emit the
//! stats line. The process then exits 0.

use crate::engine::{Engine, UpdateOp};
use crate::protocol::{self, Request};
use crate::queue::{Admission, PushError};
use er::core::faults;
use er::core::guard::{self, Deadline, FailReason, Limits, RunOutcome};
use er::core::timing::{format_runtime, LatencyHistogram};
use er::sparse::QueryCounters;
use er_bench::jsonl::Json;
use er_bench::wire::{LineReader, LineWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Admission queue bound: requests beyond it are shed.
    pub queue_bound: usize,
    /// Max lookups a worker coalesces into one batch.
    pub batch: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Deadline applied when a request does not carry `deadline_ms`;
    /// also how long a reply write may block on a client that is not
    /// reading before its connection is closed.
    pub default_deadline: Duration,
    /// `retry_after_ms` value in shed responses.
    pub retry_after_ms: u64,
    /// Grace period for readers to finish naturally during drain before
    /// their sockets are shut down.
    pub drain_grace: Duration,
    /// Where to write the final stats JSON snapshot, if anywhere.
    pub stats_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            queue_bound: 1024,
            batch: 64,
            workers: 1,
            default_deadline: Duration::from_secs(1),
            retry_after_ms: 50,
            drain_grace: Duration::from_secs(1),
            stats_out: None,
        }
    }
}

/// Serving counters plus the latency histogram.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Lookups answered successfully.
    pub served: u64,
    /// Lookups that failed structurally (panics, poisoned artifacts).
    pub failed: u64,
    /// Lookups that hit their deadline.
    pub timeouts: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests refused while draining.
    pub drained_refusals: u64,
    /// Lines that did not parse into a request.
    pub bad_requests: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Live upserts applied to the delta.
    pub upserts: u64,
    /// Live deletes applied to the delta.
    pub deletes: u64,
    /// Background compaction passes completed.
    pub compactions: u64,
    /// End-to-end latency (admission to response) of served lookups.
    pub histogram: LatencyHistogram,
    /// Indexed rows the served lookups touched and kept, in total: what
    /// a lookup costs and what it was for.
    pub lookup_work: QueryCounters,
}

/// One admitted lookup job.
struct Job {
    id: Json,
    row: usize,
    deadline: Deadline,
    admitted: Instant,
    /// Answer with exact similarity bits (the merge proxy's form).
    scored: bool,
    out: Arc<ConnWriter>,
}

/// One admitted unit of worker-pool work: a lookup, or the single-flight
/// background compaction pass.
enum Task {
    Lookup(Job),
    Compact { id: Json, out: Arc<ConnWriter> },
}

/// The write half of a connection, shared by its reader and the workers.
/// Write errors are not reported: a client that went away or stopped
/// reading cannot be answered, so its connection is closed and whatever
/// is sent to it afterwards is dropped.
struct ConnWriter {
    writer: Mutex<LineWriter<TcpStream>>,
}

impl ConnWriter {
    /// Writes one response line (after any queued ones, in the same write).
    fn send(&self, line: &str) {
        self.queue(line);
        self.flush();
    }

    /// Queues one response line for the next [`ConnWriter::flush`].
    fn queue(&self, line: &str) {
        self.writer.lock().unwrap().push(line);
    }

    /// Writes the queued lines in one write.
    fn flush(&self) {
        let mut writer = self.writer.lock().unwrap();
        if writer.flush().is_err() {
            writer.close();
        }
    }

    /// Closes the connection; its reader then sees EOF.
    fn close(&self) {
        self.writer.lock().unwrap().close();
    }
}

/// State shared by the accept loop, readers and workers.
struct Shared {
    engine: Engine,
    cfg: ServeConfig,
    queue: Admission<Task>,
    draining: AtomicBool,
    /// Single-flight latch for the background compaction: a second
    /// `compact` request while one is queued or running is refused.
    compacting: AtomicBool,
    live_readers: AtomicUsize,
    stats: Mutex<ServerStats>,
    /// Clones of accepted sockets, for shutdown during drain.
    conns: Mutex<Vec<TcpStream>>,
    /// Process start, for the `uptime_ms` stats/health field the
    /// supervisor compares against its own view of the child's age.
    started: Instant,
}

impl Shared {
    fn stats_json(&self) -> Json {
        let stats = self.stats.lock().unwrap();
        let startup = self.engine.startup_stats();
        let index = self.engine.index_stats();
        let histogram = stats
            .histogram
            .buckets()
            .into_iter()
            .map(|(bound, count)| Json::Arr(vec![Json::Num(bound as f64), Json::Num(count as f64)]))
            .collect();
        Json::Obj(vec![
            ("served".into(), Json::Num(stats.served as f64)),
            ("failed".into(), Json::Num(stats.failed as f64)),
            ("timeouts".into(), Json::Num(stats.timeouts as f64)),
            ("shed".into(), Json::Num(stats.shed as f64)),
            (
                "drained_refusals".into(),
                Json::Num(stats.drained_refusals as f64),
            ),
            ("bad_requests".into(), Json::Num(stats.bad_requests as f64)),
            ("connections".into(), Json::Num(stats.connections as f64)),
            ("queue_depth".into(), Json::Num(self.queue.depth() as f64)),
            ("queue_bound".into(), Json::Num(self.queue.bound() as f64)),
            (
                "p50_us".into(),
                Json::Num(stats.histogram.quantile(0.50).as_micros() as f64),
            ),
            (
                "p95_us".into(),
                Json::Num(stats.histogram.quantile(0.95).as_micros() as f64),
            ),
            (
                "p99_us".into(),
                Json::Num(stats.histogram.quantile(0.99).as_micros() as f64),
            ),
            ("histogram_us".into(), Json::Arr(histogram)),
            (
                "touched_per_query".into(),
                Json::Num(stats.lookup_work.touched as f64 / stats.served.max(1) as f64),
            ),
            (
                "survivors_per_query".into(),
                Json::Num(stats.lookup_work.survivors as f64 / stats.served.max(1) as f64),
            ),
            // The totals behind the two ratios, which a merge proxy sums.
            (
                "lookup_touched".into(),
                Json::Num(stats.lookup_work.touched as f64),
            ),
            (
                "lookup_survivors".into(),
                Json::Num(stats.lookup_work.survivors as f64),
            ),
            ("rows".into(), Json::Num(self.engine.rows() as f64)),
            ("shards".into(), Json::Num(self.engine.n_shards() as f64)),
            (
                "shard_set".into(),
                Json::Str(self.engine.shard_subset().to_string()),
            ),
            (
                "uptime_ms".into(),
                Json::Num(self.started.elapsed().as_millis() as f64),
            ),
            (
                "artifact_bytes".into(),
                Json::Num(self.engine.artifact_bytes() as f64),
            ),
            ("upserts".into(), Json::Num(stats.upserts as f64)),
            ("deletes".into(), Json::Num(stats.deletes as f64)),
            ("compactions".into(), Json::Num(stats.compactions as f64)),
            ("segments".into(), Json::Num(index.segments as f64)),
            ("delta_rows".into(), Json::Num(index.delta_rows as f64)),
            ("tombstones".into(), Json::Num(index.tombstones as f64)),
            ("live_rows".into(), Json::Num(index.live_rows as f64)),
            ("dirty".into(), Json::Bool(self.engine.dirty())),
            ("restored".into(), Json::Bool(self.engine.restored())),
            ("store_hits".into(), Json::Num(startup.store_hits as f64)),
            ("cache_misses".into(), Json::Num(startup.misses as f64)),
            ("store_corrupt".into(), Json::Num(startup.corrupt as f64)),
            (
                "prepare_saved_ms".into(),
                Json::Num(startup.prepare_saved.as_secs_f64() * 1e3),
            ),
            (
                "draining".into(),
                Json::Bool(self.draining.load(Ordering::SeqCst)),
            ),
        ])
    }

    fn health_json(&self) -> Json {
        let draining = self.draining.load(Ordering::SeqCst);
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            (
                "status".into(),
                Json::Str(if draining { "draining" } else { "serving" }.into()),
            ),
            ("rows".into(), Json::Num(self.engine.rows() as f64)),
            ("queue_depth".into(), Json::Num(self.queue.depth() as f64)),
            (
                "shard_set".into(),
                Json::Str(self.engine.shard_subset().to_string()),
            ),
            (
                "uptime_ms".into(),
                Json::Num(self.started.elapsed().as_millis() as f64),
            ),
        ])
    }
}

/// A running daemon.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    local: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Binds the listener and starts the worker pool. The accept loop does
    /// not run until [`Server::serve_until`].
    pub fn start(cfg: ServeConfig, engine: Engine) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: Admission::new(cfg.queue_bound),
            engine,
            cfg,
            draining: AtomicBool::new(false),
            compacting: AtomicBool::new(false),
            live_readers: AtomicUsize::new(0),
            stats: Mutex::new(ServerStats::default()),
            conns: Mutex::new(Vec::new()),
            started: Instant::now(),
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || run_worker(&shared))
            })
            .collect();
        Ok(Server {
            shared,
            listener,
            local,
            workers,
            readers: Mutex::new(Vec::new()),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Runs the accept loop until `stop` returns true, then drains and
    /// returns the final stats. This is the daemon's main loop; `stop` is
    /// typically [`crate::signals::drain_requested`].
    pub fn serve_until(self, stop: impl Fn() -> bool) -> ServerStats {
        loop {
            if stop() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => self.adopt(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    eprintln!("serve: accept error: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        self.drain()
    }

    /// Registers an accepted connection and spawns its reader.
    fn adopt(&self, stream: TcpStream) {
        // The accept fault site: an injected panic here must drop the one
        // connection, not the daemon.
        let guarded = guard::run_guarded(Limits::catching(), || {
            faults::fire("serve/accept");
            stream.try_clone()
        });
        let clone = match guarded {
            RunOutcome::Ok(Ok(clone)) => clone,
            RunOutcome::Ok(Err(e)) => {
                eprintln!("serve: connection setup failed: {e}");
                return;
            }
            RunOutcome::Failed { reason, .. } => {
                eprintln!("serve: connection refused by fault: {reason}");
                return;
            }
        };
        self.shared.stats.lock().unwrap().connections += 1;
        self.shared.conns.lock().unwrap().push(clone);
        let shared = Arc::clone(&self.shared);
        shared.live_readers.fetch_add(1, Ordering::SeqCst);
        let handle = std::thread::spawn(move || {
            run_reader(&shared, stream);
            shared.live_readers.fetch_sub(1, Ordering::SeqCst);
        });
        self.readers.lock().unwrap().push(handle);
    }

    /// Stops admissions, finishes in-flight work, tears the connections
    /// down and returns the final stats.
    fn drain(self) -> ServerStats {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Stop accepting: close the listener before waiting on anything.
        drop(self.listener);
        // No new admissions; workers finish the backlog and exit.
        self.shared.queue.close();
        self.shared.queue.wait_drained();
        for worker in self.workers {
            let _ = worker.join();
        }
        // Every admitted request is answered. Give readers a grace period
        // to drain their buffers naturally (clients that already sent EOF
        // get their remaining lines answered with `draining` errors), then
        // force the stragglers out.
        let grace_end = Instant::now() + self.shared.cfg.drain_grace;
        while self.shared.live_readers.load(Ordering::SeqCst) > 0 && Instant::now() < grace_end {
            std::thread::sleep(Duration::from_millis(2));
        }
        for conn in self.shared.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let readers = std::mem::take(&mut *self.readers.lock().unwrap());
        for reader in readers {
            let _ = reader.join();
        }
        // Live updates that were never persisted would die with the
        // process; a clean index writes nothing (the store directory is
        // byte-unchanged by a purely-serving daemon).
        match self.shared.engine.persist_if_dirty() {
            Ok(None) => {}
            Ok(Some(report)) => eprintln!(
                "serve: persisted segmented index: {} segment(s) written / {} reused / {} removed",
                report.segments_written, report.segments_reused, report.removed,
            ),
            Err(e) => eprintln!("serve: persisting live updates failed: {e}"),
        }
        let stats = self.shared.stats.lock().unwrap().clone();
        if let Some(path) = &self.shared.cfg.stats_out {
            if let Err(e) = std::fs::write(path, self.shared.stats_json().encode() + "\n") {
                eprintln!("serve: writing {} failed: {e}", path.display());
            }
        }
        eprintln!("{}", stats_line(&stats, &self.shared));
        stats
    }
}

/// The grep-able shutdown stats line, in the cache-stats style.
fn stats_line(stats: &ServerStats, shared: &Shared) -> String {
    let startup = shared.engine.startup_stats();
    format!(
        "serve: {} served / {} failed / {} timeouts / {} shed / {} bad | p50 {} / p95 {} / p99 {} | store: {} hits / {} corrupt",
        stats.served,
        stats.failed,
        stats.timeouts,
        stats.shed,
        stats.bad_requests,
        format_runtime(stats.histogram.quantile(0.50)),
        format_runtime(stats.histogram.quantile(0.95)),
        format_runtime(stats.histogram.quantile(0.99)),
        startup.store_hits,
        startup.corrupt,
    )
}

/// The structured refusal for an update whose row is owned by a shard
/// outside the served subset: the detail names the owning shard so a
/// proxy (or operator) can re-route instead of losing the update.
fn wrong_shard_line(shared: &Shared, id: &Json, row: u32) -> String {
    let owner = shared.engine.owning_shard(row);
    protocol::err_line(
        id,
        "wrong-shard",
        &format!(
            "row {row} belongs to shard{owner}/{} — outside served subset {}",
            shared.engine.n_shards(),
            shared.engine.shard_subset(),
        ),
    )
}

/// Reads request lines off one connection until EOF or shutdown.
fn run_reader(shared: &Arc<Shared>, stream: TcpStream) {
    let accepted = stream
        .try_clone()
        .and_then(|clone| LineWriter::accepted(clone, shared.cfg.default_deadline));
    let writer = match accepted {
        Ok(writer) => Arc::new(ConnWriter {
            writer: Mutex::new(writer),
        }),
        Err(_) => return,
    };
    let mut reader = LineReader::new(stream);
    loop {
        let line = match reader.read_line() {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) => {
                // An over-long or non-UTF-8 line leaves the stream
                // mid-line: one structured row, then the connection goes.
                if e.kind() == std::io::ErrorKind::InvalidData {
                    shared.stats.lock().unwrap().bad_requests += 1;
                    writer.send(&protocol::err_line(
                        &Json::Null,
                        "bad-request",
                        &e.to_string(),
                    ));
                    writer.close();
                }
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        // The decode fault site lives inside a panic net: an injected
        // panic (or a decoder bug) becomes a bad-request response, never
        // a dead reader thread.
        let parsed = guard::run_guarded(Limits::catching(), || {
            faults::fire("serve/decode");
            Request::parse(line)
        });
        let request = match parsed {
            RunOutcome::Ok(Ok(request)) => request,
            RunOutcome::Ok(Err(e)) => {
                shared.stats.lock().unwrap().bad_requests += 1;
                writer.send(&protocol::err_line(&Json::Null, "bad-request", &e));
                continue;
            }
            RunOutcome::Failed { reason, .. } => {
                shared.stats.lock().unwrap().bad_requests += 1;
                writer.send(&protocol::err_line(
                    &Json::Null,
                    "bad-request",
                    &reason.to_string(),
                ));
                continue;
            }
        };
        match request {
            Request::Health => writer.send(&shared.health_json().encode()),
            Request::Stats => writer.send(&shared.stats_json().encode()),
            // Updates mutate the delta inline on the reader thread: the
            // tokenize-outside-the-lock write path is far cheaper than a
            // lookup, and lookups only block for the map insert itself.
            Request::Upsert { id, row, text } => {
                if shared.draining.load(Ordering::SeqCst) {
                    shared.stats.lock().unwrap().drained_refusals += 1;
                    writer.send(&protocol::err_line(
                        &id,
                        "draining",
                        "daemon is draining; not accepting updates",
                    ));
                    continue;
                }
                match shared.engine.apply(UpdateOp::Upsert { id: row, text }) {
                    RunOutcome::Ok(true) => {
                        shared.stats.lock().unwrap().upserts += 1;
                        writer.send(&protocol::ack_line(&id, "upsert", row));
                    }
                    RunOutcome::Ok(false) => {
                        shared.stats.lock().unwrap().bad_requests += 1;
                        writer.send(&wrong_shard_line(shared, &id, row));
                    }
                    RunOutcome::Failed { reason, .. } => {
                        shared.stats.lock().unwrap().failed += 1;
                        writer.send(&protocol::err_line(&id, "failed", &reason.to_string()));
                    }
                }
            }
            Request::Delete { id, row } => {
                if shared.draining.load(Ordering::SeqCst) {
                    shared.stats.lock().unwrap().drained_refusals += 1;
                    writer.send(&protocol::err_line(
                        &id,
                        "draining",
                        "daemon is draining; not accepting updates",
                    ));
                    continue;
                }
                match shared.engine.apply(UpdateOp::Delete { id: row }) {
                    RunOutcome::Ok(true) => {
                        shared.stats.lock().unwrap().deletes += 1;
                        writer.send(&protocol::ack_line(&id, "delete", row));
                    }
                    RunOutcome::Ok(false) => {
                        shared.stats.lock().unwrap().bad_requests += 1;
                        writer.send(&wrong_shard_line(shared, &id, row));
                    }
                    RunOutcome::Failed { reason, .. } => {
                        shared.stats.lock().unwrap().failed += 1;
                        writer.send(&protocol::err_line(&id, "failed", &reason.to_string()));
                    }
                }
            }
            // Compaction runs on the worker pool (the fold is expensive);
            // the single-flight latch refuses a second pass while one is
            // queued or running, and the ack line arrives when it's done.
            Request::Compact { id } => {
                if shared
                    .compacting
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
                {
                    writer.send(&protocol::err_line(
                        &id,
                        "busy",
                        "a compaction is already queued or running",
                    ));
                    continue;
                }
                let task = Task::Compact {
                    id,
                    out: Arc::clone(&writer),
                };
                match shared.queue.try_push(task) {
                    Ok(()) => {}
                    Err((Task::Compact { id, out }, PushError::Full)) => {
                        shared.compacting.store(false, Ordering::SeqCst);
                        shared.stats.lock().unwrap().shed += 1;
                        out.send(&protocol::shed_line(&id, shared.cfg.retry_after_ms));
                    }
                    Err((Task::Compact { id, out }, PushError::Closed)) => {
                        shared.compacting.store(false, Ordering::SeqCst);
                        shared.stats.lock().unwrap().drained_refusals += 1;
                        out.send(&protocol::err_line(
                            &id,
                            "draining",
                            "daemon is draining; not accepting new work",
                        ));
                    }
                    Err((Task::Lookup(_), _)) => unreachable!("pushed a compact task"),
                }
            }
            Request::Query {
                id,
                row,
                deadline_ms,
                scored,
            } => {
                if row >= shared.engine.rows() {
                    shared.stats.lock().unwrap().bad_requests += 1;
                    writer.send(&protocol::err_line(
                        &id,
                        "bad-request",
                        &format!("row {row} out of range (rows: {})", shared.engine.rows()),
                    ));
                    continue;
                }
                let budget = deadline_ms
                    .map(Duration::from_millis)
                    .unwrap_or(shared.cfg.default_deadline);
                let job = Job {
                    id,
                    row,
                    deadline: Deadline::after(budget),
                    admitted: Instant::now(),
                    scored,
                    out: Arc::clone(&writer),
                };
                match shared.queue.try_push(Task::Lookup(job)) {
                    Ok(()) => {}
                    Err((Task::Lookup(job), PushError::Full)) => {
                        shared.stats.lock().unwrap().shed += 1;
                        job.out
                            .send(&protocol::shed_line(&job.id, shared.cfg.retry_after_ms));
                    }
                    Err((Task::Lookup(job), PushError::Closed)) => {
                        shared.stats.lock().unwrap().drained_refusals += 1;
                        job.out.send(&protocol::err_line(
                            &job.id,
                            "draining",
                            "daemon is draining; not accepting new lookups",
                        ));
                    }
                    Err((Task::Compact { .. }, _)) => unreachable!("pushed a lookup task"),
                }
            }
        }
    }
}

/// Runs the single-flight compaction pass and answers its requester.
fn run_compaction(shared: &Arc<Shared>, id: &Json, out: &ConnWriter) {
    let outcome = shared.engine.compact();
    shared.compacting.store(false, Ordering::SeqCst);
    match outcome {
        RunOutcome::Ok(done) => {
            shared.stats.lock().unwrap().compactions += 1;
            out.send(&protocol::compact_line(
                id,
                done.compacted,
                done.segments,
                done.delta_rows,
            ));
        }
        RunOutcome::Failed { reason, .. } => {
            shared.stats.lock().unwrap().failed += 1;
            out.send(&protocol::err_line(id, "failed", &reason.to_string()));
        }
    }
}

/// Drains the admission queue in batches until it closes.
fn run_worker(shared: &Arc<Shared>) {
    while let Some(batch) = shared.queue.next_batch(shared.cfg.batch) {
        let n = batch.len();
        // Requests that exhausted their deadline while queued are answered
        // without touching the engine — overload must not waste work on
        // lookups nobody is waiting for anymore. A compaction task runs
        // here, on the pool, so the accept/reader threads never stall.
        let mut runnable: Vec<Job> = Vec::with_capacity(n);
        for task in batch {
            let job = match task {
                Task::Lookup(job) => job,
                Task::Compact { id, out } => {
                    run_compaction(shared, &id, &out);
                    continue;
                }
            };
            if job.deadline.expired() {
                shared.stats.lock().unwrap().timeouts += 1;
                job.out.send(&protocol::err_line(
                    &job.id,
                    "timeout",
                    &FailReason::TimedOut {
                        limit: job.deadline.limit(),
                    }
                    .to_string(),
                ));
            } else {
                runnable.push(job);
            }
        }
        let jobs: Vec<(usize, Limits)> = runnable
            .iter()
            .map(|job| (job.row, Limits::catching().with_deadline(job.deadline)))
            .collect();
        let outcomes = shared.engine.lookup_batch_scored(&jobs);
        // The batch's replies all exist now: queue each on its connection
        // and give every connection one write, not one per reply.
        let mut touched: Vec<Arc<ConnWriter>> = Vec::new();
        for (job, (outcome, work)) in runnable.into_iter().zip(outcomes) {
            let line = match outcome {
                RunOutcome::Ok(scored) => {
                    let latency = job.admitted.elapsed();
                    {
                        let mut stats = shared.stats.lock().unwrap();
                        stats.served += 1;
                        stats.histogram.record(latency);
                        stats.lookup_work += work;
                    }
                    let us = latency.as_micros().min(u64::MAX as u128) as u64;
                    if job.scored {
                        protocol::scored_line(&job.id, job.row, &scored, us)
                    } else {
                        // Ascending ids reproduce the plain answer exactly
                        // (ε answers are already ascending; kNN answers
                        // arrive in scored order and get re-sorted).
                        let mut candidates: Vec<u32> =
                            scored.into_iter().map(|(id, _)| id).collect();
                        candidates.sort_unstable();
                        protocol::ok_line(&job.id, job.row, &candidates, us)
                    }
                }
                RunOutcome::Failed { reason, .. } => {
                    let kind = match &reason {
                        FailReason::TimedOut { .. } => {
                            shared.stats.lock().unwrap().timeouts += 1;
                            "timeout"
                        }
                        _ => {
                            shared.stats.lock().unwrap().failed += 1;
                            "failed"
                        }
                    };
                    protocol::err_line(&job.id, kind, &reason.to_string())
                }
            };
            job.out.queue(&line);
            if !touched.iter().any(|out| Arc::ptr_eq(out, &job.out)) {
                touched.push(job.out);
            }
        }
        for out in touched {
            out.flush();
        }
        shared.queue.done(n);
    }
}
