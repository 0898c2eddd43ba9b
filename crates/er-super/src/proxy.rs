//! The merge proxy: one endpoint speaking the serve daemon's wire
//! protocol, fanning every lookup across the shard-group children and
//! merging their answers back into the single-process result.
//!
//! Merge policy mirrors the in-process fan-out cursor exactly:
//!
//! - **epsilon** — each child returns its shards' candidates in
//!   ascending id order; disjoint shards mean concatenation + one sort
//!   reproduces the single-process ascending id list bit-for-bit.
//! - **kNN** — each child is asked for its *scored* candidates (exact
//!   `f64::to_bits` on the wire), and the proxy re-runs the global
//!   distinct-top-k cut ([`KnnJoin::select_top_k`]) over the
//!   concatenation. A per-child cut never drops a survivor of the
//!   global cut, and the cut's ordering (descending similarity,
//!   ascending id) is concatenation-order independent — so the merged
//!   ids equal the single-process answer exactly.
//!
//! Fault policy: a child's `shed`/`draining` answer or a dead child
//! triggers bounded retry-with-backoff *inside the request's deadline*;
//! a deadline that expires while the child is down surfaces as a
//! structured `unavailable` row carrying `retry_after_ms`. The proxy
//! never invents a partial answer: a lookup either merges every child's
//! candidates or reports a structured error.

use crate::supervisor::{ChildSlot, SuperConfig};
use er::core::timing::LatencyHistogram;
use er::sparse::KnnJoin;
use er_bench::jsonl::Json;
use er_bench::wire::{LineReader, LineWriter, WireClient};
use er_serve::protocol::{self, Request};
use er_serve::ServeMethod;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Child-stat counters the proxy sums across children for its
/// aggregated `{"op":"stats"}` answer.
const SUMMED_CHILD_STATS: &[&str] = &[
    "served",
    "failed",
    "timeouts",
    "shed",
    "drained_refusals",
    "bad_requests",
    "connections",
    "upserts",
    "deletes",
    "compactions",
    "segments",
    "delta_rows",
    "tombstones",
    "live_rows",
    "lookup_touched",
    "lookup_survivors",
];

/// Proxy-level counters (distinct from the child counters it relays).
#[derive(Debug, Default, Clone)]
pub struct ProxyStats {
    /// Lookups answered with a merged candidate set.
    pub served: u64,
    /// Lookups answered with a structured non-timeout error.
    pub failed: u64,
    /// Lookups that ran out of deadline against a live child.
    pub timeouts: u64,
    /// Lookups that ran out of deadline against a down child.
    pub unavailable: u64,
    /// Child `shed`/`draining` answers absorbed by retrying.
    pub retries: u64,
    /// Malformed request lines.
    pub bad_requests: u64,
    /// Client connections accepted.
    pub connections: u64,
    /// Update acknowledgements relayed (upsert + delete).
    pub updates: u64,
    /// Compaction fan-outs completed.
    pub compactions: u64,
}

/// One cached connection to a child, valid for a single registration
/// generation — a restarted child gets a fresh dial.
struct ChildConn {
    generation: u64,
    client: WireClient,
}

/// Why one child exchange gave up.
enum Fail {
    /// Deadline expired while the child was up (slow child or slow net).
    Timeout { child: usize },
    /// Deadline expired while the child was down/restarting.
    Unavailable { child: usize },
    /// The child answered with a terminal structured error.
    Child { kind: String, detail: String },
}

struct Shared {
    cfg: Arc<SuperConfig>,
    slots: Vec<Arc<ChildSlot>>,
    method: ServeMethod,
    stats: Mutex<ProxyStats>,
    conns: Mutex<Vec<TcpStream>>,
    draining: AtomicBool,
    started: Instant,
}

impl Shared {
    /// One request/response exchange with child `i`, retrying through
    /// shed/draining/down states until `deadline`. `make_line` receives
    /// the remaining budget in ms so every attempt forwards a fresh
    /// child-side deadline.
    fn child_exchange(
        &self,
        conns: &mut [Option<ChildConn>],
        i: usize,
        make_line: &dyn Fn(u64) -> String,
        deadline: Instant,
    ) -> Result<(String, Json), Fail> {
        let slot = &self.slots[i];
        let mut down_wait = Duration::from_millis(5);
        loop {
            let Some(rem) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                return Err(if slot.endpoint().is_none() {
                    Fail::Unavailable { child: i }
                } else {
                    Fail::Timeout { child: i }
                });
            };
            let Some((generation, addr)) = slot.endpoint() else {
                // Down: the monitor is restarting it under backoff.
                std::thread::sleep(down_wait.min(rem));
                down_wait = (down_wait * 2).min(Duration::from_millis(100));
                continue;
            };
            let stale = !matches!(&conns[i], Some(c) if c.generation == generation);
            if stale {
                match WireClient::connect(&addr.to_string(), rem) {
                    Ok(client) => conns[i] = Some(ChildConn { generation, client }),
                    Err(_) => {
                        conns[i] = None;
                        std::thread::sleep(down_wait.min(rem));
                        down_wait = (down_wait * 2).min(Duration::from_millis(100));
                        continue;
                    }
                }
            }
            let conn = conns[i].as_mut().expect("connection just ensured");
            let _ = conn.client.set_io_timeout(Some(rem));
            let line = make_line((rem.as_millis() as u64).max(1));
            let resp = match conn.client.roundtrip(&line) {
                Ok(resp) => resp,
                Err(_) => {
                    // Poison the connection: a late response must never
                    // be misread as the answer to a different request.
                    conns[i] = None;
                    continue;
                }
            };
            let Ok(doc) = Json::parse(&resp) else {
                conns[i] = None;
                return Err(Fail::Child {
                    kind: "failed".to_owned(),
                    detail: format!("child {i} returned an unparsable response"),
                });
            };
            match doc.get("error").and_then(Json::as_str) {
                None => return Ok((resp, doc)),
                Some("shed") => {
                    let after = doc
                        .get("retry_after_ms")
                        .and_then(Json::as_f64)
                        .map(|ms| Duration::from_millis(ms.max(1.0) as u64))
                        .unwrap_or(Duration::from_millis(self.cfg.retry_after_ms));
                    self.stats.lock().expect("stats lock").retries += 1;
                    std::thread::sleep(after.min(rem));
                }
                Some("draining") => {
                    // The child is going down; its replacement gets a
                    // new generation. Treat like down-and-restarting.
                    conns[i] = None;
                    self.stats.lock().expect("stats lock").retries += 1;
                    std::thread::sleep(down_wait.min(rem));
                    down_wait = (down_wait * 2).min(Duration::from_millis(100));
                }
                Some("timeout") => return Err(Fail::Timeout { child: i }),
                Some(kind) => {
                    return Err(Fail::Child {
                        kind: kind.to_owned(),
                        detail: doc
                            .get("detail")
                            .and_then(Json::as_str)
                            .unwrap_or("child error")
                            .to_owned(),
                    })
                }
            }
        }
    }

    /// The structured row for a fan-out leg that gave up, with proxy
    /// counters updated.
    fn fail_line(&self, id: &Json, fail: Fail, budget: Duration) -> String {
        let mut stats = self.stats.lock().expect("stats lock");
        match fail {
            Fail::Timeout { child } => {
                stats.timeouts += 1;
                protocol::err_line(
                    id,
                    "timeout",
                    &format!(
                        "child {child} (shards {}) did not answer within the {}ms deadline",
                        self.slots[child].subset,
                        budget.as_millis(),
                    ),
                )
            }
            Fail::Unavailable { child } => {
                stats.unavailable += 1;
                unavailable_line(
                    id,
                    &format!(
                        "child {child} (shards {}) is down; restart in progress",
                        self.slots[child].subset,
                    ),
                    self.cfg.retry_after_ms,
                )
            }
            Fail::Child { kind, detail } => {
                stats.failed += 1;
                protocol::err_line(id, &kind, &detail)
            }
        }
    }

    /// Merged candidate lookup: fan out, merge per the method, answer.
    fn handle_query(
        &self,
        conns: &mut [Option<ChildConn>],
        id: &Json,
        row: usize,
        deadline_ms: Option<u64>,
        want_scored: bool,
    ) -> String {
        let t0 = Instant::now();
        let budget = deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(self.cfg.default_deadline);
        let deadline = t0 + budget;
        let knn_k = match &self.method {
            ServeMethod::Knn(f) => Some(f.k),
            ServeMethod::Epsilon(_) => None,
        };
        let mut plain: Vec<u32> = Vec::new();
        let mut scored: Vec<(u32, f64)> = Vec::new();
        for i in 0..self.slots.len() {
            let fetch_scored = knn_k.is_some();
            let make_line = move |rem: u64| {
                if fetch_scored {
                    format!(r#"{{"id":0,"row":{row},"deadline_ms":{rem},"scored":true}}"#)
                } else {
                    format!(r#"{{"id":0,"row":{row},"deadline_ms":{rem}}}"#)
                }
            };
            let doc = match self.child_exchange(conns, i, &make_line, deadline) {
                Ok((_, doc)) => doc,
                Err(fail) => return self.fail_line(id, fail, budget),
            };
            match parse_candidates(&doc, fetch_scored) {
                Ok(Parsed::Plain(ids)) => plain.extend(ids),
                Ok(Parsed::Scored(pairs)) => scored.extend(pairs),
                Err(detail) => {
                    return self.fail_line(
                        id,
                        Fail::Child {
                            kind: "failed".to_owned(),
                            detail: format!("child {i}: {detail}"),
                        },
                        budget,
                    )
                }
            }
        }
        self.stats.lock().expect("stats lock").served += 1;
        let us = t0.elapsed().as_micros() as u64;
        if let Some(k) = knn_k {
            KnnJoin::select_top_k(k, &mut scored);
            if want_scored {
                return protocol::scored_line(id, row, &scored, us);
            }
            let mut ids: Vec<u32> = scored.iter().map(|&(c, _)| c).collect();
            ids.sort_unstable();
            protocol::ok_line(id, row, &ids, us)
        } else {
            plain.sort_unstable();
            if want_scored {
                let pairs: Vec<(u32, f64)> = plain.iter().map(|&c| (c, 0.0)).collect();
                return protocol::scored_line(id, row, &pairs, us);
            }
            protocol::ok_line(id, row, &plain, us)
        }
    }

    /// Routes an update to the one child owning the row's shard and
    /// relays its acknowledgement (or structured refusal) verbatim.
    fn handle_update(&self, conns: &mut [Option<ChildConn>], id: &Json, line: Json) -> String {
        let Some(row) = line.get("row").and_then(Json::as_f64) else {
            return protocol::err_line(id, "bad-request", "missing numeric \"row\"");
        };
        let shard = er::core::shard::ShardPlan::new(self.cfg.shards).shard_of(row as u32);
        let Some(owner) = self.slots.iter().position(|s| s.subset.contains(shard)) else {
            return protocol::err_line(
                id,
                "wrong-shard",
                &format!("no child serves shard{shard}/{}", self.cfg.shards),
            );
        };
        let budget = self.cfg.default_deadline;
        let deadline = Instant::now() + budget;
        let encoded = line.encode();
        match self.child_exchange(conns, owner, &move |_| encoded.clone(), deadline) {
            Ok((raw, _)) => {
                self.stats.lock().expect("stats lock").updates += 1;
                raw
            }
            Err(fail) => self.fail_line(id, fail, budget),
        }
    }

    /// Fans a compaction to every child and aggregates the reports.
    fn handle_compact(&self, conns: &mut [Option<ChildConn>], id: &Json) -> String {
        let budget = self.cfg.default_deadline.max(Duration::from_secs(10));
        let deadline = Instant::now() + budget;
        let (mut compacted, mut segments, mut delta_rows) = (false, 0usize, 0usize);
        for i in 0..self.slots.len() {
            let make_line = |_rem: u64| r#"{"op":"compact","id":0}"#.to_owned();
            match self.child_exchange(conns, i, &make_line, deadline) {
                Ok((_, doc)) => {
                    compacted |= doc.get("compacted").and_then(Json::as_bool) == Some(true);
                    segments += doc.get("segments").and_then(Json::as_f64).unwrap_or(0.0) as usize;
                    delta_rows +=
                        doc.get("delta_rows").and_then(Json::as_f64).unwrap_or(0.0) as usize;
                }
                Err(fail) => return self.fail_line(id, fail, budget),
            }
        }
        self.stats.lock().expect("stats lock").compactions += 1;
        protocol::compact_line(id, compacted, segments, delta_rows)
    }

    /// The proxy's own health row: shaped like a child's so scripts can
    /// probe either endpoint uniformly.
    fn health_json(&self) -> Json {
        let up = self.slots.iter().filter(|s| s.endpoint().is_some()).count();
        let draining = self.draining.load(Ordering::SeqCst);
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            (
                "status".into(),
                Json::Str(if draining { "draining" } else { "serving" }.into()),
            ),
            ("children".into(), Json::Num(self.slots.len() as f64)),
            ("children_up".into(), Json::Num(up as f64)),
            (
                "shard_set".into(),
                Json::Str(er::core::shard::ShardSubset::full(self.cfg.shards).to_string()),
            ),
            (
                "uptime_ms".into(),
                Json::Num(self.started.elapsed().as_millis() as f64),
            ),
        ])
    }

    /// Aggregated stats: child counters summed, child latency
    /// histograms merged (exact bucket union), proxy counters alongside.
    fn stats_json(&self) -> Json {
        let mut sums = vec![0f64; SUMMED_CHILD_STATS.len()];
        let mut rows = 0f64;
        let mut histogram = LatencyHistogram::new();
        let mut reporting = 0usize;
        for slot in &self.slots {
            let Some((_, addr)) = slot.endpoint() else {
                continue;
            };
            let Ok(mut client) = WireClient::connect(&addr.to_string(), self.cfg.health_timeout)
            else {
                continue;
            };
            let Ok(line) = client.roundtrip(r#"{"op":"stats"}"#) else {
                continue;
            };
            let Ok(doc) = Json::parse(&line) else {
                continue;
            };
            reporting += 1;
            for (i, key) in SUMMED_CHILD_STATS.iter().enumerate() {
                sums[i] += doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            }
            rows = rows.max(doc.get("rows").and_then(Json::as_f64).unwrap_or(0.0));
            if let Some(buckets) = doc.get("histogram_us").and_then(Json::as_arr) {
                let pairs: Vec<(u64, u64)> = buckets
                    .iter()
                    .filter_map(|b| {
                        let arr = b.as_arr()?;
                        Some((arr.first()?.as_f64()? as u64, arr.get(1)?.as_f64()? as u64))
                    })
                    .collect();
                if let Ok(child_hist) = LatencyHistogram::from_buckets(&pairs) {
                    histogram.merge(&child_hist);
                }
            }
        }
        let proxy = self.stats.lock().expect("stats lock").clone();
        let restarts: u64 = self.slots.iter().map(|s| s.restarts()).sum();
        let per_lookup = |key: &str| {
            let summed = SUMMED_CHILD_STATS
                .iter()
                .position(|k| *k == key)
                .map_or(0.0, |i| sums[i]);
            Json::Num(summed / proxy.served.max(1) as f64)
        };
        let mut fields: Vec<(String, Json)> = SUMMED_CHILD_STATS
            .iter()
            .zip(&sums)
            .map(|(key, &v)| ((*key).to_owned(), Json::Num(v)))
            .collect();
        fields.extend([
            ("rows".into(), Json::Num(rows)),
            ("shards".into(), Json::Num(self.cfg.shards as f64)),
            (
                "shard_set".into(),
                Json::Str(er::core::shard::ShardSubset::full(self.cfg.shards).to_string()),
            ),
            ("children".into(), Json::Num(self.slots.len() as f64)),
            ("children_reporting".into(), Json::Num(reporting as f64)),
            ("child_restarts".into(), Json::Num(restarts as f64)),
            (
                "p50_us".into(),
                Json::Num(histogram.quantile(0.50).as_micros() as f64),
            ),
            (
                "p95_us".into(),
                Json::Num(histogram.quantile(0.95).as_micros() as f64),
            ),
            (
                "p99_us".into(),
                Json::Num(histogram.quantile(0.99).as_micros() as f64),
            ),
            (
                "histogram_us".into(),
                Json::Arr(
                    histogram
                        .buckets()
                        .into_iter()
                        .map(|(bound, count)| {
                            Json::Arr(vec![Json::Num(bound as f64), Json::Num(count as f64)])
                        })
                        .collect(),
                ),
            ),
            ("proxy_served".into(), Json::Num(proxy.served as f64)),
            // Every child touches and keeps rows for every lookup the
            // proxy serves, so the per-lookup figures divide the summed
            // totals by the proxy's count, not the children's.
            ("touched_per_query".into(), per_lookup("lookup_touched")),
            ("survivors_per_query".into(), per_lookup("lookup_survivors")),
            ("proxy_failed".into(), Json::Num(proxy.failed as f64)),
            ("proxy_timeouts".into(), Json::Num(proxy.timeouts as f64)),
            (
                "proxy_unavailable".into(),
                Json::Num(proxy.unavailable as f64),
            ),
            ("proxy_retries".into(), Json::Num(proxy.retries as f64)),
            (
                "proxy_bad_requests".into(),
                Json::Num(proxy.bad_requests as f64),
            ),
            (
                "proxy_connections".into(),
                Json::Num(proxy.connections as f64),
            ),
            (
                "uptime_ms".into(),
                Json::Num(self.started.elapsed().as_millis() as f64),
            ),
            (
                "draining".into(),
                Json::Bool(self.draining.load(Ordering::SeqCst)),
            ),
        ]);
        Json::Obj(fields)
    }

    /// Parses and answers one request line.
    fn dispatch(&self, line: &str, conns: &mut [Option<ChildConn>]) -> String {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(detail) => {
                self.stats.lock().expect("stats lock").bad_requests += 1;
                return protocol::err_line(&Json::Null, "bad-request", &detail);
            }
        };
        if self.draining.load(Ordering::SeqCst) {
            if let Some(id) = request_id(&request) {
                return protocol::err_line(&id, "draining", "proxy is shutting down");
            }
        }
        match request {
            Request::Health => self.health_json().encode(),
            Request::Stats => self.stats_json().encode(),
            Request::Query {
                id,
                row,
                deadline_ms,
                scored,
            } => self.handle_query(conns, &id, row, deadline_ms, scored),
            Request::Upsert { ref id, .. } | Request::Delete { ref id, .. } => {
                let parsed = Json::parse(line).expect("request already parsed");
                self.handle_update(conns, &id.clone(), parsed)
            }
            Request::Compact { id } => self.handle_compact(conns, &id),
        }
    }
}

/// The correlation id of a request that expects an id echo.
fn request_id(request: &Request) -> Option<Json> {
    match request {
        Request::Query { id, .. }
        | Request::Upsert { id, .. }
        | Request::Delete { id, .. }
        | Request::Compact { id } => Some(id.clone()),
        Request::Health | Request::Stats => None,
    }
}

/// A structured `unavailable` row: the proxy's deadline expired while
/// the owning child was down; the client should retry after the hint.
pub fn unavailable_line(id: &Json, detail: &str, retry_after_ms: u64) -> String {
    Json::Obj(vec![
        ("id".to_owned(), id.clone()),
        ("error".to_owned(), Json::Str("unavailable".to_owned())),
        ("detail".to_owned(), Json::Str(detail.to_owned())),
        (
            "retry_after_ms".to_owned(),
            Json::Num(retry_after_ms as f64),
        ),
    ])
    .encode()
}

/// A child's parsed candidate payload.
enum Parsed {
    Plain(Vec<u32>),
    Scored(Vec<(u32, f64)>),
}

/// Extracts (and for scored answers, exactly decodes) the candidates of
/// one child response document.
fn parse_candidates(doc: &Json, scored: bool) -> Result<Parsed, String> {
    let candidates = doc
        .get("candidates")
        .and_then(Json::as_arr)
        .ok_or("response lacks \"candidates\"")?;
    let ids: Vec<u32> = candidates
        .iter()
        .map(|c| c.as_f64().map(|v| v as u32).ok_or("non-numeric candidate"))
        .collect::<Result<_, _>>()?;
    if !scored {
        return Ok(Parsed::Plain(ids));
    }
    let bits = doc
        .get("score_bits")
        .and_then(Json::as_arr)
        .ok_or("scored response lacks \"score_bits\"")?;
    if bits.len() != ids.len() {
        return Err(format!(
            "score_bits length {} != candidates length {}",
            bits.len(),
            ids.len()
        ));
    }
    let pairs = ids
        .into_iter()
        .zip(bits)
        .map(|(id, b)| {
            let s = b.as_str().ok_or("non-string score_bits entry")?;
            Ok((id, protocol::decode_score_bits(s)?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Parsed::Scored(pairs))
}

/// A running merge proxy.
pub struct Proxy {
    shared: Arc<Shared>,
    listener: TcpListener,
    local: SocketAddr,
    handlers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Proxy {
    /// Binds the proxy endpoint. The accept loop does not run until
    /// [`Proxy::serve_until`].
    pub fn start(
        cfg: Arc<SuperConfig>,
        slots: Vec<Arc<ChildSlot>>,
        method: ServeMethod,
    ) -> std::io::Result<Proxy> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(Proxy {
            shared: Arc::new(Shared {
                cfg,
                slots,
                method,
                stats: Mutex::new(ProxyStats::default()),
                conns: Mutex::new(Vec::new()),
                draining: AtomicBool::new(false),
                started: Instant::now(),
            }),
            listener,
            local,
            handlers: Mutex::new(Vec::new()),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Runs the accept loop until `stop` returns true, then drains open
    /// connections and returns the proxy counters.
    pub fn serve_until(self, stop: impl Fn() -> bool) -> ProxyStats {
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
                    eprintln!("supervise: proxy accept error: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        self.drain()
    }

    fn adopt(&self, stream: TcpStream) {
        let Ok(clone) = stream.try_clone() else {
            return;
        };
        let shared = self.shared.clone();
        {
            let mut stats = shared.stats.lock().expect("stats lock");
            stats.connections += 1;
        }
        self.shared.conns.lock().expect("conns lock").push(clone);
        let handle = std::thread::spawn(move || handle_client(shared, stream));
        self.handlers.lock().expect("handlers lock").push(handle);
    }

    /// Stops accepting, refuses new work, closes client connections and
    /// joins every handler.
    fn drain(self) -> ProxyStats {
        self.shared.draining.store(true, Ordering::SeqCst);
        drop(self.listener);
        for conn in self.shared.conns.lock().expect("conns lock").drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handlers lock"));
        for handle in handlers {
            let _ = handle.join();
        }
        self.shared.stats.lock().expect("stats lock").clone()
    }
}

/// One client connection: read a line, answer a line, in order. A
/// client that stops reading fails the reply write after the default
/// deadline and is disconnected, like a serve daemon's.
fn handle_client(shared: Arc<Shared>, stream: TcpStream) {
    let accepted = stream
        .try_clone()
        .and_then(|clone| LineWriter::accepted(clone, shared.cfg.default_deadline));
    let Ok(mut writer) = accepted else {
        return;
    };
    let mut reader = LineReader::new(stream);
    let mut conns: Vec<Option<ChildConn>> = (0..shared.slots.len()).map(|_| None).collect();
    loop {
        let line = match reader.read_line() {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) => {
                // An over-long or non-UTF-8 line leaves the stream
                // mid-line: one structured row, then the connection goes.
                if e.kind() == std::io::ErrorKind::InvalidData {
                    shared.stats.lock().expect("stats lock").bad_requests += 1;
                    let row = protocol::err_line(&Json::Null, "bad-request", &e.to_string());
                    let _ = writer.send(&row);
                    writer.close();
                }
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        if writer.send(&shared.dispatch(line, &mut conns)).is_err() {
            // The client went away or stopped reading; the line may be torn.
            writer.close();
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unavailable_rows_carry_retry_hint() {
        let line = unavailable_line(&Json::Num(7.0), "child 1 is down", 50);
        let doc = Json::parse(&line).expect("roundtrip");
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("unavailable"));
        assert_eq!(doc.get("retry_after_ms").and_then(Json::as_f64), Some(50.0));
        assert_eq!(doc.get("id").and_then(Json::as_f64), Some(7.0));
    }

    #[test]
    fn scored_candidates_decode_exactly() {
        let line = protocol::scored_line(&Json::Null, 3, &[(9, 2.0 / 3.0), (4, 0.25)], 11);
        let doc = Json::parse(&line).expect("parse");
        let Parsed::Scored(pairs) = parse_candidates(&doc, true).expect("scored") else {
            panic!("expected scored parse");
        };
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, 9);
        assert_eq!(pairs[0].1.to_bits(), (2.0f64 / 3.0).to_bits());
        assert_eq!(pairs[1], (4, 0.25));
    }

    #[test]
    fn plain_candidates_parse_and_reject_mismatch() {
        let line = protocol::ok_line(&Json::Null, 3, &[1, 5, 7], 11);
        let doc = Json::parse(&line).expect("parse");
        let Parsed::Plain(ids) = parse_candidates(&doc, false).expect("plain") else {
            panic!("expected plain parse");
        };
        assert_eq!(ids, vec![1, 5, 7]);
        // A plain answer asked to parse as scored is a structural error.
        assert!(parse_candidates(&doc, true).is_err());
    }

    #[test]
    fn knn_merge_reproduces_global_cut_regardless_of_order() {
        // Two child answers (each already cut to k=2 distinct sims);
        // the global cut over either concatenation order is identical.
        let a = vec![(3u32, 0.9f64), (7, 0.5)];
        let b = vec![(10u32, 0.7f64), (2, 0.5)];
        let mut ab: Vec<(u32, f64)> = a.iter().chain(&b).copied().collect();
        let mut ba: Vec<(u32, f64)> = b.iter().chain(&a).copied().collect();
        KnnJoin::select_top_k(2, &mut ab);
        KnnJoin::select_top_k(2, &mut ba);
        assert_eq!(ab, ba);
        assert_eq!(ab, vec![(3, 0.9), (10, 0.7)]);
    }
}
