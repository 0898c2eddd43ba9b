//! The native load generator: line-JSON requests over TCP, pipelined per
//! connection, one thread per connection.
//!
//! Two pacings. A **closed** loop keeps a fixed number of requests in
//! flight per connection and sends the next only when a reply frees a
//! slot (callers that each wait for an answer). An **open** loop sends
//! on a fixed schedule whatever the replies do (independent users), and
//! times every request from the instant it was *due*, so a server stall
//! shows up as latency on every request scheduled during it instead of
//! silently slowing the sender down. How late the sender itself ran is
//! reported separately (`send_late`) — that is the instrument's own
//! error bar.
//!
//! Each connection thread waits in `ppoll(2)` for "reply readable or
//! next send due", whichever is first; the timeout is a `timespec`, so
//! the schedule is held to tens of microseconds without spinning.

use crate::json::{self, Value};
use crate::stats::Samples;
use crate::trace::RequestSpan;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// What a request asks for; latencies are kept per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Lookup = 0,
    Upsert = 1,
    Delete = 2,
    Compact = 3,
}

const KINDS: usize = 4;

/// One request: the JSON members after `"id"`, without braces — e.g.
/// `"row":42` or `"op":"delete","row":7`.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    /// The row a lookup asks about (kept beside its reply for checks).
    pub row: u32,
    pub members: String,
}

impl Op {
    pub fn lookup(row: usize) -> Op {
        Op {
            kind: OpKind::Lookup,
            row: row as u32,
            members: format!("\"row\":{row}"),
        }
    }
}

/// Produces operation number `seq` of one connection.
pub type OpSource<'a> = Box<dyn FnMut(u64) -> Op + Send + 'a>;

/// How a connection paces its sends.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Keep `in_flight` requests outstanding.
    Closed { in_flight: usize },
    /// Send one request every `interval`, the first at `offset`.
    Open {
        interval: Duration,
        offset: Duration,
    },
}

/// What one phase on one connection is asked to do.
pub struct Phase<'a> {
    pub pacing: Pacing,
    /// Sending stops after this long (or after `max_ops`).
    pub duration: Duration,
    pub max_ops: u64,
    /// How long to wait for outstanding replies once sending stopped.
    pub grace: Duration,
    /// Keep the candidates of lookups with sequence number below this.
    pub keep_replies: u64,
    /// Record one span per request (traced runs).
    pub trace: bool,
    /// Request ids are `seq * id_stride + id_offset`: unique across the
    /// connections of a phase.
    pub id_stride: u64,
    pub id_offset: u64,
    pub source: OpSource<'a>,
}

/// A lookup reply kept for output checks.
#[derive(Debug, Clone, PartialEq)]
pub struct KeptReply {
    pub seq: u64,
    pub row: u32,
    pub candidates: Vec<u32>,
}

/// What one connection observed.
#[derive(Debug, Default)]
pub struct Report {
    pub sent: u64,
    /// Successful replies, per kind, client-observed microseconds from
    /// send (closed) or due time (open) to the reply line.
    pub latency: [Samples; KINDS],
    /// Replies carrying `"error"`, with the first few kinds seen.
    pub errors: u64,
    pub error_kinds: Vec<String>,
    /// Requests never answered within the grace period.
    pub unanswered: u64,
    /// Reply lines matching no outstanding request (answered twice, or
    /// garbage): any of these fails the exactly-once check.
    pub unmatched: u64,
    /// Open loop: how late each send left, relative to its due time.
    pub send_late: Samples,
    /// The reply's own `us` field (server-side latency), traced runs.
    pub server_us: Samples,
    pub reply_bytes: u64,
    pub kept: Vec<KeptReply>,
    pub spans: Vec<RequestSpan>,
    /// First send to last reply.
    pub busy: Duration,
}

impl Report {
    pub fn ok(&self, kind: OpKind) -> usize {
        self.latency[kind as usize].len()
    }

    pub fn answered(&self) -> u64 {
        self.latency.iter().map(|s| s.len() as u64).sum::<u64>() + self.errors
    }

    /// Operations that did not get a good answer.
    pub fn failed(&self) -> u64 {
        self.errors + self.unanswered + self.unmatched
    }

    /// Remembers an error kind, up to a handful of distinct ones.
    fn note_error_kind(&mut self, kind: String) {
        if self.error_kinds.len() < 8 && !self.error_kinds.contains(&kind) {
            self.error_kinds.push(kind);
        }
    }

    /// Folds another connection's report into this one. `busy` becomes
    /// the longer of the two (the connections ran side by side).
    pub fn merge(&mut self, other: Report) {
        self.sent += other.sent;
        for (mine, theirs) in self.latency.iter_mut().zip(&other.latency) {
            mine.extend(theirs);
        }
        self.errors += other.errors;
        for kind in other.error_kinds {
            self.note_error_kind(kind);
        }
        self.unanswered += other.unanswered;
        self.unmatched += other.unmatched;
        self.send_late.extend(&other.send_late);
        self.server_us.extend(&other.server_us);
        self.reply_bytes += other.reply_bytes;
        self.kept.extend(other.kept);
        self.spans.extend(other.spans);
        self.busy = self.busy.max(other.busy);
    }
}

mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: c_short = 0x001;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// Blocks until `stream` is readable (or closed, or in error) or
/// `timeout` passes; true when a read will not block.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let mut fd = sys::PollFd {
        fd: stream.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    };
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs().min(3600) as _,
        tv_nsec: timeout.subsec_nanos() as _,
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
    // whole call, `nfds` is 1 to match the single `PollFd`, and a null
    // signal mask is what ppoll(2) documents for "leave the mask alone".
    let ready = unsafe { sys::ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    // EINTR and friends read as "not yet": the caller loops on its clock.
    ready > 0
}

struct Outstanding {
    id: u64,
    seq: u64,
    kind: OpKind,
    row: u32,
    /// Send instant (closed) or due instant (open).
    from: Instant,
}

/// Connects with `TCP_NODELAY` on, as every load-generator connection is.
pub fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Runs one phase on one connection and returns what it saw. I/O errors
/// (the peer went away) end the phase early; whatever was outstanding
/// counts as unanswered.
pub fn run_phase(stream: &mut TcpStream, mut phase: Phase<'_>, epoch: Instant) -> Report {
    let mut report = Report::default();
    let mut outstanding: Vec<Outstanding> = Vec::new();
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut line = String::new();

    let start = Instant::now();
    let send_until = start + phase.duration;
    let mut first_send: Option<Instant> = None;
    let mut last_reply = start;
    let mut seq: u64 = 0;
    let mut next_due = match phase.pacing {
        Pacing::Open { offset, .. } => start + offset,
        Pacing::Closed { .. } => start,
    };
    let mut peer_gone = false;
    // When sending stopped; the grace period for stragglers runs from here.
    let mut ended: Option<Instant> = None;

    loop {
        // Send whatever is due.
        if Instant::now() < send_until && !peer_gone {
            while seq < phase.max_ops {
                let from = match phase.pacing {
                    Pacing::Closed { in_flight } => {
                        if outstanding.len() >= in_flight {
                            break;
                        }
                        Instant::now()
                    }
                    Pacing::Open { interval, .. } => {
                        let t = Instant::now();
                        if next_due > t || next_due >= send_until {
                            break;
                        }
                        let due = next_due;
                        next_due += interval;
                        report
                            .send_late
                            .push(t.duration_since(due).as_micros() as u64);
                        due
                    }
                };
                let op = (phase.source)(seq);
                let id = seq * phase.id_stride + phase.id_offset;
                line.clear();
                line.push_str("{\"id\":");
                line.push_str(&id.to_string());
                line.push(',');
                line.push_str(&op.members);
                line.push_str("}\n");
                if stream.write_all(line.as_bytes()).is_err() {
                    peer_gone = true;
                    report.sent += 1;
                    report.unanswered += 1;
                    break;
                }
                first_send.get_or_insert(from);
                outstanding.push(Outstanding {
                    id,
                    seq,
                    kind: op.kind,
                    row: op.row,
                    from,
                });
                report.sent += 1;
                seq += 1;
            }
        }

        let now = Instant::now();
        if now >= send_until || seq >= phase.max_ops || peer_gone {
            ended.get_or_insert(now);
        }
        if let Some(ended) = ended {
            if outstanding.is_empty() || peer_gone || now >= ended + phase.grace {
                break;
            }
        }

        // Wait for a reply or for the next send to fall due.
        let wake = match (ended, phase.pacing) {
            (Some(ended), _) => ended + phase.grace,
            (None, Pacing::Open { .. }) => next_due.min(send_until),
            (None, Pacing::Closed { .. }) => send_until,
        };
        let timeout = wake
            .saturating_duration_since(now)
            .min(Duration::from_millis(250));
        if !wait_readable(stream, timeout) {
            continue;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => {
                peer_gone = true;
                continue;
            }
            Ok(n) => n,
        };
        let arrived = Instant::now();
        report.reply_bytes += n as u64;
        inbuf.extend_from_slice(&chunk[..n]);
        let mut consumed = 0;
        while let Some(nl) = inbuf[consumed..].iter().position(|&b| b == b'\n') {
            let raw = &inbuf[consumed..consumed + nl];
            consumed += nl + 1;
            handle_reply(raw, arrived, epoch, &phase, &mut outstanding, &mut report);
            last_reply = arrived;
        }
        inbuf.drain(..consumed);
    }

    report.unanswered += outstanding.len() as u64;
    report.busy = first_send.map_or(Duration::ZERO, |t| last_reply.saturating_duration_since(t));
    report
}

fn handle_reply(
    raw: &[u8],
    arrived: Instant,
    epoch: Instant,
    phase: &Phase<'_>,
    outstanding: &mut Vec<Outstanding>,
    report: &mut Report,
) {
    let parsed = std::str::from_utf8(raw)
        .map_err(|e| e.to_string())
        .and_then(json::parse);
    let Ok(reply) = parsed else {
        report.unmatched += 1;
        return;
    };
    let slot = reply
        .num("id")
        .and_then(|id| outstanding.iter().position(|o| o.id as f64 == id));
    let Some(slot) = slot else {
        report.unmatched += 1;
        return;
    };
    let req = outstanding.swap_remove(slot);
    let us = arrived.saturating_duration_since(req.from).as_micros() as u64;
    let server_us = reply.num("us");

    let good = match (reply.get("error"), req.kind) {
        (Some(err), _) => {
            let kind = match err {
                Value::Str(s) => s.clone(),
                other => other.encode(),
            };
            report.note_error_kind(kind);
            false
        }
        (None, OpKind::Lookup) => reply.get("candidates").is_some(),
        (None, _) => reply.bool("ok") == Some(true),
    };
    if good {
        report.latency[req.kind as usize].push(us);
        if let Some(s) = server_us {
            if phase.trace {
                report.server_us.push(s as u64);
            }
        }
        if req.kind == OpKind::Lookup && req.seq < phase.keep_replies {
            match reply.u32s("candidates") {
                Some(candidates) => report.kept.push(KeptReply {
                    seq: req.seq,
                    row: req.row,
                    candidates,
                }),
                None => report.unmatched += 1,
            }
        }
    } else {
        report.errors += 1;
    }
    if phase.trace {
        report.spans.push(RequestSpan {
            req: req.id,
            kind: req.kind,
            start_ns: req.from.saturating_duration_since(epoch).as_nanos() as u64,
            end_ns: arrived.saturating_duration_since(epoch).as_nanos() as u64,
            server_us: server_us.map(|s| s as u64),
            ok: good,
        });
    }
}

/// Runs one phase per connection side by side (one thread each) and
/// merges the reports. `phases[i]` drives `streams[i]`.
pub fn run_phases(streams: &mut [TcpStream], phases: Vec<Phase<'_>>, epoch: Instant) -> Report {
    assert_eq!(streams.len(), phases.len(), "one phase per connection");
    let reports: Vec<Report> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(phases)
            .map(|(stream, phase)| scope.spawn(move || run_phase(stream, phase, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    let mut merged = Report::default();
    for report in reports {
        merged.merge(report);
    }
    merged
}

/// One blocking request/reply on a quiet connection (health, stats,
/// fixed verification lookups). Not for use while a phase runs.
pub fn roundtrip(stream: &mut TcpStream, line: &str, timeout: Duration) -> Result<Value, String> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let deadline = Instant::now() + timeout;
    let mut buf = Vec::new();
    let mut byte = [0u8; 4096];
    loop {
        if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let text = std::str::from_utf8(&buf[..nl]).map_err(|e| e.to_string())?;
            return json::parse(text);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(format!("no reply to {line} within {timeout:?}"));
        }
        if !wait_readable(stream, left) {
            continue;
        }
        match stream.read(&mut byte) {
            Ok(0) => return Err("connection closed before the reply".to_owned()),
            Ok(n) => buf.extend_from_slice(&byte[..n]),
            Err(e) => return Err(format!("recv: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};

    fn lookups() -> OpSource<'static> {
        Box::new(|seq| Op::lookup(seq as usize))
    }

    fn reply_for(line: &str) -> String {
        let v = json::parse(line).expect("request is json");
        let id = v.num("id").expect("id") as u64;
        let row = v.num("row").expect("row") as u64;
        format!("{{\"id\":{id},\"row\":{row},\"candidates\":[{row}],\"n\":1,\"us\":5}}\n")
    }

    /// A server answering each line at once, except that it goes deaf
    /// for `stall` when it reads request number `stall_at`.
    fn stalling_server(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            for (i, line) in BufReader::new(stream).lines().enumerate() {
                let Ok(line) = line else { break };
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                if writer.write_all(reply_for(&line).as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_times_from_due_and_keeps_sending_through_a_stall() {
        let stall = Duration::from_millis(200);
        let (addr, server) = stalling_server(100, stall);
        let mut stream = connect(&addr).expect("connect");
        let interval = Duration::from_millis(1);
        let phase = Phase {
            pacing: Pacing::Open {
                interval,
                offset: Duration::ZERO,
            },
            duration: Duration::from_millis(500),
            max_ops: u64::MAX,
            grace: Duration::from_secs(2),
            keep_replies: 0,
            trace: true,
            id_stride: 1,
            id_offset: 0,
            source: lookups(),
        };
        let mut report = run_phase(&mut stream, phase, Instant::now());
        drop(stream);
        server.join().expect("server");

        assert_eq!(report.failed(), 0, "{report:?}");
        assert!(report.sent >= 450, "schedule held: sent {}", report.sent);
        // The stall lands on the requests scheduled during it: request
        // 100 waits the whole 200 ms, request 200 (due 100 ms into the
        // stall) about half of it, and request 50 none.
        let mut by_seq: Vec<_> = report.spans.clone();
        by_seq.sort_by_key(|s| s.req);
        let lat_ms = |seq: usize| (by_seq[seq].end_ns - by_seq[seq].start_ns) as f64 / 1e6;
        assert!(lat_ms(50) < 50.0, "before the stall: {} ms", lat_ms(50));
        assert!(lat_ms(100) >= 190.0, "stalled request: {} ms", lat_ms(100));
        assert!(
            (60.0..=160.0).contains(&lat_ms(200)),
            "a later request inherits the rest of the stall: {} ms",
            lat_ms(200)
        );
        let stalled = by_seq
            .iter()
            .filter(|s| s.end_ns - s.start_ns >= 20_000_000)
            .count();
        assert!(stalled >= 150, "only {stalled} requests saw the stall");
        // ...while the sender itself kept its schedule.
        let late = report.send_late.quantile(0.99).expect("samples");
        assert!(late < 20_000, "send lateness p99 {late} us");
    }

    #[test]
    fn closed_loop_never_exceeds_its_in_flight_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let received = Arc::new(AtomicUsize::new(0));
        let replied = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let server = {
            let (received, replied, max_seen) =
                (received.clone(), replied.clone(), max_seen.clone());
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().expect("accept");
                let mut writer = stream.try_clone().expect("clone");
                let (tx, rx) = mpsc::channel::<String>();
                // Answer slowly on a second thread so requests pile up
                // to whatever the client allows.
                let answerer = {
                    let replied = replied.clone();
                    std::thread::spawn(move || {
                        for line in rx {
                            std::thread::sleep(Duration::from_millis(2));
                            replied.fetch_add(1, Ordering::SeqCst);
                            if writer.write_all(reply_for(&line).as_bytes()).is_err() {
                                break;
                            }
                        }
                    })
                };
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { break };
                    let got = received.fetch_add(1, Ordering::SeqCst) + 1;
                    let open = got - replied.load(Ordering::SeqCst);
                    max_seen.fetch_max(open, Ordering::SeqCst);
                    tx.send(line).expect("answerer alive");
                }
                drop(tx);
                answerer.join().expect("answerer");
            })
        };
        let mut stream = connect(&addr).expect("connect");
        let phase = Phase {
            pacing: Pacing::Closed { in_flight: 4 },
            duration: Duration::from_secs(5),
            max_ops: 200,
            grace: Duration::from_secs(2),
            keep_replies: 3,
            trace: false,
            id_stride: 2,
            id_offset: 1,
            source: lookups(),
        };
        let report = run_phase(&mut stream, phase, Instant::now());
        drop(stream);
        server.join().expect("server");

        assert_eq!(report.sent, 200);
        assert_eq!(report.ok(OpKind::Lookup), 200);
        assert_eq!(report.failed(), 0);
        let max = max_seen.load(Ordering::SeqCst);
        assert!(max <= 4, "in flight reached {max}, cap is 4");
        assert!(max >= 3, "the window was never filled: {max}");
        let mut kept = report.kept.clone();
        kept.sort_by_key(|k| k.seq);
        assert_eq!(
            kept,
            (0..3)
                .map(|i| KeptReply {
                    seq: i,
                    row: i as u32,
                    candidates: vec![i as u32]
                })
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn errors_unanswered_and_strays_are_counted() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            for (i, line) in BufReader::new(stream).lines().enumerate() {
                let Ok(line) = line else { break };
                let out = match i {
                    0 => "{\"id\":0,\"error\":\"shed\",\"detail\":\"full\"}\n".to_owned(),
                    1 => continue, // never answered
                    2 => format!("{}{}", reply_for(&line), "{\"id\":999,\"candidates\":[]}\n"),
                    _ => reply_for(&line),
                };
                writer.write_all(out.as_bytes()).expect("write");
            }
        });
        let mut stream = connect(&addr).expect("connect");
        let phase = Phase {
            pacing: Pacing::Closed { in_flight: 2 },
            duration: Duration::from_secs(5),
            max_ops: 6,
            grace: Duration::from_millis(300),
            keep_replies: 0,
            trace: false,
            id_stride: 1,
            id_offset: 0,
            source: lookups(),
        };
        let report = run_phase(&mut stream, phase, Instant::now());
        drop(stream);
        server.join().expect("server");
        assert_eq!(report.sent, 6);
        assert_eq!(report.errors, 1);
        assert_eq!(report.error_kinds, vec!["shed".to_owned()]);
        assert_eq!(report.unanswered, 1);
        assert_eq!(report.unmatched, 1);
        assert_eq!(report.ok(OpKind::Lookup), 4);
        assert_eq!(report.failed(), 3);
    }
}
