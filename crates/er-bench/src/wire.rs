//! The serve daemon's line-delimited JSON wire, as bytes on a socket:
//! the one writer that frames lines, the one capped reader that accepts
//! them, and a minimal client built on both halves' conventions.
//!
//! **A line reaches a socket through [`LineWriter`] only.** It sends a
//! line and its newline in one buffer with one `write_all`. Written as
//! two segments on a socket with Nagle's algorithm on, the 1-byte newline
//! is held until the line is ACKed, while the peer — waiting for that
//! newline — has nothing to piggy-back an ACK on and lets its delayed-ACK
//! timer (~40 ms) run out: every reply then costs one timer (DESIGN §13).
//!
//! [`WireClient`] is the client half both the merge proxy (talking to its
//! shard children) and the smoke tests (talking to any daemon) share. It
//! is deliberately dumb: no pooling, no retries, no protocol knowledge —
//! the caller owns the request/response framing policy. Every blocking
//! operation carries the connection's I/O deadline, so a wedged peer
//! surfaces as a `TimedOut`/`WouldBlock` error instead of a hang.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The longest request line a daemon accepts, newline excluded. Longer
/// lines are refused by [`LineReader`] before they are buffered whole.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A zero `Duration` would mean "no timeout" to the socket API; clamp to
/// something that still errors promptly.
fn socket_timeout(timeout: Duration) -> Duration {
    timeout.max(Duration::from_millis(1))
}

/// Frames lines onto a byte sink: each [`LineWriter::flush`] hands every
/// pending line, newlines included, to the sink in a single `write_all`.
///
/// A failed write latches the writer dead: the sink may hold a torn line,
/// so nothing more is ever written to it — later lines are dropped and
/// later flushes fail.
#[derive(Debug)]
pub struct LineWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
    dead: bool,
}

impl<W: Write> LineWriter<W> {
    /// Wraps `inner`; nothing is written until the first flush.
    pub fn new(inner: W) -> Self {
        LineWriter {
            inner,
            buf: Vec::new(),
            dead: false,
        }
    }

    /// The underlying sink.
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Queues one line (the newline is appended here) for the next flush.
    pub fn push(&mut self, line: &str) {
        debug_assert!(!line.contains('\n'), "wire lines are single lines");
        if !self.dead {
            self.buf.extend_from_slice(line.as_bytes());
            self.buf.push(b'\n');
        }
    }

    /// Writes every queued line in one `write_all`.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "an earlier write to this connection failed",
            ));
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        let written = self.inner.write_all(&self.buf);
        self.buf.clear();
        self.dead = written.is_err();
        written
    }

    /// Queues `line` and flushes: one line, one write.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.push(line);
        self.flush()
    }
}

impl LineWriter<TcpStream> {
    /// The write half of a socket a daemon accepted: `TCP_NODELAY` on
    /// (pipelined replies must not queue behind the peer's ACKs) and a
    /// write timeout, so a peer that stops reading fails the write
    /// instead of blocking the writing thread forever.
    pub fn accepted(stream: TcpStream, write_timeout: Duration) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(socket_timeout(write_timeout)))?;
        Ok(LineWriter::new(stream))
    }

    /// Shuts the socket down in both directions; the connection's reader
    /// sees EOF and winds down. The way out after a failed write: the
    /// peer went away or stopped reading, and the line may be torn.
    pub fn close(&self) {
        let _ = self.inner.shutdown(Shutdown::Both);
    }
}

/// Reads request lines with a hard length cap, into one reusable buffer:
/// a peer that never sends a newline costs at most [`MAX_LINE_BYTES`] of
/// memory, not whatever it cares to send.
#[derive(Debug)]
pub struct LineReader<R: Read> {
    inner: BufReader<R>,
    buf: Vec<u8>,
}

impl<R: Read> LineReader<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        LineReader {
            inner: BufReader::new(inner),
            buf: Vec::new(),
        }
    }

    /// The next line without its `\n` / `\r\n`; `Ok(None)` is EOF. A line
    /// longer than [`MAX_LINE_BYTES`] or not UTF-8 is an `InvalidData`
    /// error whose message is fit for a `bad-request` row; the stream is
    /// then mid-line and must be closed, not read on.
    pub fn read_line(&mut self) -> std::io::Result<Option<&str>> {
        self.buf.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        if (&mut self.inner)
            .take(limit)
            .read_until(b'\n', &mut self.buf)?
            == 0
        {
            return Ok(None);
        }
        if self.buf.last() == Some(&b'\n') {
            self.buf.pop();
            if self.buf.last() == Some(&b'\r') {
                self.buf.pop();
            }
        } else if self.buf.len() > MAX_LINE_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ));
        }
        match std::str::from_utf8(&self.buf) {
            Ok(line) => Ok(Some(line)),
            Err(_) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request line is not valid UTF-8",
            )),
        }
    }
}

/// One line-protocol connection to a serve daemon.
#[derive(Debug)]
pub struct WireClient {
    writer: LineWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl WireClient {
    /// Connects to `addr` within `timeout`, and applies the same bound
    /// to every later read and write on the connection.
    pub fn connect(addr: &str, timeout: Duration) -> std::io::Result<WireClient> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{addr:?} resolved to no address"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&resolved, timeout)?;
        stream.set_nodelay(true)?;
        let client = WireClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: LineWriter::new(stream),
        };
        client.set_io_timeout(Some(timeout))?;
        Ok(client)
    }

    /// Rebounds the per-operation I/O deadline (`None` blocks forever —
    /// only sensible in tests).
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        let timeout = timeout.map(socket_timeout);
        self.writer.get_ref().set_read_timeout(timeout)?;
        self.writer.get_ref().set_write_timeout(timeout)
    }

    /// Writes one request line (the newline is appended here).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.send(line)
    }

    /// Reads one response line. `Ok(None)` is a clean EOF (the peer
    /// closed); a deadline expiry is an `Err` of kind
    /// `TimedOut`/`WouldBlock`.
    pub fn recv_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        match self.reader.read_line(&mut line)? {
            0 => Ok(None),
            _ => {
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                Ok(Some(line))
            }
        }
    }

    /// One request/response exchange; EOF mid-exchange is an error (the
    /// daemon answers every request it read).
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.send_line(line)?;
        self.recv_line()?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the response line",
            )
        })
    }

    /// Half-closes the write side, signalling the daemon this client is
    /// done sending (its reader sees EOF and can wind the connection
    /// down after answering what it read).
    pub fn finish_writes(&self) -> std::io::Result<()> {
        self.writer.get_ref().shutdown(Shutdown::Write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// An echo peer speaking one line per line, prefixed with `echo:`.
    fn echo_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                writer
                    .write_all(format!("echo:{line}\n").as_bytes())
                    .expect("write");
            }
        });
        (addr, handle)
    }

    #[test]
    fn roundtrips_lines_and_sees_eof() {
        let (addr, handle) = echo_server();
        let mut client =
            WireClient::connect(&addr.to_string(), Duration::from_secs(2)).expect("connect");
        assert_eq!(
            client.roundtrip(r#"{"row":1}"#).expect("roundtrip"),
            r#"echo:{"row":1}"#
        );
        assert_eq!(client.roundtrip("two").expect("roundtrip"), "echo:two");
        client.finish_writes().expect("shutdown write half");
        assert_eq!(client.recv_line().expect("eof"), None);
        handle.join().expect("server thread");
    }

    #[test]
    fn connect_to_dead_port_errors_not_hangs() {
        // Bind-then-drop guarantees the port is closed.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let err = WireClient::connect(&addr.to_string(), Duration::from_millis(500))
            .expect_err("closed port");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::TimedOut
            ),
            "{err}"
        );
    }

    #[test]
    fn read_deadline_expires_instead_of_hanging() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // Accept but never answer.
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_millis(400));
            drop(stream);
        });
        let mut client =
            WireClient::connect(&addr.to_string(), Duration::from_millis(100)).expect("connect");
        let err = client
            .roundtrip("ping")
            .expect_err("no answer within deadline");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ),
            "{err}"
        );
        handle.join().expect("server thread");
    }

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingSink {
        writes: Vec<Vec<u8>>,
        fail: bool,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.fail {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn line_writer_issues_one_write_per_line_and_per_batch() {
        let mut writer = LineWriter::new(CountingSink::default());
        writer.send(r#"{"id":1}"#).expect("send");
        assert_eq!(writer.get_ref().writes, [b"{\"id\":1}\n".to_vec()]);

        // A coalesced batch: three lines, one write, bytes == line + "\n" each.
        let lines = [r#"{"id":2,"row":5}"#, "", r#"{"id":3}"#];
        for line in lines {
            writer.push(line);
        }
        writer.flush().expect("flush");
        let want: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert_eq!(writer.get_ref().writes.len(), 2, "one write for the batch");
        assert_eq!(writer.get_ref().writes[1], want.as_bytes());

        // Nothing pending, nothing written.
        writer.flush().expect("empty flush");
        assert_eq!(writer.get_ref().writes.len(), 2);
    }

    #[test]
    fn line_writer_goes_dead_after_a_failed_write() {
        let mut writer = LineWriter::new(CountingSink {
            fail: true,
            ..CountingSink::default()
        });
        assert!(writer.send("first").is_err());
        // The sink recovers, the writer must not: the line may be torn.
        writer.inner.fail = false;
        assert!(writer.send("second").is_err());
        assert!(writer.get_ref().writes.is_empty(), "no write after failure");
        assert!(writer.buf.is_empty(), "dropped lines are not retained");
    }

    #[test]
    fn line_reader_strips_terminators_and_yields_the_unterminated_tail() {
        let mut reader = LineReader::new(&b"one\r\n\ntwo\nthree"[..]);
        assert_eq!(reader.read_line().expect("line"), Some("one"));
        assert_eq!(reader.read_line().expect("line"), Some(""));
        assert_eq!(reader.read_line().expect("line"), Some("two"));
        assert_eq!(reader.read_line().expect("line"), Some("three"));
        assert_eq!(reader.read_line().expect("eof"), None);
    }

    #[test]
    fn line_reader_caps_length_and_rejects_non_utf8() {
        // Exactly at the cap is a line; one byte over is refused without
        // waiting for a newline that may never come.
        let mut at_cap = vec![b'a'; MAX_LINE_BYTES];
        at_cap.push(b'\n');
        let mut reader = LineReader::new(&at_cap[..]);
        assert_eq!(
            reader.read_line().expect("line").map(str::len),
            Some(MAX_LINE_BYTES)
        );

        let over = vec![b'a'; 8 * MAX_LINE_BYTES];
        let mut reader = LineReader::new(&over[..]);
        let err = reader.read_line().expect_err("over the cap");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(
            reader.buf.capacity() <= 2 * MAX_LINE_BYTES,
            "the over-long line is never buffered whole"
        );

        let mut reader = LineReader::new(&b"ok\n\xff\xfe\n"[..]);
        assert_eq!(reader.read_line().expect("line"), Some("ok"));
        let err = reader.read_line().expect_err("not utf-8");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }
}
