//! Running the real binaries: `er serve` / `er supervise` daemons on
//! `127.0.0.1:0`, and one-shot `er sweep` commands.
//!
//! Every daemon is its own process group, so the whole tree (a
//! supervisor and its children) can be measured and, on any failure
//! path, killed as one: dropping a [`Daemon`] that was not stopped
//! cleanly `SIGKILL`s the group.

use crate::json::Value;
use crate::loadgen;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

mod sys {
    extern "C" {
        pub fn kill(pid: i32, sig: i32) -> i32;
    }
}

fn signal(pid: i32, sig: i32) -> bool {
    // SAFETY: kill(2) takes two integers and touches no memory of ours;
    // a stale or negative (group) pid is an error return, not UB.
    unsafe { sys::kill(pid, sig) == 0 }
}

/// A running daemon that printed its `serving on <addr>` banner.
pub struct Daemon {
    child: Child,
    pub addr: String,
    stderr: Arc<Mutex<String>>,
    stderr_thread: Option<std::thread::JoinHandle<()>>,
    stopped: bool,
}

/// How long a daemon may take from spawn to banner.
const BANNER_TIMEOUT: Duration = Duration::from_secs(120);

impl Daemon {
    /// Spawns `er <args>` and waits for the banner. The caller times
    /// this call: it is the daemon's boot.
    pub fn spawn(er_bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(er_bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", er_bin.display()))?;

        let stderr = Arc::new(Mutex::new(String::new()));
        let pipe = child.stderr.take().expect("stderr was piped");
        let sink = Arc::clone(&stderr);
        let stderr_thread = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                let mut buf = sink.lock().expect("stderr sink");
                buf.push_str(&line);
                buf.push('\n');
            }
        });

        // The banner is the first stdout line; read it off-thread so a
        // daemon that dies silently cannot hang the benchmark.
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel::<String>();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut banner = String::new();
            let _ = reader.read_line(&mut banner);
            let _ = tx.send(banner);
            // Keep draining so the daemon never blocks on a full pipe.
            let mut sink = String::new();
            while reader.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr,
            stderr_thread: Some(stderr_thread),
            stopped: false,
        };
        let banner = rx
            .recv_timeout(BANNER_TIMEOUT)
            .map_err(|_| format!("no banner within {BANNER_TIMEOUT:?}"))?;
        match banner.trim().strip_prefix("serving on ") {
            Some(addr) => {
                daemon.addr = addr.to_owned();
                Ok(daemon)
            }
            None => {
                // Give the stderr collector a moment to see the reason.
                let _ = daemon.child.wait();
                std::thread::sleep(Duration::from_millis(50));
                Err(format!(
                    "daemon printed {banner:?} instead of a banner; stderr:\n{}",
                    daemon.stderr_text()
                ))
            }
        }
    }

    pub fn stderr_text(&self) -> String {
        self.stderr.lock().expect("stderr sink").clone()
    }

    /// One `{"op":"health"}` round trip on a fresh connection.
    pub fn health(&self) -> Result<Value, String> {
        let mut conn = loadgen::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let reply = loadgen::roundtrip(&mut conn, r#"{"op":"health"}"#, Duration::from_secs(10))?;
        if reply.bool("ok") == Some(true) {
            Ok(reply)
        } else {
            Err(format!("health answered {}", reply.encode()))
        }
    }

    /// `VmHWM` summed over every live process of this daemon's group,
    /// in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        group_peak_rss_kib(self.child.id()) as f64 / 1024.0
    }

    /// `SIGTERM` to the daemon process, then wait for it to drain and
    /// exit. Returns the exit status and how long the drain took.
    pub fn terminate(mut self) -> Result<(ExitStatus, Duration, String), String> {
        let start = Instant::now();
        if !signal(self.child.id() as i32, SIGTERM) {
            return Err("daemon was already gone at SIGTERM".to_owned());
        }
        let deadline = start + Duration::from_secs(60);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("daemon ignored SIGTERM for 60 s".to_owned()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        };
        let took = start.elapsed();
        self.stopped = true;
        if let Some(t) = self.stderr_thread.take() {
            let _ = t.join();
        }
        Ok((status, took, self.stderr_text()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.stopped {
            // Failure path: take the whole group down and reap the leader.
            signal(-(self.child.id() as i32), SIGKILL);
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sums `VmHWM` (KiB) over the live processes whose process group is
/// `pgid`, by walking `/proc`.
fn group_peak_rss_kib(pgid: u32) -> u64 {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // Fields after the parenthesised command: state ppid pgrp ...
        let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
            continue;
        };
        let pgrp = rest
            .split_whitespace()
            .nth(2)
            .and_then(|s| s.parse::<u32>().ok());
        if pgrp == Some(pgid) {
            total += vm_hwm_kib(pid).unwrap_or(0);
        }
    }
    total
}

/// `VmHWM` of one process in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// What a finished one-shot command left behind.
pub struct Finished {
    pub status: ExitStatus,
    /// Spawn to exit, from a blocking `wait`.
    pub wall: Duration,
    /// Highest `VmHWM` seen while it ran, MiB (sampled every 5 ms from a
    /// side thread: `/proc` forgets it once the process has exited).
    pub peak_rss_mib: f64,
    pub stderr: String,
}

/// How long a one-shot command may run before its group is killed.
const ONE_SHOT_LIMIT: Duration = Duration::from_secs(170);

/// Runs `er <args>` to completion, sampling its peak RSS from outside.
pub fn run_to_completion(er_bin: &Path, args: &[String]) -> Result<Finished, String> {
    let start = Instant::now();
    let mut child = Command::new(er_bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .process_group(0)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", er_bin.display()))?;
    let pid = child.id();
    // Read stderr off-thread so the child never blocks on a full pipe.
    let mut pipe = child.stderr.take().expect("stderr was piped");
    let err = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = std::io::Read::read_to_string(&mut pipe, &mut text);
        text
    });
    // The side thread samples memory and is the watchdog; this thread
    // blocks in `wait`, so the wall time is not rounded up to a poll.
    let (done, exited) = mpsc::channel::<()>();
    let sampler = std::thread::spawn(move || {
        let mut peak_kib = 0u64;
        loop {
            if let Some(kib) = vm_hwm_kib(pid) {
                peak_kib = peak_kib.max(kib);
            }
            match exited.recv_timeout(Duration::from_millis(5)) {
                Err(mpsc::RecvTimeoutError::Timeout) if start.elapsed() < ONE_SHOT_LIMIT => {}
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    signal(-(pid as i32), SIGKILL);
                    return (peak_kib, true);
                }
                _ => return (peak_kib, false),
            }
        }
    });
    let status = child.wait();
    let wall = start.elapsed();
    drop(done);
    let (peak_kib, killed) = sampler.join().expect("sampler thread");
    if killed {
        return Err(format!("er {} ran past {ONE_SHOT_LIMIT:?}", args.join(" ")));
    }
    Ok(Finished {
        status: status.map_err(|e| format!("wait: {e}"))?,
        wall,
        peak_rss_mib: peak_kib as f64 / 1024.0,
        stderr: err.join().unwrap_or_default(),
    })
}
