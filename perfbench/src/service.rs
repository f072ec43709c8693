//! One client connection to `rh-cli serve --workers 2`, run as a child
//! process over its stdin/stdout jsonl protocol.

use crate::config::PARALLELISM;
use crate::sys;
use rh_cli::proto::ClientMsg;
use rh_cli::SweepConfig;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long an abandoned service may take to finish its job and exit.
const STOP_GRACE: Duration = Duration::from_secs(20);

pub struct Service {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Service {
    /// Start the service and return it with its start time: from spawning
    /// the coordinator until it answers a client hello. The coordinator
    /// reads its first client line only after both workers have said hello,
    /// so the reply marks the point where the whole pool is live.
    pub fn start(rh_cli: &Path) -> Result<(Self, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(rh_cli)
            .args(["serve", "--workers", &PARALLELISM.to_string()])
            // The in-process sweeps run with a fixed mmap threshold so that
            // each job touches fresh pages; the service must run warm, with
            // the allocator's defaults.
            .env_remove("MALLOC_MMAP_THRESHOLD_")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", rh_cli.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut service = Self {
            child,
            stdin: Some(stdin),
            stdout,
        };
        let hello = ClientMsg::Hello {
            auth_nonce: 0,
            auth_proof: String::new(),
        };
        let reply = service.request(&hello.encode())?;
        let elapsed = started.elapsed();
        if reply.trim() != "{\"type\":\"hello_ok\"}" {
            return Err(format!("unexpected hello reply: {reply}"));
        }
        Ok((service, elapsed))
    }

    /// Write one line and read the reply line.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().expect("stdin open until stop");
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("send to service: {e}"))?;
        let mut reply = String::new();
        match self.stdout.read_line(&mut reply) {
            Ok(0) => Err("service closed its output".to_string()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("read from service: {e}")),
        }
    }

    /// The submit line for `cfg`.
    pub fn submit_line(id: &str, cfg: &SweepConfig) -> String {
        ClientMsg::Submit {
            id: Some(id.to_string()),
            config: cfg.clone(),
            deadline_ms: None,
        }
        .encode()
    }

    /// Summed peak resident memory of the coordinator and its live workers,
    /// KiB. A worker that died is missing from the sum; the jobs it failed
    /// are counted by the output checks.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let coordinator = self.child.id();
        std::iter::once(coordinator)
            .chain(sys::children_of(coordinator))
            .map(|pid| sys::peak_rss_kib(&pid.to_string()))
            .sum()
    }

    /// Close the connection and wait for the coordinator, which reaps its
    /// workers before it exits.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for service: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("service exited with {status}"))
        }
    }
}

impl Drop for Service {
    /// A service abandoned on an error path is asked to stop the way
    /// [`Service::stop`] asks, so the coordinator still reaps its workers;
    /// one that has not exited within [`STOP_GRACE`] is killed.
    fn drop(&mut self) {
        if self.stdin.take().is_none() {
            return;
        }
        let deadline = Instant::now() + STOP_GRACE;
        while Instant::now() < deadline {
            if !matches!(self.child.try_wait(), Ok(None)) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
