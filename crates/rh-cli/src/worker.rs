//! `rh-cli worker` — the execution half of the distributed sweep service.
//!
//! A worker is deliberately dumb: it connects to a coordinator (over the
//! stdio pipes the coordinator spawned it with, or a TCP stream when
//! started with `--connect`), announces itself with a versioned `hello`
//! line, and then serves shard leases one at a time. Each lease carries the
//! *normalized config plus cell indices* — positions in the sweep's one
//! cell list (`sweep::sweep_cells`) — and the worker hands both to the
//! lease runner the coordinator's in-process fallback also uses
//! (`exec::run_lease`): it re-expands the plan locally (a pure function of
//! the config, seeds included), folds the leased cells into units and runs
//! them through the very same [`crate::exec`] machinery the in-process
//! sweep uses. Per-cell results stream back as each unit completes
//! (bit-exact: floats travel as IEEE bit patterns), so the coordinator can
//! merge and checkpoint incrementally and a dying worker loses at most the
//! unit it was computing.
//!
//! ## Supervised lifecycle
//!
//! The hello carries [`crate::proto::PROTO_VERSION`] and the worker's
//! [`crate::MODEL_ID`]; a coordinator with a different version or model
//! answers with a terminal `reject` line instead of a lease, and the worker
//! exits nonzero — skew fails at attach time, never as garbage in a merge.
//! The hello proves nothing about who the worker is: any process that can
//! reach a coordinator's `--listen` address can attach and serve leases,
//! so that address belongs on loopback or a trusted network. While a
//! shard executes, a side thread pulses `heartbeat` lines
//! (under the shared writer lock, so lines never interleave) letting the
//! coordinator tell a long-running cell from a dead socket. With
//! `--retry N`, a failed connect or a dropped connection is retried with
//! seeded, capped exponential backoff — but a `reject` is never retried.
//!
//! ## Mid-shard cancellation
//!
//! Incoming lines are drained by a dedicated reader thread into a small
//! queue, so a `cancel` sent while a shard executes is visible *between
//! units*: the worker abandons the remaining cells of that lease, answers
//! with `cancel_ack`, and goes back to waiting for leases. Without the
//! reader thread the worker would not touch its socket until the whole
//! shard had streamed — a cancelled job would keep burning CPU for the
//! full lease.
//!
//! ## Fault injection
//!
//! `--fault-plan` (see [`crate::faults`]) schedules deterministic crashes
//! (`crash-after-cells=N`), injected stalls, dropped/garbled protocol
//! lines, and delayed greetings. Heartbeats are exempt from line counting
//! so the schedule stays deterministic regardless of timing.
//!
//! The worker runs the settle kernel [`rh_core::Kernel::auto`] picks on its
//! own CPU and environment (`RH_FORCE_SCALAR` forces scalar) and names it
//! in its hello, which is what the coordinator records for it.

use crate::exec::run_lease;
use crate::faults::{CellFate, FaultPlan, LineFate};
use crate::proto::{read_line, write_line, FromWorker, ToWorker, PROTO_VERSION};
use rh_core::{derive_seed, Kernel, SplitMix64};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Interval between heartbeat pulses while a shard is executing.
const HEARTBEAT_MS: u64 = 500;

/// Ceiling for one reconnect backoff step.
const BACKOFF_CAP_MS: u64 = 10_000;

/// Parsed `rh-cli worker` options.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address to attach to over TCP; `None` means the worker
    /// was spawned by a local coordinator and speaks over stdio.
    pub connect: Option<String>,
    /// Deterministic fault schedule for this worker's connections.
    pub fault_plan: FaultPlan,
    /// Reconnect attempts after a failed connect or dropped connection
    /// (`--connect` mode only). 0 = give up immediately, as before.
    pub retries: u32,
    /// Base of the exponential reconnect backoff.
    pub backoff_base_ms: u64,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            connect: None,
            fault_plan: FaultPlan::default(),
            retries: 0,
            backoff_base_ms: 200,
        }
    }
}

/// How a worker session over one connection ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEnd {
    /// The coordinator said `shutdown`: done for good.
    Shutdown,
    /// The coordinator hung up without a shutdown (crash or restart) — a
    /// reconnect candidate when retries remain.
    Eof,
    /// The fault plan's scheduled crash fired: die like a crash would.
    Crashed,
    /// The coordinator refused the hello (version or model skew).
    /// Terminal: retrying cannot heal it.
    Rejected(String),
}

/// Per-session knobs threaded into [`worker_loop`] (kept separate from
/// [`WorkerOptions`] so in-memory tests can pin the heartbeat cadence).
#[derive(Debug, Clone)]
pub struct SessionOptions {
    pub heartbeat_interval: Duration,
}

impl Default for SessionOptions {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(HEARTBEAT_MS),
        }
    }
}

/// Entry point for `rh-cli worker`.
pub fn run_worker(opts: &WorkerOptions) -> Result<(), String> {
    let session = SessionOptions::default();
    match &opts.connect {
        Some(addr) => {
            let mut backoff_rng = SplitMix64::new(derive_seed(opts.fault_plan.seed(), &[0xB0FF]));
            let mut attempt: u32 = 0;
            loop {
                // A silent hangup (EOF without shutdown) or a failed
                // connect is retryable; a reject never is.
                let retryable_err = match connect_session(addr, &session, opts.fault_plan.clone()) {
                    Ok(SessionEnd::Shutdown | SessionEnd::Crashed) => return Ok(()),
                    Ok(SessionEnd::Rejected(reason)) => {
                        return Err(format!(
                            "worker: coordinator rejected this worker: {reason}"
                        ))
                    }
                    Ok(SessionEnd::Eof) => None,
                    Err(e) => Some(e),
                };
                if attempt >= opts.retries {
                    return match retryable_err {
                        None => Ok(()),
                        Some(e) => Err(e),
                    };
                }
                if let Some(e) = &retryable_err {
                    eprintln!(
                        "worker: attempt {}/{} failed ({e}), backing off",
                        attempt + 1,
                        opts.retries + 1
                    );
                }
                let base = opts.backoff_base_ms.max(1);
                let step = base
                    .checked_shl(attempt.min(16))
                    .unwrap_or(u64::MAX)
                    .min(BACKOFF_CAP_MS);
                let jitter = backoff_rng.gen_range(base);
                std::thread::sleep(Duration::from_millis(step + jitter));
                attempt += 1;
            }
        }
        None => {
            // `Stdin`/`Stdout` handles (not the locks) because the reader
            // and heartbeat threads need them to be `Send`; each access
            // locks internally.
            let stdin = BufReader::new(std::io::stdin());
            let stdout = std::io::stdout();
            let mut plan = opts.fault_plan.clone();
            match worker_loop(stdin, stdout, &session, &mut plan)? {
                SessionEnd::Rejected(reason) => Err(format!(
                    "worker: coordinator rejected this worker: {reason}"
                )),
                _ => Ok(()),
            }
        }
    }
}

fn connect_session(
    addr: &str,
    session: &SessionOptions,
    mut plan: FaultPlan,
) -> Result<SessionEnd, String> {
    let stream =
        TcpStream::connect(addr).map_err(|e| format!("worker: cannot connect to {addr}: {e}"))?;
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("worker: clone stream: {e}"))?,
    );
    // Handle the session-end teardown uses to unblock the reader thread:
    // a full socket shutdown turns its blocked read into EOF and sends the
    // peer a FIN, so a crashed/finished session is visible immediately even
    // when this worker runs inside a long-lived process.
    let teardown = stream
        .try_clone()
        .map_err(|e| format!("worker: clone stream: {e}"))?;
    let unblock: UnblockReader = Box::new(move || {
        let _ = teardown.shutdown(std::net::Shutdown::Both);
    });
    worker_loop_with(reader, stream, session, &mut plan, Some(unblock))
}

/// Heartbeat coordination between the protocol loop and its pulse thread:
/// which lease is active (if any), and the stop flag for teardown.
struct BeatState {
    active: Option<(u64, u64)>,
    stop: bool,
}

/// Decoded coordinator lines, drained off the transport by the reader
/// thread. `run_shard` scans this queue for a mid-shard `cancel` between
/// units; the protocol loop pops everything else in order.
struct Incoming {
    queue: VecDeque<Result<ToWorker, String>>,
    /// The transport hit EOF or a terminal read/decode error; nothing more
    /// will be queued.
    closed: bool,
}

type Inbox = Arc<(Mutex<Incoming>, Condvar)>;

/// Hook that unblocks the reader thread's pending read at session end
/// (TCP: a full socket shutdown). Transports whose reader unblocks on its
/// own (in-memory cursors, process-exit stdio) pass `None`.
type UnblockReader = Box<dyn FnOnce() + Send>;

/// Pop the next coordinator message in order; `Ok(None)` on clean EOF.
fn next_msg(inbox: &Inbox) -> Result<Option<ToWorker>, String> {
    let (lock, wake) = &**inbox;
    let mut st = lock.lock().unwrap();
    loop {
        if let Some(msg) = st.queue.pop_front() {
            return msg.map(Some);
        }
        if st.closed {
            return Ok(None);
        }
        st = wake.wait(st).unwrap();
    }
}

/// Remove and report a queued `cancel` for `job`, leaving every other
/// message (later leases, the shutdown) untouched and in order.
fn take_cancel(inbox: &Inbox, job: u64) -> bool {
    let mut st = inbox.0.lock().unwrap();
    let hit = st
        .queue
        .iter()
        .position(|m| matches!(m, Ok(ToWorker::Cancel { job: j }) if *j == job));
    match hit {
        Some(at) => {
            st.queue.remove(at);
            true
        }
        None => false,
    }
}

/// The worker protocol loop over any line-oriented transport. Returns how
/// the session ended; `Err` is reserved for transport/protocol failures.
pub fn worker_loop<R, W>(
    reader: R,
    writer: W,
    session: &SessionOptions,
    plan: &mut FaultPlan,
) -> Result<SessionEnd, String>
where
    R: BufRead + Send + 'static,
    W: Write + Send,
{
    worker_loop_with(reader, writer, session, plan, None)
}

fn worker_loop_with<R, W>(
    mut reader: R,
    writer: W,
    session: &SessionOptions,
    plan: &mut FaultPlan,
    unblock: Option<UnblockReader>,
) -> Result<SessionEnd, String>
where
    R: BufRead + Send + 'static,
    W: Write + Send,
{
    if let Some(delay) = plan.connect_delay() {
        std::thread::sleep(delay);
    }

    let writer = Mutex::new(writer);
    let beat = Mutex::new(BeatState {
        active: None,
        stop: false,
    });
    let beat_wake = Condvar::new();

    let inbox: Inbox = Arc::new((
        Mutex::new(Incoming {
            queue: VecDeque::new(),
            closed: false,
        }),
        Condvar::new(),
    ));
    // The reader runs unscoped with an owned transport half: it must be
    // free to sit in a blocked read while the session ends (the `unblock`
    // hook or process exit releases it), which a scoped join could not
    // tolerate.
    let reader_inbox = Arc::clone(&inbox);
    std::thread::spawn(move || loop {
        let (done, item) = match read_line(&mut reader) {
            Ok(Some(line)) => {
                let msg = ToWorker::decode(&line);
                (msg.is_err(), Some(msg))
            }
            Ok(None) => (true, None),
            Err(e) => (true, Some(Err(format!("worker: read: {e}")))),
        };
        let (lock, wake) = &*reader_inbox;
        let mut st = lock.lock().unwrap();
        if let Some(item) = item {
            st.queue.push_back(item);
        }
        if done {
            st.closed = true;
        }
        wake.notify_all();
        if st.closed {
            return;
        }
    });

    let out = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut st = beat.lock().unwrap();
            loop {
                // Predicate before wait: on a loaded host the session can
                // finish (and notify) before this thread first blocks, and
                // a lost wakeup here would pin the join for a full
                // heartbeat interval.
                if st.stop {
                    return;
                }
                let (next, _) = beat_wake
                    .wait_timeout(st, session.heartbeat_interval)
                    .unwrap();
                st = next;
                if st.stop {
                    return;
                }
                if let Some((job, shard)) = st.active {
                    // Heartbeats bypass the fault plan: line numbering must
                    // not depend on timing. A write error here just means
                    // the main loop is about to find out too.
                    let pulse = FromWorker::Heartbeat { job, shard }.encode();
                    let _ = write_line(&mut *writer.lock().unwrap(), &pulse);
                }
            }
        });

        let result = (|| {
            let hello = FromWorker::Hello {
                kernel: Kernel::auto().name().to_string(),
                pid: u64::from(std::process::id()),
                proto_version: PROTO_VERSION,
                model: crate::MODEL_ID,
            };
            send(&writer, plan, &hello.encode()).map_err(|e| format!("worker: hello: {e}"))?;

            loop {
                match next_msg(&inbox)? {
                    // Coordinator hung up without a shutdown.
                    None => return Ok(SessionEnd::Eof),
                    Some(ToWorker::Shutdown) => return Ok(SessionEnd::Shutdown),
                    Some(ToWorker::Reject { reason }) => return Ok(SessionEnd::Rejected(reason)),
                    // A cancel for a lease this worker no longer holds (it
                    // finished before the cancel arrived): nothing to
                    // abandon, nothing to ack.
                    Some(ToWorker::Cancel { .. }) => {}
                    Some(ToWorker::Shard {
                        job,
                        shard,
                        indices,
                        config,
                    }) => {
                        beat.lock().unwrap().active = Some((job, shard));
                        let alive = run_shard(&writer, &inbox, plan, job, shard, &indices, &config);
                        beat.lock().unwrap().active = None;
                        if !alive? {
                            // Scheduled crash: die by dropping the
                            // connection, exactly like a real crash.
                            return Ok(SessionEnd::Crashed);
                        }
                    }
                }
            }
        })();

        beat.lock().unwrap().stop = true;
        beat_wake.notify_all();
        result
    });
    // Unblock (and thereby retire) the reader thread before handing the
    // session end to the caller — over TCP this also sends the FIN that
    // makes a fault-injected crash observable to the coordinator.
    if let Some(unblock) = unblock {
        unblock();
    }
    out
}

/// Write one protocol line through the fault plan (which may drop or garble
/// it). Heartbeats never pass through here.
fn send<W: Write>(writer: &Mutex<W>, plan: &mut FaultPlan, line: &str) -> std::io::Result<()> {
    match plan.on_line(line) {
        LineFate::Send => write_line(&mut *writer.lock().unwrap(), line),
        LineFate::Drop => Ok(()),
        LineFate::Garble(garbled) => write_line(&mut *writer.lock().unwrap(), &garbled),
    }
}

/// Execute one lease, streaming results. Returns `Ok(false)` when the fault
/// plan's crash fired (the caller drops the connection), `Ok(true)` after a
/// clean `shard_done`, `fail`, or acknowledged mid-shard cancel.
fn run_shard<W: Write>(
    writer: &Mutex<W>,
    inbox: &Inbox,
    plan: &mut FaultPlan,
    job: u64,
    shard: u64,
    indices: &[usize],
    config: &crate::sweep::SweepConfig,
) -> Result<bool, String> {
    let mut units = match run_lease(config, indices) {
        Ok(units) => units,
        Err(message) => {
            let msg = FromWorker::Fail {
                job,
                shard,
                message,
            };
            send(writer, plan, &msg.encode()).map_err(|e| format!("worker: write: {e}"))?;
            return Ok(true);
        }
    };
    loop {
        // Cancellation is checked between simulations: a `cancel` queued
        // by the reader thread abandons the rest of the lease immediately,
        // and the ack tells the coordinator not to requeue it.
        if take_cancel(inbox, job) {
            let ack = FromWorker::CancelAck { job, shard };
            send(writer, plan, &ack.encode()).map_err(|e| format!("worker: write: {e}"))?;
            return Ok(true);
        }
        let Some(done) = units.next() else { break };
        for (index, result) in done {
            let msg = FromWorker::Cell {
                job,
                shard,
                index,
                result,
            };
            send(writer, plan, &msg.encode()).map_err(|e| format!("worker: write: {e}"))?;
            match plan.on_cell() {
                CellFate::Continue => {}
                CellFate::Stall(pause) => std::thread::sleep(pause),
                CellFate::Crash => return Ok(false),
            }
        }
    }
    let done = FromWorker::ShardDone { job, shard };
    send(writer, plan, &done.encode()).map_err(|e| format!("worker: write: {e}"))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SweepPlan;
    use crate::proto;
    use crate::sweep::{sweep_cells, SweepConfig};
    use std::io::Cursor;

    fn small_config() -> SweepConfig {
        SweepConfig {
            activations: 2_000,
            hc_firsts: vec![500],
            sides: vec![2],
            para_probabilities: vec![0.0],
            geometry: rh_core::Geometry::tiny(64),
            ..SweepConfig::default()
        }
    }

    /// A session whose heartbeat can never fire, so scripted outputs stay
    /// exactly the protocol lines.
    fn quiet_session() -> SessionOptions {
        SessionOptions {
            heartbeat_interval: Duration::from_secs(3_600),
        }
    }

    /// Drive the loop in-memory: feed scripted coordinator lines, collect
    /// the worker's output lines.
    fn drive_plan(script: &[String], mut plan: FaultPlan) -> (Vec<FromWorker>, SessionEnd) {
        let input = script.join("\n") + "\n";
        let mut out: Vec<u8> = Vec::new();
        let end = worker_loop(
            Cursor::new(input.into_bytes()),
            &mut out,
            &quiet_session(),
            &mut plan,
        )
        .unwrap();
        let msgs = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| FromWorker::decode(l).unwrap())
            .collect();
        (msgs, end)
    }

    fn drive(script: &[String], plan: FaultPlan) -> Vec<FromWorker> {
        drive_plan(script, plan).0
    }

    #[test]
    fn worker_says_hello_and_obeys_shutdown() {
        let (msgs, end) = drive_plan(&[ToWorker::Shutdown.encode()], FaultPlan::default());
        assert_eq!(msgs.len(), 1);
        assert!(matches!(&msgs[0], FromWorker::Hello { .. }));
        assert_eq!(end, SessionEnd::Shutdown);
    }

    /// A lease of every cell of the sweep's list, grid and PARA sweep,
    /// streams each result bit-exactly under its list position.
    #[test]
    fn worker_executes_a_shard_bit_exactly() {
        let cfg = small_config();
        let plan = SweepPlan::from_config(&cfg).unwrap();
        let cells = sweep_cells(&plan);
        let reference = crate::exec::execute_cells(&plan, &cells, 1);
        let lease = ToWorker::Shard {
            job: 1,
            shard: 0,
            indices: (0..cells.len()).collect(),
            config: cfg,
        };
        let msgs = drive(
            &[lease.encode(), ToWorker::Shutdown.encode()],
            FaultPlan::default(),
        );
        let cells: Vec<_> = msgs
            .iter()
            .filter_map(|m| match m {
                FromWorker::Cell { index, result, .. } => Some((*index, result.clone())),
                _ => None,
            })
            .collect();
        let mut streamed: Vec<usize> = cells.iter().map(|(index, _)| *index).collect();
        streamed.sort_unstable();
        assert_eq!(streamed, (0..reference.len()).collect::<Vec<_>>());
        for (index, result) in &cells {
            let want = &reference[*index];
            assert_eq!(result.total_flips, want.total_flips);
            assert_eq!(
                result.flips_per_mact.to_bits(),
                want.flips_per_mact.to_bits(),
                "cell {index} must cross the codec bit-exactly"
            );
        }
        assert!(
            msgs.iter().any(|m| matches!(
                m,
                FromWorker::ShardDone {
                    job: 1,
                    shard: 0,
                    ..
                }
            )),
            "shard must be closed by shard_done"
        );
    }

    #[test]
    fn crash_fault_drops_connection_mid_shard() {
        let cfg = small_config();
        let plan = SweepPlan::from_config(&cfg).unwrap();
        assert!(plan.grid.len() > 3);
        let lease = ToWorker::Shard {
            job: 1,
            shard: 0,
            indices: (0..plan.grid.len()).collect(),
            config: cfg,
        };
        let (msgs, end) = drive_plan(
            &[lease.encode(), ToWorker::Shutdown.encode()],
            FaultPlan::parse("crash-after-cells=3").unwrap(),
        );
        assert_eq!(end, SessionEnd::Crashed);
        let cells = msgs
            .iter()
            .filter(|m| matches!(m, FromWorker::Cell { .. }))
            .count();
        assert_eq!(cells, 3, "exactly the scheduled cells must stream");
        assert!(
            !msgs
                .iter()
                .any(|m| matches!(m, FromWorker::ShardDone { .. })),
            "a crashed shard must not be acknowledged"
        );
    }

    #[test]
    fn drop_and_garble_faults_shape_the_stream() {
        let cfg = small_config();
        let total = SweepPlan::from_config(&cfg).unwrap().grid.len();
        assert!(total >= 3);
        let lease = ToWorker::Shard {
            job: 1,
            shard: 0,
            indices: (0..total).collect(),
            config: cfg,
        };
        // Line 1 is the hello; line 2 (the first cell) is dropped, line 3
        // (the second cell) is garbled.
        let input = [lease.encode(), ToWorker::Shutdown.encode()].join("\n") + "\n";
        let mut out: Vec<u8> = Vec::new();
        let mut plan = FaultPlan::parse("drop-line=2,garble-line=3").unwrap();
        worker_loop(
            Cursor::new(input.into_bytes()),
            &mut out,
            &quiet_session(),
            &mut plan,
        )
        .unwrap();
        let lines: Vec<String> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        // hello + (total - 1 surviving cell lines, one of them garbled) +
        // shard_done.
        assert_eq!(lines.len(), 1 + (total - 1) + 1);
        assert!(FromWorker::decode(&lines[0]).is_ok(), "hello survives");
        assert!(
            lines[1].starts_with('#'),
            "the garbled line must be visibly corrupt: {}",
            lines[1]
        );
        assert!(FromWorker::decode(&lines[1]).is_err());
        let decoded_cells = lines
            .iter()
            .filter(|l| matches!(FromWorker::decode(l), Ok(FromWorker::Cell { .. })))
            .count();
        assert_eq!(decoded_cells, total - 2, "one dropped, one garbled");
    }

    #[test]
    fn bad_lease_fails_cleanly_instead_of_crashing() {
        let lease = ToWorker::Shard {
            job: 9,
            shard: 2,
            indices: vec![usize::MAX],
            config: small_config(),
        };
        let msgs = drive(
            &[lease.encode(), ToWorker::Shutdown.encode()],
            FaultPlan::default(),
        );
        match &msgs[1] {
            FromWorker::Fail {
                job: 9,
                shard: 2,
                message,
            } => assert!(message.contains("out of bounds"), "{message}"),
            other => panic!("expected fail, got {other:?}"),
        }
    }

    #[test]
    fn hello_reports_kernel_version_and_model() {
        let input = ToWorker::Shutdown.encode() + "\n";
        let mut out: Vec<u8> = Vec::new();
        let mut plan = FaultPlan::default();
        worker_loop(
            Cursor::new(input.into_bytes()),
            &mut out,
            &quiet_session(),
            &mut plan,
        )
        .unwrap();
        let first = String::from_utf8(out)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .to_string();
        let FromWorker::Hello {
            kernel,
            pid,
            proto_version,
            model,
        } = FromWorker::decode(&first).unwrap()
        else {
            panic!("first line must be hello");
        };
        assert_eq!(kernel, Kernel::auto().name());
        assert_eq!(pid, u64::from(std::process::id()));
        assert_eq!(proto_version, PROTO_VERSION);
        assert_eq!(model, crate::MODEL_ID);
        // And the hello line is valid jsonl for the coordinator's parser.
        let reparsed = proto::parse(&first).unwrap();
        assert_eq!(
            reparsed.get("role").and_then(proto::Value::as_str),
            Some("worker")
        );
    }

    #[test]
    fn reject_ends_the_session_without_retrying() {
        let reject = ToWorker::Reject {
            reason: "model 0x0000000000000001 does not match coordinator model".into(),
        };
        let (msgs, end) = drive_plan(&[reject.encode()], FaultPlan::default());
        assert_eq!(msgs.len(), 1, "only the hello went out");
        let SessionEnd::Rejected(reason) = end else {
            panic!("expected rejection, got {end:?}");
        };
        assert!(reason.contains("model"), "{reason}");
    }

    #[test]
    fn heartbeats_pulse_while_a_shard_stalls() {
        let cfg = small_config();
        let lease = ToWorker::Shard {
            job: 5,
            shard: 11,
            indices: vec![0, 1],
            config: cfg,
        };
        let input = [lease.encode(), ToWorker::Shutdown.encode()].join("\n") + "\n";
        let mut out: Vec<u8> = Vec::new();
        let session = SessionOptions {
            heartbeat_interval: Duration::from_millis(20),
        };
        // Stall 400ms after the first cell: the pulse thread gets ~20
        // chances to fire while the lease is active.
        let mut plan = FaultPlan::parse("stall-after-cells=1,stall-ms=400").unwrap();
        worker_loop(
            Cursor::new(input.into_bytes()),
            &mut out,
            &session,
            &mut plan,
        )
        .unwrap();
        let beats = String::from_utf8(out)
            .unwrap()
            .lines()
            .filter(|l| {
                matches!(
                    FromWorker::decode(l),
                    Ok(FromWorker::Heartbeat { job: 5, shard: 11 })
                )
            })
            .count();
        assert!(beats >= 1, "a stalled shard must still pulse heartbeats");
    }

    #[test]
    fn cancel_abandons_the_lease_mid_shard_with_an_ack() {
        let cfg = small_config();
        let total = SweepPlan::from_config(&cfg).unwrap().grid.len();
        assert!(total > 2);
        let lease = ToWorker::Shard {
            job: 4,
            shard: 1,
            indices: (0..total).collect(),
            config: cfg,
        };
        // The stall guarantees the cancel (queued by the reader thread as
        // soon as the cursor drains) is visible at a cell boundary well
        // before the shard would finish.
        let (msgs, end) = drive_plan(
            &[
                lease.encode(),
                ToWorker::Cancel { job: 4 }.encode(),
                ToWorker::Shutdown.encode(),
            ],
            FaultPlan::parse("stall-after-cells=1,stall-ms=300").unwrap(),
        );
        assert_eq!(end, SessionEnd::Shutdown, "the session outlives the cancel");
        let cells = msgs
            .iter()
            .filter(|m| matches!(m, FromWorker::Cell { .. }))
            .count();
        assert!(cells < total, "the lease must be abandoned early: {cells}");
        assert!(
            msgs.iter()
                .any(|m| matches!(m, FromWorker::CancelAck { job: 4, shard: 1 })),
            "an abandoned lease must be acknowledged"
        );
        assert!(
            !msgs
                .iter()
                .any(|m| matches!(m, FromWorker::ShardDone { .. })),
            "a cancelled lease must not report shard_done"
        );
    }

    #[test]
    fn cancel_for_another_job_leaves_the_lease_alone() {
        let cfg = small_config();
        let total = SweepPlan::from_config(&cfg).unwrap().grid.len();
        let lease = ToWorker::Shard {
            job: 4,
            shard: 1,
            indices: (0..total).collect(),
            config: cfg,
        };
        let (msgs, end) = drive_plan(
            &[
                lease.encode(),
                ToWorker::Cancel { job: 99 }.encode(),
                ToWorker::Shutdown.encode(),
            ],
            FaultPlan::parse("stall-after-cells=1,stall-ms=100").unwrap(),
        );
        assert_eq!(end, SessionEnd::Shutdown);
        let cells = msgs
            .iter()
            .filter(|m| matches!(m, FromWorker::Cell { .. }))
            .count();
        assert_eq!(cells, total, "an unrelated cancel must not shed cells");
        assert!(msgs
            .iter()
            .any(|m| matches!(m, FromWorker::ShardDone { .. })));
        assert!(
            !msgs
                .iter()
                .any(|m| matches!(m, FromWorker::CancelAck { .. })),
            "nothing to acknowledge for a job this worker is not running"
        );
    }
}
