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
//! so that address belongs on loopback or a trusted network. A worker
//! never reconnects: it runs one session and exits, nonzero when the
//! connect fails or the connection breaks, 0 when the coordinator says
//! `shutdown` or hangs up. The coordinator requeues whatever a lost
//! worker's lease had not delivered, and relaunching the worker is the
//! recovery.
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
//! (`crash-after-cells=N`), injected stalls, and dropped/garbled protocol
//! lines, each at a fixed count of cells or lines.
//!
//! The worker runs the settle kernel [`rh_core::Kernel::auto`] picks on its
//! own CPU and environment (`RH_FORCE_SCALAR` forces scalar) and names it
//! in its hello, which is what the coordinator records for it.

use crate::exec::run_lease;
use crate::faults::{CellFate, FaultPlan, LineFate};
use crate::proto::{read_line, write_line, FromWorker, ToWorker, PROTO_VERSION};
use rh_core::Kernel;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};

/// Parsed `rh-cli worker` options.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Coordinator address to attach to over TCP; `None` means the worker
    /// was spawned by a local coordinator and speaks over stdio.
    pub connect: Option<String>,
    /// Deterministic fault schedule for this worker's connection.
    pub fault_plan: FaultPlan,
}

/// How a worker session over one connection ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEnd {
    /// The coordinator said `shutdown`: done for good.
    Shutdown,
    /// The coordinator hung up without a shutdown (crash or restart); the
    /// worker exits, and a worker started again attaches afresh.
    Eof,
    /// The fault plan's scheduled crash fired: die like a crash would.
    Crashed,
    /// The coordinator refused the hello (version or model skew).
    Rejected(String),
}

/// Entry point for `rh-cli worker`: one session over TCP or stdio.
pub fn run_worker(opts: &WorkerOptions) -> Result<(), String> {
    let mut plan = opts.fault_plan.clone();
    let end = match &opts.connect {
        Some(addr) => connect_session(addr, &mut plan)?,
        // `Stdin` (not its lock) because the reader thread needs it to be
        // `Send`; each read locks internally.
        None => worker_loop(
            BufReader::new(std::io::stdin()),
            std::io::stdout(),
            &mut plan,
        )?,
    };
    match end {
        SessionEnd::Rejected(reason) => Err(format!(
            "worker: coordinator rejected this worker: {reason}"
        )),
        SessionEnd::Shutdown | SessionEnd::Eof | SessionEnd::Crashed => Ok(()),
    }
}

fn connect_session(addr: &str, plan: &mut FaultPlan) -> Result<SessionEnd, String> {
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
    worker_loop_with(reader, stream, plan, Some(unblock))
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
pub fn worker_loop<R, W>(reader: R, writer: W, plan: &mut FaultPlan) -> Result<SessionEnd, String>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    worker_loop_with(reader, writer, plan, None)
}

fn worker_loop_with<R, W>(
    mut reader: R,
    mut writer: W,
    plan: &mut FaultPlan,
    unblock: Option<UnblockReader>,
) -> Result<SessionEnd, String>
where
    R: BufRead + Send + 'static,
    W: Write,
{
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

    let out = session(&mut writer, &inbox, plan);
    // Unblock (and thereby retire) the reader thread before handing the
    // session end to the caller — over TCP this also sends the FIN that
    // makes a fault-injected crash observable to the coordinator.
    if let Some(unblock) = unblock {
        unblock();
    }
    out
}

/// Say hello, then serve leases in order until the coordinator ends the
/// session, hangs up, or the fault plan's crash fires.
fn session<W: Write>(
    writer: &mut W,
    inbox: &Inbox,
    plan: &mut FaultPlan,
) -> Result<SessionEnd, String> {
    let hello = FromWorker::Hello {
        kernel: Kernel::auto().name().to_string(),
        proto_version: PROTO_VERSION,
        model: crate::MODEL_ID,
    };
    send(writer, plan, &hello.encode()).map_err(|e| format!("worker: hello: {e}"))?;
    loop {
        match next_msg(inbox)? {
            // Coordinator hung up without a shutdown.
            None => return Ok(SessionEnd::Eof),
            Some(ToWorker::Shutdown) => return Ok(SessionEnd::Shutdown),
            Some(ToWorker::Reject { reason }) => return Ok(SessionEnd::Rejected(reason)),
            // A cancel for a lease this worker no longer holds (it
            // finished before the cancel arrived): nothing to abandon,
            // nothing to ack.
            Some(ToWorker::Cancel { .. }) => {}
            Some(ToWorker::Shard {
                job,
                shard,
                indices,
                config,
            }) => {
                if !run_shard(writer, inbox, plan, job, shard, &indices, &config)? {
                    // Scheduled crash: die by dropping the connection,
                    // exactly like a real crash.
                    return Ok(SessionEnd::Crashed);
                }
            }
        }
    }
}

/// Write one protocol line through the fault plan (which may drop or garble
/// it).
fn send<W: Write>(writer: &mut W, plan: &mut FaultPlan, line: &str) -> std::io::Result<()> {
    match plan.on_line(line) {
        LineFate::Send => write_line(writer, line),
        LineFate::Drop => Ok(()),
        LineFate::Garble(garbled) => write_line(writer, &garbled),
    }
}

/// Execute one lease, streaming results. Returns `Ok(false)` when the fault
/// plan's crash fired (the caller drops the connection), `Ok(true)` after a
/// clean `shard_done`, `fail`, or acknowledged mid-shard cancel.
fn run_shard<W: Write>(
    writer: &mut W,
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

    /// Drive the loop in-memory: feed scripted coordinator lines, collect
    /// the worker's output lines.
    fn drive_plan(script: &[String], mut plan: FaultPlan) -> (Vec<FromWorker>, SessionEnd) {
        let input = script.join("\n") + "\n";
        let mut out: Vec<u8> = Vec::new();
        let end = worker_loop(Cursor::new(input.into_bytes()), &mut out, &mut plan).unwrap();
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
        worker_loop(Cursor::new(input.into_bytes()), &mut out, &mut plan).unwrap();
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
        worker_loop(Cursor::new(input.into_bytes()), &mut out, &mut plan).unwrap();
        let first = String::from_utf8(out)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .to_string();
        let FromWorker::Hello {
            kernel,
            proto_version,
            model,
        } = FromWorker::decode(&first).unwrap()
        else {
            panic!("first line must be hello");
        };
        assert_eq!(kernel, Kernel::auto().name());
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
