//! End-to-end tests for the distributed sweep service: a real coordinator
//! driving real `rh-cli worker` processes (via `CARGO_BIN_EXE_rh-cli`),
//! asserting the PR's core invariant — the merged document is byte-identical
//! to the in-process sweep no matter how many workers run it, where they
//! attach from, or whether one of them dies mid-job.

use rh_cli::{json, run_sweep, run_worker, Coordinator, ServeOptions, SweepConfig, WorkerOptions};
use rh_core::{Geometry, Kernel};
use std::path::PathBuf;
use std::sync::OnceLock;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_rh-cli"))
}

/// The in-process reference document for the *default* config — computed
/// once (it is the expensive part of this suite) and shared by every
/// byte-identity assertion.
fn default_reference() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let out = run_sweep(&SweepConfig::default(), 2).expect("default config is valid");
        json::render(&out)
    })
}

fn default_cell_count() -> u64 {
    let plan = rh_cli::SweepPlan::from_config(&SweepConfig::default()).unwrap();
    (plan.grid.len() + plan.para_sweep.len()) as u64
}

/// A deliberately small config for the service-machinery tests (cache,
/// checkpoints, TCP attach) where sweep size is irrelevant.
fn small_config() -> SweepConfig {
    SweepConfig {
        activations: 2_000,
        hc_firsts: vec![500],
        sides: vec![2],
        para_probabilities: vec![0.0],
        geometry: Geometry::tiny(64),
        ..SweepConfig::default()
    }
}

fn small_reference() -> String {
    let out = run_sweep(&small_config(), 1).unwrap();
    json::render(&out)
}

fn opts_with_workers(workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        worker_program: Some(worker_bin()),
        ..ServeOptions::default()
    }
}

/// A per-test scratch directory under the target-adjacent temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rh-distributed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// ISSUE 7 acceptance: distributed output is byte-identical to the
/// in-process sweep for the default config at worker counts 1, 2, and 4.
#[test]
fn distributed_default_sweep_is_byte_identical_at_1_2_4_workers() {
    let reference = default_reference();
    let total = default_cell_count();
    for workers in [1usize, 2, 4] {
        let coordinator = Coordinator::start(opts_with_workers(workers))
            .unwrap_or_else(|e| panic!("start with {workers} workers: {e}"));
        let env = coordinator
            .submit(None, &SweepConfig::default())
            .unwrap_or_else(|e| panic!("submit with {workers} workers: {e}"));
        coordinator.shutdown();
        assert_eq!(
            env.document, reference,
            "{workers}-worker document must match the in-process sweep byte-for-byte"
        );
        assert!(!env.served_from_cache);
        assert_eq!(env.executed_cells, total);
        assert!(!env.workers.is_empty());
        let cells: u64 = env.workers.iter().map(|w| w.cells).sum();
        assert_eq!(
            cells, total,
            "per-worker cell counts must partition the plan"
        );
    }
}

/// ISSUE 7 acceptance: one injected worker kill mid-job — the dropped
/// shard's remainder is reassigned and the bytes still match.
#[test]
fn worker_death_mid_job_reassigns_and_stays_byte_identical() {
    let mut opts = opts_with_workers(2);
    // Worker 0 drops its connection after streaming its 5th cell —
    // mid-shard, with no shard_done, exactly like a crash.
    opts.worker_extra_args = vec![vec!["--fault-plan".into(), "crash-after-cells=5".into()]];
    let coordinator = Coordinator::start(opts).expect("start");
    let env = coordinator
        .submit(None, &SweepConfig::default())
        .expect("job must survive the worker death");
    assert_eq!(
        coordinator.live_workers(),
        1,
        "the killed worker must be accounted as gone"
    );
    coordinator.shutdown();

    assert_eq!(
        env.document,
        default_reference(),
        "document after a mid-job worker kill must still match the in-process sweep"
    );
    let total = default_cell_count();
    assert_eq!(
        env.executed_cells, total,
        "every cell executes exactly once"
    );
    let dead = env
        .workers
        .iter()
        .find(|w| w.worker == "local-0")
        .expect("the doomed worker streamed cells before dying");
    assert_eq!(
        dead.cells, 5,
        "exactly the pre-crash cells count for local-0"
    );
    let cells: u64 = env.workers.iter().map(|w| w.cells).sum();
    assert_eq!(
        cells, total,
        "reassignment must not duplicate or drop cells"
    );
}

/// ISSUE 7 acceptance: a repeated identical request is served from the
/// cache without re-executing, observably (flag + counter in the envelope).
#[test]
fn repeated_submit_is_served_from_cache_without_reexecution() {
    let coordinator = Coordinator::start(opts_with_workers(1)).expect("start");
    let cfg = small_config();
    let first = coordinator.submit(None, &cfg).expect("first submit");
    assert!(!first.served_from_cache);
    assert!(first.executed_cells > 0);
    assert_eq!(first.cache_hits, 0);

    let second = coordinator.submit(None, &cfg).expect("second submit");
    assert!(
        second.served_from_cache,
        "identical resubmit must hit the cache"
    );
    assert_eq!(second.executed_cells, 0, "cache hits execute nothing");
    assert!(second.workers.is_empty(), "no worker touches a cached job");
    assert_eq!(second.cache_hits, 1, "the lifetime counter must tick");
    assert_eq!(second.document, first.document);
    assert_eq!(second.config_hash, first.config_hash);
    assert_eq!(coordinator.cache_hits(), 1);

    // A different seed is a different key: through the plan again.
    let reseeded = SweepConfig {
        seed: cfg.seed + 1,
        ..cfg
    };
    let third = coordinator.submit(None, &reseeded).expect("third submit");
    assert!(!third.served_from_cache);
    assert_eq!(
        third.config_hash, first.config_hash,
        "seed stays out of the hash"
    );
    assert_ne!(third.seed, first.seed);
    coordinator.shutdown();
}

/// Checkpointing end to end: a crash-killed job leaves per-cell state on
/// disk; a resubmit (even from a *new* coordinator) executes only the
/// remainder; a third run restores everything without a single worker.
#[test]
fn checkpoints_survive_crashes_and_make_resubmits_incremental() {
    let dir = scratch_dir("ckpt");
    let cfg = small_config();
    let reference = small_reference();
    let total = {
        let plan = rh_cli::SweepPlan::from_config(&cfg).unwrap();
        (plan.grid.len() + plan.para_sweep.len()) as u64
    };

    // Run 1: the only worker dies after 5 cells; with nobody left to attach
    // the job fails — but the 5 merged cells are already checkpointed.
    let mut opts = opts_with_workers(1);
    opts.checkpoint_dir = Some(dir.clone());
    opts.worker_extra_args = vec![vec!["--fault-plan".into(), "crash-after-cells=5".into()]];
    let coordinator = Coordinator::start(opts).expect("start");
    let err = coordinator
        .submit(Some("doomed".into()), &cfg)
        .expect_err("sole worker died: the job cannot finish");
    assert!(err.contains("workers exited"), "got: {err}");
    coordinator.shutdown();

    // Run 2: a fresh coordinator over the same directory resumes — only the
    // missing cells execute, and the merged bytes are unaffected by the
    // checkpoint/execute split.
    let mut opts = opts_with_workers(1);
    opts.checkpoint_dir = Some(dir.clone());
    let coordinator = Coordinator::start(opts).expect("start");
    let env = coordinator.submit(None, &cfg).expect("resumed submit");
    coordinator.shutdown();
    assert_eq!(
        env.checkpoint_cells, 5,
        "the crashed run's cells must be restored"
    );
    assert_eq!(env.executed_cells, total - 5, "only the remainder executes");
    assert_eq!(env.document, reference, "resume must not change the bytes");

    // Run 3: everything is on disk now; no worker is needed at all.
    let mut opts = opts_with_workers(1);
    opts.checkpoint_dir = Some(dir.clone());
    let coordinator = Coordinator::start(opts).expect("start");
    let env = coordinator.submit(None, &cfg).expect("restored submit");
    coordinator.shutdown();
    assert!(!env.served_from_cache, "the journal answers, not the LRU");
    assert_eq!(env.checkpoint_cells, total);
    assert_eq!(env.executed_cells, 0);
    assert!(env.workers.is_empty());
    assert_eq!(env.document, reference);

    let _ = std::fs::remove_dir_all(&dir);
}

/// TCP loopback: a coordinator with *zero* local workers and a listener;
/// two workers attach over TCP (in-process threads running the real worker
/// entry point) and the submitted job comes back byte-identical.
#[test]
fn tcp_attached_workers_produce_identical_bytes() {
    let coordinator = Coordinator::start(ServeOptions {
        workers: 0,
        listen: Some("127.0.0.1:0".to_string()),
        worker_program: Some(worker_bin()),
        ..ServeOptions::default()
    })
    .expect("start listener");
    let addr = coordinator.local_addr().expect("bound").to_string();

    let attached: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                run_worker(&WorkerOptions {
                    connect: Some(addr),
                    ..WorkerOptions::default()
                })
            })
        })
        .collect();

    let env = coordinator.submit(None, &small_config()).expect("submit");
    assert_eq!(env.document, small_reference());
    assert!(!env.workers.is_empty());
    assert!(
        env.workers.iter().all(|w| w.worker.starts_with("tcp-")),
        "all execution came over TCP: {:?}",
        env.workers
    );

    coordinator.shutdown();
    for handle in attached {
        handle
            .join()
            .expect("worker thread")
            .expect("worker exits cleanly on shutdown");
    }
}

/// A shutdown lets a healthy worker finish writing. A lease settles on its
/// last cell, which the worker sends before its `shard_done`; here a
/// one-second stall after that cell holds the `shard_done` back until the
/// job's document has arrived and the coordinator is shutting down. The
/// coordinator reads the connection to its end after sending `shutdown`,
/// so the worker's late write lands and it exits 0 without an `error:`
/// line (before, the coordinator dropped the connection at once and the
/// worker failed with `error: worker: write: Broken pipe`).
#[test]
fn shutdown_lets_a_worker_finish_writing_its_last_lease() {
    let coordinator = Coordinator::start(ServeOptions {
        workers: 0,
        listen: Some("127.0.0.1:0".to_string()),
        worker_program: Some(worker_bin()),
        ..ServeOptions::default()
    })
    .expect("start listener");
    let addr = coordinator.local_addr().expect("bound").to_string();
    let plan = rh_cli::SweepPlan::from_config(&small_config()).unwrap();
    let last_cell = plan.grid.len() + plan.para_sweep.len();
    let worker = std::process::Command::new(worker_bin())
        .args(["worker", "--connect", &addr, "--fault-plan"])
        .arg(format!("stall-after-cells={last_cell},stall-ms=1000"))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn a TCP worker");
    for _ in 0..1_000 {
        if coordinator.live_workers() == 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let env = coordinator.submit(None, &small_config());
    coordinator.shutdown();
    let out = worker.wait_with_output().expect("the worker exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(env.expect("submit").document, small_reference());
    assert!(
        out.status.success(),
        "worker exit {:?}: {stderr}",
        out.status
    );
    assert!(!stderr.contains("error:"), "worker stderr: {stderr}");
}

/// Each worker runs the settle kernel its own CPU and environment pick
/// (`Kernel::auto`) and announces it in its hello; the envelope records,
/// per worker, the kernel that worker announced. The local worker inherits
/// this process's environment; a TCP worker started with
/// `RH_FORCE_SCALAR=1` announces scalar whatever the CPU. Leases of two
/// simulations keep both workers busy on one job.
#[test]
fn kernel_request_propagates_and_is_recorded_per_worker() {
    let cfg = SweepConfig {
        activations: 20_000,
        ..small_config()
    };
    let coordinator = Coordinator::start(ServeOptions {
        listen: Some("127.0.0.1:0".to_string()),
        shard_cells: 2,
        ..opts_with_workers(1)
    })
    .expect("start");
    let addr = coordinator.local_addr().expect("bound").to_string();
    let mut forced = std::process::Command::new(worker_bin())
        .args(["worker", "--connect", &addr])
        .env("RH_FORCE_SCALAR", "1")
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn a TCP worker");
    for _ in 0..1_000 {
        if coordinator.live_workers() == 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let attached = coordinator.live_workers();
    let env = coordinator.submit(None, &cfg);
    coordinator.shutdown();
    let _ = forced.kill();
    let _ = forced.wait();
    assert_eq!(attached, 2, "the TCP worker must attach");
    let env = env.expect("submit");

    let local = Kernel::auto().name();
    for stat in &env.workers {
        let announced = if stat.worker == "local-0" {
            local
        } else {
            assert!(stat.worker.starts_with("tcp-"), "{}", stat.worker);
            "scalar"
        };
        assert_eq!(stat.kernel, announced, "worker {}", stat.worker);
    }
    assert_eq!(
        env.workers.len(),
        2,
        "both workers served: {:?}",
        env.workers
    );
    assert_eq!(env.document, json::render(&run_sweep(&cfg, 1).unwrap()));
}

/// A jsonl submit whose geometry overflows the row count, or only exceeds
/// the cap, gets the wire's error line, and the coordinator stays healthy:
/// the next submit on the same connection is served byte-identical to the
/// in-process sweep. Before the cap, such a config passed validation, the
/// worker panicked allocating its device, and the coordinator re-leased
/// the lost cells forever, so neither job was ever answered.
#[test]
fn oversized_geometry_gets_an_error_reply_and_the_next_job_is_served() {
    use std::io::{BufReader, Write};
    let coordinator = Coordinator::start(ServeOptions {
        listen: Some("127.0.0.1:0".to_string()),
        ..opts_with_workers(1)
    })
    .expect("start");
    let stream =
        std::net::TcpStream::connect(coordinator.local_addr().expect("bound")).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let max = u32::MAX;
    let lines = [
        format!(
            r#"{{"geometry":{{"channels":{max},"ranks":{max},"banks":{max},"rows_per_bank":{max}}}}}"#
        ),
        r#"{"geometry":{"channels":2,"ranks":1,"banks":512,"rows_per_bank":32768}}"#.to_string(),
        rh_cli::proto::config_to_json(&small_config()),
    ];
    let mut replies = Vec::new();
    for line in &lines {
        writeln!(writer, "{line}").expect("send");
        match rh_cli::proto::read_line(&mut reader) {
            Ok(Some(reply)) => replies.push(reply),
            _ => {
                // A wedged coordinator would also wedge its own shutdown:
                // fail without dropping it.
                std::mem::forget(coordinator);
                panic!("no reply to '{line}' within 60 s");
            }
        }
    }
    coordinator.shutdown();
    for (line, reply) in lines.iter().zip(&replies).take(2) {
        assert!(
            reply.starts_with(r#"{"type":"error""#) && reply.contains("row limit"),
            "{line}: got '{reply}'"
        );
    }
    let env = rh_cli::ResultEnvelope::decode(&replies[2]).expect("an envelope");
    assert_eq!(env.document, small_reference());
}

/// One peer streaming bytes with no newline must not grow the coordinator
/// until it dies: over the stdin protocol, a line one byte over the limit
/// is drained and answered with an error naming the limit, and the next
/// submit on the same stream is served byte-identical to the in-process
/// sweep.
#[test]
fn overlong_line_gets_an_error_and_the_next_job_is_served() {
    use rh_cli::proto::{config_to_json, read_line, MAX_LINE_BYTES};
    use std::io::{BufReader, Write};
    use std::process::{Command, Stdio};
    let mut serve = Command::new(worker_bin())
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rh-cli serve");
    let mut stdin = serve.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(serve.stdout.take().expect("piped stdout"));
    let mut overlong = vec![b'x'; MAX_LINE_BYTES + 1];
    overlong.push(b'\n');
    stdin
        .write_all(&overlong)
        .expect("the coordinator drains the line");
    writeln!(stdin, "{}", config_to_json(&small_config())).expect("send config");
    stdin.flush().expect("flush");
    let mut replies = Vec::new();
    for _ in 0..2 {
        let reply = read_line(&mut stdout).expect("read reply");
        replies.push(reply.expect("the coordinator is still up"));
    }
    drop(stdin);
    assert!(serve.wait().expect("serve exits").success());
    assert!(
        replies[0].starts_with(r#"{"type":"error""#)
            && replies[0].contains(&MAX_LINE_BYTES.to_string()),
        "got '{}'",
        replies[0]
    );
    let env = rh_cli::ResultEnvelope::decode(&replies[1]).expect("an envelope");
    assert_eq!(env.document, small_reference());
}

/// Over TCP an over-long *first* line arrives before anything is vetted:
/// the coordinator answers with the limit, closes that connection, and
/// keeps serving other clients.
#[test]
fn overlong_first_tcp_line_closes_only_that_connection() {
    use rh_cli::proto::{config_to_json, read_line, MAX_LINE_BYTES};
    use std::io::{BufReader, Write};
    let coordinator = Coordinator::start(ServeOptions {
        listen: Some("127.0.0.1:0".to_string()),
        ..opts_with_workers(1)
    })
    .expect("start");
    let addr = coordinator.local_addr().expect("bound");
    // Send one line on a fresh connection; return its reply and the reader.
    let send = |line: &[u8]| {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .expect("read timeout");
        stream.write_all(line).expect("send");
        stream.write_all(b"\n").expect("send");
        let mut reader = BufReader::new(stream);
        let reply = read_line(&mut reader)
            .expect("reply")
            .expect("a reply line");
        (reply, reader)
    };
    let (reply, mut reader) = send(&vec![b' '; MAX_LINE_BYTES + 1]);
    assert!(
        reply.starts_with(r#"{"type":"error""#) && reply.contains(&MAX_LINE_BYTES.to_string()),
        "got '{reply}'"
    );
    assert!(matches!(read_line(&mut reader), Ok(None)), "must be closed");
    let (reply, _) = send(config_to_json(&small_config()).as_bytes());
    coordinator.shutdown();
    let env = rh_cli::ResultEnvelope::decode(&reply).expect("an envelope");
    assert_eq!(env.document, small_reference());
    assert_eq!(coordinator.rejected_connections(), 1);
}
