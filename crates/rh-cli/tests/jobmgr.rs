//! Job-manager suite: the supervised multi-job coordinator end to end.
//!
//! Every scenario here exercises one pillar of the job manager — admission
//! control, deadlines and cancellation, the client hello, and splitting
//! each job across the pool — while holding the same north star as
//! `distributed.rs` and `chaos.rs`: an admitted, uncancelled job's merged
//! document is byte-identical to the in-process sweep, and every reject and
//! expiry is observable in the envelope counters.

use rh_cli::proto::{ClientMsg, ResultEnvelope};
use rh_cli::serve::SubmitError;
use rh_cli::{json, run_cancel, run_sweep, CancelOptions, Coordinator, ServeOptions, SweepConfig};
use rh_core::Geometry;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_rh-cli"))
}

/// The chaos-suite shape (8 grid + 2 PARA cells, tiny geometry) with a
/// caller-chosen seed, so concurrent submits are genuinely distinct jobs
/// (identical configs would coalesce and never reach admission control).
fn job_config(seed: u64) -> SweepConfig {
    SweepConfig {
        seed,
        activations: 2_000,
        hc_firsts: vec![500, 600, 700, 800],
        sides: vec![2, 4],
        para_probabilities: vec![0.0, 0.5],
        geometry: Geometry::tiny(64),
        ..SweepConfig::default()
    }
}

fn reference(seed: u64) -> String {
    json::render(&run_sweep(&job_config(seed), 1).unwrap())
}

/// Pillar 1 + 2: a saturated queue rejects cleanly, and a job that can
/// never run dies by its deadline rather than hanging its client forever.
#[test]
fn saturated_queue_rejects_cleanly_and_deadlines_expire() {
    // No workers and a listener nobody attaches to: admitted jobs stay
    // pending until their deadline, keeping the one-job queue full.
    let coordinator = Arc::new(
        Coordinator::start(ServeOptions {
            workers: 0,
            listen: Some("127.0.0.1:0".to_string()),
            max_pending_jobs: 1,
            ..ServeOptions::default()
        })
        .expect("start"),
    );
    let a = {
        let c = Arc::clone(&coordinator);
        std::thread::spawn(move || c.submit_detailed(Some("a".into()), &job_config(1), Some(2_500)))
    };
    // Wait until A actually occupies the queue before probing — on a
    // single-CPU host the spawned thread may not have run yet, and a probe
    // that wins that race would fill the queue itself and reject *A*.
    for _ in 0..200 {
        if coordinator.queue_depth() >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(coordinator.queue_depth(), 1, "job A must be admitted first");
    // While A is pending the queue is full and B is refused with a
    // machine-readable reason.
    let rejected = match coordinator.submit_detailed(None, &job_config(2), Some(300)) {
        Err(SubmitError::Rejected(reason)) => reason,
        other => panic!("expected a queue_full reject, got {other:?}"),
    };
    assert_eq!(rejected, "queue_full");

    let err = a
        .join()
        .expect("submit thread")
        .expect_err("no worker ever attached: the deadline must fire");
    match err {
        SubmitError::Failed(e) => assert!(e.contains("deadline expired"), "got '{e}'"),
        other => panic!("expected a deadline failure, got {other:?}"),
    }
    assert!(coordinator.rejected_submits() >= 1);
    assert!(
        coordinator.cancelled_jobs() >= 1,
        "expiry counts as a cancel"
    );
    coordinator.shutdown();
}

/// Pillar 2: `rh-cli cancel` kills a pending job by name over a TCP
/// session; the waiting submit fails with the cancellation message. (The
/// name dates from the shared-token auth TCP sessions once carried.)
#[test]
fn cancel_verb_kills_a_pending_job_over_authenticated_tcp() {
    let coordinator = Arc::new(
        Coordinator::start(ServeOptions {
            workers: 0,
            listen: Some("127.0.0.1:0".to_string()),
            ..ServeOptions::default()
        })
        .expect("start"),
    );
    let addr = coordinator.local_addr().expect("bound").to_string();
    let a = {
        let c = Arc::clone(&coordinator);
        std::thread::spawn(move || c.submit_detailed(Some("doomed".into()), &job_config(3), None))
    };

    // Retry until the submit thread has admitted the job (before that the
    // id is unknown and cancel exits nonzero).
    let opts = CancelOptions {
        connect: addr,
        id: "doomed".to_string(),
        timeout: Some(Duration::from_secs(10)),
    };
    let mut canceled = false;
    for _ in 0..500 {
        if run_cancel(&opts).is_ok() {
            canceled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(canceled, "the pending job must be cancelable by name");

    let err = a
        .join()
        .expect("submit thread")
        .expect_err("a canceled job fails its waiter");
    match err {
        SubmitError::Failed(e) => assert!(e.contains("canceled"), "got '{e}'"),
        other => panic!("expected a cancellation failure, got {other:?}"),
    }
    assert_eq!(coordinator.cancelled_jobs(), 1);

    // Nothing left to cancel: clean nonzero, not a hang or a panic.
    assert!(run_cancel(&opts).is_err());
    assert_eq!(coordinator.cancelled_jobs(), 1);
    coordinator.shutdown();
}

/// Pillar 4: the client hello perfbench's service client sends (nonce 0,
/// an empty proof) is answered `hello_ok` over both client transports,
/// the stdin of `rh-cli serve` and a TCP session, and the session goes on
/// to serve its next line.
#[test]
fn perfbench_hello_gets_hello_ok_over_stdin_and_tcp() {
    let hello = ClientMsg::Hello {
        auth_nonce: 0,
        auth_proof: String::new(),
    }
    .encode();
    let cancel = ClientMsg::Cancel { id: "nope".into() }.encode();
    let expected = "{\"type\":\"hello_ok\"}\n\
                    {\"type\":\"cancel_ack\",\"id\":\"nope\",\"canceled\":false}\n";

    let mut serve = Command::new(worker_bin())
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdin = serve.stdin.take().expect("piped stdin");
    write!(stdin, "{hello}\n{cancel}\n").expect("send");
    drop(stdin);
    let out = serve.wait_with_output().expect("serve exits");
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);

    let coordinator = Coordinator::start(ServeOptions {
        workers: 0,
        listen: Some("127.0.0.1:0".to_string()),
        ..ServeOptions::default()
    })
    .expect("start");
    let mut stream = TcpStream::connect(coordinator.local_addr().expect("bound")).expect("connect");
    write!(stream, "{hello}\n{cancel}\n").expect("send");
    let mut reader = BufReader::new(stream);
    let mut replies = String::new();
    for _ in 0..2 {
        reader.read_line(&mut replies).expect("reply");
    }
    assert_eq!(replies, expected);
    coordinator.shutdown();
}

/// Pillar 3: each job's lists are split across the pool in contiguous
/// leases of at most `shard_cells`, and the merged document is
/// byte-identical at every width and pool size, for a first job and for the
/// job after it on the same coordinator.
#[test]
fn pool_split_is_byte_identical_at_every_width_and_pool_size() {
    let first_ref = reference(10);
    let second_ref = reference(11);
    for workers in [1usize, 2, 3] {
        for shard_cells in [1usize, 4, 16, 1_024] {
            let coordinator = Coordinator::start(ServeOptions {
                workers,
                worker_program: Some(worker_bin()),
                shard_cells,
                ..ServeOptions::default()
            })
            .expect("start");
            let first = coordinator
                .submit(None, &job_config(10))
                .expect("first job");
            assert_eq!(
                first.document, first_ref,
                "workers={workers} shard_cells={shard_cells}"
            );
            let second = coordinator
                .submit(None, &job_config(11))
                .expect("second job");
            assert_eq!(
                second.document, second_ref,
                "workers={workers} shard_cells={shard_cells}"
            );
            coordinator.shutdown();
        }
    }
}

/// Satellite (a): the result cache's evictions are observable in the
/// envelope — a one-slot cache must evict on the second distinct job.
#[test]
fn cache_evictions_are_surfaced_in_the_envelope() {
    let coordinator = Coordinator::start(ServeOptions {
        workers: 1,
        worker_program: Some(worker_bin()),
        cache_capacity: 1,
        ..ServeOptions::default()
    })
    .expect("start");
    let a = coordinator
        .submit(None, &job_config(20))
        .expect("first job");
    assert_eq!(a.evictions, 0);
    let b = coordinator
        .submit(None, &job_config(21))
        .expect("second job");
    assert!(
        b.evictions >= 1,
        "the one-slot cache must have evicted the first document: {b:?}"
    );
    assert_eq!(coordinator.evictions(), b.evictions);
    coordinator.shutdown();
}

/// The 72 KB line that once aborted the coordinator: 10,000 `hc_firsts`,
/// `sides` 2..=2048 and all four data patterns, a plan of 409.8M cells
/// (45.9 GB of `CellSpec`s), in `json.dumps`' default spacing.
fn oversized_submit() -> String {
    let list = |values: Vec<String>| values.join(", ");
    let line = format!(
        "{{\"type\": \"submit\", \"id\": \"big\", \"config\": {{\"hc_firsts\": [{}], \
         \"sides\": [{}], \"data_patterns\": [\"legacy\", \"solid\", \"checkerboard\", \
         \"rowstripe\"]}}}}",
        list((1_000..11_000).map(|v: u64| v.to_string()).collect()),
        list((2..=2_048).map(|v: u64| v.to_string()).collect()),
    );
    assert_eq!(line.len() / 1_000, 72, "{} bytes", line.len());
    line
}

/// The replies to the oversized line and to a job after it: an error
/// naming the axis cap, then the job's envelope, byte-identical to `sweep`.
fn assert_refused_then_served(refusal: &str, envelope: &str) {
    assert!(
        refusal.starts_with("{\"type\":\"error\"") && refusal.contains("MAX_AXIS_VALUES"),
        "{refusal}"
    );
    let env = ResultEnvelope::decode(envelope.trim()).expect("the next job is served");
    assert_eq!(env.document, reference(30));
}

/// A request is bounded before it allocates: the oversized line gets an
/// error naming the cap, over stdin and over TCP, and the coordinator
/// serves the next submit. Both coordinators are child processes, so an
/// abort shows up as their exit status (134 before the caps), not as the
/// death of this test binary.
#[test]
fn an_oversized_request_is_refused_and_the_next_job_is_served() {
    let job = ClientMsg::Submit {
        id: Some("next".into()),
        config: job_config(30),
        deadline_ms: None,
    }
    .encode();

    let mut serve = Command::new(worker_bin())
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdin = serve.stdin.take().expect("piped stdin");
    write!(stdin, "{}\n{job}\n", oversized_submit()).expect("send");
    drop(stdin);
    let out = serve.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), 2, "{stdout}");
    assert_refused_then_served(replies[0], replies[1]);

    let mut serve = Command::new(worker_bin())
        .args(["serve", "--workers", "1", "--listen", "127.0.0.1:0"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut log = BufReader::new(serve.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            log.read_line(&mut line).expect("serve's log") > 0,
            "no address"
        );
        if let Some(addr) = line.trim().strip_prefix("rh-serve: listening on ") {
            break addr.to_string();
        }
    };
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write!(stream, "{}\n{job}\n", oversized_submit()).expect("send");
    let mut reader = BufReader::new(stream);
    let (mut refusal, mut envelope) = (String::new(), String::new());
    reader.read_line(&mut refusal).expect("refusal");
    reader.read_line(&mut envelope).expect("envelope");
    let alive = serve.try_wait().expect("status").is_none();
    let _ = serve.kill();
    let _ = serve.wait();
    assert!(alive, "the coordinator outlives the oversized line");
    assert_refused_then_served(&refusal, &envelope);
}
