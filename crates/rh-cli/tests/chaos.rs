//! Chaos suite: the distributed sweep service under injected faults.
//!
//! Every scenario here asserts the same north star as `distributed.rs` —
//! the merged document is byte-identical to the in-process sweep — but
//! under a `--fault-plan`: crashed workers, dropped and garbled protocol
//! lines, stalled stragglers (speculative re-execution), garbled and torn
//! checkpoint journals, and workers arriving with the wrong protocol
//! version or config epoch. Faults may
//! cost retransmits and duplicate work; they must never change the bytes.

use rh_cli::{
    json, run_submit, run_sweep, run_worker, Coordinator, FaultPlan, ResultEnvelope, ServeOptions,
    SubmitOptions, SweepConfig, SweepPlan, WorkerOptions,
};
use rh_core::Geometry;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_rh-cli"))
}

/// Mid-sized config: enough grid cells (8) that a shard has room for
/// mid-shard faults, small enough (tiny geometry, 2k activations) that
/// re-execution under chaos stays cheap.
fn chaos_config() -> SweepConfig {
    SweepConfig {
        activations: 2_000,
        hc_firsts: vec![500, 600, 700, 800],
        sides: vec![2, 4],
        para_probabilities: vec![0.0, 0.5],
        geometry: Geometry::tiny(64),
        ..SweepConfig::default()
    }
}

fn chaos_reference() -> String {
    let out = run_sweep(&chaos_config(), 1).unwrap();
    json::render(&out)
}

fn cell_count(cfg: &SweepConfig) -> u64 {
    let plan = SweepPlan::from_config(cfg).unwrap();
    (plan.grid.len() + plan.para_sweep.len()) as u64
}

fn opts_with_workers(workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        worker_program: Some(worker_bin()),
        ..ServeOptions::default()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rh-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A crashed run: the only worker dies after 5 cells, nobody is left, the
/// job fails, and exactly 5 records are journaled under `dir`.
fn crash_after_five_cells(dir: &Path) {
    let mut opts = opts_with_workers(1);
    opts.checkpoint_dir = Some(dir.to_path_buf());
    opts.worker_extra_args = vec![vec!["--fault-plan".into(), "crash-after-cells=5".into()]];
    let coordinator = Coordinator::start(opts).expect("start");
    let err = coordinator
        .submit(None, &chaos_config())
        .expect_err("sole worker crashed: the job cannot finish");
    assert!(err.contains("workers exited"), "got: {err}");
    coordinator.shutdown();
}

/// The job's one journal file under `dir` (`ckpt-<hash>-<seed>.jsonl`).
fn journal(dir: &Path) -> PathBuf {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert_eq!(files.len(), 1, "one journal per job: {files:?}");
    let name = files[0].file_name().unwrap().to_string_lossy().into_owned();
    assert!(
        name.starts_with("ckpt-") && name.ends_with(".jsonl"),
        "{name}"
    );
    files[0].clone()
}

/// A fresh coordinator over the journal in `dir` serves `chaos_config()`.
fn restart_and_submit(dir: &Path) -> ResultEnvelope {
    let mut opts = opts_with_workers(1);
    opts.checkpoint_dir = Some(dir.to_path_buf());
    let coordinator = Coordinator::start(opts).expect("restart");
    let env = coordinator
        .submit(None, &chaos_config())
        .expect("restored submit");
    coordinator.shutdown();
    env
}

/// Tentpole 1: a scheduled crash via `--fault-plan crash-after-cells=5`
/// drops the worker mid-shard — the survivor absorbs the remainder and the
/// bytes match.
#[test]
fn crash_fault_plan_is_reassigned_and_stays_byte_identical() {
    let cfg = chaos_config();
    let total = cell_count(&cfg);
    let mut opts = opts_with_workers(2);
    opts.worker_extra_args = vec![vec!["--fault-plan".into(), "crash-after-cells=5".into()]];
    let coordinator = Coordinator::start(opts).expect("start");
    let env = coordinator
        .submit(None, &cfg)
        .expect("job must survive the scheduled crash");
    assert_eq!(coordinator.live_workers(), 1, "the crashed worker is gone");
    coordinator.shutdown();

    assert_eq!(env.document, chaos_reference());
    assert_eq!(
        env.executed_cells, total,
        "every cell executes exactly once"
    );
    let dead = env
        .workers
        .iter()
        .find(|w| w.worker == "local-0")
        .expect("the doomed worker streamed cells before crashing");
    assert_eq!(dead.cells, 5, "exactly the scheduled cells for local-0");
    let cells: u64 = env.workers.iter().map(|w| w.cells).sum();
    assert_eq!(
        cells, total,
        "reassignment must not duplicate or drop cells"
    );
}

/// Tentpole 1: dropped and garbled protocol lines. The coordinator skips
/// the garbled line, `shard_done` requeues the holes, and the job still
/// merges to identical bytes — faults cost retransmits, not correctness.
#[test]
fn dropped_and_garbled_lines_cost_retransmits_not_correctness() {
    let cfg = chaos_config();
    let total = cell_count(&cfg);
    let mut opts = opts_with_workers(2);
    // Worker 0's line schedule: hello is line 1, cells follow. Line 3
    // (its 2nd cell) vanishes, line 5 (its 4th) arrives as garbage.
    opts.worker_extra_args = vec![vec![
        "--fault-plan".into(),
        "drop-line=3,garble-line=5".into(),
    ]];
    let coordinator = Coordinator::start(opts).expect("start");
    let env = coordinator
        .submit(None, &cfg)
        .expect("job must survive lost and mangled lines");
    coordinator.shutdown();

    assert_eq!(env.document, chaos_reference());
    assert_eq!(
        env.executed_cells, total,
        "requeued holes merge once each; nothing is double-counted"
    );
}

/// Tentpole 3: a stalled worker triggers speculative re-execution. One
/// worker, stalled mid-shard far past the straggler deadline: the
/// supervisor re-leases the missing cells (observable in the envelope)
/// and the finished document is unaffected.
#[test]
fn stalled_worker_is_speculated_and_bytes_are_unaffected() {
    let cfg = chaos_config();
    let mut opts = opts_with_workers(1);
    opts.speculate_after = Some(Duration::from_millis(300));
    // Stall 1.5s after the 2nd cell: mid-shard, 5x the deadline.
    opts.worker_extra_args = vec![vec![
        "--fault-plan".into(),
        "stall-after-cells=2,stall-ms=1500".into(),
    ]];
    let coordinator = Coordinator::start(opts).expect("start");
    let env = coordinator.submit(None, &cfg).expect("submit");
    coordinator.shutdown();

    assert!(
        env.speculations >= 1,
        "the stalled shard must have been speculated: {env:?}"
    );
    assert_eq!(env.document, chaos_reference());
}

/// Tentpole 2 acceptance: a worker announcing a mismatched config epoch
/// is cleanly rejected — terminal for the worker, invisible to the job,
/// which the epoch-matched local worker completes byte-identically.
#[test]
fn epoch_mismatched_worker_is_rejected_without_affecting_the_job() {
    let coordinator = Coordinator::start(ServeOptions {
        workers: 1,
        listen: Some("127.0.0.1:0".to_string()),
        worker_program: Some(worker_bin()),
        ..ServeOptions::default()
    })
    .expect("start listener");
    let addr = coordinator.local_addr().expect("bound").to_string();

    // A worker from another config generation attaches over TCP.
    let skewed = std::thread::spawn(move || {
        run_worker(&WorkerOptions {
            connect: Some(addr),
            config_epoch: 7,
            ..WorkerOptions::default()
        })
    });
    let err = skewed
        .join()
        .expect("worker thread")
        .expect_err("epoch skew must be terminal for the worker");
    assert!(err.contains("config epoch"), "got: {err}");
    assert_eq!(coordinator.rejected_workers(), 1);

    let cfg = chaos_config();
    let env = coordinator.submit(None, &cfg).expect("submit");
    coordinator.shutdown();
    assert_eq!(env.document, chaos_reference());
    assert!(
        env.workers.iter().all(|w| w.worker == "local-0"),
        "only the epoch-matched worker executes: {:?}",
        env.workers
    );
}

/// Satellite (c), end to end: a crashed run leaves checkpoints; one
/// record is damaged on disk; the restore skips exactly that record
/// (counted in the envelope), re-executes the hole, and the merged
/// document is byte-identical. Two kinds of damage: a byte bumped by one
/// (the record fails its checksum) and a `0xFF` byte (the record is no
/// longer UTF-8, which must not cost the rest of the file).
#[test]
fn garbled_checkpoint_record_is_skipped_and_reexecuted_on_restore() {
    let total = cell_count(&chaos_config());
    let bump: fn(u8) -> u8 = |b| b.wrapping_add(1);
    let not_utf8: fn(u8) -> u8 = |_| 0xFF;
    for (tag, damage) in [("bump", bump), ("0xff", not_utf8)] {
        let dir = scratch_dir(&format!("ckpt-{tag}"));
        crash_after_five_cells(&dir);

        // Damage the middle of the third record of the journal.
        let ckpt = journal(&dir);
        let mut bytes = std::fs::read(&ckpt).expect("read checkpoint");
        let lines: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .collect();
        assert!(lines.len() >= 5, "five records expected: {}", lines.len());
        let mid = (lines[1] + lines[2]) / 2; // inside the third record
        bytes[mid] = damage(bytes[mid]);
        std::fs::write(&ckpt, &bytes).expect("write garbled checkpoint");

        // Run 2: restore skips exactly the damaged record and re-executes it.
        let env = restart_and_submit(&dir);
        assert_eq!(
            env.checkpoint_skipped, 1,
            "{tag}: the damaged record, and only it"
        );
        assert_eq!(env.checkpoint_cells, 4, "{tag}: the intact records restore");
        assert_eq!(
            env.executed_cells,
            total - 4,
            "{tag}: only the holes re-execute"
        );
        assert_eq!(
            env.document,
            chaos_reference(),
            "{tag}: bytes are unaffected"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A crash mid-append leaves an unterminated fragment at the end of a
/// journal. The restore skips it, counts it, and cuts it off the file
/// before appending, so the records the resumed run appends stay whole: a
/// third coordinator restores every cell and executes nothing.
#[test]
fn torn_journal_tail_is_cut_before_the_next_append() {
    let dir = scratch_dir("ckpt-torn");
    let total = cell_count(&chaos_config());
    crash_after_five_cells(&dir);
    let ckpt = journal(&dir);
    let mut bytes = std::fs::read(&ckpt).expect("read checkpoint");
    bytes.extend_from_slice(br#"{"index":7,"sum":1,"res"#);
    std::fs::write(&ckpt, &bytes).expect("write torn tail");

    // Run 2: the 5 whole records restore, the fragment is skipped, the
    // remainder executes and is appended after the cut.
    let env = restart_and_submit(&dir);
    assert_eq!(env.checkpoint_cells, 5, "the whole records restore");
    assert_eq!(env.checkpoint_skipped, 1, "the torn tail, and only it");
    assert_eq!(env.executed_cells, total - 5);
    assert_eq!(env.document, chaos_reference());

    // Run 3: every cell is journaled intact; no worker runs a cell, and
    // the envelope is the journal's (not the result cache's).
    let env = restart_and_submit(&dir);
    assert_eq!(env.checkpoint_cells, total, "no appended record fused");
    assert_eq!(env.checkpoint_skipped, 0);
    assert_eq!(env.executed_cells, 0);
    assert!(!env.served_from_cache);
    assert!(env.workers.is_empty());
    assert_eq!(env.document, chaos_reference());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Job-manager fault arm: `cancel-after-cells=N` cancels the owning job
/// the moment its N-th cell merges. The worker abandons the rest of its
/// lease mid-shard (no requeue), stays connected, and serves a resubmit of
/// the same config to identical bytes.
#[test]
fn cancel_after_cells_fault_aborts_mid_run_and_the_pool_recovers() {
    let cfg = chaos_config();
    let mut opts = opts_with_workers(1);
    opts.fault_plan = FaultPlan::parse("cancel-after-cells=3").expect("plan");
    let coordinator = Coordinator::start(opts).expect("start");
    let err = coordinator
        .submit(None, &cfg)
        .expect_err("the fault cancels the job mid-run");
    assert!(err.contains("cancel"), "got: {err}");
    assert_eq!(coordinator.cancelled_jobs(), 1);
    assert_eq!(coordinator.live_workers(), 1, "a cancel is not a crash");

    // The fault fired once (it keys on the coordinator-lifetime merged-cell
    // counter); the same pool completes the resubmit byte-identically.
    let env = coordinator.submit(None, &cfg).expect("resubmit");
    coordinator.shutdown();
    assert_eq!(env.document, chaos_reference());
    assert_eq!(env.cancelled_jobs, 1, "the envelope remembers the casualty");
}

/// A cancel landing while a job is mid-checkpoint-restore tears down
/// cleanly. Restored cells do not advance the fault plan's merged-cell
/// counter, so `cancel-after-cells=2` is guaranteed to fire while the
/// restored job is still completing its holes — and the teardown must not
/// leak restored state into a later byte-identical resubmit: the next
/// job's restore accounts for exactly the records on disk, re-executes
/// only the holes, and merges to the reference bytes.
#[test]
fn cancel_mid_checkpoint_restore_leaves_no_restored_cell_leak() {
    let dir = scratch_dir("ckpt-cancel");
    let cfg = chaos_config();
    let total = cell_count(&cfg);

    // Run 1: the sole worker crashes after 5 cells, stranding the job and
    // leaving exactly 5 checkpoint records on disk.
    crash_after_five_cells(&dir);

    // Run 2: a fresh coordinator restores those 5 cells at submit, then
    // the fault cancels the job the moment its 2nd *fresh* cell merges.
    // The merge path checkpoints a cell before checking the fault, so
    // exactly one new record lands on disk before the teardown.
    let mut opts = opts_with_workers(1);
    opts.checkpoint_dir = Some(dir.clone());
    opts.fault_plan = FaultPlan::parse("cancel-after-cells=2").expect("plan");
    let coordinator = Coordinator::start(opts).expect("restart");
    let err = coordinator
        .submit(None, &cfg)
        .expect_err("the fault cancels the restored job mid-flight");
    assert!(err.contains("cancel"), "got: {err}");
    assert_eq!(coordinator.cancelled_jobs(), 1);
    assert_eq!(coordinator.live_workers(), 1, "a cancel is not a crash");

    // Run 3: a byte-identical resubmit on the same pool (the fault keys on
    // the lifetime counter and has already fired). A clean teardown means
    // the new job sees only what is durably on disk — 5 crash-era records
    // plus the single pre-cancel record — and nothing from the canceled
    // job's in-memory state.
    let env = coordinator.submit(None, &cfg).expect("resubmit");
    coordinator.shutdown();
    assert!(
        !env.served_from_cache,
        "a canceled job must never seed the result cache"
    );
    assert_eq!(
        env.checkpoint_cells, 6,
        "5 crash-era records + 1 merged before the cancel fired"
    );
    assert_eq!(
        env.checkpoint_skipped, 0,
        "teardown must not garble records"
    );
    assert_eq!(
        env.executed_cells,
        total - 6,
        "restored cells must not re-execute"
    );
    assert_eq!(env.cancelled_jobs, 1, "the envelope remembers the casualty");
    assert_eq!(env.document, chaos_reference(), "bytes are unaffected");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Job-manager fault arm: `slow-client=MS` stalls every client reply — a
/// slow-reading client. The reply is late but byte-perfect, and the delay
/// must not leak into other submits' results.
#[test]
fn slow_client_fault_delays_replies_without_corrupting_them() {
    use rh_cli::proto::{ClientMsg, ResultEnvelope};
    use std::io::{BufRead, BufReader, Write};

    let cfg = chaos_config();
    let mut opts = opts_with_workers(1);
    opts.listen = Some("127.0.0.1:0".to_string());
    opts.fault_plan = FaultPlan::parse("slow-client=150").expect("plan");
    let coordinator = Coordinator::start(opts).expect("start");
    // Warm the cache in-process so the TCP submit below is answered
    // instantly — any delay observed is the fault's, not execution time.
    let warm = coordinator.submit(None, &cfg).expect("warmup");
    assert_eq!(warm.document, chaos_reference());

    let addr = coordinator.local_addr().expect("bound");
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let submit = ClientMsg::Submit {
        id: Some("slow".into()),
        config: cfg.clone(),
        deadline_ms: None,
    };
    let t0 = std::time::Instant::now();
    writer
        .write_all(format!("{}\n", submit.encode()).as_bytes())
        .expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply");
    assert!(
        t0.elapsed() >= Duration::from_millis(150),
        "the cache-hit reply must be stalled by the fault, took {:?}",
        t0.elapsed()
    );
    let env = ResultEnvelope::decode(line.trim()).expect("a decodable envelope");
    assert_eq!(env.document, chaos_reference(), "late, but byte-perfect");
    assert!(env.served_from_cache);
    coordinator.shutdown();
}

/// Satellite (b): a dead coordinator address fails fast with a clear
/// message when `--timeout` is set — a wedged endpoint must not wedge
/// the client.
#[test]
fn submit_timeout_names_the_endpoint_and_fails_fast() {
    let opts = SubmitOptions {
        // Reserved port: connect is refused or times out, never accepted.
        connect: "127.0.0.1:1".to_string(),
        timeout: Some(Duration::from_secs(2)),
        deadline_ms: None,
        auth_token: None,
    };
    let err = run_submit(&opts).expect_err("nothing listens on port 1");
    assert!(err.contains("127.0.0.1:1"), "got: {err}");
}
