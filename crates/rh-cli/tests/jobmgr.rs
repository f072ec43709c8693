//! Job-manager suite: the supervised multi-job coordinator end to end.
//!
//! Every scenario here exercises one pillar of the job manager — admission
//! control and quotas, deadlines and cancellation, shared-secret
//! authentication, and splitting each job across the pool — while holding
//! the same north star as `distributed.rs` and `chaos.rs`: an admitted,
//! uncancelled job's merged document is byte-identical to the in-process
//! sweep, and every reject, expiry, and auth failure is observable in the
//! envelope counters.

use rh_cli::serve::SubmitError;
use rh_cli::{
    json, run_cancel, run_sweep_with_kernel, run_worker, CancelOptions, Coordinator, FaultPlan,
    ServeOptions, SweepConfig, WorkerOptions,
};
use rh_core::{Geometry, KernelChoice};
use std::path::PathBuf;
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
    json::render(&run_sweep_with_kernel(&job_config(seed), 1, KernelChoice::Auto).unwrap())
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
        std::thread::spawn(move || {
            c.submit_detailed(Some("a".into()), &job_config(1), "client-a", Some(2_500))
        })
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
    let rejected = match coordinator.submit_detailed(None, &job_config(2), "client-b", Some(300)) {
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

/// Pillar 2 + 4: `rh-cli cancel` kills a pending job by name over an
/// authenticated TCP session; the waiting submit fails with the
/// cancellation message, and a wrong token cannot cancel anything.
#[test]
fn cancel_verb_kills_a_pending_job_over_authenticated_tcp() {
    let coordinator = Arc::new(
        Coordinator::start(ServeOptions {
            workers: 0,
            listen: Some("127.0.0.1:0".to_string()),
            auth_token: Some("cancel-secret".to_string()),
            ..ServeOptions::default()
        })
        .expect("start"),
    );
    let addr = coordinator.local_addr().expect("bound").to_string();
    let a = {
        let c = Arc::clone(&coordinator);
        std::thread::spawn(move || {
            c.submit_detailed(Some("doomed".into()), &job_config(3), "local", None)
        })
    };

    // Retry until the submit thread has admitted the job (before that the
    // id is unknown and cancel exits nonzero).
    let opts = CancelOptions {
        connect: addr,
        id: "doomed".to_string(),
        timeout: Some(Duration::from_secs(10)),
        auth_token: Some("cancel-secret".to_string()),
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
    // And a wrong token never even reaches the job table.
    let auth_failures_before = coordinator.auth_failures();
    let bad = CancelOptions {
        auth_token: Some("guess".to_string()),
        ..opts
    };
    assert!(run_cancel(&bad).is_err());
    assert!(coordinator.auth_failures() > auth_failures_before);
    assert_eq!(
        coordinator.cancelled_jobs(),
        1,
        "the bad client canceled nothing"
    );
    coordinator.shutdown();
}

/// Pillar 4: a worker presenting a bad proof is rejected at the door
/// (counted, terminal for the worker), while the authenticated worker
/// completes the job byte-identically.
#[test]
fn wrong_token_worker_is_rejected_and_an_authenticated_worker_serves_the_job() {
    let coordinator = Coordinator::start(ServeOptions {
        workers: 0,
        listen: Some("127.0.0.1:0".to_string()),
        auth_token: Some("sekrit".to_string()),
        ..ServeOptions::default()
    })
    .expect("start");
    let addr = coordinator.local_addr().expect("bound").to_string();

    // The wrong-token fault corrupts the proof even though the worker
    // holds the real token — exactly a compromised or misconfigured peer.
    let bad_addr = addr.clone();
    let bad = std::thread::spawn(move || {
        run_worker(&WorkerOptions {
            connect: Some(bad_addr),
            fault_plan: FaultPlan::parse("wrong-token=1").expect("plan"),
            auth_token: Some("sekrit".to_string()),
            ..WorkerOptions::default()
        })
    });
    let err = bad
        .join()
        .expect("worker thread")
        .expect_err("a bad proof must be terminal for the worker");
    assert!(err.contains("auth"), "got: {err}");
    assert_eq!(coordinator.auth_failures(), 1);
    assert_eq!(coordinator.live_workers(), 0, "the impostor never leases");

    // The honest worker attaches and the job's bytes are unaffected.
    let good = std::thread::spawn(move || {
        run_worker(&WorkerOptions {
            connect: Some(addr),
            auth_token: Some("sekrit".to_string()),
            ..WorkerOptions::default()
        })
    });
    let env = coordinator.submit(None, &job_config(4)).expect("submit");
    assert_eq!(env.document, reference(4));
    assert_eq!(
        env.auth_failures, 1,
        "the envelope surfaces the failed hello"
    );
    coordinator.shutdown();
    let _ = good.join().expect("worker thread");
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
