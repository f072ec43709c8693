//! `rh-cli serve` — the coordinator of the distributed sweep service.
//!
//! The thread-level executor ([`crate::exec`]) promoted one level up: the
//! coordinator accepts sweep configs (jsonl over stdin, or over a TCP
//! listener that multiplexes clients and workers), expands each through
//! [`SweepPlan::from_config`] into the sweep's one cell list
//! (`sweep::sweep_cells`: the grid, then the PARA sweep), chunks it into
//! shard leases, schedules the leases across a pool of `rh-cli worker`
//! processes (spawned locally over stdio pipes, or attached over TCP), and
//! merges the streamed per-cell results back into list order. The merged document is
//! **byte-identical to an in-process `rh-cli sweep` run of the same
//! config** regardless of shard layout, worker count, worker arrival
//! order, or mid-job worker death — the PR 2 determinism invariant
//! generalized from threads to processes and hosts. This works because a
//! cell result is a pure function of `(config, cell index)` and the merge
//! is slot-addressed: *where* a result came from can't matter.
//!
//! Service machinery layered on top:
//!
//! * **Result cache** ([`crate::cache`]): completed documents are stored
//!   under the canonical `(config_hash, seed)` key; a repeated request is
//!   served from memory without touching a worker, observable via the
//!   `served_from_cache` flag and coordinator-lifetime `cache_hits`
//!   counter in the response envelope.
//! * **Single-flight dedup**: a submit whose key matches an in-flight job
//!   doesn't execute — it waits on that job and is served from the cache
//!   the moment the primary lands (`coalesced: true`). N concurrent
//!   identical requests cost one execution.
//! * **Checkpoint journal**: with `--checkpoint-dir`, every merged cell is
//!   appended to a checksummed jsonl file keyed by `(config_hash, seed)`,
//!   one record per cell under its list position — the service's one
//!   durable store. A resubmit after a crash, cancel, or coordinator
//!   restart loads the file, fills the slots it covers, and schedules only
//!   the missing cells (`checkpoint_cells` in the envelope counts the
//!   restored ones); a fully journaled key merges without a worker and
//!   warms the result cache. Damage at rest (a torn tail, a flipped or
//!   non-UTF-8 byte) costs one re-executed cell per bad record, counted as
//!   `checkpoint_skipped`.
//! * **Worker-death recovery**: a worker connection dropping mid-shard
//!   requeues the lease minus the cells that already streamed back; another
//!   worker re-executes only the remainder. Determinism makes re-execution
//!   harmless by construction.
//! * **Back-pressure**: all transports are blocking pipes/TCP streams. A
//!   coordinator that falls behind stops draining, the worker's writes
//!   stall, and the pipeline self-throttles — no unbounded buffering
//!   anywhere.
//! * **Admission control**: the job queue is bounded (`--max-pending-jobs`)
//!   and each client identity is bounded in concurrent jobs and queued
//!   cells; a submit over any bound gets a clean
//!   `{"type":"reject","reason":...}` line instead of an unbounded wait,
//!   observable via `rejected_submits` in later envelopes.
//! * **Deadlines & cancellation**: `submit --job-deadline-ms` expires a
//!   job that hasn't merged in time, and `rh-cli cancel <id>` kills one
//!   mid-flight. Either way workers are told to abandon the job's cells
//!   *mid-shard* (a `cancel` lease message, acknowledged with
//!   `cancel_ack`, never requeued) instead of burning the rest of the
//!   lease.
//! * **Pool split**: at submit time the job's missing slots are folded into
//!   units, one simulation each (the cells that differ only in `HC_first`
//!   under no mitigation, PARA or TRR; see [`crate::exec`]), exactly as
//!   `rh-cli sweep` folds them, and the units are cut into leases of
//!   `units / live workers` simulations (rounded up, at most
//!   `--shard-cells`), so every live worker pulls at least one lease of a
//!   job with a simulation per worker: on two workers the default job is 5
//!   leases of 16/16/16/16/5 simulations. A lease never splits a unit, so
//!   the worker simulates each once. Units follow their first cell's plan
//!   order and only a unit's simulated cell needs device tables, so a full
//!   lease builds one or two `(hc_first, pattern)` table sets on the
//!   default grid and at most three on the two-pattern DDR4 reference
//!   grid; the merge is slot-addressed, so any width yields byte-identical
//!   output.
//! * **Authentication**: with `--auth-token-file`, worker hellos and
//!   client sessions must carry a proof derived from the shared token and
//!   a caller-chosen nonce ([`proto::auth_proof`], compared in constant
//!   time). Failures are rejected cleanly and counted. Coordinator-spawned
//!   stdio workers are exempt — the pipe itself is the trust boundary;
//!   auth guards the TCP front door.

use crate::cache::ResultCache;
use crate::engine::RunResult;
use crate::faults::FaultPlan;
use crate::json;
use crate::plan::SweepPlan;
use crate::proto::{
    self, encode_error, fnv1a64, line_too_long, read_line, read_line_bounded, write_line,
    ClientMsg, FromWorker, Line, ResultEnvelope, ToWorker, WorkerStat, MAX_LINE_BYTES,
    PROTO_VERSION,
};
use crate::sweep::{sweep_cells, sweep_output, SweepConfig};
use rh_core::Kernel;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long [`Coordinator::start`] waits for locally-spawned workers to say
/// hello before giving up (covers debug-build startup on a loaded box).
const HELLO_TIMEOUT: Duration = Duration::from_secs(60);

/// Straggler deadline = `max(speculate_after, EWMA-per-cell × FACTOR)`:
/// a lease whose last progress is older than the deadline is speculatively
/// re-leased. The factor leaves an order of magnitude of headroom over the
/// observed cell time so normal jitter never triggers a duplicate.
const SPECULATE_EWMA_FACTOR: f64 = 16.0;

/// EWMA smoothing for the observed per-cell wall time.
const EWMA_ALPHA: f64 = 0.3;

/// Polling cadence of the in-process fallback waiter.
const FALLBACK_TICK: Duration = Duration::from_millis(25);

/// Configuration for [`Coordinator::start`] (the parsed `rh-cli serve`
/// flags, plus test-only knobs).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Local worker processes to spawn over stdio pipes.
    pub workers: usize,
    /// TCP address to listen on for clients and late-attaching workers
    /// (e.g. `127.0.0.1:4242`, port 0 for ephemeral).
    pub listen: Option<String>,
    /// Result-cache capacity in documents.
    pub cache_capacity: usize,
    /// Directory for the checkpoint journals (one file per config key);
    /// `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Maximum simulations per shard lease (one per unit of cells folded
    /// along `HC_first`); below this cap a job is split into one lease of
    /// whole units per live worker.
    pub shard_cells: usize,
    /// Worker executable to spawn; defaults to the current executable
    /// (tests point it at the real `rh-cli` binary).
    pub worker_program: Option<PathBuf>,
    /// Extra argv per local worker index (fault injection in tests:
    /// `["--fault-plan", "crash-after-cells=7"]` for worker 0 only).
    pub worker_extra_args: Vec<Vec<String>>,
    /// Coordinator-side fault plan (`cancel-after-cells`, `slow-client`).
    pub fault_plan: FaultPlan,
    /// Graceful degradation: when a job has waited this long without any
    /// live worker, the submitting thread claims the job's leases and
    /// executes them in-process. `None` (default) preserves fail-fast.
    pub fallback_after: Option<Duration>,
    /// Config generation; a worker announcing a different epoch in its
    /// hello is rejected before it can lease anything.
    pub config_epoch: u64,
    /// Floor of the straggler deadline for speculative re-execution;
    /// `None` disables speculation.
    pub speculate_after: Option<Duration>,
    /// Admission bound: maximum unfinished jobs coordinator-wide; a submit
    /// past it is rejected with reason `queue_full`.
    pub max_pending_jobs: usize,
    /// Per-client bound on concurrent unfinished jobs (`client_job_quota`).
    pub max_jobs_per_client: usize,
    /// Per-client bound on queued (not yet merged) cells across that
    /// client's unfinished jobs (`client_cell_quota`).
    pub max_cells_per_client: usize,
    /// How long a fresh TCP connection gets to produce its first line
    /// (also the auth-challenge deadline, since the proof rides that
    /// first line).
    pub handshake_timeout: Duration,
    /// Shared secret for worker/client authentication; `None` (default)
    /// accepts anyone, as before.
    pub auth_token: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            listen: None,
            cache_capacity: crate::cache::DEFAULT_CAPACITY,
            checkpoint_dir: None,
            shard_cells: 16,
            worker_program: None,
            worker_extra_args: Vec::new(),
            fault_plan: FaultPlan::default(),
            fallback_after: None,
            config_epoch: 0,
            speculate_after: Some(Duration::from_secs(10)),
            max_pending_jobs: 64,
            max_jobs_per_client: 16,
            max_cells_per_client: 1_000_000,
            handshake_timeout: Duration::from_secs(10),
            auth_token: None,
        }
    }
}

/// One schedulable lease: whole units of one job's cell list, by list
/// position.
#[derive(Debug, Clone)]
struct Lease {
    job: u64,
    shard: u64,
    indices: Vec<usize>,
}

/// Terminal state of a job: the rendered document, or an error.
type JobOutcome = Result<String, String>;

/// A lease currently executing on a worker, tracked for supervision: the
/// speculation supervisor re-leases the still-missing cells of any entry
/// whose `last_progress` (cell arrival or heartbeat) has gone stale.
struct ActiveLease {
    lease: Lease,
    last_progress: Instant,
    /// Already re-leased once; never speculate the same lease twice.
    speculated: bool,
    /// Which worker holds the lease — keys the per-worker EWMA the
    /// straggler deadline prefers over the global one.
    worker: String,
}

struct Job {
    plan: Arc<SweepPlan>,
    key: (u64, u64),
    /// One result slot per cell of `sweep_cells(plan)`, in list order.
    slots: Vec<Option<RunResult>>,
    /// Unfilled slots remaining before the job can merge.
    remaining: usize,
    executed_cells: u64,
    checkpoint_cells: u64,
    /// Checkpoint records skipped as garbled/torn during restore.
    checkpoint_skipped: u64,
    /// Straggler leases speculatively re-executed.
    speculations: u64,
    /// Duplicate cell completions, each asserted bit-exact before counting.
    duplicate_cells: u64,
    /// Worker name → (the kernel its hello announced, cells contributed).
    workers: BTreeMap<String, (String, u64)>,
    /// Which client identity admitted this job (quota accounting).
    client: String,
    /// Wall-clock bound from `submit --job-deadline-ms`; an unmerged job
    /// past it is expired exactly like a cancel.
    deadline: Option<Instant>,
    /// When the job was admitted; anchors `queue_wait_ms`.
    admitted_at: Instant,
    /// Admission → first merged/restored cell, for the envelope.
    queue_wait_ms: Option<u64>,
    done: Option<JobOutcome>,
}

struct State {
    jobs: HashMap<u64, Job>,
    /// Client-visible job ids (for `cancel`).
    named: HashMap<String, u64>,
    queue: VecDeque<Lease>,
    cache: ResultCache,
    /// Key → job id of the in-flight execution (single-flight dedup).
    inflight: HashMap<(u64, u64), u64>,
    /// Shard id → supervision record for every lease out on a worker.
    active: HashMap<u64, ActiveLease>,
    /// Smoothed per-cell wall time (milliseconds), fed by cell arrivals;
    /// the adaptive half of the straggler deadline.
    ewma_cell_millis: Option<f64>,
    /// Per-worker smoothed cell time — sharper straggler deadlines than
    /// the global EWMA on heterogeneous pools.
    worker_ewma_ms: HashMap<String, f64>,
    next_job: u64,
    next_shard: u64,
    /// Workers currently connected (past hello + vetting).
    live_workers: usize,
    /// Locally-spawned workers that have said hello (the start barrier).
    local_hellos: usize,
    /// A local worker exited before hello (spawn failure).
    spawn_failed: Option<String>,
    /// Connections whose first line was not a decodable hello or client
    /// message (logged and dropped, never panicked on).
    rejected_connections: u64,
    /// Workers refused for protocol-version or config-epoch skew.
    rejected_workers: u64,
    /// Submits refused by admission control or quotas (or client auth).
    rejected_submits: u64,
    /// Worker hellos and client sessions refused for a bad auth proof.
    auth_failures: u64,
    /// Jobs canceled by a client, an expired deadline, or a fault plan.
    cancelled_jobs: u64,
    /// Coordinator-lifetime merged-cell count (drives the
    /// `cancel-after-cells` fault arm).
    merged_cells_total: u64,
    shutting_down: bool,
}

impl State {
    fn new(cache_capacity: usize) -> Self {
        Self {
            jobs: HashMap::new(),
            named: HashMap::new(),
            queue: VecDeque::new(),
            cache: ResultCache::new(cache_capacity),
            inflight: HashMap::new(),
            active: HashMap::new(),
            ewma_cell_millis: None,
            worker_ewma_ms: HashMap::new(),
            next_job: 0,
            next_shard: 0,
            live_workers: 0,
            local_hellos: 0,
            spawn_failed: None,
            rejected_connections: 0,
            rejected_workers: 0,
            rejected_submits: 0,
            auth_failures: 0,
            cancelled_jobs: 0,
            merged_cells_total: 0,
            shutting_down: false,
        }
    }
}

struct Inner {
    state: Mutex<State>,
    /// Signaled when leases are queued or the service shuts down.
    work: Condvar,
    /// Signaled on job completion, hello, and failure.
    done: Condvar,
    checkpoint_dir: Option<PathBuf>,
    shard_cells: usize,
    /// TCP listen mode: workers may attach later, so an empty pool blocks
    /// instead of failing jobs.
    allow_late_workers: bool,
    /// Required `config_epoch` in worker hellos.
    config_epoch: u64,
    /// In-process fallback deadline (`None` = fail fast, the pre-existing
    /// behavior).
    fallback_after: Option<Duration>,
    /// Speculation floor (`None` = no speculation).
    speculate_after: Option<Duration>,
    /// Admission bound on unfinished jobs coordinator-wide.
    max_pending_jobs: usize,
    /// Per-client concurrent-job quota.
    max_jobs_per_client: usize,
    /// Per-client queued-cell quota.
    max_cells_per_client: usize,
    /// First-line (and auth-challenge) deadline for TCP connections.
    handshake_timeout: Duration,
    /// Shared secret; `None` accepts unauthenticated peers.
    auth_token: Option<String>,
    /// Coordinator-side `slow-client` fault: injected latency before each
    /// client reply.
    slow_client_delay: Option<Duration>,
    /// Coordinator-side `cancel-after-cells` fault: cancel the job whose
    /// cell is the Nth merged coordinator-wide.
    cancel_after_cells: Option<u64>,
}

/// A running coordinator. Submit jobs via [`Coordinator::submit`] (the TCP
/// listener and the CLI's stdin loop both funnel into it).
pub struct Coordinator {
    inner: Arc<Inner>,
    children: Mutex<Vec<Child>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    listen_addr: Option<SocketAddr>,
}

impl Coordinator {
    /// Spawn local workers, bind the listener (if any), and wait for every
    /// local worker's hello so submits never race worker startup.
    pub fn start(opts: ServeOptions) -> Result<Self, String> {
        let inner = Arc::new(Inner {
            state: Mutex::new(State::new(opts.cache_capacity)),
            work: Condvar::new(),
            done: Condvar::new(),
            checkpoint_dir: opts.checkpoint_dir.clone(),
            shard_cells: opts.shard_cells.max(1),
            allow_late_workers: opts.listen.is_some(),
            config_epoch: opts.config_epoch,
            fallback_after: opts.fallback_after,
            speculate_after: opts.speculate_after,
            max_pending_jobs: opts.max_pending_jobs.max(1),
            max_jobs_per_client: opts.max_jobs_per_client.max(1),
            max_cells_per_client: opts.max_cells_per_client.max(1),
            handshake_timeout: opts.handshake_timeout,
            auth_token: opts.auth_token.clone(),
            slow_client_delay: opts.fault_plan.slow_client_delay(),
            cancel_after_cells: opts.fault_plan.cancel_after_cells(),
        });
        if let Some(dir) = &inner.checkpoint_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
        }

        let listen_addr = match &opts.listen {
            Some(addr) => {
                let listener =
                    TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
                let bound = listener
                    .local_addr()
                    .map_err(|e| format!("local_addr: {e}"))?;
                let accept_inner = Arc::clone(&inner);
                // Detached: dies with the process. Joining would require
                // interrupting accept(), which std can't do portably.
                std::thread::spawn(move || accept_loop(&accept_inner, &listener));
                Some(bound)
            }
            None => None,
        };

        let coordinator = Self {
            inner,
            children: Mutex::new(Vec::new()),
            handlers: Mutex::new(Vec::new()),
            listen_addr,
        };

        if coordinator.inner.speculate_after.is_some() {
            let sup = Arc::clone(&coordinator.inner);
            let handle = std::thread::spawn(move || supervise_stragglers(&sup));
            coordinator
                .handlers
                .lock()
                .expect("handler lock")
                .push(handle);
        }

        let program = match &opts.worker_program {
            Some(p) => p.clone(),
            None => std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        };
        for i in 0..opts.workers {
            coordinator.spawn_local_worker(&program, i, &opts)?;
        }

        // Hello barrier: a submit issued right after start() must find the
        // whole pool live.
        let deadline = std::time::Instant::now() + HELLO_TIMEOUT;
        let mut st = coordinator.inner.state.lock().expect("coordinator lock");
        while st.local_hellos < opts.workers {
            if let Some(err) = &st.spawn_failed {
                return Err(format!("local worker failed to start: {err}"));
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err(format!(
                    "timed out waiting for {} local workers to say hello",
                    opts.workers
                ));
            }
            let (guard, _) = coordinator
                .inner
                .done
                .wait_timeout(st, left)
                .expect("coordinator lock");
            st = guard;
        }
        drop(st);
        Ok(coordinator)
    }

    fn spawn_local_worker(
        &self,
        program: &Path,
        index: usize,
        opts: &ServeOptions,
    ) -> Result<(), String> {
        let mut cmd = Command::new(program);
        cmd.arg("worker");
        // Locally-spawned workers inherit the coordinator's epoch so they
        // pass their own hello vetting; test args come later and can
        // override it (last flag wins) to exercise the rejection path.
        cmd.args(["--config-epoch", &opts.config_epoch.to_string()]);
        if let Some(extra) = opts.worker_extra_args.get(index) {
            cmd.args(extra);
        }
        // Environment inherited on purpose: RH_FORCE_SCALAR set on the
        // coordinator reaches every local worker's own Kernel::auto().
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {}: {e}", program.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let inner = Arc::clone(&self.inner);
        let name = format!("local-{index}");
        let handle = std::thread::spawn(move || worker_handler(&inner, &name, stdout, stdin, true));
        self.handlers.lock().expect("handler lock").push(handle);
        self.children.lock().expect("children lock").push(child);
        Ok(())
    }

    /// The bound TCP address, when listening (port 0 resolves here).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listen_addr
    }

    /// Submit one config and block until its envelope is ready (cache hit,
    /// coalesced onto an in-flight twin, or executed). The in-process
    /// caller is the `local` client identity with no deadline; rejections
    /// surface as plain errors here.
    pub fn submit(&self, id: Option<String>, cfg: &SweepConfig) -> Result<ResultEnvelope, String> {
        self.submit_detailed(id, cfg, "local", None)
            .map_err(SubmitError::into_message)
    }

    /// [`Coordinator::submit`] with an explicit client identity and
    /// optional deadline, distinguishing admission rejections from
    /// execution failures.
    pub fn submit_detailed(
        &self,
        id: Option<String>,
        cfg: &SweepConfig,
        client: &str,
        deadline_ms: Option<u64>,
    ) -> Result<ResultEnvelope, SubmitError> {
        Inner::submit(&self.inner, id, cfg, client, deadline_ms)
    }

    /// Cancel a named in-flight job: queued leases are dropped, waiters get
    /// an error, checkpointed cells survive for a later resubmit. Returns
    /// false for unknown/finished ids.
    pub fn cancel(&self, id: &str) -> bool {
        cancel_by_name(&self.inner, id)
    }

    /// Lifetime cache hits (the observable served-from-cache counter).
    pub fn cache_hits(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("coordinator lock")
            .cache
            .hits()
    }

    /// Count of currently-connected workers.
    pub fn live_workers(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("coordinator lock")
            .live_workers
    }

    /// Workers refused at hello time for protocol-version or config-epoch
    /// skew.
    pub fn rejected_workers(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("coordinator lock")
            .rejected_workers
    }

    /// Connections dropped because their first line decoded as neither a
    /// worker hello nor a client message.
    pub fn rejected_connections(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("coordinator lock")
            .rejected_connections
    }

    /// Unfinished jobs currently held — the number admission control
    /// weighs against `--max-pending-jobs`.
    pub fn queue_depth(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("coordinator lock")
            .jobs
            .values()
            .filter(|j| j.done.is_none())
            .count() as u64
    }

    /// Submits refused by admission control, quotas, or client auth.
    pub fn rejected_submits(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("coordinator lock")
            .rejected_submits
    }

    /// Worker hellos and client sessions refused for a bad auth proof.
    pub fn auth_failures(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("coordinator lock")
            .auth_failures
    }

    /// Jobs canceled by a client, an expired deadline, or a fault plan.
    pub fn cancelled_jobs(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("coordinator lock")
            .cancelled_jobs
    }

    /// Documents evicted from the in-memory LRU result cache.
    pub fn evictions(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("coordinator lock")
            .cache
            .evictions()
    }

    /// Stop accepting work, shut down workers, and join handler threads.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock().expect("coordinator lock");
            if st.shutting_down {
                return;
            }
            st.shutting_down = true;
            for job in st.jobs.values_mut() {
                if job.done.is_none() {
                    job.done = Some(Err("coordinator shutting down".to_string()));
                }
            }
            st.queue.clear();
            st.inflight.clear();
            self.inner.work.notify_all();
            self.inner.done.notify_all();
        }
        for handle in self.handlers.lock().expect("handler lock").drain(..) {
            let _ = handle.join();
        }
        for child in self.children.lock().expect("children lock").iter_mut() {
            // Handlers already sent shutdown; reap (or kill a wedged one).
            match child.try_wait() {
                Ok(Some(_)) => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How a submit failed: refused at the door (admission control, quota,
/// auth — the wire's `{"type":"reject"}` line), or admitted but failed to
/// execute (the wire's `{"type":"error"}` line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Machine-readable rejection reason (`queue_full`,
    /// `client_job_quota`, `client_cell_quota`, `auth_failed`).
    Rejected(String),
    Failed(String),
}

impl SubmitError {
    /// Flatten into a single error message for callers that don't
    /// distinguish the two.
    pub fn into_message(self) -> String {
        match self {
            SubmitError::Rejected(reason) => format!("rejected: {reason}"),
            SubmitError::Failed(e) => e,
        }
    }
}

impl Inner {
    fn submit(
        inner: &Arc<Inner>,
        id: Option<String>,
        cfg: &SweepConfig,
        client: &str,
        deadline_ms: Option<u64>,
    ) -> Result<ResultEnvelope, SubmitError> {
        let key = proto::config_key(cfg);
        let plan = Arc::new(SweepPlan::from_config(cfg).map_err(SubmitError::Failed)?);
        let cells = sweep_cells(&plan);
        let mut st = inner.state.lock().expect("coordinator lock");
        if st.shutting_down {
            return Err(SubmitError::Failed("coordinator shutting down".to_string()));
        }
        let id = id.unwrap_or_else(|| format!("job-{}", st.next_job));

        // 1. Cache: the in-memory LRU. What survives a restart is the
        //    checkpoint journal, restored in step 4.
        if let Some(document) = st.cache.get(key) {
            let stats = EnvStats {
                served_from_cache: true,
                ..EnvStats::default()
            };
            return Ok(envelope(&id, key, &st, stats, document));
        }

        // 2. Coalesce onto an identical in-flight job.
        if let Some(&primary) = st.inflight.get(&key) {
            loop {
                let outcome = st
                    .jobs
                    .get(&primary)
                    .and_then(|j| j.done.clone())
                    .or_else(|| {
                        st.shutting_down
                            .then(|| Err("coordinator shutting down".into()))
                    });
                match outcome {
                    Some(Ok(_)) => {
                        // Served from the cache the primary just filled — a
                        // real cache hit, plus the coalesced marker.
                        let document = st
                            .cache
                            .get(key)
                            .expect("primary job inserts before completing");
                        let stats = EnvStats {
                            served_from_cache: true,
                            coalesced: true,
                            ..EnvStats::default()
                        };
                        return Ok(envelope(&id, key, &st, stats, document));
                    }
                    Some(Err(e)) => return Err(SubmitError::Failed(e)),
                    None => st = inner.done.wait(st).expect("coordinator lock"),
                }
            }
        }

        // 3. Admission control. Only genuinely new work is gated: cache
        //    hits and coalesced waits above cost no worker time. Reasons
        //    are machine-readable — they travel the wire as
        //    `{"type":"reject","reason":...}`.
        let job_cells = cells.len();
        let pending = st.jobs.values().filter(|j| j.done.is_none());
        let (mut total, mut mine, mut my_cells) = (0usize, 0usize, 0usize);
        for job in pending {
            total += 1;
            if job.client == client {
                mine += 1;
                my_cells += job.remaining;
            }
        }
        let refused = if total >= inner.max_pending_jobs {
            Some("queue_full")
        } else if mine >= inner.max_jobs_per_client {
            Some("client_job_quota")
        } else if my_cells + job_cells > inner.max_cells_per_client {
            Some("client_cell_quota")
        } else {
            None
        };
        if let Some(reason) = refused {
            st.rejected_submits += 1;
            eprintln!("rh-serve: rejecting submit '{id}' from {client}: {reason}");
            return Err(SubmitError::Rejected(reason.to_string()));
        }

        // 4. New job.
        let job_id = st.next_job;
        st.next_job += 1;
        let mut job = Job {
            slots: vec![None; job_cells],
            remaining: job_cells,
            plan: Arc::clone(&plan),
            key,
            executed_cells: 0,
            checkpoint_cells: 0,
            checkpoint_skipped: 0,
            speculations: 0,
            duplicate_cells: 0,
            workers: BTreeMap::new(),
            client: client.to_string(),
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            admitted_at: Instant::now(),
            queue_wait_ms: None,
            done: None,
        };
        if let Some(dir) = &inner.checkpoint_dir {
            load_checkpoints(dir, &mut job);
        }

        if job.remaining == 0 {
            // Fully restored from the journal: no worker needed at all.
            job.queue_wait_ms = Some(0);
            let document = finalize_document(&job);
            st.cache.put(key, document.clone());
            let stats = EnvStats {
                checkpoint_cells: job.checkpoint_cells,
                checkpoint_skipped: job.checkpoint_skipped,
                ..EnvStats::default()
            };
            job.done = Some(Ok(document.clone()));
            st.jobs.insert(job_id, job);
            st.named.insert(id.clone(), job_id);
            inner.done.notify_all();
            return Ok(envelope(&id, key, &st, stats, document));
        }

        if st.live_workers == 0 && !inner.allow_late_workers && inner.fallback_after.is_none() {
            return Err(SubmitError::Failed(
                "no live workers and none can attach (start with --workers or --listen)"
                    .to_string(),
            ));
        }

        // Queue shard leases for the missing cells: folded into units (one
        // simulation each), and the units split across the workers live
        // right now.
        let missing: Vec<usize> = job
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        let units = crate::exec::units(missing.iter().map(|&i| &cells[i]));
        let width = lease_width(units.len(), st.live_workers, inner.shard_cells);
        let mut leases = Vec::new();
        for chunk in units.chunks(width) {
            let indices = chunk.iter().flatten().map(|&p| missing[p]).collect();
            let shard = st.next_shard;
            st.next_shard += 1;
            leases.push(Lease {
                job: job_id,
                shard,
                indices,
            });
        }
        st.jobs.insert(job_id, job);
        st.named.insert(id.clone(), job_id);
        st.inflight.insert(key, job_id);
        st.queue.extend(leases);
        inner.work.notify_all();

        // 5. Wait for the merge. With `--fallback-after`, a job stranded
        //    without any live worker past the deadline is claimed by this
        //    very thread: its queued leases are pulled and executed
        //    in-process — degraded to exactly what `rh-cli sweep` does,
        //    which by the determinism invariant yields the same bytes.
        //    A `--job-deadline-ms` expiry is enforced here too: past it
        //    the job dies exactly like a client cancel (workers abandon
        //    its cells at the next boundary).
        let started = Instant::now();
        let job_deadline = st.jobs[&job_id].deadline;
        loop {
            let outcome = st.jobs.get(&job_id).and_then(|j| j.done.clone());
            match outcome {
                Some(Ok(document)) => {
                    let stats = EnvStats::from_job(&st.jobs[&job_id]);
                    return Ok(envelope(&id, key, &st, stats, document));
                }
                Some(Err(e)) => return Err(SubmitError::Failed(e)),
                None => {
                    if let Some(dl) = job_deadline {
                        if Instant::now() >= dl {
                            cancel_job(
                                inner,
                                &mut st,
                                job_id,
                                &format!("job '{id}' deadline expired"),
                            );
                            continue;
                        }
                    }
                    if let Some(deadline) = inner.fallback_after {
                        if st.live_workers == 0 && started.elapsed() >= deadline {
                            let mine: Vec<Lease> = st
                                .queue
                                .iter()
                                .filter(|l| l.job == job_id)
                                .cloned()
                                .collect();
                            if !mine.is_empty() {
                                st.queue.retain(|l| l.job != job_id);
                                eprintln!(
                                    "rh-serve: no live worker after {deadline:?}; \
                                     executing job {job_id} in-process"
                                );
                                drop(st);
                                run_leases_in_process(inner, &mine);
                                st = inner.state.lock().expect("coordinator lock");
                                continue;
                            }
                        }
                        st = inner
                            .done
                            .wait_timeout(st, FALLBACK_TICK)
                            .expect("coordinator lock")
                            .0;
                    } else if let Some(dl) = job_deadline {
                        // Bounded wait: nothing notifies on wall-clock
                        // expiry, so sleep at most up to the deadline.
                        let left = dl
                            .saturating_duration_since(Instant::now())
                            .max(Duration::from_millis(1));
                        st = inner
                            .done
                            .wait_timeout(st, left)
                            .expect("coordinator lock")
                            .0;
                    } else {
                        st = inner.done.wait(st).expect("coordinator lock");
                    }
                }
            }
        }
    }
}

/// Per-job statistics carried into a response envelope.
#[derive(Default)]
struct EnvStats {
    served_from_cache: bool,
    coalesced: bool,
    executed_cells: u64,
    checkpoint_cells: u64,
    checkpoint_skipped: u64,
    speculations: u64,
    duplicate_cells: u64,
    queue_wait_ms: u64,
    workers: Vec<WorkerStat>,
}

impl EnvStats {
    fn from_job(job: &Job) -> Self {
        Self {
            served_from_cache: false,
            coalesced: false,
            executed_cells: job.executed_cells,
            checkpoint_cells: job.checkpoint_cells,
            checkpoint_skipped: job.checkpoint_skipped,
            speculations: job.speculations,
            duplicate_cells: job.duplicate_cells,
            queue_wait_ms: job.queue_wait_ms.unwrap_or(0),
            workers: job
                .workers
                .iter()
                .map(|(name, (kernel, cells))| WorkerStat {
                    worker: name.clone(),
                    kernel: kernel.clone(),
                    cells: *cells,
                })
                .collect(),
        }
    }
}

/// Build a response envelope (cache_hits snapshots the lifetime counter).
fn envelope(
    id: &str,
    key: (u64, u64),
    st: &State,
    stats: EnvStats,
    document: String,
) -> ResultEnvelope {
    ResultEnvelope {
        id: id.to_string(),
        config_hash: key.0,
        seed: key.1,
        served_from_cache: stats.served_from_cache,
        coalesced: stats.coalesced,
        cache_hits: st.cache.hits(),
        executed_cells: stats.executed_cells,
        checkpoint_cells: stats.checkpoint_cells,
        checkpoint_skipped: stats.checkpoint_skipped,
        speculations: stats.speculations,
        duplicate_cells: stats.duplicate_cells,
        evictions: st.cache.evictions(),
        queue_depth: st.jobs.values().filter(|j| j.done.is_none()).count() as u64,
        queue_wait_ms: stats.queue_wait_ms,
        rejected_submits: st.rejected_submits,
        auth_failures: st.auth_failures,
        cancelled_jobs: st.cancelled_jobs,
        workers: stats.workers,
        document,
    }
}

/// Simulations per lease when a job whose missing cells fold into
/// `missing` units (`crate::exec::units`, one simulation each) is split
/// across `live_workers`: one chunk of whole units per worker, capped at
/// `shard_cells` simulations. A job with at least one missing simulation
/// per worker thus gives every worker a lease, and no unit is ever cut in
/// two (its members would each be simulated). Only a unit's first,
/// lowest-`HC_first` member reads tables, so a chunk of consecutive units
/// builds few table sets (see the module docs). With no worker attached
/// yet (a TCP listener before the first hello) the job is cut as for one
/// worker.
fn lease_width(missing: usize, live_workers: usize, shard_cells: usize) -> usize {
    missing.div_ceil(live_workers.max(1)).clamp(1, shard_cells)
}

/// Graceful degradation: execute a stranded job's leases on the submitting
/// thread with the lease runner workers use, merging through the same
/// [`record_cell`] path (so checkpointing, duplicate assertions, and
/// completion all behave identically).
fn run_leases_in_process(inner: &Arc<Inner>, leases: &[Lease]) {
    let kernel = Kernel::auto().name();
    for lease in leases {
        let config = {
            let st = inner.state.lock().expect("coordinator lock");
            match st.jobs.get(&lease.job) {
                Some(job) if job.done.is_none() => job.plan.config.clone(),
                _ => continue,
            }
        };
        let units = match crate::exec::run_lease(&config, &lease.indices) {
            Ok(units) => units,
            Err(e) => {
                let mut st = inner.state.lock().expect("coordinator lock");
                fail_job(inner, &mut st, lease.job, &e);
                continue;
            }
        };
        for done in units {
            let mut st = inner.state.lock().expect("coordinator lock");
            for (index, result) in done {
                record_cell(
                    inner,
                    &mut st,
                    "in-process",
                    kernel,
                    lease.job,
                    lease.shard,
                    index,
                    result,
                );
            }
        }
    }
}

/// The speculation supervisor: ticks while the coordinator is alive,
/// re-leasing the still-missing cells of any active lease whose progress
/// (cell arrival or heartbeat) is older than the adaptive deadline — the
/// per-worker EWMA when that worker has history, else the global one.
/// Determinism makes the duplicate execution harmless; [`record_cell`]
/// asserts the duplicates really are bit-exact.
fn supervise_stragglers(inner: &Arc<Inner>) {
    let floor = inner.speculate_after.expect("supervisor requires a floor");
    let tick = (floor / 8).max(Duration::from_millis(25));
    let mut st = inner.state.lock().expect("coordinator lock");
    loop {
        if st.shutting_down {
            return;
        }
        let now = Instant::now();
        let stale: Vec<u64> = st
            .active
            .iter()
            .filter(|(_, a)| {
                if a.speculated {
                    return false;
                }
                let ewma = st
                    .worker_ewma_ms
                    .get(&a.worker)
                    .copied()
                    .or(st.ewma_cell_millis);
                let deadline = match ewma {
                    Some(ms) => {
                        floor.max(Duration::from_millis((ms * SPECULATE_EWMA_FACTOR) as u64))
                    }
                    None => floor,
                };
                now.duration_since(a.last_progress) >= deadline
            })
            .map(|(&shard, _)| shard)
            .collect();
        for shard in stale {
            speculate(inner, &mut st, shard);
        }
        st = inner
            .work
            .wait_timeout(st, tick)
            .expect("coordinator lock")
            .0;
    }
}

/// Re-lease one straggling shard's missing cells under a fresh shard id.
/// The original lease stays out — whichever copy finishes a cell first
/// fills the slot, and the loser must agree bit-for-bit.
fn speculate(inner: &Arc<Inner>, st: &mut MutexGuard<'_, State>, shard: u64) {
    let Some(active) = st.active.get(&shard) else {
        return;
    };
    let lease = active.lease.clone();
    let Some(job) = st.jobs.get_mut(&lease.job) else {
        st.active.remove(&shard);
        return;
    };
    if job.done.is_some() {
        st.active.remove(&shard);
        return;
    }
    let missing: Vec<usize> = lease
        .indices
        .iter()
        .copied()
        .filter(|&i| job.slots.get(i).is_some_and(Option::is_none))
        .collect();
    if missing.is_empty() {
        return;
    }
    job.speculations += 1;
    let twin_shard = st.next_shard;
    st.next_shard += 1;
    eprintln!(
        "rh-serve: speculating {} stale cell(s) of job {} shard {shard} as shard {twin_shard}",
        missing.len(),
        lease.job,
    );
    st.queue.push_back(Lease {
        job: lease.job,
        shard: twin_shard,
        indices: missing,
    });
    if let Some(a) = st.active.get_mut(&shard) {
        a.speculated = true;
    }
    inner.work.notify_all();
}

/// Render a completed job's merged document — exactly what
/// [`crate::sweep::run_sweep`] would have produced in-process.
fn finalize_document(job: &Job) -> String {
    let results = job
        .slots
        .iter()
        .map(|s| s.clone().expect("job complete"))
        .collect();
    json::render(&sweep_output(&job.plan, results))
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

/// The journal of one key: a record per merged cell, each under its
/// position in the sweep's cell list.
fn checkpoint_path(dir: &Path, key: (u64, u64)) -> PathBuf {
    dir.join(format!("ckpt-{:016x}-{}.jsonl", key.0, key.1))
}

/// Checksum binding a checkpoint record's index to its result payload, so
/// a flipped byte anywhere in the record is detected rather than merged.
fn checkpoint_sum(index: usize, result_json: &str) -> u64 {
    fnv1a64(format!("{index}:{result_json}").as_bytes())
}

/// One record of a checkpoint file, parsed and checksum-verified. `None`
/// means the record is torn or garbled and must be skipped (and counted).
fn decode_checkpoint_line(line: &str) -> Option<(usize, RunResult)> {
    let v = proto::parse(line).ok()?;
    let index = v.get("index").and_then(proto::Value::as_usize)?;
    let sum = v.get("sum").and_then(proto::Value::as_u64)?;
    let result_value = v.get("result")?;
    let result = proto::result_from_value(result_value).ok()?;
    // Re-render for the sum check: render(parse(x)) is canonical here
    // because the writer produced `result_to_json` output in the first
    // place, and a flipped byte inside a number or bool changes it.
    let result_json = proto::result_to_json(&result);
    (checkpoint_sum(index, &result_json) == sum).then_some((index, result))
}

/// Load whatever a previous run journaled for this job's key, filling
/// result slots so only the remainder gets scheduled. The reader works on
/// raw bytes, one `\n`-terminated record at a time: a record that is not
/// UTF-8, does not parse, fails its checksum, or names a position outside
/// the job's cell list is skipped and counted — a bad record costs one
/// cell, not the file, and the skip is observable as `checkpoint_skipped`
/// in the envelope. Blank lines and repeats of a restored cell are
/// ignored. An unterminated tail (a crash mid-append) is skipped the same
/// way and cut off the file, so the next append starts a fresh line
/// instead of fusing with the fragment.
fn load_checkpoints(dir: &Path, job: &mut Job) {
    let path = checkpoint_path(dir, job.key);
    let Ok(bytes) = std::fs::read(&path) else {
        return;
    };
    let terminated = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let (records, tail) = bytes.split_at(terminated);
    for line in records.split(|&b| b == b'\n') {
        if line.trim_ascii().is_empty() {
            continue;
        }
        let record = std::str::from_utf8(line).ok();
        match record.and_then(decode_checkpoint_line) {
            Some((index, result)) => match job.slots.get_mut(index) {
                Some(slot @ None) => {
                    *slot = Some(result);
                    job.remaining -= 1;
                    job.checkpoint_cells += 1;
                }
                Some(Some(_)) => {}
                None => {
                    skip_checkpoint_record(job, &path, "checkpoint record past the job's cells")
                }
            },
            None => skip_checkpoint_record(job, &path, "garbled checkpoint record"),
        }
    }
    if !tail.is_empty() {
        skip_checkpoint_record(job, &path, "torn checkpoint tail");
        let truncated = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|f| {
                f.set_len(terminated as u64)?;
                f.sync_all()
            });
        if let Err(e) = truncated {
            eprintln!(
                "rh-serve: cannot truncate the torn tail of {}: {e}",
                path.display()
            );
        }
    }
}

/// Count and log one journal record that cannot be trusted.
fn skip_checkpoint_record(job: &mut Job, path: &Path, what: &str) {
    job.checkpoint_skipped += 1;
    eprintln!(
        "rh-serve: skipping {what} in {} ({} skipped for this job so far)",
        path.display(),
        job.checkpoint_skipped
    );
}

/// Append one merged cell to its job's checkpoint file.
fn checkpoint_cell(dir: &Path, key: (u64, u64), index: usize, r: &RunResult) {
    let path = checkpoint_path(dir, key);
    let result_json = proto::result_to_json(r);
    let line = format!(
        "{{\"index\":{index},\"sum\":{},\"result\":{result_json}}}\n",
        checkpoint_sum(index, &result_json)
    );
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = written {
        eprintln!(
            "rh-serve: checkpoint append to {} failed: {e}",
            path.display()
        );
    }
}

// ---------------------------------------------------------------------------
// Worker handling
// ---------------------------------------------------------------------------

/// Per-worker-connection loop: consume and vet the hello, then lease
/// shards and merge the streamed results until the connection drops or the
/// service shuts down. `local` marks coordinator-spawned workers (they
/// count toward the start barrier).
fn worker_handler<R: BufRead, W: Write>(
    inner: &Arc<Inner>,
    name: &str,
    mut reader: R,
    mut writer: W,
    local: bool,
) {
    // Hello first — a connection that says anything else is not a worker.
    let kernel = match read_line_bounded(&mut reader, MAX_LINE_BYTES) {
        Ok(Some(Line::Text(line))) => match FromWorker::decode(&line) {
            Ok(FromWorker::Hello {
                kernel,
                proto_version,
                config_epoch,
                auth_nonce,
                auth_proof,
                ..
            }) => {
                if !vet_worker(
                    inner,
                    name,
                    proto_version,
                    config_epoch,
                    auth_nonce,
                    auth_proof.as_deref(),
                    &mut writer,
                    local,
                ) {
                    return;
                }
                kernel
            }
            _ => {
                register_spawn_failure(inner, name, "first message was not hello", local);
                return;
            }
        },
        Ok(Some(Line::TooLong)) => {
            register_spawn_failure(inner, name, "first line exceeds the line limit", local);
            return;
        }
        _ => {
            register_spawn_failure(inner, name, "connection closed before hello", local);
            return;
        }
    };
    worker_session(inner, name, &kernel, &mut reader, &mut writer, local);
}

/// Vet a worker hello against this coordinator's protocol version, config
/// epoch, and (for TCP-attached workers) the shared auth token. A mismatch
/// gets a terminal `reject` line (so the worker exits instead of
/// retrying), a log line, and a counter bump — and, for a locally-spawned
/// worker, fails coordinator startup, since a local pool that can never
/// attach is a configuration error. Local stdio workers skip the auth
/// check: the coordinator spawned them itself over a private pipe.
#[allow(clippy::too_many_arguments)]
fn vet_worker<W: Write>(
    inner: &Arc<Inner>,
    name: &str,
    proto_version: u64,
    config_epoch: u64,
    auth_nonce: u64,
    auth_proof: Option<&str>,
    writer: &mut W,
    local: bool,
) -> bool {
    let mut auth_failed = false;
    let reason = if proto_version != PROTO_VERSION {
        Some(format!(
            "protocol version {proto_version} does not match coordinator version {PROTO_VERSION}"
        ))
    } else if config_epoch != inner.config_epoch {
        Some(format!(
            "config epoch {config_epoch} does not match coordinator epoch {}",
            inner.config_epoch
        ))
    } else if let Some(token) = inner.auth_token.as_ref().filter(|_| !local) {
        let expected = proto::auth_proof(token, auth_nonce);
        if auth_proof.is_some_and(|p| proto::constant_time_eq(p, &expected)) {
            None
        } else {
            auth_failed = true;
            Some("auth proof missing or invalid".to_string())
        }
    } else {
        None
    };
    let Some(reason) = reason else {
        return true;
    };
    eprintln!("rh-serve: rejecting worker {name}: {reason}");
    {
        let mut st = inner.state.lock().expect("coordinator lock");
        st.rejected_workers += 1;
        if auth_failed {
            st.auth_failures += 1;
        }
    }
    let _ = write_line(
        writer,
        &ToWorker::Reject {
            reason: reason.clone(),
        }
        .encode(),
    );
    register_spawn_failure(inner, name, &reason, local);
    false
}

/// [`worker_handler`] for TCP connections whose hello the accept loop
/// already consumed (to tell workers from clients). `kernel` is the settle
/// kernel the hello announced, recorded for every cell this worker merges.
fn worker_session<R: BufRead, W: Write>(
    inner: &Arc<Inner>,
    name: &str,
    kernel: &str,
    reader: &mut R,
    writer: &mut W,
    local: bool,
) {
    {
        let mut st = inner.state.lock().expect("coordinator lock");
        st.live_workers += 1;
        if local {
            st.local_hellos += 1;
        }
        inner.done.notify_all();
    }

    // Jobs this connection has already told the worker to abandon — one
    // `cancel` per job per connection is enough.
    let mut cancel_sent: HashSet<u64> = HashSet::new();
    // Every lease sent on this connection whose stream has not closed yet.
    // After a speculative twin settles a lease early, this loop already
    // drains the next lease while the straggler still streams the old one;
    // a cell of a shard this connection never leased is dropped.
    let mut leased: HashSet<u64> = HashSet::new();

    loop {
        // Dequeue one live lease (or exit on shutdown).
        let lease = {
            let mut st = inner.state.lock().expect("coordinator lock");
            loop {
                if st.shutting_down {
                    drop(st);
                    let _ = write_line(writer, &ToWorker::Shutdown.encode());
                    worker_gone(inner, name, local);
                    return;
                }
                match st.queue.pop_front() {
                    Some(lease) => {
                        let alive = st.jobs.get(&lease.job).is_some_and(|j| j.done.is_none());
                        if alive {
                            break lease;
                        }
                        // Lease of a canceled/failed job: discard, keep looking.
                    }
                    None => st = inner.work.wait(st).expect("coordinator lock"),
                }
            }
        };

        // Materialize the wire lease outside the lock (configs are small,
        // but writes can block on back-pressure).
        let config = inner.state.lock().expect("coordinator lock").jobs[&lease.job]
            .plan
            .config
            .clone();
        let msg = ToWorker::Shard {
            job: lease.job,
            shard: lease.shard,
            indices: lease.indices.clone(),
            config,
        };
        if write_line(writer, &msg.encode()).is_err() {
            requeue(inner, &lease);
            worker_gone(inner, name, local);
            return;
        }
        leased.insert(lease.shard);
        {
            // Register for supervision: the speculation supervisor watches
            // this entry's progress timestamps.
            let mut st = inner.state.lock().expect("coordinator lock");
            st.active.insert(
                lease.shard,
                ActiveLease {
                    lease: lease.clone(),
                    last_progress: Instant::now(),
                    speculated: false,
                    worker: name.to_string(),
                },
            );
        }

        // Drain the shard's result stream. Messages for *other* shards can
        // legitimately appear here (a worker flushing the tail of a lease
        // we already closed as complete) and are merged into their job,
        // never confused with the current lease's lifecycle.
        loop {
            let line = match read_line_bounded(reader, MAX_LINE_BYTES) {
                Ok(Some(Line::Text(line))) => line,
                // Lost like a garbled line (below), without buffering it.
                Ok(Some(Line::TooLong)) => {
                    eprintln!("rh-serve: dropping over-long line from {name}");
                    continue;
                }
                // Died mid-shard: requeue whatever it didn't deliver.
                Ok(None) | Err(_) => {
                    let mut st = inner.state.lock().expect("coordinator lock");
                    st.active.remove(&lease.shard);
                    drop(st);
                    requeue(inner, &lease);
                    worker_gone(inner, name, local);
                    return;
                }
            };
            let msg = match FromWorker::decode(&line) {
                Ok(msg) => msg,
                Err(_) => {
                    // A garbled line (lossy link, fault injection): the
                    // payload is lost but jsonl framing survives, so the
                    // stream stays decodable. Any cell the line carried is
                    // re-leased when this shard closes short.
                    eprintln!("rh-serve: dropping garbled line from {name}");
                    continue;
                }
            };
            match msg {
                FromWorker::Cell {
                    job,
                    shard,
                    index,
                    result,
                } => {
                    if !leased.contains(&shard) {
                        eprintln!(
                            "rh-serve: dropping cell {index} of shard {shard} from {name}: \
                             no such lease on this connection"
                        );
                        continue;
                    }
                    let mut st = inner.state.lock().expect("coordinator lock");
                    record_cell(inner, &mut st, name, kernel, job, shard, index, result);
                    // A cell for a canceled/expired/failed job means the
                    // worker is still burning cells it can't use: tell it
                    // to abandon the job mid-shard. The worker acks and
                    // drops the rest of the lease — never requeued.
                    let dead = st
                        .jobs
                        .get(&job)
                        .is_none_or(|j| matches!(j.done, Some(Err(_))));
                    // Every leased slot filled (possibly with help from a
                    // speculative twin): the lease is complete even if the
                    // closing shard_done gets lost.
                    let settled = shard == lease.shard && lease_settled(&st, &lease);
                    if settled {
                        st.active.remove(&lease.shard);
                    }
                    drop(st);
                    if dead
                        && cancel_sent.insert(job)
                        && write_line(writer, &ToWorker::Cancel { job }.encode()).is_err()
                    {
                        requeue(inner, &lease);
                        worker_gone(inner, name, local);
                        return;
                    }
                    if settled {
                        break;
                    }
                }
                FromWorker::CancelAck { job: _, shard } => {
                    // The worker abandoned the lease at a cell boundary;
                    // its remaining cells die with the job — requeue-free
                    // teardown by design.
                    leased.remove(&shard);
                    let mut st = inner.state.lock().expect("coordinator lock");
                    st.active.remove(&shard);
                    if shard == lease.shard {
                        break;
                    }
                }
                FromWorker::Heartbeat { .. } => {
                    // Liveness only: the pulse proves the socket (and the
                    // read loop) is alive. It deliberately does NOT reset
                    // the speculation clock — a worker that beats but
                    // delivers no cells is exactly the straggler the
                    // supervisor exists to route around.
                }
                FromWorker::ShardDone { job: _, shard } => {
                    leased.remove(&shard);
                    if shard == lease.shard {
                        inner
                            .state
                            .lock()
                            .expect("coordinator lock")
                            .active
                            .remove(&lease.shard);
                        // A dropped line may have swallowed a cell: requeue
                        // whatever the closed shard left unfilled.
                        requeue(inner, &lease);
                        break;
                    }
                }
                FromWorker::Fail {
                    job,
                    shard,
                    message,
                } => {
                    leased.remove(&shard);
                    let mut st = inner.state.lock().expect("coordinator lock");
                    fail_job(inner, &mut st, job, &message);
                    if shard == lease.shard {
                        st.active.remove(&lease.shard);
                        break;
                    }
                }
                FromWorker::Hello { .. } => {} // duplicate hello: ignore
            }
        }
    }
}

/// True when every slot a lease covers is filled — or its job is already
/// finished — so the serving connection can close the lease out.
fn lease_settled(st: &State, lease: &Lease) -> bool {
    let Some(job) = st.jobs.get(&lease.job) else {
        return true;
    };
    if job.done.is_some() {
        return true;
    }
    lease
        .indices
        .iter()
        .all(|&i| job.slots.get(i).is_none_or(Option::is_some))
}

/// Merge one streamed cell into its job. A cell landing in an
/// already-filled slot (speculative twin, or re-execution after a lossy
/// link) is **asserted bit-exact** against the occupant: agreement is
/// counted in `duplicate_cells`; divergence is a determinism violation and
/// fails the job loudly — a wrong answer must never win a race silently.
/// `kernel` is the settle kernel `worker` announced in its hello.
#[allow(clippy::too_many_arguments)]
fn record_cell(
    inner: &Arc<Inner>,
    st: &mut MutexGuard<'_, State>,
    worker: &str,
    kernel: &str,
    job_id: u64,
    shard: u64,
    index: usize,
    result: RunResult,
) {
    // Supervision bookkeeping first: this arrival is progress for its
    // shard, and its wall time feeds the straggler deadline's EWMAs
    // (global and per-worker).
    let now = Instant::now();
    if let Some(active) = st.active.get_mut(&shard) {
        let sample_ms = now.duration_since(active.last_progress).as_secs_f64() * 1e3;
        active.last_progress = now;
        let fold = |prev: Option<f64>| match prev {
            Some(prev) => EWMA_ALPHA * sample_ms + (1.0 - EWMA_ALPHA) * prev,
            None => sample_ms,
        };
        st.ewma_cell_millis = Some(fold(st.ewma_cell_millis));
        let per_worker = st.worker_ewma_ms.get(worker).copied();
        st.worker_ewma_ms
            .insert(worker.to_string(), fold(per_worker));
    }

    let Some(job) = st.jobs.get_mut(&job_id) else {
        return;
    };
    if job.done.is_some() {
        return;
    }
    let key = job.key;
    let Some(slot) = job.slots.get_mut(index) else {
        return;
    };
    if let Some(existing) = slot {
        // Bit-exact comparison via the canonical wire rendering: floats
        // travel as IEEE bit patterns, so equal strings ⇔ equal bits.
        if proto::result_to_json(existing) == proto::result_to_json(&result) {
            job.duplicate_cells += 1;
        } else {
            let message = format!(
                "determinism violation: cell {index} of job {job_id} diverged \
                 between workers (duplicate from {worker} disagrees with the \
                 merged result)"
            );
            eprintln!("rh-serve: {message}");
            fail_job(inner, st, job_id, &message);
        }
        return;
    }
    *slot = Some(result.clone());
    job.remaining -= 1;
    job.executed_cells += 1;
    if job.queue_wait_ms.is_none() {
        job.queue_wait_ms = Some(now.duration_since(job.admitted_at).as_millis() as u64);
    }
    job.workers
        .entry(worker.to_string())
        .or_insert_with(|| (kernel.to_string(), 0))
        .1 += 1;
    let complete = job.remaining == 0;
    st.merged_cells_total += 1;
    if !complete && Some(st.merged_cells_total) == inner.cancel_after_cells {
        // Chaos arm: the job owning the Nth merged cell coordinator-wide
        // is canceled mid-flight, exercising the whole cancel pipeline
        // (teardown, worker-side abandonment, counters) on a schedule.
        eprintln!(
            "rh-serve: fault plan canceling job {job_id} after {} cells",
            st.merged_cells_total
        );
        cancel_job(
            inner,
            st,
            job_id,
            "canceled by fault plan (cancel-after-cells)",
        );
        return;
    }
    if let Some(dir) = &inner.checkpoint_dir {
        checkpoint_cell(dir, key, index, &result);
    }
    if complete {
        let document = finalize_document(&st.jobs[&job_id]);
        st.cache.put(key, document.clone());
        st.inflight.remove(&key);
        if let Some(job) = st.jobs.get_mut(&job_id) {
            job.done = Some(Ok(document));
        }
        inner.done.notify_all();
    }
}

/// Fail one job (worker-reported permanent error): waiters wake with the
/// message, queued leases are dropped.
fn fail_job(inner: &Arc<Inner>, st: &mut MutexGuard<'_, State>, job_id: u64, message: &str) {
    if let Some(job) = st.jobs.get_mut(&job_id) {
        if job.done.is_none() {
            let key = job.key;
            job.done = Some(Err(message.to_string()));
            st.inflight.remove(&key);
            st.queue.retain(|l| l.job != job_id);
            st.active.retain(|_, a| a.lease.job != job_id);
            inner.done.notify_all();
        }
    }
}

/// Requeue a dead worker's lease, minus the cells it already streamed back.
fn requeue(inner: &Arc<Inner>, lease: &Lease) {
    let mut st = inner.state.lock().expect("coordinator lock");
    let Some(job) = st.jobs.get(&lease.job) else {
        return;
    };
    if job.done.is_some() {
        return;
    }
    let mut rest = lease.clone();
    rest.indices
        .retain(|&i| job.slots.get(i).is_some_and(Option::is_none));
    if !rest.indices.is_empty() {
        st.queue.push_front(rest);
        inner.work.notify_all();
    }
}

/// Account a worker disconnect. When the pool empties, no late workers can
/// ever attach, and in-process fallback is off, pending jobs fail fast
/// instead of hanging (with fallback on, the submitting threads pick the
/// stranded leases up themselves).
fn worker_gone(inner: &Arc<Inner>, name: &str, _local: bool) {
    let mut st = inner.state.lock().expect("coordinator lock");
    st.live_workers = st.live_workers.saturating_sub(1);
    if st.live_workers == 0
        && !inner.allow_late_workers
        && inner.fallback_after.is_none()
        && !st.shutting_down
    {
        let stuck: Vec<u64> = st
            .jobs
            .iter()
            .filter(|(_, j)| j.done.is_none())
            .map(|(&id, _)| id)
            .collect();
        for job_id in stuck {
            fail_job(
                inner,
                &mut st,
                job_id,
                &format!("all workers exited (last was {name})"),
            );
        }
    }
}

fn register_spawn_failure(inner: &Arc<Inner>, name: &str, why: &str, local: bool) {
    if local {
        let mut st = inner.state.lock().expect("coordinator lock");
        st.spawn_failed = Some(format!("{name}: {why}"));
        inner.done.notify_all();
    }
}

// ---------------------------------------------------------------------------
// TCP front door
// ---------------------------------------------------------------------------

/// Accept loop: every connection's first line says what it is — a worker
/// hello (vetted before any lease), or a client message. Anything else is
/// a logged, counted, per-connection rejection; the listener itself never
/// panics or hangs on a bad peer.
fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let inner = Arc::clone(inner);
        std::thread::spawn(move || {
            let peer = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "unknown".to_string());
            // `--handshake-timeout-ms`: a connect-and-say-nothing peer must
            // not pin a thread forever, and an authenticated first line
            // (the proof rides the hello) must arrive within the same
            // deadline.
            let _ = stream.set_read_timeout(Some(inner.handshake_timeout));
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            let mut reader = BufReader::new(read_half);
            let mut writer = stream;
            let first = match read_line_bounded(&mut reader, MAX_LINE_BYTES) {
                Ok(Some(Line::Text(first))) => first,
                // Nothing is vetted yet: answer and close.
                Ok(Some(Line::TooLong)) => {
                    reject_connection(&inner, &peer, &mut writer, &line_too_long());
                    return;
                }
                Ok(None) => return, // silent hangup: nothing to log
                Err(_) => {
                    reject_connection(&inner, &peer, &mut writer, "no first line before timeout");
                    return;
                }
            };
            // The timeout only guards the greeting: attached workers
            // legitimately idle between leases. (The clones share one
            // socket, so clearing it on either half clears both.)
            let _ = writer.set_read_timeout(None);
            route_first(&inner, &peer, &first, &mut reader, &mut writer);
        });
    }
}

/// Dispatch a connection on its first line. Factored off the TCP accept
/// path so garbage-greeting handling is unit-testable over in-memory
/// streams.
fn route_first<R: BufRead, W: Write>(
    inner: &Arc<Inner>,
    peer: &str,
    first: &str,
    reader: &mut R,
    writer: &mut W,
) {
    let parsed = proto::parse(first);
    let is_worker_hello = parsed.as_ref().is_ok_and(|v| {
        v.get("type").and_then(proto::Value::as_str) == Some("hello")
            && v.get("role").and_then(proto::Value::as_str) == Some("worker")
    });
    if is_worker_hello {
        let name = format!("tcp-{peer}");
        match FromWorker::decode(first) {
            Ok(FromWorker::Hello {
                kernel,
                proto_version,
                config_epoch,
                auth_nonce,
                auth_proof,
                ..
            }) => {
                if vet_worker(
                    inner,
                    &name,
                    proto_version,
                    config_epoch,
                    auth_nonce,
                    auth_proof.as_deref(),
                    writer,
                    false,
                ) {
                    worker_session(inner, &name, &kernel, reader, writer, false);
                }
            }
            _ => reject_connection(inner, peer, writer, "malformed worker hello"),
        }
    } else if parsed.is_ok() {
        client_session(inner, peer, first, reader, writer);
    } else {
        reject_connection(inner, peer, writer, "first line is not a protocol message");
    }
}

/// Log, count, and answer a connection whose greeting was garbage. The
/// error line is best-effort — the peer may already be gone.
fn reject_connection<W: Write>(inner: &Arc<Inner>, peer: &str, writer: &mut W, why: &str) {
    {
        let mut st = inner.state.lock().expect("coordinator lock");
        st.rejected_connections += 1;
    }
    eprintln!("rh-serve: rejecting connection from {peer}: {why}");
    let _ = write_line(writer, &encode_error("", why));
}

/// One client connection: handle its first line, then every further line
/// until EOF. Submits run to completion in order; a bad line yields an
/// error envelope, not a dropped connection. When the coordinator holds an
/// auth token, the session must open with a valid `client_hello` —
/// anything else gets `{"type":"reject","reason":"auth_failed"}` and the
/// connection is closed.
fn client_session<R: BufRead, W: Write>(
    inner: &Arc<Inner>,
    peer: &str,
    first: &str,
    reader: &mut R,
    writer: &mut W,
) {
    // Client identity for quota accounting: the peer IP (not IP:port — a
    // client opening many connections is still one client). In-memory
    // test transports pass a plain label through unchanged.
    let client = peer.rsplit_once(':').map_or(peer, |(host, _)| host);
    let mut authed = inner.auth_token.is_none();
    let mut line = first.to_string();
    loop {
        let mut hangup = false;
        let reply = match ClientMsg::decode(&line) {
            Ok(ClientMsg::Hello {
                auth_nonce,
                auth_proof,
            }) => match &inner.auth_token {
                Some(token)
                    if proto::constant_time_eq(
                        &auth_proof,
                        &proto::auth_proof(token, auth_nonce),
                    ) =>
                {
                    authed = true;
                    "{\"type\":\"hello_ok\"}".to_string()
                }
                Some(_) => {
                    let mut st = inner.state.lock().expect("coordinator lock");
                    st.auth_failures += 1;
                    eprintln!("rh-serve: rejecting client {peer}: bad auth proof");
                    hangup = true;
                    proto::encode_reject("auth_failed")
                }
                // No token required: the hello is a harmless ping.
                None => "{\"type\":\"hello_ok\"}".to_string(),
            },
            Ok(ClientMsg::Submit { .. }) | Ok(ClientMsg::Cancel { .. }) if !authed => {
                let mut st = inner.state.lock().expect("coordinator lock");
                st.auth_failures += 1;
                st.rejected_submits += 1;
                eprintln!("rh-serve: rejecting client {peer}: not authenticated");
                hangup = true;
                proto::encode_reject("auth_failed")
            }
            Ok(ClientMsg::Submit {
                id,
                config,
                deadline_ms,
            }) => {
                let label = id.clone().unwrap_or_default();
                match Inner::submit(inner, id, &config, client, deadline_ms) {
                    Ok(env) => env.encode(),
                    Err(SubmitError::Rejected(reason)) => proto::encode_reject(&reason),
                    Err(SubmitError::Failed(e)) => encode_error(&label, &e),
                }
            }
            Ok(ClientMsg::Cancel { id }) => {
                let canceled = cancel_by_name(inner, &id);
                format!(
                    "{{\"type\":\"cancel_ack\",\"id\":{},\"canceled\":{canceled}}}",
                    proto::jstr(&id)
                )
            }
            Err(e) => encode_error("", &e),
        };
        // `slow-client` chaos arm: a client that drains replies slowly.
        // Injected coordinator-side so the latency (and the back-pressure
        // it creates) is deterministic under test.
        if let Some(delay) = inner.slow_client_delay {
            std::thread::sleep(delay);
        }
        if write_line(writer, &reply).is_err() || hangup {
            return;
        }
        line = loop {
            match read_line_bounded(reader, MAX_LINE_BYTES) {
                Ok(Some(Line::Text(next))) => break next,
                Ok(Some(Line::TooLong)) => {
                    if write_line(writer, &encode_error("", &line_too_long())).is_err() {
                        return;
                    }
                }
                _ => return,
            }
        };
    }
}

fn cancel_by_name(inner: &Arc<Inner>, id: &str) -> bool {
    let mut st = inner.state.lock().expect("coordinator lock");
    let Some(&job_id) = st.named.get(id) else {
        return false;
    };
    cancel_job(inner, &mut st, job_id, &format!("job '{id}' canceled"))
}

/// Kill one unfinished job — client cancel, deadline expiry, and the
/// `cancel-after-cells` fault all land here. Queued leases are dropped;
/// leases already out on workers are *not* requeued: the serving
/// connection notices the dead job on its next cell and sends the worker a
/// `cancel` so the rest of the lease is abandoned mid-shard. Checkpointed
/// cells survive for a later resubmit. Returns false for unknown/finished
/// jobs.
fn cancel_job(
    inner: &Arc<Inner>,
    st: &mut MutexGuard<'_, State>,
    job_id: u64,
    message: &str,
) -> bool {
    let Some(job) = st.jobs.get_mut(&job_id) else {
        return false;
    };
    if job.done.is_some() {
        return false;
    }
    let key = job.key;
    job.done = Some(Err(message.to_string()));
    st.cancelled_jobs += 1;
    st.inflight.remove(&key);
    st.queue.retain(|l| l.job != job_id);
    st.active.retain(|_, a| a.lease.job != job_id);
    inner.done.notify_all();
    true
}

// ---------------------------------------------------------------------------
// CLI entry points
// ---------------------------------------------------------------------------

/// `rh-cli serve`: start the coordinator, then serve clients — over TCP
/// when `--listen` is given (this call then parks forever), else jsonl on
/// stdin with envelopes on stdout.
pub fn run_serve(opts: ServeOptions) -> Result<(), String> {
    let listening = opts.listen.is_some();
    let coordinator = Coordinator::start(opts)?;
    if listening {
        let addr = coordinator.local_addr().expect("listen mode binds");
        eprintln!("rh-serve: listening on {addr}");
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    let mut reader = stdin.lock();
    while let Some(line) =
        read_line_bounded(&mut reader, MAX_LINE_BYTES).map_err(|e| format!("stdin: {e}"))?
    {
        let Line::Text(line) = line else {
            let reply = encode_error("", &line_too_long());
            write_line(&mut stdout, &reply).map_err(|e| format!("stdout: {e}"))?;
            continue;
        };
        let reply = match ClientMsg::decode(&line) {
            Ok(ClientMsg::Submit {
                id,
                config,
                deadline_ms,
            }) => {
                let label = id.clone().unwrap_or_default();
                match coordinator.submit_detailed(id, &config, "stdin", deadline_ms) {
                    Ok(env) => env.encode(),
                    Err(SubmitError::Rejected(reason)) => proto::encode_reject(&reason),
                    Err(SubmitError::Failed(e)) => encode_error(&label, &e),
                }
            }
            Ok(ClientMsg::Cancel { id }) => {
                let canceled = coordinator.cancel(&id);
                format!(
                    "{{\"type\":\"cancel_ack\",\"id\":{},\"canceled\":{canceled}}}",
                    proto::jstr(&id)
                )
            }
            // The stdin operator started this process; auth guards the
            // TCP front door, so a local hello is just acknowledged.
            Ok(ClientMsg::Hello { .. }) => "{\"type\":\"hello_ok\"}".to_string(),
            Err(e) => encode_error("", &e),
        };
        write_line(&mut stdout, &reply).map_err(|e| format!("stdout: {e}"))?;
    }
    coordinator.shutdown();
    Ok(())
}

/// Parsed `rh-cli submit` options (a thin TCP client for CI and scripts).
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    pub connect: String,
    /// Bound on both the connect and each response read (`--timeout`);
    /// `None` blocks indefinitely, as before. On expiry the client exits
    /// nonzero with a message naming the deadline — a wedged coordinator
    /// must not wedge CI with it.
    pub timeout: Option<Duration>,
    /// `--job-deadline-ms`: stamped onto every submitted config so the
    /// coordinator expires jobs that outlive it.
    pub deadline_ms: Option<u64>,
    /// Shared secret (`--auth-token-file`): the session opens with an
    /// authenticated `client_hello` before any submit.
    pub auth_token: Option<String>,
}

/// Connect to the coordinator, bounded by `timeout` when one is set (the
/// same deadline then bounds every response read).
fn connect_coordinator(connect: &str, timeout: Option<Duration>) -> Result<TcpStream, String> {
    let Some(timeout) = timeout else {
        return TcpStream::connect(connect)
            .map_err(|e| format!("cannot connect to {connect}: {e}"));
    };
    let addrs: Vec<SocketAddr> = connect
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {connect}: {e}"))?
        .collect();
    let mut last = format!("{connect} resolved to no addresses");
    for addr in addrs {
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(timeout))
                    .map_err(|e| format!("set read timeout: {e}"))?;
                return Ok(stream);
            }
            Err(e) => last = format!("cannot connect to {addr} within {timeout:?}: {e}"),
        }
    }
    Err(last)
}

/// Open a client session with an authenticated `client_hello` and wait for
/// the coordinator's `hello_ok`; a reject fails the whole invocation
/// before any work is sent.
fn client_auth_handshake<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    token: &str,
) -> Result<(), String> {
    let nonce = rh_core::SplitMix64::new(rh_core::derive_seed(
        0xC11E_47E5,
        &[u64::from(std::process::id())],
    ))
    .next_u64();
    let hello = ClientMsg::Hello {
        auth_nonce: nonce,
        auth_proof: proto::auth_proof(token, nonce),
    };
    write_line(writer, &hello.encode()).map_err(|e| format!("send hello: {e}"))?;
    let reply = read_line(reader)
        .map_err(|e| format!("recv hello_ok: {e}"))?
        .ok_or("coordinator closed the connection during auth")?;
    let v = proto::parse(&reply)?;
    match v.get("type").and_then(proto::Value::as_str) {
        Some("hello_ok") => Ok(()),
        Some("reject") => Err(format!(
            "authentication rejected: {}",
            v.get("reason")
                .and_then(proto::Value::as_str)
                .unwrap_or("unknown reason")
        )),
        _ => Err(format!("unexpected auth reply: {reply}")),
    }
}

/// `rh-cli submit`: read config lines from stdin, send each to the
/// coordinator at `--connect`, print each returned **document** verbatim on
/// stdout (so output byte-diffs directly against `rh-cli sweep`) with the
/// envelope metadata on stderr. Errors exit nonzero.
pub fn run_submit(opts: &SubmitOptions) -> Result<(), String> {
    let stream = connect_coordinator(&opts.connect, opts.timeout)?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut writer = stream;

    // Authenticate first when a token was given: one client_hello carrying
    // a seeded nonce and the shared-secret proof, answered by hello_ok (or
    // a reject, which fails the whole run before any config is sent).
    if let Some(token) = &opts.auth_token {
        client_auth_handshake(&mut reader, &mut writer, token)?;
    }

    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    while let Some(line) = read_line(&mut input).map_err(|e| format!("stdin: {e}"))? {
        // A `--job-deadline-ms` is stamped into each submit by decoding
        // and re-encoding the line; without one the line is forwarded
        // verbatim (bare configs included).
        let line = match opts.deadline_ms {
            None => line,
            Some(ms) => match ClientMsg::decode(&line) {
                Ok(ClientMsg::Submit {
                    id,
                    config,
                    deadline_ms,
                }) => ClientMsg::Submit {
                    id,
                    config,
                    deadline_ms: deadline_ms.or(Some(ms)),
                }
                .encode(),
                _ => line,
            },
        };
        write_line(&mut writer, &line).map_err(|e| format!("send: {e}"))?;
        let reply = read_line(&mut reader)
            .map_err(|e| match opts.timeout {
                Some(t)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    format!("no response from {} within {t:?}", opts.connect)
                }
                _ => format!("recv: {e}"),
            })?
            .ok_or("coordinator closed the connection")?;
        let env = ResultEnvelope::decode(&reply)?;
        eprintln!(
            "rh-submit: id={} hash={:#018x} seed={} cached={} coalesced={} cache_hits={} \
             executed={} checkpointed={} ckpt_skipped={} speculations={} duplicates={} \
             evictions={} queue_depth={} queue_wait_ms={} rejected={} auth_failures={} \
             cancelled={} workers={}",
            env.id,
            env.config_hash,
            env.seed,
            env.served_from_cache,
            env.coalesced,
            env.cache_hits,
            env.executed_cells,
            env.checkpoint_cells,
            env.checkpoint_skipped,
            env.speculations,
            env.duplicate_cells,
            env.evictions,
            env.queue_depth,
            env.queue_wait_ms,
            env.rejected_submits,
            env.auth_failures,
            env.cancelled_jobs,
            env.workers
                .iter()
                .map(|w| format!("{}:{}({})", w.worker, w.kernel, w.cells))
                .collect::<Vec<_>>()
                .join(","),
        );
        // Through the writer `rh-cli sweep` prints with, so the two
        // outputs diff byte-for-byte.
        json::print_document(&env.document)?;
    }
    Ok(())
}

/// Parsed `rh-cli cancel` options (the client verb for killing an
/// in-flight job by its submit id).
#[derive(Debug, Clone, Default)]
pub struct CancelOptions {
    pub connect: String,
    /// The job id to cancel (the `id` given at submit time).
    pub id: String,
    pub timeout: Option<Duration>,
    pub auth_token: Option<String>,
}

/// `rh-cli cancel`: ask the coordinator to kill one in-flight job. Exits
/// nonzero when the job is unknown or already finished (`canceled:false`),
/// so scripts can tell a real cancellation from a no-op.
pub fn run_cancel(opts: &CancelOptions) -> Result<(), String> {
    let stream = connect_coordinator(&opts.connect, opts.timeout)?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut writer = stream;
    if let Some(token) = &opts.auth_token {
        client_auth_handshake(&mut reader, &mut writer, token)?;
    }
    let msg = ClientMsg::Cancel {
        id: opts.id.clone(),
    };
    write_line(&mut writer, &msg.encode()).map_err(|e| format!("send: {e}"))?;
    let reply = read_line(&mut reader)
        .map_err(|e| format!("recv: {e}"))?
        .ok_or("coordinator closed the connection")?;
    let v = proto::parse(&reply)?;
    match v.get("type").and_then(proto::Value::as_str) {
        Some("cancel_ack") => match v.get("canceled").and_then(proto::Value::as_bool) {
            Some(true) => {
                eprintln!("rh-cancel: job '{}' canceled", opts.id);
                Ok(())
            }
            _ => Err(format!("job '{}' is unknown or already finished", opts.id)),
        },
        Some("reject") => Err(format!(
            "cancel rejected: {}",
            v.get("reason")
                .and_then(proto::Value::as_str)
                .unwrap_or("unknown reason")
        )),
        _ => Err(format!("unexpected cancel reply: {reply}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A bare coordinator core with no workers, listener, or threads —
    /// just the shared state the handler functions operate on.
    fn test_inner() -> Arc<Inner> {
        Arc::new(bare_inner())
    }

    /// The core [`test_inner`] wraps: no bounds, a lease cap of 4.
    fn bare_inner() -> Inner {
        Inner {
            state: Mutex::new(State::new(8)),
            work: Condvar::new(),
            done: Condvar::new(),
            checkpoint_dir: None,
            shard_cells: 4,
            allow_late_workers: true,
            config_epoch: 0,
            fallback_after: None,
            speculate_after: None,
            max_pending_jobs: usize::MAX,
            max_jobs_per_client: usize::MAX,
            max_cells_per_client: usize::MAX,
            handshake_timeout: Duration::from_secs(10),
            auth_token: None,
            slow_client_delay: None,
            cancel_after_cells: None,
        }
    }

    /// [`test_inner`] with admission/auth knobs for the job-manager tests.
    fn test_inner_custom(
        auth_token: Option<String>,
        max_pending_jobs: usize,
        max_jobs_per_client: usize,
        max_cells_per_client: usize,
    ) -> Arc<Inner> {
        Arc::new(Inner {
            max_pending_jobs,
            max_jobs_per_client,
            max_cells_per_client,
            auth_token,
            ..bare_inner()
        })
    }

    /// A fresh, empty job for `cfg` under `key`.
    fn new_job(cfg: &SweepConfig, key: (u64, u64)) -> Job {
        let plan = Arc::new(SweepPlan::from_config(cfg).expect("valid config"));
        let cells = sweep_cells(&plan).len();
        Job {
            slots: vec![None; cells],
            remaining: cells,
            plan,
            key,
            executed_cells: 0,
            checkpoint_cells: 0,
            checkpoint_skipped: 0,
            speculations: 0,
            duplicate_cells: 0,
            workers: BTreeMap::new(),
            client: "test-client".to_string(),
            deadline: None,
            admitted_at: Instant::now(),
            queue_wait_ms: None,
            done: None,
        }
    }

    /// The reference result of every cell of `cfg`'s sweep list, in list
    /// order (executed in-process).
    fn reference_results(cfg: &SweepConfig) -> Vec<RunResult> {
        let plan = SweepPlan::from_config(cfg).unwrap();
        crate::exec::execute_cells(&plan, &sweep_cells(&plan), 1)
    }

    /// Insert a fresh job for `cfg` and return its id plus the reference
    /// per-cell results of its list.
    fn seed_job(inner: &Arc<Inner>, cfg: &SweepConfig) -> (u64, Vec<RunResult>) {
        let mut st = inner.state.lock().unwrap();
        let job_id = st.next_job;
        st.next_job += 1;
        st.jobs.insert(job_id, new_job(cfg, (0xABCD, cfg.seed)));
        (job_id, reference_results(cfg))
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rh-serve-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn garbage_first_lines_are_rejected_not_panicked() {
        let inner = test_inner();
        let garbage = [
            "not json at all",
            "{\"type\":\"hello\",\"role\":\"worker\"",
            "\u{0}\u{1}\u{2}garbage",
            "GET / HTTP/1.1",
        ];
        for first in garbage {
            let mut reader = Cursor::new(Vec::new());
            let mut out = Vec::new();
            route_first(&inner, "test-peer", first, &mut reader, &mut out);
            let reply = String::from_utf8(out).expect("utf8 reply");
            assert!(
                reply.contains("\"type\":\"error\""),
                "garbage '{first}' must get an error line, got '{reply}'"
            );
        }
        let st = inner.state.lock().unwrap();
        assert_eq!(st.rejected_connections, garbage.len() as u64);
        assert_eq!(st.live_workers, 0, "no garbage line may register a worker");
    }

    #[test]
    fn valid_json_non_hello_goes_to_the_client_path() {
        let inner = test_inner();
        let mut reader = Cursor::new(Vec::new());
        let mut out = Vec::new();
        route_first(
            &inner,
            "peer",
            "{\"type\":\"bogus\"}",
            &mut reader,
            &mut out,
        );
        let reply = String::from_utf8(out).unwrap();
        assert!(
            reply.contains("unknown client message type"),
            "got '{reply}'"
        );
        assert_eq!(inner.state.lock().unwrap().rejected_connections, 0);
    }

    #[test]
    fn version_and_epoch_skew_get_a_terminal_reject_line() {
        let inner = test_inner();
        for (hello, needle) in [
            (
                FromWorker::Hello {
                    kernel: "scalar".into(),
                    pid: 1,
                    proto_version: PROTO_VERSION + 1,
                    config_epoch: 0,
                    auth_nonce: 0,
                    auth_proof: None,
                },
                "protocol version",
            ),
            (
                FromWorker::Hello {
                    kernel: "scalar".into(),
                    pid: 1,
                    proto_version: PROTO_VERSION,
                    config_epoch: 3,
                    auth_nonce: 0,
                    auth_proof: None,
                },
                "config epoch",
            ),
        ] {
            let mut reader = Cursor::new(Vec::new());
            let mut out = Vec::new();
            route_first(&inner, "peer", &hello.encode(), &mut reader, &mut out);
            let reply = String::from_utf8(out).unwrap();
            let msg = ToWorker::decode(reply.trim()).expect("a decodable reject line");
            match msg {
                ToWorker::Reject { reason } => {
                    assert!(reason.contains(needle), "got reason '{reason}'");
                }
                other => panic!("expected reject, got {other:?}"),
            }
        }
        let st = inner.state.lock().unwrap();
        assert_eq!(st.rejected_workers, 2);
        assert_eq!(st.live_workers, 0);
    }

    /// A pre-versioning hello (no proto field) decodes as version 0 and is
    /// rejected by the same vetting, not crashed on.
    #[test]
    fn legacy_hello_is_rejected_as_version_zero() {
        let inner = test_inner();
        let mut reader = Cursor::new(Vec::new());
        let mut out = Vec::new();
        route_first(
            &inner,
            "peer",
            "{\"type\":\"hello\",\"role\":\"worker\",\"kernel\":\"scalar\",\"pid\":7}",
            &mut reader,
            &mut out,
        );
        let reply = String::from_utf8(out).unwrap();
        assert!(reply.contains("protocol version 0"), "got '{reply}'");
        assert_eq!(inner.state.lock().unwrap().rejected_workers, 1);
    }

    #[test]
    fn duplicate_cells_must_agree_bit_for_bit() {
        let inner = test_inner();
        let cfg = small_config();
        let (job_id, results) = seed_job(&inner, &cfg);
        let r0 = results[0].clone();

        let mut st = inner.state.lock().unwrap();
        record_cell(&inner, &mut st, "w1", "scalar", job_id, 0, 0, r0.clone());
        assert_eq!(st.jobs[&job_id].executed_cells, 1);
        assert_eq!(st.jobs[&job_id].duplicate_cells, 0);

        // A bit-exact duplicate (speculative twin finishing second) is
        // counted, not merged twice.
        record_cell(&inner, &mut st, "w2", "scalar", job_id, 1, 0, r0.clone());
        assert_eq!(st.jobs[&job_id].executed_cells, 1);
        assert_eq!(st.jobs[&job_id].duplicate_cells, 1);
        assert!(st.jobs[&job_id].done.is_none());

        // A diverging duplicate is a determinism violation: the job fails
        // loudly instead of letting either copy win the race.
        let mut diverged = r0.clone();
        diverged.total_flips += 1;
        record_cell(&inner, &mut st, "w3", "scalar", job_id, 2, 0, diverged);
        match &st.jobs[&job_id].done {
            Some(Err(e)) => assert!(e.contains("determinism violation"), "got '{e}'"),
            other => panic!("diverged duplicate must fail the job, got {other:?}"),
        }
    }

    #[test]
    fn garbled_checkpoint_records_are_skipped_and_counted() {
        let dir = scratch("ckpt-garble");
        let cfg = small_config();
        let results = reference_results(&cfg);
        let key = (0xABCD, cfg.seed);

        checkpoint_cell(&dir, key, 0, &results[0]);
        checkpoint_cell(&dir, key, 1, &results[1]);

        // Flip bytes mid-record in the second record: parseable or not, the
        // checksum no longer matches and the record must not be trusted.
        let path = checkpoint_path(&dir, key);
        let mut bytes = std::fs::read(&path).unwrap();
        let second = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mid = (second + bytes.len()) / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        bytes[mid + 1] = bytes[mid + 1].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();

        let mut job = new_job(&cfg, key);
        load_checkpoints(&dir, &mut job);
        assert_eq!(job.checkpoint_cells, 1, "the good record restores");
        assert_eq!(job.checkpoint_skipped, 1, "the garbled record skips");
        assert!(job.slots[0].is_some());
        assert!(
            job.slots[1].is_none(),
            "a garbled record must not fill a slot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeded damage to a complete journal of a small job, one mutation per
    /// trial: a byte clobbered to anything but a newline (a newline would
    /// split one record into two bad fragments), a truncation at any
    /// offset, a duplicated line, a line spliced from the head of one
    /// record and the tail of another, and a record moved past the job's
    /// cells under a valid checksum. Whatever the damage, the restore
    /// never panics, every restored slot is the reference result bit for
    /// bit, restored plus skipped records never exceed the records
    /// written, and the job finished from its holes renders `sweep`'s
    /// document.
    #[test]
    fn journal_fuzz_restores_only_bit_exact_cells() {
        let cfg = SweepConfig {
            para_probabilities: vec![0.0, 0.01],
            ..small_config()
        };
        let key = (0xF022, cfg.seed);
        let reference = reference_results(&cfg);
        let expected = json::render(&crate::sweep::run_sweep(&cfg, 1).unwrap());
        let dir = scratch("journal-fuzz");
        for (i, result) in reference.iter().enumerate() {
            checkpoint_cell(&dir, key, i, result);
        }
        let path = checkpoint_path(&dir, key);
        let journal = std::fs::read(&path).unwrap();
        let lines: Vec<&[u8]> = journal.split_inclusive(|&b| b == b'\n').collect();
        assert_eq!(lines.len(), reference.len());
        let written = lines.len() as u64;
        let mut rng = rh_core::SplitMix64::new(0x0F22_7E57);
        let mut pick = |n: usize| rng.gen_range(n as u64) as usize;
        for trial in 0..200 {
            let kind = trial % 5;
            let mut mutated: Vec<Vec<u8>> = lines.iter().map(|l| l.to_vec()).collect();
            match kind {
                0 => {
                    let line = pick(mutated.len());
                    let at = pick(mutated[line].len());
                    mutated[line][at] = match pick(256) as u8 {
                        b'\n' => 0xFF,
                        byte => byte,
                    };
                }
                1 => {
                    let cut = pick(journal.len() + 1);
                    mutated = vec![journal[..cut].to_vec()];
                }
                2 => {
                    let copy = mutated[pick(mutated.len())].clone();
                    mutated.insert(pick(mutated.len() + 1), copy);
                }
                3 => {
                    let (head, tail) = (pick(lines.len()), pick(lines.len()));
                    let spliced = [
                        &lines[head][..pick(lines[head].len())],
                        &lines[tail][pick(lines[tail].len())..],
                    ]
                    .concat();
                    mutated[head] = spliced;
                }
                _ => {
                    let line = pick(lines.len());
                    let index = lines.len() + pick(1_000);
                    let result_json = proto::result_to_json(&reference[line]);
                    mutated[line] = format!(
                        "{{\"index\":{index},\"sum\":{},\"result\":{result_json}}}\n",
                        checkpoint_sum(index, &result_json)
                    )
                    .into_bytes();
                }
            }
            std::fs::write(&path, mutated.concat()).unwrap();
            let mut job = new_job(&cfg, key);
            load_checkpoints(&dir, &mut job);

            let what = format!("trial {trial} (mutation {kind})");
            let mut missing = Vec::new();
            for (i, slot) in job.slots.iter().enumerate() {
                match slot {
                    Some(restored) => assert_eq!(
                        proto::result_to_json(restored),
                        proto::result_to_json(&reference[i]),
                        "{what}: cell {i}"
                    ),
                    None => missing.push(i),
                }
            }
            let restored = reference.len() - missing.len();
            assert_eq!(job.checkpoint_cells, restored as u64, "{what}");
            assert_eq!(job.remaining, missing.len(), "{what}");
            assert!(
                job.checkpoint_cells + job.checkpoint_skipped <= written,
                "{what}: {} restored + {} skipped > {written} written",
                job.checkpoint_cells,
                job.checkpoint_skipped
            );
            // Finish the job from its holes, as a worker's lease would.
            for (i, result) in crate::exec::run_lease(&cfg, &missing).unwrap().flatten() {
                job.slots[i] = Some(result);
            }
            assert_eq!(finalize_document(&job), expected, "{what}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn speculate_releases_only_the_missing_cells_once() {
        let inner = test_inner();
        let cfg = small_config();
        let (job_id, results) = seed_job(&inner, &cfg);
        let len = results.len();
        assert!(len >= 1);

        let lease = Lease {
            job: job_id,
            shard: 0,
            indices: (0..len).collect(),
        };
        let mut st = inner.state.lock().unwrap();
        st.next_shard = 1;
        st.active.insert(
            0,
            ActiveLease {
                lease,
                last_progress: Instant::now(),
                speculated: false,
                worker: "w1".to_string(),
            },
        );
        speculate(&inner, &mut st, 0);
        assert_eq!(st.jobs[&job_id].speculations, 1);
        let twin = st.queue.back().expect("a twin lease queued").clone();
        assert_eq!(twin.indices, (0..len).collect::<Vec<_>>());
        assert_ne!(twin.shard, 0, "the twin runs under a fresh shard id");
        assert!(st.active[&0].speculated);

        // Speculating the same shard again is a no-op by construction: the
        // supervisor filters on the flag, and even a direct call only adds
        // cells that are still missing.
        record_cell(
            &inner,
            &mut st,
            "w1",
            "scalar",
            job_id,
            0,
            0,
            results[0].clone(),
        );
        let queued_before = st.queue.len();
        speculate(&inner, &mut st, 0);
        let twin2 = st.queue.back().unwrap();
        if st.queue.len() > queued_before {
            assert!(
                !twin2.indices.contains(&0),
                "a filled slot must not be re-leased"
            );
        }
        drop(st);
    }

    /// Graceful degradation end to end: a coordinator with no workers and
    /// no listener still answers — the submitting thread executes the
    /// leases in-process, and the document is byte-identical to the
    /// in-process sweep.
    #[test]
    fn fallback_executes_in_process_when_no_worker_attaches() {
        let cfg = small_config();
        let expected = json::render(&crate::sweep::run_sweep(&cfg, 1).unwrap());
        let coordinator = Coordinator::start(ServeOptions {
            workers: 0,
            fallback_after: Some(Duration::from_millis(10)),
            speculate_after: None,
            ..ServeOptions::default()
        })
        .expect("workerless coordinator starts when fallback is armed");
        let env = coordinator
            .submit(Some("fb".into()), &cfg)
            .expect("fallback submit succeeds");
        assert_eq!(env.document, expected, "fallback must be byte-identical");
        assert_eq!(
            env.workers.len(),
            1,
            "exactly one (in-process) worker entry"
        );
        assert_eq!(env.workers[0].worker, "in-process");
        assert!(env.executed_cells > 0);
        coordinator.shutdown();
    }

    #[test]
    fn admission_rejects_past_the_queue_bound() {
        let inner = test_inner_custom(None, 1, usize::MAX, usize::MAX);
        let cfg = small_config();
        // One unfinished job occupies the whole queue.
        seed_job(&inner, &cfg);
        match Inner::submit(&inner, Some("late".into()), &cfg, "someone-else", None) {
            Err(SubmitError::Rejected(reason)) => assert_eq!(reason, "queue_full"),
            other => panic!("expected a queue_full reject, got {other:?}"),
        }
        let st = inner.state.lock().unwrap();
        assert_eq!(st.rejected_submits, 1);
        assert_eq!(st.jobs.len(), 1, "a rejected submit creates no job");
    }

    #[test]
    fn per_client_quotas_reject_with_distinct_reasons() {
        // Job quota: the seeded job already belongs to "test-client".
        let inner = test_inner_custom(None, usize::MAX, 1, usize::MAX);
        let cfg = small_config();
        seed_job(&inner, &cfg);
        match Inner::submit(&inner, None, &cfg, "test-client", None) {
            Err(SubmitError::Rejected(reason)) => assert_eq!(reason, "client_job_quota"),
            other => panic!("expected a client_job_quota reject, got {other:?}"),
        }

        // Cell quota: this 2-cell job alone exceeds a 1-cell allowance.
        let inner = test_inner_custom(None, usize::MAX, usize::MAX, 1);
        match Inner::submit(&inner, None, &cfg, "fresh-client", None) {
            Err(SubmitError::Rejected(reason)) => assert_eq!(reason, "client_cell_quota"),
            other => panic!("expected a client_cell_quota reject, got {other:?}"),
        }
        assert_eq!(inner.state.lock().unwrap().rejected_submits, 1);
    }

    #[test]
    fn deadline_expiry_cancels_the_job_and_fails_the_submit() {
        // No workers and no fallback: the job can only end via its
        // deadline, enforced by the waiting thread itself.
        let inner = test_inner();
        let cfg = small_config();
        let t0 = Instant::now();
        let err = Inner::submit(&inner, Some("dl".into()), &cfg, "local", Some(60))
            .expect_err("the deadline must expire");
        assert!(t0.elapsed() >= Duration::from_millis(60));
        match err {
            SubmitError::Failed(e) => assert!(e.contains("deadline expired"), "got '{e}'"),
            other => panic!("expected a deadline failure, got {other:?}"),
        }
        let st = inner.state.lock().unwrap();
        assert_eq!(st.cancelled_jobs, 1);
        assert!(
            st.queue.is_empty(),
            "an expired job's leases leave the queue"
        );
    }

    #[test]
    fn cancel_kills_queued_leases_and_wakes_waiters() {
        let inner = test_inner();
        let cfg = small_config();
        let (job_id, _) = seed_job(&inner, &cfg);
        {
            let mut st = inner.state.lock().unwrap();
            let key = st.jobs[&job_id].key;
            st.named.insert("the-job".into(), job_id);
            st.inflight.insert(key, job_id);
            st.queue.push_back(Lease {
                job: job_id,
                shard: 0,
                indices: vec![0],
            });
            st.active.insert(
                1,
                ActiveLease {
                    lease: Lease {
                        job: job_id,
                        shard: 1,
                        indices: vec![1],
                    },
                    last_progress: Instant::now(),
                    speculated: false,
                    worker: "w1".to_string(),
                },
            );
        }
        assert!(cancel_by_name(&inner, "the-job"));
        {
            let st = inner.state.lock().unwrap();
            assert!(st.queue.is_empty(), "queued leases are dropped");
            assert!(st.active.is_empty(), "leased shards are forgotten");
            assert!(st.inflight.is_empty(), "no coalescing onto a dead job");
            assert_eq!(st.cancelled_jobs, 1);
            match &st.jobs[&job_id].done {
                Some(Err(e)) => assert!(e.contains("canceled"), "got '{e}'"),
                other => panic!("cancel must fail the job, got {other:?}"),
            }
        }
        // Cancel is not idempotent on purpose: the second call reports
        // there was nothing left to cancel, as does an unknown id.
        assert!(!cancel_by_name(&inner, "the-job"));
        assert!(!cancel_by_name(&inner, "never-submitted"));
        assert_eq!(inner.state.lock().unwrap().cancelled_jobs, 1);
    }

    #[test]
    fn lease_width_splits_each_list_across_the_pool() {
        // (missing, live_workers, shard_cells) -> simulations per lease.
        for (missing, live, cap, width) in [
            // No worker attached yet (TCP listen): cut as for one worker.
            (10, 0, 16, 10),
            (40, 0, 16, 16),
            // Fewer missing cells than workers: single-cell leases.
            (1, 2, 16, 1),
            (2, 3, 16, 1),
            // Two workers: the default job's 69 simulations go 16 to a
            // lease; 4 simulations go 2 and 2.
            (69, 2, 16, 16),
            (4, 2, 16, 2),
            // One chunk per worker below the cap, rounded up.
            (15, 2, 16, 8),
            (9, 3, 1_024, 3),
            // More than workers x cap: the cap wins.
            (1_000, 3, 4, 4),
            (100, 2, 1, 1),
            // Nothing missing still yields a usable chunk width.
            (0, 2, 16, 1),
        ] {
            assert_eq!(
                lease_width(missing, live, cap),
                width,
                "missing={missing} live={live} cap={cap}"
            );
        }
    }

    /// Submit `cfg` with two live workers and no real ones, and return
    /// the leases it queued; the job is then cancelled.
    fn queued_leases(inner: &Arc<Inner>, cfg: &SweepConfig) -> Vec<Lease> {
        inner.state.lock().unwrap().live_workers = 2;
        let submitter = {
            let inner = Arc::clone(inner);
            let cfg = cfg.clone();
            std::thread::spawn(move || Inner::submit(&inner, Some("split".into()), &cfg, "t", None))
        };
        let queued = {
            let mut st = inner.state.lock().unwrap();
            while st.queue.is_empty() {
                st = inner.work.wait(st).unwrap();
            }
            st.queue.iter().cloned().collect()
        };
        assert!(cancel_by_name(inner, "split"));
        assert!(submitter.join().unwrap().is_err());
        queued
    }

    /// With two live workers, the job's one cell list (grid, then PARA
    /// sweep) is queued as contiguous leases that together cover each
    /// missing slot exactly once, in order.
    #[test]
    fn submit_splits_every_list_across_two_live_workers() {
        let cfg = SweepConfig {
            para_probabilities: vec![0.0, 0.01, 0.5],
            ..small_config()
        };
        let plan = SweepPlan::from_config(&cfg).unwrap();
        let leases = queued_leases(&test_inner(), &cfg);
        assert!(leases.len() >= 2, "{leases:?}");
        for lease in &leases {
            assert!(
                lease.indices.windows(2).all(|w| w[1] == w[0] + 1),
                "lease not contiguous: {:?}",
                lease.indices
            );
        }
        let covered: Vec<usize> = leases.iter().flat_map(|l| l.indices.clone()).collect();
        assert_eq!(covered, (0..sweep_cells(&plan).len()).collect::<Vec<_>>());
    }

    /// The simulations each lease holds: its cells folded as the worker
    /// folds them.
    fn lease_simulations(cells: &[crate::plan::CellSpec], leases: &[Lease]) -> Vec<usize> {
        leases
            .iter()
            .map(|l| crate::exec::units(l.indices.iter().map(|&i| &cells[i])).len())
            .collect()
    }

    /// Across the `HC_first` axis, leases are cut from whole units sized in
    /// simulations: the 46 cells of a three-value axis fold into 28
    /// simulations, queued under the test coordinator's cap of 4 as seven
    /// leases of 4 (some holding 10 cells), and every unit's cells land in
    /// one lease, so each is simulated once. A worker builds the tables of
    /// a lease's simulated cells only, which stay on one or two `HC_first`
    /// values however many a lease's units span.
    #[test]
    fn submit_cuts_leases_from_whole_units() {
        let cfg = SweepConfig {
            hc_firsts: vec![500, 700, 900],
            ..small_config()
        };
        let plan = SweepPlan::from_config(&cfg).unwrap();
        let cells = sweep_cells(&plan);
        let leases = queued_leases(&test_inner(), &cfg);
        assert_eq!((cells.len(), crate::exec::units(&cells).len()), (46, 28));
        assert_eq!(lease_simulations(&cells, &leases), vec![4; 7]);
        let mut covered: Vec<usize> = leases.iter().flat_map(|l| l.indices.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..cells.len()).collect::<Vec<_>>());
        let mut spans_axis = false;
        for lease in &leases {
            let leased: Vec<_> = lease.indices.iter().map(|&i| cells[i].clone()).collect();
            let hcs: std::collections::BTreeSet<u64> = leased.iter().map(|c| c.hc_first).collect();
            spans_axis |= hcs.len() == 3;
            let lease_units = crate::exec::units(&leased);
            let tables = crate::exec::build_table_cache(&plan, &leased, &lease_units);
            assert!(
                tables.len() <= 2,
                "shard {} builds {}",
                lease.shard,
                tables.len()
            );
        }
        assert!(spans_axis, "no lease holds a unit across the whole axis");
    }

    /// A served job runs the work `rh-cli sweep` runs: on two live workers
    /// at the default `--shard-cells` of 16, the default job's 124 cells
    /// are queued as leases of 16/16/16/16/5 simulations, 69 in all, and
    /// the DDR4 reference grid's 91 as 16/16/16/6, 54 in all — each the
    /// fold of the whole list — covering every cell exactly once.
    #[test]
    fn submit_queues_the_sweeps_folded_work_and_no_more() {
        for (cfg, sizes) in [
            (SweepConfig::default(), vec![16, 16, 16, 16, 5]),
            (crate::sweep::ddr4_reference(), vec![16, 16, 16, 6]),
        ] {
            let plan = SweepPlan::from_config(&cfg).unwrap();
            let cells = sweep_cells(&plan);
            let inner = Arc::new(Inner {
                shard_cells: ServeOptions::default().shard_cells,
                ..bare_inner()
            });
            let leases = queued_leases(&inner, &cfg);
            let simulations = lease_simulations(&cells, &leases);
            assert_eq!(simulations, sizes, "{} cells", cells.len());
            assert_eq!(
                simulations.iter().sum::<usize>(),
                crate::exec::units(&cells).len()
            );
            let mut covered: Vec<usize> = leases.iter().flat_map(|l| l.indices.clone()).collect();
            covered.sort_unstable();
            assert_eq!(covered, (0..cells.len()).collect::<Vec<_>>());
        }
    }

    /// A speculative twin settles lease 10 early, so the connection moves
    /// on to lease 11 while the straggler still streams lease 10's cells.
    /// Those still merge into their job (here as a checked duplicate); a
    /// cell for a shard this connection never leased is dropped.
    #[test]
    fn late_cells_merge_under_their_own_leases_list() {
        let inner = test_inner();
        let cfg = SweepConfig {
            para_probabilities: vec![0.0, 0.5],
            ..small_config()
        };
        let (job_id, results) = seed_job(&inner, &cfg);
        {
            let mut st = inner.state.lock().unwrap();
            let job = st.jobs.get_mut(&job_id).unwrap();
            job.slots[1] = Some(results[1].clone());
            job.remaining -= 1;
            st.queue.push_back(Lease {
                job: job_id,
                shard: 10,
                indices: vec![0, 1],
            });
            st.queue.push_back(Lease {
                job: job_id,
                shard: 11,
                indices: vec![2, 3],
            });
        }
        let cell = |shard: u64, index: usize| {
            FromWorker::Cell {
                job: job_id,
                shard,
                index,
                result: results[index].clone(),
            }
            .encode()
        };
        let script = [cell(10, 0), cell(10, 1), cell(99, 0)]
            .map(|line| line + "\n")
            .concat();
        let mut out = Vec::new();
        worker_session(
            &inner,
            "scripted",
            "scalar",
            &mut Cursor::new(script.into_bytes()),
            &mut out,
            false,
        );

        let st = inner.state.lock().unwrap();
        let job = &st.jobs[&job_id];
        for (i, slot) in job.slots.iter().take(2).enumerate() {
            let merged = slot.as_ref().map(proto::result_to_json);
            assert_eq!(merged, Some(proto::result_to_json(&results[i])), "cell {i}");
        }
        assert_eq!(job.executed_cells, 1);
        assert_eq!(job.duplicate_cells, 1, "the late cell is a duplicate");
        assert!(job.done.is_none());
        // The connection closed on lease 11, which is requeued whole.
        let requeued: Vec<_> = st
            .queue
            .iter()
            .map(|l| (l.shard, l.indices.clone()))
            .collect();
        assert_eq!(requeued, vec![(11, vec![2, 3])]);
    }

    #[test]
    fn worker_auth_rejects_bad_proofs_and_accepts_good_ones() {
        let inner = test_inner_custom(Some("sekrit".into()), usize::MAX, usize::MAX, usize::MAX);
        let nonce = 0xDEAD_BEEF;
        let good = proto::auth_proof("sekrit", nonce);
        let mut out = Vec::new();
        assert!(vet_worker(
            &inner,
            "w-good",
            PROTO_VERSION,
            0,
            nonce,
            Some(&good),
            &mut out,
            false,
        ));
        assert!(out.is_empty(), "an accepted hello gets no reject line");

        // Wrong token and missing proof both fail closed.
        let wrong = proto::auth_proof("not-sekrit", nonce);
        let mut out = Vec::new();
        assert!(!vet_worker(
            &inner,
            "w-wrong",
            PROTO_VERSION,
            0,
            nonce,
            Some(&wrong),
            &mut out,
            false,
        ));
        let reply = String::from_utf8(out).unwrap();
        assert!(reply.contains("auth proof"), "got '{reply}'");
        assert!(!vet_worker(
            &inner,
            "w-silent",
            PROTO_VERSION,
            0,
            nonce,
            None,
            &mut Vec::new(),
            false,
        ));

        // Local stdio workers are exempt: the pipe to a child this
        // coordinator spawned is already a trust boundary.
        assert!(vet_worker(
            &inner,
            "local-0",
            PROTO_VERSION,
            0,
            0,
            None,
            &mut Vec::new(),
            true,
        ));

        let st = inner.state.lock().unwrap();
        assert_eq!(st.auth_failures, 2);
        assert_eq!(st.rejected_workers, 2);
    }

    #[test]
    fn client_sessions_authenticate_before_submitting() {
        let inner = test_inner_custom(Some("sekrit".into()), usize::MAX, usize::MAX, usize::MAX);
        let nonce = 7u64;

        // A valid client hello is answered with hello_ok.
        let hello = ClientMsg::Hello {
            auth_nonce: nonce,
            auth_proof: proto::auth_proof("sekrit", nonce),
        };
        let mut reader = Cursor::new(Vec::new());
        let mut out = Vec::new();
        route_first(
            &inner,
            "10.0.0.7:1234",
            &hello.encode(),
            &mut reader,
            &mut out,
        );
        let reply = String::from_utf8(out).unwrap();
        assert!(reply.contains("hello_ok"), "got '{reply}'");

        // A wrong proof gets a machine-readable auth_failed reject.
        let bad = ClientMsg::Hello {
            auth_nonce: nonce,
            auth_proof: proto::auth_proof("guess", nonce),
        };
        let mut reader = Cursor::new(Vec::new());
        let mut out = Vec::new();
        route_first(
            &inner,
            "10.0.0.7:1235",
            &bad.encode(),
            &mut reader,
            &mut out,
        );
        let reply = String::from_utf8(out).unwrap();
        assert!(reply.contains("\"type\":\"reject\""), "got '{reply}'");
        assert!(reply.contains("auth_failed"), "got '{reply}'");

        // A submit on an unauthenticated session is refused outright — the
        // config is never admitted, let alone executed.
        let submit = ClientMsg::Submit {
            id: Some("sneaky".into()),
            config: small_config(),
            deadline_ms: None,
        };
        let mut reader = Cursor::new(Vec::new());
        let mut out = Vec::new();
        route_first(
            &inner,
            "10.0.0.7:1236",
            &submit.encode(),
            &mut reader,
            &mut out,
        );
        let reply = String::from_utf8(out).unwrap();
        assert!(reply.contains("auth_failed"), "got '{reply}'");

        let st = inner.state.lock().unwrap();
        assert_eq!(st.auth_failures, 2, "the bad hello and the bare submit");
        assert!(st.jobs.is_empty(), "nothing was admitted");
    }

    /// Envelope counters surface the job-manager state: evictions from the
    /// result cache, rejected submits, auth failures, cancellations, and
    /// the queue depth at answer time.
    #[test]
    fn envelope_carries_job_manager_counters() {
        let inner = test_inner();
        let cfg = small_config();
        let (job_id, _) = seed_job(&inner, &cfg);
        {
            let mut st = inner.state.lock().unwrap();
            st.rejected_submits = 3;
            st.auth_failures = 2;
            st.cancelled_jobs = 1;
            st.jobs.get_mut(&job_id).unwrap().queue_wait_ms = Some(12);
        }
        let st = inner.state.lock().unwrap();
        let stats = EnvStats::from_job(&st.jobs[&job_id]);
        let env = envelope("e", (1, 2), &st, stats, "{}".to_string());
        assert_eq!(env.rejected_submits, 3);
        assert_eq!(env.auth_failures, 2);
        assert_eq!(env.cancelled_jobs, 1);
        assert_eq!(env.queue_wait_ms, 12);
        assert_eq!(env.queue_depth, 1, "the seeded job is still unfinished");
    }
}
