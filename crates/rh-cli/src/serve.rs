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
//!   doesn't execute — it waits on that job and is served the primary's
//!   document the moment it lands (`coalesced: true`, counted as a cache
//!   hit). N concurrent identical requests cost one execution. A finished
//!   job leaves the coordinator with its last waiter, so what outlives a
//!   job is its document in the cache (and its journal on disk).
//! * **Checkpoint journal**: with `--checkpoint-dir`, every merged cell is
//!   appended to a checksummed jsonl file named by [`crate::MODEL_ID`] and
//!   `(config_hash, seed)`, one record per cell under its list position —
//!   the service's one durable store; a journal another model wrote is
//!   never read. A resubmit after a crash, cancel, or coordinator
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
//! * **Straggler speculation**: a lease that has delivered no cell for
//!   `--speculate-after-ms` (10 s by default; 0 disables it) has its
//!   missing cells re-leased once, under a fresh shard id, while the
//!   original stays out; whichever copy delivers a cell first fills the
//!   slot, and the other must agree with it bit for bit.
//! * **Back-pressure**: all transports are blocking pipes/TCP streams. A
//!   coordinator that falls behind stops draining, the worker's writes
//!   stall, and the pipeline self-throttles — no unbounded buffering
//!   anywhere.
//! * **Admission control**: the job queue is bounded (`--max-pending-jobs`);
//!   a submit past the bound gets a clean
//!   `{"type":"reject","reason":"queue_full"}` line instead of an unbounded
//!   wait, observable via `rejected_submits` in later envelopes.
//! * **Request bounds and ids**: a line past the parser's bounds or a
//!   config past [`SweepConfig::validate`]'s caps gets an `error` line
//!   before anything is planned. Id-less submits are answered `@<n>`, and
//!   a client id that starts with `@` is refused.
//! * **Deadlines & cancellation**: `submit --job-deadline-ms` expires a
//!   job that hasn't merged in time, and `rh-cli cancel <id>` kills one
//!   mid-flight. Either way workers are told to abandon the job's cells
//!   *mid-shard* (a `cancel` lease message, acknowledged with
//!   `cancel_ack`, never requeued) instead of burning the rest of the
//!   lease.
//! * **Pool split**: at submit time the job's missing slots are folded into
//!   units, one engine pass each (the cells that differ only in their data
//!   pattern, and in `HC_first` under no mitigation, PARA or TRR; see
//!   [`crate::exec`]), exactly as `rh-cli sweep` folds them, and the units
//!   are cut into leases of `units / live workers` units (rounded up, at
//!   most `--shard-cells`), so every live worker pulls at least one lease
//!   of a job with a unit per worker: on two workers the default job is 5
//!   leases of 16/16/16/16/5 units and the two-pattern DDR4 reference grid
//!   2 leases of 14 and 13. A lease never splits a unit, so the worker
//!   runs each engine pass once. Units follow their first cell's plan
//!   order and only each device group's first cell needs device tables,
//!   whose one per-row slab is built once per data pattern and seed, so a
//!   full lease builds one slab on the default grid and at most two on
//!   the DDR4 reference grid, whose units each span both patterns (2 MB
//!   each there); the merge is slot-addressed, so any width yields
//!   byte-identical output.
//!
//! The TCP listener checks no credentials: anyone who can reach `--listen`
//! can submit, cancel, or attach a worker (and a worker's results are
//! merged as they come). Vetting a connection covers only the protocol
//! version, the model id, the first-line deadline and the request bounds,
//! so the listener belongs on loopback or a trusted network.

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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long [`Coordinator::start`] waits for locally-spawned workers to say
/// hello before giving up (covers debug-build startup on a loaded box).
const HELLO_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a fresh TCP connection gets to produce its first line, so a
/// peer that connects and says nothing cannot pin a thread forever.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Prefix of the ids given to id-less submits (`@0`, `@1`, ...). A client
/// id that starts with it is refused, so no client can take a generated
/// id; `@` needs no quoting in a shell, as in `rh-cli cancel --id @0`.
const GENERATED_ID_PREFIX: &str = "@";

/// Polling cadence of the in-process fallback waiter.
const FALLBACK_TICK: Duration = Duration::from_millis(25);

/// How long a shutdown waits for each worker to read its `shutdown` and
/// hang up (a worker reads it between leases) before it kills the local
/// workers still running.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(3);

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
    /// Maximum units (engine passes, see [`crate::exec`]) per shard lease;
    /// below this cap a job is split into one lease of whole units per
    /// live worker.
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
    /// Straggler deadline: a lease whose last cell (or, before its first,
    /// the lease itself) is older than this is speculatively re-executed;
    /// `None` disables speculation.
    pub speculate_after: Option<Duration>,
    /// Admission bound: maximum unfinished jobs coordinator-wide; a submit
    /// past it is rejected with reason `queue_full`.
    pub max_pending_jobs: usize,
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
            speculate_after: Some(Duration::from_secs(10)),
            max_pending_jobs: 64,
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
/// whose `last_progress` (when the lease went out, then each cell arrival)
/// is older than the straggler deadline.
struct ActiveLease {
    lease: Lease,
    last_progress: Instant,
    /// Already re-leased once; never speculate the same lease twice.
    speculated: bool,
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
    /// Submits waiting on this job: its own plus each coalesced one. The
    /// last to take the outcome removes the job ([`take_outcome`]).
    waiters: usize,
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
    next_job: u64,
    /// Number of the next id-less submit, which is answered as
    /// `@<number>`: every id-less submit takes one, whether it executes,
    /// hits the cache or coalesces, so no two share an id.
    next_unnamed: u64,
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
    /// Workers refused for protocol-version or model-id skew.
    rejected_workers: u64,
    /// Submits refused by admission control.
    rejected_submits: u64,
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
            next_job: 0,
            next_unnamed: 0,
            next_shard: 0,
            live_workers: 0,
            local_hellos: 0,
            spawn_failed: None,
            rejected_connections: 0,
            rejected_workers: 0,
            rejected_submits: 0,
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
    /// In-process fallback deadline (`None` = fail fast, the pre-existing
    /// behavior).
    fallback_after: Option<Duration>,
    /// Straggler deadline (`None` = no speculation).
    speculate_after: Option<Duration>,
    /// Admission bound on unfinished jobs coordinator-wide.
    max_pending_jobs: usize,
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
            fallback_after: opts.fallback_after,
            speculate_after: opts.speculate_after,
            max_pending_jobs: opts.max_pending_jobs.max(1),
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
    /// coalesced onto an in-flight twin, or executed), with no deadline;
    /// rejections surface as plain errors here.
    pub fn submit(&self, id: Option<String>, cfg: &SweepConfig) -> Result<ResultEnvelope, String> {
        self.submit_detailed(id, cfg, None)
            .map_err(SubmitError::into_message)
    }

    /// [`Coordinator::submit`] with an optional deadline, distinguishing
    /// admission rejections from execution failures.
    pub fn submit_detailed(
        &self,
        id: Option<String>,
        cfg: &SweepConfig,
        deadline_ms: Option<u64>,
    ) -> Result<ResultEnvelope, SubmitError> {
        Inner::submit(&self.inner, id, cfg, deadline_ms)
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

    /// Workers refused at hello time for protocol-version or model-id skew.
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

    /// Submits refused by admission control.
    pub fn rejected_submits(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("coordinator lock")
            .rejected_submits
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
    /// Each worker's handler sends `shutdown` and reads the connection to
    /// its end, so a worker still writing (the closing `shard_done` of a
    /// lease that settled on its last cell) finishes and exits cleanly.
    /// A worker that has not hung up within a grace period (3 s) is cut
    /// off: a local one is killed, which ends its handler's read.
    ///
    /// It takes every lock even if a thread panicked while holding it:
    /// [`Drop`] calls this, and a panic there while a panic unwinds would
    /// abort the process.
    pub fn shutdown(&self) {
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        {
            let mut st = self
                .inner
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
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
            while st.live_workers > 0 && Instant::now() < deadline {
                let left = deadline.saturating_duration_since(Instant::now());
                st = self
                    .inner
                    .done
                    .wait_timeout(st, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
        for child in self
            .children
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter_mut()
        {
            // Reap a worker that hung up, or kill a wedged one.
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        for handle in self
            .handlers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How a submit failed: refused at the door by admission control (the
/// wire's `{"type":"reject"}` line), or admitted but failed to execute (the
/// wire's `{"type":"error"}` line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Machine-readable rejection reason (`queue_full`).
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
        deadline_ms: Option<u64>,
    ) -> Result<ResultEnvelope, SubmitError> {
        if let Some(id) = id
            .as_deref()
            .filter(|id| id.starts_with(GENERATED_ID_PREFIX))
        {
            return Err(SubmitError::Failed(format!(
                "job id '{id}' starts with '{GENERATED_ID_PREFIX}', which is reserved for \
                 the ids of id-less submits"
            )));
        }
        let plan = Arc::new(SweepPlan::from_config(cfg).map_err(SubmitError::Failed)?);
        let key = proto::config_key(&plan.config);
        let cells = sweep_cells(&plan);
        let mut st = inner.state.lock().expect("coordinator lock");
        if st.shutting_down {
            return Err(SubmitError::Failed("coordinator shutting down".to_string()));
        }
        let id = id.unwrap_or_else(|| {
            st.next_unnamed += 1;
            format!("{GENERATED_ID_PREFIX}{}", st.next_unnamed - 1)
        });

        // 1. Cache: the in-memory LRU. What survives a restart is the
        //    checkpoint journal, restored in step 4.
        if let Some(document) = st.cache.get(key) {
            let stats = EnvStats {
                served_from_cache: true,
                ..EnvStats::default()
            };
            return Ok(envelope(&id, key, &st, stats, document));
        }

        // 2. Coalesce onto an identical in-flight job, as one more of its
        //    waiters, and serve the primary's document. It counts as a
        //    cache hit (the primary put the document in the cache, though
        //    another may have evicted it since), plus the coalesced marker.
        if let Some(&primary) = st.inflight.get(&key) {
            st.jobs
                .get_mut(&primary)
                .expect("an in-flight job is held")
                .waiters += 1;
            while st.jobs[&primary].done.is_none() {
                st = inner.done.wait(st).expect("coordinator lock");
            }
            let document = take_outcome(&mut st, primary).map_err(SubmitError::Failed)?;
            st.cache.count_hit();
            let stats = EnvStats {
                served_from_cache: true,
                coalesced: true,
                ..EnvStats::default()
            };
            return Ok(envelope(&id, key, &st, stats, document));
        }

        // 3. Admission control. Only genuinely new work is gated: cache
        //    hits and coalesced waits above cost no worker time. The reason
        //    is machine-readable — it travels the wire as
        //    `{"type":"reject","reason":"queue_full"}`.
        let pending = st.jobs.values().filter(|j| j.done.is_none()).count();
        if pending >= inner.max_pending_jobs {
            st.rejected_submits += 1;
            eprintln!("rh-serve: rejecting submit '{id}': queue_full");
            return Err(SubmitError::Rejected("queue_full".to_string()));
        }

        // 4. New job.
        let job_id = st.next_job;
        st.next_job += 1;
        let mut job = Job {
            slots: vec![None; cells.len()],
            remaining: cells.len(),
            plan: Arc::clone(&plan),
            key,
            executed_cells: 0,
            checkpoint_cells: 0,
            checkpoint_skipped: 0,
            speculations: 0,
            duplicate_cells: 0,
            workers: BTreeMap::new(),
            waiters: 1,
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            admitted_at: Instant::now(),
            queue_wait_ms: None,
            done: None,
        };
        if let Some(dir) = &inner.checkpoint_dir {
            load_checkpoints(dir, &mut job);
        }

        if job.remaining == 0 {
            // Fully restored from the journal: no worker needed, and
            // nothing to hold — the job is never inserted.
            let document = finalize_document(&job);
            st.cache.put(key, document.clone());
            let stats = EnvStats {
                checkpoint_cells: job.checkpoint_cells,
                checkpoint_skipped: job.checkpoint_skipped,
                ..EnvStats::default()
            };
            return Ok(envelope(&id, key, &st, stats, document));
        }

        if st.live_workers == 0 && !inner.allow_late_workers && inner.fallback_after.is_none() {
            return Err(SubmitError::Failed(
                "no live workers and none can attach (start with --workers or --listen)"
                    .to_string(),
            ));
        }

        // Queue shard leases for the missing cells: folded into units (one
        // engine pass each), and the units split across the workers live
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
            let indices = chunk
                .iter()
                .flatten()
                .flatten()
                .map(|&p| missing[p])
                .collect();
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
            if st.jobs[&job_id].done.is_some() {
                let stats = EnvStats::from_job(&st.jobs[&job_id]);
                let document = take_outcome(&mut st, job_id).map_err(SubmitError::Failed)?;
                return Ok(envelope(&id, key, &st, stats, document));
            }
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
                // Bounded wait: nothing notifies on wall-clock expiry, so
                // sleep at most up to the deadline.
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

/// One waiter on a finished job takes its outcome. The last waiter removes
/// the job from the job table and the name map, so a served job's slots,
/// plan and document never outlive the submits that wait on it (the
/// document lives on in the result cache); earlier waiters take a copy.
fn take_outcome(st: &mut State, job_id: u64) -> JobOutcome {
    let job = st.jobs.get_mut(&job_id).expect("a waiter holds its job");
    job.waiters -= 1;
    if job.waiters > 0 {
        return job.done.clone().expect("the job is finished");
    }
    st.named.retain(|_, j| *j != job_id);
    let job = st.jobs.remove(&job_id).expect("a waiter holds its job");
    job.done.expect("the job is finished")
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
        cancelled_jobs: st.cancelled_jobs,
        workers: stats.workers,
        document,
    }
}

/// Units per lease when a job whose missing cells fold into `missing`
/// units (`crate::exec::units`, one engine pass each) is split across
/// `live_workers`: one chunk of whole units per worker, capped at
/// `shard_cells` units. A job with at least one missing unit per worker
/// thus gives every worker a lease, and no unit is ever cut in two (its
/// members would each be simulated). Only each device group's first,
/// lowest-`HC_first` member reads tables, and a lease builds one per-row
/// slab per data pattern (see the module docs). With no worker attached
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
/// re-leasing the still-missing cells of any active lease, not yet
/// speculated, whose last progress (the lease going out, then each cell
/// arrival) is at least `--speculate-after-ms` old. Determinism makes the
/// duplicate execution harmless; [`record_cell`] asserts the duplicates
/// really are bit-exact.
fn supervise_stragglers(inner: &Arc<Inner>) {
    let deadline = inner
        .speculate_after
        .expect("supervisor requires a deadline");
    let tick = (deadline / 8).max(Duration::from_millis(25));
    let mut st = inner.state.lock().expect("coordinator lock");
    loop {
        if st.shutting_down {
            return;
        }
        let now = Instant::now();
        let stale: Vec<u64> = st
            .active
            .iter()
            .filter(|(_, a)| !a.speculated && now.duration_since(a.last_progress) >= deadline)
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
/// position in the sweep's cell list. The name carries [`crate::MODEL_ID`],
/// so this build never reads another model's journal: those cells
/// re-execute.
fn checkpoint_path(dir: &Path, key: (u64, u64)) -> PathBuf {
    dir.join(format!(
        "ckpt-{:016x}-{:016x}-{}.jsonl",
        crate::MODEL_ID,
        key.0,
        key.1
    ))
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
                model,
            }) => {
                if !vet_worker(inner, name, proto_version, model, &mut writer, local) {
                    return;
                }
                kernel
            }
            _ => {
                register_spawn_failure(inner, name, "first line was not a valid hello", local);
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

/// Vet a worker hello against this coordinator's protocol version and
/// [`crate::MODEL_ID`]. A mismatch gets a terminal `reject` line (so the
/// worker exits), a log line, and a counter bump — and, for a
/// locally-spawned worker, fails coordinator startup, since a local pool
/// that can never attach is a configuration error.
fn vet_worker<W: Write>(
    inner: &Arc<Inner>,
    name: &str,
    proto_version: u64,
    model: u64,
    writer: &mut W,
    local: bool,
) -> bool {
    let reason = if proto_version != PROTO_VERSION {
        Some(format!(
            "protocol version {proto_version} does not match coordinator version {PROTO_VERSION}"
        ))
    } else if model != crate::MODEL_ID {
        Some(format!(
            "model {model:#018x} does not match coordinator model {:#018x}",
            crate::MODEL_ID
        ))
    } else {
        None
    };
    let Some(reason) = reason else {
        return true;
    };
    eprintln!("rh-serve: rejecting worker {name}: {reason}");
    inner
        .state
        .lock()
        .expect("coordinator lock")
        .rejected_workers += 1;
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
        // Dequeue one live lease and its config (or exit on shutdown). The
        // config is read under the lock that found the job live: a
        // finished job leaves the table once its submit has its outcome.
        let (lease, config) = {
            let mut st = inner.state.lock().expect("coordinator lock");
            loop {
                if st.shutting_down {
                    drop(st);
                    let _ = write_line(writer, &ToWorker::Shutdown.encode());
                    drain_to_end(reader, Instant::now() + SHUTDOWN_GRACE);
                    worker_gone(inner, name);
                    return;
                }
                match st.queue.pop_front() {
                    Some(lease) => match st.jobs.get(&lease.job) {
                        Some(job) if job.done.is_none() => {
                            let config = job.plan.config.clone();
                            break (lease, config);
                        }
                        // Lease of a canceled/failed job: discard, keep looking.
                        _ => {}
                    },
                    None => st = inner.work.wait(st).expect("coordinator lock"),
                }
            }
        };

        // Write the wire lease outside the lock: writes can block on
        // back-pressure.
        let msg = ToWorker::Shard {
            job: lease.job,
            shard: lease.shard,
            indices: lease.indices.clone(),
            config,
        };
        if write_line(writer, &msg.encode()).is_err() {
            requeue(inner, &lease);
            worker_gone(inner, name);
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
                    worker_gone(inner, name);
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
                    // A cell for a canceled/expired/failed job, or for one
                    // that finished and left the table (a straggler behind
                    // its speculative twin), means the worker is burning
                    // cells nobody can use: tell it to abandon the job
                    // mid-shard. The worker acks and drops the rest of the
                    // lease — never requeued.
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
                        worker_gone(inner, name);
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

/// Read a worker's connection to its end, discarding what arrives, or
/// until a line arrives past `deadline`. After `shutdown` a healthy worker
/// may still be writing — the closing `shard_done` of a lease that settled
/// on its last cell — and dropping the connection under it would fail that
/// write (`error: worker: write: Broken pipe`). A local worker's read is
/// bounded by [`Coordinator::shutdown`], which kills one that does not hang
/// up in time; a TCP worker that neither writes nor hangs up holds its
/// (unjoined) handler thread here until the process exits, as a worker
/// stalled mid-lease already holds it in the lease loop.
fn drain_to_end<R: BufRead>(reader: &mut R, deadline: Instant) {
    while let Ok(Some(_)) = read_line_bounded(reader, MAX_LINE_BYTES) {
        if Instant::now() >= deadline {
            return;
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
    // This arrival is progress for its shard: it restarts the straggler
    // clock.
    let now = Instant::now();
    if let Some(active) = st.active.get_mut(&shard) {
        active.last_progress = now;
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
fn worker_gone(inner: &Arc<Inner>, name: &str) {
    let mut st = inner.state.lock().expect("coordinator lock");
    st.live_workers = st.live_workers.saturating_sub(1);
    // A shutdown waits for the pool to empty.
    inner.done.notify_all();
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
            let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
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
                model,
            }) => {
                if vet_worker(inner, &name, proto_version, model, writer, false) {
                    worker_session(inner, &name, &kernel, reader, writer, false);
                }
            }
            _ => reject_connection(inner, peer, writer, "malformed worker hello"),
        }
    } else if parsed.is_ok() {
        client_session(inner, first, reader, writer);
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

/// One client connection: answer its first line, then every further line
/// until EOF. Submits run to completion in order; a bad line yields an
/// error envelope, not a dropped connection.
fn client_session<R: BufRead, W: Write>(
    inner: &Arc<Inner>,
    first: &str,
    reader: &mut R,
    writer: &mut W,
) {
    let mut reply = client_reply(inner, first);
    loop {
        // `slow-client` chaos arm: a client that drains replies slowly.
        // Injected coordinator-side so the latency (and the back-pressure
        // it creates) is deterministic under test.
        if let Some(delay) = inner.slow_client_delay {
            std::thread::sleep(delay);
        }
        if write_line(writer, &reply).is_err() {
            return;
        }
        reply = match read_line_bounded(reader, MAX_LINE_BYTES) {
            Ok(Some(Line::Text(next))) => client_reply(inner, &next),
            Ok(Some(Line::TooLong)) => encode_error("", &line_too_long()),
            _ => return,
        };
    }
}

/// The reply to one client line, over TCP or stdin: a submit's envelope
/// (or its reject or error line), a cancel's acknowledgement, and
/// `hello_ok` for a hello, whose fields are ignored. A line that is refused
/// is answered with an error line under the id it names.
fn client_reply(inner: &Arc<Inner>, line: &str) -> String {
    match ClientMsg::decode(line) {
        Ok(ClientMsg::Hello { .. }) => "{\"type\":\"hello_ok\"}".to_string(),
        Ok(ClientMsg::Submit {
            id,
            config,
            deadline_ms,
        }) => {
            let label = id.clone().unwrap_or_default();
            match Inner::submit(inner, id, &config, deadline_ms) {
                Ok(env) => env.encode(),
                Err(SubmitError::Rejected(reason)) => proto::encode_reject(&reason),
                Err(SubmitError::Failed(e)) => encode_error(&label, &e),
            }
        }
        Ok(ClientMsg::Cancel { id }) => format!(
            "{{\"type\":\"cancel_ack\",\"id\":{},\"canceled\":{}}}",
            proto::jstr(&id),
            cancel_by_name(inner, &id)
        ),
        Err((id, e)) => encode_error(&id, &e),
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
        let reply = match line {
            Line::Text(line) => client_reply(&coordinator.inner, &line),
            Line::TooLong => encode_error("", &line_too_long()),
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
             evictions={} queue_depth={} queue_wait_ms={} rejected={} cancelled={} \
             workers={}",
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
            fallback_after: None,
            speculate_after: None,
            max_pending_jobs: usize::MAX,
            slow_client_delay: None,
            cancel_after_cells: None,
        }
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
            waiters: 1,
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
    fn version_and_model_skew_get_a_terminal_reject_line() {
        let inner = test_inner();
        let foreign = crate::MODEL_ID ^ 1;
        for (hello, needle) in [
            (
                FromWorker::Hello {
                    kernel: "scalar".into(),
                    proto_version: PROTO_VERSION + 1,
                    model: crate::MODEL_ID,
                },
                "protocol version".to_string(),
            ),
            (
                FromWorker::Hello {
                    kernel: "scalar".into(),
                    proto_version: PROTO_VERSION,
                    model: foreign,
                },
                format!(
                    "model {foreign:#018x} does not match coordinator model {:#018x}",
                    crate::MODEL_ID
                ),
            ),
        ] {
            let mut reader = Cursor::new(Vec::new());
            let mut out = Vec::new();
            route_first(&inner, "peer", &hello.encode(), &mut reader, &mut out);
            let reply = String::from_utf8(out).unwrap();
            let msg = ToWorker::decode(reply.trim()).expect("a decodable reject line");
            match msg {
                ToWorker::Reject { reason } => {
                    assert!(reason.contains(&needle), "got reason '{reason}'");
                }
                other => panic!("expected reject, got {other:?}"),
            }
        }
        let st = inner.state.lock().unwrap();
        assert_eq!(st.rejected_workers, 2);
        assert_eq!(st.live_workers, 0);
    }

    /// A worker hello without a protocol version or model id (the shape
    /// workers sent before the hello was versioned) is malformed: over TCP
    /// it gets an error line and counts as a rejected connection, not a
    /// rejected worker; from a local worker it fails start-up.
    #[test]
    fn unversioned_hello_is_a_malformed_hello() {
        let inner = test_inner();
        let unversioned = "{\"type\":\"hello\",\"role\":\"worker\",\"kernel\":\"scalar\"}";
        let mut reader = Cursor::new(Vec::new());
        let mut out = Vec::new();
        route_first(&inner, "peer", unversioned, &mut reader, &mut out);
        let reply = String::from_utf8(out).unwrap();
        assert!(
            reply.starts_with("{\"type\":\"error\"") && reply.contains("malformed worker hello"),
            "got '{reply}'"
        );
        {
            let st = inner.state.lock().unwrap();
            assert_eq!(st.rejected_connections, 1);
            assert_eq!(st.rejected_workers, 0);
            assert_eq!(st.live_workers, 0);
        }
        let mut out = Vec::new();
        let local = Cursor::new(format!("{unversioned}\n").into_bytes());
        worker_handler(&inner, "local-0", local, &mut out, true);
        let st = inner.state.lock().unwrap();
        let failed = st.spawn_failed.as_deref().expect("a start-up failure");
        assert!(failed.starts_with("local-0: "), "got '{failed}'");
        assert_eq!(st.live_workers, 0);
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

    /// The straggler rule itself, through the supervisor thread: with a
    /// 10 s deadline, of three active leases only the one whose last cell
    /// is 11 s old and that was never speculated gets a twin, and the twin
    /// holds just that lease's missing cells. The fresh lease and the stale
    /// one already speculated are left alone.
    #[test]
    fn supervisor_speculates_only_an_unspeculated_lease_past_the_deadline() {
        let inner = Arc::new(Inner {
            speculate_after: Some(Duration::from_secs(10)),
            ..bare_inner()
        });
        let cfg = small_config();
        let (job_id, results) = seed_job(&inner, &cfg);
        assert!(results.len() >= 9);
        let stale = Instant::now()
            .checked_sub(Duration::from_secs(11))
            .expect("the clock reads past 11 s");
        {
            let mut st = inner.state.lock().unwrap();
            st.next_shard = 3;
            for (shard, indices, last_progress, speculated) in [
                (0, vec![0, 1, 2], stale, false),
                (1, vec![3, 4, 5], Instant::now(), false),
                (2, vec![6, 7, 8], stale, true),
            ] {
                let lease = Lease {
                    job: job_id,
                    shard,
                    indices,
                };
                let active = ActiveLease {
                    lease,
                    last_progress,
                    speculated,
                };
                st.active.insert(shard, active);
            }
            // The stale lease delivered its first cell long ago.
            let job = st.jobs.get_mut(&job_id).unwrap();
            job.slots[0] = Some(results[0].clone());
            job.remaining -= 1;
        }
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || supervise_stragglers(&inner))
        };
        let give_up = Instant::now() + Duration::from_secs(30);
        let mut st = inner.state.lock().unwrap();
        while st.queue.is_empty() && Instant::now() < give_up {
            st = inner
                .work
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap()
                .0;
        }
        st.shutting_down = true;
        inner.work.notify_all();
        drop(st);
        supervisor.join().expect("the supervisor exits on shutdown");

        let st = inner.state.lock().unwrap();
        let twins: Vec<&Lease> = st.queue.iter().collect();
        assert_eq!(twins.len(), 1, "exactly one twin: {twins:?}");
        assert_eq!(twins[0].indices, [1, 2], "the stale lease's missing cells");
        assert_eq!(twins[0].shard, 3, "under a fresh shard id");
        assert_eq!(st.jobs[&job_id].speculations, 1);
        assert!(st.active[&0].speculated);
        assert!(
            !st.active[&1].speculated,
            "a fresh lease is not a straggler"
        );
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
        let inner = Arc::new(Inner {
            max_pending_jobs: 1,
            ..bare_inner()
        });
        let cfg = small_config();
        // One unfinished job occupies the whole queue.
        seed_job(&inner, &cfg);
        match Inner::submit(&inner, Some("late".into()), &cfg, None) {
            Err(SubmitError::Rejected(reason)) => assert_eq!(reason, "queue_full"),
            other => panic!("expected a queue_full reject, got {other:?}"),
        }
        let st = inner.state.lock().unwrap();
        assert_eq!(st.rejected_submits, 1);
        assert_eq!(st.jobs.len(), 1, "a rejected submit creates no job");
    }

    #[test]
    fn deadline_expiry_cancels_the_job_and_fails_the_submit() {
        // No workers and no fallback: the job can only end via its
        // deadline, enforced by the waiting thread itself.
        let inner = test_inner();
        let cfg = small_config();
        let t0 = Instant::now();
        let err = Inner::submit(&inner, Some("dl".into()), &cfg, Some(60))
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
        // (missing, live_workers, shard_cells) -> units per lease.
        for (missing, live, cap, width) in [
            // No worker attached yet (TCP listen): cut as for one worker.
            (10, 0, 16, 10),
            (40, 0, 16, 16),
            // Fewer missing cells than workers: single-cell leases.
            (1, 2, 16, 1),
            (2, 3, 16, 1),
            // Two workers: the default job's 69 units go 16 to a lease;
            // 4 units go 2 and 2.
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
            std::thread::spawn(move || Inner::submit(&inner, Some("split".into()), &cfg, None))
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

    /// The units (engine passes) each lease holds: its cells folded as the
    /// worker folds them.
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
    /// are queued as leases of 16/16/16/16/5 units (engine passes), 69 in
    /// all, and the DDR4 reference grid's 91 as 14/13, 27 in all (each
    /// unit replaying into its second pattern's device) — each the fold of
    /// the whole list — covering every cell exactly once.
    #[test]
    fn submit_queues_the_sweeps_folded_work_and_no_more() {
        for (cfg, sizes) in [
            (SweepConfig::default(), vec![16, 16, 16, 16, 5]),
            (crate::sweep::ddr4_reference(), vec![14, 13]),
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

    /// A client needs no hello: a session is served whatever its first
    /// line, and a hello — here shaped the way perfbench's service client
    /// builds it, nonce 0 and an empty proof, or with any other fields —
    /// is answered `hello_ok` and changes nothing about what follows. (The
    /// name dates from the shared-token auth the hello once carried.)
    #[test]
    fn client_sessions_authenticate_before_submitting() {
        let inner = test_inner();
        let cancel = ClientMsg::Cancel { id: "nope".into() }.encode();
        let ack = "{\"type\":\"cancel_ack\",\"id\":\"nope\",\"canceled\":false}\n";
        for (nonce, proof) in [(0, ""), (7, "0123456789abcdef")] {
            let hello = ClientMsg::Hello {
                auth_nonce: nonce,
                auth_proof: proof.into(),
            };
            let mut reader = Cursor::new(format!("{cancel}\n").into_bytes());
            let mut out = Vec::new();
            route_first(&inner, "peer", &hello.encode(), &mut reader, &mut out);
            let reply = String::from_utf8(out).unwrap();
            assert_eq!(reply, format!("{{\"type\":\"hello_ok\"}}\n{ack}"));
        }
        let mut out = Vec::new();
        route_first(
            &inner,
            "peer",
            &cancel,
            &mut Cursor::new(Vec::new()),
            &mut out,
        );
        assert_eq!(String::from_utf8(out).unwrap(), ack);
        assert_eq!(inner.state.lock().unwrap().rejected_connections, 0);
    }

    /// A finished job leaves the coordinator with its last waiter, however
    /// it was answered: executed, from the cache, or restored whole from
    /// its journal (which is never inserted). Only the cache keeps the
    /// document.
    #[test]
    fn finished_jobs_leave_the_coordinator() {
        let dir = scratch("finished-jobs");
        // No worker: every job runs on its submitting thread.
        let coordinator = Coordinator::start(ServeOptions {
            workers: 0,
            fallback_after: Some(Duration::ZERO),
            speculate_after: None,
            cache_capacity: 1,
            checkpoint_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
        .expect("workerless coordinator starts when fallback is armed");
        let config = |seed| SweepConfig {
            seed,
            ..small_config()
        };
        // 1 and 2 execute (2 evicts 1 from the one-slot cache), 2 again is
        // a cache hit, and 1 again is restored from its journal.
        for (n, seed) in [1, 2, 2, 1].into_iter().enumerate() {
            let env = coordinator
                .submit(Some(format!("job-{n}")), &config(seed))
                .expect("submit");
            assert_eq!(
                env.document,
                json::render(&crate::sweep::run_sweep(&config(seed), 1).unwrap())
            );
            // Read under the lock, assert after it: a failing assertion
            // must not poison the lock the coordinator's drop takes.
            let held = {
                let st = coordinator.inner.state.lock().unwrap();
                (st.jobs.len(), st.named.len())
            };
            assert_eq!(held, (0, 0), "jobs and names held after submit {n}");
        }
        coordinator.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal is bound to the model that wrote it: renamed to another
    /// model id's file name it is not read, so every cell re-executes to
    /// `sweep`'s document; back under its own name it restores every cell.
    #[test]
    fn a_journal_of_another_model_is_not_read() {
        let dir = scratch("foreign-model");
        let cfg = small_config();
        let expected = json::render(&crate::sweep::run_sweep(&cfg, 1).unwrap());
        let total = sweep_cells(&SweepPlan::from_config(&cfg).unwrap()).len() as u64;
        let submit = || {
            let coordinator = Coordinator::start(ServeOptions {
                workers: 0,
                fallback_after: Some(Duration::ZERO),
                speculate_after: None,
                checkpoint_dir: Some(dir.clone()),
                ..ServeOptions::default()
            })
            .expect("workerless coordinator starts when fallback is armed");
            let env = coordinator.submit(None, &cfg).expect("submit");
            coordinator.shutdown();
            assert_eq!(env.document, expected);
            assert_eq!(env.checkpoint_skipped, 0);
            (env.executed_cells, env.checkpoint_cells)
        };
        assert_eq!(submit(), (total, 0), "the first run journals every cell");
        let own = checkpoint_path(&dir, proto::config_key(&cfg));
        let name = own.file_name().unwrap().to_str().unwrap();
        let model = |id: u64| format!("ckpt-{id:016x}-");
        assert!(name.starts_with(&model(crate::MODEL_ID)), "{name}");
        let foreign = dir.join(name.replace(&model(crate::MODEL_ID), &model(!crate::MODEL_ID)));
        std::fs::rename(&own, &foreign).unwrap();
        assert_eq!(submit(), (total, 0), "another model's journal is not read");
        // Over the journal the second run wrote.
        std::fs::rename(&foreign, &own).unwrap();
        assert_eq!(submit(), (0, total), "its own journal restores every cell");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Id-less submits never share an id: each takes the next number of
    /// its own counter, whether it executes or is a cache hit. Before, an
    /// id-less submit took the number of the next job admitted, so a cache
    /// hit and the job executed after it were both answered `job-1`.
    #[test]
    fn id_less_submits_get_distinct_ids() {
        let coordinator = Coordinator::start(ServeOptions {
            workers: 0,
            fallback_after: Some(Duration::ZERO),
            speculate_after: None,
            ..ServeOptions::default()
        })
        .expect("workerless coordinator starts when fallback is armed");
        let config = |seed| SweepConfig {
            seed,
            ..small_config()
        };
        let envelopes: Vec<ResultEnvelope> = [1, 1, 5]
            .into_iter()
            .map(|seed| coordinator.submit(None, &config(seed)).expect("submit"))
            .collect();
        let served: Vec<bool> = envelopes.iter().map(|e| e.served_from_cache).collect();
        assert_eq!(served, [false, true, false]);
        let ids: Vec<&str> = envelopes.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["@0", "@1", "@2"]);
        coordinator.shutdown();
    }

    /// A client cannot take a generated id: over the stdin and TCP reply
    /// path, a submit named `job-0` keeps its name, the id-less submit
    /// after it is answered `@0`, and a client id in the `@` namespace gets
    /// an error line. Before, generated ids were `job-<n>`, and the two
    /// submits were both answered `job-0`.
    #[test]
    fn client_ids_never_collide_with_generated_ids() {
        let coordinator = Coordinator::start(ServeOptions {
            workers: 0,
            fallback_after: Some(Duration::ZERO),
            speculate_after: None,
            ..ServeOptions::default()
        })
        .expect("workerless coordinator starts when fallback is armed");
        let reply = |id: Option<&str>| {
            let submit = ClientMsg::Submit {
                id: id.map(String::from),
                config: small_config(),
                deadline_ms: None,
            };
            client_reply(&coordinator.inner, &submit.encode())
        };
        let ids: Vec<String> = [Some("job-0"), None]
            .into_iter()
            .map(|id| ResultEnvelope::decode(&reply(id)).expect("an envelope").id)
            .collect();
        assert_eq!(ids, ["job-0", "@0"]);
        let refused = reply(Some("@0"));
        assert!(
            refused.starts_with("{\"type\":\"error\",\"id\":\"@0\"")
                && refused.contains("reserved"),
            "{refused}"
        );
        coordinator.shutdown();
    }

    /// A refused submit that names its id is answered under that id, for
    /// a config past `MAX_AXIS_VALUES` and for an unknown config field, so
    /// a client pipelining named submits can tell which one was refused. A
    /// line that does not parse names no id.
    #[test]
    fn a_refused_named_submit_keeps_its_id() {
        let inner = test_inner();
        let axis: Vec<String> = (1..=crate::sweep::MAX_AXIS_VALUES as u64 + 1)
            .map(|hc| hc.to_string())
            .collect();
        for (id, config, needle) in [
            (
                "big",
                format!("{{\"hc_firsts\":[{}]}}", axis.join(",")),
                "MAX_AXIS_VALUES",
            ),
            ("odd", "{\"bogus\":1}".to_string(), "unknown config field"),
        ] {
            let line = format!("{{\"type\":\"submit\",\"id\":\"{id}\",\"config\":{config}}}");
            let reply = client_reply(&inner, &line);
            let v = proto::parse(&reply).unwrap();
            assert_eq!(v.get("type").and_then(proto::Value::as_str), Some("error"));
            assert_eq!(v.get("id").and_then(proto::Value::as_str), Some(id));
            let message = v.get("message").and_then(proto::Value::as_str).unwrap();
            assert!(message.contains(needle), "{id}: {message}");
        }
        let reply = client_reply(&inner, "{\"type\":\"submit\",\"id\":\"cut\"");
        assert!(
            reply.starts_with("{\"type\":\"error\",\"id\":\"\""),
            "{reply}"
        );
        assert!(inner.state.lock().unwrap().jobs.is_empty());
    }

    /// Dropping a coordinator whose state lock a panicking thread poisoned,
    /// while a panic unwinds (a failing assertion in a test that holds
    /// one), ends with that panic: the drop's shutdown recovers the lock.
    /// Before, it panicked on the poisoned lock inside the unwind, and the
    /// process aborted.
    #[test]
    fn dropping_a_coordinator_with_a_poisoned_lock_during_a_panic_does_not_abort() {
        let coordinator = Coordinator::start(ServeOptions {
            workers: 0,
            fallback_after: Some(Duration::ZERO),
            speculate_after: None,
            ..ServeOptions::default()
        })
        .expect("workerless coordinator starts when fallback is armed");
        let inner = Arc::clone(&coordinator.inner);
        let poisoner = std::thread::spawn(move || {
            let _held = inner.state.lock().unwrap();
            panic!("poisoning the coordinator's state lock");
        });
        assert!(poisoner.join().is_err());
        assert!(coordinator.inner.state.is_poisoned());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = coordinator;
            panic!("a failing check while the coordinator is held");
        }));
        let payload = caught.expect_err("the closure panics");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"a failing check while the coordinator is held")
        );
    }

    /// A submit coalesced onto an in-flight primary is served the
    /// primary's document even when the one-slot cache evicted it before
    /// the waiter woke: the primary completes and a second document lands
    /// in one lock scope. Both submits get the document, and the job leaves
    /// with the second of them.
    #[test]
    fn coalesced_submit_survives_eviction_of_its_primarys_document() {
        let inner = Arc::new(Inner {
            state: Mutex::new(State::new(1)),
            ..bare_inner()
        });
        let cfg = small_config();
        let expected = json::render(&crate::sweep::run_sweep(&cfg, 1).unwrap());
        let submit = |id: &str| {
            let (inner, cfg, id) = (Arc::clone(&inner), cfg.clone(), id.to_string());
            std::thread::spawn(move || Inner::submit(&inner, Some(id), &cfg, None))
        };
        let primary = submit("primary");
        let wait_for = |waiters: usize| loop {
            let st = inner.state.lock().unwrap();
            if st.jobs.values().any(|j| j.waiters == waiters) {
                break *st.jobs.keys().next().unwrap();
            }
            drop(st);
            std::thread::yield_now();
        };
        wait_for(1);
        let coalesced = submit("coalesced");
        let job_id = wait_for(2);
        {
            let mut st = inner.state.lock().unwrap();
            for (index, result) in reference_results(&cfg).into_iter().enumerate() {
                record_cell(&inner, &mut st, "w", "scalar", job_id, 0, index, result);
            }
            assert!(matches!(st.jobs[&job_id].done, Some(Ok(_))));
            st.cache.put((0, 0), "another document".into());
            assert_eq!(st.cache.evictions(), 1);
        }
        let primary = primary.join().unwrap().expect("the primary's envelope");
        let coalesced = coalesced.join().unwrap().expect("the coalesced envelope");
        assert_eq!(primary.document, expected);
        assert_eq!(coalesced.document, expected);
        assert!(!primary.coalesced && coalesced.coalesced && coalesced.served_from_cache);
        let st = inner.state.lock().unwrap();
        assert_eq!(st.cache.hits(), 1, "the coalesced submit is a cache hit");
        assert!(st.jobs.is_empty() && st.named.is_empty());
    }

    /// Envelope counters surface the job-manager state: evictions from the
    /// result cache, rejected submits, cancellations, and the queue depth
    /// at answer time.
    #[test]
    fn envelope_carries_job_manager_counters() {
        let inner = test_inner();
        let cfg = small_config();
        let (job_id, _) = seed_job(&inner, &cfg);
        {
            let mut st = inner.state.lock().unwrap();
            st.rejected_submits = 3;
            st.cancelled_jobs = 1;
            st.jobs.get_mut(&job_id).unwrap().queue_wait_ms = Some(12);
        }
        let st = inner.state.lock().unwrap();
        let stats = EnvStats::from_job(&st.jobs[&job_id]);
        let env = envelope("e", (1, 2), &st, stats, "{}".to_string());
        assert_eq!(env.rejected_submits, 3);
        assert_eq!(env.cancelled_jobs, 1);
        assert_eq!(env.queue_wait_ms, 12);
        assert_eq!(env.queue_depth, 1, "the seeded job is still unfinished");
    }
}
