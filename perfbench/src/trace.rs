//! The traced run. It splits each job across the simulator's layers by
//! timing, from this benchmark's own code, the calls it makes into each
//! layer's public API; nothing inside the simulator is instrumented.
//!
//! Spans (name, start, end, parent, job) are kept in memory and written out
//! as jsonl when the run ends. Per job:
//!
//! * `job` → `plan` / `execute` / `render`: the job as `rh-cli sweep` runs
//!   it, through `SweepPlan::from_config`, `execute_cells_with_kernel` (once
//!   per cell list, two threads; it builds its own device tables) and
//!   `json::render`;
//! * `tables`: each `DeviceTables::shared` build the executor makes, timed
//!   beside the job because the executor's own builds are not visible;
//! * `cells` → `cell`: the executor's round-robin deal re-run on the same
//!   two threads over those tables, every device behind a counting [`Tap`];
//! * `layers` (one per cell, single-threaded) → `engine` / `record` /
//!   `fill` / `observe` / `device`: the whole `run_experiment`, a run that
//!   records the device calls, the workload's `fill_batch` alone over the
//!   engine's chunks, fill plus `Mitigation::on_activate`, and a replay of
//!   the recorded device calls on a reset `DeviceState`;
//! * `serve_job` → `submit` / `decode`: the same job through the service.
//!
//! Every untraced document passes the sweep's invariants, every result is
//! checked against the untraced run bit for bit, and every count is checked
//! against a second derivation of it.

use crate::check::{check_digest, check_served, sweep_invariants, Tally};
use crate::config::{job_seed, Workload, PARALLELISM};
use crate::pipeline::{cell_params, sweep_job, table_key, TableKey};
use crate::service::Service;
use crate::sys::median;
use crate::timed::{start_service, SERVICE_STARTS};
use crate::{Metric, Run};
use rh_cli::engine::{run_experiment, EngineScratch, RunResult, BATCH};
use rh_cli::exec::execute_cells_with_kernel;
use rh_cli::plan::{CellSpec, BLAST_RADIUS};
use rh_cli::proto::{self, result_from_value, result_to_json};
use rh_cli::{json, ResultEnvelope, SweepConfig, SweepOutput, SweepPlan};
use rh_core::{Device, DeviceState, DeviceTables, Geometry, Kernel, RowAddr, VictimModelParams};
use rh_mitigations::{ActionBuf, Mitigation, MitigationKind};
use rh_workloads::{BuiltWorkload, Workload as _};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The mitigation families the sweep grid runs, by name prefix.
pub const FAMILIES: [&str; 5] = ["none", "para", "graphene", "refresh", "trr"];

fn family(mitigation: &str) -> &'static str {
    let prefix = mitigation.split('(').next().unwrap_or(mitigation);
    FAMILIES
        .into_iter()
        .find(|f| *f == prefix)
        .unwrap_or("other")
}

/// One timed interval of the traced run.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    /// Mitigation family of a `cell` or `layers` span, else empty.
    pub family: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// In-memory span store; spans are indexed by their opening order.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    pub fn open(&self, name: &'static str, job: u64, parent: Option<usize>) -> usize {
        let start = self.origin.elapsed();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            job,
            parent,
            family: "",
            start,
            end: start,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end = self.origin.elapsed();
        self.lock()[id].end = end;
    }

    /// Close a span and tag it with a mitigation family.
    pub fn close_tagged(&self, id: usize, family: &'static str) {
        let end = self.origin.elapsed();
        let mut spans = self.lock();
        spans[id].end = end;
        spans[id].family = family;
    }

    pub fn span<R>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.open(name, job, parent);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Each span's duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::secs).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            out[parent] -= span.secs();
        }
    }
    out
}

/// Spans as jsonl, one object per line, with self times.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, (s, self_s)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"family\":\"{}\",\
             \"start_s\":{},\"end_s\":{},\"self_s\":{self_s}}}",
            s.name,
            s.job,
            s.family,
            s.start.as_secs_f64(),
            s.end.as_secs_f64(),
        );
    }
    out
}

/// One call the engine made into the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Activate(RowAddr),
    Repeat(RowAddr, u64),
    RefreshRow(RowAddr),
    RefreshAll,
}

/// Device calls of one cell, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Activations applied, single or in runs.
    pub acts: u64,
    /// Single-activation calls: the coalescer's full-group bypass, plus a
    /// newcomer applied alone after a mitigation acted.
    pub activate: u64,
    /// Coalesced-run calls (`activate_repeat`).
    pub repeat: u64,
    pub refresh_row: u64,
    /// Full refreshes: tREFW window ends plus mitigation-requested ones.
    pub refresh_all: u64,
}

/// A device that counts — and optionally records — the engine's calls
/// before forwarding each to the real `DeviceState`.
pub struct Tap<'a> {
    device: &'a mut DeviceState,
    counts: Counts,
    log: Option<&'a mut Vec<Call>>,
}

impl<'a> Tap<'a> {
    pub fn new(device: &'a mut DeviceState, log: Option<&'a mut Vec<Call>>) -> Self {
        Self {
            device,
            counts: Counts::default(),
            log,
        }
    }

    fn log(&mut self, call: Call) {
        if let Some(log) = self.log.as_mut() {
            log.push(call);
        }
    }
}

impl Device for Tap<'_> {
    fn geometry(&self) -> &Geometry {
        Device::geometry(&*self.device)
    }
    fn params(&self) -> &VictimModelParams {
        Device::params(&*self.device)
    }
    fn activate(&mut self, addr: RowAddr) {
        self.counts.acts += 1;
        self.counts.activate += 1;
        self.log(Call::Activate(addr));
        Device::activate(self.device, addr);
    }
    fn activate_repeat(&mut self, addr: RowAddr, n: u64) {
        self.counts.acts += n;
        self.counts.repeat += 1;
        self.log(Call::Repeat(addr, n));
        Device::activate_repeat(self.device, addr, n);
    }
    fn runs_commute(&self, a: RowAddr, b: RowAddr) -> bool {
        Device::runs_commute(&*self.device, a, b)
    }
    fn conflict_radius(&self) -> Option<u32> {
        Device::conflict_radius(&*self.device)
    }
    fn refresh_row(&mut self, addr: RowAddr) {
        self.counts.refresh_row += 1;
        self.log(Call::RefreshRow(addr));
        Device::refresh_row(self.device, addr);
    }
    fn refresh_all(&mut self) {
        self.counts.refresh_all += 1;
        self.log(Call::RefreshAll);
        Device::refresh_all(self.device);
    }
    fn total_flips(&self) -> u64 {
        Device::total_flips(&*self.device)
    }
    fn flipped_rows(&self) -> u64 {
        Device::flipped_rows(&*self.device)
    }
    fn flips_per_mact(&self) -> f64 {
        Device::flips_per_mact(&*self.device)
    }
    fn total_activations(&self) -> u64 {
        Device::total_activations(&*self.device)
    }
    fn refreshes_issued(&self) -> u64 {
        Device::refreshes_issued(&*self.device)
    }
    fn flips_1to0(&self) -> u64 {
        Device::flips_1to0(&*self.device)
    }
    fn flips_0to1(&self) -> u64 {
        Device::flips_0to1(&*self.device)
    }
    fn post_ecc_flips(&self) -> Option<u64> {
        Device::post_ecc_flips(&*self.device)
    }
}

/// Replay recorded device calls, in order.
fn replay(device: &mut DeviceState, log: &[Call]) {
    for call in log {
        match *call {
            Call::Activate(addr) => device.activate(addr),
            Call::Repeat(addr, n) => device.activate_repeat(addr, n),
            Call::RefreshRow(addr) => device.refresh_row(addr),
            Call::RefreshAll => device.refresh_all(),
        }
    }
}

/// The engine's chunking of one cell: `BATCH`-sized chunks clipped to each
/// tREFW boundary; the flag marks a chunk that closes a window.
fn for_each_chunk(activations: u64, refresh_interval: u64, mut f: impl FnMut(usize, bool)) {
    let mut remaining = activations;
    let mut until_refresh = if refresh_interval > 0 {
        refresh_interval
    } else {
        u64::MAX
    };
    while remaining > 0 {
        let n = remaining.min(until_refresh).min(BATCH as u64);
        remaining -= n;
        let closes_window = refresh_interval > 0 && {
            until_refresh -= n;
            until_refresh == 0
        };
        if closes_window {
            until_refresh = refresh_interval;
        }
        f(n as usize, closes_window);
    }
}

/// Reuse one device per thread across cells, as the executor does.
fn reset_device(
    slot: &mut Option<DeviceState>,
    tables: Arc<DeviceTables>,
    kernel: Kernel,
) -> &mut DeviceState {
    if slot.is_none() {
        return slot.insert(DeviceState::with_tables_and_kernel(tables, kernel));
    }
    let device = slot.as_mut().expect("checked above");
    device.reset_for_cell(tables);
    device
}

fn build(plan: &SweepPlan, cell: &CellSpec) -> (BuiltWorkload, MitigationKind) {
    let geom = &plan.config.geometry;
    let workload = cell
        .workload
        .build(geom, plan.config.benign_fraction, cell.seeds.workload)
        .expect("workloads are validated at plan time");
    let mitigation =
        cell.mitigation
            .build(geom, cell.hc_first, BLAST_RADIUS, cell.seeds.mitigation);
    (workload, mitigation)
}

type Tables = BTreeMap<TableKey, Arc<DeviceTables>>;

/// One cell's result and device calls, filled in by the thread it was
/// dealt to.
type Slot = Option<(RunResult, Counts)>;

/// Run `cells` on [`PARALLELISM`] threads, dealt round-robin like
/// `execute_cells_with_kernel` deals them, each cell in a `cell` span and
/// each device behind a counting [`Tap`].
fn deal(
    tr: &Tracer,
    job: u64,
    parent: usize,
    plan: &SweepPlan,
    cells: &[CellSpec],
    tables: &Tables,
    kernel: Kernel,
) -> Vec<(RunResult, Counts)> {
    let threads = PARALLELISM.min(cells.len()).max(1);
    let mut slots: Vec<Slot> = vec![None; cells.len()];
    let mut shards: Vec<Vec<(&CellSpec, &mut Slot)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, pair) in cells.iter().zip(slots.iter_mut()).enumerate() {
        shards[i % threads].push(pair);
    }
    std::thread::scope(|scope| {
        for shard in shards {
            scope.spawn(move || {
                let mut device = None;
                let mut scratch = EngineScratch::new();
                for (cell, slot) in shard {
                    let id = tr.open("cell", job, Some(parent));
                    let device =
                        reset_device(&mut device, tables[&table_key(cell)].clone(), kernel);
                    let (mut workload, mut mitigation) = build(plan, cell);
                    let mut tap = Tap::new(device, None);
                    let result = run_experiment(
                        &mut tap,
                        &mut workload,
                        &mut mitigation,
                        cell.activations,
                        cell.auto_refresh_interval,
                        &mut scratch,
                    );
                    let counts = tap.counts;
                    tr.close_tagged(id, family(&result.mitigation));
                    *slot = Some((result, counts));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every cell executed exactly once"))
        .collect()
}

/// One job split into spans.
struct TracedJob {
    plan: SweepPlan,
    /// The job's output, from `execute_cells_with_kernel`.
    out: SweepOutput,
    doc: String,
    /// Per cell list (grid, PARA sweep): its tables, and the results and
    /// device-call counts of the counted deal.
    lists: Vec<(Tables, Vec<(RunResult, Counts)>)>,
}

fn traced_job(
    tr: &Tracer,
    job: u64,
    cfg: &SweepConfig,
    kernel: Kernel,
) -> Result<TracedJob, String> {
    let root = tr.open("job", job, None);
    let plan = tr.span("plan", job, Some(root), |_| SweepPlan::from_config(cfg))?;
    let [grid, para_sweep] = [&plan.grid, &plan.para_sweep].map(|cells| {
        tr.span("execute", job, Some(root), |_| {
            execute_cells_with_kernel(&plan, cells, PARALLELISM, kernel)
        })
    });
    let para_monotone = para_sweep
        .windows(2)
        .all(|w| w[1].total_flips <= w[0].total_flips);
    let out = SweepOutput {
        config: plan.config.clone(),
        grid,
        para_sweep,
        para_monotone,
    };
    let doc = tr.span("render", job, Some(root), |_| json::render(&out));
    tr.close(root);

    let mut lists = Vec::new();
    for cells in [&plan.grid, &plan.para_sweep] {
        let mut tables = Tables::new();
        for cell in cells {
            if let Entry::Vacant(slot) = tables.entry(table_key(cell)) {
                slot.insert(tr.span("tables", job, None, |_| {
                    DeviceTables::shared(
                        plan.config.geometry,
                        cell_params(&plan.config, cell),
                        cell.seeds.device,
                    )
                })?);
            }
        }
        let results = tr.span("cells", job, None, |id| {
            deal(tr, job, id, &plan, cells, &tables, kernel)
        });
        lists.push((tables, results));
    }
    Ok(TracedJob {
        plan,
        out,
        doc,
        lists,
    })
}

fn same_result(what: &str, got: &RunResult, want: &RunResult) -> Result<(), String> {
    let (got, want) = (result_to_json(got), result_to_json(want));
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got} != {want}"))
    }
}

/// What the layer pass learned about one cell.
struct CellLayers {
    family: &'static str,
    acts: u64,
    /// Refresh actions the mitigation emitted.
    actions: u64,
}

/// Split every cell of a traced job into its layers, single-threaded.
fn layer_pass(
    tr: &Tracer,
    job: u64,
    traced: &TracedJob,
    kernel: Kernel,
) -> Result<Vec<CellLayers>, String> {
    let plan = &traced.plan;
    let geom = plan.config.geometry;
    let mut device = None;
    let mut scratch = EngineScratch::new();
    let mut log = Vec::new();
    let mut batch: Vec<RowAddr> = Vec::with_capacity(BATCH);
    let mut actions = ActionBuf::new();
    let mut out = Vec::new();
    for (cells, (tables, results)) in [&plan.grid, &plan.para_sweep]
        .into_iter()
        .zip(&traced.lists)
    {
        for (cell, (want, want_counts)) in cells.iter().zip(results) {
            let fam = family(&want.mitigation);
            let what = format!(
                "cell {}/{}/{}",
                cell.hc_first, want.workload, want.mitigation
            );
            let tables = &tables[&table_key(cell)];
            let id = tr.open("layers", job, None);
            let (acts, interval) = (cell.activations, cell.auto_refresh_interval);

            let dev = reset_device(&mut device, tables.clone(), kernel);
            let (mut w, mut m) = build(plan, cell);
            let engine = tr.span("engine", job, Some(id), |_| {
                run_experiment(dev, &mut w, &mut m, acts, interval, &mut scratch)
            });
            same_result(&format!("{what} (plain engine)"), &engine, want)?;

            let dev = reset_device(&mut device, tables.clone(), kernel);
            let (mut w, mut m) = build(plan, cell);
            log.clear();
            let mut tap = Tap::new(dev, Some(&mut log));
            let recorded = tr.span("record", job, Some(id), |_| {
                run_experiment(&mut tap, &mut w, &mut m, acts, interval, &mut scratch)
            });
            let counts = tap.counts;
            same_result(&format!("{what} (recording engine)"), &recorded, want)?;
            if counts != *want_counts {
                return Err(format!(
                    "{what}: device calls {counts:?} differ from the traced execution's {want_counts:?}"
                ));
            }

            let (mut w, _) = build(plan, cell);
            tr.span("fill", job, Some(id), |_| {
                for_each_chunk(acts, interval, |n, _| {
                    w.fill_batch(&mut batch, n);
                    std::hint::black_box(&batch);
                })
            });

            let (mut w, mut m) = build(plan, cell);
            let mut emitted = 0u64;
            let mut windows = 0u64;
            tr.span("observe", job, Some(id), |_| {
                for_each_chunk(acts, interval, |n, closes_window| {
                    w.fill_batch(&mut batch, n);
                    for &addr in &batch {
                        actions.clear();
                        m.on_activate(addr, &geom, &mut actions);
                        emitted += actions.len() as u64;
                    }
                    if closes_window {
                        m.reset();
                        windows += 1;
                    }
                })
            });
            // Every action the mitigation emits reaches the device as one
            // refresh call, and so does every window end.
            if emitted + windows != counts.refresh_row + counts.refresh_all {
                return Err(format!(
                    "{what}: {emitted} mitigation actions + {windows} window ends != \
                     {} refresh calls",
                    counts.refresh_row + counts.refresh_all
                ));
            }

            let dev = reset_device(&mut device, tables.clone(), kernel);
            tr.span("device", job, Some(id), |_| replay(dev, &log));
            let replayed = RunResult {
                total_flips: dev.total_flips(),
                flipped_rows: dev.flipped_rows(),
                flips_per_mact: dev.flips_per_mact(),
                refreshes_issued: dev.refreshes_issued(),
                flips_1to0: dev.flips_1to0(),
                flips_0to1: dev.flips_0to1(),
                post_ecc_flips: dev.post_ecc_flips(),
                ..want.clone()
            };
            same_result(&format!("{what} (device replay)"), &replayed, want)?;

            tr.close_tagged(id, fam);
            out.push(CellLayers {
                family: fam,
                acts,
                actions: emitted,
            });
        }
    }
    Ok(out)
}

/// Everything the serve side of a traced run measured.
#[derive(Default)]
struct ServeStats {
    starts: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    busiest_share: Vec<f64>,
    overhead_s: Vec<f64>,
    speculations: u64,
    duplicate_cells: u64,
    envelope_bytes: Vec<f64>,
}

/// Send each traced job's config through a warm service and check its
/// document against the in-process one. `jobs` holds (job, config,
/// in-process document, untraced in-process job seconds).
fn traced_serve(
    tr: &Tracer,
    w: Workload,
    rh_cli: &Path,
    jobs: &[(u64, SweepConfig, String, f64)],
    cells: u64,
    tally: &mut Tally,
) -> Result<ServeStats, String> {
    let mut stats = ServeStats::default();
    let (mut service, starts) = start_service(rh_cli, SERVICE_STARTS)?;
    stats.starts = starts.iter().map(Duration::as_secs_f64).collect();
    let canary = w.config(w.canary_seed());
    let warm_up = service
        .request(&Service::submit_line("warm-up", &canary))
        .and_then(|reply| ResultEnvelope::decode(&reply));
    tally.record(
        "serve warm-up",
        warm_up.and_then(|env| check_digest(&env.document, w.canary_digest())),
    );
    for (job, cfg, doc, untraced_s) in jobs {
        let line = Service::submit_line(&format!("traced-{job}"), cfg);
        let id = tr.open("serve_job", *job, None);
        let reply = tr.span("submit", *job, Some(id), |_| service.request(&line));
        let decoded = tr.span("decode", *job, Some(id), |_| {
            reply
                .as_deref()
                .map_err(Clone::clone)
                .and_then(ResultEnvelope::decode)
        });
        tr.close(id);
        let served_s = tr.spans()[id].secs();
        let outcome = decoded.and_then(|env| {
            check_served(&env, doc, cells)?;
            let busiest = env.workers.iter().map(|w| w.cells).max().unwrap_or(0);
            stats
                .busiest_share
                .push(busiest as f64 / env.executed_cells.max(1) as f64);
            stats.queue_wait_ms.push(env.queue_wait_ms as f64);
            stats.speculations += env.speculations;
            stats.duplicate_cells += env.duplicate_cells;
            stats.overhead_s.push(served_s - untraced_s);
            stats
                .envelope_bytes
                .push(reply.as_ref().map_or(0, |r| r.trim_end().len()) as f64);
            Ok(())
        });
        tally.record(&format!("serve traced job {job}"), outcome);
    }
    service.stop()?;
    Ok(stats)
}

fn ns_per(secs: f64, acts: u64) -> f64 {
    secs * 1e9 / acts.max(1) as f64
}

/// The traced run of workload `w`: its fixed set of jobs, each run
/// untraced, traced, split into layers, and sent through the service.
pub fn run(w: Workload, seed: u64, rh_cli: &Path, spans_out: Option<&Path>) -> Result<Run, String> {
    let kernel = Kernel::auto();
    let tr = Tracer::new();
    let mut tally = Tally::default();
    let mut layers = Vec::new();
    let mut served_jobs = Vec::new();
    let mut overhead = Vec::new();
    let mut render_bytes = Vec::new();
    let mut codec_secs = 0.0;
    let mut codec_results = 0u64;
    let mut all_counts = Counts::default();
    for job in 0..w.traced_jobs() {
        let cfg = w.config(job_seed(seed, job));
        let started = Instant::now();
        let (untraced, doc) = sweep_job(&cfg)?;
        let untraced_s = started.elapsed().as_secs_f64();

        let traced = traced_job(&tr, job, &cfg, kernel)?;
        let traced_s = tr
            .spans()
            .iter()
            .find(|s| s.name == "job" && s.job == job)
            .map(Span::secs)
            .expect("job span recorded");
        overhead.push(traced_s - untraced_s);
        render_bytes.push(traced.doc.len() as f64);
        let wanted: Vec<&RunResult> = untraced.grid.iter().chain(&untraced.para_sweep).collect();
        let executed = traced.out.grid.iter().chain(&traced.out.para_sweep);
        let dealt = traced.lists.iter().flat_map(|(_, r)| r).map(|(r, _)| r);
        let reproduced = if let Err(e) = sweep_invariants(&untraced) {
            Err(e)
        } else if traced.doc != doc {
            Err("traced document differs from the untraced one".to_string())
        } else if wanted.len() != dealt.clone().count() {
            Err("the counted deal ran a different number of cells".to_string())
        } else {
            executed
                .zip(&wanted)
                .try_for_each(|(got, want)| same_result("traced cell", got, want))
                .and_then(|()| {
                    dealt
                        .zip(&wanted)
                        .try_for_each(|(got, want)| same_result("counted cell", got, want))
                })
        };
        tally.record(&format!("traced job {job}"), reproduced);
        for (_, results) in &traced.lists {
            for (_, c) in results {
                all_counts.acts += c.acts;
                all_counts.activate += c.activate;
                all_counts.repeat += c.repeat;
                all_counts.refresh_row += c.refresh_row;
                all_counts.refresh_all += c.refresh_all;
            }
        }

        match layer_pass(&tr, job, &traced, kernel) {
            Ok(cells) => {
                layers.extend(cells);
                tally.record(&format!("layer pass {job}"), Ok(()));
            }
            Err(e) => tally.record(&format!("layer pass {job}"), Err(e)),
        }

        // The wire codec, per result: encode, parse, decode, compare.
        let started = Instant::now();
        let decoded: Result<Vec<RunResult>, String> = wanted
            .iter()
            .map(|r| result_from_value(&proto::parse(&result_to_json(r))?))
            .collect();
        codec_secs += started.elapsed().as_secs_f64();
        codec_results += wanted.len() as u64;
        tally.record(
            &format!("result codec {job}"),
            decoded.and_then(|back| {
                back.iter()
                    .zip(&wanted)
                    .try_for_each(|(got, want)| same_result("codec round trip", got, want))
            }),
        );
        served_jobs.push((job, cfg, doc, untraced_s));
    }
    let cells = crate::pipeline::cells_per_job(&served_jobs[0].1)?;
    let serve = traced_serve(&tr, w, rh_cli, &served_jobs, cells, &mut tally)?;

    let spans = tr.spans();
    if let Some(path) = spans_out {
        std::fs::write(path, spans_jsonl(&spans))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let metrics = layer_metrics(
        &spans,
        &layers,
        all_counts,
        &serve,
        w.traced_jobs(),
        LayerExtras {
            overhead_s: median(&overhead),
            render_bytes: median(&render_bytes),
            codec_ns: codec_secs * 1e9 / codec_results.max(1) as f64,
        },
    )?;
    let notes = reconciliation(&spans, &layers);
    let activations = served_jobs[0].1.activations;
    Ok(Run {
        metrics,
        tally,
        jobs: w.traced_jobs(),
        cells,
        activations,
        notes,
    })
}

/// Measurements of a traced run that do not come from spans.
struct LayerExtras {
    overhead_s: f64,
    render_bytes: f64,
    codec_ns: f64,
}

/// Per-family sums over the layer pass: activations, mitigation actions,
/// and the seconds of each layer span.
#[derive(Default, Clone, Copy)]
struct FamilySums {
    acts: u64,
    actions: u64,
    engine: f64,
    fill: f64,
    observe: f64,
    device: f64,
}

/// One family's `run_experiment` time split into layers, ns/act.
struct Split {
    total: f64,
    workload: f64,
    mitigation: f64,
    device: f64,
    /// The total minus the three layers above: coalescer bookkeeping plus
    /// whatever the layers cost together beyond their cost alone.
    engine_self: f64,
}

impl FamilySums {
    fn split(&self) -> Split {
        let ns = |secs| ns_per(secs, self.acts);
        let (total, workload, device) = (ns(self.engine), ns(self.fill), ns(self.device));
        let mitigation = ns(self.observe - self.fill);
        Split {
            total,
            workload,
            mitigation,
            device,
            engine_self: total - workload - mitigation - device,
        }
    }
}

fn family_sums(spans: &[Span], layers: &[CellLayers]) -> BTreeMap<&'static str, FamilySums> {
    let mut sums: BTreeMap<&'static str, FamilySums> = BTreeMap::new();
    for cell in layers {
        let s = sums.entry(cell.family).or_default();
        s.acts += cell.acts;
        s.actions += cell.actions;
    }
    for span in spans {
        let Some(parent) = span.parent else { continue };
        let owner = &spans[parent];
        if owner.name != "layers" {
            continue;
        }
        let s = sums.entry(owner.family).or_default();
        match span.name {
            "engine" => s.engine += span.secs(),
            "fill" => s.fill += span.secs(),
            "observe" => s.observe += span.secs(),
            "device" => s.device += span.secs(),
            _ => {}
        }
    }
    sums
}

fn layer_metrics(
    spans: &[Span],
    layers: &[CellLayers],
    counts: Counts,
    serve: &ServeStats,
    jobs: u64,
    extras: LayerExtras,
) -> Result<Vec<Metric>, String> {
    let per_job = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum::<f64>()
            / jobs as f64
    };
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64 / jobs as f64;
    let exec = per_job("execute");
    let cell = per_job("cell");
    let sums = family_sums(spans, layers);
    let all_acts: u64 = layers.iter().map(|c| c.acts).sum();
    let all_fill: f64 = sums.values().map(|s| s.fill).sum();

    let mut m = vec![
        Metric::new("plan.s", "s", per_job("plan")),
        Metric::new("tables.build_s", "s", per_job("tables")),
        Metric::new("tables.count", "count", count("tables")),
        Metric::new("exec.s", "s", exec),
        Metric::new("exec.balance", "ratio", cell / (PARALLELISM as f64 * exec)),
        Metric::new("render.s", "s", per_job("render")),
        Metric::new("render.bytes", "bytes", extras.render_bytes),
        Metric::new("workload.ns_per_act", "ns", ns_per(all_fill, all_acts)),
    ];
    for fam in FAMILIES {
        let s = sums
            .get(fam)
            .copied()
            .ok_or_else(|| format!("no cell of the {fam} family was traced"))?;
        let split = s.split();
        m.extend([
            Metric::new(
                format!("mitigation.{fam}.ns_per_act"),
                "ns",
                split.mitigation,
            ),
            Metric::new(
                format!("mitigation.{fam}.refresh_per_kact"),
                "1/kact",
                s.actions as f64 * 1000.0 / s.acts as f64,
            ),
            Metric::new(format!("device.{fam}.ns_per_act"), "ns", split.device),
            Metric::new(
                format!("engine.{fam}.self_ns_per_act"),
                "ns",
                split.engine_self,
            ),
        ]);
    }
    m.extend([
        Metric::new(
            "engine.acts_per_device_call",
            "ratio",
            counts.acts as f64 / (counts.activate + counts.repeat).max(1) as f64,
        ),
        Metric::new(
            "engine.bypass_frac",
            "ratio",
            counts.activate as f64 / counts.acts.max(1) as f64,
        ),
        Metric::new("serve.start_s", "s", median(&serve.starts)),
        Metric::new("serve.queue_wait_ms", "ms", mean(&serve.queue_wait_ms)?),
        Metric::new(
            "serve.busiest_worker_share",
            "ratio",
            mean(&serve.busiest_share)?,
        ),
        Metric::new("serve.overhead_s", "s", mean(&serve.overhead_s)?),
        Metric::new("serve.speculations", "count", serve.speculations as f64),
        Metric::new(
            "serve.duplicate_cells",
            "count",
            serve.duplicate_cells as f64,
        ),
        Metric::new(
            "proto.envelope_decode_s",
            "s",
            spans
                .iter()
                .filter(|s| s.name == "decode")
                .map(Span::secs)
                .sum::<f64>()
                / serve.envelope_bytes.len().max(1) as f64,
        ),
        Metric::new(
            "proto.envelope_bytes",
            "bytes",
            mean(&serve.envelope_bytes)?,
        ),
        Metric::new("proto.result_codec_ns", "ns", extras.codec_ns),
        Metric::new("trace.overhead_s", "s", extras.overhead_s),
    ]);
    Ok(m)
}

fn mean(values: &[f64]) -> Result<f64, String> {
    if values.is_empty() {
        return Err("no traced serve job succeeded".to_string());
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// Per family, and over all cells: the measured `run_experiment` total
/// against workload + mitigation + device + engine self time. Engine self
/// is the remainder, reported as measured: a negative one means the layers
/// timed alone took longer than inside the engine.
fn reconciliation(spans: &[Span], layers: &[CellLayers]) -> Vec<String> {
    let sums = family_sums(spans, layers);
    let all = sums
        .values()
        .fold(FamilySums::default(), |a, s| FamilySums {
            acts: a.acts + s.acts,
            actions: a.actions + s.actions,
            engine: a.engine + s.engine,
            fill: a.fill + s.fill,
            observe: a.observe + s.observe,
            device: a.device + s.device,
        });
    let sign = |x: f64| if x < 0.0 { " (NEGATIVE)" } else { "" };
    FAMILIES
        .iter()
        .filter_map(|fam| sums.get(fam).map(|s| (*fam, s.split())))
        .chain([("all", all.split())])
        .map(|(fam, s)| {
            format!(
                "reconcile {fam}: run_experiment {:.2} ns/act = workload {:.2} + mitigation \
                 {:.2} + device {:.2} + engine self {:.2}{}",
                s.total,
                s.workload,
                s.mitigation,
                s.device,
                s.engine_self,
                sign(s.engine_self),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let at = Duration::from_millis;
        let span = |name, parent, start, end| Span {
            name,
            job: 0,
            parent,
            family: "",
            start: at(start),
            end: at(end),
        };
        let spans = vec![
            span("job", None, 0, 100),
            span("plan", Some(0), 0, 10),
            span("execute", Some(0), 10, 90),
            span("cell", Some(2), 10, 50),
        ];
        let own = self_times(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(own[0], 0.010), "{own:?}");
        assert!(close(own[2], 0.040), "{own:?}");
        assert!(close(own[3], 0.040), "{own:?}");
    }

    #[test]
    fn chunks_match_the_engine_clipping() {
        let mut seen = Vec::new();
        for_each_chunk(2500, 1500, |n, closes| seen.push((n, closes)));
        assert_eq!(
            seen,
            vec![(1024, false), (476, true), (1000, false)],
            "chunks clip at the 1500-activation window end"
        );
        let mut total = 0;
        for_each_chunk(5000, 0, |n, closes| {
            assert!(!closes);
            total += n;
        });
        assert_eq!(total, 5000);
    }

    #[test]
    fn families_come_from_mitigation_names() {
        assert_eq!(family("para(p=0.004)"), "para");
        assert_eq!(family("none"), "none");
        assert_eq!(family("refresh(interval=1000)"), "refresh");
        assert_eq!(family("blockhammer(k=1)"), "other");
    }

    /// The tap changes nothing the engine computes, and its recording
    /// replays to the same device state.
    #[test]
    fn tapped_and_replayed_cells_match_the_plain_engine() {
        let cfg = SweepConfig {
            activations: 20_000,
            hc_firsts: vec![300],
            sides: vec![4],
            geometry: Geometry::tiny(256),
            ..SweepConfig::default()
        };
        let plan = SweepPlan::from_config(&cfg).expect("valid tiny plan");
        let kernel = Kernel::auto();
        for cell in &plan.grid {
            let tables = DeviceTables::shared(
                cfg.geometry,
                cell_params(&plan.config, cell),
                cell.seeds.device,
            )
            .expect("tiny tables");
            let mut device = DeviceState::with_tables_and_kernel(tables.clone(), kernel);
            let (mut w, mut m) = build(&plan, cell);
            let plain = run_experiment(
                &mut device,
                &mut w,
                &mut m,
                cell.activations,
                cell.auto_refresh_interval,
                &mut EngineScratch::new(),
            );
            let mut log = Vec::new();
            device.reset_for_cell(tables.clone());
            let (mut w, mut m) = build(&plan, cell);
            let mut tap = Tap::new(&mut device, Some(&mut log));
            let tapped = run_experiment(
                &mut tap,
                &mut w,
                &mut m,
                cell.activations,
                cell.auto_refresh_interval,
                &mut EngineScratch::new(),
            );
            let counts = tap.counts;
            assert_eq!(counts.acts, cell.activations);
            same_result("tapped", &tapped, &plain).expect("tap is transparent");
            device.reset_for_cell(tables);
            replay(&mut device, &log);
            assert_eq!(device.total_flips(), plain.total_flips);
            assert_eq!(device.refreshes_issued(), plain.refreshes_issued);
        }
    }
}
