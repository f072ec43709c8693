//! Cell execution: fold a plan's cells into engine passes, run them across
//! worker threads, and merge results back into plan order.
//!
//! Cells are embarrassingly parallel — each one materializes its own
//! workload and mitigation from plain specs and seeds — but many of them
//! share a trajectory, along two axes:
//!
//! * **`HC_first`.** Cells that differ only in `hc_first`, under a
//!   mitigation that does not read it
//!   ([`reads_hc_first`](rh_mitigations::MitigationSpec::reads_hc_first):
//!   no mitigation, PARA, TRR), drive the identical activation and refresh
//!   stream into devices that differ only in their thresholds: the
//!   workload, mitigation and device seeds do not depend on `HC_first`
//!   (see [`crate::plan`]). One device run at the lowest `HC_first` derives
//!   every other member's flips from its per-row peak charges
//!   ([`DeviceState::flips_under`], whose docs carry the exactness
//!   argument); the other result fields do not depend on `HC_first`.
//! * **Data pattern.** The engine's calls on a device depend on the
//!   workload stream, the mitigation's actions and the run-slot class
//!   table, and nothing else: a mitigation sees only addresses, the
//!   workload seed ignores the pattern, and the class table reads only the
//!   device's geometry and commuting-spacings table
//!   ([`VictimModelParams::commute_spacings`], `[T, F, T, F, T]` for all
//!   four patterns). So cells that differ only in their data pattern (and
//!   `HC_first`, as above) receive identical calls. The first pattern's
//!   device runs the engine and logs those calls into a [`CallLog`]; every
//!   other pattern's device is reset, replays the log
//!   ([`DeviceState::replay`], which refuses a device whose geometry, blast
//!   radius or commuting table differs) and derives its own `HC_first`
//!   members from its own peak record.
//!
//! `units` groups cells into **units**, one engine pass each: every cell
//! with the same workload, mitigation, activations, refresh interval,
//! seeds and commuting table joins one unit, across data patterns, and
//! across `HC_first` too unless the mitigation reads it. A unit is a list
//! of device groups, one per data pattern in list order, each lowest
//! `HC_first` first; a unit of one group records nothing. On the default
//! job (one pattern) the fold turns 124 cells into 69 engine passes of one
//! device each; on the DDR4 reference grid (two patterns) 91 cells into 27
//! engine passes and 54 device simulations. `units` finds a cell's unit
//! through a hash of what the fold compares, so folding is linear in the
//! list, whatever its length.
//!
//! A log stops recording past [`CallLog::CAP_WORDS`] (4 MiB; a
//! 1M-activation DDR4-grid cell logs at most about 0.55M words). A unit
//! whose log stopped runs its other patterns' engine passes itself, which
//! is exact too, so the cap bounds each thread's memory and never a result.
//!
//! Units are the executor's work items. Each thread claims the next unit
//! from a shared cursor until none is left, so the threads stay busy to
//! the end whatever the units cost, and returns its `(position, result)`
//! pairs when it joins; the merge then places every result in its cell's
//! slot. Results land in plan order regardless of scheduling, so
//! `--threads 1` and `--threads N` produce identical results, which the
//! integration tests and the CI determinism job assert byte-for-byte on
//! the JSON.
//!
//! A served job runs the same code a lease at a time: `run_lease` re-plans
//! the job's config, checks the leased positions against the sweep's one
//! cell list (`sweep::sweep_cells`), folds the leased cells, builds their
//! tables and hands back each unit's `(position, result)` pairs as it
//! finishes. The worker process ([`crate::worker`]) streams them over the
//! wire, checking for a `cancel` between units, and the coordinator's
//! in-process fallback merges them directly.
//!
//! Hot-path amortization across cells:
//!
//! * **Shared device tables**: the immutable seed-derived tables
//!   ([`DeviceTables`]) are derived once per distinct `(hc_first, data
//!   pattern, device seed)` up front and `Arc`-shared with every worker —
//!   the sweep's common-random-number structure means all cells at one
//!   `HC_first` and pattern share one table set. A set's one per-row slab
//!   (orientation and charged cells, 4 bytes per row) depends on the
//!   pattern and the seed only, so it is built once per `(data pattern,
//!   device seed)` and every `HC_first`'s set of that pattern is derived
//!   from it in O(1) ([`DeviceTables::with_params`]); no set stores
//!   thresholds, which are computed from each row's draw where they are
//!   read. One slab on the default grid, two on the DDR4 reference grid,
//!   and at most two in any lease of it. Only each device group's first
//!   member needs tables: the derived members' thresholds are computed
//!   from their rows' draws, for the few rows that settled, so a list of
//!   units spanning the `HC_first` axis needs no table set for the values
//!   it only derives.
//! * **Per-worker device reuse**: each worker owns one [`DeviceState`], one
//!   [`EngineScratch`] and one call-log buffer for every unit it runs.
//!   Between simulations the device is reset, not rebuilt: `reset_for_cell`
//!   bumps its epoch, which retires every charge the previous cell wrote,
//!   and clears its per-row flip counters and its peak record; its
//!   charge/epoch slabs are reallocated only when the row count changes.

use crate::engine::{run_experiment, EngineScratch, RunResult};
use crate::plan::{CellSeeds, CellSpec, SweepPlan, BLAST_RADIUS};
use crate::sweep::{sweep_cells, SweepConfig};
use rh_core::{CallLog, DataPattern, DeviceState, DeviceTables, Kernel, VictimModelParams};
use rh_mitigations::MitigationSpec;
use rh_workloads::WorkloadSpec;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::mem::Discriminant;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared immutable tables per distinct `(hc_first, data_pattern,
/// device_seed)` device. The per-row slab inside (orientation and charged
/// cells, 4 bytes per row) depends on the pattern and the seed only, so
/// [`build_table_cache`] builds it once per `(data_pattern, device_seed)`
/// and derives every `HC_first`'s set from it in O(1)
/// ([`DeviceTables::with_params`]); the sets of one pattern and seed share
/// it.
pub(crate) type TableCache = BTreeMap<(u64, DataPattern, u64), Arc<DeviceTables>>;

fn table_key(cell: &CellSpec) -> (u64, DataPattern, u64) {
    (cell.hc_first, cell.data_pattern, cell.seeds.device)
}

/// One engine pass: positions in the folded list, one group per device
/// (data pattern), each group lowest `HC_first` first. The first group's
/// first member runs the engine; every other group's first member replays
/// its calls; the rest are derived from their group's peak record.
pub(crate) type Unit = Vec<Vec<usize>>;

/// The victim-model parameters one cell simulates: the sweep's `HC_first`
/// point plus the cell's Section 5 axes (data pattern from the cell, ECC
/// from the sweep-wide config). The one place the executor turns specs
/// into device parameters: every table set in the cache, and so every
/// worker's device, is built from here.
fn cell_params(plan: &SweepPlan, cell: &CellSpec) -> VictimModelParams {
    VictimModelParams {
        data_pattern: cell.data_pattern,
        ecc_codeword_bits: plan.config.ecc_codeword_bits,
        ..VictimModelParams::with_hc_first(cell.hc_first)
    }
}

/// The commuting-spacings table of a cell's device, the one thing besides
/// the sweep-wide geometry that the engine reads of a device. ECC, the
/// only parameter [`cell_params`] adds, does not enter it.
fn commute_spacings(cell: &CellSpec) -> Vec<bool> {
    VictimModelParams {
        data_pattern: cell.data_pattern,
        ..VictimModelParams::with_hc_first(cell.hc_first)
    }
    .commute_spacings()
}

/// Derive the tables the simulations of `units` (of `cells`) read, exactly
/// once each: each device group's first member's. The other members are
/// derived from their group's run and read no tables, so a list of units
/// that spans the `HC_first` axis builds only the table sets its device
/// simulations use. Each `(data_pattern, device_seed)` builds its per-row
/// slab once, with its first set; its other `HC_first` values derive
/// their sets from that one in O(1).
pub(crate) fn build_table_cache(
    plan: &SweepPlan,
    cells: &[CellSpec],
    units: &[Unit],
) -> TableCache {
    let mut cache = TableCache::new();
    let mut slabs: HashMap<(DataPattern, u64), Arc<DeviceTables>> = HashMap::new();
    for cell in units.iter().flatten().map(|group| &cells[group[0]]) {
        cache.entry(table_key(cell)).or_insert_with(|| {
            let params = cell_params(plan, cell);
            match slabs.entry((cell.data_pattern, cell.seeds.device)) {
                Entry::Occupied(slab) => slab.get().with_params(params),
                Entry::Vacant(slot) => {
                    DeviceTables::shared(plan.config.geometry, params, cell.seeds.device)
                        .map(|tables| slot.insert(tables).clone())
                }
            }
            .expect("geometry and victim params are validated at plan time")
        });
    }
    cache
}

/// Whether two cells of one plan receive the identical engine calls:
/// everything but `hc_first` and the data pattern (and the list position)
/// is equal, `hc_first` too if the mitigation reads it, and their devices
/// share a commuting-spacings table (which one pattern always does).
fn same_pass(a: &CellSpec, b: &CellSpec) -> bool {
    a.mitigation == b.mitigation
        && (a.hc_first == b.hc_first || !a.mitigation.reads_hc_first())
        && a.workload == b.workload
        && a.activations == b.activations
        && a.auto_refresh_interval == b.auto_refresh_interval
        && a.seeds == b.seeds
        && (a.data_pattern == b.data_pattern || commute_spacings(a) == commute_spacings(b))
}

/// What [`same_pass`] compares, as a hash key: the mitigation by its
/// variant and PARA's probability by its bits (the one float a spec
/// carries), and `hc_first` only where the mitigation reads it. The
/// commuting table is left to `same_pass`: the four patterns share one.
/// `units` folds only cells that `same_pass` accepts, so the key decides
/// how fast a unit is found, never what it holds.
#[derive(PartialEq, Eq, Hash)]
struct FoldKey {
    mitigation: Discriminant<MitigationSpec>,
    para_probability_bits: u64,
    hc_first: Option<u64>,
    workload: WorkloadSpec,
    activations: u64,
    auto_refresh_interval: u64,
    seeds: CellSeeds,
}

impl FoldKey {
    fn of(cell: &CellSpec) -> Self {
        let para_probability_bits = match cell.mitigation {
            MitigationSpec::Para { probability } => probability.to_bits(),
            _ => 0,
        };
        Self {
            mitigation: std::mem::discriminant(&cell.mitigation),
            para_probability_bits,
            hc_first: cell.mitigation.reads_hc_first().then_some(cell.hc_first),
            workload: cell.workload,
            activations: cell.activations,
            auto_refresh_interval: cell.auto_refresh_interval,
            seeds: cell.seeds,
        }
    }
}

/// Fold `cells` (all of one plan) into units, one engine pass each, ordered
/// by the unit's first cell in the list. A unit holds every cell that
/// [`same_pass`] accepts against its first cell, in one device group per
/// data pattern (in list order), each lowest `hc_first` first (ties in
/// list order). Linear in the list: a cell's unit is found through a hash
/// of what the fold compares, so a list of a million distinct PARA
/// probabilities (none of which fold) costs a million lookups, not a
/// comparison per pair.
pub(crate) fn units<'a>(cells: impl IntoIterator<Item = &'a CellSpec>) -> Vec<Unit> {
    let cells: Vec<&CellSpec> = cells.into_iter().collect();
    let mut units: Vec<Unit> = Vec::new();
    // Per key, the units whose first cell has it (almost always one).
    let mut by_key: HashMap<FoldKey, Vec<usize>> = HashMap::new();
    for (pos, &cell) in cells.iter().enumerate() {
        let candidates = by_key.entry(FoldKey::of(cell)).or_default();
        let joined = candidates
            .iter()
            .find(|&&unit| same_pass(cells[units[unit][0][0]], cell));
        let Some(&unit) = joined else {
            candidates.push(units.len());
            units.push(vec![vec![pos]]);
            continue;
        };
        let groups = &mut units[unit];
        match groups
            .iter_mut()
            .find(|group| cells[group[0]].data_pattern == cell.data_pattern)
        {
            Some(group) => group.push(pos),
            None => groups.push(vec![pos]),
        }
    }
    for group in units.iter_mut().flatten() {
        group.sort_by_key(|&pos| cells[pos].hc_first);
    }
    units
}

/// The device in `slot`, reset for a cell of `tables`, or built there
/// under `kernel` on first use.
fn device_for(
    slot: &mut Option<DeviceState>,
    tables: Arc<DeviceTables>,
    kernel: Kernel,
) -> &mut DeviceState {
    match slot {
        Some(device) => {
            device.reset_for_cell(tables);
            device
        }
        None => slot.insert(DeviceState::with_tables_and_kernel(tables, kernel)),
    }
}

/// One worker's reusable simulation state: a device whose buffers persist
/// across the units this worker executes, the engine scratch (action sink,
/// workload chunk buffer, run slots) and the call log's buffer.
pub(crate) struct Worker {
    device: Option<DeviceState>,
    scratch: EngineScratch,
    /// The log a unit of several device groups records, kept between
    /// units for its buffer; it has no words until one does.
    log: CallLog,
    /// Settle kernel every device this worker builds runs under.
    kernel: Kernel,
}

impl Worker {
    /// A worker whose devices run under `kernel`.
    pub(crate) fn with_kernel(kernel: Kernel) -> Self {
        Self {
            device: None,
            scratch: EngineScratch::new(),
            log: CallLog::new(),
            kernel,
        }
    }

    /// Simulate one cell: build workload + mitigation from specs and seeds,
    /// reuse the worker's device, and with `record` log the device's calls
    /// into the worker's log buffer. The result is a pure function of
    /// `(plan, cell)` — reuse never leaks state between cells
    /// (`reset_for_cell` is asserted equivalent to fresh construction in
    /// rh-core's tests) — and the device is left holding the run's peak
    /// record and, with `record`, the log.
    fn run_cell(
        &mut self,
        plan: &SweepPlan,
        cell: &CellSpec,
        tables: &TableCache,
        record: bool,
    ) -> RunResult {
        let log = record.then(|| std::mem::take(&mut self.log));
        let device = device_for(
            &mut self.device,
            tables[&table_key(cell)].clone(),
            self.kernel,
        );
        if let Some(log) = log {
            device.record_calls(log);
        }
        let mut workload = cell
            .workload
            .build(
                &plan.config.geometry,
                plan.config.benign_fraction,
                cell.seeds.workload,
            )
            .expect("workloads are validated at plan time");
        // MitigationKind, not Box<dyn Mitigation>: the engine monomorphizes
        // over it, so per-activation dispatch is an inlined variant match.
        let mut mitigation = cell.mitigation.build(
            &plan.config.geometry,
            cell.hc_first,
            BLAST_RADIUS,
            cell.seeds.mitigation,
        );
        run_experiment(
            device,
            &mut workload,
            &mut mitigation,
            cell.activations,
            cell.auto_refresh_interval,
            &mut self.scratch,
        )
    }

    /// `cell`'s result from the calls `log` recorded while the engine ran
    /// `simulated` (a cell of the same unit): the worker's device, reset
    /// for `cell`, replays them. Only the device's observables and the
    /// cell's own `HC_first` and pattern differ from `simulated`.
    fn replay_cell(
        &mut self,
        cell: &CellSpec,
        tables: &TableCache,
        log: &CallLog,
        simulated: &RunResult,
    ) -> RunResult {
        let device = device_for(
            &mut self.device,
            tables[&table_key(cell)].clone(),
            self.kernel,
        );
        device
            .replay(log)
            .expect("a unit's devices share geometry, blast radius and commuting spacings");
        RunResult {
            hc_first: cell.hc_first,
            data_pattern: cell.data_pattern.name().to_string(),
            total_flips: device.total_flips(),
            flipped_rows: device.flipped_rows(),
            flips_per_mact: device.flips_per_mact(),
            refreshes_issued: device.refreshes_issued(),
            flips_1to0: device.flips_1to0(),
            flips_0to1: device.flips_0to1(),
            post_ecc_flips: device.post_ecc_flips(),
            ..simulated.clone()
        }
    }

    /// The results of one device group, in `group` order, from its first
    /// member's `result` and the device that produced it: each other
    /// member's flips are derived from the device's peak record at that
    /// member's `HC_first`.
    fn derive_group(
        &self,
        cells: &[CellSpec],
        group: &[usize],
        result: RunResult,
        out: &mut Vec<RunResult>,
    ) {
        let device = self.device.as_ref().expect("the group's device ran");
        out.push(result.clone());
        for &pos in &group[1..] {
            let cell = &cells[pos];
            if cell.hc_first == result.hc_first {
                out.push(result.clone());
                continue;
            }
            let flips = device
                .flips_under(cell.hc_first)
                .expect("a group's first member has its lowest HC_first");
            out.push(RunResult {
                hc_first: cell.hc_first,
                total_flips: flips.total_flips,
                flipped_rows: flips.flipped_rows,
                flips_per_mact: flips.flips_per_mact,
                flips_1to0: flips.flips_1to0,
                flips_0to1: flips.flips_0to1,
                post_ecc_flips: flips.post_ecc_flips,
                ..result.clone()
            });
        }
    }

    /// Run one unit of `units(cells)`: run the engine for its first group's
    /// first cell, logging the device's calls when other groups follow,
    /// then replay the log into each other group's device (or, when the
    /// log outgrew its cap, run that group's engine pass too), deriving
    /// each group's other members from its peak record. `tables` needs only
    /// each group's first member's set ([`build_table_cache`]). Returns one
    /// result per member, in `unit.iter().flatten()` order — each equal,
    /// field for field, to the member simulated alone.
    pub(crate) fn run_unit(
        &mut self,
        plan: &SweepPlan,
        cells: &[CellSpec],
        unit: &[Vec<usize>],
        tables: &TableCache,
    ) -> Vec<RunResult> {
        let mut out = Vec::with_capacity(unit.iter().map(Vec::len).sum());
        let (first, others) = unit.split_first().expect("a unit has a group");
        let simulated = self.run_cell(plan, &cells[first[0]], tables, !others.is_empty());
        self.derive_group(cells, first, simulated.clone(), &mut out);
        if others.is_empty() {
            return out;
        }
        let log = self
            .device
            .as_mut()
            .and_then(DeviceState::take_call_log)
            .expect("the first group recorded");
        for group in others {
            let cell = &cells[group[0]];
            let result = if log.is_complete() {
                self.replay_cell(cell, tables, &log, &simulated)
            } else {
                self.run_cell(plan, cell, tables, false)
            };
            self.derive_group(cells, group, result, &mut out);
        }
        self.log = log;
        out
    }
}

/// Execute `cells` on up to `threads` workers; results come back merged in
/// cell order regardless of which worker ran what.
pub fn execute_cells(plan: &SweepPlan, cells: &[CellSpec], threads: usize) -> Vec<RunResult> {
    execute_cells_with_kernel(plan, cells, threads, Kernel::auto())
}

/// [`execute_cells`] with the settle kernel pinned. The kernel can never
/// affect results — only throughput — so every kernel produces the
/// identical result vector.
pub fn execute_cells_with_kernel(
    plan: &SweepPlan,
    cells: &[CellSpec],
    threads: usize,
    kernel: Kernel,
) -> Vec<RunResult> {
    let units = units(cells);
    let tables = build_table_cache(plan, cells, &units);
    let threads = threads.max(1).min(units.len().max(1));
    // Each thread claims units from the cursor and keeps its results with
    // their positions; the merge below fills every slot exactly once.
    let next = AtomicUsize::new(0);
    let run = || {
        let mut worker = Worker::with_kernel(kernel);
        let mut done = Vec::new();
        while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
            let results = worker.run_unit(plan, cells, unit, &tables);
            done.extend(unit.iter().flatten().copied().zip(results));
        }
        done
    };
    let done: Vec<Vec<(usize, RunResult)>> = if threads == 1 {
        vec![run()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(run)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("executor thread panicked"))
                .collect()
        })
    };
    let mut results: Vec<Option<RunResult>> = vec![None; cells.len()];
    for (pos, result) in done.into_iter().flatten() {
        results[pos] = Some(result);
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every cell executed exactly once"))
        .collect()
}

/// Run one lease of a served job: the cells at `positions` of
/// [`sweep_cells`] of `config`'s plan, folded into units. Re-plans the
/// config, refuses a position past the end of the list, and builds the
/// tables of the leased units' simulated cells before returning; each
/// `next` then simulates one unit and yields its members' positions with
/// their results. The caller decides between units whether to go on, so a
/// lease can be abandoned mid-way.
pub(crate) fn run_lease(
    config: &SweepConfig,
    positions: &[usize],
) -> Result<impl Iterator<Item = Vec<(usize, RunResult)>>, String> {
    let plan = SweepPlan::from_config(config)?;
    let list = sweep_cells(&plan);
    if let Some(&bad) = positions.iter().find(|&&i| i >= list.len()) {
        return Err(format!(
            "shard index {bad} out of bounds for a job of {} cells",
            list.len()
        ));
    }
    let cells: Vec<CellSpec> = positions.iter().map(|&i| list[i].clone()).collect();
    let units = units(&cells);
    let tables = build_table_cache(&plan, &cells, &units);
    let positions = positions.to_vec();
    let mut worker = Worker::with_kernel(Kernel::auto());
    Ok(units.into_iter().map(move |unit| {
        let results = worker.run_unit(&plan, &cells, &unit, &tables);
        unit.into_iter()
            .flatten()
            .map(|i| positions[i])
            .zip(results)
            .collect()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::GRID_PARA_P;
    use crate::sweep::ddr4_reference;
    use rh_core::Geometry;

    fn tiny_plan() -> SweepPlan {
        let cfg = SweepConfig {
            activations: 3_000,
            hc_firsts: vec![500, 1000],
            sides: vec![4],
            geometry: rh_core::Geometry::tiny(64),
            ..SweepConfig::default()
        };
        SweepPlan::from_config(&cfg).unwrap()
    }

    fn flat(results: &[RunResult]) -> Vec<(String, String, u64, u64)> {
        results
            .iter()
            .map(|r| {
                (
                    r.workload.clone(),
                    r.mitigation.clone(),
                    r.total_flips,
                    r.refreshes_issued,
                )
            })
            .collect()
    }

    #[test]
    fn sharded_execution_matches_serial_in_order() {
        let plan = tiny_plan();
        let serial = execute_cells(&plan, &plan.grid, 1);
        for threads in [2, 3, 8] {
            let sharded = execute_cells(&plan, &plan.grid, threads);
            assert_eq!(flat(&serial), flat(&sharded), "threads={threads}");
        }
    }

    #[test]
    fn pinned_kernels_produce_identical_results() {
        let plan = tiny_plan();
        let auto = execute_cells(&plan, &plan.grid, 2);
        let scalar = execute_cells_with_kernel(&plan, &plan.grid, 2, Kernel::Scalar);
        assert_eq!(flat(&auto), flat(&scalar));
        if rh_core::avx2_available() {
            let avx2 = execute_cells_with_kernel(&plan, &plan.grid, 2, Kernel::Avx2);
            assert_eq!(flat(&auto), flat(&avx2));
        }
    }

    /// Each cell of `cells` as a unit of its own: the tables to simulate
    /// every cell alone.
    fn alone(cells: &[CellSpec]) -> Vec<Unit> {
        (0..cells.len()).map(|pos| vec![vec![pos]]).collect()
    }

    /// The per-row slabs a table cache holds: its sets, less each that
    /// shares its slab with an earlier one.
    fn slabs(cache: &TableCache) -> usize {
        let sets: Vec<&Arc<DeviceTables>> = cache.values().collect();
        (0..sets.len())
            .filter(|&i| !sets[..i].iter().any(|set| set.shares_rows_with(sets[i])))
            .count()
    }

    #[test]
    fn table_cache_is_shared_per_device_not_per_cell() {
        let plan = tiny_plan();
        let tables = build_table_cache(&plan, &plan.grid, &units(&plan.grid));
        // 2 hc_first values × 1 pattern × 1 shared device seed — far fewer
        // than cells — over one per-row slab.
        assert_eq!(tables.len(), 2);
        assert_eq!(slabs(&tables), 1);
        assert!(plan.grid.len() > tables.len());
    }

    #[test]
    fn table_cache_keys_distinguish_data_patterns() {
        let cfg = SweepConfig {
            activations: 1_000,
            hc_firsts: vec![500],
            sides: vec![4],
            data_patterns: vec![
                rh_core::DataPattern::Legacy,
                rh_core::DataPattern::RowStripe,
            ],
            geometry: rh_core::Geometry::tiny(64),
            ..SweepConfig::default()
        };
        let plan = SweepPlan::from_config(&cfg).unwrap();
        let tables = build_table_cache(&plan, &plan.grid, &alone(&plan.grid));
        // 1 hc × 2 patterns: pattern-scaled attenuation/budgets must not be
        // shared across patterns.
        assert_eq!(tables.len(), 2);
        assert_eq!(slabs(&tables), 2);
        let results = execute_cells(&plan, &plan.grid, 2);
        assert_eq!(results.len(), plan.grid.len());
    }

    #[test]
    fn worker_reuse_matches_fresh_workers() {
        // Serial path reuses ONE worker for every cell; per-cell fresh
        // workers must agree, proving reset_for_cell leaks nothing.
        let plan = tiny_plan();
        let tables = build_table_cache(&plan, &plan.grid, &alone(&plan.grid));
        let reused = execute_cells(&plan, &plan.grid, 1);
        let fresh: Vec<RunResult> = plan
            .grid
            .iter()
            .map(|cell| Worker::with_kernel(Kernel::auto()).run_cell(&plan, cell, &tables, false))
            .collect();
        assert_eq!(flat(&reused), flat(&fresh));
    }

    /// Every field of two results, `flips_per_mact` by its bits.
    fn assert_same_result(a: &RunResult, b: &RunResult, what: &str) {
        let RunResult {
            workload,
            mitigation,
            hc_first,
            data_pattern,
            activations,
            total_flips,
            flipped_rows,
            flips_per_mact,
            refreshes_issued,
            flips_1to0,
            flips_0to1,
            post_ecc_flips,
        } = a;
        assert_eq!(workload, &b.workload, "{what}");
        assert_eq!(mitigation, &b.mitigation, "{what}");
        assert_eq!(*hc_first, b.hc_first, "{what}");
        assert_eq!(data_pattern, &b.data_pattern, "{what}");
        assert_eq!(*activations, b.activations, "{what}");
        assert_eq!(*total_flips, b.total_flips, "{what}");
        assert_eq!(*flipped_rows, b.flipped_rows, "{what}");
        assert_eq!(
            flips_per_mact.to_bits(),
            b.flips_per_mact.to_bits(),
            "{what}"
        );
        assert_eq!(*refreshes_issued, b.refreshes_issued, "{what}");
        assert_eq!(*flips_1to0, b.flips_1to0, "{what}");
        assert_eq!(*flips_0to1, b.flips_0to1, "{what}");
        assert_eq!(*post_ecc_flips, b.post_ecc_flips, "{what}");
    }

    /// FNV-1a over the bits of every row's charge on `worker`'s device, in
    /// flat row order: what no result field shows of a run.
    fn charge_digest(worker: &Worker) -> u64 {
        let device = worker.device.as_ref().expect("the worker ran a cell");
        let g = *device.geometry();
        let mut bytes = Vec::new();
        for channel in 0..g.channels {
            for rank in 0..g.ranks {
                for bank in 0..g.banks {
                    for row in 0..g.rows_per_bank {
                        let addr = rh_core::RowAddr {
                            channel,
                            rank,
                            bank,
                            row,
                        };
                        bytes.extend(device.charge_of(addr).to_bits().to_le_bytes());
                    }
                }
            }
        }
        crate::proto::fnv1a64(&bytes)
    }

    /// Run every unit of `cells` on one worker whose call log stops past
    /// `cap` words, and every cell alone on a fresh worker; every result
    /// must agree field for field, and after each unit the worker's device
    /// must hold, bit for bit, the charges its last group's first cell
    /// leaves alone on a fresh worker (replayed or run, that device is the
    /// last one the unit drove). Returns the folded results, and whether
    /// any unit's log was complete and any stopped at the cap.
    fn fold_against_alone(
        plan: &SweepPlan,
        cells: &[CellSpec],
        cap: usize,
        what: &str,
    ) -> (Vec<RunResult>, bool, bool) {
        let units = units(cells);
        let tables = build_table_cache(plan, cells, &units);
        let alone_tables = build_table_cache(plan, cells, &alone(cells));
        let mut worker = Worker::with_kernel(Kernel::auto());
        worker.log = CallLog::with_cap(cap);
        let (mut replayed, mut stopped) = (false, false);
        let mut folded: Vec<Option<RunResult>> = vec![None; cells.len()];
        for unit in &units {
            let results = worker.run_unit(plan, cells, unit, &tables);
            for (&pos, result) in unit.iter().flatten().zip(results) {
                folded[pos] = Some(result);
            }
            if unit.len() > 1 {
                replayed |= worker.log.is_complete();
                stopped |= !worker.log.is_complete();
            }
            let last = unit.last().expect("a unit has a group")[0];
            let mut fresh = Worker::with_kernel(Kernel::auto());
            fresh.run_cell(plan, &cells[last], &alone_tables, false);
            assert_eq!(
                charge_digest(&worker),
                charge_digest(&fresh),
                "{what}: charges after the unit ending with cell {last}"
            );
        }
        let folded: Vec<RunResult> = folded.into_iter().map(Option::unwrap).collect();
        for (i, (cell, got)) in cells.iter().zip(&folded).enumerate() {
            let alone =
                Worker::with_kernel(Kernel::auto()).run_cell(plan, cell, &alone_tables, false);
            assert_same_result(got, &alone, &format!("{what}, cell {i}"));
        }
        (folded, replayed, stopped)
    }

    /// The fold's exactness bar: every cell's folded result equals the
    /// same cell simulated alone on a fresh device, field for field, and
    /// after each unit the device holds the charges its last cell leaves
    /// alone — at benign fractions 0.25 and 1.0, with ECC off and on, over
    /// three data patterns (replayed from the first one's call log, and
    /// with a log too small for any unit, run pass by pass) and an unsorted
    /// `HC_first` axis whose lowest value flips rows the next one does not.
    /// The charges are what shows a replay of calls another device's
    /// engine would not have issued: reordered runs move charges by ulps
    /// that no flip count in these configs reveals.
    #[test]
    fn folded_units_match_each_cell_simulated_alone() {
        for benign_fraction in [0.25, 1.0] {
            for ecc_codeword_bits in [0, 128] {
                let cfg = SweepConfig {
                    activations: 6_000,
                    hc_firsts: vec![60, 40, 90, 2_000],
                    sides: vec![4],
                    para_probabilities: vec![0.0, GRID_PARA_P],
                    // Solid records: its calls replay into the other two.
                    data_patterns: vec![
                        DataPattern::Solid,
                        DataPattern::Legacy,
                        DataPattern::RowStripe,
                    ],
                    ecc_codeword_bits,
                    benign_fraction,
                    auto_refresh_interval: 2_500,
                    geometry: Geometry {
                        banks: 2,
                        ..Geometry::tiny(64)
                    },
                    ..SweepConfig::default()
                };
                let what = format!("benign {benign_fraction} ecc {ecc_codeword_bits}");
                let plan = SweepPlan::from_config(&cfg).unwrap();
                let cells = sweep_cells(&plan);
                let (folded, replayed, stopped) =
                    fold_against_alone(&plan, &cells, CallLog::CAP_WORDS, &what);
                assert!(replayed && !stopped, "{what}: every unit must replay");
                let (_, replayed, stopped) = fold_against_alone(&plan, &cells, 8, &what);
                assert!(
                    stopped && !replayed,
                    "{what}: every log must stop at the cap"
                );
                assert_eq!(
                    flat(&execute_cells(&plan, &cells, 2)),
                    flat(&folded),
                    "{what}"
                );
                let units = units(&cells);
                assert!(units.len() < cells.len(), "{what}: nothing folded");
                assert!(
                    units.iter().flatten().any(|g| g.len() > 1
                        && folded[g[0]].total_flips > folded[g[1]].total_flips
                        && folded[g[1]].total_flips > 0),
                    "{what}: no group flips rows only at its lowest HC_first"
                );
            }
        }
    }

    /// The fold's work, pinned as engine passes and device simulations:
    /// the default job's 124 cells run as 69 of each (the none, PARA and
    /// TRR cells of each workload fold their four `HC_first` values into
    /// one, and the PARA sweep's 0.004 cell joins its grid twin); the DDR4
    /// grid's 91 as 27 engine passes, whose logs replay into the rowstripe
    /// device, for 54 device simulations.
    #[test]
    fn the_fold_pins_the_simulation_count() {
        for (cfg, cells, passes, devices) in [
            (SweepConfig::default(), 124, 69, 69),
            (ddr4_reference(), 91, 27, 54),
        ] {
            let plan = SweepPlan::from_config(&cfg).unwrap();
            let list = sweep_cells(&plan);
            assert_eq!(list.len(), cells);
            let units = units(&list);
            assert_eq!(units.len(), passes, "{cells}-cell job");
            assert_eq!(units.iter().map(Vec::len).sum::<usize>(), devices);
        }
    }

    /// Cells that differ only in their data pattern share a unit, one
    /// device group per pattern: the four patterns' devices commute alike,
    /// which `same_pass` checks (and `DeviceState::replay` again, refusing
    /// a device whose table differs).
    #[test]
    fn patterns_fold_where_commuting_tables_agree() {
        let cfg = SweepConfig {
            data_patterns: vec![
                DataPattern::Legacy,
                DataPattern::Solid,
                DataPattern::Checkerboard,
                DataPattern::RowStripe,
            ],
            ..SweepConfig::default()
        };
        let plan = SweepPlan::from_config(&cfg).unwrap();
        // The grid runs `HC_first`, then pattern, then workload × mitigation.
        let stride = plan.grid.len() / (plan.config.hc_firsts.len() * 4);
        let cells: Vec<CellSpec> = (0..4).map(|p| plan.grid[p * stride].clone()).collect();
        assert!(cells.iter().all(|c| same_pass(&cells[0], c)));
        assert!(cells
            .iter()
            .all(|c| commute_spacings(c) == vec![true, false, true, false, true]));
        assert_eq!(
            units(&cells),
            vec![vec![vec![0], vec![1], vec![2], vec![3]]]
        );
    }

    /// One executor pass per sweep derives each distinct `(HC_first,
    /// pattern, device seed)` table set its simulations read once, the
    /// PARA sweep's included: 4 on the default grid, 6 on the DDR4
    /// reference grid; and it builds one per-row slab per pattern and
    /// seed: 1 and 2. A unit's derived members read none, so the cells
    /// that fold (none, PARA, TRR) need only their lowest `HC_first`'s
    /// set per pattern: 1 and 2.
    #[test]
    fn one_sweep_pass_builds_each_table_set_once() {
        for (cfg, distinct, built, folding_sets) in [
            (SweepConfig::default(), 4, 1, 1),
            (ddr4_reference(), 6, 2, 2),
        ] {
            let plan = SweepPlan::from_config(&cfg).unwrap();
            let cells = sweep_cells(&plan);
            let tables = build_table_cache(&plan, &cells, &units(&cells));
            assert_eq!(tables.len(), distinct);
            assert_eq!(slabs(&tables), built);
            let folding: Vec<CellSpec> = cells
                .into_iter()
                .filter(|cell| !cell.mitigation.reads_hc_first())
                .collect();
            let tables = build_table_cache(&plan, &folding, &units(&folding));
            assert_eq!(tables.len(), folding_sets);
        }
    }

    /// What a served lease builds: 16 consecutive units of the sweep's one
    /// cell list (a full lease) simulate cells of at most two `(HC_first,
    /// pattern)` table sets on the default grid, and of up to all six on
    /// the DDR4 reference grid (each unit there spans both patterns, and
    /// the high-to-low `HC_first` axis puts a lowest-`HC_first` unit among
    /// each value's blocks). Those sets hold one per-row slab per pattern:
    /// at most 1 and 2.
    #[test]
    fn a_full_lease_of_units_builds_few_table_sets() {
        for (cfg, sets, built) in [(SweepConfig::default(), 2, 1), (ddr4_reference(), 6, 2)] {
            let plan = SweepPlan::from_config(&cfg).unwrap();
            let cells = sweep_cells(&plan);
            let units = units(&cells);
            let leases: Vec<TableCache> = units
                .chunks(16)
                .map(|lease| build_table_cache(&plan, &cells, lease))
                .collect();
            assert_eq!(leases.iter().map(BTreeMap::len).max(), Some(sets));
            assert_eq!(leases.iter().map(slabs).max(), Some(built));
        }
    }

    /// `units` is linear in its list: 100,000 PARA cells of distinct
    /// probabilities (none folds with another), each at two `HC_first`
    /// values, fold into 100,000 units of two in well under the 10 s
    /// bound even unoptimized, where a comparison per pair of units (5·10⁹)
    /// would take minutes.
    #[test]
    fn units_folds_a_long_para_axis_in_linear_time() {
        let plan = tiny_plan();
        let base = &plan.para_sweep[0];
        let n = 100_000;
        let cells: Vec<CellSpec> = (0..2 * n)
            .map(|i| CellSpec {
                index: i,
                hc_first: if i < n { 900 } else { 300 },
                mitigation: MitigationSpec::Para {
                    probability: (i % n) as f64 / n as f64,
                },
                ..base.clone()
            })
            .collect();
        let start = std::time::Instant::now();
        let folded = units(&cells);
        let elapsed = start.elapsed();
        assert_eq!(folded.len(), n);
        assert!(folded
            .iter()
            .enumerate()
            .all(|(i, unit)| unit == &vec![vec![i + n, i]]));
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "folding {} cells took {elapsed:?}",
            cells.len()
        );
    }

    #[test]
    fn thread_count_larger_than_cells_is_fine() {
        let plan = tiny_plan();
        let cells = &plan.para_sweep;
        let results = execute_cells(&plan, cells, 64);
        assert_eq!(results.len(), cells.len());
    }

    #[test]
    fn empty_cell_list_yields_empty_results() {
        let plan = tiny_plan();
        assert!(execute_cells(&plan, &[], 4).is_empty());
    }

    /// A worker re-plans its lease through the coordinator's check, so it
    /// refuses a config past the cell cap before expanding it.
    #[test]
    fn a_lease_past_the_cell_cap_is_refused() {
        let config = SweepConfig {
            hc_firsts: (1..=1_200).collect(),
            ..tiny_plan().config
        };
        let err = run_lease(&config, &[0]).err().expect("past the cap");
        assert!(err.contains("(MAX_PLAN_CELLS)"), "{err}");
    }
}
