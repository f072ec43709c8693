//! Cell execution: fold a plan's cells into simulations, run them across
//! worker threads, and merge results back into plan order.
//!
//! Cells are embarrassingly parallel — each one materializes its own
//! workload and mitigation from plain specs and seeds — but many of them
//! share a trajectory. Cells that differ only in `hc_first`, under a
//! mitigation that does not read it
//! ([`reads_hc_first`](rh_mitigations::MitigationSpec::reads_hc_first):
//! no mitigation, PARA, TRR), drive the identical activation and refresh
//! stream into devices that differ only in their thresholds: the workload
//! and mitigation seeds and the device seed do not depend on `HC_first`
//! (see [`crate::plan`]). `units` groups each such set into one **unit**,
//! and the unit runner simulates it once, at its lowest `HC_first`, then
//! derives every other member's flips from the device's per-row peak
//! charges ([`DeviceState::flips_under`], whose docs carry the exactness
//! argument); the other result fields do not depend on `HC_first`.
//! Graphene and increased-refresh cells read it, so each is a unit of its
//! own. On the default job the fold turns 124 cells into 69 simulations,
//! and on the DDR4 reference grid 91 into 54. `units` finds a cell's unit
//! through a hash of what the fold compares, so folding is linear in the
//! list, whatever its length.
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
//!   ([`DeviceTables`]) are built once per distinct `(hc_first, data
//!   pattern, device seed)` up front and `Arc`-shared with every worker —
//!   the sweep's common-random-number structure means all cells at one
//!   `HC_first` and pattern share one table set instead of re-deriving
//!   O(total_rows) thresholds per cell. Only a unit's simulated member
//!   needs tables: the derived members' thresholds are recomputed from
//!   their rows' draws, for the few rows that settled, so a list of units
//!   spanning the `HC_first` axis builds no table set for the values it
//!   only derives.
//! * **Per-worker device reuse**: each worker owns one [`DeviceState`] and
//!   one [`EngineScratch`] for every unit it runs. Between simulations the
//!   device is reset, not rebuilt: `reset_for_cell` bumps its epoch, which
//!   retires every charge the previous cell wrote, and clears its per-row
//!   flip counters and its peak record; its charge/epoch slabs are
//!   reallocated only when the row count changes.

use crate::engine::{run_experiment, EngineScratch, RunResult};
use crate::plan::{CellSeeds, CellSpec, SweepPlan, BLAST_RADIUS};
use crate::sweep::{sweep_cells, SweepConfig};
use rh_core::{DataPattern, DeviceState, DeviceTables, Kernel, VictimModelParams};
use rh_mitigations::MitigationSpec;
use rh_workloads::WorkloadSpec;
use std::collections::{BTreeMap, HashMap};
use std::mem::Discriminant;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared immutable tables per distinct `(hc_first, data_pattern,
/// device_seed)` device — the data pattern is part of the table identity
/// because it scales the precomputed attenuation and the per-row
/// charged-cell budgets. The threshold vector inside is pattern-invariant,
/// so a multi-pattern sweep re-derives it once per pattern; that is a
/// deliberate trade-off (a per-sweep O(total_rows) cost, dwarfed by cell
/// execution) to keep `DeviceTables` a single self-contained `Arc` rather
/// than a two-level sharing structure.
pub(crate) type TableCache = BTreeMap<(u64, DataPattern, u64), Arc<DeviceTables>>;

fn table_key(cell: &CellSpec) -> (u64, DataPattern, u64) {
    (cell.hc_first, cell.data_pattern, cell.seeds.device)
}

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

/// Derive the tables the simulations of `units` (of `cells`) read, exactly
/// once each: each unit's first member's. A unit's other members are
/// derived from that run and read no tables, so a list of units that
/// spans the `HC_first` axis builds only the table sets its simulations
/// use.
pub(crate) fn build_table_cache(
    plan: &SweepPlan,
    cells: &[CellSpec],
    units: &[Vec<usize>],
) -> TableCache {
    let mut cache = TableCache::new();
    for cell in units.iter().map(|unit| &cells[unit[0]]) {
        cache.entry(table_key(cell)).or_insert_with(|| {
            DeviceTables::shared(
                plan.config.geometry,
                cell_params(plan, cell),
                cell.seeds.device,
            )
            .expect("geometry and victim params are validated at plan time")
        });
    }
    cache
}

/// Whether two cells of one plan run the identical activation and refresh
/// stream into devices that differ only in `hc_first`: everything but
/// `hc_first` (and the list position) is equal, and the mitigation does
/// not read `hc_first`.
fn same_but_hc_first(a: &CellSpec, b: &CellSpec) -> bool {
    !a.mitigation.reads_hc_first()
        && a.mitigation == b.mitigation
        && a.data_pattern == b.data_pattern
        && a.workload == b.workload
        && a.activations == b.activations
        && a.auto_refresh_interval == b.auto_refresh_interval
        && a.seeds == b.seeds
}

/// What [`same_but_hc_first`] compares, as a hash key: the mitigation by
/// its variant and PARA's probability by its bits (the one float a spec
/// carries). `units` folds only cells that `same_but_hc_first` accepts, so
/// the key decides how fast a unit is found, never what it holds.
#[derive(PartialEq, Eq, Hash)]
struct FoldKey {
    mitigation: Discriminant<MitigationSpec>,
    para_probability_bits: u64,
    data_pattern: DataPattern,
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
            data_pattern: cell.data_pattern,
            workload: cell.workload,
            activations: cell.activations,
            auto_refresh_interval: cell.auto_refresh_interval,
            seeds: cell.seeds,
        }
    }
}

/// Fold `cells` (all of one plan) into units, each one simulation: lists of
/// positions in `cells`, ordered by the unit's first cell in the list. A
/// unit holds every cell that differs from the others only in `hc_first`
/// under a mitigation that does not read it, lowest `hc_first` first (ties
/// in list order); every other cell is a unit of its own. Linear in the
/// list: a cell's unit is found through a hash of what the fold compares,
/// so a list of a million distinct PARA probabilities (none of which
/// fold) costs a million lookups, not a comparison per pair.
pub(crate) fn units<'a>(cells: impl IntoIterator<Item = &'a CellSpec>) -> Vec<Vec<usize>> {
    let cells: Vec<&CellSpec> = cells.into_iter().collect();
    let mut units: Vec<Vec<usize>> = Vec::new();
    // Per key, the units whose first cell has it (almost always one).
    let mut by_key: HashMap<FoldKey, Vec<usize>> = HashMap::new();
    for (pos, &cell) in cells.iter().enumerate() {
        if cell.mitigation.reads_hc_first() {
            units.push(vec![pos]);
            continue;
        }
        let candidates = by_key.entry(FoldKey::of(cell)).or_default();
        match candidates
            .iter()
            .find(|&&unit| same_but_hc_first(cells[units[unit][0]], cell))
        {
            Some(&unit) => units[unit].push(pos),
            None => {
                candidates.push(units.len());
                units.push(vec![pos]);
            }
        }
    }
    for unit in &mut units {
        unit.sort_by_key(|&pos| cells[pos].hc_first);
    }
    units
}

/// One worker's reusable simulation state: a device whose buffers persist
/// across the units this worker executes, and the engine scratch (action
/// sink, workload chunk buffer, run slots).
pub(crate) struct Worker {
    device: Option<DeviceState>,
    scratch: EngineScratch,
    /// Settle kernel every device this worker builds runs under.
    kernel: Kernel,
}

impl Worker {
    /// A worker whose devices run under `kernel`.
    pub(crate) fn with_kernel(kernel: Kernel) -> Self {
        Self {
            device: None,
            scratch: EngineScratch::new(),
            kernel,
        }
    }

    /// Simulate one cell: build workload + mitigation from specs and seeds,
    /// reuse the worker's device. The result is a pure function of `(plan,
    /// cell)` — reuse never leaks state between cells (`reset_for_cell` is
    /// asserted equivalent to fresh construction in rh-core's tests) — and
    /// the device is left holding the run's peak record.
    fn run_cell(&mut self, plan: &SweepPlan, cell: &CellSpec, tables: &TableCache) -> RunResult {
        let cell_tables = tables[&table_key(cell)].clone();
        let device = match self.device.as_mut() {
            Some(device) => {
                device.reset_for_cell(cell_tables);
                device
            }
            None => self.device.insert(DeviceState::with_tables_and_kernel(
                cell_tables,
                self.kernel,
            )),
        };
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

    /// Run one unit of `units(cells)`: simulate its first cell, then
    /// derive each other member's flips from the device's peak record at
    /// that member's `HC_first`. `tables` needs only the first member's
    /// set ([`build_table_cache`]). Returns one result per member, in
    /// `unit` order — each equal, field for field, to the member simulated
    /// alone.
    pub(crate) fn run_unit(
        &mut self,
        plan: &SweepPlan,
        cells: &[CellSpec],
        unit: &[usize],
        tables: &TableCache,
    ) -> Vec<RunResult> {
        let first = &cells[unit[0]];
        let simulated = self.run_cell(plan, first, tables);
        let device = self.device.as_ref().expect("run_cell leaves a device");
        unit.iter()
            .map(|&pos| {
                let cell = &cells[pos];
                if cell.hc_first == first.hc_first {
                    return simulated.clone();
                }
                let flips = device
                    .flips_under(cell.hc_first)
                    .expect("a unit's first member has its lowest HC_first");
                RunResult {
                    hc_first: cell.hc_first,
                    total_flips: flips.total_flips,
                    flipped_rows: flips.flipped_rows,
                    flips_per_mact: flips.flips_per_mact,
                    flips_1to0: flips.flips_1to0,
                    flips_0to1: flips.flips_0to1,
                    post_ecc_flips: flips.post_ecc_flips,
                    ..simulated.clone()
                }
            })
            .collect()
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
            done.extend(unit.iter().copied().zip(results));
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
    fn alone(cells: &[CellSpec]) -> Vec<Vec<usize>> {
        (0..cells.len()).map(|pos| vec![pos]).collect()
    }

    #[test]
    fn table_cache_is_shared_per_device_not_per_cell() {
        let plan = tiny_plan();
        let tables = build_table_cache(&plan, &plan.grid, &units(&plan.grid));
        // 2 hc_first values × 1 pattern × 1 shared device seed — far fewer
        // than cells.
        assert_eq!(tables.len(), 2);
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
            .map(|cell| Worker::with_kernel(Kernel::auto()).run_cell(&plan, cell, &tables))
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

    /// The fold's exactness bar: every cell's folded result equals the
    /// same cell simulated alone on a fresh device, field for field — at
    /// benign fractions 0.25 and 1.0, with ECC off and on, over two data
    /// patterns and an unsorted `HC_first` axis whose lowest value flips
    /// rows the next one does not.
    #[test]
    fn folded_units_match_each_cell_simulated_alone() {
        for benign_fraction in [0.25, 1.0] {
            for ecc_codeword_bits in [0, 128] {
                let cfg = SweepConfig {
                    activations: 6_000,
                    hc_firsts: vec![60, 40, 90, 2_000],
                    sides: vec![4],
                    para_probabilities: vec![0.0, GRID_PARA_P],
                    data_patterns: vec![DataPattern::Legacy, DataPattern::RowStripe],
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
                let tables = build_table_cache(&plan, &cells, &alone(&cells));
                let folded = execute_cells(&plan, &cells, 2);
                for (i, (cell, got)) in cells.iter().zip(&folded).enumerate() {
                    let alone = Worker::with_kernel(Kernel::auto()).run_cell(&plan, cell, &tables);
                    assert_same_result(got, &alone, &format!("{what}, cell {i}"));
                }
                let units = units(&cells);
                assert!(units.len() < cells.len(), "{what}: nothing folded");
                assert!(
                    units.iter().any(|u| u.len() > 1
                        && folded[u[0]].total_flips > folded[u[1]].total_flips
                        && folded[u[1]].total_flips > 0),
                    "{what}: no unit flips rows only at its lowest HC_first"
                );
            }
        }
    }

    /// The fold's work, pinned: the default job's 124 cells run as 69
    /// simulations (the none, PARA and TRR cells of each workload fold
    /// their four `HC_first` values into one, and the PARA sweep's
    /// 0.004 cell joins its grid twin), the DDR4 grid's 91 as 54.
    #[test]
    fn the_fold_pins_the_simulation_count() {
        for (cfg, cells, simulations) in [
            (SweepConfig::default(), 124, 69),
            (ddr4_reference(), 91, 54),
        ] {
            let plan = SweepPlan::from_config(&cfg).unwrap();
            let list = sweep_cells(&plan);
            assert_eq!(list.len(), cells);
            assert_eq!(units(&list).len(), simulations, "{cells}-cell job");
        }
    }

    /// One executor pass per sweep builds each distinct `(HC_first,
    /// pattern, device seed)` table set its simulations read once, the
    /// PARA sweep's included: 4 on the default grid, 6 on the DDR4
    /// reference grid. A unit's derived members read none, so the cells
    /// that fold (none, PARA, TRR) build only their lowest `HC_first`'s
    /// set per pattern: 1 and 2.
    #[test]
    fn one_sweep_pass_builds_each_table_set_once() {
        for (cfg, distinct, folding_sets) in
            [(SweepConfig::default(), 4, 1), (ddr4_reference(), 6, 2)]
        {
            let plan = SweepPlan::from_config(&cfg).unwrap();
            let cells = sweep_cells(&plan);
            let tables = build_table_cache(&plan, &cells, &units(&cells));
            assert_eq!(tables.len(), distinct);
            let folding: Vec<CellSpec> = cells
                .into_iter()
                .filter(|cell| !cell.mitigation.reads_hc_first())
                .collect();
            let tables = build_table_cache(&plan, &folding, &units(&folding));
            assert_eq!(tables.len(), folding_sets);
        }
    }

    /// What a served lease builds: every 16 consecutive units of the
    /// sweep's one cell list (a full lease) simulate cells of at most two
    /// `(HC_first, pattern)` table sets on the default grid, and of at most
    /// three on the DDR4 reference grid, whose two patterns and
    /// high-to-low `HC_first` axis put a lowest-`HC_first` unit among each
    /// value's blocks.
    #[test]
    fn a_full_lease_of_units_builds_few_table_sets() {
        for (cfg, most) in [(SweepConfig::default(), 2), (ddr4_reference(), 3)] {
            let plan = SweepPlan::from_config(&cfg).unwrap();
            let cells = sweep_cells(&plan);
            let units = units(&cells);
            for lease in units.chunks(16) {
                let tables = build_table_cache(&plan, &cells, lease);
                assert!(tables.len() <= most, "{} table sets", tables.len());
            }
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
            .all(|(i, unit)| unit == &vec![i + n, i]));
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
}
