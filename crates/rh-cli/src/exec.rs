//! Cell execution: shard a plan's cells across worker threads and merge
//! results back into plan order.
//!
//! Cells are embarrassingly parallel — each one materializes its own
//! workload and mitigation from plain specs and seeds — so the executor
//! deals cells round-robin into per-thread shards up front: each shard
//! carries exclusive `&mut` references to its cells' result slots, so
//! every slot is written exactly once by exactly one thread with no lock
//! and no post-join unwrapping hazard (the type system rules out both
//! double-writes and cross-thread contention). Results land in plan order
//! regardless of scheduling, so `--threads 1` and `--threads N` produce
//! identical results, which the integration tests and the CI determinism
//! job assert byte-for-byte on the JSON. Round-robin (not contiguous
//! chunks) because the plan's grid cycles mitigations fastest: dealing
//! spreads the expensive mitigation families evenly across threads.
//!
//! The same per-cell machinery (the crate-internal `Worker::run_cell` over
//! a `build_table_cache` table set) is the execution core of the
//! distributed service's worker process ([`crate::worker`]): a shard lease
//! there is just this module's shard concept serialized across a process
//! boundary.
//!
//! Hot-path amortization across cells:
//!
//! * **Shared device tables**: the immutable seed-derived tables
//!   ([`DeviceTables`]) are built once per distinct `(hc_first, device
//!   seed)` pair up front and `Arc`-shared with every worker — the sweep's
//!   common-random-number structure means all cells at one `HC_first` share
//!   one table set instead of re-deriving O(total_rows) thresholds per cell.
//! * **Per-worker device reuse**: each worker owns one [`DeviceState`] and
//!   one [`EngineScratch`] for its whole shard. Between cells the device is
//!   reset, not rebuilt: `reset_for_cell` bumps its epoch, which retires
//!   every charge the previous cell wrote, and clears its per-row flip
//!   counters; its charge/epoch slabs are reallocated only when the row
//!   count changes.

use crate::engine::{run_experiment, EngineScratch, RunResult};
use crate::plan::{CellSpec, SweepPlan, BLAST_RADIUS};
use rh_core::{DataPattern, DeviceState, DeviceTables, Kernel, VictimModelParams};
use std::collections::BTreeMap;
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

/// Derive the tables every cell in the shard will need, exactly once each.
pub(crate) fn build_table_cache(plan: &SweepPlan, cells: &[CellSpec]) -> TableCache {
    let mut cache = TableCache::new();
    for cell in cells {
        cache
            .entry((cell.hc_first, cell.data_pattern, cell.seeds.device))
            .or_insert_with(|| {
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

/// One worker's reusable simulation state: a device whose buffers persist
/// across the cells this worker executes, and the engine scratch (action
/// sink, workload chunk buffer, run slots).
pub(crate) struct Worker {
    device: Option<DeviceState>,
    scratch: EngineScratch,
    /// Settle kernel every device this worker builds runs under.
    kernel: Kernel,
}

impl Worker {
    /// A worker pinned to `kernel` (the `--kernel` flag, resolved once per
    /// invocation).
    pub(crate) fn with_kernel(kernel: Kernel) -> Self {
        Self {
            device: None,
            scratch: EngineScratch::new(),
            kernel,
        }
    }

    /// Run one cell: build workload + mitigation from specs and seeds, reuse
    /// the worker's device. The result is a pure function of `(plan, cell)`
    /// — reuse never leaks state between cells (`reset_for_cell` is asserted
    /// equivalent to fresh construction in rh-core's tests).
    pub(crate) fn run_cell(
        &mut self,
        plan: &SweepPlan,
        cell: &CellSpec,
        tables: &TableCache,
    ) -> RunResult {
        let cell_tables = tables[&(cell.hc_first, cell.data_pattern, cell.seeds.device)].clone();
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
}

/// Execute `cells` on up to `threads` workers; results come back merged in
/// cell order regardless of which worker ran what.
pub fn execute_cells(plan: &SweepPlan, cells: &[CellSpec], threads: usize) -> Vec<RunResult> {
    execute_cells_with_kernel(plan, cells, threads, Kernel::auto())
}

/// [`execute_cells`] with the settle kernel pinned (the `--kernel` flag,
/// resolved by the caller). The kernel can never affect results — only
/// throughput — so every kernel produces the identical result vector.
pub fn execute_cells_with_kernel(
    plan: &SweepPlan,
    cells: &[CellSpec],
    threads: usize,
    kernel: Kernel,
) -> Vec<RunResult> {
    let threads = threads.max(1).min(cells.len().max(1));
    let tables = build_table_cache(plan, cells);
    if threads == 1 {
        let mut worker = Worker::with_kernel(kernel);
        return cells
            .iter()
            .map(|cell| worker.run_cell(plan, cell, &tables))
            .collect();
    }

    // Write-once result slots: deal (cell, &mut slot) pairs round-robin
    // into per-thread shards, so each thread owns exclusive mutable access
    // to exactly the slots it will fill (see the module docs).
    let mut results: Vec<Option<RunResult>> = (0..cells.len()).map(|_| None).collect();
    let mut shards: Vec<Vec<(&CellSpec, &mut Option<RunResult>)>> =
        (0..threads).map(|_| Vec::new()).collect();
    for (i, (cell, slot)) in cells.iter().zip(results.iter_mut()).enumerate() {
        shards[i % threads].push((cell, slot));
    }
    std::thread::scope(|scope| {
        for shard in shards {
            let tables = &tables;
            scope.spawn(move || {
                let mut worker = Worker::with_kernel(kernel);
                for (cell, slot) in shard {
                    *slot = Some(worker.run_cell(plan, cell, tables));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every cell executed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepConfig;

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

    #[test]
    fn table_cache_is_shared_per_device_not_per_cell() {
        let plan = tiny_plan();
        let tables = build_table_cache(&plan, &plan.grid);
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
        let tables = build_table_cache(&plan, &plan.grid);
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
        let tables = build_table_cache(&plan, &plan.grid);
        let reused = execute_cells(&plan, &plan.grid, 1);
        let fresh: Vec<RunResult> = plan
            .grid
            .iter()
            .map(|cell| Worker::with_kernel(Kernel::auto()).run_cell(&plan, cell, &tables))
            .collect();
        assert_eq!(flat(&reused), flat(&fresh));
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
