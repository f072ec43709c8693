//! In-process sweep jobs as `rh-cli sweep` runs them, and the pieces of the
//! executor's set-up this benchmark re-creates from public APIs to time it.

use crate::config::PARALLELISM;
use rh_cli::plan::CellSpec;
use rh_cli::{json, run_sweep, SweepConfig, SweepOutput, SweepPlan};
use rh_core::{DataPattern, DeviceTables, VictimModelParams};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// One `rh-cli sweep` job: plan → table build → execute → render, on
/// [`PARALLELISM`] threads with the auto-selected settle kernel.
pub fn sweep_job(cfg: &SweepConfig) -> Result<(SweepOutput, String), String> {
    let out = run_sweep(cfg, PARALLELISM)?;
    let doc = json::render(&out);
    Ok((out, doc))
}

/// Cells a job of `cfg` executes: the grid plus the PARA sweep.
pub fn cells_per_job(cfg: &SweepConfig) -> Result<u64, String> {
    let plan = SweepPlan::from_config(cfg)?;
    Ok((plan.grid.len() + plan.para_sweep.len()) as u64)
}

/// The executor shares one device-table set per distinct `(HC_first, data
/// pattern, device seed)` within each cell list it executes.
pub type TableKey = (u64, DataPattern, u64);

pub fn table_key(cell: &CellSpec) -> TableKey {
    (cell.hc_first, cell.data_pattern, cell.seeds.device)
}

/// The victim-model parameters of one cell, as the executor derives them.
pub fn cell_params(cfg: &SweepConfig, cell: &CellSpec) -> VictimModelParams {
    VictimModelParams {
        data_pattern: cell.data_pattern,
        ecc_codeword_bits: cfg.ecc_codeword_bits,
        ..VictimModelParams::with_hc_first(cell.hc_first)
    }
}

/// The set-up work of one job, timed from outside the job:
/// `SweepPlan::from_config` plus every `DeviceTables::shared` build the
/// executor makes — one per distinct [`TableKey`] of each cell list (the
/// grid, then the PARA sweep). Each table set is dropped after it is timed.
pub fn setup_time(cfg: &SweepConfig) -> Result<Duration, String> {
    let started = Instant::now();
    let plan = SweepPlan::from_config(cfg)?;
    let mut total = started.elapsed();
    for cells in [&plan.grid, &plan.para_sweep] {
        let mut built = BTreeSet::new();
        for cell in cells.iter().filter(|c| built.insert(table_key(c))) {
            let started = Instant::now();
            let tables = DeviceTables::shared(
                plan.config.geometry,
                cell_params(&plan.config, cell),
                cell.seeds.device,
            )?;
            total += started.elapsed();
            drop(tables);
        }
    }
    Ok(total)
}
