//! The paper's experiment grid, rebuilt as a plan → shard → execute → merge
//! pipeline: [`SweepConfig`] is declarative user input, [`crate::plan`]
//! expands it into order-independent cells, [`crate::exec`] runs them across
//! threads, and [`run_sweep`] merges everything into a [`SweepOutput`] that
//! is a pure function of the config (thread count never changes the bytes).

use crate::engine::RunResult;
use crate::exec::execute_cells;
use crate::plan::{CellSpec, SweepPlan};
use rh_core::{DataPattern, Geometry, VictimModelParams};

/// Configuration of one full sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    pub seed: u64,
    /// Activation budget per experiment cell.
    pub activations: u64,
    /// `HC_first` values to sweep (the paper's generational axis:
    /// DDR3-old ≈ 139k down to the weakest chip ≈ 4.8k).
    pub hc_firsts: Vec<u64>,
    /// Aggressor counts for the many-sided (TRRespass-style) workload axis.
    pub sides: Vec<usize>,
    /// PARA sampling probabilities for the monotonicity sweep.
    pub para_probabilities: Vec<f64>,
    /// Stored data patterns to sweep (Section 5 victim model). The default
    /// — `[DataPattern::Legacy]` alone — reproduces the pattern-agnostic
    /// engine byte for byte.
    pub data_patterns: Vec<DataPattern>,
    /// On-die ECC codeword size in cells; 0 disables the ECC layer. When
    /// enabled, every result reports post-ECC visible flips alongside the
    /// raw (pre-ECC) counts.
    pub ecc_codeword_bits: u32,
    /// Fraction of benign traffic mixed into every attack stream.
    pub benign_fraction: f64,
    /// Periodic full-device refresh (the tREFW window) in activations;
    /// 0 disables auto-refresh entirely.
    pub auto_refresh_interval: u64,
    pub geometry: Geometry,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            activations: 200_000,
            hc_firsts: vec![2_000, 4_000, 8_000, 16_000],
            sides: vec![2, 4, 8, 16],
            para_probabilities: vec![0.0, 0.001, 0.004, 0.016],
            data_patterns: vec![DataPattern::Legacy],
            ecc_codeword_bits: 0,
            benign_fraction: 0.1,
            // A tREFW window that separates the regimes: at the top of the
            // default HC_first axis one window cannot accumulate enough
            // disturbance even many-sided, while at the bottom it easily can
            // — reproducing the paper's "newer chips break deployed TRR".
            auto_refresh_interval: 32_000,
            geometry: Geometry {
                channels: 1,
                ranks: 1,
                banks: 4,
                rows_per_bank: 4096,
            },
        }
    }
}

/// Order-preserving deduplication.
fn dedup_in_order<T: PartialEq + Copy>(values: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(values.len());
    for &v in values {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

impl SweepConfig {
    /// The canonical form of the config: duplicate axis values collapsed
    /// (order-preserving for `hc_firsts`/`sides`) and PARA probabilities
    /// sorted ascending so the monotonicity sweep runs along the physical
    /// axis. Called in exactly one place — [`SweepPlan::from_config`],
    /// which carries the result in its `config` field for reporters — so
    /// the emitted config always describes exactly the grid that ran.
    pub fn normalized(&self) -> Self {
        let mut para_probabilities = dedup_in_order(&self.para_probabilities);
        para_probabilities.sort_by(|a, b| a.total_cmp(b));
        Self {
            hc_firsts: dedup_in_order(&self.hc_firsts),
            sides: dedup_in_order(&self.sides),
            data_patterns: dedup_in_order(&self.data_patterns),
            para_probabilities,
            ..self.clone()
        }
    }

    /// Whether the Section 5 victim-model axes are in play: any data
    /// pattern beyond the legacy model, or on-die ECC. Gates the extra
    /// per-result fields the JSON reporter emits, so sweeps with the axes
    /// unset stay byte-identical to the pre-Section-5 output.
    pub fn extended_victim_model(&self) -> bool {
        self.ecc_codeword_bits != 0 || self.data_patterns != vec![DataPattern::Legacy]
    }

    /// Semantic validation shared by the CLI and [`SweepPlan::from_config`].
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate()?;
        if self.activations == 0 {
            return Err("activations must be at least 1".to_string());
        }
        if self.hc_firsts.is_empty() {
            return Err("at least one HC_first value is required".to_string());
        }
        if self.hc_firsts.contains(&0) {
            return Err("HC_first values must be positive".to_string());
        }
        if let Some(s) = self.sides.iter().find(|&&s| s < 2) {
            return Err(format!("many-sided aggressor count {s} must be at least 2"));
        }
        if self.para_probabilities.is_empty() {
            return Err("at least one PARA probability is required".to_string());
        }
        if let Some(p) = self
            .para_probabilities
            .iter()
            .find(|p| !(0.0..=1.0).contains(*p))
        {
            return Err(format!("PARA probability {p} must be in [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.benign_fraction) {
            return Err(format!(
                "benign fraction {} must be in [0, 1]",
                self.benign_fraction
            ));
        }
        if self.data_patterns.is_empty() {
            return Err("at least one data pattern is required".to_string());
        }
        // Geometry-style validation of the ECC axis: the codeword must be a
        // real (nonzero) slice of a row. The same checks guard
        // `DeviceTables::new`, but failing here keeps the error at config
        // level instead of deep inside a worker thread. Sweeps always
        // simulate the default row width, so the bound is the shared const.
        if self.ecc_codeword_bits > VictimModelParams::DEFAULT_CELLS_PER_ROW {
            return Err(format!(
                "ECC codeword of {} bits exceeds the {} cells in a row",
                self.ecc_codeword_bits,
                VictimModelParams::DEFAULT_CELLS_PER_ROW
            ));
        }
        Ok(())
    }
}

/// All results of one sweep invocation.
#[derive(Debug, Clone)]
pub struct SweepOutput {
    pub config: SweepConfig,
    /// The main grid: every (hc_first, workload, mitigation) cell.
    pub grid: Vec<RunResult>,
    /// PARA sweep at the lowest `HC_first`, double-sided workload, in
    /// ascending-probability order.
    pub para_sweep: Vec<RunResult>,
    /// Whether flips were non-increasing in PARA's sampling probability.
    pub para_monotone: bool,
}

/// The cells one sweep executes, as one list: the grid, then the PARA
/// sweep. One list means one table cache, one set of workers and one fold
/// (the PARA cell at the grid's own probability joins its grid twin's
/// unit), where two executor passes would build the PARA sweep's tables
/// twice and leave threads idle on its few cells. A served job is this
/// list too: its leases, result slots and journal records address cells
/// by their position in it.
pub(crate) fn sweep_cells(plan: &SweepPlan) -> Vec<CellSpec> {
    plan.grid.iter().chain(&plan.para_sweep).cloned().collect()
}

/// Split the results of [`sweep_cells`], in list order, back into the
/// sweep's output: the grid, then the PARA sweep and its monotonicity
/// verdict. `sweep` and the coordinator's merge both end here, so a served
/// document is the in-process one by construction.
pub(crate) fn sweep_output(plan: &SweepPlan, mut results: Vec<RunResult>) -> SweepOutput {
    let para_sweep = results.split_off(plan.grid.len());
    // Monotone because all PARA cells share device, workload stream, and
    // sampling RNG (common random numbers): the activations sampled at a
    // lower p are a subset of those sampled at any higher p.
    let para_monotone = para_sweep
        .windows(2)
        .all(|w| w[1].total_flips <= w[0].total_flips);
    SweepOutput {
        config: plan.config.clone(),
        grid: results,
        para_sweep,
        para_monotone,
    }
}

/// Plan the full grid plus the PARA sweep, execute the cells on up to
/// `threads` workers, and merge results in plan order. Like the thread
/// count, the settle kernel ([`rh_core::Kernel::auto`]) can never change
/// the output bytes.
pub fn run_sweep(cfg: &SweepConfig, threads: usize) -> Result<SweepOutput, String> {
    let plan = SweepPlan::from_config(cfg)?;
    let results = execute_cells(&plan, &sweep_cells(&plan), threads);
    Ok(sweep_output(&plan, results))
}

/// The DDR4 reference grid (the one `ddr4_reference_document_is_pinned`
/// pins, at perfbench's 1M activations per cell).
#[cfg(test)]
pub(crate) fn ddr4_reference() -> SweepConfig {
    SweepConfig {
        seed: 0xBE7C4,
        activations: 1_000_000,
        hc_firsts: vec![4096, 512, 128],
        sides: vec![8],
        para_probabilities: vec![0.004],
        data_patterns: vec![DataPattern::Legacy, DataPattern::RowStripe],
        ecc_codeword_bits: 128,
        benign_fraction: 0.1,
        auto_refresh_interval: 32_000,
        geometry: Geometry {
            channels: 1,
            ranks: 1,
            banks: 16,
            rows_per_bank: 32 * 1024,
        },
    }
}
