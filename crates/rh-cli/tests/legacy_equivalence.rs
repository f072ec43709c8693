//! The shipping sweep path against the retained pre-optimization path, cell
//! by cell.
//!
//! The optimized side is exactly what `rh-cli sweep --threads 1` runs: the
//! plan's cells through [`execute_cells_with_kernel`] on one worker, so one
//! [`rh_core::DeviceState`] is reset and reused across every simulation
//! over `Arc`-shared tables, the none/PARA/TRR cells of each workload and
//! pattern are simulated once at the lowest `HC_first` and derived at the
//! other two from the device's peak record, with flat counter tables,
//! batched workload pulls, slot-addressed run coalescing, deferred benign
//! rows and the settle kernel `Kernel::auto()` picks (the scalar one under
//! `RH_FORCE_SCALAR`).
//!
//! The legacy side shares none of that machinery: per cell, a fresh
//! [`EagerDeviceState`] (thresholds re-derived, eager `refresh_all`), the
//! map-based counter mitigations of [`build_reference`] behind
//! `Box<dyn Mitigation>`, and a step-at-a-time loop with one virtual
//! workload call and one virtual mitigation call per activation. Its victim
//! parameters are derived here, not borrowed from the executor.
//!
//! Every `RunResult` field must match, `flips_per_mact` by its bits.
//!
//! Two pinned grids run on one worker; a seeded run of small random
//! configs runs the folded executor on two threads, the way `sweep` does:
//! each unit's first data pattern runs the engine and its other patterns
//! replay the engine's device calls, across `HC_first` values, ECC
//! settings, benign fractions and refresh intervals nobody pinned.

use rh_cli::exec::{execute_cells, execute_cells_with_kernel};
use rh_cli::plan::{CellSpec, BLAST_RADIUS};
use rh_cli::{RunResult, SweepConfig, SweepPlan};
use rh_core::{
    DataPattern, Device, EagerDeviceState, Geometry, Kernel, SplitMix64, VictimModelParams,
};
use rh_mitigations::reference::build_reference;
use rh_mitigations::{ActionBuf, Mitigation, MitigationAction};
use rh_workloads::Workload;

/// The unbatched engine loop: one `next_access`, one `on_activate` and one
/// `activate` per step, actions applied after the activation, and the tREFW
/// refresh (plus the mitigation's window reset) on every interval boundary.
fn run_unbatched(
    device: &mut impl Device,
    workload: &mut dyn Workload,
    mitigation: &mut dyn Mitigation,
    activations: u64,
    auto_refresh_interval: u64,
) -> RunResult {
    let geom = *device.geometry();
    let mut actions = ActionBuf::new();
    for step in 1..=activations {
        let addr = workload.next_access();
        actions.clear();
        mitigation.on_activate(addr, &geom, &mut actions);
        device.activate(addr);
        for action in actions.actions() {
            match *action {
                MitigationAction::RefreshRow(row) => device.refresh_row(row),
                MitigationAction::RefreshAll => device.refresh_all(),
            }
        }
        if auto_refresh_interval > 0 && step % auto_refresh_interval == 0 {
            device.refresh_all();
            mitigation.reset();
        }
    }
    RunResult {
        workload: workload.name(),
        mitigation: mitigation.name(),
        hc_first: device.params().hc_first,
        data_pattern: device.params().data_pattern.name().to_string(),
        activations,
        total_flips: device.total_flips(),
        flipped_rows: device.flipped_rows(),
        flips_per_mact: device.flips_per_mact(),
        refreshes_issued: device.refreshes_issued(),
        flips_1to0: device.flips_1to0(),
        flips_0to1: device.flips_0to1(),
        post_ecc_flips: device.post_ecc_flips(),
    }
}

/// One cell the pre-optimization way, from nothing but its spec and seeds.
fn run_cell_legacy(plan: &SweepPlan, cell: &CellSpec) -> RunResult {
    let geom = plan.config.geometry;
    let params = VictimModelParams {
        data_pattern: cell.data_pattern,
        ecc_codeword_bits: plan.config.ecc_codeword_bits,
        ..VictimModelParams::with_hc_first(cell.hc_first)
    };
    let mut device = EagerDeviceState::new(geom, params, cell.seeds.device);
    let mut workload: Box<dyn Workload> = Box::new(
        cell.workload
            .build(&geom, plan.config.benign_fraction, cell.seeds.workload)
            .expect("workloads are validated at plan time"),
    );
    let mut mitigation = build_reference(
        &cell.mitigation,
        cell.hc_first,
        BLAST_RADIUS,
        cell.seeds.mitigation,
    );
    run_unbatched(
        &mut device,
        workload.as_mut(),
        mitigation.as_mut(),
        cell.activations,
        cell.auto_refresh_interval,
    )
}

/// Every field of a result as `name=value`, the float by its bit pattern.
/// The exhaustive destructuring makes a new `RunResult` field a compile
/// error here until it is compared too.
fn fields(r: &RunResult) -> [String; 12] {
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
    } = r;
    [
        format!("workload={workload}"),
        format!("mitigation={mitigation}"),
        format!("hc_first={hc_first}"),
        format!("data_pattern={data_pattern}"),
        format!("activations={activations}"),
        format!("total_flips={total_flips}"),
        format!("flipped_rows={flipped_rows}"),
        format!("flips_per_mact_bits={:#018x}", flips_per_mact.to_bits()),
        format!("refreshes_issued={refreshes_issued}"),
        format!("flips_1to0={flips_1to0}"),
        format!("flips_0to1={flips_0to1}"),
        format!("post_ecc_flips={post_ecc_flips:?}"),
    ]
}

/// Run the plan's grid both ways and require identical results per cell.
fn assert_paths_agree(cfg: &SweepConfig) {
    let plan = SweepPlan::from_config(cfg).expect("config is valid");
    assert_eq!(plan.grid.len(), 90, "the reference axes make 90 cells");
    let optimized = execute_cells_with_kernel(&plan, &plan.grid, 1, Kernel::auto());
    for (cell, optimized) in plan.grid.iter().zip(&optimized) {
        let legacy = run_cell_legacy(&plan, cell);
        assert_eq!(
            fields(&legacy),
            fields(optimized),
            "paths diverged on cell {} (legacy left, optimized right)",
            cell.index
        );
    }
}

/// The reference sweep's axes: `HC_first` down the paper's generational to
/// projected range, one 8-sided attack beside the classic two, the legacy
/// model plus the Section 5 worst-case row stripe under 128-bit on-die ECC.
/// 3 `HC_first` × 2 patterns × 3 workloads × 5 mitigations = 90 cells.
fn reference_axes(activations: u64, geometry: Geometry) -> SweepConfig {
    SweepConfig {
        seed: 0xBE7C4,
        activations,
        hc_firsts: vec![4096, 512, 128],
        sides: vec![8],
        para_probabilities: vec![0.004],
        data_patterns: vec![DataPattern::Legacy, DataPattern::RowStripe],
        ecc_codeword_bits: 128,
        benign_fraction: 0.1,
        auto_refresh_interval: 32_000,
        geometry,
    }
}

/// One 1024-row bank at 20K activations per cell. Benign rows, drawn across
/// the whole bank, land next to the aggressors and the rows a mitigation
/// refreshes far more often than on 8K-row banks, so the order in which the
/// engine applies its deferred rows, the mitigation's actions and the
/// refreshes shows in the flip counts.
#[test]
fn small_bank_grid_matches_the_legacy_path() {
    assert_paths_agree(&reference_axes(20_000, Geometry::tiny(1024)));
}

/// The quick reference grid: 4 banks × 8K rows at 100K activations per
/// cell, three tREFW windows and a partial fourth in every cell.
#[test]
fn quick_reference_grid_matches_the_legacy_path() {
    let geometry = Geometry {
        channels: 1,
        ranks: 1,
        banks: 4,
        rows_per_bank: 8 * 1024,
    };
    assert_paths_agree(&reference_axes(100_000, geometry));
}

/// A small config drawn from `rng`: 1–2 banks of 64–512 rows, 1–3
/// `HC_first` values in 40–639, a non-empty subset of the four data patterns (in a
/// rotated order, so any of them can run the engine), ECC off, 64 or 128,
/// benign fraction 0, 0.25 or 1.0, auto-refresh off or every 600–3,599
/// activations, 1–2 many-sided widths, 1–3 PARA probabilities and
/// 3,000–6,999 activations per cell.
fn random_config(rng: &mut SplitMix64) -> SweepConfig {
    const PATTERNS: [DataPattern; 4] = [
        DataPattern::Legacy,
        DataPattern::Solid,
        DataPattern::Checkerboard,
        DataPattern::RowStripe,
    ];
    let mut pick = |n: u64| rng.gen_range(n) as usize;
    let mask = 1 + pick(15);
    let rotate = pick(4);
    let data_patterns = (0..4)
        .map(|i| (i + rotate) % 4)
        .filter(|&p| mask >> p & 1 == 1)
        .map(|p| PATTERNS[p])
        .collect();
    let hc_firsts = (0..1 + pick(3)).map(|_| 40 + pick(600) as u64).collect();
    let sides = (0..1 + pick(2)).map(|_| 2 + pick(7)).collect();
    let para_probabilities = (0..1 + pick(3))
        .map(|_| [0.0, 0.001, 0.01, 0.05, 0.2][pick(5)])
        .collect();
    let ecc_codeword_bits = [0, 64, 128][pick(3)];
    let benign_fraction = [0.0, 0.25, 1.0][pick(3)];
    let auto_refresh_interval = if pick(2) == 0 {
        0
    } else {
        600 + pick(3_000) as u64
    };
    let geometry = Geometry {
        channels: 1,
        ranks: 1,
        banks: 1 + pick(2) as u32,
        rows_per_bank: 64 + pick(449) as u32,
    };
    SweepConfig {
        seed: rng.next_u64(),
        activations: 3_000 + rng.gen_range(4_000),
        hc_firsts,
        sides,
        para_probabilities,
        data_patterns,
        ecc_codeword_bits,
        benign_fraction,
        auto_refresh_interval,
        geometry,
    }
}

/// The random-config differential: for each of 24 seeded small configs
/// ([`random_config`]), every cell of the sweep's list (the grid, then the
/// PARA sweep) through the folded executor on two threads must equal the
/// legacy path, field for field. Deterministic: a red run reproduces, so
/// re-rolling the seed would hide a real divergence. About 9 s in a debug
/// build on a 2-vCPU x86-64 host, most of it the legacy path.
#[test]
fn random_small_configs_match_the_legacy_path() {
    let mut rng = SplitMix64::new(0x5EED_F01D);
    let (mut cells_run, mut flipped, mut multi_pattern) = (0, 0, 0);
    for case in 0..24 {
        let cfg = random_config(&mut rng);
        let plan = SweepPlan::from_config(&cfg).expect("random configs are valid");
        let cells: Vec<CellSpec> = plan.grid.iter().chain(&plan.para_sweep).cloned().collect();
        let optimized = execute_cells(&plan, &cells, 2);
        for (cell, optimized) in cells.iter().zip(&optimized) {
            let legacy = run_cell_legacy(&plan, cell);
            assert_eq!(
                fields(&legacy),
                fields(optimized),
                "case {case}, cell {} (legacy left, optimized right) of {cfg:?}",
                cell.index
            );
            flipped += usize::from(legacy.total_flips > 0);
        }
        cells_run += cells.len();
        multi_pattern += usize::from(cfg.data_patterns.len() > 1);
    }
    assert!(
        multi_pattern >= 12,
        "{multi_pattern} configs with several patterns"
    );
    assert!(
        flipped * 4 >= cells_run,
        "only {flipped} of {cells_run} cells flip anything"
    );
}
