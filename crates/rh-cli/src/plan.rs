//! Sweep planning: expand a [`SweepConfig`] into a flat, order-independent
//! list of executable cells.
//!
//! The pipeline is **plan → shard → execute → merge**:
//!
//! 1. *Plan* ([`SweepPlan::from_config`]): validate the config and expand
//!    the `HC_first` × workload × mitigation grid (plus the PARA
//!    common-random-number sweep) into [`CellSpec`]s. Each cell carries the
//!    serializable specs of its workload and mitigation and a [`CellSeeds`]
//!    bundle derived in `rh-core` via SplitMix64 over the root seed and the
//!    cell's coordinates.
//! 2. *Fold / execute* ([`crate::exec::execute_cells`]): the executor
//!    folds the cells that differ only in `HC_first` under a mitigation
//!    that does not read it into one simulation each, worker threads claim
//!    those simulations from a shared cursor, and each thread materializes
//!    its cells' device, workload, and mitigation locally from their specs
//!    and seeds.
//! 3. *Merge*: results land back in plan order, so the output is a pure
//!    function of the config — `--threads 1` and `--threads 8` emit
//!    byte-identical JSON.
//!
//! Two properties of this function are load-bearing for the distributed
//! service ([`crate::serve`]/[`crate::worker`]): the plan is a **pure
//! function of the config** (no ambient state, no execution-order
//! dependence), and normalization is **idempotent** — so a coordinator can
//! lease bare cell *indices* over the wire and a worker re-expanding
//! `SweepPlan::from_config` from the normalized config is guaranteed to
//! index the same cells.
//!
//! Seed derivation is deliberately *not* fully per-cell-unique: seeds are
//! derived from exactly the coordinates a stream may depend on, so that the
//! sweep's common-random-number (CRN) comparisons stay valid:
//!
//! * the **device** seed depends only on the root — every cell simulates the
//!   same per-row threshold jitter, making flip counts comparable along the
//!   `HC_first`, workload, and mitigation axes;
//! * a **workload** seed depends on the root and the workload's identity —
//!   each pattern draws independent benign noise, but all mitigations face
//!   the identical stream for a given pattern;
//! * the **mitigation** seed depends only on the root — all PARA instances
//!   share one sampling stream, so (with one RNG draw per activation) the
//!   activations sampled at a lower `p` are a subset of those sampled at any
//!   higher `p`, and the PARA sweep is provably monotone.

use crate::sweep::SweepConfig;
use rh_core::{derive_seed, DataPattern};
use rh_mitigations::MitigationSpec;
use rh_workloads::WorkloadSpec;

/// Aggressor-to-victim coupling reach used by the device model and every
/// neighbor-refreshing mitigation in the sweep.
pub const BLAST_RADIUS: u32 = 2;

/// PARA sampling probability used in the main grid (the paper's ~99.9%
/// protection operating point); the dedicated PARA sweep varies `p`.
pub const GRID_PARA_P: f64 = 0.004;

// Stream discriminators for seed derivation (arbitrary distinct constants).
const DEVICE_STREAM: u64 = 0xD0;
const WORKLOAD_STREAM: u64 = 0xA0;
const MITIGATION_STREAM: u64 = 0x30;

/// Seeds for the stochastic components of one cell. See the module docs for
/// which coordinates each seed may depend on (CRN structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellSeeds {
    /// Per-row threshold jitter of the simulated device.
    pub device: u64,
    /// Benign-traffic mixer of the cell's workload.
    pub workload: u64,
    /// Mitigation RNG (only PARA consumes it).
    pub mitigation: u64,
}

impl CellSeeds {
    fn derive(root: u64, workload: &WorkloadSpec) -> Self {
        Self {
            device: derive_seed(root, &[DEVICE_STREAM]),
            workload: derive_seed(root, &[WORKLOAD_STREAM, workload.stream_id()]),
            mitigation: derive_seed(root, &[MITIGATION_STREAM]),
        }
    }
}

/// One executable experiment cell: everything a worker thread needs to run
/// it, independent of every other cell and of execution order.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Position in plan (= output) order.
    pub index: usize,
    pub hc_first: u64,
    /// Stored data pattern the cell's device is initialized with. Not a
    /// seed coordinate: all patterns share the CRN device seed, so pattern
    /// comparisons run over identical per-row thresholds and orientations.
    pub data_pattern: DataPattern,
    pub workload: WorkloadSpec,
    pub mitigation: MitigationSpec,
    pub activations: u64,
    /// Full-device refresh period in activations (0 = disabled).
    pub auto_refresh_interval: u64,
    pub seeds: CellSeeds,
}

/// The expanded, validated form of a [`SweepConfig`].
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// The normalized config the cells were expanded from — the one source
    /// of truth for reporting, so the emitted config always describes
    /// exactly the grid that ran.
    pub config: SweepConfig,
    /// Main grid cells in `HC_first` × workload × mitigation order.
    pub grid: Vec<CellSpec>,
    /// PARA sweep cells in ascending-probability order.
    pub para_sweep: Vec<CellSpec>,
}

/// The grid's mitigation axis. Graphene gets a table large enough to track
/// all aggressors of the widest many-sided pattern (adequate provisioning);
/// TRR gets the small table and 2-slot refresh budget of deployed parts —
/// the contrast the acceptance scenario (and TRRespass) hinges on.
fn mitigation_axis() -> Vec<MitigationSpec> {
    vec![
        MitigationSpec::None,
        MitigationSpec::Para {
            probability: GRID_PARA_P,
        },
        MitigationSpec::Graphene {
            table_size: 64,
            threshold_divisor: 8,
        },
        MitigationSpec::IncreasedRefresh {
            interval_divisor: 2,
        },
        MitigationSpec::Trr {
            table_size: 16,
            refresh_slots: 2,
            sample_interval: 1000,
        },
    ]
}

/// The grid's workload axis: the classic patterns plus one many-sided
/// pattern per configured aggressor count.
fn workload_axis(sides: &[usize]) -> Vec<WorkloadSpec> {
    let mut axis = vec![WorkloadSpec::SingleSided, WorkloadSpec::DoubleSided];
    axis.extend(sides.iter().map(|&sides| WorkloadSpec::ManySided { sides }));
    axis
}

impl SweepPlan {
    /// Validate `cfg` and expand it into executable cells. The config is
    /// normalized exactly once, here ([`SweepConfig::normalized`]) — so
    /// duplicate axis values collapse, the PARA sweep runs in
    /// ascending-probability order, and the plan's `config` field is what
    /// reporters must emit.
    pub fn from_config(cfg: &SweepConfig) -> Result<Self, String> {
        let cfg = cfg.normalized();
        cfg.validate()?;
        let workloads = workload_axis(&cfg.sides);
        for w in &workloads {
            w.validate(&cfg.geometry)?;
        }
        let mitigations = mitigation_axis();
        let hc_firsts = &cfg.hc_firsts;

        let mut grid = Vec::with_capacity(
            hc_firsts.len() * cfg.data_patterns.len() * workloads.len() * mitigations.len(),
        );
        for &hc_first in hc_firsts {
            for &data_pattern in &cfg.data_patterns {
                for workload in &workloads {
                    for mitigation in &mitigations {
                        grid.push(CellSpec {
                            index: grid.len(),
                            hc_first,
                            data_pattern,
                            workload: *workload,
                            mitigation: mitigation.clone(),
                            activations: cfg.activations,
                            auto_refresh_interval: cfg.auto_refresh_interval,
                            seeds: CellSeeds::derive(cfg.seed, workload),
                        });
                    }
                }
            }
        }

        // PARA sweep: hardest case (lowest HC_first), double-sided attack,
        // in the normalized (ascending-p) order so the monotonicity check
        // runs along the physical axis.
        let hc_min = *hc_firsts.iter().min().expect("validated non-empty");
        let para_sweep = cfg
            .para_probabilities
            .iter()
            .enumerate()
            .map(|(index, &probability)| CellSpec {
                index,
                hc_first: hc_min,
                // First pattern on the axis (the legacy model by default):
                // one pattern keeps the PARA sweep's CRN subset argument
                // exact.
                data_pattern: cfg.data_patterns[0],
                workload: WorkloadSpec::DoubleSided,
                mitigation: MitigationSpec::Para { probability },
                activations: cfg.activations,
                auto_refresh_interval: cfg.auto_refresh_interval,
                seeds: CellSeeds::derive(cfg.seed, &WorkloadSpec::DoubleSided),
            })
            .collect();

        Ok(Self {
            config: cfg,
            grid,
            para_sweep,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_core::Geometry;

    fn cfg() -> SweepConfig {
        SweepConfig {
            hc_firsts: vec![1000, 2000],
            sides: vec![4, 8],
            para_probabilities: vec![0.004, 0.0, 0.001],
            ..SweepConfig::default()
        }
    }

    #[test]
    fn grid_is_full_cross_product_in_order() {
        let plan = SweepPlan::from_config(&cfg()).unwrap();
        // 2 hc × (2 classic + 2 many-sided) × 5 mitigations.
        assert_eq!(plan.grid.len(), 2 * 4 * 5);
        for (i, cell) in plan.grid.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
        assert_eq!(plan.grid[0].hc_first, 1000);
        assert_eq!(plan.grid.last().unwrap().hc_first, 2000);
    }

    #[test]
    fn para_sweep_is_sorted_and_deduped() {
        let mut c = cfg();
        c.para_probabilities = vec![0.004, 0.0, 0.004, 0.001];
        let plan = SweepPlan::from_config(&c).unwrap();
        let ps: Vec<f64> = plan
            .para_sweep
            .iter()
            .map(|cell| match cell.mitigation {
                MitigationSpec::Para { probability } => probability,
                _ => panic!("PARA sweep must contain only PARA cells"),
            })
            .collect();
        assert_eq!(ps, vec![0.0, 0.001, 0.004]);
    }

    #[test]
    fn duplicate_axis_values_collapse() {
        let mut c = cfg();
        c.hc_firsts = vec![1000, 1000, 2000];
        c.sides = vec![4, 4];
        c.data_patterns = vec![DataPattern::Legacy, DataPattern::Legacy];
        let plan = SweepPlan::from_config(&c).unwrap();
        assert_eq!(plan.grid.len(), 2 * 3 * 5);
    }

    #[test]
    fn data_pattern_axis_multiplies_the_grid_and_shares_seeds() {
        let mut c = cfg();
        c.data_patterns = vec![DataPattern::Legacy, DataPattern::RowStripe];
        let plan = SweepPlan::from_config(&c).unwrap();
        // 2 hc × 2 patterns × 4 workloads × 5 mitigations.
        assert_eq!(plan.grid.len(), 2 * 2 * 4 * 5);
        let first = plan.grid[0].seeds;
        for cell in &plan.grid {
            assert_eq!(
                cell.seeds.device, first.device,
                "patterns share the CRN device seed"
            );
        }
        let patterns: Vec<DataPattern> = plan
            .grid
            .iter()
            .filter(|c| c.hc_first == 1000)
            .map(|c| c.data_pattern)
            .collect();
        assert_eq!(&patterns[..20], vec![DataPattern::Legacy; 20].as_slice());
        assert_eq!(&patterns[20..], vec![DataPattern::RowStripe; 20].as_slice());
        // The PARA sweep pins the first pattern on the axis.
        assert!(plan
            .para_sweep
            .iter()
            .all(|c| c.data_pattern == DataPattern::Legacy));
    }

    #[test]
    fn device_and_mitigation_seeds_shared_workload_seeds_not() {
        let plan = SweepPlan::from_config(&cfg()).unwrap();
        let first = plan.grid[0].seeds;
        for cell in &plan.grid {
            assert_eq!(cell.seeds.device, first.device, "device seed is CRN-shared");
            assert_eq!(cell.seeds.mitigation, first.mitigation);
        }
        let workload_seeds: std::collections::HashSet<u64> =
            plan.grid.iter().map(|c| c.seeds.workload).collect();
        assert_eq!(
            workload_seeds.len(),
            4,
            "each workload draws its own benign stream"
        );
        // PARA sweep shares the double-sided grid stream.
        let double_cell = plan
            .grid
            .iter()
            .find(|c| c.workload == WorkloadSpec::DoubleSided)
            .unwrap();
        assert_eq!(
            plan.para_sweep[0].seeds.workload,
            double_cell.seeds.workload
        );
    }

    #[test]
    fn rejects_patterns_that_do_not_fit() {
        let mut c = cfg();
        c.geometry = Geometry::tiny(64);
        c.sides = vec![64];
        assert!(SweepPlan::from_config(&c).is_err());
    }
}
