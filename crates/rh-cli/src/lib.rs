//! # rh-cli — sweep driver and reporting layer
//!
//! Top of the workspace: couples the three lower layers and reproduces the
//! paper's core experiment loop as a **plan → fold → execute → merge**
//! pipeline. [`plan`] expands a declarative [`SweepConfig`] into a flat list
//! of order-independent cells (serializable workload/mitigation specs plus
//! seeds derived in `rh-core` from the root seed and cell coordinates);
//! [`exec`] folds the cells that differ only in `HC_first` under a
//! mitigation that does not read it into one simulation, runs the
//! simulations across scoped worker threads and merges results back into
//! plan order, so any `--threads` value emits byte-identical JSON;
//! [`engine`] drives one cell's activation stream through a mitigation into
//! the device model — batched (`Workload::fill_batch` chunks) and fully
//! monomorphized (`MitigationKind` enum dispatch, concrete workload type);
//! [`json`] renders results as a JSON table (the shape of the paper's
//! Figures 7–9: bit-flip rate vs. hammer count per mitigation); [`configure`]
//! inverts `rh-analysis`' closed-form PARA failure model into a sampling
//! rate.
//!
//! Timing lives outside the crate, in the `perfbench/` harness. The
//! shipping path's agreement with the retained pre-optimization path (eager
//! device, map-based counter mitigations, unbatched dyn dispatch) is the
//! `legacy_equivalence` integration test.
//!
//! The distributed layer ([`serve`], [`worker`], [`proto`], [`cache`]) runs
//! the same pipeline across processes and hosts, hardened by [`faults`] — a
//! deterministic, seeded fault-injection plan (`--fault-plan`) that makes
//! every chaos scenario (crashes, stalls, lossy links, cancels) a
//! reproducible test of the byte-identity invariant. The per-cell
//! checkpoint journal ([`serve`], `--checkpoint-dir`) is the service's one
//! durable store; damage at rest costs one re-executed cell per bad record.

pub mod cache;
pub mod cli;
pub mod configure;
pub mod engine;
pub mod exec;
pub mod faults;
pub mod json;
pub mod plan;
pub mod proto;
pub mod serve;
pub mod sweep;
pub mod worker;

pub use cache::ResultCache;
pub use configure::{
    analytic_pfail, empirical_failure_rate, recommended_p, run_configure, ConfigureOptions,
    ConfigureReport, CROSSVAL_Z,
};
pub use engine::{run_experiment, RunResult};
pub use faults::FaultPlan;
pub use plan::{CellSeeds, CellSpec, SweepPlan};
pub use proto::{config_hash, config_key, ResultEnvelope, PROTO_VERSION};
pub use serve::{
    run_cancel, run_serve, run_submit, CancelOptions, Coordinator, ServeOptions, SubmitOptions,
};
pub use sweep::{run_sweep, SweepConfig, SweepOutput};
pub use worker::{run_worker, WorkerOptions};
