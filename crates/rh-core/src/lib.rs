//! # rh-core — DRAM device model
//!
//! Bottom layer of the RowHammer simulation workspace reproducing
//! Kim et al., *"Revisiting RowHammer: An Experimental Analysis of Modern
//! DRAM Devices and Mitigation Techniques"* (ISCA 2020).
//!
//! This crate knows nothing about mitigations or access patterns. It provides:
//!
//! * [`Geometry`] / [`RowAddr`] — channel/rank/bank/row addressing and
//!   row-adjacency math (blast radius, clipped at bank edges);
//! * [`DeviceState`] — activation accounting and a charge-leakage
//!   victim model parameterized by `HC_first` (the minimum hammer count that
//!   induces the first bit flip) and a distance-attenuated blast radius,
//!   with an allocation-free hot path: `Arc`-shared [`DeviceTables`]
//!   (thresholds + attenuation), epoch-based O(1) `refresh_all`, and an
//!   incrementally-maintained flipped-row counter (see `device` module docs);
//! * [`Device`] — the trait the engine drives, implemented by both the
//!   optimized [`DeviceState`] and the retained eager reference
//!   ([`reference::EagerDeviceState`]) that the differential and
//!   legacy-equivalence tests compare against;
//! * [`Kernel`] — the swappable leak-and-settle kernels over the
//!   structure-of-arrays row state (autovectorization-friendly scalar,
//!   runtime-detected AVX2 intrinsics), chosen by [`Kernel::auto`] from
//!   the CPU (the `RH_FORCE_SCALAR` environment variable forces scalar),
//!   never affecting results (see `kernel` module docs);
//! * [`DataPattern`] and [`ecc`] — the Section 5 victim model: stored data
//!   patterns whose aggressor/victim relationship scales coupling,
//!   seed-derived true-/anti-cell orientation (flip direction tracked as
//!   separate 1→0 / 0→1 tallies), and an optional on-die ECC layer that
//!   masks single-bit flips per codeword;
//! * [`SplitMix64`] — a small deterministic seeded RNG so every experiment
//!   in the workspace is exactly reproducible.
//!
//! Upper layers: `rh-mitigations` (policy), `rh-workloads` (access-pattern
//! generators), `rh-cli` (sweep driver, service, JSON reporting).

pub mod device;
pub mod ecc;
pub mod geometry;
pub mod kernel;
pub mod pattern;
pub mod reference;
pub mod rng;

pub use device::{Device, DeviceState, DeviceTables, FlipCounts, VictimModelParams};
pub use geometry::{Geometry, RowAddr, MAX_TOTAL_ROWS};
pub use kernel::{avx2_available, Kernel};
pub use pattern::DataPattern;
pub use reference::EagerDeviceState;
pub use rng::{derive_seed, SplitMix64};
