//! The benchmark's three workloads. Their configs are pinned here rather
//! than read from `bench::reference_config` or `SweepConfig::default()`,
//! which later changes to the simulator may edit.

use rh_cli::SweepConfig;
use rh_core::{derive_seed, DataPattern, Geometry};

/// Worker threads of an in-process sweep, and worker processes of the
/// service: the benchmark host has 2 vCPUs.
pub const PARALLELISM: usize = 2;

/// Stream discriminator for per-job seeds (an arbitrary constant).
const JOB_STREAM: u64 = 0x70B5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The bench reference grid: 512K-row slabs, so scattered benign rows
    /// miss cache and the device layer does most of the work.
    SweepDdr4,
    /// `rh-cli sweep` with today's defaults: cache-resident slabs, where
    /// engine bookkeeping is the largest layer.
    SweepDefault,
    /// The default grid, at half the default activations, sent through a
    /// long-lived `rh-cli serve --workers 2`.
    ServeDefault,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::SweepDdr4, Self::SweepDefault, Self::ServeDefault];

    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload '{name}' (expected one of: {})",
                    names.join(", ")
                )
            })
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::SweepDdr4 => "sweep-ddr4",
            Self::SweepDefault => "sweep-default",
            Self::ServeDefault => "serve-default",
        }
    }

    /// The job this workload runs, at `seed`.
    pub fn config(self, seed: u64) -> SweepConfig {
        match self {
            Self::SweepDdr4 => ddr4_config(seed),
            Self::SweepDefault => default_config(seed),
            Self::ServeDefault => serve_config(seed),
        }
    }

    /// Seed of the untimed canary job whose document digest is pinned in
    /// [`Workload::canary_digest`]: the seed `rh-cli sweep` (default grid)
    /// and `rh-cli bench` (DDR4 grid) use.
    pub fn canary_seed(self) -> u64 {
        match self {
            Self::SweepDdr4 => 0xBE7C4,
            Self::SweepDefault | Self::ServeDefault => 0xC0FFEE,
        }
    }

    /// FNV-1a 64 digest of the canary document, recorded when this
    /// benchmark was written. The `sweep-default` digest is that of `rh-cli
    /// sweep`'s output (without its trailing newline), the simulator's
    /// byte-identical fixed point.
    pub fn canary_digest(self) -> u64 {
        match self {
            Self::SweepDdr4 => 0xb67e_db8f_40df_df01,
            Self::SweepDefault => 0xf431_0dff_944c_9af6,
            Self::ServeDefault => 0xcace_6adc_dbb6_d63a,
        }
    }

    /// Jobs a traced run splits. Fixed, not timed, so the traced run's
    /// counts repeat exactly for a given seed.
    pub fn traced_jobs(self) -> u64 {
        match self {
            Self::SweepDdr4 => 1,
            Self::SweepDefault | Self::ServeDefault => 3,
        }
    }
}

/// Seed of job `index` of a run started with `run_seed`. Every job of a run
/// gets its own seed, so no two jobs share a document (or a cache entry).
pub fn job_seed(run_seed: u64, index: u64) -> u64 {
    derive_seed(run_seed, &[JOB_STREAM, index])
}

/// Fields added to `SweepConfig` after this benchmark was written take
/// their defaults; every field that exists today is pinned.
#[allow(clippy::needless_update)]
fn ddr4_config(seed: u64) -> SweepConfig {
    SweepConfig {
        seed,
        // 1M activations per cell makes a job take seconds: at 200K the
        // per-run medians spread 13% (IQR) over 8 runs, at 1M 4.8%.
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
        ..SweepConfig::default()
    }
}

/// The default grid at half the default activations per cell. The service
/// sizes a lease to `--target-lease-ms 1500` ÷ an EWMA (alpha 0.3) of the
/// latest cells' times, so the 120-cell grid lease goes to one worker
/// while that EWMA is under 12.5 ms. At 200K activations a busy host puts
/// the EWMA close to 12.5 ms and some jobs split across both workers; at
/// 100K it stays at half that or less, so every job runs the same way.
fn serve_config(seed: u64) -> SweepConfig {
    SweepConfig {
        activations: 100_000,
        ..default_config(seed)
    }
}

/// Today's `rh-cli sweep` defaults.
#[allow(clippy::needless_update)]
fn default_config(seed: u64) -> SweepConfig {
    SweepConfig {
        seed,
        activations: 200_000,
        hc_firsts: vec![2_000, 4_000, 8_000, 16_000],
        sides: vec![2, 4, 8, 16],
        para_probabilities: vec![0.0, 0.001, 0.004, 0.016],
        data_patterns: vec![DataPattern::Legacy],
        ecc_codeword_bits: 0,
        benign_fraction: 0.1,
        auto_refresh_interval: 32_000,
        geometry: Geometry {
            channels: 1,
            ranks: 1,
            banks: 4,
            rows_per_bank: 4096,
        },
        ..SweepConfig::default()
    }
}
