//! Retained eager-zeroing reference device — the pre-optimization semantics,
//! kept as an executable specification.
//!
//! [`EagerDeviceState`] is the device model as it stood before the hot-path
//! rework: `refresh_all` eagerly zeroes every row's charge (O(total_rows)
//! per call), thresholds are re-derived at every construction, coupling
//! attenuation is computed with `powi` per victim per activation, and
//! `flipped_rows` is an end-of-run full-device scan. It exists for two
//! consumers:
//!
//! * **Differential tests** (below): seeded random action sequences driven
//!   through both implementations must produce identical flip counts,
//!   charges, and refresh tallies — the proof that epoch-based lazy refresh
//!   is an observational no-op.
//! * **The legacy-equivalence test** (`rh-cli`'s
//!   `tests/legacy_equivalence.rs`): a fresh device of this kind per cell,
//!   under the map-based mitigations and an unbatched loop, must reproduce
//!   every result of the shipping sweep path on two reference grids.
//!
//! The Section 5 victim model (data patterns, true-/anti-cells, on-die
//! ECC) is implemented here in the same eager, straight-line style —
//! per-victim `powi` times the pattern factor, per-row orientation/budget
//! vectors consulted at settle time — so the differential tests extend to
//! the new axes: both devices must agree on the 1→0 / 0→1 split and the
//! post-ECC counts too.

use crate::device::{Device, VictimModelParams, CELL_ORIENTATION_STREAM};
use crate::ecc;
use crate::geometry::{Geometry, RowAddr};
use crate::rng::{derive_seed, SplitMix64};

/// Pre-optimization device model: eager refresh, per-construction threshold
/// derivation, per-activation `powi`, full-scan flip-row counting.
#[derive(Debug, Clone)]
pub struct EagerDeviceState {
    geom: Geometry,
    params: VictimModelParams,
    seed: u64,
    charge: Vec<f64>,
    threshold: Vec<f64>,
    flips: Vec<u32>,
    /// Per-row true-/anti-cell orientation (true = anti-cell, flips 0→1).
    anti: Vec<bool>,
    /// Per-row charged-cell budget under the selected data pattern.
    vuln: Vec<u32>,
    total_flips: u64,
    total_activations: u64,
    refreshes_issued: u64,
    flips_1to0: u64,
    flips_0to1: u64,
}

impl EagerDeviceState {
    /// Derives thresholds in full on every call — deliberately, as the
    /// pre-optimization engine did per cell.
    pub fn new(geom: Geometry, params: VictimModelParams, seed: u64) -> Self {
        geom.validate()
            .unwrap_or_else(|e| panic!("invalid device geometry: {e}"));
        let n = geom.total_rows() as usize;
        let mut rng = SplitMix64::new(seed);
        let threshold = (0..n)
            .map(|_| params.hc_first as f64 * (1.0 + params.threshold_jitter * rng.next_f64()))
            .collect();
        // Same orientation stream as the optimized tables: the layout is a
        // pure function of the device seed, so both implementations agree.
        let mut orient_rng = SplitMix64::new(derive_seed(seed, &[CELL_ORIENTATION_STREAM]));
        let anti: Vec<bool> = (0..n).map(|_| orient_rng.next_u64() & 1 == 1).collect();
        let vuln = anti
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                params.data_pattern.vulnerable_cells(
                    params.cells_per_row,
                    i as u32 % geom.rows_per_bank,
                    a,
                )
            })
            .collect();
        Self {
            geom,
            params,
            seed,
            charge: vec![0.0; n],
            threshold,
            flips: vec![0; n],
            anti,
            vuln,
            total_flips: 0,
            total_activations: 0,
            refreshes_issued: 0,
            flips_1to0: 0,
            flips_0to1: 0,
        }
    }

    /// Accumulated charge of a row (test/diagnostic hook).
    pub fn charge_of(&self, addr: RowAddr) -> f64 {
        self.charge[self.geom.flat_index(addr)]
    }

    fn settle_flips(&mut self, idx: usize) {
        let c = self.charge[idx];
        let t = self.threshold[idx];
        if c < t {
            return;
        }
        let vuln = self.vuln[idx];
        if vuln == 0 {
            return;
        }
        let overshoot = (c - t) / self.params.hc_first as f64;
        let expected = 1 + (overshoot * self.params.flip_slope * vuln as f64) as u32;
        let expected = expected.min(vuln);
        if expected > self.flips[idx] {
            let added = (expected - self.flips[idx]) as u64;
            self.total_flips += added;
            if self.anti[idx] {
                self.flips_0to1 += added;
            } else {
                self.flips_1to0 += added;
            }
            self.flips[idx] = expected;
        }
    }
}

impl Device for EagerDeviceState {
    fn geometry(&self) -> &Geometry {
        &self.geom
    }

    fn params(&self) -> &VictimModelParams {
        &self.params
    }

    fn activate(&mut self, addr: RowAddr) {
        self.total_activations += 1;
        for (victim, dist) in addr.neighbors(&self.geom, self.params.blast_radius) {
            let vi = self.geom.flat_index(victim);
            self.charge[vi] += self.params.coupling_decay.powi(dist as i32 - 1)
                * self.params.data_pattern.coupling_factor(dist);
            self.settle_flips(vi);
        }
    }

    fn refresh_row(&mut self, addr: RowAddr) {
        let idx = self.geom.flat_index(addr);
        self.charge[idx] = 0.0;
        self.refreshes_issued += 1;
    }

    /// Eager O(total_rows) zeroing — the cost the epoch scheme eliminates.
    fn refresh_all(&mut self) {
        for c in &mut self.charge {
            *c = 0.0;
        }
        self.refreshes_issued += self.geom.total_rows();
    }

    fn total_flips(&self) -> u64 {
        self.total_flips
    }

    /// Full-device scan — the cost the incremental counter eliminates.
    fn flipped_rows(&self) -> u64 {
        self.flips.iter().filter(|&&f| f > 0).count() as u64
    }

    fn flips_per_mact(&self) -> f64 {
        if self.total_activations == 0 {
            return 0.0;
        }
        self.total_flips as f64 * 1e6 / self.total_activations as f64
    }

    fn total_activations(&self) -> u64 {
        self.total_activations
    }

    fn refreshes_issued(&self) -> u64 {
        self.refreshes_issued
    }

    fn flips_1to0(&self) -> u64 {
        self.flips_1to0
    }

    fn flips_0to1(&self) -> u64 {
        self.flips_0to1
    }

    /// Same post-run scan as the optimized device ([`crate::ecc`]): ECC is
    /// an observation filter, not a dynamic, so both paths share the spec.
    fn post_ecc_flips(&self) -> Option<u64> {
        let cw = self.params.ecc_codeword_bits;
        if cw == 0 {
            return None;
        }
        Some(ecc::post_ecc_total(
            self.flips.iter().copied(),
            self.params.cells_per_row,
            cw,
            self.seed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceState;

    /// Drive both implementations through an identical seeded random action
    /// sequence (activations, targeted refreshes, full refreshes) and assert
    /// they agree on every observable at every checkpoint.
    fn differential_run(
        geom: Geometry,
        params: VictimModelParams,
        device_seed: u64,
        ops_seed: u64,
    ) {
        let mut fast = DeviceState::new(geom, params, device_seed);
        let mut eager = EagerDeviceState::new(geom, params, device_seed);
        let mut rng = SplitMix64::new(ops_seed);
        let rows = geom.rows_per_bank as u64;
        for step in 0..30_000u32 {
            let r = rng.next_f64();
            if r < 0.975 {
                // Hammer a small hot set so thresholds are actually crossed
                // between the (rare) full refreshes below.
                let row = (rng.gen_range(4) * 2 + rows / 2 - 4) as u32;
                let addr = RowAddr::bank_row(0, row);
                fast.activate(addr);
                eager.activate(addr);
            } else if r < 0.9995 {
                let addr = RowAddr::bank_row(0, rng.gen_range(rows) as u32);
                fast.refresh_row(addr);
                eager.refresh_row(addr);
            } else {
                fast.refresh_all();
                eager.refresh_all();
            }
            if step % 1_000 == 0 {
                assert_eq!(fast.total_flips(), eager.total_flips(), "step {step}");
            }
        }
        assert_eq!(fast.total_flips(), eager.total_flips());
        assert_eq!(fast.flipped_rows(), eager.flipped_rows());
        assert_eq!(fast.total_activations(), eager.total_activations());
        assert_eq!(fast.refreshes_issued(), eager.refreshes_issued());
        assert_eq!(fast.flips_1to0(), eager.flips_1to0());
        assert_eq!(fast.flips_0to1(), eager.flips_0to1());
        assert_eq!(fast.post_ecc_flips(), eager.post_ecc_flips());
        assert!(fast.total_flips() > 0, "sequence must exercise flips");
        for row in 0..geom.rows_per_bank {
            let addr = RowAddr::bank_row(0, row);
            assert_eq!(
                fast.charge_of(addr).to_bits(),
                eager.charge_of(addr).to_bits(),
                "charge diverged at row {row}"
            );
        }
        // And the incremental counter agrees with its own full scan too.
        assert_eq!(fast.flipped_rows(), fast.flipped_rows_scan());
    }

    #[test]
    fn epoch_refresh_is_observationally_identical_to_eager() {
        let geom = Geometry::tiny(128);
        differential_run(geom, VictimModelParams::with_hc_first(400), 0xC0FFEE, 1);
        differential_run(geom, VictimModelParams::with_hc_first(1200), 7, 2);
    }

    #[test]
    fn differential_holds_with_zero_jitter_and_wide_blast() {
        let geom = Geometry::tiny(256);
        let params = VictimModelParams {
            threshold_jitter: 0.0,
            blast_radius: 4,
            ..VictimModelParams::with_hc_first(600)
        };
        differential_run(geom, params, 99, 3);
    }

    /// Section 5 axes: both implementations must agree on pattern-scaled
    /// coupling, the 1→0 / 0→1 split, and post-ECC counts.
    #[test]
    fn differential_holds_for_every_data_pattern_with_ecc() {
        use crate::pattern::DataPattern;
        let geom = Geometry::tiny(128);
        for (i, pattern) in DataPattern::ALL.into_iter().enumerate() {
            let params = VictimModelParams {
                data_pattern: pattern,
                ecc_codeword_bits: 128,
                ..VictimModelParams::with_hc_first(400)
            };
            differential_run(geom, params, 0xC0FFEE + i as u64, 1 + i as u64);
        }
    }
}
