//! Differential fuzzing of the SoA settle kernels against the eager
//! reference device.
//!
//! Three devices consume the same seeded random operation stream —
//! `EagerDeviceState` (definitional per-activation ground truth), the SoA
//! `DeviceState` pinned to the scalar kernel, and (when the CPU has it) the
//! SoA `DeviceState` pinned to the AVX2 kernel — and must agree on every
//! trait-level observable at every checkpoint. The stream mixes single
//! activations, coalesced runs (`activate_repeat`), row lists applied in
//! one call (`activate_each`, which the SoA device walks with prefetching),
//! targeted row refreshes, and full-device refreshes, with activations
//! biased toward a small hot set of aggressor rows so disturbance actually
//! accumulates past thresholds instead of diffusing uniformly.
//!
//! This is the paper-level exactness bar stated in the kernel module docs:
//! the kernels are alternative *schedules* of identical f64 operations, so
//! equality here is exact (`==` on integer counters), not approximate.

use rh_core::{
    avx2_available, DataPattern, Device, DeviceState, DeviceTables, EagerDeviceState, Geometry,
    Kernel, RowAddr, SplitMix64, VictimModelParams,
};

/// One random operation drawn from the fuzz distribution.
#[derive(Debug, Clone)]
enum Op {
    Activate(RowAddr),
    ActivateRepeat(RowAddr, u64),
    ActivateEach(Vec<RowAddr>),
    RefreshRow(RowAddr),
    RefreshAll,
}

/// Draw a row address, biased toward a small hot set so hammer counts
/// actually cross `HC_first` within the budget.
fn draw_addr(rng: &mut SplitMix64, geom: &Geometry) -> RowAddr {
    let hot = rng.next_u64() % 100 < 70;
    let row = if hot {
        // Hot set: 8 rows in the middle of bank 0, adjacent enough that
        // their blast radii overlap (double-/many-sided geometry).
        (geom.rows_per_bank / 2 + (rng.next_u64() % 8) as u32) % geom.rows_per_bank
    } else {
        (rng.next_u64() % u64::from(geom.rows_per_bank)) as u32
    };
    RowAddr {
        channel: 0,
        rank: 0,
        bank: (rng.next_u64() % u64::from(geom.banks)) as u32,
        row,
    }
}

/// Draw a list of 0–64 rows for `activate_each`: fresh draws mixed with
/// repeats of the previous row, rows 1–2 from it (their windows share
/// lanes, so the list order matters), and both edge rows of a bank.
fn draw_list(rng: &mut SplitMix64, geom: &Geometry) -> Vec<RowAddr> {
    let len = (rng.next_u64() % 65) as usize;
    let mut rows: Vec<RowAddr> = Vec::with_capacity(len);
    while rows.len() < len {
        let prev = rows.last().copied();
        let next = match (rng.next_u64() % 8, prev) {
            (0, Some(p)) => p,
            (1, Some(p)) => {
                let step = 1 + (rng.next_u64() % 2) as u32;
                let row = if rng.next_u64() & 1 == 0 {
                    p.row.saturating_sub(step)
                } else {
                    (p.row + step).min(geom.rows_per_bank - 1)
                };
                p.with_row(row)
            }
            (2, _) => draw_addr(rng, geom).with_row(0),
            (3, _) => draw_addr(rng, geom).with_row(geom.rows_per_bank - 1),
            _ => draw_addr(rng, geom),
        };
        rows.push(next);
    }
    rows
}

fn draw_op(rng: &mut SplitMix64, geom: &Geometry) -> Op {
    match rng.next_u64() % 100 {
        // Mostly activations: disturbance only accumulates between refreshes.
        0..=59 => Op::Activate(draw_addr(rng, geom)),
        // Row lists exercise `activate_each` (and its prefetch) directly.
        60..=69 => Op::ActivateEach(draw_list(rng, geom)),
        // Coalesced runs exercise `activate_repeat` with n > 1 directly.
        70..=84 => Op::ActivateRepeat(draw_addr(rng, geom), 1 + rng.next_u64() % 512),
        85..=96 => Op::RefreshRow(draw_addr(rng, geom)),
        _ => Op::RefreshAll,
    }
}

fn apply(device: &mut dyn Device, op: &Op) {
    match op {
        Op::Activate(a) => device.activate(*a),
        Op::ActivateRepeat(a, n) => device.activate_repeat(*a, *n),
        Op::ActivateEach(rows) => device.activate_each(rows),
        Op::RefreshRow(a) => device.refresh_row(*a),
        Op::RefreshAll => device.refresh_all(),
    }
}

/// The full trait-observable state of a device.
fn observe(device: &dyn Device) -> (u64, u64, u64, u64, u64, u64) {
    (
        device.total_flips(),
        device.flips_1to0(),
        device.flips_0to1(),
        device.refreshes_issued(),
        device.total_activations(),
        device.flipped_rows(),
    )
}

/// Run one seeded fuzz case: identical op streams through the eager
/// reference, the scalar SoA device, and (if available) the AVX2 SoA
/// device, with observables compared at every checkpoint.
fn fuzz_case(pattern: DataPattern, seed: u64) {
    let geom = Geometry {
        channels: 1,
        ranks: 1,
        banks: 2,
        rows_per_bank: 128,
    };
    let params = VictimModelParams {
        data_pattern: pattern,
        ..VictimModelParams::with_hc_first(600)
    };
    let device_seed = seed ^ 0xD1CE;

    let mut eager = EagerDeviceState::new(geom, params, device_seed);
    let tables = DeviceTables::shared(geom, params, device_seed).unwrap();
    let mut scalar = DeviceState::with_tables_and_kernel(tables.clone(), Kernel::Scalar);
    let mut avx2 =
        avx2_available().then(|| DeviceState::with_tables_and_kernel(tables, Kernel::Avx2));

    let mut rng = SplitMix64::new(seed);
    let ops = 4_000;
    for i in 0..ops {
        let op = draw_op(&mut rng, &geom);
        apply(&mut eager, &op);
        apply(&mut scalar, &op);
        if let Some(avx2) = avx2.as_mut() {
            apply(avx2, &op);
        }
        // Checkpoint often enough to localize a divergence, cheaply enough
        // to keep the suite fast.
        if i % 257 == 0 || i + 1 == ops {
            let want = observe(&eager);
            assert_eq!(
                observe(&scalar),
                want,
                "scalar kernel diverged from eager reference \
                 (pattern {pattern:?}, seed {seed:#x}, op {i}: {op:?})"
            );
            if let Some(avx2) = avx2.as_ref() {
                assert_eq!(
                    observe(avx2),
                    want,
                    "AVX2 kernel diverged from eager reference \
                     (pattern {pattern:?}, seed {seed:#x}, op {i}: {op:?})"
                );
            }
        }
    }
    // Counters hide rounding drift; the final charges do not.
    for bank in 0..geom.banks {
        for row in 0..geom.rows_per_bank {
            let addr = RowAddr::bank_row(bank, row);
            let want = eager.charge_of(addr).to_bits();
            assert_eq!(scalar.charge_of(addr).to_bits(), want, "scalar {addr:?}");
            if let Some(avx2) = avx2.as_ref() {
                assert_eq!(avx2.charge_of(addr).to_bits(), want, "AVX2 {addr:?}");
            }
        }
    }
    // A fuzz run that never flips anything proves nothing about the settle
    // path — the hot-set bias and low HC_first exist to make this hold.
    assert!(
        eager.total_flips() > 0,
        "fuzz case induced no flips (pattern {pattern:?}, seed {seed:#x}); \
         the op distribution no longer stresses the settle path"
    );
}

#[test]
fn kernels_match_eager_reference_on_legacy_pattern() {
    for seed in [0x5EED_0001, 0x5EED_0002, 0x5EED_0003] {
        fuzz_case(DataPattern::Legacy, seed);
    }
}

#[test]
fn kernels_match_eager_reference_on_solid_pattern() {
    for seed in [0x50_1D_01, 0x50_1D_02, 0x50_1D_03] {
        fuzz_case(DataPattern::Solid, seed);
    }
}

#[test]
fn kernels_match_eager_reference_on_checkerboard_pattern() {
    for seed in [0xC4EC_4001, 0xC4EC_4002, 0xC4EC_4003] {
        fuzz_case(DataPattern::Checkerboard, seed);
    }
}

#[test]
fn kernels_match_eager_reference_on_row_stripe_pattern() {
    for seed in [0x57_21_9E_01, 0x57_21_9E_02, 0x57_21_9E_03] {
        fuzz_case(DataPattern::RowStripe, seed);
    }
}
