//! The simulation engine: one experiment = one (device, workload,
//! mitigation) triple driven for a fixed activation budget.
//!
//! Per activation the engine (1) asks the workload for the next row,
//! (2) lets the mitigation observe it, (3) applies the activation to the
//! device, then (4) applies the mitigation's refresh actions. Activations
//! double as the unit of simulated time: the periodic auto-refresh that
//! real DRAM performs every tREFW is modeled as a full-device refresh every
//! `auto_refresh_interval` activations.
//!
//! ## Hot-loop shape
//!
//! The loop is **batched**: activations are pulled from the workload in
//! fixed-size chunks ([`BATCH`]) into a reusable buffer via
//! [`Workload::fill_batch`] — one virtual call per chunk, with the fill
//! loop monomorphized inside the concrete workload — and the per-chunk
//! inner loop applies mitigation observation, device charge updates, victim
//! settling, and mitigation actions with zero virtual dispatch: the engine
//! is generic over [`Device`] *and* [`Mitigation`], and the executor
//! instantiates it with the [`rh_mitigations::MitigationKind`] enum, so
//! per-activation mitigation dispatch is a match on a variant tag that
//! inlines each `on_activate` body into the loop. Chunks are clipped to the
//! next tREFW boundary, so batching is byte-identical to the unbatched
//! step-at-a-time loop (which `tests/legacy_equivalence.rs` retains as its
//! legacy path).
//!
//! On top of batching, the inner loop **coalesces the aggressors' activation
//! runs**. The workload declares the rows it hammers
//! ([`Workload::aggressors`]), and each declared aggressor owns a fixed run
//! slot for the whole cell: its activations only bump the slot's count, and
//! a flush applies every nonzero slot as one [`Device::activate_repeat`]
//! call, which walks the blast window once with register-resident
//! per-victim partial sums and settles once. Before the loop starts, the
//! engine sorts each row near an aggressor into one of three classes,
//! asking [`Device::runs_commute`] about each nearby (row, aggressor) pair;
//! the loop then handles an activation by its row's class:
//!
//! * **slot *i*** (aggressor *i* itself): bump the slot's count;
//! * **commutes with every aggressor**: append it to the *deferred* list,
//!   in stream order, while the slots stay pending;
//! * **conflicts with some aggressor**: flush the slots and the deferred
//!   list, then activate.
//!
//! The deferred list is applied with one [`Device::activate_each`] call at
//! every flush and at every chunk end, so it never holds more than
//! [`BATCH`] rows. Those are mostly benign rows scattered over the whole
//! device: handed over together, they let the device prefetch rows ahead of
//! the one it applies, where one `activate` per row would wait out each
//! cache miss in turn.
//!
//! Only rows of the aggressors' bank within [`Device::conflict_radius`]
//! rows of the declared span need a table entry — the radius promises that
//! every other row commutes — so the table holds a few entries per
//! aggressor. Under the default radius-2 model, rows 0, 2 or 4 apart
//! commute (the double- and many-sided geometries, so every sweep pattern
//! coalesces into its slots), and a benign row 1 or 3 rows from an
//! aggressor conflicts.
//!
//! This is exact, not approximate. Two runs commute when their windows
//! either miss each other or meet only on lanes drawing *equal* quanta from
//! both; every shared lane's charge is then a sum of equal addends, which
//! any interleaving evaluates to the same bits. The slots are checked to
//! commute pairwise, so their flush order is free. Two reorderings remain,
//! and each moves one application only past activations it commutes with:
//!
//! * *early application*: when a chunk ends, its deferred rows are applied
//!   ahead of slot activations that arrived before them and still pend —
//!   each a length-1 run moved earlier past runs it commutes with;
//! * *late application*: at a flush the slots go first, so a deferred row
//!   lands after slot activations that arrived later — a length-1 run moved
//!   later past runs it commutes with. It never moves past a conflicting
//!   row, an action or a refresh (each flushes the list first), nor past
//!   another deferred row (the list keeps stream order).
//!
//! Either way every shared lane ends at the same sum of equal addends, and
//! the settle of whichever application reaches it last completes any
//! earlier one. `activate_repeat` performs the identical per-lane fp
//! additions in the identical order, and recorded flips are a monotone
//! function of each lane's (monotone nondecreasing) charge, so settling at
//! flush time records what per-activation settling would have (see the
//! `rh-core` kernel docs). The mitigation still observes every activation
//! individually, so sampling mitigations (PARA) consume their RNG stream and
//! tracker tables count activations exactly as in the step-at-a-time loop;
//! any emitted action — and every tREFW boundary — flushes the slots and
//! the deferred list before the refresh lands.
//!
//! A run goes **uncoalesced** — no slots, every activation deferred and
//! applied in stream order, exact but slower — when the workload declares
//! no aggressors, when the device promises no conflict radius (the eager
//! reference, whose `runs_commute` admits only literal repeats), or when
//! the declared aggressors span banks or fail pairwise `runs_commute`. The
//! declaration is a hint, never an input to the result: a wrong one costs
//! speed, not bits.
//!
//! The loop is allocation-free: the caller supplies the device (built once
//! per worker thread and reset per cell) and an [`EngineScratch`] whose
//! buffers reach steady-state capacity within the first chunk and are
//! reused for the rest of the run.

use rh_core::{Device, RowAddr};
use rh_mitigations::{ActionBuf, Mitigation, MitigationAction};
use rh_workloads::Workload;

/// Activations pulled from the workload per chunk. Large enough to amortize
/// the per-chunk virtual call to nothing, small enough that the chunk
/// buffer (16 bytes/address → 16 KiB) stays L1-resident.
pub const BATCH: usize = 1024;

/// Reusable per-run buffers for the engine hot loop: the mitigation action
/// sink, the workload chunk buffer, the aggressor run slots, the deferred
/// commuting rows and the row class table. One instance per worker thread,
/// reused across every cell the worker executes; each run rebuilds the
/// slots and the table from its workload's declared aggressors.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// Sink the mitigation writes refresh actions into (cleared per
    /// activation, capacity retained).
    actions: ActionBuf,
    /// Chunk of upcoming activations (refilled per [`BATCH`], capacity
    /// retained).
    batch: Vec<RowAddr>,
    /// One run slot per declared aggressor: its address and the
    /// activations not yet applied to the device.
    slots: Vec<(RowAddr, u64)>,
    /// Rows that commute with every slot, in stream order, not yet applied
    /// to the device: emptied by one [`Device::activate_each`] at every
    /// flush and every chunk end, so it never outgrows [`BATCH`].
    deferred: Vec<RowAddr>,
    /// How each row relates to the slots.
    classes: RowClasses,
}

impl EngineScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Class of a row that commutes with every aggressor slot.
const COMMUTES: u32 = u32::MAX;
/// Class of a row that fails to commute with some aggressor slot.
const CONFLICTS: u32 = u32::MAX - 1;

/// The per-cell class table: for each row of the aggressors' bank from
/// `lo` on, a slot index, [`COMMUTES`] or [`CONFLICTS`]. Every row outside
/// it commutes.
#[derive(Debug, Default)]
struct RowClasses {
    bank: (u32, u32, u32),
    lo: u32,
    table: Vec<u32>,
}

fn bank_of(a: RowAddr) -> (u32, u32, u32) {
    (a.channel, a.rank, a.bank)
}

impl RowClasses {
    /// Give each declared aggressor a slot, in row order, and classify the
    /// rows within the device's conflict radius of them — or leave both
    /// empty, so every row commutes: the uncoalesced loop (see the module
    /// docs for when). Farther rows and pairs commute by the radius
    /// contract, so the cost is linear in the number of aggressors.
    fn rebuild<D: Device + ?Sized>(
        &mut self,
        device: &D,
        aggressors: &[RowAddr],
        slots: &mut Vec<(RowAddr, u64)>,
    ) {
        slots.clear();
        self.table.clear();
        let (Some(&first), Some(radius)) = (aggressors.first(), device.conflict_radius()) else {
            return;
        };
        self.bank = bank_of(first);
        if aggressors.iter().any(|&a| bank_of(a) != self.bank) {
            return;
        }
        slots.extend(aggressors.iter().map(|&a| (a, 0)));
        slots.sort_unstable_by_key(|&(a, _)| a.row);
        let commute = slots.iter().enumerate().all(|(i, &(a, _))| {
            slots[i + 1..]
                .iter()
                .take_while(|(b, _)| b.row - a.row <= radius)
                .all(|&(b, _)| device.runs_commute(a, b))
        });
        if !commute {
            slots.clear();
            return;
        }
        let (min, max) = (slots[0].0.row, slots[slots.len() - 1].0.row);
        self.lo = min.saturating_sub(radius);
        let bank_end = device.geometry().rows_per_bank.saturating_sub(1);
        let hi = max.saturating_add(radius).min(bank_end);
        self.table
            .resize((hi + 1).saturating_sub(self.lo) as usize, COMMUTES);
        for &(a, _) in slots.iter() {
            for row in a.row.saturating_sub(radius)..=a.row.saturating_add(radius).min(hi) {
                if !device.runs_commute(a, a.with_row(row)) {
                    self.table[(row - self.lo) as usize] = CONFLICTS;
                }
            }
        }
        for (slot, &(a, _)) in slots.iter().enumerate() {
            if let Some(class) = self.table.get_mut(a.row.wrapping_sub(self.lo) as usize) {
                *class = slot as u32;
            }
        }
    }

    /// Class of `addr`: a slot index, [`COMMUTES`] or [`CONFLICTS`].
    #[inline]
    fn of(&self, addr: RowAddr) -> u32 {
        if bank_of(addr) != self.bank {
            return COMMUTES;
        }
        self.table
            .get(addr.row.wrapping_sub(self.lo) as usize)
            .copied()
            .unwrap_or(COMMUTES)
    }
}

/// Apply every pending slot to the device as one run and empty it, then
/// the deferred rows, in stream order. Any slot order is bit-identical (the
/// slots commute pairwise), and so is applying the deferred rows after them
/// (each commutes with every slot); slots with nothing pending are skipped,
/// so `activate_repeat(addr, 0)` never reaches the device.
#[inline]
fn flush<D: Device + ?Sized>(
    slots: &mut [(RowAddr, u64)],
    deferred: &mut Vec<RowAddr>,
    device: &mut D,
) {
    for (addr, n) in slots.iter_mut() {
        if *n > 0 {
            device.activate_repeat(*addr, *n);
            *n = 0;
        }
    }
    apply_deferred(deferred, device);
}

/// Apply the deferred rows in stream order and empty the list.
#[inline]
fn apply_deferred<D: Device + ?Sized>(deferred: &mut Vec<RowAddr>, device: &mut D) {
    if !deferred.is_empty() {
        device.activate_each(deferred);
        deferred.clear();
    }
}

/// Outcome of a single experiment run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub mitigation: String,
    pub hc_first: u64,
    /// Stored data pattern the device ran under (`"legacy"` for the
    /// pattern-agnostic model).
    pub data_pattern: String,
    pub activations: u64,
    /// Raw (pre-ECC) bit flips recorded by the device.
    pub total_flips: u64,
    pub flipped_rows: u64,
    pub flips_per_mact: f64,
    pub refreshes_issued: u64,
    /// Flips in true-cell rows (1→0); with `flips_0to1` this partitions
    /// `total_flips`.
    pub flips_1to0: u64,
    /// Flips in anti-cell rows (0→1).
    pub flips_0to1: u64,
    /// Flips still visible after on-die ECC; `None` when ECC is disabled.
    pub post_ecc_flips: Option<u64>,
}

/// Drive `workload` through `mitigation` into `device` for `activations`
/// steps, using `scratch` for the chunk buffer and action sink.
///
/// The device must be freshly constructed or reset
/// (`DeviceState::reset_for_cell`) — the engine accounts activations and
/// flips from zero. Determinism: the result is a pure function of the
/// device's tables/seed and the workload/mitigation construction seeds,
/// which is the basis for common-random-number comparisons across
/// mitigations and for byte-identical sharded sweeps. Chunking never
/// crosses a tREFW boundary, and run coalescing is exact (see the module
/// docs), so results are identical for any chunk size — including the
/// unbatched step-at-a-time loop `tests/legacy_equivalence.rs` retains as
/// its legacy path.
pub fn run_experiment<D, W, M>(
    device: &mut D,
    workload: &mut W,
    mitigation: &mut M,
    activations: u64,
    auto_refresh_interval: u64,
    scratch: &mut EngineScratch,
) -> RunResult
where
    D: Device,
    W: Workload + ?Sized,
    M: Mitigation + ?Sized,
{
    let geom = *device.geometry();
    let EngineScratch {
        actions,
        batch,
        slots,
        deferred,
        classes,
    } = scratch;
    classes.rebuild(device, workload.aggressors(), slots);
    let mut remaining = activations;
    let mut until_refresh = if auto_refresh_interval > 0 {
        auto_refresh_interval
    } else {
        u64::MAX
    };
    while remaining > 0 {
        let n = remaining.min(until_refresh).min(BATCH as u64);
        workload.fill_batch(batch, n as usize);
        for &addr in batch.iter() {
            actions.clear();
            mitigation.on_activate(addr, &geom, actions);
            // A mitigation action must land after every pending run,
            // including this activation's.
            let acted = !actions.is_empty();
            let class = classes.of(addr);
            match slots.get_mut(class as usize) {
                Some(slot) => slot.1 += 1,
                None if class == CONFLICTS => {
                    flush(slots, deferred, device);
                    device.activate(addr);
                }
                None => deferred.push(addr),
            }
            if acted {
                flush(slots, deferred, device);
            }
            for action in actions.actions() {
                match *action {
                    MitigationAction::RefreshRow(row) => device.refresh_row(row),
                    MitigationAction::RefreshAll => device.refresh_all(),
                }
            }
        }
        apply_deferred(deferred, device);
        remaining -= n;
        if auto_refresh_interval > 0 {
            until_refresh -= n;
            if until_refresh == 0 {
                flush(slots, deferred, device);
                device.refresh_all();
                mitigation.reset();
                until_refresh = auto_refresh_interval;
            }
        }
    }
    flush(slots, deferred, device);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rh_core::{DeviceState, EagerDeviceState, Geometry, VictimModelParams};
    use rh_mitigations::NoMitigation;
    use rh_workloads::SingleSided;

    fn run(
        geom: Geometry,
        params: VictimModelParams,
        activations: u64,
        refresh_interval: u64,
    ) -> RunResult {
        let mut device = DeviceState::new(geom, params, 1);
        let mut w = SingleSided::new(RowAddr::bank_row(0, 32));
        run_experiment(
            &mut device,
            &mut w,
            &mut NoMitigation,
            activations,
            refresh_interval,
            &mut EngineScratch::new(),
        )
    }

    #[test]
    fn unmitigated_hammer_flips_auto_refresh_prevents() {
        let geom = Geometry::tiny(64);
        let params = VictimModelParams::with_hc_first(1000);

        let r = run(geom, params, 5_000, 0);
        assert!(r.total_flips > 0, "unmitigated hammering must flip bits");

        // Auto-refresh well below HC_first: no window accumulates enough.
        let r = run(geom, params, 5_000, 500);
        assert_eq!(r.total_flips, 0);
    }

    /// Chunking must not move the tREFW boundary: intervals that are not
    /// multiples of BATCH (and smaller than BATCH) must refresh at exactly
    /// the same activation counts as the step-at-a-time loop.
    #[test]
    fn batched_refresh_boundaries_match_unbatched_loop() {
        let geom = Geometry::tiny(64);
        let params = VictimModelParams::with_hc_first(1000);
        for interval in [1u64, 499, 500, 1000, 1023, 1024, 1025, 4096, 7777] {
            for activations in [5_000u64, 5_120] {
                let batched = run(geom, params, activations, interval);
                // Reference: unbatched loop, refresh when step % interval == 0.
                let mut device = DeviceState::new(geom, params, 1);
                let mut w = SingleSided::new(RowAddr::bank_row(0, 32));
                for step in 1..=activations {
                    device.activate(w.next_access());
                    if step % interval == 0 {
                        device.refresh_all();
                    }
                }
                assert_eq!(
                    batched.refreshes_issued,
                    device.refreshes_issued(),
                    "interval {interval} acts {activations}"
                );
                assert_eq!(
                    batched.total_flips,
                    device.total_flips(),
                    "interval {interval} acts {activations}"
                );
            }
        }
    }

    fn drive<D: Device>(device: &mut D) -> RunResult {
        let mut w = SingleSided::new(RowAddr::bank_row(0, 32));
        run_experiment(
            device,
            &mut w,
            &mut NoMitigation,
            5_000,
            1_500,
            &mut EngineScratch::new(),
        )
    }

    #[test]
    fn optimized_and_eager_devices_agree_through_the_engine() {
        let geom = Geometry::tiny(64);
        let params = VictimModelParams::with_hc_first(1000);
        let a = drive(&mut DeviceState::new(geom, params, 1));
        let b = drive(&mut EagerDeviceState::new(geom, params, 1));
        assert_eq!(a.total_flips, b.total_flips);
        assert_eq!(a.flipped_rows, b.flipped_rows);
        assert_eq!(a.refreshes_issued, b.refreshes_issued);
        assert!(a.total_flips > 0);
    }

    /// A mitigation that refreshes one victim of every `k`-th activation —
    /// built to break coalesced runs mid-stream, so the flush ordering
    /// (pending run before the action's refresh) is what's under test.
    struct EveryKth {
        k: u64,
        seen: u64,
    }

    impl Mitigation for EveryKth {
        fn name(&self) -> String {
            format!("every-{}th", self.k)
        }

        fn on_activate(&mut self, addr: RowAddr, geom: &Geometry, out: &mut ActionBuf) {
            self.seen += 1;
            if self.seen.is_multiple_of(self.k) && addr.row + 1 < geom.rows_per_bank {
                out.refresh_row(RowAddr {
                    row: addr.row + 1,
                    ..addr
                });
            }
        }

        fn reset(&mut self) {}
    }

    /// The coalescer must be invisible: with a mitigation firing actions at
    /// arbitrary points inside same-address runs, the engine must match the
    /// definitional step-at-a-time loop on every observable. The eager
    /// reference keeps the default one-at-a-time `activate_repeat`, so
    /// driving it through the same engine exercises exactly that
    /// comparison; `k` sweeps runs broken at different offsets.
    #[test]
    fn coalesced_runs_broken_by_mitigation_actions_match_stepwise_loop() {
        let geom = Geometry::tiny(64);
        let params = VictimModelParams::with_hc_first(300);
        for k in [1u64, 2, 3, 7, 64, 1000] {
            let mut fast = DeviceState::new(geom, params, 1);
            let mut w = SingleSided::new(RowAddr::bank_row(0, 32));
            let a = run_experiment(
                &mut fast,
                &mut w,
                &mut EveryKth { k, seen: 0 },
                20_000,
                7_777,
                &mut EngineScratch::new(),
            );
            let mut eager = EagerDeviceState::new(geom, params, 1);
            let mut w = SingleSided::new(RowAddr::bank_row(0, 32));
            let b = run_experiment(
                &mut eager,
                &mut w,
                &mut EveryKth { k, seen: 0 },
                20_000,
                7_777,
                &mut EngineScratch::new(),
            );
            assert_eq!(a.total_flips, b.total_flips, "k={k}");
            assert_eq!(a.flipped_rows, b.flipped_rows, "k={k}");
            assert_eq!(a.refreshes_issued, b.refreshes_issued, "k={k}");
            assert_eq!(a.flips_1to0, b.flips_1to0, "k={k}");
            assert_eq!(a.flips_0to1, b.flips_0to1, "k={k}");
            if k > 3 {
                assert!(a.total_flips > 0, "k={k} must exercise flips");
            }
        }
    }

    /// Slot coalescing must also be invisible when the traffic mixes wide
    /// aggressor sets with scattered benign rows — the geometry that
    /// exercises commuting rows applied at once and conflicting rows that
    /// flush, together. Sixteen sides is the default grid's widest pattern.
    #[test]
    fn mixed_benign_traffic_matches_eager_reference() {
        use rh_workloads::WorkloadSpec;
        let geom = Geometry {
            channels: 1,
            ranks: 1,
            banks: 2,
            rows_per_bank: 256,
        };
        let params = VictimModelParams::with_hc_first(400);
        for spec in [
            WorkloadSpec::SingleSided,
            WorkloadSpec::DoubleSided,
            WorkloadSpec::ManySided { sides: 8 },
            WorkloadSpec::ManySided { sides: 16 },
        ] {
            let mut w = spec.build(&geom, 0.25, 0xBE7C4).unwrap();
            let mut fast = DeviceState::new(geom, params, 1);
            let a = run_experiment(
                &mut fast,
                &mut w,
                &mut NoMitigation,
                50_000,
                7_777,
                &mut EngineScratch::new(),
            );
            let mut w = spec.build(&geom, 0.25, 0xBE7C4).unwrap();
            let mut eager = EagerDeviceState::new(geom, params, 1);
            let b = run_experiment(
                &mut eager,
                &mut w,
                &mut NoMitigation,
                50_000,
                7_777,
                &mut EngineScratch::new(),
            );
            assert_eq!(a.total_flips, b.total_flips, "{}", a.workload);
            assert_eq!(a.flipped_rows, b.flipped_rows, "{}", a.workload);
            assert_eq!(a.flips_1to0, b.flips_1to0, "{}", a.workload);
            assert_eq!(a.flips_0to1, b.flips_0to1, "{}", a.workload);
            assert!(a.total_flips > 0, "{} must exercise flips", a.workload);
        }
    }

    /// Every counter a [`RunResult`] carries, `flips_per_mact` bit for bit.
    fn assert_same_result(a: &RunResult, b: &RunResult, what: &str) {
        assert_eq!(a.total_flips, b.total_flips, "{what}");
        assert_eq!(a.flipped_rows, b.flipped_rows, "{what}");
        assert_eq!(
            a.flips_per_mact.to_bits(),
            b.flips_per_mact.to_bits(),
            "{what}"
        );
        assert_eq!(a.refreshes_issued, b.refreshes_issued, "{what}");
        assert_eq!(a.flips_1to0, b.flips_1to0, "{what}");
        assert_eq!(a.flips_0to1, b.flips_0to1, "{what}");
        assert_eq!(a.post_ecc_flips, b.post_ecc_flips, "{what}");
    }

    /// A sweep workload whose declared aggressors are replaced by `hint`.
    struct Hinted {
        inner: rh_workloads::BuiltWorkload,
        hint: Vec<RowAddr>,
    }

    impl Workload for Hinted {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn next_access(&mut self) -> RowAddr {
            self.inner.next_access()
        }

        fn aggressors(&self) -> &[RowAddr] {
            &self.hint
        }
    }

    /// Run `w` for 30K activations under `EveryKth { k }`, or under no
    /// mitigation when `k` is `None`.
    fn run_hinted<D: Device>(device: &mut D, w: &mut Hinted, k: Option<u64>) -> RunResult {
        let mut scratch = EngineScratch::new();
        match k {
            None => run_experiment(device, w, &mut NoMitigation, 30_000, 7_777, &mut scratch),
            Some(k) => {
                let mut m = EveryKth { k, seen: 0 };
                run_experiment(device, w, &mut m, 30_000, 7_777, &mut scratch)
            }
        }
    }

    /// The aggressor declaration is a hint: whatever a workload declares,
    /// the coalesced device matches the step-at-a-time eager reference on
    /// every counter and every row's charge. Benign fractions 0.25 and 1.0
    /// put benign rows inside the conflict span and on the declared rows
    /// themselves.
    #[test]
    fn wrong_aggressor_hints_cost_speed_never_bits() {
        use rh_workloads::WorkloadSpec;
        let geom = Geometry {
            channels: 1,
            ranks: 1,
            banks: 2,
            rows_per_bank: 256,
        };
        let params = VictimModelParams {
            ecc_codeword_bits: 64,
            ..VictimModelParams::with_hc_first(400)
        };
        for spec in [
            WorkloadSpec::DoubleSided,
            WorkloadSpec::ManySided { sides: 16 },
        ] {
            let truth = spec.build(&geom, 0.0, 0).unwrap().aggressors().to_vec();
            let first = truth[0];
            let hints = [
                ("nothing", vec![]),
                // Past the bank's last row: no access ever lands there.
                ("never hit", vec![first.with_row(256), first.with_row(258)]),
                ("non-commuting", vec![first, first.with_row(first.row + 1)]),
                ("two banks", vec![first, RowAddr { bank: 1, ..first }]),
                ("true set", truth.clone()),
            ];
            for benign in [0.25, 1.0] {
                for k in [None, Some(7)] {
                    for (label, hint) in &hints {
                        let what = format!("{spec:?} benign {benign} every-kth {k:?} hint {label}");
                        let w = || Hinted {
                            inner: spec.build(&geom, benign, 0x5107).unwrap(),
                            hint: hint.clone(),
                        };
                        let mut fast_device = DeviceState::new(geom, params, 3);
                        let mut eager_device = EagerDeviceState::new(geom, params, 3);
                        let fast = run_hinted(&mut fast_device, &mut w(), k);
                        let eager = run_hinted(&mut eager_device, &mut w(), k);
                        assert_same_result(&fast, &eager, &what);
                        // Flip counts hide rounding drift; the charges of the
                        // last tREFW window do not.
                        for bank in 0..geom.banks {
                            for row in 0..geom.rows_per_bank {
                                let addr = RowAddr::bank_row(bank, row);
                                assert_eq!(
                                    fast_device.charge_of(addr).to_bits(),
                                    eager_device.charge_of(addr).to_bits(),
                                    "{what}: charge of {addr:?}"
                                );
                            }
                        }
                        if benign < 1.0 && k.is_none() {
                            assert!(fast.total_flips > 0, "{what} must exercise flips");
                        }
                    }
                }
            }
        }
    }

    /// The class table: slots for the declared aggressors, and around them
    /// the radius-2 model's commuting (0, 2, 4 apart) and conflicting (1, 3
    /// apart) rows. Unsafe or empty declarations leave no slots at all.
    #[test]
    fn class_table_maps_slots_and_refuses_unsafe_hints() {
        let geom = Geometry {
            channels: 1,
            ranks: 1,
            banks: 2,
            rows_per_bank: 256,
        };
        let params = VictimModelParams::with_hc_first(400);
        let device = DeviceState::new(geom, params, 1);
        let (mut slots, mut classes) = (Vec::new(), RowClasses::default());
        let at = |row| RowAddr::bank_row(0, row);

        classes.rebuild(&device, &[at(127), at(129)], &mut slots);
        assert_eq!(slots, vec![(at(127), 0), (at(129), 0)]);
        let (c, x) = (COMMUTES, CONFLICTS);
        assert_eq!(
            classes.table,
            vec![x, c, x, 0, x, 1, x, c, x],
            "rows 124..=132"
        );
        assert_eq!(classes.of(at(129)), 1);
        assert_eq!(classes.of(at(126)), CONFLICTS);
        assert_eq!(classes.of(at(133)), COMMUTES);
        assert_eq!(classes.of(at(0)), COMMUTES);
        assert_eq!(classes.of(RowAddr::bank_row(1, 127)), COMMUTES);

        // Declaration order does not matter: slots follow row order.
        classes.rebuild(&device, &[at(129), at(127)], &mut slots);
        assert_eq!(slots, vec![(at(127), 0), (at(129), 0)]);
        assert_eq!(classes.table, vec![x, c, x, 0, x, 1, x, c, x]);

        // At the bank edge the table is clipped to the bank's rows.
        classes.rebuild(&device, &[at(1)], &mut slots);
        assert_eq!(classes.table, vec![x, 0, x, c, x], "rows 0..=4");

        let eager = EagerDeviceState::new(geom, params, 1);
        for (device, hint) in [
            (&device as &dyn Device, vec![]),
            (&device, vec![at(127), at(128)]),
            (&device, vec![at(127), RowAddr::bank_row(1, 129)]),
            (&eager, vec![at(127), at(129)]),
        ] {
            classes.rebuild(device, &hint, &mut slots);
            assert!(slots.is_empty() && classes.table.is_empty(), "{hint:?}");
            assert_eq!(classes.of(at(127)), COMMUTES, "{hint:?}");
        }
    }
}
