//! Activation accounting and the charge-leakage victim model.
//!
//! Model. Each activation of an aggressor row leaks a distance-attenuated
//! quantum of disturbance into every row inside its blast radius:
//! a victim at distance `d` receives `coupling^(d-1)` units, so a victim at
//! distance 1 needs exactly `HC_first` single-sided hammers to flip, and a
//! double-sided victim flips at roughly `HC_first / 2` hammers per aggressor —
//! matching the experimental relationship in the ISCA 2020 paper. Refreshing
//! a row restores its charge (zeroes accumulated disturbance); bit flips
//! already recorded are permanent until the host rewrites the data, so flip
//! counters are cumulative.
//!
//! Cell-to-cell variation: each row draws a threshold jitter factor at device
//! construction from the seeded RNG. Keeping all randomness at construction
//! (never per-activation) means two simulations with the same seed see
//! byte-identical devices, which the CLI exploits for common-random-number
//! comparisons across mitigation configurations.
//!
//! ## Hot-path design
//!
//! The per-activation path is allocation-free and every per-window cost is
//! amortized O(1):
//!
//! * **Shared tables** ([`DeviceTables`]): the immutable, seed-derived parts
//!   of a device (per-row flip thresholds, the `coupling^(d-1)` attenuation
//!   table and its whole-window quanta template) live in an `Arc` so every
//!   experiment cell simulating the same device (common-random-number
//!   sweeps share the device seed) reuses one O(total_rows) derivation
//!   instead of repeating it per cell.
//! * **Epoch-based lazy refresh**: `refresh_all` — the per-tREFW-window
//!   full-device refresh — bumps a global epoch counter instead of zeroing
//!   `total_rows` charges. A row's charge is valid only if its last-write
//!   epoch matches the global epoch; stale charges read as zero and are
//!   reset lazily on the next write. This turns the dominant O(total_rows)
//!   cost of refresh-heavy configurations (increased-refresh at low
//!   `HC_first`, exactly the regime the paper projects) into O(1).
//! * **Per-cell reset is an epoch bump plus a `flips` clear**
//!   ([`DeviceState::reset_for_cell`]): the same staleness rule retires
//!   every charge an earlier cell wrote, so the only per-row slab a new
//!   cell rewrites is the flip counters; `charge`/`epochs` are
//!   reallocated only when the row count changes.
//! * **Incremental flip accounting**: `flipped_rows` is maintained as a
//!   counter on the 0→nonzero transition in the settle path, replacing the
//!   end-of-run full-device scan ([`DeviceState::flipped_rows_scan`] remains
//!   as the diagnostic reference, asserted equivalent in tests).
//! * **Structure-of-arrays row state + swappable settle kernels**
//!   ([`crate::kernel`]): per-row mutable state lives in parallel
//!   `charge`/`epoch`/`flips` slabs (20 bytes per row), and the settle path
//!   reads the per-row `threshold`/`meta` words in place from the shared
//!   tables, so an activation's blast window is a handful of *contiguous
//!   lanes per field* — exactly the shape SIMD wants. The
//!   leak-accumulate-and-settle step over a window runs through a
//!   [`Kernel`] selected once per device: an
//!   autovectorization-friendly scalar loop or a runtime-detected AVX2
//!   intrinsics kernel (4 × `f64` lanes, rare threshold-crossing lanes
//!   peeled to a scalar settle tail). The aggressor's own lane is included
//!   in the window with quantum `0.0` from the precomputed template —
//!   observationally a no-op (adding `+0.0` to a non-negative charge and
//!   stamping its epoch changes no observable; re-settling an unchanged
//!   charge is idempotent) — so the kernels have no skip-the-aggressor
//!   branch and every window is one dense lane range.
//! * **Coalesced activation runs** ([`DeviceState::activate_repeat`]):
//!   `n` consecutive activations of the same row with nothing in between
//!   collapse into one window pass whose per-lane partial sum stays
//!   register-resident across `n` adds. Bit-exact by construction: each
//!   lane performs the identical fp additions in the identical order, and
//!   since expected flips are a monotone function of final charge, settling
//!   once at the final charge records exactly the flips `n` separate
//!   settles would have.
//! * **Prefetching batches of scattered rows**
//!   ([`DeviceState::activate_each`]): the engine hands over each chunk's
//!   benign rows as one list, applied in order while the `charge`/`epochs`
//!   lines of the row `PREFETCH_AHEAD` (8) places later are prefetched, so
//!   the cache misses of rows scattered over a large device overlap
//!   instead of stalling one activation at a time.
//! * **One run, every `HC_first`** ([`DeviceState::flips_under`]): after
//!   each settle sweep the device keeps each settled row's highest charge
//!   in a sparse peak record — one hashed update per settled lane, nothing
//!   per row that never crosses its threshold, capacity kept across
//!   cells. Since a row's threshold is `hc_first · (1 + jitter · u)` with
//!   the same draw `u` at every `HC_first`, and its flips are a monotone
//!   function of the highest charge it settled at, that record and each
//!   recorded row's threshold recomputed from its draw give exactly the
//!   flips the same activation and refresh stream would have recorded at
//!   any higher `HC_first` — no table set of that `HC_first` is needed.
//!   The sweep executor simulates each group of cells that differ only in
//!   `HC_first` (under a mitigation that never reads it) once, at the
//!   lowest value, and derives the rest.
//!
//! ## Section 5 victim model
//!
//! Three stored-data effects from the paper's Section 5 extend the charge
//! model, all precomputed at table-construction time so the per-activation
//! path keeps its shape:
//!
//! * **Data-pattern dependence** ([`DataPattern`]): the selected pattern's
//!   [`DataPattern::coupling_factor`] is folded into the precomputed
//!   attenuation table (it depends only on distance parity), scaling how
//!   hard aggressors couple into victims.
//! * **True-/anti-cell orientation**: each row draws an orientation bit
//!   from a dedicated RNG stream derived from the device seed (separate
//!   from the threshold stream, so legacy thresholds are unperturbed).
//!   Orientation decides each row's flip direction — true-cell rows fail
//!   `1 → 0`, anti-cell rows `0 → 1` — tracked in separate tallies.
//! * **Charged-cell budget**: pattern × orientation × row parity determine
//!   how many of a row's cells are charged and therefore flippable
//!   ([`DataPattern::vulnerable_cells`]); the budget shares the per-row
//!   `meta` word with the orientation bit, so the settle path reads both
//!   with one load.
//! * **On-die ECC** ([`crate::ecc`]): optional; never touches the dynamics,
//!   applied as a post-run scan over per-row raw flips
//!   ([`DeviceState::post_ecc_flips`]).
//!
//! With [`DataPattern::Legacy`] and ECC disabled (the defaults) every
//! factor is exactly 1.0 and every cell vulnerable: results are
//! byte-identical to the pre-Section-5 engine.
//!
//! The retained eager-zeroing reference implementation lives in
//! [`crate::reference`]; differential tests drive both against seeded random
//! action sequences and assert identical flips, charges, and refresh tallies.

use crate::ecc;
use crate::geometry::{Geometry, RowAddr};
use crate::kernel::{
    expected_flips, leak_window, settles, Kernel, PeakRecord, VictimTally, Window,
};
use crate::pattern::DataPattern;
use crate::rng::{derive_seed, SplitMix64};
use std::sync::Arc;

/// Stream discriminator mixed into the device seed for per-row true-/anti-
/// cell orientation (arbitrary constant; keeping orientation off the
/// threshold stream is what makes the Section 5 axes a pure overlay on the
/// legacy model).
pub(crate) const CELL_ORIENTATION_STREAM: u64 = 0xCE11;

/// High bit of a row's `meta` word: set for anti-cell rows (flips are 0→1).
pub(crate) const ANTI_CELL_BIT: u32 = 1 << 31;
/// Low 31 bits of a row's `meta` word: the row's charged (flippable) cells.
pub(crate) const VULN_MASK: u32 = ANTI_CELL_BIT - 1;

/// A row's flip threshold, `hc_first · (1 + jitter · u)`, for its draw `u`
/// of the device seed's threshold stream (draw `i` for flat row `i`). The
/// table build evaluates it for every row and
/// [`DeviceState::flips_under`] for the rows it reads, so the two agree bit
/// for bit; for a fixed `u` it is monotone in `hc_first`.
fn row_threshold(hc_first: u64, jitter: f64, u: f64) -> f64 {
    hc_first as f64 * (1.0 + jitter * u)
}

/// Parameters of the victim model.
#[derive(Debug, Clone, Copy)]
pub struct VictimModelParams {
    /// Minimum single-sided hammer count inducing the first bit flip in the
    /// most vulnerable row (the paper's `HC_first`; ~139k for DDR3-old,
    /// ~10k for LPDDR4-new, ~4.8k for the weakest chip tested).
    pub hc_first: u64,
    /// Maximum aggressor-to-victim distance with observable disturbance.
    pub blast_radius: u32,
    /// Multiplicative attenuation of coupling per extra row of distance.
    pub coupling_decay: f64,
    /// Number of DRAM cells (bits) per row; caps flips per row.
    pub cells_per_row: u32,
    /// How quickly additional cells flip once charge exceeds threshold,
    /// as a fraction of the row's cells per `HC_first` of overshoot.
    pub flip_slope: f64,
    /// Spread of per-row threshold jitter: row thresholds are uniform in
    /// `[hc_first, hc_first * (1 + jitter))`.
    pub threshold_jitter: f64,
    /// Stored data pattern (Section 5.1/5.2 victim model);
    /// [`DataPattern::Legacy`] reproduces the pattern-agnostic model.
    pub data_pattern: DataPattern,
    /// On-die ECC codeword size in cells; 0 disables ECC (Section 5.3).
    pub ecc_codeword_bits: u32,
}

impl VictimModelParams {
    /// Default number of cells per row (the LPDDR4-class 8 Kib row the
    /// sweep always simulates). Named so config-level validation (e.g. the
    /// ECC codeword bound in `rh-cli`) checks against the same figure
    /// [`VictimModelParams::with_hc_first`] builds with.
    pub const DEFAULT_CELLS_PER_ROW: u32 = 8192;

    /// Defaults roughly calibrated to the paper's LPDDR4-new corner, with
    /// the Section 5 axes off (legacy pattern, no ECC).
    pub fn with_hc_first(hc_first: u64) -> Self {
        Self {
            hc_first,
            blast_radius: 2,
            coupling_decay: 0.35,
            cells_per_row: Self::DEFAULT_CELLS_PER_ROW,
            flip_slope: 0.02,
            threshold_jitter: 0.25,
            data_pattern: DataPattern::Legacy,
            ecc_codeword_bits: 0,
        }
    }
}

/// The common device interface the engine drives: the optimized
/// [`DeviceState`] and the retained eager reference implementation
/// ([`crate::reference::EagerDeviceState`]) are interchangeable behind it,
/// which is what lets the differential and legacy-equivalence tests run the
/// identical experiment loop over both.
pub trait Device {
    fn geometry(&self) -> &Geometry;
    fn params(&self) -> &VictimModelParams;
    /// Activate a row: account it and leak disturbance into its blast radius.
    fn activate(&mut self, addr: RowAddr);
    /// Apply `n` consecutive activations of the same row with nothing in
    /// between — the engine's activation-run coalescer calls this when it
    /// flushes an aggressor's run slot (never with `n == 0`). The default
    /// implementation is the definitional `n` single activations (which is
    /// what the eager reference keeps, making it the ground truth the
    /// coalesced [`DeviceState`] override is differentially tested
    /// against).
    fn activate_repeat(&mut self, addr: RowAddr, n: u64) {
        for _ in 0..n {
            self.activate(addr);
        }
    }
    /// Activate each row of `rows` once, in order — bit-identical to one
    /// [`Device::activate`] per row. The engine hands over a chunk's
    /// deferred benign rows this way (at most one chunk's worth), which lets
    /// [`DeviceState`] prefetch rows ahead of the one it applies. The
    /// default is the per-row loop, which the eager reference and any
    /// call-counting wrapper keep: for them nothing changes but the call
    /// site.
    fn activate_each(&mut self, rows: &[RowAddr]) {
        for &addr in rows {
            self.activate(addr);
        }
    }
    /// Whether activation runs at `a` and `b` may be applied in either
    /// order with bit-identical results. The engine asks once per cell, for
    /// each nearby pair of declared aggressors (all must commute for their
    /// run slots to stay open together) and for each row near them (a row
    /// that commutes with every aggressor is applied at once while the
    /// slots pend; one that does not flushes them first). The conservative
    /// default only admits literal repeats; [`DeviceState`] widens it to the
    /// precomputed table of commuting same-bank spacings and to
    /// disjoint-window pairs (see `DeviceTables`).
    fn runs_commute(&self, a: RowAddr, b: RowAddr) -> bool {
        a == b
    }
    /// Structure hint that bounds the engine's per-cell class table:
    /// `Some(m)` promises that [`Device::runs_commute`] holds for every pair
    /// of addresses in different banks or farther than `m` rows apart in
    /// the same bank, so only the aggressors' bank rows in `[min − m,
    /// max + m]` need classifying and every other row commutes. `None` (the
    /// conservative default, kept by the eager reference whose
    /// repeats-only `runs_commute` has no such geometry) promises no
    /// structure, and the engine then runs the cell uncoalesced.
    /// [`DeviceState`] returns the largest non-commuting spacing of its
    /// precomputed commutation table.
    fn conflict_radius(&self) -> Option<u32> {
        None
    }
    /// Refresh a single row (restore its charge). Flips stay recorded.
    fn refresh_row(&mut self, addr: RowAddr);
    /// Refresh every row in the device.
    fn refresh_all(&mut self);
    fn total_flips(&self) -> u64;
    fn flipped_rows(&self) -> u64;
    fn flips_per_mact(&self) -> f64;
    fn total_activations(&self) -> u64;
    fn refreshes_issued(&self) -> u64;
    /// Flips recorded in true-cell rows (charged `1` discharged to `0`).
    fn flips_1to0(&self) -> u64;
    /// Flips recorded in anti-cell rows (stored `0` read back as `1`).
    fn flips_0to1(&self) -> u64;
    /// Flips still visible after on-die ECC correction; `None` when the
    /// device has no ECC layer (`ecc_codeword_bits == 0`).
    fn post_ecc_flips(&self) -> Option<u64>;
}

/// Immutable, seed-derived per-device tables, shared between every
/// experiment cell that simulates the same device.
///
/// Construction is the only O(total_rows) step (threshold derivation); the
/// sweep executor builds one table set per distinct `(params, seed)` pair
/// and hands `Arc` clones to worker threads, so common-random-number cells
/// stop re-deriving thresholds per cell.
#[derive(Debug)]
pub struct DeviceTables {
    geom: Geometry,
    params: VictimModelParams,
    /// Seed the tables were derived from (also seeds the per-row ECC
    /// placement streams, keeping post-ECC counts a pure seed function).
    seed: u64,
    /// Per-row flip threshold (hc_first with jitter), precomputed.
    threshold: Vec<f64>,
    /// Minimum of the `threshold` slab: the device-wide threshold floor the
    /// kernels' accumulate pass compares against instead of loading per-lane
    /// thresholds (see [`crate::kernel`] — a floor trip is necessary for any
    /// real crossing, so gating the settle sweep on it is exact, and cold
    /// windows never touch the threshold/meta/flips slabs).
    threshold_floor: f64,
    /// `atten[d - 1] = coupling_decay^(d - 1) * pattern_factor(d)` for `d`
    /// in `1..=blast_radius`, precomputed so the per-activation path never
    /// calls `powi` and pays nothing for data-pattern dependence (the
    /// factor is parity-periodic, see [`DataPattern::coupling_factor`]).
    atten: Vec<f64>,
    /// Whole-window quanta template of length `2 * blast_radius + 1`:
    /// `atten` mirrored around a `0.0` center lane for the aggressor, so an
    /// activation's window is one contiguous slice of this (clipped at bank
    /// edges) and the settle kernels never branch on "is this the
    /// aggressor".
    window_quanta: Vec<f64>,
    /// `commute_spacings[s]` for same-bank row spacings `s in 0..=2r`:
    /// whether pending activation runs of two aggressors `s` rows apart may
    /// be applied in either order with bit-identical results. True exactly
    /// when every lane reached by *both* windows receives the same quantum
    /// from each (then the lane's charge is a sum of equal addends, which
    /// any interleaving evaluates identically); spacings beyond `2r` have
    /// disjoint windows and always commute. With the default radius 2 this
    /// holds for spacings 0, 2 and 4 — precisely the double-/many-sided
    /// attack geometry — which is what lets the engine give alternating
    /// aggressors their own concurrently open run slots, not just coalesce
    /// literal repeats.
    commute_spacings: Vec<bool>,
    /// Largest same-bank spacing with `commute_spacings[s] == false` — the
    /// device's [`Device::conflict_radius`]: any pair of runs in different
    /// banks or farther apart than this always commutes, which is what
    /// bounds the engine's per-cell class table to the rows within this
    /// distance of the declared aggressors.
    conflict_radius: u32,
    /// Per-row metadata word: true-/anti-cell orientation bit
    /// ([`ANTI_CELL_BIT`]) plus the charged-cell budget under the selected
    /// data pattern ([`VULN_MASK`]).
    meta: Vec<u32>,
}

impl DeviceTables {
    /// Derive the tables for a device. Fails with a clear error on a
    /// degenerate geometry (any zero dimension) or degenerate victim-model
    /// parameters (zero or over-wide `cells_per_row`, an ECC codeword
    /// larger than a row).
    pub fn new(geom: Geometry, params: VictimModelParams, seed: u64) -> Result<Self, String> {
        geom.validate()?;
        if params.cells_per_row == 0 {
            return Err("cells_per_row must be at least 1".to_string());
        }
        if params.cells_per_row > VULN_MASK {
            return Err(format!(
                "cells_per_row {} exceeds the 2^31 - 1 row-metadata budget",
                params.cells_per_row
            ));
        }
        if params.ecc_codeword_bits > params.cells_per_row {
            return Err(format!(
                "ECC codeword of {} bits exceeds the {} cells in a row",
                params.ecc_codeword_bits, params.cells_per_row
            ));
        }
        let n = geom.total_rows() as usize;
        let mut rng = SplitMix64::new(seed);
        let threshold: Vec<f64> = (0..n)
            .map(|_| row_threshold(params.hc_first, params.threshold_jitter, rng.next_f64()))
            .collect();
        let threshold_floor = threshold.iter().copied().fold(f64::INFINITY, f64::min);
        let atten: Vec<f64> = (1..=params.blast_radius)
            .map(|d| {
                params.coupling_decay.powi(d as i32 - 1) * params.data_pattern.coupling_factor(d)
            })
            .collect();
        let radius = params.blast_radius as usize;
        let mut window_quanta = vec![0.0; 2 * radius + 1];
        for d in 1..=radius {
            window_quanta[radius - d] = atten[d - 1];
            window_quanta[radius + d] = atten[d - 1];
        }
        let r = radius as i64;
        let commute_spacings = (0..=2 * r)
            .map(|s| {
                // Lanes at offset i from aggressor A are at offset i - s
                // from aggressor B (B sits s rows above A). The pair
                // commutes unless some lane inside both windows draws
                // bitwise-different quanta from the two.
                (-r..=r).all(|i| {
                    let (da, db) = (i.unsigned_abs(), (i - s).unsigned_abs());
                    da == 0
                        || db == 0
                        || da > r as u64
                        || db > r as u64
                        || atten[da as usize - 1].to_bits() == atten[db as usize - 1].to_bits()
                })
            })
            .collect::<Vec<bool>>();
        let conflict_radius = commute_spacings
            .iter()
            .enumerate()
            .filter(|&(_, commutes)| !commutes)
            .map(|(s, _)| s as u32)
            .max()
            .unwrap_or(0);
        // Orientation comes from its own seed-derived stream so enabling
        // the Section 5 axes never perturbs the threshold stream above —
        // and so the true-/anti-cell layout is a pure function of the
        // device seed, independent of hc_first/pattern (tested below).
        let mut orient_rng = SplitMix64::new(derive_seed(seed, &[CELL_ORIENTATION_STREAM]));
        let rows_per_bank = geom.rows_per_bank;
        let meta = (0..n)
            .map(|i| {
                let anti = orient_rng.next_u64() & 1 == 1;
                let row = i as u32 % rows_per_bank;
                let vuln = params
                    .data_pattern
                    .vulnerable_cells(params.cells_per_row, row, anti);
                u32::from(anti) << 31 | vuln
            })
            .collect();
        Ok(Self {
            geom,
            params,
            seed,
            threshold,
            threshold_floor,
            atten,
            window_quanta,
            commute_spacings,
            conflict_radius,
            meta,
        })
    }

    /// Like [`DeviceTables::new`], wrapped for sharing across cells/threads.
    pub fn shared(
        geom: Geometry,
        params: VictimModelParams,
        seed: u64,
    ) -> Result<Arc<Self>, String> {
        Ok(Arc::new(Self::new(geom, params, seed)?))
    }

    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    pub fn params(&self) -> &VictimModelParams {
        &self.params
    }

    /// Flip threshold of a row (test/diagnostic hook).
    pub fn threshold_of(&self, addr: RowAddr) -> f64 {
        self.threshold[self.geom.flat_index(addr)]
    }

    /// Precomputed coupling attenuation at aggressor distance `d >= 1`
    /// (distance decay × data-pattern factor).
    pub fn attenuation(&self, dist: u32) -> f64 {
        self.atten[(dist - 1) as usize]
    }

    /// Whether a row is an anti-cell row (flips read as 0→1) under this
    /// device seed (test/diagnostic hook).
    pub fn anti_cell_of(&self, addr: RowAddr) -> bool {
        self.meta[self.geom.flat_index(addr)] & ANTI_CELL_BIT != 0
    }

    /// The row's charged — and therefore flippable — cell budget under the
    /// selected data pattern (test/diagnostic hook).
    pub fn vulnerable_cells_of(&self, addr: RowAddr) -> u32 {
        self.meta[self.geom.flat_index(addr)] & VULN_MASK
    }
}

/// A cell's flip observables — everything a run reports that depends on
/// `HC_first` — as [`DeviceState::flips_under`] derives them for a higher
/// `HC_first` than the run's own.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlipCounts {
    pub total_flips: u64,
    pub flipped_rows: u64,
    pub flips_1to0: u64,
    pub flips_0to1: u64,
    pub flips_per_mact: f64,
    pub post_ecc_flips: Option<u64>,
}

/// Bit flips per million activations (0 for a run with no activations).
fn per_mact(flips: u64, activations: u64) -> f64 {
    if activations == 0 {
        return 0.0;
    }
    flips as f64 * 1e6 / activations as f64
}

/// How many rows ahead of the one it applies [`DeviceState::activate_each`]
/// prefetches. A benign row costs a few tens of nanoseconds once its lines
/// are cached and a trip to L3 or DRAM when they are not, so a handful of
/// rows of lead time hides most of the miss. On the 512K-row DDR4 grid
/// (2-vCPU x86-64 host, 2 MB L2 per core) 4, 8 and 16 rows measured the
/// same within noise; 8 sits in the middle of that plateau.
const PREFETCH_AHEAD: usize = 8;

/// Mutable state of the simulated device, laid out structure-of-arrays:
/// each per-row field is its own dense slab, so an activation's blast
/// window is a contiguous lane range in every slab and the settle kernels
/// ([`crate::kernel`]) stream it with SIMD loads. Immutable tables
/// (thresholds, orientation and charged-cell budgets) are `Arc`-shared
/// ([`DeviceTables`]) and read in place; refresh and the per-cell reset are
/// epoch-based (see the module docs).
#[derive(Debug, Clone)]
pub struct DeviceState {
    tables: Arc<DeviceTables>,
    /// Accumulated disturbance per row, in units of distance-1 hammers.
    /// Valid only while the row's `epochs` entry matches the device epoch;
    /// stale values read as 0.
    charge: Vec<f64>,
    /// Per-row epoch of the last charge write (or targeted refresh).
    epochs: Vec<u64>,
    /// Per-row recorded bit flips (cumulative, monotone).
    flips: Vec<u32>,
    /// Highest charge each row settled at in this cell, for the rows that
    /// settled at all (see [`DeviceState::flips_under`]).
    peaks: PeakRecord,
    /// Settle kernel, selected once at construction (see [`Kernel`]).
    kernel: Kernel,
    /// Global refresh epoch; bumped O(1) by `refresh_all`.
    epoch: u64,
    total_flips: u64,
    total_activations: u64,
    refreshes_issued: u64,
    /// Distinct rows with at least one flip, maintained incrementally on the
    /// 0→nonzero transition in the settle path.
    flipped_row_count: u64,
    /// Cumulative flips in true-cell rows (charged 1 → 0).
    flips_1to0: u64,
    /// Cumulative flips in anti-cell rows (stored 0 → 1).
    flips_0to1: u64,
}

impl DeviceState {
    /// Build a device with freshly derived tables and the auto-selected
    /// kernel. Panics on a degenerate geometry; use [`Geometry::validate`] /
    /// [`DeviceTables::new`] first on untrusted input.
    pub fn new(geom: Geometry, params: VictimModelParams, seed: u64) -> Self {
        let tables = DeviceTables::shared(geom, params, seed)
            .unwrap_or_else(|e| panic!("invalid device geometry: {e}"));
        Self::with_tables(tables)
    }

    /// Build a device around pre-derived shared tables, with the
    /// auto-selected kernel ([`Kernel::auto`]).
    pub fn with_tables(tables: Arc<DeviceTables>) -> Self {
        Self::with_tables_and_kernel(tables, Kernel::auto())
    }

    /// Build a device around pre-derived shared tables with a pinned settle
    /// kernel. The kernel can never affect results (differential fuzz tests
    /// assert it), only throughput.
    pub fn with_tables_and_kernel(tables: Arc<DeviceTables>, kernel: Kernel) -> Self {
        let mut device = Self {
            tables: tables.clone(),
            charge: Vec::new(),
            epochs: Vec::new(),
            flips: Vec::new(),
            peaks: PeakRecord::default(),
            kernel,
            epoch: 0,
            total_flips: 0,
            total_activations: 0,
            refreshes_issued: 0,
            flipped_row_count: 0,
            flips_1to0: 0,
            flips_0to1: 0,
        };
        device.reset_for_cell(tables);
        device
    }

    /// Reuse this device's buffers for a new experiment cell: swap in the
    /// cell's tables, bump the epoch so every charge an earlier cell wrote
    /// reads as stale (exactly as after `refresh_all`), and zero the flip
    /// counters and the peak record. `charge`/`epochs` are reallocated
    /// (zeroed, and epoch 0 is stale too) only when the row count changes,
    /// and the peak record keeps its capacity. Equivalent to
    /// `DeviceState::with_tables` minus the allocations — executor threads
    /// call this once per cell. The `flips` clear is the one O(total_rows)
    /// step left (4 bytes per row); the selected kernel is retained.
    pub fn reset_for_cell(&mut self, tables: Arc<DeviceTables>) {
        self.tables = tables;
        let n = self.tables.geom.total_rows() as usize;
        self.epoch += 1;
        if self.charge.len() != n {
            self.charge = vec![0.0; n];
            self.epochs = vec![0; n];
        }
        self.flips.clear();
        self.flips.resize(n, 0);
        self.peaks.clear();
        self.total_flips = 0;
        self.total_activations = 0;
        self.refreshes_issued = 0;
        self.flipped_row_count = 0;
        self.flips_1to0 = 0;
        self.flips_0to1 = 0;
    }

    /// The shared immutable tables backing this device.
    pub fn tables(&self) -> &Arc<DeviceTables> {
        &self.tables
    }

    /// The settle kernel this device runs.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    pub fn geometry(&self) -> &Geometry {
        &self.tables.geom
    }

    pub fn params(&self) -> &VictimModelParams {
        &self.tables.params
    }

    /// Activate `addr`: account the activation and leak disturbance into all
    /// rows within the blast radius, recording any new bit flips.
    pub fn activate(&mut self, addr: RowAddr) {
        self.activate_repeat(addr, 1);
    }

    /// Apply `n` consecutive activations of `addr` in one window pass —
    /// bit-identical to `n` separate [`DeviceState::activate`] calls (each
    /// lane performs the same fp additions in the same order, and the
    /// settle is a monotone function of the final charge), but the partial
    /// sums stay register-resident and the window is walked once.
    ///
    /// Allocation-free: the window is a contiguous lane range of the SoA
    /// slabs addressed by flat-index arithmetic (same bank ⇒ contiguous
    /// rows), its quanta are a slice of the precomputed whole-window
    /// template (aggressor lane 0.0), and the walk runs through the settle
    /// kernel selected at construction.
    pub fn activate_repeat(&mut self, addr: RowAddr, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.tables.geom.flat_index(addr);
        self.total_activations += n;
        let row = addr.row;
        let radius = self.tables.params.blast_radius;
        // Window bounds below and above the aggressor, clipped at bank
        // edges (bank-contiguous flat indexing keeps the window inside the
        // aggressor's bank).
        let below = row.min(radius) as usize;
        let above = (self.tables.geom.rows_per_bank - 1 - row).min(radius) as usize;
        if below + above == 0 {
            // Zero radius or a single-row bank: no victims to disturb.
            return;
        }
        let (lo, hi) = (idx - below, idx + above);
        let r = radius as usize;
        let p = &self.tables.params;
        let (hc_first, flip_slope) = (p.hc_first, p.flip_slope);
        let mut tally = VictimTally::default();
        let window = Window {
            charge: &mut self.charge[lo..=hi],
            epoch: &mut self.epochs[lo..=hi],
            threshold: &self.tables.threshold[lo..=hi],
            flips: &mut self.flips[lo..=hi],
            meta: &self.tables.meta[lo..=hi],
            quanta: &self.tables.window_quanta[r - below..=r + above],
            floor: self.tables.threshold_floor,
        };
        let swept = leak_window(
            self.kernel,
            window,
            n,
            self.epoch,
            hc_first,
            flip_slope,
            &mut tally,
        );
        self.total_flips += tally.flips;
        self.flipped_row_count += tally.rows_flipped;
        self.flips_1to0 += tally.flips_1to0;
        self.flips_0to1 += tally.flips_0to1;
        if swept {
            self.note_peaks(lo, hi);
        }
    }

    /// After a settle sweep over the window `lo..=hi`, keep each lane that
    /// settled in the peak record at its highest settled charge. Every lane
    /// of the window holds this epoch's charge, the one the sweep read.
    /// It runs only after a sweep, which is rare, so it is kept out of
    /// line: the common activation pays one untaken branch for it.
    #[inline(never)]
    fn note_peaks(&mut self, lo: usize, hi: usize) {
        let t = &self.tables;
        for (idx, &c) in (lo..=hi).zip(&self.charge[lo..=hi]) {
            if settles(c, t.threshold[idx], t.meta[idx]) {
                // Flat indices stay below `MAX_TOTAL_ROWS` = 2^24.
                let peak = self.peaks.entry(idx as u32).or_insert(c);
                *peak = peak.max(c);
            }
        }
    }

    /// Activate each row of `rows` once, in order — bit-identical to one
    /// [`DeviceState::activate`] per row, since it is exactly that loop.
    /// It first prefetches the `charge`/`epochs` lines of the first
    /// `PREFETCH_AHEAD` (8) rows' blast windows, then, while applying row `i`,
    /// those of row `i + PREFETCH_AHEAD`, so scattered rows over slabs far
    /// larger than the cache overlap their misses instead of paying them
    /// one activation at a time.
    pub fn activate_each(&mut self, rows: &[RowAddr]) {
        for &addr in &rows[..rows.len().min(PREFETCH_AHEAD)] {
            self.prefetch_window(addr);
        }
        for (i, &addr) in rows.iter().enumerate() {
            if let Some(&ahead) = rows.get(i + PREFETCH_AHEAD) {
                self.prefetch_window(ahead);
            }
            self.activate_repeat(addr, 1);
        }
    }

    /// Hint the CPU to start loading the `charge`/`epochs` lines of `addr`'s
    /// blast window: those of its first and last lane, which are all of
    /// them while a window spans at most 64 bytes per slab (radius 3 and
    /// below). Never changes state; a no-op off x86-64.
    #[inline]
    fn prefetch_window(&self, addr: RowAddr) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let idx = self.tables.geom.flat_index(addr);
            let radius = self.tables.params.blast_radius as usize;
            let last = self.charge.len() - 1;
            for i in [idx.saturating_sub(radius), idx.saturating_add(radius)] {
                let i = i.min(last);
                // SAFETY: `i <= last < len` for both slabs (`epochs` has
                // `charge`'s length), so both pointers stay inside their
                // allocations even for an address outside the geometry,
                // and a prefetch is only a hint: it never faults and never
                // changes memory. SSE, which provides the instruction, is
                // baseline on x86-64.
                unsafe {
                    _mm_prefetch::<_MM_HINT_T0>(self.charge.as_ptr().add(i).cast());
                    _mm_prefetch::<_MM_HINT_T0>(self.epochs.as_ptr().add(i).cast());
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    /// Whether coalesced runs at `a` and `b` commute bit-exactly: different
    /// banks touch disjoint slabs; same-bank pairs consult the precomputed
    /// spacing table (spacings beyond `2r` are disjoint windows). Bank-edge
    /// clipping only removes lanes from a window, so the unclipped table is
    /// conservative there.
    pub fn runs_commute(&self, a: RowAddr, b: RowAddr) -> bool {
        if (a.channel, a.rank, a.bank) != (b.channel, b.rank, b.bank) {
            return true;
        }
        let s = a.row.abs_diff(b.row) as usize;
        self.tables.commute_spacings.get(s).copied().unwrap_or(true)
    }

    /// The largest same-bank spacing at which two runs may fail to
    /// commute, from the precomputed table (see [`Device::conflict_radius`]).
    pub fn conflict_radius(&self) -> u32 {
        self.tables.conflict_radius
    }

    /// Refresh a single row: restores its charge. Flips stay recorded.
    pub fn refresh_row(&mut self, addr: RowAddr) {
        let idx = self.tables.geom.flat_index(addr);
        self.charge[idx] = 0.0;
        self.epochs[idx] = self.epoch;
        self.refreshes_issued += 1;
    }

    /// Refresh every row in the device (e.g. the periodic auto-refresh at
    /// the end of a tREFW window, or an increased-refresh mitigation tick).
    /// O(1): bumps the epoch instead of zeroing every charge.
    pub fn refresh_all(&mut self) {
        self.epoch += 1;
        // Count in row units so the cost metric is comparable with
        // `refresh_row`-based mitigations.
        self.refreshes_issued += self.tables.geom.total_rows();
    }

    /// Total bit flips recorded since construction (pre-ECC).
    pub fn total_flips(&self) -> u64 {
        self.total_flips
    }

    /// Flips recorded in true-cell rows (charged `1` discharged to `0`).
    /// Together with [`DeviceState::flips_0to1`] this partitions
    /// [`DeviceState::total_flips`].
    pub fn flips_1to0(&self) -> u64 {
        self.flips_1to0
    }

    /// Flips recorded in anti-cell rows (stored `0` read back as `1`).
    pub fn flips_0to1(&self) -> u64 {
        self.flips_0to1
    }

    /// Flips still visible after on-die ECC correction, or `None` when ECC
    /// is disabled. A post-run scan over per-row raw flip counts (see
    /// [`crate::ecc`]) — never on the per-activation path, and a pure
    /// function of the device seed and the raw flip state.
    pub fn post_ecc_flips(&self) -> Option<u64> {
        let cw = self.tables.params.ecc_codeword_bits;
        if cw == 0 {
            return None;
        }
        Some(ecc::post_ecc_total(
            self.flips.iter().copied(),
            self.tables.params.cells_per_row,
            cw,
            self.tables.seed,
        ))
    }

    /// Number of distinct rows with at least one flipped bit (O(1) counter).
    pub fn flipped_rows(&self) -> u64 {
        self.flipped_row_count
    }

    /// Reference full-scan count of flipped rows. Diagnostic only: tests
    /// assert it always equals the incrementally-maintained
    /// [`DeviceState::flipped_rows`] counter.
    pub fn flipped_rows_scan(&self) -> u64 {
        self.flips.iter().filter(|&&f| f > 0).count() as u64
    }

    /// Bit flips per million activations — the sweep's headline metric.
    pub fn flips_per_mact(&self) -> f64 {
        per_mact(self.total_flips, self.total_activations)
    }

    /// The flip observables this cell's run would have recorded at
    /// `hc_first` — on a device that differs from this one in nothing but
    /// an equal or higher `HC_first` — derived from the peak record without
    /// re-running the cell and without that device's tables. Exact, not
    /// estimated:
    ///
    /// * nothing in the run reads a threshold except the settle tail, so
    ///   the same activation and refresh stream leaves every row with the
    ///   same charge history at either `HC_first`;
    /// * a row's threshold there is the same jitter draw `u` times a base
    ///   no lower (`row_threshold`, in f64, whose multiplication is
    ///   monotone), so every charge that crosses it crossed this run's
    ///   threshold too and was settled here;
    /// * a row's flips are `expected_flips` of the highest charge it
    ///   settled at (monotone in charge), which the record holds; its
    ///   orientation and charged cells do not depend on `HC_first`.
    ///
    /// So each recorded row whose peak reaches its threshold at `hc_first`
    /// contributes that formula evaluated there, and no other row flips.
    /// The threshold is recomputed from the row's draw (`SplitMix64::skip`
    /// to it), bit-identical to the one a table build at `hc_first` holds.
    /// Costs one pass over the record (the rows that settled here), plus
    /// the ECC placement of the rows that flip there.
    ///
    /// Refuses a lower `HC_first`: its thresholds may sit below this run's,
    /// where nothing was recorded.
    pub fn flips_under(&self, hc_first: u64) -> Result<FlipCounts, String> {
        let t = &self.tables;
        let p = &t.params;
        if hc_first < p.hc_first {
            return Err(format!(
                "cannot derive flips at HC_first {hc_first} from a run at HC_first {}: \
                 only an equal or higher HC_first can be derived",
                p.hc_first
            ));
        }
        let mut counts = FlipCounts::default();
        let mut flipped = Vec::new();
        for (&row, &peak) in &self.peaks {
            let idx = row as usize;
            let mut draw = SplitMix64::new(t.seed);
            draw.skip(u64::from(row));
            let threshold = row_threshold(hc_first, p.threshold_jitter, draw.next_f64());
            let meta = t.meta[idx];
            let vuln = meta & VULN_MASK;
            if peak < threshold || vuln == 0 {
                continue;
            }
            let flips = expected_flips(peak, threshold, vuln, hc_first, p.flip_slope);
            counts.total_flips += u64::from(flips);
            counts.flipped_rows += 1;
            if meta & ANTI_CELL_BIT != 0 {
                counts.flips_0to1 += u64::from(flips);
            } else {
                counts.flips_1to0 += u64::from(flips);
            }
            flipped.push((idx, flips));
        }
        counts.flips_per_mact = per_mact(counts.total_flips, self.total_activations);
        if p.ecc_codeword_bits != 0 {
            counts.post_ecc_flips = Some(ecc::post_ecc_rows(
                flipped.into_iter(),
                p.cells_per_row,
                p.ecc_codeword_bits,
                t.seed,
            ));
        }
        Ok(counts)
    }

    pub fn total_activations(&self) -> u64 {
        self.total_activations
    }

    /// Row-refresh operations performed by mitigations and auto-refresh,
    /// counted in row units (a full-device refresh counts every row).
    pub fn refreshes_issued(&self) -> u64 {
        self.refreshes_issued
    }

    /// Accumulated charge of a row (test/diagnostic hook), resolved against
    /// the refresh epoch.
    pub fn charge_of(&self, addr: RowAddr) -> f64 {
        let idx = self.tables.geom.flat_index(addr);
        if self.epochs[idx] == self.epoch {
            self.charge[idx]
        } else {
            0.0
        }
    }
}

impl Device for DeviceState {
    fn geometry(&self) -> &Geometry {
        DeviceState::geometry(self)
    }

    fn params(&self) -> &VictimModelParams {
        DeviceState::params(self)
    }

    fn activate(&mut self, addr: RowAddr) {
        DeviceState::activate(self, addr)
    }

    fn activate_repeat(&mut self, addr: RowAddr, n: u64) {
        DeviceState::activate_repeat(self, addr, n)
    }

    fn activate_each(&mut self, rows: &[RowAddr]) {
        DeviceState::activate_each(self, rows)
    }

    fn runs_commute(&self, a: RowAddr, b: RowAddr) -> bool {
        DeviceState::runs_commute(self, a, b)
    }

    fn conflict_radius(&self) -> Option<u32> {
        Some(DeviceState::conflict_radius(self))
    }

    fn refresh_row(&mut self, addr: RowAddr) {
        DeviceState::refresh_row(self, addr)
    }

    fn refresh_all(&mut self) {
        DeviceState::refresh_all(self)
    }

    fn total_flips(&self) -> u64 {
        DeviceState::total_flips(self)
    }

    fn flipped_rows(&self) -> u64 {
        DeviceState::flipped_rows(self)
    }

    fn flips_per_mact(&self) -> f64 {
        DeviceState::flips_per_mact(self)
    }

    fn total_activations(&self) -> u64 {
        DeviceState::total_activations(self)
    }

    fn refreshes_issued(&self) -> u64 {
        DeviceState::refreshes_issued(self)
    }

    fn flips_1to0(&self) -> u64 {
        DeviceState::flips_1to0(self)
    }

    fn flips_0to1(&self) -> u64 {
        DeviceState::flips_0to1(self)
    }

    fn post_ecc_flips(&self) -> Option<u64> {
        DeviceState::post_ecc_flips(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_jitter(hc: u64) -> VictimModelParams {
        VictimModelParams {
            threshold_jitter: 0.0,
            ..VictimModelParams::with_hc_first(hc)
        }
    }

    /// Every kernel the running CPU can execute, for kernel-parameterized
    /// tests.
    fn available_kernels() -> Vec<Kernel> {
        let mut kernels = vec![Kernel::Scalar];
        if crate::kernel::avx2_available() {
            kernels.push(Kernel::Avx2);
        }
        kernels
    }

    #[test]
    fn single_sided_flips_exactly_at_hc_first() {
        let g = Geometry::tiny(16);
        let mut d = DeviceState::new(g, no_jitter(1000), 1);
        let aggr = RowAddr::bank_row(0, 8);
        for _ in 0..999 {
            d.activate(aggr);
        }
        assert_eq!(d.total_flips(), 0);
        d.activate(aggr);
        // Both distance-1 victims cross threshold on the same activation.
        assert_eq!(d.flipped_rows(), 2);
    }

    #[test]
    fn double_sided_flips_at_half_per_aggressor() {
        let g = Geometry::tiny(16);
        let mut d = DeviceState::new(g, no_jitter(1000), 1);
        let (a1, a2) = (RowAddr::bank_row(0, 7), RowAddr::bank_row(0, 9));
        for _ in 0..499 {
            d.activate(a1);
            d.activate(a2);
        }
        let before = d.charge_of(RowAddr::bank_row(0, 8));
        assert!(before < 1000.0);
        d.activate(a1);
        d.activate(a2);
        // Victim row 8 received 2 units/iteration: flips at 500 per side.
        assert!(d.charge_of(RowAddr::bank_row(0, 8)) >= 1000.0);
        assert!(d.total_flips() > 0);
    }

    #[test]
    fn refresh_resets_charge_and_prevents_flips() {
        let g = Geometry::tiny(16);
        let mut d = DeviceState::new(g, no_jitter(1000), 1);
        let aggr = RowAddr::bank_row(0, 8);
        for _ in 0..600 {
            d.activate(aggr);
        }
        d.refresh_row(RowAddr::bank_row(0, 7));
        d.refresh_row(RowAddr::bank_row(0, 9));
        for _ in 0..600 {
            d.activate(aggr);
        }
        // 1200 total hammers but never 1000 within one refresh interval.
        assert_eq!(d.total_flips(), 0);
    }

    #[test]
    fn refresh_all_is_epoch_lazy_but_observably_eager() {
        let g = Geometry::tiny(16);
        let mut d = DeviceState::new(g, no_jitter(1000), 1);
        let aggr = RowAddr::bank_row(0, 8);
        for _ in 0..600 {
            d.activate(aggr);
        }
        assert!(d.charge_of(RowAddr::bank_row(0, 7)) > 0.0);
        d.refresh_all();
        // Charges read as zero immediately, and the refresh tally counts
        // every row even though nothing was eagerly zeroed.
        assert_eq!(d.charge_of(RowAddr::bank_row(0, 7)), 0.0);
        assert_eq!(d.refreshes_issued(), g.total_rows());
        for _ in 0..600 {
            d.activate(aggr);
        }
        assert_eq!(d.total_flips(), 0, "stale pre-refresh charge leaked in");
    }

    #[test]
    fn blast_radius_attenuates_with_distance() {
        let g = Geometry::tiny(16);
        let p = no_jitter(1000);
        let mut d = DeviceState::new(g, p, 1);
        let aggr = RowAddr::bank_row(0, 8);
        d.activate(aggr);
        let c1 = d.charge_of(RowAddr::bank_row(0, 7));
        let c2 = d.charge_of(RowAddr::bank_row(0, 6));
        let c3 = d.charge_of(RowAddr::bank_row(0, 5));
        assert!((c1 - 1.0).abs() < 1e-12);
        assert!((c2 - p.coupling_decay).abs() < 1e-12);
        assert_eq!(c3, 0.0, "beyond blast radius must receive nothing");
    }

    #[test]
    fn aggressor_lane_receives_no_charge() {
        // The window includes the aggressor with quantum 0.0; its charge
        // must stay exactly zero (not -0.0, not accumulated).
        let g = Geometry::tiny(16);
        let mut d = DeviceState::new(g, no_jitter(1000), 1);
        let aggr = RowAddr::bank_row(0, 8);
        for _ in 0..500 {
            d.activate(aggr);
        }
        assert_eq!(d.charge_of(aggr).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn edge_rows_have_one_sided_victims() {
        let g = Geometry::tiny(16);
        let mut d = DeviceState::new(g, no_jitter(100), 1);
        let aggr = RowAddr::bank_row(0, 0);
        for _ in 0..100 {
            d.activate(aggr);
        }
        // Only row 1 (and attenuated row 2) can flip; no underflow panic.
        assert!(d.flipped_rows() >= 1);
        assert_eq!(d.total_activations(), 100);
        // The top edge clips the other way, through the batched path too.
        d.activate_each(&[RowAddr::bank_row(0, 15); 100]);
        assert_eq!(d.total_activations(), 200);
        assert!(d.charge_of(RowAddr::bank_row(0, 14)) >= 100.0);
        assert_eq!(d.charge_of(RowAddr::bank_row(0, 15)), 0.0);
    }

    #[test]
    fn same_seed_same_thresholds() {
        let g = Geometry::tiny(64);
        let p = VictimModelParams::with_hc_first(5000);
        let a = DeviceTables::new(g, p, 123).unwrap();
        let b = DeviceTables::new(g, p, 123).unwrap();
        assert_eq!(a.threshold, b.threshold);
    }

    #[test]
    fn attenuation_table_matches_powi() {
        let p = VictimModelParams::with_hc_first(1000);
        let t = DeviceTables::new(Geometry::tiny(64), p, 0).unwrap();
        for d in 1..=p.blast_radius {
            assert_eq!(t.attenuation(d), p.coupling_decay.powi(d as i32 - 1));
        }
    }

    /// The tentpole's window template: `atten` mirrored around a 0.0
    /// aggressor lane, so one contiguous slice covers any clipped window.
    #[test]
    fn window_quanta_template_mirrors_attenuation_around_zero_center() {
        let p = VictimModelParams::with_hc_first(1000);
        let t = DeviceTables::new(Geometry::tiny(64), p, 0).unwrap();
        let r = p.blast_radius as usize;
        assert_eq!(t.window_quanta.len(), 2 * r + 1);
        assert_eq!(t.window_quanta[r].to_bits(), 0.0f64.to_bits());
        for d in 1..=p.blast_radius {
            assert_eq!(t.window_quanta[r - d as usize], t.attenuation(d));
            assert_eq!(t.window_quanta[r + d as usize], t.attenuation(d));
        }
    }

    /// Spacing-2 and spacing-4 aggressor pairs (the double-/many-sided
    /// attack geometry) commute under the default radius-2 model; odd
    /// spacings inside the window do not (a shared lane draws distance-1
    /// quanta from one aggressor and distance-2 from the other).
    #[test]
    fn runs_commute_matches_the_radius_two_geometry() {
        let g = Geometry {
            banks: 2,
            ..Geometry::tiny(64)
        };
        let d = DeviceState::new(g, VictimModelParams::with_hc_first(1000), 1);
        let at = |bank, row| RowAddr {
            channel: 0,
            rank: 0,
            bank,
            row,
        };
        let expected = [true, false, true, false, true];
        for (s, &want) in expected.iter().enumerate() {
            assert_eq!(
                d.runs_commute(at(0, 20), at(0, 20 + s as u32)),
                want,
                "spacing {s}"
            );
            assert_eq!(
                d.runs_commute(at(0, 20 + s as u32), at(0, 20)),
                want,
                "spacing {s} reversed"
            );
        }
        // Beyond 2r the windows are disjoint; other banks always commute.
        assert!(d.runs_commute(at(0, 20), at(0, 25)));
        assert!(d.runs_commute(at(0, 20), at(1, 21)));
        // The structure hint must cover every non-commuting spacing above:
        // at radius 2 the largest is 3.
        assert_eq!(Device::conflict_radius(&d), Some(3));
        for (s, &commutes) in expected.iter().enumerate() {
            if !commutes {
                assert!(s as u32 <= DeviceState::conflict_radius(&d));
            }
        }
    }

    #[test]
    fn degenerate_geometry_is_rejected_with_clear_error() {
        let p = VictimModelParams::with_hc_first(1000);
        let err = DeviceTables::new(Geometry::tiny(0), p, 0).unwrap_err();
        assert!(err.contains("rows_per_bank"), "got '{err}'");
    }

    /// A row count that overflows `u64`, or only exceeds the cap, is an
    /// error before any per-row slab is allocated (it used to abort the
    /// worker with "capacity overflow").
    #[test]
    fn oversized_geometry_is_rejected_before_allocating() {
        let p = VictimModelParams::with_hc_first(1000);
        let overflowing = Geometry {
            channels: u32::MAX,
            ranks: u32::MAX,
            banks: u32::MAX,
            rows_per_bank: u32::MAX,
        };
        let over_cap = Geometry {
            banks: 2,
            ..Geometry::tiny(crate::geometry::MAX_TOTAL_ROWS as u32)
        };
        for geom in [overflowing, over_cap] {
            let err = DeviceTables::new(geom, p, 0).unwrap_err();
            assert!(err.contains("row limit"), "got '{err}'");
        }
    }

    #[test]
    fn flip_count_monotone_in_hammer_count() {
        let g = Geometry::tiny(32);
        let mut d = DeviceState::new(g, no_jitter(500), 5);
        let aggr = RowAddr::bank_row(0, 16);
        let mut last = 0;
        for _ in 0..10 {
            for _ in 0..200 {
                d.activate(aggr);
            }
            assert!(d.total_flips() >= last);
            last = d.total_flips();
        }
        assert!(last > 0);
    }

    #[test]
    fn flipped_rows_counter_matches_full_scan() {
        let g = Geometry::tiny(64);
        let mut d = DeviceState::new(g, VictimModelParams::with_hc_first(300), 9);
        let mut rng = SplitMix64::new(77);
        for _ in 0..20_000 {
            // Half the traffic hammers one hot row so thresholds are crossed
            // between the (rare) full refreshes.
            let row = if rng.chance(0.5) {
                32
            } else {
                rng.gen_range(64) as u32
            };
            d.activate(RowAddr::bank_row(0, row));
            if rng.chance(0.0005) {
                d.refresh_all();
            }
        }
        assert!(d.total_flips() > 0, "test must exercise flips");
        assert_eq!(d.flipped_rows(), d.flipped_rows_scan());
    }

    #[test]
    fn shared_tables_produce_identical_devices() {
        let g = Geometry::tiny(64);
        let p = VictimModelParams::with_hc_first(800);
        let tables = DeviceTables::shared(g, p, 5).unwrap();
        let mut a = DeviceState::with_tables(tables.clone());
        let mut b = DeviceState::new(g, p, 5);
        let aggr = RowAddr::bank_row(0, 32);
        for _ in 0..2_000 {
            a.activate(aggr);
            b.activate(aggr);
        }
        assert_eq!(a.total_flips(), b.total_flips());
        assert_eq!(
            a.charge_of(RowAddr::bank_row(0, 31)).to_bits(),
            b.charge_of(RowAddr::bank_row(0, 31)).to_bits()
        );
        assert_eq!(
            Arc::strong_count(&tables),
            2,
            "tables are shared, not cloned"
        );
    }

    /// Every observable of two devices: all counters, and every row's
    /// charge bit for bit.
    fn assert_same_device(a: &DeviceState, b: &DeviceState, what: &str) {
        assert_eq!(a.total_flips(), b.total_flips(), "{what}");
        assert_eq!(a.flipped_rows(), b.flipped_rows(), "{what}");
        assert_eq!(a.flipped_rows_scan(), b.flipped_rows_scan(), "{what}");
        assert_eq!(a.total_activations(), b.total_activations(), "{what}");
        assert_eq!(a.refreshes_issued(), b.refreshes_issued(), "{what}");
        assert_eq!(a.flips_1to0(), b.flips_1to0(), "{what}");
        assert_eq!(a.flips_0to1(), b.flips_0to1(), "{what}");
        assert_eq!(a.post_ecc_flips(), b.post_ecc_flips(), "{what}");
        let g = *a.geometry();
        assert_eq!(g.total_rows(), b.geometry().total_rows(), "{what}");
        for bank in 0..g.banks {
            for row in 0..g.rows_per_bank {
                let addr = RowAddr::bank_row(bank, row);
                assert_eq!(
                    a.charge_of(addr).to_bits(),
                    b.charge_of(addr).to_bits(),
                    "{what}: charge of {addr:?}"
                );
            }
        }
    }

    /// One device reset across consecutive cells must be indistinguishable
    /// from a freshly built one in every cell: tables that vary `HC_first`
    /// and the data pattern, a geometry that shrinks and then grows, and a
    /// cell that ends right after `refresh_all` (its charges are already
    /// stale when the reset bumps the epoch again).
    #[test]
    fn reset_for_cell_is_equivalent_to_fresh_construction() {
        let tiny = |banks, rows| Geometry {
            banks,
            ..Geometry::tiny(rows)
        };
        let params = |hc, data_pattern| VictimModelParams {
            data_pattern,
            ecc_codeword_bits: 128,
            ..VictimModelParams::with_hc_first(hc)
        };
        // (tables, end the cell right after a refresh_all)
        let cells = [
            (tiny(2, 64), params(500, DataPattern::Legacy), false),
            (tiny(2, 64), params(900, DataPattern::RowStripe), true),
            (tiny(2, 64), params(300, DataPattern::Checkerboard), false),
            (tiny(1, 48), params(700, DataPattern::Solid), false),
            (tiny(3, 64), params(400, DataPattern::RowStripe), false),
        ];
        let mut reused: Option<DeviceState> = None;
        let mut rng = SplitMix64::new(11);
        for (cell, &(g, p, ends_refreshed)) in cells.iter().enumerate() {
            let tables = DeviceTables::shared(g, p, 3 + cell as u64).unwrap();
            let reused = match reused.as_mut() {
                Some(device) => {
                    device.reset_for_cell(tables.clone());
                    device
                }
                None => reused.insert(DeviceState::with_tables(tables.clone())),
            };
            let mut fresh = DeviceState::with_tables(tables);
            let what = format!("cell {cell}");
            assert_same_device(reused, &fresh, &format!("{what} after reset"));
            let rows = u64::from(g.rows_per_bank);
            for _ in 0..3_000 {
                let addr = RowAddr::bank_row(
                    rng.gen_range(u64::from(g.banks)) as u32,
                    // Half the traffic hammers a hot row so flips happen.
                    if rng.chance(0.5) {
                        g.rows_per_bank / 2
                    } else {
                        rng.gen_range(rows) as u32
                    },
                );
                match rng.gen_range(10) {
                    0 => {
                        let n = 1 + rng.gen_range(30);
                        reused.activate_repeat(addr, n);
                        fresh.activate_repeat(addr, n);
                    }
                    1 => {
                        let run = [addr, addr.with_row(addr.row ^ 1), addr];
                        reused.activate_each(&run);
                        fresh.activate_each(&run);
                    }
                    2 if rng.chance(0.1) => {
                        reused.refresh_row(addr);
                        fresh.refresh_row(addr);
                    }
                    3 if rng.chance(0.02) => {
                        reused.refresh_all();
                        fresh.refresh_all();
                    }
                    _ => {
                        reused.activate(addr);
                        fresh.activate(addr);
                    }
                }
            }
            if ends_refreshed {
                reused.refresh_all();
                fresh.refresh_all();
            }
            assert!(fresh.total_flips() > 0, "{what} must exercise flips");
            assert_same_device(reused, &fresh, &what);
        }
    }

    /// A device's flip observables, as recorded.
    fn flip_counts(d: &DeviceState) -> FlipCounts {
        FlipCounts {
            total_flips: d.total_flips(),
            flipped_rows: d.flipped_rows(),
            flips_1to0: d.flips_1to0(),
            flips_0to1: d.flips_0to1(),
            flips_per_mact: d.flips_per_mact(),
            post_ecc_flips: d.post_ecc_flips(),
        }
    }

    /// Drive `device` through a seeded mix of single, repeated and batched
    /// activations (half of them on one hot row, so thresholds are
    /// crossed) with targeted and full refreshes.
    fn drive(device: &mut DeviceState, seed: u64, steps: usize) {
        let rows = u64::from(device.geometry().rows_per_bank);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..steps {
            let row = if rng.chance(0.5) {
                rows as u32 / 2
            } else {
                rng.gen_range(rows) as u32
            };
            let addr = RowAddr::bank_row(0, row);
            match rng.gen_range(8) {
                0 => device.activate_repeat(addr, 1 + rng.gen_range(40)),
                1 => device.activate_each(&[addr, addr.with_row(row ^ 2), addr]),
                2 if rng.chance(0.1) => device.refresh_row(addr),
                3 if rng.chance(0.01) => device.refresh_all(),
                _ => device.activate(addr),
            }
        }
    }

    /// The fold's exactness bar at the device level: a run at the lowest
    /// `HC_first` derives, from its peak record, exactly the flip
    /// observables a fresh run of the same stream records at each higher
    /// value — under every kernel, with and without ECC, across data
    /// patterns — including a value where some rows flip only at the
    /// lowest one. Its own tables derive its own counts.
    #[test]
    fn flips_under_matches_a_fresh_run_at_each_higher_hc_first() {
        let g = Geometry::tiny(96);
        let hcs = [300u64, 340, 600, 1_500, 1_000_000];
        for kernel in available_kernels() {
            for (pattern, ecc) in [
                (DataPattern::Legacy, 0),
                (DataPattern::RowStripe, 128),
                (DataPattern::Checkerboard, 64),
            ] {
                let tables = |hc| {
                    let p = VictimModelParams {
                        data_pattern: pattern,
                        ecc_codeword_bits: ecc,
                        ..VictimModelParams::with_hc_first(hc)
                    };
                    DeviceTables::shared(g, p, 17).unwrap()
                };
                let mut low = DeviceState::with_tables_and_kernel(tables(hcs[0]), kernel);
                drive(&mut low, 23, 6_000);
                assert_eq!(low.flips_under(hcs[0]), Ok(flip_counts(&low)));
                let mut totals = Vec::new();
                for &hc in &hcs {
                    let mut fresh = DeviceState::with_tables_and_kernel(tables(hc), kernel);
                    drive(&mut fresh, 23, 6_000);
                    let derived = low.flips_under(hc).unwrap();
                    let direct = flip_counts(&fresh);
                    let what = format!("{kernel} {pattern:?} ecc {ecc} hc {hc}");
                    assert_eq!(derived, direct, "{what}");
                    assert_eq!(
                        derived.flips_per_mact.to_bits(),
                        direct.flips_per_mact.to_bits(),
                        "{what}"
                    );
                    totals.push(direct.total_flips);
                }
                assert!(totals[0] > totals[1], "the lowest value must flip more");
                assert!(totals[1] > 0 && totals[4] == 0, "{totals:?}");
            }
        }
    }

    /// A lower `HC_first` is refused (its thresholds sit below what was
    /// recorded); the run's own and any higher one are derived.
    #[test]
    fn flips_under_refuses_a_lower_hc_first() {
        let mut d = DeviceState::new(Geometry::tiny(64), VictimModelParams::with_hc_first(500), 5);
        drive(&mut d, 1, 2_000);
        let err = d.flips_under(499).unwrap_err();
        assert!(err.contains("HC_first 499"), "got '{err}'");
        assert!(d.flips_under(500).is_ok() && d.flips_under(800).is_ok());
    }

    /// `flips_under` recomputes a row's threshold from its draw of the
    /// seed's stream; that must be the very value a table build at that
    /// `HC_first` stores, for every row.
    #[test]
    fn a_row_threshold_recomputed_from_its_draw_matches_the_table() {
        let g = Geometry::tiny(300);
        for hc in [1u64, 777, 139_000] {
            let tables = DeviceTables::new(g, VictimModelParams::with_hc_first(hc), 31).unwrap();
            for idx in 0..g.total_rows() {
                let mut draw = SplitMix64::new(31);
                draw.skip(idx);
                let recomputed = row_threshold(hc, tables.params.threshold_jitter, draw.next_f64());
                assert_eq!(
                    recomputed.to_bits(),
                    tables.threshold[idx as usize].to_bits(),
                    "hc {hc} row {idx}"
                );
            }
        }
    }

    /// The tentpole's coalescing exactness bar: `activate_repeat(addr, n)`
    /// must be bit-identical to `n` separate activations — per-row charges,
    /// flips, direction split, and counters — under every available kernel,
    /// interleaved with targeted and full refreshes.
    #[test]
    fn activate_repeat_is_bit_identical_to_repeated_activates() {
        let g = Geometry::tiny(64);
        let p = VictimModelParams {
            data_pattern: DataPattern::RowStripe,
            ecc_codeword_bits: 128,
            ..VictimModelParams::with_hc_first(300)
        };
        let tables = DeviceTables::shared(g, p, 21).unwrap();
        for kernel in available_kernels() {
            let mut coalesced = DeviceState::with_tables_and_kernel(tables.clone(), kernel);
            let mut stepped = DeviceState::with_tables_and_kernel(tables.clone(), kernel);
            let mut rng = SplitMix64::new(4242);
            for _ in 0..2_000 {
                let row = rng.gen_range(64) as u32;
                let addr = RowAddr::bank_row(0, row);
                let n = 1 + rng.gen_range(40);
                coalesced.activate_repeat(addr, n);
                for _ in 0..n {
                    stepped.activate(addr);
                }
                assert_eq!(coalesced.total_activations(), stepped.total_activations());
                if rng.chance(0.05) {
                    let r = RowAddr::bank_row(0, rng.gen_range(64) as u32);
                    coalesced.refresh_row(r);
                    stepped.refresh_row(r);
                }
                if rng.chance(0.01) {
                    coalesced.refresh_all();
                    stepped.refresh_all();
                }
            }
            assert!(coalesced.total_flips() > 0, "sequence must exercise flips");
            assert_eq!(coalesced.total_flips(), stepped.total_flips());
            assert_eq!(coalesced.flipped_rows(), stepped.flipped_rows());
            assert_eq!(coalesced.total_activations(), stepped.total_activations());
            assert_eq!(coalesced.flips_1to0(), stepped.flips_1to0());
            assert_eq!(coalesced.flips_0to1(), stepped.flips_0to1());
            assert_eq!(coalesced.post_ecc_flips(), stepped.post_ecc_flips());
            for row in 0..64 {
                let addr = RowAddr::bank_row(0, row);
                assert_eq!(
                    coalesced.charge_of(addr).to_bits(),
                    stepped.charge_of(addr).to_bits(),
                    "kernel {kernel}: charge diverged at row {row}"
                );
            }
        }
    }

    /// Kernel independence at the device level: a scalar-pinned and an
    /// AVX2-pinned device driven through the same sequence agree bit for
    /// bit (skipped where the CPU has no AVX2 — the differential fuzz suite
    /// covers scalar vs eager there).
    #[test]
    fn scalar_and_avx2_kernels_agree_bit_for_bit() {
        if !crate::kernel::avx2_available() {
            return;
        }
        let g = Geometry::tiny(128);
        let p = VictimModelParams::with_hc_first(400);
        let tables = DeviceTables::shared(g, p, 7).unwrap();
        let mut scalar = DeviceState::with_tables_and_kernel(tables.clone(), Kernel::Scalar);
        let mut avx2 = DeviceState::with_tables_and_kernel(tables, Kernel::Avx2);
        let mut rng = SplitMix64::new(99);
        for _ in 0..30_000 {
            // Half the traffic hammers a hot row so thresholds are crossed
            // between the (rare) full refreshes.
            let row = if rng.chance(0.5) {
                64
            } else {
                rng.gen_range(128) as u32
            };
            let addr = RowAddr::bank_row(0, row);
            scalar.activate(addr);
            avx2.activate(addr);
            if rng.chance(0.0005) {
                scalar.refresh_all();
                avx2.refresh_all();
            }
        }
        assert!(scalar.total_flips() > 0);
        assert_eq!(scalar.total_flips(), avx2.total_flips());
        assert_eq!(scalar.flipped_rows(), avx2.flipped_rows());
        for row in 0..128 {
            let addr = RowAddr::bank_row(0, row);
            assert_eq!(
                scalar.charge_of(addr).to_bits(),
                avx2.charge_of(addr).to_bits(),
                "charge diverged at row {row}"
            );
        }
    }

    /// Satellite: true-/anti-cell assignment is a pure function of the
    /// device seed — identical across rebuilds, across `HC_first` values,
    /// and across data patterns; different seeds lay out differently.
    #[test]
    fn cell_orientation_is_a_pure_function_of_device_seed() {
        let g = Geometry::tiny(256);
        let orientations = |hc: u64, pattern: DataPattern, seed: u64| -> Vec<bool> {
            let params = VictimModelParams {
                data_pattern: pattern,
                ..VictimModelParams::with_hc_first(hc)
            };
            let t = DeviceTables::new(g, params, seed).unwrap();
            (0..256)
                .map(|r| t.anti_cell_of(RowAddr::bank_row(0, r)))
                .collect()
        };
        let base = orientations(1000, DataPattern::RowStripe, 42);
        assert_eq!(base, orientations(1000, DataPattern::RowStripe, 42));
        assert_eq!(
            base,
            orientations(5000, DataPattern::Solid, 42),
            "orientation must not depend on hc_first or pattern"
        );
        assert_eq!(base, orientations(1000, DataPattern::Legacy, 42));
        assert_ne!(base, orientations(1000, DataPattern::RowStripe, 43));
        let anti = base.iter().filter(|&&a| a).count();
        assert!(
            (64..192).contains(&anti),
            "orientation should mix both kinds, got {anti}/256 anti"
        );
    }

    #[test]
    fn orientation_stream_does_not_perturb_thresholds() {
        let g = Geometry::tiny(64);
        let legacy = DeviceTables::new(g, VictimModelParams::with_hc_first(1000), 7).unwrap();
        let striped = DeviceTables::new(
            g,
            VictimModelParams {
                data_pattern: DataPattern::RowStripe,
                ..VictimModelParams::with_hc_first(1000)
            },
            7,
        )
        .unwrap();
        assert_eq!(legacy.threshold, striped.threshold);
    }

    #[test]
    fn pattern_scales_the_attenuation_table() {
        let g = Geometry::tiny(64);
        let p = VictimModelParams {
            data_pattern: DataPattern::RowStripe,
            ..VictimModelParams::with_hc_first(1000)
        };
        let t = DeviceTables::new(g, p, 0).unwrap();
        for d in 1..=p.blast_radius {
            assert_eq!(
                t.attenuation(d),
                p.coupling_decay.powi(d as i32 - 1) * p.data_pattern.coupling_factor(d)
            );
        }
    }

    #[test]
    fn solid_pattern_flips_only_true_cell_rows_downward() {
        let g = Geometry::tiny(256);
        let p = VictimModelParams {
            threshold_jitter: 0.0,
            data_pattern: DataPattern::Solid,
            ..VictimModelParams::with_hc_first(400)
        };
        let mut d = DeviceState::new(g, p, 11);
        // Hammer every fourth row so victims of both orientations appear.
        for _ in 0..2_000 {
            for row in (2..254).step_by(4) {
                d.activate(RowAddr::bank_row(0, row));
            }
        }
        assert!(d.total_flips() > 0);
        assert_eq!(d.flips_0to1(), 0, "solid all-1s can only discharge 1→0");
        assert_eq!(d.flips_1to0(), d.total_flips());
        // Every flipped row must be a true-cell row with a nonzero budget.
        for row in 0..256 {
            let addr = RowAddr::bank_row(0, row);
            if d.tables().anti_cell_of(addr) {
                assert_eq!(d.tables().vulnerable_cells_of(addr), 0);
            } else {
                assert_eq!(d.tables().vulnerable_cells_of(addr), p.cells_per_row);
            }
        }
    }

    #[test]
    fn rowstripe_flips_in_both_directions_and_partitions_totals() {
        let g = Geometry::tiny(256);
        let p = VictimModelParams {
            threshold_jitter: 0.0,
            data_pattern: DataPattern::RowStripe,
            ..VictimModelParams::with_hc_first(400)
        };
        let mut d = DeviceState::new(g, p, 11);
        for _ in 0..2_000 {
            for row in (2..254).step_by(4) {
                d.activate(RowAddr::bank_row(0, row));
            }
        }
        assert!(d.total_flips() > 0);
        assert_eq!(d.flips_1to0() + d.flips_0to1(), d.total_flips());
        assert!(d.flips_1to0() > 0, "some victims are charged true-cells");
        assert!(d.flips_0to1() > 0, "some victims are charged anti-cells");
    }

    #[test]
    fn legacy_direction_tallies_partition_total_flips() {
        let g = Geometry::tiny(64);
        let mut d = DeviceState::new(g, VictimModelParams::with_hc_first(300), 9);
        let mut rng = SplitMix64::new(5);
        for _ in 0..20_000 {
            let row = if rng.chance(0.5) {
                32
            } else {
                rng.gen_range(64) as u32
            };
            d.activate(RowAddr::bank_row(0, row));
        }
        assert!(d.total_flips() > 0);
        assert_eq!(d.flips_1to0() + d.flips_0to1(), d.total_flips());
    }

    #[test]
    fn ecc_masks_low_flip_rows_and_is_none_when_disabled() {
        let g = Geometry::tiny(64);
        let base = VictimModelParams {
            threshold_jitter: 0.0,
            ..VictimModelParams::with_hc_first(1000)
        };
        let mut no_ecc = DeviceState::new(g, base, 1);
        assert_eq!(no_ecc.post_ecc_flips(), None);
        no_ecc.activate(RowAddr::bank_row(0, 8));
        assert_eq!(no_ecc.post_ecc_flips(), None);

        let p = VictimModelParams {
            ecc_codeword_bits: 128,
            ..base
        };
        let mut d = DeviceState::new(g, p, 1);
        let aggr = RowAddr::bank_row(0, 8);
        // Just past threshold: each distance-1 victim holds a single flip,
        // which a SEC code fully corrects.
        for _ in 0..1_000 {
            d.activate(aggr);
        }
        assert!(d.total_flips() > 0);
        assert_eq!(d.post_ecc_flips(), Some(0), "single-bit flips are masked");
        // Hammer far past threshold: multi-bit flips per codeword leak out.
        for _ in 0..5_000 {
            d.activate(aggr);
        }
        let post = d.post_ecc_flips().expect("ECC enabled");
        assert!(post > 0, "multi-bit flips must pass through");
        assert!(post <= d.total_flips(), "ECC cannot add flips");
    }

    #[test]
    fn degenerate_victim_params_are_rejected_with_clear_errors() {
        let g = Geometry::tiny(64);
        let err = DeviceTables::new(
            g,
            VictimModelParams {
                cells_per_row: 0,
                ..VictimModelParams::with_hc_first(1000)
            },
            0,
        )
        .unwrap_err();
        assert!(err.contains("cells_per_row"), "got '{err}'");
        let err = DeviceTables::new(
            g,
            VictimModelParams {
                ecc_codeword_bits: 10_000,
                ..VictimModelParams::with_hc_first(1000)
            },
            0,
        )
        .unwrap_err();
        assert!(err.contains("ECC codeword"), "got '{err}'");
    }

    #[test]
    fn reset_for_cell_handles_geometry_growth() {
        let p = VictimModelParams::with_hc_first(500);
        let small = DeviceTables::shared(Geometry::tiny(16), p, 3).unwrap();
        let big = DeviceTables::shared(Geometry::tiny(128), p, 3).unwrap();
        let mut d = DeviceState::with_tables(small);
        d.activate(RowAddr::bank_row(0, 8));
        d.reset_for_cell(big);
        d.activate(RowAddr::bank_row(0, 100));
        assert_eq!(d.total_activations(), 1);
        assert_eq!(d.charge_of(RowAddr::bank_row(0, 99)), 1.0);
    }
}
