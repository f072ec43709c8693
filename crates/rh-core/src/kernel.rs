//! Swappable leak-accumulate-and-settle kernels over the SoA row state.
//!
//! One activation (or a coalesced run of `n` identical activations) touches
//! a contiguous *blast window* of rows around the aggressor. With the row
//! state split into parallel slabs ([`crate::DeviceState`] holds
//! `charge`/`epoch`/`flips` vectors and reads `threshold`/`meta` in place
//! from its shared tables), that window is a handful of contiguous lanes
//! per field, and the per-lane update is the same short dataflow
//! everywhere:
//!
//! 1. **epoch-resolve** — a lane whose last-write epoch predates the device
//!    epoch holds a stale (pre-refresh) charge that must read as zero;
//! 2. **accumulate** — add the lane's distance-attenuated quantum `n`
//!    times, keeping the partial sum register-resident (the fp addition
//!    order per lane is exactly the order `n` separate activations would
//!    have used, which is what keeps coalescing bit-exact);
//! 3. **settle** — the rare branch: once charge crosses the lane's
//!    threshold, deterministically reconcile its recorded flips. The
//!    kernel reports whether it swept, so the device can note the settled
//!    lanes' charges in its sparse peak record.
//!
//! Two interchangeable implementations sit behind the [`Kernel`] dispatch,
//! selected once per device:
//!
//! * [`Kernel::Scalar`] — straight-line safe Rust, written so the
//!   autovectorizer can do what it likes with steps 1–2; also the fallback
//!   on non-x86-64 targets.
//! * [`Kernel::Avx2`] — `std::arch::x86_64` intrinsics processing four
//!   `f64` lanes per step: epoch compare + blend to zero stale lanes, `n`
//!   vector adds, then a threshold compare whose movemask peels only the
//!   (rare) crossing lanes into the scalar settle tail. Guarded by
//!   `is_x86_feature_detected!` at selection time — never chosen on a CPU
//!   without AVX2 — and bit-identical to the scalar kernel by
//!   construction: the same adds in the same per-lane order, and zeroing a
//!   stale lane by masking produces the same `+0.0` the scalar path
//!   stores.
//!
//! Selection ([`Kernel::auto`]): AVX2 when the CPU reports it, else scalar;
//! the `RH_FORCE_SCALAR` environment variable (any value except empty or
//! `0`) forces the scalar kernel — the CI fallback-coverage hook. The
//! choice can never affect results — the differential fuzz tests assert
//! scalar ≡ AVX2 ≡ the eager reference bit for bit — only throughput.
//!
//! ## The peak record
//!
//! The settle sweep is also where a device learns what its run would have
//! flipped at a higher `HC_first`. A lane's recorded flips are the
//! `expected_flips` of the highest charge it settled at, because
//! `expected_flips` is monotone in charge and charge only falls at a
//! refresh. So after every sweep the device keeps each lane that
//! `settles` in a sparse map from flat row index to its highest settled
//! charge (`PeakRecord`): one hashed update per settled lane, and only
//! lanes that crossed their threshold ever get an entry. The kernels do
//! not touch the map: they only return whether they swept. That keeps the
//! map out of `Window`, which every activation passes to a kernel by
//! value; carrying it there measurably slowed every activation, settling
//! or not. A lane's threshold at a higher
//! `HC_first` is the same jitter draw times a larger base, so every charge
//! that would settle there settles in this run too, and
//! [`crate::DeviceState::flips_under`] reads that `HC_first`'s flips off the
//! record exactly.

use crate::device::{ANTI_CELL_BIT, VULN_MASK};
use std::collections::HashMap;

/// A settle kernel. Selected once per device ([`Kernel::auto`]); the
/// per-activation dispatch is a two-way match on this tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Safe autovectorization-friendly scalar loop (and the only kernel on
    /// non-x86-64 targets).
    Scalar,
    /// AVX2 intrinsics, 4 × `f64` lanes per step. Only valid on a CPU that
    /// reports AVX2 ([`avx2_available`]), which [`Kernel::auto`] checks.
    Avx2,
}

impl Kernel {
    /// Stable identifier used in worker hellos, envelopes and benchmark
    /// reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
        }
    }

    /// The kernel this machine runs: AVX2 when the CPU reports it, else
    /// scalar, unless `RH_FORCE_SCALAR` forces scalar.
    pub fn auto() -> Self {
        if force_scalar(std::env::var("RH_FORCE_SCALAR").ok().as_deref()) || !avx2_available() {
            Self::Scalar
        } else {
            Self::Avx2
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `RH_FORCE_SCALAR` semantics: set and neither empty nor `0`.
fn force_scalar(value: Option<&str>) -> bool {
    matches!(value, Some(v) if !v.is_empty() && v != "0")
}

/// Whether the running CPU supports the AVX2 kernel.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Device-wide tallies one settle pass accumulates, applied to the
/// [`crate::DeviceState`] counters after the window walk (so the kernels
/// never re-borrow the device).
#[derive(Debug, Default)]
pub(crate) struct VictimTally {
    pub flips: u64,
    pub flips_1to0: u64,
    pub flips_0to1: u64,
    pub rows_flipped: u64,
}

/// Highest charge each settled row reached in the current cell, keyed by
/// flat row index (see the module docs). Sparse: a row gets an entry the
/// first time it settles, so its size is the number of rows that crossed
/// their threshold, not the device's row count.
pub(crate) type PeakRecord = HashMap<u32, f64>;

/// One blast window viewed through the SoA slabs: the same contiguous lane
/// range sliced out of every per-row vector, plus the matching slice of the
/// precomputed quanta template (the aggressor lane carries quantum `0.0`,
/// so the kernels need no skip-the-aggressor branch).
///
/// `floor` is the device-wide threshold floor (the minimum of the whole
/// threshold slab). The accumulate pass compares charges against it instead
/// of loading per-lane thresholds: since `floor <= t` for every lane, a
/// lane crossing its real threshold always crosses the floor too, so the
/// settle sweep (which re-checks `c >= t` per lane) can never be skipped
/// when it would have acted. A false floor trip only costs a redundant
/// sweep. The point is cache traffic: the overwhelmingly common
/// cold-window case (benign traffic over the whole device) touches just
/// the `charge` and `epoch` slabs — the `threshold`/`meta`/`flips` slabs
/// stay untouched unless a crossing is actually plausible.
pub(crate) struct Window<'a> {
    pub charge: &'a mut [f64],
    pub epoch: &'a mut [u64],
    pub threshold: &'a [f64],
    pub flips: &'a mut [u32],
    pub meta: &'a [u32],
    pub quanta: &'a [f64],
    pub floor: f64,
}

impl Window<'_> {
    fn len(&self) -> usize {
        debug_assert_eq!(self.charge.len(), self.epoch.len());
        debug_assert_eq!(self.charge.len(), self.threshold.len());
        debug_assert_eq!(self.charge.len(), self.flips.len());
        debug_assert_eq!(self.charge.len(), self.meta.len());
        debug_assert_eq!(self.charge.len(), self.quanta.len());
        self.charge.len()
    }
}

/// Flips a lane with `vuln` charged cells holds once settled at charge
/// `c >= t`, its threshold `t`: one at the crossing, plus `flip_slope` of
/// its cells per `HC_first` of overshoot, capped at `vuln`. Monotone
/// nondecreasing in `c` (every step rounds monotonically), which is what
/// makes settling once at a run's final charge, and deriving another
/// `HC_first` from a lane's peak, exact. The one formula both the settle
/// tail and [`crate::DeviceState::flips_under`] evaluate.
#[inline]
pub(crate) fn expected_flips(c: f64, t: f64, vuln: u32, hc_first: u64, flip_slope: f64) -> u32 {
    let overshoot = (c - t) / hc_first as f64;
    let expected = 1 + (overshoot * flip_slope * vuln as f64) as u32;
    expected.min(vuln)
}

/// The settle tail: deterministically reconcile a lane's recorded flips
/// with its (threshold-crossing) charge. Shared verbatim by both kernels —
/// and semantically identical to the eager reference's `settle_flips` — so
/// the kernels can only disagree about *when* it runs, never about what it
/// does; since expected flips are a monotone function of charge, running it
/// once at a run's final charge equals running it after every activation.
/// `vuln` (the lane's charged cells) is nonzero: a lane with nothing to
/// flip never settles.
#[inline]
fn settle_lane(
    c: f64,
    t: f64,
    meta: u32,
    flips: &mut u32,
    hc_first: u64,
    flip_slope: f64,
    tally: &mut VictimTally,
) {
    let expected = expected_flips(c, t, meta & VULN_MASK, hc_first, flip_slope);
    if expected > *flips {
        if *flips == 0 {
            tally.rows_flipped += 1;
        }
        let added = (expected - *flips) as u64;
        tally.flips += added;
        if meta & ANTI_CELL_BIT != 0 {
            tally.flips_0to1 += added;
        } else {
            tally.flips_1to0 += added;
        }
        *flips = expected;
    }
}

/// Whether a lane with charge `c`, threshold `t` and metadata word `meta`
/// settles: its charge has reached its threshold and it has charged cells
/// to flip. The settle sweep reconciles exactly these lanes, and the device
/// records exactly their charges in its peak record.
#[inline(always)]
pub(crate) fn settles(c: f64, t: f64, meta: u32) -> bool {
    c >= t && meta & VULN_MASK != 0
}

/// The settle sweep both kernels share after their accumulate pass: walk
/// the window once more and reconcile the (rare) lanes that [`settles`].
/// Lanes are independent, so splitting accumulate and settle into two
/// passes cannot change any value — it only keeps the branch out of the
/// accumulate loop so that loop stays a straight-line vector body.
#[inline(always)]
fn settle_window(w: &mut Window<'_>, hc_first: u64, flip_slope: f64, tally: &mut VictimTally) {
    for (((&c, &t), &meta), flips) in w
        .charge
        .iter()
        .zip(w.threshold.iter())
        .zip(w.meta.iter())
        .zip(w.flips.iter_mut())
    {
        if settles(c, t, meta) {
            settle_lane(c, t, meta, flips, hc_first, flip_slope, tally);
        }
    }
}

/// Scalar kernel: a bounds-check-free zipped accumulate pass the
/// autovectorizer is free to widen (the floor check folds into a running
/// max, a clean fp reduction), then the shared settle sweep, entered only
/// when some lane plausibly crossed. The single-activation case (`n == 1`,
/// every non-coalesced workload) skips the repeat loop entirely. Returns
/// whether the settle sweep ran.
pub(crate) fn leak_window_scalar(
    mut w: Window<'_>,
    n: u64,
    now: u64,
    hc_first: u64,
    flip_slope: f64,
    tally: &mut VictimTally,
) -> bool {
    debug_assert!(w.len() > 0);
    let mut peak = f64::NEG_INFINITY;
    if n == 1 {
        for ((c, e), &q) in w.charge.iter_mut().zip(w.epoch.iter_mut()).zip(w.quanta) {
            let base = if *e == now { *c } else { 0.0 };
            *e = now;
            let acc = base + q;
            *c = acc;
            peak = peak.max(acc);
        }
    } else {
        for ((c, e), &q) in w.charge.iter_mut().zip(w.epoch.iter_mut()).zip(w.quanta) {
            let mut acc = if *e == now { *c } else { 0.0 };
            *e = now;
            // Serial adds, never `q * n`: each lane must perform the exact
            // fp addition sequence `n` separate activations would have.
            for _ in 0..n {
                acc += q;
            }
            *c = acc;
            peak = peak.max(acc);
        }
    }
    let swept = peak >= w.floor;
    if swept {
        settle_window(&mut w, hc_first, flip_slope, tally);
    }
    swept
}

/// AVX2 kernel: four `f64` lanes per step, scalar remainder and settle
/// tail. Returns whether the settle sweep ran.
///
/// # Safety
/// The caller must have verified the CPU supports AVX2
/// ([`avx2_available`]), as [`Kernel::auto`] does before it selects
/// [`Kernel::Avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn leak_window_avx2(
    mut w: Window<'_>,
    n: u64,
    now: u64,
    hc_first: u64,
    flip_slope: f64,
    tally: &mut VictimTally,
) -> bool {
    use std::arch::x86_64::*;
    let len = w.len();
    let now_v = _mm256_set1_epi64x(now as i64);
    let floor_v = _mm256_set1_pd(w.floor);
    // Accumulate pass: 4 lanes per step, comparing against the broadcast
    // device-wide threshold floor (see [`Window::floor`]) so the pass never
    // touches the `threshold` slab; the movemask accumulated across the
    // window gates the settle sweep, which re-checks real thresholds.
    let mut crossed_any = 0u32;
    let mut i = 0;
    while i + 4 <= len {
        // Epoch-resolve: lanes whose last-write epoch matches compare to
        // all-ones; masking the charge with that zeroes exactly the stale
        // lanes (to `+0.0`, the same value the scalar path stores).
        let e = _mm256_loadu_si256(w.epoch.as_ptr().add(i) as *const __m256i);
        let fresh = _mm256_cmpeq_epi64(e, now_v);
        let mut c = _mm256_loadu_pd(w.charge.as_ptr().add(i));
        c = _mm256_and_pd(c, _mm256_castsi256_pd(fresh));
        // Every lane is current after this write (an unconditional store is
        // identical to the scalar path's per-lane stamp).
        _mm256_storeu_si256(w.epoch.as_mut_ptr().add(i) as *mut __m256i, now_v);
        // Accumulate: n serial vector adds keep each lane's fp addition
        // order identical to n separate scalar activations.
        let q = _mm256_loadu_pd(w.quanta.as_ptr().add(i));
        for _ in 0..n {
            c = _mm256_add_pd(c, q);
        }
        _mm256_storeu_pd(w.charge.as_mut_ptr().add(i), c);
        crossed_any |= _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(c, floor_v)) as u32;
        i += 4;
    }
    // Remainder lanes (windows at bank edges, or the odd lane of the
    // radius-2 five-lane window), scalar accumulate.
    while i < len {
        let q = *w.quanta.get_unchecked(i);
        let e = w.epoch.get_unchecked_mut(i);
        let mut acc = if *e == now {
            *w.charge.get_unchecked(i)
        } else {
            0.0
        };
        *e = now;
        for _ in 0..n {
            acc += q;
        }
        *w.charge.get_unchecked_mut(i) = acc;
        crossed_any |= u32::from(acc >= w.floor);
        i += 1;
    }
    let swept = crossed_any != 0;
    if swept {
        settle_window(&mut w, hc_first, flip_slope, tally);
    }
    swept
}

/// Dispatch a window through the selected kernel; returns whether the
/// settle sweep ran.
#[inline]
pub(crate) fn leak_window(
    kernel: Kernel,
    w: Window<'_>,
    n: u64,
    now: u64,
    hc_first: u64,
    flip_slope: f64,
    tally: &mut VictimTally,
) -> bool {
    match kernel {
        Kernel::Scalar => leak_window_scalar(w, n, now, hc_first, flip_slope, tally),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Kernel::auto selects Kernel::Avx2 only after
        // is_x86_feature_detected!("avx2") reported support, and every
        // other caller that names the variant checks avx2_available first.
        Kernel::Avx2 => unsafe { leak_window_avx2(w, n, now, hc_first, flip_slope, tally) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => leak_window_scalar(w, n, now, hc_first, flip_slope, tally),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_env_semantics() {
        assert!(!force_scalar(None));
        assert!(!force_scalar(Some("")));
        assert!(!force_scalar(Some("0")));
        assert!(force_scalar(Some("1")));
        assert!(force_scalar(Some("yes")));
    }

    /// `auto` is the one selection: scalar under `RH_FORCE_SCALAR` (CI's
    /// scalar leg), else AVX2 exactly when the CPU reports it.
    #[test]
    fn auto_follows_force_scalar_then_cpu_support() {
        let want = if force_scalar(std::env::var("RH_FORCE_SCALAR").ok().as_deref()) {
            Kernel::Scalar
        } else if avx2_available() {
            Kernel::Avx2
        } else {
            Kernel::Scalar
        };
        assert_eq!(Kernel::auto(), want);
        assert_eq!(Kernel::auto().to_string(), want.name());
    }
}
