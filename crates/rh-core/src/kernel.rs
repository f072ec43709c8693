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
//!    threshold, deterministically reconcile its recorded flips.
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
//! Selection policy ([`KernelChoice::resolve`]): `--kernel auto` picks AVX2
//! when the CPU supports it, else scalar; `--kernel scalar`/`avx2` pin a
//! kernel (pinning AVX2 on a CPU without it is an error, not a silent
//! fallback); and the `RH_FORCE_SCALAR` environment variable (any value
//! except empty or `0`) forces the scalar kernel over *any* choice — the CI
//! fallback-coverage hook. The choice can never affect results — the
//! differential fuzz tests assert scalar ≡ AVX2 ≡ the eager reference bit
//! for bit — only throughput.

use crate::device::{ANTI_CELL_BIT, VULN_MASK};

/// A resolved settle kernel. Selected once per device ([`KernelChoice`]
/// does the policy); the per-activation dispatch is a two-way match on this
/// tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Safe autovectorization-friendly scalar loop (and the only kernel on
    /// non-x86-64 targets).
    Scalar,
    /// AVX2 intrinsics, 4 × `f64` lanes per step. Only ever constructed via
    /// [`KernelChoice::resolve`] on a CPU that reports AVX2.
    Avx2,
}

impl Kernel {
    /// Stable identifier used in CLI flags and benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
        }
    }

    /// The kernel `--kernel auto` resolves to on this machine (AVX2 when
    /// detected, unless `RH_FORCE_SCALAR` is set).
    pub fn auto() -> Self {
        KernelChoice::Auto
            .resolve()
            .expect("auto selection always resolves")
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The user-facing kernel request (`--kernel {auto,scalar,avx2}`), resolved
/// to a concrete [`Kernel`] once per invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KernelChoice {
    /// Pick the fastest kernel the CPU supports (the default).
    #[default]
    Auto,
    /// Pin the scalar kernel.
    Scalar,
    /// Pin the AVX2 kernel; an error on CPUs without AVX2.
    Avx2,
}

impl KernelChoice {
    /// Stable identifier (CLI flag value).
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
        }
    }

    /// Resolve the request against the running CPU and the
    /// `RH_FORCE_SCALAR` override (which wins over everything, including an
    /// explicit `avx2` request — it exists so CI can force the fallback
    /// kernel through the whole stack without editing workflows per flag).
    pub fn resolve(self) -> Result<Kernel, String> {
        if force_scalar(std::env::var("RH_FORCE_SCALAR").ok().as_deref()) {
            return Ok(Kernel::Scalar);
        }
        match self {
            Self::Scalar => Ok(Kernel::Scalar),
            Self::Auto => Ok(if avx2_available() {
                Kernel::Avx2
            } else {
                Kernel::Scalar
            }),
            Self::Avx2 => {
                if avx2_available() {
                    Ok(Kernel::Avx2)
                } else {
                    Err("--kernel avx2 requested but this CPU does not report AVX2 \
                         (use --kernel auto or scalar)"
                        .to_string())
                }
            }
        }
    }
}

impl std::str::FromStr for KernelChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Self::Auto),
            "scalar" => Ok(Self::Scalar),
            "avx2" => Ok(Self::Avx2),
            other => Err(format!(
                "unknown kernel '{other}' (expected one of: auto, scalar, avx2)"
            )),
        }
    }
}

impl std::fmt::Display for KernelChoice {
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

/// The settle tail: deterministically reconcile a lane's recorded flips
/// with its (threshold-crossing) charge. Shared verbatim by both kernels —
/// and semantically identical to the eager reference's `settle_flips` — so
/// the kernels can only disagree about *when* it runs, never about what it
/// does; since expected flips are a monotone function of charge, running it
/// once at a run's final charge equals running it after every activation.
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
    let vuln = meta & VULN_MASK;
    if vuln == 0 {
        // No charged cells under this pattern/orientation: nothing to flip.
        return;
    }
    let overshoot = (c - t) / hc_first as f64;
    let expected = 1 + (overshoot * flip_slope * vuln as f64) as u32;
    let expected = expected.min(vuln);
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

/// The settle sweep both kernels share after their accumulate pass: walk
/// the window once more and reconcile the (rare) threshold-crossing lanes.
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
        if c >= t {
            settle_lane(c, t, meta, flips, hc_first, flip_slope, tally);
        }
    }
}

/// Scalar kernel: a bounds-check-free zipped accumulate pass the
/// autovectorizer is free to widen (the floor check folds into a running
/// max, a clean fp reduction), then the shared settle sweep, entered only
/// when some lane plausibly crossed. The single-activation case (`n == 1`,
/// every non-coalesced workload) skips the repeat loop entirely.
pub(crate) fn leak_window_scalar(
    mut w: Window<'_>,
    n: u64,
    now: u64,
    hc_first: u64,
    flip_slope: f64,
    tally: &mut VictimTally,
) {
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
    if peak >= w.floor {
        settle_window(&mut w, hc_first, flip_slope, tally);
    }
}

/// AVX2 kernel: four `f64` lanes per step, scalar remainder and settle
/// tail.
///
/// # Safety
/// The caller must have verified the CPU supports AVX2
/// ([`avx2_available`]); [`KernelChoice::resolve`] is the only constructor
/// of [`Kernel::Avx2`], and it checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn leak_window_avx2(
    mut w: Window<'_>,
    n: u64,
    now: u64,
    hc_first: u64,
    flip_slope: f64,
    tally: &mut VictimTally,
) {
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
    if crossed_any != 0 {
        settle_window(&mut w, hc_first, flip_slope, tally);
    }
}

/// Dispatch a window through the selected kernel.
#[inline]
pub(crate) fn leak_window(
    kernel: Kernel,
    w: Window<'_>,
    n: u64,
    now: u64,
    hc_first: u64,
    flip_slope: f64,
    tally: &mut VictimTally,
) {
    match kernel {
        Kernel::Scalar => leak_window_scalar(w, n, now, hc_first, flip_slope, tally),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Kernel::Avx2 is only constructed by KernelChoice::resolve
        // after is_x86_feature_detected!("avx2") reported support.
        Kernel::Avx2 => unsafe { leak_window_avx2(w, n, now, hc_first, flip_slope, tally) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => leak_window_scalar(w, n, now, hc_first, flip_slope, tally),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_names_round_trip_through_from_str() {
        for c in [KernelChoice::Auto, KernelChoice::Scalar, KernelChoice::Avx2] {
            assert_eq!(c.name().parse::<KernelChoice>().unwrap(), c);
            assert_eq!(c.to_string(), c.name());
        }
        let err = "sse9".parse::<KernelChoice>().unwrap_err();
        assert!(err.contains("unknown kernel 'sse9'"), "{err}");
        assert!(err.contains("auto") && err.contains("avx2"), "{err}");
    }

    #[test]
    fn force_scalar_env_semantics() {
        assert!(!force_scalar(None));
        assert!(!force_scalar(Some("")));
        assert!(!force_scalar(Some("0")));
        assert!(force_scalar(Some("1")));
        assert!(force_scalar(Some("yes")));
    }

    #[test]
    fn scalar_pin_always_resolves_and_auto_never_errors() {
        assert_eq!(KernelChoice::Scalar.resolve().unwrap(), Kernel::Scalar);
        let auto = KernelChoice::Auto.resolve().unwrap();
        assert!(matches!(auto, Kernel::Scalar | Kernel::Avx2));
        assert_eq!(Kernel::auto(), auto);
    }

    #[test]
    fn avx2_pin_matches_cpu_support() {
        // Under RH_FORCE_SCALAR the pin silently resolves to scalar (that
        // is the override's documented job), so only check the unforced
        // behavior when the ambient environment is clean.
        if force_scalar(std::env::var("RH_FORCE_SCALAR").ok().as_deref()) {
            assert_eq!(KernelChoice::Avx2.resolve().unwrap(), Kernel::Scalar);
        } else if avx2_available() {
            assert_eq!(KernelChoice::Avx2.resolve().unwrap(), Kernel::Avx2);
        } else {
            let err = KernelChoice::Avx2.resolve().unwrap_err();
            assert!(err.contains("AVX2"), "{err}");
        }
    }
}
