//! `rh-cli configure` — invert the closed-form failure model into a
//! deployable PARA sampling rate.
//!
//! The sweep answers "what happens at this `p`"; `configure` answers the
//! question an operator actually asks: *what sampling rate do I need* for a
//! device with a given `HC_first`, an attack window of `W` activations, and
//! a failure-probability budget. The answer comes straight from
//! `rh-analysis`' inverse solver — no simulation — and `--validate` then
//! runs a seeded mini-sweep through the real engine and checks the
//! recommendation statistically (the same empirical-vs-analytical contract
//! the crossval harness enforces; see `tests/crossval.rs` and
//! docs/ARCHITECTURE.md, "Analytical cross-validation").
//!
//! ## Mapping the closed form onto the engine
//!
//! The analytical model counts *trials*; the engine counts *activations*,
//! and the two are off by one on both axes. Per activation the engine runs
//! mitigation-observes → activate (leak + settle) → refresh-actions-apply,
//! so a sample at activation `t` resets the victim's charge *after* the
//! leak of activation `t` has already landed. The victim therefore flips at
//! activation `t` iff the `hc_first − 1` activations *before* `t` all
//! escaped sampling — whether `t` itself is sampled is irrelevant, and the
//! first activation of the window (nothing before it to reset) contributes
//! charge unconditionally. A window of `window` activations fails exactly
//! when activations `2..=window` contain a run of `hc_first − 1`
//! consecutive unsampled trials:
//!
//! ```text
//! P_fail(engine: p, hc_first, window)
//!     = p_fail_direct(p, hc_first − 1, window − 1)
//! ```
//!
//! [`analytic_pfail`] owns this shift; the crossval harness pins it with a
//! deterministic `p = 0` off-by-one probe, so a drift in engine ordering
//! breaks a test instead of silently skewing every recommendation. The
//! correspondence is exact (not approximate) under the conditions
//! [`empirical_failure_rate`] sets up: zero threshold jitter (thresholds are
//! exactly `hc_first`), a single-sided aggressor at distance-1 coupling 1.0,
//! auto-refresh off, and PARA's one-RNG-draw-per-activation sampling.

use crate::engine::{run_experiment, EngineScratch};
use crate::json::num;
use crate::proto::jstr;
use rh_analysis::{p_fail_direct, p_fail_dual, required_p, wilson_interval};
use rh_core::{
    derive_seed, DeviceState, DeviceTables, Geometry, Kernel, RowAddr, VictimModelParams,
};
use rh_mitigations::Para;
use rh_workloads::SingleSided;
use std::fmt::Write as _;

/// The z deviate every seeded statistical assertion in this workspace uses:
/// ~1e-5 two-sided normal tail. Wide enough that a fixed-seed draw
/// essentially never lands outside its band (the assertions stay
/// deterministic in practice), tight enough that a wrong model or a broken
/// engine-to-analytic mapping still fails loudly.
pub const CROSSVAL_Z: f64 = 4.417;

/// Largest `--window` `configure` accepts: 2^24 activations, about twelve
/// 64 ms tREFW windows at tRC ≈ 46 ns. Both closed forms keep one f64 per
/// activation of the failure run whenever the window fits a run (`HC_first`
/// ≤ window), so this bounds each buffer at 128 MiB; the Markov dual's
/// time stays O(window × `HC_first`).
pub const MAX_WINDOW: u64 = 1 << 24;

/// Options for one `configure` invocation.
#[derive(Debug, Clone)]
pub struct ConfigureOptions {
    /// Device `HC_first` (must be ≥ 2: the activation→trial shift needs at
    /// least one pre-flip trial to sample).
    pub hc_first: u64,
    /// Attack window in activations.
    pub window: u64,
    /// Failure-probability budget over the window, in (0, 1].
    pub target_pfail: f64,
    /// Run the confirming mini-sweep after solving.
    pub validate: bool,
    /// Independent seeded windows the mini-sweep simulates.
    pub trials: u64,
    /// Root seed for the mini-sweep (per-trial PARA seeds derive from it).
    pub seed: u64,
}

impl Default for ConfigureOptions {
    fn default() -> Self {
        Self {
            hc_first: 8192,
            window: 64_000,
            target_pfail: 0.001,
            validate: false,
            trials: 400,
            seed: 0xC0FFEE,
        }
    }
}

/// Outcome of the `--validate` mini-sweep.
#[derive(Debug, Clone)]
pub struct ValidationOutcome {
    pub trials: u64,
    pub failures: u64,
    pub seed: u64,
    pub empirical_rate: f64,
    /// Wilson band of `failures`-of-`trials` at [`CROSSVAL_Z`].
    pub band_lo: f64,
    pub band_hi: f64,
    /// The band contains the analytical prediction AND is consistent with
    /// the target being met (`band_lo <= target`).
    pub pass: bool,
}

/// Full `configure` outcome: the recommendation plus the evidence for it.
#[derive(Debug, Clone)]
pub struct ConfigureReport {
    pub hc_first: u64,
    pub window: u64,
    pub target_pfail: f64,
    /// Smallest sampling rate whose analytical failure probability meets
    /// the target.
    pub recommended_p: f64,
    /// `P_fail` at the recommendation, by the direct recurrence.
    pub analytic_pfail: f64,
    /// The same quantity by the Markov-chain dual — independent algebra.
    pub analytic_pfail_dual: f64,
    /// `|direct − dual|`; the report fails if this exceeds 1e-9.
    pub divergence: f64,
    pub validation: Option<ValidationOutcome>,
}

impl ConfigureReport {
    /// A report is healthy when the two closed forms agree and the
    /// mini-sweep (if run) confirmed the recommendation.
    pub fn healthy(&self) -> bool {
        self.divergence < 1e-9 && self.validation.as_ref().is_none_or(|v| v.pass)
    }
}

/// The engine's failure probability for a PARA-mitigated single-sided
/// attack, in closed form — `p_fail_direct` with the activation→trial shift
/// documented in the module header. `hc_first` must be ≥ 2.
pub fn analytic_pfail(p: f64, hc_first: u64, window: u64) -> f64 {
    assert!(hc_first >= 2, "hc_first {hc_first} must be at least 2");
    if window == 0 {
        return 0.0;
    }
    p_fail_direct(p, hc_first - 1, window - 1)
}

/// Same shift, dual evaluation (for the agreement cross-check).
pub fn analytic_pfail_dual(p: f64, hc_first: u64, window: u64) -> f64 {
    assert!(hc_first >= 2, "hc_first {hc_first} must be at least 2");
    if window == 0 {
        return 0.0;
    }
    p_fail_dual(p, hc_first - 1, window - 1)
}

/// Smallest sampling rate meeting `target_pfail` for the engine's model.
pub fn recommended_p(hc_first: u64, window: u64, target_pfail: f64) -> f64 {
    assert!(hc_first >= 2, "hc_first {hc_first} must be at least 2");
    if window == 0 {
        return 0.0;
    }
    required_p(hc_first - 1, window - 1, target_pfail)
}

/// Simulate `trials` independent attack windows through the real engine and
/// count how many end with at least one bit flip. Returns
/// `(failures, trials)`.
///
/// This is the shared empirical arm of the statistical contract: the
/// crossval harness and `configure --validate` both call it, so they can
/// never drift apart on what "the simulator's failure rate" means. The
/// setup pins every condition the closed form assumes: zero threshold
/// jitter, the legacy data pattern, auto-refresh off, a single-sided
/// aggressor with no benign traffic, and one independent PARA stream per
/// trial (seeds derived from `seed` and the trial index, so any subset of
/// trials reproduces bit-exactly).
pub fn empirical_failure_rate(
    p: f64,
    hc_first: u64,
    window: u64,
    trials: u64,
    seed: u64,
) -> (u64, u64) {
    assert!(hc_first >= 2, "hc_first {hc_first} must be at least 2");
    let geom = Geometry::tiny(64);
    let params = VictimModelParams {
        // Thresholds exactly hc_first — the analytic run length is sharp.
        threshold_jitter: 0.0,
        ..VictimModelParams::with_hc_first(hc_first)
    };
    let tables = DeviceTables::shared(geom, params, derive_seed(seed, &[0]))
        .expect("tiny geometry and jitter-free params are always valid");
    let mut device = DeviceState::with_tables_and_kernel(tables.clone(), Kernel::auto());
    let mut scratch = EngineScratch::new();
    let aggressor = RowAddr::bank_row(0, 32);
    let mut failures = 0u64;
    for trial in 0..trials {
        device.reset_for_cell(tables.clone());
        let mut workload = SingleSided::new(aggressor);
        let mut para = Para::new(p, 2, derive_seed(seed, &[1, trial]));
        let result = run_experiment(
            &mut device,
            &mut workload,
            &mut para,
            window,
            0, // auto-refresh off: the window is the only reset horizon
            &mut scratch,
        );
        if result.total_flips > 0 {
            failures += 1;
        }
    }
    (failures, trials)
}

/// Solve for the sampling rate and (optionally) validate it empirically.
pub fn run_configure(opts: &ConfigureOptions) -> Result<ConfigureReport, String> {
    if opts.hc_first < 2 {
        return Err("--hc must be at least 2".to_string());
    }
    if opts.window == 0 {
        return Err("--window must be at least 1 activation".to_string());
    }
    if opts.window > MAX_WINDOW {
        return Err(format!(
            "--window must be at most {MAX_WINDOW} activations (2^24), got {}",
            opts.window
        ));
    }
    if !(opts.target_pfail > 0.0 && opts.target_pfail <= 1.0) {
        return Err(format!(
            "--target-pfail must be in (0, 1], got {}",
            opts.target_pfail
        ));
    }
    if opts.validate && opts.trials == 0 {
        return Err("--trials must be at least 1".to_string());
    }
    let p = recommended_p(opts.hc_first, opts.window, opts.target_pfail);
    let direct = analytic_pfail(p, opts.hc_first, opts.window);
    let dual = analytic_pfail_dual(p, opts.hc_first, opts.window);
    let validation = if opts.validate {
        let (failures, trials) =
            empirical_failure_rate(p, opts.hc_first, opts.window, opts.trials, opts.seed);
        let (band_lo, band_hi) = wilson_interval(failures, trials, CROSSVAL_Z);
        Some(ValidationOutcome {
            trials,
            failures,
            seed: opts.seed,
            empirical_rate: failures as f64 / trials as f64,
            band_lo,
            band_hi,
            // Two checks: the band contains the analytical prediction (the
            // model and the engine agree), and the data is consistent with
            // the target being met (the recommendation works).
            pass: band_lo <= direct && direct <= band_hi && band_lo <= opts.target_pfail,
        })
    } else {
        None
    };
    Ok(ConfigureReport {
        hc_first: opts.hc_first,
        window: opts.window,
        target_pfail: opts.target_pfail,
        recommended_p: p,
        analytic_pfail: direct,
        analytic_pfail_dual: dual,
        divergence: (direct - dual).abs(),
        validation,
    })
}

/// Render the report as a JSON document, in the same hand-rolled style as
/// the sweep emitter. Every float is written in shortest round-trip form (a
/// recommendation rounded to a few decimals is a different recommendation).
pub fn render_configure(report: &ConfigureReport) -> String {
    let mut validation = "null".to_string();
    if let Some(v) = &report.validation {
        validation = format!(
            "{{\n    \"trials\": {},\n    \"failures\": {},\n    \"seed\": {},\n    \
             \"empirical_rate\": {},\n    \"band_z\": {},\n    \"band_lo\": {},\n    \
             \"band_hi\": {},\n    \"pass\": {}\n  }}",
            v.trials,
            v.failures,
            v.seed,
            num(v.empirical_rate),
            num(CROSSVAL_Z),
            num(v.band_lo),
            num(v.band_hi),
            v.pass,
        );
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"configure\": {},\n  \
         \"hc_first\": {},\n  \
         \"window_activations\": {},\n  \
         \"target_pfail\": {},\n  \
         \"recommended_p\": {},\n  \
         \"analytic_pfail\": {},\n  \
         \"analytic_pfail_dual\": {},\n  \
         \"divergence\": {},\n  \
         \"validation\": {validation}\n}}",
        jstr("PARA sampling rate from the closed-form failure model"),
        report.hc_first,
        report.window,
        num(report.target_pfail),
        num(report.recommended_p),
        num(report.analytic_pfail),
        num(report.analytic_pfail_dual),
        num(report.divergence),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommendation_meets_the_target_analytically() {
        for &(hc, window, target) in &[
            (8u64, 1_000u64, 0.5f64),
            (16, 4_096, 0.1),
            (64, 64_000, 0.01),
        ] {
            let p = recommended_p(hc, window, target);
            assert!(
                analytic_pfail(p, hc, window) <= target,
                "hc={hc} w={window}: p={p} misses {target}"
            );
            // Minimality, through the same shifted mapping the CLI reports.
            let shy = p * (1.0 - 1e-6);
            assert!(analytic_pfail(shy, hc, window) > target);
        }
    }

    #[test]
    fn run_configure_reports_agreeing_forms() {
        let report = run_configure(&ConfigureOptions {
            hc_first: 16,
            window: 2_000,
            target_pfail: 0.25,
            validate: false,
            ..ConfigureOptions::default()
        })
        .unwrap();
        assert!(report.divergence < 1e-9);
        assert!(report.healthy());
        assert!(report.validation.is_none());
        let doc = render_configure(&report);
        assert!(doc.contains("\"recommended_p\""));
        assert!(doc.contains("\"validation\": null"));
        // The emitted document must be machine-readable by our own parser.
        let value = crate::proto::parse(&doc).expect("configure JSON must parse");
        assert_eq!(value.get("hc_first").and_then(|v| v.as_u64()), Some(16));
    }

    #[test]
    fn rejections_name_the_offending_flag() {
        for (opts, needle) in [
            (
                ConfigureOptions {
                    hc_first: 1,
                    ..ConfigureOptions::default()
                },
                "--hc",
            ),
            (
                ConfigureOptions {
                    window: 0,
                    ..ConfigureOptions::default()
                },
                "--window",
            ),
            (
                ConfigureOptions {
                    target_pfail: 0.0,
                    ..ConfigureOptions::default()
                },
                "--target-pfail",
            ),
            (
                ConfigureOptions {
                    target_pfail: 1.5,
                    ..ConfigureOptions::default()
                },
                "--target-pfail",
            ),
            (
                ConfigureOptions {
                    validate: true,
                    trials: 0,
                    ..ConfigureOptions::default()
                },
                "--trials",
            ),
        ] {
            let err = run_configure(&opts).unwrap_err();
            assert!(err.contains(needle), "got '{err}'");
        }
    }

    /// A window past `MAX_WINDOW` is refused before either closed form
    /// allocates its run buffer; at the limit, an `HC_first` the window
    /// cannot fit needs no sampling at all.
    #[test]
    fn windows_past_the_limit_are_refused_naming_it() {
        let err = run_configure(&ConfigureOptions {
            hc_first: u64::MAX,
            window: u64::MAX,
            target_pfail: 0.5,
            ..ConfigureOptions::default()
        })
        .unwrap_err();
        assert!(
            err.contains("--window") && err.contains(&MAX_WINDOW.to_string()),
            "got '{err}'"
        );
        let report = run_configure(&ConfigureOptions {
            hc_first: MAX_WINDOW + 1,
            window: MAX_WINDOW,
            target_pfail: 0.5,
            ..ConfigureOptions::default()
        })
        .unwrap();
        assert_eq!(report.recommended_p, 0.0);
        assert!(report.healthy());
    }

    /// A tiny validated run end to end: deterministic seed, must pass.
    #[test]
    fn validated_configure_passes_on_a_small_point() {
        let report = run_configure(&ConfigureOptions {
            hc_first: 8,
            window: 1_200,
            target_pfail: 0.5,
            validate: true,
            trials: 120,
            seed: 0xC0FFEE,
        })
        .unwrap();
        let v = report.validation.as_ref().expect("validation ran");
        assert!(
            v.pass,
            "empirical {}/{} band [{}, {}] vs analytic {}",
            v.failures, v.trials, v.band_lo, v.band_hi, report.analytic_pfail
        );
        assert!(report.healthy());
        let doc = render_configure(&report);
        assert!(doc.contains("\"pass\": true"));
    }
}
