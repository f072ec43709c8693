//! # rh-analysis — closed-form row-sampling failure model
//!
//! The analytical ground truth the simulator is cross-validated against.
//! Every other correctness argument in this workspace is *differential* —
//! optimized ≡ reference, sharded ≡ serial, distributed ≡ in-process — which
//! can never catch a bug both paths share. This crate computes, in closed
//! form, the quantity the whole PARA arm of the sweep estimates empirically:
//! the probability that a sampling mitigation at rate `p` fails to interrupt
//! a hammering attack.
//!
//! ## The model
//!
//! Per activation, PARA samples (and refreshes the aggressor's neighbors)
//! with probability `p`, independently — one Bernoulli trial per activation.
//! A victim row flips when `mac` *consecutive* activations all escape
//! sampling (every sample resets the victim's accumulated disturbance; see
//! the DRAMSec 2022 row-sampling analysis, and `rh-cli`'s crossval harness
//! for the exact mapping onto the simulator's engine). The failure
//! probability over an attack window of `window` activations is therefore a
//! classical run statistic:
//!
//! ```text
//! P_fail(p, mac, window) = P( ≥ mac consecutive misses among window
//!                             Bernoulli(q = 1 − p) miss trials )
//! ```
//!
//! Two independent evaluations are provided and asserted to agree:
//!
//! * [`p_fail_direct`] — the linear recurrence over the *no-run-yet*
//!   probability, accumulated in complementary form (a sum of small positive
//!   terms, never `1 − (≈1)`), with `q^mac` evaluated in log space via
//!   `ln_1p` so tiny `p` and huge `mac` do not underflow through `1 - p`.
//!   O(window) time, O(mac) space.
//! * [`p_fail_dual`] — a genuinely different algorithm: the run-length
//!   Markov chain over states `0..mac` (trailing-miss-run length, `mac`
//!   absorbing), evolved step by step. O(window · mac) time. Slower, but it
//!   shares no algebra with the recurrence, so agreement within 1e-9 across
//!   the parameter grid (asserted in this crate's tests, and at the
//!   recommendation on every `rh-cli configure` run) is a real
//!   cross-check, not a tautology.
//!
//! On top of the model: [`wilson_interval`] (the score confidence interval
//! for k-of-n trial outcomes, used by the crossval harness's CI band and by
//! the seeded statistics tests in `rh-mitigations`), and [`required_p`]
//! (the inverse solver behind `rh-cli configure`: the smallest sampling rate
//! meeting a target failure probability, by bisection — `P_fail` is strictly
//! decreasing in `p`).

/// Probability of a run of at least `mac` consecutive misses in `window`
/// independent trials that each miss with probability `1 − p`.
///
/// Evaluated by the complementary linear recurrence. Let `S(n)` be the
/// probability that `n` trials contain **no** run of `mac` misses, and
/// `F(n) = 1 − S(n)`. A new failure ending by trial `n` requires a sampled
/// trial at `n − mac` followed by `mac` misses, in a prefix that had not
/// failed yet:
///
/// ```text
/// F(n) = F(n−1) + p · q^mac · (1 − F(n−mac−1)),   F(n) = 0 for n < mac,
/// F(mac) = q^mac
/// ```
///
/// `F` is accumulated directly (never as `1 − S`), so failure probabilities
/// down at the 1e-300 scale keep full relative precision, and `q^mac` is
/// computed as `exp(mac · ln(1−p))` via [`f64::ln_1p`] so `p = 1e-12`,
/// `mac = 10^6` stays exact instead of rounding through `1.0 - p`.
///
/// Edge conventions: `window < mac` → 0; `p = 0` → 1 whenever the window
/// fits a run; `p = 1` → 0. Panics on `mac == 0` or `p ∉ [0, 1]`.
pub fn p_fail_direct(p: f64, mac: u64, window: u64) -> f64 {
    check_args(p, mac);
    if window < mac {
        return 0.0;
    }
    // q^mac in log space: mac * ln(1-p), exact for tiny p via ln_1p.
    let q_mac = if p >= 1.0 {
        0.0
    } else {
        (mac as f64 * (-p).ln_1p()).exp()
    };
    let len = (mac + 1) as usize;
    // Ring of the last mac+1 values of F; F(n) lives at n % (mac+1).
    // Indices 0..mac start at F(<mac) = 0.
    let mut ring = vec![0.0f64; len];
    ring[(mac % (mac + 1)) as usize] = q_mac;
    let mut f = q_mac;
    for n in (mac + 1)..=window {
        f += p * q_mac * (1.0 - ring[((n - mac - 1) % (mac + 1)) as usize]);
        ring[(n % (mac + 1)) as usize] = f;
    }
    f.min(1.0)
}

/// The same probability as [`p_fail_direct`], by the run-length Markov
/// chain: state `j < mac` is "the trailing run of misses is exactly `j`
/// long", state `mac` absorbs. Each trial moves `j → 0` with probability
/// `p` and `j → j+1` with probability `q`; the absorbed mass after
/// `window` steps is the failure probability, accumulated (like the direct
/// form) as a sum of small positive increments.
///
/// O(window · mac) — the expensive dual kept deliberately algorithm-distinct
/// from the recurrence so the two can cross-check each other.
pub fn p_fail_dual(p: f64, mac: u64, window: u64) -> f64 {
    check_args(p, mac);
    if window < mac {
        return 0.0;
    }
    let q = 1.0 - p;
    let m = mac as usize;
    let mut state = vec![0.0f64; m];
    state[0] = 1.0;
    let mut absorbed = 0.0f64;
    for _ in 0..window {
        let alive = 1.0 - absorbed;
        absorbed += q * state[m - 1];
        for j in (1..m).rev() {
            state[j] = q * state[j - 1];
        }
        state[0] = p * alive;
    }
    absorbed.min(1.0)
}

fn check_args(p: f64, mac: u64) {
    assert!(
        (0.0..=1.0).contains(&p),
        "sampling probability {p} out of [0, 1]"
    );
    assert!(mac >= 1, "a failure run must be at least 1 trial long");
}

/// Smallest sampling probability `p` with
/// `p_fail_direct(p, mac, window) <= target_pfail`, by bisection —
/// `P_fail` is continuous and strictly decreasing in `p` on the nontrivial
/// range, with `P_fail(1) = 0`, so the bracket `[0, 1]` always closes. The
/// returned `p` is the bracket's upper endpoint, so the target is *met*,
/// never just approached from above. Returns 0 when even an unsampled
/// stream meets the target (e.g. `window < mac`).
///
/// Panics unless `target_pfail ∈ (0, 1]` (a target of exactly 0 is
/// unreachable for any finite `p < 1` once the window fits a run).
pub fn required_p(mac: u64, window: u64, target_pfail: f64) -> f64 {
    assert!(
        target_pfail > 0.0 && target_pfail <= 1.0,
        "target failure probability {target_pfail} must be in (0, 1]"
    );
    if p_fail_direct(0.0, mac, window) <= target_pfail {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    // 100 halvings take the bracket below one ulp of f64; each step is one
    // O(window) evaluation.
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if p_fail_direct(mid, mac, window) > target_pfail {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= f64::EPSILON * hi {
            break;
        }
    }
    hi
}

/// Wilson score interval for a binomial proportion: the `[lo, hi]` band
/// within which the true success probability is consistent with observing
/// `successes` out of `trials`, at `z` standard normal deviates of
/// confidence. Unlike the naive ±z·σ Wald band it stays inside `[0, 1]` and
/// behaves at the boundaries (`successes = 0` pins `lo` to exactly 0,
/// `successes = trials` pins `hi` to exactly 1).
///
/// The workspace's seeded statistical tests use wide bands (z ≈ 4.4, a
/// ~1e-5 two-sided tail) so a fixed-seed draw essentially never lands
/// outside; the assertion is then deterministic in practice while still
/// bounding the model error it checks.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    assert!(trials >= 1, "the interval needs at least one trial");
    assert!(successes <= trials, "more successes than trials");
    assert!(z > 0.0 && z.is_finite(), "z must be a positive deviate");
    let n = trials as f64;
    let phat = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (phat + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (phat * (1.0 - phat) / n + z2 / (4.0 * n * n)).sqrt();
    // At the boundaries the score bound equals 0 / 1 algebraically, but the
    // two-step center±half evaluation lands one ulp inside; pin explicitly.
    let lo = if successes == 0 {
        0.0
    } else {
        (center - half).max(0.0)
    };
    let hi = if successes == trials {
        1.0
    } else {
        (center + half).min(1.0)
    };
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact failure probability by exhaustive enumeration of every
    /// sample/miss outcome of a short window — the independent ground truth
    /// both closed forms must match.
    fn brute_force(p: f64, mac: u64, window: u64) -> f64 {
        let mut fail = 0.0;
        for outcome in 0u64..(1 << window) {
            let mut run = 0u64;
            let mut longest = 0u64;
            for t in 0..window {
                if outcome & (1 << t) == 0 {
                    run += 1;
                    longest = longest.max(run);
                } else {
                    run = 0;
                }
            }
            if longest >= mac {
                let samples = outcome.count_ones() as i32;
                fail += p.powi(samples) * (1.0 - p).powi(window as i32 - samples);
            }
        }
        fail
    }

    #[test]
    fn both_forms_match_exhaustive_enumeration() {
        for mac in [1u64, 2, 3, 5] {
            for window in [0u64, 1, 2, 4, 7, 11, 14] {
                for p in [0.0, 0.05, 0.3, 0.5, 0.77, 1.0] {
                    let exact = brute_force(p, mac, window);
                    let direct = p_fail_direct(p, mac, window);
                    let dual = p_fail_dual(p, mac, window);
                    assert!(
                        (direct - exact).abs() < 1e-12,
                        "direct p={p} mac={mac} w={window}: {direct} vs exact {exact}"
                    );
                    assert!(
                        (dual - exact).abs() < 1e-12,
                        "dual p={p} mac={mac} w={window}: {dual} vs exact {exact}"
                    );
                }
            }
        }
    }

    /// The agreement contract: direct and dual agree within 1e-9 across
    /// parameters spanning tiny and large `p` (the sweep's PARA axis
    /// 0.001–0.016 among them), short and long runs, and windows from
    /// degenerate to 16K trials.
    #[test]
    fn direct_and_dual_agree_within_1e9_across_the_grid() {
        let mut checked = 0u32;
        for &mac in &[1u64, 2, 3, 4, 5, 8, 13, 16, 21, 32, 64] {
            for &window in &[0u64, 1, 7, 64, 257, 999, 1000, 4096, 16384] {
                for &p in &[
                    0.0, 1e-6, 1e-3, 0.004, 0.01, 0.016, 0.05, 0.2, 0.5, 0.9, 0.999, 1.0,
                ] {
                    let direct = p_fail_direct(p, mac, window);
                    let dual = p_fail_dual(p, mac, window);
                    assert!(
                        (direct - dual).abs() < 1e-9,
                        "p={p} mac={mac} w={window}: direct {direct} vs dual {dual}"
                    );
                    assert!((0.0..=1.0).contains(&direct));
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 11 * 9 * 12, "the whole grid must be exercised");
    }

    #[test]
    fn edges_follow_the_documented_conventions() {
        // A window too short for a run can never fail.
        assert_eq!(p_fail_direct(0.3, 10, 9), 0.0);
        assert_eq!(p_fail_dual(0.3, 10, 9), 0.0);
        // Never sampling fails as soon as the window fits a run.
        assert_eq!(p_fail_direct(0.0, 10, 10), 1.0);
        assert_eq!(p_fail_dual(0.0, 10, 10), 1.0);
        // Always sampling never fails.
        assert_eq!(p_fail_direct(1.0, 1, 1000), 0.0);
        assert_eq!(p_fail_dual(1.0, 1, 1000), 0.0);
        // mac = 1 collapses to "at least one miss": 1 − p^window.
        for &p in &[0.1f64, 0.5, 0.9] {
            let expect = 1.0 - p.powi(20);
            assert!((p_fail_direct(p, 1, 20) - expect).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn out_of_range_p_panics() {
        p_fail_direct(1.5, 4, 10);
    }

    #[test]
    #[should_panic(expected = "at least 1 trial")]
    fn zero_mac_panics() {
        p_fail_direct(0.5, 0, 10);
    }

    #[test]
    fn monotone_in_every_argument() {
        // Decreasing in p — up to accumulation noise: adjacent values can sit
        // one ulp apart when both saturate toward 1 (e.g. p = 0.05 vs 0.1 at
        // mac = 8, window = 500), so allow a 1e-12 slack.
        let ps: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        for w in ps.windows(2) {
            assert!(p_fail_direct(w[1], 8, 500) <= p_fail_direct(w[0], 8, 500) + 1e-12);
        }
        // Increasing in window.
        for window in 8..200u64 {
            assert!(p_fail_direct(0.2, 8, window + 1) >= p_fail_direct(0.2, 8, window));
        }
        // Decreasing in mac.
        for mac in 1..40u64 {
            assert!(p_fail_direct(0.2, mac + 1, 500) <= p_fail_direct(0.2, mac, 500));
        }
    }

    /// Log-space q^mac: tiny p with a huge run length must not collapse to
    /// `1 - p == 1`. At window == mac the failure probability *is* q^mac =
    /// exp(mac · ln(1−p)), so the expected value is known in closed form.
    #[test]
    fn tiny_p_large_mac_keeps_precision() {
        let (p, mac) = (1e-12f64, 1_000_000u64);
        let expect = (mac as f64 * (-p).ln_1p()).exp(); // ≈ 1 − 1e-6
        let got = p_fail_direct(p, mac, mac);
        assert!(
            ((1.0 - got) / (1.0 - expect) - 1.0).abs() < 1e-9,
            "q^mac lost precision: got {got}, expected {expect}"
        );
        // The naive 1-p powering would round the complement to ~0 here;
        // the computed complement must stay at the 1e-6 scale.
        assert!((1.0 - got) > 5e-7 && (1.0 - got) < 2e-6);
    }

    #[test]
    fn required_p_brackets_the_target_from_below() {
        for &(mac, window, target) in &[
            (8u64, 1000u64, 0.5f64),
            (4, 500, 0.1),
            (16, 4096, 0.9),
            (32, 2000, 0.01),
        ] {
            let p = required_p(mac, window, target);
            assert!((0.0..=1.0).contains(&p));
            assert!(
                p_fail_direct(p, mac, window) <= target,
                "mac={mac} w={window}: p={p} misses the target"
            );
            // One part in a million less sampling must overshoot: p is the
            // *smallest* adequate rate, not merely an adequate one.
            let shy = p * (1.0 - 1e-6);
            assert!(
                p_fail_direct(shy, mac, window) > target,
                "mac={mac} w={window}: p={p} is not minimal"
            );
        }
    }

    #[test]
    fn required_p_degenerate_cases() {
        // Window too short to ever fail: no sampling needed.
        assert_eq!(required_p(10, 9, 0.5), 0.0);
        // A target of 1 is met by anything, including p = 0.
        assert_eq!(required_p(10, 1000, 1.0), 0.0);
    }

    #[test]
    fn wilson_interval_basics() {
        let (lo, hi) = wilson_interval(50, 100, 2.0);
        assert!(lo < 0.5 && 0.5 < hi, "must contain the point estimate");
        assert!(lo > 0.3 && hi < 0.7, "n=100 at z=2 is not this wide");
        // Boundary pinning.
        let (lo, hi) = wilson_interval(0, 100, 3.0);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.2);
        let (lo, hi) = wilson_interval(100, 100, 3.0);
        assert_eq!(hi, 1.0);
        assert!(lo > 0.8);
        // More trials narrow the band.
        let wide = wilson_interval(5, 10, 2.0);
        let narrow = wilson_interval(500, 1000, 2.0);
        assert!(narrow.1 - narrow.0 < wide.1 - wide.0);
        // Wider z widens the band.
        let z2 = wilson_interval(30, 100, 2.0);
        let z4 = wilson_interval(30, 100, 4.4);
        assert!(z4.0 < z2.0 && z2.1 < z4.1);
    }

    #[test]
    #[should_panic(expected = "more successes than trials")]
    fn wilson_rejects_impossible_counts() {
        wilson_interval(11, 10, 2.0);
    }
}
