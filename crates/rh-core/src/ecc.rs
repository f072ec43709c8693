//! On-die ECC — the single-error-correcting layer the paper's Section 5.3
//! shows masking RowHammer on the newest chips.
//!
//! LPDDR4-class devices ship an internal SEC (single-error-correcting) code:
//! each codeword of `codeword_bits` data cells carries enough parity to
//! correct **exactly one** flipped bit. A codeword with a single RowHammer
//! flip therefore reads back clean; a codeword accumulating two or more
//! flips exceeds the correction capability and every flip in it becomes
//! visible (real SEC codes can even miscorrect, which we conservatively
//! round to "all raw flips visible"). The paper's observation — on-die ECC
//! hides the onset of RowHammer but multi-bit flips leak through as the
//! raw error rate rises — falls out of exactly this per-codeword rule,
//! implemented in [`visible_in_codeword`].
//!
//! The device model tracks flips per *row* as aggregate counts, not as cell
//! positions, so applying ECC requires placing a row's `raw` flips into its
//! `⌈cells_per_row / codeword_bits⌉` codewords. Placement is modeled as a
//! deterministic seeded balls-into-bins throw ([`visible_flips`]): flip
//! positions within a row are effectively random (per-cell vulnerability is
//! process variation), and seeding the throw from the device seed and the
//! row index keeps the whole pipeline a pure function of the root seed. At
//! very high raw counts the throw can exceed a codeword's physical bit
//! capacity; that regime is far past the point where ECC passes everything
//! through anyway, so the approximation is harmless.
//!
//! ECC never influences the *dynamics* — charge accumulation, mitigation
//! behavior, and raw flip counts are identical with ECC on or off — it only
//! filters which flips the host observes. Both device implementations
//! therefore apply it as a post-run scan ([`post_ecc_total`]) over the
//! per-row raw flip counts, entirely off the per-activation hot path.

use crate::rng::{derive_seed, SplitMix64};

/// Stream discriminator mixed into the device seed for per-row flip
/// placement (arbitrary constant, distinct from the cell-orientation
/// stream in `device`).
const ECC_PLACEMENT_STREAM: u64 = 0xECC;

/// Number of ECC codewords covering one row of `cells_per_row` cells at
/// `codeword_bits` cells per codeword (the trailing partial codeword
/// counts).
pub fn codeword_count(cells_per_row: u32, codeword_bits: u32) -> u32 {
    debug_assert!(codeword_bits > 0);
    cells_per_row.div_ceil(codeword_bits).max(1)
}

/// Flips visible after correction in one codeword holding `raw` flipped
/// bits: a SEC code corrects a lone flip and is overwhelmed by two or more.
pub fn visible_in_codeword(raw: u32) -> u32 {
    if raw <= 1 {
        0
    } else {
        raw
    }
}

/// Post-ECC visible flips in one row with `raw` flipped cells.
///
/// `codewords` is the reusable per-row placement scratch (one slot per
/// codeword; its length is the codeword count) and `rng` the per-row
/// placement stream. Each flip lands in a uniformly drawn codeword;
/// the result is the sum of [`visible_in_codeword`] over the bins. The
/// scratch is left holding the placement so callers (tests) can audit the
/// per-codeword decision.
pub fn visible_flips(raw: u32, codewords: &mut [u32], rng: &mut SplitMix64) -> u32 {
    codewords.fill(0);
    if codewords.len() <= 1 {
        if let Some(slot) = codewords.first_mut() {
            *slot = raw;
        }
        return visible_in_codeword(raw);
    }
    let n = codewords.len() as u64;
    for _ in 0..raw {
        codewords[rng.gen_range(n) as usize] += 1;
    }
    codewords.iter().map(|&k| visible_in_codeword(k)).sum()
}

/// Apply on-die ECC to a whole device: sum the post-correction visible
/// flips over every row's raw flip count.
///
/// `rows` yields each row's cumulative raw flips in flat-index order;
/// `device_seed` is the seed the device's tables were derived from, so the
/// per-row placement streams — `derive_seed(device_seed, [ECC, row])` — are
/// a pure function of the seed and both device implementations (optimized
/// and eager reference) report identical post-ECC counts for identical raw
/// counts.
pub fn post_ecc_total(
    rows: impl Iterator<Item = u32>,
    cells_per_row: u32,
    codeword_bits: u32,
    device_seed: u64,
) -> u64 {
    post_ecc_rows(
        rows.enumerate().filter(|&(_, raw)| raw > 0),
        cells_per_row,
        codeword_bits,
        device_seed,
    )
}

/// [`post_ecc_total`] over `(flat index, raw flips)` pairs, in any order:
/// each row's placement stream depends only on its index, and the total is
/// a sum. Rows left out count as unflipped, so a caller that knows which
/// rows flipped (`DeviceState::flips_under`) pays for those rows only.
pub fn post_ecc_rows(
    rows: impl Iterator<Item = (usize, u32)>,
    cells_per_row: u32,
    codeword_bits: u32,
    device_seed: u64,
) -> u64 {
    let ncw = codeword_count(cells_per_row, codeword_bits) as usize;
    let mut scratch = vec![0u32; ncw];
    let mut visible = 0u64;
    for (idx, raw) in rows {
        if raw == 0 {
            continue;
        }
        let mut rng = SplitMix64::new(derive_seed(
            device_seed,
            &[ECC_PLACEMENT_STREAM, idx as u64],
        ));
        visible += visible_flips(raw, &mut scratch, &mut rng) as u64;
    }
    visible
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codeword_counts_cover_partial_trailing_words() {
        assert_eq!(codeword_count(8192, 128), 64);
        assert_eq!(codeword_count(8192, 100), 82);
        assert_eq!(codeword_count(100, 128), 1);
        assert_eq!(codeword_count(8192, 8192), 1);
    }

    /// The core SEC property the satellite asks for: exactly ≤ 1 flip per
    /// codeword is corrected, ≥ 2 pass through unmasked — checked both on
    /// the per-codeword rule and on randomized whole-row placements, where
    /// the visible total must equal the sum of the per-codeword rule over
    /// the audited placement, and the corrected flips must equal the number
    /// of codewords holding exactly one flip.
    #[test]
    fn corrects_one_per_codeword_and_passes_multi_bit_through() {
        assert_eq!(visible_in_codeword(0), 0);
        assert_eq!(visible_in_codeword(1), 0);
        assert_eq!(visible_in_codeword(2), 2);
        assert_eq!(visible_in_codeword(7), 7);

        let mut rng = SplitMix64::new(0x5EC);
        for trial in 0..200u32 {
            let ncw = 1 + (rng.gen_range(64) as usize);
            let raw = rng.gen_range(300) as u32;
            let mut bins = vec![0u32; ncw];
            let visible = visible_flips(raw, &mut bins, &mut rng.clone());
            assert_eq!(
                bins.iter().sum::<u32>(),
                raw,
                "trial {trial}: placement must conserve flips"
            );
            let expected: u32 = bins.iter().map(|&k| visible_in_codeword(k)).sum();
            assert_eq!(visible, expected, "trial {trial}");
            let singles = bins.iter().filter(|&&k| k == 1).count() as u32;
            assert_eq!(
                raw - visible,
                singles,
                "trial {trial}: corrected flips must be exactly the single-flip codewords"
            );
            assert!(visible <= raw, "trial {trial}: ECC cannot add flips");
        }
    }

    #[test]
    fn single_flip_rows_are_always_masked() {
        for seed in 0..32u64 {
            let mut bins = vec![0u32; 64];
            let mut rng = SplitMix64::new(seed);
            assert_eq!(visible_flips(1, &mut bins, &mut rng), 0);
        }
    }

    #[test]
    fn saturated_rows_pass_everything_through() {
        // Far more flips than 2× the codeword count: every codeword holds
        // ≥ 2 with overwhelming probability, deterministic under the seed.
        let mut bins = vec![0u32; 8];
        let mut rng = SplitMix64::new(9);
        assert_eq!(visible_flips(1_000, &mut bins, &mut rng), 1_000);
    }

    #[test]
    fn single_codeword_rows_skip_placement() {
        let mut bins = vec![0u32; 1];
        let mut rng = SplitMix64::new(1);
        assert_eq!(visible_flips(1, &mut bins, &mut rng), 0);
        assert_eq!(visible_flips(5, &mut bins, &mut rng), 5);
        assert_eq!(bins[0], 5, "scratch holds the audited placement");
    }

    #[test]
    fn post_ecc_total_is_deterministic_and_row_indexed() {
        let rows = [0u32, 1, 3, 0, 40, 2];
        let a = post_ecc_total(rows.iter().copied(), 8192, 128, 0xD5);
        let b = post_ecc_total(rows.iter().copied(), 8192, 128, 0xD5);
        assert_eq!(a, b, "same seed, same rows, same answer");
        assert!(a <= rows.iter().map(|&r| r as u64).sum::<u64>());
        // All-singles input is fully corrected regardless of seed.
        let singles = vec![1u32; 100];
        assert_eq!(post_ecc_total(singles.iter().copied(), 8192, 128, 7), 0);
    }
}
