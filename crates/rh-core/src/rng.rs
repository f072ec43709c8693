//! Deterministic seeded RNG (SplitMix64).
//!
//! The workspace deliberately avoids external crates, and every stochastic
//! component (victim-cell strength, PARA sampling, benign-traffic mixing)
//! must be reproducible from a single `--seed`, so we carry our own small
//! generator. SplitMix64 passes BigCrush for the output sizes we use and is
//! the canonical seeder for larger PRNGs.

/// SplitMix64's state increment (the golden-ratio constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 pseudo-random generator (Steele, Lea & Flood, OOPSLA 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Distinct seeds yield uncorrelated
    /// streams for all practical purposes.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Skip the next `n` outputs in O(1): the state advances by the same
    /// constant at every draw, so `skip(n)` followed by a draw yields the
    /// stream's draw `n` (counting from 0) without computing the others.
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)` built from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Biased coin flip: `true` with probability `p`.
    ///
    /// Exactly one `next_f64` is consumed per call regardless of outcome, so
    /// two generators with the same seed stay in lockstep across different
    /// `p` values — the property the CLI relies on for common-random-number
    /// comparisons across PARA sampling rates.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire's multiply-shift reduction; bias is < 2^-32 for our n.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Derive a child seed from a root seed and a coordinate path.
///
/// This is the workspace's single seed-derivation scheme: every experiment
/// cell in a sweep plan obtains the seeds for its stochastic components by
/// mixing the user's root `--seed` with the cell's coordinates (stream kind,
/// workload identity, ...) through SplitMix64's finalizer. Because a seed is
/// a pure function of `(root, coords)` and never of execution order, a sweep
/// sharded across N threads produces bit-identical results to a serial run.
///
/// Coordinates are pre-multiplied by the SplitMix64 increment so that small
/// consecutive integers (the common case: axis indices) land in well-mixed
/// regions of the state space.
pub fn derive_seed(root: u64, coords: &[u64]) -> u64 {
    let mut out = SplitMix64::new(root).next_u64();
    for &c in coords {
        out = SplitMix64::new(out ^ c.wrapping_mul(GAMMA)).next_u64();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn skip_lands_on_the_same_draw_as_stepping() {
        let mut stepped = SplitMix64::new(11);
        let draws: Vec<u64> = (0..300).map(|_| stepped.next_u64()).collect();
        for n in [0usize, 1, 2, 17, 299] {
            let mut skipped = SplitMix64::new(11);
            skipped.skip(n as u64);
            assert_eq!(skipped.next_u64(), draws[n], "draw {n}");
        }
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(r.gen_range(17) < 17);
        }
    }

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(42, &[1, 2, 3]), derive_seed(42, &[1, 2, 3]));
    }

    #[test]
    fn derive_seed_separates_roots_coords_and_order() {
        let base = derive_seed(42, &[1, 2]);
        assert_ne!(base, derive_seed(43, &[1, 2]), "root must matter");
        assert_ne!(base, derive_seed(42, &[1, 3]), "coords must matter");
        assert_ne!(base, derive_seed(42, &[2, 1]), "order must matter");
        assert_ne!(base, derive_seed(42, &[1]), "depth must matter");
    }

    #[test]
    fn derive_seed_spreads_small_coordinates() {
        // Axis indices are small consecutive integers; the derived seeds
        // must still be pairwise distinct.
        let mut seen = std::collections::HashSet::new();
        for stream in 0..8u64 {
            for i in 0..64u64 {
                assert!(seen.insert(derive_seed(7, &[stream, i])));
            }
        }
    }
}
