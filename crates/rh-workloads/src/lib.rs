//! # rh-workloads — hammer-engine access patterns
//!
//! Generators for the activation streams the ISCA 2020 paper drives its
//! chips with: single-sided, double-sided, and many-sided hammering, plus a
//! [`BenignMixer`] that interleaves uniformly random "normal" traffic so
//! mitigations are evaluated under realistic noise rather than pure attack
//! streams.
//!
//! A [`Workload`] is an infinite deterministic iterator over [`RowAddr`]s;
//! the engine in `rh-cli` pulls a fixed budget of activations from it.
//! [`WorkloadSpec`] is the serializable factory form carried by sweep plans:
//! executor threads expand a spec into a fresh stream per cell.
//!
//! Hot-path invariant: `next_access` never allocates. Every generator here
//! steps fixed state (an aggressor cursor, a toggle, an RNG) and returns a
//! `Copy` address; `ManySided` materializes its aggressor list once at
//! construction (it doubles as the [`Workload::aggressors`] declaration),
//! and [`Workload::fill_batch`] writes into the engine's
//! reusable chunk buffer (which reaches its steady-state capacity on the
//! first chunk). The only allocating method is `name()`, which the engine
//! calls exactly once per run (for the result row), never per activation.
//! New workloads must preserve this — the per-activation engine loop is
//! allocation-free end to end (see `rh-cli::engine`), and the same
//! invariant extends to `rh-mitigations`: its counter tables
//! (`FlatCounterTable`) never allocate after construction either, so
//! nothing between the workload generator and the device model touches the
//! allocator per activation.

pub mod spec;

pub use spec::{BuiltWorkload, WorkloadSpec};

use rh_core::{Geometry, RowAddr, SplitMix64};

/// An infinite, deterministic stream of row activations.
pub trait Workload {
    /// Short stable identifier used in result tables.
    fn name(&self) -> String;

    /// Produce the next row to activate.
    fn next_access(&mut self) -> RowAddr;

    /// Fill `out` with exactly the next `n` accesses (clearing it first).
    ///
    /// This is the engine's batching hook: pulling a chunk at a time turns
    /// one virtual call per *activation* into one per *chunk*, and — because
    /// default trait methods are instantiated per concrete impl — the
    /// `next_access` calls inside this default body are statically
    /// dispatched and inline into a tight fill loop. The default is correct
    /// for every generator; override only if a workload can batch even more
    /// cheaply. Semantics are identical to `n` successive `next_access`
    /// calls, which keeps batched runs byte-identical to unbatched ones.
    fn fill_batch(&mut self, out: &mut Vec<RowAddr>, n: usize) {
        out.clear();
        // extend over an exact-size iterator: one reservation, no per-item
        // capacity check (unlike a push loop).
        out.extend((0..n).map(|_| self.next_access()));
    }

    /// The rows this workload hammers, in ascending order. The engine gives
    /// each declared aggressor a fixed activation-run slot for the whole
    /// run and decides once, from the device, how every other row relates
    /// to them. The list is a hint, never a semantic input: a wrong or
    /// incomplete one makes a run slower, not different. The default
    /// declares nothing, and the engine then applies every activation on
    /// its own.
    fn aggressors(&self) -> &[RowAddr] {
        &[]
    }
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn next_access(&mut self) -> RowAddr {
        (**self).next_access()
    }

    fn fill_batch(&mut self, out: &mut Vec<RowAddr>, n: usize) {
        // Forward so the *inner* impl's (monomorphized) fill loop runs,
        // rather than the default body paying a virtual hop per access.
        (**self).fill_batch(out, n)
    }

    fn aggressors(&self) -> &[RowAddr] {
        (**self).aggressors()
    }
}

/// Classic single-sided hammering: one aggressor row activated repeatedly.
#[derive(Debug, Clone)]
pub struct SingleSided {
    aggressor: RowAddr,
}

impl SingleSided {
    /// Hammer the row adjacent to `victim` from below (or above at edge 0).
    pub fn targeting(victim: RowAddr) -> Self {
        let aggr_row = if victim.row > 0 {
            victim.row - 1
        } else {
            victim.row + 1
        };
        Self {
            aggressor: victim.with_row(aggr_row),
        }
    }

    pub fn new(aggressor: RowAddr) -> Self {
        Self { aggressor }
    }
}

impl Workload for SingleSided {
    fn name(&self) -> String {
        "single_sided".to_string()
    }

    fn next_access(&mut self) -> RowAddr {
        self.aggressor
    }

    fn aggressors(&self) -> &[RowAddr] {
        std::slice::from_ref(&self.aggressor)
    }
}

/// Double-sided hammering: alternate the two rows sandwiching the victim.
/// The most efficient pattern on pre-TRR parts — the victim receives full
/// coupling from both sides, halving the per-aggressor hammer count needed.
#[derive(Debug, Clone)]
pub struct DoubleSided {
    /// The rows below and above the victim, in that order.
    pair: [RowAddr; 2],
    toggle: bool,
}

impl DoubleSided {
    /// Sandwich `victim`; requires the victim not to sit on a bank edge.
    pub fn targeting(victim: RowAddr, geom: &Geometry) -> Self {
        assert!(
            victim.row > 0 && victim.row + 1 < geom.rows_per_bank,
            "double-sided victim must have neighbors on both sides"
        );
        Self {
            pair: [
                victim.with_row(victim.row - 1),
                victim.with_row(victim.row + 1),
            ],
            toggle: false,
        }
    }
}

impl Workload for DoubleSided {
    fn name(&self) -> String {
        "double_sided".to_string()
    }

    fn next_access(&mut self) -> RowAddr {
        self.toggle = !self.toggle;
        if self.toggle {
            self.pair[0]
        } else {
            self.pair[1]
        }
    }

    fn aggressors(&self) -> &[RowAddr] {
        &self.pair
    }
}

/// Many-sided hammering (TRRespass-style): cycle through `n` aggressors
/// spaced two rows apart, so every second row between them is a victim
/// hammered from both sides. Defeats small-table TRR/counter mitigations by
/// spreading activations across more rows than the table can track.
#[derive(Debug, Clone)]
pub struct ManySided {
    aggressors: Vec<RowAddr>,
    cursor: usize,
}

impl ManySided {
    /// `n` aggressors starting at `first`, spaced 2 apart within the bank.
    pub fn new(first: RowAddr, n: usize, geom: &Geometry) -> Self {
        assert!(n >= 2, "many-sided needs at least two aggressors");
        let last_row = first.row as u64 + 2 * (n as u64 - 1);
        assert!(
            last_row < geom.rows_per_bank as u64,
            "aggressor set exceeds bank"
        );
        Self {
            aggressors: (0..n as u32)
                .map(|i| first.with_row(first.row + 2 * i))
                .collect(),
            cursor: 0,
        }
    }

    pub fn sides(&self) -> usize {
        self.aggressors.len()
    }
}

impl Workload for ManySided {
    fn name(&self) -> String {
        format!("many_sided(n={})", self.aggressors.len())
    }

    fn next_access(&mut self) -> RowAddr {
        let addr = self.aggressors[self.cursor];
        // Branch instead of `%`: the cycle length is not a compile-time
        // constant, and an integer division per activation is measurable in
        // the batched fill loop.
        self.cursor += 1;
        if self.cursor == self.aggressors.len() {
            self.cursor = 0;
        }
        addr
    }

    fn aggressors(&self) -> &[RowAddr] {
        &self.aggressors
    }
}

/// The closed set of attack patterns, for monomorphized dispatch: the sweep
/// executor's workload is a [`BenignMixer`]`<AttackKind>`, so the entire
/// per-activation access-generation path — mixer RNG, attack cursor — is
/// static calls that inline into [`Workload::fill_batch`]'s fill loop, with
/// no per-access virtual hop to a boxed inner stream.
#[derive(Debug, Clone)]
pub enum AttackKind {
    SingleSided(SingleSided),
    DoubleSided(DoubleSided),
    ManySided(ManySided),
}

impl Workload for AttackKind {
    fn name(&self) -> String {
        match self {
            Self::SingleSided(w) => w.name(),
            Self::DoubleSided(w) => w.name(),
            Self::ManySided(w) => w.name(),
        }
    }

    #[inline]
    fn next_access(&mut self) -> RowAddr {
        match self {
            Self::SingleSided(w) => w.next_access(),
            Self::DoubleSided(w) => w.next_access(),
            Self::ManySided(w) => w.next_access(),
        }
    }

    fn aggressors(&self) -> &[RowAddr] {
        match self {
            Self::SingleSided(w) => w.aggressors(),
            Self::DoubleSided(w) => w.aggressors(),
            Self::ManySided(w) => w.aggressors(),
        }
    }
}

/// Wraps an attack workload, replacing a fraction of accesses with
/// uniformly random benign traffic over the whole device.
#[derive(Debug, Clone)]
pub struct BenignMixer<W> {
    inner: W,
    /// Fraction of accesses that are benign, in `[0, 1]`.
    benign_fraction: f64,
    geom: Geometry,
    rng: SplitMix64,
}

impl<W: Workload> BenignMixer<W> {
    pub fn new(inner: W, benign_fraction: f64, geom: Geometry, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&benign_fraction));
        Self {
            inner,
            benign_fraction,
            geom,
            rng: SplitMix64::new(seed),
        }
    }
}

impl<W: Workload> Workload for BenignMixer<W> {
    fn name(&self) -> String {
        format!("{}+benign({})", self.inner.name(), self.benign_fraction)
    }

    fn next_access(&mut self) -> RowAddr {
        if self.rng.chance(self.benign_fraction) {
            RowAddr {
                channel: self.rng.gen_range(self.geom.channels as u64) as u32,
                rank: self.rng.gen_range(self.geom.ranks as u64) as u32,
                bank: self.rng.gen_range(self.geom.banks as u64) as u32,
                row: self.rng.gen_range(self.geom.rows_per_bank as u64) as u32,
            }
        } else {
            self.inner.next_access()
        }
    }

    /// The attack's aggressors. Benign rows are uniform over the device and
    /// declare nothing.
    fn aggressors(&self) -> &[RowAddr] {
        self.inner.aggressors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sided_repeats_one_row() {
        let mut w = SingleSided::targeting(RowAddr::bank_row(0, 10));
        for _ in 0..10 {
            assert_eq!(w.next_access(), RowAddr::bank_row(0, 9));
        }
    }

    #[test]
    fn single_sided_at_edge_picks_upper_aggressor() {
        let mut w = SingleSided::targeting(RowAddr::bank_row(0, 0));
        assert_eq!(w.next_access(), RowAddr::bank_row(0, 1));
    }

    #[test]
    fn double_sided_alternates_sandwich() {
        let g = Geometry::tiny(32);
        let mut w = DoubleSided::targeting(RowAddr::bank_row(0, 10), &g);
        let seq: Vec<u32> = (0..4).map(|_| w.next_access().row).collect();
        assert_eq!(seq, vec![9, 11, 9, 11]);
    }

    #[test]
    #[should_panic(expected = "both sides")]
    fn double_sided_rejects_edge_victim() {
        let g = Geometry::tiny(32);
        DoubleSided::targeting(RowAddr::bank_row(0, 0), &g);
    }

    #[test]
    fn many_sided_cycles_spaced_aggressors() {
        let g = Geometry::tiny(64);
        let mut w = ManySided::new(RowAddr::bank_row(0, 10), 3, &g);
        let seq: Vec<u32> = (0..6).map(|_| w.next_access().row).collect();
        assert_eq!(seq, vec![10, 12, 14, 10, 12, 14]);
    }

    #[test]
    fn mixer_fraction_is_respected() {
        let g = Geometry::tiny(1024);
        let inner = SingleSided::new(RowAddr::bank_row(0, 100));
        let mut w = BenignMixer::new(inner, 0.3, g, 42);
        let n = 100_000;
        let benign = (0..n)
            .filter(|_| w.next_access() != RowAddr::bank_row(0, 100))
            .count();
        // Random benign rows hit row 100 with probability 1/1024 — negligible.
        let frac = benign as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "benign fraction was {frac}");
    }

    #[test]
    fn fill_batch_matches_sequential_next_access() {
        let g = Geometry::tiny(256);
        let mk = || BenignMixer::new(ManySided::new(RowAddr::bank_row(0, 40), 5, &g), 0.4, g, 123);
        let (mut seq, mut batched) = (mk(), mk());
        let mut buf = Vec::new();
        // Uneven chunk sizes straddle the aggressor cycle and RNG stream.
        for n in [1usize, 7, 64, 3, 100] {
            batched.fill_batch(&mut buf, n);
            assert_eq!(buf.len(), n);
            for (i, &addr) in buf.iter().enumerate() {
                assert_eq!(addr, seq.next_access(), "chunk n={n} item {i}");
            }
        }
        // Boxed dyn workloads forward to the inner impl's fill loop.
        let mut boxed: Box<dyn Workload> = Box::new(mk());
        let mut seq = mk();
        boxed.fill_batch(&mut buf, 50);
        for &addr in &buf {
            assert_eq!(addr, seq.next_access());
        }
    }

    #[test]
    fn mixer_is_deterministic_per_seed() {
        let g = Geometry::tiny(64);
        let mk = || BenignMixer::new(SingleSided::new(RowAddr::bank_row(0, 5)), 0.5, g, 7);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..1000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }
}
