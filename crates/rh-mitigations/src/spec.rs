//! Serializable mitigation specifications and the monomorphized
//! [`MitigationKind`] they build.
//!
//! A [`MitigationSpec`] is the declarative identity of a mitigation cell in
//! a sweep plan: plain data (no RNG, no tables) that can be compared and
//! expanded into a fresh instance any number of times; the built instance's
//! `name()` is the single source of display strings. The sweep planner
//! builds a flat list of cells out of specs; executor threads materialize
//! each cell's mitigation locally via [`MitigationSpec::build`], so no
//! mitigation state ever crosses a thread boundary and sharded runs stay
//! bit-identical.
//!
//! [`MitigationKind`] is the enum of all concrete mitigation types. The
//! engine's hot loop is generic over `Mitigation` and runs on a
//! `MitigationKind`, so per-activation dispatch is one match on the variant
//! tag (monomorphized, inlinable) instead of a `Box<dyn Mitigation>` vtable
//! call — and the `on_activate` bodies inline into the loop.
//!
//! Threshold-style parameters are expressed as divisors of `HC_first`
//! (e.g. `threshold_divisor: 8` → trigger at `hc_first / 8`) because the
//! paper configures every mechanism relative to the chip's vulnerability:
//! the same spec is reused across the whole `HC_first` axis.
//!
//! Only those two arms read `HC_first` at all
//! ([`MitigationSpec::reads_hc_first`]). The others — no mitigation, PARA
//! and TRR — build the same instance at every `HC_first`, so a sweep's
//! cells that differ only in `HC_first` under them drive one identical
//! activation and refresh stream, which the executor simulates once.

use crate::{ActionBuf, Graphene, IncreasedRefresh, Mitigation, NoMitigation, Para, Trr};
use rh_core::{Geometry, RowAddr};

/// Declarative description of one mitigation configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum MitigationSpec {
    /// Baseline: periodic auto-refresh only.
    None,
    /// PARA with the given sampling probability.
    Para { probability: f64 },
    /// Graphene-style Misra–Gries counters; triggers at
    /// `hc_first / threshold_divisor` estimated activations.
    Graphene {
        table_size: usize,
        threshold_divisor: u64,
    },
    /// Full-device refresh every `hc_first / interval_divisor` activations.
    IncreasedRefresh { interval_divisor: u64 },
    /// Sampling-window TRR: per-bank tables of `table_size` entries,
    /// `refresh_slots` targeted rows per bank every `sample_interval`
    /// activations.
    Trr {
        table_size: usize,
        refresh_slots: usize,
        sample_interval: u64,
    },
}

impl MitigationSpec {
    /// Whether [`MitigationSpec::build`] reads its `hc_first` argument: true
    /// for Graphene (its trigger threshold) and increased refresh (its
    /// interval). A spec that does not read it emits the identical action
    /// stream at every `HC_first` — the premise of the executor's
    /// `HC_first` fold, checked by
    /// `hc_invariant_specs_emit_identical_actions_at_every_hc_first`.
    pub fn reads_hc_first(&self) -> bool {
        match self {
            Self::None | Self::Para { .. } | Self::Trr { .. } => false,
            Self::Graphene { .. } | Self::IncreasedRefresh { .. } => true,
        }
    }

    /// Materialize a fresh mitigation for a device with geometry `geom`,
    /// the given `hc_first`, neighbor-refresh `radius`, and RNG `seed`
    /// (only PARA is stochastic; the seed is ignored by deterministic
    /// mechanisms). The geometry lets table-based mechanisms pre-size their
    /// counter structures, so nothing on the hot path allocates.
    pub fn build(&self, geom: &Geometry, hc_first: u64, radius: u32, seed: u64) -> MitigationKind {
        match *self {
            Self::None => MitigationKind::None(NoMitigation),
            Self::Para { probability } => {
                MitigationKind::Para(Para::new(probability, radius, seed))
            }
            Self::Graphene {
                table_size,
                threshold_divisor,
            } => MitigationKind::Graphene(Graphene::new(
                table_size,
                (hc_first / threshold_divisor).max(1),
                radius,
            )),
            Self::IncreasedRefresh { interval_divisor } => MitigationKind::IncreasedRefresh(
                IncreasedRefresh::new((hc_first / interval_divisor).max(1)),
            ),
            Self::Trr {
                table_size,
                refresh_slots,
                sample_interval,
            } => MitigationKind::Trr(Trr::new(
                table_size,
                refresh_slots,
                sample_interval,
                radius,
                geom,
            )),
        }
    }
}

/// The closed set of concrete mitigations, for monomorphized dispatch: one
/// match on the variant tag per activation instead of a vtable call, with
/// each `on_activate` body inlined into the engine loop.
#[derive(Debug, Clone)]
pub enum MitigationKind {
    None(NoMitigation),
    Para(Para),
    Graphene(Graphene),
    IncreasedRefresh(IncreasedRefresh),
    Trr(Trr),
}

impl Mitigation for MitigationKind {
    fn name(&self) -> String {
        match self {
            Self::None(m) => m.name(),
            Self::Para(m) => m.name(),
            Self::Graphene(m) => m.name(),
            Self::IncreasedRefresh(m) => m.name(),
            Self::Trr(m) => m.name(),
        }
    }

    #[inline]
    fn on_activate(&mut self, addr: RowAddr, geom: &Geometry, out: &mut ActionBuf) {
        match self {
            Self::None(_) => {}
            Self::Para(m) => m.on_activate(addr, geom, out),
            Self::Graphene(m) => m.on_activate(addr, geom, out),
            Self::IncreasedRefresh(m) => m.on_activate(addr, geom, out),
            Self::Trr(m) => m.on_activate(addr, geom, out),
        }
    }

    fn reset(&mut self) {
        match self {
            Self::None(m) => m.reset(),
            Self::Para(m) => m.reset(),
            Self::Graphene(m) => m.reset(),
            Self::IncreasedRefresh(m) => m.reset(),
            Self::Trr(m) => m.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::tiny(64)
    }

    #[test]
    fn built_names_are_stable_and_distinct() {
        let specs = [
            MitigationSpec::None,
            MitigationSpec::Para { probability: 0.004 },
            MitigationSpec::Graphene {
                table_size: 64,
                threshold_divisor: 8,
            },
            MitigationSpec::IncreasedRefresh {
                interval_divisor: 2,
            },
            MitigationSpec::Trr {
                table_size: 16,
                refresh_slots: 2,
                sample_interval: 1000,
            },
        ];
        let names: std::collections::HashSet<String> = specs
            .iter()
            .map(|s| s.build(&geom(), 2000, 2, 0).name())
            .collect();
        assert_eq!(names.len(), specs.len());
        assert!(names.contains("trr(k=16,slots=2,w=1000)"));
        assert!(names.contains("graphene(k=64,t=250)"));
    }

    /// The fold's premise, as a property: over one seeded address stream
    /// with periodic tREFW resets, every spec declared `HC_first`-invariant
    /// emits the identical action stream built at two `HC_first` values,
    /// and the two that read it (Graphene, increased refresh) do not.
    #[test]
    fn hc_invariant_specs_emit_identical_actions_at_every_hc_first() {
        let geom = Geometry {
            banks: 2,
            ..Geometry::tiny(1024)
        };
        let specs = [
            MitigationSpec::None,
            MitigationSpec::Para { probability: 0.004 },
            MitigationSpec::Para { probability: 0.1 },
            MitigationSpec::Graphene {
                table_size: 64,
                threshold_divisor: 8,
            },
            MitigationSpec::IncreasedRefresh {
                interval_divisor: 2,
            },
            MitigationSpec::Trr {
                table_size: 16,
                refresh_slots: 2,
                sample_interval: 1000,
            },
            MitigationSpec::Trr {
                table_size: 4,
                refresh_slots: 1,
                sample_interval: 37,
            },
        ];
        let actions = |spec: &MitigationSpec, hc_first: u64| {
            let mut m = spec.build(&geom, hc_first, 2, 0x5EED);
            let mut rng = rh_core::SplitMix64::new(0xA11);
            let mut buf = ActionBuf::new();
            let mut log = Vec::new();
            for step in 0..40_000u32 {
                // Eight hot rows two apart, the rest uniform over the device.
                let addr = if rng.chance(0.7) {
                    RowAddr::bank_row(1, 500 + 2 * rng.gen_range(8) as u32)
                } else {
                    RowAddr::bank_row(rng.gen_range(2) as u32, rng.gen_range(1024) as u32)
                };
                buf.clear();
                m.on_activate(addr, &geom, &mut buf);
                log.extend(buf.actions().iter().map(|&a| (step, a)));
                if step % 8_000 == 7_999 {
                    m.reset();
                }
            }
            log
        };
        for spec in &specs {
            let (low, high) = (actions(spec, 512), actions(spec, 4096));
            assert_eq!(
                low == high,
                !spec.reads_hc_first(),
                "{spec:?}: {} vs {} actions",
                low.len(),
                high.len()
            );
            if *spec != MitigationSpec::None {
                assert!(!low.is_empty(), "{spec:?} must act on this stream");
            }
        }
    }

    #[test]
    fn build_resolves_hc_relative_parameters() {
        let m = MitigationSpec::Graphene {
            table_size: 4,
            threshold_divisor: 8,
        }
        .build(&geom(), 4000, 2, 0);
        assert_eq!(m.name(), "graphene(k=4,t=500)");
        let m = MitigationSpec::IncreasedRefresh {
            interval_divisor: 2,
        }
        .build(&geom(), 4000, 2, 0);
        assert_eq!(m.name(), "refresh(interval=2000)");
    }

    #[test]
    fn build_clamps_degenerate_thresholds() {
        // hc_first below the divisor must not build a zero threshold.
        let m = MitigationSpec::Graphene {
            table_size: 4,
            threshold_divisor: 8,
        }
        .build(&geom(), 3, 1, 0);
        assert_eq!(m.name(), "graphene(k=4,t=1)");
    }

    #[test]
    fn built_instances_are_independent() {
        let spec = MitigationSpec::Trr {
            table_size: 4,
            refresh_slots: 1,
            sample_interval: 10,
        };
        let geom = rh_core::Geometry::tiny(16);
        let addr = rh_core::RowAddr::bank_row(0, 8);
        let mut a = spec.build(&geom, 1000, 1, 0);
        for _ in 0..5 {
            crate::collect_actions(&mut a, addr, &geom);
        }
        // A second build starts from scratch: no shared state.
        let mut b = spec.build(&geom, 1000, 1, 0);
        assert!(crate::collect_actions(&mut b, addr, &geom).is_empty());
    }

    #[test]
    fn kind_dispatch_matches_direct_calls() {
        let geom = Geometry::tiny(64);
        let addr = RowAddr::bank_row(0, 32);
        let mut direct = Graphene::new(4, 10, 1);
        let mut kind = MitigationSpec::Graphene {
            table_size: 4,
            threshold_divisor: 100,
        }
        .build(&geom, 1000, 1, 0);
        assert_eq!(kind.name(), "graphene(k=4,t=10)");
        for _ in 0..20 {
            let a = crate::collect_actions(&mut direct, addr, &geom);
            let b = crate::collect_actions(&mut kind, addr, &geom);
            assert_eq!(a, b);
        }
        kind.reset();
        direct.reset();
        assert_eq!(
            crate::collect_actions(&mut kind, addr, &geom),
            crate::collect_actions(&mut direct, addr, &geom)
        );
    }
}
