//! Serializable workload specifications.
//!
//! A [`WorkloadSpec`] is the declarative identity of an attack pattern in a
//! sweep plan: plain data that can be validated against a geometry and
//! expanded into a fresh [`crate::Workload`] instance by any executor thread (the
//! built instance's `name()` is the single source of display strings, and
//! its [`crate::Workload::aggressors`] the single source of aggressor
//! placement). The placement is a pure function of the geometry (victim =
//! mid-bank row, far from edges), so two builds of the same spec over the
//! same geometry produce identical streams given the same benign-mixer seed
//! — the property the sweep's common-random-number comparisons across
//! mitigations rely on.

use crate::{AttackKind, BenignMixer, DoubleSided, ManySided, SingleSided};
use rh_core::{Geometry, RowAddr};

/// The concrete workload type a spec builds: the benign mixer over the
/// monomorphized attack enum. The engine is generic over `Workload`, so
/// running it on this type compiles the whole access-generation path —
/// mixer RNG and attack cursor — into one inlined fill loop with zero
/// virtual dispatch.
pub type BuiltWorkload = BenignMixer<AttackKind>;

/// Declarative description of one attack workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadSpec {
    /// One aggressor hammering the mid-bank victim from below.
    SingleSided,
    /// Two aggressors sandwiching the mid-bank victim.
    DoubleSided,
    /// TRRespass-style: `sides` aggressors spaced two rows apart around the
    /// bank midpoint, every row between them a double-sided victim.
    ManySided { sides: usize },
}

impl WorkloadSpec {
    /// Distinct per-spec constant mixed into the benign-traffic RNG seed, so
    /// every workload draws an independent noise stream while the *same*
    /// workload sees the *same* stream in every cell along the `HC_first`
    /// and mitigation axes.
    pub fn stream_id(&self) -> u64 {
        match self {
            Self::SingleSided => 1,
            Self::DoubleSided => 2,
            Self::ManySided { sides } => 0x100 + *sides as u64,
        }
    }

    /// Check that the pattern fits the geometry (aggressors inside the bank,
    /// victim off the edges).
    pub fn validate(&self, geom: &Geometry) -> Result<(), String> {
        let rows = geom.rows_per_bank;
        if rows < 32 {
            return Err(format!(
                "geometry needs at least 32 rows per bank, got {rows}"
            ));
        }
        if let Self::ManySided { sides } = self {
            let sides = *sides;
            if sides < 2 {
                return Err(format!("many-sided needs at least 2 sides, got {sides}"));
            }
            let mid = (rows / 2) as u64;
            // Aggressors occupy rows [mid - sides, mid + sides - 2].
            if (sides as u64) > mid || mid + sides as u64 - 2 >= rows as u64 {
                return Err(format!(
                    "{} aggressors spaced 2 apart do not fit a {rows}-row bank",
                    sides
                ));
            }
        }
        Ok(())
    }

    /// Materialize the attack stream wrapped in a [`BenignMixer`] drawing
    /// noise from `seed`. Fails if the spec does not fit the geometry.
    /// Returns the concrete [`BuiltWorkload`] type so callers that
    /// monomorphize over it (the engine) pay no per-access dispatch; box it
    /// where `dyn Workload` is wanted.
    pub fn build(
        &self,
        geom: &Geometry,
        benign_fraction: f64,
        seed: u64,
    ) -> Result<BuiltWorkload, String> {
        self.validate(geom)?;
        let victim = RowAddr::bank_row(0, geom.rows_per_bank / 2);
        let attack = match *self {
            Self::SingleSided => AttackKind::SingleSided(SingleSided::targeting(victim)),
            Self::DoubleSided => AttackKind::DoubleSided(DoubleSided::targeting(victim, geom)),
            Self::ManySided { sides } => AttackKind::ManySided(ManySided::new(
                victim.with_row(victim.row - sides as u32),
                sides,
                geom,
            )),
        };
        Ok(BenignMixer::new(attack, benign_fraction, *geom, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn built_names_and_stream_ids_are_distinct() {
        let geom = Geometry::tiny(128);
        let specs = [
            WorkloadSpec::SingleSided,
            WorkloadSpec::DoubleSided,
            WorkloadSpec::ManySided { sides: 2 },
            WorkloadSpec::ManySided { sides: 8 },
            WorkloadSpec::ManySided { sides: 16 },
        ];
        let names: std::collections::HashSet<String> = specs
            .iter()
            .map(|s| s.build(&geom, 0.1, 0).unwrap().name())
            .collect();
        let streams: std::collections::HashSet<u64> = specs.iter().map(|s| s.stream_id()).collect();
        assert_eq!(names.len(), specs.len());
        assert_eq!(streams.len(), specs.len());
    }

    /// The built workload's declared aggressors are exactly the rows its
    /// attack stream hits, in ascending order.
    #[test]
    fn aggressor_rows_match_the_built_streams() {
        let geom = Geometry::tiny(128);
        for spec in [
            WorkloadSpec::SingleSided,
            WorkloadSpec::DoubleSided,
            WorkloadSpec::ManySided { sides: 6 },
            WorkloadSpec::ManySided { sides: 16 },
        ] {
            let mut w = spec.build(&geom, 0.0, 0).unwrap();
            let declared = w.aggressors().to_vec();
            assert!(
                declared.windows(2).all(|p| p[0] < p[1]),
                "{spec:?} ascending"
            );
            let seen: std::collections::BTreeSet<RowAddr> =
                (0..64).map(|_| w.next_access()).collect();
            assert_eq!(
                declared
                    .into_iter()
                    .collect::<std::collections::BTreeSet<_>>(),
                seen,
                "{spec:?}"
            );
        }
    }

    #[test]
    fn many_sided_build_centers_on_mid_bank() {
        let geom = Geometry::tiny(64);
        let mut w = WorkloadSpec::ManySided { sides: 4 }
            .build(&geom, 0.0, 1)
            .unwrap();
        let rows: Vec<u32> = (0..4).map(|_| w.next_access().row).collect();
        // mid = 32, first aggressor at 32 - 4 = 28, spaced 2 apart.
        assert_eq!(rows, vec![28, 30, 32, 34]);
    }

    #[test]
    fn validate_rejects_oversized_patterns() {
        let geom = Geometry::tiny(32);
        // 16 aggressors fill rows 0..=30 exactly; 17 cannot fit.
        assert!(WorkloadSpec::ManySided { sides: 16 }
            .validate(&geom)
            .is_ok());
        assert!(WorkloadSpec::ManySided { sides: 17 }
            .validate(&geom)
            .is_err());
        assert!(WorkloadSpec::ManySided { sides: 1 }
            .validate(&geom)
            .is_err());
        assert!(WorkloadSpec::DoubleSided
            .validate(&Geometry::tiny(16))
            .is_err());
    }

    #[test]
    fn same_spec_same_seed_same_stream() {
        let geom = Geometry::tiny(128);
        let spec = WorkloadSpec::ManySided { sides: 6 };
        let mut a = spec.build(&geom, 0.3, 99).unwrap();
        let mut b = spec.build(&geom, 0.3, 99).unwrap();
        for _ in 0..2000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }
}
