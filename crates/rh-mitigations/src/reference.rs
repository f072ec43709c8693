//! Retained map-based counter mitigations — the pre-optimization semantics,
//! kept as executable specifications (mirroring `rh_core::reference`).
//!
//! [`MapGraphene`] and [`MapTrr`] are Graphene and TRR exactly as they stood
//! before the flat-table rework: a `HashMap<RowAddr, u64>` counter table and
//! nested `BTreeMap<BankKey, BTreeMap<RowAddr, u64>>` per-bank tables. They
//! exist for two consumers:
//!
//! * **Differential tests** (`tests/differential.rs`): seeded random
//!   activation streams driven through both implementations must emit
//!   identical action sequences and refresh decisions — the proof that the
//!   flat [`crate::table::FlatCounterTable`] rewrite is an observational
//!   no-op.
//! * **The legacy-equivalence test** (`rh-cli`'s
//!   `tests/legacy_equivalence.rs`): the unbatched engine loop over these,
//!   on the eager reference device, must reproduce every result of the
//!   shipping sweep path on two reference grids.
//!
//! [`build_reference`] is the map-based twin of `MitigationSpec::build`.

use crate::spec::MitigationSpec;
use crate::{ActionBuf, IncreasedRefresh, Mitigation, NoMitigation, Para};
use rh_core::{Geometry, RowAddr};
use std::collections::{BTreeMap, HashMap};

/// Materialize the map-based twin of `spec.build(..)`: identical behavior,
/// pre-optimization counter structures. PARA, increased-refresh, and the
/// baseline have no counter tables, so they build their shipping forms.
pub fn build_reference(
    spec: &MitigationSpec,
    hc_first: u64,
    radius: u32,
    seed: u64,
) -> Box<dyn Mitigation> {
    match *spec {
        MitigationSpec::None => Box::new(NoMitigation),
        MitigationSpec::Para { probability } => Box::new(Para::new(probability, radius, seed)),
        MitigationSpec::Graphene {
            table_size,
            threshold_divisor,
        } => Box::new(MapGraphene::new(
            table_size,
            (hc_first / threshold_divisor).max(1),
            radius,
        )),
        MitigationSpec::IncreasedRefresh { interval_divisor } => {
            Box::new(IncreasedRefresh::new((hc_first / interval_divisor).max(1)))
        }
        MitigationSpec::Trr {
            table_size,
            refresh_slots,
            sample_interval,
        } => Box::new(MapTrr::new(
            table_size,
            refresh_slots,
            sample_interval,
            radius,
        )),
    }
}

/// Pre-optimization Graphene: Misra–Gries over a `HashMap<RowAddr, u64>`.
#[derive(Debug, Clone)]
pub struct MapGraphene {
    table_size: usize,
    refresh_threshold: u64,
    radius: u32,
    counters: HashMap<RowAddr, u64>,
    spilled: u64,
    refreshes_triggered: u64,
}

impl MapGraphene {
    pub fn new(table_size: usize, refresh_threshold: u64, radius: u32) -> Self {
        assert!(table_size > 0);
        assert!(refresh_threshold > 0);
        Self {
            table_size,
            refresh_threshold,
            radius,
            counters: HashMap::with_capacity(table_size + 1),
            spilled: 0,
            refreshes_triggered: 0,
        }
    }

    pub fn refreshes_triggered(&self) -> u64 {
        self.refreshes_triggered
    }

    /// Estimated activation count for a row (test/diagnostic hook).
    pub fn estimate(&self, addr: RowAddr) -> u64 {
        self.counters.get(&addr).copied().unwrap_or(0)
    }

    fn observe(&mut self, addr: RowAddr) {
        if let Some(c) = self.counters.get_mut(&addr) {
            *c += 1;
        } else if self.counters.len() < self.table_size {
            self.counters.insert(addr, 1);
        } else {
            self.spilled += 1;
            self.counters.retain(|_, c| {
                *c -= 1;
                *c > 0
            });
        }
    }
}

impl Mitigation for MapGraphene {
    fn name(&self) -> String {
        // Same display name as the flat implementation: the two are
        // interchangeable in result tables and in the equivalence test's
        // field-by-field comparison.
        format!(
            "graphene(k={},t={})",
            self.table_size, self.refresh_threshold
        )
    }

    fn on_activate(&mut self, addr: RowAddr, geom: &Geometry, out: &mut ActionBuf) {
        self.observe(addr);
        if self.estimate(addr) >= self.refresh_threshold {
            self.counters.remove(&addr);
            self.refreshes_triggered += 1;
            for (victim, _) in addr.neighbors(geom, self.radius) {
                out.refresh_row(victim);
            }
        }
    }

    fn reset(&mut self) {
        self.counters.clear();
        self.spilled = 0;
        self.refreshes_triggered = 0;
    }
}

/// Channel/rank/bank coordinates identifying one per-bank counter table.
type BankKey = (u32, u32, u32);

fn bank_key(addr: RowAddr) -> BankKey {
    (addr.channel, addr.rank, addr.bank)
}

/// Pre-optimization TRR: nested `BTreeMap` per-bank Misra–Gries tables.
#[derive(Debug, Clone)]
pub struct MapTrr {
    table_size: usize,
    refresh_slots: usize,
    sample_interval: u64,
    radius: u32,
    acts_in_window: u64,
    tables: BTreeMap<BankKey, BTreeMap<RowAddr, u64>>,
    targeted_refreshes: u64,
    scratch: Vec<(RowAddr, u64)>,
}

impl MapTrr {
    pub fn new(table_size: usize, refresh_slots: usize, sample_interval: u64, radius: u32) -> Self {
        assert!(table_size > 0);
        assert!(refresh_slots > 0);
        assert!(sample_interval > 0);
        Self {
            table_size,
            refresh_slots,
            sample_interval,
            radius,
            acts_in_window: 0,
            tables: BTreeMap::new(),
            targeted_refreshes: 0,
            scratch: Vec::new(),
        }
    }

    pub fn targeted_refreshes(&self) -> u64 {
        self.targeted_refreshes
    }

    /// Estimated activation count for a row (test/diagnostic hook).
    pub fn estimate(&self, addr: RowAddr) -> u64 {
        self.tables
            .get(&bank_key(addr))
            .and_then(|t| t.get(&addr))
            .copied()
            .unwrap_or(0)
    }

    fn observe(&mut self, addr: RowAddr) {
        let table = self.tables.entry(bank_key(addr)).or_default();
        if let Some(c) = table.get_mut(&addr) {
            *c += 1;
        } else if table.len() < self.table_size {
            table.insert(addr, 1);
        } else {
            table.retain(|_, c| {
                *c -= 1;
                *c > 0
            });
        }
    }

    fn service_windows(&mut self, geom: &Geometry, out: &mut ActionBuf) {
        let mut rows = std::mem::take(&mut self.scratch);
        for table in self.tables.values() {
            rows.clear();
            rows.extend(table.iter().map(|(a, c)| (*a, *c)));
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for &(target, _) in rows.iter().take(self.refresh_slots) {
                self.targeted_refreshes += 1;
                for (victim, _) in target.neighbors(geom, self.radius) {
                    out.refresh_row(victim);
                }
            }
        }
        self.scratch = rows;
    }
}

impl Mitigation for MapTrr {
    fn name(&self) -> String {
        // Same display name as the flat implementation (see MapGraphene).
        format!(
            "trr(k={},slots={},w={})",
            self.table_size, self.refresh_slots, self.sample_interval
        )
    }

    fn on_activate(&mut self, addr: RowAddr, geom: &Geometry, out: &mut ActionBuf) {
        self.observe(addr);
        self.acts_in_window += 1;
        if !self.acts_in_window.is_multiple_of(self.sample_interval) {
            return;
        }
        self.service_windows(geom, out);
    }

    fn reset(&mut self) {
        self.tables.clear();
        self.acts_in_window = 0;
        self.targeted_refreshes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_actions;

    #[test]
    fn map_graphene_triggers_like_the_original() {
        let geom = Geometry::tiny(64);
        let mut g = MapGraphene::new(4, 50, 1);
        let aggr = RowAddr::bank_row(0, 10);
        for _ in 0..200 {
            collect_actions(&mut g, aggr, &geom);
        }
        assert_eq!(g.refreshes_triggered(), 4);
    }

    #[test]
    fn map_trr_respects_slot_budget() {
        let geom = Geometry::tiny(64);
        let mut trr = MapTrr::new(16, 2, 100, 1);
        let pattern = [RowAddr::bank_row(0, 30), RowAddr::bank_row(0, 32)];
        let mut buf = ActionBuf::new();
        for i in 0..400u64 {
            buf.clear();
            trr.on_activate(pattern[(i % 2) as usize], &geom, &mut buf);
        }
        assert_eq!(trr.targeted_refreshes(), 8);
    }

    #[test]
    fn build_reference_covers_every_spec_with_matching_names() {
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
        for spec in &specs {
            let shipping = spec.build(&Geometry::tiny(64), 2000, 2, 0).name();
            let reference = build_reference(spec, 2000, 2, 0).name();
            assert_eq!(shipping, reference, "names must match for {spec:?}");
        }
    }
}
