//! DRAM addressing: channel / rank / bank / row, plus row-adjacency math.
//!
//! RowHammer disturbance is physically confined to a *blast radius* of a few
//! rows on either side of an aggressor within the same bank (the ISCA 2020
//! paper observes victims up to 6 rows away on the newest chips, with the
//! overwhelming majority at distance 1–2). All adjacency math here clips at
//! bank edges: row 0 has no lower neighbor, the last row no upper neighbor.

/// Largest device [`Geometry::validate`] accepts, in rows: 32 times the
/// 16-bank × 32K-row DDR4 reference grid. The device model keeps 32 bytes
/// of dense state per row (20 in `DeviceState`, 12 in its shared
/// `DeviceTables`), so one device at the cap needs about 537 MB.
pub const MAX_TOTAL_ROWS: u64 = 1 << 24;

/// Static shape of the simulated DRAM device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    pub channels: u32,
    pub ranks: u32,
    pub banks: u32,
    pub rows_per_bank: u32,
}

impl Geometry {
    /// Tiny geometry for unit tests and quick sweeps.
    pub fn tiny(rows_per_bank: u32) -> Self {
        Self {
            channels: 1,
            ranks: 1,
            banks: 1,
            rows_per_bank,
        }
    }

    /// Check that every dimension is at least 1 and that the device holds
    /// at most [`MAX_TOTAL_ROWS`] rows, so downstream row-adjacency math
    /// (`rows_per_bank - 1` clipping), flat indexing and the dense per-row
    /// vectors are well-defined and allocatable. Device-model constructors
    /// and the sweep config both call this, so a degenerate or oversized
    /// geometry fails loudly at submit time instead of panicking deep
    /// inside a worker.
    pub fn validate(&self) -> Result<(), String> {
        for (dim, v) in [
            ("channels", self.channels),
            ("ranks", self.ranks),
            ("banks", self.banks),
            ("rows_per_bank", self.rows_per_bank),
        ] {
            if v == 0 {
                return Err(format!("geometry.{dim} must be at least 1, got 0"));
            }
        }
        match self.checked_total_rows() {
            Some(rows) if rows <= MAX_TOTAL_ROWS => Ok(()),
            rows => Err(format!(
                "geometry of {} channels x {} ranks x {} banks x {} rows per bank has {} rows, \
                 more than the {MAX_TOTAL_ROWS}-row limit",
                self.channels,
                self.ranks,
                self.banks,
                self.rows_per_bank,
                rows.map_or_else(|| "over 2^64".to_string(), |r| r.to_string()),
            )),
        }
    }

    /// Total number of rows across the whole device, or `None` when the
    /// product of the four dimensions overflows `u64`.
    pub fn checked_total_rows(&self) -> Option<u64> {
        [self.ranks, self.banks, self.rows_per_bank]
            .into_iter()
            .try_fold(u64::from(self.channels), |rows, dim| {
                rows.checked_mul(u64::from(dim))
            })
    }

    /// Total number of rows across the whole device. Panics when the count
    /// overflows `u64`, which no geometry passing [`Geometry::validate`]
    /// does.
    pub fn total_rows(&self) -> u64 {
        self.checked_total_rows()
            .expect("row count overflows u64: Geometry::validate rejects this geometry")
    }

    /// Flat index of a row for dense per-row state vectors.
    pub fn flat_index(&self, addr: RowAddr) -> usize {
        debug_assert!(self.contains(addr));
        let bank_linear = (addr.channel as u64 * self.ranks as u64 + addr.rank as u64)
            * self.banks as u64
            + addr.bank as u64;
        (bank_linear * self.rows_per_bank as u64 + addr.row as u64) as usize
    }

    /// Whether an address is inside this geometry.
    pub fn contains(&self, addr: RowAddr) -> bool {
        addr.channel < self.channels
            && addr.rank < self.ranks
            && addr.bank < self.banks
            && addr.row < self.rows_per_bank
    }
}

/// Address of a single DRAM row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowAddr {
    pub channel: u32,
    pub rank: u32,
    pub bank: u32,
    pub row: u32,
}

impl RowAddr {
    /// Convenience constructor for single-channel single-rank devices.
    pub fn bank_row(bank: u32, row: u32) -> Self {
        Self {
            channel: 0,
            rank: 0,
            bank,
            row,
        }
    }

    /// Same-bank address at `row`.
    pub fn with_row(self, row: u32) -> Self {
        Self { row, ..self }
    }

    /// Rows within `blast_radius` of this aggressor in the same bank,
    /// clipped at bank edges, paired with their absolute distance (≥ 1).
    ///
    /// Ordering is deterministic: ascending row number. Returned as an
    /// iterator because this sits on the per-activation hot path (device
    /// update and every mitigation's observe step).
    pub fn neighbors(
        self,
        geom: &Geometry,
        blast_radius: u32,
    ) -> impl Iterator<Item = (RowAddr, u32)> {
        let row = self.row;
        let lo = row.saturating_sub(blast_radius);
        // Saturating on both sides: an empty bank yields no neighbors
        // (rather than underflowing `rows_per_bank - 1`), and a row near
        // `u32::MAX` cannot overflow past the clip.
        let hi = row
            .saturating_add(blast_radius)
            .min(geom.rows_per_bank.saturating_sub(1));
        (lo..=hi)
            .filter(move |&r| r != row)
            .map(move |r| (self.with_row(r), row.abs_diff(r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_interior() {
        let g = Geometry::tiny(100);
        let n = RowAddr::bank_row(0, 50).neighbors(&g, 2);
        let rows: Vec<(u32, u32)> = n.map(|(a, d)| (a.row, d)).collect();
        assert_eq!(rows, vec![(48, 2), (49, 1), (51, 1), (52, 2)]);
    }

    #[test]
    fn neighbors_clip_at_low_edge() {
        let g = Geometry::tiny(100);
        let n = RowAddr::bank_row(0, 0).neighbors(&g, 3);
        let rows: Vec<(u32, u32)> = n.map(|(a, d)| (a.row, d)).collect();
        assert_eq!(rows, vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn neighbors_clip_at_high_edge() {
        let g = Geometry::tiny(100);
        let n = RowAddr::bank_row(0, 99).neighbors(&g, 3);
        let rows: Vec<(u32, u32)> = n.map(|(a, d)| (a.row, d)).collect();
        assert_eq!(rows, vec![(96, 3), (97, 2), (98, 1)]);
    }

    #[test]
    fn neighbors_one_off_edge() {
        let g = Geometry::tiny(8);
        let n = RowAddr::bank_row(0, 1).neighbors(&g, 2);
        let rows: Vec<(u32, u32)> = n.map(|(a, d)| (a.row, d)).collect();
        assert_eq!(rows, vec![(0, 1), (2, 1), (3, 2)]);
    }

    #[test]
    fn neighbors_radius_larger_than_bank() {
        let g = Geometry::tiny(4);
        let n = RowAddr::bank_row(0, 2).neighbors(&g, 10);
        let rows: Vec<u32> = n.map(|(a, _)| a.row).collect();
        assert_eq!(rows, vec![0, 1, 3]);
    }

    #[test]
    fn neighbors_empty_bank_yields_nothing_without_panic() {
        // rows_per_bank == 0 used to underflow `rows_per_bank - 1`.
        let g = Geometry::tiny(0);
        assert_eq!(RowAddr::bank_row(0, 0).neighbors(&g, 2).count(), 0);
        assert_eq!(RowAddr::bank_row(0, 5).neighbors(&g, 2).count(), 0);
    }

    #[test]
    fn validate_names_the_offending_dimension() {
        assert!(Geometry::tiny(64).validate().is_ok());
        let err = Geometry::tiny(0).validate().unwrap_err();
        assert!(err.contains("rows_per_bank"), "got '{err}'");
        let err = Geometry {
            banks: 0,
            ..Geometry::tiny(64)
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("banks"), "got '{err}'");
    }

    /// Dimensions whose product overflows `u64`, or merely exceeds the
    /// cap, are refused instead of reaching a per-row allocation.
    #[test]
    fn validate_rejects_overflowing_and_oversized_geometries() {
        let overflowing = Geometry {
            channels: u32::MAX,
            ranks: u32::MAX,
            banks: u32::MAX,
            rows_per_bank: u32::MAX,
        };
        assert_eq!(overflowing.checked_total_rows(), None);
        let err = overflowing.validate().unwrap_err();
        assert!(err.contains("over 2^64"), "got '{err}'");

        let at_cap = Geometry {
            banks: 512,
            ..Geometry::tiny(32 * 1024)
        };
        assert_eq!(at_cap.total_rows(), MAX_TOTAL_ROWS);
        assert!(at_cap.validate().is_ok());
        let over_cap = Geometry {
            channels: 2,
            ..at_cap
        };
        let err = over_cap.validate().unwrap_err();
        assert!(err.contains(&MAX_TOTAL_ROWS.to_string()), "got '{err}'");
    }

    #[test]
    fn flat_index_round_trip_distinct() {
        let g = Geometry {
            channels: 2,
            ranks: 2,
            banks: 4,
            rows_per_bank: 8,
        };
        let mut seen = std::collections::HashSet::new();
        for ch in 0..2 {
            for rk in 0..2 {
                for b in 0..4 {
                    for r in 0..8 {
                        let addr = RowAddr {
                            channel: ch,
                            rank: rk,
                            bank: b,
                            row: r,
                        };
                        assert!(seen.insert(g.flat_index(addr)));
                    }
                }
            }
        }
        assert_eq!(seen.len() as u64, g.total_rows());
    }
}
