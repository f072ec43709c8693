//! A compact log of the calls a device takes, for replay into a device of
//! another data pattern.
//!
//! A [`crate::DeviceState`] that is recording ([`crate::DeviceState::record_calls`])
//! appends every state-changing call it takes — activation runs, batches of
//! single activations, targeted and full refreshes — to a [`CallLog`], and
//! [`crate::DeviceState::replay`] applies a finished log to another device
//! in the same order. Replay is exactly the recorded calls: the same flat
//! rows, the same run lengths, the same refresh points, through the same
//! settle path, so the replaying device ends in the state the calls would
//! have left it in had they come from the engine.
//!
//! Why that equals running the engine on the other device: the engine's
//! calls are a function of the workload stream, the mitigation's actions
//! and the run-slot class table, and nothing else. Workload and mitigation
//! never see the device (a mitigation gets only addresses), and the class
//! table reads only the device's geometry and its commuting-spacings table
//! ([`crate::VictimModelParams::commute_spacings`]). So two devices that
//! agree on geometry, blast radius and commuting table receive the same
//! calls from the same experiment, whatever else (data pattern, `HC_first`,
//! thresholds) differs between them; [`crate::DeviceState::replay`] refuses
//! a log recorded on a device that disagrees on any of the three.
//!
//! ## Encoding
//!
//! Flat row indices stay below [`crate::MAX_TOTAL_ROWS`] (2^24), so each
//! record is a `u32` word with an opcode in its top 8 bits and a 24-bit
//! argument:
//!
//! * `EACH len`, then `len` words of flat indices: one batch of single
//!   activations ([`crate::DeviceState::activate_each`]);
//! * `REPEAT idx`, then one word `n`: a run of `n` activations of one row
//!   (longer runs are split, which is exact: a run is its activations in
//!   order);
//! * `REFRESH_ROW idx` and `REFRESH_ALL`.
//!
//! A benign row costs one word and an aggressor run two, so a sweep cell
//! logs about a word per ten activations without mitigation and under one
//! per activation under Graphene's refreshes.
//!
//! ## The cap
//!
//! A log holds at most its cap in words ([`CallLog::CAP_WORDS`] unless
//! built [`CallLog::with_cap`]). Past it the recording stops and the log is
//! marked incomplete, keeping no words: a caller then runs the other
//! devices' experiments itself, which is exact too, so the cap bounds memory
//! and never changes a result.

use crate::device::DeviceTables;
use std::sync::Arc;

/// Opcode of a batch of single activations: `len`, then `len` flat rows.
pub(crate) const OP_EACH: u32 = 0;
/// Opcode of an activation run: the row, then one word of run length.
pub(crate) const OP_REPEAT: u32 = 1;
/// Opcode of a targeted refresh of one row.
pub(crate) const OP_REFRESH_ROW: u32 = 2;
/// Opcode of a full-device refresh.
pub(crate) const OP_REFRESH_ALL: u32 = 3;
/// Bits of a record word below its opcode.
pub(crate) const ARG_BITS: u32 = 24;
/// Mask of a record word's argument.
pub(crate) const ARG_MASK: u32 = (1 << ARG_BITS) - 1;

/// The calls one device took, in order, with the tables of the device that
/// took them (see the module docs).
#[derive(Debug, Clone)]
pub struct CallLog {
    words: Vec<u32>,
    cap: usize,
    /// Recording stopped at the cap: the log is incomplete and keeps no
    /// words.
    full: bool,
    /// Tables of the recording device, whose geometry, blast radius and
    /// commuting table a replaying device must share.
    source: Option<Arc<DeviceTables>>,
}

impl Default for CallLog {
    fn default() -> Self {
        Self::with_cap(Self::CAP_WORDS)
    }
}

impl CallLog {
    /// Default cap in words: 4 MiB. On the DDR4 reference grid a
    /// 1M-activation cell logs at most about 0.55M words (under Graphene).
    pub const CAP_WORDS: usize = 1 << 20;

    /// An empty log with the default cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log that stops recording past `cap` words.
    pub fn with_cap(cap: usize) -> Self {
        Self {
            words: Vec::new(),
            cap,
            full: false,
            source: None,
        }
    }

    /// Whether every call of the recording is in the log (recording did
    /// not stop at the cap). Only a complete log replays.
    pub fn is_complete(&self) -> bool {
        !self.full && self.source.is_some()
    }

    /// Empty the log (keeping its buffer) for a recording on the device
    /// with `source` tables.
    pub(crate) fn start(&mut self, source: Arc<DeviceTables>) {
        self.words.clear();
        self.full = false;
        self.source = Some(source);
    }

    pub(crate) fn source(&self) -> Option<&Arc<DeviceTables>> {
        self.source.as_ref()
    }

    pub(crate) fn words(&self) -> &[u32] {
        &self.words
    }

    /// Room for `n` more words, or stop recording for good.
    #[inline]
    fn room(&mut self, n: usize) -> bool {
        if self.full {
            return false;
        }
        if self.words.len() + n > self.cap {
            self.full = true;
            self.words.clear();
            return false;
        }
        true
    }

    /// A record word. A flat row fits its 24 bits: a device's rows number
    /// at most `MAX_TOTAL_ROWS`, and a call on a row past them panics on
    /// the device's slabs before its record could be replayed.
    #[inline]
    fn word(op: u32, arg: usize) -> u32 {
        debug_assert!(arg <= ARG_MASK as usize, "flat row {arg} exceeds 24 bits");
        op << ARG_BITS | arg as u32
    }

    /// Record a run of `n` activations of flat row `idx`.
    #[inline(never)]
    pub(crate) fn repeat(&mut self, idx: usize, mut n: u64) {
        while n > 0 {
            let part = n.min(u64::from(u32::MAX));
            if !self.room(2) {
                return;
            }
            self.words.push(Self::word(OP_REPEAT, idx));
            self.words.push(part as u32);
            n -= part;
        }
    }

    /// Record one batch of single activations of the flat rows `rows`
    /// yields.
    #[inline(never)]
    pub(crate) fn each(&mut self, rows: impl ExactSizeIterator<Item = usize>) {
        let len = rows.len();
        if len == 0 || !self.room(len.div_ceil(ARG_MASK as usize) + len) {
            return;
        }
        let mut rows = rows.peekable();
        while rows.peek().is_some() {
            let header = self.words.len();
            self.words.push(Self::word(OP_EACH, 0));
            let mut batch = 0;
            for idx in rows.by_ref().take(ARG_MASK as usize) {
                self.words.push(idx as u32);
                batch += 1;
            }
            self.words[header] = Self::word(OP_EACH, batch);
        }
    }

    /// Record a targeted refresh of flat row `idx`.
    #[inline(never)]
    pub(crate) fn refresh_row(&mut self, idx: usize) {
        if self.room(1) {
            self.words.push(Self::word(OP_REFRESH_ROW, idx));
        }
    }

    /// Record a full-device refresh.
    #[inline(never)]
    pub(crate) fn refresh_all(&mut self) {
        if self.room(1) {
            self.words.push(Self::word(OP_REFRESH_ALL, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The word layout: opcode over a 24-bit argument, a run's length in
    /// the next word (runs past `u32::MAX` split), a batch's rows after its
    /// header.
    #[test]
    fn records_encode_as_documented() {
        let mut log = CallLog::new();
        log.repeat(7, u64::from(u32::MAX) + 5);
        log.each([1usize, (1 << 24) - 1].into_iter());
        log.each(std::iter::empty());
        log.refresh_row(9);
        log.refresh_all();
        log.repeat(3, 0);
        assert_eq!(
            log.words(),
            &[
                OP_REPEAT << 24 | 7,
                u32::MAX,
                OP_REPEAT << 24 | 7,
                5,
                2,
                1,
                (1 << 24) - 1,
                OP_REFRESH_ROW << 24 | 9,
                OP_REFRESH_ALL << 24,
            ]
        );
    }

    /// Past its cap a log stops for good, keeps no words and says it is
    /// incomplete; `start` makes it whole again.
    #[test]
    fn a_log_past_its_cap_stops_and_is_incomplete() {
        let tables = DeviceTables::shared(
            crate::Geometry::tiny(16),
            crate::VictimModelParams::with_hc_first(100),
            1,
        )
        .unwrap();
        let mut log = CallLog::with_cap(3);
        log.start(tables.clone());
        log.refresh_all();
        log.repeat(1, 1);
        assert!(log.is_complete() && log.words().len() == 3);
        log.refresh_all();
        assert!(!log.is_complete() && log.words().is_empty());
        log.refresh_all();
        assert!(log.words().is_empty(), "a full log stays stopped");
        log.start(tables);
        assert!(log.is_complete());
    }
}
