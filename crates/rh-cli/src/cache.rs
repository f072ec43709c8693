//! The coordinator's LRU result cache.
//!
//! Keyed by the canonical `(config_hash, seed)` pair
//! ([`crate::proto::config_key`]): two requests with the same key *plan the
//! same cells under the same random universe*, so their merged documents are
//! byte-identical by the determinism invariant — serving the stored bytes
//! is indistinguishable from re-executing, except ~10⁶× cheaper. The hash
//! half canonicalizes spelling (field order, explicit defaults, duplicate
//! axis values), so a client cannot dodge the cache by reordering fields.
//!
//! Capacity is bounded (default [`DEFAULT_CAPACITY`]) with
//! least-recently-*used* eviction — a hit refreshes recency, so a hot
//! config pinned by steady traffic survives a scan of one-off configs.
//! Recency is a logical clock, not wall time: deterministic, test-friendly,
//! and immune to clock steps.
//!
//! The cache stores the rendered document (the exact bytes a client
//! receives), not the [`crate::sweep::SweepOutput`] — the service's unit of
//! work is "bytes for a config", and storing post-render means a hit skips
//! rendering too.
//!
//! The cache lives in memory only. Surviving a coordinator restart is the
//! per-cell checkpoint journal's job ([`crate::serve`], `--checkpoint-dir`):
//! a key whose cells are all journaled is restored without a worker, and
//! the rendered document warms this cache.

use std::collections::HashMap;

/// Default number of cached sweep documents. A default-config document is
/// ~60 KiB, so the default bound keeps the cache comfortably in tens of
/// MiB even with large custom grids.
pub const DEFAULT_CAPACITY: usize = 128;

/// The cache key: `(config_hash, seed)`.
pub type Key = (u64, u64);

struct Entry {
    document: String,
    /// Logical timestamp of the last hit or insert.
    used: u64,
}

/// A bounded LRU map from [`Key`] to rendered sweep documents, with hit
/// accounting (the coordinator surfaces `cache_hits` in every response
/// envelope — the observable served-from-cache counter).
pub struct ResultCache {
    entries: HashMap<Key, Entry>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Look up a document, refreshing its recency and counting the
    /// hit/miss.
    pub fn get(&mut self, key: Key) -> Option<String> {
        let stamp = self.tick();
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.used = stamp;
                self.hits += 1;
                Some(entry.document.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) a document, evicting the least-recently-used
    /// entry if the cache is at capacity.
    pub fn put(&mut self, key: Key, document: String) {
        let stamp = self.tick();
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                document,
                used: stamp,
            },
        );
    }

    /// Count a hit served from outside the cache: a submit coalesced onto
    /// an in-flight twin gets the twin's document, which is also put here.
    pub fn count_hit(&mut self) {
        self.hits += 1;
    }

    /// Lifetime count of [`ResultCache::get`] calls that returned a
    /// document, plus [`ResultCache::count_hit`]s.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime count of [`ResultCache::get`] calls that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime count of entries pushed out by capacity pressure (surfaced
    /// in every response envelope, so an undersized `--cache-capacity` is
    /// observable instead of just slow).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_stored_bytes_and_counts() {
        let mut c = ResultCache::new(4);
        assert_eq!(c.get((1, 1)), None);
        c.put((1, 1), "doc-a".into());
        assert_eq!(c.get((1, 1)).as_deref(), Some("doc-a"));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn seed_is_part_of_the_key() {
        let mut c = ResultCache::new(4);
        c.put((7, 1), "seed-1".into());
        assert_eq!(c.get((7, 2)), None, "same config hash, different seed");
        c.put((7, 2), "seed-2".into());
        assert_eq!(c.get((7, 1)).as_deref(), Some("seed-1"));
        assert_eq!(c.get((7, 2)).as_deref(), Some("seed-2"));
    }

    #[test]
    fn evicts_least_recently_used_not_least_recently_inserted() {
        let mut c = ResultCache::new(2);
        c.put((1, 0), "a".into());
        c.put((2, 0), "b".into());
        // Touch the older entry so the newer one becomes the LRU victim.
        assert!(c.get((1, 0)).is_some());
        c.put((3, 0), "c".into());
        assert_eq!(c.len(), 2);
        assert!(c.get((1, 0)).is_some(), "recently used must survive");
        assert_eq!(c.get((2, 0)), None, "LRU entry must be evicted");
        assert!(c.get((3, 0)).is_some());
        assert_eq!(c.evictions(), 1, "the push-out must be counted");
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut c = ResultCache::new(2);
        c.put((1, 0), "a".into());
        c.put((2, 0), "b".into());
        c.put((1, 0), "a2".into());
        assert_eq!(c.len(), 2, "refresh must not evict");
        assert_eq!(c.get((1, 0)).as_deref(), Some("a2"));
        assert_eq!(c.get((2, 0)).as_deref(), Some("b"));
        assert_eq!(c.evictions(), 0, "a refresh is not an eviction");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut c = ResultCache::new(0);
        c.put((1, 0), "a".into());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get((1, 0)).as_deref(), Some("a"));
    }
}
