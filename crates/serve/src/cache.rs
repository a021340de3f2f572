//! Content-addressed result cache.
//!
//! Production edge-DLA traffic repeats itself: the same weights serve
//! every request of a deployment, and hot inputs recur. A completed
//! job can therefore be memoized above the backend layer under
//! `Job::content_key()` and replayed bit-identically without touching
//! a core. The key is a word-wise hash of `(input, weights, params)`:
//! tensor elements are packed two per 64-bit word and mixed in four
//! independent multiply-rotate lanes, together with a payload-kind tag,
//! every tensor's dimensions and the small FNV-1a digests of
//! `ConvParams`/`SdpConfig`/`PoolParams`. Output digests
//! (`JobOutput::digest`, `DataCube::content_hash`,
//! `Matrix::content_hash`) remain FNV-1a, so they stay comparable
//! across backends and with every recorded golden.
//!
//! The cache is a bounded LRU with lazy recency bookkeeping: each
//! touch pushes a `(key, stamp)` pair onto a recency queue and records
//! the stamp in the live map; eviction pops stale pairs until it finds
//! one whose stamp is current. Amortized O(1) per operation.
//!
//! Keys additionally fold in the executing [`BackendKind`]: outputs
//! are bit-identical across backends (the workspace's equivalence
//! contract), but *modelled cycles and energy are not* — an NVDLA
//! baseline entry must not answer for a Tempus one.

use std::collections::{HashMap, VecDeque};

use tempus_runtime::{BackendKind, JobOutput};

/// A memoized job execution.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The computed output (bit-identical to a cold execution).
    pub output: JobOutput,
    /// Modelled datapath cycles of the original execution (the
    /// sharded critical path on multi-array backends).
    pub sim_cycles: u64,
    /// Modelled energy of the original execution, in pJ.
    pub energy_pj: f64,
    /// PE arrays the original execution occupied (1 on single-array
    /// backends).
    pub shards: usize,
    /// Work balance across the arrays of the original execution.
    pub shard_utilization: f64,
    /// Arrays the array-slot scheduler granted the original
    /// execution (a hit itself costs the device nothing).
    pub arrays_granted: usize,
}

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Live entries at snapshot time.
    pub entries: usize,
    /// The configured capacity.
    pub capacity: usize,
}

impl ResultCacheStats {
    /// Hit fraction over all lookups (0 when none).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Slot {
    entry: CacheEntry,
    stamp: u64,
}

/// Bounded LRU keyed on `(Job::content_key(), BackendKind)`.
#[derive(Debug)]
pub struct ResultCache {
    map: HashMap<u64, Slot>,
    recency: VecDeque<(u64, u64)>,
    stamp: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

fn backend_tag(kind: BackendKind) -> u64 {
    match kind {
        BackendKind::TempusCycleAccurate => 0x9E37_79B9_7F4A_7C15,
        BackendKind::NvdlaCycleAccurate => 0xC2B2_AE3D_27D4_EB4F,
        BackendKind::FastFunctional => 0x1656_67B1_9E37_79F9,
    }
}

/// Folds a job content key and the executing backend into the cache
/// key.
#[must_use]
pub fn cache_key(content_key: u64, kind: BackendKind) -> u64 {
    // xor-multiply mix keeps the key order-stable and cheap.
    (content_key ^ backend_tag(kind)).wrapping_mul(0xFF51_AFD7_ED55_8CCD)
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be >= 1");
        ResultCache {
            map: HashMap::with_capacity(capacity),
            recency: VecDeque::new(),
            stamp: 0,
            capacity,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// Live entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Queues `(key, stamp)` for the LRU after the key's live slot was
    /// stamped.
    fn push_recency(&mut self, key: u64, stamp: u64) {
        self.recency.push_back((key, stamp));
        // Keep the lazy queue from outgrowing the map unboundedly:
        // compact once it holds more stale than live pairs.
        if self.recency.len() > 2 * self.capacity.max(self.map.len()) {
            let map = &self.map;
            self.recency
                .retain(|&(k, s)| map.get(&k).is_some_and(|slot| slot.stamp == s));
        }
    }

    /// Looks up a key, bumping recency and counting hit/miss. One map
    /// probe per lookup.
    #[must_use]
    pub fn get(&mut self, key: u64) -> Option<CacheEntry> {
        let stamp = self.stamp + 1;
        let Some(slot) = self.map.get_mut(&key) else {
            self.misses += 1;
            return None;
        };
        slot.stamp = stamp;
        let entry = slot.entry.clone();
        self.stamp = stamp;
        self.hits += 1;
        self.push_recency(key, stamp);
        Some(entry)
    }

    /// Inserts (or refreshes) an entry, evicting the least recently
    /// used entry when over capacity.
    pub fn insert(&mut self, key: u64, entry: CacheEntry) {
        self.stamp += 1;
        let stamp = self.stamp;
        if self.map.insert(key, Slot { entry, stamp }).is_none() {
            self.insertions += 1;
        }
        self.push_recency(key, stamp);
        while self.map.len() > self.capacity {
            // Pop recency pairs until one is current; stale pairs
            // belong to keys re-touched or already evicted.
            match self.recency.pop_front() {
                Some((k, s)) => {
                    if self.map.get(&k).is_some_and(|slot| slot.stamp == s) {
                        self.map.remove(&k);
                        self.evictions += 1;
                    }
                }
                None => break, // unreachable: map non-empty => queue non-empty
            }
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ResultCacheStats {
        ResultCacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempus_core::gemm::Matrix;

    fn entry(v: i32) -> CacheEntry {
        CacheEntry {
            output: JobOutput::Matrix(Matrix::from_fn(1, 1, |_, _| v)),
            sim_cycles: v as u64,
            energy_pj: f64::from(v),
            shards: 1,
            shard_utilization: 1.0,
            arrays_granted: 1,
        }
    }

    #[test]
    fn hits_return_the_stored_entry() {
        let mut cache = ResultCache::new(4);
        assert!(cache.get(1).is_none());
        cache.insert(1, entry(7));
        let hit = cache.get(1).expect("hit");
        assert_eq!(hit.sim_cycles, 7);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = ResultCache::new(3);
        for k in 0..3u64 {
            cache.insert(k, entry(k as i32));
        }
        // Touch 0 so 1 becomes the LRU.
        let _ = cache.get(0);
        cache.insert(3, entry(3));
        assert_eq!(cache.len(), 3);
        assert!(cache.get(1).is_none(), "1 was the LRU");
        assert!(cache.get(0).is_some());
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_is_a_hard_bound_under_churn() {
        let mut cache = ResultCache::new(8);
        for k in 0..10_000u64 {
            cache.insert(k, entry((k % 100) as i32));
            let _ = cache.get(k / 2);
            assert!(cache.len() <= 8);
            // The lazy recency queue must stay bounded too.
            assert!(cache.recency.len() <= 2 * 8 + 2);
        }
        assert_eq!(cache.stats().entries, 8);
    }

    #[test]
    fn backend_kind_partitions_the_key_space() {
        let key = 0xDEAD_BEEFu64;
        let kinds = [
            BackendKind::TempusCycleAccurate,
            BackendKind::NvdlaCycleAccurate,
            BackendKind::FastFunctional,
        ];
        for (i, &a) in kinds.iter().enumerate() {
            for &b in &kinds[i + 1..] {
                assert_ne!(cache_key(key, a), cache_key(key, b));
            }
        }
    }
}
