//! The fingerprint-keyed verdict cache: a sharded LRU with byte-size
//! accounting.
//!
//! The service consults this cache *before* any translation or solve: the
//! paper's workload is batch-and-repeat (the same processor model verified
//! over and over across a bug catalog, encoding variants and back ends), so
//! most submitted work is structurally identical to work already done, and
//! the Bryant–German–Velev reduction makes the verdict a pure function of the
//! job fingerprint — a hit is simply the answer.
//!
//! Design:
//!
//! * **Sharding.**  Keys are spread over `N` independently locked shards by
//!   fingerprint bits, so concurrent submitters do not serialize on one lock.
//! * **Byte accounting.**  Each entry is charged its approximate heap size
//!   ([`CachedVerdict::approx_bytes`]) — counterexamples and DRAT artifacts
//!   dwarf the fixed-size verdict, so the budget is in bytes, not entries.
//! * **True LRU.**  Each shard keeps an intrusive doubly linked list over a
//!   slab of nodes; a hit relinks the entry to the front in O(1), and
//!   insertion evicts from the back until the shard fits its budget.

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use velv_core::{Certificate, TranslationStats, Verdict};
use velv_eufm::Fingerprint;
use velv_obs::{Counter, MemFootprint, Registry};

/// Heap cost of an `Arc<T>` control block (strong + weak counts), charged
/// once per `Arc` allocation an entry owns.
const ARC_HEADER: usize = 2 * size_of::<usize>();

/// Estimated per-entry share of a `BTreeMap<String, bool>` node (key header,
/// value, node-internal slack).
const BTREE_ENTRY: usize = 48;

/// Estimated cost of one occupied shard hash-map slot: key, node index and
/// control byte, rounded up for load-factor slack.
const MAP_SLOT: usize = size_of::<u128>() + size_of::<usize>() + 8;

/// Flat charge for a resident [`Certificate`]: the variant payloads are
/// fixed-size counters plus a short reason string.
const CERT_BYTES: usize = 128;

/// A cached, decided verdict and its artifacts.
///
/// Undecided (`Unknown`) verdicts are never cached — a timeout or
/// cancellation says nothing about the formula.
#[derive(Clone, Debug)]
pub struct CachedVerdict {
    /// The decided verdict (with its counterexample, for buggy designs).
    pub verdict: Verdict,
    /// The certificate of a certified run, if the job asked for one.
    pub certificate: Option<Certificate>,
    /// DRAT proof artifact of an UNSAT verdict (text format), if the job
    /// asked to keep it.
    pub proof_drat: Option<Arc<Vec<u8>>>,
    /// Wall-clock time of the original translation + solve.
    pub solve_time: Duration,
    /// Translation statistics of the original run.
    pub translation_stats: Option<TranslationStats>,
    /// The serialized [`velv_obs::SolveProfile`] (JSONL) of the original
    /// run, when the service was profiling — served by the `profile` wire
    /// verb.
    pub profile: Option<Arc<String>>,
}

impl CachedVerdict {
    /// Approximate heap footprint of a *resident* entry, used for the cache's
    /// byte accounting: the value struct, the `Arc` control block the shard
    /// wraps it in, the intrusive LRU node and hash-map slot pointing at it,
    /// plus every owned artifact with its own allocation header.  Kept within
    /// 2× of [`MemFootprint::measured_bytes`] (see the property test in
    /// `tests/cache_props.rs`); the difference is that the estimate charges
    /// lengths where the measure charges capacities.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = size_of::<CachedVerdict>() + ARC_HEADER + size_of::<Node>() + MAP_SLOT;
        bytes += self.artifact_bytes(false);
        bytes
    }

    /// Bytes of the owned, heap-allocated artifacts: counterexample entries,
    /// reason strings, proof and profile buffers.  `deep` charges buffer
    /// capacities (what the allocator really holds); otherwise lengths.
    fn artifact_bytes(&self, deep: bool) -> usize {
        let mut bytes = 0;
        match &self.verdict {
            Verdict::Buggy(cex) => {
                for (name, _) in cex.iter() {
                    bytes += name.len() + BTREE_ENTRY;
                }
            }
            Verdict::Unknown(reason) => {
                bytes += if deep {
                    reason.capacity()
                } else {
                    reason.len()
                };
            }
            Verdict::Correct => {}
        }
        if let Some(proof) = &self.proof_drat {
            bytes += ARC_HEADER + size_of::<Vec<u8>>();
            bytes += if deep { proof.capacity() } else { proof.len() };
        }
        if let Some(profile) = &self.profile {
            bytes += ARC_HEADER + size_of::<String>();
            bytes += if deep {
                profile.capacity()
            } else {
                profile.len()
            };
        }
        if self.certificate.is_some() {
            bytes += CERT_BYTES;
        }
        bytes
    }
}

impl MemFootprint for CachedVerdict {
    /// Deep heap bytes of the value itself (without the cache's node/slot
    /// overhead, which [`VerdictCache`]'s impl accounts structurally).
    fn measured_bytes(&self) -> usize {
        size_of::<CachedVerdict>() + self.artifact_bytes(true)
    }
}

/// Aggregate cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently charged.
    pub bytes: u64,
    /// Total byte budget across all shards.
    pub capacity_bytes: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Insertions (including replacements).
    pub insertions: u64,
    /// Entries evicted under byte pressure.
    pub evictions: u64,
    /// Entries refused because they alone exceed a shard's budget.
    pub oversize: u64,
}

const NIL: usize = usize::MAX;

struct Node {
    key: u128,
    value: Arc<CachedVerdict>,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// One shard: hash map + intrusive LRU list over a slab with a free list.
struct Shard {
    map: HashMap<u128, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn unlink(&mut self, index: usize) {
        let (prev, next) = (self.nodes[index].prev, self.nodes[index].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, index: usize) {
        self.nodes[index].prev = NIL;
        self.nodes[index].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = index;
        }
        self.head = index;
        if self.tail == NIL {
            self.tail = index;
        }
    }

    fn touch(&mut self, index: usize) {
        if self.head != index {
            self.unlink(index);
            self.push_front(index);
        }
    }

    /// Removes the LRU entry; returns false when the shard is empty.
    fn evict_one(&mut self) -> bool {
        let victim = self.tail;
        if victim == NIL {
            return false;
        }
        self.unlink(victim);
        let node = &mut self.nodes[victim];
        self.bytes -= node.bytes;
        let key = node.key;
        self.map.remove(&key);
        self.free.push(victim);
        true
    }

    fn insert(&mut self, key: u128, value: Arc<CachedVerdict>, bytes: usize) {
        if let Some(&index) = self.map.get(&key) {
            self.bytes -= self.nodes[index].bytes;
            self.bytes += bytes;
            self.nodes[index].value = value;
            self.nodes[index].bytes = bytes;
            self.touch(index);
            return;
        }
        let index = match self.free.pop() {
            Some(index) => {
                self.nodes[index] = Node {
                    key,
                    value,
                    bytes,
                    prev: NIL,
                    next: NIL,
                };
                index
            }
            None => {
                self.nodes.push(Node {
                    key,
                    value,
                    bytes,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, index);
        self.push_front(index);
        self.bytes += bytes;
    }
}

/// The sharded, byte-bounded LRU verdict cache (see the module docs).
pub struct VerdictCache {
    shards: Box<[Mutex<Shard>]>,
    /// Per-shard byte budget.  Atomic so the service's memory-pressure ladder
    /// can shrink and restore the budget on a live cache
    /// ([`VerdictCache::set_capacity`]).
    shard_capacity: AtomicUsize,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    oversize: Counter,
}

impl VerdictCache {
    /// Creates a cache with a total byte budget split over `shards` locks.
    /// Both arguments are clamped to at least 1 (shard count additionally
    /// rounded up to a power of two for cheap masking).  The lookup counters
    /// live on a throwaway registry; use [`VerdictCache::with_registry`] to
    /// surface them.
    pub fn new(capacity_bytes: usize, shards: usize) -> Self {
        Self::with_registry(capacity_bytes, shards, &Registry::new())
    }

    /// [`VerdictCache::new`], with the lookup counters registered on
    /// `registry` (`velv_serve_cache_lookup_*_total`) so a registry snapshot
    /// carries the cache's traffic.
    pub fn with_registry(capacity_bytes: usize, shards: usize, registry: &Registry) -> Self {
        let shard_count = shards.max(1).next_power_of_two();
        let shard_capacity = (capacity_bytes / shard_count).max(1);
        let shards: Vec<Mutex<Shard>> =
            (0..shard_count).map(|_| Mutex::new(Shard::new())).collect();
        VerdictCache {
            shards: shards.into_boxed_slice(),
            shard_capacity: AtomicUsize::new(shard_capacity),
            hits: registry.counter(
                "velv_serve_cache_lookup_hits_total",
                "Verdict-cache lookups that found an entry.",
            ),
            misses: registry.counter(
                "velv_serve_cache_lookup_misses_total",
                "Verdict-cache lookups that found nothing.",
            ),
            insertions: registry.counter(
                "velv_serve_cache_insertions_total",
                "Verdict-cache insertions (including replacements).",
            ),
            evictions: registry.counter(
                "velv_serve_cache_evictions_total",
                "Verdict-cache entries evicted under byte pressure.",
            ),
            oversize: registry.counter(
                "velv_serve_cache_oversize_total",
                "Verdict-cache entries refused for exceeding a shard budget.",
            ),
        }
    }

    fn shard(&self, key: Fingerprint) -> &Mutex<Shard> {
        // The fingerprint is already well mixed; fold the halves so shard
        // selection uses all 128 bits.
        let folded = (key.0 as u64) ^ ((key.0 >> 64) as u64);
        &self.shards[(folded as usize) & (self.shards.len() - 1)]
    }

    /// Looks a fingerprint up, refreshing its recency on a hit.
    pub fn get(&self, key: Fingerprint) -> Option<Arc<CachedVerdict>> {
        let _span = velv_obs::span("cache.lookup");
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        match shard.map.get(&key.0).copied() {
            Some(index) => {
                shard.touch(index);
                self.hits.inc();
                Some(Arc::clone(&shard.nodes[index].value))
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts (or replaces) an entry, evicting least-recently-used entries
    /// of the same shard until it fits.  An entry whose own footprint exceeds
    /// the shard budget is refused rather than flushing the whole shard.
    pub fn insert(&self, key: Fingerprint, value: CachedVerdict) {
        let bytes = value.approx_bytes();
        let shard_capacity = self.shard_capacity.load(Ordering::Relaxed);
        if bytes > shard_capacity {
            self.oversize.inc();
            return;
        }
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        shard.insert(key.0, Arc::new(value), bytes);
        self.insertions.inc();
        while shard.bytes > shard_capacity {
            if !shard.evict_one() {
                break;
            }
            self.evictions.inc();
        }
    }

    /// Re-budgets the cache to `capacity_bytes` total, immediately evicting
    /// LRU entries from every shard that now exceeds its share.  Growing the
    /// budget back later does not resurrect evicted entries — the service's
    /// memory-pressure ladder uses this to trade hit ratio for headroom and
    /// restore the configured budget once pressure clears.
    pub fn set_capacity(&self, capacity_bytes: usize) {
        let per_shard = (capacity_bytes / self.shards.len()).max(1);
        self.shard_capacity.store(per_shard, Ordering::Relaxed);
        for shard in self.shards.iter() {
            let mut shard = shard.lock().expect("cache shard lock");
            while shard.bytes > per_shard {
                if !shard.evict_one() {
                    break;
                }
                self.evictions.inc();
            }
        }
    }

    /// The current total byte budget across all shards.
    pub fn capacity_bytes(&self) -> usize {
        self.shard_capacity.load(Ordering::Relaxed) * self.shards.len()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in self.shards.iter() {
            let shard = shard.lock().expect("cache shard lock");
            entries += shard.map.len() as u64;
            bytes += shard.bytes as u64;
        }
        CacheStats {
            entries,
            bytes,
            capacity_bytes: self.capacity_bytes() as u64,
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            oversize: self.oversize.get(),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl MemFootprint for VerdictCache {
    /// Deep measured bytes: shard map/slab/free-list capacities plus every
    /// resident value behind its `Arc`.  Always at least the accounted
    /// [`CacheStats::bytes`] figure, since the accounting charges occupied
    /// slots and buffer lengths where this walks reserved capacities.
    fn measured_bytes(&self) -> usize {
        let mut bytes = size_of::<VerdictCache>();
        for shard in self.shards.iter() {
            let shard = shard.lock().expect("cache shard lock");
            bytes += size_of::<Mutex<Shard>>();
            bytes += shard.map.capacity() * MAP_SLOT;
            bytes += shard.nodes.capacity() * size_of::<Node>();
            bytes += shard.free.capacity() * size_of::<usize>();
            for &index in shard.map.values() {
                bytes += ARC_HEADER + shard.nodes[index].value.measured_bytes();
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict_of_bytes(padding: usize) -> CachedVerdict {
        CachedVerdict {
            verdict: Verdict::Correct,
            certificate: None,
            proof_drat: Some(Arc::new(vec![b'0'; padding])),
            solve_time: Duration::from_millis(1),
            translation_stats: None,
            profile: None,
        }
    }

    fn fp(i: u128) -> Fingerprint {
        // Spread the keys so single-shard tests use shards=1.
        Fingerprint(i)
    }

    #[test]
    fn hit_refreshes_recency() {
        // Budget exactly three entries, derived from the real accounting so
        // the test is immune to base-overhead changes.
        let unit = verdict_of_bytes(300).approx_bytes();
        let cache = VerdictCache::new(3 * unit, 1);
        cache.insert(fp(1), verdict_of_bytes(300));
        cache.insert(fp(2), verdict_of_bytes(300));
        cache.insert(fp(3), verdict_of_bytes(300));
        // Touch 1 so 2 is now the LRU; a fourth insert must evict 2.
        assert!(cache.get(fp(1)).is_some());
        cache.insert(fp(4), verdict_of_bytes(300));
        assert!(cache.get(fp(1)).is_some(), "recently used survives");
        assert!(cache.get(fp(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(fp(3)).is_some());
        assert!(cache.get(fp(4)).is_some());
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn byte_pressure_evicts_multiple_entries() {
        let small = verdict_of_bytes(200).approx_bytes();
        let cache = VerdictCache::new(5 * small, 1);
        for i in 0..4 {
            cache.insert(fp(i), verdict_of_bytes(200));
        }
        assert_eq!(cache.len(), 4);
        // One large entry displaces several small ones.
        cache.insert(fp(99), verdict_of_bytes(200 + 3 * small));
        let stats = cache.stats();
        assert!(stats.bytes <= stats.capacity_bytes);
        assert!(cache.get(fp(99)).is_some());
        assert!(cache.len() < 5);
    }

    #[test]
    fn oversize_entries_are_refused() {
        let cache = VerdictCache::new(1024, 1);
        cache.insert(fp(7), verdict_of_bytes(1 << 20));
        assert!(cache.get(fp(7)).is_none());
        assert_eq!(cache.stats().oversize, 1);
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn replacement_updates_byte_accounting() {
        let cache = VerdictCache::new(10_000, 1);
        cache.insert(fp(5), verdict_of_bytes(100));
        let before = cache.stats().bytes;
        cache.insert(fp(5), verdict_of_bytes(4000));
        let after = cache.stats().bytes;
        assert_eq!(cache.len(), 1);
        assert!(after > before);
        cache.insert(fp(5), verdict_of_bytes(100));
        assert_eq!(cache.stats().bytes, before);
    }

    #[test]
    fn set_capacity_evicts_down_then_restores_the_budget() {
        let unit = verdict_of_bytes(300).approx_bytes();
        let cache = VerdictCache::new(8 * unit, 1);
        for i in 0..6 {
            cache.insert(fp(i), verdict_of_bytes(300));
        }
        assert_eq!(cache.len(), 6);
        // Shrink to two entries' worth: four LRU entries must go at once.
        cache.set_capacity(2 * unit);
        let stats = cache.stats();
        assert_eq!(stats.capacity_bytes, 2 * unit as u64);
        assert!(stats.bytes <= stats.capacity_bytes);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(fp(4)).is_some(), "MRU entries survive the shrink");
        assert!(cache.get(fp(5)).is_some());
        assert!(cache.get(fp(0)).is_none(), "LRU entries are evicted");
        // Entries larger than the shrunken shard budget are refused...
        cache.insert(fp(50), verdict_of_bytes(300 + 2 * unit));
        assert_eq!(cache.stats().oversize, 1);
        // ...until the budget is restored.
        cache.set_capacity(8 * unit);
        assert_eq!(cache.capacity_bytes(), 8 * unit);
        cache.insert(fp(50), verdict_of_bytes(300 + 2 * unit));
        assert!(cache.get(fp(50)).is_some());
    }

    #[test]
    fn measured_footprint_covers_the_accounted_bytes() {
        let cache = VerdictCache::new(1 << 20, 4);
        for i in 0..32 {
            cache.insert(fp(i), verdict_of_bytes(100 + 37 * i as usize));
        }
        let stats = cache.stats();
        assert!(stats.bytes > 0);
        // The deep walk charges reserved capacities where the accounting
        // charges occupied lengths, so measured dominates accounted.
        assert!(
            cache.measured_bytes() as u64 >= stats.bytes,
            "measured {} fell below accounted {}",
            cache.measured_bytes(),
            stats.bytes
        );
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cache = VerdictCache::new(1 << 20, 8);
        assert!(cache.is_empty());
        cache.insert(fp(1), verdict_of_bytes(10));
        assert!(cache.get(fp(1)).is_some());
        assert!(cache.get(fp(2)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }
}
