//! Sharded, bounded LRU cache for ground-truth answers.
//!
//! Every answer the service computes is a pure function of the immutable
//! factor graphs — the product never changes after startup, so a cached
//! body can **never** go stale and no invalidation path exists or is
//! needed (DESIGN.md §10.1). The only thing the cache must bound is
//! memory, hence a fixed total capacity split into `N` shards of `M`
//! entries each, every shard behind its own mutex so concurrent workers
//! contend only when they hash to the same shard.
//!
//! Each shard is a classic intrusive-list LRU: a `HashMap` from key to a
//! slot index plus a doubly-linked recency list threaded through a
//! fixed-capacity slot arena. `get` promotes to most-recent, `insert`
//! evicts the least-recent slot when the shard is full. All operations
//! are O(1).
//!
//! Observability: the cache owns local atomic tallies (exact, per
//! instance — what the tests assert on) and mirrors them into the global
//! registry (`serve.cache.hits` / `.misses` / `.evictions`, plus the
//! derived `serve.cache.hit_rate_pct` gauge) so `/metrics` reports them
//! live.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bikron_obs::{Counter, Gauge};

/// Sentinel slot index for "no slot" in the recency list.
const NIL: usize = usize::MAX;

/// What a cached answer is keyed by. Only successful (200) bodies are
/// cached; error bodies are cheap to recompute and would pollute the
/// working set.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// `/v1/vertex/{p}` — Thm 3/4 per-vertex answer.
    Vertex(usize),
    /// `/v1/edge/{p}/{q}` — Thm 5 per-edge answer.
    Edge(usize, usize),
    /// `/v1/neighbors/{p}?offset&limit` — one adjacency page.
    Neighbors(usize, u64, usize),
    /// `/v1/clustering/{p}/{q}` — Thm 6 per-edge answer.
    Clustering(usize, usize),
    /// `/v1/scatter/degree-squares?offset&limit` (JSON format only —
    /// the cache stores bare JSON bodies, so the CSV rendering stays
    /// uncached).
    Scatter(u64, usize),
}

/// FNV-1a offset basis — the default shard-hash seed.
pub const DEFAULT_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

impl CacheKey {
    /// The key as `[tag, operands…]` words (the first `n` of the array):
    /// what the shard hash mixes and what a snapshot stores.
    pub(crate) fn words(&self) -> ([u64; 4], usize) {
        match *self {
            CacheKey::Vertex(p) => ([1, p as u64, 0, 0], 2),
            CacheKey::Edge(p, q) => ([2, p as u64, q as u64, 0], 3),
            CacheKey::Neighbors(p, offset, limit) => ([3, p as u64, offset, limit as u64], 4),
            CacheKey::Clustering(p, q) => ([4, p as u64, q as u64, 0], 3),
            CacheKey::Scatter(offset, limit) => ([5, offset, limit as u64, 0], 3),
        }
    }

    /// Stable, cheap hash used for shard selection (FNV-1a over the
    /// key's words — `DefaultHasher` is not guaranteed stable across
    /// releases and this value picks a shard, so keep it under our
    /// control). `seed` replaces the offset basis so caches serving
    /// different expression programs hash the same key differently (see
    /// DESIGN.md §11 — keys are expression-qualified).
    fn shard_hash(&self, seed: u64) -> u64 {
        let (words, n) = self.words();
        let mut h = seed;
        for b in words[..n].iter().flat_map(|w| w.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// One arena slot: key + body + recency-list links.
struct Slot {
    key: CacheKey,
    value: Arc<String>,
    prev: usize,
    next: usize,
}

/// One shard: map + recency list over a fixed-capacity arena.
struct LruShard {
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    /// Most-recently-used slot, or NIL when empty.
    head: usize,
    /// Least-recently-used slot (eviction victim), or NIL when empty.
    tail: usize,
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Unlink slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Link slot `i` at the head (most-recent position).
    fn link_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<Arc<String>> {
        let i = *self.map.get(key)?;
        self.unlink(i);
        self.link_front(i);
        Some(Arc::clone(&self.slots[i].value))
    }

    /// Insert (or refresh) a value. Returns whether an entry was evicted.
    fn insert(&mut self, key: CacheKey, value: Arc<String>) -> bool {
        if let Some(&i) = self.map.get(&key) {
            // Answers are immutable, so a re-insert carries the same
            // body; just refresh recency.
            self.slots[i].value = value;
            self.unlink(i);
            self.link_front(i);
            return false;
        }
        if self.slots.len() < self.capacity {
            let i = self.slots.len();
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, i);
            self.link_front(i);
            return false;
        }
        // Full: recycle the least-recently-used slot in place.
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "capacity > 0 and full implies a tail");
        self.unlink(victim);
        let old_key = std::mem::replace(&mut self.slots[victim].key, key.clone());
        self.map.remove(&old_key);
        self.slots[victim].value = value;
        self.map.insert(key, victim);
        self.link_front(victim);
        true
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Entries in recency order, most-recently-used first.
    fn entries_mru(&self) -> Vec<(CacheKey, Arc<String>)> {
        let mut out = Vec::with_capacity(self.slots.len());
        let mut i = self.head;
        while i != NIL {
            let s = &self.slots[i];
            out.push((s.key.clone(), Arc::clone(&s.value)));
            i = s.next;
        }
        out
    }
}

/// Sharded, bounded LRU cache. See the module docs for the design;
/// construction resolves all metric handles once so the hot path never
/// touches the registry lock.
pub struct ShardedCache {
    shards: Vec<Mutex<LruShard>>,
    /// Shard-hash seed; defaults to [`DEFAULT_HASH_SEED`], replaced by a
    /// hash of the canonical expression for expression servers.
    seed: u64,
    // Exact per-instance tallies (test observability)…
    local_hits: AtomicU64,
    local_misses: AtomicU64,
    local_evictions: AtomicU64,
    // …mirrored into the process-wide registry for `/metrics`.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    hit_rate_pct: Arc<Gauge>,
    entries_gauge: Arc<Gauge>,
}

impl ShardedCache {
    /// Build a cache with `entries` total capacity spread over `shards`
    /// shards (both forced ≥ 1; per-shard capacity is rounded up so the
    /// total is never *below* the request).
    pub fn new(entries: usize, shards: usize) -> Self {
        Self::with_seed(entries, shards, DEFAULT_HASH_SEED)
    }

    /// [`ShardedCache::new`] with an explicit shard-hash seed. Expression
    /// servers pass an FNV hash of the canonicalised expression, making
    /// every cache key implicitly expression-qualified.
    pub fn with_seed(entries: usize, shards: usize, seed: u64) -> Self {
        let shards = shards.max(1);
        let per_shard = entries.max(1).div_ceil(shards);
        let obs = bikron_obs::global();
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            seed,
            local_hits: AtomicU64::new(0),
            local_misses: AtomicU64::new(0),
            local_evictions: AtomicU64::new(0),
            hits: obs.counter("serve.cache.hits"),
            misses: obs.counter("serve.cache.misses"),
            evictions: obs.counter("serve.cache.evictions"),
            hit_rate_pct: obs.gauge("serve.cache.hit_rate_pct"),
            entries_gauge: obs.gauge("serve.cache.entries"),
        }
    }

    fn shard_for(&self, key: &CacheKey) -> &Mutex<LruShard> {
        &self.shards[(key.shard_hash(self.seed) % self.shards.len() as u64) as usize]
    }

    /// Look up a cached body, recording hit/miss and refreshing the
    /// derived hit-rate gauge.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<String>> {
        let found = self.shard_for(key).lock().unwrap().get(key);
        if found.is_some() {
            self.local_hits.fetch_add(1, Ordering::Relaxed);
            self.hits.inc();
        } else {
            self.local_misses.fetch_add(1, Ordering::Relaxed);
            self.misses.inc();
        }
        let (h, m) = (self.local_hits(), self.local_misses());
        self.hit_rate_pct.set(h * 100 / (h + m).max(1));
        found
    }

    /// Cache a freshly-computed body.
    pub fn insert(&self, key: CacheKey, value: Arc<String>) {
        let evicted = self.shard_for(&key).lock().unwrap().insert(key, value);
        if evicted {
            self.local_evictions.fetch_add(1, Ordering::Relaxed);
            self.evictions.inc();
        }
        self.entries_gauge.set(self.len() as u64);
    }

    /// Current number of cached entries, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total configured capacity (shards × per-shard entries).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shards[0].lock().unwrap().capacity
    }

    /// Exact hit count for *this* cache instance (global counters are
    /// shared across every instance in the process).
    pub fn local_hits(&self) -> u64 {
        self.local_hits.load(Ordering::Relaxed)
    }

    /// Exact miss count for this cache instance.
    pub fn local_misses(&self) -> u64 {
        self.local_misses.load(Ordering::Relaxed)
    }

    /// Exact eviction count for this cache instance.
    pub fn local_evictions(&self) -> u64 {
        self.local_evictions.load(Ordering::Relaxed)
    }

    /// Harvest up to `k` of the hottest entries, globally most-recent
    /// first (approximated by a round-robin merge of the per-shard MRU
    /// lists — recency is only tracked within a shard). The result is
    /// what a snapshot persists; feed it back through
    /// [`ShardedCache::restore`] to reproduce the working set.
    pub fn hottest(&self, k: usize) -> Vec<(CacheKey, Arc<String>)> {
        let per_shard: Vec<Vec<(CacheKey, Arc<String>)>> = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap().entries_mru())
            .collect();
        let mut out = Vec::new();
        let mut depth = 0;
        while out.len() < k {
            let mut any = false;
            for shard in &per_shard {
                if let Some(e) = shard.get(depth) {
                    any = true;
                    out.push(e.clone());
                    if out.len() == k {
                        break;
                    }
                }
            }
            if !any {
                break;
            }
            depth += 1;
        }
        out
    }

    /// Re-insert snapshot entries (hottest first, as produced by
    /// [`ShardedCache::hottest`]). Insertion runs coldest-first so the
    /// first entry of the slice ends up most recently used. Restoration
    /// does not count as traffic: hit/miss/eviction counters are left
    /// untouched; only the entries gauge is refreshed. Returns the number
    /// of entries offered to the shards (capacity may retain fewer).
    pub fn restore(&self, entries: Vec<(CacheKey, Arc<String>)>) -> usize {
        let n = entries.len();
        for (key, value) in entries.into_iter().rev() {
            self.shard_for(&key).lock().unwrap().insert(key, value);
        }
        self.entries_gauge.set(self.len() as u64);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn get_after_put_returns_the_value() {
        let c = ShardedCache::new(64, 4);
        assert!(c.get(&CacheKey::Vertex(7)).is_none());
        c.insert(CacheKey::Vertex(7), body("seven"));
        assert_eq!(c.get(&CacheKey::Vertex(7)).unwrap().as_str(), "seven");
        assert_eq!(c.local_hits(), 1);
        assert_eq!(c.local_misses(), 1);
    }

    #[test]
    fn distinct_key_kinds_do_not_collide() {
        let c = ShardedCache::new(64, 4);
        c.insert(CacheKey::Vertex(1), body("v"));
        c.insert(CacheKey::Edge(1, 1), body("e"));
        c.insert(CacheKey::Neighbors(1, 1, 1), body("n"));
        c.insert(CacheKey::Scatter(1, 1), body("s"));
        assert_eq!(c.get(&CacheKey::Vertex(1)).unwrap().as_str(), "v");
        assert_eq!(c.get(&CacheKey::Edge(1, 1)).unwrap().as_str(), "e");
        assert_eq!(c.get(&CacheKey::Neighbors(1, 1, 1)).unwrap().as_str(), "n");
        assert_eq!(c.get(&CacheKey::Scatter(1, 1)).unwrap().as_str(), "s");
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_a_shard() {
        // Single shard of 2: inserting a third key must evict the LRU.
        let c = ShardedCache::new(2, 1);
        c.insert(CacheKey::Vertex(1), body("1"));
        c.insert(CacheKey::Vertex(2), body("2"));
        // Touch 1 so 2 becomes LRU.
        assert!(c.get(&CacheKey::Vertex(1)).is_some());
        c.insert(CacheKey::Vertex(3), body("3"));
        assert_eq!(c.local_evictions(), 1);
        assert!(c.get(&CacheKey::Vertex(1)).is_some(), "recent key survives");
        assert!(c.get(&CacheKey::Vertex(2)).is_none(), "LRU key evicted");
        assert!(c.get(&CacheKey::Vertex(3)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let c = ShardedCache::new(2, 1);
        c.insert(CacheKey::Vertex(1), body("1"));
        c.insert(CacheKey::Vertex(2), body("2"));
        c.insert(CacheKey::Vertex(1), body("1")); // refresh, 2 is now LRU
        c.insert(CacheKey::Vertex(3), body("3"));
        assert!(c.get(&CacheKey::Vertex(1)).is_some());
        assert!(c.get(&CacheKey::Vertex(2)).is_none());
        assert_eq!(c.local_evictions(), 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let c = ShardedCache::new(16, 4);
        for p in 0..1000 {
            c.insert(CacheKey::Vertex(p), body("x"));
        }
        assert!(c.len() <= c.capacity());
        assert!(c.capacity() >= 16);
    }

    #[test]
    fn hottest_then_restore_reproduces_the_working_set() {
        let cache = ShardedCache::new(16, 4);
        for p in 0..10usize {
            cache.insert(CacheKey::Vertex(p), body(&format!("v{p}")));
        }
        // Touch a few keys so recency differs from insertion order.
        cache.get(&CacheKey::Vertex(2));
        cache.get(&CacheKey::Vertex(7));

        let hot = cache.hottest(usize::MAX);
        assert_eq!(hot.len(), cache.len());

        let restored = ShardedCache::new(16, 4);
        assert_eq!(restored.restore(hot.clone()), hot.len());
        assert_eq!(restored.len(), cache.len());
        for (key, val) in &hot {
            assert_eq!(restored.get(key).as_deref(), Some(&**val));
        }
        // Restoration itself must not count as traffic.
        assert_eq!(restored.local_misses(), 0);
    }

    #[test]
    fn hottest_truncates_and_leads_with_recent_entries() {
        // One shard so recency order is exact.
        let cache = ShardedCache::new(8, 1);
        for p in 0..5usize {
            cache.insert(CacheKey::Vertex(p), body("x"));
        }
        cache.get(&CacheKey::Vertex(0));
        let hot = cache.hottest(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, CacheKey::Vertex(0));
        assert_eq!(hot[1].0, CacheKey::Vertex(4));
    }

    #[test]
    fn hit_rate_gauge_tracks_ratio() {
        let c = ShardedCache::new(8, 1);
        c.insert(CacheKey::Vertex(1), body("1"));
        for _ in 0..3 {
            c.get(&CacheKey::Vertex(1));
        }
        c.get(&CacheKey::Vertex(99));
        // 3 hits, 1 miss → 75%.
        assert_eq!(
            c.local_hits() * 100 / (c.local_hits() + c.local_misses()),
            75
        );
    }
}
