//! A memoizing metric wrapper.
//!
//! The SEA algorithm evaluates `d` on pairs of hierarchy terms and the
//! Query Executor re-evaluates `~` conditions against the same term pool;
//! [`CachedMetric`] memoizes distances under a canonicalized (sorted) key
//! so symmetric lookups share one entry.
//!
//! ## Sharding
//!
//! The map is split into up to [`CachedMetric::MAX_SHARDS`] stripes, each
//! behind its own `std::sync::RwLock`, with the stripe chosen by hashing
//! the canonical key. Parallel query workers (the `toss-pool` scan path
//! re-evaluates `~` probes concurrently) then contend only when they touch
//! the same stripe instead of serializing on one global lock. Small caches
//! (capacity below [`CachedMetric::SHARD_THRESHOLD`]) keep a single stripe
//! so eviction order stays exactly global-FIFO. A poisoned lock — a panic
//! mid-insert — falls back to the poisoned guard's data, which is always a
//! consistent map.
//!
//! The cache is **bounded**: at most [`CachedMetric::DEFAULT_CAPACITY`]
//! pairs by default (configurable via [`CachedMetric::with_capacity`],
//! removable via [`CachedMetric::unbounded`]). Capacity is divided evenly
//! across stripes (`capacity / shards` per stripe, so the total never
//! exceeds the configured bound). When a stripe fills, its oldest inserted
//! entry is evicted (FIFO per stripe) — the SEA pair sweep and probe
//! expansion both touch pairs in waves, so insertion age approximates
//! recency well enough without per-hit bookkeeping. An adversarial query
//! stream therefore cannot grow the cache without bound.
//!
//! Every lookup is counted as a **hit** (served from the map) or a
//! **miss** (computed through the inner metric): [`CachedMetric::hits`],
//! [`CachedMetric::misses`] and [`CachedMetric::hit_rate`] read the
//! per-instance tallies, and the same events feed the global
//! `similarity.cache.hits` / `similarity.cache.misses` counters of
//! `toss_obs::metrics`, so `toss stats` shows cache effectiveness
//! alongside the query-phase histograms. Evictions are tallied per shard
//! ([`CachedMetric::shard_evictions`]), in the instance-wide
//! [`CachedMetric::evictions`] sum, and in the global
//! `similarity.cache.evictions` counter.

use crate::traits::StringMetric;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use toss_obs::metrics::Counter;

fn global_hits() -> &'static Counter {
    static HITS: OnceLock<Arc<Counter>> = OnceLock::new();
    HITS.get_or_init(|| toss_obs::metrics::counter("similarity.cache.hits"))
}

fn global_misses() -> &'static Counter {
    static MISSES: OnceLock<Arc<Counter>> = OnceLock::new();
    MISSES.get_or_init(|| toss_obs::metrics::counter("similarity.cache.misses"))
}

fn global_evictions() -> &'static Counter {
    static EVICTIONS: OnceLock<Arc<Counter>> = OnceLock::new();
    EVICTIONS.get_or_init(|| toss_obs::metrics::counter("similarity.cache.evictions"))
}

/// Map plus FIFO insertion order, updated together under one lock.
struct CacheState {
    map: HashMap<(String, String), f64>,
    order: VecDeque<(String, String)>,
}

/// One stripe of the cache: its state, capacity slice and eviction tally.
struct Shard {
    state: RwLock<CacheState>,
    /// This stripe's slice of the total capacity (`None` = unbounded).
    capacity: Option<usize>,
    evictions: AtomicU64,
}

impl Shard {
    fn new(capacity: Option<usize>) -> Self {
        Shard {
            state: RwLock::new(CacheState {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
            evictions: AtomicU64::new(0),
        }
    }
}

/// A wrapper that memoizes an inner metric's distances.
pub struct CachedMetric<M> {
    inner: M,
    shards: Vec<Shard>,
    hasher: RandomState,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<M: StringMetric> CachedMetric<M> {
    /// The default bound on memoized pairs (~1M entries; at two short
    /// strings and an `f64` per entry this is tens of MB, not gigabytes).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Stripe count for large and unbounded caches.
    pub const MAX_SHARDS: usize = 16;

    /// Bounded caches smaller than this keep a single stripe, preserving
    /// exact global-FIFO eviction (per-stripe FIFO is meaningless when a
    /// stripe holds a handful of entries).
    pub const SHARD_THRESHOLD: usize = 1024;

    /// Wrap a metric with an empty cache bounded at
    /// [`CachedMetric::DEFAULT_CAPACITY`] pairs.
    pub fn new(inner: M) -> Self {
        Self::build(inner, Some(Self::DEFAULT_CAPACITY))
    }

    /// Wrap a metric with an explicit capacity (0 disables memoization:
    /// every lookup runs the inner metric).
    pub fn with_capacity(inner: M, capacity: usize) -> Self {
        Self::build(inner, Some(capacity))
    }

    /// Wrap a metric with no eviction at all (the pre-bounded behaviour;
    /// only safe when the key universe is known to be small).
    pub fn unbounded(inner: M) -> Self {
        Self::build(inner, None)
    }

    fn build(inner: M, capacity: Option<usize>) -> Self {
        let shard_count = match capacity {
            Some(cap) if cap < Self::SHARD_THRESHOLD => 1,
            _ => Self::MAX_SHARDS,
        };
        let shards = (0..shard_count)
            .map(|_| Shard::new(capacity.map(|cap| cap / shard_count)))
            .collect();
        CachedMetric {
            inner,
            shards,
            hasher: RandomState::new(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of lock stripes the cache is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of memoized pairs across all stripes.
    pub fn cached_pairs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.read().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the inner metric.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay within capacity, summed over stripes.
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.evictions.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-stripe eviction tallies (index = stripe number).
    pub fn shard_evictions(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.evictions.load(Ordering::Relaxed))
            .collect()
    }

    /// Fraction of lookups served from the cache (0.0 with no lookups).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Drop all memoized entries (hit/miss tallies are kept: they count
    /// lookups, not contents).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut state = shard.state.write().unwrap_or_else(|e| e.into_inner());
            state.map.clear();
            state.order.clear();
        }
    }

    fn key(a: &str, b: &str) -> (String, String) {
        if a <= b {
            (a.to_string(), b.to_string())
        } else {
            (b.to_string(), a.to_string())
        }
    }

    fn shard_for(&self, key: &(String, String)) -> &Shard {
        if self.shards.len() == 1 {
            return &self.shards[0];
        }
        &self.shards[(self.hasher.hash_one(key) as usize) % self.shards.len()]
    }
}

impl<M: StringMetric> StringMetric for CachedMetric<M> {
    fn distance(&self, a: &str, b: &str) -> f64 {
        let key = Self::key(a, b);
        let shard = self.shard_for(&key);
        if let Some(&d) = shard
            .state
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            global_hits().inc();
            return d;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        global_misses().inc();
        let d = self.inner.distance(a, b);
        if shard.capacity == Some(0) {
            return d;
        }
        let mut state = shard.state.write().unwrap_or_else(|e| e.into_inner());
        // another thread may have inserted the same key while we computed
        if state.map.insert(key.clone(), d).is_none() {
            state.order.push_back(key);
            if let Some(cap) = shard.capacity {
                while state.map.len() > cap {
                    let Some(oldest) = state.order.pop_front() else {
                        break;
                    };
                    state.map.remove(&oldest);
                    shard.evictions.fetch_add(1, Ordering::Relaxed);
                    global_evictions().inc();
                }
            }
        }
        d
    }

    fn is_strong(&self) -> bool {
        self.inner.is_strong()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn blocking(&self, epsilon: f64) -> Option<crate::blocking::BlockPlan> {
        self.inner.blocking(epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein::Levenshtein;
    use crate::traits::axioms;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counting<'a> {
        calls: &'a AtomicUsize,
    }

    impl StringMetric for Counting<'_> {
        fn distance(&self, a: &str, b: &str) -> f64 {
            self.calls.fetch_add(1, Ordering::SeqCst);
            Levenshtein.distance(a, b)
        }
        fn is_strong(&self) -> bool {
            true
        }
        fn name(&self) -> &str {
            "counting"
        }
    }

    #[test]
    fn caches_symmetric_pairs_once() {
        let calls = AtomicUsize::new(0);
        let m = CachedMetric::new(Counting { calls: &calls });
        assert_eq!(m.distance("abc", "abd"), 1.0);
        assert_eq!(m.distance("abd", "abc"), 1.0);
        assert_eq!(m.distance("abc", "abd"), 1.0);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(m.cached_pairs(), 1);
    }

    #[test]
    fn repeated_pair_is_a_hit() {
        let m = CachedMetric::new(Levenshtein);
        let g_hits = m.hits();
        assert_eq!(m.hits(), 0);
        assert_eq!(m.hit_rate(), 0.0);
        m.distance("alpha", "beta"); // miss: first sighting
        assert_eq!((m.hits(), m.misses()), (0, 1));
        m.distance("alpha", "beta"); // hit
        m.distance("beta", "alpha"); // hit (symmetric key)
        assert_eq!((m.hits(), m.misses()), (2, 1));
        assert!((m.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        // the global registry saw the same events (≥, since tests share it)
        let snap = toss_obs::metrics::snapshot();
        assert!(snap.counter("similarity.cache.hits").unwrap_or(0) >= g_hits + 2);
        assert!(snap.counter("similarity.cache.misses").unwrap_or(0) >= 1);
    }

    #[test]
    fn clear_resets() {
        let calls = AtomicUsize::new(0);
        let m = CachedMetric::new(Counting { calls: &calls });
        m.distance("a", "b");
        m.clear();
        m.distance("a", "b");
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!((m.hits(), m.misses()), (0, 2));
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let m = CachedMetric::with_capacity(Levenshtein, 2);
        assert_eq!(m.capacity(), Some(2));
        assert_eq!(m.shard_count(), 1, "small caches stay single-stripe");
        m.distance("a", "b");
        m.distance("c", "d");
        m.distance("e", "f"); // evicts (a, b)
        assert_eq!(m.cached_pairs(), 2);
        assert_eq!(m.evictions(), 1);
        m.distance("c", "d"); // still cached: a hit
        assert_eq!(m.hits(), 1);
        m.distance("a", "b"); // evicted: a miss again (and evicts (e, f))
        assert_eq!(m.misses(), 4);
        assert_eq!(m.evictions(), 2);
        // the global registry saw the evictions too
        let snap = toss_obs::metrics::snapshot();
        assert!(snap.counter("similarity.cache.evictions").unwrap_or(0) >= 2);
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let calls = AtomicUsize::new(0);
        let m = CachedMetric::with_capacity(Counting { calls: &calls }, 0);
        assert_eq!(m.distance("abc", "abd"), 1.0);
        assert_eq!(m.distance("abc", "abd"), 1.0);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(m.cached_pairs(), 0);
        assert_eq!(m.evictions(), 0);
    }

    #[test]
    fn unbounded_never_evicts() {
        let m = CachedMetric::unbounded(Levenshtein);
        assert_eq!(m.capacity(), None);
        assert_eq!(m.shard_count(), CachedMetric::<Levenshtein>::MAX_SHARDS);
        for i in 0..100 {
            m.distance(&format!("left{i}"), &format!("right{i}"));
        }
        assert_eq!(m.cached_pairs(), 100);
        assert_eq!(m.evictions(), 0);
    }

    #[test]
    fn large_caches_stripe_and_stay_within_capacity() {
        let cap = CachedMetric::<Levenshtein>::SHARD_THRESHOLD;
        let m = CachedMetric::with_capacity(Levenshtein, cap);
        assert_eq!(m.shard_count(), CachedMetric::<Levenshtein>::MAX_SHARDS);
        let inserted = cap + cap / 4;
        for i in 0..inserted {
            m.distance(&format!("key{i}"), &format!("val{i}"));
        }
        assert!(
            m.cached_pairs() <= cap,
            "striped capacity slices must bound the total: {} > {cap}",
            m.cached_pairs()
        );
        assert!(
            m.evictions() >= (inserted - cap) as u64,
            "inserting past capacity must evict at least the overflow"
        );
    }

    #[test]
    fn shard_eviction_tallies_sum_to_total() {
        let cap = CachedMetric::<Levenshtein>::SHARD_THRESHOLD;
        let m = CachedMetric::with_capacity(Levenshtein, cap);
        let inserted = 2 * cap;
        for i in 0..inserted {
            m.distance(&format!("a{i}"), &format!("b{i}"));
        }
        let per_shard = m.shard_evictions();
        assert_eq!(per_shard.len(), m.shard_count());
        assert_eq!(per_shard.iter().sum::<u64>(), m.evictions());
        // every insert past a full stripe evicts exactly one entry
        assert_eq!(
            m.evictions(),
            inserted as u64 - m.cached_pairs() as u64,
            "per-shard eviction accounting must balance inserts"
        );
        assert!(
            per_shard.iter().filter(|&&e| e > 0).count() > 1,
            "evictions should occur across multiple stripes"
        );
    }

    #[test]
    fn striped_cache_is_consistent_under_concurrent_lookups() {
        let m = std::sync::Arc::new(CachedMetric::with_capacity(
            Levenshtein,
            CachedMetric::<Levenshtein>::SHARD_THRESHOLD,
        ));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        // overlapping key ranges force cross-thread races
                        let d = m.distance(&format!("k{}", (t * 250 + i) % 900), "probe");
                        assert!(d.is_finite());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(m.cached_pairs() <= CachedMetric::<Levenshtein>::SHARD_THRESHOLD);
        assert_eq!(m.hits() + m.misses(), 2000);
        assert_eq!(m.shard_evictions().iter().sum::<u64>(), m.evictions());
    }

    #[test]
    fn preserves_inner_semantics() {
        let m = CachedMetric::new(Levenshtein);
        axioms::assert_axioms(&m);
        assert!(m.is_strong());
        assert_eq!(m.name(), "levenshtein");
        axioms::assert_blocking_plan(&m);
        assert_eq!(m.blocking(2.0), Levenshtein.blocking(2.0));
    }
}
