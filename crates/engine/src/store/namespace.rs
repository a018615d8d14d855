//! One typed namespace of the store: a content-addressed, lock-striped,
//! capacity-bounded cache with pluggable eviction.
//!
//! Keys are stable 64-bit fingerprints (see `sil_lang::hash`); values are
//! cheaply cloneable (the store holds `Arc`s).  The namespace is split into
//! `stripes` independently locked segments; a key's stripe is a mix of its
//! fingerprint bits, so concurrent engines contend only when they touch the
//! same sliver of the key space.  Each stripe keeps its own counters; the
//! namespace aggregates them on demand.
//!
//! Lookups and insertions are O(1); eviction is an O(stripe) scan.
//! Capacities here are small (hundreds of analysis results per namespace)
//! and the guarded sections never run an analysis — engines compute outside
//! the lock and only then insert.

use super::policy::{AdaptConfig, AdaptiveController, CacheStats, EvictionPolicy, PolicyChoice};
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Default stripe count of a namespace (clamped to its capacity).
pub const DEFAULT_STRIPES: usize = 8;

/// Counter snapshot of one namespace: the aggregate, the per-stripe split,
/// and the live state of its eviction policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceStats {
    /// All stripes' counters, field-wise summed.
    pub totals: CacheStats,
    /// Resident entries right now.
    pub entries: usize,
    /// The configured capacity bound.
    pub capacity: usize,
    /// The configured policy.
    pub policy: EvictionPolicy,
    /// The victim-selection rule currently in force ([`EvictionPolicy::Lru`]
    /// and [`EvictionPolicy::Lfu`] resolve to themselves; `Adaptive`
    /// reports its live choice).
    pub current: PolicyChoice,
    /// How many times the adaptive controller has flipped LRU↔LFU.
    pub switches: u64,
    /// Misses on keys the current policy evicted against the other
    /// policy's judgement — the adaptive controller's regret signal.
    pub ghost_hits: u64,
    /// Per-stripe counters, in stripe order.
    pub stripes: Vec<CacheStats>,
}

impl NamespaceStats {
    /// Fraction of lookups served from the namespace.
    pub fn hit_rate(&self) -> f64 {
        self.totals.hit_rate()
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Logical timestamp of the last hit or (re)insertion.
    last_used: u64,
    /// Number of lifetime hits (a re-insert counts as a use).
    uses: u64,
}

#[derive(Debug)]
struct Stripe<V> {
    entries: HashMap<u64, Entry<V>>,
    stats: CacheStats,
    /// Logical clock, bumped on every touch.
    tick: u64,
    /// This stripe's share of the namespace capacity.
    capacity: usize,
    /// Recently evicted keys whose eviction the two base policies
    /// disagreed on, tagged with the adaptive epoch that evicted them.
    /// Insertion order rides in `ghost_order` so the list stays bounded.
    ghosts: HashMap<u64, u64>,
    ghost_order: VecDeque<u64>,
}

impl<V> Stripe<V> {
    fn remember_ghost(&mut self, key: u64, epoch: u64) {
        let cap = self.capacity.max(8);
        // Bound the *order* deque, not the map: ghost hits remove keys
        // from the map without touching the deque, so trimming by map
        // size would let the deque grow without bound on a long-lived
        // daemon.  A popped key whose map entry is already gone (it
        // ghost-hit, or was re-remembered later in the deque) is a no-op.
        while self.ghost_order.len() >= cap {
            match self.ghost_order.pop_front() {
                Some(old) => {
                    self.ghosts.remove(&old);
                }
                None => break,
            }
        }
        if self.ghosts.insert(key, epoch).is_none() {
            self.ghost_order.push_back(key);
        }
    }
}

/// A content-addressed memoization cache — one namespace of the
/// [`super::SummaryStore`], usable standalone (the policy benches drive it
/// directly).
#[derive(Debug)]
pub struct NamespaceCache<V> {
    stripes: Vec<Mutex<Stripe<V>>>,
    capacity: usize,
    policy: EvictionPolicy,
    adaptive: AdaptiveController,
}

impl<V: Clone> NamespaceCache<V> {
    /// A cache holding at most `capacity` entries across
    /// [`DEFAULT_STRIPES`] stripes (`capacity == 0` disables caching
    /// entirely: every lookup misses, every insert is dropped).
    pub fn new(capacity: usize, policy: EvictionPolicy) -> NamespaceCache<V> {
        NamespaceCache::with_stripes(capacity, policy, DEFAULT_STRIPES)
    }

    /// A cache with an explicit stripe count and the default adaptation
    /// window/threshold.
    pub fn with_stripes(
        capacity: usize,
        policy: EvictionPolicy,
        stripes: usize,
    ) -> NamespaceCache<V> {
        NamespaceCache::with_config(capacity, policy, stripes, AdaptConfig::default())
    }

    /// The fully explicit constructor: stripe count (clamped to
    /// `1..=capacity` so every stripe owns at least one slot) and the
    /// adaptive controller's window/threshold.  Stripe count 1 reproduces a
    /// single globally ordered LRU/LFU exactly — tests and policy
    /// simulations that reason about precise victim order use it.  The
    /// adapt config only matters under [`EvictionPolicy::Adaptive`]; the
    /// fixed policies never consult their controller.
    pub fn with_config(
        capacity: usize,
        policy: EvictionPolicy,
        stripes: usize,
        adapt: AdaptConfig,
    ) -> NamespaceCache<V> {
        let stripe_count = stripes.clamp(1, capacity.max(1));
        let base = capacity / stripe_count;
        let remainder = capacity % stripe_count;
        let stripes = (0..stripe_count)
            .map(|index| {
                Mutex::new(Stripe {
                    entries: HashMap::new(),
                    stats: CacheStats::default(),
                    tick: 0,
                    capacity: base + usize::from(index < remainder),
                    ghosts: HashMap::new(),
                    ghost_order: VecDeque::new(),
                })
            })
            .collect();
        NamespaceCache {
            stripes,
            capacity,
            policy,
            adaptive: AdaptiveController::new(adapt),
        }
    }

    fn stripe(&self, key: u64) -> &Mutex<Stripe<V>> {
        // Fibonacci multiplicative mix: stripe selection keys off
        // well-scrambled high bits of the fingerprint.
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.stripes[(mixed % self.stripes.len() as u64) as usize]
    }

    /// Look up a fingerprint, recording a hit or miss.
    pub fn get(&self, key: u64) -> Option<V> {
        let adaptive = self.policy == EvictionPolicy::Adaptive;
        let result = {
            let mut stripe = self.stripe(key).lock().unwrap();
            stripe.tick += 1;
            let tick = stripe.tick;
            match stripe.entries.get_mut(&key) {
                Some(entry) => {
                    entry.last_used = tick;
                    entry.uses += 1;
                    let value = entry.value.clone();
                    stripe.stats.hits += 1;
                    Some(value)
                }
                None => {
                    stripe.stats.misses += 1;
                    if adaptive {
                        if let Some(epoch) = stripe.ghosts.remove(&key) {
                            if epoch == self.adaptive.epoch() {
                                self.adaptive.note_ghost_hit();
                            }
                        }
                    }
                    None
                }
            }
        };
        if adaptive {
            self.adaptive.on_lookup();
        }
        result
    }

    /// Look up a fingerprint without recording a hit or miss and without
    /// touching recency/frequency — for internal merge reads that must not
    /// skew the reuse accounting.
    pub fn peek(&self, key: u64) -> Option<V> {
        let stripe = self.stripe(key).lock().unwrap();
        stripe.entries.get(&key).map(|e| e.value.clone())
    }

    /// Every resident fingerprint, sorted — the store's peer-inventory
    /// digest.  Stripes are snapshotted one at a time, so the set is
    /// consistent per stripe but only approximately consistent across
    /// them; gossip tolerates that (every advertised key is re-verified
    /// at fetch time anyway).
    pub fn keys(&self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.len());
        for stripe in &self.stripes {
            let stripe = stripe.lock().unwrap();
            keys.extend(stripe.entries.keys().copied());
        }
        keys.sort_unstable();
        keys
    }

    /// Insert a value, evicting per policy if the key's stripe is full.
    ///
    /// Inserting an already-present key refreshes the entry in place —
    /// value, recency, *and* frequency — without growing the cache,
    /// double-counting the insertion, or evicting anything.  (The
    /// pre-store `ContentCache` refreshed recency but not frequency, so
    /// under LFU a busily re-inserted entry looked idle and was the first
    /// victim; `reinsert_refreshes_frequency_not_just_recency` below is
    /// the regression test.)
    pub fn insert(&self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut stripe = self.stripe(key).lock().unwrap();
        self.insert_locked(&mut stripe, key, value);
    }

    /// Atomically merge a value into the cache: `merge` sees the resident
    /// value (if any) and produces the replacement, all under the key's
    /// stripe lock, so concurrent read-merge-write cycles cannot drop each
    /// other's contributions.  The walk-record namespace uses this to fold
    /// freshly recorded walks into a cone's retained set.
    pub fn merge(&self, key: u64, merge: impl FnOnce(Option<&V>) -> V) {
        if self.capacity == 0 {
            return;
        }
        let mut stripe = self.stripe(key).lock().unwrap();
        let merged = merge(stripe.entries.get(&key).map(|e| &e.value));
        self.insert_locked(&mut stripe, key, merged);
    }

    fn insert_locked(&self, stripe: &mut Stripe<V>, key: u64, value: V) {
        stripe.tick += 1;
        let tick = stripe.tick;
        if let Some(existing) = stripe.entries.get_mut(&key) {
            existing.value = value;
            existing.last_used = tick;
            existing.uses += 1;
            return;
        }
        if stripe.entries.len() >= stripe.capacity {
            let lru_victim = |stripe: &Stripe<V>| {
                stripe
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
            };
            let lfu_victim = |stripe: &Stripe<V>| {
                stripe
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| (e.uses, e.last_used))
                    .map(|(k, _)| *k)
            };
            if self.policy == EvictionPolicy::Adaptive {
                // Adaptive needs both candidates: a *contested* eviction
                // (the rules disagree) is the evidence its ghost list
                // learns from; when both rules agree there is nothing to
                // learn.
                let lru = lru_victim(stripe);
                let lfu = lfu_victim(stripe);
                let victim = match self.adaptive.choice() {
                    PolicyChoice::Lru => lru,
                    PolicyChoice::Lfu => lfu,
                };
                if let Some(victim) = victim {
                    stripe.entries.remove(&victim);
                    stripe.stats.evictions += 1;
                    if lru != lfu {
                        let epoch = self.adaptive.epoch();
                        stripe.remember_ghost(victim, epoch);
                    }
                }
            } else {
                // Fixed policies pay for exactly one victim scan.
                let victim = match self.current_choice() {
                    PolicyChoice::Lru => lru_victim(stripe),
                    PolicyChoice::Lfu => lfu_victim(stripe),
                };
                if let Some(victim) = victim {
                    stripe.entries.remove(&victim);
                    stripe.stats.evictions += 1;
                }
            }
        }
        stripe.entries.insert(
            key,
            Entry {
                value,
                last_used: tick,
                uses: 0,
            },
        );
        stripe.stats.insertions += 1;
    }

    /// Current number of resident entries.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap().entries.len())
            .sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// The adaptive controller's window/threshold (meaningful under
    /// [`EvictionPolicy::Adaptive`]; inert otherwise).
    pub fn adapt_config(&self) -> AdaptConfig {
        self.adaptive.config()
    }

    /// The victim-selection rule currently in force.
    pub fn current_choice(&self) -> PolicyChoice {
        match self.policy {
            EvictionPolicy::Lru => PolicyChoice::Lru,
            EvictionPolicy::Lfu => PolicyChoice::Lfu,
            EvictionPolicy::Adaptive => self.adaptive.choice(),
        }
    }

    /// Aggregate counters only (cheaper than [`NamespaceCache::stats`]).
    pub fn totals(&self) -> CacheStats {
        let mut totals = CacheStats::default();
        for stripe in &self.stripes {
            totals.absorb(&stripe.lock().unwrap().stats);
        }
        totals
    }

    /// Full snapshot: aggregate, per-stripe counters, and policy state.
    pub fn stats(&self) -> NamespaceStats {
        let mut totals = CacheStats::default();
        let mut entries = 0;
        let mut stripes = Vec::with_capacity(self.stripes.len());
        for stripe in &self.stripes {
            let stripe = stripe.lock().unwrap();
            totals.absorb(&stripe.stats);
            entries += stripe.entries.len();
            stripes.push(stripe.stats);
        }
        NamespaceStats {
            totals,
            entries,
            capacity: self.capacity,
            policy: self.policy,
            current: self.current_choice(),
            switches: self.adaptive.switches(),
            ghost_hits: self.adaptive.ghost_hits(),
            stripes,
        }
    }

    /// Drop every entry and ghost (the counters survive).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            let mut stripe = stripe.lock().unwrap();
            stripe.entries.clear();
            stripe.ghosts.clear();
            stripe.ghost_order.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-stripe cache: globally ordered eviction, as the pre-store
    /// `ContentCache` behaved.
    fn cache<V: Clone>(capacity: usize, policy: EvictionPolicy) -> NamespaceCache<V> {
        NamespaceCache::with_stripes(capacity, policy, 1)
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = cache(4, EvictionPolicy::Lru);
        assert_eq!(cache.get(1), None);
        cache.insert(1, "one");
        assert_eq!(cache.get(1), Some("one"));
        let stats = cache.stats();
        assert_eq!(stats.totals.hits, 1);
        assert_eq!(stats.totals.misses, 1);
        assert_eq!(stats.totals.insertions, 1);
        assert_eq!(stats.totals.evictions, 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn peek_does_not_touch_stats_or_recency() {
        let cache = cache(2, EvictionPolicy::Lru);
        cache.insert(1, 1);
        cache.insert(2, 2);
        assert_eq!(cache.peek(1), Some(1));
        assert_eq!(cache.totals().hits, 0);
        // peek(1) must not have refreshed 1: it is still the LRU victim.
        cache.insert(3, 3);
        assert_eq!(cache.peek(1), None, "1 was evicted despite the peek");
        assert_eq!(cache.peek(2), Some(2));
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let cache = cache(2, EvictionPolicy::Lru);
        cache.insert(1, 1);
        cache.insert(2, 2);
        cache.get(1); // 2 is now the least recently used
        cache.insert(3, 3);
        assert_eq!(cache.get(2), None, "2 should have been evicted");
        assert_eq!(cache.get(1), Some(1));
        assert_eq!(cache.get(3), Some(3));
        assert_eq!(cache.totals().evictions, 1);
    }

    #[test]
    fn lfu_keeps_the_popular_entry() {
        let cache = cache(2, EvictionPolicy::Lfu);
        cache.insert(1, 1);
        cache.insert(2, 2);
        cache.get(1);
        cache.get(1);
        cache.get(2); // 1 has 2 uses, 2 has 1 use
        cache.insert(3, 3);
        assert_eq!(cache.get(2), None, "least-frequently-used entry evicted");
        assert_eq!(cache.get(1), Some(1));
    }

    #[test]
    fn capacity_bound_holds_across_stripes() {
        for stripes in [1, 3, 8] {
            let cache: NamespaceCache<u64> =
                NamespaceCache::with_stripes(12, EvictionPolicy::Lru, stripes);
            for key in 0..300u64 {
                cache.insert(key, key);
            }
            assert_eq!(cache.len(), 12, "{stripes} stripes");
            assert_eq!(cache.totals().evictions, 288, "{stripes} stripes");
            let stats = cache.stats();
            assert_eq!(stats.stripes.len(), stripes.min(12));
            assert_eq!(stats.stripes.iter().map(|s| s.insertions).sum::<u64>(), 300);
        }
    }

    #[test]
    fn stripe_count_is_clamped_to_capacity() {
        let tiny: NamespaceCache<u64> = NamespaceCache::with_stripes(2, EvictionPolicy::Lru, 64);
        assert_eq!(tiny.stats().stripes.len(), 2);
        for key in 0..50u64 {
            tiny.insert(key, key);
        }
        assert!(tiny.len() <= 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: NamespaceCache<u64> = NamespaceCache::new(0, EvictionPolicy::Lru);
        cache.insert(1, 1);
        cache.merge(2, |_| 2);
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.len(), 0);
    }

    /// The satellite regression test: re-inserting a resident key must
    /// refresh its recency *and* frequency bookkeeping in place — no entry
    /// growth, no double-counted insertion, no eviction, and (the old
    /// `ContentCache` bug) no losing the entry's claim to be busy under
    /// LFU.
    #[test]
    fn reinsert_refreshes_frequency_not_just_recency() {
        let cache = cache(2, EvictionPolicy::Lfu);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.get(2); // 2 has one hit, 1 has none…
        cache.insert(1, 11);
        cache.insert(1, 12); // …but 1 was re-inserted twice: uses 2 vs 1
        assert_eq!(cache.len(), 2, "re-inserts must not grow the cache");
        let stats = cache.totals();
        assert_eq!(stats.insertions, 2, "re-inserts are not new insertions");
        assert_eq!(stats.evictions, 0);

        // Under LFU the re-inserted entry is now the *more* frequent one:
        // inserting a third key must evict 2, not 1.
        cache.insert(3, 30);
        assert_eq!(cache.peek(1), Some(12), "busy entry survives, refreshed");
        assert_eq!(cache.peek(2), None, "idle entry is the victim");
    }

    #[test]
    fn reinsert_refreshes_recency_under_lru() {
        let cache = cache(2, EvictionPolicy::Lru);
        cache.insert(1, 1);
        cache.insert(2, 2);
        cache.insert(1, 10); // 2 is now the stalest
        cache.insert(3, 3);
        assert_eq!(cache.peek(1), Some(10));
        assert_eq!(cache.peek(2), None, "2 was the LRU victim");
        assert_eq!(cache.totals().evictions, 1);
    }

    #[test]
    fn merge_sees_the_resident_value_and_replaces_it() {
        let cache: NamespaceCache<Vec<u64>> = cache(4, EvictionPolicy::Lru);
        cache.merge(7, |existing| {
            assert!(existing.is_none());
            vec![1]
        });
        cache.merge(7, |existing| {
            let mut merged = existing.cloned().unwrap();
            merged.push(2);
            merged
        });
        assert_eq!(cache.get(7), Some(vec![1, 2]));
        assert_eq!(cache.totals().insertions, 1, "second merge was a refresh");
    }

    /// The ROADMAP eviction-policy experiment, in miniature: under a
    /// Zipf-skewed request stream (a few hot programs, a long tail) a
    /// small LFU cache keeps the hot set resident and beats LRU — and the
    /// adaptive policy, starting as LRU, notices its own regret via ghost
    /// hits and switches itself to LFU.
    #[test]
    fn adaptive_converges_to_lfu_under_zipf_skew() {
        use rand::distributions::{Distribution, Zipf};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let simulate = |policy: EvictionPolicy| {
            let cache = cache(16, policy);
            let zipf = Zipf::new(256, 1.2).unwrap();
            let mut rng = StdRng::seed_from_u64(42);
            for _ in 0..20_000 {
                let key = zipf.sample(&mut rng);
                if cache.get(key).is_none() {
                    cache.insert(key, key);
                }
            }
            cache
        };

        let lru = simulate(EvictionPolicy::Lru).totals().hit_rate();
        let lfu = simulate(EvictionPolicy::Lfu).totals().hit_rate();
        assert!(
            lfu > lru,
            "LFU must win under skew: lfu={lfu:.3} lru={lru:.3}"
        );
        assert!(lfu > 0.5, "the hot set must mostly hit: {lfu:.3}");

        let adaptive = simulate(EvictionPolicy::Adaptive);
        let stats = adaptive.stats();
        assert_eq!(
            stats.current,
            PolicyChoice::Lfu,
            "adaptive must discover LFU: {stats:?}"
        );
        assert!(stats.switches >= 1);
        assert!(stats.ghost_hits >= super::super::policy::ADAPT_SWITCH_THRESHOLD);
        let rate = stats.hit_rate();
        assert!(
            rate > lru,
            "adaptive must beat pure LRU once switched: adaptive={rate:.3} lru={lru:.3}"
        );
    }

    /// Ghost bookkeeping must stay bounded on a long-lived cache: ghost
    /// *hits* remove keys from the ghost map without touching the order
    /// deque, so the deque — not the map — is what the trimming loop has
    /// to bound (regression test for an unbounded-growth bug).
    #[test]
    fn ghost_list_stays_bounded_under_sustained_ghost_hits() {
        let cache = cache(4, EvictionPolicy::Adaptive);
        // Each phase makes one key frequent, then lets a sweep of one-off
        // keys push it out by recency: at the eviction the LRU victim (the
        // frequent key) and the LFU victim (a fresh zero-use key) disagree,
        // so a ghost is recorded; the frequent key's return is a ghost hit
        // (draining the map but, before the fix, never the deque).
        for phase in 0..500u64 {
            let hot = 1_000_000 + phase;
            for _ in 0..8 {
                if cache.get(hot).is_none() {
                    cache.insert(hot, hot);
                }
            }
            for sweep in 0..6u64 {
                let key = phase * 10 + sweep;
                if cache.get(key).is_none() {
                    cache.insert(key, key);
                }
            }
            cache.get(hot);
        }
        let bound = cache.capacity().max(8);
        for stripe in &cache.stripes {
            let stripe = stripe.lock().unwrap();
            assert!(
                stripe.ghost_order.len() <= bound,
                "ghost order deque leaked: {} entries (bound {bound})",
                stripe.ghost_order.len()
            );
            assert!(stripe.ghosts.len() <= stripe.ghost_order.len());
        }
        assert!(
            cache.stats().ghost_hits > 0,
            "the stream must actually exercise ghost hits"
        );
    }

    /// A tight window/threshold adapts within a stream far too short for
    /// the defaults: a 90-lookup hot-key-plus-sweep pattern makes a
    /// (window 16, threshold 1) cache observe regret and switch (it flips
    /// to LFU once sweeps evict the hot key, and may legitimately flip
    /// back once LFU's frozen hot set starts hurting the newer phases),
    /// while the default (window 256) cache never even reaches a window
    /// boundary.
    #[test]
    fn tight_adapt_config_flips_on_a_short_stream() {
        let tight: NamespaceCache<u64> = NamespaceCache::with_config(
            4,
            EvictionPolicy::Adaptive,
            1,
            AdaptConfig {
                window: 16,
                threshold: 1,
            },
        );
        assert_eq!(tight.adapt_config().window, 16);
        let default: NamespaceCache<u64> = cache(4, EvictionPolicy::Adaptive);
        for cache in [&tight, &default] {
            for phase in 0..6u64 {
                let hot = 1_000_000 + phase;
                for _ in 0..8 {
                    if cache.get(hot).is_none() {
                        cache.insert(hot, hot);
                    }
                }
                for sweep in 0..6u64 {
                    let key = phase * 10 + sweep;
                    if cache.get(key).is_none() {
                        cache.insert(key, key);
                    }
                }
                cache.get(hot);
            }
        }
        let tight_stats = tight.stats();
        assert!(
            tight_stats.switches >= 1,
            "a 16-lookup window must adapt within 90 lookups: {tight_stats:?}"
        );
        assert!(tight_stats.ghost_hits >= 1);
        let default_stats = default.stats();
        assert_eq!(
            (default_stats.current, default_stats.switches),
            (PolicyChoice::Lru, 0),
            "90 lookups never reach a 256-lookup window boundary"
        );
    }

    /// Under a recency-friendly stream (a sliding window of keys, no
    /// stable hot set) the adaptive policy has no reason to leave LRU.
    #[test]
    fn adaptive_stays_lru_under_scans() {
        let cache = cache(16, EvictionPolicy::Adaptive);
        for round in 0..40u64 {
            for offset in 0..64u64 {
                let key = round * 8 + offset; // windows overlap heavily
                if cache.get(key).is_none() {
                    cache.insert(key, key);
                }
            }
        }
        assert_eq!(cache.current_choice(), PolicyChoice::Lru);
    }
}
