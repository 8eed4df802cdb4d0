//! The compile-once guard cache — concurrent edition.
//!
//! Guarded-expression generation (candidate merging + set cover) and
//! rewrite-fragment compilation (policy DNF construction, ∆ partition
//! registration) are the two expensive steps between a query arriving and
//! the engine running it. Both depend only on `(querier, purpose,
//! relation)` — not on the query — so [`GuardCache`] stores them per key
//! as **one artefact**: an entry holds the expression queries run under
//! and its compiled fragment as a single [`CompiledRelation`], published
//! together, so a visible entry is always complete and the middleware's
//! hot path is one hash lookup plus cheap per-query assembly. Entries are
//! invalidated precisely through
//! [`crate::service::SieveService::add_policy`]: a new policy marks
//! exactly the keys it affects stale by recording it as pending, and the
//! next read of a stale entry brings it current (paper Section 6) through
//! the service's one cold builder, under the single-flight claim
//! [`GuardCache::begin_generation`] hands out: its pending policies are
//! placed into the expression when they can join it exactly
//! ([`crate::guard::placement`]), else it is regenerated. Pending policies
//! are the one staleness rule: an out-of-band write to the backend
//! ([`crate::service::SieveService::with_backend_mut`]) or to the group
//! directory clears the cache instead of marking entries, and a
//! service's [`crate::SieveOptions`] are fixed at construction, so every
//! entry without pending policies was built from the data, membership and
//! options in force.
//!
//! **Concurrency.** The map is split into [`SHARD_COUNT`] shards, each
//! behind its own `RwLock`; a warm hit takes only its shard's *read*
//! lock (entry access goes through closures so the guard never escapes),
//! counters are relaxed atomics, and the LRU clock is a shared atomic
//! bumped on every access — so the many-reader case the middleware
//! serves ("millions of queriers, mostly warm") never serializes on a
//! single lock. Writers (publish, invalidation, eviction) take one
//! shard's write lock at a time; `add_policy`'s invalidation sweep walks
//! the shards sequentially without ever holding two locks at once. The
//! cache itself does not order a sweep or a clear against a build: the
//! service runs every build, from its read of an entry to
//! [`GuardCache::publish`], under the read locks of its policy store and
//! its backend, and every sweep or clear under the write lock of the one
//! it follows, so a publish never drops a policy swept in after the build
//! read the entry, and never lands an entry built before a clear.
//!
//! **Eviction.** Each shard holds at most `GUARD_CACHE_CAP /
//! SHARD_COUNT` entries; past the bound the shard evicts its
//! least-recently-*used* entries (reads count — the LRU stamp is bumped
//! on every cache hit, not just on insertion), so a hot key survives
//! unbounded churn of one-shot keys. Evicted entries drop their compiled
//! fragments, whose ∆ partitions are freed automatically by their RAII
//! [`crate::delta::PartitionHandle`]s once no in-flight query pins them.

use crate::guard::CarriedConditions;
use crate::policy::{PolicyId, UserId};
use crate::rewrite::CompiledRelation;
use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache key: the triple a guarded expression is generated for.
pub type GuardCacheKey = (UserId, String, String);

/// Observability counters (monotonic over the cache's lifetime).
///
/// The counters are kept consistent with a ground-truth trace (asserted in
/// `tests/guard_cache.rs`): every expression-level lookup is exactly one
/// of `hits`, `misses` (no entry existed — cold, or previously evicted),
/// or `regenerations` (an outdated entry was replaced in place, by a
/// generation or by placing its pending policies — the latter also
/// counted in `extensions`, so `generations()` still counts every
/// replaced expression whichever way it was built). Entries
/// dropped by LRU eviction are counted in `evictions`, so generated-but-
/// no-longer-cached work is visible instead of silently skewing the
/// hit/miss ratio. Under concurrent drivers the counters are exact in
/// aggregate (atomic increments) but a snapshot taken mid-operation may
/// catch a lookup between its two bumps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardCacheStats {
    /// Lookups that found a fresh guarded expression.
    pub hits: u64,
    /// Lookups that generated an expression because no entry existed:
    /// cold, evicted, or cleared by an out-of-band write.
    pub misses: u64,
    /// Lookups that regenerated an existing outdated entry.
    pub regenerations: u64,
    /// The part of `regenerations` that placed the entry's pending
    /// policies into its expression instead of running Algorithm 1.
    pub extensions: u64,
    /// Entries marked outdated by policy insertions.
    pub invalidations: u64,
    /// Entries dropped by LRU eviction (their next lookup is a miss even
    /// though they were generated before).
    pub evictions: u64,
    /// Rewrite fragments compiled (the work warm queries skip). Every
    /// generation or placement compiles one, so this is `generations()`.
    pub fragment_builds: u64,
    /// Lookups served by an already-compiled fragment: `hits`.
    pub fragment_hits: u64,
    /// Generations avoided by single-flight coalescing: lookups that
    /// found the key mid-generation by another thread, waited, and reused
    /// the freshly published entry instead of generating their own.
    pub coalesced: u64,
}

impl GuardCacheStats {
    /// Total guarded-expression generations (`misses + regenerations`) —
    /// must equal the middleware's `generations` counter.
    pub fn generations(&self) -> u64 {
        self.misses + self.regenerations
    }

    /// Total expression-level lookups (`hits + misses + regenerations`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.regenerations
    }
}

/// One cache entry: the expression queries run under with its compiled
/// fragment, and the policies that arrived since it was built.
///
/// `compiled.expr` is always what Algorithm 1 returns over the policies
/// it covers, whether it was generated or placed; `carried` is what a
/// placement checks a new policy against, kept as fingerprints rather
/// than the conditions themselves so that extending it per grant is
/// cheap.
#[derive(Debug)]
pub struct CachedGuard {
    /// The guard conditions `compiled.expr`'s policies carry, for
    /// placement; `None` when nothing can be placed into it (an
    /// owner-only selection, or a policy with no guardable condition).
    pub carried: Option<Arc<CarriedConditions>>,
    /// The expression as generated or placed, with its compiled rewrite
    /// fragment — one artefact, replaced whole.
    pub compiled: CompiledRelation,
    /// Policies inserted since the entry was built that apply to its key;
    /// the entry is stale while this is non-empty.
    pub pending: Vec<PolicyId>,
    /// LRU stamp: the cache's access clock at the entry's last touch
    /// (insert, read or write). Atomic so warm hits can bump it under the
    /// shard's *read* lock.
    last_used: AtomicU64,
}

/// Number of shards. Sixteen read-write locks are plenty for the core
/// counts this tree targets while keeping the per-shard LRU scans short.
pub const SHARD_COUNT: usize = 16;

/// Bound on cached entries across all shards. Each entry pins its
/// fragment's ∆ partitions in the registry, so the cache must stay
/// bounded even with millions of distinct queriers. The bound is enforced
/// per shard (`GUARD_CACHE_CAP / SHARD_COUNT` each) by LRU eviction.
pub const GUARD_CACHE_CAP: usize = 4096;

const SHARD_CAP: usize = GUARD_CACHE_CAP / SHARD_COUNT;

#[derive(Debug, Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    regenerations: AtomicU64,
    extensions: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
}

type Shard = HashMap<GuardCacheKey, CachedGuard>;

/// What [`GuardCache::publish`] publishes: the key, its expression with the compiled rewrite fragment,
/// and the conditions the expression's policies carry (see
/// [`CachedGuard`]).
pub type CompiledEntry = (GuardCacheKey, CompiledRelation, Option<Arc<CarriedConditions>>);

/// The cache proper: sharded keyed entries plus counters.
#[derive(Debug)]
pub struct GuardCache {
    shards: Vec<RwLock<Shard>>,
    /// Monotonic access clock feeding the LRU stamps.
    clock: AtomicU64,
    stats: StatCells,
    /// Keys with a guard generation in flight (single-flight registry).
    /// A std mutex because generation waiters park on `inflight_cv`,
    /// which needs the std lock type.
    inflight: std::sync::Mutex<std::collections::HashSet<GuardCacheKey>>,
    inflight_cv: std::sync::Condvar,
}

impl Default for GuardCache {
    fn default() -> Self {
        GuardCache {
            shards: (0..SHARD_COUNT).map(|_| RwLock::new(HashMap::new())).collect(),
            clock: AtomicU64::new(0),
            stats: StatCells::default(),
            inflight: std::sync::Mutex::new(std::collections::HashSet::new()),
            inflight_cv: std::sync::Condvar::new(),
        }
    }
}

/// Exclusive claim on generating one guard key, handed out by
/// [`GuardCache::begin_generation`]. Dropping the ticket (normally, on
/// error, or on unwind) releases the claim and wakes every waiter.
pub struct GenerationTicket<'a> {
    cache: &'a GuardCache,
    key: GuardCacheKey,
}

impl Drop for GenerationTicket<'_> {
    fn drop(&mut self) {
        let mut set = self
            .cache
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set.remove(&self.key);
        self.cache.inflight_cv.notify_all();
    }
}

impl GuardCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard_index(key: &GuardCacheKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARD_COUNT
    }

    fn shard_of(&self, key: &GuardCacheKey) -> &RwLock<Shard> {
        &self.shards[Self::shard_index(key)]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Number of cached entries (sums the shards; approximate while
    /// writers are active).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True iff no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Counters snapshot.
    pub fn stats(&self) -> GuardCacheStats {
        let hits = self.stats.hits.load(Ordering::Relaxed);
        let misses = self.stats.misses.load(Ordering::Relaxed);
        let regenerations = self.stats.regenerations.load(Ordering::Relaxed);
        GuardCacheStats {
            hits,
            misses,
            regenerations,
            extensions: self.stats.extensions.load(Ordering::Relaxed),
            invalidations: self.stats.invalidations.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            fragment_builds: misses + regenerations,
            fragment_hits: hits,
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Claim the exclusive right to generate `key`, blocking while another
    /// thread holds the claim. This is the **single-flight** guard against
    /// the cold-key stampede: N sessions missing the same `(querier,
    /// purpose, relation)` serialize here, the first generates, and the
    /// rest — woken when its [`GenerationTicket`] drops — re-check the
    /// cache and find the published entry instead of generating N-1
    /// duplicates. Callers must re-validate need-to-generate after the
    /// claim is granted.
    pub fn begin_generation(&self, key: &GuardCacheKey) -> GenerationTicket<'_> {
        let mut set = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        while set.contains(key) {
            set = self
                .inflight_cv
                .wait(set)
                .unwrap_or_else(|e| e.into_inner());
        }
        set.insert(key.clone());
        GenerationTicket {
            cache: self,
            key: key.clone(),
        }
    }

    /// Count a generation avoided by single-flight coalescing (the caller
    /// waited on [`GuardCache::begin_generation`] and found the key fresh).
    pub fn record_coalesced(&self) {
        self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Run `f` over the entry for `key` under the shard's **read** lock
    /// (the warm-path primitive: concurrent readers of different — or the
    /// same — keys proceed in parallel). Touches the LRU stamp.
    pub fn read<R>(&self, key: &GuardCacheKey, f: impl FnOnce(&CachedGuard) -> R) -> Option<R> {
        let shard = self.shard_of(key).read();
        let entry = shard.get(key)?;
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        Some(f(entry))
    }

    /// Publish (replacing) a freshly generated or placed (`placed`) and
    /// compiled entry. It counts as a miss if the key had no entry and as a
    /// regeneration if it replaced one; a placement also counts as an
    /// extension. Past its cap, the shard then drops its least-recently-used
    /// entry, never this one: it was stamped last. Displaced fragments free
    /// their ∆ partitions via their RAII handles.
    ///
    /// The caller guarantees no policy was swept into the entry it replaces
    /// since it read it, and no clear ran since it read what it built the
    /// entry from: the service publishes under the read locks of its policy
    /// store and its backend, and every sweep or clear runs under one of
    /// their write locks.
    pub fn publish(&self, (key, compiled, carried): CompiledEntry, placed: bool) {
        let mut shard = self.shard_of(&key).write();
        let entry = CachedGuard {
            carried,
            compiled,
            pending: Vec::new(),
            last_used: AtomicU64::new(self.tick()),
        };
        let counter = match shard.insert(key, entry) {
            Some(_) => &self.stats.regenerations,
            None => &self.stats.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if placed {
            self.stats.extensions.fetch_add(1, Ordering::Relaxed);
        }
        if shard.len() > SHARD_CAP {
            let victim = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                shard.remove(&k);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Count a hit on the guarded-expression level.
    pub fn record_hit(&self) {
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark every entry selected by `affects` stale by recording `policy`
    /// as pending on it. Walks the shards one write lock at a time.
    /// Returns the number of entries invalidated.
    pub fn invalidate_where(
        &self,
        policy: PolicyId,
        mut affects: impl FnMut(&GuardCacheKey) -> bool,
    ) -> usize {
        let mut n = 0;
        for s in &self.shards {
            let mut shard = s.write();
            for (key, entry) in shard.iter_mut() {
                if affects(key) {
                    entry.pending.push(policy);
                    n += 1;
                }
            }
        }
        self.stats.invalidations.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Drop every entry. Fragments' ∆ partitions are freed by their RAII
    /// handles as the entries drop (deferred past any in-flight pins).
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardedExpression;

    fn ge(relation: &str) -> Arc<GuardedExpression> {
        Arc::new(GuardedExpression {
            relation: relation.to_string(),
            querier: 1,
            purpose: "Any".into(),
            guards: vec![],
        })
    }

    fn key(querier: i64, relation: &str) -> GuardCacheKey {
        (querier, "Any".to_string(), relation.to_string())
    }

    fn compiled(relation: &str) -> CompiledRelation {
        CompiledRelation {
            expr: ge(relation),
            fragment: Arc::default(),
        }
    }

    fn item(querier: i64, relation: &str) -> CompiledEntry {
        (key(querier, relation), compiled(relation), None)
    }

    #[test]
    fn insert_and_hit_counting() {
        let c = GuardCache::new();
        c.publish(item(1, "r"), false);
        assert_eq!(c.stats().misses, 1);
        assert!(c.read(&key(1, "r"), |_| ()).is_some());
        c.record_hit();
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn invalidate_where_marks_matching_entries() {
        let c = GuardCache::new();
        c.publish(item(1, "r"), false);
        c.publish(item(2, "r"), false);
        c.publish(item(1, "s"), false);
        let n = c.invalidate_where(42, |(_, _, rel)| rel == "r");
        assert_eq!(n, 2);
        assert_eq!(c.read(&key(1, "r"), |e| e.pending.clone()).unwrap(), vec![42]);
        assert_eq!(c.read(&key(2, "r"), |e| e.pending.clone()).unwrap(), vec![42]);
        assert!(c.read(&key(1, "s"), |e| e.pending.is_empty()).unwrap());
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn cap_bounds_entries_via_lru_eviction() {
        let c = GuardCache::new();
        // Saturate well past the global cap: the cache must stay bounded,
        // shed the overflow as evictions, and keep every *recently used*
        // key resident.
        for i in 0..(GUARD_CACHE_CAP as i64 * 2) {
            c.publish(item(i, "r"), false);
        }
        assert!(c.len() <= GUARD_CACHE_CAP, "len {} > cap", c.len());
        let s = c.stats();
        assert_eq!(s.misses, GUARD_CACHE_CAP as u64 * 2);
        assert_eq!(s.evictions as usize, GUARD_CACHE_CAP * 2 - c.len());
    }

    #[test]
    fn lru_on_access_protects_hot_keys_from_churn() {
        let c = GuardCache::new();
        let hot = key(-1, "hot");
        c.publish(item(-1, "hot"), false);
        // Churn an order of magnitude more one-shot keys than the cache
        // holds, touching the hot key between insertions. FIFO or
        // LRU-on-*insert* would rotate it out; LRU-on-access must not.
        for i in 0..(GUARD_CACHE_CAP as i64 * 4) {
            c.publish(item(i, "churn"), false);
            assert!(
                c.read(&hot, |_| ()).is_some(),
                "hot key evicted after {i} churn insertions"
            );
        }
        assert!(c.len() <= GUARD_CACHE_CAP);
    }

    #[test]
    fn regeneration_of_existing_key_is_not_a_miss() {
        let c = GuardCache::new();
        c.publish(item(1, "r"), false);
        c.invalidate_where(9, |_| true);
        c.publish(item(1, "r"), false);
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.regenerations, 1);
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.generations(), 2);
        // A placement is a regeneration that also counts as an extension,
        // and publishes a current entry.
        c.invalidate_where(10, |_| true);
        c.publish(item(1, "r"), true);
        assert!(c.read(&key(1, "r"), |e| e.pending.is_empty()).unwrap());
        let s = c.stats();
        assert_eq!((s.misses, s.regenerations, s.extensions), (1, 2, 1));
        assert_eq!((s.generations(), s.fragment_builds), (3, 3));
    }

    #[test]
    fn concurrent_readers_and_writers_keep_counters_consistent() {
        let c = Arc::new(GuardCache::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..200i64 {
                        let k = key(t * 1000 + i, "r");
                        c.publish((k.clone(), compiled("r"), None), false);
                        assert!(c.read(&k, |_| ()).is_some());
                        c.record_hit();
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.misses, 800);
        assert_eq!(s.hits, 800);
        assert_eq!(c.len(), 800);
    }
}
