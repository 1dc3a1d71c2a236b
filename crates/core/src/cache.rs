//! Pattern-keyed frontier cache.
//!
//! Placement produces enormous numbers of congruent nets: the same pin
//! pattern at different offsets, scales, rotations and reflections. The
//! lookup-table query already canonicalizes away translation and the
//! dihedral symmetries, and both objectives are invariant under those
//! transforms, so the *winning topology ids* of a query depend only on
//! the canonical pattern key and the canonical gap vector. This module
//! caches exactly that: `(key, gaps) → winning ids`. The ids are indices
//! into the lookup table's per-degree CSR topology pool (stable for the
//! lifetime of a loaded table, and across save/load since v3 serializes
//! the arenas verbatim). On a hit the router re-scores just those pool
//! rows by dot product and materializes them, skipping the dominated
//! candidates entirely — and because the v3 score kernel's tie-breaking
//! is a pure function of `(key, gaps)`, the resulting frontier is
//! bit-identical to an uncached query.
//!
//! # Parallel service
//!
//! The cache is sharded so the read-mostly steady state scales across
//! batch-routing threads: hits take a shared lock on one shard, and
//! concurrent misses on different shards never contend. Three pieces of
//! contention engineering (DESIGN.md §14):
//!
//! * **Shard count auto-sizes to the machine** — `shards: 0` (the
//!   default) resolves to a power of two ≥ 4× `available_parallelism`,
//!   so the probability of two concurrent threads colliding on one
//!   shard's lock stays low no matter the core count; an explicit value
//!   is honored verbatim (tests pin 1/2/64).
//! * **Every shard is cache-line-padded** (`pad::CachePadded`)
//!   and carries its *own* hit/miss/contention counters, so one shard's
//!   counter traffic never invalidates another shard's line — the
//!   global-counter ping-pong the old layout paid on every probe from
//!   every core is gone. The adaptive-bypass state lives on its own
//!   padded line too: it is read on every route and written only at
//!   bypass and re-probe boundaries.
//! * **Contention is measured, not guessed** — lock acquisitions go
//!   through `try_read`/`try_write` first and count a failed attempt
//!   before falling back to the blocking path. The per-shard counters
//!   surface through [`ShardStats`], the aggregate through
//!   [`CacheStats`] and [`crate::ResilienceReport`], and the CLI's
//!   `cache:` line prints them.
//!
//! Each shard is bounded and evicts in FIFO order — congruence classes
//! in real placements are heavily skewed, so even a crude policy keeps
//! the hot classes resident.
//!
//! # Table epochs
//!
//! Cached values are winner ids **into a specific loaded table**: a hot
//! table reload (DESIGN.md §17) installs a new id space, so every entry
//! is stamped with the table epoch it was computed under. [`FrontierCache::get`]
//! treats an entry from another epoch as a miss, and
//! [`FrontierCache::insert_at`] drops inserts whose producing epoch is
//! no longer current — closing the race where a route that started on
//! the old table finishes after the swap and would otherwise poison the
//! cache with ids from a retired id space. [`FrontierCache::set_epoch`]
//! is the whole invalidation protocol: one atomic store, no sweep, no
//! lock on any shard.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

use crate::pad::CachePadded;

/// How many misses a shard absorbs between adaptive-bypass judgments
/// once the warmup window has closed.
///
/// Judging sums per-shard counters (O(shards) atomic loads). During
/// warmup it runs on every miss — a one-time cost bounded by the warmup
/// window, which keeps the bypass decision exact at the boundary —
/// and afterwards only on this stride, so late retirement (a workload
/// whose reuse decays) is still detected without paying the sum on
/// every miss forever.
const JUDGE_STRIDE: u64 = 64;

/// Cache key: canonical pattern key plus canonical gap vector.
///
/// The pattern key encodes the degree, so keys never collide across
/// degrees even though gap-vector lengths differ.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pattern: u64,
    gaps: Box<[i64]>,
}

impl CacheKey {
    /// Builds a key from raw components. Prefer [`CacheKey::from_class`];
    /// this exists for tests and tools that synthesize keys directly.
    pub fn new(pattern: u64, gaps: &[i64]) -> Self {
        CacheKey {
            pattern,
            gaps: gaps.into(),
        }
    }

    /// The cache key of a classified net — the `(canonical pattern key,
    /// canonical gap vector)` pair that [`patlabor_geom::NetClass`]
    /// guarantees is constant across a congruence class. Using the class
    /// here and in the lookup table means the cache and the table can
    /// never disagree about which nets are congruent.
    pub fn from_class(class: &patlabor_geom::NetClass) -> Self {
        CacheKey::new(class.canonical_key(), class.canonical_gaps())
    }
}

/// Configuration for the frontier cache (see [`FrontierCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch. Disabled, the router always evaluates every
    /// candidate topology; results are identical either way.
    pub enabled: bool,
    /// Total entry budget, split evenly across shards. Each entry is a
    /// short id list, so the default (64 Ki entries) costs a few MiB.
    pub capacity: usize,
    /// Number of independent shards. `0` (the default) auto-sizes to a
    /// power of two ≥ 4× the machine's `available_parallelism`, clamped
    /// to `[16, 512]` — enough shards that concurrent threads rarely
    /// collide on one lock, few enough that the padded per-shard state
    /// stays cheap. An explicit non-zero value is honored verbatim.
    pub shards: usize,
    /// Adaptive-bypass warmup window: after this many probes the hit
    /// rate is judged against [`CacheConfig::bypass_threshold_permille`]
    /// and the cache stops probing if it is not earning its keep (probe +
    /// insert overhead is a measured ~6% net loss on workloads with no
    /// congruence reuse). `0` disables the bypass — the cache then probes
    /// forever, as before.
    pub bypass_warmup: u64,
    /// Minimum hit rate, in permille (‰), the cache must sustain once the
    /// warmup window has elapsed. Expressed as an integer so the config
    /// stays `Eq`/`Hash`-able; `100` means 10%.
    pub bypass_threshold_permille: u16,
    /// How many probes a retired cache swallows before it re-arms for a
    /// fresh observation window. Workloads change phase — a cold
    /// miss-heavy warmup can be followed by a high-reuse ECO phase — so
    /// a bypass that never re-probes runs cache-off forever. After this
    /// many skipped probes the cache re-arms, judges the hit rate over
    /// the next [`CacheConfig::bypass_warmup`] probes *in isolation*
    /// (history before the window does not count against it), and either
    /// stays armed or retires again for another period. `0` restores the
    /// old sticky behavior: once bypassed, never probed again.
    pub bypass_reprobe_period: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            capacity: 64 * 1024,
            shards: 0,
            bypass_warmup: 1024,
            bypass_threshold_permille: 100,
            bypass_reprobe_period: 4096,
        }
    }
}

impl CacheConfig {
    /// A configuration with the cache switched off.
    pub fn disabled() -> Self {
        CacheConfig {
            enabled: false,
            ..CacheConfig::default()
        }
    }

    /// The shard count this configuration resolves to on this machine
    /// (the auto-sizing rule above for `shards: 0`, the explicit value
    /// otherwise, clamped to at least 1).
    pub fn resolved_shards(&self) -> usize {
        match self.shards {
            0 => {
                let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
                (threads * 4).next_power_of_two().clamp(16, 512)
            }
            n => n,
        }
    }
}

/// Hit/miss/contention counters and current occupancy, from
/// [`crate::Engine::cache_stats`] (aggregated over shards; the
/// per-shard view is [`ShardStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a full query.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Shards the cache resolved to (see [`CacheConfig::shards`]).
    pub shards: usize,
    /// Read-lock acquisitions that found the shard lock held and had to
    /// block (failed `try_read`). The scaling bench's contention signal:
    /// zero under a well-sized shard count.
    pub contended_reads: u64,
    /// Write-lock acquisitions that found the shard lock held and had to
    /// block (failed `try_write`).
    pub contended_writes: u64,
    /// Whether the adaptive bypass has retired the cache: the hit rate
    /// stayed below the configured threshold through the warmup window,
    /// so the router stopped probing (and inserting) entirely.
    pub bypassed: bool,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Contended lock acquisitions (read + write) as a fraction of all
    /// lookups — the headline contention metric of the scaling bench.
    pub fn contention_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.contended_reads + self.contended_writes) as f64 / total as f64
        }
    }
}

/// One shard's counters and occupancy ([`FrontierCache::shard_stats`]):
/// the unaggregated view, so a hot shard (skewed key distribution) or a
/// contended one shows up instead of averaging away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Lookups this shard answered.
    pub hits: u64,
    /// Lookups that missed in this shard.
    pub misses: u64,
    /// Entries resident in this shard.
    pub entries: usize,
    /// Failed `try_read` acquisitions on this shard's lock.
    pub contended_reads: u64,
    /// Failed `try_write` acquisitions on this shard's lock.
    pub contended_writes: u64,
}

#[derive(Debug, Default)]
struct Shard {
    /// Values are `(table_epoch, winner ids)`: the ids only make sense
    /// against the table generation they were scored under.
    map: HashMap<CacheKey, (u64, Arc<[u32]>)>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<CacheKey>,
}

/// One shard's complete state: the lock plus this shard's own counters,
/// padded as a unit so no two shards share a cache-line pair and counter
/// updates stay local to the shard's line.
#[derive(Debug, Default)]
struct ShardState {
    lock: RwLock<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    contended_reads: AtomicU64,
    contended_writes: AtomicU64,
}

impl ShardState {
    /// Shared lock, counting a failed fast path as contention.
    fn read(&self) -> RwLockReadGuard<'_, Shard> {
        match self.lock.try_read() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contended_reads.fetch_add(1, Ordering::Relaxed);
                self.lock.read().expect("cache lock poisoned")
            }
            Err(TryLockError::Poisoned(e)) => panic!("cache lock poisoned: {e}"),
        }
    }

    /// Exclusive lock, counting a failed fast path as contention.
    fn write(&self) -> RwLockWriteGuard<'_, Shard> {
        match self.lock.try_write() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contended_writes.fetch_add(1, Ordering::Relaxed);
                self.lock.write().expect("cache lock poisoned")
            }
            Err(TryLockError::Poisoned(e)) => panic!("cache lock poisoned: {e}"),
        }
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.read().map.len(),
            contended_reads: self.contended_reads.load(Ordering::Relaxed),
            contended_writes: self.contended_writes.load(Ordering::Relaxed),
        }
    }
}

/// A bounded, sharded map from canonical net classes to winning topology
/// ids. See the module docs for the correctness argument and the
/// contention engineering.
#[derive(Debug)]
pub struct FrontierCache {
    shards: Box<[CachePadded<ShardState>]>,
    per_shard_cap: usize,
    bypass_warmup: u64,
    bypass_threshold_permille: u64,
    bypass_reprobe_period: u64,
    /// On its own padded line: read on every route, written rarely (at
    /// re-probe boundaries), and must not ride any shard's counter line.
    bypass: CachePadded<BypassState>,
    /// The current table epoch (see the module docs). Read on every
    /// probe and insert, written only by a hot reload, so it rides its
    /// own padded line rather than any shard's counters.
    epoch: CachePadded<AtomicU64>,
}

/// The adaptive bypass's state, padded as a unit.
#[derive(Debug, Default)]
struct BypassState {
    /// The decision: true while the cache is retired.
    bypassed: AtomicBool,
    /// Whether the current observation window has closed (switches
    /// judging from every-miss to strided).
    warmed: AtomicBool,
    /// Probes skipped while bypassed; crossing a multiple of the
    /// re-probe period re-arms the cache. Monotone — never reset — so
    /// exactly one thread observes each boundary.
    skipped: AtomicU64,
    /// Baseline subtracted from the cumulative hit counter: judgments
    /// are about the current observation window, not all history, so a
    /// cold warmup phase cannot condemn a later high-reuse phase.
    base_hits: AtomicU64,
    /// Baseline subtracted from the cumulative probe total.
    base_total: AtomicU64,
}

impl FrontierCache {
    /// Creates an empty cache; `config.enabled` is the caller's concern.
    pub fn new(config: &CacheConfig) -> Self {
        let shards = config.resolved_shards().max(1);
        FrontierCache {
            shards: (0..shards).map(|_| CachePadded::default()).collect(),
            per_shard_cap: (config.capacity / shards).max(1),
            bypass_warmup: config.bypass_warmup,
            bypass_threshold_permille: config.bypass_threshold_permille as u64,
            bypass_reprobe_period: config.bypass_reprobe_period,
            bypass: CachePadded::default(),
            epoch: CachePadded::default(),
        }
    }

    /// The table epoch entries are currently validated against.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Installs a new table epoch, logically invalidating every resident
    /// entry at once: stamped values from older epochs read as misses
    /// and late inserts from older epochs are dropped. Called by
    /// [`crate::Engine::reload_table`] after the table swap commits.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Release);
    }

    /// The shard count this cache resolved to.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether the adaptive bypass is currently tripped. The insert path
    /// consults this directly; the probe path goes through
    /// [`FrontierCache::skip_probe`], which also drives the periodic
    /// re-arm. With `bypass_reprobe_period == 0` the flag is sticky as
    /// before; otherwise it clears at each re-probe boundary and is
    /// re-set only if the fresh observation window fails the threshold.
    pub fn bypassed(&self) -> bool {
        self.bypass.bypassed.load(Ordering::Relaxed)
    }

    /// The router's probe gate: `true` means "do not probe this route".
    ///
    /// While the bypass is tripped, skipped probes are counted; every
    /// `bypass_reprobe_period`-th one re-arms the cache and opens a fresh
    /// observation window (the cumulative counters at that instant become
    /// the window baseline, so the judgment that follows sees only the
    /// window's own hit rate). A workload that flipped from miss-heavy to
    /// high-reuse therefore gets its cache back one period later, while a
    /// genuinely reuse-free workload pays one warmup window of probe
    /// overhead per period and retires again.
    pub fn skip_probe(&self) -> bool {
        if !self.bypassed() {
            return false;
        }
        if self.bypass_reprobe_period == 0 {
            return true; // sticky legacy behavior
        }
        let skipped = self.bypass.skipped.fetch_add(1, Ordering::Relaxed) + 1;
        if !skipped.is_multiple_of(self.bypass_reprobe_period) {
            return true;
        }
        // This thread crossed the period boundary (the counter is
        // monotone, so exactly one thread sees each multiple): open a
        // fresh observation window and re-arm.
        let (mut hits, mut misses) = (0u64, 0u64);
        for shard in self.shards.iter() {
            hits += shard.hits.load(Ordering::Relaxed);
            misses += shard.misses.load(Ordering::Relaxed);
        }
        self.bypass.base_hits.store(hits, Ordering::Relaxed);
        self.bypass.base_total.store(hits + misses, Ordering::Relaxed);
        self.bypass.warmed.store(false, Ordering::Relaxed);
        self.bypass.bypassed.store(false, Ordering::Relaxed);
        false
    }

    /// Re-judges the hit rate after a miss. Only misses can push the rate
    /// below the floor, so this is not called on hits. The tally sums
    /// per-shard counters, so it runs on every miss only until the
    /// warmup window closes (keeping the decision exact at the boundary)
    /// and on the [`JUDGE_STRIDE`] afterwards. Counter reads are relaxed:
    /// an off-by-a-few probe count merely shifts the decision by a few
    /// nets.
    fn judge_hit_rate(&self, shard_misses: u64) {
        if self.bypass_warmup == 0 || self.bypassed() {
            return;
        }
        if self.bypass.warmed.load(Ordering::Relaxed)
            && !shard_misses.is_multiple_of(JUDGE_STRIDE)
        {
            return;
        }
        let (mut cum_hits, mut cum_misses) = (0u64, 0u64);
        for shard in self.shards.iter() {
            cum_hits += shard.hits.load(Ordering::Relaxed);
            cum_misses += shard.misses.load(Ordering::Relaxed);
        }
        // Judge the current observation window, not all history: the
        // baselines are zero until the first re-probe re-arm snapshots
        // the counters, so the initial warmup behaves as before.
        let hits = cum_hits.saturating_sub(self.bypass.base_hits.load(Ordering::Relaxed));
        let total = (cum_hits + cum_misses)
            .saturating_sub(self.bypass.base_total.load(Ordering::Relaxed));
        if total >= self.bypass_warmup {
            self.bypass.warmed.store(true, Ordering::Relaxed);
            if hits * 1000 < self.bypass_threshold_permille * total {
                self.bypass.bypassed.store(true, Ordering::Relaxed);
            }
        }
    }

    fn shard(&self, key: &CacheKey) -> &ShardState {
        // Multiply between folds (not just XOR) so `pattern == gaps[0]`
        // cannot cancel itself out, then avalanche: the shard index is
        // the hash's LOW bits, and a plain FNV-style multiply only pushes
        // entropy upward — without the final mixdown, structured keys
        // collapse onto a handful of shards (observed: every hot key of
        // one parity landing in a single shard).
        let mut h = key.pattern ^ (key.gaps.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &g in key.gaps.iter() {
            h = (h.wrapping_mul(0x100_0000_01b3)) ^ (g as u64);
        }
        // splitmix64 finalizer: folds the high bits back down.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        let n = self.shards.len();
        // Auto-sized counts are powers of two (mask); explicit ones may
        // not be (modulo).
        let index = if n.is_power_of_two() {
            (h as usize) & (n - 1)
        } else {
            (h % n as u64) as usize
        };
        &self.shards[index]
    }

    /// Looks up a winning-id list, bumping the owning shard's hit/miss
    /// counters. An entry stamped with a different table epoch is a
    /// miss: its ids index a retired table's candidate pool.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<[u32]>> {
        let epoch = self.epoch();
        let state = self.shard(key);
        let shard = state.read();
        match shard.map.get(key) {
            Some((stamp, ids)) if *stamp == epoch => {
                let ids = Arc::clone(ids);
                drop(shard);
                state.hits.fetch_add(1, Ordering::Relaxed);
                Some(ids)
            }
            _ => {
                drop(shard);
                let misses = state.misses.fetch_add(1, Ordering::Relaxed) + 1;
                self.judge_hit_rate(misses);
                None
            }
        }
    }

    /// Inserts a winning-id list at the current table epoch, evicting
    /// the oldest entry of the target shard when it is full.
    ///
    /// A concurrent duplicate insert (two threads missing on the same key
    /// at once) overwrites with an equal value and is harmless.
    pub fn insert(&self, key: CacheKey, ids: Arc<[u32]>) {
        self.insert_at(key, ids, self.epoch());
    }

    /// [`FrontierCache::insert`] for a producer that snapshotted the
    /// table at `epoch`: when a reload has moved the cache past that
    /// epoch the insert is dropped — a route that started on the old
    /// table must not publish old-id-space winners into the new epoch.
    pub fn insert_at(&self, key: CacheKey, ids: Arc<[u32]>, epoch: u64) {
        if epoch != self.epoch() {
            return;
        }
        let mut shard = self.shard(&key).write();
        if shard.map.insert(key.clone(), (epoch, ids)).is_none() {
            if shard.map.len() > self.per_shard_cap {
                if let Some(oldest) = shard.order.pop_front() {
                    shard.map.remove(&oldest);
                }
            }
            shard.order.push_back(key);
        }
    }

    /// Asserts the structural invariants of every shard: `map` and
    /// `order` track the same key set (same length, no duplicate order
    /// entries, every queued key resident) and occupancy never exceeds
    /// the per-shard capacity. Test-only; concurrency tests call it after
    /// hammering the cache from many threads.
    #[cfg(test)]
    fn assert_shards_consistent(&self) {
        for (i, state) in self.shards.iter().enumerate() {
            let shard = state.read();
            assert!(
                shard.map.len() <= self.per_shard_cap,
                "shard {i}: occupancy {} exceeds capacity {}",
                shard.map.len(),
                self.per_shard_cap
            );
            assert_eq!(
                shard.map.len(),
                shard.order.len(),
                "shard {i}: map and eviction queue disagree on size"
            );
            let queued: std::collections::HashSet<&CacheKey> = shard.order.iter().collect();
            assert_eq!(
                queued.len(),
                shard.order.len(),
                "shard {i}: eviction queue holds duplicate keys"
            );
            for key in &shard.order {
                assert!(
                    shard.map.contains_key(key),
                    "shard {i}: queued key missing from map"
                );
            }
        }
    }

    /// Aggregated counters and occupancy (per-shard sums).
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            shards: self.shards.len(),
            bypassed: self.bypassed(),
            ..CacheStats::default()
        };
        for shard in self.shards.iter() {
            let s = shard.stats();
            stats.hits += s.hits;
            stats.misses += s.misses;
            stats.entries += s.entries;
            stats.contended_reads += s.contended_reads;
            stats.contended_writes += s.contended_writes;
        }
        stats
    }

    /// The unaggregated per-shard counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: u64, gaps: &[i64]) -> CacheKey {
        CacheKey::new(p, gaps)
    }

    /// Regression for the shard-hash collapse: keys whose first gap
    /// equals the pattern (common for canonical classes) must still
    /// spread across shards. The pre-avalanche hash XOR-cancelled
    /// `pattern ^ ... ^ gaps[0]` and masked the low bits of an FNV
    /// multiply, landing every same-parity key in one shard.
    #[test]
    fn structured_keys_spread_across_shards() {
        let cache = FrontierCache::new(&CacheConfig {
            capacity: 4096,
            shards: 64,
            ..CacheConfig::default()
        });
        for i in 0..64u64 {
            for parity in 0..2i64 {
                cache.insert(key(i, &[i as i64, parity]), vec![0].into());
            }
        }
        let occupied = cache
            .shard_stats()
            .iter()
            .filter(|s| s.entries > 0)
            .count();
        // 128 structured keys over 64 shards: demand a real spread, not
        // the 1-2 shards the cancelling hash produced.
        assert!(occupied >= 32, "only {occupied}/64 shards occupied");
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let cache = FrontierCache::new(&CacheConfig::default());
        let k = key(42, &[1, 2, 3]);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), vec![7, 9].into());
        assert_eq!(cache.get(&k).as_deref(), Some(&[7u32, 9][..]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // Single-threaded traffic never contends.
        assert_eq!((stats.contended_reads, stats.contended_writes), (0, 0));
        assert_eq!(stats.contention_rate(), 0.0);
    }

    #[test]
    fn auto_shards_are_a_power_of_two_sized_to_the_machine() {
        let config = CacheConfig::default();
        assert_eq!(config.shards, 0, "default is auto");
        let resolved = config.resolved_shards();
        assert!(resolved.is_power_of_two());
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert!(resolved >= (threads * 4).min(512) || resolved == 512);
        assert!((16..=512).contains(&resolved));
        let cache = FrontierCache::new(&config);
        assert_eq!(cache.shard_count(), resolved);
        assert_eq!(cache.stats().shards, resolved);
        // Explicit values are honored verbatim, power of two or not.
        for explicit in [1usize, 2, 3, 64] {
            let cache = FrontierCache::new(&CacheConfig {
                shards: explicit,
                ..CacheConfig::default()
            });
            assert_eq!(cache.shard_count(), explicit);
        }
    }

    #[test]
    fn same_pattern_different_gaps_are_distinct() {
        let cache = FrontierCache::new(&CacheConfig::default());
        cache.insert(key(1, &[5, 5]), vec![0].into());
        assert!(cache.get(&key(1, &[5, 6])).is_none());
        assert!(cache.get(&key(1, &[5, 5])).is_some());
    }

    #[test]
    fn fifo_eviction_bounds_each_shard() {
        let config = CacheConfig {
            capacity: 4,
            shards: 1,
            ..CacheConfig::default()
        };
        let cache = FrontierCache::new(&config);
        for i in 0..20u64 {
            cache.insert(key(i, &[i as i64]), vec![i as u32].into());
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 4, "shard stays at capacity");
        // Newest entry survives, oldest is gone.
        assert!(cache.get(&key(19, &[19])).is_some());
        assert!(cache.get(&key(0, &[0])).is_none());
    }

    #[test]
    fn duplicate_insert_does_not_grow_order_queue() {
        let config = CacheConfig {
            capacity: 2,
            shards: 1,
            ..CacheConfig::default()
        };
        let cache = FrontierCache::new(&config);
        let k = key(3, &[1]);
        for _ in 0..10 {
            cache.insert(k.clone(), vec![1].into());
        }
        cache.insert(key(4, &[2]), vec![2].into());
        cache.insert(key(5, &[3]), vec![3].into());
        // k was inserted first and must be the first evicted despite the
        // repeated overwrites.
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.get(&k).is_none());
    }

    #[test]
    fn epoch_bump_invalidates_resident_entries() {
        let cache = FrontierCache::new(&CacheConfig::default());
        let k = key(11, &[4, 2]);
        cache.insert(k.clone(), vec![1, 2].into());
        assert_eq!(cache.epoch(), 0);
        assert!(cache.get(&k).is_some());
        cache.set_epoch(1);
        // Same resident bytes, but the ids index a retired table: miss.
        assert!(cache.get(&k).is_none());
        // Re-inserting at the new epoch makes the key live again.
        cache.insert(k.clone(), vec![3].into());
        assert_eq!(cache.get(&k).as_deref(), Some(&[3u32][..]));
    }

    #[test]
    fn insert_at_stale_epoch_is_dropped() {
        let cache = FrontierCache::new(&CacheConfig::default());
        let k = key(12, &[1]);
        cache.set_epoch(5);
        // A producer that snapshotted the table at epoch 4 must not
        // publish into epoch 5's id space.
        cache.insert_at(k.clone(), vec![9].into(), 4);
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.stats().entries, 0);
        cache.insert_at(k.clone(), vec![9].into(), 5);
        assert_eq!(cache.get(&k).as_deref(), Some(&[9u32][..]));
    }

    /// Overwrite-heavy workload: interleaving fresh inserts with repeated
    /// overwrites of resident keys must never push a shard past its
    /// capacity or desynchronize `map` from the eviction queue — at every
    /// shard count the auto-sizing can resolve to, including the
    /// degenerate single shard and a count far above the key cardinality.
    #[test]
    fn overwrite_heavy_occupancy_stays_bounded() {
        for shards in [1usize, 2, 64] {
            let config = CacheConfig {
                capacity: 6,
                shards,
                ..CacheConfig::default()
            };
            let cache = FrontierCache::new(&config);
            for round in 0..50u64 {
                // A fresh key per round...
                cache.insert(key(round, &[round as i64]), vec![round as u32].into());
                // ...then a storm of overwrites across the whole key
                // history, including keys that were already evicted (those
                // re-enter as fresh inserts and must re-queue exactly
                // once).
                for k in 0..=round {
                    cache.insert(key(k, &[k as i64]), vec![(k + round) as u32].into());
                }
                cache.assert_shards_consistent();
            }
            let stats = cache.stats();
            // Per-shard capacity is max(6/shards, 1), so total occupancy
            // is bounded by shards × per-shard cap.
            let bound = (6usize / shards).max(1) * shards;
            assert!(
                stats.entries <= bound,
                "shards {shards}: occupancy {} > bound {bound}",
                stats.entries
            );
            assert!(stats.entries > 0);
        }
    }

    /// Concurrent miss-storm: many threads discover the same keys missing
    /// and insert them simultaneously, across the shard counts the
    /// auto-sizing spans {1, 2, 64}, with the adaptive bypass armed so it
    /// flips mid-run (the threshold is unreachable for this storm).
    /// Duplicate concurrent inserts of one key must leave `order`/`map`
    /// consistent (exactly one queue entry per resident key), reads
    /// during the storm must never see torn state, and the flip must be
    /// sticky and observable in the stats.
    #[test]
    fn concurrent_miss_storm_keeps_shards_consistent() {
        use std::sync::Arc;

        for shards in [1usize, 2, 64] {
            let config = CacheConfig {
                capacity: 64,
                shards,
                // Armed mid-storm: 8 threads × 400+ probes blow far past
                // the window while the threads are still running, and a
                // 100% floor guarantees the flip.
                bypass_warmup: 512,
                bypass_threshold_permille: 1000,
                ..CacheConfig::default()
            };
            let cache = Arc::new(FrontierCache::new(&config));
            let threads = 8;
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let cache = Arc::clone(&cache);
                    scope.spawn(move || {
                        for i in 0..400u64 {
                            // A small key space so every key is inserted by
                            // several threads at once.
                            let k = key(i % 16, &[(i % 16) as i64, t as i64 % 2]);
                            if cache.get(&k).is_none() {
                                cache.insert(k.clone(), vec![t as u32, i as u32].into());
                            }
                            // Occasional fresh keys force evictions under
                            // the same contention.
                            if i % 37 == 0 {
                                cache.insert(
                                    key(1000 + t as u64 * 1000 + i, &[i as i64]),
                                    vec![0].into(),
                                );
                            }
                        }
                    });
                }
            });
            cache.assert_shards_consistent();
            let stats = cache.stats();
            assert_eq!(stats.shards, shards);
            // Any hot key still resident must replay a well-formed id list
            // (no torn values from racing duplicate inserts), and the storm
            // must actually have exercised both paths.
            let mut resident = 0;
            for i in 0..16u64 {
                for g in 0..2i64 {
                    if let Some(ids) = cache.get(&key(i, &[i as i64, g])) {
                        resident += 1;
                        assert_eq!(ids.len(), 2, "torn value for hot key ({i}, {g})");
                    }
                }
            }
            assert!(resident > 0, "shards {shards}: the whole hot set was evicted");
            assert!(
                stats.hits > 0 && stats.misses > 0,
                "shards {shards}: hits {} misses {}",
                stats.hits,
                stats.misses
            );
            // The bypass flipped mid-storm (warmup 512 < total probes,
            // floor 100% unreachable) and stayed flipped.
            assert!(
                cache.bypassed(),
                "shards {shards}: bypass must flip mid-run ({} probes)",
                stats.hits + stats.misses
            );
            assert!(cache.stats().bypassed);
        }
    }

    /// The contention counters actually count: hammer one shard's write
    /// lock and demand the failed-fast-path tally shows up. Contention is
    /// forced deterministically — one thread holds the shard lock while
    /// another attempts entry — because a statistical N-thread hammer
    /// never collides on a single-core machine (the critical section is
    /// shorter than a timeslice).
    #[test]
    fn contended_locks_are_counted() {
        let cache = FrontierCache::new(&CacheConfig {
            shards: 1,
            capacity: 1024,
            ..CacheConfig::default()
        });
        let state = &cache.shards[0];

        // A held read lock forces the insert's try_write to fail.
        let guard = state.read();
        std::thread::scope(|scope| {
            scope.spawn(|| cache.insert(key(1, &[1]), vec![1].into()));
            while state.contended_writes.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            drop(guard);
        });

        // A held write lock forces the probe's try_read to fail.
        let guard = state.write();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _ = cache.get(&key(1, &[1]));
            });
            while state.contended_reads.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            drop(guard);
        });

        let stats = cache.stats();
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 1);
        assert_eq!(per_shard[0].contended_writes, stats.contended_writes);
        assert_eq!(per_shard[0].contended_reads, stats.contended_reads);
        assert!(stats.contended_writes > 0 && stats.contended_reads > 0);
        assert!(stats.contention_rate() > 0.0);
    }

    #[test]
    fn bypass_fires_after_a_cold_warmup_window() {
        let config = CacheConfig {
            bypass_warmup: 32,
            bypass_threshold_permille: 100,
            shards: 1,
            ..CacheConfig::default()
        };
        let cache = FrontierCache::new(&config);
        for i in 0..31u64 {
            assert!(cache.get(&key(i, &[i as i64])).is_none());
            assert!(!cache.bypassed(), "must not fire before the window");
        }
        assert!(cache.get(&key(31, &[31])).is_none());
        assert!(cache.bypassed(), "32 misses, 0 hits: below 10%");
        assert!(cache.stats().bypassed);
    }

    #[test]
    fn bypass_spares_a_cache_that_earns_its_keep() {
        let config = CacheConfig {
            bypass_warmup: 32,
            bypass_threshold_permille: 100,
            ..CacheConfig::default()
        };
        let cache = FrontierCache::new(&config);
        let hot = key(7, &[7]);
        cache.insert(hot.clone(), vec![1].into());
        // 1 hit per 4 probes = 250‰, comfortably above the 100‰ floor.
        for i in 0..200u64 {
            if i % 4 == 0 {
                assert!(cache.get(&hot).is_some());
            } else {
                cache.get(&key(1000 + i, &[i as i64]));
            }
        }
        assert!(!cache.bypassed());
    }

    /// Drives the cache the way the router's probe+insert sites do: ask
    /// [`FrontierCache::skip_probe`] first, and on a miss insert iff the
    /// bypass is not tripped.
    fn probe_like_router(cache: &FrontierCache, k: CacheKey) -> bool {
        if cache.skip_probe() {
            return false;
        }
        let hit = cache.get(&k).is_some();
        if !hit && !cache.bypassed() {
            cache.insert(k, vec![1].into());
        }
        hit
    }

    /// Satellite regression: the bypass must not be sticky across a
    /// workload phase change. A cold miss-heavy phase trips it; once the
    /// re-probe period elapses, a high-reuse phase must win the cache
    /// back — and the window judgment must not hold the cold history
    /// against it.
    #[test]
    fn reprobe_rearms_after_a_workload_flip() {
        let config = CacheConfig {
            bypass_warmup: 16,
            bypass_threshold_permille: 500,
            bypass_reprobe_period: 8,
            shards: 1,
            capacity: 1024,
            ..CacheConfig::default()
        };
        let cache = FrontierCache::new(&config);
        // Phase 1: pure misses through the warmup window → retired.
        for i in 0..16u64 {
            assert!(!probe_like_router(&cache, key(i, &[i as i64])));
        }
        assert!(cache.bypassed(), "cold phase must trip the bypass");
        // Phase 2: the workload flips to a single hot class. The first 7
        // probes are swallowed; the 8th crosses the period and re-arms.
        for _ in 0..7 {
            assert!(cache.skip_probe(), "within the period probes are skipped");
        }
        assert!(!cache.skip_probe(), "period boundary must re-arm");
        assert!(!cache.bypassed());
        // Hot phase: 3 hits per miss (750‰), comfortably above the 500‰
        // floor — the observation window closes with the cache still
        // armed even though the cumulative history is well below it.
        let hot = key(999, &[9]);
        cache.insert(hot.clone(), vec![1].into());
        for i in 0..24u64 {
            if i % 4 == 0 {
                probe_like_router(&cache, key(50_000 + i, &[i as i64]));
            } else {
                assert!(probe_like_router(&cache, hot.clone()), "hot class must hit");
            }
        }
        assert!(
            !cache.bypassed(),
            "a high-reuse window must keep the cache armed despite cold history"
        );
        assert!(!cache.skip_probe(), "an armed cache keeps probing");
    }

    /// The flip side: a workload that is still reuse-free after a re-arm
    /// must retire the cache again once the fresh window closes.
    #[test]
    fn reprobe_retires_again_when_reuse_never_comes() {
        let config = CacheConfig {
            bypass_warmup: 16,
            bypass_threshold_permille: 500,
            bypass_reprobe_period: 8,
            shards: 1,
            capacity: 1024,
            ..CacheConfig::default()
        };
        let cache = FrontierCache::new(&config);
        let mut fresh = 0u64;
        let mut unique = move || {
            fresh += 1;
            key(100_000 + fresh, &[fresh as i64])
        };
        for _ in 0..16 {
            probe_like_router(&cache, unique());
        }
        assert!(cache.bypassed());
        // Burn one period of skips, then feed the re-armed window more
        // unique keys: it must fail the threshold and retire again.
        for _ in 0..8 {
            let _ = cache.skip_probe();
        }
        assert!(!cache.bypassed(), "re-armed at the boundary");
        for _ in 0..16 {
            probe_like_router(&cache, unique());
        }
        assert!(cache.bypassed(), "a reuse-free window must re-retire the cache");
    }

    #[test]
    fn zero_reprobe_period_keeps_the_bypass_sticky() {
        let config = CacheConfig {
            bypass_warmup: 8,
            bypass_threshold_permille: 1000,
            bypass_reprobe_period: 0,
            shards: 1,
            ..CacheConfig::default()
        };
        let cache = FrontierCache::new(&config);
        for i in 0..8u64 {
            probe_like_router(&cache, key(i, &[i as i64]));
        }
        assert!(cache.bypassed());
        for _ in 0..10_000 {
            assert!(cache.skip_probe(), "period 0 must never re-arm");
        }
        assert!(cache.bypassed());
    }

    #[test]
    fn zero_warmup_disables_the_bypass() {
        let config = CacheConfig {
            bypass_warmup: 0,
            bypass_threshold_permille: 1000,
            ..CacheConfig::default()
        };
        let cache = FrontierCache::new(&config);
        for i in 0..500u64 {
            cache.get(&key(i, &[i as i64]));
        }
        assert!(!cache.bypassed(), "warmup 0 must mean never bypass");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let config = CacheConfig {
            shards: 0,
            capacity: 0,
            ..CacheConfig::default()
        };
        let cache = FrontierCache::new(&config);
        cache.insert(key(1, &[1]), vec![1].into());
        assert!(cache.get(&key(1, &[1])).is_some());
    }
}
