//! The tiered resolution cache.
//!
//! Three tiers serve the scan's access pattern:
//!
//! * **L2** ([`Cache`], this module) — the shared sharded store:
//!   positive, negative, and failure caching with RFC 8767
//!   serve-stale.
//! * **Infrastructure** ([`infra::InfraCache`]) — referral sets and
//!   validated zone keys for the iterative walk, keyed by zone.
//! * **Ranges** ([`ranges::RangeCache`]) — validated NSEC/NSEC3 denial
//!   intervals, keyed by zone and ordered by owner (hash), from which
//!   NXDOMAIN/NODATA answers are synthesized for *covered* names
//!   without asking the authority (RFC 8198).
//!
//! # The shared store
//!
//! The L2 cache is shared across a scan's worker threads (the paper
//! notes Cloudflare answered part of their load from cache), so its
//! layout is dictated by contention: a single `Mutex<HashMap>` would
//! serialize every worker on every probe. Instead the store is
//! **sharded** — a deterministic FNV-1a hash of `(qname, qtype)` picks
//! one of [`SHARD_COUNT`] independently-locked shards, so workers
//! probing different names almost never touch the same lock. The same
//! precomputed hash doubles as the lookup key inside the shard, which
//! means a probe never clones the queried [`Name`].
//!
//! Entries are stored as `Arc<CachedResolution>` and hits hand the `Arc`
//! back: no answer records or diagnosis findings are ever deep-cloned
//! under a shard lock. Entries store the *diagnosis* alongside the
//! answer: replaying a cached failure must replay its findings so the
//! profile can emit the original codes next to *Cached Error (13)*.
//!
//! # Expiry: the TTL wheel
//!
//! The L2 store and the range tier bound themselves the same way, by
//! one implementation (the private `bounded` module); each supplies
//! only how a bookkeeping slot finds its entry.
//!
//! Every entry has a hard deadline — `stored_at + ttl + stale window`
//! here, `min(stored_at + ttl, RRSIG expiration)` for a denial span —
//! past which it can never be served again (not even stale). Each shard
//! buckets those deadlines on a coarse clock ([`WHEEL_BUCKET_SECS`]-
//! second buckets in a `BTreeMap`); every store operation first drains
//! the buckets that lie wholly in the past, physically removing dead
//! entries.
//!
//! Overwrites are handled lazily: each entry carries a shard-scoped
//! sequence number, and a wheel (or CLOCK ring) slot whose sequence no
//! longer matches the stored entry is simply skipped.
//!
//! # Budget: the CLOCK sweep
//!
//! [`CacheLimits`] optionally bounds a tier by entry count. The bound
//! is **global and hard**: after any store returns, the whole tier
//! holds at most `max_entries` entries. Enforcement is local — the
//! inserting shard evicts from its own insertion ring, giving
//! recently-hit entries one second chance (CLOCK) before they go. Only
//! a budgeted tier keeps rings, compacted as overwrites and expiries
//! leave dead slots behind. A budget eviction may remove a perfectly
//! live entry, so scan results are only guaranteed bit-identical when
//! the L2 budget never actually fires (evicting a denial span only
//! forfeits a synthesis); the bounded-memory configurations trade
//! exactness for a working-set bound, as a serving front end must.

mod bounded;
pub mod infra;
pub mod ranges;

use crate::diagnosis::Diagnosis;
use bounded::{Bounded, Index};
use ede_wire::{Name, Rcode, Record, RrType};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Number of independently-locked shards. A power of two so shard
/// selection is a mask; 16 is comfortably above any worker count the
/// scanner uses (worker pools cap at 16), keeping the expected number
/// of workers per shard lock at ~1.
pub const SHARD_COUNT: usize = 16;

/// Width of one TTL-wheel bucket in seconds.
pub const WHEEL_BUCKET_SECS: u32 = 1 << bounded::WHEEL_SHIFT;

/// What a completed resolution left behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResolution {
    /// Final RCODE.
    pub rcode: Rcode,
    /// Answer records (empty for negative/failure entries).
    pub answers: Vec<Record>,
    /// The diagnosis attached to the resolution.
    pub diagnosis: Diagnosis,
    /// True when this entry is a resolution *failure* (SERVFAIL) — a hit
    /// on it is a *Cached Error*.
    pub is_failure: bool,
}

/// Entry budget for the shared store. `None` means unbounded (the
/// historical behaviour).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum stored entries across all shards.
    pub max_entries: Option<usize>,
}

/// What one store operation did to the cache, for the caller's
/// telemetry (the resolver turns a non-zero outcome into a
/// `CacheEvicted` trace event).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PutOutcome {
    /// Entries removed because their deadline (TTL + stale window) had
    /// lapsed.
    pub expired: u64,
    /// Entries removed by the budget's CLOCK sweep.
    pub evicted: u64,
    /// Stored entries remaining across the whole cache afterwards.
    pub occupancy: u64,
}

impl PutOutcome {
    /// True when the operation removed anything.
    pub fn removed_any(&self) -> bool {
        self.expired + self.evicted > 0
    }
}

/// A frozen copy of the store's internal counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Fresh probes answered.
    pub hits: u64,
    /// Probes that found nothing servable.
    pub misses: u64,
    /// Stale (RFC 8767) entries handed out by
    /// [`Cache::get_stale_success`].
    pub stale_served: u64,
    /// Store operations.
    pub puts: u64,
    /// Entries removed by the TTL wheel.
    pub expired: u64,
    /// Entries removed by the budget's CLOCK sweep.
    pub evicted: u64,
    /// Stored entries right now (including expired-but-unpurged ones;
    /// the wheel removes those on the next store to their shard).
    pub occupancy: u64,
    /// Peak of `occupancy` over the store's lifetime.
    pub occupancy_peak: u64,
}

impl CacheStatsSnapshot {
    /// Hit ratio in `[0, 1]` over fresh hits + misses (stale serves
    /// count as hits — the client got an answer from cache).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.hits + self.stale_served;
        let total = hits + self.misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    /// Owned key material, kept for collision resolution only — lookups
    /// compare against it, they never clone it.
    qname: Name,
    qtype: u16,
    data: Arc<CachedResolution>,
    stored_at: u32,
    ttl: u32,
    /// Shard-scoped sequence number; wheel and ring slots referencing a
    /// superseded sequence are skipped (lazy deletion).
    seq: u64,
    /// CLOCK reference bit: set on every hit, cleared (once) by the
    /// sweep before the entry becomes evictable. `Cell` because hits
    /// hold only a shared borrow of the shard's interior.
    referenced: Cell<bool>,
}

impl Entry {
    /// Hard deadline: past this the entry can never be served again.
    fn deadline(&self, stale_window_secs: u32) -> u32 {
        self.stored_at
            .saturating_add(self.ttl)
            .saturating_add(stale_window_secs)
    }
}

/// Result of a cache probe. Hits share the stored entry (`Arc`): the
/// caller clones individual fields only if and when it needs ownership,
/// never under a cache lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheHit {
    /// Within TTL.
    Fresh(Arc<CachedResolution>),
    /// Expired but inside the serve-stale window.
    Stale(Arc<CachedResolution>),
    /// Nothing usable.
    Miss,
}

/// One shard's entries. They sit inline in a map keyed by the
/// precomputed `(qname, qtype)` hash, so storing one allocates no bucket
/// of its own; an entry whose 64-bit hash is already taken by a
/// *different* key — all but unheard of — goes to `collided` instead.
#[derive(Default)]
struct Entries {
    entries: HashMap<u64, Entry>,
    /// `(hash, entry)` for keys that lost their hash to another key.
    collided: Vec<(u64, Entry)>,
}

impl Entries {
    /// Every stored entry hashing to `hash` (one, bar collisions).
    fn at_hash(&self, hash: u64) -> impl Iterator<Item = &Entry> {
        let collided = self.collided.iter().filter(move |(h, _)| *h == hash);
        self.entries
            .get(&hash)
            .into_iter()
            .chain(collided.map(|(_, e)| e))
    }
}

/// A wheel or ring slot addresses an entry as `(hash, seq)`.
impl Index for Entries {
    type Slot = (u64, u64);

    fn reference_bit(&self, &(hash, seq): &(u64, u64)) -> Option<&Cell<bool>> {
        let entry = self.at_hash(hash).find(|e| e.seq == seq)?;
        Some(&entry.referenced)
    }

    fn remove(&mut self, &(hash, seq): &(u64, u64)) -> bool {
        if self.entries.get(&hash).is_some_and(|e| e.seq == seq) {
            return self.entries.remove(&hash).is_some();
        }
        let at = self
            .collided
            .iter()
            .position(|(h, e)| *h == hash && e.seq == seq);
        at.map(|at| self.collided.swap_remove(at)).is_some()
    }
}

/// The shared (L2) resolver cache.
pub struct Cache {
    store: Bounded<Entries>,
    stale_window_secs: u32,
}

/// Deterministic hash of a probe key. The qname's label bytes are
/// hashed in place ([`Name::shard_hash`]) — no wire-form allocation,
/// no clone — then the qtype is mixed in.
fn probe_hash(qname: &Name, qtype: u16) -> u64 {
    let mut h = qname.shard_hash();
    h ^= u64::from(qtype);
    h = h.wrapping_mul(0x100000001b3);
    h
}

impl Cache {
    /// An empty, unbounded cache with the given serve-stale window.
    pub fn new(stale_window_secs: u32) -> Self {
        Cache::with_limits(stale_window_secs, CacheLimits::default())
    }

    /// An empty cache with the given serve-stale window and budget.
    pub fn with_limits(stale_window_secs: u32, limits: CacheLimits) -> Self {
        Cache {
            store: Bounded::new(limits),
            stale_window_secs,
        }
    }

    /// The serve-stale window this store was built with.
    pub fn stale_window_secs(&self) -> u32 {
        self.stale_window_secs
    }

    /// Probe for `(qname, qtype)` at time `now`.
    ///
    /// Hot-path guarantees: one shard lock, zero `Name` clones, zero
    /// `CachedResolution` deep clones — a hit is an `Arc` bump.
    pub fn get(&self, qname: &Name, qtype: RrType, now: u32) -> CacheHit {
        let hit = self.get_inner(qname, qtype, now);
        match &hit {
            CacheHit::Fresh(..) => self.store.stats.hits.fetch_add(1, Relaxed),
            // A stale entry is only *served* through `get_stale_success`;
            // a plain probe that finds one proceeds to live resolution,
            // which is a miss from the client's point of view.
            CacheHit::Stale(_) | CacheHit::Miss => self.store.stats.misses.fetch_add(1, Relaxed),
        };
        hit
    }

    fn get_inner(&self, qname: &Name, qtype: RrType, now: u32) -> CacheHit {
        let hash = probe_hash(qname, qtype.to_u16());
        let shard = self.store.lock(hash);
        let Some(entry) = shard
            .index
            .at_hash(hash)
            .find(|e| e.qtype == qtype.to_u16() && e.qname == *qname)
        else {
            return CacheHit::Miss;
        };
        let age = now.saturating_sub(entry.stored_at);
        if age <= entry.ttl {
            entry.referenced.set(true);
            CacheHit::Fresh(Arc::clone(&entry.data))
        } else if age <= entry.ttl.saturating_add(self.stale_window_secs) {
            entry.referenced.set(true);
            CacheHit::Stale(Arc::clone(&entry.data))
        } else {
            CacheHit::Miss
        }
    }

    /// Probe only for a *stale-servable successful* entry — used when a
    /// live resolution just failed and RFC 8767 allows falling back.
    pub fn get_stale_success(
        &self,
        qname: &Name,
        qtype: RrType,
        now: u32,
    ) -> Option<Arc<CachedResolution>> {
        match self.get_inner(qname, qtype, now) {
            CacheHit::Stale(data) | CacheHit::Fresh(data) if !data.is_failure => {
                self.store.stats.stale_served.fetch_add(1, Relaxed);
                Some(data)
            }
            _ => None,
        }
    }

    /// Store a resolution with the given TTL. Returns what the store
    /// removed along the way: TTL-wheel expiries for this shard, plus
    /// any CLOCK evictions the budget forced.
    pub fn put(
        &self,
        qname: &Name,
        qtype: RrType,
        data: CachedResolution,
        ttl: u32,
        now: u32,
    ) -> PutOutcome {
        self.store.stats.puts.fetch_add(1, Relaxed);
        let hash = probe_hash(qname, qtype.to_u16());
        // The Arc is built outside the lock; the lock only covers the
        // bucket splice.
        let data = Arc::new(data);
        let mut shard = self.store.lock(hash);
        let expired = self.store.turn_wheel(&mut shard, now);

        // Splice the entry in (or refuse: a failure never clobbers a
        // still-stale-servable success — the success is what serve-stale
        // needs later; check and insert happen under the same shard
        // lock, so a concurrent successful put cannot be lost in
        // between).
        let seq = shard.next_seq();
        let deadline = now
            .saturating_add(ttl)
            .saturating_add(self.stale_window_secs);
        let is_key = |e: &Entry| e.qtype == qtype.to_u16() && e.qname == *qname;
        let index = &mut shard.index;
        let slot = index.entries.get_mut(&hash);
        let taken = slot.is_some();
        let existing = match slot {
            Some(e) if is_key(e) => Some(e),
            _ => index
                .collided
                .iter_mut()
                .map(|(_, e)| e)
                .find(|e| is_key(e)),
        };
        if data.is_failure {
            if let Some(e) = &existing {
                if !e.data.is_failure
                    && now.saturating_sub(e.stored_at)
                        <= e.ttl.saturating_add(self.stale_window_secs)
                {
                    return self.store.outcome(expired, 0);
                }
            }
        }
        let new = existing.is_none();
        match existing {
            Some(e) => {
                e.data = data;
                e.stored_at = now;
                e.ttl = ttl;
                e.seq = seq;
                e.referenced.set(true);
            }
            // Entries outlive the resolution that created them, so the
            // key must not pin the caller's allocations: it shares the
            // block of an answer's owner, which the entry holds anyway,
            // or is a detached copy.
            None => {
                let owner = data.answers.iter().map(|r| &r.name).find(|n| *n == qname);
                let entry = Entry {
                    qname: owner.cloned().unwrap_or_else(|| qname.detached()),
                    qtype: qtype.to_u16(),
                    data,
                    stored_at: now,
                    ttl,
                    seq,
                    referenced: Cell::new(false),
                };
                if taken {
                    index.collided.push((hash, entry));
                } else {
                    index.entries.insert(hash, entry);
                }
            }
        }
        self.store.track(&mut shard, (hash, seq), deadline, new);
        self.store.finish(&mut shard, expired)
    }

    /// Number of entries still *servable* at `now` — fresh or within
    /// the serve-stale window. Entries past their deadline are dead
    /// even if the wheel hasn't physically removed them yet, and are
    /// not counted.
    pub fn len(&self, now: u32) -> usize {
        self.store
            .shards()
            .map(|shard| {
                let collided = shard.index.collided.iter().map(|(_, e)| e);
                shard
                    .index
                    .entries
                    .values()
                    .chain(collided)
                    .filter(|e| now <= e.deadline(self.stale_window_secs))
                    .count()
            })
            .sum()
    }

    /// True when no entry is servable at `now`.
    pub fn is_empty(&self, now: u32) -> bool {
        self.len(now) == 0
    }

    /// Total stored entries, including expired-but-unpurged ones (the
    /// quantity the entry budget bounds).
    pub fn total_entries(&self) -> usize {
        self.store.total_entries()
    }

    /// Physically remove every entry whose deadline lies before `now`,
    /// across all shards, returning how many went. `put` turns each
    /// shard's wheel lazily; this is the eager, whole-store form for
    /// callers that want memory back *now*.
    pub fn purge_expired(&self, now: u32) -> u64 {
        self.store.purge_expired(now)
    }

    /// A frozen copy of the store's counters.
    pub fn stats(&self) -> CacheStatsSnapshot {
        self.store.stats()
    }

    /// Drop everything (tests and flushes). Counters other than the
    /// occupancy gauge are preserved.
    pub fn clear(&self) {
        self.store.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn success() -> CachedResolution {
        CachedResolution {
            rcode: Rcode::NoError,
            answers: Vec::new(),
            diagnosis: Diagnosis::new(),
            is_failure: false,
        }
    }

    fn failure() -> CachedResolution {
        CachedResolution {
            rcode: Rcode::ServFail,
            answers: Vec::new(),
            diagnosis: Diagnosis::new(),
            is_failure: true,
        }
    }

    #[test]
    fn fresh_then_stale_then_miss() {
        let c = Cache::new(100);
        c.put(&n("a.com"), RrType::A, success(), 60, 1000);
        assert!(matches!(
            c.get(&n("a.com"), RrType::A, 1030),
            CacheHit::Fresh(..)
        ));
        assert!(matches!(
            c.get(&n("a.com"), RrType::A, 1061),
            CacheHit::Stale(_)
        ));
        assert!(matches!(
            c.get(&n("a.com"), RrType::A, 1160),
            CacheHit::Stale(_)
        ));
        assert!(matches!(
            c.get(&n("a.com"), RrType::A, 1161),
            CacheHit::Miss
        ));
    }

    #[test]
    fn failure_does_not_clobber_stale_success() {
        let c = Cache::new(1000);
        c.put(&n("a.com"), RrType::A, success(), 60, 1000);
        // Success has expired (stale), a failure comes in.
        c.put(&n("a.com"), RrType::A, failure(), 30, 1100);
        // The stale success must still be retrievable for serve-stale.
        assert!(c.get_stale_success(&n("a.com"), RrType::A, 1100).is_some());
    }

    #[test]
    fn failure_cached_when_no_success_exists() {
        let c = Cache::new(100);
        c.put(&n("b.com"), RrType::A, failure(), 30, 1000);
        match c.get(&n("b.com"), RrType::A, 1010) {
            CacheHit::Fresh(data) => assert!(data.is_failure),
            other => panic!("expected fresh failure, got {other:?}"),
        }
        assert!(c.get_stale_success(&n("b.com"), RrType::A, 1010).is_none());
    }

    #[test]
    fn types_are_separate() {
        let c = Cache::new(100);
        c.put(&n("a.com"), RrType::A, success(), 60, 1000);
        assert!(matches!(
            c.get(&n("a.com"), RrType::Aaaa, 1000),
            CacheHit::Miss
        ));
    }

    #[test]
    fn hits_share_one_allocation() {
        // The Arc-returning API is what enforces "zero deep clones on
        // the hit path": two probes of the same entry must hand back the
        // same allocation.
        let c = Cache::new(100);
        c.put(&n("a.com"), RrType::A, success(), 60, 1000);
        let (CacheHit::Fresh(first), CacheHit::Fresh(second)) = (
            c.get(&n("a.com"), RrType::A, 1010),
            c.get(&n("a.com"), RrType::A, 1020),
        ) else {
            panic!("expected two fresh hits");
        };
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn entries_spread_and_survive_across_shards() {
        // Many names land in many shards; every one must stay
        // retrievable (shard selection and bucket lookup must agree).
        let c = Cache::new(100);
        for i in 0..200 {
            c.put(&n(&format!("d{i}.example")), RrType::A, success(), 60, 0);
        }
        assert_eq!(c.len(10), 200);
        assert_eq!(c.total_entries(), 200);
        for i in 0..200 {
            assert!(
                matches!(
                    c.get(&n(&format!("d{i}.example")), RrType::A, 10),
                    CacheHit::Fresh(..)
                ),
                "d{i}.example lost"
            );
        }
        c.clear();
        assert!(c.is_empty(10));
        assert_eq!(c.total_entries(), 0);
    }

    #[test]
    fn len_counts_only_servable_entries() {
        let c = Cache::new(100);
        c.put(&n("short.example"), RrType::A, success(), 10, 1000);
        c.put(&n("long.example"), RrType::A, success(), 10_000, 1000);
        assert_eq!(c.len(1005), 2);
        // short's deadline is 1000 + 10 + 100 = 1110.
        assert_eq!(c.len(1111), 1);
        assert!(!c.is_empty(1111));
        assert_eq!(c.len(20_000), 0);
        assert!(c.is_empty(20_000));
        // The dead entries are still *stored* until a wheel turn.
        assert_eq!(c.total_entries(), 2);
    }

    #[test]
    fn purge_expired_removes_dead_entries() {
        let c = Cache::new(50);
        for i in 0..64 {
            c.put(&n(&format!("d{i}.example")), RrType::A, success(), 30, 0);
        }
        assert_eq!(c.total_entries(), 64);
        // Deadline 0 + 30 + 50 = 80; the 64 s wheel bucket containing it
        // is wholly past once now reaches 128.
        assert_eq!(c.purge_expired(128), 64);
        assert_eq!(c.total_entries(), 0);
        assert_eq!(c.stats().expired, 64);
        // Purging again finds nothing.
        assert_eq!(c.purge_expired(1_000_000), 0);
    }

    #[test]
    fn wheel_turns_lazily_on_put() {
        let c = Cache::new(0);
        c.put(&n("old.example"), RrType::A, success(), 10, 0);
        // Same shard or not, a much-later put must report the expiry of
        // whatever died in its own shard; drive the clock far enough
        // that every wheel bucket is past, then touch all shards.
        let mut expired = 0;
        for i in 0..64 {
            expired += c
                .put(
                    &n(&format!("new{i}.example")),
                    RrType::A,
                    success(),
                    10,
                    10_000,
                )
                .expired;
        }
        assert_eq!(expired, 1, "the dead entry expired exactly once");
        assert_eq!(c.stats().expired, 1);
    }

    #[test]
    fn entry_budget_is_a_hard_global_bound() {
        let limits = CacheLimits {
            max_entries: Some(10),
        };
        let c = Cache::with_limits(100, limits);
        let mut evicted = 0;
        for i in 0..100 {
            let out = c.put(&n(&format!("d{i}.example")), RrType::A, success(), 60, 0);
            assert!(c.total_entries() <= 10, "over budget after put {i}");
            evicted += out.evicted;
        }
        assert_eq!(c.total_entries(), 10);
        assert_eq!(evicted, 90);
        assert_eq!(c.stats().evicted, 90);
        assert!(c.stats().occupancy_peak <= 11);
    }

    #[test]
    fn clock_gives_hot_entries_a_second_chance() {
        let limits = CacheLimits {
            max_entries: Some(4),
        };
        let c = Cache::with_limits(100, limits);
        // Names chosen freely; what matters is that the hot one is
        // probed (setting its reference bit) before pressure arrives.
        for i in 0..4 {
            c.put(&n(&format!("d{i}.example")), RrType::A, success(), 60, 0);
        }
        assert!(matches!(
            c.get(&n("d0.example"), RrType::A, 1),
            CacheHit::Fresh(..)
        ));
        for i in 4..12 {
            c.put(&n(&format!("d{i}.example")), RrType::A, success(), 60, 1);
        }
        assert_eq!(c.total_entries(), 4);
        // The referenced entry survived at least the first wave of
        // evictions in its shard; pressure in *other* shards can never
        // evict it at all. (d0 may eventually go if its own shard keeps
        // inserting, which is the CLOCK contract — one second chance,
        // not immortality.)
        let stats = c.stats();
        assert_eq!(stats.evicted, 8);
    }

    /// `purge_expired` exactly on a 64 s bucket boundary. A deadline of
    /// 64 lands in bucket 1 (`64 >> 6`), and the wheel only drains
    /// buckets *wholly* before `now`: at `now == 64` the entry is still
    /// servable (deadline is the last servable instant), so the bucket
    /// must survive; through `now == 127` the entry is dead but its
    /// bucket is not yet wholly past, so the coarse wheel legally keeps
    /// it (only `len` drops); at `now == 128` the bucket finally drains.
    #[test]
    fn purge_on_wheel_bucket_boundary() {
        let c = Cache::new(0); // no stale window: deadline = stored_at + ttl
        c.put(
            &n("edge.example"),
            RrType::A,
            success(),
            WHEEL_BUCKET_SECS,
            0,
        );

        // Exactly on the boundary: still alive, nothing may go.
        assert_eq!(c.purge_expired(WHEEL_BUCKET_SECS), 0);
        assert_eq!(c.len(WHEEL_BUCKET_SECS), 1);
        assert!(matches!(
            c.get(&n("edge.example"), RrType::A, WHEEL_BUCKET_SECS),
            CacheHit::Fresh(..)
        ));

        // One past the boundary: dead for `len`/`get`, but the bucket
        // is not wholly past — the wheel holds the memory a little
        // longer by design.
        assert_eq!(c.purge_expired(WHEEL_BUCKET_SECS + 1), 0);
        assert_eq!(c.len(WHEEL_BUCKET_SECS + 1), 0);
        assert!(matches!(
            c.get(&n("edge.example"), RrType::A, WHEEL_BUCKET_SECS + 1),
            CacheHit::Miss
        ));
        assert_eq!(c.total_entries(), 1, "physically present until drained");

        // Last instant of the bucket: still physically present.
        assert_eq!(c.purge_expired(2 * WHEEL_BUCKET_SECS - 1), 0);
        assert_eq!(c.total_entries(), 1);

        // First instant of the next bucket: drained, counted expired.
        assert_eq!(c.purge_expired(2 * WHEEL_BUCKET_SECS), 1);
        assert_eq!(c.total_entries(), 0);
        let s = c.stats();
        assert_eq!(s.expired, 1);
        assert_eq!(s.evicted, 0, "wheel expiry is not a budget eviction");
    }

    /// CLOCK eviction interacting with entries that expire mid-sweep:
    /// a bounded store full of dead-but-unpurged entries must reclaim
    /// them through the wheel (`expired`) as new stores arrive, skip
    /// their superseded ring slots without burning second chances, and
    /// spend budget evictions (`evicted`) only on live entries.
    #[test]
    fn clock_sweep_skips_entries_the_wheel_already_expired() {
        let limits = CacheLimits {
            max_entries: Some(64),
        };
        let c = Cache::with_limits(0, limits);
        for i in 0..64 {
            c.put(&n(&format!("old{i}.example")), RrType::A, success(), 32, 0);
        }
        assert_eq!(c.total_entries(), 64);

        // t = 100: every first-wave entry is past its deadline but
        // still stored (the wheel is lazy). Each second-wave put turns
        // its own shard's wheel before enforcing the budget, so dead
        // entries drain as expiries, not evictions, and the budget
        // holds throughout.
        for i in 0..64 {
            c.put(
                &n(&format!("new{i}.example")),
                RrType::A,
                success(),
                64,
                100,
            );
            assert!(c.total_entries() <= 64, "budget violated at put {i}");
        }

        // Shards that saw no second-wave put may still hold first-wave
        // corpses; drain them eagerly so the accounting below is exact.
        c.purge_expired(101);
        let live = c.len(101);
        let s = c.stats();
        assert_eq!(s.expired, 64, "every dead entry expires exactly once");
        assert_eq!(
            s.evicted as usize,
            64 - live,
            "evictions account precisely for the live entries that went"
        );
        // The sweep never removed a live entry while dead ones remained
        // in the same shard — so the overwhelming share of the second
        // wave must have survived.
        assert!(live >= 48, "only {live}/64 second-wave entries survived");
        for i in 0..64 {
            let hit = c.get(&n(&format!("old{i}.example")), RrType::A, 101);
            assert!(matches!(hit, CacheHit::Miss), "old{i} outlived expiry");
        }
    }

    #[test]
    fn overwrite_does_not_leak_occupancy() {
        let c = Cache::new(100);
        for _ in 0..50 {
            c.put(&n("same.example"), RrType::A, success(), 60, 0);
        }
        assert_eq!(c.total_entries(), 1);
        assert_eq!(c.len(1), 1);
        // Superseded wheel slots must not remove the live entry.
        assert_eq!(c.purge_expired(1), 0);
        assert!(matches!(
            c.get(&n("same.example"), RrType::A, 1),
            CacheHit::Fresh(..)
        ));
    }

    /// Wheel and ring hold slots, not entries, and a slot outlives the
    /// entry it addressed. Neither may grow with how often something
    /// was stored: a long-running server re-stores the same names for
    /// ever. The ring — one slot per store, popped only by a sweep that
    /// runs only over budget — used to do exactly that.
    #[test]
    fn bookkeeping_is_bounded_by_live_entries() {
        const STORES: u32 = 10_000;
        let assert_bounded = |c: &Cache, budgeted: bool| {
            for (live, ring, wheel) in c.store.bookkeeping() {
                if budgeted {
                    assert!(ring <= 2 * live + bounded::RING_SLACK, "{ring} / {live}");
                } else {
                    assert_eq!(ring, 0, "nothing reads an unbudgeted ring");
                }
                // One slot per store until its bucket passes: here at
                // most one a second over TTL + window + two buckets.
                assert!(wheel <= 60 + 100 + 2 * WHEEL_BUCKET_SECS as usize);
            }
        };
        let budget = |max| CacheLimits {
            max_entries: Some(max),
        };

        // One key overwritten, no budget and under one never exceeded.
        for limits in [CacheLimits::default(), budget(100)] {
            let budgeted = limits.max_entries.is_some();
            let c = Cache::with_limits(100, limits);
            for now in 0..STORES {
                c.put(&n("same.example"), RrType::A, success(), 60, now);
                assert_bounded(&c, budgeted);
            }
            assert_eq!(c.total_entries(), 1);
        }

        // Keys that expire and are purged, likewise.
        for limits in [CacheLimits::default(), budget(STORES as usize)] {
            let budgeted = limits.max_entries.is_some();
            let c = Cache::with_limits(100, limits);
            for now in 0..STORES {
                c.put(
                    &n(&format!("d{now}.example")),
                    RrType::A,
                    success(),
                    60,
                    now,
                );
            }
            assert_bounded(&c, budgeted);
            c.purge_expired(STORES + 1_000);
            assert_eq!(c.total_entries(), 0);
            assert_bounded(&c, budgeted);
            assert_eq!(c.stats().evicted, 0);
        }
    }

    #[test]
    fn stats_track_probes() {
        let c = Cache::new(100);
        c.put(&n("a.com"), RrType::A, success(), 60, 1000);
        let _ = c.get(&n("a.com"), RrType::A, 1010); // hit
        let _ = c.get(&n("b.com"), RrType::A, 1010); // miss
        let _ = c.get(&n("a.com"), RrType::A, 1100); // stale → miss (not served)
        let _ = c.get_stale_success(&n("a.com"), RrType::A, 1100); // stale served
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.stale_served, 1);
        assert_eq!(s.puts, 1);
        assert!(s.hit_ratio() > 0.0);
    }
}
