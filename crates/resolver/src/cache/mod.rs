//! The tiered resolution cache.
//!
//! Two tiers serve the scan's access pattern:
//!
//! * **L2** ([`Cache`], this module) — the shared sharded store:
//!   positive, negative, and failure caching with RFC 8767
//!   serve-stale.
//! * **Infrastructure** ([`infra::InfraCache`]) — referral sets and
//!   validated zone keys for the iterative walk, keyed by zone.
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
//! under a shard lock. An entry is what a hit returns, rendered once
//! when it is stored: the answer, the *diagnosis* (for a failure, with
//! its *Cached Error* finding already added) and the EDE list the
//! resolver's profile emits for that diagnosis, so a hit on a cached
//! failure carries the original codes next to *Cached Error (13)*
//! without emitting anything itself. A server adds one thing on the
//! entry's first hit: its reply bytes ([`CachedResolution::reply_image`]),
//! which later hits copy.
//!
//! # Expiry: checked per probe
//!
//! Every entry has a hard deadline — `stored_at + ttl + stale window` —
//! past which it can never be served again, not even stale. Every probe
//! checks that deadline itself, so a dead entry is a miss wherever it
//! still sits. Nothing removes it on a timer: a store without a budget
//! keeps it until the same key is stored again.
//!
//! # Budget: the CLOCK sweep
//!
//! [`Cache::new`] optionally bounds the store by entry count. The bound
//! is **global and hard**: after any store returns, the whole store
//! holds at most `max_entries` entries. Enforcement is local — the
//! inserting shard sweeps its own insertion ring, in store order. A
//! dead entry the sweep reaches goes at once and counts as *expired*; a
//! live one that was hit since the sweep last passed gets one second
//! chance (CLOCK), and otherwise goes and counts as *evicted*. The
//! private `bounded` module keeps the shards, the rings and the
//! counters.
//!
//! Overwrites are handled lazily: each entry carries a shard-scoped
//! sequence number, and a ring slot whose sequence no longer matches
//! the stored entry is simply skipped. Only a budgeted store keeps
//! rings, compacted as overwrites and removals leave dead slots
//! behind. A budget eviction may remove a perfectly live entry, so scan
//! results are only guaranteed bit-identical when the L2 budget never
//! actually fires; the bounded-memory configurations trade exactness
//! for a working-set bound, as a serving front end must.

mod bounded;
pub mod infra;

use crate::diagnosis::Diagnosis;
use bounded::Bounded;
use ede_wire::name::shard_hash_of;
use ede_wire::{EdeEntry, Name, Rcode, Record, ReplyImage, RrType};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Number of independently-locked shards. A power of two so shard
/// selection is a mask; 16 is comfortably above any worker count the
/// scanner uses (worker pools cap at 16), keeping the expected number
/// of workers per shard lock at ~1.
pub const SHARD_COUNT: usize = 16;

/// What a completed resolution left behind: everything a hit on it
/// returns. The answers are an exactly sized boxed slice, and the EDE
/// list and the reply image sit behind one pointer (the tail), which
/// keeps the shared allocation, the `Arc`'s two counts included, within
/// 120 bytes: one 128-byte malloc chunk per entry. The tail is
/// allocated when the entry is stored with a non-empty EDE list, and
/// otherwise on the first hit a server writes from the image.
#[derive(Debug)]
pub struct CachedResolution {
    /// Final RCODE.
    pub rcode: Rcode,
    /// Answer records (empty for negative/failure entries).
    pub answers: Box<[Record]>,
    /// The diagnosis a hit reports: the resolution's own, plus
    /// [`Finding::CachedError`](crate::Finding::CachedError) for a
    /// failure.
    pub diagnosis: Diagnosis,
    /// The EDE list and the reply image; empty for an entry without EDE
    /// entries that no server has written from.
    tail: OnceLock<Box<Tail>>,
    /// True when this entry is a resolution *failure* (SERVFAIL) — a hit
    /// on it is a *Cached Error*.
    pub is_failure: bool,
}

/// What sits behind an entry's one tail pointer.
#[derive(Debug, Default)]
struct Tail {
    /// The EDE entries a hit returns: the profile's emission over the
    /// diagnosis.
    ede: Box<[EdeEntry]>,
    /// The reply a server writes for a hit, encoded on the first one;
    /// `None` when that failed.
    image: OnceLock<Option<ReplyImage>>,
}

impl CachedResolution {
    /// An entry; `ede` is the profile's emission over `diagnosis`.
    pub fn new(
        rcode: Rcode,
        answers: Box<[Record]>,
        diagnosis: Diagnosis,
        ede: Box<[EdeEntry]>,
        is_failure: bool,
    ) -> Self {
        let tail = if ede.is_empty() {
            OnceLock::new()
        } else {
            OnceLock::from(Box::new(Tail {
                ede,
                image: OnceLock::new(),
            }))
        };
        CachedResolution {
            rcode,
            answers,
            diagnosis,
            tail,
            is_failure,
        }
    }

    /// The EDE entries a hit returns: the profile's emission over the
    /// diagnosis.
    pub fn ede(&self) -> &[EdeEntry] {
        self.tail.get().map_or(&[], |tail| &tail.ede)
    }

    /// The reply a server writes for a hit on this entry, encoded by
    /// `encode` over the EDE list the first time it is asked for and
    /// kept; `None` when encoding failed.
    pub fn reply_image(
        &self,
        encode: impl FnOnce(&[EdeEntry]) -> Option<ReplyImage>,
    ) -> Option<&ReplyImage> {
        let tail = self.tail.get_or_init(Box::default);
        tail.image.get_or_init(|| encode(&tail.ede)).as_ref()
    }
}

/// What one store operation did to the cache, for the caller's
/// telemetry (the resolver turns a non-zero outcome into a
/// `CacheEvicted` trace event).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PutOutcome {
    /// Entries the budget's sweep removed because their deadline (TTL +
    /// stale window) had lapsed.
    pub expired: u64,
    /// Live entries removed by the budget's CLOCK sweep.
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
    /// Dead entries removed by the budget's sweep.
    pub expired: u64,
    /// Live entries removed by the budget's CLOCK sweep.
    pub evicted: u64,
    /// Stored entries right now, dead or alive (the quantity the entry
    /// budget bounds).
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
    /// Shard-scoped sequence number; ring slots referencing a superseded
    /// sequence are skipped (lazy deletion). 32 bits, so that an entry
    /// fits 48 bytes: the shard's table holds one per bucket.
    seq: u32,
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
#[derive(Debug)]
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

    /// The entry `slot` addresses, or `None` when that entry is gone or
    /// has been overwritten since.
    fn at_slot(&self, &(hash, seq): &Slot) -> Option<&Entry> {
        self.at_hash(hash).find(|e| e.seq == seq)
    }

    /// Remove the entry `slot` addresses; true when it was there. A
    /// stale sequence is a no-op.
    fn remove(&mut self, &(hash, seq): &Slot) -> bool {
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

/// A ring slot addresses one entry *at one sequence number* as
/// `(hash, seq)`; the ring holds these instead of references.
type Slot = (u64, u32);

/// The shared (L2) resolver cache.
pub struct Cache {
    store: Bounded,
    stale_window_secs: u32,
}

/// Deterministic hash of a probe key. The qname's canonical wire form
/// is hashed in place ([`Name::shard_hash`]'s hash) — no allocation,
/// no clone — then the qtype is mixed in.
fn probe_hash(qname: &[u8], qtype: u16) -> u64 {
    let mut h = shard_hash_of(qname);
    h ^= u64::from(qtype);
    h = h.wrapping_mul(0x100000001b3);
    h
}

impl Cache {
    /// An empty cache with the given serve-stale window, holding at
    /// most `max_entries` entries across all shards (`None`: unbounded).
    pub fn new(stale_window_secs: u32, max_entries: Option<usize>) -> Self {
        Cache {
            store: Bounded::new(max_entries),
            stale_window_secs,
        }
    }

    /// Probe for `(qname, qtype)` at time `now`, `qname` a canonical
    /// wire form ([`Name::as_wire`]'s, or a served request's).
    ///
    /// Hot-path guarantees: one shard lock, zero `Name` clones, zero
    /// `CachedResolution` deep clones — a hit is an `Arc` bump.
    pub fn get(&self, qname: &[u8], qtype: RrType, now: u32) -> CacheHit {
        let hit = self.get_inner(qname, qtype, now);
        match &hit {
            CacheHit::Fresh(..) => self.store.stats.probes.bump(|c| &c.hits),
            // A stale entry is only *served* through `get_stale_success`;
            // a plain probe that finds one proceeds to live resolution,
            // which is a miss from the client's point of view.
            CacheHit::Stale(_) | CacheHit::Miss => self.store.stats.probes.bump(|c| &c.misses),
        }
        hit
    }

    fn get_inner(&self, qname: &[u8], qtype: RrType, now: u32) -> CacheHit {
        let hash = probe_hash(qname, qtype.to_u16());
        let shard = self.store.lock(hash);
        let Some(entry) = shard
            .index
            .at_hash(hash)
            .find(|e| e.qtype == qtype.to_u16() && e.qname.as_wire() == qname)
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
        match self.get_inner(qname.as_wire(), qtype, now) {
            CacheHit::Stale(data) | CacheHit::Fresh(data) if !data.is_failure => {
                self.store.stats.probes.bump(|c| &c.stale_served);
                Some(data)
            }
            _ => None,
        }
    }

    /// Store a resolution with the given TTL. Returns what the budget's
    /// sweep removed to make room.
    pub fn put(
        &self,
        qname: &Name,
        qtype: RrType,
        data: CachedResolution,
        ttl: u32,
        now: u32,
    ) -> PutOutcome {
        self.store.stats.probes.bump(|c| &c.puts);
        let hash = probe_hash(qname.as_wire(), qtype.to_u16());
        // The Arc is built outside the lock; the lock only covers the
        // bucket splice.
        let data = Arc::new(data);
        let mut shard = self.store.lock(hash);

        // Splice the entry in (or refuse: a failure never clobbers a
        // still-stale-servable success — the success is what serve-stale
        // needs later; check and insert happen under the same shard
        // lock, so a concurrent successful put cannot be lost in
        // between).
        let seq = shard.next_seq();
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
                    return self.store.outcome(0, 0);
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
            None => {
                let entry = Entry {
                    qname: qname.clone(),
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
        self.store.track(&mut shard, (hash, seq), new);
        self.store.finish(&mut shard, now, self.stale_window_secs)
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
        let (answers, ede) = (Box::default(), Box::default());
        CachedResolution::new(Rcode::NoError, answers, Diagnosis::new(), ede, false)
    }

    fn failure() -> CachedResolution {
        let (answers, ede) = (Box::default(), Box::default());
        CachedResolution::new(Rcode::ServFail, answers, Diagnosis::new(), ede, true)
    }

    /// A serving cache holds per entry one table bucket (the hash and
    /// an `Entry`) and one shared allocation, so their sizes are the
    /// cache's footprint: the bucket is 56 bytes, and keeping the EDE
    /// list and the reply image must not take the allocation past its
    /// 128-byte malloc chunk (8 bytes of which are the chunk's header).
    /// Both sit behind the one tail pointer, allocated only for an entry
    /// with EDE entries or one a server has hit.
    #[test]
    fn an_entry_fits_its_bucket_and_one_malloc_chunk() {
        use std::mem::size_of;
        assert_eq!(size_of::<(u64, Entry)>(), 56);
        let shared = size_of::<CachedResolution>() + 2 * size_of::<usize>();
        assert!(shared <= 120, "{shared} bytes");
    }

    #[test]
    fn fresh_then_stale_then_miss() {
        let c = Cache::new(100, None);
        c.put(&n("a.com"), RrType::A, success(), 60, 1000);
        assert!(matches!(
            c.get(n("a.com").as_wire(), RrType::A, 1030),
            CacheHit::Fresh(..)
        ));
        assert!(matches!(
            c.get(n("a.com").as_wire(), RrType::A, 1061),
            CacheHit::Stale(_)
        ));
        assert!(matches!(
            c.get(n("a.com").as_wire(), RrType::A, 1160),
            CacheHit::Stale(_)
        ));
        assert!(matches!(
            c.get(n("a.com").as_wire(), RrType::A, 1161),
            CacheHit::Miss
        ));
    }

    #[test]
    fn failure_does_not_clobber_stale_success() {
        let c = Cache::new(1000, None);
        c.put(&n("a.com"), RrType::A, success(), 60, 1000);
        // Success has expired (stale), a failure comes in.
        c.put(&n("a.com"), RrType::A, failure(), 30, 1100);
        // The stale success must still be retrievable for serve-stale.
        assert!(c.get_stale_success(&n("a.com"), RrType::A, 1100).is_some());
    }

    #[test]
    fn failure_cached_when_no_success_exists() {
        let c = Cache::new(100, None);
        c.put(&n("b.com"), RrType::A, failure(), 30, 1000);
        match c.get(n("b.com").as_wire(), RrType::A, 1010) {
            CacheHit::Fresh(data) => assert!(data.is_failure),
            other => panic!("expected fresh failure, got {other:?}"),
        }
        assert!(c.get_stale_success(&n("b.com"), RrType::A, 1010).is_none());
    }

    #[test]
    fn types_are_separate() {
        let c = Cache::new(100, None);
        c.put(&n("a.com"), RrType::A, success(), 60, 1000);
        assert!(matches!(
            c.get(n("a.com").as_wire(), RrType::Aaaa, 1000),
            CacheHit::Miss
        ));
    }

    #[test]
    fn hits_share_one_allocation() {
        // The Arc-returning API is what enforces "zero deep clones on
        // the hit path": two probes of the same entry must hand back the
        // same allocation.
        let c = Cache::new(100, None);
        c.put(&n("a.com"), RrType::A, success(), 60, 1000);
        let (CacheHit::Fresh(first), CacheHit::Fresh(second)) = (
            c.get(n("a.com").as_wire(), RrType::A, 1010),
            c.get(n("a.com").as_wire(), RrType::A, 1020),
        ) else {
            panic!("expected two fresh hits");
        };
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn entries_spread_and_survive_across_shards() {
        // Many names land in many shards; every one must stay
        // retrievable (shard selection and bucket lookup must agree).
        let c = Cache::new(100, None);
        for i in 0..200 {
            c.put(&n(&format!("d{i}.example")), RrType::A, success(), 60, 0);
        }
        assert_eq!(c.stats().occupancy, 200);
        for i in 0..200 {
            assert!(
                matches!(
                    c.get(n(&format!("d{i}.example")).as_wire(), RrType::A, 10),
                    CacheHit::Fresh(..)
                ),
                "d{i}.example lost"
            );
        }
        c.clear();
        assert_eq!(c.stats().occupancy, 0);
        assert!(matches!(
            c.get(n("d0.example").as_wire(), RrType::A, 10),
            CacheHit::Miss
        ));
    }

    #[test]
    fn entry_budget_is_a_hard_global_bound() {
        let c = Cache::new(100, Some(10));
        let mut evicted = 0;
        for i in 0..100 {
            let out = c.put(&n(&format!("d{i}.example")), RrType::A, success(), 60, 0);
            assert!(c.stats().occupancy <= 10, "over budget after put {i}");
            evicted += out.evicted;
        }
        assert_eq!(c.stats().occupancy, 10);
        assert_eq!(evicted, 90);
        assert_eq!(c.stats().evicted, 90);
        assert!(c.stats().occupancy_peak <= 11);
    }

    #[test]
    fn clock_gives_hot_entries_a_second_chance() {
        let c = Cache::new(100, Some(4));
        // Names chosen freely; what matters is that the hot one is
        // probed (setting its reference bit) before pressure arrives.
        for i in 0..4 {
            c.put(&n(&format!("d{i}.example")), RrType::A, success(), 60, 0);
        }
        assert!(matches!(
            c.get(n("d0.example").as_wire(), RrType::A, 1),
            CacheHit::Fresh(..)
        ));
        for i in 4..12 {
            c.put(&n(&format!("d{i}.example")), RrType::A, success(), 60, 1);
        }
        assert_eq!(c.stats().occupancy, 4);
        // The referenced entry survived at least the first wave of
        // evictions in its shard; pressure in *other* shards can never
        // evict it at all. (d0 may eventually go if its own shard keeps
        // inserting, which is the CLOCK contract — one second chance,
        // not immortality.)
        let stats = c.stats();
        assert_eq!(stats.evicted, 8);
    }

    /// A budgeted store full of dead entries makes room from them
    /// first: the sweep removes a dead entry it reaches as `expired`,
    /// without the second chance a live one gets, and spends `evicted`
    /// only on live entries — so the new wave mostly survives, and the
    /// budget holds after every store.
    #[test]
    fn clock_sweep_takes_dead_entries_first() {
        let c = Cache::new(0, Some(64));
        for i in 0..64 {
            c.put(&n(&format!("old{i}.example")), RrType::A, success(), 32, 0);
        }
        assert_eq!(c.stats().occupancy, 64);

        // t = 100: every first-wave entry is past its deadline (32).
        for i in 0..64 {
            c.put(
                &n(&format!("new{i}.example")),
                RrType::A,
                success(),
                64,
                100,
            );
            assert!(c.stats().occupancy <= 64, "budget violated at put {i}");
        }

        let s = c.stats();
        assert_eq!(s.expired + s.evicted, 64, "one removal per store");
        for i in 0..64 {
            let hit = c.get(n(&format!("old{i}.example")).as_wire(), RrType::A, 101);
            assert!(matches!(hit, CacheHit::Miss), "old{i} outlived expiry");
        }
        let live = (0..64)
            .filter(|i| {
                let hit = c.get(n(&format!("new{i}.example")).as_wire(), RrType::A, 101);
                matches!(hit, CacheHit::Fresh(..))
            })
            .count();
        assert!(live >= 48, "only {live}/64 second-wave entries survived");
    }

    #[test]
    fn overwrite_does_not_leak_occupancy() {
        let c = Cache::new(100, None);
        for _ in 0..50 {
            c.put(&n("same.example"), RrType::A, success(), 60, 0);
        }
        assert_eq!(c.stats().occupancy, 1);
        assert!(matches!(
            c.get(n("same.example").as_wire(), RrType::A, 1),
            CacheHit::Fresh(..)
        ));
    }

    /// The ring holds slots, not entries, and a slot outlives the entry
    /// it addressed. It may not grow with how often something was
    /// stored: a long-running server re-stores the same names for
    /// ever. The ring — one slot per store, popped only by a sweep that
    /// runs only over budget — used to do exactly that.
    #[test]
    fn bookkeeping_is_bounded_by_live_entries() {
        const STORES: u32 = 10_000;
        // One key overwritten, no budget and under one never exceeded.
        for max_entries in [None, Some(100)] {
            let c = Cache::new(100, max_entries);
            for now in 0..STORES {
                c.put(&n("same.example"), RrType::A, success(), 60, now);
                for (live, ring) in c.store.bookkeeping() {
                    if max_entries.is_some() {
                        assert!(ring <= 2 * live + bounded::RING_SLACK, "{ring} / {live}");
                    } else {
                        assert_eq!(ring, 0, "nothing reads an unbudgeted ring");
                    }
                }
            }
            assert_eq!(c.stats().occupancy, 1);
        }
    }

    #[test]
    fn stats_track_probes() {
        let c = Cache::new(100, None);
        c.put(&n("a.com"), RrType::A, success(), 60, 1000);
        let _ = c.get(n("a.com").as_wire(), RrType::A, 1010); // hit
        let _ = c.get(n("b.com").as_wire(), RrType::A, 1010); // miss
        let _ = c.get(n("a.com").as_wire(), RrType::A, 1100); // stale → miss (not served)
        let _ = c.get_stale_success(&n("a.com"), RrType::A, 1100); // stale served
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.stale_served, 1);
        assert_eq!(s.puts, 1);
        assert!(s.hit_ratio() > 0.0);
    }
}
