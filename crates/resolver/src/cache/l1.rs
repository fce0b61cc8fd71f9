//! The L1 tier: a per-worker cache with zero synchronization.
//!
//! Every scan worker (and every [`crate::ResolutionPool`] host thread)
//! owns one [`L1Cache`] and probes it before the shared L2 store. The
//! type contains no `Mutex` and no atomics — all interior mutability is
//! `Cell`/`RefCell`, so it is `!Sync` by construction and the compiler
//! enforces single-threaded use. Pooled resolutions all borrow the one
//! their worker owns (the pool's `spawn` has no `Send` bound and takes
//! borrowing futures; see `docs/CONCURRENCY.md`).
//!
//! # Coherence
//!
//! An L1 answer entry is a *copy* of an L2 entry's `(data, stored_at,
//! ttl)` triple taken at hit/store time, and the L1 serves it only
//! while **fresh** (`age <= ttl` on the same virtual clock). Stale
//! serving stays centralized in L2. This makes coherence structural
//! rather than protocolized: L2 only replaces an entry after the old
//! one's freshness lapsed (a fresh entry is re-served, never
//! re-resolved), so an L1 copy and its L2 original can never both be
//! fresh with different data — by the time the original is replaced,
//! the copy's own window has lapsed on every worker's clock too. The
//! same holds for zone keys and referrals, which are shared `Arc`s
//! with embedded expiry. The only exception is budget eviction (L2 may
//! drop a live entry under memory pressure while an L1 copy survives
//! its remaining freshness window), which is exactly the configuration
//! where bit-identical replay is already forfeit.
//!
//! # Invalidation
//!
//! [`Resolver::flush`](crate::Resolver::flush) bumps a resolver-wide
//! generation counter; the resolver passes the current generation into
//! [`L1Cache::sync_generation`] once per resolution, and a mismatch
//! clears every map. (That one generation read is the resolver's — the
//! L1 itself still performs no atomic operation.)
//!
//! # Capacity
//!
//! Each map is capped (default [`DEFAULT_L1_CAPACITY`] entries). On
//! overflow the map is cleared wholesale — an epoch flip, not LRU.
//! Deterministic, allocation-friendly, and for a tier whose job is
//! catching *extremely* hot entries (TLD referrals, zone keys, repeat
//! qnames), re-warming after a flip costs one L2 round-trip per entry.

use super::infra::{KeyEntry, ReferralEntry};
use super::{probe_hash, CachedResolution};
use ede_wire::{Name, RrType};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// Default per-map entry cap.
pub const DEFAULT_L1_CAPACITY: usize = 4096;

/// One mirrored answer entry.
struct L1Answer {
    /// Owned key material for collision resolution, like the L2 entry.
    qname: Name,
    qtype: u16,
    data: Arc<CachedResolution>,
    stored_at: u32,
    ttl: u32,
}

/// A frozen copy of one L1's counters (summed across workers by the
/// scanner).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L1StatsSnapshot {
    /// Answer probes served from this tier.
    pub hits: u64,
    /// Answer probes that fell through to L2.
    pub misses: u64,
    /// Zone-key lookups served from this tier.
    pub key_hits: u64,
    /// Referral lookups served from this tier.
    pub referral_hits: u64,
    /// Whole-map clears forced by the capacity cap (epoch flips).
    pub capacity_flips: u64,
    /// Whole-cache clears forced by a generation bump (resolver flush).
    pub generation_flushes: u64,
}

impl L1StatsSnapshot {
    /// Merge another worker's counters into this one.
    pub fn merge(&mut self, other: &L1StatsSnapshot) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.key_hits += other.key_hits;
        self.referral_hits += other.referral_hits;
        self.capacity_flips += other.capacity_flips;
        self.generation_flushes += other.generation_flushes;
    }

    /// Hit ratio in `[0, 1]` over answer probes.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The per-worker tier. `Send + !Sync`: it can move to (or be built on)
/// a worker thread, but two threads can never share one.
pub struct L1Cache {
    answers: RefCell<HashMap<u64, L1Answer>>,
    keys: RefCell<HashMap<Name, Arc<KeyEntry>>>,
    referrals: RefCell<HashMap<Name, Arc<ReferralEntry>>>,
    generation: Cell<u64>,
    capacity: usize,
    hits: Cell<u64>,
    misses: Cell<u64>,
    key_hits: Cell<u64>,
    referral_hits: Cell<u64>,
    capacity_flips: Cell<u64>,
    generation_flushes: Cell<u64>,
}

impl Default for L1Cache {
    fn default() -> Self {
        Self::new()
    }
}

impl L1Cache {
    /// An empty tier with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_L1_CAPACITY)
    }

    /// An empty tier capping each map at `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        L1Cache {
            answers: RefCell::new(HashMap::new()),
            keys: RefCell::new(HashMap::new()),
            referrals: RefCell::new(HashMap::new()),
            generation: Cell::new(0),
            capacity: capacity.max(1),
            hits: Cell::new(0),
            misses: Cell::new(0),
            key_hits: Cell::new(0),
            referral_hits: Cell::new(0),
            capacity_flips: Cell::new(0),
            generation_flushes: Cell::new(0),
        }
    }

    /// Adopt the resolver's current cache generation; on mismatch the
    /// whole tier is invalidated (the shared stores were flushed).
    pub fn sync_generation(&self, generation: u64) {
        if self.generation.get() != generation {
            if self.generation.get() != 0 || generation != 0 {
                // Count real flushes, not the first adoption.
                if !self.answers.borrow().is_empty()
                    || !self.keys.borrow().is_empty()
                    || !self.referrals.borrow().is_empty()
                {
                    self.generation_flushes
                        .set(self.generation_flushes.get() + 1);
                }
            }
            self.answers.borrow_mut().clear();
            self.keys.borrow_mut().clear();
            self.referrals.borrow_mut().clear();
            self.generation.set(generation);
        }
    }

    /// Probe for a **fresh** answer. Stale entries never come from L1 —
    /// serve-stale decisions belong to L2, and refusing to serve past
    /// TTL is what makes L1 coherence trivial.
    pub fn get_answer(
        &self,
        qname: &Name,
        qtype: RrType,
        now: u32,
    ) -> Option<Arc<CachedResolution>> {
        let hash = probe_hash(qname, qtype.to_u16());
        let answers = self.answers.borrow();
        let hit = answers.get(&hash).filter(|e| {
            e.qtype == qtype.to_u16()
                && e.qname == *qname
                && now.saturating_sub(e.stored_at) <= e.ttl
        });
        match hit {
            Some(e) => {
                self.hits.set(self.hits.get() + 1);
                Some(Arc::clone(&e.data))
            }
            None => {
                self.misses.set(self.misses.get() + 1);
                None
            }
        }
    }

    /// Mirror an L2 answer entry (its data plus its *exact* freshness
    /// window — the L1 copy must never outlive the original's TTL).
    pub fn put_answer(
        &self,
        qname: &Name,
        qtype: RrType,
        data: Arc<CachedResolution>,
        stored_at: u32,
        ttl: u32,
    ) {
        let hash = probe_hash(qname, qtype.to_u16());
        let mut answers = self.answers.borrow_mut();
        if answers.len() >= self.capacity && !answers.contains_key(&hash) {
            answers.clear();
            self.capacity_flips.set(self.capacity_flips.get() + 1);
        }
        answers.insert(
            hash,
            L1Answer {
                qname: qname.detached(),
                qtype: qtype.to_u16(),
                data,
                stored_at,
                ttl,
            },
        );
    }

    /// Probe for a live zone-key entry.
    pub(crate) fn get_key(&self, zone: &Name, now: u32) -> Option<Arc<KeyEntry>> {
        let keys = self.keys.borrow();
        let entry = keys.get(zone).filter(|e| e.live(now))?;
        self.key_hits.set(self.key_hits.get() + 1);
        Some(Arc::clone(entry))
    }

    /// Mirror a shared zone-key entry.
    pub(crate) fn put_key(&self, zone: &Name, entry: Arc<KeyEntry>) {
        let mut keys = self.keys.borrow_mut();
        if keys.len() >= self.capacity && !keys.contains_key(zone) {
            keys.clear();
            self.capacity_flips.set(self.capacity_flips.get() + 1);
        }
        keys.insert(zone.detached(), entry);
    }

    /// Probe for a live referral entry.
    pub fn get_referral(&self, zone: &Name, now: u32) -> Option<Arc<ReferralEntry>> {
        let referrals = self.referrals.borrow();
        let entry = referrals.get(zone).filter(|e| e.live(now))?;
        self.referral_hits.set(self.referral_hits.get() + 1);
        Some(Arc::clone(entry))
    }

    /// Mirror a shared referral entry.
    pub fn put_referral(&self, entry: Arc<ReferralEntry>) {
        let mut referrals = self.referrals.borrow_mut();
        if referrals.len() >= self.capacity && !referrals.contains_key(&entry.zone) {
            referrals.clear();
            self.capacity_flips.set(self.capacity_flips.get() + 1);
        }
        referrals.insert(entry.zone.clone(), entry);
    }

    /// A frozen copy of this tier's counters.
    pub fn stats(&self) -> L1StatsSnapshot {
        L1StatsSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            key_hits: self.key_hits.get(),
            referral_hits: self.referral_hits.get(),
            capacity_flips: self.capacity_flips.get(),
            generation_flushes: self.generation_flushes.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnosis::Diagnosis;
    use ede_wire::Rcode;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn data() -> Arc<CachedResolution> {
        Arc::new(CachedResolution {
            rcode: Rcode::NoError,
            answers: Vec::new(),
            diagnosis: Diagnosis::new(),
            is_failure: false,
        })
    }

    #[test]
    fn serves_fresh_only() {
        let l1 = L1Cache::new();
        l1.put_answer(&n("a.com"), RrType::A, data(), 1000, 60);
        assert!(l1.get_answer(&n("a.com"), RrType::A, 1060).is_some());
        // One second past TTL: L1 must refuse (stale is L2's business).
        assert!(l1.get_answer(&n("a.com"), RrType::A, 1061).is_none());
        let s = l1.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let l1 = L1Cache::new();
        l1.sync_generation(1);
        l1.put_answer(&n("a.com"), RrType::A, data(), 0, 60);
        l1.sync_generation(1);
        assert!(l1.get_answer(&n("a.com"), RrType::A, 10).is_some());
        l1.sync_generation(2);
        assert!(l1.get_answer(&n("a.com"), RrType::A, 10).is_none());
        assert_eq!(l1.stats().generation_flushes, 1);
    }

    #[test]
    fn capacity_overflow_flips_the_map() {
        let l1 = L1Cache::with_capacity(4);
        for i in 0..4 {
            l1.put_answer(&n(&format!("d{i}.example")), RrType::A, data(), 0, 60);
        }
        assert!(l1.get_answer(&n("d0.example"), RrType::A, 1).is_some());
        l1.put_answer(&n("overflow.example"), RrType::A, data(), 0, 60);
        assert_eq!(l1.stats().capacity_flips, 1);
        assert!(l1.get_answer(&n("d0.example"), RrType::A, 1).is_none());
        assert!(l1
            .get_answer(&n("overflow.example"), RrType::A, 1)
            .is_some());
    }

    #[test]
    fn l1_is_send_and_not_sync() {
        fn assert_send<T: Send>() {}
        assert_send::<L1Cache>();
        // !Sync is enforced by Cell/RefCell; this is a compile-time
        // property (an `impl Sync` would be rejected by the interior
        // mutability), asserted here informally.
    }
}
