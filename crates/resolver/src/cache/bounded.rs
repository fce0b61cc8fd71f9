//! Expiry, budget and accounting for the sharded tiers, written once.
//!
//! The L2 store (`Cache`) and the range tier (`RangeCache`) keep
//! different things — resolutions by `(qname, qtype)`, denial spans by
//! zone and owner — and bound them identically; the `cache` module's
//! header describes the policy. [`Bounded`] is its one implementation:
//! [`SHARD_COUNT`] independently-locked shards, each a tier's own
//! entries (an [`Index`]) beside the wheel and ring that expire and
//! evict them. A tier tells the store only how to find the reference
//! bit of the entry a slot addresses and how to remove it.

use super::{CacheLimits, CacheStatsSnapshot, PutOutcome, SHARD_COUNT};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// Width of one TTL-wheel bucket, seconds (as a shift: 64 s). Coarse on
/// purpose: the wheel only needs to find *dead* entries cheaply, the
/// exact freshness test still runs per probe.
pub(super) const WHEEL_SHIFT: u32 = 6;

/// A ring is compacted when it outgrows twice its shard's live entries
/// plus this; keeps tiny shards from compacting on every store.
pub(super) const RING_SLACK: usize = 16;

/// One shard's worth of a tier's own entries, as the store sees them.
pub(super) trait Index: Default {
    /// Addresses one stored entry *at one sequence number*; wheel and
    /// ring hold these instead of references.
    type Slot: Clone;

    /// The CLOCK reference bit of the entry `slot` addresses, or `None`
    /// when that entry is gone or has been overwritten since.
    fn reference_bit(&self, slot: &Self::Slot) -> Option<&Cell<bool>>;

    /// Remove the entry `slot` addresses; true when it was there. A
    /// stale sequence is a no-op.
    fn remove(&mut self, slot: &Self::Slot) -> bool;
}

/// One lockable slice of a tier.
pub(super) struct Shard<I: Index> {
    /// The tier's entries.
    pub index: I,
    /// TTL wheel: coarse deadline bucket → slots.
    wheel: BTreeMap<u32, Vec<I::Slot>>,
    /// Insertion ring for the CLOCK sweep, in store order; empty
    /// without a budget.
    ring: VecDeque<I::Slot>,
    next_seq: u64,
    /// Entries in `index` right now.
    live: usize,
}

// Not derived: that would ask `I::Slot` for a default nothing needs.
impl<I: Index> Default for Shard<I> {
    fn default() -> Self {
        Shard {
            index: I::default(),
            wheel: BTreeMap::new(),
            ring: VecDeque::new(),
            next_seq: 0,
            live: 0,
        }
    }
}

impl<I: Index> Shard<I> {
    /// A fresh shard-scoped sequence number for an entry about to be
    /// stored or overwritten.
    pub fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Drop the ring slots a sweep would skip — entry gone or
    /// overwritten since — once they outnumber the live entries, so the
    /// ring is bounded by what is stored, not by how often. The order of
    /// the rest is kept, so no eviction decision changes.
    fn compact_ring(&mut self) {
        let bound = 2 * self.live + RING_SLACK;
        if self.ring.len() > bound {
            let index = &self.index;
            self.ring.retain(|slot| index.reference_bit(slot).is_some());
            self.ring.shrink_to(bound);
        }
    }
}

/// A sharded tier's shards, budget and counters.
pub(super) struct Bounded<I: Index> {
    shards: [Mutex<Shard<I>>; SHARD_COUNT],
    max_entries: Option<usize>,
    /// Stored entries across all shards (including expired-but-unpurged
    /// ones). Global so the budget is a whole-tier bound even though
    /// eviction runs in the inserting shard.
    occupancy: AtomicU64,
    pub stats: Counters,
}

/// Live side of [`CacheStatsSnapshot`]: lock-free atomics. The tier
/// bumps the probe and store counters, the store its own removals.
#[derive(Default)]
pub(super) struct Counters {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub stale_served: AtomicU64,
    pub puts: AtomicU64,
    expired: AtomicU64,
    evicted: AtomicU64,
    occupancy_peak: AtomicU64,
}

impl<I: Index> Bounded<I> {
    /// An empty tier with the given entry budget.
    pub fn new(limits: CacheLimits) -> Self {
        Bounded {
            shards: std::array::from_fn(|_| Mutex::default()),
            max_entries: limits.max_entries,
            occupancy: AtomicU64::new(0),
            stats: Counters::default(),
        }
    }

    /// Lock the shard `hash` selects.
    pub fn lock(&self, hash: u64) -> MutexGuard<'_, Shard<I>> {
        self.shards[(hash as usize) & (SHARD_COUNT - 1)]
            .lock()
            .expect("no poisoning")
    }

    /// Every shard in turn, locked one at a time.
    pub fn shards(&self) -> impl Iterator<Item = MutexGuard<'_, Shard<I>>> {
        self.shards.iter().map(|s| s.lock().expect("no poisoning"))
    }

    /// First step of a store: drain every wheel bucket of `shard` that
    /// lies wholly before `now`, physically removing the (certainly
    /// dead) entries it references. Returns how many went.
    pub fn turn_wheel(&self, shard: &mut Shard<I>, now: u32) -> u64 {
        let cutoff = now >> WHEEL_SHIFT;
        if shard
            .wheel
            .first_key_value()
            .is_none_or(|(&b, _)| b >= cutoff)
        {
            return 0;
        }
        let live = shard.wheel.split_off(&cutoff);
        let dead = std::mem::replace(&mut shard.wheel, live);
        let mut expired = 0;
        for slot in dead.into_values().flatten() {
            if shard.index.remove(&slot) {
                expired += 1;
            }
        }
        shard.live -= expired;
        shard.compact_ring();
        self.occupancy.fetch_sub(expired as u64, Relaxed);
        self.stats.expired.fetch_add(expired as u64, Relaxed);
        expired as u64
    }

    /// Second step, once per entry the tier has just put in
    /// `shard.index`: file `slot` under `deadline`, and count the entry
    /// when it is `new` rather than an overwrite (whose old slots keep
    /// the superseded sequence and are skipped lazily).
    pub fn track(&self, shard: &mut Shard<I>, slot: I::Slot, deadline: u32, new: bool) {
        if new {
            shard.live += 1;
            let occupancy = self.occupancy.fetch_add(1, Relaxed) + 1;
            self.stats.occupancy_peak.fetch_max(occupancy, Relaxed);
        }
        if self.max_entries.is_some() {
            shard.ring.push_back(slot.clone());
            shard.compact_ring();
        }
        shard
            .wheel
            .entry(deadline >> WHEEL_SHIFT)
            .or_default()
            .push(slot);
    }

    /// Last step: enforce the budget with a CLOCK sweep over `shard`'s
    /// ring (the inserting shard always holds at least the entry just
    /// stored, so the global bound is restorable locally) and report
    /// what the whole store operation removed.
    pub fn finish(&self, shard: &mut Shard<I>, expired: u64) -> PutOutcome {
        let mut evicted = 0;
        if let Some(max) = self.max_entries {
            // One full second-chance lap, then evict unconditionally:
            // termination cannot depend on every entry being hot.
            let mut chances = shard.ring.len();
            while self.occupancy.load(Relaxed) > max as u64 {
                let Some(slot) = shard.ring.pop_front() else {
                    break;
                };
                let Some(referenced) = shard.index.reference_bit(&slot) else {
                    continue; // superseded slot
                };
                if referenced.get() && chances > 0 {
                    chances -= 1;
                    referenced.set(false);
                    shard.ring.push_back(slot);
                } else if shard.index.remove(&slot) {
                    shard.live -= 1;
                    evicted += 1;
                    self.occupancy.fetch_sub(1, Relaxed);
                    self.stats.evicted.fetch_add(1, Relaxed);
                }
            }
        }
        self.outcome(expired, evicted)
    }

    /// The outcome of a store operation that removed this much.
    pub fn outcome(&self, expired: u64, evicted: u64) -> PutOutcome {
        PutOutcome {
            expired,
            evicted,
            occupancy: self.occupancy.load(Relaxed),
        }
    }

    /// Stored entries right now, including expired-but-unpurged ones
    /// (the quantity the entry budget bounds).
    pub fn total_entries(&self) -> usize {
        self.occupancy.load(Relaxed) as usize
    }

    /// Turn every shard's wheel to `now`, returning how many entries
    /// went. Stores turn their own shard's wheel lazily; this is the
    /// eager, whole-tier form.
    pub fn purge_expired(&self, now: u32) -> u64 {
        self.shards()
            .map(|mut shard| self.turn_wheel(&mut shard, now))
            .sum()
    }

    /// A frozen copy of the counters.
    pub fn stats(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.stats.hits.load(Relaxed),
            misses: self.stats.misses.load(Relaxed),
            stale_served: self.stats.stale_served.load(Relaxed),
            puts: self.stats.puts.load(Relaxed),
            expired: self.stats.expired.load(Relaxed),
            evicted: self.stats.evicted.load(Relaxed),
            occupancy: self.occupancy.load(Relaxed),
            occupancy_peak: self.stats.occupancy_peak.load(Relaxed),
        }
    }

    /// Drop every entry. Counters other than the occupancy gauge are
    /// preserved.
    pub fn clear(&self) {
        for mut shard in self.shards() {
            *shard = Shard::default();
        }
        self.occupancy.store(0, Relaxed);
    }

    /// Per shard `(live entries, ring slots, wheel slots)`.
    #[cfg(test)]
    pub fn bookkeeping(&self) -> Vec<(usize, usize, usize)> {
        self.shards()
            .map(|s| {
                let wheel = s.wheel.values().map(Vec::len).sum();
                (s.live, s.ring.len(), wheel)
            })
            .collect()
    }
}
