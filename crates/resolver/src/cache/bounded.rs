//! Budget and accounting for the L2 store.
//!
//! The `cache` module's header describes the policy. [`Bounded`] is its
//! implementation: [`SHARD_COUNT`] independently-locked shards, each the
//! store's own entries beside the ring that evicts them.

use super::{CacheStatsSnapshot, Entries, PutOutcome, Slot, SHARD_COUNT};
use ede_trace::Striped;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// A ring is compacted when it outgrows twice its shard's live entries
/// plus this; keeps tiny shards from compacting on every store.
pub(super) const RING_SLACK: usize = 16;

/// One lockable slice of the store.
#[derive(Default)]
pub(super) struct Shard {
    /// The store's entries.
    pub index: Entries,
    /// Insertion ring for the CLOCK sweep, in store order; empty
    /// without a budget.
    ring: VecDeque<Slot>,
    next_seq: u32,
    /// Entries in `index` right now.
    live: usize,
}

impl Shard {
    /// A fresh shard-scoped sequence number for an entry about to be
    /// stored or overwritten. It wraps after 2³² stores to the shard,
    /// which no slot lives to see: a slot goes stale when its entry is
    /// stored again or removed, and the compaction below drops every
    /// stale slot within 2 × live + `RING_SLACK` stores.
    pub fn next_seq(&mut self) -> u32 {
        self.next_seq = self.next_seq.wrapping_add(1);
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
            self.ring.retain(|slot| index.at_slot(slot).is_some());
            self.ring.shrink_to(bound);
        }
    }
}

/// The store's shards, budget and counters.
pub(super) struct Bounded {
    shards: [Mutex<Shard>; SHARD_COUNT],
    max_entries: Option<usize>,
    /// Stored entries across all shards, dead or alive. Global so the
    /// budget is a whole-store bound even though eviction runs in the
    /// inserting shard.
    occupancy: AtomicU64,
    pub stats: Counters,
}

/// Live side of [`CacheStatsSnapshot`]: lock-free atomics. The cache
/// bumps the probe and store counts — once per probe, from every
/// worker, so they go to the writing thread's stripe — and the store its
/// own removals, which happen under a shard lock.
#[derive(Default)]
pub(super) struct Counters {
    pub probes: Striped<ProbeCounts>,
    expired: AtomicU64,
    evicted: AtomicU64,
    occupancy_peak: AtomicU64,
}

/// One stripe of the store's probe and store counts.
#[derive(Debug, Default)]
pub(super) struct ProbeCounts {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub stale_served: AtomicU64,
    pub puts: AtomicU64,
}

impl Bounded {
    /// An empty store with the given entry budget (`None`: unbounded).
    pub fn new(max_entries: Option<usize>) -> Self {
        Bounded {
            shards: std::array::from_fn(|_| Mutex::default()),
            max_entries,
            occupancy: AtomicU64::new(0),
            stats: Counters::default(),
        }
    }

    /// Lock the shard `hash` selects.
    pub fn lock(&self, hash: u64) -> MutexGuard<'_, Shard> {
        self.shards[(hash as usize) & (SHARD_COUNT - 1)]
            .lock()
            .expect("no poisoning")
    }

    /// Every shard in turn, locked one at a time.
    pub fn shards(&self) -> impl Iterator<Item = MutexGuard<'_, Shard>> {
        self.shards.iter().map(|s| s.lock().expect("no poisoning"))
    }

    /// First step, once per entry the cache has just put in
    /// `shard.index`: ring `slot` under a budget, and count the entry
    /// when it is `new` rather than an overwrite (whose old slot keeps
    /// the superseded sequence and is skipped lazily).
    pub fn track(&self, shard: &mut Shard, slot: Slot, new: bool) {
        if new {
            shard.live += 1;
            let occupancy = self.occupancy.fetch_add(1, Relaxed) + 1;
            self.stats.occupancy_peak.fetch_max(occupancy, Relaxed);
        }
        if self.max_entries.is_some() {
            shard.ring.push_back(slot);
            shard.compact_ring();
        }
    }

    /// Last step: enforce the budget with a CLOCK sweep over `shard`'s
    /// ring (the inserting shard always holds at least the entry just
    /// stored, so the global bound is restorable locally) and report
    /// what it removed. An entry past its deadline at `now` — its TTL
    /// and `stale_window` both spent — goes without a second chance and
    /// counts as expired; a live one is evicted.
    pub fn finish(&self, shard: &mut Shard, now: u32, stale_window: u32) -> PutOutcome {
        let (mut expired, mut evicted) = (0, 0);
        if let Some(max) = self.max_entries {
            // One full second-chance lap, then evict unconditionally:
            // termination cannot depend on every entry being hot.
            let mut chances = shard.ring.len();
            while self.occupancy.load(Relaxed) > max as u64 {
                let Some(slot) = shard.ring.pop_front() else {
                    break;
                };
                let Some(entry) = shard.index.at_slot(&slot) else {
                    continue; // superseded slot
                };
                let dead = now > entry.deadline(stale_window);
                if !dead && chances > 0 && entry.referenced.replace(false) {
                    chances -= 1;
                    shard.ring.push_back(slot);
                } else if shard.index.remove(&slot) {
                    shard.live -= 1;
                    self.occupancy.fetch_sub(1, Relaxed);
                    if dead {
                        expired += 1;
                        self.stats.expired.fetch_add(1, Relaxed);
                    } else {
                        evicted += 1;
                        self.stats.evicted.fetch_add(1, Relaxed);
                    }
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

    /// A frozen copy of the counters.
    pub fn stats(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.stats.probes.sum(|c| &c.hits),
            misses: self.stats.probes.sum(|c| &c.misses),
            stale_served: self.stats.probes.sum(|c| &c.stale_served),
            puts: self.stats.probes.sum(|c| &c.puts),
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

    /// Per shard `(live entries, ring slots)`.
    #[cfg(test)]
    pub fn bookkeeping(&self) -> Vec<(usize, usize)> {
        self.shards().map(|s| (s.live, s.ring.len())).collect()
    }
}
