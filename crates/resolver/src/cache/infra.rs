//! The infrastructure cache: validated zone keys and root-level
//! referral sets, keyed by zone.
//!
//! The iterative engine used to re-derive the same delegation data for
//! every one of the scan's 303k resolutions: walk from the root, parse
//! the same root→TLD referral, re-validate the same DS RRset. The key
//! half of this cache (the former per-resolver `KeyCache` of
//! `iterative.rs`) already removed the DNSKEY re-fetches; the referral
//! half removes the walk's first hop as well.
//!
//! # Keys
//!
//! [`KeyEntry`] caches the result of validating one zone's DNSKEY
//! RRset. Replaying the stored findings on every hit keeps
//! ancestor-zone conditions (like the stand-by-key case of §4.2.3,
//! which lives at a TLD) visible in every resolution that crosses the
//! zone. An entry holds one copy of what later links read: the trusted
//! keys when validation held, or else only the tags of the keys the
//! zone published (the one thing the advisory check of a bogus zone's
//! answers reads). The shards store entries as `Arc<KeyEntry>`, so
//! every resolution crossing a popular zone (a TLD, say) borrows the
//! same keys instead of deep-cloning them per crossing. The shards mark
//! each zone whose keys are being fetched (see `KeyShard::building`), so
//! a miss storm performs exactly one upstream fetch: the task that set
//! the mark fetches, and the others park until it is gone
//! (`Engine::zone_keys`).
//!
//! A one-shot resolution (`Resolver::resolve_once`) stores the keys of
//! every zone it crosses at a cut (the root, a TLD), which the next
//! resolution through that cut reads, but not those of the zone its
//! answer comes from: a caller that will not ask the name again will
//! not cross that zone again either. A scan's key tier therefore holds
//! its TLDs and the domains it revisits, not one entry per signed
//! domain. The fetch still sets and clears the zone's build mark.
//!
//! # Referrals
//!
//! [`ReferralEntry`] caches one root→TLD delegation: the delegated
//! zone, its server addresses (from glue), the DS RRset, and the
//! facts needed to replay the hop's `Referral` trace event. Entries
//! are only created from **clean** hops — hops that recorded no
//! finding, no nameserver event, and no validation-state change — so
//! replaying one is diagnosis-neutral by construction: the engine just
//! starts the walk one zone down. Hops that *did* record something
//! (chaos faults, broken proofs, lame roots) are never cached and
//! always re-walk live, which keeps every diagnosis self-consistent.
//!
//! The referral tier is deliberately restricted to delegations out of
//! the root (TLD zones): those are crossed by every single resolution,
//! and the restriction bounds the tier's size by the TLD count — no
//! budget or eviction machinery needed.

use crate::diagnosis::{Diagnosis, Finding, ValidationState};
use crate::validate::{DnskeyValidation, PublishedKey};
use ede_trace::Striped;
use ede_wire::{Name, Rdata};
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, PoisonError};

/// Number of independently-locked shards (power of two). Both halves of
/// the infrastructure cache are hit once per zone cut of every
/// resolution, so they share the resolution cache's contention profile
/// and get the same treatment.
const INFRA_SHARDS: usize = 16;

/// Cached result of validating one zone's DNSKEY RRset.
pub struct KeyEntry {
    /// What validating the zone's keys left for its data to be checked
    /// against.
    pub(crate) keys: ChainKeys,
    /// Findings the original validation recorded; replayed on every hit.
    pub(crate) findings: Vec<Finding>,
    /// The validation state the original validation degraded to.
    pub(crate) state: ValidationState,
    /// Virtual-clock second past which the entry is dead.
    pub(crate) expires: u32,
}

impl KeyEntry {
    /// True when the entry is still usable at `now`.
    pub(crate) fn live(&self, now: u32) -> bool {
        self.expires > now
    }

    /// Replay what validating this zone's keys found into `diag`.
    pub(crate) fn replay(&self, diag: &mut Diagnosis) {
        for f in &self.findings {
            diag.add(f.clone());
        }
        diag.degrade(self.state);
    }

    /// The keys that chained to the trust anchor, if validation held.
    pub(crate) fn trusted(&self) -> Option<&[PublishedKey]> {
        match &self.keys {
            ChainKeys::Trusted(keys) => Some(keys),
            ChainKeys::Bogus { .. } => None,
        }
    }
}

/// The keys a [`KeyEntry`] keeps: the trusted ones, or — when the chain
/// failed and the zone is bogus until re-fetch — the tags of the keys it
/// published, and nothing else of them.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ChainKeys {
    /// The zone keys that chained to the trust anchor.
    Trusted(Vec<PublishedKey>),
    /// Validation failed.
    Bogus {
        /// Every published key's tag, in RRset order.
        published_tags: Vec<u16>,
    },
}

impl ChainKeys {
    /// What to keep of a validation's outcome.
    pub(crate) fn keep(validation: DnskeyValidation) -> Self {
        match validation.trusted {
            Some(keys) => ChainKeys::Trusted(keys),
            None => ChainKeys::Bogus {
                published_tags: validation.published.iter().map(|k| k.tag).collect(),
            },
        }
    }
}

/// One cached root→TLD delegation, replayable without touching the
/// diagnosis (see the module docs for the clean-hop rule).
#[derive(Debug, Clone)]
pub struct ReferralEntry {
    /// The delegated zone (a TLD).
    pub zone: Name,
    /// The zone's server addresses, as the live hop resolved them
    /// (glue, or the NS-chase fallback).
    pub servers: Vec<IpAddr>,
    /// The delegation's DS RRset; empty when the hop left the chain of
    /// trust (or the resolver has no trust anchors at all).
    pub ds_rdatas: Vec<Rdata>,
    /// NS-name count of the original referral (for the replayed
    /// `Referral` trace event).
    pub ns_count: usize,
    /// Whether the original referral carried a DS RRset (for the
    /// replayed `Referral` trace event).
    pub signed: bool,
    /// Virtual-clock second past which the entry is dead.
    pub expires: u32,
}

impl ReferralEntry {
    /// True when the entry is still usable at `now`.
    pub fn live(&self, now: u32) -> bool {
        self.expires > now
    }
}

/// One lockable slice of the key cache: the validated entries plus the
/// zones whose DNSKEY fetch is under way. The marks give the cache
/// *singleflight* semantics — when several tasks miss on the same zone
/// at once, exactly one performs the fetch and the rest replay the
/// entry it stores. Without them, a miss storm duplicates upstream
/// queries, which both wastes work and makes the scan's query counters
/// depend on thread timing.
#[derive(Default)]
pub(crate) struct KeyShard {
    pub(crate) entries: HashMap<Name, Arc<KeyEntry>>,
    pub(crate) building: HashSet<Name>,
}

/// A zone's mark in [`KeyShard::building`], held by the task fetching
/// its keys. Dropping it removes the mark however the build ends —
/// stored, or its task dropped mid-fetch — so a parked task then finds
/// the entry or builds it itself.
pub(crate) struct BuildMark<'a> {
    pub(crate) infra: &'a InfraCache,
    pub(crate) zone: &'a Name,
}

impl Drop for BuildMark<'_> {
    /// Never panics, which would abort a thread that is unwinding: a
    /// shard poisoned by a panic elsewhere still holds valid maps.
    fn drop(&mut self) {
        let shard = self.infra.key_shard(self.zone).lock();
        let mut shard = shard.unwrap_or_else(PoisonError::into_inner);
        shard.building.remove(self.zone);
    }
}

/// The infrastructure cache: sharded zone-key and referral stores, plus
/// hit counters for the per-tier cache report. Every resolution bumps a
/// counter here, so they go to the writing thread's stripe.
#[derive(Default)]
pub struct InfraCache {
    key_shards: [Mutex<KeyShard>; INFRA_SHARDS],
    referral_shards: [Mutex<HashMap<Name, Arc<ReferralEntry>>>; INFRA_SHARDS],
    counts: Striped<InfraCounts>,
}

/// One stripe of the infrastructure cache's counters; the fields are
/// [`InfraStatsSnapshot`]'s.
#[derive(Debug, Default)]
struct InfraCounts {
    key_hits: AtomicU64,
    referral_hits: AtomicU64,
    referral_misses: AtomicU64,
}

/// A frozen copy of the infrastructure cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InfraStatsSnapshot {
    /// Zone-key entries replayed from the shared store.
    pub key_hits: u64,
    /// Root→TLD referral hops replayed from the shared store.
    pub referral_hits: u64,
    /// Referral probes that found nothing (the hop walked live).
    pub referral_misses: u64,
}

impl InfraStatsSnapshot {
    /// Referral hit ratio in `[0, 1]`.
    pub fn referral_hit_ratio(&self) -> f64 {
        let total = self.referral_hits + self.referral_misses;
        if total == 0 {
            0.0
        } else {
            self.referral_hits as f64 / total as f64
        }
    }
}

impl InfraCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn key_shard(&self, zone: &Name) -> &Mutex<KeyShard> {
        &self.key_shards[(zone.shard_hash() as usize) & (INFRA_SHARDS - 1)]
    }

    /// Count one shared-store key replay (the engine calls this when it
    /// serves a key entry out of a `key_shard`).
    pub(crate) fn count_key_hit(&self) {
        self.counts.bump(|c| &c.key_hits);
    }

    fn referral_shard(&self, zone: &Name) -> &Mutex<HashMap<Name, Arc<ReferralEntry>>> {
        &self.referral_shards[(zone.shard_hash() as usize) & (INFRA_SHARDS - 1)]
    }

    /// Look up the cached root→TLD referral for `zone` at `now`.
    pub fn get_referral(&self, zone: &Name, now: u32) -> Option<Arc<ReferralEntry>> {
        let shard = self.referral_shard(zone).lock().expect("no poisoning");
        match shard.get(zone) {
            Some(e) if e.live(now) => {
                self.counts.bump(|c| &c.referral_hits);
                Some(Arc::clone(e))
            }
            _ => {
                self.counts.bump(|c| &c.referral_misses);
                None
            }
        }
    }

    /// Store one clean root→TLD referral hop.
    pub fn put_referral(&self, entry: ReferralEntry) -> Arc<ReferralEntry> {
        let zone = entry.zone.clone();
        let entry = Arc::new(entry);
        self.referral_shard(&zone)
            .lock()
            .expect("no poisoning")
            .insert(zone, Arc::clone(&entry));
        entry
    }

    /// A frozen copy of the hit counters.
    pub fn stats(&self) -> InfraStatsSnapshot {
        InfraStatsSnapshot {
            key_hits: self.counts.sum(|c| &c.key_hits),
            referral_hits: self.counts.sum(|c| &c.referral_hits),
            referral_misses: self.counts.sum(|c| &c.referral_misses),
        }
    }

    /// Drop every entry (flushes and tests). Counters are preserved, and
    /// so are build marks: each belongs to a fetch under way.
    pub fn clear(&self) {
        for shard in &self.key_shards {
            shard.lock().expect("no poisoning").entries.clear();
        }
        for shard in &self.referral_shards {
            shard.lock().expect("no poisoning").clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn referral_round_trip_and_expiry() {
        let infra = InfraCache::new();
        assert!(infra.get_referral(&n("tld"), 0).is_none());
        infra.put_referral(ReferralEntry {
            zone: n("tld"),
            servers: vec!["192.0.2.53".parse().unwrap()],
            ds_rdatas: Vec::new(),
            ns_count: 2,
            signed: false,
            expires: 100,
        });
        let hit = infra.get_referral(&n("tld"), 50).expect("live");
        assert_eq!(hit.ns_count, 2);
        assert!(infra.get_referral(&n("tld"), 100).is_none(), "expired");
        let s = infra.stats();
        assert_eq!(s.referral_hits, 1);
        assert_eq!(s.referral_misses, 2);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let infra = InfraCache::new();
        infra.put_referral(ReferralEntry {
            zone: n("tld"),
            servers: Vec::new(),
            ds_rdatas: Vec::new(),
            ns_count: 1,
            signed: true,
            expires: 100,
        });
        assert!(infra.get_referral(&n("tld"), 0).is_some());
        infra.clear();
        assert!(infra.get_referral(&n("tld"), 0).is_none());
        assert_eq!(infra.stats().referral_hits, 1);
    }
}
