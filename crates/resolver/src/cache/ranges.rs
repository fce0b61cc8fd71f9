//! The range-keyed denial tier (RFC 8198 aggressive use of the
//! DNSSEC-validated cache).
//!
//! Exact-`(name, type)` caching cannot help a miss-heavy workload where
//! every queried name is unique — but a *validated* NSEC/NSEC3 record
//! proves the nonexistence of an entire span of names, not just the one
//! that was asked. This tier retains those spans after `validate.rs`
//! has verified them and answers later queries for *covered* names
//! locally, skipping the authority round-trip entirely.
//!
//! # Layout
//!
//! Entries are grouped per zone (denial proofs are only meaningful
//! relative to the zone that signed them), and zones are spread over
//! [`super::SHARD_COUNT`] independently-locked shards by a hash of the
//! apex name, mirroring the L2 store. Within a zone, NSEC3 intervals live in
//! a `BTreeMap` keyed by the 20-byte hashed owner (lookup = one
//! `range(..h).next_back()` plus a wraparound check) and NSEC intervals
//! in a `BTreeMap` keyed by the owner's canonical-order key.
//!
//! # Synthesis rules
//!
//! Synthesis is deliberately conservative — a wrong answer here is an
//! invented NXDOMAIN for a name that exists:
//!
//! * a **matching** interval (owner hash equals the query hash) whose
//!   bitmap has NS set and SOA clear is a delegation point: the parent
//!   zone is authoritative for nothing but DS there, so only a DS
//!   NODATA may be synthesized (RFC 5155 §8.9 semantics);
//! * a matching interval with a CNAME bit never synthesizes (the live
//!   answer would be the CNAME, not NODATA);
//! * NXDOMAIN needs a covering interval for the query hash, a covering
//!   interval for the closest encloser's wildcard, **and** a closest-
//!   encloser proof. The tier short-circuits the encloser walk: it only
//!   synthesizes NXDOMAIN when the qname is exactly one label below the
//!   zone apex, where the apex — known to exist, it signed the proofs —
//!   is provably the closest encloser. Deeper names fall through to a
//!   live query. This narrowing trades a little coverage for never
//!   having to guess at empty non-terminals;
//! * opt-out NSEC3 records are not retained at all: their intervals do
//!   not deny the existence of unsigned delegations (RFC 5155 §6).
//!
//! # Expiry and budget
//!
//! An interval is servable until `min(stored_at + ttl, RRSIG
//! expiration)` — a proof must not outlive the signature that made it
//! trustworthy. Dead intervals drain on store and a [`CacheLimits`]
//! entry budget evicts by second chance, reported as a [`PutOutcome`]:
//! the L2 store's policy, shared with it (see the `cache` module).
//!
//! # Freezing
//!
//! [`RangeCache::freeze`] stops retention while keeping reads live. The
//! scanner uses this to keep its negative-load sweep deterministic
//! across worker counts: a frozen tier's contents are a pure set-union
//! of the validated proofs seen before the freeze, independent of the
//! order workers produced them.

use super::bounded::{Bounded, Index};
use super::{CacheLimits, CacheStatsSnapshot, PutOutcome};
use ede_crypto::nsec3hash;
use ede_wire::rdata::{Octets, TypeBitmap};
use ede_wire::{Name, Rdata, RrType};
use ede_zone::{nsec3, Rrset};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// One validated denial span, as extracted by the validator from a
/// proof it has fully verified (signature and shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofRange {
    /// A verified NSEC3 record: `owner_hash` exists (with `types`) and
    /// nothing hashes strictly between `owner_hash` and `next_hash`.
    Nsec3 {
        /// Extra hash iterations the zone uses.
        iterations: u16,
        /// Hash salt the zone uses.
        salt: Octets,
        /// NSEC3 flags field; bit 0 is opt-out.
        flags: u8,
        /// Hashed owner name (raw digest).
        owner_hash: Vec<u8>,
        /// Hashed next owner (raw digest).
        next_hash: Vec<u8>,
        /// Types present at the owner.
        types: TypeBitmap,
        /// Record TTL.
        ttl: u32,
        /// Covering RRSIG's expiration time.
        sig_expiration: u32,
    },
    /// A verified NSEC record: `owner` exists (with `types`) and no
    /// name sorts strictly between `owner` and `next`.
    Nsec {
        /// Owner name.
        owner: Name,
        /// Next owner in canonical order.
        next: Name,
        /// Types present at the owner.
        types: TypeBitmap,
        /// Record TTL.
        ttl: u32,
        /// Covering RRSIG's expiration time.
        sig_expiration: u32,
    },
}

impl ProofRange {
    /// The span one NSEC or NSEC3 RRset states, for the validator to
    /// call once a signature expiring at `sig_expiration` has verified
    /// over `set`. `None` for any other RRset, or an NSEC3 owner label
    /// that is not a hash.
    pub(crate) fn of_rrset(set: &Rrset, sig_expiration: u32) -> Option<ProofRange> {
        match set.rdatas.first()? {
            Rdata::Nsec3 {
                flags,
                iterations,
                salt,
                next_hashed,
                types,
                ..
            } => Some(ProofRange::Nsec3 {
                iterations: *iterations,
                salt: salt.clone(),
                flags: *flags,
                owner_hash: nsec3::owner_hash(set)?,
                next_hash: next_hashed.to_vec(),
                types: types.clone(),
                ttl: set.ttl,
                sig_expiration,
            }),
            Rdata::Nsec { next, types } => Some(ProofRange::Nsec {
                owner: set.name.clone(),
                next: next.clone(),
                types: types.clone(),
                ttl: set.ttl,
                sig_expiration,
            }),
            _ => None,
        }
    }
}

/// What the tier synthesized for a covered name. `ttl` is the smallest
/// remaining freshness among the intervals the verdict rests on, so a
/// caller caching the synthesized answer cannot outlive its evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthesizedDenial {
    /// The name provably does not exist.
    Nxdomain {
        /// Remaining validity of the evidence, seconds.
        ttl: u32,
    },
    /// The name exists but the queried type is provably absent.
    Nodata {
        /// Remaining validity of the evidence, seconds.
        ttl: u32,
    },
}

impl SynthesizedDenial {
    /// Remaining validity of the evidence, seconds.
    pub fn ttl(&self) -> u32 {
        match self {
            SynthesizedDenial::Nxdomain { ttl } | SynthesizedDenial::Nodata { ttl } => *ttl,
        }
    }

    /// True for the NXDOMAIN form.
    pub fn is_nxdomain(&self) -> bool {
        matches!(self, SynthesizedDenial::Nxdomain { .. })
    }
}

/// One stored interval: `key → (next, types)` plus freshness and
/// eviction bookkeeping (mirroring the L2 entry).
#[derive(Debug)]
struct Interval {
    /// Successor key (hashed owner for NSEC3, canonical key for NSEC).
    next: Vec<u8>,
    types: TypeBitmap,
    stored_at: u32,
    ttl: u32,
    sig_expiration: u32,
    seq: u64,
    referenced: Cell<bool>,
}

impl Interval {
    /// Seconds of servable life left at `now` (0 = dead). Capped by the
    /// signature expiration: a proof is only as durable as its RRSIG.
    fn remaining(&self, now: u32) -> u32 {
        let by_ttl = self.stored_at.saturating_add(self.ttl);
        by_ttl.min(self.sig_expiration).saturating_sub(now)
    }
}

/// Which per-zone map a wheel/ring slot points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Nsec3,
    Nsec,
}

/// All retained intervals for one zone.
#[derive(Debug, Default)]
struct ZoneRanges {
    /// NSEC3 parameters the stored hashes were computed under. Set by
    /// the first retained NSEC3 range; ranges under different
    /// parameters are ignored (re-keying on a parameter change would
    /// make contents order-dependent, breaking scan determinism).
    params: Option<(u16, Octets)>,
    /// Hashed owner → interval.
    nsec3: BTreeMap<Vec<u8>, Interval>,
    /// Canonical owner key → interval.
    nsec: BTreeMap<Vec<u8>, Interval>,
}

impl ZoneRanges {
    fn map(&self, kind: Kind) -> &BTreeMap<Vec<u8>, Interval> {
        match kind {
            Kind::Nsec3 => &self.nsec3,
            Kind::Nsec => &self.nsec,
        }
    }

    fn map_mut(&mut self, kind: Kind) -> &mut BTreeMap<Vec<u8>, Interval> {
        match kind {
            Kind::Nsec3 => &mut self.nsec3,
            Kind::Nsec => &mut self.nsec,
        }
    }

    fn is_empty(&self) -> bool {
        self.nsec3.is_empty() && self.nsec.is_empty()
    }
}

/// One shard's zones: zone-apex hash → per-zone ranges. The tiny
/// collision vector resolves 64-bit hash collisions by comparing the
/// apex name.
#[derive(Default)]
struct Zones(HashMap<u64, Vec<(Name, ZoneRanges)>>);

impl Zones {
    fn zone(&self, hash: u64, apex: &Name) -> Option<&ZoneRanges> {
        self.0
            .get(&hash)?
            .iter()
            .find(|(n, _)| n == apex)
            .map(|(_, z)| z)
    }

    fn zone_mut(&mut self, hash: u64, apex: &Name) -> &mut ZoneRanges {
        let bucket = self.0.entry(hash).or_default();
        if let Some(idx) = bucket.iter().position(|(n, _)| n == apex) {
            return &mut bucket[idx].1;
        }
        bucket.push((apex.clone(), ZoneRanges::default()));
        &mut bucket.last_mut().expect("just pushed").1
    }
}

/// A wheel or ring slot addresses an interval as `(zone hash, map,
/// owner key, sequence)`.
impl Index for Zones {
    type Slot = (u64, Kind, Vec<u8>, u64);

    fn reference_bit(&self, (hash, kind, key, seq): &Self::Slot) -> Option<&Cell<bool>> {
        let mut zones = self.0.get(hash)?.iter();
        let interval =
            zones.find_map(|(_, z)| z.map(*kind).get(key).filter(|iv| iv.seq == *seq))?;
        Some(&interval.referenced)
    }

    fn remove(&mut self, (hash, kind, key, seq): &Self::Slot) -> bool {
        let Some(bucket) = self.0.get_mut(hash) else {
            return false;
        };
        let holds = |z: &ZoneRanges| z.map(*kind).get(key).is_some_and(|iv| iv.seq == *seq);
        let Some(at) = bucket.iter().position(|(_, z)| holds(z)) else {
            return false;
        };
        let zone = &mut bucket[at].1;
        zone.map_mut(*kind).remove(key);
        if zone.is_empty() {
            bucket.swap_remove(at);
            if bucket.is_empty() {
                self.0.remove(hash);
            }
        }
        true
    }
}

/// The range-keyed denial tier.
pub struct RangeCache {
    store: Bounded<Zones>,
    frozen: AtomicBool,
}

/// Canonical-order key for NSEC lookups: labels reversed (rightmost
/// first), lowercased, each terminated by `0x00`. Lexicographic order
/// of these keys matches RFC 4034 §6.1 canonical name order for any
/// label bytes that occur in practice.
fn canonical_key(name: &Name) -> Vec<u8> {
    let labels: Vec<&[u8]> = name.labels().collect();
    let mut key = Vec::with_capacity(name.wire_len());
    for label in labels.iter().rev() {
        key.extend(label.iter().map(|b| b.to_ascii_lowercase()));
        key.push(0);
    }
    key
}

/// True when `h` lies strictly inside the arc from `owner` to `next`,
/// accounting for the wraparound arc (`next <= owner`) that closes the
/// ring. An endpoint is never covered — it *exists*.
fn covers(owner: &[u8], next: &[u8], h: &[u8]) -> bool {
    if h == owner || h == next {
        return false;
    }
    if owner < next {
        owner < h && h < next
    } else {
        // Wraparound (or single-owner) arc: everything except the
        // endpoints.
        h > owner || h < next
    }
}

impl Default for RangeCache {
    fn default() -> Self {
        RangeCache::new()
    }
}

impl RangeCache {
    /// An empty, unbounded tier.
    pub fn new() -> Self {
        RangeCache::with_limits(CacheLimits::default())
    }

    /// An empty tier with the given entry budget.
    pub fn with_limits(limits: CacheLimits) -> Self {
        RangeCache {
            store: Bounded::new(limits),
            frozen: AtomicBool::new(false),
        }
    }

    /// Stop (true) or resume (false) retention. Reads stay live either
    /// way.
    pub fn freeze(&self, frozen: bool) {
        self.frozen.store(frozen, Relaxed);
    }

    /// True while retention is disabled.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Relaxed)
    }

    /// Retain validated denial spans for `zone`. Returns the same
    /// expiry/eviction accounting as an L2 `put`.
    pub fn retain(&self, zone: &Name, ranges: &[ProofRange], now: u32) -> PutOutcome {
        if ranges.is_empty() || self.is_frozen() {
            return self.store.outcome(0, 0);
        }
        let hash = zone.shard_hash();
        let mut shard = self.store.lock(hash);
        let expired = self.store.turn_wheel(&mut shard, now);

        // Splice the spans in. Insertion is a set-union keyed by owner:
        // re-validating the same proof overwrites in place (refreshing
        // TTL bookkeeping), so the resulting contents do not depend on
        // the order concurrent workers validated them once the clock
        // stands still (as it does within a scan pass).
        for range in ranges {
            let (kind, key, next, types, ttl, sig_expiration) = match range {
                ProofRange::Nsec3 {
                    iterations,
                    salt,
                    flags,
                    owner_hash,
                    next_hash,
                    types,
                    ttl,
                    sig_expiration,
                } => {
                    // Opt-out spans do not deny unsigned delegations.
                    if flags & 0x01 != 0 {
                        continue;
                    }
                    let zr = shard.index.zone_mut(hash, zone);
                    match &zr.params {
                        None => zr.params = Some((*iterations, salt.clone())),
                        Some((it, s)) if (it, s) != (iterations, salt) => continue,
                        Some(_) => {}
                    }
                    (
                        Kind::Nsec3,
                        owner_hash.clone(),
                        next_hash.clone(),
                        types,
                        *ttl,
                        *sig_expiration,
                    )
                }
                ProofRange::Nsec {
                    owner,
                    next,
                    types,
                    ttl,
                    sig_expiration,
                } => (
                    Kind::Nsec,
                    canonical_key(owner),
                    canonical_key(next),
                    types,
                    *ttl,
                    *sig_expiration,
                ),
            };
            self.store.stats.probes.bump(|c| &c.puts);
            let seq = shard.next_seq();
            let deadline = now.saturating_add(ttl).min(sig_expiration);
            let interval = Interval {
                next,
                types: types.clone(),
                stored_at: now,
                ttl,
                sig_expiration,
                seq,
                referenced: Cell::new(false),
            };
            let map = shard.index.zone_mut(hash, zone).map_mut(kind);
            let new = match map.get_mut(&key) {
                Some(iv) => {
                    *iv = interval;
                    iv.referenced.set(true);
                    false
                }
                None => map.insert(key.clone(), interval).is_none(),
            };
            self.store
                .track(&mut shard, (hash, kind, key, seq), deadline, new);
        }
        self.store.finish(&mut shard, expired)
    }

    /// Try to synthesize a denial for `(qname, qtype)` from retained
    /// spans, walking qname's ancestors (deepest first) to find the
    /// closest zone with evidence. Counts one probe (hit or miss).
    pub fn deny(&self, qname: &Name, qtype: RrType, now: u32) -> Option<SynthesizedDenial> {
        let mut zone = Some(qname.clone());
        let mut verdict = None;
        while let Some(apex) = zone {
            if let Some(v) = self.deny_in_zone(&apex, qname, qtype, now) {
                verdict = Some(v);
                break;
            }
            zone = apex.parent();
        }
        match verdict {
            Some(_) => self.store.stats.probes.bump(|c| &c.hits),
            None => self.store.stats.probes.bump(|c| &c.misses),
        }
        verdict
    }

    /// Synthesis attempt against one zone's retained spans.
    fn deny_in_zone(
        &self,
        apex: &Name,
        qname: &Name,
        qtype: RrType,
        now: u32,
    ) -> Option<SynthesizedDenial> {
        let hash = apex.shard_hash();
        let shard = self.store.lock(hash);
        let zr = shard.index.zone(hash, apex)?;

        if let Some((iterations, salt)) = &zr.params {
            let qh = nsec3hash::nsec3_hash(qname.as_wire(), salt, *iterations);
            if let Some(v) = Self::verdict(
                &zr.nsec3,
                &qh,
                |n| nsec3hash::nsec3_hash(n.as_wire(), salt, *iterations).to_vec(),
                apex,
                qname,
                qtype,
                now,
            ) {
                return Some(v);
            }
        }
        if !zr.nsec.is_empty() {
            let qk = canonical_key(qname);
            return Self::verdict(&zr.nsec, &qk, canonical_key, apex, qname, qtype, now);
        }
        None
    }

    /// The shared NSEC/NSEC3 decision procedure over one ordered map,
    /// parameterized by the key function (`hash` for NSEC3, canonical
    /// key for NSEC).
    fn verdict(
        map: &BTreeMap<Vec<u8>, Interval>,
        qkey: &[u8],
        key_of: impl Fn(&Name) -> Vec<u8>,
        apex: &Name,
        qname: &Name,
        qtype: RrType,
        now: u32,
    ) -> Option<SynthesizedDenial> {
        if let Some(iv) = map.get(qkey) {
            let ttl = iv.remaining(now);
            if ttl == 0 {
                return None;
            }
            iv.referenced.set(true);
            // The name exists. A delegation point (NS without SOA) is
            // authoritative parent-side for DS only; anything else must
            // ask the child zone live.
            if iv.types.contains(RrType::Ns) && !iv.types.contains(RrType::Soa) {
                if qtype == RrType::Ds && !iv.types.contains(RrType::Ds) {
                    return Some(SynthesizedDenial::Nodata { ttl });
                }
                return None;
            }
            // A DS query at this zone's own apex belongs to the parent
            // zone; this zone's bitmap cannot answer it.
            if qtype == RrType::Ds && iv.types.contains(RrType::Soa) {
                return None;
            }
            // A CNAME would rewrite the answer, not deny it.
            if iv.types.contains(RrType::Cname) {
                return None;
            }
            if !iv.types.contains(qtype) {
                return Some(SynthesizedDenial::Nodata { ttl });
            }
            return None;
        }

        // NXDOMAIN: only when the apex is provably the closest encloser
        // — the qname sits exactly one label below it.
        if qname.parent().as_ref() != Some(apex) {
            return None;
        }
        let (cover_iv, cover_ttl) = Self::covering(map, qkey, now)?;
        let wildcard = apex.child("*").ok()?;
        let wkey = key_of(&wildcard);
        if map.contains_key(&wkey) {
            // The wildcard exists; the live answer would be an
            // expansion, not NXDOMAIN.
            return None;
        }
        let (wild_iv, wild_ttl) = Self::covering(map, &wkey, now)?;
        cover_iv.referenced.set(true);
        wild_iv.referenced.set(true);
        Some(SynthesizedDenial::Nxdomain {
            ttl: cover_ttl.min(wild_ttl),
        })
    }

    /// The fresh interval strictly covering `key`, if any.
    fn covering<'a>(
        map: &'a BTreeMap<Vec<u8>, Interval>,
        key: &[u8],
        now: u32,
    ) -> Option<(&'a Interval, u32)> {
        // Predecessor owner, falling back to the last owner for keys
        // that precede the whole map (the wraparound arc).
        let (owner, iv) = map
            .range::<[u8], _>((Bound::Unbounded, Bound::Excluded(key)))
            .next_back()
            .or_else(|| map.iter().next_back())?;
        if !covers(owner, &iv.next, key) {
            return None;
        }
        let ttl = iv.remaining(now);
        if ttl == 0 {
            return None;
        }
        Some((iv, ttl))
    }

    /// Stored intervals right now (the quantity the entry budget
    /// bounds).
    pub fn total_entries(&self) -> usize {
        self.store.total_entries()
    }

    /// Eagerly remove every interval past its deadline, across all
    /// shards.
    pub fn purge_expired(&self, now: u32) -> u64 {
        self.store.purge_expired(now)
    }

    /// A frozen copy of the tier's counters, in the same shape as the
    /// other cache tiers (`stale_served` is always zero — there is no
    /// serve-stale for proofs). Hits and misses count [`Self::deny`]
    /// probes.
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
    use super::super::bounded::RING_SLACK;
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    const ITER: u16 = 0;
    const SALT: &[u8] = &[0xab, 0xcd];

    fn h(name: &str) -> Vec<u8> {
        nsec3hash::nsec3_hash(n(name).as_wire(), SALT, ITER).to_vec()
    }

    /// A full honest NSEC3 chain over `owners` (plus their bitmaps),
    /// as the validator would extract it.
    fn chain(owners: &[(&str, &[RrType])], ttl: u32, sig_expiration: u32) -> Vec<ProofRange> {
        let mut hashed: Vec<(Vec<u8>, TypeBitmap)> = owners
            .iter()
            .map(|(o, t)| (h(o), TypeBitmap::from_types(t.iter().copied())))
            .collect();
        hashed.sort_by(|a, b| a.0.cmp(&b.0));
        (0..hashed.len())
            .map(|i| ProofRange::Nsec3 {
                iterations: ITER,
                salt: SALT.into(),
                flags: 0,
                owner_hash: hashed[i].0.clone(),
                next_hash: hashed[(i + 1) % hashed.len()].0.clone(),
                types: hashed[i].1.clone(),
                ttl,
                sig_expiration,
            })
            .collect()
    }

    const APEX_TYPES: &[RrType] = &[
        RrType::Soa,
        RrType::Ns,
        RrType::Dnskey,
        RrType::Nsec3param,
        RrType::Rrsig,
    ];

    #[test]
    fn nxdomain_synthesized_for_covered_name() {
        let rc = RangeCache::new();
        let zone = n("example");
        let ranges = chain(
            &[
                ("example", APEX_TYPES),
                ("alpha.example", &[RrType::Ns]),
                ("beta.example", &[RrType::Ns]),
            ],
            300,
            10_000,
        );
        rc.retain(&zone, &ranges, 100);
        // Every unregistered direct child of the apex is now provably
        // absent: the full chain covers the whole hash ring.
        for probe in ["zz000.example", "nope.example", "x.example"] {
            match rc.deny(&n(probe), RrType::A, 150) {
                Some(SynthesizedDenial::Nxdomain { ttl }) => assert_eq!(ttl, 250),
                other => panic!("{probe}: expected NXDOMAIN, got {other:?}"),
            }
        }
        assert_eq!(rc.stats().hits, 3);
    }

    #[test]
    fn registered_owner_is_never_denied() {
        let rc = RangeCache::new();
        let zone = n("example");
        rc.retain(
            &zone,
            &chain(
                &[("example", APEX_TYPES), ("alpha.example", &[RrType::Ns])],
                300,
                10_000,
            ),
            100,
        );
        // A delegation point: the parent can only speak to DS absence.
        assert_eq!(rc.deny(&n("alpha.example"), RrType::A, 150), None);
        assert_eq!(
            rc.deny(&n("alpha.example"), RrType::Ds, 150),
            Some(SynthesizedDenial::Nodata { ttl: 250 })
        );
    }

    #[test]
    fn nodata_synthesized_from_matching_bitmap() {
        let rc = RangeCache::new();
        let zone = n("example");
        rc.retain(&zone, &chain(&[("example", APEX_TYPES)], 300, 10_000), 100);
        // AAAA is absent from the apex bitmap → NODATA.
        assert_eq!(
            rc.deny(&n("example"), RrType::Aaaa, 150),
            Some(SynthesizedDenial::Nodata { ttl: 250 })
        );
        // SOA is present → cannot deny.
        assert_eq!(rc.deny(&n("example"), RrType::Soa, 150), None);
        // DS at the apex belongs to the parent zone.
        assert_eq!(rc.deny(&n("example"), RrType::Ds, 150), None);
    }

    #[test]
    fn nxdomain_needs_wildcard_cover() {
        let rc = RangeCache::new();
        let zone = n("example");
        // Retain only the arc that covers the probe — if the wildcard
        // hash happens to fall in the *other* arc, synthesis must
        // refuse. Build a two-owner chain and retain one record at a
        // time to find such a split.
        let ranges = chain(
            &[("example", APEX_TYPES), ("alpha.example", &[RrType::Ns])],
            300,
            10_000,
        );
        let probe = n("zz000.example");
        let ph = h("zz000.example");
        let wh = h("*.example");
        let covering_probe: Vec<ProofRange> = ranges
            .iter()
            .filter(|r| match r {
                ProofRange::Nsec3 {
                    owner_hash,
                    next_hash,
                    ..
                } => covers(owner_hash, next_hash, &ph),
                _ => false,
            })
            .cloned()
            .collect();
        assert_eq!(covering_probe.len(), 1);
        let same_arc = match &covering_probe[0] {
            ProofRange::Nsec3 {
                owner_hash,
                next_hash,
                ..
            } => covers(owner_hash, next_hash, &wh),
            _ => unreachable!(),
        };
        rc.retain(&zone, &covering_probe, 100);
        let got = rc.deny(&probe, RrType::A, 150);
        if same_arc {
            assert!(matches!(got, Some(SynthesizedDenial::Nxdomain { .. })));
        } else {
            assert_eq!(got, None, "wildcard arc missing → no synthesis");
            // Retaining the rest of the chain unlocks it.
            rc.retain(&zone, &ranges, 100);
            assert!(matches!(
                rc.deny(&probe, RrType::A, 150),
                Some(SynthesizedDenial::Nxdomain { .. })
            ));
        }
    }

    #[test]
    fn deeper_names_are_not_synthesized() {
        let rc = RangeCache::new();
        let zone = n("example");
        rc.retain(&zone, &chain(&[("example", APEX_TYPES)], 300, 10_000), 100);
        // Two labels below the apex: the closest-encloser shortcut does
        // not apply, so no NXDOMAIN even though the hash is covered.
        assert_eq!(rc.deny(&n("a.b.example"), RrType::A, 150), None);
    }

    #[test]
    fn expiry_is_capped_by_signature_validity() {
        let rc = RangeCache::new();
        let zone = n("example");
        // TTL would allow until 100+300=400, but the RRSIG dies at 200.
        rc.retain(&zone, &chain(&[("example", APEX_TYPES)], 300, 200), 100);
        assert_eq!(
            rc.deny(&n("example"), RrType::Aaaa, 150),
            Some(SynthesizedDenial::Nodata { ttl: 50 })
        );
        assert_eq!(rc.deny(&n("example"), RrType::Aaaa, 200), None);
    }

    #[test]
    fn ttl_expiry_removes_intervals() {
        let rc = RangeCache::new();
        let zone = n("example");
        rc.retain(&zone, &chain(&[("example", APEX_TYPES)], 30, 10_000), 0);
        assert_eq!(rc.total_entries(), 1);
        assert!(rc.deny(&n("example"), RrType::Aaaa, 10).is_some());
        assert_eq!(rc.deny(&n("example"), RrType::Aaaa, 31), None);
        // The wheel physically removes it once its bucket is past.
        assert_eq!(rc.purge_expired(128), 1);
        assert_eq!(rc.total_entries(), 0);
        assert_eq!(rc.stats().expired, 1);
    }

    #[test]
    fn opt_out_ranges_are_not_retained() {
        let rc = RangeCache::new();
        let zone = n("example");
        let mut ranges = chain(&[("example", APEX_TYPES)], 300, 10_000);
        for r in &mut ranges {
            if let ProofRange::Nsec3 { flags, .. } = r {
                *flags = 0x01;
            }
        }
        rc.retain(&zone, &ranges, 100);
        assert_eq!(rc.total_entries(), 0);
        assert_eq!(rc.deny(&n("zz.example"), RrType::A, 150), None);
    }

    #[test]
    fn frozen_tier_serves_but_does_not_retain() {
        let rc = RangeCache::new();
        let zone = n("example");
        rc.retain(&zone, &chain(&[("example", APEX_TYPES)], 300, 10_000), 100);
        rc.freeze(true);
        rc.retain(
            &n("other"),
            &chain(&[("other", APEX_TYPES)], 300, 10_000),
            100,
        );
        assert_eq!(rc.total_entries(), 1, "frozen tier must not grow");
        // Existing evidence still serves.
        assert!(rc.deny(&n("example"), RrType::Aaaa, 150).is_some());
        rc.freeze(false);
        rc.retain(
            &n("other"),
            &chain(&[("other", APEX_TYPES)], 300, 10_000),
            100,
        );
        assert_eq!(rc.total_entries(), 2);
    }

    #[test]
    fn entry_budget_is_a_hard_bound_with_clock_eviction() {
        let rc = RangeCache::with_limits(CacheLimits {
            max_entries: Some(8),
        });
        for i in 0..50 {
            let zone = n(&format!("z{i}.example"));
            let apex = format!("z{i}.example");
            rc.retain(&zone, &chain(&[(&apex, APEX_TYPES)], 300, 10_000), 0);
            assert!(rc.total_entries() <= 8, "over budget after zone {i}");
        }
        assert_eq!(rc.total_entries(), 8);
        let stats = rc.stats();
        assert_eq!(stats.evicted + 8, stats.puts);
        assert!(stats.occupancy_peak <= 9);
    }

    /// The range tier's half of `cache::tests`' test of the same name:
    /// one span retained over and over leaves one ring slot per shard
    /// entry, not one per retain (and none at all without a budget).
    #[test]
    fn bookkeeping_is_bounded_by_live_entries() {
        let budget = CacheLimits {
            max_entries: Some(100),
        };
        for limits in [CacheLimits::default(), budget] {
            let budgeted = limits.max_entries.is_some();
            let rc = RangeCache::with_limits(limits);
            let span = chain(&[("example", APEX_TYPES)], 300, u32::MAX);
            for now in 0..10_000 {
                rc.retain(&n("example"), &span, now);
            }
            assert_eq!(rc.total_entries(), 1);
            for (live, ring, wheel) in rc.store.bookkeeping() {
                if budgeted {
                    assert!(ring <= 2 * live + RING_SLACK, "{ring} / {live}");
                } else {
                    assert_eq!(ring, 0, "nothing reads an unbudgeted ring");
                }
                assert!(wheel <= 300 + 2 * 64, "{wheel} wheel slots");
            }
        }
    }

    #[test]
    fn nsec_ranges_synthesize_too() {
        let rc = RangeCache::new();
        let zone = n("example");
        // Canonical order: example < alpha.example < beta.example.
        let mk = |owner: &str, next: &str, types: &[RrType]| ProofRange::Nsec {
            owner: n(owner),
            next: n(next),
            types: TypeBitmap::from_types(types.iter().copied()),
            ttl: 300,
            sig_expiration: 10_000,
        };
        rc.retain(
            &zone,
            &[
                mk("example", "alpha.example", APEX_TYPES),
                mk("alpha.example", "beta.example", &[RrType::Ns]),
                mk("beta.example", "example", &[RrType::Ns]),
            ],
            100,
        );
        // "zz.example" sorts after beta.example → wraparound arc; the
        // wildcard "*.example" sorts before alpha.example → first arc.
        assert!(matches!(
            rc.deny(&n("zz.example"), RrType::A, 150),
            Some(SynthesizedDenial::Nxdomain { ttl: 250 })
        ));
        // Matching NSEC: NODATA for absent type at the apex.
        assert!(matches!(
            rc.deny(&n("example"), RrType::Aaaa, 150),
            Some(SynthesizedDenial::Nodata { .. })
        ));
        // Registered delegation: never denied for A.
        assert_eq!(rc.deny(&n("alpha.example"), RrType::A, 150), None);
    }

    #[test]
    fn canonical_key_orders_like_rfc_4034() {
        // RFC 4034 §6.1 example ordering (subset).
        let ordered = [
            "example",
            "a.example",
            "yljkjljk.a.example",
            "z.a.example",
            "zabc.a.example",
            "z.example",
        ];
        let keys: Vec<Vec<u8>> = ordered.iter().map(|s| canonical_key(&n(s))).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "canonical order violated");
        }
    }

    #[test]
    fn mismatched_nsec3_params_are_ignored() {
        let rc = RangeCache::new();
        let zone = n("example");
        rc.retain(&zone, &chain(&[("example", APEX_TYPES)], 300, 10_000), 100);
        let alien = ProofRange::Nsec3 {
            iterations: 5,
            salt: [0x01].into(),
            flags: 0,
            owner_hash: vec![0u8; 20],
            next_hash: vec![0xffu8; 20],
            types: TypeBitmap::new(),
            ttl: 300,
            sig_expiration: 10_000,
        };
        rc.retain(&zone, &[alien], 100);
        assert_eq!(rc.total_entries(), 1, "alien-parameter range ignored");
    }
}
