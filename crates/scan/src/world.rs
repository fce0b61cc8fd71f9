//! Materialize a [`Population`] as a simulated internet.
//!
//! Building 303 k literal zones up front would waste memory for no
//! modeling gain, so the scan world synthesizes DNS data *on demand*,
//! deterministically, from the population registry:
//!
//! * the **root zone** is a real, signed [`ede_zone::Zone`] with one
//!   delegation (and DS) per TLD;
//! * each **TLD server** answers the query it gets a million times — the
//!   referral to a registered child — straight from the child's registry
//!   record: the NS set, the glue and the signed DS set or the child's
//!   own NSEC3 from the TLD's honest chain are built and handed to
//!   [`ede_authority::layout::referral`], with no zone in between,
//!   because referral content only ever depends on the one delegation.
//!   Every other shape (the apex, an unregistered name, a child's
//!   parent-side DS) gets a micro-zone of just the RRsets it can touch,
//!   signed per query and served by the ordinary
//!   [`ede_authority::ZoneServer`] logic;
//! * each **hosting server** answers a healthy child's apex A (and a
//!   healthy signed child's DNSKEY) the same way, from the record and
//!   the child's derived keys through [`ede_authority::layout::positive`],
//!   and builds the child zone from its planted [`Category`] (signing
//!   it, breaking it, or flapping it as the category demands) for every
//!   other shape and every misconfigured child — a differential test
//!   holds both servers against fully materialised, fully signed zones,
//!   `Message` for `Message`;
//! * **broken-pool servers** implement the per-address fault modes
//!   (REFUSED / SERVFAIL / silence) of §4.2.2's 293 k lame nameservers.
//!
//! All key material is derived deterministically from names, so a DS
//! served by a TLD today matches the DNSKEY a hosting server synthesizes
//! tomorrow.

use crate::population::{broken_mode, tld_addr, BrokenMode, Category, DomainRecord, Population};
use ede_authority::{layout, Behavior, ZoneServer, ZoneStore};
use ede_crypto::nsec3hash::{self, NSEC3_HASH_LEN};
use ede_netsim::{Network, NetworkBuilder, NetworkConfig, Server, ServerResponse, SimClock};
use ede_resolver::config::RootHint;
use ede_resolver::ResolverConfig;
use ede_wire::rdata::{Soa, TypeBitmap};
use ede_wire::{DigestAlg, Message, Name, Rdata, Record, RrType, SecAlg};
use ede_zone::signer::{self, SignerConfig, DAY, DEFAULT_WINDOW, SIM_NOW};
use ede_zone::{Denial, Misconfig, Nsec3Config, Rrset, Zone, ZoneKey, ZoneKeys};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;
use std::sync::{Mutex, OnceLock};

/// Address of the scan world's root server.
pub const ROOT_SERVER: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);

/// A registered domain and its place in its TLD.
struct Registered {
    rec: DomainRecord,
    /// Position among the TLD's children (`Registry::children`), which
    /// is how the TLD's NSEC3 chain finds the domain's own record
    /// without hashing the name again.
    ordinal: u32,
}

/// Shared lookup tables.
struct Registry {
    /// Domain apex → record.
    domains: HashMap<Name, Registered>,
    /// TLD name → (index, standby, broken_proof).
    tlds: HashMap<Name, TldEntry>,
    /// TLD name → its registered children (with signedness): the input
    /// to each TLD's honest NSEC3 chain.
    children: HashMap<Name, Vec<(Name, bool)>>,
}

impl Registry {
    fn of(pop: &Population) -> Registry {
        let mut children: HashMap<Name, Vec<(Name, bool)>> = HashMap::new();
        let mut domains = HashMap::with_capacity(pop.domains.len());
        for d in &pop.domains {
            let siblings = children.entry(pop.tlds[d.tld].name.clone()).or_default();
            domains.insert(
                d.name.clone(),
                Registered {
                    rec: d.clone(),
                    ordinal: siblings.len() as u32,
                },
            );
            siblings.push((d.name.clone(), d.category.signed()));
        }
        Registry {
            domains,
            tlds: pop
                .tlds
                .iter()
                .map(|t| {
                    (
                        t.name.clone(),
                        TldEntry {
                            standby_key: t.standby_key,
                            broken_insecure_proof: t.broken_insecure_proof,
                        },
                    )
                })
                .collect(),
            children,
        }
    }
}

#[derive(Clone)]
struct TldEntry {
    standby_key: bool,
    broken_insecure_proof: bool,
}

/// The built scan world.
pub struct ScanWorld {
    /// The network to scan.
    pub net: Arc<Network>,
    /// Resolver configuration (root hints + trust anchor).
    pub resolver_config: ResolverConfig,
}

/// The `i`-th nameserver host of `apex`: `ns1.<apex>`, `ns2.<apex>`, ….
fn ns_host(apex: &Name, i: usize) -> Name {
    const LABELS: [&str; 4] = ["ns1", "ns2", "ns3", "ns4"];
    match LABELS.get(i) {
        Some(label) => apex.child(label),
        None => apex.child(&format!("ns{}", i + 1)),
    }
    .expect("valid")
}

/// Add `rec`'s delegation as its parent publishes it: NS, glue, and the
/// DS set of a signed child (unsigned).
fn add_delegation(zone: &mut Zone, rec: &DomainRecord) {
    for (i, addr) in rec.ns_addrs.iter().enumerate() {
        let ns = ns_host(&rec.name, i);
        zone.add(Record::new(rec.name.clone(), 3600, Rdata::Ns(ns.clone())));
        zone.add(Record::new(ns, 3600, Rdata::A(*addr)));
    }
    for ds in child_ds(rec) {
        zone.add(Record::new(rec.name.clone(), 3600, ds));
    }
}

fn soa_for(apex: &Name) -> Rdata {
    Rdata::Soa(Soa {
        mname: apex.child("ns1").expect("valid"),
        rname: apex.child("hostmaster").expect("valid"),
        serial: 20230515,
        refresh: 7200,
        retry: 3600,
        expire: 1209600,
        minimum: 60,
    })
}

/// Deterministic keys for a TLD.
fn tld_keys(tld: &Name) -> ZoneKeys {
    ZoneKeys::generate(tld, 8, 2048)
}

/// Deterministic keys for a child domain, with category-dependent
/// algorithm/size.
fn child_keys(apex: &Name, category: Category) -> ZoneKeys {
    match category {
        Category::UnsupportedAlgGost => ZoneKeys::generate(apex, SecAlg::ECC_GOST.0, 2048),
        Category::UnsupportedAlgDsa => ZoneKeys::generate(apex, SecAlg::DSA.0, 1024),
        Category::SmallKey => ZoneKeys::generate(apex, SecAlg::RSASHA1.0, 512),
        _ => ZoneKeys::generate(apex, SecAlg::RSASHA256.0, 2048),
    }
}

/// The DS RDATA(s) a TLD publishes for a domain, per category.
fn child_ds(rec: &DomainRecord) -> Vec<Rdata> {
    let apex = &rec.name;
    let cat = rec.category;
    if !cat.signed() {
        return Vec::new();
    }
    let keys = child_keys(apex, cat);
    match cat {
        Category::DsMismatch => Misconfig::DsBadTag.parent_ds(&keys, apex),
        Category::GostDigest => vec![keys.ksk.ds_rdata(apex, DigestAlg::GOST)],
        Category::UnassignedDigest => vec![keys.ksk.ds_rdata(apex, DigestAlg(8))],
        _ => vec![keys.ksk.ds_rdata(apex, DigestAlg::SHA256)],
    }
}

/// Signer config per category (validity windows, NSEC3 iterations).
fn child_signer_config(cat: Category) -> SignerConfig {
    let mut cfg = SignerConfig::default();
    match cat {
        Category::SigExpired => {
            cfg.inception = SIM_NOW - 400 * DAY;
            cfg.expiration = SIM_NOW - 300 * DAY;
        }
        Category::SigNotYetValid => {
            // §4.2.12: signatures valid starting 2045.
            cfg.inception = SIM_NOW + 8000 * DAY;
            cfg.expiration = SIM_NOW + 8400 * DAY;
        }
        Category::IterationLimit => {
            cfg.denial = Denial::Nsec3(Nsec3Config {
                iterations: 2000,
                salt: [0xab].into(),
            });
        }
        Category::UnsupportedAlgGost => cfg.algorithm = SecAlg::ECC_GOST,
        Category::UnsupportedAlgDsa => {
            cfg.algorithm = SecAlg::DSA;
            cfg.key_bits = 1024;
        }
        Category::SmallKey => {
            cfg.algorithm = SecAlg::RSASHA1;
            cfg.key_bits = 512;
        }
        _ => {}
    }
    cfg
}

/// The address every child that has one publishes at its apex.
fn apex_a(apex: &Name) -> Rrset {
    Rrset::new(apex.clone(), 60, Rdata::A(Ipv4Addr::new(203, 0, 113, 10)))
}

/// The apex RRset a child serves for `qtype`, when it is known without
/// building the child's zone: the A of an unsigned child, and the A and
/// the DNSKEY set of a healthy signed one (a stand-by TLD's member is
/// one: the condition is its parent's), signed. A misconfigured signed
/// child's condition is a mutation of its zone, so it gets one.
fn known_apex_rrset(rec: &DomainRecord, qtype: RrType) -> Option<Rrset> {
    let (apex, cat) = (&rec.name, rec.category);
    if !cat.signed() {
        return (qtype == RrType::A).then(|| apex_a(apex));
    }
    let healthy = matches!(cat, Category::HealthySigned | Category::StandbyTldMember);
    if !healthy || !matches!(qtype, RrType::A | RrType::Dnskey) {
        return None;
    }
    let keys = child_keys(apex, cat);
    let mut set = match qtype {
        RrType::A => apex_a(apex),
        _ => keys.dnskey_rrset(apex),
    };
    signer::sign_in_place(&mut set, &keys, apex, child_signer_config(cat).window());
    Some(set)
}

/// The child zone's plain records, before any signing.
fn unsigned_child(rec: &DomainRecord) -> Zone {
    let apex = &rec.name;
    let cat = rec.category;
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(apex.clone(), 60, soa_for(apex)));
    for (i, addr) in rec.ns_addrs.iter().enumerate() {
        let ns = ns_host(apex, i);
        zone.add(Record::new(apex.clone(), 60, Rdata::Ns(ns.clone())));
        zone.add(Record::new(ns, 60, Rdata::A(*addr)));
    }
    // Most categories publish an apex A; denial-driven ones must not.
    let wants_a = !matches!(cat, Category::BrokenDenial | Category::IterationLimit);
    if wants_a {
        zone.add_rrset(apex_a(apex));
    }
    zone
}

/// Build the child zone for a domain per its category. Returns the zone
/// (already signed/mutated where applicable).
fn materialize_child(rec: &DomainRecord) -> Zone {
    let cat = rec.category;
    let mut zone = unsigned_child(rec);
    if cat.signed() {
        let keys = child_keys(&rec.name, cat);
        signer::sign_zone(&mut zone, &keys, &child_signer_config(cat));
        if cat == Category::BrokenDenial {
            Misconfig::BadNsec3Next.apply(&mut zone, &keys);
        }
    }
    zone
}

/// Number of flap-table shards; a power of two, matching the resolver
/// cache's shard count.
const FLAP_SHARDS: usize = 16;

/// Per-domain flap counters, sharded by [`Name::shard_hash`] like the
/// resolver cache: the single hosting server object is shared by every
/// healthy address, so one `Mutex<HashMap>` here would serialize all
/// workers that happen to be visiting flapping domains.
struct FlapTable {
    shards: [Mutex<HashMap<Name, u32>>; FLAP_SHARDS],
}

impl FlapTable {
    fn new() -> Self {
        FlapTable {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    /// Lock the shard owning `name`.
    fn shard(&self, name: &Name) -> std::sync::MutexGuard<'_, HashMap<Name, u32>> {
        self.shards[(name.shard_hash() as usize) & (FLAP_SHARDS - 1)]
            .lock()
            .expect("no poisoning")
    }
}

/// The hosting fabric: serves every healthy-pool domain per its planted
/// category, with per-domain flap state.
struct HostingNs {
    registry: Arc<Registry>,
    /// Query counters for flapping domains.
    flap: FlapTable,
}

impl HostingNs {
    /// Extract the registered domain (label.tld) an arbitrary qname
    /// belongs to.
    fn domain_of(&self, qname: &Name) -> Option<&DomainRecord> {
        self.registry.domains.get(&qname.suffix(2)).map(|r| &r.rec)
    }
}

impl Server for HostingNs {
    fn handle(&self, query: &Message, src: IpAddr, _now: u32) -> ServerResponse {
        let Some(q) = query.first_question() else {
            return ServerResponse::Drop;
        };
        let Some(rec) = self.domain_of(&q.name) else {
            // Not a domain we host.
            let mut resp = Message::response_to(query);
            resp.rcode = ede_wire::Rcode::Refused;
            return ServerResponse::Reply(resp);
        };

        // Flap state: stale/cached-error categories change behavior
        // after their first A answer.
        let mut behavior = Behavior::Normal;
        match rec.category {
            Category::NoEdns => behavior = Behavior::NoEdns,
            Category::NotAuthCached => behavior = Behavior::NotAuthAll,
            Category::StaleFlapRefuse | Category::StaleFlapDrop => {
                let mut flap = self.flap.shard(&rec.name);
                let count = flap.entry(rec.name.clone()).or_insert(0);
                if *count > 0 {
                    behavior = if rec.category == Category::StaleFlapRefuse {
                        Behavior::RefuseAll
                    } else {
                        Behavior::Timeout
                    };
                }
                if q.qtype == RrType::A && q.name == rec.name {
                    *count += 1;
                }
            }
            _ => {}
        }

        // The common case: a well-behaved server asked for a healthy
        // child's apex A (or DNSKEY) answers without a zone.
        if behavior == Behavior::Normal && q.name == rec.name {
            if let Some(set) = known_apex_rrset(rec, q.qtype) {
                let (mut resp, dnssec_ok) = layout::reply_to(query, true);
                layout::positive(&mut resp, &set, dnssec_ok);
                return ServerResponse::Reply(resp);
            }
        }

        // Every other shape, the misconfigured signed children and the
        // misbehaving servers are a sliver of the traffic: each query
        // builds the child's zone and looks its answer up.
        let mut store = ZoneStore::new();
        store.insert(materialize_child(rec));
        ZoneServer::with_behavior(store, behavior).answer(query, src)
    }
}

/// A broken-pool nameserver with a fixed fault mode.
struct BrokenNs {
    mode: BrokenMode,
}

impl Server for BrokenNs {
    fn handle(&self, query: &Message, src: IpAddr, now: u32) -> ServerResponse {
        let behavior = match self.mode {
            BrokenMode::Refused => Behavior::RefuseAll,
            BrokenMode::ServFail => Behavior::ServfailAll,
            BrokenMode::Drop => Behavior::Timeout,
        };
        ZoneServer::with_behavior(ZoneStore::new(), behavior).handle(query, src, now)
    }
}

/// Which kind of owner a [`TldChain`] entry is — the only thing that
/// differs between their NSEC3 type bitmaps.
#[derive(Clone, Copy)]
enum ChainOwner {
    /// The TLD apex.
    Apex,
    /// The in-zone nameserver host (`ns1.<tld>`).
    Host,
    /// An insecure (unsigned-child) delegation.
    Insecure,
    /// A secure delegation (DS published).
    Secure,
}

/// The honest NSEC3 chain over one TLD's registry: every owner the
/// full zone would contain, hashed and sorted once per TLD. Individual
/// NSEC3 RRsets are synthesized (and signed) on demand from this index,
/// so per-query cost stays at one binary search plus one signature —
/// yet the intervals served to resolvers are globally consistent. That
/// honesty is a prerequisite for RFC 8198 range caching: an interval
/// that dishonestly covered a registered name would let a resolver
/// synthesize NXDOMAIN for a domain that exists.
struct TldChain {
    params: Nsec3Config,
    /// (owner hash, kind), sorted by hash.
    owners: Vec<([u8; NSEC3_HASH_LEN], ChainOwner)>,
    /// Where each child (by its ordinal in the TLD) sits in `owners`.
    child_slots: Vec<u32>,
}

impl TldChain {
    fn build(tld: &Name, children: &[(Name, bool)]) -> TldChain {
        let params = Nsec3Config::default();
        // (hash, kind, child ordinal) until sorted.
        let mut hashed = Vec::with_capacity(children.len() + 2);
        hashed.push((params.hash_raw(tld), ChainOwner::Apex, None));
        hashed.push((params.hash_raw(&ns_host(tld, 0)), ChainOwner::Host, None));
        for (ordinal, (child, signed)) in children.iter().enumerate() {
            let kind = if *signed {
                ChainOwner::Secure
            } else {
                ChainOwner::Insecure
            };
            hashed.push((params.hash_raw(child), kind, Some(ordinal)));
        }
        hashed.sort_by_key(|owner| owner.0);
        let mut child_slots = vec![0u32; children.len()];
        for (slot, (_, _, ordinal)) in hashed.iter().enumerate() {
            if let Some(ordinal) = ordinal {
                child_slots[*ordinal] = slot as u32;
            }
        }
        TldChain {
            params,
            owners: hashed.into_iter().map(|(h, kind, _)| (h, kind)).collect(),
            child_slots,
        }
    }

    /// Index of a registered child's own record.
    fn slot_of(&self, child: &Registered) -> usize {
        self.child_slots[child.ordinal as usize] as usize
    }

    /// Index of the owner whose hash equals `hash`, if any.
    fn matching(&self, hash: &[u8; NSEC3_HASH_LEN]) -> Option<usize> {
        self.owners.binary_search_by(|(h, _)| h.cmp(hash)).ok()
    }

    /// Index of the owner whose (owner, next-owner) arc covers `hash`.
    /// Callers check [`Self::matching`] first — an owner's own hash
    /// belongs to no arc.
    fn covering(&self, hash: &[u8; NSEC3_HASH_LEN]) -> usize {
        match self.owners.binary_search_by(|(h, _)| h.cmp(hash)) {
            Ok(i) => i,
            // Before the first owner: covered by the wraparound arc.
            Err(0) => self.owners.len() - 1,
            Err(i) => i - 1,
        }
    }

    /// Synthesize the signed NSEC3 RRset for owner `idx`.
    fn rrset(&self, idx: usize, apex: &Name, keys: &ZoneKeys, window: (u32, u32)) -> Rrset {
        let (hash, kind) = &self.owners[idx];
        let (next, _) = &self.owners[(idx + 1) % self.owners.len()];
        let listed: &[RrType] = match kind {
            ChainOwner::Apex => &[
                RrType::Soa,
                RrType::Ns,
                RrType::Dnskey,
                RrType::Nsec3param,
                RrType::Rrsig,
            ],
            ChainOwner::Host => &[RrType::A, RrType::Rrsig],
            ChainOwner::Insecure => &[RrType::Ns],
            ChainOwner::Secure => &[RrType::Ns, RrType::Ds, RrType::Rrsig],
        };
        let types = TypeBitmap::from_types(listed.iter().copied());
        let owner = apex
            .child_bytes(&nsec3hash::nsec3_label(hash))
            .expect("hash label fits");
        let mut set = Rrset::new(
            owner,
            // Registry operators publish denial records with multi-hour
            // TTLs (com/net use 86400 s); 3600 keeps the chain alive
            // across the scan's 120 s revisit window. Scan observations
            // never read this TTL — only the RFC 8198 range tier does.
            NSEC3_TTL,
            Rdata::Nsec3 {
                hash_alg: nsec3hash::NSEC3_HASH_ALG_SHA1,
                flags: 0,
                iterations: self.params.iterations,
                salt: self.params.salt.clone(),
                next_hashed: next.into(),
                types,
            },
        );
        set.sigs = vec![signer::sign_rrset(&set, &keys.zsk, apex, window)];
        set
    }
}

/// TTL of the NSEC3 records a TLD serves.
const NSEC3_TTL: u32 = 3600;

/// A TLD server: answers a referral from the child's registry record,
/// and synthesizes the relevant micro-slice of its zone for every other
/// query.
struct TldServer {
    tld: Name,
    entry: TldEntry,
    registry: Arc<Registry>,
    /// The TLD's keys, derived once instead of per query.
    keys: ZoneKeys,
    /// Honest registry-wide NSEC3 chain, hashed once on first use.
    chain: OnceLock<TldChain>,
}

impl TldServer {
    fn new(tld: Name, entry: TldEntry, registry: Arc<Registry>) -> Self {
        let keys = tld_keys(&tld);
        TldServer {
            tld,
            entry,
            registry,
            keys,
            chain: OnceLock::new(),
        }
    }

    /// The TLD's honest registry chain.
    fn chain(&self) -> &TldChain {
        self.chain.get_or_init(|| {
            let children = self
                .registry
                .children
                .get(&self.tld)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            TldChain::build(&self.tld, children)
        })
    }

    /// The referral to a registered child, filled from its record with
    /// no zone in between: referral content only ever depends on the one
    /// delegation, and only the RRsets a referral carries are built (and
    /// signed).
    fn referral(&self, query: &Message, child: &Registered) -> ServerResponse {
        let rec = &child.rec;
        let (mut resp, dnssec_ok) = layout::reply_to(query, true);
        let mut ns = Rrset::empty(rec.name.clone(), RrType::Ns, 3600);
        let mut glue = Vec::with_capacity(rec.ns_addrs.len());
        for (i, addr) in rec.ns_addrs.iter().enumerate() {
            let host = ns_host(&rec.name, i);
            ns.push(Rdata::Ns(host.clone()));
            glue.push(Record::new(host, 3600, Rdata::A(*addr)));
        }
        let proof = if !dnssec_ok {
            None
        } else if rec.category.signed() {
            let mut ds = Rrset::empty(rec.name.clone(), RrType::Ds, 3600);
            ds.rdatas = child_ds(rec);
            signer::sign_in_place(&mut ds, &self.keys, &self.tld, DEFAULT_WINDOW);
            Some(ds)
        } else {
            // Insecure delegation: the child's matching NSEC3 — unless
            // this TLD deliberately lost it (§4.2.9). The record is
            // pulled from the honest registry-wide chain, so its
            // interval never covers another registered name: resolvers
            // that retain validated ranges (RFC 8198) must be able to
            // trust it.
            (!self.entry.broken_insecure_proof).then(|| {
                let chain = self.chain();
                chain.rrset(chain.slot_of(child), &self.tld, &self.keys, DEFAULT_WINDOW)
            })
        };
        layout::referral(&mut resp, &ns, proof.as_ref(), glue, dnssec_ok);
        ServerResponse::Reply(resp)
    }

    /// The full build for every query that is not a referral: the apex
    /// (DNSKEY/SOA), names outside the registry, and the parent-side DS
    /// of a `registered` child, whose delegation then goes in.
    fn micro_zone(&self, qname: &Name, registered: Option<&Registered>) -> Zone {
        let mut zone = Zone::new(self.tld.clone());
        zone.add(Record::new(self.tld.clone(), 3600, soa_for(&self.tld)));
        let tld_ns = ns_host(&self.tld, 0);
        zone.add(Record::new(self.tld.clone(), 3600, Rdata::Ns(tld_ns)));
        if let Some(child) = registered {
            add_delegation(&mut zone, &child.rec);
        }

        // Sign without a denial chain, then publish the apex NSEC3PARAM
        // as `sign_zone` with the default chain would. Grafting denial
        // records per query is safe because RRSIG presence in NSEC3
        // bitmaps is driven by a flag, not by the signing order, so the
        // bitmaps (and the deterministic signatures) come out
        // byte-identical to signing the whole registry. The PARAM stays
        // on broken TLDs (§4.2.9) too: `Misconfig::Nsec3Missing` removes
        // the chain but leaves it (and its RRSIG) behind, which is what
        // keeps the server *claiming* it can prove denials.
        let unchained = SignerConfig {
            denial: Denial::None,
            ..SignerConfig::default()
        };
        signer::sign_zone(&mut zone, &self.keys, &unchained);
        let params = Nsec3Config::default();
        let mut param = Rrset::new(
            self.tld.clone(),
            0,
            Rdata::Nsec3param {
                hash_alg: nsec3hash::NSEC3_HASH_ALG_SHA1,
                flags: 0,
                iterations: params.iterations,
                salt: params.salt,
            },
        );
        signer::sign_in_place(&mut param, &self.keys, &self.tld, DEFAULT_WINDOW);
        zone.add_rrset(param);

        if self.entry.standby_key {
            // Publish an extra SEP key that signs nothing, then re-sign
            // the DNSKEY RRset so the chain still validates (§4.2.3).
            let standby = ZoneKey::generate(&self.tld, "standby", 8, 2048, 257);
            if let Some(set) = zone.get_mut(&self.tld, RrType::Dnskey) {
                set.rdatas.push(standby.dnskey_rdata());
            }
            signer::resign_rrset(
                &mut zone,
                &self.tld,
                RrType::Dnskey,
                &self.keys,
                DEFAULT_WINDOW,
            );
        }

        // Honest TLDs graft exactly the chain records the queried shape
        // needs, pulled from the registry-wide honest chain; broken TLDs
        // (§4.2.9) publish the PARAM but no chain.
        if !self.entry.broken_insecure_proof {
            let chain = self.chain();
            let mut grafted = std::collections::BTreeSet::new();
            grafted.insert(
                chain
                    .matching(&chain.params.hash_raw(&self.tld))
                    .expect("apex is a chain owner"),
            );
            if let Some(child) = registered {
                // The DS NODATA of an insecure delegation is proved by
                // the child's own record.
                grafted.insert(chain.slot_of(child));
            } else if qname != &self.tld && qname.is_subdomain_of(&self.tld) {
                // An unregistered name: the closest encloser is the
                // apex and an NXDOMAIN proof needs the next-closer and
                // wildcard covers.
                let next_closer = qname.suffix(self.tld.label_count() + 1);
                let nc_hash = chain.params.hash_raw(&next_closer);
                if chain.matching(&nc_hash).is_none() {
                    grafted.insert(chain.covering(&nc_hash));
                    if let Ok(wildcard) = self.tld.child("*") {
                        grafted.insert(chain.covering(&chain.params.hash_raw(&wildcard)));
                    }
                }
            }
            for idx in grafted {
                zone.add_rrset(chain.rrset(idx, &self.tld, &self.keys, DEFAULT_WINDOW));
            }
        }
        zone
    }
}

impl Server for TldServer {
    fn handle(&self, query: &Message, src: IpAddr, now: u32) -> ServerResponse {
        let Some(q) = query.first_question() else {
            return ServerResponse::Drop;
        };
        let registered = self
            .registry
            .domains
            .get(&q.name.suffix(2))
            .filter(|_| q.name.is_subdomain_of(&self.tld));
        // At or below a registered child every query is referred to it,
        // except for the child's own DS, which the parent side answers.
        let zone = match registered {
            Some(child) if q.qtype != RrType::Ds || q.name != child.rec.name => {
                return self.referral(query, child)
            }
            _ => self.micro_zone(&q.name, registered),
        };
        let mut store = ZoneStore::new();
        store.insert(zone);
        ZoneServer::new(store).handle(query, src, now)
    }
}

impl ScanWorld {
    /// Build the world for a population.
    pub fn build(pop: &Population) -> ScanWorld {
        let registry = Arc::new(Registry::of(pop));

        // Zero-latency network: the virtual clock must stand still
        // during a pass so flap/stale timing stays under test control.
        let clock = SimClock::new();
        let mut net = NetworkBuilder::new().config(NetworkConfig {
            rtt_ms: 0,
            timeout_ms: 0,
        });

        // Root zone: real, signed, one delegation per TLD.
        let root = Name::root();
        let mut root_zone = Zone::new(root.clone());
        root_zone.add(Record::new(root.clone(), 3600, soa_for(&root)));
        let root_ns = Name::parse("ns1").expect("valid");
        root_zone.add(Record::new(root.clone(), 3600, Rdata::Ns(root_ns.clone())));
        root_zone.add_a(root_ns, ROOT_SERVER);
        for tld in &pop.tlds {
            let ns = ns_host(&tld.name, 0);
            root_zone.add(Record::new(tld.name.clone(), 3600, Rdata::Ns(ns.clone())));
            root_zone.add_a(ns, tld_addr(tld.server_index));
            let keys = tld_keys(&tld.name);
            root_zone.add(Record::new(
                tld.name.clone(),
                3600,
                keys.ksk.ds_rdata(&tld.name, DigestAlg::SHA256),
            ));
        }
        let root_keys = ZoneKeys::generate(&root, 8, 2048);
        signer::sign_zone(&mut root_zone, &root_keys, &SignerConfig::default());
        let trust_anchor = root_keys.ksk.ds_rdata(&root, DigestAlg::SHA256);

        let mut store = ZoneStore::new();
        store.insert(root_zone);
        net.register(IpAddr::V4(ROOT_SERVER), Arc::new(ZoneServer::new(store)));

        // TLD servers.
        for tld in &pop.tlds {
            net.register(
                IpAddr::V4(tld_addr(tld.server_index)),
                Arc::new(TldServer::new(
                    tld.name.clone(),
                    registry.tlds[&tld.name].clone(),
                    Arc::clone(&registry),
                )),
            );
        }

        // Hosting fabric: one shared server object on every healthy
        // address.
        let hosting = Arc::new(HostingNs {
            registry: Arc::clone(&registry),
            flap: FlapTable::new(),
        });
        for addr in &pop.healthy_ns {
            net.register(IpAddr::V4(*addr), hosting.clone() as Arc<dyn Server>);
        }

        // Broken pool.
        let total_broken = pop.broken_ns.len();
        for (i, addr) in pop.broken_ns.iter().enumerate() {
            net.register(
                IpAddr::V4(*addr),
                Arc::new(BrokenNs {
                    mode: broken_mode(i, total_broken),
                }),
            );
        }

        let mut resolver_config = ResolverConfig::with_roots(
            vec![RootHint {
                name: Name::parse("ns1").expect("valid"),
                addr: IpAddr::V4(ROOT_SERVER),
            }],
            vec![trust_anchor],
        );
        resolver_config.failure_ttl_secs = 900;

        ScanWorld {
            net: Arc::new(net.build(clock)),
            resolver_config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use ede_resolver::{Resolver, Vendor, VendorProfile};
    use ede_wire::Rcode;

    fn world_and_resolver() -> (Population, ScanWorld, Resolver) {
        let pop = Population::generate(PopulationConfig::tiny());
        let world = ScanWorld::build(&pop);
        let resolver = Resolver::new(
            Arc::clone(&world.net),
            VendorProfile::new(Vendor::Cloudflare),
            world.resolver_config.clone(),
        );
        (pop, world, resolver)
    }

    use crate::population::Population;

    fn first_of(pop: &Population, cat: Category) -> &DomainRecord {
        pop.domains
            .iter()
            .find(|d| d.category == cat)
            .unwrap_or_else(|| panic!("population lacks {cat:?}"))
    }

    fn reply(server: &dyn Server, qname: &Name, qtype: RrType) -> Message {
        ask(server, qname, qtype, true)
    }

    fn ask(server: &dyn Server, qname: &Name, qtype: RrType, dnssec_ok: bool) -> Message {
        let mut query = Message::iterative_query(0x5eed, qname.clone(), qtype);
        query.edns.as_mut().unwrap().dnssec_ok = dnssec_ok;
        match server.handle(&query, "203.0.113.9".parse().unwrap(), 0) {
            ServerResponse::Reply(m) => m,
            ServerResponse::Drop => panic!("{qname} {qtype}: dropped"),
        }
    }

    /// The TLD zone as a registry would publish it whole: every
    /// delegation of the population materialised, `sign_zone` over all
    /// of it (full NSEC3 chain), then the two things the world does on
    /// top — NSEC3 records at the registry TTL, and the TLD's planted
    /// condition.
    fn full_tld_server(pop: &Population, tld_index: usize) -> ZoneServer {
        let tld = &pop.tlds[tld_index];
        let mut zone = Zone::new(tld.name.clone());
        zone.add(Record::new(tld.name.clone(), 3600, soa_for(&tld.name)));
        let host = ns_host(&tld.name, 0);
        zone.add(Record::new(tld.name.clone(), 3600, Rdata::Ns(host.clone())));
        zone.add_a(host, tld_addr(tld.server_index));
        for d in pop.domains.iter().filter(|d| d.tld == tld_index) {
            add_delegation(&mut zone, d);
        }
        let keys = tld_keys(&tld.name);
        signer::sign_zone(&mut zone, &keys, &SignerConfig::default());
        for set in zone.iter_mut().filter(|s| s.rtype == RrType::Nsec3) {
            set.ttl = NSEC3_TTL;
            signer::sign_in_place(set, &keys, &tld.name, DEFAULT_WINDOW);
        }
        if tld.standby_key {
            let standby = ZoneKey::generate(&tld.name, "standby", 8, 2048, 257);
            let set = zone.get_mut(&tld.name, RrType::Dnskey).unwrap();
            set.rdatas.push(standby.dnskey_rdata());
            signer::sign_in_place(set, &keys, &tld.name, DEFAULT_WINDOW);
        }
        if tld.broken_insecure_proof {
            Misconfig::Nsec3Missing.apply(&mut zone, &keys);
        }
        let mut store = ZoneStore::new();
        store.insert(zone);
        ZoneServer::new(store)
    }

    /// The lean servers — a referral filled from the registry record at
    /// the TLD, the healthy children's apex A and DNSKEY at the hosting
    /// fabric — must be indistinguishable from servers over fully
    /// materialised, fully signed zones for every query shape the scan
    /// sends, and must leave every other shape to a zone: `Message` for
    /// `Message`, signatures included, with DO and without.
    #[test]
    fn lean_servers_answer_as_fully_materialised_zones_do() {
        let pop = Population::generate(PopulationConfig::tiny());
        let registry = Arc::new(Registry::of(&pop));
        let mut full_tlds: HashMap<usize, ZoneServer> = HashMap::new();
        for cat in Category::ALL {
            let sample: Vec<_> = pop.domains.iter().filter(|d| d.category == cat).collect();
            assert!(!sample.is_empty(), "population lacks {cat:?}");
            for rec in sample.into_iter().take(3) {
                let tld = &pop.tlds[rec.tld];
                let lean = TldServer::new(
                    tld.name.clone(),
                    registry.tlds[&tld.name].clone(),
                    Arc::clone(&registry),
                );
                let full = full_tlds
                    .entry(rec.tld)
                    .or_insert_with(|| full_tld_server(&pop, rec.tld));
                let below = rec.name.child("www").unwrap();
                let unregistered = tld.name.child("never-registered").unwrap();
                for (qname, qtype) in [
                    (&rec.name, RrType::A),
                    (&rec.name, RrType::Dnskey),
                    (&rec.name, RrType::Ds),
                    (&below, RrType::A),
                    (&tld.name, RrType::Dnskey),
                    (&unregistered, RrType::A),
                ] {
                    assert_eq!(
                        reply(&lean, qname, qtype),
                        reply(full, qname, qtype),
                        "{cat:?}: {qname} {qtype} at the TLD"
                    );
                    assert_eq!(
                        ask(&lean, qname, qtype, false),
                        ask(full, qname, qtype, false),
                        "{cat:?}: {qname} {qtype} at the TLD, DO clear"
                    );
                }
                let plain = ask(&lean, &rec.name, RrType::A, false);
                assert!(plain.authorities.iter().all(|r| r.rtype() == RrType::Ns));
            }
        }

        // The hosting half, for every category whose server answers.
        // A server per query: a flapping domain answers only until its
        // first apex A.
        let hosting = || HostingNs {
            registry: Arc::clone(&registry),
            flap: FlapTable::new(),
        };
        let answering = |cat: &Category| !matches!(cat, Category::NoEdns | Category::NotAuthCached);
        for cat in Category::ALL.into_iter().filter(answering) {
            for rec in pop.domains.iter().filter(|d| d.category == cat).take(3) {
                let mut store = ZoneStore::new();
                store.insert(materialize_child(rec));
                let full = ZoneServer::new(store);
                let below = rec.name.child("www").unwrap();
                for (qname, qtype) in [
                    (&rec.name, RrType::A),
                    (&rec.name, RrType::Dnskey),
                    (&rec.name, RrType::Ns),
                    (&rec.name, RrType::Aaaa),
                    (&below, RrType::A),
                ] {
                    for dnssec_ok in [true, false] {
                        assert_eq!(
                            ask(&hosting(), qname, qtype, dnssec_ok),
                            ask(&full, qname, qtype, dnssec_ok),
                            "{cat:?}: {qname} {qtype} at the child, DO {dnssec_ok}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn healthy_unsigned_resolves() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::HealthyUnsigned);
        let res = resolver.resolve(&d.name, RrType::A);
        assert_eq!(res.rcode, Rcode::NoError, "{}: {:?}", d.name, res.diagnosis);
        assert!(res.ede.is_empty());
    }

    #[test]
    fn healthy_signed_is_secure() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::HealthySigned);
        let res = resolver.resolve(&d.name, RrType::A);
        assert_eq!(res.rcode, Rcode::NoError, "{}: {:?}", d.name, res.diagnosis);
        assert!(res.authentic_data, "{:?}", res.diagnosis);
        assert!(res.ede.is_empty());
    }

    #[test]
    fn lame_rcode_gives_22_23() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::LameRcode);
        let res = resolver.resolve(&d.name, RrType::A);
        assert_eq!(res.rcode, Rcode::ServFail);
        assert_eq!(res.ede_codes(), vec![22, 23], "{:?}", res.diagnosis);
    }

    #[test]
    fn lame_silent_gives_22_only() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::LameSilent);
        let res = resolver.resolve(&d.name, RrType::A);
        assert_eq!(res.ede_codes(), vec![22], "{:?}", res.diagnosis);
    }

    #[test]
    fn partial_broken_is_noerror_with_23() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::PartialBroken);
        let res = resolver.resolve(&d.name, RrType::A);
        assert_eq!(res.rcode, Rcode::NoError, "{:?}", res.diagnosis);
        assert_eq!(res.ede_codes(), vec![23]);
    }

    #[test]
    fn standby_member_is_noerror_with_10() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::StandbyTldMember);
        let res = resolver.resolve(&d.name, RrType::A);
        assert_eq!(res.rcode, Rcode::NoError, "{:?}", res.diagnosis);
        assert_eq!(res.ede_codes(), vec![10]);
    }

    #[test]
    fn ds_mismatch_gives_9() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::DsMismatch);
        let res = resolver.resolve(&d.name, RrType::A);
        assert_eq!(res.rcode, Rcode::ServFail);
        assert_eq!(res.ede_codes(), vec![9], "{:?}", res.diagnosis);
    }

    #[test]
    fn unreachable_signed_gives_9_22_23() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::UnreachableSigned);
        let res = resolver.resolve(&d.name, RrType::A);
        assert_eq!(res.ede_codes(), vec![9, 22, 23], "{:?}", res.diagnosis);
    }

    #[test]
    fn broken_denial_gives_6() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::BrokenDenial);
        let res = resolver.resolve(&d.name, RrType::A);
        assert_eq!(res.ede_codes(), vec![6], "{:?}", res.diagnosis);
    }

    #[test]
    fn no_edns_gives_24() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::NoEdns);
        let res = resolver.resolve(&d.name, RrType::A);
        let codes = res.ede_codes();
        assert!(codes.contains(&24), "{codes:?} {:?}", res.diagnosis);
    }

    #[test]
    fn unsupported_algorithms_give_1() {
        let (pop, _world, resolver) = world_and_resolver();
        for cat in [
            Category::UnsupportedAlgGost,
            Category::UnsupportedAlgDsa,
            Category::SmallKey,
        ] {
            let d = first_of(&pop, cat);
            let res = resolver.resolve(&d.name, RrType::A);
            assert_eq!(res.ede_codes(), vec![1], "{cat:?}: {:?}", res.diagnosis);
        }
    }

    #[test]
    fn sig_windows_give_7_and_8() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::SigExpired);
        assert_eq!(resolver.resolve(&d.name, RrType::A).ede_codes(), vec![7]);
        let d = first_of(&pop, Category::SigNotYetValid);
        assert_eq!(resolver.resolve(&d.name, RrType::A).ede_codes(), vec![8]);
    }

    #[test]
    fn insecure_proof_broken_gives_12() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::InsecureProofBroken);
        let res = resolver.resolve(&d.name, RrType::A);
        assert_eq!(res.ede_codes(), vec![12], "{:?}", res.diagnosis);
    }

    #[test]
    fn digest_categories_give_2() {
        let (pop, _world, resolver) = world_and_resolver();
        for cat in [Category::GostDigest, Category::UnassignedDigest] {
            let d = first_of(&pop, cat);
            let res = resolver.resolve(&d.name, RrType::A);
            assert_eq!(res.ede_codes(), vec![2], "{cat:?}: {:?}", res.diagnosis);
        }
    }

    #[test]
    fn iteration_limit_gives_0() {
        let (pop, _world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::IterationLimit);
        let res = resolver.resolve(&d.name, RrType::A);
        assert_eq!(res.ede_codes(), vec![0], "{:?}", res.diagnosis);
        assert_eq!(res.ede[0].extra_text, "iteration limit exceeded");
    }

    #[test]
    fn stale_flap_serves_stale_on_revisit() {
        let (pop, world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::StaleFlapRefuse);
        let first = resolver.resolve(&d.name, RrType::A);
        assert_eq!(first.rcode, Rcode::NoError, "{:?}", first.diagnosis);
        // Let the 60 s TTL lapse, then revisit: the flap makes the live
        // path fail and the stale entry is served.
        world.net.clock().advance_secs(120);
        let second = resolver.resolve(&d.name, RrType::A);
        assert_eq!(second.rcode, Rcode::NoError);
        let codes = second.ede_codes();
        assert!(codes.contains(&3), "{codes:?} {:?}", second.diagnosis);
        assert!(codes.contains(&22), "{codes:?}");
    }

    #[test]
    fn notauth_revisit_hits_failure_cache() {
        let (pop, world, resolver) = world_and_resolver();
        let d = first_of(&pop, Category::NotAuthCached);
        let first = resolver.resolve(&d.name, RrType::A);
        assert_eq!(first.rcode, Rcode::ServFail);
        world.net.clock().advance_secs(120);
        let second = resolver.resolve(&d.name, RrType::A);
        assert_eq!(second.rcode, Rcode::ServFail);
        assert!(
            second.ede_codes().contains(&13),
            "{:?} {:?}",
            second.ede_codes(),
            second.diagnosis
        );
    }
}
