//! Materialize a [`Population`] as a simulated internet.
//!
//! Building 303 k literal zones up front would waste memory for no
//! modeling gain, so the scan world synthesizes DNS data *on demand*,
//! deterministically, from the population registry:
//!
//! * the **root zone** is a real, signed [`ede_zone::Zone`] with one
//!   delegation (and DS) per TLD;
//! * each **TLD server** answers what a walk of referrals asks it and
//!   nothing else. The referral to a registered child is built straight
//!   from the child's registry record: the NS set, the glue and the
//!   signed DS set or the child's own narrow NSEC3 are handed to
//!   [`ede_authority::layout::referral`], with no zone in between,
//!   because referral content only ever depends on the one delegation.
//!   The apex NS and DNSKEY sets (priming's and validation's one query
//!   each per TLD) are built from the TLD's keys the same way and go
//!   through [`ede_authority::layout::positive`].
//!   Every other shape (the rest of the apex, an unregistered name, a
//!   child's parent-side DS) is REFUSED, in the shape of every
//!   rcode-only reply ([`ede_authority::layout::rcode_only`]). An
//!   insecure child's proof is narrow, as online signers serve it
//!   (RFC 7129 App. B): the child's own NSEC3, whose next hashed owner
//!   is its hash + 1, so one hash per referral proves it and the TLD
//!   keeps no chain over its registry;
//! * each **hosting server** first runs the fault gate
//!   ([`ede_authority::Behavior::gate`]) of the child's row's hosting
//!   column (for a flapping row, its second behavior once the apex A has
//!   been answered), so a server that fails the query builds nothing. A
//!   well-behaved one answers a child's apex A (and a signed child's
//!   DNSKEY) from the record and the child's derived keys, unless its
//!   zone is mutated after signing. Any other shape, and a server
//!   without EDNS, builds the child zone as the child's [`Row`] says and
//!   answers from it — a differential test holds both servers against
//!   fully materialised zones behind the row's behavior, `Message` for
//!   `Message`;
//! * the **broken pool** is three [`ede_authority::ZoneServer`]s with no
//!   zone, one per fault mode of §4.2.2's lame nameservers, each on every
//!   address of its segment ([`crate::population::broken_mode`]).
//!
//! Neither server names a category: what a planted condition means for
//! its zone and its server is one row of [`crate::category::ROWS`].
//! All key material is derived deterministically from names, so a DS
//! served by a TLD today matches the DNSKEY a hosting server synthesizes
//! tomorrow. A domain is found from its name alone: its label spells its
//! serial, and the registry keeps a 4-byte population index per serial; each TLD
//! lists its children by serial, which is what the scanner claims.

use crate::category::{Hosting, Row};
use crate::population::Serials;
use crate::population::{broken_mode, tld_addr, DomainRecord, Population, TldInfo};
use ede_authority::{layout, Behavior, ZoneServer, ZoneStore};
use ede_crypto::nsec3hash::{self, NSEC3_HASH_LEN};
use ede_netsim::{Network, NetworkBuilder, NetworkConfig, Server, ServerResponse, SimClock};
use ede_resolver::config::RootHint;
use ede_resolver::ResolverConfig;
use ede_wire::rdata::{Soa, TypeBitmap};
use ede_wire::{DigestAlg, Message, Name, Rcode, Rdata, Record, RrType};
use ede_zone::signer::{self, SignerConfig, DEFAULT_WINDOW};
use ede_zone::{Nsec3Config, Rrset, Zone, ZoneKey, ZoneKeys};
use std::borrow::Cow;
use std::collections::HashSet;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, Mutex};

/// Address of the scan world's root server.
pub const ROOT_SERVER: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);

/// Shared lookup tables over the population's domains, which they index
/// rather than copy. No table is keyed by a name: a name's label spells
/// its serial ([`Serials`]), and the serial is its slot in `places`.
struct Registry {
    /// The population's domains, shared with it.
    domains: Arc<Vec<DomainRecord>>,
    /// How the population numbers its domains.
    serials: Serials,
    /// By serial: the domain's index in the population, exactly one
    /// slot (4 bytes) per domain.
    places: Vec<u32>,
    /// By TLD index: its registered children as serials, in population
    /// order, each list exactly sized. The scanner's claims are cut from
    /// them.
    children: Vec<Vec<u32>>,
}

impl Registry {
    /// The tables over `pop`, which [`Population::generate`] made: each
    /// name has a serial, or this panics naming it.
    fn of(pop: &Population) -> Registry {
        let serials = Serials::of(&pop.config);
        // Counted first, so that each list is allocated once, exactly.
        let mut counts = vec![0usize; pop.tlds.len()];
        for d in pop.domains.iter() {
            counts[usize::from(d.tld)] += 1;
        }
        let mut children: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
        let mut places = vec![0; serials.len()];
        for (index, d) in pop.domains.iter().enumerate() {
            let serial = d.name.first_label().and_then(|label| serials.serial(label));
            let serial = serial.unwrap_or_else(|| panic!("{} has no serial", d.name));
            places[serial] = u32::try_from(index).expect("a population fits u32 indices");
            children[usize::from(d.tld)].push(u32::try_from(serial).expect("serials fit u32"));
        }
        Registry {
            domains: Arc::clone(&pop.domains),
            serials,
            places,
            children,
        }
    }

    /// The registered domain whose apex is `apex`: the record at its
    /// label's serial, if it bears that very name.
    fn get(&self, apex: &Name) -> Option<&DomainRecord> {
        let index = *self.places.get(self.serials.serial(apex.first_label()?)?)?;
        let rec = &self.domains[index as usize];
        (rec.name == *apex).then_some(rec)
    }

    /// The population index of `child`, an entry of `children`.
    fn index_of(&self, child: u32) -> usize {
        self.places[child as usize] as usize
    }
}

/// The built scan world.
pub struct ScanWorld {
    /// The network to scan.
    pub net: Arc<Network>,
    /// Resolver configuration (root hints + trust anchor).
    pub resolver_config: ResolverConfig,
    /// The lookup tables the servers share.
    registry: Arc<Registry>,
}

/// The `i`-th nameserver host of `apex`, `ns1.<apex>` or `ns2.<apex>`:
/// a domain has at most two nameservers, a TLD one.
fn ns_host(apex: &Name, i: usize) -> Name {
    apex.child(["ns1", "ns2"][i]).expect("valid")
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

/// The address every child that has one publishes at its apex.
fn apex_a(apex: &Name) -> Rrset {
    Rrset::new(apex.clone(), 60, Rdata::A(Ipv4Addr::new(203, 0, 113, 10)))
}

/// The apex RRset a child serves for `qtype`, when it is known without
/// building the child's zone: its A, and the DNSKEY set of a signed
/// child, signed as `sign_zone` would sign them — the A with the ZSK
/// alone, so only the ZSK is derived for it. A child whose row's
/// mutation edits that RRset gets its zone.
fn known_apex_rrset(rec: &DomainRecord, row: &Row, qtype: RrType) -> Option<Rrset> {
    let apex = &rec.name;
    let a = qtype == RrType::A && row.apex_a;
    if !row.signed {
        return a.then(|| apex_a(apex));
    }
    if row.mutation.is_some_and(|m| m.edits(qtype)) || !(a || qtype == RrType::Dnskey) {
        return None;
    }
    Some(if a {
        let mut set = apex_a(apex);
        set.sigs = vec![signer::sign_rrset(&set, &row.zsk(apex), apex, row.window)];
        set
    } else {
        let keys = row.keys(apex);
        let mut set = keys.dnskey_rrset(apex);
        signer::sign_in_place(&mut set, &keys, apex, row.window);
        set
    })
}

/// Build the child zone for a domain as its row says: its plain
/// records, then signed and mutated where the row asks for it.
fn materialize_child(rec: &DomainRecord) -> Zone {
    let (apex, row) = (&rec.name, rec.category.row());
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(apex.clone(), 60, soa_for(apex)));
    for (i, addr) in rec.ns_addrs.iter().enumerate() {
        let ns = ns_host(apex, i);
        zone.add(Record::new(apex.clone(), 60, Rdata::Ns(ns.clone())));
        zone.add(Record::new(ns, 60, Rdata::A(*addr)));
    }
    if row.apex_a {
        zone.add_rrset(apex_a(apex));
    }
    if row.signed {
        let keys = row.keys(apex);
        signer::sign_zone(&mut zone, &keys, &row.signer_config());
        if let Some(mutation) = row.mutation {
            mutation.apply(&mut zone, &keys);
        }
    }
    zone
}

/// The hosting fabric: serves every healthy-pool domain as its row's
/// hosting column says.
struct HostingNs {
    registry: Arc<Registry>,
    /// The flapping domains that have answered their apex A, after which
    /// their servers answer as the row's [`Hosting::Flaps`] says. Only
    /// those rows' queries take the lock.
    flapped: Mutex<HashSet<Name>>,
}

impl Server for HostingNs {
    fn handle(&self, query: &Message, _src: IpAddr, _now: u32) -> ServerResponse {
        let Some(q) = query.first_question() else {
            return ServerResponse::Reply(layout::rcode_only(query, Rcode::FormErr));
        };
        // The registered domain (label.tld) the qname belongs to.
        let Some(rec) = self.registry.get(&q.name.suffix(2)) else {
            return ServerResponse::Reply(layout::rcode_only(query, Rcode::Refused));
        };

        let row = rec.category.row();
        let behavior = match &row.hosting {
            Hosting::Steady(behavior) => behavior,
            // A flapping server changes after its first apex A answer.
            Hosting::Flaps(after) => {
                let mut flapped = self.flapped.lock().expect("no poisoning");
                let behavior = flapped.contains(&rec.name).then_some(after);
                if q.qtype == RrType::A && q.name == rec.name {
                    flapped.insert(rec.name.clone());
                }
                behavior.unwrap_or(&Behavior::Normal)
            }
        };
        // A fault answers before any zone is built.
        if let Some(resp) = behavior.gate(query) {
            return resp;
        }

        // The common case: a well-behaved server asked for a child's
        // apex A (or DNSKEY) answers without a zone.
        if *behavior == Behavior::Normal && q.name == rec.name {
            if let Some(set) = known_apex_rrset(rec, row, q.qtype) {
                let (mut resp, dnssec_ok) = layout::reply_to(query, true);
                layout::positive(&mut resp, Cow::Owned(set), dnssec_ok);
                return ServerResponse::Reply(resp);
            }
        }

        // Every other shape, the RRsets a misconfigured signed child's
        // mutation edits and the servers without EDNS are a sliver of
        // the traffic: each query builds the child's zone and looks its
        // answer up.
        let mut store = ZoneStore::new();
        store.insert(materialize_child(rec));
        ZoneServer::with_behavior(store, behavior.clone()).answer(query)
    }
}

/// TTL of the NSEC3 records a TLD serves. Registry operators publish
/// denial records with multi-hour TTLs (com/net use 86400 s); 3600 keeps
/// a proof alive across the scan's 120 s revisit window. Scan
/// observations never read it.
const NSEC3_TTL: u32 = 3600;

/// `hash` + 1 as a 160-bit big-endian integer, wrapping at 2^160: the
/// next hashed owner of a narrow NSEC3, whose interval covers no name
/// but its owner.
fn successor(mut hash: [u8; NSEC3_HASH_LEN]) -> [u8; NSEC3_HASH_LEN] {
    for byte in hash.iter_mut().rev() {
        let (sum, carry) = byte.overflowing_add(1);
        *byte = sum;
        if !carry {
            break;
        }
    }
    hash
}

/// The signed NSEC3 RRset that proves `child`, an insecure child of the
/// TLD `apex`, has no DS: the child's own record, narrow (its next
/// hashed owner is [`successor`] of its hash), with a bitmap of NS
/// alone, signed with the TLD's ZSK. A validator of an insecure
/// referral reads only its owner and its NS and DS bits (RFC 5155 §8.9).
fn narrow_nsec3(child: &Name, apex: &Name, keys: &ZoneKeys) -> Rrset {
    let params = Nsec3Config::default();
    let hash = params.hash_raw(child);
    let owner = apex
        .child_bytes(&nsec3hash::nsec3_label(&hash))
        .expect("hash label fits");
    let mut set = Rrset::new(
        owner,
        NSEC3_TTL,
        Rdata::Nsec3 {
            hash_alg: nsec3hash::NSEC3_HASH_ALG_SHA1,
            flags: 0,
            iterations: params.iterations,
            salt: params.salt,
            next_hashed: (&successor(hash)).into(),
            types: TypeBitmap::from_types([RrType::Ns]),
        },
    );
    set.sigs = vec![signer::sign_rrset(&set, &keys.zsk, apex, DEFAULT_WINDOW)];
    set
}

/// A TLD server: answers what a walk of referrals asks it — the
/// referral to a registered child, from the child's registry record,
/// and the apex NS and DNSKEY sets, from the TLD's keys — and REFUSES
/// every other query: the rest of its apex, its children's parent-side
/// DS sets and names outside its registry. It holds nothing per child:
/// an insecure child's proof is the child's narrow NSEC3
/// ([`narrow_nsec3`]), hashed and signed per referral.
struct TldServer {
    tld: Name,
    /// Leaves the NSEC3 proof out of insecure referrals (§4.2.9).
    broken_insecure_proof: bool,
    registry: Arc<Registry>,
    /// The TLD's keys, derived once instead of per query.
    keys: ZoneKeys,
    /// The DNSKEY of the stand-by KSK the TLD publishes and signs
    /// nothing with (§4.2.3), if it has one; derived once, like `keys`,
    /// and boxed: two TLDs have one, and an `Rdata` is 112 bytes.
    standby_dnskey: Option<Box<Rdata>>,
}

impl TldServer {
    /// The server of `info`, whose keys are `keys`.
    fn new(info: &TldInfo, keys: ZoneKeys, registry: Arc<Registry>) -> Self {
        let tld = info.name.clone();
        let standby_dnskey = info
            .standby_key
            .then(|| Box::new(ZoneKey::generate(&tld, "standby", 8, 2048, 257).dnskey_rdata()));
        TldServer {
            tld,
            broken_insecure_proof: info.broken_insecure_proof,
            registry,
            keys,
            standby_dnskey,
        }
    }

    /// The apex RRset the TLD serves for `qtype` without a zone: its NS
    /// set, and its DNSKEY set — with the extra SEP key a stand-by TLD
    /// publishes and signs nothing with (§4.2.3) — signed as
    /// `sign_zone` would sign them.
    fn apex_rrset(&self, qtype: RrType) -> Option<Rrset> {
        let tld = &self.tld;
        let mut set = match qtype {
            RrType::Ns => Rrset::new(tld.clone(), 3600, Rdata::Ns(ns_host(tld, 0))),
            RrType::Dnskey => {
                let mut set = self.keys.dnskey_rrset(tld);
                if let Some(standby) = &self.standby_dnskey {
                    set.push(Rdata::clone(standby));
                }
                set
            }
            _ => return None,
        };
        signer::sign_in_place(&mut set, &self.keys, tld, DEFAULT_WINDOW);
        Some(set)
    }

    /// The referral to a registered child, filled from its record with
    /// no zone in between: referral content only ever depends on the one
    /// delegation, and only the RRsets a referral carries are built (and
    /// signed).
    fn referral(&self, query: &Message, rec: &DomainRecord) -> ServerResponse {
        let (mut resp, dnssec_ok) = layout::reply_to(query, true);
        let mut ns = Rrset::empty(rec.name.clone(), RrType::Ns, 3600);
        ns.rdatas.reserve_exact(rec.ns_addrs.len());
        let mut glue = Vec::with_capacity(rec.ns_addrs.len());
        for (i, addr) in rec.ns_addrs.iter().enumerate() {
            let host = ns_host(&rec.name, i);
            ns.push(Rdata::Ns(host.clone()));
            glue.push(Record::new(host, 3600, Rdata::A(*addr)));
        }
        let row = rec.category.row();
        let proof = if !dnssec_ok {
            None
        } else if row.signed {
            let mut ds = Rrset::empty(rec.name.clone(), RrType::Ds, 3600);
            ds.rdatas = row.parent_ds(&rec.name);
            signer::sign_in_place(&mut ds, &self.keys, &self.tld, DEFAULT_WINDOW);
            Some(ds)
        } else {
            // Insecure delegation: the child's matching NSEC3 — unless
            // this TLD deliberately lost it (§4.2.9).
            (!self.broken_insecure_proof).then(|| narrow_nsec3(&rec.name, &self.tld, &self.keys))
        };
        layout::referral(
            &mut resp,
            Cow::Owned(ns),
            proof.map(Cow::Owned),
            glue,
            dnssec_ok,
        );
        ServerResponse::Reply(resp)
    }
}

impl Server for TldServer {
    fn handle(&self, query: &Message, _src: IpAddr, _now: u32) -> ServerResponse {
        let Some(q) = query.first_question() else {
            return ServerResponse::Reply(layout::rcode_only(query, Rcode::FormErr));
        };
        // The apex sets priming and validation ask for, once per TLD:
        // one RRset each, built and signed with no zone.
        if q.name == self.tld {
            if let Some(set) = self.apex_rrset(q.qtype) {
                let (mut resp, dnssec_ok) = layout::reply_to(query, true);
                layout::positive(&mut resp, Cow::Owned(set), dnssec_ok);
                return ServerResponse::Reply(resp);
            }
        }
        // At or below a registered child every query is referred to it,
        // except for the child's own DS, which is the parent side's.
        let registered = self
            .registry
            .get(&q.name.suffix(2))
            .filter(|_| q.name.is_subdomain_of(&self.tld));
        match registered {
            Some(child) if q.qtype != RrType::Ds || q.name != child.name => {
                self.referral(query, child)
            }
            _ => ServerResponse::Reply(layout::rcode_only(query, Rcode::Refused)),
        }
    }
}

/// The scan world's root zone before [`ScanWorld::build`] signs it with
/// the root's keys (`ZoneKeys::generate(&Name::root(), 8, 2048)`) and the
/// default signer configuration: the root's SOA, its NS and that host's
/// address, and for each of `tlds` its delegation — NS, glue, and the DS
/// of the TLD's key.
pub fn unsigned_root_zone(tlds: &[TldInfo]) -> Zone {
    let keys: Vec<ZoneKeys> = tlds.iter().map(|tld| tld_keys(&tld.name)).collect();
    root_zone_over(tlds, &keys)
}

/// [`unsigned_root_zone`] with each TLD's keys given, `keys[i]` those of
/// `tlds[i]`: the world derives them once, for this zone's DS records
/// and the TLD's server both.
fn root_zone_over(tlds: &[TldInfo], keys: &[ZoneKeys]) -> Zone {
    let root = Name::root();
    let mut root_zone = Zone::new(root.clone());
    root_zone.add(Record::new(root.clone(), 3600, soa_for(&root)));
    let root_ns = Name::parse("ns1").expect("valid");
    root_zone.add(Record::new(root, 3600, Rdata::Ns(root_ns.clone())));
    root_zone.add_a(root_ns, ROOT_SERVER);
    for (tld, keys) in tlds.iter().zip(keys) {
        let ns = ns_host(&tld.name, 0);
        root_zone.add(Record::new(tld.name.clone(), 3600, Rdata::Ns(ns.clone())));
        root_zone.add_a(ns, tld_addr(tld.server_index));
        root_zone.add(Record::new(
            tld.name.clone(),
            3600,
            keys.ksk.ds_rdata(&tld.name, DigestAlg::SHA256),
        ));
    }
    root_zone
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

        // Root zone: real, signed, one delegation per TLD, whose DS is
        // taken from the keys the TLD's server is given below.
        let keys: Vec<ZoneKeys> = pop.tlds.iter().map(|tld| tld_keys(&tld.name)).collect();
        let root = Name::root();
        let mut root_zone = root_zone_over(&pop.tlds, &keys);
        let root_keys = ZoneKeys::generate(&root, 8, 2048);
        signer::sign_zone(&mut root_zone, &root_keys, &SignerConfig::default());
        let trust_anchor = root_keys.ksk.ds_rdata(&root, DigestAlg::SHA256);

        let mut store = ZoneStore::new();
        store.insert(root_zone);
        net.register(IpAddr::V4(ROOT_SERVER), Arc::new(ZoneServer::new(store)));

        // TLD servers.
        for (tld, keys) in pop.tlds.iter().zip(keys) {
            let server = Arc::new(TldServer::new(tld, keys, Arc::clone(&registry)));
            net.register(IpAddr::V4(tld_addr(tld.server_index)), server);
        }

        // Hosting fabric: one shared server object on every healthy
        // address.
        let hosting = Arc::new(HostingNs {
            registry: Arc::clone(&registry),
            flapped: Mutex::default(),
        });
        for addr in &pop.healthy_ns {
            net.register(IpAddr::V4(*addr), hosting.clone() as Arc<dyn Server>);
        }

        // Broken pool: one server per fault mode, with no zone, shared
        // by every address of the mode's segment.
        let modes = [
            Behavior::RefuseAll,
            Behavior::ServfailAll,
            Behavior::Timeout,
        ]
        .map(|mode| Arc::new(ZoneServer::with_behavior(ZoneStore::new(), mode)));
        for (i, addr) in pop.broken_ns.iter().enumerate() {
            let mode = broken_mode(i, pop.broken_ns.len());
            let server = modes.iter().find(|s| *s.behavior() == mode);
            let server = Arc::clone(server.expect("a server per mode"));
            net.register(IpAddr::V4(*addr), server as Arc<dyn Server>);
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
            registry,
        }
    }

    /// TLD `tld`'s registered children, in population order, each as
    /// [`Self::domain_index`] reads it: the scanner's claims are cut
    /// from these.
    pub(crate) fn tld_children(&self, tld: usize) -> &[u32] {
        &self.registry.children[tld]
    }

    /// The population index of `child`, an entry of [`Self::tld_children`].
    pub(crate) fn domain_index(&self, child: u32) -> usize {
        self.registry.index_of(child)
    }

    /// `domain`'s entry in its TLD's [`Self::tld_children`]: the serial
    /// its label spells.
    pub(crate) fn child_entry(&self, domain: &DomainRecord) -> u32 {
        let serial = domain
            .name
            .first_label()
            .and_then(|l| self.registry.serials.serial(l));
        let serial = serial.expect("a population domain has a serial");
        u32::try_from(serial).expect("serials fit u32")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{Category, PopulationConfig};
    use ede_resolver::{Resolver, Vendor, VendorProfile};
    use ede_wire::Edns;
    use ede_zone::Misconfig;
    use std::collections::HashMap;

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
        outcome(server, qname, qtype, dnssec_ok)
            .unwrap_or_else(|| panic!("{qname} {qtype}: dropped"))
    }

    /// The reply to an EDNS query, or `None` for a dropped one.
    fn outcome(
        server: &dyn Server,
        qname: &Name,
        qtype: RrType,
        dnssec_ok: bool,
    ) -> Option<Message> {
        let mut query = Message::iterative_query(0x5eed, qname.clone(), qtype);
        query.edns.as_mut().unwrap().dnssec_ok = dnssec_ok;
        match server.handle(&query, "203.0.113.9".parse().unwrap(), 0) {
            ServerResponse::Reply(m) => Some(m),
            ServerResponse::Drop => None,
        }
    }

    /// Add `rec`'s delegation as its parent publishes it: NS, glue, and
    /// the DS set of a signed child (unsigned).
    fn add_delegation(zone: &mut Zone, rec: &DomainRecord) {
        for (i, addr) in rec.ns_addrs.iter().enumerate() {
            let ns = ns_host(&rec.name, i);
            zone.add(Record::new(rec.name.clone(), 3600, Rdata::Ns(ns.clone())));
            zone.add(Record::new(ns, 3600, Rdata::A(*addr)));
        }
        for ds in rec.category.row().parent_ds(&rec.name) {
            zone.add(Record::new(rec.name.clone(), 3600, ds));
        }
    }

    /// The TLD zone as a registry would publish it whole: every
    /// delegation of the population materialised, `sign_zone` over all
    /// of it (full NSEC3 chain), then the things the world does on top —
    /// NSEC3 records at the registry TTL and narrow, their next hashed
    /// owner their own hash + 1, and the TLD's planted condition.
    fn full_tld_server(pop: &Population, tld_index: usize) -> ZoneServer {
        let tld = &pop.tlds[tld_index];
        let mut zone = Zone::new(tld.name.clone());
        zone.add(Record::new(tld.name.clone(), 3600, soa_for(&tld.name)));
        let host = ns_host(&tld.name, 0);
        zone.add(Record::new(tld.name.clone(), 3600, Rdata::Ns(host.clone())));
        zone.add_a(host, tld_addr(tld.server_index));
        for d in pop
            .domains
            .iter()
            .filter(|d| usize::from(d.tld) == tld_index)
        {
            add_delegation(&mut zone, d);
        }
        let keys = tld_keys(&tld.name);
        signer::sign_zone(&mut zone, &keys, &SignerConfig::default());
        for set in zone.iter_mut().filter(|s| s.rtype == RrType::Nsec3) {
            set.ttl = NSEC3_TTL;
            let label = std::str::from_utf8(set.name.first_label().unwrap()).unwrap();
            let owner = ede_crypto::base32::decode(label).unwrap();
            let Rdata::Nsec3 { next_hashed, .. } = &mut set.rdatas[0] else {
                unreachable!("an NSEC3 set holds NSEC3 records")
            };
            *next_hashed = (&successor(owner.try_into().unwrap())).into();
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

    /// Every domain is found by its own name, at its own index and
    /// ordinal, where its TLD lists it by its serial, and a name that
    /// only looks like one is not.
    #[test]
    fn the_registry_finds_each_domain_by_its_name_and_no_near_miss() {
        let pop = Population::generate(PopulationConfig::tiny());
        let registry = Registry::of(&pop);
        let serials = Serials::of(&pop.config);
        let mut ordinals = vec![0u32; pop.tlds.len()];
        for (index, d) in pop.domains.iter().enumerate() {
            let found = registry.get(&d.name).expect("registered");
            assert!(std::ptr::eq(found, d), "{}", d.name);
            let t = usize::from(d.tld);
            let child = registry.children[t][ordinals[t] as usize];
            assert_eq!(registry.index_of(child), index, "{}", d.name);
            let serial = serials.serial(d.name.first_label().unwrap());
            assert_eq!(Some(child as usize), serial, "{}", d.name);
            ordinals[t] += 1;
        }

        let d = &pop.domains[0];
        let label = std::str::from_utf8(d.name.first_label().unwrap()).unwrap();
        let elsewhere = &pop.tlds[(usize::from(d.tld) + 1) % pop.tlds.len()].name;
        let tld = &pop.tlds[usize::from(d.tld)].name;
        let per_tld = pop
            .domains
            .iter()
            .filter(|d| d.name.first_label().unwrap().starts_with(b"fb00x"))
            .count();
        assert!(per_tld > 0, "no fully-broken tail");
        let misses = [
            elsewhere.child(label).unwrap(),
            tld.child("d5").unwrap(),
            tld.child(&serials.label(pop.domains.len())).unwrap(),
            tld.child(&format!("d{:07}", pop.domains.len())).unwrap(),
            tld.child(&format!("fb00x{per_tld:05}")).unwrap(),
            tld.child("dabcdefg").unwrap(),
            tld.child("never-registered").unwrap(),
            tld.clone(),
            Name::root(),
        ];
        for name in misses {
            assert!(registry.get(&name).is_none(), "{name} was found");
        }
    }

    /// Each child's name, its label written from its serial under its
    /// TLD, is the name its record holds: every domain of the tiny
    /// population and of 1:20000, the fully-broken tail included.
    #[test]
    fn names_derived_from_serials_are_the_records_names() {
        let twenty_thousandth = PopulationConfig {
            scale: 20_000,
            ..Default::default()
        };
        for config in [PopulationConfig::tiny(), twenty_thousandth] {
            let pop = Population::generate(config);
            let registry = Registry::of(&pop);
            let (mut derived, mut tail) = (0, 0);
            for (t, children) in registry.children.iter().enumerate() {
                for &child in children {
                    let rec = &pop.domains[registry.index_of(child)];
                    let label = registry.serials.label(child as usize);
                    assert_eq!(pop.tlds[t].name.child(&label).unwrap(), rec.name);
                    derived += 1;
                    tail += usize::from(rec.name.first_label().unwrap().starts_with(b"fb"));
                }
            }
            assert_eq!(derived, pop.domains.len());
            assert!(tail > 0, "1:{}: no fully-broken tail", pop.config.scale);
        }
    }

    /// Each TLD's list of children is allocated once, at its length.
    #[test]
    fn every_registry_list_is_exactly_sized() {
        let pop = Population::generate(PopulationConfig::tiny());
        let registry = Registry::of(&pop);
        assert_eq!(registry.children.len(), pop.tlds.len());
        for (t, list) in registry.children.iter().enumerate() {
            assert_eq!(list.len(), list.capacity(), "TLD {t}");
        }
        let listed: usize = registry.children.iter().map(Vec::len).sum();
        assert_eq!(listed, pop.domains.len());
    }

    /// The lean servers — a referral and the apex NS and DNSKEY sets
    /// filled from the registry record and the keys at the TLD, the
    /// healthy children's apex A and DNSKEY at the hosting fabric — must
    /// be indistinguishable from servers over fully materialised, fully
    /// signed zones for every query shape the scan sends, and the
    /// hosting fabric, whatever its row's behavior, from a zone server
    /// with that behavior for every shape: `Message` for `Message`,
    /// signatures included, with DO and without.
    #[test]
    fn lean_servers_answer_as_fully_materialised_zones_do() {
        let pop = Population::generate(PopulationConfig::tiny());
        let registry = Arc::new(Registry::of(&pop));
        let mut full_tlds: HashMap<usize, ZoneServer> = HashMap::new();
        for cat in Category::ALL {
            let sample: Vec<_> = pop.domains.iter().filter(|d| d.category == cat).collect();
            assert!(!sample.is_empty(), "population lacks {cat:?}");
            for rec in sample.into_iter().take(3) {
                let t = usize::from(rec.tld);
                let tld = &pop.tlds[t];
                let lean = TldServer::new(tld, tld_keys(&tld.name), Arc::clone(&registry));
                let full = full_tlds
                    .entry(t)
                    .or_insert_with(|| full_tld_server(&pop, t));
                let below = rec.name.child("www").unwrap();
                for (qname, qtype) in [
                    (&rec.name, RrType::A),
                    (&rec.name, RrType::Dnskey),
                    (&below, RrType::A),
                    (&tld.name, RrType::Dnskey),
                    (&tld.name, RrType::Ns),
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

        // The hosting half, for every category, against a zone server
        // with the row's behavior: a flapping row before its first apex
        // A (asked last) and after it, on a fresh fabric per DO value.
        for cat in Category::ALL {
            for rec in pop.domains.iter().filter(|d| d.category == cat).take(3) {
                let (first, then) = match &rec.category.row().hosting {
                    Hosting::Steady(behavior) => (behavior, behavior),
                    Hosting::Flaps(after) => (&Behavior::Normal, after),
                };
                let full = |behavior: &Behavior| {
                    let mut store = ZoneStore::new();
                    store.insert(materialize_child(rec));
                    ZoneServer::with_behavior(store, behavior.clone())
                };
                let (first, then) = (full(first), full(then));
                let below = rec.name.child("www").unwrap();
                let shapes = [
                    (&rec.name, RrType::Dnskey),
                    (&rec.name, RrType::Ns),
                    (&rec.name, RrType::Aaaa),
                    (&below, RrType::A),
                    (&rec.name, RrType::A),
                ];
                for dnssec_ok in [true, false] {
                    let hosting = HostingNs {
                        registry: Arc::clone(&registry),
                        flapped: Mutex::default(),
                    };
                    for (full, phase) in [(&first, "before"), (&then, "after")] {
                        for (qname, qtype) in shapes {
                            assert_eq!(
                                outcome(&hosting, qname, qtype, dnssec_ok),
                                outcome(full, qname, qtype, dnssec_ok),
                                "{cat:?}: {qname} {qtype} at the child, DO {dnssec_ok}, \
                                 {phase} its first apex A"
                            );
                        }
                    }
                }
            }
        }
    }

    /// One signature per DNSKEY RRset, the KSK's: every TLD server's, the
    /// root's and that of one signed child of each signed category, asked
    /// through the world's network (a child at a healthy address of the
    /// hosting fabric, which answers any child). The stand-by TLD still
    /// publishes its third key, and that key signs nothing.
    #[test]
    fn every_dnskey_answer_carries_one_signature_the_ksks() {
        let pop = Population::generate(PopulationConfig::tiny());
        let world = ScanWorld::build(&pop);
        let src = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 53));
        // The answer's key count and the key tags of its signatures.
        let dnskey_answer = |server: Ipv4Addr, apex: &Name| {
            let mut query = Message::iterative_query(7, apex.clone(), RrType::Dnskey);
            query.edns.as_mut().unwrap().dnssec_ok = true;
            let resp = world.net.query(IpAddr::V4(server), src, &query);
            let resp = resp.unwrap_or_else(|e| panic!("{apex} DNSKEY: {e:?}"));
            let keys = resp.answers.iter().filter(|r| r.rtype() == RrType::Dnskey);
            let tags = resp.answers.iter().filter_map(|r| match &r.rdata {
                Rdata::Rrsig(sig) => Some(sig.key_tag),
                _ => None,
            });
            (keys.count(), tags.collect::<Vec<u16>>())
        };

        let root = Name::root();
        let root_ksk = ZoneKeys::generate(&root, 8, 2048).ksk.key_tag();
        assert_eq!(dnskey_answer(ROOT_SERVER, &root), (2, vec![root_ksk]));
        for tld in &pop.tlds {
            let ksk = tld_keys(&tld.name).ksk.key_tag();
            let published = if tld.standby_key { 3 } else { 2 };
            let answer = dnskey_answer(tld_addr(tld.server_index), &tld.name);
            assert_eq!(answer, (published, vec![ksk]), "{}", tld.name);
        }
        assert!(pop.tlds.iter().any(|t| t.standby_key), "no stand-by TLD");

        let hosting = pop.healthy_ns[0];
        let signed = Category::ALL.into_iter().filter(|c| c.row().signed);
        for cat in signed {
            let rec = first_of(&pop, cat);
            let ksk = cat.row().keys(&rec.name).ksk.key_tag();
            assert_eq!(dnskey_answer(hosting, &rec.name), (2, vec![ksk]), "{cat:?}");
        }
    }

    /// Every insecure child under an honest TLD is proved by its own
    /// narrow NSEC3: owner H(child) under the TLD, next hashed owner
    /// H(child) + 1, bitmap {NS}, and an RRSIG the TLD's keys verify. The
    /// tiny population and 1:20000.
    #[test]
    fn an_insecure_referral_carries_the_childs_narrow_nsec3() {
        use ede_resolver::diagnosis::{Diagnosis, SigTarget};
        use ede_resolver::profiles::ValidatorCaps;
        use ede_resolver::validate;
        use ede_zone::signer::SIM_NOW;
        let twenty_thousandth = PopulationConfig {
            scale: 20_000,
            ..Default::default()
        };
        let caps = ValidatorCaps::full();
        for config in [PopulationConfig::tiny(), twenty_thousandth] {
            let pop = Population::generate(config);
            let registry = Arc::new(Registry::of(&pop));
            let params = Nsec3Config::default();
            let mut proved = 0;
            for (t, tld) in pop.tlds.iter().enumerate() {
                if tld.broken_insecure_proof {
                    continue;
                }
                let keys = tld_keys(&tld.name);
                let ds = [keys.ksk.ds_rdata(&tld.name, DigestAlg::SHA256)];
                let server = TldServer::new(tld, keys, Arc::clone(&registry));
                let dnskey = server.apex_rrset(RrType::Dnskey).unwrap();
                let trusted = validate::validate_dnskey(
                    &tld.name,
                    &ds,
                    &dnskey,
                    &caps,
                    SIM_NOW,
                    &mut Diagnosis::new(),
                )
                .trusted
                .unwrap_or_else(|| panic!("{}: keys do not validate", tld.name));
                for &child in &registry.children[t] {
                    let rec = &pop.domains[registry.index_of(child)];
                    if rec.category.signed() {
                        continue;
                    }
                    let resp = reply(&server, &rec.name, RrType::A);
                    let mut nsec3 = resp
                        .authorities
                        .iter()
                        .filter(|r| r.rtype() == RrType::Nsec3);
                    let record = nsec3
                        .next()
                        .unwrap_or_else(|| panic!("{}: no NSEC3", rec.name));
                    assert!(nsec3.next().is_none(), "{}: two NSEC3 records", rec.name);
                    let hash = params.hash_raw(&rec.name);
                    let owner = tld
                        .name
                        .child_bytes(&nsec3hash::nsec3_label(&hash))
                        .unwrap();
                    assert_eq!(record.name, owner, "{}", rec.name);
                    let Rdata::Nsec3 {
                        next_hashed, types, ..
                    } = &record.rdata
                    else {
                        unreachable!()
                    };
                    assert_eq!(next_hashed[..], successor(hash)[..], "{}", rec.name);
                    assert_eq!(*types, TypeBitmap::from_types([RrType::Ns]), "{}", rec.name);

                    let mut set = Rrset::new(record.name.clone(), record.ttl, record.rdata.clone());
                    set.sigs = resp
                        .authorities
                        .iter()
                        .filter_map(|r| match &r.rdata {
                            Rdata::Rrsig(sig) if sig.type_covered == RrType::Nsec3 => {
                                Some(sig.clone())
                            }
                            _ => None,
                        })
                        .collect();
                    let mut diag = Diagnosis::new();
                    assert!(
                        validate::check_rrset(
                            &set,
                            &trusted,
                            &caps,
                            SIM_NOW,
                            SigTarget::Answer,
                            &mut diag
                        ),
                        "{}: {diag:?}",
                        rec.name
                    );
                    proved += 1;
                }
            }
            assert!(
                proved > 0,
                "1:{}: no insecure child proved",
                pop.config.scale
            );
        }
    }

    /// The successor of a hash is the hash + 1 as one big-endian number:
    /// the carry runs through every 0xff byte, and all-0xff wraps to
    /// all-zero.
    #[test]
    fn a_hash_successor_carries_and_wraps() {
        let mut hash = [0u8; NSEC3_HASH_LEN];
        hash[19] = 0x41;
        let mut next = hash;
        next[19] = 0x42;
        assert_eq!(successor(hash), next);
        hash[17..].copy_from_slice(&[0x07, 0xff, 0xff]);
        next[17..].copy_from_slice(&[0x08, 0x00, 0x00]);
        assert_eq!(successor(hash), next);
        assert_eq!(successor([0xff; NSEC3_HASH_LEN]), [0x00; NSEC3_HASH_LEN]);
    }

    /// What a server does not serve is REFUSED, a query without a
    /// question FORMERR and a fault its rcode, each in the one shape an
    /// rcode-only reply has: nothing in it but, for an EDNS query, an OPT
    /// with the query's DO bit. Asked over the world's network: at a TLD,
    /// a registered child's parent-side DS, the apex SOA and a name
    /// outside the registry; at the hosting fabric, a name it does not
    /// host; at the broken pool's refusing and failing segments, a
    /// child's A; and each of these servers and the root without a
    /// question (the pool's gate answers first). The silent segment
    /// answers nothing.
    #[test]
    fn what_a_server_does_not_serve_is_refused() {
        let pop = Population::generate(PopulationConfig::tiny());
        let world = ScanWorld::build(&pop);
        let rec = first_of(&pop, Category::HealthySigned);
        let tld = &pop.tlds[usize::from(rec.tld)];
        let unregistered = tld.name.child("never-registered").unwrap();
        let foreign = Name::parse("www.example.org").unwrap();
        let tld_server = IpAddr::V4(tld_addr(tld.server_index));
        let hosting = IpAddr::V4(pop.healthy_ns[0]);
        let broken = |mode: Behavior| {
            let total = pop.broken_ns.len();
            let i = (0..total).find(|&i| broken_mode(i, total) == mode);
            IpAddr::V4(pop.broken_ns[i.unwrap_or_else(|| panic!("no {mode:?} segment"))])
        };
        let refusing = broken(Behavior::RefuseAll);
        let failing = broken(Behavior::ServfailAll);
        let a = Some((&rec.name, RrType::A));
        let cases = [
            (tld_server, Some((&rec.name, RrType::Ds)), Rcode::Refused),
            (tld_server, Some((&tld.name, RrType::Soa)), Rcode::Refused),
            (tld_server, Some((&unregistered, RrType::A)), Rcode::Refused),
            (hosting, Some((&foreign, RrType::A)), Rcode::Refused),
            (refusing, a, Rcode::Refused),
            (failing, a, Rcode::ServFail),
            (tld_server, None, Rcode::FormErr),
            (hosting, None, Rcode::FormErr),
            (IpAddr::V4(ROOT_SERVER), None, Rcode::FormErr),
            (refusing, None, Rcode::Refused),
            (failing, None, Rcode::ServFail),
        ];
        let query = |question: Option<(&Name, RrType)>, edns: Option<bool>| {
            let (qname, qtype) = question.unwrap_or((&rec.name, RrType::A));
            let mut query = Message::iterative_query(0x5eed, qname.clone(), qtype);
            if question.is_none() {
                query.questions.clear();
            }
            query.edns = edns.map(|dnssec_ok| Edns {
                dnssec_ok,
                ..Default::default()
            });
            query
        };
        let src = "203.0.113.9".parse().unwrap();
        for (server, question, rcode) in cases {
            for edns in [Some(true), Some(false), None] {
                let resp = world.net.query(server, src, &query(question, edns));
                let resp = resp.unwrap_or_else(|e| panic!("{server} {question:?}: {e:?}"));
                let case = format!("{server} {question:?}, EDNS {edns:?}");
                assert_eq!(resp.rcode, rcode, "{case}");
                assert_eq!(resp.edns.as_ref().map(|e| e.dnssec_ok), edns, "{case}");
                let sections = [&resp.answers, &resp.authorities, &resp.additionals];
                assert!(sections.iter().all(|s| s.is_empty()), "{case}: {resp:?}");
            }
        }
        let silent = broken(Behavior::Timeout);
        for question in [a, None] {
            let resp = world.net.query(silent, src, &query(question, Some(true)));
            assert_eq!(resp.err(), Some(ede_netsim::NetError::Timeout));
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
        // §4.2.11: a server that starts refusing may add 23 to 3+22; one
        // that goes silent never does.
        for (cat, may_add_23) in [
            (Category::StaleFlapRefuse, true),
            (Category::StaleFlapDrop, false),
        ] {
            let (pop, world, resolver) = world_and_resolver();
            let d = first_of(&pop, cat);
            let first = resolver.resolve(&d.name, RrType::A);
            assert_eq!(
                first.rcode,
                Rcode::NoError,
                "{cat:?}: {:?}",
                first.diagnosis
            );
            // Let the 60 s TTL lapse, then revisit: the flap makes the
            // live path fail and the stale entry is served.
            world.net.clock().advance_secs(120);
            let second = resolver.resolve(&d.name, RrType::A);
            assert_eq!(second.rcode, Rcode::NoError, "{cat:?}");
            let codes = second.ede_codes();
            assert!(
                codes.contains(&3),
                "{cat:?}: {codes:?} {:?}",
                second.diagnosis
            );
            assert!(codes.contains(&22), "{cat:?}: {codes:?}");
            if !may_add_23 {
                assert!(!codes.contains(&23), "{cat:?}: {codes:?}");
            }
        }
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
