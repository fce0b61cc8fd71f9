//! A mutation oracle for the validator. Each case takes an honest signed
//! reply of one shape the testbed and the scan serve — a positive
//! answer, NODATA, NXDOMAIN, a DNSKEY response, a signed referral with
//! DS and an insecure referral with its NSEC3 — and applies one mutation
//! from a fixed table whose rows each name the RFC clause that decides
//! it. What the mutation touches is drawn from a seeded SplitMix64
//! stream, so every failure reproduces.
//!
//! A *covered* mutation changes what a signature or a proof vouches for:
//! the reply must never validate as Secure or Insecure. An *uncovered*
//! one changes what no signature covers: the verdict must not move.
//!
//! A second table re-signs instead of breaking: the simulated public key
//! embeds its secret, so the oracle can do what a misconfigured online
//! signer does and sign, with the zone's own key, an RRSIG whose signer
//! name or labels field is wrong. RFC 4035 §5.3.1 makes each of those
//! Bogus.
//!
//! A third table plants decoys: a key or an RRSIG that carries the tag
//! of the one the verdict rests on, listed before it. A key tag does not
//! identify a key (RFC 4034 App. B), and RFC 4035 §5.3.1 has a validator
//! try every key and signature a tag names, so a decoy changes nothing.
//! Nor does the order of an RRset's RDATAs or RRSIGs (RFC 2181 §5): the
//! oracle permutes both in honest replies and in decoyed ones.
//!
//! Answers and DNSKEY responses are validated through the public
//! [`validate_dnskey`], [`check_rrset`] and [`check_negative`];
//! referrals through a [`Resolver`] whose root server hands out the
//! mutated referral. The signed SOA of a negative answer is no target:
//! the validator reads a denial's NSEC3 records alone (ROADMAP item 18).

use ede_authority::{ZoneServer, ZoneStore};
use ede_crypto::simsig::MIN_PUBKEY_LEN;
use ede_netsim::{NetworkBuilder, Server, ServerResponse, SimClock};
use ede_resolver::config::RootHint;
use ede_resolver::diagnosis::{NegativeKind, SigTarget};
use ede_resolver::profiles::ValidatorCaps;
use ede_resolver::validate::{check_negative, check_rrset, validate_dnskey};
use ede_resolver::{Diagnosis, Resolver, ResolverConfig, ValidationState, Vendor, VendorProfile};
use ede_wire::rdata::{Rrsig, Soa};
use ede_wire::{DigestAlg, Message, Name, Rcode, Rdata, Record, RrType};
use ede_zone::canonical::{signing_data, DnskeyFields};
use ede_zone::rrset::sets_in;
use ede_zone::signer::{self, SignerConfig, SIM_NOW};
use ede_zone::{Rrset, Zone, ZoneKey, ZoneKeys};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Draws per (shape, row): enough to reach each RRSIG field and several
/// records and bytes, few enough for a debug run well under a second.
const DRAWS: u64 = 12;
const SEED: u64 = 0x0055_0ac1e;

const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const SECURE: Ipv4Addr = Ipv4Addr::new(185, 199, 120, 1);
const INSECURE: Ipv4Addr = Ipv4Addr::new(185, 199, 120, 2);
/// A second address of each child's server, which the glue mutation
/// points the referral at.
const SECURE_ALT: Ipv4Addr = Ipv4Addr::new(185, 199, 120, 11);
const INSECURE_ALT: Ipv4Addr = Ipv4Addr::new(185, 199, 120, 12);

/// Deterministic SplitMix64 stream driving the draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.next() as u128 * n as u128) >> 64) as usize
    }
}

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// The reply shapes under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Positive,
    Nodata,
    Nxdomain,
    Dnskey,
    SecureReferral,
    InsecureReferral,
}

impl Shape {
    const ALL: [Shape; 6] = [
        Shape::Positive,
        Shape::Nodata,
        Shape::Nxdomain,
        Shape::Dnskey,
        Shape::SecureReferral,
        Shape::InsecureReferral,
    ];

    /// The signed RRsets the verdict rests on: their type, and whether
    /// they sit in the answer section (else the authority section).
    fn target(self) -> (RrType, bool) {
        match self {
            Shape::Positive => (RrType::A, true),
            Shape::Dnskey => (RrType::Dnskey, true),
            Shape::SecureReferral => (RrType::Ds, false),
            Shape::Nodata | Shape::Nxdomain | Shape::InsecureReferral => (RrType::Nsec3, false),
        }
    }

    fn is_referral(self) -> bool {
        matches!(self, Shape::SecureReferral | Shape::InsecureReferral)
    }

    /// The name a resolution or a query of this shape asks for.
    fn question(self) -> (Name, RrType) {
        match self {
            Shape::Positive => (n("www.secure"), RrType::A),
            Shape::Nodata => (n("www.secure"), RrType::Txt),
            Shape::Nxdomain => (n("nope.secure"), RrType::A),
            Shape::Dnskey => (n("secure"), RrType::Dnskey),
            Shape::SecureReferral => (n("www.secure"), RrType::A),
            Shape::InsecureReferral => (n("www.insecure"), RrType::A),
        }
    }
}

/// What a mutation acts on: the reply, the DS RDATA a DNSKEY response
/// is checked against (a referral carries its own), and the DNSKEY RRset
/// an answer is validated with (none for a DNSKEY response, which is its
/// own, or a referral, whose resolver fetches it).
#[derive(Clone)]
struct Subject {
    reply: Message,
    ds: Vec<Rdata>,
    dnskey: Option<Rrset>,
}

/// One row of the mutation table.
struct Row {
    what: &'static str,
    /// The clause that says whether a validator must notice.
    clause: &'static str,
    covered: bool,
    /// Mutate the subject of `shape`; false when the row does not apply
    /// to the shape, or the draw found nothing to change.
    mutate: fn(&mut Subject, Shape, &World, &mut Rng) -> bool,
}

const ROWS: &[Row] = &[
    Row {
        what: "a signed RDATA bit flipped",
        clause: "RFC 4034 §3.1.8.1, RFC 4035 §5.3.3",
        covered: true,
        mutate: flip_rdata_bit,
    },
    Row {
        what: "an RRSIG field changed",
        clause: "RFC 4035 §5.3.1-§5.3.3",
        covered: true,
        mutate: change_rrsig_field,
    },
    Row {
        what: "a record added to a signed RRset",
        clause: "RFC 4034 §3.1.8.1 (the signature covers the whole RRset)",
        covered: true,
        mutate: add_record,
    },
    Row {
        what: "a record removed from a signed RRset",
        clause: "RFC 4034 §3.1.8.1 (the signature covers the whole RRset)",
        covered: true,
        mutate: remove_record,
    },
    Row {
        what: "an RRSIG removed",
        clause: "RFC 4035 §5.3, §5.4 (an RRset of a signed zone needs a signature)",
        covered: true,
        mutate: remove_rrsig,
    },
    Row {
        what: "a proof record removed",
        clause: "RFC 5155 §8.4-§8.6, §8.9; RFC 4035 §5.2",
        covered: true,
        mutate: remove_proof_rrset,
    },
    Row {
        what: "a DS digest changed",
        clause: "RFC 4035 §5.2, RFC 4034 §5.1.4",
        covered: true,
        mutate: change_ds_digest,
    },
    Row {
        what: "a lower TTL",
        clause: "RFC 4035 §5.3.3 (the RRSIG's Original TTL is what was signed)",
        covered: false,
        mutate: lower_ttl,
    },
    Row {
        what: "the owner name's case on the wire",
        clause: "RFC 4034 §6.2, RFC 4343 (canonical form is lowercase)",
        covered: false,
        mutate: owner_case,
    },
    Row {
        what: "the glue",
        clause: "RFC 4035 §2.2 (glue is not signed)",
        covered: false,
        mutate: other_glue,
    },
    Row {
        what: "the referral's NS set",
        clause: "RFC 4035 §2.2 (the NS set at a delegation point is not signed)",
        covered: false,
        mutate: extra_ns,
    },
];

/// Re-signed signatures whose fields RFC 4035 §5.3.1 rules out; each
/// must end Bogus wherever it applies.
const RESIGNED: &[Row] = &[
    Row {
        what: "re-signed with the parent as signer",
        clause: "RFC 4035 §5.3.1 (the signer is the zone that contains the RRset)",
        covered: true,
        mutate: |subject, shape, world, rng| {
            resign(subject, shape, world, rng, |sig| {
                sig.signer
                    .parent()
                    .map(|parent| sig.signer = parent)
                    .is_some()
            })
        },
    },
    Row {
        what: "re-signed with a foreign signer",
        clause: "RFC 4035 §5.3.1 (the signer is the zone that contains the RRset)",
        covered: true,
        mutate: |subject, shape, world, rng| {
            resign(subject, shape, world, rng, |sig| {
                sig.signer = n("other.org");
                true
            })
        },
    },
    Row {
        what: "re-signed with labels + 1",
        clause: "RFC 4035 §5.3.1 (labels is at most the owner's label count)",
        covered: true,
        mutate: |subject, shape, world, rng| {
            resign(subject, shape, world, rng, |sig| {
                sig.labels += 1;
                true
            })
        },
    },
    Row {
        what: "re-signed with labels − 1",
        clause: "RFC 4035 §5.3.1 (a wildcard expansion, which no zone here has)",
        covered: true,
        mutate: |subject, shape, world, rng| {
            resign(subject, shape, world, rng, |sig| {
                sig.labels
                    .checked_sub(1)
                    .map(|labels| sig.labels = labels)
                    .is_some()
            })
        },
    },
];

/// Decoys listed before what the verdict rests on, each with its tag;
/// each must leave the verdict as it was wherever it applies.
const DECOYS: &[Row] = &[
    Row {
        what: "a decoy key with the signer's tag listed first",
        clause: "RFC 4035 §5.3.1, RFC 4034 App. B (a key tag does not identify a key)",
        covered: false,
        mutate: decoy_key,
    },
    Row {
        what: "a decoy RRSIG with the signer's tag (over DNSKEY, the KSK's) listed first",
        clause: "RFC 4035 §5.3.1 (every signature that names a key is tried)",
        covered: false,
        mutate: decoy_sig,
    },
];

/// The order of every RRset's RDATAs and RRSIGs, in an honest reply and
/// in a decoyed one; none may move the verdict.
const PERMUTED: &[Row] = &[
    Row {
        what: "RDATAs and RRSIGs permuted",
        clause: "RFC 2181 §5 (an RRset is a set; RFC 4034 §6.3 orders it only to sign)",
        covered: false,
        mutate: |subject, _, _, rng| {
            permute(subject, rng);
            true
        },
    },
    Row {
        what: "a decoy key, then RDATAs and RRSIGs permuted",
        clause: "RFC 2181 §5, RFC 4035 §5.3.1",
        covered: false,
        mutate: |subject, shape, world, rng| {
            decoy_key(subject, shape, world, rng) && {
                permute(subject, rng);
                true
            }
        },
    },
    Row {
        what: "a decoy RRSIG, then RDATAs and RRSIGs permuted",
        clause: "RFC 2181 §5, RFC 4035 §5.3.1",
        covered: false,
        mutate: |subject, shape, world, rng| {
            decoy_sig(subject, shape, world, rng) && {
                permute(subject, rng);
                true
            }
        },
    },
];

/// The signed world the replies come from: a signed root delegating
/// `secure.` (signed, with DS) and `insecure.` (unsigned).
struct World {
    root: Zone,
    secure: Zone,
    insecure: Zone,
    /// The DS RDATA the root publishes for `secure.`.
    secure_ds: Vec<Rdata>,
    trust_anchor: Rdata,
    /// The keys that signed the root and `secure.`, for re-signing.
    signers: [(Name, ZoneKeys); 2],
}

fn skeleton(apex: &Name, ns_addr: Ipv4Addr) -> Zone {
    let ns = apex.child("ns1").unwrap();
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(
        apex.clone(),
        3600,
        Rdata::Soa(Soa {
            mname: ns.clone(),
            rname: apex.child("hostmaster").unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        }),
    ));
    zone.add(Record::new(apex.clone(), 3600, Rdata::Ns(ns.clone())));
    zone.add_a(ns, ns_addr);
    zone
}

impl World {
    fn build() -> World {
        let (root_name, secure_name, insecure_name) = (Name::root(), n("secure"), n("insecure"));
        let mut secure = skeleton(&secure_name, SECURE);
        secure.add_a(n("www.secure"), Ipv4Addr::new(203, 0, 113, 1));
        secure.add_a(n("www.secure"), Ipv4Addr::new(203, 0, 113, 2));
        // Enough owners that the NSEC3 covering `nope.secure` and the
        // one covering `*.secure` are two records (RFC 5155 §8.4).
        for host in ["api", "cdn", "dev", "ftp", "mail", "shop"] {
            let name = secure_name.child(host).unwrap();
            secure.add_a(name, Ipv4Addr::new(203, 0, 113, 9));
        }
        let secure_keys = ZoneKeys::generate(&secure_name, 8, 2048);
        signer::sign_zone(&mut secure, &secure_keys, &SignerConfig::default());
        let secure_ds = vec![secure_keys.ksk.ds_rdata(&secure_name, DigestAlg::SHA256)];

        let mut insecure = skeleton(&insecure_name, INSECURE);
        insecure.add_a(n("www.insecure"), Ipv4Addr::new(203, 0, 113, 3));

        let mut root = skeleton(&root_name, ROOT);
        for (child, addr) in [(&secure_name, SECURE), (&insecure_name, INSECURE)] {
            let ns = child.child("ns1").unwrap();
            root.add(Record::new(child.clone(), 3600, Rdata::Ns(ns.clone())));
            root.add_a(ns, addr);
        }
        for ds in &secure_ds {
            root.add(Record::new(secure_name.clone(), 3600, ds.clone()));
        }
        let root_keys = ZoneKeys::generate(&root_name, 8, 2048);
        signer::sign_zone(&mut root, &root_keys, &SignerConfig::default());
        World {
            root,
            secure,
            insecure,
            secure_ds,
            trust_anchor: root_keys.ksk.ds_rdata(&root_name, DigestAlg::SHA256),
            signers: [(root_name, root_keys), (secure_name, secure_keys)],
        }
    }

    fn server(zone: &Zone) -> ZoneServer {
        let mut store = ZoneStore::new();
        store.insert(zone.clone());
        ZoneServer::new(store)
    }

    /// The honest reply `zone`'s server gives to `name`/`qtype`.
    fn ask(zone: &Zone, name: Name, qtype: RrType) -> Message {
        let query = Message::iterative_query(1, name, qtype);
        match World::server(zone).handle(&query, IpAddr::V4(ROOT), SIM_NOW) {
            ServerResponse::Reply(reply) => reply,
            ServerResponse::Drop => panic!("the server dropped a query"),
        }
    }

    /// The DNSKEY RRset of `secure.`, from its honest DNSKEY response.
    fn secure_dnskey(&self) -> Rrset {
        let reply = World::ask(&self.secure, n("secure"), RrType::Dnskey);
        owned_set(&reply.answers, RrType::Dnskey).unwrap()
    }

    /// The keys of `secure.`.
    fn secure_keys(&self) -> &ZoneKeys {
        &self.signers[1].1
    }
}

fn caps() -> ValidatorCaps {
    ValidatorCaps::full()
}

/// The RRset of `rtype` in `section` with the signatures over it, as an
/// owned set; `None` when the section holds no record of that type.
fn owned_set(section: &[Record], rtype: RrType) -> Option<Rrset> {
    let first = section.iter().find(|r| r.rtype() == rtype)?;
    let mut set = Rrset::empty(first.name.clone(), rtype, first.ttl);
    set.rdatas = section
        .iter()
        .filter(|r| r.rtype() == rtype && r.name == first.name)
        .map(|r| r.rdata.clone())
        .collect();
    set.sigs = sigs_in(section)
        .filter(|(_, sig)| sig.type_covered == rtype)
        .map(|(_, sig)| sig.clone())
        .collect();
    Some(set)
}

/// The type of the RRset a record belongs to: an RRSIG's, the type it
/// covers.
fn covered(record: &Record) -> RrType {
    match &record.rdata {
        Rdata::Rrsig(sig) => sig.type_covered,
        other => other.rtype(),
    }
}

/// The RRSIG records of a section, with their positions.
fn sigs_in(section: &[Record]) -> impl Iterator<Item = (usize, &Rrsig)> {
    section
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match &r.rdata {
            Rdata::Rrsig(sig) => Some((i, sig)),
            _ => None,
        })
}

/// The section of the reply a shape's target RRsets sit in.
fn section(subject: &mut Subject, shape: Shape) -> &mut Vec<Record> {
    if shape.target().1 {
        &mut subject.reply.answers
    } else {
        &mut subject.reply.authorities
    }
}

/// Positions of the target records of `shape` (not their signatures).
fn targets(section: &[Record], shape: Shape) -> Vec<usize> {
    let rtype = shape.target().0;
    (0..section.len())
        .filter(|&i| section[i].rtype() == rtype)
        .collect()
}

/// Positions of the signatures the verdict rests on: every RRSIG over
/// a target RRset — for a DNSKEY RRset, the one by the DS-matched key,
/// since only that one is checked (RFC 4035 §5.2).
fn target_sigs(section: &[Record], shape: Shape, world: &World) -> Vec<usize> {
    let ksk_tag = match &world.secure_ds[0] {
        Rdata::Ds { key_tag, .. } => *key_tag,
        _ => unreachable!(),
    };
    sigs_in(section)
        .filter(|(_, sig)| sig.type_covered == shape.target().0)
        .filter(|(_, sig)| shape != Shape::Dnskey || sig.key_tag == ksk_tag)
        .map(|(i, _)| i)
        .collect()
}

fn pick(rng: &mut Rng, positions: &[usize]) -> Option<usize> {
    (!positions.is_empty()).then(|| positions[rng.below(positions.len())])
}

/// `rdata` with one bit of its wire form flipped, when the result still
/// parses and differs.
fn flipped(rdata: &Rdata, rng: &mut Rng) -> Option<Rdata> {
    let mut wire = Vec::new();
    rdata.encode(&mut wire, None);
    for _ in 0..64 {
        let mut bytes = wire.clone();
        let bit = rng.below(bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match Rdata::decode(&bytes, &mut 0, bytes.len(), rdata.rtype()) {
            Ok(other) if other != *rdata => return Some(other),
            _ => {}
        }
    }
    None
}

fn flip_rdata_bit(subject: &mut Subject, shape: Shape, _: &World, rng: &mut Rng) -> bool {
    let section = section(subject, shape);
    let Some(i) = pick(rng, &targets(section, shape)) else {
        return false;
    };
    let Some(rdata) = flipped(&section[i].rdata, rng) else {
        return false;
    };
    section[i].rdata = rdata;
    true
}

fn change_rrsig_field(subject: &mut Subject, shape: Shape, world: &World, rng: &mut Rng) -> bool {
    let section = section(subject, shape);
    let Some(i) = pick(rng, &target_sigs(section, shape, world)) else {
        return false;
    };
    let Rdata::Rrsig(sig) = &mut section[i].rdata else {
        unreachable!()
    };
    // A value other than `old`, drawn from the stream.
    let other = |rng: &mut Rng, old: u64, max: u64| loop {
        let v = rng.next() % (max + 1);
        if v != old {
            return v;
        }
    };
    match rng.below(9) {
        0 => {
            let types = [RrType::A, RrType::Txt, RrType::Soa, RrType::Ns, RrType::Mx];
            sig.type_covered = *types.iter().find(|&&t| t != sig.type_covered).unwrap();
        }
        1 => sig.algorithm = other(rng, sig.algorithm.into(), 255) as u8,
        2 => sig.labels = other(rng, sig.labels.into(), 255) as u8,
        3 => sig.original_ttl = other(rng, sig.original_ttl.into(), u32::MAX.into()) as u32,
        4 => sig.expiration = other(rng, sig.expiration.into(), u32::MAX.into()) as u32,
        5 => sig.inception = other(rng, sig.inception.into(), u32::MAX.into()) as u32,
        6 => sig.key_tag = other(rng, sig.key_tag.into(), u16::MAX.into()) as u16,
        7 => sig.signer = sig.signer.child("x").unwrap(),
        _ => {
            let bit = rng.below(sig.signature.len() * 8);
            sig.signature[bit / 8] ^= 1 << (bit % 8);
        }
    }
    true
}

/// A target signature of `shape` with its fields changed by `edit` and
/// signed again, over the same RRset, by the key that made it; false
/// when there is none or `edit` finds nothing to change.
fn resign(
    subject: &mut Subject,
    shape: Shape,
    world: &World,
    rng: &mut Rng,
    edit: impl FnOnce(&mut Rrsig) -> bool,
) -> bool {
    let section = section(subject, shape);
    let Some(i) = pick(rng, &target_sigs(section, shape, world)) else {
        return false;
    };
    let Rdata::Rrsig(sig) = &section[i].rdata else {
        unreachable!()
    };
    let mut sig = sig.clone();
    let key = world
        .signers
        .iter()
        .filter(|(apex, _)| *apex == sig.signer)
        .flat_map(|(_, keys)| [&keys.ksk, &keys.zsk])
        .find(|key| key.key_tag() == sig.key_tag)
        .expect("the world signed every signature");
    let owner = section[i].name.clone();
    let mut set = Rrset::empty(owner.clone(), sig.type_covered, sig.original_ttl);
    set.rdatas = section
        .iter()
        .filter(|r| r.name == owner && r.rtype() == sig.type_covered)
        .map(|r| r.rdata.clone())
        .collect();
    if !edit(&mut sig) {
        return false;
    }
    sig.signature = key.signing().sign(&signing_data(&sig, &set));
    section[i].rdata = Rdata::Rrsig(sig);
    true
}

/// A DNSKEY with `key`'s flags, algorithm and tag but another secret, so
/// it verifies nothing `key` signed: a secret octet lowered by one and a
/// padding octet of the same parity raised by one, which RFC 4034
/// Appendix B's sum of 16-bit words cannot tell apart.
fn same_tag_decoy(key: &ZoneKey) -> Rdata {
    let mut rdata = key.dnskey_rdata();
    let Rdata::Dnskey { public_key, .. } = &mut rdata else {
        unreachable!("a DNSKEY")
    };
    let i = (4..MIN_PUBKEY_LEN).find(|&i| public_key[i] > 0).unwrap();
    public_key[i] -= 1;
    public_key[MIN_PUBKEY_LEN + i % 2] += 1;
    assert_eq!(DnskeyFields::of(&rdata).unwrap().key_tag(), key.key_tag());
    assert_ne!(rdata, key.dnskey_rdata());
    rdata
}

/// The DNSKEY RRset the verdict rests on gains, listed first, a decoy
/// with the tag of the key that signs the target — over a DNSKEY
/// response the KSK, over an answer the ZSK — and the KSK signs the set
/// again. A referral's keys are its resolver's to fetch: no decoy.
fn decoy_key(subject: &mut Subject, shape: Shape, world: &World, _: &mut Rng) -> bool {
    let keys = world.secure_keys();
    let (mut set, signer) = match shape {
        Shape::Dnskey => (owned_set(&subject.reply.answers, RrType::Dnskey), &keys.ksk),
        _ => (subject.dnskey.clone(), &keys.zsk),
    };
    let Some(set) = set.as_mut().filter(|_| !shape.is_referral()) else {
        return false;
    };
    set.rdatas.insert(0, same_tag_decoy(signer));
    let window = SignerConfig::default().window();
    set.sigs = vec![signer::sign_rrset(set, &keys.ksk, &n("secure"), window)];
    if shape == Shape::Dnskey {
        subject.reply.answers = set.records().chain(set.sig_records()).collect();
    } else {
        subject.dnskey = Some(set.clone());
    }
    true
}

/// A copy of a target signature with one signature bit flipped, listed
/// before every RRSIG over its RRset.
fn decoy_sig(subject: &mut Subject, shape: Shape, world: &World, rng: &mut Rng) -> bool {
    let section = section(subject, shape);
    let Some(i) = pick(rng, &target_sigs(section, shape, world)) else {
        return false;
    };
    let mut decoy = section[i].clone();
    let Rdata::Rrsig(sig) = &mut decoy.rdata else {
        unreachable!()
    };
    let bit = rng.below(sig.signature.len() * 8);
    sig.signature[bit / 8] ^= 1 << (bit % 8);
    let first = sigs_in(section)
        .find(|(at, s)| section[*at].name == decoy.name && s.type_covered == sig.type_covered)
        .map_or(i, |(at, _)| at);
    section.insert(first, decoy);
    true
}

/// `items` in an order drawn from `rng` (Fisher–Yates).
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Every RRset of the reply, and the DNSKEY RRset an answer is validated
/// with, with its RDATAs in an order drawn from `rng` and its RRSIGs in
/// another; each keeps its positions in its section.
fn permute(subject: &mut Subject, rng: &mut Rng) {
    let reply = &mut subject.reply;
    for section in [
        &mut reply.answers,
        &mut reply.authorities,
        &mut reply.additionals,
    ] {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..section.len() {
            let same = |j: &usize| {
                let (a, b) = (&section[*j], &section[i]);
                a.name == b.name && covered(a) == covered(b) && a.rtype() == b.rtype()
            };
            match groups.iter_mut().find(|group| same(&group[0])) {
                Some(group) => group.push(i),
                None => groups.push(vec![i]),
            }
        }
        for positions in groups {
            let mut order = positions.clone();
            shuffle(&mut order, rng);
            let records: Vec<Record> = order.iter().map(|&i| section[i].clone()).collect();
            for (at, record) in positions.into_iter().zip(records) {
                section[at] = record;
            }
        }
    }
    if let Some(set) = &mut subject.dnskey {
        shuffle(&mut set.rdatas, rng);
        shuffle(&mut set.sigs, rng);
    }
}

fn add_record(subject: &mut Subject, shape: Shape, _: &World, rng: &mut Rng) -> bool {
    let section = section(subject, shape);
    let Some(i) = pick(rng, &targets(section, shape)) else {
        return false;
    };
    let Some(rdata) = flipped(&section[i].rdata, rng) else {
        return false;
    };
    let added = Record::new(section[i].name.clone(), section[i].ttl, rdata);
    section.insert(i + 1, added);
    true
}

fn remove_record(subject: &mut Subject, shape: Shape, _: &World, rng: &mut Rng) -> bool {
    let section = section(subject, shape);
    let Some(i) = pick(rng, &targets(section, shape)) else {
        return false;
    };
    section.remove(i);
    true
}

fn remove_rrsig(subject: &mut Subject, shape: Shape, world: &World, rng: &mut Rng) -> bool {
    let section = section(subject, shape);
    let Some(i) = pick(rng, &target_sigs(section, shape, world)) else {
        return false;
    };
    section.remove(i);
    true
}

/// A whole RRset of the proof goes, records and signatures: one NSEC3
/// RRset of a denial or an insecure referral, a signed referral's DS.
fn remove_proof_rrset(subject: &mut Subject, shape: Shape, _: &World, rng: &mut Rng) -> bool {
    if matches!(shape, Shape::Positive | Shape::Dnskey) {
        return false;
    }
    let rtype = shape.target().0;
    let section = section(subject, shape);
    let Some(i) = pick(rng, &targets(section, shape)) else {
        return false;
    };
    let owner = section[i].name.clone();
    section.retain(|r| r.name != owner || covered(r) != rtype);
    true
}

/// The DS digest: of the DS the DNSKEY response is checked against, or
/// of the signed referral's DS record.
fn change_ds_digest(subject: &mut Subject, shape: Shape, _: &World, rng: &mut Rng) -> bool {
    let ds = match shape {
        Shape::Dnskey => subject.ds.first_mut(),
        Shape::SecureReferral => subject
            .reply
            .authorities
            .iter_mut()
            .map(|r| &mut r.rdata)
            .find(|rdata| rdata.rtype() == RrType::Ds),
        _ => None,
    };
    let Some(Rdata::Ds { digest, .. }) = ds else {
        return false;
    };
    let bit = rng.below(digest.len() * 8);
    digest[bit / 8] ^= 1 << (bit % 8);
    true
}

fn lower_ttl(subject: &mut Subject, shape: Shape, _: &World, rng: &mut Rng) -> bool {
    let ttl = 1 + rng.below(299) as u32;
    for rec in section(subject, shape).iter_mut() {
        rec.ttl = rec.ttl.min(ttl);
    }
    true
}

/// The owner's first label upper-cased where the wire first spells it;
/// every other mention of the owner points at those octets.
fn owner_case(subject: &mut Subject, shape: Shape, _: &World, rng: &mut Rng) -> bool {
    let section = section(subject, shape);
    let Some(i) = pick(rng, &targets(section, shape)) else {
        return false;
    };
    let owner = section[i].name.clone();
    let label = owner.first_label().expect("not the root");
    let mut spelled = vec![label.len() as u8];
    spelled.extend_from_slice(label);
    let mut wire = subject.reply.encode().unwrap();
    let Some(at) = wire.windows(spelled.len()).position(|w| w == spelled) else {
        return false;
    };
    wire[at + 1..at + spelled.len()].make_ascii_uppercase();
    if wire[at + 1..at + spelled.len()] == *label {
        return false;
    }
    subject.reply = Message::decode(&wire).unwrap();
    true
}

/// The glue points at the child's server's other address.
fn other_glue(subject: &mut Subject, shape: Shape, _: &World, _: &mut Rng) -> bool {
    let alt = match shape {
        Shape::SecureReferral => SECURE_ALT,
        Shape::InsecureReferral => INSECURE_ALT,
        _ => return false,
    };
    let mut changed = false;
    for rec in &mut subject.reply.additionals {
        if let Rdata::A(addr) = &mut rec.rdata {
            *addr = alt;
            changed = true;
        }
    }
    changed
}

/// One more NS host at the delegation, without glue.
fn extra_ns(subject: &mut Subject, shape: Shape, _: &World, _: &mut Rng) -> bool {
    let authorities = &mut subject.reply.authorities;
    let ns = authorities.iter().find(|r| r.rtype() == RrType::Ns);
    let Some(ns) = ns.filter(|_| shape.is_referral()) else {
        return false;
    };
    let host = ns.name.child("ns2").unwrap();
    let extra = Record::new(ns.name.clone(), ns.ttl, Rdata::Ns(host));
    authorities.insert(0, extra);
    true
}

/// The verdict on an answer or DNSKEY reply of `shape`, validated as
/// the resolver validates one from `secure.`: the DNSKEY RRset against
/// the parent's DS, then an answer's RRsets or, with none, its denial
/// against the keys the DNSKEY RRset holds.
fn validate(subject: &Subject, shape: Shape) -> ValidationState {
    let (apex, reply) = (n("secure"), &subject.reply);
    let mut diag = Diagnosis::new();
    let dnskey = match &subject.dnskey {
        Some(set) => set.clone(),
        None => match owned_set(&reply.answers, RrType::Dnskey) {
            Some(set) => set,
            None => return ValidationState::Bogus,
        },
    };
    let keys = validate_dnskey(&apex, &subject.ds, &dnskey, &caps(), SIM_NOW, &mut diag);
    if shape == Shape::Dnskey {
        return diag.validation;
    }
    let Some(trusted) = keys.trusted else {
        return diag.validation;
    };
    let caps = caps();
    let (qname, qtype) = shape.question();
    let answer_types: Vec<RrType> = sets_in(&reply.answers).map(|s| s.rtype()).collect();
    if answer_types.is_empty() {
        let kind = if reply.rcode == Rcode::NxDomain {
            NegativeKind::Nxdomain
        } else {
            NegativeKind::Nodata
        };
        let authority = &reply.authorities;
        check_negative(
            authority, &qname, qtype, kind, &apex, &trusted, &caps, SIM_NOW, &mut diag,
        );
    }
    for rtype in answer_types {
        let set = owned_set(&reply.answers, rtype).unwrap();
        check_rrset(&set, &trusted, &caps, SIM_NOW, SigTarget::Answer, &mut diag);
    }
    diag.validation
}

/// A root server that hands out its referrals mutated by `row`, from
/// the same draw each time.
struct MutatingRoot {
    inner: ZoneServer,
    world: Arc<World>,
    shape: Shape,
    row: &'static Row,
    seed: u64,
    mutated: AtomicBool,
}

impl Server for MutatingRoot {
    fn handle(&self, query: &Message, src: IpAddr, now: u32) -> ServerResponse {
        let reply = match self.inner.handle(query, src, now) {
            ServerResponse::Reply(reply) => reply,
            drop => return drop,
        };
        let is_referral = reply.answers.is_empty()
            && reply
                .authorities
                .iter()
                .any(|r| r.rtype() == RrType::Ns && !r.name.is_root());
        let mut subject = Subject {
            reply,
            ds: Vec::new(),
            dnskey: None,
        };
        if is_referral
            && (self.row.mutate)(&mut subject, self.shape, &self.world, &mut Rng(self.seed))
        {
            self.mutated.store(true, Ordering::Relaxed);
        }
        ServerResponse::Reply(subject.reply)
    }
}

/// The verdict of a resolution of `shape`'s question through a root
/// whose referrals `row` mutates, and whether it did mutate one.
fn resolve(
    world: &Arc<World>,
    shape: Shape,
    row: &'static Row,
    seed: u64,
) -> (ValidationState, bool) {
    let mut net = NetworkBuilder::new();
    let root = Arc::new(MutatingRoot {
        inner: World::server(&world.root),
        world: Arc::clone(world),
        shape,
        row,
        seed,
        mutated: AtomicBool::new(false),
    });
    net.register(IpAddr::V4(ROOT), Arc::clone(&root) as Arc<dyn Server>);
    let children = [
        (&world.secure, [SECURE, SECURE_ALT]),
        (&world.insecure, [INSECURE, INSECURE_ALT]),
    ];
    for (zone, addrs) in children {
        let server = Arc::new(World::server(zone));
        for addr in addrs {
            net.register(IpAddr::V4(addr), Arc::clone(&server) as Arc<dyn Server>);
        }
    }
    let config = ResolverConfig::with_roots(
        vec![RootHint {
            name: n("ns1"),
            addr: IpAddr::V4(ROOT),
        }],
        vec![world.trust_anchor.clone()],
    );
    let resolver = Resolver::new(
        Arc::new(net.build(SimClock::new())),
        VendorProfile::new(Vendor::Cloudflare),
        config,
    );
    let (qname, qtype) = shape.question();
    let verdict = resolver.resolve(&qname, qtype).validation;
    (verdict, root.mutated.load(Ordering::Relaxed))
}

/// The row an honest resolution runs with: it changes nothing.
const NO_ROW: Row = Row {
    what: "nothing",
    clause: "",
    covered: false,
    mutate: |_, _, _, _| false,
};

/// Every row of `rows` on every shape it applies to, `DRAWS` draws each
/// from one seeded stream; a draw holds when `held(row, verdict,
/// honest)`. Returns the draws that did not hold, and fails unless each
/// row applied at least `DRAWS` times.
fn run_oracle(
    rows: &'static [Row],
    held: fn(&Row, ValidationState, ValidationState) -> bool,
) -> Vec<String> {
    let world = Arc::new(World::build());
    let mut rng = Rng(SEED);
    let mut failures = Vec::new();
    let mut applied = vec![0; rows.len()];
    for shape in Shape::ALL {
        let honest_subject = (!shape.is_referral()).then(|| {
            let (qname, qtype) = shape.question();
            Subject {
                reply: World::ask(&world.secure, qname, qtype),
                ds: world.secure_ds.clone(),
                dnskey: (shape != Shape::Dnskey).then(|| world.secure_dnskey()),
            }
        });
        if shape == Shape::Nxdomain {
            let reply = &honest_subject.as_ref().unwrap().reply;
            let proof = reply
                .authorities
                .iter()
                .filter(|r| r.rtype() == RrType::Nsec3);
            assert_eq!(proof.count(), 3, "encloser, next closer and wildcard");
        }
        let honest = match &honest_subject {
            Some(subject) => validate(subject, shape),
            None => resolve(&world, shape, &NO_ROW, 0).0,
        };
        let expected = if shape == Shape::InsecureReferral {
            ValidationState::Insecure
        } else {
            ValidationState::Secure
        };
        assert_eq!(honest, expected, "{shape:?}: the honest reply");

        for (row, applied) in rows.iter().zip(&mut applied) {
            for draw in 0..DRAWS {
                let seed = rng.next();
                let (verdict, mutated) = match &honest_subject {
                    Some(subject) => {
                        let mut subject = subject.clone();
                        let mutated = (row.mutate)(&mut subject, shape, &world, &mut Rng(seed));
                        (validate(&subject, shape), mutated)
                    }
                    None => resolve(&world, shape, row, seed),
                };
                if !mutated {
                    continue;
                }
                *applied += 1;
                if !held(row, verdict, honest) {
                    failures.push(format!(
                        "{shape:?}, {} ({}), draw {draw}: {verdict:?}",
                        row.what, row.clause
                    ));
                }
            }
        }
    }
    for (row, applied) in rows.iter().zip(applied) {
        assert!(applied >= DRAWS, "{} applied {applied} times", row.what);
    }
    failures
}

#[test]
fn covered_mutations_never_validate_and_uncovered_ones_change_nothing() {
    let failures = run_oracle(ROWS, |row, verdict, honest| {
        if row.covered {
            !matches!(verdict, ValidationState::Secure | ValidationState::Insecure)
        } else {
            verdict == honest
        }
    });
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn a_re_signed_rrsig_with_a_wrong_signer_or_labels_field_is_bogus() {
    let failures = run_oracle(RESIGNED, |_, verdict, _| verdict == ValidationState::Bogus);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// RFC 4035 §5.3.1: a decoy key or RRSIG with the tag of the one the
/// verdict rests on, listed before it, leaves the verdict as it was —
/// Secure, or Insecure for an insecure referral's proof.
#[test]
fn a_decoy_key_or_rrsig_with_the_signers_tag_changes_nothing() {
    let failures = run_oracle(DECOYS, |_, verdict, honest| verdict == honest);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The verdict is a function of the RRsets and the keys, not of the
/// order of their RDATAs or RRSIGs, decoys included.
#[test]
fn permuting_the_rdatas_and_rrsigs_of_an_rrset_never_changes_the_verdict() {
    let failures = run_oracle(PERMUTED, |_, verdict, honest| verdict == honest);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
