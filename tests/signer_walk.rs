//! The signer's one ordered walk against the search-based selection it
//! replaced: `sign_zone` and `resign_all` must leave every RRset and
//! every RRSIG byte-identical to what asking the zone per RRset and per
//! name (`is_delegation`, `is_glue`, `get`, `types_at`) produced. The
//! reference below is that selection, kept as it was; the zones are the
//! testbed's 63 children before and after their misconfiguration, the
//! scan world's root zones at the tiny scale and at 1:20000, the shapes
//! of a TLD's per-query micro-zone, and a zone of odd corners (nested
//! cuts, empty non-terminals, glue holding an empty non-terminal's name,
//! records outside the apex, a type-0 RRset).

use extended_dns_errors::crypto::nsec3hash;
use extended_dns_errors::scan::world::unsigned_root_zone;
use extended_dns_errors::scan::{Population, PopulationConfig};
use extended_dns_errors::testbed::all_specs;
use extended_dns_errors::testbed::build::unsigned_child_zone;
use extended_dns_errors::wire::rdata::{Soa, TypeBitmap};
use extended_dns_errors::wire::{Name, Rdata, Record, RrType};
use extended_dns_errors::zone::signer::{self, resign_all, sign_zone};
use extended_dns_errors::zone::{Denial, Nsec3Config, Rrset, SignerConfig, Zone, ZoneKeys};
use std::collections::BTreeSet;

/// The selection the walk replaced, as it was.
mod reference {
    use super::*;

    pub fn sign_zone(zone: &mut Zone, keys: &ZoneKeys, config: &SignerConfig) {
        let apex = zone.apex().clone();
        zone.add_rrset(keys.dnskey_rrset(&apex));
        match &config.denial {
            Denial::Nsec3(nsec3_cfg) => build_chain(zone, nsec3_cfg),
            Denial::None => {}
        }
        resign_all(zone, keys, config.window());
    }

    pub fn resign_all(zone: &mut Zone, keys: &ZoneKeys, window: (u32, u32)) {
        let targets: Vec<(Name, RrType)> = zone
            .iter()
            .filter(|set| {
                if set.rtype == RrType::Rrsig {
                    return false;
                }
                if zone.is_delegation(&set.name) {
                    return set.rtype == RrType::Ds;
                }
                !zone.is_glue(&set.name)
            })
            .map(|set| (set.name.clone(), set.rtype))
            .collect();
        for (name, rtype) in targets {
            signer::resign_rrset(zone, &name, rtype, keys, window);
        }
    }

    fn chain_names(zone: &Zone) -> BTreeSet<Name> {
        let mut names: BTreeSet<Name> = BTreeSet::new();
        for name in zone.names() {
            if zone.is_glue(name) && !zone.is_delegation(name) {
                continue;
            }
            names.insert(name.clone());
            let mut current = name.parent();
            while let Some(n) = current {
                if !n.is_subdomain_of(zone.apex()) || n == *zone.apex() {
                    break;
                }
                names.insert(n.clone());
                current = n.parent();
            }
        }
        names.insert(zone.apex().clone());
        names
    }

    fn bitmap_for(zone: &Zone, name: &Name) -> TypeBitmap {
        let mut bm = TypeBitmap::new();
        if zone.is_delegation(name) {
            bm.insert(RrType::Ns);
            if zone.get(name, RrType::Ds).is_some() {
                bm.insert(RrType::Ds);
                bm.insert(RrType::Rrsig);
            }
            return bm;
        }
        for t in zone.types_at(name) {
            if t != RrType::Nsec3 {
                bm.insert(t);
            }
        }
        if !bm.is_empty() {
            bm.insert(RrType::Rrsig);
        }
        bm
    }

    fn build_chain(zone: &mut Zone, config: &Nsec3Config) {
        let apex = zone.apex().clone();
        let soa_minimum = match zone.soa().and_then(|s| s.rdatas.first()) {
            Some(Rdata::Soa(soa)) => soa.minimum,
            _ => 300,
        };
        zone.add_rrset(Rrset::new(
            apex.clone(),
            0,
            Rdata::Nsec3param {
                hash_alg: nsec3hash::NSEC3_HASH_ALG_SHA1,
                flags: 0,
                iterations: config.iterations,
                salt: config.salt.clone(),
            },
        ));
        let mut hashed: Vec<([u8; nsec3hash::NSEC3_HASH_LEN], Name)> = chain_names(zone)
            .into_iter()
            .map(|n| (config.hash_raw(&n), n))
            .collect();
        hashed.sort();
        let count = hashed.len();
        for i in 0..count {
            let (hash, name) = &hashed[i];
            let (next_hash, _) = &hashed[(i + 1) % count];
            let owner = apex
                .child_bytes(&nsec3hash::nsec3_label(hash))
                .expect("hash label fits");
            let rdata = Rdata::Nsec3 {
                hash_alg: nsec3hash::NSEC3_HASH_ALG_SHA1,
                flags: 0,
                iterations: config.iterations,
                salt: config.salt.clone(),
                next_hashed: next_hash.into(),
                types: bitmap_for(zone, name),
            };
            zone.add_rrset(Rrset::new(owner, soa_minimum, rdata));
        }
    }
}

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// `walked` and `searched` hold the same RRsets with the same RRSIGs.
fn assert_same(walked: &Zone, searched: &Zone, what: &str) {
    assert_eq!(
        walked.rrset_count(),
        searched.rrset_count(),
        "{what}: RRset count"
    );
    for (a, b) in walked.iter().zip(searched.iter()) {
        assert_eq!(a, b, "{what}: {} {}", a.name, a.rtype);
    }
    assert!(walked == searched, "{what}");
}

/// Sign `zone` both ways under `config` and compare; the walked result.
fn sign_both(zone: &Zone, keys: &ZoneKeys, config: &SignerConfig, what: &str) -> Zone {
    let (mut walked, mut searched) = (zone.clone(), zone.clone());
    sign_zone(&mut walked, keys, config);
    reference::sign_zone(&mut searched, keys, config);
    assert_same(&walked, &searched, what);
    walked
}

/// Re-sign every RRset of `zone` both ways and compare.
fn resign_both(zone: &Zone, keys: &ZoneKeys, what: &str) {
    let window = SignerConfig::default().window();
    let (mut walked, mut searched) = (zone.clone(), zone.clone());
    resign_all(&mut walked, keys, window);
    reference::resign_all(&mut searched, keys, window);
    assert_same(&walked, &searched, what);
}

#[test]
fn testbed_zones_sign_as_the_search_signed_them() {
    let base = n("extended-dns-errors.com");
    for (idx, spec) in all_specs().iter().enumerate() {
        let zone = unsigned_child_zone(spec, &base, idx);
        let keys = ZoneKeys::generate(zone.apex(), spec.algorithm.0, 2048);
        let config = SignerConfig {
            denial: Denial::Nsec3(Nsec3Config {
                iterations: spec.nsec3_iterations,
                salt: [0xab, 0xcd].into(),
            }),
            ..Default::default()
        };
        let mut signed = sign_both(&zone, &keys, &config, spec.label);
        if let Some(misconfig) = &spec.misconfig {
            misconfig.apply(&mut signed, &keys);
        }
        let after = format!("{} after its misconfiguration", spec.label);
        resign_both(&signed, &keys, &after);
        sign_both(&signed, &keys, &config, &after);
    }
}

#[test]
fn scan_root_zones_sign_as_the_search_signed_them() {
    let twenty_thousandth = PopulationConfig {
        scale: 20_000,
        ..Default::default()
    };
    let root_keys = ZoneKeys::generate(&Name::root(), 8, 2048);
    for config in [PopulationConfig::tiny(), twenty_thousandth] {
        let pop = Population::generate(config);
        let zone = unsigned_root_zone(&pop.tlds);
        assert!(zone.rrset_count() > 3 * pop.tlds.len());
        let what = format!("root zone at 1:{}", pop.config.scale);
        sign_both(&zone, &root_keys, &SignerConfig::default(), &what);
    }
}

fn soa(apex: &Name) -> Rdata {
    Rdata::Soa(Soa {
        mname: apex.child("ns1").unwrap(),
        rname: apex.child("hostmaster").unwrap(),
        serial: 20230515,
        refresh: 7200,
        retry: 3600,
        expire: 1209600,
        minimum: 60,
    })
}

/// A TLD's apex (SOA, NS) and, when `child` is given, its delegation:
/// one NS and glue address per server, and a DS when it is signed.
fn micro_zone(tld: &Name, child: Option<(&str, usize, bool)>) -> Zone {
    let mut zone = Zone::new(tld.clone());
    zone.add(Record::new(tld.clone(), 3600, soa(tld)));
    zone.add(Record::new(
        tld.clone(),
        3600,
        Rdata::Ns(tld.child("ns1").unwrap()),
    ));
    if let Some((label, servers, signed)) = child {
        let apex = tld.child(label).unwrap();
        for i in 0..servers {
            let host = apex.child(&format!("ns{}", i + 1)).unwrap();
            zone.add(Record::new(apex.clone(), 3600, Rdata::Ns(host.clone())));
            zone.add_a(host, [13, 0, 0, i as u8 + 1].into());
        }
        if signed {
            let keys = ZoneKeys::generate(&apex, 8, 2048);
            let ds = keys
                .ksk
                .ds_rdata(&apex, extended_dns_errors::wire::DigestAlg::SHA256);
            zone.add(Record::new(apex, 3600, ds));
        }
    }
    zone
}

#[test]
fn tld_micro_zone_shapes_sign_as_the_search_signed_them() {
    let tld = n("gtld0007");
    let keys = ZoneKeys::generate(&tld, 8, 2048);
    let unchained = SignerConfig {
        denial: Denial::None,
        ..SignerConfig::default()
    };
    let shapes = [
        None,
        Some(("d0000042", 1, false)),
        Some(("d0000042", 2, false)),
        Some(("d0000042", 1, true)),
        Some(("d0000042", 2, true)),
    ];
    for shape in shapes {
        let zone = micro_zone(&tld, shape);
        for config in [&unchained, &SignerConfig::default()] {
            let what = format!("{shape:?} {:?}", config.denial);
            sign_both(&zone, &keys, config, &what);
        }
    }
}

/// Every corner the roles have: a cut below a cut, glue below a cut
/// holding the name of an empty non-terminal above a deeper cut, empty
/// non-terminals between the apex and an owner, an A RRset and a type-0
/// RRset at a cut (held back until its NS settles the role), records
/// at, above and beside the apex but outside it — among them a cut
/// above the apex, which `is_glue` holds the apex itself below.
#[test]
fn odd_corners_sign_as_the_search_signed_them() {
    let apex = n("example.com");
    let keys = ZoneKeys::generate(&apex, 8, 2048);
    let a = |zone: &mut Zone, name: &str| zone.add_a(n(name), [192, 0, 2, 1].into());
    let ns = |zone: &mut Zone, name: &str| {
        zone.add(Record::new(n(name), 3600, Rdata::Ns(n("ns.elsewhere.net"))))
    };
    let ds = |zone: &mut Zone, name: &str| {
        let rdata = Rdata::Ds {
            key_tag: 1,
            algorithm: 8,
            digest_type: 2,
            digest: vec![0; 32],
        };
        zone.add(Record::new(n(name), 3600, rdata))
    };
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(apex.clone(), 3600, soa(&apex)));
    ns(&mut zone, "example.com");
    a(&mut zone, "example.com");
    a(&mut zone, "www.deep.ent.example.com");
    ns(&mut zone, "cut.example.com");
    ds(&mut zone, "cut.example.com");
    a(&mut zone, "cut.example.com");
    zone.add(Record::new(
        n("cut.example.com"),
        3600,
        Rdata::Unknown {
            rtype: 0,
            data: vec![1, 2, 3],
        },
    ));
    a(&mut zone, "ns.cut.example.com");
    a(&mut zone, "x.cut.example.com");
    ns(&mut zone, "inner.x.cut.example.com");
    ds(&mut zone, "inner.x.cut.example.com");
    a(&mut zone, "glue.inner.x.cut.example.com");
    ns(&mut zone, "nested.y.cut.example.com");
    a(&mut zone, "after.example.com");
    ns(&mut zone, "plain.example.com");
    for config in [
        SignerConfig::default(),
        SignerConfig {
            denial: Denial::None,
            ..SignerConfig::default()
        },
    ] {
        sign_both(&zone, &keys, &config, "in-zone corners");
    }

    let mut outside = zone.clone();
    a(&mut outside, "beside.com");
    ns(&mut outside, "beside.com");
    a(&mut outside, "under.beside.com");
    a(&mut outside, "zzz.org");
    sign_both(
        &outside,
        &keys,
        &SignerConfig::default(),
        "records beside the apex",
    );

    let mut above = zone.clone();
    ns(&mut above, "com");
    a(&mut above, "other.com");
    sign_both(
        &above,
        &keys,
        &SignerConfig::default(),
        "a cut above the apex",
    );
    resign_both(&above, &keys, "a cut above the apex");
}
