//! `Resolver::resolve_once` end to end: a mini internet with a signed
//! root and child, resolved through twin resolvers.

use ede_authority::{ZoneServer, ZoneStore};
use ede_netsim::{NetworkBuilder, SimClock};
use ede_resolver::config::RootHint;
use ede_resolver::{Resolver, ResolverConfig, Vendor, VendorProfile};
use ede_wire::rdata::Soa;
use ede_wire::{DigestAlg, Name, Rdata, Record, RrType};
use ede_zone::signer::{sign_zone, SignerConfig};
use ede_zone::{Zone, ZoneKeys};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

const ROOT_ADDR: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const CHILD_ADDR: Ipv4Addr = Ipv4Addr::new(185, 199, 120, 1);

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

fn soa_for(apex: &Name) -> Rdata {
    Rdata::Soa(Soa {
        mname: apex.child("ns1").unwrap(),
        rname: apex.child("hostmaster").unwrap(),
        serial: 1,
        refresh: 7200,
        retry: 3600,
        expire: 1209600,
        minimum: 300,
    })
}

/// Build a world where both the root and `nsec.test` are signed with
/// the default signer (NSEC3); returns a resolver over it.
fn build(vendor: Vendor) -> Resolver {
    let clock = SimClock::new();
    let mut net = NetworkBuilder::new();

    let child_apex = n("nsec.test");
    let mut child = Zone::new(child_apex.clone());
    child.add(Record::new(child_apex.clone(), 3600, soa_for(&child_apex)));
    child.add(Record::new(
        child_apex.clone(),
        3600,
        Rdata::Ns(n("ns1.nsec.test")),
    ));
    child.add_a(n("ns1.nsec.test"), CHILD_ADDR);
    child.add_a(child_apex.clone(), "203.0.113.5".parse().unwrap());
    child.add_a(n("www.nsec.test"), "203.0.113.6".parse().unwrap());
    let child_keys = ZoneKeys::generate(&child_apex, 8, 2048);
    sign_zone(&mut child, &child_keys, &SignerConfig::default());

    let root = Name::root();
    let mut root_zone = Zone::new(root.clone());
    root_zone.add(Record::new(root.clone(), 3600, soa_for(&root)));
    root_zone.add(Record::new(root.clone(), 3600, Rdata::Ns(n("ns1"))));
    root_zone.add_a(n("ns1"), ROOT_ADDR);
    root_zone.add(Record::new(n("test"), 3600, Rdata::Ns(n("ns1.nsec.test"))));
    // In-bailiwick-ish glue directly in the root for simplicity: the
    // delegation for `test` points straight at the child's server.
    root_zone.add(Record::new(
        child_apex.clone(),
        3600,
        Rdata::Ns(n("ns1.nsec.test")),
    ));
    root_zone.add_a(n("ns1.nsec.test"), CHILD_ADDR);
    root_zone.add(Record::new(
        child_apex.clone(),
        3600,
        child_keys.ksk.ds_rdata(&child_apex, DigestAlg::SHA256),
    ));
    // Remove the extra `test` NS so there is a single clean cut.
    root_zone.remove(&n("test"), RrType::Ns);
    let root_keys = ZoneKeys::generate(&root, 8, 2048);
    sign_zone(&mut root_zone, &root_keys, &SignerConfig::default());
    let anchor = root_keys.ksk.ds_rdata(&root, DigestAlg::SHA256);

    let mut root_store = ZoneStore::new();
    root_store.insert(root_zone);
    net.register(IpAddr::V4(ROOT_ADDR), Arc::new(ZoneServer::new(root_store)));
    let mut child_store = ZoneStore::new();
    child_store.insert(child);
    net.register(
        IpAddr::V4(CHILD_ADDR),
        Arc::new(ZoneServer::new(child_store)),
    );

    let config = ResolverConfig::with_roots(
        vec![RootHint {
            name: n("ns1"),
            addr: IpAddr::V4(ROOT_ADDR),
        }],
        vec![anchor],
    );
    Resolver::new(
        Arc::new(net.build(clock)),
        VendorProfile::new(vendor),
        config,
    )
}

/// `resolve_once` is `resolve` without the store: on twin
/// resolvers it returns the same resolution and leaves the answer cache
/// untouched, and a name stored earlier is still served from the cache.
#[test]
fn resolve_once_answers_alike_and_stores_nothing() {
    let run = |resolver: &Resolver, qname: &Name, once: bool| {
        if once {
            resolver.resolve_once(qname, RrType::A)
        } else {
            resolver.resolve(qname, RrType::A)
        }
    };
    let storing = build(Vendor::Cloudflare);
    let passing = build(Vendor::Cloudflare);
    for name in ["www.nsec.test", "missing.nsec.test"] {
        let qname = n(name);
        let stored = run(&storing, &qname, false);
        let puts = passing.cache_stats().puts;
        assert_eq!(run(&passing, &qname, true), stored, "{name}");
        assert_eq!(passing.cache_stats().puts, puts, "{name}");
    }
    assert_eq!(storing.cache_stats().puts, 2);
    assert_eq!(passing.cache_stats().occupancy, 0);

    // The probe stays: once stored, the name is a hit for either call.
    let qname = n("www.nsec.test");
    let stored = run(&passing, &qname, false);
    let before = passing.cache_stats();
    assert_eq!(run(&passing, &qname, true), stored);
    let after = passing.cache_stats();
    assert_eq!((after.hits, after.puts), (before.hits + 1, before.puts));
}
