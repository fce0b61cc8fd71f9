//! A referral without glue is a lame delegation: the walk follows only
//! the addresses a referral carries, and never looks a nameserver name
//! up on its own.

use ede_authority::{ZoneServer, ZoneStore};
use ede_netsim::{NetworkBuilder, SimClock};
use ede_resolver::config::RootHint;
use ede_resolver::{Finding, Resolver, ResolverConfig, Vendor, VendorProfile};
use ede_wire::rdata::Soa;
use ede_wire::{Name, Rcode, Rdata, Record, RrType};
use ede_zone::Zone;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

const ROOT_ADDR: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// An unsigned root that delegates `glueless.test` to `ns1.elsewhere.net`,
/// a name it holds no address for, so its referral carries no glue.
fn build() -> Resolver {
    let root = Name::root();
    let mut zone = Zone::new(root.clone());
    zone.add(Record::new(
        root.clone(),
        3600,
        Rdata::Soa(Soa {
            mname: n("ns1"),
            rname: n("hostmaster"),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        }),
    ));
    zone.add(Record::new(root.clone(), 3600, Rdata::Ns(n("ns1"))));
    zone.add_a(n("ns1"), ROOT_ADDR);
    zone.add(Record::new(
        n("glueless.test"),
        3600,
        Rdata::Ns(n("ns1.elsewhere.net")),
    ));
    let mut store = ZoneStore::new();
    store.insert(zone);

    let mut net = NetworkBuilder::new();
    net.register(IpAddr::V4(ROOT_ADDR), Arc::new(ZoneServer::new(store)));
    let config = ResolverConfig::with_roots(
        vec![RootHint {
            name: n("ns1"),
            addr: IpAddr::V4(ROOT_ADDR),
        }],
        Vec::new(),
    );
    Resolver::new(
        Arc::new(net.build(SimClock::new())),
        VendorProfile::new(Vendor::Cloudflare),
        config,
    )
}

/// The glueless referral ends the walk: SERVFAIL with every server
/// failed, after the root's one exchange, and no query for the
/// nameserver name's address.
#[test]
fn a_referral_without_glue_is_lame() {
    let resolver = build();
    let net = resolver.network();
    net.start_capture();

    let res = resolver.resolve(&n("www.glueless.test"), RrType::A);

    assert_eq!(res.rcode, Rcode::ServFail);
    assert!(res.answers.is_empty());
    assert!(res
        .diagnosis
        .findings
        .iter()
        .any(|f| matches!(f, Finding::AllServersFailed { .. })));
    assert_eq!(net.stats().snapshot_full().queries, 1);
    let asked: Vec<String> = net.take_capture().into_iter().map(|q| q.qname).collect();
    assert_eq!(asked.len(), 1, "{asked:?}");
    assert!(!asked[0].contains("elsewhere"), "{asked:?}");
}
