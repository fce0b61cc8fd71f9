//! The two bounds on the work a walk of referrals does, whatever the
//! servers it meets send: at most four addresses of a zone's server set
//! are asked, and at most 24 referrals are followed in one resolution.
//! No scan world or testbed reaches either; these worlds do, each an
//! unsigned root and servers of the test's own.

use ede_authority::{ZoneServer, ZoneStore};
use ede_netsim::{NetworkBuilder, Server, ServerResponse, SimClock};
use ede_resolver::config::RootHint;
use ede_resolver::{
    Finding, NsFailure, Resolver, ResolverConfig, ValidationState, Vendor, VendorProfile,
};
use ede_wire::rdata::Soa;
use ede_wire::{Message, Name, Rcode, Rdata, Record, RrType};
use ede_zone::Zone;
use std::collections::BTreeSet;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

const ROOT_ADDR: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// A zone with its SOA and the one NS `ns1.<apex>`.
fn zone_at(apex: &Name) -> Zone {
    let mut zone = Zone::new(apex.clone());
    let soa = Soa {
        mname: apex.child("ns1").unwrap(),
        rname: apex.child("hostmaster").unwrap(),
        serial: 1,
        refresh: 7200,
        retry: 3600,
        expire: 1209600,
        minimum: 300,
    };
    zone.add(Record::new(apex.clone(), 3600, Rdata::Soa(soa)));
    zone.add(Record::new(
        apex.clone(),
        3600,
        Rdata::Ns(apex.child("ns1").unwrap()),
    ));
    zone
}

/// Delegate `child` from `zone` to the hosts `ns1.<child>`, … with the
/// glue `addrs`, one address each.
fn delegate(zone: &mut Zone, child: &Name, addrs: &[Ipv4Addr]) {
    for (i, addr) in addrs.iter().enumerate() {
        let host = child.child(&format!("ns{}", i + 1)).unwrap();
        zone.add(Record::new(child.clone(), 3600, Rdata::Ns(host.clone())));
        zone.add_a(host, *addr);
    }
}

fn serve(zone: Zone) -> Arc<ZoneServer> {
    let mut store = ZoneStore::new();
    store.insert(zone);
    Arc::new(ZoneServer::new(store))
}

/// A resolver over `net`, whose root is the server at [`ROOT_ADDR`].
fn resolver(net: NetworkBuilder) -> Resolver {
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

/// A server that never answers.
struct Silent;

impl Server for Silent {
    fn handle(&self, _query: &Message, _src: IpAddr, _now: u32) -> ServerResponse {
        ServerResponse::Drop
    }
}

/// A referral whose glue names six silent addresses: four of them are
/// asked, once each, each times out, and the walk ends there, SERVFAIL
/// with every server failed.
#[test]
fn a_server_set_is_cut_at_four_addresses() {
    let silent: Vec<Ipv4Addr> = (1..=6).map(|i| Ipv4Addr::new(45, 0, 1, i)).collect();
    let mut root = zone_at(&Name::root());
    root.add_a(n("ns1"), ROOT_ADDR);
    delegate(&mut root, &n("silent.test"), &silent);
    let mut net = NetworkBuilder::new();
    net.register(IpAddr::V4(ROOT_ADDR), serve(root));
    for addr in &silent {
        net.register(IpAddr::V4(*addr), Arc::new(Silent));
    }
    let resolver = resolver(net);
    let net = resolver.network();
    net.start_capture();

    let res = resolver.resolve(&n("www.silent.test"), RrType::A);

    assert_eq!(res.rcode, Rcode::ServFail);
    assert!(res.answers.is_empty());
    assert!(res
        .diagnosis
        .findings
        .iter()
        .any(|f| matches!(f, Finding::AllServersFailed { .. })));
    let asked: Vec<IpAddr> = net.take_capture().into_iter().map(|q| q.dst).collect();
    let to_silent: Vec<&IpAddr> = asked
        .iter()
        .filter(|dst| silent.iter().any(|addr| IpAddr::V4(*addr) == **dst))
        .collect();
    assert_eq!(to_silent.len(), 4, "{asked:?}");
    assert_eq!(
        to_silent.iter().collect::<BTreeSet<_>>().len(),
        4,
        "{asked:?}"
    );
    assert_eq!(asked.len(), 5, "{asked:?}");
    let events = &res.diagnosis.ns_events;
    assert_eq!(events.len(), 4, "{events:?}");
    assert!(
        events.iter().all(|e| e.failure == NsFailure::Timeout),
        "{events:?}"
    );
}

/// The ladder's zone at `depth`: `l<depth>.….l1`, the root at 0.
fn rung(depth: u8) -> Name {
    (1..=depth).fold(Name::root(), |name, k| {
        name.child(&format!("l{k}")).unwrap()
    })
}

/// The address of the server of the ladder's zone at `depth`.
fn rung_addr(depth: u8) -> Ipv4Addr {
    Ipv4Addr::new(45, 0, 2, depth)
}

/// A ladder of 30 referrals, each one label down — the root to `l1`,
/// `l1` to `l2.l1`, and on — for a name below the last: the walk
/// follows 24 of them, one exchange each, and ends SERVFAIL with the
/// validation state Indeterminate.
#[test]
fn a_walk_follows_at_most_24_referrals() {
    const RUNGS: u8 = 30;
    let mut net = NetworkBuilder::new();
    for depth in 0..RUNGS {
        let mut zone = zone_at(&rung(depth));
        if depth == 0 {
            zone.add_a(n("ns1"), ROOT_ADDR);
        }
        delegate(&mut zone, &rung(depth + 1), &[rung_addr(depth + 1)]);
        let addr = if depth == 0 {
            ROOT_ADDR
        } else {
            rung_addr(depth)
        };
        net.register(IpAddr::V4(addr), serve(zone));
    }
    let resolver = resolver(net);
    let net = resolver.network();
    net.start_capture();

    let qname = rung(RUNGS).child("www").unwrap();
    let res = resolver.resolve(&qname, RrType::A);

    assert_eq!(res.rcode, Rcode::ServFail);
    assert!(res.answers.is_empty());
    assert_eq!(res.validation, ValidationState::Indeterminate);
    let asked: Vec<IpAddr> = net.take_capture().into_iter().map(|q| q.dst).collect();
    assert_eq!(asked.len(), 24, "{asked:?}");
    assert_eq!(net.stats().snapshot_full().queries, 24);
    let rungs: Vec<IpAddr> = std::iter::once(ROOT_ADDR)
        .chain((1..24).map(rung_addr))
        .map(IpAddr::V4)
        .collect();
    assert_eq!(asked, rungs);
}
