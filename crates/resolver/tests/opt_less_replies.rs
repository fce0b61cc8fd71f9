//! What a reply without an OPT says about its server (RFC 6891 §7). A
//! server without EDNS answers an EDNS query as if the OPT were not
//! there: no OPT comes back, and the server is one the DO-bit pipeline
//! cannot use. A REFUSED, SERVFAIL or NOTAUTH is the server's own
//! answer, whatever it did with the OPT: a lame server, not a pre-EDNS
//! one.

use ede_netsim::{NetworkBuilder, Server, ServerResponse, SimClock};
use ede_resolver::config::RootHint;
use ede_resolver::{Finding, NsFailure, Resolver, ResolverConfig, Vendor, VendorProfile};
use ede_wire::{Edns, Message, Name, Rcode, RrType};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

const ROOT_ADDR: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);

/// A root server that answers every query with `rcode` alone, with or
/// without an OPT.
struct Scripted {
    rcode: Rcode,
    opt: bool,
}

impl Server for Scripted {
    fn handle(&self, query: &Message, _src: IpAddr, _now: u32) -> ServerResponse {
        let mut resp = Message::response_to(query);
        resp.rcode = self.rcode;
        resp.authoritative = true;
        resp.edns = self.opt.then(Edns::default);
        ServerResponse::Reply(resp)
    }
}

/// The failure each exchange with the scripted root recorded, and
/// whether the resolution found the server without EDNS.
fn ask(rcode: Rcode, opt: bool) -> (Vec<NsFailure>, bool) {
    let mut net = NetworkBuilder::new();
    net.register(IpAddr::V4(ROOT_ADDR), Arc::new(Scripted { rcode, opt }));
    let config = ResolverConfig::with_roots(
        vec![RootHint {
            name: Name::parse("ns1").unwrap(),
            addr: IpAddr::V4(ROOT_ADDR),
        }],
        Vec::new(),
    );
    let resolver = Resolver::new(
        Arc::new(net.build(SimClock::new())),
        VendorProfile::new(Vendor::Cloudflare),
        config,
    );
    let res = resolver.resolve(&Name::parse("www.example").unwrap(), RrType::A);
    assert_eq!(res.rcode, Rcode::ServFail, "{rcode:?}, OPT {opt}");
    let failures = res.diagnosis.ns_events.iter().map(|e| e.failure).collect();
    let no_edns = res
        .diagnosis
        .findings
        .iter()
        .any(|f| matches!(f, Finding::EdnsNotSupported { .. }));
    (failures, no_edns)
}

#[test]
fn a_failing_rcode_without_an_opt_is_a_lame_server() {
    for (rcode, failure) in [
        (Rcode::Refused, NsFailure::Refused),
        (Rcode::ServFail, NsFailure::ServFail),
        (Rcode::NotAuth, NsFailure::NotAuth),
    ] {
        for opt in [false, true] {
            assert_eq!(
                ask(rcode, opt),
                (vec![failure], false),
                "{rcode:?}, OPT {opt}"
            );
        }
    }
}

#[test]
fn a_reply_without_an_opt_otherwise_is_a_server_without_edns() {
    for rcode in [Rcode::NoError, Rcode::NxDomain] {
        assert_eq!(
            ask(rcode, false),
            (vec![NsFailure::NoEdns], true),
            "{rcode:?}"
        );
    }
}
