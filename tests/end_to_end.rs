//! Cross-crate integration tests: scenarios that span the zone signer,
//! the authority, the network, the resolver, and the EDE emission.

use extended_dns_errors::authority::ZoneServer;
use extended_dns_errors::netsim::transport::{CapturedQuery, ServerResponse};
use extended_dns_errors::netsim::{NetworkBuilder, Server as SimServer};
use extended_dns_errors::prelude::*;
use extended_dns_errors::resolver::ValidationState;
use extended_dns_errors::testbed::build::{
    child_server_addr, COM_SERVER, PARENT_SERVER, ROOT_SERVER,
};
use extended_dns_errors::testbed::GlueKind;
use std::collections::HashSet;
use std::net::IpAddr;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

#[test]
fn secure_chain_end_to_end() {
    let tb = Testbed::build();
    for vendor in Vendor::ALL {
        let r = tb.resolver(vendor);
        let res = r.resolve_a("valid.extended-dns-errors.com");
        assert_eq!(res.rcode, Rcode::NoError, "{}", vendor.name());
        assert_eq!(res.validation, ValidationState::Secure);
        assert!(res.authentic_data);
        assert!(res.ede.is_empty());
        assert!(!res.answers.is_empty());
    }
}

#[test]
fn a_ds_query_is_answered_by_the_parent_end_to_end() {
    // The walk sends a client's DS query to the parent's server, which
    // answers from its side of the cut. Followed to the child instead,
    // it would come back as the child's own signed NODATA: a validated
    // "no DS" for a delegation that has one.
    let tb = Testbed::build();
    let qname = Name::parse("valid.extended-dns-errors.com").unwrap();
    for vendor in Vendor::ALL {
        let res = tb.resolver(vendor).resolve(&qname, RrType::Ds);
        assert_eq!(res.rcode, Rcode::NoError, "{}", vendor.name());
        assert_eq!(res.validation, ValidationState::Secure, "{}", vendor.name());
        assert!(res.authentic_data, "{}", vendor.name());
        assert!(
            res.answers
                .iter()
                .any(|r| r.rtype() == RrType::Ds && r.name == qname),
            "{}: {:?}",
            vendor.name(),
            res.answers
        );
    }
}

#[test]
fn cache_hit_returns_same_answer_without_network() {
    let tb = Testbed::build();
    let r = tb.resolver(Vendor::Cloudflare);
    let first = r.resolve_a("valid.extended-dns-errors.com");
    let t0 = tb.net.clock().now_millis();
    let second = r.resolve_a("valid.extended-dns-errors.com");
    // Cache hits make no network queries, so the virtual clock stands
    // still.
    assert_eq!(tb.net.clock().now_millis(), t0);
    assert_eq!(first.rcode, second.rcode);
    assert_eq!(first.answers, second.answers);
}

#[test]
fn cached_error_is_signaled_with_ede_13() {
    let tb = Testbed::build();
    let r = tb.resolver(Vendor::Cloudflare);
    let first = r.resolve_a("allow-query-none.extended-dns-errors.com");
    assert_eq!(first.rcode, Rcode::ServFail);
    assert!(!first.ede_codes().contains(&13));

    // Second query within the failure TTL: replayed from the error
    // cache, flagged with Cached Error (13) alongside the original
    // codes.
    let second = r.resolve_a("allow-query-none.extended-dns-errors.com");
    assert_eq!(second.rcode, Rcode::ServFail);
    let codes = second.ede_codes();
    assert!(codes.contains(&13), "{codes:?}");
    assert!(codes.contains(&22), "{codes:?}");
}

#[test]
fn vendors_disagree_by_design() {
    // The same broken zone yields different codes per vendor — spot-check
    // the ds-bad-tag row end to end.
    let tb = Testbed::build();
    let qname = Name::parse("ds-bad-tag.extended-dns-errors.com").unwrap();

    let expect: &[(Vendor, &[u16])] = &[
        (Vendor::Bind9, &[]),
        (Vendor::Unbound, &[9]),
        (Vendor::PowerDns, &[9]),
        (Vendor::Knot, &[6]),
        (Vendor::Cloudflare, &[9]),
        (Vendor::Quad9, &[9]),
        (Vendor::OpenDns, &[6]),
    ];
    for (vendor, codes) in expect {
        let r = tb.resolver(*vendor);
        assert_eq!(
            r.resolve(&qname, RrType::A).ede_codes(),
            codes.to_vec(),
            "{}",
            vendor.name()
        );
    }
}

#[test]
fn extra_text_identifies_the_failing_nameserver() {
    let tb = Testbed::build();
    let r = tb.resolver(Vendor::Cloudflare);
    let res = r.resolve_a("allow-query-none.extended-dns-errors.com");
    let net_err = res
        .ede
        .iter()
        .find(|e| e.code == EdeCode::NetworkError)
        .expect("Network Error present");
    // The paper: "1.2.3.4:53 rcode=REFUSED for a.com A".
    assert!(
        net_err.extra_text.contains(":53 rcode=REFUSED for"),
        "{}",
        net_err.extra_text
    );
    assert!(net_err
        .extra_text
        .contains("allow-query-none.extended-dns-errors.com"));
}

#[test]
fn knot_extra_text_for_unsupported_algorithms() {
    let tb = Testbed::build();
    let r = tb.resolver(Vendor::Knot);
    let res = r.resolve_a("rsamd5.extended-dns-errors.com");
    assert_eq!(res.rcode, Rcode::NoError, "treated as unsigned");
    assert_eq!(res.ede.len(), 1);
    assert_eq!(res.ede[0].code, EdeCode::Other);
    assert_eq!(res.ede[0].extra_text, "LSLC: unsupported digest/key");
}

#[test]
fn ad_bit_only_on_validated_answers() {
    let tb = Testbed::build();
    let r = tb.resolver(Vendor::Unbound);
    assert!(r.resolve_a("valid.extended-dns-errors.com").authentic_data);
    assert!(
        !r.resolve_a("unsigned.extended-dns-errors.com")
            .authentic_data
    );
    assert!(!r.resolve_a("no-ds.extended-dns-errors.com").authentic_data);
}

/// The DNSKEY queries a capture holds, by name.
fn dnskey_names(capture: &[CapturedQuery]) -> Vec<&str> {
    let dnskey = RrType::Dnskey.to_u16();
    capture
        .iter()
        .filter(|q| q.qtype == dnskey)
        .map(|q| q.qname.as_str())
        .collect()
}

#[test]
fn seven_threads_of_one_resolver_ask_each_zone_dnskey_once() {
    // A resolution that needs a zone's keys while one on another thread
    // fetches them waits for that fetch rather than repeating it, so
    // seven names resolved at once on seven threads of one resolver ask
    // each zone's DNSKEY once.
    let tb = Testbed::build();
    let resolver = tb.resolver(Vendor::Cloudflare);
    let names: Vec<Name> = tb.specs.iter().map(|spec| tb.query_name(spec)).collect();
    assert_eq!(names.len(), 63);
    for (group, names) in names.chunks(7).enumerate() {
        resolver.flush();
        resolver.network().start_capture();
        thread::scope(|scope| {
            for name in names {
                let resolver = &resolver;
                scope.spawn(move || resolver.resolve(name, RrType::A));
            }
        });
        let capture = resolver.network().take_capture();
        let mut asked = HashSet::new();
        for zone in dnskey_names(&capture) {
            assert!(
                asked.insert(zone),
                "group {group} asked {zone} DNSKEY twice"
            );
        }
    }
}

/// The testbed's root server with `gate` run on its way out of every
/// answer to the root's DNSKEY query: a test holds that reply there, or
/// fails the fetch.
struct GatedRoot<G> {
    inner: Arc<ZoneServer>,
    gate: G,
}

impl<G: Fn() + Send + Sync> SimServer for GatedRoot<G> {
    fn handle(&self, query: &Message, src: IpAddr, now: u32) -> ServerResponse {
        let reply = self.inner.handle(query, src, now);
        if query
            .first_question()
            .is_some_and(|q| q.name.is_root() && q.qtype == RrType::Dnskey)
        {
            (self.gate)();
        }
        reply
    }
}

/// A Cloudflare-profile resolver over a network of the testbed's
/// servers, the root's behind `gate`, capturing its queries.
fn gated_resolver(tb: &Testbed, gate: impl Fn() + Send + Sync + 'static) -> Resolver {
    // `zone_servers` holds the root's, com's and the parent's, then the
    // children's in spec order, of those whose glue routes.
    let servers = &tb.zone_servers;
    let root = GatedRoot {
        inner: Arc::clone(&servers[0]),
        gate,
    };
    let mut net = NetworkBuilder::new();
    net.register(IpAddr::V4(ROOT_SERVER), Arc::new(root));
    net.register(IpAddr::V4(COM_SERVER), servers[1].clone());
    net.register(IpAddr::V4(PARENT_SERVER), servers[2].clone());
    let routed = tb.specs.iter().enumerate();
    let routed = routed.filter(|(_, spec)| matches!(spec.glue, GlueKind::Routable));
    for ((idx, _), server) in routed.zip(&servers[3..]) {
        net.register(IpAddr::V4(child_server_addr(idx)), server.clone());
    }
    let net = Arc::new(net.build(SimClock::new()));
    net.start_capture();
    Resolver::new(
        net,
        VendorProfile::new(Vendor::Cloudflare),
        tb.resolver_config.clone(),
    )
}

/// How many DNSKEY queries for the root the capture holds, restarting
/// it.
fn root_dnskeys(net: &Network) -> usize {
    let capture = net.take_capture();
    net.start_capture();
    dnskey_names(&capture)
        .iter()
        .filter(|zone| **zone == ".")
        .count()
}

#[test]
fn a_dropped_builder_releases_its_zone() {
    // A resolution that panics while it fetches the root's keys must not
    // leave the root marked as being built: a later resolution on the
    // same thread would wait on the mark for ever. It runs on a thread
    // of its own so that a leaked mark fails the test instead of hanging
    // it.
    let (done, finished) = mpsc::channel();
    let worker = thread::spawn(move || {
        let tb = Testbed::build();
        let first = AtomicBool::new(true);
        let resolver = gated_resolver(&tb, move || {
            if first.swap(false, Ordering::Relaxed) {
                panic!("the root's DNSKEY fetch fails once");
            }
        });
        let name = Name::parse("valid.extended-dns-errors.com").unwrap();
        let builder = panic::catch_unwind(AssertUnwindSafe(|| resolver.resolve(&name, RrType::A)));
        assert!(builder.is_err(), "the builder did not fail");
        assert_eq!(root_dnskeys(resolver.network()), 1);
        let res = resolver.resolve(&name, RrType::A);
        assert_eq!(res.rcode, Rcode::NoError);
        done.send(root_dnskeys(resolver.network())).unwrap();
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(roots) => {
            worker.join().expect("it sent its count and returned");
            assert_eq!(roots, 1, "one more DNSKEY query for the root");
        }
        Err(RecvTimeoutError::Disconnected) => {
            panic::resume_unwind(worker.join().expect_err("it stopped early"))
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("the resolution never finished: the failed builder kept the root marked")
        }
    }
}

#[test]
fn a_waiter_on_another_thread_yields_until_the_keys_are_stored() {
    // A resolution on a second thread that needs the root's keys while
    // the first one fetches them cannot finish while that fetch's reply
    // is held; it yields its thread meanwhile instead of blocking it,
    // ends with the builder's codes, and asks for the keys no second
    // time.
    let (held, holding) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let released = Mutex::new(released);
    let tb = Testbed::build();
    let resolver = gated_resolver(&tb, move || {
        held.send(()).unwrap();
        let _ = released.lock().unwrap().recv();
    });
    let name = Name::parse("valid.extended-dns-errors.com").unwrap();
    thread::scope(|scope| {
        let builder = scope.spawn(|| resolver.resolve(&name, RrType::A));
        holding
            .recv()
            .expect("the builder asks for the root's keys");
        let waiter = scope.spawn(|| resolver.resolve(&name, RrType::A));
        // The builder asked the root twice (the name, then its DNSKEY);
        // the waiter's own first query to the root is the third, after
        // which it meets the root's mark.
        while resolver.network().stats().snapshot().0 < 3 {
            thread::yield_now();
        }
        let early = waiter.is_finished();
        // Dropped, so that a second fetch would not hold its reply.
        release.send(()).unwrap();
        drop(release);
        assert!(!early, "finished before the keys were stored");
        let built = builder.join().unwrap();
        let waited = waiter.join().unwrap();
        assert_eq!(waited.rcode, Rcode::NoError);
        assert_eq!(
            (waited.rcode, waited.ede_codes()),
            (built.rcode, built.ede_codes())
        );
    });
    assert_eq!(root_dnskeys(resolver.network()), 1);
}
