//! Cross-crate integration tests: scenarios that span the zone signer,
//! the authority, the network, the resolver, and the EDE emission.

use extended_dns_errors::netsim::transport::CapturedQuery;
use extended_dns_errors::prelude::*;
use extended_dns_errors::resolver::{ResolutionPool, ValidationState};
use std::collections::HashSet;
use std::sync::mpsc::{self, RecvTimeoutError};
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
fn a_pool_is_never_slower_than_its_slowest_name_alone() {
    // A task that needs a zone's keys while another task fetches them
    // waits for that fetch rather than behind it, so seven resolutions
    // in flight take no longer than the slowest of them alone, and a
    // zone's DNSKEY is asked once.
    let tb = Testbed::build();
    let resolver = tb.resolver(Vendor::Cloudflare);
    let clock = resolver.network().clock();
    let names: Vec<Name> = tb.specs.iter().map(|spec| tb.query_name(spec)).collect();
    assert_eq!(names.len(), 63);
    let alone: Vec<u64> = names
        .iter()
        .map(|name| {
            resolver.flush();
            let start = clock.now_millis();
            resolver.resolve(name, RrType::A);
            clock.now_millis() - start
        })
        .collect();
    for (group, (names, alone)) in names.chunks(7).zip(alone.chunks(7)).enumerate() {
        resolver.flush();
        resolver.network().start_capture();
        let start = clock.now_millis();
        let mut pool = ResolutionPool::new(resolver.network());
        for name in names {
            let resolver = &resolver;
            pool.spawn(move |handle| async move {
                resolver.resolve_with(&handle, name, RrType::A).await
            });
        }
        assert_eq!(pool.by_ref().count(), names.len());
        let took = clock.now_millis() - start;
        let slowest = *alone.iter().max().expect("a group holds a name");
        assert!(
            took <= slowest,
            "group {group}: {took} ms in one pool against {slowest} ms for its slowest name alone"
        );
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

/// A pool holding one resolution of `name` parked on the root's DNSKEY
/// fetch, so holding the root's build mark, with the capture restarted
/// after that query.
fn parked_on_the_root_keys<'a>(
    tb: &Testbed,
    resolver: &'a Resolver,
    name: &'a Name,
) -> ResolutionPool<'a, Option<Resolution>> {
    let net = resolver.network();
    let root = tb.resolver_config.root_hints[0].addr;
    let source = tb.resolver_config.source_addr;
    net.start_capture();
    let mut pool = ResolutionPool::new(net);
    pool.spawn(
        move |handle| async move { Some(resolver.resolve_with(&handle, name, RrType::A).await) },
    );
    // Asked alongside the resolution's first query, this one completes
    // just after it: by then the resolution has taken the root's
    // referral and parked on the root's DNSKEY.
    pool.spawn(move |handle| async move {
        let query = Message::iterative_query(0, Name::root(), RrType::Ns);
        let _ = handle.await_net(net.send(root, source, &query)).await;
        None
    });
    assert_eq!(pool.next(), Some(None));
    assert_eq!(pool.in_flight(), 1);
    assert_eq!(dnskey_names(&net.take_capture()), ["."]);
    net.start_capture();
    pool
}

/// How many DNSKEY queries for the root the capture holds.
fn root_dnskeys(net: &Network) -> usize {
    let capture = net.take_capture();
    dnskey_names(&capture)
        .iter()
        .filter(|zone| **zone == ".")
        .count()
}

#[test]
fn a_dropped_builder_releases_its_zone() {
    // A pool dropped while one of its tasks fetches the root's keys must
    // not leave the root marked as being built: a later resolution on
    // the same thread would park on the mark for ever. It runs on a
    // thread of its own so that a leaked mark fails the test instead of
    // hanging it.
    let (done, finished) = mpsc::channel();
    let worker = thread::spawn(move || {
        let tb = Testbed::build();
        let resolver = tb.resolver(Vendor::Cloudflare);
        let name = Name::parse("valid.extended-dns-errors.com").unwrap();
        drop(parked_on_the_root_keys(&tb, &resolver, &name));
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
            std::panic::resume_unwind(worker.join().expect_err("it stopped early"))
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("the resolution never finished: the dropped task kept the root marked")
        }
    }
}

#[test]
fn a_waiter_on_another_thread_yields_until_the_keys_are_stored() {
    // A resolution on a second thread that needs the root's keys while a
    // parked pool task fetches them cannot finish before this thread
    // drives the pool; it yields its thread meanwhile instead of blocking
    // it, and asks for the keys no second time.
    let tb = Testbed::build();
    let resolver = tb.resolver(Vendor::Cloudflare);
    let name = Name::parse("valid.extended-dns-errors.com").unwrap();
    let mut pool = parked_on_the_root_keys(&tb, &resolver, &name);
    thread::scope(|scope| {
        let waiter = scope.spawn(|| resolver.resolve(&name, RrType::A));
        // Time for the waiter to reach the mark; what is asserted holds
        // whether or not it got there.
        thread::sleep(Duration::from_millis(50));
        assert!(
            !waiter.is_finished(),
            "finished before the keys were stored"
        );
        let built = pool.next().flatten().expect("the parked resolution");
        let waited = waiter.join().unwrap();
        assert_eq!(waited.rcode, Rcode::NoError);
        assert_eq!(
            (waited.rcode, waited.ede_codes()),
            (built.rcode, built.ede_codes())
        );
    });
    assert_eq!(root_dnskeys(resolver.network()), 0);
}
