//! Integration tests for the extension features: forwarder EDE
//! passthrough, RFC 9567 error reporting, and serve-stale NXDOMAIN.

use extended_dns_errors::prelude::*;
use extended_dns_errors::resolver::forwarder::Forwarder;
use std::sync::Arc;

#[test]
fn forwarder_passes_ede_through_the_wire() {
    let tb = Testbed::build();
    let upstream = Arc::new(tb.resolver(Vendor::Cloudflare));
    let fwd = Forwarder::new(upstream);

    let qname = Name::parse("allow-query-none.extended-dns-errors.com").unwrap();
    let res = fwd.resolve(&qname, RrType::A);
    assert_eq!(res.rcode, Rcode::ServFail);
    let codes: Vec<u16> = res.ede.iter().map(|e| e.code.to_u16()).collect();
    assert_eq!(codes, vec![9, 22, 23]);
    // EXTRA-TEXT survives the double wire round-trip.
    assert!(res.ede[2].extra_text.contains("rcode=REFUSED"));
}

#[test]
fn stripping_forwarder_hides_ede_but_still_parses_it() {
    let tb = Testbed::build();
    let upstream = Arc::new(tb.resolver(Vendor::Unbound));
    let fwd = Forwarder::stripping(upstream);

    let qname = Name::parse("rrsig-exp-all.extended-dns-errors.com").unwrap();
    let res = fwd.resolve(&qname, RrType::A);
    assert_eq!(res.rcode, Rcode::ServFail);
    assert!(res.ede.is_empty(), "stripped for the client");
    let upstream_codes: Vec<u16> = res.upstream_ede.iter().map(|e| e.code.to_u16()).collect();
    assert_eq!(upstream_codes, vec![7], "still visible to the forwarder");
}

#[test]
fn forwarder_preserves_clean_answers() {
    let tb = Testbed::build();
    let upstream = Arc::new(tb.resolver(Vendor::Cloudflare));
    let fwd = Forwarder::new(upstream);
    let qname = Name::parse("valid.extended-dns-errors.com").unwrap();
    let res = fwd.resolve(&qname, RrType::A);
    assert_eq!(res.rcode, Rcode::NoError);
    assert!(res.ede.is_empty());
    assert!(res.authentic_data);
    assert!(!res.answers.is_empty());
}

#[test]
fn error_reporting_fires_on_ede() {
    let tb = Testbed::build();
    let resolver = tb.resolver_with_reporting(Vendor::Cloudflare);

    // A clean resolution produces no report.
    resolver.resolve_a("valid.extended-dns-errors.com");
    assert_eq!(tb.reporting_agent.report_count(), 0);

    // A failing one produces exactly one (for the first EDE code).
    resolver.resolve_a("rrsig-exp-all.extended-dns-errors.com");
    let reports = tb.reporting_agent.reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(
        reports[0].qname,
        Name::parse("rrsig-exp-all.extended-dns-errors.com").unwrap()
    );
    assert_eq!(reports[0].qtype, RrType::A);
    assert_eq!(reports[0].info_code, 7);
}

/// A report suspends on the completion queue like any other exchange,
/// so in a pool it overlaps the other tasks' waits: seven testbed names
/// finish at most one report round trip (20 ms of virtual time) later
/// than the same pool without reporting. A report sent blocking jumps
/// the queue and pushes the shared clock past everyone else's pending
/// exchange, adding its round trip once per failing name.
#[test]
fn error_reports_do_not_stall_a_pool() {
    use extended_dns_errors::resolver::ResolutionPool;
    const LABELS: [&str; 7] = [
        "rrsig-exp-all",
        "no-ds",
        "bad-zsk",
        "nsec3-missing",
        "rrsig-no-all",
        "valid",
        "allow-query-none",
    ];
    let run = |reporting: bool| {
        let tb = Testbed::build();
        let resolver = if reporting {
            tb.resolver_with_reporting(Vendor::Cloudflare)
        } else {
            tb.resolver(Vendor::Cloudflare)
        };
        let names: Vec<Name> = LABELS
            .iter()
            .map(|label| tb.query_name(tb.spec(label).expect("a testbed name")))
            .collect();
        let clock = resolver.network().clock();
        let start = clock.now_millis();
        let mut pool = ResolutionPool::new(resolver.network());
        for name in &names {
            let resolver = &resolver;
            pool.spawn(move |handle| async move {
                resolver.resolve_with(&handle, name, RrType::A).await
            });
        }
        while pool.next().is_some() {}
        (
            clock.now_millis() - start,
            tb.reporting_agent.report_count(),
        )
    };
    let (plain_ms, no_reports) = run(false);
    let (reporting_ms, reports) = run(true);
    assert_eq!((no_reports, reports), (0, 5));
    assert!(
        reporting_ms <= plain_ms + 20,
        "reports stalled the pool: {reporting_ms} ms against {plain_ms} ms"
    );
}

#[test]
fn error_reporting_not_sent_without_agent() {
    let tb = Testbed::build();
    let resolver = tb.resolver(Vendor::Cloudflare); // reporting off
    resolver.resolve_a("rrsig-exp-all.extended-dns-errors.com");
    assert_eq!(tb.reporting_agent.report_count(), 0);
}

#[test]
fn diagnosis_explains_itself() {
    use extended_dns_errors::resolver::explain::explain;
    let tb = Testbed::build();
    let resolver = tb.resolver(Vendor::Cloudflare);
    let res = resolver.resolve_a("allow-query-none.extended-dns-errors.com");
    let text = explain(&res.diagnosis);
    assert!(text.contains("BOGUS"));
    assert!(text.contains("DNSKEY RRset could not be fetched"));
    assert!(text.contains("rcode=REFUSED"));
}
