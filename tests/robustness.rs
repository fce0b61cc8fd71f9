//! Robustness acceptance tests for the fault-injection / retry /
//! truncation layer (see `docs/ROBUSTNESS.md`):
//!
//! 1. on a clean network the retry count is *invariant* — every count
//!    produces the same rcode, answers, and EDE codes as the default
//!    of none;
//! 2. the paper's Table 4 matrix stays pinned cell by cell under mild
//!    packet loss once retries are on;
//! 3. oversized UDP answers recover over the stream channel, visibly
//!    (TC-fallback metrics reconcile with stream-query accounting);
//! 4. a 10%-loss scan with the campaigns' retry count still resolves
//!    ≥ 99% of what the clean scan resolves, and its counters reconcile.

use extended_dns_errors::prelude::*;
use extended_dns_errors::resolver::Resolver;
use extended_dns_errors::scan::chaos::CHAOS_RETRIES;
use extended_dns_errors::testbed::expectations::table4;
use std::sync::Arc;

/// A resolver on the testbed's network with everything default except
/// the retry count.
fn resolver_with_retries(tb: &Testbed, vendor: Vendor, retries: usize) -> Resolver {
    let mut config = tb.resolver_config.clone();
    config.retries_per_server = retries;
    Resolver::new(Arc::clone(&tb.net), VendorProfile::new(vendor), config)
}

#[test]
fn retry_policy_is_invariant_on_a_clean_network() {
    let tb = Testbed::build();
    for vendor in [Vendor::Cloudflare, Vendor::Unbound, Vendor::Bind9] {
        for spec in &tb.specs {
            let qname = tb.query_name(spec);
            // Fresh resolvers: no cache state crosses retry counts.
            let baseline = resolver_with_retries(&tb, vendor, 0).resolve(&qname, RrType::A);
            for retries in [0, 2, CHAOS_RETRIES] {
                let got = resolver_with_retries(&tb, vendor, retries).resolve(&qname, RrType::A);
                assert_eq!(
                    (got.rcode, got.ede_codes(), got.answers.clone()),
                    (
                        baseline.rcode,
                        baseline.ede_codes(),
                        baseline.answers.clone()
                    ),
                    "{} / {} with {retries} retries",
                    spec.label,
                    vendor.name()
                );
            }
        }
    }
}

#[test]
fn table4_stays_pinned_under_mild_loss_with_retries() {
    let tb = Testbed::build();
    // Loss only: no corruption, no truncation. Retries must absorb it
    // without changing a single cell of the 63 × 7 matrix.
    tb.net
        .set_fault_plan(FaultPlan::new(0xBAD_70E5).with_loss(0.02));
    let resolvers: Vec<_> = Vendor::ALL
        .iter()
        .map(|&v| resolver_with_retries(&tb, v, CHAOS_RETRIES))
        .collect();
    for (spec, exp) in tb.specs.iter().zip(table4()) {
        let qname = tb.query_name(spec);
        for (i, resolver) in resolvers.iter().enumerate() {
            resolver.flush();
            let got = resolver.resolve(&qname, RrType::A).ede_codes();
            assert_eq!(
                got,
                exp.codes[i].to_vec(),
                "{} col {i} deviates under 2% loss",
                spec.label
            );
        }
    }
}

#[test]
fn truncated_answers_recover_over_the_stream_channel() {
    // Clean run first: what should the healthy control domain return?
    let tb = Testbed::build();
    let spec = tb.spec("valid").expect("control domain");
    let qname = tb.query_name(spec);
    let clean = tb.resolver(Vendor::Cloudflare).resolve(&qname, RrType::A);
    assert_eq!(clean.rcode, Rcode::NoError);

    // Same resolution with a 512-byte UDP ceiling: DNSKEY answers no
    // longer fit, the authority sets TC, and the resolver must fall
    // back to the stream channel — reaching the same result.
    let tb = Testbed::build();
    let metrics = Arc::new(Metrics::new());
    tb.attach_trace_sink(Arc::clone(&metrics) as _);
    tb.net
        .set_fault_plan(FaultPlan::new(1).with_udp_payload_limit(512));
    let capped = tb.resolver(Vendor::Cloudflare).resolve(&qname, RrType::A);

    assert_eq!(capped.rcode, clean.rcode);
    assert_eq!(capped.ede_codes(), clean.ede_codes());
    assert_eq!(capped.answers, clean.answers);

    // The fallback is load-bearing: the same answers arrived only
    // because truncated replies were re-asked over the stream.
    let traffic = tb.net.stats().snapshot_full();
    assert!(traffic.truncated > 0, "nothing was truncated at 512 B");
    assert!(traffic.stream_queries > 0, "no stream fallback happened");
    let snap = metrics.snapshot();
    assert_eq!(
        snap.tc_fallbacks, traffic.stream_queries,
        "every stream query must come from exactly one TC fallback"
    );
}

#[test]
fn lossy_scan_resolves_99_percent_with_default_policy() {
    let pop = Population::generate(PopulationConfig::tiny());

    let clean_world = ScanWorld::build(&pop);
    let clean = scan(&pop, &clean_world, &ScanConfig::builder().build());
    let clean_resolved = clean.stats.ede.resolved_domains();

    let mut lossy_world = ScanWorld::build(&pop);
    lossy_world
        .net
        .set_fault_plan(FaultPlan::new(0xC0FFEE).with_loss(0.10));
    lossy_world.resolver_config.retries_per_server = CHAOS_RETRIES;
    let config = ScanConfig::builder().workers(1).build();
    let lossy = scan(&pop, &lossy_world, &config);
    let lossy_resolved = lossy.stats.ede.resolved_domains();

    assert!(
        lossy_resolved as f64 >= 0.99 * clean_resolved as f64,
        "10% loss resolved only {lossy_resolved}/{clean_resolved}"
    );
    // The retries had to actually work for a living.
    assert!(lossy.metrics.retries > 0, "10% loss should force retries");
    // And the books must balance.
    assert_eq!(lossy.metrics.queries_sent, lossy.traffic_full.queries);
    assert_eq!(
        lossy.metrics.tc_fallbacks,
        lossy.traffic_full.stream_queries
    );
    assert_eq!(lossy.metrics.faults_injected, lossy.traffic_full.faults);
}
