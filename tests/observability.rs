//! Golden tests for the `ede-trace` observability pipeline: the exact
//! event sequence of one healthy and one broken resolution through the
//! Cloudflare profile, the JSONL export, and the event stream's
//! completeness against the transport's own traffic accounting.

use extended_dns_errors::prelude::*;
use extended_dns_errors::scan::chaos::CHAOS_RETRIES;
use extended_dns_errors::trace::{CacheOutcome, TraceEvent, TraceSink};
use std::sync::Arc;

/// The healthy control (`valid`): three signed zone cuts walked with a
/// DNSKEY fetch + two validation steps at each, then the leaf answer and
/// its own chain — and no findings, no EDE, NOERROR.
const HEALTHY_GOLDEN: &[&str] = &[
    "resolution_started",
    "cache_probe",
    // root: referral for the qname, then the root DNSKEY + DS validation
    "query_sent",
    "authority_answer",
    "response_received",
    "referral",
    "query_sent",
    "authority_answer",
    "response_received",
    "validation_step",
    "validation_step",
    // com: same shape, one level down
    "query_sent",
    "authority_answer",
    "response_received",
    "referral",
    "query_sent",
    "authority_answer",
    "response_received",
    "validation_step",
    "validation_step",
    // extended-dns-errors.com: same shape
    "query_sent",
    "authority_answer",
    "response_received",
    "referral",
    "query_sent",
    "authority_answer",
    "response_received",
    "validation_step",
    "validation_step",
    // the leaf zone: answer, then its DNSKEY + answer-RRSIG validation
    "query_sent",
    "authority_answer",
    "response_received",
    "query_sent",
    "authority_answer",
    "response_received",
    "validation_step",
    "validation_step",
    "resolution_finished",
];

/// `rrsig-exp-all` diverges from the healthy walk only at the leaf: the
/// expired DNSKEY signature records a finding, fails the validation
/// step, and synthesizes EDE 7 (Signature Expired).
const BROKEN_GOLDEN: &[&str] = &[
    "resolution_started",
    "cache_probe",
    "query_sent",
    "authority_answer",
    "response_received",
    "referral",
    "query_sent",
    "authority_answer",
    "response_received",
    "validation_step",
    "validation_step",
    "query_sent",
    "authority_answer",
    "response_received",
    "referral",
    "query_sent",
    "authority_answer",
    "response_received",
    "validation_step",
    "validation_step",
    "query_sent",
    "authority_answer",
    "response_received",
    "referral",
    "query_sent",
    "authority_answer",
    "response_received",
    "validation_step",
    "validation_step",
    "query_sent",
    "authority_answer",
    "response_received",
    "query_sent",
    "authority_answer",
    "response_received",
    "finding_recorded",
    "validation_step",
    "ede_emitted",
    "resolution_finished",
];

fn traced_resolution(label: &str) -> (Arc<ResolutionTrace>, Resolution) {
    let tb = Testbed::build();
    let trace = Arc::new(ResolutionTrace::new(4096));
    tb.attach_trace_sink(Arc::clone(&trace) as _);
    let spec = tb.spec(label).expect("testbed domain");
    let qname = tb.query_name(spec);
    let res = tb.resolver(Vendor::Cloudflare).resolve(&qname, RrType::A);
    (trace, res)
}

#[test]
fn healthy_resolution_matches_golden_sequence() {
    let (trace, res) = traced_resolution("valid");
    assert_eq!(res.rcode, Rcode::NoError);
    assert!(res.ede.is_empty());

    let events = trace.events();
    let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
    assert_eq!(kinds, HEALTHY_GOLDEN);
    assert_eq!(trace.dropped(), 0);

    // Clock order: stamps never go backwards.
    for pair in events.windows(2) {
        assert!(pair[0].at_ms <= pair[1].at_ms);
    }
}

#[test]
fn broken_resolution_matches_golden_sequence() {
    let (trace, res) = traced_resolution("rrsig-exp-all");
    assert_eq!(res.rcode, Rcode::ServFail);
    assert_eq!(res.ede_codes(), vec![7]);

    let events = trace.events();
    let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
    assert_eq!(kinds, BROKEN_GOLDEN);

    // Clock order, and the acceptance-criteria variants all present.
    for pair in events.windows(2) {
        assert!(pair[0].at_ms <= pair[1].at_ms);
    }
    assert!(events
        .iter()
        .any(|e| matches!(&e.event, TraceEvent::QuerySent { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(&e.event, TraceEvent::ValidationStep { ok: false, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(&e.event, TraceEvent::FindingRecorded { finding } if finding.contains("SignatureExpired"))));
    assert!(events.iter().any(|e| matches!(
        &e.event,
        TraceEvent::EdeEmitted { vendor, code: 7, .. } if *vendor == "Cloudflare DNS"
    )));

    // The JSONL export carries one line per event, in order, each a
    // flat JSON object with the stamp and the kind tag.
    let jsonl = trace.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), events.len());
    for (line, kind) in lines.iter().zip(BROKEN_GOLDEN) {
        assert!(line.starts_with("{\"at_ms\":"), "{line}");
        assert!(line.contains(&format!("\"kind\":\"{kind}\"")), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
    assert!(jsonl.contains("\"kind\":\"ede_emitted\",\"vendor\":\"Cloudflare DNS\",\"code\":7"));
}

/// A hit on a cached failure walks nothing and renders nothing (its
/// entry was rendered when it was stored), but it still announces what
/// the client gets: the probe's hit, the Cached Error finding, every
/// code of the entry — the original three and 13 — and the bracket.
#[test]
fn a_cached_failure_hit_announces_its_finding_and_codes() {
    let tb = Testbed::build();
    let qname = tb.query_name(tb.spec("allow-query-none").expect("testbed domain"));
    let resolver = tb.resolver(Vendor::Cloudflare);
    assert_eq!(resolver.resolve(&qname, RrType::A).rcode, Rcode::ServFail);

    let trace = Arc::new(ResolutionTrace::new(64));
    tb.attach_trace_sink(Arc::clone(&trace) as _);
    let hit = resolver.resolve(&qname, RrType::A);
    assert_eq!(hit.ede_codes(), [9, 13, 22, 23]);

    let dotted = qname.to_string();
    let vendor = Vendor::Cloudflare.name();
    let mut want = vec![
        TraceEvent::ResolutionStarted {
            qname: dotted.clone(),
            qtype: 1,
        },
        TraceEvent::CacheProbe {
            qname: dotted,
            qtype: 1,
            outcome: CacheOutcome::Hit,
        },
        TraceEvent::FindingRecorded {
            finding: "CachedError".into(),
        },
    ];
    want.extend(hit.ede.iter().map(|entry| TraceEvent::EdeEmitted {
        vendor,
        code: entry.code.to_u16(),
        extra_text: entry.extra_text.clone(),
    }));
    want.push(TraceEvent::ResolutionFinished {
        rcode: 2,
        ede_count: 4,
        duration_ms: 0,
    });
    let events: Vec<TraceEvent> = trace.events().into_iter().map(|e| e.event).collect();
    assert_eq!(events, want);
    assert!(
        hit.ede[3].extra_text.contains("rcode=REFUSED"),
        "{:?}",
        hit.ede
    );
}

#[test]
fn tracing_does_not_change_resolution_results() {
    let tb = Testbed::build();
    let spec = tb.spec("rrsig-exp-all").expect("testbed domain");
    let qname = tb.query_name(spec);
    let untraced = tb.resolver(Vendor::Cloudflare).resolve(&qname, RrType::A);

    let (_, traced) = traced_resolution("rrsig-exp-all");
    assert_eq!(untraced.rcode, traced.rcode);
    assert_eq!(untraced.ede_codes(), traced.ede_codes());
}

/// Every count the transport keeps has one event per count, so a
/// timeline misses no exchange, no fallback and no fault: loss makes
/// timeouts, faults and retries, and a 512-byte payload limit makes TC
/// fallbacks. The metrics registry counts what the transport does not.
#[test]
fn every_transport_count_has_its_trace_event() {
    let tb = Testbed::build();
    /// One event stream into the timeline and the registry both.
    struct Both(Arc<ResolutionTrace>, Arc<Metrics>);
    impl TraceSink for Both {
        fn record(&self, at_ms: u64, event: &TraceEvent) {
            self.0.record(at_ms, event);
            self.1.record(at_ms, event);
        }
    }
    let trace = Arc::new(ResolutionTrace::new(1 << 16));
    let metrics = Arc::new(Metrics::new());
    tb.attach_trace_sink(Arc::new(Both(Arc::clone(&trace), Arc::clone(&metrics))));
    tb.net.set_fault_plan(
        FaultPlan::new(0x0ede_7ace)
            .with_loss(0.10)
            .with_udp_payload_limit(512),
    );
    let mut config = tb.resolver_config.clone();
    config.retries_per_server = CHAOS_RETRIES;
    let resolver = Resolver::new(
        Arc::clone(&tb.net),
        VendorProfile::new(Vendor::Cloudflare),
        config,
    );
    for spec in &tb.specs {
        resolver.resolve(&tb.query_name(spec), RrType::A);
    }

    assert_eq!(trace.dropped(), 0);
    let events = trace.events();
    let count = |kind| events.iter().filter(|e| e.event.kind() == kind).count() as u64;
    let traffic = tb.net.stats().snapshot_full();
    assert!(
        traffic.failed > 0 && traffic.stream_queries > 0 && traffic.faults > 0,
        "the plan did not bite: {traffic:?}"
    );
    assert_eq!(count("query_sent"), traffic.queries);
    assert_eq!(count("response_received"), traffic.delivered);
    assert_eq!(count("timeout"), traffic.failed);
    assert_eq!(count("tc_fallback"), traffic.stream_queries);
    assert_eq!(count("fault_injected"), traffic.faults);

    let snap = metrics.snapshot();
    assert_eq!(snap.resolutions, tb.specs.len() as u64);
    assert_eq!(snap.retries, count("retry"));
    assert!(snap.ede_by_vendor.contains_key(&("Cloudflare DNS", 7)));
    assert!(snap.render().contains("metrics summary"));
}
