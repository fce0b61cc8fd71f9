//! Integration tests for the extension features: the operator-facing
//! explanation of a diagnosis.

#[test]
fn diagnosis_explains_itself() {
    use extended_dns_errors::prelude::*;
    use extended_dns_errors::resolver::explain::explain;
    let tb = Testbed::build();
    let resolver = tb.resolver(Vendor::Cloudflare);
    let res = resolver.resolve_a("allow-query-none.extended-dns-errors.com");
    let text = explain(&res.diagnosis);
    assert!(text.contains("BOGUS"));
    assert!(text.contains("DNSKEY RRset could not be fetched"));
    assert!(text.contains("rcode=REFUSED"));
}
