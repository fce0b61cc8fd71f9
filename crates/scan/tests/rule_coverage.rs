//! Every row of every vendor's emission table is either exercised by a
//! real resolution or named here with the reason it is not.
//!
//! The rows are data (`ede_resolver::profiles`), so "is this rule ever
//! used?" has an answer: resolve the 63 testbed subdomains through all
//! seven vendors (Table 4) and one domain of every scan `Category`
//! through Cloudflare (the §4.2 codes only the wild scan reaches), ask
//! each profile which row decided, and compare the rows that never did
//! with [`never_fired`]. A new row no resolution reaches, or a listed
//! row that starts firing, fails the test until the list says so.
//!
//! The cache codes (3, 19, 13) and Cloudflare's combination tail are
//! code beside the tables, not rows; `profiles::tests` and
//! `tests/end_to_end.rs` exercise those.

use ede_resolver::diagnosis::SigTarget;
use ede_resolver::{Diagnosis, Finding, Resolver, Vendor, VendorProfile};
use ede_scan::{Category, Population, PopulationConfig, ScanWorld};
use ede_testbed::Testbed;
use ede_wire::RrType;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The rows nothing reaches: `(vendor, a finding that alone lands on
/// the row, why no resolution does)`. All of them come from vendor
/// documentation rather than from a testbed case, which is why they
/// stay.
fn never_fired() -> Vec<(Vendor, Finding, &'static str)> {
    // No testbed zone or scan category corrupts an RRSIG over an answer
    // while the DNSKEY RRset above it still validates, so the finding is
    // never recorded. Where its shape shares a row with one that does
    // occur (Unbound's `ANSWER_EXPIRED | … | SIG_BOGUS`, Knot's
    // `DENIAL_BOGUS | SIG_BOGUS`) the row fires and is not listed.
    let bogus = Finding::SignatureBogus {
        target: SigTarget::Answer,
    };
    // Occurs only beside the DNSKEY-level finding that removed the key
    // (`DnskeySigBogus`, or `DsNoMatchingDnskey` in `no-dnskey-256-257`),
    // and an earlier row takes that one.
    let key_missing = Finding::RrsigKeyMissing {
        target: SigTarget::Answer,
    };
    vec![
        (Vendor::Unbound, key_missing.clone(), "shadowed"),
        (Vendor::PowerDns, bogus.clone(), "never recorded"),
        (Vendor::Cloudflare, bogus.clone(), "never recorded"),
        (Vendor::Cloudflare, key_missing, "shadowed"),
        (Vendor::Quad9, bogus.clone(), "never recorded"),
        (Vendor::OpenDns, bogus, "never recorded"),
    ]
}

#[test]
fn every_rule_row_fires_or_is_named() {
    let mut fired: BTreeSet<(Vendor, usize)> = BTreeSet::new();

    let tb = Testbed::build();
    for vendor in Vendor::ALL {
        let resolver = tb.resolver(vendor);
        let profile = VendorProfile::new(vendor);
        for spec in &tb.specs {
            // Independent probes, as in Table 4: no warm shared cache.
            resolver.flush();
            let res = resolver.resolve(&tb.query_name(spec), RrType::A);
            fired.insert((vendor, profile.winning_row(&res.diagnosis)));
        }
    }

    let pop = Population::generate(PopulationConfig::tiny());
    let world = ScanWorld::build(&pop);
    let cloudflare = VendorProfile::new(Vendor::Cloudflare);
    let resolver = Resolver::new(
        Arc::clone(&world.net),
        cloudflare.clone(),
        world.resolver_config.clone(),
    );
    for category in Category::ALL {
        let domain = pop
            .domains
            .iter()
            .find(|d| d.category == category)
            .unwrap_or_else(|| panic!("tiny population lacks {category:?}"));
        let res = resolver.resolve(&domain.name, RrType::A);
        fired.insert((Vendor::Cloudflare, cloudflare.winning_row(&res.diagnosis)));
    }

    // The empty diagnosis matches no row, which yields the row count.
    let never: Vec<(Vendor, usize)> = Vendor::ALL
        .into_iter()
        .flat_map(|vendor| {
            let rows = VendorProfile::new(vendor).winning_row(&Diagnosis::new());
            (0..rows).map(move |row| (vendor, row))
        })
        .filter(|row| !fired.contains(row))
        .collect();
    let named: Vec<(Vendor, usize)> = never_fired()
        .into_iter()
        .map(|(vendor, finding, _why)| {
            let mut lone = Diagnosis::new();
            lone.add(finding);
            (vendor, VendorProfile::new(vendor).winning_row(&lone))
        })
        .collect();
    assert_eq!(never, named, "rows no resolution reached vs. never_fired()");
}
