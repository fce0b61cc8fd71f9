//! A scan record depends on its domain alone. Each sampled record of a
//! tiny-population scan must equal the record of the same name resolved
//! alone, by a fresh resolver on a fresh world: its RCODE, its EDE codes
//! and the EXTRA-TEXT the record keeps. A revisited domain's pass-2
//! record must equal that resolver's second resolution of the name,
//! asked after the scan's 120 s gap between passes. A cache or sharing
//! change that couples domains fails here by name, instead of moving a
//! fingerprint by a few counts.

use ede_resolver::{Resolver, Vendor, VendorProfile};
use ede_scan::{scan, Category, Population, PopulationConfig, QueryRecord, ScanConfig, ScanWorld};
use ede_wire::RrType;
use std::sync::Arc;

/// How many domains of each category to re-resolve.
const PER_CATEGORY: usize = 3;

/// The scan's gap between its two passes, seconds.
const PASS_GAP_SECS: u64 = 120;

/// What a record says about its resolution.
fn outcome(r: &QueryRecord) -> (ede_wire::Rcode, &[u16], Option<&str>) {
    (r.rcode, &r.codes, r.network_error_text.as_deref())
}

#[test]
fn every_category_scans_as_its_domains_resolve_alone() {
    let pop = Population::generate(PopulationConfig::tiny());
    let world = ScanWorld::build(&pop);
    let result = scan(&pop, &world, &ScanConfig::builder().workers(2).build());
    assert_eq!(
        result.log.dropped + result.log.spilled,
        0,
        "the ring holds every record"
    );

    for category in Category::ALL {
        let sample: Vec<usize> = (0..pop.domains.len())
            .filter(|&i| pop.domains[i].category == category)
            .take(PER_CATEGORY)
            .collect();
        assert!(!sample.is_empty(), "tiny population lacks {category:?}");
        for i in sample {
            let domain = &pop.domains[i];
            let scanned = |pass: u8| {
                result
                    .records
                    .iter()
                    .find(|r| r.domain == i && r.pass == pass)
                    .unwrap_or_else(|| panic!("{}: no pass-{pass} record", domain.name))
            };
            let alone_world = ScanWorld::build(&pop);
            let resolver = Resolver::new(
                Arc::clone(&alone_world.net),
                VendorProfile::new(Vendor::Cloudflare),
                alone_world.resolver_config.clone(),
            );
            let mut passes = vec![1];
            if category.needs_revisit() {
                passes.push(2);
            }
            for pass in passes {
                if pass == 2 {
                    alone_world.net.clock().advance_secs(PASS_GAP_SECS);
                }
                let res = resolver.resolve(&domain.name, RrType::A);
                let alone =
                    QueryRecord::of_resolution(i, domain, &res, Vendor::Cloudflare, pass, 0);
                let record = scanned(pass);
                assert_eq!(record.vendor, Vendor::Cloudflare);
                assert_eq!(
                    outcome(record),
                    outcome(&alone),
                    "{} ({category:?}), pass {pass}",
                    domain.name
                );
            }
        }
    }
}
