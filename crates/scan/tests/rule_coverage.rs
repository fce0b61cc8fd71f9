//! Every row of every vendor's emission table is either exercised by a
//! real resolution or named here with the reason it is not.
//!
//! The rows are data (`ede_resolver::profiles`), so "is this rule ever
//! used?" has an answer: resolve the 63 testbed subdomains through all
//! seven vendors (Table 4), one domain of every scan `Category`
//! through Cloudflare (the §4.2 codes only the wild scan reaches) and
//! the one zone built here ([`sig_bogus_world`]) through the four
//! vendors with a `SIG_BOGUS` row of their own, ask each profile which
//! row decided, and compare the rows that never did with
//! [`never_fired`]. A new row no resolution reaches, or a listed row
//! that starts firing, fails the test until the list says so.
//!
//! The cache codes (3, 19, 13) and Cloudflare's combination tail are
//! code beside the tables, not rows; `profiles::tests` and
//! `tests/end_to_end.rs` exercise those.

use ede_authority::{ZoneServer, ZoneStore};
use ede_netsim::{Network, NetworkBuilder, SimClock};
use ede_resolver::config::RootHint;
use ede_resolver::diagnosis::SigTarget;
use ede_resolver::{Diagnosis, Finding, Resolver, ResolverConfig, Vendor, VendorProfile};
use ede_scan::{Category, Population, PopulationConfig, ScanWorld};
use ede_testbed::Testbed;
use ede_wire::rdata::Soa;
use ede_wire::{DigestAlg, Name, Rcode, Rdata, Record, RrType};
use ede_zone::{signer, SignerConfig, Zone, ZoneKeys};
use std::collections::BTreeSet;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// The rows nothing reaches: `(vendor, a finding that alone lands on
/// the row, why no resolution does)`. Both transcribe the vendor's own
/// mapping rather than a testbed case (the tables in `profiles.rs` say
/// which), which is why they stay.
fn never_fired() -> Vec<(Vendor, Finding, &'static str)> {
    // Occurs only beside the DNSKEY-level finding that removed the key
    // (`DnskeySigBogus`, or `DsNoMatchingDnskey` in `no-dnskey-256-257`),
    // and an earlier row takes that one.
    let key_missing = Finding::RrsigKeyMissing {
        target: SigTarget::Answer,
    };
    vec![
        (Vendor::Unbound, key_missing.clone(), "shadowed"),
        (Vendor::Cloudflare, key_missing, "shadowed"),
    ]
}

/// The witness of `SIG_BOGUS → 6`: no testbed zone or scan category
/// corrupts an RRSIG over an answer while the DNSKEY RRset above it
/// still validates, so this builds the one zone that does — a signed
/// TLD under a signed root, the signature over its apex A RRset flipped
/// after signing. Not a 64th testbed name: Table 2 stays 63.
fn sig_bogus_world() -> (Arc<Network>, ResolverConfig, Name) {
    let skeleton = |apex: &Name, ns: &Name, addr: Ipv4Addr| {
        let mut zone = Zone::new(apex.clone());
        let soa = Soa {
            mname: ns.clone(),
            rname: Name::parse("hostmaster.sig-bogus").unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        };
        zone.add(Record::new(apex.clone(), 3600, Rdata::Soa(soa)));
        zone.add(Record::new(apex.clone(), 3600, Rdata::Ns(ns.clone())));
        zone.add_a(ns.clone(), addr);
        zone
    };
    let (root, root_ns) = (Name::root(), Name::parse("a.root-servers.net").unwrap());
    let (apex, apex_ns) = (
        Name::parse("sig-bogus").unwrap(),
        Name::parse("ns1.sig-bogus").unwrap(),
    );
    let (root_addr, apex_addr) = (
        Ipv4Addr::new(198, 41, 0, 4),
        Ipv4Addr::new(185, 199, 108, 53),
    );

    let mut child = skeleton(&apex, &apex_ns, apex_addr);
    child.add_a(apex.clone(), Ipv4Addr::new(203, 0, 113, 7));
    let child_keys = ZoneKeys::generate(&apex, 8, 2048);
    signer::sign_zone(&mut child, &child_keys, &SignerConfig::default());
    let answer = child.get_mut(&apex, RrType::A).expect("apex A");
    answer.sigs[0].signature[0] ^= 0xff;

    let mut root_zone = skeleton(&root, &root_ns, root_addr);
    root_zone.add(Record::new(apex.clone(), 3600, Rdata::Ns(apex_ns.clone())));
    root_zone.add_a(apex_ns, apex_addr);
    let ds = child_keys.ksk.ds_rdata(&apex, DigestAlg::SHA256);
    root_zone.add(Record::new(apex.clone(), 3600, ds));
    let root_keys = ZoneKeys::generate(&root, 8, 2048);
    signer::sign_zone(&mut root_zone, &root_keys, &SignerConfig::default());

    let mut net = NetworkBuilder::new();
    for (addr, zone) in [(root_addr, root_zone), (apex_addr, child)] {
        let mut store = ZoneStore::new();
        store.insert(zone);
        net.register(IpAddr::V4(addr), Arc::new(ZoneServer::new(store)));
    }
    let config = ResolverConfig::with_roots(
        vec![RootHint {
            name: root_ns,
            addr: IpAddr::V4(root_addr),
        }],
        vec![root_keys.ksk.ds_rdata(&root, DigestAlg::SHA256)],
    );
    (Arc::new(net.build(SimClock::new())), config, apex)
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

    let (net, config, apex) = sig_bogus_world();
    let bogus_answer = Finding::SignatureBogus {
        target: SigTarget::Answer,
    };
    for vendor in [
        Vendor::PowerDns,
        Vendor::Cloudflare,
        Vendor::Quad9,
        Vendor::OpenDns,
    ] {
        let profile = VendorProfile::new(vendor);
        let resolver = Resolver::new(Arc::clone(&net), profile.clone(), config.clone());
        let res = resolver.resolve(&apex, RrType::A);
        // The DNSKEY RRset validated; only the answer's signature is bad.
        assert_eq!(
            res.diagnosis.findings,
            std::slice::from_ref(&bogus_answer),
            "{vendor:?}"
        );
        assert_eq!((res.rcode, res.ede_codes()), (Rcode::ServFail, vec![6]));
        fired.insert((vendor, profile.winning_row(&res.diagnosis)));
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
