//! Pins *diagnosis* — what the validator and the walk conclude, before
//! any vendor turns it into EDE codes — over every resolution the repo
//! reproduces.
//!
//! `emission_pin.rs` holds the emission half (a diagnosis in, entries
//! out) to one hash; this is the other half, built like
//! `rule_coverage.rs`: the 63 testbed subdomains through all seven
//! vendors with a flush between probes (Table 4), and up to three
//! domains of every scan `Category` through Cloudflare, the revisit
//! categories probed twice across the flap window. A trace ring is
//! attached throughout, and for every resolution, in order, the rcode,
//! the validation state, `zone_signed`, the AD bit, every finding, every
//! nameserver event, every EDE entry and every `ValidationStep` the ring
//! saw are folded into one FNV-1a hash.
//!
//! The golden was recorded at 74fab42, on the validation ladders as
//! they stood before the chain of trust became links; it moves only if
//! some resolution's findings, their order, its verdict, its trace or
//! its EDE output changes.

use ede_resolver::{Resolution, Resolver, Vendor, VendorProfile};
use ede_scan::{Category, Population, PopulationConfig, ScanWorld};
use ede_testbed::Testbed;
use ede_trace::{ResolutionTrace, TraceEvent};
use ede_wire::RrType;
use std::sync::Arc;

const GOLDEN: u64 = 0x4340_5050_f8e3_86de;
const RESOLUTIONS: usize = 499;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

struct Fold {
    hash: u64,
    resolutions: usize,
    trace: Arc<ResolutionTrace>,
}

impl Fold {
    /// Fold one resolution and the validation steps the ring saw during
    /// it, then empty the ring for the next.
    fn resolution(&mut self, res: &Resolution) {
        let h = &mut self.hash;
        fnv1a(h, &res.rcode.to_u16().to_be_bytes());
        fnv1a(h, format!("{:?}", res.validation).as_bytes());
        fnv1a(
            h,
            &[
                u8::from(res.diagnosis.zone_signed),
                u8::from(res.authentic_data),
            ],
        );
        for finding in &res.diagnosis.findings {
            fnv1a(h, format!("{finding:?}").as_bytes());
            fnv1a(h, &[0]);
        }
        for event in &res.diagnosis.ns_events {
            fnv1a(h, format!("{event:?}").as_bytes());
            fnv1a(h, &[1]);
        }
        for entry in &res.ede {
            fnv1a(h, &entry.code.to_u16().to_be_bytes());
            fnv1a(h, entry.extra_text.as_bytes());
            fnv1a(h, &[2]);
        }
        assert_eq!(self.trace.dropped(), 0, "ring too small for one resolution");
        for timed in self.trace.events() {
            if let TraceEvent::ValidationStep { target, ok } = &timed.event {
                fnv1a(h, target.as_bytes());
                fnv1a(h, &[u8::from(*ok), 3]);
            }
        }
        fnv1a(h, &[0xff]);
        self.trace.clear();
        self.resolutions += 1;
    }
}

#[test]
fn diagnosis_of_every_reproduced_resolution_is_pinned() {
    let trace = Arc::new(ResolutionTrace::new(8192));
    let mut fold = Fold {
        hash: 0xcbf2_9ce4_8422_2325,
        resolutions: 0,
        trace: Arc::clone(&trace),
    };

    let tb = Testbed::build();
    tb.attach_trace_sink(Arc::clone(&trace) as _);
    for vendor in Vendor::ALL {
        let resolver = tb.resolver(vendor);
        for spec in &tb.specs {
            // Independent probes, as in Table 4: no warm shared cache.
            resolver.flush();
            fold.resolution(&resolver.resolve(&tb.query_name(spec), RrType::A));
        }
    }

    let pop = Population::generate(PopulationConfig::tiny());
    let world = ScanWorld::build(&pop);
    world.net.set_trace_sink(Arc::clone(&trace) as _);
    let resolver = Resolver::new(
        Arc::clone(&world.net),
        VendorProfile::new(Vendor::Cloudflare),
        world.resolver_config.clone(),
    );
    for category in Category::ALL {
        let sample: Vec<_> = pop
            .domains
            .iter()
            .filter(|d| d.category == category)
            .take(3)
            .collect();
        assert!(!sample.is_empty(), "tiny population lacks {category:?}");
        for domain in &sample {
            fold.resolution(&resolver.resolve(&domain.name, RrType::A));
        }
        if category.needs_revisit() {
            // The scan's second pass: the same names after the flap
            // window, through the same warm cache.
            world.net.clock().advance_secs(120);
            for domain in &sample {
                fold.resolution(&resolver.resolve(&domain.name, RrType::A));
            }
        }
    }

    assert_eq!(
        (fold.resolutions, format!("{:016x}", fold.hash)),
        (RESOLUTIONS, format!("{GOLDEN:016x}")),
        "diagnosis pin moved"
    );
}
