//! Run a scaled version of the paper's Internet-wide scan (Section 4)
//! and print the §4.2 inventory, the Figure 1 CDFs, and the Figure 2
//! Tranco distribution.
//!
//! Run with: `cargo run --release --example wild_scan -- [scale]`
//! (default scale 1:10000 ≈ 30k domains for a fast demo; the paper-shape
//! default for the repro binaries is 1:1000).

use extended_dns_errors::prelude::*;
use extended_dns_errors::scan::report;

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);

    let cfg = PopulationConfig {
        scale,
        ..Default::default()
    };
    eprintln!("generating population at scale 1:{scale}...");
    let pop = Population::generate(cfg);
    eprintln!(
        "{} domains; building the simulated internet...",
        pop.domains.len()
    );
    let world = ScanWorld::build(&pop);
    eprintln!("scanning with the Cloudflare profile...");
    let config = ScanConfig::builder().progress(true).build();
    let result = scan(&pop, &world, &config);

    println!("{}", report::scan_summary(&result.stats));
    println!("{}", report::figure1(&result.stats));
    println!("{}", report::figure2(&result.stats));
    // Each count from its home, as `repro-scan` prints them: the
    // transport's, the registry's, the cache tiers'.
    println!("{}\n", report::traffic_line(&result.stats));
    println!("{}", result.metrics.render());
    println!("{}", result.cache.render());
}
