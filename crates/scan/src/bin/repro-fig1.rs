//! Regenerate Figure 1: per-TLD misconfiguration-ratio CDFs for gTLDs
//! and ccTLDs.
//!
//! Usage: repro-fig1 \[scale\]   (scale at least 1; default 1000)
use ede_scan::{report, scanner, Population, PopulationConfig, ScanWorld};
use std::num::NonZeroU32;

fn main() {
    let mut scale = 1000u32;
    for arg in std::env::args().skip(1) {
        match arg.parse::<NonZeroU32>() {
            Ok(n) => scale = n.get(),
            // A mistyped scale or a flag must not silently measure the
            // default: say what was wrong, print the usage line, exit 2.
            Err(_) => {
                eprintln!("repro-fig1: bad argument {arg:?}\nusage: repro-fig1 [scale]");
                std::process::exit(2);
            }
        }
    }
    let cfg = PopulationConfig {
        scale,
        ..Default::default()
    };
    let pop = Population::generate(cfg);
    let world = ScanWorld::build(&pop);
    let result = scanner::scan(&pop, &world, &scanner::ScanConfig::default());
    print!("{}", report::figure1(&result.stats));
}
