//! Regenerate Figure 2: the distribution of EDE-triggering domains
//! across the Tranco ranking.
//!
//! Usage: repro-fig2 \[scale\]   (scale at least 1; default 1000)
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
                eprintln!("repro-fig2: bad argument {arg:?}\nusage: repro-fig2 [scale]");
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
    print!("{}", report::figure2(&result.stats));
}
