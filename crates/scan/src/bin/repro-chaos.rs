//! Sweep fault-plan intensity over the scan world and report how the
//! EDE-code inventory shifts — the robustness companion to repro-scan.
//!
//! Usage: repro-chaos \[scale\] \[--seed N\] \[--smoke\]
//!
//! * `scale` — population scale divisor, at least 1 (default 10000,
//!   ≈30k domains; repro-scan's paper-shape default is 1000).
//! * `--seed N` — fault-plan seed, decimal or `0x` hex (default
//!   0x0EDEFA17). Legs are bit-stable per seed.
//! * `--smoke` — tiny population and a short sweep, for CI.
//!
//! Before sweeping, the run proves the hardening left the paper's
//! headline result untouched: the 63 × 7 testbed matrix, the seven
//! vendors of a row in flight at once, must equal Table 4 cell by cell.
//! (The intensity-0 leg is a plain repro-scan by
//! construction.) After the sweep, every degraded leg must resolve at
//! least 99.5 % of what the intensity-0 leg resolves; otherwise the exit
//! status is 1.

use ede_scan::chaos::{campaign, table4_deviation, ChaosConfig};
use ede_scan::{Population, PopulationConfig};
use std::num::NonZeroU32;

const USAGE: &str = "usage: repro-chaos [scale] [--seed N] [--smoke]";

/// A mistyped flag or value must not silently sweep the default
/// configuration: say what was wrong, print the usage line, exit 2.
fn usage_exit(problem: &str) -> ! {
    eprintln!("repro-chaos: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn parsed<T>(what: &str, value: Option<String>, parse: impl Fn(&str) -> Option<T>) -> T {
    value
        .as_deref()
        .and_then(parse)
        .unwrap_or_else(|| usage_exit(&format!("bad or missing value {value:?} for {what}")))
}

/// A seed as the run prints it (`0xedefa17`) or in decimal.
fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn main() {
    let mut smoke = false;
    let mut seed: u64 = 0x0EDE_FA17;
    let mut scale: u32 = 10_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => seed = parsed("--seed", args.next(), parse_seed),
            positional if !positional.starts_with('-') => {
                scale = parsed("scale", Some(arg), |v| v.parse().ok().map(NonZeroU32::get))
            }
            _ => usage_exit(&format!("unknown argument {arg:?}")),
        }
    }

    let pop = if smoke {
        Population::generate(PopulationConfig::tiny())
    } else {
        let cfg = PopulationConfig {
            scale,
            ..Default::default()
        };
        eprintln!("generating population at scale 1:{scale}...");
        Population::generate(cfg)
    };
    eprintln!("{} domains", pop.domains.len());

    let config = ChaosConfig::default()
        .with_seed(seed)
        .with_intensities(if smoke {
            vec![0.0, 0.05]
        } else {
            vec![0.0, 0.01, 0.02, 0.05, 0.10]
        });

    eprintln!("checking the Table 4 matrix at intensity 0...");
    let deviations = table4_deviation();
    if !deviations.is_empty() {
        for d in &deviations {
            eprintln!("  table4 deviation: {d}");
        }
        eprintln!("FAIL: {} Table 4 cells deviate", deviations.len());
        std::process::exit(1);
    }
    eprintln!("  ok: 63 x 7 cells bit-identical");

    eprintln!("sweeping fault intensity (seed {seed:#x})...");
    let report = campaign(&pop, &config);
    print!("{}", report.render());
    let under = report.under_resolved();
    for line in &under {
        eprintln!("FAIL: {line}");
    }
    if !under.is_empty() {
        std::process::exit(1);
    }
}
