//! What a scan costs per domain, stage by stage: the wall time of each
//! stage — generating the population, building the world, a two-worker
//! scan — beside the process's resident set after it, as `VmRSS` (now)
//! and `VmHWM` (the peak so far) from `/proc/self/status`, and the peak
//! over the domain count. The last stage's peak per domain is the figure
//! `scripts/peak-rss.py` reads for `repro-scan` (`ru_maxrss`, the same
//! high-water mark), taken here without the report.
//!
//! `cargo run --release -p ede-scan --example bytes_per_domain -- [SCALE]`
//! (default 1:1000); `--smoke` is the tiny population.

use ede_scan::{scan, Population, PopulationConfig, ScanConfig, ScanWorld};
use std::process::ExitCode;
use std::time::Instant;

/// `VmRSS` and `VmHWM` of this process, bytes.
fn resident() -> (u64, u64) {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    // Lines read "VmHWM:\t   12345 kB".
    let field = |key: &str| -> u64 {
        let line = status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .unwrap_or_else(|| panic!("/proc/self/status has no {key}"));
        let kib = line.trim().trim_end_matches("kB").trim();
        kib.parse::<u64>().expect("a size in kB") * 1024
    };
    (field("VmRSS:"), field("VmHWM:"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut numbers = args.iter().filter(|a| *a != "--smoke");
    let scale = match numbers.next().map(|a| a.parse::<u32>()) {
        None => 1000,
        Some(Ok(scale)) if scale > 0 && numbers.next().is_none() => scale,
        Some(_) => {
            eprintln!("usage: bytes_per_domain [--smoke] [SCALE]");
            return ExitCode::from(2);
        }
    };
    let config = if smoke {
        PopulationConfig::tiny()
    } else {
        PopulationConfig {
            scale,
            ..Default::default()
        }
    };

    const MIB: f64 = 1024.0 * 1024.0;
    let (start, _) = resident();
    let started = Instant::now();
    let pop = Population::generate(config);
    let generated = started.elapsed();
    let domains = pop.domains.len();
    println!(
        "{domains} domains at 1:{}, 2 workers; at start VmRSS {:.1} MiB",
        pop.config.scale,
        start as f64 / MIB
    );
    println!("stage        wall ms  VmRSS MiB  VmHWM MiB  VmHWM B/domain");
    let report = |stage: &str, wall: std::time::Duration| {
        let (rss, hwm) = resident();
        println!(
            "{stage:<11}  {:7.1}  {:9.1}  {:9.1}  {:14.1}",
            wall.as_secs_f64() * 1e3,
            rss as f64 / MIB,
            hwm as f64 / MIB,
            hwm as f64 / domains as f64
        );
    };
    report("population", generated);
    let started = Instant::now();
    let world = ScanWorld::build(&pop);
    report("world", started.elapsed());
    let started = Instant::now();
    let result = scan(&pop, &world, &ScanConfig::builder().workers(2).build());
    report("scan", started.elapsed());
    println!("fingerprint {:016x}", result.stats.fingerprint);
    ExitCode::SUCCESS
}
