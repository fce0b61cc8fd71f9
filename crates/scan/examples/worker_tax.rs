//! What a second scan worker costs: process CPU per domain of the same
//! scan at one worker and at two.
//!
//! Every round builds a fresh world for each scan and runs both, which
//! one goes first alternating from round to round. The CPU figure is
//! the process's user + system time from `/proc/self/stat` (every thread
//! of the process, in `USER_HZ` ticks of 10 ms), read around `scan`
//! only — generating the population and building worlds is outside it.
//! A ratio near 1 means the second worker costs what the first does; the
//! excess is what the two write that both read. Exits 1 if any scan's
//! fingerprint differs from the first one's.
//!
//! `cargo run --release -p ede-scan --example worker_tax -- [SCALE [ROUNDS]]`
//! (default 1:2500, 12 rounds); `--smoke` is a tiny population and two
//! rounds.

use ede_scan::{scan, Population, PopulationConfig, ScanConfig, ScanWorld};
use std::process::ExitCode;

/// Linux reports `/proc` times in `USER_HZ` ticks, which is 100 per
/// second on every architecture it supports.
const TICKS_PER_SEC: f64 = 100.0;

/// The process's user + system CPU so far, seconds.
fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces: count from the
    // parenthesis that closes it. utime and stime are fields 14 and 15.
    let after_name = &stat[stat.rfind(')').expect("a command name") + 1..];
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|field| field.parse::<u64>().expect("a tick count"))
        .sum();
    ticks as f64 / TICKS_PER_SEC
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut numbers = args
        .iter()
        .filter(|a| *a != "--smoke")
        .map(|a| a.parse::<u32>());
    let (Ok(scale), Ok(rounds)) = (
        numbers.next().unwrap_or(Ok(2500)),
        numbers.next().unwrap_or(Ok(if smoke { 2 } else { 12 })),
    ) else {
        eprintln!("usage: worker_tax [--smoke] [SCALE [ROUNDS]]");
        return ExitCode::from(2);
    };
    let pop = Population::generate(if smoke {
        PopulationConfig::tiny()
    } else {
        PopulationConfig {
            scale,
            ..Default::default()
        }
    });
    let domains = pop.domains.len() as f64;
    let rounds = rounds.max(1);

    // One scan on a world of its own: (µs of process CPU per domain,
    // fingerprint).
    let run = |workers: usize| {
        let world = ScanWorld::build(&pop);
        let config = ScanConfig::builder().workers(workers).build();
        let before = process_cpu_secs();
        let result = scan(&pop, &world, &config);
        let spent = process_cpu_secs() - before;
        (spent * 1e6 / domains, result.stats.fingerprint)
    };

    println!(
        "{} domains, {rounds} rounds, CPU us per domain",
        pop.domains.len()
    );
    println!("round  first  1 worker  2 workers  2/1");
    let (mut one, mut two, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut fingerprints = Vec::new();
    for round in 0..rounds {
        let first = if round % 2 == 0 { 1 } else { 2 };
        let (a, b) = (run(first), run(3 - first));
        let ((single, fp1), (double, fp2)) = if first == 1 { (a, b) } else { (b, a) };
        println!(
            "{:5}  {first:5}  {single:8.2}  {double:9.2}  {:.3}",
            round + 1,
            double / single
        );
        one.push(single);
        two.push(double);
        ratios.push(double / single);
        fingerprints.extend([fp1, fp2]);
    }
    println!(
        "median  1 worker {:.2}, 2 workers {:.2} us per domain; 2/1 {:.3} (median of the rounds' ratios {:.3})",
        median(&one),
        median(&two),
        median(&two) / median(&one),
        median(&ratios)
    );
    println!("fingerprint {:016x}", fingerprints[0]);
    if fingerprints.iter().any(|fp| *fp != fingerprints[0]) {
        eprintln!("worker_tax: the scans' fingerprints differ: {fingerprints:016x?}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
