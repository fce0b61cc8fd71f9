//! What one resolution of each category costs: the µs a cold resolve of
//! a domain takes on a warmed world, per category, and the ratio of a
//! signed healthy domain's to an unsigned one's.
//!
//! Every round builds a fresh resolver over one world (built once), warms
//! it as a scan does — one (TLD, NS) resolution per TLD, so each TLD's
//! referral and keys are cached — and then resolves every domain once, in
//! population order, timing each `Resolver::resolve` call. The scan world
//! charges no latency, so a resolve is CPU on this thread from end to
//! end: its wall time is its CPU time on an idle machine. A category's
//! figure is the median over rounds of its mean µs per resolve, printed
//! beside the min–max over rounds; the ratio is taken from the medians.
//!
//! Two more rows, `first touch`, are what the warming hides: each round
//! also builds a resolver it does not warm and resolves one domain per
//! TLD (the TLD's first in population order), so each resolve is that
//! TLD's first — the root's referral, the TLD's keys and the domain.
//! A scan pays this once per TLD. The rows split these resolves by the
//! category of that first domain, signed or not: a signed first touch
//! also fetches and checks the domain's own keys, and it is what sets
//! the tail, so the `first touch, signed` row is the per-layer reading
//! of the benchmark's `scan_wild` `latency_p99_us`.
//!
//! The last block shows what sets that tail instead of assuming it. Each
//! round builds a fresh world and a fresh resolver and resolves the
//! population's first 5 000 domains one at a time, in order, as the
//! benchmark's `scan_wild` latency sample does; it prints the p99
//! (nearest rank; median over rounds, then the min–max) and the share of
//! the slowest 1 % of resolves each (category, first touch of its TLD or
//! not) makes up, over all rounds.
//!
//! `cargo run --release -p ede-scan --example category_cost -- [SCALE [ROUNDS]]`
//! (default 1:2500, 5 rounds); `--smoke` is a tiny population and one
//! round.

use ede_resolver::{Resolver, Vendor, VendorProfile};
use ede_scan::{Category, Population, PopulationConfig, ScanWorld};
use ede_wire::RrType;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

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
        numbers.next().unwrap_or(Ok(if smoke { 1 } else { 5 })),
    ) else {
        eprintln!("usage: category_cost [--smoke] [SCALE [ROUNDS]]");
        return ExitCode::from(2);
    };
    if numbers.next().is_some() || scale == 0 {
        eprintln!("usage: category_cost [--smoke] [SCALE [ROUNDS]]");
        return ExitCode::from(2);
    }
    let pop = Population::generate(if smoke {
        PopulationConfig::tiny()
    } else {
        PopulationConfig {
            scale,
            ..Default::default()
        }
    });
    let world = ScanWorld::build(&pop);
    let rounds = rounds.max(1) as usize;
    let resolver_over = |world: &ScanWorld| {
        Resolver::new(
            Arc::clone(&world.net),
            VendorProfile::new(Vendor::Cloudflare),
            world.resolver_config.clone(),
        )
    };
    let fresh_resolver = || resolver_over(&world);
    // Each TLD's first domain in population order.
    let mut touched = vec![false; pop.tlds.len()];
    let firsts: Vec<_> = pop
        .domains
        .iter()
        .filter(|d| !std::mem::replace(&mut touched[usize::from(d.tld)], true))
        .collect();

    // By category (its index in `Category::ALL`): each round's mean µs;
    // and each round's mean µs per first touch, unsigned and signed.
    let mut means: Vec<Vec<f64>> = vec![Vec::new(); Category::ALL.len()];
    let mut first_touch = [Vec::new(), Vec::new()];
    for _ in 0..rounds {
        let cold = fresh_resolver();
        let mut spent = [(0u128, 0u32); 2];
        for domain in &firsts {
            let start = Instant::now();
            cold.resolve(&domain.name, RrType::A);
            let slot = &mut spent[usize::from(domain.category.signed())];
            slot.0 += start.elapsed().as_nanos();
            slot.1 += 1;
        }
        for (mean, (ns, count)) in first_touch.iter_mut().zip(spent) {
            if count > 0 {
                mean.push(ns as f64 / 1e3 / f64::from(count));
            }
        }

        let resolver = fresh_resolver();
        for tld in &pop.tlds {
            resolver.resolve(&tld.name, RrType::Ns);
        }
        let mut spent = vec![(0u128, 0u32); Category::ALL.len()];
        for domain in pop.domains.iter() {
            let start = Instant::now();
            resolver.resolve(&domain.name, RrType::A);
            let ns = start.elapsed().as_nanos();
            let at = Category::ALL.iter().position(|c| *c == domain.category);
            let slot = &mut spent[at.expect("a category of ALL")];
            slot.0 += ns;
            slot.1 += 1;
        }
        for (mean, (ns, count)) in means.iter_mut().zip(spent) {
            if count > 0 {
                mean.push(ns as f64 / 1e3 / f64::from(count));
            }
        }
    }

    println!(
        "{} domains at 1:{}, {rounds} round(s): µs per cold resolve on a warmed world",
        pop.domains.len(),
        pop.config.scale
    );
    println!(
        "{:<28} {:>8} {:>10} {:>15}",
        "category", "domains", "µs/resolve", "min–max"
    );
    let row = |name: &str, domains: usize, us: &[f64]| {
        let (min, max) = us
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let spread = format!("{min:.2}–{max:.2}");
        println!("{name:<28} {domains:>8} {:>10.2} {spread:>15}", median(us));
    };
    let cost = |category: Category| {
        let at = Category::ALL.iter().position(|c| *c == category)?;
        (!means[at].is_empty()).then(|| median(&means[at]))
    };
    for (category, us) in Category::ALL.into_iter().zip(&means) {
        if us.is_empty() {
            continue;
        }
        let domains = pop
            .domains
            .iter()
            .filter(|d| d.category == category)
            .count();
        row(category.name(), domains, us);
    }
    for (signed, us) in [false, true].into_iter().zip(&first_touch) {
        if !us.is_empty() {
            let domains = firsts
                .iter()
                .filter(|d| d.category.signed() == signed)
                .count();
            let name = if signed { "signed" } else { "unsigned" };
            row(&format!("first touch, {name}"), domains, us);
        }
    }

    // The tail of `scan_wild`'s latency sample: per round, a fresh world
    // and resolver, the first domains one at a time; each resolve's ns,
    // its domain's category, and whether it is its TLD's first.
    let sample = pop.domains.len().min(5_000);
    let slowest = sample.div_ceil(100);
    let mut p99s = Vec::with_capacity(rounds);
    let mut tail: BTreeMap<(usize, bool), usize> = BTreeMap::new();
    for _ in 0..rounds {
        let world = ScanWorld::build(&pop);
        let resolver = resolver_over(&world);
        let mut touched = vec![false; pop.tlds.len()];
        let mut timed: Vec<(u128, usize, bool)> = pop.domains[..sample]
            .iter()
            .map(|d| {
                let first = !std::mem::replace(&mut touched[usize::from(d.tld)], true);
                let at = Category::ALL.iter().position(|c| *c == d.category);
                let start = Instant::now();
                resolver.resolve(&d.name, RrType::A);
                (
                    start.elapsed().as_nanos(),
                    at.expect("a category of ALL"),
                    first,
                )
            })
            .collect();
        timed.sort_unstable();
        let rank = (0.99 * sample as f64).ceil() as usize;
        p99s.push(timed[rank.clamp(1, sample) - 1].0 as f64 / 1e3);
        for &(_, at, first) in &timed[sample - slowest..] {
            *tail.entry((at, first)).or_default() += 1;
        }
    }
    let (min, max) = p99s
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    println!(
        "tail: the first {sample} domains one by one on a fresh world and resolver, \
         {rounds} round(s): p99 {:.2} µs/resolve (min–max {min:.2}–{max:.2}); \
         the slowest 1 % ({slowest} per round) by category and touch:",
        median(&p99s)
    );
    let mut rows: Vec<_> = tail.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for ((at, first), count) in rows {
        let touch = if first { "first touch" } else { "warm TLD" };
        let share = 100.0 * count as f64 / (slowest * rounds) as f64;
        println!(
            "{:<28} {touch:<12} {share:>5.1} %",
            Category::ALL[at].name()
        );
    }

    match (
        cost(Category::HealthySigned),
        cost(Category::HealthyUnsigned),
    ) {
        (Some(signed), Some(unsigned)) => {
            println!("signed/unsigned {:.2}", signed / unsigned);
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("category_cost: the population lacks a healthy signed or unsigned domain");
            ExitCode::FAILURE
        }
    }
}
