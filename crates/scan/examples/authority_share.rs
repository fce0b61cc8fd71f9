//! How much of a scan's resolve loop the simulated authorities cost.
//!
//! Captures the upstream queries of the first N domains of a population
//! from a bare `Resolver::resolve` loop, times the same loop uncaptured,
//! then replays the queries in their original order on a fresh world (the hosting servers' burst memo and
//! flap counters depend on it), timing every `Network::query` from
//! outside and grouping by destination pool and qtype. A group's row is
//! calls per domain and ns per call; the bare loop's µs per domain is
//! the figure they are a share of. `Network::query` is the server's
//! handler plus the transport's counters and route look-up — there are
//! no timers inside product code.
//!
//! `cargo run --release -p ede-scan --example authority_share -- [SCALE [N]]`
//! (default 1:2500, every domain); `--smoke` is a tiny population.

use ede_resolver::{Resolver, Vendor, VendorProfile};
use ede_scan::population::tld_addr;
use ede_scan::world::ROOT_SERVER;
use ede_scan::{Population, PopulationConfig, ScanWorld};
use ede_wire::{Message, Name, RrType};
use std::collections::{BTreeMap, HashMap};
use std::net::IpAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replays per run; a group reports its calmest.
const REPLAYS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut numbers = args
        .iter()
        .filter(|a| *a != "--smoke")
        .map(|a| a.parse::<u32>());
    let (Ok(scale), Ok(limit)) = (
        numbers.next().unwrap_or(Ok(2500)),
        numbers.next().unwrap_or(Ok(u32::MAX)),
    ) else {
        eprintln!("usage: authority_share [--smoke] [SCALE [N]]");
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
    let domains = pop.domains.len().min(limit as usize);

    let mut pools: HashMap<IpAddr, &str> = HashMap::new();
    pools.insert(IpAddr::V4(ROOT_SERVER), "root");
    pools.extend(
        pop.tlds
            .iter()
            .map(|t| (IpAddr::V4(tld_addr(t.server_index)), "tld")),
    );
    pools.extend(pop.healthy_ns.iter().map(|a| (IpAddr::V4(*a), "healthy")));
    pools.extend(pop.broken_ns.iter().map(|a| (IpAddr::V4(*a), "broken")));

    // The bare loop, twice on a world of its own: once captured, once
    // timed (capturing renders every query name).
    let bare_loop = |capture: bool| {
        let world = ScanWorld::build(&pop);
        let resolver = Resolver::new(
            Arc::clone(&world.net),
            VendorProfile::new(Vendor::Cloudflare),
            world.resolver_config.clone(),
        );
        if capture {
            world.net.start_capture();
        }
        let started = Instant::now();
        for d in &pop.domains[..domains] {
            std::hint::black_box(resolver.resolve(&d.name, RrType::A));
        }
        let source = world.resolver_config.source_addr;
        (started.elapsed(), world.net.take_capture(), source)
    };
    let (_, captured, source) = bare_loop(true);
    let (bare, ..) = bare_loop(false);

    let queries: Vec<(IpAddr, Message, (&str, RrType))> = captured
        .iter()
        .map(|c| {
            let name = Name::parse(&c.qname).expect("a captured name parses");
            let qtype = RrType::from_u16(c.qtype);
            let pool = pools.get(&c.dst).copied().unwrap_or("other");
            (
                c.dst,
                Message::iterative_query(0, name, qtype),
                (pool, qtype),
            )
        })
        .collect();

    // (calls, calmest total) per group.
    let mut groups: BTreeMap<(&str, RrType), (u64, Duration)> = BTreeMap::new();
    for _ in 0..REPLAYS {
        let fresh = ScanWorld::build(&pop);
        let mut pass: BTreeMap<(&str, RrType), (u64, Duration)> = BTreeMap::new();
        for (dst, query, group) in &queries {
            let started = Instant::now();
            let _ = std::hint::black_box(fresh.net.query(*dst, source, query));
            let spent = started.elapsed();
            let tally = pass.entry(*group).or_default();
            tally.0 += 1;
            tally.1 += spent;
        }
        for (group, (calls, spent)) in pass {
            let kept = groups.entry(group).or_insert((calls, spent));
            kept.1 = kept.1.min(spent);
        }
    }

    let per_domain = |d: Duration| d.as_secs_f64() * 1e6 / domains as f64;
    println!(
        "{domains} domains, {} upstream queries ({:.3} per domain); bare resolve loop {:.2} us/domain",
        queries.len(),
        queries.len() as f64 / domains as f64,
        per_domain(bare)
    );
    println!("pool     qtype    calls/domain  ns/call  us/domain");
    let mut replayed = Duration::ZERO;
    for ((pool, qtype), (calls, spent)) in &groups {
        replayed += *spent;
        println!(
            "{pool:<8} {:<8} {:12.3} {:8.0} {:10.3}",
            qtype.to_string(),
            *calls as f64 / domains as f64,
            spent.as_nanos() as f64 / *calls as f64,
            per_domain(*spent)
        );
    }
    println!(
        "all authorities: {:.2} us/domain = {:.0} % of the bare loop (calmest of {REPLAYS} replays per group)",
        per_domain(replayed),
        100.0 * replayed.as_secs_f64() / bare.as_secs_f64()
    );
    if queries.is_empty() || groups.keys().any(|(pool, _)| *pool == "other") {
        eprintln!("authority_share: a query went to an address outside every pool");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
