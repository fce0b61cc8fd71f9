//! A dig-style troubleshooting CLI over the simulated testbed.
//!
//! Run with:
//!
//! ```text
//! cargo run --example troubleshoot -- <subdomain> [vendor] [--trace | --trace-json]
//! cargo run --example troubleshoot -- allow-query-none cloudflare
//! cargo run --example troubleshoot -- rrsig-exp-all cloudflare --trace
//! cargo run --example troubleshoot -- --list
//! cargo run --example troubleshoot -- --log scan.jsonl --query code=23,tld=com
//! ```
//!
//! `--trace` appends a dig+trace-style timeline of the resolution —
//! every query, referral, validation step, and EDE decision stamped
//! with the simulated clock. `--trace-json` prints the same events as
//! JSON lines for machine consumption (see `docs/OBSERVABILITY.md`).
//!
//! `--log FILE` switches to query mode: load a query-log JSONL trace
//! (a `repro-scan --log-spill=...` file) and summarize the records the
//! `--query` filter expression matches — the historical-trace side of
//! the `ede_scan::query` API.

use extended_dns_errors::prelude::*;
use extended_dns_errors::scan::query::load_jsonl;
use extended_dns_errors::trace::ResolutionTrace;
use std::path::Path;
use std::sync::Arc;

/// The `--log FILE [--query EXPR]` mode: filter a historical query-log
/// trace and print the summary plus the first matching records.
fn query_log_mode(path: &str, expr: Option<&str>) {
    let filter = match expr
        .map(QueryFilter::parse)
        .unwrap_or(Ok(QueryFilter::new()))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bad --query: {e}");
            std::process::exit(2);
        }
    };
    let records = match load_jsonl(Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot load {path}: {e}");
            std::process::exit(1);
        }
    };
    println!("loaded {} records from {path}", records.len());
    print!("{}", filter.summarize(&records).render());
    let matches = filter.filter(&records);
    for r in matches.iter().take(10) {
        println!(
            "  pass {} @{}ms {} [{}] rcode {:?} codes {:?}",
            r.pass,
            r.vtime_ms,
            r.name,
            r.category.name(),
            r.rcode,
            r.codes,
        );
    }
    if matches.len() > 10 {
        println!("  ... and {} more", matches.len() - 10);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_timeline = args.iter().any(|a| a == "--trace");
    let trace_json = args.iter().any(|a| a == "--trace-json");
    args.retain(|a| a != "--trace" && a != "--trace-json");

    if let Some(i) = args.iter().position(|a| a == "--log") {
        let Some(path) = args.get(i + 1).cloned() else {
            eprintln!("--log needs a file path");
            std::process::exit(2);
        };
        let expr = args
            .iter()
            .position(|a| a == "--query")
            .and_then(|j| args.get(j + 1).cloned());
        query_log_mode(&path, expr.as_deref());
        return;
    }

    let tb = Testbed::build();

    if args.first().map(String::as_str) == Some("--list") || args.is_empty() {
        println!("Available testbed subdomains (see the paper's Table 2):\n");
        for spec in &tb.specs {
            println!("  [group {}] {}", spec.group, spec.label);
        }
        println!("\nUsage: troubleshoot <subdomain> [vendor] [--trace | --trace-json]");
        return;
    }

    let label = &args[0];
    let vendor = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(Vendor::Cloudflare);

    let Some(spec) = tb.spec(label) else {
        eprintln!("unknown subdomain {label:?}; try --list");
        std::process::exit(1);
    };

    // Attach a bounded event ring before resolving, so the whole
    // resolution (transport, iteration, validation, EDE synthesis,
    // authority answers) lands in one trace.
    let trace = Arc::new(ResolutionTrace::new(4096));
    if trace_timeline || trace_json {
        tb.attach_trace_sink(Arc::clone(&trace) as _);
    }

    let qname = tb.query_name(spec);
    let resolver = tb.resolver(vendor);
    let res = resolver.resolve(&qname, RrType::A);

    if trace_json {
        print!("{}", trace.to_jsonl());
        return;
    }

    println!("; <<>> extended-dns-errors troubleshoot <<>> {qname} A");
    println!("; vendor profile: {}\n", vendor.name());

    // The wire response, rendered the way dig would show it.
    let query = Message::query(0x1d1d, qname, RrType::A);
    let reply = res.to_message(&query);
    print!("{}", extended_dns_errors::wire::text::render_dig(&reply));

    // The resolver's own structured diagnosis, explained for operators.
    println!("\n;; DIAGNOSIS:");
    print!(
        "{}",
        extended_dns_errors::resolver::explain::explain(&res.diagnosis)
    );

    if trace_timeline {
        println!("\n;; TRACE ({} events):", trace.len());
        print!("{}", trace.render_timeline());

        // Per-tier cache counters for this resolution (the resolver was
        // freshly built, so the counters cover exactly this walk).
        let l2 = resolver.cache_stats();
        let infra = resolver.infra_stats();
        println!("\n;; CACHE TIERS:");
        println!(
            ";;   L2 shared : {} hits / {} probes ({:.1}%), {} stale, {} puts, {} live",
            l2.hits,
            l2.hits + l2.misses,
            100.0 * l2.hit_ratio(),
            l2.stale_served,
            l2.puts,
            l2.occupancy,
        );
        println!(
            ";;   infra     : {} key replays, {} referral replays / {} probes ({:.1}%)",
            infra.key_hits,
            infra.referral_hits,
            infra.referral_hits + infra.referral_misses,
            100.0 * infra.referral_hit_ratio(),
        );
    }
}
