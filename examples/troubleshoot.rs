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
//!
//! An argument it does not understand — an unknown vendor or flag, a
//! third positional, `--query` without `--log`, a flag without its
//! value — prints the usage line and exits 2, rather than measuring
//! something other than what was asked.

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
            "  pass {} {} [{}] rcode {:?} codes {:?}",
            r.pass,
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

const USAGE: &str = "usage: troubleshoot <subdomain> [vendor] [--trace | --trace-json] \
                     | --list | --log FILE [--query EXPR]";

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Command {
    /// `--list`, or no arguments: print the testbed's subdomains.
    List,
    /// Resolve one testbed subdomain through one vendor profile.
    Resolve {
        label: String,
        vendor: Vendor,
        trace: Trace,
    },
    /// `--log FILE [--query EXPR]`: filter a query-log trace.
    Log { path: String, query: Option<String> },
}

/// Which trace, if any, follows the answer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trace {
    Off,
    /// `--trace`: the timeline after the dig-style answer.
    Timeline,
    /// `--trace-json`: the events as JSON lines, instead of the answer.
    Json,
}

/// Read the arguments (program name excluded), or say what is wrong
/// with them.
fn parse(args: &[String]) -> Result<Command, String> {
    let (mut list, mut trace, mut log, mut query) = (false, Trace::Off, None, None);
    let mut positional = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || match args.next() {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{arg} needs a value")),
        };
        match arg.as_str() {
            "--list" => list = true,
            "--trace" | "--trace-json" if trace != Trace::Off => {
                return Err("--trace and --trace-json exclude each other".into())
            }
            "--trace" => trace = Trace::Timeline,
            "--trace-json" => trace = Trace::Json,
            "--log" => log = Some(value()?),
            "--query" => query = Some(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            _ => positional.push(arg.clone()),
        }
    }
    if let Some(path) = log {
        if list || trace != Trace::Off || !positional.is_empty() {
            return Err("--log takes only --query".into());
        }
        return Ok(Command::Log { path, query });
    }
    if query.is_some() {
        return Err("--query needs --log FILE".into());
    }
    if list && (trace != Trace::Off || !positional.is_empty()) {
        return Err("--list takes no other argument".into());
    }
    match positional.as_slice() {
        [] if trace == Trace::Off => Ok(Command::List),
        [] => Err("no subdomain given".into()),
        [label] => Ok(Command::Resolve {
            label: label.clone(),
            vendor: Vendor::Cloudflare,
            trace,
        }),
        [label, vendor] => Ok(Command::Resolve {
            label: label.clone(),
            vendor: vendor.parse()?,
            trace,
        }),
        [_, _, extra, ..] => Err(format!("unexpected argument {extra:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = parse(&args).unwrap_or_else(|problem| {
        eprintln!("troubleshoot: {problem}\n{USAGE}");
        std::process::exit(2);
    });
    let (label, vendor, trace) = match command {
        Command::Log { path, query } => return query_log_mode(&path, query.as_deref()),
        Command::Resolve {
            label,
            vendor,
            trace,
        } => (label, vendor, trace),
        Command::List => {
            println!("Available testbed subdomains (see the paper's Table 2):\n");
            for spec in &Testbed::build().specs {
                println!("  [group {}] {}", spec.group, spec.label);
            }
            println!("\n{USAGE}");
            return;
        }
    };

    let tb = Testbed::build();
    let Some(spec) = tb.spec(&label) else {
        eprintln!("unknown subdomain {label:?}; try --list");
        std::process::exit(1);
    };

    // Attach a bounded event ring before resolving, so the whole
    // resolution (transport, iteration, validation, EDE synthesis,
    // authority answers) lands in one trace.
    let events = Arc::new(ResolutionTrace::new(4096));
    if trace != Trace::Off {
        tb.attach_trace_sink(Arc::clone(&events) as _);
    }

    let qname = tb.query_name(spec);
    let resolver = tb.resolver(vendor);
    let res = resolver.resolve(&qname, RrType::A);

    if trace == Trace::Json {
        print!("{}", events.to_jsonl());
        return;
    }

    println!("; <<>> extended-dns-errors troubleshoot <<>> {qname} A");
    println!("; vendor profile: {}\n", vendor.name());

    // The wire response, rendered the way dig would show it.
    let query = Message::query(0x1d1d, qname, RrType::A);
    let reply = res.to_message(&query);
    print!("{}", extended_dns_errors::zone::textual::render_dig(&reply));

    // The resolver's own structured diagnosis, explained for operators.
    println!("\n;; DIAGNOSIS:");
    print!(
        "{}",
        extended_dns_errors::resolver::explain::explain(&res.diagnosis)
    );

    if trace == Trace::Timeline {
        println!("\n;; TRACE ({} events):", events.len());
        print!("{}", events.render_timeline());

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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn resolve(label: &str, vendor: Vendor, trace: Trace) -> Command {
        let label = label.into();
        Command::Resolve {
            label,
            vendor,
            trace,
        }
    }

    #[test]
    fn documented_invocations_parse() {
        assert_eq!(parse_str(""), Ok(Command::List));
        assert_eq!(parse_str("--list"), Ok(Command::List));
        assert_eq!(
            parse_str("allow-query-none"),
            Ok(resolve("allow-query-none", Vendor::Cloudflare, Trace::Off))
        );
        assert_eq!(
            parse_str("rrsig-exp-all cloudflare --trace"),
            Ok(resolve(
                "rrsig-exp-all",
                Vendor::Cloudflare,
                Trace::Timeline
            ))
        );
        assert_eq!(
            parse_str("--trace-json valid bind9"),
            Ok(resolve("valid", Vendor::Bind9, Trace::Json))
        );
        assert_eq!(
            parse_str("--log scan.jsonl --query code=23,tld=com"),
            Ok(Command::Log {
                path: "scan.jsonl".into(),
                query: Some("code=23,tld=com".into()),
            })
        );
        assert_eq!(
            parse_str("--log scan.jsonl"),
            Ok(Command::Log {
                path: "scan.jsonl".into(),
                query: None,
            })
        );
    }

    #[test]
    fn an_unknown_vendor_is_refused_with_the_known_ones() {
        let problem = parse_str("valid nosuchvendor").unwrap_err();
        assert!(problem.contains("nosuchvendor"), "{problem}");
        assert!(
            problem.contains("cloudflare") && problem.contains("bind9"),
            "{problem}"
        );
    }

    #[test]
    fn what_would_be_ignored_is_refused() {
        for line in [
            "valid cloudflare extra",
            "valid --tarce",
            "valid cloudflare --query code=1",
            "--query code=1",
            "--log",
            "--log --query code=1",
            "--log scan.jsonl --query",
            "--log scan.jsonl valid",
            "--log scan.jsonl --trace",
            "--list valid",
            "--trace",
            "valid --trace --trace-json",
        ] {
            assert!(parse_str(line).is_err(), "{line:?} was accepted");
        }
    }
}
