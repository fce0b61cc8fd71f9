//! `repro-serve` — serve the extended-dns-errors testbed to real DNS
//! clients.
//!
//! Foreground mode binds `127.0.0.1:5300` (UDP and TCP), prints a
//! `dig` quick-start, and prints the server's stats every five seconds
//! in which queries arrived, until killed:
//!
//! ```text
//! repro-serve [--bind ADDR] [--vendor NAME] [--workers N]
//! ```

use ede_resolver::Vendor;
use ede_server::{Server, ServerConfig};
use ede_testbed::Testbed;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Duration;

/// Entries the foreground server's answer cache may hold. The cache is
/// reachable from the network — every nonexistent name a client invents
/// is an entry with its diagnosis — so it is bounded; past the budget
/// the store evicts in CLOCK order (docs/PERFORMANCE.md).
const CACHE_ENTRY_BUDGET: usize = 100_000;

/// A mistyped flag or value must not silently serve the default
/// configuration: say what was wrong, print the usage line, exit 2.
fn usage_exit(problem: &str) -> ! {
    eprintln!(
        "repro-serve: {problem}\n\
         usage: repro-serve [--bind ADDR] [--vendor NAME] [--workers N] | --help"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut builder = ServerConfig::builder().bind("127.0.0.1:5300");
    let mut vendor = Vendor::Cloudflare;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_exit(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--bind" => builder = builder.bind(value()),
            "--vendor" => vendor = value().parse().unwrap_or_else(|e: String| usage_exit(&e)),
            "--workers" => {
                let n = value();
                let n: NonZeroUsize = n
                    .parse()
                    .unwrap_or_else(|_| usage_exit(&format!("bad --workers value {n:?}")));
                builder = builder.workers(n.get());
            }
            _ => usage_exit(&format!("unknown argument {arg:?}")),
        }
    }
    match foreground(builder.build(), vendor) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "repro-serve — serve the extended-dns-errors testbed over UDP+TCP\n\
         \n\
         USAGE:\n\
         \x20 repro-serve [--bind ADDR] [--vendor NAME] [--workers N]\n\
         \n\
         OPTIONS:\n\
         \x20 --bind ADDR     bind address for both transports (default 127.0.0.1:5300)\n\
         \x20 --vendor NAME   EDE emission profile (default cloudflare): bind9, unbound,\n\
         \x20                 powerdns, knot, cloudflare, quad9, opendns\n\
         \x20 --workers N     UDP shard worker threads (default: CPU count, max 4)\n"
}

fn foreground(config: ServerConfig, vendor: Vendor) -> Result<(), String> {
    eprintln!(
        "building testbed ({} zones)...",
        ede_testbed::all_specs().len()
    );
    let mut tb = Testbed::build();
    tb.resolver_config.max_cache_entries = Some(CACHE_ENTRY_BUDGET);
    let handle = Server::spawn(tb.resolver(vendor), config)
        .map_err(|e| format!("cannot start server: {e}"))?;

    let udp = handle.udp_addr();
    println!(
        "serving testbed as {} on udp {udp} / tcp {}",
        vendor.name(),
        handle.tcp_addr()
    );
    println!("try:");
    println!(
        "  dig @{} -p {} valid.extended-dns-errors.com A",
        udp.ip(),
        udp.port()
    );
    println!(
        "  dig @{} -p {} rrsig-exp-all.extended-dns-errors.com A   # SERVFAIL + EDE 7",
        udp.ip(),
        udp.port()
    );
    println!(
        "  dig @{} -p {} +tcp no-ds.extended-dns-errors.com A",
        udp.ip(),
        udp.port()
    );
    println!("(ctrl-c to stop)");

    let mut last_queries = 0;
    loop {
        std::thread::sleep(Duration::from_secs(5));
        let stats = handle.stats();
        let queries = stats.metrics.queries();
        if queries != last_queries {
            last_queries = queries;
            print!("{}", stats.render());
        }
    }
}
