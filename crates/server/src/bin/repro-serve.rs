//! `repro-serve` — serve the extended-dns-errors testbed to real DNS
//! clients.
//!
//! Foreground mode binds `127.0.0.1:5300` (UDP and TCP), prints a
//! `dig` quick-start, and reports stats once per second until killed:
//!
//! ```text
//! repro-serve [--bind ADDR] [--vendor NAME] [--workers N]
//! ```
//!
//! `--smoke` runs the CI serving smoke instead: spawn on an ephemeral
//! port, hammer it from concurrent loopback clients across a mix of
//! testbed labels, assert zero errors and nonzero EDE answers, exercise
//! sixteen queries pipelined in one write on one TCP connection (answers
//! in order, in fewer writes than answers), exercise the TC=1 → TCP
//! retry bit-identity contract on a second small-payload server, then
//! drain gracefully. Exits nonzero on any failure.

use ede_resolver::{Resolver, Vendor};
use ede_server::{pipeline, ProbeClient, Server, ServerConfig, ServerHandle};
use ede_testbed::Testbed;
use ede_wire::stream::{frame, FrameReader, MAX_FRAME_LEN};
use ede_wire::{Message, Name, RrType};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Testbed labels the smoke mixes: one clean domain plus a spread of
/// misconfigurations that light up distinct RFC 8914 codes.
const SMOKE_LABELS: [&str; 6] = [
    "valid",
    "rrsig-exp-all",
    "no-ds",
    "bad-zsk",
    "nsec3-missing",
    "rrsig-no-all",
];

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
         usage: repro-serve [--bind ADDR] [--vendor NAME] [--workers N] | --smoke | --help"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut run_smoke = false;
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
            "--smoke" => run_smoke = true,
            "--bind" => builder = builder.bind(value()),
            "--vendor" => vendor = value().parse().unwrap_or_else(|e: String| usage_exit(&e)),
            "--workers" => {
                let n = value();
                builder = builder.workers(
                    n.parse()
                        .unwrap_or_else(|_| usage_exit(&format!("bad --workers value {n:?}"))),
                );
            }
            _ => usage_exit(&format!("unknown argument {arg:?}")),
        }
    }
    if run_smoke {
        return match smoke() {
            Ok(report) => {
                println!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("serve smoke FAILED: {e}");
                ExitCode::FAILURE
            }
        };
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
         \x20 repro-serve --smoke\n\
         \n\
         OPTIONS:\n\
         \x20 --bind ADDR     bind address for both transports (default 127.0.0.1:5300)\n\
         \x20 --vendor NAME   EDE emission profile (default cloudflare): bind9, unbound,\n\
         \x20                 powerdns, knot, cloudflare, quad9, opendns\n\
         \x20 --workers N     UDP shard worker threads (default: CPU count, max 4)\n\
         \x20 --smoke         run the CI serving smoke on an ephemeral port and exit\n"
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

/// Spawn a server and return it with a ready client.
fn spawn_pair(
    resolver: Resolver,
    config: ServerConfig,
) -> Result<(ServerHandle, ProbeClient), String> {
    let handle = Server::spawn(resolver, config).map_err(|e| format!("spawn failed: {e}"))?;
    let client = ProbeClient::connect(handle.udp_addr(), handle.tcp_addr())
        .map_err(|e| format!("client connect failed: {e}"))?;
    Ok((handle, client))
}

/// Queries in the smoke's pipelined batch.
const PIPELINED: u16 = 16;

/// RFC 7766 pipelining: `PIPELINED` queries in one write on one
/// connection must come back in request order.
fn pipelined_leg(tcp_addr: SocketAddr) -> Result<(), String> {
    let mut batch = Vec::new();
    for i in 0..PIPELINED {
        let label = SMOKE_LABELS[usize::from(i) % SMOKE_LABELS.len()];
        let qname = Name::parse(&format!("{label}.extended-dns-errors.com"))
            .map_err(|e| format!("pipelined leg: bad name: {e}"))?;
        let framed = Message::query(0x9000 + i, qname, RrType::A)
            .encode()
            .and_then(|wire| frame(&wire))
            .map_err(|e| format!("pipelined leg: encode: {e}"))?;
        batch.extend(framed);
    }
    let io = |e: std::io::Error| format!("pipelined leg: {e}");
    let mut stream = TcpStream::connect(tcp_addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(io)?;
    stream.write_all(&batch).map_err(io)?;

    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    let mut buf = [0u8; 4096];
    let mut answered = 0;
    while answered < PIPELINED {
        let n = stream.read(&mut buf).map_err(io)?;
        if n == 0 {
            return Err(format!("pipelined leg: EOF after {answered} answers"));
        }
        reader
            .push(&buf[..n])
            .map_err(|e| format!("pipelined leg: {e}"))?;
        while let Some(answer) = reader.next_frame() {
            let id = Message::decode(&answer)
                .map_err(|e| format!("pipelined leg: answer {answered}: {e}"))?
                .id;
            if id != 0x9000 + answered {
                return Err(format!("pipelined leg: answer {answered} has id {id:#x}"));
            }
            answered += 1;
        }
    }
    Ok(())
}

fn smoke() -> Result<String, String> {
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 100;

    let tb = Testbed::build();

    // Leg 1: concurrent mixed-label load, zero tolerance for errors.
    let (handle, _) = spawn_pair(
        tb.resolver(Vendor::Cloudflare),
        ServerConfig::builder()
            .bind("127.0.0.1:0")
            .workers(2)
            .drain_deadline(Duration::from_secs(2))
            .build(),
    )?;
    let udp_addr = handle.udp_addr();
    let tcp_addr = handle.tcp_addr();
    let ede_answers = Arc::new(AtomicU64::new(0));

    let mut joins = Vec::new();
    for c in 0..CLIENTS {
        let ede_answers = Arc::clone(&ede_answers);
        joins.push(std::thread::spawn(move || -> Result<(), String> {
            let client = ProbeClient::connect(udp_addr, tcp_addr)
                .map_err(|e| format!("client {c}: connect: {e}"))?;
            for i in 0..QUERIES_PER_CLIENT {
                let label = SMOKE_LABELS[(c + i) % SMOKE_LABELS.len()];
                let qname = Name::parse(&format!("{label}.extended-dns-errors.com"))
                    .map_err(|e| format!("client {c}: bad name: {e}"))?;
                let id = (c * QUERIES_PER_CLIENT + i) as u16;
                let query = Message::query(id, qname, RrType::A);
                let exchange = client
                    .query(&query)
                    .map_err(|e| format!("client {c} query {i} ({label}): {e}"))?;
                if exchange.response.id != id {
                    return Err(format!("client {c}: id mismatch on {label}"));
                }
                if !exchange.response.ede_codes().is_empty() {
                    ede_answers.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(())
        }));
    }
    for join in joins {
        join.join()
            .map_err(|_| "smoke client panicked".to_string())??;
    }
    // Leg 2: one pipelined batch over TCP on the same server, so the
    // stats printed below show it.
    pipelined_leg(tcp_addr)?;
    let stats = handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let expected = (CLIENTS * QUERIES_PER_CLIENT) as u64 + u64::from(PIPELINED);
    if stats.metrics.queries() < expected {
        return Err(format!(
            "server saw {} queries, clients sent {expected}",
            stats.metrics.queries()
        ));
    }
    if stats.metrics.encode_errors != 0 || stats.metrics.dropped != 0 {
        return Err(format!(
            "unexpected server-side errors: {} encode, {} dropped",
            stats.metrics.encode_errors, stats.metrics.dropped
        ));
    }
    let ede_answers = ede_answers.load(Ordering::Relaxed);
    if ede_answers == 0 {
        return Err("no EDE codes observed on the wire".to_string());
    }
    if !stats.drained {
        return Err("drain deadline exceeded".to_string());
    }
    if stats.udp_workers_alive() < stats.workers {
        return Err(format!(
            "{} of {} UDP workers alive at drain",
            stats.udp_workers_alive(),
            stats.workers
        ));
    }
    if !stats.tcp_acceptor_alive() {
        return Err("the TCP acceptor was dead at drain".to_string());
    }

    let (tcp_responses, tcp_writes) = (stats.metrics.tcp_responses, stats.metrics.tcp_writes);
    if tcp_responses != u64::from(PIPELINED) || tcp_writes >= tcp_responses {
        return Err(format!(
            "pipelined leg was not batched: {tcp_responses} answers in {tcp_writes} writes"
        ));
    }

    // Leg 3: TC=1 → TCP retry must be bit-identical to the untruncated
    // answer. A sub-512 payload cap forces truncation of every testbed
    // answer.
    let resolver = tb.resolver(Vendor::Cloudflare);
    let expected_full = {
        let qname = Name::parse("valid.extended-dns-errors.com").unwrap();
        let query = Message::query(0x7C01, qname, RrType::A);
        let reply = pipeline::answer(&resolver, None, &query);
        (query, reply.encode().map_err(|e| format!("encode: {e}"))?)
    };
    let (handle, client) = spawn_pair(
        resolver,
        ServerConfig::builder()
            .bind("127.0.0.1:0")
            .workers(1)
            .udp_payload_max(96)
            .build(),
    )?;
    let exchange = client
        .query(&expected_full.0)
        .map_err(|e| format!("TC leg: {e}"))?;
    if !exchange.retried_over_tcp {
        return Err("TC leg: UDP answer was not truncated".to_string());
    }
    if exchange.response_wire != expected_full.1 {
        return Err("TC leg: TCP retry bytes differ from the untruncated answer".to_string());
    }
    let tc_stats = handle.shutdown().map_err(|e| format!("TC shutdown: {e}"))?;
    if tc_stats.metrics.udp_truncated != 1 || tc_stats.metrics.tcp_responses != 1 {
        return Err(format!(
            "TC leg counters off: {} truncated, {} tcp responses",
            tc_stats.metrics.udp_truncated, tc_stats.metrics.tcp_responses
        ));
    }

    Ok(format!(
        "serve smoke OK: {CLIENTS} clients x {QUERIES_PER_CLIENT} queries, {ede_answers} EDE answers, \
         {PIPELINED} pipelined over TCP in {tcp_writes} write(s), TC=1 retry bit-identical over TCP\n{}",
        stats.render()
    ))
}
