//! Regenerate the §4.2 inventory: run the scaled Internet-wide scan and
//! print measured vs paper counts per INFO-CODE.
//!
//! Usage: repro-scan \[scale\] \[--json | --fingerprint\] \[--cache-budget=N\]
//!        \[--synthesize\] \[--sweep=R\] \[--range-budget=N\]
//!        \[--log-capacity=N\] \[--log-spill=PATH\] \[--snapshots=PATH\]
//!        \[--query=EXPR\] \[--stream-smoke\]
//! (default scale 1000, i.e. 303k domains)
//!
//! `--cache-budget=N` bounds the shared cache to N entries; with a
//! budget smaller than the working set the scan still completes, with
//! bounded memory and nonzero evictions, but eviction legally changes
//! results, so budgeted fingerprints are *not* comparable.
//!
//! `--synthesize` turns on RFC 8198 denial synthesis in the scanning
//! resolver; scan fingerprints must stay identical to the
//! synthesis-free walk (registered names are never covered by validated
//! ranges). `--sweep=R` adds R nonexistent-name probes per registered
//! domain after both passes (range tier frozen, probes excluded from
//! the records and fingerprints). `--range-budget=N` bounds the range
//! tier to N spans.
//!
//! Streaming analytics: `--snapshots=PATH` writes the scan's two
//! [`ede_scan::StatsSnapshot`] documents as JSONL when the scan returns:
//! the pass-1 snapshot (`complete: false`), then the final one.
//! `--log-capacity=N` bounds the query-log ring; `--log-spill=PATH`
//! rotates evicted records into a JSONL trace instead of dropping them.
//! `--query=EXPR` filters the retained records after the scan (e.g.
//! `--query=code=23,tld=com,rank=1-500`) and says how many records had
//! already left the ring. `--stream-smoke` runs the bounded-ring
//! equivalence check CI relies on and exits nonzero on any mismatch.
use ede_scan::query::QueryFilter;
use ede_scan::{report, scanner, Population, PopulationConfig, ScanWorld};
use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;

/// The `--stream-smoke` leg: a scan with a deliberately tiny query-log
/// ring must produce the same results as the default scan — final and
/// pass-1 snapshots both — and keep ring occupancy bounded. Exits the
/// process nonzero on failure.
fn stream_smoke(scale: u32) {
    let cfg = PopulationConfig {
        scale,
        ..Default::default()
    };
    let pop = Population::generate(cfg);

    let baseline_world = ScanWorld::build(&pop);
    let baseline = scanner::scan(&pop, &baseline_world, &scanner::ScanConfig::default());

    let streaming_world = ScanWorld::build(&pop);
    let config = scanner::ScanConfig::builder()
        .query_log_capacity(1024)
        .build();
    let streaming = scanner::scan(&pop, &streaming_world, &config);

    let mut bad = Vec::new();
    if !baseline.stats.same_results(&streaming.stats) {
        bad.push("streaming results differ from the batch scan".to_string());
    }
    if baseline.stats.fingerprint != streaming.stats.fingerprint {
        bad.push(format!(
            "fingerprint mismatch: {:016x} != {:016x}",
            baseline.stats.fingerprint, streaming.stats.fingerprint
        ));
    }
    if !baseline.pass1.same_results(&streaming.pass1)
        || baseline.pass1.traffic != streaming.pass1.traffic
    {
        bad.push("pass-1 snapshots differ".to_string());
    }
    if streaming.log.peak > streaming.log.capacity {
        bad.push(format!(
            "ring peak {} exceeded capacity {}",
            streaming.log.peak, streaming.log.capacity
        ));
    }
    if streaming.records.len() > streaming.log.capacity {
        bad.push(format!(
            "retained {} records from a {}-record ring",
            streaming.records.len(),
            streaming.log.capacity
        ));
    }
    if streaming.stream.merges == 0 {
        bad.push("no partial-aggregate merges were recorded".to_string());
    }
    if bad.is_empty() {
        println!(
            "stream-smoke PASS: fingerprint {:016x}, pass-1 snapshots equal ({:016x}), \
             {} merges ({} ns), ring peak {}/{} ({} dropped)",
            streaming.stats.fingerprint,
            streaming.pass1.fingerprint,
            streaming.stream.merges,
            streaming.stream.merge_ns,
            streaming.log.peak,
            streaming.log.capacity,
            streaming.log.dropped,
        );
    } else {
        for b in &bad {
            eprintln!("stream-smoke FAIL: {b}");
        }
        std::process::exit(1);
    }
}

const USAGE: &str = "usage: repro-scan [scale] [--json | --fingerprint] \
[--cache-budget=N] [--synthesize] [--sweep=R] [--range-budget=N] [--log-capacity=N] \
[--log-spill=PATH] [--snapshots=PATH] [--query=EXPR] [--stream-smoke]";

/// A mistyped or retired flag must not silently measure the default
/// configuration: say what was wrong, print the usage line, exit 2.
fn usage_exit(problem: &str) -> ! {
    eprintln!("repro-scan: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn parsed<T: std::str::FromStr>(what: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_exit(&format!("bad value {value:?} for {what}")))
}

fn main() {
    let mut json = false;
    let mut fingerprint = false;
    let mut cache_budget: Option<usize> = None;
    let mut synthesize = false;
    let mut sweep_ratio = 0.0f64;
    let mut range_budget: Option<usize> = None;
    let mut log_capacity: Option<usize> = None;
    let mut log_spill: Option<PathBuf> = None;
    let mut snapshots: Option<PathBuf> = None;
    let mut query: Option<String> = None;
    let mut smoke = false;
    let mut scale = 1000u32;
    for arg in std::env::args().skip(1) {
        let (flag, value) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg.as_str(), None),
        };
        match (flag, value) {
            ("--json", None) => json = true,
            ("--fingerprint", None) => fingerprint = true,
            ("--synthesize", None) => synthesize = true,
            ("--stream-smoke", None) => smoke = true,
            ("--cache-budget", Some(v)) => cache_budget = Some(parsed(flag, v)),
            ("--sweep", Some(v)) => sweep_ratio = parsed(flag, v),
            ("--range-budget", Some(v)) => range_budget = Some(parsed(flag, v)),
            ("--log-capacity", Some(v)) => log_capacity = Some(parsed(flag, v)),
            ("--log-spill", Some(v)) => log_spill = Some(PathBuf::from(v)),
            ("--snapshots", Some(v)) => snapshots = Some(PathBuf::from(v)),
            ("--query", Some(v)) => query = Some(v.to_string()),
            (positional, None) if !positional.starts_with('-') => {
                scale = parsed("scale", positional)
            }
            _ => usage_exit(&format!("unknown or malformed argument {arg:?}")),
        }
    }

    if smoke {
        stream_smoke(scale);
        return;
    }

    let filter = query.map(|expr| match QueryFilter::parse(&expr) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bad --query: {e}");
            std::process::exit(2);
        }
    });

    let cfg = PopulationConfig {
        scale,
        ..Default::default()
    };
    eprintln!("generating population at scale 1:{scale}...");
    let pop = Population::generate(cfg);
    eprintln!("{} domains; building world...", pop.domains.len());
    let mut world = ScanWorld::build(&pop);
    world.resolver_config.max_cache_entries = cache_budget;
    world.resolver_config.synthesize_denial = synthesize;
    world.resolver_config.max_range_entries = range_budget;
    eprintln!("scanning...");
    let mut builder = scanner::ScanConfig::builder()
        .progress(!json && !fingerprint)
        .sweep_ratio(sweep_ratio)
        .query_log_spill(log_spill);
    if let Some(capacity) = log_capacity {
        builder = builder.query_log_capacity(capacity);
    }
    let config = builder.build();

    // Created before the scan, so a path that cannot be written fails
    // now and not after minutes of scanning.
    let snapshots = snapshots.map(|path| match File::create(&path) {
        Ok(file) => (path, file),
        Err(e) => {
            eprintln!("cannot open {}: {e}", path.display());
            std::process::exit(2);
        }
    });
    let result = scanner::scan(&pop, &world, &config);

    if let Some((path, mut file)) = snapshots {
        let written = writeln!(
            file,
            "{}\n{}",
            result.pass1.to_json_line(),
            result.stats.to_json_line()
        );
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }

    if fingerprint {
        println!(
            "fingerprint {:016x} domains {} evictions {}",
            result.stats.fingerprint, result.stats.ede.total_domains, result.cache.l2.evicted,
        );
        if synthesize || sweep_ratio > 0.0 {
            let sweep = result.stats.traffic.sweep.clone().unwrap_or_default();
            println!(
                "ranges hits {} probes {} evicted {} live {} sweep_hit_pct {:.1} \
                 queries_per_domain {:.3}",
                result.cache.range.hits,
                result.cache.range.hits + result.cache.range.misses,
                result.cache.range.evicted,
                result.cache.range.occupancy,
                100.0 * sweep.hit_ratio(),
                result.queries_per_domain(),
            );
        }
    } else if json {
        print!("{}", report::scan_json(&result.stats));
    } else {
        print!("{}", report::scan_summary(&result.stats));
        println!("\n{}", report::traffic_line(&result.stats));
        println!("\n{}", result.metrics.render());
        println!("{}", result.cache.render());
        // No wall-clock fields here: stdout stays byte-identical across
        // equal-result runs (merge_ns lives in `ScanResult::stream`).
        println!(
            "streaming: {} merges, query log peak {}/{} ({} spilled, {} dropped)",
            result.stream.merges,
            result.log.peak,
            result.log.capacity,
            result.log.spilled,
            result.log.dropped,
        );
    }

    if let Some(filter) = filter {
        print!("\n{}", filter.summarize(&result.records).render());
        // The filter ran over the ring's retained records only: say what
        // it never saw, and where those records are now.
        if result.log.dropped > 0 {
            println!(
                "  not seen: {} older records dropped from the {}-record ring \
                 (raise --log-capacity)",
                result.log.dropped, result.log.capacity
            );
        }
        if let Some(spill) = config.query_log_spill.filter(|_| result.log.spilled > 0) {
            println!(
                "  not seen: {} older records spilled (troubleshoot --log {} --query {})",
                result.log.spilled,
                spill.display(),
                filter.describe()
            );
        }
    }
}
