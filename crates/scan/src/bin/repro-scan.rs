//! Regenerate the §4.2 inventory: run the scaled Internet-wide scan and
//! print measured vs paper counts per INFO-CODE.
//!
//! Usage: repro-scan \[scale\] \[--json | \[--fingerprint\] \[--query=EXPR\]\]
//!        \[--log-capacity=N\] \[--log-spill=PATH\] \[--snapshots=PATH\]
//! (scale at least 1; default 1000, i.e. 303k domains)
//!
//! `--json` prints one JSON document and nothing else, so it takes
//! neither `--fingerprint` nor `--query`.
//!
//! The answer cache has no budget flag: a scan stores only the answers
//! its revisit pass reads back (and the TLD priming's), about 1 500
//! entries at any scale, so a budget above that changes nothing and one
//! below it only evicts what pass 2 needs.
//!
//! Streaming analytics: `--snapshots=PATH` writes the scan's two
//! [`ede_scan::StatsSnapshot`] documents as JSONL when the scan returns:
//! the pass-1 snapshot (`complete: false`), then the final one.
//! `--log-capacity=N` bounds the query-log ring; `--log-spill=PATH`
//! rotates evicted records into a JSONL trace instead of dropping them;
//! a spill that cannot be written counts its records as dropped, and the
//! run says so and exits 2 after its report.
//! `--query=EXPR` filters the retained records after the scan (e.g.
//! `--query=code=23,tld=com,rank=1-500`) and says how many records had
//! already left the ring.
use ede_scan::query::QueryFilter;
use ede_scan::{report, scanner, Population, PopulationConfig, ScanWorld};
use std::fs::File;
use std::io::Write as _;
use std::num::NonZeroU32;
use std::path::PathBuf;

const USAGE: &str = "usage: repro-scan [scale] [--json | [--fingerprint] [--query=EXPR]] \
[--log-capacity=N] [--log-spill=PATH] [--snapshots=PATH]";

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

/// `word` as one word of a POSIX shell command line: as it is when no
/// character in it means anything to the shell, else in single quotes
/// (a quote inside closes, escapes and reopens them). A filter of `*`
/// pasted bare would expand to the files in the working directory.
fn shell_word(word: &str) -> String {
    let plain = |c: char| c.is_ascii_alphanumeric() || "-_./=,:@%+".contains(c);
    if !word.is_empty() && word.chars().all(plain) {
        word.to_string()
    } else {
        format!("'{}'", word.replace('\'', r"'\''"))
    }
}

fn main() {
    let mut json = false;
    let mut fingerprint = false;
    let mut log_capacity: Option<usize> = None;
    let mut log_spill: Option<PathBuf> = None;
    let mut snapshots: Option<PathBuf> = None;
    let mut query: Option<String> = None;
    let mut scale = 1000u32;
    for arg in std::env::args().skip(1) {
        let (flag, value) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg.as_str(), None),
        };
        match (flag, value) {
            ("--json", None) => json = true,
            ("--fingerprint", None) => fingerprint = true,
            ("--log-capacity", Some(v)) => log_capacity = Some(parsed(flag, v)),
            ("--log-spill", Some(v)) => log_spill = Some(PathBuf::from(v)),
            ("--snapshots", Some(v)) => snapshots = Some(PathBuf::from(v)),
            ("--query", Some(v)) => query = Some(v.to_string()),
            (positional, None) if !positional.starts_with('-') => {
                scale = parsed::<NonZeroU32>("scale", positional).get()
            }
            _ => usage_exit(&format!("unknown or malformed argument {arg:?}")),
        }
    }
    if json && (fingerprint || query.is_some()) {
        usage_exit("--json prints one JSON document: no --fingerprint or --query beside it");
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
    let world = ScanWorld::build(&pop);
    eprintln!("scanning...");
    let mut builder = scanner::ScanConfig::builder()
        .progress(!json && !fingerprint)
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
            "fingerprint {:016x} domains {}",
            result.stats.fingerprint, result.stats.ede.total_domains,
        );
    } else if json {
        print!("{}", report::scan_json(&result.stats));
    } else {
        print!("{}", report::scan_summary(&result.stats));
        println!("\n{}", report::traffic_line(&result.stats));
        println!("\n{}", result.metrics.render());
        println!("{}", result.cache.render());
        // Nothing here depends on the worker count or the wall clock:
        // stdout stays byte-identical across equal-result runs.
        println!(
            "streaming: query log peak {}/{} ({} spilled, {} dropped)",
            result.log.peak, result.log.capacity, result.log.spilled, result.log.dropped,
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
        if let Some(spill) = config
            .query_log_spill
            .as_ref()
            .filter(|_| result.log.spilled > 0)
        {
            println!(
                "  not seen: {} older records spilled (troubleshoot --log {} --query {})",
                result.log.spilled,
                shell_word(&spill.display().to_string()),
                shell_word(&filter.describe())
            );
        }
    }

    // A spill that failed counted its records as dropped: nothing of
    // what the scan rotated out is in the file.
    if let Some(spill) = config.query_log_spill.filter(|_| result.log.dropped > 0) {
        eprintln!(
            "repro-scan: the query-log spill to {} failed: {} records dropped",
            spill.display(),
            result.log.dropped
        );
        std::process::exit(2);
    }
}
