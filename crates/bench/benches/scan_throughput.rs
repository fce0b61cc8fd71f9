//! Tracked scan-throughput baseline: the §4.2 scan at reproduction
//! scale (1:1000, 303 k domains), swept across worker counts and
//! per-worker in-flight windows.
//!
//! Two modes, following the harness convention:
//!
//! * **smoke** (`cargo test -p ede-bench --bench scan_throughput`, no
//!   `--bench` flag): one tiny-population scan per sweep point,
//!   print-only — a CI-speed check that the sweep machinery works and
//!   that results are bit-identical at every (workers, inflight) point.
//! * **full** (`cargo bench --bench scan_throughput`, or
//!   `EDE_BENCH=full`): scans 303 k domains across the sweep and
//!   appends one entry per run to `BENCH_scan.json` at the repo
//!   root, so regressions show up as history, not anecdotes.
//!
//! The sweep covers the thread dimension at a window of one
//! (workers ∈ {1, 4, 8, 16}, inflight 1) and the in-flight window
//! dimension on a single worker (inflight ∈ {32, 256}).
//!
//! `BENCH_scan.json` is a JSON array with one entry per line, so new
//! entries append as single lines and diffs stay readable. Entries
//! carry an `"inflight"` field (absent in pre-task-pool history, where
//! it was implicitly 1). See docs/PERFORMANCE.md for the schema and
//! current numbers.

use ede_scan::scanner::{self, ScanConfig};
use ede_scan::{Population, PopulationConfig, ScanWorld};
use std::io::Write;
use std::time::Instant;

/// (workers, inflight) sweep points.
const SWEEP: [(usize, usize); 6] = [(1, 1), (4, 1), (8, 1), (16, 1), (1, 32), (1, 256)];

/// Scale divisor for the full measurement (1:1000 — the same
/// population `repro-scan` defaults to, 303 k domains).
const FULL_SCALE: u32 = 1000;

fn full_measurement() -> bool {
    std::env::args().any(|a| a == "--bench")
        || std::env::var("EDE_BENCH").is_ok_and(|v| v == "full")
}

/// `BENCH_scan.json` lives at the workspace root, two levels above this
/// crate's manifest.
fn bench_log_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scan.json")
}

/// Append one entry line to the JSON-array log, creating it if absent.
/// The file is a JSON array with one object per line; appending swaps
/// the final `]` for `,\n<entry>\n]`.
fn append_entry(entry: &str) -> std::io::Result<()> {
    let path = bench_log_path();
    let body = match std::fs::read_to_string(&path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let without_close = trimmed
                .strip_suffix(']')
                .map(|s| s.trim_end().to_string())
                .unwrap_or_else(|| trimmed.to_string());
            if without_close.trim_end().ends_with('[') {
                format!("{without_close}\n{entry}\n]\n")
            } else {
                format!("{without_close},\n{entry}\n]\n")
            }
        }
        Err(_) => format!("[\n{entry}\n]\n"),
    };
    let mut f = std::fs::File::create(&path)?;
    f.write_all(body.as_bytes())
}

fn utc_date() -> String {
    // Days since the epoch → Y-M-D, enough precision for a bench log
    // and no chrono dependency.
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = secs / 86_400;
    let mut year = 1970u64;
    let mut remaining = days;
    loop {
        let leap =
            year.is_multiple_of(4) && (!year.is_multiple_of(100) || year.is_multiple_of(400));
        let len = if leap { 366 } else { 365 };
        if remaining < len {
            break;
        }
        remaining -= len;
        year += 1;
    }
    let leap = year.is_multiple_of(4) && (!year.is_multiple_of(100) || year.is_multiple_of(400));
    let month_lens = [
        31,
        if leap { 29 } else { 28 },
        31,
        30,
        31,
        30,
        31,
        31,
        30,
        31,
        30,
        31,
    ];
    let mut month = 1;
    for len in month_lens {
        if remaining < len {
            break;
        }
        remaining -= len;
        month += 1;
    }
    format!("{year:04}-{month:02}-{:02}", remaining + 1)
}

fn main() {
    let full = full_measurement();
    let cfg = if full {
        PopulationConfig {
            scale: FULL_SCALE,
            ..Default::default()
        }
    } else {
        PopulationConfig::tiny()
    };
    eprintln!(
        "scan_throughput: generating population (scale 1:{})...",
        cfg.scale
    );
    let pop = Population::generate(cfg);
    let domains = pop.domains.len();

    let mut reference: Option<String> = None;
    for (workers, inflight) in SWEEP {
        // Fresh world per run: flap state and the virtual clock are
        // part of the scan, and sharing them would leak state between
        // sweep points.
        let world = ScanWorld::build(&pop);
        let scan_cfg = ScanConfig::builder()
            .workers(workers)
            .inflight(inflight)
            .progress(false)
            .build();
        let t = Instant::now();
        let result = scanner::scan(&pop, &world, &scan_cfg);
        let secs = t.elapsed().as_secs_f64();
        let rate = domains as f64 / secs;
        println!(
            "bench scan_throughput/workers_{workers}_inflight_{inflight}: {domains} domains in {secs:.2} s ({rate:.0} domains/s)"
        );

        // Results must be bit-identical at every sweep point: compare
        // the per-code inventory against the first run (one worker,
        // window of one).
        let fingerprint = format!("{:016x}", result.stats.fingerprint);
        match &reference {
            None => reference = Some(fingerprint),
            Some(r) => assert_eq!(
                *r, fingerprint,
                "scan results diverged at workers={workers} inflight={inflight}"
            ),
        }

        if full {
            let cache = &result.cache;
            let entry = format!(
                "{{\"recorded\": \"{}\", \"label\": \"scan_throughput\", \"scale\": {}, \"workers\": {}, \"inflight\": {}, \"domains\": {}, \"seconds\": {:.3}, \"domains_per_sec\": {:.0}, \"queries_per_domain\": {:.3}, \"l1_hit_pct\": {:.1}, \"l2_hit_pct\": {:.1}, \"referral_hit_pct\": {:.1}, \"evictions\": {}, \"aggregate_merge_ns\": {}, \"querylog_peak\": {}}}",
                utc_date(),
                FULL_SCALE,
                workers,
                inflight,
                domains,
                secs,
                rate,
                result.queries_per_domain(),
                result.stats.cache.l1_hit_pct(),
                result.stats.cache.l2_hit_pct(),
                result.stats.cache.referral_hit_pct(),
                cache.l2.evicted,
                result.stream.merge_ns,
                result.log.peak,
            );
            if let Err(e) = append_entry(&entry) {
                eprintln!("warning: could not append to BENCH_scan.json: {e}");
            }
        }
    }

    // RFC 8198 denial-synthesis legs: the same scan with a post-pass
    // sweep of nonexistent probes, once live and once answered from the
    // validated range tier. Synthesis must leave the observation
    // inventory bit-identical (retained intervals never cover a
    // registered name); the economics — upstream queries per domain and
    // the share of sweep probes served from cache — are what the legs
    // exist to record.
    let mut synthesis_qpd = [0.0f64; 2];
    for (i, synthesize) in [false, true].into_iter().enumerate() {
        let world = ScanWorld::build(&pop);
        let scan_cfg = ScanConfig::builder()
            .workers(8)
            .progress(false)
            .synthesize(synthesize)
            .sweep_ratio(1.5)
            .build();
        let t = Instant::now();
        let result = scanner::scan(&pop, &world, &scan_cfg);
        let secs = t.elapsed().as_secs_f64();
        let fingerprint = format!("{:016x}", result.stats.fingerprint);
        assert_eq!(
            *reference.as_ref().expect("sweep ran"),
            fingerprint,
            "denial synthesis (on={synthesize}) changed scan results"
        );
        let sweep = result.sweep.as_ref().expect("sweep_ratio 1.5 ran");
        synthesis_qpd[i] = result.queries_per_domain();
        let hit_pct = 100.0 * sweep.hit_ratio();
        println!(
            "bench scan_throughput/synthesis_{}: {:.3} queries/domain, sweep {}/{} from ranges ({:.1}%)",
            if synthesize { "on" } else { "off" },
            synthesis_qpd[i],
            sweep.synthesized,
            sweep.probes,
            hit_pct,
        );
        if synthesize {
            assert!(sweep.synthesized > 0, "sweep never hit the range tier");
            assert!(result.cache.range.hits > 0);
        } else {
            assert_eq!(sweep.synthesized, 0, "synthesis fired while disabled");
        }
        if full {
            let entry = format!(
                "{{\"recorded\": \"{}\", \"label\": \"scan_synthesis_{}\", \"scale\": {}, \"workers\": 8, \"inflight\": 1, \"domains\": {}, \"seconds\": {:.3}, \"queries_per_domain\": {:.3}, \"sweep_probes\": {}, \"sweep_synthesized\": {}, \"range_hit_pct\": {:.1}}}",
                utc_date(),
                if synthesize { "on" } else { "off" },
                FULL_SCALE,
                domains,
                secs,
                synthesis_qpd[i],
                sweep.probes,
                sweep.synthesized,
                hit_pct,
            );
            if let Err(e) = append_entry(&entry) {
                eprintln!("warning: could not append to BENCH_scan.json: {e}");
            }
        }
    }
    assert!(
        synthesis_qpd[1] < synthesis_qpd[0],
        "synthesis did not reduce upstream traffic: {:.3} vs {:.3} queries/domain",
        synthesis_qpd[1],
        synthesis_qpd[0]
    );

    // Tier-configuration smoke legs (CI-speed, tiny population only):
    //
    // * L1 disabled must be bit-identical to the reference — the L1 is
    //   a pure performance tier.
    // * A shared-cache budget far below the working set must still
    //   complete, with nonzero evictions (bounded memory is the point;
    //   eviction legally changes results, so no fingerprint assert).
    if !full {
        let reference = reference.as_ref().expect("sweep ran");
        let world = ScanWorld::build(&pop);
        let no_l1 = scanner::scan(
            &pop,
            &world,
            &ScanConfig::builder()
                .workers(4)
                .progress(false)
                .l1(false)
                .build(),
        );
        let fp = format!("{:016x}", no_l1.stats.fingerprint);
        assert_eq!(*reference, fp, "disabling the L1 tier changed results");
        assert_eq!(no_l1.cache.l1.hits + no_l1.cache.l1.misses, 0);

        let world = ScanWorld::build(&pop);
        let budgeted = scanner::scan(
            &pop,
            &world,
            &ScanConfig::builder()
                .workers(4)
                .progress(false)
                .max_cache_entries(Some(8))
                .build(),
        );
        assert_eq!(budgeted.stats.ede.total_domains, domains);
        assert!(
            budgeted.cache.l2.evicted > 0,
            "an 8-entry budget must evict"
        );
        assert!(budgeted.cache.l2.occupancy <= 8);

        // A range budget far below the retained working set: bounded
        // occupancy, nonzero evictions, and — because evicting a range
        // only forfeits synthesis, never changes an answer — still
        // bit-identical observations.
        let world = ScanWorld::build(&pop);
        let range_budget = scanner::scan(
            &pop,
            &world,
            &ScanConfig::builder()
                .workers(4)
                .progress(false)
                .synthesize(true)
                .sweep_ratio(1.5)
                .max_range_entries(Some(8))
                .build(),
        );
        let fp = format!("{:016x}", range_budget.stats.fingerprint);
        assert_eq!(*reference, fp, "a tiny range budget changed results");
        assert!(
            range_budget.cache.range.evicted > 0,
            "an 8-span range budget must evict"
        );
        assert!(range_budget.cache.range.occupancy <= 8);
        println!(
            "bench scan_throughput: smoke ok (results bit-identical across {SWEEP:?} (workers, inflight) points, with L1 off, and with synthesis on; 8-entry L2 budget evicted {}; 8-span range budget evicted {})",
            budgeted.cache.l2.evicted,
            range_budget.cache.range.evicted
        );
    }
}
