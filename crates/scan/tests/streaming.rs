//! Streaming-analytics contracts (see `docs/OBSERVABILITY.md`):
//!
//! * the streaming aggregation is **bit-identical to the one-worker
//!   scan** at every worker count — the pass-1
//!   snapshot as well as the final one;
//! * the query-log ring is **bounded**: a capacity far below the record
//!   count keeps peak occupancy at the cap, spills rotated records as
//!   loadable JSONL, and still produces a fingerprint-identical report;
//! * `scan_json` is **versioned and DTO-generated**: the golden test
//!   pins `schema_version` and the key set.

use ede_scan::aggregate::PartialAggregate;
use ede_scan::query::load_jsonl;
use ede_scan::scanner::{scan, ScanConfig};
use ede_scan::{Population, PopulationConfig, QueryRecord, StatsSnapshot};
use std::collections::BTreeMap;

fn tiny_pop() -> Population {
    Population::generate(PopulationConfig::tiny())
}

/// The deterministic scan *results* of two snapshots agree: fingerprint,
/// EDE breakdown, TLD ratios and the rank curve. Performance facts (cache
/// tiers, traffic, query-log occupancy) and provenance (`seq`,
/// `vtime_ms`) are left out: they may differ across worker counts and
/// ring sizes.
fn same_results(a: &StatsSnapshot, b: &StatsSnapshot) -> bool {
    a.fingerprint == b.fingerprint && a.ede == b.ede && a.tlds == b.tlds && a.ranks == b.ranks
}

/// Every worker count must equal the one-worker
/// scan, in the pass-1 snapshot as in the final one.
#[test]
fn streaming_is_bit_identical_to_batch_at_every_cross_point() {
    let pop = tiny_pop();
    let baseline_world = ede_scan::ScanWorld::build(&pop);
    let baseline = scan(
        &pop,
        &baseline_world,
        &ScanConfig::builder().workers(1).build(),
    );
    // Pass 1 leaves the revisit categories unfolded.
    assert!(baseline.pass1.ede.total_domains < baseline.stats.ede.total_domains);

    for workers in [1, 4, 8] {
        let world = ede_scan::ScanWorld::build(&pop);
        let config = ScanConfig::builder().workers(workers).build();
        let streaming = scan(&pop, &world, &config);
        assert!(
            same_results(&baseline.stats, &streaming.stats),
            "results diverged at workers={workers}"
        );
        assert_eq!(
            baseline.stats.fingerprint, streaming.stats.fingerprint,
            "fingerprint diverged at workers={workers}"
        );
        assert_eq!(
            baseline.final_records(),
            streaming.final_records(),
            "records diverged at workers={workers}"
        );
        assert_eq!(baseline.stats.traffic, streaming.stats.traffic);
        assert_eq!(baseline.stats.resolutions, streaming.stats.resolutions);
        // The pass-1 snapshot is read when pass 1 has joined, so it is
        // as independent of worker timing as the final one.
        assert!(!streaming.pass1.complete && streaming.stats.complete);
        assert!(
            same_results(&baseline.pass1, &streaming.pass1),
            "pass-1 results diverged at workers={workers}"
        );
        assert_eq!(
            baseline.pass1.traffic, streaming.pass1.traffic,
            "pass-1 traffic diverged at workers={workers}"
        );
        assert_eq!(
            baseline.pass1.resolutions, streaming.pass1.resolutions,
            "pass-1 resolutions diverged at workers={workers}"
        );
    }
}

/// A ring far smaller than the record count: bounded peak occupancy,
/// rotated records spilled as loadable JSONL, and pass-1 and final
/// snapshots equal to the unbounded scan's — the aggregation never
/// depended on the buffer.
#[test]
fn bounded_ring_spills_and_keeps_the_report_identical() {
    let pop = tiny_pop();
    let unbounded_world = ede_scan::ScanWorld::build(&pop);
    let unbounded = scan(
        &pop,
        &unbounded_world,
        &ScanConfig::builder().workers(4).build(),
    );
    assert!(
        unbounded.records.len() > 512,
        "population too small for this test"
    );

    let dir = std::env::temp_dir().join(format!("ede-stream-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spill = dir.join("spill.jsonl");

    const CAPACITY: usize = 256;
    let world = ede_scan::ScanWorld::build(&pop);
    let config = ScanConfig::builder()
        .workers(4)
        .query_log_capacity(CAPACITY)
        .query_log_spill(Some(spill.clone()))
        .build();
    let bounded = scan(&pop, &world, &config);

    // Bounded memory, identical report: the pass-1 snapshot, taken after
    // the ring had already spilled, as well as the final one.
    assert!(
        bounded.log.peak <= CAPACITY,
        "peak {} > cap",
        bounded.log.peak
    );
    assert!(bounded.records.len() <= CAPACITY);
    assert!(bounded.log.spilled > 0, "nothing spilled");
    assert_eq!(bounded.log.dropped, 0, "spill configured, nothing may drop");
    assert!(
        same_results(&unbounded.pass1, &bounded.pass1),
        "pass-1 results depend on the ring"
    );
    assert_eq!(unbounded.pass1.traffic, bounded.pass1.traffic);
    assert_eq!(unbounded.pass1.resolutions, bounded.pass1.resolutions);
    assert!(same_results(&unbounded.stats, &bounded.stats));
    assert_eq!(unbounded.stats.fingerprint, bounded.stats.fingerprint);
    assert!(
        bounded.stream.merges > 0,
        "no partial-aggregate merges recorded"
    );

    // Spill + retained ring = the complete record stream: replaying the
    // last-wins record per domain through a fresh fold reproduces the
    // scan fingerprint exactly.
    let mut all: Vec<QueryRecord> = load_jsonl(&spill).expect("load spill");
    assert_eq!(all.len() as u64, bounded.log.spilled);
    all.extend(bounded.records.iter().cloned());
    all.sort_by_key(|r| r.seq);
    assert_eq!(all.len(), bounded.stats.resolutions);
    let mut last: BTreeMap<usize, &QueryRecord> = BTreeMap::new();
    for r in &all {
        last.insert(r.domain, r);
    }
    assert_eq!(last.len(), pop.domains.len(), "a domain's records vanished");
    let mut replay = PartialAggregate::default();
    for r in last.values() {
        replay.fold(r);
    }
    assert_eq!(
        replay.fingerprint(),
        bounded.stats.fingerprint,
        "replaying the spilled stream must reproduce the scan fingerprint"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Golden schema pin for the versioned scan JSON: `schema_version` is 2
/// and the document carries exactly the expected top-level keys, in
/// order. Bumping the schema requires touching this test — that is the
/// point.
#[test]
fn scan_json_schema_is_pinned() {
    let pop = tiny_pop();
    let world = ede_scan::ScanWorld::build(&pop);
    let result = scan(&pop, &world, &ScanConfig::builder().workers(4).build());
    let json = ede_scan::report::scan_json(&result.stats);

    assert_eq!(ede_scan::stats::v1::SCHEMA_VERSION, 2);
    assert!(json.contains("\"schema_version\": 2,"));

    let expected_keys = [
        "schema_version",
        "seq",
        "vtime_ms",
        "complete",
        "scale",
        "fingerprint",
        "ede",
        "tlds",
        "ranks",
        "cache",
        "traffic",
        "query_log",
    ];
    // Top-level keys are exactly two-space indented in the document.
    let mut found = Vec::new();
    for line in json.lines() {
        if let Some(rest) = line.strip_prefix("  \"") {
            if line.starts_with("   ") {
                continue;
            }
            if let Some((key, _)) = rest.split_once('"') {
                found.push(key.to_string());
            }
        }
    }
    assert_eq!(
        found,
        expected_keys.to_vec(),
        "top-level schema drifted without a version bump"
    );

    // Nested result keys the consumers rely on.
    for key in [
        "total_domains",
        "ede_domains",
        "noerror_with_ede",
        "servfail_domains",
        "per_code",
        "per_combo",
        "nameservers",
        "gtld_zero_fraction",
        "tranco_size",
        "queries_per_domain",
        "capacity",
        "spilled",
    ] {
        assert!(json.contains(&format!("\"{key}\"")), "missing key {key}");
    }
    assert!(json.contains("\"complete\": true"));
}
