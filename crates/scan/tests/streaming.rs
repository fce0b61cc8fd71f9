//! Streaming-analytics contracts (see `docs/OBSERVABILITY.md`):
//!
//! * the streaming aggregation is **bit-identical to the one-worker
//!   scan** at every (workers, inflight) cross-point — the pass-1
//!   snapshot as well as the final one — and with the sweep running;
//! * the query-log ring is **bounded**: a capacity far below the record
//!   count keeps peak occupancy at the cap, spills rotated records as
//!   loadable JSONL, and still produces a fingerprint-identical report;
//! * `scan_json` is **versioned and DTO-generated**: the golden test
//!   pins `schema_version` and the key set.

use ede_scan::aggregate::PartialAggregate;
use ede_scan::query::load_jsonl;
use ede_scan::scanner::{scan, ScanConfig};
use ede_scan::{Population, PopulationConfig, QueryRecord};
use std::collections::BTreeMap;

fn tiny_pop() -> Population {
    Population::generate(PopulationConfig::tiny())
}

/// Every (workers, inflight) cross-point must equal the one-worker
/// scan, in the pass-1 snapshot as in the final one — including a
/// sweep leg, which must also agree with itself across configurations.
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

    for (workers, inflight) in [(1, 1), (4, 1), (8, 1), (1, 32), (1, 256), (4, 16)] {
        let world = ede_scan::ScanWorld::build(&pop);
        let config = ScanConfig::builder()
            .workers(workers)
            .inflight(inflight)
            .build();
        let streaming = scan(&pop, &world, &config);
        assert!(
            baseline.stats.same_results(&streaming.stats),
            "results diverged at workers={workers} inflight={inflight}"
        );
        assert_eq!(
            baseline.stats.fingerprint, streaming.stats.fingerprint,
            "fingerprint diverged at workers={workers} inflight={inflight}"
        );
        assert_eq!(
            baseline.final_records(),
            streaming.final_records(),
            "records diverged at workers={workers} inflight={inflight}"
        );
        assert_eq!(baseline.traffic_full, streaming.traffic_full);
        // The pass-1 snapshot is read when pass 1 has joined, so it is
        // as independent of worker timing as the final one.
        assert!(!streaming.pass1.complete && streaming.stats.complete);
        assert!(
            baseline.pass1.same_results(&streaming.pass1),
            "pass-1 results diverged at workers={workers} inflight={inflight}"
        );
        assert_eq!(
            baseline.pass1.traffic, streaming.pass1.traffic,
            "pass-1 traffic diverged at workers={workers} inflight={inflight}"
        );
    }

    // Sweep cross-point: synthesis + sweep streaming at two
    // configurations must agree with each other on everything,
    // including the sweep report.
    let run_sweep = |workers: usize, inflight: usize| {
        let mut world = ede_scan::ScanWorld::build(&pop);
        world.resolver_config.synthesize_denial = true;
        let config = ScanConfig::builder()
            .workers(workers)
            .inflight(inflight)
            .sweep_ratio(1.5)
            .build();
        scan(&pop, &world, &config)
    };
    let sweep_a = run_sweep(1, 1);
    let sweep_b = run_sweep(4, 16);
    assert!(sweep_a.stats.same_results(&sweep_b.stats));
    assert_eq!(sweep_a.stats.traffic, sweep_b.stats.traffic);
    assert_eq!(sweep_a.traffic_full, sweep_b.traffic_full);
    // And the sweep leg's *results* equal the sweep-free baseline.
    assert!(baseline.stats.same_results(&sweep_a.stats));
}

/// A ring far smaller than the record count: bounded peak occupancy,
/// rotated records spilled as loadable JSONL, and a report that is
/// fingerprint-identical to the unbounded scan — the aggregation never
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

    // Bounded memory, identical report.
    assert!(
        bounded.log.peak <= CAPACITY,
        "peak {} > cap",
        bounded.log.peak
    );
    assert!(bounded.records.len() <= CAPACITY);
    assert!(bounded.log.spilled > 0, "nothing spilled");
    assert_eq!(bounded.log.dropped, 0, "spill configured, nothing may drop");
    assert!(unbounded.stats.same_results(&bounded.stats));
    assert_eq!(unbounded.stats.fingerprint, bounded.stats.fingerprint);

    // Spill + retained ring = the complete record stream: replaying the
    // last-wins record per domain through a fresh fold reproduces the
    // scan fingerprint exactly.
    let mut all: Vec<QueryRecord> = load_jsonl(&spill).expect("load spill");
    assert_eq!(all.len() as u64, bounded.log.spilled);
    all.extend(bounded.records.iter().cloned());
    all.sort_by_key(|r| r.seq);
    assert_eq!(all.len(), bounded.stats.traffic.resolutions);
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

/// Golden schema pin for the versioned scan JSON: `schema_version` is 1
/// and the document carries exactly the expected top-level keys, in
/// order. Bumping the schema requires touching this test — that is the
/// point.
#[test]
fn scan_json_schema_is_pinned() {
    let pop = tiny_pop();
    let world = ede_scan::ScanWorld::build(&pop);
    let result = scan(&pop, &world, &ScanConfig::builder().workers(4).build());
    let json = ede_scan::report::scan_json(&result.stats);

    assert_eq!(ede_scan::stats::v1::SCHEMA_VERSION, 1);
    assert!(json.contains("\"schema_version\": 1,"));

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
