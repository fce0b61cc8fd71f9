//! Streaming-analytics contracts (see `docs/OBSERVABILITY.md`):
//!
//! * the streaming aggregation is **bit-identical to the batch fold**
//!   at every (workers, inflight) cross-point, with sinks attached and
//!   the sweep running;
//! * the export **cadence cannot change results** — only how many
//!   mid-scan progress snapshots fan out;
//! * the query-log ring is **bounded**: a capacity far below the record
//!   count keeps peak occupancy at the cap, spills rotated records as
//!   loadable JSONL, and still produces a fingerprint-identical report;
//! * `scan_json` is **versioned and DTO-generated**: the golden test
//!   pins `schema_version` and the key set.

use ede_scan::aggregate::PartialAggregate;
use ede_scan::query::load_jsonl;
use ede_scan::scanner::{scan, scan_streaming, ScanConfig};
use ede_scan::{Population, PopulationConfig, QueryRecord};
use ede_trace::{MemorySnapshotSink, SnapshotSink};
use std::collections::BTreeMap;
use std::sync::Arc;

fn tiny_pop() -> Population {
    Population::generate(PopulationConfig::tiny())
}

/// Streaming (sinks attached, tight cadence) must equal the plain batch
/// scan at every (workers, inflight) cross-point — including a sweep
/// leg, which must also agree with itself across configurations.
#[test]
fn streaming_is_bit_identical_to_batch_at_every_cross_point() {
    let pop = tiny_pop();
    let baseline_world = ede_scan::ScanWorld::build(&pop);
    let baseline = scan(
        &pop,
        &baseline_world,
        &ScanConfig::builder().workers(1).build(),
    );

    for (workers, inflight) in [(1, 1), (4, 1), (8, 1), (1, 32), (1, 256), (4, 16)] {
        let sink = Arc::new(MemorySnapshotSink::new());
        let world = ede_scan::ScanWorld::build(&pop);
        let config = ScanConfig::builder()
            .workers(workers)
            .inflight(inflight)
            .snapshot_cadence_secs(1)
            .build();
        let streaming = scan_streaming(
            &pop,
            &world,
            &config,
            &[Arc::clone(&sink) as Arc<dyn SnapshotSink>],
        );
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
        assert_eq!(baseline.traffic, streaming.traffic);
        // The final complete snapshot reached the sink.
        let entries = sink.entries();
        assert!(!entries.is_empty(), "nothing exported");
        let last = &entries[entries.len() - 1].json;
        assert!(last.contains("\"complete\": true"), "final export missing");
        assert!(last.contains(&format!(
            "\"fingerprint\": \"{:016x}\"",
            streaming.stats.fingerprint
        )));
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
            .snapshot_cadence_secs(1)
            .build();
        let sink = Arc::new(MemorySnapshotSink::new());
        scan_streaming(
            &pop,
            &world,
            &config,
            &[Arc::clone(&sink) as Arc<dyn SnapshotSink>],
        )
    };
    let sweep_a = run_sweep(1, 1);
    let sweep_b = run_sweep(4, 16);
    assert!(sweep_a.stats.same_results(&sweep_b.stats));
    assert_eq!(sweep_a.sweep, sweep_b.sweep);
    assert_eq!(sweep_a.traffic, sweep_b.traffic);
    // And the sweep leg's *results* equal the sweep-free baseline.
    assert!(baseline.stats.same_results(&sweep_a.stats));
}

/// The export cadence is an observability knob, never a results knob:
/// 0 (final-only), 1 s, and 7 s cadences must produce identical final
/// snapshots — only the number of mid-scan exports may differ.
#[test]
fn export_cadence_cannot_change_results() {
    let pop = tiny_pop();
    let mut fingerprints = Vec::new();
    let mut exports = Vec::new();
    for cadence in [0u64, 1, 7] {
        let sink = Arc::new(MemorySnapshotSink::new());
        let world = ede_scan::ScanWorld::build(&pop);
        let config = ScanConfig::builder()
            .workers(4)
            .snapshot_cadence_secs(cadence)
            .build();
        let result = scan_streaming(
            &pop,
            &world,
            &config,
            &[Arc::clone(&sink) as Arc<dyn SnapshotSink>],
        );
        fingerprints.push(result.stats.fingerprint);
        exports.push(sink.len());
        // Every exported document is internally consistent JSON with
        // the pinned schema version.
        for entry in sink.entries() {
            assert!(entry.json.starts_with('{'), "not a JSON document");
            assert!(entry.json.contains("\"schema_version\": 1"));
        }
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
    assert_eq!(fingerprints[1], fingerprints[2]);
    // Cadence 0 exports exactly the final snapshot; cadence 1 at least
    // as many as cadence 7.
    assert_eq!(exports[0], 1, "cadence 0 must export final-only");
    assert!(exports[1] >= exports[2], "tighter cadence exported less");
    assert!(exports[1] > 1, "1 s cadence never exported mid-scan");
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
    assert_eq!(all.len(), bounded.resolutions);
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
