//! The streaming side of the scan: a shared `SnapshotStore` (crate
//! internal) that workers merge their per-chunk [`PartialAggregate`]s
//! into, and that exports [`StatsSnapshot`]s to registered
//! [`SnapshotSink`]s at a configurable cadence on the **virtual**
//! clock.
//!
//! # Merge model
//!
//! Workers never share an output buffer: each claim chunk is folded
//! into a worker-private partial and merged under one short mutex hold
//! (`SnapshotStore::merge`). Because [`PartialAggregate::merge`] is
//! commutative and associative, the merged aggregate at end of scan is
//! independent of worker timing — the merge-cadence determinism rule in
//! `docs/CONCURRENCY.md`.
//!
//! # Export cadence
//!
//! After each merge the store checks the virtual clock: when a cadence
//! boundary has passed since the last export (and at least one sink is
//! registered), the merging worker serializes the current snapshot and
//! fans it out. *Which* merges land in a mid-scan snapshot depends on
//! worker timing — mid-scan snapshots are progress reports, each
//! internally consistent but not bit-stable across runs. Only the final
//! snapshot (`complete == true`, exported from `SnapshotStore::finish`
//! after both passes) is deterministic, and that is the one every
//! bit-identity test compares.

use crate::aggregate::{PartialAggregate, ScanResults};
use crate::population::Population;
use crate::querylog::QueryLog;
use crate::scanner::ScanCacheReport;
use crate::stats::v1::StatsSnapshot;
use ede_resolver::Resolver;
use ede_trace::SnapshotSink;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counters for the streaming pipeline itself, reported in
/// [`crate::scanner::ScanResult`] and the bench log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Partial-aggregate merges performed.
    pub merges: u64,
    /// Wall-clock nanoseconds spent inside the merge critical section
    /// (the `aggregate_merge_ns` bench field).
    pub merge_ns: u64,
    /// Snapshots exported to sinks (mid-scan + final).
    pub exports: u64,
}

/// Everything the store needs to assemble a live snapshot at export
/// time, borrowed from the scan's stack frame (the scoped worker
/// threads outlive none of it).
pub(crate) struct LiveCtx<'a> {
    pub pop: &'a Population,
    pub net: &'a ede_netsim::Network,
    pub resolver: &'a Resolver,
    pub log: &'a QueryLog,
    pub resolutions: &'a AtomicUsize,
    pub vendor: ede_resolver::Vendor,
    pub scale: u32,
}

/// The shared snapshot store.
pub(crate) struct SnapshotStore {
    merged: Mutex<PartialAggregate>,
    sinks: Vec<Arc<dyn SnapshotSink>>,
    cadence_ms: u64,
    next_seq: AtomicU64,
    last_export_ms: AtomicU64,
    merges: AtomicU64,
    merge_ns: AtomicU64,
    exports: AtomicU64,
}

impl SnapshotStore {
    /// A store exporting to `sinks` every `cadence_secs` of virtual
    /// time (`0` disables mid-scan exports; the final snapshot is
    /// always exported when sinks are registered).
    pub fn new(sinks: Vec<Arc<dyn SnapshotSink>>, cadence_secs: u64, start_ms: u64) -> Self {
        SnapshotStore {
            merged: Mutex::new(PartialAggregate::default()),
            sinks,
            cadence_ms: cadence_secs.saturating_mul(1000),
            next_seq: AtomicU64::new(0),
            last_export_ms: AtomicU64::new(start_ms),
            merges: AtomicU64::new(0),
            merge_ns: AtomicU64::new(0),
            exports: AtomicU64::new(0),
        }
    }

    /// Merge one chunk partial, then export a snapshot if a cadence
    /// boundary has passed. Called by workers after every claim chunk.
    pub fn merge(&self, chunk: PartialAggregate, live: &LiveCtx<'_>) {
        if chunk.domains() == 0 {
            return;
        }
        let t = Instant::now();
        {
            let mut merged = self.merged.lock().expect("snapshot store lock");
            merged.merge(chunk);
        }
        self.merge_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.merges.fetch_add(1, Ordering::Relaxed);
        self.maybe_export(live);
    }

    /// Export a mid-scan snapshot when the virtual clock has crossed a
    /// cadence boundary. The compare-exchange dedupes racing workers:
    /// exactly one wins each boundary.
    fn maybe_export(&self, live: &LiveCtx<'_>) {
        if self.sinks.is_empty() || self.cadence_ms == 0 {
            return;
        }
        let now = live.net.clock().now_millis();
        let last = self.last_export_ms.load(Ordering::Relaxed);
        if now.saturating_sub(last) < self.cadence_ms {
            return;
        }
        if self
            .last_export_ms
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.export(live, false, now);
    }

    /// Build and fan out one snapshot.
    fn export(&self, live: &LiveCtx<'_>, complete: bool, vtime_ms: u64) {
        let snapshot = self.snapshot(live, complete, vtime_ms);
        self.fan_out(&snapshot);
    }

    /// Serialize one snapshot to a single JSON line and hand it to
    /// every sink.
    fn fan_out(&self, snapshot: &StatsSnapshot) {
        // JSONL sinks want single-line documents.
        let line: String = snapshot
            .to_json()
            .lines()
            .map(str::trim_start)
            .collect::<Vec<_>>()
            .join(" ");
        for sink in &self.sinks {
            sink.export_snapshot(snapshot.seq, snapshot.vtime_ms, &line);
        }
        self.exports.fetch_add(1, Ordering::Relaxed);
    }

    /// Claim the next export sequence number (the scanner uses this to
    /// stamp the final snapshot it assembles itself — the mid-scan path
    /// claims through [`SnapshotStore::snapshot`]).
    pub fn claim_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Assemble the current snapshot without exporting it. Mid-scan,
    /// the L1 counters are zero: the per-worker L1 tiers live on worker
    /// stacks and only sum at end of scan.
    pub fn snapshot(&self, live: &LiveCtx<'_>, complete: bool, vtime_ms: u64) -> StatsSnapshot {
        let results = self.finalize(live.pop);
        let cache = ScanCacheReport {
            l1: Default::default(),
            l2: live.resolver.cache_stats(),
            infra: live.resolver.infra_stats(),
            range: live.resolver.range_stats(),
        };
        StatsSnapshot::from_parts(
            self.next_seq.fetch_add(1, Ordering::Relaxed),
            vtime_ms,
            complete,
            live.scale,
            results,
            &cache,
            live.resolutions.load(Ordering::Relaxed),
            live.net.stats().snapshot(),
            None,
            live.log.stats(),
        )
    }

    /// Finalize the merged aggregate as it stands.
    pub fn finalize(&self, pop: &Population) -> ScanResults {
        self.merged
            .lock()
            .expect("snapshot store lock")
            .finalize(pop)
    }

    /// End of scan: export the final, complete snapshot (assembled by
    /// the scanner, with the summed L1 counters and sweep report the
    /// store cannot see) to every sink — regardless of cadence — and
    /// return the streaming counters.
    pub fn finish(&self, snapshot: &StatsSnapshot) -> StreamReport {
        if !self.sinks.is_empty() {
            self.fan_out(snapshot);
        }
        StreamReport {
            merges: self.merges.load(Ordering::Relaxed),
            merge_ns: self.merge_ns.load(Ordering::Relaxed),
            exports: self.exports.load(Ordering::Relaxed),
        }
    }
}
