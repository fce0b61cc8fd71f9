//! The streaming side of the scan: a shared `SnapshotStore` (crate
//! internal) that workers merge their per-batch [`PartialAggregate`]s
//! into, and that the scanner's own thread reads once per pass.
//!
//! # Merge model
//!
//! Workers never share an output buffer: each batch of results is
//! folded into a worker-private partial and merged under one short mutex hold
//! (`SnapshotStore::merge`). Because [`PartialAggregate::merge`] is
//! commutative and associative, the merged aggregate at a join is
//! independent of worker timing — the merge-order determinism rule in
//! `docs/CONCURRENCY.md`. The store is only ever *read*
//! (`SnapshotStore::finalize`) after a pass's workers have joined, so
//! every snapshot the scan returns is deterministic in its results.

use crate::aggregate::{PartialAggregate, ScanResults};
use crate::population::Population;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
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
}

/// The shared snapshot store: the merged aggregate and its two merge
/// counters.
#[derive(Default)]
pub(crate) struct SnapshotStore {
    merged: Mutex<PartialAggregate>,
    merges: AtomicU64,
    merge_ns: AtomicU64,
}

impl SnapshotStore {
    /// Merge one batch's partial. Called by workers after every batch
    /// of results.
    pub fn merge(&self, batch: PartialAggregate) {
        if batch.domains() == 0 {
            return;
        }
        let t = Instant::now();
        {
            let mut merged = self.merged.lock().expect("snapshot store lock");
            merged.merge(batch);
        }
        self.merge_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.merges.fetch_add(1, Ordering::Relaxed);
    }

    /// Finalize the merged aggregate as it stands.
    pub fn finalize(&self, pop: &Population) -> ScanResults {
        self.merged
            .lock()
            .expect("snapshot store lock")
            .finalize(pop)
    }

    /// The merge counters so far.
    pub fn report(&self) -> StreamReport {
        StreamReport {
            merges: self.merges.load(Ordering::Relaxed),
            merge_ns: self.merge_ns.load(Ordering::Relaxed),
        }
    }
}
