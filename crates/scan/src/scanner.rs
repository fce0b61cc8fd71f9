//! The scanner: drive a resolver over the whole input list from a
//! worker pool, folding results into the streaming analytics pipeline
//! as it goes — per-worker partial aggregates merged into a shared
//! snapshot store, a bounded query-log ring instead of an unbounded
//! outcome buffer — plus the revisit pass for flap/cache phenomena.

use crate::aggregate::PartialAggregate;
use crate::population::Population;
use crate::querylog::{QueryLog, QueryLogStats, QueryRecord};
use crate::stats::v1::{StatsSnapshot, TrafficStats, SCHEMA_VERSION};
use crate::stream::{SnapshotStore, StreamReport};
use crate::world::ScanWorld;
use ede_resolver::{
    CacheStatsSnapshot, InfraStatsSnapshot, Resolution, ResolutionPool, Resolver, Vendor,
    VendorProfile,
};
use ede_trace::{Metrics, MetricsSnapshot};
use ede_wire::{Name, RrType};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shim: the counters of the per-worker L1 tier, which is gone; always
/// zero. `benchmark/src/ledger.rs` still reads both fields; ROADMAP
/// item 3's benchmark-only PR removes this type and its field below.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetiredL1 {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

/// Per-tier cache accounting for one scan: the shared L2 store, the
/// infrastructure cache and the range tier. Reported alongside the
/// metrics in the end-of-run summary; never part of the determinism
/// comparisons (tier *placement* of a hit is a performance fact, not a
/// result).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanCacheReport {
    /// Shim, always zero (see [`RetiredL1`]).
    pub l1: RetiredL1,
    /// The shared (L2) resolution cache's counters.
    pub l2: CacheStatsSnapshot,
    /// The infrastructure cache's counters (zone keys + referrals).
    pub infra: InfraStatsSnapshot,
    /// The range tier's counters (RFC 8198 denial synthesis). All zero
    /// when the world's [`ede_resolver::ResolverConfig::synthesize_denial`]
    /// is off: the engine never probes the tier then.
    pub range: CacheStatsSnapshot,
}

impl ScanCacheReport {
    /// Multi-line human rendering with per-tier hit ratios, matching
    /// the metrics `render()` style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("cache tiers:\n");
        out.push_str(&format!(
            "  L2        : {} hits / {} probes ({:.1}%), {} stale, {} expired, {} evicted, {} live\n",
            self.l2.hits,
            self.l2.hits + self.l2.misses,
            100.0 * self.l2.hit_ratio(),
            self.l2.stale_served,
            self.l2.expired,
            self.l2.evicted,
            self.l2.occupancy,
        ));
        out.push_str(&format!(
            "  infra     : {} key replays, {} referral replays / {} probes ({:.1}%)\n",
            self.infra.key_hits,
            self.infra.referral_hits,
            self.infra.referral_hits + self.infra.referral_misses,
            100.0 * self.infra.referral_hit_ratio(),
        ));
        if self.range.hits + self.range.misses > 0 {
            out.push_str(&format!(
                "  ranges    : {} synthesized / {} probes ({:.1}%), {} evicted, {} live spans\n",
                self.range.hits,
                self.range.hits + self.range.misses,
                100.0 * self.range.hit_ratio(),
                self.range.evicted,
                self.range.occupancy,
            ));
        }
        out
    }
}

/// Accounting for the post-scan synthesis sweep: deterministic
/// nonexistent-name probes that measure how much of each TLD's denial
/// space the range tier already covers. Sweep probes never contribute
/// records — they exist purely to exercise RFC 8198 synthesis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Probe resolutions issued.
    pub probes: usize,
    /// Probes answered from the range tier (no authority asked).
    pub synthesized: u64,
    /// Upstream queries the sweep cost (misses walking to the TLDs).
    pub queries: u64,
}

impl SweepReport {
    /// Fraction of probes the range tier answered.
    pub fn hit_ratio(&self) -> f64 {
        self.synthesized as f64 / self.probes.max(1) as f64
    }
}

/// The complete scan output.
pub struct ScanResult {
    /// The final streaming-aggregation snapshot (`complete == true`):
    /// every report number, typed. This is what the renderers in
    /// [`crate::report`] consume.
    pub stats: StatsSnapshot,
    /// The snapshot taken when pass 1 had joined (`complete == false`):
    /// every non-revisit domain folded, the revisit categories still to
    /// come. Read after every worker flushed, so it is as deterministic
    /// in its results as `stats`.
    pub pass1: StatsSnapshot,
    /// The query-log ring's retained records, in arrival (`seq`) order.
    /// Both passes appear (a revisited domain has a pass-1 and a pass-2
    /// record); with a ring smaller than the query count, the oldest
    /// records were spilled or dropped — `log.spilled` / `log.dropped`
    /// say which.
    pub records: Vec<QueryRecord>,
    /// Query-log occupancy and spill accounting.
    pub log: QueryLogStats,
    /// Streaming-pipeline counters (merge count and cost).
    pub stream: StreamReport,
    /// The transport's accounting — the simulated analogue of the
    /// paper's §5 traffic accounting: queries, delivered, failed, and
    /// the stream-channel, truncation and fault counters. The number of
    /// resolutions and the synthesis-sweep report (the sweep runs after
    /// both passes with the range tier frozen, so it never perturbs the
    /// records above) are in `stats.traffic`.
    pub traffic_full: ede_netsim::TrafficSnapshot,
    /// Metrics collected through the trace pipeline during the scan
    /// (query/outcome counters, cache ratios, per-vendor EDE counts,
    /// latency histograms). `metrics.queries_sent` equals
    /// `traffic_full.queries`: both count the same transport events.
    pub metrics: MetricsSnapshot,
    /// Per-tier cache accounting (L2, infra, ranges) at the end of the
    /// scan — the same report `stats.cache` carries.
    pub cache: ScanCacheReport,
}

impl ScanResult {
    /// The final record per domain ("the last response wins", as in a
    /// longitudinal probe): pass-2 records shadow pass-1 records for
    /// revisited domains. Returned in domain-index order. With a ring
    /// smaller than the population, domains whose records rotated out
    /// are absent.
    pub fn final_records(&self) -> Vec<&QueryRecord> {
        let mut last: BTreeMap<usize, &QueryRecord> = BTreeMap::new();
        for r in &self.records {
            // `records` is in seq order, so a later insert is a later
            // response.
            last.insert(r.domain, r);
        }
        last.into_values().collect()
    }

    /// Upstream queries per *registered domain* — the paper's §5 cost
    /// metric, derived from the shared [`StatsSnapshot`] so the report
    /// and the bench writer can never drift.
    pub fn queries_per_domain(&self) -> f64 {
        self.stats.queries_per_domain()
    }
}

/// Scan config.
///
/// `#[non_exhaustive]`: construct with [`ScanConfig::default()`] or the
/// fluent [`ScanConfig::builder()`], then adjust fields.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ScanConfig {
    /// Worker threads.
    pub workers: usize,
    /// Resolutions each worker keeps in flight on its event-driven task
    /// pool: the window. `1` (the default) finishes each resolution
    /// before admitting the next; a larger window multiplexes that many
    /// resumable resolutions per worker thread. Results are
    /// bit-identical at any window (see `docs/CONCURRENCY.md`).
    pub inflight: usize,
    /// Vendor to scan with (the paper uses Cloudflare).
    pub vendor: Vendor,
    /// Print live progress lines to stderr while scanning.
    pub progress: bool,
    /// Nonexistent-name probes per registered domain for the post-scan
    /// synthesis sweep (`0.0`, the default, disables the sweep). The
    /// sweep runs after both passes with the range tier frozen and its
    /// probes excluded from the records, so any setting leaves the
    /// scan report untouched.
    pub sweep_ratio: f64,
    /// Query-log ring capacity (records retained in memory). Purely a
    /// memory knob: the streaming aggregation never reads the ring, so
    /// any capacity produces the same report.
    pub query_log_capacity: usize,
    /// Spill rotated-out query-log records to this JSONL file instead
    /// of dropping them (`None` drops, counted).
    pub query_log_spill: Option<PathBuf>,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
            inflight: 1,
            vendor: Vendor::Cloudflare,
            progress: false,
            sweep_ratio: 0.0,
            query_log_capacity: 65_536,
            query_log_spill: None,
        }
    }
}

impl ScanConfig {
    /// Start a fluent builder from the defaults.
    pub fn builder() -> ScanConfigBuilder {
        ScanConfigBuilder {
            config: ScanConfig::default(),
        }
    }
}

/// Fluent builder for [`ScanConfig`]; finish with
/// [`build`](ScanConfigBuilder::build).
///
/// ```
/// use ede_scan::ScanConfig;
/// use ede_resolver::Vendor;
///
/// let config = ScanConfig::builder()
///     .workers(1)
///     .vendor(Vendor::Cloudflare)
///     .query_log_capacity(4096)
///     .build();
/// assert_eq!(config.workers, 1);
/// assert_eq!(config.query_log_capacity, 4096);
/// ```
#[derive(Debug, Clone)]
pub struct ScanConfigBuilder {
    config: ScanConfig,
}

impl ScanConfigBuilder {
    /// Set the worker-pool size.
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Set the per-worker in-flight resolution window (at least `1`).
    pub fn inflight(mut self, n: usize) -> Self {
        self.config.inflight = n.max(1);
        self
    }

    /// Set the scanning vendor profile.
    pub fn vendor(mut self, vendor: Vendor) -> Self {
        self.config.vendor = vendor;
        self
    }

    /// Enable or disable live progress lines.
    pub fn progress(mut self, on: bool) -> Self {
        self.config.progress = on;
        self
    }

    /// Set the synthesis-sweep probe ratio (`0.0` disables the sweep).
    pub fn sweep_ratio(mut self, ratio: f64) -> Self {
        self.config.sweep_ratio = ratio.max(0.0);
        self
    }

    /// Set the query-log ring capacity.
    pub fn query_log_capacity(mut self, n: usize) -> Self {
        self.config.query_log_capacity = n.max(1);
        self
    }

    /// Spill rotated-out query-log records to a JSONL file.
    pub fn query_log_spill(mut self, path: Option<PathBuf>) -> Self {
        self.config.query_log_spill = path;
        self
    }

    /// Finish, yielding the configuration.
    pub fn build(self) -> ScanConfig {
        self.config
    }
}

/// Fold one finished resolution into a query record.
fn record_from(
    pop: &Population,
    idx: usize,
    res: &Resolution,
    vendor: Vendor,
    pass: u8,
    vtime_ms: u64,
) -> QueryRecord {
    let d = &pop.domains[idx];
    let network_error_text = res
        .ede
        .iter()
        .find(|e| e.code.to_u16() == 23)
        .map(|e| e.extra_text.clone());
    // The dotted form is one octet shorter than the wire form (bar
    // escapes): rendered once, in a buffer that does not have to grow.
    let mut name = String::with_capacity(d.name.wire_len());
    write!(name, "{}", d.name).expect("writing to a String cannot fail");
    QueryRecord {
        seq: 0, // assigned by the query log at push
        vtime_ms,
        pass,
        domain: idx,
        name,
        tld: d.tld,
        rank: d.rank,
        category: d.category,
        vendor,
        rcode: res.rcode,
        codes: res.ede_codes(),
        network_error_text,
    }
}

/// Detaches the world's trace sink on drop — including during unwind,
/// so a panicking worker cannot leak this scan's metrics sink into the
/// next scan (or troubleshoot run) on the same world.
struct SinkGuard<'a> {
    net: &'a ede_netsim::Network,
}

impl Drop for SinkGuard<'_> {
    fn drop(&mut self) {
        self.net.clear_trace_sink();
    }
}

/// How many domains a worker claims per cursor bump. Chunking amortizes
/// the shared-cursor traffic without hurting load balance: chunks are
/// tiny relative to any real population. The same chunk is the unit of
/// streaming delivery: one query-log push and one partial-aggregate
/// merge per chunk, so neither lock is per-resolution hot.
const CLAIM_CHUNK: usize = 16;

/// Shared progress state for [`parallel_pass`].
struct PassProgress<'a> {
    metrics: &'a Metrics,
    done: &'a AtomicUsize,
    step: usize,
    total: usize,
    enabled: bool,
}

impl PassProgress<'_> {
    /// Count one finished resolution and maybe print a progress line.
    fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if self.enabled && done.is_multiple_of(self.step) {
            let snap = self.metrics.snapshot();
            eprintln!(
                "scan: {done}/{} resolutions, {} queries, cache hit ratio {:.1}%",
                self.total,
                snap.queries_sent,
                100.0 * snap.cache_hit_ratio()
            );
        }
    }
}

/// Everything a pass worker needs besides the resolver: the streaming
/// destinations and the fold gate.
struct PassCtx<'a> {
    /// Which pass this is (stamped into records).
    pass: u8,
    /// Pass 1 skips folding revisit-category domains — their final
    /// record comes from pass 2, and each domain must fold exactly
    /// once. Pass 2 folds everything it resolves.
    fold_revisit: bool,
    pop: &'a Population,
    net: &'a ede_netsim::Network,
    log: &'a QueryLog,
    vendor: Vendor,
    store: &'a SnapshotStore,
    progress: &'a PassProgress<'a>,
}

impl PassCtx<'_> {
    /// Should this record fold into the streaming aggregate?
    fn folds(&self, idx: usize) -> bool {
        self.fold_revisit || !self.pop.domains[idx].category.needs_revisit()
    }

    /// Deliver one finished chunk: a single ring push and a single
    /// store merge.
    fn flush(&self, records: Vec<QueryRecord>, chunk_agg: PartialAggregate) {
        self.log.push_batch(records);
        self.store.merge(chunk_agg);
    }

    /// Build the record for one finished resolution and fold it if the
    /// gate says so.
    fn record(
        &self,
        idx: usize,
        res: &Resolution,
        chunk_agg: &mut PartialAggregate,
    ) -> QueryRecord {
        let rec = record_from(
            self.pop,
            idx,
            res,
            self.vendor,
            self.pass,
            self.net.clock().now_millis(),
        );
        if self.folds(idx) {
            chunk_agg.fold(&rec);
        }
        self.progress.tick();
        rec
    }
}

/// The one worker loop, shared by both passes and the sweep: claim a
/// chunk of `0..count` off the shared cursor, keep up to `inflight`
/// resumable resolutions of `name_of(i)` in flight on one
/// [`ResolutionPool`], and hand each finished one to `done` — in
/// completion order, which at a window of one is claim order.
fn drive_worker<'a>(
    resolver: &'a Resolver,
    count: usize,
    name_of: impl Fn(usize) -> &'a Name,
    cursor: &AtomicUsize,
    inflight: usize,
    mut done: impl FnMut(usize, Resolution),
) {
    let mut pool: ResolutionPool<(usize, Resolution)> = ResolutionPool::new(resolver.network());
    let mut backlog = 0..0;
    let mut exhausted = false;
    loop {
        while pool.in_flight() < inflight && !exhausted {
            let Some(i) = backlog.next() else {
                let start = cursor.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
                exhausted = start >= count;
                backlog = start..(start + CLAIM_CHUNK).min(count);
                continue;
            };
            let qname = name_of(i);
            pool.spawn(move |handle| async move {
                (i, resolver.resolve_with(&handle, qname, RrType::A).await)
            });
        }
        match pool.next() {
            Some((i, res)) => done(i, res),
            None => break,
        }
    }
}

/// One pass worker: [`drive_worker`] over `indices`, folding each
/// finished resolution into a **private** partial aggregate and
/// streaming it out every `CLAIM_CHUNK` results. Results surface in
/// completion order; the streaming fold is order-independent, so the
/// window changes nothing downstream.
fn pass_worker(
    resolver: &Resolver,
    ctx: &PassCtx<'_>,
    indices: &[usize],
    cursor: &AtomicUsize,
    inflight: usize,
) {
    let pop = ctx.pop;
    let mut records = Vec::with_capacity(CLAIM_CHUNK);
    let mut chunk_agg = PartialAggregate::default();
    drive_worker(
        resolver,
        indices.len(),
        |j| &pop.domains[indices[j]].name,
        cursor,
        inflight,
        |j, res| {
            records.push(ctx.record(indices[j], &res, &mut chunk_agg));
            if records.len() >= CLAIM_CHUNK {
                ctx.flush(
                    std::mem::replace(&mut records, Vec::with_capacity(CLAIM_CHUNK)),
                    std::mem::take(&mut chunk_agg),
                );
            }
        },
    );
    ctx.flush(records, chunk_agg);
}

/// One parallel pass over `indices`: workers claim chunks off a shared
/// cursor, fold each chunk into a **private** partial aggregate, and
/// stream it — one query-log push and one snapshot-store merge per
/// chunk. There is no end-of-pass output structure at all: by the time
/// the scope joins, every record is already in the ring and every fold
/// already merged.
fn parallel_pass(
    resolver: &Resolver,
    ctx: &PassCtx<'_>,
    indices: &[usize],
    workers: usize,
    inflight: usize,
) {
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| pass_worker(resolver, ctx, indices, &cursor, inflight));
        }
    });
}

/// Deterministic nonexistent probe names for the synthesis sweep: per
/// TLD, `ceil(children × ratio)` names one label below the TLD apex.
/// The `-sweep` suffix keeps them disjoint from every generated
/// population name, so a probe can never collide with a registered
/// domain.
fn sweep_probes(pop: &Population, ratio: f64) -> Vec<Name> {
    let mut per_tld = vec![0usize; pop.tlds.len()];
    for d in &pop.domains {
        per_tld[d.tld] += 1;
    }
    let mut probes = Vec::new();
    for (t, tld) in pop.tlds.iter().enumerate() {
        let n = (per_tld[t] as f64 * ratio).ceil() as usize;
        for j in 0..n {
            let label = format!("zzq{j}-sweep");
            probes.push(tld.name.child(&label).expect("probe label fits"));
        }
    }
    probes
}

/// Drive the sweep probes through the worker pool, discarding results:
/// sweep probes measure the range tier, they never contribute
/// records. Runs with the range tier frozen (the caller freezes
/// it), so every probe's outcome is a pure function of what the two
/// passes retained — bit-identical at any worker count or in-flight
/// window, exactly like the passes themselves.
fn sweep_pass(resolver: &Resolver, probes: &[Name], workers: usize, inflight: usize) {
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| {
                drive_worker(
                    resolver,
                    probes.len(),
                    |i| &probes[i],
                    &cursor,
                    inflight,
                    |_, _| {},
                );
            });
        }
    });
}

/// Run the scan: one pass over every domain, then a clock advance and a
/// revisit pass over the flap/cache categories (the paper's probes hit
/// such domains repeatedly through Cloudflare's shared cache). Both
/// passes run on the worker pool and stream their results — per-chunk
/// partial aggregates merged into a shared snapshot store, records into
/// the bounded query-log ring — so there is no end-of-scan aggregation
/// barrier and no unbounded outcome buffer. Results are bit-identical
/// at any worker count or in-flight window.
///
/// The scan reports per pass: the virtual clock stands still inside a
/// pass (the scan world charges no latency), so this thread takes one
/// [`StatsSnapshot`] when pass 1 has joined ([`ScanResult::pass1`]) and
/// one after pass 2 and the sweep ([`ScanResult::stats`]).
pub fn scan(pop: &Population, world: &ScanWorld, config: &ScanConfig) -> ScanResult {
    // Every transport/resolver/EDE event of the scan feeds the metrics
    // registry through the trace pipeline. The guard detaches the sink
    // when `scan` returns *or unwinds*.
    let metrics = Arc::new(Metrics::new());
    world
        .net
        .set_trace_sink(Arc::clone(&metrics) as Arc<dyn ede_trace::TraceSink>);
    let _sink_guard = SinkGuard { net: &world.net };

    let resolver = Resolver::new(
        Arc::clone(&world.net),
        VendorProfile::new(config.vendor),
        world.resolver_config.clone(),
    );

    let log = QueryLog::new(config.query_log_capacity, config.query_log_spill.as_deref())
        .expect("query-log spill file must be creatable");
    let store = SnapshotStore::default();

    // Prime the infrastructure cache: one serial (TLD, NS) resolution
    // per TLD walks every root→TLD delegation once, *before* the
    // workers start. Without this, which resolution populates a given
    // referral entry first — and therefore how many root queries the
    // scan issues — would depend on thread timing; with it, every
    // worker-count and in-flight configuration sees the same
    // pre-populated walk and the traffic and metrics counters stay
    // bit-identical across all of them.
    if world.resolver_config.enable_cache {
        for tld in &pop.tlds {
            let _ = resolver.resolve(&tld.name, RrType::Ns);
        }
    }

    let n = pop.domains.len();
    let first_pass: Vec<usize> = (0..n).collect();
    let revisit: Vec<usize> = (0..n)
        .filter(|&i| pop.domains[i].category.needs_revisit())
        .collect();
    let resolutions = AtomicUsize::new(0);
    let progress = PassProgress {
        metrics: &metrics,
        done: &resolutions,
        step: (n / 10).max(1),
        total: n + revisit.len(),
        enabled: config.progress,
    };
    let run_pass = |pass: u8, fold_revisit: bool, indices: &[usize]| {
        let ctx = PassCtx {
            pass,
            fold_revisit,
            pop,
            net: &world.net,
            log: &log,
            vendor: config.vendor,
            store: &store,
            progress: &progress,
        };
        parallel_pass(&resolver, &ctx, indices, config.workers, config.inflight)
    };
    // One snapshot of the store and the counters around it. Only ever
    // called between passes — every worker joined, every chunk merged —
    // which is what makes its results independent of worker timing.
    let snapshot = |complete: bool, sweep: Option<&SweepReport>| {
        let results = store.finalize(pop);
        let (queries, delivered, failed) = world.net.stats().snapshot();
        StatsSnapshot {
            schema_version: SCHEMA_VERSION,
            // Two snapshots per scan: pass 1 is 0, the final one 1.
            seq: u64::from(complete),
            vtime_ms: world.net.clock().now_millis(),
            complete,
            scale: pop.config.scale,
            fingerprint: results.fingerprint,
            ede: results.ede,
            tlds: results.tlds,
            ranks: results.ranks,
            cache: ScanCacheReport {
                l1: RetiredL1::default(),
                l2: resolver.cache_stats(),
                infra: resolver.infra_stats(),
                range: resolver.range_stats(),
            },
            traffic: TrafficStats {
                resolutions: resolutions.load(Ordering::Relaxed),
                queries,
                delivered,
                failed,
                sweep: sweep.cloned(),
            },
            query_log: log.stats(),
        }
    };

    // Pass 1: everything, in parallel. Revisit-category domains are
    // recorded but not folded — their final answer comes from pass 2.
    run_pass(1, false, &first_pass);
    let pass1 = snapshot(false, None);

    // Pass 2: revisit flap/cache domains after the flap window ("the
    // last response wins", as in a longitudinal probe).
    world.net.clock().advance_secs(120);
    run_pass(2, true, &revisit);

    // Sweep phase: after both passes finish (and therefore after every
    // record is final), freeze the range tier and probe deterministic
    // nonexistent names against it. Freezing makes every probe's
    // outcome a pure function of what the passes retained —
    // deterministic at any worker count — and running strictly last
    // means the sweep cannot perturb records, whatever it does to the
    // caches.
    let sweep = (config.sweep_ratio > 0.0).then(|| {
        resolver.freeze_ranges(true);
        let range_before = resolver.range_stats();
        let (queries_before, _, _) = world.net.stats().snapshot();
        let probes = sweep_probes(pop, config.sweep_ratio);
        sweep_pass(&resolver, &probes, config.workers, config.inflight);
        let range_after = resolver.range_stats();
        let (queries_after, _, _) = world.net.stats().snapshot();
        SweepReport {
            probes: probes.len(),
            synthesized: range_after.hits - range_before.hits,
            queries: queries_after - queries_before,
        }
    });

    // The final snapshot: the merged streaming aggregate plus the
    // sweep report, which only the end of the scan can know.
    let stats = snapshot(true, sweep.as_ref());
    let cache = stats.cache.clone();
    if config.progress {
        eprint!("{}", cache.render());
        if let Some(sweep) = &sweep {
            eprintln!(
                "sweep: {} synthesized / {} probes ({:.1}%), {} upstream queries",
                sweep.synthesized,
                sweep.probes,
                100.0 * sweep.hit_ratio(),
                sweep.queries,
            );
        }
    }

    let log_stats = log.stats();
    let records = log.into_records();
    ScanResult {
        stats,
        pass1,
        records,
        log: log_stats,
        stream: store.report(),
        traffic_full: world.net.stats().snapshot_full(),
        metrics: metrics.snapshot(),
        cache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{Category, PopulationConfig};
    use ede_wire::Rcode;

    /// What the scan streamed into `stats` must be what one fresh fold
    /// over its retained final records yields.
    fn assert_refold_matches(pop: &Population, result: &ScanResult) {
        let mut refold = PartialAggregate::default();
        for r in result.final_records() {
            refold.fold(r);
        }
        let refold = refold.finalize(pop);
        assert_eq!(refold.fingerprint, result.stats.fingerprint);
        assert_eq!(refold.ede, result.stats.ede);
        assert_eq!(refold.tlds, result.stats.tlds);
        assert_eq!(refold.ranks, result.stats.ranks);
    }

    #[test]
    fn tiny_scan_end_to_end() {
        let pop = Population::generate(PopulationConfig::tiny());
        let world = ScanWorld::build(&pop);
        let result = scan(&pop, &world, &ScanConfig::builder().workers(4).build());
        let finals = result.final_records();
        assert_eq!(finals.len(), pop.domains.len());
        assert_eq!(result.stats.ede.total_domains, pop.domains.len());
        assert!(result.stats.traffic.resolutions >= pop.domains.len());
        assert!(result.stats.complete);

        // Healthy domains resolve cleanly; lame ones carry codes.
        for obs in finals {
            match obs.category {
                Category::HealthyUnsigned | Category::HealthySigned => {
                    assert_eq!(obs.rcode, Rcode::NoError, "{}", obs.name);
                    assert!(obs.codes.is_empty(), "{}: {:?}", obs.name, obs.codes);
                }
                Category::LameRcode => {
                    assert_eq!(obs.codes, vec![22, 23], "{}", obs.name);
                }
                Category::StaleFlapRefuse => {
                    assert!(obs.codes.contains(&3), "{}: {:?}", obs.name, obs.codes);
                }
                Category::NotAuthCached => {
                    assert!(obs.codes.contains(&13), "{}: {:?}", obs.name, obs.codes);
                }
                _ => {}
            }
        }
    }

    /// The contention work (sharded caches, per-worker buffers,
    /// singleflight key fetches, streaming merges) must not buy speed
    /// with nondeterminism: 1 worker and 16 workers must produce
    /// identical records, streaming aggregates, metrics counters, and
    /// traffic totals.
    #[test]
    fn worker_count_does_not_change_results() {
        let run = |workers: usize| {
            let pop = Population::generate(PopulationConfig::tiny());
            let world = ScanWorld::build(&pop);
            let result = scan(
                &pop,
                &world,
                &ScanConfig::builder()
                    .workers(workers)
                    .vendor(Vendor::Cloudflare)
                    .build(),
            );
            assert_refold_matches(&pop, &result);
            result
        };
        let serial = run(1);
        let parallel = run(16);
        assert_eq!(serial.final_records(), parallel.final_records());
        assert_eq!(serial.stats.traffic, parallel.stats.traffic);
        assert_eq!(serial.traffic_full, parallel.traffic_full);
        assert_eq!(serial.metrics, parallel.metrics);
        assert!(serial.stats.same_results(&parallel.stats));
        assert_eq!(serial.stats.fingerprint, parallel.stats.fingerprint);
    }

    /// The event-driven task pools must not buy concurrency with
    /// changed results either: any in-flight window produces the same
    /// records, aggregates, traffic totals, and metrics counters
    /// as a window of one. Only the scheduler statistics (peak gauges)
    /// may differ — they measure the scheduling itself, so the
    /// comparison strips them.
    #[test]
    fn inflight_window_does_not_change_results() {
        let run = |workers: usize, inflight: usize| {
            let pop = Population::generate(PopulationConfig::tiny());
            let world = ScanWorld::build(&pop);
            let result = scan(
                &pop,
                &world,
                &ScanConfig::builder()
                    .workers(workers)
                    .inflight(inflight)
                    .build(),
            );
            assert_refold_matches(&pop, &result);
            result
        };
        let single = run(1, 1);
        let resolutions = single.stats.traffic.resolutions as u64;
        assert_eq!(single.metrics.tasks_spawned, resolutions);
        assert_eq!(single.metrics.inflight_tasks_peak, 1);
        for (workers, inflight) in [(1, 2), (1, 64), (4, 16)] {
            let pooled = run(workers, inflight);
            assert_eq!(
                single.final_records(),
                pooled.final_records(),
                "inflight {inflight}"
            );
            assert_eq!(single.stats.traffic, pooled.stats.traffic);
            assert_eq!(single.traffic_full, pooled.traffic_full);
            assert!(
                single.stats.same_results(&pooled.stats),
                "inflight {inflight}"
            );
            assert_eq!(
                single.metrics.without_scheduler_stats(),
                pooled.metrics.without_scheduler_stats(),
                "inflight {inflight}"
            );
            // Every domain became a task, every task completed, and the
            // wider window really was used.
            assert_eq!(pooled.metrics.tasks_spawned, resolutions);
            assert_eq!(pooled.metrics.tasks_completed, pooled.metrics.tasks_spawned);
            assert!(
                pooled.metrics.inflight_tasks_peak > 1,
                "inflight {inflight}"
            );
        }
    }

    /// The RFC 8198 pin: turning denial synthesis on (with a sweep)
    /// must leave every record — and therefore the whole per-EDE /
    /// per-TLD report — byte-identical to the synthesis-free scan.
    /// Registered names are chain owners of their TLD's NSEC3 registry,
    /// so no validated range ever covers one; only the sweep's
    /// nonexistent probes synthesize, and those are excluded from the
    /// records. The sweep itself must really fire (nonzero
    /// synthesis, cheaper traffic) and stay deterministic across
    /// worker/in-flight configurations.
    #[test]
    fn synthesis_is_report_neutral_and_sweep_synthesizes() {
        let run = |synthesize: bool, workers: usize, inflight: usize| {
            let pop = Population::generate(PopulationConfig::tiny());
            let mut world = ScanWorld::build(&pop);
            world.resolver_config.synthesize_denial = synthesize;
            let result = scan(
                &pop,
                &world,
                &ScanConfig::builder()
                    .workers(workers)
                    .inflight(inflight)
                    .sweep_ratio(1.5)
                    .build(),
            );
            let summary = crate::report::scan_summary(&result.stats);
            (result, summary)
        };
        let (off, summary_off) = run(false, 1, 1);
        let (on, summary_on) = run(true, 1, 1);

        // Identical results: synthesis changes traffic, never what the
        // scan observes. (The full JSON documents differ only in the
        // traffic/cache performance sections, so compare results.)
        assert_eq!(off.final_records(), on.final_records());
        assert!(off.stats.same_results(&on.stats), "scan results changed");
        assert_eq!(summary_off, summary_on, "human summary changed");

        // The sweep ran in both legs, probing the same names; only the
        // synthesis leg answered some from the range tier.
        let sweep_off = off.stats.traffic.sweep.clone().expect("sweep ran");
        let sweep_on = on.stats.traffic.sweep.clone().expect("sweep ran");
        assert_eq!(sweep_off.probes, sweep_on.probes);
        assert_eq!(sweep_off.synthesized, 0);
        assert_eq!(sweep_off.queries, sweep_off.probes as u64);
        assert!(
            sweep_on.synthesized > 0,
            "no probe was answered from cached ranges"
        );
        assert!(
            sweep_on.queries < sweep_off.queries,
            "synthesis did not save upstream traffic"
        );
        assert!(on.queries_per_domain() < off.queries_per_domain());
        assert!(on.cache.range.hits > 0);
        assert_eq!(off.cache.range.hits + off.cache.range.misses, 0);
        // Deterministic at any worker count / in-flight window, sweep
        // included: same records, same traffic, same sweep report.
        let (on_parallel, _) = run(true, 4, 16);
        assert_eq!(on.final_records(), on_parallel.final_records());
        assert_eq!(on.traffic_full, on_parallel.traffic_full);
        assert_eq!(on.stats.traffic, on_parallel.stats.traffic);
        assert!(on.stats.same_results(&on_parallel.stats));
    }

    /// A panic inside the scan must not leak the metrics sink into the
    /// next scan (or troubleshoot run) on the same world: the RAII
    /// guard detaches it during unwind.
    #[test]
    fn sink_guard_clears_tracer_on_unwind() {
        let pop = Population::generate(PopulationConfig::tiny());
        let world = ScanWorld::build(&pop);
        let metrics = Arc::new(Metrics::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            world
                .net
                .set_trace_sink(Arc::clone(&metrics) as Arc<dyn ede_trace::TraceSink>);
            let _guard = SinkGuard { net: &world.net };
            assert!(world.net.tracer().enabled());
            panic!("worker exploded");
        }));
        assert!(result.is_err());
        assert!(
            !world.net.tracer().enabled(),
            "trace sink leaked past the panic"
        );
    }

    #[test]
    fn scan_is_deterministic_across_runs() {
        let run = || {
            let pop = Population::generate(PopulationConfig::tiny());
            let world = ScanWorld::build(&pop);
            let result = scan(&pop, &world, &ScanConfig::builder().workers(2).build());
            (
                result.stats.fingerprint,
                result
                    .final_records()
                    .iter()
                    .map(|o| (o.name.clone(), o.codes.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }
}
