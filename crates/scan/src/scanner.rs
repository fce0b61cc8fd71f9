//! The scanner: drive a resolver over the whole input list from a
//! worker pool, each worker folding its results into one private
//! partial aggregate that the scan merges when the pass joins, and
//! pushing its records into a bounded query-log ring instead of an
//! unbounded outcome buffer — plus the revisit pass for flap/cache
//! phenomena.

use crate::aggregate::PartialAggregate;
use crate::population::Population;
use crate::querylog::{QueryLog, QueryLogStats, QueryRecord};
use crate::stats::v1::{StatsSnapshot, SCHEMA_VERSION};
use crate::world::ScanWorld;
use ede_resolver::{
    CacheStatsSnapshot, InfraStatsSnapshot, Resolution, Resolver, Vendor, VendorProfile,
};
use ede_trace::{Metrics, MetricsSnapshot};
use ede_wire::RrType;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// Per-tier cache accounting for one scan: the shared L2 store and the
/// infrastructure cache. Reported alongside the
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
        out
    }
}

/// The scan's merges of its workers' partial aggregates: one per worker
/// and pass, when the pass has joined. Reported in [`ScanResult`] and
/// the bench log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Partial-aggregate merges performed.
    pub merges: u64,
    /// Wall-clock nanoseconds spent merging (the `aggregate_merge_ns`
    /// bench field).
    pub merge_ns: u64,
}

impl StreamReport {
    /// Merge a joined pass's `partials` into `into`, counting and timing
    /// each merge.
    fn merge_all(&mut self, into: &mut PartialAggregate, partials: Vec<PartialAggregate>) {
        for partial in partials {
            let t = Instant::now();
            into.merge(partial);
            self.merge_ns += t.elapsed().as_nanos() as u64;
            self.merges += 1;
        }
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
    /// come. Taken from the merge of every worker's partial, so it is as
    /// deterministic in its results as `stats`.
    pub pass1: StatsSnapshot,
    /// The query-log ring's retained records, in arrival (`seq`) order.
    /// Both passes appear (a revisited domain has a pass-1 and a pass-2
    /// record); with a ring smaller than the query count, the oldest
    /// records were spilled or dropped — `log.spilled` / `log.dropped`
    /// say which.
    pub records: Vec<QueryRecord>,
    /// Query-log occupancy and spill accounting.
    pub log: QueryLogStats,
    /// The join merges' count and cost.
    pub stream: StreamReport,
    /// Metrics collected through the trace pipeline during the scan
    /// (walk, validation and outcome counters, per-vendor EDE counts,
    /// latency histograms). Transport counts are `stats.traffic`'s and
    /// cache counts `stats.cache`'s, not counted here a second time.
    pub metrics: MetricsSnapshot,
    /// Per-tier cache accounting (L2, infra) at the end of the
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
}

/// The vendor profile every scan resolves through: Cloudflare, the
/// resolver of the paper's §4 scan. Each record still names it
/// (`QueryRecord::vendor`), so a spill stays self-describing.
const SCAN_VENDOR: Vendor = Vendor::Cloudflare;

/// Scan config.
///
/// `#[non_exhaustive]`: construct with [`ScanConfig::default()`] or the
/// fluent [`ScanConfig::builder()`], then adjust fields.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ScanConfig {
    /// Worker threads.
    pub workers: usize,
    /// Print live progress lines to stderr while scanning.
    pub progress: bool,
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
            progress: false,
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
///
/// let config = ScanConfig::builder()
///     .workers(1)
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

    /// Shim: accepts only `1`, and panics on any other value. A worker
    /// resolves its claims one name at a time: the scan world charges no
    /// latency, so there is nothing to overlap. `benchmark/src/workloads.rs`
    /// still calls it; ROADMAP item 1(a) drops that call and then
    /// deletes this setter.
    pub fn inflight(self, n: usize) -> Self {
        assert_eq!(n, 1, "a scan worker resolves one name at a time");
        self
    }

    /// Enable or disable live progress lines.
    pub fn progress(mut self, on: bool) -> Self {
        self.config.progress = on;
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

/// How many records a worker holds before it hands them on: one
/// query-log push and one progress count per batch, so neither the
/// ring's lock nor the shared count is per-resolution hot. A worker also
/// hands on what it holds when it finishes.
const FLUSH_EVERY: usize = 16;

/// How many of a claim's children a worker looks up at a time: each
/// child's population index, read at a random place of the registry,
/// and then its record, two cache misses in a row. Taken one resolution
/// at a time they stalled it (≈ 1 100 cycles per domain at 1:1000,
/// against ≈ 400 for the record alone when claims held indices; see
/// docs/PERFORMANCE.md, "The claims' lookups"); a batch's lookups
/// depend on nothing and overlap.
const MAP_AHEAD: usize = 64;

/// Shared progress state for [`parallel_pass`].
struct PassProgress<'a> {
    resolver: &'a Resolver,
    done: &'a AtomicUsize,
    step: usize,
    total: usize,
    enabled: bool,
}

impl PassProgress<'_> {
    /// Count `n` finished resolutions — a flushed batch's, so the shared
    /// count is written once per batch, not once per resolution — and
    /// print a progress line when the count crosses a multiple of
    /// `step`: the transport's query count and the answer cache's hit
    /// ratio, each read from the layer that keeps it.
    fn tick(&self, n: usize) {
        let before = self.done.fetch_add(n, Ordering::Relaxed);
        let done = before + n;
        if self.enabled && before / self.step != done / self.step {
            eprintln!(
                "scan: {done}/{} resolutions, {} queries, cache hit ratio {:.1}%",
                self.total,
                self.resolver.network().stats().snapshot().0,
                100.0 * self.resolver.cache_stats().hit_ratio()
            );
        }
    }
}

/// A pass's work, TLD-major: one claim per TLD, largest TLD first (ties
/// by TLD index), so that a TLD's delegation state is read while its
/// claims are in flight and not after.
///
/// A TLD larger than a worker's share of the pass is claimed in pieces
/// of that share, so that no claim holds more than one worker's share
/// and the pass never ends waiting on one worker alone inside the
/// largest TLD.
struct ClaimPlan<'a> {
    /// Each claim a run of one TLD's domains, as
    /// [`ScanWorld::tld_children`] lists them.
    claims: Vec<&'a [u32]>,
}

impl<'a> ClaimPlan<'a> {
    /// The plan over `groups`, the pass's domains of each TLD in TLD
    /// index order.
    fn new<G: AsRef<[u32]>>(groups: &'a [G], workers: usize) -> Self {
        let groups: Vec<&'a [u32]> = groups.iter().map(AsRef::as_ref).collect();
        let total: usize = groups.iter().map(|g| g.len()).sum();
        let piece = total.div_ceil(workers.max(1)).max(1);
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&tld| (std::cmp::Reverse(groups[tld].len()), tld));
        let claims = order
            .into_iter()
            .flat_map(|tld| groups[tld].chunks(piece))
            .collect();
        ClaimPlan { claims }
    }
}

/// Everything a pass worker needs besides the resolver: the query log,
/// the progress count and the fold gate.
struct PassCtx<'a> {
    /// Which pass this is (stamped into records).
    pass: u8,
    /// Pass 1 skips folding revisit-category domains — their final
    /// record comes from pass 2, and each domain must fold exactly
    /// once. Pass 2 folds everything it resolves.
    fold_revisit: bool,
    pop: &'a Population,
    world: &'a ScanWorld,
    log: &'a QueryLog,
    progress: &'a PassProgress<'a>,
}

impl PassCtx<'_> {
    /// Should this record fold into the streaming aggregate?
    fn folds(&self, idx: usize) -> bool {
        self.fold_revisit || !self.pop.domains[idx].category.needs_revisit()
    }

    /// Deliver the batch in `records`, leaving it empty: a single
    /// progress count and a single ring push.
    fn flush(&self, records: &mut Vec<QueryRecord>) {
        let records = std::mem::replace(records, Vec::with_capacity(FLUSH_EVERY));
        self.progress.tick(records.len());
        self.log.push_batch(records);
    }

    /// Build the record for one finished resolution and fold it into
    /// `partial` if the gate says so.
    fn record(&self, idx: usize, res: &Resolution, partial: &mut PartialAggregate) -> QueryRecord {
        let rec =
            QueryRecord::of_resolution(idx, &self.pop.domains[idx], res, SCAN_VENDOR, self.pass);
        if self.folds(idx) {
            partial.fold(&rec);
        }
        rec
    }
}

/// One pass worker: take the plan's next claim off the shared cursor,
/// resolve its domains in claim order, and fold each into its
/// **private** partial aggregate, which it returns when the plan is
/// exhausted. Its records go to the query log every [`FLUSH_EVERY`]
/// results.
///
/// A name the scan asks again keeps its answer in the answer cache
/// ([`Resolver::resolve`]); every other name goes through
/// [`Resolver::resolve_once`]. The choice is the domain's, so it is the
/// same at any worker count.
fn pass_worker(
    resolver: &Resolver,
    ctx: &PassCtx<'_>,
    plan: &ClaimPlan<'_>,
    cursor: &AtomicUsize,
) -> PartialAggregate {
    let domains = &ctx.pop.domains;
    let mut records = Vec::with_capacity(FLUSH_EVERY);
    let mut partial = PartialAggregate::default();
    while let Some(claim) = plan.claims.get(cursor.fetch_add(1, Ordering::Relaxed)) {
        for batch in claim.chunks(MAP_AHEAD) {
            let mut ahead = [(0, false); MAP_AHEAD];
            for (slot, &child) in ahead.iter_mut().zip(batch) {
                let i = ctx.world.domain_index(child);
                *slot = (i, domains[i].category.needs_revisit());
            }
            for &(i, asked_again) in &ahead[..batch.len()] {
                let qname = &domains[i].name;
                let res = if asked_again {
                    resolver.resolve(qname, RrType::A)
                } else {
                    resolver.resolve_once(qname, RrType::A)
                };
                records.push(ctx.record(i, &res, &mut partial));
                if records.len() == FLUSH_EVERY {
                    ctx.flush(&mut records);
                }
            }
        }
    }
    if !records.is_empty() {
        ctx.flush(&mut records);
    }
    partial
}

/// One parallel pass over `plan`: workers take claims off a shared
/// cursor and fold them into **private** partial aggregates, which the
/// pass returns, one per worker, when the scope joins. By then every
/// record is in the ring.
fn parallel_pass(
    resolver: &Resolver,
    ctx: &PassCtx<'_>,
    plan: &ClaimPlan<'_>,
    workers: usize,
) -> Vec<PartialAggregate> {
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| s.spawn(|| pass_worker(resolver, ctx, plan, &cursor)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Pass 2's domains by TLD, each list in population order, as
/// [`ScanWorld::tld_children`] holds them: one walk over the population,
/// and a registry lookup for a revisit domain only.
fn revisit_lists(pop: &Population, world: &ScanWorld) -> Vec<Vec<u32>> {
    let mut revisits = vec![Vec::new(); pop.tlds.len()];
    for domain in pop.domains.iter().filter(|d| d.category.needs_revisit()) {
        revisits[usize::from(domain.tld)].push(world.child_entry(domain));
    }
    revisits
}

/// Run the scan: one pass over every domain, then a clock advance and a
/// revisit pass over the flap/cache categories (the paper's probes hit
/// such domains repeatedly through Cloudflare's shared cache). Both
/// passes run on the worker pool, claiming one TLD's domains at a time.
/// Each worker folds into its own partial aggregate, merged into the
/// scan's when the pass joins, and pushes its records into the bounded
/// query-log ring, so there is no unbounded outcome buffer. Results are
/// bit-identical at any worker count.
///
/// The scan keeps only what it reads again: a domain the scan does not
/// revisit leaves neither its answer nor its zone's keys in the
/// resolver's caches ([`Resolver::resolve_once`]).
///
/// The scan reports per pass: the virtual clock stands still inside a
/// pass (the scan world charges no latency), so this thread takes one
/// [`StatsSnapshot`] when pass 1 has joined ([`ScanResult::pass1`]) and
/// one after pass 2 ([`ScanResult::stats`]), each from the merged
/// aggregate.
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
        VendorProfile::new(SCAN_VENDOR),
        world.resolver_config.clone(),
    );

    let log = QueryLog::new(config.query_log_capacity, config.query_log_spill.as_deref())
        .expect("query-log spill file must be creatable");

    // Prime the infrastructure cache: one serial (TLD, NS) resolution
    // per TLD walks every root→TLD delegation once, *before* the
    // workers start. Without this, which resolution populates a given
    // referral entry first — and therefore how many root queries the
    // scan issues — would depend on thread timing; with it, every
    // worker count sees the same pre-populated walk and the traffic and
    // metrics counters stay bit-identical across all of them.
    for tld in &pop.tlds {
        let _ = resolver.resolve(&tld.name, RrType::Ns);
    }

    // Pass 1 claims every TLD's children, pass 2 the revisit domains
    // among them, each TLD-major (see [`ClaimPlan`]).
    let children: Vec<&[u32]> = (0..pop.tlds.len()).map(|t| world.tld_children(t)).collect();
    let revisits = revisit_lists(pop, world);
    let n = pop.domains.len();
    let revisit_count: usize = revisits.iter().map(Vec::len).sum();
    let resolutions = AtomicUsize::new(0);
    let progress = PassProgress {
        resolver: &resolver,
        done: &resolutions,
        step: (n / 10).max(1),
        total: n + revisit_count,
        enabled: config.progress,
    };
    let run_pass = |pass: u8, fold_revisit: bool, plan: &ClaimPlan<'_>| {
        let ctx = PassCtx {
            pass,
            fold_revisit,
            pop,
            world,
            log: &log,
            progress: &progress,
        };
        parallel_pass(&resolver, &ctx, plan, config.workers)
    };
    // One snapshot of the merged aggregate and the counters around it.
    // Only ever taken between passes — every worker joined, every
    // partial merged — which is what makes its results independent of
    // worker timing.
    let snapshot = |merged: &PartialAggregate, complete: bool| {
        let results = merged.finalize(pop);
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
            },
            resolutions: resolutions.load(Ordering::Relaxed),
            traffic: world.net.stats().snapshot_full(),
            query_log: log.stats(),
        }
    };

    // Pass 1: everything, in parallel. Revisit-category domains are
    // recorded but not folded — their final answer comes from pass 2.
    let mut merged = PartialAggregate::default();
    let mut stream = StreamReport::default();
    let partials = run_pass(1, false, &ClaimPlan::new(&children, config.workers));
    stream.merge_all(&mut merged, partials);
    let pass1 = snapshot(&merged, false);

    // Pass 2: revisit flap/cache domains after the flap window ("the
    // last response wins", as in a longitudinal probe).
    world.net.clock().advance_secs(120);
    let partials = run_pass(2, true, &ClaimPlan::new(&revisits, config.workers));
    stream.merge_all(&mut merged, partials);

    // The spill is flushed first, so that the final snapshot counts a
    // spill that could not be written as dropped.
    log.flush_spill();
    let stats = snapshot(&merged, true);
    let cache = stats.cache.clone();

    let log_stats = log.stats();
    let records = log.into_records();
    ScanResult {
        stats,
        pass1,
        records,
        log: log_stats,
        stream,
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
        assert!(result.stats.resolutions >= pop.domains.len());
        assert!(result.stats.complete);

        // Healthy domains resolve cleanly; lame ones carry codes.
        for obs in finals {
            match obs.category {
                Category::HealthyUnsigned | Category::HealthySigned => {
                    assert_eq!(obs.rcode, Rcode::NoError, "{}", obs.name);
                    assert!(obs.codes.is_empty(), "{}: {:?}", obs.name, obs.codes);
                }
                Category::LameRcode => {
                    assert_eq!(*obs.codes, [22, 23], "{}", obs.name);
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
    /// singleflight key fetches, per-worker partials) must not buy speed
    /// with nondeterminism: 1, 4 and 16 workers must produce
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
                &ScanConfig::builder().workers(workers).build(),
            );
            assert_refold_matches(&pop, &result);
            result
        };
        let serial = run(1);
        assert_eq!(serial.stream.merges, 2);
        for workers in [4, 16] {
            let parallel = run(workers);
            assert_eq!(serial.final_records(), parallel.final_records());
            assert_eq!(serial.stats.resolutions, parallel.stats.resolutions);
            assert_eq!(serial.stats.traffic, parallel.stats.traffic);
            assert_eq!(serial.metrics, parallel.metrics, "{workers} workers");
            // The cache tiers' counts are summed over stripes too: L2
            // and infra alike.
            assert_eq!(serial.cache, parallel.cache, "{workers} workers");
            assert_eq!(serial.stats.fingerprint, parallel.stats.fingerprint);
            assert_eq!(serial.stats.ede, parallel.stats.ede);
            assert_eq!(serial.stats.tlds, parallel.stats.tlds);
            assert_eq!(serial.stats.ranks, parallel.stats.ranks);
            // One merge per worker and pass, when the pass joins.
            assert_eq!(parallel.stream.merges, 2 * workers as u64);
        }
    }

    /// Pass 2's lists, built in one walk over the population, are the
    /// lists that filtering each TLD's children makes, at the tiny scale
    /// and at 1:20000.
    #[test]
    fn revisit_lists_are_each_tlds_revisit_children_in_order() {
        let twenty_thousandth = PopulationConfig {
            scale: 20_000,
            ..Default::default()
        };
        for config in [PopulationConfig::tiny(), twenty_thousandth] {
            let pop = Population::generate(config);
            let world = ScanWorld::build(&pop);
            let filtered: Vec<Vec<u32>> = (0..pop.tlds.len())
                .map(|t| {
                    world
                        .tld_children(t)
                        .iter()
                        .copied()
                        .filter(|&c| pop.domains[world.domain_index(c)].category.needs_revisit())
                        .collect()
                })
                .collect();
            let revisits = revisit_lists(&pop, &world);
            assert!(revisits.iter().map(Vec::len).sum::<usize>() > 0);
            assert_eq!(revisits, filtered, "1:{}", pop.config.scale);
        }
    }

    /// The answer cache keeps only what the scan reads back: the
    /// revisit-category domains pass 2 asks again, plus the TLD
    /// priming's one entry per TLD — never one entry per domain, at any
    /// worker count. Under an entry budget far below that, it
    /// keeps no more than the budget and evicts, and the scan still folds
    /// every domain (an eviction may legally change what pass 2 observes,
    /// so that scan is compared with nothing).
    #[test]
    fn answer_cache_keeps_only_what_pass_2_reads_back() {
        let pop = Population::generate(PopulationConfig::tiny());
        let revisited = pop
            .domains
            .iter()
            .filter(|d| d.category.needs_revisit())
            .count();
        let bound = (revisited + pop.tlds.len()) as u64;
        assert!(bound < pop.domains.len() as u64);
        for (workers, budget) in [(1, None), (4, None), (1, Some(8))] {
            let mut world = ScanWorld::build(&pop);
            world.resolver_config.max_cache_entries = budget;
            let config = ScanConfig::builder().workers(workers).build();
            let result = scan(&pop, &world, &config);
            assert_eq!(result.stats.ede.total_domains, pop.domains.len());
            let l2 = result.cache.l2;
            if let Some(budget) = budget {
                assert!(l2.occupancy <= budget as u64, "budget {budget}: {l2:?}");
                assert!(l2.evicted > 0, "budget {budget} evicted nothing: {l2:?}");
                continue;
            }
            assert!(
                l2.occupancy_peak <= bound,
                "{workers} workers: {} entries at peak, bound {bound}",
                l2.occupancy_peak
            );
            // Pass 2 found every revisited domain's pass-1 entry.
            assert!(l2.hits + l2.stale_served >= revisited as u64, "{l2:?}");
        }
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
