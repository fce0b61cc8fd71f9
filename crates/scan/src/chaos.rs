//! Chaos campaigns: sweep the fault-plan intensity over the scan world
//! and report how the EDE-code inventory shifts.
//!
//! A campaign runs one scan *leg* per requested intensity, each on a
//! fresh [`ScanWorld`] built from the same population (flap state and
//! the virtual clock are part of a scan, so worlds are never reused):
//!
//! * The **intensity-0 leg** runs with the default [`ScanConfig`] and
//!   no fault plan attached — byte for byte the plain `repro-scan`
//!   configuration. [`baseline_matches_plain_scan`] asserts the
//!   equivalence by actually running both.
//! * **Degraded legs** attach [`FaultPlan::intensity`] to the world and
//!   scan with a single worker and [`CHAOS_RETRIES`] same-server
//!   retries. A fault decision hashes the message id, and ids come from
//!   one counter per resolver, so one worker keeps the id each query
//!   gets — and with it each leg — bit-stable for a given seed (see
//!   `docs/ROBUSTNESS.md`).
//!
//! The per-leg report carries the code inventory, the resolved
//! fraction, and the retry/TC-fallback/fault counters from both
//! the metrics registry and the transport accounting — the two are
//! reconciled in [`ChaosLeg::reconcile`].

use crate::population::Population;
use crate::scanner::{scan, ScanConfig};
use crate::world::ScanWorld;
use ede_netsim::{FaultPlan, TrafficSnapshot};
use ede_resolver::Vendor;
use ede_trace::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// [`ede_resolver::ResolverConfig::retries_per_server`] on the degraded
/// legs: the smallest count whose 10 %-intensity median resolves no
/// fewer domains than the four-knob policy it replaced and sends no
/// more queries (the trial is in `docs/ROBUSTNESS.md`).
pub const CHAOS_RETRIES: usize = 4;

/// Campaign parameters.
///
/// `#[non_exhaustive]`: construct with [`ChaosConfig::default()`] and
/// the fluent `with_*` methods.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ChaosConfig {
    /// Seed for the fault plans.
    pub seed: u64,
    /// Fault intensities to sweep, one leg each. `0.0` is the baseline.
    pub intensities: Vec<f64>,
    /// Vendor profile to scan with.
    pub vendor: Vendor,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0x0EDE_FA17,
            intensities: vec![0.0, 0.02, 0.05, 0.10],
            vendor: Vendor::Cloudflare,
        }
    }
}

impl ChaosConfig {
    /// Set the fault seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the intensity sweep.
    pub fn with_intensities(mut self, intensities: Vec<f64>) -> Self {
        self.intensities = intensities;
        self
    }
}

/// One leg of the sweep: a full scan at one fault intensity.
#[derive(Debug, Clone)]
pub struct ChaosLeg {
    /// The injected intensity.
    pub intensity: f64,
    /// Domains whose final RCODE was not SERVFAIL.
    pub resolved: usize,
    /// Total domains scanned.
    pub total: usize,
    /// EDE-code inventory: code → number of carrying domains.
    pub per_code: BTreeMap<u16, usize>,
    /// Metrics collected through the trace pipeline.
    pub metrics: MetricsSnapshot,
    /// Transport-level accounting.
    pub traffic: TrafficSnapshot,
}

impl ChaosLeg {
    /// Fraction of domains resolved (any RCODE but SERVFAIL).
    pub fn resolved_fraction(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.resolved as f64 / self.total as f64
    }

    /// Cross-check the trace-pipeline counters against the transport
    /// accounting; returns the mismatches (empty when they reconcile).
    ///
    /// * every transport query is a `QuerySent` event;
    /// * every stream query was caused by exactly one TC fallback;
    /// * every fault decision produced exactly one `FaultInjected`.
    pub fn reconcile(&self) -> Vec<String> {
        let mut bad = Vec::new();
        if self.metrics.queries_sent != self.traffic.queries {
            bad.push(format!(
                "queries: metrics {} != traffic {}",
                self.metrics.queries_sent, self.traffic.queries
            ));
        }
        if self.metrics.tc_fallbacks != self.traffic.stream_queries {
            bad.push(format!(
                "tc-fallbacks: metrics {} != stream queries {}",
                self.metrics.tc_fallbacks, self.traffic.stream_queries
            ));
        }
        if self.metrics.faults_injected != self.traffic.faults {
            bad.push(format!(
                "faults: metrics {} != traffic {}",
                self.metrics.faults_injected, self.traffic.faults
            ));
        }
        bad
    }
}

/// The least share of the baseline leg's resolved domains a degraded
/// leg may resolve ([`ChaosReport::under_resolved`]).
const MIN_RESOLVED_SHARE: f64 = 0.995;

/// The whole sweep.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// One leg per intensity, in sweep order.
    pub legs: Vec<ChaosLeg>,
}

impl ChaosReport {
    /// The gate `repro-chaos` exits 1 on: one line per degraded leg that
    /// resolved under 99.5 % of what the first (baseline) leg resolved;
    /// empty when every leg holds.
    pub fn under_resolved(&self) -> Vec<String> {
        let Some((base, degraded)) = self.legs.split_first() else {
            return Vec::new();
        };
        let baseline = base.resolved as f64;
        degraded
            .iter()
            .filter(|leg| (leg.resolved as f64) < MIN_RESOLVED_SHARE * baseline)
            .map(|leg| {
                format!(
                    "the intensity-{} leg resolved {} of the baseline's {} ({:.2}% < {}%)",
                    leg.intensity,
                    leg.resolved,
                    base.resolved,
                    100.0 * leg.resolved as f64 / baseline,
                    100.0 * MIN_RESOLVED_SHARE
                )
            })
            .collect()
    }

    /// Render an operator-facing table: per leg, the resolved fraction,
    /// hardening counters, and how the code inventory shifted relative
    /// to the first (baseline) leg.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>9}  {:>9}  {:>8}  {:>7}  {:>9}  {:>7}  inventory shift vs baseline",
            "intensity", "resolved", "fraction", "retries", "tc-fallbk", "faults"
        );
        let baseline = self.legs.first().map(|l| l.per_code.clone());
        for leg in &self.legs {
            let mut shift = String::new();
            if let Some(base) = &baseline {
                let codes: std::collections::BTreeSet<u16> =
                    base.keys().chain(leg.per_code.keys()).copied().collect();
                for code in codes {
                    let before = base.get(&code).copied().unwrap_or(0) as i64;
                    let after = leg.per_code.get(&code).copied().unwrap_or(0) as i64;
                    if after != before {
                        let _ = write!(shift, " {code}:{:+}", after - before);
                    }
                }
            }
            if shift.is_empty() {
                shift = " (none)".to_string();
            }
            let _ = writeln!(
                out,
                "{:>9.3}  {:>9}  {:>7.2}%  {:>7}  {:>9}  {:>7} {}",
                leg.intensity,
                leg.resolved,
                100.0 * leg.resolved_fraction(),
                leg.metrics.retries,
                leg.metrics.tc_fallbacks,
                leg.metrics.faults_injected,
                shift
            );
        }
        out
    }
}

/// One leg's fresh world, with the fault plan attached (noop plans are
/// dropped by the network), and the configuration to scan it with.
fn leg_world(pop: &Population, config: &ChaosConfig, intensity: f64) -> (ScanWorld, ScanConfig) {
    let mut world = ScanWorld::build(pop);
    let scan_cfg = if intensity == 0.0 {
        // The baseline leg IS the plain repro-scan configuration.
        ScanConfig::builder().vendor(config.vendor).build()
    } else {
        world
            .net
            .set_fault_plan(FaultPlan::intensity(config.seed, intensity));
        world.resolver_config.retries_per_server = CHAOS_RETRIES;
        // One worker: a fault decision hashes the message id, so
        // per-seed bit-stability needs the ids handed out serially.
        ScanConfig::builder()
            .workers(1)
            .vendor(config.vendor)
            .build()
    };
    (world, scan_cfg)
}

/// Run one leg: scan its world and summarize.
fn run_leg(pop: &Population, config: &ChaosConfig, intensity: f64) -> ChaosLeg {
    let (world, scan_cfg) = leg_world(pop, config, intensity);
    let result = scan(pop, &world, &scan_cfg);
    ChaosLeg {
        intensity,
        resolved: result.stats.ede.resolved_domains(),
        total: result.stats.ede.total_domains,
        per_code: result.stats.ede.per_code.clone(),
        metrics: result.metrics,
        traffic: result.traffic_full,
    }
}

/// Run the whole sweep.
pub fn campaign(pop: &Population, config: &ChaosConfig) -> ChaosReport {
    ChaosReport {
        legs: config
            .intensities
            .iter()
            .map(|&i| run_leg(pop, config, i))
            .collect(),
    }
}

/// Assert (by running both) that the intensity-0 leg is bit-identical
/// to a plain scan: same observations, same inventory, same traffic.
/// Returns the differences; empty means identical.
pub fn baseline_matches_plain_scan(pop: &Population, config: &ChaosConfig) -> Vec<String> {
    let plain_world = ScanWorld::build(pop);
    let plain = scan(
        pop,
        &plain_world,
        &ScanConfig::builder().vendor(config.vendor).build(),
    );
    let leg_world = ScanWorld::build(pop);
    leg_world
        .net
        .set_fault_plan(FaultPlan::intensity(config.seed, 0.0));
    let leg = scan(
        pop,
        &leg_world,
        &ScanConfig::builder().vendor(config.vendor).build(),
    );
    let mut bad = Vec::new();
    if !plain.stats.same_results(&leg.stats) || plain.final_records() != leg.final_records() {
        bad.push("scan results differ at intensity 0".to_string());
    }
    if plain.traffic_full != leg.traffic_full {
        bad.push(format!(
            "traffic differs at intensity 0: {:?} != {:?}",
            plain.traffic_full, leg.traffic_full
        ));
    }
    if plain.metrics != leg.metrics {
        bad.push("metrics differ at intensity 0".to_string());
    }
    bad
}

/// Compare the 63 × 7 testbed matrix ([`crate::stats::v1::vendor_matrix`],
/// the serial walk) with the paper's Table 4 — the chaos binary runs
/// this at intensity zero to prove the hardening left the headline
/// result untouched. Returns the differing cells; empty means
/// bit-identical.
pub fn table4_deviation() -> Vec<String> {
    let matrix = crate::stats::v1::vendor_matrix();
    let mut bad = Vec::new();
    for ((label, cols), exp) in matrix.rows.iter().zip(ede_testbed::expectations::table4()) {
        for (i, got) in cols.iter().enumerate() {
            if got != exp.codes[i] {
                bad.push(format!(
                    "{label} col {i}: got {got:?}, expected {:?}",
                    exp.codes[i]
                ));
            }
        }
    }
    bad
}

/// The Table 4 matrix again, but with the seven vendor columns of each
/// row resolved *concurrently* on one event-driven task pool: per spec,
/// flush all seven resolvers, spawn the seven resolutions into a single
/// pool, then compare every cell. Proves the paper's headline matrix
/// survives high in-flight concurrency, not just the serial walk.
/// Returns the differing cells; empty means bit-identical.
///
/// The per-spec flush order is preserved from [`table4_deviation`]: all
/// columns of a row see the same freshly-flushed caches, so cache state
/// cannot leak between specs (the reason the serial walk flushes too).
pub fn table4_concurrent_deviation() -> Vec<String> {
    use ede_resolver::ResolutionPool;
    use ede_testbed::{expectations::table4, Testbed};
    use ede_wire::RrType;

    let tb = Testbed::build();
    let resolvers: Vec<_> = Vendor::ALL.iter().map(|&v| tb.resolver(v)).collect();
    let mut bad = Vec::new();
    for (spec, exp) in tb.specs.iter().zip(table4()) {
        let qname = &tb.query_name(spec);
        for r in &resolvers {
            r.flush();
        }
        let mut pool: ResolutionPool<(usize, Vec<u16>)> = ResolutionPool::new(&tb.net);
        for (i, resolver) in resolvers.iter().enumerate() {
            pool.spawn(move |handle| async move {
                let res = resolver.resolve_with(&handle, qname, RrType::A).await;
                (i, res.ede_codes())
            });
        }
        let mut row: Vec<Option<Vec<u16>>> = vec![None; resolvers.len()];
        for (i, codes) in &mut pool {
            row[i] = Some(codes);
        }
        for (i, got) in row.into_iter().enumerate() {
            let got = got.expect("column completed");
            if got != exp.codes[i].to_vec() {
                bad.push(format!(
                    "{} col {i} (concurrent): got {:?}, expected {:?}",
                    spec.label, got, exp.codes[i]
                ));
            }
        }
    }
    bad
}

/// Assert (by running both) that a scan with `inflight` resolutions
/// per worker is bit-identical to the scan at a window of one: same
/// observations, same traffic, same metrics counters (scheduler
/// statistics excluded — they measure the window itself). Returns the
/// differences; empty means identical.
pub fn inflight_matches_window_one(
    pop: &Population,
    config: &ChaosConfig,
    inflight: usize,
) -> Vec<String> {
    let single_world = ScanWorld::build(pop);
    let single = scan(
        pop,
        &single_world,
        &ScanConfig::builder()
            .vendor(config.vendor)
            .inflight(1)
            .build(),
    );
    let pooled_world = ScanWorld::build(pop);
    let pooled = scan(
        pop,
        &pooled_world,
        &ScanConfig::builder()
            .vendor(config.vendor)
            .inflight(inflight)
            .build(),
    );
    let mut bad = Vec::new();
    if !single.stats.same_results(&pooled.stats) || single.final_records() != pooled.final_records()
    {
        bad.push(format!("scan results differ at inflight {inflight}"));
    }
    if single.traffic_full != pooled.traffic_full {
        bad.push(format!(
            "traffic differs at inflight {inflight}: {:?} != {:?}",
            single.traffic_full, pooled.traffic_full
        ));
    }
    if single.metrics.without_scheduler_stats() != pooled.metrics.without_scheduler_stats() {
        bad.push(format!("metrics differ at inflight {inflight}"));
    }
    if pooled.metrics.inflight_tasks_peak <= 1 {
        bad.push(format!(
            "inflight {inflight} scan never held two tasks in flight (peak {})",
            pooled.metrics.inflight_tasks_peak
        ));
    }
    bad
}

/// Assert (by running it) that a shared-cache **budget far below the
/// working set** holds its contract on this population: the scan still
/// completes every domain with bounded occupancy and nonzero evictions
/// (eviction legally changes observations, so the leg is *not*
/// fingerprint-compared).
///
/// Returns the violations; empty means the contract holds.
pub fn tier_configs_hold(pop: &Population, config: &ChaosConfig) -> Vec<String> {
    let mut bad = Vec::new();
    const BUDGET: usize = 8;
    let mut budget_world = ScanWorld::build(pop);
    budget_world.resolver_config.max_cache_entries = Some(BUDGET);
    let budgeted = scan(
        pop,
        &budget_world,
        &ScanConfig::builder().vendor(config.vendor).build(),
    );
    if budgeted.stats.ede.total_domains != pop.domains.len() {
        bad.push(format!(
            "budgeted scan lost domains: {} of {}",
            budgeted.stats.ede.total_domains,
            pop.domains.len()
        ));
    }
    if budgeted.cache.l2.evicted == 0 {
        bad.push(format!("a {BUDGET}-entry budget evicted nothing"));
    }
    if budgeted.cache.l2.occupancy > BUDGET as u64 {
        bad.push(format!(
            "budget {BUDGET} exceeded: {} live entries",
            budgeted.cache.l2.occupancy
        ));
    }
    bad
}

/// Assert (by running both synthesis legs) that the RFC 8198 range
/// tier holds its contracts on this population:
///
/// * with **denial synthesis enabled** (and the post-scan sweep
///   driving nonexistent probes at it), observations are bit-identical
///   to the plain scan — retained intervals never cover a registered
///   name, so synthesis is observation-neutral *by construction* — and
///   the sweep answers a nonzero share of probes from cached ranges
///   for less upstream traffic than one query per probe;
/// * with a **range budget far below the retained working set**, the
///   tier stays bounded and evicts — and, unlike an L2 budget,
///   observations are *still* bit-identical, because evicting a range
///   only forfeits synthesis capacity, never changes an answer.
///
/// Returns the violations; empty means both contracts hold.
pub fn synthesis_configs_hold(pop: &Population, config: &ChaosConfig) -> Vec<String> {
    let plain_world = ScanWorld::build(pop);
    let plain = scan(
        pop,
        &plain_world,
        &ScanConfig::builder().vendor(config.vendor).build(),
    );

    let mut synth_world = ScanWorld::build(pop);
    synth_world.resolver_config.synthesize_denial = true;
    let synth = scan(
        pop,
        &synth_world,
        &ScanConfig::builder()
            .vendor(config.vendor)
            .sweep_ratio(1.5)
            .build(),
    );
    let mut bad = Vec::new();
    if !plain.stats.same_results(&synth.stats) || plain.final_records() != synth.final_records() {
        bad.push("scan results differ with denial synthesis enabled".to_string());
    }
    match &synth.stats.traffic.sweep {
        None => bad.push("sweep_ratio 1.5 produced no sweep report".to_string()),
        Some(sweep) => {
            if sweep.synthesized == 0 {
                bad.push("the sweep answered nothing from cached ranges".to_string());
            }
            if sweep.queries as usize >= sweep.probes {
                bad.push(format!(
                    "the sweep spent {} queries on {} probes — no cheaper than live",
                    sweep.queries, sweep.probes
                ));
            }
        }
    }
    if synth.cache.range.hits == 0 {
        bad.push("range tier recorded no hits despite the sweep".to_string());
    }

    const RANGE_BUDGET: usize = 8;
    let mut budget_world = ScanWorld::build(pop);
    budget_world.resolver_config.synthesize_denial = true;
    budget_world.resolver_config.max_range_entries = Some(RANGE_BUDGET);
    let budgeted = scan(
        pop,
        &budget_world,
        &ScanConfig::builder()
            .vendor(config.vendor)
            .sweep_ratio(1.5)
            .build(),
    );
    if !plain.stats.same_results(&budgeted.stats)
        || plain.final_records() != budgeted.final_records()
    {
        bad.push("scan results differ under a tiny range budget".to_string());
    }
    if budgeted.cache.range.evicted == 0 {
        bad.push(format!(
            "a {RANGE_BUDGET}-span range budget evicted nothing"
        ));
    }
    if budgeted.cache.range.occupancy > RANGE_BUDGET as u64 {
        bad.push(format!(
            "range budget {RANGE_BUDGET} exceeded: {} live spans",
            budgeted.cache.range.occupancy
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;

    #[test]
    fn smoke_campaign_is_deterministic_and_reconciles() {
        let run = || {
            let pop = Population::generate(PopulationConfig::tiny());
            let report = campaign(
                &pop,
                &ChaosConfig::default()
                    .with_seed(7)
                    .with_intensities(vec![0.0, 0.05]),
            );
            report
                .legs
                .iter()
                .map(|l| (l.resolved, l.per_code.clone(), l.traffic.queries))
                .collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first, run(), "legs must be bit-stable per seed");

        let pop = Population::generate(PopulationConfig::tiny());
        let report = campaign(
            &pop,
            &ChaosConfig::default()
                .with_seed(7)
                .with_intensities(vec![0.0, 0.05]),
        );
        for leg in &report.legs {
            assert_eq!(
                leg.reconcile(),
                Vec::<String>::new(),
                "leg {}",
                leg.intensity
            );
        }
        // Degradation can only lose domains, and mild chaos with
        // retries must stay inside repro-chaos's exit-1 gate.
        let base = &report.legs[0];
        let worst = &report.legs[1];
        assert!(worst.resolved <= base.resolved);
        assert_eq!(report.under_resolved(), Vec::<String>::new());
        assert!(!report.render().is_empty());
    }

    /// A retry is another exchange and the scan world charges no
    /// latency, so a degraded pass leaves the virtual clock where it
    /// found it, like a clean one: only the inter-pass gap moves it.
    #[test]
    fn degraded_leg_moves_the_clock_by_the_inter_pass_gap_only() {
        let pop = Population::generate(PopulationConfig::tiny());
        let (world, scan_cfg) = leg_world(&pop, &ChaosConfig::default().with_seed(7), 0.05);
        let before = world.net.clock().now_millis();
        let result = scan(&pop, &world, &scan_cfg);
        assert!(result.metrics.retries > 100, "the leg was not degraded");
        assert_eq!(world.net.clock().now_millis() - before, 120_000);
    }

    #[test]
    fn baseline_leg_is_bit_identical_to_plain_scan() {
        let pop = Population::generate(PopulationConfig::tiny());
        let diffs = baseline_matches_plain_scan(&pop, &ChaosConfig::default());
        assert_eq!(diffs, Vec::<String>::new());
    }

    #[test]
    fn tier_configs_hold_on_the_tiny_population() {
        let pop = Population::generate(PopulationConfig::tiny());
        let diffs = tier_configs_hold(&pop, &ChaosConfig::default());
        assert_eq!(diffs, Vec::<String>::new());
    }

    #[test]
    fn synthesis_configs_hold_on_the_tiny_population() {
        let pop = Population::generate(PopulationConfig::tiny());
        let diffs = synthesis_configs_hold(&pop, &ChaosConfig::default());
        assert_eq!(diffs, Vec::<String>::new());
    }
}
