//! Chaos campaigns: sweep the fault-plan intensity over the scan world
//! and report how the EDE-code inventory shifts.
//!
//! A campaign runs one scan *leg* per requested intensity, each on a
//! fresh [`ScanWorld`] built from the same population (flap state and
//! the virtual clock are part of a scan, so worlds are never reused):
//!
//! * The **intensity-0 leg** runs with the default [`ScanConfig`] and
//!   no fault plan attached — byte for byte the plain `repro-scan`
//!   configuration, by construction: `FaultPlan::intensity(seed, 0.0)`
//!   is a no-op plan, and the network drops no-op plans on attach.
//! * **Degraded legs** attach [`FaultPlan::intensity`] to the world and
//!   scan with a single worker and [`CHAOS_RETRIES`] same-server
//!   retries. A fault decision hashes the message id, and ids come from
//!   one counter per resolver, so one worker keeps the id each query
//!   gets — and with it each leg — bit-stable for a given seed (see
//!   `docs/ROBUSTNESS.md`).
//!
//! Every leg scans through Cloudflare, the vendor of the paper's §4
//! scan. The per-leg report carries the code inventory, the resolved
//! fraction, the retry count from the metrics registry, and the
//! TC-fallback and fault counts from the transport accounting, which
//! alone keeps them. Besides the campaign and its gate
//! ([`ChaosReport::under_resolved`]), the module holds the Table 4
//! check `repro-chaos` runs first ([`table4_deviation`]): the one walk
//! of the matrix, seven vendors of a row in flight, against the paper.
//! The contracts of the other scan configurations (worker count, cache
//! budgets, ring size) are the test suite's to assert
//! (`scanner::tests`, `crates/scan/tests/streaming.rs`), not this
//! module's.

use crate::population::Population;
use crate::scanner::{scan, ScanConfig};
use crate::world::ScanWorld;
use ede_netsim::{FaultPlan, TrafficSnapshot};
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
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0x0EDE_FA17,
            intensities: vec![0.0, 0.02, 0.05, 0.10],
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
                leg.traffic.stream_queries,
                leg.traffic.faults,
                shift
            );
        }
        out
    }
}

/// One leg's fresh world, with the fault plan attached on a degraded
/// leg, and the configuration to scan it with.
fn leg_world(pop: &Population, config: &ChaosConfig, intensity: f64) -> (ScanWorld, ScanConfig) {
    let mut world = ScanWorld::build(pop);
    // The baseline leg IS the plain repro-scan configuration.
    let mut scan_cfg = ScanConfig::builder();
    if intensity != 0.0 {
        world
            .net
            .set_fault_plan(FaultPlan::intensity(config.seed, intensity));
        world.resolver_config.retries_per_server = CHAOS_RETRIES;
        // One worker: a fault decision hashes the message id, so
        // per-seed bit-stability needs the ids handed out serially.
        scan_cfg = scan_cfg.workers(1);
    }
    (world, scan_cfg.build())
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
        traffic: result.stats.traffic,
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

/// Compare the 63 × 7 testbed matrix ([`crate::report::vendor_matrix`],
/// the seven columns of a row resolved concurrently) with the paper's
/// Table 4 — the chaos binary runs this at intensity zero to prove the
/// hardening left the headline result untouched. Returns the differing
/// cells; empty means bit-identical.
pub fn table4_deviation() -> Vec<String> {
    let matrix = crate::report::vendor_matrix();
    let mut bad = Vec::new();
    for ((label, cols), exp) in matrix.iter().zip(ede_testbed::expectations::table4()) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;

    #[test]
    fn smoke_campaign_is_deterministic() {
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
}
