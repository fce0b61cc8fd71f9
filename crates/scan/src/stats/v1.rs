//! Version 1 of the typed stats API: every number a report renderer
//! needs, as plain data.
//!
//! [`StatsSnapshot`] is the scan's streaming aggregation at one moment
//! — after pass 1 (`complete == false`, carried in
//! [`crate::scanner::ScanResult::pass1`]) or final (`complete == true`,
//! [`crate::scanner::ScanResult::stats`]); both are read when every
//! worker of the pass has joined. The renderers in
//! [`crate::report`] consume these DTOs only; [`StatsSnapshot::to_json`]
//! is the machine surface, versioned by [`SCHEMA_VERSION`] and pinned
//! by a golden test.
//!
//! Every struct here is `#[non_exhaustive]`: fields can be added in a
//! later schema version without breaking consumers, and construction
//! stays inside the crate (snapshots are *measured*, not assembled by
//! hand).

use crate::querylog::QueryLogStats;
use crate::scanner::{ScanCacheReport, SweepReport};
use crate::stats;
use ede_resolver::Vendor;
use ede_testbed::domains::all_specs;
use ede_testbed::{agreement, Testbed};
use ede_wire::{EdeCode, RrType};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The JSON schema version emitted by [`StatsSnapshot::to_json`].
pub const SCHEMA_VERSION: u32 = 1;

/// The §4.2 paper inventory: (code, description, paper count) — the
/// typed counterpart of the table `scan_summary` prints.
pub const PAPER_INVENTORY: [(u16, &str, u64); 14] = [
    (22, "No Reachable Authority", 13_965_865),
    (23, "Network Error", 11_647_551),
    (10, "RRSIGs Missing", 2_746_604),
    (9, "DNSKEY Missing", 296_643),
    (6, "DNSSEC Bogus", 82_465),
    (24, "Invalid Data", 12_268),
    (1, "Unsupported DNSKEY Algorithm", 8_751),
    (7, "Signature Expired", 2_877),
    (12, "NSEC Missing", 1_980),
    (2, "Unsupported DS Digest Type", 62),
    (3, "Stale Answer", 32),
    (8, "Signature Not Yet Valid", 29),
    (13, "Cached Error", 8),
    (0, "Other", 7),
];

/// One streaming-aggregation snapshot: deterministic scan results plus
/// the performance counters at the moment it was taken.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct StatsSnapshot {
    /// JSON schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Position among the scan's snapshots: 0 for the pass-1 snapshot,
    /// 1 for the final one.
    pub seq: u64,
    /// Virtual-clock stamp, ms since the simulation epoch.
    pub vtime_ms: u64,
    /// True when the scan had finished (both passes folded).
    pub complete: bool,
    /// Population scale divisor (1:`scale`).
    pub scale: u32,
    /// The commutative scan fingerprint over every folded record.
    pub fingerprint: u64,
    /// Per-EDE breakdown.
    pub ede: EdeBreakdown,
    /// Per-TLD breakdown.
    pub tlds: TldBreakdown,
    /// Tranco rank curve.
    pub ranks: RankBucketCurve,
    /// Cache-tier counters (performance facts, not results).
    pub cache: ScanCacheReport,
    /// Traffic counters (performance facts, not results).
    pub traffic: TrafficStats,
    /// Query-log ring occupancy at the snapshot.
    pub query_log: QueryLogStats,
}

/// Per-EDE results: the §4.2 inventory.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct EdeBreakdown {
    /// Domains folded so far (every domain once the scan completes).
    pub total_domains: usize,
    /// Domains carrying at least one EDE code.
    pub ede_domains: usize,
    /// NOERROR answers still carrying EDE.
    pub noerror_with_ede: usize,
    /// Domains whose final RCODE was SERVFAIL.
    pub servfail_domains: usize,
    /// Domains per INFO-CODE.
    pub per_code: BTreeMap<u16, usize>,
    /// Domains per exact (sorted, deduped) code combination.
    pub per_combo: BTreeMap<Vec<u16>, usize>,
    /// Broken-nameserver evidence from Network Error EXTRA-TEXT.
    pub nameservers: NsBreakdown,
}

impl EdeBreakdown {
    /// Fraction of domains triggering EDE.
    pub fn ede_rate(&self) -> f64 {
        self.ede_domains as f64 / self.total_domains.max(1) as f64
    }

    /// Domains resolved (any final RCODE but SERVFAIL) — the chaos
    /// campaigns' survival metric.
    pub fn resolved_domains(&self) -> usize {
        self.total_domains - self.servfail_domains
    }
}

/// §4.2.2 nameserver concentration.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct NsBreakdown {
    /// Unique nameserver addresses seen in Network Error texts.
    pub unique: usize,
    /// Of those, how many answered REFUSED.
    pub refused: usize,
    /// SERVFAIL.
    pub servfail: usize,
    /// Other failures.
    pub other: usize,
    /// Domains affected per nameserver, in address order.
    pub domains_per_ns: Vec<usize>,
}

impl NsBreakdown {
    /// Nameservers to fix to repair `target` of the affected domains.
    pub fn fix_for(&self, target: f64) -> usize {
        stats::keys_to_cover(&self.domains_per_ns, target)
    }
}

/// Per-TLD misconfiguration ratios, split gTLD/ccTLD (Figure 1).
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct TldBreakdown {
    /// Ratio of EDE-triggering domains per gTLD (TLDs with traffic).
    pub gtld_ratios: Vec<f64>,
    /// Per ccTLD.
    pub cctld_ratios: Vec<f64>,
}

impl TldBreakdown {
    /// Figure 1's gTLD CDF series.
    pub fn gtld_cdf(&self) -> Vec<(f64, f64)> {
        stats::cdf(&self.gtld_ratios)
    }

    /// Figure 1's ccTLD CDF series.
    pub fn cctld_cdf(&self) -> Vec<(f64, f64)> {
        stats::cdf(&self.cctld_ratios)
    }

    /// Fraction of gTLDs with zero misconfigured domains.
    pub fn gtld_zero_fraction(&self) -> f64 {
        stats::fraction_at(&self.gtld_ratios, 0.0)
    }

    /// Fraction of ccTLDs with zero misconfigured domains.
    pub fn cctld_zero_fraction(&self) -> f64 {
        stats::fraction_at(&self.cctld_ratios, 0.0)
    }

    /// Fully misconfigured gTLD count.
    pub fn gtld_fully_broken(&self) -> usize {
        (stats::fraction_at(&self.gtld_ratios, 1.0) * self.gtld_ratios.len() as f64).round()
            as usize
    }

    /// Fully misconfigured ccTLD count.
    pub fn cctld_fully_broken(&self) -> usize {
        (stats::fraction_at(&self.cctld_ratios, 1.0) * self.cctld_ratios.len() as f64).round()
            as usize
    }
}

/// The Tranco rank curve (Figure 2).
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct RankBucketCurve {
    /// Size of the (scaled) ranked list.
    pub tranco_size: u32,
    /// Ranked domains folded so far.
    pub ranked: usize,
    /// Ranks of the EDE-triggering ranked domains, ascending.
    pub ede_ranks: Vec<u32>,
}

impl RankBucketCurve {
    /// Ranked domains that triggered EDE (the paper's 22.1 k overlap).
    pub fn overlap(&self) -> usize {
        self.ede_ranks.len()
    }

    /// Figure 2's CDF series over the EDE-triggering ranks.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let ranks: Vec<f64> = self.ede_ranks.iter().map(|&r| f64::from(r)).collect();
        stats::cdf(&ranks)
    }

    /// EDE-triggering counts per rank bucket: `n` equal-width buckets
    /// over `[1, tranco_size]`, as `(bucket_start, bucket_end, count)`.
    pub fn buckets(&self, n: usize) -> Vec<(u32, u32, usize)> {
        let n = n.max(1) as u32;
        let size = self.tranco_size.max(1);
        let width = size.div_ceil(n);
        let mut out: Vec<(u32, u32, usize)> = (0..n)
            .map(|i| (i * width + 1, ((i + 1) * width).min(size), 0))
            .collect();
        for &r in &self.ede_ranks {
            let i = ((r.saturating_sub(1)) / width).min(n - 1) as usize;
            out[i].2 += 1;
        }
        out
    }

    /// Kolmogorov-style maximum deviation of the rank CDF from the
    /// uniform diagonal (the paper: evenly distributed).
    pub fn max_uniform_deviation(&self) -> f64 {
        let n = f64::from(self.tranco_size.max(1));
        self.cdf()
            .iter()
            .map(|&(x, y)| (y - x / n).abs())
            .fold(0.0f64, f64::max)
    }
}

/// Traffic counters — the single source of `queries_per_domain`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct TrafficStats {
    /// Resolutions performed (both passes).
    pub resolutions: usize,
    /// Upstream queries sent.
    pub queries: u64,
    /// Delivered.
    pub delivered: u64,
    /// Failed.
    pub failed: u64,
    /// Synthesis-sweep accounting, when the sweep ran.
    pub sweep: Option<SweepReport>,
}

impl TrafficStats {
    /// Upstream queries per resolution.
    pub fn queries_per_resolution(&self) -> f64 {
        self.queries as f64 / self.resolutions.max(1) as f64
    }
}

impl StatsSnapshot {
    /// Upstream queries per registered domain — the paper's §5 cost
    /// metric, derived once here for every consumer (report, bench,
    /// binaries).
    pub fn queries_per_domain(&self) -> f64 {
        self.traffic.queries as f64 / self.ede.total_domains.max(1) as f64
    }

    /// True when the deterministic scan *results* agree: fingerprint,
    /// EDE breakdown, TLD ratios, and the rank curve. Performance facts
    /// (cache tiers, traffic, query-log occupancy) and snapshot
    /// provenance (`seq`, `vtime_ms`) are excluded — they legitimately
    /// differ across worker counts and cache configurations.
    pub fn same_results(&self, other: &StatsSnapshot) -> bool {
        self.fingerprint == other.fingerprint
            && self.ede == other.ede
            && self.tlds == other.tlds
            && self.ranks == other.ranks
    }

    /// The versioned machine-readable report (the `scan_json` surface).
    /// Generated field-by-field from this DTO; the golden test in
    /// `tests/streaming.rs` pins the schema.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"seq\": {},", self.seq);
        let _ = writeln!(out, "  \"vtime_ms\": {},", self.vtime_ms);
        let _ = writeln!(out, "  \"complete\": {},", self.complete);
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        let _ = writeln!(out, "  \"fingerprint\": \"{:016x}\",", self.fingerprint);

        let _ = writeln!(out, "  \"ede\": {{");
        let _ = writeln!(out, "    \"total_domains\": {},", self.ede.total_domains);
        let _ = writeln!(out, "    \"ede_domains\": {},", self.ede.ede_domains);
        let _ = writeln!(
            out,
            "    \"noerror_with_ede\": {},",
            self.ede.noerror_with_ede
        );
        let _ = writeln!(
            out,
            "    \"servfail_domains\": {},",
            self.ede.servfail_domains
        );
        let codes: Vec<String> = self
            .ede
            .per_code
            .iter()
            .map(|(c, n)| format!("      \"{c}\": {n}"))
            .collect();
        let _ = writeln!(out, "    \"per_code\": {{\n{}\n    }},", codes.join(",\n"));
        let combos: Vec<String> = self
            .ede
            .per_combo
            .iter()
            .map(|(combo, n)| {
                let key: Vec<String> = combo.iter().map(u16::to_string).collect();
                format!("      \"{}\": {n}", key.join("+"))
            })
            .collect();
        let _ = writeln!(
            out,
            "    \"per_combo\": {{\n{}\n    }},",
            combos.join(",\n")
        );
        let ns = &self.ede.nameservers;
        let _ = writeln!(
            out,
            "    \"nameservers\": {{ \"unique\": {}, \"refused\": {}, \"servfail\": {}, \"other\": {}, \"fix_for_81pct\": {} }}",
            ns.unique,
            ns.refused,
            ns.servfail,
            ns.other,
            ns.fix_for(0.81)
        );
        let _ = writeln!(out, "  }},");

        let _ = writeln!(out, "  \"tlds\": {{");
        let _ = writeln!(out, "    \"gtlds\": {},", self.tlds.gtld_ratios.len());
        let _ = writeln!(out, "    \"cctlds\": {},", self.tlds.cctld_ratios.len());
        let _ = writeln!(
            out,
            "    \"gtld_zero_fraction\": {:.4},",
            self.tlds.gtld_zero_fraction()
        );
        let _ = writeln!(
            out,
            "    \"cctld_zero_fraction\": {:.4},",
            self.tlds.cctld_zero_fraction()
        );
        let _ = writeln!(
            out,
            "    \"gtld_fully_broken\": {},",
            self.tlds.gtld_fully_broken()
        );
        let _ = writeln!(
            out,
            "    \"cctld_fully_broken\": {}",
            self.tlds.cctld_fully_broken()
        );
        let _ = writeln!(out, "  }},");

        let _ = writeln!(out, "  \"ranks\": {{");
        let _ = writeln!(out, "    \"tranco_size\": {},", self.ranks.tranco_size);
        let _ = writeln!(out, "    \"ranked\": {},", self.ranks.ranked);
        let _ = writeln!(out, "    \"overlap\": {}", self.ranks.overlap());
        let _ = writeln!(out, "  }},");

        let c = &self.cache;
        let _ = writeln!(out, "  \"cache\": {{");
        let _ = writeln!(
            out,
            "    \"l2\": {{ \"hits\": {}, \"misses\": {}, \"stale_served\": {}, \"expired\": {}, \"evicted\": {}, \"occupancy\": {} }},",
            c.l2.hits, c.l2.misses, c.l2.stale_served, c.l2.expired, c.l2.evicted, c.l2.occupancy
        );
        let _ = writeln!(
            out,
            "    \"infra\": {{ \"key_hits\": {}, \"referral_hits\": {}, \"referral_misses\": {} }},",
            c.infra.key_hits, c.infra.referral_hits, c.infra.referral_misses
        );
        let _ = writeln!(
            out,
            "    \"ranges\": {{ \"hits\": {}, \"misses\": {}, \"evicted\": {}, \"occupancy\": {} }}",
            c.range.hits, c.range.misses, c.range.evicted, c.range.occupancy
        );
        let _ = writeln!(out, "  }},");

        let t = &self.traffic;
        let _ = writeln!(out, "  \"traffic\": {{");
        let _ = writeln!(out, "    \"resolutions\": {},", t.resolutions);
        let _ = writeln!(out, "    \"queries\": {},", t.queries);
        let _ = writeln!(out, "    \"delivered\": {},", t.delivered);
        let _ = writeln!(out, "    \"failed\": {},", t.failed);
        let _ = writeln!(
            out,
            "    \"queries_per_domain\": {:.3},",
            self.queries_per_domain()
        );
        match &t.sweep {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "    \"sweep\": {{ \"probes\": {}, \"synthesized\": {}, \"queries\": {} }}",
                    s.probes, s.synthesized, s.queries
                );
            }
            None => {
                let _ = writeln!(out, "    \"sweep\": null");
            }
        }
        let _ = writeln!(out, "  }},");

        let q = &self.query_log;
        let _ = writeln!(
            out,
            "  \"query_log\": {{ \"capacity\": {}, \"len\": {}, \"peak\": {}, \"spilled\": {}, \"dropped\": {} }}",
            q.capacity, q.len, q.peak, q.spilled, q.dropped
        );
        out.push_str("}\n");
        out
    }

    /// [`to_json`](Self::to_json) on a single line, for JSONL files
    /// (the document has no string that could contain a newline).
    pub fn to_json_line(&self) -> String {
        self.to_json()
            .lines()
            .map(str::trim_start)
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// One row of Table 1 (the IANA EDE registry).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct CodeRegistryRow {
    /// The INFO-CODE.
    pub code: u16,
    /// Its registered description.
    pub description: &'static str,
}

/// Table 1 as data: every registered EDE code.
pub fn code_registry() -> Vec<CodeRegistryRow> {
    EdeCode::REGISTERED
        .iter()
        .map(|c| CodeRegistryRow {
            code: c.to_u16(),
            description: c.description(),
        })
        .collect()
}

/// One group of Table 2 (subdomains by misconfiguration type).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct SubdomainGroup {
    /// Group number (1-based, as in the paper).
    pub group: u8,
    /// Group name.
    pub name: &'static str,
    /// Member subdomain labels.
    pub labels: Vec<&'static str>,
}

/// Table 2 as data: the 63 subdomains in their eight groups.
pub fn subdomain_groups() -> Vec<SubdomainGroup> {
    let specs = all_specs();
    let group_names = [
        "Control subdomain",
        "DS misconfigurations",
        "RRSIG misconfigurations",
        "NSEC3 misconfigurations",
        "DNSKEY misconfigurations",
        "Invalid AAAA glue records",
        "Invalid A glue records",
        "Other",
    ];
    group_names
        .iter()
        .enumerate()
        .map(|(g, name)| SubdomainGroup {
            group: g as u8 + 1,
            name,
            labels: specs
                .iter()
                .filter(|s| s.group == g as u8 + 1)
                .map(|s| s.label)
                .collect(),
        })
        .collect()
}

/// One row of Table 3 (per-subdomain configuration detail).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct SubdomainDetail {
    /// The subdomain label.
    pub label: &'static str,
    /// Its configuration, described.
    pub detail: String,
}

/// Table 3 as data.
pub fn subdomain_details() -> Vec<SubdomainDetail> {
    all_specs()
        .iter()
        .map(|s| {
            let detail = match (&s.misconfig, s.group) {
                (Some(m), _) => format!("{m:?}"),
                (None, 1) => "correctly configured control domain".to_string(),
                (None, 4) => format!("NSEC3 iterations = {}", s.nsec3_iterations),
                (None, 6) | (None, 7) => format!("glue = {:?}", s.glue),
                (None, 8) if !s.signed => "not DNSSEC-signed".to_string(),
                (None, 8) => format!("signed with {} / server {:?}", s.algorithm, s.server),
                _ => String::new(),
            };
            SubdomainDetail {
                label: s.label,
                detail,
            }
        })
        .collect()
}

/// Table 4 as data: the 63 × 7 vendor matrix plus agreement stats.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct VendorMatrix {
    /// The vendor columns, in order.
    pub vendors: Vec<Vendor>,
    /// One row per subdomain: (label, per-vendor EDE codes).
    pub rows: Vec<(String, Vec<Vec<u16>>)>,
    /// Subdomains where all vendors agreed.
    pub consistent: usize,
    /// Total subdomains.
    pub total: usize,
    /// Labels of the consistent subdomains.
    pub consistent_labels: Vec<String>,
    /// Inconsistency ratio in `[0, 1]`.
    pub inconsistency_ratio: f64,
    /// Unique INFO-CODEs triggered across the matrix.
    pub unique_codes: Vec<u16>,
}

/// Resolve the whole testbed through all seven profiles and return the
/// matrix as data (the typed counterpart of `report::table4`).
pub fn vendor_matrix() -> VendorMatrix {
    let tb = Testbed::build();
    let resolvers: Vec<_> = Vendor::ALL.iter().map(|&v| tb.resolver(v)).collect();
    let mut rows: Vec<(String, Vec<Vec<u16>>)> = Vec::new();
    for spec in &tb.specs {
        let qname = tb.query_name(spec);
        let mut cols = Vec::new();
        for r in &resolvers {
            r.flush();
            cols.push(r.resolve(&qname, RrType::A).ede_codes());
        }
        rows.push((spec.label.to_string(), cols));
    }
    let agg = agreement::analyze(&rows);
    let unique_codes = agreement::unique_codes(&rows);
    VendorMatrix {
        vendors: Vendor::ALL.to_vec(),
        consistent: agg.consistent,
        total: agg.total,
        consistent_labels: agg.consistent_labels.clone(),
        inconsistency_ratio: agg.inconsistency_ratio(),
        unique_codes,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_and_groups_cover_the_paper() {
        let reg = code_registry();
        assert_eq!(reg.len(), EdeCode::REGISTERED.len());
        assert!(reg.iter().any(|r| r.description == "DNSSEC Bogus"));
        let groups = subdomain_groups();
        assert_eq!(groups.len(), 8);
        assert_eq!(
            groups.iter().map(|g| g.labels.len()).sum::<usize>(),
            all_specs().len()
        );
        assert_eq!(subdomain_details().len(), all_specs().len());
    }

    #[test]
    fn rank_buckets_partition_the_overlap() {
        let curve = RankBucketCurve {
            tranco_size: 100,
            ranked: 50,
            ede_ranks: vec![1, 2, 49, 50, 51, 99, 100],
        };
        let buckets = curve.buckets(4);
        assert_eq!(buckets.len(), 4);
        assert_eq!(
            buckets.iter().map(|b| b.2).sum::<usize>(),
            curve.overlap(),
            "buckets must partition the overlap"
        );
        assert_eq!(buckets[0], (1, 25, 2));
        assert_eq!(buckets[3], (76, 100, 2));
    }
}
