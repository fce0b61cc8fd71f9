//! Render every table and figure of the paper from live data.
//!
//! Tables 1–3 render their sources straight: the IANA registry
//! ([`EdeCode::REGISTERED`]) and the testbed's subdomain specifications
//! ([`all_specs`]). Table 4 renders [`vendor_matrix`], the one walk of
//! the 63 × 7 matrix, with the testbed's [`agreement`] analysis. The
//! scan summary, figures and traffic line render a [`StatsSnapshot`],
//! whose [`StatsSnapshot::to_json`] is the machine surface: no number
//! of a scan is computed in this module.

use crate::population::PopulationConfig;
use crate::stats;
use crate::stats::v1::{StatsSnapshot, PAPER_INVENTORY};
use ede_resolver::Vendor;
use ede_testbed::domains::all_specs;
use ede_testbed::{agreement, Testbed};
use ede_wire::{EdeCode, RrType};
use std::fmt::Write as _;

/// Table 1: the registered Extended DNS Error codes.
pub fn table1() -> String {
    let registry = &EdeCode::REGISTERED;
    let mut out = String::from("Table 1: Registered Extended DNS Error codes\n\n");
    let half = registry.len() / 2;
    out.push_str(&format!(
        "{:<42} {:<42}\n{} {}\n",
        "Code  Description",
        "Code  Description",
        "-".repeat(42),
        "-".repeat(42),
    ));
    for i in 0..half {
        let (left, right) = (registry[i], registry[i + half]);
        out.push_str(&format!(
            "{:<4}  {:<36} {:<4}  {:<36}\n",
            left.to_u16(),
            left.description(),
            right.to_u16(),
            right.description(),
        ));
    }
    out
}

/// Table 2: the 63 subdomains grouped by misconfiguration type.
pub fn table2() -> String {
    const GROUPS: [&str; 8] = [
        "Control subdomain",
        "DS misconfigurations",
        "RRSIG misconfigurations",
        "NSEC3 misconfigurations",
        "DNSKEY misconfigurations",
        "Invalid AAAA glue records",
        "Invalid A glue records",
        "Other",
    ];
    let specs = all_specs();
    let mut out = String::from("Table 2: Custom subdomains grouped by (mis)configuration type\n\n");
    for (group, name) in (1..).zip(GROUPS) {
        let labels: Vec<&str> = specs
            .iter()
            .filter(|s| s.group == group)
            .map(|s| s.label)
            .collect();
        out.push_str(&format!("{group}. {name}\n   {}\n", labels.join(", ")));
    }
    out
}

/// Table 3: per-subdomain configuration detail.
pub fn table3() -> String {
    let mut out = String::from("Table 3: Configuration details of each subdomain\n\n");
    for s in all_specs() {
        let detail = match (&s.misconfig, s.group) {
            (Some(m), _) => format!("{m:?}"),
            (None, 1) => "correctly configured control domain".to_string(),
            (None, 4) => format!("NSEC3 iterations = {}", s.nsec3_iterations),
            (None, 6) | (None, 7) => format!("glue = {:?}", s.glue),
            (None, 8) if !s.signed => "not DNSSEC-signed".to_string(),
            (None, 8) => format!("signed with {} / server {:?}", s.algorithm, s.server),
            _ => String::new(),
        };
        out.push_str(&format!("{:<26} {detail}\n", s.label));
    }
    out
}

/// Table 4 measured: every testbed subdomain resolved through the seven
/// vendor profiles, as (label, per-vendor EDE codes) in testbed order.
/// Each row starts from flushed caches, as the paper's probes were
/// independent, and resolves its seven columns on seven scoped threads
/// over the one shared testbed network, so the matrix holds with seven
/// resolutions in flight. (The serial walk is the tests' own:
/// `crates/testbed/tests/table4.rs` and `tests/paper_claims.rs`.)
pub fn vendor_matrix() -> Vec<(String, Vec<Vec<u16>>)> {
    let tb = Testbed::build();
    let resolvers: Vec<_> = Vendor::ALL.iter().map(|&v| tb.resolver(v)).collect();
    tb.specs
        .iter()
        .map(|spec| {
            let qname = &tb.query_name(spec);
            for r in &resolvers {
                r.flush();
            }
            let cols = std::thread::scope(|s| {
                let columns: Vec<_> = resolvers
                    .iter()
                    .map(|r| s.spawn(move || r.resolve(qname, RrType::A).ede_codes()))
                    .collect();
                columns
                    .into_iter()
                    .map(|c| c.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            });
            (spec.label.to_string(), cols)
        })
        .collect()
}

/// Table 4: the [`vendor_matrix`] plus the agreement statistics.
pub fn table4() -> String {
    let rows = vendor_matrix();
    let mut out = String::from(
        "Table 4: Extended error codes returned by DNS software and public resolvers\n\n",
    );
    out.push_str(&format!("{:<26}", "Subdomain"));
    for v in Vendor::ALL {
        out.push_str(&format!(
            "{:<12}",
            v.name().split(' ').next().unwrap_or("?")
        ));
    }
    out.push('\n');
    out.push_str(&"-".repeat(26 + 12 * Vendor::ALL.len()));
    out.push('\n');

    for (label, cols) in &rows {
        out.push_str(&format!("{label:<26}"));
        for codes in cols {
            let cell = if codes.is_empty() {
                "None".to_string()
            } else {
                codes
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!("{cell:<12}"));
        }
        out.push('\n');
    }

    let agreement = agreement::analyze(&rows);
    let unique_codes = agreement::unique_codes(&rows);
    let _ = writeln!(
        out,
        "\nConsistent cases: {}/{} ({}), inconsistency {:.1}% (paper: 94%)",
        agreement.consistent,
        agreement.total,
        agreement.consistent_labels.join(", "),
        agreement.inconsistency_ratio() * 100.0
    );
    let _ = writeln!(
        out,
        "Unique INFO-CODEs triggered: {} {:?} (paper: 12)",
        unique_codes.len(),
        unique_codes
    );
    out
}

/// §5-style traffic accounting for one scan.
pub fn traffic_line(snapshot: &StatsSnapshot) -> String {
    let t = &snapshot.traffic;
    format!(
        "Traffic: {} resolutions issued {} upstream queries ({} delivered, {} failed) — \
         {:.1} queries/resolution, {:.3} queries/domain \
         (paper: 11.5k pps peak over 12 h for 303M domains)",
        snapshot.resolutions,
        t.queries,
        t.delivered,
        t.failed,
        snapshot.queries_per_resolution(),
        snapshot.queries_per_domain(),
    )
}

/// The §4.2 inventory: per-code domain counts vs the paper's values.
pub fn scan_summary(snapshot: &StatsSnapshot) -> String {
    // The snapshot carries the scale divisor; the paper-count scaling
    // rule itself lives on `PopulationConfig::scaled`.
    let cfg = PopulationConfig {
        scale: snapshot.scale,
        ..Default::default()
    };
    let ede = &snapshot.ede;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Internet-wide scan (scale 1:{}) — {} domains, {} trigger EDE ({:.2}%)",
        snapshot.scale,
        ede.total_domains,
        ede.ede_domains,
        100.0 * ede.ede_rate()
    );
    let _ = writeln!(out, "Paper: 303M domains, 17.7M trigger EDE (5.8%)\n");
    let _ = writeln!(
        out,
        "{:<6}{:<32}{:>12}{:>14}{:>14}",
        "Code", "Description", "Measured", "Paper/scale", "Paper"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for &(code, desc, paper_count) in &PAPER_INVENTORY {
        let measured = ede.per_code.get(&code).copied().unwrap_or(0);
        let expected = cfg.scaled(paper_count);
        let _ = writeln!(
            out,
            "{:<6}{:<32}{:>12}{:>14}{:>14}",
            code, desc, measured, expected, paper_count
        );
    }

    let ns = &ede.nameservers;
    let _ = writeln!(
        out,
        "\nBroken nameservers observed via EXTRA-TEXT: {} (REFUSED {}, SERVFAIL {}, other {})",
        ns.unique, ns.refused, ns.servfail, ns.other
    );
    let cover = ns.fix_for(0.81);
    let _ = writeln!(
        out,
        "Fixing the top {cover} nameservers ({:.1}% of {}) repairs 81% of rcode-lame domains \
         (paper: 20k of 293k ≈ 6.8% repairs 81%)",
        100.0 * cover as f64 / ns.unique.max(1) as f64,
        ns.unique
    );
    let _ = writeln!(
        out,
        "NOERROR answers still carrying EDE: {} (paper: 12.2k of the Tranco overlap)",
        ede.noerror_with_ede
    );

    let _ = writeln!(out, "\nTop code combinations:");
    let mut combos: Vec<(&Vec<u16>, &usize)> = ede.per_combo.iter().collect();
    combos.sort_by(|a, b| b.1.cmp(a.1));
    for (combo, count) in combos.into_iter().take(10) {
        let _ = writeln!(out, "  {combo:?}: {count}");
    }
    out
}

/// Machine-readable scan summary: the versioned JSON document generated
/// by [`StatsSnapshot::to_json`] (`schema_version` pinned by the golden
/// test in `tests/streaming.rs`).
pub fn scan_json(snapshot: &StatsSnapshot) -> String {
    snapshot.to_json()
}

/// Figure 1: per-TLD misconfiguration-ratio CDFs.
pub fn figure1(snapshot: &StatsSnapshot) -> String {
    let tlds = &snapshot.tlds;
    let mut out = String::from(
        "Figure 1: Ratio of domains that trigger EDE codes across gTLDs and ccTLDs (CDF)\n\n",
    );
    let _ = writeln!(
        out,
        "gTLDs with zero misconfigured domains: {:.1}% (paper: ~38%)",
        tlds.gtld_zero_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "ccTLDs with zero misconfigured domains: {:.1}% (paper: ~4%)",
        tlds.cctld_zero_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "Fully misconfigured TLDs: {} gTLDs (paper: 11), {} ccTLDs (paper: 2)\n",
        tlds.gtld_fully_broken(),
        tlds.cctld_fully_broken()
    );
    out.push_str("gTLD CDF:\n");
    out.push_str(&stats::ascii_cdf(
        &tlds.gtld_cdf(),
        60,
        12,
        "ratio of domains",
    ));
    out.push_str("\nccTLD CDF:\n");
    out.push_str(&stats::ascii_cdf(
        &tlds.cctld_cdf(),
        60,
        12,
        "ratio of domains",
    ));
    out
}

/// Figure 2: distribution of EDE-triggering domains across the Tranco
/// ranking.
pub fn figure2(snapshot: &StatsSnapshot) -> String {
    let ranks = &snapshot.ranks;
    let mut out = String::from(
        "Figure 2: Distribution of EDE-triggering domains across the Tranco list (CDF)\n\n",
    );
    let _ = writeln!(
        out,
        "Tranco members scanned: {} (scaled top-{}); overlap with EDE-triggering: {} \
         (paper: 22.1k of 1M)",
        ranks.ranked,
        ranks.tranco_size,
        ranks.overlap()
    );
    let _ = writeln!(
        out,
        "Max deviation from uniform: {:.3} (paper: evenly distributed)\n",
        ranks.max_uniform_deviation()
    );
    out.push_str(&stats::ascii_cdf(&ranks.cdf(), 60, 12, "Tranco rank"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_codes() {
        let t = table1();
        assert!(t.contains("DNSSEC Bogus"));
        assert!(t.contains("No Reachable Authority"));
        assert!(t.contains("Synthesized"));
        // Both columns: 0..14 and 15..29, one row per pair of codes.
        assert!(t.contains("15"));
        assert_eq!(t.lines().count(), 4 + EdeCode::REGISTERED.len() / 2);
    }

    /// The eight groups partition the testbed: each label is in exactly
    /// one group's list.
    #[test]
    fn table2_has_eight_groups() {
        let t = table2();
        for g in 1..=8 {
            assert!(t.contains(&format!("{g}. ")), "missing group {g}");
        }
        let listed: Vec<&str> = t
            .lines()
            .filter_map(|line| line.strip_prefix("   "))
            .flat_map(|labels| labels.split(", "))
            .collect();
        assert_eq!(listed.len(), all_specs().len());
        for s in all_specs() {
            assert!(listed.contains(&s.label), "missing {}", s.label);
        }
    }

    #[test]
    fn table3_covers_all_subdomains() {
        let t = table3();
        assert_eq!(t.lines().count(), 2 + all_specs().len());
        for s in all_specs() {
            assert!(t.contains(s.label), "missing {}", s.label);
        }
    }
}
