//! Render every table and figure of the paper from live data.
//!
//! Every renderer here is a *thin view* over the typed DTOs in
//! [`crate::stats::v1`]: the tables render [`v1::code_registry`],
//! [`v1::subdomain_groups`], [`v1::subdomain_details`], and
//! [`v1::vendor_matrix`]; the scan summary, figures, and traffic line
//! render a [`StatsSnapshot`]. No number is computed in this module —
//! if a renderer and a machine consumer disagree, the DTO is wrong,
//! not the view.

use crate::population::PopulationConfig;
use crate::stats;
use crate::stats::v1::{self, StatsSnapshot, PAPER_INVENTORY};
use std::fmt::Write as _;

/// Table 1: the registered Extended DNS Error codes.
pub fn table1() -> String {
    let registry = v1::code_registry();
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
        let left = &registry[i];
        let right = &registry[i + half];
        out.push_str(&format!(
            "{:<4}  {:<36} {:<4}  {:<36}\n",
            left.code, left.description, right.code, right.description,
        ));
    }
    out
}

/// Table 2: the 63 subdomains grouped by misconfiguration type.
pub fn table2() -> String {
    let mut out = String::from("Table 2: Custom subdomains grouped by (mis)configuration type\n\n");
    for group in v1::subdomain_groups() {
        out.push_str(&format!(
            "{}. {}\n   {}\n",
            group.group,
            group.name,
            group.labels.join(", ")
        ));
    }
    out
}

/// Table 3: per-subdomain configuration detail.
pub fn table3() -> String {
    let mut out = String::from("Table 3: Configuration details of each subdomain\n\n");
    for row in v1::subdomain_details() {
        out.push_str(&format!("{:<26} {}\n", row.label, row.detail));
    }
    out
}

/// Table 4: resolve the whole testbed through all seven profiles and
/// print the matrix plus the agreement statistics.
pub fn table4() -> String {
    let matrix = v1::vendor_matrix();
    let mut out = String::from(
        "Table 4: Extended error codes returned by DNS software and public resolvers\n\n",
    );
    out.push_str(&format!("{:<26}", "Subdomain"));
    for v in &matrix.vendors {
        out.push_str(&format!(
            "{:<12}",
            v.name().split(' ').next().unwrap_or("?")
        ));
    }
    out.push('\n');
    out.push_str(&"-".repeat(26 + 12 * matrix.vendors.len()));
    out.push('\n');

    for (label, cols) in &matrix.rows {
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

    let _ = writeln!(
        out,
        "\nConsistent cases: {}/{} ({}), inconsistency {:.1}% (paper: 94%)",
        matrix.consistent,
        matrix.total,
        matrix.consistent_labels.join(", "),
        matrix.inconsistency_ratio * 100.0
    );
    let _ = writeln!(
        out,
        "Unique INFO-CODEs triggered: {} {:?} (paper: 12)",
        matrix.unique_codes.len(),
        matrix.unique_codes
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
    use ede_testbed::domains::all_specs;

    #[test]
    fn table1_lists_all_codes() {
        let t = table1();
        assert!(t.contains("DNSSEC Bogus"));
        assert!(t.contains("No Reachable Authority"));
        assert!(t.contains("Synthesized"));
        // Both columns: 0..14 and 15..29.
        assert!(t.contains("15"));
    }

    #[test]
    fn table2_has_eight_groups() {
        let t = table2();
        for g in 1..=8 {
            assert!(t.contains(&format!("{g}. ")), "missing group {g}");
        }
        assert!(t.contains("valid"));
        assert!(t.contains("allow-query-localhost"));
    }

    #[test]
    fn table3_covers_all_subdomains() {
        let t = table3();
        for s in all_specs() {
            assert!(t.contains(s.label), "missing {}", s.label);
        }
    }
}
