//! The paper's headline quantitative claims, checked end to end against
//! the reproduction.

use extended_dns_errors::resolver::Vendor;
use extended_dns_errors::scan::{
    population::{Population, PopulationConfig},
    scanner::{scan, ScanConfig},
    world::ScanWorld,
};
use extended_dns_errors::testbed::{agreement, expectations::table4, Testbed};
use extended_dns_errors::wire::RrType;

/// §3.3: "Only 4 test cases out of 63 triggered the same results across
/// all the seven tested systems […] The remaining 94% of the cases were
/// handled inconsistently." — measured, not read from the expectation
/// table.
#[test]
fn claim_94_percent_inconsistency() {
    let tb = Testbed::build();
    let resolvers: Vec<_> = Vendor::ALL.iter().map(|&v| tb.resolver(v)).collect();
    let rows: Vec<(String, Vec<Vec<u16>>)> = tb
        .specs
        .iter()
        .map(|spec| {
            let qname = tb.query_name(spec);
            let cols = resolvers
                .iter()
                .map(|r| {
                    r.flush();
                    r.resolve(&qname, RrType::A).ede_codes()
                })
                .collect();
            (spec.label.to_string(), cols)
        })
        .collect();

    let agg = agreement::analyze(&rows);
    assert_eq!(agg.consistent, 4);
    assert_eq!(
        agg.consistent_labels,
        vec!["valid", "no-ds", "nsec3-iter-200", "unsigned"]
    );
    assert!((0.93..0.95).contains(&agg.inconsistency_ratio()));

    // "Our test cases triggered 12 unique INFO-CODEs".
    assert_eq!(agreement::unique_codes(&rows).len(), 12);

    // And the measured matrix equals the published Table 4 cell by cell.
    for (row, exp) in rows.iter().zip(table4()) {
        assert_eq!(row.0, exp.label);
        for i in 0..7 {
            assert_eq!(row.1[i], exp.codes[i].to_vec(), "{} col {i}", row.0);
        }
    }
}

/// §4.2: the scan's per-code ordering — 22 > 23 > 10 > 9 > 6 — and the
/// overall EDE rate around 5.8%.
#[test]
fn claim_scan_inventory_shape() {
    let cfg = PopulationConfig {
        scale: 20_000, // ~15k domains: fast but structured
        ..Default::default()
    };
    let pop = Population::generate(cfg);
    let world = ScanWorld::build(&pop);
    let result = scan(&pop, &world, &ScanConfig::default());
    let ede = &result.stats.ede;

    let count = |c: u16| ede.per_code.get(&c).copied().unwrap_or(0);
    assert!(count(22) > count(23), "22 dominates 23");
    assert!(count(23) > count(10), "23 dominates 10");
    assert!(count(10) > count(9), "10 dominates 9");
    assert!(count(9) > count(6), "9 dominates 6");

    // 17.7M / 303M = 5.8% — allow slack for the absolute-planted rare
    // categories at this scale.
    let rate = ede.ede_rate();
    assert!((0.04..0.10).contains(&rate), "EDE rate {rate}");

    // Lame delegation (22 ∪ 23) is "the issue affecting the largest
    // number of registered domain names".
    let lame = ede
        .per_combo
        .iter()
        .filter(|(combo, _)| combo.contains(&22) || combo.contains(&23))
        .map(|(_, n)| n)
        .sum::<usize>();
    assert!(lame * 2 > ede.ede_domains, "lame delegation dominates");
}

/// §4.3 / Figure 1: ccTLDs are more likely to carry misconfigured
/// domains than gTLDs; a large share of gTLDs have none at all.
#[test]
fn claim_figure1_tld_concentration() {
    let cfg = PopulationConfig {
        scale: 20_000,
        ..Default::default()
    };
    let pop = Population::generate(cfg);
    let world = ScanWorld::build(&pop);
    let result = scan(&pop, &world, &ScanConfig::default());
    let tlds = &result.stats.tlds;

    let g0 = tlds.gtld_zero_fraction();
    let c0 = tlds.cctld_zero_fraction();
    assert!(g0 > c0, "more gTLDs than ccTLDs are clean: {g0} vs {c0}");
    assert!(g0 > 0.25, "a large share of gTLDs is clean: {g0}");

    // Fully-broken TLDs exist on both sides (the paper: 11 gTLDs, 2
    // ccTLDs).
    assert!(tlds.gtld_ratios.contains(&1.0));
    assert!(tlds.cctld_ratios.contains(&1.0));
}

/// §4.3 / Figure 2: EDE-triggering domains are evenly distributed across
/// the popularity ranking, and some of the overlap answers NOERROR.
#[test]
fn claim_figure2_tranco_uniformity() {
    let cfg = PopulationConfig {
        scale: 15_000,
        // The ranked list is sampled from the population independently of
        // its size, so a large list keeps the overlap statistically
        // meaningful even at a small scale.
        tranco_size: 2000,
        ..Default::default()
    };
    let pop = Population::generate(cfg);
    let world = ScanWorld::build(&pop);
    let result = scan(&pop, &world, &ScanConfig::default());
    let ranks = &result.stats.ranks;

    let overlap = ranks.overlap();
    assert!(overlap > 10, "enough ranked EDE domains to test: {overlap}");

    // Kolmogorov-style check against the uniform CDF.
    let max_dev = ranks.max_uniform_deviation();
    assert!(max_dev < 0.25, "rank CDF far from uniform: {max_dev}");

    assert!(
        result.stats.ede.noerror_with_ede > 0,
        "NOERROR responses still carry EDE"
    );
}
