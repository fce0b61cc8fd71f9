//! Figures 1 and 2 benchmark: the fold and the CDF computation over a
//! scan result.

use ede_bench::{black_box, criterion_group, criterion_main, Criterion};
use ede_scan::aggregate::PartialAggregate;
use ede_scan::scanner::{scan, ScanConfig};
use ede_scan::{stats, Population, PopulationConfig, ScanWorld};

fn bench_figures(c: &mut Criterion) {
    let cfg = PopulationConfig::tiny();
    let pop = Population::generate(cfg);
    let world = ScanWorld::build(&pop);
    let result = scan(&pop, &world, &ScanConfig::default());

    c.bench_function("fold_final_records", |b| {
        b.iter(|| {
            let mut partial = PartialAggregate::default();
            for rec in result.final_records() {
                partial.fold(rec);
            }
            black_box(partial.fingerprint())
        })
    });

    let stats_snapshot = &result.stats;
    c.bench_function("figure1_cdfs", |b| {
        b.iter(|| {
            black_box(stats_snapshot.tlds.gtld_cdf());
            black_box(stats_snapshot.tlds.cctld_cdf());
        })
    });
    c.bench_function("figure2_cdf", |b| {
        b.iter(|| black_box(stats_snapshot.ranks.cdf()))
    });

    let ratios: Vec<f64> = (0..2000).map(|i| f64::from(i % 101) / 100.0).collect();
    c.bench_function("cdf_2000_values", |b| {
        b.iter(|| black_box(stats::cdf(&ratios)))
    });
    let weights: Vec<usize> = (0..5000).map(|i| 5000 - i).collect();
    c.bench_function("concentration_5000_keys", |b| {
        b.iter(|| black_box(stats::keys_to_cover(&weights, 0.81)))
    });
}

fn fast() -> Criterion {
    // This suite runs on constrained single-core CI-style machines;
    // trade statistical tightness for wall time.
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500))
        .nresamples(2000)
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_figures
}
criterion_main!(benches);
