#![warn(missing_docs)]

//! Benchmarks regenerating every table and figure of the paper.
//!
//! Each bench target regenerates (and times) one of the paper's
//! artifacts:
//!
//! | target | paper artifact |
//! |---|---|
//! | `wire_codec` | message encode/decode throughput (scanner substrate) |
//! | `crypto_primitives` | SHA/NSEC3/keytag/simsig costs |
//! | `validation` | zone signing + chain validation |
//! | `table4_vendor_matrix` | Table 4 (63 × 7 resolution matrix) |
//! | `scan_throughput` | §4.2 scan: workers × in-flight sweep, bit-identity smoke |
//! | `figures` | Figures 1 and 2 aggregation |
//! | `ablations` | design-choice ablations (cache, profile specificity) |
//!
//! The harness lives here: a small, dependency-free timer exposing a
//! criterion-shaped API (`Criterion::bench_function`, `Bencher::iter`,
//! groups, and the `criterion_group!`/`criterion_main!` macros), so the
//! bench sources read like standard Rust benchmarks. Invoked without
//! `--bench` (i.e. under `cargo test`) every benchmark runs exactly one
//! smoke iteration; `cargo bench` (or `EDE_BENCH=full`) does timed
//! sampling and prints per-iteration statistics.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

use ede_testbed::Testbed;

/// Build the testbed once per bench process.
pub fn shared_testbed() -> Testbed {
    Testbed::build()
}

/// True when full measurement was requested (`--bench` on the command
/// line, as `cargo bench` passes, or `EDE_BENCH=full` in the
/// environment). Otherwise benchmarks run one smoke iteration each.
pub fn full_measurement() -> bool {
    std::env::args().any(|a| a == "--bench")
        || std::env::var("EDE_BENCH").is_ok_and(|v| v == "full")
}

/// Work performed per iteration, used to derive throughput figures.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// The benchmark driver: times closures and prints per-iteration stats.
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    group: Option<String>,
    throughput: Option<Throughput>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_millis(1500),
            group: None,
            throughput: None,
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Untimed warm-up budget per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Timed measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Accepted for criterion compatibility; the harness reports simple
    /// statistics and does not bootstrap.
    pub fn nresamples(self, _n: usize) -> Self {
        self
    }

    /// Run one named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full_name = match &self.group {
            Some(g) => format!("{g}/{name}"),
            None => name.to_string(),
        };
        let mut b = Bencher {
            mode: if full_measurement() {
                Mode::Measure {
                    warm_up: self.warm_up,
                    measurement: self.measurement,
                    sample_size: self.sample_size,
                }
            } else {
                Mode::Smoke
            },
            result: None,
        };
        f(&mut b);
        match b.result {
            Some(stats) => {
                let tp = match self.throughput {
                    Some(Throughput::Bytes(n)) => {
                        format!(
                            ", {:.1} MiB/s",
                            n as f64 / (stats.mean_ns / 1e9) / (1 << 20) as f64
                        )
                    }
                    Some(Throughput::Elements(n)) => {
                        format!(", {:.0} elem/s", n as f64 / (stats.mean_ns / 1e9))
                    }
                    None => String::new(),
                };
                println!(
                    "bench {full_name}: {} /iter (min {}, {} samples x {} iters{tp})",
                    fmt_ns(stats.mean_ns),
                    fmt_ns(stats.min_ns),
                    stats.samples,
                    stats.iters_per_sample,
                );
            }
            None => println!("bench {full_name}: smoke ok"),
        }
        self
    }

    /// Open a named group; benchmarks run through it are prefixed with
    /// the group name.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let group = name.to_string();
        BenchmarkGroup { c: self, group }
    }
}

/// A named group of benchmarks (prefixing only).
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    group: String,
}

impl BenchmarkGroup<'_> {
    /// Declare the work performed per iteration; reported as a
    /// throughput figure alongside per-iteration time.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.c.throughput = Some(t);
        self
    }

    /// Run one benchmark inside the group.
    pub fn bench_function<N: std::fmt::Display, F>(&mut self, name: N, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.c.group = Some(self.group.clone());
        self.c.bench_function(&name.to_string(), f);
        self.c.group = None;
        self
    }

    /// Close the group.
    pub fn finish(self) {
        self.c.throughput = None;
    }
}

enum Mode {
    Smoke,
    Measure {
        warm_up: Duration,
        measurement: Duration,
        sample_size: usize,
    },
}

struct Stats {
    mean_ns: f64,
    min_ns: f64,
    samples: usize,
    iters_per_sample: u64,
}

/// Passed to each benchmark closure; call [`Bencher::iter`] with the
/// code under test.
pub struct Bencher {
    mode: Mode,
    result: Option<Stats>,
}

impl Bencher {
    /// Time `f`. In smoke mode it runs once; in measurement mode the
    /// iteration count is calibrated to the measurement budget and the
    /// routine is sampled `sample_size` times.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        match self.mode {
            Mode::Smoke => {
                black_box(f());
            }
            Mode::Measure {
                warm_up,
                measurement,
                sample_size,
            } => {
                // Warm-up doubles as calibration: count how many
                // iterations fit in the warm-up budget.
                let start = Instant::now();
                let mut warm_iters: u64 = 0;
                while start.elapsed() < warm_up || warm_iters == 0 {
                    black_box(f());
                    warm_iters += 1;
                }
                let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;
                let budget = measurement.as_secs_f64() / sample_size as f64;
                let iters = ((budget / per_iter) as u64).max(1);

                let mut sample_ns: Vec<f64> = Vec::with_capacity(sample_size);
                for _ in 0..sample_size {
                    let t = Instant::now();
                    for _ in 0..iters {
                        black_box(f());
                    }
                    sample_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
                }
                let mean_ns = sample_ns.iter().sum::<f64>() / sample_ns.len() as f64;
                let min_ns = sample_ns.iter().copied().fold(f64::INFINITY, f64::min);
                self.result = Some(Stats {
                    mean_ns,
                    min_ns,
                    samples: sample_size,
                    iters_per_sample: iters,
                });
            }
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Define a bench entry point: a function running each target against
/// the given `Criterion` configuration.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $config;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Define `main` for a bench binary built with `harness = false`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_once() {
        // Under `cargo test` (no --bench, no EDE_BENCH=full) a bench
        // body executes exactly once.
        if !full_measurement() {
            let mut c = Criterion::default();
            let mut runs = 0;
            c.bench_function("noop", |b| b.iter(|| runs += 1));
            assert_eq!(runs, 1);
        }
    }

    #[test]
    fn formats_scale() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(12_500.0), "12.50 µs");
        assert_eq!(fmt_ns(3_200_000.0), "3.20 ms");
    }
}
