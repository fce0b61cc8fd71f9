//! The one latency histogram: fixed buckets over atomic counters,
//! microseconds throughout.
//!
//! Both registries feed it — [`Metrics`](crate::Metrics) with
//! virtual-clock durations, which arrive in milliseconds and are read
//! back through the `_ms` views, [`ServerMetrics`](crate::ServerMetrics)
//! with wall-clock handling times. The bucket bounds are data: each
//! registry names the set it buckets by, and the frozen [`Histogram`]
//! carries it along.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Bounds for simulated durations: 1, 5, 20, 50, 100, 500, 2 000 and
/// 10 000 ms, chosen around the simulation's RTT (20 ms) and timeout
/// (2 000 ms) defaults.
pub(crate) const SIM_BOUNDS_US: &[u64] = &[
    1_000, 5_000, 20_000, 50_000, 100_000, 500_000, 2_000_000, 10_000_000,
];

/// Bounds for in-process serving times, from loopback cache hits (tens
/// of µs) up to full cold resolutions (ms range).
pub(crate) const SERVER_BOUNDS_US: &[u64] =
    &[25, 50, 100, 250, 500, 1_000, 2_500, 10_000, 50_000, 250_000];

/// The most bounds a set may have (the counters are a fixed array).
const MAX_BOUNDS: usize = 10;

/// A frozen fixed-bucket latency histogram. Values are microseconds.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket upper bounds, µs, ascending.
    pub bounds_us: &'static [u64],
    /// Per-bucket observation counts: `counts[i]` holds observations
    /// `<= bounds_us[i]`, slot `bounds_us.len()` the overflow; any
    /// further slots are unused.
    pub counts: [u64; MAX_BOUNDS + 1],
    /// Total number of observations.
    pub total: u64,
    /// Sum of all observed values, µs (for the mean).
    pub sum: u64,
    /// Largest observed value, µs.
    pub max: u64,
}

impl Histogram {
    /// Mean observed value in µs, or 0 with no observations.
    pub fn mean_us(&self) -> f64 {
        self.mean_in(1)
    }

    /// Mean observed value in ms, or 0 with no observations.
    pub fn mean_ms(&self) -> f64 {
        self.mean_in(1_000)
    }

    /// The mean in units of `unit_us`, divided once so that whole-unit
    /// observations give the quotient their own sum and count would.
    fn mean_in(&self, unit_us: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / (self.total * unit_us) as f64
        }
    }

    /// Approximate quantile in µs: the upper bound of the bucket
    /// containing the `q`-quantile observation (`q` in `[0, 1]`), or the
    /// largest observation when that is the overflow bucket.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return self.bounds_us.get(i).copied().unwrap_or(self.max);
            }
        }
        self.max
    }

    /// [`quantile_us`](Self::quantile_us) in whole milliseconds.
    pub fn quantile_ms(&self, q: f64) -> u64 {
        self.quantile_us(q) / 1_000
    }
}

/// The live side of a [`Histogram`]: per-bucket atomic counters, so
/// neither a scan's worker pool (a latency for every delivered query
/// and every finished resolution) nor the serving hot path takes a lock
/// to observe. The bounds are the caller's, the same at every call.
#[derive(Debug, Default)]
pub(crate) struct LiveHistogram {
    counts: [AtomicU64; MAX_BOUNDS + 1],
    total: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl LiveHistogram {
    pub(crate) fn observe(&self, bounds_us: &[u64], value_us: u64) {
        let idx = bounds_us
            .iter()
            .position(|&ub| value_us <= ub)
            .unwrap_or(bounds_us.len());
        self.counts[idx].fetch_add(1, Relaxed);
        self.total.fetch_add(1, Relaxed);
        self.sum.fetch_add(value_us, Relaxed);
        self.max.fetch_max(value_us, Relaxed);
    }

    pub(crate) fn snapshot(&self, bounds_us: &'static [u64]) -> Histogram {
        Histogram {
            bounds_us,
            counts: std::array::from_fn(|i| self.counts[i].load(Relaxed)),
            total: self.total.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_and_quantiles() {
        let live = LiveHistogram::default();
        for ms in [0, 1, 20, 20, 2_000, 50_000] {
            live.observe(SIM_BOUNDS_US, ms * 1_000);
        }
        let h = live.snapshot(SIM_BOUNDS_US);
        assert_eq!(h.total, 6);
        assert_eq!(h.max, 50_000_000);
        assert_eq!(h.counts[0], 2); // <= 1 ms
        assert_eq!(h.counts[2], 2); // <= 20 ms
        assert_eq!(h.counts[SIM_BOUNDS_US.len()], 1); // overflow
        assert_eq!(h.quantile_ms(0.0), 1);
        assert_eq!(h.quantile_ms(1.0), 50_000);
        assert!(h.mean_ms() > 0.0);
        assert_eq!(Histogram::default().quantile_us(0.5), 0);
    }

    /// One of the two histograms this type replaced — they differed in
    /// their bounds and nothing else — in its own unit, kept as the
    /// model: merging them must not have moved a printed number.
    struct Twin {
        bounds: &'static [u64],
        counts: [u64; 11],
        total: u64,
        sum: u64,
        max: u64,
    }

    const TWIN_BOUNDS_MS: &[u64] = &[1, 5, 20, 50, 100, 500, 2_000, 10_000];
    const TWIN_BOUNDS_US: &[u64] = &[25, 50, 100, 250, 500, 1_000, 2_500, 10_000, 50_000, 250_000];

    impl Twin {
        fn of(bounds: &'static [u64], values: &[u64]) -> Twin {
            let mut twin = Twin {
                bounds,
                counts: [0; 11],
                total: values.len() as u64,
                sum: values.iter().sum(),
                max: values.iter().copied().max().unwrap_or(0),
            };
            for v in values {
                let idx = bounds.iter().position(|ub| v <= ub);
                twin.counts[idx.unwrap_or(bounds.len())] += 1;
            }
            twin
        }

        fn mean(&self) -> f64 {
            if self.total == 0 {
                0.0
            } else {
                self.sum as f64 / self.total as f64
            }
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.total == 0 {
                return 0;
            }
            let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
            let mut seen = 0;
            for (i, &c) in self.counts[..=self.bounds.len()].iter().enumerate() {
                seen += c;
                if seen >= rank.max(1) {
                    return self.bounds.get(i).copied().unwrap_or(self.max);
                }
            }
            self.max
        }
    }

    /// Both twins against the merged type on the same observations: the
    /// ms one through the ms view, the µs one natively.
    fn assert_matches_twins(values: &[u64]) {
        let (sim, server) = (LiveHistogram::default(), LiveHistogram::default());
        for &v in values {
            sim.observe(SIM_BOUNDS_US, v * 1_000);
            server.observe(SERVER_BOUNDS_US, v);
        }
        let (sim, server) = (
            sim.snapshot(SIM_BOUNDS_US),
            server.snapshot(SERVER_BOUNDS_US),
        );
        let (ms, us) = (
            Twin::of(TWIN_BOUNDS_MS, values),
            Twin::of(TWIN_BOUNDS_US, values),
        );
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(sim.quantile_ms(q), ms.quantile(q), "ms q{q} of {values:?}");
            assert_eq!(
                server.quantile_us(q),
                us.quantile(q),
                "µs q{q} of {values:?}"
            );
        }
        assert_eq!(format!("{:.1}", sim.mean_ms()), format!("{:.1}", ms.mean()));
        assert_eq!(
            format!("{:.1}", server.mean_us()),
            format!("{:.1}", us.mean())
        );
        assert_eq!((sim.max / 1_000, server.max), (ms.max, us.max));
    }

    #[test]
    fn merged_histogram_prints_what_its_twins_printed() {
        assert_matches_twins(&[]);
        for v in 0..=20_000 {
            assert_matches_twins(&[v]);
        }
        // Seeded multisets, log-uniform so every bucket of either set
        // and both overflows are hit (SplitMix64).
        let mut state = 0x0017_5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..500 {
            let len = 1 + next() % 300;
            let values: Vec<u64> = (0..len).map(|_| next() >> (40 + next() % 24)).collect();
            assert_matches_twins(&values);
        }
    }
}
