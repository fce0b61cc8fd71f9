//! The one latency histogram: fixed buckets over atomic counters,
//! microseconds throughout, fed by the server section of
//! [`Metrics`](crate::Metrics) with wall-clock handling times.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Bucket upper bounds, µs: in-process serving times, from loopback
/// cache hits (tens of µs) up to full cold resolutions (ms range).
pub(crate) const BOUNDS_US: [u64; 10] =
    [25, 50, 100, 250, 500, 1_000, 2_500, 10_000, 50_000, 250_000];

/// A frozen fixed-bucket latency histogram. Values are microseconds.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts: `counts[i]` holds observations
    /// `<=` the `i`-th bound (25, 50, 100, 250, 500, 1 000, 2 500,
    /// 10 000, 50 000 and 250 000 µs), the last slot the overflow.
    pub counts: [u64; BOUNDS_US.len() + 1],
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
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
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
                return BOUNDS_US.get(i).copied().unwrap_or(self.max);
            }
        }
        self.max
    }
}

/// The live side of a [`Histogram`]: per-bucket atomic counters, so the
/// serving hot path takes no lock to observe.
/// [`Metrics`](crate::Metrics) keeps one per stripe and freezes them
/// together ([`LiveHistogram::merged`]).
#[derive(Debug, Default)]
pub(crate) struct LiveHistogram {
    counts: [AtomicU64; BOUNDS_US.len() + 1],
    total: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl LiveHistogram {
    pub(crate) fn observe(&self, value_us: u64) {
        let idx = BOUNDS_US
            .iter()
            .position(|&ub| value_us <= ub)
            .unwrap_or(BOUNDS_US.len());
        self.counts[idx].fetch_add(1, Relaxed);
        self.total.fetch_add(1, Relaxed);
        self.sum.fetch_add(value_us, Relaxed);
        self.max.fetch_max(value_us, Relaxed);
    }

    /// Freeze the sum of `lives` — the stripes of one histogram: counts,
    /// total and sum add up, `max` is the largest of theirs.
    pub(crate) fn merged<'a>(lives: impl IntoIterator<Item = &'a LiveHistogram>) -> Histogram {
        let mut frozen = Histogram::default();
        for live in lives {
            for (count, live) in frozen.counts.iter_mut().zip(&live.counts) {
                *count += live.load(Relaxed);
            }
            frozen.total += live.total.load(Relaxed);
            frozen.sum += live.sum.load(Relaxed);
            frozen.max = frozen.max.max(live.max.load(Relaxed));
        }
        frozen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_and_quantiles() {
        let live = LiveHistogram::default();
        for us in [0, 25, 100, 100, 2_500, 1_000_000] {
            live.observe(us);
        }
        let h = LiveHistogram::merged([&live]);
        assert_eq!(h.total, 6);
        assert_eq!(h.max, 1_000_000);
        assert_eq!(h.counts[0], 2); // <= 25 µs
        assert_eq!(h.counts[2], 2); // <= 100 µs
        assert_eq!(h.counts[BOUNDS_US.len()], 1); // overflow
        assert_eq!(h.quantile_us(0.0), 25);
        assert_eq!(h.quantile_us(1.0), 1_000_000);
        assert!(h.mean_us() > 0.0);
        assert_eq!(Histogram::default().quantile_us(0.5), 0);
    }

    /// Stripes freeze into the histogram one live copy would have held.
    #[test]
    fn stripes_merge_into_one_histogram() {
        let values = [0, 3, 20, 20, 700, 2_000, 500_000];
        let (one, halves) = (
            LiveHistogram::default(),
            [LiveHistogram::default(), LiveHistogram::default()],
        );
        for (i, &us) in values.iter().enumerate() {
            one.observe(us);
            halves[i % 2].observe(us);
        }
        assert_eq!(
            LiveHistogram::merged(&halves),
            LiveHistogram::merged([&one])
        );
    }

    /// A plain count of the same observations, kept as the model the
    /// histogram must print as.
    struct Twin {
        counts: [u64; 11],
        total: u64,
        sum: u64,
        max: u64,
    }

    const TWIN_BOUNDS_US: &[u64] = &[25, 50, 100, 250, 500, 1_000, 2_500, 10_000, 50_000, 250_000];

    impl Twin {
        fn of(values: &[u64]) -> Twin {
            let mut twin = Twin {
                counts: [0; 11],
                total: values.len() as u64,
                sum: values.iter().sum(),
                max: values.iter().copied().max().unwrap_or(0),
            };
            for v in values {
                let idx = TWIN_BOUNDS_US.iter().position(|ub| v <= ub);
                twin.counts[idx.unwrap_or(TWIN_BOUNDS_US.len())] += 1;
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
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= rank.max(1) {
                    return TWIN_BOUNDS_US.get(i).copied().unwrap_or(self.max);
                }
            }
            self.max
        }
    }

    /// The twin against the histogram on the same observations.
    fn assert_matches_twin(values: &[u64]) {
        let live = LiveHistogram::default();
        for &v in values {
            live.observe(v);
        }
        let (h, twin) = (LiveHistogram::merged([&live]), Twin::of(values));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), twin.quantile(q), "q{q} of {values:?}");
        }
        assert_eq!(format!("{:.1}", h.mean_us()), format!("{:.1}", twin.mean()));
        assert_eq!(h.max, twin.max);
    }

    #[test]
    fn the_histogram_prints_what_its_twin_prints() {
        assert_matches_twin(&[]);
        for v in 0..=20_000 {
            assert_matches_twin(&[v]);
        }
        // Seeded multisets, log-uniform so every bucket and the overflow
        // are hit (SplitMix64).
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
            assert_matches_twin(&values);
        }
    }
}
