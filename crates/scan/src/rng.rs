//! A small deterministic PRNG for population synthesis.
//!
//! The generator is SplitMix64 (Steele, Lea & Flood 2014): 64 bits of
//! state, a full 2^64 period over the counter, and excellent avalanche
//! behavior — far more than enough for planting misconfiguration
//! categories. Keeping it in-tree makes the scan reproducible from the
//! seed alone with no external RNG dependency.

/// A seeded SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`. Same seed, same stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits of the next output).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`. Panics when `n` is zero.
    pub fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_index needs a non-empty range");
        // Multiply-shift bounded sampling (Lemire); the bias for any
        // n << 2^64 is far below anything this crate could observe.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// A weighted draw over indices `0..n`, index `i` weighing `weights[i]`
/// (finite, non-negative): the index the sequential loop
///
/// ```text
/// let mut rest = x;
/// for (i, w) in weights.iter().enumerate() {
///     rest -= w;
///     if rest <= 0.0 { return i }
/// }
/// n - 1
/// ```
///
/// lands on for `x` in `[0, sum]`, bit for bit, found by a binary search
/// over the prefix sums instead of `n` dependent subtractions.
///
/// **Why the search is exact.** The prefix sums `p[i]` are taken left
/// to right, as the loop subtracts. With `u = ε/2` the unit roundoff and
/// `S_i` the exact sum of the first `i + 1` weights, every step of the
/// loop errs by at most `u·sum` (its operands stay within `sum` while it
/// runs), so its remainder after index `i` is `x − S_i` within
/// `(i + 1)·u·sum`; each prefix is `S_i` within `(i + 1)·u·sum·(1 + u)^n`.
/// The loop's remainder and `x − p[i]` therefore differ by at most
/// `2(n + 2)·u·sum`. The search finds the first `i` with `p[i] ≥ x`; when
/// `x` lies more than the slack `4(n + 2)·ε·sum` (four times that bound,
/// which also covers rounding the comparison itself) above `p[i − 1]`
/// and below `p[i]`, the remainder is positive at every index before `i`
/// (prefixes only grow) and not positive at `i`, so the loop returns `i`
/// too. Otherwise — `x` within the slack of either prefix, or past the
/// last — the loop itself runs, from the start: for about `8n²ε` of
/// uniform draws, 4·10⁻⁹ over 1 475 TLDs and 4·10⁻⁶ over 50 000
/// servers.
#[derive(Debug, Clone)]
pub struct WeightedIndex<'w> {
    weights: &'w [f64],
    /// `prefix[i]`: the weights up to and including `i`, summed left to
    /// right.
    prefix: Vec<f64>,
    /// The weights' sum, as `weights.iter().sum()` takes it.
    sum: f64,
    /// How far from a prefix `x` must lie for the search to answer.
    slack: f64,
}

impl<'w> WeightedIndex<'w> {
    /// The draw over `weights`: at least one, each finite and
    /// non-negative.
    pub fn new(weights: &'w [f64]) -> Self {
        let mut prefix = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w;
            prefix.push(acc);
        }
        let sum: f64 = weights.iter().sum();
        let slack = 4.0 * (weights.len() + 2) as f64 * f64::EPSILON * sum;
        WeightedIndex {
            weights,
            prefix,
            sum,
            slack,
        }
    }

    /// The index `x` lands on, as the sequential loop finds it; the last
    /// index when the loop would hit none.
    pub fn index(&self, x: f64) -> usize {
        self.searched(x)
            .unwrap_or_else(|| self.sequential(x).unwrap_or(self.weights.len() - 1))
    }

    /// One draw: `rng.gen_f64() · sum`, then [`Self::index`].
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        self.index(rng.gen_f64() * self.sum)
    }

    /// The search's answer, or `None` when `x` lies within the slack of a
    /// prefix or past the last, where only the loop is sure.
    fn searched(&self, x: f64) -> Option<usize> {
        let i = self.prefix.partition_point(|&p| p < x);
        let clear_above = i == 0 || x - self.prefix[i - 1] > self.slack;
        let clear_below = self.prefix.get(i).is_some_and(|&p| p - x > self.slack);
        (clear_above && clear_below).then_some(i)
    }

    /// The sequential loop itself: the first index whose weight takes
    /// the remainder to zero or below.
    fn sequential(&self, mut x: f64) -> Option<usize> {
        self.weights.iter().position(|w| {
            x -= w;
            x <= 0.0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::seed_from_u64(7);
        let mut b = SplitMix64::seed_from_u64(7);
        let mut c = SplitMix64::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = SplitMix64::seed_from_u64(42);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn index_stays_in_bounds_and_covers() {
        let mut r = SplitMix64::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let i = r.gen_index(10);
            assert!(i < 10);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    /// The search and the loop agree over the TLD table's weights (its
    /// zero-weight entries included) and broken pools of 24, 293, 29 300
    /// and 50 000 servers: on random draws, and just outside the slack
    /// either side of prefixes, where the search answers alone. At every
    /// prefix, one ulp either side of it, 0 and the sum the search must
    /// refuse, so that the loop answers; over the three small tables the
    /// answer is checked against the loop there too (over the large
    /// pools that would be a loop of ~10⁴ steps per point, in a debug
    /// build, for a fallback that *is* the loop).
    #[test]
    fn the_search_lands_where_the_loop_does() {
        let tlds: Vec<f64> = (0..1475)
            .map(|i| {
                let base = 1.0 / ((i + 1) as f64).powf(1.03);
                let fully_broken = (1139..1150).contains(&i) || i >= 1473;
                if fully_broken {
                    0.0
                } else if i >= 1150 {
                    base * 0.4
                } else {
                    base
                }
            })
            .collect();
        let zipf =
            |n: usize| -> Vec<f64> { (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(1.12)).collect() };
        let ulp = |x: f64, up: bool| {
            let bits = x.to_bits();
            f64::from_bits(if up { bits + 1 } else { bits.saturating_sub(1) })
        };
        let mut rng = SplitMix64::seed_from_u64(0x5EA7C4);
        let mut fallbacks = 0;
        for weights in [tlds, zipf(24), zipf(293), zipf(29_300), zipf(50_000)] {
            let draw = WeightedIndex::new(&weights);
            let n = weights.len();
            let small = n <= 1475;
            let looped = |x: f64| draw.sequential(x).unwrap_or(n - 1);
            let mut answered: Vec<f64> = (0..2000).map(|_| rng.gen_f64() * draw.sum).collect();
            let mut refused = vec![0.0, draw.sum, ulp(draw.sum, false)];
            let stride = if small { 1 } else { 97 };
            for (i, &p) in draw.prefix.iter().enumerate() {
                refused.extend([p, ulp(p, false), ulp(p, true)]);
                if i % stride == 0 {
                    answered.extend([p - 1.5 * draw.slack, p + 1.5 * draw.slack]);
                }
            }
            for x in answered
                .into_iter()
                .filter(|x| (0.0..=draw.sum).contains(x))
            {
                assert_eq!(draw.index(x), looped(x), "x = {x:e} over {n} weights");
                fallbacks += usize::from(draw.searched(x).is_none());
            }
            for x in refused {
                let searched = draw.searched(x);
                assert!(
                    searched.is_none() || searched == Some(looped(x)),
                    "x = {x:e} over {n} weights"
                );
                if small {
                    assert_eq!(draw.index(x), looped(x), "x = {x:e} over {n} weights");
                }
                fallbacks += usize::from(searched.is_none());
            }
        }
        assert!(fallbacks > 0, "no draw took the loop");
    }

    #[test]
    fn a_draw_keeps_the_rng_sequence() {
        let weights = [1.0, 2.0, 3.0];
        let draw = WeightedIndex::new(&weights);
        let (mut a, mut b) = (SplitMix64::seed_from_u64(3), SplitMix64::seed_from_u64(3));
        for _ in 0..100 {
            draw.sample(&mut a);
            b.gen_f64();
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
