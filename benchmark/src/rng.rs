//! Seeded input generation. The benchmark owns its generator so that the
//! program under test receives only the generated inputs and a change to
//! a product crate cannot move the op stream.

/// SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; bias far below 2^-40 here).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf sampler over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^s`, by inversion on the cumulative
/// table.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..16).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(1);
        let mut seen = [false; 63];
        for _ in 0..10_000 {
            seen[r.below(63)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let z = Zipf::new(303_104, 1.0);
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..1000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(0xEDE_2023), draw(0xEDE_2023));
        assert_ne!(draw(0xEDE_2023), draw(1));
    }

    #[test]
    fn zipf_head_carries_the_expected_mass() {
        // With s = 1 the top rank has mass 1/H_n and the top ten
        // H_10/H_n; H_1000 = 7.4855.
        let z = Zipf::new(1000, 1.0);
        let mut r = Rng::new(42);
        let n = 200_000;
        let mut top1 = 0usize;
        let mut top10 = 0usize;
        for _ in 0..n {
            let k = z.sample(&mut r);
            assert!(k < 1000);
            top1 += usize::from(k == 0);
            top10 += usize::from(k < 10);
        }
        let p1 = top1 as f64 / n as f64;
        let p10 = top10 as f64 / n as f64;
        assert!((p1 - 1.0 / 7.4855).abs() < 0.005, "p1 = {p1}");
        assert!((p10 - 2.9290 / 7.4855).abs() < 0.007, "p10 = {p10}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
