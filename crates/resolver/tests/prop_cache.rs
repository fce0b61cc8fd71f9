//! Randomized tests for the resolver cache: TTL monotonicity,
//! serve-stale windows, and the failure/success interplay behind
//! EDE 3/13/19. Cases are driven by an in-file deterministic PRNG
//! (SplitMix64), so every failure reproduces from the fixed seed.

use ede_resolver::cache::ranges::{ProofRange, RangeCache};
use ede_resolver::cache::{
    Cache, CacheHit, CacheLimits, CacheStatsSnapshot, CachedResolution, PutOutcome,
};
use ede_resolver::diagnosis::Diagnosis;
use ede_wire::rdata::TypeBitmap;
use ede_wire::{Name, Rcode, RrType};

/// Deterministic SplitMix64 stream driving the randomized cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below((hi - lo) as u64) as u32
    }
}

fn entry(is_failure: bool) -> CachedResolution {
    CachedResolution {
        rcode: if is_failure {
            Rcode::ServFail
        } else {
            Rcode::NoError
        },
        answers: Vec::new(),
        diagnosis: Diagnosis::new(),
        is_failure,
    }
}

/// Freshness is monotone in time: once an entry stops being fresh it
/// never becomes fresh again, and once it leaves the stale window it
/// never comes back.
#[test]
fn freshness_is_monotone() {
    let mut rng = Rng(0x0021_5eed);
    for _ in 0..128 {
        let ttl = rng.range_u32(1, 10_000);
        let window = rng.range_u32(0, 10_000);
        let cache = Cache::new(window);
        let name = Name::parse("mono.example").unwrap();
        let t0 = 1_000_000;
        cache.put(&name, RrType::A, entry(false), ttl, t0);

        let n_probes = 1 + rng.below(19);
        let mut probes: Vec<u32> = (0..n_probes).map(|_| rng.range_u32(0, 40_000)).collect();
        probes.sort_unstable();
        let mut state = 2; // 2 = fresh, 1 = stale, 0 = miss
        for dt in probes {
            let now = t0 + dt;
            let s = match cache.get(&name, RrType::A, now) {
                CacheHit::Fresh(..) => 2,
                CacheHit::Stale(_) => 1,
                CacheHit::Miss => 0,
            };
            assert!(s <= state, "state went {state} → {s} at +{dt}s");
            state = s;
        }
    }
}

/// The exact boundaries: fresh through ttl, stale through ttl + window,
/// miss afterwards.
#[test]
fn window_boundaries() {
    let mut rng = Rng(0x0022_5eed);
    for _ in 0..128 {
        let ttl = rng.range_u32(1, 5_000);
        let window = rng.range_u32(1, 5_000);
        let cache = Cache::new(window);
        let name = Name::parse("edge.example").unwrap();
        let t0 = 500_000;
        cache.put(&name, RrType::A, entry(false), ttl, t0);

        assert!(matches!(
            cache.get(&name, RrType::A, t0 + ttl),
            CacheHit::Fresh(..)
        ));
        assert!(matches!(
            cache.get(&name, RrType::A, t0 + ttl + 1),
            CacheHit::Stale(_)
        ));
        assert!(matches!(
            cache.get(&name, RrType::A, t0 + ttl + window),
            CacheHit::Stale(_)
        ));
        assert!(matches!(
            cache.get(&name, RrType::A, t0 + ttl + window + 1),
            CacheHit::Miss
        ));
    }
}

/// A failure entry can never shadow a success that is still within its
/// serve-stale window — otherwise serve-stale could not work.
#[test]
fn failures_never_shadow_stale_successes() {
    let mut rng = Rng(0x0023_5eed);
    for _ in 0..128 {
        let success_ttl = rng.range_u32(1, 1_000);
        let gap = rng.range_u32(0, 1_500);
        let window = rng.range_u32(2_000, 4_000);
        let cache = Cache::new(window);
        let name = Name::parse("shadow.example").unwrap();
        let t0 = 100_000;
        cache.put(&name, RrType::A, entry(false), success_ttl, t0);
        let t1 = t0 + gap;
        cache.put(&name, RrType::A, entry(true), 30, t1);
        // gap < success_ttl + window always here, so the success must
        // survive.
        assert!(cache.get_stale_success(&name, RrType::A, t1).is_some());
    }
}

/// The two budgeted tiers behind one face, so one model drives both.
enum Tier {
    L2(Box<Cache>),
    Ranges(Box<RangeCache>),
}

impl Tier {
    /// One random store — a name pool of 32 (4 zones of 8 owners)
    /// forces overwrites. Returns what the store reported and how many
    /// entries it can at most have added.
    fn store(&self, rng: &mut Rng, now: u32) -> (PutOutcome, u64) {
        match self {
            Tier::L2(cache) => {
                let name = Name::parse(&format!("n{}.example", rng.below(32))).unwrap();
                let ttl = rng.range_u32(1, 900);
                let data = entry(rng.below(2) == 0);
                (cache.put(&name, RrType::A, data, ttl, now), 1)
            }
            Tier::Ranges(ranges) => {
                let zone = Name::parse(&format!("z{}.example", rng.below(4))).unwrap();
                let spans: Vec<ProofRange> = (0..1 + rng.below(3))
                    .map(|_| {
                        let owner = rng.below(8) as u8;
                        ProofRange::Nsec3 {
                            iterations: 0,
                            salt: [].into(),
                            flags: 0,
                            owner_hash: vec![owner; 20],
                            next_hash: vec![owner + 1; 20],
                            types: TypeBitmap::new(),
                            ttl: rng.range_u32(1, 900),
                            sig_expiration: now + rng.range_u32(1, 2_000),
                        }
                    })
                    .collect();
                (ranges.retain(&zone, &spans, now), spans.len() as u64)
            }
        }
    }

    /// One random probe: sets reference bits, so later sweeps hand out
    /// second chances.
    fn probe(&self, rng: &mut Rng, now: u32) {
        match self {
            Tier::L2(cache) => {
                let name = Name::parse(&format!("n{}.example", rng.below(32))).unwrap();
                cache.get(&name, RrType::A, now);
            }
            Tier::Ranges(ranges) => {
                let name = Name::parse(&format!("p{}.z{}.example", rng.below(8), rng.below(4)));
                ranges.deny(&name.unwrap(), RrType::A, now);
            }
        }
    }

    fn purge_expired(&self, now: u32) -> u64 {
        match self {
            Tier::L2(cache) => cache.purge_expired(now),
            Tier::Ranges(ranges) => ranges.purge_expired(now),
        }
    }

    fn stats(&self) -> CacheStatsSnapshot {
        match self {
            Tier::L2(cache) => cache.stats(),
            Tier::Ranges(ranges) => ranges.stats(),
        }
    }
}

/// The entry budget is a hard invariant under arbitrary interleavings
/// of inserts, overwrites, probes, expiries, and time jumps, in both
/// budgeted tiers: at no observation point does the store hold more
/// slots than the configured bound, and every entry ever stored is
/// accounted for exactly once — evicted, expired, or still there.
#[test]
fn entry_budget_holds_under_random_interleavings() {
    let mut rng = Rng(0x0025_5eed);
    for case in 0..128 {
        let budget = 1 + rng.below(24);
        let limits = CacheLimits {
            max_entries: Some(budget as usize),
        };
        let tier = match case % 2 {
            0 => Tier::L2(Box::new(Cache::with_limits(rng.range_u32(0, 600), limits))),
            _ => Tier::Ranges(Box::new(RangeCache::with_limits(limits))),
        };
        let mut now = 1_000;
        let mut stored = 0;
        let mut removed = 0;
        let n_ops = 50 + rng.below(150);
        for _ in 0..n_ops {
            let before = tier.stats().occupancy;
            match rng.below(10) {
                0..=5 => {
                    let (outcome, at_most) = tier.store(&mut rng, now);
                    let gone = outcome.expired + outcome.evicted;
                    let added = outcome.occupancy + gone - before;
                    assert!(added <= at_most, "one store added {added} entries");
                    stored += added;
                    removed += gone;
                }
                6 => tier.probe(&mut rng, now),
                // Time jump (possibly past whole TTL+window cohorts).
                7..=8 => now += rng.range_u32(0, 2_000),
                // Eager purge.
                _ => removed += tier.purge_expired(now),
            }
            let stats = tier.stats();
            assert!(
                stats.occupancy <= budget,
                "budget {budget} exceeded: {} slots",
                stats.occupancy
            );
            assert_eq!(stats.evicted + stats.expired, removed);
            assert_eq!(removed + stats.occupancy, stored, "an entry went missing");
        }
        // Everything left dies of old age, once.
        removed += tier.purge_expired(u32::MAX);
        let stats = tier.stats();
        assert_eq!(
            (stats.occupancy, stats.evicted + stats.expired),
            (0, stored)
        );
        assert_eq!(removed, stored);
    }
}

/// Distinct (name, type) keys never interfere.
#[test]
fn keys_are_independent() {
    let mut rng = Rng(0x0024_5eed);
    for _ in 0..64 {
        let n_names = 2 + rng.below(4) as usize;
        let labels: Vec<String> = (0..n_names)
            .map(|_| {
                let len = 1 + rng.below(8);
                (0..len)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect()
            })
            .collect();
        let cache = Cache::new(100);
        let t0 = 1_000;
        for (i, label) in labels.iter().enumerate() {
            let name = Name::parse(&format!("{label}{i}.example")).unwrap();
            cache.put(&name, RrType::A, entry(i % 2 == 0), 60, t0);
        }
        for (i, label) in labels.iter().enumerate() {
            let name = Name::parse(&format!("{label}{i}.example")).unwrap();
            match cache.get(&name, RrType::A, t0 + 1) {
                CacheHit::Fresh(data, ..) => assert_eq!(data.is_failure, i % 2 == 0),
                other => panic!("expected fresh hit, got {other:?}"),
            }
        }
    }
}
