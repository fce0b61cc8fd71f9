//! Randomized tests for the resolver cache: TTL monotonicity,
//! serve-stale windows, and the failure/success interplay behind
//! EDE 3/13/19. Cases are driven by an in-file deterministic PRNG
//! (SplitMix64), so every failure reproduces from the fixed seed.

use ede_resolver::cache::{Cache, CacheHit, CachedResolution};
use ede_resolver::diagnosis::Diagnosis;
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
    let rcode = if is_failure {
        Rcode::ServFail
    } else {
        Rcode::NoError
    };
    let (answers, ede) = (Box::default(), Box::default());
    CachedResolution::new(rcode, answers, Diagnosis::new(), ede, is_failure)
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
        let cache = Cache::new(window, None);
        let name = Name::parse("mono.example").unwrap();
        let t0 = 1_000_000;
        cache.put(&name, RrType::A, entry(false), ttl, t0);

        let n_probes = 1 + rng.below(19);
        let mut probes: Vec<u32> = (0..n_probes).map(|_| rng.range_u32(0, 40_000)).collect();
        probes.sort_unstable();
        let mut state = 2; // 2 = fresh, 1 = stale, 0 = miss
        for dt in probes {
            let now = t0 + dt;
            let s = match cache.get(name.as_wire(), RrType::A, now) {
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
        let cache = Cache::new(window, None);
        let name = Name::parse("edge.example").unwrap();
        let t0 = 500_000;
        cache.put(&name, RrType::A, entry(false), ttl, t0);

        assert!(matches!(
            cache.get(name.as_wire(), RrType::A, t0 + ttl),
            CacheHit::Fresh(..)
        ));
        assert!(matches!(
            cache.get(name.as_wire(), RrType::A, t0 + ttl + 1),
            CacheHit::Stale(_)
        ));
        assert!(matches!(
            cache.get(name.as_wire(), RrType::A, t0 + ttl + window),
            CacheHit::Stale(_)
        ));
        assert!(matches!(
            cache.get(name.as_wire(), RrType::A, t0 + ttl + window + 1),
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
        let cache = Cache::new(window, None);
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

/// The entry budget is a hard invariant under arbitrary interleavings
/// of inserts, overwrites, probes and time jumps (possibly past whole
/// TTL + window cohorts, so the sweep meets dead entries too): at no
/// observation point does the store hold more slots than the configured
/// bound, and every entry ever stored is accounted for exactly once —
/// evicted, expired, or still there.
#[test]
fn entry_budget_holds_under_random_interleavings() {
    let mut rng = Rng(0x0025_5eed);
    // A name pool of 32 forces overwrites.
    let name = |rng: &mut Rng| Name::parse(&format!("n{}.example", rng.below(32))).unwrap();
    for _ in 0..128 {
        let budget = 1 + rng.below(24);
        let cache = Cache::new(rng.range_u32(0, 600), Some(budget as usize));
        let mut now = 1_000;
        let mut stored = 0;
        let mut removed = 0;
        let n_ops = 50 + rng.below(150);
        for _ in 0..n_ops {
            let before = cache.stats().occupancy;
            match rng.below(9) {
                0..=5 => {
                    let (qname, ttl) = (name(&mut rng), rng.range_u32(1, 900));
                    let data = entry(rng.below(2) == 0);
                    let outcome = cache.put(&qname, RrType::A, data, ttl, now);
                    let gone = outcome.expired + outcome.evicted;
                    let added = outcome.occupancy + gone - before;
                    assert!(added <= 1, "one store added {added} entries");
                    stored += added;
                    removed += gone;
                }
                // A probe sets a reference bit, so later sweeps hand out
                // second chances.
                6 => {
                    cache.get(name(&mut rng).as_wire(), RrType::A, now);
                }
                _ => now += rng.range_u32(0, 2_000),
            }
            let stats = cache.stats();
            assert!(
                stats.occupancy <= budget,
                "budget {budget} exceeded: {} slots",
                stats.occupancy
            );
            assert_eq!(stats.evicted + stats.expired, removed);
            assert_eq!(removed + stats.occupancy, stored, "an entry went missing");
        }
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
        let cache = Cache::new(100, None);
        let t0 = 1_000;
        for (i, label) in labels.iter().enumerate() {
            let name = Name::parse(&format!("{label}{i}.example")).unwrap();
            cache.put(&name, RrType::A, entry(i % 2 == 0), 60, t0);
        }
        for (i, label) in labels.iter().enumerate() {
            let name = Name::parse(&format!("{label}{i}.example")).unwrap();
            match cache.get(name.as_wire(), RrType::A, t0 + 1) {
                CacheHit::Fresh(data, ..) => assert_eq!(data.is_failure, i % 2 == 0),
                other => panic!("expected fresh hit, got {other:?}"),
            }
        }
    }
}
