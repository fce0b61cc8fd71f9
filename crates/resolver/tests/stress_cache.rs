//! Concurrency stress tests for the sharded resolver cache: many
//! threads hammering put/get/serve-stale across shards must never lose
//! entries, never hand out torn data, and must preserve the
//! failure-never-clobbers-stale-success invariant under contention.

use ede_resolver::cache::{Cache, CacheHit, CachedResolution, SHARD_COUNT};
use ede_resolver::diagnosis::Diagnosis;
use ede_wire::{Name, Rcode, RrType};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn entry(is_failure: bool) -> CachedResolution {
    let rcode = if is_failure {
        Rcode::ServFail
    } else {
        Rcode::NoError
    };
    let (answers, ede) = (Box::default(), Box::default());
    CachedResolution::new(rcode, answers, Diagnosis::new(), ede, is_failure)
}

fn name(thread: usize, i: usize) -> Name {
    Name::parse(&format!("d{i}.t{thread}.example")).unwrap()
}

/// Every thread writes its own key space while reading everyone
/// else's. After the storm, every entry must be present and carry the
/// payload its writer stored.
#[test]
fn concurrent_put_get_across_shards() {
    const THREADS: usize = 8;
    const NAMES: usize = 200;
    let cache = Cache::new(100, None);
    let misses = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            let misses = &misses;
            s.spawn(move || {
                for i in 0..NAMES {
                    cache.put(&name(t, i), RrType::A, entry(i % 3 == 0), 60, 1_000);
                    // Read a neighbour's key space while it is being
                    // written: a miss is fine (not yet stored), but a
                    // hit must be internally consistent.
                    let other = name((t + 1) % THREADS, i);
                    match cache.get(other.as_wire(), RrType::A, 1_010) {
                        CacheHit::Fresh(data, ..) => {
                            assert_eq!(data.is_failure, i % 3 == 0, "torn read for {other}");
                        }
                        CacheHit::Stale(_) => panic!("nothing can be stale yet"),
                        CacheHit::Miss => {
                            misses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Everything written must be retrievable afterwards.
    for t in 0..THREADS {
        for i in 0..NAMES {
            match cache.get(name(t, i).as_wire(), RrType::A, 1_010) {
                CacheHit::Fresh(data, ..) => assert_eq!(data.is_failure, i % 3 == 0),
                other => panic!("lost {} : {other:?}", name(t, i)),
            }
        }
    }
    assert_eq!(cache.stats().occupancy, (THREADS * NAMES) as u64);
    // Sanity: the key space is much larger than SHARD_COUNT, so the
    // storm genuinely exercised every shard.
    const { assert!(THREADS * NAMES > SHARD_COUNT) };
}

/// The serve-stale invariant under contention: concurrent failure puts
/// must never clobber a success that is still inside its stale window,
/// no matter how they interleave with probes.
#[test]
fn failure_puts_never_clobber_stale_success_under_contention() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 500;
    let cache = Cache::new(10_000, None);
    let qname = Name::parse("flappy.example").unwrap();
    // Stored at t=1000 with ttl 60: stale (but servable) at t=1100.
    cache.put(&qname, RrType::A, entry(false), 60, 1_000);

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let cache = &cache;
            let qname = &qname;
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    cache.put(qname, RrType::A, entry(true), 30, 1_100);
                    let stale = cache
                        .get_stale_success(qname, RrType::A, 1_100)
                        .expect("stale success clobbered by a failure put");
                    assert!(!stale.is_failure);
                    assert_eq!(stale.rcode, Rcode::NoError);
                }
            });
        }
    });

    assert!(cache.get_stale_success(&qname, RrType::A, 1_100).is_some());
}

/// The zero-deep-clone guarantee survives concurrency: every hit on an
/// unchanged entry is the same allocation (`Arc::ptr_eq`), from every
/// thread.
#[test]
fn concurrent_hits_share_one_allocation() {
    const THREADS: usize = 8;
    let cache = Cache::new(100, None);
    let qname = Name::parse("shared.example").unwrap();
    cache.put(&qname, RrType::A, entry(false), 60, 1_000);
    let reference = match cache.get(qname.as_wire(), RrType::A, 1_001) {
        CacheHit::Fresh(data, ..) => data,
        other => panic!("expected fresh hit, got {other:?}"),
    };

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let cache = &cache;
            let qname = &qname;
            let reference = &reference;
            s.spawn(move || {
                for _ in 0..1_000 {
                    match cache.get(qname.as_wire(), RrType::A, 1_001) {
                        CacheHit::Fresh(data, ..) => {
                            assert!(Arc::ptr_eq(&data, reference), "hit deep-cloned the entry")
                        }
                        other => panic!("expected fresh hit, got {other:?}"),
                    }
                }
            });
        }
    });
}
