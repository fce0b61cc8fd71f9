//! Scale and determinism tests for the event-driven task pool: ten
//! thousand resolutions in flight on one thread, slot recycling keeping
//! memory bounded by the window (not the total spawned), and identical
//! outcomes under arbitrary interleavings of `spawn` and `next`.
//!
//! The network here is deliberately empty: every root-hint exchange
//! parks the task until its timeout completion fires, which is exactly
//! the shape that exercises the scheduler (the full resolution pipeline
//! is covered end-to-end by the testbed and scan suites).

use ede_netsim::{NetworkBuilder, NetworkConfig, SimClock};
use ede_resolver::config::RootHint;
use ede_resolver::{Resolution, ResolutionPool, Resolver, ResolverConfig, Vendor, VendorProfile};
use ede_trace::Metrics;
use ede_wire::{Name, Rcode, RrType};
use std::sync::Arc;

/// Deterministic SplitMix64 stream driving the randomized interleaving
/// cases (same idiom as `prop_cache.rs`).
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
}

/// An empty simulated internet with one unregistered root hint: every
/// resolution sends to the root, parks until its timeout completion
/// fires, and ends in ServFail. No route is ever found, so tasks
/// genuinely suspend. The world is zero-latency like the scan world —
/// every completion event carries the same timestamp, so ordering rests
/// entirely on the queue's FIFO-among-ties rule.
fn parked_world() -> Resolver {
    let config = NetworkConfig {
        rtt_ms: 0,
        timeout_ms: 0,
    };
    let net = Arc::new(NetworkBuilder::new().config(config).build(SimClock::new()));
    let mut config = ResolverConfig::default();
    config.root_hints = vec![RootHint {
        name: Name::parse("a.root-servers.net").unwrap(),
        addr: "198.41.0.4".parse().unwrap(),
    }];
    Resolver::new(net, VendorProfile::new(Vendor::Bind9), config)
}

fn spawn_lookup<'a>(
    pool: &mut ResolutionPool<'a, (usize, Resolution)>,
    resolver: &'a Resolver,
    i: usize,
) {
    let qname = Name::parse(&format!("task-{i}.stress.example")).unwrap();
    pool.spawn(move |handle| async move {
        (i, resolver.resolve_with(&handle, &qname, RrType::A).await)
    });
}

/// Ten thousand resolutions admitted before a single completion is
/// collected: the pool really holds 10 000 suspended tasks at once on
/// one thread, loses none of them, and reports the peak through the
/// metrics gauges.
#[test]
fn ten_thousand_tasks_in_flight_on_one_worker() {
    const N: usize = 10_000;
    let resolver = parked_world();
    let net = resolver.network();
    let metrics = Arc::new(Metrics::new());
    net.set_trace_sink(Arc::clone(&metrics) as Arc<dyn ede_trace::TraceSink>);

    let mut pool: ResolutionPool<(usize, Resolution)> = ResolutionPool::new(net);
    for i in 0..N {
        spawn_lookup(&mut pool, &resolver, i);
    }
    assert_eq!(pool.in_flight(), N, "every task is suspended, none lost");
    assert_eq!(pool.queued(), N, "one pending completion per task");

    let mut seen = vec![false; N];
    let mut completed = 0usize;
    for (i, res) in &mut pool {
        assert!(!seen[i], "task {i} completed twice");
        seen[i] = true;
        assert_eq!(res.rcode, Rcode::ServFail);
        completed += 1;
    }
    assert_eq!(completed, N, "no completion was lost");
    assert!(pool.is_idle());
    assert_eq!(pool.queued(), 0);

    let snap = metrics.snapshot();
    net.clear_trace_sink();
    assert_eq!(snap.tasks_spawned, N as u64);
    assert_eq!(snap.tasks_completed, N as u64);
    assert_eq!(snap.inflight_tasks_peak, N as u64);
    // The spawn event snapshots the queue *before* the new task
    // registers its own wait, so the recorded peak is N - 1.
    assert_eq!(snap.ready_queue_peak, N as u64 - 1);
}

/// Slot recycling bounds the pool's memory by the in-flight *window*:
/// pushing ten thousand tasks through a 64-wide window must never
/// allocate more than 64 task slots.
#[test]
fn slot_recycling_bounds_memory_by_window() {
    const N: usize = 10_000;
    const WINDOW: usize = 64;
    let resolver = parked_world();
    let mut pool: ResolutionPool<(usize, Resolution)> = ResolutionPool::new(resolver.network());

    let mut next_spawn = 0usize;
    let mut completed = 0usize;
    while completed < N {
        while pool.in_flight() < WINDOW && next_spawn < N {
            spawn_lookup(&mut pool, &resolver, next_spawn);
            next_spawn += 1;
        }
        let (_, res) = pool.next().expect("tasks remain");
        assert_eq!(res.rcode, Rcode::ServFail);
        completed += 1;
        assert!(
            pool.slot_count() <= WINDOW,
            "slot table grew past the window: {} > {WINDOW}",
            pool.slot_count()
        );
    }
    assert!(pool.is_idle());
}

/// Scheduling is deterministic under *any* interleaving of admission
/// and collection: random spawn/drain schedules over the same task set
/// produce the same per-task outcomes, the same transport totals, and
/// the same final virtual-clock reading. Completion events carry equal
/// timestamps here (every wave shares one timeout deadline), so this
/// leans directly on the queue's FIFO-among-ties rule.
#[test]
fn interleaving_does_not_change_outcomes() {
    const N: usize = 200;

    let run = |schedule_seed: Option<u64>| {
        let resolver = parked_world();
        let net = resolver.network();
        let mut pool: ResolutionPool<(usize, Resolution)> = ResolutionPool::new(net);
        let mut results: Vec<Option<Rcode>> = vec![None; N];
        let mut next_spawn = 0usize;
        match schedule_seed {
            // Baseline schedule: admit everything, then drain.
            None => {
                for i in 0..N {
                    spawn_lookup(&mut pool, &resolver, i);
                }
                for (i, res) in &mut pool {
                    results[i] = Some(res.rcode);
                }
            }
            // Randomized schedule: coin-flip between admitting a task
            // and collecting a completion until both sides run dry.
            Some(seed) => {
                let mut rng = Rng(seed);
                loop {
                    let can_spawn = next_spawn < N;
                    let can_drain = !pool.is_idle();
                    if !can_spawn && !can_drain {
                        break;
                    }
                    if can_spawn && (!can_drain || rng.below(2) == 0) {
                        spawn_lookup(&mut pool, &resolver, next_spawn);
                        next_spawn += 1;
                    } else if let Some((i, res)) = pool.next() {
                        results[i] = Some(res.rcode);
                    }
                }
            }
        }
        let outcomes: Vec<Rcode> = results.into_iter().map(|r| r.expect("completed")).collect();
        (
            outcomes,
            net.stats().snapshot_full(),
            net.clock().now_millis(),
        )
    };

    let baseline = run(None);
    for seed in [0x0EDE_0001u64, 0xDEAD_BEEF, 0x1234_5678_9ABC_DEF0] {
        let shuffled = run(Some(seed));
        assert_eq!(baseline.0, shuffled.0, "per-task outcomes (seed {seed:#x})");
        assert_eq!(baseline.1, shuffled.1, "transport totals (seed {seed:#x})");
        assert_eq!(baseline.2, shuffled.2, "final clock (seed {seed:#x})");
    }
}
