//! `run_local` against the pool. The scanner only ever runs the pool
//! now (a window of one is still the pool), so this is where the
//! lifecycle-event-free driver behind `Resolver::resolve` is held
//! against `ResolutionPool` on the scan world: a sample of every
//! `Category`, resolved by `resolve` and by the pool at windows 1 and 64,
//! must agree name by name, in traffic, and in trace events (task
//! lifecycle events aside).

use ede_netsim::TrafficSnapshot;
use ede_resolver::{Resolution, ResolutionPool, Resolver, Vendor, VendorProfile};
use ede_scan::{Category, Population, PopulationConfig, ScanWorld};
use ede_trace::{ResolutionTrace, TraceEvent};
use ede_wire::{Name, RrType};
use std::sync::Arc;

/// How many domains of each category to resolve.
const PER_CATEGORY: usize = 3;

/// `None` drives each name through `Resolver::resolve`; `Some(w)` keeps
/// up to `w` of them in flight on one pool.
fn run(
    pop: &Population,
    names: &[&Name],
    window: Option<usize>,
) -> (Vec<Resolution>, TrafficSnapshot, Vec<TraceEvent>) {
    let world = ScanWorld::build(pop);
    let resolver = Resolver::new(
        Arc::clone(&world.net),
        VendorProfile::new(Vendor::Cloudflare),
        world.resolver_config.clone(),
    );
    // The scan's priming step: walk every root→TLD delegation once, so
    // no two tasks race to be the first to cache one.
    for tld in &pop.tlds {
        let _ = resolver.resolve(&tld.name, RrType::Ns);
    }
    let trace = Arc::new(ResolutionTrace::new(1 << 20));
    world.net.set_trace_sink(trace.clone());

    let results = match window {
        None => names
            .iter()
            .map(|name| resolver.resolve(name, RrType::A))
            .collect(),
        Some(window) => {
            let resolver = &resolver;
            let mut results: Vec<Option<Resolution>> = vec![None; names.len()];
            let mut pool: ResolutionPool<(usize, Resolution)> = ResolutionPool::new(&world.net);
            let mut pending = names.iter().copied().enumerate();
            loop {
                while pool.in_flight() < window {
                    let Some((i, name)) = pending.next() else {
                        break;
                    };
                    pool.spawn(move |handle| async move {
                        (i, resolver.resolve_with(&handle, name, RrType::A).await)
                    });
                }
                match pool.next() {
                    Some((i, res)) => results[i] = Some(res),
                    None => break,
                }
            }
            results
                .into_iter()
                .map(|r| r.expect("every task completed"))
                .collect()
        }
    };
    world.net.clear_trace_sink();
    assert_eq!(trace.dropped(), 0, "the trace ring must hold the whole run");
    let events = trace
        .events()
        .into_iter()
        .map(|timed| timed.event)
        .filter(|e| {
            !matches!(
                e,
                TraceEvent::TaskSpawned { .. } | TraceEvent::TaskCompleted { .. }
            )
        })
        .collect();
    (results, world.net.stats().snapshot_full(), events)
}

#[test]
fn resolve_and_the_pool_agree_on_every_category() {
    let pop = Population::generate(PopulationConfig::tiny());
    let mut names: Vec<&Name> = Vec::new();
    for category in Category::ALL {
        let before = names.len();
        names.extend(
            pop.domains
                .iter()
                .filter(|d| d.category == category)
                .take(PER_CATEGORY)
                .map(|d| &d.name),
        );
        assert!(names.len() > before, "tiny population lacks {category:?}");
    }

    let (reference, reference_traffic, reference_events) = run(&pop, &names, None);
    assert!(
        reference_events.len() > names.len(),
        "the trace was attached"
    );

    for window in [1, 64] {
        let (pooled, traffic, events) = run(&pop, &names, Some(window));
        for ((name, want), got) in names.iter().zip(&reference).zip(&pooled) {
            assert_eq!(want.rcode, got.rcode, "{name} at window {window}");
            assert_eq!(want.answers, got.answers, "{name} at window {window}");
            assert_eq!(want.ede, got.ede, "{name} at window {window}");
            assert_eq!(want.validation, got.validation, "{name} at window {window}");
        }
        assert_eq!(reference_traffic, traffic, "window {window}");
        if window == 1 {
            // One task at a time: the very same sequence.
            assert_eq!(reference_events, events);
        } else {
            // Tasks interleave (the scan world has no latency, so every
            // event carries the same timestamp): the same events in a
            // different order, with query ids — handed out in send
            // order — permuted among the sends.
            let sorted = |events: &[TraceEvent]| {
                let mut lines: Vec<String> = events
                    .iter()
                    .cloned()
                    .map(|mut e| {
                        if let TraceEvent::QuerySent { id, .. } = &mut e {
                            *id = 0;
                        }
                        format!("{e:?}")
                    })
                    .collect();
                lines.sort();
                lines
            };
            assert_eq!(
                sorted(&reference_events),
                sorted(&events),
                "window {window}"
            );
        }
    }
}
