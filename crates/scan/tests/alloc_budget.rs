//! Allocation budget of one cold resolution over the scan world.
//!
//! A count that repeats exactly, so the miss path's leanness is gated by
//! something steadier than wall-clock (docs/PERFORMANCE.md, "What a miss
//! allocates"). The counting allocator is local to this test binary and
//! counts per thread, so the other tests of this file cannot leak in.

use ede_resolver::{Resolver, Vendor, VendorProfile};
use ede_scan::population::{Category, DomainRecord};
use ede_scan::{Population, PopulationConfig, ScanWorld};
use ede_wire::{Rcode, RrType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // Const-initialised, no destructor: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Two domains of `cat` under one ordinary TLD (no stand-by key, honest
/// insecure proofs), each with a single nameserver: the first warms the
/// TLD (root referral, validated TLD keys, the server's lazy chain), the
/// second is the cold resolve that gets counted.
fn warm_and_cold(pop: &Population, cat: Category) -> (&DomainRecord, &DomainRecord) {
    for (i, tld) in pop.tlds.iter().enumerate() {
        if tld.standby_key || tld.broken_insecure_proof {
            continue;
        }
        let mut of_tld = pop
            .domains
            .iter()
            .filter(|d| d.tld == i && d.category == cat && d.ns_addrs.len() == 1);
        if let (Some(a), Some(b)) = (of_tld.next(), of_tld.next()) {
            return (a, b);
        }
    }
    panic!("no ordinary TLD holds two single-NS {cat:?} domains");
}

fn cold_resolve_allocs(cat: Category) -> u64 {
    let pop = Population::generate(PopulationConfig::tiny());
    let world = ScanWorld::build(&pop);
    let resolver = Resolver::new(
        Arc::clone(&world.net),
        VendorProfile::new(Vendor::Cloudflare),
        world.resolver_config.clone(),
    );
    let (warm, cold) = warm_and_cold(&pop, cat);
    assert_eq!(
        resolver.resolve(&warm.name, RrType::A).rcode,
        Rcode::NoError
    );

    let before = thread_allocs();
    let res = resolver.resolve(&cold.name, RrType::A);
    let allocs = thread_allocs() - before;
    assert_eq!(res.rcode, Rcode::NoError, "{:?}", res.diagnosis);
    assert_eq!(res.authentic_data, cat.signed());
    allocs
}

#[test]
fn cold_unsigned_resolve_stays_within_its_allocation_budget() {
    assert_eq!(cold_resolve_allocs(Category::HealthyUnsigned), 72);
}

#[test]
fn cold_signed_resolve_stays_within_its_allocation_budget() {
    assert_eq!(cold_resolve_allocs(Category::HealthySigned), 160);
}
