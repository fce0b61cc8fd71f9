//! Allocation budgets of the serving path: a served answer-cache hit,
//! from the request's bytes to the answer's bytes in a reused buffer.
//! Counts repeat exactly, in debug and release builds alike; the
//! counting allocator is local to this test binary and counts per
//! thread.
//!
//! Two paths are counted. The workers run `pipeline::respond`, which
//! reads the request in place (`Request::read`: no question list, the
//! qname in a stack array) and writes a hit as a copy of its cache
//! entry's reply image: a hit allocates nothing, and the entry's first
//! hit only the image itself. The benchmark's in-process replay runs `classify` →
//! `answer` → `encode_into`, which builds a reply `Message`: a hit
//! renders nothing (its cache entry keeps the EDE list and the
//! diagnosis), and the pipeline moves the resolution into the response,
//! so what is left there is what the response owns.

use ede_resolver::{Resolver, Vendor};
use ede_server::pipeline::{self, QueryDisposition, Response};
use ede_server::ServerConfig;
use ede_testbed::Testbed;
use ede_trace::Metrics;
use ede_wire::{Message, Name, Rcode, RrType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised, no destructor: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
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

/// One request through the pipeline into `out`, as a worker serves it.
fn serve(resolver: &Resolver, request: &[u8], out: &mut Vec<u8>) -> Message {
    let QueryDisposition::Resolve(query) = pipeline::classify(request) else {
        panic!("a well-formed query resolves");
    };
    let reply = pipeline::answer(resolver, None, &query);
    out.clear();
    reply.encode_into(out).unwrap();
    reply
}

/// Allocator calls of one served hit on `label`, after a miss and a
/// first hit that warmed the output buffer; with the hit's reply.
fn served_hit_allocs(label: &str) -> (u64, Message) {
    let tb = Testbed::build();
    let resolver = tb.resolver(Vendor::Cloudflare);
    let qname = Name::parse(&format!("{label}.extended-dns-errors.com")).unwrap();
    let request = Message::query(7, qname, RrType::A).encode().unwrap();
    let mut out = Vec::new();
    for _ in 0..2 {
        serve(&resolver, &request, &mut out);
    }
    let before = thread_allocs();
    let reply = serve(&resolver, &request, &mut out);
    let allocs = thread_allocs() - before;
    assert_eq!(resolver.cache_stats().hits, 2);
    (allocs, reply)
}

/// `ed448`: NOERROR, an A record and its RRSIG, and EDE 1 with
/// EXTRA-TEXT. Decoding the query makes its question list and the
/// qname's shared block (31 wire octets, too long to hold inline); the
/// response owns a copy of the question list, the answer list, the
/// RRSIG's signature, the EDE list (which becomes the OPT record's
/// option list in place) and its text.
#[test]
fn a_served_hit_with_extra_text_allocates_what_its_response_owns() {
    let (allocs, reply) = served_hit_allocs("ed448");
    assert_eq!(reply.rcode, Rcode::NoError);
    assert_eq!(reply.answers.len(), 2);
    let ede: Vec<_> = reply.ede_entries().collect();
    assert_eq!(ede.len(), 1);
    assert!(!ede[0].extra_text.is_empty());
    assert_eq!(allocs, 7);
}

/// `allow-query-none`: a cached failure, SERVFAIL with EDE 9, 13, 22 and
/// 23, the last with EXTRA-TEXT naming the refusing server. The query's
/// question list and qname, the response's question list, the EDE list
/// and the one text.
#[test]
fn a_served_cached_failure_allocates_what_its_response_owns() {
    let (allocs, reply) = served_hit_allocs("allow-query-none");
    assert_eq!(reply.rcode, Rcode::ServFail);
    assert!(reply.answers.is_empty());
    let codes: Vec<u16> = reply.ede_codes().iter().map(|c| c.to_u16()).collect();
    assert_eq!(codes, [9, 13, 22, 23]);
    assert_eq!(allocs, 5);
}

/// Allocator calls of one hit on `label` through `pipeline::respond`, as
/// a UDP worker (at the default cap) and a TCP handler run it, after a
/// miss and a first hit that warmed the output buffer and built the
/// entry's reply image; with the reply.
fn worker_hit_allocs(label: &str) -> (u64, Message) {
    worker_allocs(label, 2)
}

/// Allocator calls of request `counted` (0 is the miss, 1 the first hit)
/// of a run of requests for `label` through `pipeline::respond`, on each
/// transport from an empty cache; with the reply.
fn worker_allocs(label: &str, counted: usize) -> (u64, Message) {
    let tb = Testbed::build();
    let resolver = tb.resolver(Vendor::Cloudflare);
    let metrics = Metrics::new();
    let qname = Name::parse(&format!("{label}.extended-dns-errors.com")).unwrap();
    let request = Message::query(7, qname, RrType::A).encode().unwrap();
    let mut out = Vec::new();
    let mut allocs = Vec::new();
    for cap in [Some(ServerConfig::default().udp_payload_max), None] {
        resolver.flush();
        let hits = resolver.cache_stats().hits;
        for step in 0..=counted {
            out.clear();
            let before = thread_allocs();
            let written = pipeline::respond(&resolver, &metrics, &request, cap, &mut out);
            if step == counted {
                allocs.push(thread_allocs() - before);
            }
            assert_eq!(written, Ok(Response::Written { truncated: false }));
        }
        assert_eq!(resolver.cache_stats().hits - hits, counted as u64);
    }
    assert_eq!(allocs[0], allocs[1], "UDP and TCP write the same reply");
    (allocs[0], Message::decode(&out).unwrap())
}

/// `ed448` through the workers' path: nothing. The qname (31 wire
/// octets, too long for a `Name` to hold inline) is read into the
/// request's stack array and probed as it is; the answer, the RRSIG and
/// the EDE entry with its text are written from the cache entry.
#[test]
fn a_worker_hit_with_extra_text_allocates_nothing() {
    let (allocs, reply) = worker_hit_allocs("ed448");
    assert_eq!(reply.rcode, Rcode::NoError);
    assert_eq!(reply.answers.len(), 2);
    let ede: Vec<_> = reply.ede_entries().collect();
    assert_eq!(ede.len(), 1);
    assert!(!ede[0].extra_text.is_empty());
    assert_eq!(allocs, 0);
}

/// `allow-query-none` through the workers' path: nothing; the four EDE
/// entries and the text come from the entry.
#[test]
fn a_worker_cached_failure_allocates_nothing() {
    let (allocs, reply) = worker_hit_allocs("allow-query-none");
    assert_eq!(reply.rcode, Rcode::ServFail);
    assert!(reply.answers.is_empty());
    let codes: Vec<u16> = reply.ede_codes().iter().map(|c| c.to_u16()).collect();
    assert_eq!(codes, [9, 13, 22, 23]);
    assert_eq!(allocs, 0);
}

/// An entry's first hit through the workers' path encodes its reply
/// image into the reused output buffer, its question from the request's
/// stack array, and keeps one exactly sized copy: that copy is all it
/// allocates. `ed448` and `allow-query-none` carry EDE entries, so their
/// entries were stored with the tail that holds the EDE list and the
/// image; `valid` carries none, and its first hit allocates that tail
/// too.
#[test]
fn a_worker_first_hit_allocates_its_reply_image() {
    for (label, expected) in [("ed448", 1), ("allow-query-none", 1), ("valid", 2)] {
        let (allocs, reply) = worker_allocs(label, 1);
        assert_eq!(
            reply.ede_entries().count() == 0,
            label == "valid",
            "{label}"
        );
        assert_eq!(allocs, expected, "{label}");
    }
}
