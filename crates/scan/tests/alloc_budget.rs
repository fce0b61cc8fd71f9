//! Allocation budgets of the resolution paths over the scan world.
//!
//! Counts that repeat exactly, so the paths' leanness is gated by
//! something steadier than wall-clock (docs/PERFORMANCE.md, "What a miss
//! allocates"): a cold resolve, a
//! cached hit, a TLD server's apex answers, the query log's drain, the
//! fold of an already counted EDE combination, and a ceiling for a whole
//! scan. The counting allocator is local to this test binary. The exact pins count per thread, so the
//! other tests of this file cannot leak in; the whole-scan ceiling counts
//! every thread (a scan runs its workers on threads of its own), which is
//! why the tests of this file take turns ([`serial`]).
//!
//! `census_of_a_cold_resolve` keeps the tool the budgets are worked out
//! with: `cargo test -p ede-scan --test alloc_budget -- --ignored
//! --nocapture` prints where the pinned resolve allocates.

use ede_resolver::{Resolver, Vendor, VendorProfile};
use ede_scan::aggregate::PartialAggregate;
use ede_scan::population::{tld_addr, Category, DomainRecord};
use ede_scan::scanner::{scan, ScanConfig};
use ede_scan::{Population, PopulationConfig, QueryLog, QueryRecord, ScanWorld};
use ede_wire::ede::{EdeCode, EdeEntry};
use ede_wire::stream::{frame, FrameReader, MAX_FRAME_LEN};
use ede_wire::{Edns, Message, Name, Rcode, Rdata, Record, RrType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

thread_local! {
    // Const-initialised, no destructor: reading them never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread's allocations are being recorded for the
    /// census. Cleared while one is recorded: capturing a backtrace
    /// allocates, and that must not record itself.
    static CENSUS_ON: Cell<bool> = const { Cell::new(false) };
    static CENSUS: RefCell<Vec<(usize, Backtrace)>> = const { RefCell::new(Vec::new()) };
}

/// Allocator calls of every thread of the process.
static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(size: usize) {
    ALL_THREADS.fetch_add(1, Relaxed);
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    if CENSUS_ON.try_with(|on| on.replace(false)) == Ok(true) {
        let trace = Backtrace::force_capture();
        CENSUS.with(|c| c.borrow_mut().push((size, trace)));
        CENSUS_ON.with(|on| on.set(true));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state, and the census allocates only with its own recording
// switched off, so it cannot re-enter itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// One test of this file at a time, so that the all-thread counter sees
/// one test's threads only.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Two domains of `cat` under one ordinary TLD (no stand-by key, honest
/// insecure proofs), each with a single nameserver: the first warms the
/// TLD (root referral, validated TLD keys), the second is the cold
/// resolve that gets counted.
fn warm_and_cold(pop: &Population, cat: Category) -> (&DomainRecord, &DomainRecord) {
    for (i, tld) in pop.tlds.iter().enumerate() {
        if tld.standby_key || tld.broken_insecure_proof {
            continue;
        }
        let mut of_tld = pop
            .domains
            .iter()
            .filter(|d| usize::from(d.tld) == i && d.category == cat && d.ns_addrs.len() == 1);
        if let (Some(a), Some(b)) = (of_tld.next(), of_tld.next()) {
            return (a, b);
        }
    }
    panic!("no ordinary TLD holds two single-NS {cat:?} domains");
}

/// The tiny scan world and a Cloudflare-profile resolver over it.
fn world_and_resolver() -> (Population, ScanWorld, Resolver) {
    let pop = Population::generate(PopulationConfig::tiny());
    let world = ScanWorld::build(&pop);
    let resolver = Resolver::new(
        Arc::clone(&world.net),
        VendorProfile::new(Vendor::Cloudflare),
        world.resolver_config.clone(),
    );
    (pop, world, resolver)
}

/// Allocator calls of one cold resolve of a `cat` domain (a resolve runs
/// wholly on its caller's thread, simulated servers included).
fn cold_resolve_allocs(cat: Category) -> u64 {
    let _turn = serial();
    let (pop, _world, resolver) = world_and_resolver();
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
    assert_eq!(cold_resolve_allocs(Category::HealthyUnsigned), 18);
}

#[test]
fn cold_signed_resolve_stays_within_its_allocation_budget() {
    assert_eq!(cold_resolve_allocs(Category::HealthySigned), 37);
}

/// A cached answer: the `serve_hot` path up to the resolver's edge.
#[test]
fn cached_hit_stays_within_its_allocation_budget() {
    let _turn = serial();
    let (pop, _world, resolver) = world_and_resolver();
    let (_, domain) = warm_and_cold(&pop, Category::HealthyUnsigned);
    resolver.resolve(&domain.name, RrType::A);

    let before = thread_allocs();
    let res = resolver.resolve(&domain.name, RrType::A);
    let allocs = thread_allocs() - before;
    assert_eq!(res.rcode, Rcode::NoError);
    assert_eq!(res.answers.len(), 1);
    // The hit's own copy of the answers, and nothing else.
    assert_eq!(allocs, 1);
}

/// Allocator calls of one exchange with an ordinary TLD's server for its
/// apex `qtype`, DO set, counted on the second call: what priming and
/// validation cost a TLD at its server and in the transport.
fn tld_apex_exchange_allocs(qtype: RrType) -> u64 {
    let _turn = serial();
    let pop = Population::generate(PopulationConfig::tiny());
    let world = ScanWorld::build(&pop);
    let tld = pop
        .tlds
        .iter()
        .find(|t| !t.standby_key)
        .expect("an ordinary TLD");
    let dst = IpAddr::V4(tld_addr(tld.server_index));
    let src = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 53));
    let mut query = Message::iterative_query(7, tld.name.clone(), qtype);
    query.edns.as_mut().expect("EDNS").dnssec_ok = true;
    let exchange = || world.net.query(dst, src, &query).expect("the TLD answers");
    exchange();

    let before = thread_allocs();
    let resp = exchange();
    let allocs = thread_allocs() - before;
    assert_eq!(resp.rcode, Rcode::NoError);
    assert!(resp.answers.iter().any(|r| r.rtype() == qtype));
    allocs
}

/// The apex sets are built from the TLD's keys, with no zone: the one
/// RRset, its signatures, the reply and the transport's own.
#[test]
fn tld_apex_exchanges_stay_within_their_allocation_budgets() {
    assert_eq!(tld_apex_exchange_allocs(RrType::Dnskey), 8);
    assert_eq!(tld_apex_exchange_allocs(RrType::Ns), 5);
}

/// Allocator calls of the second of two identical exchanges with `dst`,
/// DO set: what the server builds per query, and the transport's own.
fn exchange_allocs(world: &ScanWorld, dst: Ipv4Addr, qname: &Name, qtype: RrType) -> u64 {
    let src = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 53));
    let mut query = Message::iterative_query(7, qname.clone(), qtype);
    query.edns.as_mut().expect("EDNS").dnssec_ok = true;
    let exchange = || {
        world
            .net
            .query(IpAddr::V4(dst), src, &query)
            .expect("an answer")
    };
    exchange();
    let before = thread_allocs();
    let resp = exchange();
    let allocs = thread_allocs() - before;
    assert!(!resp.authorities.is_empty() || !resp.answers.is_empty());
    allocs
}

/// The exchanges that build a zone per query, a hosting server's
/// materialized child: the SOA of a healthy signed child, and the apex A
/// of a child on a healthy server whose row mutates its zone after
/// signing. Each zone is signed in one walk of it.
#[test]
fn zones_built_per_query_stay_within_their_allocation_budgets() {
    let _turn = serial();
    let pop = Population::generate(PopulationConfig::tiny());
    let world = ScanWorld::build(&pop);
    let ordinary = |d: &&DomainRecord| {
        let tld = &pop.tlds[usize::from(d.tld)];
        !tld.standby_key && !tld.broken_insecure_proof && d.ns_addrs.len() == 1
    };
    let signed = pop
        .domains
        .iter()
        .filter(ordinary)
        .find(|d| d.category == Category::HealthySigned)
        .expect("a healthy signed child");
    let mutated = pop
        .domains
        .iter()
        .filter(ordinary)
        .find(|d| d.category.row().mutation.is_some() && pop.healthy_ns.contains(&d.ns_addrs[0]))
        .expect("a child whose zone is mutated");
    let counts = [
        exchange_allocs(&world, signed.ns_addrs[0], &signed.name, RrType::Soa),
        exchange_allocs(&world, mutated.ns_addrs[0], &mutated.name, RrType::A),
    ];
    // The search-based signer: [65, 64]; a Vec per signature's data:
    // [59, 59].
    assert_eq!(counts, [38, 39], "{:?}", mutated.category);
}

/// Allocator calls of generating the population `config` describes.
fn generate_allocs(config: PopulationConfig) -> u64 {
    let before = thread_allocs();
    let pop = Population::generate(config);
    let allocs = thread_allocs() - before;
    drop(pop);
    allocs
}

/// Generating a population allocates its tables, each once, and nothing
/// per domain or per TLD — no label string, no TLD name text: the same
/// calls for the tiny population (3 000 domains, 52 TLDs) as for 1:20000
/// (15 000 domains, 1 475 TLDs).
#[test]
fn generating_a_population_allocates_nothing_per_domain() {
    let _turn = serial();
    let tiny = generate_allocs(PopulationConfig::tiny());
    let twenty_thousandth = generate_allocs(PopulationConfig {
        scale: 20_000,
        ..Default::default()
    });
    assert_eq!((tiny, twenty_thousandth), (15, 15));
}

/// The serving path's codec (docs/SERVING.md, "The TCP path"): a typical
/// answer encodes into one allocation, the output itself; into a buffer
/// that has held one before, as the UDP worker's and a TCP connection's
/// have, into none; and frames are lent out of a stream reader that has
/// seen traffic without any.
#[test]
fn encoding_and_framing_an_answer_allocate_nothing_of_their_own() {
    let _turn = serial();
    let name = Name::parse("rrsig-exp-a.extended-dns-errors.com").unwrap();
    let query = Message::query(7, name.clone(), RrType::A);
    let mut answer = Message::response_to(&query);
    let address = Rdata::A("192.0.2.7".parse().unwrap());
    answer.answers.push(Record::new(name, 300, address));
    let mut edns = Edns::with_do();
    edns.push_ede(EdeEntry::with_text(
        EdeCode::SignatureExpired,
        "the A RRset",
    ));
    answer.edns = Some(edns);

    // The OPT owner: the root name's shared block is made on first use.
    let _ = Name::root();

    let before = thread_allocs();
    let wire = answer.encode().unwrap();
    assert_eq!(thread_allocs() - before, 1);

    let mut warm = vec![0, 0];
    answer.encode_into(&mut warm).unwrap();
    let before = thread_allocs();
    for _ in 0..3 {
        warm.truncate(2);
        answer.encode_into(&mut warm).unwrap();
    }
    assert_eq!(thread_allocs() - before, 0);
    assert_eq!(warm[2..], wire);

    let framed = frame(&wire).unwrap().repeat(16);
    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    reader.push(&framed).unwrap();
    while reader.with_frame(|_| ()).is_some() {}
    let before = thread_allocs();
    reader.push(&framed).unwrap();
    let mut frames = 0;
    while let Some(same) = reader.with_frame(|frame| frame == wire) {
        assert!(same);
        frames += 1;
    }
    assert_eq!((frames, thread_allocs() - before), (16, 0));
}

/// The end of a scan hands the query log's records over in the ring's
/// own buffer: a full ring whose oldest records rotated out, so that its
/// start has wrapped round the buffer, drains without an allocator call,
/// its records in `seq` order.
#[test]
fn draining_a_wrapped_query_log_allocates_nothing() {
    let _turn = serial();
    const CAPACITY: usize = 8;
    let record = |domain: usize| QueryRecord {
        seq: 0,
        vtime_ms: 0,
        pass: 1,
        domain,
        name: Name::parse(&format!("d{domain}.example.")).unwrap(),
        tld: 0,
        rank: None,
        category: Category::HealthyUnsigned,
        vendor: Vendor::Cloudflare,
        rcode: Rcode::NoError,
        codes: Box::default(),
        network_error_text: None,
    };
    let log = QueryLog::new(CAPACITY, None).expect("no spill file");
    log.push_batch((0..CAPACITY).map(record).collect());
    log.push_batch((CAPACITY..CAPACITY + 3).map(record).collect());

    let before = thread_allocs();
    let records = log.into_records();
    assert_eq!(thread_allocs() - before, 0);
    let kept: Vec<(u64, usize)> = records.iter().map(|r| (r.seq, r.domain)).collect();
    let newest: Vec<(u64, usize)> = (3..CAPACITY + 3).map(|i| (i as u64, i)).collect();
    assert_eq!(kept, newest);
}

/// A query-log record of a population domain copies its name, which is
/// held inline: a resolution without EDE logs with no allocator call,
/// and one with EDE 22 and 23 with two, its codes and its Network Error
/// text.
#[test]
fn a_query_log_record_allocates_only_for_its_ede() {
    let _turn = serial();
    let (pop, _world, resolver) = world_and_resolver();
    for (cat, codes, allocs) in [
        (Category::HealthyUnsigned, &[][..], 0),
        (Category::LameRcode, &[22, 23], 2),
    ] {
        let (_, domain) = warm_and_cold(&pop, cat);
        let index = pop
            .domains
            .iter()
            .position(|d| d.name == domain.name)
            .unwrap();
        let res = resolver.resolve(&domain.name, RrType::A);

        let before = thread_allocs();
        let record = QueryRecord::of_resolution(index, domain, &res, Vendor::Cloudflare, 1, 0);
        assert_eq!(thread_allocs() - before, allocs, "{cat:?}");
        assert_eq!((&*record.codes, record.name), (codes, domain.name.clone()));
        assert_eq!(record.network_error_text.is_some(), allocs > 0, "{cat:?}");
    }
}

/// Folding a record whose EDE code set is already counted allocates
/// nothing: the codes are sorted and deduplicated on the stack, and the
/// combination's key was made when it was first counted.
#[test]
fn folding_a_counted_code_combination_allocates_nothing() {
    let _turn = serial();
    let record = |domain: usize, codes: &[u16]| QueryRecord {
        seq: 0,
        vtime_ms: 0,
        pass: 1,
        domain,
        name: Name::parse(&format!("d{domain}.example.")).unwrap(),
        tld: 0,
        rank: None,
        category: Category::LameRcode,
        vendor: Vendor::Cloudflare,
        rcode: Rcode::ServFail,
        codes: codes.into(),
        network_error_text: None,
    };
    let (first, second) = (record(0, &[22, 23]), record(1, &[23, 22, 23]));
    let mut partial = PartialAggregate::default();
    partial.fold(&first);

    let before = thread_allocs();
    partial.fold(&second);
    assert_eq!(thread_allocs() - before, 0);
}

/// Allocator calls per domain of a whole scan at one worker: population
/// and world excluded, everything `scan` does included (both passes,
/// the query log, the aggregates, the report). A ceiling, not an
/// equality: hash-map seeds move the total by a few calls.
#[test]
fn whole_scan_stays_under_its_allocation_ceiling() {
    let _turn = serial();
    let pop = Population::generate(PopulationConfig::tiny());
    let world = ScanWorld::build(&pop);
    let config = ScanConfig::builder().workers(1).build();
    let before = ALL_THREADS.load(Relaxed);
    let result = scan(&pop, &world, &config);
    let allocs = ALL_THREADS.load(Relaxed) - before;
    assert_eq!(result.stats.ede.total_domains, pop.domains.len());
    let per_domain = allocs as f64 / pop.domains.len() as f64;
    assert!(
        per_domain <= WHOLE_SCAN_CEILING,
        "{per_domain:.1} allocator calls per domain ({allocs} over {} domains)",
        pop.domains.len()
    );
}

/// See `whole_scan_stays_under_its_allocation_ceiling`.
const WHOLE_SCAN_CEILING: f64 = 19.91;

/// Where the pinned cold resolve allocates: one backtrace per allocator
/// call, grouped by the nearest three frames of this workspace's crates,
/// with counts and bytes. `CENSUS=signed` takes the signed resolve.
/// docs/PERFORMANCE.md's table is made from this output (debug build:
/// release inlines the frames away).
#[test]
#[ignore = "tooling: prints the census, asserts nothing"]
fn census_of_a_cold_resolve() {
    let _turn = serial();
    let cat = match std::env::var("CENSUS").as_deref() {
        Ok("signed") => Category::HealthySigned,
        _ => Category::HealthyUnsigned,
    };
    let (pop, _world, resolver) = world_and_resolver();
    let (warm, cold) = warm_and_cold(&pop, cat);
    resolver.resolve(&warm.name, RrType::A);
    CENSUS_ON.with(|on| on.set(true));
    let res = resolver.resolve(&cold.name, RrType::A);
    CENSUS_ON.with(|on| on.set(false));
    assert_eq!(res.rcode, Rcode::NoError);
    let records = CENSUS.with(|c| std::mem::take(&mut *c.borrow_mut()));

    // (calls, bytes) per site.
    let mut sites: BTreeMap<String, (u64, usize)> = BTreeMap::new();
    for (size, trace) in &records {
        let text = trace.to_string();
        // Frame lines read "  12: path::to::function"; file lines
        // ("at ./src/...") carry no ": ".
        let frames: Vec<&str> = text
            .lines()
            .filter_map(|line| line.trim_start().split_once(": "))
            .map(|(_, function)| function.trim_start_matches('<'))
            .filter(|function| function.starts_with("ede_"))
            .take(3)
            .collect();
        let site = sites.entry(frames.join(" <- ")).or_default();
        site.0 += 1;
        site.1 += size;
    }
    let bytes: usize = records.iter().map(|(size, _)| size).sum();
    println!(
        "cold {cat:?} resolve: {} allocator calls, {bytes} B",
        records.len()
    );
    let mut sites: Vec<_> = sites.into_iter().collect();
    sites.sort_by_key(|(_, tally)| std::cmp::Reverse(*tally));
    for (site, (calls, bytes)) in sites {
        println!("{calls:4} {bytes:6} B  {site}");
    }
}
