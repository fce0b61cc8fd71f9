//! What each workload runs against: the run plan derived from
//! `--seconds`, the seeded op streams with their pre-encoded query wires,
//! and the product fixtures (testbed, scan world, resolver, server).

use crate::loadgen::{response_hash, Canned};
use crate::manifest::Workload;
use crate::rng::{Rng, Zipf};
use ede_netsim::Network;
use ede_resolver::{Resolver, Vendor, VendorProfile};
use ede_scan::{Population, PopulationConfig, ScanWorld};
use ede_server::{Server, ServerConfig, ServerHandle};
use ede_testbed::Testbed;
use ede_wire::{Message, Name, RrType};
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

/// The seed `run.sh` uses when none is given: the population default.
pub const DEFAULT_SEED: u64 = 0xEDE_2023;

/// `--seconds` at which `scan_wild` scans the 1:1000 population (303 k
/// domains, the pinned fingerprint) and the serve workloads send about
/// three million queries each. Other values scale the work per slice in
/// proportion and keep the slice count.
pub const FULL_SECONDS: u32 = 30;

/// Outstanding queries the generator keeps in flight.
pub const WINDOW: usize = 16;

/// Ops per segment of a serve slice: 20 to 90 ms of work, short enough
/// that the calibration segments either side of it saw the same box.
pub const SEGMENT_OPS: usize = 3_500;

/// Work per run. Every quantity is a count fixed by `--seconds` and the
/// mode, never a duration, so two runs of one command do the same work.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Timed repeats of the same work; the run's value is the median
    /// over them.
    pub slices: usize,
    /// Ops per slice (`serve_*`).
    pub ops: usize,
    /// Ops per segment (`serve_*`): a slice is cut into segments with a
    /// calibration segment of as many ops before and after each.
    pub segment_ops: usize,
    /// Fresh-connection exchanges after each slice (`serve_tcp`).
    pub fresh: usize,
    /// Population for `scan_wild` and `serve_zipf`.
    pub population: PopulationConfig,
    /// `scan_wild` latency figures: domains resolved one by one per
    /// repeat, and repeats (each on a fresh world).
    pub latency_sample: usize,
    pub latency_repeats: usize,
}

impl Plan {
    /// The plan for one run. `trace` runs time a third of the slices
    /// where every slice needs a fresh world: their end-to-end figures
    /// only feed the ledger's residual rows, and the replay needs the
    /// rest of the time.
    pub fn new(workload: Workload, seed: u64, seconds: u32, smoke: bool, trace: bool) -> Plan {
        let scaled = |full: usize| (full * seconds as usize / FULL_SECONDS as usize).max(1);
        let population = if smoke {
            PopulationConfig {
                seed,
                ..PopulationConfig::tiny()
            }
        } else {
            PopulationConfig {
                // scan_wild spends its time in proportion to the
                // population, so the divisor shrinks as seconds grow;
                // serve_zipf always draws from the 1:1000 population.
                scale: match workload {
                    Workload::ScanWild => (1000 * FULL_SECONDS).div_ceil(seconds.max(1)).max(100),
                    _ => 1000,
                },
                seed,
                ..Default::default()
            }
        };
        let (slices, ops, fresh): (usize, usize, usize) = match workload {
            Workload::ScanWild => (5, 0, 0),
            Workload::ServeHot => (11, scaled(140_000), 0),
            Workload::ServeZipf => (5, scaled(140_000), 0),
            Workload::ServeTcp => (11, scaled(140_000), scaled(100)),
        };
        let (slices, ops, fresh) = if smoke {
            (1, ops.min(5_000), fresh.min(20))
        } else if trace && matches!(workload, Workload::ScanWild | Workload::ServeZipf) {
            (slices.div_ceil(3).max(3), ops, fresh)
        } else {
            (slices, ops, fresh)
        };
        Plan {
            slices,
            ops,
            segment_ops: SEGMENT_OPS,
            fresh,
            population,
            latency_sample: if smoke { 500 } else { 5_000 },
            latency_repeats: if smoke { 1 } else { 11 },
        }
    }
}

/// The distinct queries of a run: names and their encoded wires, ID 0.
/// The generator patches the ID into bytes 0–1 of a copy, so encoding is
/// off the timed path.
pub struct QuerySet {
    pub names: Vec<Name>,
    pub wires: Vec<Vec<u8>>,
}

impl QuerySet {
    pub fn new(names: Vec<Name>) -> QuerySet {
        let wires = names
            .iter()
            .map(|n| {
                Message::query(0, n.clone(), RrType::A)
                    .encode()
                    .expect("a query for a valid name encodes")
            })
            .collect();
        QuerySet { names, wires }
    }
}

/// A run's inputs: the query set and the op stream (indices into it).
/// Every slice replays the same stream, so slices are repeats of one
/// piece of work and one in-process replay checks them all.
pub struct Inputs {
    pub queries: QuerySet,
    pub stream: Vec<u32>,
}

/// `serve_hot` / `serve_tcp`: the 63 testbed names, drawn uniformly.
pub fn testbed_inputs(tb: &Testbed, seed: u64, ops: usize) -> Inputs {
    let names: Vec<Name> = tb.specs.iter().map(|s| tb.query_name(s)).collect();
    let mut rng = Rng::new(seed);
    let stream = (0..ops).map(|_| rng.below(names.len()) as u32).collect();
    Inputs {
        queries: QuerySet::new(names),
        stream,
    }
}

/// `serve_zipf`: Zipf(s = 1.0) over every domain of the population. The
/// popularity ranking is a seeded shuffle of the population order, so
/// the head is a mix of categories and TLDs rather than the first rows
/// the generator happened to emit.
pub fn zipf_inputs(pop: &Population, seed: u64, ops: usize) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x5A49_5046);
    let mut by_rank: Vec<u32> = (0..pop.domains.len() as u32).collect();
    rng.shuffle(&mut by_rank);
    let zipf = Zipf::new(by_rank.len(), 1.0);
    let mut dense: HashMap<u32, u32> = HashMap::new();
    let mut names = Vec::new();
    let stream = (0..ops)
        .map(|_| {
            let domain = by_rank[zipf.sample(&mut rng)];
            *dense.entry(domain).or_insert_with(|| {
                names.push(pop.domains[domain as usize].name.clone());
                (names.len() - 1) as u32
            })
        })
        .collect();
    Inputs {
        queries: QuerySet::new(names),
        stream,
    }
}

/// Names the calibration segments ask the echo server for.
const CALIBRATION_NAMES: usize = 64;
/// Size of every canned calibration answer: about what the testbed's
/// answers weigh (`server.resp_bytes_per_op` is 99 on `serve_hot`).
const CALIBRATION_ANSWER_BYTES: usize = 96;

/// What a calibration segment sends and what the echo server answers:
/// the same 64 names round robin and a 96-byte answer each, whatever
/// the workload and the seed, so every run of every serve workload
/// calibrates against the same work.
pub fn calibration(ops: usize) -> (Inputs, Canned) {
    let names: Vec<Name> = (0..CALIBRATION_NAMES)
        .map(|i| Name::parse(&format!("c{i:02}.calibration.example")).expect("a valid name"))
        .collect();
    let queries = QuerySet::new(names);
    let canned = queries
        .wires
        .iter()
        .map(|wire| {
            let mut answer = wire.clone();
            answer[2] |= 0x80; // QR
            answer.resize(CALIBRATION_ANSWER_BYTES, 0);
            (response_hash(wire), answer)
        })
        .collect();
    let stream = (0..ops).map(|i| (i % CALIBRATION_NAMES) as u32).collect();
    (Inputs { queries, stream }, canned)
}

/// A resolver over some simulated internet, plus the handle that reads
/// that internet's traffic counters.
pub struct Upstream {
    pub net: Arc<Network>,
    pub resolver: Resolver,
    /// The address the resolver sends from (ACLs see it).
    pub source_addr: IpAddr,
}

impl Upstream {
    /// Cloudflare-profile resolver over a fresh testbed.
    ///
    /// The testbed's virtual clock moves 20 ms per upstream exchange and
    /// seconds per timeout, about 40 s for one cold pass over the 63
    /// names, while the wall clock moves a few milliseconds. With the
    /// default 30 s failure TTL the SERVFAIL entries of the first names
    /// have expired before the pass ends, each re-resolution pushes the
    /// clock further, and a quarter of the ops stay misses for ever —
    /// which no resolver serving 80 k queries a second from its cache
    /// would see. An hour keeps every entry alive across set-up; after
    /// that nothing misses, so the clock stands still.
    pub fn testbed() -> (Testbed, Upstream) {
        let tb = Testbed::build();
        let mut config = tb.resolver_config.clone();
        config.failure_ttl_secs = 3600;
        let upstream = Upstream {
            net: Arc::clone(&tb.net),
            source_addr: config.source_addr,
            resolver: Resolver::new(
                Arc::clone(&tb.net),
                VendorProfile::new(Vendor::Cloudflare),
                config,
            ),
        };
        (tb, upstream)
    }

    /// Cloudflare-profile resolver over a fresh scan world.
    pub fn scan_world(pop: &Population) -> Upstream {
        let world = ScanWorld::build(pop);
        Upstream {
            source_addr: world.resolver_config.source_addr,
            resolver: Resolver::new(
                Arc::clone(&world.net),
                VendorProfile::new(Vendor::Cloudflare),
                world.resolver_config,
            ),
            net: world.net,
        }
    }

    /// Upstream queries this internet has carried since it was built.
    pub fn queries(&self) -> u64 {
        self.net.stats().snapshot().0
    }
}

/// One UDP worker on loopback: with the generator thread that makes two
/// busy threads, which share one CPU (`sched`). The transports get an ephemeral
/// port each; mirroring the UDP port onto TCP (the server's default)
/// collides now and then with a port a closed client connection still
/// holds in TIME_WAIT.
pub fn spawn_server(resolver: Resolver) -> ServerHandle {
    Server::spawn(
        resolver,
        ServerConfig::builder()
            .udp_bind("127.0.0.1:0")
            .tcp_bind("127.0.0.1:0")
            .workers(1)
            .build(),
    )
    .expect("loopback server starts")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_scale_with_seconds_and_keep_slice_counts() {
        let full = Plan::new(Workload::ServeHot, 1, 30, false, false);
        assert_eq!((full.slices, full.ops), (11, 140_000));
        let half = Plan::new(Workload::ServeHot, 1, 15, false, false);
        assert_eq!((half.slices, half.ops), (11, 70_000));
        let tcp = Plan::new(Workload::ServeTcp, 1, 15, false, false);
        assert_eq!((tcp.slices, tcp.ops, tcp.fresh), (11, 70_000, 50));
        // The oracle compares a whole stream: at least 50 k ops per serve
        // workload at the contract's run length.
        for w in [Workload::ServeHot, Workload::ServeZipf, Workload::ServeTcp] {
            let ops = Plan::new(w, 1, crate::manifest::RUN_SECONDS, false, false).ops;
            assert!(ops >= 50_000, "{} replays {ops} ops", w.name());
        }
        assert_eq!(Plan::new(Workload::ServeHot, 1, 15, false, true).slices, 11);
        assert_eq!(
            Plan::new(Workload::ScanWild, 1, 30, false, false)
                .population
                .scale,
            1000
        );
        assert_eq!(
            Plan::new(Workload::ScanWild, 1, 15, false, false)
                .population
                .scale,
            2000
        );
        assert_eq!(
            Plan::new(Workload::ServeZipf, 1, 15, false, false)
                .population
                .scale,
            1000
        );
        assert_eq!(Plan::new(Workload::ServeZipf, 1, 15, false, true).slices, 3);
        assert_eq!(
            Plan::new(Workload::ServeZipf, 1, 12, false, false).ops,
            56_000
        );
        let smoke = Plan::new(Workload::ServeTcp, 1, 15, true, false);
        assert_eq!((smoke.slices, smoke.ops, smoke.fresh), (1, 5_000, 20));
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let tb = Testbed::build();
        let a = testbed_inputs(&tb, 9, 2_000);
        let b = testbed_inputs(&tb, 9, 2_000);
        let c = testbed_inputs(&tb, 10, 2_000);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.stream, c.stream);
        assert_eq!(a.queries.names.len(), 63);
        assert!(a.stream.iter().all(|&i| (i as usize) < 63));
        // The wire is a decodable query for the name, ID 0.
        let q = Message::decode(&a.queries.wires[5]).unwrap();
        assert_eq!(q.id, 0);
        assert_eq!(q.first_question().unwrap().name, a.queries.names[5]);

        let pop = Population::generate(PopulationConfig::tiny());
        let z1 = zipf_inputs(&pop, 9, 5_000);
        let z2 = zipf_inputs(&pop, 9, 5_000);
        assert_eq!(z1.stream, z2.stream);
        assert!(z1.queries.names == z2.queries.names);
        assert!(
            z1.queries.names.len() < 5_000,
            "a Zipf stream repeats names"
        );
        assert!(z1
            .stream
            .iter()
            .all(|&i| (i as usize) < z1.queries.names.len()));
    }
}
