//! The `--trace 1` pass: a per-layer ledger taken from outside the
//! program. A short end-to-end pass with tracing off gives this run's own
//! CPU per op; then one thread replays the workload's ops in process,
//! with a span and an allocation count around each call into a layer.
//! A row is the per-op median of span self time (mean of the two
//! replays' medians); a row the workload never exercises reads 0.

use crate::fixtures::{spawn_server, Inputs, Plan, QuerySet, Upstream};
use crate::inproc::{
    self, resolver_pass, ResolverReplay, Transport, PIPELINE_SPANS_PER_OP, RESOLVER_SPANS_PER_OP,
};
use crate::manifest::Workload;
use crate::report::{MetricSet, RunResult};
use crate::spans::{span_overhead_ns, SpanLog, SpanStats};
use crate::workloads::{self, fresh_latencies_us, transport_of, Pass};
use crate::{procfs, stats, Args};
use ede_crypto::simsig::{self, SigningKey};
use ede_crypto::{nsec3hash, Digest, Sha256};
use ede_netsim::CapturedQuery;
use ede_resolver::diagnosis::{Diagnosis, SigTarget};
use ede_resolver::profiles::ValidatorCaps;
use ede_resolver::validate;
use ede_scan::aggregate::PartialAggregate;
use ede_scan::{report, Population};
use ede_trace::ResolutionTrace;
use ede_wire::rdata::Soa;
use ede_wire::stream::{frame, FrameReader, MAX_FRAME_LEN};
use ede_wire::{DigestAlg, Message, Name, Rdata, Record, RrType};
use ede_zone::signer::{sign_zone, SignerConfig, SIM_NOW};
use ede_zone::{Zone, ZoneKeys};
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ops the serve replays cover at most (the ISSUE's 50 k–200 k).
const REPLAY_OPS: usize = 200_000;
/// Ops (domains) whose upstream queries are captured and replayed
/// through `Network::query`, and over which the trace-sink overhead is
/// taken.
const NETSIM_OPS: usize = 50_000;
/// Ops per replay whose spans are written to the trace file.
const WRITTEN_OPS: u32 = 10_000;

/// Wall time per call of `f`, ns: `reps` batches of `iters` calls, the
/// calm batch (see [`stats::calm`]).
fn time_ns(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::calm(&per_call, false)
}

fn bench_zone(apex: &Name) -> Zone {
    let child = |label: &str| apex.child(label).expect("valid label");
    let mut z = Zone::new(apex.clone());
    z.add(Record::new(
        apex.clone(),
        3600,
        Rdata::Soa(Soa {
            mname: child("ns1"),
            rname: child("hostmaster"),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        }),
    ));
    z.add(Record::new(apex.clone(), 3600, Rdata::Ns(child("ns1"))));
    z.add_a(child("ns1"), "192.0.2.1".parse().expect("valid"));
    z.add_a(apex.clone(), "192.0.2.2".parse().expect("valid"));
    for i in 0..8 {
        z.add_a(
            child(&format!("host{i}")),
            "192.0.2.3".parse().expect("valid"),
        );
    }
    z
}

/// Rows that do not depend on the workload: primitives the layers above
/// are built from, called directly on fixed inputs.
fn calibrate(rows: &mut MetricSet) {
    rows.set("bench.span_overhead_ns", span_overhead_ns());

    let block = vec![0xA5u8; 64 * 1024];
    rows.set(
        "crypto.sha256_ns_per_block",
        time_ns(11, 8, || drop(black_box(Sha256::digest(black_box(&block))))) / 1024.0,
    );
    let name_wire = Name::parse("www.example.com")
        .expect("valid name")
        .to_wire();
    // The scan world's NSEC3 parameters: salt abcd, no extra iterations.
    rows.set(
        "crypto.nsec3_hash_ns",
        time_ns(11, 2_000, || {
            black_box(nsec3hash::nsec3_hash(black_box(&name_wire), b"\xab\xcd", 0));
        }),
    );
    let key = SigningKey::from_seed(8, 2048, b"bench");
    let msg = vec![0x42u8; 512];
    let (sig, public) = (key.sign(&msg), key.public_key());
    rows.set(
        "crypto.simsig_verify_ns",
        time_ns(11, 500, || {
            let _ = black_box(simsig::verify(
                black_box(&public),
                8,
                black_box(&msg),
                black_box(&sig),
            ));
        }),
    );

    let apex = Name::parse("bench.example").expect("valid name");
    let keys = ZoneKeys::generate(&apex, 8, 2048);
    let config = SignerConfig::default();
    rows.set(
        "zone.sign_zone_ns",
        time_ns(11, 20, || {
            let mut z = bench_zone(&apex);
            sign_zone(&mut z, &keys, &config);
            black_box(z);
        }),
    );
    let mut signed = bench_zone(&apex);
    sign_zone(&mut signed, &keys, &config);
    let ds = vec![keys.ksk.ds_rdata(&apex, DigestAlg::SHA256)];
    let dnskey = signed
        .get(&apex, RrType::Dnskey)
        .expect("signed zone has a DNSKEY set")
        .clone();
    let caps = ValidatorCaps::full();
    rows.set(
        "resolver.validate_dnskey_ns",
        time_ns(11, 200, || {
            let mut diag = Diagnosis::new();
            black_box(validate::validate_dnskey(
                &apex, &ds, &dnskey, &caps, SIM_NOW, &mut diag,
            ));
        }),
    );
    let a_set = signed
        .get(&apex, RrType::A)
        .expect("zone has an apex A set")
        .clone();
    let trusted =
        validate::validate_dnskey(&apex, &ds, &dnskey, &caps, SIM_NOW, &mut Diagnosis::new())
            .trusted
            .expect("the chain link validates");
    rows.set(
        "resolver.check_rrset_ns",
        time_ns(11, 200, || {
            let mut diag = Diagnosis::new();
            black_box(validate::check_rrset(
                &a_set,
                &trusted,
                &caps,
                SIM_NOW,
                SigTarget::Answer,
                &mut diag,
            ));
        }),
    );

    // One 300-byte message through the stream framing and back.
    let message = vec![0x5Au8; 300];
    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    rows.set(
        "wire.frame_roundtrip_ns",
        time_ns(11, 5_000, || {
            let framed = frame(black_box(&message)).expect("300 bytes fit a frame");
            reader.push(&framed).expect("within the frame cap");
            black_box(reader.next_frame());
        }),
    );
}

/// The two replays of one kind, for rows and for the determinism check.
struct Replays {
    a: SpanLog,
    b: SpanLog,
}

impl Replays {
    /// Statistics of the `name` spans: medians averaged over the two
    /// replays, the mean from the calmer one (a disturbed replay only
    /// ever reads higher). `None` if neither recorded any.
    fn row(&self, name: &str, keep: impl Fn(u32) -> bool + Copy) -> Option<SpanStats> {
        match (self.a.stats(name, keep), self.b.stats(name, keep)) {
            (Some(a), Some(b)) => Some(SpanStats {
                count: a.count,
                median_ns: (a.median_ns + b.median_ns) / 2.0,
                mean_ns: a.mean_ns.min(b.mean_ns),
                median_allocs: (a.median_allocs + b.median_allocs) / 2.0,
                total_allocs: a.total_allocs,
            }),
            (one, other) => one.or(other),
        }
    }

    /// The determinism check on the `*_allocs` rows: for every span name
    /// the per-op median allocation count must be the same in both
    /// replays. Totals are compared too but only reported: the first
    /// replay in a process pays a one-time initialisation, and the
    /// product's hash maps are randomly seeded, so totals differ by one
    /// or two allocations in millions.
    fn allocation_check(&self) -> (Vec<String>, Option<String>) {
        let mut names: Vec<&'static str> = self.a.spans().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut problems = Vec::new();
        let mut drift = Vec::new();
        for name in names {
            let a = self.a.stats(name, |_| true).unwrap_or_default();
            let b = self.b.stats(name, |_| true).unwrap_or_default();
            if a.median_allocs != b.median_allocs {
                problems.push(format!(
                    "{name}: {} allocations per op in one replay, {} in the other",
                    a.median_allocs, b.median_allocs
                ));
            }
            if a.total_allocs != b.total_allocs {
                drift.push(format!("{name} {} vs {}", a.total_allocs, b.total_allocs));
            }
        }
        let note = (!drift.is_empty()).then(|| {
            format!(
                "allocation totals of the two replays differ: {}",
                drift.join(", ")
            )
        });
        (problems, note)
    }

    /// Median over ops of the allocations made inside the spans named in
    /// `names`, summed per op.
    fn allocs_per_op(&self, names: &[&str]) -> f64 {
        let per_log = |log: &SpanLog| {
            let ops = log
                .spans()
                .iter()
                .map(|s| s.op)
                .max()
                .map_or(0, |m| m as usize + 1);
            let mut per_op = vec![0.0f64; ops];
            for s in log.spans().iter().filter(|s| names.contains(&s.name)) {
                per_op[s.op as usize] += f64::from(s.allocs);
            }
            if per_op.is_empty() {
                0.0
            } else {
                stats::median(&per_op)
            }
        };
        (per_log(&self.a) + per_log(&self.b)) / 2.0
    }
}

/// Everything a replay section needs besides its own inputs.
struct Ctx<'a> {
    rows: &'a mut MetricSet,
    notes: &'a mut Vec<String>,
    problems: &'a mut Vec<String>,
    trace_file: BufWriter<std::fs::File>,
}

impl Ctx<'_> {
    /// Set the `ns_row` (median self time) and, if named, the allocation
    /// row from the `span` spans; returns their statistics (zeros if the
    /// replay recorded none).
    fn set_rows(
        &mut self,
        replays: &Replays,
        span: &str,
        ns_row: &str,
        allocs_row: Option<&str>,
    ) -> SpanStats {
        let Some(stats) = replays.row(span, |_| true) else {
            return SpanStats::default();
        };
        self.rows.set(ns_row, stats.median_ns);
        if let Some(row) = allocs_row {
            self.rows.set(row, stats.median_allocs);
        }
        stats
    }

    fn keep(&mut self, replays: &Replays) {
        let (problems, note) = replays.allocation_check();
        self.problems.extend(problems);
        self.notes.extend(note);
        if let Err(e) = replays.a.append_jsonl(&mut self.trace_file, WRITTEN_OPS) {
            self.problems
                .push(format!("cannot write the trace file: {e}"));
        }
    }
}

/// `Resolver::resolve` replayed twice on fresh fixtures; fills the
/// `resolver.*` replay rows and returns the replays with both passes'
/// counts.
fn resolver_replays(
    fresh: impl Fn() -> Upstream,
    inputs: &Inputs,
    ops: usize,
    render: bool,
    ctx: &mut Ctx<'_>,
) -> (Replays, ResolverReplay, ResolverReplay) {
    let capacity = ops * RESOLVER_SPANS_PER_OP;
    let fixture_a = fresh();
    let mut a = SpanLog::with_capacity(capacity);
    let counts_a = resolver_pass(&fixture_a, inputs, ops, render, &mut a);
    let mut b = SpanLog::with_capacity(capacity);
    let counts_b = resolver_pass(&fresh(), inputs, ops, render, &mut b);
    let replays = Replays { a, b };
    ctx.set_rows(
        &replays,
        "resolver.resolve_hit",
        "resolver.resolve_hit_ns",
        None,
    );
    let miss = ctx.set_rows(
        &replays,
        "resolver.resolve_miss",
        "resolver.resolve_miss_ns",
        Some("resolver.resolve_miss_allocs"),
    );
    ctx.rows.set("resolver.resolve_miss_mean_ns", miss.mean_ns);
    ctx.set_rows(
        &replays,
        "resolver.to_message",
        "resolver.to_message_ns",
        None,
    );
    // Share of ops answered without an upstream query.
    ctx.rows.set(
        "resolver.l2_hit_share",
        counts_a.hits as f64 / (counts_a.hits + counts_a.misses).max(1) as f64,
    );
    ctx.rows.set(
        "resolver.l2_entries",
        fixture_a.resolver.cache_stats().occupancy_peak as f64,
    );
    ctx.rows.set(
        "resolver.referral_hit_share",
        fixture_a.resolver.infra_stats().referral_hit_ratio(),
    );
    ctx.notes.push(format!(
        "resolver replay: {ops} ops, {} hits, {} misses, {} upstream queries",
        counts_a.hits, counts_a.misses, counts_a.upstream_queries
    ));
    ctx.keep(&replays);
    (replays, counts_a, counts_b)
}

fn to_query(c: &CapturedQuery) -> Option<(std::net::IpAddr, Message)> {
    let name = if c.qname == "." {
        Name::root()
    } else {
        Name::parse(&c.qname).ok()?
    };
    Some((
        c.dst,
        Message::iterative_query(0, name, RrType::from_u16(c.qtype)),
    ))
}

/// The `netsim.*` rows and `trace.sink_overhead_pct`, on the scan world:
/// capture the upstream queries of the first [`NETSIM_OPS`] ops, replay
/// them through `Network::query` on fresh worlds, and time the same ops
/// with a `ResolutionTrace` ring attached. `per_miss` is how many
/// upstream queries a miss of the resolver replay sent on average: with
/// it `resolver.engine_self_ns` = mean miss − `per_miss` × mean query,
/// on means because the work per miss is skewed and only means add up.
fn netsim_and_sink_rows(
    pop: &Population,
    inputs: &Inputs,
    baseline: &Replays,
    per_miss: f64,
    ctx: &mut Ctx<'_>,
) {
    let ops = inputs.stream.len().min(NETSIM_OPS);
    let capture_on = Upstream::scan_world(pop);
    capture_on.net.start_capture();
    resolver_pass(&capture_on, inputs, ops, false, &mut SpanLog::disabled());
    let captured = capture_on.net.take_capture();
    let source = capture_on.source_addr;
    drop(capture_on);
    let queries: Vec<_> = captured.iter().filter_map(to_query).collect();
    if queries.len() != captured.len() {
        ctx.problems.push(format!(
            "{} captured upstream queries could not be rebuilt",
            captured.len() - queries.len()
        ));
    }

    let mut failed = 0u64;
    let mut replay = || {
        let world = Upstream::scan_world(pop);
        let mut log = SpanLog::with_capacity(queries.len());
        failed = 0;
        for (i, (dst, query)) in queries.iter().enumerate() {
            let answer = log.record("netsim.query", i as u32, || {
                world.net.query(*dst, source, query)
            });
            failed += u64::from(answer.is_err());
        }
        log
    };
    let replays = Replays {
        a: replay(),
        b: replay(),
    };
    let query = ctx.set_rows(
        &replays,
        "netsim.query",
        "netsim.query_ns",
        Some("netsim.query_allocs"),
    );
    ctx.rows.set("netsim.query_mean_ns", query.mean_ns);
    if let Some(miss_mean) = ctx.rows.get("resolver.resolve_miss_mean_ns") {
        ctx.rows.set(
            "resolver.engine_self_ns",
            miss_mean - per_miss * query.mean_ns,
        );
    }
    ctx.rows.set(
        "netsim.failed_share",
        failed as f64 / queries.len().max(1) as f64,
    );
    ctx.notes.push(format!(
        "netsim replay: {} upstream queries captured from the first {ops} ops",
        queries.len()
    ));
    ctx.keep(&replays);

    // The same misses with a trace ring attached, twice like the
    // baseline; the calmer pass of each side is compared.
    let first_ops = |op: u32| (op as usize) < ops;
    let watched_miss_ns = || {
        let watched = Upstream::scan_world(pop);
        watched
            .net
            .set_trace_sink(Arc::new(ResolutionTrace::new(4096)));
        let mut log = SpanLog::with_capacity(ops * RESOLVER_SPANS_PER_OP);
        resolver_pass(&watched, inputs, ops, false, &mut log);
        watched.net.clear_trace_sink();
        log.stats("resolver.resolve_miss", first_ops)
            .map_or(f64::INFINITY, |s| s.median_ns)
    };
    let with = watched_miss_ns().min(watched_miss_ns());
    let without = [&baseline.a, &baseline.b]
        .iter()
        .filter_map(|log| log.stats("resolver.resolve_miss", first_ops))
        .map(|s| s.median_ns)
        .fold(f64::INFINITY, f64::min);
    if with.is_finite() && without.is_finite() {
        ctx.rows.set(
            "trace.sink_overhead_pct",
            100.0 * (with - without) / without,
        );
    }
}

/// The served part of a trace run: the rows that come from the short
/// end-to-end pass and `ServerStats`.
fn served_rows(workload: Workload, pass: &Pass, rows: &mut MetricSet) {
    let stats = pass.server.as_ref().expect("a serve pass has server stats");
    let m = &stats.metrics;
    rows.set(
        "server.handle_p50_us",
        m.handle_latency.quantile_us(0.50) as f64,
    );
    rows.set(
        "server.handle_p99_us",
        m.handle_latency.quantile_us(0.99) as f64,
    );
    rows.set(
        "server.resp_bytes_per_op",
        m.bytes_sent as f64 / m.responses().max(1) as f64,
    );
    rows.set("server.udp_truncated", m.udp_truncated as f64);
    rows.set("server.dropped", m.dropped as f64);
    rows.set("server.encode_errors", m.encode_errors as f64);
    rows.set("server.tcp_conns_accepted", m.tcp_conns_accepted as f64);
    if workload == Workload::ServeTcp {
        rows.set(
            "server.fresh_conn_p50_us",
            stats::median(&fresh_latencies_us(&pass.fresh, 0.50)),
        );
        rows.set(
            "server.fresh_conn_p99_us",
            stats::median(&fresh_latencies_us(&pass.fresh, 0.99)),
        );
    }
}

/// CPU an idle server burns, ms per second: its tick loops.
fn idle_cpu_ms_per_s() -> f64 {
    let (_tb, upstream) = Upstream::testbed();
    let handle = spawn_server(upstream.resolver);
    std::thread::sleep(Duration::from_millis(100));
    let before = procfs::cpu_seconds();
    let started = Instant::now();
    std::thread::sleep(Duration::from_secs(2));
    let cpu = procfs::cpu_seconds() - before;
    let wall = started.elapsed().as_secs_f64();
    handle.shutdown().expect("server shuts down");
    1e3 * cpu / wall
}

fn serve_rows(workload: Workload, pass: &mut Pass, ctx: &mut Ctx<'_>) {
    let transport = transport_of(workload);
    served_rows(workload, pass, ctx.rows);
    ctx.rows
        .set("server.idle_cpu_ms_per_s", idle_cpu_ms_per_s());

    // Pipeline replay, twice; the first doubles as the answer oracle.
    let (inputs, observed) = pass.served.as_ref().expect("a served pass");
    let ops = inputs.stream.len().min(REPLAY_OPS);
    let capacity = ops * PIPELINE_SPANS_PER_OP;
    let mut a = SpanLog::with_capacity(capacity);
    let replay_a = inproc::pipeline_pass(
        &workloads::reference_fixture(workload, pass),
        inputs,
        ops,
        transport,
        &mut a,
    );
    let mut b = SpanLog::with_capacity(capacity);
    inproc::pipeline_pass(
        &workloads::reference_fixture(workload, pass),
        inputs,
        ops,
        transport,
        &mut b,
    );
    let oracle = inproc::compare(observed, &replay_a, inputs);
    let pipeline = Replays { a, b };
    ctx.set_rows(&pipeline, "wire.decode_query", "wire.decode_query_ns", None);
    let encode = ctx.set_rows(
        &pipeline,
        "wire.encode_response",
        "wire.encode_response_ns",
        Some("wire.encode_response_allocs"),
    );
    let classify = ctx.set_rows(&pipeline, "server.classify", "server.classify_ns", None);
    let answer = ctx.set_rows(&pipeline, "server.answer", "server.answer_ns", None);
    let encode_udp = ctx.set_rows(&pipeline, "server.encode_udp", "server.encode_udp_ns", None);
    // What the worker itself runs per op: over TCP it encodes without
    // the truncation check.
    let (last_step, last) = match transport {
        Transport::Udp => ("server.encode_udp", encode_udp),
        Transport::Tcp => ("wire.encode_response", encode),
    };
    ctx.rows.set(
        "server.pipeline_allocs_per_op",
        pipeline.allocs_per_op(&["server.classify", "server.answer", last_step]),
    );
    ctx.keep(&pipeline);

    // Echo floor: what the calibration segments between the real ones
    // scored, as measured. Same generator, same window, same minute.
    let floor_cpu = stats::median(&pass.calib_cpus_us_per_op());
    ctx.rows.set(
        "bench.echo_floor_ops_s",
        stats::median(&pass.calib_throughputs()),
    );
    ctx.rows.set("bench.echo_floor_cpu_us_per_op", floor_cpu);
    // Means, not the rows' medians: on serve_zipf a quarter of the
    // `answer` calls are cold resolutions, and only means add up.
    let pipeline_us = (classify.mean_ns + answer.mean_ns + last.mean_ns) / 1e3;
    let own_cpu = pass.raw_cpu_us_per_op();
    ctx.rows.set(
        "server.socket_residual_us",
        own_cpu - floor_cpu - pipeline_us,
    );
    ctx.notes.push(format!(
        "CPU/op as measured {own_cpu:.2} us = echo floor {floor_cpu:.2} + pipeline {pipeline_us:.2} (mean of classify + answer + {last_step}) + socket residual {:.2}",
        own_cpu - floor_cpu - pipeline_us
    ));

    // Resolver replay on fixtures that have seen nothing, so first
    // touches are misses here even on the hot workloads.
    let pop = pass.population.as_ref();
    let fresh = || match pop {
        Some(pop) => Upstream::scan_world(pop),
        None => Upstream::testbed().1,
    };
    let (resolver, counts, _) = resolver_replays(fresh, inputs, ops, true, ctx);
    if let Some(pop) = pop {
        let per_miss = counts.upstream_queries as f64 / counts.misses.max(1) as f64;
        netsim_and_sink_rows(pop, inputs, &resolver, per_miss, ctx);
    }
    pass.oracle = oracle;
}

fn scan_rows(pass: &Pass, ctx: &mut Ctx<'_>) {
    let pop = pass
        .population
        .as_ref()
        .expect("scan_wild has a population");
    let result = pass.scan.as_ref().expect("scan_wild has a result");
    let n = pop.domains.len();

    let l1 = &result.cache.l1;
    ctx.rows.set(
        "resolver.l1_hit_share",
        l1.hits as f64 / (l1.hits + l1.misses).max(1) as f64,
    );
    ctx.rows
        .set("scan.world_build_s", stats::median(&pass.setups));
    ctx.rows
        .set("scan.population_generate_s", pass.setup_once_s);
    ctx.rows.set(
        "scan.aggregate_merge_ns",
        result.stream.merge_ns as f64 / result.stream.merges.max(1) as f64,
    );
    ctx.rows.set("scan.querylog_peak", result.log.peak as f64);
    ctx.rows.set(
        "scan.report_json_ms",
        time_ns(5, 1, || drop(black_box(report::scan_json(&result.stats)))) / 1e6,
    );
    if !result.records.is_empty() {
        ctx.rows.set(
            "scan.fold_ns",
            time_ns(5, 1, || {
                let mut agg = PartialAggregate::default();
                for r in &result.records {
                    agg.fold(r);
                }
                black_box(agg);
            }) / result.records.len() as f64,
        );
    }

    // The bare loop: one blocking resolve per domain, the scan's work
    // without the scan around it.
    let inputs = Inputs {
        queries: QuerySet::new(pop.domains.iter().map(|d| d.name.clone()).collect()),
        stream: (0..n as u32).collect(),
    };
    let (resolver, a, b) = resolver_replays(|| Upstream::scan_world(pop), &inputs, n, false, ctx);
    // The scan's own tiers, where it reports them; the bare loop has no
    // L1 and no priming pass, so its shares would describe another run.
    ctx.rows
        .set("resolver.l2_hit_share", result.cache.l2.hit_ratio());
    ctx.rows
        .set("resolver.l2_entries", result.cache.l2.occupancy_peak as f64);
    ctx.rows.set(
        "resolver.referral_hit_share",
        result.cache.infra.referral_hit_ratio(),
    );
    let bare_cpu_us = 1e6 * a.cpu_s.min(b.cpu_s) / n as f64;
    ctx.rows.set(
        "scan.pipeline_residual_us",
        pass.raw_cpu_us_per_op() - bare_cpu_us,
    );
    ctx.notes.push(format!(
        "bare resolve loop: {bare_cpu_us:.2} us CPU per domain on one thread; scan: {:.2} us on two",
        pass.raw_cpu_us_per_op()
    ));

    let per_miss = a.upstream_queries as f64 / a.misses.max(1) as f64;
    netsim_and_sink_rows(pop, &inputs, &resolver, per_miss, ctx);
}

pub fn run(workload: Workload, plan: &Plan, args: &Args) -> RunResult {
    std::fs::create_dir_all(&args.out).expect("the output directory can be created");
    let trace_path = args.out.join(format!("trace-{}.jsonl", workload.name()));
    let trace_file =
        BufWriter::new(std::fs::File::create(&trace_path).expect("the trace file can be created"));

    let mut rows = MetricSet::per_layer();
    let mut notes = Vec::new();
    let mut problems = Vec::new();
    calibrate(&mut rows);

    let mut pass = workloads::run(workload, plan, args.seed);
    rows.set("bench.slice_iqr_pct", stats::iqr_pct(&pass.throughputs()));
    rows.set("bench.own_cpu_us_per_op", pass.raw_cpu_us_per_op());
    notes.append(&mut pass.notes);
    notes.push(format!(
        "tracing off: {:.0} ops/s and {:.3} us CPU per op at nominal box speed, {:.3} us as measured, over {} slices",
        pass.throughput_ops_s(),
        pass.cpu_us_per_op(),
        pass.raw_cpu_us_per_op(),
        pass.slices.len()
    ));

    let mut ctx = Ctx {
        rows: &mut rows,
        notes: &mut notes,
        problems: &mut problems,
        trace_file,
    };
    match workload {
        Workload::ScanWild => scan_rows(&pass, &mut ctx),
        _ => serve_rows(workload, &mut pass, &mut ctx),
    }
    if let Err(e) = ctx.trace_file.flush() {
        ctx.problems
            .push(format!("cannot write the trace file: {e}"));
    }

    for note in &notes {
        println!("# {note}");
    }
    println!(
        "# oracle compared {} ops, {} mismatched; spans of the first {WRITTEN_OPS} ops per replay in {}",
        pass.oracle.compared,
        pass.oracle.mismatched,
        trace_path.display()
    );
    for line in pass.oracle.examples.iter().chain(&problems) {
        println!("# PROBLEM {line}");
    }
    RunResult {
        correct: pass.failed() == 0 && problems.is_empty(),
        attempted: pass.attempted(),
        failed: pass.failed(),
        metrics: rows.finish(),
    }
}
