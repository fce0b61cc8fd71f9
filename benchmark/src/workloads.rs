//! The end-to-end pass of each workload: timed slices with tracing off,
//! the answer check, and the eight end-to-end metrics.
//!
//! Timings are reported at a nominal box speed. The box this runs on
//! changes speed by a factor of 1.5 within seconds and stays there for
//! seconds to minutes, for the benchmark's own code exactly as for the
//! product, so every piece of timed work runs between two calibration
//! segments of benchmark-owned work of the same kind — the same generator
//! against the echo server for the serve workloads, the reference load
//! ([`RefLoad`]) for `scan_wild` — and each timing is reported as its
//! ratio to the calibration's, times what the calibration scores on a
//! quiet box ([`Nominal`]). Ten runs of `serve_hot` that spread 25 % on
//! raw throughput spread 2 % on the ratio.

use crate::fixtures::{
    calibration, spawn_server, testbed_inputs, zipf_inputs, Inputs, Plan, Upstream, DEFAULT_SEED,
};
use crate::inproc::{self, OracleReport, Transport};
use crate::loadgen::{fresh_conn_leg, Client, EchoServer, Observed, SliceResult};
use crate::manifest::Workload;
use crate::refload::RefLoad;
use crate::spans::SpanLog;
use crate::{procfs, stats};
use ede_netsim::Network;
use ede_scan::scanner::{self, ScanConfig, ScanResult};
use ede_scan::{Population, ScanWorld};
use ede_server::{ServerHandle, ServerStats};
use ede_testbed::Testbed;
use ede_wire::RrType;
use std::sync::Arc;
use std::time::Instant;

/// Throw-away set-ups timed before every slice of the workloads that need
/// only one (`serve_hot`, `serve_tcp`). One set-up takes 4 ms or 6 ms
/// depending on where in the server's 2 ms ticks it falls, and the median
/// of such a sample jumps between the two, so a batch's mean is taken
/// first and the median over batches after. A batch per slice, not all of
/// them up front: the box changes speed within seconds, and batches
/// spread over the run see as much of that as the slices do.
const SETUP_BATCH: usize = 8;

/// The scan fingerprint for the default seed at scale 1:1000, pinned.
pub const PINNED_FINGERPRINT: u64 = 0x3642_b7ee_ccd6_9f8b;

/// What the calibration work scores on this box when nothing disturbs
/// it, pinned: the scale that turns a ratio to the calibration back into
/// µs and ops/s. Changing a number here rescales every report; it decides
/// no comparison.
#[derive(Debug, Clone, Copy)]
pub struct Nominal {
    /// Wall time per calibration op.
    pub us_per_op: f64,
    /// CPU time per calibration op: the same on one CPU, twice that for
    /// the reference load on two threads.
    pub cpu_us_per_op: f64,
    /// Latency quantiles of the echo server; unused by the reference
    /// load, whose ops have no latency.
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Nominal {
    /// The generator against the echo server, both on one CPU.
    pub fn echo(transport: Transport) -> Nominal {
        let (us_per_op, p50_us, p99_us) = match transport {
            Transport::Udp => (6.0, 100.0, 160.0),
            Transport::Tcp => (5.0, 80.0, 130.0),
        };
        Nominal {
            us_per_op,
            cpu_us_per_op: us_per_op,
            p50_us,
            p99_us,
        }
    }

    /// The reference load, a step per op on each of the scan's threads.
    pub fn reference_load() -> Nominal {
        let us_per_op = 1.4;
        Nominal {
            us_per_op,
            cpu_us_per_op: us_per_op * SCAN_WORKERS as f64,
            p50_us: 0.0,
            p99_us: 0.0,
        }
    }
}

/// Worker threads of the scan, and of the reference load around it.
const SCAN_WORKERS: usize = 2;
/// Steps per thread of a calibration segment beside a scan (about
/// 0.25 s) and beside a repeat of the single resolves (about 30 ms).
const SCAN_REF_STEPS: usize = 200_000;
const RESOLVE_REF_STEPS: usize = 25_000;

/// One timed repeat of a workload's work, in segments: `calib[i]` and
/// `calib[i + 1]` are the calibration segments run just before and just
/// after `real[i]`. A serve slice has many segments, a scan one.
#[derive(Default)]
pub struct Slice {
    pub real: Vec<SliceResult>,
    pub calib: Vec<SliceResult>,
}

impl Slice {
    /// One segment of real work between two of calibration.
    pub fn around(before: SliceResult, real: SliceResult, after: SliceResult) -> Slice {
        Slice {
            real: vec![real],
            calib: vec![before, after],
        }
    }

    pub fn attempted(&self) -> u64 {
        self.real.iter().map(|s| s.attempted).sum()
    }

    pub fn completed(&self) -> u64 {
        self.real.iter().map(|s| s.completed).sum()
    }

    /// Real ops failed, plus calibration ops failed: a calibration that
    /// lost queries calibrates nothing.
    pub fn failed(&self) -> u64 {
        self.real
            .iter()
            .chain(&self.calib)
            .map(SliceResult::failed)
            .sum()
    }

    /// `of` summed over the two calibration segments around `real[i]`.
    fn beside(&self, i: usize, of: impl Fn(&SliceResult) -> f64) -> f64 {
        of(&self.calib[i]) + of(&self.calib[i + 1])
    }

    /// `time` of every real segment, each scaled by `nominal_us` over the
    /// measured `time` per op of the calibration around it, summed: what
    /// the slice would have taken on a box at nominal speed.
    fn at_nominal_speed(&self, nominal_us: f64, time: impl Fn(&SliceResult) -> f64) -> f64 {
        (0..self.real.len())
            .map(|i| {
                let calib_us_per_op =
                    1e6 * self.beside(i, &time) / self.beside(i, |s| s.completed as f64);
                time(&self.real[i]) * nominal_us / calib_us_per_op
            })
            .sum()
    }

    pub fn throughput(&self, nominal: &Nominal) -> f64 {
        self.completed() as f64 / self.at_nominal_speed(nominal.us_per_op, |s| s.wall_s)
    }

    pub fn cpu_us_per_op(&self, nominal: &Nominal) -> f64 {
        1e6 * self.at_nominal_speed(nominal.cpu_us_per_op, |s| s.cpu_s)
            / self.completed().max(1) as f64
    }

    pub fn raw_throughput(&self) -> f64 {
        self.completed() as f64 / self.real.iter().map(|s| s.wall_s).sum::<f64>()
    }

    pub fn raw_cpu_us_per_op(&self) -> f64 {
        1e6 * self.real.iter().map(|s| s.cpu_s).sum::<f64>() / self.completed().max(1) as f64
    }

    /// Calibration ops per second in this slice.
    pub fn calib_throughput(&self) -> f64 {
        self.calib.iter().map(|s| s.completed).sum::<u64>() as f64
            / self.calib.iter().map(|s| s.wall_s).sum::<f64>()
    }

    /// Each real segment's `q`-quantile latency, µs, at nominal speed.
    /// Beside the echo server: as a ratio to the same quantile of the
    /// calibration segments around it, times `nominal_q_us`. Beside the
    /// reference load, whose ops have no latency: scaled as wall time is.
    fn latencies_us(&self, q: f64, nominal: &Nominal, nominal_q_us: f64) -> Vec<f64> {
        let at = |s: &SliceResult| f64::from(stats::quantile_sorted(&s.latencies_ns, q)) / 1e3;
        let sampled = |s: &SliceResult| !s.latencies_ns.is_empty();
        (0..self.real.len())
            .filter(|&i| sampled(&self.real[i]))
            .map(|i| {
                if self.calib.iter().all(sampled) {
                    at(&self.real[i]) * nominal_q_us / (self.beside(i, at) / 2.0)
                } else {
                    let calib_us_per_op =
                        1e6 * self.beside(i, |s| s.wall_s) / self.beside(i, |s| s.completed as f64);
                    at(&self.real[i]) * nominal.us_per_op / calib_us_per_op
                }
            })
            .collect()
    }
}

/// What the timed slices of a run measured, before it is boiled down.
pub struct Pass {
    pub nominal: Nominal,
    /// One entry per timed slice.
    pub slices: Vec<Slice>,
    /// `serve_tcp`: the fresh-connection leg after each slice.
    pub fresh: Vec<SliceResult>,
    /// Seconds per set-up (fixture build + server start + first touch);
    /// on `serve_hot` and `serve_tcp`, the set-up that served the run and
    /// then, per slice, the mean of a batch of throw-away ones.
    pub setups: Vec<f64>,
    /// Part of set-up paid once per run (population generation).
    pub setup_once_s: f64,
    /// Upstream queries sent by every fixture that served timed ops,
    /// from the moment it was built.
    pub upstream_queries: u64,
    pub oracle: OracleReport,
    /// Failures the slices cannot see: scan domains without an
    /// observation, or every op if the repeats' fingerprints differ.
    pub extra_failed: u64,
    /// `VmHWM` when the first fixture's last timed slice ended. Later
    /// fixtures (`serve_zipf`, `scan_wild` build one per slice) are left
    /// out: whether the allocator reuses the freed world or grows beside
    /// it is luck (239 MB or 311 MB on `serve_zipf`, run to run).
    pub peak_rss_mb: f64,
    /// `scan_wild`: one-by-one resolves timed for the latency figures,
    /// one entry per repeat.
    pub single_resolves: Vec<Slice>,
    /// Final server statistics (`serve_*`; the last fixture's).
    pub server: Option<ServerStats>,
    /// `scan_wild`: the last repeat's result.
    pub scan: Option<ScanResult>,
    /// `scan_wild`, `serve_zipf`: the population the fixtures were built
    /// from.
    pub population: Option<Population>,
    /// `serve_*`: the op stream and what the served side answered, kept
    /// for [`check_answers`].
    pub served: Option<(Inputs, Observed)>,
    pub notes: Vec<String>,
}

impl Pass {
    fn new(nominal: Nominal) -> Pass {
        Pass {
            nominal,
            slices: Vec::new(),
            fresh: Vec::new(),
            setups: Vec::new(),
            setup_once_s: 0.0,
            upstream_queries: 0,
            oracle: OracleReport::default(),
            extra_failed: 0,
            peak_rss_mb: 0.0,
            single_resolves: Vec::new(),
            server: None,
            scan: None,
            population: None,
            served: None,
            notes: Vec::new(),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.slices.iter().map(Slice::attempted).sum::<u64>()
            + self.fresh.iter().map(|s| s.attempted).sum::<u64>()
    }

    pub fn failed(&self) -> u64 {
        self.slices.iter().map(Slice::failed).sum::<u64>()
            + self.fresh.iter().map(SliceResult::failed).sum::<u64>()
            + self.oracle.mismatched
            + self.extra_failed
    }

    /// Per slice, at nominal box speed.
    pub fn throughputs(&self) -> Vec<f64> {
        let each = |s: &Slice| s.throughput(&self.nominal);
        self.slices.iter().map(each).collect()
    }

    /// Per slice, at nominal box speed.
    pub fn cpus_us_per_op(&self) -> Vec<f64> {
        let each = |s: &Slice| s.cpu_us_per_op(&self.nominal);
        self.slices.iter().map(each).collect()
    }

    pub fn raw_throughputs(&self) -> Vec<f64> {
        self.slices.iter().map(Slice::raw_throughput).collect()
    }

    pub fn raw_cpus_us_per_op(&self) -> Vec<f64> {
        self.slices.iter().map(Slice::raw_cpu_us_per_op).collect()
    }

    pub fn calib_throughputs(&self) -> Vec<f64> {
        self.slices.iter().map(Slice::calib_throughput).collect()
    }

    /// CPU per op of each slice's calibration segments, as measured.
    pub fn calib_cpus_us_per_op(&self) -> Vec<f64> {
        let each = |s: &Slice| {
            1e6 * s.calib.iter().map(|e| e.cpu_s).sum::<f64>()
                / s.calib.iter().map(|e| e.completed).sum::<u64>().max(1) as f64
        };
        self.slices.iter().map(each).collect()
    }

    pub fn throughput_ops_s(&self) -> f64 {
        stats::median(&self.throughputs())
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        stats::median(&self.cpus_us_per_op())
    }

    /// As the box ran it, uncorrected: what the ledger's own raw rows
    /// are held against.
    pub fn raw_cpu_us_per_op(&self) -> f64 {
        stats::median(&self.raw_cpus_us_per_op())
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_once_s + stats::median(&self.setups)
    }

    pub fn upstream_queries_per_op(&self) -> f64 {
        let ops: u64 = self.slices.iter().map(Slice::completed).sum();
        self.upstream_queries as f64 / ops.max(1) as f64
    }

    /// The slices whose latency samples stand for the run: the timed
    /// slices on `serve_*`, the single resolves on `scan_wild`.
    fn latency_slices(&self) -> &[Slice] {
        if self.single_resolves.is_empty() {
            &self.slices
        } else {
            &self.single_resolves
        }
    }

    /// Every segment's p50 latency, µs, at nominal box speed.
    pub fn latencies_p50_us(&self) -> Vec<f64> {
        let each = |s: &Slice| s.latencies_us(0.50, &self.nominal, self.nominal.p50_us);
        self.latency_slices().iter().flat_map(each).collect()
    }

    /// Every segment's p99 latency, µs, at nominal box speed.
    pub fn latencies_p99_us(&self) -> Vec<f64> {
        let each = |s: &Slice| s.latencies_us(0.99, &self.nominal, self.nominal.p99_us);
        self.latency_slices().iter().flat_map(each).collect()
    }

    /// Latency samples behind each entry of the two lists above.
    pub fn latency_samples_per_segment(&self) -> usize {
        self.latency_slices()
            .first()
            .and_then(|s| s.real.first())
            .map_or(0, |s| s.latencies_ns.len())
    }

    pub fn answered_share(&self) -> f64 {
        1.0 - self.failed() as f64 / self.attempted().max(1) as f64
    }
}

/// Median of per-segment latencies; 0 without samples.
pub fn latency_us(per_segment: &[f64]) -> f64 {
    if per_segment.is_empty() {
        0.0
    } else {
        stats::median(per_segment)
    }
}

/// Each fresh-connection leg's `q`-quantile latency, µs, as measured.
pub fn fresh_latencies_us(legs: &[SliceResult], q: f64) -> Vec<f64> {
    legs.iter()
        .filter(|s| !s.latencies_ns.is_empty())
        .map(|s| f64::from(stats::quantile_sorted(&s.latencies_ns, q)) / 1e3)
        .collect()
}

/// The transport a workload's generator uses.
pub fn transport_of(workload: Workload) -> Transport {
    match workload {
        Workload::ServeTcp => Transport::Tcp,
        _ => Transport::Udp,
    }
}

/// The timed slices of `workload`, tracing off. The answer oracle is a
/// separate step ([`check_answers`]) so that `peak_rss_mb` is read
/// before the reference fixture exists.
pub fn run(workload: Workload, plan: &Plan, seed: u64) -> Pass {
    match workload {
        Workload::ScanWild => scan_wild(plan, seed),
        Workload::ServeHot | Workload::ServeTcp => {
            serve_testbed(plan, seed, transport_of(workload))
        }
        Workload::ServeZipf => serve_zipf(plan, seed),
    }
}

/// A fresh fixture in the state the served one was in when the first
/// recorded slice began.
pub fn reference_fixture(workload: Workload, pass: &Pass) -> Upstream {
    match workload {
        Workload::ServeHot | Workload::ServeTcp => {
            let (inputs, _) = pass.served.as_ref().expect("a served pass");
            let (_tb, reference) = Upstream::testbed();
            inproc::prewarm(&reference, inputs, transport_of(workload));
            reference
        }
        Workload::ServeZipf | Workload::ScanWild => {
            Upstream::scan_world(pass.population.as_ref().expect("a population"))
        }
    }
}

/// The answer oracle: replay the stream in process and compare every
/// op with what the served side recorded. `scan_wild` checks itself
/// (observation counts and fingerprints) while it runs.
pub fn check_answers(workload: Workload, pass: &mut Pass) {
    if workload == Workload::ScanWild {
        return;
    }
    let reference = reference_fixture(workload, pass);
    let (inputs, observed) = pass.served.as_ref().expect("a served pass");
    let replay = inproc::pipeline_pass(
        &reference,
        inputs,
        inputs.stream.len(),
        transport_of(workload),
        &mut SpanLog::disabled(),
    );
    pass.oracle = inproc::compare(observed, &replay, inputs);
}

fn connect(transport: Transport, handle: &ServerHandle) -> Client {
    match transport {
        Transport::Udp => Client::udp(handle.udp_addr()),
        Transport::Tcp => Client::tcp(handle.tcp_addr()),
    }
}

/// The calibration side of a serve run: the echo server, the generator's
/// connection to it, and the fixed work of one calibration segment.
struct Calibration {
    echo: EchoServer,
    client: Client,
    inputs: Inputs,
    observed: Observed,
}

impl Calibration {
    fn start(transport: Transport, ops: usize) -> Calibration {
        let (inputs, canned) = calibration(ops);
        let echo = EchoServer::spawn(canned);
        let mut cal = Calibration {
            client: match transport {
                Transport::Udp => Client::udp(echo.udp_addr),
                Transport::Tcp => Client::tcp(echo.tcp_addr),
            },
            echo,
            observed: Observed::new(inputs.stream.len()),
            inputs,
        };
        cal.segment(); // first touch of socket, threads and tables
        cal
    }

    fn segment(&mut self) -> SliceResult {
        self.client.run(
            &self.inputs.queries,
            &self.inputs.stream,
            0,
            &mut self.observed,
        )
    }

    fn stop(self) {
        drop(self.client);
        self.echo.shutdown();
    }
}

/// One slice: the whole stream through `client`, a segment at a time,
/// with a calibration segment before, between and after.
fn calibrated_slice(
    client: &mut Client,
    cal: &mut Calibration,
    inputs: &Inputs,
    segment_ops: usize,
    observed: &mut Observed,
) -> Slice {
    let mut slice = Slice {
        real: Vec::new(),
        calib: vec![cal.segment()],
    };
    for (i, segment) in inputs.stream.chunks(segment_ops).enumerate() {
        slice
            .real
            .push(client.run(&inputs.queries, segment, i * segment_ops, observed));
        slice.calib.push(cal.segment());
    }
    slice
}

/// First touch of every name, in order, through the socket: the cold
/// resolutions are part of set-up, so work moved there shows.
fn prewarm(client: &mut Client, inputs: &Inputs) {
    let every_name: Vec<u32> = (0..inputs.queries.wires.len() as u32).collect();
    let mut unchecked = Observed::new(every_name.len());
    let r = client.run(&inputs.queries, &every_name, 0, &mut unchecked);
    assert_eq!(r.failed(), 0, "prewarm lost queries on loopback");
}

/// One set-up of `serve_hot` or `serve_tcp`, timed: testbed, resolver,
/// server, the generator's connection and the first touch of every name.
fn timed_setup(
    transport: Transport,
    inputs: &Inputs,
) -> (f64, (Arc<Network>, ServerHandle, Client)) {
    let started = Instant::now();
    let (_tb, upstream) = Upstream::testbed();
    let net = upstream.net;
    let handle = spawn_server(upstream.resolver);
    let mut client = connect(transport, &handle);
    prewarm(&mut client, inputs);
    (started.elapsed().as_secs_f64(), (net, handle, client))
}

/// `serve_hot` and `serve_tcp`: one server over the testbed, every timed
/// answer a cache hit.
fn serve_testbed(plan: &Plan, seed: u64, transport: Transport) -> Pass {
    let mut pass = Pass::new(Nominal::echo(transport));
    let inputs = testbed_inputs(&Testbed::build(), seed, plan.ops);

    let (live_s, (net, handle, mut client)) = timed_setup(transport, &inputs);
    pass.setups.push(live_s);
    let mut cal = Calibration::start(transport, plan.segment_ops.min(plan.ops));

    // Untimed warm-up slice; its answers are already cache hits, so they
    // are recorded and every timed slice must repeat them.
    let mut observed = Observed::new(inputs.stream.len());
    let warm = client.run(&inputs.queries, &inputs.stream, 0, &mut observed);
    pass.extra_failed += warm.failed();

    for _ in 0..plan.slices {
        let mut batch_s = 0.0;
        for _ in 0..SETUP_BATCH {
            let (s, (_, spare, spare_client)) = timed_setup(transport, &inputs);
            batch_s += s;
            drop(spare_client);
            spare.shutdown().expect("server shuts down");
        }
        pass.setups.push(batch_s / SETUP_BATCH as f64);
        pass.slices.push(calibrated_slice(
            &mut client,
            &mut cal,
            &inputs,
            plan.segment_ops,
            &mut observed,
        ));
        if plan.fresh > 0 {
            pass.fresh.push(fresh_conn_leg(
                handle.tcp_addr(),
                &inputs.queries,
                &inputs.stream,
                plan.fresh,
                &mut observed,
            ));
        }
    }
    pass.peak_rss_mb = procfs::peak_rss_mb();
    pass.upstream_queries = net.stats().snapshot().0;
    drop(client);
    cal.stop();
    pass.server = Some(handle.shutdown().expect("server shuts down"));
    pass.served = Some((inputs, observed));
    pass
}

/// `serve_zipf`: every slice on a fresh world, resolver and server, so
/// cache fills are inside the timed region.
fn serve_zipf(plan: &Plan, seed: u64) -> Pass {
    let mut pass = Pass::new(Nominal::echo(Transport::Udp));
    let started = Instant::now();
    let pop = Population::generate(plan.population.clone());
    pass.setup_once_s = started.elapsed().as_secs_f64();
    let inputs = zipf_inputs(&pop, seed, plan.ops);
    pass.notes.push(format!(
        "{} ops per slice over {} distinct names of {}",
        inputs.stream.len(),
        inputs.queries.names.len(),
        pop.domains.len()
    ));
    let mut cal = Calibration::start(Transport::Udp, plan.segment_ops.min(plan.ops));

    let mut observed = Observed::new(inputs.stream.len());
    for _ in 0..plan.slices {
        let started = Instant::now();
        let upstream = Upstream::scan_world(&pop);
        let net = upstream.net;
        let handle = spawn_server(upstream.resolver);
        let mut client = connect(Transport::Udp, &handle);
        pass.setups.push(started.elapsed().as_secs_f64());
        pass.slices.push(calibrated_slice(
            &mut client,
            &mut cal,
            &inputs,
            plan.segment_ops,
            &mut observed,
        ));
        if pass.slices.len() == 1 {
            pass.peak_rss_mb = procfs::peak_rss_mb();
        }
        pass.upstream_queries += net.stats().snapshot().0;
        pass.server = Some(handle.shutdown().expect("server shuts down"));
    }
    cal.stop();
    pass.served = Some((inputs, observed));
    pass.population = Some(pop);
    pass
}

pub fn scan_config() -> ScanConfig {
    ScanConfig::builder()
        .workers(SCAN_WORKERS)
        .inflight(1)
        .progress(false)
        .build()
}

/// One timed scan on a fresh world, as a slice between two segments of
/// the reference load: op = domain.
fn timed_scan(pop: &Population, reference: &RefLoad) -> (f64, Slice, ScanResult, u64) {
    let started = Instant::now();
    let world = ScanWorld::build(pop);
    let setup_s = started.elapsed().as_secs_f64();
    let before = reference.segment(SCAN_WORKERS, SCAN_REF_STEPS);
    let cpu_before = procfs::cpu_seconds();
    let started = Instant::now();
    let result = scanner::scan(pop, &world, &scan_config());
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu_before;
    let attempted = pop.domains.len() as u64;
    let completed = (result.stats.ede.total_domains as u64).min(attempted);
    let scan = SliceResult {
        attempted,
        completed,
        unanswered: attempted - completed,
        wall_s,
        cpu_s,
        ..Default::default()
    };
    let after = reference.segment(SCAN_WORKERS, SCAN_REF_STEPS);
    let queries = world.net.stats().snapshot().0;
    (setup_s, Slice::around(before, scan, after), result, queries)
}

/// `scan_wild`: the section 4.2 pipeline, repeated on fresh worlds.
fn scan_wild(plan: &Plan, seed: u64) -> Pass {
    let mut pass = Pass::new(Nominal::reference_load());
    let reference = RefLoad::new();
    let started = Instant::now();
    let pop = Population::generate(plan.population.clone());
    pass.setup_once_s = started.elapsed().as_secs_f64();

    let mut fingerprints = Vec::new();
    for _ in 0..plan.slices {
        let (setup_s, slice, result, queries) = timed_scan(&pop, &reference);
        pass.setups.push(setup_s);
        pass.slices.push(slice);
        if pass.slices.len() == 1 {
            pass.peak_rss_mb = procfs::peak_rss_mb();
        }
        pass.upstream_queries += queries;
        fingerprints.push(result.stats.fingerprint);
        pass.scan = Some(result);
    }

    let fingerprint = fingerprints[0];
    pass.notes.push(format!(
        "{} domains per repeat (scale 1:{}), fingerprint {fingerprint:016x}",
        pop.domains.len(),
        pop.config.scale
    ));
    let pin_broken = seed == DEFAULT_SEED
        && pop.config.scale == 1000
        && pop.config.gtlds == ede_scan::PopulationConfig::default().gtlds
        && fingerprint != PINNED_FINGERPRINT;
    if fingerprints.iter().any(|&f| f != fingerprint) || pin_broken {
        pass.notes.push(format!(
            "FINGERPRINT MISMATCH: repeats {fingerprints:016x?}, pinned {PINNED_FINGERPRINT:016x}"
        ));
        pass.extra_failed = pass.attempted() - pass.failed();
    }

    // The scan has no per-domain clock, so the latency figures come
    // from one blocking resolve per domain, in population order, on a
    // fresh world; repeated so that the same work is timed several
    // times, each time between two segments of the reference load on
    // this one thread.
    let n = plan.latency_sample.min(pop.domains.len());
    for _ in 0..plan.latency_repeats {
        let upstream = Upstream::scan_world(&pop);
        let before = reference.segment(1, RESOLVE_REF_STEPS);
        let mut latencies_ns = Vec::with_capacity(n);
        for d in &pop.domains[..n] {
            let t = Instant::now();
            std::hint::black_box(upstream.resolver.resolve(&d.name, RrType::A));
            latencies_ns.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
        }
        latencies_ns.sort_unstable();
        let resolves = SliceResult {
            latencies_ns,
            ..Default::default()
        };
        let after = reference.segment(1, RESOLVE_REF_STEPS);
        pass.single_resolves
            .push(Slice::around(before, resolves, after));
    }
    pass.notes.push(format!(
        "latency from {} repeats of {n} single resolves, each on a fresh world",
        plan.latency_repeats
    ));
    pass.population = Some(pop);
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(ops: u64, wall_s: f64, cpu_s: f64, latencies_ns: Vec<u32>) -> SliceResult {
        SliceResult {
            attempted: ops,
            completed: ops,
            wall_s,
            cpu_s,
            latencies_ns,
            ..Default::default()
        }
    }

    #[test]
    fn a_slow_box_is_scaled_out_of_every_timing() {
        // The echo server scores 12 us per op, twice the nominal 6: the
        // box is at half speed, so 1 000 real ops in 20 ms count as 10 ms.
        let nominal = Nominal::echo(Transport::Udp);
        let echo = || segment(1_000, 0.012, 0.012, vec![200_000; 10]);
        let slice = Slice::around(
            echo(),
            segment(1_000, 0.020, 0.018, vec![300_000; 10]),
            echo(),
        );
        assert!((slice.throughput(&nominal) - 100_000.0).abs() < 1e-6);
        assert!((slice.cpu_us_per_op(&nominal) - 9.0).abs() < 1e-9);
        assert!((slice.raw_throughput() - 50_000.0).abs() < 1e-6);
        assert!((slice.raw_cpu_us_per_op() - 18.0).abs() < 1e-9);
        // Latency quantile against the echo server's same quantile:
        // 300 us beside 200 us, times the nominal 100 us.
        let p50 = slice.latencies_us(0.50, &nominal, nominal.p50_us);
        assert_eq!(p50.len(), 1);
        assert!((p50[0] - 150.0).abs() < 1e-9);
    }

    #[test]
    fn the_reference_load_scales_latency_by_its_speed() {
        // Two threads: 1.4 us of wall and 2.8 us of CPU per step is
        // nominal; this box takes twice that.
        let nominal = Nominal::reference_load();
        let reference = || segment(1_000, 0.0028, 0.0056, Vec::new());
        let slice = Slice::around(
            reference(),
            segment(500, 0.010, 0.020, vec![40_000; 10]),
            reference(),
        );
        assert!((slice.throughput(&nominal) - 100_000.0).abs() < 1e-6);
        assert!((slice.cpu_us_per_op(&nominal) - 20.0).abs() < 1e-9);
        let p99 = slice.latencies_us(0.99, &nominal, nominal.p99_us);
        assert!((p99[0] - 20.0).abs() < 1e-9);
    }
}
