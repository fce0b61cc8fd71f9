//! The benchmark's vocabulary: workloads, end-to-end metrics with the
//! bound by which each may worsen, and the per-layer ledger rows. This
//! is the source `BENCHMARK.json` is printed from (`--print-manifest`)
//! and checked against (unit test below).

use crate::json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanWild,
    ServeHot,
    ServeZipf,
    ServeTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ScanWild,
        Workload::ServeHot,
        Workload::ServeZipf,
        Workload::ServeTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanWild => "scan_wild",
            Workload::ServeHot => "serve_hot",
            Workload::ServeZipf => "serve_zipf",
            Workload::ServeTcp => "serve_tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ScanWild => {
                "The paper's 4.2 scan end to end (population, world, scanner): all cache misses, so engine, validation and netsim do the work and sockets and wire codec none."
            }
            Workload::ServeHot => {
                "63 testbed names over UDP, every answer a cache hit: syscalls, thread hand-off, pipeline and wire codec do the work and the engine none, so a serving-loop change shows here."
            }
            Workload::ServeZipf => {
                "Zipf(1.0) names over the 303k-domain scan world via UDP, cache filling inside the timed region: hits, misses and evictions mixed, so a gain for hits that costs misses shows."
            }
            Workload::ServeTcp => {
                "serve_hot's names over one pipelined RFC 7766 connection plus fresh connections, the TC=1 fallback shape: FrameReader, acceptor and thread per connection instead of UDP."
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub what: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "fixture build + server start (+ first touch of every testbed name through the socket) before the first timed op; median over set-ups, plus population generation where there is one",
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: Higher,
        bound: 0.25,
        what: "ops completed per wall second of a slice (scan_wild: domains), scaled by the calibration segments either side to nominal box speed; median over slices",
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Lower,
        bound: 0.25,
        what: "process CPU clock over a slice / ops completed, generator included, scaled by the calibration segments either side to nominal box speed; median over slices",
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        what: "serve_*: client send->receive inside the 16-deep window, p50 of each segment as a ratio to the echo segments either side, times the nominal echo p50; scan_wild: one Resolver::resolve per domain on a fresh world, p50 of each repeat scaled by the reference load either side; median over segments or repeats",
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        what: "as latency_p50_us, with each segment's p99",
    },
    EndToEnd {
        name: "upstream_queries_per_op",
        unit: "count",
        better: Lower,
        bound: 0.03,
        what: "Network::stats() queries since the fixtures were built / timed ops: the paper's section 5 traffic cost, set-up included; repeats exactly per seed",
    },
    EndToEnd {
        name: "answered_share",
        unit: "ratio",
        better: Higher,
        bound: 0.001,
        what: "1 - (unanswered + undecodable + wrong-answer ops) / attempted; scan_wild: domains with an observation, 0 if the repeats' fingerprints differ",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        what: "VmHWM of the workload's process when the first fixture's last timed slice ends, before the answer oracle builds its reference",
    },
];

/// One row of the per-layer ledger.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What the row should move, and where.
    pub moves: &'static str,
}

const fn row(name: &'static str, unit: &'static str, better: Better, moves: &'static str) -> Row {
    Row {
        name,
        unit,
        better,
        moves,
    }
}

const HOT: &str = "cpu_us_per_op on serve_hot/serve_tcp";
const HOT_ALL: &str = "throughput_ops_s, cpu_us_per_op, latencies on serve_hot/serve_tcp";
const MISS: &str = "throughput_ops_s on scan_wild, ~4x diluted on serve_zipf";
const SCAN: &str = "throughput_ops_s, cpu_us_per_op on scan_wild";
const COUNTER: &str = "health counter: must stay 0";

pub const PER_LAYER: [Row; 52] = [
    // ede-wire
    row("wire.decode_query_ns", "ns", Lower, HOT),
    row("wire.encode_response_ns", "ns", Lower, HOT),
    row("wire.encode_response_allocs", "count", Lower, HOT),
    row("wire.frame_roundtrip_ns", "ns", Lower, "cpu_us_per_op on serve_tcp"),
    // ede-server
    row("server.classify_ns", "ns", Lower, HOT_ALL),
    row("server.answer_ns", "ns", Lower, HOT_ALL),
    row("server.encode_udp_ns", "ns", Lower, HOT_ALL),
    row("server.pipeline_allocs_per_op", "count", Lower, HOT_ALL),
    row("server.handle_p50_us", "us", Lower, "latency_p50_us on serve_*"),
    row("server.handle_p99_us", "us", Lower, "latency_p99_us on serve_*"),
    row("server.resp_bytes_per_op", "B", Lower, "explains cpu_us_per_op differences between workloads"),
    row("server.udp_truncated", "count", Lower, "TC=1 answers; 0 on these name sets"),
    row("server.dropped", "count", Lower, COUNTER),
    row("server.encode_errors", "count", Lower, COUNTER),
    row("server.tcp_conns_accepted", "count", Lower, "1 + fresh connections per slice on serve_tcp, else 0"),
    row("server.fresh_conn_p50_us", "us", Lower, "the acceptor alone (ACCEPT_TICK); serve_tcp"),
    row("server.fresh_conn_p99_us", "us", Lower, "the acceptor alone (ACCEPT_TICK); serve_tcp"),
    row("server.idle_cpu_ms_per_s", "ms/s", Lower, "the tick loops; nothing end to end until they are replaced"),
    row("server.socket_residual_us", "us", Lower, HOT_ALL),
    // ede-resolver
    row("resolver.resolve_hit_ns", "ns", Lower, "serve_hot/serve_tcp; no change on scan_wild"),
    row("resolver.resolve_miss_ns", "ns", Lower, MISS),
    row("resolver.resolve_miss_mean_ns", "ns", Lower, MISS),
    row("resolver.resolve_miss_allocs", "count", Lower, MISS),
    row("resolver.to_message_ns", "ns", Lower, HOT),
    row("resolver.engine_self_ns", "ns", Lower, MISS),
    row("resolver.validate_dnskey_ns", "ns", Lower, MISS),
    row("resolver.check_rrset_ns", "ns", Lower, MISS),
    row("resolver.l1_hit_share", "ratio", Higher, "scan_wild only (ScanResult::cache); settles the recorded 0.0 %"),
    row("resolver.l2_hit_share", "ratio", Higher, "share of ops that skip the engine; serve_zipf"),
    row("resolver.referral_hit_share", "ratio", Higher, "upstream_queries_per_op on scan_wild/serve_zipf"),
    row("resolver.l2_entries", "count", Lower, "peak_rss_mb on scan_wild/serve_zipf"),
    // ede-netsim (+ the scan world's servers behind it)
    row("netsim.query_ns", "ns", Lower, MISS),
    row("netsim.query_mean_ns", "ns", Lower, MISS),
    row("netsim.query_allocs", "count", Lower, MISS),
    row("netsim.failed_share", "ratio", Lower, "planted unreachable servers; fixed by the population"),
    // ede-crypto, ede-zone
    row("crypto.sha256_ns_per_block", "ns", Lower, "through netsim.query_ns and the validate rows; setup_s"),
    row("crypto.nsec3_hash_ns", "ns", Lower, "through netsim.query_ns and the validate rows"),
    row("crypto.simsig_verify_ns", "ns", Lower, "through the validate rows on scan_wild"),
    row("zone.sign_zone_ns", "ns", Lower, "through netsim.query_ns on scan_wild; setup_s everywhere"),
    // ede-scan
    row("scan.population_generate_s", "s", Lower, "setup_s on scan_wild/serve_zipf"),
    row("scan.world_build_s", "s", Lower, "setup_s on scan_wild/serve_zipf"),
    row("scan.fold_ns", "ns", Lower, SCAN),
    row("scan.aggregate_merge_ns", "ns", Lower, SCAN),
    row("scan.querylog_peak", "count", Lower, "peak_rss_mb on scan_wild"),
    row("scan.report_json_ms", "ms", Lower, "after the scan; not in any end-to-end metric"),
    row("scan.pipeline_residual_us", "us", Lower, SCAN),
    // ede-trace
    row("trace.sink_overhead_pct", "%", Lower, "the cost of being observable; nothing unless a sink is attached"),
    // the benchmark itself
    row("bench.echo_floor_ops_s", "ops/s", Higher, "the box, not the program: ceiling for serve_* throughput"),
    row("bench.echo_floor_cpu_us_per_op", "us", Lower, "the box, not the program: base of server.socket_residual_us"),
    row("bench.own_cpu_us_per_op", "us", Lower, "cpu_us_per_op as this trace run's own untraced slices saw it: what the residual rows are taken from"),
    row("bench.span_overhead_ns", "ns", Lower, "the replay's own cost per span"),
    row("bench.slice_iqr_pct", "%", Lower, "steadiness of this run's slices"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json(run_seconds: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name()),
                json::quote(w.why())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str()),
                json::number(m.bound)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(r.name),
                json::quote(r.unit),
                json::quote(r.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// `run_seconds` in `BENCHMARK.json`: what `--print-manifest` writes.
pub const RUN_SECONDS: u32 = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for r in PER_LAYER {
            assert!(valid_name(r.name) && seen.insert(r.name), "{}", r.name);
            assert!(valid_unit(r.unit), "{}", r.unit);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json(RUN_SECONDS).len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(doc, json::parse(&benchmark_json(RUN_SECONDS)).unwrap());
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("workloads").and_then(Value::as_arr).unwrap().len(),
            4
        );
    }
}
