//! The in-process twin of the served path: the same `classify → answer →
//! encode` a worker applies to a datagram or frame, called directly. It
//! is the answer oracle's reference (served-over-UDP ≡ served-over-TCP ≡
//! in-process on the real query stream) and, with spans around each
//! call, the replay behind the `server.*`, `wire.*` and `resolver.*`
//! rows.

use crate::fixtures::{Inputs, Upstream};
use crate::loadgen::{response_hash, Observed};
use crate::procfs;
use crate::spans::SpanLog;
use ede_resolver::Resolver;
use ede_server::pipeline::{self, QueryDisposition};
use ede_server::ServerConfig;
use ede_wire::{Message, RrType};
use std::collections::HashSet;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Udp,
    Tcp,
}

/// What a worker would put on the wire for `query_wire`.
pub fn serve(resolver: &Resolver, query_wire: &[u8], transport: Transport) -> Vec<u8> {
    let QueryDisposition::Resolve(query) = pipeline::classify(query_wire) else {
        panic!("the benchmark only sends well-formed IN-class queries");
    };
    let reply = pipeline::answer(resolver, None, &query);
    match transport {
        Transport::Udp => {
            pipeline::encode_udp(&reply, &query, ServerConfig::default().udp_payload_max)
                .expect("a resolver answer encodes")
                .0
        }
        Transport::Tcp => reply.encode().expect("a resolver answer encodes"),
    }
}

/// The (rcode, EDE codes, answer count) of a response, after checking
/// that it decodes and echoes the query's ID and question.
fn verdict(response: &[u8], query_wire: &[u8]) -> Result<(u16, Vec<u16>, usize), String> {
    let resp = Message::decode(response).map_err(|e| format!("undecodable: {e}"))?;
    let query = Message::decode(query_wire).map_err(|e| format!("query undecodable: {e}"))?;
    if !resp.response || resp.id != query.id || resp.questions != query.questions {
        return Err("ID or question not echoed".into());
    }
    Ok((
        resp.rcode.to_u16(),
        resp.ede_codes().iter().map(|c| c.to_u16()).collect(),
        resp.answers.len(),
    ))
}

#[derive(Debug, Default, Clone)]
pub struct OracleReport {
    /// Ops whose served response was compared with the replay's.
    pub compared: u64,
    /// Ops where the two differ (or the replay's own answer is not a
    /// well-formed response).
    pub mismatched: u64,
    /// First few mismatches, for the log.
    pub examples: Vec<String>,
}

/// What one in-process pass over the stream produced.
pub struct PipelineReplay {
    /// [`response_hash`] of the response to each replayed op.
    pub hashes: Vec<u64>,
    /// Ops whose in-process response does not decode or does not echo
    /// the query's ID and question (each distinct response is checked
    /// once).
    pub malformed: Vec<usize>,
}

/// Spans recorded per op by [`pipeline_pass`]: the enclosing `op` and
/// five calls.
pub const PIPELINE_SPANS_PER_OP: usize = 6;

/// Replay the first `ops` ops of the stream through the pipeline, the
/// way a worker serves them, with a span around each call into a layer
/// (a disabled `log` records nothing).
///
/// `wire.decode_query` and, on UDP, `wire.encode_response` repeat work
/// that `classify` and `encode_udp` do inside: they give the codec its
/// own rows. The `op` span's self time is what the loop itself costs.
pub fn pipeline_pass(
    upstream: &Upstream,
    inputs: &Inputs,
    ops: usize,
    transport: Transport,
    log: &mut SpanLog,
) -> PipelineReplay {
    let payload_max = ServerConfig::default().udp_payload_max;
    let mut replay = PipelineReplay {
        hashes: Vec::with_capacity(ops),
        malformed: Vec::new(),
    };
    let mut verified: HashSet<u64> = HashSet::new();
    for (op, &q) in inputs.stream[..ops].iter().enumerate() {
        let wire = &inputs.queries.wires[q as usize];
        let id = op as u32;
        log.enter("op", id);
        let decoded = log.record("wire.decode_query", id, || Message::decode(wire));
        let disposition = log.record("server.classify", id, || pipeline::classify(wire));
        let QueryDisposition::Resolve(query) = disposition else {
            panic!("the benchmark only sends well-formed IN-class queries");
        };
        let reply = log.record("server.answer", id, || {
            pipeline::answer(&upstream.resolver, None, &query)
        });
        let datagram = log.record("server.encode_udp", id, || {
            pipeline::encode_udp(&reply, &query, payload_max)
        });
        let plain = log.record("wire.encode_response", id, || reply.encode());
        log.exit();
        let _ = std::hint::black_box(decoded);

        let response = match transport {
            Transport::Udp => datagram.expect("a resolver answer encodes").0,
            Transport::Tcp => plain.expect("a resolver answer encodes"),
        };
        let h = response_hash(&response);
        if verified.insert(h) && verdict(&response, wire).is_err() {
            replay.malformed.push(op);
        }
        replay.hashes.push(h);
    }
    replay
}

/// Compare what the served side recorded with the replay of a fixture
/// that took the same steps. Equality is of the whole response after the
/// ID, which implies equal (rcode, EDE codes, answer count).
pub fn compare(observed: &Observed, replay: &PipelineReplay, inputs: &Inputs) -> OracleReport {
    let mut report = OracleReport::default();
    for (op, (&seen, &expected)) in observed.hashes().iter().zip(&replay.hashes).enumerate() {
        if seen == 0 {
            continue; // never answered: already counted as unanswered
        }
        report.compared += 1;
        let why = if seen != expected {
            "served bytes differ from the replay's"
        } else if replay.malformed.contains(&op) {
            "not a well-formed response to the query"
        } else {
            continue;
        };
        report.mismatched += 1;
        if report.examples.len() < 5 {
            let name = &inputs.queries.names[inputs.stream[op] as usize];
            report.examples.push(format!("op {op} ({name}): {why}"));
        }
    }
    report
}

/// Bring `upstream` to the state a served fixture has after its
/// set-up's first touch of every name, in order.
pub fn prewarm(upstream: &Upstream, inputs: &Inputs, transport: Transport) {
    for wire in &inputs.queries.wires {
        serve(&upstream.resolver, wire, transport);
    }
}

/// Spans recorded per op by [`resolver_pass`].
pub const RESOLVER_SPANS_PER_OP: usize = 2;

/// What a pass over `Resolver::resolve` saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct ResolverReplay {
    pub hits: u64,
    pub misses: u64,
    /// Upstream queries the misses sent.
    pub upstream_queries: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Replay the first `ops` ops through `Resolver::resolve` and, when
/// `render` is set, `Resolution::to_message`. A resolve that sent
/// upstream queries is recorded as `resolver.resolve_miss`, one that
/// sent none as `resolver.resolve_hit`.
pub fn resolver_pass(
    upstream: &Upstream,
    inputs: &Inputs,
    ops: usize,
    render: bool,
    log: &mut SpanLog,
) -> ResolverReplay {
    let queries: Vec<Message> = if render {
        inputs
            .queries
            .names
            .iter()
            .map(|n| Message::query(0, n.clone(), RrType::A))
            .collect()
    } else {
        Vec::new()
    };
    let mut replay = ResolverReplay::default();
    let sent_before = upstream.queries();
    let cpu_before = procfs::cpu_seconds();
    let started = Instant::now();
    for (op, &q) in inputs.stream[..ops].iter().enumerate() {
        let id = op as u32;
        let name = &inputs.queries.names[q as usize];
        let before = upstream.queries();
        let resolution = log.record("resolver.resolve_hit", id, || {
            upstream.resolver.resolve(name, RrType::A)
        });
        if upstream.queries() == before {
            replay.hits += 1;
        } else {
            replay.misses += 1;
            log.rename_last("resolver.resolve_miss");
        }
        if render {
            let query = &queries[q as usize];
            let message = log.record("resolver.to_message", id, || resolution.to_message(query));
            std::hint::black_box(message);
        }
    }
    replay.wall_s = started.elapsed().as_secs_f64();
    replay.cpu_s = procfs::cpu_seconds() - cpu_before;
    replay.upstream_queries = upstream.queries() - sent_before;
    replay
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{spawn_server, testbed_inputs};
    use crate::loadgen::{tcp_slice, udp_slice};

    fn replay_of(reference: &Upstream, inputs: &Inputs, transport: Transport) -> PipelineReplay {
        let ops = inputs.stream.len();
        pipeline_pass(reference, inputs, ops, transport, &mut SpanLog::disabled())
    }

    /// The oracle end to end on a small stream: served over UDP and over
    /// TCP against a reference that took the same steps.
    #[test]
    fn served_udp_and_tcp_match_the_in_process_replay() {
        let (tb, served) = Upstream::testbed();
        let inputs = testbed_inputs(&tb, 5, 3_000);
        let handle = spawn_server(served.resolver);
        let mut observed = Observed::new(inputs.stream.len());
        let udp = udp_slice(
            handle.udp_addr(),
            &inputs.queries,
            &inputs.stream,
            &mut observed,
        );
        assert_eq!((udp.completed, udp.failed()), (3_000, 0));

        let (_tb2, reference) = Upstream::testbed();
        let replay = replay_of(&reference, &inputs, Transport::Udp);
        assert!(replay.malformed.is_empty());
        let report = compare(&observed, &replay, &inputs);
        assert_eq!(report.compared, 3_000);
        assert_eq!(report.mismatched, 0, "{:?}", report.examples);

        // Second pass over TCP on the now-warm server; the reference is
        // warm from the first replay in the same way.
        let mut observed_tcp = Observed::new(inputs.stream.len());
        let tcp = tcp_slice(
            handle.tcp_addr(),
            &inputs.queries,
            &inputs.stream,
            &mut observed_tcp,
        );
        assert_eq!((tcp.completed, tcp.failed()), (3_000, 0));
        let replay = replay_of(&reference, &inputs, Transport::Tcp);
        let report = compare(&observed_tcp, &replay, &inputs);
        assert_eq!(report.mismatched, 0, "{:?}", report.examples);
        handle.shutdown().unwrap();
    }

    #[test]
    fn the_oracle_notices_a_different_answer() {
        let (tb, reference) = Upstream::testbed();
        let inputs = testbed_inputs(&tb, 5, 200);
        // "Served" answers that are the right answers to the next name.
        let (_tb2, other) = Upstream::testbed();
        let mut observed = Observed::new(200);
        for (op, &q) in inputs.stream.iter().enumerate() {
            let shifted = (q as usize + 1) % inputs.queries.wires.len();
            let wrong = serve(
                &other.resolver,
                &inputs.queries.wires[shifted],
                Transport::Udp,
            );
            assert!(observed.check(op, &wrong));
        }
        let report = compare(
            &observed,
            &replay_of(&reference, &inputs, Transport::Udp),
            &inputs,
        );
        assert_eq!(report.compared, 200);
        assert_eq!(report.mismatched, 200, "{:?}", report.examples);
    }

    #[test]
    fn verdict_reads_the_tuple_and_rejects_a_foreign_answer() {
        let (tb, upstream) = Upstream::testbed();
        let inputs = testbed_inputs(&tb, 1, 1);
        let broken = tb.spec("rrsig-exp-all").map(|s| tb.query_name(s)).unwrap();
        let i = inputs
            .queries
            .names
            .iter()
            .position(|n| *n == broken)
            .unwrap();
        let wire = &inputs.queries.wires[i];
        let response = serve(&upstream.resolver, wire, Transport::Udp);
        let (rcode, ede, answers) = verdict(&response, wire).unwrap();
        assert_eq!((rcode, answers), (2, 0));
        assert!(ede.contains(&7), "{ede:?}");
        let other = &inputs.queries.wires[(i + 1) % 63];
        assert!(verdict(&response, other).is_err());
        assert!(verdict(&response[..20], wire).is_err());
    }

    #[test]
    fn traced_passes_record_the_expected_spans() {
        let (tb, upstream) = Upstream::testbed();
        let inputs = testbed_inputs(&tb, 1, 500);
        let mut log = SpanLog::with_capacity(500 * PIPELINE_SPANS_PER_OP);
        pipeline_pass(&upstream, &inputs, 500, Transport::Udp, &mut log);
        assert_eq!(log.spans().len(), 500 * PIPELINE_SPANS_PER_OP);
        for name in [
            "op",
            "wire.decode_query",
            "server.classify",
            "server.answer",
            "server.encode_udp",
            "wire.encode_response",
        ] {
            assert!(log.stats(name, |_| true).is_some(), "{name}");
        }

        let (_tb2, fresh) = Upstream::testbed();
        let mut log = SpanLog::with_capacity(500 * RESOLVER_SPANS_PER_OP);
        let replay = resolver_pass(&fresh, &inputs, 500, true, &mut log);
        assert!(replay.upstream_queries > 0);
        assert_eq!(replay.hits + replay.misses, 500);
        assert!(
            (1..=63).contains(&replay.misses),
            "{} misses over 63 names",
            replay.misses
        );
        let named = |n: &str| log.spans().iter().filter(|s| s.name == n).count() as u64;
        assert_eq!(named("resolver.resolve_miss"), replay.misses);
        assert_eq!(named("resolver.resolve_hit"), replay.hits);
        assert_eq!(named("resolver.to_message"), 500);
    }
}
