//! The metrics registry: atomic counters and latency histograms in two
//! sections, one registry.
//!
//! * The **resolution section** is fed by the trace event stream on the
//!   virtual clock. [`Metrics`] implements [`TraceSink`], so the same
//!   instrumentation points that produce timelines also drive the
//!   counters — attach it to a network (or fan out with
//!   [`crate::MultiSink`]) and every `Referral` bumps `referrals`, every
//!   `ResolutionFinished` feeds the outcome counters, and so on.
//! * The **server section** is fed by direct calls from a serving front
//!   end (the `ede-server` crate) on the wall clock: every transport
//!   decision it makes, and its request-handling latency.
//!
//! A count another layer already keeps is not kept here a second time:
//! the transport's queries, deliveries, failures, stream fallbacks and
//! faults are `ede_netsim::TrafficSnapshot`'s, the answer cache's
//! probes and removals `ede_resolver::CacheStatsSnapshot`'s. Their
//! events still flow (timelines and JSONL need them); this registry
//! ignores them, except that `ResponseReceived` feeds `query_latency`.
//! Counters and histogram buckets are lock-free atomics, striped per
//! writing thread ([`Striped`]) and summed at snapshot; only the
//! per-vendor EDE map takes a short mutex.

use crate::event::TraceEvent;
use crate::histogram::{Histogram, LiveHistogram, SERVER_BOUNDS_US, SIM_BOUNDS_US};
use crate::sink::TraceSink;
use crate::stripe::Striped;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// The live registry. Cheap to share (`Arc<Metrics>`); attach as a
/// [`TraceSink`], call the server section's recording methods, and read
/// with [`Metrics::snapshot`].
///
/// Both sections are [`Striped`]: a count goes to the writing thread's
/// stripe, so a scan's workers, each counting every resolution, never
/// write one cache line between them. A snapshot sums the stripes.
#[derive(Debug, Default)]
pub struct Metrics {
    resolution: Striped<ResolutionCounts>,
    /// (vendor, INFO-CODE) → emission count. EDE emission is rare
    /// relative to queries (error domains only), so a mutex is fine
    /// here.
    ede_by_vendor: Mutex<BTreeMap<(String, u16), u64>>,
    server: Striped<ServerCounts>,
}

/// One stripe of the resolution section.
#[derive(Debug, Default)]
struct ResolutionCounts {
    retries: AtomicU64,
    referrals: AtomicU64,
    validation_steps: AtomicU64,
    validation_failures: AtomicU64,
    findings: AtomicU64,
    authority_answers: AtomicU64,
    resolutions: AtomicU64,
    resolutions_noerror: AtomicU64,
    resolutions_nxdomain: AtomicU64,
    resolutions_servfail: AtomicU64,
    resolutions_other: AtomicU64,
    ede_entries: AtomicU64,
    query_latency: LiveHistogram,
    resolution_duration: LiveHistogram,
}

/// One stripe of the server section.
#[derive(Debug, Default)]
struct ServerCounts {
    udp_queries: AtomicU64,
    udp_responses: AtomicU64,
    udp_truncated: AtomicU64,
    udp_send_errors: AtomicU64,
    tcp_queries: AtomicU64,
    tcp_responses: AtomicU64,
    tcp_writes: AtomicU64,
    tcp_conns_accepted: AtomicU64,
    tcp_conns_refused: AtomicU64,
    tcp_read_timeouts: AtomicU64,
    rejected_formerr: AtomicU64,
    rejected_notimp: AtomicU64,
    rejected_refused: AtomicU64,
    rejected_badvers: AtomicU64,
    dropped: AtomicU64,
    encode_errors: AtomicU64,
    udp_workers_died: AtomicU64,
    tcp_acceptors_died: AtomicU64,
    bytes_received: AtomicU64,
    bytes_sent: AtomicU64,
    handle_latency: LiveHistogram,
}

/// Bump one of the calling thread's counters by one.
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Relaxed);
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// One query datagram arrived over UDP (`bytes` on the wire).
    pub fn udp_query(&self, bytes: usize) {
        let s = self.server.local();
        bump(&s.udp_queries);
        s.bytes_received.fetch_add(bytes as u64, Relaxed);
    }

    /// One response datagram left over UDP; `truncated` when it carried
    /// TC=1 because the full answer exceeded the negotiated payload.
    pub fn udp_response(&self, bytes: usize, truncated: bool) {
        let s = self.server.local();
        bump(&s.udp_responses);
        s.bytes_sent.fetch_add(bytes as u64, Relaxed);
        if truncated {
            bump(&s.udp_truncated);
        }
    }

    /// A response datagram was encoded but the socket refused to send it.
    pub fn udp_send_error(&self) {
        self.server.bump(|c| &c.udp_send_errors);
    }

    /// One framed query arrived over a stream connection.
    pub fn tcp_query(&self, bytes: usize) {
        let s = self.server.local();
        bump(&s.tcp_queries);
        s.bytes_received.fetch_add(bytes as u64, Relaxed);
    }

    /// One framed response left over a stream connection.
    pub fn tcp_response(&self, bytes: usize) {
        let s = self.server.local();
        bump(&s.tcp_responses);
        s.bytes_sent.fetch_add(bytes as u64, Relaxed);
    }

    /// One write carried a batch of framed responses to a stream
    /// connection: `tcp_responses / tcp_writes` is the batch size.
    pub fn tcp_write(&self) {
        self.server.bump(|c| &c.tcp_writes);
    }

    /// A stream connection was accepted.
    pub fn tcp_conn_accepted(&self) {
        self.server.bump(|c| &c.tcp_conns_accepted);
    }

    /// A stream connection was closed unserved: turned away at the
    /// connection cap, or no handler thread could be started for it.
    pub fn tcp_conn_refused(&self) {
        self.server.bump(|c| &c.tcp_conns_refused);
    }

    /// A stream connection was closed because its peer was too slow, in
    /// either direction: no complete request inside the read deadline, or
    /// a write of answers blocked for as long.
    pub fn tcp_read_timeout(&self) {
        self.server.bump(|c| &c.tcp_read_timeouts);
    }

    /// A malformed query was answered with FORMERR.
    pub fn rejected_formerr(&self) {
        self.server.bump(|c| &c.rejected_formerr);
    }

    /// A non-QUERY opcode was answered with NOTIMP.
    pub fn rejected_notimp(&self) {
        self.server.bump(|c| &c.rejected_notimp);
    }

    /// A query outside the served class was answered with REFUSED.
    pub fn rejected_refused(&self) {
        self.server.bump(|c| &c.rejected_refused);
    }

    /// A query with an EDNS version other than 0 was answered with
    /// BADVERS.
    pub fn rejected_badvers(&self) {
        self.server.bump(|c| &c.rejected_badvers);
    }

    /// A datagram was dropped without any reply (shorter than a DNS
    /// header, or a response where a query belongs).
    pub fn dropped(&self) {
        self.server.bump(|c| &c.dropped);
    }

    /// A reply failed to encode (never sent).
    pub fn encode_error(&self) {
        self.server.bump(|c| &c.encode_errors);
    }

    /// A UDP shard worker left its loop on a socket error.
    pub fn udp_worker_died(&self) {
        self.server.bump(|c| &c.udp_workers_died);
    }

    /// The TCP acceptor left its loop on a socket error.
    pub fn tcp_acceptor_died(&self) {
        self.server.bump(|c| &c.tcp_acceptors_died);
    }

    /// Observe one request's in-process handling time, µs (receive →
    /// response handed to the socket).
    pub fn observe_handle_us(&self, us: u64) {
        self.server
            .local()
            .handle_latency
            .observe(SERVER_BOUNDS_US, us);
    }

    /// A point-in-time copy of every counter and histogram: each count
    /// summed over the stripes, each histogram's `max` the largest of
    /// theirs.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let r = &self.resolution;
        let s = &self.server;
        MetricsSnapshot {
            retries: r.sum(|c| &c.retries),
            referrals: r.sum(|c| &c.referrals),
            validation_steps: r.sum(|c| &c.validation_steps),
            validation_failures: r.sum(|c| &c.validation_failures),
            findings: r.sum(|c| &c.findings),
            authority_answers: r.sum(|c| &c.authority_answers),
            resolutions: r.sum(|c| &c.resolutions),
            resolutions_noerror: r.sum(|c| &c.resolutions_noerror),
            resolutions_nxdomain: r.sum(|c| &c.resolutions_nxdomain),
            resolutions_servfail: r.sum(|c| &c.resolutions_servfail),
            resolutions_other: r.sum(|c| &c.resolutions_other),
            ede_entries: r.sum(|c| &c.ede_entries),
            ede_by_vendor: self.ede_by_vendor.lock().expect("no poisoning").clone(),
            query_latency: LiveHistogram::merged(SIM_BOUNDS_US, r.iter().map(|c| &c.query_latency)),
            resolution_duration: LiveHistogram::merged(
                SIM_BOUNDS_US,
                r.iter().map(|c| &c.resolution_duration),
            ),
            udp_queries: s.sum(|c| &c.udp_queries),
            udp_responses: s.sum(|c| &c.udp_responses),
            udp_truncated: s.sum(|c| &c.udp_truncated),
            udp_send_errors: s.sum(|c| &c.udp_send_errors),
            tcp_queries: s.sum(|c| &c.tcp_queries),
            tcp_responses: s.sum(|c| &c.tcp_responses),
            tcp_writes: s.sum(|c| &c.tcp_writes),
            tcp_conns_accepted: s.sum(|c| &c.tcp_conns_accepted),
            tcp_conns_refused: s.sum(|c| &c.tcp_conns_refused),
            tcp_read_timeouts: s.sum(|c| &c.tcp_read_timeouts),
            rejected_formerr: s.sum(|c| &c.rejected_formerr),
            rejected_notimp: s.sum(|c| &c.rejected_notimp),
            rejected_refused: s.sum(|c| &c.rejected_refused),
            rejected_badvers: s.sum(|c| &c.rejected_badvers),
            dropped: s.sum(|c| &c.dropped),
            encode_errors: s.sum(|c| &c.encode_errors),
            udp_workers_died: s.sum(|c| &c.udp_workers_died),
            tcp_acceptors_died: s.sum(|c| &c.tcp_acceptors_died),
            bytes_received: s.sum(|c| &c.bytes_received),
            bytes_sent: s.sum(|c| &c.bytes_sent),
            handle_latency: LiveHistogram::merged(
                SERVER_BOUNDS_US,
                s.iter().map(|c| &c.handle_latency),
            ),
        }
    }
}

impl TraceSink for Metrics {
    // Counters never read qname/target/finding strings — only event
    // kinds and numeric fields — so emitters may skip building them.
    fn wants_query_detail(&self) -> bool {
        false
    }

    fn record(&self, _at_ms: u64, event: &TraceEvent) {
        let c = self.resolution.local();
        match event {
            // Counted where they happen: by the transport and the cache.
            TraceEvent::ResolutionStarted { .. }
            | TraceEvent::QuerySent { .. }
            | TraceEvent::Timeout { .. }
            | TraceEvent::TcFallback { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::CacheProbe { .. }
            | TraceEvent::CacheEvicted { .. } => {}
            TraceEvent::ResponseReceived { latency_ms, .. } => {
                c.query_latency.observe(SIM_BOUNDS_US, latency_ms * 1_000);
            }
            TraceEvent::Retry { .. } => bump(&c.retries),
            TraceEvent::Referral { .. } => bump(&c.referrals),
            TraceEvent::ValidationStep { ok, .. } => {
                bump(&c.validation_steps);
                if !ok {
                    bump(&c.validation_failures);
                }
            }
            TraceEvent::FindingRecorded { .. } => bump(&c.findings),
            TraceEvent::EdeEmitted { vendor, code, .. } => {
                bump(&c.ede_entries);
                *self
                    .ede_by_vendor
                    .lock()
                    .expect("no poisoning")
                    .entry((vendor.clone(), *code))
                    .or_insert(0) += 1;
            }
            TraceEvent::AuthorityAnswer { .. } => bump(&c.authority_answers),
            TraceEvent::ResolutionFinished {
                rcode, duration_ms, ..
            } => {
                bump(&c.resolutions);
                bump(match rcode {
                    0 => &c.resolutions_noerror,
                    3 => &c.resolutions_nxdomain,
                    2 => &c.resolutions_servfail,
                    _ => &c.resolutions_other,
                });
                c.resolution_duration
                    .observe(SIM_BOUNDS_US, duration_ms * 1_000);
            }
        }
    }
}

/// A frozen copy of the registry, safe to move across threads and
/// render offline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Fallbacks to another server of the same zone.
    pub retries: u64,
    /// Zone cuts crossed.
    pub referrals: u64,
    /// DNSSEC validation steps run.
    pub validation_steps: u64,
    /// Validation steps that recorded at least one finding.
    pub validation_failures: u64,
    /// Structured findings recorded.
    pub findings: u64,
    /// Authoritative answers traced (only when servers carry tracers).
    pub authority_answers: u64,
    /// Completed client resolutions.
    pub resolutions: u64,
    /// ... of which NOERROR.
    pub resolutions_noerror: u64,
    /// ... of which NXDOMAIN.
    pub resolutions_nxdomain: u64,
    /// ... of which SERVFAIL.
    pub resolutions_servfail: u64,
    /// ... with any other RCODE.
    pub resolutions_other: u64,
    /// Total EDE entries attached.
    pub ede_entries: u64,
    /// (vendor, INFO-CODE) → emission count.
    pub ede_by_vendor: BTreeMap<(String, u16), u64>,
    /// Upstream query latency distribution (virtual clock: whole
    /// milliseconds, held in µs like every [`Histogram`]).
    pub query_latency: Histogram,
    /// Whole-resolution duration distribution, likewise.
    pub resolution_duration: Histogram,
    /// Server section: query datagrams received over UDP.
    pub udp_queries: u64,
    /// Response datagrams sent over UDP.
    pub udp_responses: u64,
    /// ... of which carried TC=1 (client must retry over a stream).
    pub udp_truncated: u64,
    /// Response datagrams encoded that the socket refused to send.
    pub udp_send_errors: u64,
    /// Framed queries received over stream connections.
    pub tcp_queries: u64,
    /// Framed responses sent over stream connections.
    pub tcp_responses: u64,
    /// Writes that carried them: one per batch of pipelined answers.
    pub tcp_writes: u64,
    /// Stream connections accepted.
    pub tcp_conns_accepted: u64,
    /// Stream connections closed unserved: at the connection cap, or
    /// because no handler thread could be started.
    pub tcp_conns_refused: u64,
    /// Stream connections closed because the peer was too slow, either
    /// direction: idle past the read deadline, or not reading answers.
    pub tcp_read_timeouts: u64,
    /// Malformed queries answered with FORMERR.
    pub rejected_formerr: u64,
    /// Non-QUERY opcodes answered with NOTIMP.
    pub rejected_notimp: u64,
    /// Out-of-class queries answered with REFUSED.
    pub rejected_refused: u64,
    /// Queries with an unimplemented EDNS version answered with BADVERS.
    pub rejected_badvers: u64,
    /// Datagrams dropped without any reply.
    pub dropped: u64,
    /// Replies that failed to encode.
    pub encode_errors: u64,
    /// UDP shard workers that left their loop on a socket error.
    pub udp_workers_died: u64,
    /// TCP acceptors that left their loop on a socket error.
    pub tcp_acceptors_died: u64,
    /// Total payload bytes received.
    pub bytes_received: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// In-process request-handling latency, µs.
    pub handle_latency: Histogram,
}

impl MetricsSnapshot {
    /// Queries served, both transports.
    pub fn queries(&self) -> u64 {
        self.udp_queries + self.tcp_queries
    }

    /// Responses served, both transports.
    pub fn responses(&self) -> u64 {
        self.udp_responses + self.tcp_responses
    }

    /// Render as an operator-facing summary: a block per section that
    /// has counted something. A registry that has counted nothing renders
    /// the server section, zeroed — an idle server's, which is where an
    /// empty registry is read.
    pub fn render(&self) -> String {
        // Every resolution-section event happens inside a resolution or
        // an exchange; every server-section one after a query, a
        // connection or a worker's end.
        let resolved = self.resolutions + self.query_latency.total + self.authority_answers > 0;
        let served = self.queries()
            + self.tcp_conns_accepted
            + self.tcp_conns_refused
            + self.udp_workers_died
            + self.tcp_acceptors_died
            > 0;
        let mut out = String::new();
        if resolved {
            self.render_resolution(&mut out);
        }
        if served || !resolved {
            self.render_server(&mut out);
        }
        out
    }

    fn render_resolution(&self, out: &mut String) {
        out.push_str("metrics summary\n");
        out.push_str(&format!(
            "  iteration : {} referrals, {} retries, {} validation steps ({} failed), {} findings\n",
            self.referrals,
            self.retries,
            self.validation_steps,
            self.validation_failures,
            self.findings
        ));
        out.push_str(&format!(
            "  outcomes  : {} resolutions (NOERROR {}, NXDOMAIN {}, SERVFAIL {}, other {})\n",
            self.resolutions,
            self.resolutions_noerror,
            self.resolutions_nxdomain,
            self.resolutions_servfail,
            self.resolutions_other
        ));
        out.push_str(&format!(
            "  latency   : query mean {:.1} ms p99 {} ms; resolution mean {:.1} ms max {} ms\n",
            self.query_latency.mean_ms(),
            self.query_latency.quantile_ms(0.99),
            self.resolution_duration.mean_ms(),
            self.resolution_duration.max / 1_000
        ));
        if self.ede_entries > 0 {
            out.push_str(&format!(
                "  ede       : {} entries emitted\n",
                self.ede_entries
            ));
            let mut per_vendor: BTreeMap<&str, Vec<(u16, u64)>> = BTreeMap::new();
            for ((vendor, code), count) in &self.ede_by_vendor {
                per_vendor.entry(vendor).or_default().push((*code, *count));
            }
            for (vendor, codes) in per_vendor {
                let detail: Vec<String> = codes
                    .iter()
                    .map(|(code, count)| format!("{code}\u{00d7}{count}"))
                    .collect();
                out.push_str(&format!("    {vendor}: {}\n", detail.join(", ")));
            }
        }
    }

    fn render_server(&self, out: &mut String) {
        out.push_str("server metrics\n");
        out.push_str(&format!(
            "  udp       : {} queries, {} responses ({} truncated), {} send errors\n",
            self.udp_queries, self.udp_responses, self.udp_truncated, self.udp_send_errors
        ));
        out.push_str(&format!(
            "  tcp       : {} queries, {} responses in {} writes; {} conns accepted, {} refused, {} timeouts\n",
            self.tcp_queries,
            self.tcp_responses,
            self.tcp_writes,
            self.tcp_conns_accepted,
            self.tcp_conns_refused,
            self.tcp_read_timeouts
        ));
        out.push_str(&format!(
            "  rejected  : {} FORMERR, {} NOTIMP, {} REFUSED, {} BADVERS, {} dropped, {} encode errors\n",
            self.rejected_formerr,
            self.rejected_notimp,
            self.rejected_refused,
            self.rejected_badvers,
            self.dropped,
            self.encode_errors
        ));
        out.push_str(&format!(
            "  traffic   : {} bytes in, {} bytes out\n",
            self.bytes_received, self.bytes_sent
        ));
        out.push_str(&format!(
            "  latency   : mean {:.1} µs, p50 {} µs, p99 {} µs, max {} µs\n",
            self.handle_latency.mean_us(),
            self.handle_latency.quantile_us(0.50),
            self.handle_latency.quantile_us(0.99),
            self.handle_latency.max
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CacheOutcome;

    fn ip() -> std::net::IpAddr {
        "192.0.2.1".parse().unwrap()
    }

    /// The transport's and the cache's events are theirs to count.
    #[test]
    fn counts_kept_elsewhere_are_not_kept_here() {
        let m = Metrics::new();
        for event in [
            TraceEvent::QuerySent {
                dst: ip(),
                qname: "a".into(),
                qtype: 1,
                id: 1,
            },
            TraceEvent::Timeout {
                dst: ip(),
                qname: "a".into(),
                unroutable: true,
            },
            TraceEvent::CacheProbe {
                qname: "a".into(),
                qtype: 1,
                outcome: CacheOutcome::Hit,
            },
            TraceEvent::CacheEvicted {
                expired: 4,
                evicted: 2,
                occupancy: 9,
            },
        ] {
            m.record(0, &event);
        }
        assert_eq!(m.snapshot(), Metrics::new().snapshot());
    }

    #[test]
    fn counters_follow_events() {
        let m = Metrics::new();
        m.record(
            20,
            &TraceEvent::ResponseReceived {
                src: ip(),
                rcode: 0,
                answers: 1,
                latency_ms: 20,
            },
        );
        m.record(
            0,
            &TraceEvent::Retry {
                attempt: 1,
                next: ip(),
            },
        );
        m.record(
            0,
            &TraceEvent::ValidationStep {
                target: "DNSKEY com".into(),
                ok: false,
            },
        );
        m.record(
            0,
            &TraceEvent::EdeEmitted {
                vendor: "Cloudflare DNS".into(),
                code: 7,
                extra_text: String::new(),
            },
        );
        m.record(
            0,
            &TraceEvent::ResolutionFinished {
                rcode: 2,
                ede_count: 1,
                duration_ms: 40,
            },
        );

        let s = m.snapshot();
        assert_eq!(s.retries, 1);
        assert_eq!(s.validation_steps, 1);
        assert_eq!(s.validation_failures, 1);
        assert_eq!(s.ede_entries, 1);
        assert_eq!(s.ede_by_vendor[&("Cloudflare DNS".to_string(), 7)], 1);
        assert_eq!(s.resolutions_servfail, 1);
        assert_eq!(s.query_latency.total, 1);
        assert_eq!(s.resolution_duration.max, 40_000);
        let render = s.render();
        assert!(render.contains("0 referrals, 1 retries"), "{render}");
        assert!(render.contains("Cloudflare DNS: 7\u{00d7}1"), "{render}");
        assert!(!render.contains("server metrics"), "{render}");
    }

    #[test]
    fn server_counters_accumulate_and_render() {
        let m = Metrics::new();
        m.udp_query(40);
        m.udp_response(200, false);
        m.udp_query(40);
        m.udp_response(52, true);
        m.udp_query(40);
        m.udp_send_error();
        m.tcp_conn_accepted();
        m.tcp_query(40);
        m.tcp_response(420);
        m.tcp_write();
        m.tcp_conn_refused();
        m.tcp_read_timeout();
        m.rejected_formerr();
        m.rejected_notimp();
        m.rejected_refused();
        m.rejected_badvers();
        m.dropped();
        m.encode_error();
        m.observe_handle_us(30);
        m.observe_handle_us(400);
        m.observe_handle_us(1_000_000);

        let s = m.snapshot();
        assert_eq!(s.udp_queries, 3);
        assert_eq!(s.udp_responses, 2);
        assert_eq!(s.udp_truncated, 1);
        assert_eq!(s.udp_send_errors, 1);
        assert_eq!(s.tcp_queries, 1);
        assert_eq!(s.tcp_responses, 1);
        assert_eq!(s.tcp_writes, 1);
        assert_eq!(s.tcp_conns_accepted, 1);
        assert_eq!(s.tcp_conns_refused, 1);
        assert_eq!(s.tcp_read_timeouts, 1);
        assert_eq!(s.queries(), 4);
        assert_eq!(s.responses(), 3);
        assert_eq!(s.bytes_received, 160);
        assert_eq!(s.bytes_sent, 672);
        assert_eq!(s.handle_latency.total, 3);
        assert_eq!(s.handle_latency.max, 1_000_000);
        let render = s.render();
        assert!(
            render.contains("3 queries, 2 responses (1 truncated), 1 send errors"),
            "{render}"
        );
        assert!(
            render.contains("1 queries, 1 responses in 1 writes; 1 conns accepted"),
            "{render}"
        );
        assert!(
            render.contains("1 FORMERR, 1 NOTIMP, 1 REFUSED, 1 BADVERS, 1 dropped"),
            "{render}"
        );
        // A server's registry resolves nothing itself: one block.
        assert!(!render.contains("metrics summary"), "{render}");
        let empty = Metrics::new().snapshot().render();
        assert!(empty.starts_with("server metrics\n  udp       : 0 queries"));
    }

    #[test]
    fn handle_quantiles_follow_buckets() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.observe_handle_us(40);
        }
        m.observe_handle_us(9_000);
        let h = m.snapshot().handle_latency;
        assert_eq!(h.quantile_us(0.50), 50);
        assert_eq!(h.quantile_us(0.99), 50);
        assert_eq!(h.quantile_us(1.0), 10_000);
        assert!(h.mean_us() > 40.0);
    }
}
