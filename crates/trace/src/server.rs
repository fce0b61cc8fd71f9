//! Serving-front-end metrics: the wall-clock side of the registry.
//!
//! The resolution [`Metrics`](crate::Metrics) registry counts what the
//! *simulated* stack does, stamped on the virtual clock. A serving
//! front end (the `ede-server` crate) lives on the other side of that
//! boundary: real sockets, real threads, real time. [`ServerMetrics`]
//! is its registry — lock-free atomic counters for every transport
//! decision the server makes (queries per transport, truncations,
//! malformed-query dispositions, connection caps) plus a
//! microsecond-resolution latency histogram for in-process
//! request-handling time.
//!
//! Snapshots ([`ServerMetricsSnapshot`]) render to an operator summary.

use crate::histogram::{Histogram, LiveHistogram, SERVER_BOUNDS_US};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The live serving registry. Share as `Arc<ServerMetrics>` between
/// every worker/acceptor/connection thread; read with
/// [`snapshot`](ServerMetrics::snapshot).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    udp_queries: AtomicU64,
    udp_responses: AtomicU64,
    udp_truncated: AtomicU64,
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

impl ServerMetrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    /// One query datagram arrived over UDP (`bytes` on the wire).
    pub fn udp_query(&self, bytes: usize) {
        self.udp_queries.fetch_add(1, Relaxed);
        self.bytes_received.fetch_add(bytes as u64, Relaxed);
    }

    /// One response datagram left over UDP; `truncated` when it carried
    /// TC=1 because the full answer exceeded the negotiated payload.
    pub fn udp_response(&self, bytes: usize, truncated: bool) {
        self.udp_responses.fetch_add(1, Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Relaxed);
        if truncated {
            self.udp_truncated.fetch_add(1, Relaxed);
        }
    }

    /// One framed query arrived over a stream connection.
    pub fn tcp_query(&self, bytes: usize) {
        self.tcp_queries.fetch_add(1, Relaxed);
        self.bytes_received.fetch_add(bytes as u64, Relaxed);
    }

    /// One framed response left over a stream connection.
    pub fn tcp_response(&self, bytes: usize) {
        self.tcp_responses.fetch_add(1, Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Relaxed);
    }

    /// One write carried a batch of framed responses to a stream
    /// connection: `tcp_responses / tcp_writes` is the batch size.
    pub fn tcp_write(&self) {
        self.tcp_writes.fetch_add(1, Relaxed);
    }

    /// A stream connection was accepted.
    pub fn tcp_conn_accepted(&self) {
        self.tcp_conns_accepted.fetch_add(1, Relaxed);
    }

    /// A stream connection was closed unserved: turned away at the
    /// connection cap, or no handler thread could be started for it.
    pub fn tcp_conn_refused(&self) {
        self.tcp_conns_refused.fetch_add(1, Relaxed);
    }

    /// A stream connection was closed because its peer was too slow, in
    /// either direction: no complete request inside the read deadline, or
    /// a write of answers blocked for as long.
    pub fn tcp_read_timeout(&self) {
        self.tcp_read_timeouts.fetch_add(1, Relaxed);
    }

    /// A malformed query was answered with FORMERR.
    pub fn rejected_formerr(&self) {
        self.rejected_formerr.fetch_add(1, Relaxed);
    }

    /// A non-QUERY opcode was answered with NOTIMP.
    pub fn rejected_notimp(&self) {
        self.rejected_notimp.fetch_add(1, Relaxed);
    }

    /// A query outside the served class was answered with REFUSED.
    pub fn rejected_refused(&self) {
        self.rejected_refused.fetch_add(1, Relaxed);
    }

    /// A query with an EDNS version other than 0 was answered with
    /// BADVERS.
    pub fn rejected_badvers(&self) {
        self.rejected_badvers.fetch_add(1, Relaxed);
    }

    /// A datagram was dropped without any reply (shorter than a DNS
    /// header, or a response where a query belongs).
    pub fn dropped(&self) {
        self.dropped.fetch_add(1, Relaxed);
    }

    /// A reply failed to encode (never sent).
    pub fn encode_error(&self) {
        self.encode_errors.fetch_add(1, Relaxed);
    }

    /// A UDP shard worker left its loop on a socket error.
    pub fn udp_worker_died(&self) {
        self.udp_workers_died.fetch_add(1, Relaxed);
    }

    /// The TCP acceptor left its loop on a socket error.
    pub fn tcp_acceptor_died(&self) {
        self.tcp_acceptors_died.fetch_add(1, Relaxed);
    }

    /// Observe one request's in-process handling time, µs (receive →
    /// response handed to the socket).
    pub fn observe_handle_us(&self, us: u64) {
        self.handle_latency.observe(SERVER_BOUNDS_US, us);
    }

    /// A point-in-time copy of every counter and the histogram.
    pub fn snapshot(&self) -> ServerMetricsSnapshot {
        ServerMetricsSnapshot {
            udp_queries: self.udp_queries.load(Relaxed),
            udp_responses: self.udp_responses.load(Relaxed),
            udp_truncated: self.udp_truncated.load(Relaxed),
            tcp_queries: self.tcp_queries.load(Relaxed),
            tcp_responses: self.tcp_responses.load(Relaxed),
            tcp_writes: self.tcp_writes.load(Relaxed),
            tcp_conns_accepted: self.tcp_conns_accepted.load(Relaxed),
            tcp_conns_refused: self.tcp_conns_refused.load(Relaxed),
            tcp_read_timeouts: self.tcp_read_timeouts.load(Relaxed),
            rejected_formerr: self.rejected_formerr.load(Relaxed),
            rejected_notimp: self.rejected_notimp.load(Relaxed),
            rejected_refused: self.rejected_refused.load(Relaxed),
            rejected_badvers: self.rejected_badvers.load(Relaxed),
            dropped: self.dropped.load(Relaxed),
            encode_errors: self.encode_errors.load(Relaxed),
            udp_workers_died: self.udp_workers_died.load(Relaxed),
            tcp_acceptors_died: self.tcp_acceptors_died.load(Relaxed),
            bytes_received: self.bytes_received.load(Relaxed),
            bytes_sent: self.bytes_sent.load(Relaxed),
            handle_latency: self.handle_latency.snapshot(SERVER_BOUNDS_US),
        }
    }
}

/// A frozen copy of [`ServerMetrics`], safe to move across threads and
/// render offline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerMetricsSnapshot {
    /// Query datagrams received over UDP.
    pub udp_queries: u64,
    /// Response datagrams sent over UDP.
    pub udp_responses: u64,
    /// ... of which carried TC=1 (client must retry over a stream).
    pub udp_truncated: u64,
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

impl ServerMetricsSnapshot {
    /// Total queries across both transports.
    pub fn queries(&self) -> u64 {
        self.udp_queries + self.tcp_queries
    }

    /// Total responses across both transports.
    pub fn responses(&self) -> u64 {
        self.udp_responses + self.tcp_responses
    }

    /// Render as an operator-facing summary block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("server metrics\n");
        out.push_str(&format!(
            "  udp       : {} queries, {} responses ({} truncated)\n",
            self.udp_queries, self.udp_responses, self.udp_truncated
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
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = ServerMetrics::new();
        m.udp_query(40);
        m.udp_response(200, false);
        m.udp_query(40);
        m.udp_response(52, true);
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
        assert_eq!(s.udp_queries, 2);
        assert_eq!(s.udp_responses, 2);
        assert_eq!(s.udp_truncated, 1);
        assert_eq!(s.tcp_queries, 1);
        assert_eq!(s.tcp_responses, 1);
        assert_eq!(s.tcp_writes, 1);
        assert_eq!(s.tcp_conns_accepted, 1);
        assert_eq!(s.tcp_conns_refused, 1);
        assert_eq!(s.tcp_read_timeouts, 1);
        assert_eq!(s.queries(), 3);
        assert_eq!(s.responses(), 3);
        assert_eq!(s.bytes_received, 120);
        assert_eq!(s.bytes_sent, 672);
        assert_eq!(s.handle_latency.total, 3);
        assert_eq!(s.handle_latency.max, 1_000_000);
        let render = s.render();
        assert!(
            render.contains("2 queries, 2 responses (1 truncated)"),
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
    }

    #[test]
    fn quantiles_follow_buckets() {
        let m = ServerMetrics::new();
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
