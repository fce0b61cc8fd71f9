//! UDP shard workers: the datagram receive/answer/send loop.
//!
//! Each worker owns a cloned handle of the one bound socket — blocked
//! receivers on the same socket are load-balanced by the kernel, which
//! gives SO_REUSEPORT-style sharding with nothing but `try_clone()`.
//!
//! A worker blocks in `recv_from` (with a short timeout so it can
//! observe the stop flag), answers the datagram out of the receive
//! buffer, sends the reply, and blocks again: one receive and one send
//! per datagram, nothing else. A burst waits in the socket's own queue.

use crate::pipeline::{self, Reply};
use crate::server::{is_transient, micros, Shared};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Largest datagram a client can send us; EDNS advertisements beyond
/// this are legal but nothing in the testbed produces queries near it.
const RECV_BUF: usize = 4096;

/// How long a blocking receive waits before re-checking the stop flag.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Drive one shard worker until the stop flag is raised. A socket error
/// that is not [`is_transient`] ends the loop, counted and said on
/// standard error; the remaining shards keep serving.
pub(crate) fn run_udp_worker(shared: &Shared, socket: &UdpSocket) {
    if let Err(e) = socket.set_read_timeout(Some(POLL_TICK)) {
        return died(shared, &e);
    }
    let mut buf = [0u8; RECV_BUF];
    // Every reply is encoded here: no allocation per datagram.
    let mut out = Vec::with_capacity(RECV_BUF);

    while !shared.stop.load(Ordering::Acquire) {
        match socket.recv_from(&mut buf) {
            Ok((n, peer)) => serve_datagram(shared, socket, &buf[..n], peer, &mut out),
            Err(e) if is_transient(e.kind()) => continue,
            Err(e) => return died(shared, &e),
        }
    }
}

/// A worker's last act: its end counted, and said with the error's kind.
fn died(shared: &Shared, error: &std::io::Error) {
    shared.metrics.udp_worker_died();
    eprintln!("ede-server: a UDP worker stopped: {:?}", error.kind());
}

/// Answer one datagram end-to-end, recording every metrics decision.
/// `out` is scratch space for the encoded reply.
fn serve_datagram(
    shared: &Shared,
    socket: &UdpSocket,
    wire: &[u8],
    peer: SocketAddr,
    out: &mut Vec<u8>,
) {
    let metrics = &shared.metrics;
    let started = Instant::now();
    metrics.udp_query(wire.len());
    out.clear();
    let (encoded, answered) = match pipeline::serve(&shared.resolver, metrics, wire) {
        Reply::Nothing => return,
        Reply::Rejection(reply) => (reply.encode_into(out).map(|()| false), false),
        Reply::Answer(reply, query) => (
            pipeline::encode_udp_into(&reply, &query, shared.config.udp_payload_max, out),
            true,
        ),
    };
    match encoded {
        Ok(truncated) => {
            if socket.send_to(out, peer).is_ok() {
                metrics.udp_response(out.len(), truncated);
                if answered {
                    metrics.observe_handle_us(micros(started.elapsed()));
                }
            }
        }
        Err(_) => metrics.encode_error(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_resolver::Vendor;
    use ede_testbed::Testbed;
    use ede_trace::ServerMetrics;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Arc;

    /// A worker whose `recv_from` fails for good is counted, once, and
    /// returns. The failure is a real one: a datagram sent from a
    /// connected socket to a loopback port nobody holds comes back as
    /// an ICMP error, which the next receive reports as
    /// `ConnectionRefused`.
    #[test]
    fn a_worker_that_dies_of_a_socket_error_is_counted_once() {
        let shared = Shared {
            resolver: Testbed::build().resolver(Vendor::Cloudflare),
            metrics: Arc::new(ServerMetrics::new()),
            stop: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            config: crate::ServerConfig::default(),
        };
        let vacated = UdpSocket::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.connect(vacated).unwrap();
        socket.send(&[0]).unwrap();
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| run_udp_worker(&shared, &socket));
            // Not a hang if the error never arrives: stop, then fail.
            let deadline = Instant::now() + Duration::from_secs(5);
            while !worker.is_finished() && Instant::now() < deadline {
                std::thread::sleep(POLL_TICK);
            }
            shared.stop.store(true, Ordering::Release);
        });
        assert_eq!(shared.metrics.snapshot().udp_workers_died, 1);
        assert_eq!(shared.metrics.snapshot().udp_queries, 0);
    }
}
