//! UDP shard workers: the datagram receive/answer/send loop.
//!
//! Each worker owns a cloned handle of the one bound socket — blocked
//! receivers on the same socket are load-balanced by the kernel, which
//! gives SO_REUSEPORT-style sharding with nothing but `try_clone()` —
//! plus a private [`L1Cache`] tier, so the hot path never contends on a
//! lock for cached answers.
//!
//! A worker blocks in `recv_from` (with a short timeout so it can
//! observe the stop flag), answers the datagram out of the receive
//! buffer, sends the reply, and blocks again: one receive and one send
//! per datagram, nothing else. A burst waits in the socket's own queue.

use crate::pipeline::{self, Reply};
use crate::server::Shared;
use ede_resolver::L1Cache;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Largest datagram a client can send us; EDNS advertisements beyond
/// this are legal but nothing in the testbed produces queries near it.
const RECV_BUF: usize = 4096;

/// How long a blocking receive waits before re-checking the stop flag.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Drive one shard worker until the stop flag is raised. Any socket
/// error other than a timeout ends the loop (the handle surfaces
/// nothing; the remaining shards keep serving).
pub(crate) fn run_udp_worker(shared: &Shared, socket: &UdpSocket) {
    let l1 = L1Cache::new();
    if socket.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let mut buf = [0u8; RECV_BUF];

    while !shared.stop.load(Ordering::Acquire) {
        match socket.recv_from(&mut buf) {
            Ok((n, peer)) => serve_datagram(shared, socket, &l1, &buf[..n], peer),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => break,
        }
    }
}

/// Answer one datagram end-to-end, recording every metrics decision.
fn serve_datagram(
    shared: &Shared,
    socket: &UdpSocket,
    l1: &L1Cache,
    wire: &[u8],
    peer: SocketAddr,
) {
    let metrics = &shared.metrics;
    let started = Instant::now();
    metrics.udp_query(wire.len());
    let (encoded, answered) = match pipeline::serve(&shared.resolver, metrics, Some(l1), wire) {
        Reply::Nothing => return,
        Reply::Rejection(reply) => (reply.encode().map(|wire| (wire, false)), false),
        Reply::Answer(reply, query) => (
            pipeline::encode_udp(&reply, &query, shared.config.udp_payload_max),
            true,
        ),
    };
    match encoded {
        Ok((wire, truncated)) => {
            if socket.send_to(&wire, peer).is_ok() {
                metrics.udp_response(wire.len(), truncated);
                if answered {
                    metrics.observe_handle_us(elapsed_us(started));
                }
            }
        }
        Err(_) => metrics.encode_error(),
    }
}

fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}
