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
use crate::server::{is_transient, micros, Shared};
use ede_resolver::L1Cache;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Largest datagram a client can send us; EDNS advertisements beyond
/// this are legal but nothing in the testbed produces queries near it.
const RECV_BUF: usize = 4096;

/// How long a blocking receive waits before re-checking the stop flag.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Drive one shard worker until the stop flag is raised. A socket error
/// that is not [`is_transient`] ends the loop (the handle surfaces
/// nothing; the remaining shards keep serving).
pub(crate) fn run_udp_worker(shared: &Shared, socket: &UdpSocket) {
    let l1 = L1Cache::new();
    if socket.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let mut buf = [0u8; RECV_BUF];
    // Every reply is encoded here: no allocation per datagram.
    let mut out = Vec::with_capacity(RECV_BUF);

    while !shared.stop.load(Ordering::Acquire) {
        match socket.recv_from(&mut buf) {
            Ok((n, peer)) => serve_datagram(shared, socket, &l1, &buf[..n], peer, &mut out),
            Err(e) if is_transient(e.kind()) => continue,
            Err(_) => break,
        }
    }
}

/// Answer one datagram end-to-end, recording every metrics decision.
/// `out` is scratch space for the encoded reply.
fn serve_datagram(
    shared: &Shared,
    socket: &UdpSocket,
    l1: &L1Cache,
    wire: &[u8],
    peer: SocketAddr,
    out: &mut Vec<u8>,
) {
    let metrics = &shared.metrics;
    let started = Instant::now();
    metrics.udp_query(wire.len());
    out.clear();
    let (encoded, answered) = match pipeline::serve(&shared.resolver, metrics, Some(l1), wire) {
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
