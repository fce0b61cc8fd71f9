//! UDP shard workers: the datagram receive/answer/send loop.
//!
//! Each worker owns a cloned handle of the one bound socket — blocked
//! receivers on the same socket are load-balanced by the kernel, which
//! gives SO_REUSEPORT-style sharding with nothing but `try_clone()`.
//!
//! A worker blocks in `recv_from` (with a [`POLL_TICK`] timeout so it can
//! observe the stop flag), answers the datagram out of the receive
//! buffer, sends the reply, and blocks again: one receive and one send
//! per datagram, nothing else. A burst waits in the socket's own queue.
//! Tests drive the loop over a scripted [`Datagrams`] on their own clock.

use crate::pipeline::{self, Response};
use crate::server::{is_transient, micros, Shared, POLL_TICK};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Largest datagram UDP can carry (its length field is 16 bits), so a
/// receive never cuts a query short: `recv_from` drops whatever does
/// not fit without a word, and a cut query would be answered FORMERR
/// where TCP resolves the same bytes.
const RECV_BUF: usize = u16::MAX as usize;

/// What a worker needs of its socket: `UdpSocket`'s two calls.
pub(crate) trait Datagrams {
    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)>;
    fn send_to(&self, buf: &[u8], peer: SocketAddr) -> io::Result<usize>;
}

impl Datagrams for UdpSocket {
    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        UdpSocket::recv_from(self, buf)
    }

    fn send_to(&self, buf: &[u8], peer: SocketAddr) -> io::Result<usize> {
        UdpSocket::send_to(self, buf, peer)
    }
}

/// Drive one shard worker until the stop flag is raised: the socket's
/// set-up, then [`serve_datagrams`].
pub(crate) fn run_udp_worker(shared: &Shared, socket: &UdpSocket) {
    match socket.set_read_timeout(Some(POLL_TICK)) {
        Ok(()) => serve_datagrams(shared, socket, Instant::now),
        Err(e) => died(shared, &e),
    }
}

/// Receive, answer and reply until the stop flag is raised; every reply
/// sent is timed, as on TCP. A socket error that is not [`is_transient`]
/// ends the loop, counted and said on standard error.
pub(crate) fn serve_datagrams(shared: &Shared, socket: &impl Datagrams, now: impl Fn() -> Instant) {
    let metrics = &shared.metrics;
    let mut buf = vec![0u8; RECV_BUF];
    // Every reply is encoded here: no allocation per datagram.
    let mut out = Vec::with_capacity(4096);

    while !shared.stop.load(Ordering::Acquire) {
        let (n, peer) = match socket.recv_from(&mut buf) {
            Ok(received) => received,
            Err(e) if is_transient(e.kind()) => continue,
            Err(e) => return died(shared, &e),
        };
        let started = now();
        metrics.udp_query(n);
        out.clear();
        let cap = Some(shared.config.udp_payload_max);
        match pipeline::respond(&shared.resolver, metrics, &buf[..n], cap, &mut out) {
            Ok(Response::Nothing) => {}
            Ok(Response::Written { truncated }) if socket.send_to(&out, peer).is_ok() => {
                metrics.udp_response(out.len(), truncated);
                metrics.observe_handle_us(micros(now().duration_since(started)));
            }
            Ok(Response::Written { .. }) => metrics.udp_send_error(),
            Err(_) => metrics.encode_error(),
        }
    }
}

/// A worker's last act: its end counted, and said with the error's kind.
fn died(shared: &Shared, error: &io::Error) {
    shared.metrics.udp_worker_died();
    eprintln!("ede-server: a UDP worker stopped: {:?}", error.kind());
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::server::tests::shared;
    use ede_testbed::Testbed;
    use ede_wire::{Message, RrType};
    use std::collections::VecDeque;
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    /// What a scripted socket's receives return, in order.
    type Script = VecDeque<io::Result<(Vec<u8>, SocketAddr)>>;

    /// A socket whose receives are scripted: each `recv_from` takes the
    /// next datagram or error of the script, and once the script is
    /// spent raises `stop` and times out, as an idle socket would. Each
    /// `send_to` is kept with its peer, or fails with `send_error`. One
    /// script can feed several workers, as one socket does.
    pub(crate) struct ScriptedSocket<'a> {
        receives: Mutex<Script>,
        pub(crate) sends: Mutex<Vec<(Vec<u8>, SocketAddr)>>,
        send_error: Option<io::ErrorKind>,
        stop: &'a AtomicBool,
    }

    impl<'a> ScriptedSocket<'a> {
        pub(crate) fn new(stop: &'a AtomicBool) -> Self {
            ScriptedSocket {
                receives: Mutex::default(),
                sends: Mutex::default(),
                send_error: None,
                stop,
            }
        }

        /// Script `wire` as a datagram from `peer`.
        pub(crate) fn push(&self, wire: &[u8], peer: SocketAddr) {
            let mut receives = self.receives.lock().unwrap();
            receives.push_back(Ok((wire.to_vec(), peer)));
        }
    }

    impl Datagrams for ScriptedSocket<'_> {
        fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            let Some(next) = self.receives.lock().unwrap().pop_front() else {
                self.stop.store(true, Ordering::Release);
                return Err(io::ErrorKind::WouldBlock.into());
            };
            let (wire, peer) = next?;
            buf[..wire.len()].copy_from_slice(&wire);
            Ok((wire.len(), peer))
        }

        fn send_to(&self, buf: &[u8], peer: SocketAddr) -> io::Result<usize> {
            if let Some(kind) = self.send_error {
                return Err(kind.into());
            }
            self.sends.lock().unwrap().push((buf.to_vec(), peer));
            Ok(buf.len())
        }
    }

    /// A peer address that numbers a datagram.
    pub(crate) fn peer(n: u32) -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::from(n)), 53)
    }

    /// A worker whose `recv_from` fails for good is counted, once, and
    /// returns: a connected socket's receive reports the ICMP error of an
    /// earlier send as `ConnectionRefused`.
    #[test]
    fn a_worker_that_dies_of_a_socket_error_is_counted_once() {
        let shared = shared(&Testbed::build());
        let socket = ScriptedSocket::new(&shared.stop);
        let refused = io::ErrorKind::ConnectionRefused.into();
        socket.receives.lock().unwrap().push_back(Err(refused));
        socket.push(&[0; 12], peer(1));
        serve_datagrams(&shared, &socket, Instant::now);
        assert_eq!(
            socket.receives.lock().unwrap().len(),
            1,
            "never received again"
        );
        assert!(!shared.stop.load(Ordering::Acquire));
        let stats = shared.metrics.snapshot();
        assert_eq!((stats.udp_workers_died, stats.udp_queries), (1, 0));
    }

    /// A reply the socket refuses is counted, not lost in silence: on
    /// Linux `sendto` port 0 fails with `EINVAL`, and the worker serves on.
    #[test]
    fn a_reply_that_fails_to_send_is_counted() {
        let tb = Testbed::build();
        let shared = shared(&tb);
        let mut socket = ScriptedSocket::new(&shared.stop);
        socket.send_error = Some(io::ErrorKind::InvalidInput);
        let query = Message::query(7, tb.query_name(&tb.specs[0]), RrType::A);
        socket.push(&query.encode().unwrap(), peer(1));
        socket.push(&query.encode().unwrap(), peer(2));
        serve_datagrams(&shared, &socket, Instant::now);
        let stats = shared.metrics.snapshot();
        assert_eq!((stats.udp_queries, stats.udp_send_errors), (2, 2));
        assert_eq!((stats.udp_responses, stats.handle_latency.total), (0, 0));
        assert_eq!(stats.udp_workers_died, 0);
    }

    /// Every reply sent is timed, a rejection as much as an answer, and a
    /// drop is not: the handling-time rule of the TCP path.
    #[test]
    fn every_reply_sent_is_timed_a_rejection_too() {
        let tb = Testbed::build();
        let shared = shared(&tb);
        let socket = ScriptedSocket::new(&shared.stop);
        let mut notimp = Message::query(9, tb.query_name(&tb.specs[0]), RrType::A)
            .encode()
            .unwrap();
        notimp[2] |= 2 << 3; // STATUS
        socket.push(&notimp, peer(1));
        let mut response = notimp.clone();
        response[2] |= 0x80;
        socket.push(&response, peer(2));
        serve_datagrams(&shared, &socket, Instant::now);
        let stats = shared.metrics.snapshot();
        assert_eq!((stats.rejected_notimp, stats.dropped), (1, 1));
        assert_eq!((stats.udp_queries, stats.udp_responses), (2, 1));
        assert_eq!(stats.handle_latency.total, 1);
        let sends = socket.sends.lock().unwrap();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].1, peer(1));
    }
}
