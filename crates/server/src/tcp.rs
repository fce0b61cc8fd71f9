//! The TCP path: acceptor loop and per-connection handlers.
//!
//! RFC 1035 §4.2.2 framing (two-byte length prefix per message) over
//! plain `TcpStream`s. The acceptor blocks in `accept()`, so a fresh
//! connection — the TC=1 fallback — is picked up the moment it arrives
//! and an idle server does not wake at all; shutdown raises the stop
//! flag and then wakes the acceptor with a throw-away loopback
//! connection ([`wake_acceptor`]). Each accepted connection gets a
//! detached handler thread, bounded by `tcp_conn_cap` — connections
//! over the cap are closed immediately and counted as refused rather
//! than left to queue.
//!
//! Handlers enforce an idle deadline (`tcp_read_timeout`) by reading in
//! short timeout chunks and tracking time since the last complete
//! frame. On shutdown a handler finishes the request it is parsing (the
//! graceful-drain contract: an in-flight query gets its answer), then
//! closes; [`ServerHandle::shutdown`](crate::ServerHandle::shutdown)
//! polls the live-connection gauge until the drain deadline.

use crate::pipeline::{self, Reply};
use crate::server::Shared;
use ede_wire::stream::{frame, FrameReader, MAX_FRAME_LEN};
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handler read-chunk timeout (bounds how often a handler re-checks
/// the stop flag and its idle deadline; data arriving mid-read returns
/// immediately, so this adds no request latency).
const POLL_TICK: Duration = Duration::from_millis(20);

/// How long shutdown waits for its wake-up connection to be taken.
const WAKE_TIMEOUT: Duration = Duration::from_millis(250);

/// Accept connections until the stop flag is raised.
pub(crate) fn run_acceptor(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        // Whatever arrives once the flag is up — the wake-up connection
        // or a client racing the shutdown — is closed unanswered.
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let Ok((stream, _peer)) = accepted else {
            return;
        };
        // Reserve a slot before spawning; release on refusal.
        let occupied = shared.active_conns.fetch_add(1, Ordering::AcqRel);
        if occupied >= shared.config.tcp_conn_cap {
            shared.active_conns.fetch_sub(1, Ordering::AcqRel);
            shared.metrics.tcp_conn_refused();
            drop(stream);
            continue;
        }
        shared.metrics.tcp_conn_accepted();
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("ede-tcp-conn".to_string())
            .spawn(move || {
                serve_conn(&conn_shared, stream);
                conn_shared.active_conns.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            // Thread spawn failed: give the slot back.
            shared.active_conns.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Get an acceptor listening on `listening` out of its blocking
/// `accept()`, after the stop flag has been raised: one loopback
/// connection that is closed at once. A failure to connect means the
/// listener is already gone, which is what shutdown wants anyway.
pub(crate) fn wake_acceptor(listening: SocketAddr) {
    let mut target = listening;
    if target.ip().is_unspecified() {
        target.set_ip(match target.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&target, WAKE_TIMEOUT);
}

/// Serve one connection: framed queries in, framed responses out.
fn serve_conn(shared: &Shared, mut stream: TcpStream) {
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    let mut buf = [0u8; 4096];
    let mut last_activity = Instant::now();

    loop {
        // Drain any already-buffered complete frames first (pipelining).
        while let Some(request) = reader.next_frame() {
            last_activity = Instant::now();
            if !serve_frame(shared, &mut stream, &request) {
                return;
            }
        }
        // Stop only between requests — never abandon a frame we have
        // already started to receive, unless the peer stalls past the
        // drain window.
        if shared.stop.load(Ordering::Acquire)
            && (!reader.has_partial() || last_activity.elapsed() >= shared.config.drain_deadline)
        {
            return;
        }
        if last_activity.elapsed() >= shared.config.tcp_read_timeout {
            shared.metrics.tcp_read_timeout();
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                if reader.push(&buf[..n]).is_err() {
                    // Oversized frame claim: protocol violation, close.
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Answer one framed request. Returns `false` when the connection must
/// close (drop disposition or write failure).
fn serve_frame(shared: &Shared, stream: &mut TcpStream, request: &[u8]) -> bool {
    let metrics = &shared.metrics;
    let started = Instant::now();
    metrics.tcp_query(request.len());
    let reply = match pipeline::serve(&shared.resolver, metrics, None, request) {
        Reply::Nothing => return false,
        // No TC on a stream: the full answer always fits the frame.
        Reply::Rejection(reply) | Reply::Answer(reply, _) => reply,
    };
    match reply.encode().and_then(|wire| frame(&wire)) {
        Ok(framed) => {
            if stream.write_all(&framed).is_err() {
                return false;
            }
            metrics.tcp_response(framed.len() - 2);
            metrics.observe_handle_us(
                u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            );
            true
        }
        Err(_) => {
            metrics.encode_error();
            false
        }
    }
}
