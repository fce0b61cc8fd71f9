//! The TCP path: acceptor loop and per-connection handlers.
//!
//! RFC 1035 §4.2.2 framing (two-byte length prefix per message) over
//! plain `TcpStream`s. The acceptor blocks in `accept()`, so a fresh
//! connection — the TC=1 fallback — is picked up the moment it arrives
//! and an idle server does not wake at all; shutdown raises the stop
//! flag and then wakes the acceptor with a throw-away loopback
//! connection ([`wake_acceptor`]). An `accept` that fails for a reason
//! that passes (a signal, a client that reset first) is retried; any
//! other error ends the acceptor, counted and said on standard error.
//! Each accepted connection gets a detached handler thread, bounded by
//! [`TCP_CONN_CAP`] — connections over the cap are closed immediately
//! and counted as refused rather than left to queue.
//!
//! Handlers enforce an idle deadline ([`IDLE_TIMEOUT`]) on the time since
//! the last complete frame, and on the writing of one batch to a peer
//! that does not read, in [`POLL_TICK`] steps, on the clock they are given.
//! Pipelined queries (RFC 7766) are answered a batch at a time, one batch
//! per `read` that brought complete frames ([`serve_stream`]). On shutdown
//! a handler finishes the request it is parsing (the graceful-drain
//! contract: an in-flight query gets its answer), then closes.

use crate::pipeline::{self, Response};
use crate::server::{is_transient, micros, Shared, DRAIN_DEADLINE, POLL_TICK};
use ede_wire::stream::{FrameReader, MAX_FRAME_LEN};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most TCP connections open at once; the acceptor closes any more.
const TCP_CONN_CAP: usize = 64;

/// How long a connection may go without a complete request frame, or
/// take to write one batch of answers, before the handler closes it.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// A batch of answers is written once it holds more than this, whatever
/// else is waiting: it bounds what a connection buffers and how long a
/// finished answer waits. A rule of the handler, not a setting.
const FLUSH_AT: usize = 16 * 1024;

/// How long shutdown waits for its wake-up connection to be taken.
const WAKE_TIMEOUT: Duration = Duration::from_millis(250);

/// Accept connections until the stop flag is raised. An error that is
/// [`is_transient`], or a client that reset before `accept` took it
/// (`ConnectionAborted`), is no reason to stop; any other error ends the
/// loop, counted and said on standard error.
pub(crate) fn run_acceptor(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        // Whatever arrives once the flag is up — the wake-up connection
        // or a client racing the shutdown — is closed unanswered.
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(e) if is_transient(e.kind()) || e.kind() == ErrorKind::ConnectionAborted => {
                continue
            }
            Err(e) => {
                shared.metrics.tcp_acceptor_died();
                eprintln!("ede-server: the TCP acceptor stopped: {:?}", e.kind());
                return;
            }
        };
        // Reserve a slot before spawning; release on refusal.
        let occupied = shared.active_conns.fetch_add(1, Ordering::AcqRel);
        if occupied >= TCP_CONN_CAP {
            shared.active_conns.fetch_sub(1, Ordering::AcqRel);
            shared.metrics.tcp_conn_refused();
            drop(stream);
            continue;
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("ede-tcp-conn".to_string())
            .spawn(move || {
                // Accepted means a handler has it: counted here, before
                // the first answer, not ahead of the spawn.
                conn_shared.metrics.tcp_conn_accepted();
                serve_conn(&conn_shared, stream);
                conn_shared.active_conns.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            // No handler: the stream went with the closure, the slot
            // goes back, and the connection counts as refused.
            shared.active_conns.fetch_sub(1, Ordering::AcqRel);
            shared.metrics.tcp_conn_refused();
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

/// Serve one connection: the socket's set-up, then [`serve_stream`].
fn serve_conn(shared: &Shared, stream: TcpStream) {
    if stream.set_read_timeout(Some(POLL_TICK)).is_ok()
        && stream.set_write_timeout(Some(POLL_TICK)).is_ok()
    {
        let _ = stream.set_nodelay(true);
        serve_stream(shared, stream, Instant::now);
    }
}

/// Framed queries in, framed responses out, a batch at a time: every
/// complete frame already received is answered into one buffer, which
/// is written before the handler blocks in `read`, when it passes
/// [`FLUSH_AT`], and before the connection closes for any reason. A lone
/// query is one write; sixteen in one segment are one write, not sixteen.
fn serve_stream<S: Read + Write>(shared: &Shared, mut stream: S, now: impl Fn() -> Instant) {
    let metrics = &shared.metrics;
    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    let mut buf = [0u8; 4096];
    let mut batch = Batch {
        out: Vec::with_capacity(4096),
        unsent: Vec::new(),
    };
    let mut last_activity = now();

    loop {
        // Answer what has arrived, up to a full buffer or a violation...
        let mut open = true;
        while open && batch.out.len() <= FLUSH_AT {
            match reader.with_frame(|request| {
                last_activity = now();
                batch.answer(shared, request, last_activity)
            }) {
                Some(keep_open) => open = keep_open,
                None => break,
            }
        }
        let more_buffered = batch.out.len() > FLUSH_AT;
        // ...and hand it to the kernel whole. Only then are its answers
        // counted as sent and their handling times taken: bytes in to
        // bytes out, the wait for the rest of the batch included.
        if !batch.out.is_empty() {
            let written = write_batch(&mut stream, &batch.out, &now);
            batch.out.clear();
            if let Err(e) = written {
                if is_transient(e.kind()) {
                    metrics.tcp_read_timeout();
                }
                return;
            }
            metrics.tcp_write();
            let sent = now();
            for (started, len) in batch.unsent.drain(..) {
                metrics.tcp_response(len);
                metrics.observe_handle_us(micros(sent.duration_since(started)));
            }
        }
        if !open {
            return;
        }
        if more_buffered {
            continue;
        }
        // Stop only between requests — never abandon a frame we have
        // already started to receive, unless the peer stalls past the
        // drain window.
        let idle = now().duration_since(last_activity);
        if shared.stop.load(Ordering::Acquire) && (!reader.has_partial() || idle >= DRAIN_DEADLINE)
        {
            return;
        }
        if idle >= IDLE_TIMEOUT {
            metrics.tcp_read_timeout();
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
            Err(e) if is_transient(e.kind()) => {}
            Err(_) => return,
        }
    }
}

/// Write all of `bytes`, a write that times out tried again, unless
/// [`IDLE_TIMEOUT`] passes from the first (a `TimedOut` error): a peer
/// that does not read is as slow as one that sends no queries.
fn write_batch(
    stream: &mut impl Write,
    mut bytes: &[u8],
    now: &impl Fn() -> Instant,
) -> io::Result<()> {
    let started = now();
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if is_transient(e.kind()) => {}
            Err(e) => return Err(e),
        }
        if !bytes.is_empty() && now().duration_since(started) >= IDLE_TIMEOUT {
            return Err(ErrorKind::TimedOut.into());
        }
    }
    Ok(())
}

/// One connection's answers that are encoded and not yet written.
struct Batch {
    /// The framed answers, in request order.
    out: Vec<u8>,
    /// Per answer in `out`: when its query was taken up, and its length.
    unsent: Vec<(Instant, usize)>,
}

impl Batch {
    /// Answer one framed request into the batch. Returns `false` when
    /// the connection must close (drop disposition or encode failure).
    fn answer(&mut self, shared: &Shared, request: &[u8], started: Instant) -> bool {
        let metrics = &shared.metrics;
        metrics.tcp_query(request.len());
        // The length prefix is filled in once the length is known.
        let at = self.out.len();
        self.out.extend_from_slice(&[0, 0]);
        // No TC on a stream: the full answer always fits the frame.
        let written = pipeline::respond(&shared.resolver, metrics, request, None, &mut self.out);
        match (written, u16::try_from(self.out.len() - at - 2)) {
            (Ok(Response::Written { .. }), Ok(len)) => {
                self.out[at..at + 2].copy_from_slice(&len.to_be_bytes());
                self.unsent.push((started, len.into()));
                true
            }
            (written, _) => {
                self.out.truncate(at);
                if written != Ok(Response::Nothing) {
                    metrics.encode_error();
                }
                false
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::server::tests::shared;
    use crate::udp::serve_datagrams;
    use crate::udp::tests::{peer, ScriptedSocket};
    use crate::ServerConfig;
    use ede_resolver::Vendor;
    use ede_testbed::Testbed;
    use ede_trace::MetricsSnapshot;
    use ede_wire::stream::frame;
    use ede_wire::{Class, Message, Rcode, RrType};
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::rc::Rc;
    use std::sync::atomic::AtomicBool;

    /// An in-memory peer on a clock of its own: each `read` delivers the
    /// next scripted chunk, or as much of it as the buffer takes (then
    /// EOF); an empty chunk is a read that times out, one [`POLL_TICK`]
    /// on the clock. Each `write` call is kept as one element.
    pub(crate) struct Scripted<'a> {
        pub(crate) reads: VecDeque<Vec<u8>>,
        pub(crate) writes: Vec<Vec<u8>>,
        /// Every write fails so, a [`POLL_TICK`] on the clock each.
        write_error: Option<ErrorKind>,
        /// Every write takes one byte and this long on the clock.
        trickle: Option<Duration>,
        /// Raised as a read delivers: shutdown finds the handler with
        /// that chunk's frames still to answer.
        stop_on_read: Option<&'a AtomicBool>,
        /// What the handler reads as the time; only the peer moves it.
        clock: Rc<Cell<Instant>>,
    }

    impl Default for Scripted<'_> {
        fn default() -> Self {
            Scripted {
                reads: VecDeque::new(),
                writes: Vec::new(),
                write_error: None,
                trickle: None,
                stop_on_read: None,
                clock: Rc::new(Cell::new(Instant::now())),
            }
        }
    }

    impl Scripted<'_> {
        fn wait(&self, how_long: Duration) {
            self.clock.set(self.clock.get() + how_long);
        }
    }

    impl Read for Scripted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(mut chunk) = self.reads.pop_front() else {
                return Ok(0);
            };
            if chunk.is_empty() {
                self.wait(POLL_TICK);
                return Err(ErrorKind::WouldBlock.into());
            }
            if let Some(stop) = self.stop_on_read {
                stop.store(true, Ordering::Release);
            }
            if chunk.len() > buf.len() {
                self.reads.push_front(chunk.split_off(buf.len()));
            }
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    impl Write for Scripted<'_> {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            if let Some(kind) = self.write_error {
                self.wait(POLL_TICK);
                return Err(kind.into());
            }
            let taken = match self.trickle {
                Some(per_byte) => {
                    self.wait(per_byte);
                    1
                }
                None => bytes.len(),
            };
            self.writes.push(bytes[..taken].to_vec());
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// `n` reads that time out: a silent peer for `n` poll ticks.
    fn silence(n: usize) -> Vec<Vec<u8>> {
        vec![Vec::new(); n]
    }

    /// Run `peer`'s script through `shared`'s handler on the peer's
    /// clock; how long, on that clock, the handler kept it open.
    pub(crate) fn serve_on(shared: &Shared, peer: &mut Scripted) -> Duration {
        let clock = Rc::clone(&peer.clock);
        let opened = clock.get();
        serve_stream(shared, &mut *peer, move || clock.get());
        peer.clock.get() - opened
    }

    /// `n` framed queries of type `qtype`, IDs `0..n`: for the testbed's
    /// names in turn, or all for `label`.
    fn framed_queries(tb: &Testbed, n: usize, qtype: RrType, label: Option<&str>) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let spec = match label {
                    Some(label) => tb.spec(label).unwrap(),
                    None => &tb.specs[i % tb.specs.len()],
                };
                let query = Message::query(i as u16, tb.query_name(spec), qtype);
                frame(&query.encode().unwrap()).unwrap()
            })
            .collect()
    }

    /// Run `peer`'s script through a fresh handler; what it counted.
    fn serve(tb: &Testbed, peer: &mut Scripted) -> MetricsSnapshot {
        let shared = shared(tb);
        serve_on(&shared, peer);
        shared.metrics.snapshot()
    }

    /// The IDs of the framed answers in `bytes`, in order.
    fn answer_ids(bytes: &[u8]) -> Vec<u16> {
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        reader.push(bytes).unwrap();
        let ids = std::iter::from_fn(|| reader.next_frame())
            .map(|answer| Message::decode(&answer).unwrap().id)
            .collect();
        assert!(!reader.has_partial(), "a write ended inside a frame");
        ids
    }

    #[test]
    fn one_write_per_read_that_brought_frames() {
        let tb = Testbed::build();
        let queries = framed_queries(&tb, 16, RrType::A, None);

        // Sixteen frames in one read: one write, answers in request order.
        let mut peer = Scripted::default();
        peer.reads.push_back(queries.concat());
        let stats = serve(&tb, &mut peer);
        assert_eq!(peer.writes.len(), 1);
        assert_eq!(answer_ids(&peer.writes[0]), (0..16).collect::<Vec<u16>>());
        assert_eq!((stats.tcp_queries, stats.tcp_responses), (16, 16));
        assert_eq!(stats.tcp_writes, 1);
        assert_eq!(stats.handle_latency.total, 16, "one time per answer");
        let sent: usize = peer.writes.iter().map(Vec::len).sum();
        assert_eq!(stats.bytes_sent as usize, sent - 2 * 16);

        // The same bytes over three reads, cut inside frames: three
        // writes, each of whole answers, the same bytes in all.
        let one_write = peer.writes.concat();
        let stream = queries.concat();
        let mut peer = Scripted::default();
        let (a, rest) = stream.split_at(stream.len() / 3 + 1);
        let (b, c) = rest.split_at(rest.len() / 2 + 1);
        peer.reads.extend([a.to_vec(), b.to_vec(), c.to_vec()]);
        let stats = serve(&tb, &mut peer);
        assert_eq!(peer.writes.len(), 3);
        assert_eq!(stats.tcp_writes, 3);
        assert!(peer.writes.iter().all(|w| !answer_ids(w).is_empty()));
        assert_eq!(peer.writes.concat(), one_write);
    }

    #[test]
    fn a_large_batch_is_written_every_16_kib() {
        let tb = Testbed::build();
        // A DNSKEY answer is ~700 bytes (one RRSIG, the KSK's): 60 of
        // them are 41 KiB, asked for in one 3.5 KiB read.
        let queries = framed_queries(&tb, 60, RrType::Dnskey, Some("valid"));
        let mut peer = Scripted::default();
        peer.reads.push_back(queries.concat());
        let stats = serve(&tb, &mut peer);
        let total: usize = peer.writes.iter().map(Vec::len).sum();
        assert!(total > 40 * 1024, "{total}");
        let answer = total / 60; // all alike but for the ID

        // One write each time the buffer passes 16 KiB, ending with the
        // answer that crossed, plus the last.
        let (last, crossed) = peer.writes.split_last().unwrap();
        assert_eq!(crossed.len(), 2);
        for write in crossed {
            assert!(write.len() > FLUSH_AT && write.len() - answer <= FLUSH_AT);
        }
        assert!(last.len() <= FLUSH_AT);
        assert_eq!((stats.tcp_responses, stats.tcp_writes), (60, 3));
        let ids: Vec<u16> = peer.writes.iter().flat_map(|w| answer_ids(w)).collect();
        assert_eq!(ids, (0..60).collect::<Vec<u16>>());
    }

    #[test]
    fn earned_answers_are_written_before_a_violation_closes() {
        let tb = Testbed::build();
        let mut queries = framed_queries(&tb, 4, RrType::A, None);
        queries[2][2 + 2] |= 0x80; // QR: a response where a query belongs
        let mut peer = Scripted::default();
        peer.reads.push_back(queries.concat());
        let stats = serve(&tb, &mut peer);
        assert_eq!(peer.writes.len(), 1);
        assert_eq!(answer_ids(&peer.writes[0]), [0, 1]);
        assert_eq!((stats.tcp_queries, stats.dropped), (3, 1));
    }

    #[test]
    fn shutdown_mid_batch_still_writes_the_batch() {
        let tb = Testbed::build();
        let shared = shared(&tb);
        let queries = framed_queries(&tb, 16, RrType::A, None);
        let mut peer = Scripted {
            stop_on_read: Some(&shared.stop),
            ..Default::default()
        };
        // The second chunk is never read: the handler stops between
        // requests, after the write.
        peer.reads.extend([queries.concat(), queries.concat()]);
        serve_on(&shared, &mut peer);
        assert_eq!(peer.reads.len(), 1);
        assert_eq!(peer.writes.len(), 1);
        assert_eq!(answer_ids(&peer.writes[0]), (0..16).collect::<Vec<u16>>());
        assert_eq!(shared.metrics.snapshot().tcp_responses, 16);
    }

    /// A write that times out is tried again until [`IDLE_TIMEOUT`] has
    /// passed, then the connection closes, counted as one timeout; any
    /// other failure closes it at once, uncounted.
    #[test]
    fn a_failed_write_closes_and_only_a_timeout_counts_as_one() {
        let tb = Testbed::build();
        let queries = framed_queries(&tb, 3, RrType::A, None);
        for (kind, timeouts, open) in [
            (ErrorKind::WouldBlock, 1, IDLE_TIMEOUT),
            (ErrorKind::TimedOut, 1, IDLE_TIMEOUT),
            (ErrorKind::BrokenPipe, 0, POLL_TICK),
        ] {
            let shared = shared(&tb);
            let mut peer = Scripted {
                write_error: Some(kind),
                ..Default::default()
            };
            // The second read is never reached.
            peer.reads
                .extend([queries[..2].concat(), queries[2].clone()]);
            assert_eq!(serve_on(&shared, &mut peer), open, "{kind:?}");
            let stats = shared.metrics.snapshot();
            assert_eq!(peer.reads.len(), 1, "{kind:?}");
            assert_eq!(stats.tcp_read_timeouts, timeouts, "{kind:?}");
            assert_eq!((stats.tcp_queries, stats.tcp_responses), (2, 0));
            assert_eq!(stats.tcp_writes, 0);
            assert_eq!(stats.handle_latency.total, 0);
        }
    }

    /// A peer that takes one byte per write, a second each, is closed
    /// at [`IDLE_TIMEOUT`] from the batch's first write: the deadline
    /// bounds the batch, not each write, and missing it counts once.
    #[test]
    fn a_peer_that_takes_a_byte_a_second_is_closed_at_the_deadline() {
        let tb = Testbed::build();
        let shared = shared(&tb);
        let mut peer = Scripted {
            trickle: Some(Duration::from_secs(1)),
            ..Default::default()
        };
        peer.reads.extend(framed_queries(&tb, 2, RrType::A, None));
        assert_eq!(serve_on(&shared, &mut peer), IDLE_TIMEOUT);
        assert_eq!(peer.writes.concat().len(), 5, "a byte a second");
        assert_eq!(peer.reads.len(), 1, "never read again");
        let stats = shared.metrics.snapshot();
        assert_eq!(stats.tcp_read_timeouts, 1);
        assert_eq!((stats.tcp_queries, stats.tcp_responses), (1, 0));
        assert_eq!(stats.tcp_writes, 0);
    }

    /// How many poll ticks make `deadline`.
    fn ticks(deadline: Duration) -> usize {
        (deadline.as_nanos() / POLL_TICK.as_nanos()) as usize
    }

    /// A peer that says nothing, or half a frame and then nothing, is
    /// closed at [`IDLE_TIMEOUT`], counted once: only a complete frame
    /// resets the idle deadline.
    #[test]
    fn a_silent_peer_is_closed_at_the_idle_deadline_even_mid_frame() {
        let tb = Testbed::build();
        let query = &framed_queries(&tb, 1, RrType::A, None)[0];
        for said in [&[][..], &query[..query.len() / 2]] {
            let shared = shared(&tb);
            let mut peer = Scripted::default();
            if !said.is_empty() {
                peer.reads.push_back(said.to_vec());
            }
            peer.reads.extend(silence(ticks(IDLE_TIMEOUT) + 10));
            assert_eq!(serve_on(&shared, &mut peer), IDLE_TIMEOUT, "{said:?}");
            assert_eq!(peer.reads.len(), 10, "{said:?}");
            let stats = shared.metrics.snapshot();
            assert_eq!((stats.tcp_read_timeouts, stats.tcp_queries), (1, 0));
            assert!(peer.writes.is_empty());
        }
    }

    /// Stop raised with half a frame received; the handler waits for the
    /// rest for up to [`DRAIN_DEADLINE`]. `rest` arrives a tick before
    /// it, or never. How long the connection stayed open, and what the
    /// handler counted and wrote.
    fn stopped_mid_frame(rest: bool) -> (Duration, MetricsSnapshot, Vec<Vec<u8>>) {
        let tb = Testbed::build();
        let shared = shared(&tb);
        let query = &framed_queries(&tb, 1, RrType::A, None)[0];
        let (first, second) = query.split_at(query.len() / 2);
        let mut peer = Scripted {
            stop_on_read: Some(&shared.stop),
            ..Default::default()
        };
        peer.reads.push_back(first.to_vec());
        peer.reads.extend(silence(ticks(DRAIN_DEADLINE) - 1));
        if rest {
            peer.reads.push_back(second.to_vec());
        }
        peer.reads.extend(silence(10));
        let open = serve_on(&shared, &mut peer);
        (open, shared.metrics.snapshot(), peer.writes)
    }

    #[test]
    fn stopped_mid_frame_the_rest_is_still_answered() {
        let (open, stats, writes) = stopped_mid_frame(true);
        assert_eq!(open, DRAIN_DEADLINE - POLL_TICK);
        assert_eq!(writes.len(), 1);
        assert_eq!(answer_ids(&writes[0]), [0]);
        assert_eq!((stats.tcp_queries, stats.tcp_responses), (1, 1));
        assert_eq!(stats.tcp_read_timeouts, 0);
    }

    #[test]
    fn stopped_mid_frame_a_rest_that_never_comes_is_given_up_at_the_drain_deadline() {
        let (open, stats, writes) = stopped_mid_frame(false);
        assert_eq!(open, DRAIN_DEADLINE);
        assert!(writes.is_empty());
        assert_eq!((stats.tcp_queries, stats.tcp_read_timeouts), (0, 0));
    }

    /// An `accept` that fails for a passing reason is retried: over a
    /// non-blocking listener every idle `accept` is `WouldBlock`, and a
    /// client that connects later is served all the same.
    #[test]
    fn an_accept_that_would_block_does_not_end_the_acceptor() {
        let tb = Testbed::build();
        let shared = Arc::new(shared(&tb));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_acceptor(shared, listener))
        };
        std::thread::sleep(Duration::from_millis(50));

        let mut client = TcpStream::connect(addr).expect("the acceptor still listens");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let query = &framed_queries(&tb, 1, RrType::A, None)[0];
        client.write_all(query).unwrap();
        let mut len = [0u8; 2];
        client.read_exact(&mut len).expect("an answer");
        let mut answer = vec![0u8; usize::from(u16::from_be_bytes(len))];
        client.read_exact(&mut answer).unwrap();
        assert_eq!(Message::decode(&answer).unwrap().id, 0);

        shared.stop.store(true, Ordering::Release);
        acceptor.join().unwrap();
        let stats = shared.metrics.snapshot();
        assert_eq!(stats.tcp_acceptors_died, 0);
        assert_eq!(stats.tcp_conns_accepted, 1);
    }

    /// Over [`TCP_CONN_CAP`] the acceptor closes a connection unanswered
    /// and counts it refused; once a slot frees, service resumes; every
    /// connection made before the stop flag is accepted or refused. The
    /// slots are taken by connections that each had an answer, so their
    /// handlers run, and one is freed by the server's close, which the
    /// gauge shows: nothing here waits on a guess.
    #[test]
    fn connections_over_the_cap_are_refused_until_a_slot_frees() {
        let tb = Testbed::build();
        let shared = Arc::new(shared(&tb));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_acceptor(shared, listener))
        };
        let query = &framed_queries(&tb, 1, RrType::A, None)[0];
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream
        };
        let answered = |mut stream: TcpStream| {
            stream.write_all(query).unwrap();
            let mut len = [0u8; 2];
            stream.read_exact(&mut len).expect("an answer");
            let mut answer = vec![0u8; usize::from(u16::from_be_bytes(len))];
            stream.read_exact(&mut answer).unwrap();
            assert_eq!(Message::decode(&answer).unwrap().id, 0);
            stream
        };
        // The server closes first, so no client port is left in TIME_WAIT.
        let closed_by_server = |mut stream: TcpStream| match stream.read(&mut [0u8; 64]) {
            Ok(0) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            other => panic!("open: {other:?}"),
        };

        let mut holders: Vec<TcpStream> = (0..TCP_CONN_CAP).map(|_| answered(connect())).collect();
        let mut refused = connect();
        // The write may land before the close; the answer never comes.
        let _ = refused.write_all(query);
        closed_by_server(refused);

        // A response where a query belongs is dropped and closes its
        // connection; the handler gives the slot back as it returns.
        let mut leaving = holders.pop().unwrap();
        let mut response = query.clone();
        response[2 + 2] |= 0x80;
        leaving.write_all(&response).unwrap();
        closed_by_server(leaving);
        let give_up = Instant::now() + Duration::from_secs(5);
        while shared.active_conns.load(Ordering::Acquire) == TCP_CONN_CAP {
            assert!(Instant::now() < give_up, "the slot never came back");
            std::thread::yield_now();
        }
        holders.push(answered(connect()));

        shared.stop.store(true, Ordering::Release);
        wake_acceptor(addr);
        acceptor.join().unwrap();
        holders.into_iter().for_each(closed_by_server);
        let stats = shared.metrics.snapshot();
        assert_eq!(stats.tcp_conns_refused, 1);
        assert_eq!(stats.tcp_conns_accepted, TCP_CONN_CAP as u64 + 1);
        assert_eq!(stats.tcp_responses, TCP_CONN_CAP as u64 + 1);
        let made = TCP_CONN_CAP as u64 + 2;
        assert_eq!(stats.tcp_conns_accepted + stats.tcp_conns_refused, made);
    }

    /// SplitMix64, as the wire crate's property tests draw from.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (((z ^ (z >> 31)) as u128 * n as u128) >> 64) as usize
        }
    }

    /// The row of the policy table (`pipeline.rs`) that matches `wire`
    /// first, read off the bytes: `None` is a drop, `Some(NoError)` a
    /// resolution, any other code the rejection.
    fn first_matching_row(wire: &[u8]) -> Option<Rcode> {
        if wire.len() < 12 || wire[2] & 0x80 != 0 {
            return None;
        }
        if wire[2] & 0x78 != 0 {
            return Some(Rcode::NotImp);
        }
        let Ok(query) = Message::decode(wire) else {
            return Some(Rcode::FormErr);
        };
        if query.edns.as_ref().is_some_and(|e| e.version != 0) {
            return Some(Rcode::BadVers);
        }
        Some(match query.questions.as_slice() {
            [q] if q.qclass != Class::In => Rcode::Refused,
            [_] => Rcode::NoError,
            _ => Rcode::FormErr,
        })
    }

    /// `header ‖ qname ‖ A IN ‖ the OPT of `Message::query``, ARCOUNT 1.
    fn raw_query(id: u16, qname: &[u8]) -> Vec<u8> {
        let mut wire = id.to_be_bytes().to_vec();
        wire.extend([0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 1]);
        wire.extend_from_slice(qname);
        wire.extend([0, 1, 0, 1]);
        wire.extend([0, 0, 41, 0x04, 0xD0, 0, 0, 0x80, 0, 0, 0]);
        wire
    }

    /// A name of `labels`' lengths, as it goes on the wire.
    fn raw_name(labels: &[u8]) -> Vec<u8> {
        let mut name = Vec::new();
        for &len in labels {
            name.push(len);
            name.resize(name.len() + usize::from(len), b'a');
        }
        name.push(0);
        name
    }

    /// Every structured mutation of one testbed query, then single-bit
    /// flips of it up to `total` cases, then `compound` cases that put a
    /// second mutation on top of a structured one.
    fn mutations(
        id: u16,
        qname: &[u8],
        total: usize,
        compound: usize,
        rng: &mut Rng,
    ) -> Vec<Vec<u8>> {
        let base = raw_query(id, qname);
        let q_end = 12 + qname.len() + 4;
        let opt = base[q_end..].to_vec();
        let mut cases = Vec::new();

        // Cut at every octet, the section boundaries among them.
        cases.extend((0..base.len()).map(|cut| base[..cut].to_vec()));

        // RDLENGTH that lies, both ways, about an OPT holding one
        // eight-octet option.
        let mut optioned = base.clone();
        optioned.extend([0xFD, 0xE9, 0, 4, 1, 2, 3, 4]);
        for rdlength in [0u16, 4, 7, 9, u16::MAX] {
            let mut wire = optioned.clone();
            wire[base.len() - 2..base.len()].copy_from_slice(&rdlength.to_be_bytes());
            cases.push(wire);
        }

        // A compression pointer to itself, and two that point at each
        // other, where the qname belongs.
        cases.push(raw_query(id, &[0xC0, 12]));
        cases.push(raw_query(id, &[0xC0, 14, 0xC0, 12]));
        // The longest legal name, and one octet more.
        let longest = raw_name(&[63, 63, 63, 61]);
        assert_eq!(longest.len(), 255);
        cases.push(raw_query(id, &longest));
        cases.push(raw_query(id, &raw_name(&[63, 63, 63, 62])));

        // A second OPT; the OPT in the answer section; an OPT not at
        // the root.
        let mut wire = base.clone();
        wire.extend_from_slice(&opt);
        wire[11] = 2;
        cases.push(wire);
        let mut wire = base.clone();
        (wire[7], wire[11]) = (1, 0);
        cases.push(wire);
        let mut wire = base[..q_end].to_vec();
        wire.extend([1, b'x']);
        wire.extend_from_slice(&opt);
        cases.push(wire);

        // An answer larger than the advertisement: the DNSKEY RRset,
        // asked for with room for 100 octets (served as 512).
        let mut wire = base.clone();
        wire[q_end - 3] = 48;
        wire[q_end + 3..q_end + 5].copy_from_slice(&100u16.to_be_bytes());
        cases.push(wire);

        // A response; every opcode but QUERY.
        let mut wire = base.clone();
        wire[2] |= 0x80;
        cases.push(wire);
        for opcode in 1..16u8 {
            let mut wire = base.clone();
            wire[2] |= opcode << 3;
            cases.push(wire);
        }

        let structured = base.len()..cases.len();
        while cases.len() < total {
            let mut wire = base.clone();
            wire[rng.below(base.len())] ^= 1 << rng.below(8);
            cases.push(wire);
        }

        // Two kinds in one query: one of the structured cases above but
        // the cuts, with a cut, a bit flip, QR, an opcode, a second OPT
        // or a lying RDLENGTH in its last RR on top — a cut after a lie,
        // a 256-octet name with a second OPT, a pointer loop as a
        // response.
        for _ in 0..compound {
            let mut wire = cases[structured.start + rng.below(structured.len())].clone();
            let end = wire.len();
            match rng.below(6) {
                0 => wire.truncate(rng.below(end)),
                1 => wire[rng.below(end)] ^= 1 << rng.below(8),
                2 => wire[2] |= 0x80,
                3 => wire[2] |= (1 + rng.below(15) as u8) << 3,
                4 => {
                    wire.extend_from_slice(&opt);
                    wire[11] = wire[11].wrapping_add(1);
                }
                _ => {
                    let rdlength = [0u16, 4, 9, u16::MAX][rng.below(4)];
                    wire[end - 2..].copy_from_slice(&rdlength.to_be_bytes());
                }
            }
            cases.push(wire);
        }
        cases
    }

    /// What every reply owes the request it answers, whatever the
    /// request was.
    fn assert_reply_fits(request: &[u8], row: Rcode, reply: &[u8]) {
        let decoded = Message::decode(reply)
            .unwrap_or_else(|e| panic!("reply to {request:02x?} does not decode: {e}"));
        assert!(decoded.response, "{request:02x?}");
        assert_eq!(decoded.id.to_be_bytes(), request[..2], "{request:02x?}");
        // Rows that read the request as a query echo its question.
        if matches!(row, Rcode::NoError | Rcode::BadVers | Rcode::Refused) {
            let query = Message::decode(request).unwrap();
            assert_eq!(decoded.questions, query.questions, "{request:02x?}");
        }
        if row != Rcode::NoError {
            assert_eq!(decoded.rcode, row, "{request:02x?}");
        }
    }

    /// Structure-aware mutation of the 63 testbed queries, one kind and
    /// two kinds at a time, with the row of the policy table each case
    /// meets first. Every row of the table is met.
    pub(crate) fn corpus(tb: &Testbed) -> (Vec<Vec<u8>>, Vec<Option<Rcode>>) {
        let mut rng = Rng(0x0024_5eed);
        let cases: Vec<Vec<u8>> = (0..tb.specs.len())
            .flat_map(|i| {
                let name = tb.query_name(&tb.specs[i]);
                let mut qname = Vec::new();
                name.encode(&mut qname, None);
                let query = Message::query(i as u16, name, RrType::A);
                assert_eq!(raw_query(i as u16, &qname), query.encode().unwrap());
                mutations(i as u16, &qname, 320, 80, &mut rng)
            })
            .collect();
        assert!(cases.len() >= 25_000, "{}", cases.len());
        let rows: Vec<Option<Rcode>> = cases.iter().map(|c| first_matching_row(c)).collect();
        for row in [
            None,
            Some(Rcode::NotImp),
            Some(Rcode::FormErr),
            Some(Rcode::BadVers),
            Some(Rcode::Refused),
            Some(Rcode::NoError),
        ] {
            assert!(rows.contains(&row), "no case for {row:?}");
        }
        (cases, rows)
    }

    /// The corpus cut into TCP connections: up to 300 cases each, ending
    /// with its first drop (a drop closes it).
    fn connections(rows: &[Option<Rcode>]) -> Vec<std::ops::Range<usize>> {
        let mut connections = Vec::new();
        let mut at = 0;
        while at < rows.len() {
            let first_drop = rows[at..].iter().take(300).position(Option::is_none);
            let end = at + first_drop.map_or(300.min(rows.len() - at), |d| d + 1);
            connections.push(at..end);
            at = end;
        }
        connections
    }

    /// The size a datagram reply to `request` may take: the advertisement
    /// floored at 512 and capped by the server for an answer, 512 for a
    /// rejection.
    fn udp_limit(request: &[u8], row: Rcode, cap: u16) -> usize {
        usize::from(match row {
            Rcode::NoError => Message::decode(request)
                .unwrap()
                .advertised_payload_size()
                .min(cap),
            _ => 512,
        })
    }

    /// The corpus through the whole request path, on both transports:
    /// every case a datagram to two workers sharing one scripted socket,
    /// then `serve_stream` over a few hundred framed cases a connection.
    #[test]
    fn mutated_queries_never_break_the_request_path() {
        let tb = Testbed::build();
        let (cases, rows) = corpus(&tb);
        let shared = shared(&tb);
        let cap = shared.config.udp_payload_max;

        // Two workers take turns at one socket, as shards do: one case in
        // six asks a name no case asked before, a cold resolution each.
        // The script spent raises the stop flag, which ends both.
        let socket = ScriptedSocket::new(&shared.stop);
        for (n, case) in cases.iter().enumerate() {
            socket.push(case, peer(n as u32));
        }
        std::thread::scope(|scope| {
            scope.spawn(|| serve_datagrams(&shared, &socket, Instant::now));
            serve_datagrams(&shared, &socket, Instant::now);
        });
        shared.stop.store(false, Ordering::Release);
        let mut replies = vec![None; cases.len()];
        for (reply, to) in socket.sends.into_inner().unwrap() {
            let IpAddr::V4(n) = to.ip() else {
                panic!("{to}")
            };
            let earlier = replies[u32::from(n) as usize].replace(reply);
            assert!(earlier.is_none(), "two replies to {to}");
        }
        for ((case, row), reply) in cases.iter().zip(&rows).zip(&replies) {
            match (row, reply) {
                (None, None) => {}
                (Some(row), Some(reply)) => {
                    assert!(reply.len() <= udp_limit(case, *row, cap), "{case:02x?}");
                    assert_reply_fits(case, *row, reply);
                }
                (row, reply) => panic!("{case:02x?}: {reply:02x?}, the table says {row:?}"),
            }
        }

        // The same cases as streams, so they meet their answers cached.
        let connections = connections(&rows);
        let check = |connection: &std::ops::Range<usize>| {
            let (cases, rows) = (&cases[connection.clone()], &rows[connection.clone()]);
            let mut peer = Scripted::default();
            let frames = cases.iter().map(|c| frame(c).unwrap());
            peer.reads.push_back(frames.flatten().collect());
            serve_on(&shared, &mut peer);
            let mut reader = FrameReader::new(MAX_FRAME_LEN);
            reader.push(&peer.writes.concat()).unwrap();
            for (case, row) in cases.iter().zip(rows) {
                let Some(row) = row else { continue };
                let reply = reader.next_frame().expect("a reply per request");
                assert_reply_fits(case, *row, &reply);
            }
            assert!(reader.next_frame().is_none() && !reader.has_partial());
        };
        // Two threads take turns at the connections.
        std::thread::scope(|scope| {
            scope.spawn(|| connections.iter().skip(1).step_by(2).for_each(&check));
            connections.iter().step_by(2).for_each(&check);
        });
        let stats = shared.metrics.snapshot();
        let count = |row| rows.iter().filter(|r| **r == row).count() as u64;
        let sent = cases.len() as u64;
        assert_eq!(stats.udp_queries, sent);
        assert_eq!(stats.udp_responses, sent - count(None));
        assert_eq!(stats.tcp_queries, sent);
        assert_eq!(stats.tcp_responses, sent - count(None));
        // Each case went once over each transport, and every reply is timed.
        assert_eq!(stats.dropped, 2 * count(None));
        assert_eq!(stats.rejected_notimp, 2 * count(Some(Rcode::NotImp)));
        assert_eq!(stats.rejected_formerr, 2 * count(Some(Rcode::FormErr)));
        assert_eq!(stats.rejected_badvers, 2 * count(Some(Rcode::BadVers)));
        assert_eq!(stats.rejected_refused, 2 * count(Some(Rcode::Refused)));
        assert_eq!(stats.handle_latency.total, 2 * (sent - count(None)));
        assert_eq!((stats.udp_send_errors, stats.encode_errors), (0, 0));
        assert_eq!(stats.udp_workers_died, 0);
    }

    /// The same corpus against a running server over loopback sockets:
    /// every case as a datagram to its one UDP worker, then the same
    /// connections over TCP. A drop is sent without waiting; the next
    /// reply awaited shows the worker still serves, and a last plain
    /// query does so after the corpus's final case. The server's counts
    /// reconcile with the table, and it drains with every thread alive.
    #[test]
    fn mutated_queries_never_break_a_loopback_server() {
        let tb = Testbed::build();
        let (cases, rows) = corpus(&tb);
        let config = ServerConfig::builder()
            .bind("127.0.0.1:0")
            .workers(1)
            .build();
        let cap = config.udp_payload_max;
        let server = crate::Server::spawn(tb.resolver(Vendor::Cloudflare), config).unwrap();

        let udp = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        udp.connect(server.udp_addr()).unwrap();
        udp.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let last = Message::query(0, tb.query_name(&tb.specs[0]), RrType::A);
        let last = (last.encode().unwrap(), Some(Rcode::NoError));
        let mut reply = vec![0u8; usize::from(u16::MAX)];
        for (case, row) in cases.iter().zip(&rows).chain([(&last.0, &last.1)]) {
            udp.send(case).unwrap();
            let Some(row) = *row else { continue };
            let n = udp.recv(&mut reply).expect("a reply per answered datagram");
            assert!(n <= udp_limit(case, row, cap), "{case:02x?}");
            assert_reply_fits(case, row, &reply[..n]);
        }

        let mut buf = [0u8; 4096];
        for connection in connections(&rows) {
            let (cases, rows) = (&cases[connection.clone()], &rows[connection]);
            let mut tcp = TcpStream::connect(server.tcp_addr()).unwrap();
            tcp.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let frames: Vec<u8> = cases.iter().flat_map(|c| frame(c).unwrap()).collect();
            tcp.write_all(&frames).unwrap();
            let mut reader = FrameReader::new(MAX_FRAME_LEN);
            for (case, row) in cases.iter().zip(rows) {
                let Some(row) = row else { continue };
                let reply = loop {
                    if let Some(reply) = reader.next_frame() {
                        break reply;
                    }
                    let n = tcp.read(&mut buf).unwrap();
                    assert!(n > 0, "closed before the reply to {case:02x?}");
                    reader.push(&buf[..n]).unwrap();
                };
                assert_reply_fits(case, *row, &reply);
            }
            assert!(reader.next_frame().is_none() && !reader.has_partial());
            // A drop closes the connection. Waiting for that close keeps
            // the client from closing first, which would leave its port
            // in TIME_WAIT, where a later listener could not bind it.
            if rows.last() == Some(&None) {
                assert_eq!(tcp.read(&mut buf).unwrap(), 0, "a drop closes");
            }
        }

        let stats = server.shutdown().unwrap();
        assert!(stats.drained);
        assert_eq!(stats.udp_workers_alive(), 1);
        assert!(stats.tcp_acceptor_alive());
        let stats = stats.metrics;
        let count = |row| rows.iter().filter(|r| **r == row).count() as u64;
        let sent = cases.len() as u64;
        assert_eq!(stats.udp_queries, sent + 1);
        assert_eq!(stats.udp_responses, sent + 1 - count(None));
        assert_eq!(stats.tcp_queries, sent);
        assert_eq!(stats.tcp_responses, sent - count(None));
        // Each case went once over each transport.
        assert_eq!(stats.dropped, 2 * count(None));
        assert_eq!(stats.rejected_notimp, 2 * count(Some(Rcode::NotImp)));
        assert_eq!(stats.rejected_formerr, 2 * count(Some(Rcode::FormErr)));
        assert_eq!(stats.rejected_badvers, 2 * count(Some(Rcode::BadVers)));
        assert_eq!(stats.rejected_refused, 2 * count(Some(Rcode::Refused)));
    }
}
