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
//! `tcp_conn_cap` — connections over the cap are closed immediately and
//! counted as refused rather than left to queue.
//!
//! Handlers enforce an idle deadline (`tcp_read_timeout`) by reading in
//! short timeout chunks and tracking time since the last complete
//! frame; the same deadline bounds a write to a peer that does not read.
//! Pipelined queries (RFC 7766) are answered a batch at a time, one
//! `write` per `read` that brought complete frames ([`serve_stream`]).
//! On shutdown a handler finishes the request it is parsing (the
//! graceful-drain contract: an in-flight query gets its answer), then
//! closes; [`ServerHandle::shutdown`](crate::ServerHandle::shutdown)
//! polls the live-connection gauge until the drain deadline.

use crate::pipeline::{self, Reply};
use crate::server::{is_transient, micros, Shared};
use ede_wire::stream::{FrameReader, MAX_FRAME_LEN};
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handler read-chunk timeout (bounds how often a handler re-checks
/// the stop flag and its idle deadline; data arriving mid-read returns
/// immediately, so this adds no request latency).
const POLL_TICK: Duration = Duration::from_millis(20);

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
        if occupied >= shared.config.tcp_conn_cap {
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
    // A peer that does not read its answers is as slow as one that sends
    // no queries: the same deadline bounds a blocked write.
    let deadline = Some(shared.config.tcp_read_timeout);
    if stream.set_read_timeout(Some(POLL_TICK)).is_ok()
        && stream.set_write_timeout(deadline).is_ok()
    {
        let _ = stream.set_nodelay(true);
        serve_stream(shared, stream);
    }
}

/// Framed queries in, framed responses out, a batch at a time: every
/// complete frame already received is answered into one buffer, which
/// is written before the handler blocks in `read`, when it passes
/// [`FLUSH_AT`], and before the connection closes for any reason. A lone
/// query is one write; sixteen in one segment are one write, not sixteen.
fn serve_stream<S: Read + Write>(shared: &Shared, mut stream: S) {
    let metrics = &shared.metrics;
    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    let mut buf = [0u8; 4096];
    let mut batch = Batch {
        out: Vec::with_capacity(4096),
        unsent: Vec::new(),
    };
    let mut last_activity = Instant::now();

    loop {
        // Answer what has arrived, up to a full buffer or a violation...
        let mut open = true;
        while open && batch.out.len() <= FLUSH_AT {
            match reader.with_frame(|request| {
                last_activity = Instant::now();
                batch.answer(shared, request, last_activity)
            }) {
                Some(keep_open) => open = keep_open,
                None => break,
            }
        }
        let more_buffered = batch.out.len() > FLUSH_AT;
        // ...and hand it to the kernel in one write. Only then are its
        // answers counted as sent and their handling times taken: bytes
        // in to bytes out, the wait for the rest of the batch included.
        if !batch.out.is_empty() {
            let written = stream.write_all(&batch.out);
            batch.out.clear();
            if let Err(e) = written {
                if is_transient(e.kind()) {
                    metrics.tcp_read_timeout();
                }
                return;
            }
            metrics.tcp_write();
            let sent = Instant::now();
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
        if shared.stop.load(Ordering::Acquire)
            && (!reader.has_partial() || last_activity.elapsed() >= shared.config.drain_deadline)
        {
            return;
        }
        if last_activity.elapsed() >= shared.config.tcp_read_timeout {
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
        let reply = match pipeline::serve(&shared.resolver, metrics, request) {
            Reply::Nothing => return false,
            // No TC on a stream: the full answer always fits the frame.
            Reply::Rejection(reply) | Reply::Answer(reply, _) => reply,
        };
        // The length prefix is filled in once the length is known.
        let at = self.out.len();
        self.out.extend_from_slice(&[0, 0]);
        let encoded = reply.encode_into(&mut self.out);
        let (Ok(()), Ok(len)) = (encoded, u16::try_from(self.out.len() - at - 2)) else {
            self.out.truncate(at);
            metrics.encode_error();
            return false;
        };
        self.out[at..at + 2].copy_from_slice(&len.to_be_bytes());
        self.unsent.push((started, len.into()));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use ede_resolver::Vendor;
    use ede_testbed::Testbed;
    use ede_trace::{ServerMetrics, ServerMetricsSnapshot};
    use ede_wire::stream::frame;
    use ede_wire::{Class, Message, Rcode, RrType};
    use std::collections::VecDeque;
    use std::io;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// An in-memory peer: each `read` delivers the next scripted chunk,
    /// or as much of it as the buffer takes (then EOF), each `write` call
    /// is kept as one element.
    #[derive(Default)]
    struct Scripted<'a> {
        reads: VecDeque<Vec<u8>>,
        writes: Vec<Vec<u8>>,
        write_error: Option<ErrorKind>,
        /// Raised as a read delivers: shutdown finds the handler with
        /// that chunk's frames still to answer.
        stop_on_read: Option<&'a AtomicBool>,
    }

    impl Read for Scripted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(mut chunk) = self.reads.pop_front() else {
                return Ok(0);
            };
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
                return Err(kind.into());
            }
            self.writes.push(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
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

    fn shared(tb: &Testbed) -> Shared {
        Shared {
            resolver: tb.resolver(Vendor::Cloudflare),
            metrics: Arc::new(ServerMetrics::new()),
            stop: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            config: ServerConfig::default(),
        }
    }

    /// Run `peer`'s script through a fresh handler; what it counted.
    fn serve(tb: &Testbed, peer: &mut Scripted) -> ServerMetricsSnapshot {
        let shared = shared(tb);
        serve_stream(&shared, peer);
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
        // A DNSKEY answer is ~800 bytes: 52 of them are 40 KiB, asked for
        // in one 3 KiB read.
        let queries = framed_queries(&tb, 52, RrType::Dnskey, Some("valid"));
        let mut peer = Scripted::default();
        peer.reads.push_back(queries.concat());
        let stats = serve(&tb, &mut peer);
        let total: usize = peer.writes.iter().map(Vec::len).sum();
        assert!(total > 40 * 1024, "{total}");
        let answer = total / 52; // all alike but for the ID

        // One write each time the buffer passes 16 KiB, ending with the
        // answer that crossed, plus the last.
        let (last, crossed) = peer.writes.split_last().unwrap();
        assert_eq!(crossed.len(), 2);
        for write in crossed {
            assert!(write.len() > FLUSH_AT && write.len() - answer <= FLUSH_AT);
        }
        assert!(last.len() <= FLUSH_AT);
        assert_eq!((stats.tcp_responses, stats.tcp_writes), (52, 3));
        let ids: Vec<u16> = peer.writes.iter().flat_map(|w| answer_ids(w)).collect();
        assert_eq!(ids, (0..52).collect::<Vec<u16>>());
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
        serve_stream(&shared, &mut peer);
        assert_eq!(peer.reads.len(), 1);
        assert_eq!(peer.writes.len(), 1);
        assert_eq!(answer_ids(&peer.writes[0]), (0..16).collect::<Vec<u16>>());
        assert_eq!(shared.metrics.snapshot().tcp_responses, 16);
    }

    #[test]
    fn a_failed_write_closes_and_only_a_timeout_counts_as_one() {
        let tb = Testbed::build();
        let queries = framed_queries(&tb, 3, RrType::A, None);
        for (kind, timeouts) in [
            (ErrorKind::WouldBlock, 1),
            (ErrorKind::TimedOut, 1),
            (ErrorKind::BrokenPipe, 0),
        ] {
            let mut peer = Scripted {
                write_error: Some(kind),
                ..Default::default()
            };
            // The second read is never reached.
            peer.reads
                .extend([queries[..2].concat(), queries[2].clone()]);
            let stats = serve(&tb, &mut peer);
            assert_eq!(peer.reads.len(), 1, "{kind:?}");
            assert_eq!(stats.tcp_read_timeouts, timeouts, "{kind:?}");
            assert_eq!((stats.tcp_queries, stats.tcp_responses), (2, 0));
            assert_eq!(stats.tcp_writes, 0);
            assert_eq!(stats.handle_latency.total, 0);
        }
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
        Some(match query.first_question() {
            None => Rcode::FormErr,
            Some(q) if q.qclass != Class::In => Rcode::Refused,
            Some(_) => Rcode::NoError,
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
    /// flips of it up to `total` cases.
    fn mutations(id: u16, qname: &[u8], total: usize, rng: &mut Rng) -> Vec<Vec<u8>> {
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

        while cases.len() < total {
            let mut wire = base.clone();
            wire[rng.below(base.len())] ^= 1 << rng.below(8);
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

    /// Structure-aware mutation of the 63 testbed queries through the
    /// whole request path, on both transports: `classify → answer →
    /// encode_udp` a case at a time, and `serve_stream` over a few
    /// hundred framed cases a connection.
    #[test]
    fn mutated_queries_never_break_the_request_path() {
        use crate::pipeline::{answer, classify, encode_udp, QueryDisposition};

        let tb = Testbed::build();
        let mut rng = Rng(0x0024_5eed);
        let cases: Vec<Vec<u8>> = (0..tb.specs.len())
            .flat_map(|i| {
                let name = tb.query_name(&tb.specs[i]);
                let mut qname = Vec::new();
                name.encode(&mut qname, None);
                let query = Message::query(i as u16, name, RrType::A);
                assert_eq!(raw_query(i as u16, &qname), query.encode().unwrap());
                mutations(i as u16, &qname, 320, &mut rng)
            })
            .collect();
        assert!(cases.len() >= 20_000, "{}", cases.len());
        let rows: Vec<Option<Rcode>> = cases.iter().map(|c| first_matching_row(c)).collect();
        // Every row of the table is met.
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

        // A connection carries up to 300 cases, ending with its first
        // drop (a drop closes it); the datagram path takes the same
        // cases just before, so the stream meets their answers cached.
        let shared = shared(&tb);
        let cap = shared.config.udp_payload_max;
        let mut at = 0;
        while at < cases.len() {
            let first_drop = rows[at..].iter().take(300).position(Option::is_none);
            let end = at + first_drop.map_or(300.min(cases.len() - at), |d| d + 1);
            let batch = || cases[at..end].iter().zip(&rows[at..end]);

            for (case, row) in batch() {
                let (reply, limit) = match (classify(case), row) {
                    (QueryDisposition::Drop(_), None) => continue,
                    (QueryDisposition::Reject(reply, _), Some(row)) if reply.rcode == *row => {
                        (reply.encode().unwrap(), 512)
                    }
                    (QueryDisposition::Resolve(query), Some(Rcode::NoError)) => {
                        let reply = answer(&shared.resolver, None, &query);
                        let (bytes, _) = encode_udp(&reply, &query, cap).unwrap();
                        (bytes, query.advertised_payload_size().min(cap))
                    }
                    (other, row) => panic!("{case:02x?}: {other:?}, the table says {row:?}"),
                };
                assert!(reply.len() <= usize::from(limit), "{case:02x?}");
                assert_reply_fits(case, row.unwrap(), &reply);
            }

            let mut peer = Scripted::default();
            let frames = cases[at..end].iter().map(|c| frame(c).unwrap());
            peer.reads.push_back(frames.flatten().collect());
            serve_stream(&shared, &mut peer);
            let mut reader = FrameReader::new(MAX_FRAME_LEN);
            reader.push(&peer.writes.concat()).unwrap();
            for (case, row) in batch() {
                let Some(row) = row else { continue };
                let reply = reader.next_frame().expect("a reply per request");
                assert_reply_fits(case, *row, &reply);
            }
            assert!(reader.next_frame().is_none() && !reader.has_partial());
            at = end;
        }
        let stats = shared.metrics.snapshot();
        let count = |row| rows.iter().filter(|r| **r == row).count() as u64;
        assert_eq!(stats.tcp_queries, cases.len() as u64);
        assert_eq!(stats.dropped, count(None));
        assert_eq!(stats.rejected_notimp, count(Some(Rcode::NotImp)));
        assert_eq!(stats.rejected_formerr, count(Some(Rcode::FormErr)));
        assert_eq!(stats.rejected_badvers, count(Some(Rcode::BadVers)));
        assert_eq!(stats.rejected_refused, count(Some(Rcode::Refused)));
        assert_eq!(stats.tcp_responses, cases.len() as u64 - count(None));
    }
}
