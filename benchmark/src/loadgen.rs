//! The load generator: one thread, one socket, a closed loop with a
//! pipelined window of [`WINDOW`] outstanding queries correlated by DNS
//! ID. Also the echo servers that calibrate what the box alone costs.
//!
//! Why this shape (numbers in README.md): window-1 ping-pong is bimodal
//! on a two-core VM depending on vCPU halt/wake, two ping-pong threads
//! swing 2x, and a spinning open-loop generator is itself descheduled
//! for tens of milliseconds.

use crate::fixtures::{QuerySet, WINDOW};
use crate::procfs;
use ede_wire::stream::{FrameReader, MAX_FRAME_LEN};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Silence after which every outstanding query counts as failed and the
/// window is refilled.
const SILENCE: Duration = Duration::from_millis(200);

/// Hash of a response with its ID (bytes 0–1) left out, never 0. Eight
/// bytes at a time: about a nanosecond per word, so checking every
/// response costs the timed loop well under 1 %.
pub fn response_hash(wire: &[u8]) -> u64 {
    let body = wire.get(2..).unwrap_or(&[]);
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ body.len() as u64;
    let mut chunks = body.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(0x0000_0100_0000_01B3);
    (h ^ (h >> 32)) | 1
}

/// What the served side saw per op, for the answer oracle. The first
/// response to op `i` is recorded; every later one (the next slice
/// replays the same stream) must hash the same. After the timed slices
/// the in-process replay checks the recorded hashes themselves.
pub struct Observed {
    hashes: Vec<u64>,
}

impl Observed {
    pub fn new(ops: usize) -> Observed {
        Observed {
            hashes: vec![0; ops],
        }
    }

    /// Record or compare; `false` is a wrong answer.
    #[inline]
    pub(crate) fn check(&mut self, op: usize, wire: &[u8]) -> bool {
        let h = response_hash(wire);
        let slot = &mut self.hashes[op];
        if *slot == 0 {
            *slot = h;
            true
        } else {
            *slot == h
        }
    }

    /// Per-op hashes; 0 where no response was ever seen.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }
}

/// The outstanding-query table: ID correlation and timeout accounting.
pub struct Window {
    slots: [Slot; WINDOW],
    live: usize,
    next_id: u16,
}

#[derive(Clone, Copy)]
struct Slot {
    id: u16,
    op: u32,
    sent: Instant,
    live: bool,
}

impl Window {
    pub fn new(now: Instant) -> Window {
        Window {
            slots: [Slot {
                id: 0,
                op: 0,
                sent: now,
                live: false,
            }; WINDOW],
            live: 0,
            next_id: 0,
        }
    }

    pub fn outstanding(&self) -> usize {
        self.live
    }

    pub fn has_room(&self) -> bool {
        self.live < WINDOW
    }

    /// Claim a slot for `op`; returns the DNS ID to send it under. IDs
    /// count up, so an ID is not reused until 65 536 later sends.
    pub fn issue(&mut self, op: u32, now: Instant) -> u16 {
        let slot = self
            .slots
            .iter_mut()
            .find(|s| !s.live)
            .expect("issue() with a full window");
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        *slot = Slot {
            id,
            op,
            sent: now,
            live: true,
        };
        self.live += 1;
        id
    }

    /// A response carrying `id` arrived: free its slot and return the op
    /// and when it was sent. `None` for an ID that is not outstanding (a
    /// late answer to a query already written off, or a duplicate).
    pub fn complete(&mut self, id: u16) -> Option<(u32, Instant)> {
        let slot = self.slots.iter_mut().find(|s| s.live && s.id == id)?;
        slot.live = false;
        self.live -= 1;
        Some((slot.op, slot.sent))
    }

    /// Write off everything outstanding; returns how many that was.
    pub fn expire_all(&mut self) -> usize {
        let n = self.live;
        for s in &mut self.slots {
            s.live = false;
        }
        self.live = 0;
        n
    }
}

/// One slice as the client saw it.
#[derive(Debug, Default, Clone)]
pub struct SliceResult {
    pub attempted: u64,
    pub completed: u64,
    /// Never answered within [`SILENCE`].
    pub unanswered: u64,
    /// Too short to carry an ID, or an unparsable frame.
    pub undecodable: u64,
    /// Answered, but not with the bytes seen for this op before.
    pub wrong: u64,
    /// Responses whose ID matched nothing outstanding.
    pub stale: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Send→receive per completed op, ns, ascending.
    pub latencies_ns: Vec<u32>,
}

impl SliceResult {
    pub fn failed(&self) -> u64 {
        self.unanswered + self.undecodable + self.wrong
    }
}

/// Transport under the closed loop: how one query leaves and how
/// responses come back.
trait Link {
    /// Queue one query; it is on the wire at the latest after
    /// [`flush`](Link::flush).
    fn send(&mut self, wire: &[u8]) -> std::io::Result<()>;
    fn flush(&mut self) -> std::io::Result<()>;
    /// Wait up to [`SILENCE`] and hand every response received to
    /// `on_response`. `Ok(false)` means silence.
    fn receive(&mut self, on_response: &mut dyn FnMut(&[u8])) -> std::io::Result<bool>;
}

struct UdpLink {
    socket: UdpSocket,
    buf: [u8; 4096],
}

impl Link for UdpLink {
    fn send(&mut self, wire: &[u8]) -> std::io::Result<()> {
        self.socket.send(wire).map(drop)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn receive(&mut self, on_response: &mut dyn FnMut(&[u8])) -> std::io::Result<bool> {
        match self.socket.recv(&mut self.buf) {
            Ok(n) => {
                on_response(&self.buf[..n]);
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

struct TcpLink {
    stream: TcpStream,
    reader: FrameReader,
    buf: [u8; 16 * 1024],
    out: Vec<u8>,
}

impl Link for TcpLink {
    /// Frames queue up and leave in one write: every response that came
    /// in one read is answered by one segment of new queries, as a
    /// pipelining client does. One write per query instead made the run
    /// flip between a lockstep and a batched regime (73 k–153 k ops/s
    /// from slice to slice).
    fn send(&mut self, wire: &[u8]) -> std::io::Result<()> {
        self.out
            .extend_from_slice(&(wire.len() as u16).to_be_bytes());
        self.out.extend_from_slice(wire);
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        written
    }

    fn receive(&mut self, on_response: &mut dyn FnMut(&[u8])) -> std::io::Result<bool> {
        match self.stream.read(&mut self.buf) {
            Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.reader
                    .push(&self.buf[..n])
                    .map_err(|_| std::io::Error::from(ErrorKind::InvalidData))?;
                while let Some(frame) = self.reader.next_frame() {
                    on_response(&frame);
                }
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Drive `stream` through `link` once. The op count is fixed; the loop
/// ends when every op is answered or written off. `stream[i]` is op
/// `base + i` of what `observed` holds.
fn closed_loop(
    link: &mut dyn Link,
    queries: &QuerySet,
    stream: &[u32],
    base: usize,
    observed: &mut Observed,
) -> SliceResult {
    let mut result = SliceResult {
        attempted: stream.len() as u64,
        latencies_ns: Vec::with_capacity(stream.len()),
        ..Default::default()
    };
    let mut scratch = [0u8; 512];
    let cpu_before = procfs::cpu_seconds();
    let started = Instant::now();
    let mut window = Window::new(started);
    let mut next = 0usize;

    // A plain function, not a closure: a closure would hold `window` and
    // `link` borrowed across the receive callback below.
    fn send_one(
        link: &mut dyn Link,
        window: &mut Window,
        queries: &QuerySet,
        stream: &[u32],
        next: &mut usize,
        scratch: &mut [u8; 512],
    ) {
        let wire = &queries.wires[stream[*next] as usize];
        let msg = &mut scratch[..wire.len()];
        msg.copy_from_slice(wire);
        let id = window.issue(*next as u32, Instant::now());
        msg[..2].copy_from_slice(&id.to_be_bytes());
        *next += 1;
        // A failed send is an op that will never be answered: the
        // silence timeout writes it off.
        let _ = link.send(msg);
    }

    while next < stream.len() && window.has_room() {
        send_one(link, &mut window, queries, stream, &mut next, &mut scratch);
    }
    let _ = link.flush();
    while window.outstanding() > 0 {
        let got = link.receive(&mut |wire: &[u8]| {
            let now = Instant::now();
            if wire.len() < 2 {
                result.undecodable += 1;
                return;
            }
            let id = u16::from_be_bytes([wire[0], wire[1]]);
            match window.complete(id) {
                Some((op, sent)) => {
                    result.completed += 1;
                    let ns = now.duration_since(sent).as_nanos();
                    result
                        .latencies_ns
                        .push(u32::try_from(ns).unwrap_or(u32::MAX));
                    if !observed.check(base + op as usize, wire) {
                        result.wrong += 1;
                    }
                }
                None => result.stale += 1,
            }
        });
        match got {
            Ok(true) => {}
            Ok(false) => result.unanswered += window.expire_all() as u64,
            Err(_) => {
                // The link is gone: everything outstanding and unsent
                // is unanswered.
                result.unanswered += window.expire_all() as u64 + (stream.len() - next) as u64;
                next = stream.len();
            }
        }
        while next < stream.len() && window.has_room() {
            send_one(link, &mut window, queries, stream, &mut next, &mut scratch);
        }
        // As with a failed send: what did not leave is written off by
        // the silence timeout.
        let _ = link.flush();
    }
    result.wall_s = started.elapsed().as_secs_f64();
    result.cpu_s = procfs::cpu_seconds() - cpu_before;
    result.latencies_ns.sort_unstable();
    result
}

/// The generator's end of one socket or connection, kept across the
/// segments of a slice: a TCP client that reconnected per segment would
/// measure the acceptor.
pub struct Client {
    link: Box<dyn Link>,
}

impl Client {
    pub fn udp(server: SocketAddr) -> Client {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind a loopback UDP socket");
        socket.connect(server).expect("connect the UDP socket");
        socket
            .set_read_timeout(Some(SILENCE))
            .expect("set the read timeout");
        Client {
            link: Box::new(UdpLink {
                socket,
                buf: [0; 4096],
            }),
        }
    }

    /// One persistent RFC 7766 connection.
    pub fn tcp(server: SocketAddr) -> Client {
        let stream = TcpStream::connect(server).expect("connect to the loopback server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(SILENCE))
            .expect("set the read timeout");
        Client {
            link: Box::new(TcpLink {
                stream,
                reader: FrameReader::new(MAX_FRAME_LEN),
                buf: [0; 16 * 1024],
                out: Vec::with_capacity(WINDOW * 514),
            }),
        }
    }

    /// One closed-loop pass over `stream`, whose first op is op `base` of
    /// what `observed` holds.
    pub fn run(
        &mut self,
        queries: &QuerySet,
        stream: &[u32],
        base: usize,
        observed: &mut Observed,
    ) -> SliceResult {
        closed_loop(self.link.as_mut(), queries, stream, base, observed)
    }
}

/// One pass over `stream` on a UDP socket of its own.
#[cfg(test)]
pub fn udp_slice(
    server: SocketAddr,
    queries: &QuerySet,
    stream: &[u32],
    observed: &mut Observed,
) -> SliceResult {
    Client::udp(server).run(queries, stream, 0, observed)
}

/// One pass over `stream` on a TCP connection of its own.
#[cfg(test)]
pub fn tcp_slice(
    server: SocketAddr,
    queries: &QuerySet,
    stream: &[u32],
    observed: &mut Observed,
) -> SliceResult {
    Client::tcp(server).run(queries, stream, 0, observed)
}

/// `n` fresh-connection exchanges — connect, one framed query, close:
/// what a client does after a TC=1 answer. Uses the first `n` ops of
/// `stream`. The result's latencies run from before `connect` to the
/// complete framed answer.
pub fn fresh_conn_leg(
    server: SocketAddr,
    queries: &QuerySet,
    stream: &[u32],
    n: usize,
    observed: &mut Observed,
) -> SliceResult {
    let n = n.min(stream.len());
    let mut result = SliceResult {
        attempted: n as u64,
        latencies_ns: Vec::with_capacity(n),
        ..Default::default()
    };
    let cpu_before = procfs::cpu_seconds();
    let started = Instant::now();
    for (op, &q) in stream[..n].iter().enumerate() {
        let wire = &queries.wires[q as usize];
        let t0 = Instant::now();
        match fresh_exchange(server, wire, op as u16) {
            Ok(Some(answer)) => {
                result.completed += 1;
                let ns = t0.elapsed().as_nanos();
                result
                    .latencies_ns
                    .push(u32::try_from(ns).unwrap_or(u32::MAX));
                if answer.len() < 2 || answer[..2] != (op as u16).to_be_bytes() {
                    result.undecodable += 1;
                } else if !observed.check(op, &answer) {
                    result.wrong += 1;
                }
            }
            Ok(None) | Err(_) => result.unanswered += 1,
        }
    }
    result.wall_s = started.elapsed().as_secs_f64();
    result.cpu_s = procfs::cpu_seconds() - cpu_before;
    result.latencies_ns.sort_unstable();
    result
}

fn fresh_exchange(server: SocketAddr, wire: &[u8], id: u16) -> std::io::Result<Option<Vec<u8>>> {
    let mut conn = TcpStream::connect(server)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(Duration::from_secs(1)))?;
    let mut out = Vec::with_capacity(wire.len() + 2);
    out.extend_from_slice(&(wire.len() as u16).to_be_bytes());
    out.extend_from_slice(wire);
    out[2..4].copy_from_slice(&id.to_be_bytes());
    conn.write_all(&out)?;
    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = reader.next_frame() {
            return Ok(Some(frame));
        }
        match conn.read(&mut buf) {
            Ok(0) => return Ok(None),
            Ok(n) => reader
                .push(&buf[..n])
                .map_err(|_| std::io::Error::from(ErrorKind::InvalidData))?,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(None)
            }
            Err(e) => return Err(e),
        }
    }
}

/// The benchmark's own server: answers each query with a canned response
/// of the size the real server would send, doing no DNS work. What it
/// scores under the same generator is the floor the box sets.
pub struct EchoServer {
    pub udp_addr: SocketAddr,
    pub tcp_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// Canned responses keyed by [`response_hash`] of the query (which
/// ignores the ID).
pub type Canned = HashMap<u64, Vec<u8>>;

impl EchoServer {
    pub fn spawn(canned: Canned) -> EchoServer {
        let udp = UdpSocket::bind("127.0.0.1:0").expect("bind the echo UDP socket");
        let udp_addr = udp.local_addr().expect("echo UDP address");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind the echo TCP listener");
        let tcp_addr = listener.local_addr().expect("echo TCP address");
        let stop = Arc::new(AtomicBool::new(false));
        let canned = Arc::new(canned);

        let udp_thread = {
            let (stop, canned) = (Arc::clone(&stop), Arc::clone(&canned));
            std::thread::spawn(move || echo_udp(&udp, &canned, &stop))
        };
        let tcp_thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || echo_tcp(&listener, &canned, &stop))
        };
        EchoServer {
            udp_addr,
            tcp_addr,
            stop,
            threads: vec![udp_thread, tcp_thread],
        }
    }

    /// Stop both threads and wait for them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            t.join().expect("echo thread panicked");
        }
    }
}

const ECHO_TICK: Duration = Duration::from_millis(25);

fn answer_into(canned: &Canned, query: &[u8], out: &mut Vec<u8>) -> bool {
    out.clear();
    match canned.get(&response_hash(query)) {
        Some(resp) if query.len() >= 2 => {
            out.extend_from_slice(resp);
            out[..2].copy_from_slice(&query[..2]);
            true
        }
        _ => false,
    }
}

fn echo_udp(socket: &UdpSocket, canned: &Canned, stop: &AtomicBool) {
    socket
        .set_read_timeout(Some(ECHO_TICK))
        .expect("set the echo read timeout");
    let mut buf = [0u8; 4096];
    let mut out = Vec::with_capacity(4096);
    while !stop.load(Ordering::SeqCst) {
        if let Ok((n, peer)) = socket.recv_from(&mut buf) {
            if answer_into(canned, &buf[..n], &mut out) {
                let _ = socket.send_to(&out, peer);
            }
        }
    }
}

/// Serves one connection at a time: the generator opens exactly one.
fn echo_tcp(listener: &TcpListener, canned: &Canned, stop: &AtomicBool) {
    listener
        .set_nonblocking(true)
        .expect("make the echo listener non-blocking");
    while !stop.load(Ordering::SeqCst) {
        let Ok((mut conn, _)) = listener.accept() else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        if conn.set_nonblocking(false).is_err()
            || conn.set_read_timeout(Some(ECHO_TICK)).is_err()
            || conn.set_nodelay(true).is_err()
        {
            continue;
        }
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        let mut buf = [0u8; 16 * 1024];
        let mut out = Vec::with_capacity(4096);
        let mut framed = Vec::with_capacity(4096);
        'conn: while !stop.load(Ordering::SeqCst) {
            match conn.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    if reader.push(&buf[..n]).is_err() {
                        break;
                    }
                    while let Some(query) = reader.next_frame() {
                        if answer_into(canned, &query, &mut out) {
                            framed.clear();
                            framed.extend_from_slice(&(out.len() as u16).to_be_bytes());
                            framed.extend_from_slice(&out);
                            if conn.write_all(&framed).is_err() {
                                break 'conn;
                            }
                        }
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_wire::{Message, Name, RrType};

    #[test]
    fn ids_correlate_out_of_order_and_slots_recycle() {
        let t0 = Instant::now();
        let mut w = Window::new(t0);
        let ids: Vec<u16> = (0..WINDOW as u32).map(|op| w.issue(op, t0)).collect();
        assert!(!w.has_room());
        assert_eq!(w.outstanding(), WINDOW);
        // Answers arrive in reverse: each ID maps back to its own op.
        for (op, &id) in ids.iter().enumerate().rev() {
            assert_eq!(w.complete(id).map(|(o, _)| o), Some(op as u32));
        }
        assert_eq!(w.outstanding(), 0);
        // A duplicate of an answered ID matches nothing.
        assert!(w.complete(ids[3]).is_none());
        // A long-outstanding op does not collide with later ones that
        // land in recycled slots.
        let old = w.issue(100, t0);
        for op in 0..1000u32 {
            let id = w.issue(op, t0);
            assert_ne!(id, old);
            assert_eq!(w.complete(id).map(|(o, _)| o), Some(op));
        }
        assert_eq!(w.complete(old).map(|(o, _)| o), Some(100));
    }

    #[test]
    fn timeout_writes_off_the_window_and_late_answers_are_stale() {
        let t0 = Instant::now();
        let mut w = Window::new(t0);
        let a = w.issue(1, t0);
        let b = w.issue(2, t0);
        assert_eq!(w.complete(a).map(|(o, _)| o), Some(1));
        assert_eq!(w.expire_all(), 1, "only the unanswered op is written off");
        assert_eq!(w.outstanding(), 0);
        assert!(
            w.complete(b).is_none(),
            "a late answer is not counted twice"
        );
        assert_eq!(w.expire_all(), 0);
        assert!(w.has_room());
    }

    #[test]
    fn ids_wrap_without_panicking() {
        let t0 = Instant::now();
        let mut w = Window::new(t0);
        for op in 0..70_000u32 {
            let id = w.issue(op, t0);
            assert_eq!(id, op as u16);
            assert!(w.complete(id).is_some());
        }
    }

    #[test]
    fn response_hash_ignores_the_id_only() {
        let a = [0x12, 0x34, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
        let mut b = a;
        b[0] = 0xFF;
        b[1] = 0xEE;
        assert_eq!(response_hash(&a), response_hash(&b));
        for i in 2..a.len() {
            let mut c = a;
            c[i] ^= 1;
            assert_ne!(response_hash(&a), response_hash(&c), "byte {i}");
        }
        assert_ne!(response_hash(&a), response_hash(&a[..12]));
        assert_ne!(response_hash(&[]), 0);
    }

    #[test]
    fn observed_records_first_and_compares_later() {
        let mut o = Observed::new(2);
        assert!(o.check(0, b"\0\0abc"));
        assert!(o.check(0, b"\x07\x07abc"), "same body, other ID");
        assert!(!o.check(0, b"\0\0abd"));
        assert_eq!(o.hashes()[1], 0);
    }

    fn echo_fixture() -> (QuerySet, Vec<u32>, Canned) {
        let names: Vec<Name> = (0..5)
            .map(|i| Name::parse(&format!("n{i}.example")).unwrap())
            .collect();
        let wires: Vec<Vec<u8>> = names
            .iter()
            .map(|n| Message::query(0, n.clone(), RrType::A).encode().unwrap())
            .collect();
        let canned = wires
            .iter()
            .enumerate()
            .map(|(i, w)| (response_hash(w), vec![i as u8; 40 + i]))
            .collect();
        let stream = (0..2_000u32).map(|i| i % 5).collect();
        (QuerySet { names, wires }, stream, canned)
    }

    #[test]
    fn closed_loop_over_udp_and_tcp_echo_completes_every_op() {
        let (queries, stream, canned) = echo_fixture();
        let echo = EchoServer::spawn(canned);
        let mut observed = Observed::new(stream.len());
        let udp = udp_slice(echo.udp_addr, &queries, &stream, &mut observed);
        assert_eq!((udp.completed, udp.failed(), udp.stale), (2_000, 0, 0));
        assert_eq!(udp.latencies_ns.len(), 2_000);
        assert!(udp.latencies_ns.windows(2).all(|w| w[0] <= w[1]));
        // The same stream over TCP must see the same bytes per op.
        let tcp = tcp_slice(echo.tcp_addr, &queries, &stream, &mut observed);
        assert_eq!((tcp.completed, tcp.failed()), (2_000, 0));
        echo.shutdown();
        assert!(observed.hashes().iter().all(|&h| h != 0));
    }

    #[test]
    fn segments_on_one_client_fill_their_own_part_of_the_stream() {
        let (queries, stream, canned) = echo_fixture();
        let echo = EchoServer::spawn(canned);
        let mut observed = Observed::new(stream.len());
        for transport_client in [Client::udp(echo.udp_addr), Client::tcp(echo.tcp_addr)] {
            let mut client = transport_client;
            for (i, segment) in stream.chunks(700).enumerate() {
                let r = client.run(&queries, segment, i * 700, &mut observed);
                assert_eq!((r.completed as usize, r.failed()), (segment.len(), 0));
            }
        }
        echo.shutdown();
        assert!(observed.hashes().iter().all(|&h| h != 0));
        // A segment checked against the wrong part of the stream is a
        // run of wrong answers: the base is what lines them up.
        let echo = EchoServer::spawn(echo_fixture().2);
        let r = Client::udp(echo.udp_addr).run(&queries, &stream[..100], 1, &mut observed);
        echo.shutdown();
        assert_eq!(r.wrong, 100);
    }

    #[test]
    fn silence_counts_every_op_as_unanswered() {
        // A bound socket nobody reads from: every query is lost.
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (queries, stream, _) = echo_fixture();
        let mut observed = Observed::new(stream.len());
        let r = udp_slice(
            sink.local_addr().unwrap(),
            &queries,
            &stream[..40],
            &mut observed,
        );
        assert_eq!((r.attempted, r.completed, r.unanswered), (40, 0, 40));
        assert_eq!(r.failed(), 40);
    }

    #[test]
    fn a_changed_answer_is_a_wrong_answer() {
        let (queries, stream, canned) = echo_fixture();
        let mut observed = Observed::new(stream.len());
        let echo = EchoServer::spawn(canned.clone());
        let first = udp_slice(echo.udp_addr, &queries, &stream[..100], &mut observed);
        echo.shutdown();
        assert_eq!(first.wrong, 0);
        let mut altered = canned;
        altered.get_mut(&response_hash(&queries.wires[2])).unwrap()[10] ^= 0xFF;
        let echo = EchoServer::spawn(altered);
        let second = udp_slice(echo.udp_addr, &queries, &stream[..100], &mut observed);
        echo.shutdown();
        assert_eq!(second.wrong, 20, "every fifth op asks for name 2");
        assert_eq!(second.completed, 100);
    }
}
