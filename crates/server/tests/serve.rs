//! Integration tests over real loopback sockets: concurrent UDP load,
//! EDE codes on the wire, the TC=1 → TCP retry contract, the
//! malformed-query policy, connection capping, graceful shutdown, and
//! RFC 7766 pipelining (batched answers, a peer that never reads).

use ede_resolver::{Resolver, Vendor, VendorProfile};
use ede_server::{pipeline, ProbeClient, Server, ServerConfig, ServerError};
use ede_testbed::Testbed;
use ede_wire::ede::EdeCode;
use ede_wire::stream::{frame, FrameReader, MAX_FRAME_LEN};
use ede_wire::{Edns, Message, Name, Opcode, Rcode, RrType};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

fn testbed() -> &'static Testbed {
    use std::sync::OnceLock;
    static TB: OnceLock<Testbed> = OnceLock::new();
    TB.get_or_init(Testbed::build)
}

fn qname(label: &str) -> Name {
    Name::parse(&format!("{label}.extended-dns-errors.com")).unwrap()
}

fn spawn(config: ServerConfig) -> (ede_server::ServerHandle, ProbeClient) {
    let handle = Server::spawn(testbed().resolver(Vendor::Cloudflare), config).unwrap();
    let client = ProbeClient::connect(handle.udp_addr(), handle.tcp_addr()).unwrap();
    (handle, client)
}

#[test]
fn concurrent_udp_clients_get_correct_ede_codes() {
    let (handle, _) = spawn(
        ServerConfig::builder()
            .bind("127.0.0.1:0")
            .workers(2)
            .build(),
    );
    let (udp_addr, tcp_addr) = (handle.udp_addr(), handle.tcp_addr());

    // Each case: (label, expected rcode, expected EDE codes on the wire).
    let cases: &[(&str, Rcode, &[EdeCode])] = &[
        ("valid", Rcode::NoError, &[]),
        (
            "rrsig-exp-all",
            Rcode::ServFail,
            &[EdeCode::SignatureExpired],
        ),
        ("bad-zsk", Rcode::ServFail, &[EdeCode::DnssecBogus]),
        ("rrsig-no-all", Rcode::ServFail, &[EdeCode::RrsigsMissing]),
    ];

    let mut joins = Vec::new();
    for (t, &(label, rcode, ede)) in cases.iter().enumerate() {
        joins.push(std::thread::spawn(move || {
            let client = ProbeClient::connect(udp_addr, tcp_addr).unwrap();
            for i in 0..25u16 {
                let id = (t as u16) << 8 | i;
                let exchange = client
                    .query(&Message::query(id, qname(label), RrType::A))
                    .unwrap();
                assert_eq!(exchange.response.id, id);
                assert_eq!(exchange.response.rcode, rcode, "{label}");
                // Repeat queries may add EDE 25 (Cached Error) from the
                // servfail cache on top of the diagnostic code.
                let codes = exchange.response.ede_codes();
                for expected in ede {
                    assert!(codes.contains(expected), "{label}: {codes:?}");
                }
                for code in &codes {
                    assert!(
                        ede.contains(code) || *code == EdeCode::CachedError,
                        "{label}: unexpected {code:?}"
                    );
                }
                assert!(!exchange.retried_over_tcp);
            }
        }));
    }
    for join in joins {
        join.join().unwrap();
    }

    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.metrics.udp_queries, 100);
    assert_eq!(stats.metrics.udp_responses, 100);
    assert_eq!(stats.metrics.udp_truncated, 0);
    assert_eq!(stats.metrics.encode_errors, 0);
    assert!(stats.drained);
    assert!(stats.metrics.handle_latency.total >= 100);
}

#[test]
fn truncated_udp_answer_retries_over_tcp_bit_identical() {
    // Compute the untruncated response out-of-band on an identical
    // resolver, then force the server to truncate every UDP answer.
    let resolver = testbed().resolver(Vendor::Cloudflare);
    let query = Message::query(0x4242, qname("valid"), RrType::A);
    let expected_full = pipeline::answer(&resolver, None, &query).encode().unwrap();

    let (handle, client) = spawn(
        ServerConfig::builder()
            .bind("127.0.0.1:0")
            .workers(1)
            .udp_payload_max(96)
            .build(),
    );

    // Raw UDP leg: the answer must be a TC=1 header+question skeleton.
    let wire = query.encode().unwrap();
    let udp_answer = client.query_udp(&wire).unwrap();
    let udp_decoded = Message::decode(&udp_answer).unwrap();
    assert!(udp_decoded.truncated);
    assert!(udp_decoded.answers.is_empty());
    assert!(udp_answer.len() < expected_full.len());

    // Composite exchange: TC observed, retried over TCP, and the TCP
    // bytes are identical to the untruncated message.
    let exchange = client.query(&query).unwrap();
    assert!(exchange.retried_over_tcp);
    assert_eq!(exchange.response_wire, expected_full);
    assert_eq!(
        exchange.response.ede_codes(),
        Vec::<EdeCode>::new(),
        "valid domain answers clean"
    );

    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.metrics.udp_truncated, 2);
    assert_eq!(stats.metrics.tcp_queries, 1);
    assert_eq!(stats.metrics.tcp_responses, 1);
    assert_eq!(stats.metrics.tcp_conns_accepted, 1);
}

#[test]
fn malformed_query_policy_on_the_wire() {
    let (handle, client) = spawn(
        ServerConfig::builder()
            .bind("127.0.0.1:0")
            .workers(1)
            .build(),
    );
    let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
    probe.connect(handle.udp_addr()).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut buf = [0u8; 512];

    // Too short for a header: silently dropped.
    probe.send(&[0xAB, 0xCD, 0xFF]).unwrap();
    assert!(
        probe.recv(&mut buf).is_err(),
        "short datagram must be dropped"
    );

    // A response where a query belongs: silently dropped.
    let mut resp = Message::query(7, qname("valid"), RrType::A);
    resp.response = true;
    probe.send(&resp.encode().unwrap()).unwrap();
    assert!(probe.recv(&mut buf).is_err(), "responses must be dropped");

    // Valid header, garbage body: FORMERR echoing the ID.
    let mut garbage = Message::query(0xBEEF, qname("valid"), RrType::A)
        .encode()
        .unwrap();
    garbage.truncate(14);
    probe.send(&garbage).unwrap();
    let n = probe.recv(&mut buf).unwrap();
    let reply = Message::decode(&buf[..n]).unwrap();
    assert_eq!(reply.id, 0xBEEF);
    assert_eq!(reply.rcode, Rcode::FormErr);

    // Unimplemented opcode: NOTIMP on both transports, and because the
    // query carried an OPT the reply carries the server's.
    let mut status = Message::query(0x5151, qname("valid"), RrType::A);
    status.opcode = Opcode::Status;
    let status = status.encode().unwrap();
    for reply in [
        client.query_udp(&status).unwrap(),
        client.query_tcp(&status).unwrap(),
    ] {
        let reply = Message::decode(&reply).unwrap();
        assert_eq!(reply.id, 0x5151);
        assert_eq!(reply.rcode, Rcode::NotImp);
        assert_eq!(reply.opcode, Opcode::Status);
        assert_eq!(reply.edns, Some(Edns::with_do()), "DO copied");
    }

    // Out-of-class question: REFUSED with the question echoed.
    let mut chaos = Message::query(0x6161, qname("valid"), RrType::Txt);
    chaos.questions[0].qclass = ede_wire::Class::Ch;
    probe.send(&chaos.encode().unwrap()).unwrap();
    let n = probe.recv(&mut buf).unwrap();
    let reply = Message::decode(&buf[..n]).unwrap();
    assert_eq!(reply.id, 0x6161);
    assert_eq!(reply.rcode, Rcode::Refused);
    assert_eq!(reply.questions.len(), 1);

    // An EDNS version the server does not implement (RFC 6891 §6.1.3):
    // BADVERS on both transports, with the server's own version-0 OPT,
    // the question echoed and nothing resolved — a name that would
    // otherwise earn EDE 7 gets no EDE option.
    let mut v1 = Message::query(0x7171, qname("rrsig-exp-all"), RrType::A);
    v1.edns.as_mut().expect("queries carry an OPT").version = 1;
    let v1 = v1.encode().unwrap();
    for reply in [
        client.query_udp(&v1).unwrap(),
        client.query_tcp(&v1).unwrap(),
    ] {
        let reply = Message::decode(&reply).unwrap();
        assert_eq!(reply.id, 0x7171);
        assert_eq!(reply.rcode, Rcode::BadVers);
        assert!(reply.recursion_desired);
        assert_eq!(reply.questions.len(), 1);
        assert!(reply.answers.is_empty());
        assert_eq!(reply.edns, Some(Edns::with_do()), "DO copied");
    }

    // A second OPT (RFC 6891 §6.1.1): FORMERR on both transports, and
    // because the query did carry an OPT the reply carries the server's.
    let mut two_opts = Message::query(0x8181, qname("valid"), RrType::A)
        .encode()
        .unwrap();
    let opt = two_opts[two_opts.len() - 11..].to_vec();
    two_opts.extend_from_slice(&opt);
    two_opts[11] = 2; // ARCOUNT
    for reply in [
        client.query_udp(&two_opts).unwrap(),
        client.query_tcp(&two_opts).unwrap(),
    ] {
        let reply = Message::decode(&reply).unwrap();
        assert_eq!(reply.id, 0x8181);
        assert_eq!(reply.rcode, Rcode::FormErr);
        assert_eq!(reply.edns, Some(Edns::default()));
    }

    // The DO bit comes back as it was sent (RFC 3225 §3), on an answer
    // and on a rejection, over both transports.
    for dnssec_ok in [true, false] {
        let mut answered = Message::query(0x9191, qname("valid"), RrType::A);
        answered.edns.as_mut().unwrap().dnssec_ok = dnssec_ok;
        let mut refused = answered.clone();
        refused.questions[0].qclass = ede_wire::Class::Ch;
        for (query, rcode) in [(answered, Rcode::NoError), (refused, Rcode::Refused)] {
            let wire = query.encode().unwrap();
            for reply in [
                client.query_udp(&wire).unwrap(),
                client.query_tcp(&wire).unwrap(),
            ] {
                let reply = Message::decode(&reply).unwrap();
                assert_eq!(reply.rcode, rcode);
                let opt = reply.edns.expect("an OPT for an EDNS client");
                assert_eq!(opt.dnssec_ok, dnssec_ok, "{rcode:?}");
            }
        }
    }

    // Already right, pinned over the wire: an unknown option (RFC 6891
    // §6.1.2) is ignored and not echoed, and an advertisement of 100
    // bytes is served as 512 (§6.2.3) — the answer is longer than 100
    // and arrives whole.
    let mut small = Message::query(0xA1A1, qname("valid"), RrType::A);
    let edns = small.edns.as_mut().unwrap();
    edns.udp_payload_size = 100;
    edns.options.push(ede_wire::EdnsOption::Unknown {
        code: 65001,
        data: vec![1, 2, 3],
    });
    let small = small.encode().unwrap();
    for wire in [
        client.query_udp(&small).unwrap(),
        client.query_tcp(&small).unwrap(),
    ] {
        assert!(wire.len() > 100);
        let reply = Message::decode(&wire).unwrap();
        assert_eq!(reply.rcode, Rcode::NoError);
        assert!(!reply.truncated && !reply.answers.is_empty());
        assert_eq!(reply.edns, Some(Edns::with_do()), "nothing echoed");
    }

    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.metrics.dropped, 2);
    assert_eq!(stats.metrics.rejected_formerr, 3);
    assert_eq!(stats.metrics.rejected_notimp, 2);
    assert_eq!(stats.metrics.rejected_refused, 5);
    assert_eq!(stats.metrics.rejected_badvers, 2);
    assert_eq!(stats.metrics.udp_queries, 12);
    assert_eq!(stats.metrics.udp_responses, 10);
    assert_eq!(stats.metrics.udp_truncated, 0);
    assert_eq!(stats.metrics.tcp_queries, 8);
}

#[test]
fn tcp_connection_cap_refuses_excess_conns() {
    let (handle, client) = spawn(
        ServerConfig::builder()
            .bind("127.0.0.1:0")
            .workers(1)
            .tcp_conn_cap(1)
            .tcp_read_timeout(Duration::from_secs(10))
            .build(),
    );

    // Occupy the one slot with an idle connection.
    let holder = TcpStream::connect(handle.tcp_addr()).unwrap();
    // Give the acceptor time to register it.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(handle.stats().active_tcp_conns, 1);

    // Any further connection is closed without an answer.
    let mut refused = TcpStream::connect(handle.tcp_addr()).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let wire = Message::query(1, qname("valid"), RrType::A)
        .encode()
        .unwrap();
    // The write may succeed (buffered) but the read must hit EOF.
    let _ = refused.write_all(&frame(&wire).unwrap());
    let mut buf = [0u8; 64];
    let n = refused.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "over-cap connection must be closed unanswered");

    drop(holder);
    std::thread::sleep(Duration::from_millis(150));

    // With the slot free, TCP service resumes.
    let answer = client.query_tcp(&wire).unwrap();
    assert_eq!(Message::decode(&answer).unwrap().rcode, Rcode::NoError);

    let stats = handle.shutdown().unwrap();
    assert!(stats.metrics.tcp_conns_refused >= 1);
    assert!(stats.metrics.tcp_conns_accepted >= 2);
    assert_eq!(stats.metrics.tcp_responses, 1);
    // Three connections were made and each is one or the other (the
    // wake-up connection of `shutdown` comes after the stop flag).
    let m = &stats.metrics;
    assert_eq!(m.tcp_conns_accepted + m.tcp_conns_refused, 3);
}

#[test]
fn graceful_shutdown_answers_in_flight_tcp_request() {
    let (handle, _) = spawn(
        ServerConfig::builder()
            .bind("127.0.0.1:0")
            .workers(1)
            .drain_deadline(Duration::from_secs(2))
            .build(),
    );
    let tcp_addr = handle.tcp_addr();

    // Open a connection and send only half a frame, then complete it
    // *after* shutdown has been triggered: the drain contract says the
    // in-flight request still gets its answer.
    let mut stream = TcpStream::connect(tcp_addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let wire = Message::query(0x0D0D, qname("rrsig-exp-all"), RrType::A)
        .encode()
        .unwrap();
    let framed = frame(&wire).unwrap();
    let (first, rest) = framed.split_at(framed.len() / 2);
    stream.write_all(first).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let handle = Arc::new(handle);
    let shutdown = {
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || {
            handle.trigger_shutdown();
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    stream.write_all(rest).unwrap();

    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    let mut buf = [0u8; 2048];
    let answer = loop {
        if let Some(frame) = reader.next_frame() {
            break frame;
        }
        let n = stream.read(&mut buf).unwrap();
        assert_ne!(n, 0, "connection closed before answering in-flight request");
        reader.push(&buf[..n]).unwrap();
    };
    let decoded = Message::decode(&answer).unwrap();
    assert_eq!(decoded.id, 0x0D0D);
    assert_eq!(decoded.rcode, Rcode::ServFail);
    assert_eq!(decoded.ede_codes(), vec![EdeCode::SignatureExpired]);
    shutdown.join().unwrap();

    // Every response the client received is accounted for in the final
    // stats: nothing was lost in the drain. The handler thread records
    // tcp_responses after its write returns, which can land a moment
    // after the client has already read the bytes — poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    let stats = loop {
        let stats = handle.stats();
        if stats.metrics.tcp_responses == 1 || std::time::Instant::now() >= deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(stats.metrics.tcp_queries, 1);
    assert_eq!(stats.metrics.tcp_responses, 1);
}

/// Sixteen framed queries for different testbed names, IDs `0x7000..`:
/// clean answers, SERVFAILs with EDE, an NXDOMAIN.
fn pipelined_queries() -> Vec<Vec<u8>> {
    testbed().specs[..16]
        .iter()
        .zip(0x7000..)
        .map(|(spec, id)| {
            let query = Message::query(id, testbed().query_name(spec), RrType::A);
            frame(&query.encode().unwrap()).unwrap()
        })
        .collect()
}

/// Read from `stream` until `want` frames have arrived, or to EOF when
/// `want` is `None`. Panics on a read timeout or an early EOF.
fn read_frames(stream: &mut TcpStream, want: Option<usize>) -> Vec<Vec<u8>> {
    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    let mut frames = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    while want != Some(frames.len()) {
        let n = match stream.read(&mut buf) {
            // The server hung up on bytes it had not read: an EOF too.
            Err(e) if want.is_none() && e.kind() == ErrorKind::ConnectionReset => 0,
            read => read.expect("the server keeps answering"),
        };
        if n == 0 {
            assert_eq!(want, None, "EOF after {} frames", frames.len());
            assert!(!reader.has_partial(), "EOF inside a frame");
            break;
        }
        reader.push(&buf[..n]).unwrap();
        frames.extend(std::iter::from_fn(|| reader.next_frame()));
    }
    frames
}

fn tcp_client(handle: &ede_server::ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.tcp_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

#[test]
fn pipelined_queries_are_answered_in_order_as_if_asked_alone() {
    let (handle, client) = spawn(ServerConfig::builder().bind("127.0.0.1:0").build());
    let queries = pipelined_queries();
    // First touch, so that the answers compared below are all cache hits
    // (a repeated failure legally gains EDE 13 Cached Error).
    for query in &queries {
        client.query_tcp(&query[2..]).unwrap();
    }

    let mut stream = tcp_client(&handle);
    stream.write_all(&queries.concat()).unwrap();
    let answers = read_frames(&mut stream, Some(16));
    for (query, answer) in queries.iter().zip(&answers) {
        let alone = client.query_tcp(&query[2..]).unwrap();
        assert_eq!(answer[..2], query[2..4], "request order");
        assert_eq!(answer[2..], alone[2..], "same bytes as asked alone");
    }
    let codes = |wire: &Vec<u8>| Message::decode(wire).unwrap().ede_codes();
    assert!(answers.iter().any(|a| !codes(a).is_empty()));

    drop(stream);
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.metrics.tcp_responses, 48);
    // 32 lone queries, one write each; the batch in fewer than 16.
    assert!(
        stats.metrics.tcp_writes < 48,
        "{}",
        stats.metrics.tcp_writes
    );
    assert_eq!(stats.metrics.handle_latency.total, 48);
}

#[test]
fn answers_never_wait_for_the_rest_of_a_partial_frame() {
    let (handle, _) = spawn(ServerConfig::builder().bind("127.0.0.1:0").build());
    let queries = pipelined_queries();
    let mut stream = tcp_client(&handle);

    // Three whole frames and half of a fourth, then silence: the three
    // answers must come without the client sending another byte.
    let (half, rest) = queries[3].split_at(queries[3].len() / 2);
    stream
        .write_all(&[&queries[..3].concat(), half].concat())
        .unwrap();
    let answers = read_frames(&mut stream, Some(3));
    stream.write_all(rest).unwrap();
    let fourth = read_frames(&mut stream, Some(1));
    for (query, answer) in queries.iter().zip(answers.iter().chain(&fourth)) {
        assert_eq!(answer[..2], query[2..4]);
    }
    handle.shutdown().unwrap();
}

#[test]
fn a_response_mid_batch_closes_after_the_answers_before_it() {
    let (handle, _) = spawn(ServerConfig::builder().bind("127.0.0.1:0").build());
    let mut queries = pipelined_queries();
    queries[5][2 + 2] |= 0x80; // QR
    let mut stream = tcp_client(&handle);
    stream.write_all(&queries.concat()).unwrap();
    let answers = read_frames(&mut stream, None);
    assert_eq!(answers.len(), 5, "answers before the violation, then EOF");
    for (query, answer) in queries.iter().zip(&answers) {
        assert_eq!(answer[..2], query[2..4]);
    }
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.metrics.dropped, 1);
    assert_eq!(stats.metrics.tcp_responses, 5);
}

/// Whatever the stop flag interrupts, an answer that was earned is
/// delivered: the client gets whole answers, in order, as many as the
/// server took queries up, and the drain completes.
#[test]
fn shutdown_delivers_the_answers_of_a_batch_in_progress() {
    let (handle, _) = spawn(
        ServerConfig::builder()
            .bind("127.0.0.1:0")
            .drain_deadline(Duration::from_secs(2))
            .build(),
    );
    let queries = pipelined_queries();
    let mut stream = tcp_client(&handle);
    // A round trip and a pause first: the handler is up and blocked in
    // `read`, so the batch finds it before the stop flag does (if the
    // flag wins after all, the connection closes on an unread batch,
    // which the assertions below allow for).
    stream.write_all(&queries[0]).unwrap();
    read_frames(&mut stream, Some(1));
    std::thread::sleep(Duration::from_millis(50));

    stream.write_all(&queries.concat()).unwrap();
    let stats = handle.shutdown().unwrap();
    let answers = read_frames(&mut stream, None);
    assert!(stats.drained);
    assert_eq!(stats.metrics.tcp_queries, 1 + answers.len() as u64);
    assert_eq!(stats.metrics.tcp_responses, 1 + answers.len() as u64);
    for (query, answer) in queries.iter().zip(&answers) {
        assert_eq!(answer[..2], query[2..4]);
    }
}

/// A client that pipelines queries and never reads the answers: the
/// handler's write must give up at the same deadline as an idle read, so
/// the thread and the connection slot come back.
#[test]
fn a_peer_that_never_reads_is_closed_at_the_deadline() {
    let (handle, _) = spawn(
        ServerConfig::builder()
            .bind("127.0.0.1:0")
            .tcp_read_timeout(Duration::from_millis(300))
            .drain_deadline(Duration::from_millis(500))
            .build(),
    );
    // ~60 bytes of query for ~800 of answer, sixty-eight to a segment.
    let query = Message::query(0x5107, qname("valid"), RrType::Dnskey);
    let segment = frame(&query.encode().unwrap()).unwrap().repeat(68);
    let stream = TcpStream::connect(handle.tcp_addr()).unwrap();
    stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    // Write until nothing more goes in: the server has stopped reading
    // (it is blocked writing to us) or has already hung up.
    let give_up = std::time::Instant::now() + Duration::from_secs(20);
    while (&stream).write_all(&segment).is_ok() {
        assert!(
            std::time::Instant::now() < give_up,
            "the server never blocked"
        );
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.stats().active_tcp_conns > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.stats().active_tcp_conns, 0, "handler still pinned");
    let stats = handle.shutdown().unwrap();
    assert!(stats.drained);
    assert_eq!(stats.metrics.tcp_read_timeouts, 1);
    assert!(stats.metrics.tcp_responses < stats.metrics.tcp_queries);
    drop(stream);
}

#[test]
fn udp_burst_reconciles_with_stats() {
    let (handle, _) = spawn(
        ServerConfig::builder()
            .bind("127.0.0.1:0")
            .workers(3)
            .build(),
    );
    let (udp_addr, tcp_addr) = (handle.udp_addr(), handle.tcp_addr());

    let mut joins = Vec::new();
    for c in 0..3 {
        joins.push(std::thread::spawn(move || {
            let client = ProbeClient::connect(udp_addr, tcp_addr).unwrap();
            let mut received = 0u64;
            for i in 0..40u16 {
                let label = ["valid", "no-ds", "bad-zsk"][usize::from(i) % 3];
                let exchange = client
                    .query(&Message::query(c * 100 + i, qname(label), RrType::A))
                    .unwrap();
                assert_eq!(exchange.response.id, c * 100 + i);
                received += 1;
            }
            received
        }));
    }
    let received: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();

    let stats = handle.shutdown().unwrap();
    assert_eq!(received, 120);
    assert_eq!(stats.metrics.udp_responses, received);
    assert_eq!(stats.metrics.udp_queries, received);
    assert!(stats.drained);
}

/// A flood of invented names cannot grow a budgeted cache: every
/// NXDOMAIN is an entry with its diagnosis, the store holds 64, and
/// `ServerStats::cache` is where a running server says so.
#[test]
fn a_random_subdomain_flood_stays_inside_the_cache_budget() {
    let tb = testbed();
    let mut config = tb.resolver_config.clone();
    config.max_cache_entries = Some(64);
    let resolver = Resolver::new(
        Arc::clone(&tb.net),
        VendorProfile::new(Vendor::Cloudflare),
        config,
    );
    let handle = Server::spawn(
        resolver,
        ServerConfig::builder()
            .bind("127.0.0.1:0")
            .workers(2)
            .build(),
    )
    .unwrap();
    let client = ProbeClient::connect(handle.udp_addr(), handle.tcp_addr()).unwrap();

    for i in 0..1000u16 {
        let query = Message::query(i, qname(&format!("flood{i}.valid")), RrType::A);
        let exchange = client.query(&query).unwrap();
        assert_eq!(exchange.response.id, i);
        assert_eq!(exchange.response.rcode, Rcode::NxDomain, "flood{i}");
    }

    let cache = handle.stats().cache;
    assert_eq!(cache.misses, 1000);
    assert!(cache.occupancy <= 64, "{cache:?}");
    assert!(cache.evicted > 0, "{cache:?}");
    let rendered = handle.shutdown().unwrap().render();
    assert!(
        rendered.contains("  cache     : 0 hits, 1000 misses, "),
        "{rendered}"
    );
}

/// A burst waits in the socket's queue: one client sends 64 datagrams
/// back to back before reading anything, and the one-at-a-time receive
/// loop must still answer every one of them.
#[test]
fn back_to_back_datagrams_are_all_answered() {
    let (handle, _) = spawn(
        ServerConfig::builder()
            .bind("127.0.0.1:0")
            .workers(1)
            .build(),
    );
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket.connect(handle.udp_addr()).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    for id in 0..64u16 {
        let label = ["valid", "no-ds", "bad-zsk"][usize::from(id) % 3];
        let wire = Message::query(0x4000 + id, qname(label), RrType::A)
            .encode()
            .unwrap();
        socket.send(&wire).unwrap();
    }
    let mut ids = Vec::new();
    let mut buf = [0u8; 4096];
    for _ in 0..64 {
        let n = socket.recv(&mut buf).expect("every datagram is answered");
        ids.push(Message::decode(&buf[..n]).unwrap().id);
    }
    ids.sort_unstable();
    assert_eq!(ids, (0x4000..0x4040).collect::<Vec<u16>>());

    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.metrics.udp_queries, 64);
    assert_eq!(stats.metrics.udp_responses, 64);
}

#[test]
fn bind_failure_is_a_structured_error() {
    // 192.0.2.0/24 is TEST-NET-1: never assigned to a local interface,
    // so the bind fails regardless of privileges.
    let err = Server::spawn(
        testbed().resolver(Vendor::Bind9),
        ServerConfig::builder().bind("192.0.2.1:0").build(),
    )
    .unwrap_err();
    match err {
        ServerError::Bind { addr, .. } => assert_eq!(addr, "192.0.2.1:0"),
        other => panic!("expected Bind error, got {other:?}"),
    }

    let err = Server::spawn(
        testbed().resolver(Vendor::Bind9),
        ServerConfig::builder().workers(0).build(),
    )
    .unwrap_err();
    assert!(matches!(err, ServerError::InvalidConfig(_)));
}
