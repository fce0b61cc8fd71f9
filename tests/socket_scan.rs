//! The socket path on the scan world: the scan world's resolver served
//! over loopback UDP and TCP answers every planted category as the same
//! resolver called in process does, and a repeat of a name — an
//! answer-cache hit — carries the EDE list a profile emits over the
//! first answer's diagnosis, with Cached Error beside it when that
//! answer was a failure.

use extended_dns_errors::prelude::*;
use extended_dns_errors::resolver::Finding;
use extended_dns_errors::scan::Category;
use extended_dns_errors::wire::stream::frame;
use std::io::{Read, Write};
use std::net::{TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

/// Domains asked per planted category.
const PER_CATEGORY: usize = 2;

const TIMEOUT: Duration = Duration::from_secs(10);

/// The profile both resolvers run: the one whose EXTRA-TEXT names the
/// failing servers, so the text is compared too.
const VENDOR: Vendor = Vendor::Cloudflare;

#[derive(Debug, Clone, Copy)]
enum Transport {
    Udp,
    Tcp,
}

fn resolver_over(world: &ScanWorld) -> Resolver {
    Resolver::new(
        Arc::clone(&world.net),
        VendorProfile::new(VENDOR),
        world.resolver_config.clone(),
    )
}

/// One query over one transport, decoded. A TCP query goes over a
/// connection of its own, closed after the answer.
fn ask(server: &ServerHandle, transport: Transport, id: u16, qname: &Name) -> Message {
    let query = Message::query(id, qname.clone(), RrType::A)
        .encode()
        .unwrap();
    let reply = match transport {
        Transport::Udp => {
            let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
            socket.set_read_timeout(Some(TIMEOUT)).unwrap();
            socket.send_to(&query, server.udp_addr()).unwrap();
            let mut buf = vec![0; 65_535];
            let n = socket.recv(&mut buf).unwrap();
            buf.truncate(n);
            buf
        }
        Transport::Tcp => {
            let mut stream = TcpStream::connect(server.tcp_addr()).unwrap();
            stream.set_read_timeout(Some(TIMEOUT)).unwrap();
            stream.write_all(&frame(&query).unwrap()).unwrap();
            let mut len = [0; 2];
            stream.read_exact(&mut len).unwrap();
            let mut buf = vec![0; usize::from(u16::from_be_bytes(len))];
            stream.read_exact(&mut buf).unwrap();
            buf
        }
    };
    let reply = Message::decode(&reply).unwrap();
    assert_eq!(reply.id, id, "{qname} over {transport:?}");
    assert!(!reply.truncated, "{qname} over {transport:?}");
    reply
}

fn ede_of(reply: &Message) -> Vec<EdeEntry> {
    reply.ede_entries().cloned().collect()
}

#[test]
fn the_scan_world_over_sockets_answers_as_resolved_in_process() {
    let pop = Population::generate(PopulationConfig::tiny());
    let mut names: Vec<&Name> = Vec::new();
    for category in Category::ALL {
        let before = names.len();
        let of_category = pop.domains.iter().filter(|d| d.category == category);
        names.extend(of_category.take(PER_CATEGORY).map(|d| &d.name));
        assert!(names.len() > before, "the population lacks {category:?}");
    }
    let profile = VendorProfile::new(VENDOR);

    for transport in [Transport::Udp, Transport::Tcp] {
        let served = ScanWorld::build(&pop);
        let config = ServerConfig::builder()
            .bind("127.0.0.1:0")
            .workers(1)
            .build();
        let server = Server::spawn(resolver_over(&served), config).unwrap();
        let reference_world = ScanWorld::build(&pop);
        let reference = resolver_over(&reference_world);

        let (mut failures, mut texts) = (0, 0);
        for (i, &qname) in names.iter().enumerate() {
            let want = reference.resolve(qname, RrType::A);
            let id = 2 * i as u16;
            let miss = ask(&server, transport, id, qname);
            assert_eq!(miss.rcode, want.rcode, "{qname} over {transport:?}");
            assert_eq!(miss.answers, want.answers, "{qname} over {transport:?}");
            assert_eq!(ede_of(&miss), want.ede, "{qname} over {transport:?}");
            texts += want.ede.iter().filter(|e| !e.extra_text.is_empty()).count();

            let mut diagnosis = (*want.diagnosis).clone();
            if want.rcode == Rcode::ServFail {
                diagnosis.add(Finding::CachedError);
                failures += 1;
            }
            let hit = ask(&server, transport, id + 1, qname);
            assert_eq!(hit.rcode, want.rcode, "{qname} over {transport:?}");
            assert_eq!(hit.answers, want.answers, "{qname} over {transport:?}");
            assert_eq!(
                ede_of(&hit),
                profile.emit(&diagnosis),
                "{qname} over {transport:?}"
            );
        }
        assert!(failures > 0, "some planted category fails");
        assert!(texts > 0, "some answer carries EXTRA-TEXT");

        let stats = server.shutdown().unwrap();
        assert!(stats.drained, "{stats:?}");
        assert_eq!(stats.udp_workers_alive(), 1, "{stats:?}");
        assert!(stats.tcp_acceptor_alive(), "{stats:?}");
        assert_eq!(
            stats.cache.hits,
            names.len() as u64,
            "every repeat was a hit"
        );
    }
}
