//! A minimal loopback client for exercising a running server.
//!
//! `ProbeClient` speaks exactly the stub-resolver subset the
//! integration tests need: one UDP exchange, one framed TCP exchange,
//! and the composite [`query`](ProbeClient::query) that retries over
//! TCP when the UDP answer came back truncated — reusing the
//! *identical* query bytes, so a TC=1 retry can be compared
//! bit-for-bit against the untruncated response.
//!
//! It is deliberately not a general resolver client (no retries over
//! loss, no 0x20 encoding, no cookies); it exists so tests measure the
//! server, not a client's cleverness.

use ede_wire::stream::{frame, FrameReader, MAX_FRAME_LEN};
use ede_wire::Message;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

/// A socket failure or a message that did not encode or decode.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// One completed query exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The decoded final response (the TCP one when a retry happened).
    pub response: Message,
    /// Raw bytes of the final response.
    pub response_wire: Vec<u8>,
    /// Whether the UDP answer carried TC=1 and the exchange was
    /// completed over TCP.
    pub retried_over_tcp: bool,
}

/// Blocking loopback client bound to one server's two transports.
#[derive(Debug)]
pub struct ProbeClient {
    udp: UdpSocket,
    tcp_addr: SocketAddr,
}

/// Per-exchange timeout.
const TIMEOUT: Duration = Duration::from_secs(5);

/// Receive buffer: the largest datagram UDP can carry, so no answer is
/// cut short (`recv` drops what does not fit without a word).
const RECV_BUF: usize = u16::MAX as usize;

impl ProbeClient {
    /// Connect a client to a server's bound addresses.
    pub fn connect(udp_addr: SocketAddr, tcp_addr: SocketAddr) -> Result<Self> {
        let udp = UdpSocket::bind(("127.0.0.1", 0))?;
        udp.connect(udp_addr)?;
        udp.set_read_timeout(Some(TIMEOUT))?;
        Ok(ProbeClient { udp, tcp_addr })
    }

    /// Send raw query bytes over UDP and return the raw response bytes.
    pub fn query_udp(&self, wire: &[u8]) -> Result<Vec<u8>> {
        self.udp.send(wire)?;
        let mut buf = vec![0u8; RECV_BUF];
        let n = self.udp.recv(&mut buf)?;
        Ok(buf[..n].to_vec())
    }

    /// Send raw query bytes over a fresh TCP connection (RFC 1035
    /// framing) and return the raw response bytes.
    pub fn query_tcp(&self, wire: &[u8]) -> Result<Vec<u8>> {
        let mut stream = TcpStream::connect_timeout(&self.tcp_addr, TIMEOUT)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        let _ = stream.set_nodelay(true);
        stream.write_all(&frame(wire)?)?;
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        let mut buf = vec![0u8; RECV_BUF];
        let deadline = Instant::now() + TIMEOUT;
        loop {
            if let Some(response) = reader.next_frame() {
                return Ok(response);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::from(ErrorKind::TimedOut).into());
            }
            match stream.read(&mut buf) {
                Ok(0) => return Err(io::Error::from(ErrorKind::UnexpectedEof).into()),
                Ok(n) => reader.push(&buf[..n])?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Full stub-resolver exchange: UDP first, and on a TC=1 answer
    /// retry the identical bytes over TCP.
    pub fn query(&self, query: &Message) -> Result<Exchange> {
        let wire = query.encode()?;
        let udp_response = self.query_udp(&wire)?;
        let decoded = Message::decode(&udp_response)?;
        if !decoded.truncated {
            return Ok(Exchange {
                response: decoded,
                response_wire: udp_response,
                retried_over_tcp: false,
            });
        }
        let tcp_response = self.query_tcp(&wire)?;
        let decoded = Message::decode(&tcp_response)?;
        Ok(Exchange {
            response: decoded,
            response_wire: tcp_response,
            retried_over_tcp: true,
        })
    }
}
