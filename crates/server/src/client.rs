//! A minimal loopback client for exercising a running server.
//!
//! `ProbeClient` speaks exactly the stub-resolver subset the
//! integration tests, the smoke harness, and the serving benchmark
//! need: one UDP exchange, one framed TCP exchange, and the composite
//! [`query`](ProbeClient::query) that retries over TCP when the UDP
//! answer came back truncated — reusing the *identical* query bytes, so
//! a TC=1 retry can be compared bit-for-bit against the untruncated
//! response.
//!
//! It is deliberately not a general resolver client (no retries over
//! loss, no 0x20 encoding, no cookies); it exists so tests and benches
//! measure the server, not a client's cleverness.

use crate::config::ServerError;
use ede_wire::stream::{frame, FrameReader, MAX_FRAME_LEN};
use ede_wire::Message;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

/// One completed query exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The exact query bytes that were sent (both transports reuse
    /// them verbatim).
    pub wire: Vec<u8>,
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

impl ProbeClient {
    /// Connect a client to a server's bound addresses.
    pub fn connect(udp_addr: SocketAddr, tcp_addr: SocketAddr) -> Result<Self, ServerError> {
        let udp = UdpSocket::bind(("127.0.0.1", 0)).map_err(|source| ServerError::Bind {
            addr: "127.0.0.1:0".to_string(),
            source,
        })?;
        udp.connect(udp_addr)?;
        udp.set_read_timeout(Some(TIMEOUT))?;
        Ok(ProbeClient { udp, tcp_addr })
    }

    /// Send raw query bytes over UDP and return the raw response bytes.
    pub fn query_udp(&self, wire: &[u8]) -> Result<Vec<u8>, ServerError> {
        self.udp.send(wire)?;
        let mut buf = [0u8; 4096];
        let n = self.udp.recv(&mut buf)?;
        Ok(buf[..n].to_vec())
    }

    /// Send raw query bytes over a fresh TCP connection (RFC 1035
    /// framing) and return the raw response bytes.
    pub fn query_tcp(&self, wire: &[u8]) -> Result<Vec<u8>, ServerError> {
        let mut stream = TcpStream::connect_timeout(&self.tcp_addr, TIMEOUT)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        let _ = stream.set_nodelay(true);
        stream.write_all(&frame(wire)?)?;
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        let mut buf = [0u8; 4096];
        let deadline = Instant::now() + TIMEOUT;
        loop {
            if let Some(response) = reader.next_frame() {
                return Ok(response);
            }
            if Instant::now() >= deadline {
                return Err(ServerError::Io(ErrorKind::TimedOut.into()));
            }
            match stream.read(&mut buf) {
                Ok(0) => return Err(ServerError::Io(ErrorKind::UnexpectedEof.into())),
                Ok(n) => reader.push(&buf[..n])?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ServerError::Io(e)),
            }
        }
    }

    /// Full stub-resolver exchange: UDP first, and on a TC=1 answer
    /// retry the identical bytes over TCP.
    pub fn query(&self, query: &Message) -> Result<Exchange, ServerError> {
        let wire = query.encode()?;
        let udp_response = self.query_udp(&wire)?;
        let decoded = Message::decode(&udp_response)?;
        if !decoded.truncated {
            return Ok(Exchange {
                wire,
                response: decoded,
                response_wire: udp_response,
                retried_over_tcp: false,
            });
        }
        let tcp_response = self.query_tcp(&wire)?;
        let decoded = Message::decode(&tcp_response)?;
        Ok(Exchange {
            wire,
            response: decoded,
            response_wire: tcp_response,
            retried_over_tcp: true,
        })
    }
}
