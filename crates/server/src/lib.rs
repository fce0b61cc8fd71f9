//! `ede-server` — the concurrent serving front end: the simulated
//! extended-dns-errors world, reachable by real DNS clients over real
//! OS sockets.
//!
//! Everything below this crate is sans-IO and deterministic (`ede-wire`
//! codecs, `ede-netsim` virtual transport, `ede-resolver` engines, the
//! `ede-testbed` misconfiguration zoo). This crate is the boundary
//! where that world meets the operating system: bind `127.0.0.1:5300`,
//! point `dig` at it, and every testbed label answers with the same
//! RCODEs and RFC 8914 extended DNS errors the in-process scanner sees.
//!
//! # Architecture
//!
//! * **UDP shards** — one bound socket, cloned into N worker threads
//!   that each block in `recv_from`, answer the datagram and send the
//!   reply; the kernel load-balances blocked receivers, giving
//!   SO_REUSEPORT-style sharding with std only. Every worker answers
//!   from the one shared thread-safe [`Resolver`](ede_resolver::Resolver).
//! * **TCP path** — a blocking acceptor with a connection cap (64),
//!   detached per-connection handler threads, RFC 1035 §4.2.2
//!   length-prefixed framing via `ede_wire::stream`, pipelined queries
//!   answered a batch at a time, and one 5 s deadline for a peer that
//!   stops sending or stops reading a batch.
//! * **One seam** — both serving loops take their peer (a datagram
//!   socket, a byte stream) and their clock as arguments, so the tests
//!   run every deadline at its shipped value on a clock they move.
//! * **One pipeline** — both transports classify, resolve, and encode
//!   through [`pipeline`], so the malformed-query policy (drop vs
//!   FORMERR vs NOTIMP vs REFUSED) and the EDNS/EDE rules are identical
//!   on the wire regardless of transport.
//! * **Truncation contract** — UDP responses honor
//!   `min(client EDNS advertisement, server cap)`; larger answers go
//!   out truncated with TC=1 and the TCP retry returns bytes identical
//!   to the untruncated message.
//! * **Observability** — every transport decision lands in the server
//!   section of an `ede_trace::Metrics` registry, sampled live through
//!   [`ServerHandle::stats`].
//!
//! # Quick start
//!
//! ```
//! use ede_server::{Server, ServerConfig};
//! use ede_resolver::Vendor;
//! use ede_testbed::Testbed;
//! use ede_wire::{Message, Name, RrType};
//! use std::net::UdpSocket;
//! use std::time::Duration;
//!
//! let tb = Testbed::build();
//! let handle = Server::spawn(
//!     tb.resolver(Vendor::Bind9),
//!     ServerConfig::builder().bind("127.0.0.1:0").workers(2).build(),
//! ).unwrap();
//!
//! let client = UdpSocket::bind("127.0.0.1:0").unwrap();
//! client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
//! let query = Message::query(1, Name::parse("valid.extended-dns-errors.com").unwrap(), RrType::A);
//! client.send_to(&query.encode().unwrap(), handle.udp_addr()).unwrap();
//! let mut buf = [0u8; 4096];
//! let n = client.recv(&mut buf).unwrap();
//! let response = Message::decode(&buf[..n]).unwrap();
//! assert_eq!(response.id, 1);
//! assert!(!response.answers.is_empty());
//!
//! let stats = handle.shutdown().unwrap();
//! assert_eq!(stats.metrics.udp_queries, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod pipeline;
mod server;
mod tcp;
mod udp;

pub use config::{ServerConfig, ServerConfigBuilder, ServerError};
pub use pipeline::{DropReason, QueryDisposition, RejectKind};
pub use server::{Server, ServerHandle, ServerStats};
