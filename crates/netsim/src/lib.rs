//! Deterministic simulated internet for the EDE reproduction.
//!
//! The paper's measurements depend on *network-visible* behaviour:
//! nameservers that time out, refuse, answer from special-purpose
//! addresses that can never route, and links that add latency. This crate
//! models exactly that and nothing more:
//!
//! * [`clock`] — a shared virtual clock. Time advances only through
//!   simulated link latency and timeouts, so runs are bit-reproducible.
//! * [`addr`] — classification of IPv4/IPv6 special-purpose addresses
//!   (IANA registries, RFC 6890). The testbed's invalid-glue groups 6–7
//!   are built directly on these ranges.
//! * [`transport`] — the network itself: a routing table from `IpAddr` to
//!   [`Server`] instances, with per-query latency, unroutability for
//!   special addresses, and a stream (TCP-analogue)
//!   channel for truncation fallback. An exchange is an event-driven
//!   `send`/`complete` pair, which lets one thread keep thousands of
//!   exchanges in flight; the blocking `query` is the two in one call.
//! * [`completion`] — the deterministic completion-event queue the
//!   event-driven shape schedules against (deadline order, FIFO among
//!   ties). `docs/CONCURRENCY.md` specifies the full model.
//! * [`fault`] — composable, deterministic fault plans: uniform loss,
//!   response corruption, and the response-size model that sets the TC
//!   bit on oversized UDP replies.
//!
//! The design is sans-IO in the smoltcp tradition: servers are state
//! machines handling one message at a time; no sockets, no threads, no
//! wall-clock time anywhere in the data path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod clock;
pub mod completion;
pub mod fault;
pub mod transport;

pub use addr::{classify, AddrClass, SpecialUse};
pub use clock::SimClock;
pub use completion::CompletionQueue;
pub use fault::FaultPlan;
pub use transport::{
    CapturedQuery, InFlight, NetError, Network, NetworkBuilder, NetworkConfig, Server,
    ServerResponse, TrafficSnapshot, TrafficStats,
};
