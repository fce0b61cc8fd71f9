//! # extended-dns-errors
//!
//! A comprehensive Rust reproduction of *"Extended DNS Errors: Unlocking
//! the Full Potential of DNS Troubleshooting"* (Nosyk, Korczyński &
//! Duda, IMC 2023).
//!
//! The paper measures how seven DNS resolver implementations use
//! RFC 8914 Extended DNS Errors (EDE) when facing 63 deliberately
//! misconfigured zones, and what EDE codes 303 million registered
//! domains trigger through Cloudflare DNS. This crate family rebuilds
//! the entire measurement apparatus:
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | Wire protocol | [`wire`] | DNS messages, EDNS(0), the EDE option, IANA registries |
//! | Crypto | [`crypto`] | SHA-1/256/384, key tags, NSEC3 hashing, simulated signatures |
//! | Zones | [`zone`] | Zone model, DNSSEC signer, Table 3's misconfiguration mutators |
//! | Network | [`netsim`] | Deterministic simulated internet, special-address registries |
//! | Authority | [`authority`] | Authoritative server with fault behaviors |
//! | Resolver | [`resolver`] | EDE-capable validating resolver + seven vendor profiles |
//! | Testbed | [`testbed`] | The 63-domain `extended-dns-errors.com` infrastructure |
//! | Scan | [`scan`] | The Internet-wide scan at configurable scale |
//! | Observability | [`trace`] | Resolution tracing, JSONL export, live metrics |
//! | Serving | [`server`] | Concurrent UDP+TCP front end over real OS sockets |
//!
//! ## Quickstart
//!
//! ```
//! use extended_dns_errors::prelude::*;
//!
//! // Build the paper's testbed and ask Cloudflare-profile and
//! // Unbound-profile resolvers about one broken domain.
//! let tb = Testbed::build();
//! let spec = tb.spec("rrsig-exp-all").expect("part of the testbed");
//! let qname = tb.query_name(spec);
//!
//! let cloudflare = tb.resolver(Vendor::Cloudflare);
//! let res = cloudflare.resolve(&qname, RrType::A);
//! assert_eq!(res.rcode, Rcode::ServFail);
//! assert_eq!(res.ede_codes(), vec![7]); // Signature Expired
//!
//! let bind = tb.resolver(Vendor::Bind9);
//! assert!(bind.resolve(&qname, RrType::A).ede_codes().is_empty());
//! ```
//!
//! The [`server`] crate binds any simulated resolver or testbed to real
//! OS sockets — sharded UDP workers plus a TCP listener with RFC 1035
//! framing — so external tools (e.g. `dig +ednsopt=15`) can query the
//! reproduction; `cargo run --bin repro-serve` starts it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ede_authority as authority;
pub use ede_crypto as crypto;
pub use ede_netsim as netsim;
pub use ede_resolver as resolver;
pub use ede_scan as scan;
pub use ede_server as server;
pub use ede_testbed as testbed;
pub use ede_trace as trace;
pub use ede_wire as wire;
pub use ede_zone as zone;

/// The one-line import for applications.
///
/// Curated for the common workflows: building the testbed, configuring
/// resolvers (a [`ResolverConfig`](ede_resolver::ResolverConfig) adjusted field by field),
/// running scans (via [`ScanConfig::builder`](ede_scan::ScanConfig::builder)),
/// serving over real sockets (via
/// [`Server::spawn`](ede_server::Server::spawn) with
/// [`ServerConfig::builder`](ede_server::ServerConfig::builder)),
/// injecting faults ([`FaultPlan`](ede_netsim::FaultPlan)), and attaching
/// observability ([`ResolutionTrace`](ede_trace::ResolutionTrace)).
/// Structured error types from every layer ride along so `?`-style
/// plumbing needs no extra imports.
pub mod prelude {
    pub use ede_netsim::{FaultPlan, NetError, Network, SimClock};
    pub use ede_resolver::{
        Diagnosis, Resolution, Resolver, ResolverConfig, Vendor, VendorProfile,
    };
    pub use ede_scan::{
        scan, ChaosConfig, Population, PopulationConfig, QueryFilter, QueryRecord, ScanConfig,
        ScanConfigBuilder, ScanResult, ScanWorld, StatsSnapshot,
    };
    pub use ede_server::{
        ProbeClient, Server, ServerConfig, ServerConfigBuilder, ServerError, ServerHandle,
        ServerStats,
    };
    pub use ede_testbed::Testbed;
    pub use ede_trace::{
        Metrics, ResolutionTrace, ServerMetrics, ServerMetricsSnapshot, TraceEvent, TraceSink,
    };
    pub use ede_wire::{EdeCode, EdeEntry, Message, Name, Rcode, RrType, WireError};
    pub use ede_zone::{ParseError, ParseErrorKind};
}
