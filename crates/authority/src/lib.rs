//! Authoritative DNS nameserver state machine.
//!
//! [`ZoneServer`] serves one or more signed (or deliberately broken)
//! [`ede_zone::Zone`]s over the simulated network, implementing the
//! answer shapes a validating resolver depends on:
//!
//! * authoritative answers with RRSIGs when the DO bit is set;
//! * referrals at zone cuts with DS records (secure delegation) or NSEC3
//!   opt-in proofs of DS absence (insecure delegation), plus glue;
//! * NODATA and NXDOMAIN responses with the full RFC 5155 NSEC3 proof
//!   set (closest-encloser match, next-closer cover, wildcard cover);
//! * authoritative DS answers at the parent side of a cut.
//!
//! Where the RRsets of a referral and of a positive answer go is written
//! once, in [`layout`], for servers with a zone and without one.
//!
//! [`behavior::Behavior`] layers the fault modes the paper observes in
//! the wild on top: REFUSED-to-everyone, client ACLs
//! (`allow-query-none` / `allow-query-localhost`), SERVFAIL, NOTAUTH,
//! silent drops, EDNS-oblivious legacy servers, and servers that refuse
//! non-recursive queries (§4.2.14).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod denial;
pub mod layout;
pub mod server;
pub mod store;

pub use behavior::Behavior;
pub use server::ZoneServer;
pub use store::ZoneStore;
