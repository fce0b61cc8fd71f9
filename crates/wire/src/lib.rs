//! DNS wire protocol for the Extended DNS Errors reproduction.
//!
//! This crate implements the parts of the DNS message format the paper's
//! measurement pipeline touches, from scratch:
//!
//! * domain [`name`]s with RFC 1035 compression and RFC 4034 canonical
//!   ordering;
//! * the message [`header`] with all flag bits and [`rcode`]s (including
//!   the 12-bit extended RCODE split across the header and the OPT record);
//! * resource [`record`]s and typed [`rdata`] for every RR type the study
//!   exercises: A, AAAA, NS, CNAME, SOA, PTR, MX, TXT, DS, DNSKEY, RRSIG,
//!   NSEC, NSEC3, NSEC3PARAM (plus an opaque fallback);
//! * [`edns`]: the EDNS(0) OPT pseudo-RR and its option list;
//! * [`ede`]: RFC 8914 Extended DNS Errors — the full IANA registry of
//!   Table 1 (codes 0–29) and the INFO-CODE ‖ EXTRA-TEXT option codec;
//! * [`registry`]: IANA DNSSEC algorithm numbers and DS digest types with
//!   assigned/unassigned/reserved semantics (the testbed's
//!   `*-unassigned-*`/`*-reserved-*` cases depend on these);
//! * full [`message`] encoding and decoding, and a served query read
//!   in place ([`request`]);
//! * [`stream`]: RFC 1035 §4.2.2 two-byte length-prefix framing for
//!   DNS-over-TCP transports.
//!
//! Everything round-trips: `decode(encode(m)) == m` is property-tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ede;
pub mod edns;
pub mod error;
pub mod header;
pub mod message;
pub mod name;
pub mod rcode;
pub mod rdata;
pub mod record;
pub mod registry;
pub mod request;
pub mod rrtype;
pub mod stream;

pub use ede::{EdeCode, EdeEntry};
pub use edns::{Edns, EdnsOption};
pub use error::WireError;
pub use header::{Header, Opcode};
pub use message::{Message, Question, ReplyImage, Sections};
pub use name::Name;
pub use rcode::Rcode;
pub use rdata::Rdata;
pub use record::{Class, Record};
pub use registry::{DigestAlg, SecAlg};
pub use request::{Request, RequestOpt};
pub use rrtype::RrType;
