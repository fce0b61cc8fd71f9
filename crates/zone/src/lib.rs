//! DNS zone model, DNSSEC signer, and misconfiguration mutators.
//!
//! This crate is the authoritative-data substrate of the reproduction:
//!
//! * [`rrset`] / [`zone`] — the in-memory zone representation. Following
//!   the usual resolver-implementation practice, RRSIGs are attached to
//!   the RRset they cover rather than stored as peer RRsets, which keeps
//!   signing, serving, validation and *mutation* local to one object.
//! * [`canonical`] — RFC 4034 §3.1.8.1 signing-data construction (the
//!   exact byte string a DNSSEC signature covers).
//! * [`keys`] — KSK/ZSK key management, DNSKEY/DS record production.
//! * [`nsec3`] — NSEC3 chain generation (RFC 5155), including empty
//!   non-terminals and delegation bitmaps: the one denial chain the
//!   signer builds, as in the paper's testbed.
//! * [`signer`] — whole-zone signing with configurable validity windows.
//! * [`misconfig`] — the heart of the testbed: a composable
//!   [`misconfig::Misconfig`] enum implementing every mutation of the
//!   paper's Table 3 (drop the DS, break key tags, expire signatures,
//!   strip NSEC3 chains, clear zone-key bits, swap algorithm numbers, …).
//!   Mutations are applied *after* signing, exactly as the authors edited
//!   zone files after `dnssec-signzone`, so stale-signature side effects
//!   are reproduced faithfully.
//! * [`textual`] — master-file presentation of any zone, broken or not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod keys;
pub mod misconfig;
pub mod nsec3;
pub mod rrset;
pub mod signer;
pub mod textual;
pub mod zone;

pub use keys::{ZoneKey, ZoneKeys};
pub use misconfig::{Misconfig, TypeSel};
pub use nsec3::Nsec3Config;
pub use rrset::Rrset;
pub use signer::{Denial, SignerConfig};
pub use zone::Zone;
