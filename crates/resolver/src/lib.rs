//! The EDE-capable validating iterative resolver — the paper's primary
//! measurement instrument, rebuilt.
//!
//! # Architecture: diagnosis vs. emission
//!
//! The paper's central observation is that seven resolver implementations
//! facing the *same* broken zone return *different* Extended DNS Error
//! codes — 94 % of testbed cases disagree — yet all of them are
//! "correct": they map one underlying condition onto differently-specific
//! INFO-CODEs. This crate models that separation explicitly:
//!
//! * the **engine** (the private `iterative` module + [`validate`])
//!   performs full iterative resolution (root priming, referrals
//!   followed strictly downward to the servers their glue names, a
//!   referral without glue taken as lame, retries over a zone's NS set)
//!   and DNSSEC chain-of-trust validation, recording every
//!   protocol-visible condition as a structured [`diagnosis::Finding`];
//! * a **vendor profile** ([`profiles`]) is a pure function from a
//!   [`diagnosis::Diagnosis`] to the list of [`ede_wire::EdeEntry`]s that
//!   vendor attaches, plus a capability set (supported algorithms,
//!   digests, NSEC3 iteration cap) that feeds back into validation.
//!
//! Profiles for BIND 9.19.9, Unbound 1.16.2, PowerDNS Recursor 4.8.2,
//! Knot Resolver 5.6.0, Cloudflare DNS, Quad9 and OpenDNS are derived
//! from the paper's Table 4 and vendor documentation; their rules are
//! functions of finding *kinds* only, never of query names.
//!
//! The [`cache`] implements positive, negative and failure caching with
//! RFC 8767 serve-stale — the substrate behind EDE 3 (*Stale Answer*),
//! 13 (*Cached Error*) and 19 (*Stale NXDOMAIN Answer*). It has two
//! tiers: the shared L2 ([`cache::Cache`]), which checks expiry on
//! every probe and keeps an optional entry budget with a CLOCK sweep,
//! and an infrastructure cache for the referral walk's hot path
//! ([`cache::infra`]).
//!
//! # Execution model
//!
//! A resolution is straight-line code on the calling thread:
//! [`Resolver::resolve`] (or [`Resolver::resolve_once`], for a name the
//! caller will not ask again) walks, validates and emits, and every
//! network exchange returns before the walk goes on. Many threads may
//! share one resolver; a zone's keys are fetched once among them (the
//! singleflight in [`cache::infra`]). `docs/CONCURRENCY.md` specifies
//! the model and its determinism rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod diagnosis;
pub mod explain;
mod iterative;
pub mod profiles;
pub mod resolver;
pub mod validate;

pub use cache::infra::{InfraCache, InfraStatsSnapshot, ReferralEntry};
pub use cache::{Cache, CacheHit, CacheStatsSnapshot, CachedResolution};
pub use config::ResolverConfig;
pub use diagnosis::{Diagnosis, Finding, NsFailure, ValidationState};
pub use profiles::{Vendor, VendorProfile};
pub use resolver::{Resolution, Resolver, Served, SharedDiagnosis};
