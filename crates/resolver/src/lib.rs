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
//! * the **engine** ([`iterative`] + [`validate`]) performs full
//!   iterative resolution (root priming, referrals, glue, CNAME chasing,
//!   retries over a zone's NS set) and DNSSEC chain-of-trust validation,
//!   recording every protocol-visible condition as a structured
//!   [`diagnosis::Finding`];
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
//! 13 (*Cached Error*) and 19 (*Stale NXDOMAIN Answer*). It is tiered:
//! the shared bounded L2 with TTL-wheel expiry and CLOCK eviction
//! ([`cache::Cache`]), an infrastructure cache for the referral
//! walk's hot path ([`cache::infra`]), and a range-keyed tier of
//! DNSSEC-validated NSEC/NSEC3 intervals ([`cache::ranges`]) that,
//! when [`ResolverConfig::synthesize_denial`] and the vendor gate
//! agree, answers misses with a synthesized denial before any network
//! send (RFC 8198 aggressive use). A [`policy`] layer reproduces
//! blocklist-style codes (4, 15–18).
//!
//! # Execution model
//!
//! Resolutions are *resumable tasks*: the engine suspends on every
//! network exchange, and a [`task::ResolutionPool`]
//! multiplexes thousands of suspended resolutions on one thread by
//! draining a deterministic completion-event queue. There is one
//! resolution entry point, the async [`Resolver::resolve_with`]; the
//! blocking [`Resolver::resolve`] call drives it as a single task
//! inline. The full model —
//! states, transitions, event ordering, determinism rules — is
//! specified in `docs/CONCURRENCY.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod diagnosis;
pub mod explain;
pub mod forwarder;
pub mod iterative;
pub mod policy;
pub mod profiles;
pub mod reporting;
pub mod resolver;
pub mod task;
pub mod validate;

pub use cache::infra::{InfraCache, InfraStatsSnapshot, ReferralEntry};
pub use cache::ranges::{ProofRange, RangeCache, SynthesizedDenial};
pub use cache::{Cache, CacheHit, CacheLimits, CacheStatsSnapshot, CachedResolution};
pub use config::ResolverConfig;
pub use diagnosis::{Diagnosis, Finding, NsFailure, ValidationState};
pub use profiles::{Vendor, VendorProfile};
pub use resolver::{Resolution, Resolver};
pub use task::{ResolutionPool, TaskHandle};
