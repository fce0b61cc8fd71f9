//! Resolver configuration: root hints, trust anchor, cache budgets,
//! retry count — constructed with [`ResolverConfig::default()`] or
//! [`ResolverConfig::with_roots()`], then adjusted field by field.

use ede_wire::{Name, Rdata};
use std::net::IpAddr;

/// One root server hint (name + address), as in a `root.hints` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootHint {
    /// Root server name (informational).
    pub name: Name,
    /// Root server address.
    pub addr: IpAddr,
}

/// Static resolver configuration.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`ResolverConfig::default()`] or [`ResolverConfig::with_roots()`],
/// then adjust individual public fields. Struct-literal construction
/// outside this crate no longer compiles, which is what lets new knobs
/// (like [`retries_per_server`]) land without a breaking change.
///
/// ```
/// use ede_resolver::ResolverConfig;
///
/// let mut config = ResolverConfig::default();
/// config.failure_ttl_secs = 900;
/// config.qname_minimization = true;
/// config.retries_per_server = 4;
/// assert_eq!(config.failure_ttl_secs, 900);
/// ```
///
/// [`retries_per_server`]: ResolverConfig::retries_per_server
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ResolverConfig {
    /// Where resolution starts.
    pub root_hints: Vec<RootHint>,
    /// DS-form trust anchor(s) for the root zone (RFC 4035 §4.4). Empty
    /// disables validation entirely (a non-validating resolver).
    pub trust_anchors: Vec<Rdata>,
    /// Source address used for queries (ACLs see this).
    pub source_addr: IpAddr,
    /// Enable the answer/failure cache.
    pub enable_cache: bool,
    /// TTL for cached resolution failures (SERVFAIL), seconds — the
    /// substrate of EDE 13 (*Cached Error*).
    pub failure_ttl_secs: u32,
    /// Hard bound on shared-cache entries (`None` = unbounded). When a
    /// put would exceed it, the cache evicts expired entries first and
    /// then live ones in CLOCK order. Eviction can change what a later
    /// resolution observes (a replay becomes a live walk), so bounded
    /// configurations trade bit-identical reproducibility for bounded
    /// memory — see `docs/PERFORMANCE.md`.
    pub max_cache_entries: Option<usize>,
    /// DNS Error Reporting (RFC 9567): when set to an (agent domain,
    /// agent server address) pair, every EDE-carrying resolution also
    /// fires a report query toward the agent. The address stands in for
    /// resolving the agent's own NS set — a documented simplification.
    pub error_reporting: Option<(Name, IpAddr)>,
    /// QNAME minimization (RFC 7816): expose only one additional label
    /// per zone while walking referrals (probing with NS queries), in
    /// the "relaxed" style deployed resolvers use. Off by default.
    pub qname_minimization: bool,
    /// RFC 8198 aggressive use of the DNSSEC-validated cache: retain
    /// NSEC/NSEC3 ranges from validated denial and insecure-delegation
    /// proofs in a range-keyed cache tier, and answer later queries
    /// falling inside a still-valid range with a synthesized
    /// NXDOMAIN/NODATA instead of asking the authority. Off by default
    /// (the historical behaviour); even when on, the per-vendor gate
    /// [`crate::Vendor::synthesizes_denial`] must also agree.
    pub synthesize_denial: bool,
    /// Hard bound on range-tier entries (`None` = unbounded). Same
    /// CLOCK-eviction trade-off as [`max_cache_entries`](Self::max_cache_entries).
    pub max_range_entries: Option<usize>,
    /// Extra attempts on the *same* server after a transient failure
    /// (a timeout or FORMERR — the signatures of datagram loss and
    /// corruption; a REFUSED or SERVFAIL is the server's considered
    /// opinion and is never retried). The default is 0, one shot per
    /// server in referral order, so pinned traces and the Table 4
    /// matrix are unaffected; `docs/ROBUSTNESS.md` records the trial
    /// that chose 4 for the chaos campaigns.
    pub retries_per_server: usize,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            root_hints: Vec::new(),
            trust_anchors: Vec::new(),
            source_addr: "192.0.32.59".parse().expect("valid"),
            enable_cache: true,
            failure_ttl_secs: 30,
            max_cache_entries: None,
            error_reporting: None,
            qname_minimization: false,
            synthesize_denial: false,
            max_range_entries: None,
            retries_per_server: 0,
        }
    }
}

impl ResolverConfig {
    /// Convenience: configuration with the given hints and anchors.
    pub fn with_roots(root_hints: Vec<RootHint>, trust_anchors: Vec<Rdata>) -> Self {
        ResolverConfig {
            root_hints,
            trust_anchors,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ResolverConfig::default();
        assert!(c.enable_cache);
        assert!(c.failure_ttl_secs > 0);
        // RFC 8198 synthesis is opt-in: pinned traces and fingerprints
        // must be unaffected by the range tier's existence.
        assert!(!c.synthesize_denial);
        // One shot per server by default: golden traces and the
        // Table 4 matrix depend on it.
        assert_eq!(c.retries_per_server, 0);
    }
}
