//! Structured findings: the resolver's internal account of what went
//! wrong (or didn't) during one resolution.
//!
//! Findings carry exactly the detail that at least one of the seven
//! modeled vendors demonstrably conditions its EDE output on (derived
//! from the paper's Table 4). They are protocol-visible facts — message
//! shapes, registry statuses, signature checks — never query names.

use ede_trace::{TraceEvent, Tracer};
use ede_wire::{Name, Rcode, RrType};
use std::fmt;
use std::net::IpAddr;

/// How an individual nameserver query failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NsFailure {
    /// The address is special-purpose; packets can never route.
    Unroutable,
    /// No answer before the timeout (dead or silently dropping host).
    Timeout,
    /// Responded REFUSED.
    Refused,
    /// Responded SERVFAIL.
    ServFail,
    /// Responded NOTAUTH (only valid in TSIG processing — §4.2.13).
    NotAuth,
    /// Responded FORMERR.
    FormErr,
    /// Responded without an OPT record although we sent EDNS (§4.2.6).
    NoEdns,
    /// Replied with TC=1 and no usable stream fallback was available —
    /// the answer exceeded the negotiated UDP payload size and could
    /// not be fetched whole.
    Truncated,
    /// Some other error RCODE.
    OtherRcode(u16),
}

impl NsFailure {
    /// Classify a response RCODE into a failure, if it is one.
    pub fn from_rcode(rcode: Rcode) -> Option<Self> {
        match rcode {
            Rcode::Refused => Some(NsFailure::Refused),
            Rcode::ServFail => Some(NsFailure::ServFail),
            Rcode::NotAuth => Some(NsFailure::NotAuth),
            Rcode::FormErr => Some(NsFailure::FormErr),
            Rcode::NoError | Rcode::NxDomain => None,
            other => Some(NsFailure::OtherRcode(other.to_u16())),
        }
    }

    /// True for failures where the server *spoke* (an RCODE arrived) —
    /// Cloudflare's *Network Error (23)* category, as opposed to silence.
    pub fn is_rcode_failure(self) -> bool {
        matches!(
            self,
            NsFailure::Refused
                | NsFailure::ServFail
                | NsFailure::NotAuth
                | NsFailure::FormErr
                | NsFailure::OtherRcode(_)
        )
    }

    /// True for the signatures of datagram loss and corruption, where
    /// asking the same server again may get through. Anything else is
    /// the server's considered opinion and is never retried.
    pub(crate) fn is_transient(self) -> bool {
        matches!(self, NsFailure::Timeout | NsFailure::FormErr)
    }
}

impl fmt::Display for NsFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NsFailure::Unroutable => write!(f, "unroutable"),
            NsFailure::Timeout => write!(f, "timed out"),
            NsFailure::Refused => write!(f, "rcode=REFUSED"),
            NsFailure::ServFail => write!(f, "rcode=SERVFAIL"),
            NsFailure::NotAuth => write!(f, "rcode=NOTAUTH"),
            NsFailure::FormErr => write!(f, "rcode=FORMERR"),
            NsFailure::NoEdns => write!(f, "no EDNS support"),
            NsFailure::Truncated => write!(f, "truncated"),
            NsFailure::OtherRcode(v) => write!(f, "rcode={v}"),
        }
    }
}

/// One failed exchange with one nameserver address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsEvent {
    /// The server address queried.
    pub addr: IpAddr,
    /// What went wrong.
    pub failure: NsFailure,
    /// The name that was being asked.
    pub qname: Name,
    /// The type that was being asked.
    pub qtype: RrType,
}

/// Which RRset a signature-level finding refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SigTarget {
    /// The final answer RRset (or the SOA of a negative answer).
    Answer,
    /// The zone's DNSKEY RRset (the chain-of-trust link).
    Dnskey,
    /// NSEC3 denial records.
    Denial,
}

/// Registry status of an algorithm number, as validation saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgStatus {
    /// Assigned but outside this resolver's capability set.
    UnsupportedAssigned,
    /// In the registry's unassigned range.
    Unassigned,
    /// In the registry's reserved range.
    Reserved,
    /// Assigned but deprecated for validation (RSA/MD5, DSA family).
    Deprecated,
}

/// Why a DS RRset failed to select a usable DNSKEY.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DsMismatch {
    /// No DNSKEY carried the DS's (key tag, algorithm) pair.
    TagOrAlgorithm,
    /// A DNSKEY matched the pair but its digest disagreed.
    Digest,
}

/// Why a denial proof was absent or useless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DenialIssue {
    /// The response carried no NSEC3 records at all.
    Absent,
    /// NSEC3 records were present but none matched or covered the names
    /// the proof needs (mangled owner hashes).
    OwnerMismatch,
    /// The closest-encloser matched but no interval covers the
    /// next-closer name (broken chain pointers).
    ChainMismatch,
}

/// Whether the answer needing a proof was NODATA or NXDOMAIN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NegativeKind {
    /// Name exists, type does not.
    Nodata,
    /// Name does not exist.
    Nxdomain,
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    // ---- Connectivity ------------------------------------------------
    /// Every nameserver of the zone failed; resolution could not proceed.
    AllServersFailed {
        /// True when at least one failure was an RCODE (vs. silence).
        any_rcode_failure: bool,
    },
    /// A server answered without EDNS/OPT although the query used EDNS.
    EdnsNotSupported {
        /// The offending server.
        addr: IpAddr,
    },

    // ---- DS layer ------------------------------------------------------
    /// A DS carries an algorithm number outside the validator's world.
    DsUnknownAlgorithm {
        /// Why the algorithm is unusable.
        status: AlgStatus,
        /// The raw algorithm number.
        algorithm: u8,
    },
    /// A DS carries a digest type the validator cannot compute.
    DsUnsupportedDigest {
        /// True when the type is assigned (e.g. GOST) but uncapable,
        /// false when unassigned.
        assigned: bool,
        /// The raw digest type.
        digest_type: u8,
    },
    /// No DNSKEY in the child zone satisfied the DS RRset.
    DsNoMatchingDnskey {
        /// How matching failed.
        cause: DsMismatch,
    },
    /// The DNSKEY RRset could not be fetched at all.
    DnskeyUnobtainable {
        /// The failure observed.
        failure: NsFailure,
    },

    // ---- DNSKEY RRset validation ----------------------------------------
    /// The DS-matched KSK produced no signature over the DNSKEY RRset,
    /// though other signatures exist.
    DnskeySigMissingByMatchedKey,
    /// The DNSKEY RRset carries no signatures at all.
    DnskeyAllSigsMissing,
    /// Signature(s) over the DNSKEY RRset exist but fail cryptographic
    /// verification.
    DnskeySigBogus {
        /// True when the RRset still publishes a usable zone-key ZSK
        /// (distinguishes corrupted-key cases from removed-key cases —
        /// Quad9 demonstrably reports them differently).
        zsk_present: bool,
        /// True when at least one signature over the RRset verifies
        /// against *some* published key, just not the DS-matched one
        /// (the `bad-rrsig-ksk` shape).
        some_sig_valid: bool,
    },
    /// Every DNSKEY in the RRset has the Zone Key bit clear.
    NoZoneKeyBitSet,
    /// A published stand-by / in-rollover key has no covering RRSIG —
    /// harmless, but Cloudflare flags it (§4.2.3).
    StandbyKeyWithoutRrsig,
    /// A published key has a modeled size below the validator's floor
    /// ("unsupported key size", §4.2.7).
    UnsupportedKeySize {
        /// The key's modeled size in bits.
        bits: u16,
    },

    // ---- Per-RRset signature checks --------------------------------------
    /// The RRset has no covering RRSIG.
    RrsigMissing {
        /// Which RRset.
        target: SigTarget,
    },
    /// A covering RRSIG exists but its window has passed.
    SignatureExpired {
        /// Which RRset.
        target: SigTarget,
    },
    /// A covering RRSIG exists but its window has not begun.
    SignatureNotYetValid {
        /// Which RRset.
        target: SigTarget,
    },
    /// The RRSIG's expiration precedes its inception.
    SignatureExpiredBeforeValid {
        /// Which RRset.
        target: SigTarget,
    },
    /// A covering RRSIG fails cryptographic verification.
    SignatureBogus {
        /// Which RRset.
        target: SigTarget,
    },
    /// The RRSIG references a key tag absent from the validated DNSKEY
    /// RRset.
    RrsigKeyMissing {
        /// Which RRset.
        target: SigTarget,
    },
    /// The zone is signed exclusively with algorithms this validator does
    /// not support (treated as insecure per RFC 4035 §5.2).
    ZoneAlgorithmUnsupported {
        /// Registry status of the algorithm.
        status: AlgStatus,
        /// The raw algorithm number.
        algorithm: u8,
    },

    // ---- Denial of existence ---------------------------------------------
    /// A negative answer from a signed zone lacked a usable NSEC3 proof.
    DenialProofBroken {
        /// What exactly was wrong.
        issue: DenialIssue,
        /// NODATA or NXDOMAIN.
        kind: NegativeKind,
    },
    /// Denial records were present and structurally fine but unsigned.
    DenialSigMissing {
        /// NODATA or NXDOMAIN.
        kind: NegativeKind,
    },
    /// Denial records were present but their signatures are bogus.
    DenialSigBogus {
        /// NODATA or NXDOMAIN.
        kind: NegativeKind,
    },
    /// A negative answer from a signed zone arrived with an unsigned SOA
    /// and no proof (the zone's denial machinery is gone).
    NegativeUnsigned {
        /// NODATA or NXDOMAIN.
        kind: NegativeKind,
    },
    /// A referral lacked both a DS RRset and a proof of DS absence
    /// ("failed to verify an insecure referral proof", §4.2.9).
    InsecureReferralProofMissing,
    /// The NSEC3 iteration count exceeds this validator's cap
    /// ("iteration limit exceeded", §4.2.14).
    Nsec3IterationsExceeded {
        /// The offending count.
        iterations: u16,
    },

    // ---- Caching -----------------------------------------------------------
    /// The negative answer was synthesized from DNSSEC-validated
    /// NSEC/NSEC3 ranges already in the cache's range tier (RFC 8198
    /// aggressive use) — no authority was asked. Deliberately mapped to
    /// an EDE by *no* vendor profile: on the wire a synthesized denial
    /// must be indistinguishable from the live one it stands in for.
    SynthesizedDenial {
        /// NODATA or NXDOMAIN.
        kind: NegativeKind,
    },
    /// The answer was served from cache past its TTL (RFC 8767).
    ServedStale {
        /// True when the stale record was an NXDOMAIN (EDE 19 vs 3).
        nxdomain: bool,
    },
    /// A previously-cached resolution failure was replayed.
    CachedError,
}

/// Overall DNSSEC outcome of the resolution (RFC 4035 §4.3 states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationState {
    /// Chain of trust intact, everything verified.
    Secure,
    /// Provably no chain of trust (unsigned zone or unsupported
    /// algorithms) — answers are used but unauthenticated.
    Insecure,
    /// The chain of trust is broken: validation failed.
    Bogus,
    /// Validation could not reach a conclusion.
    Indeterminate,
}

/// Everything the engine learned during one resolution.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Structured findings, in discovery order.
    pub findings: Vec<Finding>,
    /// Per-nameserver failure events (feeds EDE 22/23 and their
    /// EXTRA-TEXT).
    pub ns_events: Vec<NsEvent>,
    /// Final validation state.
    pub validation: ValidationState,
    /// Whether the queried zone presented as DNSSEC-signed (a DS chain
    /// existed down to it).
    pub zone_signed: bool,
    /// Trace handle: findings and validation steps are announced here as
    /// they land. Excluded from equality — two diagnoses that recorded
    /// the same facts are equal regardless of where their events went.
    tracer: Tracer,
}

impl PartialEq for Diagnosis {
    fn eq(&self, other: &Self) -> bool {
        self.findings == other.findings
            && self.ns_events == other.ns_events
            && self.validation == other.validation
            && self.zone_signed == other.zone_signed
    }
}

impl Eq for Diagnosis {}

impl Diagnosis {
    /// A clean slate (secure until proven otherwise, unsigned until a DS
    /// chain appears).
    pub fn new() -> Self {
        Diagnosis {
            findings: Vec::new(),
            ns_events: Vec::new(),
            validation: ValidationState::Secure,
            zone_signed: false,
            tracer: Tracer::disabled(),
        }
    }

    /// A clean slate whose findings are announced to `tracer`.
    pub fn with_tracer(tracer: Tracer) -> Self {
        let mut d = Self::new();
        d.tracer = tracer;
        d
    }

    /// Attach (or replace) the tracer announcing this diagnosis's
    /// findings.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Re-allocate every embedded [`Name`] so this diagnosis shares no
    /// storage with the resolution's working set (see
    /// [`Name::detached`]). Long-lived holders — the resolution cache —
    /// call this before storing so cached diagnoses don't pin transient
    /// response and zone allocations.
    pub fn detach_names(&mut self) {
        for ev in &mut self.ns_events {
            ev.qname = ev.qname.detached();
        }
    }

    /// The tracer findings are announced to (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Record a finding (idempotent: exact duplicates are dropped so a
    /// retried query cannot double-report).
    pub fn add(&mut self, finding: Finding) {
        if !self.findings.contains(&finding) {
            self.tracer.emit(TraceEvent::FindingRecorded {
                finding: if self.tracer.wants_query_detail() {
                    format!("{finding:?}")
                } else {
                    String::new()
                },
            });
            self.findings.push(finding);
        }
    }

    /// Merge another diagnosis's facts into this one without re-emitting
    /// trace events (the sub-diagnosis's tracer already announced them).
    pub fn absorb(&mut self, other: &Diagnosis) {
        for f in &other.findings {
            if !self.findings.contains(f) {
                self.findings.push(f.clone());
            }
        }
        for e in &other.ns_events {
            self.add_event(e.clone());
        }
        self.degrade(other.validation);
    }

    /// Record a nameserver failure event.
    pub fn add_event(&mut self, event: NsEvent) {
        if !self.ns_events.contains(&event) {
            self.ns_events.push(event);
        }
    }

    /// Degrade the validation state (Bogus is sticky; Secure is only
    /// reported when nothing degraded it).
    pub fn degrade(&mut self, to: ValidationState) {
        use ValidationState::*;
        self.validation = match (self.validation, to) {
            (Bogus, _) | (_, Bogus) => Bogus,
            (Indeterminate, _) | (_, Indeterminate) => Indeterminate,
            (Insecure, _) | (_, Insecure) => Insecure,
            _ => Secure,
        };
    }

    /// Does any finding match the predicate?
    pub fn any(&self, pred: impl Fn(&Finding) -> bool) -> bool {
        self.findings.iter().any(pred)
    }
}

impl Default for Diagnosis {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rcode_classification() {
        assert_eq!(
            NsFailure::from_rcode(Rcode::Refused),
            Some(NsFailure::Refused)
        );
        assert_eq!(NsFailure::from_rcode(Rcode::NoError), None);
        assert_eq!(NsFailure::from_rcode(Rcode::NxDomain), None);
        assert_eq!(
            NsFailure::from_rcode(Rcode::NotAuth),
            Some(NsFailure::NotAuth)
        );
        assert!(NsFailure::Refused.is_rcode_failure());
        assert!(!NsFailure::Timeout.is_rcode_failure());
        assert!(!NsFailure::Unroutable.is_rcode_failure());
    }

    #[test]
    fn degrade_is_sticky() {
        let mut d = Diagnosis::new();
        assert_eq!(d.validation, ValidationState::Secure);
        d.degrade(ValidationState::Insecure);
        assert_eq!(d.validation, ValidationState::Insecure);
        d.degrade(ValidationState::Bogus);
        assert_eq!(d.validation, ValidationState::Bogus);
        d.degrade(ValidationState::Secure);
        assert_eq!(d.validation, ValidationState::Bogus);
    }

    #[test]
    fn findings_deduplicate() {
        let mut d = Diagnosis::new();
        d.add(Finding::RrsigMissing {
            target: SigTarget::Answer,
        });
        d.add(Finding::RrsigMissing {
            target: SigTarget::Answer,
        });
        d.add(Finding::RrsigMissing {
            target: SigTarget::Dnskey,
        });
        assert_eq!(d.findings.len(), 2);
    }

    #[test]
    fn failure_display_matches_cloudflare_extra_text_style() {
        assert_eq!(NsFailure::Refused.to_string(), "rcode=REFUSED");
        assert_eq!(NsFailure::Timeout.to_string(), "timed out");
    }
}
