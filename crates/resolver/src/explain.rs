//! Human-readable explanations of findings — the troubleshooting story
//! the paper says EDE should enable, rendered from the resolver's own
//! diagnosis.
//!
//! Where an EDE code compresses a failure into 16 bits, the diagnosis
//! retains the structure; this module turns it back into the kind of
//! text a DNS operator would want (`dnsviz`-style, but from the
//! resolver's vantage point).

use crate::diagnosis::{
    AlgStatus, DenialIssue, Diagnosis, DsMismatch, Finding, NegativeKind, SigTarget,
    ValidationState,
};

fn target_noun(t: SigTarget) -> &'static str {
    match t {
        SigTarget::Answer => "the answer RRset",
        SigTarget::Dnskey => "the zone's DNSKEY RRset",
        SigTarget::Denial => "the denial-of-existence records",
    }
}

fn kind_noun(k: NegativeKind) -> &'static str {
    match k {
        NegativeKind::Nodata => "NODATA answer",
        NegativeKind::Nxdomain => "NXDOMAIN answer",
    }
}

/// One-sentence operator-facing explanation of a finding.
pub fn explain_finding(f: &Finding) -> String {
    match f {
        Finding::AllServersFailed { any_rcode_failure: true } => {
            "every authoritative nameserver refused or failed the query — the delegation is lame".into()
        }
        Finding::AllServersFailed { any_rcode_failure: false } => {
            "no authoritative nameserver could be reached (silence or unroutable glue) — the delegation is lame".into()
        }
        Finding::EdnsNotSupported { addr } => format!(
            "the server at {addr} ignored EDNS entirely; responses from it cannot carry DNSSEC data"
        ),
        Finding::DsUnknownAlgorithm { status, algorithm } => match status {
            AlgStatus::Unassigned => format!(
                "the DS record names algorithm {algorithm}, which IANA has never assigned — the delegation cannot be validated"
            ),
            AlgStatus::Reserved => format!(
                "the DS record names algorithm {algorithm}, a reserved registry value"
            ),
            _ => format!("the DS record names algorithm {algorithm}, which this resolver cannot use"),
        },
        Finding::DsUnsupportedDigest { assigned: true, digest_type } => format!(
            "the DS digest type {digest_type} is assigned but not supported by this resolver"
        ),
        Finding::DsUnsupportedDigest { assigned: false, digest_type } => format!(
            "the DS digest type {digest_type} is not an assigned registry value"
        ),
        Finding::DsNoMatchingDnskey { cause: DsMismatch::TagOrAlgorithm } => {
            "no DNSKEY in the child zone matches the DS record's key tag and algorithm — \
             the key was removed, replaced, or the DS is stale".into()
        }
        Finding::DsNoMatchingDnskey { cause: DsMismatch::Digest } => {
            "a DNSKEY matches the DS key tag but its digest disagrees — the published key \
             differs from the one the DS was generated for".into()
        }
        Finding::DnskeyUnobtainable { failure } => format!(
            "the zone is signed (a DS exists) but its DNSKEY RRset could not be fetched ({failure})"
        ),
        Finding::DnskeySigMissingByMatchedKey => {
            "the DS-matched KSK signed nothing over the DNSKEY RRset; other signatures exist \
             but cannot anchor the chain of trust".into()
        }
        Finding::DnskeyAllSigsMissing => {
            "the DNSKEY RRset carries no RRSIG at all — the chain of trust cannot be established".into()
        }
        Finding::DnskeySigBogus { zsk_present, some_sig_valid } => {
            let mut s = String::from(
                "the signature over the DNSKEY RRset fails cryptographic verification",
            );
            if *some_sig_valid {
                s.push_str(" (a signature by a non-anchored key does verify)");
            }
            if !zsk_present {
                s.push_str("; no usable zone-signing key is published");
            }
            s
        }
        Finding::NoZoneKeyBitSet => {
            "every published DNSKEY has the Zone Key flag clear — none may sign zone data \
             (RFC 4034 §2.1.1)".into()
        }
        Finding::StandbyKeyWithoutRrsig => {
            "a stand-by key (SEP flag, no DS, no signatures) is published — harmless during a \
             rollover but flagged by Cloudflare as RRSIGs Missing".into()
        }
        Finding::UnsupportedKeySize { bits } => {
            format!("a published key is only {bits} bits — below this resolver's minimum")
        }
        Finding::RrsigMissing { target } => format!("{} has no covering RRSIG", target_noun(*target)),
        Finding::SignatureExpired { target } => {
            format!("the RRSIG over {} has expired", target_noun(*target))
        }
        Finding::SignatureNotYetValid { target } => {
            format!("the RRSIG over {} is not yet valid", target_noun(*target))
        }
        Finding::SignatureExpiredBeforeValid { target } => format!(
            "the RRSIG over {} expires before its inception — the validity window is inverted",
            target_noun(*target)
        ),
        Finding::SignatureBogus { target } => format!(
            "the RRSIG over {} fails cryptographic verification",
            target_noun(*target)
        ),
        Finding::RrsigKeyMissing { target } => format!(
            "the RRSIG over {} references a key tag that is not in the zone's DNSKEY RRset",
            target_noun(*target)
        ),
        Finding::ZoneAlgorithmUnsupported { status, algorithm } => match status {
            AlgStatus::Deprecated => format!(
                "the zone is signed with deprecated algorithm {algorithm}; validators must treat it as unsigned"
            ),
            _ => format!(
                "the zone is signed with algorithm {algorithm}, which this resolver does not implement; treated as unsigned"
            ),
        },
        Finding::DenialProofBroken { issue, kind } => match issue {
            DenialIssue::Absent => format!(
                "the {} carries no NSEC3 proof at all",
                kind_noun(*kind)
            ),
            DenialIssue::OwnerMismatch => format!(
                "the NSEC3 records in the {} hash to the wrong owner names — they prove nothing about the queried name",
                kind_noun(*kind)
            ),
            DenialIssue::ChainMismatch => format!(
                "the NSEC3 chain's next-hash pointers in the {} cover no interval containing the queried name",
                kind_noun(*kind)
            ),
        },
        Finding::DenialSigMissing { kind } => format!(
            "the NSEC3 proof in the {} is unsigned",
            kind_noun(*kind)
        ),
        Finding::DenialSigBogus { kind } => format!(
            "the NSEC3 proof in the {} has signatures that fail verification",
            kind_noun(*kind)
        ),
        Finding::NegativeUnsigned { kind } => format!(
            "the {} from a signed zone arrived with an unsigned SOA and no proof — the zone's denial machinery is broken",
            kind_noun(*kind)
        ),
        Finding::InsecureReferralProofMissing => {
            "the parent referred without a DS and without an NSEC3 proof of DS absence — \
             the insecure delegation cannot be verified".into()
        }
        Finding::Nsec3IterationsExceeded { iterations } => format!(
            "the zone's NSEC3 iteration count ({iterations}) exceeds this resolver's limit (RFC 9276 requires 0)"
        ),
        Finding::ServedStale { nxdomain: false } => {
            "live resolution failed; an expired cached answer was served instead (RFC 8767)".into()
        }
        Finding::ServedStale { nxdomain: true } => {
            "live resolution failed; an expired cached NXDOMAIN was served instead".into()
        }
        Finding::CachedError => {
            "this SERVFAIL was replayed from the failure cache of an earlier attempt".into()
        }
    }
}

/// Render a whole diagnosis as an operator-facing report.
pub fn explain(diag: &Diagnosis) -> String {
    let mut out = String::new();
    out.push_str(match diag.validation {
        ValidationState::Secure => "Validation: SECURE — the chain of trust is intact.\n",
        ValidationState::Insecure => {
            "Validation: INSECURE — provably no chain of trust; answers are unauthenticated.\n"
        }
        ValidationState::Bogus => "Validation: BOGUS — the chain of trust is broken.\n",
        ValidationState::Indeterminate => "Validation: INDETERMINATE.\n",
    });
    if diag.findings.is_empty() && diag.ns_events.is_empty() {
        out.push_str("No problems found.\n");
        return out;
    }
    for f in &diag.findings {
        out.push_str("  * ");
        out.push_str(&explain_finding(f));
        out.push('\n');
    }
    for e in &diag.ns_events {
        out.push_str(&format!(
            "  - {}:53 {} (while asking for {} {})\n",
            e.addr, e.failure, e.qname, e.qtype
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnosis::NsFailure;

    #[test]
    fn every_finding_variant_explains_without_panicking() {
        use Finding::*;
        let samples: Vec<Finding> = vec![
            AllServersFailed {
                any_rcode_failure: true,
            },
            AllServersFailed {
                any_rcode_failure: false,
            },
            EdnsNotSupported {
                addr: "192.0.2.1".parse().expect("addr"),
            },
            DsUnknownAlgorithm {
                status: AlgStatus::Unassigned,
                algorithm: 100,
            },
            DsUnknownAlgorithm {
                status: AlgStatus::Reserved,
                algorithm: 200,
            },
            DsUnsupportedDigest {
                assigned: true,
                digest_type: 3,
            },
            DsUnsupportedDigest {
                assigned: false,
                digest_type: 100,
            },
            DsNoMatchingDnskey {
                cause: DsMismatch::TagOrAlgorithm,
            },
            DsNoMatchingDnskey {
                cause: DsMismatch::Digest,
            },
            DnskeyUnobtainable {
                failure: NsFailure::Refused,
            },
            DnskeySigMissingByMatchedKey,
            DnskeyAllSigsMissing,
            DnskeySigBogus {
                zsk_present: true,
                some_sig_valid: false,
            },
            DnskeySigBogus {
                zsk_present: false,
                some_sig_valid: true,
            },
            NoZoneKeyBitSet,
            StandbyKeyWithoutRrsig,
            UnsupportedKeySize { bits: 512 },
            RrsigMissing {
                target: SigTarget::Answer,
            },
            SignatureExpired {
                target: SigTarget::Dnskey,
            },
            SignatureNotYetValid {
                target: SigTarget::Answer,
            },
            SignatureExpiredBeforeValid {
                target: SigTarget::Denial,
            },
            SignatureBogus {
                target: SigTarget::Answer,
            },
            RrsigKeyMissing {
                target: SigTarget::Answer,
            },
            ZoneAlgorithmUnsupported {
                status: AlgStatus::Deprecated,
                algorithm: 1,
            },
            ZoneAlgorithmUnsupported {
                status: AlgStatus::UnsupportedAssigned,
                algorithm: 16,
            },
            DenialProofBroken {
                issue: DenialIssue::Absent,
                kind: NegativeKind::Nodata,
            },
            DenialProofBroken {
                issue: DenialIssue::OwnerMismatch,
                kind: NegativeKind::Nxdomain,
            },
            DenialProofBroken {
                issue: DenialIssue::ChainMismatch,
                kind: NegativeKind::Nxdomain,
            },
            DenialSigMissing {
                kind: NegativeKind::Nxdomain,
            },
            DenialSigBogus {
                kind: NegativeKind::Nodata,
            },
            NegativeUnsigned {
                kind: NegativeKind::Nodata,
            },
            InsecureReferralProofMissing,
            Nsec3IterationsExceeded { iterations: 2000 },
            ServedStale { nxdomain: false },
            ServedStale { nxdomain: true },
            CachedError,
        ];
        for f in &samples {
            let text = explain_finding(f);
            assert!(!text.is_empty());
            assert!(text.len() > 20, "{f:?} → {text}");
        }
    }

    #[test]
    fn clean_diagnosis_reads_clean() {
        let d = Diagnosis::new();
        let text = explain(&d);
        assert!(text.contains("SECURE"));
        assert!(text.contains("No problems found"));
    }

    #[test]
    fn report_includes_findings_and_events() {
        let mut d = Diagnosis::new();
        d.add(Finding::DnskeyAllSigsMissing);
        d.degrade(ValidationState::Bogus);
        d.add_event(crate::diagnosis::NsEvent {
            addr: "192.0.2.7".parse().expect("addr"),
            failure: NsFailure::Timeout,
            qname: ede_wire::Name::parse("x.example").expect("name"),
            qtype: ede_wire::RrType::A,
        });
        let text = explain(&d);
        assert!(text.contains("BOGUS"));
        assert!(text.contains("no RRSIG at all"));
        assert!(text.contains("192.0.2.7:53 timed out"));
    }
}
