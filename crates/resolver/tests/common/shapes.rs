// Every `Finding` variant at every parameter value an emission rule (or
// an explanation) could tell apart: 61 instantiations. Included by
// `tests/emission_pin.rs`, which pins what the vendors emit for them,
// and by `profiles::tests`, which checks that the shape bits, the rule
// tables and the explanations agree about them. The includer imports
// the `diagnosis` types.

fn shapes() -> Vec<Finding> {
    use Finding::*;
    let mut out = vec![
        AllServersFailed {
            any_rcode_failure: false,
        },
        AllServersFailed {
            any_rcode_failure: true,
        },
        // Two addresses, so that which one comes first matters.
        EdnsNotSupported {
            addr: "192.0.2.53".parse().unwrap(),
        },
        EdnsNotSupported {
            addr: "2001:db8::53".parse().unwrap(),
        },
        DsNoMatchingDnskey {
            cause: DsMismatch::TagOrAlgorithm,
        },
        DsNoMatchingDnskey {
            cause: DsMismatch::Digest,
        },
        DsUnsupportedDigest {
            assigned: true,
            digest_type: 3,
        },
        DsUnsupportedDigest {
            assigned: false,
            digest_type: 100,
        },
        DnskeyUnobtainable {
            failure: NsFailure::Refused,
        },
        DnskeySigMissingByMatchedKey,
        DnskeyAllSigsMissing,
        NoZoneKeyBitSet,
        StandbyKeyWithoutRrsig,
        UnsupportedKeySize { bits: 512 },
        InsecureReferralProofMissing,
        Nsec3IterationsExceeded { iterations: 200 },
        ServedStale { nxdomain: false },
        ServedStale { nxdomain: true },
        CachedError,
    ];
    for status in [
        AlgStatus::UnsupportedAssigned,
        AlgStatus::Unassigned,
        AlgStatus::Reserved,
        AlgStatus::Deprecated,
    ] {
        let algorithm = 100;
        out.push(DsUnknownAlgorithm { status, algorithm });
        out.push(ZoneAlgorithmUnsupported { status, algorithm });
    }
    for (zsk_present, some_sig_valid) in
        [(false, false), (false, true), (true, false), (true, true)]
    {
        out.push(DnskeySigBogus {
            zsk_present,
            some_sig_valid,
        });
    }
    for target in [SigTarget::Answer, SigTarget::Dnskey, SigTarget::Denial] {
        out.push(RrsigMissing { target });
        out.push(SignatureExpired { target });
        out.push(SignatureNotYetValid { target });
        out.push(SignatureExpiredBeforeValid { target });
        out.push(SignatureBogus { target });
        out.push(RrsigKeyMissing { target });
    }
    for kind in [NegativeKind::Nodata, NegativeKind::Nxdomain] {
        for issue in [
            DenialIssue::Absent,
            DenialIssue::OwnerMismatch,
            DenialIssue::ChainMismatch,
        ] {
            out.push(DenialProofBroken { issue, kind });
        }
        out.push(DenialSigMissing { kind });
        out.push(DenialSigBogus { kind });
        out.push(NegativeUnsigned { kind });
    }
    out
}
