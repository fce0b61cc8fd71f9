//! RFC 8914 Extended DNS Errors.
//!
//! The EDE option (EDNS option code 15) carries a 16-bit INFO-CODE and an
//! optional UTF-8 EXTRA-TEXT. [`EdeCode`] reproduces the complete IANA
//! registry as of the paper's measurement (Table 1): codes 0–24 from the
//! RFC itself plus the five later registrations (25–29).

use crate::error::WireError;
use std::fmt;

/// EDNS option code assigned to Extended DNS Errors.
pub const EDE_OPTION_CODE: u16 = 15;

/// Registered Extended DNS Error INFO-CODEs (IANA registry, Table 1 of
/// the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdeCode {
    /// 0 — Other: an error not covered by any other code.
    Other,
    /// 1 — Unsupported DNSKEY Algorithm.
    UnsupportedDnskeyAlgorithm,
    /// 2 — Unsupported DS Digest Type.
    UnsupportedDsDigestType,
    /// 3 — Stale Answer: served from cache past its TTL (RFC 8767).
    StaleAnswer,
    /// 4 — Forged Answer: policy-mandated synthetic data.
    ForgedAnswer,
    /// 5 — DNSSEC Indeterminate.
    DnssecIndeterminate,
    /// 6 — DNSSEC Bogus.
    DnssecBogus,
    /// 7 — Signature Expired.
    SignatureExpired,
    /// 8 — Signature Not Yet Valid.
    SignatureNotYetValid,
    /// 9 — DNSKEY Missing: no DNSKEY matched the DS RRset.
    DnskeyMissing,
    /// 10 — RRSIGs Missing.
    RrsigsMissing,
    /// 11 — No Zone Key Bit Set.
    NoZoneKeyBitSet,
    /// 12 — NSEC Missing: denial of existence proof was absent.
    NsecMissing,
    /// 13 — Cached Error: the resolver replayed a previously-failed
    /// resolution from cache.
    CachedError,
    /// 14 — Not Ready: the server is not yet ready to serve.
    NotReady,
    /// 15 — Blocked: the domain is on a blocklist imposed by the operator.
    Blocked,
    /// 16 — Censored: blocked by an external requirement.
    Censored,
    /// 17 — Filtered: blocked at the client's request.
    Filtered,
    /// 18 — Prohibited: the client is outside the server's access policy.
    Prohibited,
    /// 19 — Stale NXDOMAIN Answer.
    StaleNxdomainAnswer,
    /// 20 — Not Authoritative.
    NotAuthoritative,
    /// 21 — Not Supported: the requested operation is not implemented.
    NotSupported,
    /// 22 — No Reachable Authority.
    NoReachableAuthority,
    /// 23 — Network Error: an unrecoverable error talking to another
    /// server.
    NetworkError,
    /// 24 — Invalid Data.
    InvalidData,
    /// 25 — Signature Expired before Valid (registered 2022).
    SignatureExpiredBeforeValid,
    /// 26 — Too Early (RFC 8446-style anti-replay, RFC 9250).
    TooEarly,
    /// 27 — Unsupported NSEC3 Iterations Value (RFC 9276).
    UnsupportedNsec3IterationsValue,
    /// 28 — Unable to conform to policy.
    UnableToConformToPolicy,
    /// 29 — Synthesized.
    Synthesized,
    /// Unassigned or private-use code, carried numerically.
    Unassigned(u16),
}

impl EdeCode {
    /// Every registered code in numeric order — iterating this is how the
    /// Table 1 report is produced.
    pub const REGISTERED: [EdeCode; 30] = [
        EdeCode::Other,
        EdeCode::UnsupportedDnskeyAlgorithm,
        EdeCode::UnsupportedDsDigestType,
        EdeCode::StaleAnswer,
        EdeCode::ForgedAnswer,
        EdeCode::DnssecIndeterminate,
        EdeCode::DnssecBogus,
        EdeCode::SignatureExpired,
        EdeCode::SignatureNotYetValid,
        EdeCode::DnskeyMissing,
        EdeCode::RrsigsMissing,
        EdeCode::NoZoneKeyBitSet,
        EdeCode::NsecMissing,
        EdeCode::CachedError,
        EdeCode::NotReady,
        EdeCode::Blocked,
        EdeCode::Censored,
        EdeCode::Filtered,
        EdeCode::Prohibited,
        EdeCode::StaleNxdomainAnswer,
        EdeCode::NotAuthoritative,
        EdeCode::NotSupported,
        EdeCode::NoReachableAuthority,
        EdeCode::NetworkError,
        EdeCode::InvalidData,
        EdeCode::SignatureExpiredBeforeValid,
        EdeCode::TooEarly,
        EdeCode::UnsupportedNsec3IterationsValue,
        EdeCode::UnableToConformToPolicy,
        EdeCode::Synthesized,
    ];

    /// Numeric INFO-CODE.
    pub fn to_u16(self) -> u16 {
        match self {
            EdeCode::Other => 0,
            EdeCode::UnsupportedDnskeyAlgorithm => 1,
            EdeCode::UnsupportedDsDigestType => 2,
            EdeCode::StaleAnswer => 3,
            EdeCode::ForgedAnswer => 4,
            EdeCode::DnssecIndeterminate => 5,
            EdeCode::DnssecBogus => 6,
            EdeCode::SignatureExpired => 7,
            EdeCode::SignatureNotYetValid => 8,
            EdeCode::DnskeyMissing => 9,
            EdeCode::RrsigsMissing => 10,
            EdeCode::NoZoneKeyBitSet => 11,
            EdeCode::NsecMissing => 12,
            EdeCode::CachedError => 13,
            EdeCode::NotReady => 14,
            EdeCode::Blocked => 15,
            EdeCode::Censored => 16,
            EdeCode::Filtered => 17,
            EdeCode::Prohibited => 18,
            EdeCode::StaleNxdomainAnswer => 19,
            EdeCode::NotAuthoritative => 20,
            EdeCode::NotSupported => 21,
            EdeCode::NoReachableAuthority => 22,
            EdeCode::NetworkError => 23,
            EdeCode::InvalidData => 24,
            EdeCode::SignatureExpiredBeforeValid => 25,
            EdeCode::TooEarly => 26,
            EdeCode::UnsupportedNsec3IterationsValue => 27,
            EdeCode::UnableToConformToPolicy => 28,
            EdeCode::Synthesized => 29,
            EdeCode::Unassigned(v) => v,
        }
    }

    /// Decode a numeric INFO-CODE.
    pub fn from_u16(v: u16) -> Self {
        if let Some(code) = Self::REGISTERED.get(usize::from(v)) {
            *code
        } else {
            EdeCode::Unassigned(v)
        }
    }

    /// The registry description ("purpose") of the code.
    pub fn description(self) -> &'static str {
        match self {
            EdeCode::Other => "Other",
            EdeCode::UnsupportedDnskeyAlgorithm => "Unsupported DNSKEY Algorithm",
            EdeCode::UnsupportedDsDigestType => "Unsupported DS Digest Type",
            EdeCode::StaleAnswer => "Stale Answer",
            EdeCode::ForgedAnswer => "Forged Answer",
            EdeCode::DnssecIndeterminate => "DNSSEC Indeterminate",
            EdeCode::DnssecBogus => "DNSSEC Bogus",
            EdeCode::SignatureExpired => "Signature Expired",
            EdeCode::SignatureNotYetValid => "Signature Not Yet Valid",
            EdeCode::DnskeyMissing => "DNSKEY Missing",
            EdeCode::RrsigsMissing => "RRSIGs Missing",
            EdeCode::NoZoneKeyBitSet => "No Zone Key Bit Set",
            EdeCode::NsecMissing => "NSEC Missing",
            EdeCode::CachedError => "Cached Error",
            EdeCode::NotReady => "Not Ready",
            EdeCode::Blocked => "Blocked",
            EdeCode::Censored => "Censored",
            EdeCode::Filtered => "Filtered",
            EdeCode::Prohibited => "Prohibited",
            EdeCode::StaleNxdomainAnswer => "Stale NXDOMAIN Answer",
            EdeCode::NotAuthoritative => "Not Authoritative",
            EdeCode::NotSupported => "Not Supported",
            EdeCode::NoReachableAuthority => "No Reachable Authority",
            EdeCode::NetworkError => "Network Error",
            EdeCode::InvalidData => "Invalid Data",
            EdeCode::SignatureExpiredBeforeValid => "Signature Expired before Valid",
            EdeCode::TooEarly => "Too Early",
            EdeCode::UnsupportedNsec3IterationsValue => "Unsupported NSEC3 Iterations Value",
            EdeCode::UnableToConformToPolicy => "Unable to conform to policy",
            EdeCode::Synthesized => "Synthesized",
            EdeCode::Unassigned(_) => "Unassigned",
        }
    }
}

impl fmt::Display for EdeCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.description(), self.to_u16())
    }
}

/// One Extended DNS Error entry: INFO-CODE plus optional EXTRA-TEXT.
///
/// Multiple entries may appear in one response (the paper's scan sees
/// combinations like *Stale Answer* + *No Reachable Authority* +
/// *Network Error*), each as its own EDNS option.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EdeEntry {
    /// The INFO-CODE.
    pub code: EdeCode,
    /// Human-readable elaboration; empty when absent. RFC 8914 says the
    /// text is UTF-8 and not NUL-terminated.
    pub extra_text: String,
}

impl EdeEntry {
    /// Entry with no EXTRA-TEXT.
    pub fn bare(code: EdeCode) -> Self {
        EdeEntry {
            code,
            extra_text: String::new(),
        }
    }

    /// Entry with EXTRA-TEXT.
    pub fn with_text(code: EdeCode, text: impl Into<String>) -> Self {
        EdeEntry {
            code,
            extra_text: text.into(),
        }
    }

    /// Append the option *payload* (INFO-CODE ‖ EXTRA-TEXT) to `out`.
    pub fn encode_payload(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        if self.extra_text.len() > usize::from(u16::MAX) - 2 {
            return Err(WireError::FieldOverflow("EDE EXTRA-TEXT"));
        }
        out.extend_from_slice(&self.code.to_u16().to_be_bytes());
        out.extend_from_slice(self.extra_text.as_bytes());
        Ok(())
    }

    /// Decode an option payload.
    pub fn decode_payload(data: &[u8]) -> Result<Self, WireError> {
        if data.len() < 2 {
            return Err(WireError::Truncated {
                context: "EDE INFO-CODE",
            });
        }
        let code = EdeCode::from_u16(u16::from_be_bytes([data[0], data[1]]));
        // RFC 8914: treat invalid UTF-8 leniently rather than dropping the
        // whole option.
        let extra_text = String::from_utf8_lossy(&data[2..]).into_owned();
        Ok(EdeEntry { code, extra_text })
    }
}

impl fmt::Display for EdeEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.extra_text.is_empty() {
            write!(f, "{}", self.code)
        } else {
            write!(f, "{}: {}", self.code, self.extra_text)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_ordered() {
        assert_eq!(EdeCode::REGISTERED.len(), 30);
        for (i, code) in EdeCode::REGISTERED.iter().enumerate() {
            assert_eq!(code.to_u16(), i as u16);
            assert_eq!(EdeCode::from_u16(i as u16), *code);
        }
    }

    #[test]
    fn unassigned_roundtrip() {
        assert_eq!(EdeCode::from_u16(30), EdeCode::Unassigned(30));
        assert_eq!(EdeCode::Unassigned(49152).to_u16(), 49152);
    }

    #[test]
    fn table1_descriptions_spot_check() {
        assert_eq!(EdeCode::DnssecBogus.description(), "DNSSEC Bogus");
        assert_eq!(
            EdeCode::from_u16(22).description(),
            "No Reachable Authority"
        );
        assert_eq!(
            EdeCode::from_u16(25).description(),
            "Signature Expired before Valid"
        );
        assert_eq!(EdeCode::from_u16(29).description(), "Synthesized");
    }

    #[test]
    fn payload_roundtrip() {
        let e = EdeEntry::with_text(
            EdeCode::NetworkError,
            "1.2.3.4:53 rcode=REFUSED for a.com A",
        );
        let mut payload = Vec::new();
        e.encode_payload(&mut payload).unwrap();
        assert_eq!(EdeEntry::decode_payload(&payload).unwrap(), e);
    }

    #[test]
    fn bare_payload_is_two_bytes() {
        let e = EdeEntry::bare(EdeCode::DnssecBogus);
        let mut payload = Vec::new();
        e.encode_payload(&mut payload).unwrap();
        assert_eq!(payload, vec![0, 6]);
        assert_eq!(EdeEntry::decode_payload(&payload).unwrap(), e);
    }

    #[test]
    fn short_payload_rejected() {
        assert!(EdeEntry::decode_payload(&[0]).is_err());
    }

    #[test]
    fn invalid_utf8_is_lenient() {
        let decoded = EdeEntry::decode_payload(&[0, 6, 0xff, 0xfe]).unwrap();
        assert_eq!(decoded.code, EdeCode::DnssecBogus);
        assert!(!decoded.extra_text.is_empty());
    }
}
