//! Resource record TYPE registry.

use std::fmt;

/// DNS RR TYPE values used by the reproduction, plus a transparent
/// fallback for everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RrType {
    /// IPv4 host address (RFC 1035).
    A,
    /// Authoritative name server (RFC 1035).
    Ns,
    /// Canonical name alias (RFC 1035).
    Cname,
    /// Start of authority (RFC 1035).
    Soa,
    /// Domain name pointer (RFC 1035).
    Ptr,
    /// Mail exchange (RFC 1035).
    Mx,
    /// Text strings (RFC 1035).
    Txt,
    /// IPv6 host address (RFC 3596).
    Aaaa,
    /// EDNS(0) OPT pseudo-RR (RFC 6891).
    Opt,
    /// Delegation signer (RFC 4034).
    Ds,
    /// DNSSEC signature (RFC 4034).
    Rrsig,
    /// Authenticated denial of existence (RFC 4034).
    Nsec,
    /// DNSSEC public key (RFC 4034).
    Dnskey,
    /// Hashed authenticated denial of existence (RFC 5155).
    Nsec3,
    /// NSEC3 zone parameters (RFC 5155).
    Nsec3param,
    /// Any other TYPE, carried numerically.
    Other(u16),
}

impl RrType {
    /// Numeric TYPE value.
    pub fn to_u16(self) -> u16 {
        match self {
            RrType::A => 1,
            RrType::Ns => 2,
            RrType::Cname => 5,
            RrType::Soa => 6,
            RrType::Ptr => 12,
            RrType::Mx => 15,
            RrType::Txt => 16,
            RrType::Aaaa => 28,
            RrType::Opt => 41,
            RrType::Ds => 43,
            RrType::Rrsig => 46,
            RrType::Nsec => 47,
            RrType::Dnskey => 48,
            RrType::Nsec3 => 50,
            RrType::Nsec3param => 51,
            RrType::Other(v) => v,
        }
    }

    /// Decode a numeric TYPE value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RrType::A,
            2 => RrType::Ns,
            5 => RrType::Cname,
            6 => RrType::Soa,
            12 => RrType::Ptr,
            15 => RrType::Mx,
            16 => RrType::Txt,
            28 => RrType::Aaaa,
            41 => RrType::Opt,
            43 => RrType::Ds,
            46 => RrType::Rrsig,
            47 => RrType::Nsec,
            48 => RrType::Dnskey,
            50 => RrType::Nsec3,
            51 => RrType::Nsec3param,
            other => RrType::Other(other),
        }
    }
}

impl fmt::Display for RrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrType::A => write!(f, "A"),
            RrType::Ns => write!(f, "NS"),
            RrType::Cname => write!(f, "CNAME"),
            RrType::Soa => write!(f, "SOA"),
            RrType::Ptr => write!(f, "PTR"),
            RrType::Mx => write!(f, "MX"),
            RrType::Txt => write!(f, "TXT"),
            RrType::Aaaa => write!(f, "AAAA"),
            RrType::Opt => write!(f, "OPT"),
            RrType::Ds => write!(f, "DS"),
            RrType::Rrsig => write!(f, "RRSIG"),
            RrType::Nsec => write!(f, "NSEC"),
            RrType::Dnskey => write!(f, "DNSKEY"),
            RrType::Nsec3 => write!(f, "NSEC3"),
            RrType::Nsec3param => write!(f, "NSEC3PARAM"),
            RrType::Other(v) => write!(f, "TYPE{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_roundtrip() {
        for v in 0..300u16 {
            assert_eq!(RrType::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn known_values() {
        assert_eq!(RrType::A.to_u16(), 1);
        assert_eq!(RrType::Aaaa.to_u16(), 28);
        assert_eq!(RrType::Opt.to_u16(), 41);
        assert_eq!(RrType::Rrsig.to_u16(), 46);
        assert_eq!(RrType::Nsec3.to_u16(), 50);
    }
}
