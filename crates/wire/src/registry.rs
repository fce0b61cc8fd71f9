//! IANA DNSSEC registries: algorithm numbers and DS digest types.
//!
//! The testbed's `ds-unassigned-key-algo` (100), `ds-reserved-key-algo`
//! (200), `unassigned-zsk-algo` (100), `reserved-zsk-algo` (200) and
//! `ds-unassigned-digest-algo` (100) cases all hinge on the registry
//! *status* of a number, so the registry models assigned / unassigned /
//! reserved ranges explicitly, mirroring the IANA tables as of the paper's
//! measurement (May 2023).

use std::fmt;

/// DNSSEC security algorithm numbers
/// (IANA "DNS Security Algorithm Numbers" registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecAlg(pub u8);

/// Registry status of an algorithm or digest number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegistryStatus {
    /// A usable, assigned signing algorithm.
    Assigned,
    /// Assigned but not for zone signing (e.g. DELETE, INDIRECT).
    AssignedNonSigning,
    /// In the registry's unassigned range.
    Unassigned,
    /// In the registry's reserved range.
    Reserved,
}

impl SecAlg {
    /// RSA/MD5 — deprecated; must not be used (RFC 6725).
    pub const RSAMD5: SecAlg = SecAlg(1);
    /// Diffie-Hellman (non-signing).
    pub const DH: SecAlg = SecAlg(2);
    /// DSA/SHA-1 — optional, discouraged.
    pub const DSA: SecAlg = SecAlg(3);
    /// RSA/SHA-1.
    pub const RSASHA1: SecAlg = SecAlg(5);
    /// DSA-NSEC3-SHA1.
    pub const DSA_NSEC3_SHA1: SecAlg = SecAlg(6);
    /// RSASHA1-NSEC3-SHA1.
    pub const RSASHA1_NSEC3_SHA1: SecAlg = SecAlg(7);
    /// RSA/SHA-256 (RFC 5702).
    pub const RSASHA256: SecAlg = SecAlg(8);
    /// RSA/SHA-512 (RFC 5702).
    pub const RSASHA512: SecAlg = SecAlg(10);
    /// GOST R 34.10-2001 (RFC 5933) — optional, rarely supported.
    pub const ECC_GOST: SecAlg = SecAlg(12);
    /// ECDSA P-256 with SHA-256 (RFC 6605).
    pub const ECDSAP256SHA256: SecAlg = SecAlg(13);
    /// ECDSA P-384 with SHA-384 (RFC 6605).
    pub const ECDSAP384SHA384: SecAlg = SecAlg(14);
    /// Ed25519 (RFC 8080).
    pub const ED25519: SecAlg = SecAlg(15);
    /// Ed448 (RFC 8080) — the newest algorithm; Cloudflare did not yet
    /// support it at measurement time (paper §3.3).
    pub const ED448: SecAlg = SecAlg(16);

    /// Registry status of this number (per IANA as of May 2023:
    /// 17–122 unassigned, 123–251 reserved, 253–254 private use).
    pub fn status(self) -> RegistryStatus {
        match self.0 {
            1 | 3 | 5..=8 | 10 | 12..=16 => RegistryStatus::Assigned,
            0 | 4 | 9 | 11 | 252 | 255 => RegistryStatus::Reserved,
            2 => RegistryStatus::AssignedNonSigning,
            17..=122 => RegistryStatus::Unassigned,
            123..=251 => RegistryStatus::Reserved,
            253 | 254 => RegistryStatus::AssignedNonSigning, // private use
        }
    }

    /// IANA mnemonic, or a synthesized one for unassigned/reserved values.
    pub fn mnemonic(self) -> String {
        match self.0 {
            1 => "RSAMD5".into(),
            2 => "DH".into(),
            3 => "DSA".into(),
            5 => "RSASHA1".into(),
            6 => "DSA-NSEC3-SHA1".into(),
            7 => "RSASHA1-NSEC3-SHA1".into(),
            8 => "RSASHA256".into(),
            10 => "RSASHA512".into(),
            12 => "ECC-GOST".into(),
            13 => "ECDSAP256SHA256".into(),
            14 => "ECDSAP384SHA384".into(),
            15 => "ED25519".into(),
            16 => "ED448".into(),
            v => format!("ALG{v}"),
        }
    }

    /// True if RFC 8624 forbids *validating* with this algorithm
    /// (RSA/MD5) or it is formally prohibited for signing (DSA family).
    pub fn is_deprecated(self) -> bool {
        matches!(self.0, 1 | 3 | 6)
    }
}

impl fmt::Display for SecAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// DS digest type numbers
/// (IANA "Delegation Signer Digest Algorithms" registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DigestAlg(pub u8);

impl DigestAlg {
    /// SHA-1 — mandatory.
    pub const SHA1: DigestAlg = DigestAlg(1);
    /// SHA-256 — mandatory.
    pub const SHA256: DigestAlg = DigestAlg(2);
    /// GOST R 34.11-94 — optional; Cloudflare does not support it
    /// (paper §4.2.10).
    pub const GOST: DigestAlg = DigestAlg(3);
    /// SHA-384 — optional.
    pub const SHA384: DigestAlg = DigestAlg(4);

    /// Registry status (0 reserved; 1–4 assigned; 5+ unassigned at the
    /// measurement date — §4.2.10 reports domains with digest type 8,
    /// and the testbed uses 100).
    pub fn status(self) -> RegistryStatus {
        match self.0 {
            0 => RegistryStatus::Reserved,
            1..=4 => RegistryStatus::Assigned,
            _ => RegistryStatus::Unassigned,
        }
    }

    /// IANA mnemonic, or a synthesized one.
    pub fn mnemonic(self) -> String {
        match self.0 {
            1 => "SHA-1".into(),
            2 => "SHA-256".into(),
            3 => "GOST R 34.11-94".into(),
            4 => "SHA-384".into(),
            v => format!("DIGEST{v}"),
        }
    }
}

impl fmt::Display for DigestAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_algorithm_statuses() {
        // The statuses the paper's subdomain groups 2, 5 and 8 rely on.
        assert_eq!(SecAlg(100).status(), RegistryStatus::Unassigned);
        assert_eq!(SecAlg(200).status(), RegistryStatus::Reserved);
        assert_eq!(SecAlg::RSASHA256.status(), RegistryStatus::Assigned);
        assert_eq!(SecAlg::ED448.status(), RegistryStatus::Assigned);
        assert_eq!(SecAlg::RSAMD5.status(), RegistryStatus::Assigned);
        assert!(SecAlg::RSAMD5.is_deprecated());
        assert!(SecAlg::DSA.is_deprecated());
        assert!(!SecAlg::ED25519.is_deprecated());
    }

    #[test]
    fn digest_statuses() {
        assert_eq!(DigestAlg(100).status(), RegistryStatus::Unassigned);
        assert_eq!(DigestAlg(8).status(), RegistryStatus::Unassigned);
        assert_eq!(DigestAlg(0).status(), RegistryStatus::Reserved);
        assert_eq!(DigestAlg::SHA256.status(), RegistryStatus::Assigned);
        assert_eq!(DigestAlg::GOST.status(), RegistryStatus::Assigned);
    }

    #[test]
    fn mnemonics() {
        assert_eq!(SecAlg(8).mnemonic(), "RSASHA256");
        assert_eq!(SecAlg(100).mnemonic(), "ALG100");
        assert_eq!(DigestAlg(3).mnemonic(), "GOST R 34.11-94");
    }
}
