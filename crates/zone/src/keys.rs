//! Zone key management: KSK/ZSK pairs, DNSKEY records, DS production.

use crate::canonical::{ds_digest_of, DnskeyFields};
use crate::rrset::Rrset;
use ede_crypto::simsig::{SigningKey, MIN_PUBKEY_LEN};
use ede_wire::{DigestAlg, Name, Rdata, RrType};

/// DNSKEY flags value for a Zone Signing Key (Zone Key bit).
pub const FLAGS_ZSK: u16 = 256;
/// DNSKEY flags value for a Key Signing Key (Zone Key + SEP bits).
pub const FLAGS_KSK: u16 = 257;

/// One zone key: the signing key plus its DNSKEY metadata.
///
/// Immutable once derived: the key tag is a function of the flags, the
/// algorithm and the public key, and every signature carries it, so it
/// is computed once here instead of re-encoding the DNSKEY per RRSIG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneKey {
    signing: SigningKey,
    flags: u16,
    key_tag: u16,
}

impl ZoneKey {
    /// Deterministically derive a key for `apex` with the given role.
    /// `role` is folded into the seed so KSK ≠ ZSK.
    ///
    /// Nothing is written out: the seed is streamed into the derivation,
    /// and the key tag is taken over the public key's header and secret,
    /// the zeros after them adding nothing to it.
    pub fn generate(apex: &Name, role: &str, algorithm: u8, key_bits: u16, flags: u16) -> Self {
        let signing =
            SigningKey::from_seed_parts(algorithm, key_bits, &[apex.as_wire(), role.as_bytes()]);
        let head = signing.public_key_head();
        let key_tag = fields(&signing, flags, &head).key_tag();
        ZoneKey {
            signing,
            flags,
            key_tag,
        }
    }

    /// The zone's Key Signing Key ([`FLAGS_KSK`], role `ksk`): all a
    /// parent's DS needs.
    pub fn ksk(apex: &Name, algorithm: u8, key_bits: u16) -> Self {
        ZoneKey::generate(apex, "ksk", algorithm, key_bits, FLAGS_KSK)
    }

    /// The zone's Zone Signing Key ([`FLAGS_ZSK`], role `zsk`): all its
    /// data other than the DNSKEY set needs.
    pub fn zsk(apex: &Name, algorithm: u8, key_bits: u16) -> Self {
        ZoneKey::generate(apex, "zsk", algorithm, key_bits, FLAGS_ZSK)
    }

    /// The (simulated) private key.
    pub fn signing(&self) -> &SigningKey {
        &self.signing
    }

    /// The DNSKEY RDATA for this key.
    pub fn dnskey_rdata(&self) -> Rdata {
        Rdata::Dnskey {
            flags: self.flags,
            protocol: 3,
            algorithm: self.signing.algorithm,
            public_key: self.signing.public_key(),
        }
    }

    /// RFC 4034 Appendix B key tag over the DNSKEY RDATA.
    pub fn key_tag(&self) -> u16 {
        self.key_tag
    }

    /// Produce the DS RDATA a parent would publish for this key (see
    /// [`crate::canonical::ds_digest`] for which digest types are
    /// computed for real), the DNSKEY streamed into the digest from its
    /// fields rather than written out.
    pub fn ds_rdata(&self, owner: &Name, digest_type: DigestAlg) -> Rdata {
        let head = self.signing.public_key_head();
        let digest = ds_digest_of(
            owner,
            &fields(&self.signing, self.flags, &head),
            digest_type,
        );
        Rdata::Ds {
            key_tag: self.key_tag(),
            algorithm: self.signing.algorithm,
            digest_type: digest_type.0,
            digest: digest.to_vec(),
        }
    }
}

/// The DNSKEY RDATA of `signing` under `flags`, as its fields: `head` is
/// the public key's head, every octet after it zero.
fn fields<'a>(
    signing: &SigningKey,
    flags: u16,
    head: &'a [u8; MIN_PUBKEY_LEN],
) -> DnskeyFields<'a> {
    DnskeyFields {
        flags,
        protocol: 3,
        algorithm: signing.algorithm,
        key: head,
        key_len: signing.public_key_len(),
    }
}

/// The KSK/ZSK pair of a signed zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneKeys {
    /// Key Signing Key: matched by the parent's DS, signs the DNSKEY
    /// RRset.
    pub ksk: ZoneKey,
    /// Zone Signing Key: signs everything else.
    pub zsk: ZoneKey,
}

impl ZoneKeys {
    /// Generate a deterministic KSK/ZSK pair for `apex`.
    pub fn generate(apex: &Name, algorithm: u8, key_bits: u16) -> Self {
        ZoneKeys {
            ksk: ZoneKey::ksk(apex, algorithm, key_bits),
            zsk: ZoneKey::zsk(apex, algorithm, key_bits),
        }
    }

    /// The DNSKEY RRset a zone at `apex` publishes for this pair,
    /// unsigned.
    pub fn dnskey_rrset(&self, apex: &Name) -> Rrset {
        let mut set = Rrset::empty(apex.clone(), RrType::Dnskey, 3600);
        set.rdatas = vec![self.zsk.dnskey_rdata(), self.ksk.dnskey_rdata()];
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn ksk_and_zsk_differ() {
        let keys = ZoneKeys::generate(&n("example.com"), 8, 2048);
        assert_ne!(keys.ksk, keys.zsk);
        assert_ne!(keys.ksk.key_tag(), keys.zsk.key_tag());
        assert_eq!(keys.ksk.flags, 257);
        assert_eq!(keys.zsk.flags, 256);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ZoneKeys::generate(&n("example.com"), 13, 256);
        let b = ZoneKeys::generate(&n("example.com"), 13, 256);
        assert_eq!(a, b);
    }

    #[test]
    fn key_tag_tracks_rdata() {
        let ksk = ZoneKey::generate(&n("example.com"), "ksk", 8, 2048, FLAGS_KSK);
        // Changing the flags changes the RDATA and therefore the tag —
        // this is why the no-dnskey-257 testbed case breaks DS matching.
        let altered = ZoneKey::generate(&n("example.com"), "ksk", 8, 2048, FLAGS_ZSK);
        assert_eq!(altered.signing(), ksk.signing());
        assert_ne!(altered.key_tag(), ksk.key_tag());
    }

    #[test]
    fn ds_digest_lengths() {
        let keys = ZoneKeys::generate(&n("example.com"), 8, 2048);
        let owner = n("example.com");
        for (alg, len) in [
            (DigestAlg::SHA1, 20),
            (DigestAlg::SHA256, 32),
            (DigestAlg::SHA384, 48),
        ] {
            match keys.ksk.ds_rdata(&owner, alg) {
                Rdata::Ds {
                    digest,
                    digest_type,
                    ..
                } => {
                    assert_eq!(digest.len(), len);
                    assert_eq!(digest_type, alg.0);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn ds_matches_key_tag() {
        let keys = ZoneKeys::generate(&n("example.com"), 8, 2048);
        match keys.ksk.ds_rdata(&n("example.com"), DigestAlg::SHA256) {
            Rdata::Ds {
                key_tag, algorithm, ..
            } => {
                assert_eq!(key_tag, keys.ksk.key_tag());
                assert_eq!(algorithm, 8);
            }
            _ => unreachable!(),
        }
    }
}
