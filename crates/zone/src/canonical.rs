//! Canonical form and signing data (RFC 4034 §6 and §3.1.8.1).
//!
//! A DNSSEC signature covers:
//!
//! ```text
//! RRSIG_RDATA (without the signature field) ‖ RR(1) ‖ RR(2) ‖ …
//! ```
//!
//! where each `RR` is `owner ‖ type ‖ class ‖ OriginalTTL ‖ RDLENGTH ‖
//! RDATA`, owners are lowercased and uncompressed, the RRs are sorted by
//! canonical RDATA ordering, and the TTL is replaced by the RRSIG's
//! Original TTL. Both the signer and the validator must produce this byte
//! string identically — it lives here so `ede-zone` (signer) and
//! `ede-resolver` (validator) share one implementation.

use crate::rrset::Rrset;
use ede_crypto::{Digest, Sha1, Sha256, Sha384};
use ede_wire::rdata::Rrsig;
use ede_wire::{Class, DigestAlg, Name, Rdata};

/// Append the RRSIG RDATA with the signature field left out — the prefix
/// of the signing data.
fn push_rrsig_rdata_sans_signature(buf: &mut Vec<u8>, sig: &Rrsig) {
    buf.extend_from_slice(&sig.type_covered.to_u16().to_be_bytes());
    buf.push(sig.algorithm);
    buf.push(sig.labels);
    buf.extend_from_slice(&sig.original_ttl.to_be_bytes());
    buf.extend_from_slice(&sig.expiration.to_be_bytes());
    buf.extend_from_slice(&sig.inception.to_be_bytes());
    buf.extend_from_slice(&sig.key_tag.to_be_bytes());
    buf.extend_from_slice(sig.signer.as_wire());
}

/// Build the full signing data for `rrset` under the (partially filled)
/// `sig`. The caller fills `sig.signature` with the result of signing
/// this byte string.
///
/// The RRset's records are ordered by canonical RDATA byte comparison
/// (RFC 4034 §6.3); the owner name used is the RRset owner (wildcard
/// expansion is not modeled — the testbed has no wildcards).
pub fn signing_data(sig: &Rrsig, rrset: &Rrset) -> Vec<u8> {
    // Every RR is written straight into the one output buffer (signing
    // and validation run per upstream exchange); a set of several
    // records is then put into canonical order. Names inside our
    // `Rdata` are already lowercase (`Name` normalizes at construction)
    // and `encode(None)` never compresses, so the plain encoding *is*
    // the canonical form.
    // Sized for the common sets in one allocation: an address or NSEC3
    // record fits the base, each further record (DNSKEY sets run to
    // ~300 octets a key) adds its share.
    let mut buf = Vec::with_capacity(256 + 320 * rrset.rdatas.len().saturating_sub(1));
    push_rrsig_rdata_sans_signature(&mut buf, sig);
    let rrs_at = buf.len();

    // (start of the RR, start of its RDATA, end) for each record of a
    // set that needs sorting, relative to `rrs_at`.
    let multi = rrset.rdatas.len() > 1;
    let mut spans = Vec::with_capacity(if multi { rrset.rdatas.len() } else { 0 });
    for rdata in &rrset.rdatas {
        let rr_at = buf.len();
        buf.extend_from_slice(rrset.name.as_wire());
        buf.extend_from_slice(&rrset.rtype.to_u16().to_be_bytes());
        buf.extend_from_slice(&Class::In.to_u16().to_be_bytes());
        buf.extend_from_slice(&sig.original_ttl.to_be_bytes());
        buf.extend_from_slice(&[0, 0]);
        let rdata_at = buf.len();
        rdata.encode(&mut buf, None);
        let rdlen = (buf.len() - rdata_at) as u16;
        buf[rdata_at - 2..rdata_at].copy_from_slice(&rdlen.to_be_bytes());
        if multi {
            spans.push((rr_at - rrs_at, rdata_at - rrs_at, buf.len() - rrs_at));
        }
    }
    if multi {
        let unsorted = buf.split_off(rrs_at);
        spans.sort_by(|a, b| unsorted[a.1..a.2].cmp(&unsorted[b.1..b.2]));
        for (rr_at, _, end) in spans {
            buf.extend_from_slice(&unsorted[rr_at..end]);
        }
    }
    buf
}

/// The canonical byte string a DS digest covers: `owner ‖ DNSKEY RDATA`
/// (RFC 4034 §5.1.4).
pub fn ds_digest_input(owner: &Name, dnskey_rdata: &Rdata) -> Vec<u8> {
    let mut buf = Vec::with_capacity(owner.wire_len() + 260);
    buf.extend_from_slice(owner.as_wire());
    dnskey_rdata.encode(&mut buf, None);
    buf
}

/// The digest a DS of `digest_type` carries for this key at `owner`.
///
/// Types 1 (SHA-1), 2 (SHA-256) and 4 (SHA-384) are computed for real.
/// Everything else is a SHA-256 relabeled: type 3 (GOST), which no
/// modeled validator supports — the point of the paper's §4.2.10 — and
/// the unassigned types are never checked by anyone here.
pub fn ds_digest(owner: &Name, dnskey_rdata: &Rdata, digest_type: DigestAlg) -> Vec<u8> {
    let input = ds_digest_input(owner, dnskey_rdata);
    match digest_type {
        DigestAlg::SHA1 => Sha1::digest(&input),
        DigestAlg::SHA384 => Sha384::digest(&input),
        _ => Sha256::digest(&input),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_wire::RrType;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_sig() -> Rrsig {
        Rrsig {
            type_covered: RrType::A,
            algorithm: 8,
            labels: 2,
            original_ttl: 3600,
            expiration: 1_700_000_000,
            inception: 1_690_000_000,
            key_tag: 4242,
            signer: n("example.com"),
            signature: Vec::new(),
        }
    }

    #[test]
    fn rdata_order_is_canonical() {
        let mut set = Rrset::new(
            n("example.com"),
            3600,
            Rdata::A("192.0.2.200".parse().unwrap()),
        );
        set.push(Rdata::A("192.0.2.1".parse().unwrap()));
        let sig = sample_sig();
        let data = signing_data(&sig, &set);

        // Reordering the rdatas must not change the signing data.
        let mut set2 = Rrset::new(
            n("example.com"),
            3600,
            Rdata::A("192.0.2.1".parse().unwrap()),
        );
        set2.push(Rdata::A("192.0.2.200".parse().unwrap()));
        assert_eq!(data, signing_data(&sig, &set2));
    }

    #[test]
    fn ttl_in_signing_data_is_original_ttl() {
        let set = Rrset::new(n("example.com"), 60, Rdata::A("192.0.2.1".parse().unwrap()));
        let sig = sample_sig(); // original_ttl = 3600
        let a = signing_data(&sig, &set);
        let mut set_changed = set.clone();
        set_changed.ttl = 7200; // live TTL changes must not matter
        assert_eq!(a, signing_data(&sig, &set_changed));
    }

    #[test]
    fn window_fields_change_signing_data() {
        let set = Rrset::new(
            n("example.com"),
            3600,
            Rdata::A("192.0.2.1".parse().unwrap()),
        );
        let sig = sample_sig();
        let mut sig2 = sample_sig();
        sig2.expiration += 1;
        assert_ne!(signing_data(&sig, &set), signing_data(&sig2, &set));
    }

    #[test]
    fn ds_input_binds_owner() {
        let key = Rdata::Dnskey {
            flags: 257,
            protocol: 3,
            algorithm: 8,
            public_key: vec![1, 2, 3],
        };
        assert_ne!(
            ds_digest_input(&n("a.example"), &key),
            ds_digest_input(&n("b.example"), &key)
        );
    }
}
