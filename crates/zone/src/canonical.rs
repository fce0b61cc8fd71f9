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

use crate::rrset::{Rrset, RrsetRef};
use ede_crypto::{keytag, Digest, Sha1, Sha256, Sha384};
use ede_wire::rdata::Rrsig;
use ede_wire::{Class, DigestAlg, Name, Rdata};
use std::cell::Cell;
use std::ops::Deref;

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

/// Append one RR of `set` in canonical form, as [`signing_data`] writes
/// it (its TTL `sig`'s original TTL), and return where its RDATA starts.
fn push_rr(buf: &mut Vec<u8>, set: &RrsetRef<'_>, sig: &Rrsig, rdata: &Rdata) -> usize {
    buf.extend_from_slice(set.name().as_wire());
    buf.extend_from_slice(&set.rtype().to_u16().to_be_bytes());
    buf.extend_from_slice(&Class::In.to_u16().to_be_bytes());
    buf.extend_from_slice(&sig.original_ttl.to_be_bytes());
    buf.extend_from_slice(&[0, 0]);
    let rdata_at = buf.len();
    rdata.encode(buf, None);
    let rdlen = (buf.len() - rdata_at) as u16;
    buf[rdata_at - 2..rdata_at].copy_from_slice(&rdlen.to_be_bytes());
    rdata_at
}

/// Build the full signing data for `rrset` under the (partially filled)
/// `sig`, in a fresh `Vec`: the reference that [`with_signing_data`],
/// the path signing and validation take, is held equal to.
///
/// The RRset's records are ordered by canonical RDATA byte comparison
/// (RFC 4034 §6.3); the owner name used is the RRset owner. Wildcard
/// expansion is not modeled — no zone here has a wildcard — so an RRSIG
/// whose labels field is below the owner's label count, which claims
/// one (RFC 4035 §5.3.2 would sign `*.` and that many rightmost labels
/// instead), is not rebuilt as one: the validator holds such a
/// signature Bogus, as it does one whose count is above the owner's
/// (RFC 4035 §5.3.1).
pub fn signing_data(sig: &Rrsig, rrset: &Rrset) -> Vec<u8> {
    // Every RR is written straight into the one output buffer; a set of
    // several records is then put into canonical order. Names inside our
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

/// A thread's signing-data buffer, kept between signatures.
#[derive(Default)]
struct SigningBuffer {
    buf: Vec<u8>,
    /// (start of the RR, start of its RDATA, end) for each RR of a set
    /// that needs sorting.
    spans: Vec<(usize, usize, usize)>,
}

thread_local! {
    static BUFFER: Cell<SigningBuffer> = Cell::default();
}

impl SigningBuffer {
    /// Write the signing data of `set` under `sig` and return where in
    /// `buf` it starts. A set of several records has its RRs written
    /// first, unsorted, and the signing data after them: the RRSIG
    /// prefix, then each RR copied from its span in canonical order.
    fn write(&mut self, sig: &Rrsig, set: &RrsetRef<'_>) -> usize {
        let SigningBuffer { buf, spans } = self;
        buf.clear();
        if set.rdatas().nth(1).is_none() {
            push_rrsig_rdata_sans_signature(buf, sig);
            for rdata in set.rdatas() {
                push_rr(buf, set, sig, rdata);
            }
            return 0;
        }
        spans.clear();
        for rdata in set.rdatas() {
            let rr_at = buf.len();
            let rdata_at = push_rr(buf, set, sig, rdata);
            spans.push((rr_at, rdata_at, buf.len()));
        }
        // Equal RDATA means equal RRs: an unstable sort writes the same
        // bytes, and sorts in place.
        spans.sort_unstable_by(|a, b| buf[a.1..a.2].cmp(&buf[b.1..b.2]));
        let at = buf.len();
        push_rrsig_rdata_sans_signature(buf, sig);
        for &(rr_at, _, end) in spans.iter() {
            buf.extend_from_within(rr_at..end);
        }
        at
    }
}

/// Call `f` with the signing data of `set` under the (partially filled)
/// `sig` — the bytes [`signing_data`] returns — written into a buffer
/// this thread keeps: once the buffer has grown to the largest set the
/// thread signs or checks, a signature costs no allocation for its
/// data.
pub fn with_signing_data<R>(sig: &Rrsig, set: RrsetRef<'_>, f: impl FnOnce(&[u8]) -> R) -> R {
    // Taken out while in use: an `f` that itself asks for signing data
    // finds an empty buffer and grows one of its own.
    let mut buffer = BUFFER.take();
    let at = buffer.write(sig, &set);
    let result = f(&buffer.buf[at..]);
    BUFFER.set(buffer);
    result
}

/// A DNSKEY RDATA as its fields: what a DS digest and a key tag read of
/// it, with the public key given as its leading octets and its length —
/// every octet past `key` is zero — so a key derived from a seed need not
/// be written out to be digested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnskeyFields<'a> {
    /// DNSKEY flags.
    pub flags: u16,
    /// Protocol (3).
    pub protocol: u8,
    /// Algorithm number.
    pub algorithm: u8,
    /// The public key's leading octets.
    pub key: &'a [u8],
    /// The public key's length in octets, at least `key.len()`.
    pub key_len: usize,
}

impl<'a> DnskeyFields<'a> {
    /// The fields of a DNSKEY RDATA; `None` for any other type.
    pub fn of(rdata: &'a Rdata) -> Option<Self> {
        match rdata {
            Rdata::Dnskey {
                flags,
                protocol,
                algorithm,
                public_key,
            } => Some(DnskeyFields {
                flags: *flags,
                protocol: *protocol,
                algorithm: *algorithm,
                key: public_key,
                key_len: public_key.len(),
            }),
            _ => None,
        }
    }

    /// The RFC 4034 Appendix B key tag of the RDATA.
    pub fn key_tag(&self) -> u16 {
        keytag::dnskey_key_tag(
            self.flags,
            self.protocol,
            self.algorithm,
            self.key,
            self.key_len,
        )
    }

    /// Stream `owner ‖ RDATA` into an `H`, write its digest to the head
    /// of `out` and return the digest's length.
    fn digest_into<H: Digest>(&self, owner: &Name, out: &mut [u8; Sha384::OUTPUT_LEN]) -> usize {
        const ZEROS: [u8; 64] = [0; 64];
        let mut h = H::new();
        h.update(owner.as_wire());
        h.update(&self.flags.to_be_bytes());
        h.update(&[self.protocol, self.algorithm]);
        h.update(self.key);
        let mut padding = self.key_len - self.key.len();
        while padding > 0 {
            let run = padding.min(ZEROS.len());
            h.update(&ZEROS[..run]);
            padding -= run;
        }
        h.finalize_into(&mut out[..H::OUTPUT_LEN]);
        H::OUTPUT_LEN
    }
}

/// A DS digest held on the stack: as long as the widest computed
/// (SHA-384).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsDigest {
    bytes: [u8; Sha384::OUTPUT_LEN],
    len: usize,
}

impl Deref for DsDigest {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// The canonical byte string a DS digest covers: `owner ‖ DNSKEY RDATA`
/// (RFC 4034 §5.1.4).
pub fn ds_digest_input(owner: &Name, dnskey_rdata: &Rdata) -> Vec<u8> {
    let mut buf = Vec::with_capacity(owner.wire_len() + 260);
    buf.extend_from_slice(owner.as_wire());
    dnskey_rdata.encode(&mut buf, None);
    buf
}

/// The digest a DS of `digest_type` carries for this key at `owner`,
/// hashed from [`ds_digest_input`]: the reference that [`ds_digest_of`],
/// the path DS production and validation take, is held equal to.
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

/// [`ds_digest`] of the DNSKEY `key` at `owner`, streamed into the hash
/// from the RDATA's fields: no input buffer, and the digest on the stack.
pub fn ds_digest_of(owner: &Name, key: &DnskeyFields<'_>, digest_type: DigestAlg) -> DsDigest {
    let mut bytes = [0; Sha384::OUTPUT_LEN];
    let len = match digest_type {
        DigestAlg::SHA1 => key.digest_into::<Sha1>(owner, &mut bytes),
        DigestAlg::SHA384 => key.digest_into::<Sha384>(owner, &mut bytes),
        _ => key.digest_into::<Sha256>(owner, &mut bytes),
    };
    DsDigest { bytes, len }
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

    /// Signing data asked for while the thread's buffer is in use is
    /// written into a buffer of its own, to the same bytes.
    #[test]
    fn a_nested_call_gets_a_buffer_of_its_own() {
        let mut set = Rrset::new(
            n("example.com"),
            3600,
            Rdata::A("192.0.2.200".parse().unwrap()),
        );
        set.push(Rdata::A("192.0.2.1".parse().unwrap()));
        let sig = sample_sig();
        let (outer, inner) = with_signing_data(&sig, (&set).into(), |outer| {
            let inner = with_signing_data(&sig, (&set).into(), <[u8]>::to_vec);
            (outer.to_vec(), inner)
        });
        assert_eq!(outer, signing_data(&sig, &set));
        assert_eq!(inner, outer);
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
