//! Simulated DNSSEC public-key signatures.
//!
//! The paper's observations never depend on the mathematical hardness of
//! RSA/ECDSA/EdDSA — every validation outcome it reports is a function of
//! protocol metadata (algorithm numbers, key tags, validity windows, DS
//! digests) or of an exact signature match/mismatch. This module therefore
//! substitutes a deterministic scheme with the same *interface* as DNSSEC
//! public-key cryptography:
//!
//! * a [`SigningKey`] holds a 16-byte secret derived from a seed;
//! * the **public key** embeds the secret (layout below), so any holder of
//!   the public key can recompute and check signatures — mirroring how a
//!   real verifier uses the public key. Since the threat model here is
//!   *misconfiguration*, not forgery, revealing the secret is harmless;
//! * a signature is `HMAC-SHA256(secret, algorithm ‖ message)`:
//!   [`SIGNATURE_LEN`] (32) bytes for every algorithm, so an RRSIG is not
//!   the size a real one of its algorithm would be (an RSA-2048 RRSIG is
//!   224 bytes short). Wire-true sizes are ROADMAP item 11.
//!
//! Public key wire layout: `"SK" ‖ version(1) ‖ algorithm(1) ‖ secret(16) ‖
//! zero padding` up to the modeled key size. The modeled size matters: the
//! paper (§4.2.7) reports Cloudflare rejecting 512-bit RSA keys with an
//! "unsupported key size" EXTRA-TEXT, so key length must be visible to
//! validators.

use crate::hmac::Hmac;
use crate::{Digest, Sha256};

/// Public key header magic.
const MAGIC: &[u8; 2] = b"SK";
/// Simulated-key format version.
const VERSION: u8 = 1;
/// Secret length embedded in keys.
const SECRET_LEN: usize = 16;
/// Minimum encoded public key length (header + secret).
pub const MIN_PUBKEY_LEN: usize = 4 + SECRET_LEN;

/// Length in bytes of a simulated signature.
pub const SIGNATURE_LEN: usize = 32;

/// Errors from [`verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// The public key bytes do not parse as a simulated key.
    MalformedKey,
    /// The algorithm embedded in the key differs from the RRSIG algorithm.
    AlgorithmMismatch,
    /// The signature bytes do not match the recomputation.
    BadSignature,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::MalformedKey => write!(f, "malformed public key"),
            VerifyError::AlgorithmMismatch => write!(f, "key/signature algorithm mismatch"),
            VerifyError::BadSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// A simulated private key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigningKey {
    /// DNSSEC algorithm number this key is labeled with.
    pub algorithm: u8,
    /// Modeled public key size in bits (affects encoded key length only).
    pub key_bits: u16,
    secret: [u8; SECRET_LEN],
}

impl SigningKey {
    /// Deterministically derive a key from a seed. The same
    /// `(algorithm, key_bits, seed)` triple always yields the same key,
    /// which keeps key tags and zone contents reproducible.
    pub fn from_seed(algorithm: u8, key_bits: u16, seed: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"EDE-KEYGEN-v1");
        h.update(&[algorithm]);
        h.update(&key_bits.to_be_bytes());
        h.update(seed);
        let mut digest = [0u8; Sha256::OUTPUT_LEN];
        h.finalize_into(&mut digest);
        let mut secret = [0u8; SECRET_LEN];
        secret.copy_from_slice(&digest[..SECRET_LEN]);
        SigningKey {
            algorithm,
            key_bits,
            secret,
        }
    }

    /// Encode the public half. Total length is `max(key_bits/8, 20)` bytes
    /// so that the modeled key size is observable on the wire.
    pub fn public_key(&self) -> Vec<u8> {
        let target = usize::from(self.key_bits / 8).max(MIN_PUBKEY_LEN);
        let mut out = Vec::with_capacity(target);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(self.algorithm);
        out.extend_from_slice(&self.secret);
        out.resize(target, 0);
        out
    }

    /// Sign `message`, producing a [`SIGNATURE_LEN`]-byte signature.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        compute_signature(&self.secret, self.algorithm, message).to_vec()
    }
}

/// `HMAC-SHA256(secret, algorithm ‖ message)`, the one definition both
/// signing and verification use.
fn compute_signature(secret: &[u8], algorithm: u8, message: &[u8]) -> [u8; SIGNATURE_LEN] {
    let mut mac = Hmac::<Sha256>::new(secret);
    mac.update(&[algorithm]);
    mac.update(message);
    let mut out = [0u8; SIGNATURE_LEN];
    mac.finalize_into(&mut out);
    out
}

/// Parsed view of a simulated public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicKey<'a> {
    /// Algorithm number embedded at key generation time.
    pub algorithm: u8,
    /// Modeled key size in bits, recovered from the encoded length.
    pub key_bits: u16,
    secret: &'a [u8],
}

/// Parse an encoded public key.
pub fn parse_public_key(bytes: &[u8]) -> Option<PublicKey<'_>> {
    if bytes.len() < MIN_PUBKEY_LEN || &bytes[..2] != MAGIC || bytes[2] != VERSION {
        return None;
    }
    Some(PublicKey {
        algorithm: bytes[3],
        key_bits: (bytes.len() as u16).saturating_mul(8),
        secret: &bytes[4..4 + SECRET_LEN],
    })
}

/// Verify `signature` over `message` with `public_key`, checking that the
/// key was generated for `algorithm` (RRSIG and DNSKEY algorithm fields
/// must agree, RFC 4035 §5.3.1).
pub fn verify(
    public_key: &[u8],
    algorithm: u8,
    message: &[u8],
    signature: &[u8],
) -> Result<(), VerifyError> {
    let key = parse_public_key(public_key).ok_or(VerifyError::MalformedKey)?;
    if key.algorithm != algorithm {
        return Err(VerifyError::AlgorithmMismatch);
    }
    let expect = compute_signature(key.secret, algorithm, message);
    // Constant-time comparison is irrelevant for a simulation, but cheap.
    if expect.len() == signature.len()
        && expect
            .iter()
            .zip(signature)
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
    {
        Ok(())
    } else {
        Err(VerifyError::BadSignature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let key = SigningKey::from_seed(8, 2048, b"example.com/zsk");
        let sig = key.sign(b"rrset canonical form");
        assert_eq!(sig.len(), SIGNATURE_LEN);
        assert_eq!(
            verify(&key.public_key(), 8, b"rrset canonical form", &sig),
            Ok(())
        );
    }

    #[test]
    fn wrong_message_fails() {
        let key = SigningKey::from_seed(13, 256, b"seed");
        let sig = key.sign(b"hello");
        assert_eq!(
            verify(&key.public_key(), 13, b"hellp", &sig),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_fails() {
        let a = SigningKey::from_seed(8, 2048, b"a");
        let b = SigningKey::from_seed(8, 2048, b"b");
        let sig = a.sign(b"msg");
        assert_eq!(
            verify(&b.public_key(), 8, b"msg", &sig),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn algorithm_mismatch_detected() {
        // Key generated for algorithm 8 but RRSIG claims 13: the testbed's
        // ds-bad-key-algo / bad-zsk-algo cases rely on this failing.
        let key = SigningKey::from_seed(8, 2048, b"seed");
        let sig = key.sign(b"msg");
        assert_eq!(
            verify(&key.public_key(), 13, b"msg", &sig),
            Err(VerifyError::AlgorithmMismatch)
        );
    }

    #[test]
    fn corrupted_key_is_malformed_or_bad() {
        let key = SigningKey::from_seed(8, 2048, b"seed");
        let sig = key.sign(b"msg");
        let mut pk = key.public_key();
        pk[6] ^= 0xff; // flip a secret byte
        assert_eq!(verify(&pk, 8, b"msg", &sig), Err(VerifyError::BadSignature));
        pk[0] = b'X'; // destroy magic
        assert_eq!(verify(&pk, 8, b"msg", &sig), Err(VerifyError::MalformedKey));
    }

    #[test]
    fn key_size_is_modeled() {
        let small = SigningKey::from_seed(5, 512, b"s");
        let big = SigningKey::from_seed(5, 2048, b"s");
        assert_eq!(small.public_key().len(), 64);
        assert_eq!(big.public_key().len(), 256);
        assert_eq!(parse_public_key(&small.public_key()).unwrap().key_bits, 512);
    }

    #[test]
    fn derivation_is_deterministic() {
        let a = SigningKey::from_seed(15, 256, b"zone/ksk");
        let b = SigningKey::from_seed(15, 256, b"zone/ksk");
        assert_eq!(a, b);
        assert_eq!(a.public_key(), b.public_key());
    }
}
