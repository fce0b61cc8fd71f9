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
//! * a signature is `SHA-256(secret ‖ algorithm ‖ message)`, one keyed
//!   hash pass: [`SIGNATURE_LEN`] (32) bytes for every algorithm, so an
//!   RRSIG is not the size a real one of its algorithm would be (an
//!   RSA-2048 RRSIG is 224 bytes short). Wire-true sizes are ROADMAP
//!   item 11.
//!
//! Why no HMAC: HMAC's key pads and outer hash defend a MAC against
//! length extension and forgery by someone without the key, and here
//! every verifier holds the secret (it is in the public key), so no
//! construction resists forgery. What every validator path relies on is
//! that a change to the key, the algorithm or any one signed octet
//! changes the signature, and a plain keyed SHA-256 gives that as HMAC
//! did, at two or three SHA-256 compressions fewer per signature: the
//! outer hash's two, and one more where the 48 octets by which HMAC's
//! key block outgrew the secret pushed the message into another block.
//!
//! Public key wire layout: `"SK" ‖ version(1) ‖ algorithm(1) ‖ secret(16) ‖
//! zero padding` up to the modeled key size. The modeled size matters: the
//! paper (§4.2.7) reports Cloudflare rejecting 512-bit RSA keys with an
//! "unsupported key size" EXTRA-TEXT, so key length must be visible to
//! validators.

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
        Self::from_seed_parts(algorithm, key_bits, &[seed])
    }

    /// [`SigningKey::from_seed`] of the seed that is `parts` joined, each
    /// streamed into the derivation in turn: no joined copy is made.
    pub fn from_seed_parts(algorithm: u8, key_bits: u16, parts: &[&[u8]]) -> Self {
        let mut h = Sha256::new();
        h.update(b"EDE-KEYGEN-v1");
        h.update(&[algorithm]);
        h.update(&key_bits.to_be_bytes());
        for part in parts {
            h.update(part);
        }
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
        let mut out = Vec::with_capacity(self.public_key_len());
        out.extend_from_slice(&self.public_key_head());
        out.resize(self.public_key_len(), 0);
        out
    }

    /// The leading octets of [`SigningKey::public_key`], the header and
    /// the secret: every octet after them is zero.
    pub fn public_key_head(&self) -> [u8; MIN_PUBKEY_LEN] {
        let mut head = [0u8; MIN_PUBKEY_LEN];
        head[..2].copy_from_slice(MAGIC);
        head[2] = VERSION;
        head[3] = self.algorithm;
        head[4..].copy_from_slice(&self.secret);
        head
    }

    /// The length in octets of [`SigningKey::public_key`].
    pub fn public_key_len(&self) -> usize {
        usize::from(self.key_bits / 8).max(MIN_PUBKEY_LEN)
    }

    /// Sign `message`, producing a [`SIGNATURE_LEN`]-byte signature.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        compute_signature(&self.secret, self.algorithm, message).to_vec()
    }
}

/// `SHA-256(secret ‖ algorithm ‖ message)`, the one definition both
/// signing and verification use.
fn compute_signature(secret: &[u8], algorithm: u8, message: &[u8]) -> [u8; SIGNATURE_LEN] {
    let mut h = Sha256::new();
    h.update(secret);
    h.update(&[algorithm]);
    h.update(message);
    let mut out = [0u8; SIGNATURE_LEN];
    h.finalize_into(&mut out);
    out
}

/// A parsed simulated public key: all that verification reads of the
/// encoded key, held without it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicKey {
    /// Algorithm number embedded at key generation time.
    pub algorithm: u8,
    /// Modeled key size in bits, recovered from the encoded length.
    pub key_bits: u16,
    secret: [u8; SECRET_LEN],
}

impl PublicKey {
    /// [`verify`] with this key, parsed once instead of per signature.
    pub fn verify(
        &self,
        algorithm: u8,
        message: &[u8],
        signature: &[u8],
    ) -> Result<(), VerifyError> {
        if self.algorithm != algorithm {
            return Err(VerifyError::AlgorithmMismatch);
        }
        let expect = compute_signature(&self.secret, algorithm, message);
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
}

/// Parse an encoded public key.
pub fn parse_public_key(bytes: &[u8]) -> Option<PublicKey> {
    if bytes.len() < MIN_PUBKEY_LEN || &bytes[..2] != MAGIC || bytes[2] != VERSION {
        return None;
    }
    let mut secret = [0u8; SECRET_LEN];
    secret.copy_from_slice(&bytes[4..4 + SECRET_LEN]);
    Some(PublicKey {
        algorithm: bytes[3],
        key_bits: (bytes.len() as u16).saturating_mul(8),
        secret,
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
    parse_public_key(public_key)
        .ok_or(VerifyError::MalformedKey)?
        .verify(algorithm, message, signature)
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
    fn a_seed_in_parts_is_the_joined_seed() {
        let joined = SigningKey::from_seed(8, 2048, b"zone/ksk");
        assert_eq!(
            SigningKey::from_seed_parts(8, 2048, &[b"zone", b"/", b"ksk"]),
            joined
        );
        let head = joined.public_key_head();
        let public = joined.public_key();
        assert_eq!(public.len(), joined.public_key_len());
        assert_eq!(&public[..head.len()], &head);
        assert!(public[head.len()..].iter().all(|&b| b == 0));
    }

    /// SplitMix64, so every drawn case reproduces from its seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    #[test]
    fn a_signature_is_sha256_of_secret_algorithm_and_message() {
        for (algorithm, bits, seed, message) in [
            (
                8u8,
                2048u16,
                &b"example.com/zsk"[..],
                &b"rrset canonical form"[..],
            ),
            (13, 256, b"seed", b""),
            (5, 512, b"s", &[0xa5; 300]),
        ] {
            let key = SigningKey::from_seed(algorithm, bits, seed);
            let mut keyed = key.public_key_head()[4..].to_vec();
            keyed.push(algorithm);
            keyed.extend_from_slice(message);
            assert_eq!(key.sign(message), Sha256::digest(&keyed));
        }
    }

    /// The signing data of a DNSKEY set the way a scan zone signs it:
    /// RRSIG RDATA up to the signature, then two DNSKEY records of
    /// 256-octet keys, most of whose octets are the keys' zero padding.
    fn dnskey_shaped_message(rng: &mut Rng) -> Vec<u8> {
        let owner = b"\x07example\x03com\x00";
        let mut message = vec![0, 48, 8, 2];
        message.extend_from_slice(&rng.bytes(14));
        message.extend_from_slice(owner);
        for (flags, label) in [(257u16, &b"ksk"[..]), (256, b"zsk")] {
            let key = SigningKey::from_seed(8, 2048, label);
            let public = key.public_key();
            message.extend_from_slice(owner);
            message.extend_from_slice(&[0, 48, 0, 1, 0, 0, 0x0e, 0x10]);
            message.extend_from_slice(&(4 + public.len() as u16).to_be_bytes());
            message.extend_from_slice(&flags.to_be_bytes());
            message.extend_from_slice(&[3, 8]);
            message.extend_from_slice(&public);
        }
        message
    }

    #[test]
    fn every_flipped_bit_of_a_dnskey_set_or_its_signature_fails() {
        let mut rng = Rng(0x5151_5eed);
        let mut message = dnskey_shaped_message(&mut rng);
        assert!((590..=640).contains(&message.len()), "{}", message.len());
        let key = SigningKey::from_seed(8, 2048, &rng.bytes(16));
        let public = parse_public_key(&key.public_key()).unwrap();
        let mut signature = key.sign(&message);
        assert_eq!(public.verify(8, &message, &signature), Ok(()));
        for bit in 0..message.len() * 8 {
            message[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                public.verify(8, &message, &signature),
                Err(VerifyError::BadSignature),
                "message bit {bit}"
            );
            message[bit / 8] ^= 1 << (bit % 8);
        }
        for bit in 0..signature.len() * 8 {
            signature[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                public.verify(8, &message, &signature),
                Err(VerifyError::BadSignature),
                "signature bit {bit}"
            );
            signature[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn keys_a_secret_bit_or_an_algorithm_apart_do_not_verify_each_other() {
        let mut rng = Rng(0x5252_5eed);
        let message = dnskey_shaped_message(&mut rng);
        let key = SigningKey::from_seed(8, 2048, b"zone/ksk");
        let signature = key.sign(&message);
        for bit in 0..SECRET_LEN * 8 {
            let mut near = key.clone();
            near.secret[bit / 8] ^= 1 << (bit % 8);
            let theirs = near.sign(&message);
            assert_eq!(
                verify(&near.public_key(), 8, &message, &signature),
                Err(VerifyError::BadSignature),
                "secret bit {bit}"
            );
            assert_eq!(
                verify(&key.public_key(), 8, &message, &theirs),
                Err(VerifyError::BadSignature),
                "secret bit {bit}"
            );
        }
        for algorithm in [5u8, 7, 10, 13, 14, 15, 16] {
            let other = SigningKey {
                algorithm,
                ..key.clone()
            };
            assert_eq!(
                verify(&other.public_key(), algorithm, &message, &signature),
                Err(VerifyError::BadSignature),
                "algorithm {algorithm}"
            );
            assert_eq!(
                verify(&key.public_key(), 8, &message, &other.sign(&message)),
                Err(VerifyError::BadSignature),
                "algorithm {algorithm}"
            );
        }
    }

    #[test]
    fn derivation_is_deterministic() {
        let a = SigningKey::from_seed(15, 256, b"zone/ksk");
        let b = SigningKey::from_seed(15, 256, b"zone/ksk");
        assert_eq!(a, b);
        assert_eq!(a.public_key(), b.public_key());
    }
}
