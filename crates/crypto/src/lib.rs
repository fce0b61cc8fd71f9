//! Cryptographic substrate for the Extended DNS Errors reproduction.
//!
//! This crate provides every cryptographic primitive the DNSSEC pipeline
//! needs, in two tiers:
//!
//! * **Real implementations** where the *value* of the computation is
//!   protocol-visible and must match deployed DNS behaviour bit for bit:
//!   [`sha1`], [`sha2`] (SHA-256 / SHA-384), [`base32`] (base32hex
//!   used for NSEC3 owner names), [`keytag`] (RFC 4034 Appendix B) and
//!   [`nsec3hash`] (RFC 5155 iterated, salted SHA-1).
//!   All are implemented from scratch and verified against the official
//!   FIPS / RFC test vectors.
//!
//! * **A simulated public-key signature scheme** ([`simsig`]) replacing
//!   RSA / ECDSA / EdDSA / DSA / GOST. DNSSEC validation outcomes observed
//!   by the paper (bogus signatures, expired or not-yet-valid windows,
//!   DS ↔ DNSKEY mismatches, unsupported algorithms) are all driven by
//!   metadata or by exact signature (mis)match — properties the simulated
//!   scheme preserves. Only adversarial unforgeability is lost, which the
//!   paper never exercises. See DESIGN.md for the substitution rationale.
//!
//! The crate is `std`-only, dependency-free, and deterministic. On
//! x86-64 CPUs with the SHA extensions, SHA-1 and SHA-256 dispatch to
//! hardware compression kernels (the private `accel` module) that
//! compute the identical FIPS 180-4 function — digests are bit-for-bit
//! the same on every path. That module is the product's only `unsafe`
//! (intrinsics require it); everything else stays forbidden via
//! `deny(unsafe_code)`, and `scripts/check-unsafe.py` holds the line.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod accel;
pub mod base32;
pub mod base64;
pub mod keytag;
pub mod nsec3hash;
pub mod sha1;
pub mod sha2;
pub mod simsig;

pub use sha1::Sha1;
pub use sha2::{Sha256, Sha384};

/// A minimal streaming digest abstraction shared by all hash functions in
/// this crate.
///
/// The trait is deliberately small: the DNSSEC pipeline only ever needs
/// "feed bytes, read digest". [`Digest::finalize`] conveys the output
/// length by the returned `Vec`, so callers can stay generic over digest
/// algorithms of different widths (SHA-1 for NSEC3, SHA-256/384 for DS
/// records); per-query code that knows the width writes the digest into
/// a buffer of its own with [`Digest::finalize_into`] instead.
pub trait Digest {
    /// Digest output size in bytes.
    const OUTPUT_LEN: usize;

    /// Create a fresh hasher state.
    fn new() -> Self;

    /// Absorb `data` into the hash state.
    fn update(&mut self, data: &[u8]);

    /// Consume the state and write the digest to `out`, which must be
    /// exactly [`Digest::OUTPUT_LEN`] bytes long.
    fn finalize_into(self, out: &mut [u8]);

    /// Consume the state and produce the digest.
    fn finalize(self) -> Vec<u8>
    where
        Self: Sized,
    {
        let mut out = vec![0u8; Self::OUTPUT_LEN];
        self.finalize_into(&mut out);
        out
    }

    /// One-shot convenience: hash `data` in a single call.
    fn digest(data: &[u8]) -> Vec<u8>
    where
        Self: Sized,
    {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}
