//! NSEC3 owner-name hashing (RFC 5155 §5).
//!
//! `IH(salt, x, 0) = H(x ‖ salt)` and
//! `IH(salt, x, k) = H(IH(salt, x, k-1) ‖ salt)`; the hashed owner name is
//! `IH(salt, owner, iterations)` where `owner` is the canonical
//! (lowercased) wire-format name. Hash algorithm 1 (SHA-1) is the only
//! value ever registered.
//!
//! RFC 9276 ("Guidance for NSEC3 Parameter Settings") requires an iteration
//! count of 0; the testbed's `nsec3-iter-200` case deliberately violates
//! that guidance, and resolvers cap the iterations they are willing to
//! compute (Cloudflare's "iteration limit exceeded" EXTRA-TEXT in §4.2.14
//! of the paper comes from such a cap).

use crate::sha1::{OneBlock, ONE_BLOCK_MAX};
use crate::{base32, Digest, Sha1};

/// The single registered NSEC3 hash algorithm (SHA-1).
pub const NSEC3_HASH_ALG_SHA1: u8 = 1;

/// Width of an NSEC3 hash in bytes (SHA-1).
pub const NSEC3_HASH_LEN: usize = 20;

/// Length of the base32hex owner label an NSEC3 hash encodes to.
pub const NSEC3_LABEL_LEN: usize = 32;

/// Hash a canonical wire-format owner name with the given salt and
/// iteration count, returning the SHA-1 based digest.
///
/// The caller must supply the name already lowercased (canonical form);
/// this function performs no case folding.
///
/// A name and salt of at most 55 bytes together cost one compression
/// and no streaming state, and so does each iteration while the salt is
/// at most 35 bytes.
pub fn nsec3_hash(name_wire: &[u8], salt: &[u8], iterations: u16) -> [u8; NSEC3_HASH_LEN] {
    iterate(salted(name_wire, salt), salt, iterations)
}

/// `IH(salt, x, iterations)` from `digest`, which is `IH(salt, x, 0)`.
#[inline]
fn iterate(mut digest: [u8; NSEC3_HASH_LEN], salt: &[u8], iterations: u16) -> [u8; NSEC3_HASH_LEN] {
    if iterations == 0 {
        return digest;
    }
    let len = NSEC3_HASH_LEN + salt.len();
    if len <= ONE_BLOCK_MAX {
        // Every iteration hashes a message of one length: the block and
        // its salt are laid out once, and only the digest is rewritten.
        let mut block = OneBlock::new(len);
        block.message_mut()[NSEC3_HASH_LEN..].copy_from_slice(salt);
        for _ in 0..iterations {
            block.message_mut()[..NSEC3_HASH_LEN].copy_from_slice(&digest);
            digest = block.digest();
        }
    } else {
        for _ in 0..iterations {
            digest = salted(&digest, salt);
        }
    }
    digest
}

/// `H(x ‖ salt)`: one compression when the message fits a single
/// block, the streaming hasher when it does not.
fn salted(x: &[u8], salt: &[u8]) -> [u8; NSEC3_HASH_LEN] {
    let len = x.len() + salt.len();
    if len <= ONE_BLOCK_MAX {
        let mut block = OneBlock::new(len);
        let message = block.message_mut();
        message[..x.len()].copy_from_slice(x);
        message[x.len()..].copy_from_slice(salt);
        return block.digest();
    }
    let mut digest = [0u8; NSEC3_HASH_LEN];
    let mut h = Sha1::new();
    h.update(x);
    h.update(salt);
    h.finalize_into(&mut digest);
    digest
}

/// The base32hex label an NSEC3 hash is published under (RFC 5155 §3),
/// as the lowercase ASCII bytes an owner name's first label holds.
pub fn nsec3_label(hash: &[u8; NSEC3_HASH_LEN]) -> [u8; NSEC3_LABEL_LEN] {
    let mut label = [0u8; NSEC3_LABEL_LEN];
    let written = base32::encode_into(hash, &mut label);
    debug_assert_eq!(written, NSEC3_LABEL_LEN);
    label
}

/// Hash an owner name and return the label used as the NSEC3 owner.
pub fn nsec3_hash_label(name_wire: &[u8], salt: &[u8], iterations: u16) -> [u8; NSEC3_LABEL_LEN] {
    nsec3_label(&nsec3_hash(name_wire, salt, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encode a dotted name into wire format for the vectors below.
    fn wire(name: &str) -> Vec<u8> {
        let mut out = Vec::new();
        if !name.is_empty() {
            for label in name.split('.') {
                out.push(label.len() as u8);
                out.extend_from_slice(label.as_bytes());
            }
        }
        out.push(0);
        out
    }

    /// RFC 5155 Appendix A: salt aabbccdd, 12 iterations.
    #[test]
    fn rfc5155_appendix_a_example() {
        let salt = [0xaa, 0xbb, 0xcc, 0xdd];
        assert_eq!(
            &nsec3_hash_label(&wire("example"), &salt, 12),
            b"0p9mhaveqvm6t7vbl5lop2u3t2rp3tom"
        );
    }

    #[test]
    fn rfc5155_appendix_a_a_example() {
        let salt = [0xaa, 0xbb, 0xcc, 0xdd];
        assert_eq!(
            &nsec3_hash_label(&wire("a.example"), &salt, 12),
            b"35mthgpgcu1qg68fab165klnsnk3dpvl"
        );
    }

    #[test]
    fn rfc5155_appendix_a_ai_example() {
        let salt = [0xaa, 0xbb, 0xcc, 0xdd];
        assert_eq!(
            &nsec3_hash_label(&wire("ai.example"), &salt, 12),
            b"gjeqe526plbf1g8mklp59enfd789njgi"
        );
    }

    #[test]
    fn iterations_change_output() {
        let name = wire("example.com");
        let h0 = nsec3_hash(&name, b"", 0);
        let h1 = nsec3_hash(&name, b"", 1);
        let h200 = nsec3_hash(&name, b"", 200);
        assert_ne!(h0, h1);
        assert_ne!(h1, h200);
        assert_eq!(h0.len(), 20);
    }

    #[test]
    fn salt_changes_output() {
        let name = wire("example.com");
        assert_ne!(nsec3_hash(&name, b"", 0), nsec3_hash(&name, b"\x01", 0));
    }

    /// RFC 5155's definition through the streaming hasher: the reference
    /// the one-block layout is held to.
    fn streamed(name: &[u8], salt: &[u8], iterations: u16) -> [u8; NSEC3_HASH_LEN] {
        let mut digest = [0u8; NSEC3_HASH_LEN];
        let mut h = Sha1::new();
        h.update(name);
        h.update(salt);
        h.finalize_into(&mut digest);
        for _ in 0..iterations {
            let mut h = Sha1::new();
            h.update(&digest);
            h.update(salt);
            h.finalize_into(&mut digest);
        }
        digest
    }

    /// Every name length against salts on both sides of the one-block
    /// bounds (55 bytes of name and salt, 35 of salt per iteration), and
    /// every salt length against names on both sides of them.
    #[test]
    fn one_block_and_streaming_hashes_agree() {
        let bytes = |seed: usize| -> Vec<u8> { (0..255).map(|i| (i * 131 + seed) as u8).collect() };
        let (name, salt) = (bytes(7), bytes(91));
        let salt_lens = [0, 1, 2, 34, 35, 36, 54, 55, 56, 255];
        let name_lens = [1, 2, 20, 35, 53, 54, 55, 56, 57, 64, 255];
        let pairs = (1..=255)
            .flat_map(|n| salt_lens.map(|s| (n, s)))
            .chain((0..=255).flat_map(|s| name_lens.map(|n| (n, s))));
        for (n, s) in pairs {
            for iterations in 0..=3 {
                assert_eq!(
                    nsec3_hash(&name[..n], &salt[..s], iterations),
                    streamed(&name[..n], &salt[..s], iterations),
                    "{n}-byte name, {s}-byte salt, {iterations} iterations"
                );
            }
        }
    }
}
