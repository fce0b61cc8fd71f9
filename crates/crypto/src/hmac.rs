//! HMAC (RFC 2104) over any [`Digest`] in this crate.
//!
//! Used by the simulated signature scheme to bind signatures to key
//! material, and available for TSIG-style experiments.

use crate::Digest;

/// Streaming HMAC state: absorb the message in pieces, then read the tag
/// into a caller-owned buffer. Nothing here touches the heap, which is
/// what the per-query signing and verification paths want.
pub struct Hmac<H: Digest> {
    inner: H,
    outer: H,
}

impl<H: Digest> Hmac<H> {
    /// Key the two hash states.
    ///
    /// Keys longer than the block size are hashed first, exactly as RFC
    /// 2104 prescribes. The block size is inferred from the digest width
    /// (64 bytes for SHA-1/SHA-256, 128 for SHA-384).
    pub fn new(key: &[u8]) -> Self {
        let block_len = if H::OUTPUT_LEN > 32 { 128 } else { 64 };
        let mut key_block = [0u8; 128];
        if key.len() > block_len {
            let mut hashed = H::new();
            hashed.update(key);
            hashed.finalize_into(&mut key_block[..H::OUTPUT_LEN]);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut pad = [0u8; 128];
        let mut keyed = |xor: u8| {
            for (p, k) in pad.iter_mut().zip(&key_block) {
                *p = k ^ xor;
            }
            let mut h = H::new();
            h.update(&pad[..block_len]);
            h
        };
        Hmac {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// Absorb the next piece of the message.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Write the tag to `out`, which must be [`Digest::OUTPUT_LEN`] bytes.
    pub fn finalize_into(mut self, out: &mut [u8]) {
        self.inner.finalize_into(out);
        self.outer.update(out);
        self.outer.finalize_into(out);
    }
}

/// Compute `HMAC(key, message)` with hash function `H`.
pub fn hmac<H: Digest>(key: &[u8], message: &[u8]) -> Vec<u8> {
    let mut mac = Hmac::<H>::new(key);
    mac.update(message);
    let mut out = vec![0u8; H::OUTPUT_LEN];
    mac.finalize_into(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sha1, Sha256};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 2202 test case 1 (HMAC-SHA1).
    #[test]
    fn rfc2202_sha1_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&hmac::<Sha1>(&key, b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    // RFC 2202 test case 2.
    #[test]
    fn rfc2202_sha1_case2() {
        assert_eq!(
            hex(&hmac::<Sha1>(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    // RFC 4231 test case 1 (HMAC-SHA256).
    #[test]
    fn rfc4231_sha256_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&hmac::<Sha256>(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2.
    #[test]
    fn rfc4231_sha256_case2() {
        assert_eq!(
            hex(&hmac::<Sha256>(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_sha256_long_key() {
        let key = [0xaa; 131];
        assert_eq!(
            hex(&hmac::<Sha256>(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }
}
