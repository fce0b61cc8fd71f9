//! SHA-1 (FIPS 180-4), implemented from scratch.
//!
//! SHA-1 is cryptographically broken for collision resistance, but DNS still
//! depends on it in two protocol-visible places this reproduction needs:
//! NSEC3 owner-name hashing (RFC 5155 defines hash algorithm 1 = SHA-1, the
//! only one ever registered) and DS digest type 1. The implementation is the
//! classic 80-round compression function over 512-bit blocks.

use crate::Digest;

const BLOCK_LEN: usize = 64;

/// The initial hash value H(0) (FIPS 180-4 §5.3.1).
const INIT: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// The longest message whose padding (the 0x80 byte and the 64-bit
/// length) still fits its own block.
pub(crate) const ONE_BLOCK_MAX: usize = BLOCK_LEN - 9;

/// A message of at most [`ONE_BLOCK_MAX`] bytes, laid out with its
/// padding as the one block SHA-1 compresses: hashing it is a single
/// compression with no streaming state. The padding depends only on the
/// length, so a caller that hashes many messages of one length (NSEC3's
/// iterations) lays the block out once and rewrites the message bytes.
pub(crate) struct OneBlock {
    block: [u8; BLOCK_LEN],
    len: usize,
}

impl OneBlock {
    /// A zeroed message of `len` bytes, padded.
    pub(crate) fn new(len: usize) -> OneBlock {
        assert!(
            len <= ONE_BLOCK_MAX,
            "a {len}-byte message needs two blocks"
        );
        let mut block = [0u8; BLOCK_LEN];
        block[len] = 0x80;
        block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
        OneBlock { block, len }
    }

    /// The message's bytes, in place in the block.
    pub(crate) fn message_mut(&mut self) -> &mut [u8] {
        &mut self.block[..self.len]
    }

    /// The SHA-1 digest of the message.
    pub(crate) fn digest(&self) -> [u8; 20] {
        let mut state = INIT;
        Sha1::compress_state(&mut state, &self.block);
        digest_of(state)
    }
}

/// The digest a final state spells: its words, big-endian.
fn digest_of(state: [u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Streaming SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes (mod 2^64).
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        Self::compress_state(&mut self.state, block);
    }

    fn compress_state(state: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
        if crate::accel::sha1_compress(state, block) {
            return;
        }
        Self::compress_scalar(state, block);
    }

    /// Portable compression core; also the reference the accelerated
    /// kernel is cross-checked against.
    pub(crate) fn compress_scalar(state: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }
}

impl Digest for Sha1 {
    const OUTPUT_LEN: usize = 20;

    fn new() -> Self {
        Sha1 {
            state: INIT,
            len: 0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= BLOCK_LEN {
            let mut block = [0u8; BLOCK_LEN];
            block.copy_from_slice(&data[..BLOCK_LEN]);
            self.compress(&block);
            data = &data[BLOCK_LEN..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn finalize_into(mut self, out: &mut [u8]) {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, then 64-bit big-endian bit length — in
        // a second block when the first has no room left for the length.
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        block[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            self.compress(&block);
            block = [0; BLOCK_LEN];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);

        assert_eq!(out.len(), Self::OUTPUT_LEN, "digest buffer width");
        out.copy_from_slice(&digest_of(self.state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 999] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha1::digest(&data), "split at {split}");
        }
    }
}
