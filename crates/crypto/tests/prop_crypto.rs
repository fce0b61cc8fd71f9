//! Randomized tests for the crypto substrate, driven by an in-file
//! deterministic PRNG (SplitMix64) so every failure reproduces from the
//! fixed seed.

use ede_crypto::simsig::{self, SigningKey};
use ede_crypto::{base32, keytag, nsec3hash, Digest, Sha1, Sha256, Sha384};

/// Deterministic SplitMix64 stream driving the randomized cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Random bytes, length uniform in `lo..hi`.
    fn bytes(&mut self, lo: u64, hi: u64) -> Vec<u8> {
        let len = self.range(lo, hi);
        (0..len).map(|_| self.next() as u8).collect()
    }
}

#[test]
fn base32hex_roundtrip() {
    let mut rng = Rng(0x0011_5eed);
    for _ in 0..256 {
        let data = rng.bytes(0, 64);
        let encoded = base32::encode(&data);
        let decoded = base32::decode(&encoded);
        assert_eq!(decoded.as_deref(), Some(data.as_slice()));
        // Alphabet check: all output chars are in [0-9a-v].
        assert!(encoded
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'v').contains(&b)));
    }
}

#[test]
fn base32hex_case_insensitive() {
    let mut rng = Rng(0x0012_5eed);
    for _ in 0..256 {
        let data = rng.bytes(0, 32);
        let encoded = base32::encode(&data).to_ascii_uppercase();
        assert_eq!(base32::decode(&encoded), Some(data));
    }
}

#[test]
fn sha_incremental_equals_oneshot() {
    let mut rng = Rng(0x0013_5eed);
    for _ in 0..64 {
        let chunks: Vec<Vec<u8>> = (0..rng.below(8)).map(|_| rng.bytes(0, 200)).collect();
        let flat: Vec<u8> = chunks.iter().flatten().copied().collect();
        let mut s1 = Sha1::new();
        let mut s256 = Sha256::new();
        let mut s384 = Sha384::new();
        for chunk in &chunks {
            s1.update(chunk);
            s256.update(chunk);
            s384.update(chunk);
        }
        assert_eq!(s1.finalize(), Sha1::digest(&flat));
        assert_eq!(s256.finalize(), Sha256::digest(&flat));
        assert_eq!(s384.finalize(), Sha384::digest(&flat));
    }
}

#[test]
fn signatures_distinguish_keys_and_messages() {
    let mut rng = Rng(0x0014_5eed);
    for _ in 0..128 {
        let alg = rng.range(1, 20) as u8;
        let key_a = SigningKey::from_seed(alg, 2048, &rng.bytes(1, 64));
        let key_b = SigningKey::from_seed(alg, 2048, &rng.bytes(1, 64));
        let msg_a = rng.bytes(0, 64);
        let msg_b = rng.bytes(0, 64);
        let base = key_a.sign(&msg_a);
        if key_a != key_b {
            assert_ne!(&base, &key_b.sign(&msg_a));
        }
        if msg_a != msg_b {
            assert_ne!(&base, &key_a.sign(&msg_b));
        }
    }
}

#[test]
fn simsig_sign_verify_roundtrip() {
    let mut rng = Rng(0x0015_5eed);
    for _ in 0..64 {
        let alg = rng.range(1, 20) as u8;
        let bits = [256u16, 512, 1024, 2048][rng.below(4) as usize];
        let seed = rng.bytes(1, 32);
        let msg = rng.bytes(0, 256);
        let key = SigningKey::from_seed(alg, bits, &seed);
        let sig = key.sign(&msg);
        assert_eq!(simsig::verify(&key.public_key(), alg, &msg, &sig), Ok(()));
    }
}

#[test]
fn simsig_rejects_tampering() {
    let mut rng = Rng(0x0016_5eed);
    for _ in 0..64 {
        let seed = rng.bytes(1, 16);
        let msg = rng.bytes(1, 128);
        let key = SigningKey::from_seed(8, 2048, &seed);
        let sig = key.sign(&msg);
        let mut tampered = msg.clone();
        let idx = rng.below(tampered.len() as u64) as usize;
        tampered[idx] ^= 1 << rng.below(8);
        assert!(simsig::verify(&key.public_key(), 8, &tampered, &sig).is_err());
    }
}

#[test]
fn keytag_is_deterministic() {
    let mut rng = Rng(0x0017_5eed);
    for _ in 0..256 {
        let rdata = rng.bytes(4, 64);
        assert_eq!(keytag::key_tag(&rdata), keytag::key_tag(&rdata));
    }
}

#[test]
fn nsec3_hash_is_20_bytes_and_iteration_sensitive() {
    let mut rng = Rng(0x0018_5eed);
    for _ in 0..128 {
        let name = rng.bytes(1, 40);
        let salt = rng.bytes(0, 8);
        let iters = rng.below(16) as u16;
        let h = nsec3hash::nsec3_hash(&name, &salt, iters);
        assert_eq!(h.len(), 20);
        assert_ne!(h, nsec3hash::nsec3_hash(&name, &salt, iters + 1));
    }
}
