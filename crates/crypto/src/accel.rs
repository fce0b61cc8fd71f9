//! Hardware-accelerated compression functions (x86-64 SHA extensions).
//!
//! SHA-1 and SHA-256 dominate the scan's CPU profile: every NSEC3 owner
//! hash is `iterations + 1` chained SHA-1 invocations (RFC 5155), and
//! every simulated signature is a keyed SHA-256 — at reproduction scale
//! that is tens of millions of compression-function calls per scan. On
//! CPUs with the SHA new instructions (`sha_ni`), the exact FIPS 180-4
//! compression functions exist in silicon; this module dispatches to
//! them at runtime and falls back to the portable scalar cores
//! otherwise.
//!
//! Determinism: the SHA extensions compute the same mathematical
//! function as the scalar code — identical state words in, identical
//! state words out — so digests (and therefore NSEC3 owner names, DS
//! digests, key tags, and simulated signatures) are bit-identical on
//! every dispatch path. The cross-check tests below pin that.
//!
//! This is the one module in the crate that needs `unsafe`: the
//! intrinsics demand it (`#[target_feature]` functions are unsafe to
//! call), and every call site is guarded by a cached runtime CPUID
//! check. Everything outside this module remains `#![deny(unsafe_code)]`
//! territory.

#![allow(unsafe_code)]

/// True when the CPU supports the SHA extensions (plus the SSSE3/SSE4.1
/// shuffles the kernels lean on), checked once and cached.
#[cfg(target_arch = "x86_64")]
pub fn sha_ni_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    })
}

/// Non-x86-64 targets have no accelerated path.
#[cfg(not(target_arch = "x86_64"))]
pub fn sha_ni_available() -> bool {
    false
}

/// Compress one SHA-256 block in hardware if the CPU supports it.
/// Returns `false` (without touching `state`) when it doesn't, so the
/// caller falls through to the scalar core. Safe: the feature check
/// guards the kernel call.
#[cfg(target_arch = "x86_64")]
pub fn sha256_compress(state: &mut [u32; 8], block: &[u8; 64], k256: &[u32; 64]) -> bool {
    if !sha_ni_available() {
        return false;
    }
    // SAFETY: sha/ssse3/sse4.1 presence verified above.
    unsafe { sha256_kernel(state, block, k256) };
    true
}

/// Scalar-only fallback stub for non-x86-64 targets.
#[cfg(not(target_arch = "x86_64"))]
pub fn sha256_compress(_state: &mut [u32; 8], _block: &[u8; 64], _k256: &[u32; 64]) -> bool {
    false
}

/// Compress one SHA-1 block in hardware if the CPU supports it.
/// Returns `false` (without touching `state`) when it doesn't.
#[cfg(target_arch = "x86_64")]
pub fn sha1_compress(state: &mut [u32; 5], block: &[u8; 64]) -> bool {
    if !sha_ni_available() {
        return false;
    }
    // SAFETY: sha/ssse3/sse4.1 presence verified above.
    unsafe { sha1_kernel(state, block) };
    true
}

/// Scalar-only fallback stub for non-x86-64 targets.
#[cfg(not(target_arch = "x86_64"))]
pub fn sha1_compress(_state: &mut [u32; 5], _block: &[u8; 64]) -> bool {
    false
}

/// SHA-256 compression of one 512-bit block using the SHA extensions.
///
/// # Safety
/// Callers must have verified [`sha_ni_available`] first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn sha256_kernel(state: &mut [u32; 8], block: &[u8; 64], k256: &[u32; 64]) {
    use core::arch::x86_64::*;

    // Byte shuffle turning the big-endian message words into lane order.
    let mask = _mm_set_epi64x(
        0x0c0d_0e0f_0809_0a0bu64 as i64,
        0x0405_0607_0001_0203u64 as i64,
    );

    // Load state and rearrange into the (ABEF, CDGH) layout the
    // SHA256RNDS2 instruction works on.
    let tmp = _mm_loadu_si128(state.as_ptr() as *const __m128i); // DCBA
    let st1 = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i); // HGFE
    let tmp = _mm_shuffle_epi32(tmp, 0xB1); // CDAB
    let st1 = _mm_shuffle_epi32(st1, 0x1B); // EFGH
    let mut state0 = _mm_alignr_epi8(tmp, st1, 8); // ABEF
    let mut state1 = _mm_blend_epi16(st1, tmp, 0xF0); // CDGH

    let abef_save = state0;
    let cdgh_save = state1;

    // Four rounds of SHA-256 for one 4-word message chunk (+K already
    // folded in by the caller of the macro).
    macro_rules! rounds4 {
        ($m:expr, $k:expr) => {{
            let msg = _mm_add_epi32($m, _mm_loadu_si128($k.as_ptr() as *const __m128i));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            let msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        }};
    }
    // Next 4 message-schedule words from the previous 16 (FIPS 180-4
    // §6.2.2 schedule, four lanes at a time).
    macro_rules! schedule {
        ($m0:expr, $m1:expr, $m2:expr, $m3:expr) => {{
            let t = _mm_sha256msg1_epu32($m0, $m1);
            let t = _mm_add_epi32(t, _mm_alignr_epi8($m3, $m2, 4));
            _mm_sha256msg2_epu32(t, $m3)
        }};
    }

    let mut m0 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr() as *const __m128i), mask);
    let mut m1 = _mm_shuffle_epi8(
        _mm_loadu_si128(block.as_ptr().add(16) as *const __m128i),
        mask,
    );
    let mut m2 = _mm_shuffle_epi8(
        _mm_loadu_si128(block.as_ptr().add(32) as *const __m128i),
        mask,
    );
    let mut m3 = _mm_shuffle_epi8(
        _mm_loadu_si128(block.as_ptr().add(48) as *const __m128i),
        mask,
    );

    rounds4!(m0, k256[0..4]);
    rounds4!(m1, k256[4..8]);
    rounds4!(m2, k256[8..12]);
    rounds4!(m3, k256[12..16]);
    for g in 1..4 {
        m0 = schedule!(m0, m1, m2, m3);
        rounds4!(m0, k256[g * 16..g * 16 + 4]);
        m1 = schedule!(m1, m2, m3, m0);
        rounds4!(m1, k256[g * 16 + 4..g * 16 + 8]);
        m2 = schedule!(m2, m3, m0, m1);
        rounds4!(m2, k256[g * 16 + 8..g * 16 + 12]);
        m3 = schedule!(m3, m0, m1, m2);
        rounds4!(m3, k256[g * 16 + 12..g * 16 + 16]);
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);

    // Rearrange back to linear A..H and store.
    let tmp = _mm_shuffle_epi32(state0, 0x1B); // FEBA
    let st1 = _mm_shuffle_epi32(state1, 0xB1); // DCHG
    let out0 = _mm_blend_epi16(tmp, st1, 0xF0); // DCBA
    let out1 = _mm_alignr_epi8(st1, tmp, 8); // HGFE
    _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, out0);
    _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, out1);
}

/// SHA-1 compression of one 512-bit block using the SHA extensions.
///
/// # Safety
/// Callers must have verified [`sha_ni_available`] first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn sha1_kernel(state: &mut [u32; 5], block: &[u8; 64]) {
    use core::arch::x86_64::*;

    // Full 16-byte reversal: big-endian words, word order reversed so
    // w[0] lands in the high lane as SHA1RNDS4 expects.
    let mask = _mm_set_epi64x(
        0x0001_0203_0405_0607u64 as i64,
        0x0809_0a0b_0c0d_0e0fu64 as i64,
    );

    let mut abcd = _mm_loadu_si128(state.as_ptr() as *const __m128i);
    abcd = _mm_shuffle_epi32(abcd, 0x1B); // A in the high lane
    let e_save = _mm_set_epi32(state[4] as i32, 0, 0, 0);
    let abcd_save = abcd;

    let mut m = [
        _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr() as *const __m128i), mask),
        _mm_shuffle_epi8(
            _mm_loadu_si128(block.as_ptr().add(16) as *const __m128i),
            mask,
        ),
        _mm_shuffle_epi8(
            _mm_loadu_si128(block.as_ptr().add(32) as *const __m128i),
            mask,
        ),
        _mm_shuffle_epi8(
            _mm_loadu_si128(block.as_ptr().add(48) as *const __m128i),
            mask,
        ),
    ];

    // Group 0 seeds E directly; groups 1..19 thread it through
    // SHA1NEXTE. `saved` is always the ABCD value entering the previous
    // group's rounds (the hardware's implicit E pipeline).
    let mut saved = abcd;
    let e0 = _mm_add_epi32(e_save, m[0]);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

    // One four-round group: refresh this group's schedule chunk (from
    // group 4 on), derive E from the saved ABCD, run the rounds. The
    // round-function immediate must be a literal, hence the macro.
    macro_rules! group {
        ($g:expr, $f:literal) => {{
            if $g >= 4 {
                let t = _mm_sha1msg1_epu32(m[$g % 4], m[($g + 1) % 4]);
                let t = _mm_xor_si128(t, m[($g + 2) % 4]);
                m[$g % 4] = _mm_sha1msg2_epu32(t, m[($g + 3) % 4]);
            }
            let e = _mm_sha1nexte_epu32(saved, m[$g % 4]);
            saved = abcd;
            abcd = _mm_sha1rnds4_epu32(abcd, e, $f);
        }};
    }

    group!(1, 0);
    group!(2, 0);
    group!(3, 0);
    group!(4, 0);
    group!(5, 1);
    group!(6, 1);
    group!(7, 1);
    group!(8, 1);
    group!(9, 1);
    group!(10, 2);
    group!(11, 2);
    group!(12, 2);
    group!(13, 2);
    group!(14, 2);
    group!(15, 3);
    group!(16, 3);
    group!(17, 3);
    group!(18, 3);
    group!(19, 3);

    let e_final = _mm_sha1nexte_epu32(saved, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);

    abcd = _mm_shuffle_epi32(abcd, 0x1B);
    _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, abcd);
    state[4] = _mm_extract_epi32(e_final, 3) as u32;
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use crate::{Digest, Sha1, Sha256};

    /// Deterministic byte stream for cross-checks.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u32).wrapping_mul(2654435761) as u8)
            .collect()
    }

    // The scalar cores are pinned by FIPS vectors in `sha1.rs` /
    // `sha2.rs`; these tests pin the accelerated path to the scalar one
    // across block boundaries and partial blocks. On CPUs without the
    // SHA extensions both paths are the scalar core and the tests are
    // vacuous (but still green).

    #[test]
    fn sha256_matches_fips_vectors_on_this_cpu() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha1_matches_fips_vectors_on_this_cpu() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn hardware_kernels_match_scalar_core_on_random_blocks() {
        if !super::sha_ni_available() {
            return; // nothing to cross-check on this CPU
        }
        // Feed both compression cores the same chained states and
        // pseudo-random blocks; every intermediate state must agree.
        let mut s256_hw = [
            0x6a09e667u32,
            0xbb67ae85,
            0x3c6ef372,
            0xa54ff53a,
            0x510e527f,
            0x9b05688c,
            0x1f83d9ab,
            0x5be0cd19,
        ];
        let mut s256_sc = s256_hw;
        let mut s1_hw = [
            0x67452301u32,
            0xEFCDAB89,
            0x98BADCFE,
            0x10325476,
            0xC3D2E1F0,
        ];
        let mut s1_sc = s1_hw;
        for round in 0..256 {
            let bytes = pattern(64 + round); // shifting content per round
            let block: &[u8; 64] = bytes[round..round + 64].try_into().unwrap();
            assert!(super::sha256_compress(
                &mut s256_hw,
                block,
                &crate::sha2::K256
            ));
            crate::Sha256::compress_scalar(&mut s256_sc, block);
            assert_eq!(s256_hw, s256_sc, "sha256 diverged at round {round}");
            assert!(super::sha1_compress(&mut s1_hw, block));
            crate::Sha1::compress_scalar(&mut s1_sc, block);
            assert_eq!(s1_hw, s1_sc, "sha1 diverged at round {round}");
        }
    }

    #[test]
    fn every_length_to_three_blocks_is_consistent() {
        // Streaming updates split at every offset must agree with the
        // one-shot digest for messages spanning 0..=3 compression
        // blocks — exercises the buffered path, the bulk path, and
        // padding interplay on whatever dispatch the CPU picks.
        for len in 0..=192 {
            let data = pattern(len);
            let oneshot256 = Sha256::digest(&data);
            let oneshot1 = Sha1::digest(&data);
            for split in [0, 1, len / 2, len.saturating_sub(1), len].map(|s| s.min(len)) {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), oneshot256, "sha256 len {len} split {split}");
                let mut h = Sha1::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), oneshot1, "sha1 len {len} split {split}");
            }
        }
    }
}
