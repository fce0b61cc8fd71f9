//! Base 32 encoding with the extended hex alphabet (base32hex, RFC 4648 §7).
//!
//! NSEC3 owner names are the base32hex encoding of the hashed name
//! (RFC 5155 §3). DNS uses the *unpadded*, case-insensitive form; we emit
//! lowercase (as zone files conventionally do) and accept either case when
//! decoding.

const ALPHABET: &[u8; 32] = b"0123456789abcdefghijklmnopqrstuv";

/// Encode `data` as unpadded lowercase base32hex.
pub fn encode(data: &[u8]) -> String {
    let mut out = vec![0u8; data.len().div_ceil(5) * 8];
    let written = encode_into(data, &mut out);
    out.truncate(written);
    String::from_utf8(out).expect("the alphabet is ASCII")
}

/// [`encode`] into a caller-owned buffer; returns how many symbols were
/// written. Panics when `out` is shorter than the encoding
/// (`ceil(len / 5) * 8` always suffices).
pub fn encode_into(data: &[u8], out: &mut [u8]) -> usize {
    let mut written = 0;
    for chunk in data.chunks(5) {
        let mut buf = [0u8; 5];
        buf[..chunk.len()].copy_from_slice(chunk);
        let v = u64::from(buf[0]) << 32
            | u64::from(buf[1]) << 24
            | u64::from(buf[2]) << 16
            | u64::from(buf[3]) << 8
            | u64::from(buf[4]);
        // ceil(bits / 5) output symbols for the bytes actually present.
        let symbols = match chunk.len() {
            1 => 2,
            2 => 4,
            3 => 5,
            4 => 7,
            _ => 8,
        };
        for i in 0..symbols {
            let shift = 35 - 5 * i;
            out[written] = ALPHABET[((v >> shift) & 0x1f) as usize];
            written += 1;
        }
    }
    written
}

/// Decode unpadded base32hex (either case). Returns `None` on any
/// non-alphabet character or an impossible length.
pub fn decode(text: &str) -> Option<Vec<u8>> {
    // Lengths congruent to 1, 3 or 6 mod 8 cannot arise from whole bytes.
    if matches!(text.len() % 8, 1 | 3 | 6) {
        return None;
    }
    let mut out = Vec::with_capacity(text.len() * 5 / 8);
    let bytes = text.as_bytes();
    for chunk in bytes.chunks(8) {
        let mut v: u64 = 0;
        for &c in chunk {
            let d = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'v' => c - b'a' + 10,
                b'A'..=b'V' => c - b'A' + 10,
                _ => return None,
            };
            v = (v << 5) | u64::from(d);
        }
        // Left-align the symbols inside the 40-bit group.
        v <<= 5 * (8 - chunk.len());
        let n_bytes = chunk.len() * 5 / 8;
        for i in 0..n_bytes {
            out.push(((v >> (32 - 8 * i)) & 0xff) as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4648 §10 base32hex vectors, with padding stripped.
    #[test]
    fn rfc4648_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", ""),
            (b"f", "co"),
            (b"fo", "cpng"),
            (b"foo", "cpnmu"),
            (b"foob", "cpnmuog"),
            (b"fooba", "cpnmuoj1"),
            (b"foobar", "cpnmuoj1e8"),
        ];
        for (raw, enc) in cases {
            assert_eq!(encode(raw), *enc);
            assert_eq!(decode(enc).as_deref(), Some(*raw));
        }
    }

    #[test]
    fn uppercase_accepted() {
        assert_eq!(decode("CPNMUOJ1E8").as_deref(), Some(b"foobar".as_slice()));
    }

    #[test]
    fn rejects_bad_chars_and_lengths() {
        assert!(decode("cpn!").is_none());
        assert!(decode("w").is_none()); // 'w' not in hex alphabet
        assert!(decode("c").is_none()); // impossible length 1
        assert!(decode("cpn").is_none()); // impossible length 3
    }

    // RFC 5155 Appendix A hashes encode to 32 characters (SHA-1 = 20 bytes).
    #[test]
    fn sha1_width() {
        assert_eq!(encode(&[0u8; 20]).len(), 32);
    }
}
