//! Base 64 (RFC 4648 §4), used by zone-file presentation of DNSKEY
//! public keys and RRSIG signatures.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode with padding, as zone files print key material.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let mut buf = [0u8; 3];
        buf[..chunk.len()].copy_from_slice(chunk);
        let v = u32::from(buf[0]) << 16 | u32::from(buf[1]) << 8 | u32::from(buf[2]);
        let symbols = [
            ALPHABET[(v >> 18) as usize & 0x3f],
            ALPHABET[(v >> 12) as usize & 0x3f],
            ALPHABET[(v >> 6) as usize & 0x3f],
            ALPHABET[v as usize & 0x3f],
        ];
        let keep = chunk.len() + 1;
        for (i, s) in symbols.iter().enumerate() {
            out.push(if i < keep { *s as char } else { '=' });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4648 §10 vectors.
    #[test]
    fn rfc4648_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", ""),
            (b"f", "Zg=="),
            (b"fo", "Zm8="),
            (b"foo", "Zm9v"),
            (b"foob", "Zm9vYg=="),
            (b"fooba", "Zm9vYmE="),
            (b"foobar", "Zm9vYmFy"),
        ];
        for (raw, enc) in cases {
            assert_eq!(encode(raw), *enc);
        }
    }
}
