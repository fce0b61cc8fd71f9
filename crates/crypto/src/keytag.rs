//! DNSKEY key tag computation (RFC 4034 Appendix B).
//!
//! The key tag is a 16-bit checksum over the DNSKEY RDATA that DS and RRSIG
//! records carry to pre-select candidate keys. It is *not* a hash: distinct
//! keys may share a tag, and validators must treat it as a hint only. The
//! paper's `ds-bad-tag` testbed case works precisely because validators
//! compare this value against the DS key tag field.

/// Compute the key tag over a DNSKEY RDATA (flags ‖ protocol ‖ algorithm ‖
/// public key), exactly as RFC 4034 Appendix B specifies.
///
/// `algorithm` 1 (RSA/MD5) uses the historical formula from Appendix B.1:
/// the tag is the 16 most significant bits of the 24 least significant bits
/// of the public key modulus. All other algorithms use the ones'-complement
/// style accumulation.
pub fn key_tag(rdata: &[u8]) -> u16 {
    // RDATA layout: 2 bytes flags, 1 byte protocol, 1 byte algorithm, key.
    if rdata.len() >= 4 && rdata[3] == 1 {
        // RSA/MD5: key tag from the modulus trailer.
        if rdata.len() >= 7 {
            let n = rdata.len();
            return u16::from_be_bytes([rdata[n - 3], rdata[n - 2]]);
        }
        return 0;
    }
    fold(word_sum(rdata))
}

/// [`key_tag`] of the DNSKEY RDATA written from its fields, without
/// writing it: the public key is `key` followed by zero octets up to
/// `key_len` octets in all (`key_len >= key.len()`).
///
/// The four header octets are two whole 16-bit words, so the key's words
/// start on a word boundary and the zero padding adds nothing to the sum;
/// only algorithm 1 reads the (padded) key's tail.
pub fn dnskey_key_tag(flags: u16, protocol: u8, algorithm: u8, key: &[u8], key_len: usize) -> u16 {
    debug_assert!(key.len() <= key_len);
    if algorithm == 1 {
        if key_len < 3 {
            return 0;
        }
        let octet = |i: usize| key.get(i).copied().unwrap_or(0);
        return u16::from_be_bytes([octet(key_len - 3), octet(key_len - 2)]);
    }
    let header = u32::from(flags) + (u32::from(protocol) << 8 | u32::from(algorithm));
    fold(header + word_sum(key))
}

/// The sum of `bytes` read as big-endian 16-bit words, an odd last octet
/// the high half of a word: a loop the compiler vectorizes.
fn word_sum(bytes: &[u8]) -> u32 {
    let words = bytes.chunks_exact(2);
    let last = match words.remainder() {
        [octet] => u32::from(*octet) << 8,
        _ => 0,
    };
    let sum: u32 = words
        .map(|word| u32::from(u16::from_be_bytes([word[0], word[1]])))
        .sum();
    sum + last
}

/// Appendix B's end-around fold of the accumulator.
fn fold(acc: u32) -> u16 {
    (acc + ((acc >> 16) & 0xffff)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 4034 §5.4 example: the DS record for dskey.example.com carries
    /// key tag 60485 for the given DNSKEY. Reconstruct the RDATA from the
    /// RFC's base64 key material and check.
    #[test]
    fn rfc4034_example_key() {
        // DNSKEY 256 3 5 ( AQOeiiR0GOMYkDshWoSKz9Xz...
        // Decoded public key bytes (from the RFC example, 130 bytes).
        const KEY_B64: &str = "AQOeiiR0GOMYkDshWoSKz9XzfwJr1AYtsmx3TGkJaNXVbfi/\
                               2pHm822aJ5iI9BMzNXxeYCmZDRD99WYwYqUSdjMmmAphXdvx\
                               egXd/M5+X7OrzKBaMbCVdFLUUh6DhweJBjEVv5f2wwjM9Xzc\
                               nOf+EPbtG9DMBmADjFDc2w/rljwvFw==";
        let key = b64(KEY_B64);
        let mut rdata = vec![0x01, 0x00, 3, 5]; // flags 256, proto 3, alg 5
        rdata.extend_from_slice(&key);
        assert_eq!(key_tag(&rdata), 60485);
    }

    #[test]
    fn deterministic_and_order_sensitive() {
        let a = key_tag(&[0x01, 0x01, 3, 8, 1, 2, 3, 4]);
        let b = key_tag(&[0x01, 0x01, 3, 8, 1, 2, 4, 3]);
        assert_eq!(a, key_tag(&[0x01, 0x01, 3, 8, 1, 2, 3, 4]));
        assert_ne!(a, b);
    }

    #[test]
    fn rsamd5_uses_modulus_trailer() {
        // Algorithm 1: tag must be read from the 3rd/2nd trailing bytes.
        let mut rdata = vec![0x01, 0x00, 3, 1];
        rdata.extend_from_slice(&[0xaa; 10]);
        rdata.extend_from_slice(&[0x12, 0x34, 0x56]);
        assert_eq!(key_tag(&rdata), 0x1234);
    }

    /// The RDATA written out, as Appendix B reads it.
    fn rdata(flags: u16, protocol: u8, algorithm: u8, key: &[u8], key_len: usize) -> Vec<u8> {
        let mut rdata = flags.to_be_bytes().to_vec();
        rdata.extend_from_slice(&[protocol, algorithm]);
        rdata.extend_from_slice(key);
        rdata.resize(4 + key_len, 0);
        rdata
    }

    #[test]
    fn fields_and_padding_give_the_rdatas_tag() {
        let key: Vec<u8> = (1..=21u8).map(|b| b.wrapping_mul(37)).collect();
        for algorithm in [1, 5, 8, 13, 15] {
            for head in [0, 1, 2, 3, 19, 20, 21] {
                for key_len in [head, head + 1, head + 2, head + 7, 64, 256, 257] {
                    let key = &key[..head];
                    let key_len = key_len.max(head);
                    assert_eq!(
                        dnskey_key_tag(257, 3, algorithm, key, key_len),
                        key_tag(&rdata(257, 3, algorithm, key, key_len)),
                        "algorithm {algorithm}, {head} octets of {key_len}"
                    );
                }
            }
        }
    }

    /// Minimal base64 decoder for the test vector only.
    fn b64(s: &str) -> Vec<u8> {
        const T: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let mut out = Vec::new();
        let mut acc = 0u32;
        let mut bits = 0;
        for c in s.bytes() {
            if c == b'=' || c.is_ascii_whitespace() {
                continue;
            }
            let v = T.iter().position(|&t| t == c).expect("valid base64") as u32;
            acc = (acc << 6) | v;
            bits += 6;
            if bits >= 8 {
                bits -= 8;
                out.push(((acc >> bits) & 0xff) as u8);
            }
        }
        out
    }
}
