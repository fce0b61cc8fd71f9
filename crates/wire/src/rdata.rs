//! Typed RDATA for every record type the study exercises.

use crate::error::WireError;
use crate::name::{Compressor, Name};
use crate::rrtype::RrType;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// SOA RDATA fields.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Soa {
    /// Primary master name.
    pub mname: Name,
    /// Responsible mailbox name.
    pub rname: Name,
    /// Zone serial.
    pub serial: u32,
    /// Refresh interval.
    pub refresh: u32,
    /// Retry interval.
    pub retry: u32,
    /// Expiry interval.
    pub expire: u32,
    /// Negative-caching TTL (RFC 2308).
    pub minimum: u32,
}

/// RRSIG RDATA fields (RFC 4034 §3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rrsig {
    /// Type of the RRset this signature covers.
    pub type_covered: RrType,
    /// Signing algorithm number.
    pub algorithm: u8,
    /// Label count of the owner name (wildcard detection).
    pub labels: u8,
    /// TTL of the covered RRset at signing time.
    pub original_ttl: u32,
    /// Signature expiration, seconds since the epoch.
    pub expiration: u32,
    /// Signature inception, seconds since the epoch.
    pub inception: u32,
    /// Key tag of the signing DNSKEY.
    pub key_tag: u16,
    /// Name of the zone that owns the signing DNSKEY.
    pub signer: Name,
    /// The signature bytes.
    pub signature: Vec<u8>,
}

/// A set of RR types carried by NSEC/NSEC3 records
/// (RFC 4034 §4.1.2 window-block encoding).
///
/// Window 0 — every type the study signs with lives there — is held
/// inline exactly as it goes on the wire, so building, copying and
/// dropping such a bitmap touches no heap. Types from 256 up spill into
/// a sorted vector.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct TypeBitmap {
    /// Window 0: type `t` is bit `0x80 >> (t % 8)` of octet `t / 8`.
    low: [u8; 32],
    /// Types ≥ 256, ascending, no duplicates.
    high: Vec<u16>,
}

impl TypeBitmap {
    /// Empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of types.
    pub fn from_types<I: IntoIterator<Item = RrType>>(types: I) -> Self {
        let mut bm = Self::default();
        for t in types {
            bm.insert(t);
        }
        bm
    }

    /// Insert a type.
    pub fn insert(&mut self, t: RrType) {
        let v = t.to_u16();
        if v < 256 {
            self.low[usize::from(v / 8)] |= 0x80 >> (v % 8);
        } else if let Err(at) = self.high.binary_search(&v) {
            self.high.insert(at, v);
        }
    }

    /// Membership test.
    pub fn contains(&self, t: RrType) -> bool {
        let v = t.to_u16();
        if v < 256 {
            self.low[usize::from(v / 8)] & (0x80 >> (v % 8)) != 0
        } else {
            self.high.binary_search(&v).is_ok()
        }
    }

    /// Iterate the contained types in numeric order.
    pub fn iter(&self) -> impl Iterator<Item = RrType> + '_ {
        let low = self.low.iter().enumerate().flat_map(|(i, &octet)| {
            (0..8u16)
                .filter(move |bit| octet & (0x80 >> bit) != 0)
                .map(move |bit| i as u16 * 8 + bit)
        });
        low.chain(self.high.iter().copied()).map(RrType::from_u16)
    }

    /// True when no types are present.
    pub fn is_empty(&self) -> bool {
        self.low == [0; 32] && self.high.is_empty()
    }

    /// Encode as RFC 4034 window blocks.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        fn block(buf: &mut Vec<u8>, window: u8, bitmap: &[u8; 32]) {
            if let Some(last) = bitmap.iter().rposition(|&octet| octet != 0) {
                buf.push(window);
                buf.push(last as u8 + 1);
                buf.extend_from_slice(&bitmap[..=last]);
            }
        }
        block(buf, 0, &self.low);
        let mut rest = &self.high[..];
        while let Some(&first) = rest.first() {
            let window = first >> 8;
            let n = rest.partition_point(|&t| t >> 8 == window);
            let mut bitmap = [0u8; 32];
            for &t in &rest[..n] {
                bitmap[usize::from((t & 0xFF) / 8)] |= 0x80 >> (t % 8);
            }
            block(buf, window as u8, &bitmap);
            rest = &rest[n..];
        }
    }

    /// Decode window blocks from exactly `data`.
    ///
    /// Only the one encoding RFC 4034 §4.1.2 allows is accepted — blocks
    /// in increasing window order, no trailing zero octets, no empty
    /// block — so a decoded bitmap re-encodes to the bytes it came from,
    /// which are the bytes its RRSIG was made over.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut bm = Self::default();
        let mut next_window = 0u16;
        let mut pos = 0;
        while pos < data.len() {
            if pos + 2 > data.len() {
                return Err(WireError::Truncated {
                    context: "type bitmap window",
                });
            }
            let window = u16::from(data[pos]);
            let len = usize::from(data[pos + 1]);
            pos += 2;
            if len == 0 || len > 32 || pos + len > data.len() {
                return Err(WireError::Truncated {
                    context: "type bitmap block",
                });
            }
            let octets = &data[pos..pos + len];
            if window < next_window {
                return Err(WireError::BadTypeBitmap("windows out of order"));
            }
            if octets[len - 1] == 0 {
                return Err(WireError::BadTypeBitmap("trailing zero octet"));
            }
            for (i, &octet) in octets.iter().enumerate() {
                for bit in (0..8).filter(|bit| octet & (0x80 >> bit) != 0) {
                    bm.insert(RrType::from_u16((window << 8) | (i * 8 + bit) as u16));
                }
            }
            next_window = window + 1;
            pos += len;
        }
        Ok(bm)
    }
}

impl fmt::Debug for TypeBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for TypeBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for t in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
            first = false;
        }
        Ok(())
    }
}

/// A short octet string with a one-octet length on the wire: an NSEC3
/// salt or hash (RFC 5155 §3.2). Reads as a `[u8]`.
///
/// Up to [`Octets::INLINE`] octets — any salt in use and a SHA-1 hash —
/// are held in place, so copying the RDATA that carries them allocates
/// nothing; anything longer is boxed.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Octets(OctetsRepr);

/// Invariant, which makes the derived comparisons those of the strings:
/// `Heap` only holds strings longer than [`Octets::INLINE`], and `buf` is
/// zero past `len`.
#[derive(Clone, PartialEq, Eq, Hash)]
enum OctetsRepr {
    Inline { len: u8, buf: [u8; Octets::INLINE] },
    Heap(Box<[u8]>),
}

impl Octets {
    /// Longest string held without a heap allocation.
    pub const INLINE: usize = 22;
}

impl Default for Octets {
    fn default() -> Self {
        Octets::from([])
    }
}

impl<T: AsRef<[u8]>> From<T> for Octets {
    fn from(bytes: T) -> Self {
        let bytes = bytes.as_ref();
        if bytes.len() > Self::INLINE {
            return Octets(OctetsRepr::Heap(bytes.into()));
        }
        let mut buf = [0; Self::INLINE];
        buf[..bytes.len()].copy_from_slice(bytes);
        let len = bytes.len() as u8;
        Octets(OctetsRepr::Inline { len, buf })
    }
}

impl std::ops::Deref for Octets {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            OctetsRepr::Inline { len, buf } => &buf[..usize::from(*len)],
            OctetsRepr::Heap(bytes) => bytes,
        }
    }
}

impl fmt::Debug for Octets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

/// Typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Rdata {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Nameserver.
    Ns(Name),
    /// Alias.
    Cname(Name),
    /// Pointer.
    Ptr(Name),
    /// Mail exchange.
    Mx {
        /// Preference value; lower wins.
        preference: u16,
        /// Exchange host name.
        exchange: Name,
    },
    /// Text record: one or more character strings.
    Txt(Vec<Vec<u8>>),
    /// Start of authority.
    Soa(Soa),
    /// Delegation signer.
    Ds {
        /// Key tag of the referenced DNSKEY.
        key_tag: u16,
        /// Algorithm of the referenced DNSKEY.
        algorithm: u8,
        /// Digest type used.
        digest_type: u8,
        /// Digest of owner ‖ DNSKEY RDATA.
        digest: Vec<u8>,
    },
    /// DNSSEC public key.
    Dnskey {
        /// Flags: bit 7 (value 256) = Zone Key, bit 15 (value 1) = SEP.
        flags: u16,
        /// Must be 3.
        protocol: u8,
        /// Algorithm number.
        algorithm: u8,
        /// Public key material.
        public_key: Vec<u8>,
    },
    /// DNSSEC signature.
    Rrsig(Rrsig),
    /// Authenticated denial (plain).
    Nsec {
        /// Next owner name in canonical order.
        next: Name,
        /// Types present at this owner.
        types: TypeBitmap,
    },
    /// Authenticated denial (hashed).
    Nsec3 {
        /// Hash algorithm (1 = SHA-1).
        hash_alg: u8,
        /// Flags: bit 0 = opt-out.
        flags: u8,
        /// Extra hash iterations.
        iterations: u16,
        /// Salt (empty allowed).
        salt: Octets,
        /// Next hashed owner (raw bytes, not base32).
        next_hashed: Octets,
        /// Types present at the original owner.
        types: TypeBitmap,
    },
    /// NSEC3 parameters advertised by the zone.
    Nsec3param {
        /// Hash algorithm (1 = SHA-1).
        hash_alg: u8,
        /// Flags (always 0 here).
        flags: u8,
        /// Extra hash iterations.
        iterations: u16,
        /// Salt (empty allowed).
        salt: Octets,
    },
    /// Opaque RDATA for types we do not model.
    Unknown {
        /// Numeric RR type.
        rtype: u16,
        /// Raw RDATA bytes.
        data: Vec<u8>,
    },
}

impl Rdata {
    /// The RR type this RDATA belongs to.
    pub fn rtype(&self) -> RrType {
        match self {
            Rdata::A(_) => RrType::A,
            Rdata::Aaaa(_) => RrType::Aaaa,
            Rdata::Ns(_) => RrType::Ns,
            Rdata::Cname(_) => RrType::Cname,
            Rdata::Ptr(_) => RrType::Ptr,
            Rdata::Mx { .. } => RrType::Mx,
            Rdata::Txt(_) => RrType::Txt,
            Rdata::Soa(_) => RrType::Soa,
            Rdata::Ds { .. } => RrType::Ds,
            Rdata::Dnskey { .. } => RrType::Dnskey,
            Rdata::Rrsig(_) => RrType::Rrsig,
            Rdata::Nsec { .. } => RrType::Nsec,
            Rdata::Nsec3 { .. } => RrType::Nsec3,
            Rdata::Nsec3param { .. } => RrType::Nsec3param,
            Rdata::Unknown { rtype, .. } => RrType::from_u16(*rtype),
        }
    }

    /// Encode the RDATA body. Names inside legacy types (NS, CNAME, PTR,
    /// MX, SOA) may be compressed when a compressor is supplied; names in
    /// DNSSEC types are always encoded uncompressed (RFC 3597 / RFC 4034
    /// require this for unknown-type transparency and signature
    /// stability).
    pub fn encode(&self, buf: &mut Vec<u8>, mut compressor: Option<&mut Compressor>) {
        match self {
            Rdata::A(addr) => buf.extend_from_slice(&addr.octets()),
            Rdata::Aaaa(addr) => buf.extend_from_slice(&addr.octets()),
            Rdata::Ns(n) | Rdata::Cname(n) | Rdata::Ptr(n) => {
                n.encode(buf, compressor.as_deref_mut())
            }
            Rdata::Mx {
                preference,
                exchange,
            } => {
                buf.extend_from_slice(&preference.to_be_bytes());
                exchange.encode(buf, compressor.as_deref_mut());
            }
            Rdata::Txt(strings) => {
                for s in strings {
                    buf.push(s.len().min(255) as u8);
                    buf.extend_from_slice(&s[..s.len().min(255)]);
                }
            }
            Rdata::Soa(soa) => {
                soa.mname.encode(buf, compressor.as_deref_mut());
                soa.rname.encode(buf, compressor);
                for v in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                    buf.extend_from_slice(&v.to_be_bytes());
                }
            }
            Rdata::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            } => {
                buf.extend_from_slice(&key_tag.to_be_bytes());
                buf.push(*algorithm);
                buf.push(*digest_type);
                buf.extend_from_slice(digest);
            }
            Rdata::Dnskey {
                flags,
                protocol,
                algorithm,
                public_key,
            } => {
                buf.extend_from_slice(&flags.to_be_bytes());
                buf.push(*protocol);
                buf.push(*algorithm);
                buf.extend_from_slice(public_key);
            }
            Rdata::Rrsig(sig) => {
                buf.extend_from_slice(&sig.type_covered.to_u16().to_be_bytes());
                buf.push(sig.algorithm);
                buf.push(sig.labels);
                buf.extend_from_slice(&sig.original_ttl.to_be_bytes());
                buf.extend_from_slice(&sig.expiration.to_be_bytes());
                buf.extend_from_slice(&sig.inception.to_be_bytes());
                buf.extend_from_slice(&sig.key_tag.to_be_bytes());
                sig.signer.encode(buf, None);
                buf.extend_from_slice(&sig.signature);
            }
            Rdata::Nsec { next, types } => {
                next.encode(buf, None);
                types.encode(buf);
            }
            Rdata::Nsec3 {
                hash_alg,
                flags,
                iterations,
                salt,
                next_hashed,
                types,
            } => {
                buf.push(*hash_alg);
                buf.push(*flags);
                buf.extend_from_slice(&iterations.to_be_bytes());
                buf.push(salt.len() as u8);
                buf.extend_from_slice(salt);
                buf.push(next_hashed.len() as u8);
                buf.extend_from_slice(next_hashed);
                types.encode(buf);
            }
            Rdata::Nsec3param {
                hash_alg,
                flags,
                iterations,
                salt,
            } => {
                buf.push(*hash_alg);
                buf.push(*flags);
                buf.extend_from_slice(&iterations.to_be_bytes());
                buf.push(salt.len() as u8);
                buf.extend_from_slice(salt);
            }
            Rdata::Unknown { data, .. } => buf.extend_from_slice(data),
        }
    }

    /// Decode `rdlen` bytes at `msg[*pos..]` as RDATA of type `rtype`.
    /// `*pos` advances past the RDATA.
    pub fn decode(
        msg: &[u8],
        pos: &mut usize,
        rdlen: usize,
        rtype: RrType,
    ) -> Result<Self, WireError> {
        let end = *pos + rdlen;
        if end > msg.len() {
            return Err(WireError::Truncated { context: "rdata" });
        }
        let take_slice = |pos: &mut usize, n: usize| -> Result<&[u8], WireError> {
            if *pos + n > end {
                return Err(WireError::BadRdataLength {
                    rtype: rtype.to_u16(),
                });
            }
            let s = &msg[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };

        let rdata = match rtype {
            RrType::A => {
                let o = take_slice(pos, 4)?;
                Rdata::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            RrType::Aaaa => {
                let o = take_slice(pos, 16)?;
                let mut b = [0u8; 16];
                b.copy_from_slice(o);
                Rdata::Aaaa(Ipv6Addr::from(b))
            }
            RrType::Ns => Rdata::Ns(Name::decode(msg, pos)?),
            RrType::Cname => Rdata::Cname(Name::decode(msg, pos)?),
            RrType::Ptr => Rdata::Ptr(Name::decode(msg, pos)?),
            RrType::Mx => {
                let p = take_slice(pos, 2)?;
                let preference = u16::from_be_bytes([p[0], p[1]]);
                Rdata::Mx {
                    preference,
                    exchange: Name::decode(msg, pos)?,
                }
            }
            RrType::Txt => {
                let mut strings = Vec::new();
                while *pos < end {
                    let len = usize::from(msg[*pos]);
                    *pos += 1;
                    strings.push(take_slice(pos, len)?.to_vec());
                }
                Rdata::Txt(strings)
            }
            RrType::Soa => {
                let mname = Name::decode(msg, pos)?;
                let rname = Name::decode(msg, pos)?;
                let f = take_slice(pos, 20)?;
                let u = |i: usize| u32::from_be_bytes([f[i], f[i + 1], f[i + 2], f[i + 3]]);
                Rdata::Soa(Soa {
                    mname,
                    rname,
                    serial: u(0),
                    refresh: u(4),
                    retry: u(8),
                    expire: u(12),
                    minimum: u(16),
                })
            }
            RrType::Ds => {
                let h = take_slice(pos, 4)?;
                let key_tag = u16::from_be_bytes([h[0], h[1]]);
                let algorithm = h[2];
                let digest_type = h[3];
                let digest = msg[*pos..end].to_vec();
                *pos = end;
                Rdata::Ds {
                    key_tag,
                    algorithm,
                    digest_type,
                    digest,
                }
            }
            RrType::Dnskey => {
                let h = take_slice(pos, 4)?;
                let flags = u16::from_be_bytes([h[0], h[1]]);
                let protocol = h[2];
                let algorithm = h[3];
                let public_key = msg[*pos..end].to_vec();
                *pos = end;
                Rdata::Dnskey {
                    flags,
                    protocol,
                    algorithm,
                    public_key,
                }
            }
            RrType::Rrsig => {
                let h = take_slice(pos, 18)?;
                let type_covered = RrType::from_u16(u16::from_be_bytes([h[0], h[1]]));
                let algorithm = h[2];
                let labels = h[3];
                let original_ttl = u32::from_be_bytes([h[4], h[5], h[6], h[7]]);
                let expiration = u32::from_be_bytes([h[8], h[9], h[10], h[11]]);
                let inception = u32::from_be_bytes([h[12], h[13], h[14], h[15]]);
                let key_tag = u16::from_be_bytes([h[16], h[17]]);
                let signer = Name::decode(msg, pos)?;
                if *pos > end {
                    return Err(WireError::BadRdataLength { rtype: 46 });
                }
                let signature = msg[*pos..end].to_vec();
                *pos = end;
                Rdata::Rrsig(Rrsig {
                    type_covered,
                    algorithm,
                    labels,
                    original_ttl,
                    expiration,
                    inception,
                    key_tag,
                    signer,
                    signature,
                })
            }
            RrType::Nsec => {
                let next = Name::decode(msg, pos)?;
                if *pos > end {
                    return Err(WireError::BadRdataLength { rtype: 47 });
                }
                let types = TypeBitmap::decode(&msg[*pos..end])?;
                *pos = end;
                Rdata::Nsec { next, types }
            }
            RrType::Nsec3 => {
                let h = take_slice(pos, 4)?;
                let hash_alg = h[0];
                let flags = h[1];
                let iterations = u16::from_be_bytes([h[2], h[3]]);
                let salt_len = usize::from(take_slice(pos, 1)?[0]);
                let salt = take_slice(pos, salt_len)?.into();
                let hash_len = usize::from(take_slice(pos, 1)?[0]);
                let next_hashed = take_slice(pos, hash_len)?.into();
                let types = TypeBitmap::decode(&msg[*pos..end])?;
                *pos = end;
                Rdata::Nsec3 {
                    hash_alg,
                    flags,
                    iterations,
                    salt,
                    next_hashed,
                    types,
                }
            }
            RrType::Nsec3param => {
                let h = take_slice(pos, 4)?;
                let hash_alg = h[0];
                let flags = h[1];
                let iterations = u16::from_be_bytes([h[2], h[3]]);
                let salt_len = usize::from(take_slice(pos, 1)?[0]);
                let salt = take_slice(pos, salt_len)?.into();
                if *pos != end {
                    return Err(WireError::BadRdataLength { rtype: 51 });
                }
                Rdata::Nsec3param {
                    hash_alg,
                    flags,
                    iterations,
                    salt,
                }
            }
            other => {
                let data = msg[*pos..end].to_vec();
                *pos = end;
                Rdata::Unknown {
                    rtype: other.to_u16(),
                    data,
                }
            }
        };
        if *pos != end {
            return Err(WireError::BadRdataLength {
                rtype: rtype.to_u16(),
            });
        }
        Ok(rdata)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn roundtrip(rdata: &Rdata) {
        let mut buf = Vec::new();
        rdata.encode(&mut buf, None);
        let mut pos = 0;
        let decoded = Rdata::decode(&buf, &mut pos, buf.len(), rdata.rtype()).unwrap();
        assert_eq!(&decoded, rdata);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn roundtrip_simple_types() {
        roundtrip(&Rdata::A("192.0.2.1".parse().unwrap()));
        roundtrip(&Rdata::Aaaa("2001:db8::1".parse().unwrap()));
        roundtrip(&Rdata::Ns(n("ns1.example.com")));
        roundtrip(&Rdata::Cname(n("alias.example.org")));
        roundtrip(&Rdata::Ptr(n("host.example.net")));
        roundtrip(&Rdata::Mx {
            preference: 10,
            exchange: n("mx.example.com"),
        });
        roundtrip(&Rdata::Txt(vec![b"hello".to_vec(), b"world".to_vec()]));
    }

    #[test]
    fn roundtrip_soa() {
        roundtrip(&Rdata::Soa(Soa {
            mname: n("ns1.example.com"),
            rname: n("hostmaster.example.com"),
            serial: 2023051501,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        }));
    }

    #[test]
    fn roundtrip_dnssec_types() {
        roundtrip(&Rdata::Ds {
            key_tag: 60485,
            algorithm: 8,
            digest_type: 2,
            digest: vec![0xAB; 32],
        });
        roundtrip(&Rdata::Dnskey {
            flags: 257,
            protocol: 3,
            algorithm: 13,
            public_key: vec![1, 2, 3, 4, 5],
        });
        roundtrip(&Rdata::Rrsig(Rrsig {
            type_covered: RrType::A,
            algorithm: 8,
            labels: 3,
            original_ttl: 3600,
            expiration: 1_700_000_000,
            inception: 1_690_000_000,
            key_tag: 12345,
            signer: n("example.com"),
            signature: vec![9; 32],
        }));
        roundtrip(&Rdata::Nsec {
            next: n("b.example.com"),
            types: TypeBitmap::from_types([RrType::A, RrType::Rrsig, RrType::Nsec]),
        });
        roundtrip(&Rdata::Nsec3 {
            hash_alg: 1,
            flags: 1,
            iterations: 12,
            salt: [0xaa, 0xbb].into(),
            next_hashed: [0x11; 20].into(),
            types: TypeBitmap::from_types([RrType::A, RrType::Aaaa]),
        });
        roundtrip(&Rdata::Nsec3param {
            hash_alg: 1,
            flags: 0,
            iterations: 0,
            salt: Octets::default(),
        });
    }

    #[test]
    fn roundtrip_unknown() {
        roundtrip(&Rdata::Unknown {
            rtype: 99,
            data: vec![1, 2, 3],
        });
    }

    #[test]
    fn bitmap_windows() {
        // Types in different windows: A (1, window 0) and TYPE258
        // (window 1) — forces two blocks.
        let mut bm = TypeBitmap::new();
        bm.insert(RrType::A);
        bm.insert(RrType::Other(258));
        let mut buf = Vec::new();
        bm.encode(&mut buf);
        assert_eq!(TypeBitmap::decode(&buf).unwrap(), bm);
        assert!(bm.contains(RrType::A));
        assert!(bm.contains(RrType::Other(258)));
        assert!(!bm.contains(RrType::Ns));
    }

    #[test]
    fn bitmap_rfc4034_example() {
        // RFC 4034 §4.3 example: A MX RRSIG NSEC TYPE1234 — the encoded
        // bitmap is specified in the RFC.
        let bm = TypeBitmap::from_types([
            RrType::A,
            RrType::Mx,
            RrType::Rrsig,
            RrType::Nsec,
            RrType::Other(1234),
        ]);
        let mut buf = Vec::new();
        bm.encode(&mut buf);
        assert_eq!(
            buf,
            vec![
                0x00, 0x06, 0x40, 0x01, 0x00, 0x00, 0x00, 0x03, // window 0
                0x04, 0x1b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x20, // window 4
            ]
        );
        assert_eq!(TypeBitmap::decode(&buf).unwrap(), bm);
    }

    // RFC 4034 §4.1.2 allows one encoding per set; each other shape used
    // to decode (and re-encode to different bytes than were signed).

    #[test]
    fn bitmap_windows_out_of_order_rejected() {
        // Window 1 {TYPE256} before window 0 {A}.
        let wire = [0x01, 0x01, 0x80, 0x00, 0x01, 0x40];
        assert!(matches!(
            TypeBitmap::decode(&wire),
            Err(WireError::BadTypeBitmap(_))
        ));
    }

    #[test]
    fn bitmap_repeated_window_rejected() {
        // Window 0 {A}, then window 0 {NS} again.
        let wire = [0x00, 0x01, 0x40, 0x00, 0x01, 0x20];
        assert!(matches!(
            TypeBitmap::decode(&wire),
            Err(WireError::BadTypeBitmap(_))
        ));
    }

    #[test]
    fn bitmap_trailing_zero_octet_rejected() {
        // Window 0 {A} padded with a zero octet.
        let wire = [0x00, 0x02, 0x40, 0x00];
        assert!(matches!(
            TypeBitmap::decode(&wire),
            Err(WireError::BadTypeBitmap(_))
        ));
    }

    #[test]
    fn bitmap_empty_block_rejected() {
        // Window 0 {A}, then a window 2 block with no type present.
        let wire = [0x00, 0x01, 0x40, 0x02, 0x01, 0x00];
        assert!(matches!(
            TypeBitmap::decode(&wire),
            Err(WireError::BadTypeBitmap(_))
        ));
    }

    #[test]
    fn octets_inline_and_boxed_read_alike() {
        for len in [0, 1, 20, Octets::INLINE, Octets::INLINE + 1, 255] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let o = Octets::from(&bytes[..]);
            assert_eq!(&o[..], &bytes[..]);
            assert_eq!(o, Octets::from(bytes.clone()));
            roundtrip(&Rdata::Nsec3param {
                hash_alg: 1,
                flags: 0,
                iterations: 0,
                salt: o,
            });
        }
    }

    #[test]
    fn rdlen_mismatch_rejected() {
        // A record with 3 bytes of RDATA.
        let buf = [1, 2, 3];
        let mut pos = 0;
        assert!(Rdata::decode(&buf, &mut pos, 3, RrType::A).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        Rdata::A("192.0.2.1".parse().unwrap()).encode(&mut buf, None);
        buf.push(0xFF);
        let mut pos = 0;
        assert!(Rdata::decode(&buf, &mut pos, 5, RrType::A).is_err());
    }
}
