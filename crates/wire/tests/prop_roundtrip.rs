//! Randomized round-trip tests: every message the library can construct
//! survives an encode → decode round trip, and hostile inputs never
//! panic the decoder. The cases are driven by an in-file deterministic
//! PRNG (SplitMix64), so every failure reproduces from the fixed seed.

use ede_wire::{
    ede::{EdeCode, EdeEntry},
    rdata::{Rdata, Rrsig, Soa, TypeBitmap},
    Edns, Message, Name, Opcode, Rcode, Record, RrType,
};

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

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Random bytes, length uniform in `lo..hi`.
    fn bytes(&mut self, lo: u64, hi: u64) -> Vec<u8> {
        let len = self.range(lo, hi);
        (0..len).map(|_| self.next() as u8).collect()
    }
}

const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
const ALNUM_DASH: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";

/// A hostname label: `[a-z0-9]([a-z0-9-]{0,14}[a-z0-9])?`.
fn arb_label(rng: &mut Rng) -> Vec<u8> {
    let len = 1 + rng.below(16) as usize;
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let charset = if i == 0 || i == len - 1 {
            ALNUM
        } else {
            ALNUM_DASH
        };
        out.push(charset[rng.below(charset.len() as u64) as usize]);
    }
    out
}

fn arb_name(rng: &mut Rng) -> Name {
    let n = rng.below(5) as usize;
    let labels: Vec<Vec<u8>> = (0..n).map(|_| arb_label(rng)).collect();
    Name::from_labels(labels.iter().map(|l| l.as_slice())).unwrap()
}

fn arb_rrtype(rng: &mut Rng) -> RrType {
    const KNOWN: [RrType; 12] = [
        RrType::A,
        RrType::Aaaa,
        RrType::Ns,
        RrType::Cname,
        RrType::Soa,
        RrType::Mx,
        RrType::Txt,
        RrType::Ds,
        RrType::Dnskey,
        RrType::Rrsig,
        RrType::Nsec,
        RrType::Nsec3,
    ];
    match rng.below(13) {
        i if (i as usize) < KNOWN.len() => KNOWN[i as usize],
        _ => RrType::from_u16(rng.range(256, 4096) as u16),
    }
}

fn arb_bitmap(rng: &mut Rng) -> TypeBitmap {
    let n = rng.below(8) as usize;
    TypeBitmap::from_types((0..n).map(|_| arb_rrtype(rng)).collect::<Vec<_>>())
}

fn arb_rdata(rng: &mut Rng) -> Rdata {
    match rng.below(13) {
        0 => {
            let mut o = [0u8; 4];
            o.iter_mut().for_each(|b| *b = rng.next() as u8);
            Rdata::A(o.into())
        }
        1 => {
            let mut o = [0u8; 16];
            o.iter_mut().for_each(|b| *b = rng.next() as u8);
            Rdata::Aaaa(o.into())
        }
        2 => Rdata::Ns(arb_name(rng)),
        3 => Rdata::Cname(arb_name(rng)),
        4 => Rdata::Mx {
            preference: rng.next() as u16,
            exchange: arb_name(rng),
        },
        5 => {
            let n = 1 + rng.below(2) as usize;
            Rdata::Txt((0..n).map(|_| rng.bytes(0, 40)).collect())
        }
        6 => Rdata::Soa(Soa {
            mname: arb_name(rng),
            rname: arb_name(rng),
            serial: rng.next() as u32,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: rng.next() as u32,
        }),
        7 => Rdata::Ds {
            key_tag: rng.next() as u16,
            algorithm: rng.next() as u8,
            digest_type: rng.next() as u8,
            digest: rng.bytes(0, 48),
        },
        8 => Rdata::Dnskey {
            flags: rng.next() as u16,
            protocol: 3,
            algorithm: rng.next() as u8,
            public_key: rng.bytes(0, 64),
        },
        9 => Rdata::Rrsig(Rrsig {
            type_covered: arb_rrtype(rng),
            algorithm: rng.next() as u8,
            labels: rng.next() as u8,
            original_ttl: rng.next() as u32,
            expiration: rng.next() as u32,
            inception: rng.next() as u32,
            key_tag: rng.next() as u16,
            signer: arb_name(rng),
            signature: rng.bytes(0, 64),
        }),
        10 => Rdata::Nsec {
            next: arb_name(rng),
            types: arb_bitmap(rng),
        },
        11 => Rdata::Nsec3 {
            hash_alg: 1,
            flags: 0,
            iterations: rng.next() as u16,
            salt: rng.bytes(0, 8).into(),
            next_hashed: rng.bytes(1, 21).into(),
            types: arb_bitmap(rng),
        },
        _ => Rdata::Unknown {
            rtype: 99,
            data: rng.bytes(0, 32),
        },
    }
}

fn arb_record(rng: &mut Rng) -> Record {
    let name = arb_name(rng);
    let ttl = rng.next() as u32;
    Record::new(name, ttl, arb_rdata(rng))
}

fn arb_ede_entry(rng: &mut Rng) -> EdeEntry {
    let code = EdeCode::from_u16(rng.below(64) as u16);
    let len = rng.below(61) as usize;
    // Printable ASCII only: EXTRA-TEXT is human-facing.
    let text: String = (0..len)
        .map(|_| rng.range(0x20, 0x7F) as u8 as char)
        .collect();
    EdeEntry::with_text(code, text)
}

fn arb_edns(rng: &mut Rng) -> Edns {
    let mut edns = Edns {
        udp_payload_size: rng.range(512, 4096) as u16,
        dnssec_ok: rng.flag(),
        ..Default::default()
    };
    for _ in 0..rng.below(4) {
        edns.push_ede(arb_ede_entry(rng));
    }
    edns
}

fn arb_message(rng: &mut Rng) -> Message {
    let response = rng.flag();
    let edns = if rng.flag() {
        Some(arb_edns(rng))
    } else {
        None
    };
    // A 12-bit extended rcode needs EDNS to survive the trip.
    let rcode = if edns.is_some() {
        Rcode::from_u16(rng.below(12) as u16)
    } else {
        Rcode::from_u16(rng.below(12) as u16 & 0x0F)
    };
    Message {
        id: rng.next() as u16,
        response,
        opcode: Opcode::Query,
        authoritative: response,
        truncated: false,
        recursion_desired: true,
        recursion_available: response,
        authentic_data: false,
        checking_disabled: false,
        rcode,
        questions: (0..rng.below(2))
            .map(|_| ede_wire::Question::new(arb_name(rng), arb_rrtype(rng)))
            .collect(),
        answers: (0..rng.below(4)).map(|_| arb_record(rng)).collect(),
        authorities: (0..rng.below(3)).map(|_| arb_record(rng)).collect(),
        additionals: (0..rng.below(3)).map(|_| arb_record(rng)).collect(),
        edns,
    }
}

#[test]
fn message_roundtrip() {
    let mut rng = Rng(0x0001_5eed);
    for case in 0..512 {
        let msg = arb_message(&mut rng);
        let wire = msg.encode().unwrap();
        let decoded = Message::decode(&wire).unwrap();
        assert_eq!(decoded, msg, "case {case}");
    }
}

#[test]
fn name_roundtrip() {
    let mut rng = Rng(0x0002_5eed);
    for case in 0..512 {
        let name = arb_name(&mut rng);
        let wire = name.to_wire();
        let mut pos = 0;
        let decoded = Name::decode(&wire, &mut pos).unwrap();
        assert_eq!(decoded, name, "case {case}");
        assert_eq!(pos, wire.len(), "case {case}");
    }
}

#[test]
fn decoder_never_panics() {
    let mut rng = Rng(0x0003_5eed);
    for _ in 0..512 {
        // Hostile input: any outcome but a panic is acceptable.
        let _ = Message::decode(&rng.bytes(0, 512));
    }
}

#[test]
fn decoder_never_panics_on_mutations() {
    let mut rng = Rng(0x0004_5eed);
    for _ in 0..512 {
        let msg = arb_message(&mut rng);
        let mut wire = msg.encode().unwrap();
        if !wire.is_empty() {
            let i = rng.below(wire.len() as u64) as usize;
            wire[i] ^= 1 << rng.below(8);
            // Whatever type bitmap still decodes must be the one
            // encoding of its set (RFC 4034 §4.1.2): re-encoded, its
            // bytes are there in the message it came from.
            let Ok(decoded) = Message::decode(&wire) else {
                continue;
            };
            let sections = [&decoded.answers, &decoded.authorities, &decoded.additionals];
            for record in sections.into_iter().flatten() {
                if let Rdata::Nsec { types, .. } | Rdata::Nsec3 { types, .. } = &record.rdata {
                    let mut bitmap = Vec::new();
                    types.encode(&mut bitmap);
                    assert!(
                        bitmap.is_empty() || wire.windows(bitmap.len()).any(|w| w == bitmap),
                        "{types:?} did not come from {bitmap:02x?}"
                    );
                }
            }
        }
    }
}

#[test]
fn canonical_order_is_total() {
    use std::cmp::Ordering;
    let mut rng = Rng(0x0005_5eed);
    for _ in 0..512 {
        let (a, b, c) = (arb_name(&mut rng), arb_name(&mut rng), arb_name(&mut rng));
        // Antisymmetry and transitivity spot-checks for the RFC 4034 order.
        assert_eq!(a.canonical_cmp(&b), b.canonical_cmp(&a).reverse());
        if a.canonical_cmp(&b) == Ordering::Less && b.canonical_cmp(&c) == Ordering::Less {
            assert_eq!(a.canonical_cmp(&c), Ordering::Less, "{a} {b} {c}");
        }
    }
}

#[test]
fn ede_payload_roundtrip() {
    let mut rng = Rng(0x0006_5eed);
    for case in 0..256 {
        let entry = arb_ede_entry(&mut rng);
        let payload = entry.encode_payload().unwrap();
        assert_eq!(
            EdeEntry::decode_payload(&payload).unwrap(),
            entry,
            "case {case}"
        );
    }
}
