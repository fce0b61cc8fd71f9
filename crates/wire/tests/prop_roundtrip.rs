//! Randomized round-trip tests: every message the library can construct
//! survives an encode → decode round trip, and hostile inputs never
//! panic the decoder. The cases are driven by an in-file deterministic
//! PRNG (SplitMix64), so every failure reproduces from the fixed seed.

use ede_wire::{
    ede::{EdeCode, EdeEntry},
    rdata::{Rdata, Rrsig, Soa, TypeBitmap},
    Edns, EdnsOption, Message, Name, Opcode, Rcode, Record, RrType,
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

/// Labels that half of all generated labels are drawn from, so that
/// generated names share suffixes and the compressor has work to do.
const COMMON_LABELS: [&str; 6] = ["com", "example", "net", "ns", "www", "a"];

/// A hostname label: one of [`COMMON_LABELS`], or
/// `[a-z0-9]([a-z0-9-]{0,14}[a-z0-9])?`.
fn arb_label(rng: &mut Rng) -> Vec<u8> {
    if rng.flag() {
        let i = rng.below(COMMON_LABELS.len() as u64) as usize;
        return COMMON_LABELS[i].as_bytes().to_vec();
    }
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
        edns.options.push(EdnsOption::Ede(arb_ede_entry(rng)));
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
        let mut payload = Vec::new();
        entry.encode_payload(&mut payload).unwrap();
        assert_eq!(
            EdeEntry::decode_payload(&payload).unwrap(),
            entry,
            "case {case}"
        );
    }
}

fn n(text: &str) -> Name {
    Name::parse(text).unwrap()
}

fn txt(owner: &str) -> Record {
    Record::new(n(owner), 60, Rdata::Txt(vec![vec![0x5A; 64]]))
}

/// More distinct suffixes than the compressor's inline table holds.
fn many_suffixes() -> Message {
    let mut m = Message::query(1, n("example.com"), RrType::Ns);
    for i in 0..40 {
        m.answers.push(Record::new(
            n(&format!("h{i}.z{}.example.com", i % 7)),
            300,
            Rdata::Ns(n(&format!("ns{i}.z{}.example.net", i % 5))),
        ));
    }
    m
}

/// Each name's tail is a suffix that was itself written as a label and a
/// pointer, so confirming a candidate has to follow pointers.
fn suffixes_behind_pointers() -> Message {
    let mut m = Message::query(2, n("example.com"), RrType::A);
    m.answers = vec![
        Record::new(
            n("www.example.com"),
            60,
            Rdata::Cname(n("mail.www.example.com")),
        ),
        Record::new(
            n("x.mail.www.example.com"),
            60,
            Rdata::Mx {
                preference: 10,
                exchange: n("y.x.mail.www.example.com"),
            },
        ),
        txt("mail.www.example.org"),
        txt("y.x.mail.www.example.com"),
    ];
    m
}

/// Past 16 KiB: names first written at or beyond offset 0x3FFF cannot be
/// pointed at, so their repeats are spelled out again.
fn beyond_pointer_range() -> Message {
    let mut m = Message::query(3, n("big.example.com"), RrType::Txt);
    m.answers = (0..300)
        .map(|i| txt(&format!("r{i}.big.example.com")))
        .collect();
    m.additionals = [3, 150, 250, 299, 250]
        .map(|i| txt(&format!("r{i}.big.example.com")))
        .into();
    m
}

/// Every message of `message_roundtrip`'s stream, then the three shapes
/// above.
fn compression_corpus() -> Vec<Message> {
    let mut rng = Rng(0x0001_5eed);
    let mut corpus: Vec<Message> = (0..512).map(|_| arb_message(&mut rng)).collect();
    corpus.extend([
        many_suffixes(),
        suffixes_behind_pointers(),
        beyond_pointer_range(),
    ]);
    corpus
}

/// The compressor's choices are part of the wire contract (the TC=1 → TCP
/// retry and the benchmark's oracle compare bytes): the digest below is
/// FNV-1a over the corpus as commit b09a768's `HashMap<Vec<u8>, u16>`
/// compressor encoded it.
#[test]
fn compressed_output_is_pinned() {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for msg in compression_corpus() {
        let wire = msg.encode().unwrap();
        assert_eq!(Message::decode(&wire).unwrap(), msg);
        for &b in (wire.len() as u32).to_be_bytes().iter().chain(&wire) {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(digest, 0x02ff_b60b_f630_85b6, "{digest:#018x}");
}

/// All of `beyond_pointer_range`'s names are record owners and its RDATA
/// holds none, so every pointer can be found by walking the records.
#[test]
fn no_pointer_targets_at_or_beyond_0x3fff() {
    let wire = beyond_pointer_range().encode().unwrap();
    // Walk one name; returns where it ends and the pointer it ended in.
    let skip_name = |mut at: usize| loop {
        match wire[at] {
            0 => return (at + 1, None),
            len if len & 0xC0 == 0xC0 => {
                let target = usize::from(u16::from_be_bytes([len & 0x3F, wire[at + 1]]));
                return (at + 2, Some(target));
            }
            len => at += 1 + usize::from(len),
        }
    };
    let (question_end, pointer) = skip_name(12);
    assert_eq!(pointer, None);
    let mut at = question_end + 4;
    // Per record: whether its owner is a bare pointer.
    let mut bare = Vec::new();
    while at < wire.len() {
        let (owner_end, pointer) = skip_name(at);
        if let Some(target) = pointer {
            assert!(target < 0x3FFF && target < at, "{target:#x} from {at:#x}");
        }
        bare.push(owner_end == at + 2);
        let rdlen = u16::from_be_bytes([wire[owner_end + 8], wire[owner_end + 9]]);
        at = owner_end + 10 + usize::from(rdlen);
    }
    assert_eq!(at, wire.len());
    assert!(wire.len() > 0x3FFF + 8_000, "{}", wire.len());
    // r3 and r150 were first written inside pointer range and repeat as
    // bare pointers; r250 and r299 were not, and are spelled out every
    // time (label, then a pointer at the early `big.example.com`). The
    // last record is the OPT.
    assert_eq!(bare[300..], [true, true, false, false, false, false]);
}

/// `encode_into` behind other bytes is `encode`: pointers count from the
/// message's own first byte, and what was in the buffer is not touched.
#[test]
fn encode_into_at_any_base_is_encode() {
    for (case, msg) in compression_corpus().iter().enumerate() {
        let alone = msg.encode().unwrap();
        for base in [0, 1, 2 + case, 0x3FFF, 0x4000 + case] {
            let mut buf = vec![0xA5; base];
            msg.encode_into(&mut buf).unwrap();
            assert!(buf[..base].iter().all(|&b| b == 0xA5), "case {case}");
            assert!(buf[base..] == alone, "case {case} at base {base}");
        }
    }
}

/// A message that cannot be encoded leaves no trace in the buffer: not
/// when it fails before the first byte (a section over 65 535 entries),
/// not when it fails in the last record (an oversized EDE text).
#[test]
fn failed_encode_into_leaves_the_buffer_as_found() {
    let mut too_many = many_suffixes();
    too_many.questions = vec![too_many.questions[0].clone(); 65_536];
    let mut too_long = many_suffixes();
    too_long
        .edns
        .as_mut()
        .unwrap()
        .options
        .push(EdnsOption::Ede(EdeEntry::with_text(
            EdeCode::Other,
            "x".repeat(65_534),
        )));
    let before = many_suffixes().encode().unwrap();
    for (broken, error) in [
        (too_many, ede_wire::WireError::BadCount),
        (
            too_long,
            ede_wire::WireError::FieldOverflow("EDE EXTRA-TEXT"),
        ),
    ] {
        let mut buf = before.clone();
        assert_eq!(broken.encode_into(&mut buf), Err(error.clone()));
        assert_eq!(buf, before);
        assert_eq!(broken.encode(), Err(error));
    }
}
