//! `Name` against a label-vector reference model.
//!
//! `Name` keeps its canonical wire form in one shared buffer and cuts
//! ancestors out of it by offset. The model here is the obvious
//! representation — a vector of lowercased labels, leaf first — with
//! every operation written the slow, plain way; the properties hold the
//! two against each other on seeded random names (SplitMix64, so every
//! failure reproduces), names cut out of longer names included.

use ede_wire::name::Compressor;
use ede_wire::Name;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

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
}

/// The reference: lowercased labels, leaf first.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Model(Vec<Vec<u8>>);

impl Model {
    fn wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for l in &self.0 {
            out.push(l.len() as u8);
            out.extend_from_slice(l);
        }
        out.push(0);
        out
    }

    fn text(&self) -> String {
        if self.0.is_empty() {
            return ".".to_string();
        }
        self.0
            .iter()
            .map(|l| format!("{}.", String::from_utf8_lossy(l)))
            .collect()
    }

    fn parent(&self) -> Option<Model> {
        (!self.0.is_empty()).then(|| Model(self.0[1..].to_vec()))
    }

    fn suffix(&self, labels: usize) -> Model {
        Model(self.0[self.0.len().saturating_sub(labels)..].to_vec())
    }

    fn child(&self, label: &[u8]) -> Model {
        let mut labels = vec![label.to_ascii_lowercase()];
        labels.extend(self.0.iter().cloned());
        Model(labels)
    }

    fn is_subdomain_of(&self, ancestor: &Model) -> bool {
        self.0.len() >= ancestor.0.len() && self.0[self.0.len() - ancestor.0.len()..] == ancestor.0
    }

    /// RFC 4034 §6.1: label by label from the right, raw bytes.
    fn canonical_cmp(&self, other: &Model) -> Ordering {
        self.0.iter().rev().cmp(other.0.iter().rev())
    }

    /// The FNV-1a the sharded stores were built on, written out label
    /// by label as the label-vector `Name` computed it.
    fn shard_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for label in &self.0 {
            h ^= label.len() as u64;
            h = h.wrapping_mul(0x100000001b3);
            for &b in label {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }
}

const LABEL_BYTES: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";

fn arb_label(rng: &mut Rng) -> Vec<u8> {
    // Mostly short, sometimes the 63-octet maximum.
    let len = match rng.below(16) {
        0 => 63,
        _ => 1 + rng.below(12) as usize,
    };
    (0..len)
        .map(|_| LABEL_BYTES[rng.below(LABEL_BYTES.len() as u64) as usize])
        .collect()
}

/// A random name (mixed case going in) and its model, as likely as not
/// cut out of a longer name so that offsets into shared storage are
/// exercised.
fn arb_pair(rng: &mut Rng) -> (Name, Model) {
    let n = rng.below(6) as usize;
    let labels: Vec<Vec<u8>> = (0..n).map(|_| arb_label(rng)).collect();
    let mut name = Name::from_labels(&labels).expect("short enough");
    let mut model = Model(labels.iter().map(|l| l.to_ascii_lowercase()).collect());
    for _ in 0..rng.below(3) {
        if let (Some(p), Some(m)) = (name.parent(), model.parent()) {
            (name, model) = (p, m);
        }
    }
    (name, model)
}

fn std_hash(name: &Name) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

fn assert_same(name: &Name, model: &Model, case: usize) {
    assert_eq!(name.as_wire(), model.wire(), "case {case}");
    assert_eq!(name.to_wire(), model.wire(), "case {case}");
    assert_eq!(name.wire_len(), model.wire().len(), "case {case}");
    assert_eq!(name.label_count(), model.0.len(), "case {case}");
    assert_eq!(name.is_root(), model.0.is_empty(), "case {case}");
    assert_eq!(
        name.labels().map(<[u8]>::to_vec).collect::<Vec<_>>(),
        model.0,
        "case {case}"
    );
    assert_eq!(name.first_label(), model.0.first().map(Vec::as_slice));
    assert_eq!(name.to_string(), model.text(), "case {case}");
    assert_eq!(name.shard_hash(), model.shard_hash(), "case {case}");
}

#[test]
fn constructors_and_accessors_agree_with_the_model() {
    let mut rng = Rng(0x000a_5eed);
    for case in 0..2000 {
        let (name, model) = arb_pair(&mut rng);
        assert_same(&name, &model, case);

        // Text and wire round trips land on an equal name.
        let reparsed = Name::parse(&name.to_string()).unwrap();
        assert_eq!(reparsed, name, "case {case}");
        assert_same(&reparsed, &model, case);
        let mut pos = 0;
        let decoded = Name::decode(&model.wire(), &mut pos).unwrap();
        assert_eq!(pos, model.wire().len());
        assert_eq!(decoded, name, "case {case}");

        // Parent, suffix, child.
        assert_eq!(name.parent().is_some(), model.parent().is_some());
        if let (Some(p), Some(m)) = (name.parent(), model.parent()) {
            assert_same(&p, &m, case);
        }
        for labels in 0..=model.0.len() + 1 {
            assert_same(&name.suffix(labels), &model.suffix(labels), case);
        }
        let label = arb_label(&mut rng);
        if model.wire().len() + label.len() < 255 {
            let child = name.child_bytes(&label).unwrap();
            assert_same(&child, &model.child(&label), case);
            assert_eq!(child.parent().unwrap(), name, "case {case}");
            let text = String::from_utf8(label).unwrap();
            assert_eq!(name.child(&text).unwrap(), child, "case {case}");
        }
    }
}

#[test]
fn relations_between_names_agree_with_the_model() {
    let mut rng = Rng(0x000b_5eed);
    for case in 0..2000 {
        let (a, ma) = arb_pair(&mut rng);
        // Related pairs are rare by chance: half the time derive `b`
        // from `a`.
        let (b, mb) = match rng.below(4) {
            0 => (a.suffix(1), ma.suffix(1)),
            1 => {
                let l = arb_label(&mut rng);
                match a.child_bytes(&l) {
                    Ok(c) => (c, ma.child(&l)),
                    Err(_) => arb_pair(&mut rng),
                }
            }
            _ => arb_pair(&mut rng),
        };
        assert_eq!(a == b, ma == mb, "case {case}");
        assert_eq!(a.cmp(&b), ma.canonical_cmp(&mb), "case {case}: {a} {b}");
        assert_eq!(b.cmp(&a), mb.canonical_cmp(&ma), "case {case}");
        assert_eq!(a.is_subdomain_of(&b), ma.is_subdomain_of(&mb), "{a} {b}");
        assert_eq!(b.is_subdomain_of(&a), mb.is_subdomain_of(&ma), "{a} {b}");
        if a == b {
            assert_eq!(std_hash(&a), std_hash(&b), "case {case}");
            assert_eq!(a.shard_hash(), b.shard_hash(), "case {case}");
        }
    }
}

/// Equal names are equal, and hash equally, however they were made:
/// parsed, decoded, cut out of a longer name, or detached.
#[test]
fn eq_and_hash_ignore_how_a_name_was_built() {
    let parsed = Name::parse("Example.COM").unwrap();
    let cut = Name::parse("a.b.example.com").unwrap().suffix(2);
    let stepped = Name::parse("www.example.com").unwrap().parent().unwrap();
    let built = Name::parse("com").unwrap().child("EXAMPLE").unwrap();
    let detached = cut.detached();
    for other in [&cut, &stepped, &built, &detached] {
        assert_eq!(&parsed, other);
        assert_eq!(std_hash(&parsed), std_hash(other));
        assert_eq!(parsed.shard_hash(), other.shard_hash());
        assert_eq!(parsed.cmp(other), Ordering::Equal);
    }
}

/// `detached` copies: the result does not keep the name it came from
/// (or the longer name *that* was cut from) alive.
#[test]
fn detached_shares_nothing() {
    let long = Name::parse("a.b.c.example.com").unwrap();
    let cut = long.suffix(2);
    // A cut name borrows the long name's buffer: same bytes in memory.
    let long_wire = long.as_wire().as_ptr_range();
    assert!(long_wire.contains(&cut.as_wire().as_ptr()));

    let detached = cut.detached();
    assert_eq!(detached, cut);
    assert!(!long_wire.contains(&detached.as_wire().as_ptr()));
    let copy = detached.detached();
    assert_ne!(copy.as_wire().as_ptr(), detached.as_wire().as_ptr());
}

#[test]
fn decode_follows_compression_pointers() {
    let mut rng = Rng(0x000c_5eed);
    let mut pointers_followed = 0;
    for case in 0..500 {
        // A message-like buffer: several names, each compressed against
        // the ones before it, behind a random-length prefix.
        let mut buf = vec![0u8; rng.below(40) as usize];
        let mut compressor = Compressor::new();
        let mut written: Vec<(Name, Model, usize)> = Vec::new();
        for _ in 0..1 + rng.below(5) {
            // Share a suffix with the previous name now and then.
            let sibling = written
                .last()
                .filter(|_| rng.below(3) == 0)
                .and_then(|(prev, m, _)| {
                    let l = arb_label(&mut rng);
                    Some((prev.child_bytes(&l).ok()?, m.child(&l)))
                });
            let (name, model) = sibling.unwrap_or_else(|| arb_pair(&mut rng));
            let at = buf.len();
            name.encode(&mut buf, Some(&mut compressor));
            pointers_followed += usize::from(buf.len() - at < name.wire_len());
            written.push((name, model, at));
        }
        for (name, model, at) in &written {
            let mut pos = *at;
            let decoded = Name::decode(&buf, &mut pos).unwrap();
            assert_eq!(&decoded, name, "case {case}");
            assert_same(&decoded, model, case);
            assert!(pos > *at && pos <= buf.len());
        }
    }
    assert!(
        pointers_followed > 100,
        "only {pointers_followed} compressed"
    );
}

/// RFC 4034 §6.1's own example, sorted by `Ord`.
#[test]
fn canonical_order_matches_rfc4034() {
    let order = [
        "example",
        "a.example",
        "yljkjljk.a.example",
        "Z.a.example",
        "zABC.a.EXAMPLE",
        "z.example",
        "\u{1}.z.example",
        "*.z.example",
    ];
    let names: Vec<Name> = order
        .iter()
        .map(|s| Name::from_labels(s.split('.').map(str::as_bytes)).unwrap())
        .collect();
    let mut sorted = names.clone();
    sorted.reverse();
    sorted.sort();
    assert_eq!(sorted, names);
}

/// `shard_hash` picks the L2 shard and orders its CLOCK hand; reports
/// are only bit-identical across versions while it stays byte-for-byte
/// what it was. Values taken from the label-vector implementation.
#[test]
fn shard_hash_golden_values() {
    for (text, hash) in [
        (".", 0xcbf29ce484222325u64),
        ("com", 0x256a0289c74b296b),
        ("example.com", 0x95baea1edc288222),
        ("www.example.com", 0x22dd1c96a579734a),
        ("WWW.Example.COM", 0x22dd1c96a579734a),
        ("a.b.c.d.e.f", 0xa3f9313c00e3c368),
        ("xn--bcher-kva.example", 0xb2a8a4848437fa42),
        (
            "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.example",
            0x4a9e2d55e2da7558,
        ),
        ("ns1.d000123.com", 0x2e72068e846a3bb5),
    ] {
        let name = Name::parse(text).unwrap();
        assert_eq!(name.shard_hash(), hash, "{text}");
        assert_eq!(
            name.child("x").unwrap().parent().unwrap().shard_hash(),
            hash
        );
    }
}

#[test]
fn limits_are_enforced_by_every_constructor() {
    let label63 = "x".repeat(63);
    // 4 × 64 = 256 octets with the root: one too many.
    let too_long = [label63.as_str(); 4].join(".");
    assert!(Name::parse(&too_long).is_err());
    // 3 × 64 + 62 + 1 = 255: the maximum.
    let longest = format!("{}.{label63}.{label63}.{label63}", "y".repeat(61));
    let name = Name::parse(&longest).unwrap();
    assert_eq!(name.wire_len(), 255);
    assert!(name.child("z").is_err());
    assert!(name.parent().unwrap().child(&"z".repeat(64)).is_err());
    assert!(Name::from_labels([b"".as_slice()]).is_err());
    let mut pos = 0;
    assert_eq!(Name::decode(name.as_wire(), &mut pos).unwrap(), name);
    // One more label on the wire pushes it past the limit.
    let mut wire = vec![1, b'z'];
    wire.extend_from_slice(name.as_wire());
    assert!(Name::decode(&wire, &mut 0).is_err());
}
