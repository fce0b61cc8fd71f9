//! `TypeBitmap` against a `BTreeSet<u16>` reference model.
//!
//! `TypeBitmap` keeps window 0 as an inline bit array and spills the
//! types from 256 up into a sorted vector. The model here is the obvious
//! representation — an ordered set of type numbers — with the RFC 4034
//! §4.1.2 encoding written the slow, plain way; the properties hold the
//! two against each other on seeded random sets (SplitMix64, so every
//! failure reproduces) that lean on the window edges.

use ede_wire::rdata::TypeBitmap;
use ede_wire::RrType;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
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

/// Where the representation changes: the ends of window 0, of a middle
/// window and of the last one, and the types a zone actually signs.
const EDGES: [u16; 18] = [
    0, 1, 2, 6, 7, 8, 46, 47, 50, 254, 255, 256, 257, 511, 512, 65279, 65280, 65535,
];

fn arb_type(rng: &mut Rng) -> u16 {
    match rng.below(4) {
        0 => EDGES[rng.below(EDGES.len() as u64) as usize],
        1 => rng.below(256) as u16,
        2 => 256 + rng.below(1024) as u16,
        _ => rng.next() as u16,
    }
}

/// A set of up to 12 types, as the insertion sequence that makes it
/// (duplicates and all).
fn arb_insertions(rng: &mut Rng) -> Vec<u16> {
    (0..rng.below(13)).map(|_| arb_type(rng)).collect()
}

fn build(insertions: &[u16]) -> (TypeBitmap, BTreeSet<u16>) {
    let mut bm = TypeBitmap::new();
    let mut model = BTreeSet::new();
    for &t in insertions {
        bm.insert(RrType::from_u16(t));
        model.insert(t);
    }
    (bm, model)
}

/// RFC 4034 §4.1.2, plainly: for each window that holds a type, in
/// ascending order, `window ‖ length ‖ bitmap` with the bitmap cut after
/// its last non-zero octet.
fn model_encode(model: &BTreeSet<u16>) -> Vec<u8> {
    let mut out = Vec::new();
    for window in 0..=255u16 {
        let mut bitmap = [0u8; 32];
        for &t in model.iter().filter(|&&t| t >> 8 == window) {
            let low = usize::from(t & 0xFF);
            bitmap[low / 8] |= 0x80 >> (low % 8);
        }
        if let Some(last) = bitmap.iter().rposition(|&b| b != 0) {
            out.push(window as u8);
            out.push(last as u8 + 1);
            out.extend_from_slice(&bitmap[..=last]);
        }
    }
    out
}

fn encode(bm: &TypeBitmap) -> Vec<u8> {
    let mut out = Vec::new();
    bm.encode(&mut out);
    out
}

fn hash_of(bm: &TypeBitmap) -> u64 {
    let mut h = DefaultHasher::new();
    bm.hash(&mut h);
    h.finish()
}

#[test]
fn insert_contains_and_iteration_follow_the_model() {
    let mut rng = Rng(0x0b17_0001);
    for case in 0..2048 {
        let insertions = arb_insertions(&mut rng);
        let (bm, model) = build(&insertions);
        assert_eq!(bm.is_empty(), model.is_empty(), "case {case}");
        let listed: Vec<u16> = bm.iter().map(RrType::to_u16).collect();
        let expected: Vec<u16> = model.iter().copied().collect();
        assert_eq!(listed, expected, "case {case}: {insertions:?}");
        for probe in EDGES.into_iter().chain((0..8).map(|_| arb_type(&mut rng))) {
            assert_eq!(
                bm.contains(RrType::from_u16(probe)),
                model.contains(&probe),
                "case {case}: {probe} in {insertions:?}"
            );
        }
        assert_eq!(
            TypeBitmap::from_types(insertions.iter().map(|&t| RrType::from_u16(t))),
            bm
        );
    }
}

#[test]
fn equality_and_hash_are_those_of_the_set() {
    let mut rng = Rng(0x0b17_0002);
    for case in 0..1024 {
        let insertions = arb_insertions(&mut rng);
        let (bm, model) = build(&insertions);
        // The same set, inserted in another order.
        let mut shuffled = insertions.clone();
        shuffled.reverse();
        shuffled.extend(insertions.iter().take(3));
        let (again, _) = build(&shuffled);
        assert_eq!(bm, again, "case {case}");
        assert_eq!(hash_of(&bm), hash_of(&again), "case {case}");
        // Another set.
        let (other, other_model) = build(&arb_insertions(&mut rng));
        assert_eq!(bm == other, model == other_model, "case {case}");
        // One type more.
        let extra = arb_type(&mut rng);
        let mut grown = bm.clone();
        grown.insert(RrType::from_u16(extra));
        assert_eq!(grown == bm, model.contains(&extra), "case {case}");
    }
}

#[test]
fn encoding_is_the_models_byte_for_byte_and_round_trips() {
    let mut rng = Rng(0x0b17_0003);
    for case in 0..2048 {
        let insertions = arb_insertions(&mut rng);
        let (bm, model) = build(&insertions);
        let wire = encode(&bm);
        assert_eq!(wire, model_encode(&model), "case {case}: {insertions:?}");
        let decoded = TypeBitmap::decode(&wire).unwrap();
        assert_eq!(decoded, bm, "case {case}");
        assert_eq!(hash_of(&decoded), hash_of(&bm), "case {case}");
        assert_eq!(encode(&decoded), wire, "case {case}");
    }
}

#[test]
fn window_edges_encode_as_the_rfc_lays_them_out() {
    let of = |types: &[u16]| encode(&build(types).0);
    assert_eq!(of(&[]), [] as [u8; 0]);
    assert_eq!(of(&[0]), [0, 1, 0x80]);
    assert_eq!(of(&[7, 8]), [0, 2, 0x01, 0x80]);
    let mut window0_last = vec![0, 32];
    window0_last.extend([0u8; 31]);
    window0_last.push(0x01);
    assert_eq!(of(&[255]), window0_last);
    assert_eq!(of(&[256]), [1, 1, 0x80]);
    let mut last_of_all = vec![255, 32];
    last_of_all.extend([0u8; 31]);
    last_of_all.push(0x01);
    assert_eq!(of(&[65535]), last_of_all);
    assert_eq!(of(&[256, 255]), [&window0_last[..], &[1, 1, 0x80]].concat());
    assert_eq!(
        of(&[65535, 0, 65280]),
        [&[0, 1, 0x80][..], &[255, 32, 0x80], &[0u8; 30], &[0x01]].concat()
    );
}

/// Whatever the decoder accepts is the one encoding of its set: nothing
/// decodes to a bitmap that re-encodes to other bytes (the bytes an
/// RRSIG was computed over).
#[test]
fn whatever_decodes_reencodes_to_the_bytes_it_came_from() {
    let mut rng = Rng(0x0b17_0004);
    let mut accepted = 0;
    for case in 0..4096 {
        let (bm, _) = build(&arb_insertions(&mut rng));
        let mut wire = encode(&bm);
        // Damage it: flip bits, or splice in a second encoding.
        match rng.below(3) {
            0 if !wire.is_empty() => {
                for _ in 0..=rng.below(2) {
                    let at = rng.below(wire.len() as u64) as usize;
                    wire[at] ^= 1 << rng.below(8);
                }
            }
            1 => wire.extend(encode(&build(&arb_insertions(&mut rng)).0)),
            _ => {}
        }
        if let Ok(decoded) = TypeBitmap::decode(&wire) {
            accepted += 1;
            assert_eq!(encode(&decoded), wire, "case {case}");
        }
    }
    assert!(
        accepted > 1000,
        "only {accepted} damaged inputs still decoded"
    );
}
