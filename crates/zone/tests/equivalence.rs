//! The signer's and validator's heap-free paths against the plain
//! definitions they replace: signing data written into a reused buffer
//! (and read out of a message section in place) against the RFC 4034
//! §6 construction, key tags taken from a key's fields against Appendix
//! B over the written RDATA, and DS digests streamed from a key's fields
//! against the digest of the written `owner ‖ RDATA`. Cases come from an
//! in-file SplitMix64 stream, so every failure reproduces from its seed.

use ede_crypto::keytag;
use ede_wire::rdata::{Rrsig, TypeBitmap};
use ede_wire::{DigestAlg, Name, Rdata, Record, RrType};
use ede_zone::canonical::{ds_digest, ds_digest_of, signing_data, with_signing_data, DnskeyFields};
use ede_zone::rrset::{sets_in, RrsetRef};
use ede_zone::{Rrset, ZoneKey, ZoneKeys};

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

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// `lo` plus up to `spread - 1` random octets.
    fn some_bytes(&mut self, lo: u64, spread: u64) -> Vec<u8> {
        let len = lo + self.below(spread);
        self.bytes(len as usize)
    }
}

/// A random RDATA of `rtype` whose variable part starts with `prefix`,
/// so that records of one set often share their leading octets and the
/// canonical sort has to look past them.
fn rdata(rng: &mut Rng, rtype: RrType, prefix: &[u8]) -> Rdata {
    let mut tail = prefix.to_vec();
    tail.extend(rng.some_bytes(0, 4));
    match rtype {
        RrType::A => {
            Rdata::A([prefix[0], prefix[1], tail[tail.len() - 1], rng.next() as u8].into())
        }
        RrType::Dnskey => Rdata::Dnskey {
            flags: [256, 257][rng.below(2) as usize],
            protocol: 3,
            algorithm: 8,
            public_key: tail,
        },
        RrType::Ds => Rdata::Ds {
            key_tag: u16::from_be_bytes([prefix[0], prefix[1]]),
            algorithm: 8,
            digest_type: 2,
            digest: tail,
        },
        _ => Rdata::Nsec3 {
            hash_alg: 1,
            flags: 0,
            iterations: 0,
            salt: prefix[..2].to_vec().into(),
            next_hashed: tail.into(),
            types: TypeBitmap::from_types(
                [RrType::Ns, RrType::Ds][..1 + rng.below(2) as usize]
                    .iter()
                    .copied(),
            ),
        },
    }
}

/// An RRset of 1–12 records of one of the four types, with an RRSIG
/// whose original TTL differs from the set's TTL half the time.
fn random_case(rng: &mut Rng) -> (Rrset, Rrsig) {
    let rtype = [RrType::A, RrType::Dnskey, RrType::Ds, RrType::Nsec3][rng.below(4) as usize];
    let owner =
        Name::parse(["set.example", "a.b.example", "example"][rng.below(3) as usize]).unwrap();
    let ttl = [60, 300, 3600][rng.below(3) as usize];
    let prefix = rng.some_bytes(2, 6);
    let mut set = Rrset::empty(owner.clone(), rtype, ttl);
    for _ in 0..1 + rng.below(12) {
        let rd = rdata(rng, rtype, &prefix);
        set.push(rd);
    }
    let sig = Rrsig {
        type_covered: rtype,
        algorithm: 8,
        labels: owner.label_count() as u8,
        original_ttl: if rng.below(2) == 0 {
            ttl
        } else {
            ttl + 1 + rng.below(1000) as u32
        },
        expiration: 1_700_000_000,
        inception: 1_690_000_000,
        key_tag: rng.next() as u16,
        signer: Name::parse("example").unwrap(),
        signature: Vec::new(),
    };
    (set, sig)
}

#[test]
fn the_reused_buffer_writes_the_rfc_signing_data() {
    let mut rng = Rng(0x5160_da7a);
    for case in 0..400 {
        let (set, sig) = random_case(&mut rng);
        let expect = signing_data(&sig, &set);
        let written = with_signing_data(&sig, RrsetRef::from(&set), <[u8]>::to_vec);
        assert_eq!(
            written,
            expect,
            "case {case}: {} x{}",
            set.rtype,
            set.rdatas.len()
        );

        // The same set read out of a section: its records, its RRSIG,
        // and another set's record somewhere among them.
        let mut records: Vec<Record> = set.records().collect();
        let signed = Rrset {
            sigs: vec![sig.clone()],
            ..set.clone()
        };
        records.extend(signed.sig_records());
        records.insert(
            rng.below(records.len() as u64 + 1) as usize,
            Record::new(
                Name::parse("other.example").unwrap(),
                60,
                Rdata::A([192, 0, 2, 1].into()),
            ),
        );
        let sets: Vec<RrsetRef<'_>> = sets_in(&records).collect();
        let read = sets
            .iter()
            .find(|s| s.name() == &set.name)
            .expect("the set");
        assert_eq!(read.sigs().count(), 1);
        let from_section = with_signing_data(&sig, *read, <[u8]>::to_vec);
        assert_eq!(from_section, expect, "case {case} from a section");
    }
}

/// Every (algorithm, key bits) pair a key is derived with: the testbed's
/// children (RSASHA256, ED448, RSAMD5, DSA at 2048 bits) and its parents,
/// the scan rows (RSASHA256 2048, GOST 2048, DSA 1024, RSASHA1 512) and
/// the stand-by keys (RSASHA256 2048) — and odd lengths besides: 257
/// octets, a key shorter than its header and secret, and RSAMD5 at both.
const KEY_SHAPES: [(u8, u16); 11] = [
    (8, 2048),
    (16, 2048),
    (1, 2048),
    (3, 2048),
    (12, 2048),
    (3, 1024),
    (5, 512),
    (8, 2056),
    (13, 100),
    (1, 2056),
    (1, 100),
];

#[test]
fn key_tags_are_appendix_b_over_the_written_rdata() {
    for (algorithm, key_bits) in KEY_SHAPES {
        for apex in ["example", "a.example", "xn--p1ai", "."] {
            let apex = Name::parse(apex).unwrap();
            let keys = ZoneKeys::generate(&apex, algorithm, key_bits);
            let standby = ZoneKey::generate(&apex, "standby", algorithm, key_bits, 257);
            for key in [&keys.ksk, &keys.zsk, &standby] {
                let rdata = key.dnskey_rdata();
                let mut wire = Vec::new();
                rdata.encode(&mut wire, None);
                let expect = keytag::key_tag(&wire);
                assert_eq!(key.key_tag(), expect, "{algorithm}/{key_bits} at {apex}");
                let fields = DnskeyFields::of(&rdata).expect("a DNSKEY");
                assert_eq!(
                    fields.key_tag(),
                    expect,
                    "{algorithm}/{key_bits} from fields"
                );
            }
        }
    }
}

#[test]
fn streamed_ds_digests_are_those_of_the_written_input() {
    let mut rng = Rng(0xd5d1_9e57);
    for (algorithm, key_bits) in KEY_SHAPES {
        let owner = Name::parse("child.example").unwrap();
        let keys = ZoneKeys::generate(&owner, algorithm, key_bits);
        for digest_type in [1, 2, 3, 4, 8].map(DigestAlg) {
            let rdata = keys.ksk.dnskey_rdata();
            let Rdata::Ds { digest, .. } = keys.ksk.ds_rdata(&owner, digest_type) else {
                unreachable!()
            };
            assert_eq!(digest, ds_digest(&owner, &rdata, digest_type));
        }
    }
    // Keys that were never derived: any length, any octets.
    for _ in 0..64 {
        let rdata = Rdata::Dnskey {
            flags: 257,
            protocol: 3,
            algorithm: rng.next() as u8,
            public_key: rng.some_bytes(0, 300),
        };
        let fields = DnskeyFields::of(&rdata).expect("a DNSKEY");
        for digest_type in [1, 2, 3, 4, 8].map(DigestAlg) {
            let owner = Name::parse("x.example").unwrap();
            assert_eq!(
                &ds_digest_of(&owner, &fields, digest_type)[..],
                &ds_digest(&owner, &rdata, digest_type)[..]
            );
        }
    }
}
