//! Randomized tests: a freshly signed zone always validates; mutations
//! always break something observable. Cases are driven by an in-file
//! deterministic PRNG (SplitMix64), so every failure reproduces from
//! the fixed seed.

use ede_crypto::simsig;
use ede_wire::rdata::{Rdata, Soa};
use ede_wire::{Name, Record, RrType};
use ede_zone::canonical::signing_data;
use ede_zone::nsec3::{find_covering, find_matching};
use ede_zone::signer::{sign_zone, SignerConfig, SIM_NOW};
use ede_zone::{Denial, Misconfig, Nsec3Config, TypeSel, Zone, ZoneKeys};

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

    /// A hostname label: `[a-z][a-z0-9]{0,10}`.
    fn label(&mut self) -> String {
        let len = self.below(11) as usize;
        let mut s = String::with_capacity(len + 1);
        s.push((b'a' + self.below(26) as u8) as char);
        const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        for _ in 0..len {
            s.push(ALNUM[self.below(ALNUM.len() as u64) as usize] as char);
        }
        s
    }

    fn labels(&mut self, max: u64) -> Vec<String> {
        (0..self.below(max)).map(|_| self.label()).collect()
    }

    fn bytes(&mut self, lo: u64, hi: u64) -> Vec<u8> {
        let len = lo + self.below(hi - lo);
        (0..len).map(|_| self.next() as u8).collect()
    }
}

fn build_zone(apex: &Name, hosts: &[String]) -> Zone {
    let mut z = Zone::new(apex.clone());
    z.add(Record::new(
        apex.clone(),
        3600,
        Rdata::Soa(Soa {
            mname: apex.child("ns1").unwrap(),
            rname: apex.child("hostmaster").unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        }),
    ));
    z.add(Record::new(
        apex.clone(),
        3600,
        Rdata::Ns(apex.child("ns1").unwrap()),
    ));
    z.add_a(apex.child("ns1").unwrap(), "192.0.2.1".parse().unwrap());
    z.add_a(apex.clone(), "192.0.2.2".parse().unwrap());
    for h in hosts {
        if let Ok(name) = apex.child(h) {
            z.add_a(name, "192.0.2.3".parse().unwrap());
        }
    }
    z
}

/// Every signature in the zone verifies against the published ZSK/KSK.
fn zone_fully_verifies(zone: &Zone, keys: &ZoneKeys) -> bool {
    zone.iter().all(|set| {
        set.sigs.iter().all(|sig| {
            let key = if sig.key_tag == keys.ksk.key_tag() {
                &keys.ksk
            } else {
                &keys.zsk
            };
            let data = signing_data(sig, set);
            sig.inception <= SIM_NOW
                && SIM_NOW <= sig.expiration
                && simsig::verify(
                    &key.signing().public_key(),
                    sig.algorithm,
                    &data,
                    &sig.signature,
                )
                .is_ok()
        })
    })
}

#[test]
fn signed_zones_always_verify() {
    let mut rng = Rng(0x0031_5eed);
    for _ in 0..48 {
        let hosts = rng.labels(6);
        let salt = rng.bytes(0, 6);
        let iterations = rng.below(4) as u16;

        let apex = Name::parse("prop.example").unwrap();
        let mut zone = build_zone(&apex, &hosts);
        let keys = ZoneKeys::generate(&apex, 8, 2048);
        let cfg = SignerConfig {
            denial: Denial::Nsec3(Nsec3Config {
                iterations,
                salt: salt.into(),
            }),
            ..Default::default()
        };
        sign_zone(&mut zone, &keys, &cfg);
        assert!(zone_fully_verifies(&zone, &keys));
        // Every authoritative RRset except RRSIG carries at least one sig.
        for set in zone.iter() {
            if !zone.is_glue(&set.name) && !zone.is_delegation(&set.name) {
                assert!(!set.sigs.is_empty(), "{} {}", set.name, set.rtype);
            }
        }
    }
}

#[test]
fn nsec3_chain_is_sound_for_any_name() {
    let mut rng = Rng(0x0032_5eed);
    for _ in 0..48 {
        let hosts = rng.labels(6);
        let probe = rng.label();

        let apex = Name::parse("prop.example").unwrap();
        let mut zone = build_zone(&apex, &hosts);
        let keys = ZoneKeys::generate(&apex, 8, 2048);
        let cfg = SignerConfig::default();
        sign_zone(&mut zone, &keys, &cfg);
        let params = Nsec3Config::default();

        // Existing names match; their hashes are never "covered".
        for name in zone.names() {
            if zone.is_glue(name) || name.first_label().is_some_and(|l| l.len() == 32) {
                continue; // NSEC3 owners themselves / glue are not chained
            }
            assert!(find_matching(&zone, &params, name).is_some(), "{name}");
            assert!(find_covering(&zone, &params, name).is_none(), "{name}");
        }
        // A random probe either exists (matches) or is covered.
        let probe_name = apex.child(&probe).unwrap();
        let matches = find_matching(&zone, &params, &probe_name).is_some();
        let covered = find_covering(&zone, &params, &probe_name).is_some();
        assert!(
            matches ^ covered,
            "{probe_name}: matches={matches} covered={covered}"
        );
    }
}

#[test]
fn every_misconfig_changes_the_zone_or_its_ds() {
    use Misconfig::*;
    let all = [
        NoDs,
        DsBadTag,
        DsBadKeyAlgo,
        DsUnassignedKeyAlgo,
        DsReservedKeyAlgo,
        DsUnassignedDigestAlgo,
        DsBogusDigestValue,
        RrsigExpired(TypeSel::All),
        RrsigExpired(TypeSel::OnlyApexA),
        RrsigNotYetValid(TypeSel::All),
        RrsigMissing(TypeSel::All),
        RrsigExpiredBeforeValid(TypeSel::All),
        Nsec3Missing,
        BadNsec3Hash,
        BadNsec3Next,
        BadNsec3Rrsig,
        Nsec3RrsigMissing,
        Nsec3ParamMissing,
        BadNsec3ParamSalt,
        NoNsec3ParamNsec3,
        NoZsk,
        BadZsk,
        NoKsk,
        NoRrsigKsk,
        BadRrsigKsk,
        BadKsk,
        NoRrsigDnskey,
        BadRrsigDnskey,
    ];
    // Exhaustive over the whole catalogue — no sampling needed.
    for m in all {
        let apex = Name::parse("prop.example").unwrap();
        let mut zone = build_zone(&apex, &[]);
        let keys = ZoneKeys::generate(&apex, 8, 2048);
        sign_zone(&mut zone, &keys, &SignerConfig::default());
        let pristine = zone.clone();
        let correct_ds = keys.ksk.ds_rdata(&apex, ede_wire::DigestAlg::SHA256);

        m.apply(&mut zone, &keys);
        let ds = m.parent_ds(&keys.ksk, &apex);

        let zone_changed = zone != pristine;
        let ds_changed = ds != vec![correct_ds];
        // Parent-side cases alter only the DS and leave the child
        // untouched; child-side cases alter only the child and leave the
        // DS correct.
        let parent_side = matches!(
            m,
            NoDs | DsBadTag
                | DsBadKeyAlgo
                | DsUnassignedKeyAlgo
                | DsReservedKeyAlgo
                | DsUnassignedDigestAlgo
                | DsBogusDigestValue
        );
        assert_eq!(
            (zone_changed, ds_changed),
            (!parent_side, parent_side),
            "{m:?}: (zone changed, DS changed)"
        );
    }
}

#[test]
fn canonical_signing_data_is_order_invariant() {
    use ede_zone::Rrset;
    let mut rng = Rng(0x0033_5eed);
    for _ in 0..64 {
        let n = 1 + rng.below(5);
        let addrs: Vec<[u8; 4]> = (0..n)
            .map(|_| {
                let mut a = [0u8; 4];
                a.iter_mut().for_each(|b| *b = rng.next() as u8);
                a
            })
            .collect();
        let name = Name::parse("set.example").unwrap();
        let mut forward = Rrset::empty(name.clone(), RrType::A, 300);
        for a in &addrs {
            forward.push(Rdata::A((*a).into()));
        }
        let mut backward = Rrset::empty(name, RrType::A, 300);
        for a in addrs.iter().rev() {
            backward.push(Rdata::A((*a).into()));
        }
        let sig = ede_wire::rdata::Rrsig {
            type_covered: RrType::A,
            algorithm: 8,
            labels: 2,
            original_ttl: 300,
            expiration: SIM_NOW + 100,
            inception: SIM_NOW - 100,
            key_tag: 1,
            signer: Name::parse("example").unwrap(),
            signature: vec![],
        };
        assert_eq!(signing_data(&sig, &forward), signing_data(&sig, &backward));
    }
}
