//! Misconfiguration mutators — the operations of the paper's Table 3.
//!
//! Each [`Misconfig`] value reproduces one way the authors broke a
//! testbed zone. Mutations are applied *after* signing, which is exactly
//! how the original infrastructure was built (sign with `dnssec-signzone`,
//! then edit the zone file): removing or corrupting a DNSKEY therefore
//! also silently invalidates the stale RRSIG over the DNSKEY RRset, and
//! the reproduction inherits those second-order effects for free.
//!
//! Signature-window cases (`rrsig-exp-*`, `rrsig-not-yet-*`) are one
//! exception: they **re-sign** with a pathological validity window so the
//! signature bytes genuinely verify and only the window is wrong —
//! matching zones signed with forced inception/expiration times.
//!
//! The KSK-signature cases (`no-rrsig-ksk`, `bad-rrsig-ksk`) are the
//! other: the signer gives the DNSKEY RRset the KSK's signature alone,
//! and these two are defined by the ZSK's co-signature beside it (the
//! testbed's zones were signed with both keys over the DNSKEY RRset), so
//! they add it, in the KSK signature's window.

use crate::keys::{ZoneKey, ZoneKeys, FLAGS_KSK, FLAGS_ZSK};
use crate::rrset::Rrset;
use crate::signer::{self, DAY, SIM_NOW};
use crate::zone::Zone;
use ede_wire::rdata::Rrsig;
use ede_wire::{DigestAlg, Name, Rdata, RrType};

/// Which RRsets a signature-affecting mutation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeSel {
    /// Every RRset in the zone.
    All,
    /// Only the A RRset at the zone apex.
    OnlyApexA,
}

/// One Table 3 mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misconfig {
    // --- Group 2: DS records at the parent ---------------------------
    /// `no-ds`: correctly signed, but the parent publishes no DS.
    NoDs,
    /// `ds-bad-tag`: DS key tag does not match the KSK.
    DsBadTag,
    /// `ds-bad-key-algo`: DS algorithm field disagrees with the KSK.
    DsBadKeyAlgo,
    /// `ds-unassigned-key-algo`: DS algorithm value 100.
    DsUnassignedKeyAlgo,
    /// `ds-reserved-key-algo`: DS algorithm value 200.
    DsReservedKeyAlgo,
    /// `ds-unassigned-digest-algo`: DS digest type 100.
    DsUnassignedDigestAlgo,
    /// `ds-bogus-digest-value`: DS digest bytes do not match the KSK.
    DsBogusDigestValue,

    // --- Group 3: RRSIG validity -------------------------------------
    /// `rrsig-exp-all` / `rrsig-exp-a`: expired signatures.
    RrsigExpired(TypeSel),
    /// `rrsig-not-yet-all` / `rrsig-not-yet-a`: future signatures.
    RrsigNotYetValid(TypeSel),
    /// `rrsig-no-all` / `rrsig-no-a`: signatures removed.
    RrsigMissing(TypeSel),
    /// `rrsig-exp-before-all` / `rrsig-exp-before-a`: expiration earlier
    /// than inception.
    RrsigExpiredBeforeValid(TypeSel),

    // --- Group 4: NSEC3 ----------------------------------------------
    /// `nsec3-missing`: the whole NSEC3 chain removed.
    Nsec3Missing,
    /// `bad-nsec3-hash`: hashed owner names mangled.
    BadNsec3Hash,
    /// `bad-nsec3-next`: next-hashed fields mangled.
    BadNsec3Next,
    /// `bad-nsec3-rrsig`: RRSIGs over NSEC3 RRsets corrupted.
    BadNsec3Rrsig,
    /// `nsec3-rrsig-missing`: RRSIGs over NSEC3 RRsets removed.
    Nsec3RrsigMissing,
    /// `nsec3param-missing`: the apex NSEC3PARAM removed.
    Nsec3ParamMissing,
    /// `bad-nsec3param-salt`: NSEC3PARAM salt disagrees with the chain.
    BadNsec3ParamSalt,
    /// `no-nsec3param-nsec3`: both NSEC3PARAM and the chain removed.
    NoNsec3ParamNsec3,

    // --- Group 5: DNSKEY ----------------------------------------------
    /// `no-zsk`: ZSK removed from the DNSKEY RRset.
    NoZsk,
    /// `bad-zsk`: ZSK public key corrupted.
    BadZsk,
    /// `no-ksk`: KSK removed from the DNSKEY RRset.
    NoKsk,
    /// `no-rrsig-ksk`: the KSK-made RRSIG over the DNSKEY RRset removed,
    /// so the ZSK's co-signature is the set's only one.
    NoRrsigKsk,
    /// `bad-rrsig-ksk`: that RRSIG corrupted, the ZSK's co-signature
    /// valid after it.
    BadRrsigKsk,
    /// `bad-ksk`: KSK public key corrupted.
    BadKsk,
    /// `no-rrsig-dnskey`: every RRSIG over the DNSKEY RRset removed.
    NoRrsigDnskey,
    /// `bad-rrsig-dnskey`: every RRSIG over the DNSKEY RRset corrupted.
    BadRrsigDnskey,
    /// `no-dnskey-256`: the ZSK's Zone Key bit cleared.
    NoZoneKeyBitZsk,
    /// `no-dnskey-257`: the KSK's Zone Key bit cleared.
    NoZoneKeyBitKsk,
    /// `no-dnskey-256-257`: both Zone Key bits cleared.
    NoZoneKeyBitBoth,
    /// `bad-zsk-algo`: ZSK algorithm number swapped to another assigned
    /// algorithm.
    BadZskAlgo,
    /// `unassigned-zsk-algo`: ZSK algorithm number set to 100.
    UnassignedZskAlgo,
    /// `reserved-zsk-algo`: ZSK algorithm number set to 200.
    ReservedZskAlgo,
}

impl Misconfig {
    /// Apply this mutation to a signed zone.
    pub fn apply(&self, zone: &mut Zone, keys: &ZoneKeys) {
        let apex = zone.apex().clone();
        let expired = (SIM_NOW - 60 * DAY, SIM_NOW - 30 * DAY);
        let future = (SIM_NOW + 30 * DAY, SIM_NOW + 60 * DAY);
        let inverted = (SIM_NOW + 30 * DAY, SIM_NOW - 30 * DAY);

        match self {
            // DS-side cases mutate nothing in the child zone.
            Misconfig::NoDs
            | Misconfig::DsBadTag
            | Misconfig::DsBadKeyAlgo
            | Misconfig::DsUnassignedKeyAlgo
            | Misconfig::DsReservedKeyAlgo
            | Misconfig::DsUnassignedDigestAlgo
            | Misconfig::DsBogusDigestValue => {}

            Misconfig::RrsigExpired(sel) => resign_selected(zone, keys, *sel, expired),
            Misconfig::RrsigNotYetValid(sel) => resign_selected(zone, keys, *sel, future),
            Misconfig::RrsigExpiredBeforeValid(sel) => resign_selected(zone, keys, *sel, inverted),
            Misconfig::RrsigMissing(sel) => match sel {
                TypeSel::All => {
                    for set in zone.iter_mut() {
                        set.sigs.clear();
                    }
                }
                TypeSel::OnlyApexA => {
                    if let Some(set) = zone.get_mut(&apex, RrType::A) {
                        set.sigs.clear();
                    }
                }
            },

            Misconfig::Nsec3Missing => remove_nsec3_chain(zone),
            Misconfig::BadNsec3Hash => {
                // Re-own every NSEC3 RRset under a mangled hash label.
                let nsec3_names: Vec<Name> = zone
                    .iter()
                    .filter(|s| s.rtype == RrType::Nsec3)
                    .map(|s| s.name.clone())
                    .collect();
                for name in nsec3_names {
                    if let Some(mut set) = zone.remove(&name, RrType::Nsec3) {
                        let label = name
                            .first_label()
                            .map(mangle_hash_label)
                            .unwrap_or_else(|| "0000000000000000000000000000000v".into());
                        let new_owner = apex.child(&label).expect("label fits");
                        set.name = new_owner;
                        zone.add_rrset(set);
                    }
                }
            }
            Misconfig::BadNsec3Next => {
                // Point every link's next-hash at "owner + 1": the
                // resulting open intervals (H, H+1) contain no 20-byte
                // value, so no name can ever be covered — the chain is
                // deterministically broken.
                for set in zone.iter_mut() {
                    if set.rtype != RrType::Nsec3 {
                        continue;
                    }
                    let owner_hash = set
                        .name
                        .first_label()
                        .and_then(|l| std::str::from_utf8(l).ok())
                        .and_then(ede_crypto::base32::decode);
                    if let Some(mut hash) = owner_hash {
                        for b in hash.iter_mut().rev() {
                            let (v, carry) = b.overflowing_add(1);
                            *b = v;
                            if !carry {
                                break;
                            }
                        }
                        for rd in &mut set.rdatas {
                            if let Rdata::Nsec3 { next_hashed, .. } = rd {
                                *next_hashed = (&hash).into();
                            }
                        }
                    }
                }
            }
            Misconfig::BadNsec3Rrsig => {
                for set in zone.iter_mut() {
                    if set.rtype == RrType::Nsec3 {
                        corrupt_sigs(set);
                    }
                }
            }
            Misconfig::Nsec3RrsigMissing => {
                for set in zone.iter_mut() {
                    if set.rtype == RrType::Nsec3 {
                        set.sigs.clear();
                    }
                }
            }
            Misconfig::Nsec3ParamMissing => {
                zone.remove(&apex, RrType::Nsec3param);
            }
            Misconfig::BadNsec3ParamSalt => {
                if let Some(set) = zone.get_mut(&apex, RrType::Nsec3param) {
                    for rd in &mut set.rdatas {
                        if let Rdata::Nsec3param { salt, .. } = rd {
                            // A salt the chain was definitely not hashed
                            // with.
                            *salt = [0xde, 0xad, 0xbe, 0xef].into();
                        }
                    }
                }
            }
            Misconfig::NoNsec3ParamNsec3 => {
                zone.remove(&apex, RrType::Nsec3param);
                remove_nsec3_chain(zone);
            }

            Misconfig::NoZsk => remove_dnskey(zone, &apex, FLAGS_ZSK),
            Misconfig::NoKsk => remove_dnskey(zone, &apex, FLAGS_KSK),
            Misconfig::BadZsk => corrupt_dnskey(zone, &apex, FLAGS_ZSK),
            Misconfig::BadKsk => corrupt_dnskey(zone, &apex, FLAGS_KSK),
            // The signer gave the DNSKEY RRset the KSK's signature alone.
            Misconfig::NoRrsigKsk => {
                if let Some(set) = zone.get_mut(&apex, RrType::Dnskey) {
                    set.sigs = vec![zsk_co_signature(set, keys, &apex)];
                }
            }
            Misconfig::BadRrsigKsk => {
                if let Some(set) = zone.get_mut(&apex, RrType::Dnskey) {
                    let zsk_sig = zsk_co_signature(set, keys, &apex);
                    corrupt_sigs(set);
                    set.sigs.push(zsk_sig);
                }
            }
            Misconfig::NoRrsigDnskey => {
                if let Some(set) = zone.get_mut(&apex, RrType::Dnskey) {
                    set.sigs.clear();
                }
            }
            Misconfig::BadRrsigDnskey => {
                if let Some(set) = zone.get_mut(&apex, RrType::Dnskey) {
                    corrupt_sigs(set);
                }
            }
            Misconfig::NoZoneKeyBitZsk => clear_zone_key_bit(zone, &apex, FLAGS_ZSK),
            Misconfig::NoZoneKeyBitKsk => clear_zone_key_bit(zone, &apex, FLAGS_KSK),
            Misconfig::NoZoneKeyBitBoth => {
                clear_zone_key_bit(zone, &apex, FLAGS_ZSK);
                clear_zone_key_bit(zone, &apex, FLAGS_KSK);
            }
            Misconfig::BadZskAlgo => swap_zsk_algorithm(zone, &apex, 13),
            Misconfig::UnassignedZskAlgo => swap_zsk_algorithm(zone, &apex, 100),
            Misconfig::ReservedZskAlgo => swap_zsk_algorithm(zone, &apex, 200),
        }
    }

    /// Whether [`apply`](Self::apply) can change the zone's RRsets of
    /// type `rtype`: their records, their signatures or their owners.
    /// Every RRset of another type it leaves as the signer made it.
    pub fn edits(&self, rtype: RrType) -> bool {
        match self {
            Misconfig::NoDs
            | Misconfig::DsBadTag
            | Misconfig::DsBadKeyAlgo
            | Misconfig::DsUnassignedKeyAlgo
            | Misconfig::DsReservedKeyAlgo
            | Misconfig::DsUnassignedDigestAlgo
            | Misconfig::DsBogusDigestValue => false,
            Misconfig::RrsigExpired(sel)
            | Misconfig::RrsigNotYetValid(sel)
            | Misconfig::RrsigMissing(sel)
            | Misconfig::RrsigExpiredBeforeValid(sel) => *sel == TypeSel::All || rtype == RrType::A,
            Misconfig::Nsec3Missing
            | Misconfig::BadNsec3Hash
            | Misconfig::BadNsec3Next
            | Misconfig::BadNsec3Rrsig
            | Misconfig::Nsec3RrsigMissing => rtype == RrType::Nsec3,
            Misconfig::Nsec3ParamMissing | Misconfig::BadNsec3ParamSalt => {
                rtype == RrType::Nsec3param
            }
            Misconfig::NoNsec3ParamNsec3 => matches!(rtype, RrType::Nsec3 | RrType::Nsec3param),
            Misconfig::NoZsk
            | Misconfig::BadZsk
            | Misconfig::NoKsk
            | Misconfig::NoRrsigKsk
            | Misconfig::BadRrsigKsk
            | Misconfig::BadKsk
            | Misconfig::NoRrsigDnskey
            | Misconfig::BadRrsigDnskey
            | Misconfig::NoZoneKeyBitZsk
            | Misconfig::NoZoneKeyBitKsk
            | Misconfig::NoZoneKeyBitBoth
            | Misconfig::BadZskAlgo
            | Misconfig::UnassignedZskAlgo
            | Misconfig::ReservedZskAlgo => rtype == RrType::Dnskey,
        }
    }

    /// The DS RDATA(s) the parent zone should publish for a child mutated
    /// with this misconfiguration. The default (for child-side cases) is
    /// the correct SHA-256 DS of the KSK, `ksk`: all a parent reads of the
    /// child's keys.
    pub fn parent_ds(&self, ksk: &ZoneKey, child_apex: &Name) -> Vec<Rdata> {
        let correct = ksk.ds_rdata(child_apex, DigestAlg::SHA256);
        match self {
            Misconfig::NoDs => Vec::new(),
            Misconfig::DsBadTag => vec![patch_ds(correct, |tag, alg, dt, _| {
                (tag.wrapping_add(1), alg, dt, None)
            })],
            Misconfig::DsBadKeyAlgo => {
                // Algorithm field disagrees with the KSK's actual
                // algorithm but is itself a valid, assigned algorithm.
                let other = if ksk.signing().algorithm == 13 { 8 } else { 13 };
                vec![patch_ds(correct, move |tag, _, dt, _| {
                    (tag, other, dt, None)
                })]
            }
            Misconfig::DsUnassignedKeyAlgo => {
                vec![patch_ds(correct, |tag, _, dt, _| (tag, 100, dt, None))]
            }
            Misconfig::DsReservedKeyAlgo => {
                vec![patch_ds(correct, |tag, _, dt, _| (tag, 200, dt, None))]
            }
            Misconfig::DsUnassignedDigestAlgo => {
                vec![patch_ds(correct, |tag, alg, _, _| (tag, alg, 100, None))]
            }
            Misconfig::DsBogusDigestValue => vec![patch_ds(correct, |tag, alg, dt, digest| {
                let mut d = digest;
                for b in &mut d {
                    *b ^= 0xa5;
                }
                (tag, alg, dt, Some(d))
            })],
            _ => vec![correct],
        }
    }
}

/// Re-sign the selected RRsets with `window`.
fn resign_selected(zone: &mut Zone, keys: &ZoneKeys, sel: TypeSel, window: (u32, u32)) {
    match sel {
        TypeSel::All => signer::resign_all(zone, keys, window),
        TypeSel::OnlyApexA => {
            let apex = zone.apex().clone();
            signer::resign_rrset(zone, &apex, RrType::A, keys, window);
        }
    }
}

/// The ZSK's signature over the apex DNSKEY RRset `set`, in the window
/// of the signature the signer gave it (the default window if it has
/// none).
fn zsk_co_signature(set: &Rrset, keys: &ZoneKeys, apex: &Name) -> Rrsig {
    let window = set
        .sigs
        .first()
        .map_or(signer::DEFAULT_WINDOW, |s| (s.inception, s.expiration));
    signer::sign_rrset(set, &keys.zsk, apex, window)
}

/// Remove every NSEC3 RRset (the chain), leaving NSEC3PARAM alone.
fn remove_nsec3_chain(zone: &mut Zone) {
    let names: Vec<Name> = zone
        .iter()
        .filter(|s| s.rtype == RrType::Nsec3)
        .map(|s| s.name.clone())
        .collect();
    for name in names {
        zone.remove(&name, RrType::Nsec3);
    }
}

/// Flip the leading byte of every signature over `set`.
fn corrupt_sigs(set: &mut Rrset) {
    for sig in &mut set.sigs {
        if let Some(b) = sig.signature.first_mut() {
            *b ^= 0xff;
        }
    }
}

/// Remove the DNSKEY rdata with the given flags value from the apex
/// DNSKEY RRset. The stale RRSIGs over the set remain — and no longer
/// verify, exactly as post-sign zone-file editing behaves.
fn remove_dnskey(zone: &mut Zone, apex: &Name, flags: u16) {
    if let Some(set) = zone.get_mut(apex, RrType::Dnskey) {
        set.rdatas
            .retain(|rd| !matches!(rd, Rdata::Dnskey { flags: f, .. } if *f == flags));
    }
}

/// Corrupt the public key bytes of the DNSKEY with the given flags.
fn corrupt_dnskey(zone: &mut Zone, apex: &Name, flags: u16) {
    if let Some(set) = zone.get_mut(apex, RrType::Dnskey) {
        for rd in &mut set.rdatas {
            if let Rdata::Dnskey {
                flags: f,
                public_key,
                ..
            } = rd
            {
                if *f == flags {
                    for b in public_key.iter_mut().take(8) {
                        *b ^= 0x55;
                    }
                }
            }
        }
    }
}

/// Clear the Zone Key bit (0x0100) of the DNSKEY currently carrying
/// `flags`, keeping any SEP bit.
fn clear_zone_key_bit(zone: &mut Zone, apex: &Name, flags: u16) {
    if let Some(set) = zone.get_mut(apex, RrType::Dnskey) {
        for rd in &mut set.rdatas {
            if let Rdata::Dnskey { flags: f, .. } = rd {
                if *f == flags {
                    *f &= !0x0100;
                }
            }
        }
    }
}

/// Rewrite the ZSK's algorithm number in the published DNSKEY RRset.
fn swap_zsk_algorithm(zone: &mut Zone, apex: &Name, new_alg: u8) {
    if let Some(set) = zone.get_mut(apex, RrType::Dnskey) {
        for rd in &mut set.rdatas {
            if let Rdata::Dnskey {
                flags, algorithm, ..
            } = rd
            {
                if *flags == FLAGS_ZSK {
                    *algorithm = new_alg;
                }
            }
        }
    }
}

/// Rebuild a DS RDATA with patched fields.
fn patch_ds(
    ds: Rdata,
    patch: impl FnOnce(u16, u8, u8, Vec<u8>) -> (u16, u8, u8, Option<Vec<u8>>),
) -> Rdata {
    match ds {
        Rdata::Ds {
            key_tag,
            algorithm,
            digest_type,
            digest,
        } => {
            let (tag, alg, dt, new_digest) = patch(key_tag, algorithm, digest_type, digest.clone());
            Rdata::Ds {
                key_tag: tag,
                algorithm: alg,
                digest_type: dt,
                digest: new_digest.unwrap_or(digest),
            }
        }
        other => other,
    }
}

/// Mangle a base32hex hash label while keeping it a valid label.
fn mangle_hash_label(label: &[u8]) -> String {
    let mut out: Vec<u8> = label.to_vec();
    for b in out.iter_mut() {
        *b = match *b {
            b'0'..=b'8' => *b + 1,
            b'9' => b'a',
            b'a'..=b'u' => *b + 1,
            _ => b'0',
        };
    }
    String::from_utf8(out).expect("ascii stays ascii")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signer::{sign_zone, SignerConfig};
    use ede_wire::rdata::Soa;
    use ede_wire::Record;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn signed_zone() -> (Zone, ZoneKeys) {
        let apex = n("case.example.com");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            3600,
            Rdata::Soa(Soa {
                mname: n("ns1.case.example.com"),
                rname: n("hostmaster.case.example.com"),
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
            Rdata::Ns(n("ns1.case.example.com")),
        ));
        z.add_a(n("ns1.case.example.com"), "192.0.2.10".parse().unwrap());
        z.add_a(apex.clone(), "192.0.2.11".parse().unwrap());
        let keys = ZoneKeys::generate(&apex, 8, 2048);
        sign_zone(&mut z, &keys, &SignerConfig::default());
        (z, keys)
    }

    /// Every RRset of a type [`Misconfig::edits`] rules out comes out of
    /// [`Misconfig::apply`] as the signer made it, and every mutation
    /// but the seven DS-side ones, listed first, changes a type it names.
    #[test]
    fn a_mutation_changes_only_the_types_it_edits() {
        use Misconfig::*;
        let every = [
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
            RrsigNotYetValid(TypeSel::OnlyApexA),
            RrsigMissing(TypeSel::All),
            RrsigMissing(TypeSel::OnlyApexA),
            RrsigExpiredBeforeValid(TypeSel::All),
            RrsigExpiredBeforeValid(TypeSel::OnlyApexA),
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
            NoZoneKeyBitZsk,
            NoZoneKeyBitKsk,
            NoZoneKeyBitBoth,
            BadZskAlgo,
            UnassignedZskAlgo,
            ReservedZskAlgo,
        ];
        let (signed, keys) = signed_zone();
        for m in every {
            let mut mutated = signed.clone();
            m.apply(&mut mutated, &keys);
            let kept = |z: &Zone, edited: bool| -> Vec<Rrset> {
                z.iter()
                    .filter(|s| m.edits(s.rtype) == edited)
                    .cloned()
                    .collect()
            };
            assert_eq!(kept(&mutated, false), kept(&signed, false), "{m:?}");
            let child_side = every[7..].contains(&m);
            assert_eq!(
                kept(&mutated, true) != kept(&signed, true),
                child_side,
                "{m:?}"
            );
        }
    }

    #[test]
    fn rrsig_expired_only_a() {
        let (mut z, keys) = signed_zone();
        Misconfig::RrsigExpired(TypeSel::OnlyApexA).apply(&mut z, &keys);
        let apex = n("case.example.com");
        let a = z.get(&apex, RrType::A).unwrap();
        assert!(a.sigs[0].expiration < SIM_NOW);
        // SOA untouched.
        let soa = z.get(&apex, RrType::Soa).unwrap();
        assert!(soa.sigs[0].expiration > SIM_NOW);
    }

    #[test]
    fn rrsig_exp_before_valid_inverts_window() {
        let (mut z, keys) = signed_zone();
        Misconfig::RrsigExpiredBeforeValid(TypeSel::All).apply(&mut z, &keys);
        let a = z.get(&n("case.example.com"), RrType::A).unwrap();
        assert!(a.sigs[0].expiration < a.sigs[0].inception);
    }

    #[test]
    fn rrsig_missing_clears_sigs() {
        let (mut z, keys) = signed_zone();
        Misconfig::RrsigMissing(TypeSel::All).apply(&mut z, &keys);
        assert!(z.iter().all(|s| s.sigs.is_empty()));
    }

    #[test]
    fn nsec3_chain_removal() {
        let (mut z, keys) = signed_zone();
        assert!(z.iter().any(|s| s.rtype == RrType::Nsec3));
        Misconfig::Nsec3Missing.apply(&mut z, &keys);
        assert!(!z.iter().any(|s| s.rtype == RrType::Nsec3));
        // NSEC3PARAM stays.
        assert!(z.get(&n("case.example.com"), RrType::Nsec3param).is_some());
    }

    #[test]
    fn bad_nsec3_hash_moves_owners() {
        let (mut z, keys) = signed_zone();
        let before: Vec<Name> = z
            .iter()
            .filter(|s| s.rtype == RrType::Nsec3)
            .map(|s| s.name.clone())
            .collect();
        Misconfig::BadNsec3Hash.apply(&mut z, &keys);
        let after: Vec<Name> = z
            .iter()
            .filter(|s| s.rtype == RrType::Nsec3)
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(before.len(), after.len());
        for name in &after {
            assert!(!before.contains(name), "owner {name} should have moved");
        }
    }

    #[test]
    fn no_zsk_removes_only_zsk() {
        let (mut z, keys) = signed_zone();
        Misconfig::NoZsk.apply(&mut z, &keys);
        let dnskey = z.get(&n("case.example.com"), RrType::Dnskey).unwrap();
        assert_eq!(dnskey.rdatas.len(), 1);
        match &dnskey.rdatas[0] {
            Rdata::Dnskey { flags, .. } => assert_eq!(*flags, FLAGS_KSK),
            _ => unreachable!(),
        }
        // The stale KSK signature is still attached (and now invalid).
        assert!(!dnskey.sigs.is_empty());
    }

    /// Whether `key` verifies `sig` over `set`.
    fn verifies(key: &ZoneKey, sig: &Rrsig, set: &Rrset) -> bool {
        let data = crate::canonical::signing_data(sig, set);
        let public = key.signing().public_key();
        ede_crypto::simsig::verify(&public, sig.algorithm, &data, &sig.signature).is_ok()
    }

    /// The two cases the ZSK's co-signature defines: `no-rrsig-ksk`
    /// leaves exactly that signature over the DNSKEY RRset, and
    /// `bad-rrsig-ksk` a corrupted KSK signature followed by a valid ZSK
    /// one, both in the zone's signing window.
    #[test]
    fn the_ksk_signature_cases_leave_the_zsks_co_signature() {
        let apex = n("case.example.com");
        let (mut z, keys) = signed_zone();
        Misconfig::NoRrsigKsk.apply(&mut z, &keys);
        let dnskey = z.get(&apex, RrType::Dnskey).unwrap();
        assert_eq!(dnskey.sigs.len(), 1);
        let zsk_sig = &dnskey.sigs[0];
        assert_eq!(zsk_sig.key_tag, keys.zsk.key_tag());
        assert!(verifies(&keys.zsk, zsk_sig, dnskey));
        let window = SignerConfig::default().window();
        assert_eq!((zsk_sig.inception, zsk_sig.expiration), window);

        let (mut z, keys) = signed_zone();
        Misconfig::BadRrsigKsk.apply(&mut z, &keys);
        let dnskey = z.get(&apex, RrType::Dnskey).unwrap();
        let tags: Vec<u16> = dnskey.sigs.iter().map(|s| s.key_tag).collect();
        assert_eq!(tags, [keys.ksk.key_tag(), keys.zsk.key_tag()]);
        assert!(!verifies(&keys.ksk, &dnskey.sigs[0], dnskey));
        assert!(verifies(&keys.zsk, &dnskey.sigs[1], dnskey));
        assert_eq!(dnskey.sigs[1], *zsk_sig);
    }

    #[test]
    fn zone_key_bit_clearing_changes_tag() {
        let (mut z, keys) = signed_zone();
        Misconfig::NoZoneKeyBitKsk.apply(&mut z, &keys);
        let dnskey = z.get(&n("case.example.com"), RrType::Dnskey).unwrap();
        let patched = dnskey
            .rdatas
            .iter()
            .find_map(|rd| match rd {
                Rdata::Dnskey { flags, .. } if *flags & 0x0100 == 0 => Some(*flags),
                _ => None,
            })
            .expect("one key lost its zone bit");
        assert_eq!(patched, 1); // SEP bit survives
    }

    #[test]
    fn ds_policies() {
        let (_z, keys) = signed_zone();
        let apex = n("case.example.com");
        let correct_tag = keys.ksk.key_tag();

        assert!(Misconfig::NoDs.parent_ds(&keys.ksk, &apex).is_empty());

        match &Misconfig::DsBadTag.parent_ds(&keys.ksk, &apex)[0] {
            Rdata::Ds { key_tag, .. } => assert_ne!(*key_tag, correct_tag),
            _ => unreachable!(),
        }
        match &Misconfig::DsUnassignedKeyAlgo.parent_ds(&keys.ksk, &apex)[0] {
            Rdata::Ds { algorithm, .. } => assert_eq!(*algorithm, 100),
            _ => unreachable!(),
        }
        match &Misconfig::DsReservedKeyAlgo.parent_ds(&keys.ksk, &apex)[0] {
            Rdata::Ds { algorithm, .. } => assert_eq!(*algorithm, 200),
            _ => unreachable!(),
        }
        match &Misconfig::DsUnassignedDigestAlgo.parent_ds(&keys.ksk, &apex)[0] {
            Rdata::Ds { digest_type, .. } => assert_eq!(*digest_type, 100),
            _ => unreachable!(),
        }
        // Child-side misconfigs publish the correct DS.
        match &Misconfig::NoZsk.parent_ds(&keys.ksk, &apex)[0] {
            Rdata::Ds {
                key_tag,
                algorithm,
                digest_type,
                ..
            } => {
                assert_eq!(*key_tag, correct_tag);
                assert_eq!(*algorithm, 8);
                assert_eq!(*digest_type, 2);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn bogus_digest_differs_from_correct() {
        let (_z, keys) = signed_zone();
        let apex = n("case.example.com");
        let correct = keys.ksk.ds_rdata(&apex, DigestAlg::SHA256);
        let bogus = &Misconfig::DsBogusDigestValue.parent_ds(&keys.ksk, &apex)[0];
        match (correct, bogus) {
            (Rdata::Ds { digest: a, .. }, Rdata::Ds { digest: b, .. }) => assert_ne!(&a, b),
            _ => unreachable!(),
        }
    }

    #[test]
    fn mangled_label_is_valid_base32_alphabet() {
        let label = b"0p9mhaveqvm6t7vbl5lop2u3t2rp3tom";
        let mangled = mangle_hash_label(label);
        assert_eq!(mangled.len(), label.len());
        assert_ne!(mangled.as_bytes(), label);
        assert!(mangled.bytes().all(|b| b.is_ascii_alphanumeric()));
    }
}
