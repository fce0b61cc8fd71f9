//! Whole-zone DNSSEC signing.

use crate::canonical::signing_data;
use crate::keys::{ZoneKey, ZoneKeys};
use crate::nsec;
use crate::nsec3::{self, Nsec3Config};
use crate::rrset::Rrset;
use crate::zone::Zone;
use ede_wire::rdata::Rrsig;
use ede_wire::{Name, RrType, SecAlg};

/// The simulation's "now": 2023-05-15 00:00:00 UTC, the month of the
/// paper's measurement. All validity windows and cache decisions are
/// expressed relative to this instant.
pub const SIM_NOW: u32 = 1_684_108_800;

/// One day in seconds.
pub const DAY: u32 = 86_400;

/// The default RRSIG validity window, as (inception, expiration): thirty
/// days either side of [`SIM_NOW`].
pub const DEFAULT_WINDOW: (u32, u32) = (SIM_NOW - 30 * DAY, SIM_NOW + 30 * DAY);

/// Which authenticated-denial chain a zone is signed with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Denial {
    /// Hashed denial (RFC 5155) with the given parameters — the modern
    /// default and what the paper's testbed uses.
    Nsec3(Nsec3Config),
    /// Plain NSEC (RFC 4034 §4).
    Nsec,
    /// No denial chain at all (only deliberately broken zones).
    None,
}

/// Zone-signing parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignerConfig {
    /// DNSSEC algorithm for both keys.
    pub algorithm: SecAlg,
    /// Modeled key size in bits.
    pub key_bits: u16,
    /// RRSIG inception (epoch seconds).
    pub inception: u32,
    /// RRSIG expiration (epoch seconds).
    pub expiration: u32,
    /// Authenticated-denial chain to build.
    pub denial: Denial,
}

impl Default for SignerConfig {
    fn default() -> Self {
        SignerConfig {
            algorithm: SecAlg::RSASHA256,
            key_bits: 2048,
            inception: DEFAULT_WINDOW.0,
            expiration: DEFAULT_WINDOW.1,
            denial: Denial::Nsec3(Nsec3Config::default()),
        }
    }
}

impl SignerConfig {
    /// The configured validity window as (inception, expiration).
    pub fn window(&self) -> (u32, u32) {
        (self.inception, self.expiration)
    }
}

/// Produce one RRSIG over `rrset` with `key`, valid in `window`.
pub fn sign_rrset(rrset: &Rrset, key: &ZoneKey, zone_apex: &Name, window: (u32, u32)) -> Rrsig {
    let mut sig = Rrsig {
        type_covered: rrset.rtype,
        algorithm: key.signing().algorithm,
        labels: rrset.name.label_count() as u8,
        original_ttl: rrset.ttl,
        inception: window.0,
        expiration: window.1,
        key_tag: key.key_tag(),
        signer: zone_apex.clone(),
        signature: Vec::new(),
    };
    let data = signing_data(&sig, rrset);
    sig.signature = key.signing().sign(&data);
    sig
}

/// Sign `zone` in place:
///
/// 1. publish the DNSKEY RRset (ZSK + KSK) at the apex;
/// 2. build the NSEC3 chain (when configured) so it gets signed too;
/// 3. sign every authoritative RRset — the DNSKEY RRset with **both**
///    keys (KSK establishes the chain of trust, ZSK co-signs so the
///    `no-rrsig-ksk` mutation leaves a non-KSK signature behind, as in
///    the paper's testbed), everything else with the ZSK.
///
/// Delegation NS sets and glue are left unsigned (they are not
/// authoritative, RFC 4035 §2.2).
pub fn sign_zone(zone: &mut Zone, keys: &ZoneKeys, config: &SignerConfig) {
    let apex = zone.apex().clone();

    // 1. DNSKEY RRset.
    zone.add_rrset(keys.dnskey_rrset(&apex));

    // 2. Denial chain.
    match &config.denial {
        Denial::Nsec3(nsec3_cfg) => nsec3::build_chain(zone, nsec3_cfg),
        Denial::Nsec => nsec::build_chain(zone),
        Denial::None => {}
    }

    // 3. Signatures.
    resign_all(zone, keys, config.window());
}

/// (Re-)generate every RRSIG in the zone with the given window, replacing
/// existing signatures. Used both by [`sign_zone`] and by mutations that
/// need genuinely-verifying signatures with pathological windows.
pub fn resign_all(zone: &mut Zone, keys: &ZoneKeys, window: (u32, u32)) {
    // Collect keys of rrsets to sign first (cannot mutate while iterating).
    let targets: Vec<(Name, RrType)> = zone
        .iter()
        .filter(|set| {
            if set.rtype == RrType::Rrsig {
                return false;
            }
            if zone.is_delegation(&set.name) {
                // At a zone cut only the DS RRset is authoritative
                // parent-side data (RFC 4035 §2.2); NS and glue stay
                // unsigned.
                return set.rtype == RrType::Ds;
            }
            !zone.is_glue(&set.name)
        })
        .map(|set| (set.name.clone(), set.rtype))
        .collect();

    for (name, rtype) in targets {
        resign_rrset(zone, &name, rtype, keys, window);
    }
}

/// Replace the signatures over one RRset, signing with the role-appropriate
/// key(s) and the given validity window.
pub fn resign_rrset(
    zone: &mut Zone,
    name: &Name,
    rtype: RrType,
    keys: &ZoneKeys,
    window: (u32, u32),
) {
    let apex = zone.apex().clone();
    if let Some(set) = zone.get_mut(name, rtype) {
        sign_in_place(set, keys, &apex, window);
    }
}

/// Replace `set`'s signatures as a zone at `apex` would: the apex DNSKEY
/// RRset with both keys, anything else with the ZSK.
pub fn sign_in_place(set: &mut Rrset, keys: &ZoneKeys, apex: &Name, window: (u32, u32)) {
    set.sigs.clear();
    let sigs = if set.rtype == RrType::Dnskey && set.name == *apex {
        vec![
            sign_rrset(set, &keys.ksk, apex, window),
            sign_rrset(set, &keys.zsk, apex, window),
        ]
    } else {
        vec![sign_rrset(set, &keys.zsk, apex, window)]
    };
    set.sigs = sigs;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_crypto::simsig;
    use ede_wire::rdata::Soa;
    use ede_wire::{Rdata, Record};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn build_and_sign() -> (Zone, ZoneKeys, SignerConfig) {
        let apex = n("example.com");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            3600,
            Rdata::Soa(Soa {
                mname: n("ns1.example.com"),
                rname: n("hostmaster.example.com"),
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
            Rdata::Ns(n("ns1.example.com")),
        ));
        z.add_a(n("ns1.example.com"), "192.0.2.53".parse().unwrap());
        z.add_a(apex.clone(), "192.0.2.80".parse().unwrap());
        let keys = ZoneKeys::generate(&apex, 8, 2048);
        let cfg = SignerConfig::default();
        sign_zone(&mut z, &keys, &cfg);
        (z, keys, cfg)
    }

    #[test]
    fn every_authoritative_rrset_is_signed() {
        let (z, _, _) = build_and_sign();
        for set in z.iter() {
            if set.rtype == RrType::Nsec3param && set.name == *z.apex() {
                assert!(!set.sigs.is_empty(), "NSEC3PARAM must be signed");
            }
            if z.is_glue(&set.name) || z.is_delegation(&set.name) {
                assert!(set.sigs.is_empty(), "glue must stay unsigned: {}", set.name);
            } else {
                assert!(
                    !set.sigs.is_empty(),
                    "unsigned rrset: {} {}",
                    set.name,
                    set.rtype
                );
            }
        }
    }

    #[test]
    fn dnskey_rrset_signed_by_both_keys() {
        let (z, keys, _) = build_and_sign();
        let dnskey = z.get(&n("example.com"), RrType::Dnskey).unwrap();
        assert_eq!(dnskey.sigs.len(), 2);
        let tags: Vec<u16> = dnskey.sigs.iter().map(|s| s.key_tag).collect();
        assert!(tags.contains(&keys.ksk.key_tag()));
        assert!(tags.contains(&keys.zsk.key_tag()));
    }

    #[test]
    fn signatures_verify_against_published_keys() {
        let (z, keys, _) = build_and_sign();
        let a_set = z.get(&n("example.com"), RrType::A).unwrap();
        let sig = &a_set.sigs[0];
        assert_eq!(sig.key_tag, keys.zsk.key_tag());
        let data = signing_data(sig, a_set);
        assert_eq!(
            simsig::verify(
                &keys.zsk.signing().public_key(),
                sig.algorithm,
                &data,
                &sig.signature
            ),
            Ok(())
        );
    }

    #[test]
    fn tampering_with_rdata_breaks_signature() {
        let (mut z, keys, _) = build_and_sign();
        let set = z.get_mut(&n("example.com"), RrType::A).unwrap();
        set.rdatas[0] = Rdata::A("203.0.113.66".parse().unwrap());
        let set = z.get(&n("example.com"), RrType::A).unwrap();
        let sig = &set.sigs[0];
        let data = signing_data(sig, set);
        assert!(simsig::verify(
            &keys.zsk.signing().public_key(),
            sig.algorithm,
            &data,
            &sig.signature
        )
        .is_err());
    }

    #[test]
    fn resign_with_past_window_still_verifies() {
        let (mut z, keys, _) = build_and_sign();
        let window = (SIM_NOW - 60 * DAY, SIM_NOW - 30 * DAY);
        resign_rrset(&mut z, &n("example.com"), RrType::A, &keys, window);
        let set = z.get(&n("example.com"), RrType::A).unwrap();
        let sig = &set.sigs[0];
        assert_eq!(sig.expiration, SIM_NOW - 30 * DAY);
        // The signature itself is cryptographically fine — only the
        // window is wrong. Exactly the `rrsig-exp-*` testbed situation.
        let data = signing_data(sig, set);
        assert_eq!(
            simsig::verify(
                &keys.zsk.signing().public_key(),
                sig.algorithm,
                &data,
                &sig.signature
            ),
            Ok(())
        );
    }

    #[test]
    fn window_defaults_bracket_sim_now() {
        let cfg = SignerConfig::default();
        assert!(cfg.inception < SIM_NOW);
        assert!(cfg.expiration > SIM_NOW);
    }
}
