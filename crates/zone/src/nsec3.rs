//! NSEC3 chain generation (RFC 5155).

use crate::rrset::Rrset;
use crate::zone::Zone;
use ede_crypto::{base32, nsec3hash};
use ede_wire::rdata::{Octets, TypeBitmap};
use ede_wire::{Name, Rdata, RrType};
use std::collections::BTreeSet;

/// NSEC3 parameters used when signing a zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nsec3Config {
    /// Extra hash iterations. RFC 9276 says 0; the testbed's
    /// `nsec3-iter-200` case sets 200 on purpose.
    pub iterations: u16,
    /// Salt, possibly empty.
    pub salt: Octets,
}

impl Default for Nsec3Config {
    fn default() -> Self {
        Nsec3Config {
            iterations: 0,
            salt: [0xab, 0xcd].into(),
        }
    }
}

impl Nsec3Config {
    /// Hash `name` under these parameters, returning the owner label.
    pub fn hash_label(&self, name: &Name) -> [u8; nsec3hash::NSEC3_LABEL_LEN] {
        nsec3hash::nsec3_label(&self.hash_raw(name))
    }

    /// Hash `name`, returning the raw digest (the `next_hashed` form).
    pub fn hash_raw(&self, name: &Name) -> [u8; nsec3hash::NSEC3_HASH_LEN] {
        nsec3hash::nsec3_hash(name.as_wire(), &self.salt, self.iterations)
    }
}

/// All owner names the NSEC3 chain must cover: every authoritative owner
/// plus empty non-terminals, excluding glue below zone cuts.
fn chain_names(zone: &Zone) -> BTreeSet<Name> {
    let mut names: BTreeSet<Name> = BTreeSet::new();
    for name in zone.names() {
        if zone.is_glue(name) && !zone.is_delegation(name) {
            continue;
        }
        names.insert(name.clone());
        // Empty non-terminals between this owner and the apex.
        let mut current = name.parent();
        while let Some(n) = current {
            if !n.is_subdomain_of(zone.apex()) || n == *zone.apex() {
                break;
            }
            names.insert(n.clone());
            current = n.parent();
        }
    }
    names.insert(zone.apex().clone());
    names
}

/// The type bitmap for one owner (RFC 5155 §7.1 rules).
fn bitmap_for(zone: &Zone, name: &Name, signed: bool) -> TypeBitmap {
    let mut bm = TypeBitmap::new();
    if zone.is_delegation(name) {
        // Delegation point: only NS and (when present) DS are
        // authoritative at the cut; glue addresses are not listed.
        bm.insert(RrType::Ns);
        if zone.get(name, RrType::Ds).is_some() {
            bm.insert(RrType::Ds);
            if signed {
                bm.insert(RrType::Rrsig);
            }
        }
        return bm;
    }
    for t in zone.types_at(name) {
        if t != RrType::Nsec3 {
            bm.insert(t);
        }
    }
    if signed && !bm.is_empty() {
        bm.insert(RrType::Rrsig);
    }
    bm
}

/// Build the NSEC3 chain for `zone` and insert the NSEC3 RRsets plus the
/// apex NSEC3PARAM record. Must run *before* RRSIG generation so that the
/// chain itself gets signed.
pub fn build_chain(zone: &mut Zone, config: &Nsec3Config) {
    let apex = zone.apex().clone();
    let soa_minimum = match zone.soa().and_then(|s| s.rdatas.first()) {
        Some(Rdata::Soa(soa)) => soa.minimum,
        _ => 300,
    };

    // Publish NSEC3PARAM first so the apex bitmap lists it.
    zone.add_rrset(Rrset::new(
        apex.clone(),
        0,
        Rdata::Nsec3param {
            hash_alg: nsec3hash::NSEC3_HASH_ALG_SHA1,
            flags: 0,
            iterations: config.iterations,
            salt: config.salt.clone(),
        },
    ));

    let names = chain_names(zone);
    // (raw hash, source name) sorted by hash — the chain order.
    let mut hashed: Vec<([u8; nsec3hash::NSEC3_HASH_LEN], Name)> = names
        .into_iter()
        .map(|n| (config.hash_raw(&n), n))
        .collect();
    hashed.sort();

    let count = hashed.len();
    for i in 0..count {
        let (hash, name) = &hashed[i];
        let (next_hash, _) = &hashed[(i + 1) % count];
        let owner = apex
            .child_bytes(&nsec3hash::nsec3_label(hash))
            .expect("hash label fits");
        let rdata = Rdata::Nsec3 {
            hash_alg: nsec3hash::NSEC3_HASH_ALG_SHA1,
            flags: 0,
            iterations: config.iterations,
            salt: config.salt.clone(),
            next_hashed: next_hash.into(),
            types: bitmap_for(zone, name, true),
        };
        zone.add_rrset(Rrset::new(owner, soa_minimum, rdata));
    }
}

/// Find the NSEC3 RRset in `zone` whose owner hash *matches* `name`
/// exactly (used for NODATA proofs).
pub fn find_matching<'a>(zone: &'a Zone, config: &Nsec3Config, name: &Name) -> Option<&'a Rrset> {
    let owner = zone.apex().child_bytes(&config.hash_label(name)).ok()?;
    zone.get(&owner, RrType::Nsec3)
}

/// Find the NSEC3 RRset whose (hash, next-hash) interval *covers* the
/// hash of `name` (used for NXDOMAIN proofs).
pub fn find_covering<'a>(zone: &'a Zone, config: &Nsec3Config, name: &Name) -> Option<&'a Rrset> {
    let target = config.hash_raw(name);
    zone.iter()
        .find(|set| set.rtype == RrType::Nsec3 && interval_covers(set, &target))
}

/// The hash an NSEC3 RRset's owner label spells, if it is base32hex.
pub fn owner_hash(set: &Rrset) -> Option<Vec<u8>> {
    base32::decode(std::str::from_utf8(set.name.first_label()?).ok()?)
}

/// Does `target`, a raw hash, fall strictly inside this NSEC3 RRset's
/// (owner hash, next hash) interval?
pub fn interval_covers(set: &Rrset, target: &[u8]) -> bool {
    let (Some(Rdata::Nsec3 { next_hashed, .. }), Some(owner_hash)) =
        (set.rdatas.first(), owner_hash(set))
    else {
        return false;
    };
    let (owner_hash, next_hashed) = (&owner_hash[..], &next_hashed[..]);
    if owner_hash < next_hashed {
        target > owner_hash && target < next_hashed
    } else {
        // Wrap-around interval (last chain link).
        target > owner_hash || target < next_hashed
    }
}

/// Is `owner`'s first label the NSEC3 hash of `name` under these
/// parameters?
pub fn owner_is(owner: &Name, salt: &[u8], iterations: u16, name: &Name) -> bool {
    let label = nsec3hash::nsec3_hash_label(name.as_wire(), salt, iterations);
    owner
        .first_label()
        .is_some_and(|l| l.eq_ignore_ascii_case(&label))
}

/// The validator's side of [`find_matching`]: does this NSEC3 RRset's
/// owner match `name`, hashed under the RRset's own parameters?
pub fn matches(set: &Rrset, name: &Name) -> bool {
    match set.rdatas.first() {
        Some(Rdata::Nsec3 {
            salt, iterations, ..
        }) => owner_is(&set.name, salt, *iterations, name),
        _ => false,
    }
}

/// The validator's side of [`find_covering`]: does this NSEC3 RRset's
/// interval cover `name`, hashed under the RRset's own parameters?
pub fn covers(set: &Rrset, name: &Name) -> bool {
    match set.rdatas.first() {
        Some(Rdata::Nsec3 {
            salt, iterations, ..
        }) => interval_covers(
            set,
            &nsec3hash::nsec3_hash(name.as_wire(), salt, *iterations),
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_wire::rdata::Soa;
    use ede_wire::Record;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn base_zone() -> Zone {
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
        z.add_a(apex, "192.0.2.80".parse().unwrap());
        z.add_a(n("www.example.com"), "192.0.2.81".parse().unwrap());
        z
    }

    #[test]
    fn chain_covers_every_name_circularly() {
        let mut z = base_zone();
        let cfg = Nsec3Config::default();
        build_chain(&mut z, &cfg);

        let nsec3s: Vec<&Rrset> = z.iter().filter(|r| r.rtype == RrType::Nsec3).collect();
        // apex, ns1, www — three authoritative names.
        assert_eq!(nsec3s.len(), 3);

        // The next_hashed pointers must form one cycle over the owner set.
        let owners: BTreeSet<Vec<u8>> = nsec3s
            .iter()
            .map(|r| {
                base32::decode(std::str::from_utf8(r.name.first_label().unwrap()).unwrap()).unwrap()
            })
            .collect();
        for r in &nsec3s {
            match r.rdatas.first().unwrap() {
                Rdata::Nsec3 { next_hashed, .. } => assert!(owners.contains(&next_hashed[..])),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn param_record_added_at_apex() {
        let mut z = base_zone();
        build_chain(&mut z, &Nsec3Config::default());
        assert!(z.get(&n("example.com"), RrType::Nsec3param).is_some());
    }

    #[test]
    fn matching_and_covering_lookups() {
        let mut z = base_zone();
        let cfg = Nsec3Config::default();
        build_chain(&mut z, &cfg);

        // Existing name: exact match.
        assert!(find_matching(&z, &cfg, &n("www.example.com")).is_some());
        // Non-existent name: a covering interval must exist.
        assert!(find_covering(&z, &cfg, &n("nonexistent.example.com")).is_some());
        // An existing name's hash is never "covered" (it is an endpoint).
        assert!(find_covering(&z, &cfg, &n("www.example.com")).is_none());
    }

    #[test]
    fn apex_bitmap_lists_apex_types() {
        let mut z = base_zone();
        let cfg = Nsec3Config::default();
        build_chain(&mut z, &cfg);
        let apex_match = find_matching(&z, &cfg, &n("example.com")).unwrap();
        match apex_match.rdatas.first().unwrap() {
            Rdata::Nsec3 { types, .. } => {
                assert!(types.contains(RrType::Soa));
                assert!(types.contains(RrType::Ns));
                assert!(types.contains(RrType::A));
                assert!(types.contains(RrType::Nsec3param));
                assert!(!types.contains(RrType::Ds));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn delegation_bitmap_is_ns_and_ds_only() {
        let mut z = base_zone();
        z.add(Record::new(
            n("child.example.com"),
            3600,
            Rdata::Ns(n("ns.child.example.com")),
        ));
        z.add_a(n("ns.child.example.com"), "192.0.2.99".parse().unwrap());
        z.add(Record::new(
            n("child.example.com"),
            3600,
            Rdata::Ds {
                key_tag: 1,
                algorithm: 8,
                digest_type: 2,
                digest: vec![0; 32],
            },
        ));
        let cfg = Nsec3Config::default();
        build_chain(&mut z, &cfg);

        let deleg = find_matching(&z, &cfg, &n("child.example.com")).unwrap();
        match deleg.rdatas.first().unwrap() {
            Rdata::Nsec3 { types, .. } => {
                assert!(types.contains(RrType::Ns));
                assert!(types.contains(RrType::Ds));
                assert!(!types.contains(RrType::A));
                assert!(!types.contains(RrType::Soa));
            }
            _ => unreachable!(),
        }
        // Glue below the cut gets no NSEC3 record of its own.
        assert!(find_matching(&z, &cfg, &n("ns.child.example.com")).is_none());
    }

    #[test]
    fn high_iteration_count_changes_hashes() {
        let cfg0 = Nsec3Config {
            iterations: 0,
            salt: Octets::default(),
        };
        let cfg200 = Nsec3Config {
            iterations: 200,
            salt: Octets::default(),
        };
        assert_ne!(
            cfg0.hash_label(&n("example.com")),
            cfg200.hash_label(&n("example.com"))
        );
    }
}
