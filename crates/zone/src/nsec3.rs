//! NSEC3 chain generation (RFC 5155).

use crate::rrset::{Rrset, RrsetRef};
use crate::zone::{Role, Zone};
use ede_crypto::{base32, nsec3hash};
use ede_wire::rdata::{Octets, TypeBitmap};
use ede_wire::{Name, Rdata, RrType};

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

/// One owner of the chain being gathered: its raw hash, its name, and
/// its type bitmap — `None` for a name the walk did not visit (an empty
/// non-terminal), looked up once the walk is done.
type ChainOwner = ([u8; nsec3hash::NSEC3_HASH_LEN], Name, Option<TypeBitmap>);

/// The chain owners one walk gathers, each once.
struct Gather<'c> {
    config: &'c Nsec3Config,
    apex: Name,
    owners: Vec<ChainOwner>,
    /// The last owner the walk put in the chain. An ancestor already in
    /// the list is an ancestor of this one: the owners below any name
    /// are contiguous in the walk's order.
    last: Option<Name>,
    apex_seen: bool,
    /// The owner being walked: its name and role, and its types so far.
    current: Option<(Name, Role, TypeBitmap)>,
}

impl Gather<'_> {
    /// The walk's next RRset, of an owner of `role`.
    fn visit(&mut self, role: Role, set: &Rrset) {
        if self.current.as_ref().map(|(name, ..)| name) != Some(&set.name) {
            self.leave();
            self.current = Some((set.name.clone(), role, TypeBitmap::new()));
        }
        let (_, _, types) = self.current.as_mut().expect("just set");
        if set.rtype != RrType::Nsec3 {
            types.insert(set.rtype);
        }
    }

    /// The walk is done: the owners gathered, the apex among them.
    fn finish(mut self) -> Vec<ChainOwner> {
        self.leave();
        if !self.apex_seen {
            self.push(self.apex.clone(), None);
        }
        self.owners
    }

    fn push(&mut self, name: Name, bitmap: Option<TypeBitmap>) {
        self.owners
            .push((self.config.hash_raw(&name), name, bitmap));
    }

    /// The walk has left the current owner: add it and the empty
    /// non-terminals above it, unless it is glue.
    fn leave(&mut self) {
        let Some((name, role, types)) = self.current.take() else {
            return;
        };
        if role == Role::BelowCut && name != self.apex {
            return;
        }
        self.apex_seen |= name == self.apex;
        let bitmap = if role == Role::Cut {
            // Delegation point: only NS and (when present) DS are
            // authoritative at the cut; glue addresses are not listed.
            let mut cut = TypeBitmap::new();
            cut.insert(RrType::Ns);
            if types.contains(RrType::Ds) {
                cut.insert(RrType::Ds);
                cut.insert(RrType::Rrsig);
            }
            cut
        } else {
            let mut types = types;
            if !types.is_empty() {
                types.insert(RrType::Rrsig);
            }
            types
        };
        let mut ancestor = name.parent();
        while let Some(n) = ancestor {
            let listed = self
                .last
                .as_ref()
                .is_some_and(|last| last.is_subdomain_of(&n));
            if listed || !n.is_subdomain_of(&self.apex) || n == self.apex {
                break;
            }
            ancestor = n.parent();
            self.push(n, None);
        }
        self.push(name.clone(), Some(bitmap));
        self.last = Some(name);
    }
}

/// Every owner name the NSEC3 chain must cover, with its bitmap: every
/// authoritative owner and cut, the apex, and the empty non-terminals
/// between them and the apex — not glue below a cut. One walk of the
/// zone in canonical order ([`Zone::walk_roles`]) gathers them, each
/// hashed under `config`.
fn chain_owners(zone: &mut Zone, config: &Nsec3Config) -> Vec<ChainOwner> {
    let mut gather = Gather {
        config,
        apex: zone.apex().clone(),
        owners: Vec::new(),
        last: None,
        apex_seen: false,
        current: None,
    };
    zone.walk_roles(|role, set| gather.visit(role, set));
    gather.finish()
}

/// The type bitmap of an owner the walk did not visit (RFC 5155 §7.1
/// rules): an empty non-terminal's is empty, unless the name holds glue
/// below a cut, which is listed.
fn bitmap_for(zone: &Zone, name: &Name) -> TypeBitmap {
    let mut bm = TypeBitmap::new();
    for t in zone.types_at(name) {
        if t != RrType::Nsec3 {
            bm.insert(t);
        }
    }
    if !bm.is_empty() {
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

    let mut hashed = chain_owners(zone, config);
    for (_, name, bitmap) in &mut hashed {
        if bitmap.is_none() {
            *bitmap = Some(bitmap_for(zone, name));
        }
    }
    // Sorted by hash: the chain order.
    hashed.sort_unstable_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));

    let count = hashed.len();
    for i in 0..count {
        let next_hash = hashed[(i + 1) % count].0;
        let (hash, _, types) = &mut hashed[i];
        let owner = apex
            .child_bytes(&nsec3hash::nsec3_label(hash))
            .expect("hash label fits");
        let rdata = Rdata::Nsec3 {
            hash_alg: nsec3hash::NSEC3_HASH_ALG_SHA1,
            flags: 0,
            iterations: config.iterations,
            salt: config.salt.clone(),
            next_hashed: next_hash.into(),
            types: types.take().expect("every bitmap is filled"),
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

/// The hash a base32hex owner label spells.
fn decode_label(label: &[u8]) -> Option<Vec<u8>> {
    base32::decode(std::str::from_utf8(label).ok()?)
}

/// Does `target`, a raw hash, fall strictly inside this NSEC3 RRset's
/// (owner hash, next hash) interval?
pub fn interval_covers(set: &Rrset, target: &[u8]) -> bool {
    set.rdatas
        .first()
        .is_some_and(|first| covers_hash(&set.name, first, target))
}

/// [`interval_covers`] over an NSEC3 RRset's owner and first record.
fn covers_hash(owner: &Name, first: &Rdata, target: &[u8]) -> bool {
    let (Rdata::Nsec3 { next_hashed, .. }, Some(owner_hash)) =
        (first, owner.first_label().and_then(decode_label))
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

/// The validator's side of [`find_matching`]: does this NSEC3 RRset's
/// owner match `name`, hashed under the RRset's own parameters?
pub fn matches(set: RrsetRef<'_>, name: &Name) -> bool {
    let Some(Rdata::Nsec3 {
        salt, iterations, ..
    }) = set.rdatas().next()
    else {
        return false;
    };
    let label = nsec3hash::nsec3_hash_label(name.as_wire(), salt, *iterations);
    set.name()
        .first_label()
        .is_some_and(|l| l.eq_ignore_ascii_case(&label))
}

/// The validator's side of [`find_covering`]: does this NSEC3 RRset's
/// interval cover `name`, hashed under the RRset's own parameters?
pub fn covers(set: RrsetRef<'_>, name: &Name) -> bool {
    match set.rdatas().next() {
        Some(
            first @ Rdata::Nsec3 {
                salt, iterations, ..
            },
        ) => covers_hash(
            set.name(),
            first,
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
    use std::collections::BTreeSet;

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
