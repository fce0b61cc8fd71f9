//! `Zone` against a map-of-maps reference model.
//!
//! `Zone` keeps its RRsets in one ordered map keyed (owner, type) and
//! answers per-name questions with range probes over it. The model here
//! is the obvious representation — owner → (type → RRset) — with every
//! operation written the slow, plain way; seeded random edit scripts
//! (SplitMix64, so every failure reproduces) are run against both, and
//! every read the zone offers is compared after every edit.

use ede_wire::{Name, Rdata, Record, RrType};
use ede_zone::{Rrset, Zone};
use std::collections::BTreeMap;

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

    fn pick<'a, T>(&mut self, of: &'a [T]) -> &'a T {
        &of[self.below(of.len() as u64) as usize]
    }
}

/// The reference.
struct Model {
    apex: Name,
    owners: BTreeMap<Name, BTreeMap<u16, Rrset>>,
}

impl Model {
    fn add(&mut self, record: Record) {
        let by_type = self.owners.entry(record.name.clone()).or_default();
        match by_type.get_mut(&record.rtype().to_u16()) {
            Some(set) => set.rdatas.push(record.rdata),
            None => {
                let set = Rrset::new(record.name, record.ttl, record.rdata);
                by_type.insert(set.rtype.to_u16(), set);
            }
        }
    }

    fn add_rrset(&mut self, set: Rrset) {
        self.owners
            .entry(set.name.clone())
            .or_default()
            .insert(set.rtype.to_u16(), set);
    }

    fn get(&self, name: &Name, rtype: RrType) -> Option<&Rrset> {
        self.owners.get(name)?.get(&rtype.to_u16())
    }

    fn get_mut(&mut self, name: &Name, rtype: RrType) -> Option<&mut Rrset> {
        self.owners.get_mut(name)?.get_mut(&rtype.to_u16())
    }

    fn remove(&mut self, name: &Name, rtype: RrType) -> Option<Rrset> {
        let by_type = self.owners.get_mut(name)?;
        let removed = by_type.remove(&rtype.to_u16());
        if by_type.is_empty() {
            self.owners.remove(name);
        }
        removed
    }

    fn name_exists(&self, name: &Name) -> bool {
        self.owners.contains_key(name)
    }

    fn name_exists_or_ent(&self, name: &Name) -> bool {
        self.owners.keys().any(|owner| owner.is_subdomain_of(name))
    }

    fn types_at(&self, name: &Name) -> Vec<RrType> {
        let by_type = self.owners.get(name);
        let types = by_type.into_iter().flat_map(|by_type| by_type.keys());
        types.map(|t| RrType::from_u16(*t)).collect()
    }

    fn names(&self) -> Vec<Name> {
        self.owners.keys().cloned().collect()
    }

    /// Every RRset, by owner then type.
    fn iter(&self) -> Vec<Rrset> {
        let sets = self.owners.values().flat_map(|by_type| by_type.values());
        sets.cloned().collect()
    }

    /// The highest NS owner strictly below the apex on the way up from
    /// `qname`, which must sit under the apex.
    fn find_delegation(&self, qname: &Name) -> Option<&Rrset> {
        if !qname.is_subdomain_of(&self.apex) {
            return None;
        }
        (self.apex.label_count() + 1..=qname.label_count())
            .find_map(|labels| self.get(&qname.suffix(labels), RrType::Ns))
    }
}

/// A small universe, so that edits collide: the apex, hosts, names under
/// hosts (which make empty non-terminals and below-cut glue), and one
/// name outside the zone.
fn universe(apex: &Name) -> Vec<Name> {
    let mut names = vec![apex.clone(), Name::parse("elsewhere.test").unwrap()];
    for host in ["a", "b", "ns1", "zz"] {
        let host = apex.child(host).unwrap();
        for below in ["x", "y"] {
            let below = host.child(below).unwrap();
            names.push(below.child("deep").unwrap());
            names.push(below);
        }
        names.push(host);
    }
    names
}

const TYPES: [RrType; 5] = [
    RrType::A,
    RrType::Ns,
    RrType::Txt,
    RrType::Ds,
    RrType::Nsec3,
];

fn arb_rdata(rng: &mut Rng, rtype: RrType, apex: &Name) -> Rdata {
    let tag = rng.next();
    match rtype {
        RrType::A => Rdata::A((tag as u32).into()),
        RrType::Ns => Rdata::Ns(apex.child(&format!("ns{}", tag % 3)).unwrap()),
        RrType::Txt => Rdata::Txt(vec![tag.to_be_bytes().to_vec()]),
        other => Rdata::Unknown {
            rtype: other.to_u16(),
            data: tag.to_be_bytes().to_vec(),
        },
    }
}

/// Every read, on every name of the universe.
fn assert_same_reads(zone: &Zone, model: &Model, names: &[Name], step: &str) {
    for name in names {
        for rtype in TYPES {
            assert_eq!(
                zone.get(name, rtype),
                model.get(name, rtype),
                "{step}: get {name} {rtype}"
            );
        }
        assert_eq!(
            zone.name_exists(name),
            model.name_exists(name),
            "{step}: exists {name}"
        );
        assert_eq!(
            zone.name_exists_or_ent(name),
            model.name_exists_or_ent(name),
            "{step}: exists-or-ENT {name}"
        );
        assert_eq!(
            zone.types_at(name),
            model.types_at(name),
            "{step}: types at {name}"
        );
        assert_eq!(
            zone.find_delegation(name),
            model.find_delegation(name),
            "{step}: delegation for {name}"
        );
    }
    assert_eq!(
        zone.names().cloned().collect::<Vec<_>>(),
        model.names(),
        "{step}: names"
    );
    let sets = model.iter();
    assert_eq!(
        zone.iter().cloned().collect::<Vec<_>>(),
        sets,
        "{step}: iter"
    );
    assert_eq!(zone.rrset_count(), sets.len(), "{step}: count");
}

/// One random edit, applied to both.
fn edit(rng: &mut Rng, zone: &mut Zone, model: &mut Model, names: &[Name]) -> String {
    let name = rng.pick(names).clone();
    let rtype = *rng.pick(&TYPES);
    match rng.below(5) {
        0 | 1 => {
            let record = Record::new(name.clone(), 300, arb_rdata(rng, rtype, &model.apex));
            zone.add(record.clone());
            model.add(record);
            format!("add {name} {rtype}")
        }
        2 => {
            let set = Rrset::new(name.clone(), 60, arb_rdata(rng, rtype, &model.apex));
            zone.add_rrset(set.clone());
            model.add_rrset(set);
            format!("add_rrset {name} {rtype}")
        }
        3 => {
            assert_eq!(zone.remove(&name, rtype), model.remove(&name, rtype));
            format!("remove {name} {rtype}")
        }
        _ => {
            let ttl = rng.next() as u32;
            let (ours, theirs) = (zone.get_mut(&name, rtype), model.get_mut(&name, rtype));
            assert_eq!(ours.is_some(), theirs.is_some(), "get_mut {name} {rtype}");
            if let (Some(ours), Some(theirs)) = (ours, theirs) {
                ours.ttl = ttl;
                theirs.ttl = ttl;
            }
            format!("get_mut {name} {rtype}")
        }
    }
}

fn run(seed: u64) {
    let mut rng = Rng(seed);
    let apex = Name::parse("zone.test").unwrap();
    let names = universe(&apex);
    let mut zone = Zone::new(apex.clone());
    let mut model = Model {
        apex,
        owners: BTreeMap::new(),
    };
    for step in 0..60 {
        let what = edit(&mut rng, &mut zone, &mut model, &names);
        assert_same_reads(
            &zone,
            &model,
            &names,
            &format!("seed {seed:#x} step {step} ({what})"),
        );
    }
}

#[test]
fn plain_zones_read_as_the_map_of_maps_does() {
    for case in 0..24 {
        run(0x20e_0000 + case);
    }
}
