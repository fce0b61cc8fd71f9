//! The zone container: RRsets indexed by owner name and type.

use crate::rrset::Rrset;
use ede_wire::{Name, Rdata, Record, RrType};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Map key: (owner, numeric type), ordered by canonical owner, then
/// type. One flat map instead of a map of per-owner maps, so a zone of a
/// handful of RRsets — what the scan world builds per query — is one
/// tree node, not one per owner name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key(Name, u16);

/// What a lookup compares map keys against: the key's parts, borrowed,
/// so probing clones no [`Name`].
trait KeyParts {
    fn parts(&self) -> (&Name, u16);
}

impl KeyParts for Key {
    fn parts(&self) -> (&Name, u16) {
        (&self.0, self.1)
    }
}

impl KeyParts for (&Name, u16) {
    fn parts(&self) -> (&Name, u16) {
        *self
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

// The same order `Key` derives, as `Borrow` requires.
impl Ord for dyn KeyParts + '_ {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.parts().cmp(&other.parts())
    }
}

impl PartialOrd for dyn KeyParts + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyParts + '_ {}

type RrsetMap = BTreeMap<Key, Rrset>;

/// The entries of `map` from `name`'s first RRset on, in key order.
fn from_name<'a>(map: &'a RrsetMap, name: &Name) -> impl Iterator<Item = (&'a Key, &'a Rrset)> {
    let first: &dyn KeyParts = &(name, 0u16);
    map.range::<dyn KeyParts, _>((Bound::Included(first), Bound::Unbounded))
}

/// The RRsets at exactly `name`, in type order.
fn at_name<'a>(map: &'a RrsetMap, name: &'a Name) -> impl Iterator<Item = &'a Rrset> {
    from_name(map, name)
        .take_while(move |(k, _)| k.0 == *name)
        .map(|(_, set)| set)
}

/// An authoritative zone: an apex and the RRsets at and below it.
///
/// Names are kept in RFC 4034 canonical order (the `Ord` of
/// [`ede_wire::Name`]), which the NSEC3 chain builder and negative-answer
/// logic rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    apex: Name,
    rrsets: RrsetMap,
}

impl Zone {
    /// An empty zone rooted at `apex`.
    pub fn new(apex: Name) -> Self {
        Zone {
            apex,
            rrsets: BTreeMap::new(),
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Insert one record, merging into an existing RRset of the same
    /// (owner, type) when present.
    pub fn add(&mut self, record: Record) {
        let rtype = record.rtype();
        match self.get_mut(&record.name, rtype) {
            Some(set) => set.rdatas.push(record.rdata),
            None => self.add_rrset(Rrset::new(record.name, record.ttl, record.rdata)),
        }
    }

    /// Insert a whole RRset, replacing any existing set of the same key.
    pub fn add_rrset(&mut self, rrset: Rrset) {
        self.rrsets
            .insert(Key(rrset.name.clone(), rrset.rtype.to_u16()), rrset);
    }

    /// Look up the RRset at (name, rtype).
    pub fn get(&self, name: &Name, rtype: RrType) -> Option<&Rrset> {
        let key: &dyn KeyParts = &(name, rtype.to_u16());
        self.rrsets.get(key)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, name: &Name, rtype: RrType) -> Option<&mut Rrset> {
        let key: &dyn KeyParts = &(name, rtype.to_u16());
        self.rrsets.get_mut(key)
    }

    /// Remove and return the RRset at (name, rtype).
    pub fn remove(&mut self, name: &Name, rtype: RrType) -> Option<Rrset> {
        let key: &dyn KeyParts = &(name, rtype.to_u16());
        self.rrsets.remove(key)
    }

    /// Does any RRset exist at `name`?
    pub fn name_exists(&self, name: &Name) -> bool {
        at_name(&self.rrsets, name).next().is_some()
    }

    /// Does `name` exist either directly or as an empty non-terminal
    /// (some owner exists beneath it)? In RFC 4034 canonical order every
    /// descendant of `name` sorts immediately after it, so one ordered
    /// range probe answers this in O(log n).
    pub fn name_exists_or_ent(&self, name: &Name) -> bool {
        from_name(&self.rrsets, name)
            .next()
            .is_some_and(|(k, _)| k.0.is_subdomain_of(name))
    }

    /// The types present at `name`, in numeric order.
    pub fn types_at(&self, name: &Name) -> Vec<RrType> {
        at_name(&self.rrsets, name).map(|set| set.rtype).collect()
    }

    /// Iterate all owner names in canonical order.
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        // An owner's RRsets are consecutive: keep the first of each run.
        let mut last = None;
        self.iter().map(|set| &set.name).filter(move |&name| {
            let fresh = last != Some(name);
            last = Some(name);
            fresh
        })
    }

    /// Iterate all RRsets (canonical owner order, numeric type order).
    pub fn iter(&self) -> impl Iterator<Item = &Rrset> {
        self.rrsets.values()
    }

    /// Mutable iteration over all RRsets.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Rrset> {
        self.rrsets.values_mut()
    }

    /// The SOA RRset at the apex.
    pub fn soa(&self) -> Option<&Rrset> {
        self.get(&self.apex, RrType::Soa)
    }

    /// True when `name` is a delegation point (an NS RRset at a non-apex
    /// owner).
    pub fn is_delegation(&self, name: &Name) -> bool {
        name != &self.apex && self.get(name, RrType::Ns).is_some()
    }

    /// The closest delegation point at or above `qname` (strictly below
    /// the apex), if any. Resolution through this zone for `qname` must
    /// be referred there.
    pub fn find_delegation(&self, qname: &Name) -> Option<&Rrset> {
        // Walk from qname up to (but excluding) the apex.
        let mut current = Some(qname.clone());
        let mut found: Option<&Rrset> = None;
        while let Some(name) = current {
            if name == self.apex {
                break;
            }
            if !name.is_subdomain_of(&self.apex) {
                return None;
            }
            if let Some(ns) = self.get(&name, RrType::Ns) {
                // Keep walking up: the *highest* delegation below the apex
                // wins (a zone cut hides everything beneath it).
                found = Some(ns);
            }
            current = name.parent();
        }
        found
    }

    /// True when `name` sits at or below a delegation point (glue —
    /// non-authoritative data that must not be signed or answered
    /// authoritatively).
    pub fn is_glue(&self, name: &Name) -> bool {
        let mut current = name.parent();
        while let Some(n) = current {
            if n == self.apex {
                return false;
            }
            if self.get(&n, RrType::Ns).is_some() {
                return true;
            }
            current = n.parent();
        }
        // Names at a delegation owner itself: address records there are
        // glue too (the NS set is the only authoritative-ish data).
        self.is_delegation(name) && self.get(name, RrType::A).is_some()
            || self.is_delegation(name) && self.get(name, RrType::Aaaa).is_some()
    }

    /// Glue address records (A/AAAA) for a nameserver name, if present in
    /// this zone.
    pub fn glue_for<'a>(&'a self, ns_name: &'a Name) -> impl Iterator<Item = Record> + 'a {
        [RrType::A, RrType::Aaaa]
            .into_iter()
            .filter_map(move |rtype| self.get(ns_name, rtype))
            .flat_map(Rrset::records)
    }

    /// Convenience used throughout the testbed: add an A record.
    pub fn add_a(&mut self, name: Name, addr: std::net::Ipv4Addr) {
        self.add(Record::new(name, 3600, Rdata::A(addr)));
    }

    /// Convenience: add an AAAA record.
    pub fn add_aaaa(&mut self, name: Name, addr: std::net::Ipv6Addr) {
        self.add(Record::new(name, 3600, Rdata::Aaaa(addr)));
    }

    /// Total number of RRsets (for reports and sanity checks).
    pub fn rrset_count(&self) -> usize {
        self.rrsets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_wire::rdata::Soa;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn test_zone() -> Zone {
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
        // A delegation with glue.
        z.add(Record::new(
            n("child.example.com"),
            3600,
            Rdata::Ns(n("ns.child.example.com")),
        ));
        z.add_a(n("ns.child.example.com"), "192.0.2.54".parse().unwrap());
        z
    }

    #[test]
    fn add_merges_rrsets() {
        let mut z = test_zone();
        z.add_a(n("example.com"), "192.0.2.81".parse().unwrap());
        assert_eq!(z.get(&n("example.com"), RrType::A).unwrap().rdatas.len(), 2);
    }

    #[test]
    fn delegation_detection() {
        let z = test_zone();
        assert!(z.is_delegation(&n("child.example.com")));
        assert!(!z.is_delegation(&n("example.com"))); // apex NS is not a cut
        let deleg = z.find_delegation(&n("www.child.example.com")).unwrap();
        assert_eq!(deleg.name, n("child.example.com"));
        assert!(z.find_delegation(&n("www.example.com")).is_none());
        assert!(z.find_delegation(&n("other.org")).is_none());
    }

    #[test]
    fn glue_classification() {
        let z = test_zone();
        assert!(z.is_glue(&n("ns.child.example.com")));
        assert!(!z.is_glue(&n("ns1.example.com")));
        assert!(!z.is_glue(&n("example.com")));
        assert_eq!(z.glue_for(&n("ns.child.example.com")).count(), 1);
    }

    #[test]
    fn remove_cleans_empty_names() {
        let mut z = test_zone();
        assert!(z.remove(&n("ns1.example.com"), RrType::A).is_some());
        assert!(!z.name_exists(&n("ns1.example.com")));
        assert!(z.remove(&n("ns1.example.com"), RrType::A).is_none());
    }

    #[test]
    fn types_at_apex() {
        let z = test_zone();
        let types = z.types_at(&n("example.com"));
        assert!(types.contains(&RrType::Soa));
        assert!(types.contains(&RrType::Ns));
        assert!(types.contains(&RrType::A));
    }
}
