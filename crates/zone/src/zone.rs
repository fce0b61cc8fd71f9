//! The zone container: RRsets indexed by owner name and type.

use crate::rrset::Rrset;
use ede_wire::{Name, Rdata, Record, RrType};
use std::collections::BTreeMap;
use std::sync::Arc;

type RrsetMap = BTreeMap<Name, BTreeMap<u16, Rrset>>;

/// An authoritative zone: an apex and the RRsets at and below it.
///
/// Names are kept in RFC 4034 canonical order (the `Ord` of
/// [`ede_wire::Name`]), which the NSEC3 chain builder and negative-answer
/// logic rely on.
///
/// A zone may be *layered* over a shared read-only base
/// ([`Zone::layered`]): a server that synthesizes a small zone per query
/// around a fixed, pre-signed skeleton shares the skeleton instead of
/// copying it. Every read sees both layers, the zone's own RRset winning
/// where both hold one for an (owner, type); every write — including
/// [`Zone::get_mut`], [`Zone::remove`] and [`Zone::iter_mut`] — touches
/// the zone's own layer only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    apex: Name,
    /// owner → (numeric type → rrset). The inner map is tiny (a handful of
    /// types per name), the outer map is ordered canonically.
    rrsets: RrsetMap,
    /// The shared layer underneath; itself never layered.
    base: Option<Arc<Zone>>,
}

impl Zone {
    /// An empty zone rooted at `apex`.
    pub fn new(apex: Name) -> Self {
        Zone {
            apex,
            rrsets: BTreeMap::new(),
            base: None,
        }
    }

    /// An empty zone layered over `base` (same apex). `base` must not be
    /// layered itself.
    pub fn layered(base: Arc<Zone>) -> Self {
        assert!(base.base.is_none(), "a base zone is a single layer");
        Zone {
            apex: base.apex.clone(),
            rrsets: BTreeMap::new(),
            base: Some(base),
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// The shared layer's RRsets, if there is one.
    fn base_rrsets(&self) -> Option<&RrsetMap> {
        self.base.as_ref().map(|b| &b.rrsets)
    }

    /// Insert one record, merging into an existing RRset of the same
    /// (owner, type) when present.
    pub fn add(&mut self, record: Record) {
        let rtype = record.rtype();
        let by_type = self.rrsets.entry(record.name.clone()).or_default();
        match by_type.get_mut(&rtype.to_u16()) {
            Some(set) => set.rdatas.push(record.rdata),
            None => {
                by_type.insert(
                    rtype.to_u16(),
                    Rrset::new(record.name, record.ttl, record.rdata),
                );
            }
        }
    }

    /// Insert a whole RRset, replacing any existing set of the same key.
    pub fn add_rrset(&mut self, rrset: Rrset) {
        self.rrsets
            .entry(rrset.name.clone())
            .or_default()
            .insert(rrset.rtype.to_u16(), rrset);
    }

    /// Look up the RRset at (name, rtype).
    pub fn get(&self, name: &Name, rtype: RrType) -> Option<&Rrset> {
        fn at<'a>(map: &'a RrsetMap, name: &Name, rtype: RrType) -> Option<&'a Rrset> {
            map.get(name)?.get(&rtype.to_u16())
        }
        at(&self.rrsets, name, rtype).or_else(|| at(self.base_rrsets()?, name, rtype))
    }

    /// Mutable lookup (own layer only).
    pub fn get_mut(&mut self, name: &Name, rtype: RrType) -> Option<&mut Rrset> {
        self.rrsets.get_mut(name)?.get_mut(&rtype.to_u16())
    }

    /// Remove and return the RRset at (name, rtype) (own layer only).
    pub fn remove(&mut self, name: &Name, rtype: RrType) -> Option<Rrset> {
        let by_type = self.rrsets.get_mut(name)?;
        let removed = by_type.remove(&rtype.to_u16());
        if by_type.is_empty() {
            self.rrsets.remove(name);
        }
        removed
    }

    /// Does any RRset exist at `name`?
    pub fn name_exists(&self, name: &Name) -> bool {
        self.rrsets.contains_key(name) || self.base_rrsets().is_some_and(|b| b.contains_key(name))
    }

    /// Does `name` exist either directly or as an empty non-terminal
    /// (some owner exists beneath it)? In RFC 4034 canonical order every
    /// descendant of `name` sorts immediately after it, so one ordered
    /// range probe answers this in O(log n).
    pub fn name_exists_or_ent(&self, name: &Name) -> bool {
        let probe = |map: &RrsetMap| {
            map.range(name..)
                .next()
                .is_some_and(|(k, _)| k.is_subdomain_of(name))
        };
        probe(&self.rrsets) || self.base_rrsets().is_some_and(probe)
    }

    /// The types present at `name`, in numeric order.
    pub fn types_at(&self, name: &Name) -> Vec<RrType> {
        let mut types: Vec<u16> = std::iter::once(&self.rrsets)
            .chain(self.base_rrsets())
            .filter_map(|map| map.get(name))
            .flat_map(|m| m.keys().copied())
            .collect();
        if self.base.is_some() {
            types.sort_unstable();
            types.dedup();
        }
        types.into_iter().map(RrType::from_u16).collect()
    }

    /// Iterate all owner names in canonical order.
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        let shared = self
            .base_rrsets()
            .into_iter()
            .flat_map(|b| b.keys())
            .filter(|n| !self.rrsets.contains_key(n));
        merge_sorted(self.rrsets.keys(), shared, |a, b| a.cmp(b))
    }

    /// Iterate all RRsets (canonical owner order, numeric type order).
    pub fn iter(&self) -> impl Iterator<Item = &Rrset> {
        fn flat(map: &RrsetMap) -> impl Iterator<Item = &Rrset> {
            map.values().flat_map(|m| m.values())
        }
        let shared = self
            .base_rrsets()
            .into_iter()
            .flat_map(flat)
            .filter(|s| !self.holds(&s.name, s.rtype));
        merge_sorted(flat(&self.rrsets), shared, |a, b| {
            (&a.name, a.rtype.to_u16()).cmp(&(&b.name, b.rtype.to_u16()))
        })
    }

    /// Does the zone's own layer hold an RRset at (name, rtype)?
    fn holds(&self, name: &Name, rtype: RrType) -> bool {
        self.rrsets
            .get(name)
            .is_some_and(|m| m.contains_key(&rtype.to_u16()))
    }

    /// Mutable iteration over all RRsets (own layer only).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Rrset> {
        self.rrsets.values_mut().flat_map(|m| m.values_mut())
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
        self.iter().count()
    }
}

/// Merge two iterators that are each sorted by `cmp` into one that is.
/// Where both sides hold equal items, `a`'s come first.
fn merge_sorted<T>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T>,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering,
) -> impl Iterator<Item = T> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if cmp(x, y).is_gt() => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
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
