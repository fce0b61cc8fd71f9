//! The zone container: RRsets indexed by owner name and type.
//!
//! The map is ordered by canonical owner name, then type, and that order
//! is what lets the signer and the NSEC3 chain learn every owner's role
//! in one walk ([`Zone::walk_roles`]). In RFC 4034 canonical order a
//! name's descendants sort immediately after it, before any name that is
//! not one: names compare label by label from the right, so every name
//! below `cut` shares `cut`'s labels as its rightmost ones and runs past
//! them, which puts it after `cut` and before the next name that differs
//! within them. A zone cut's subtree — its glue and anything else below
//! it — is therefore one contiguous run right after the cut, and a walk
//! that remembers the outermost cut it has entered knows an owner is
//! below a cut by asking only whether it is still under that one name.
//! An owner's RRsets are one run too, in type order, and only types 0
//! and 1 (A) sort before NS, so an owner's role is settled with at most
//! two of its RRsets held back.

use crate::rrset::Rrset;
use ede_wire::{Name, Rdata, Record, RrType};
use std::borrow::Borrow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Map key: (lead, owner, numeric type), ordered by canonical owner,
/// then type. One flat map instead of a map of per-owner maps, so a zone
/// of a handful of RRsets — what the scan world builds per query — is
/// one tree node, not one per owner name. The owner's [`lead`] comes
/// first, so most steps of a search through a zone of many TLDs (the
/// scan world's root) are one integer compare, not a
/// [`Name::canonical_cmp`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u64, Name, u16);

impl Key {
    fn new(owner: Name, rtype: u16) -> Self {
        Key(lead(&owner), owner, rtype)
    }
}

/// The first 8 octets of `name`'s rightmost label, zero-padded and read
/// big-endian; 0 for the root. Canonical order (RFC 4034 §6.1) compares
/// rightmost labels first, as octet strings, so two leads that differ
/// order their names as [`Name::canonical_cmp`] does: they differ at an
/// octet both labels hold, or where one label has ended (a prefix of the
/// other, so first) and the other holds a nonzero octet against the
/// padding's zero. Equal leads leave it to the full comparison.
fn lead(name: &Name) -> u64 {
    let wire = name.as_wire();
    let (mut at, mut label) = (0, &wire[..0]);
    while wire[at] != 0 {
        let end = at + 1 + usize::from(wire[at]);
        label = &wire[at + 1..end];
        at = end;
    }
    let mut octets = [0; 8];
    let len = label.len().min(8);
    octets[..len].copy_from_slice(&label[..len]);
    u64::from_be_bytes(octets)
}

/// What a lookup compares map keys against: the key's parts, borrowed,
/// so probing clones no [`Name`].
trait KeyParts {
    fn parts(&self) -> (u64, &Name, u16);
}

impl KeyParts for Key {
    fn parts(&self) -> (u64, &Name, u16) {
        (self.0, &self.1, self.2)
    }
}

impl KeyParts for (u64, &Name, u16) {
    fn parts(&self) -> (u64, &Name, u16) {
        *self
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

/// The probe for (`name`, `rtype`), its lead computed once.
fn probe(name: &Name, rtype: u16) -> (u64, &Name, u16) {
    (lead(name), name, rtype)
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
    let first: &dyn KeyParts = &probe(name, 0);
    map.range::<dyn KeyParts, _>((Bound::Included(first), Bound::Unbounded))
}

/// The RRsets at exactly `name`, in type order.
fn at_name<'a>(map: &'a RrsetMap, name: &'a Name) -> impl Iterator<Item = &'a Rrset> {
    from_name(map, name)
        .take_while(move |(k, _)| k.1 == *name)
        .map(|(_, set)| set)
}

/// What an owner name is to its zone, as signing and the NSEC3 chain
/// see it (RFC 4035 §2.2, RFC 5155 §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Authoritative data: every RRset but a stored RRSIG set is signed,
    /// and the owner is in the denial chain with the types it holds.
    Authoritative,
    /// A zone cut, an NS RRset at an owner other than the apex (even
    /// below another cut): only its DS is signed, and its chain bitmap
    /// is NS and DS.
    Cut,
    /// Below a cut (glue), or the apex below an out-of-zone cut: neither
    /// signed nor chained.
    BelowCut,
}

/// The cuts a walk in canonical order is inside: the outermost of all
/// (for the apex and out-of-zone owners, which [`Zone::is_glue`] checks
/// against every ancestor) and the outermost strictly below the apex
/// (for the owners there, which it checks up to the apex only).
struct Cuts<'a> {
    apex: &'a Name,
    outer: Option<&'a Name>,
    inner: Option<&'a Name>,
}

impl<'a> Cuts<'a> {
    /// Is `name`, the walk's next owner, below a cut? Cuts the walk has
    /// left are forgotten: their subtrees are contiguous, so it never
    /// comes back to them.
    fn below(&mut self, name: &Name) -> bool {
        for cut in [&mut self.outer, &mut self.inner] {
            if cut.is_some_and(|c| !name.is_subdomain_of(c)) {
                *cut = None;
            }
        }
        if strictly_below(name, self.apex) {
            self.inner.is_some()
        } else {
            self.outer.is_some()
        }
    }

    /// `cut`, the owner just settled, is a cut.
    fn enter(&mut self, cut: &'a Name) {
        self.outer.get_or_insert(cut);
        if strictly_below(cut, self.apex) {
            self.inner.get_or_insert(cut);
        }
    }
}

/// Is `name` below `apex` and not `apex` itself?
fn strictly_below(name: &Name, apex: &Name) -> bool {
    name != apex && name.is_subdomain_of(apex)
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
    /// (owner, type) when present: one search of the map.
    pub fn add(&mut self, record: Record) {
        let rtype = record.rtype().to_u16();
        match self.rrsets.entry(Key::new(record.name, rtype)) {
            Entry::Occupied(set) => set.into_mut().rdatas.push(record.rdata),
            Entry::Vacant(slot) => {
                let name = slot.key().1.clone();
                slot.insert(Rrset::new(name, record.ttl, record.rdata));
            }
        }
    }

    /// Insert a whole RRset, replacing any existing set of the same key.
    pub fn add_rrset(&mut self, rrset: Rrset) {
        self.rrsets
            .insert(Key::new(rrset.name.clone(), rrset.rtype.to_u16()), rrset);
    }

    /// Look up the RRset at (name, rtype).
    pub fn get(&self, name: &Name, rtype: RrType) -> Option<&Rrset> {
        let key: &dyn KeyParts = &probe(name, rtype.to_u16());
        self.rrsets.get(key)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, name: &Name, rtype: RrType) -> Option<&mut Rrset> {
        let key: &dyn KeyParts = &probe(name, rtype.to_u16());
        self.rrsets.get_mut(key)
    }

    /// Remove and return the RRset at (name, rtype).
    pub fn remove(&mut self, name: &Name, rtype: RrType) -> Option<Rrset> {
        let key: &dyn KeyParts = &probe(name, rtype.to_u16());
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
            .is_some_and(|(k, _)| k.1.is_subdomain_of(name))
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

    /// Visit every RRset in canonical order with its owner's [`Role`],
    /// learned in the same walk — no search of the map. The roles are
    /// those [`Zone::is_delegation`] and [`Zone::is_glue`] give: a cut
    /// is an owner other than the apex with an NS RRset; below a cut is
    /// an owner with a cut among its ancestors short of the apex (any
    /// ancestor, for the apex itself and owners outside it). See the
    /// module documentation for why one ordered walk can tell.
    pub fn walk_roles(&mut self, mut visit: impl FnMut(Role, &mut Rrset)) {
        let apex = &self.apex;
        let mut cuts = Cuts {
            apex,
            outer: None,
            inner: None,
        };
        let ns = RrType::Ns.to_u16();
        let mut entries = self.rrsets.iter_mut().peekable();
        while let Some(key) = entries.peek().map(|(key, _)| *key) {
            let owner = &key.1;
            let below = cuts.below(owner);
            // The owner's RRsets of types 0 and 1 sort before its NS, if
            // any: held back until its role is settled.
            let mut held: [Option<&mut Rrset>; 2] = [None, None];
            while let Some((key, set)) = entries.next_if(|(k, _)| k.1 == *owner && k.2 < ns) {
                held[usize::from(key.2)] = Some(set);
            }
            let has_ns = entries
                .peek()
                .is_some_and(|(k, _)| k.1 == *owner && k.2 == ns);
            let role = if has_ns && owner != apex {
                cuts.enter(owner);
                Role::Cut
            } else if below {
                Role::BelowCut
            } else {
                Role::Authoritative
            };
            for set in held.into_iter().flatten() {
                visit(role, set);
            }
            while let Some((_, set)) = entries.next_if(|(k, _)| k.1 == *owner) {
                visit(role, set);
            }
        }
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

    /// Where two leads differ, they order their names as canonical order
    /// does, over seeded names whose rightmost labels share prefixes,
    /// hold 0x00 and 0xff, and run past 8 octets.
    #[test]
    fn a_lead_orders_as_canonical_order_does() {
        let mut state = 0x1ead_u64;
        let mut next = move |below: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % below
        };
        let mut name = || {
            let labels: Vec<Vec<u8>> = (0..next(4))
                .map(|_| {
                    let len = 1 + next(12) as usize;
                    (0..len)
                        .map(|_| [0x00, b'a', b'b', 0xff][next(4) as usize])
                        .collect()
                })
                .collect();
            Name::from_labels(labels).unwrap()
        };
        let mut differing = 0;
        for _ in 0..20_000 {
            let (a, b) = (name(), name());
            if lead(&a) != lead(&b) {
                differing += 1;
                assert_eq!(lead(&a).cmp(&lead(&b)), a.canonical_cmp(&b), "{a} {b}");
            }
        }
        assert!(differing > 10_000, "{differing} pairs with differing leads");
        assert_eq!(lead(&Name::root()), 0);
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
