//! Multi-zone storage with longest-suffix zone selection.

use ede_wire::Name;
use ede_zone::Zone;

/// The zones one server is authoritative for.
///
/// Lookup picks the zone with the longest apex that is an ancestor of the
/// query name — the same rule real servers apply when they host both a
/// parent and a child zone (our root and TLD servers do exactly that in
/// the scan).
#[derive(Debug, Default)]
pub struct ZoneStore {
    /// A plain vector: the store is small per server — one zone for the
    /// servers the scan world builds per query — and `find` has to look
    /// at every apex anyway.
    zones: Vec<Zone>,
}

impl ZoneStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) a zone.
    pub fn insert(&mut self, zone: Zone) {
        match self.zones.iter_mut().find(|z| z.apex() == zone.apex()) {
            Some(held) => *held = zone,
            None => self.zones.push(zone),
        }
    }

    /// The best (deepest) zone for `qname`, if any.
    pub fn find(&self, qname: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| qname.is_subdomain_of(z.apex()))
            .max_by_key(|z| z.apex().label_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn deepest_zone_wins() {
        let mut store = ZoneStore::new();
        store.insert(Zone::new(n("com")));
        store.insert(Zone::new(n("example.com")));

        assert_eq!(
            store.find(&n("www.example.com")).unwrap().apex(),
            &n("example.com")
        );
        assert_eq!(store.find(&n("other.com")).unwrap().apex(), &n("com"));
        assert!(store.find(&n("example.org")).is_none());
    }

    #[test]
    fn root_zone_matches_everything() {
        let mut store = ZoneStore::new();
        store.insert(Zone::new(Name::root()));
        assert!(store.find(&n("anything.at.all")).is_some());
    }
}
