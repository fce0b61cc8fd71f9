//! RRsets: a set of records sharing (owner, type), with attached RRSIGs.

use ede_wire::rdata::Rrsig;
use ede_wire::{Name, Rdata, Record, RrType};

/// One RRset plus the RRSIG records covering it.
///
/// DNSSEC operates on RRsets, not individual records: one signature covers
/// the whole set, and validators reassemble the set before checking. Keeping
/// the covering signatures *inside* the set mirrors that and makes the
/// Table 3 mutations ("remove the RRSIG over the A RRset", "corrupt the
/// RRSIG over the DNSKEY RRset") single-object edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rrset {
    /// Owner name.
    pub name: Name,
    /// RR type of every rdata in the set.
    pub rtype: RrType,
    /// Shared TTL.
    pub ttl: u32,
    /// The member rdatas. Invariant: each `rdata.rtype() == self.rtype`.
    pub rdatas: Vec<Rdata>,
    /// RRSIGs covering this set (empty when unsigned).
    pub sigs: Vec<Rrsig>,
}

impl Rrset {
    /// New, unsigned RRset from one rdata.
    pub fn new(name: Name, ttl: u32, rdata: Rdata) -> Self {
        Rrset {
            name,
            rtype: rdata.rtype(),
            ttl,
            rdatas: vec![rdata],
            sigs: Vec::new(),
        }
    }

    /// New, empty RRset of an explicit type (rdatas added later).
    pub fn empty(name: Name, rtype: RrType, ttl: u32) -> Self {
        Rrset {
            name,
            rtype,
            ttl,
            rdatas: Vec::new(),
            sigs: Vec::new(),
        }
    }

    /// Add an rdata. Panics in debug builds if the type disagrees —
    /// that is always a caller bug, never runtime data.
    pub fn push(&mut self, rdata: Rdata) {
        debug_assert_eq!(rdata.rtype(), self.rtype);
        self.rdatas.push(rdata);
    }

    /// Materialize the data records (without signatures).
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        self.rdatas
            .iter()
            .map(move |rd| Record::new(self.name.clone(), self.ttl, rd.clone()))
    }

    /// Materialize the RRSIG records.
    pub fn sig_records(&self) -> impl Iterator<Item = Record> + '_ {
        self.sigs
            .iter()
            .map(move |sig| Record::new(self.name.clone(), self.ttl, Rdata::Rrsig(sig.clone())))
    }
}

/// An RRset read in place: an [`Rrset`], or the records of one (owner,
/// type) in a message section and the RRSIGs there that cover them. What
/// a validator reads of a reply, without copying the reply's records
/// into [`Rrset`]s.
#[derive(Debug, Clone, Copy)]
pub struct RrsetRef<'a> {
    name: &'a Name,
    rtype: RrType,
    source: Source<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    Set(&'a Rrset),
    Section(&'a [Record]),
}

impl<'a> From<&'a Rrset> for RrsetRef<'a> {
    fn from(set: &'a Rrset) -> Self {
        RrsetRef {
            name: &set.name,
            rtype: set.rtype,
            source: Source::Set(set),
        }
    }
}

impl<'a> RrsetRef<'a> {
    /// Owner name.
    pub fn name(self) -> &'a Name {
        self.name
    }

    /// RR type of every rdata in the set.
    pub fn rtype(self) -> RrType {
        self.rtype
    }

    /// The member rdatas, in the order the set or the section holds them.
    pub fn rdatas(self) -> impl Iterator<Item = &'a Rdata> + Clone + 'a {
        let (set, section) = match self.source {
            Source::Set(set) => (Some(set.rdatas.iter()), None),
            Source::Section(records) => {
                let (name, rtype) = (self.name, self.rtype);
                let members = records
                    .iter()
                    .filter(move |r| r.rtype() == rtype && r.name == *name)
                    .map(|r| &r.rdata);
                (None, Some(members))
            }
        };
        set.into_iter()
            .flatten()
            .chain(section.into_iter().flatten())
    }

    /// The RRSIGs covering the set.
    pub fn sigs(self) -> impl Iterator<Item = &'a Rrsig> + Clone + 'a {
        let (set, section) = match self.source {
            Source::Set(set) => (Some(set.sigs.iter()), None),
            Source::Section(records) => {
                let (name, rtype) = (self.name, self.rtype);
                let covering = records.iter().filter_map(move |r| match &r.rdata {
                    Rdata::Rrsig(sig) if sig.type_covered == rtype && r.name == *name => Some(sig),
                    _ => None,
                });
                (None, Some(covering))
            }
        };
        set.into_iter()
            .flatten()
            .chain(section.into_iter().flatten())
    }
}

/// The RRsets of a flat record list (one section of a response), read in
/// place, in the order their first records appear, each with the RRSIGs
/// that cover it; an RRSIG that covers no set of the section is in none.
/// The inverse of serving.
pub fn sets_in(records: &[Record]) -> impl Iterator<Item = RrsetRef<'_>> {
    records.iter().enumerate().filter_map(move |(i, rec)| {
        let (name, rtype) = (&rec.name, rec.rtype());
        let first = rtype != RrType::Rrsig
            && !records[..i]
                .iter()
                .any(|r| r.rtype() == rtype && r.name == *name);
        first.then_some(RrsetRef {
            name,
            rtype,
            source: Source::Section(records),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_materialize() {
        let mut set = Rrset::new(
            Name::parse("example.com").unwrap(),
            300,
            Rdata::A("192.0.2.1".parse().unwrap()),
        );
        set.push(Rdata::A("192.0.2.2".parse().unwrap()));
        let recs: Vec<Record> = set.records().collect();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.rtype() == RrType::A && r.ttl == 300));
        assert!(set.sig_records().next().is_none());
    }

    #[test]
    fn a_section_reads_as_its_sets() {
        let n = |s: &str| Name::parse(s).unwrap();
        let a = |last: u8| Rdata::A(std::net::Ipv4Addr::new(192, 0, 2, last));
        let sig = |covered: RrType, tag: u16| {
            Rdata::Rrsig(Rrsig {
                type_covered: covered,
                algorithm: 8,
                labels: 2,
                original_ttl: 300,
                expiration: 2,
                inception: 1,
                key_tag: tag,
                signer: n("example.com"),
                signature: vec![tag as u8],
            })
        };
        let records = vec![
            Record::new(n("example.com"), 300, sig(RrType::A, 1)),
            Record::new(n("example.com"), 300, a(1)),
            Record::new(n("www.example.com"), 300, a(9)),
            Record::new(n("example.com"), 300, a(2)),
            Record::new(n("example.com"), 300, sig(RrType::A, 2)),
            Record::new(n("example.com"), 300, sig(RrType::Ns, 3)),
        ];
        let sets: Vec<RrsetRef<'_>> = sets_in(&records).collect();
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].name(), &n("example.com"));
        assert_eq!(sets[0].rdatas().cloned().collect::<Vec<_>>(), [a(1), a(2)]);
        let tags: Vec<u16> = sets[0].sigs().map(|s| s.key_tag).collect();
        assert_eq!(tags, [1, 2]);
        assert_eq!(sets[1].name(), &n("www.example.com"));
        assert_eq!(sets[1].rdatas().count(), 1);
        assert_eq!(sets[1].sigs().count(), 0);

        let mut set = Rrset::new(n("example.com"), 300, a(1));
        set.push(a(2));
        let view = RrsetRef::from(&set);
        assert_eq!(view.rdatas().cloned().collect::<Vec<_>>(), [a(1), a(2)]);
        assert_eq!(view.rtype(), RrType::A);
    }
}
