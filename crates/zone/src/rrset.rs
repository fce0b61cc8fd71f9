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

    /// True when the set holds no rdatas.
    pub fn is_empty(&self) -> bool {
        self.rdatas.is_empty()
    }
}

/// Regroup a flat record list (one section of a response) into RRsets
/// with their covering RRSIGs attached — the inverse of serving.
pub fn collate(records: &[Record]) -> Vec<Rrset> {
    let mut sets: Vec<Rrset> = Vec::new();
    // Data records first.
    for rec in records {
        if rec.rtype() == RrType::Rrsig {
            continue;
        }
        match sets
            .iter_mut()
            .find(|s| s.name == rec.name && s.rtype == rec.rtype())
        {
            Some(set) => set.rdatas.push(rec.rdata.clone()),
            None => sets.push(Rrset {
                name: rec.name.clone(),
                rtype: rec.rtype(),
                ttl: rec.ttl,
                rdatas: vec![rec.rdata.clone()],
                sigs: Vec::new(),
            }),
        }
    }
    // Then attach signatures.
    for rec in records {
        if let Rdata::Rrsig(sig) = &rec.rdata {
            if let Some(set) = sets
                .iter_mut()
                .find(|s| s.name == rec.name && s.rtype == sig.type_covered)
            {
                set.sigs.push(sig.clone());
            }
        }
    }
    sets
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
}
