//! The response layouts, over RRsets.
//!
//! Where each RRset of a referral or a positive answer goes does not
//! depend on where the RRset came from: [`crate::ZoneServer`] looks them
//! up in a [`ede_zone::Zone`], a server that knows its few answer shapes
//! in advance (the scan world's) builds them and needs no zone.

use ede_wire::{Edns, Message, Record};
use ede_zone::Rrset;

/// Start the reply to `query`: its header and question mirrored, and,
/// for an EDNS-aware server answering an EDNS query, the server's OPT
/// with DO echoed. Returns the reply and whether DNSSEC records go in it.
pub fn reply_to(query: &Message, edns_aware: bool) -> (Message, bool) {
    let mut resp = Message::response_to(query);
    let edns = query.edns.as_ref().filter(|_| edns_aware);
    let dnssec_ok = edns.is_some_and(|e| e.dnssec_ok);
    resp.edns = edns.map(|_| Edns {
        dnssec_ok,
        ..Default::default()
    });
    (resp, dnssec_ok)
}

/// Fill a referral: `ns` → authority; with DO, `proof` — the DS set of a
/// secure delegation or the NSEC3 matching an insecure one — and its
/// RRSIGs after it; `glue` is the additional section; AA clear.
pub fn referral(
    resp: &mut Message,
    ns: &Rrset,
    proof: Option<&Rrset>,
    glue: Vec<Record>,
    dnssec_ok: bool,
) {
    resp.authoritative = false;
    resp.authorities.extend(ns.records());
    if let Some(proof) = proof.filter(|_| dnssec_ok) {
        push_rrset(&mut resp.authorities, proof, true);
    }
    resp.additionals = glue;
}

/// Fill a positive answer: `set` (with DO, and its RRSIGs) → answer; AA
/// set.
pub fn positive(resp: &mut Message, set: &Rrset, dnssec_ok: bool) {
    resp.authoritative = true;
    push_rrset(&mut resp.answers, set, dnssec_ok);
}

/// Append an RRset (and, when `dnssec` is set, its RRSIGs) to a section.
pub(crate) fn push_rrset(section: &mut Vec<Record>, set: &Rrset, dnssec: bool) {
    section.extend(set.records());
    if dnssec {
        section.extend(set.sig_records());
    }
}
