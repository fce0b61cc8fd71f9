//! The response layouts, over RRsets.
//!
//! Where each RRset of a referral or a positive answer goes does not
//! depend on where the RRset came from: [`crate::ZoneServer`] looks them
//! up in a [`ede_zone::Zone`], a server that knows its few answer shapes
//! in advance (the scan world's) builds them and needs no zone. Each
//! RRset comes as a [`Cow`]: one borrowed from a zone is copied into the
//! reply record by record, one built for the reply is moved into it.

use ede_wire::{Edns, Message, Rcode, Rdata, Record};
use ede_zone::Rrset;
use std::borrow::Cow;

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

/// A reply with `rcode` alone and [`reply_to`]'s header, question and OPT:
/// each fault, refusal and FORMERR an EDNS-aware server gives.
pub fn rcode_only(query: &Message, rcode: Rcode) -> Message {
    let (mut resp, _) = reply_to(query, true);
    resp.rcode = rcode;
    resp
}

/// Fill a referral: `ns` → authority; with DO, `proof` — the DS set of a
/// secure delegation or the NSEC3 matching an insecure one — and its
/// RRSIGs after it; `glue` is the additional section; AA clear.
pub fn referral(
    resp: &mut Message,
    ns: Cow<'_, Rrset>,
    proof: Option<Cow<'_, Rrset>>,
    glue: Vec<Record>,
    dnssec_ok: bool,
) {
    resp.authoritative = false;
    let proof = proof.filter(|_| dnssec_ok);
    let proof_len = proof.as_ref().map_or(0, |p| p.rdatas.len() + p.sigs.len());
    resp.authorities.reserve(ns.rdatas.len() + proof_len);
    push_rrset(&mut resp.authorities, ns, false);
    if let Some(proof) = proof {
        push_rrset(&mut resp.authorities, proof, true);
    }
    resp.additionals = glue;
}

/// Fill a positive answer: `set` (with DO, and its RRSIGs) → answer; AA
/// set.
pub fn positive(resp: &mut Message, set: Cow<'_, Rrset>, dnssec_ok: bool) {
    resp.authoritative = true;
    push_rrset(&mut resp.answers, set, dnssec_ok);
}

/// Append an RRset (and, when `dnssec` is set, its RRSIGs) to a section.
pub(crate) fn push_rrset(section: &mut Vec<Record>, set: Cow<'_, Rrset>, dnssec: bool) {
    section.reserve(set.rdatas.len() + if dnssec { set.sigs.len() } else { 0 });
    match set {
        Cow::Borrowed(set) => {
            section.extend(set.records());
            if dnssec {
                section.extend(set.sig_records());
            }
        }
        Cow::Owned(Rrset {
            name,
            ttl,
            rdatas,
            sigs,
            ..
        }) => {
            section.extend(
                rdatas
                    .into_iter()
                    .map(|rd| Record::new(name.clone(), ttl, rd)),
            );
            if dnssec {
                let sigs = sigs.into_iter().map(Rdata::Rrsig);
                section.extend(sigs.map(|rd| Record::new(name.clone(), ttl, rd)));
            }
        }
    }
}
