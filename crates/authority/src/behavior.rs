//! Server fault behaviors observed by the paper.

use crate::layout;
use ede_netsim::ServerResponse;
use ede_wire::{Message, Rcode};

/// How a server (mis)behaves before any zone logic runs.
///
/// These reproduce the §3 testbed ACL cases and the §4.2 wild-scan
/// failure modes: REFUSED (267 k nameservers), SERVFAIL (21 k), timeouts
/// (15 k), NOTAUTH (§4.2.13) and EDNS-oblivious servers (§4.2.6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Behavior {
    /// Answer normally.
    Normal,
    /// REFUSED to every client (`allow-query-none`, and the dominant
    /// broken-nameserver mode in the wild scan).
    RefuseAll,
    /// SERVFAIL to everything.
    ServfailAll,
    /// NOTAUTH to everything — unexpected outside TSIG processing, yet
    /// observed on 8 domains' nameservers (§4.2.13).
    NotAuthAll,
    /// Silently drop every query (dead host).
    Timeout,
    /// Pre-EDNS legacy server: answers, but ignores the OPT record and
    /// never includes one in responses (§4.2.6 *Invalid Data*).
    NoEdns,
}

impl Behavior {
    /// What a server with this behavior does with `query` before any
    /// zone logic runs, like a front-end ACL: drop it, answer
    /// the rcode alone ([`layout::rcode_only`]), or, with `None`, let it
    /// through to the zones.
    pub fn gate(&self, query: &Message) -> Option<ServerResponse> {
        let rcode = match self {
            Behavior::Timeout => return Some(ServerResponse::Drop),
            Behavior::RefuseAll => Rcode::Refused,
            Behavior::ServfailAll => Rcode::ServFail,
            Behavior::NotAuthAll => Rcode::NotAuth,
            Behavior::Normal | Behavior::NoEdns => return None,
        };
        Some(ServerResponse::Reply(layout::rcode_only(query, rcode)))
    }
}
