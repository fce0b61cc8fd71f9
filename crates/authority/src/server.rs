//! The authoritative query-processing state machine.

use crate::behavior::Behavior;
use crate::denial::{
    no_ds_proof, nodata_proof, nsec_nodata_proof, nsec_nxdomain_proof, nxdomain_proof,
    zone_nsec3_params, zone_uses_nsec,
};
use crate::layout::{self, push_rrset};
use crate::store::ZoneStore;
use ede_netsim::{Server, ServerResponse};
use ede_trace::{TraceEvent, Tracer, TracerCell};
use ede_wire::{Edns, Message, Name, Rcode, Rdata, RrType};
use ede_zone::Zone;
use std::net::IpAddr;

/// An authoritative nameserver: a zone store plus a behavior mode.
pub struct ZoneServer {
    store: ZoneStore,
    behavior: Behavior,
    tracer: TracerCell,
    payload_cap: Option<u16>,
}

impl ZoneServer {
    /// A well-behaved server over `store`.
    pub fn new(store: ZoneStore) -> Self {
        ZoneServer {
            store,
            behavior: Behavior::Normal,
            tracer: TracerCell::default(),
            payload_cap: None,
        }
    }

    /// A server with an explicit behavior mode.
    pub fn with_behavior(store: ZoneStore, behavior: Behavior) -> Self {
        ZoneServer {
            store,
            behavior,
            tracer: TracerCell::default(),
            payload_cap: None,
        }
    }

    /// Cap this server's UDP answers at `cap` bytes (floored at the
    /// classic 512): a datagram answer whose encoding exceeds
    /// `min(cap, the client's advertised EDNS payload size)` goes out
    /// as its TC=1 truncation instead, and the full answer is only
    /// served over the stream channel. No cap (the default) means the
    /// datagram path always carries the full answer.
    pub fn with_payload_cap(mut self, cap: u16) -> Self {
        self.payload_cap = Some(cap.max(512));
        self
    }

    /// Attach a tracer: every answered query emits an
    /// [`TraceEvent::AuthorityAnswer`] (dropped queries emit nothing —
    /// the client side records the timeout).
    pub fn set_tracer(&self, tracer: Tracer) {
        self.tracer.set(tracer);
    }

    /// The configured behavior.
    pub fn behavior(&self) -> &Behavior {
        &self.behavior
    }

    /// Zones served.
    pub fn store(&self) -> &ZoneStore {
        &self.store
    }

    /// Process one query.
    pub fn answer(&self, query: &Message, src: IpAddr) -> ServerResponse {
        let resp = self.answer_inner(query, src);
        if let ServerResponse::Reply(m) = &resp {
            let tracer = self.tracer.get();
            if tracer.enabled() {
                let zone = query
                    .first_question()
                    .and_then(|q| self.store.find(&q.name))
                    .map(|z| z.apex().to_string())
                    .unwrap_or_else(|| "-".to_string());
                tracer.emit(TraceEvent::AuthorityAnswer {
                    zone,
                    rcode: m.rcode.to_u16(),
                });
            }
        }
        resp
    }

    fn answer_inner(&self, query: &Message, src: IpAddr) -> ServerResponse {
        // Behavior gates run before any zone logic, like a front-end ACL.
        match &self.behavior {
            Behavior::Timeout => return ServerResponse::Drop,
            Behavior::RefuseAll => return rcode_reply(query, Rcode::Refused),
            Behavior::AllowOnly(allowed) if !allowed.contains(&src) => {
                return rcode_reply(query, Rcode::Refused)
            }
            Behavior::ServfailAll => return rcode_reply(query, Rcode::ServFail),
            Behavior::NotAuthAll => return rcode_reply(query, Rcode::NotAuth),
            Behavior::RefuseNonRecursive if !query.recursion_desired => {
                return rcode_reply(query, Rcode::Refused)
            }
            _ => {}
        }

        let Some(q) = query.first_question() else {
            return rcode_reply(query, Rcode::FormErr);
        };
        let qname = q.name.clone();
        let qtype = q.qtype;

        let (mut resp, dnssec_ok) = layout::reply_to(query, self.behavior != Behavior::NoEdns);

        let Some(zone) = self.store.find(&qname) else {
            resp.rcode = Rcode::Refused;
            return ServerResponse::Reply(resp);
        };

        // Zone-cut handling: DS is answered by the parent; everything
        // else at or below the cut gets a referral.
        if let Some(deleg) = zone.find_delegation(&qname) {
            let deleg_name = deleg.name.clone();
            if deleg_name == qname && qtype == RrType::Ds {
                self.answer_authoritative(&mut resp, zone, &qname, qtype, dnssec_ok);
            } else {
                self.answer_referral(&mut resp, zone, &deleg_name, dnssec_ok);
            }
            return ServerResponse::Reply(resp);
        }

        self.answer_authoritative(&mut resp, zone, &qname, qtype, dnssec_ok);
        ServerResponse::Reply(resp)
    }

    /// Fill a referral response for a delegation owned by `zone`.
    fn answer_referral(&self, resp: &mut Message, zone: &Zone, deleg: &Name, dnssec_ok: bool) {
        let ns_set = zone
            .get(deleg, RrType::Ns)
            .expect("caller verified the delegation");
        let ds = zone.get(deleg, RrType::Ds);
        // Glue for in-zone (or below-cut) nameserver names.
        let hosts = ns_set.rdatas.iter().filter_map(|rd| match rd {
            Rdata::Ns(ns_name) => Some(ns_name),
            _ => None,
        });
        let glue = hosts.flat_map(|host| zone.glue_for(host)).collect();
        layout::referral(resp, ns_set, ds, glue, dnssec_ok);

        // An insecure delegation: the zone's own proof that no DS exists.
        if dnssec_ok && ds.is_none() {
            if zone_uses_nsec(zone) {
                nsec_nodata_proof(zone, deleg, true, &mut resp.authorities);
            } else if let Some(params) = zone_nsec3_params(zone) {
                no_ds_proof(zone, &params, deleg, true, &mut resp.authorities);
            }
        }
    }

    /// Fill an authoritative answer (positive, NODATA, or NXDOMAIN).
    fn answer_authoritative(
        &self,
        resp: &mut Message,
        zone: &Zone,
        qname: &Name,
        qtype: RrType,
        dnssec_ok: bool,
    ) {
        if let Some(set) = zone.get(qname, qtype) {
            return layout::positive(resp, set, dnssec_ok);
        }
        resp.authoritative = true;

        // CNAME at the name (and the query is not for the CNAME itself):
        // answer the alias and chase in-zone.
        if qtype != RrType::Cname {
            let mut current = qname.clone();
            let mut chased = 0;
            while let Some(cname_set) = zone.get(&current, RrType::Cname) {
                push_rrset(&mut resp.answers, cname_set, dnssec_ok);
                let Some(Rdata::Cname(target)) = cname_set.rdatas.first() else {
                    break;
                };
                current = target.clone();
                chased += 1;
                if chased > 8 || !current.is_subdomain_of(zone.apex()) {
                    break;
                }
                if let Some(set) = zone.get(&current, qtype) {
                    push_rrset(&mut resp.answers, set, dnssec_ok);
                    break;
                }
            }
            if !resp.answers.is_empty() {
                return;
            }
        }

        // Negative answers carry the SOA; signed zones add denial proofs.
        let soa = zone.soa();
        let params = zone_nsec3_params(zone);
        let uses_nsec = zone_uses_nsec(zone);
        // A server that lost its NSEC3PARAM record no longer knows the
        // zone is NSEC3-signed: it cannot locate denial records and its
        // negative responses go out entirely unsigned — the behavior
        // behind the paper's `nsec3param-missing` / `no-nsec3param-nsec3`
        // cases. Plain-NSEC zones need no PARAM.
        let can_prove = uses_nsec || zone.get(zone.apex(), RrType::Nsec3param).is_some();
        let negative_dnssec = dnssec_ok && can_prove;

        if zone.name_exists_or_ent(qname) {
            // NODATA.
            if let Some(soa) = soa {
                push_rrset(&mut resp.authorities, soa, negative_dnssec);
            }
            if negative_dnssec {
                if uses_nsec {
                    nsec_nodata_proof(zone, qname, true, &mut resp.authorities);
                } else if let Some(params) = &params {
                    nodata_proof(zone, params, qname, true, &mut resp.authorities);
                }
            }
        } else {
            resp.rcode = Rcode::NxDomain;
            if let Some(soa) = soa {
                push_rrset(&mut resp.authorities, soa, negative_dnssec);
            }
            if negative_dnssec {
                if uses_nsec {
                    nsec_nxdomain_proof(zone, qname, true, &mut resp.authorities);
                } else if let Some(params) = &params {
                    nxdomain_proof(zone, params, qname, true, &mut resp.authorities);
                }
            }
        }
    }
}

impl Server for ZoneServer {
    fn handle(&self, query: &Message, src: IpAddr, _now: u32) -> ServerResponse {
        let resp = self.answer(query, src);
        let Some(cap) = self.payload_cap else {
            return resp;
        };
        match resp {
            ServerResponse::Reply(m) => {
                let limit = cap.min(query.advertised_payload_size());
                if !m.truncated && m.encoded_len() > usize::from(limit) {
                    ServerResponse::Reply(m.truncated_copy())
                } else {
                    ServerResponse::Reply(m)
                }
            }
            drop => drop,
        }
    }

    fn handle_stream(&self, query: &Message, src: IpAddr, _now: u32) -> ServerResponse {
        // Streams have no size limit: the full answer, cap or not.
        self.answer(query, src)
    }
}

/// A minimal reply carrying only an RCODE (and mirrored EDNS).
fn rcode_reply(query: &Message, rcode: Rcode) -> ServerResponse {
    let mut resp = Message::response_to(query);
    resp.rcode = rcode;
    if query.edns.is_some() {
        resp.edns = Some(Edns::default());
    }
    ServerResponse::Reply(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_wire::rdata::Soa;
    use ede_wire::Record;
    use ede_zone::{signer, SignerConfig, ZoneKeys};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn client() -> IpAddr {
        "203.0.113.99".parse().unwrap()
    }

    fn soa_rdata(apex: &str) -> Rdata {
        Rdata::Soa(Soa {
            mname: n(&format!("ns1.{apex}")),
            rname: n(&format!("hostmaster.{apex}")),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        })
    }

    /// A signed example.com with one secure and one insecure delegation.
    fn build_server() -> ZoneServer {
        let apex = n("example.com");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(apex.clone(), 3600, soa_rdata("example.com")));
        z.add(Record::new(
            apex.clone(),
            3600,
            Rdata::Ns(n("ns1.example.com")),
        ));
        z.add_a(n("ns1.example.com"), "192.0.2.1".parse().unwrap());
        z.add_a(apex.clone(), "192.0.2.2".parse().unwrap());
        z.add_a(n("www.example.com"), "192.0.2.3".parse().unwrap());
        z.add(Record::new(
            n("alias.example.com"),
            3600,
            Rdata::Cname(n("www.example.com")),
        ));
        // Secure delegation.
        z.add(Record::new(
            n("secure.example.com"),
            3600,
            Rdata::Ns(n("ns.secure.example.com")),
        ));
        z.add_a(n("ns.secure.example.com"), "192.0.2.10".parse().unwrap());
        z.add(Record::new(
            n("secure.example.com"),
            3600,
            Rdata::Ds {
                key_tag: 11,
                algorithm: 8,
                digest_type: 2,
                digest: vec![0xaa; 32],
            },
        ));
        // Insecure delegation.
        z.add(Record::new(
            n("insecure.example.com"),
            3600,
            Rdata::Ns(n("ns.insecure.example.com")),
        ));
        z.add_a(n("ns.insecure.example.com"), "192.0.2.11".parse().unwrap());

        let keys = ZoneKeys::generate(&apex, 8, 2048);
        signer::sign_zone(&mut z, &keys, &SignerConfig::default());

        let mut store = ZoneStore::new();
        store.insert(z);
        ZoneServer::new(store)
    }

    fn reply(server: &ZoneServer, name: &str, qtype: RrType) -> Message {
        let q = Message::iterative_query(1, n(name), qtype);
        match server.answer(&q, client()) {
            ServerResponse::Reply(m) => m,
            ServerResponse::Drop => panic!("server dropped the query"),
        }
    }

    #[test]
    fn positive_answer_with_rrsigs() {
        let s = build_server();
        let m = reply(&s, "www.example.com", RrType::A);
        assert_eq!(m.rcode, Rcode::NoError);
        assert!(m.authoritative);
        assert!(m.answers.iter().any(|r| r.rtype() == RrType::A));
        assert!(m.answers.iter().any(|r| r.rtype() == RrType::Rrsig));
    }

    #[test]
    fn cname_is_chased_in_zone() {
        let s = build_server();
        let m = reply(&s, "alias.example.com", RrType::A);
        assert!(m.answers.iter().any(|r| r.rtype() == RrType::Cname));
        assert!(m.answers.iter().any(|r| r.rtype() == RrType::A));
    }

    #[test]
    fn nodata_with_proof() {
        let s = build_server();
        let m = reply(&s, "www.example.com", RrType::Aaaa);
        assert_eq!(m.rcode, Rcode::NoError);
        assert!(m.answers.is_empty());
        assert!(m.authorities.iter().any(|r| r.rtype() == RrType::Soa));
        assert!(m.authorities.iter().any(|r| r.rtype() == RrType::Nsec3));
    }

    #[test]
    fn nxdomain_with_proof() {
        let s = build_server();
        let m = reply(&s, "missing.example.com", RrType::A);
        assert_eq!(m.rcode, Rcode::NxDomain);
        let nsec3s = m
            .authorities
            .iter()
            .filter(|r| r.rtype() == RrType::Nsec3)
            .count();
        assert!(nsec3s >= 2);
    }

    #[test]
    fn payload_cap_truncates_udp_but_not_stream() {
        let s = build_server().with_payload_cap(512);
        // A signed NXDOMAIN carries several NSEC3s + RRSIGs — far more
        // than 512 bytes.
        let q = Message::iterative_query(1, n("missing.example.com"), RrType::A);
        let udp = match s.handle(&q, client(), 0) {
            ServerResponse::Reply(m) => m,
            ServerResponse::Drop => panic!("dropped"),
        };
        assert!(udp.truncated, "oversized datagram answer must set TC");
        assert!(udp.answers.is_empty() && udp.authorities.is_empty());
        assert_eq!(udp.rcode, Rcode::NxDomain, "rcode survives truncation");
        assert!(udp.encoded_len() <= 512);

        let tcp = match s.handle_stream(&q, client(), 0) {
            ServerResponse::Reply(m) => m,
            ServerResponse::Drop => panic!("dropped"),
        };
        assert!(!tcp.truncated);
        assert!(tcp.authorities.iter().any(|r| r.rtype() == RrType::Nsec3));

        // Small answers pass the datagram path whole.
        let small = reply(&s, "www.example.com", RrType::A);
        let _ = small; // `reply` goes through answer(); check via handle:
        let sq = Message::iterative_query(2, n("example.com"), RrType::Soa);
        if let ServerResponse::Reply(m) = s.handle(&sq, client(), 0) {
            assert!(!m.truncated || m.encoded_len() > 512);
        }
    }

    #[test]
    fn secure_referral_carries_ds() {
        let s = build_server();
        let m = reply(&s, "host.secure.example.com", RrType::A);
        assert!(!m.authoritative);
        assert!(m.authorities.iter().any(|r| r.rtype() == RrType::Ns));
        assert!(m.authorities.iter().any(|r| r.rtype() == RrType::Ds));
        assert!(
            m.additionals.iter().any(|r| r.rtype() == RrType::A),
            "glue expected"
        );
    }

    #[test]
    fn insecure_referral_carries_nsec3_opt_out_proof() {
        let s = build_server();
        let m = reply(&s, "host.insecure.example.com", RrType::A);
        assert!(m.authorities.iter().any(|r| r.rtype() == RrType::Ns));
        assert!(!m.authorities.iter().any(|r| r.rtype() == RrType::Ds));
        assert!(m.authorities.iter().any(|r| r.rtype() == RrType::Nsec3));
    }

    #[test]
    fn ds_query_answered_by_parent_side() {
        let s = build_server();
        let m = reply(&s, "secure.example.com", RrType::Ds);
        assert!(m.authoritative);
        assert!(m.answers.iter().any(|r| r.rtype() == RrType::Ds));
        assert!(m.answers.iter().any(|r| r.rtype() == RrType::Rrsig));
    }

    #[test]
    fn out_of_zone_is_refused() {
        let s = build_server();
        let m = reply(&s, "elsewhere.org", RrType::A);
        assert_eq!(m.rcode, Rcode::Refused);
    }

    #[test]
    fn behavior_gates() {
        let make = |b| ZoneServer::with_behavior(ZoneStore::new(), b);
        let q = Message::iterative_query(9, n("x.example.com"), RrType::A);

        match make(Behavior::RefuseAll).answer(&q, client()) {
            ServerResponse::Reply(m) => assert_eq!(m.rcode, Rcode::Refused),
            _ => panic!(),
        }
        match make(Behavior::ServfailAll).answer(&q, client()) {
            ServerResponse::Reply(m) => assert_eq!(m.rcode, Rcode::ServFail),
            _ => panic!(),
        }
        match make(Behavior::NotAuthAll).answer(&q, client()) {
            ServerResponse::Reply(m) => assert_eq!(m.rcode, Rcode::NotAuth),
            _ => panic!(),
        }
        assert!(matches!(
            make(Behavior::Timeout).answer(&q, client()),
            ServerResponse::Drop
        ));
    }

    #[test]
    fn acl_allows_listed_sources_only() {
        let s = ZoneServer::with_behavior(ZoneStore::new(), Behavior::allow_localhost_only());
        let q = Message::iterative_query(9, n("x.example.com"), RrType::A);
        match s.answer(&q, client()) {
            ServerResponse::Reply(m) => assert_eq!(m.rcode, Rcode::Refused),
            _ => panic!(),
        }
        // Localhost gets past the ACL (then REFUSED for no zone — but
        // with a different path: the zone lookup).
        match s.answer(&q, "127.0.0.1".parse().unwrap()) {
            ServerResponse::Reply(m) => assert_eq!(m.rcode, Rcode::Refused),
            _ => panic!(),
        }
    }

    #[test]
    fn refuse_non_recursive_passes_rd_queries() {
        let store_server = ZoneServer::with_behavior(
            {
                let mut st = ZoneStore::new();
                st.insert(Zone::new(n("example.com")));
                st
            },
            Behavior::RefuseNonRecursive,
        );
        let iterative = Message::iterative_query(1, n("example.com"), RrType::A);
        match store_server.answer(&iterative, client()) {
            ServerResponse::Reply(m) => assert_eq!(m.rcode, Rcode::Refused),
            _ => panic!(),
        }
        let recursive = Message::query(1, n("example.com"), RrType::A);
        match store_server.answer(&recursive, client()) {
            ServerResponse::Reply(m) => assert_ne!(m.rcode, Rcode::Refused),
            _ => panic!(),
        }
    }

    #[test]
    fn no_edns_server_omits_opt() {
        let apex = n("legacy.example");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(apex.clone(), 3600, soa_rdata("legacy.example")));
        z.add_a(apex, "192.0.2.77".parse().unwrap());
        let mut store = ZoneStore::new();
        store.insert(z);
        let s = ZoneServer::with_behavior(store, Behavior::NoEdns);
        let q = Message::iterative_query(1, n("legacy.example"), RrType::A);
        match s.answer(&q, client()) {
            ServerResponse::Reply(m) => {
                assert!(m.edns.is_none(), "legacy server must not echo OPT");
                assert!(m.answers.iter().any(|r| r.rtype() == RrType::A));
                assert!(
                    !m.answers.iter().any(|r| r.rtype() == RrType::Rrsig),
                    "no EDNS implies no DO implies no DNSSEC records"
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn without_do_bit_no_dnssec_records() {
        let s = build_server();
        let mut q = Message::iterative_query(1, n("www.example.com"), RrType::A);
        q.edns.as_mut().unwrap().dnssec_ok = false;
        match s.answer(&q, client()) {
            ServerResponse::Reply(m) => {
                assert!(m.answers.iter().any(|r| r.rtype() == RrType::A));
                assert!(!m.answers.iter().any(|r| r.rtype() == RrType::Rrsig));
            }
            _ => panic!(),
        }
    }
}
