//! The authoritative query-processing state machine.

use crate::behavior::Behavior;
use crate::denial::{nodata_proof, nxdomain_proof, zone_nsec3_params};
use crate::layout::{self, push_rrset};
use crate::store::ZoneStore;
use ede_netsim::{Server, ServerResponse};
use ede_trace::{TraceEvent, Tracer, TracerCell};
use ede_wire::{Message, Name, Rcode, Rdata, RrType};
use ede_zone::{Rrset, Zone};
use std::borrow::Cow;
use std::net::IpAddr;

/// An authoritative nameserver: a zone store plus a behavior mode.
pub struct ZoneServer {
    store: ZoneStore,
    behavior: Behavior,
    tracer: TracerCell,
}

impl ZoneServer {
    /// A well-behaved server over `store`.
    pub fn new(store: ZoneStore) -> Self {
        ZoneServer {
            store,
            behavior: Behavior::Normal,
            tracer: TracerCell::default(),
        }
    }

    /// A server with an explicit behavior mode.
    pub fn with_behavior(store: ZoneStore, behavior: Behavior) -> Self {
        ZoneServer {
            store,
            behavior,
            tracer: TracerCell::default(),
        }
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

    /// Process one query.
    pub fn answer(&self, query: &Message) -> ServerResponse {
        let resp = self.answer_inner(query);
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

    fn answer_inner(&self, query: &Message) -> ServerResponse {
        if let Some(resp) = self.behavior.gate(query) {
            return resp;
        }
        let Some(q) = query.first_question() else {
            return ServerResponse::Reply(layout::rcode_only(query, Rcode::FormErr));
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
        if let Some(ns_set) = zone.find_delegation(&qname) {
            if ns_set.name == qname && qtype == RrType::Ds {
                self.answer_authoritative(&mut resp, zone, &qname, qtype, dnssec_ok);
            } else {
                self.answer_referral(&mut resp, zone, ns_set, dnssec_ok);
            }
            return ServerResponse::Reply(resp);
        }

        self.answer_authoritative(&mut resp, zone, &qname, qtype, dnssec_ok);
        ServerResponse::Reply(resp)
    }

    /// Fill a referral response for the delegation `ns_set`, the cut's NS
    /// RRset in `zone`.
    fn answer_referral(&self, resp: &mut Message, zone: &Zone, ns_set: &Rrset, dnssec_ok: bool) {
        let deleg = &ns_set.name;
        let ds = zone.get(deleg, RrType::Ds);
        // Glue for in-zone (or below-cut) nameserver names.
        let hosts = ns_set.rdatas.iter().filter_map(|rd| match rd {
            Rdata::Ns(ns_name) => Some(ns_name),
            _ => None,
        });
        let glue = hosts.flat_map(|host| zone.glue_for(host)).collect();
        layout::referral(
            resp,
            Cow::Borrowed(ns_set),
            ds.map(Cow::Borrowed),
            glue,
            dnssec_ok,
        );

        // An insecure delegation: the zone's own proof that no DS exists.
        if dnssec_ok && ds.is_none() {
            if let Some(params) = zone_nsec3_params(zone) {
                nodata_proof(zone, &params, deleg, &mut resp.authorities);
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
            return layout::positive(resp, Cow::Borrowed(set), dnssec_ok);
        }
        resp.authoritative = true;

        // Negative answers carry the SOA; signed zones add denial proofs.
        let soa = zone.soa();
        // A server that lost its NSEC3PARAM record no longer knows the
        // zone is NSEC3-signed: it cannot locate denial records and its
        // negative responses go out entirely unsigned — the behavior
        // behind the paper's `nsec3param-missing` / `no-nsec3param-nsec3`
        // cases.
        let params = dnssec_ok.then(|| zone_nsec3_params(zone)).flatten();
        let negative_dnssec = params.is_some();

        if zone.name_exists_or_ent(qname) {
            // NODATA.
            if let Some(soa) = soa {
                push_rrset(&mut resp.authorities, Cow::Borrowed(soa), negative_dnssec);
            }
            if let Some(params) = &params {
                nodata_proof(zone, params, qname, &mut resp.authorities);
            }
        } else {
            resp.rcode = Rcode::NxDomain;
            if let Some(soa) = soa {
                push_rrset(&mut resp.authorities, Cow::Borrowed(soa), negative_dnssec);
            }
            if let Some(params) = &params {
                nxdomain_proof(zone, params, qname, &mut resp.authorities);
            }
        }
    }
}

impl Server for ZoneServer {
    fn handle(&self, query: &Message, _src: IpAddr, _now: u32) -> ServerResponse {
        self.answer(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_wire::rdata::Soa;
    use ede_wire::{Edns, Record};
    use ede_zone::{signer, SignerConfig, ZoneKeys};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
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
        match server.answer(&q) {
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

        match make(Behavior::RefuseAll).answer(&q) {
            ServerResponse::Reply(m) => assert_eq!(m.rcode, Rcode::Refused),
            _ => panic!(),
        }
        match make(Behavior::ServfailAll).answer(&q) {
            ServerResponse::Reply(m) => assert_eq!(m.rcode, Rcode::ServFail),
            _ => panic!(),
        }
        match make(Behavior::NotAuthAll).answer(&q) {
            ServerResponse::Reply(m) => assert_eq!(m.rcode, Rcode::NotAuth),
            _ => panic!(),
        }
        assert!(matches!(
            make(Behavior::Timeout).answer(&q),
            ServerResponse::Drop
        ));
    }

    /// Every reply that carries an rcode alone — each fault gate's, the
    /// FORMERR to a question-less query, the REFUSED for no zone here —
    /// has one OPT shape: present for an EDNS query with its DO bit
    /// copied (RFC 3225 §3), absent for a plain query.
    #[test]
    fn rcode_only_replies_copy_do() {
        let make = |b| ZoneServer::with_behavior(ZoneStore::new(), b);
        let cases = [
            (Behavior::RefuseAll, true, Rcode::Refused),
            (Behavior::ServfailAll, true, Rcode::ServFail),
            (Behavior::NotAuthAll, true, Rcode::NotAuth),
            (Behavior::Normal, true, Rcode::Refused),
            (Behavior::Normal, false, Rcode::FormErr),
        ];
        for (behavior, with_question, rcode) in cases {
            for edns in [Some(true), Some(false), None] {
                let mut q = Message::iterative_query(9, n("x.example.com"), RrType::A);
                if !with_question {
                    q.questions.clear();
                }
                q.edns = edns.map(|dnssec_ok| Edns {
                    dnssec_ok,
                    ..Default::default()
                });
                let ServerResponse::Reply(m) = make(behavior.clone()).answer(&q) else {
                    panic!("{behavior:?} dropped the query");
                };
                assert_eq!(m.rcode, rcode, "{behavior:?}, EDNS {edns:?}");
                assert_eq!(m.edns.map(|e| e.dnssec_ok), edns, "{behavior:?}, {rcode:?}");
                assert!(m.answers.is_empty() && m.authorities.is_empty());
            }
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
        match s.answer(&q) {
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
        match s.answer(&q) {
            ServerResponse::Reply(m) => {
                assert!(m.answers.iter().any(|r| r.rtype() == RrType::A));
                assert!(!m.answers.iter().any(|r| r.rtype() == RrType::Rrsig));
            }
            _ => panic!(),
        }
    }
}
