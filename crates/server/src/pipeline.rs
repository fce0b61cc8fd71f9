//! The transport-independent request pipeline.
//!
//! Both front ends — UDP shard workers and TCP connection handlers —
//! funnel raw request bytes through one crate-internal step that runs
//! 1 and 2 and counts their decisions; 3 is the datagram transport's
//! own:
//!
//! 1. [`classify`] decides what the bytes are: a resolvable query, a
//!    protocol violation answered with FORMERR/NOTIMP/REFUSED/BADVERS, or
//!    garbage that is silently dropped. The policy is explicit (and
//!    tested) rather than the historical demo behaviour of answering
//!    FORMERR to anything:
//!
//!    | Input | Disposition |
//!    |---|---|
//!    | shorter than a 12-byte DNS header | **drop** (no ID to echo — any reply would be a forgery oracle) |
//!    | QR bit set (a response, not a query) | **drop** (never answer answers: reflection-loop hygiene) |
//!    | opcode ≠ QUERY (IQUERY, STATUS, NOTIFY, UPDATE …) | **NOTIMP**, echoing ID and opcode, carrying the server's own OPT if the body decodes and has a version-0 one |
//!    | a second OPT, an OPT outside the additional section, or one not at the root | **FORMERR** (RFC 6891 §6.1.1), echoing ID, opcode and RD, carrying the server's own OPT: the query did send one |
//!    | header valid but body undecodable | **FORMERR**, echoing ID, opcode and RD |
//!    | OPT present with version ≠ 0 | **BADVERS** (RFC 6891 §6.1.3), echoing ID, RD and the question, carrying the server's own OPT (version 0) and no answer |
//!    | no question | **FORMERR**, echoing ID, opcode and RD |
//!    | question class ≠ IN | **REFUSED**, echoing the question |
//!    | otherwise | resolve |
//!    | OPT present, DO bit either way | the same DO bit in every OPT sent back (RFC 3225 §3, RFC 6891 §6.1.4): the answer, NOTIMP, BADVERS, the no-question FORMERR, REFUSED |
//!    | OPT with an option the server does not know | ignored, never echoed (RFC 6891 §6.1.2) |
//!    | OPT advertising fewer than 512 bytes | served as 512 (RFC 6891 §6.2.3) |
//!
//!    Down to "otherwise" the first matching row wins: BADVERS is a MUST
//!    for any higher version, so it goes ahead of every reply that would
//!    carry a version-0 OPT as if the request's had been understood. The
//!    last three rows are not dispositions: they hold for whichever reply
//!    the rows above chose.
//!
//! 2. [`answer`] resolves the query through the attached [`Resolver`]
//!    (full recursion, validation, vendor EDE emission) and moves the
//!    resolution into the response, honoring EDNS presence: a client
//!    that sent no OPT record gets none back (and therefore no EDE
//!    options — RFC 8914 signals require EDNS). A hit on the answer
//!    cache costs one probe: the entry keeps the EDE list and the
//!    diagnosis, so nothing is emitted or deep-copied per request.
//! 3. [`encode_udp`] encodes for the datagram transport, truncating to
//!    TC=1 when the response exceeds the negotiated payload limit so
//!    the client retries over TCP. Stream transports encode directly —
//!    a TCP answer is never truncated, which is what makes the TC=1 →
//!    TCP retry bit-identical to the untruncated message.

use ede_resolver::Resolver;
use ede_trace::Metrics;
use ede_wire::{Class, Edns, Header, Message, Opcode, Rcode, WireError};

/// Why a datagram was dropped without any reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Fewer than 12 bytes: no complete header, so no ID to echo.
    TooShort,
    /// The QR bit was set — this is a response, and answering responses
    /// builds reflection loops.
    UnexpectedResponse,
}

/// Which rejection RCODE a malformed query earned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectKind {
    /// Undecodable body or empty question section.
    FormErr,
    /// An opcode this server does not implement.
    NotImp,
    /// A question outside the served class (IN).
    Refused,
    /// An EDNS version this server does not implement (anything but 0).
    BadVers,
}

/// What [`classify`] decided about one request's bytes.
#[derive(Debug)]
pub enum QueryDisposition {
    /// A well-formed IN-class QUERY: resolve it.
    Resolve(Message),
    /// A protocol violation with enough structure to answer: send the
    /// pre-built rejection.
    Reject(Box<Message>, RejectKind),
    /// Not answerable at all.
    Drop(DropReason),
}

/// Build a minimal rejection echoing what the request gave us.
fn reject(header: &Header, rcode: Rcode) -> Message {
    Message {
        id: header.id,
        response: true,
        opcode: header.opcode,
        recursion_desired: header.recursion_desired,
        recursion_available: true,
        rcode,
        ..Default::default()
    }
}

/// Classify one request's raw bytes (see the module table for the
/// policy).
pub fn classify(wire: &[u8]) -> QueryDisposition {
    if wire.len() < Header::LEN {
        return QueryDisposition::Drop(DropReason::TooShort);
    }
    let header = match Header::decode(wire) {
        Ok(h) => h,
        Err(_) => return QueryDisposition::Drop(DropReason::TooShort),
    };
    if header.response {
        return QueryDisposition::Drop(DropReason::UnexpectedResponse);
    }
    if header.opcode != Opcode::Query {
        let mut m = reject(&header, Rcode::NotImp);
        // Another opcode's body need not read as a query's; an OPT this
        // server understands is answered with one all the same.
        let sent = Message::decode(wire).ok().and_then(|q| q.edns);
        m.edns = sent.filter(|e| e.version == 0).as_ref().map(Edns::reply);
        return QueryDisposition::Reject(Box::new(m), RejectKind::NotImp);
    }
    let query = match Message::decode(wire) {
        Ok(q) => q,
        Err(e) => {
            let mut m = reject(&header, Rcode::FormErr);
            // A broken OPT is still an OPT: the client speaks EDNS.
            m.edns = (e == WireError::BadOpt).then(Edns::default);
            return QueryDisposition::Reject(Box::new(m), RejectKind::FormErr);
        }
    };
    // The server's own OPT, for a reply to a query that carried one.
    let own_opt = query.edns.as_ref().map(Edns::reply);
    if query.edns.as_ref().is_some_and(|e| e.version != 0) {
        let mut m = reject(&header, Rcode::BadVers);
        m.questions = query.questions.clone();
        m.edns = own_opt;
        return QueryDisposition::Reject(Box::new(m), RejectKind::BadVers);
    }
    let Some(q) = query.first_question() else {
        let mut m = reject(&header, Rcode::FormErr);
        m.edns = own_opt;
        return QueryDisposition::Reject(Box::new(m), RejectKind::FormErr);
    };
    if q.qclass != Class::In {
        let mut m = reject(&header, Rcode::Refused);
        m.questions = query.questions.clone();
        m.edns = own_opt;
        return QueryDisposition::Reject(Box::new(m), RejectKind::Refused);
    }
    QueryDisposition::Resolve(query)
}

/// Resolve a classified query and render the wire response.
///
/// The middle parameter is a shim: it was the worker's L1 tier, which is
/// gone, and only `None` fills it. `benchmark/src/inproc.rs` still writes
/// that `None`; ROADMAP item 3's benchmark-only PR removes the parameter.
pub fn answer(
    resolver: &Resolver,
    _l1: Option<std::convert::Infallible>,
    query: &Message,
) -> Message {
    let q = query
        .first_question()
        .expect("classify() only yields Resolve for messages with a question");
    let mut resp = resolver.resolve(&q.name, q.qtype).into_message(query);
    if query.edns.is_none() {
        // RFC 6891: never volunteer an OPT record (or EDE options riding
        // on it) to a client that did not signal EDNS support.
        resp.edns = None;
    }
    resp
}

/// What one request's bytes earned: what the transport must send.
pub(crate) enum Reply {
    /// Dropped; nothing goes back.
    Nothing,
    /// A protocol violation's pre-built rejection.
    Rejection(Message),
    /// The resolved answer, with the query it answers (the datagram
    /// transport needs its EDNS advertisement to encode).
    Answer(Message, Message),
}

/// The request path both transports share: [`classify`], count the
/// disposition, [`answer`].
pub(crate) fn serve(resolver: &Resolver, metrics: &Metrics, wire: &[u8]) -> Reply {
    match classify(wire) {
        QueryDisposition::Drop(_) => {
            metrics.dropped();
            Reply::Nothing
        }
        QueryDisposition::Reject(reply, kind) => {
            match kind {
                RejectKind::FormErr => metrics.rejected_formerr(),
                RejectKind::NotImp => metrics.rejected_notimp(),
                RejectKind::Refused => metrics.rejected_refused(),
                RejectKind::BadVers => metrics.rejected_badvers(),
            }
            Reply::Rejection(*reply)
        }
        QueryDisposition::Resolve(query) => Reply::Answer(answer(resolver, None, &query), query),
    }
}

/// Encode `reply` for the UDP transport, truncating when it exceeds the
/// negotiated payload limit.
///
/// The limit is `min(client's EDNS advertisement floored at 512,
/// server-side cap)`; over-limit responses become a TC=1 copy carrying
/// header, question and OPT only (partial sections must never be
/// consumed). Returns the bytes to send and whether they carry TC=1.
pub fn encode_udp(
    reply: &Message,
    query: &Message,
    udp_payload_max: u16,
) -> Result<(Vec<u8>, bool), WireError> {
    let mut wire = Vec::with_capacity(512);
    encode_udp_into(reply, query, udp_payload_max, &mut wire).map(|truncated| (wire, truncated))
}

/// [`encode_udp`] appended to `out` (left as found on error), for a
/// worker that reuses one buffer. Returns whether the bytes carry TC=1.
pub(crate) fn encode_udp_into(
    reply: &Message,
    query: &Message,
    udp_payload_max: u16,
    out: &mut Vec<u8>,
) -> Result<bool, WireError> {
    let base = out.len();
    reply.encode_into(out)?;
    let limit = usize::from(query.advertised_payload_size().min(udp_payload_max));
    if out.len() - base <= limit {
        return Ok(false);
    }
    out.truncate(base);
    reply.truncated_copy().encode_into(out)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_resolver::Vendor;
    use ede_testbed::Testbed;
    use ede_wire::{Edns, Name, Question, RrType};

    fn query_bytes(mutate: impl FnOnce(&mut Message)) -> Vec<u8> {
        let mut m = Message::query(
            0x1234,
            Name::parse("valid.extended-dns-errors.com").unwrap(),
            RrType::A,
        );
        mutate(&mut m);
        m.encode().unwrap()
    }

    #[test]
    fn too_short_is_dropped() {
        assert!(matches!(
            classify(&[0xAB, 0xCD, 0xFF]),
            QueryDisposition::Drop(DropReason::TooShort)
        ));
        assert!(matches!(
            classify(&[]),
            QueryDisposition::Drop(DropReason::TooShort)
        ));
    }

    #[test]
    fn responses_are_dropped_not_answered() {
        let wire = query_bytes(|m| m.response = true);
        assert!(matches!(
            classify(&wire),
            QueryDisposition::Drop(DropReason::UnexpectedResponse)
        ));
    }

    #[test]
    fn unknown_opcode_gets_notimp_with_echoed_identity() {
        let wire = query_bytes(|m| m.opcode = Opcode::Status);
        match classify(&wire) {
            QueryDisposition::Reject(m, RejectKind::NotImp) => {
                assert_eq!(m.id, 0x1234);
                assert_eq!(m.opcode, Opcode::Status);
                assert_eq!(m.rcode, Rcode::NotImp);
                assert!(m.response && m.recursion_available);
                assert_eq!(m.edns, Some(Edns::with_do()), "the server's OPT, DO copied");
            }
            other => panic!("expected NOTIMP, got {other:?}"),
        }
        // No OPT sent, none back; and a body that does not decode
        // leaves a bare NOTIMP.
        let mut plain = query_bytes(|m| (m.opcode, m.edns) = (Opcode::Status, None));
        for cut in [plain.len(), 14] {
            plain.truncate(cut);
            match classify(&plain) {
                QueryDisposition::Reject(m, RejectKind::NotImp) => assert_eq!(m.edns, None),
                other => panic!("expected NOTIMP, got {other:?}"),
            }
        }
    }

    #[test]
    fn undecodable_body_gets_formerr_with_echoed_id() {
        // Valid header claiming one question, followed by garbage.
        let mut wire = query_bytes(|_| {});
        wire.truncate(14); // cut mid-question
        match classify(&wire) {
            QueryDisposition::Reject(m, RejectKind::FormErr) => {
                assert_eq!(m.id, 0x1234);
                assert_eq!(m.rcode, Rcode::FormErr);
                assert!(m.questions.is_empty());
            }
            other => panic!("expected FORMERR, got {other:?}"),
        }
    }

    #[test]
    fn empty_question_section_gets_formerr() {
        let mut m = Message {
            id: 7,
            recursion_desired: true,
            edns: Some(Edns::with_do()),
            ..Default::default()
        };
        m.response = false;
        let wire = m.encode().unwrap();
        match classify(&wire) {
            QueryDisposition::Reject(r, RejectKind::FormErr) => {
                assert_eq!(r.id, 7);
                assert!(r.edns.is_some(), "EDNS presence echoed");
            }
            other => panic!("expected FORMERR, got {other:?}"),
        }
    }

    #[test]
    fn non_in_class_gets_refused_with_question_echoed() {
        let wire = query_bytes(|m| m.questions[0].qclass = Class::Ch);
        match classify(&wire) {
            QueryDisposition::Reject(m, RejectKind::Refused) => {
                assert_eq!(m.rcode, Rcode::Refused);
                assert_eq!(m.questions.len(), 1);
                assert_eq!(m.questions[0].qclass, Class::Ch);
            }
            other => panic!("expected REFUSED, got {other:?}"),
        }
    }

    #[test]
    fn unknown_edns_version_gets_badvers_with_the_servers_own_opt() {
        let wire = query_bytes(|m| {
            m.edns = Some(Edns {
                version: 1,
                ..Edns::with_do()
            })
        });
        match classify(&wire) {
            QueryDisposition::Reject(m, RejectKind::BadVers) => {
                assert_eq!(m.id, 0x1234);
                assert_eq!(m.rcode, Rcode::BadVers);
                assert!(m.recursion_desired, "RD echoed");
                assert_eq!(m.questions.len(), 1);
                assert!(m.answers.is_empty());
                assert_eq!(m.edns, Some(Edns::with_do()), "the server's OPT, DO copied");
            }
            other => panic!("expected BADVERS, got {other:?}"),
        }
    }

    /// BADVERS outranks the rows below it: REFUSED or FORMERR with a
    /// version-0 OPT would claim the version-1 OPT had been understood.
    #[test]
    fn badvers_wins_over_refused_and_the_no_question_formerr() {
        let v1 = || {
            Some(Edns {
                version: 1,
                ..Edns::with_do()
            })
        };
        let chaos_class = query_bytes(|m| {
            m.questions[0].qclass = Class::Ch;
            m.edns = v1();
        });
        match classify(&chaos_class) {
            QueryDisposition::Reject(m, RejectKind::BadVers) => {
                assert_eq!(m.rcode, Rcode::BadVers);
                assert_eq!(m.questions[0].qclass, Class::Ch, "question echoed");
            }
            other => panic!("expected BADVERS, got {other:?}"),
        }
        let no_question = query_bytes(|m| {
            m.questions.clear();
            m.edns = v1();
        });
        match classify(&no_question) {
            QueryDisposition::Reject(m, RejectKind::BadVers) => {
                assert!(m.questions.is_empty());
                assert_eq!(m.edns, Some(Edns::with_do()));
            }
            other => panic!("expected BADVERS, got {other:?}"),
        }
    }

    /// RFC 6891 §6.1.1: a second OPT (or one outside the additional
    /// section, or not at the root) is a FORMERR — and the client did
    /// send an OPT, so the reply carries the server's. Any other
    /// undecodable body still gets the bare FORMERR.
    #[test]
    fn second_opt_gets_formerr_with_the_servers_opt() {
        let mut wire = query_bytes(|_| {});
        let opt = wire[wire.len() - 11..].to_vec();
        wire.extend_from_slice(&opt);
        wire[11] = 2; // ARCOUNT
        assert_eq!(Message::decode(&wire), Err(WireError::BadOpt));
        match classify(&wire) {
            QueryDisposition::Reject(m, RejectKind::FormErr) => {
                assert_eq!(m.id, 0x1234);
                assert_eq!(m.rcode, Rcode::FormErr);
                assert!(m.recursion_desired, "RD echoed");
                assert_eq!(m.edns, Some(Edns::default()), "the server's OPT");
            }
            other => panic!("expected FORMERR, got {other:?}"),
        }
        let mut cut = query_bytes(|_| {});
        cut.truncate(14);
        match classify(&cut) {
            QueryDisposition::Reject(m, RejectKind::FormErr) => assert_eq!(m.edns, None),
            other => panic!("expected FORMERR, got {other:?}"),
        }
    }

    /// RFC 3225 §3, RFC 6891 §6.1.4: every OPT the server sends copies
    /// the query's DO bit — answers and the three rejections with an OPT.
    #[test]
    fn do_bit_is_copied_into_every_opt_the_server_sends() {
        let tb = Testbed::build();
        let resolver = tb.resolver(Vendor::Cloudflare);
        for dnssec_ok in [true, false] {
            let edns = || {
                Some(Edns {
                    dnssec_ok,
                    ..Default::default()
                })
            };
            let query = Message::decode(&query_bytes(|m| m.edns = edns())).unwrap();
            let mut sent = vec![answer(&resolver, None, &query)];
            let rejected = [
                query_bytes(|m| m.edns = edns().map(|e| Edns { version: 1, ..e })),
                query_bytes(|m| {
                    m.questions.clear();
                    m.edns = edns();
                }),
                query_bytes(|m| {
                    m.questions[0].qclass = Class::Ch;
                    m.edns = edns();
                }),
            ];
            for wire in &rejected {
                match classify(wire) {
                    QueryDisposition::Reject(m, _) => sent.push(*m),
                    other => panic!("expected a rejection, got {other:?}"),
                }
            }
            let rcodes: Vec<Rcode> = sent.iter().map(|m| m.rcode).collect();
            assert_eq!(
                rcodes,
                [
                    Rcode::NoError,
                    Rcode::BadVers,
                    Rcode::FormErr,
                    Rcode::Refused
                ]
            );
            for m in &sent {
                let opt = m.edns.as_ref().expect("every one of these carries an OPT");
                assert_eq!(opt.dnssec_ok, dnssec_ok, "{:?}", m.rcode);
                assert_eq!(opt.version, 0);
            }
        }
    }

    /// Two things that were already right, pinned: an option the server
    /// does not know (RFC 6891 §6.1.2) is ignored and not echoed, and an
    /// advertisement below 512 is served as 512 (§6.2.3).
    #[test]
    fn unknown_option_is_ignored_and_a_small_advertisement_is_512() {
        let tb = Testbed::build();
        let resolver = tb.resolver(Vendor::Cloudflare);
        let wire = query_bytes(|m| {
            let edns = m.edns.as_mut().expect("queries carry an OPT");
            edns.udp_payload_size = 100;
            edns.options.push(ede_wire::EdnsOption::Unknown {
                code: 65001,
                data: Box::new([1, 2, 3]),
            });
        });
        let QueryDisposition::Resolve(query) = classify(&wire) else {
            panic!("an unknown option must not stop the query resolving");
        };
        let reply = answer(&resolver, None, &query);
        assert_eq!(reply.rcode, Rcode::NoError);
        assert_eq!(reply.edns, Some(Edns::with_do()), "nothing echoed");

        let (bytes, truncated) = encode_udp(&reply, &query, 1232).unwrap();
        assert!((101..=512).contains(&bytes.len()), "{}", bytes.len());
        assert!(!truncated, "100 is served as 512");
    }

    #[test]
    fn well_formed_query_resolves() {
        let wire = query_bytes(|_| {});
        assert!(matches!(classify(&wire), QueryDisposition::Resolve(_)));
    }

    #[test]
    fn answer_honors_edns_absence() {
        let tb = Testbed::build();
        let resolver = tb.resolver(Vendor::Cloudflare);
        let qname = Name::parse("rrsig-exp-all.extended-dns-errors.com").unwrap();

        let with_edns = Message::query(1, qname.clone(), RrType::A);
        let resp = answer(&resolver, None, &with_edns);
        assert_eq!(resp.rcode, Rcode::ServFail);
        assert!(!resp.ede_codes().is_empty(), "EDE rides on the OPT record");

        let plain = Message {
            id: 2,
            recursion_desired: true,
            questions: vec![Question::new(qname, RrType::A)],
            ..Default::default()
        };
        let resp = answer(&resolver, None, &plain);
        assert_eq!(resp.rcode, Rcode::ServFail);
        assert!(resp.edns.is_none(), "no OPT for a non-EDNS client");
        assert!(resp.ede_codes().is_empty());
    }

    #[test]
    fn encode_udp_truncates_past_the_limit() {
        let tb = Testbed::build();
        let resolver = tb.resolver(Vendor::Cloudflare);
        let qname = Name::parse("valid.extended-dns-errors.com").unwrap();
        let query = Message::query(9, qname, RrType::A);
        let reply = answer(&resolver, None, &query);

        let (full, tc) = encode_udp(&reply, &query, 1232).unwrap();
        assert!(!tc);
        assert_eq!(full, reply.encode().unwrap());

        // A tiny server-side cap forces the truncation path.
        let (short, tc) = encode_udp(&reply, &query, 64).unwrap();
        assert!(tc);
        assert!(short.len() < full.len());
        let decoded = Message::decode(&short).unwrap();
        assert!(decoded.truncated);
        assert!(decoded.answers.is_empty());
        assert_eq!(decoded.questions, query.questions);
    }
}
