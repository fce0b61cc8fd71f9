//! The transport-independent request pipeline.
//!
//! Both front ends — UDP shard workers and TCP connection handlers —
//! funnel raw request bytes through one step, [`respond`], that runs 1
//! to 3, counts their decisions and appends the reply's bytes to the
//! worker's reused buffer:
//!
//! 1. [`Request::read`] reads the bytes in place when they are the
//!    request every real client sends — a QUERY with one uncompressed IN
//!    question and at most a version-0 OPT — without decoding a
//!    [`Message`]: no question list, the qname's canonical form in a
//!    stack array. Whatever it declines goes to [`classify`], which
//!    decides what the bytes are: a resolvable query (turned into the
//!    same [`Request`]), a protocol violation answered with
//!    FORMERR/NOTIMP/REFUSED/BADVERS, or garbage that is silently
//!    dropped. The reader takes no decision of its own: what it reads,
//!    [`classify`] resolves alike (the `agreement` tests). The policy is
//!    explicit (and tested) rather than the historical demo behaviour of
//!    answering FORMERR to anything:
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
//!    | more than one question (RFC 9619 §4) | **FORMERR**, echoing ID, opcode and RD, carrying the server's own OPT when the query carried one |
//!    | question class ≠ IN | **REFUSED**, echoing the question |
//!    | otherwise | resolve |
//!    | OPT present, DO bit either way | the same DO bit in every OPT sent back (RFC 3225 §3, RFC 6891 §6.1.4): the answer, NOTIMP, BADVERS, both question-count FORMERRs, REFUSED |
//!    | OPT with an option the server does not know | ignored, never echoed (RFC 6891 §6.1.2) |
//!    | OPT advertising fewer than 512 bytes | served as 512 (RFC 6891 §6.2.3) |
//!
//!    Down to "otherwise" the first matching row wins: BADVERS is a MUST
//!    for any higher version, so it goes ahead of every reply that would
//!    carry a version-0 OPT as if the request's had been understood. The
//!    last three rows are not dispositions: they hold for whichever reply
//!    the rows above chose.
//!
//! 2. [`Resolver::serve`] resolves the request's one question (full
//!    recursion, validation, vendor EDE emission). A hit on the answer
//!    cache costs one probe, by the request's canonical qname as it
//!    lies in the request, and hands over the cache entry itself: it
//!    keeps the answers, the EDE list and the diagnosis, so nothing is
//!    emitted or copied per request. A miss builds the qname's
//!    [`Name`](ede_wire::Name) and hands over its resolution.
//! 3. A hit's reply is a copy of its entry's reply image
//!    ([`ReplyImage`]): the bytes [`Sections`] wrote for the entry on its
//!    first hit here, to a canonical request — ID 0, RD, CD and DO clear,
//!    the server's own OPT last with the EDE list as its options, the
//!    question written from the request's canonical qname. Each hit
//!    appends them, or only the part before the OPT when the query
//!    carried none (a client that sent no OPT gets none back, and so no
//!    EDE options — RFC 8914 signals require EDNS), and sets the query's
//!    ID, RD, CD and DO bits. What else a reply holds is fixed for the
//!    entry: the question is the cache key (names are stored lowercase),
//!    the TTLs are served as stored, and the RCODE and AD bit are the
//!    entry's. So a hit makes no allocator call, and an entry's first
//!    hit one, the image's copy. A miss, an entry whose image did not
//!    encode, and a hit whose image is over the datagram limit are
//!    written by [`Sections`] straight from borrowed fields: the
//!    request's ID, RD and CD bits and its one question (built once,
//!    written from [`std::slice::from_ref`]), the RCODE, the AD bit, the
//!    answer records and the OPT as above. No reply [`Message`] is
//!    built. On the datagram transport a reply over the negotiated
//!    payload limit is written TC=1, header, question and OPT only, so
//!    the client retries over TCP; a stream is never truncated, which is
//!    what makes the TC=1 → TCP retry bit-identical to the untruncated
//!    message.
//!
//! [`answer`] and [`encode_udp`] build and encode the same reply as a
//! [`Message`], byte for byte; the benchmark's in-process replay calls
//! them, and the tests compare the workers' bytes with theirs.

use ede_resolver::{Resolver, Served};
use ede_trace::Metrics;
use ede_wire::{
    Class, Edns, Header, Message, Opcode, Question, Rcode, ReplyImage, Request, Sections, WireError,
};

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
    // RFC 9619 §4: a QUERY carries exactly one question.
    let [q] = query.questions.as_slice() else {
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

/// Resolve a classified query and render the response as a [`Message`]:
/// the bytes [`respond`] writes, built the long way.
///
/// The middle parameter is a shim: it was the worker's L1 tier, which is
/// gone, and only `None` fills it. `benchmark/src/inproc.rs` still writes
/// that `None`; ROADMAP item 1(a)'s benchmark-only PR removes the
/// parameter.
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

/// What [`respond`] appended for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// Dropped: nothing was appended and nothing goes back.
    Nothing,
    /// A reply was appended; `truncated` when it carries TC=1.
    Written {
        /// Whether the reply is the over-limit datagram's TC=1 form.
        truncated: bool,
    },
}

/// The request path both transports share: read the bytes in place
/// ([`Request::read`]), or [`classify`] whatever that declines and count
/// the disposition, resolve through [`Resolver::serve`], and append the
/// reply to `out`. A fresh cache hit that fits is a copy of its entry's
/// reply image, encoded in `out` on the entry's first hit; anything else
/// is written from its fields. Neither builds a reply [`Message`].
///
/// `udp_payload_max` is the datagram transport's cap: an answer over
/// [`encode_udp`]'s limit is written TC=1 instead. A stream passes
/// `None` and is never truncated. On error `out` is left as found.
pub fn respond(
    resolver: &Resolver,
    metrics: &Metrics,
    request: &[u8],
    udp_payload_max: Option<u16>,
    out: &mut Vec<u8>,
) -> Result<Response, WireError> {
    let request = match Request::read(request) {
        Some(request) => request,
        None => match classify(request) {
            QueryDisposition::Drop(_) => {
                metrics.dropped();
                return Ok(Response::Nothing);
            }
            QueryDisposition::Reject(reply, kind) => {
                match kind {
                    RejectKind::FormErr => metrics.rejected_formerr(),
                    RejectKind::NotImp => metrics.rejected_notimp(),
                    RejectKind::Refused => metrics.rejected_refused(),
                    RejectKind::BadVers => metrics.rejected_badvers(),
                }
                reply.encode_into(out)?;
                return Ok(Response::Written { truncated: false });
            }
            QueryDisposition::Resolve(query) => Request::from_query(&query)
                .expect("classify() only yields Resolve for a query with one question"),
        },
    };
    let served = resolver.serve(&request);
    let limit = udp_payload_max.map(|cap| udp_limit(&request, cap));
    if let Served::Hit {
        entry,
        authentic_data,
    } = &served
    {
        // The entry's reply for a canonical request, encoded on its first
        // hit here. A datagram over the limit is written TC=1 below.
        let image = entry.reply_image(|ede| {
            let (rcode, answers) = (entry.rcode, &entry.answers);
            ReplyImage::encode(rcode, *authentic_data, &request, answers, ede, out).ok()
        });
        let fits = |image: &&ReplyImage| match limit {
            Some(limit) => image.len_for(&request) <= limit,
            None => true,
        };
        if let Some(image) = image.filter(fits) {
            image.write(&request, out);
            return Ok(Response::Written { truncated: false });
        }
    }
    let (rcode, authentic_data, answers, ede) = served.sections();
    // RFC 6891: never volunteer an OPT record (or EDE options riding on
    // it) to a client that did not signal EDNS support.
    let opt = request.opt.map(|opt| Edns {
        dnssec_ok: opt.dnssec_ok,
        ..Edns::default()
    });
    let question = Question::new(request.name(), request.qtype);
    let reply = Sections {
        header: Header {
            id: request.id,
            response: true,
            recursion_desired: request.recursion_desired,
            recursion_available: true,
            authentic_data,
            checking_disabled: request.checking_disabled,
            ..Header::default()
        },
        rcode,
        questions: std::slice::from_ref(&question),
        answers,
        authorities: &[],
        additionals: &[],
        edns: opt.as_ref().map(|opt| (opt, ede)),
    };
    let truncated = match limit {
        Some(limit) => write_udp(&reply, limit, out)?,
        None => reply.encode_into(out).map(|()| false)?,
    };
    Ok(Response::Written { truncated })
}

/// The most bytes a datagram reply to `request` may carry: the client's
/// EDNS advertisement (floored at 512) or 512, and at most the server's
/// cap.
fn udp_limit(request: &Request, udp_payload_max: u16) -> usize {
    usize::from(request.advertised_payload_size().min(udp_payload_max))
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
    let request = Request::from_query(query)
        .expect("classify() only yields Resolve for a query with one question");
    let limit = udp_limit(&request, udp_payload_max);
    write_udp(&reply.sections(), limit, &mut wire).map(|truncated| (wire, truncated))
}

/// [`encode_udp`] over borrowed sections, appended to `out` (left as
/// found on error). Over `limit` bytes the form is
/// [`Message::truncated_copy`]'s: the same header with TC=1, the question
/// and the OPT. Returns whether the bytes carry TC=1.
fn write_udp(reply: &Sections, limit: usize, out: &mut Vec<u8>) -> Result<bool, WireError> {
    let base = out.len();
    reply.encode_into(out)?;
    if out.len() - base <= limit {
        return Ok(false);
    }
    out.truncate(base);
    let truncated = Sections {
        header: Header {
            truncated: true,
            ..reply.header
        },
        answers: &[],
        authorities: &[],
        additionals: &[],
        ..*reply
    };
    truncated.encode_into(out)?;
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

    /// RFC 9619 §4: a QUERY carries one question. Two get the
    /// no-question row's FORMERR — ID, opcode and RD echoed, no question
    /// — with the server's own OPT, DO copied, when the query sent one.
    #[test]
    fn more_than_one_question_gets_formerr() {
        let second = Question::new(Name::parse("other.example").unwrap(), RrType::Aaaa);
        for edns in [None, Some(Edns::default()), Some(Edns::with_do())] {
            let wire = query_bytes(|m| {
                m.questions.push(second.clone());
                m.edns = edns.clone();
            });
            match classify(&wire) {
                QueryDisposition::Reject(m, RejectKind::FormErr) => {
                    assert_eq!(m.id, 0x1234);
                    assert_eq!(m.opcode, Opcode::Query);
                    assert_eq!(m.rcode, Rcode::FormErr);
                    assert!(m.response && m.recursion_desired, "RD echoed");
                    assert!(m.questions.is_empty() && m.answers.is_empty());
                    assert_eq!(m.edns, edns.as_ref().map(Edns::reply), "{edns:?}");
                }
                other => panic!("expected FORMERR, got {other:?}"),
            }
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

/// The workers write a reply straight from a cache entry or a
/// resolution (`respond`); the reference builds a reply `Message` and
/// encodes it (`answer` + `encode_udp` or `Message::encode`). Their bytes
/// must be equal for every request, a miss and the hit after it, on every
/// transport; and a served hit must count and announce what
/// `Resolver::resolve` does.
#[cfg(test)]
mod parity {
    use super::{answer, classify, encode_udp, QueryDisposition};
    use crate::server::Shared;
    use crate::tcp::tests::{serve_on, Scripted};
    use crate::udp::serve_datagrams;
    use crate::udp::tests::{peer, ScriptedSocket};
    use crate::ServerConfig;
    use ede_resolver::Vendor;
    use ede_resolver::{CachedResolution, Served};
    use ede_testbed::Testbed;
    use ede_trace::{Metrics, ResolutionTrace, TraceEvent, TraceSink, Tracer};
    use ede_wire::stream::frame;
    use ede_wire::{
        EdeCode, EdeEntry, Edns, EdnsOption, Message, Name, Rdata, Record, ReplyImage, Request,
        RrType,
    };
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    /// A datagram cap under every reply's size: every answer goes TC=1.
    const TC_CAP: u16 = 12;

    /// The two vendors: one that attaches EDE (with EXTRA-TEXT) and one that
    /// attaches none.
    const VENDORS: [Vendor; 2] = [Vendor::Cloudflare, Vendor::Bind9];

    /// How a worker is reached.
    #[derive(Debug, Clone, Copy)]
    enum Transport {
        /// UDP with the server's cap.
        Udp(u16),
        Tcp,
    }

    /// What a worker shares, over `vendor`'s resolver with a datagram cap.
    fn shared(tb: &Testbed, vendor: Vendor, udp_payload_max: u16) -> Shared {
        Shared {
            resolver: tb.resolver(vendor),
            metrics: Arc::new(Metrics::new()),
            stop: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            config: ServerConfig {
                udp_payload_max,
                ..ServerConfig::default()
            },
        }
    }

    /// `request` through a worker's own loop: one datagram to
    /// `serve_datagrams`, or one frame to `serve_stream`. The reply's bytes.
    fn served(shared: &Shared, transport: Transport, request: &[u8]) -> Vec<u8> {
        match transport {
            Transport::Udp(_) => {
                let socket = ScriptedSocket::new(&shared.stop);
                socket.push(request, peer(1));
                serve_datagrams(shared, &socket, Instant::now);
                shared.stop.store(false, Ordering::Release);
                let mut sends = socket.sends.into_inner().unwrap();
                assert_eq!(sends.len(), 1, "one reply");
                sends.pop().unwrap().0
            }
            Transport::Tcp => {
                let mut conn = Scripted::default();
                conn.reads.push_back(frame(request).unwrap());
                serve_on(shared, &mut conn);
                let framed = conn.writes.concat();
                let len = usize::from(u16::from_be_bytes([framed[0], framed[1]]));
                assert_eq!(framed.len(), 2 + len, "one frame");
                framed[2..].to_vec()
            }
        }
    }

    /// The reference's bytes for `reply`, the `Message` that
    /// `pipeline::answer` built for `query`.
    fn reference(reply: &Message, query: &Message, transport: Transport) -> Vec<u8> {
        match transport {
            Transport::Udp(cap) => {
                let (bytes, truncated) = encode_udp(reply, query, cap).unwrap();
                if cap == TC_CAP {
                    assert!(truncated);
                    // The TC=1 form is `truncated_copy`'s.
                    assert_eq!(bytes, reply.truncated_copy().encode().unwrap());
                }
                bytes
            }
            Transport::Tcp => reply.encode().unwrap(),
        }
    }

    /// The qname of `wire` with every other ASCII letter upper-cased.
    pub(super) fn mixed_case(mut wire: Vec<u8>) -> Vec<u8> {
        let mut at = 12;
        while wire[at] != 0 {
            let end = at + 1 + usize::from(wire[at]);
            for octet in wire[at + 1..end].iter_mut().step_by(2) {
                octet.make_ascii_uppercase();
            }
            at = end;
        }
        wire
    }

    /// Every request shape of the grid for `qname`: no OPT, OPT with DO=0
    /// and with DO=1; RD and CD each set and clear; the qname as it is and
    /// in mixed case. Each with its decoded query.
    fn requests(qname: &Name) -> Vec<(Vec<u8>, Message)> {
        let mut requests = Vec::new();
        for edns in [None, Some(Edns::default()), Some(Edns::with_do())] {
            for (rd, cd) in [(false, false), (true, false), (false, true), (true, true)] {
                let mut query = Message::query(requests.len() as u16, qname.clone(), RrType::A);
                query.edns = edns.clone();
                query.recursion_desired = rd;
                query.checking_disabled = cd;
                let wire = query.encode().unwrap();
                for wire in [wire.clone(), mixed_case(wire)] {
                    let decoded = Message::decode(&wire).unwrap();
                    requests.push((wire, decoded));
                }
            }
        }
        requests
    }

    /// Every testbed name under two vendors, across the request grid: a
    /// miss and then a hit, each over UDP at the default cap, over UDP at a
    /// cap that forces TC=1 and over TCP, must come back in the bytes the
    /// reference encodes on a resolver in the same state. Each request moves
    /// the worker's answer cache by one probe: a miss, then a hit.
    #[test]
    fn workers_write_the_bytes_of_the_reference_path() {
        let tb = Testbed::build();
        let default_cap = ServerConfig::default().udp_payload_max;
        let transports = [
            Transport::Udp(default_cap),
            Transport::Udp(TC_CAP),
            Transport::Tcp,
        ];
        let mut cached_errors = 0;
        for vendor in VENDORS {
            let workers = transports.map(|t| match t {
                Transport::Udp(cap) => shared(&tb, vendor, cap),
                Transport::Tcp => shared(&tb, vendor, default_cap),
            });
            let oracle = tb.resolver(vendor);
            for spec in &tb.specs {
                for (wire, query) in requests(&tb.query_name(spec)) {
                    oracle.flush();
                    let replies = [(); 2].map(|()| answer(&oracle, None, &query));
                    cached_errors +=
                        usize::from(replies[1].ede_codes().len() > replies[0].ede_codes().len());
                    for (transport, worker) in transports.iter().zip(&workers) {
                        worker.resolver.flush();
                        for (hit, reply) in [false, true].into_iter().zip(&replies) {
                            let before = worker.resolver.cache_stats();
                            let bytes = served(worker, *transport, &wire);
                            let after = worker.resolver.cache_stats();
                            let case = format!(
                                "{vendor:?} {} {transport:?} hit {hit} {wire:02x?}",
                                spec.label
                            );
                            assert_eq!(bytes, reference(reply, &query, *transport), "{case}");
                            let probes = (after.hits - before.hits, after.misses - before.misses);
                            assert_eq!(probes, if hit { (1, 0) } else { (0, 1) }, "{case}");
                        }
                    }
                }
            }
        }
        // A cached failure's hit adds Cached Error: `allow-query-none` and
        // the other failures under Cloudflare, across the grid's EDNS rows.
        assert!(cached_errors > 0);
    }

    /// Two requests the in-place reader declines and `classify`
    /// resolves: one with an EDE option in its OPT, one with a record in
    /// its answer section. A miss and the hit after it, each over UDP,
    /// UDP truncated and TCP, come back in the reference's bytes, for
    /// every testbed name under both vendors.
    #[test]
    fn a_request_the_reader_declines_is_written_as_the_reference_writes_it() {
        let tb = Testbed::build();
        let default_cap = ServerConfig::default().udp_payload_max;
        let transports = [
            Transport::Udp(default_cap),
            Transport::Udp(TC_CAP),
            Transport::Tcp,
        ];
        for vendor in VENDORS {
            let workers = transports.map(|t| match t {
                Transport::Udp(cap) => shared(&tb, vendor, cap),
                Transport::Tcp => shared(&tb, vendor, default_cap),
            });
            let oracle = tb.resolver(vendor);
            for spec in &tb.specs {
                let qname = tb.query_name(spec);
                let mut with_ede = Message::query(0x0EDE, qname.clone(), RrType::A);
                let ede = EdeEntry::with_text(EdeCode::Other, "from the client");
                let edns = with_ede.edns.as_mut().expect("queries carry an OPT");
                edns.options.push(EdnsOption::Ede(ede));
                let mut with_answer = Message::query(0xA115, qname.clone(), RrType::A);
                let address = Rdata::A([192, 0, 2, 1].into());
                with_answer.answers.push(Record::new(qname, 60, address));
                for wire in [with_ede, with_answer].map(|m| m.encode().unwrap()) {
                    assert!(Request::read(&wire).is_none(), "{wire:02x?}");
                    let QueryDisposition::Resolve(query) = classify(&wire) else {
                        panic!("{wire:02x?} resolves");
                    };
                    oracle.flush();
                    let replies = [(); 2].map(|()| answer(&oracle, None, &query));
                    for (transport, worker) in transports.iter().zip(&workers) {
                        worker.resolver.flush();
                        for (hit, reply) in [false, true].into_iter().zip(&replies) {
                            let case = format!(
                                "{vendor:?} {} {transport:?} hit {hit} {wire:02x?}",
                                spec.label
                            );
                            let expected = reference(reply, &query, *transport);
                            assert_eq!(served(worker, *transport, &wire), expected, "{case}");
                        }
                    }
                }
            }
        }
    }

    /// A request for `qname` with `edns`, and RD and CD both `flags`.
    fn request(qname: &Name, edns: Option<Edns>, flags: bool) -> (Vec<u8>, Message) {
        let mut query = Message::query(0x5A5A, qname.clone(), RrType::A);
        (query.edns, query.recursion_desired, query.checking_disabled) = (edns, flags, flags);
        (query.encode().unwrap(), query)
    }

    /// An entry's image is built by the first hit's request and must keep
    /// none of its flags. Built by a request without OPT, RD or CD, a hit
    /// for DO=1, RD=1 and CD=1 must write all four; built by that one, a
    /// hit without them must write none. Every testbed name under both
    /// vendors, over UDP, UDP truncated and TCP, against the reference.
    #[test]
    fn an_image_keeps_none_of_the_flags_of_the_request_that_built_it() {
        let tb = Testbed::build();
        let default_cap = ServerConfig::default().udp_payload_max;
        let transports = [
            Transport::Udp(default_cap),
            Transport::Udp(TC_CAP),
            Transport::Tcp,
        ];
        for vendor in VENDORS {
            let oracle = tb.resolver(vendor);
            for transport in transports {
                let cap = match transport {
                    Transport::Udp(cap) => cap,
                    Transport::Tcp => default_cap,
                };
                let worker = shared(&tb, vendor, cap);
                for spec in &tb.specs {
                    let qname = tb.query_name(spec);
                    let bare = request(&qname, None, false);
                    let flagged = request(&qname, Some(Edns::with_do()), true);
                    for [builder, other] in [[&bare, &flagged], [&flagged, &bare]] {
                        worker.resolver.flush();
                        oracle.flush();
                        // A miss, the hit that builds the image, a hit.
                        for (step, (wire, query)) in [builder, builder, other].iter().enumerate() {
                            let reply = answer(&oracle, None, query);
                            let case = format!(
                                "{vendor:?} {} {transport:?} step {step} {wire:02x?}",
                                spec.label
                            );
                            let expected = reference(&reply, query, transport);
                            assert_eq!(served(&worker, transport, wire), expected, "{case}");
                        }
                    }
                }
            }
        }
    }

    /// The request for `qname`'s A records.
    fn a_request(qname: &Name) -> Request {
        Request::from_query(&Message::query(0, qname.clone(), RrType::A)).unwrap()
    }

    /// The image `worker`'s entry for `qname` holds, as an address;
    /// panics when there is none.
    fn image_of(worker: &Shared, qname: &Name) -> (Arc<CachedResolution>, *const ReplyImage) {
        let Served::Hit { entry, .. } = worker.resolver.serve(&a_request(qname)) else {
            panic!("{qname} is cached");
        };
        let image = entry.reply_image(|_| panic!("{qname}: an image is built once"));
        let image: *const ReplyImage = image.expect("the image encoded");
        (entry, image)
    }

    /// An entry's image is built by its first served hit and written by
    /// every later one, over either transport: the same image at the same
    /// address, never encoded again.
    #[test]
    fn an_entry_builds_its_image_once_for_both_transports() {
        let tb = Testbed::build();
        for vendor in VENDORS {
            let worker = shared(&tb, vendor, ServerConfig::default().udp_payload_max);
            for spec in &tb.specs {
                let qname = tb.query_name(spec);
                let (wire, _) = request(&qname, Some(Edns::with_do()), true);
                served(&worker, Transport::Tcp, &wire);
                served(&worker, Transport::Udp(1232), &wire);
                let (entry, first) = image_of(&worker, &qname);
                for transport in [Transport::Tcp, Transport::Udp(1232), Transport::Tcp] {
                    served(&worker, transport, &wire);
                    let (again, image) = image_of(&worker, &qname);
                    assert!(Arc::ptr_eq(&entry, &again), "{}", spec.label);
                    assert_eq!(image, first, "{} {transport:?}", spec.label);
                }
            }
        }
    }

    /// Only a server's hit builds an image: an entry that `resolve` stored
    /// and hit holds none.
    #[test]
    fn an_entry_only_resolve_touched_holds_no_image() {
        let tb = Testbed::build();
        for vendor in VENDORS {
            let resolver = tb.resolver(vendor);
            for spec in &tb.specs {
                let qname = tb.query_name(spec);
                resolver.resolve(&qname, RrType::A);
                resolver.resolve(&qname, RrType::A);
                let Served::Hit { entry, .. } = resolver.serve(&a_request(&qname)) else {
                    panic!("{qname} is cached");
                };
                let mut encoded = false;
                entry.reply_image(|_| {
                    encoded = true;
                    None
                });
                assert!(encoded, "{vendor:?} {}", spec.label);
            }
        }
    }

    /// A hit's reply does not change while its entry ages inside the TTL:
    /// the image keeps the TTLs as stored, and serving them as stored is
    /// what makes keeping it right. A TTL counted down per hit must fail
    /// here.
    #[test]
    fn a_hit_writes_the_same_bytes_as_the_clock_moves_inside_the_ttl() {
        let tb = Testbed::build();
        let clock = tb.net.clock();
        for vendor in VENDORS {
            let worker = shared(&tb, vendor, ServerConfig::default().udp_payload_max);
            for spec in &tb.specs {
                let (wire, _) = request(&tb.query_name(spec), Some(Edns::with_do()), true);
                // An entry is stored as of its miss's start; a failure is
                // kept for 30 s from there, every answer longer.
                let last_fresh = clock.now_secs() + 29;
                served(&worker, Transport::Tcp, &wire);
                let first = served(&worker, Transport::Tcp, &wire);
                for at in [clock.now_secs() + 1, last_fresh] {
                    let case = format!("{vendor:?} {} at {at} s", spec.label);
                    assert!(clock.now_secs() < at, "{case}: the miss took too long");
                    clock.advance_secs(u64::from(at - clock.now_secs()));
                    let hits = worker.resolver.cache_stats().hits;
                    let again = served(&worker, Transport::Tcp, &wire);
                    assert_eq!(worker.resolver.cache_stats().hits, hits + 1, "{case}");
                    assert_eq!(again, first, "{case}");
                }
            }
        }
    }

    /// Attach `sink` to the testbed, run `f`, detach it again.
    fn traced(tb: &Testbed, sink: Arc<dyn TraceSink>, f: impl FnOnce()) {
        tb.attach_trace_sink(sink);
        f();
        tb.net.clear_trace_sink();
        for server in &tb.zone_servers {
            server.set_tracer(Tracer::disabled());
        }
    }

    /// A hit served by a worker counts in an attached `Metrics` sink and
    /// announces, event for event, what `Resolver::resolve` does for the
    /// same name, under both vendors.
    #[test]
    fn a_served_hit_counts_and_announces_what_resolve_does() {
        let tb = Testbed::build();
        for vendor in VENDORS {
            let worker = shared(&tb, vendor, ServerConfig::default().udp_payload_max);
            let resolver = tb.resolver(vendor);
            for spec in &tb.specs {
                let qname = tb.query_name(spec);
                let request = Message::query(1, qname.clone(), RrType::A)
                    .encode()
                    .unwrap();
                served(&worker, Transport::Tcp, &request);
                resolver.resolve(&qname, RrType::A);

                let counted = [0, 1].map(|side| {
                    let metrics = Arc::new(Metrics::new());
                    traced(&tb, Arc::clone(&metrics) as _, || match side {
                        0 => drop(served(&worker, Transport::Udp(1232), &request)),
                        _ => drop(resolver.resolve(&qname, RrType::A)),
                    });
                    metrics.snapshot()
                });
                assert_eq!(counted[0], counted[1], "{vendor:?} {}", spec.label);
                assert_eq!(counted[0].resolutions, 1);

                let announced = [0, 1].map(|side| {
                    let trace = Arc::new(ResolutionTrace::new(64));
                    traced(&tb, Arc::clone(&trace) as _, || match side {
                        0 => drop(served(&worker, Transport::Tcp, &request)),
                        _ => drop(resolver.resolve(&qname, RrType::A)),
                    });
                    let events = trace.events().into_iter().map(|e| e.event);
                    events.collect::<Vec<TraceEvent>>()
                });
                assert_eq!(announced[0], announced[1], "{vendor:?} {}", spec.label);
                assert!(matches!(announced[0][1], TraceEvent::CacheProbe { .. }));
            }
        }
    }
}

/// The in-place reader is a strict subset of `classify`: whatever
/// `Request::read` reads, `classify` resolves, with the same ID, RD, CD,
/// question, advertised payload size and DO bit. And it reads every
/// shape a real client sends, so the workers' fast path cannot go dead
/// without a test failing.
#[cfg(test)]
mod agreement {
    use super::parity::mixed_case;
    use super::{classify, QueryDisposition};
    use crate::tcp::tests::corpus;
    use ede_testbed::Testbed;
    use ede_wire::{Class, Edns, EdnsOption, Message, Question, Request, RrType};

    /// Whether the reader reads `wire`; when it does, `classify` must
    /// resolve `wire` to the same request.
    fn read_as_classified(wire: &[u8]) -> bool {
        let Some(request) = Request::read(wire) else {
            return false;
        };
        let QueryDisposition::Resolve(query) = classify(wire) else {
            panic!("read, but classify does not resolve {wire:02x?}");
        };
        let [question] = query.questions.as_slice() else {
            panic!("resolved with other than one question: {wire:02x?}");
        };
        let case = format!("{wire:02x?}");
        assert_eq!(request.id, query.id, "{case}");
        assert_eq!(request.recursion_desired, query.recursion_desired, "{case}");
        assert_eq!(request.checking_disabled, query.checking_disabled, "{case}");
        assert_eq!(request.name(), question.name, "{case}");
        assert_eq!(request.qname(), question.name.as_wire(), "{case}");
        assert_eq!(request.qtype, question.qtype, "{case}");
        assert_eq!(question.qclass, Class::In, "{case}");
        let opt = query
            .edns
            .as_ref()
            .map(|e| (e.udp_payload_size, e.dnssec_ok));
        let read = request.opt.map(|o| (o.udp_payload_size, o.dnssec_ok));
        assert_eq!(read, opt, "{case}");
        let advertised = query.advertised_payload_size();
        assert_eq!(request.advertised_payload_size(), advertised, "{case}");
        true
    }

    /// The grid's OPT rows: none, DO clear, DO set, an advertisement of
    /// 256 (served as 512), and a COOKIE-style option the server does
    /// not know.
    fn opts() -> [Option<Edns>; 5] {
        let cookie = EdnsOption::Unknown {
            code: 10,
            data: Box::new([0x5A; 8]),
        };
        [
            None,
            Some(Edns::default()),
            Some(Edns::with_do()),
            Some(Edns {
                udp_payload_size: 256,
                ..Edns::default()
            }),
            Some(Edns {
                options: vec![cookie],
                ..Edns::with_do()
            }),
        ]
    }

    /// Every testbed name × the OPT rows × RD and CD × the qname as it is
    /// and in mixed case: the reader reads every one, as `classify`
    /// does.
    #[test]
    fn the_reader_reads_every_client_shape_as_classify_does() {
        let tb = Testbed::build();
        let mut read = 0;
        for spec in &tb.specs {
            for edns in opts() {
                for (rd, cd) in [(false, false), (true, false), (false, true), (true, true)] {
                    let mut query = Message::query(read, tb.query_name(spec), RrType::A);
                    (query.recursion_desired, query.checking_disabled) = (rd, cd);
                    query.edns = edns.clone();
                    let wire = query.encode().unwrap();
                    for wire in [mixed_case(wire.clone()), wire] {
                        assert!(read_as_classified(&wire), "declined {wire:02x?}");
                        read += 1;
                    }
                }
            }
        }
        assert_eq!(usize::from(read), tb.specs.len() * 5 * 4 * 2);
    }

    /// The 25 000-case mutation corpus: whatever the reader reads of it,
    /// `classify` resolves alike.
    #[test]
    fn the_reader_reads_the_mutation_corpus_as_classify_does() {
        let tb = Testbed::build();
        let (cases, _) = corpus(&tb);
        let read = cases.iter().filter(|wire| read_as_classified(wire)).count();
        // A flipped ID, flag or qname bit leaves a query it reads.
        assert!(read > 0);
    }

    /// One field away from a query the reader reads, each of these goes
    /// to `classify`: a compressed qname (`www` and a pointer into the
    /// header, which `classify` resolves), a version-1 OPT, two
    /// questions, class CH, and an EDE option too short to decode.
    #[test]
    fn the_reader_declines_the_shapes_beside_its_own() {
        let tb = Testbed::build();
        for spec in &tb.specs {
            let qname = tb.query_name(spec);
            let wire = Message::query(7, qname.clone(), RrType::A)
                .encode()
                .unwrap();
            let q_end = 12 + qname.wire_len() + 4;
            // Header octets 5 to 7 spell the name `\000.`.
            let mut compressed = wire[..12].to_vec();
            compressed.extend([3, b'w', b'w', b'w', 0xC0, 5]);
            compressed.extend_from_slice(&wire[q_end - 4..]);
            assert!(matches!(
                classify(&compressed),
                QueryDisposition::Resolve(_)
            ));
            let mut version_1 = wire.clone();
            version_1[q_end + 6] = 1;
            let mut two = Message::query(7, qname.clone(), RrType::A);
            two.questions.push(Question::new(qname, RrType::Aaaa));
            let mut chaos = wire.clone();
            chaos[q_end - 1] = 3;
            let mut short_ede = wire.clone();
            short_ede.extend([0, 15, 0, 1, 7]);
            short_ede[q_end + 10] += 5;
            for near in [
                compressed,
                version_1,
                two.encode().unwrap(),
                chaos,
                short_ede,
            ] {
                assert!(!read_as_classified(&near), "read {near:02x?}");
            }
        }
    }
}
