//! A served query, read in place.
//!
//! A recursive server answers one request shape almost always: a QUERY
//! with one IN question, and at most a version-0 OPT. [`Request::read`]
//! reads exactly that shape from the request's bytes without decoding a
//! [`Message`]: no question list, and the qname's canonical form in a
//! stack array rather than a [`Name`]'s heap block. Whatever else
//! arrives it declines, and the caller decodes the bytes the long way.

use crate::ede::EDE_OPTION_CODE;
use crate::header::Header;
use crate::message::Message;
use crate::name::{Name, MAX_LABEL_LEN, MAX_NAME_LEN};
use crate::record::Class;
use crate::rrtype::RrType;

/// What a request's OPT record says about the reply it takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOpt {
    /// The UDP payload size it advertises, as sent.
    pub udp_payload_size: u16,
    /// The DO bit.
    pub dnssec_ok: bool,
}

/// A query to be resolved: everything a recursive server's reply
/// echoes or depends on, and nothing else.
pub struct Request {
    /// Transaction ID.
    pub id: u16,
    /// RD bit.
    pub recursion_desired: bool,
    /// CD bit.
    pub checking_disabled: bool,
    /// The OPT record, when the request carried one (version 0).
    pub opt: Option<RequestOpt>,
    /// The question's type; its class is IN.
    pub qtype: RrType,
    /// The qname's canonical wire form (RFC 4034 §6.2, as
    /// [`Name::as_wire`] holds it) is `qname[..qname_len]`.
    qname: [u8; MAX_NAME_LEN],
    qname_len: u8,
}

/// Header byte 2: QR and the four opcode bits. QUERY is 0.
const QR_OPCODE: u8 = 0xF8;
/// The OPT record's fixed part: root owner, TYPE, CLASS, TTL, RDLENGTH.
const OPT_FIXED: usize = 11;

impl Request {
    /// Read `wire` if it is the request shape every real client sends,
    /// else `None`: QR clear, opcode QUERY, one question, no answer or
    /// authority record, and either no additional record or one OPT at
    /// the root, version 0, with well framed options and none of them
    /// an EDE option (which only [`Message::decode`] validates). The
    /// question is one uncompressed IN question. Bytes after the last
    /// record are ignored, as [`Message::decode`] ignores them.
    pub fn read(wire: &[u8]) -> Option<Request> {
        let header = wire.get(..Header::LEN)?;
        let count = |at: usize| u16::from_be_bytes([header[at], header[at + 1]]);
        if header[2] & QR_OPCODE != 0 || [count(4), count(6), count(8)] != [1, 0, 0] {
            return None;
        }
        let mut qname = [0; MAX_NAME_LEN];
        let (mut at, mut len) = (Header::LEN, 0);
        loop {
            // Above 63, a length octet is a pointer or a retired label type.
            let label = usize::from(*wire.get(at)?);
            let end = len + 1 + label;
            if label > MAX_LABEL_LEN || end > MAX_NAME_LEN {
                return None;
            }
            qname[len..end].copy_from_slice(wire.get(at..at + 1 + label)?);
            (at, len) = (at + 1 + label, end);
            if label == 0 {
                break;
            }
        }
        // Length octets are at most 63, below every upper-case letter.
        qname[..len].make_ascii_lowercase();
        let question = wire.get(at..at + 4)?;
        if u16::from_be_bytes([question[2], question[3]]) != Class::In.to_u16() {
            return None;
        }
        let opt = match count(10) {
            0 => None,
            1 => Some(read_opt(&wire[at + 4..])?),
            _ => return None,
        };
        Some(Request {
            id: count(0),
            recursion_desired: header[2] & 0x01 != 0,
            checking_disabled: header[3] & 0x10 != 0,
            opt,
            qtype: RrType::from_u16(u16::from_be_bytes([question[0], question[1]])),
            qname,
            qname_len: len as u8,
        })
    }

    /// The request a decoded query makes: its ID, RD and CD bits, its
    /// OPT's payload size and DO bit, and its first question, whose
    /// class the caller has checked. `None` without a question.
    pub fn from_query(query: &Message) -> Option<Request> {
        let question = query.questions.first()?;
        let wire = question.name.as_wire();
        let mut qname = [0; MAX_NAME_LEN];
        qname[..wire.len()].copy_from_slice(wire);
        Some(Request {
            id: query.id,
            recursion_desired: query.recursion_desired,
            checking_disabled: query.checking_disabled,
            opt: query.edns.as_ref().map(|edns| RequestOpt {
                udp_payload_size: edns.udp_payload_size,
                dnssec_ok: edns.dnssec_ok,
            }),
            qtype: question.qtype,
            qname,
            qname_len: wire.len() as u8,
        })
    }

    /// The qname's canonical wire form: lowercase, uncompressed, root
    /// octet last.
    pub fn qname(&self) -> &[u8] {
        &self.qname[..usize::from(self.qname_len)]
    }

    /// The qname as a [`Name`]; one allocation when its form is longer
    /// than [`MAX_INLINE_LEN`](crate::name::MAX_INLINE_LEN) octets.
    pub fn name(&self) -> Name {
        Name::from_canonical(self.qname())
    }

    /// The UDP payload size the sender can accept: the OPT's
    /// advertisement floored at the RFC 6891 minimum of 512, or the
    /// classic 512 without an OPT.
    pub fn advertised_payload_size(&self) -> u16 {
        self.opt.map_or(512, |opt| opt.udp_payload_size.max(512))
    }
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("id", &self.id)
            .field("recursion_desired", &self.recursion_desired)
            .field("checking_disabled", &self.checking_disabled)
            .field("opt", &self.opt)
            .field("qtype", &self.qtype)
            .field("qname", &self.name())
            .finish()
    }
}

/// The one additional record, `rr`, read as a version-0 OPT at the
/// root whose options are well framed and hold no EDE option.
fn read_opt(rr: &[u8]) -> Option<RequestOpt> {
    let fixed = rr.get(..OPT_FIXED)?;
    // Root owner, TYPE 41; the TTL field is extended RCODE, VERSION,
    // then the DO bit and Z.
    if fixed[..3] != [0, 0, 41] || fixed[6] != 0 {
        return None;
    }
    let rdlength = usize::from(u16::from_be_bytes([fixed[9], fixed[10]]));
    let mut options = rr.get(OPT_FIXED..OPT_FIXED + rdlength)?;
    while !options.is_empty() {
        let head = options.get(..4)?;
        if u16::from_be_bytes([head[0], head[1]]) == EDE_OPTION_CODE {
            return None;
        }
        let len = usize::from(u16::from_be_bytes([head[2], head[3]]));
        options = options.get(4 + len..)?;
    }
    Some(RequestOpt {
        udp_payload_size: u16::from_be_bytes([fixed[3], fixed[4]]),
        dnssec_ok: fixed[7] & 0x80 != 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edns::{Edns, EdnsOption};
    use crate::message::Question;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn a_scanner_query_reads_as_it_decodes() {
        let query = Message::query(0xBEEF, n("valid.example.com"), RrType::Aaaa);
        let wire = query.encode().unwrap();
        let request = Request::read(&wire).expect("the common shape");
        assert_eq!(request.id, 0xBEEF);
        assert!(request.recursion_desired && !request.checking_disabled);
        assert_eq!(request.qtype, RrType::Aaaa);
        assert_eq!(request.qname(), n("valid.example.com").as_wire());
        assert_eq!(request.name(), n("valid.example.com"));
        let opt = RequestOpt {
            udp_payload_size: 1232,
            dnssec_ok: true,
        };
        assert_eq!(request.opt, Some(opt));
        let again = Request::from_query(&Message::decode(&wire).unwrap()).unwrap();
        assert_eq!(format!("{again:?}"), format!("{request:?}"));
    }

    #[test]
    fn advertised_payload_size_is_the_messages() {
        let mut q = Message::query(1, n("example.com"), RrType::A);
        for size in [Some(1232), Some(100), None] {
            q.edns = size.map(|udp_payload_size| Edns {
                udp_payload_size,
                ..Edns::default()
            });
            let request = Request::from_query(&q).unwrap();
            assert_eq!(
                request.advertised_payload_size(),
                q.advertised_payload_size()
            );
        }
    }

    /// The shapes the reader declines, each one field away from a shape
    /// it reads.
    #[test]
    fn every_other_shape_is_declined() {
        let base = Message::query(1, n("a.example"), RrType::A);
        let read = |m: &Message| Request::read(&m.encode().unwrap()).is_some();
        assert!(read(&base));
        let with = |f: &dyn Fn(&mut Message)| {
            let mut m = base.clone();
            f(&mut m);
            m
        };
        let other = Question::new(n("b.example"), RrType::A);
        let declined = [
            with(&|m| m.response = true),
            with(&|m| m.opcode = crate::header::Opcode::Status),
            with(&|m| m.questions.clear()),
            with(&|m| m.questions.push(other.clone())),
            with(&|m| m.questions[0].qclass = Class::Ch),
            with(&|m| m.edns.as_mut().unwrap().version = 1),
            with(&|m| {
                let ede = crate::ede::EdeEntry::bare(crate::ede::EdeCode::Other);
                m.edns.as_mut().unwrap().options.push(EdnsOption::Ede(ede));
            }),
        ];
        for m in &declined {
            assert!(!read(m), "{m:?}");
        }
        // Another option is read past; an OPT that lies about its
        // length is not.
        let optioned = with(&|m| {
            let data = Box::new([1, 2, 3]);
            let cookie = EdnsOption::Unknown { code: 10, data };
            m.edns.as_mut().unwrap().options.push(cookie);
        });
        assert!(read(&optioned));
        let mut wire = optioned.encode().unwrap();
        let last = wire.len() - 1;
        wire[last - 3] += 1; // the option's length
        assert!(Request::read(&wire).is_none());
        // A compressed qname.
        let mut wire = with(&|m| m.edns = None).encode().unwrap();
        wire.truncate(12);
        wire.extend([0xC0, 12, 0, 1, 0, 1]);
        assert!(Request::read(&wire).is_none());
        // No OPT at all is the other common shape.
        assert!(read(&with(&|m| m.edns = None)));
        assert!(read(&with(&|m| m.edns = Some(Edns::default()))));
    }
}
