//! Complete DNS message encoding and decoding.
//!
//! [`Message`] is the application-level view: the OPT pseudo-record is
//! lifted out of the additional section into [`Edns`], and the 12-bit
//! extended RCODE is presented as a single [`Rcode`].

use crate::edns::Edns;
use crate::error::WireError;
use crate::header::{Header, Opcode};
use crate::name::{Compressor, Name};
use crate::rcode::Rcode;
use crate::record::{Class, Record};
use crate::rrtype::RrType;

/// One entry of the question section.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub qtype: RrType,
    /// Queried class.
    pub qclass: Class,
}

impl Question {
    /// An IN-class question.
    pub fn new(name: Name, qtype: RrType) -> Self {
        Question {
            name,
            qtype,
            qclass: Class::In,
        }
    }

    fn encode(&self, buf: &mut Vec<u8>, compressor: Option<&mut Compressor>) {
        self.name.encode(buf, compressor);
        buf.extend_from_slice(&self.qtype.to_u16().to_be_bytes());
        buf.extend_from_slice(&self.qclass.to_u16().to_be_bytes());
    }

    fn decode(msg: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        let name = Name::decode(msg, pos)?;
        if *pos + 4 > msg.len() {
            return Err(WireError::Truncated {
                context: "question",
            });
        }
        let qtype = RrType::from_u16(u16::from_be_bytes([msg[*pos], msg[*pos + 1]]));
        let qclass = Class::from_u16(u16::from_be_bytes([msg[*pos + 2], msg[*pos + 3]]));
        *pos += 4;
        Ok(Question {
            name,
            qtype,
            qclass,
        })
    }
}

/// A decoded DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction ID.
    pub id: u16,
    /// QR bit: true for responses.
    pub response: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// AA bit.
    pub authoritative: bool,
    /// TC bit.
    pub truncated: bool,
    /// RD bit.
    pub recursion_desired: bool,
    /// RA bit.
    pub recursion_available: bool,
    /// AD bit (RFC 4035).
    pub authentic_data: bool,
    /// CD bit (RFC 4035).
    pub checking_disabled: bool,
    /// Combined (12-bit) response code.
    pub rcode: Rcode,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section (never contains OPT).
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section, OPT excluded.
    pub additionals: Vec<Record>,
    /// EDNS(0) state, if an OPT record was present / should be emitted.
    pub edns: Option<Edns>,
}

impl Default for Message {
    fn default() -> Self {
        Message {
            id: 0,
            response: false,
            opcode: Opcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: false,
            recursion_available: false,
            authentic_data: false,
            checking_disabled: false,
            rcode: Rcode::NoError,
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: None,
        }
    }
}

impl Message {
    /// Build a recursive query for `name`/`qtype` with EDNS and the DO
    /// bit set — the shape of every probe the paper's scanner sends.
    pub fn query(id: u16, name: Name, qtype: RrType) -> Self {
        Message {
            id,
            recursion_desired: true,
            questions: vec![Question::new(name, qtype)],
            edns: Some(Edns::with_do()),
            ..Default::default()
        }
    }

    /// Build a non-recursive (iterative) query, as a resolver sends to
    /// authoritative servers.
    pub fn iterative_query(id: u16, name: Name, qtype: RrType) -> Self {
        Message {
            id,
            recursion_desired: false,
            questions: vec![Question::new(name, qtype)],
            edns: Some(Edns::with_do()),
            ..Default::default()
        }
    }

    /// Start a response mirroring `query`'s ID, opcode, question, and RD
    /// bit.
    pub fn response_to(query: &Message) -> Self {
        Message {
            id: query.id,
            response: true,
            opcode: query.opcode,
            recursion_desired: query.recursion_desired,
            checking_disabled: query.checking_disabled,
            questions: query.questions.clone(),
            ..Default::default()
        }
    }

    /// The first (and in practice only) question.
    pub fn first_question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Iterate EDE entries attached to this message.
    pub fn ede_entries(&self) -> impl Iterator<Item = &crate::ede::EdeEntry> {
        self.edns.iter().flat_map(|e| e.ede_entries())
    }

    /// All EDE codes attached to this message, in wire order.
    pub fn ede_codes(&self) -> Vec<crate::ede::EdeCode> {
        self.ede_entries().map(|e| e.code).collect()
    }

    /// Encoded size in bytes (with name compression), or 0 when the
    /// message cannot be encoded at all.
    pub fn encoded_len(&self) -> usize {
        self.encode().map(|b| b.len()).unwrap_or(0)
    }

    /// The UDP payload size this message's sender can accept: the EDNS
    /// advertisement (floored at the RFC 6891 minimum of 512), or the
    /// classic 512-byte limit when the message carries no OPT record.
    pub fn advertised_payload_size(&self) -> u16 {
        self.edns
            .as_ref()
            .map(|e| e.udp_payload_size.max(512))
            .unwrap_or(512)
    }

    /// A truncated (TC=1) copy of this response, as an authoritative
    /// server returns one when the full answer exceeds the negotiated
    /// UDP payload size: header, question and OPT survive; the answer,
    /// authority and additional sections are dropped (partial sections
    /// must not be consumed — the client re-asks over a stream).
    pub fn truncated_copy(&self) -> Message {
        Message {
            truncated: true,
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            ..self.clone()
        }
    }

    /// Encode to wire format with name compression.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::with_capacity(512);
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// [`Message::encode`] appended to `buf`, whatever it already holds:
    /// compression pointers count from this message's first byte. On
    /// error `buf` is left as it was found.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        let base = buf.len();
        let counts_ok = |n: usize| -> Result<u16, WireError> {
            u16::try_from(n).map_err(|_| WireError::BadCount)
        };
        let header = Header {
            id: self.id,
            response: self.response,
            opcode: self.opcode,
            authoritative: self.authoritative,
            truncated: self.truncated,
            recursion_desired: self.recursion_desired,
            recursion_available: self.recursion_available,
            authentic_data: self.authentic_data,
            checking_disabled: self.checking_disabled,
            rcode_low: self.rcode.header_bits(),
            counts: [
                counts_ok(self.questions.len())?,
                counts_ok(self.answers.len())?,
                counts_ok(self.authorities.len())?,
                counts_ok(self.additionals.len() + usize::from(self.edns.is_some()))?,
            ],
        };
        header.encode(buf);

        let mut compressor = Compressor::at(base);
        for q in &self.questions {
            q.encode(buf, Some(&mut compressor));
        }
        for r in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            r.encode(buf, Some(&mut compressor));
        }
        if let Some(edns) = &self.edns {
            // The one step that can fail once bytes have been written.
            edns.encode_with_ext_rcode(buf, self.rcode.extended_bits())
                .inspect_err(|_| buf.truncate(base))?;
        }
        Ok(())
    }

    /// Decode from wire format.
    pub fn decode(msg: &[u8]) -> Result<Self, WireError> {
        let header = Header::decode(msg)?;
        let mut pos = Header::LEN;

        let mut questions = Vec::with_capacity(usize::from(header.counts[0]));
        for _ in 0..header.counts[0] {
            questions.push(Question::decode(msg, &mut pos)?);
        }

        let mut sections: [Vec<Record>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut edns: Option<Edns> = None;
        let mut ext_rcode_bits: u8 = 0;
        for (section_idx, section) in sections.iter_mut().enumerate() {
            for _ in 0..header.counts[section_idx + 1] {
                // Peek the type to intercept OPT before typed decoding.
                let name_start = pos;
                let name = Name::decode(msg, &mut pos)?;
                if pos + 10 > msg.len() {
                    return Err(WireError::Truncated {
                        context: "record fixed header",
                    });
                }
                let rtype = RrType::from_u16(u16::from_be_bytes([msg[pos], msg[pos + 1]]));
                if rtype == RrType::Opt {
                    // RFC 6891: OPT must be in the additional section and
                    // appear at most once.
                    if section_idx != 2 || edns.is_some() || !name.is_root() {
                        return Err(WireError::BadOpt);
                    }
                    let class_field = u16::from_be_bytes([msg[pos + 2], msg[pos + 3]]);
                    let ttl_field = u32::from_be_bytes([
                        msg[pos + 4],
                        msg[pos + 5],
                        msg[pos + 6],
                        msg[pos + 7],
                    ]);
                    let rdlen = usize::from(u16::from_be_bytes([msg[pos + 8], msg[pos + 9]]));
                    pos += 10;
                    if pos + rdlen > msg.len() {
                        return Err(WireError::Truncated {
                            context: "OPT rdata",
                        });
                    }
                    let (parsed, ext) =
                        Edns::decode(class_field, ttl_field, &msg[pos..pos + rdlen])?;
                    pos += rdlen;
                    edns = Some(parsed);
                    ext_rcode_bits = ext;
                } else {
                    let mut p = name_start;
                    section.push(Record::decode(msg, &mut p)?);
                    pos = p;
                }
            }
        }
        let [answers, authorities, additionals] = sections;

        Ok(Message {
            id: header.id,
            response: header.response,
            opcode: header.opcode,
            authoritative: header.authoritative,
            truncated: header.truncated,
            recursion_desired: header.recursion_desired,
            recursion_available: header.recursion_available,
            authentic_data: header.authentic_data,
            checking_disabled: header.checking_disabled,
            rcode: Rcode::from_parts(header.rcode_low, ext_rcode_bits),
            questions,
            answers,
            authorities,
            additionals,
            edns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ede::{EdeCode, EdeEntry};
    use crate::rdata::Rdata;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x1234, n("valid.extended-dns-errors.com"), RrType::A);
        let wire = q.encode().unwrap();
        let decoded = Message::decode(&wire).unwrap();
        assert_eq!(decoded, q);
        assert!(decoded.edns.unwrap().dnssec_ok);
    }

    #[test]
    fn response_with_ede_roundtrip() {
        let q = Message::query(7, n("allow-query-none.extended-dns-errors.com"), RrType::A);
        let mut r = Message::response_to(&q);
        r.rcode = Rcode::ServFail;
        r.recursion_available = true;
        let mut edns = Edns::default();
        edns.push_ede(EdeEntry::bare(EdeCode::DnskeyMissing));
        edns.push_ede(EdeEntry::bare(EdeCode::NoReachableAuthority));
        edns.push_ede(EdeEntry::with_text(
            EdeCode::NetworkError,
            "192.0.2.1:53 timeout",
        ));
        r.edns = Some(edns);

        let wire = r.encode().unwrap();
        let decoded = Message::decode(&wire).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(
            decoded.ede_codes(),
            vec![
                EdeCode::DnskeyMissing,
                EdeCode::NoReachableAuthority,
                EdeCode::NetworkError
            ]
        );
    }

    #[test]
    fn extended_rcode_roundtrip() {
        let q = Message::query(1, n("example.com"), RrType::A);
        let mut r = Message::response_to(&q);
        r.edns = Some(Edns::default());
        r.rcode = Rcode::BadVers;
        let decoded = Message::decode(&r.encode().unwrap()).unwrap();
        assert_eq!(decoded.rcode, Rcode::BadVers);
    }

    #[test]
    fn full_sections_roundtrip() {
        let q = Message::query(42, n("www.example.com"), RrType::A);
        let mut r = Message::response_to(&q);
        r.authoritative = true;
        r.answers.push(Record::new(
            n("www.example.com"),
            300,
            Rdata::A("192.0.2.80".parse().unwrap()),
        ));
        r.authorities.push(Record::new(
            n("example.com"),
            3600,
            Rdata::Ns(n("ns1.example.com")),
        ));
        r.additionals.push(Record::new(
            n("ns1.example.com"),
            3600,
            Rdata::A("192.0.2.53".parse().unwrap()),
        ));
        r.edns = Some(Edns::default());
        let decoded = Message::decode(&r.encode().unwrap()).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn compression_shrinks_messages() {
        let mut m = Message::query(1, n("a.example.com"), RrType::A);
        for i in 0..5 {
            m.additionals.push(Record::new(
                n(&format!("ns{i}.example.com")),
                60,
                Rdata::A("192.0.2.1".parse().unwrap()),
            ));
        }
        let wire = m.encode().unwrap();
        // Uncompressed, each additional owner name would repeat
        // ".example.com" (13 bytes); compressed they share a pointer.
        let uncompressed_estimate = 12 + (15 + 4) + 5 * (17 + 10 + 4) + 11;
        assert!(wire.len() < uncompressed_estimate);
        assert_eq!(Message::decode(&wire).unwrap(), m);
    }

    #[test]
    fn double_opt_rejected() {
        let q = Message::query(1, n("example.com"), RrType::A);
        let mut wire = q.encode().unwrap();
        // Duplicate the OPT record bytes (last 11 bytes) and bump ARCOUNT.
        let opt = wire[wire.len() - 11..].to_vec();
        wire.extend_from_slice(&opt);
        wire[11] = 2;
        assert_eq!(Message::decode(&wire), Err(WireError::BadOpt));
    }

    #[test]
    fn opt_outside_additional_rejected() {
        // Hand-build a message claiming an OPT in the answer section.
        let mut wire = Vec::new();
        let header = Header {
            id: 1,
            response: true,
            counts: [0, 1, 0, 0],
            ..Default::default()
        };
        header.encode(&mut wire);
        Edns::default().encode(&mut wire).unwrap();
        assert_eq!(Message::decode(&wire), Err(WireError::BadOpt));
    }

    #[test]
    fn count_overruns_rejected() {
        let q = Message::query(1, n("example.com"), RrType::A);
        let mut wire = q.encode().unwrap();
        wire[5] = 9; // QDCOUNT = 9, but only one question present
        assert!(Message::decode(&wire).is_err());
    }

    #[test]
    fn truncated_copy_keeps_header_and_question_only() {
        let q = Message::query(7, n("big.example.com"), RrType::A);
        let mut resp = Message::response_to(&q);
        resp.edns = Some(Edns::default());
        for i in 0..40 {
            resp.answers.push(Record::new(
                n(&format!("a{i}.big.example.com")),
                60,
                Rdata::Txt(vec![vec![0u8; 64]]),
            ));
        }
        let full = resp.encoded_len();
        let tc = resp.truncated_copy();
        assert!(tc.truncated);
        assert!(tc.answers.is_empty() && tc.authorities.is_empty());
        assert_eq!(tc.questions, resp.questions);
        assert!(tc.encoded_len() < full);
        // Round-trips with the TC bit intact.
        let wire = tc.encode().unwrap();
        assert!(Message::decode(&wire).unwrap().truncated);
    }

    #[test]
    fn advertised_payload_size_floors_at_512() {
        let mut q = Message::query(1, n("example.com"), RrType::A);
        assert_eq!(q.advertised_payload_size(), 1232);
        q.edns.as_mut().unwrap().udp_payload_size = 100;
        assert_eq!(q.advertised_payload_size(), 512);
        q.edns = None;
        assert_eq!(q.advertised_payload_size(), 512);
    }
}
