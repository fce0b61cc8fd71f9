//! Complete DNS message encoding and decoding.
//!
//! [`Message`] is the application-level view: the OPT pseudo-record is
//! lifted out of the additional section into [`Edns`], and the 12-bit
//! extended RCODE is presented as a single [`Rcode`].

use crate::ede::EdeEntry;
use crate::edns::Edns;
use crate::error::WireError;
use crate::header::{Header, Opcode};
use crate::name::{encode_wire, Compressor, Name};
use crate::rcode::Rcode;
use crate::record::{Class, Record};
use crate::request::Request;
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

    /// This question's name's wire form, type and class: what the
    /// encoder writes.
    fn fields(&self) -> QuestionFields<'_> {
        (self.name.as_wire(), self.qtype, self.qclass)
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

/// A question as the encoder writes it: its name's canonical wire form,
/// its type and its class.
type QuestionFields<'a> = (&'a [u8], RrType, Class);

/// A message's header and sections, borrowed from wherever they live:
/// the one encoder. [`Message::encode_into`] is this writer over the
/// message's own fields; a server writes a response over the query's
/// question and a cache entry's records and EDE list without building a
/// [`Message`].
#[derive(Debug, Clone, Copy)]
pub struct Sections<'a> {
    /// ID and flag bits. The writer fills in the section counts and the
    /// low RCODE bits; whatever the header holds there is ignored.
    pub header: Header,
    /// Combined (12-bit) response code.
    pub rcode: Rcode,
    /// Question section.
    pub questions: &'a [Question],
    /// Answer section.
    pub answers: &'a [Record],
    /// Authority section.
    pub authorities: &'a [Record],
    /// Additional section, OPT excluded.
    pub additionals: &'a [Record],
    /// The OPT record, if one is sent, and EDE entries written as
    /// options after its own.
    pub edns: Option<(&'a Edns, &'a [EdeEntry])>,
}

impl Sections<'_> {
    /// Encode, with name compression, appended to `buf`, whatever it
    /// already holds: compression pointers count from this message's
    /// first byte. On error `buf` is left as it was found.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        let questions = self.questions.iter().map(Question::fields);
        self.encode_marked(questions, buf).map(drop)
    }

    /// [`encode_into`](Self::encode_into) with the question section
    /// written from `questions` instead of `self.questions`, returning
    /// where the OPT record starts (the end, without one), as an offset
    /// from this message's first byte.
    fn encode_marked<'q>(
        &self,
        questions: impl ExactSizeIterator<Item = QuestionFields<'q>>,
        buf: &mut Vec<u8>,
    ) -> Result<usize, WireError> {
        let base = buf.len();
        let count = |n: usize| u16::try_from(n).map_err(|_| WireError::BadCount);
        let header = Header {
            rcode_low: self.rcode.header_bits(),
            counts: [
                count(questions.len())?,
                count(self.answers.len())?,
                count(self.authorities.len())?,
                count(self.additionals.len() + usize::from(self.edns.is_some()))?,
            ],
            ..self.header
        };
        header.encode(buf);

        let mut compressor = Compressor::at(base);
        for (qname, qtype, qclass) in questions {
            encode_wire(qname, buf, Some(&mut compressor));
            buf.extend_from_slice(&qtype.to_u16().to_be_bytes());
            buf.extend_from_slice(&qclass.to_u16().to_be_bytes());
        }
        for r in self
            .answers
            .iter()
            .chain(self.authorities)
            .chain(self.additionals)
        {
            r.encode(buf, Some(&mut compressor));
        }
        let opt_at = buf.len() - base;
        if let Some((edns, ede)) = self.edns {
            // The one step that can fail once bytes have been written.
            edns.encode(buf, self.rcode.extended_bits(), ede)
                .inspect_err(|_| buf.truncate(base))?;
        }
        Ok(opt_at)
    }
}

/// A recursive server's reply as [`Sections`] writes it for a canonical
/// request — ID 0, RD and CD clear, an OPT with DO clear — kept so that
/// the same reply to another request is a copy and a few bit writes
/// instead of an encode. A request can change only the ID, RD, CD, DO
/// and whether an OPT is sent; everything else is fixed when the image
/// is built.
#[derive(Debug)]
pub struct ReplyImage {
    /// The reply, the server's OPT ([`Edns::default`]) its last record.
    bytes: Box<[u8]>,
    /// Where that OPT starts.
    opt_at: usize,
}

/// Header byte 2: RD.
const RD: u8 = 0x01;
/// Header byte 3: CD.
const CD: u8 = 0x10;
/// The OPT record's flags byte, from its start (root owner, TYPE, CLASS,
/// extended RCODE, VERSION), and its DO bit.
const OPT_FLAGS: usize = 7;
const DO: u8 = 0x80;

impl ReplyImage {
    /// Encode, at the end of `scratch`, the reply to the canonical
    /// request for `request`'s question: RA set, AD as
    /// `authentic_data`, `rcode`, `answers`, and the server's OPT with
    /// `ede` as its options. Keeps an exactly sized copy of the bytes;
    /// `scratch` is left as found.
    pub fn encode(
        rcode: Rcode,
        authentic_data: bool,
        request: &Request,
        answers: &[Record],
        ede: &[EdeEntry],
        scratch: &mut Vec<u8>,
    ) -> Result<Self, WireError> {
        let canonical = Sections {
            header: Header {
                response: true,
                recursion_available: true,
                authentic_data,
                ..Header::default()
            },
            rcode,
            questions: &[],
            answers,
            authorities: &[],
            additionals: &[],
            edns: Some((&Edns::default(), ede)),
        };
        let base = scratch.len();
        let question = (request.qname(), request.qtype, Class::In);
        let opt_at = canonical.encode_marked(std::iter::once(question), scratch)?;
        let bytes = scratch[base..].into();
        scratch.truncate(base);
        Ok(ReplyImage { bytes, opt_at })
    }

    /// How many bytes [`write`](Self::write) appends for `request`.
    pub fn len_for(&self, request: &Request) -> usize {
        match request.opt {
            Some(_) => self.bytes.len(),
            None => self.opt_at,
        }
    }

    /// Append this reply as answered to `request`: its ID, RD and CD
    /// bits, and the OPT only when `request` carried one, with its DO
    /// bit.
    pub fn write(&self, request: &Request, out: &mut Vec<u8>) {
        let base = out.len();
        out.extend_from_slice(&self.bytes[..self.len_for(request)]);
        let header = &mut out[base..base + Header::LEN];
        header[..2].copy_from_slice(&request.id.to_be_bytes());
        if request.recursion_desired {
            header[2] |= RD;
        }
        if request.checking_disabled {
            header[3] |= CD;
        }
        match &request.opt {
            None => {
                // ARCOUNT, which counts the OPT left off.
                let arcount = u16::from_be_bytes([header[10], header[11]]) - 1;
                header[10..].copy_from_slice(&arcount.to_be_bytes());
            }
            Some(opt) if opt.dnssec_ok => out[base + self.opt_at + OPT_FLAGS] |= DO,
            Some(_) => {}
        }
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
        self.sections().encode_into(buf)
    }

    /// This message's header and sections, borrowed, as the encoder
    /// writes them.
    pub fn sections(&self) -> Sections<'_> {
        Sections {
            header: Header {
                id: self.id,
                response: self.response,
                opcode: self.opcode,
                authoritative: self.authoritative,
                truncated: self.truncated,
                recursion_desired: self.recursion_desired,
                recursion_available: self.recursion_available,
                authentic_data: self.authentic_data,
                checking_disabled: self.checking_disabled,
                ..Header::default()
            },
            rcode: self.rcode,
            questions: &self.questions,
            answers: &self.answers,
            authorities: &self.authorities,
            additionals: &self.additionals,
            edns: self.edns.as_ref().map(|edns| (edns, &[][..])),
        }
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
    use crate::ede::EdeCode;
    use crate::edns::EdnsOption;
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
        edns.options
            .push(EdnsOption::Ede(EdeEntry::bare(EdeCode::DnskeyMissing)));
        edns.options.push(EdnsOption::Ede(EdeEntry::bare(
            EdeCode::NoReachableAuthority,
        )));
        edns.options.push(EdnsOption::Ede(EdeEntry::with_text(
            EdeCode::NetworkError,
            "192.0.2.1:53 timeout",
        )));
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
        Edns::default().encode(&mut wire, 0, &[]).unwrap();
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

    /// A reply to `query` as a server writes one: RA and AD set,
    /// `answers`, and the server's OPT with `ede` as its options only when
    /// the query carried an OPT.
    fn reply_to(query: &Message, rcode: Rcode, answers: &[Record], ede: &[EdeEntry]) -> Message {
        let mut r = Message::response_to(query);
        r.rcode = rcode;
        r.recursion_available = true;
        r.authentic_data = true;
        r.answers = answers.to_vec();
        r.edns = query.edns.as_ref().map(|opt| {
            let mut edns = Edns::reply(opt);
            edns.options
                .extend(ede.iter().cloned().map(EdnsOption::Ede));
            edns
        });
        r
    }

    /// An image built once writes, for every request shape, the bytes
    /// the encoder writes for that request's own reply: ID, RD, CD, DO,
    /// no OPT, and an extended RCODE.
    #[test]
    fn a_reply_image_writes_what_the_encoder_writes() {
        let name = n("big.example.com");
        let answers: Vec<Record> = (0..3)
            .map(|i| {
                let owner = n(&format!("a{i}.big.example.com"));
                Record::new(owner, 60, Rdata::Txt(vec![vec![b'x'; 40]]))
            })
            .collect();
        let ede = [EdeEntry::with_text(EdeCode::Other, "why")];
        for rcode in [Rcode::NoError, Rcode::BadVers] {
            let mut scratch = vec![0xAA; 3];
            let request = Request::from_query(&Message::query(0, name.clone(), RrType::Txt));
            let request = request.unwrap();
            let image =
                ReplyImage::encode(rcode, true, &request, &answers, &ede, &mut scratch).unwrap();
            assert_eq!(scratch, [0xAA; 3], "scratch left as found");
            for edns in [None, Some(Edns::default()), Some(Edns::with_do())] {
                for (rd, cd) in [(false, false), (true, false), (false, true), (true, true)] {
                    let mut query = Message::query(0xBEEF, name.clone(), RrType::Txt);
                    query.edns = edns.clone();
                    (query.recursion_desired, query.checking_disabled) = (rd, cd);
                    let expected = reply_to(&query, rcode, &answers, &ede).encode().unwrap();
                    let request = Request::from_query(&query).unwrap();
                    let mut out = vec![0x55];
                    image.write(&request, &mut out);
                    let case = format!("{rcode:?} {edns:?} rd {rd} cd {cd}");
                    assert_eq!(image.len_for(&request), expected.len(), "{case}");
                    assert_eq!(out[0], 0x55, "{case}");
                    assert_eq!(out[1..], expected, "{case}");
                }
            }
        }
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
