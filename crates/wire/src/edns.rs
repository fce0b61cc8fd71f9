//! EDNS(0) — the OPT pseudo-record (RFC 6891) and its options.
//!
//! The OPT record reuses RR framing for non-RR purposes: the owner is the
//! root, the CLASS field carries the requester's UDP payload size, and the
//! TTL field packs `EXTENDED-RCODE ‖ VERSION ‖ DO ‖ Z`. RDATA is a list of
//! `{OPTION-CODE, OPTION-LENGTH, OPTION-DATA}` triples. Extended DNS
//! Errors ride in option code 15.

use crate::ede::{EdeEntry, EDE_OPTION_CODE};
use crate::error::WireError;
use crate::name::Name;
use crate::rrtype::RrType;

/// Default EDNS payload size we advertise.
pub const DEFAULT_UDP_PAYLOAD: u16 = 1232;

/// One EDNS option.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EdnsOption {
    /// RFC 8914 Extended DNS Error.
    Ede(EdeEntry),
    /// Any other option, kept opaque.
    Unknown {
        /// OPTION-CODE.
        code: u16,
        /// OPTION-DATA.
        data: Vec<u8>,
    },
}

impl EdnsOption {
    fn code(&self) -> u16 {
        match self {
            EdnsOption::Ede(_) => EDE_OPTION_CODE,
            EdnsOption::Unknown { code, .. } => *code,
        }
    }
}

/// Decoded EDNS(0) state for one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edns {
    /// Requester's maximum UDP payload size (OPT CLASS field).
    pub udp_payload_size: u16,
    /// EDNS version; only 0 is defined.
    pub version: u8,
    /// DNSSEC OK: the client wants DNSSEC records in the response.
    pub dnssec_ok: bool,
    /// Options, in wire order.
    pub options: Vec<EdnsOption>,
}

impl Default for Edns {
    fn default() -> Self {
        Edns {
            udp_payload_size: DEFAULT_UDP_PAYLOAD,
            version: 0,
            dnssec_ok: false,
            options: Vec::new(),
        }
    }
}

impl Edns {
    /// A plain EDNS block with the DO bit set (what a validating resolver
    /// or the paper's scanner sends).
    pub fn with_do() -> Self {
        Edns {
            dnssec_ok: true,
            ..Default::default()
        }
    }

    /// The OPT a server answers this one with: its own payload size and
    /// version 0, none of the client's options echoed, and the DO bit
    /// copied (RFC 3225 §3, RFC 6891 §6.1.4).
    pub fn reply(&self) -> Self {
        Edns {
            dnssec_ok: self.dnssec_ok,
            ..Default::default()
        }
    }

    /// Iterate the EDE entries present, in order.
    pub fn ede_entries(&self) -> impl Iterator<Item = &EdeEntry> {
        self.options.iter().filter_map(|o| match o {
            EdnsOption::Ede(e) => Some(e),
            EdnsOption::Unknown { .. } => None,
        })
    }

    /// Append an EDE entry.
    pub fn push_ede(&mut self, entry: EdeEntry) {
        self.options.push(EdnsOption::Ede(entry));
    }

    /// Encode as a complete OPT record.
    pub fn encode(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        Name::root().encode(buf, None);
        buf.extend_from_slice(&RrType::Opt.to_u16().to_be_bytes());
        buf.extend_from_slice(&self.udp_payload_size.to_be_bytes());
        // The extended-RCODE byte is owned by the message layer (it is
        // part of the combined Rcode); encode_with_ext_rcode fills it.
        buf.push(0);
        buf.push(self.version);
        let flags: u16 = if self.dnssec_ok { 0x8000 } else { 0 };
        buf.extend_from_slice(&flags.to_be_bytes());
        let rdlen_at = buf.len();
        buf.extend_from_slice(&[0, 0]);
        for opt in &self.options {
            buf.extend_from_slice(&opt.code().to_be_bytes());
            let len_at = buf.len();
            buf.extend_from_slice(&[0, 0]);
            match opt {
                EdnsOption::Ede(e) => e.encode_payload(buf)?,
                EdnsOption::Unknown { data, .. } => buf.extend_from_slice(data),
            }
            let len = u16::try_from(buf.len() - len_at - 2)
                .map_err(|_| WireError::FieldOverflow("EDNS option"))?;
            buf[len_at..len_at + 2].copy_from_slice(&len.to_be_bytes());
        }
        let rdlen = buf.len() - rdlen_at - 2;
        if rdlen > usize::from(u16::MAX) {
            return Err(WireError::FieldOverflow("OPT RDATA"));
        }
        buf[rdlen_at..rdlen_at + 2].copy_from_slice(&(rdlen as u16).to_be_bytes());
        Ok(())
    }

    /// Encode as a complete OPT record, with the extended-RCODE byte of
    /// the TTL field set to `ext_rcode` (the high 8 bits of the combined
    /// response code).
    pub fn encode_with_ext_rcode(&self, buf: &mut Vec<u8>, ext_rcode: u8) -> Result<(), WireError> {
        let at = buf.len();
        self.encode(buf)?;
        // Patch TTL byte 0 (offset: root(1) + type(2) + class(2) = 5).
        buf[at + 5] = ext_rcode;
        Ok(())
    }

    /// Decode the body of an OPT record whose fixed RR fields have
    /// already been read, returning the EDNS state and the extended-RCODE
    /// bits from the TTL field. `class_field` and `ttl_field` are the raw
    /// CLASS and TTL values; `rdata` is the option list.
    pub fn decode(class_field: u16, ttl_field: u32, rdata: &[u8]) -> Result<(Self, u8), WireError> {
        let mut options = Vec::new();
        let mut pos = 0;
        while pos < rdata.len() {
            if pos + 4 > rdata.len() {
                return Err(WireError::Truncated {
                    context: "EDNS option header",
                });
            }
            let code = u16::from_be_bytes([rdata[pos], rdata[pos + 1]]);
            let len = usize::from(u16::from_be_bytes([rdata[pos + 2], rdata[pos + 3]]));
            pos += 4;
            if pos + len > rdata.len() {
                return Err(WireError::Truncated {
                    context: "EDNS option data",
                });
            }
            let data = &rdata[pos..pos + len];
            pos += len;
            options.push(if code == EDE_OPTION_CODE {
                EdnsOption::Ede(EdeEntry::decode_payload(data)?)
            } else {
                EdnsOption::Unknown {
                    code,
                    data: data.to_vec(),
                }
            });
        }
        Ok((
            Edns {
                udp_payload_size: class_field,
                version: ((ttl_field >> 16) & 0xFF) as u8,
                dnssec_ok: ttl_field & 0x8000 != 0,
                options,
            },
            (ttl_field >> 24) as u8,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ede::EdeCode;
    use crate::record::Class;

    /// Encode then re-parse through the raw RR framing.
    fn roundtrip(edns: &Edns) -> Edns {
        let mut buf = Vec::new();
        edns.encode(&mut buf).unwrap();
        // Manually unpack the RR framing: root name (1) + type (2).
        assert_eq!(buf[0], 0);
        assert_eq!(u16::from_be_bytes([buf[1], buf[2]]), 41);
        let class = u16::from_be_bytes([buf[3], buf[4]]);
        let ttl = u32::from_be_bytes([buf[5], buf[6], buf[7], buf[8]]);
        let rdlen = usize::from(u16::from_be_bytes([buf[9], buf[10]]));
        assert_eq!(buf.len(), 11 + rdlen);
        Edns::decode(class, ttl, &buf[11..]).unwrap().0
    }

    #[test]
    fn plain_roundtrip() {
        let e = Edns::with_do();
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn ede_options_roundtrip() {
        let mut e = Edns::default();
        e.push_ede(EdeEntry::bare(EdeCode::NoReachableAuthority));
        e.push_ede(EdeEntry::with_text(
            EdeCode::NetworkError,
            "203.0.113.5:53 rcode=REFUSED for example.com A",
        ));
        let decoded = roundtrip(&e);
        assert_eq!(decoded, e);
        assert_eq!(decoded.ede_entries().count(), 2);
    }

    #[test]
    fn unknown_options_preserved() {
        let mut e = Edns::default();
        e.options.push(EdnsOption::Unknown {
            code: 10,
            data: vec![1, 2, 3, 4, 5, 6, 7, 8],
        });
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn extended_rcode_packing() {
        let e = Edns::default();
        let mut buf = Vec::new();
        e.encode_with_ext_rcode(&mut buf, 1).unwrap();
        let class = u16::from_be_bytes([buf[3], buf[4]]);
        let ttl = u32::from_be_bytes([buf[5], buf[6], buf[7], buf[8]]);
        let (got, ext) = Edns::decode(class, ttl, &buf[11..]).unwrap();
        assert_eq!(ext, 1);
        assert_eq!(got.version, 0);
    }

    #[test]
    fn class_is_payload_size() {
        // Sanity-check the field reuse against the Class enum: 1232 is not
        // a class, it is a payload size.
        assert_eq!(Class::from_u16(DEFAULT_UDP_PAYLOAD).to_u16(), 1232);
    }

    #[test]
    fn truncated_option_rejected() {
        assert!(Edns::decode(512, 0, &[0, 15, 0, 10, 0]).is_err());
        assert!(Edns::decode(512, 0, &[0, 15, 0]).is_err());
    }
}
