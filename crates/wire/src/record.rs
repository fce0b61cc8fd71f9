//! Resource records and the CLASS registry.

use crate::error::WireError;
use crate::name::{Compressor, Name};
use crate::rdata::Rdata;
use crate::rrtype::RrType;
use std::fmt;

/// DNS CLASS values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// The Internet.
    In,
    /// CHAOS (used by `version.bind` style queries).
    Ch,
    /// QCLASS ANY.
    Any,
    /// Anything else.
    Other(u16),
}

impl Class {
    /// Numeric class.
    pub fn to_u16(self) -> u16 {
        match self {
            Class::In => 1,
            Class::Ch => 3,
            Class::Any => 255,
            Class::Other(v) => v,
        }
    }

    /// Decode a numeric class.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => Class::In,
            3 => Class::Ch,
            255 => Class::Any,
            other => Class::Other(other),
        }
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Class::In => write!(f, "IN"),
            Class::Ch => write!(f, "CH"),
            Class::Any => write!(f, "ANY"),
            Class::Other(v) => write!(f, "CLASS{v}"),
        }
    }
}

/// One resource record (owner, class, TTL, typed RDATA).
///
/// The OPT pseudo-record is *not* represented here — the message layer
/// lifts it into [`crate::edns::Edns`] so that application code never sees
/// it as a record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Class (IN for everything in this study).
    pub class: Class,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Typed payload; also determines the RR TYPE on the wire.
    pub rdata: Rdata,
}

impl Record {
    /// Construct an IN-class record.
    pub fn new(name: Name, ttl: u32, rdata: Rdata) -> Self {
        Record {
            name,
            class: Class::In,
            ttl,
            rdata,
        }
    }

    /// The RR TYPE (derived from the RDATA variant).
    pub fn rtype(&self) -> RrType {
        self.rdata.rtype()
    }

    /// Encode including the owner name and RDLENGTH framing.
    pub fn encode(&self, buf: &mut Vec<u8>, mut compressor: Option<&mut Compressor>) {
        self.name.encode(buf, compressor.as_deref_mut());
        buf.extend_from_slice(&self.rtype().to_u16().to_be_bytes());
        buf.extend_from_slice(&self.class.to_u16().to_be_bytes());
        buf.extend_from_slice(&self.ttl.to_be_bytes());
        let rdlen_at = buf.len();
        buf.extend_from_slice(&[0, 0]);
        self.rdata.encode(buf, compressor);
        let rdlen = (buf.len() - rdlen_at - 2) as u16;
        buf[rdlen_at..rdlen_at + 2].copy_from_slice(&rdlen.to_be_bytes());
    }

    /// Decode one record at `msg[*pos..]`, advancing `*pos`.
    pub fn decode(msg: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        let name = Name::decode(msg, pos)?;
        if *pos + 10 > msg.len() {
            return Err(WireError::Truncated {
                context: "record fixed header",
            });
        }
        let rtype = RrType::from_u16(u16::from_be_bytes([msg[*pos], msg[*pos + 1]]));
        let class = Class::from_u16(u16::from_be_bytes([msg[*pos + 2], msg[*pos + 3]]));
        let ttl = u32::from_be_bytes([msg[*pos + 4], msg[*pos + 5], msg[*pos + 6], msg[*pos + 7]]);
        let rdlen = usize::from(u16::from_be_bytes([msg[*pos + 8], msg[*pos + 9]]));
        *pos += 10;
        let rdata = Rdata::decode(msg, pos, rdlen, rtype)?;
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {:?}",
            self.name,
            self.ttl,
            self.class,
            self.rtype(),
            self.rdata
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_roundtrip() {
        for v in [1u16, 3, 255, 4, 42] {
            assert_eq!(Class::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn record_roundtrip() {
        let rec = Record::new(
            Name::parse("www.example.com").unwrap(),
            3600,
            Rdata::A("192.0.2.7".parse().unwrap()),
        );
        let mut buf = Vec::new();
        rec.encode(&mut buf, None);
        let mut pos = 0;
        assert_eq!(Record::decode(&buf, &mut pos).unwrap(), rec);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn record_roundtrip_with_compression() {
        let a = Record::new(
            Name::parse("ns1.example.com").unwrap(),
            60,
            Rdata::Ns(Name::parse("ns2.example.com").unwrap()),
        );
        let mut buf = Vec::new();
        let mut c = Compressor::new();
        a.encode(&mut buf, Some(&mut c));
        a.encode(&mut buf, Some(&mut c));
        let mut pos = 0;
        assert_eq!(Record::decode(&buf, &mut pos).unwrap(), a);
        assert_eq!(Record::decode(&buf, &mut pos).unwrap(), a);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_record_rejected() {
        let rec = Record::new(
            Name::parse("x.org").unwrap(),
            1,
            Rdata::Txt(vec![b"abc".to_vec()]),
        );
        let mut buf = Vec::new();
        rec.encode(&mut buf, None);
        for cut in 1..buf.len() {
            let mut pos = 0;
            assert!(
                Record::decode(&buf[..cut], &mut pos).is_err(),
                "cut at {cut} should fail"
            );
        }
    }
}
