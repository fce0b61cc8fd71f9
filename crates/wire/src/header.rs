//! The 12-byte DNS message header (RFC 1035 §4.1.1).

use crate::error::WireError;

/// Query/operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Inverse query (obsolete).
    IQuery,
    /// Server status request.
    Status,
    /// Zone change notification (RFC 1996).
    Notify,
    /// Dynamic update (RFC 2136).
    Update,
    /// Anything else.
    Other(u8),
}

impl Opcode {
    /// Numeric opcode.
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Other(v) => v & 0x0F,
        }
    }

    /// Decode a numeric opcode.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Other(other),
        }
    }
}

/// Decoded header. The RCODE stored here is only the low 4 bits; the
/// message layer merges in the EDNS extension to produce [`Rcode`](crate::rcode::Rcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Transaction identifier.
    pub id: u16,
    /// True in responses (QR bit).
    pub response: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// Authoritative Answer.
    pub authoritative: bool,
    /// TrunCation.
    pub truncated: bool,
    /// Recursion Desired.
    pub recursion_desired: bool,
    /// Recursion Available.
    pub recursion_available: bool,
    /// Authentic Data (RFC 4035): set by validating resolvers when all
    /// data in the answer and authority sections validated.
    pub authentic_data: bool,
    /// Checking Disabled (RFC 4035): set by clients to suppress
    /// validation.
    pub checking_disabled: bool,
    /// Low 4 bits of the response code.
    pub rcode_low: u8,
    /// Entry counts for the four sections.
    pub counts: [u16; 4],
}

impl Default for Header {
    fn default() -> Self {
        Header {
            id: 0,
            response: false,
            opcode: Opcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: false,
            recursion_available: false,
            authentic_data: false,
            checking_disabled: false,
            rcode_low: 0,
            counts: [0; 4],
        }
    }
}

impl Header {
    /// Wire size of the header.
    pub const LEN: usize = 12;

    /// Encode into 12 bytes.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.id.to_be_bytes());
        let mut b2: u8 = 0;
        if self.response {
            b2 |= 0x80;
        }
        b2 |= self.opcode.to_u8() << 3;
        if self.authoritative {
            b2 |= 0x04;
        }
        if self.truncated {
            b2 |= 0x02;
        }
        if self.recursion_desired {
            b2 |= 0x01;
        }
        let mut b3: u8 = 0;
        if self.recursion_available {
            b3 |= 0x80;
        }
        if self.authentic_data {
            b3 |= 0x20;
        }
        if self.checking_disabled {
            b3 |= 0x10;
        }
        b3 |= self.rcode_low & 0x0F;
        buf.push(b2);
        buf.push(b3);
        for c in self.counts {
            buf.extend_from_slice(&c.to_be_bytes());
        }
    }

    /// Decode from the first 12 bytes of `msg`.
    pub fn decode(msg: &[u8]) -> Result<Self, WireError> {
        if msg.len() < Self::LEN {
            return Err(WireError::Truncated { context: "header" });
        }
        let b2 = msg[2];
        let b3 = msg[3];
        Ok(Header {
            id: u16::from_be_bytes([msg[0], msg[1]]),
            response: b2 & 0x80 != 0,
            opcode: Opcode::from_u8(b2 >> 3),
            authoritative: b2 & 0x04 != 0,
            truncated: b2 & 0x02 != 0,
            recursion_desired: b2 & 0x01 != 0,
            recursion_available: b3 & 0x80 != 0,
            authentic_data: b3 & 0x20 != 0,
            checking_disabled: b3 & 0x10 != 0,
            rcode_low: b3 & 0x0F,
            counts: [
                u16::from_be_bytes([msg[4], msg[5]]),
                u16::from_be_bytes([msg[6], msg[7]]),
                u16::from_be_bytes([msg[8], msg[9]]),
                u16::from_be_bytes([msg[10], msg[11]]),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_flags() {
        let h = Header {
            id: 0xBEEF,
            response: true,
            opcode: Opcode::Update,
            authoritative: true,
            truncated: true,
            recursion_desired: true,
            recursion_available: true,
            authentic_data: true,
            checking_disabled: true,
            rcode_low: 3,
            counts: [1, 2, 3, 4],
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), Header::LEN);
        assert_eq!(Header::decode(&buf).unwrap(), h);
    }

    #[test]
    fn default_is_query() {
        let mut buf = Vec::new();
        Header::default().encode(&mut buf);
        let h = Header::decode(&buf).unwrap();
        assert!(!h.response);
        assert_eq!(h.opcode, Opcode::Query);
        assert_eq!(h.rcode_low, 0);
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(Header::decode(&[0; 11]).is_err());
    }

    #[test]
    fn z_bit_ignored() {
        // Bit 6 of byte 3 (the reserved Z bit) must not corrupt decoding.
        let mut buf = Vec::new();
        Header::default().encode(&mut buf);
        buf[3] |= 0x40;
        let h = Header::decode(&buf).unwrap();
        assert_eq!(h, Header::default());
    }
}
