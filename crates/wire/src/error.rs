//! Wire-format error type.

use std::fmt;

/// Errors raised while encoding or decoding DNS messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes while decoding.
    Truncated {
        /// What was being decoded when the buffer ended.
        context: &'static str,
    },
    /// A label exceeded 63 octets or a name exceeded 255 octets.
    NameTooLong,
    /// A label contained characters we refuse to parse from text form.
    BadLabel(String),
    /// A compression pointer pointed forward or formed a loop.
    BadPointer,
    /// A count field promised more entries than the payload holds.
    BadCount,
    /// RDATA length disagreed with the parsed content.
    BadRdataLength {
        /// RR type whose RDATA was inconsistent.
        rtype: u16,
    },
    /// More than one OPT record, or an OPT record somewhere other than the
    /// additional section.
    BadOpt,
    /// An NSEC/NSEC3 type bitmap not in the form RFC 4034 §4.1.2 requires.
    BadTypeBitmap(&'static str),
    /// A value did not fit its wire field (e.g. oversized EXTRA-TEXT).
    FieldOverflow(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => {
                write!(f, "message truncated while reading {context}")
            }
            WireError::NameTooLong => write!(f, "domain name exceeds RFC 1035 length limits"),
            WireError::BadLabel(l) => write!(f, "invalid label {l:?}"),
            WireError::BadPointer => write!(f, "invalid compression pointer"),
            WireError::BadCount => write!(f, "section count exceeds message contents"),
            WireError::BadRdataLength { rtype } => {
                write!(f, "RDATA length mismatch for RR type {rtype}")
            }
            WireError::BadOpt => write!(f, "malformed OPT pseudo-record placement"),
            WireError::BadTypeBitmap(why) => write!(f, "malformed type bitmap: {why}"),
            WireError::FieldOverflow(what) => write!(f, "value too large for field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}
