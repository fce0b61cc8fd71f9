//! Master-file parsing — the inverse of [`crate::textual`].
//!
//! Accepts the dialect this library emits (absolute owner names, explicit
//! TTL and class, one record per line, `$ORIGIN` header) plus comments
//! and blank lines. Together with the renderer this gives the testbed a
//! lossless text round trip: every zone — including the deliberately
//! broken ones — can be exported, stored, edited, and reloaded.

use crate::zone::Zone;
use ede_crypto::{base32, base64};
use ede_wire::rdata::{Rdata, Rrsig, Soa, TypeBitmap};
use ede_wire::{Name, RrType};
use std::fmt;

/// Errors from [`parse_master_file`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for file-level problems).
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The structured cause of a [`ParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// Malformed RRSIG timestamp (must be `YYYYMMDDHHmmSS`).
    BadTimestamp {
        /// The offending text.
        text: String,
    },
    /// Timestamp outside the u32 epoch range.
    TimestampOutOfRange {
        /// The offending text.
        text: String,
    },
    /// Malformed hexadecimal string.
    BadHex {
        /// The offending text.
        text: String,
    },
    /// Malformed domain name.
    BadName {
        /// The offending text.
        text: String,
        /// Why the name parser rejected it.
        reason: String,
    },
    /// A numeric or otherwise typed field failed to parse.
    BadField {
        /// What the field is (e.g. "TTL", "key tag").
        what: &'static str,
        /// The offending text.
        text: String,
    },
    /// Malformed IP address in an A/AAAA record.
    BadAddress {
        /// Address family: "IPv4" or "IPv6".
        family: &'static str,
    },
    /// Malformed base64/base32 blob.
    BadEncoding {
        /// What the blob is (e.g. "base64 public key").
        what: &'static str,
    },
    /// Unknown RR-type mnemonic.
    UnknownType {
        /// The offending mnemonic.
        text: String,
    },
    /// Too few RDATA fields for the record type.
    MissingFields {
        /// The record type being parsed.
        rtype: RrType,
        /// Fields required.
        need: usize,
        /// Fields present.
        got: usize,
    },
    /// A type this parser has no RDATA syntax for, without the RFC 3597
    /// `\#` escape.
    UnsupportedRdata {
        /// The record type.
        rtype: RrType,
    },
    /// Record line shorter than `owner TTL class type`.
    ShortRecord,
    /// A class other than `IN`.
    UnsupportedClass {
        /// The offending class text.
        text: String,
    },
    /// The file never declared `$ORIGIN`.
    MissingOrigin,
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::BadTimestamp { text } => write!(f, "bad RRSIG timestamp {text:?}"),
            ParseErrorKind::TimestampOutOfRange { text } => {
                write!(f, "timestamp {text:?} out of range")
            }
            ParseErrorKind::BadHex { text } => write!(f, "bad hex {text:?}"),
            ParseErrorKind::BadName { text, reason } => write!(f, "bad name {text:?}: {reason}"),
            ParseErrorKind::BadField { what, text } => write!(f, "bad {what} {text:?}"),
            ParseErrorKind::BadAddress { family } => write!(f, "bad {family} address"),
            ParseErrorKind::BadEncoding { what } => write!(f, "bad {what}"),
            ParseErrorKind::UnknownType { text } => write!(f, "unknown RR type {text:?}"),
            ParseErrorKind::MissingFields { rtype, need, got } => {
                write!(f, "{rtype} needs {need} fields, got {got}")
            }
            ParseErrorKind::UnsupportedRdata { rtype } => {
                write!(f, "unsupported type {rtype} without \\# syntax")
            }
            ParseErrorKind::ShortRecord => write!(f, "record needs owner, TTL, class, type"),
            ParseErrorKind::UnsupportedClass { text } => write!(f, "unsupported class {text:?}"),
            ParseErrorKind::MissingOrigin => write!(f, "missing $ORIGIN"),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, kind: ParseErrorKind) -> ParseError {
    ParseError { line, kind }
}

/// Inverse of `textual::sig_time`: YYYYMMDDHHmmSS → epoch seconds.
fn parse_sig_time(s: &str, line: usize) -> Result<u32, ParseError> {
    if s.len() != 14 || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(err(line, ParseErrorKind::BadTimestamp { text: s.into() }));
    }
    let num = |r: std::ops::Range<usize>| -> i64 { s[r].parse().expect("digits") };
    let (y, m, d) = (num(0..4), num(4..6), num(6..8));
    let (hh, mm, ss) = (num(8..10), num(10..12), num(12..14));
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) || hh > 23 || mm > 59 || ss > 59 {
        return Err(err(line, ParseErrorKind::BadTimestamp { text: s.into() }));
    }
    // Howard Hinnant's civil-to-days.
    let y_adj = if m <= 2 { y - 1 } else { y };
    let era = y_adj.div_euclid(400);
    let yoe = y_adj - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe - 719_468;
    let epoch = days * 86_400 + hh * 3600 + mm * 60 + ss;
    u32::try_from(epoch)
        .map_err(|_| err(line, ParseErrorKind::TimestampOutOfRange { text: s.into() }))
}

fn parse_hex(s: &str, line: usize) -> Result<Vec<u8>, ParseError> {
    if s == "-" {
        return Ok(Vec::new()); // empty-salt presentation
    }
    if !s.len().is_multiple_of(2) {
        return Err(err(line, ParseErrorKind::BadHex { text: s.into() }));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| err(line, ParseErrorKind::BadHex { text: s.into() }))
        })
        .collect()
}

fn parse_name(s: &str, line: usize) -> Result<Name, ParseError> {
    Name::parse(s).map_err(|e| {
        err(
            line,
            ParseErrorKind::BadName {
                text: s.into(),
                reason: e.to_string(),
            },
        )
    })
}

fn parse_u<T: std::str::FromStr>(
    s: &str,
    what: &'static str,
    line: usize,
) -> Result<T, ParseError> {
    s.parse().map_err(|_| {
        err(
            line,
            ParseErrorKind::BadField {
                what,
                text: s.into(),
            },
        )
    })
}

fn rrtype_from_mnemonic(s: &str, line: usize) -> Result<RrType, ParseError> {
    let t = match s {
        "A" => RrType::A,
        "NS" => RrType::Ns,
        "CNAME" => RrType::Cname,
        "SOA" => RrType::Soa,
        "PTR" => RrType::Ptr,
        "MX" => RrType::Mx,
        "TXT" => RrType::Txt,
        "AAAA" => RrType::Aaaa,
        "DS" => RrType::Ds,
        "RRSIG" => RrType::Rrsig,
        "NSEC" => RrType::Nsec,
        "DNSKEY" => RrType::Dnskey,
        "NSEC3" => RrType::Nsec3,
        "NSEC3PARAM" => RrType::Nsec3param,
        other => {
            if let Some(num) = other.strip_prefix("TYPE") {
                RrType::from_u16(parse_u(num, "TYPE number", line)?)
            } else {
                return Err(err(
                    line,
                    ParseErrorKind::UnknownType { text: other.into() },
                ));
            }
        }
    };
    Ok(t)
}

fn parse_bitmap(fields: &[&str], line: usize) -> Result<TypeBitmap, ParseError> {
    let mut bm = TypeBitmap::new();
    for f in fields {
        bm.insert(rrtype_from_mnemonic(f, line)?);
    }
    Ok(bm)
}

fn parse_rdata(rtype: RrType, fields: &[&str], line: usize) -> Result<Rdata, ParseError> {
    let need = |n: usize| -> Result<(), ParseError> {
        if fields.len() < n {
            Err(err(
                line,
                ParseErrorKind::MissingFields {
                    rtype,
                    need: n,
                    got: fields.len(),
                },
            ))
        } else {
            Ok(())
        }
    };
    let rd = match rtype {
        RrType::A => {
            need(1)?;
            Rdata::A(
                fields[0]
                    .parse()
                    .map_err(|_| err(line, ParseErrorKind::BadAddress { family: "IPv4" }))?,
            )
        }
        RrType::Aaaa => {
            need(1)?;
            Rdata::Aaaa(
                fields[0]
                    .parse()
                    .map_err(|_| err(line, ParseErrorKind::BadAddress { family: "IPv6" }))?,
            )
        }
        RrType::Ns => {
            need(1)?;
            Rdata::Ns(parse_name(fields[0], line)?)
        }
        RrType::Cname => {
            need(1)?;
            Rdata::Cname(parse_name(fields[0], line)?)
        }
        RrType::Ptr => {
            need(1)?;
            Rdata::Ptr(parse_name(fields[0], line)?)
        }
        RrType::Mx => {
            need(2)?;
            Rdata::Mx {
                preference: parse_u(fields[0], "MX preference", line)?,
                exchange: parse_name(fields[1], line)?,
            }
        }
        RrType::Txt => {
            let strings = fields
                .iter()
                .map(|f| f.trim_matches('"').as_bytes().to_vec())
                .collect();
            Rdata::Txt(strings)
        }
        RrType::Soa => {
            need(7)?;
            Rdata::Soa(Soa {
                mname: parse_name(fields[0], line)?,
                rname: parse_name(fields[1], line)?,
                serial: parse_u(fields[2], "serial", line)?,
                refresh: parse_u(fields[3], "refresh", line)?,
                retry: parse_u(fields[4], "retry", line)?,
                expire: parse_u(fields[5], "expire", line)?,
                minimum: parse_u(fields[6], "minimum", line)?,
            })
        }
        RrType::Ds => {
            need(4)?;
            Rdata::Ds {
                key_tag: parse_u(fields[0], "key tag", line)?,
                algorithm: parse_u(fields[1], "algorithm", line)?,
                digest_type: parse_u(fields[2], "digest type", line)?,
                digest: parse_hex(fields[3], line)?,
            }
        }
        RrType::Dnskey => {
            need(4)?;
            Rdata::Dnskey {
                flags: parse_u(fields[0], "flags", line)?,
                protocol: parse_u(fields[1], "protocol", line)?,
                algorithm: parse_u(fields[2], "algorithm", line)?,
                public_key: base64::decode(&fields[3..].join("")).ok_or_else(|| {
                    err(
                        line,
                        ParseErrorKind::BadEncoding {
                            what: "base64 public key",
                        },
                    )
                })?,
            }
        }
        RrType::Rrsig => {
            need(9)?;
            Rdata::Rrsig(Rrsig {
                type_covered: rrtype_from_mnemonic(fields[0], line)?,
                algorithm: parse_u(fields[1], "algorithm", line)?,
                labels: parse_u(fields[2], "labels", line)?,
                original_ttl: parse_u(fields[3], "original TTL", line)?,
                expiration: parse_sig_time(fields[4], line)?,
                inception: parse_sig_time(fields[5], line)?,
                key_tag: parse_u(fields[6], "key tag", line)?,
                signer: parse_name(fields[7], line)?,
                signature: base64::decode(&fields[8..].join("")).ok_or_else(|| {
                    err(
                        line,
                        ParseErrorKind::BadEncoding {
                            what: "base64 signature",
                        },
                    )
                })?,
            })
        }
        RrType::Nsec => {
            need(1)?;
            Rdata::Nsec {
                next: parse_name(fields[0], line)?,
                types: parse_bitmap(&fields[1..], line)?,
            }
        }
        RrType::Nsec3 => {
            need(5)?;
            Rdata::Nsec3 {
                hash_alg: parse_u(fields[0], "hash algorithm", line)?,
                flags: parse_u(fields[1], "flags", line)?,
                iterations: parse_u(fields[2], "iterations", line)?,
                salt: parse_hex(fields[3], line)?.into(),
                next_hashed: base32::decode(&fields[4].to_ascii_lowercase())
                    .ok_or_else(|| {
                        err(
                            line,
                            ParseErrorKind::BadEncoding {
                                what: "base32hex next-hash",
                            },
                        )
                    })?
                    .into(),
                types: parse_bitmap(&fields[5..], line)?,
            }
        }
        RrType::Nsec3param => {
            need(4)?;
            Rdata::Nsec3param {
                hash_alg: parse_u(fields[0], "hash algorithm", line)?,
                flags: parse_u(fields[1], "flags", line)?,
                iterations: parse_u(fields[2], "iterations", line)?,
                salt: parse_hex(fields[3], line)?.into(),
            }
        }
        other => {
            // RFC 3597 opaque syntax: \# <len> <hex>
            need(3)?;
            if fields[0] != "\\#" {
                return Err(err(line, ParseErrorKind::UnsupportedRdata { rtype: other }));
            }
            let data = parse_hex(&fields[2..].join(""), line)?;
            Rdata::Unknown {
                rtype: other.to_u16(),
                data,
            }
        }
    };
    Ok(rd)
}

/// Parse a master file produced by
/// [`zone_to_master_file`](crate::textual::zone_to_master_file).
///
/// RRSIG records are re-attached to the RRset they cover; a dangling
/// RRSIG (covering a type with no records at that owner — which the
/// broken testbed zones legitimately contain after mutations) is kept as
/// a signature on an otherwise-empty RRset so that re-rendering loses
/// nothing.
pub fn parse_master_file(text: &str) -> Result<Zone, ParseError> {
    let mut origin: Option<Name> = None;
    // (owner, ttl, rtype, rdata) plus deferred RRSIGs.
    let mut records: Vec<(Name, u32, Rdata)> = Vec::new();
    let mut sigs: Vec<(Name, u32, Rrsig)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("$ORIGIN") {
            origin = Some(parse_name(rest.trim(), line_no)?);
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 4 {
            return Err(err(line_no, ParseErrorKind::ShortRecord));
        }
        let owner = parse_name(fields[0], line_no)?;
        let ttl: u32 = parse_u(fields[1], "TTL", line_no)?;
        if fields[2] != "IN" {
            return Err(err(
                line_no,
                ParseErrorKind::UnsupportedClass {
                    text: fields[2].into(),
                },
            ));
        }
        let rtype = rrtype_from_mnemonic(fields[3], line_no)?;
        let rdata = parse_rdata(rtype, &fields[4..], line_no)?;
        match rdata {
            Rdata::Rrsig(sig) => sigs.push((owner, ttl, sig)),
            other => records.push((owner, ttl, other)),
        }
    }

    let origin = origin.ok_or_else(|| err(0, ParseErrorKind::MissingOrigin))?;
    let mut zone = Zone::new(origin);
    for (owner, ttl, rdata) in records {
        zone.add(ede_wire::Record::new(owner, ttl, rdata));
    }
    for (owner, ttl, sig) in sigs {
        let covered = sig.type_covered;
        match zone.get_mut(&owner, covered) {
            Some(set) => set.sigs.push(sig),
            None => {
                // Dangling signature: preserve on an empty RRset.
                let mut set = crate::rrset::Rrset::empty(owner, covered, ttl);
                set.sigs.push(sig);
                zone.add_rrset(set);
            }
        }
    }
    Ok(zone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signer::{sign_zone, SignerConfig, SIM_NOW};
    use crate::textual::zone_to_master_file;
    use crate::{Misconfig, TypeSel, ZoneKeys};
    use ede_wire::Record;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_zone() -> Zone {
        let apex = n("round.example");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            3600,
            Rdata::Soa(Soa {
                mname: n("ns1.round.example"),
                rname: n("hostmaster.round.example"),
                serial: 7,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        ));
        z.add(Record::new(
            apex.clone(),
            3600,
            Rdata::Ns(n("ns1.round.example")),
        ));
        z.add_a(n("ns1.round.example"), "192.0.2.1".parse().unwrap());
        z.add_a(apex, "192.0.2.2".parse().unwrap());
        z
    }

    #[test]
    fn signed_zone_roundtrips() {
        let mut z = sample_zone();
        let keys = ZoneKeys::generate(&n("round.example"), 8, 2048);
        sign_zone(&mut z, &keys, &SignerConfig::default());
        let text = zone_to_master_file(&z);
        let parsed = parse_master_file(&text).expect("parses");
        assert_eq!(parsed, z);
    }

    #[test]
    fn mutated_zone_roundtrips() {
        // Broken zones (stale/dangling signatures and all) must survive
        // the text round trip too.
        for m in [
            Misconfig::NoZsk,
            Misconfig::RrsigExpired(TypeSel::All),
            Misconfig::BadNsec3Hash,
            Misconfig::Nsec3ParamMissing,
        ] {
            let mut z = sample_zone();
            let keys = ZoneKeys::generate(&n("round.example"), 8, 2048);
            sign_zone(&mut z, &keys, &SignerConfig::default());
            m.apply(&mut z, &keys);
            let text = zone_to_master_file(&z);
            let parsed = parse_master_file(&text).unwrap_or_else(|e| panic!("{m:?}: {e}"));
            assert_eq!(parsed, z, "{m:?}");
        }
    }

    #[test]
    fn sig_time_roundtrip() {
        for t in [0u32, 1, 86_399, 86_400, SIM_NOW, 1_700_000_000, u32::MAX] {
            let text = crate::textual::zone_to_master_file(&{
                let mut z = sample_zone();
                let keys = ZoneKeys::generate(&n("round.example"), 8, 2048);
                let cfg = SignerConfig {
                    inception: t.saturating_sub(1),
                    expiration: t,
                    ..Default::default()
                };
                sign_zone(&mut z, &keys, &cfg);
                z
            });
            let parsed = parse_master_file(&text).expect("parses");
            let soa = parsed.get(&n("round.example"), RrType::Soa).expect("soa");
            assert_eq!(soa.sigs[0].expiration, t, "t={t}");
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n; a comment\n$ORIGIN x.example.\n\nx.example. 60 IN A 192.0.2.9 ; trailing\n";
        let z = parse_master_file(text).expect("parses");
        assert!(z.get(&n("x.example"), RrType::A).is_some());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "$ORIGIN x.example.\nx.example. 60 IN A not-an-address\n";
        let e = parse_master_file(text).expect_err("must fail");
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("IPv4"));
    }

    #[test]
    fn missing_origin_rejected() {
        assert!(parse_master_file("x.example. 60 IN A 192.0.2.1\n").is_err());
    }

    #[test]
    fn unsupported_class_rejected() {
        let text = "$ORIGIN x.example.\nx.example. 60 CH A 192.0.2.1\n";
        assert!(parse_master_file(text).is_err());
    }
}
