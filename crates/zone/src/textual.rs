//! Zone-file (RFC 1035 master file) presentation.
//!
//! The paper's artifact release includes "instructions on how to set up
//! all the misconfigured domains"; this module lets the reproduction
//! emit every zone it builds — including the deliberately broken ones —
//! in standard master-file syntax that `named-checkzone`-class tooling
//! can read.

use crate::rrset::Rrset;
use crate::zone::Zone;
use ede_crypto::{base32, base64};
use ede_wire::rdata::{Rdata, Rrsig};
use std::fmt::Write as _;

fn hex(data: &[u8]) -> String {
    if data.is_empty() {
        return "-".into(); // empty NSEC3 salt presentation
    }
    data.iter().map(|b| format!("{b:02X}")).collect()
}

/// RRSIG timestamps print as YYYYMMDDHHmmSS (RFC 4034 §3.2).
fn sig_time(epoch: u32) -> String {
    // Civil-time conversion (proleptic Gregorian), no external deps.
    let days = epoch / 86_400;
    let secs = epoch % 86_400;
    let (h, m, s) = (secs / 3600, (secs / 60) % 60, secs % 60);
    // Howard Hinnant's days-to-civil algorithm.
    let z = i64::from(days) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    format!("{year:04}{month:02}{d:02}{h:02}{m:02}{s:02}")
}

/// Present one RDATA in zone-file syntax.
pub fn rdata_text(rdata: &Rdata) -> String {
    match rdata {
        Rdata::A(a) => a.to_string(),
        Rdata::Aaaa(a) => a.to_string(),
        Rdata::Ns(n) | Rdata::Cname(n) | Rdata::Ptr(n) => n.to_string(),
        Rdata::Mx {
            preference,
            exchange,
        } => format!("{preference} {exchange}"),
        Rdata::Txt(strings) => strings
            .iter()
            .map(|s| format!("\"{}\"", String::from_utf8_lossy(s)))
            .collect::<Vec<_>>()
            .join(" "),
        Rdata::Soa(soa) => format!(
            "{} {} {} {} {} {} {}",
            soa.mname, soa.rname, soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum
        ),
        Rdata::Ds {
            key_tag,
            algorithm,
            digest_type,
            digest,
        } => {
            format!("{key_tag} {algorithm} {digest_type} {}", hex(digest))
        }
        Rdata::Dnskey {
            flags,
            protocol,
            algorithm,
            public_key,
        } => {
            format!(
                "{flags} {protocol} {algorithm} {}",
                base64::encode(public_key)
            )
        }
        Rdata::Rrsig(sig) => rrsig_text(sig),
        Rdata::Nsec { next, types } => format!("{next} {types}"),
        Rdata::Nsec3 {
            hash_alg,
            flags,
            iterations,
            salt,
            next_hashed,
            types,
        } => format!(
            "{hash_alg} {flags} {iterations} {} {} {types}",
            hex(salt),
            base32::encode(next_hashed).to_uppercase(),
        ),
        Rdata::Nsec3param {
            hash_alg,
            flags,
            iterations,
            salt,
        } => {
            format!("{hash_alg} {flags} {iterations} {}", hex(salt))
        }
        Rdata::Unknown { data, .. } => format!("\\# {} {}", data.len(), hex(data)),
    }
}

fn rrsig_text(sig: &Rrsig) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {}",
        sig.type_covered,
        sig.algorithm,
        sig.labels,
        sig.original_ttl,
        sig_time(sig.expiration),
        sig_time(sig.inception),
        sig.key_tag,
        sig.signer,
        base64::encode(&sig.signature),
    )
}

fn write_rrset(out: &mut String, set: &Rrset) {
    for rd in &set.rdatas {
        let _ = writeln!(
            out,
            "{:<40} {:>6} IN {:<10} {}",
            set.name.to_string(),
            set.ttl,
            set.rtype.to_string(),
            rdata_text(rd)
        );
    }
    for sig in &set.sigs {
        let _ = writeln!(
            out,
            "{:<40} {:>6} IN {:<10} {}",
            set.name.to_string(),
            set.ttl,
            "RRSIG",
            rrsig_text(sig)
        );
    }
}

/// Render a whole zone as a master file: `$ORIGIN`, SOA first, then every
/// RRset in canonical order.
pub fn zone_to_master_file(zone: &Zone) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$ORIGIN {}", zone.apex());
    if let Some(soa) = zone.soa() {
        write_rrset(&mut out, soa);
    }
    for set in zone.iter() {
        if set.rtype == ede_wire::RrType::Soa && set.name == *zone.apex() {
            continue; // already printed first
        }
        write_rrset(&mut out, set);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signer::{sign_zone, SignerConfig};
    use crate::ZoneKeys;
    use ede_wire::rdata::Soa;
    use ede_wire::{Name, Record};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn signed_zone() -> Zone {
        let apex = n("file.example");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            3600,
            Rdata::Soa(Soa {
                mname: n("ns1.file.example"),
                rname: n("hostmaster.file.example"),
                serial: 2023051501,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        ));
        z.add(Record::new(
            apex.clone(),
            3600,
            Rdata::Ns(n("ns1.file.example")),
        ));
        z.add_a(n("ns1.file.example"), "192.0.2.1".parse().unwrap());
        z.add_a(apex, "192.0.2.2".parse().unwrap());
        let keys = ZoneKeys::generate(&n("file.example"), 8, 2048);
        sign_zone(&mut z, &keys, &SignerConfig::default());
        z
    }

    #[test]
    fn master_file_has_all_record_types() {
        let text = zone_to_master_file(&signed_zone());
        assert!(text.starts_with("$ORIGIN file.example.\n"));
        for rtype in ["SOA", "NS", "A", "DNSKEY", "RRSIG", "NSEC3", "NSEC3PARAM"] {
            assert!(text.contains(rtype), "missing {rtype} in:\n{text}");
        }
        // SOA appears on the first record line.
        let first_record = text.lines().nth(1).unwrap();
        assert!(first_record.contains(" SOA "), "{first_record}");
    }

    #[test]
    fn rrsig_timestamps_are_calendar_format() {
        let text = zone_to_master_file(&signed_zone());
        let rrsig_line = text.lines().find(|l| l.contains(" RRSIG ")).unwrap();
        // Window is SIM_NOW ± 30 days (2023-04-15 .. 2023-06-14).
        assert!(rrsig_line.contains("20230614000000"), "{rrsig_line}");
        assert!(rrsig_line.contains("20230415000000"), "{rrsig_line}");
    }

    #[test]
    fn sig_time_epoch_sanity() {
        assert_eq!(sig_time(0), "19700101000000");
        assert_eq!(sig_time(1_684_108_800), "20230515000000");
    }

    #[test]
    fn ds_and_nsec3_presentation() {
        let z = signed_zone();
        let keys = ZoneKeys::generate(&n("file.example"), 8, 2048);
        let ds = keys
            .ksk
            .ds_rdata(&n("file.example"), ede_wire::DigestAlg::SHA256);
        let text = rdata_text(&ds);
        let fields: Vec<&str> = text.split_whitespace().collect();
        assert_eq!(fields.len(), 4);
        assert_eq!(fields[1], "8");
        assert_eq!(fields[2], "2");
        assert_eq!(fields[3].len(), 64); // 32-byte digest in hex

        let nsec3_line = zone_to_master_file(&z)
            .lines()
            .find(|l| l.contains(" NSEC3 "))
            .unwrap()
            .to_string();
        assert!(nsec3_line.contains(" 1 0 0 ABCD "), "{nsec3_line}");
    }

    #[test]
    fn empty_salt_presents_as_dash() {
        let rd = Rdata::Nsec3param {
            hash_alg: 1,
            flags: 0,
            iterations: 0,
            salt: Default::default(),
        };
        assert_eq!(rdata_text(&rd), "1 0 0 -");
    }
}
