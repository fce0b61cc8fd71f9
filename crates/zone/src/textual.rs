//! Presentation format (RFC 1035 §5): master files and dig-style
//! messages.
//!
//! The paper's artifact release includes "instructions on how to set up
//! all the misconfigured domains"; this module lets the reproduction
//! emit every zone it builds — including the deliberately broken ones —
//! in standard master-file syntax that `named-checkzone`-class tooling
//! can read. `dig` ≥ 9.16 prints EDE options in the OPT pseudosection;
//! operators troubleshooting with the paper's testbed see exactly that,
//! and [`render_dig`] renders a [`Message`] the same way. Both print
//! every RDATA through the one [`rdata_text`].

use crate::rrset::Rrset;
use crate::zone::Zone;
use ede_crypto::{base32, base64};
use ede_wire::rdata::{Rdata, Rrsig};
use ede_wire::{EdnsOption, Message};
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

fn flags_line(m: &Message) -> String {
    let mut flags = Vec::new();
    if m.response {
        flags.push("qr");
    }
    if m.authoritative {
        flags.push("aa");
    }
    if m.truncated {
        flags.push("tc");
    }
    if m.recursion_desired {
        flags.push("rd");
    }
    if m.recursion_available {
        flags.push("ra");
    }
    if m.authentic_data {
        flags.push("ad");
    }
    if m.checking_disabled {
        flags.push("cd");
    }
    flags.join(" ")
}

/// Render a message dig-style: header, OPT pseudosection (with EDE),
/// question, and the three record sections.
pub fn render_dig(m: &Message) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        ";; ->>HEADER<<- opcode: QUERY, status: {}, id: {}",
        m.rcode, m.id
    );
    let _ = writeln!(
        out,
        ";; flags: {}; QUERY: {}, ANSWER: {}, AUTHORITY: {}, ADDITIONAL: {}",
        flags_line(m),
        m.questions.len(),
        m.answers.len(),
        m.authorities.len(),
        m.additionals.len() + usize::from(m.edns.is_some()),
    );

    if let Some(edns) = &m.edns {
        let _ = writeln!(out, "\n;; OPT PSEUDOSECTION:");
        let _ = writeln!(
            out,
            "; EDNS: version: {}, flags:{}; udp: {}",
            edns.version,
            if edns.dnssec_ok { " do" } else { "" },
            edns.udp_payload_size
        );
        for opt in &edns.options {
            match opt {
                EdnsOption::Ede(e) => {
                    let _ = writeln!(
                        out,
                        "; EDE: {} ({}){}",
                        e.code.to_u16(),
                        e.code.description(),
                        if e.extra_text.is_empty() {
                            String::new()
                        } else {
                            format!(": ({})", e.extra_text)
                        }
                    );
                }
                EdnsOption::Unknown { code, data } => {
                    let _ = writeln!(out, "; OPT={code}: {} bytes", data.len());
                }
            }
        }
    }

    if !m.questions.is_empty() {
        let _ = writeln!(out, "\n;; QUESTION SECTION:");
        for q in &m.questions {
            let _ = writeln!(out, ";{}\t\tIN\t{}", q.name, q.qtype);
        }
    }
    for (title, recs) in [
        ("ANSWER", &m.answers),
        ("AUTHORITY", &m.authorities),
        ("ADDITIONAL", &m.additionals),
    ] {
        if !recs.is_empty() {
            let _ = writeln!(out, "\n;; {title} SECTION:");
            for rec in recs {
                let _ = writeln!(
                    out,
                    "{}\t{}\tIN\t{}\t{}",
                    rec.name,
                    rec.ttl,
                    rec.rtype(),
                    rdata_text(&rec.rdata)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signer::{sign_rrset, sign_zone, SignerConfig};
    use crate::ZoneKeys;
    use ede_wire::rdata::Soa;
    use ede_wire::{EdeCode, EdeEntry, Edns, Name, Rcode, Record, RrType};

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

    #[test]
    fn renders_like_dig() {
        let q = Message::query(7, n("broken.example"), RrType::A);
        let mut r = Message::response_to(&q);
        r.rcode = Rcode::ServFail;
        r.recursion_available = true;
        let mut edns = Edns::default();
        edns.options.push(EdnsOption::Ede(EdeEntry::with_text(
            EdeCode::SignatureExpired,
            "expired 2019",
        )));
        r.edns = Some(edns);

        let text = render_dig(&r);
        assert!(text.contains("status: SERVFAIL"));
        assert!(text.contains("flags: qr rd ra"));
        assert!(text.contains("; EDE: 7 (Signature Expired): (expired 2019)"));
        assert!(text.contains(";broken.example.\t\tIN\tA"));
    }

    #[test]
    fn answer_sections_render() {
        let q = Message::query(7, n("ok.example"), RrType::A);
        let mut r = Message::response_to(&q);
        r.answers.push(Record::new(
            n("ok.example"),
            60,
            Rdata::A("192.0.2.1".parse().unwrap()),
        ));
        let text = render_dig(&r);
        assert!(text.contains(";; ANSWER SECTION:"));
        assert!(text.contains("ok.example.\t60\tIN\tA\t192.0.2.1\n"));
        assert!(!text.contains(";; AUTHORITY SECTION:"));
    }

    /// DNSSEC records print in presentation form, as a master file
    /// prints them, not as the Rust structures that hold them.
    #[test]
    fn dnssec_records_render_in_presentation_form() {
        let apex = n("valid.extended-dns-errors.com");
        let keys = ZoneKeys::generate(&apex, 8, 2048);
        let mut a = Rrset::empty(apex.clone(), RrType::A, 3600);
        a.rdatas.push(Rdata::A("203.0.113.1".parse().unwrap()));
        let sig = sign_rrset(&a, &keys.zsk, &apex, SignerConfig::default().window());
        let q = Message::query(7, apex.clone(), RrType::A);
        let mut r = Message::response_to(&q);
        r.answers
            .push(Record::new(apex.clone(), 3600, Rdata::Rrsig(sig.clone())));
        r.answers
            .push(Record::new(apex, 3600, keys.ksk.dnskey_rdata()));

        let text = render_dig(&r);
        let rrsig = format!(
            "valid.extended-dns-errors.com.\t3600\tIN\tRRSIG\t\
             A 8 3 3600 20230614000000 20230415000000 52952 valid.extended-dns-errors.com. {}\n",
            base64::encode(&sig.signature)
        );
        assert!(text.contains(&rrsig), "{text}");
        let Rdata::Dnskey { public_key, .. } = keys.ksk.dnskey_rdata() else {
            unreachable!()
        };
        let dnskey = format!(
            "valid.extended-dns-errors.com.\t3600\tIN\tDNSKEY\t257 3 8 {}\n",
            base64::encode(&public_key)
        );
        assert!(text.contains(&dnskey), "{text}");
        assert!(
            !text.contains("Rrsig {") && !text.contains("Dnskey {"),
            "{text}"
        );
    }
}
