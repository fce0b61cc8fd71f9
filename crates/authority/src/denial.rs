//! Assembly of authenticated denial-of-existence proofs (RFC 5155 §7.2).

use crate::layout::push_rrset;
use ede_wire::{Name, Rdata, Record, RrType};
use ede_zone::{nsec3, Nsec3Config, Rrset, Zone};
use std::borrow::Cow;

/// Read the zone's NSEC3 parameters from its apex NSEC3PARAM. A zone
/// that lost the record (the `nsec3param-missing` mutation) has none: a
/// server then cannot locate its denial records.
pub fn zone_nsec3_params(zone: &Zone) -> Option<Nsec3Config> {
    match zone.get(zone.apex(), RrType::Nsec3param)?.rdatas.first() {
        Some(Rdata::Nsec3param {
            iterations, salt, ..
        }) => Some(Nsec3Config {
            iterations: *iterations,
            salt: salt.clone(),
        }),
        _ => None,
    }
}

/// Are the zone's NSEC3 records' embedded parameters consistent with the
/// parameters the server is hashing with? When they are and a hash lookup
/// still fails, the chain's owner names are damaged — a real server's
/// tree walk then returns *nearby* (wrong) records rather than nothing,
/// whereas a salt mismatch makes every computed hash meaningless and the
/// lookup comes back empty. Only a NODATA question can meet a damaged
/// chain this way (a covering record always answers an NXDOMAIN one);
/// Table 4 asks none, so its `bad-nsec3-hash` row does not depend on it.
fn params_consistent(zone: &Zone, params: &Nsec3Config) -> bool {
    zone.iter()
        .filter(|s| s.rtype == RrType::Nsec3)
        .any(|s| match s.rdatas.first() {
            Some(Rdata::Nsec3 {
                salt, iterations, ..
            }) => *salt == params.salt && *iterations == params.iterations,
            _ => false,
        })
}

/// Fallback inclusion: the first couple of NSEC3 RRsets in canonical
/// order, standing in for a tree-predecessor walk over a damaged chain.
fn nearby_nsec3(zone: &Zone, out: &mut Vec<Record>) {
    for set in zone.iter().filter(|s| s.rtype == RrType::Nsec3).take(2) {
        push_rrset(out, Cow::Borrowed(set), true);
    }
}

/// NSEC3 proof for a NODATA answer, appended to `out`: the single NSEC3
/// matching `qname` (whose bitmap shows the queried type absent). At a
/// delegation without DS it is also the proof that the delegation is
/// insecure: the bitmap there has NS but not DS.
pub fn nodata_proof(zone: &Zone, params: &Nsec3Config, qname: &Name, out: &mut Vec<Record>) {
    let proof_at = out.len();
    if let Some(set) = nsec3::find_matching(zone, params, qname) {
        push_rrset(out, Cow::Borrowed(set), true);
    }
    if out.len() == proof_at && params_consistent(zone, params) {
        nearby_nsec3(zone, out);
    }
}

/// NSEC3 proof for NXDOMAIN, appended to `out`: match the closest
/// encloser, cover the next closer name, and cover the
/// source-of-synthesis wildcard.
pub fn nxdomain_proof(zone: &Zone, params: &Nsec3Config, qname: &Name, out: &mut Vec<Record>) {
    let proof_at = out.len();

    // Closest encloser: deepest ancestor of qname that exists.
    let mut encloser = qname.parent();
    while let Some(e) = encloser.clone() {
        if zone.name_exists(&e) || e == *zone.apex() {
            break;
        }
        encloser = e.parent();
    }
    let encloser = encloser.unwrap_or_else(|| zone.apex().clone());

    // Next closer: the child of the encloser on the qname path.
    let next_closer = qname.suffix(encloser.label_count() + 1);

    let mut seen = std::collections::BTreeSet::new();
    let mut push_unique = |set: Option<&Rrset>, out: &mut Vec<Record>| {
        if let Some(set) = set {
            if seen.insert(set.name.clone()) {
                push_rrset(out, Cow::Borrowed(set), true);
            }
        }
    };

    push_unique(nsec3::find_matching(zone, params, &encloser), out);
    push_unique(nsec3::find_covering(zone, params, &next_closer), out);
    if let Ok(wildcard) = encloser.child("*") {
        push_unique(nsec3::find_covering(zone, params, &wildcard), out);
    }
    if out.len() == proof_at && params_consistent(zone, params) {
        nearby_nsec3(zone, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_wire::rdata::Soa;
    use ede_wire::Record;
    use ede_zone::{signer, SignerConfig, ZoneKeys};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn signed_zone() -> Zone {
        let apex = n("example.com");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            3600,
            Rdata::Soa(Soa {
                mname: n("ns1.example.com"),
                rname: n("hostmaster.example.com"),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        ));
        z.add(Record::new(
            apex.clone(),
            3600,
            Rdata::Ns(n("ns1.example.com")),
        ));
        z.add_a(n("ns1.example.com"), "192.0.2.1".parse().unwrap());
        z.add_a(apex, "192.0.2.2".parse().unwrap());
        let keys = ZoneKeys::generate(&n("example.com"), 8, 2048);
        signer::sign_zone(&mut z, &keys, &SignerConfig::default());
        z
    }

    #[test]
    fn params_prefer_nsec3param() {
        let z = signed_zone();
        let p = zone_nsec3_params(&z).unwrap();
        assert_eq!(p.iterations, 0);
        assert_eq!(p.salt[..], [0xab, 0xcd]);
    }

    #[test]
    fn nodata_proof_matches_qname() {
        let z = signed_zone();
        let p = zone_nsec3_params(&z).unwrap();
        // AAAA at apex doesn't exist — NODATA; proof = apex matcher.
        let mut proof = Vec::new();
        nodata_proof(&z, &p, &n("example.com"), &mut proof);
        assert!(!proof.is_empty());
        assert!(proof.iter().any(|r| r.rtype() == RrType::Nsec3));
        assert!(proof.iter().any(|r| r.rtype() == RrType::Rrsig));
    }

    #[test]
    fn nxdomain_proof_has_encloser_and_cover() {
        let z = signed_zone();
        let p = zone_nsec3_params(&z).unwrap();
        let mut proof = Vec::new();
        nxdomain_proof(&z, &p, &n("nonexistent.example.com"), &mut proof);
        let nsec3s = proof.iter().filter(|r| r.rtype() == RrType::Nsec3).count();
        // Closest-encloser match (apex) + next-closer cover; the wildcard
        // cover may coincide with the next-closer interval.
        assert!(nsec3s >= 2, "got {nsec3s} NSEC3 records");
    }
}
