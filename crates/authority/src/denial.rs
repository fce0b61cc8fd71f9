//! Assembly of authenticated denial-of-existence proofs (RFC 5155 §7.2).

use crate::layout::push_rrset;
use ede_wire::{Name, Rdata, Record, RrType};
use ede_zone::{nsec, nsec3, Nsec3Config, Rrset, Zone};

/// Read the zone's NSEC3 parameters.
///
/// Prefer the apex NSEC3PARAM; when it is missing (the
/// `nsec3param-missing` mutation) fall back to the parameters embedded in
/// any NSEC3 record — BIND-family servers lose the ability to *locate*
/// denial records without the PARAM, which we model in the server layer,
/// but other code (and the resolver's diagnosis) can still recover the
/// parameters this way.
pub fn zone_nsec3_params(zone: &Zone) -> Option<Nsec3Config> {
    if let Some(set) = zone.get(zone.apex(), RrType::Nsec3param) {
        if let Some(Rdata::Nsec3param {
            iterations, salt, ..
        }) = set.rdatas.first()
        {
            return Some(Nsec3Config {
                iterations: *iterations,
                salt: salt.clone(),
            });
        }
    }
    zone.iter()
        .filter(|s| s.rtype == RrType::Nsec3)
        .find_map(|s| match s.rdatas.first() {
            Some(Rdata::Nsec3 {
                iterations, salt, ..
            }) => Some(Nsec3Config {
                iterations: *iterations,
                salt: salt.clone(),
            }),
            _ => None,
        })
}

/// Are the zone's NSEC3 records' embedded parameters consistent with the
/// parameters the server is hashing with? When they are and a hash lookup
/// still fails, the chain's owner names are damaged — a real server's
/// tree walk then returns *nearby* (wrong) records rather than nothing,
/// whereas a salt mismatch makes every computed hash meaningless and the
/// lookup comes back empty. The testbed's `bad-nsec3-hash` vs
/// `bad-nsec3param-salt` cases are distinguishable on the wire only
/// because of this difference.
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
fn nearby_nsec3(zone: &Zone, dnssec: bool, out: &mut Vec<Record>) {
    for set in zone.iter().filter(|s| s.rtype == RrType::Nsec3).take(2) {
        push_rrset(out, set, dnssec);
    }
}

/// NSEC3 proof for a NODATA answer, appended to `out`: the single NSEC3
/// matching `qname` (whose bitmap shows the queried type absent).
pub fn nodata_proof(
    zone: &Zone,
    params: &Nsec3Config,
    qname: &Name,
    dnssec: bool,
    out: &mut Vec<Record>,
) {
    let proof_at = out.len();
    if let Some(set) = nsec3::find_matching(zone, params, qname) {
        push_rrset(out, set, dnssec);
    }
    if out.len() == proof_at && params_consistent(zone, params) {
        nearby_nsec3(zone, dnssec, out);
    }
}

/// NSEC3 proof for NXDOMAIN, appended to `out`: match the closest
/// encloser, cover the next closer name, and cover the
/// source-of-synthesis wildcard.
pub fn nxdomain_proof(
    zone: &Zone,
    params: &Nsec3Config,
    qname: &Name,
    dnssec: bool,
    out: &mut Vec<Record>,
) {
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
                push_rrset(out, set, dnssec);
            }
        }
    };

    push_unique(nsec3::find_matching(zone, params, &encloser), out);
    push_unique(nsec3::find_covering(zone, params, &next_closer), out);
    if let Ok(wildcard) = encloser.child("*") {
        push_unique(nsec3::find_covering(zone, params, &wildcard), out);
    }
    if out.len() == proof_at && params_consistent(zone, params) {
        nearby_nsec3(zone, dnssec, out);
    }
}

/// NSEC3 proof that a delegation is insecure (no DS), appended to `out`:
/// the NSEC3 matching the delegation owner, whose bitmap has NS but not
/// DS.
pub fn no_ds_proof(
    zone: &Zone,
    params: &Nsec3Config,
    deleg: &Name,
    dnssec: bool,
    out: &mut Vec<Record>,
) {
    nodata_proof(zone, params, deleg, dnssec, out)
}

/// Does the zone use plain NSEC denial (any NSEC RRset present)?
pub fn zone_uses_nsec(zone: &Zone) -> bool {
    zone.get(zone.apex(), RrType::Nsec).is_some()
}

/// Plain-NSEC proof for a NODATA answer, appended to `out`: the NSEC
/// matching `qname`.
pub fn nsec_nodata_proof(zone: &Zone, qname: &Name, dnssec: bool, out: &mut Vec<Record>) {
    if let Some(set) = nsec::find_matching(zone, qname) {
        push_rrset(out, set, dnssec);
    }
}

/// Plain-NSEC proof for NXDOMAIN, appended to `out`: cover the name and
/// the wildcard at the closest encloser (RFC 4035 §3.1.3.2).
pub fn nsec_nxdomain_proof(zone: &Zone, qname: &Name, dnssec: bool, out: &mut Vec<Record>) {
    let mut seen = std::collections::BTreeSet::new();
    let mut push_unique = |set: Option<&Rrset>, out: &mut Vec<Record>| {
        if let Some(set) = set {
            if seen.insert(set.name.clone()) {
                push_rrset(out, set, dnssec);
            }
        }
    };
    push_unique(nsec::find_covering(zone, qname), out);
    // Wildcard cover at the closest existing encloser.
    let mut encloser = qname.parent();
    while let Some(e) = encloser.clone() {
        if zone.name_exists_or_ent(&e) || e == *zone.apex() {
            break;
        }
        encloser = e.parent();
    }
    if let Some(e) = encloser {
        if let Ok(wildcard) = e.child("*") {
            push_unique(nsec::find_covering(zone, &wildcard), out);
        }
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
    fn params_fall_back_to_chain() {
        let mut z = signed_zone();
        z.remove(&n("example.com"), RrType::Nsec3param);
        assert!(zone_nsec3_params(&z).is_some());
    }

    #[test]
    fn nodata_proof_matches_qname() {
        let z = signed_zone();
        let p = zone_nsec3_params(&z).unwrap();
        // AAAA at apex doesn't exist — NODATA; proof = apex matcher.
        let mut proof = Vec::new();
        nodata_proof(&z, &p, &n("example.com"), true, &mut proof);
        assert!(!proof.is_empty());
        assert!(proof.iter().any(|r| r.rtype() == RrType::Nsec3));
        assert!(proof.iter().any(|r| r.rtype() == RrType::Rrsig));
    }

    #[test]
    fn nxdomain_proof_has_encloser_and_cover() {
        let z = signed_zone();
        let p = zone_nsec3_params(&z).unwrap();
        let mut proof = Vec::new();
        nxdomain_proof(&z, &p, &n("nonexistent.example.com"), true, &mut proof);
        let nsec3s = proof.iter().filter(|r| r.rtype() == RrType::Nsec3).count();
        // Closest-encloser match (apex) + next-closer cover; the wildcard
        // cover may coincide with the next-closer interval.
        assert!(nsec3s >= 2, "got {nsec3s} NSEC3 records");
    }

    #[test]
    fn without_do_no_rrsigs() {
        let z = signed_zone();
        let p = zone_nsec3_params(&z).unwrap();
        let mut proof = Vec::new();
        nodata_proof(&z, &p, &n("example.com"), false, &mut proof);
        assert!(proof.iter().all(|r| r.rtype() != RrType::Rrsig));
    }
}
