//! DNSSEC chain-of-trust validation.
//!
//! Implements the validator side of RFC 4034/4035/5155 to the depth the
//! paper's observations require: DS → DNSKEY matching with registry
//! status handling, DNSKEY RRset authentication, per-RRset signature
//! verification with validity windows, and NSEC3 denial-proof checking.
//! Every failure mode is reported as a structured
//! [`Finding`] — rather than a bare error — so the
//! vendor emission profiles can reproduce Table 4.
//!
//! [`Finding`]: crate::diagnosis::Finding

use crate::cache::ranges::ProofRange;
use crate::diagnosis::{
    AlgStatus, DenialIssue, Diagnosis, DsMismatch, Finding, NegativeKind, SigTarget,
    ValidationState,
};
use crate::profiles::ValidatorCaps;
use ede_crypto::{base32, keytag, nsec3hash, simsig, Digest, Sha1, Sha256, Sha384};
use ede_wire::rdata::Rrsig;
use ede_wire::registry::RegistryStatus;
use ede_wire::{DigestAlg, Name, Rdata, Record, RrType, SecAlg};
use ede_zone::canonical::{ds_digest_input, signing_data};
use ede_zone::Rrset;

/// A DNSKEY as published by a zone, parsed for validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishedKey {
    /// RFC 4034 Appendix B key tag.
    pub tag: u16,
    /// Algorithm number.
    pub algorithm: u8,
    /// DNSKEY flags.
    pub flags: u16,
    /// Raw public key bytes.
    pub public_key: Vec<u8>,
}

impl PublishedKey {
    /// Zone Key bit (RFC 4034 §2.1.1).
    pub fn is_zone_key(&self) -> bool {
        self.flags & 0x0100 != 0
    }

    /// Secure Entry Point bit.
    pub fn is_sep(&self) -> bool {
        self.flags & 0x0001 != 0
    }

    /// Modeled key size in bits.
    pub fn key_bits(&self) -> u16 {
        (self.public_key.len() as u16).saturating_mul(8)
    }

    fn dnskey_rdata(&self) -> Rdata {
        Rdata::Dnskey {
            flags: self.flags,
            protocol: 3,
            algorithm: self.algorithm,
            public_key: self.public_key.clone(),
        }
    }
}

/// Parse the published keys out of a DNSKEY RRset.
pub fn published_keys(dnskey_rrset: &Rrset) -> Vec<PublishedKey> {
    // One scratch buffer for every key's tag.
    let mut buf = Vec::new();
    dnskey_rrset
        .rdatas
        .iter()
        .filter_map(|rd| match rd {
            Rdata::Dnskey {
                flags,
                algorithm,
                public_key,
                ..
            } => {
                buf.clear();
                buf.reserve(4 + public_key.len());
                rd.encode(&mut buf, None);
                Some(PublishedKey {
                    tag: keytag::key_tag(&buf),
                    algorithm: *algorithm,
                    flags: *flags,
                    public_key: public_key.clone(),
                })
            }
            _ => None,
        })
        .collect()
}

/// Regroup a flat record list (one section of a response) into RRsets
/// with their covering RRSIGs attached — the inverse of serving.
pub fn collate(records: &[Record]) -> Vec<Rrset> {
    let mut sets: Vec<Rrset> = Vec::new();
    // Data records first.
    for rec in records {
        if rec.rtype() == RrType::Rrsig {
            continue;
        }
        match sets
            .iter_mut()
            .find(|s| s.name == rec.name && s.rtype == rec.rtype())
        {
            Some(set) => set.rdatas.push(rec.rdata.clone()),
            None => sets.push(Rrset {
                name: rec.name.clone(),
                rtype: rec.rtype(),
                ttl: rec.ttl,
                rdatas: vec![rec.rdata.clone()],
                sigs: Vec::new(),
            }),
        }
    }
    // Then attach signatures.
    for rec in records {
        if let Rdata::Rrsig(sig) = &rec.rdata {
            if let Some(set) = sets
                .iter_mut()
                .find(|s| s.name == rec.name && s.rtype == sig.type_covered)
            {
                set.sigs.push(sig.clone());
            }
        }
    }
    sets
}

/// How one RRSIG's validity window relates to `now`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Window {
    Valid,
    Expired,
    NotYet,
    ExpiredBeforeValid,
}

fn check_window(sig: &Rrsig, now: u32) -> Window {
    if sig.expiration < sig.inception {
        Window::ExpiredBeforeValid
    } else if now > sig.expiration {
        Window::Expired
    } else if now < sig.inception {
        Window::NotYet
    } else {
        Window::Valid
    }
}

fn window_finding(w: Window, target: SigTarget) -> Option<Finding> {
    match w {
        Window::Valid => None,
        Window::Expired => Some(Finding::SignatureExpired { target }),
        Window::NotYet => Some(Finding::SignatureNotYetValid { target }),
        Window::ExpiredBeforeValid => Some(Finding::SignatureExpiredBeforeValid { target }),
    }
}

/// Verify one signature over one RRset against one key, including the
/// window. Returns true only when everything checks out.
fn sig_verifies(sig: &Rrsig, rrset: &Rrset, key: &PublishedKey, now: u32) -> bool {
    if check_window(sig, now) != Window::Valid {
        return false;
    }
    if sig.key_tag != key.tag || sig.algorithm != key.algorithm {
        return false;
    }
    let data = signing_data(sig, rrset);
    simsig::verify(&key.public_key, sig.algorithm, &data, &sig.signature).is_ok()
}

fn alg_status_for(alg: u8, caps: &ValidatorCaps) -> Option<AlgStatus> {
    let sec = SecAlg(alg);
    match sec.status() {
        RegistryStatus::Unassigned => Some(AlgStatus::Unassigned),
        RegistryStatus::Reserved => Some(AlgStatus::Reserved),
        _ if sec.is_deprecated() => Some(AlgStatus::Deprecated),
        _ if !caps.algorithms.contains(&alg) => Some(AlgStatus::UnsupportedAssigned),
        _ => None,
    }
}

/// Outcome of validating one zone's DNSKEY RRset against its DS set.
pub struct DnskeyValidation {
    /// Keys usable for signature verification below this zone, when the
    /// chain link validated.
    pub trusted: Option<Vec<PublishedKey>>,
    /// Everything the zone published (advisory checks need these even
    /// when the chain failed).
    pub published: Vec<PublishedKey>,
}

/// Validate a zone's DNSKEY RRset against the validated DS RRset from
/// its parent. Records findings and degrades validation state on the way.
pub fn validate_dnskey(
    apex: &Name,
    ds_rdatas: &[Rdata],
    dnskey_rrset: &Rrset,
    caps: &ValidatorCaps,
    now: u32,
    diag: &mut Diagnosis,
) -> DnskeyValidation {
    let before = diag.findings.len();
    let v = validate_dnskey_inner(apex, ds_rdatas, dnskey_rrset, caps, now, diag);
    let tracer = diag.tracer();
    tracer.emit(ede_trace::TraceEvent::ValidationStep {
        target: if tracer.wants_query_detail() {
            format!("DNSKEY {apex}")
        } else {
            String::new()
        },
        ok: v.trusted.is_some() && diag.findings.len() == before,
    });
    v
}

fn validate_dnskey_inner(
    apex: &Name,
    ds_rdatas: &[Rdata],
    dnskey_rrset: &Rrset,
    caps: &ValidatorCaps,
    now: u32,
    diag: &mut Diagnosis,
) -> DnskeyValidation {
    let published = published_keys(dnskey_rrset);
    let zsk_present = published.iter().any(|k| {
        k.is_zone_key() && !k.is_sep() && SecAlg(k.algorithm).status() != RegistryStatus::Unassigned
    });

    // 1. Which DS records can this validator use at all?
    let mut usable_ds: Vec<&Rdata> = Vec::new();
    for ds in ds_rdatas {
        let Rdata::Ds {
            algorithm,
            digest_type,
            ..
        } = ds
        else {
            continue;
        };
        if let Some(status) = alg_status_for(*algorithm, caps) {
            match status {
                AlgStatus::Unassigned | AlgStatus::Reserved => {
                    diag.add(Finding::DsUnknownAlgorithm {
                        status,
                        algorithm: *algorithm,
                    })
                }
                AlgStatus::Deprecated | AlgStatus::UnsupportedAssigned => {
                    diag.add(Finding::ZoneAlgorithmUnsupported {
                        status,
                        algorithm: *algorithm,
                    })
                }
            }
            continue;
        }
        let dt = DigestAlg(*digest_type);
        if dt.status() == RegistryStatus::Unassigned || dt.status() == RegistryStatus::Reserved {
            diag.add(Finding::DsUnsupportedDigest {
                assigned: false,
                digest_type: *digest_type,
            });
            continue;
        }
        if !caps.digests.contains(digest_type) {
            diag.add(Finding::DsUnsupportedDigest {
                assigned: true,
                digest_type: *digest_type,
            });
            continue;
        }
        usable_ds.push(ds);
    }

    if usable_ds.is_empty() {
        // RFC 4035 §5.2: no supported DS algorithm ⇒ treat the zone as
        // unsigned.
        diag.degrade(ValidationState::Insecure);
        return DnskeyValidation {
            trusted: None,
            published,
        };
    }

    // 2. Match DS records to published keys.
    let mut digest_mismatch_seen = false;
    let mut matched: Option<(&Rdata, &PublishedKey)> = None;
    'outer: for ds in &usable_ds {
        let Rdata::Ds {
            key_tag,
            algorithm,
            digest_type,
            digest,
        } = ds
        else {
            continue;
        };
        for key in published
            .iter()
            .filter(|k| k.tag == *key_tag && k.algorithm == *algorithm)
        {
            let input = ds_digest_input(apex, &key.dnskey_rdata());
            let computed = match DigestAlg(*digest_type) {
                DigestAlg::SHA1 => Sha1::digest(&input),
                DigestAlg::SHA384 => Sha384::digest(&input),
                _ => Sha256::digest(&input),
            };
            if computed != *digest {
                digest_mismatch_seen = true;
                continue;
            }
            if !key.is_zone_key() {
                continue;
            }
            matched = Some((ds, key));
            break 'outer;
        }
    }

    let Some((_, ksk)) = matched else {
        if !published.is_empty() && published.iter().all(|k| !k.is_zone_key()) {
            diag.add(Finding::NoZoneKeyBitSet);
        }
        diag.add(Finding::DsNoMatchingDnskey {
            cause: if digest_mismatch_seen {
                DsMismatch::Digest
            } else {
                DsMismatch::TagOrAlgorithm
            },
        });
        diag.degrade(ValidationState::Bogus);
        return DnskeyValidation {
            trusted: None,
            published,
        };
    };

    // 3. Authenticate the DNSKEY RRset with the matched KSK.
    let sigs = &dnskey_rrset.sigs;
    if sigs.is_empty() {
        diag.add(Finding::DnskeyAllSigsMissing);
        diag.degrade(ValidationState::Bogus);
        return DnskeyValidation {
            trusted: None,
            published,
        };
    }
    let Some(ksk_sig) = sigs
        .iter()
        .find(|s| s.key_tag == ksk.tag && s.algorithm == ksk.algorithm)
    else {
        diag.add(Finding::DnskeySigMissingByMatchedKey);
        diag.degrade(ValidationState::Bogus);
        return DnskeyValidation {
            trusted: None,
            published,
        };
    };

    if let Some(f) = window_finding(check_window(ksk_sig, now), SigTarget::Dnskey) {
        diag.add(f);
        diag.degrade(ValidationState::Bogus);
        return DnskeyValidation {
            trusted: None,
            published,
        };
    }

    let data = signing_data(ksk_sig, dnskey_rrset);
    if simsig::verify(
        &ksk.public_key,
        ksk_sig.algorithm,
        &data,
        &ksk_sig.signature,
    )
    .is_err()
    {
        // Advisory: does *any* signature over the RRset verify against
        // *any* published key? (Quad9 demonstrably distinguishes this.)
        let some_sig_valid = sigs.iter().any(|s| {
            published
                .iter()
                .any(|k| sig_verifies(s, dnskey_rrset, k, now))
        });
        diag.add(Finding::DnskeySigBogus {
            zsk_present,
            some_sig_valid,
        });
        diag.degrade(ValidationState::Bogus);
        return DnskeyValidation {
            trusted: None,
            published,
        };
    }

    // 4. Chain link established. Advisory scan-era findings:
    for key in &published {
        // A SEP-flagged key that is not DS-matched and signs nothing is a
        // stand-by key (§4.2.3) — Cloudflare flags it.
        if key.is_sep() && key.tag != ksk.tag && !sigs.iter().any(|s| s.key_tag == key.tag) {
            diag.add(Finding::StandbyKeyWithoutRrsig);
        }
        if key.key_bits() < caps.min_key_bits {
            diag.add(Finding::UnsupportedKeySize {
                bits: key.key_bits(),
            });
        }
    }

    let trusted: Vec<PublishedKey> = published
        .iter()
        .filter(|k| k.is_zone_key())
        .cloned()
        .collect();
    DnskeyValidation {
        trusted: Some(trusted),
        published,
    }
}

/// Validate the signatures over one answer RRset against the zone's
/// trusted keys. Returns true when at least one signature fully
/// verifies; otherwise records the most informative finding.
pub fn check_rrset(
    rrset: &Rrset,
    trusted: &[PublishedKey],
    caps: &ValidatorCaps,
    now: u32,
    target: SigTarget,
    diag: &mut Diagnosis,
) -> bool {
    let ok = check_rrset_inner(rrset, trusted, caps, now, target, diag);
    let tracer = diag.tracer();
    tracer.emit(ede_trace::TraceEvent::ValidationStep {
        target: if tracer.wants_query_detail() {
            format!("{} {} rrsig", rrset.name, rrset.rtype)
        } else {
            String::new()
        },
        ok,
    });
    ok
}

fn check_rrset_inner(
    rrset: &Rrset,
    trusted: &[PublishedKey],
    caps: &ValidatorCaps,
    now: u32,
    target: SigTarget,
    diag: &mut Diagnosis,
) -> bool {
    if rrset.sigs.is_empty() {
        diag.add(Finding::RrsigMissing { target });
        diag.degrade(ValidationState::Bogus);
        return false;
    }

    let mut first_issue: Option<Finding> = None;
    let mut all_unsupported = true;
    for sig in &rrset.sigs {
        if let Some(status) = alg_status_for(sig.algorithm, caps) {
            first_issue.get_or_insert(Finding::ZoneAlgorithmUnsupported {
                status,
                algorithm: sig.algorithm,
            });
            continue;
        }
        all_unsupported = false;
        if let Some(f) = window_finding(check_window(sig, now), target) {
            first_issue.get_or_insert(f);
            continue;
        }
        let Some(key) = trusted
            .iter()
            .find(|k| k.tag == sig.key_tag && k.algorithm == sig.algorithm)
        else {
            first_issue.get_or_insert(Finding::RrsigKeyMissing { target });
            continue;
        };
        let data = signing_data(sig, rrset);
        if simsig::verify(&key.public_key, sig.algorithm, &data, &sig.signature).is_ok() {
            return true;
        }
        first_issue.get_or_insert(Finding::SignatureBogus { target });
    }

    if all_unsupported {
        // A zone signed exclusively with unsupported algorithms is
        // insecure, not bogus.
        if let Some(f) = first_issue {
            diag.add(f);
        }
        diag.degrade(ValidationState::Insecure);
        return false;
    }
    if let Some(f) = first_issue {
        diag.add(f);
    }
    diag.degrade(ValidationState::Bogus);
    false
}

/// Validate a plain-NSEC denial proof (RFC 4035 §3.1.3 / §5.4).
fn check_negative_nsec(
    nsec_sets: &[&Rrset],
    qname: &Name,
    qtype: RrType,
    kind: NegativeKind,
    trusted: &[PublishedKey],
    now: u32,
    diag: &mut Diagnosis,
) {
    let structural_ok = match kind {
        NegativeKind::Nodata => nsec_sets.iter().any(|s| {
            s.name == *qname
                && match s.rdatas.first() {
                    Some(Rdata::Nsec { types, .. }) => !types.contains(qtype),
                    _ => false,
                }
        }),
        NegativeKind::Nxdomain => nsec_sets.iter().any(|s| match s.rdatas.first() {
            Some(Rdata::Nsec { next, .. }) => ede_zone::nsec::covers(&s.name, next, qname),
            _ => false,
        }),
    };
    if !structural_ok {
        diag.add(Finding::DenialProofBroken {
            issue: DenialIssue::OwnerMismatch,
            kind,
        });
        diag.degrade(ValidationState::Bogus);
        return;
    }
    for set in nsec_sets {
        if set.sigs.is_empty() {
            diag.add(Finding::DenialSigMissing { kind });
            diag.degrade(ValidationState::Bogus);
            return;
        }
    }
    for set in nsec_sets {
        let ok = set
            .sigs
            .iter()
            .any(|sig| trusted.iter().any(|k| sig_verifies(sig, set, k, now)));
        if !ok {
            diag.add(Finding::DenialSigBogus { kind });
            diag.degrade(ValidationState::Bogus);
            return;
        }
    }
}

/// Extract retainable denial spans from a proof's records: every
/// NSEC/NSEC3 RRset whose signature verifies against `trusted` becomes
/// a [`ProofRange`] for the RFC 8198 range tier. Verification is
/// re-done here (rather than piggybacked on `check_negative`) so the
/// synthesis-off resolution path is byte-for-byte unchanged; callers
/// invoke this only when synthesis is enabled, and only after the
/// proof as a whole validated cleanly.
pub fn extract_proof_ranges(
    records: &[Record],
    trusted: &[PublishedKey],
    now: u32,
) -> Vec<ProofRange> {
    let mut ranges = Vec::new();
    for set in collate(records) {
        let Some(sig) = set
            .sigs
            .iter()
            .find(|sig| trusted.iter().any(|k| sig_verifies(sig, &set, k, now)))
        else {
            continue;
        };
        match set.rdatas.first() {
            Some(Rdata::Nsec3 {
                flags,
                iterations,
                salt,
                next_hashed,
                types,
                ..
            }) => {
                let Some(owner_label) = set.name.first_label() else {
                    continue;
                };
                let Ok(owner_str) = std::str::from_utf8(owner_label) else {
                    continue;
                };
                let Some(owner_hash) = base32::decode(owner_str) else {
                    continue;
                };
                ranges.push(ProofRange::Nsec3 {
                    iterations: *iterations,
                    salt: salt.clone(),
                    flags: *flags,
                    owner_hash,
                    next_hash: next_hashed.to_vec(),
                    types: types.clone(),
                    ttl: set.ttl,
                    sig_expiration: sig.expiration,
                });
            }
            Some(Rdata::Nsec { next, types }) => {
                ranges.push(ProofRange::Nsec {
                    owner: set.name.clone(),
                    next: next.clone(),
                    types: types.clone(),
                    ttl: set.ttl,
                    sig_expiration: sig.expiration,
                });
            }
            _ => {}
        }
    }
    ranges
}

/// Advisory check used by the Quad9 profile: do the answer's RRSIG key
/// tags exist among the zone's published keys at all? Records
/// [`Finding::RrsigKeyMissing`] without degrading validation (the chain
/// verdict was already made elsewhere).
pub fn advisory_answer_key_check(
    answer_sets: &[Rrset],
    published: &[PublishedKey],
    diag: &mut Diagnosis,
) {
    for set in answer_sets {
        for sig in &set.sigs {
            if !published.iter().any(|k| k.tag == sig.key_tag) {
                diag.add(Finding::RrsigKeyMissing {
                    target: SigTarget::Answer,
                });
            }
        }
    }
}

/// Validate the denial-of-existence proof of a negative answer from a
/// signed zone.
#[allow(clippy::too_many_arguments)] // the RFC 5155 proof inputs really are this many
pub fn check_negative(
    authority: &[Record],
    qname: &Name,
    qtype: RrType,
    kind: NegativeKind,
    zone_apex: &Name,
    trusted: &[PublishedKey],
    caps: &ValidatorCaps,
    now: u32,
    diag: &mut Diagnosis,
) {
    let before = diag.findings.len();
    check_negative_inner(
        authority, qname, qtype, kind, zone_apex, trusted, caps, now, diag,
    );
    let tracer = diag.tracer();
    tracer.emit(ede_trace::TraceEvent::ValidationStep {
        target: if tracer.wants_query_detail() {
            format!("denial {qname} ({kind:?})")
        } else {
            String::new()
        },
        ok: diag.findings.len() == before,
    });
}

#[allow(clippy::too_many_arguments)]
fn check_negative_inner(
    authority: &[Record],
    qname: &Name,
    qtype: RrType,
    kind: NegativeKind,
    zone_apex: &Name,
    trusted: &[PublishedKey],
    caps: &ValidatorCaps,
    now: u32,
    diag: &mut Diagnosis,
) {
    let sets = collate(authority);
    let soa_signed = sets
        .iter()
        .find(|s| s.rtype == RrType::Soa)
        .map(|s| !s.sigs.is_empty())
        .unwrap_or(false);
    let nsec3_sets: Vec<&Rrset> = sets.iter().filter(|s| s.rtype == RrType::Nsec3).collect();
    let nsec_sets: Vec<&Rrset> = sets.iter().filter(|s| s.rtype == RrType::Nsec).collect();

    // Plain-NSEC proofs (RFC 4035 §3.1.3) take a simpler structural
    // path: owner names are compared directly in canonical order.
    if nsec3_sets.is_empty() && !nsec_sets.is_empty() {
        check_negative_nsec(&nsec_sets, qname, qtype, kind, trusted, now, diag);
        return;
    }

    if nsec3_sets.is_empty() {
        if soa_signed {
            diag.add(Finding::DenialProofBroken {
                issue: DenialIssue::Absent,
                kind,
            });
        } else {
            diag.add(Finding::NegativeUnsigned { kind });
        }
        diag.degrade(ValidationState::Bogus);
        return;
    }

    // Iteration cap (RFC 9276 / vendor limits).
    let max_iter = nsec3_sets
        .iter()
        .filter_map(|s| match s.rdatas.first() {
            Some(Rdata::Nsec3 { iterations, .. }) => Some(*iterations),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    if max_iter > caps.nsec3_iteration_cap {
        diag.add(Finding::Nsec3IterationsExceeded {
            iterations: max_iter,
        });
        diag.degrade(ValidationState::Bogus);
        return;
    }

    // Structural checks run before signature checks: a proof that points
    // at the wrong hashes is a different observable than a proof whose
    // signatures are broken, and vendors report them differently.
    let matches_name = |set: &Rrset, name: &Name| -> bool {
        let Some(Rdata::Nsec3 {
            salt, iterations, ..
        }) = set.rdatas.first()
        else {
            return false;
        };
        let label = nsec3hash::nsec3_hash_label(name.as_wire(), salt, *iterations);
        set.name
            .first_label()
            .is_some_and(|l| l.eq_ignore_ascii_case(&label))
    };
    let covers_name = |set: &Rrset, name: &Name| -> bool {
        let Some(Rdata::Nsec3 {
            salt,
            iterations,
            next_hashed,
            ..
        }) = set.rdatas.first()
        else {
            return false;
        };
        let target = &nsec3hash::nsec3_hash(name.as_wire(), salt, *iterations)[..];
        let Some(owner_label) = set.name.first_label() else {
            return false;
        };
        let Ok(owner_str) = std::str::from_utf8(owner_label) else {
            return false;
        };
        let Some(owner_hash) = base32::decode(owner_str) else {
            return false;
        };
        let (owner_hash, next_hashed) = (&owner_hash[..], &next_hashed[..]);
        if owner_hash < next_hashed {
            target > owner_hash && target < next_hashed
        } else {
            target > owner_hash || target < next_hashed
        }
    };

    match kind {
        NegativeKind::Nodata => {
            let ok = nsec3_sets.iter().any(|s| {
                matches_name(s, qname)
                    && match s.rdatas.first() {
                        Some(Rdata::Nsec3 { types, .. }) => !types.contains(qtype),
                        _ => false,
                    }
            });
            if !ok {
                diag.add(Finding::DenialProofBroken {
                    issue: DenialIssue::OwnerMismatch,
                    kind,
                });
                diag.degrade(ValidationState::Bogus);
                return;
            }
        }
        NegativeKind::Nxdomain => {
            // Closest encloser: walk qname's ancestors looking for a
            // matching NSEC3.
            let mut encloser: Option<Name> = None;
            let mut cursor = qname.parent();
            while let Some(a) = cursor {
                if nsec3_sets.iter().any(|s| matches_name(s, &a)) {
                    encloser = Some(a);
                    break;
                }
                if a == *zone_apex {
                    break;
                }
                cursor = a.parent();
            }
            let Some(encloser) = encloser else {
                diag.add(Finding::DenialProofBroken {
                    issue: DenialIssue::OwnerMismatch,
                    kind,
                });
                diag.degrade(ValidationState::Bogus);
                return;
            };
            // Next closer name must be covered.
            let depth_diff = qname.label_count() - encloser.label_count();
            let mut next_closer = qname.clone();
            for _ in 1..depth_diff {
                next_closer = next_closer.parent().expect("above qname");
            }
            if !nsec3_sets.iter().any(|s| covers_name(s, &next_closer)) {
                diag.add(Finding::DenialProofBroken {
                    issue: DenialIssue::ChainMismatch,
                    kind,
                });
                diag.degrade(ValidationState::Bogus);
                return;
            }
        }
    }

    // Signature checks over the proof records.
    for set in &nsec3_sets {
        if set.sigs.is_empty() {
            diag.add(Finding::DenialSigMissing { kind });
            diag.degrade(ValidationState::Bogus);
            return;
        }
    }
    for set in &nsec3_sets {
        let ok = set
            .sigs
            .iter()
            .any(|sig| trusted.iter().any(|k| sig_verifies(sig, set, k, now)));
        if !ok {
            diag.add(Finding::DenialSigBogus { kind });
            diag.degrade(ValidationState::Bogus);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ValidatorCaps;
    use ede_wire::rdata::Soa;
    use ede_zone::signer::{sign_zone, SignerConfig, SIM_NOW};
    use ede_zone::{Misconfig, TypeSel, Zone, ZoneKeys};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn caps() -> ValidatorCaps {
        ValidatorCaps::full()
    }

    fn signed_zone() -> (Zone, ZoneKeys, Vec<Rdata>) {
        let apex = n("test.example");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            3600,
            Rdata::Soa(Soa {
                mname: n("ns1.test.example"),
                rname: n("hostmaster.test.example"),
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
            Rdata::Ns(n("ns1.test.example")),
        ));
        z.add_a(n("ns1.test.example"), "192.0.2.1".parse().unwrap());
        z.add_a(apex.clone(), "192.0.2.2".parse().unwrap());
        let keys = ZoneKeys::generate(&apex, 8, 2048);
        sign_zone(&mut z, &keys, &SignerConfig::default());
        let ds = vec![keys.ksk.ds_rdata(&apex, DigestAlg::SHA256)];
        (z, keys, ds)
    }

    fn dnskey_rrset(z: &Zone) -> Rrset {
        z.get(&n("test.example"), RrType::Dnskey).unwrap().clone()
    }

    #[test]
    fn clean_zone_validates() {
        let (z, _, ds) = signed_zone();
        let mut diag = Diagnosis::new();
        let v = validate_dnskey(
            &n("test.example"),
            &ds,
            &dnskey_rrset(&z),
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        let trusted = v.trusted.expect("chain should validate");
        assert_eq!(trusted.len(), 2);
        assert!(diag.findings.is_empty());

        let a_set = z.get(&n("test.example"), RrType::A).unwrap();
        assert!(check_rrset(
            a_set,
            &trusted,
            &caps(),
            SIM_NOW,
            SigTarget::Answer,
            &mut diag
        ));
        assert_eq!(diag.validation, ValidationState::Secure);
    }

    #[test]
    fn ds_bad_tag_reports_no_matching_dnskey() {
        let (z, keys, _) = signed_zone();
        let ds = Misconfig::DsBadTag.parent_ds(&keys, &n("test.example"));
        let mut diag = Diagnosis::new();
        let v = validate_dnskey(
            &n("test.example"),
            &ds,
            &dnskey_rrset(&z),
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        assert!(v.trusted.is_none());
        assert!(diag.any(|f| matches!(
            f,
            Finding::DsNoMatchingDnskey {
                cause: DsMismatch::TagOrAlgorithm
            }
        )));
        assert_eq!(diag.validation, ValidationState::Bogus);
    }

    #[test]
    fn ds_bogus_digest_reports_digest_mismatch() {
        let (z, keys, _) = signed_zone();
        let ds = Misconfig::DsBogusDigestValue.parent_ds(&keys, &n("test.example"));
        let mut diag = Diagnosis::new();
        let v = validate_dnskey(
            &n("test.example"),
            &ds,
            &dnskey_rrset(&z),
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        assert!(v.trusted.is_none());
        assert!(diag.any(|f| matches!(
            f,
            Finding::DsNoMatchingDnskey {
                cause: DsMismatch::Digest
            }
        )));
    }

    #[test]
    fn unassigned_ds_algorithm_is_insecure() {
        let (z, keys, _) = signed_zone();
        let ds = Misconfig::DsUnassignedKeyAlgo.parent_ds(&keys, &n("test.example"));
        let mut diag = Diagnosis::new();
        let v = validate_dnskey(
            &n("test.example"),
            &ds,
            &dnskey_rrset(&z),
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        assert!(v.trusted.is_none());
        assert_eq!(diag.validation, ValidationState::Insecure);
        assert!(diag.any(|f| matches!(
            f,
            Finding::DsUnknownAlgorithm {
                status: AlgStatus::Unassigned,
                algorithm: 100
            }
        )));
    }

    #[test]
    fn expired_answer_signature() {
        let (mut z, keys, ds) = signed_zone();
        Misconfig::RrsigExpired(TypeSel::OnlyApexA).apply(&mut z, &keys);
        let mut diag = Diagnosis::new();
        let v = validate_dnskey(
            &n("test.example"),
            &ds,
            &dnskey_rrset(&z),
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        let trusted = v.trusted.expect("dnskey untouched");
        let a_set = z.get(&n("test.example"), RrType::A).unwrap();
        assert!(!check_rrset(
            a_set,
            &trusted,
            &caps(),
            SIM_NOW,
            SigTarget::Answer,
            &mut diag
        ));
        assert!(diag.any(|f| matches!(
            f,
            Finding::SignatureExpired {
                target: SigTarget::Answer
            }
        )));
    }

    #[test]
    fn missing_zsk_breaks_dnskey_rrset() {
        let (mut z, keys, ds) = signed_zone();
        Misconfig::NoZsk.apply(&mut z, &keys);
        let mut diag = Diagnosis::new();
        let v = validate_dnskey(
            &n("test.example"),
            &ds,
            &dnskey_rrset(&z),
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        assert!(v.trusted.is_none());
        assert!(diag.any(|f| matches!(
            f,
            Finding::DnskeySigBogus {
                zsk_present: false,
                ..
            }
        )));
    }

    #[test]
    fn no_rrsig_ksk_detected_with_zsk_sig_present() {
        let (mut z, keys, ds) = signed_zone();
        Misconfig::NoRrsigKsk.apply(&mut z, &keys);
        let mut diag = Diagnosis::new();
        let v = validate_dnskey(
            &n("test.example"),
            &ds,
            &dnskey_rrset(&z),
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        assert!(v.trusted.is_none());
        assert!(diag.any(|f| matches!(f, Finding::DnskeySigMissingByMatchedKey)));
    }

    #[test]
    fn bad_rrsig_ksk_leaves_valid_zsk_sig() {
        let (mut z, keys, ds) = signed_zone();
        Misconfig::BadRrsigKsk.apply(&mut z, &keys);
        let mut diag = Diagnosis::new();
        validate_dnskey(
            &n("test.example"),
            &ds,
            &dnskey_rrset(&z),
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        assert!(diag.any(|f| matches!(
            f,
            Finding::DnskeySigBogus {
                some_sig_valid: true,
                ..
            }
        )));
    }

    #[test]
    fn bad_rrsig_dnskey_no_valid_sig() {
        let (mut z, keys, ds) = signed_zone();
        Misconfig::BadRrsigDnskey.apply(&mut z, &keys);
        let mut diag = Diagnosis::new();
        validate_dnskey(
            &n("test.example"),
            &ds,
            &dnskey_rrset(&z),
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        assert!(diag.any(|f| matches!(
            f,
            Finding::DnskeySigBogus {
                some_sig_valid: false,
                zsk_present: true
            }
        )));
    }

    #[test]
    fn collate_groups_and_attaches_sigs() {
        let (z, _, _) = signed_zone();
        let a_set = z.get(&n("test.example"), RrType::A).unwrap();
        let mut records: Vec<Record> = a_set.records().collect();
        records.extend(a_set.sig_records());
        let collated = collate(&records);
        assert_eq!(collated.len(), 1);
        assert_eq!(collated[0].rdatas.len(), 1);
        assert_eq!(collated[0].sigs.len(), 1);
    }

    #[test]
    fn standby_key_flagged() {
        let (mut z, keys, ds) = signed_zone();
        // Publish an extra SEP key that signs nothing.
        let standby = ede_zone::ZoneKey::generate(&n("test.example"), "standby", 8, 2048, 257);
        z.get_mut(&n("test.example"), RrType::Dnskey)
            .unwrap()
            .rdatas
            .push(standby.dnskey_rdata());
        // Re-sign so the RRset (now including the stand-by key) verifies.
        ede_zone::signer::resign_rrset(
            &mut z,
            &n("test.example"),
            RrType::Dnskey,
            &keys,
            SignerConfig::default().window(),
        );
        let mut diag = Diagnosis::new();
        let v = validate_dnskey(
            &n("test.example"),
            &ds,
            &dnskey_rrset(&z),
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        assert!(v.trusted.is_some(), "chain still validates");
        assert!(diag.any(|f| matches!(f, Finding::StandbyKeyWithoutRrsig)));
        assert_eq!(diag.validation, ValidationState::Secure);
    }
}
