//! DNSSEC chain-of-trust validation, as links.
//!
//! Implements the validator side of RFC 4034/4035/5155 to the depth the
//! paper's observations require, link by link in chain order:
//!
//! 1. **trust anchor → DS**: crossing a zone cut, `cut_link`
//!    authenticates the child's DS RRset with the parent's keys, or
//!    demands proof that the delegation is insecure and leaves the chain;
//! 2. **DS → DNSKEY**: `keys_link` takes what the DNSKEY fetch yielded,
//!    and [`validate_dnskey`] matches DS records to published keys (with
//!    registry-status handling) and authenticates the DNSKEY RRset;
//! 3. **DNSKEY → RRset or denial**: `answer_link` verifies every answer
//!    RRset ([`check_rrset`]: signatures and validity windows) or the
//!    NSEC/NSEC3 denial proof ([`check_negative`]).
//!
//! A link is a private function that returns its verdict: `Ok` with what
//! the next link needs, or `Err(Broken)` — the [`Finding`] that names the
//! break and the [`ValidationState`] it forces. One function, `step`,
//! records a broken link: the finding, the state joined into the
//! diagnosis ([`Diagnosis::degrade`]), the one `ValidationStep` event.
//! Every `Bogus` and `Insecure` is decided in this module; the iterative
//! walk decides only `Indeterminate` (no answer to validate). Failures
//! are structured findings — not bare errors — so the vendor profiles can
//! reproduce Table 4, and links add advisory findings (a stand-by key,
//! an unusable DS) on their way in a fixed order: the order of findings
//! is contract.

use crate::cache::infra::KeyEntry;
use crate::cache::ranges::ProofRange;
use crate::diagnosis::{
    AlgStatus, DenialIssue, Diagnosis, DsMismatch, Finding, NegativeKind, NsFailure, SigTarget,
    ValidationState,
};
use crate::profiles::ValidatorCaps;
use ede_crypto::{keytag, simsig};
use ede_trace::TraceEvent;
use ede_wire::rdata::Rrsig;
use ede_wire::registry::RegistryStatus;
use ede_wire::{DigestAlg, Message, Name, Question, Rcode, Rdata, Record, RrType, SecAlg};
use ede_zone::canonical::{ds_digest, signing_data};
use ede_zone::nsec3;
use ede_zone::rrset::{collate, Rrset};

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

/// A broken link: the finding that names the break (none when the chain
/// of trust merely ends) and the verdict it forces on the resolution.
type Broken = (Option<Finding>, ValidationState);

/// The usual break: `finding` makes the resolution Bogus.
fn bogus(finding: Finding) -> Broken {
    (Some(finding), ValidationState::Bogus)
}

/// Record a broken link: its finding, then its verdict joined into the
/// state. Called directly only where no `ValidationStep` is announced.
fn record(diag: &mut Diagnosis, (finding, verdict): Broken) {
    if let Some(finding) = finding {
        diag.add(finding);
    }
    diag.degrade(verdict);
}

/// Run one link of the chain: record it if it broke, and announce the
/// step under `label` — `ok` when the link held and recorded nothing,
/// not even an advisory finding. Hands on what the link yielded.
fn step<T>(
    diag: &mut Diagnosis,
    label: impl FnOnce() -> String,
    link: impl FnOnce(&mut Diagnosis) -> Result<T, Broken>,
) -> Option<T> {
    let before = diag.findings.len();
    let held = match link(diag) {
        Ok(yielded) => Some(yielded),
        Err(broken) => {
            record(diag, broken);
            None
        }
    };
    let tracer = diag.tracer();
    tracer.emit(TraceEvent::ValidationStep {
        target: if tracer.wants_query_detail() {
            label()
        } else {
            String::new()
        },
        ok: held.is_some() && diag.findings.len() == before,
    });
    held
}

/// The finding for an RRSIG whose validity window excludes `now`.
fn window_finding(sig: &Rrsig, now: u32, target: SigTarget) -> Option<Finding> {
    if sig.expiration < sig.inception {
        Some(Finding::SignatureExpiredBeforeValid { target })
    } else if now > sig.expiration {
        Some(Finding::SignatureExpired { target })
    } else if now < sig.inception {
        Some(Finding::SignatureNotYetValid { target })
    } else {
        None
    }
}

/// Verify one signature over one RRset against one key, including the
/// window. Returns true only when everything checks out.
fn sig_verifies(sig: &Rrsig, rrset: &Rrset, key: &PublishedKey, now: u32) -> bool {
    // Whichever target: only whether the window excludes `now` matters.
    if window_finding(sig, now, SigTarget::Answer).is_some() {
        return false;
    }
    if sig.key_tag != key.tag || sig.algorithm != key.algorithm {
        return false;
    }
    let data = signing_data(sig, rrset);
    simsig::verify(&key.public_key, sig.algorithm, &data, &sig.signature).is_ok()
}

/// The first signature over `rrset` that one of `keys` verifies.
fn verified_sig<'s>(rrset: &'s Rrset, keys: &[PublishedKey], now: u32) -> Option<&'s Rrsig> {
    let by_a_key = |sig: &&Rrsig| keys.iter().any(|k| sig_verifies(sig, rrset, k, now));
    rrset.sigs.iter().find(by_a_key)
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
#[derive(Default)]
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
    let published = published_keys(dnskey_rrset);
    let trusted = step(
        diag,
        || format!("DNSKEY {apex}"),
        |diag| dnskey_link(apex, ds_rdatas, dnskey_rrset, &published, caps, now, diag),
    );
    DnskeyValidation { trusted, published }
}

/// The DS records this validator can use at all; every other one leaves
/// an advisory finding saying why not.
fn usable_ds<'d>(
    ds_rdatas: &'d [Rdata],
    caps: &ValidatorCaps,
    diag: &mut Diagnosis,
) -> Vec<&'d Rdata> {
    let mut usable = Vec::new();
    for ds in ds_rdatas {
        let Rdata::Ds {
            algorithm,
            digest_type,
            ..
        } = ds
        else {
            continue;
        };
        let algorithm = *algorithm;
        if let Some(status) = alg_status_for(algorithm, caps) {
            diag.add(match status {
                AlgStatus::Unassigned | AlgStatus::Reserved => {
                    Finding::DsUnknownAlgorithm { status, algorithm }
                }
                AlgStatus::Deprecated | AlgStatus::UnsupportedAssigned => {
                    Finding::ZoneAlgorithmUnsupported { status, algorithm }
                }
            });
            continue;
        }
        let assigned = !matches!(
            DigestAlg(*digest_type).status(),
            RegistryStatus::Unassigned | RegistryStatus::Reserved
        );
        if !assigned || !caps.digests.contains(digest_type) {
            diag.add(Finding::DsUnsupportedDigest {
                assigned,
                digest_type: *digest_type,
            });
            continue;
        }
        usable.push(ds);
    }
    usable
}

/// The published zone key a usable DS vouches for, DS records and keys
/// tried in RRset order.
fn ds_matched_key<'k>(
    apex: &Name,
    usable_ds: &[&Rdata],
    published: &'k [PublishedKey],
    diag: &mut Diagnosis,
) -> Result<&'k PublishedKey, Broken> {
    let mut digest_mismatch_seen = false;
    for ds in usable_ds {
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
            if ds_digest(apex, &key.dnskey_rdata(), DigestAlg(*digest_type)) != *digest {
                digest_mismatch_seen = true;
            } else if key.is_zone_key() {
                return Ok(key);
            }
        }
    }
    if !published.is_empty() && published.iter().all(|k| !k.is_zone_key()) {
        diag.add(Finding::NoZoneKeyBitSet);
    }
    Err(bogus(Finding::DsNoMatchingDnskey {
        cause: if digest_mismatch_seen {
            DsMismatch::Digest
        } else {
            DsMismatch::TagOrAlgorithm
        },
    }))
}

/// The DS → DNSKEY link: the keys trusted below `apex`, when a usable DS
/// selects a published key and that key's signature authenticates the
/// DNSKEY RRset.
fn dnskey_link(
    apex: &Name,
    ds_rdatas: &[Rdata],
    dnskey_rrset: &Rrset,
    published: &[PublishedKey],
    caps: &ValidatorCaps,
    now: u32,
    diag: &mut Diagnosis,
) -> Result<Vec<PublishedKey>, Broken> {
    let usable_ds = usable_ds(ds_rdatas, caps, diag);
    if usable_ds.is_empty() {
        // RFC 4035 §5.2: no supported DS algorithm ⇒ treat the zone as
        // unsigned.
        return Err((None, ValidationState::Insecure));
    }
    let ksk = ds_matched_key(apex, &usable_ds, published, diag)?;

    // Authenticate the DNSKEY RRset with the matched KSK.
    let sigs = &dnskey_rrset.sigs;
    if sigs.is_empty() {
        return Err(bogus(Finding::DnskeyAllSigsMissing));
    }
    let ksk_sig = sigs
        .iter()
        .find(|s| s.key_tag == ksk.tag && s.algorithm == ksk.algorithm)
        .ok_or_else(|| bogus(Finding::DnskeySigMissingByMatchedKey))?;
    if let Some(f) = window_finding(ksk_sig, now, SigTarget::Dnskey) {
        return Err(bogus(f));
    }
    if !sig_verifies(ksk_sig, dnskey_rrset, ksk, now) {
        return Err(bogus(Finding::DnskeySigBogus {
            zsk_present: published.iter().any(|k| {
                k.is_zone_key()
                    && !k.is_sep()
                    && SecAlg(k.algorithm).status() != RegistryStatus::Unassigned
            }),
            // Advisory: does *any* signature over the RRset verify against
            // *any* published key? (Quad9 demonstrably distinguishes this.)
            some_sig_valid: verified_sig(dnskey_rrset, published, now).is_some(),
        }));
    }

    // Chain link established. Advisory scan-era findings:
    for key in published {
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
    Ok(published
        .iter()
        .filter(|k| k.is_zone_key())
        .cloned()
        .collect())
}

/// What the DNSKEY fetch for `zone` yielded, as the DS → DNSKEY link: a
/// failed fetch, or a reply without the RRset, leaves the zone's keys
/// unobtainable; anything else goes to [`validate_dnskey`].
pub(crate) fn keys_link(
    zone: &Name,
    ds_rdatas: &[Rdata],
    fetched: Result<Message, NsFailure>,
    caps: &ValidatorCaps,
    now: u32,
    diag: &mut Diagnosis,
) -> DnskeyValidation {
    let dnskey_set = fetched.and_then(|resp| {
        collate(&resp.answers)
            .into_iter()
            .find(|s| s.rtype == RrType::Dnskey && s.name == *zone)
            .ok_or(NsFailure::OtherRcode(0))
    });
    match dnskey_set {
        Ok(set) => validate_dnskey(zone, ds_rdatas, &set, caps, now, diag),
        Err(failure) => {
            record(diag, bogus(Finding::DnskeyUnobtainable { failure }));
            DnskeyValidation::default()
        }
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
    step(
        diag,
        || format!("{} {} rrsig", rrset.name, rrset.rtype),
        |_| rrset_link(rrset, trusted, caps, now, target),
    )
    .is_some()
}

/// The DNSKEY → RRset link: holds when one signature by a trusted key
/// verifies; otherwise breaks on the first signature's issue.
fn rrset_link(
    rrset: &Rrset,
    trusted: &[PublishedKey],
    caps: &ValidatorCaps,
    now: u32,
    target: SigTarget,
) -> Result<(), Broken> {
    if rrset.sigs.is_empty() {
        return Err(bogus(Finding::RrsigMissing { target }));
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
        if let Some(f) = window_finding(sig, now, target) {
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
        if sig_verifies(sig, rrset, key, now) {
            return Ok(());
        }
        first_issue.get_or_insert(Finding::SignatureBogus { target });
    }
    // A zone signed exclusively with unsupported algorithms is insecure,
    // not bogus.
    let verdict = if all_unsupported {
        ValidationState::Insecure
    } else {
        ValidationState::Bogus
    };
    Err((first_issue, verdict))
}

/// The structure of a denial (RFC 4035 §3.1.3 / §5.4, RFC 5155 §8): the
/// NSEC or NSEC3 RRsets among `sets` that deny (`qname`, `qtype`), still
/// unauthenticated. Structure is checked before signatures: a proof that
/// points at the wrong hashes is a different observable than a proof
/// whose signatures are broken, and vendors report them differently.
fn negative_link<'s>(
    sets: &'s [Rrset],
    qname: &Name,
    qtype: RrType,
    kind: NegativeKind,
    zone_apex: &Name,
    caps: &ValidatorCaps,
) -> Result<Vec<&'s Rrset>, Broken> {
    let of_type = |rtype| -> Vec<&Rrset> { sets.iter().filter(|s| s.rtype == rtype).collect() };
    let broken = |issue| bogus(Finding::DenialProofBroken { issue, kind });
    let lacks_qtype = |set: &Rrset| match set.rdatas.first() {
        Some(Rdata::Nsec { types, .. } | Rdata::Nsec3 { types, .. }) => !types.contains(qtype),
        _ => false,
    };

    let nsec3_sets = of_type(RrType::Nsec3);
    if nsec3_sets.is_empty() {
        // Plain-NSEC proofs take a simpler structural path: owner names
        // are compared directly in canonical order.
        let nsec_sets = of_type(RrType::Nsec);
        if nsec_sets.is_empty() {
            let soa_signed = sets
                .iter()
                .find(|s| s.rtype == RrType::Soa)
                .is_some_and(|s| !s.sigs.is_empty());
            return Err(if soa_signed {
                broken(DenialIssue::Absent)
            } else {
                bogus(Finding::NegativeUnsigned { kind })
            });
        }
        let denies = |s: &&Rrset| match kind {
            NegativeKind::Nodata => s.name == *qname && lacks_qtype(s),
            NegativeKind::Nxdomain => match s.rdatas.first() {
                Some(Rdata::Nsec { next, .. }) => ede_zone::nsec::covers(&s.name, next, qname),
                _ => false,
            },
        };
        if !nsec_sets.iter().any(denies) {
            return Err(broken(DenialIssue::OwnerMismatch));
        }
        return Ok(nsec_sets);
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
        return Err(bogus(Finding::Nsec3IterationsExceeded {
            iterations: max_iter,
        }));
    }

    match kind {
        NegativeKind::Nodata => {
            if !nsec3_sets
                .iter()
                .any(|s| nsec3::matches(s, qname) && lacks_qtype(s))
            {
                return Err(broken(DenialIssue::OwnerMismatch));
            }
        }
        NegativeKind::Nxdomain => {
            // Closest encloser: walk qname's ancestors, up to the apex,
            // looking for a matching NSEC3. The name one label below it
            // on the way is the next closer name.
            let mut next_closer = qname.clone();
            loop {
                let ancestor = next_closer.parent();
                let a = ancestor.ok_or_else(|| broken(DenialIssue::OwnerMismatch))?;
                if nsec3_sets.iter().any(|s| nsec3::matches(s, &a)) {
                    break;
                }
                if a == *zone_apex {
                    return Err(broken(DenialIssue::OwnerMismatch));
                }
                next_closer = a;
            }
            // Next closer name must be covered.
            if !nsec3_sets.iter().any(|s| nsec3::covers(s, &next_closer)) {
                return Err(broken(DenialIssue::ChainMismatch));
            }
        }
    }
    Ok(nsec3_sets)
}

/// The signature tail NSEC and NSEC3 proofs share: every proof RRset is
/// signed, and each carries a signature one trusted key verifies.
fn denial_sigs_link(
    proof: &[&Rrset],
    kind: NegativeKind,
    trusted: &[PublishedKey],
    now: u32,
) -> Result<(), Broken> {
    if proof.iter().any(|set| set.sigs.is_empty()) {
        return Err(bogus(Finding::DenialSigMissing { kind }));
    }
    if proof
        .iter()
        .any(|set| verified_sig(set, trusted, now).is_none())
    {
        return Err(bogus(Finding::DenialSigBogus { kind }));
    }
    Ok(())
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
    let span = |set: &Rrset| ProofRange::of_rrset(set, verified_sig(set, trusted, now)?.expiration);
    collate(records).iter().filter_map(span).collect()
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
    step(
        diag,
        || format!("denial {qname} ({kind:?})"),
        |_| {
            let sets = collate(authority);
            let proof = negative_link(&sets, qname, qtype, kind, zone_apex, caps)?;
            denial_sigs_link(&proof, kind, trusted, now)
        },
    );
}

/// Does a referral's authority section prove the delegation to `deleg`
/// insecure: an NSEC3 (or plain NSEC) matching the delegation owner
/// whose bitmap lacks DS? A light check — signatures are not verified.
fn insecure_proof_present(authority: &[Record], deleg: &Name) -> bool {
    authority.iter().any(|rec| match &rec.rdata {
        Rdata::Nsec3 {
            salt,
            iterations,
            types,
            ..
        } => !types.contains(RrType::Ds) && nsec3::owner_is(&rec.name, salt, *iterations, deleg),
        Rdata::Nsec { types, .. } => rec.name == *deleg && !types.contains(RrType::Ds),
        _ => false,
    })
}

/// Crossing a zone cut out of a signed parent, toward `child`. A
/// delegation with a DS RRset continues the chain, and the RRset is
/// authenticated with the parent's keys; one without leaves the chain
/// (Insecure), and a parent whose keys validated must prove that it
/// does. Returns the keys under which the walk may retain that proof's
/// ranges for RFC 8198 — they belong to the *parent* zone.
pub(crate) fn cut_link<'k>(
    authority: &[Record],
    child: &Name,
    child_signed: bool,
    parent_keys: Option<&'k [PublishedKey]>,
    caps: &ValidatorCaps,
    now: u32,
    diag: &mut Diagnosis,
) -> Option<&'k [PublishedKey]> {
    if child_signed {
        // Authenticate the DS RRset itself.
        let keys = parent_keys?;
        let sets = collate(authority);
        if let Some(ds_set) = sets.iter().find(|s| s.rtype == RrType::Ds) {
            check_rrset(ds_set, keys, caps, now, SigTarget::Answer, diag);
        }
        return None;
    }
    let proven = parent_keys.filter(|_| insecure_proof_present(authority, child));
    let verdict = if parent_keys.is_some() && proven.is_none() {
        bogus(Finding::InsecureReferralProofMissing)
    } else {
        (None, ValidationState::Insecure)
    };
    record(diag, verdict);
    proven
}

/// An authoritative (or terminal) answer to `asked` from `zone`, whose
/// keys are `keys` — `None` when no chain of trust reaches the zone
/// (Insecure). Trusted keys verify every answer RRset, or the denial
/// proof of an empty answer; with keys that failed validation the
/// verdict is already in, and only the advisory key check runs. Returns
/// the keys under which the walk may retain a denial's ranges for
/// RFC 8198: only when the proof recorded no finding at all.
pub(crate) fn answer_link<'k>(
    resp: &Message,
    asked: &Question,
    zone: &Name,
    keys: Option<&'k KeyEntry>,
    caps: &ValidatorCaps,
    now: u32,
    diag: &mut Diagnosis,
) -> Option<&'k [PublishedKey]> {
    let Some(keys) = keys else {
        record(diag, (None, ValidationState::Insecure));
        return None;
    };
    // Only validation reads the answer as RRsets.
    let answer_sets = collate(&resp.answers);
    let Some(trusted) = keys.trusted() else {
        // Used by the Quad9 profile: do the answer's RRSIG key tags exist
        // among the zone's published keys at all? The chain verdict was
        // made at the DNSKEY link, so nothing degrades here.
        for sig in answer_sets.iter().flat_map(|set| &set.sigs) {
            if !keys.published.iter().any(|k| k.tag == sig.key_tag) {
                diag.add(Finding::RrsigKeyMissing {
                    target: SigTarget::Answer,
                });
            }
        }
        return None;
    };
    if answer_sets.is_empty() {
        let kind = if resp.rcode == Rcode::NxDomain {
            NegativeKind::Nxdomain
        } else {
            NegativeKind::Nodata
        };
        let before = diag.findings.len();
        check_negative(
            &resp.authorities,
            &asked.name,
            asked.qtype,
            kind,
            zone,
            trusted,
            caps,
            now,
            diag,
        );
        return (diag.findings.len() == before).then_some(trusted);
    }
    for set in &answer_sets {
        check_rrset(set, trusted, caps, now, SigTarget::Answer, diag);
    }
    None
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
