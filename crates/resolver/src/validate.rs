//! DNSSEC chain-of-trust validation, as links.
//!
//! Implements the validator side of RFC 4034/4035/5155 to the depth the
//! paper's observations require, link by link in chain order:
//!
//! 1. **trust anchor → DS**: crossing a zone cut, `cut_link`
//!    authenticates with the parent's keys either the child's DS RRset
//!    or the parent's NODATA proof for DS, which leaves the chain;
//! 2. **DS → DNSKEY**: `keys_link` takes what the DNSKEY fetch yielded,
//!    and [`validate_dnskey`] matches DS records to published keys (with
//!    registry-status handling) and authenticates the DNSKEY RRset;
//! 3. **DNSKEY → RRset or denial**: `answer_link` verifies every answer
//!    RRset ([`check_rrset`]: signatures and validity windows) or the
//!    NSEC3 denial proof ([`check_negative`]).
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
//!
//! A key tag does not identify a key (RFC 4034 App. B), so wherever a
//! tag picks a key or a signature every candidate is tried (RFC 4035
//! §5.3.1), within a budget of verifies per RRset and per resolution
//! (docs/ROBUSTNESS.md, "The verify budget").

use crate::cache::infra::{ChainKeys, KeyEntry};
use crate::diagnosis::{
    AlgStatus, DenialIssue, Diagnosis, DsMismatch, Finding, NegativeKind, NsFailure, SigTarget,
    ValidationState,
};
use crate::profiles::ValidatorCaps;
use ede_crypto::simsig;
use ede_trace::TraceEvent;
use ede_wire::rdata::Rrsig;
use ede_wire::registry::RegistryStatus;
use ede_wire::{DigestAlg, Message, Name, Question, Rcode, Rdata, Record, RrType, SecAlg};
use ede_zone::canonical::{ds_digest_of, with_signing_data, DnskeyFields};
use ede_zone::nsec3;
use ede_zone::rrset::{sets_in, Rrset, RrsetRef};

/// A DNSKEY as published by a zone, parsed for validation: its public
/// key is held as verification reads it, not copied. The DS check reads
/// the key's RDATA where it was published.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishedKey {
    /// The zone that published the key, its DNSKEY RRset's owner: the
    /// one signer name a signature by this key may carry.
    zone: Name,
    /// RFC 4034 Appendix B key tag.
    pub tag: u16,
    /// Algorithm number.
    pub algorithm: u8,
    /// DNSKEY flags.
    pub flags: u16,
    /// Modeled key size in bits, from the public key's length.
    key_bits: u16,
    /// The parsed public key; `None` for one that does not parse, which
    /// verifies no signature.
    key: Option<simsig::PublicKey>,
}

impl PublishedKey {
    /// The key a DNSKEY RDATA of `zone` publishes; `None` for any other
    /// type.
    fn of(zone: &Name, rdata: &Rdata) -> Option<Self> {
        let fields = DnskeyFields::of(rdata)?;
        Some(PublishedKey {
            zone: zone.clone(),
            tag: fields.key_tag(),
            algorithm: fields.algorithm,
            flags: fields.flags,
            key_bits: (fields.key_len as u16).saturating_mul(8),
            key: simsig::parse_public_key(fields.key),
        })
    }

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
        self.key_bits
    }
}

/// The keys a DNSKEY RRset publishes, in RRset order.
pub(crate) fn keys_of(set: RrsetRef<'_>) -> Vec<PublishedKey> {
    set.rdatas()
        .filter_map(|rdata| PublishedKey::of(set.name(), rdata))
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

/// Whether `sig` names `key` as its maker over `set` at `now`: the
/// window holds and the fields RFC 4035 §5.3.1 requires match — the
/// signer name, key tag and algorithm are those of the key and the zone
/// that published it, and the labels field is the owner's label count.
/// A smaller count claims a wildcard expansion, which this model does
/// not synthesize, so it names no key either. A key that does not parse
/// is named by nothing. No verify: these are the cheap checks that pick
/// the candidates [`first_verified`] tries.
fn sig_names_key(sig: &Rrsig, set: RrsetRef<'_>, key: &PublishedKey, now: u32) -> bool {
    // Whichever target: only whether the window excludes `now` matters.
    window_finding(sig, now, SigTarget::Answer).is_none()
        && sig.key_tag == key.tag
        && sig.algorithm == key.algorithm
        && sig.signer == key.zone
        && usize::from(sig.labels) == set.name().label_count()
        && key.key.is_some()
}

/// One verify: does `key` check `sig` over `set`?
fn signature_holds(sig: &Rrsig, set: RrsetRef<'_>, key: &PublishedKey) -> bool {
    key.key.as_ref().is_some_and(|public| {
        with_signing_data(sig, set, |data| {
            public.verify(sig.algorithm, data, &sig.signature).is_ok()
        })
    })
}

/// The verifies — signature checks and DS digests — one RRset may cost.
/// A key tag names no key for certain (RFC 4034 App. B), so RFC 4035
/// §5.3.1 has a validator try every key a tag names, and many keys of
/// one tag times many signatures is what KeyTrap (CVE-2023-50387) turns
/// into CPU exhaustion. docs/ROBUSTNESS.md states both bounds.
const VERIFIES_PER_RRSET: u32 = 8;

/// The verifies one resolution may cost, its key fetches included: an
/// honest chain spends about three per signed zone cut.
const VERIFIES_PER_RESOLUTION: u32 = 128;

/// A search that ran out of verifies with a candidate left untried.
struct Exhausted;

/// The first of `candidates` that `verifies` accepts, tried in order:
/// the verdict is then a function of the RRset and the keys, not of
/// their order. Each try is one verify, charged to `allowance` (what the
/// RRset has left, from [`VERIFIES_PER_RRSET`]) and to the resolution's
/// count in `diag`; `Err(Exhausted)` when either is spent and a
/// candidate is left.
fn first_verified<T>(
    candidates: impl IntoIterator<Item = T>,
    allowance: &mut u32,
    diag: &mut Diagnosis,
    mut verifies: impl FnMut(&T) -> bool,
) -> Result<Option<T>, Exhausted> {
    for candidate in candidates {
        if *allowance == 0 || diag.verifies >= VERIFIES_PER_RESOLUTION {
            return Err(Exhausted);
        }
        *allowance -= 1;
        diag.verifies += 1;
        if verifies(&candidate) {
            return Ok(Some(candidate));
        }
    }
    Ok(None)
}

/// The first signature over `set` that one of `keys` verifies, every
/// (signature, key) pair that names each other tried in order.
fn verified_sig<'s>(
    set: RrsetRef<'s>,
    keys: &[PublishedKey],
    now: u32,
    allowance: &mut u32,
    diag: &mut Diagnosis,
) -> Result<Option<&'s Rrsig>, Exhausted> {
    let pairs = set.sigs().flat_map(|sig| {
        keys.iter()
            .filter(move |key| sig_names_key(sig, set, key, now))
            .map(move |key| (sig, key))
    });
    let found = first_verified(pairs, allowance, diag, |(sig, key)| {
        signature_holds(sig, set, key)
    })?;
    Ok(found.map(|(sig, _)| sig))
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
    validate_dnskey_set(apex, ds_rdatas, dnskey_rrset.into(), caps, now, diag)
}

/// [`validate_dnskey`] over the DNSKEY RRset read in place.
fn validate_dnskey_set(
    apex: &Name,
    ds_rdatas: &[Rdata],
    set: RrsetRef<'_>,
    caps: &ValidatorCaps,
    now: u32,
    diag: &mut Diagnosis,
) -> DnskeyValidation {
    let published = keys_of(set);
    let trusted = step(
        diag,
        || format!("DNSKEY {apex}"),
        |diag| dnskey_link(apex, ds_rdatas, set, &published, caps, now, diag),
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
/// tried in RRset order, every key a DS's tag and algorithm name (each
/// digest one verify). `published` are the keys of `set`, in its order;
/// each digest is taken over the RDATA `set` holds.
fn ds_matched_key<'k>(
    apex: &Name,
    usable_ds: &[&Rdata],
    set: RrsetRef<'_>,
    published: &'k [PublishedKey],
    diag: &mut Diagnosis,
) -> Result<&'k PublishedKey, Broken> {
    let mut digest_mismatch_seen = false;
    let candidates = usable_ds
        .iter()
        .filter_map(|ds| match ds {
            Rdata::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            } => Some((*key_tag, *algorithm, DigestAlg(*digest_type), &digest[..])),
            _ => None,
        })
        .flat_map(|(tag, algorithm, digest_type, digest)| {
            let keys = set.rdatas().filter_map(DnskeyFields::of).zip(published);
            keys.filter(move |(_, k)| k.tag == tag && k.algorithm == algorithm)
                .map(move |(fields, key)| (fields, key, digest_type, digest))
        });
    let mut allowance = VERIFIES_PER_RRSET;
    let matched = first_verified(
        candidates,
        &mut allowance,
        diag,
        |(fields, key, digest_type, digest)| {
            if *ds_digest_of(apex, fields, *digest_type) != **digest {
                digest_mismatch_seen = true;
                false
            } else {
                key.is_zone_key()
            }
        },
    );
    if let Ok(Some((_, key, _, _))) = matched {
        return Ok(key);
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
    set: RrsetRef<'_>,
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
    let ksk = ds_matched_key(apex, &usable_ds, set, published, diag)?;

    // Authenticate the DNSKEY RRset with the matched KSK: every
    // signature that carries its tag and algorithm is tried, and the
    // first one's issue is the finding when none verifies.
    if set.sigs().next().is_none() {
        return Err(bogus(Finding::DnskeyAllSigsMissing));
    }
    let mut by_ksk = set
        .sigs()
        .filter(|s| s.key_tag == ksk.tag && s.algorithm == ksk.algorithm)
        .peekable();
    let first = *by_ksk
        .peek()
        .ok_or_else(|| bogus(Finding::DnskeySigMissingByMatchedKey))?;
    let mut allowance = VERIFIES_PER_RRSET;
    let found = first_verified(
        by_ksk.filter(|sig| sig_names_key(sig, set, ksk, now)),
        &mut allowance,
        diag,
        |sig| signature_holds(sig, set, ksk),
    );
    if let Ok(None) = found {
        if let Some(f) = window_finding(first, now, SigTarget::Dnskey) {
            return Err(bogus(f));
        }
    }
    if !matches!(found, Ok(Some(_))) {
        // Advisory: does *any* signature over the RRset verify against
        // *any* published key? (Quad9 demonstrably distinguishes this.)
        // Not once the budget is spent.
        let some_sig_valid = matches!(
            verified_sig(set, published, now, &mut allowance, diag),
            Ok(Some(_))
        );
        return Err(bogus(Finding::DnskeySigBogus {
            zsk_present: published.iter().any(|k| {
                k.is_zone_key()
                    && !k.is_sep()
                    && SecAlg(k.algorithm).status() != RegistryStatus::Unassigned
            }),
            some_sig_valid,
        }));
    }

    // Chain link established. Advisory scan-era findings:
    for key in published {
        // A SEP-flagged key that is not DS-matched and signs nothing is a
        // stand-by key (§4.2.3) — Cloudflare flags it.
        if key.is_sep() && key.tag != ksk.tag && !set.sigs().any(|s| s.key_tag == key.tag) {
            diag.add(Finding::StandbyKeyWithoutRrsig);
        }
        if key.key_bits() < caps.min_key_bits {
            diag.add(Finding::UnsupportedKeySize {
                bits: key.key_bits(),
            });
        }
    }
    // Sized exactly: the key cache keeps this vector for the zone's
    // lifetime.
    let zone_keys = published.iter().filter(|k| k.is_zone_key());
    let mut trusted = Vec::with_capacity(zone_keys.clone().count());
    trusted.extend(zone_keys.cloned());
    Ok(trusted)
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
    let dnskey_set = fetched
        .as_ref()
        .map_err(|failure| *failure)
        .and_then(|resp| {
            sets_in(&resp.answers)
                .find(|s| s.rtype() == RrType::Dnskey && s.name() == zone)
                .ok_or(NsFailure::OtherRcode(0))
        });
    match dnskey_set {
        Ok(set) => validate_dnskey_set(zone, ds_rdatas, set, caps, now, diag),
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
    check_set(rrset.into(), trusted, caps, now, target, diag)
}

/// [`check_rrset`] over the RRset read in place.
fn check_set(
    set: RrsetRef<'_>,
    trusted: &[PublishedKey],
    caps: &ValidatorCaps,
    now: u32,
    target: SigTarget,
    diag: &mut Diagnosis,
) -> bool {
    step(
        diag,
        || format!("{} {} rrsig", set.name(), set.rtype()),
        |diag| rrset_link(set, trusted, caps, now, target, diag),
    )
    .is_some()
}

/// The DNSKEY → RRset link: holds when one signature by a trusted key
/// verifies, every trusted key a signature names tried; otherwise breaks
/// on the first signature's issue, or, when the verify budget ran out,
/// on the last failed verify's.
fn rrset_link(
    set: RrsetRef<'_>,
    trusted: &[PublishedKey],
    caps: &ValidatorCaps,
    now: u32,
    target: SigTarget,
    diag: &mut Diagnosis,
) -> Result<(), Broken> {
    if set.sigs().next().is_none() {
        return Err(bogus(Finding::RrsigMissing { target }));
    }
    let mut first_issue: Option<Finding> = None;
    let mut allowance = VERIFIES_PER_RRSET;
    for sig in set.sigs() {
        if let Some(status) = alg_status_for(sig.algorithm, caps) {
            first_issue.get_or_insert(Finding::ZoneAlgorithmUnsupported {
                status,
                algorithm: sig.algorithm,
            });
            continue;
        }
        if let Some(f) = window_finding(sig, now, target) {
            first_issue.get_or_insert(f);
            continue;
        }
        let mut named = trusted
            .iter()
            .filter(|k| k.tag == sig.key_tag && k.algorithm == sig.algorithm)
            .peekable();
        if named.peek().is_none() {
            first_issue.get_or_insert(Finding::RrsigKeyMissing { target });
            continue;
        }
        match first_verified(
            named.filter(|key| sig_names_key(sig, set, key, now)),
            &mut allowance,
            diag,
            |key| signature_holds(sig, set, key),
        ) {
            Ok(Some(_)) => return Ok(()),
            Ok(None) => {
                first_issue.get_or_insert(Finding::SignatureBogus { target });
            }
            Err(Exhausted) => return Err(bogus(Finding::SignatureBogus { target })),
        }
    }
    // Bogus even when every signature is in an algorithm this validator
    // lacks: an RRSIG's algorithm field is not signed, and only the
    // authenticated DS set makes a zone Insecure (RFC 4035 §5.2).
    Err((first_issue, ValidationState::Bogus))
}

/// The iteration cap (RFC 9276 / vendor limits) over the NSEC3 records
/// among `rdatas`, which holds before any of them is hashed.
fn iteration_cap_link<'r>(
    rdatas: impl Iterator<Item = &'r Rdata>,
    caps: &ValidatorCaps,
) -> Result<(), Broken> {
    let max_iter = rdatas
        .filter_map(|rdata| match rdata {
            Rdata::Nsec3 { iterations, .. } => Some(*iterations),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    if max_iter > caps.nsec3_iteration_cap {
        return Err(bogus(Finding::Nsec3IterationsExceeded {
            iterations: max_iter,
        }));
    }
    Ok(())
}

/// The NSEC3 RRsets of a section, read in place.
fn nsec3_sets(section: &[Record]) -> impl Iterator<Item = RrsetRef<'_>> {
    sets_in(section).filter(|s| s.rtype() == RrType::Nsec3)
}

/// The structure of a denial (RFC 5155 §8): do the NSEC3 RRsets of
/// `authority` deny (`qname`, `qtype`)? They are still unauthenticated,
/// and [`denial_sigs_link`] reads the same sets. NSEC3 is the only proof
/// read: a signed negative answer without one — plain NSEC records
/// included — carries no proof. Structure is checked before signatures:
/// a proof that points at the wrong hashes is a different observable
/// than a proof whose signatures are broken, and vendors report them
/// differently.
fn negative_link(
    authority: &[Record],
    qname: &Name,
    qtype: RrType,
    kind: NegativeKind,
    zone_apex: &Name,
    caps: &ValidatorCaps,
) -> Result<(), Broken> {
    let broken = |issue| bogus(Finding::DenialProofBroken { issue, kind });
    // NODATA (RFC 5155 §8.5): the matching record's bitmap lacks the
    // type asked for and CNAME, or the name would have an answer.
    let lacks_qtype = |set: RrsetRef<'_>| match set.rdatas().next() {
        Some(Rdata::Nsec3 { types, .. }) => {
            !types.contains(qtype) && !types.contains(RrType::Cname)
        }
        _ => false,
    };

    if nsec3_sets(authority).next().is_none() {
        let soa_signed = sets_in(authority)
            .find(|s| s.rtype() == RrType::Soa)
            .is_some_and(|s| s.sigs().next().is_some());
        return Err(if soa_signed {
            broken(DenialIssue::Absent)
        } else {
            bogus(Finding::NegativeUnsigned { kind })
        });
    }

    iteration_cap_link(
        nsec3_sets(authority).filter_map(|s| s.rdatas().next()),
        caps,
    )?;

    match kind {
        NegativeKind::Nodata => {
            if !nsec3_sets(authority).any(|s| nsec3::matches(s, qname) && lacks_qtype(s)) {
                return Err(broken(DenialIssue::OwnerMismatch));
            }
        }
        NegativeKind::Nxdomain => {
            // Closest encloser: walk qname's ancestors, up to the apex,
            // looking for a matching NSEC3. The name one label below it
            // on the way is the next closer name.
            let mut next_closer = qname.clone();
            let encloser = loop {
                let ancestor = next_closer.parent();
                let a = ancestor.ok_or_else(|| broken(DenialIssue::OwnerMismatch))?;
                if nsec3_sets(authority).any(|s| nsec3::matches(s, &a)) {
                    break a;
                }
                if a == *zone_apex {
                    return Err(broken(DenialIssue::OwnerMismatch));
                }
                next_closer = a;
            };
            // The next closer name must be covered, and so must the
            // wildcard at the closest encloser (§8.4), or the answer
            // could have been synthesized from it.
            let covered = |name: &Name| nsec3_sets(authority).any(|s| nsec3::covers(s, name));
            let wildcard = encloser.child("*");
            if !covered(&next_closer) || !wildcard.is_ok_and(|w| covered(&w)) {
                return Err(broken(DenialIssue::ChainMismatch));
            }
        }
    }
    Ok(())
}

/// The signature tail of a proof: every NSEC3 RRset of `authority` is
/// signed, and each carries a signature one trusted key verifies, within
/// its verify budget.
fn denial_sigs_link(
    authority: &[Record],
    kind: NegativeKind,
    trusted: &[PublishedKey],
    now: u32,
    diag: &mut Diagnosis,
) -> Result<(), Broken> {
    if nsec3_sets(authority).any(|set| set.sigs().next().is_none()) {
        return Err(bogus(Finding::DenialSigMissing { kind }));
    }
    for set in nsec3_sets(authority) {
        let mut allowance = VERIFIES_PER_RRSET;
        if !matches!(
            verified_sig(set, trusted, now, &mut allowance, diag),
            Ok(Some(_))
        ) {
            return Err(bogus(Finding::DenialSigBogus { kind }));
        }
    }
    Ok(())
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
        |diag| {
            negative_link(authority, qname, qtype, kind, zone_apex, caps)?;
            denial_sigs_link(authority, kind, trusted, now, diag)
        },
    );
}

/// Crossing a zone cut out of the signed zone `parent`, toward `child`.
/// A delegation with a DS RRset continues the chain, and the RRset is
/// authenticated with the parent's keys. One without leaves the chain
/// (Insecure), and a parent whose keys validated must prove that it
/// does with its NODATA proof for DS at the child (RFC 5155 §8.6,
/// §8.9), checked and authenticated as a negative answer's proof is.
/// A proof that is absent or denies something else is missing
/// (`InsecureReferralProofMissing`); the iteration cap and the
/// signatures report as they do for any denial. The verdict is
/// recorded without a `ValidationStep`.
#[allow(clippy::too_many_arguments)] // the cut's own inputs, plus the denial's
pub(crate) fn cut_link(
    authority: &[Record],
    parent: &Name,
    child: &Name,
    child_signed: bool,
    parent_keys: Option<&[PublishedKey]>,
    caps: &ValidatorCaps,
    now: u32,
    diag: &mut Diagnosis,
) {
    let Some(keys) = parent_keys else {
        if !child_signed {
            record(diag, (None, ValidationState::Insecure));
        }
        return;
    };
    if child_signed {
        // Authenticate the DS RRset itself.
        if let Some(ds_set) = sets_in(authority).find(|s| s.rtype() == RrType::Ds) {
            check_set(ds_set, keys, caps, now, SigTarget::Answer, diag);
        }
        return;
    }
    let kind = NegativeKind::Nodata;
    let proof = negative_link(authority, child, RrType::Ds, kind, parent, caps)
        .map_err(|broken| match broken {
            (Some(Finding::Nsec3IterationsExceeded { .. }), _) => broken,
            _ => bogus(Finding::InsecureReferralProofMissing),
        })
        .and_then(|()| denial_sigs_link(authority, kind, keys, now, diag));
    record(
        diag,
        proof.err().unwrap_or((None, ValidationState::Insecure)),
    );
}

/// An authoritative (or terminal) answer to `asked` from `zone`, whose
/// keys are `keys` — `None` when no chain of trust reaches the zone
/// (Insecure). Trusted keys verify every answer RRset, or the denial
/// proof of an empty answer; with keys that failed validation the
/// verdict is already in, and only the advisory key check runs.
pub(crate) fn answer_link(
    resp: &Message,
    asked: &Question,
    zone: &Name,
    keys: Option<&KeyEntry>,
    caps: &ValidatorCaps,
    now: u32,
    diag: &mut Diagnosis,
) {
    let Some(keys) = keys else {
        record(diag, (None, ValidationState::Insecure));
        return;
    };
    // Only validation reads the answer as RRsets, in place.
    let answer_sets = || sets_in(&resp.answers);
    let trusted = match &keys.keys {
        ChainKeys::Trusted(trusted) => trusted,
        ChainKeys::Bogus { published_tags } => {
            // Used by the Quad9 profile: do the answer's RRSIG key tags
            // exist among the zone's published keys at all? The chain
            // verdict was made at the DNSKEY link, so nothing degrades
            // here.
            for sig in answer_sets().flat_map(RrsetRef::sigs) {
                if !published_tags.contains(&sig.key_tag) {
                    diag.add(Finding::RrsigKeyMissing {
                        target: SigTarget::Answer,
                    });
                }
            }
            return;
        }
    };
    if answer_sets().next().is_none() {
        let kind = if resp.rcode == Rcode::NxDomain {
            NegativeKind::Nxdomain
        } else {
            NegativeKind::Nodata
        };
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
        return;
    }
    for set in answer_sets() {
        check_set(set, trusted, caps, now, SigTarget::Answer, diag);
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
        let ds = Misconfig::DsBadTag.parent_ds(&keys.ksk, &n("test.example"));
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
        assert!(diag.findings.iter().any(|f| matches!(
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
        let ds = Misconfig::DsBogusDigestValue.parent_ds(&keys.ksk, &n("test.example"));
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
        assert!(diag.findings.iter().any(|f| matches!(
            f,
            Finding::DsNoMatchingDnskey {
                cause: DsMismatch::Digest
            }
        )));
    }

    #[test]
    fn unassigned_ds_algorithm_is_insecure() {
        let (z, keys, _) = signed_zone();
        let ds = Misconfig::DsUnassignedKeyAlgo.parent_ds(&keys.ksk, &n("test.example"));
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
        assert!(diag.findings.iter().any(|f| matches!(
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
        assert!(diag.findings.iter().any(|f| matches!(
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
        assert!(diag.findings.iter().any(|f| matches!(
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
        assert!(diag
            .findings
            .iter()
            .any(|f| matches!(f, Finding::DnskeySigMissingByMatchedKey)));
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
        assert!(diag.findings.iter().any(|f| matches!(
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
        assert!(diag.findings.iter().any(|f| matches!(
            f,
            Finding::DnskeySigBogus {
                some_sig_valid: false,
                zsk_present: true
            }
        )));
    }

    /// The DS check digests each published key from its RDATA in place,
    /// streamed: a DS made by `ds_digest` over the written RDATA matches
    /// its key for every digest type, and one octet off matches none.
    #[test]
    fn the_ds_check_agrees_with_ds_digest() {
        use ede_zone::canonical::ds_digest;
        let (z, keys, _) = signed_zone();
        let apex = n("test.example");
        let dnskeys = z.get(&apex, RrType::Dnskey).unwrap();
        let published = keys_of(dnskeys.into());
        for digest_type in [1, 2, 3, 4, 8] {
            let rdata = keys.ksk.dnskey_rdata();
            let mut digest = ds_digest(&apex, &rdata, DigestAlg(digest_type));
            let ds = Rdata::Ds {
                key_tag: keys.ksk.key_tag(),
                algorithm: 8,
                digest_type,
                digest: digest.clone(),
            };
            let matched = ds_matched_key(
                &apex,
                &[&ds],
                dnskeys.into(),
                &published,
                &mut Diagnosis::new(),
            );
            assert_eq!(
                matched.map(|k| k.tag),
                Ok(keys.ksk.key_tag()),
                "type {digest_type}"
            );

            digest[0] ^= 1;
            let ds = Rdata::Ds {
                key_tag: keys.ksk.key_tag(),
                algorithm: 8,
                digest_type,
                digest,
            };
            let matched = ds_matched_key(
                &apex,
                &[&ds],
                dnskeys.into(),
                &published,
                &mut Diagnosis::new(),
            );
            assert_eq!(
                matched.map(|k| k.tag),
                Err(bogus(Finding::DsNoMatchingDnskey {
                    cause: DsMismatch::Digest
                })),
                "type {digest_type}"
            );
        }
    }

    #[test]
    fn a_section_groups_and_attaches_sigs() {
        let (z, _, _) = signed_zone();
        let a_set = z.get(&n("test.example"), RrType::A).unwrap();
        let mut records: Vec<Record> = a_set.records().collect();
        records.extend(a_set.sig_records());
        let sets: Vec<RrsetRef<'_>> = sets_in(&records).collect();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].rdatas().count(), 1);
        assert_eq!(sets[0].sigs().count(), 1);
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
        assert!(diag
            .findings
            .iter()
            .any(|f| matches!(f, Finding::StandbyKeyWithoutRrsig)));
        assert_eq!(diag.validation, ValidationState::Secure);
    }

    /// `count` DNSKEYs with `rdata`'s flags, algorithm and key tag but
    /// other secrets, so that none verifies what `rdata`'s key signed: one
    /// secret octet lowered by `d` and a padding octet of the same parity
    /// raised by `d`, which RFC 4034 Appendix B's sum of 16-bit words
    /// cannot tell apart.
    fn same_tag_keys(rdata: &Rdata, count: usize) -> Vec<Rdata> {
        let Rdata::Dnskey { public_key, .. } = rdata else {
            unreachable!("a DNSKEY")
        };
        let head = simsig::MIN_PUBKEY_LEN;
        let mut keys = Vec::with_capacity(count);
        for d in 1..=u8::MAX {
            for i in (4..head).filter(|&i| public_key[i] >= d) {
                if keys.len() == count {
                    return keys;
                }
                let mut rdata = rdata.clone();
                let Rdata::Dnskey { public_key, .. } = &mut rdata else {
                    unreachable!()
                };
                public_key[i] -= d;
                public_key[head + i % 2] += d;
                keys.push(rdata);
            }
        }
        keys
    }

    /// KeyTrap's shape (CVE-2023-50387) at each place a tag picks a key
    /// or a signature: 64 keys of one tag and 64 signatures that carry
    /// it, none of which verifies. Each reads Bogus, with the finding of
    /// its last failed verify, after `VERIFIES_PER_RRSET` verifies instead
    /// of 4 096; and once a resolution has spent `VERIFIES_PER_RESOLUTION`,
    /// even its honest RRsets read Bogus.
    #[test]
    fn many_keys_of_one_tag_times_many_signatures_stop_at_the_verify_budget() {
        let (z, keys, ds) = signed_zone();
        let apex = n("test.example");
        let bogus_sigs = |sig: &Rrsig| -> Vec<Rrsig> {
            (0..64u8)
                .map(|i| {
                    let mut sig = sig.clone();
                    sig.signature[0] ^= 0x80;
                    sig.signature[1] = i;
                    sig
                })
                .collect()
        };

        // An answer: 64 trusted keys with the ZSK's tag.
        let decoys: Vec<PublishedKey> = same_tag_keys(&keys.zsk.dnskey_rdata(), 64)
            .iter()
            .filter_map(|rdata| PublishedKey::of(&apex, rdata))
            .collect();
        assert_eq!(decoys.len(), 64);
        assert!(decoys.iter().all(|k| k.tag == keys.zsk.key_tag()));
        let honest = z.get(&apex, RrType::A).unwrap();
        let mut trap = honest.clone();
        trap.sigs = bogus_sigs(&honest.sigs[0]);
        let mut diag = Diagnosis::new();
        let answer = SigTarget::Answer;
        assert!(!check_rrset(
            &trap,
            &decoys,
            &caps(),
            SIM_NOW,
            answer,
            &mut diag
        ));
        assert_eq!(diag.findings, [Finding::SignatureBogus { target: answer }]);
        assert_eq!(diag.validation, ValidationState::Bogus);
        assert_eq!(diag.verifies, VERIFIES_PER_RRSET);
        for _ in 0..64 {
            check_rrset(&trap, &decoys, &caps(), SIM_NOW, answer, &mut diag);
        }
        assert_eq!(diag.verifies, VERIFIES_PER_RESOLUTION);
        let trusted = validate_dnskey(
            &apex,
            &ds,
            &dnskey_rrset(&z),
            &caps(),
            SIM_NOW,
            &mut Diagnosis::new(),
        )
        .trusted
        .expect("the honest keys validate");
        assert!(check_rrset(
            honest,
            &trusted,
            &caps(),
            SIM_NOW,
            answer,
            &mut Diagnosis::new()
        ));
        assert!(!check_rrset(
            honest,
            &trusted,
            &caps(),
            SIM_NOW,
            answer,
            &mut diag
        ));

        // A DNSKEY set of 64 keys with the KSK's tag, the KSK first, and
        // 64 signatures with its tag: the DS matches at once, and the
        // signatures run out the budget.
        let ksk = keys.ksk.dnskey_rdata();
        let mut set = dnskey_rrset(&z);
        set.rdatas = [ksk.clone()]
            .into_iter()
            .chain(same_tag_keys(&ksk, 63))
            .collect();
        set.sigs = bogus_sigs(&set.sigs[0]);
        let mut diag = Diagnosis::new();
        let v = validate_dnskey(&apex, &ds, &set, &caps(), SIM_NOW, &mut diag);
        assert!(v.trusted.is_none());
        let sig_bogus = Finding::DnskeySigBogus {
            zsk_present: false,
            some_sig_valid: false,
        };
        assert_eq!(diag.findings, [sig_bogus]);
        assert_eq!(diag.verifies, 1 + VERIFIES_PER_RRSET);

        // The same keys with the KSK last: the DS digests run it out.
        set.rdatas.rotate_left(1);
        let mut diag = Diagnosis::new();
        let v = validate_dnskey(&apex, &ds, &set, &caps(), SIM_NOW, &mut diag);
        assert!(v.trusted.is_none());
        let no_match = Finding::DsNoMatchingDnskey {
            cause: DsMismatch::Digest,
        };
        assert_eq!(diag.findings, [no_match]);
        assert_eq!(diag.verifies, VERIFIES_PER_RRSET);
    }

    /// An insecure referral from `test.example` to `child.test.example`:
    /// the parent's trusted keys, the child, and the referral's authority
    /// section — the NS set and the child's NSEC3 under `iterations`,
    /// whose bitmap lacks DS, signed by `signer` when there is one.
    fn insecure_referral(
        iterations: u16,
        signer: Option<&ede_zone::ZoneKey>,
    ) -> (Vec<PublishedKey>, Name, Vec<Record>) {
        use ede_crypto::nsec3hash;
        use ede_wire::rdata::TypeBitmap;
        use ede_zone::signer::sign_rrset;
        let (z, _, ds) = signed_zone();
        let parent = n("test.example");
        let trusted = validate_dnskey(
            &parent,
            &ds,
            &dnskey_rrset(&z),
            &caps(),
            SIM_NOW,
            &mut Diagnosis::new(),
        )
        .trusted
        .expect("chain should validate");
        let child = n("child.test.example");
        let salt = [0xab];
        let label = nsec3hash::nsec3_hash_label(child.as_wire(), &salt, iterations);
        let mut proof = Rrset::new(
            parent.child_bytes(&label).unwrap(),
            3600,
            Rdata::Nsec3 {
                hash_alg: nsec3hash::NSEC3_HASH_ALG_SHA1,
                flags: 0,
                iterations,
                salt: salt.into(),
                next_hashed: (&[0xff; nsec3hash::NSEC3_HASH_LEN]).into(),
                types: TypeBitmap::from_types([RrType::Ns]),
            },
        );
        if let Some(key) = signer {
            let window = SignerConfig::default().window();
            proof.sigs.push(sign_rrset(&proof, key, &parent, window));
        }
        let mut authority = vec![Record::new(
            child.clone(),
            3600,
            Rdata::Ns(n("ns1.child.test.example")),
        )];
        authority.extend(proof.records().chain(proof.sig_records()));
        (trusted, child, authority)
    }

    /// `cut_link` over the insecure referral [`insecure_referral`] builds.
    fn cross_insecure_cut(iterations: u16, signer: Option<&ede_zone::ZoneKey>) -> Diagnosis {
        let (trusted, child, authority) = insecure_referral(iterations, signer);
        let mut diag = Diagnosis::new();
        let parent = n("test.example");
        let caps = caps();
        cut_link(
            &authority,
            &parent,
            &child,
            false,
            Some(&trusted),
            &caps,
            SIM_NOW,
            &mut diag,
        );
        diag
    }

    /// An insecure referral's NSEC3 that asks for 65 535 iterations is
    /// refused at the cap, as a denial's would be, before it is hashed:
    /// the record is otherwise an honest proof (its owner is the child's
    /// hash under those parameters, and its bitmap lacks DS), so without
    /// the cap it would be hashed 65 535 times over.
    #[test]
    fn insecure_referral_proof_over_the_iteration_cap_is_refused() {
        let diag = cross_insecure_cut(u16::MAX, None);
        assert!(diag.findings.iter().any(|f| matches!(
            f,
            Finding::Nsec3IterationsExceeded {
                iterations: u16::MAX
            }
        )));
        assert_eq!(diag.validation, ValidationState::Bogus);
    }

    /// The parent's proof that a delegation is insecure is a denial like
    /// any other (RFC 5155 §8.9): the same honest record, at 0
    /// iterations but unsigned, proves nothing.
    #[test]
    fn an_unsigned_insecure_referral_proof_is_bogus() {
        let diag = cross_insecure_cut(0, None);
        let missing = Finding::DenialSigMissing {
            kind: NegativeKind::Nodata,
        };
        assert_eq!(diag.findings, [missing]);
        assert_eq!(diag.validation, ValidationState::Bogus);
    }

    /// Only the parent's keys authenticate its proof: signed by a key of
    /// another zone, the record proves nothing; signed by the parent's
    /// ZSK, it rules the child Insecure.
    #[test]
    fn an_insecure_referral_proof_signed_by_another_key_is_bogus() {
        let stranger = ZoneKeys::generate(&n("stranger.example"), 8, 2048);
        let diag = cross_insecure_cut(0, Some(&stranger.zsk));
        let bogus = Finding::DenialSigBogus {
            kind: NegativeKind::Nodata,
        };
        assert_eq!(diag.findings, [bogus]);
        assert_eq!(diag.validation, ValidationState::Bogus);

        let (_, keys, _) = signed_zone();
        let diag = cross_insecure_cut(0, Some(&keys.zsk));
        assert!(diag.findings.is_empty(), "{:?}", diag.findings);
        assert_eq!(diag.validation, ValidationState::Insecure);
    }

    /// A signed negative answer whose only proof is plain NSEC (RFC 4034
    /// §4) has no proof the validator reads: the NSEC below is honest and
    /// signed by the zone's ZSK, yet the answer is Bogus with the proof
    /// absent, exactly as if the authority section held the SOA alone.
    #[test]
    fn a_signed_negative_answer_with_only_nsec_records_has_no_proof() {
        use ede_wire::rdata::TypeBitmap;
        use ede_zone::signer::sign_rrset;
        let (z, keys, ds) = signed_zone();
        let apex = n("test.example");
        let mut diag = Diagnosis::new();
        let trusted = validate_dnskey(&apex, &ds, &dnskey_rrset(&z), &caps(), SIM_NOW, &mut diag)
            .trusted
            .expect("chain should validate");
        let mut nsec = Rrset::new(
            apex.clone(),
            300,
            Rdata::Nsec {
                next: n("ns1.test.example"),
                types: TypeBitmap::from_types([
                    RrType::A,
                    RrType::Ns,
                    RrType::Soa,
                    RrType::Rrsig,
                    RrType::Nsec,
                    RrType::Dnskey,
                ]),
            },
        );
        let window = SignerConfig::default().window();
        nsec.sigs.push(sign_rrset(&nsec, &keys.zsk, &apex, window));
        let soa = z.get(&apex, RrType::Soa).unwrap();
        assert!(!soa.sigs.is_empty());
        let authority: Vec<Record> = soa
            .records()
            .chain(soa.sig_records())
            .chain(nsec.records())
            .chain(nsec.sig_records())
            .collect();

        check_negative(
            &authority,
            &apex,
            RrType::Txt,
            NegativeKind::Nodata,
            &apex,
            &trusted,
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        assert!(diag.findings.iter().any(|f| matches!(
            f,
            Finding::DenialProofBroken {
                issue: DenialIssue::Absent,
                ..
            }
        )));
        assert_eq!(diag.validation, ValidationState::Bogus);
    }

    /// A NODATA proof whose matching NSEC3 lists CNAME proves nothing
    /// (RFC 5155 §8.5): the name has a CNAME, so the type asked for is
    /// not absent. The record below matches the name, lacks the type and
    /// is signed by the zone's ZSK, and the answer is still Bogus with
    /// the proof broken at its owner.
    #[test]
    fn a_nodata_proof_whose_bitmap_lists_cname_is_broken() {
        use ede_crypto::nsec3hash;
        use ede_wire::rdata::TypeBitmap;
        use ede_zone::signer::sign_rrset;
        let (z, keys, ds) = signed_zone();
        let apex = n("test.example");
        let mut diag = Diagnosis::new();
        let trusted = validate_dnskey(&apex, &ds, &dnskey_rrset(&z), &caps(), SIM_NOW, &mut diag)
            .trusted
            .expect("chain should validate");
        let alias = n("alias.test.example");
        let (salt, iterations) = ([0xab, 0xcd], 0);
        let label = nsec3hash::nsec3_hash_label(alias.as_wire(), &salt, iterations);
        let mut nsec3 = Rrset::new(
            apex.child_bytes(&label).unwrap(),
            300,
            Rdata::Nsec3 {
                hash_alg: nsec3hash::NSEC3_HASH_ALG_SHA1,
                flags: 0,
                iterations,
                salt: salt.into(),
                next_hashed: (&[0xff; nsec3hash::NSEC3_HASH_LEN]).into(),
                types: TypeBitmap::from_types([RrType::Cname, RrType::Rrsig]),
            },
        );
        let window = SignerConfig::default().window();
        nsec3
            .sigs
            .push(sign_rrset(&nsec3, &keys.zsk, &apex, window));
        let soa = z.get(&apex, RrType::Soa).unwrap();
        let authority: Vec<Record> = soa
            .records()
            .chain(soa.sig_records())
            .chain(nsec3.records())
            .chain(nsec3.sig_records())
            .collect();

        check_negative(
            &authority,
            &alias,
            RrType::Txt,
            NegativeKind::Nodata,
            &apex,
            &trusted,
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        assert!(diag.findings.iter().any(|f| matches!(
            f,
            Finding::DenialProofBroken {
                issue: DenialIssue::OwnerMismatch,
                kind: NegativeKind::Nodata,
            }
        )));
        assert_eq!(diag.validation, ValidationState::Bogus);
    }

    /// An NXDOMAIN proof must also cover the wildcard at the closest
    /// encloser (RFC 5155 §8.4), or the name could have been synthesized
    /// from it. Below, one NSEC3 matches the closest encloser (the apex)
    /// and another covers the next closer name, both narrow and signed
    /// by the zone's ZSK, and neither covers `*.test.example`: the
    /// answer is Bogus with the chain broken.
    #[test]
    fn an_nxdomain_proof_without_the_wildcard_cover_is_broken() {
        use ede_crypto::nsec3hash::{self, NSEC3_HASH_LEN};
        use ede_wire::rdata::TypeBitmap;
        use ede_zone::signer::sign_rrset;
        let (z, keys, ds) = signed_zone();
        let apex = n("test.example");
        let mut diag = Diagnosis::new();
        let trusted = validate_dnskey(&apex, &ds, &dnskey_rrset(&z), &caps(), SIM_NOW, &mut diag)
            .trusted
            .expect("chain should validate");
        let qname = n("missing.test.example");
        let (salt, iterations) = ([0xab, 0xcd], 0);
        let hash = |name: &Name| nsec3hash::nsec3_hash(name.as_wire(), &salt, iterations);
        // `h` one up or one down, as a 160-bit big-endian integer.
        let step_by = |mut h: [u8; NSEC3_HASH_LEN], up: bool| {
            for byte in h.iter_mut().rev() {
                let (next, carry) = if up {
                    byte.overflowing_add(1)
                } else {
                    byte.overflowing_sub(1)
                };
                *byte = next;
                if !carry {
                    break;
                }
            }
            h
        };
        let window = SignerConfig::default().window();
        let mut authority = Vec::new();
        let soa = z.get(&apex, RrType::Soa).unwrap();
        authority.extend(soa.records().chain(soa.sig_records()));
        // The apex's own record, and one whose interval holds only the
        // next closer name's hash.
        for (owner, next) in [
            (hash(&apex), step_by(hash(&apex), true)),
            (step_by(hash(&qname), false), step_by(hash(&qname), true)),
        ] {
            let mut nsec3 = Rrset::new(
                apex.child_bytes(&nsec3hash::nsec3_label(&owner)).unwrap(),
                300,
                Rdata::Nsec3 {
                    hash_alg: nsec3hash::NSEC3_HASH_ALG_SHA1,
                    flags: 0,
                    iterations,
                    salt: salt.into(),
                    next_hashed: (&next).into(),
                    types: TypeBitmap::from_types([RrType::A, RrType::Rrsig]),
                },
            );
            nsec3
                .sigs
                .push(sign_rrset(&nsec3, &keys.zsk, &apex, window));
            authority.extend(nsec3.records().chain(nsec3.sig_records()));
        }

        check_negative(
            &authority,
            &qname,
            RrType::A,
            NegativeKind::Nxdomain,
            &apex,
            &trusted,
            &caps(),
            SIM_NOW,
            &mut diag,
        );
        assert!(diag.findings.iter().any(|f| matches!(
            f,
            Finding::DenialProofBroken {
                issue: DenialIssue::ChainMismatch,
                kind: NegativeKind::Nxdomain,
            }
        )));
        assert_eq!(diag.validation, ValidationState::Bogus);
    }
}
