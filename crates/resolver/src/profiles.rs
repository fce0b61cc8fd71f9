//! Vendor profiles: capability sets and EDE emission rules for the seven
//! systems the paper tests.
//!
//! A profile has two halves:
//!
//! * [`ValidatorCaps`] — which algorithms/digests the vendor's validator
//!   can use, its minimum key size, and its NSEC3 iteration cap. These
//!   feed *into* validation (Cloudflare treats an Ed448-signed zone as
//!   insecure because it cannot validate it; Knot validates it fine).
//! * **emission rules** mapping a [`Diagnosis`] to the EDE entries the
//!   vendor attaches: the paper's Table 4 (and §4.2 for the codes only
//!   the wild scan exercises) as data. `shape_of` gives each [`Finding`]
//!   the bit of the *shape* some vendor tells apart, a diagnosis is the
//!   OR of its findings' shapes, and a vendor is an ordered table of
//!   `(shapes, entry)` rows of which `first_match` — the one function
//!   that walks a table — takes the first that intersects: position is
//!   priority. Where two vendors map the same finding to different
//!   codes — the paper's 94 %-disagreement result — one shape name
//!   stands in two tables beside two codes.
//!
//! Four things are not "any of these shapes ⇒ this entry" and are code:
//! the cache codes (3, 19, 13) accompany the table's entry instead of
//! competing with it, and BIND 9.19.9 — its DNSSEC EDEs still on the
//! roadmap at measurement time (§2) — has the two stale ones and an
//! empty table; Cloudflare emits combinations, the rest of which is
//! `cloudflare_tail`; Quad9 has one rule that needs two findings at
//! once and OpenDNS one that reads a nameserver event, each folded into
//! a derived shape by `shapes_of`. Entry order in the output is part of
//! the contract: scan records hash their codes unsorted.

use crate::diagnosis::{
    AlgStatus, DenialIssue, Diagnosis, DsMismatch, Finding, NegativeKind, NsEvent, NsFailure,
    SigTarget,
};
use ede_wire::{EdeCode, EdeEntry};
use std::collections::BTreeSet;

/// What a vendor's validator is capable of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidatorCaps {
    /// Supported DNSSEC signing algorithm numbers.
    pub algorithms: BTreeSet<u8>,
    /// Supported DS digest types.
    pub digests: BTreeSet<u8>,
    /// Keys below this modeled size trigger *unsupported key size*.
    pub min_key_bits: u16,
    /// NSEC3 iteration cap before refusing to hash.
    pub nsec3_iteration_cap: u16,
}

impl ValidatorCaps {
    /// Everything a modern open-source validator supports (including
    /// Ed448; GOST and the deprecated RSA/MD5 & DSA family excluded —
    /// RFC 8624 forbids validating with those).
    pub fn full() -> Self {
        ValidatorCaps {
            algorithms: [5, 7, 8, 10, 13, 14, 15, 16].into(),
            digests: [1, 2, 4].into(),
            min_key_bits: 0,
            nsec3_iteration_cap: 150,
        }
    }

    /// Cloudflare's capabilities at measurement time: no Ed448 (§3.3),
    /// no GOST (§4.2.7/§4.2.10), and a minimum key size (§4.2.7).
    pub fn cloudflare() -> Self {
        ValidatorCaps {
            algorithms: [5, 7, 8, 10, 13, 14, 15].into(),
            digests: [1, 2, 4].into(),
            min_key_bits: 1024,
            nsec3_iteration_cap: 150,
        }
    }
}

/// The seven tested systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Vendor {
    /// BIND 9.19.9.
    Bind9,
    /// Unbound 1.16.2.
    Unbound,
    /// PowerDNS Recursor 4.8.2.
    PowerDns,
    /// Knot Resolver 5.6.0.
    Knot,
    /// Cloudflare DNS (1.1.1.1).
    Cloudflare,
    /// Quad9 (9.9.9.9).
    Quad9,
    /// OpenDNS / Cisco Umbrella.
    OpenDns,
}

impl Vendor {
    /// All seven, in the paper's Table 4 column order.
    pub const ALL: [Vendor; 7] = [
        Vendor::Bind9,
        Vendor::Unbound,
        Vendor::PowerDns,
        Vendor::Knot,
        Vendor::Cloudflare,
        Vendor::Quad9,
        Vendor::OpenDns,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Vendor::Bind9 => "BIND 9.19.9",
            Vendor::Unbound => "Unbound 1.16.2",
            Vendor::PowerDns => "PowerDNS 4.8.2",
            Vendor::Knot => "Knot 5.6.0",
            Vendor::Cloudflare => "Cloudflare DNS",
            Vendor::Quad9 => "Quad9",
            Vendor::OpenDns => "OpenDNS",
        }
    }
}

/// Parses, ignoring ASCII case, a short name (`bind9`, `unbound`,
/// `powerdns`, `knot`, `cloudflare`, `quad9`, `opendns` — also the
/// `Debug` names the JSONL traces carry), an alias (`bind`, `pdns`,
/// `cf`) or a display name ([`Vendor::name`]).
impl std::str::FromStr for Vendor {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "bind9" | "bind" => Vendor::Bind9,
            "unbound" => Vendor::Unbound,
            "powerdns" | "pdns" => Vendor::PowerDns,
            "knot" => Vendor::Knot,
            "cloudflare" | "cf" => Vendor::Cloudflare,
            "quad9" => Vendor::Quad9,
            "opendns" => Vendor::OpenDns,
            _ => Vendor::ALL
                .into_iter()
                .find(|v| v.name().eq_ignore_ascii_case(s))
                .ok_or_else(|| {
                    format!(
                        "unknown vendor {s:?}; known: bind9, unbound, powerdns, knot, \
                         cloudflare, quad9, opendns"
                    )
                })?,
        })
    }
}

/// A vendor profile: caps + emission rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VendorProfile {
    /// Which vendor this is.
    pub vendor: Vendor,
    /// Validation capabilities.
    pub caps: ValidatorCaps,
}

impl VendorProfile {
    /// Profile for a vendor, with that vendor's capability set.
    pub fn new(vendor: Vendor) -> Self {
        let caps = match vendor {
            Vendor::Cloudflare => ValidatorCaps::cloudflare(),
            _ => ValidatorCaps::full(),
        };
        VendorProfile { vendor, caps }
    }

    /// All seven profiles in Table 4 order.
    pub fn all() -> Vec<VendorProfile> {
        Vendor::ALL.into_iter().map(VendorProfile::new).collect()
    }

    /// Map a diagnosis to the EDE entries this vendor attaches.
    pub fn emit(&self, diag: &Diagnosis) -> Vec<EdeEntry> {
        let shapes = shapes_of(diag);
        let table = self.table();
        let entry = first_match(table, shapes).map(|row| match table[row].1 {
            Emit::Code(code) => bare(code),
            Emit::Text(code, text) => EdeEntry::with_text(EdeCode::from_u16(code), text),
        });
        let mut out = Vec::new();
        match self.vendor {
            // Serve-stale only: 9.19.9 has no Cached Error either.
            Vendor::Bind9 => cache_codes(shapes & !CACHED_ERROR, &mut out),
            Vendor::Unbound | Vendor::PowerDns | Vendor::Knot => {
                cache_codes(shapes, &mut out);
                out.extend(entry);
            }
            Vendor::Cloudflare => {
                out.extend(entry);
                cloudflare_tail(diag, shapes, &mut out);
            }
            Vendor::Quad9 | Vendor::OpenDns => out.extend(entry),
        }
        out
    }

    /// Index of the row of this vendor's table that decides `diag`, or
    /// the table's length when no row matches — so the empty diagnosis
    /// tells a test how many rows there are to cover.
    #[doc(hidden)]
    pub fn winning_row(&self, diag: &Diagnosis) -> usize {
        let table = self.table();
        first_match(table, shapes_of(diag)).unwrap_or(table.len())
    }

    fn table(&self) -> &'static [Rule] {
        match self.vendor {
            Vendor::Bind9 => BIND,
            Vendor::Unbound => UNBOUND,
            Vendor::PowerDns => POWERDNS,
            Vendor::Knot => KNOT,
            Vendor::Cloudflare => CLOUDFLARE,
            Vendor::Quad9 => QUAD9,
            Vendor::OpenDns => OPENDNS,
        }
    }
}

// ---------------------------------------------------------------------------
// Shapes
// ---------------------------------------------------------------------------

const ALL_SERVERS_FAILED: u64 = 1 << 0;
const DS_ALG_RESERVED: u64 = 1 << 1;
const DS_ALG_UNASSIGNED: u64 = 1 << 2;
const DS_ALG_OTHER: u64 = 1 << 3;
const DS_DIGEST: u64 = 1 << 4;
const DS_NO_KEY_TAG: u64 = 1 << 5;
const DS_NO_KEY_DIGEST: u64 = 1 << 6;
const DNSKEY_UNOBTAINABLE: u64 = 1 << 7;
const DNSKEY_KSK_SIG_MISSING: u64 = 1 << 8;
const DNSKEY_UNSIGNED: u64 = 1 << 9;
const DNSKEY_BOGUS: u64 = 1 << 10;
const DNSKEY_BOGUS_ZSK_PRESENT: u64 = 1 << 11;
const DNSKEY_BOGUS_SOME_VALID: u64 = 1 << 12;
const DNSKEY_EXPIRED: u64 = 1 << 13;
const DNSKEY_NOT_YET: u64 = 1 << 14;
const DNSKEY_INVERTED: u64 = 1 << 15;
const NO_ZONE_KEY: u64 = 1 << 16;
const STANDBY_KEY: u64 = 1 << 17;
const KEY_SIZE: u64 = 1 << 18;
const ZONE_ALG_DEPRECATED: u64 = 1 << 19;
const ZONE_ALG_OTHER: u64 = 1 << 20;
const ANSWER_UNSIGNED: u64 = 1 << 21;
const ANSWER_EXPIRED: u64 = 1 << 22;
const ANSWER_NOT_YET: u64 = 1 << 23;
const ANSWER_INVERTED: u64 = 1 << 24;
const ANSWER_KEY_MISSING: u64 = 1 << 25;
/// A bogus signature over any RRset; no vendor looks at which.
const SIG_BOGUS: u64 = 1 << 26;
const PROOF_ABSENT_NODATA: u64 = 1 << 27;
const PROOF_ABSENT_NXDOMAIN: u64 = 1 << 28;
const PROOF_OWNER: u64 = 1 << 29;
const PROOF_CHAIN: u64 = 1 << 30;
const DENIAL_UNSIGNED: u64 = 1 << 31;
const DENIAL_BOGUS: u64 = 1 << 32;
const NEGATIVE_UNSIGNED_NODATA: u64 = 1 << 33;
const NEGATIVE_UNSIGNED_NXDOMAIN: u64 = 1 << 34;
const REFERRAL_PROOF_MISSING: u64 = 1 << 35;
const NSEC3_ITERATIONS: u64 = 1 << 36;
const STALE_ANSWER: u64 = 1 << 37;
const STALE_NXDOMAIN: u64 = 1 << 38;
const CACHED_ERROR: u64 = 1 << 39;
/// Derived: the answer's RRSIG names a key tag that is gone while the
/// bogus DNSKEY RRset still publishes a zone-key ZSK.
const ANSWER_KEY_MISSING_ZSK_PRESENT: u64 = 1 << 40;
/// Derived: some nameserver answered REFUSED.
const NS_REFUSED: u64 = 1 << 41;

const DS_ALG: u64 = DS_ALG_RESERVED | DS_ALG_UNASSIGNED | DS_ALG_OTHER;
const DS_NO_KEY: u64 = DS_NO_KEY_TAG | DS_NO_KEY_DIGEST;
const DNSKEY_SIG_MISSING: u64 = DNSKEY_KSK_SIG_MISSING | DNSKEY_UNSIGNED;
const ZONE_ALG: u64 = ZONE_ALG_DEPRECATED | ZONE_ALG_OTHER;
const PROOF_ABSENT: u64 = PROOF_ABSENT_NODATA | PROOF_ABSENT_NXDOMAIN;
const PROOF: u64 = PROOF_ABSENT | PROOF_OWNER | PROOF_CHAIN;
const NEGATIVE_UNSIGNED: u64 = NEGATIVE_UNSIGNED_NODATA | NEGATIVE_UNSIGNED_NXDOMAIN;

/// The shape of one finding: the distinctions some vendor's rules draw,
/// and no others (0 when no vendor reports the finding at all).
fn shape_of(finding: &Finding) -> u64 {
    let by_target = |target, answer, dnskey| match target {
        SigTarget::Answer => answer,
        SigTarget::Dnskey => dnskey,
        SigTarget::Denial => 0,
    };
    let by_kind = |kind, nodata, nxdomain| match kind {
        NegativeKind::Nodata => nodata,
        NegativeKind::Nxdomain => nxdomain,
    };
    let when = |flag, shape| if flag { shape } else { 0 };
    match *finding {
        Finding::AllServersFailed { .. } => ALL_SERVERS_FAILED,
        Finding::DsUnknownAlgorithm { status, .. } => match status {
            AlgStatus::Reserved => DS_ALG_RESERVED,
            AlgStatus::Unassigned => DS_ALG_UNASSIGNED,
            AlgStatus::UnsupportedAssigned | AlgStatus::Deprecated => DS_ALG_OTHER,
        },
        Finding::DsUnsupportedDigest { .. } => DS_DIGEST,
        Finding::DsNoMatchingDnskey { cause } => match cause {
            DsMismatch::TagOrAlgorithm => DS_NO_KEY_TAG,
            DsMismatch::Digest => DS_NO_KEY_DIGEST,
        },
        Finding::DnskeyUnobtainable { .. } => DNSKEY_UNOBTAINABLE,
        Finding::DnskeySigMissingByMatchedKey => DNSKEY_KSK_SIG_MISSING,
        Finding::DnskeyAllSigsMissing => DNSKEY_UNSIGNED,
        Finding::DnskeySigBogus {
            zsk_present,
            some_sig_valid,
        } => {
            DNSKEY_BOGUS
                | when(zsk_present, DNSKEY_BOGUS_ZSK_PRESENT)
                | when(some_sig_valid, DNSKEY_BOGUS_SOME_VALID)
        }
        Finding::NoZoneKeyBitSet => NO_ZONE_KEY,
        Finding::StandbyKeyWithoutRrsig => STANDBY_KEY,
        Finding::UnsupportedKeySize { .. } => KEY_SIZE,
        Finding::ZoneAlgorithmUnsupported { status, .. } => match status {
            AlgStatus::Deprecated => ZONE_ALG_DEPRECATED,
            AlgStatus::UnsupportedAssigned | AlgStatus::Unassigned | AlgStatus::Reserved => {
                ZONE_ALG_OTHER
            }
        },
        Finding::RrsigMissing { target } => by_target(target, ANSWER_UNSIGNED, 0),
        Finding::SignatureExpired { target } => by_target(target, ANSWER_EXPIRED, DNSKEY_EXPIRED),
        Finding::SignatureNotYetValid { target } => {
            by_target(target, ANSWER_NOT_YET, DNSKEY_NOT_YET)
        }
        Finding::SignatureExpiredBeforeValid { target } => {
            by_target(target, ANSWER_INVERTED, DNSKEY_INVERTED)
        }
        Finding::SignatureBogus { .. } => SIG_BOGUS,
        Finding::RrsigKeyMissing { target } => by_target(target, ANSWER_KEY_MISSING, 0),
        Finding::DenialProofBroken { issue, kind } => match issue {
            DenialIssue::Absent => by_kind(kind, PROOF_ABSENT_NODATA, PROOF_ABSENT_NXDOMAIN),
            DenialIssue::OwnerMismatch => PROOF_OWNER,
            DenialIssue::ChainMismatch => PROOF_CHAIN,
        },
        Finding::DenialSigMissing { .. } => DENIAL_UNSIGNED,
        Finding::DenialSigBogus { .. } => DENIAL_BOGUS,
        Finding::NegativeUnsigned { kind } => {
            by_kind(kind, NEGATIVE_UNSIGNED_NODATA, NEGATIVE_UNSIGNED_NXDOMAIN)
        }
        Finding::InsecureReferralProofMissing => REFERRAL_PROOF_MISSING,
        Finding::Nsec3IterationsExceeded { .. } => NSEC3_ITERATIONS,
        Finding::ServedStale { nxdomain: false } => STALE_ANSWER,
        Finding::ServedStale { nxdomain: true } => STALE_NXDOMAIN,
        Finding::CachedError => CACHED_ERROR,
        // Cloudflare's tail reads the server address off the finding
        // itself.
        Finding::EdnsNotSupported { .. } => 0,
    }
}

/// Every shape present in a diagnosis, the two derived ones included.
fn shapes_of(diag: &Diagnosis) -> u64 {
    let mut shapes = diag.findings.iter().fold(0, |acc, f| acc | shape_of(f));
    if shapes & ANSWER_KEY_MISSING != 0 && shapes & DNSKEY_BOGUS_ZSK_PRESENT != 0 {
        shapes |= ANSWER_KEY_MISSING_ZSK_PRESENT;
    }
    let refused = |e: &NsEvent| e.failure == NsFailure::Refused;
    if diag.ns_events.iter().any(refused) {
        shapes |= NS_REFUSED;
    }
    shapes
}

// ---------------------------------------------------------------------------
// Rule tables: Table 4, one column each
// ---------------------------------------------------------------------------

/// What a matching row attaches.
enum Emit {
    /// A bare INFO-CODE.
    Code(u16),
    /// An INFO-CODE with fixed EXTRA-TEXT.
    Text(u16, &'static str),
}
use Emit::{Code, Text};

/// Any of these shapes present ⇒ this entry, unless an earlier row won.
type Rule = (u64, Emit);

/// Index of the first row whose shapes intersect `shapes`.
fn first_match(table: &[Rule], shapes: u64) -> Option<usize> {
    table.iter().position(|(any_of, _)| shapes & any_of != 0)
}

/// BIND 9.19.9: no DNSSEC EDEs yet — the column is all `None`.
const BIND: &[Rule] = &[];

/// Unbound 1.16.2: full DNSSEC coverage, one (most specific) code.
const UNBOUND: &[Rule] = &[
    (
        DS_NO_KEY | DNSKEY_BOGUS | DNSKEY_NOT_YET | DNSKEY_INVERTED,
        Code(9),
    ),
    (DNSKEY_EXPIRED, Code(7)),
    (
        DNSKEY_SIG_MISSING | ANSWER_UNSIGNED | NEGATIVE_UNSIGNED,
        Code(10),
    ),
    (
        ANSWER_EXPIRED | ANSWER_NOT_YET | ANSWER_INVERTED | SIG_BOGUS,
        Code(6),
    ),
    (PROOF_ABSENT, Code(12)),
    (PROOF, Code(6)),
    (DENIAL_UNSIGNED, Code(12)),
    (DENIAL_BOGUS, Code(6)),
    // Shadowed by construction: an answer's RRSIG names a missing key
    // only beside the DNSKEY-level finding that removed it, which the
    // first row takes. Kept as the transcription of Unbound's own
    // mapping (`val_sigcrypt.c`: "signatures from unknown keys" is
    // DNSKEY Missing).
    (ANSWER_KEY_MISSING, Code(9)),
];

/// PowerDNS Recursor 4.8.2.
const POWERDNS: &[Rule] = &[
    (NO_ZONE_KEY, Code(10)),
    (DS_NO_KEY | DNSKEY_KSK_SIG_MISSING, Code(9)),
    (DNSKEY_UNSIGNED, Code(10)),
    (DNSKEY_BOGUS, Code(6)),
    (DNSKEY_EXPIRED | DNSKEY_INVERTED, Code(7)),
    (DNSKEY_NOT_YET, Code(8)),
    (NEGATIVE_UNSIGNED | ANSWER_UNSIGNED, Code(10)),
    (ANSWER_EXPIRED | ANSWER_INVERTED, Code(7)),
    (ANSWER_NOT_YET, Code(8)),
    (SIG_BOGUS, Code(6)),
];

const KNOT_LSLC: &str = "LSLC: unsupported digest/key";

/// Knot Resolver 5.6.0.
const KNOT: &[Rule] = &[
    (NO_ZONE_KEY, Code(10)),
    (DS_ALG | DS_DIGEST | ZONE_ALG_DEPRECATED, Text(0, KNOT_LSLC)),
    (DNSKEY_UNSIGNED, Code(10)),
    (DS_NO_KEY | DNSKEY_KSK_SIG_MISSING | DNSKEY_BOGUS, Code(6)),
    (DNSKEY_EXPIRED | DNSKEY_INVERTED, Code(7)),
    (DNSKEY_NOT_YET, Code(8)),
    (NEGATIVE_UNSIGNED | ANSWER_UNSIGNED, Code(10)),
    (PROOF_ABSENT, Code(12)),
    (PROOF, Code(6)),
    (DENIAL_UNSIGNED, Code(10)),
    (DENIAL_BOGUS | SIG_BOGUS, Code(6)),
];

/// Cloudflare DNS — the most specific implementation. This is the
/// first entry of a combination; `cloudflare_tail` has the rest.
const CLOUDFLARE: &[Rule] = &[
    (DS_DIGEST, Code(2)),
    (DS_ALG_RESERVED, Text(1, "no supported DNSKEY algorithm")),
    (DS_ALG_UNASSIGNED, Code(9)),
    (ZONE_ALG, Text(1, "no supported DNSKEY algorithm")),
    (KEY_SIZE, Text(1, "unsupported key size")),
    (DS_NO_KEY_TAG, Code(9)),
    (DS_NO_KEY_DIGEST, Code(6)),
    (DNSKEY_UNOBTAINABLE, Code(9)),
    (DNSKEY_INVERTED, Code(10)),
    (DNSKEY_EXPIRED, Code(7)),
    (DNSKEY_NOT_YET, Code(8)),
    (DNSKEY_BOGUS, Code(6)),
    (
        DNSKEY_SIG_MISSING | NEGATIVE_UNSIGNED | ANSWER_UNSIGNED,
        Code(10),
    ),
    (ANSWER_EXPIRED | ANSWER_INVERTED, Code(7)),
    (ANSWER_NOT_YET, Code(8)),
    (SIG_BOGUS, Code(6)),
    // Shadowed like Unbound's: `DNSKEY_BOGUS` or `DS_NO_KEY_*` above
    // always wins. Transcribes the "Extended DNS error codes" reference
    // of the 1.1.1.1 documentation, where 9 keeps its RFC 8914 §4.10
    // meaning: the key a signature needs is not in the DNSKEY RRset.
    (ANSWER_KEY_MISSING, Code(9)),
    (PROOF | DENIAL_UNSIGNED | DENIAL_BOGUS, Code(6)),
    (
        REFERRAL_PROOF_MISSING,
        Text(12, "failed to verify an insecure referral proof"),
    ),
    (NSEC3_ITERATIONS, Text(0, "iteration limit exceeded")),
    // NOERROR + EDE: key rollover in progress / stand-by key (§4.2.3).
    (STANDBY_KEY, Code(10)),
];

/// Quad9.
const QUAD9: &[Rule] = &[
    (NO_ZONE_KEY, Code(10)),
    (DNSKEY_BOGUS_SOME_VALID, Code(6)),
    // A zone-key ZSK is still published and the answer's RRSIG points
    // at a tag that no longer exists: Quad9 reports generic bogus.
    (ANSWER_KEY_MISSING_ZSK_PRESENT, Code(6)),
    (
        DS_NO_KEY | DNSKEY_BOGUS | DNSKEY_SIG_MISSING | DNSKEY_NOT_YET | DNSKEY_INVERTED,
        Code(9),
    ),
    (DNSKEY_EXPIRED, Code(7)),
    (ANSWER_UNSIGNED, Code(10)),
    (ANSWER_EXPIRED, Code(6)),
    (ANSWER_NOT_YET, Code(8)),
    (ANSWER_INVERTED, Code(7)),
    (NEGATIVE_UNSIGNED_NODATA, Code(9)),
    (NEGATIVE_UNSIGNED_NXDOMAIN, Code(10)),
    (PROOF_ABSENT_NODATA, Code(9)),
    (PROOF_OWNER | PROOF_CHAIN, Code(6)),
    (DENIAL_UNSIGNED, Code(9)),
    (SIG_BOGUS, Code(6)),
];

/// OpenDNS.
const OPENDNS: &[Rule] = &[
    (
        DS_NO_KEY
            | DS_ALG
            | DNSKEY_BOGUS
            | DNSKEY_SIG_MISSING
            | NO_ZONE_KEY
            | DNSKEY_EXPIRED
            | DNSKEY_NOT_YET
            | DNSKEY_INVERTED,
        Code(6),
    ),
    (ANSWER_EXPIRED | ANSWER_INVERTED, Code(7)),
    (ANSWER_NOT_YET, Code(8)),
    (SIG_BOGUS, Code(6)),
    (PROOF_ABSENT | PROOF_OWNER | DENIAL_UNSIGNED, Code(12)),
    (PROOF_CHAIN | DENIAL_BOGUS | NEGATIVE_UNSIGNED, Code(6)),
    // The paper's "unexpected in this context" observation (§3.3):
    // OpenDNS answers Prohibited (18) when authorities refuse it.
    (NS_REFUSED, Code(18)),
];

// ---------------------------------------------------------------------------
// What the tables cannot say
// ---------------------------------------------------------------------------

fn bare(code: u16) -> EdeEntry {
    EdeEntry::bare(EdeCode::from_u16(code))
}

/// Stale Answer, Stale NXDOMAIN Answer, Cached Error: each stands for
/// its own finding and none displaces another entry.
fn cache_codes(shapes: u64, out: &mut Vec<EdeEntry>) {
    for (shape, code) in [(STALE_ANSWER, 3), (STALE_NXDOMAIN, 19), (CACHED_ERROR, 13)] {
        if shapes & shape != 0 {
            out.push(bare(code));
        }
    }
}

/// Everything Cloudflare attaches after its table's entry.
fn cloudflare_tail(diag: &Diagnosis, shapes: u64, out: &mut Vec<EdeEntry>) {
    // Invalid Data (24): EDNS-oblivious servers (§4.2.6).
    let oblivious = diag.findings.iter().find_map(|f| match f {
        Finding::EdnsNotSupported { addr } => Some(addr),
        _ => None,
    });
    if let Some(addr) = oblivious {
        out.push(EdeEntry::with_text(
            EdeCode::InvalidData,
            format!("Mismatched question from the authoritative server {addr}"),
        ));
    }

    cache_codes(shapes, out);

    // Connectivity: 22 when the whole NS set failed; 23 with the
    // offending server in EXTRA-TEXT only for *spoken* failures (an
    // RCODE arrived). Timeouts and unroutable glue stay silent on 23 —
    // §4.2.11 shows unresponsive-nameserver stale answers carrying
    // {3, 22} without a Network Error.
    if shapes & ALL_SERVERS_FAILED != 0 {
        out.push(bare(22));
    }
    if let Some(ev) = diag.ns_events.iter().find(|e| e.failure.is_rcode_failure()) {
        out.push(EdeEntry::with_text(
            EdeCode::NetworkError,
            format!(
                "{}:53 {} for {} {}",
                ev.addr, ev.failure, ev.qname, ev.qtype
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnosis::NsEvent;
    use ede_wire::{Name, RrType};

    fn diag_with(findings: Vec<Finding>) -> Diagnosis {
        let mut d = Diagnosis::new();
        for f in findings {
            d.add(f);
        }
        d
    }

    fn codes(entries: &[EdeEntry]) -> Vec<u16> {
        entries.iter().map(|e| e.code.to_u16()).collect()
    }

    #[test]
    fn bind_ignores_dnssec_findings() {
        let d = diag_with(vec![Finding::DsNoMatchingDnskey {
            cause: DsMismatch::TagOrAlgorithm,
        }]);
        assert!(VendorProfile::new(Vendor::Bind9).emit(&d).is_empty());
    }

    #[test]
    fn bind_emits_stale() {
        let d = diag_with(vec![Finding::ServedStale { nxdomain: false }]);
        assert_eq!(codes(&VendorProfile::new(Vendor::Bind9).emit(&d)), vec![3]);
        let d = diag_with(vec![Finding::ServedStale { nxdomain: true }]);
        assert_eq!(codes(&VendorProfile::new(Vendor::Bind9).emit(&d)), vec![19]);
    }

    #[test]
    fn vendors_disagree_on_ds_mismatch() {
        // The ds-bad-tag row of Table 4: None/9/9/6/9/9/6.
        let d = diag_with(vec![Finding::DsNoMatchingDnskey {
            cause: DsMismatch::TagOrAlgorithm,
        }]);
        let got: Vec<Vec<u16>> = VendorProfile::all()
            .iter()
            .map(|p| codes(&p.emit(&d)))
            .collect();
        assert_eq!(
            got,
            vec![vec![], vec![9], vec![9], vec![6], vec![9], vec![9], vec![6]]
        );
    }

    #[test]
    fn cloudflare_combines_connectivity_codes() {
        let mut d = diag_with(vec![
            Finding::DnskeyUnobtainable {
                failure: NsFailure::Refused,
            },
            Finding::AllServersFailed {
                any_rcode_failure: true,
            },
        ]);
        d.add_event(NsEvent {
            addr: "192.0.2.1".parse().unwrap(),
            failure: NsFailure::Refused,
            qname: Name::parse("x.example").unwrap(),
            qtype: RrType::A,
        });
        let entries = VendorProfile::new(Vendor::Cloudflare).emit(&d);
        assert_eq!(codes(&entries), vec![9, 22, 23]);
        let net = entries.last().unwrap();
        assert!(net.extra_text.contains("rcode=REFUSED"));
        assert!(net.extra_text.contains("192.0.2.1:53"));
    }

    #[test]
    fn cloudflare_silent_on_unroutable_network_error() {
        // Bad-glue testbed rows: only 22, never 23.
        let mut d = diag_with(vec![Finding::AllServersFailed {
            any_rcode_failure: false,
        }]);
        d.add_event(NsEvent {
            addr: "10.0.0.1".parse().unwrap(),
            failure: NsFailure::Unroutable,
            qname: Name::parse("x.example").unwrap(),
            qtype: RrType::A,
        });
        assert_eq!(
            codes(&VendorProfile::new(Vendor::Cloudflare).emit(&d)),
            vec![22]
        );
    }

    #[test]
    fn opendns_prohibited_on_refusal() {
        let mut d = Diagnosis::new();
        d.add(Finding::AllServersFailed {
            any_rcode_failure: true,
        });
        d.add_event(NsEvent {
            addr: "192.0.2.1".parse().unwrap(),
            failure: NsFailure::Refused,
            qname: Name::parse("x.example").unwrap(),
            qtype: RrType::A,
        });
        assert_eq!(
            codes(&VendorProfile::new(Vendor::OpenDns).emit(&d)),
            vec![18]
        );
    }

    #[test]
    fn quad9_distinguishes_dnskey_bogus_shapes() {
        // bad-rrsig-ksk: a valid non-KSK signature exists → 6.
        let d = diag_with(vec![Finding::DnskeySigBogus {
            zsk_present: true,
            some_sig_valid: true,
        }]);
        assert_eq!(codes(&VendorProfile::new(Vendor::Quad9).emit(&d)), vec![6]);

        // bad-rrsig-dnskey: nothing verifies, ZSK present, answer tag OK → 9.
        let d = diag_with(vec![Finding::DnskeySigBogus {
            zsk_present: true,
            some_sig_valid: false,
        }]);
        assert_eq!(codes(&VendorProfile::new(Vendor::Quad9).emit(&d)), vec![9]);

        // bad-zsk: nothing verifies AND the answer references a gone tag → 6.
        let d = diag_with(vec![
            Finding::DnskeySigBogus {
                zsk_present: true,
                some_sig_valid: false,
            },
            Finding::RrsigKeyMissing {
                target: SigTarget::Answer,
            },
        ]);
        assert_eq!(codes(&VendorProfile::new(Vendor::Quad9).emit(&d)), vec![6]);

        // no-zsk: no ZSK at all → 9.
        let d = diag_with(vec![
            Finding::DnskeySigBogus {
                zsk_present: false,
                some_sig_valid: false,
            },
            Finding::RrsigKeyMissing {
                target: SigTarget::Answer,
            },
        ]);
        assert_eq!(codes(&VendorProfile::new(Vendor::Quad9).emit(&d)), vec![9]);
    }

    #[test]
    fn cloudflare_caps_lack_ed448() {
        assert!(!ValidatorCaps::cloudflare().algorithms.contains(&16));
        assert!(ValidatorCaps::full().algorithms.contains(&16));
    }

    #[test]
    fn knot_lslc_text() {
        let d = diag_with(vec![Finding::DsUnknownAlgorithm {
            status: AlgStatus::Unassigned,
            algorithm: 100,
        }]);
        let entries = VendorProfile::new(Vendor::Knot).emit(&d);
        assert_eq!(codes(&entries), vec![0]);
        assert_eq!(entries[0].extra_text, KNOT_LSLC);
    }

    // `fn shapes() -> Vec<Finding>`: the 61 instantiations
    // `tests/emission_pin.rs` enumerates.
    include!("../tests/common/shapes.rs");

    /// `shape_of`, the rule tables and `explain_finding` are three
    /// exhaustive accounts of `Finding` that must agree: every bit
    /// `shape_of` can return is read by something (a table row,
    /// `cache_codes`, `cloudflare_tail`, or a derived shape) — no orphan
    /// bit — and two findings some vendor tells apart are explained to
    /// the operator in different words.
    #[test]
    fn shapes_tables_and_explanations_agree() {
        let rows = Vendor::ALL
            .into_iter()
            .flat_map(|v| VendorProfile::new(v).table())
            .fold(0, |acc, (any_of, _)| acc | any_of);
        let beside_the_tables = STALE_ANSWER | STALE_NXDOMAIN | CACHED_ERROR // cache_codes
            | ALL_SERVERS_FAILED // cloudflare_tail
            | DNSKEY_BOGUS_ZSK_PRESENT; // feeds ANSWER_KEY_MISSING_ZSK_PRESENT
        let shapes = shapes();
        assert_eq!(shapes.len(), 61);
        let mut returned = 0;
        for f in &shapes {
            let shape = shape_of(f);
            let orphans = shape & !(rows | beside_the_tables);
            assert_eq!(orphans, 0, "{f:?}: bit(s) {orphans:#x} nothing reads");
            returned |= shape;
            assert!(!crate::explain::explain_finding(f).is_empty(), "{f:?}");
        }
        // Conversely, every primitive bit a row names is one `shape_of`
        // returns: the derived two are all that is left over.
        assert_eq!(
            rows & !returned,
            ANSWER_KEY_MISSING_ZSK_PRESENT | NS_REFUSED
        );
        for (i, f) in shapes.iter().enumerate() {
            for g in &shapes[i + 1..] {
                if shape_of(f) != shape_of(g) {
                    assert_ne!(
                        crate::explain::explain_finding(f),
                        crate::explain::explain_finding(g),
                        "{f:?} and {g:?} differ in shape but not in explanation"
                    );
                }
            }
        }
    }
}
