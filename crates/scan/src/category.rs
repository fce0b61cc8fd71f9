//! The scan's planted categories, one row each.
//!
//! Everything the scan knows about a [`Category`] lives in its [`Row`]
//! of [`ROWS`]: its name, §4.2's count per 303 M domains, where its
//! nameservers and its TLD are drawn, and how its zone is signed,
//! broken and hosted. [`Population::generate`] plants the rows in table
//! order, and the scan world ([`crate::world`]) builds and serves each
//! domain from its row; neither names a category. The testbed keeps its
//! 63 cases the same way, one `ede_testbed::domains::DomainSpec` each.
//!
//! [`Population::generate`]: crate::population::Population::generate

use ede_authority::Behavior;
use ede_wire::{DigestAlg, Name, Rdata, SecAlg};
use ede_zone::signer::{SignerConfig, DAY, DEFAULT_WINDOW, SIM_NOW};
use ede_zone::{Denial, Misconfig, Nsec3Config, ZoneKey, ZoneKeys};

/// What is wrong (or right) with one planted domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Correctly served, unsigned.
    HealthyUnsigned,
    /// Correctly served and DNSSEC-signed.
    HealthySigned,
    /// Every nameserver answers REFUSED (or SERVFAIL) — the dominant
    /// lame-delegation mode (§4.2.1/2 → EDE 22+23).
    LameRcode,
    /// Every nameserver is silent or the glue is unroutable (→ 22 only).
    LameSilent,
    /// One nameserver is broken but another answers (→ 23 on NOERROR).
    PartialBroken,
    /// Lives under a TLD publishing a stand-by KSK (§4.2.3 → EDE 10 on
    /// NOERROR).
    StandbyTldMember,
    /// Signed, but the DS does not match any DNSKEY (§4.2.4 → EDE 9).
    DsMismatch,
    /// Signed and entirely unreachable (§4.2.4's "accompanied by 22"
    /// flavor → 9+22+23).
    UnreachableSigned,
    /// Signed, no apex A, and broken denial-of-existence (§4.2.5 → 6).
    BrokenDenial,
    /// Nameservers predate EDNS (§4.2.6 → 24).
    NoEdns,
    /// Zone signed with an algorithm Cloudflare lacks (GOST) (§4.2.7 → 1).
    UnsupportedAlgGost,
    /// Zone signed with a deprecated algorithm (DSA) (§4.2.7 → 1).
    UnsupportedAlgDsa,
    /// Zone keys are 512-bit (§4.2.7 "unsupported key size" → 1).
    SmallKey,
    /// All RRSIGs expired (§4.2.8 → 7).
    SigExpired,
    /// Unsigned delegation whose (signed) parent fails to prove DS
    /// absence (§4.2.9 → 12).
    InsecureProofBroken,
    /// DS uses the GOST digest type (§4.2.10 → 2).
    GostDigest,
    /// DS uses an unassigned digest type (8) (§4.2.10 → 2).
    UnassignedDigest,
    /// Server answers once then starts refusing — revisits serve stale
    /// (§4.2.11 → 3 [+22, +23]).
    StaleFlapRefuse,
    /// Server answers once then goes silent (§4.2.11 → 3+22).
    StaleFlapDrop,
    /// All RRSIGs not yet valid (§4.2.12 → 8).
    SigNotYetValid,
    /// Nameservers answer NOTAUTH; the second probe hits the failure
    /// cache (§4.2.13 → 13).
    NotAuthCached,
    /// NSEC3 iteration count above any validator cap (§4.2.14 → 0,
    /// "iteration limit exceeded").
    IterationLimit,
}

/// How many domains of a category are planted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Count {
    /// §4.2's count per 303 M domains, scaled by
    /// [`PopulationConfig::scaled`](crate::population::PopulationConfig::scaled).
    Paper(u64),
    /// This share of the healthy fill: the domains left once every
    /// `Paper` row is planted, drawn one by one.
    Share(f64),
}

/// Where a domain's nameservers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NsDraw {
    /// One server of the healthy hosting pool.
    Healthy,
    /// One broken-pool server that answers (REFUSED or SERVFAIL).
    BrokenSpeaking,
    /// One broken-pool server that never answers.
    BrokenSilent,
    /// A speaking broken-pool server, asked first, then a healthy one.
    BrokenThenHealthy,
}

/// Which TLD a domain is registered under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TldPlacement {
    /// Any ordinary TLD, drawn by size. Ordinary means neither a
    /// stand-by-key nor a broken-proof TLD: everything under those
    /// inherits their condition, so they host only their own rows.
    Any,
    /// Any ordinary TLD but §4.3's clean ones, which host no
    /// misconfigured domain, drawn by size.
    NotClean,
    /// The two stand-by-KSK ccTLDs, in turn (§4.2.3).
    Standby,
    /// The gTLDs that lose insecure-referral proofs, in turn (§4.2.9).
    BrokenProof,
}

/// The DS set a signed domain's parent publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsForm {
    /// The KSK's DS under this digest type.
    Digest(DigestAlg),
    /// The DS the parent publishes under this testbed mutation.
    Mutated(Misconfig),
}

/// How a domain's hosting server answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hosting {
    /// The same way on every query.
    Steady(Behavior),
    /// Normally until it has answered its apex A once, then as given
    /// (§4.2.11's flap).
    Flaps(Behavior),
}

/// Everything the scan knows about one category.
#[derive(Debug, Clone)]
pub struct Row {
    /// The category.
    pub category: Category,
    /// Its stable name (the variant's), as the query-log JSONL schema
    /// writes it.
    pub name: &'static str,
    /// How many domains are planted.
    pub count: Count,
    /// Where its nameservers come from.
    pub ns: NsDraw,
    /// Which TLD it is registered under.
    pub tld: TldPlacement,
    /// The zone is DNSSEC-signed. The columns from `key` to `mutation`
    /// apply only then.
    pub signed: bool,
    /// The scanner probes it a second time (after the flap, or with a
    /// warm failure cache).
    pub revisit: bool,
    /// Algorithm and modeled size in bits of both zone keys.
    pub key: (SecAlg, u16),
    /// The DS set the parent publishes.
    pub ds: DsForm,
    /// Every RRSIG's (inception, expiration).
    pub window: (u32, u32),
    /// NSEC3 iterations and salt, where not `Nsec3Config::default()`.
    pub nsec3: Option<(u16, &'static [u8])>,
    /// Applied to the zone after signing.
    pub mutation: Option<Misconfig>,
    /// The apex carries an A record.
    pub apex_a: bool,
    /// How its hosting server answers.
    pub hosting: Hosting,
}

impl Row {
    /// The zone keys of the domain at `apex`, derived from its name.
    pub fn keys(&self, apex: &Name) -> ZoneKeys {
        ZoneKeys::generate(apex, self.key.0 .0, self.key.1)
    }

    /// The ZSK of [`Row::keys`] alone, for a reply that needs no other.
    pub fn zsk(&self, apex: &Name) -> ZoneKey {
        ZoneKey::zsk(apex, self.key.0 .0, self.key.1)
    }

    /// The DS RDATA(s) the parent publishes for the domain at `apex`:
    /// none when it is unsigned.
    pub fn parent_ds(&self, apex: &Name) -> Vec<Rdata> {
        if !self.signed {
            return Vec::new();
        }
        // The KSK of `keys` alone: a DS needs no other.
        let ksk = ZoneKey::ksk(apex, self.key.0 .0, self.key.1);
        match self.ds {
            DsForm::Digest(digest) => vec![ksk.ds_rdata(apex, digest)],
            DsForm::Mutated(misconfig) => misconfig.parent_ds(&ksk, apex),
        }
    }

    /// How the zone is signed: its window and its NSEC3 chain.
    pub fn signer_config(&self) -> SignerConfig {
        let nsec3 = match self.nsec3 {
            Some((iterations, salt)) => Nsec3Config {
                iterations,
                salt: salt.into(),
            },
            None => Nsec3Config::default(),
        };
        SignerConfig {
            inception: self.window.0,
            expiration: self.window.1,
            denial: Denial::Nsec3(nsec3),
        }
    }
}

// §4.2.2: |22| = 13,965,865 and |23| = 11,647,551 with |22 ∪ 23| ≈
// 14.8 M ⇒ |22 ∩ 23| ≈ 10.8 M.
const LAME_22_23: u64 = 10_817_000;
const LAME_22_ONLY: u64 = 13_965_865 - LAME_22_23;
const LAME_23_ONLY: u64 = 11_647_551 - LAME_22_23;
// §4.2.4: 296,643 domains with code 9, two fifths of them the flavor
// "accompanied by 22", whose nameservers are lame.
const DS_9_LAME: u64 = 296_643 * 2 / 5;
const DS_9_LIVE: u64 = 296_643 - DS_9_LAME;

/// The category of every domain under §4.3's fully misconfigured TLDs,
/// which are planted after the rows.
pub(crate) const FULLY_BROKEN_TLD_MEMBER: Category = Category::LameRcode;

/// A row's columns where it does not set them: an unsigned, well-served
/// domain on a healthy nameserver under a TLD that is not clean.
const UNSET: Row = Row {
    category: Category::HealthyUnsigned,
    name: "",
    count: Count::Paper(0),
    ns: NsDraw::Healthy,
    tld: TldPlacement::NotClean,
    signed: false,
    revisit: false,
    key: (SecAlg::RSASHA256, 2048),
    ds: DsForm::Digest(DigestAlg::SHA256),
    window: DEFAULT_WINDOW,
    nsec3: None,
    mutation: None,
    apex_a: true,
    hosting: Hosting::Steady(Behavior::Normal),
};

/// `row!(Variant, count, column: value, …)`: the row of
/// `Category::Variant`, named after it, with the columns given and the
/// rest [`UNSET`].
macro_rules! row {
    ($category:ident, $count:expr $(, $column:ident: $value:expr)* $(,)?) => {
        Row {
            category: Category::$category,
            name: stringify!($category),
            count: $count,
            $($column: $value,)*
            ..UNSET
        }
    };
}

/// Every category's row, in planting order: the paper's counts first,
/// then the healthy fill.
pub static ROWS: [Row; 22] = {
    use Count::{Paper, Share};
    use Hosting::{Flaps, Steady};
    [
        row!(LameRcode, Paper(LAME_22_23), ns: NsDraw::BrokenSpeaking),
        row!(LameSilent, Paper(LAME_22_ONLY), ns: NsDraw::BrokenSilent),
        row!(PartialBroken, Paper(LAME_23_ONLY), ns: NsDraw::BrokenThenHealthy),
        row!(StandbyTldMember, Paper(2_746_604), tld: TldPlacement::Standby, signed: true),
        row!(DsMismatch, Paper(DS_9_LIVE), signed: true, ds: DsForm::Mutated(Misconfig::DsBadTag)),
        row!(UnreachableSigned, Paper(DS_9_LAME), ns: NsDraw::BrokenSpeaking, signed: true),
        row!(BrokenDenial, Paper(82_465), signed: true,
            mutation: Some(Misconfig::BadNsec3Next), apex_a: false),
        row!(NoEdns, Paper(12_268), hosting: Steady(Behavior::NoEdns)),
        // §4.2.7's 8,751 domains split across GOST, prohibited
        // algorithms, and undersized keys.
        row!(UnsupportedAlgGost, Paper(5_800), signed: true, key: (SecAlg::ECC_GOST, 2048)),
        row!(UnsupportedAlgDsa, Paper(1_500), signed: true, key: (SecAlg::DSA, 1024)),
        row!(SmallKey, Paper(1_451), signed: true, key: (SecAlg::RSASHA1, 512)),
        row!(SigExpired, Paper(2_877), signed: true,
            window: (SIM_NOW - 400 * DAY, SIM_NOW - 300 * DAY)),
        row!(InsecureProofBroken, Paper(1_980), tld: TldPlacement::BrokenProof),
        row!(GostDigest, Paper(54), signed: true, ds: DsForm::Digest(DigestAlg::GOST)),
        row!(UnassignedDigest, Paper(8), signed: true, ds: DsForm::Digest(DigestAlg(8))),
        row!(StaleFlapRefuse, Paper(20), revisit: true, hosting: Flaps(Behavior::RefuseAll)),
        row!(StaleFlapDrop, Paper(12), revisit: true, hosting: Flaps(Behavior::Timeout)),
        // §4.2.12: signatures valid starting 2045.
        row!(SigNotYetValid, Paper(29), signed: true,
            window: (SIM_NOW + 8000 * DAY, SIM_NOW + 8400 * DAY)),
        row!(NotAuthCached, Paper(8), revisit: true, hosting: Steady(Behavior::NotAuthAll)),
        row!(IterationLimit, Paper(7), signed: true, nsec3: Some((2000, &[0xab])),
            apex_a: false),
        // The healthy fill, ~15 % of it signed, matching global DNSSEC
        // deployment levels.
        row!(HealthySigned, Share(0.15), tld: TldPlacement::Any, signed: true),
        row!(HealthyUnsigned, Share(0.85), tld: TldPlacement::Any),
    ]
};

/// Each category's index in [`ROWS`], by declaration order. Building it
/// fails to compile unless every category has exactly one row.
const ROW_OF: [u8; ROWS.len()] = {
    let mut row_of = [u8::MAX; ROWS.len()];
    let mut i = 0;
    while i < ROWS.len() {
        let slot = ROWS[i].category as usize;
        assert!(row_of[slot] == u8::MAX, "a category has two rows");
        row_of[slot] = i as u8;
        i += 1;
    }
    row_of
};

impl Category {
    /// Every category, in declaration (and `Ord`) order.
    pub const ALL: [Category; ROWS.len()] = {
        let mut all = [Category::HealthyUnsigned; ROWS.len()];
        let mut i = 0;
        while i < ROWS.len() {
            all[i] = ROWS[ROW_OF[i] as usize].category;
            i += 1;
        }
        all
    };

    /// This category's row.
    pub fn row(self) -> &'static Row {
        &ROWS[usize::from(ROW_OF[self as usize])]
    }

    /// The stable name of this category (its variant name) — used by
    /// the query-log JSONL schema.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Parse a category from its [`name`](Category::name).
    pub fn parse(s: &str) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.name() == s)
    }

    /// True when the scanner should probe this domain a second time
    /// (after the flap / with a warm failure cache).
    pub fn needs_revisit(self) -> bool {
        self.row().revisit
    }

    /// True when the domain's zone is DNSSEC-signed.
    pub fn signed(self) -> bool {
        self.row().signed
    }
}
