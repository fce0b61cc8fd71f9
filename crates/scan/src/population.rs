//! Synthetic registered-domain population with calibrated planting.
//!
//! What is planted, and how many of each, is the category table
//! ([`crate::category::ROWS`]): §4.2's counts per 303 M domains, scaled
//! by [`PopulationConfig::scaled`], with each row's nameserver draw and
//! TLD placement. This module supplies what the rows draw from: the
//! TLDs with §4.3's per-TLD concentration, the hosting pools, and the
//! Tranco ranks. The generator plants *root causes*; the scanner later
//! measures what EDE codes those causes produce through the full
//! resolution pipeline.

pub use crate::category::Category;
use crate::category::{Count, NsDraw, TldPlacement, FULLY_BROKEN_TLD_MEMBER, ROWS};
use crate::rng::{SplitMix64, WeightedIndex};
use ede_authority::Behavior;
use ede_wire::name::MAX_LABEL_LEN;
use ede_wire::Name;
use std::net::Ipv4Addr;
use std::num::NonZeroU32;
use std::sync::Arc;

/// One TLD of the population.
#[derive(Debug, Clone)]
pub struct TldInfo {
    /// The TLD name.
    pub name: Name,
    /// ccTLD (true) or gTLD (false).
    pub cc: bool,
    /// Publishes a stand-by KSK (§4.2.3).
    pub standby_key: bool,
    /// Fails to include NSEC3 proofs on insecure referrals (§4.2.9).
    pub broken_insecure_proof: bool,
    /// Index of this TLD's server address.
    pub server_index: usize,
}

/// One domain of the input list.
#[derive(Debug, Clone)]
pub struct DomainRecord {
    /// Fully qualified registered name.
    pub name: Name,
    /// Index into [`Population::tlds`] (`usize::from(d.tld)`).
    pub tld: u16,
    /// Planted condition.
    pub category: Category,
    /// Addresses of the domain's nameservers (hosting-pool addresses).
    pub ns_addrs: NsAddrs,
    /// Tranco-style popularity rank, if the domain is in the scaled top
    /// list. Ranks count from 1, so a record holds one in 4 bytes.
    pub rank: Option<NonZeroU32>,
}

/// A domain's one or two nameserver addresses, held inline: a domain
/// record owns no heap block for them. Reads as the `[Ipv4Addr]` it
/// holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NsAddrs {
    /// The addresses; past `len`, unused and always `0.0.0.0`.
    addrs: [Ipv4Addr; 2],
    len: u8,
}

impl NsAddrs {
    /// One nameserver.
    pub fn one(addr: Ipv4Addr) -> Self {
        NsAddrs {
            addrs: [addr, Ipv4Addr::UNSPECIFIED],
            len: 1,
        }
    }

    /// Two nameservers, asked in this order.
    pub fn two(first: Ipv4Addr, second: Ipv4Addr) -> Self {
        NsAddrs {
            addrs: [first, second],
            len: 2,
        }
    }
}

impl std::ops::Deref for NsAddrs {
    type Target = [Ipv4Addr];

    fn deref(&self) -> &[Ipv4Addr] {
        &self.addrs[..usize::from(self.len)]
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Scale divisor relative to the paper's 303 M (1000 → 303 k).
    pub scale: u32,
    /// RNG seed: same seed, same population.
    pub seed: u64,
    /// Number of gTLDs.
    pub gtlds: usize,
    /// Number of ccTLDs.
    pub cctlds: usize,
    /// Size of the scaled Tranco list.
    pub tranco_size: u32,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            scale: 1000,
            seed: 0xEDE_2023,
            gtlds: 1150,
            cctlds: 325,
            tranco_size: 1000,
        }
    }
}

impl PopulationConfig {
    /// A small config for unit/integration tests.
    pub fn tiny() -> Self {
        PopulationConfig {
            scale: 100_000,
            gtlds: 40,
            cctlds: 12,
            tranco_size: 50,
            ..Default::default()
        }
    }

    /// Scale a paper count (per 303 M) down, keeping at least 1 when the
    /// original is nonzero, and keeping counts under 100 at their
    /// absolute value so rare phenomena stay visible (documented in
    /// EXPERIMENTS.md).
    pub fn scaled(&self, paper_count: u64) -> usize {
        if paper_count == 0 {
            return 0;
        }
        if paper_count < 100 {
            return paper_count as usize;
        }
        ((paper_count + u64::from(self.scale) / 2) / u64::from(self.scale)).max(1) as usize
    }
}

/// The generated population.
pub struct Population {
    /// Generator configuration.
    pub config: PopulationConfig,
    /// All TLDs.
    pub tlds: Vec<TldInfo>,
    /// All domains, in randomized scan order: the only copy of each, in
    /// the one buffer the generator filled, exactly sized. The scan
    /// world's registry indexes it (shared, not cloned), and a domain's
    /// position in it is its index everywhere.
    pub domains: Arc<Vec<DomainRecord>>,
    /// Addresses of the healthy hosting pool.
    pub healthy_ns: Vec<Ipv4Addr>,
    /// Addresses of the broken hosting pool (lame nameservers).
    pub broken_ns: Vec<Ipv4Addr>,
}

/// Where the silent segment of a broken pool of `total` servers starts:
/// the servers before it speak (REFUSED, then SERVFAIL), it and the
/// rest never answer.
fn silent_start(total: usize) -> usize {
    total * 95 / 100
}

/// How broken nameserver `i` out of `total` misbehaves: a deterministic
/// function of the address index, so the generator and the world
/// builder agree without communicating. The segments follow §4.2.2's
/// breakdown of 293 k broken nameservers: 267 k REFUSED, 21 k SERVFAIL,
/// 15 k silent.
pub fn broken_mode(i: usize, total: usize) -> Behavior {
    // 267/303 ≈ 88 % REFUSED, 21/303 ≈ 7 % SERVFAIL, rest silent.
    if i < total * 88 / 100 {
        Behavior::RefuseAll
    } else if i < silent_start(total) {
        Behavior::ServfailAll
    } else {
        Behavior::Timeout
    }
}

/// Allocate the i-th address of a /8-sized pool rooted at `base`.
fn pool_addr(base: u8, i: usize) -> Ipv4Addr {
    Ipv4Addr::new(base, (i >> 16) as u8, (i >> 8) as u8, i as u8)
}

/// Address of the i-th healthy hosting server.
pub fn healthy_addr(i: usize) -> Ipv4Addr {
    pool_addr(13, i)
}

/// Address of the i-th broken hosting server.
pub fn broken_addr(i: usize) -> Ipv4Addr {
    pool_addr(23, i)
}

/// Address of the i-th TLD server.
pub fn tld_addr(i: usize) -> Ipv4Addr {
    pool_addr(33, i)
}

/// How many fully-broken tiny TLDs there are (§4.3): the last 11 gTLDs
/// and the last 2 ccTLDs.
const FULLY_BROKEN_TLDS: usize = 13;

/// How a population numbers its domains. A serial is a domain's position
/// before the scan-order shuffle, and its label spells it: `d{serial:07}`,
/// or `fb{k:02}x{j:05}` for serial `total + k·per_tld + j` in the
/// fully-broken tail. Written and read back here, stored nowhere.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Serials {
    /// Planted domains, before the tail.
    total: usize,
    /// Domains per fully-broken TLD.
    per_tld: usize,
}

impl Serials {
    /// The numbering of the population `config` generates.
    pub(crate) fn of(config: &PopulationConfig) -> Serials {
        let tail = config.scaled(108_000).max(FULLY_BROKEN_TLDS);
        Serials {
            total: config.scaled(303_000_000),
            per_tld: (tail / FULLY_BROKEN_TLDS).max(1),
        }
    }

    /// Number of domains, one per serial.
    pub(crate) fn len(&self) -> usize {
        self.total + FULLY_BROKEN_TLDS * self.per_tld
    }

    /// The label of domain `serial`, as a string.
    #[cfg(test)]
    pub(crate) fn label(&self, serial: usize) -> String {
        let mut buf = [0u8; MAX_LABEL_LEN];
        let len = self.write_label(serial, &mut buf);
        String::from_utf8(buf[..len].to_vec()).expect("a label is ASCII")
    }

    /// Write domain `serial`'s label into `out`, returning its length:
    /// `d{serial:07}`, or `fb{k:02}x{j:05}` in the fully-broken tail.
    /// No allocation, and no record read.
    pub(crate) fn write_label(&self, serial: usize, out: &mut [u8]) -> usize {
        match serial.checked_sub(self.total) {
            None => {
                out[0] = b'd';
                1 + write_digits(serial, 7, &mut out[1..])
            }
            Some(tail) => {
                out[..2].copy_from_slice(b"fb");
                let at = 2 + write_digits(tail / self.per_tld, 2, &mut out[2..]);
                out[at] = b'x';
                at + 1 + write_digits(tail % self.per_tld, 5, &mut out[at + 1..])
            }
        }
    }

    /// The serial `label` names, if it has either form and the serial is
    /// in range. A lookup still compares names: `d5` names serial 5 too.
    pub(crate) fn serial(&self, label: &[u8]) -> Option<usize> {
        if let Some(rest) = label.strip_prefix(b"fb") {
            let x = rest.iter().position(|&b| b == b'x')?;
            let (k, j) = (number(&rest[..x])?, number(&rest[x + 1..])?);
            (k < FULLY_BROKEN_TLDS && j < self.per_tld).then(|| self.total + k * self.per_tld + j)
        } else {
            number(label.strip_prefix(b"d")?).filter(|&serial| serial < self.total)
        }
    }
}

/// The number `digits` spells in decimal: ASCII digits only, at least
/// one, no sign, and no overflow.
fn number(digits: &[u8]) -> Option<usize> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |n, &b| {
        let digit = usize::from(b.wrapping_sub(b'0'));
        if digit < 10 {
            n.checked_mul(10)?.checked_add(digit)
        } else {
            None
        }
    })
}

/// How many digits `format!("{n:0width$}")` writes.
fn digit_count(n: usize, width: usize) -> usize {
    width.max(n.checked_ilog10().map_or(1, |log| log as usize + 1))
}

/// Write `n` in decimal into `out`, zero-padded to at least `width`
/// digits (`format!("{n:0width$}")`), returning the number of digits.
fn write_digits(mut n: usize, width: usize, out: &mut [u8]) -> usize {
    let len = digit_count(n, width);
    for digit in out[..len].iter_mut().rev() {
        *digit = b'0' + (n % 10) as u8;
        n /= 10;
    }
    len
}

/// The name of TLD `i`: the gTLDs come first, then the ccTLDs —
/// `gtld{i:04}` and `cc{cc:03}`, written on the stack.
fn tld_name(config: &PopulationConfig, i: usize) -> Name {
    let mut label = [0u8; MAX_LABEL_LEN];
    let len = match i.checked_sub(config.gtlds) {
        None => {
            label[..4].copy_from_slice(b"gtld");
            4 + write_digits(i, 4, &mut label[4..])
        }
        Some(cc) => {
            label[..2].copy_from_slice(b"cc");
            2 + write_digits(cc, 3, &mut label[2..])
        }
    };
    Name::from_labels([&label[..len]]).expect("valid")
}

/// A Zipf draw over broken servers `lo..hi`, server `lo + i` weighing
/// `weights[i]` (server `hi − 1` when the draw hits none).
fn broken_zipf(weights: &[f64], lo: usize, hi: usize) -> impl Fn(&mut SplitMix64) -> Ipv4Addr + '_ {
    let draw = WeightedIndex::new(&weights[..hi - lo]);
    move |rng| broken_addr(lo + draw.sample(rng))
}

/// Domain `serial`'s name under `tld`, its label written on the stack.
fn child_name(tld: &Name, serials: &Serials, serial: usize) -> Name {
    let mut label = [0u8; MAX_LABEL_LEN];
    let len = serials.write_label(serial, &mut label);
    tld.child_bytes(&label[..len]).expect("valid label")
}

impl Population {
    /// Generate a population.
    pub fn generate(config: PopulationConfig) -> Population {
        let mut rng = SplitMix64::seed_from_u64(config.seed);
        let serials = Serials::of(&config);
        let total = serials.total;
        // A domain record holds its TLD's index in a `u16`.
        let tld_count = config.gtlds + config.cctlds;
        assert!(
            tld_count <= usize::from(u16::MAX),
            "{tld_count} TLDs: a domain record indexes at most 65 535"
        );
        let tld_index = |t: usize| u16::try_from(t).expect("checked against the TLD count");

        // --- TLDs ----------------------------------------------------------
        // §4.3: 38 % of gTLDs and 4 % of ccTLDs have no misconfigured
        // domain; 11 gTLDs + 2 ccTLDs are fully broken; 2 ccTLDs carry
        // stand-by keys; a handful of gTLDs fail insecure-referral
        // proofs.
        let mut tlds = Vec::with_capacity(tld_count);
        for i in 0..config.gtlds {
            tlds.push(TldInfo {
                name: tld_name(&config, i),
                cc: false,
                standby_key: false,
                broken_insecure_proof: false,
                server_index: i,
            });
        }
        for i in 0..config.cctlds {
            tlds.push(TldInfo {
                name: tld_name(&config, config.gtlds + i),
                cc: true,
                standby_key: i < 2, // the two stand-by-KSK ccTLDs (§4.2.3)
                broken_insecure_proof: false,
                server_index: config.gtlds + i,
            });
        }
        // A few gTLDs with broken insecure-referral proofs (§4.2.9) —
        // low indices so they can never collide with the fully-broken
        // tail below.
        let insecure_tlds: Vec<usize> = (16..20).collect();
        for &t in &insecure_tlds {
            tlds[t].broken_insecure_proof = true;
        }

        // Which TLDs are clean (no misconfigured domains planted there)?
        // 38 % of gTLDs, 4 % of ccTLDs, excluding the special ones.
        let clean_gtlds = (config.gtlds as f64 * 0.38) as usize;
        let clean_cctlds = (config.cctlds as f64 * 0.04) as usize;
        // Fully-broken small TLDs: last 11 gTLDs + last 2 ccTLDs.
        let fully_broken: Vec<usize> = (config.gtlds - 11..config.gtlds)
            .chain(config.gtlds + config.cctlds - 2..config.gtlds + config.cctlds)
            .collect();

        // TLD weights: Zipf-like sizes, ccTLDs smaller on average.
        let mut weights: Vec<f64> = (0..tlds.len())
            .map(|i| {
                let rank = (i + 1) as f64;
                let base = 1.0 / rank.powf(1.03);
                if tlds[i].cc {
                    base * 0.4
                } else {
                    base
                }
            })
            .collect();
        for &t in &fully_broken {
            // The fully-broken TLDs are tiny (108 k domains across 13).
            weights[t] = 0.0;
        }
        let tld_draw = WeightedIndex::new(&weights);

        // --- Hosting pools ------------------------------------------------------
        // §4.2.2: 293 k broken nameservers; 6 giants serve >100 k domains
        // each; fixing ~20 k (6.8 %) would repair 81 % of domains.
        let broken_ns_count = (293_000 / config.scale as usize).clamp(24, 50_000);
        let healthy_ns_count = (total / 40).clamp(16, 40_000);
        let healthy_ns: Vec<Ipv4Addr> = (0..healthy_ns_count).map(healthy_addr).collect();
        let broken_ns: Vec<Ipv4Addr> = (0..broken_ns_count).map(broken_addr).collect();

        // Zipf over the broken pool reproduces the concentration: the
        // head nameservers accumulate most lame domains. Draws are
        // segment-aware so a category needing a *spoken* failure never
        // lands on a silent server and vice versa.
        let zipf_weights: Vec<f64> = (0..broken_ns_count)
            .map(|i| 1.0 / ((i + 1) as f64).powf(1.12))
            .collect();
        let rcode_end = silent_start(broken_ns_count);
        let pick_broken_rcode = broken_zipf(&zipf_weights, 0, rcode_end.max(1));
        let drop_start = rcode_end.min(broken_ns_count - 1);
        let pick_broken_silent = broken_zipf(&zipf_weights, drop_start, broken_ns_count);

        let draw_ns = |rng: &mut SplitMix64, draw: NsDraw| match draw {
            NsDraw::Healthy => NsAddrs::one(healthy_addr(rng.gen_index(healthy_ns_count))),
            NsDraw::BrokenSpeaking => NsAddrs::one(pick_broken_rcode(rng)),
            NsDraw::BrokenSilent => NsAddrs::one(pick_broken_silent(rng)),
            // The broken address is drawn first, as the population's RNG
            // order has always had it, and is asked first.
            NsDraw::BrokenThenHealthy => {
                let broken = pick_broken_rcode(rng);
                NsAddrs::two(broken, healthy_addr(rng.gen_index(healthy_ns_count)))
            }
        };

        // --- Build the category list -----------------------------------------------
        // Every row with a paper count in table order, then the healthy
        // fill: each remaining domain takes the first fill row whose
        // running share exceeds its draw.
        let mut categories: Vec<Category> = Vec::with_capacity(total);
        let mut fill = Vec::new();
        for row in &ROWS {
            match row.count {
                Count::Paper(n) => {
                    categories.extend(std::iter::repeat_n(row.category, config.scaled(n)))
                }
                Count::Share(share) => fill.push((share, row.category)),
            }
        }
        let (_, last_fill) = *fill.last().expect("the table has a fill");
        while categories.len() < total {
            let x = rng.gen_f64();
            let mut upto = 0.0;
            let pick = fill.iter().find(|&&(share, _)| {
                upto += share;
                x < upto
            });
            categories.push(pick.map_or(last_fill, |&(_, category)| category));
        }
        categories.truncate(total);

        // --- Assign TLDs and nameservers ----------------------------------------------
        let pick_tld = |rng: &mut SplitMix64, not_clean: bool| -> usize {
            loop {
                let idx = tld_draw.sample(rng);
                // Special TLDs host only their designated categories:
                // everything under a stand-by-key or broken-proof TLD
                // would otherwise inherit that TLD's condition.
                if tlds[idx].standby_key || tlds[idx].broken_insecure_proof {
                    continue;
                }
                let is_clean = (idx < clean_gtlds && !tlds[idx].cc)
                    || (tlds[idx].cc && idx - config.gtlds < clean_cctlds);
                if not_clean && is_clean {
                    continue; // clean TLDs host no misconfigured domains
                }
                return idx;
            }
        };

        // One buffer, the fully-broken tail included, that the `Arc` takes.
        let mut domains: Vec<DomainRecord> = Vec::with_capacity(serials.len());
        for (i, &category) in categories.iter().enumerate() {
            let row = category.row();
            let tld = match row.tld {
                TldPlacement::Any => pick_tld(&mut rng, false),
                TldPlacement::NotClean => pick_tld(&mut rng, true),
                TldPlacement::Standby => config.gtlds + (i % 2),
                TldPlacement::BrokenProof => insecure_tlds[i % insecure_tlds.len()],
            };
            let name = child_name(&tlds[tld].name, &serials, i);
            let ns_addrs = draw_ns(&mut rng, row.ns);

            domains.push(DomainRecord {
                name,
                tld: tld_index(tld),
                category,
                ns_addrs,
                rank: None,
            });
        }

        // --- Fully-broken tiny TLDs (§4.3's 100 %-misconfigured tail) -------------
        for serial in total..serials.len() {
            let t = fully_broken[(serial - total) / serials.per_tld];
            domains.push(DomainRecord {
                name: child_name(&tlds[t].name, &serials, serial),
                tld: tld_index(t),
                category: FULLY_BROKEN_TLD_MEMBER,
                ns_addrs: draw_ns(&mut rng, FULLY_BROKEN_TLD_MEMBER.row().ns),
                rank: None,
            });
        }

        // --- Tranco ranks: assigned independently of misconfiguration --------------
        // (§4.3/Fig. 2: EDE-triggering domains are evenly distributed
        // across the ranking.)
        let n = domains.len();
        let mut rank_targets: Vec<usize> = Vec::with_capacity(config.tranco_size as usize);
        while rank_targets.len() < (config.tranco_size as usize).min(n) {
            let idx = rng.gen_index(n);
            if domains[idx].rank.is_none() {
                domains[idx].rank = Some(NonZeroU32::MAX); // placeholder, numbered below
                rank_targets.push(idx);
            }
        }
        for (rank, &idx) in (1..).zip(&rank_targets) {
            domains[idx].rank = NonZeroU32::new(rank);
        }

        // Randomize scan order, as the paper did to spread load.
        for i in (1..domains.len()).rev() {
            let j = rng.gen_index(i + 1);
            domains.swap(i, j);
        }

        Population {
            config,
            tlds,
            domains: Arc::new(domains),
            healthy_ns,
            broken_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_wire::name::MAX_INLINE_LEN;

    #[test]
    fn generation_is_deterministic() {
        let a = Population::generate(PopulationConfig::tiny());
        let b = Population::generate(PopulationConfig::tiny());
        assert_eq!(a.domains.len(), b.domains.len());
        for (x, y) in a.domains.iter().zip(b.domains.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.category, y.category);
            assert_eq!(x.ns_addrs, y.ns_addrs);
        }
    }

    /// FNV-1a over every domain in scan order — name, TLD, category,
    /// nameservers, rank — and every TLD's name and flags.
    fn digest(p: &Population) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for t in &p.tlds {
            eat(t.name.as_wire());
            eat(&[
                u8::from(t.cc),
                u8::from(t.standby_key),
                u8::from(t.broken_insecure_proof),
            ]);
        }
        for d in p.domains.iter() {
            eat(d.name.as_wire());
            eat(&d.tld.to_le_bytes());
            eat(&[d.category as u8, d.ns_addrs.len() as u8]);
            for addr in d.ns_addrs.iter() {
                eat(&addr.octets());
            }
            eat(&d.rank.map_or(0, NonZeroU32::get).to_le_bytes());
        }
        h
    }

    /// Every name, TLD, category, nameserver set and rank of the tiny
    /// population and of 1:20000, at three seeds, as the generator made
    /// them when it drew with sequential loops and a heap label per
    /// domain.
    #[test]
    fn populations_are_pinned() {
        let pins: [(PopulationConfig, [u64; 3]); 2] = [
            (
                PopulationConfig::tiny(),
                [
                    0x4d2d_f9d9_b41d_bf39,
                    0x1c62_8281_9666_476b,
                    0x18b9_501a_e345_b96a,
                ],
            ),
            (
                PopulationConfig {
                    scale: 20_000,
                    ..Default::default()
                },
                [
                    0xb810_30ec_9d91_a848,
                    0xd7e5_5d71_d8ea_1031,
                    0x5bae_8101_f06b_3beb,
                ],
            ),
        ];
        for (config, digests) in pins {
            for (seed, pinned) in [0xEDE_2023, 7, 5001].into_iter().zip(digests) {
                let pop = Population::generate(PopulationConfig {
                    seed,
                    ..config.clone()
                });
                assert_eq!(
                    digest(&pop),
                    pinned,
                    "1:{} seed {seed}: {:#018x}",
                    config.scale,
                    digest(&pop)
                );
            }
        }
    }

    #[test]
    fn the_domain_buffer_is_exactly_sized() {
        let p = Population::generate(PopulationConfig::tiny());
        assert_eq!(p.domains.len(), p.domains.capacity());
        assert_eq!(p.domains.len(), Serials::of(&p.config).len());
    }

    /// Label → serial → label, for both forms, up to the 8-digit labels
    /// a 1:10 population has, without generating one.
    #[test]
    fn labels_and_serials_round_trip() {
        let tenth = Serials::of(&PopulationConfig {
            scale: 10,
            ..Default::default()
        });
        assert_eq!(tenth.total, 30_300_000);
        let tail = tenth.total + 3 * tenth.per_tld + 17;
        for (serial, label) in [
            (0, "d0000000"),
            (5, "d0000005"),
            (9_999_999, "d9999999"),
            (10_000_000, "d10000000"),
            (30_299_999, "d30299999"),
            (tenth.total, "fb00x00000"),
            (tail, "fb03x00017"),
            (tenth.len() - 1, "fb12x00829"),
        ] {
            assert_eq!(tenth.label(serial), label);
            assert_eq!(tenth.serial(label.as_bytes()), Some(serial), "{label}");
        }
        let tiny = Serials::of(&PopulationConfig::tiny());
        for serial in 0..tiny.len() {
            assert_eq!(tiny.serial(tiny.label(serial).as_bytes()), Some(serial));
        }
        for label in [
            "d0000x05",
            "d30300000",
            "e0000005",
            "fb13x00000",
            "fb03x00830",
            "fb03y00017",
            "fb03x",
            "d99999999999999999999999",
            "d18446744073709551616",
            "d+000005",
            "fb+3x00017",
            "fb03x+0017",
            "d",
            "fbx00017",
            "",
        ] {
            assert_eq!(tenth.serial(label.as_bytes()), None, "{label}");
        }
    }

    /// The longest label of each form under the longest gTLD and ccTLD
    /// names at 1:1, without generating that population: no domain's
    /// name needs a heap block.
    #[test]
    fn every_domain_name_at_full_scale_is_held_inline() {
        let full = PopulationConfig {
            scale: 1,
            ..Default::default()
        };
        let serials = Serials::of(&full);
        let tlds = [full.gtlds - 1, full.gtlds + full.cctlds - 1];
        for label in [
            serials.label(serials.total - 1),
            serials.label(serials.len() - 1),
        ] {
            for &t in &tlds {
                let name = tld_name(&full, t).child(&label).unwrap();
                assert!(name.wire_len() <= MAX_INLINE_LEN, "{name}");
            }
        }
    }

    #[test]
    fn a_domain_record_is_40_bytes() {
        assert_eq!(std::mem::size_of::<DomainRecord>(), 40);
        assert_eq!(std::mem::size_of::<Option<NonZeroU32>>(), 4);
    }

    #[test]
    #[should_panic(expected = "65536 TLDs")]
    fn more_tlds_than_a_record_can_index_are_refused() {
        Population::generate(PopulationConfig {
            gtlds: 65_536 - 12,
            ..PopulationConfig::tiny()
        });
    }

    #[test]
    fn tiny_population_has_all_rare_categories() {
        let p = Population::generate(PopulationConfig::tiny());
        let has = |c: Category| p.domains.iter().any(|d| d.category == c);
        assert!(has(Category::GostDigest));
        assert!(has(Category::StaleFlapRefuse));
        assert!(has(Category::NotAuthCached));
        assert!(has(Category::IterationLimit));
        assert!(has(Category::LameRcode));
        assert!(has(Category::HealthyUnsigned));
    }

    #[test]
    fn standby_members_live_under_standby_cctlds() {
        let p = Population::generate(PopulationConfig::tiny());
        for d in p.domains.iter() {
            let tld = &p.tlds[usize::from(d.tld)];
            if d.category == Category::StandbyTldMember {
                assert!(tld.standby_key, "{}", d.name);
            }
            if d.category == Category::InsecureProofBroken {
                assert!(tld.broken_insecure_proof, "{}", d.name);
            }
        }
    }

    #[test]
    fn scaled_counts_follow_rules() {
        let cfg = PopulationConfig::default();
        assert_eq!(cfg.scaled(303_000_000), 303_000);
        assert_eq!(cfg.scaled(62), 62); // small counts stay absolute
        assert_eq!(cfg.scaled(1_980), 2);
        assert_eq!(cfg.scaled(0), 0);
    }

    #[test]
    fn tranco_ranks_unique_and_bounded() {
        let p = Population::generate(PopulationConfig::tiny());
        let mut ranks: Vec<u32> = p
            .domains
            .iter()
            .filter_map(|d| d.rank.map(NonZeroU32::get))
            .collect();
        ranks.sort_unstable();
        let expected: Vec<u32> = (1..=p.config.tranco_size.min(ranks.len() as u32)).collect();
        assert_eq!(ranks, expected);
    }

    #[test]
    fn address_pools_are_disjoint_and_routable() {
        use ede_netsim::classify;
        for i in [0usize, 5, 300, 70000] {
            assert!(classify(healthy_addr(i).into()).is_routable());
            assert!(classify(broken_addr(i).into()).is_routable());
            assert!(classify(tld_addr(i).into()).is_routable());
            assert_ne!(healthy_addr(i), broken_addr(i));
        }
    }
}
