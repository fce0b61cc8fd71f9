//! Aggregate scan records into the paper's §4.2 / §4.3 numbers.
//!
//! Each scan worker folds its claim chunks into a private
//! [`PartialAggregate`] and merges it into the shared snapshot store as
//! it goes (see [`crate::stream`]); nothing is buffered until the end
//! of the scan. [`PartialAggregate::merge`] is commutative and
//! associative (counters add, maps union-add, the nameserver-kind
//! witness keeps the minimum domain index, rank pairs concatenate and
//! are sorted when the breakdowns are built), so merge order — and
//! therefore worker count and in-flight window — cannot change the
//! result. The property tests in `tests/streaming.rs`
//! pin that at every cross-point.

use crate::population::Population;
use crate::querylog::QueryRecord;
use crate::stats::v1::{EdeBreakdown, NsBreakdown, RankBucketCurve, TldBreakdown};
use ede_wire::Rcode;
use std::collections::BTreeMap;

/// FNV-1a offset basis / prime, for the per-record line hashes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over whatever is written to it.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// FNV-1a of `rec`'s outcome line, without building the line.
fn outcome_hash(rec: &QueryRecord) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    rec.write_outcome_line(&mut h).expect("hashing cannot fail");
    h.0
}

/// Per-nameserver evidence from Network Error EXTRA-TEXT. The `kind`
/// witness is the text of the *lowest-indexed* affected domain — the
/// "first in input order", made explicit so merging partials in any
/// order converges on it.
#[derive(Debug, Clone)]
struct NsEntry {
    domains: usize,
    first_domain: usize,
    kind: String,
}

/// One worker's (or one chunk's) partial aggregation: every counter the
/// report needs, foldable one record at a time and mergeable with any
/// other partial. `Default` is the empty aggregation.
#[derive(Debug, Clone, Default)]
pub struct PartialAggregate {
    domains: usize,
    ede_domains: usize,
    noerror_with_ede: usize,
    servfail_domains: usize,
    per_code: BTreeMap<u16, usize>,
    per_combo: BTreeMap<Vec<u16>, usize>,
    ns: BTreeMap<String, NsEntry>,
    tld_total: Vec<usize>,
    tld_ede: Vec<usize>,
    tranco: Vec<(u32, bool)>,
    fp_sum: u64,
    fp_xor: u64,
}

impl PartialAggregate {
    /// Fold one final record. Callers must fold each domain's **final**
    /// record exactly once (the scanner folds non-revisit domains in
    /// pass 1 and revisit domains in pass 2).
    pub fn fold(&mut self, rec: &QueryRecord) {
        self.domains += 1;
        if self.tld_total.len() <= rec.tld {
            self.tld_total.resize(rec.tld + 1, 0);
            self.tld_ede.resize(rec.tld + 1, 0);
        }
        self.tld_total[rec.tld] += 1;
        if let Some(rank) = rec.rank {
            self.tranco.push((rank, !rec.codes.is_empty()));
        }
        if rec.rcode == Rcode::ServFail {
            self.servfail_domains += 1;
        }
        let h = outcome_hash(rec);
        self.fp_sum = self.fp_sum.wrapping_add(h);
        self.fp_xor ^= h;

        if rec.codes.is_empty() {
            return;
        }
        self.ede_domains += 1;
        self.tld_ede[rec.tld] += 1;
        if rec.rcode == Rcode::NoError {
            self.noerror_with_ede += 1;
        }
        let mut combo = rec.codes.clone();
        combo.sort_unstable();
        combo.dedup();
        for &c in &combo {
            *self.per_code.entry(c).or_insert(0) += 1;
        }
        *self.per_combo.entry(combo).or_insert(0) += 1;

        if let Some(text) = &rec.network_error_text {
            // Texts look like "192.0.2.1:53 rcode=REFUSED for x.tld A".
            if let Some((addr, rest)) = text.split_once(":53 ") {
                let kind = rest.split_whitespace().next().unwrap_or_default();
                match self.ns.get_mut(addr) {
                    Some(entry) => {
                        entry.domains += 1;
                        if rec.domain < entry.first_domain {
                            entry.first_domain = rec.domain;
                            entry.kind = kind.to_string();
                        }
                    }
                    None => {
                        self.ns.insert(
                            addr.to_string(),
                            NsEntry {
                                domains: 1,
                                first_domain: rec.domain,
                                kind: kind.to_string(),
                            },
                        );
                    }
                }
            }
        }
    }

    /// Merge another partial into this one. Commutative and
    /// associative: `a.merge(b)` then `merge(c)` equals any other
    /// order, which is what makes the streaming pipeline's final
    /// numbers independent of worker timing.
    pub fn merge(&mut self, other: PartialAggregate) {
        self.domains += other.domains;
        self.ede_domains += other.ede_domains;
        self.noerror_with_ede += other.noerror_with_ede;
        self.servfail_domains += other.servfail_domains;
        for (c, n) in other.per_code {
            *self.per_code.entry(c).or_insert(0) += n;
        }
        for (combo, n) in other.per_combo {
            *self.per_combo.entry(combo).or_insert(0) += n;
        }
        for (addr, e) in other.ns {
            match self.ns.get_mut(&addr) {
                Some(entry) => {
                    entry.domains += e.domains;
                    if e.first_domain < entry.first_domain {
                        entry.first_domain = e.first_domain;
                        entry.kind = e.kind;
                    }
                }
                None => {
                    self.ns.insert(addr, e);
                }
            }
        }
        if self.tld_total.len() < other.tld_total.len() {
            self.tld_total.resize(other.tld_total.len(), 0);
            self.tld_ede.resize(other.tld_ede.len(), 0);
        }
        for (i, n) in other.tld_total.into_iter().enumerate() {
            self.tld_total[i] += n;
        }
        for (i, n) in other.tld_ede.into_iter().enumerate() {
            self.tld_ede[i] += n;
        }
        self.tranco.extend(other.tranco);
        self.fp_sum = self.fp_sum.wrapping_add(other.fp_sum);
        self.fp_xor ^= other.fp_xor;
    }

    /// Domains folded so far.
    pub fn domains(&self) -> usize {
        self.domains
    }

    /// The commutative scan fingerprint over every folded record's
    /// [`QueryRecord::outcome_line`]: per-line FNV-1a hashes combined
    /// with a wrapping sum, an XOR, and the record count, then mixed.
    /// Order-independent by construction, so every worker
    /// configuration agrees bit for bit.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for v in [self.fp_sum, self.fp_xor, self.domains as u64] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    /// Finish: build the `stats::v1` breakdowns against the population.
    pub(crate) fn finalize(&self, pop: &Population) -> ScanResults {
        let mut nameservers = NsBreakdown {
            unique: self.ns.len(),
            ..Default::default()
        };
        // BTreeMap order makes `domains_per_ns` deterministic.
        for entry in self.ns.values() {
            nameservers.domains_per_ns.push(entry.domains);
            match entry.kind.as_str() {
                "rcode=REFUSED" => nameservers.refused += 1,
                "rcode=SERVFAIL" => nameservers.servfail += 1,
                _ => nameservers.other += 1,
            }
        }

        let mut tlds = TldBreakdown::default();
        for (i, tld) in pop.tlds.iter().enumerate() {
            let total = self.tld_total.get(i).copied().unwrap_or(0);
            if total == 0 {
                continue;
            }
            let ratio = self.tld_ede.get(i).copied().unwrap_or(0) as f64 / total as f64;
            if tld.cc {
                tlds.cctld_ratios.push(ratio);
            } else {
                tlds.gtld_ratios.push(ratio);
            }
        }

        let mut ede_ranks: Vec<u32> = self
            .tranco
            .iter()
            .filter(|(_, ede)| *ede)
            .map(|(r, _)| *r)
            .collect();
        ede_ranks.sort_unstable();

        ScanResults {
            fingerprint: self.fingerprint(),
            ede: EdeBreakdown {
                total_domains: self.domains,
                ede_domains: self.ede_domains,
                noerror_with_ede: self.noerror_with_ede,
                servfail_domains: self.servfail_domains,
                per_code: self.per_code.clone(),
                per_combo: self.per_combo.clone(),
                nameservers,
            },
            tlds,
            ranks: RankBucketCurve {
                tranco_size: pop.config.tranco_size,
                ranked: self.tranco.len(),
                ede_ranks,
            },
        }
    }
}

/// What a fold determines: the result half of a
/// [`StatsSnapshot`](crate::stats::v1::StatsSnapshot).
#[derive(Debug, PartialEq)]
pub(crate) struct ScanResults {
    pub fingerprint: u64,
    pub ede: EdeBreakdown,
    pub tlds: TldBreakdown,
    pub ranks: RankBucketCurve,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use crate::scanner::{scan, ScanConfig};
    use crate::world::ScanWorld;

    /// The streamed hash is the hash of the line it no longer builds,
    /// for every shape a record's fields take.
    #[test]
    fn streamed_outcome_hash_is_the_hash_of_the_outcome_line() {
        use crate::population::Category;
        use ede_resolver::Vendor;

        let texts = [
            None,
            Some(String::new()),
            Some("192.0.2.1:53 rcode=REFUSED for a.example A".to_string()),
            // Debug escapes these; the hash must see the escaped form.
            Some("quote \" backslash \\ newline \n tab \t é".to_string()),
        ];
        let mut checked = 0;
        for name in [".", "example.com.", "a\\046b.example."] {
            for rank in [None, Some(0), Some(u32::MAX)] {
                for codes in [vec![], vec![22], vec![9, 22, 23]] {
                    for (i, text) in texts.iter().enumerate() {
                        let rec = QueryRecord {
                            seq: 7,
                            vtime_ms: 9,
                            pass: 1,
                            domain: checked,
                            name: name.to_string(),
                            tld: checked * 31,
                            rank,
                            category: Category::ALL[checked % Category::ALL.len()],
                            vendor: Vendor::Cloudflare,
                            rcode: [Rcode::NoError, Rcode::ServFail, Rcode::NxDomain][i % 3],
                            codes: codes.clone(),
                            network_error_text: text.clone(),
                        };
                        let mut of_line = Fnv1a(FNV_OFFSET);
                        std::fmt::Write::write_str(&mut of_line, &rec.outcome_line()).unwrap();
                        assert_eq!(outcome_hash(&rec), of_line.0, "{}", rec.outcome_line());
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 3 * 3 * 3 * 4);
    }

    #[test]
    fn aggregate_tiny_scan() {
        let pop = Population::generate(PopulationConfig::tiny());
        let world = ScanWorld::build(&pop);
        let result = scan(&pop, &world, &ScanConfig::default());
        let ede = &result.stats.ede;

        assert_eq!(ede.total_domains, pop.domains.len());
        assert!(ede.ede_domains > 0);
        // The dominant codes must be 22 and 23, like the paper.
        let c22 = ede.per_code.get(&22).copied().unwrap_or(0);
        let c23 = ede.per_code.get(&23).copied().unwrap_or(0);
        assert!(c22 > 0 && c23 > 0);
        assert!(c22 >= c23, "22 ({c22}) should dominate 23 ({c23})");
        let max_other = ede
            .per_code
            .iter()
            .filter(|(c, _)| **c != 22 && **c != 23)
            .map(|(_, n)| *n)
            .max()
            .unwrap_or(0);
        assert!(c22 > max_other);
        // Some NOERROR answers still carry EDE.
        assert!(ede.noerror_with_ede > 0);
        // The NS analysis sees the broken pool.
        assert!(ede.nameservers.unique > 0);
        assert!(ede.nameservers.refused >= ede.nameservers.servfail);
    }

    #[test]
    fn merge_is_order_independent() {
        let pop = Population::generate(PopulationConfig::tiny());
        let world = ScanWorld::build(&pop);
        let result = scan(&pop, &world, &ScanConfig::default());
        let records: Vec<_> = result.final_records().into_iter().cloned().collect();

        // Fold in one partial.
        let mut whole = PartialAggregate::default();
        for r in &records {
            whole.fold(r);
        }

        // Fold the same records into interleaved shards, merge the
        // shards in reverse.
        let mut shards = vec![PartialAggregate::default(); 7];
        for (i, r) in records.iter().enumerate() {
            shards[i % 7].fold(r);
        }
        let mut merged = PartialAggregate::default();
        for shard in shards.into_iter().rev() {
            merged.merge(shard);
        }

        assert_eq!(whole.finalize(&pop), merged.finalize(&pop));
    }
}
