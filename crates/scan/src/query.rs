//! Query the scan's query log: a fluent, `#[non_exhaustive]` filter
//! over [`QueryRecord`]s that works identically on live
//! [`crate::scanner::ScanResult::records`] and on historical JSONL
//! traces spilled by the query-log ring (see [`load_jsonl`]).
//!
//! This is the public face of what the troubleshoot CLI used to do with
//! ad-hoc argument matching: build a [`QueryFilter`], apply it, and
//! summarize what matched.
//!
//! ```
//! use ede_scan::query::QueryFilter;
//!
//! let filter = QueryFilter::new()
//!     .code(23)
//!     .tld("com")
//!     .rank_range(1, 500);
//! assert!(filter.describe().contains("code=23"));
//! ```

use crate::population::Category;
use crate::querylog::QueryRecord;
use ede_resolver::Vendor;
use ede_wire::Rcode;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead};
use std::path::Path;

/// Parse an RCODE by mnemonic (`noerror`, `servfail`, `nxdomain`,
/// `refused`, `formerr`, `notimp`, `notauth`) or numeric value.
pub fn parse_rcode(s: &str) -> Option<Rcode> {
    match s.to_ascii_lowercase().as_str() {
        "noerror" => Some(Rcode::NoError),
        "formerr" => Some(Rcode::FormErr),
        "servfail" => Some(Rcode::ServFail),
        "nxdomain" => Some(Rcode::NxDomain),
        "notimp" => Some(Rcode::NotImp),
        "refused" => Some(Rcode::Refused),
        "notauth" => Some(Rcode::NotAuth),
        other => other.parse::<u16>().ok().map(Rcode::from_u16),
    }
}

/// A conjunctive filter over query records: every set predicate must
/// hold for a record to match.
///
/// `#[non_exhaustive]`: build with [`QueryFilter::new`] (or
/// [`QueryFilter::parse`]) and the fluent setters — new predicates can
/// be added without breaking callers.
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub struct QueryFilter {
    /// Record must carry this EDE code.
    pub code: Option<u16>,
    /// Record must come from this vendor profile.
    pub vendor: Option<Vendor>,
    /// Record's name must live directly under this TLD label
    /// (case-insensitive, no dots).
    pub tld: Option<String>,
    /// Record's Tranco rank must exist and fall in this inclusive
    /// range.
    pub rank: Option<(u32, u32)>,
    /// Record's virtual timestamp must fall in this inclusive window
    /// (milliseconds).
    pub vtime: Option<(u64, u64)>,
    /// Record's final RCODE must equal this.
    pub rcode: Option<Rcode>,
    /// Record's planted category must equal this.
    pub category: Option<Category>,
    /// Record must come from this scan pass (1 or 2).
    pub pass: Option<u8>,
    /// Record's domain name must contain this substring
    /// (case-insensitive).
    pub name_contains: Option<String>,
}

impl QueryFilter {
    /// The match-everything filter.
    pub fn new() -> QueryFilter {
        QueryFilter::default()
    }

    /// Require an EDE code.
    pub fn code(mut self, code: u16) -> Self {
        self.code = Some(code);
        self
    }

    /// Require a vendor profile.
    pub fn vendor(mut self, vendor: Vendor) -> Self {
        self.vendor = Some(vendor);
        self
    }

    /// Require a TLD (by label, e.g. `"com"`).
    pub fn tld(mut self, tld: &str) -> Self {
        self.tld = Some(tld.trim_matches('.').to_ascii_lowercase());
        self
    }

    /// Require a Tranco rank in `[lo, hi]`.
    pub fn rank_range(mut self, lo: u32, hi: u32) -> Self {
        self.rank = Some((lo.min(hi), lo.max(hi)));
        self
    }

    /// Require a virtual timestamp in `[lo, hi]` milliseconds.
    pub fn vtime_window(mut self, lo_ms: u64, hi_ms: u64) -> Self {
        self.vtime = Some((lo_ms.min(hi_ms), lo_ms.max(hi_ms)));
        self
    }

    /// Require a final RCODE.
    pub fn rcode(mut self, rcode: Rcode) -> Self {
        self.rcode = Some(rcode);
        self
    }

    /// Require a planted category.
    pub fn category(mut self, category: Category) -> Self {
        self.category = Some(category);
        self
    }

    /// Require a scan pass.
    pub fn pass(mut self, pass: u8) -> Self {
        self.pass = Some(pass);
        self
    }

    /// Require a substring of the domain name.
    pub fn name_contains(mut self, needle: &str) -> Self {
        self.name_contains = Some(needle.to_ascii_lowercase());
        self
    }

    /// Parse a compact filter expression: comma-separated `key=value`
    /// pairs. Keys: `code`, `vendor`, `tld`, `rank` (`lo-hi` or a
    /// single rank), `vtime` (`lo-hi` ms), `rcode`, `category`, `pass`,
    /// `name`. Example: `code=23,tld=com,rank=1-500`.
    pub fn parse(expr: &str) -> Result<QueryFilter, String> {
        let mut filter = QueryFilter::new();
        for pair in expr.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {pair:?}"))?;
            let value = value.trim();
            match key.trim() {
                "code" => {
                    filter.code = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad EDE code {value:?}"))?,
                    );
                }
                "vendor" => filter.vendor = Some(value.parse()?),
                "tld" => filter = filter.tld(value),
                "rank" => {
                    let (lo, hi) = match value.split_once('-') {
                        Some((lo, hi)) => (
                            lo.parse().map_err(|_| format!("bad rank {lo:?}"))?,
                            hi.parse().map_err(|_| format!("bad rank {hi:?}"))?,
                        ),
                        None => {
                            let r = value.parse().map_err(|_| format!("bad rank {value:?}"))?;
                            (r, r)
                        }
                    };
                    filter = filter.rank_range(lo, hi);
                }
                "vtime" => {
                    let (lo, hi) = value
                        .split_once('-')
                        .ok_or_else(|| format!("expected lo-hi window, got {value:?}"))?;
                    filter = filter.vtime_window(
                        lo.parse().map_err(|_| format!("bad vtime {lo:?}"))?,
                        hi.parse().map_err(|_| format!("bad vtime {hi:?}"))?,
                    );
                }
                "rcode" => {
                    filter.rcode =
                        Some(parse_rcode(value).ok_or_else(|| format!("unknown rcode {value:?}"))?);
                }
                "category" => {
                    filter.category = Some(
                        Category::parse(value)
                            .ok_or_else(|| format!("unknown category {value:?}"))?,
                    );
                }
                "pass" => {
                    filter.pass = Some(value.parse().map_err(|_| format!("bad pass {value:?}"))?);
                }
                "name" => filter = filter.name_contains(value),
                other => return Err(format!("unknown filter key {other:?}")),
            }
        }
        Ok(filter)
    }

    /// Render the filter back as the compact expression [`parse`]
    /// accepts (`*` when no predicate is set).
    ///
    /// [`parse`]: QueryFilter::parse
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(code) = self.code {
            parts.push(format!("code={code}"));
        }
        if let Some(vendor) = self.vendor {
            parts.push(format!("vendor={vendor:?}").to_ascii_lowercase());
        }
        if let Some(tld) = &self.tld {
            parts.push(format!("tld={tld}"));
        }
        if let Some((lo, hi)) = self.rank {
            parts.push(format!("rank={lo}-{hi}"));
        }
        if let Some((lo, hi)) = self.vtime {
            parts.push(format!("vtime={lo}-{hi}"));
        }
        if let Some(rcode) = self.rcode {
            parts.push(format!("rcode={}", rcode.to_u16()));
        }
        if let Some(category) = self.category {
            parts.push(format!("category={}", category.name()));
        }
        if let Some(pass) = self.pass {
            parts.push(format!("pass={pass}"));
        }
        if let Some(name) = &self.name_contains {
            parts.push(format!("name={name}"));
        }
        if parts.is_empty() {
            "*".to_string()
        } else {
            parts.join(",")
        }
    }

    /// Does `record` satisfy every set predicate?
    pub fn matches(&self, record: &QueryRecord) -> bool {
        if let Some(code) = self.code {
            if !record.codes.contains(&code) {
                return false;
            }
        }
        if let Some(vendor) = self.vendor {
            if record.vendor != vendor {
                return false;
            }
        }
        if let Some(tld) = &self.tld {
            if !record.tld_label().eq_ignore_ascii_case(tld) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.rank {
            match record.rank {
                Some(r) if (lo..=hi).contains(&r) => {}
                _ => return false,
            }
        }
        if let Some((lo, hi)) = self.vtime {
            if !(lo..=hi).contains(&record.vtime_ms) {
                return false;
            }
        }
        if let Some(rcode) = self.rcode {
            if record.rcode != rcode {
                return false;
            }
        }
        if let Some(category) = self.category {
            if record.category != category {
                return false;
            }
        }
        if let Some(pass) = self.pass {
            if record.pass != pass {
                return false;
            }
        }
        if let Some(needle) = &self.name_contains {
            if !record.name.to_ascii_lowercase().contains(needle) {
                return false;
            }
        }
        true
    }

    /// The matching subset of `records`, in input order.
    pub fn filter<'a>(&self, records: &'a [QueryRecord]) -> Vec<&'a QueryRecord> {
        records.iter().filter(|r| self.matches(r)).collect()
    }

    /// Filter and summarize in one step.
    pub fn summarize(&self, records: &[QueryRecord]) -> FilterSummary {
        FilterSummary::build(self, &self.filter(records))
    }
}

/// What a filter matched: counts by code, TLD, and category, plus the
/// virtual-time span — the troubleshoot CLI's query-mode output, as
/// data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FilterSummary {
    /// The filter, in [`QueryFilter::describe`] form.
    pub filter: String,
    /// Records matched.
    pub matched: usize,
    /// Distinct domains among the matches.
    pub domains: usize,
    /// Matches carrying at least one EDE code.
    pub with_ede: usize,
    /// Matches per EDE code.
    pub per_code: BTreeMap<u16, usize>,
    /// Matches per TLD label.
    pub per_tld: BTreeMap<String, usize>,
    /// Matches per planted category (by name).
    pub per_category: BTreeMap<&'static str, usize>,
    /// Virtual-time span of the matches, `(first, last)` ms.
    pub vtime_span: Option<(u64, u64)>,
}

impl FilterSummary {
    fn build(filter: &QueryFilter, matches: &[&QueryRecord]) -> FilterSummary {
        let mut summary = FilterSummary {
            filter: filter.describe(),
            matched: matches.len(),
            ..Default::default()
        };
        let mut domains = std::collections::BTreeSet::new();
        for r in matches {
            domains.insert(r.domain);
            if !r.codes.is_empty() {
                summary.with_ede += 1;
            }
            for &c in &r.codes {
                *summary.per_code.entry(c).or_insert(0) += 1;
            }
            *summary
                .per_tld
                .entry(r.tld_label().to_string())
                .or_insert(0) += 1;
            *summary.per_category.entry(r.category.name()).or_insert(0) += 1;
            summary.vtime_span = Some(match summary.vtime_span {
                None => (r.vtime_ms, r.vtime_ms),
                Some((lo, hi)) => (lo.min(r.vtime_ms), hi.max(r.vtime_ms)),
            });
        }
        summary.domains = domains.len();
        summary
    }

    /// Human rendering (the troubleshoot CLI prints this).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query [{}]: {} records, {} domains, {} with EDE",
            self.filter, self.matched, self.domains, self.with_ede
        );
        if let Some((lo, hi)) = self.vtime_span {
            let _ = writeln!(out, "  vtime span: {lo}..{hi} ms");
        }
        if !self.per_code.is_empty() {
            let codes: Vec<String> = self
                .per_code
                .iter()
                .map(|(c, n)| format!("{c}:{n}"))
                .collect();
            let _ = writeln!(out, "  per code: {}", codes.join(" "));
        }
        let mut tlds: Vec<(&String, &usize)> = self.per_tld.iter().collect();
        tlds.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        if !tlds.is_empty() {
            let top: Vec<String> = tlds
                .into_iter()
                .take(8)
                .map(|(t, n)| format!("{t}:{n}"))
                .collect();
            let _ = writeln!(out, "  top TLDs: {}", top.join(" "));
        }
        let mut cats: Vec<(&&str, &usize)> = self.per_category.iter().collect();
        cats.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        if !cats.is_empty() {
            let top: Vec<String> = cats
                .into_iter()
                .take(8)
                .map(|(c, n)| format!("{c}:{n}"))
                .collect();
            let _ = writeln!(out, "  top categories: {}", top.join(" "));
        }
        out
    }
}

/// Load a query-log JSONL trace (a ring spill file, or one you saved
/// yourself) back into records. Lines that fail to parse are reported
/// as errors, not skipped: a trace is evidence.
pub fn load_jsonl(path: &Path) -> io::Result<Vec<QueryRecord>> {
    let file = std::fs::File::open(path)?;
    let mut records = Vec::new();
    for (i, line) in io::BufReader::new(file).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record = QueryRecord::from_json(&line).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: malformed query record", path.display(), i + 1),
            )
        })?;
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, rank: Option<u32>, codes: Vec<u16>, pass: u8) -> QueryRecord {
        QueryRecord {
            seq: 0,
            vtime_ms: 1000 * u64::from(pass),
            pass,
            domain: rank.unwrap_or(0) as usize,
            name: name.to_string(),
            tld: 0,
            rank,
            category: Category::HealthyUnsigned,
            vendor: Vendor::Cloudflare,
            rcode: Rcode::NoError,
            codes,
            network_error_text: None,
        }
    }

    #[test]
    fn filters_compose_conjunctively() {
        let records = vec![
            record("a.com.", Some(1), vec![23], 1),
            record("b.com.", Some(900), vec![23], 1),
            record("c.org.", Some(2), vec![23], 1),
            record("d.com.", Some(3), vec![], 2),
        ];
        let filter = QueryFilter::new().code(23).tld("com").rank_range(1, 500);
        let hits = filter.filter(&records);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "a.com.");
    }

    #[test]
    fn parse_round_trips_describe() {
        let filter = QueryFilter::parse("code=23, tld=com, rank=1-500, pass=2").expect("parses");
        assert_eq!(filter.code, Some(23));
        assert_eq!(filter.tld.as_deref(), Some("com"));
        assert_eq!(filter.rank, Some((1, 500)));
        assert_eq!(filter.pass, Some(2));
        let reparsed = QueryFilter::parse(&filter.describe()).expect("round trip");
        assert_eq!(filter, reparsed);
        assert_eq!(QueryFilter::new().describe(), "*");
        assert!(QueryFilter::parse("frobnicate=1").is_err());
        assert!(QueryFilter::parse("rank=x").is_err());
    }

    #[test]
    fn vendor_and_rcode_aliases() {
        assert_eq!("CF".parse(), Ok(Vendor::Cloudflare));
        assert_eq!("pdns".parse(), Ok(Vendor::PowerDns));
        assert_eq!("PowerDns".parse(), Ok(Vendor::PowerDns));
        assert_eq!("bind 9.19.9".parse(), Ok(Vendor::Bind9));
        let unknown = "nope".parse::<Vendor>().unwrap_err();
        assert!(
            unknown.ends_with("known: bind9, unbound, powerdns, knot, cloudflare, quad9, opendns")
        );
        assert_eq!(parse_rcode("servfail"), Some(Rcode::ServFail));
        assert_eq!(parse_rcode("5"), Some(Rcode::Refused));
        assert_eq!(parse_rcode("nope"), None);
    }

    #[test]
    fn summary_counts_matches() {
        let records = vec![
            record("a.com.", Some(1), vec![23], 1),
            record("b.com.", Some(2), vec![22, 23], 1),
            record("c.org.", None, vec![], 2),
        ];
        let summary = QueryFilter::new().summarize(&records);
        assert_eq!(summary.matched, 3);
        assert_eq!(summary.with_ede, 2);
        assert_eq!(summary.per_code.get(&23), Some(&2));
        assert_eq!(summary.per_tld.get("com"), Some(&2));
        assert_eq!(summary.vtime_span, Some((1000, 2000)));
        let rendered = summary.render();
        assert!(rendered.contains("3 records"));
        assert!(rendered.contains("23:2"));
    }

    #[test]
    fn jsonl_round_trips_through_load() {
        let dir = std::env::temp_dir().join(format!("ede-query-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");
        let records = vec![
            record("a.com.", Some(1), vec![23], 1),
            record("b.org.", None, vec![], 2),
        ];
        let jsonl: String = records.iter().map(|r| r.to_json() + "\n").collect();
        std::fs::write(&path, jsonl).expect("write trace");
        let loaded = load_jsonl(&path).expect("load trace");
        assert_eq!(loaded, records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
