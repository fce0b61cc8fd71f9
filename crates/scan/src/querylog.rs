//! The bounded query-log store: every scan resolution becomes one
//! [`QueryRecord`] in a fixed-capacity ring, with optional JSONL spill
//! for the records the ring rotates out.
//!
//! This replaces the old unbounded `Vec<Observation>`: a scan at any
//! scale holds at most [`QueryLog::capacity`] records in memory, and the
//! streaming aggregation (see [`crate::aggregate::PartialAggregate`])
//! never needs the full log — the ring exists for the operator surface
//! (`ede_scan::query`, `troubleshoot --log`), not for the report.
//!
//! # Determinism
//!
//! Two fields of a record are *worker-timing-dependent*: `seq` (ring
//! arrival order) and `vtime_ms` (the virtual-clock stamp at
//! completion). Everything else is a pure function of the domain and
//! the simulated world, bit-identical at any worker count. `PartialEq`
//! therefore compares **only the deterministic
//! fields**, and the aggregate fingerprint hashes
//! [`QueryRecord::outcome_line`], which excludes both.

use crate::population::{Category, DomainRecord};
use ede_resolver::{Resolution, Vendor};
use ede_trace::json::json_string;
use ede_wire::{Name, Rcode};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::num::NonZeroU32;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One completed scan resolution, as retained by the query log.
///
/// A record of a population domain owns no heap block unless its
/// resolution had EDE: the name is held inline (a population name's
/// wire form fits [`ede_wire::name::MAX_INLINE_LEN`]), and an empty
/// code list and an absent text allocate nothing.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Ring arrival sequence (assigned at push; timing-dependent).
    pub seq: u64,
    /// Virtual-clock stamp at completion, ms (timing-dependent).
    pub vtime_ms: u64,
    /// Scan pass that produced this record (1 or 2).
    pub pass: u8,
    /// Index of the domain in the population.
    pub domain: usize,
    /// The queried name.
    pub name: Name,
    /// TLD index in the population.
    pub tld: usize,
    /// Tranco rank, if ranked.
    pub rank: Option<u32>,
    /// Planted ground truth (calibration cross-checks only).
    pub category: Category,
    /// Vendor profile the scan ran with.
    pub vendor: Vendor,
    /// Final RCODE.
    pub rcode: Rcode,
    /// Observed EDE codes, wire order.
    pub codes: Box<[u16]>,
    /// EXTRA-TEXT of the Network Error entry, when present.
    pub network_error_text: Option<Box<str>>,
}

impl QueryRecord {
    /// The record of `res`, the resolution of `d`, domain `domain` of
    /// the population, by `vendor` in scan pass `pass`, completed at
    /// `vtime_ms`; the query log assigns its `seq` at push. The name is
    /// copied, not formatted.
    pub fn of_resolution(
        domain: usize,
        d: &DomainRecord,
        res: &Resolution,
        vendor: Vendor,
        pass: u8,
        vtime_ms: u64,
    ) -> QueryRecord {
        QueryRecord {
            seq: 0,
            vtime_ms,
            pass,
            domain,
            name: d.name.clone(),
            tld: usize::from(d.tld),
            rank: d.rank.map(NonZeroU32::get),
            category: d.category,
            vendor,
            rcode: res.rcode,
            codes: res.ede_codes().into(),
            network_error_text: res
                .ede
                .iter()
                .find(|e| e.code.to_u16() == 23)
                .map(|e| e.extra_text.as_str().into()),
        }
    }

    /// The record's TLD label, derived from the name (its last label)
    /// — lets filters work on historical JSONL traces without the
    /// population in hand.
    pub fn tld_label(&self) -> &[u8] {
        self.name.labels().last().unwrap_or_default()
    }

    /// The canonical outcome line: every deterministic field, one
    /// record per line. This is what the commutative scan fingerprint
    /// hashes — `seq`/`vtime_ms` are deliberately excluded (they depend
    /// on worker timing) and so is `pass` (a revisited domain's final
    /// record always comes from pass 2, so it adds nothing).
    pub fn outcome_line(&self) -> String {
        let mut line = String::new();
        self.write_outcome_line(&mut line)
            .expect("writing to a String cannot fail");
        line
    }

    /// Write [`outcome_line`](Self::outcome_line) into `out` — the
    /// fingerprint streams it straight into its hash instead of
    /// building the line.
    pub fn write_outcome_line(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        write!(
            out,
            "{}|{:?}|{}|{:?}|{:?}|{:?}|{:?}",
            self.name,
            self.category,
            self.tld,
            self.rank,
            self.rcode,
            self.codes,
            self.network_error_text
        )
    }

    /// One-line JSON serialization (the query-log JSONL schema).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"seq\":{},", self.seq));
        out.push_str(&format!("\"vtime\":{},", self.vtime_ms));
        out.push_str(&format!("\"pass\":{},", self.pass));
        out.push_str(&format!("\"domain\":{},", self.domain));
        out.push_str(&format!(
            "\"name\":{},",
            json_string(&self.name.to_string())
        ));
        out.push_str(&format!("\"tld\":{},", self.tld));
        match self.rank {
            Some(r) => out.push_str(&format!("\"rank\":{r},")),
            None => out.push_str("\"rank\":null,"),
        }
        out.push_str(&format!(
            "\"category\":{},",
            json_string(self.category.name())
        ));
        out.push_str(&format!(
            "\"vendor\":{},",
            json_string(&format!("{:?}", self.vendor))
        ));
        out.push_str(&format!("\"rcode\":{},", self.rcode.to_u16()));
        let codes: Vec<String> = self.codes.iter().map(u16::to_string).collect();
        out.push_str(&format!("\"codes\":[{}],", codes.join(",")));
        match &self.network_error_text {
            Some(t) => out.push_str(&format!("\"net\":{}", json_string(t))),
            None => out.push_str("\"net\":null"),
        }
        out.push('}');
        out
    }

    /// Parse one JSONL line back into a record. Returns `None` on any
    /// schema mismatch — a `name` that is not a DNS name included —
    /// callers treat a bad line as corrupt input.
    pub fn from_json(line: &str) -> Option<QueryRecord> {
        let mut p = JsonParser::new(line);
        p.expect('{')?;
        let mut seq = None;
        let mut vtime = None;
        let mut pass = None;
        let mut domain = None;
        let mut name = None;
        let mut tld = None;
        let mut rank: Option<Option<u32>> = None;
        let mut category = None;
        let mut vendor = None;
        let mut rcode = None;
        let mut codes = None;
        let mut net: Option<Option<String>> = None;
        loop {
            let key = p.string()?;
            p.expect(':')?;
            match key.as_str() {
                "seq" => seq = Some(p.number()?),
                "vtime" => vtime = Some(p.number()?),
                "pass" => pass = Some(u8::try_from(p.number()?).ok()?),
                "domain" => domain = Some(usize::try_from(p.number()?).ok()?),
                "name" => name = Some(Name::parse(&p.string()?).ok()?),
                "tld" => tld = Some(usize::try_from(p.number()?).ok()?),
                "rank" => {
                    rank = Some(match p.number_or_null()? {
                        Some(n) => Some(u32::try_from(n).ok()?),
                        None => None,
                    })
                }
                "category" => category = Some(Category::parse(&p.string()?)?),
                "vendor" => vendor = Some(p.string()?.parse().ok()?),
                "rcode" => rcode = Some(Rcode::from_u16(u16::try_from(p.number()?).ok()?)),
                "codes" => codes = Some(p.number_array()?),
                "net" => net = Some(p.string_or_null()?),
                _ => return None,
            }
            if !p.comma_or_close()? {
                break;
            }
        }
        Some(QueryRecord {
            seq: seq?,
            vtime_ms: vtime?,
            pass: pass?,
            domain: domain?,
            name: name?,
            tld: tld?,
            rank: rank?,
            category: category?,
            vendor: vendor?,
            rcode: rcode?,
            codes: codes?
                .into_iter()
                .map(|n| u16::try_from(n).ok())
                .collect::<Option<_>>()?,
            network_error_text: net?.map(String::into_boxed_str),
        })
    }
}

/// Equality over the **deterministic** fields only: `seq` and
/// `vtime_ms` depend on worker timing and are excluded, so the
/// bit-identity tests can compare records across worker counts
/// directly.
impl PartialEq for QueryRecord {
    fn eq(&self, other: &Self) -> bool {
        self.pass == other.pass
            && self.domain == other.domain
            && self.name == other.name
            && self.tld == other.tld
            && self.rank == other.rank
            && self.category == other.category
            && self.vendor == other.vendor
            && self.rcode == other.rcode
            && self.codes == other.codes
            && self.network_error_text == other.network_error_text
    }
}

impl Eq for QueryRecord {}

/// A minimal JSON scanner for the flat query-record schema: strings,
/// unsigned numbers, arrays of numbers, and `null`. Hand-rolled because
/// the workspace is dependency-free by design.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Option<()> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&(c as u8)) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    /// After a value: `,` continues the object (true), `}` closes it
    /// (false).
    fn comma_or_close(&mut self) -> Option<bool> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b',') => {
                self.pos += 1;
                Some(true)
            }
            Some(b'}') => {
                self.pos += 1;
                Some(false)
            }
            _ => None,
        }
    }

    fn number(&mut self) -> Option<u64> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    fn literal_null(&mut self) -> Option<()> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            Some(())
        } else {
            None
        }
    }

    fn number_or_null(&mut self) -> Option<Option<u64>> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'n') {
            self.literal_null()?;
            Some(None)
        } else {
            Some(Some(self.number()?))
        }
    }

    fn string(&mut self) -> Option<String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(self.bytes.get(self.pos + 1..self.pos + 5)?)
                                    .ok()?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // A run of unescaped bytes, decoded as the UTF-8 it
                    // is. `"` and `\` are ASCII, so the run ends on a
                    // character boundary.
                    let start = self.pos;
                    while !matches!(self.bytes.get(self.pos)?, b'"' | b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).ok()?);
                }
            }
        }
    }

    fn string_or_null(&mut self) -> Option<Option<String>> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'n') {
            self.literal_null()?;
            Some(None)
        } else {
            Some(Some(self.string()?))
        }
    }

    fn number_array(&mut self) -> Option<Vec<u64>> {
        self.expect('[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Some(out);
        }
        loop {
            out.push(self.number()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Some(out);
                }
                _ => return None,
            }
        }
    }
}

/// Occupancy and spill accounting for one scan's query log, reported in
/// [`crate::scanner::ScanResult`] and the bench log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryLogStats {
    /// The configured ring capacity.
    pub capacity: usize,
    /// Records currently retained in the ring.
    pub len: usize,
    /// Peak ring occupancy over the scan (never exceeds `capacity`).
    pub peak: usize,
    /// Records rotated out of the ring into the JSONL spill file.
    pub spilled: u64,
    /// Records rotated out with no spill file configured (lost).
    pub dropped: u64,
}

/// The bounded ring + spill store itself. Workers push records in
/// batches (one lock acquisition per [`crate::scanner`] batch of up to
/// 16 results), so the lock never becomes a per-resolution hot spot.
pub struct QueryLog {
    capacity: usize,
    inner: Mutex<LogInner>,
}

/// Everything a push writes, written only under the lock.
struct LogInner {
    ring: VecDeque<QueryRecord>,
    spill: Option<(PathBuf, BufWriter<File>)>,
    next_seq: u64,
    peak: usize,
    spilled: u64,
    dropped: u64,
}

impl LogInner {
    /// Write a rotated-out record to the spill file, or count it dropped
    /// when there is none — or when the write fails, which closes it.
    fn rotate_out(&mut self, old: &QueryRecord) {
        match self
            .spill
            .as_mut()
            .map(|(_, w)| writeln!(w, "{}", old.to_json()))
        {
            Some(Ok(())) => self.spilled += 1,
            Some(Err(_)) => {
                self.spill_failed();
                self.dropped += 1;
            }
            None => self.dropped += 1,
        }
    }

    fn flush_spill(&mut self) {
        let failed = self.spill.as_mut().is_some_and(|(_, w)| w.flush().is_err());
        if failed {
            self.spill_failed();
        }
    }

    /// A spill write or flush failed: the records counted as spilled may
    /// never have reached the file, so they count as dropped, and the
    /// writer is closed — every later rotation is dropped too.
    fn spill_failed(&mut self) {
        self.spill = None;
        self.dropped += std::mem::take(&mut self.spilled);
    }
}

impl QueryLog {
    /// A log retaining at most `capacity` records, spilling rotated-out
    /// records to `spill` as JSONL when a path is given.
    pub fn new(capacity: usize, spill: Option<&Path>) -> std::io::Result<QueryLog> {
        let spill = match spill {
            Some(p) => Some((p.to_path_buf(), BufWriter::new(File::create(p)?))),
            None => None,
        };
        Ok(QueryLog {
            capacity: capacity.max(1),
            inner: Mutex::new(LogInner {
                ring: VecDeque::new(),
                spill,
                next_seq: 0,
                peak: 0,
                spilled: 0,
                dropped: 0,
            }),
        })
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Push a batch of records, assigning their `seq` in arrival order.
    /// When the ring is full the oldest record rotates out — to the
    /// spill file when one is configured, otherwise it is dropped (and
    /// counted).
    ///
    /// What rotates out is freed after the lock is released, so the other
    /// workers' pushes do not wait on the allocator.
    pub fn push_batch(&self, records: Vec<QueryRecord>) {
        if records.is_empty() {
            return;
        }
        let mut g = self.inner.lock().expect("query log lock");
        let overflow = (g.ring.len() + records.len()).saturating_sub(self.capacity);
        let mut evicted = Vec::with_capacity(overflow);
        for mut r in records {
            r.seq = g.next_seq;
            g.next_seq += 1;
            if g.ring.len() == self.capacity {
                let old = g.ring.pop_front().expect("full ring");
                g.rotate_out(&old);
                evicted.push(old);
            }
            g.ring.push_back(r);
        }
        g.peak = g.peak.max(g.ring.len());
        drop(g);
        drop(evicted);
    }

    /// Flush the spill writer (call once, at the end of the scan).
    pub fn flush_spill(&self) {
        self.inner.lock().expect("query log lock").flush_spill();
    }

    /// Occupancy and spill accounting.
    pub fn stats(&self) -> QueryLogStats {
        let g = self.inner.lock().expect("query log lock");
        QueryLogStats {
            capacity: self.capacity,
            len: g.ring.len(),
            peak: g.peak,
            spilled: g.spilled,
            dropped: g.dropped,
        }
    }

    /// Drain the ring in `seq` order (consumes the retained records).
    ///
    /// The ring is already in that order — [`QueryLog::push_batch`]
    /// numbers each record as it pushes it to the back — so the records
    /// stay in the ring's own buffer: no second buffer, no sort.
    pub fn into_records(self) -> Vec<QueryRecord> {
        let mut inner = self.inner.into_inner().expect("query log lock");
        inner.flush_spill();
        Vec::from(inner.ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(domain: usize, codes: Vec<u16>) -> QueryRecord {
        QueryRecord {
            seq: 0,
            vtime_ms: 42,
            pass: 1,
            domain,
            name: Name::parse(&format!("d{domain}.example.")).unwrap(),
            tld: 3,
            rank: domain.is_multiple_of(2).then_some(domain as u32 + 1),
            category: Category::LameRcode,
            vendor: Vendor::Cloudflare,
            rcode: Rcode::ServFail,
            codes: codes.into(),
            network_error_text: Some(format!("192.0.2.{domain}:53 rcode=REFUSED for x A").into()),
        }
    }

    #[test]
    fn json_round_trips() {
        let r = record(7, vec![22, 23]);
        let back = QueryRecord::from_json(&r.to_json()).expect("parses");
        assert_eq!(back, r);
        assert_eq!(back.seq, r.seq);
        assert_eq!(back.vtime_ms, r.vtime_ms);
        assert_eq!(back.pass, r.pass);
        for spelling in ["cloudflare", "cf", "Cloudflare DNS"] {
            let line = r
                .to_json()
                .replace("\"Cloudflare\"", &format!("{spelling:?}"));
            assert_eq!(
                QueryRecord::from_json(&line).as_ref(),
                Some(&r),
                "{spelling}"
            );
        }
        let line = r.to_json().replace("\"Cloudflare\"", "\"nope\"");
        assert_eq!(QueryRecord::from_json(&line), None);

        let mut none = record(8, vec![]);
        none.rank = None;
        none.network_error_text = None;
        let back = QueryRecord::from_json(&none.to_json()).expect("parses");
        assert_eq!(back, none);
        assert_eq!(back.rank, None);
        assert_eq!(back.network_error_text, None);
    }

    /// `from_json` reads back exactly what `to_json` writes, for any
    /// `name` (label octets of every value, written with escapes), any
    /// `net` text (non-ASCII, quotes, backslashes, control characters)
    /// and at the numeric boundaries of every field.
    #[test]
    fn json_round_trips_arbitrary_strings_and_boundary_numbers() {
        const ALPHABET: [char; 16] = [
            'a', 'Z', '0', '.', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            'ß', '𝄞',
        ];
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0x0015_0e15);
        let text = |rng: &mut crate::rng::SplitMix64| -> String {
            (0..rng.gen_index(24))
                .map(|_| ALPHABET[rng.gen_index(ALPHABET.len())])
                .collect()
        };
        let name = |rng: &mut crate::rng::SplitMix64| -> Name {
            let labels: Vec<Vec<u8>> = (0..rng.gen_index(4))
                .map(|_| {
                    let len = 1 + rng.gen_index(12);
                    (0..len).map(|_| rng.next_u64() as u8).collect()
                })
                .collect();
            Name::from_labels(labels).expect("at most 4 × 13 octets")
        };
        let edge = |rng: &mut crate::rng::SplitMix64, max: u64| match rng.gen_index(3) {
            0 => 0,
            1 => max,
            _ => rng.next_u64() % (max / 2 + 1),
        };
        for i in 0..512u64 {
            let r = QueryRecord {
                seq: edge(&mut rng, u64::MAX),
                vtime_ms: edge(&mut rng, u64::MAX),
                pass: edge(&mut rng, u64::from(u8::MAX)) as u8,
                domain: edge(&mut rng, usize::MAX as u64) as usize,
                name: name(&mut rng),
                tld: edge(&mut rng, usize::MAX as u64) as usize,
                rank: (i % 3 != 0).then(|| edge(&mut rng, u64::from(u32::MAX)) as u32),
                category: Category::LameRcode,
                vendor: Vendor::ALL[rng.gen_index(Vendor::ALL.len())],
                rcode: Rcode::from_u16(edge(&mut rng, 4095) as u16),
                codes: (0..rng.gen_index(4))
                    .map(|_| edge(&mut rng, u64::from(u16::MAX)) as u16)
                    .collect(),
                network_error_text: (i % 4 != 0).then(|| text(&mut rng).into()),
            };
            let line = r.to_json();
            let back = QueryRecord::from_json(&line).unwrap_or_else(|| panic!("rejects {line}"));
            assert_eq!(back, r, "{line}");
            assert_eq!((back.seq, back.vtime_ms), (r.seq, r.vtime_ms), "{line}");
        }
    }

    /// A number too large for its field is corrupt input, not a value
    /// to wrap around.
    #[test]
    fn out_of_range_numbers_are_rejected() {
        let line = record(7, vec![22]).to_json();
        assert!(QueryRecord::from_json(&line).is_some());
        for (from, to) in [
            ("\"pass\":1,", "\"pass\":257,"),
            ("\"rank\":null,", "\"rank\":4294967296,"),
            ("\"rcode\":2,", "\"rcode\":65538,"),
            ("\"codes\":[22],", "\"codes\":[65558],"),
        ] {
            assert!(line.contains(from), "{line} lacks {from}");
            assert_eq!(
                QueryRecord::from_json(&line.replace(from, to)),
                None,
                "{to}"
            );
        }
    }

    /// A `name` that is not a DNS name is corrupt input, like any other
    /// schema violation.
    #[test]
    fn a_name_that_is_no_dns_name_is_rejected() {
        let line = record(7, vec![22]).to_json();
        let from = "\"name\":\"d7.example.\",";
        assert!(line.contains(from), "{line} lacks {from}");
        let long_label = "x".repeat(64);
        let long_name = ["y".repeat(63).as_str(); 4].join(".");
        for bad in [
            "a..example.",
            ".a.",
            &long_label,
            &long_name,
            "\\\\256.example.",
            "a\\\\04x.example.",
            "trailing\\\\",
        ] {
            let to = format!("\"name\":\"{bad}\",");
            assert_eq!(
                QueryRecord::from_json(&line.replace(from, &to)),
                None,
                "{to}"
            );
        }
        let to = "\"name\":\"a\\\\.b.Example\",";
        let back = QueryRecord::from_json(&line.replace(from, to)).expect("a DNS name");
        assert_eq!(
            back.name.labels().collect::<Vec<_>>(),
            [&b"a.b"[..], b"example"]
        );
    }

    /// A ring of 65 536 records is ≈ 6.8 MB, with no heap block behind
    /// a population domain's record unless it has EDE.
    #[test]
    fn a_query_record_is_at_most_104_bytes() {
        assert!(std::mem::size_of::<QueryRecord>() <= 104);
    }

    #[test]
    fn equality_ignores_timing_fields() {
        let mut a = record(1, vec![22]);
        let mut b = record(1, vec![22]);
        a.seq = 10;
        b.seq = 99;
        a.vtime_ms = 1;
        b.vtime_ms = 2;
        assert_eq!(a, b);
        b.codes = Box::new([23]);
        assert_ne!(a, b);
    }

    #[test]
    fn ring_bounds_and_drops_without_spill() {
        let log = QueryLog::new(4, None).expect("no io");
        log.push_batch((0..10).map(|i| record(i, vec![])).collect());
        let stats = log.stats();
        assert_eq!(stats.capacity, 4);
        assert_eq!(stats.len, 4);
        assert_eq!(stats.peak, 4);
        assert_eq!(stats.dropped, 6);
        assert_eq!(stats.spilled, 0);
        let records = log.into_records();
        assert_eq!(records.len(), 4);
        // The newest records survive.
        assert_eq!(records.last().expect("nonempty").domain, 9);
    }

    #[test]
    fn ring_spills_rotated_records_as_jsonl() {
        let path = std::env::temp_dir().join(format!(
            "ede-scan-querylog-test-{}.jsonl",
            std::process::id()
        ));
        let log = QueryLog::new(3, Some(&path)).expect("spill file");
        log.push_batch((0..8).map(|i| record(i, vec![22])).collect());
        log.flush_spill();
        let stats = log.stats();
        assert_eq!(stats.spilled, 5);
        assert_eq!(stats.dropped, 0);
        let body = std::fs::read_to_string(&path).expect("read spill");
        let spilled: Vec<QueryRecord> = body
            .lines()
            .map(|l| QueryRecord::from_json(l).expect("valid line"))
            .collect();
        assert_eq!(spilled.len(), 5);
        assert_eq!(spilled[0].domain, 0);
        // Ring + spill = the complete log.
        assert_eq!(spilled.len() + log.stats().len, 8);
        let _ = std::fs::remove_file(&path);
    }

    /// A spill that cannot be written is no spill: what went to it, and
    /// every later rotation, is counted as dropped.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_spill_that_cannot_be_written_counts_its_records_dropped() {
        let log = QueryLog::new(3, Some(Path::new("/dev/full"))).expect("/dev/full opens");
        log.push_batch((0..8).map(|i| record(i, vec![22])).collect());
        log.flush_spill();
        let stats = log.stats();
        assert_eq!((stats.spilled, stats.dropped), (0, 5));
        assert_eq!(log.into_records().len(), 3);
    }

    #[test]
    fn tld_label_derives_from_name() {
        let r = record(1, vec![]);
        assert_eq!(r.tld_label(), b"example");
        assert_eq!(
            QueryRecord::from_json(&r.to_json()).unwrap().tld_label(),
            b"example"
        );
    }
}
