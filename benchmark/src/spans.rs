//! Spans recorded by the replay, from outside the program: one around
//! each call into a layer, kept in memory and written out at exit.

use crate::alloc::thread_allocs;
use crate::stats;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the op in the replayed stream: the identifier the spans
    /// of one request share.
    pub op: u32,
    /// Index of the enclosing span in the log, or `u32::MAX`.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations the recording thread made between start and end.
    pub allocs: u32,
    /// The part of the interval its child spans cover.
    children_ns: u64,
}

impl Span {
    /// Duration minus the part child spans cover.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.children_ns)
    }
}

/// What the spans of one name add up to.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanStats {
    pub count: usize,
    /// Median self time: the row. Robust against the odd preempted span.
    pub median_ns: f64,
    /// Mean self time: what adds up to an end-to-end figure. Where the
    /// work per op is skewed (cold resolutions) it is far above the
    /// median.
    pub mean_ns: f64,
    pub median_allocs: f64,
    pub total_allocs: u64,
}

pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, with the allocation count at entry.
    open: Vec<(u32, u64)>,
}

impl SpanLog {
    /// A log with room for `capacity` spans, so that recording does not
    /// allocate (and so does not count itself) until that many exist.
    pub fn with_capacity(capacity: usize) -> SpanLog {
        SpanLog {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// A log that records nothing: the same code path with tracing off.
    pub fn disabled() -> SpanLog {
        SpanLog {
            enabled: false,
            ..SpanLog::with_capacity(0)
        }
    }

    pub fn enter(&mut self, name: &'static str, op: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(NO_PARENT, |&(i, _)| i);
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            children_ns: 0,
        });
        self.open.push((index, thread_allocs()));
        // Clock read last on entry and first on exit: the bookkeeping
        // lands in the parent's self time, not in this span.
        self.spans[index as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let (index, allocs_at_entry) = self.open.pop().expect("exit without enter");
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        span.allocs = (thread_allocs() - allocs_at_entry) as u32;
        let (parent, duration) = (span.parent, end_ns - span.start_ns);
        if parent != NO_PARENT {
            self.spans[parent as usize].children_ns += duration;
        }
    }

    /// Record `f` as one span.
    pub fn record<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// Rename the span closed last: for a call whose kind (cache hit or
    /// miss) is only known once it has returned.
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self-time and allocation statistics over the spans called `name`
    /// that satisfy `keep` (by op index); `None` if there are none.
    pub fn stats(&self, name: &str, keep: impl Fn(u32) -> bool) -> Option<SpanStats> {
        let (ns, allocs): (Vec<f64>, Vec<f64>) = self
            .spans
            .iter()
            .filter(|s| s.name == name && keep(s.op))
            .map(|s| (s.self_ns() as f64, f64::from(s.allocs)))
            .unzip();
        (!ns.is_empty()).then(|| SpanStats {
            count: ns.len(),
            median_ns: stats::median(&ns),
            mean_ns: ns.iter().sum::<f64>() / ns.len() as f64,
            median_allocs: stats::median(&allocs),
            total_allocs: allocs.iter().sum::<f64>() as u64,
        })
    }

    /// Append the spans of the first `max_ops` ops as JSON lines.
    /// `parent` is an index into this log, counted from its first span.
    pub fn append_jsonl(&self, out: &mut impl Write, max_ops: u32) -> std::io::Result<()> {
        for s in self.spans.iter().filter(|s| s.op < max_ops) {
            write!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"parent\": ",
                s.name, s.op
            )?;
            if s.parent == NO_PARENT {
                out.write_all(b"null")?;
            } else {
                write!(out, "{}", s.parent)?;
            }
            writeln!(
                out,
                ", \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}}}",
                s.start_ns, s.end_ns, s.allocs
            )?;
        }
        Ok(())
    }
}

/// What one span costs the replay: wall time per empty span, ns.
pub fn span_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let mut log = SpanLog::with_capacity(N as usize);
    let started = Instant::now();
    for op in 0..N {
        log.record("empty", op, || std::hint::black_box(op));
    }
    started.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_links_parents() {
        let mut log = SpanLog::with_capacity(16);
        log.enter("op", 0);
        log.record("a", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        log.record("b", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.exit();
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (NO_PARENT, 0, 0)
        );
        let own: Vec<u64> = spans.iter().map(Span::self_ns).collect();
        let total = spans[0].end_ns - spans[0].start_ns;
        assert!(own[1] >= 3_000_000 && own[2] >= 2_000_000);
        assert_eq!(own[0], total - own[1] - own[2]);
        assert!(
            own[0] < 1_000_000,
            "parent self time is only the bookkeeping"
        );
        let a = log.stats("a", |_| true).unwrap();
        assert_eq!((a.median_ns, a.mean_ns), (own[1] as f64, own[1] as f64));
    }

    #[test]
    fn allocations_are_counted_per_span_and_recording_adds_none() {
        let mut log = SpanLog::with_capacity(4);
        log.record("none", 0, || std::hint::black_box(1 + 1));
        log.record("two", 1, || {
            std::hint::black_box((Box::new(1u8), Vec::<u32>::with_capacity(9)));
        });
        assert_eq!(log.spans()[0].allocs, 0);
        assert_eq!(log.spans()[1].allocs, 2);
        let two = log.stats("two", |_| true).unwrap();
        assert_eq!(
            (two.count, two.median_allocs, two.total_allocs),
            (1, 2.0, 2)
        );
        assert!(log.stats("two", |op| op == 0).is_none());
    }

    #[test]
    fn jsonl_lines_parse_and_respect_the_op_cap() {
        let mut log = SpanLog::with_capacity(8);
        for op in 0..4 {
            log.enter("op", op);
            log.record("leaf", op, || ());
            log.exit();
        }
        let mut out = Vec::new();
        log.append_jsonl(&mut out, 2).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("parent"), Some(&crate::json::Value::Null));
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("name").and_then(|v| v.as_str()), Some("leaf"));
        assert_eq!(second.get("parent").and_then(|v| v.as_f64()), Some(0.0));
    }
}
