//! The typed trace event model.
//!
//! Every event is a protocol-visible fact about one step of a
//! resolution, stamped (by [`crate::Tracer`]) with the virtual clock of
//! the simulation that produced it. Events deliberately carry plain
//! `String`s and std types only, so the crate stays dependency-free and
//! the events serialize trivially (see [`crate::json`]).

use std::fmt;
use std::net::IpAddr;

/// Which cache outcome a probe produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOutcome {
    /// A fresh (within-TTL) entry answered the query.
    Hit,
    /// Nothing usable was cached; a live resolution follows.
    Miss,
    /// An expired entry was served under RFC 8767 serve-stale.
    StaleServed,
}

impl fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheOutcome::Hit => write!(f, "hit"),
            CacheOutcome::Miss => write!(f, "miss"),
            CacheOutcome::StaleServed => write!(f, "stale-served"),
        }
    }
}

/// One structured trace event.
///
/// The variants cover the transport (`QuerySent`, `ResponseReceived`,
/// `Timeout`, `Retry`), the iterative walk (`Referral`), the cache
/// (`CacheProbe`), DNSSEC validation (`ValidationStep`), diagnosis
/// (`FindingRecorded`), EDE emission (`EdeEmitted`), the authoritative
/// side (`AuthorityAnswer`), and resolution bracketing
/// (`ResolutionStarted` / `ResolutionFinished`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A client-side resolution began.
    ResolutionStarted {
        /// The queried name, dotted.
        qname: String,
        /// The queried type, numeric.
        qtype: u16,
    },
    /// A query datagram left for an upstream server.
    QuerySent {
        /// Destination server address.
        dst: IpAddr,
        /// Queried name, dotted.
        qname: String,
        /// Queried type, numeric.
        qtype: u16,
        /// DNS message ID.
        id: u16,
    },
    /// A response datagram arrived.
    ResponseReceived {
        /// The server that answered.
        src: IpAddr,
        /// Response RCODE, numeric (with EDNS extension bits).
        rcode: u16,
        /// Number of answer records.
        answers: usize,
        /// Transport latency charged by the simulation, in milliseconds.
        latency_ms: u64,
    },
    /// No response arrived: silent drop, loss, or unroutable glue.
    Timeout {
        /// The unresponsive destination.
        dst: IpAddr,
        /// Queried name, dotted.
        qname: String,
        /// True when the destination is a special-purpose (unroutable)
        /// address rather than a dead host.
        unroutable: bool,
    },
    /// The resolver moved on to another server of the same zone after a
    /// failure.
    Retry {
        /// 1-based index of the retry (first fallback = 1).
        attempt: usize,
        /// The server being tried next.
        next: IpAddr,
    },
    /// A truncated (TC=1) UDP reply made the resolver re-ask the same
    /// server over the stream (TCP-analogue) channel.
    TcFallback {
        /// The server being re-queried over the stream channel.
        dst: IpAddr,
        /// Queried name, dotted.
        qname: String,
        /// The negotiated UDP payload limit the reply exceeded.
        limit: u16,
    },
    /// The simulated network's fault plan fired on one exchange
    /// (emitted from `ede-netsim`, when a tracer is attached).
    FaultInjected {
        /// Which fault fired: `"loss"` or `"corrupt"`.
        kind: &'static str,
        /// The destination of the affected exchange.
        dst: IpAddr,
    },
    /// A referral moved resolution down one zone cut.
    Referral {
        /// The delegated zone, dotted.
        zone: String,
        /// Number of NS names in the referral.
        ns_count: usize,
        /// True when the delegation carried a DS RRset (stays in the
        /// chain of trust).
        signed: bool,
    },
    /// The resolver probed its answer cache.
    CacheProbe {
        /// Queried name, dotted.
        qname: String,
        /// Queried type, numeric.
        qtype: u16,
        /// What the probe produced.
        outcome: CacheOutcome,
    },
    /// A cache store's budget sweep removed entries: dead ones, live
    /// ones (CLOCK eviction), or both. Emitted once per store operation
    /// that removed anything, so an unbounded cache emits none of these.
    CacheEvicted {
        /// Dead entries the sweep removed: their TTL + stale window had
        /// lapsed.
        expired: u64,
        /// Live entries the sweep removed (CLOCK eviction).
        evicted: u64,
        /// Entries remaining in the store after the removal.
        occupancy: u64,
    },
    /// One DNSSEC validation step ran.
    ValidationStep {
        /// What was validated (e.g. `"DNSKEY example.com"`,
        /// `"RRset www.example.com/A"`, `"denial example.com NXDOMAIN"`).
        target: String,
        /// True when the step completed without recording any finding.
        ok: bool,
    },
    /// The diagnosis recorded a structured finding.
    FindingRecorded {
        /// Compact `Debug` rendering of the
        /// `ede_resolver::diagnosis::Finding` variant.
        finding: String,
    },
    /// The vendor profile attached one EDE entry to the response.
    EdeEmitted {
        /// The emitting vendor profile's name.
        vendor: &'static str,
        /// RFC 8914 INFO-CODE.
        code: u16,
        /// EXTRA-TEXT, possibly empty.
        extra_text: String,
    },
    /// An authoritative server answered a query (emitted from
    /// `ede-authority`, when a tracer is attached to the server).
    AuthorityAnswer {
        /// The zone that answered (dotted), or `"-"` when no zone
        /// matched.
        zone: String,
        /// Response RCODE, numeric.
        rcode: u16,
    },
    /// The client-side resolution completed.
    ResolutionFinished {
        /// Final RCODE, numeric.
        rcode: u16,
        /// Number of EDE entries attached.
        ede_count: usize,
        /// Virtual-clock duration of the whole resolution, ms.
        duration_ms: u64,
    },
}

impl TraceEvent {
    /// Stable machine-readable kind tag (used by the JSONL encoding and
    /// the golden-file tests).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ResolutionStarted { .. } => "resolution_started",
            TraceEvent::QuerySent { .. } => "query_sent",
            TraceEvent::ResponseReceived { .. } => "response_received",
            TraceEvent::Timeout { .. } => "timeout",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::TcFallback { .. } => "tc_fallback",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::Referral { .. } => "referral",
            TraceEvent::CacheProbe { .. } => "cache_probe",
            TraceEvent::CacheEvicted { .. } => "cache_evicted",
            TraceEvent::ValidationStep { .. } => "validation_step",
            TraceEvent::FindingRecorded { .. } => "finding_recorded",
            TraceEvent::EdeEmitted { .. } => "ede_emitted",
            TraceEvent::AuthorityAnswer { .. } => "authority_answer",
            TraceEvent::ResolutionFinished { .. } => "resolution_finished",
        }
    }

    /// One-line human rendering (the `troubleshoot --trace` timeline
    /// body and the golden-file format).
    pub fn render(&self) -> String {
        match self {
            TraceEvent::ResolutionStarted { qname, qtype } => {
                format!("resolve {qname} type{qtype}")
            }
            TraceEvent::QuerySent {
                dst, qname, qtype, ..
            } => {
                format!("-> {dst} {qname} type{qtype}")
            }
            TraceEvent::ResponseReceived {
                src,
                rcode,
                answers,
                latency_ms,
            } => {
                format!("<- {src} rcode={rcode} answers={answers} ({latency_ms} ms)")
            }
            TraceEvent::Timeout {
                dst,
                qname,
                unroutable,
            } => {
                let why = if *unroutable { "unroutable" } else { "timeout" };
                format!("xx {dst} {why} ({qname})")
            }
            TraceEvent::Retry { attempt, next } => {
                format!("retry #{attempt} -> {next}")
            }
            TraceEvent::TcFallback { dst, qname, limit } => {
                format!("tc-fallback -> {dst} {qname} (limit {limit} B)")
            }
            TraceEvent::FaultInjected { kind, dst } => {
                format!("fault {kind} @ {dst}")
            }
            TraceEvent::Referral {
                zone,
                ns_count,
                signed,
            } => {
                let chain = if *signed { "signed" } else { "unsigned" };
                format!("referral to {zone} ({ns_count} NS, {chain})")
            }
            TraceEvent::CacheProbe {
                qname,
                qtype,
                outcome,
            } => {
                format!("cache {outcome} {qname} type{qtype}")
            }
            TraceEvent::CacheEvicted {
                expired,
                evicted,
                occupancy,
            } => {
                format!("cache evict {evicted} (expired {expired}), {occupancy} live")
            }
            TraceEvent::ValidationStep { target, ok } => {
                let mark = if *ok { "ok" } else { "FAILED" };
                format!("validate {target}: {mark}")
            }
            TraceEvent::FindingRecorded { finding } => format!("finding {finding}"),
            TraceEvent::EdeEmitted {
                vendor,
                code,
                extra_text,
            } => {
                if extra_text.is_empty() {
                    format!("ede {vendor} code={code}")
                } else {
                    format!("ede {vendor} code={code} {extra_text:?}")
                }
            }
            TraceEvent::AuthorityAnswer { zone, rcode } => {
                format!("authority {zone} rcode={rcode}")
            }
            TraceEvent::ResolutionFinished {
                rcode,
                ede_count,
                duration_ms,
            } => {
                format!("done rcode={rcode} ede={ede_count} ({duration_ms} ms)")
            }
        }
    }
}

/// A trace event stamped with the virtual clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// Virtual-clock timestamp, milliseconds since the Unix epoch (the
    /// netsim clock starts at the paper's measurement epoch).
    pub at_ms: u64,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique() {
        let events = [
            TraceEvent::ResolutionStarted {
                qname: "a".into(),
                qtype: 1,
            },
            TraceEvent::QuerySent {
                dst: "192.0.2.1".parse().unwrap(),
                qname: "a".into(),
                qtype: 1,
                id: 7,
            },
            TraceEvent::ResponseReceived {
                src: "192.0.2.1".parse().unwrap(),
                rcode: 0,
                answers: 1,
                latency_ms: 20,
            },
            TraceEvent::Timeout {
                dst: "192.0.2.1".parse().unwrap(),
                qname: "a".into(),
                unroutable: false,
            },
            TraceEvent::Retry {
                attempt: 1,
                next: "192.0.2.2".parse().unwrap(),
            },
            TraceEvent::TcFallback {
                dst: "192.0.2.1".parse().unwrap(),
                qname: "a".into(),
                limit: 1232,
            },
            TraceEvent::FaultInjected {
                kind: "loss",
                dst: "192.0.2.1".parse().unwrap(),
            },
            TraceEvent::Referral {
                zone: "com".into(),
                ns_count: 2,
                signed: true,
            },
            TraceEvent::CacheProbe {
                qname: "a".into(),
                qtype: 1,
                outcome: CacheOutcome::Miss,
            },
            TraceEvent::CacheEvicted {
                expired: 2,
                evicted: 1,
                occupancy: 97,
            },
            TraceEvent::ValidationStep {
                target: "DNSKEY com".into(),
                ok: true,
            },
            TraceEvent::FindingRecorded {
                finding: "CachedError".into(),
            },
            TraceEvent::EdeEmitted {
                vendor: "cf",
                code: 7,
                extra_text: String::new(),
            },
            TraceEvent::AuthorityAnswer {
                zone: "com".into(),
                rcode: 0,
            },
            TraceEvent::ResolutionFinished {
                rcode: 2,
                ede_count: 1,
                duration_ms: 40,
            },
        ];
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());
        for e in &events {
            assert!(!e.render().is_empty());
        }
    }
}
