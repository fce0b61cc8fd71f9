//! Hand-rolled JSON lines encoding for offline trace analysis.
//!
//! One event per line, schema:
//!
//! ```text
//! {"at_ms":<u64>,"kind":"<kind tag>",...variant fields...}
//! ```
//!
//! Field names match the Rust field names of [`TraceEvent`]; addresses
//! are dotted/colon strings. The encoder is dependency-free (no serde)
//! and escapes strings per RFC 8259.

use crate::event::{TimedEvent, TraceEvent};

/// Escape a string for inclusion in a JSON document (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Encode one stamped event as a single JSON object (no trailing
/// newline).
pub fn event_to_json(e: &TimedEvent) -> String {
    let mut fields: Vec<(&str, String)> = vec![
        ("at_ms", e.at_ms.to_string()),
        ("kind", json_string(e.event.kind())),
    ];
    match &e.event {
        TraceEvent::ResolutionStarted { qname, qtype } => {
            fields.push(("qname", json_string(qname)));
            fields.push(("qtype", qtype.to_string()));
        }
        TraceEvent::QuerySent {
            dst,
            qname,
            qtype,
            id,
        } => {
            fields.push(("dst", json_string(&dst.to_string())));
            fields.push(("qname", json_string(qname)));
            fields.push(("qtype", qtype.to_string()));
            fields.push(("id", id.to_string()));
        }
        TraceEvent::ResponseReceived {
            src,
            rcode,
            answers,
            latency_ms,
        } => {
            fields.push(("src", json_string(&src.to_string())));
            fields.push(("rcode", rcode.to_string()));
            fields.push(("answers", answers.to_string()));
            fields.push(("latency_ms", latency_ms.to_string()));
        }
        TraceEvent::Timeout {
            dst,
            qname,
            unroutable,
        } => {
            fields.push(("dst", json_string(&dst.to_string())));
            fields.push(("qname", json_string(qname)));
            fields.push(("unroutable", unroutable.to_string()));
        }
        TraceEvent::Retry { attempt, next } => {
            fields.push(("attempt", attempt.to_string()));
            fields.push(("next", json_string(&next.to_string())));
        }
        TraceEvent::TcFallback {
            dst,
            qname,
            size,
            limit,
        } => {
            fields.push(("dst", json_string(&dst.to_string())));
            fields.push(("qname", json_string(qname)));
            fields.push(("size", size.to_string()));
            fields.push(("limit", limit.to_string()));
        }
        TraceEvent::FaultInjected { kind: fault, dst } => {
            fields.push(("fault", json_string(fault)));
            fields.push(("dst", json_string(&dst.to_string())));
        }
        TraceEvent::Referral {
            zone,
            ns_count,
            signed,
        } => {
            fields.push(("zone", json_string(zone)));
            fields.push(("ns_count", ns_count.to_string()));
            fields.push(("signed", signed.to_string()));
        }
        TraceEvent::CacheProbe {
            qname,
            qtype,
            outcome,
        } => {
            fields.push(("qname", json_string(qname)));
            fields.push(("qtype", qtype.to_string()));
            fields.push(("outcome", json_string(&outcome.to_string())));
        }
        TraceEvent::CacheEvicted {
            expired,
            evicted,
            occupancy,
        } => {
            fields.push(("expired", expired.to_string()));
            fields.push(("evicted", evicted.to_string()));
            fields.push(("occupancy", occupancy.to_string()));
        }
        TraceEvent::DenialSynthesized {
            qname,
            nxdomain,
            ttl,
        } => {
            fields.push(("qname", json_string(qname)));
            fields.push(("nxdomain", nxdomain.to_string()));
            fields.push(("ttl", ttl.to_string()));
        }
        TraceEvent::ValidationStep { target, ok } => {
            fields.push(("target", json_string(target)));
            fields.push(("ok", ok.to_string()));
        }
        TraceEvent::FindingRecorded { finding } => {
            fields.push(("finding", json_string(finding)));
        }
        TraceEvent::EdeEmitted {
            vendor,
            code,
            extra_text,
        } => {
            fields.push(("vendor", json_string(vendor)));
            fields.push(("code", code.to_string()));
            fields.push(("extra_text", json_string(extra_text)));
        }
        TraceEvent::AuthorityAnswer { zone, rcode } => {
            fields.push(("zone", json_string(zone)));
            fields.push(("rcode", rcode.to_string()));
        }
        TraceEvent::ResolutionFinished {
            rcode,
            ede_count,
            duration_ms,
        } => {
            fields.push(("rcode", rcode.to_string()));
            fields.push(("ede_count", ede_count.to_string()));
            fields.push(("duration_ms", duration_ms.to_string()));
        }
        TraceEvent::TaskSpawned {
            task,
            in_flight,
            queued,
        }
        | TraceEvent::TaskCompleted {
            task,
            in_flight,
            queued,
        } => {
            fields.push(("task", task.to_string()));
            fields.push(("in_flight", in_flight.to_string()));
            fields.push(("queued", queued.to_string()));
        }
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_hostile_strings() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn encodes_every_variant_as_object() {
        let samples = [
            TraceEvent::ResolutionStarted {
                qname: "a.com".into(),
                qtype: 1,
            },
            TraceEvent::QuerySent {
                dst: "192.0.2.1".parse().unwrap(),
                qname: "a.com".into(),
                qtype: 1,
                id: 9,
            },
            TraceEvent::ResponseReceived {
                src: "192.0.2.1".parse().unwrap(),
                rcode: 0,
                answers: 2,
                latency_ms: 20,
            },
            TraceEvent::Timeout {
                dst: "10.0.0.1".parse().unwrap(),
                qname: "a.com".into(),
                unroutable: true,
            },
            TraceEvent::Retry {
                attempt: 2,
                next: "192.0.2.2".parse().unwrap(),
            },
            TraceEvent::TcFallback {
                dst: "192.0.2.1".parse().unwrap(),
                qname: "a.com".into(),
                size: 1452,
                limit: 1232,
            },
            TraceEvent::FaultInjected {
                kind: "corrupt".into(),
                dst: "192.0.2.1".parse().unwrap(),
            },
            TraceEvent::Referral {
                zone: "com".into(),
                ns_count: 1,
                signed: false,
            },
            TraceEvent::CacheProbe {
                qname: "a.com".into(),
                qtype: 1,
                outcome: crate::CacheOutcome::StaleServed,
            },
            TraceEvent::CacheEvicted {
                expired: 3,
                evicted: 0,
                occupancy: 61,
            },
            TraceEvent::DenialSynthesized {
                qname: "a.com".into(),
                nxdomain: false,
                ttl: 42,
            },
            TraceEvent::ValidationStep {
                target: "DNSKEY \"com\"".into(),
                ok: true,
            },
            TraceEvent::FindingRecorded {
                finding: "CachedError".into(),
            },
            TraceEvent::EdeEmitted {
                vendor: "BIND 9.19.9".into(),
                code: 7,
                extra_text: "x".into(),
            },
            TraceEvent::AuthorityAnswer {
                zone: "com".into(),
                rcode: 5,
            },
            TraceEvent::ResolutionFinished {
                rcode: 2,
                ede_count: 1,
                duration_ms: 0,
            },
            TraceEvent::TaskSpawned {
                task: 3,
                in_flight: 2,
                queued: 1,
            },
            TraceEvent::TaskCompleted {
                task: 3,
                in_flight: 1,
                queued: 0,
            },
        ];
        for ev in samples {
            let line = event_to_json(&TimedEvent {
                at_ms: 7,
                event: ev.clone(),
            });
            assert!(line.starts_with("{\"at_ms\":7,\"kind\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(
                line.contains(&format!("\"kind\":\"{}\"", ev.kind())),
                "{line}"
            );
        }
    }
}
