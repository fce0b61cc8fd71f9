//! `ede-trace` — structured resolution tracing and metrics for the
//! extended-dns-errors stack.
//!
//! A failed resolution used to yield one RCODE plus EDE codes with no
//! record of the retries, timeouts, referrals, or validation steps that
//! produced them. This crate is the record: a zero-dependency, sans-IO
//! event model threaded through the transport (`ede-netsim`), the
//! resolver engine (`ede-resolver`), and the authoritative servers
//! (`ede-authority`).
//!
//! # Design
//!
//! * **Events, not logs** — [`TraceEvent`] is a typed enum
//!   ([`TraceEvent::kind`] gives each variant a stable tag); rendering
//!   to a timeline, JSONL, or counters happens at the edge.
//! * **Sinks decide the cost** — instrumented code emits into a
//!   [`Tracer`]; when disabled (the default) that is one `Option`
//!   check. A [`ResolutionTrace`] ring buffer retains timelines, and a
//!   [`Metrics`] registry turns the same stream into counters.
//! * **One registry, two sections** — [`Metrics`] counts what a
//!   resolution does from its events and, in its server section, what a
//!   serving front end does from direct calls on the wall clock; a
//!   count the transport or the cache already keeps is theirs alone.
//! * **No shared write per resolution** — a count taken per resolution
//!   goes to the writing thread's copy of a [`Striped`] block and is
//!   summed at snapshot; [`TracerCell::get`] hands each thread its own
//!   copy of the attached tracer.
//! * **Virtual time only** — events are stamped through the
//!   [`TraceClock`] trait (implemented by `ede-netsim`'s `SimClock`),
//!   never the host clock, so traces are deterministic and
//!   golden-testable.
//!
//! # Example
//!
//! ```
//! use ede_trace::{ResolutionTrace, TraceClock, TraceEvent, Tracer};
//! use std::sync::Arc;
//!
//! struct FixedClock;
//! impl TraceClock for FixedClock {
//!     fn trace_now_millis(&self) -> u64 { 1_000 }
//! }
//!
//! let trace = Arc::new(ResolutionTrace::new(256));
//! let tracer = Tracer::new(trace.clone(), Arc::new(FixedClock));
//! tracer.emit(TraceEvent::ResolutionStarted { qname: "example.com".into(), qtype: 1 });
//! assert_eq!(trace.len(), 1);
//! assert!(trace.to_jsonl().contains("\"kind\":\"resolution_started\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
mod histogram;
pub mod json;
pub mod metrics;
pub mod sink;
mod stripe;

pub use event::{CacheOutcome, TimedEvent, TraceEvent};
pub use histogram::Histogram;
pub use metrics::{Metrics, MetricsSnapshot};
pub use sink::{ResolutionTrace, TraceClock, TraceSink, Tracer, TracerCell};
pub use stripe::{Striped, STRIPES};
