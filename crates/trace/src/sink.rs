//! Sinks: where stamped events go.
//!
//! The instrumented components never decide what happens to an event —
//! they hand it to a [`Tracer`], which stamps it with the virtual clock
//! and forwards it to whatever [`TraceSink`] the application attached:
//! a [`ResolutionTrace`] ring buffer for timelines, a
//! [`crate::Metrics`] registry for counters, or a [`MultiSink`] fanning
//! out to both. A disabled tracer is one `Option` check — tracing off
//! costs nothing but that branch.

use crate::event::{TimedEvent, TraceEvent};
use std::sync::{Arc, Mutex};

/// A source of virtual time. `ede-netsim`'s `SimClock` implements this;
/// the trace crate itself never reads host time, keeping traces
/// deterministic.
pub trait TraceClock: Send + Sync {
    /// Current virtual time in milliseconds since the Unix epoch.
    fn trace_now_millis(&self) -> u64;
}

/// A consumer of stamped trace events. Implementations must tolerate
/// concurrent calls: a scan emits from many worker threads.
pub trait TraceSink: Send + Sync {
    /// Record one stamped event.
    fn record(&self, at_ms: u64, event: &TraceEvent);

    /// Whether this sink reads the human-facing detail strings on
    /// events (`qname`, `target`, `finding`, …). Counter-only sinks
    /// like [`crate::Metrics`] return `false`, letting instrumented
    /// code skip one string allocation per event on hot paths and
    /// send an empty string instead. Defaults to `true`: any sink
    /// that renders events must see the real text.
    fn wants_query_detail(&self) -> bool {
        true
    }
}

struct TracerInner {
    sink: Arc<dyn TraceSink>,
    clock: Arc<dyn TraceClock>,
    // Cached at construction: consulted once per query on the scan
    // fast path, so it must not be a virtual call each time.
    wants_detail: bool,
}

/// A cheap, cloneable handle bundling a sink with the clock that stamps
/// its events. The default tracer is disabled and drops everything.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TracerInner>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Tracer")
            .field(&if self.0.is_some() {
                "enabled"
            } else {
                "disabled"
            })
            .finish()
    }
}

impl Tracer {
    /// A tracer forwarding to `sink`, stamping with `clock`.
    pub fn new(sink: Arc<dyn TraceSink>, clock: Arc<dyn TraceClock>) -> Self {
        let wants_detail = sink.wants_query_detail();
        Tracer(Some(Arc::new(TracerInner {
            sink,
            clock,
            wants_detail,
        })))
    }

    /// The disabled tracer (drops every event).
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// True when events actually go somewhere. Instrumented code may use
    /// this to skip building expensive event payloads.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// True when the attached sink reads detail strings (see
    /// [`TraceSink::wants_query_detail`]). Disabled tracers want
    /// nothing. Emitters may pass empty strings for `qname`-style
    /// fields when this is `false`.
    pub fn wants_query_detail(&self) -> bool {
        self.0.as_ref().is_some_and(|i| i.wants_detail)
    }

    /// Stamp and forward one event.
    pub fn emit(&self, event: TraceEvent) {
        if let Some(inner) = &self.0 {
            inner.sink.record(inner.clock.trace_now_millis(), &event);
        }
    }

    /// The tracer's current virtual time, if enabled.
    pub fn now_millis(&self) -> Option<u64> {
        self.0.as_ref().map(|i| i.clock.trace_now_millis())
    }
}

/// A slot holding a [`Tracer`] that can be swapped at run time, with a
/// lock-free fast path.
///
/// Every simulated query and every authoritative reply consults its
/// tracer, but a tracer is *attached* only at scan/troubleshoot
/// boundaries. Guarding the slot with a plain `Mutex` made every worker
/// of a scan serialize on it per query — even with tracing disabled.
/// Here the common read is one atomic load: disabled means no lock at
/// all, and when a sink is attached readers share an `RwLock` read lock
/// (writers are rare and brief).
#[derive(Default)]
pub struct TracerCell {
    enabled: std::sync::atomic::AtomicBool,
    slot: std::sync::RwLock<Tracer>,
}

impl TracerCell {
    /// Replace the tracer.
    pub fn set(&self, tracer: Tracer) {
        use std::sync::atomic::Ordering;
        let on = tracer.enabled();
        // Order matters when disabling: readers that still see the flag
        // up momentarily grab the (already replaced) disabled tracer,
        // never a stale sink.
        *self.slot.write().expect("no poisoning") = tracer;
        self.enabled.store(on, Ordering::Release);
    }

    /// The current tracer (cheap clone; disabled when none is attached).
    pub fn get(&self) -> Tracer {
        use std::sync::atomic::Ordering;
        if !self.enabled.load(Ordering::Acquire) {
            return Tracer::disabled();
        }
        self.slot.read().expect("no poisoning").clone()
    }
}

/// A bounded in-memory trace: the newest `capacity` events of one (or
/// more) resolutions, in arrival order. When full, the oldest events are
/// dropped and counted, never silently.
pub struct ResolutionTrace {
    events: Mutex<TraceState>,
    capacity: usize,
}

struct TraceState {
    ring: std::collections::VecDeque<TimedEvent>,
    dropped: u64,
}

impl ResolutionTrace {
    /// An empty trace retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        ResolutionTrace {
            events: Mutex::new(TraceState {
                ring: std::collections::VecDeque::with_capacity(capacity.min(1024)),
                dropped: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.events
            .lock()
            .expect("no poisoning")
            .ring
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("no poisoning").ring.len()
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.events.lock().expect("no poisoning").dropped
    }

    /// Discard everything (reuse between resolutions).
    pub fn clear(&self) {
        let mut st = self.events.lock().expect("no poisoning");
        st.ring.clear();
        st.dropped = 0;
    }

    /// Render the retained events as a `dig +trace`-style timeline:
    /// one line per event, stamped with milliseconds relative to the
    /// first retained event.
    pub fn render_timeline(&self) -> String {
        let events = self.events();
        let mut out = String::new();
        let t0 = events.first().map(|e| e.at_ms).unwrap_or(0);
        for e in &events {
            out.push_str(&format!(
                "  +{:>6} ms  {}\n",
                e.at_ms - t0,
                e.event.render()
            ));
        }
        let dropped = self.dropped();
        if dropped > 0 {
            out.push_str(&format!("  ({dropped} earlier events dropped)\n"));
        }
        out
    }

    /// Serialize the retained events as JSON lines (one event per line;
    /// see [`crate::json`] for the schema).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&crate::json::event_to_json(&e));
            out.push('\n');
        }
        out
    }
}

impl TraceSink for ResolutionTrace {
    fn record(&self, at_ms: u64, event: &TraceEvent) {
        let mut st = self.events.lock().expect("no poisoning");
        if st.ring.len() >= self.capacity {
            st.ring.pop_front();
            st.dropped += 1;
        }
        st.ring.push_back(TimedEvent {
            at_ms,
            event: event.clone(),
        });
    }
}

/// Fan one event stream out to several sinks (e.g. a ring buffer *and*
/// a metrics registry).
pub struct MultiSink(Vec<Arc<dyn TraceSink>>);

impl MultiSink {
    /// A sink forwarding to every element of `sinks`, in order.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        MultiSink(sinks)
    }
}

impl TraceSink for MultiSink {
    fn record(&self, at_ms: u64, event: &TraceEvent) {
        for s in &self.0 {
            s.record(at_ms, event);
        }
    }

    fn wants_query_detail(&self) -> bool {
        self.0.iter().any(|s| s.wants_query_detail())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct FixedClock(u64);
    impl TraceClock for FixedClock {
        fn trace_now_millis(&self) -> u64 {
            self.0
        }
    }

    fn ev(n: u16) -> TraceEvent {
        TraceEvent::ResolutionStarted {
            qname: format!("q{n}"),
            qtype: n,
        }
    }

    #[test]
    fn disabled_tracer_drops() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(ev(1)); // must not panic
        assert_eq!(t.now_millis(), None);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let trace = Arc::new(ResolutionTrace::new(3));
        let tracer = Tracer::new(trace.clone(), Arc::new(FixedClock(100)));
        assert!(tracer.enabled());
        for n in 0..5 {
            tracer.emit(ev(n));
        }
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.dropped(), 2);
        let events = trace.events();
        assert_eq!(events[0].event, ev(2));
        assert_eq!(events[0].at_ms, 100);
        assert!(trace.render_timeline().contains("2 earlier events dropped"));
        trace.clear();
        assert!(trace.is_empty());
    }

    #[test]
    fn multi_sink_fans_out() {
        struct Counter(AtomicU64);
        impl TraceSink for Counter {
            fn record(&self, _at: u64, _ev: &TraceEvent) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let a = Arc::new(Counter(AtomicU64::new(0)));
        let b = Arc::new(ResolutionTrace::new(8));
        let multi = Arc::new(MultiSink::new(vec![a.clone(), b.clone()]));
        let tracer = Tracer::new(multi, Arc::new(FixedClock(5)));
        tracer.emit(ev(9));
        assert_eq!(a.0.load(Ordering::Relaxed), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn timeline_is_relative_to_first_event() {
        let trace = Arc::new(ResolutionTrace::new(8));
        trace.record(1000, &ev(0));
        trace.record(1020, &ev(1));
        let tl = trace.render_timeline();
        assert!(tl.contains("+     0 ms"), "{tl}");
        assert!(tl.contains("+    20 ms"), "{tl}");
    }
}
