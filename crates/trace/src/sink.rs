//! Sinks: where stamped events go.
//!
//! The instrumented components never decide what happens to an event —
//! they hand it to a [`Tracer`], which stamps it with the virtual clock
//! and forwards it to whatever [`TraceSink`] the application attached:
//! a [`ResolutionTrace`] ring buffer for timelines or a
//! [`crate::Metrics`] registry for counters. A disabled tracer is one `Option` check — tracing off
//! costs nothing but that branch.

use crate::event::{TimedEvent, TraceEvent};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

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

    /// A tracer with its own `Arc`, holding the same sink and clock: what
    /// one clones and drops touches none of this one's reference counts.
    fn copy(&self) -> Tracer {
        Tracer(self.0.as_ref().map(|inner| {
            Arc::new(TracerInner {
                sink: Arc::clone(&inner.sink),
                clock: Arc::clone(&inner.clock),
                wants_detail: inner.wants_detail,
            })
        }))
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

/// A slot holding a [`Tracer`] that can be swapped at run time, read
/// without a lock and without a shared reference count.
///
/// Every simulated query, every resolution and every authoritative reply
/// consults its tracer, but a tracer is *attached* only at
/// scan/troubleshoot boundaries. With no sink attached, a read is one
/// atomic load. With one attached, each thread reads its own copy of the
/// tracer — its own `Arc`, holding the same sink and clock — so cloning
/// and dropping it writes only that thread's cache lines; the slot's
/// read lock is taken once per thread and attachment, when the thread
/// first misses.
///
/// Copies are keyed by a generation that [`set`](Self::set) draws from a
/// process-wide counter, never by the cell: a cell freed and another
/// made at the same address cannot hand out the first one's sink.
#[derive(Default)]
pub struct TracerCell {
    /// The generation in `slot`; 0 while the tracer is disabled.
    generation: AtomicU64,
    slot: RwLock<(u64, Tracer)>,
}

/// The next generation [`TracerCell::set`] hands out; 0 is "disabled".
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// How many `(generation, tracer)` copies a thread keeps.
const THREAD_COPIES: usize = 4;

/// One thread's tracer copies, oldest first.
struct ThreadCopies(Vec<(u64, Tracer)>);

impl ThreadCopies {
    /// This thread's copy of the tracer of `generation`, if it has one.
    fn find(&self, generation: u64) -> Option<Tracer> {
        let (_, tracer) = self.0.iter().find(|(g, _)| *g == generation)?;
        Some(tracer.clone())
    }

    /// Keep a copy, returning the oldest one when it had to make room.
    fn keep(&mut self, generation: u64, tracer: Tracer) -> Option<(u64, Tracer)> {
        let oldest = (self.0.len() == THREAD_COPIES).then(|| self.0.remove(0));
        self.0.push((generation, tracer));
        oldest
    }
}

thread_local! {
    static COPIES: RefCell<ThreadCopies> = const { RefCell::new(ThreadCopies(Vec::new())) };
}

impl TracerCell {
    /// Replace the tracer.
    pub fn set(&self, tracer: Tracer) {
        let mut slot = self.slot.write().expect("no poisoning");
        let generation = if tracer.enabled() {
            NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        *slot = (generation, tracer);
        self.generation.store(generation, Ordering::Release);
    }

    /// The current tracer, as this thread's copy (disabled when none is
    /// attached).
    pub fn get(&self) -> Tracer {
        let generation = self.generation.load(Ordering::Acquire);
        if generation == 0 {
            return Tracer::disabled();
        }
        // No copy when this thread's copies are already gone (it is
        // exiting): then every read is a miss.
        let hit = COPIES.try_with(|copies| copies.borrow().find(generation));
        hit.ok().flatten().unwrap_or_else(|| self.miss())
    }

    /// This thread has no copy of the current tracer: make one under the
    /// read lock and keep it.
    fn miss(&self) -> Tracer {
        let (generation, tracer) = {
            let slot = self.slot.read().expect("no poisoning");
            (slot.0, slot.1.copy())
        };
        if generation != 0 {
            // The copy this one replaces drops here, after the borrow is
            // released: its sink's destructor may read a tracer.
            let _oldest =
                COPIES.try_with(|copies| copies.borrow_mut().keep(generation, tracer.clone()));
        }
        tracer
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_thread_that_read_one_sink_follows_the_cell_to_the_next() {
        let cell = TracerCell::default();
        let (a, b) = (
            Arc::new(ResolutionTrace::new(8)),
            Arc::new(ResolutionTrace::new(8)),
        );
        cell.set(Tracer::new(a.clone(), Arc::new(FixedClock(1))));
        cell.get().emit(ev(1));
        cell.get().emit(ev(2));
        cell.set(Tracer::new(b.clone(), Arc::new(FixedClock(2))));
        cell.get().emit(ev(3));
        assert_eq!((a.len(), b.len()), (2, 1));
        assert_eq!(b.events()[0].at_ms, 2);

        // Clearing: disabled, and nothing reaches either sink.
        cell.set(Tracer::disabled());
        let cleared = cell.get();
        assert!(!cleared.enabled());
        cleared.emit(ev(4));
        assert_eq!((a.len(), b.len()), (2, 1));
    }

    /// A thread's copies are keyed by generation, not by cell: a cell
    /// made where a dropped one lived starts from its own sink.
    #[test]
    fn a_new_cell_never_serves_an_earlier_cells_sink() {
        for round in 0..64 {
            let cell = TracerCell::default();
            let sink = Arc::new(ResolutionTrace::new(8));
            cell.set(Tracer::new(sink.clone(), Arc::new(FixedClock(round))));
            cell.get().emit(ev(0));
            assert_eq!(sink.len(), 1, "round {round}");
            assert_eq!(sink.events()[0].at_ms, round);
        }
    }

    #[test]
    fn copies_share_the_sink_not_the_reference_count() {
        let cell = TracerCell::default();
        let sink = Arc::new(ResolutionTrace::new(8));
        let tracer = Tracer::new(sink.clone(), Arc::new(FixedClock(0)));
        cell.set(tracer.clone());
        let (first, second) = (cell.get(), cell.get());
        let (Some(first), Some(second), Some(set)) = (&first.0, &second.0, &tracer.0) else {
            panic!("enabled tracers");
        };
        assert!(Arc::ptr_eq(first, second), "one copy per thread");
        assert!(!Arc::ptr_eq(first, set), "not the attached handle");
        let other = std::thread::scope(|s| s.spawn(|| cell.get()).join().unwrap());
        assert!(!Arc::ptr_eq(first, other.0.as_ref().unwrap()));
        other.emit(ev(1));
        assert_eq!(sink.len(), 1);
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
