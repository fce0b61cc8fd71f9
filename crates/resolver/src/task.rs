//! Single-threaded resumable-task executor for massive in-flight
//! concurrency.
//!
//! Each resolution becomes a *task*: a future that owns its pending
//! queries and suspends whenever it would block on the simulated
//! network. A [`ResolutionPool`] multiplexes thousands of such tasks on
//! one OS thread by draining a deterministic completion-event queue
//! ([`ede_netsim::CompletionQueue`]): the earliest-deadline event is
//! serviced, the owning task is polled one step, and any new waits it
//! registers go back into the queue; a task waiting for a zone's keys
//! that another task is fetching is polled again after every step. No
//! OS scheduler, no wakers that do anything, no nondeterminism —
//! `docs/CONCURRENCY.md` specifies the full model.
//!
//! Two entry points share the machinery:
//!
//! * [`ResolutionPool`] — the public pool. `spawn` admits a task,
//!   `next` runs the event loop until a task finishes and hands back
//!   its result. With `spawn`/`next` interleaved a caller keeps a
//!   bounded number of resolutions in flight.
//! * `run_local` (crate-internal) — drives exactly one task to
//!   completion behind the blocking [`crate::Resolver::resolve`] call.
//!   It emits no task-lifecycle events, and is the independent
//!   reference the pool is compared against. It polls no pool, so a
//!   thread whose pool holds tasks in flight does not call it on the
//!   same resolver: its task could wait for ever on a zone a parked
//!   pool task is building.
//!
//! # Example
//!
//! ```
//! use ede_netsim::{NetworkBuilder, SimClock};
//! use ede_resolver::{ResolutionPool, Resolver, ResolverConfig, Vendor, VendorProfile};
//! use ede_wire::{Name, Rcode, RrType};
//! use std::sync::Arc;
//!
//! // An empty simulated internet: every root hint times out, so each
//! // resolution fails fast — enough to show the pool mechanics.
//! let net = Arc::new(NetworkBuilder::new().build(SimClock::new()));
//! let resolver = Resolver::new(
//!     net,
//!     VendorProfile::new(Vendor::Bind9),
//!     ResolverConfig::default(),
//! );
//! let names: Vec<Name> = ["a.example", "b.example", "c.example"]
//!     .iter()
//!     .map(|n| Name::parse(n).unwrap())
//!     .collect();
//!
//! // Three lookups in flight on one thread, one pool, all borrowing
//! // the resolver and their names. Results arrive in completion
//! // order, so tag each task with its index.
//! let mut pool = ResolutionPool::new(resolver.network());
//! for (i, qname) in names.iter().enumerate() {
//!     let resolver = &resolver;
//!     pool.spawn(move |handle| async move {
//!         (i, resolver.resolve_with(&handle, qname, RrType::A).await)
//!     });
//! }
//! let mut done = 0;
//! for (_i, resolution) in &mut pool {
//!     assert_eq!(resolution.rcode, Rcode::ServFail);
//!     done += 1;
//! }
//! assert_eq!(done, 3);
//! ```

use ede_netsim::{CompletionQueue, InFlight, NetError, Network};
use ede_trace::{TraceEvent, Tracer};
use ede_wire::Message;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// What an exchange leaves for the task that awaited it.
type NetOutcome = Result<Message, NetError>;

/// One registered suspension: which task is parked and the exchange it
/// awaits. At most one `Wait` per task exists at any instant (a task
/// awaits a single exchange at a time). Servicing it completes the
/// exchange (advancing the virtual clock to its deadline) and deposits
/// the outcome in the task's [`Reactor::outcomes`] entry for its next
/// poll.
struct Wait {
    task: usize,
    inflight: InFlight,
}

/// The per-pool event state shared (via `Rc`) with every task handle:
/// the deterministic completion queue of pending waits, where each
/// task picks up the outcome of the exchange it awaited, and the tasks
/// parked on [`TaskHandle::recheck`].
struct Reactor {
    queue: CompletionQueue<Wait>,
    /// Indexed by task slot. A task awaits one exchange at a time, so
    /// one entry per task is enough, and it is reused by every exchange
    /// the task (and the slot's later tasks) makes.
    outcomes: Vec<Option<NetOutcome>>,
    /// Task slots to poll again once time has passed.
    parked: Vec<usize>,
}

impl Reactor {
    /// A shareable reactor with outcome entries for `tasks` task slots.
    fn shared(tasks: usize) -> Rc<RefCell<Reactor>> {
        Rc::new(RefCell::new(Reactor {
            queue: CompletionQueue::new(),
            outcomes: std::iter::repeat_with(|| None).take(tasks).collect(),
            parked: Vec::new(),
        }))
    }
}

/// Pop the earliest wait and service it: complete the exchange (clock
/// advance, delivery/timeout accounting, trace events — the side
/// effects whose *timing* the queue ordered) and leave the outcome for
/// the task. Returns the task to poll next. With no wait pending, every
/// live task is parked on a zone a task of another thread is building:
/// yield the thread to it and return `None`.
fn service_next(net: &Network, reactor: &RefCell<Reactor>) -> Option<usize> {
    let popped = reactor.borrow_mut().queue.pop();
    let Some((_deadline_ms, Wait { task, inflight })) = popped else {
        std::thread::yield_now();
        return None;
    };
    let outcome = net.complete(inflight);
    reactor.borrow_mut().outcomes[task] = Some(outcome);
    Some(task)
}

/// A do-nothing waker. The pool never relies on wakeups — it knows
/// exactly which task to poll because every suspension is registered
/// in the completion queue — so the `Waker` handed to futures is inert.
struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

thread_local! {
    /// The thread's one inert waker (`Waker::noop` needs Rust 1.85).
    static NOOP_WAKER: Waker = Waker::from(Arc::new(NoopWake));
    /// The reactor the thread's last [`run_local`] call finished with,
    /// kept so that the next call allocates neither a reactor nor a
    /// queue buffer.
    static IDLE_REACTOR: RefCell<Option<Rc<RefCell<Reactor>>>> = const { RefCell::new(None) };
}

/// Capability handed to each task for suspending itself. Cloneable and
/// cheap; holds the pool's reactor and the task's slot index.
///
/// A handle is only usable from futures driven by the pool (or
/// blocking driver) that issued it — it is deliberately `!Send`, like
/// the pool itself.
#[derive(Clone)]
pub struct TaskHandle {
    reactor: Rc<RefCell<Reactor>>,
    task: usize,
}

impl TaskHandle {
    /// Suspend until the in-flight exchange completes, yielding its
    /// outcome. The send-time side effects already happened inside
    /// [`Network::send`]; this schedules the completion at the
    /// exchange's deadline and parks the task.
    pub fn await_net(&self, inflight: InFlight) -> NetFuture {
        NetFuture {
            reactor: self.reactor.clone(),
            task: self.task,
            inflight: Some(inflight),
        }
    }

    /// Suspend until time has passed: the next exchange on this thread
    /// completed, or, with none pending, the thread yielded. How a task
    /// waits for a zone's keys that another task is fetching.
    pub(crate) fn recheck(&self) -> impl Future<Output = ()> + '_ {
        let mut parked = false;
        std::future::poll_fn(move |_| {
            if std::mem::replace(&mut parked, true) {
                return Poll::Ready(());
            }
            self.reactor.borrow_mut().parked.push(self.task);
            Poll::Pending
        })
    }
}

/// Future returned by [`TaskHandle::await_net`].
pub struct NetFuture {
    reactor: Rc<RefCell<Reactor>>,
    task: usize,
    inflight: Option<InFlight>,
}

impl Future for NetFuture {
    type Output = NetOutcome;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut reactor = this.reactor.borrow_mut();
        if let Some(inflight) = this.inflight.take() {
            let task = this.task;
            reactor
                .queue
                .push(inflight.deadline_ms(), Wait { task, inflight });
            return Poll::Pending;
        }
        // The pool only re-polls a task after servicing its wait, so
        // the outcome is there.
        match reactor.outcomes[this.task].take() {
            Some(outcome) => Poll::Ready(outcome),
            None => Poll::Pending,
        }
    }
}

/// A slot in the pool's task table. Slots are reused after completion
/// so memory stays bounded by the *in-flight* count, not the total
/// number of tasks ever spawned.
struct SlotEntry<'a, T> {
    fut: Option<Pin<Box<dyn Future<Output = T> + 'a>>>,
    /// Pool-scoped display id, increasing in spawn order (used in
    /// `TaskSpawned`/`TaskCompleted` trace events).
    id: u64,
}

/// A single-threaded pool of resumable resolution tasks multiplexed
/// over one deterministic completion-event queue.
///
/// The caller drives the pool explicitly: [`spawn`](Self::spawn) admits
/// a task (polling it eagerly — tasks that never block, e.g. cache
/// hits, finish inside `spawn`), and [`next`](Self::next) steps the
/// event loop until some task finishes, returning its result. Results
/// are delivered in *completion* order, not spawn order; tag tasks
/// with their index if order matters.
///
/// Scheduling is fully deterministic: pending completions are serviced
/// in ascending deadline order, FIFO among equal deadlines (see
/// [`ede_netsim::CompletionQueue`]). With the same spawns in the same
/// order, every run produces the identical event sequence.
///
/// `'a` is how long the pool borrows its network, and the bound on what
/// tasks may borrow: a task can hold `&'a Resolver` and `&'a Name`
/// instead of owning clones of them.
pub struct ResolutionPool<'a, T> {
    net: &'a Network,
    tracer: Tracer,
    reactor: Rc<RefCell<Reactor>>,
    slots: Vec<SlotEntry<'a, T>>,
    free: Vec<usize>,
    ready: VecDeque<T>,
    /// Tasks admitted and not yet completed.
    live: usize,
    /// Total tasks ever spawned (source of display ids).
    spawned: u64,
    waker: Waker,
}

impl<'a, T> ResolutionPool<'a, T> {
    /// Create an empty pool bound to one simulated network. The pool
    /// captures the network's current trace sink for task-lifecycle
    /// events; attach sinks before building pools.
    pub fn new(net: &'a Network) -> Self {
        let tracer = net.tracer();
        ResolutionPool {
            net,
            tracer,
            reactor: Reactor::shared(0),
            slots: Vec::new(),
            free: Vec::new(),
            ready: VecDeque::new(),
            live: 0,
            spawned: 0,
            waker: NOOP_WAKER.with(Waker::clone),
        }
    }

    /// Number of tasks admitted and not yet completed (including any
    /// whose results are buffered but not yet collected via `next`).
    pub fn in_flight(&self) -> usize {
        self.live
    }

    /// Number of pending completion events (network exchanges) the
    /// pool is waiting on.
    pub fn queued(&self) -> usize {
        self.reactor.borrow().queue.len()
    }

    /// Number of task slots ever allocated. Slots are recycled on
    /// completion, so this tracks the peak in-flight count — the pool's
    /// memory bound — not the total number of tasks spawned.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// True when no task is in flight and no result is buffered:
    /// [`next`](Self::next) would return `None`.
    pub fn is_idle(&self) -> bool {
        self.live == 0 && self.ready.is_empty()
    }

    /// Admit a resolution task. `make` receives the [`TaskHandle`] the
    /// task must use for every suspension and returns the task future
    /// (see [`crate::Resolver::resolve_with`]).
    ///
    /// The task is polled eagerly: work up to its first suspension —
    /// or all of it, for tasks that never block — happens inside
    /// `spawn`, and synchronously-finished results are buffered for
    /// [`next`](Self::next).
    pub fn spawn<F, M>(&mut self, make: M)
    where
        M: FnOnce(TaskHandle) -> F,
        F: Future<Output = T> + 'a,
    {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(SlotEntry { fut: None, id: 0 });
                self.reactor.borrow_mut().outcomes.push(None);
                self.slots.len() - 1
            }
        };
        let id = self.spawned;
        self.spawned += 1;
        let handle = TaskHandle {
            reactor: self.reactor.clone(),
            task: slot,
        };
        self.slots[slot] = SlotEntry {
            fut: Some(Box::pin(make(handle))),
            id,
        };
        self.live += 1;
        self.tracer.emit(TraceEvent::TaskSpawned {
            task: id,
            in_flight: self.live,
            queued: self.reactor.borrow().queue.len(),
        });
        self.poll_slot(slot);
    }

    /// Poll the task in `slot` one step; on completion buffer its
    /// result, recycle the slot, and announce the lifecycle event.
    fn poll_slot(&mut self, slot: usize) {
        let mut fut = self.slots[slot]
            .fut
            .take()
            .expect("polled slot holds a task");
        let mut cx = Context::from_waker(&self.waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(result) => {
                self.live -= 1;
                let id = self.slots[slot].id;
                self.free.push(slot);
                self.ready.push_back(result);
                self.tracer.emit(TraceEvent::TaskCompleted {
                    task: id,
                    in_flight: self.live,
                    queued: self.reactor.borrow().queue.len(),
                });
            }
            Poll::Pending => {
                self.slots[slot].fut = Some(fut);
            }
        }
    }
}

impl<T> Iterator for ResolutionPool<'_, T> {
    type Item = T;

    /// Run the event loop until some task finishes and return its
    /// result, or `None` when the pool is idle. Results arrive in
    /// completion order. The pool is not fused: spawning after `None`
    /// makes `next` yield results again.
    ///
    /// Each step services the earliest wait and polls its task, then
    /// polls every task parked on a zone's keys (`TaskHandle::recheck`).
    fn next(&mut self) -> Option<T> {
        loop {
            if let Some(result) = self.ready.pop_front() {
                return Some(result);
            }
            if self.live == 0 {
                return None;
            }
            if let Some(slot) = service_next(self.net, &self.reactor) {
                self.poll_slot(slot);
            }
            let parked = std::mem::take(&mut self.reactor.borrow_mut().parked);
            for slot in parked {
                self.poll_slot(slot);
            }
        }
    }
}

impl<T> std::fmt::Debug for ResolutionPool<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolutionPool")
            .field("in_flight", &self.live)
            .field("queued", &self.queued())
            .field("spawned", &self.spawned)
            .finish()
    }
}

impl std::fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("task", &self.task)
            .finish()
    }
}

/// Drive exactly one task to completion on the calling thread: the
/// driver behind the blocking [`crate::Resolver::resolve`] API, a
/// private single-slot event loop with no task-lifecycle events. The
/// task is pinned on this frame and the reactor is the thread's kept
/// one, so a call allocates nothing of its own.
pub(crate) fn run_local<T, F, M>(net: &Network, make: M) -> T
where
    M: FnOnce(TaskHandle) -> F,
    F: Future<Output = T>,
{
    let reactor = IDLE_REACTOR
        .with(|idle| idle.borrow_mut().take())
        .unwrap_or_else(|| Reactor::shared(1));
    let handle = TaskHandle {
        reactor: reactor.clone(),
        task: 0,
    };
    let mut fut = std::pin::pin!(make(handle));
    let result = NOOP_WAKER.with(|waker| {
        let mut cx = Context::from_waker(waker);
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(result) => return result,
                Poll::Pending => {
                    service_next(net, &reactor);
                    reactor.borrow_mut().parked.clear();
                }
            }
        }
    });
    // A finished task has consumed every wait it registered: the
    // reactor goes back empty.
    debug_assert_eq!(reactor.borrow().queue.len(), 0);
    IDLE_REACTOR.with(|idle| *idle.borrow_mut() = Some(reactor));
    result
}
