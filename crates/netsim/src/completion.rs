//! A deterministic completion-event queue for in-flight exchanges.
//!
//! The event-driven resolver core (see `docs/CONCURRENCY.md`) separates
//! *sending* a query from *observing* its outcome: [`crate::Network::send`]
//! returns an [`crate::transport::InFlight`] token carrying the absolute
//! virtual-clock deadline at which the outcome becomes observable, and a
//! scheduler parks the token here until that deadline is the earliest
//! pending one. The queue is the single source of event ordering, so its
//! ordering rules *are* the simulation's determinism rules:
//!
//! 1. events pop in ascending deadline order;
//! 2. events with equal deadlines pop in insertion (FIFO) order.
//!
//! Rule 2 matters more than it looks: the scan worlds run with zero
//! latency, so *every* completion shares one deadline and insertion order
//! alone decides the interleaving. Because insertion order is itself a
//! deterministic function of task spawn order, a scan at any in-flight
//! window is bit-reproducible (and `ede-scan` asserts it is).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    deadline_ms: u64,
    seq: u64,
    item: T,
}

// BinaryHeap is a max-heap: invert the comparison so the earliest
// (deadline, seq) pair is the heap root.
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.deadline_ms, other.seq).cmp(&(self.deadline_ms, self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline_ms == other.deadline_ms && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

/// A priority queue of pending completions, ordered by
/// `(deadline_ms, insertion order)`.
///
/// `T` is whatever the scheduler needs to resume work — `ede-resolver`'s
/// task pool stores a task id plus the in-flight token. The queue itself
/// never touches the clock; the consumer advances virtual time to each
/// popped deadline (see [`crate::SimClock::advance_to_millis`]).
///
/// ```
/// use ede_netsim::CompletionQueue;
///
/// let mut q = CompletionQueue::new();
/// q.push(200, "slow");
/// q.push(100, "fast");
/// q.push(100, "fast-but-later");
/// assert_eq!(q.pop(), Some((100, "fast")));
/// assert_eq!(q.pop(), Some((100, "fast-but-later")));
/// assert_eq!(q.pop(), Some((200, "slow")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Default)]
pub struct CompletionQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> CompletionQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        CompletionQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `item` to become observable at `deadline_ms` (absolute
    /// virtual-clock milliseconds).
    pub fn push(&mut self, deadline_ms: u64, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            deadline_ms,
            seq,
            item,
        });
    }

    /// Remove and return the earliest pending completion as
    /// `(deadline_ms, item)`, or `None` when nothing is pending.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|e| (e.deadline_ms, e.item))
    }

    /// Number of pending completions.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> std::fmt::Debug for CompletionQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("len", &self.len())
            .field("next_deadline_ms", &self.heap.peek().map(|e| e.deadline_ms))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_deadline_order() {
        let mut q = CompletionQueue::new();
        q.push(30, 'c');
        q.push(10, 'a');
        q.push(20, 'b');
        assert_eq!(q.pop(), Some((10, 'a')));
        assert_eq!(q.pop(), Some((20, 'b')));
        assert_eq!(q.pop(), Some((30, 'c')));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_deadlines_pop_fifo() {
        // The zero-latency scan case: every deadline identical, order
        // must be exactly insertion order.
        let mut q = CompletionQueue::new();
        for i in 0..100u32 {
            q.push(42, i);
        }
        assert_eq!(q.len(), 100);
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    /// Mixed deadline patterns must pop in exact `(deadline, seq)`
    /// order, the same order a sorted list would produce.
    #[test]
    fn mixed_deadlines_pop_in_total_order() {
        // Monotone runs, dips below the newest deadline, equal
        // deadlines, and a second wave pushed after half the queue has
        // drained, some of it ahead of what is still pending.
        let pattern: &[u64] = &[10, 10, 5, 7, 20, 3, 20, 1, 15, 15, 2, 30, 8];
        let mut q = CompletionQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for (seq, &d) in pattern.iter().enumerate() {
            q.push(d, seq as u64);
            expect.push((d, seq as u64));
        }
        // Interleave: pop half, push a second wave, pop the rest.
        expect.sort_unstable();
        let mut got: Vec<(u64, u64)> = Vec::new();
        for _ in 0..6 {
            let (d, s) = q.pop().unwrap();
            got.push((d, s));
        }
        for (i, &d) in [4u64, 40, 6].iter().enumerate() {
            let seq = (pattern.len() + i) as u64;
            q.push(d, seq);
        }
        let mut expect2: Vec<(u64, u64)> = expect.split_off(6);
        expect2.push((4, 13));
        expect2.push((40, 14));
        expect2.push((6, 15));
        expect2.sort_unstable();
        while let Some((d, s)) = q.pop() {
            got.push((d, s));
        }
        let mut full = expect;
        full.extend(expect2);
        assert_eq!(got, full);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_holds_under_interleaved_push_pop() {
        let mut q = CompletionQueue::new();
        q.push(5, "a");
        q.push(5, "b");
        assert_eq!(q.pop(), Some((5, "a")));
        q.push(5, "c");
        q.push(4, "early");
        assert_eq!(q.pop(), Some((4, "early")));
        assert_eq!(q.pop(), Some((5, "b")));
        assert_eq!(q.pop(), Some((5, "c")));
    }
}
