//! Striped counters: one copy of a counter block per stripe, each on
//! cache lines of its own, so that threads counting the same thing write
//! different lines.
//!
//! A count bumped once per resolution from every scan worker is one
//! cache line that every core writes: each bump takes the line away from
//! the core that bumped it last. [`Striped`] gives each thread its own
//! copy to bump — the stripe it was handed, round-robin, the first time
//! it counted anything — and leaves the sum to whoever reads, which
//! happens once per snapshot instead of once per event. Stripes are
//! still atomics: with more threads than [`STRIPES`], two threads share
//! one, and their counts must not be lost.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Copies per striped block. Above the worker count of a scan on any box
/// this runs on, small enough that summing at snapshot stays trivial.
pub const STRIPES: usize = 8;

/// One stripe on lines of its own: 128 bytes covers adjacent-line
/// prefetch pairs as well as 64-byte lines.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

/// [`STRIPES`] copies of `T`. Writers go through [`Striped::local`],
/// readers fold over [`Striped::iter`].
#[derive(Debug, Default)]
pub struct Striped<T> {
    stripes: [Padded<T>; STRIPES],
}

/// The next stripe to hand out.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe; `usize::MAX` until it first counts.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stripe index, chosen on its first call.
fn stripe() -> usize {
    STRIPE.with(|stripe| {
        let mut index = stripe.get();
        if index == usize::MAX {
            index = NEXT_STRIPE.fetch_add(1, Relaxed) % STRIPES;
            stripe.set(index);
        }
        index
    })
}

impl<T> Striped<T> {
    /// The calling thread's copy: the one to write.
    pub fn local(&self) -> &T {
        &self.stripes[stripe()].0
    }

    /// Every copy, for a reader to fold.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.stripes.iter().map(|padded| &padded.0)
    }

    /// Add one to `counter` of the calling thread's copy.
    pub fn bump(&self, counter: impl Fn(&T) -> &AtomicU64) {
        counter(self.local()).fetch_add(1, Relaxed);
    }

    /// `counter` summed over every copy.
    pub fn sum(&self, counter: impl Fn(&T) -> &AtomicU64) -> u64 {
        self.iter().map(|copy| counter(copy).load(Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps_from_more_threads_than_stripes_all_land() {
        const THREADS: usize = 16;
        const BUMPS: u64 = 10_000;
        const { assert!(THREADS > STRIPES) };
        let counter: Striped<AtomicU64> = Striped::default();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..BUMPS {
                        counter.bump(|c| c);
                    }
                });
            }
        });
        assert_eq!(counter.sum(|c| c), THREADS as u64 * BUMPS);
    }

    #[test]
    fn a_thread_keeps_its_stripe_and_stripes_do_not_share_lines() {
        let counter: Striped<AtomicU64> = Striped::default();
        assert!(std::ptr::eq(counter.local(), counter.local()));
        let addresses: Vec<usize> = counter.iter().map(|c| c as *const _ as usize).collect();
        for pair in addresses.windows(2) {
            assert!(pair[1] - pair[0] >= 128, "{addresses:?}");
        }
    }
}
