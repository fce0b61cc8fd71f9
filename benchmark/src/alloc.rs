//! A counting global allocator for the `*_allocs` rows: every allocation
//! on a thread bumps that thread's counter, which the replay reads around
//! each span. Counts are per thread, so a server or echo thread running
//! beside the replay cannot leak into its rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates and stays valid while a thread is torn down.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of `alloc`,
/// `alloc_zeroed` and `realloc` calls.
pub struct Counting;

#[inline]
fn bump() {
    // `try_with` so an allocation made after this thread's locals are
    // gone is served without being counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_only() {
        let before = thread_allocs();
        let v: Vec<u64> = Vec::with_capacity(32);
        let b = Box::new(7u8);
        let after = thread_allocs();
        assert_eq!(after - before, 2);
        drop((v, b));
        assert_eq!(thread_allocs(), after, "frees are not counted");

        // Spawning allocates a little on this thread; the thousand
        // allocations made on the other one must not show up here.
        let other = std::thread::spawn(|| {
            let start = thread_allocs();
            for _ in 0..1000 {
                std::hint::black_box(String::with_capacity(100));
            }
            thread_allocs() - start
        })
        .join()
        .unwrap();
        assert_eq!(other, 1000);
        assert!(
            thread_allocs() - after < 100,
            "another thread's allocations leaked in"
        );
    }
}
