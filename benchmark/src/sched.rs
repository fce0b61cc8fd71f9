//! What the benchmark asks of the kernel directly, through the C library
//! `std` already links: one CPU and no wake-up preemption for the serve
//! workloads, and the process CPU clock in nanoseconds.
//!
//! Why one CPU and `SCHED_BATCH` (numbers in README.md): with generator
//! and server on two vCPUs every hand-off is a cross-CPU wake-up, whose
//! cost on this VM swings with halt/wake state (slices of one run between
//! 23 k and 124 k ops/s). On one CPU under the default policy the woken
//! side sometimes preempts the waker and sometimes does not, so the pair
//! flips between a switch per op and a switch per window (8 or 13 µs of
//! CPU per op). Under `SCHED_BATCH` a woken thread never preempts: each
//! side runs until it blocks, a window at a time, every time.

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];
    pub const SCHED_BATCH: i32 = 3;
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    /// `struct timespec` where `time_t` and `long` are both 64 bits.
    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }

    /// `struct sched_param`.
    #[repr(C)]
    pub struct SchedParam {
        pub priority: i32,
    }

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// Confine this thread, and every thread it starts from now on, to the
/// highest-numbered CPU it may use (the lowest takes the interrupts),
/// under `SCHED_BATCH`. Call before anything is spawned. Returns one line
/// per step for the log; a refusal is reported there and the run goes on
/// unpinned.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn one_cpu_batch() -> Vec<String> {
    let mut notes = Vec::new();
    let mut allowed: sys::CpuSet = [0; 16];
    let size = std::mem::size_of::<sys::CpuSet>();
    // SAFETY: `allowed` is a writable cpu_set_t of `size` bytes; pid 0 is
    // the calling thread.
    let got = unsafe { sys::sched_getaffinity(0, size, &mut allowed) };
    let last = allowed
        .iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize);
    match (got, last) {
        (0, Some(cpu)) => {
            let mut one: sys::CpuSet = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            // SAFETY: `one` is a readable cpu_set_t of `size` bytes.
            if unsafe { sys::sched_setaffinity(0, size, &one) } == 0 {
                notes.push(format!("generator and server share CPU {cpu}"));
            } else {
                notes.push("NOT PINNED: sched_setaffinity was refused".into());
            }
        }
        _ => notes.push("NOT PINNED: sched_getaffinity was refused".into()),
    }
    let param = sys::SchedParam { priority: 0 };
    // SAFETY: `param` is a readable sched_param; pid 0 is the calling
    // thread.
    if unsafe { sys::sched_setscheduler(0, sys::SCHED_BATCH, &param) } == 0 {
        notes.push("SCHED_BATCH: a woken thread waits until the running one blocks".into());
    } else {
        notes.push("NOT SCHED_BATCH: sched_setscheduler was refused".into());
    }
    notes
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn one_cpu_batch() -> Vec<String> {
    vec!["NOT PINNED: not a 64-bit Linux".into()]
}

/// CPU seconds of this process, all threads, exited ones included, from
/// the process CPU clock (nanoseconds). `None` where there is none.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_seconds() -> Option<f64> {
    let mut ts = sys::Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable timespec.
    let ok = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0;
    ok.then(|| ts.sec as f64 + ts.nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_seconds() -> Option<f64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cpu_clock_advances_with_work() {
        let Some(before) = process_cpu_seconds() else {
            return;
        };
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let after = process_cpu_seconds().expect("the clock was there a moment ago");
        assert!(after > before, "{before} then {after}");
        assert!(after - before < 5.0);
    }

    #[test]
    fn pinning_a_thread_leaves_it_running() {
        // On a thread of its own, so the rest of the test binary keeps
        // its CPUs.
        let notes = std::thread::spawn(one_cpu_batch).join().unwrap();
        assert_eq!(notes.len(), 2, "{notes:?}");
    }
}
