//! The reference load `scan_wild` is calibrated against: a loop of the
//! benchmark's own that does what resolver code does — hash-map and
//! B-tree lookups by name, a short-lived allocation per step, a byte-wise
//! hash over what it found — and nothing of the product's, so a change to
//! the product cannot move it.
//!
//! Why this and not a spin loop: the box's speed changes hit code by its
//! kind. Over two minutes in which 0.3 s scans spread 19 % (quartile
//! distance of 12 s medians), their ratio to this loop run either side
//! spread 5.8 % and their ratio to a multiply-add spin loop 17.8 %.

use crate::loadgen::SliceResult;
use crate::procfs;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Names in the tables: about 10 MB with their values, more than the
/// 4 MB L2 and far less than the scan's world.
const NAMES: usize = 40_000;

/// `DefaultHasher::default()` has fixed keys: the same table layout in
/// every process, where `RandomState` would give each its own.
type FixedState = BuildHasherDefault<DefaultHasher>;

pub struct RefLoad {
    names: Vec<Vec<u8>>,
    by_hash: HashMap<Vec<u8>, Vec<u8>, FixedState>,
    by_order: BTreeMap<Vec<u8>, u32>,
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RefLoad {
    /// The same tables whatever the workload's seed.
    pub fn new() -> RefLoad {
        let mut x = 7u64;
        let mut load = RefLoad {
            names: Vec::with_capacity(NAMES),
            by_hash: HashMap::default(),
            by_order: BTreeMap::new(),
        };
        for i in 0..NAMES {
            let name = format!(
                "n{:x}.d{:x}.example",
                splitmix(&mut x) % 100_000,
                splitmix(&mut x)
            )
            .into_bytes();
            let len = 40 + splitmix(&mut x) % 120;
            let value: Vec<u8> = (0..len).map(|j| (j as u8) ^ (i as u8)).collect();
            load.by_hash.insert(name.clone(), value);
            load.by_order.insert(name.clone(), i as u32);
            load.names.push(name);
        }
        load
    }

    /// `steps` steps on the calling thread; the return value depends on
    /// every one of them.
    fn steps(&self, steps: usize) -> u64 {
        let mut x = 3u64;
        let mut sum = 0u64;
        let mut held: Vec<Vec<u8>> = Vec::with_capacity(64);
        for _ in 0..steps {
            let name = &self.names[(splitmix(&mut x) % NAMES as u64) as usize];
            let value = &self.by_hash[name];
            let mut found = Vec::with_capacity(32);
            found.extend_from_slice(value);
            found.extend_from_slice(name);
            let mut h = 0xcbf2_9ce4_8422_2325_u64;
            for b in &found {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            }
            sum = sum
                .wrapping_add(h)
                .wrapping_add(u64::from(self.by_order[name]));
            if held.len() == 64 {
                held.clear();
            }
            held.push(found);
        }
        sum
    }

    /// One calibration segment: `steps` steps on each of `threads`
    /// threads at once, as the scan runs its workers. `completed` counts
    /// one thread's steps, so wall time per op is a thread's time per
    /// step and CPU time per op is `threads` times that.
    pub fn segment(&self, threads: usize, steps: usize) -> SliceResult {
        let cpu_before = procfs::cpu_seconds();
        let started = Instant::now();
        if threads == 1 {
            std::hint::black_box(self.steps(steps));
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| std::hint::black_box(self.steps(steps)));
                }
            });
        }
        SliceResult {
            attempted: steps as u64,
            completed: steps as u64,
            wall_s: started.elapsed().as_secs_f64(),
            cpu_s: procfs::cpu_seconds() - cpu_before,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_steps_every_time() {
        let (a, b) = (RefLoad::new(), RefLoad::new());
        assert_eq!(a.steps(5_000), b.steps(5_000));
        assert_ne!(a.steps(5_000), a.steps(5_001));
        assert_eq!(a.names.len(), NAMES);
    }

    #[test]
    fn a_segment_counts_one_threads_steps() {
        let load = RefLoad::new();
        for threads in [1, 2] {
            let s = load.segment(threads, 20_000);
            assert_eq!((s.attempted, s.completed, s.failed()), (20_000, 20_000, 0));
            assert!(s.wall_s > 0.0 && s.cpu_s > 0.0);
        }
    }
}
