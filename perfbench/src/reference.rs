//! A fixed reference kernel, timed next to every measured sweep.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants
//! slow the same code down by up to about 1.8× for seconds to minutes at
//! a time, mostly through shared caches and memory rather than by taking
//! the core away, so neither wall time nor CPU time of a pass is steady
//! from run to run. The kernel here does a fixed amount of work of the
//! same kind as a trial — xorshift draws, hash-map updates and a FIFO
//! queue over a working set that fits in L2 — and is timed right before
//! and after each sweep. A slowdown of the host stretches both alike, so
//! the ratio of a sweep's time to the kernel's time around it follows the
//! program's own speed. The kernel never calls into the program, so a
//! change to the program moves only the sweep side of the ratio.
//!
//! A 2-thread sweep is compared with a slice on both threads at once, as
//! it lasts as long as its slower thread and both threads share the host.

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel slice typically takes on `threads` threads at
/// once on the 2-vCPU shared host the benchmark was sized on (the median
/// slice over its sizing runs: 22 ms on one thread, 52 ms on two; two
/// slices at once contend for that host's shared resources). Normalised
/// times are
/// `time / slice time × nominal_s(threads)`, so they read as seconds on
/// that host at its typical load.
pub fn nominal_s(threads: usize) -> f64 {
    if threads <= 1 {
        0.022
    } else {
        0.052
    }
}

/// Queue steps in one kernel slice.
const STEPS: u64 = 600_000;

/// Distinct keys of the kernel's hash map.
const KEYS: u64 = 4096;

/// Queue length at which the kernel starts popping.
const QUEUE: usize = 64;

/// One thread's kernel state. The map and queue keep their allocations
/// across slices, so a slice measures work, not the allocator.
#[derive(Default)]
pub struct Kernel {
    map: HashMap<u64, u64, BuildHasherDefault<std::collections::hash_map::DefaultHasher>>,
    queue: VecDeque<u64>,
}

impl Kernel {
    /// One slice of fixed work.
    fn slice(&mut self) {
        self.queue.clear();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % KEYS;
            *self.map.entry(key).or_insert(0) += i;
            self.queue.push_back(key);
            if self.queue.len() > QUEUE {
                let old = self.queue.pop_front().unwrap_or(0);
                black_box(self.map.get(&old));
            }
        }
    }
}

/// The kernels of the threads a pass may use, one each.
pub struct Reference {
    kernels: Vec<Kernel>,
}

impl Reference {
    pub fn new(threads: usize) -> Self {
        let mut kernels: Vec<Kernel> = (0..threads).map(|_| Kernel::default()).collect();
        for k in &mut kernels {
            k.slice();
        }
        Reference { kernels }
    }

    /// Wall time, in seconds, of one slice on each of `threads` threads
    /// at once (`threads` ≤ the count given to [`Reference::new`]): the
    /// same shape as a sweep on that many threads, which lasts as long as
    /// its slowest thread.
    pub fn time(&mut self, threads: usize) -> f64 {
        let start = Instant::now();
        if threads <= 1 {
            self.kernels[0].slice();
        } else {
            std::thread::scope(|scope| {
                for k in self.kernels.iter_mut().take(threads) {
                    scope.spawn(move || k.slice());
                }
            });
        }
        start.elapsed().as_secs_f64()
    }
}
