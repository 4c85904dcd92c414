//! Heap accounting for the benchmark process.
//!
//! The process's peak RSS is not a steady figure for this program: each
//! sweep worker thread takes a C-allocator arena, and whether it finds a
//! free one or creates a new one depends on whether its predecessor has
//! fully exited yet. Every arena keeps a few hundred KiB resident, so the
//! RSS of the same code on the same input steps up at random by ~8%.
//! The end-to-end memory figure is therefore the peak of the bytes the
//! program holds on the heap, counted by a wrapper around the system
//! allocator. Counting is switched on only while memory is measured;
//! otherwise the wrapper adds one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// The system allocator, with heap bytes counted while [`ON`] is set.
struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting started.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The largest value [`LIVE`] reached since counting started.
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: isize) {
    if ON.load(Relaxed) {
        let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper
// only updates counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        grew(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grew(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `body` with heap counting on and returns the peak of the bytes
/// it held on the heap beyond what was live when it started, in MiB.
/// Memory freed during `body` that was allocated before it counts
/// against that peak, so the figure is never more than `body` needed.
pub fn heap_peak_mb(body: impl FnOnce()) -> f64 {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    body();
    ON.store(false, Relaxed);
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
