//! Peak live-heap accounting: the benchmark's global allocator forwards
//! to the system allocator and tracks the bytes currently allocated and
//! their high-water mark.
//!
//! Resident set size is a poor memory metric here: glibc hands each new
//! thread one of several arenas, and which arenas end up holding freed
//! memory differs from run to run, so `VmHWM` of one workload spreads by
//! half between runs. Live heap bytes count what the program asked for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the returned pointers carry `System`'s guarantees; the counters only
// observe sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // size contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Start a new high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live heap since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
