//! A counting global allocator: live-heap growth, its peak, and the number
//! of allocations, recorded only between [`start`] and [`stop`]. Outside a
//! window each call costs one relaxed load, so timed passes run with
//! counting off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The benchmark binary's global allocator.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counters
// are plain atomics and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees a non-zero size.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && ON.load(Relaxed) {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() && ON.load(Relaxed) {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            shrink(layout.size());
        }
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator's blocks all come from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator (hence from `System`) and a valid
        // `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() && ON.load(Relaxed) {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

/// What one counting window saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapUsage {
    /// Peak of (live bytes − live bytes at [`start`]).
    pub peak_growth_bytes: i64,
    /// Allocations (including reallocations) made in the window.
    pub allocs: u64,
}

/// Open a counting window.
pub fn start() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ALLOCS.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Allocations made so far in the open window.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Close the window and report it.
pub fn stop() -> HeapUsage {
    ON.store(false, Relaxed);
    HeapUsage {
        peak_growth_bytes: PEAK.load(Relaxed),
        allocs: ALLOCS.load(Relaxed),
    }
}
