//! Live heap bytes of this process and their peak, counted by a wrapper
//! around the system allocator that every binary linking this crate uses.
//!
//! The wrapper changes nothing about how memory is allocated: every call
//! goes to the system allocator as it is. It only adds the size to one
//! shared count, and raises the peak when the count passes it. The count
//! is exact: a per-thread balance would lose what short-lived threads
//! allocate and leave behind, and the vendored rayon runs every parallel
//! iterator on fresh scoped threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn account(delta: isize) {
    let now = LIVE.fetch_add(delta, Relaxed) + delta;
    if delta > 0 && now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

/// The counting allocator.
pub struct Counting;

// SAFETY: every method forwards to `System` unchanged and only adds
// bookkeeping that neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            account(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            account(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        new
    }
}

const MB: f64 = 1024.0 * 1024.0;

/// Start a new peak at the current live count.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live heap since the last `reset_peak`, in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed).max(0) as f64 / MB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_a_large_allocation() {
        reset_peak();
        let before = peak_mb();
        let block = vec![1u8; 8 << 20];
        std::hint::black_box(&block);
        let during = peak_mb();
        drop(block);
        assert!(during - before >= 7.9, "{before} -> {during}");
        reset_peak();
        assert!(peak_mb() < during - 7.9, "reset keeps the old peak");
    }
}
