//! A global allocator whose allocation counting can be switched off.
//!
//! Traced runs count allocations through the vendored `counting_alloc`
//! (the obs spans sample its per-thread counters); untraced runs go
//! straight to the system allocator, so the end-to-end numbers carry no
//! counting cost beyond one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Turns allocation counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Whether allocations are being counted.
#[must_use]
pub fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// The switchable allocator; install with `#[global_allocator]`.
pub struct Switchable;

const COUNTED: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc::new();

// SAFETY: every call forwards unchanged to `System`, either directly or
// through `CountingAlloc`, which itself forwards to `System` after
// bumping its counters; memory from either path is freed by `System`.
unsafe impl GlobalAlloc for Switchable {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            COUNTED.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            COUNTED.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            COUNTED.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}
