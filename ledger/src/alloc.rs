//! A counting `#[global_allocator]`: allocations and bytes requested,
//! split by allocating thread (the driver thread versus every other
//! thread, i.e. the runtime's node threads). Off by default — one
//! relaxed load per allocation — and switched on only for the untimed
//! count pass, so the timed windows never pay for it.
//!
//! Counts are of requests (`alloc`, `alloc_zeroed`, and `realloc` as one
//! request of the new size); frees are not tracked. On fixed inputs the
//! counts repeat exactly from process to process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The allocator type installed in `main.rs`.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static DRIVER_ALLOCS: AtomicU64 = AtomicU64::new(0);
static DRIVER_BYTES: AtomicU64 = AtomicU64::new(0);
static OTHER_ALLOCS: AtomicU64 = AtomicU64::new(0);
static OTHER_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator can neither allocate nor observe a torn-down
    // slot.
    static IS_DRIVER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as the driver (client) thread.
pub fn mark_driver_thread() {
    IS_DRIVER.with(|d| d.set(true));
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Relaxed);
}

/// Allocation requests and bytes seen so far, by thread class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AllocCounts {
    /// Requests made on the driver thread.
    pub driver_allocs: u64,
    /// Bytes requested on the driver thread.
    pub driver_bytes: u64,
    /// Requests made on any other thread.
    pub other_allocs: u64,
    /// Bytes requested on any other thread.
    pub other_bytes: u64,
}

impl AllocCounts {
    /// The current totals.
    pub fn now() -> Self {
        AllocCounts {
            driver_allocs: DRIVER_ALLOCS.load(Relaxed),
            driver_bytes: DRIVER_BYTES.load(Relaxed),
            other_allocs: OTHER_ALLOCS.load(Relaxed),
            other_bytes: OTHER_BYTES.load(Relaxed),
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            driver_allocs: self.driver_allocs - earlier.driver_allocs,
            driver_bytes: self.driver_bytes - earlier.driver_bytes,
            other_allocs: self.other_allocs - earlier.other_allocs,
            other_bytes: self.other_bytes - earlier.other_bytes,
        }
    }

    /// Requests on all threads.
    pub fn allocs(self) -> u64 {
        self.driver_allocs + self.other_allocs
    }

    /// Bytes requested on all threads.
    pub fn bytes(self) -> u64 {
        self.driver_bytes + self.other_bytes
    }
}

#[inline]
fn count(size: usize) {
    if !ON.load(Relaxed) {
        return;
    }
    let (allocs, bytes) = if IS_DRIVER.with(Cell::get) {
        (&DRIVER_ALLOCS, &DRIVER_BYTES)
    } else {
        (&OTHER_ALLOCS, &OTHER_BYTES)
    };
    allocs.fetch_add(1, Relaxed);
    bytes.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches only atomics and a const-initialised thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests run on parallel threads that all allocate, so exact totals
    // cannot be asserted here; only the arithmetic is. The A/A table in
    // the README shows the counts repeating in real runs.
    #[test]
    fn deltas_subtract_fieldwise() {
        let a = AllocCounts {
            driver_allocs: 10,
            driver_bytes: 100,
            other_allocs: 4,
            other_bytes: 40,
        };
        let b = AllocCounts {
            driver_allocs: 3,
            driver_bytes: 30,
            other_allocs: 1,
            other_bytes: 10,
        };
        let d = a.since(b);
        assert_eq!((d.allocs(), d.bytes()), (10, 100));
        assert_eq!((d.driver_allocs, d.other_bytes), (7, 30));
    }
}
