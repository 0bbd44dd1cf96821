//! Counting global allocator: every allocation and reallocation made by
//! any thread of the process bumps one relaxed counter. The serve
//! workloads read it around `submit` + `serve_round` to report
//! `server.allocs_per_frame`, which the server's no-allocation contract
//! says is 0 for pilot-monitored sessions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`] plus an allocation counter.
pub struct CountingAlloc {
    allocs: AtomicU64,
}

impl CountingAlloc {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self {
            allocs: AtomicU64::new(0),
        }
    }

    /// Allocations (including reallocations) so far. `Relaxed` is
    /// enough: the count publishes no other data.
    pub fn allocations(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the
// counter update touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocations made by the whole process so far.
pub fn allocations() -> u64 {
    ALLOC.allocations()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_allocations_and_nothing_else() {
        // Tests run on parallel threads that share the global counter,
        // so the checks are lower bounds on a private burst.
        let before = allocations();
        let boxes: Vec<Box<u64>> = (0..100).map(|i| Box::new(black_box(i))).collect();
        assert!(allocations() - before >= 100, "each Box allocates once");
        black_box(&boxes);

        let mut v: Vec<u8> = Vec::with_capacity(1);
        let before = allocations();
        v.extend_from_slice(black_box(&[1u8; 4096]));
        assert!(allocations() > before, "growth reallocates");
        black_box(&v);
    }

    #[test]
    fn reuse_within_capacity_does_not_count() {
        let mut v: Vec<u64> = Vec::with_capacity(1024);
        let local = CountingAlloc::new();
        assert_eq!(local.allocations(), 0);
        // Filling within capacity never calls the allocator; measure on
        // this thread with a retry, since other test threads may
        // allocate concurrently into the shared counter.
        let clean = (0..50).any(|_| {
            v.clear();
            let before = allocations();
            for i in 0..1024 {
                v.push(black_box(i));
            }
            allocations() == before
        });
        assert!(clean, "pushes within capacity must not allocate");
    }
}
