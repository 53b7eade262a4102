//! Shared test support: a counting global allocator for the
//! allocation-budget suites (`alloc_free`, `store_zero_copy`).
//!
//! Counting is armed *per thread* through const-initialised thread-locals
//! (plain `Cell`s: no lazy initialisation and no destructor, so the
//! allocator never allocates or re-enters itself to read them). Tests of
//! the same binary run concurrently on sibling threads; a process-global
//! switch would charge their allocations to whichever window happened to
//! be open. Allocations on other threads are therefore invisible to a
//! window. The plan executor never leaves the calling thread, so its
//! windows hold at any worker budget; a window around prepare-side work
//! (`prepare_set`, the schedule sweep, the pattern histogram), which may
//! fan out, must install a serial budget itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The counting allocator: forwards to [`System`], counting what the
/// current thread requests while its window is armed.
pub struct CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Charges one allocation of `bytes` to the current thread's window, if
/// one is armed (`try_with`: the thread may be tearing down its locals).
fn record(bytes: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches
// thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` and returns the heap allocations and total bytes the current
/// thread requested meanwhile, plus `f`'s result.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    ALLOCS.with(|a| a.set(0));
    BYTES.with(|b| b.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get), out)
}
