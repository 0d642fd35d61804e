//! A counting `#[global_allocator]`, active only while a traced pass
//! runs. It counts on the thread that asked for it, so other threads
//! (the test harness's) cannot perturb the numbers; the benchmark itself
//! is single-threaded, which is why the counts repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so reading it inside
    // the allocator never allocates or registers a TLS dtor.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

fn on_alloc(size: usize) {
    if counting() {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK_LIVE.fetch_max(live, Relaxed);
    }
}

fn on_free(size: usize) {
    if counting() {
        // Memory allocated before counting began may be freed during it.
        let _ = LIVE.fetch_update(Relaxed, Relaxed, |l| Some(l.saturating_sub(size as u64)));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters are plain
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr` came from `System` through this allocator, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the allocator saw between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    pub count: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

/// Zero the counters and begin counting on this thread.
pub fn start() {
    for c in [&COUNT, &BYTES, &LIVE, &PEAK_LIVE] {
        c.store(0, Relaxed);
    }
    COUNTING.with(|c| c.set(true));
}

/// Stop counting on this thread and return the totals.
pub fn stop() -> AllocCounts {
    COUNTING.with(|c| c.set(false));
    AllocCounts {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK_LIVE.load(Relaxed),
    }
}
