//! A std-only counting allocator.
//!
//! Two independent switches, both off by default so untimed bookkeeping
//! is the only cost an untraced run pays (one relaxed load per call):
//!
//! * **Counting** — allocations and bytes, kept per thread in padded
//!   slots so shard workers never share a counter. A thread reads its
//!   own slot to bracket a call ([`thread_counts`]); [`total_counts`]
//!   sums every slot. Counts are exact.
//! * **Live tracking** — bytes currently allocated and their peak, for
//!   the `mem_peak_mb` metric. One shared atomic, so it is switched on
//!   only for an untimed pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The counting wrapper around the system allocator.
pub struct Counting;

const SLOTS: usize = 64;

#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static SLOT_TABLE: [Slot; SLOTS] = [const {
    Slot {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);
static TRACKING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and drop-free, so reading them never allocates
    // and is valid for the whole life of the thread.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static SUSPENDED: Cell<bool> = const { Cell::new(false) };
}

fn my_slot() -> &'static Slot {
    let idx = MY_SLOT.with(|s| {
        if s.get() == usize::MAX {
            // More than SLOTS threads share slots; the atomics keep the
            // counts exact, only the padding benefit is lost.
            s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
        }
        s.get()
    });
    &SLOT_TABLE[idx]
}

fn note_alloc(size: usize) {
    if COUNTING.load(Relaxed) && !SUSPENDED.with(Cell::get) {
        let slot = my_slot();
        slot.allocs.fetch_add(1, Relaxed);
        slot.bytes.fetch_add(size as u64, Relaxed);
    }
    if TRACKING.load(Relaxed) {
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn note_free(size: usize) {
    if TRACKING.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every method forwards the caller's layout and pointer to
// `System` unchanged, so `System`'s guarantees carry over; the counters
// touched on the side never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and bytes requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, rhs: Counts) -> Counts {
        Counts {
            allocs: self.allocs - rhs.allocs,
            bytes: self.bytes - rhs.bytes,
        }
    }
}

/// Start or stop counting on every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// This thread's counts so far.
pub fn thread_counts() -> Counts {
    let slot = my_slot();
    Counts {
        allocs: slot.allocs.load(Relaxed),
        bytes: slot.bytes.load(Relaxed),
    }
}

/// Counts summed over every thread that ever counted.
pub fn total_counts() -> Counts {
    SLOT_TABLE.iter().fold(Counts::default(), |acc, s| Counts {
        allocs: acc.allocs + s.allocs.load(Relaxed),
        bytes: acc.bytes + s.bytes.load(Relaxed),
    })
}

/// Run `f` with this thread's counting paused (benchmark bookkeeping
/// that must not show up in the program's counts).
pub fn suspended<R>(f: impl FnOnce() -> R) -> R {
    let was = SUSPENDED.with(|s| s.replace(true));
    let out = f();
    SUSPENDED.with(|s| s.set(was));
    out
}

/// Track live bytes from zero while `f` runs; returns `f`'s result and
/// the peak of bytes allocated since the start that were still live.
pub fn peak_live_bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    TRACKING.store(true, Relaxed);
    let out = f();
    TRACKING.store(false, Relaxed);
    (out, PEAK.load(Relaxed).max(0) as u64)
}

/// Fix the system allocator's thresholds for the whole run (glibc).
///
/// By default glibc returns freed memory at the top of a heap to the
/// kernel once it exceeds a threshold that it moves as large blocks
/// come and go, and which blocks go straight to `mmap` moves with it.
/// Whether the previous episode's memory was handed back then depends
/// on the order its last blocks were freed in, so the next episode's
/// set-up sometimes faults fresh pages in and sometimes does not: on
/// `fabric-forward`, whose set-up is under a millisecond, that alone
/// split set-up times 0.45 ms / 0.75 ms from episode to episode (0 or
/// about 80 minor faults). Fixed thresholds keep what one episode freed
/// mapped for the next, so every timed episode starts from the same
/// kind of heap; the untimed first episode pays the faults.
pub fn fix_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only sets allocator parameters; it is called
        // before any thread but the main one exists.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}
