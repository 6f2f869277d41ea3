//! Counting global allocator with per-thread attribution.
//!
//! Only the traced binary installs [`CountingAlloc`] as its
//! `#[global_allocator]`; the end-to-end binary runs on the plain system
//! allocator. A counting allocator with one set of shared atomics was
//! measured to cut a 2-shard runtime from 0.91–1.08M ev/s to
//! 0.50–0.64M ev/s, so every thread here counts into a slot of its own
//! (cache-line aligned, written only by that thread): the cost is an
//! uncontended relaxed add per call, and the totals fold at read time.
//!
//! Slot 0 belongs to the first thread that allocates, which is always the
//! main thread (no other thread exists before `main` spawns one). The main
//! thread is the benchmark's caller thread — generator and router — so
//! slot 0 is the router's account and every other slot is a thread the
//! runtime spawned (`zstream-shard-*`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Slots for distinct threads over one process. Threads beyond this share
/// the last slot (their counts stay right; only the split blurs).
const SLOTS: usize = 4096;

#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
    freed: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot =
    Slot { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0), freed: AtomicU64::new(0) };

static TABLE: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MINE: Cell<usize> = const { Cell::new(usize::MAX) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

/// The counting allocator: forwards to [`System`] and counts calls and
/// requested bytes in the calling thread's slot.
pub struct CountingAlloc;

fn slot() -> Option<&'static Slot> {
    // `try_with` fails only during thread teardown; those calls go
    // uncounted rather than aborting.
    let paused = PAUSED.try_with(Cell::get).unwrap_or(true);
    if paused {
        return None;
    }
    let idx = MINE
        .try_with(|m| {
            if m.get() == usize::MAX {
                m.set(NEXT.fetch_add(1, Relaxed).min(SLOTS - 1));
            }
            m.get()
        })
        .ok()?;
    Some(&TABLE[idx])
}

fn count_alloc(size: usize) {
    if let Some(s) = slot() {
        s.allocs.fetch_add(1, Relaxed);
        s.bytes.fetch_add(size as u64, Relaxed);
    }
}

fn count_free(size: usize) {
    if let Some(s) = slot() {
        s.freed.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counting
// touches only atomics and const-initialized thread-locals, which never
// allocate (no re-entry).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: forwarded with the caller's (non-zero-size) layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: forwarded with the caller's (non-zero-size) layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        // SAFETY: `ptr` was allocated by `System` (every allocation path
        // above forwards there) with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_free(layout.size());
        count_alloc(new_size);
        // SAFETY: `ptr`/`layout` come from `System` as above; the caller
        // guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocTotals {
    /// Calls on the caller (main) thread.
    pub caller_allocs: u64,
    /// Bytes requested on the caller thread.
    pub caller_bytes: u64,
    /// Calls on every other thread (the runtime's shard threads).
    pub shard_allocs: u64,
    /// Bytes requested on every other thread.
    pub shard_bytes: u64,
    /// Bytes requested minus bytes freed, over all threads: the live heap.
    pub live_bytes: i64,
}

impl AllocTotals {
    /// The counts accumulated from `earlier` to `self`.
    pub fn since(&self, earlier: &AllocTotals) -> AllocTotals {
        AllocTotals {
            caller_allocs: self.caller_allocs - earlier.caller_allocs,
            caller_bytes: self.caller_bytes - earlier.caller_bytes,
            shard_allocs: self.shard_allocs - earlier.shard_allocs,
            shard_bytes: self.shard_bytes - earlier.shard_bytes,
            live_bytes: self.live_bytes - earlier.live_bytes,
        }
    }
}

/// Folds every slot into caller / shard totals.
pub fn totals() -> AllocTotals {
    let used = NEXT.load(Relaxed).min(SLOTS);
    let mut t = AllocTotals::default();
    let mut freed = 0u64;
    for (i, s) in TABLE[..used].iter().enumerate() {
        let (a, b) = (s.allocs.load(Relaxed), s.bytes.load(Relaxed));
        if i == 0 {
            t.caller_allocs = a;
            t.caller_bytes = b;
        } else {
            t.shard_allocs += a;
            t.shard_bytes += b;
        }
        freed += s.freed.load(Relaxed);
    }
    t.live_bytes = (t.caller_bytes + t.shard_bytes) as i64 - freed as i64;
    t
}

/// Whether this process runs on [`CountingAlloc`]: any allocation at all
/// has claimed a slot by the time `main` runs.
pub fn installed() -> bool {
    NEXT.load(Relaxed) > 0
}

/// Runs `f` with counting paused on the calling thread — for the
/// benchmark's own bookkeeping (match digests, `/proc` reads, obs scrapes)
/// inside a measured region, so it is not charged to the router.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = PAUSED.with(|p| p.replace(true));
    let out = f();
    PAUSED.with(|p| p.set(was));
    out
}
