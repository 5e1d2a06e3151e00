//! The system allocator behind a counter that only a traced run switches
//! on (`alloc.events_per_call`, `alloc.bytes_per_call`).
//!
//! One binary serves both run kinds, because the driver's command cannot
//! change with `--trace`. Switched off — every end-to-end run — the
//! wrapper adds one relaxed load to each allocation and forwards to
//! `System`. Switched on, each thread counts into a cache line of its
//! own with plain loads and stores: `tree_cold` allocates 6 800 times a
//! call, and two locked read-modify-writes per allocation were 7 % of
//! the run they were counting.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Threads that get a slot of their own. A traced run starts a few
/// hundred (the server starts half a dozen per connection); any beyond
/// this share the last slot and pay for atomic adds.
const SLOTS: usize = 4096;

#[repr(align(64))]
struct Slot {
    events: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    events: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNTS: [Slot; SLOTS] = [EMPTY; SLOTS];
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, which an allocator must not do.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// `System`, counting allocation events and requested bytes while
/// [`set_counting`] is on.
pub struct CountingAlloc;

fn note(bytes: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    // `try_with` fails only while a thread's locals are being torn
    // down; those few events go to the shared slot.
    let slot = MY_SLOT
        .try_with(|cell| {
            if cell.get() == usize::MAX {
                cell.set(THREADS.fetch_add(1, Ordering::Relaxed).min(SLOTS - 1));
            }
            cell.get()
        })
        .unwrap_or(SLOTS - 1);
    let (events, size) = (&COUNTS[slot].events, &COUNTS[slot].bytes);
    if slot == SLOTS - 1 {
        events.fetch_add(1, Ordering::Relaxed);
        size.fetch_add(bytes as u64, Ordering::Relaxed);
    } else {
        // This thread is the slot's only writer, for as long as the
        // process lives: a load and a store lose nothing.
        events.store(events.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        size.store(
            size.load(Ordering::Relaxed) + bytes as u64,
            Ordering::Relaxed,
        );
    }
}

// SAFETY: every operation is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the wrapper only updates counters
// that own no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted like `nrmi-bench`'s allocator: one event, the bytes of
        // the new block.
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Switches counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocation events, bytes requested)` counted so far. Monotonic:
/// difference two snapshots around the region of interest. Exact once
/// the threads that allocated in the region have been joined or are idle.
pub fn counters() -> (u64, u64) {
    let used = THREADS.load(Ordering::Relaxed).min(SLOTS - 1);
    let shared = &COUNTS[SLOTS - 1];
    COUNTS[..used]
        .iter()
        .chain([shared])
        .fold((0, 0), |(e, b), slot| {
            (
                e + slot.events.load(Ordering::Relaxed),
                b + slot.bytes.load(Ordering::Relaxed),
            )
        })
}
