//! A counting global allocator for the perf-attribution layer.
//!
//! Allocations per report answer "is ingest allocation-bound?" — the
//! one question lock telemetry cannot. This crate wraps
//! [`std::alloc::System`] with per-thread-shard atomic counters
//! (allocation count and bytes requested), installed as the process
//! `#[global_allocator]` only when the `global` feature is on. The
//! benchmark's `traced` build turns that feature on; `csaw-bench`'s
//! allocation-budget tests install [`CountingAlloc`] in their own test
//! binaries instead, so every workspace binary keeps the stock
//! allocator.
//!
//! ## Why shards, not a single pair of atomics
//!
//! Ingest benchmarks allocate from 8+ threads at tens of millions of
//! allocations per run; a single contended cache line under the
//! allocator would *become* the bottleneck it is trying to measure.
//! Each thread hashes to one of [`SHARDS`] cache-padded slots, so
//! cross-thread interference is limited to hash collisions. Counters
//! are read with [`snapshot`], which sums the shards; deltas between
//! snapshots bracket a measured phase.
//!
//! This is the only crate in the workspace allowed `unsafe` (the
//! [`std::alloc::GlobalAlloc`] trait requires it); the implementation
//! delegates straight to `System` and touches nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter shards; threads hash into them by thread id.
pub const SHARDS: usize = 64;

/// One cache-line-padded counter slot.
#[repr(align(128))]
#[derive(Debug)]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_SLOT: Slot = Slot {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

static SLOTS: [Slot; SHARDS] = [ZERO_SLOT; SHARDS];

/// Round-robin shard assignment for new threads.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index; `usize::MAX` = not yet assigned.
    /// `const`-initialized so the fast path is a plain TLS read with no
    /// lazy-init machinery and no allocation (critical: this runs
    /// *inside* the allocator).
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot() -> &'static Slot {
    // During thread teardown the TLS key may already be destroyed;
    // fall back to shard 0 rather than losing the sample (or aborting).
    let idx = SLOT
        .try_with(|c| {
            let v = c.get();
            if v != usize::MAX {
                v
            } else {
                let v = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDS;
                c.set(v);
                v
            }
        })
        .unwrap_or(0);
    &SLOTS[idx]
}

/// A [`GlobalAlloc`] wrapping [`System`] with sharded counting.
///
/// Install it (feature `global`) or embed it in a custom allocator
/// chain; either way [`snapshot`] reads the totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: pure delegation to `System`, which upholds the GlobalAlloc
// contract; the counter updates have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let s = slot();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let s = slot();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow/shrink counts as one allocation event for the bytes
        // actually requested; the old block is not re-counted.
        let s = slot();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(feature = "global")]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Whether this build actually counts (the `global` feature installed
/// the allocator). Without it, [`snapshot`] legitimately reads zeros.
pub fn counting() -> bool {
    cfg!(feature = "global")
}

/// Totals since process start: `(allocations, bytes_requested)`.
///
/// Sums the shards; concurrent updates make this a point-in-time
/// estimate, exact once the threads being measured have joined.
pub fn snapshot() -> (u64, u64) {
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    for s in SLOTS.iter() {
        allocs = allocs.wrapping_add(s.allocs.load(Ordering::Relaxed));
        bytes = bytes.wrapping_add(s.bytes.load(Ordering::Relaxed));
    }
    (allocs, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_monotone_nondecreasing() {
        let (a0, b0) = snapshot();
        let v: Vec<u64> = (0..1000).collect();
        std::hint::black_box(&v);
        let (a1, b1) = snapshot();
        assert!(a1 >= a0 && b1 >= b0);
        if counting() {
            assert!(a1 > a0, "a fresh Vec must be counted");
            assert!(b1 - b0 >= 8000, "the Vec's bytes must be counted");
        }
    }

    #[test]
    fn counting_matches_feature() {
        assert_eq!(counting(), cfg!(feature = "global"));
    }

    #[test]
    fn threads_land_in_bounds() {
        // Hammer from several threads; nothing panics and totals move
        // when the feature is on.
        let (a0, _) = snapshot();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100 {
                        let v = vec![i as u8; 64];
                        std::hint::black_box(&v);
                    }
                });
            }
        });
        let (a1, _) = snapshot();
        if counting() {
            assert!(a1 - a0 >= 400);
        }
    }
}
