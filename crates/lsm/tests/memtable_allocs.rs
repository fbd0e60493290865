//! Allocation guard for the write path's in-memory apply: the arena
//! MemTable copies keys and values out of borrowed slices into a few large
//! chunks, so a put costs (amortised) no heap allocation. A per-entry
//! `Vec` or node allocation sneaking back in would not fail any functional
//! test — it shows up only as allocator traffic under every write — so it
//! is pinned here with a counting allocator.
//!
//! This file is its own test binary on purpose: the `#[global_allocator]`
//! below must not be shared with any other suite, and it holds exactly one
//! test so no concurrently running test adds to the count.

use proteus_lsm::memtable::MemTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus one relaxed counter of `alloc` + `realloc`
/// calls (every request that may obtain new memory).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is an atomic add.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PUTS: usize = 10_000;
const KEY_LEN: usize = 16;
const VALUE_LEN: usize = 64;
/// Absolute ceiling. The arena grows by chunk, so the expected figure is a
/// few dozen allocations per 10 000 puts (0.0055 per put when this guard
/// was written); one allocation per entry would read ≥ 1.0.
const MAX_ALLOCS_PER_PUT: f64 = 0.01;

#[test]
fn arena_memtable_put_does_not_allocate_per_entry() {
    // Inputs are built before counting starts: distinct keys in scattered
    // order (an odd multiplier permutes u64), so inserts land all over the
    // skiplist rather than at its tail.
    let keys: Vec<[u8; KEY_LEN]> = (0..PUTS as u64)
        .map(|i| {
            let mut k = [0u8; KEY_LEN];
            k[..8].copy_from_slice(&i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes());
            k[8..].copy_from_slice(&i.to_be_bytes());
            k
        })
        .collect();
    let value = [0xAB_u8; VALUE_LEN];

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut table = MemTable::new();
    for k in &keys {
        table.apply_ref(k, Some(&value));
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(table.len(), PUTS);
    let per_put = allocs as f64 / PUTS as f64;
    assert!(
        per_put <= MAX_ALLOCS_PER_PUT,
        "MemTable::apply_ref made {allocs} allocations for {PUTS} puts \
         ({per_put:.4} per put, ceiling {MAX_ALLOCS_PER_PUT})"
    );
}
